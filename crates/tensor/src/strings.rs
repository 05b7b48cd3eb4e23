//! Kernels over TQP's `(n × m)` right-zero-padded UTF-8 string matrices
//! (paper §2.1), most importantly SQL `LIKE`.
//!
//! `LIKE` patterns compile once per query into a [`LikePattern`]; matching a
//! column is then a vectorized row scan with fast paths for the four shapes
//! that cover every TPC-H predicate (`exact`, `prefix%`, `%suffix`,
//! `%contains%`) and a general wildcard matcher for the rest
//! (e.g. Q13's `'%special%requests%'`). Whether a literal segment holds a
//! `_` is decided at compile time: one without is *searched* — scan for its
//! rarest byte eight bytes at a time, compare the slice at each hit —
//! instead of tested at every start position.

use crate::pool::par_chunks_mut;
use crate::tensor::Tensor;

/// A compiled `LIKE` pattern. `%` matches any run (possibly empty), `_`
/// matches exactly one byte. (TQP operates on UTF-8 bytes; TPC-H text is
/// ASCII so byte == character.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LikePattern {
    /// No wildcards: equality.
    Exact(Vec<u8>),
    /// `lit%`.
    Prefix(Vec<u8>),
    /// `%lit`.
    Suffix(Vec<u8>),
    /// `%lit%`.
    Contains(Segment),
    /// Anything else: literal segments separated by `%`; `_` only supported
    /// in the general form. `leading`/`trailing` indicate whether the
    /// pattern starts/ends with `%`.
    General {
        segments: Vec<Segment>,
        leading: bool,
        trailing: bool,
    },
}

/// One `%`-free stretch of a pattern, with how to search for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    bytes: Vec<u8>,
    /// Offset of the byte to scan for — the one rarest in text — or `None`
    /// when the segment holds a `_` and every start must be tested.
    probe: Option<usize>,
}

impl Segment {
    fn new(bytes: &[u8]) -> Segment {
        let probe = if bytes.contains(&b'_') {
            None
        } else {
            (0..bytes.len()).min_by_key(|&i| commonness(bytes[i]))
        };
        Segment {
            bytes: bytes.to_vec(),
            probe,
        }
    }

    fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Does the segment match `hay` at offset `at`?
    fn matches_at(&self, hay: &[u8], at: usize) -> bool {
        let Some(window) = hay.get(at..at + self.len()) else {
            return false;
        };
        match self.probe {
            Some(_) => window == self.bytes.as_slice(),
            None => window
                .iter()
                .zip(&self.bytes)
                .all(|(&h, &n)| n == b'_' || h == n),
        }
    }

    /// First offset `>= from` at which the segment matches `hay`.
    fn find_from(&self, hay: &[u8], from: usize) -> Option<usize> {
        if self.bytes.is_empty() {
            return Some(from.min(hay.len()));
        }
        if from + self.len() > hay.len() {
            return None;
        }
        let last = hay.len() - self.len();
        let Some(probe) = self.probe else {
            return (from..=last).find(|&i| self.matches_at(hay, i));
        };
        // Candidate starts are where the probe byte sits `probe` bytes in.
        let byte = self.bytes[probe];
        let mut at = from;
        while at <= last {
            at += find_byte(&hay[at + probe..=last + probe], byte)?;
            if self.matches_at(hay, at) {
                return Some(at);
            }
            at += 1;
        }
        None
    }
}

/// How common a byte is in English-like text (higher = more common): the
/// search scans for a segment's least common byte, so `requests` is found
/// by its `q`, not tried at every `r`.
fn commonness(b: u8) -> u8 {
    const BY_FREQUENCY: &[u8] = b" etaoinshrdlcumwfgypbvkjxqz";
    match BY_FREQUENCY
        .iter()
        .position(|&c| c == b.to_ascii_lowercase())
    {
        Some(rank) => (BY_FREQUENCY.len() - rank) as u8,
        None => 0,
    }
}

/// Offset of the first `byte` in `hay`, eight bytes at a time (the
/// zero-byte test of `word ^ splat(byte)`).
fn find_byte(hay: &[u8], byte: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let splat = LO * byte as u64;
    let mut chunks = hay.chunks_exact(8);
    for (i, chunk) in chunks.by_ref().enumerate() {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ splat;
        let zeros = x.wrapping_sub(LO) & !x & HI;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = chunks.remainder();
    tail.iter()
        .position(|&b| b == byte)
        .map(|p| hay.len() - tail.len() + p)
}

impl LikePattern {
    /// Compile a SQL LIKE pattern string.
    pub fn compile(pattern: &str) -> LikePattern {
        let p = pattern.as_bytes();
        let has_underscore = p.contains(&b'_');
        let pct: Vec<usize> = p
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'%')
            .map(|(i, _)| i)
            .collect();
        if !has_underscore {
            match pct.len() {
                0 => return LikePattern::Exact(p.to_vec()),
                1 if pct[0] == p.len() - 1 => return LikePattern::Prefix(p[..pct[0]].to_vec()),
                1 if pct[0] == 0 => return LikePattern::Suffix(p[1..].to_vec()),
                2 if pct[0] == 0 && pct[1] == p.len() - 1 && p.len() >= 2 => {
                    return LikePattern::Contains(Segment::new(&p[1..p.len() - 1]))
                }
                _ => {}
            }
        }
        let leading = p.first() == Some(&b'%');
        let trailing = p.last() == Some(&b'%');
        let segments: Vec<Segment> = p
            .split(|&b| b == b'%')
            .filter(|s| !s.is_empty())
            .map(Segment::new)
            .collect();
        LikePattern::General {
            segments,
            leading,
            trailing,
        }
    }

    /// Match one trimmed byte string.
    pub fn matches(&self, s: &[u8]) -> bool {
        match self {
            LikePattern::Exact(lit) => s == lit.as_slice(),
            LikePattern::Prefix(lit) => s.starts_with(lit),
            LikePattern::Suffix(lit) => s.ends_with(lit),
            LikePattern::Contains(lit) => lit.find_from(s, 0).is_some(),
            LikePattern::General {
                segments,
                leading,
                trailing,
            } => match_general(s, segments, *leading, *trailing),
        }
    }
}

/// General `%`-separated segment matching: first segment anchored at start
/// unless `leading`, last anchored at end unless `trailing`, middle segments
/// greedy left-to-right (correct for `%`-separated literals).
fn match_general(s: &[u8], segments: &[Segment], leading: bool, trailing: bool) -> bool {
    if segments.is_empty() {
        // Pattern was only '%'s: matches anything (or empty for no-%).
        return leading || trailing || s.is_empty();
    }
    let mut pos = 0usize;
    for (k, seg) in segments.iter().enumerate() {
        let first = k == 0;
        let last = k == segments.len() - 1;
        if first && !leading {
            if !seg.matches_at(s, 0) {
                return false;
            }
            pos = seg.len();
            if last && !trailing {
                return pos == s.len();
            }
            continue;
        }
        if last && !trailing {
            // Anchor at end; also must start at or after pos.
            if s.len() < seg.len() {
                return false;
            }
            let at = s.len() - seg.len();
            return at >= pos && seg.matches_at(s, at);
        }
        match seg.find_from(s, pos) {
            Some(at) => pos = at + seg.len(),
            None => return false,
        }
    }
    true
}

/// Vectorized `LIKE` over a string matrix: returns a `Bool` mask.
pub fn like(col: &Tensor, pattern: &LikePattern) -> Tensor {
    let n = col.nrows();
    let mut out = vec![false; n];
    par_chunks_mut(&mut out, |s, c| {
        for (i, o) in c.iter_mut().enumerate() {
            *o = pattern.matches(col.str_row_trimmed(s + i));
        }
    });
    Tensor::from_bool(out)
}

/// SQL `SUBSTRING(col, start, len)` with 1-based `start`; returns a new
/// `(n × len)` padded matrix (used by TPC-H Q22's country-code extraction).
pub fn substring(col: &Tensor, start: usize, len: usize) -> Tensor {
    assert!(start >= 1, "SQL SUBSTRING start is 1-based");
    let n = col.nrows();
    let w = len.max(1);
    let mut out = vec![0u8; n * w];
    for i in 0..n {
        let row = col.str_row_trimmed(i);
        let lo = (start - 1).min(row.len());
        let hi = (lo + len).min(row.len());
        out[i * w..i * w + (hi - lo)].copy_from_slice(&row[lo..hi]);
    }
    Tensor::from_u8_matrix(out, n, w)
}

/// Per-row character (byte) length, trimmed of padding.
pub fn char_length(col: &Tensor) -> Tensor {
    let n = col.nrows();
    let mut out = vec![0i64; n];
    par_chunks_mut(&mut out, |s, c| {
        for (i, o) in c.iter_mut().enumerate() {
            *o = col.str_row_trimmed(s + i).len() as i64;
        }
    });
    Tensor::from_i64(out)
}

/// Vectorized prefix test (`starts_with`), a common planner fast path.
pub fn starts_with(col: &Tensor, prefix: &str) -> Tensor {
    like(col, &LikePattern::Prefix(prefix.as_bytes().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, s: &str) -> bool {
        LikePattern::compile(pat).matches(s.as_bytes())
    }

    #[test]
    fn compile_shapes() {
        assert_eq!(
            LikePattern::compile("abc"),
            LikePattern::Exact(b"abc".to_vec())
        );
        assert_eq!(
            LikePattern::compile("abc%"),
            LikePattern::Prefix(b"abc".to_vec())
        );
        assert_eq!(
            LikePattern::compile("%abc"),
            LikePattern::Suffix(b"abc".to_vec())
        );
        assert_eq!(
            LikePattern::compile("%abc%"),
            LikePattern::Contains(Segment::new(b"abc"))
        );
        assert!(matches!(
            LikePattern::compile("%a%b%"),
            LikePattern::General { .. }
        ));
    }

    #[test]
    fn exact_prefix_suffix_contains() {
        assert!(m("hello", "hello"));
        assert!(!m("hello", "hell"));
        assert!(m("PROMO%", "PROMO BURNISHED"));
        assert!(!m("PROMO%", "STANDARD"));
        assert!(m("%BRASS", "SMALL BRASS"));
        assert!(!m("%BRASS", "BRASS NICKEL"));
        assert!(m("%green%", "dark green metallic"));
        assert!(m("%green%", "green"));
        assert!(!m("%green%", "gren"));
    }

    #[test]
    fn multi_segment_q13_pattern() {
        assert!(m(
            "%special%requests%",
            "handle special delivery requests now"
        ));
        assert!(!m("%special%requests%", "requests then special"));
        assert!(m("%special%requests%", "specialrequests"));
    }

    #[test]
    fn underscore_wildcards() {
        assert!(m("h_llo", "hello"));
        assert!(!m("h_llo", "hllo"));
        assert!(m("%gr_en%", "big green box"));
        assert!(m("a_c%", "abcdef"));
        assert!(!m("a_c%", "abdef"));
    }

    #[test]
    fn literal_segments_search_by_their_rarest_byte() {
        assert_eq!(Segment::new(b"requests").probe, Some(2)); // 'q'
        assert_eq!(Segment::new(b"gr_en").probe, None);
        // Hits in every position of the eight-byte words and in the tail.
        for at in 0..40 {
            let mut hay = vec![b'e'; 40 + 8];
            hay[at..at + 8].copy_from_slice(b"requests");
            assert_eq!(Segment::new(b"requests").find_from(&hay, 0), Some(at));
            assert_eq!(Segment::new(b"requests").find_from(&hay, at + 1), None);
            assert!(m("%requests%", std::str::from_utf8(&hay).unwrap()));
        }
        // A probe hit that is not a match moves on to the next one.
        assert!(m(
            "%special%requests%",
            "quest for special request requests"
        ));
        assert!(!m("%special%requests%", "special request quests"));
        assert_eq!(find_byte(b"", b'x'), None);
        assert_eq!(find_byte(&[0x80; 9], 0x7f), None);
        assert_eq!(find_byte(&[0xff, 0, 0x80, 1, 1, 1, 1, 1, 0], 0), Some(1));
    }

    #[test]
    fn degenerate_patterns() {
        assert!(m("%", "anything"));
        assert!(m("%", ""));
        assert!(m("%%", "x"));
        assert!(m("", ""));
        assert!(!m("", "x"));
    }

    #[test]
    fn anchored_general_both_sides() {
        // No leading/trailing % with a middle %: 'ab%yz'
        assert!(m("ab%yz", "abyz"));
        assert!(m("ab%yz", "ab123yz"));
        assert!(!m("ab%yz", "xab123yz"));
        assert!(!m("ab%yz", "ab123yzx"));
        // Overlap guard: last segment must start after first ends.
        assert!(!m("abc%bcd", "abcd"));
        assert!(m("abc%bcd", "abcbcd"));
    }

    #[test]
    fn like_kernel_on_column() {
        let col = Tensor::from_strings(&["PROMO A", "STD B", "PROMO C"], 0);
        let mask = like(&col, &LikePattern::compile("PROMO%"));
        assert_eq!(mask.as_bool(), &[true, false, true]);
    }

    #[test]
    fn substring_sql_semantics() {
        let col = Tensor::from_strings(&["13-345-222", "9", ""], 0);
        let cc = substring(&col, 1, 2);
        assert_eq!(cc.str_at(0), "13");
        assert_eq!(cc.str_at(1), "9");
        assert_eq!(cc.str_at(2), "");
        let mid = substring(&col, 4, 3);
        assert_eq!(mid.str_at(0), "345");
    }

    #[test]
    fn char_length_trims_padding() {
        let col = Tensor::from_strings(&["abc", "", "zz"], 0);
        assert_eq!(char_length(&col).as_i64(), &[3, 0, 2]);
    }

    #[test]
    fn starts_with_kernel() {
        let col = Tensor::from_strings(&["forest green", "rose", "forestry"], 0);
        assert_eq!(starts_with(&col, "forest").as_bool(), &[true, false, true]);
    }
}
