//! Explicit SIMD kernel layer with one-time runtime CPU-feature dispatch.
//!
//! Every dispatching kernel here has (at least) three tiers: a **scalar**
//! reference implementation (the oracle the test suites pin against), an
//! **AVX2** path, and an **AVX-512** path, selected once per process by
//! [`level`] from `is_x86_feature_detected!` and the `TQP_SIMD`
//! environment variable (`off`/`scalar` forces the fallback, `avx2` caps
//! the tier, anything else picks the best the host supports). That
//! variable is the one switch: it is read once and holds for the whole
//! process.
//!
//! **Determinism contract.** Every tier of every kernel produces
//! bitwise-identical output. Integer and comparison kernels are exact by
//! construction. Float *reductions* are made tier-invariant by defining
//! the canonical algorithm as a fixed 8-lane split ([`LANES`]): lane `j`
//! accumulates elements `8*b + j`, lanes fold in the fixed halving order
//! of [`fold8`], and the ragged tail folds sequentially into the result.
//! The scalar tier runs that same lane-split loop, so the tiers
//! cannot disagree even though float addition is non-associative. Min and
//! max use the canonical comparators [`cmin`]/[`cmax`], which are
//! deterministic on `NaN` (ignored unless the accumulator itself is NaN)
//! and on `±0.0` (first operand wins a tie) and map 1:1 onto a
//! compare+blend vector sequence.
//!
//! One carve-out: when a float **sum** itself evaluates to NaN (the input
//! contained NaN, or `+inf` and `-inf` met), *which* NaN bit pattern comes
//! out is not part of the contract — IEEE 754 leaves NaN propagation
//! through addition implementation-defined, and LLVM may commute scalar
//! `fadd` operands. NaN-ness of the result still agrees across tiers, and
//! min/max *select* an element (never synthesize a value), so they remain
//! fully bitwise even on NaN payloads.
//!
//! The plain little-endian decodes and the run-length fill have no vector
//! tier: their scalar loops already run at memory bandwidth, so the
//! scalar function is the entry point and nothing is dispatched.
//!
//! Per-family dispatch counters ([`counters`]) count vectorized kernel
//! invocations process-wide; `ExecStats` snapshots a delta around each
//! run (approximate under concurrent queries, exact otherwise).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Dispatch tier, ordered by capability. A tier may reuse a narrower
/// tier's implementation for a kernel with no wider win — output is
/// bitwise identical either way, so only throughput differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Reference implementation; also the forced `TQP_SIMD=off` tier.
    Scalar,
    /// 256-bit `core::arch::x86_64` paths.
    Avx2,
    /// 512-bit paths (requires avx512{f,bw,dq,vl}).
    Avx512,
}

static LEVEL: OnceLock<Level> = OnceLock::new();

fn detect() -> Level {
    let cap = match std::env::var("TQP_SIMD").ok().as_deref() {
        Some("off") | Some("0") | Some("false") | Some("scalar") => return Level::Scalar,
        Some("avx2") => Level::Avx2,
        _ => Level::Avx512,
    };
    #[cfg(target_arch = "x86_64")]
    {
        if cap >= Level::Avx512
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            return Level::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
    }
    let _ = cap;
    Level::Scalar
}

/// The tier this process dispatches to. Detected once (first call) from
/// the CPU and `TQP_SIMD`.
#[inline]
pub fn level() -> Level {
    *LEVEL.get_or_init(detect)
}

/// Kernels shorter than this stay scalar: below ~2 vectors of work the
/// dispatch + tail handling costs more than it saves.
const SIMD_MIN: usize = 16;

// ---------------------------------------------------------------------
// Dispatch counters
// ---------------------------------------------------------------------

/// Kernel family, for dispatch accounting.
#[derive(Debug, Clone, Copy)]
enum Family {
    Hash = 0,
    Filter = 1,
    Gather = 2,
    Reduce = 3,
    Decode = 4,
}

static COUNTERS: [AtomicU64; 5] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

#[inline]
fn bump(f: Family) {
    COUNTERS[f as usize].fetch_add(1, Ordering::Relaxed);
}

/// Per-family counts of vectorized (non-scalar tier) kernel dispatches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    pub hash: u64,
    pub filter: u64,
    pub gather: u64,
    pub reduce: u64,
    pub decode: u64,
}

impl DispatchCounts {
    /// Saturating per-field difference (`self` taken after `earlier`).
    pub fn since(&self, earlier: &DispatchCounts) -> DispatchCounts {
        DispatchCounts {
            hash: self.hash.saturating_sub(earlier.hash),
            filter: self.filter.saturating_sub(earlier.filter),
            gather: self.gather.saturating_sub(earlier.gather),
            reduce: self.reduce.saturating_sub(earlier.reduce),
            decode: self.decode.saturating_sub(earlier.decode),
        }
    }

    /// Total across families.
    pub fn total(&self) -> u64 {
        self.hash + self.filter + self.gather + self.reduce + self.decode
    }
}

/// Snapshot the process-wide dispatch counters.
pub fn counters() -> DispatchCounts {
    DispatchCounts {
        hash: COUNTERS[0].load(Ordering::Relaxed),
        filter: COUNTERS[1].load(Ordering::Relaxed),
        gather: COUNTERS[2].load(Ordering::Relaxed),
        reduce: COUNTERS[3].load(Ordering::Relaxed),
        decode: COUNTERS[4].load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Canonical comparison ops (filter-mask family)
// ---------------------------------------------------------------------

/// Canonical `i64` per-element predicate. `In(lo, r)` is the closed
/// interval `lo <= x <= lo + r` in the wrapping-subtract form the dense
/// mask planner produces: `x.wrapping_sub(lo) as u64 <= r`.
#[derive(Debug, Clone, Copy)]
pub enum CmpI64 {
    Eq(i64),
    Ne(i64),
    Lt(i64),
    Le(i64),
    Gt(i64),
    Ge(i64),
    In(i64, u64),
}

/// Canonical `f64` per-element predicate (IEEE semantics: ordered
/// compares are false on NaN; `Ne` is true on NaN, like `!=`).
/// `In` is the two-sided interval with per-bound strictness.
#[derive(Debug, Clone, Copy)]
pub enum CmpF64 {
    Eq(f64),
    Ne(f64),
    Lt(f64),
    Le(f64),
    Gt(f64),
    Ge(f64),
    In {
        lo: f64,
        lo_strict: bool,
        hi: f64,
        hi_strict: bool,
    },
}

/// Scalar evaluation of [`CmpI64`] — the single source of truth all
/// tiers must match.
#[inline(always)]
pub fn eval_i64(op: CmpI64, x: i64) -> bool {
    match op {
        CmpI64::Eq(c) => x == c,
        CmpI64::Ne(c) => x != c,
        CmpI64::Lt(c) => x < c,
        CmpI64::Le(c) => x <= c,
        CmpI64::Gt(c) => x > c,
        CmpI64::Ge(c) => x >= c,
        CmpI64::In(lo, r) => x.wrapping_sub(lo) as u64 <= r,
    }
}

/// Scalar evaluation of [`CmpF64`].
#[inline(always)]
pub fn eval_f64(op: CmpF64, x: f64) -> bool {
    match op {
        CmpF64::Eq(c) => x == c,
        CmpF64::Ne(c) => x != c,
        CmpF64::Lt(c) => x < c,
        CmpF64::Le(c) => x <= c,
        CmpF64::Gt(c) => x > c,
        CmpF64::Ge(c) => x >= c,
        CmpF64::In {
            lo,
            lo_strict,
            hi,
            hi_strict,
        } => {
            (if lo_strict { x > lo } else { x >= lo }) & (if hi_strict { x < hi } else { x <= hi })
        }
    }
}

// ---------------------------------------------------------------------
// Canonical float fold (reduce family)
// ---------------------------------------------------------------------

/// Accumulator lane count of the canonical reduction. Eight `f64` lanes
/// is one AVX-512 register or an AVX2 register pair — both widths fold
/// to the identical operation tree.
pub const LANES: usize = 8;

/// Canonical deterministic minimum: picks `b` when `b < a` or when the
/// accumulator `a` is NaN, else keeps `a`. Ignores NaN inputs, keeps the
/// first operand on a `±0.0` tie, and maps exactly onto the vector
/// sequence `blend(a, b, lt(b, a) | unord(a, a))`.
#[inline(always)]
pub fn cmin(a: f64, b: f64) -> f64 {
    if b < a || a.is_nan() {
        b
    } else {
        a
    }
}

/// Canonical deterministic maximum (mirror of [`cmin`]).
#[inline(always)]
pub fn cmax(a: f64, b: f64) -> f64 {
    if b > a || a.is_nan() {
        b
    } else {
        a
    }
}

/// The fixed lane-fold order every tier uses: 8 lanes halve to 4
/// (`f(a[j], a[j+4])`), 4 to 2, 2 to 1 — exactly the sequence of vector
/// half-width reductions, so the scalar tier reproduces the SIMD
/// horizontal fold bit for bit.
#[inline(always)]
pub fn fold8(a: &[f64; LANES], f: impl Fn(f64, f64) -> f64) -> f64 {
    let s = [f(a[0], a[4]), f(a[1], a[5]), f(a[2], a[6]), f(a[3], a[7])];
    let t = [f(s[0], s[2]), f(s[1], s[3])];
    f(t[0], t[1])
}

// ---------------------------------------------------------------------
// Bit-to-bool expansion tables
// ---------------------------------------------------------------------

/// Expand the low 8 bits of `m` to 8 bool bytes (bit `j` -> byte `j`).
const fn expand8(m: usize) -> u64 {
    let mut v = 0u64;
    let mut j = 0;
    while j < 8 {
        if m & (1 << j) != 0 {
            v |= 1 << (8 * j);
        }
        j += 1;
    }
    v
}

/// 4-bit mask -> 4 bool bytes.
static LUT4: [u32; 16] = {
    let mut t = [0u32; 16];
    let mut m = 0;
    while m < 16 {
        t[m] = expand8(m) as u32;
        m += 1;
    }
    t
};

/// 8-bit mask -> 8 bool bytes. Also the bulk `unpack_bits` table: the
/// bit order (bit `j` of the byte -> element `8*k + j`) matches the
/// storage format's `packed[i / 8] & (1 << (i % 8))`.
static LUT8: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        t[m] = expand8(m);
        m += 1;
    }
    t
};

/// Per-mask ascending positions of set bits (compaction table).
static POS8: [[u8; 8]; 256] = {
    let mut t = [[0u8; 8]; 256];
    let mut m = 0;
    while m < 256 {
        let mut k = 0;
        let mut j = 0;
        while j < 8 {
            if m & (1 << j) != 0 {
                t[m][k] = j as u8;
                k += 1;
            }
            j += 1;
        }
        m += 1;
    }
    t
};

/// Multiply trick: 8 bool bytes (read as one LE `u64`) -> 8-bit mask
/// with bit `j` = byte `j`. Each byte of the product accumulates at most
/// eight single-bit terms, so no carries cross byte lanes.
#[inline(always)]
fn bools_to_mask(chunk: u64) -> u8 {
    (chunk.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

// ---------------------------------------------------------------------
// Scalar reference tier
// ---------------------------------------------------------------------

/// The scalar reference implementations — the *same code* the oracle
/// tests pin against, and what every dispatching kernel in this module
/// falls back to. Public so benches and property tests can compare the
/// dispatching entry points against them in-process.
pub mod scalar {
    use super::{cmax, cmin, eval_f64, eval_i64, fold8, CmpF64, CmpI64, LANES};

    /// `m[i] = eval(op, d[i])`, or `&=` when `and` is set.
    pub fn mask_i64(op: CmpI64, d: &[i64], m: &mut [bool], and: bool) {
        if and {
            for (o, &x) in m.iter_mut().zip(d) {
                *o &= eval_i64(op, x);
            }
        } else {
            for (o, &x) in m.iter_mut().zip(d) {
                *o = eval_i64(op, x);
            }
        }
    }

    /// `m[i] = eval(op, d[i])`, or `&=` when `and` is set.
    pub fn mask_f64(op: CmpF64, d: &[f64], m: &mut [bool], and: bool) {
        if and {
            for (o, &x) in m.iter_mut().zip(d) {
                *o &= eval_f64(op, x);
            }
        } else {
            for (o, &x) in m.iter_mut().zip(d) {
                *o = eval_f64(op, x);
            }
        }
    }

    /// `m[i] = src[i]`, or `&=` when `and` is set.
    pub fn mask_bool(src: &[bool], m: &mut [bool], and: bool) {
        if and {
            for (o, &v) in m.iter_mut().zip(src) {
                *o &= v;
            }
        } else {
            m.copy_from_slice(src);
        }
    }

    /// Canonical lane-split sum (see module docs for why this shape is
    /// the definition, not an optimization of one).
    pub fn sum_f64(x: &[f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        let mut it = x.chunks_exact(LANES);
        for c in &mut it {
            for (a, &v) in acc.iter_mut().zip(c) {
                *a += v;
            }
        }
        let mut r = fold8(&acc, |a, b| a + b);
        for &v in it.remainder() {
            r += v;
        }
        r
    }

    /// Canonical lane-split sum of `f32` values widened to `f64`.
    pub fn sum_f32(x: &[f32]) -> f64 {
        let mut acc = [0.0f64; LANES];
        let mut it = x.chunks_exact(LANES);
        for c in &mut it {
            for (a, &v) in acc.iter_mut().zip(c) {
                *a += v as f64;
            }
        }
        let mut r = fold8(&acc, |a, b| a + b);
        for &v in it.remainder() {
            r += v as f64;
        }
        r
    }

    /// Wrapping lane-split sum (order-free, but kept in the canonical
    /// shape so all tiers share one structure).
    pub fn sum_i64(x: &[i64]) -> i64 {
        let mut acc = [0i64; LANES];
        let mut it = x.chunks_exact(LANES);
        for c in &mut it {
            for (a, &v) in acc.iter_mut().zip(c) {
                *a = a.wrapping_add(v);
            }
        }
        let mut r = acc.iter().fold(0i64, |a, &b| a.wrapping_add(b));
        for &v in it.remainder() {
            r = r.wrapping_add(v);
        }
        r
    }

    /// Canonical lane-split minimum; identity `+inf` (empty input and
    /// all-NaN input both return `+inf`, matching the pre-SIMD fold).
    pub fn min_f64(x: &[f64]) -> f64 {
        let mut acc = [f64::INFINITY; LANES];
        let mut it = x.chunks_exact(LANES);
        for c in &mut it {
            for (a, &v) in acc.iter_mut().zip(c) {
                *a = cmin(*a, v);
            }
        }
        let mut r = fold8(&acc, cmin);
        for &v in it.remainder() {
            r = cmin(r, v);
        }
        r
    }

    /// Canonical lane-split maximum; identity `-inf`.
    pub fn max_f64(x: &[f64]) -> f64 {
        let mut acc = [f64::NEG_INFINITY; LANES];
        let mut it = x.chunks_exact(LANES);
        for c in &mut it {
            for (a, &v) in acc.iter_mut().zip(c) {
                *a = cmax(*a, v);
            }
        }
        let mut r = fold8(&acc, cmax);
        for &v in it.remainder() {
            r = cmax(r, v);
        }
        r
    }

    /// Set-byte count of a bool slice.
    pub fn count_true(m: &[bool]) -> usize {
        m.iter().filter(|&&b| b).count()
    }

    /// Ascending positions (plus `base`) of set mask bytes.
    pub fn compact_indices_into(m: &[bool], base: i64, out: &mut Vec<i64>) {
        for (i, &b) in m.iter().enumerate() {
            if b {
                out.push(base + i as i64);
            }
        }
    }

    /// `out[k] = src[idx[k]]` (panics on out-of-bounds, like indexing).
    pub fn gather_i64(src: &[i64], idx: &[i64], out: &mut [i64]) {
        for (o, &i) in out.iter_mut().zip(idx) {
            *o = src[i as usize];
        }
    }

    /// `out[k] = src[idx[k]]`.
    pub fn gather_f64(src: &[f64], idx: &[i64], out: &mut [f64]) {
        for (o, &i) in out.iter_mut().zip(idx) {
            *o = src[i as usize];
        }
    }

    /// Fibonacci mix of each key: `out[i] = mix64(v[i] as u64)`.
    pub fn hash_i64(vals: &[i64], out: &mut [u64]) {
        for (o, &v) in out.iter_mut().zip(vals) {
            *o = super::mix64(v as u64);
        }
    }

    /// Combine step: `a = (a ^ mix64(v)) * COMBINE` per element.
    pub fn hash_combine_i64(acc: &mut [u64], vals: &[i64]) {
        for (a, &v) in acc.iter_mut().zip(vals) {
            *a = (*a ^ super::mix64(v as u64)).wrapping_mul(super::COMBINE);
        }
    }

    /// Combine step over float bit patterns.
    pub fn hash_combine_f64(acc: &mut [u64], vals: &[f64]) {
        for (a, &v) in acc.iter_mut().zip(vals) {
            *a = (*a ^ super::mix64(v.to_bits())).wrapping_mul(super::COMBINE);
        }
    }

    /// Occurrences of `key` in a bucket's key slice.
    pub fn count_eq_i64(keys: &[i64], key: i64) -> usize {
        keys.iter().filter(|&&k| k == key).count()
    }

    /// LSB-first bit unpack: element `i` = bit `i % 8` of byte `i / 8`.
    pub fn unpack_bits_into(packed: &[u8], out: &mut [bool]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = packed[i / 8] & (1 << (i % 8)) != 0;
        }
    }

    /// Frame-of-reference decode: `out[i] = min + delta_i` where
    /// `delta_i` is the little-endian `width`-byte unsigned value at
    /// `bytes[i*width..]`. `bytes.len()` must be `width * out.len()`.
    pub fn decode_for(bytes: &[u8], width: usize, min: i64, out: &mut [i64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b[..width].copy_from_slice(&bytes[i * width..(i + 1) * width]);
            *o = min.wrapping_add(u64::from_le_bytes(b) as i64);
        }
    }

    /// Plain little-endian `i64` column decode (`bytes.len() == 8 *
    /// out.len()`). No vector tier (see the module docs).
    pub fn decode_i64_le(bytes: &[u8], out: &mut [i64]) {
        assert_eq!(bytes.len(), 8 * out.len(), "plain i64 payload length");
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *o = i64::from_le_bytes(c.try_into().unwrap());
        }
    }

    /// Plain little-endian `f64` column decode (`bytes.len() == 8 *
    /// out.len()`). No vector tier.
    pub fn decode_f64_le(bytes: &[u8], out: &mut [f64]) {
        assert_eq!(bytes.len(), 8 * out.len(), "plain f64 payload length");
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *o = f64::from_le_bytes(c.try_into().unwrap());
        }
    }

    /// Run-length fill: append `n` copies of `val` (a memset). No vector
    /// tier.
    pub fn splat_i64(out: &mut Vec<i64>, val: i64, n: usize) {
        out.resize(out.len() + n, val);
    }
}

/// Fibonacci multiplier (must match `hash.rs`).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
/// Odd combine multiplier (must match `hash.rs`).
const COMBINE: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The engine's 64-bit mixer: `h = k * FIB; h ^ (h >> 32)` — identical
/// to `hash::mix64`, re-stated here so the vector tiers and the hash
/// module can't drift apart (a unit test pins them equal).
#[inline(always)]
pub fn mix64(k: u64) -> u64 {
    let h = k.wrapping_mul(FIB);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------
// AVX2 tier
// ---------------------------------------------------------------------

/// 256-bit implementations. Every function is `unsafe` only because of
/// `#[target_feature]`; callers must have verified AVX2 support (the
/// dispatchers do, once, via [`level`]).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{bools_to_mask, CmpF64, CmpI64, COMBINE, FIB, LUT4, POS8};
    use std::arch::x86_64::*;

    /// Write 4 bool bytes from a 4-bit lane mask (`and` folds into the
    /// existing bytes). Bool bytes are always 0x00/0x01, so unaligned
    /// `u32` loads/stores of them are valid.
    #[inline(always)]
    unsafe fn write4(p: *mut bool, nib: u32, and: bool) {
        let bits = LUT4[nib as usize];
        let p = p.cast::<u32>();
        if and {
            p.write_unaligned(p.read_unaligned() & bits);
        } else {
            p.write_unaligned(bits);
        }
    }

    /// Sign-bit mask (bit per 64-bit lane) of a full-lane compare result.
    #[inline(always)]
    unsafe fn mm4(v: __m256i) -> u32 {
        _mm256_movemask_pd(_mm256_castsi256_pd(v)) as u32
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mask_i64(op: CmpI64, d: &[i64], m: &mut [bool], and: bool) {
        let n = d.len();
        let dp = d.as_ptr();
        let mp = m.as_mut_ptr();
        macro_rules! run {
            ($v:ident, $nib:expr) => {{
                let mut i = 0usize;
                while i + 4 <= n {
                    let $v = _mm256_loadu_si256(dp.add(i).cast());
                    write4(mp.add(i), ($nib) & 0xF, and);
                    i += 4;
                }
                i
            }};
        }
        let done = match op {
            CmpI64::Eq(c) => {
                let cv = _mm256_set1_epi64x(c);
                run!(v, mm4(_mm256_cmpeq_epi64(v, cv)))
            }
            CmpI64::Ne(c) => {
                let cv = _mm256_set1_epi64x(c);
                run!(v, mm4(_mm256_cmpeq_epi64(v, cv)) ^ 0xF)
            }
            CmpI64::Gt(c) => {
                let cv = _mm256_set1_epi64x(c);
                run!(v, mm4(_mm256_cmpgt_epi64(v, cv)))
            }
            CmpI64::Le(c) => {
                let cv = _mm256_set1_epi64x(c);
                run!(v, mm4(_mm256_cmpgt_epi64(v, cv)) ^ 0xF)
            }
            CmpI64::Lt(c) => {
                let cv = _mm256_set1_epi64x(c);
                run!(v, mm4(_mm256_cmpgt_epi64(cv, v)))
            }
            CmpI64::Ge(c) => {
                let cv = _mm256_set1_epi64x(c);
                run!(v, mm4(_mm256_cmpgt_epi64(cv, v)) ^ 0xF)
            }
            CmpI64::In(lo, r) => {
                // Unsigned `x - lo <= r` via the sign-flip trick: biased
                // signed compare == unsigned compare.
                let lov = _mm256_set1_epi64x(lo);
                let bias = _mm256_set1_epi64x(i64::MIN);
                let rb = _mm256_xor_si256(_mm256_set1_epi64x(r as i64), bias);
                run!(
                    v,
                    mm4(_mm256_cmpgt_epi64(
                        _mm256_xor_si256(_mm256_sub_epi64(v, lov), bias),
                        rb
                    )) ^ 0xF
                )
            }
        };
        super::scalar::mask_i64(op, &d[done..], &mut m[done..], and);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mask_f64(op: CmpF64, d: &[f64], m: &mut [bool], and: bool) {
        let n = d.len();
        let dp = d.as_ptr();
        let mp = m.as_mut_ptr();
        macro_rules! run {
            ($v:ident, $nib:expr) => {{
                let mut i = 0usize;
                while i + 4 <= n {
                    let $v = _mm256_loadu_pd(dp.add(i));
                    write4(mp.add(i), ($nib) & 0xF, and);
                    i += 4;
                }
                i
            }};
        }
        macro_rules! cmp1 {
            ($imm:expr, $c:expr) => {{
                let cv = _mm256_set1_pd($c);
                run!(v, _mm256_movemask_pd(_mm256_cmp_pd::<$imm>(v, cv)) as u32)
            }};
        }
        let done = match op {
            CmpF64::Eq(c) => cmp1!(_CMP_EQ_OQ, c),
            CmpF64::Ne(c) => cmp1!(_CMP_NEQ_UQ, c),
            CmpF64::Lt(c) => cmp1!(_CMP_LT_OQ, c),
            CmpF64::Le(c) => cmp1!(_CMP_LE_OQ, c),
            CmpF64::Gt(c) => cmp1!(_CMP_GT_OQ, c),
            CmpF64::Ge(c) => cmp1!(_CMP_GE_OQ, c),
            CmpF64::In {
                lo,
                lo_strict,
                hi,
                hi_strict,
            } => {
                let lov = _mm256_set1_pd(lo);
                let hiv = _mm256_set1_pd(hi);
                macro_rules! run2 {
                    ($limm:expr, $himm:expr) => {
                        run!(
                            v,
                            _mm256_movemask_pd(_mm256_and_pd(
                                _mm256_cmp_pd::<$limm>(v, lov),
                                _mm256_cmp_pd::<$himm>(v, hiv)
                            )) as u32
                        )
                    };
                }
                match (lo_strict, hi_strict) {
                    (false, false) => run2!(_CMP_GE_OQ, _CMP_LE_OQ),
                    (false, true) => run2!(_CMP_GE_OQ, _CMP_LT_OQ),
                    (true, false) => run2!(_CMP_GT_OQ, _CMP_LE_OQ),
                    (true, true) => run2!(_CMP_GT_OQ, _CMP_LT_OQ),
                }
            }
        };
        super::scalar::mask_f64(op, &d[done..], &mut m[done..], and);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mask_bool(src: &[bool], m: &mut [bool], and: bool) {
        if !and {
            m.copy_from_slice(src);
            return;
        }
        let n = m.len();
        let sp = src.as_ptr().cast::<u8>();
        let mp = m.as_mut_ptr().cast::<u8>();
        let mut i = 0usize;
        while i + 32 <= n {
            let a = _mm256_loadu_si256(mp.add(i).cast());
            let b = _mm256_loadu_si256(sp.add(i).cast());
            _mm256_storeu_si256(mp.add(i).cast(), _mm256_and_si256(a, b));
            i += 32;
        }
        super::scalar::mask_bool(&src[i..], &mut m[i..], true);
    }

    // -- reductions ---------------------------------------------------

    /// Horizontal fold of the (y0 = lanes 0..3, y1 = lanes 4..7)
    /// accumulator pair in the canonical halving order.
    #[inline(always)]
    unsafe fn hfold_add(y0: __m256d, y1: __m256d) -> f64 {
        let s = _mm256_add_pd(y0, y1);
        let t = _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd::<1>(s));
        _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_f64(x: &[f64]) -> f64 {
        let n = x.len();
        let p = x.as_ptr();
        let mut y0 = _mm256_setzero_pd();
        let mut y1 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 8 <= n {
            y0 = _mm256_add_pd(y0, _mm256_loadu_pd(p.add(i)));
            y1 = _mm256_add_pd(y1, _mm256_loadu_pd(p.add(i + 4)));
            i += 8;
        }
        let mut r = hfold_add(y0, y1);
        while i < n {
            r += *p.add(i);
            i += 1;
        }
        r
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_f32(x: &[f32]) -> f64 {
        let n = x.len();
        let p = x.as_ptr();
        let mut y0 = _mm256_setzero_pd();
        let mut y1 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(p.add(i));
            y0 = _mm256_add_pd(y0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
            y1 = _mm256_add_pd(y1, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)));
            i += 8;
        }
        let mut r = hfold_add(y0, y1);
        while i < n {
            r += *p.add(i) as f64;
            i += 1;
        }
        r
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_i64(x: &[i64]) -> i64 {
        let n = x.len();
        let p = x.as_ptr();
        let mut y0 = _mm256_setzero_si256();
        let mut y1 = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 8 <= n {
            y0 = _mm256_add_epi64(y0, _mm256_loadu_si256(p.add(i).cast()));
            y1 = _mm256_add_epi64(y1, _mm256_loadu_si256(p.add(i + 4).cast()));
            i += 8;
        }
        let s = _mm256_add_epi64(y0, y1);
        let t = _mm_add_epi64(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s));
        let mut r = (_mm_cvtsi128_si64(t) as i64).wrapping_add(_mm_extract_epi64::<1>(t) as i64);
        while i < n {
            r = r.wrapping_add(*p.add(i));
            i += 1;
        }
        r
    }

    /// Vector form of [`super::cmin`]: `blend(a, b, lt(b,a) | unord(a,a))`.
    #[inline(always)]
    unsafe fn vcmin(a: __m256d, b: __m256d) -> __m256d {
        let pick_b = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_LT_OQ>(b, a),
            _mm256_cmp_pd::<_CMP_UNORD_Q>(a, a),
        );
        _mm256_blendv_pd(a, b, pick_b)
    }

    /// Vector form of [`super::cmax`].
    #[inline(always)]
    unsafe fn vcmax(a: __m256d, b: __m256d) -> __m256d {
        let pick_b = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_GT_OQ>(b, a),
            _mm256_cmp_pd::<_CMP_UNORD_Q>(a, a),
        );
        _mm256_blendv_pd(a, b, pick_b)
    }

    macro_rules! minmax {
        ($name:ident, $ident:expr, $vop:ident, $sop:path) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(x: &[f64]) -> f64 {
                let n = x.len();
                let p = x.as_ptr();
                let mut y0 = _mm256_set1_pd($ident);
                let mut y1 = _mm256_set1_pd($ident);
                let mut i = 0usize;
                while i + 8 <= n {
                    y0 = $vop(y0, _mm256_loadu_pd(p.add(i)));
                    y1 = $vop(y1, _mm256_loadu_pd(p.add(i + 4)));
                    i += 8;
                }
                let s = $vop(y0, y1);
                let lo = _mm256_castpd256_pd128(s);
                let hi = _mm256_extractf128_pd::<1>(s);
                let t = $vop(_mm256_castpd128_pd256(lo), _mm256_castpd128_pd256(hi));
                let t = _mm256_castpd256_pd128(t);
                let mut r = $sop(_mm_cvtsd_f64(t), _mm_cvtsd_f64(_mm_unpackhi_pd(t, t)));
                while i < n {
                    r = $sop(r, *p.add(i));
                    i += 1;
                }
                r
            }
        };
    }
    minmax!(min_f64, f64::INFINITY, vcmin, super::cmin);
    minmax!(max_f64, f64::NEG_INFINITY, vcmax, super::cmax);

    #[target_feature(enable = "avx2")]
    pub unsafe fn count_true(m: &[bool]) -> usize {
        let n = m.len();
        let p = m.as_ptr().cast::<u8>();
        let zero = _mm256_setzero_si256();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 32 <= n {
            let v = _mm256_loadu_si256(p.add(i).cast());
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
            i += 32;
        }
        let t = _mm_add_epi64(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256::<1>(acc),
        );
        let mut c =
            (_mm_cvtsi128_si64(t) as u64).wrapping_add(_mm_extract_epi64::<1>(t) as u64) as usize;
        while i < n {
            c += m[i] as usize;
            i += 1;
        }
        c
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn compact_indices_into(m: &[bool], base: i64, out: &mut Vec<i64>) {
        out.reserve(m.len());
        let n = m.len();
        let p = m.as_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let chunk = p.add(i).cast::<u64>().read_unaligned();
            if chunk != 0 {
                let mask = bools_to_mask(chunk);
                let pos = &POS8[mask as usize];
                let b = base + i as i64;
                for &off in pos.iter().take(mask.count_ones() as usize) {
                    out.push(b + off as i64);
                }
            }
            i += 8;
        }
        super::scalar::compact_indices_into(&m[i..], base + i as i64, out);
    }

    // -- gather -------------------------------------------------------

    macro_rules! gather64 {
        ($name:ident, $ty:ty, $intr:ident, $cast:ty) => {
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(src: &[$ty], idx: &[i64], out: &mut [$ty]) {
                // Hardware gathers skip bounds checks, so each block is
                // validated first (biased signed compare, so negative
                // indices look huge and fail exactly like `as usize`
                // indexing would); on violation finish with the scalar
                // loop, which panics at the offending index exactly
                // like the reference tier.
                let bias = _mm256_set1_epi64x(i64::MIN);
                let limit = _mm256_set1_epi64x((src.len() as i64).wrapping_add(i64::MIN));
                let n = idx.len();
                let ip = idx.as_ptr();
                let op = out.as_mut_ptr();
                let sp = src.as_ptr().cast::<$cast>();
                let mut i = 0usize;
                while i + 4 <= n {
                    let vi = _mm256_loadu_si256(ip.add(i).cast());
                    let oob =
                        _mm256_movemask_epi8(_mm256_cmpgt_epi64(limit, _mm256_xor_si256(vi, bias)));
                    if oob != -1 {
                        break;
                    }
                    let g = $intr::<8>(sp, vi);
                    std::ptr::write_unaligned(op.add(i).cast(), g);
                    i += 4;
                }
                super::scalar::$name(src, &idx[i..], &mut out[i..]);
            }
        };
    }
    gather64!(gather_i64, i64, _mm256_i64gather_epi64, i64);
    gather64!(gather_f64, f64, _mm256_i64gather_pd, f64);

    // -- hash ---------------------------------------------------------

    /// Low 64 bits of the 64x64 product, via three 32x32 partials.
    #[inline(always)]
    unsafe fn mullo64(a: __m256i, b: __m256i, b_hi: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64::<32>(a);
        let lolo = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
        _mm256_add_epi64(lolo, _mm256_slli_epi64::<32>(cross))
    }

    #[inline(always)]
    unsafe fn vmix64(k: __m256i, fib: __m256i, fib_hi: __m256i) -> __m256i {
        let h = mullo64(k, fib, fib_hi);
        _mm256_xor_si256(h, _mm256_srli_epi64::<32>(h))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn hash_i64(vals: &[i64], out: &mut [u64]) {
        let fib = _mm256_set1_epi64x(FIB as i64);
        let fib_hi = _mm256_srli_epi64::<32>(fib);
        let n = vals.len();
        let vp = vals.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(vp.add(i).cast());
            _mm256_storeu_si256(op.add(i).cast(), vmix64(v, fib, fib_hi));
            i += 4;
        }
        super::scalar::hash_i64(&vals[i..], &mut out[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn hash_combine_i64(acc: &mut [u64], vals: &[i64]) {
        let fib = _mm256_set1_epi64x(FIB as i64);
        let fib_hi = _mm256_srli_epi64::<32>(fib);
        let cmb = _mm256_set1_epi64x(COMBINE as i64);
        let cmb_hi = _mm256_srli_epi64::<32>(cmb);
        let n = vals.len();
        let vp = vals.as_ptr();
        let ap = acc.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(vp.add(i).cast());
            let a = _mm256_loadu_si256(ap.add(i).cast());
            let x = _mm256_xor_si256(a, vmix64(v, fib, fib_hi));
            _mm256_storeu_si256(ap.add(i).cast(), mullo64(x, cmb, cmb_hi));
            i += 4;
        }
        super::scalar::hash_combine_i64(&mut acc[i..], &vals[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn hash_combine_f64(acc: &mut [u64], vals: &[f64]) {
        let fib = _mm256_set1_epi64x(FIB as i64);
        let fib_hi = _mm256_srli_epi64::<32>(fib);
        let cmb = _mm256_set1_epi64x(COMBINE as i64);
        let cmb_hi = _mm256_srli_epi64::<32>(cmb);
        let n = vals.len();
        let vp = vals.as_ptr().cast::<i64>(); // same bit pattern as to_bits
        let ap = acc.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(vp.add(i).cast());
            let a = _mm256_loadu_si256(ap.add(i).cast());
            let x = _mm256_xor_si256(a, vmix64(v, fib, fib_hi));
            _mm256_storeu_si256(ap.add(i).cast(), mullo64(x, cmb, cmb_hi));
            i += 4;
        }
        super::scalar::hash_combine_f64(&mut acc[i..], &vals[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn count_eq_i64(keys: &[i64], key: i64) -> usize {
        let kv = _mm256_set1_epi64x(key);
        let n = keys.len();
        let p = keys.as_ptr();
        let mut c = 0usize;
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(p.add(i).cast());
            c += (_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, kv))) as u32)
                .count_ones() as usize;
            i += 4;
        }
        c + super::scalar::count_eq_i64(&keys[i..], key)
    }

    // -- decode -------------------------------------------------------

    #[target_feature(enable = "avx2")]
    pub unsafe fn decode_for(bytes: &[u8], width: usize, min: i64, out: &mut [i64]) {
        let n = out.len();
        let bp = bytes.as_ptr();
        let op = out.as_mut_ptr();
        let minv = _mm256_set1_epi64x(min);
        let mut i = 0usize;
        match width {
            1 => {
                while i + 4 <= n {
                    let raw = bp.add(i).cast::<u32>().read_unaligned();
                    let v = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(raw as i32));
                    _mm256_storeu_si256(op.add(i).cast(), _mm256_add_epi64(minv, v));
                    i += 4;
                }
            }
            2 => {
                while i + 4 <= n {
                    let v = _mm256_cvtepu16_epi64(_mm_loadl_epi64(bp.add(i * 2).cast()));
                    _mm256_storeu_si256(op.add(i).cast(), _mm256_add_epi64(minv, v));
                    i += 4;
                }
            }
            4 => {
                while i + 4 <= n {
                    let v = _mm256_cvtepu32_epi64(_mm_loadu_si128(bp.add(i * 4).cast()));
                    _mm256_storeu_si256(op.add(i).cast(), _mm256_add_epi64(minv, v));
                    i += 4;
                }
            }
            8 => {
                while i + 4 <= n {
                    let v = _mm256_loadu_si256(bp.add(i * 8).cast());
                    _mm256_storeu_si256(op.add(i).cast(), _mm256_add_epi64(minv, v));
                    i += 4;
                }
            }
            _ => {
                // Odd widths: unaligned 8-byte window loads masked down
                // to `width` bytes, while a full window is readable.
                let mask = (1u64 << (8 * width)) - 1;
                while i < n && i * width + 8 <= bytes.len() {
                    let raw = bp.add(i * width).cast::<u64>().read_unaligned() & mask;
                    *op.add(i) = min.wrapping_add(raw as i64);
                    i += 1;
                }
            }
        }
        super::scalar::decode_for(&bytes[i * width..], width, min, &mut out[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn unpack_bits_into(packed: &[u8], out: &mut [bool]) {
        // Byte-at-a-time table expansion: one u64 store per input byte.
        let full = out.len() / 8;
        let op = out.as_mut_ptr();
        for (k, &byte) in packed.iter().enumerate().take(full) {
            op.add(8 * k)
                .cast::<u64>()
                .write_unaligned(super::LUT8[byte as usize]);
        }
        for i in 8 * full..out.len() {
            *op.add(i) = packed[i / 8] & (1 << (i % 8)) != 0;
        }
    }
}

// ---------------------------------------------------------------------
// AVX-512 tier
// ---------------------------------------------------------------------

/// 512-bit implementations (avx512{f,bw,dq,vl}). Kernels without a
/// meaningful 512-bit win (gathers, bit unpack, FOR decode) reuse the
/// AVX2 tier — see [`Level`] docs.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{CmpF64, CmpI64, COMBINE, FIB, LUT8};
    use std::arch::x86_64::*;

    /// Write 8 bool bytes from an 8-lane compare mask.
    #[inline(always)]
    unsafe fn write8(p: *mut bool, mask: u8, and: bool) {
        let bits = LUT8[mask as usize];
        let p = p.cast::<u64>();
        if and {
            p.write_unaligned(p.read_unaligned() & bits);
        } else {
            p.write_unaligned(bits);
        }
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn mask_i64(op: CmpI64, d: &[i64], m: &mut [bool], and: bool) {
        let n = d.len();
        let dp = d.as_ptr();
        let mp = m.as_mut_ptr();
        macro_rules! run {
            ($v:ident, $mask:expr) => {{
                let mut i = 0usize;
                while i + 8 <= n {
                    let $v = _mm512_loadu_si512(dp.add(i).cast());
                    write8(mp.add(i), $mask, and);
                    i += 8;
                }
                i
            }};
        }
        macro_rules! cmp1 {
            ($imm:expr, $c:expr) => {{
                let cv = _mm512_set1_epi64($c);
                run!(v, _mm512_cmp_epi64_mask::<$imm>(v, cv))
            }};
        }
        let done = match op {
            CmpI64::Eq(c) => cmp1!(_MM_CMPINT_EQ, c),
            CmpI64::Ne(c) => cmp1!(_MM_CMPINT_NE, c),
            CmpI64::Lt(c) => cmp1!(_MM_CMPINT_LT, c),
            CmpI64::Le(c) => cmp1!(_MM_CMPINT_LE, c),
            CmpI64::Gt(c) => cmp1!(_MM_CMPINT_NLE, c),
            CmpI64::Ge(c) => cmp1!(_MM_CMPINT_NLT, c),
            CmpI64::In(lo, r) => {
                let lov = _mm512_set1_epi64(lo);
                let rv = _mm512_set1_epi64(r as i64);
                run!(
                    v,
                    _mm512_cmp_epu64_mask::<_MM_CMPINT_LE>(_mm512_sub_epi64(v, lov), rv)
                )
            }
        };
        super::scalar::mask_i64(op, &d[done..], &mut m[done..], and);
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn mask_f64(op: CmpF64, d: &[f64], m: &mut [bool], and: bool) {
        let n = d.len();
        let dp = d.as_ptr();
        let mp = m.as_mut_ptr();
        macro_rules! run {
            ($v:ident, $mask:expr) => {{
                let mut i = 0usize;
                while i + 8 <= n {
                    let $v = _mm512_loadu_pd(dp.add(i));
                    write8(mp.add(i), $mask, and);
                    i += 8;
                }
                i
            }};
        }
        macro_rules! cmp1 {
            ($imm:expr, $c:expr) => {{
                let cv = _mm512_set1_pd($c);
                run!(v, _mm512_cmp_pd_mask::<$imm>(v, cv))
            }};
        }
        let done = match op {
            CmpF64::Eq(c) => cmp1!(_CMP_EQ_OQ, c),
            CmpF64::Ne(c) => cmp1!(_CMP_NEQ_UQ, c),
            CmpF64::Lt(c) => cmp1!(_CMP_LT_OQ, c),
            CmpF64::Le(c) => cmp1!(_CMP_LE_OQ, c),
            CmpF64::Gt(c) => cmp1!(_CMP_GT_OQ, c),
            CmpF64::Ge(c) => cmp1!(_CMP_GE_OQ, c),
            CmpF64::In {
                lo,
                lo_strict,
                hi,
                hi_strict,
            } => {
                let lov = _mm512_set1_pd(lo);
                let hiv = _mm512_set1_pd(hi);
                macro_rules! run2 {
                    ($limm:expr, $himm:expr) => {
                        run!(
                            v,
                            _mm512_cmp_pd_mask::<$limm>(v, lov)
                                & _mm512_cmp_pd_mask::<$himm>(v, hiv)
                        )
                    };
                }
                match (lo_strict, hi_strict) {
                    (false, false) => run2!(_CMP_GE_OQ, _CMP_LE_OQ),
                    (false, true) => run2!(_CMP_GE_OQ, _CMP_LT_OQ),
                    (true, false) => run2!(_CMP_GT_OQ, _CMP_LE_OQ),
                    (true, true) => run2!(_CMP_GT_OQ, _CMP_LT_OQ),
                }
            }
        };
        super::scalar::mask_f64(op, &d[done..], &mut m[done..], and);
    }

    /// Canonical halving fold from one zmm accumulator: the low ymm half
    /// holds lanes 0..3, the high half lanes 4..7 — identical structure
    /// to the AVX2 register pair, hence the identical result.
    #[inline(always)]
    unsafe fn hfold_add(z: __m512d) -> f64 {
        let s = _mm256_add_pd(_mm512_castpd512_pd256(z), _mm512_extractf64x4_pd::<1>(z));
        let t = _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd::<1>(s));
        _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t))
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn sum_f64(x: &[f64]) -> f64 {
        let n = x.len();
        let p = x.as_ptr();
        let mut z = _mm512_setzero_pd();
        let mut i = 0usize;
        while i + 8 <= n {
            z = _mm512_add_pd(z, _mm512_loadu_pd(p.add(i)));
            i += 8;
        }
        let mut r = hfold_add(z);
        while i < n {
            r += *p.add(i);
            i += 1;
        }
        r
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn sum_i64(x: &[i64]) -> i64 {
        let n = x.len();
        let p = x.as_ptr();
        let mut z = _mm512_setzero_si512();
        let mut i = 0usize;
        while i + 8 <= n {
            z = _mm512_add_epi64(z, _mm512_loadu_si512(p.add(i).cast()));
            i += 8;
        }
        let mut r = _mm512_reduce_add_epi64(z); // wrapping: order-free
        while i < n {
            r = r.wrapping_add(*p.add(i));
            i += 1;
        }
        r
    }

    macro_rules! minmax {
        ($name:ident, $ident:expr, $limm:expr, $sop:path) => {
            #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
            pub unsafe fn $name(x: &[f64]) -> f64 {
                let n = x.len();
                let p = x.as_ptr();
                let mut acc = _mm512_set1_pd($ident);
                let mut i = 0usize;
                while i + 8 <= n {
                    let v = _mm512_loadu_pd(p.add(i));
                    // cmin/cmax: pick v where v <op> acc or acc is NaN.
                    let pick = _mm512_cmp_pd_mask::<$limm>(v, acc)
                        | _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(acc, acc);
                    acc = _mm512_mask_mov_pd(acc, pick, v);
                    i += 8;
                }
                // Same halving order as the scalar fold8 / AVX2 pair.
                let mut lanes = [0.0f64; 8];
                _mm512_storeu_pd(lanes.as_mut_ptr(), acc);
                let mut r = super::fold8(&lanes, $sop);
                while i < n {
                    r = $sop(r, *p.add(i));
                    i += 1;
                }
                r
            }
        };
    }
    minmax!(min_f64, f64::INFINITY, _CMP_LT_OQ, super::cmin);
    minmax!(max_f64, f64::NEG_INFINITY, _CMP_GT_OQ, super::cmax);

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn compact_indices_into(m: &[bool], base: i64, out: &mut Vec<i64>) {
        // Compress-store eight candidate indices per step; each store
        // writes a full vector, so keep 8 lanes of slack capacity.
        out.reserve(m.len() + 8);
        let n = m.len();
        let p = m.as_ptr();
        let iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let mut len = out.len();
        let dst = out.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let chunk = p.add(i).cast::<u64>().read_unaligned();
            if chunk != 0 {
                let mask = super::bools_to_mask(chunk);
                let idx = _mm512_add_epi64(iota, _mm512_set1_epi64(base + i as i64));
                let packed = _mm512_maskz_compress_epi64(mask, idx);
                _mm512_storeu_si512(dst.add(len).cast(), packed);
                len += mask.count_ones() as usize;
            }
            i += 8;
        }
        out.set_len(len);
        super::scalar::compact_indices_into(&m[i..], base + i as i64, out);
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn hash_i64(vals: &[i64], out: &mut [u64]) {
        let fib = _mm512_set1_epi64(FIB as i64);
        let n = vals.len();
        let vp = vals.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm512_loadu_si512(vp.add(i).cast());
            let h = _mm512_mullo_epi64(v, fib);
            let h = _mm512_xor_si512(h, _mm512_srli_epi64::<32>(h));
            _mm512_storeu_si512(op.add(i).cast(), h);
            i += 8;
        }
        super::scalar::hash_i64(&vals[i..], &mut out[i..]);
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    unsafe fn hash_combine_bits(acc: &mut [u64], vp: *const i64, n: usize) {
        let fib = _mm512_set1_epi64(FIB as i64);
        let cmb = _mm512_set1_epi64(COMBINE as i64);
        let ap = acc.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm512_loadu_si512(vp.add(i).cast());
            let h = _mm512_mullo_epi64(v, fib);
            let h = _mm512_xor_si512(h, _mm512_srli_epi64::<32>(h));
            let a = _mm512_loadu_si512(ap.add(i).cast());
            let x = _mm512_xor_si512(a, h);
            _mm512_storeu_si512(ap.add(i).cast(), _mm512_mullo_epi64(x, cmb));
            i += 8;
        }
        // Tail is finished by the caller's scalar slice.
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn hash_combine_i64(acc: &mut [u64], vals: &[i64]) {
        let n = vals.len();
        let done = n - n % 8;
        hash_combine_bits(acc, vals.as_ptr(), n);
        super::scalar::hash_combine_i64(&mut acc[done..], &vals[done..]);
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn hash_combine_f64(acc: &mut [u64], vals: &[f64]) {
        let n = vals.len();
        let done = n - n % 8;
        hash_combine_bits(acc, vals.as_ptr().cast::<i64>(), n);
        super::scalar::hash_combine_f64(&mut acc[done..], &vals[done..]);
    }

    macro_rules! gather64 {
        ($name:ident, $ty:ty, $intr:ident, $store:ident, $gty:ty) => {
            #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
            pub unsafe fn $name(src: &[$ty], idx: &[i64], out: &mut [$ty]) {
                // Unsigned per-block bound mask (negative indices look
                // huge, like `as usize`); a violating block falls to the
                // scalar loop, which panics at the offending index.
                let limit = _mm512_set1_epi64(src.len() as i64);
                let n = idx.len();
                let ip = idx.as_ptr();
                let op = out.as_mut_ptr();
                let sp = src.as_ptr().cast::<u8>();
                let mut i = 0usize;
                while i + 8 <= n {
                    let vi = _mm512_loadu_si512(ip.add(i).cast());
                    if _mm512_cmplt_epu64_mask(vi, limit) != 0xFF {
                        break;
                    }
                    let g: $gty = $intr::<8>(vi, sp.cast());
                    $store(op.add(i).cast(), g);
                    i += 8;
                }
                super::scalar::$name(src, &idx[i..], &mut out[i..]);
            }
        };
    }
    gather64!(
        gather_i64,
        i64,
        _mm512_i64gather_epi64,
        _mm512_storeu_si512,
        __m512i
    );
    gather64!(
        gather_f64,
        f64,
        _mm512_i64gather_pd,
        _mm512_storeu_pd,
        __m512d
    );
}

// ---------------------------------------------------------------------
// Dispatching entry points
// ---------------------------------------------------------------------

macro_rules! dispatch {
    // Kernel with distinct AVX2 and AVX-512 implementations.
    ($family:expr, $len:expr, $name:ident ( $($arg:expr),* )) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if $len >= SIMD_MIN {
                match level() {
                    Level::Avx2 => {
                        bump($family);
                        return unsafe { avx2::$name($($arg),*) };
                    }
                    Level::Avx512 => {
                        bump($family);
                        return unsafe { avx512::$name($($arg),*) };
                    }
                    Level::Scalar => {}
                }
            }
        }
        scalar::$name($($arg),*)
    }};
    // Kernel whose widest implementation is the AVX2 one.
    ($family:expr, $len:expr, avx2_only $name:ident ( $($arg:expr),* )) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if $len >= SIMD_MIN && level() != Level::Scalar {
                bump($family);
                return unsafe { avx2::$name($($arg),*) };
            }
        }
        scalar::$name($($arg),*)
    }};
}

/// Filter-mask kernel: `m[i] = op(d[i])` (or `&=` with `and`).
pub fn mask_i64(op: CmpI64, d: &[i64], m: &mut [bool], and: bool) {
    debug_assert_eq!(d.len(), m.len());
    dispatch!(Family::Filter, d.len(), mask_i64(op, d, m, and))
}

/// Filter-mask kernel: `m[i] = op(d[i])` (or `&=` with `and`).
pub fn mask_f64(op: CmpF64, d: &[f64], m: &mut [bool], and: bool) {
    debug_assert_eq!(d.len(), m.len());
    dispatch!(Family::Filter, d.len(), mask_f64(op, d, m, and))
}

/// Bool-column / validity-channel fold: `m[i] = src[i]` (or `&=`).
pub fn mask_bool(src: &[bool], m: &mut [bool], and: bool) {
    debug_assert_eq!(src.len(), m.len());
    dispatch!(Family::Filter, src.len(), avx2_only mask_bool(src, m, and))
}

/// Canonical lane-split float sum (bitwise tier-invariant; see module docs).
pub fn sum_f64(x: &[f64]) -> f64 {
    dispatch!(Family::Reduce, x.len(), sum_f64(x))
}

/// Canonical lane-split `f32 -> f64` sum.
pub fn sum_f32(x: &[f32]) -> f64 {
    dispatch!(Family::Reduce, x.len(), avx2_only sum_f32(x))
}

/// Wrapping integer sum.
pub fn sum_i64(x: &[i64]) -> i64 {
    dispatch!(Family::Reduce, x.len(), sum_i64(x))
}

/// Canonical minimum ([`cmin`] fold, identity `+inf`).
pub fn min_f64(x: &[f64]) -> f64 {
    dispatch!(Family::Reduce, x.len(), min_f64(x))
}

/// Canonical maximum ([`cmax`] fold, identity `-inf`).
pub fn max_f64(x: &[f64]) -> f64 {
    dispatch!(Family::Reduce, x.len(), max_f64(x))
}

/// Count of set bool bytes.
pub fn count_true(m: &[bool]) -> usize {
    dispatch!(Family::Gather, m.len(), avx2_only count_true(m))
}

/// Append the (ascending) positions of set mask bytes, offset by `base`.
pub fn compact_indices_into(m: &[bool], base: i64, out: &mut Vec<i64>) {
    dispatch!(Family::Gather, m.len(), compact_indices_into(m, base, out))
}

/// `out[k] = src[idx[k]]`; panics on an out-of-range index (all tiers).
pub fn gather_i64(src: &[i64], idx: &[i64], out: &mut [i64]) {
    debug_assert_eq!(idx.len(), out.len());
    dispatch!(Family::Gather, idx.len(), gather_i64(src, idx, out))
}

/// `out[k] = src[idx[k]]`; panics on an out-of-range index (all tiers).
pub fn gather_f64(src: &[f64], idx: &[i64], out: &mut [f64]) {
    debug_assert_eq!(idx.len(), out.len());
    dispatch!(Family::Gather, idx.len(), gather_f64(src, idx, out))
}

/// Blockwise Fibonacci mix: `out[i] = mix64(vals[i] as u64)`.
pub fn hash_i64(vals: &[i64], out: &mut [u64]) {
    debug_assert_eq!(vals.len(), out.len());
    dispatch!(Family::Hash, vals.len(), hash_i64(vals, out))
}

/// Multi-column combine: `acc[i] = (acc[i] ^ mix64(vals[i])) * COMBINE`.
pub fn hash_combine_i64(acc: &mut [u64], vals: &[i64]) {
    debug_assert_eq!(acc.len(), vals.len());
    dispatch!(Family::Hash, vals.len(), hash_combine_i64(acc, vals))
}

/// Multi-column combine over `f64` bit patterns.
pub fn hash_combine_f64(acc: &mut [u64], vals: &[f64]) {
    debug_assert_eq!(acc.len(), vals.len());
    dispatch!(Family::Hash, vals.len(), hash_combine_f64(acc, vals))
}

/// Occurrences of `key` in a bucket-directory key slice.
pub fn count_eq_i64(keys: &[i64], key: i64) -> usize {
    dispatch!(Family::Hash, keys.len(), avx2_only count_eq_i64(keys, key))
}

/// LSB-first validity/bool bitmap expansion.
pub fn unpack_bits_into(packed: &[u8], out: &mut [bool]) {
    dispatch!(Family::Decode, out.len(), avx2_only unpack_bits_into(packed, out))
}

/// Frame-of-reference decode (`width` in 1..=8 bytes per delta;
/// `bytes.len()` must equal `width * out.len()`).
pub fn decode_for(bytes: &[u8], width: usize, min: i64, out: &mut [i64]) {
    assert!((1..=8).contains(&width), "FOR width out of range");
    assert_eq!(bytes.len(), width * out.len(), "FOR payload length");
    dispatch!(Family::Decode, out.len(), avx2_only decode_for(bytes, width, min, out))
}

// Kernels with no vector tier: the scalar loop is the entry point.
pub use scalar::{decode_f64_le, decode_i64_le, splat_i64};

#[cfg(test)]
mod tests {
    use super::*;

    /// Adversarial f64 pool: NaN payloads, signed zeros, infinities,
    /// subnormals, plus ordinary magnitudes.
    fn evil_f64() -> Vec<f64> {
        vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1.0,
            -1.0,
            1e300,
            -1e300,
            0.1,
            -0.1,
        ]
    }

    fn evil_i64() -> Vec<i64> {
        vec![
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            i64::MAX - 1,
            -1,
            0,
            1,
            42,
            -42,
            1 << 62,
            -(1 << 62),
        ]
    }

    /// Deterministic pseudo-random fill mixing the adversarial pools.
    fn mixed_f64(n: usize) -> Vec<f64> {
        let pool = evil_f64();
        let mut s = 0x9E37_79B9u64;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if s.is_multiple_of(3) {
                    pool[(s >> 32) as usize % pool.len()]
                } else {
                    ((s >> 16) as i32 as f64) / 7.0
                }
            })
            .collect()
    }

    fn mixed_i64(n: usize) -> Vec<i64> {
        let pool = evil_i64();
        let mut s = 0xDEAD_BEEFu64;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if s.is_multiple_of(4) {
                    pool[(s >> 32) as usize % pool.len()]
                } else {
                    (s >> 8) as i64 % 1000
                }
            })
            .collect()
    }

    /// Ragged lengths crossing every tail shape around the lane widths.
    const SIZES: [usize; 10] = [0, 1, 3, 4, 7, 8, 9, 15, 33, 257];

    #[test]
    fn mix64_matches_hash_module() {
        for &k in &[0u64, 1, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            assert_eq!(mix64(k), crate::hash::mix64(k));
        }
    }

    #[test]
    fn mask_kernels_match_scalar() {
        for &n in &SIZES {
            let di = mixed_i64(n.max(20));
            let di = &di[..n];
            let df = mixed_f64(n.max(20));
            let df = &df[..n];
            let iops = [
                CmpI64::Eq(0),
                CmpI64::Ne(42),
                CmpI64::Lt(10),
                CmpI64::Le(i64::MIN),
                CmpI64::Gt(-42),
                CmpI64::Ge(i64::MAX),
                CmpI64::In(-5, 10),
                CmpI64::In(i64::MIN + 1, u64::MAX - 2),
            ];
            let fops = [
                CmpF64::Eq(0.0),
                CmpF64::Ne(0.0),
                CmpF64::Lt(0.5),
                CmpF64::Le(f64::INFINITY),
                CmpF64::Gt(f64::NAN),
                CmpF64::Ge(-0.0),
                CmpF64::In {
                    lo: -1.0,
                    lo_strict: false,
                    hi: 1.0,
                    hi_strict: true,
                },
                CmpF64::In {
                    lo: f64::NEG_INFINITY,
                    lo_strict: true,
                    hi: 0.0,
                    hi_strict: false,
                },
            ];
            for (k, &op) in iops.iter().enumerate() {
                for and in [false, true] {
                    let seed: Vec<bool> = (0..n).map(|i| (i + k) % 3 != 0).collect();
                    let mut a = seed.clone();
                    let mut b = seed.clone();
                    mask_i64(op, di, &mut a, and);
                    scalar::mask_i64(op, di, &mut b, and);
                    assert_eq!(a, b, "mask_i64 {op:?} and={and} n={n}");
                }
            }
            for (k, &op) in fops.iter().enumerate() {
                for and in [false, true] {
                    let seed: Vec<bool> = (0..n).map(|i| (i + k) % 2 == 0).collect();
                    let mut a = seed.clone();
                    let mut b = seed.clone();
                    mask_f64(op, df, &mut a, and);
                    scalar::mask_f64(op, df, &mut b, and);
                    assert_eq!(a, b, "mask_f64 {op:?} and={and} n={n}");
                }
            }
            let src: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
            for and in [false, true] {
                let seed: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
                let mut a = seed.clone();
                let mut b = seed;
                mask_bool(&src, &mut a, and);
                scalar::mask_bool(&src, &mut b, and);
                assert_eq!(a, b, "mask_bool and={and} n={n}");
            }
        }
    }

    #[test]
    fn reductions_bitwise_match_scalar() {
        for &n in &SIZES {
            let x = mixed_f64(n);
            // NaN-free variants for sum (a NaN makes both paths NaN, but
            // bit payloads of NaN sums are not meaningful to compare).
            let clean: Vec<f64> = x
                .iter()
                .map(|v| if v.is_nan() { 1.5 } else { *v })
                .collect();
            assert_eq!(
                sum_f64(&clean).to_bits(),
                scalar::sum_f64(&clean).to_bits(),
                "sum_f64 n={n}"
            );
            assert_eq!(
                min_f64(&x).to_bits(),
                scalar::min_f64(&x).to_bits(),
                "min_f64 n={n}"
            );
            assert_eq!(
                max_f64(&x).to_bits(),
                scalar::max_f64(&x).to_bits(),
                "max_f64 n={n}"
            );
            let xi = mixed_i64(n);
            assert_eq!(sum_i64(&xi), scalar::sum_i64(&xi), "sum_i64 n={n}");
            let xs: Vec<f32> = clean.iter().map(|&v| v as f32).collect();
            assert_eq!(
                sum_f32(&xs).to_bits(),
                scalar::sum_f32(&xs).to_bits(),
                "sum_f32 n={n}"
            );
        }
    }

    #[test]
    fn min_max_canonical_semantics() {
        // All-NaN folds to the identity, like the pre-SIMD fold did.
        let nans = vec![f64::NAN; 40];
        assert_eq!(min_f64(&nans), f64::INFINITY);
        assert_eq!(max_f64(&nans), f64::NEG_INFINITY);
        // NaNs between values are ignored.
        let mut v = vec![f64::NAN; 33];
        v[7] = 3.0;
        v[21] = -2.0;
        assert_eq!(min_f64(&v), -2.0);
        assert_eq!(max_f64(&v), 3.0);
        // Signed-zero ties resolve deterministically on every tier.
        let zs = [
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![0.0; 64],
            vec![-0.0; 64],
        ];
        for z in &zs {
            assert_eq!(min_f64(z).to_bits(), scalar::min_f64(z).to_bits());
            assert_eq!(max_f64(z).to_bits(), scalar::max_f64(z).to_bits());
        }
    }

    #[test]
    fn selection_kernels_match_scalar() {
        for &n in &SIZES {
            for phase in 0..3usize {
                let m: Vec<bool> = (0..n).map(|i| (i + phase) % (phase + 2) == 0).collect();
                assert_eq!(count_true(&m), scalar::count_true(&m), "count_true n={n}");
                let mut a = vec![-7i64];
                let mut b = vec![-7i64];
                compact_indices_into(&m, 100, &mut a);
                scalar::compact_indices_into(&m, 100, &mut b);
                assert_eq!(a, b, "compact n={n} phase={phase}");
            }
            // all-false and all-true masks
            for val in [false, true] {
                let m = vec![val; n];
                let mut a = Vec::new();
                let mut b = Vec::new();
                compact_indices_into(&m, 0, &mut a);
                scalar::compact_indices_into(&m, 0, &mut b);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn gathers_match_scalar() {
        let src = mixed_i64(100);
        let srcf = mixed_f64(100);
        for &n in &SIZES {
            let idx: Vec<i64> = (0..n).map(|i| ((i * 37 + 11) % 100) as i64).collect();
            let mut a = vec![0i64; n];
            let mut b = vec![0i64; n];
            gather_i64(&src, &idx, &mut a);
            scalar::gather_i64(&src, &idx, &mut b);
            assert_eq!(a, b);
            let mut a = vec![0f64; n];
            let mut b = vec![0f64; n];
            gather_f64(&srcf, &idx, &mut a);
            scalar::gather_f64(&srcf, &idx, &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic]
    fn gather_out_of_bounds_panics() {
        let src = vec![1i64; 8];
        let idx: Vec<i64> = (0..64).map(|i| if i == 63 { 8 } else { 0 }).collect();
        let mut out = vec![0i64; 64];
        gather_i64(&src, &idx, &mut out);
    }

    #[test]
    fn hash_kernels_match_scalar() {
        for &n in &SIZES {
            let vals = mixed_i64(n);
            let mut a = vec![0u64; n];
            let mut b = vec![0u64; n];
            hash_i64(&vals, &mut a);
            scalar::hash_i64(&vals, &mut b);
            assert_eq!(a, b, "hash_i64 n={n}");
            let seed: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0xABCD)).collect();
            let mut a = seed.clone();
            let mut b = seed.clone();
            hash_combine_i64(&mut a, &vals);
            scalar::hash_combine_i64(&mut b, &vals);
            assert_eq!(a, b, "hash_combine_i64 n={n}");
            let valsf = mixed_f64(n);
            let mut a = seed.clone();
            let mut b = seed;
            hash_combine_f64(&mut a, &valsf);
            scalar::hash_combine_f64(&mut b, &valsf);
            assert_eq!(a, b, "hash_combine_f64 n={n}");
            let key = vals.first().copied().unwrap_or(0);
            assert_eq!(count_eq_i64(&vals, key), scalar::count_eq_i64(&vals, key));
        }
    }

    #[test]
    fn decode_kernels_match_scalar() {
        for &n in &SIZES {
            // validity bitmaps: alternating, all-set, all-clear
            for pat in [0x55u8, 0xFF, 0x00, 0xC3] {
                let packed = vec![pat; n.div_ceil(8)];
                let mut a = vec![false; n];
                let mut b = vec![false; n];
                unpack_bits_into(&packed, &mut a);
                scalar::unpack_bits_into(&packed, &mut b);
                assert_eq!(a, b, "unpack pat={pat:#x} n={n}");
            }
            // FOR at every width, with MIN/MAX-adjacent bases
            for width in 1..=8usize {
                for &min in &[0i64, -5, i64::MIN, i64::MAX - 1000] {
                    let bytes: Vec<u8> = (0..n * width).map(|i| (i * 31 + 7) as u8).collect();
                    let mut a = vec![0i64; n];
                    let mut b = vec![0i64; n];
                    decode_for(&bytes, width, min, &mut a);
                    scalar::decode_for(&bytes, width, min, &mut b);
                    assert_eq!(a, b, "FOR w={width} min={min} n={n}");
                }
            }
            let bytes: Vec<u8> = (0..n * 8).map(|i| (i * 17 + 3) as u8).collect();
            let mut a = vec![0i64; n];
            let mut b = vec![0i64; n];
            decode_i64_le(&bytes, &mut a);
            scalar::decode_i64_le(&bytes, &mut b);
            assert_eq!(a, b);
            let mut a = vec![0f64; n];
            let mut b = vec![0f64; n];
            decode_f64_le(&bytes, &mut a);
            scalar::decode_f64_le(&bytes, &mut b);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn counters_accumulate_when_vectorized() {
        let before = counters();
        let x = mixed_f64(4096);
        let _ = sum_f64(&x);
        let after = counters();
        if level() != Level::Scalar {
            assert!(after.since(&before).reduce >= 1);
        } else {
            assert_eq!(after.since(&before).reduce, 0);
        }
    }
}
