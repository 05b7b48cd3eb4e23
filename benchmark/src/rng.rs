//! The benchmark's own seeded generator (splitmix64), so every key stream
//! and class draw is a pure function of `--seed` and does not move when
//! the repo's `rand` shim changes.

/// FNV-1a offset basis and prime, shared by every order-sensitive hash in
/// the harness (op-stream hashes, result digests).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold one word into an FNV-style running hash.
#[inline]
pub fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for `(seed, lane)`: one per client connection.
    pub fn stream(seed: u64, lane: u64) -> SplitMix64 {
        let mut root = SplitMix64(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        SplitMix64(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// key ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different() {
        let a: Vec<u64> = (0..8)
            .scan(SplitMix64::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(SplitMix64::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(SplitMix64::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn lanes_are_independent() {
        assert_ne!(
            SplitMix64::stream(1, 0).next_u64(),
            SplitMix64::stream(1, 1).next_u64()
        );
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
