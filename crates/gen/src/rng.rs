//! The SplitMix64 generator used throughout the repo's seeded tests (the
//! same finalizer as `proptest`'s shim `TestRng`), re-implemented here so the
//! generator library carries no test-only dependency.
//!
//! SplitMix64 is a tiny, full-period, statistically solid PRNG whose whole
//! state is one `u64` — ideal for byte-reproducible problem generation: a
//! `(seed, index)` pair names a problem forever, independent of how many
//! problems were drawn before it.

/// A SplitMix64 pseudo-random generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seed a generator. The low bit is forced on (the idiom shared with the
    /// proptest shim's `TestRng`) so nearby seeds never collapse to the same
    /// stream via a zero state.
    pub fn from_seed(seed: u64) -> SplitMix64 {
        SplitMix64(seed | 1)
    }

    /// An independent stream for item `index` of a run seeded with `seed`.
    ///
    /// Each generated problem gets its own derived stream, so problem `i` of
    /// `--seed S` is identical whatever `--count` is — shrinking or
    /// re-generating a single problem never re-draws its neighbours.
    pub fn derive(seed: u64, index: u64) -> SplitMix64 {
        // Hash the raw index: `from_seed`'s forced low bit would fold index
        // pairs onto one stream, since the odd offset makes 2k+1 and 2k+2
        // differ only in that bit.
        let salt = SplitMix64(index.wrapping_add(0xa076_1d64_78bd_642f)).next_u64();
        // Hash the raw (unfolded) seed so adjacent even/odd seeds — which
        // `from_seed`'s forced low bit would otherwise collapse — still name
        // distinct batches.
        let hashed = SplitMix64(seed ^ salt).next_u64();
        SplitMix64::from_seed(hashed)
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// A biased coin: true with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::from_seed(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::from_seed(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        // 42|1 == 43|1: the forced low bit folds even seeds onto their odd
        // neighbour, so distinct streams need a gap of two.
        let c: Vec<u64> = {
            let mut r = SplitMix64::from_seed(44);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn derived_streams_are_independent_of_each_other() {
        let first = SplitMix64::derive(7, 0).next_u64();
        let second = SplitMix64::derive(7, 1).next_u64();
        assert_ne!(first, second);
        // Re-deriving the same index reproduces the same stream.
        assert_eq!(first, SplitMix64::derive(7, 0).next_u64());
    }

    #[test]
    fn derived_streams_have_distinct_first_draws() {
        for seed in [0, 1, 7, 42, 7919] {
            let mut seen = std::collections::HashSet::new();
            for index in 0..10_000 {
                let first = SplitMix64::derive(seed, index).next_u64();
                assert!(
                    seen.insert(first),
                    "seed {seed}: index {index} repeats an earlier stream"
                );
            }
        }
    }

    #[test]
    fn below_and_pick_stay_in_range() {
        let mut r = SplitMix64::from_seed(1);
        for _ in 0..100 {
            assert!(r.below(7) < 7);
        }
        assert_eq!(r.below(0), 0);
        let xs = [10, 20, 30];
        for _ in 0..20 {
            assert!(xs.contains(r.pick(&xs)));
        }
    }
}
