//! Minimal deterministic PRNG (SplitMix64).
//!
//! Dataset generation must be bit-for-bit reproducible across machines
//! and crate versions so that the `paper` harness's numbers can be
//! recreated (README, "Build, test, bench");
//! depending on an external RNG crate's stream stability would be
//! fragile. SplitMix64 passes BigCrush, is 4 instructions per draw, and
//! is trivially seedable.

/// SplitMix64 pseudo-random number generator.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (Lemire's multiply-shift; negligible
    /// bias is irrelevant for workload generation). `bound` must be > 0.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform draw in `0..bound` as `usize`.
    #[inline]
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_index(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            assert!(r.gen_range(10) < 10);
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.gen_range(1), 0);
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Rng::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(99);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements should move something");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = Rng::new(5);
        let empty: [u32; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn bool_probability_roughly_respected() {
        let mut r = Rng::new(1234);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits} hits for p=0.25");
    }
}
