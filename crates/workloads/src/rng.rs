//! In-tree seeded PRNG for deterministic input generation.
//!
//! The workspace builds with zero external dependencies, so the input
//! generators cannot use the `rand` crate. This module provides the
//! small slice of `rand`'s API the workloads need, backed by
//! xoshiro256** (Blackman & Vigna) seeded through SplitMix64 — the
//! standard seeding recipe that expands a 64-bit seed into a full
//! 256-bit state with good avalanche behavior.
//!
//! Streams are *stable*: the sequence for a given seed is part of the
//! workload-input contract (inputs must be bit-reproducible across runs
//! and machines), so the algorithm must not change silently. The tests
//! below pin known-answer values.

/// Expands a 64-bit seed, SplitMix64 style. Used for seeding only.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded xoshiro256** generator.
///
/// # Examples
///
/// ```
/// use instrep_workloads::rng::Rng;
///
/// let mut a = Rng::seed_from_u64(42);
/// let mut b = Rng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample from a half-open or inclusive integer range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: RangeSample,
        R: std::ops::RangeBounds<T>,
    {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&v) => v.to_i128(),
            Bound::Excluded(&v) => v.to_i128() + 1,
            Bound::Unbounded => T::MIN_I128,
        };
        let hi = match range.end_bound() {
            Bound::Included(&v) => v.to_i128(),
            Bound::Excluded(&v) => v.to_i128() - 1,
            Bound::Unbounded => T::MAX_I128,
        };
        assert!(lo <= hi, "gen_range: empty range");
        let span = (hi - lo + 1) as u128;
        // Debiased multiply-shift (Lemire); span ≤ 2^64 so one u64 draw
        // suffices, with rejection to keep the distribution exact.
        let v = if span == 0 {
            // Full 2^64-wide range (e.g. `u64::MIN..=u64::MAX`).
            self.next_u64() as u128
        } else {
            let zone = u128::from(u64::MAX) - (u128::from(u64::MAX) + 1) % span;
            loop {
                let x = u128::from(self.next_u64());
                if x <= zone {
                    break x % span;
                }
            }
        };
        T::from_i128(lo + v as i128)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let threshold = (p.clamp(0.0, 1.0) * (u64::MAX as f64)) as u64;
        self.next_u64() <= threshold
    }
}

/// Integer types [`Rng::gen_range`] can sample. All values round-trip
/// through `i128`, which covers every primitive integer up to 64 bits.
pub trait RangeSample: Copy {
    /// The type's minimum, as `i128`.
    const MIN_I128: i128;
    /// The type's maximum, as `i128`.
    const MAX_I128: i128;
    /// Widens to `i128`.
    fn to_i128(self) -> i128;
    /// Narrows from `i128` (always in range by construction).
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            const MIN_I128: i128 = <$t>::MIN as i128;
            const MAX_I128: i128 = <$t>::MAX as i128;
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> Self {
                v as $t
            }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_pins_the_stream() {
        // Pinned stream head for seed 0 (xoshiro256** state expanded
        // from the seed via SplitMix64). A change here means every
        // workload input stream changed — bump deliberately or never.
        let mut r = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(first, vec![11091344671253066420, 13793997310169335082, 1900383378846508768]);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let mut c = Rng::seed_from_u64(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..2000 {
            let v: i32 = r.gen_range(-64..64);
            assert!((-64..64).contains(&v));
            let u: usize = r.gen_range(0..24);
            assert!(u < 24);
            let w: u32 = r.gen_range(0..=10);
            assert!(w <= 10);
        }
        // Degenerate one-element range.
        assert_eq!(r.gen_range(5..6), 5);
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut r = Rng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..256 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..8 should appear in 256 draws");
    }

    #[test]
    fn gen_bool_extremes_and_balance() {
        let mut r = Rng::seed_from_u64(3);
        assert!((0..64).all(|_| r.gen_bool(1.0)));
        assert!((0..64).all(|_| !r.gen_bool(0.0)));
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4500..5500).contains(&heads), "p=0.5 gave {heads}/10000");
    }
}
