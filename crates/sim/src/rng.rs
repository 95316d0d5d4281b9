//! A small deterministic PRNG (xoshiro256++) for repeatable experiments.
//!
//! We implement the generator inline rather than pulling in `rand`'s default
//! engines so that the bit-stream — and therefore every experiment output —
//! is pinned by this crate alone and cannot drift across `rand` major
//! versions.

/// Deterministic xoshiro256++ generator, seeded via SplitMix64.
///
/// Not cryptographic. Passes BigCrush per its authors (Blackman & Vigna),
/// which is far more than a network simulation needs.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a seed from a base seed and a canonical text key: FNV-1a over
/// the key's bytes, XORed into the base seed, then two SplitMix64 rounds.
///
/// Every keyed stream in the workspace comes from here: sweep grid cells
/// (key = the cell's parameter assignment), chaos events (key = the
/// event's position and canonical spec) and ECMP path choices (key = the
/// route identity). The seed is a pure function of `(base_seed, key)`, so
/// results never depend on evaluation order or worker count, and the
/// constants are load-bearing: changing them re-seeds every published
/// number (`tests/sweep.rs` pins them).
///
/// The empty key is the identity: a one-cell grid with no axes runs the
/// base scenario with its own seed.
pub fn derive_seed(base_seed: u64, key: &str) -> u64 {
    if key.is_empty() {
        return base_seed;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = base_seed ^ h;
    for _ in 0..2 {
        z = splitmix64(&mut z);
    }
    z
}

impl Rng {
    /// Seed the generator. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child stream; used to give each component its
    /// own generator so insertion-order changes in one component do not
    /// perturb another.
    pub fn fork(&mut self, label: u64) -> Rng {
        Rng::new(self.next_u64() ^ label.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's method, bias negligible for
    /// the bounds used here).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed float with the given mean (for Poisson
    /// arrival processes and jittered timers).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        // 1 - f64() is in (0, 1], so ln() is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// A value uniformly jittered within `±frac` of `base`.
    #[inline]
    pub fn jitter(&mut self, base: f64, frac: f64) -> f64 {
        base * (1.0 + frac * (2.0 * self.f64() - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = Rng::new(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn range_inclusive() {
        let mut r = Rng::new(6);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn exp_mean_roughly_right() {
        let mut r = Rng::new(8);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exp(250.0)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(9);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(10);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}
