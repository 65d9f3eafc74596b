//! Deterministic random-number helpers and weight initialisers.
//!
//! The generator is an in-house xoshiro256++ (public-domain algorithm by
//! Blackman & Vigna) seeded through SplitMix64, so the workspace carries no
//! external RNG dependency and every stream is reproducible from a single
//! 64-bit seed. Gaussian samples come from a Box–Muller transform. Every
//! experiment in the workspace threads an explicit seed through one of these.

use crate::Mat;

/// xoshiro256++ core state.
#[derive(Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Expand a 64-bit seed into a full state with SplitMix64 (the seeding
    /// recipe recommended by the xoshiro authors).
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// A seedable RNG with the handful of samplers the workspace needs. A clone
/// continues the same stream independently of the original.
#[derive(Clone)]
pub struct Rng64 {
    inner: Xoshiro256,
    /// Spare Gaussian deviate produced by Box–Muller.
    spare: Option<f64>,
}

impl Rng64 {
    /// Deterministic RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng64 {
            inner: Xoshiro256::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Uniform sample in `[0, 1)` (53 random mantissa bits).
    pub fn uniform(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        // Lemire's widening-multiply range reduction (bias < 2⁻⁶⁴, far below
        // any statistical test in this workspace).
        ((self.inner.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal via Box–Muller (with spare caching).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Rejection-free polar-less form: u1 in (0,1], u2 in [0,1).
        let u1 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k > n");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: only the first k positions need settling.
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Categorical sample from (unnormalised, non-negative) weights.
    ///
    /// Falls back to a uniform draw when all weights are zero.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return self.index(weights.len());
        }
        let mut t = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            t -= w;
            if t <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Snapshot the full generator state: the four xoshiro256++ state words
    /// plus the cached Box–Muller spare. Restoring via [`Rng64::from_state`]
    /// reproduces the stream bit-for-bit from this exact point.
    pub fn state(&self) -> ([u64; 4], Option<f64>) {
        (self.inner.s, self.spare)
    }

    /// Rebuild a generator from a [`Rng64::state`] snapshot.
    pub fn from_state(words: [u64; 4], spare: Option<f64>) -> Self {
        Rng64 {
            inner: Xoshiro256 { s: words },
            spare,
        }
    }

    /// Deterministically re-derive the stream from the current state mixed
    /// with `salt`, discarding any cached spare.
    ///
    /// Used by the guard recovery policy after a rollback: the retry must
    /// not replay the exact stochastic trajectory that just diverged, but
    /// two runs reseeding from the same state with the same salt must still
    /// agree bit-for-bit. Routing through `seed_from_u64` guarantees a valid
    /// (non-zero) xoshiro256++ state whatever the mix produces.
    pub fn reseed_with(&mut self, salt: u64) {
        let mixed = self
            .inner
            .s
            .iter()
            .fold(salt, |acc, &w| acc.rotate_left(17) ^ w);
        *self = Rng64::seed_from_u64(mixed);
    }
}

/// Glorot/Xavier-uniform initialised matrix: `U(-s, s)` with
/// `s = sqrt(6 / (fan_in + fan_out))` — the initialiser the GAE reference
/// implementation uses.
pub fn glorot_uniform(rows: usize, cols: usize, rng: &mut Rng64) -> Mat {
    let s = (6.0 / (rows + cols) as f64).sqrt();
    let data = (0..rows * cols).map(|_| rng.uniform_in(-s, s)).collect();
    Mat::from_vec(rows, cols, data).expect("sized buffer")
}

/// Matrix of iid standard-normal entries.
pub fn standard_normal(rows: usize, cols: usize, rng: &mut Rng64) -> Mat {
    let data = (0..rows * cols).map(|_| rng.normal()).collect();
    Mat::from_vec(rows, cols, data).expect("sized buffer")
}

/// Matrix of iid `U(lo, hi)` entries.
pub fn uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut Rng64) -> Mat {
    let data = (0..rows * cols).map(|_| rng.uniform_in(lo, hi)).collect();
    Mat::from_vec(rows, cols, data).expect("sized buffer")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng64::seed_from_u64(7);
        let mut b = Rng64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
            assert_eq!(a.normal(), b.normal());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let xs: Vec<f64> = (0..16).map(|_| a.uniform()).collect();
        let ys: Vec<f64> = (0..16).map(|_| b.uniform()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::seed_from_u64(42);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = rng.normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = Rng64::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng64::seed_from_u64(5);
        let s = rng.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = Rng64::seed_from_u64(9);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.categorical(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let p2 = counts[2] as f64 / 30_000.0;
        assert!((p2 - 0.7).abs() < 0.02);
    }

    #[test]
    fn categorical_zero_weights_uniform_fallback() {
        let mut rng = Rng64::seed_from_u64(11);
        let i = rng.categorical(&[0.0, 0.0]);
        assert!(i < 2);
    }

    #[test]
    fn glorot_bounds() {
        let mut rng = Rng64::seed_from_u64(13);
        let w = glorot_uniform(30, 20, &mut rng);
        let s = (6.0 / 50.0_f64).sqrt();
        assert!(w.as_slice().iter().all(|&v| v > -s && v < s));
        // Should not be degenerate.
        assert!(w.frob_norm() > 0.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::seed_from_u64(17);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn reseed_with_is_deterministic_and_salt_sensitive() {
        let mut a = Rng64::seed_from_u64(5);
        let mut b = Rng64::seed_from_u64(5);
        // Drift both streams to the same interior state.
        for _ in 0..7 {
            a.normal();
            b.normal();
        }
        a.reseed_with(0xDEAD);
        b.reseed_with(0xDEAD);
        let xs: Vec<f64> = (0..8).map(|_| a.uniform()).collect();
        let ys: Vec<f64> = (0..8).map(|_| b.uniform()).collect();
        assert_eq!(xs, ys, "same state + same salt must agree bitwise");

        let mut c = Rng64::seed_from_u64(5);
        for _ in 0..7 {
            c.normal();
        }
        c.reseed_with(0xBEEF);
        assert_ne!(
            xs[0].to_bits(),
            c.uniform().to_bits(),
            "salt changes the stream"
        );
    }

    #[test]
    fn reseed_with_clears_the_boxmuller_spare() {
        let mut rng = Rng64::seed_from_u64(9);
        rng.normal(); // leaves a cached spare behind
        assert!(rng.state().1.is_some());
        rng.reseed_with(1);
        assert!(rng.state().1.is_none());
    }
}
