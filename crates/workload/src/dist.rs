//! Key distributions: which row a statement touches.

use rand::Rng;

/// Distribution of row keys accessed by statements.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyDistribution {
    /// Every row is equally likely (the paper's setting: "a uniform
    /// probability for each row").
    Uniform,
    /// Zipfian distribution with the given skew parameter `s > 0`;
    /// higher values concentrate accesses on fewer rows, which is how the
    /// contended scenarios raise contention without changing the client
    /// count.
    Zipfian {
        /// Skew exponent (typical OLTP skew is 0.8–1.2).
        s: f64,
    },
    /// A fixed fraction of statements hits a small hot set of rows, the rest
    /// is uniform over the remainder.
    HotSpot {
        /// Fraction of accesses that go to the hot set (0.0–1.0).
        hot_fraction: f64,
        /// Number of rows in the hot set.
        hot_rows: usize,
    },
}

impl KeyDistribution {
    /// Sample a key in `0..table_rows`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, table_rows: usize) -> i64 {
        assert!(table_rows > 0, "cannot sample from an empty table");
        match self {
            KeyDistribution::Uniform => rng.gen_range(0..table_rows as i64),
            KeyDistribution::Zipfian { s } => sample_zipf(rng, table_rows, *s),
            KeyDistribution::HotSpot {
                hot_fraction,
                hot_rows,
            } => {
                let hot_rows = (*hot_rows).clamp(1, table_rows);
                if rng.gen_bool(hot_fraction.clamp(0.0, 1.0)) {
                    rng.gen_range(0..hot_rows as i64)
                } else if table_rows > hot_rows {
                    rng.gen_range(hot_rows as i64..table_rows as i64)
                } else {
                    rng.gen_range(0..table_rows as i64)
                }
            }
        }
    }
}

/// Zipfian sampling by inverting an approximation of the generalized
/// harmonic CDF (Gray et al.'s method, as used by YCSB).  Accurate enough
/// for workload generation and allocation-free per sample.
///
/// Edge behaviour: a skew of `s <= 0` (no skew at all) degrades gracefully
/// to the uniform distribution instead of evaluating the harmonic inverse
/// outside its domain, and very large `s` concentrates essentially all
/// mass on key 0 without overflowing (the `n^(1-s)` term underflows to 0).
fn sample_zipf<R: Rng + ?Sized>(rng: &mut R, n: usize, s: f64) -> i64 {
    if s <= f64::EPSILON {
        return rng.gen_range(0..n as i64);
    }
    let n_f = n as f64;
    // zeta(n, s) approximated by the integral for large n; exact small-n
    // behaviour matters little for 100 000-row tables.
    let zeta = if (s - 1.0).abs() < 1e-9 {
        n_f.ln() + 0.5772156649
    } else {
        (n_f.powf(1.0 - s) - 1.0) / (1.0 - s) + 1.0
    };
    let u: f64 = rng.gen_range(0.0..1.0);
    let target = u * zeta;
    let rank = if (s - 1.0).abs() < 1e-9 {
        target.exp()
    } else {
        ((target - 1.0) * (1.0 - s) + 1.0).powf(1.0 / (1.0 - s))
    };
    (rank.floor() as i64).clamp(0, n as i64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_the_whole_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = KeyDistribution::Uniform;
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..10_000 {
            let k = d.sample(&mut rng, 1000);
            assert!((0..1000).contains(&k));
            if k < 100 {
                seen_low = true;
            }
            if k >= 900 {
                seen_high = true;
            }
        }
        assert!(seen_low && seen_high);
    }

    #[test]
    fn zipfian_is_skewed_towards_low_keys() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = KeyDistribution::Zipfian { s: 1.1 };
        let n = 10_000usize;
        let samples = 50_000;
        let mut low = 0usize;
        for _ in 0..samples {
            let k = d.sample(&mut rng, n);
            assert!((0..n as i64).contains(&k));
            if k < (n / 100) as i64 {
                low += 1;
            }
        }
        // Under uniform, ~1% of samples would hit the lowest 1% of keys;
        // Zipfian with s=1.1 concentrates far more there.
        assert!(
            low as f64 / samples as f64 > 0.20,
            "zipf skew too weak: {low}/{samples}"
        );
    }

    #[test]
    fn hotspot_respects_fraction() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = KeyDistribution::HotSpot {
            hot_fraction: 0.8,
            hot_rows: 10,
        };
        let mut hot = 0usize;
        let samples = 20_000;
        for _ in 0..samples {
            if d.sample(&mut rng, 1000) < 10 {
                hot += 1;
            }
        }
        let frac = hot as f64 / samples as f64;
        assert!((0.75..0.85).contains(&frac), "hot fraction was {frac}");
    }

    #[test]
    fn sampling_is_deterministic_for_a_fixed_seed() {
        let d = KeyDistribution::Zipfian { s: 0.9 };
        let a: Vec<i64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..100).map(|_| d.sample(&mut rng, 500)).collect()
        };
        let b: Vec<i64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..100).map(|_| d.sample(&mut rng, 500)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zipfian_with_vanishing_skew_degrades_to_uniform() {
        // s → 0 must not evaluate the harmonic inverse outside its domain;
        // it degrades to the uniform distribution, so the whole key range
        // stays reachable and no key dominates.
        for s in [0.0, -1.0, f64::EPSILON / 2.0] {
            let mut rng = StdRng::seed_from_u64(8);
            let d = KeyDistribution::Zipfian { s };
            let n = 1_000usize;
            let samples = 20_000;
            let mut low = 0usize;
            let mut seen_high = false;
            for _ in 0..samples {
                let k = d.sample(&mut rng, n);
                assert!((0..n as i64).contains(&k), "s={s}: {k} out of range");
                if k < (n / 100) as i64 {
                    low += 1;
                }
                if k >= (n * 9 / 10) as i64 {
                    seen_high = true;
                }
            }
            let low_fraction = low as f64 / samples as f64;
            assert!(
                (0.002..0.05).contains(&low_fraction),
                "s={s}: lowest 1% of keys drew {low_fraction} of samples"
            );
            assert!(seen_high, "s={s}: the top decile must stay reachable");
        }
    }

    #[test]
    fn zipfian_with_extreme_skew_pins_the_hottest_key_without_overflow() {
        let mut rng = StdRng::seed_from_u64(9);
        for s in [10.0, 50.0, 1_000.0] {
            let d = KeyDistribution::Zipfian { s };
            let mut zero = 0usize;
            let mut hot = 0usize;
            let samples = 5_000;
            for _ in 0..samples {
                let k = d.sample(&mut rng, 1_000_000);
                assert!((0..1_000_000).contains(&k), "s={s}: {k} out of range");
                if k == 0 {
                    zero += 1;
                }
                if k < 10 {
                    hot += 1;
                }
            }
            assert!(
                zero as f64 / samples as f64 > 0.8,
                "s={s}: key 0 drew only {zero}/{samples}"
            );
            assert!(
                hot as f64 / samples as f64 > 0.99,
                "s={s}: hottest 10 keys drew only {hot}/{samples}"
            );
        }
    }

    #[test]
    fn zipfian_near_one_uses_the_harmonic_branch_consistently() {
        // The s ≈ 1 branch (logarithmic zeta) must sample the same range and
        // stay deterministic, with no discontinuity blow-up next to it.
        for s in [1.0 - 1e-10, 1.0, 1.0 + 1e-10] {
            let d = KeyDistribution::Zipfian { s };
            let mut a = StdRng::seed_from_u64(10);
            let mut b = StdRng::seed_from_u64(10);
            for _ in 0..500 {
                let x = d.sample(&mut a, 10_000);
                let y = d.sample(&mut b, 10_000);
                assert_eq!(x, y);
                assert!((0..10_000).contains(&x));
            }
        }
    }

    #[test]
    fn single_row_table_always_returns_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        for d in [
            KeyDistribution::Uniform,
            KeyDistribution::Zipfian { s: 1.0 },
            KeyDistribution::HotSpot {
                hot_fraction: 0.5,
                hot_rows: 5,
            },
        ] {
            assert_eq!(d.sample(&mut rng, 1), 0);
        }
    }
}
