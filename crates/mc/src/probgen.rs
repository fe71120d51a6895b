//! Next-access probability generators.
//!
//! The paper generates `P` "using two different methods: skewy method and
//! flat method. The skewy method generates a situation where the next
//! request is highly predictable. The flat method results in a less
//! predictable situation." — and defines them no further. Our
//! interpretation (DESIGN.md §4.1):
//!
//! - **Flat**: weights `w_i ∼ U(0, 1)` normalised — no item dominates
//!   (median max-probability ≈ 0.2 at `n = 10`);
//! - **Skewy**: weights `w_i = u_i^16` with `u_i ∼ U(0, 1)` normalised —
//!   the top item usually carries most of the mass (median max-probability
//!   ≈ 0.7 at `n = 10`).
//!
//! Zipf and symmetric-Dirichlet generators are included so the sensitivity
//! of every figure to this interpretation can be measured (a workload
//! file selects them with `mc-method zipf:<s>` or `dirichlet:<a>`).

use rand::Rng;

/// A probability-vector generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbMethod {
    /// Normalised `U(0,1)^exponent` weights; the paper's *skewy* method
    /// with `exponent = 16`.
    Skewy {
        /// Skew exponent (≥ 1; larger = more predictable).
        exponent: f64,
    },
    /// Normalised `U(0,1)` weights; the paper's *flat* method.
    Flat,
    /// Zipf ranks with exponent `s`, randomly assigned to items.
    Zipf {
        /// Zipf exponent (> 0).
        s: f64,
    },
    /// Symmetric Dirichlet with concentration `alpha` (sampled via
    /// normalised Gamma(alpha, 1) draws; small `alpha` = spiky).
    Dirichlet {
        /// Concentration parameter (> 0).
        alpha: f64,
    },
}

impl ProbMethod {
    /// The paper's skewy method.
    pub fn skewy() -> Self {
        ProbMethod::Skewy { exponent: 16.0 }
    }

    /// The paper's flat method.
    pub fn flat() -> Self {
        ProbMethod::Flat
    }

    /// Display name for experiment output.
    pub fn name(&self) -> String {
        match self {
            ProbMethod::Skewy { exponent } => format!("skewy(e={exponent})"),
            ProbMethod::Flat => "flat".to_string(),
            ProbMethod::Zipf { s } => format!("zipf(s={s})"),
            ProbMethod::Dirichlet { alpha } => format!("dirichlet(a={alpha})"),
        }
    }

    /// Draws a probability vector of length `n` (sums to 1).
    ///
    /// # Panics
    /// Panics when `n == 0` or a shape parameter is invalid.
    pub fn generate(&self, n: usize, rng: &mut impl Rng) -> Vec<f64> {
        assert!(n >= 1, "need at least one item");
        let mut w: Vec<f64> = match *self {
            ProbMethod::Skewy { exponent } => {
                assert!(exponent >= 1.0, "skew exponent must be >= 1");
                (0..n)
                    .map(|_| rng.random_range(0.0..1.0f64).powf(exponent))
                    .collect()
            }
            ProbMethod::Flat => (0..n).map(|_| rng.random_range(0.0..1.0f64)).collect(),
            ProbMethod::Zipf { s } => {
                assert!(s > 0.0, "zipf exponent must be positive");
                let mut ranks: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
                // Assign ranks to random items (Fisher–Yates on the ranks).
                for i in (1..n).rev() {
                    let j = rng.random_range(0..=i);
                    ranks.swap(i, j);
                }
                ranks
            }
            ProbMethod::Dirichlet { alpha } => {
                assert!(alpha > 0.0, "dirichlet alpha must be positive");
                (0..n).map(|_| gamma_sample(alpha, rng)).collect()
            }
        };
        // Guard against an all-zero draw (possible with tiny weights).
        let sum: f64 = w.iter().sum();
        if sum <= f64::MIN_POSITIVE {
            return vec![1.0 / n as f64; n];
        }
        for x in &mut w {
            *x /= sum;
        }
        w
    }
}

/// Marsaglia–Tsang Gamma(shape, 1) sampler (with the Johnk-style boost for
/// shape < 1).
fn gamma_sample(shape: f64, rng: &mut impl Rng) -> f64 {
    if shape < 1.0 {
        // Gamma(a) = Gamma(a + 1) * U^(1/a)
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        return gamma_sample(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Normal sample via Box–Muller.
        let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn max_prob_median(method: ProbMethod, n: usize, trials: usize) -> f64 {
        let mut rng = SmallRng::seed_from_u64(12345);
        let mut maxes: Vec<f64> = (0..trials)
            .map(|_| {
                let p = method.generate(n, &mut rng);
                p.iter().cloned().fold(0.0, f64::max)
            })
            .collect();
        maxes.sort_by(f64::total_cmp);
        maxes[trials / 2]
    }

    #[test]
    fn all_methods_normalise() {
        let mut rng = SmallRng::seed_from_u64(1);
        for method in [
            ProbMethod::skewy(),
            ProbMethod::flat(),
            ProbMethod::Zipf { s: 1.0 },
            ProbMethod::Dirichlet { alpha: 0.5 },
        ] {
            for _ in 0..50 {
                let p = method.generate(10, &mut rng);
                assert_eq!(p.len(), 10);
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{method:?}");
                assert!(p.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn skewy_is_predictable_flat_is_not() {
        let skewy = max_prob_median(ProbMethod::skewy(), 10, 301);
        let flat = max_prob_median(ProbMethod::flat(), 10, 301);
        assert!(
            skewy > 0.55,
            "skewy median max-probability too low: {skewy}"
        );
        assert!(flat < 0.35, "flat median max-probability too high: {flat}");
        assert!(skewy > flat + 0.2);
    }

    #[test]
    fn higher_exponent_is_more_skewed() {
        let lo = max_prob_median(ProbMethod::Skewy { exponent: 2.0 }, 10, 301);
        let hi = max_prob_median(ProbMethod::Skewy { exponent: 16.0 }, 10, 301);
        assert!(hi > lo);
    }

    #[test]
    fn zipf_head_heavier_with_larger_s() {
        let lo = max_prob_median(ProbMethod::Zipf { s: 0.5 }, 10, 301);
        let hi = max_prob_median(ProbMethod::Zipf { s: 2.0 }, 10, 301);
        assert!(hi > lo);
    }

    #[test]
    fn dirichlet_alpha_controls_spikiness() {
        let spiky = max_prob_median(ProbMethod::Dirichlet { alpha: 0.1 }, 10, 301);
        let smooth = max_prob_median(ProbMethod::Dirichlet { alpha: 10.0 }, 10, 301);
        assert!(spiky > smooth);
    }

    #[test]
    fn single_item_gets_probability_one() {
        let mut rng = SmallRng::seed_from_u64(2);
        for method in [ProbMethod::skewy(), ProbMethod::flat()] {
            let p = method.generate(1, &mut rng);
            assert!((p[0] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn names_distinguish_methods() {
        assert_ne!(ProbMethod::skewy().name(), ProbMethod::flat().name());
        assert!(ProbMethod::Zipf { s: 1.5 }.name().contains("1.5"));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = ProbMethod::skewy().generate(5, &mut SmallRng::seed_from_u64(9));
        let b = ProbMethod::skewy().generate(5, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
