//! The unified access-predictor seam of the facade.
//!
//! `access-model` ships several estimators with slightly different
//! inherent APIs (`predict(min_support)`, `predict(current)`,
//! `predict_row(i)`, `empirical_prob(i)`). The [`Predictor`] trait puts
//! them behind one interface — *observe the realised access, forecast
//! the next one* — so the [`Engine`](crate::engine::Engine) (and any
//! future learned model) can swap them freely, and the string-keyed
//! [registry](predictor_specs) makes them constructible from
//! configuration, CLI flags or experiment sweeps.

use access_model::{DependencyGraph, FreqTracker, MarkovEstimator, NgramPredictor};
use skp_core::policy::dense_row;
use skp_registry::{split_spec, Registry};

use crate::error::Error;
use crate::registry::numeric_param;

/// A predictor family's listing row (`params` empty without a `:param`).
pub use skp_registry::Spec as PredictorSpec;

/// An online next-access model: learns from the realised request stream
/// and forecasts the next access, as a dense probability vector over
/// the item universe or as its sparse row.
///
/// Forecasts need not be normalised — the engine clamps negatives and
/// rescales rows whose mass exceeds one before building a
/// [`Scenario`](skp_core::Scenario).
pub trait Predictor: Send {
    /// Registry-style name of the predictor family.
    fn name(&self) -> &str;

    /// Number of items in the universe the forecasts cover.
    fn n_items(&self) -> usize;

    /// Learn from one realised access.
    fn observe(&mut self, item: usize);

    /// Forecast `P[next = i]` for every item, given the current item.
    fn predict(&self, current: usize) -> Vec<f64>;

    /// The row forecast: [`predict`](Predictor::predict)'s vector as
    /// `(item, P)` entries in ascending item order, written into `row`
    /// (cleared first) so a caller can reuse one buffer for every
    /// forecast. Every entry other than `+0.0` is listed, with its bits
    /// (a `-0.0`, negative or NaN entry too: the engine clamps the row
    /// exactly as it clamps the dense vector).
    ///
    /// The default derives the row from `predict`; a model that can
    /// forecast its non-zero entries directly overrides it.
    fn predict_row(&self, current: usize, row: &mut Vec<(usize, f64)>) {
        dense_row(&self.predict(current), row);
    }
}

impl Predictor for NgramPredictor {
    fn name(&self) -> &str {
        "ngram"
    }

    fn n_items(&self) -> usize {
        NgramPredictor::n_items(self)
    }

    fn observe(&mut self, item: usize) {
        NgramPredictor::observe(self, item);
    }

    fn predict(&self, _current: usize) -> Vec<f64> {
        // The n-gram model tracks its own context window; `current` is
        // implicit in the observation stream.
        NgramPredictor::predict(self, NGRAM_MIN_SUPPORT)
    }

    fn predict_row(&self, _current: usize, row: &mut Vec<(usize, f64)>) {
        NgramPredictor::predict_row(self, NGRAM_MIN_SUPPORT, row);
    }
}

/// Observations a context needs before the `ngram` predictor trusts it
/// over a shorter one.
const NGRAM_MIN_SUPPORT: u32 = 2;

/// Longest context the `ngram` predictor family accepts. Each order
/// adds one trie level per access; the workspace uses at most order 3,
/// and a larger order only starves every context of support.
const MAX_NGRAM_ORDER: usize = 8;

impl Predictor for DependencyGraph {
    fn name(&self) -> &str {
        "depgraph"
    }

    fn n_items(&self) -> usize {
        DependencyGraph::n_items(self)
    }

    fn observe(&mut self, item: usize) {
        DependencyGraph::observe(self, item);
    }

    fn predict(&self, current: usize) -> Vec<f64> {
        DependencyGraph::predict(self, current)
    }
}

impl Predictor for MarkovEstimator {
    fn name(&self) -> &str {
        "markov"
    }

    fn n_items(&self) -> usize {
        MarkovEstimator::n_items(self)
    }

    fn observe(&mut self, item: usize) {
        MarkovEstimator::observe(self, item);
    }

    fn predict(&self, current: usize) -> Vec<f64> {
        self.predict_row(current)
    }
}

impl Predictor for FreqTracker {
    fn name(&self) -> &str {
        "freq"
    }

    fn n_items(&self) -> usize {
        self.n()
    }

    fn observe(&mut self, item: usize) {
        self.record(item);
    }

    fn predict(&self, _current: usize) -> Vec<f64> {
        // IRM-style forecast: the empirical access frequencies,
        // independent of the current item.
        (0..self.n()).map(|i| self.empirical_prob(i)).collect()
    }
}

/// Constructor of a registered predictor family: universe size, `:param`.
type PredictorBuilder = fn(usize, Option<f64>) -> Result<Box<dyn Predictor>, Error>;

fn build_ngram(n: usize, param: Option<f64>) -> Result<Box<dyn Predictor>, Error> {
    let order = param.unwrap_or(2.0);
    if !(1.0..=MAX_NGRAM_ORDER as f64).contains(&order) || order.fract() != 0.0 {
        return Err(Error::InvalidParam {
            what: "ngram order",
            detail: format!("expected an integer from 1 to {MAX_NGRAM_ORDER}, got {order}"),
        });
    }
    Ok(Box::new(NgramPredictor::new(n, order as usize)))
}

fn build_depgraph(n: usize, param: Option<f64>) -> Result<Box<dyn Predictor>, Error> {
    let window = param.unwrap_or(2.0);
    if window < 1.0 || window.fract() != 0.0 {
        return Err(Error::InvalidParam {
            what: "depgraph window",
            detail: format!("expected a positive integer, got {window}"),
        });
    }
    Ok(Box::new(DependencyGraph::new(n, window as usize)))
}

fn build_markov(n: usize, param: Option<f64>) -> Result<Box<dyn Predictor>, Error> {
    let alpha = param.unwrap_or(0.5);
    if !alpha.is_finite() || alpha <= 0.0 {
        return Err(Error::InvalidParam {
            what: "markov smoothing",
            detail: format!("expected a positive smoothing constant, got {alpha}"),
        });
    }
    Ok(Box::new(MarkovEstimator::new(n, alpha)))
}

static PREDICTORS: Registry<PredictorBuilder> = Registry::new(
    "predictor",
    "predictor spec",
    &[
        (
            PredictorSpec {
                name: "ngram",
                params: "context order k, 1 to 8 (default 2)",
                summary: "online order-k Markov (PPM-flavoured) predictor",
            },
            build_ngram,
        ),
        (
            PredictorSpec {
                name: "depgraph",
                params: "observation window w (default 2)",
                summary: "Padmanabhan–Mogul dependency-graph predictor",
            },
            build_depgraph,
        ),
        (
            PredictorSpec {
                name: "markov",
                params: "smoothing alpha (default 0.5)",
                summary: "first-order Markov row estimator with add-alpha smoothing",
            },
            build_markov,
        ),
        (
            PredictorSpec {
                name: "freq",
                params: "",
                summary: "IRM-style empirical access-frequency forecast",
            },
            |n, _| Ok(Box::new(FreqTracker::new(n))),
        ),
    ],
);

/// Every registered predictor family, in stable order.
pub fn predictor_specs() -> Vec<PredictorSpec> {
    PREDICTORS.specs()
}

/// Names of every registered predictor family.
pub fn predictor_names() -> Vec<&'static str> {
    PREDICTORS.names()
}

/// Builds a predictor over `n_items` from a spec string: a registry
/// name with an optional `:param` suffix, e.g. `"ngram"`, `"ngram:3"`,
/// `"markov:0.1"`. An empty universe (`n_items == 0`) is refused.
pub fn build_predictor(spec: &str, n_items: usize) -> Result<Box<dyn Predictor>, Error> {
    let (name, param) = split_spec(spec);
    let Some((row, build)) = PREDICTORS.entry(name) else {
        return Err(Error::UnknownPredictor {
            name: name.to_string(),
            known: predictor_names(),
        });
    };
    let param = numeric_param("predictor parameter", row, param)?;
    if n_items == 0 {
        return Err(Error::InvalidParam {
            what: "predictor universe",
            detail: "a predictor needs at least one item, got 0".into(),
        });
    }
    build(n_items, param)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_predictor_builds() {
        for spec in predictor_specs() {
            let p = build_predictor(spec.name, 8).expect("default build");
            assert_eq!(p.name(), spec.name);
            assert_eq!(p.n_items(), 8);
        }
    }

    #[test]
    fn an_empty_universe_is_refused_for_every_family() {
        for spec in predictor_specs() {
            match build_predictor(spec.name, 0) {
                Err(Error::InvalidParam { what, .. }) => assert_eq!(what, "predictor universe"),
                Err(e) => panic!("{}: {e}", spec.name),
                Ok(_) => panic!("{} built over zero items", spec.name),
            }
        }
        let built = crate::Engine::builder().predictor("ngram").items(0).build();
        assert!(
            matches!(
                built,
                Err(Error::InvalidParam {
                    what: "predictor universe",
                    ..
                })
            ),
            "{:?}",
            built.err()
        );
    }

    #[test]
    fn parameters_apply() {
        let mut p = build_predictor("ngram:1", 3).unwrap();
        // Order-1 model on a deterministic cycle predicts it quickly.
        for i in 0..30 {
            p.observe(i % 3);
        }
        let probs = p.predict(2); // current item 2 -> next is 0
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 0);
    }

    #[test]
    fn unknown_name_lists_known() {
        let e = build_predictor("nope", 4).err().expect("must fail");
        assert!(matches!(e, Error::UnknownPredictor { .. }));
        assert!(e.to_string().contains("ngram"));
    }

    #[test]
    fn bad_params_rejected() {
        assert!(build_predictor("ngram:0", 4).is_err());
        assert!(build_predictor("ngram:1.5", 4).is_err());
        assert!(build_predictor("ngram:9", 4).is_err());
        assert!(build_predictor("ngram:1e300", 4).is_err());
        assert!(build_predictor("ngram:NaN", 4).is_err());
        assert!(build_predictor(&format!("ngram:{MAX_NGRAM_ORDER}"), 4).is_ok());
        assert!(build_predictor("markov:-1", 4).is_err());
        assert!(build_predictor("freq:2", 4).is_err());
        assert!(build_predictor("depgraph:zero", 4).is_err());
    }

    #[test]
    fn freq_predicts_empirical_distribution() {
        let mut p = build_predictor("freq", 3).unwrap();
        for _ in 0..3 {
            p.observe(0);
        }
        p.observe(1);
        let probs = p.predict(0);
        assert!((probs[0] - 0.75).abs() < 1e-12);
        assert!((probs[1] - 0.25).abs() < 1e-12);
        assert_eq!(probs[2], 0.0);
    }
}
