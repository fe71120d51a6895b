//! # access-model — access-prediction substrate
//!
//! The performance model of the paper *presupposes* knowledge of the
//! next-access probabilities (`P_i`); this crate supplies that knowledge:
//!
//! - [`markov`] — the first-order Markov request source used by the
//!   paper's Figure-7 evaluation (100 states, 10–20 successors each,
//!   per-state viewing times), plus stationary-distribution utilities;
//! - [`freq`] — access-frequency statistics backing the LFU and
//!   delay-saving (WATCHMAN-style) sub-arbitrations of Section 5;
//! - [`ngram`] — an online order-`k` Markov (PPM-flavoured) predictor in
//!   the spirit of Vitter & Krishnan's compression-based predictors
//!   (reference \[16\]), used by the examples;
//! - [`depgraph`] — a Padmanabhan–Mogul dependency-graph predictor
//!   (reference \[9\]) for web-style workloads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod depgraph;
pub mod eval;
pub mod freq;
pub mod irm;
pub mod markov;
pub mod markov_est;
pub mod ngram;

pub use depgraph::DependencyGraph;
pub use eval::PredictorEval;
pub use freq::FreqTracker;
pub use irm::IrmSource;
pub use markov::{MarkovChain, MergedRows};
pub use markov_est::MarkovEstimator;
pub use ngram::NgramPredictor;
