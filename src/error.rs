//! The one error type of the facade API.
//!
//! Every fallible facade operation — scenario validation (`skp-core`'s
//! [`ModelError`]), scenario-file parsing ([`ParseError`]), registry
//! lookups, engine configuration and verification — converges on
//! [`Error`], so callers write one `?` chain against
//! `speculative_prefetch` instead of juggling per-crate error enums.

use skp_core::ModelError;
use std::fmt;

use crate::scenario_file::ParseError;

/// Unified error of the `speculative_prefetch` facade.
#[derive(Debug)]
pub enum Error {
    /// Model-layer validation failed (invalid probabilities, retrieval
    /// times, plans, …).
    Model(ModelError),
    /// A scenario file could not be parsed.
    Parse(ParseError),
    /// A policy name was not found in the registry.
    UnknownPolicy {
        /// The name that failed to resolve.
        name: String,
        /// Every registered policy name.
        known: Vec<&'static str>,
    },
    /// A predictor name was not found in the registry.
    UnknownPredictor {
        /// The name that failed to resolve.
        name: String,
        /// Every registered predictor name.
        known: Vec<&'static str>,
    },
    /// A backend name was not found in the registry.
    UnknownBackend {
        /// The name that failed to resolve.
        name: String,
        /// Every registered backend name.
        known: Vec<&'static str>,
    },
    /// A registry or builder parameter was malformed.
    InvalidParam {
        /// What was being configured.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// The engine is missing a component this operation needs (e.g.
    /// `run_trace` without a predictor, `scenario` without a catalog).
    MissingComponent {
        /// The absent component.
        component: &'static str,
        /// The operation that needed it.
        needed_for: &'static str,
    },
    /// The operation is not available under the configured backend.
    UnsupportedBackend {
        /// The operation attempted.
        operation: &'static str,
        /// Name of the configured backend.
        backend: &'static str,
    },
    /// Mechanistic verification found a closed-form/event-replay
    /// disagreement (this indicates a bug and should never occur).
    Mismatch {
        /// The request whose access times disagreed.
        request: usize,
        /// Closed-form access time.
        formula: f64,
        /// Event-replay access time.
        replay: f64,
    },
    /// A `served:` backend round-trip reached the daemon but the daemon
    /// refused or failed the request.
    Served {
        /// HTTP status code the daemon answered with.
        status: u16,
        /// The daemon's error detail (body of the error response, plus
        /// any `Retry-After` hint on `503`).
        detail: String,
    },
    /// An I/O operation (trace or scenario file) failed.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Model(e) => write!(f, "invalid model: {e}"),
            Error::Parse(e) => write!(f, "scenario file: {e}"),
            Error::UnknownPolicy { name, known } => {
                write!(f, "unknown policy '{name}' (known: {})", known.join(", "))
            }
            Error::UnknownPredictor { name, known } => {
                write!(
                    f,
                    "unknown predictor '{name}' (known: {})",
                    known.join(", ")
                )
            }
            Error::UnknownBackend { name, known } => {
                write!(f, "unknown backend '{name}' (known: {})", known.join(", "))
            }
            Error::InvalidParam { what, detail } => {
                write!(f, "invalid {what}: {detail}")
            }
            Error::MissingComponent {
                component,
                needed_for,
            } => write!(
                f,
                "engine has no {component} (required by {needed_for}); configure it on the SessionBuilder"
            ),
            Error::UnsupportedBackend { operation, backend } => {
                write!(f, "{operation} is not available on the {backend} backend")
            }
            Error::Mismatch {
                request,
                formula,
                replay,
            } => write!(
                f,
                "model/replay mismatch for request {request}: closed form {formula} vs event replay {replay}"
            ),
            Error::Served { status, detail } => {
                write!(f, "served backend: daemon answered {status}: {detail}")
            }
            Error::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Model(e) => Some(e),
            Error::Parse(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for Error {
    fn from(e: ModelError) -> Self {
        Error::Model(e)
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        // A parse error that already wraps a model error keeps its
        // model identity, so `matches!(e, Error::Model(_))` works no
        // matter which layer rejected the data.
        match e {
            ParseError::Model(m) => Error::Model(m),
            other => Error::Parse(other),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<skp_registry::SpecError> for Error {
    fn from(e: skp_registry::SpecError) -> Self {
        // Spec errors of every registry (backend, generator, plan store,
        // obs sink) are parameter errors of one shape.
        Error::InvalidParam {
            what: e.what,
            detail: e.detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = Error::from(ModelError::BadViewingTime { value: -1.0 });
        assert!(e.to_string().contains("-1"));

        let e = Error::UnknownPolicy {
            name: "magic".into(),
            known: vec!["kp", "skp-exact"],
        };
        let s = e.to_string();
        assert!(s.contains("magic") && s.contains("skp-exact"));

        let e = Error::Mismatch {
            request: 3,
            formula: 1.0,
            replay: 2.0,
        };
        assert!(e.to_string().contains('3'));

        let e = Error::Served {
            status: 503,
            detail: "queue full; retry after 1s".into(),
        };
        let s = e.to_string();
        assert!(s.contains("503") && s.contains("queue full"));
    }

    #[test]
    fn parse_error_folds_into_unified_error() {
        let parse = crate::scenario_file::parse("v 5\n").unwrap_err();
        let e = Error::from(parse);
        assert!(matches!(e, Error::Parse(_)));

        // Model errors surface as Model regardless of the path taken.
        let via_parse = crate::scenario_file::parse("v 5\nitem 0.9 1\nitem 0.9 1\n").unwrap_err();
        assert!(matches!(Error::from(via_parse), Error::Model(_)));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e = Error::from(ModelError::MassExceedsOne { total: 1.4 });
        assert!(e.source().is_some());
    }
}
