//! Validation errors for model construction.

use std::fmt;

/// Errors raised when constructing or manipulating model objects.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The probability and retrieval-time vectors have different lengths.
    LengthMismatch {
        /// Number of probabilities supplied.
        probs: usize,
        /// Number of retrieval times supplied.
        retrievals: usize,
    },
    /// A probability is negative, NaN, or greater than one.
    BadProbability {
        /// Index of the offending item.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The probabilities sum to more than one (beyond tolerance).
    MassExceedsOne {
        /// The total probability mass.
        total: f64,
    },
    /// A retrieval time is non-positive or NaN.
    BadRetrievalTime {
        /// Index of the offending item.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The viewing time is negative or NaN.
    BadViewingTime {
        /// The offending value.
        value: f64,
    },
    /// An item id is out of range for the scenario.
    UnknownItem {
        /// The offending id.
        id: usize,
        /// Number of items in the scenario.
        n: usize,
    },
    /// A sparse row's item ids are not strictly ascending.
    UnsortedRow {
        /// The first id that is not above its predecessor.
        id: usize,
    },
    /// A prefetch plan references the same item twice.
    DuplicateItem {
        /// The duplicated id.
        id: usize,
    },
    /// A plan's prefix (all but the last item) does not fit in the viewing
    /// time, violating construction (1) of the paper.
    InadmissiblePlan {
        /// Total retrieval time of the prefix.
        prefix_time: f64,
        /// The viewing time it must stay strictly under.
        viewing: f64,
    },
    /// An item size is non-positive or NaN (unequal-size extension).
    BadSize {
        /// Index of the offending item.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::LengthMismatch { probs, retrievals } => write!(
                f,
                "probability vector has {probs} entries but retrieval vector has {retrievals}"
            ),
            ModelError::BadProbability { index, value } => {
                write!(f, "item {index} has invalid probability {value}")
            }
            ModelError::MassExceedsOne { total } => {
                write!(f, "probabilities sum to {total} > 1")
            }
            ModelError::BadRetrievalTime { index, value } => {
                write!(f, "item {index} has invalid retrieval time {value}")
            }
            ModelError::BadViewingTime { value } => {
                write!(f, "invalid viewing time {value}")
            }
            ModelError::UnknownItem { id, n } => {
                write!(f, "item id {id} out of range for scenario with {n} items")
            }
            ModelError::UnsortedRow { id } => {
                write!(f, "row item {id} is not above the item before it")
            }
            ModelError::DuplicateItem { id } => {
                write!(f, "item {id} appears more than once in the plan")
            }
            ModelError::InadmissiblePlan {
                prefix_time,
                viewing,
            } => write!(
                f,
                "plan prefix takes {prefix_time} which is not strictly less than viewing time {viewing}"
            ),
            ModelError::BadSize { index, value } => {
                write!(f, "item {index} has invalid size {value}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::BadProbability {
            index: 3,
            value: -0.5,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains("-0.5"));

        let e = ModelError::LengthMismatch {
            probs: 2,
            retrievals: 5,
        };
        assert!(e.to_string().contains('2'));

        let e = ModelError::MassExceedsOne { total: 1.5 };
        assert!(e.to_string().contains("1.5"));

        let e = ModelError::UnknownItem { id: 9, n: 3 };
        assert!(e.to_string().contains('9'));

        let e = ModelError::InadmissiblePlan {
            prefix_time: 12.0,
            viewing: 10.0,
        };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            ModelError::DuplicateItem { id: 1 },
            ModelError::DuplicateItem { id: 1 }
        );
        assert_ne!(
            ModelError::DuplicateItem { id: 1 },
            ModelError::DuplicateItem { id: 2 }
        );
    }
}
