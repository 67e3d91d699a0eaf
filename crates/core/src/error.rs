//! Error type of the WANify core crate.

/// Errors surfaced by the WANify pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum WanifyError {
    /// A matrix argument had the wrong dimensions.
    DimensionMismatch {
        /// Expected size (DC count).
        expected: usize,
        /// Provided size.
        got: usize,
    },
    /// The prediction model was used before training.
    ModelNotTrained,
    /// The prediction model was trained on rows of a different width than
    /// the Table-3 feature vector it is asked to predict from.
    FeatureArityMismatch {
        /// Features per probe row.
        expected: usize,
        /// Features per row of the model's training data.
        got: usize,
    },
    /// A configuration value was out of its valid range.
    InvalidConfig(String),
}

impl std::fmt::Display for WanifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WanifyError::DimensionMismatch { expected, got } => {
                write!(f, "matrix covers {got} DCs but the cluster has {expected}")
            }
            WanifyError::ModelNotTrained => {
                write!(f, "the WAN prediction model has not been trained yet")
            }
            WanifyError::FeatureArityMismatch { expected, got } => {
                write!(f, "the model was trained on {got} features but a probe row has {expected}")
            }
            WanifyError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for WanifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = WanifyError::DimensionMismatch { expected: 8, got: 3 };
        assert!(e.to_string().contains('8') && e.to_string().contains('3'));
        assert!(WanifyError::ModelNotTrained.to_string().contains("trained"));
        let e = WanifyError::FeatureArityMismatch { expected: 6, got: 4 };
        assert!(e.to_string().contains('6') && e.to_string().contains('4'));
    }
}
