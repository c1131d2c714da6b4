//! Error types for the DRAM substrate.

use std::error::Error;
use std::fmt;

/// An illegal operation against the DRAM device model.
///
/// These errors indicate a *simulator* bug (the protocol asked the
/// channel for a transition its state forbids), not a modelled memory
/// error; modelled data errors live in the `ecc` and `margin` crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramError {
    /// An operation the channel or module state forbids (e.g. entering
    /// self-refresh twice).
    StateViolation {
        /// Human-readable description of the state conflict.
        reason: &'static str,
    },
    /// An operation addressed a module slot that does not exist.
    AddressOutOfRange {
        /// The offending slot index.
        index: usize,
        /// Number of slots present.
        count: usize,
    },
    /// A frequency transition was requested while another one is
    /// already in progress.
    TransitionInProgress,
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::StateViolation { reason } => write!(f, "state violation: {reason}"),
            DramError::AddressOutOfRange { index, count } => {
                write!(f, "module index {index} out of range (have {count})")
            }
            DramError::TransitionInProgress => {
                write!(f, "frequency transition already in progress")
            }
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_specifics() {
        let err = DramError::AddressOutOfRange {
            index: 10,
            count: 2,
        };
        let text = err.to_string();
        assert!(text.contains("module"));
        assert!(text.contains("10"));
        assert!(text.contains('2'));
        let err = DramError::StateViolation {
            reason: "not in self-refresh",
        };
        assert!(err.to_string().contains("not in self-refresh"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }
}
