//! Error type for the PPUF core crate.

use std::error::Error;
use std::fmt;

use ppuf_analog::solver::SolveError;
use ppuf_maxflow::MaxFlowError;

/// Errors produced while building, executing, or simulating a PPUF.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PpufError {
    /// A configuration parameter is out of range.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// A challenge does not match the device (wrong node or bit count).
    ChallengeMismatch {
        /// What was wrong.
        reason: String,
    },
    /// The analog execution failed to converge.
    Execution(SolveError),
    /// The max-flow simulation failed.
    Simulation(MaxFlowError),
    /// The two networks' currents differ by less than the comparator can
    /// resolve; the response bit would be metastable.
    UnresolvableResponse {
        /// Current difference magnitude in amperes.
        difference: f64,
        /// Comparator resolution in amperes.
        resolution: f64,
    },
}

impl fmt::Display for PpufError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PpufError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            PpufError::ChallengeMismatch { reason } => {
                write!(f, "challenge does not fit device: {reason}")
            }
            PpufError::Execution(e) => write!(f, "analog execution failed: {e}"),
            PpufError::Simulation(e) => write!(f, "max-flow simulation failed: {e}"),
            PpufError::UnresolvableResponse { difference, resolution } => write!(
                f,
                "current difference {difference:.3e} A below comparator resolution {resolution:.3e} A"
            ),
        }
    }
}

impl Error for PpufError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PpufError::Execution(e) => Some(e),
            PpufError::Simulation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for PpufError {
    fn from(e: SolveError) -> Self {
        PpufError::Execution(e)
    }
}

impl From<MaxFlowError> for PpufError {
    fn from(e: MaxFlowError) -> Self {
        PpufError::Simulation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let errors: Vec<PpufError> = vec![
            PpufError::InvalidConfig { reason: "zero nodes".into() },
            PpufError::ChallengeMismatch { reason: "bit count".into() },
            PpufError::Simulation(MaxFlowError::InvalidEpsilon { value: 2.0 }),
            PpufError::UnresolvableResponse { difference: 1e-12, resolution: 1e-9 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn source_chains() {
        let e = PpufError::from(MaxFlowError::InvalidEpsilon { value: 2.0 });
        assert!(e.source().is_some());
        let e = PpufError::InvalidConfig { reason: "x".into() };
        assert!(e.source().is_none());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PpufError>();
    }
}
