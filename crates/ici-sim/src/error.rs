//! Typed errors of the experiment runner.

use std::error::Error;
use std::fmt;

use ici_core::error::IciError;
use ici_faults::plan::FaultError;

/// Why [`crate::run`] could not produce a summary.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The strategy rejected its configuration.
    Config(IciError),
    /// The fault profile cannot produce a plan over the groups the
    /// strategy formed (e.g. the live floor exceeds a cluster).
    Plan(FaultError),
    /// A block failed to commit in a fault-free run, where every node is
    /// honest and live. `cause` carries the protocol error when the
    /// strategy reports one; the baselines only report the failure.
    Commit {
        /// Label of the strategy that failed.
        strategy: &'static str,
        /// The protocol error, when the strategy reports one.
        cause: Option<IciError>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid strategy configuration: {e}"),
            SimError::Plan(e) => write!(f, "fault plan cannot be built: {e}"),
            SimError::Commit {
                strategy,
                cause: Some(e),
            } => write!(f, "{strategy} failed to commit a fault-free block: {e}"),
            SimError::Commit {
                strategy,
                cause: None,
            } => write!(f, "{strategy} failed to commit a fault-free block"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) | SimError::Commit { cause: Some(e), .. } => Some(e),
            SimError::Plan(e) => Some(e),
            SimError::Commit { cause: None, .. } => None,
        }
    }
}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> SimError {
        SimError::Plan(e)
    }
}
