//! Experiment harness: one runner, statistics, tables, and result export.
//!
//! * [`strategy`] — the [`Strategy`] trait, implemented for
//!   ICIStrategy (`IciNetwork`) and both baselines (full replication,
//!   RapidChain): what each design does differently inside a run;
//! * [`runner`] — [`run`], the one way to run a strategy: it drives any
//!   `Strategy` over a shared workload, optionally through a
//!   deterministic `ici-faults` plan, and reduces the run to a
//!   [`RunSummary`] whose optional [`FaultSummary`] carries the
//!   survivability numbers;
//! * [`error`] — [`SimError`], the runner's typed failures;
//! * [`latency`] — latency percentile summaries;
//! * [`table`] — paper-style ASCII tables and CSV;
//! * [`report`] — JSON export of experiment records for `EXPERIMENTS.md`
//!   bookkeeping.
//!
//! # Examples
//!
//! ```
//! use ici_core::config::IciConfig;
//! use ici_sim::{run, FaultProfile, RunSpec};
//! use ici_workload::WorkloadConfig;
//!
//! let config = IciConfig::builder()
//!     .nodes(16)
//!     .cluster_size(8)
//!     .replication(2)
//!     .build()
//!     .expect("valid configuration");
//! let spec = RunSpec::new(2, 4, WorkloadConfig::default());
//! let (_, summary) = run(config.clone(), spec)?;
//! assert_eq!(summary.committed_blocks, 2);
//! assert!(summary.storage_fraction() < 1.0);
//!
//! // The same runner under 12 rounds of the default churn plan.
//! let faulted = RunSpec {
//!     rounds: 12,
//!     faults: Some(FaultProfile::default()),
//!     ..spec
//! };
//! let (_, summary) = run(config, faulted)?;
//! assert_eq!(summary.faults.map(|f| f.rounds), Some(12));
//! # Ok::<(), ici_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod latency;
pub mod report;
pub mod runner;
pub mod strategy;
pub mod table;

pub use error::SimError;
pub use latency::LatencyStats;
pub use report::ExperimentRecord;
pub use runner::{run, FaultProfile, FaultSummary, RunSpec, RunSummary, StageChurn};
pub use strategy::{Strategy, StrategyConfig};
pub use table::{fmt_f64, Table};
