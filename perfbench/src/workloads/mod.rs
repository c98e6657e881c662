//! The four closed-loop workloads.
//!
//! Each has one client: the next op starts only after the previous one
//! completes. Every workload calls the system's public entry points
//! directly, never `ici-sim`'s runners.

pub mod ici_commit;
pub mod rapidchain_commit;
pub mod scale_ingest;
pub mod serve_reads;

use std::collections::BTreeMap;
use std::time::Instant;

use ici_net::metrics::{Counter, MessageKind, TrafficMeter};

use crate::layers::net_metrics;
use crate::stats::{median, OpLog};

/// Named values: deterministic window counters and layer measurements.
pub type Values = BTreeMap<String, f64>;

/// Balance granted to each funded account of the commit workloads,
/// large enough that no run exhausts a sender.
pub const GENESIS_BALANCE: u64 = u64::MAX / 1_000_000;

/// Wall-clock samples of the benchmark's own calls into the program,
/// keyed by the layer metric they feed, and the work counts that
/// normalise them.
#[derive(Clone, Debug, Default)]
pub struct Timings {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
}

impl Timings {
    /// Runs `f`, recording its wall time in milliseconds under `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(key, ms_since(start));
        out
    }

    /// Records one sample of `ms` under `key`.
    pub fn record(&mut self, key: &'static str, ms: f64) {
        self.samples.entry(key).or_default().push(ms);
    }

    /// Adds `n` to the work count `key`.
    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }

    /// The work count `key` (0 if never counted).
    pub fn counted(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Sum of the samples under `key`, in milliseconds.
    pub fn sum(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |v| v.iter().sum())
    }

    /// Median sample under `key`, if any.
    pub fn p50(&self, key: &str) -> Option<f64> {
        self.samples.get(key).and_then(|v| median(v))
    }

    /// Sum of every sample, in milliseconds.
    pub fn total(&self) -> f64 {
        self.samples.values().flatten().sum()
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Sizes of the workload; the benchmark runs `FULL`, tests run
    /// smaller ones.
    type Params;

    /// Whether ops commit transactions (`txs_per_s` applies).
    const COMMITS_TXS: bool;

    /// Whether the benchmark times every program call inside an op.
    /// When it does, op time not covered by those timings is
    /// unattributed; when the op is a single program call, op time not
    /// covered by the program's own spans is.
    const TIMES_CALLS: bool;

    /// Builds the system and its inputs from `seed`. Set-up layer
    /// timings (seconds) go into `setup`.
    fn setup(params: &Self::Params, seed: u64, setup: &mut Values) -> Result<Self, String>;

    /// Ops per [`Workload::step`]; divides the window so the window
    /// closes on a step boundary.
    fn step_ops(&self) -> usize;

    /// Runs one step of the closed loop, recording each op in `log`.
    /// Returns `Err` after recording the op that errored or failed a
    /// check; the run then stops.
    fn step(&mut self, log: &mut OpLog, timings: &mut Timings) -> Result<(), String>;

    /// Deterministic values over the first `ops` ops after set-up.
    /// Called once, right after op `ops`.
    fn window(&mut self, ops: usize) -> Result<Values, String>;

    /// Layer metrics from the outside timings of `ops` traced ops.
    fn layer_timings(&self, timings: &Timings, ops: usize, out: &mut Values);

    /// End-of-run correctness checks.
    fn finish(&mut self) -> Result<(), String>;
}

/// Per-kind traffic copied out of a meter.
pub fn traffic(meter: &TrafficMeter) -> BTreeMap<MessageKind, Counter> {
    meter.by_kind().clone()
}

/// Puts per-op traffic since `base` into `out`: the totals
/// `msgs_per_op`/`bytes_per_op` and one `net.*` pair per message kind.
pub fn traffic_window(
    meter: &TrafficMeter,
    base: &BTreeMap<MessageKind, Counter>,
    ops: usize,
    out: &mut Values,
) {
    let (mut msgs, mut bytes) = (0u64, 0u64);
    for kind in MessageKind::ALL {
        let now = meter.kind(kind);
        let before = base.get(&kind).copied().unwrap_or_default();
        let (m, b) = (now.messages - before.messages, now.bytes - before.bytes);
        msgs += m;
        bytes += b;
        let (msg_name, byte_name) = net_metrics(kind);
        out.insert(msg_name, m as f64 / ops as f64);
        out.insert(byte_name, b as f64 / ops as f64);
    }
    out.insert("msgs_per_op".into(), msgs as f64 / ops as f64);
    out.insert("bytes_per_op".into(), bytes as f64 / ops as f64);
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    //! Same-seed runs of every workload, at reduced sizes.

    use std::sync::Mutex;

    use super::*;
    use crate::drive::{drive, Outcome, Plan};
    use crate::layers::schema;

    /// Telemetry's enable flag is process-wide: runs take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// The seed the benchmark uses by default, and the held-out seed.
    const SEEDS: [u64; 2] = [crate::DEFAULT_SEED, crate::HELD_OUT_SEED];

    fn plan(trace: bool) -> Plan {
        Plan {
            seconds: 0.0,
            trace,
            window_ops: 20,
            min_ops: 200,
            traced_min_ops: 40,
            setup_reps: 1,
            setup_budget_s: 0.0,
            max_setup_reps: 1,
        }
    }

    fn run<W: Workload>(params: &W::Params, seed: u64, trace: bool) -> Outcome {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = drive::<W>(params, seed, &plan(trace));
        assert_eq!(outcome.failure, None, "seed {seed}");
        outcome
    }

    /// The values of `keys` in `outcome`, each required present.
    fn values<K: AsRef<str>>(outcome: &Outcome, keys: &[K]) -> Vec<f64> {
        keys.iter()
            .map(|k| {
                let k = k.as_ref();
                outcome
                    .metrics
                    .get(k)
                    .unwrap_or_else(|| panic!("{k} missing"))
            })
            .collect()
    }

    /// Deterministic metrics repeat exactly for a seed, untraced
    /// (`untraced` keys) and traced (`traced` keys), and every check
    /// passes on both documented seeds.
    fn deterministic<W: Workload>(params: &W::Params, untraced: &[&str], traced: &[String]) {
        for seed in SEEDS {
            let first = run::<W>(params, seed, false);
            let second = run::<W>(params, seed, false);
            assert_eq!(
                values(&first, untraced),
                values(&second, untraced),
                "seed {seed}"
            );
        }
        let first = run::<W>(params, crate::DEFAULT_SEED, true);
        let second = run::<W>(params, crate::DEFAULT_SEED, true);
        assert_eq!(values(&first, traced), values(&second, traced));
    }

    fn small_ici() -> ici_commit::Params {
        ici_commit::Params {
            nodes: 64,
            cluster_size: 16,
            replication: 2,
            accounts: 32,
            txs_per_block: 8,
            chunk: 10,
            pregenerated: 20,
        }
    }

    const COMMIT_KEYS: [&str; 5] = [
        "sim_latency_p50_ms",
        "sim_tps",
        "storage_fraction",
        "msgs_per_op",
        "bytes_per_op",
    ];

    /// Every `net.*` layer metric.
    fn net_keys() -> Vec<String> {
        schema()
            .into_iter()
            .map(|(n, ..)| n)
            .filter(|n| n.starts_with("net."))
            .collect()
    }

    #[test]
    fn ici_commit_is_deterministic() {
        deterministic::<ici_commit::IciCommit>(&small_ici(), &COMMIT_KEYS, &net_keys());
    }

    #[test]
    fn rapidchain_commit_is_deterministic() {
        let params = rapidchain_commit::Params {
            nodes: 64,
            committee_size: 16,
            accounts: 32,
            txs_per_block: 8,
        };
        deterministic::<rapidchain_commit::RapidChainCommit>(&params, &COMMIT_KEYS, &net_keys());
    }

    #[test]
    fn scale_ingest_is_deterministic() {
        let params = scale_ingest::Params {
            accounts: 5_000,
            base_txs: 20,
            burst_every: 4,
        };
        deterministic::<scale_ingest::ScaleIngest>(
            &params,
            &[],
            &[
                "chain.admit_ratio",
                "chain.evictions_per_op",
                "chain.skipped_per_op",
                "chain.touched_accounts_per_op",
                "chain.dirty_buckets_per_op",
            ]
            .map(String::from),
        );
    }

    #[test]
    fn serve_reads_is_deterministic() {
        let params = serve_reads::Params {
            network: small_ici(),
            blocks: 20,
            membership_every: 5,
        };
        let mut traced = net_keys();
        traced.extend(
            [
                "core.query_intra_cluster_ratio",
                "core.bootstrap_bytes_per_join",
            ]
            .map(String::from),
        );
        deterministic::<serve_reads::ServeReads>(
            &params,
            &[
                "sim_latency_p50_ms",
                "storage_fraction",
                "msgs_per_op",
                "bytes_per_op",
            ],
            &traced,
        );
    }

    /// A traced run reports the whole schema; layers a workload never
    /// reaches read 0 (the prediction table's flat cells).
    #[test]
    fn traced_runs_report_the_layer_schema() {
        let commit = run::<ici_commit::IciCommit>(&small_ici(), crate::DEFAULT_SEED, true);
        let names: Vec<String> = commit.metrics.iter().map(|m| m.name.clone()).collect();
        let expected: Vec<String> = schema().into_iter().map(|(n, ..)| n).collect();
        assert_eq!(names, expected);
        let get = |o: &Outcome, k: &str| o.metrics.get(k).expect(k);
        assert!(get(&commit, "consensus.vote_round.calls_per_op") > 0.0);
        assert!(get(&commit, "core.stage_verify.calls_per_op") == 1.0);
        assert!(get(&commit, "cluster.balanced_kmeans.setup_ms") > 0.0);
        assert!(get(&commit, "telemetry.overhead_ratio") > 0.0);
        assert_eq!(get(&commit, "chain.take_for_block_ms"), 0.0);

        let scale = scale_ingest::Params {
            accounts: 5_000,
            base_txs: 20,
            burst_every: 4,
        };
        let ingest = run::<scale_ingest::ScaleIngest>(&scale, crate::DEFAULT_SEED, true);
        assert!(get(&ingest, "chain.validate_in_place_ms") > 0.0);
        assert!(get(&ingest, "chain.block_validate.calls_per_op") == 1.0);
        assert_eq!(get(&ingest, "consensus.vote_round.calls_per_op"), 0.0);
        assert_eq!(get(&ingest, "net.msgs_per_op.vote"), 0.0);
    }
}
