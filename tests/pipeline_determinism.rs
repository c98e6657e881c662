//! Pipeline-depth invariance: overlapping heights across the staged
//! block lifecycle (`ICI_PIPELINE_DEPTH`) must never change a byte of
//! what the experiments report — at any depth, on a serial or a wide
//! `ici-par` pool.
//!
//! These are the end-to-end guarantees behind the CI depth×threads
//! matrix: the depth-1 sequential path is the reference implementation,
//! every stage draws only from forks seeded at build time, heights
//! commit strictly in order, and stage trace/telemetry deltas merge at
//! the commit sync point in fixed order. The stage-boundary fault case
//! additionally proves that a crash landing *between* lifecycle stages
//! replays byte-identically (the staged path re-syncs fork liveness at
//! each boundary from one authoritative network).

use ici_faults::plan::ChurnConfig;
use ici_sim::{run, ExperimentRecord, FaultProfile, RunSpec, StageChurn, Table};
use icistrategy::prelude::*;

/// The depth × thread matrix CI pins: the sequential reference `(1, 1)`
/// plus overlapped heights on serial and wide pools.
const MATRIX: [(usize, usize); 6] = [(1, 1), (1, 4), (2, 1), (2, 4), (4, 1), (4, 4)];

/// Runs `f` at every matrix point, tagging each result, and restores
/// the defaults afterwards.
fn under_matrix<T>(f: impl Fn() -> T) -> Vec<((usize, usize), T)> {
    let results = MATRIX
        .iter()
        .map(|&(depth, threads)| {
            ici_par::set_pipeline_depth(depth);
            ici_par::set_threads(threads);
            ((depth, threads), f())
        })
        .collect();
    ici_par::set_pipeline_depth(0);
    ici_par::set_threads(1);
    results
}

/// Jittery default link: arrival times go through the forked sequence
/// streams, so the full lifecycle determinism story is on the line.
fn config(seed: u64) -> IciConfig {
    IciConfig::builder()
        .nodes(24)
        .cluster_size(8)
        .replication(2)
        .seed(seed)
        .build()
        .expect("valid")
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        accounts: 32,
        ..WorkloadConfig::default()
    }
}

#[test]
fn experiment_record_json_is_identical_across_depth_and_threads() {
    let runs = under_matrix(|| {
        let (_, summary) = run(config(5), RunSpec::new(4, 5, workload())).expect("run commits");
        let mut table = Table::new("pipeline determinism probe", ["metric", "value"]);
        table.row([
            "mean storage bytes".to_string(),
            format!("{:.3}", summary.storage.mean),
        ]);
        table.row([
            "mean block bytes".to_string(),
            format!("{:.3}", summary.mean_block_bytes),
        ]);
        table.row([
            "final clock ms".to_string(),
            format!("{:.6}", summary.final_clock_ms),
        ]);
        ExperimentRecord::new(
            "EPIPE",
            "pipeline-depth determinism",
            "N=24 c=8 r=2",
            &[&table],
        )
        .to_json()
    });
    let reference = runs[0].1.clone();
    for ((depth, threads), json) in &runs {
        assert_eq!(
            *json, reference,
            "record JSON diverged at depth {depth} × threads {threads}"
        );
    }
}

#[test]
fn trace_export_and_round_series_are_identical_across_depth_and_threads() {
    let runs = under_matrix(|| {
        ici_trace::set_enabled(true);
        ici_trace::reset();
        ici_telemetry::set_enabled(true);
        let _ = ici_telemetry::drain_delta();
        let _ = ici_trace::series::drain();
        let _ = run(config(5), RunSpec::new(3, 5, workload())).expect("run commits");
        let snap = ici_trace::snapshot();
        let series = ici_trace::series::drain();
        let _ = ici_telemetry::drain_delta();
        ici_trace::set_enabled(false);
        ici_trace::reset();
        ici_telemetry::set_enabled(false);
        (
            ici_trace::export::canonical_json("EPIPE", &snap),
            ici_trace::export::chrome_json(&snap),
            ici_trace::series::render_json(&series, ""),
        )
    });
    let reference = runs[0].1.clone();
    assert!(
        reference.0.contains("\"kind\": \"stage\""),
        "trace captured no lifecycle stages"
    );
    assert!(
        reference.2.contains("\"samples\""),
        "run registered no per-round series"
    );
    for ((depth, threads), (canonical, chrome, series)) in &runs {
        let at = format!("depth {depth} × threads {threads}");
        assert_eq!(
            *canonical, reference.0,
            "canonical event log diverged at {at}"
        );
        assert_eq!(*chrome, reference.1, "chrome trace diverged at {at}");
        assert_eq!(*series, reference.2, "round series diverged at {at}");
    }
}

#[test]
fn stage_boundary_fault_plan_replays_byte_identically() {
    let profile = FaultProfile {
        seed: 11,
        churn: ChurnConfig {
            crash_prob: 0.08,
            restart_prob: 0.4,
            min_live_per_cluster: 3,
            ..ChurnConfig::default()
        },
        stage_churn: StageChurn { interval: 2 },
        ..FaultProfile::default()
    };
    let runs = under_matrix(|| {
        let spec = RunSpec {
            faults: Some(profile),
            ..RunSpec::new(10, 4, workload())
        };
        let (_, summary) = run(config(7), spec).expect("plan builds");
        summary
    });
    let reference = runs[0].1.clone();
    let faults = reference.faults.as_ref().expect("faulted run");
    assert!(
        faults.stage_crash_events > 0,
        "stage churn never fired: {}",
        faults.plan_render
    );
    for ((depth, threads), summary) in &runs {
        assert_eq!(
            *summary, reference,
            "fault replay diverged at depth {depth} × threads {threads}"
        );
    }
}
