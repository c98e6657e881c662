//! Pipeline determinism: overlapping heights across the staged block
//! lifecycle must never change a byte of what the experiments report.
//! The pipeline keeps [`ici_par::pipeline_depth`] heights in flight,
//! which is the thread count, so one thread is the sequential reference
//! path and wider pools overlap heights.
//!
//! These are the end-to-end guarantees behind the CI thread matrix:
//! every stage draws only from forks seeded at build time, heights
//! commit strictly in order, and stage trace/telemetry deltas merge at
//! the commit sync point in fixed order. The stage-boundary fault case
//! additionally proves that a crash landing *between* lifecycle stages
//! replays byte-identically (the staged path re-syncs fork liveness at
//! each boundary from one authoritative network).

use ici_faults::plan::ChurnConfig;
use ici_sim::{run, ExperimentRecord, FaultProfile, RunSpec, StageChurn, Table};
use icistrategy::prelude::*;

/// Thread counts pinned: the sequential reference path first, then
/// depths 2 and 4.
const THREADS: [usize; 3] = [1, 2, 4];

/// Runs `f` at every thread count, tagging each result, and restores
/// the serial pool afterwards.
fn under_threads<T>(f: impl Fn() -> T) -> Vec<(usize, T)> {
    let results = THREADS
        .iter()
        .map(|&threads| {
            ici_par::set_threads(threads);
            (threads, f())
        })
        .collect();
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
fn pipelined_record_json_is_identical_across_thread_counts() {
    let runs = under_threads(|| {
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
        ExperimentRecord::new("EPIPE", "pipeline determinism", "N=24 c=8 r=2", &[&table]).to_json()
    });
    let reference = runs[0].1.clone();
    for (threads, json) in &runs {
        assert_eq!(
            *json, reference,
            "record JSON diverged at {threads} threads"
        );
    }
}

#[test]
fn pipelined_trace_and_round_series_are_identical_across_thread_counts() {
    let runs = under_threads(|| {
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
    for (threads, (canonical, chrome, series)) in &runs {
        let at = format!("{threads} threads");
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
    let runs = under_threads(|| {
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
    for (threads, summary) in &runs {
        assert_eq!(
            *summary, reference,
            "fault replay diverged at {threads} threads"
        );
    }
}
