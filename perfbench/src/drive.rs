//! Runs one workload: set-up, timed phases, window, checks, metrics.

use std::time::{Duration, Instant};

use ici_telemetry::TelemetrySnapshot;

use crate::layers::{self, all_self_ns, span_metric, span_sum, SETUP_SPANS, SPANS, STAGE_SPANS};
use crate::report::Metrics;
use crate::stats::{median, OpLog, LATENCY_SLICE, RATE_SLICE};
use crate::workloads::{Timings, Values, Workload};

/// The twelve end-to-end metrics: name, unit, better direction, and
/// whether the benchmark gates it (the gated ones apply to every
/// workload and are never 0).
pub const END_TO_END: [(&str, &str, &str, bool); 12] = [
    ("ops_per_s", "op/s", "higher", true),
    ("op_p50_ms", "ms", "lower", true),
    ("op_p95_ms", "ms", "lower", true),
    ("txs_per_s", "tx/s", "higher", false),
    ("setup_s", "s", "lower", true),
    ("peak_heap_mb", "MiB", "lower", true),
    ("failed_ops_ratio", "ratio", "lower", false),
    ("sim_latency_p50_ms", "sim-ms", "lower", false),
    ("sim_tps", "tx/sim-s", "higher", false),
    ("storage_fraction", "ratio", "lower", false),
    ("msgs_per_op", "msg/op", "lower", false),
    ("bytes_per_op", "B/op", "lower", false),
];

/// How much to run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Seconds of ops to measure (split in two halves when traced).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Ops in the deterministic window (a multiple of the step size).
    pub window_ops: usize,
    /// Fewest ops an untraced run measures, so `op_p95_ms` has at least
    /// ten samples beyond it.
    pub min_ops: usize,
    /// Fewest ops the traced half measures.
    pub traced_min_ops: usize,
    /// Fewest set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Untraced runs keep setting up, up to `max_setup_reps`, until
    /// this many seconds went into set-up, so a fast set-up is timed
    /// over enough repetitions to be steady.
    pub setup_budget_s: f64,
    /// Most set-ups per untraced run.
    pub max_setup_reps: usize,
}

impl Plan {
    /// The benchmark's plan for a run of `seconds`.
    pub fn new(seconds: f64, trace: bool) -> Plan {
        Plan {
            seconds,
            trace,
            window_ops: 200,
            min_ops: 200,
            traced_min_ops: 100,
            setup_reps: 3,
            setup_budget_s: 1.0,
            max_setup_reps: 25,
        }
    }
}

/// What a run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ops attempted over every timed phase.
    pub attempted: usize,
    /// Ops that failed.
    pub failed: usize,
    /// Why the run failed a check, if it did.
    pub failure: Option<String>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Metrics,
}

/// Where the run stands across its phases.
struct Progress {
    ops: usize,
    window: Option<Values>,
    peak_live_bytes: u64,
}

/// Runs ops until `budget` has passed and at least `min_ops` ran,
/// closing the deterministic window when its last op completes.
fn phase<W: Workload>(
    w: &mut W,
    plan: &Plan,
    progress: &mut Progress,
    budget: Duration,
    min_ops: usize,
    log: &mut OpLog,
    timings: &mut Timings,
) -> Result<(), String> {
    let start = Instant::now();
    while log.attempted() < min_ops || start.elapsed() < budget {
        w.step(log, timings)?;
        progress.ops += w.step_ops();
        if progress.window.is_none() && progress.ops >= plan.window_ops {
            if progress.ops != plan.window_ops {
                return Err("the window does not end on a step boundary".into());
            }
            progress.window = Some(w.window(plan.window_ops)?);
            progress.peak_live_bytes = ici_bench::alloc::stats().peak_live_bytes;
        }
    }
    Ok(())
}

/// Runs workload `W` with `params` from `seed` under `plan`.
pub fn drive<W: Workload>(params: &W::Params, seed: u64, plan: &Plan) -> Outcome {
    let mut untraced = OpLog::default();
    let mut traced = OpLog::default();
    let result = run::<W>(params, seed, plan, &mut untraced, &mut traced);
    let attempted = untraced.attempted() + traced.attempted();
    let failed = untraced.failed() + traced.failed();
    match result {
        Ok(metrics) if failed == 0 => Outcome {
            attempted,
            failed,
            failure: None,
            metrics,
        },
        Ok(_) => Outcome {
            attempted,
            failed,
            failure: Some(format!("{failed} ops failed")),
            ..Outcome::default()
        },
        Err(e) => Outcome {
            attempted,
            failed,
            failure: Some(e),
            ..Outcome::default()
        },
    }
}

fn run<W: Workload>(
    params: &W::Params,
    seed: u64,
    plan: &Plan,
    untraced: &mut OpLog,
    traced: &mut OpLog,
) -> Result<Metrics, String> {
    // Set-up. A traced run traces its single set-up for the set-up
    // spans; an untraced run sets up several times and reports the
    // median, keeping only the last system alive.
    let (min_reps, max_reps) = if plan.trace {
        (1, 1)
    } else {
        (
            plan.setup_reps.max(1),
            plan.max_setup_reps.max(plan.setup_reps),
        )
    };
    tracing(plan.trace);
    let mut setup_s = Vec::new();
    let mut setup_values = Values::new();
    let mut workload = None;
    while setup_s.len() < min_reps
        || (setup_s.len() < max_reps && setup_s.iter().sum::<f64>() < plan.setup_budget_s)
    {
        drop(workload.take());
        setup_values.clear();
        let start = Instant::now();
        workload = Some(W::setup(params, seed, &mut setup_values)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = workload.ok_or("no set-up ran")?;
    let setup_snapshot = ici_telemetry::snapshot();
    tracing(false);

    let mut progress = Progress {
        ops: 0,
        window: None,
        peak_live_bytes: 0,
    };
    let mut timings = Timings::default();
    if plan.trace {
        let half = Duration::from_secs_f64(plan.seconds / 2.0);
        phase(
            &mut w,
            plan,
            &mut progress,
            half,
            plan.window_ops,
            untraced,
            &mut Timings::default(),
        )?;
        tracing(true);
        let result = phase(
            &mut w,
            plan,
            &mut progress,
            half,
            plan.traced_min_ops,
            traced,
            &mut timings,
        );
        let snapshot = ici_telemetry::snapshot();
        tracing(false);
        result?;
        w.finish()?;
        let window = progress.window.ok_or("the window never closed")?;
        let (ops, busy_ms) = (traced.attempted() as f64, traced.busy_s() * 1_000.0);
        let mut values = layer_values(ops, &window, &setup_values, &setup_snapshot, &snapshot);
        values.insert(
            "telemetry.overhead_ratio".into(),
            traced.ops_per_s() / untraced.ops_per_s(),
        );
        let stage_ns: u64 = STAGE_SPANS.iter().map(|s| span_sum(&snapshot, s).2).sum();
        values.insert(
            "par.pipeline_overlap_ratio".into(),
            stage_ns as f64 / 1e6 / busy_ms,
        );
        let attributed_ms = if W::TIMES_CALLS {
            timings.total()
        } else {
            all_self_ns(&snapshot) as f64 / 1e6
        };
        values.insert(layers::UNATTRIBUTED.into(), (busy_ms - attributed_ms) / ops);
        w.layer_timings(&timings, traced.attempted(), &mut values);
        return layers::complete(values);
    }

    let budget = Duration::from_secs_f64(plan.seconds);
    let min_ops = plan.min_ops.max(plan.window_ops);
    phase(
        &mut w,
        plan,
        &mut progress,
        budget,
        min_ops,
        untraced,
        &mut timings,
    )?;
    w.finish()?;
    let window = progress.window.ok_or("the window never closed")?;
    let log = &*untraced;
    let p50 = log.sliced_percentile_ms(LATENCY_SLICE, 50.0);
    let p95 = log.sliced_percentile_ms(LATENCY_SLICE, 95.0);
    let rate = log.sliced_ops_per_s(RATE_SLICE);
    let too_few = || format!("{} ops are too few for the latency slices", log.attempted());
    let measured = [
        ("ops_per_s", Some(rate.ok_or_else(too_few)?)),
        ("op_p50_ms", Some(p50.ok_or_else(too_few)?)),
        ("op_p95_ms", Some(p95.ok_or_else(too_few)?)),
        ("txs_per_s", W::COMMITS_TXS.then(|| log.txs_per_s())),
        ("setup_s", median(&setup_s)),
        (
            "peak_heap_mb",
            Some(progress.peak_live_bytes as f64 / (1u64 << 20) as f64),
        ),
        ("failed_ops_ratio", Some(log.failed_ratio())),
    ];
    let mut metrics = Metrics::default();
    for (name, unit, ..) in END_TO_END {
        let value = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(|| window.get(name).copied(), |(_, v)| *v);
        if let Some(value) = value {
            metrics.push(name, value, unit)?;
        }
    }
    Ok(metrics)
}

/// Turns telemetry on (fresh) or off.
fn tracing(on: bool) {
    if on {
        ici_telemetry::reset();
    }
    ici_telemetry::set_enabled(on);
}

/// Per-layer values of a traced run over `ops` traced ops: span
/// aggregates per op, set-up spans and timings, and the window's layer
/// counters (its end-to-end values belong to untraced runs).
fn layer_values(
    ops: f64,
    window: &Values,
    setup_values: &Values,
    setup_snapshot: &TelemetrySnapshot,
    snapshot: &TelemetrySnapshot,
) -> Values {
    let mut out = Values::new();
    for span in SPANS {
        let (calls, self_ns, _) = span_sum(snapshot, span);
        let base = span_metric(span);
        out.insert(format!("{base}.self_ms_per_op"), self_ns as f64 / 1e6 / ops);
        out.insert(format!("{base}.calls_per_op"), calls as f64 / ops);
    }
    for span in SETUP_SPANS {
        let total_ns = span_sum(setup_snapshot, span).2;
        out.insert(
            format!("{}.setup_ms", span_metric(span)),
            total_ns as f64 / 1e6,
        );
    }
    out.extend(setup_values.iter().map(|(k, v)| (k.clone(), *v)));
    let end_to_end = |name: &str| END_TO_END.iter().any(|(n, ..)| *n == name);
    out.extend(
        window
            .iter()
            .filter(|(k, _)| !end_to_end(k))
            .map(|(k, v)| (k.clone(), *v)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpLog;

    /// A workload that fails op `fail_at` (1-based), or its final check
    /// when `fail_at` is 0.
    struct Flaky {
        ops: usize,
        fail_at: usize,
    }

    impl Workload for Flaky {
        type Params = usize;
        const COMMITS_TXS: bool = true;
        const TIMES_CALLS: bool = true;

        fn setup(fail_at: &usize, _: u64, _: &mut Values) -> Result<Flaky, String> {
            Ok(Flaky {
                ops: 0,
                fail_at: *fail_at,
            })
        }

        fn step_ops(&self) -> usize {
            1
        }

        fn step(&mut self, log: &mut OpLog, _: &mut Timings) -> Result<(), String> {
            self.ops += 1;
            if self.ops == self.fail_at {
                log.fail(1.0);
                return Err(format!("op {} failed", self.ops));
            }
            log.ok(1.0, 2);
            Ok(())
        }

        fn window(&mut self, ops: usize) -> Result<Values, String> {
            Ok(Values::from([("msgs_per_op".to_string(), ops as f64)]))
        }

        fn layer_timings(&self, _: &Timings, _: usize, _: &mut Values) {}

        fn finish(&mut self) -> Result<(), String> {
            match self.fail_at {
                0 => Err("final check failed".into()),
                _ => Ok(()),
            }
        }
    }

    fn quick() -> Plan {
        Plan {
            seconds: 0.0,
            trace: false,
            window_ops: 20,
            min_ops: 200,
            traced_min_ops: 10,
            setup_reps: 2,
            setup_budget_s: 0.0,
            max_setup_reps: 2,
        }
    }

    #[test]
    fn a_failed_op_fails_the_run_and_is_counted() {
        let outcome = drive::<Flaky>(&150, 1, &quick());
        assert_eq!(outcome.attempted, 150);
        assert_eq!(outcome.failed, 1);
        assert_eq!(outcome.failure.as_deref(), Some("op 150 failed"));
        assert!(
            outcome.metrics.iter().next().is_none(),
            "no numbers on failure"
        );
    }

    #[test]
    fn a_failed_final_check_fails_the_run() {
        let outcome = drive::<Flaky>(&0, 1, &quick());
        assert_eq!(outcome.attempted, 200);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.failure.as_deref(), Some("final check failed"));
    }

    #[test]
    fn a_clean_run_reports_every_applicable_metric() {
        let outcome = drive::<Flaky>(&usize::MAX, 1, &quick());
        assert_eq!(outcome.failure, None);
        assert_eq!(outcome.attempted, 200);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ops_per_s",
                "op_p50_ms",
                "op_p95_ms",
                "txs_per_s",
                "setup_s",
                "peak_heap_mb",
                "failed_ops_ratio",
                "msgs_per_op"
            ]
        );
        assert_eq!(outcome.metrics.get("failed_ops_ratio"), Some(0.0));
        // The window closed after op 20, not at the end of the run.
        assert_eq!(outcome.metrics.get("msgs_per_op"), Some(20.0));
    }

    /// `BENCHMARK.json` gates exactly the gated end-to-end metrics.
    #[test]
    fn benchmark_json_lists_the_gated_metrics() {
        let gated: Vec<(String, String, String)> = END_TO_END
            .iter()
            .filter(|m| m.3)
            .map(|&(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(
            crate::layers::tests::benchmark_json_section("end_to_end"),
            gated
        );
    }
}
