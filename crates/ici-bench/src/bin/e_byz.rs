//! **E-byz (reconstructed) — survivability under Byzantine actors.**
//!
//! Drives ICIStrategy and both baselines (full replication, RapidChain
//! committees) through the *same* seed-deterministic fault schedule of
//! crash churn plus Byzantine action — equivocating proposers and
//! false-verdict verifiers — and compares how each strategy detects and
//! pays for it:
//!
//! * **detection** — what fraction of equivocation attempts were
//!   exposed by cross-audience exchange, and how many lying verifiers
//!   were named by honest re-verification;
//! * **safety hazard** — equivocations that went undetected because one
//!   audience half held no honest live witness (no strategy commits a
//!   twin, but an undetected split is a real hazard and is counted);
//! * **waste** — bytes spent disseminating blocks that Byzantine action
//!   then killed, as a fraction of all traffic.
//!
//! The same `--seed` produces a byte-identical `results/e_byz.json`
//! (telemetry off); CI runs it twice and under 1 and 4 worker threads
//! and diffs the files.
//!
//! Run: `cargo run --release -p ici-bench --bin e_byz [--paper] [--seed N]`

use ici_baselines::full::FullConfig;
use ici_baselines::rapidchain::RapidChainConfig;
use ici_bench::{emit, quiet_link, standard_workload, Scale};
use ici_core::config::IciConfig;
use ici_faults::plan::{ByzantineConfig, ChurnConfig};
use ici_sim::table::Table;
use ici_sim::{run, FaultProfile, FaultSummary, RunSpec, RunSummary};
use ici_storage::stats::format_bytes;

/// Parses `--seed N` from the process arguments (default 42).
fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// The shared adversary: every strategy faces this schedule shape.
fn byz_profile(seed: u64, min_live: usize) -> FaultProfile {
    FaultProfile {
        seed,
        churn: ChurnConfig {
            crash_prob: 0.03,
            restart_prob: 0.5,
            cluster_churn_prob: 0.0,
            cluster_churn_fraction: 0.0,
            min_live_per_cluster: min_live,
            ensure_cycle_per_cluster: false,
        },
        byzantine: ByzantineConfig {
            equivocation_prob: 0.25,
            false_verdict_fraction: 0.2,
            flip_prob: 0.3,
            withhold_prob: 0.1,
        },
        ..FaultProfile::default()
    }
}

fn main() {
    let scale = Scale::from_args();
    let seed = seed_from_args();
    let (nodes, cluster_size, rounds, min_live) = match scale {
        Scale::Small => (48usize, 12usize, 16usize, 6usize),
        Scale::Paper => (256, 16, 24, 8),
    };
    let txs_per_block = 30;

    let spec = RunSpec {
        faults: Some(byz_profile(seed, min_live)),
        ..RunSpec::new(rounds, txs_per_block, standard_workload(seed))
    };
    let ici_config = IciConfig::builder()
        .nodes(nodes)
        .cluster_size(cluster_size)
        .replication(2)
        .link(quiet_link())
        .seed(seed)
        .build()
        .expect("valid configuration");
    let (_, ici) = run(ici_config, spec).expect("fault plan builds over the formed clusters");
    let full_config = FullConfig {
        nodes,
        link: quiet_link(),
        seed,
        ..FullConfig::default()
    };
    let (_, full) = run(full_config, spec).expect("fault plan builds over the node set");
    let rc_config = RapidChainConfig {
        nodes,
        committee_size: cluster_size,
        link: quiet_link(),
        seed,
        ..RapidChainConfig::default()
    };
    let (_, rapidchain) = run(rc_config, spec).expect("fault plan builds over the committees");

    let runs = [&ici, &full, &rapidchain];
    let sections = |s: &RunSummary| s.faults.clone().expect("faulted run");
    let mut comparison = Table::new(
        format!("E-byz: Byzantine survivability, N={nodes}, c={cluster_size}, seed={seed}"),
        ["metric", "ici", "full", "rapidchain"],
    );
    type Metric<'a> = (&'a str, &'a dyn Fn(&RunSummary, &FaultSummary) -> String);
    let metrics: [Metric; 16] = [
        ("committed blocks", &|s, _| s.committed_blocks.to_string()),
        ("skipped rounds", &|_, c| c.skipped_rounds.to_string()),
        ("rounds lost to Byzantine action", &|_, c| {
            c.byz_skipped_rounds.to_string()
        }),
        ("equivocation attempts", &|_, c| {
            c.equivocation_attempts.to_string()
        }),
        ("equivocations detected", &|_, c| {
            c.equivocations_detected.to_string()
        }),
        ("equivocation detection rate", &|_, c| {
            format!("{:.1}%", c.equivocation_detection_rate() * 100.0)
        }),
        ("undetected equivocations (hazard)", &|_, c| {
            c.safety_breaches.to_string()
        }),
        ("verdict flips", &|_, c| c.verdict_flips.to_string()),
        ("verdict withholds", &|_, c| c.verdict_withholds.to_string()),
        ("lying verifiers named", &|_, c| {
            c.liars_detected.to_string()
        }),
        ("liar detection rate", &|_, c| {
            format!("{:.1}%", c.liar_detection_rate() * 100.0)
        }),
        ("wasted bytes (killed blocks)", &|_, c| {
            format_bytes(c.wasted_bytes)
        }),
        ("total bytes", &|_, c| format_bytes(c.total_bytes)),
        ("wasted fraction", &|_, c| {
            format!("{:.2}%", c.wasted_fraction() * 100.0)
        }),
        ("min live nodes", &|_, c| c.min_live_nodes.to_string()),
        ("fault schedule fingerprint", &|_, c| {
            format!("{:016x}", c.plan_fingerprint)
        }),
    ];
    for (metric, cell) in metrics {
        let cells = runs.iter().map(|s| cell(s, &sections(s)));
        comparison.row(std::iter::once(metric.to_string()).chain(cells));
    }

    let byz = sections(&ici);
    let mut detail = Table::new(
        "E-byz: ICI detection detail".to_string(),
        ["metric", "value"],
    );
    detail
        .row(["clusters".to_string(), byz.groups.to_string()])
        .row([
            "remote cluster verdicts missed".to_string(),
            byz.byz_missed_cluster_verdicts.to_string(),
        ])
        .row([
            "recovery success rate".to_string(),
            format!("{:.1}%", byz.recovery_success_rate() * 100.0),
        ])
        .row([
            "final Merkle audit".to_string(),
            if byz.final_audit_clean {
                "clean".to_string()
            } else {
                "FAILED".to_string()
            },
        ]);

    // Acceptance gates. The adversary must actually show up, ICI must
    // expose every equivocation (honest witnesses in both audience
    // halves at this scale) without a single undetected split, name
    // every lying verifier, and still finish with clean storage.
    for s in runs {
        assert!(
            sections(s).equivocation_attempts > 0,
            "vacuous run: `{}` saw no equivocation attempts",
            s.strategy
        );
    }
    assert!(
        (byz.equivocation_detection_rate() - 1.0).abs() < f64::EPSILON,
        "ICI missed an equivocation: {ici:?}"
    );
    assert_eq!(byz.safety_breaches, 0, "undetected equivocation: {ici:?}");
    assert!(
        (byz.liar_detection_rate() - 1.0).abs() < f64::EPSILON,
        "ICI failed to name a lying verifier: {ici:?}"
    );
    assert!(byz.final_audit_clean, "final Merkle audit failed");
    assert!(
        ici.committed_blocks > 0,
        "Byzantine schedule starved the chain entirely"
    );

    emit(
        "E_byz",
        "Reconstructed: survivability under Byzantine proposers and verifiers",
        &format!(
            "scale={scale:?}, N={nodes}, c={cluster_size}, r=2, rounds={rounds}, seed={seed}, \
             equiv=0.25, byz_frac=0.2, flip=0.3, withhold=0.1, plan={:016x}",
            byz.plan_fingerprint
        ),
        &[&comparison, &detail],
    );
}
