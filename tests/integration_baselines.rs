//! Cross-strategy integration tests: ICIStrategy vs the baselines on the
//! same workload, asserting the *shape* of the paper's claims.

use icistrategy::net::link::LinkModel;
use icistrategy::prelude::*;

fn quiet_link() -> LinkModel {
    LinkModel {
        max_jitter_ms: 0.0,
        ..LinkModel::default()
    }
}

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 128,
        seed,
        ..WorkloadConfig::default()
    }
}

#[test]
fn storage_ordering_ici_below_rapidchain_below_full() {
    let n = 128;
    // Large payloads so bodies dominate headers — the regime where the
    // k·r/c ratio law is exact (see ici-baselines analytic tests for the
    // header-dominated edge case).
    let workload = |seed| WorkloadConfig {
        accounts: 128,
        payload: icistrategy::workload::PayloadSize::Fixed(2_000),
        seed,
        ..WorkloadConfig::default()
    };
    let (_, full) = run(
        FullConfig {
            nodes: n,
            link: quiet_link(),
            seed: 2,
            ..FullConfig::default()
        },
        RunSpec::new(8, 20, workload(2)),
    )
    .expect("run commits");
    let (_, rapid) = run(
        RapidChainConfig {
            nodes: n,
            committee_size: 32, // 4 shards
            link: quiet_link(),
            seed: 2,
            ..RapidChainConfig::default()
        },
        RunSpec::new(2, 20, workload(2)),
    )
    .expect("run commits");
    let (_, ici) = run(
        IciConfig::builder()
            .nodes(n)
            .cluster_size(32)
            .replication(2)
            .link(quiet_link())
            .seed(2)
            .build()
            .expect("valid configuration"),
        RunSpec::new(8, 20, workload(2)),
    )
    .expect("run commits");

    // Fractions of each system's own ledger: full = 1, rapid = 1/k,
    // ici ≈ r/c (+ headers).
    assert!((full.storage_fraction() - 1.0).abs() < 1e-9);
    assert!(rapid.storage_fraction() < 0.51);
    assert!(ici.storage_fraction() < rapid.storage_fraction());

    // The abstract's parameter regime: k·r/c of RapidChain's footprint.
    let ratio = ici.storage_fraction() / rapid.storage_fraction();
    let expected = 4.0 * 2.0 / 32.0; // k=4, r=2, c=32 ⇒ 0.25
    assert!(
        (ratio - expected).abs() < 0.1,
        "measured ratio {ratio:.3}, expected ≈{expected}"
    );
}

#[test]
fn communication_per_block_ici_below_full_replication() {
    let n = 96;
    let (_, full) = run(
        FullConfig {
            nodes: n,
            link: quiet_link(),
            seed: 3,
            ..FullConfig::default()
        },
        RunSpec::new(6, 20, workload(3)),
    )
    .expect("run commits");
    let (_, ici) = run(
        IciConfig::builder()
            .nodes(n)
            .cluster_size(16)
            .replication(2)
            .link(quiet_link())
            .seed(3)
            .build()
            .expect("valid configuration"),
        RunSpec::new(6, 20, workload(3)),
    )
    .expect("run commits");
    assert!(
        ici.mean_block_bytes < full.mean_block_bytes / 2.0,
        "ici {} vs full {}",
        ici.mean_block_bytes,
        full.mean_block_bytes
    );
}

#[test]
fn bootstrap_ordering_matches_the_abstract() {
    let n = 96;
    let blocks = 20;
    let (mut full_net, _) = run(
        FullConfig {
            nodes: n,
            link: quiet_link(),
            seed: 4,
            ..FullConfig::default()
        },
        RunSpec::new(blocks, 20, workload(4)),
    )
    .expect("run commits");
    let (full_bytes, _) = full_net.bootstrap_cost();

    let (mut rapid_net, _) = run(
        RapidChainConfig {
            nodes: n,
            committee_size: 24, // 4 shards
            link: quiet_link(),
            seed: 4,
            ..RapidChainConfig::default()
        },
        RunSpec::new(blocks / 4, 20, workload(4)),
    )
    .expect("run commits");
    let (rapid_bytes, _) = rapid_net.bootstrap_cost(0);

    let (mut ici_net, _) = run(
        IciConfig::builder()
            .nodes(n)
            .cluster_size(24)
            .replication(2)
            .link(quiet_link())
            .seed(4)
            .build()
            .expect("valid configuration"),
        RunSpec::new(blocks, 20, workload(4)),
    )
    .expect("run commits");
    let join = ici_net
        .bootstrap_node(Coord::new(10.0, 10.0), JoinPolicy::SmallestCluster)
        .expect("join succeeds");

    assert!(
        join.total_bytes() < rapid_bytes && rapid_bytes < full_bytes,
        "ici {} rapid {} full {}",
        join.total_bytes(),
        rapid_bytes,
        full_bytes
    );
}

#[test]
fn all_strategies_commit_the_same_transactions() {
    // Same workload seed ⇒ the same transaction stream enters each
    // system; each must commit all of them.
    let txs = 18;
    let blocks = 5;
    let (_, full) = run(
        FullConfig {
            nodes: 48,
            link: quiet_link(),
            seed: 6,
            ..FullConfig::default()
        },
        RunSpec::new(blocks, txs, workload(6)),
    )
    .expect("run commits");
    let (_, ici) = run(
        IciConfig::builder()
            .nodes(48)
            .cluster_size(12)
            .replication(2)
            .link(quiet_link())
            .seed(6)
            .build()
            .expect("valid configuration"),
        RunSpec::new(blocks, txs, workload(6)),
    )
    .expect("run commits");
    assert_eq!(full.total_txs, (blocks * txs) as u64);
    assert_eq!(ici.total_txs, (blocks * txs) as u64);
}

#[test]
fn rapidchain_parallelism_shows_in_throughput() {
    // More shards at the same committee size ⇒ more parallel commits ⇒
    // higher aggregate tps.
    let tps = |nodes: usize| {
        let (_, summary) = run(
            RapidChainConfig {
                nodes,
                committee_size: 24,
                link: quiet_link(),
                seed: 7,
                ..RapidChainConfig::default()
            },
            RunSpec::new(3, 20, workload(7)),
        )
        .expect("run commits");
        summary.throughput_tps
    };
    let two_shards = tps(48);
    let eight_shards = tps(192);
    assert!(
        eight_shards > two_shards * 2.0,
        "8 shards {eight_shards} vs 2 shards {two_shards}"
    );
}
