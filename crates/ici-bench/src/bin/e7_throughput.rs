//! **E7 / Table II — throughput and commit latency vs network size.**
//!
//! "Improve the blockchain performance": ICIStrategy commits with one
//! low-latency intra-cluster BFT round plus leader-relayed cluster
//! verification, against full-replication flood-and-validate-everywhere.
//! RapidChain trades per-shard latency for shard-parallel throughput, so
//! it leads on raw tps while losing on storage (E1) — the honest shape of
//! the comparison.
//!
//! Run: `cargo run --release -p ici-bench --bin e7_throughput [--paper]`

use ici_baselines::full::FullConfig;
use ici_baselines::rapidchain::RapidChainConfig;
use ici_bench::{
    block_count, cluster_size, committee_size, emit, network_sizes, quiet_link, standard_workload,
    txs_per_block, Scale,
};
use ici_core::config::IciConfig;
use ici_sim::table::{fmt_f64, Table};
use ici_sim::{run, RunSpec};

fn main() {
    let scale = Scale::from_args();
    let blocks = block_count(scale);
    let txs = txs_per_block(scale);
    let c = cluster_size(scale);
    let m = committee_size(scale);

    let mut table = Table::new(
        format!("E7: throughput and commit latency, {blocks} blocks x {txs} txs"),
        [
            "N",
            "strategy",
            "tps",
            "commit p50 (ms)",
            "commit p95 (ms)",
            "commit max (ms)",
        ],
    );

    for n in network_sizes(scale) {
        let workload = standard_workload(17);

        let (_, full) = run(
            FullConfig {
                nodes: n,
                link: quiet_link(),
                seed: 17,
                ..FullConfig::default()
            },
            RunSpec::new(blocks, txs, workload),
        )
        .expect("run commits");
        let shards = n.div_ceil(m);
        let (_, rapid) = run(
            RapidChainConfig {
                nodes: n,
                committee_size: m,
                link: quiet_link(),
                seed: 17,
                ..RapidChainConfig::default()
            },
            RunSpec::new((blocks / shards).max(1), txs, workload),
        )
        .expect("run commits");
        let (_, ici) = run(
            IciConfig::builder()
                .nodes(n)
                .cluster_size(c)
                .replication(2)
                .link(quiet_link())
                .seed(17)
                .build()
                .expect("valid configuration"),
            RunSpec::new(blocks, txs, workload),
        )
        .expect("run commits");

        for summary in [&full, &rapid, &ici] {
            table.row([
                n.to_string(),
                summary.strategy.clone(),
                fmt_f64(summary.throughput_tps),
                fmt_f64(summary.commit_latency.p50_ms),
                fmt_f64(summary.commit_latency.p95_ms),
                fmt_f64(summary.commit_latency.max_ms),
            ]);
        }
    }

    emit(
        "E7",
        "Throughput and commit latency vs network size (Table II)",
        &format!("scale={scale:?}, c={c}, committee={m}, blocks={blocks}, txs/block={txs}"),
        &[&table],
    );
}
