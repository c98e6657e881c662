//! Telemetry tour: profile a small ICIStrategy run end to end.
//!
//! Enables workspace telemetry, drives a short simulation, then walks the
//! captured data: the span tree across subsystems, the hottest spans by
//! self time, per-phase traffic counters, and a latency histogram.
//!
//! Run with: `cargo run --example telemetry_tour`

use icistrategy::prelude::*;
use icistrategy::telemetry;

fn main() {
    // Collection is off by default (and costs one atomic load per probe
    // while off). Experiment binaries enable it via `ICI_TELEMETRY=1`;
    // here we switch it on programmatically.
    telemetry::set_enabled(true);
    telemetry::reset();

    // A small run: 64 nodes in clusters of 16, 8 blocks of 20 txs.
    let config = IciConfig::builder()
        .nodes(64)
        .cluster_size(16)
        .replication(2)
        .seed(7)
        .build()
        .expect("valid configuration");
    let (_network, summary) =
        run(config, RunSpec::new(8, 20, WorkloadConfig::default())).expect("run commits");
    println!(
        "run: {} blocks, {} txs, {:.1} tps (sim clock)\n",
        summary.committed_blocks, summary.total_txs, summary.throughput_tps
    );

    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);

    // 1. Which subsystems did the run traverse?
    let subsystems: Vec<&str> = snap.span_subsystems().into_iter().collect();
    println!("subsystems traced: {}", subsystems.join(", "));

    // 2. The five hottest spans by self time (total minus children).
    println!("\ntop 5 spans by self time:");
    for s in snap.top_spans_by_self_time(5) {
        let label = if s.label.is_empty() {
            String::new()
        } else {
            format!(" [{}]", s.label)
        };
        println!(
            "  {:<28}{:<14} count={:<5} self={:>12} ns  total={:>12} ns",
            s.name, label, s.count, s.self_ns, s.total_ns
        );
    }

    // 3. Traffic counters, labelled by message class.
    println!("\nnet/bytes by message class:");
    for c in snap.counters.iter().filter(|c| c.name == "net/bytes") {
        println!("  {:<24} {:>12} B", c.label, c.value);
    }

    // 4. A latency histogram with percentiles.
    if let Some(h) = snap
        .histograms
        .iter()
        .find(|h| h.name == "core/commit_latency_sim_us")
    {
        println!(
            "\ncommit latency (sim µs): n={} p50={} p90={} p99={} max={}",
            h.count, h.p50, h.p90, h.p99, h.max
        );
    }

    // 5. The event ring keeps the most recent span instances as a tree.
    println!(
        "\nevent ring: {} events kept, {} dropped (capacity {})",
        snap.events.len(),
        snap.dropped_events,
        telemetry::EVENT_CAPACITY
    );
}
