//! The per-layer metric schema and the span aggregates it reads.
//!
//! Layers are the workspace crates. Span metrics come from the
//! aggregates `ici-telemetry` already records (read through
//! [`TelemetrySnapshot`]); every other layer metric is timed or counted
//! by the benchmark around its own calls into a crate. A traced run
//! reports every name in [`schema`], with 0 where a workload does not
//! reach that layer: those zeros are the "predicted flat" cells of the
//! prediction table in `README.md`.

use std::collections::BTreeMap;

use ici_net::metrics::MessageKind;
use ici_telemetry::TelemetrySnapshot;

use crate::report::Metrics;

/// Program spans reported per op as `<span>.self_ms_per_op` and
/// `<span>.calls_per_op` (the `/` of the span name becomes `.`).
pub const SPANS: [&str; 21] = [
    "consensus/vote_round",
    "consensus/pbft_round",
    "consensus/leader_elect",
    "consensus/ida_disseminate",
    "crypto/rs_encode",
    "crypto/rs_reconstruct",
    "crypto/merkle_build",
    "chain/block_build",
    "chain/block_validate",
    "chain/verify_tx_range",
    "core/stage_build",
    "core/stage_distribute",
    "core/stage_verify",
    "core/stage_commit",
    "core/collaborative_verify",
    "core/remote_commit",
    "core/bootstrap",
    "storage/assign_owners",
    "storage/plan_recovery",
    "cluster/kmeans",
    "cluster/balanced_kmeans",
];

/// Spans that run only while a network is built; reported as
/// `<span>.setup_ms` from the traced set-up.
pub const SETUP_SPANS: [&str; 2] = ["cluster/kmeans", "cluster/balanced_kmeans"];

/// The four lifecycle stages whose busy time over op wall time is the
/// pipeline overlap ratio.
pub const STAGE_SPANS: [&str; 4] = [
    "core/stage_build",
    "core/stage_distribute",
    "core/stage_verify",
    "core/stage_commit",
];

/// Layer metrics the benchmark times or counts itself: name, unit,
/// better direction.
const OWN: [(&str, &str, &str); 24] = [
    ("par.pipeline_overlap_ratio", "ratio", "higher"),
    ("core.network_new_s", "s", "lower"),
    ("baselines.network_new_s", "s", "lower"),
    ("chain.genesis_state_s", "s", "lower"),
    ("chain.mempool_insert_us_per_tx", "us/tx", "lower"),
    ("chain.take_for_block_ms", "ms", "lower"),
    ("chain.state_apply_us_per_tx", "us/tx", "lower"),
    ("chain.sharded_root_ms", "ms", "lower"),
    ("chain.block_seal_ms", "ms", "lower"),
    ("chain.validate_in_place_ms", "ms", "lower"),
    ("chain.prune_below_ms", "ms", "lower"),
    ("chain.admit_ratio", "ratio", "higher"),
    ("chain.evictions_per_op", "tx/op", "lower"),
    ("chain.skipped_per_op", "tx/op", "lower"),
    ("chain.touched_accounts_per_op", "acct/op", "lower"),
    ("chain.dirty_buckets_per_op", "bucket/op", "lower"),
    ("core.query_transaction_ms_p50", "ms", "lower"),
    ("core.query_body_ms_p50", "ms", "lower"),
    ("core.bootstrap_node_ms_p50", "ms", "lower"),
    ("core.repair_cluster_ms_p50", "ms", "lower"),
    ("core.query_intra_cluster_ratio", "ratio", "higher"),
    ("core.bootstrap_bytes_per_join", "B/join", "lower"),
    ("workload.gen_ms_per_op", "ms/op", "lower"),
    ("telemetry.overhead_ratio", "ratio", "higher"),
];

/// Op wall time the spans or outside timings do not explain.
pub const UNATTRIBUTED: &str = "unattributed_ms_per_op";

/// Metric name of a span: `consensus/vote_round` → `consensus.vote_round`.
pub fn span_metric(span: &str) -> String {
    span.replace('/', ".")
}

/// `net.msgs_per_op.<kind>` and `net.bytes_per_op.<kind>`.
pub fn net_metrics(kind: MessageKind) -> (String, String) {
    (
        format!("net.msgs_per_op.{}", kind.name()),
        format!("net.bytes_per_op.{}", kind.name()),
    )
}

/// Every per-layer metric a traced run reports, in report order:
/// `(name, unit, better)`.
pub fn schema() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for span in SPANS {
        let base = span_metric(span);
        out.push((format!("{base}.self_ms_per_op"), "ms/op", "lower"));
        out.push((format!("{base}.calls_per_op"), "call/op", "lower"));
    }
    for span in SETUP_SPANS {
        out.push((format!("{}.setup_ms", span_metric(span)), "ms", "lower"));
    }
    for kind in MessageKind::ALL {
        let (msgs, bytes) = net_metrics(kind);
        out.push((msgs, "msg/op", "lower"));
        out.push((bytes, "B/op", "lower"));
    }
    out.extend(OWN.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    out.push((UNATTRIBUTED.to_string(), "ms/op", "lower"));
    out
}

/// Orders `measured` by the schema, filling 0 for layers the workload
/// did not reach.
///
/// # Errors
///
/// A measured name that is not in the schema (a typo would otherwise
/// silently report 0).
pub fn complete(mut measured: BTreeMap<String, f64>) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    for (name, unit, _) in schema() {
        let value = measured.remove(&name).unwrap_or(0.0);
        out.push(&name, value, unit)?;
    }
    match measured.keys().next() {
        Some(extra) => Err(format!("layer metric {extra} is not in the schema")),
        None => Ok(out),
    }
}

/// Calls, self nanoseconds and total nanoseconds of `span`, summed over
/// its labels.
pub fn span_sum(snapshot: &TelemetrySnapshot, span: &str) -> (u64, u64, u64) {
    snapshot
        .spans
        .iter()
        .filter(|s| s.name == span)
        .fold((0, 0, 0), |(c, s, t), e| {
            (c + e.count, s + e.self_ns, t + e.total_ns)
        })
}

/// Self nanoseconds of every span in the snapshot, over every thread. On
/// one thread, self times partition its outermost spans; with spans on
/// several threads the sum can exceed the wall time they ran in.
pub fn all_self_ns(snapshot: &TelemetrySnapshot) -> u64 {
    snapshot.spans.iter().map(|s| s.self_ns).sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::report::valid_name;

    /// `(name, unit, better)` of each metric in `section` of the
    /// repository's `BENCHMARK.json` (one metric object per line).
    pub(crate) fn benchmark_json_section(section: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let body = text
            .split_once(&format!("\"{section}\""))
            .expect("section present")
            .1;
        let body = body.split_once(']').expect("section ends").0;
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let rest = entry.split_once(key).expect(key).1;
                    rest.split('"').nth(1).expect("quoted value").to_string()
                };
                let name = entry.split('"').next().expect("name").to_string();
                (name, field("\"unit\""), field("\"better\""))
            })
            .collect()
    }

    #[test]
    fn schema_names_are_valid_and_unique() {
        let schema = schema();
        let mut seen = std::collections::BTreeSet::new();
        for (name, _, better) in &schema {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} repeated");
            assert!(matches!(*better, "higher" | "lower"));
        }
        assert!(schema.len() <= 128);
    }

    #[test]
    fn complete_fills_zeros_and_rejects_unknown_names() {
        let mut measured = BTreeMap::new();
        measured.insert("consensus.vote_round.calls_per_op".to_string(), 3.0);
        let metrics = complete(measured).unwrap();
        assert_eq!(metrics.get("consensus.vote_round.calls_per_op"), Some(3.0));
        assert_eq!(metrics.get("core.bootstrap.calls_per_op"), Some(0.0));
        assert_eq!(metrics.iter().count(), schema().len());

        let mut bad = BTreeMap::new();
        bad.insert("consensus.vote_rounds.calls_per_op".to_string(), 3.0);
        assert!(complete(bad).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly this schema
    /// as its per-layer metrics, in order.
    #[test]
    fn benchmark_json_matches_the_schema() {
        let expected: Vec<(String, String, String)> = schema()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(benchmark_json_section("per_layer"), expected);
    }
}
