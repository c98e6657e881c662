//! Thread-count invariance: every quantity the experiments report must be
//! byte-identical whether the `ici-par` pool runs strictly serial
//! (`ICI_PAR_THREADS=1`) or wide (`=4`).
//!
//! These are the end-to-end guarantees behind the CI thread matrix: the
//! parallel decomposition (byte stripes in Reed–Solomon, leaf chunks in
//! Merkle hashing, point chunks in k-means, per-voter network forks in
//! PBFT) is a function of the data alone, never of the schedule.

use ici_cluster::kmeans::{balanced_kmeans, kmeans, KMeansConfig};
use ici_crypto::merkle::MerkleTree;
use ici_crypto::rs::ReedSolomon;
use ici_net::node::NodeId;
use ici_net::topology::{Placement, Topology};
use ici_sim::{run, ExperimentRecord, RunSpec, Table};
use icistrategy::prelude::*;

/// Runs `f` under a serial pool, then under a 4-wide pool, and returns
/// both results for comparison.
fn under_both_pools<T>(f: impl Fn() -> T) -> (T, T) {
    ici_par::set_threads(1);
    let serial = f();
    ici_par::set_threads(4);
    let parallel = f();
    (serial, parallel)
}

#[test]
fn rs_shards_are_identical_across_thread_counts() {
    // Payload large enough that the wide pool takes the byte-stripe path
    // (shard_len past the stripe threshold) with room for several stripes.
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i * 31 + 7) as u8).collect();
    let (serial, parallel) = under_both_pools(|| {
        let rs = ReedSolomon::new(8, 2).expect("valid geometry");
        let shards = rs.encode_payload(&payload);
        let mut holed: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        holed[1] = None;
        holed[6] = None;
        rs.reconstruct(&mut holed).expect("recoverable");
        (shards, holed)
    });
    assert_eq!(serial, parallel);
}

#[test]
fn merkle_roots_are_identical_across_thread_counts() {
    let leaves: Vec<Vec<u8>> = (0..5000u32).map(|i| i.to_le_bytes().repeat(9)).collect();
    let (serial, parallel) = under_both_pools(|| {
        let tree = MerkleTree::from_owned_leaves(leaves.clone());
        (
            tree.root(),
            tree.prove(4321)
                .map(|p| p.verify(&leaves[4321], tree.root())),
        )
    });
    assert_eq!(serial, parallel);
    assert_eq!(parallel.1, Some(true));
}

#[test]
fn kmeans_assignments_are_identical_across_thread_counts() {
    let topology = Topology::generate(3000, &Placement::Uniform { side: 400.0 }, 23);
    let config = KMeansConfig::with_k(8, 23);
    let assignments = |partition: &ici_cluster::partition::Partition| -> Vec<u32> {
        (0..3000)
            .map(|n| partition.cluster_of(NodeId::new(n)).get())
            .collect()
    };
    let (serial, parallel) = under_both_pools(|| {
        (
            assignments(&kmeans(&topology, &config)),
            assignments(&balanced_kmeans(&topology, &config)),
        )
    });
    assert_eq!(serial, parallel);
}

#[test]
fn trace_exports_are_identical_across_thread_counts() {
    // Golden-path check for ici-trace: the same pinned-seed experiment
    // must produce byte-identical canonical and Chrome trace exports
    // from the serial and the 4-wide pool (worker-local event buffers
    // merge in task-index order, send ids are schedule-independent).
    let (serial, parallel) = under_both_pools(|| {
        ici_trace::set_enabled(true);
        ici_trace::reset();
        let config = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .seed(5)
            .build()
            .expect("valid");
        let _ = run(
            config,
            RunSpec::new(
                3,
                5,
                WorkloadConfig {
                    accounts: 32,
                    ..WorkloadConfig::default()
                },
            ),
        )
        .expect("run commits");
        let snap = ici_trace::snapshot();
        ici_trace::set_enabled(false);
        ici_trace::reset();
        (
            ici_trace::export::canonical_json("EPAR", &snap),
            ici_trace::export::chrome_json(&snap),
        )
    });
    assert!(
        serial.0.contains("\"kind\": \"stage\""),
        "trace captured no lifecycle stages"
    );
    assert!(
        serial.1.contains("\"traceEvents\": ["),
        "chrome export shape changed"
    );
    assert_eq!(serial.0, parallel.0, "canonical event log diverged");
    assert_eq!(serial.1, parallel.1, "chrome trace diverged");
}

#[test]
fn experiment_record_json_is_identical_across_thread_counts() {
    // Jittery default link: arrival times go through the forked sequence
    // streams, so this exercises the full lifecycle determinism story.
    let (serial, parallel) = under_both_pools(|| {
        let config = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .seed(5)
            .build()
            .expect("valid");
        let (_, summary) = run(
            config,
            RunSpec::new(
                3,
                5,
                WorkloadConfig {
                    accounts: 32,
                    ..WorkloadConfig::default()
                },
            ),
        )
        .expect("run commits");
        let mut table = Table::new("determinism probe", ["metric", "value"]);
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
            "EPAR",
            "thread-count determinism",
            "N=24 c=8 r=2",
            &[&table],
        )
        .to_json()
    });
    assert_eq!(serial, parallel);
}
