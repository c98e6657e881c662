//! `ici_commit`: ICIStrategy's write path.
//!
//! Blocks go through `propose_blocks_pipelined` at the default pipeline
//! depth, a fixed-size chunk per step, and each op (one committed block)
//! is timed at its `after_commit` callback. It exercises the paper's
//! system end to end — the `core` stages, intra-cluster PBFT at
//! committee 16, `storage` assignment and `net` metering — while `chain`
//! state and mempool stay tiny and in cache.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use ici_chain::genesis::GenesisConfig;
use ici_chain::transaction::Transaction;
use ici_core::{IciConfig, IciNetwork};
use ici_net::metrics::{Counter, MessageKind};
use ici_net::time::SimTime;
use ici_workload::WorkloadGenerator;

use super::{mean, ms_since, traffic, traffic_window, Timings, Values, Workload, GENESIS_BALANCE};
use crate::stats::{median, OpLog};

/// Sizes of an ICIStrategy deployment and its commit stream.
#[derive(Clone, Debug)]
pub struct Params {
    /// Nodes `N`.
    pub nodes: usize,
    /// Cluster size `c`.
    pub cluster_size: usize,
    /// Intra-cluster replication `r`.
    pub replication: usize,
    /// Funded zipf(1.0) accounts.
    pub accounts: u64,
    /// Transactions per block.
    pub txs_per_block: usize,
    /// Blocks per pipelined call (ops per step).
    pub chunk: usize,
    /// Batches generated during set-up.
    pub pregenerated: usize,
}

impl Params {
    /// The benchmark's sizes.
    pub const FULL: Params = Params {
        nodes: 512,
        cluster_size: 16,
        replication: 2,
        accounts: 256,
        txs_per_block: 40,
        chunk: 50,
        pregenerated: 200,
    };
}

/// Builds the network and its transaction generator from `seed`.
pub fn build(
    p: &Params,
    seed: u64,
    setup: &mut Values,
) -> Result<(IciNetwork, WorkloadGenerator), String> {
    let mut workload = ici_bench::standard_workload(seed);
    workload.accounts = p.accounts;
    let config = IciConfig::builder()
        .nodes(p.nodes)
        .cluster_size(p.cluster_size)
        .replication(p.replication)
        .link(ici_bench::quiet_link())
        .genesis(GenesisConfig::uniform(p.accounts, GENESIS_BALANCE))
        .seed(seed)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let start = Instant::now();
    let network = IciNetwork::new(config).map_err(|e| format!("IciNetwork::new: {e}"))?;
    setup.insert("core.network_new_s".into(), start.elapsed().as_secs_f64());
    Ok((network, WorkloadGenerator::new(workload)))
}

/// Where the deterministic window starts.
struct Base {
    log_len: usize,
    clock: SimTime,
    traffic: BTreeMap<MessageKind, Counter>,
}

impl Base {
    fn of(network: &IciNetwork) -> Base {
        Base {
            log_len: network.commit_log().len(),
            clock: network.now(),
            traffic: traffic(network.net().meter()),
        }
    }
}

/// Deterministic commit metrics over the `ops` blocks committed since
/// `base`.
fn commit_window(network: &IciNetwork, base: &Base, ops: usize) -> Result<Values, String> {
    let log = &network.commit_log()[base.log_len..];
    if log.len() != ops {
        return Err(format!(
            "window expected {ops} commits, log has {}",
            log.len()
        ));
    }
    let latencies: Vec<f64> = log
        .iter()
        .map(|r| r.commit_latency().as_millis_f64())
        .collect();
    let txs: u64 = log.iter().map(|r| r.tx_count as u64).sum();
    let sim_s = network.now().saturating_since(base.clock).as_secs_f64();
    let mut out = Values::new();
    out.insert(
        "sim_latency_p50_ms".into(),
        median(&latencies).unwrap_or(0.0),
    );
    out.insert("sim_tps".into(), txs as f64 / sim_s);
    out.insert("storage_fraction".into(), storage_fraction(network));
    traffic_window(network.net().meter(), &base.traffic, ops, &mut out);
    Ok(out)
}

/// Mean stored bytes per node over the bytes of one full replica.
pub fn storage_fraction(network: &IciNetwork) -> f64 {
    mean(&network.storage_bytes()) / network.full_replica_bytes() as f64
}

/// The `ici_commit` workload.
pub struct IciCommit {
    network: IciNetwork,
    generator: WorkloadGenerator,
    queue: VecDeque<Vec<Transaction>>,
    params: Params,
    depth: usize,
    proposed_txs: u64,
    gen_ms: f64,
    gen_batches: usize,
    base: Base,
}

impl IciCommit {
    fn generate(&mut self, batches: usize) {
        let start = Instant::now();
        for _ in 0..batches {
            let batch = self.generator.batch(self.params.txs_per_block);
            self.queue.push_back(batch);
        }
        self.gen_ms += ms_since(start);
        self.gen_batches += batches;
    }
}

impl Workload for IciCommit {
    type Params = Params;
    const COMMITS_TXS: bool = true;
    const TIMES_CALLS: bool = false;

    fn setup(params: &Params, seed: u64, setup: &mut Values) -> Result<IciCommit, String> {
        let (network, generator) = build(params, seed, setup)?;
        let mut w = IciCommit {
            base: Base::of(&network),
            network,
            generator,
            queue: VecDeque::new(),
            params: params.clone(),
            depth: ici_par::pipeline_depth(),
            proposed_txs: 0,
            gen_ms: 0.0,
            gen_batches: 0,
        };
        w.generate(params.pregenerated);
        Ok(w)
    }

    fn step_ops(&self) -> usize {
        self.params.chunk
    }

    fn step(&mut self, log: &mut OpLog, _: &mut Timings) -> Result<(), String> {
        if self.queue.len() < self.params.chunk {
            self.generate(self.params.chunk);
        }
        let batches: Vec<Vec<Transaction>> = self.queue.drain(..self.params.chunk).collect();
        let n = batches.len();
        self.proposed_txs += batches.iter().map(|b| b.len() as u64).sum::<u64>();
        let mut committed = 0usize;
        let mut last = Instant::now();
        let result = self
            .network
            .propose_blocks_pipelined(batches, self.depth, |network, _| {
                let txs = network.commit_log().last().map_or(0, |r| r.tx_count as u64);
                log.ok(ms_since(last), txs);
                committed += 1;
                last = Instant::now();
            });
        if committed < n {
            log.fail(ms_since(last));
            for _ in committed + 1..n {
                log.fail(0.0);
            }
        }
        match result {
            Ok(()) if committed == n => Ok(()),
            Ok(()) => Err(format!("{committed} of {n} blocks committed")),
            Err(e) => Err(format!("block commit failed: {e}")),
        }
    }

    fn window(&mut self, ops: usize) -> Result<Values, String> {
        commit_window(&self.network, &self.base, ops)
    }

    fn layer_timings(&self, _: &Timings, _: usize, out: &mut Values) {
        out.insert(
            "workload.gen_ms_per_op".into(),
            self.gen_ms / self.gen_batches as f64,
        );
    }

    fn finish(&mut self) -> Result<(), String> {
        if let Some(report) = self.network.audit_all().iter().find(|r| !r.is_intact()) {
            return Err(format!("integrity audit failed: {report:?}"));
        }
        let committed: u64 = self
            .network
            .commit_log()
            .iter()
            .map(|r| r.tx_count as u64)
            .sum();
        if committed != self.proposed_txs {
            return Err(format!(
                "committed {committed} transactions, generated {}",
                self.proposed_txs
            ));
        }
        Ok(())
    }
}
