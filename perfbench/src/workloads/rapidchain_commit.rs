//! `rapidchain_commit`: the named comparator.
//!
//! One op is one `RapidChainNetwork::propose_round` that commits a block
//! on every shard. RapidChain dominates the experiments' wall clock: its
//! all-pairs `consensus/vote_round` is the largest self-time span in the
//! repository, and it is the only workload that runs IDA dissemination.
//! A vote or meter optimisation shows here most.

use std::collections::BTreeMap;
use std::time::Instant;

use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
use ici_chain::block::BlockHeader;
use ici_chain::genesis::GenesisConfig;
use ici_chain::transaction::Transaction;
use ici_net::metrics::{Counter, MessageKind};
use ici_net::time::SimTime;
use ici_workload::{WorkloadConfig, WorkloadGenerator};

use super::{mean, ms_since, traffic, traffic_window, Timings, Values, Workload, GENESIS_BALANCE};
use crate::stats::{median, OpLog};

/// Sizes of a RapidChain deployment and its commit stream.
#[derive(Clone, Debug)]
pub struct Params {
    /// Nodes.
    pub nodes: usize,
    /// Committee size; `nodes / committee_size` shards.
    pub committee_size: usize,
    /// Funded zipf(1.0) accounts.
    pub accounts: u64,
    /// Transactions per shard block.
    pub txs_per_block: usize,
}

impl Params {
    /// The benchmark's sizes: 4 shards of 128.
    pub const FULL: Params = Params {
        nodes: 512,
        committee_size: 128,
        accounts: 256,
        txs_per_block: 40,
    };
}

/// The `rapidchain_commit` workload.
pub struct RapidChainCommit {
    network: RapidChainNetwork,
    /// One generator per shard so nonces stay sequential within each
    /// shard's ledger.
    generators: Vec<WorkloadGenerator>,
    txs_per_block: usize,
    gen_ms: f64,
    gen_rounds: usize,
    base_log: usize,
    base_clock: SimTime,
    base_traffic: BTreeMap<MessageKind, Counter>,
}

impl Workload for RapidChainCommit {
    type Params = Params;
    const COMMITS_TXS: bool = true;
    const TIMES_CALLS: bool = false;

    fn setup(p: &Params, seed: u64, setup: &mut Values) -> Result<RapidChainCommit, String> {
        let config = RapidChainConfig {
            nodes: p.nodes,
            committee_size: p.committee_size,
            link: ici_bench::quiet_link(),
            genesis: GenesisConfig::uniform(p.accounts, GENESIS_BALANCE),
            seed,
            ..RapidChainConfig::default()
        };
        let start = Instant::now();
        let network = RapidChainNetwork::new(config);
        setup.insert(
            "baselines.network_new_s".into(),
            start.elapsed().as_secs_f64(),
        );
        let mut workload = ici_bench::standard_workload(seed);
        workload.accounts = p.accounts;
        // The per-shard seeding of the E7 runner.
        let generators = (0..network.shard_count())
            .map(|s| {
                WorkloadGenerator::new(WorkloadConfig {
                    seed: seed ^ (s as u64).wrapping_mul(0x9E37_79B9),
                    ..workload
                })
            })
            .collect();
        Ok(RapidChainCommit {
            base_log: network.commit_log().len(),
            base_clock: network.now(),
            base_traffic: traffic(network.net().meter()),
            network,
            generators,
            txs_per_block: p.txs_per_block,
            gen_ms: 0.0,
            gen_rounds: 0,
        })
    }

    fn step_ops(&self) -> usize {
        1
    }

    fn step(&mut self, log: &mut OpLog, _: &mut Timings) -> Result<(), String> {
        let start = Instant::now();
        let batches: Vec<(usize, Vec<Transaction>)> = self
            .generators
            .iter_mut()
            .enumerate()
            .map(|(shard, g)| (shard, g.batch(self.txs_per_block)))
            .collect();
        self.gen_ms += ms_since(start);
        self.gen_rounds += 1;

        let start = Instant::now();
        let heights = self.network.propose_round(batches);
        let ms = ms_since(start);
        if heights.iter().any(Option::is_none) {
            log.fail(ms);
            return Err(format!("a shard failed to commit: {heights:?}"));
        }
        let records = &self.network.commit_log()[self.network.commit_log().len() - heights.len()..];
        log.ok(ms, records.iter().map(|r| r.tx_count as u64).sum());
        Ok(())
    }

    fn window(&mut self, ops: usize) -> Result<Values, String> {
        let shards = self.network.shard_count();
        let log = &self.network.commit_log()[self.base_log..];
        if log.len() != ops * shards {
            return Err(format!(
                "window expected {} commits, log has {}",
                ops * shards,
                log.len()
            ));
        }
        // A round completes when its slowest shard commits.
        let latencies: Vec<f64> = log
            .chunks(shards)
            .map(|round| {
                round
                    .iter()
                    .map(|r| r.commit_latency().as_millis_f64())
                    .fold(0.0, f64::max)
            })
            .collect();
        let txs: u64 = log.iter().map(|r| r.tx_count as u64).sum();
        let sim_s = self
            .network
            .now()
            .saturating_since(self.base_clock)
            .as_secs_f64();
        // One replica of the whole sharded ledger is every shard's chain.
        let network = &self.network;
        let ledger: u64 = (0..shards)
            .flat_map(|s| {
                (0..network.shard_chain_len(s)).filter_map(move |h| network.shard_block(s, h))
            })
            .map(|b| (BlockHeader::ENCODED_LEN + b.header().body_len as usize) as u64)
            .sum();
        let mut out = Values::new();
        out.insert(
            "sim_latency_p50_ms".into(),
            median(&latencies).unwrap_or(0.0),
        );
        out.insert("sim_tps".into(), txs as f64 / sim_s);
        out.insert(
            "storage_fraction".into(),
            mean(&self.network.storage_bytes()) / ledger as f64,
        );
        traffic_window(
            self.network.net().meter(),
            &self.base_traffic,
            ops,
            &mut out,
        );
        Ok(out)
    }

    fn layer_timings(&self, _: &Timings, _: usize, out: &mut Values) {
        out.insert(
            "workload.gen_ms_per_op".into(),
            self.gen_ms / self.gen_rounds as f64,
        );
    }

    fn finish(&mut self) -> Result<(), String> {
        // Every round asserted all shard heights; the chains must agree.
        let rounds = (self.network.commit_log().len() - self.base_log) / self.network.shard_count();
        for shard in 0..self.network.shard_count() {
            let len = self.network.shard_chain_len(shard);
            if len != rounds as u64 + 1 {
                return Err(format!(
                    "shard {shard} has {len} blocks after {rounds} rounds"
                ));
            }
        }
        Ok(())
    }
}
