//! `scale_ingest`: the fee-market ingest path at the paper universe.
//!
//! One op is one round: generate the round's traffic, admit it to the
//! mempool, `take_for_block`, `apply` on the proposer's state, seal a
//! `ShardedV2` block, `validate_block_in_place` on an independent
//! validator state, and `prune_below`. It is the only workload where
//! `chain` state and mempool do the work and `net`, `consensus` and
//! `storage` do none; its working set is far out of cache. Burst rounds
//! put admission and eviction into the tail while the median stays a
//! normal round.

use std::collections::BTreeSet;
use std::time::Instant;

use ici_chain::block::{Block, BlockHeader};
use ici_chain::genesis::GenesisConfig;
use ici_chain::mempool::{Mempool, MempoolError};
use ici_chain::state::{StateCommitment, WorldState};
use ici_chain::transaction::Address;
use ici_chain::validation::validate_block_in_place;
use ici_crypto::sha256::Digest;
use ici_workload::{
    PayloadSize, SenderDistribution, TrafficConfig, TrafficStream, WorkloadConfig,
    WorkloadGenerator,
};

use super::{ms_since, Timings, Values, Workload};
use crate::stats::OpLog;

/// Sizes of the funded universe and its traffic.
#[derive(Clone, Debug)]
pub struct Params {
    /// Funded accounts.
    pub accounts: u64,
    /// Base transactions per round (also the block size).
    pub base_txs: usize,
    /// Every `burst_every`-th round carries 3× traffic.
    pub burst_every: u64,
}

impl Params {
    /// The benchmark's sizes: the paper's million accounts.
    pub const FULL: Params = Params {
        accounts: 1_000_000,
        base_txs: 250,
        burst_every: 8,
    };
}

/// Balance of every funded account.
const BALANCE: u64 = 1_000_000;

/// The proposing node; the fee collector derives from it.
const PROPOSER: u64 = 7;

/// Round counters, summed over the deterministic window.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    offered: u64,
    admitted: u64,
    skipped: u64,
    touched: u64,
    dirty: u64,
}

/// The `scale_ingest` workload.
pub struct ScaleIngest {
    stream: TrafficStream,
    pool: Mempool,
    proposer: WorldState,
    validator: WorldState,
    parent: BlockHeader,
    collector: Address,
    base_txs: usize,
    supply: u64,
    counts: Counts,
    base_evicted: u64,
}

impl Workload for ScaleIngest {
    type Params = Params;
    const COMMITS_TXS: bool = true;
    const TIMES_CALLS: bool = true;

    fn setup(p: &Params, seed: u64, setup: &mut Values) -> Result<ScaleIngest, String> {
        let genesis = GenesisConfig::uniform(p.accounts, BALANCE);
        let start = Instant::now();
        let mut proposer = genesis.initial_state();
        proposer.sharded_root();
        setup.insert(
            "chain.genesis_state_s".into(),
            start.elapsed().as_secs_f64(),
        );
        let validator = proposer.clone();
        let workload = WorkloadConfig {
            accounts: p.accounts,
            senders: SenderDistribution::Zipf { exponent: 1.1 },
            payload: PayloadSize::Fixed(64),
            amount: 1,
            fee: 1,
            fee_jitter: 9,
            seed,
        };
        let traffic = TrafficConfig {
            base_txs_per_round: p.base_txs,
            burst_every: p.burst_every,
            burst_multiplier: 3,
        };
        // Capacity 2× the block size: bursts overrun it, so replace,
        // evict and reject all happen.
        let pool = Mempool::new(p.base_txs * 2);
        Ok(ScaleIngest {
            stream: TrafficStream::new(WorkloadGenerator::new(workload), traffic),
            base_evicted: pool.evicted(),
            pool,
            proposer,
            validator,
            parent: *genesis.genesis_block().header(),
            collector: Address::from_seed(PROPOSER),
            base_txs: p.base_txs,
            supply: p.accounts * BALANCE,
            counts: Counts::default(),
        })
    }

    fn step_ops(&self) -> usize {
        1
    }

    fn step(&mut self, log: &mut OpLog, t: &mut Timings) -> Result<(), String> {
        let start = Instant::now();
        let round = t.time("workload.gen", || self.stream.next_round());
        let offered = round.len() as u64;
        let mut admitted = 0u64;
        let mut rejected = None;
        t.time("chain.mempool_insert", || {
            for tx in round {
                match self.pool.insert(tx) {
                    Ok(()) => admitted += 1,
                    Err(MempoolError::Underpriced { .. } | MempoolError::PoolFull) => {}
                    Err(e) => rejected = Some(e),
                }
            }
        });
        if let Some(e) = rejected {
            log.fail(ms_since(start));
            return Err(format!("mempool rejected a generated transaction: {e}"));
        }
        let pending = t.time("chain.take_for_block", || {
            self.pool.take_for_block(self.base_txs)
        });
        let taken = pending.len();
        // `apply` is per-transaction atomic: a transaction whose
        // predecessor was evicted (a nonce gap) is skipped.
        let included: Vec<_> = t.time("chain.state_apply", || {
            pending
                .into_iter()
                .filter(|tx| self.proposer.apply(tx, self.collector).is_ok())
                .collect()
        });
        let dirty = self.proposer.dirty_buckets() as u64;
        let state_root = t.time("chain.sharded_root", || self.proposer.sharded_root());
        let height = self.parent.height + 1;
        let block = t.time("chain.block_seal", || {
            Block::new(
                BlockHeader {
                    height,
                    parent: self.parent.id(),
                    tx_root: Digest::ZERO,
                    state_root,
                    timestamp_ms: height * 1_000,
                    proposer: PROPOSER,
                    pow_nonce: 0,
                    tx_count: 0,
                    body_len: 0,
                },
                included,
            )
        });
        let validated = t.time("chain.validate_in_place", || {
            validate_block_in_place(
                &block,
                &self.parent,
                &mut self.validator,
                StateCommitment::ShardedV2,
            )
        });
        if let Err(e) = validated {
            log.fail(ms_since(start));
            return Err(format!("height {height}: own block failed validation: {e}"));
        }
        t.time("chain.prune_below", || {
            for tx in block.transactions() {
                self.pool.prune_below(&tx.sender_address(), tx.nonce() + 1);
            }
        });
        let txs = block.transactions().len() as u64;
        log.ok(ms_since(start), txs);
        t.count("offered", offered);
        t.count("taken", taken as u64);

        let mut touched: BTreeSet<Address> = block
            .transactions()
            .iter()
            .flat_map(|tx| [tx.sender_address(), tx.recipient()])
            .collect();
        touched.insert(self.collector);
        self.counts.offered += offered;
        self.counts.admitted += admitted;
        self.counts.skipped += (taken - block.transactions().len()) as u64;
        self.counts.touched += touched.len() as u64;
        self.counts.dirty += dirty;
        self.parent = *block.header();
        Ok(())
    }

    fn window(&mut self, ops: usize) -> Result<Values, String> {
        let c = self.counts;
        let per_op = |v: u64| v as f64 / ops as f64;
        let mut out = Values::new();
        out.insert(
            "chain.admit_ratio".into(),
            c.admitted as f64 / c.offered as f64,
        );
        out.insert(
            "chain.evictions_per_op".into(),
            per_op(self.pool.evicted() - self.base_evicted),
        );
        out.insert("chain.skipped_per_op".into(), per_op(c.skipped));
        out.insert("chain.touched_accounts_per_op".into(), per_op(c.touched));
        out.insert("chain.dirty_buckets_per_op".into(), per_op(c.dirty));
        Ok(out)
    }

    fn layer_timings(&self, t: &Timings, ops: usize, out: &mut Values) {
        let per_op = |key: &str| t.sum(key) / ops as f64;
        let per_tx_us = |key: &str, txs: &str| t.sum(key) * 1_000.0 / t.counted(txs) as f64;
        out.insert(
            "chain.mempool_insert_us_per_tx".into(),
            per_tx_us("chain.mempool_insert", "offered"),
        );
        out.insert(
            "chain.state_apply_us_per_tx".into(),
            per_tx_us("chain.state_apply", "taken"),
        );
        out.insert("workload.gen_ms_per_op".into(), per_op("workload.gen"));
        out.insert(
            "chain.take_for_block_ms".into(),
            per_op("chain.take_for_block"),
        );
        out.insert("chain.sharded_root_ms".into(), per_op("chain.sharded_root"));
        out.insert("chain.block_seal_ms".into(), per_op("chain.block_seal"));
        out.insert(
            "chain.validate_in_place_ms".into(),
            per_op("chain.validate_in_place"),
        );
        out.insert("chain.prune_below_ms".into(), per_op("chain.prune_below"));
    }

    fn finish(&mut self) -> Result<(), String> {
        if self.proposer != self.validator {
            return Err("proposer and validator states diverged".into());
        }
        let supply = self.validator.total_supply();
        if supply != self.supply {
            return Err(format!("supply not conserved: {supply} != {}", self.supply));
        }
        let root = self.validator.sharded_root();
        if root != self.parent.state_root {
            return Err("validator v2 root differs from the sealed head".into());
        }
        Ok(())
    }
}
