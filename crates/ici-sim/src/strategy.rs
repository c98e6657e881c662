//! The [`Strategy`] trait: what one storage design contributes to a run.
//!
//! [`crate::run`] owns everything the designs share — genesis, workload
//! lanes, the fault plan, leader election for Byzantine rounds, verdict
//! tallies, series sampling, and the summary. A `Strategy` impl supplies
//! only what really differs: how a fault-free run commits, how a block
//! is delivered and cross-checked, which groups vote on it, and what
//! healing follows a churned round. The runner never branches on which
//! strategy it drives.

use ici_baselines::full::{FullConfig, FullReplicationNetwork};
use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
use ici_chain::block::BlockHeader;
use ici_chain::builder::BlockBuilder;
use ici_chain::codec::Encode;
use ici_chain::genesis::GenesisConfig;
use ici_chain::transaction::Transaction;
use ici_consensus::pbft::VOTE_BYTES;
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_core::StageBoundary;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};

use crate::error::SimError;
use crate::runner::{elect_leader, mark_churn, FaultSummary};

/// One committed block, as the runner's summary sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Commit {
    /// Height within its chain (the shard chain for RapidChain).
    pub height: u64,
    /// Transactions the block carried.
    pub txs: u64,
    /// Messages the commit put on the wire.
    pub messages: u64,
    /// Bytes the commit put on the wire.
    pub bytes: u64,
    /// Proposal-to-network-commit latency.
    pub latency: Duration,
}

/// A configuration that names the strategy it builds, so
/// [`crate::run`] infers the strategy from the config it is given.
pub trait StrategyConfig: Sized {
    /// The strategy this configuration builds.
    type Strategy: Strategy<Config = Self>;
}

impl StrategyConfig for IciConfig {
    type Strategy = IciNetwork;
}

impl StrategyConfig for FullConfig {
    type Strategy = FullReplicationNetwork;
}

impl StrategyConfig for RapidChainConfig {
    type Strategy = RapidChainNetwork;
}

/// A storage design the runner can drive: ICIStrategy or a baseline.
pub trait Strategy: Sized {
    /// Construction parameters; the runner overwrites their genesis.
    type Config;
    /// Table label and series prefix.
    const LABEL: &'static str;
    /// Telemetry span of a fault-free run.
    const SPAN: &'static str;
    /// Telemetry span of a faulted run.
    const FAULT_SPAN: &'static str;

    /// Builds the network with `genesis` funding the workload accounts.
    fn build(config: Self::Config, genesis: GenesisConfig) -> Result<Self, SimError>;
    /// The simulated network.
    fn net(&self) -> &Network;
    /// Mutable network access (churn, message faults, metered sends).
    fn net_mut(&mut self) -> &mut Network;
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Every block committed so far, in commit order.
    fn commits(&self) -> Vec<Commit>;
    /// Per-node storage bytes, indexed by node id.
    fn storage_bytes(&self) -> Vec<u64>;
    /// Bytes of one full replica of the (whole, possibly sharded) ledger.
    fn ledger_bytes(&self) -> u64;
    /// Independent workload lanes, each with its own generator and retry
    /// slot so nonces stay sequential per ledger: one per shard.
    fn lanes(&self) -> usize {
        1
    }

    /// Fault-free run: commits `rounds[round][lane]` for every round,
    /// calling `after_round` once each round has committed.
    fn commit_rounds(
        &mut self,
        rounds: Vec<Vec<Vec<Transaction>>>,
        after_round: &mut dyn FnMut(&Self, usize),
    ) -> Result<(), SimError>;

    /// The groups the fault plan draws churn and Byzantine roles over.
    fn fault_groups(&self) -> Vec<Vec<NodeId>>;
    /// Crashes `node` (scheduled churn).
    fn crash(&mut self, node: NodeId) {
        self.net_mut().crash(node);
    }
    /// Restarts `node` with its disk intact (scheduled churn).
    fn recover(&mut self, node: NodeId) {
        self.net_mut().recover(node);
    }
    /// The tip `lane`'s next block extends and the leader candidates for
    /// it, or `None` when nobody can propose.
    fn proposer(&self, lane: usize) -> Option<(BlockHeader, Vec<NodeId>)>;
    /// Body bytes of the block `leader` would seal on `tip` from `batch`.
    /// The baselines price the encoded transactions instead of building
    /// against their private shard state.
    fn body_bytes(&self, _tip: &BlockHeader, _leader: NodeId, batch: &[Transaction]) -> u64 {
        batch.iter().map(|tx| tx.to_bytes().len() as u64).sum()
    }
    /// What the leader sends the `index`-th member of an audience.
    fn delivery(&self, _index: usize, body_bytes: u64) -> (MessageKind, u64) {
        (
            MessageKind::BlockFull,
            BlockHeader::ENCODED_LEN as u64 + body_bytes,
        )
    }
    /// The exchange in which an audience compares the headers it saw;
    /// committees vote all-pairs.
    fn cross_check(net: &mut Network, audience: &[NodeId]) {
        all_pairs_vote(net, audience);
    }
    /// Live members of each group voting a verdict on `lane`'s block,
    /// flagged when the group is the proposer's own.
    fn verdict_groups(&self, lane: usize) -> Vec<(Vec<NodeId>, bool)>;
    /// Attempts `lane`'s commit under faults. `stage_mix` is set on
    /// stage-churn rounds; a strategy with a staged lifecycle crashes a
    /// verifier mid-proposal and returns it as the victim. Returns
    /// whether the block committed.
    fn propose(
        &mut self,
        lane: usize,
        batch: Vec<Transaction>,
        stage_mix: Option<u64>,
        round: usize,
    ) -> (bool, Option<NodeId>);
    /// Heals after a round whose churn touched `touched`.
    fn heal(&mut self, _touched: &[NodeId], _faults: &mut FaultSummary) {}
    /// Final healing and audit once the plan ends.
    fn finish(&mut self, _faults: &mut FaultSummary) {}
}

/// Meters one all-pairs vote exchange among `members`.
pub(crate) fn all_pairs_vote(net: &mut Network, members: &[NodeId]) {
    for from in members {
        for to in members {
            if from != to {
                let _ = net.send(*from, *to, MessageKind::Vote, VOTE_BYTES);
            }
        }
    }
}

/// Picks the boundary a stage crash lands on from a seed-derived mix.
fn pick_boundary(mix: u64) -> StageBoundary {
    match mix % 3 {
        0 => StageBoundary::AfterBuild,
        1 => StageBoundary::AfterDistribute,
        _ => StageBoundary::AfterVerify,
    }
}

impl Strategy for IciNetwork {
    type Config = IciConfig;
    const LABEL: &'static str = "ICIStrategy";
    const SPAN: &'static str = "sim/run_ici";
    const FAULT_SPAN: &'static str = "sim/run_ici_faults";

    fn build(mut config: Self::Config, genesis: GenesisConfig) -> Result<Self, SimError> {
        config.genesis = genesis;
        IciNetwork::new(config).map_err(SimError::Config)
    }

    fn net(&self) -> &Network {
        IciNetwork::net(self)
    }

    fn net_mut(&mut self) -> &mut Network {
        IciNetwork::net_mut(self)
    }

    fn now(&self) -> SimTime {
        IciNetwork::now(self)
    }

    fn commits(&self) -> Vec<Commit> {
        let log = self.commit_log().iter();
        log.map(|r| Commit {
            height: r.height,
            txs: u64::from(r.tx_count),
            messages: r.messages,
            bytes: r.bytes,
            latency: r.commit_latency(),
        })
        .collect()
    }

    fn storage_bytes(&self) -> Vec<u64> {
        IciNetwork::storage_bytes(self)
    }

    fn ledger_bytes(&self) -> u64 {
        self.full_replica_bytes()
    }

    /// Fault-free ICI runs go through the pipelined lifecycle, keeping
    /// up to [`ici_par::pipeline_depth`] (the thread count) heights in
    /// flight.
    fn commit_rounds(
        &mut self,
        rounds: Vec<Vec<Vec<Transaction>>>,
        after_round: &mut dyn FnMut(&Self, usize),
    ) -> Result<(), SimError> {
        let batches = rounds.into_iter().flatten().collect();
        self.propose_blocks_pipelined(batches, ici_par::pipeline_depth(), |net, round| {
            after_round(net, round)
        })
        .map_err(|e| SimError::Commit {
            strategy: Self::LABEL,
            cause: Some(e),
        })
    }

    fn fault_groups(&self) -> Vec<Vec<NodeId>> {
        let clusters = self.clusters().into_iter();
        clusters
            .map(|c| self.membership().active_members(c))
            .collect()
    }

    fn crash(&mut self, node: NodeId) {
        let _ = self.crash_node(node);
    }

    fn recover(&mut self, node: NodeId) {
        let _ = self.recover_node(node);
    }

    fn proposer(&self, _lane: usize) -> Option<(BlockHeader, Vec<NodeId>)> {
        let tip = *self.tip();
        let home = self.proposer_cluster(tip.height + 1)?;
        Some((tip, self.live_members(home)))
    }

    fn body_bytes(&self, tip: &BlockHeader, leader: NodeId, batch: &[Transaction]) -> u64 {
        let timestamp_ms = (tip.timestamp_ms + 1).max(IciNetwork::now(self).as_millis());
        let mut builder = BlockBuilder::new(tip, self.state().clone(), leader.get(), timestamp_ms);
        builder.fill(batch.to_vec());
        builder.seal().body_len() as u64
    }

    /// The first `r` members receive the body; the rest only the header.
    fn delivery(&self, index: usize, body_bytes: u64) -> (MessageKind, u64) {
        let header = BlockHeader::ENCODED_LEN as u64;
        if index < self.config().replication {
            (MessageKind::BlockBody, header + body_bytes)
        } else {
            (MessageKind::BlockHeader, header)
        }
    }

    /// Every cluster votes on every block; the proposer's is home.
    fn verdict_groups(&self, _lane: usize) -> Vec<(Vec<NodeId>, bool)> {
        let home = self.proposer_cluster(self.tip().height + 1);
        let clusters = self.clusters().into_iter();
        clusters
            .map(|c| (self.live_members(c), Some(c) == home))
            .collect()
    }

    /// A stage-churn round crashes a live non-leader member of the
    /// proposing cluster at a seed-drawn lifecycle boundary and restarts
    /// it as soon as the proposal resolves, so the crash is visible to
    /// exactly the stages past the boundary.
    fn propose(
        &mut self,
        _lane: usize,
        batch: Vec<Transaction>,
        stage_mix: Option<u64>,
        round: usize,
    ) -> (bool, Option<NodeId>) {
        let victim = stage_mix.and_then(|mix| {
            let (_, leader, live) = elect_leader(self, 0)?;
            let candidates: Vec<NodeId> = live.into_iter().filter(|m| *m != leader).collect();
            let victim = *candidates.get((mix % candidates.len().max(1) as u64) as usize)?;
            Some((victim, pick_boundary(mix >> 32)))
        });
        let Some((victim, boundary)) = victim else {
            return (self.propose_block(batch).is_ok(), None);
        };
        mark_churn(self, "faults/stage_crash", &[victim], round);
        let committed = self
            .propose_block_staged(batch, |stage, sim| {
                if stage == boundary {
                    sim.crash(victim);
                }
            })
            .is_ok();
        let _ = self.recover_node(victim);
        mark_churn(self, "faults/stage_restart", &[victim], round);
        (committed, Some(victim))
    }

    /// Survivors re-replicate every cluster the churn touched, and the
    /// shard-level Merkle audit certifies each repair.
    fn heal(&mut self, touched: &[NodeId], faults: &mut FaultSummary) {
        let mut affected: Vec<_> = touched
            .iter()
            .map(|n| self.membership().cluster_of(*n))
            .collect();
        affected.sort_unstable_by_key(|c| c.get());
        affected.dedup();
        for cluster in affected {
            faults.recovery_attempts += 1;
            let report = self.repair_cluster(cluster);
            if report.unrecoverable.is_empty() && self.merkle_audit(cluster).is_clean() {
                faults.recovery_successes += 1;
            }
            faults.absorb_repair(&report);
        }
        for audit in self.audit_all() {
            faults.min_availability = faults.min_availability.min(audit.availability());
        }
    }

    /// A final repair pass heals anything the last round left degraded,
    /// then the audit rules on the whole run.
    fn finish(&mut self, faults: &mut FaultSummary) {
        for report in self.repair_all() {
            faults.absorb_repair(&report);
        }
        let audits = self.merkle_audit_all();
        faults.final_audit_clean = audits.iter().all(|a| a.is_clean());
        faults.merkle_shards_verified = audits.iter().map(|a| a.shards_verified).sum();
    }
}

impl Strategy for FullReplicationNetwork {
    type Config = FullConfig;
    const LABEL: &'static str = "FullReplication";
    const SPAN: &'static str = "sim/run_full";
    const FAULT_SPAN: &'static str = "sim/run_full_faults";

    fn build(mut config: FullConfig, genesis: GenesisConfig) -> Result<Self, SimError> {
        config.genesis = genesis;
        Ok(FullReplicationNetwork::new(config))
    }

    fn net(&self) -> &Network {
        FullReplicationNetwork::net(self)
    }

    fn net_mut(&mut self) -> &mut Network {
        FullReplicationNetwork::net_mut(self)
    }

    fn now(&self) -> SimTime {
        FullReplicationNetwork::now(self)
    }

    fn commits(&self) -> Vec<Commit> {
        baseline_commits(self.commit_log())
    }

    fn storage_bytes(&self) -> Vec<u64> {
        vec![self.storage_bytes_per_node(); self.config().nodes]
    }

    fn ledger_bytes(&self) -> u64 {
        self.storage_bytes_per_node()
    }

    fn commit_rounds(
        &mut self,
        rounds: Vec<Vec<Vec<Transaction>>>,
        after_round: &mut dyn FnMut(&Self, usize),
    ) -> Result<(), SimError> {
        for (round, batches) in rounds.into_iter().enumerate() {
            for batch in batches {
                self.propose_block(batch).ok_or(SimError::Commit {
                    strategy: Self::LABEL,
                    cause: None,
                })?;
            }
            after_round(self, round);
        }
        Ok(())
    }

    /// The whole network is one plan group.
    fn fault_groups(&self) -> Vec<Vec<NodeId>> {
        vec![every_node(self.net())]
    }

    fn proposer(&self, _lane: usize) -> Option<(BlockHeader, Vec<NodeId>)> {
        let tip = *self.block(self.chain_len().checked_sub(1)?)?.header();
        Some((tip, every_node(self.net())))
    }

    /// Twins meet on the gossip relay ring, which carries headers.
    fn cross_check(net: &mut Network, audience: &[NodeId]) {
        for (i, from) in audience.iter().enumerate() {
            let to = audience[(i + 1) % audience.len()];
            if *from != to {
                let header = BlockHeader::ENCODED_LEN as u64;
                let _ = net.send(*from, to, MessageKind::BlockHeader, header);
            }
        }
    }

    /// Every node validates every block solo, so there is no verdict
    /// round for lying verifiers to corrupt.
    fn verdict_groups(&self, _lane: usize) -> Vec<(Vec<NodeId>, bool)> {
        Vec::new()
    }

    fn propose(
        &mut self,
        _lane: usize,
        batch: Vec<Transaction>,
        _stage_mix: Option<u64>,
        _round: usize,
    ) -> (bool, Option<NodeId>) {
        (self.propose_block(batch).is_some(), None)
    }
}

impl Strategy for RapidChainNetwork {
    type Config = RapidChainConfig;
    const LABEL: &'static str = "RapidChain";
    const SPAN: &'static str = "sim/run_rapidchain";
    const FAULT_SPAN: &'static str = "sim/run_rapidchain_faults";

    fn build(mut config: RapidChainConfig, genesis: GenesisConfig) -> Result<Self, SimError> {
        config.genesis = genesis;
        Ok(RapidChainNetwork::new(config))
    }

    fn net(&self) -> &Network {
        RapidChainNetwork::net(self)
    }

    fn net_mut(&mut self) -> &mut Network {
        RapidChainNetwork::net_mut(self)
    }

    fn now(&self) -> SimTime {
        RapidChainNetwork::now(self)
    }

    fn commits(&self) -> Vec<Commit> {
        baseline_commits(self.commit_log())
    }

    fn storage_bytes(&self) -> Vec<u64> {
        RapidChainNetwork::storage_bytes(self)
    }

    /// One replica of the sharded ledger is every shard chain once.
    fn ledger_bytes(&self) -> u64 {
        let shards = 0..self.shard_count();
        let blocks = shards.flat_map(|s| (0..self.shard_chain_len(s)).map(move |h| (s, h)));
        blocks
            .filter_map(|(s, h)| self.shard_block(s, h))
            .map(|b| (BlockHeader::ENCODED_LEN + b.header().body_len as usize) as u64)
            .sum()
    }

    fn lanes(&self) -> usize {
        self.shard_count()
    }

    /// Without faults every shard commits each round, concurrently on
    /// the `ici-par` pool.
    fn commit_rounds(
        &mut self,
        rounds: Vec<Vec<Vec<Transaction>>>,
        after_round: &mut dyn FnMut(&Self, usize),
    ) -> Result<(), SimError> {
        for (round, batches) in rounds.into_iter().enumerate() {
            let heights = self.propose_round(batches.into_iter().enumerate().collect());
            if heights.iter().any(Option::is_none) {
                return Err(SimError::Commit {
                    strategy: Self::LABEL,
                    cause: None,
                });
            }
            after_round(self, round);
        }
        Ok(())
    }

    /// Committees are the plan groups.
    fn fault_groups(&self) -> Vec<Vec<NodeId>> {
        let shards = 0..self.shard_count();
        shards.map(|s| self.committee(s).to_vec()).collect()
    }

    fn proposer(&self, lane: usize) -> Option<(BlockHeader, Vec<NodeId>)> {
        let top = self.shard_chain_len(lane).checked_sub(1)?;
        let tip = *self.shard_block(lane, top)?.header();
        Some((tip, self.committee(lane).to_vec()))
    }

    /// Only the active committee votes; every member holds the full
    /// shard block, so a false reject is transparent to honest members.
    fn verdict_groups(&self, lane: usize) -> Vec<(Vec<NodeId>, bool)> {
        let net = RapidChainNetwork::net(self);
        let committee = self.committee(lane).iter().copied();
        vec![(committee.filter(|n| net.is_up(*n)).collect(), true)]
    }

    /// Under faults rounds visit committees round-robin.
    fn propose(
        &mut self,
        lane: usize,
        batch: Vec<Transaction>,
        _stage_mix: Option<u64>,
        _round: usize,
    ) -> (bool, Option<NodeId>) {
        (self.propose_block(lane, batch).is_some(), None)
    }
}

fn every_node(net: &Network) -> Vec<NodeId> {
    (0..net.len() as u64).map(NodeId::new).collect()
}

fn baseline_commits(log: &[ici_baselines::BaselineCommitRecord]) -> Vec<Commit> {
    log.iter()
        .map(|r| Commit {
            height: r.height,
            txs: u64::from(r.tx_count),
            messages: r.messages,
            bytes: r.bytes,
            latency: r.commit_latency(),
        })
        .collect()
}
