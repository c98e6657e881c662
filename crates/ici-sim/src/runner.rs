//! The experiment runner: one loop for every strategy, with or without
//! faults.
//!
//! [`run`] drives any [`Strategy`] over a deterministic workload and
//! reduces the run to a [`RunSummary`] with the quantities the paper's
//! tables report: per-node storage, per-block communication, commit
//! latency, and throughput. Given a [`FaultProfile`], it first builds a
//! deterministic fault plan over the strategy's groups and drives each
//! round through it: scheduled restarts and crashes, the round's
//! message faults, Byzantine proposers and verifiers, one block
//! proposal, and the strategy's healing. The summary then carries a
//! [`FaultSummary`].
//!
//! Every strategy faces the same plan machinery, so `e_byz` can put
//! ICIStrategy's survivability next to the comparators without changing
//! the adversary between columns. Same seed ⇒ same plan ⇒ same commits,
//! same repair traffic, same summary, byte for byte, at any
//! `ICI_PAR_THREADS` — which is what lets CI diff two runs directly.

use ici_chain::block::BlockHeader;
use ici_chain::genesis::GenesisConfig;
use ici_chain::transaction::Transaction;
use ici_consensus::leader::elect_live_leader;
use ici_consensus::verdicts::{tally_votes, VerdictOutcome, VerifierVote};
use ici_core::RepairReport;
use ici_faults::plan::{
    ByzantineConfig, ChurnConfig, FaultPlanConfig, MessageFaultSpec, PartitionPolicy, VerdictFault,
};
use ici_faults::scheduler::{FaultScheduler, ScheduledRound};
use ici_net::node::NodeId;
use ici_storage::stats::StorageStats;
use ici_trace::series::{RoundSample, TrafficTracker};
use ici_workload::{WorkloadConfig, WorkloadGenerator};

use crate::error::SimError;
use crate::latency::LatencyStats;
use crate::strategy::{all_pairs_vote, Commit, Strategy, StrategyConfig};

/// Initial balance granted to each workload account at genesis — large
/// enough that no run exhausts a sender.
const GENESIS_BALANCE: u64 = u64::MAX / 1_000_000;

/// Salt separating fault-mark trace ids from lifecycle stage ids.
const FAULT_MARK_SALT: u64 = 0xFA17_0000_0000_0001;

/// Salt seeding the stage-churn draw stream (independent of the plan's
/// streams, so enabling stage churn never perturbs the other faults).
const STAGE_CHURN_SALT: u64 = 0x57A6_EC4A_5400_0003;

/// Stage-boundary churn: on every `interval`-th round, crash one live
/// non-leader member of the proposing cluster at a seed-derived
/// lifecycle stage boundary ([`ici_core::StageBoundary`]), then restart
/// it (disk intact) as soon as the proposal resolves — success or
/// failure.
///
/// This exercises the staged lifecycle's liveness re-sync: forks
/// snapshot liveness at build time, and a crash landing *between*
/// stages must be adopted by every later stage. The draw depends only
/// on `(seed, round)`, so runs replay byte-identically at any thread
/// count. Inert by default (`interval == 0`), which keeps existing
/// crash-only profiles byte-stable. Only ICIStrategy has a staged
/// lifecycle; the baselines ignore it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageChurn {
    /// Inject on rounds where `(round + 1) % interval == 0`;
    /// `0` disables stage churn entirely.
    pub interval: usize,
}

impl StageChurn {
    /// Whether this round draws a stage-boundary crash.
    fn fires(&self, round: usize) -> bool {
        self.interval > 0 && (round + 1).is_multiple_of(self.interval)
    }
}

/// The fault schedule's knobs, bundled so experiment binaries can cite
/// one profile per run. The plan runs for [`RunSpec::rounds`] rounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Seed of the fault schedule (independent of the network seed).
    pub seed: u64,
    /// Node churn parameters.
    pub churn: ChurnConfig,
    /// Partition-window parameters.
    pub partitions: PartitionPolicy,
    /// Message-level fault profile.
    pub messages: MessageFaultSpec,
    /// Byzantine-actor parameters (equivocating proposers, false-verdict
    /// verifiers). Inert by default and drawn from a dedicated stream, so
    /// crash-only profiles replay byte-identically.
    pub byzantine: ByzantineConfig,
    /// Stage-boundary churn (crashes landing *inside* a proposal, between
    /// lifecycle stages). Inert by default and drawn from a dedicated
    /// salt, so profiles without it replay byte-identically.
    pub stage_churn: StageChurn,
}

impl Default for FaultProfile {
    /// Default churn with no partitions, message faults, or Byzantine
    /// actors.
    fn default() -> FaultProfile {
        FaultProfile {
            seed: 1,
            churn: ChurnConfig::default(),
            partitions: PartitionPolicy::default(),
            messages: MessageFaultSpec::default(),
            byzantine: ByzantineConfig::default(),
            stage_churn: StageChurn::default(),
        }
    }
}

/// What to run: the workload, how long, and under which faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// Rounds to run. Each proposes one block per workload lane without
    /// faults (RapidChain: one per shard), and one block under faults
    /// (RapidChain visits its shards round-robin).
    pub rounds: usize,
    /// Transactions per proposed block.
    pub txs_per_block: usize,
    /// The transaction stream; its accounts are funded at genesis.
    pub workload: WorkloadConfig,
    /// The fault schedule, or `None` for an honest, live network.
    pub faults: Option<FaultProfile>,
}

impl RunSpec {
    /// A fault-free spec.
    pub fn new(rounds: usize, txs_per_block: usize, workload: WorkloadConfig) -> RunSpec {
        RunSpec {
            rounds,
            txs_per_block,
            workload,
            faults: None,
        }
    }
}

/// One strategy's run, reduced to the reported quantities.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Strategy label for tables.
    pub strategy: String,
    /// Nodes simulated.
    pub nodes: usize,
    /// Blocks committed (excluding genesis; RapidChain counts all shards).
    pub committed_blocks: u64,
    /// Transactions committed.
    pub total_txs: u64,
    /// Per-node storage statistics.
    pub storage: StorageStats,
    /// Bytes of one full ledger replica (denominator for ratios).
    pub ledger_bytes: u64,
    /// Mean messages per committed block.
    pub mean_block_messages: f64,
    /// Mean bytes per committed block.
    pub mean_block_bytes: f64,
    /// Commit latency statistics.
    pub commit_latency: LatencyStats,
    /// Committed transactions per simulated second.
    pub throughput_tps: f64,
    /// Final simulated clock in milliseconds.
    pub final_clock_ms: f64,
    /// Survivability under the fault plan; `None` for fault-free runs.
    pub faults: Option<FaultSummary>,
}

impl RunSummary {
    /// Per-node mean storage over the full-replica size, in `[0, 1]`.
    pub fn storage_fraction(&self) -> f64 {
        if self.ledger_bytes == 0 {
            0.0
        } else {
            self.storage.mean / self.ledger_bytes as f64
        }
    }
}

/// A faulted run's survivability quantities, as `e_fault` and `e_byz`
/// tables report them. Quantities a strategy has no mechanism for stay
/// at their vacuous values: the baselines run no repairs or audits, and
/// full replication has no verdict round to corrupt.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSummary {
    /// Fault-plan groups: clusters for ICIStrategy, 1 for full
    /// replication, committees for RapidChain.
    pub groups: usize,
    /// Rounds executed (== the plan's length).
    pub rounds: usize,
    /// Rounds whose proposal failed or was burned by Byzantine action;
    /// the batch retries next time its lane proposes, so these measure
    /// liveness loss only.
    pub skipped_rounds: usize,
    /// Crash events applied.
    pub crash_events: usize,
    /// Restart events applied.
    pub restart_events: usize,
    /// Crashes injected *between* lifecycle stages of a proposal
    /// (see [`StageChurn`]); each is restarted once the proposal
    /// resolves and its cluster repaired the same round.
    pub stage_crash_events: usize,
    /// Stage-crash rounds whose proposal still committed (the quorum
    /// margin absorbed the mid-round loss).
    pub stage_crash_commits: usize,
    /// Completed crash-and-recover cycles per group (from the plan).
    pub cycles_per_cluster: Vec<usize>,
    /// Cluster repairs attempted after churn rounds.
    pub recovery_attempts: usize,
    /// Repairs that restored the cluster *and* passed the shard-level
    /// Merkle audit afterwards.
    pub recovery_successes: usize,
    /// Intra- and cross-cluster repair transfers executed.
    pub repair_transfers: usize,
    /// Re-replication traffic in bytes (metered as repair).
    pub repair_bytes: u64,
    /// Heights restored by fetching from a foreign cluster.
    pub cross_cluster_fetches: usize,
    /// Heights no live node anywhere still held (permanent loss).
    pub unrecoverable_heights: Vec<u64>,
    /// Fewest live nodes observed at any round start.
    pub min_live_nodes: usize,
    /// Worst per-cluster availability observed after any round's repairs.
    pub min_availability: f64,
    /// Whether every cluster's final shard-level Merkle audit was clean.
    pub final_audit_clean: bool,
    /// Body replicas re-hashed by the final audit.
    pub merkle_shards_verified: usize,
    /// Rounds in which the elected proposer equivocated (two conflicting
    /// blocks for the height, shown to disjoint audience halves).
    pub equivocation_attempts: usize,
    /// Equivocations exposed by the cross-audience exchange (both halves
    /// held at least one honest live witness).
    pub equivocations_detected: usize,
    /// Equivocations that went *undetected* — one audience had no honest
    /// witness, so a conflicting branch could have survived. The run
    /// still refuses to commit either twin; this counts the hazard.
    pub safety_breaches: usize,
    /// Verdicts flipped by live Byzantine verifiers in voting groups.
    pub verdict_flips: usize,
    /// Verdicts withheld by live Byzantine verifiers in voting groups.
    pub verdict_withholds: usize,
    /// Lying verifiers exposed by honest re-verification (a false reject
    /// about a clean block always names its author).
    pub liars_detected: usize,
    /// Rounds lost to Byzantine action (equivocation or a stalled home
    /// group); a subset of `skipped_rounds`.
    pub byz_skipped_rounds: usize,
    /// Remote clusters whose verdict quorum failed under lying/withheld
    /// verdicts in otherwise-committed rounds.
    pub byz_missed_cluster_verdicts: usize,
    /// Bytes spent disseminating blocks that Byzantine action then killed
    /// (equivocating twins, stalled home-group distributions).
    pub wasted_bytes: u64,
    /// Total bytes the run put on the wire (wasted and repair included).
    pub total_bytes: u64,
    /// FNV-1a fingerprint of the plan's canonical rendering.
    pub plan_fingerprint: u64,
    /// The plan's canonical rendering (for replay diffing).
    pub plan_render: String,
}

impl FaultSummary {
    /// Fraction of repair attempts that fully recovered, in `[0, 1]`
    /// (1.0 when nothing needed repair).
    pub fn recovery_success_rate(&self) -> f64 {
        ratio_or_one(self.recovery_successes, self.recovery_attempts)
    }

    /// Fraction of equivocation attempts exposed, in `[0, 1]` (1.0 when
    /// none were attempted).
    pub fn equivocation_detection_rate(&self) -> f64 {
        ratio_or_one(self.equivocations_detected, self.equivocation_attempts)
    }

    /// Fraction of flipped verdicts whose author was exposed, in `[0, 1]`
    /// (1.0 when nobody flipped).
    pub fn liar_detection_rate(&self) -> f64 {
        ratio_or_one(self.liars_detected, self.verdict_flips)
    }

    /// Fraction of all wire bytes Byzantine action wasted, in `[0, 1]`.
    pub fn wasted_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.wasted_bytes as f64 / self.total_bytes as f64
        }
    }

    /// Adds one repair pass's traffic and losses.
    pub(crate) fn absorb_repair(&mut self, report: &RepairReport) {
        self.repair_transfers += report.transfers;
        self.repair_bytes += report.bytes;
        self.cross_cluster_fetches += report.cross_cluster_fetches.len();
        self.unrecoverable_heights
            .extend(report.unrecoverable.iter().copied());
    }
}

fn ratio_or_one(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

/// Runs the strategy `config` builds, as `spec` describes.
///
/// The genesis allocation is derived from the workload so every
/// generated transaction is funded. Each workload lane draws from its
/// own seed-salted generator, so shards never commit the same
/// transactions. Under faults a failed or burned proposal retries the
/// same batch the next time its lane proposes, so nonces stay
/// sequential.
///
/// # Errors
///
/// [`SimError::Config`] if the strategy rejects `config`,
/// [`SimError::Plan`] if the fault profile cannot produce a plan over
/// the strategy's groups, and [`SimError::Commit`] if a fault-free
/// block fails to commit.
pub fn run<C: StrategyConfig>(
    config: C,
    spec: RunSpec,
) -> Result<(C::Strategy, RunSummary), SimError> {
    let _span = ici_telemetry::span!(if spec.faults.is_some() {
        C::Strategy::FAULT_SPAN
    } else {
        C::Strategy::SPAN
    });
    let genesis = GenesisConfig::uniform(spec.workload.accounts, GENESIS_BALANCE);
    let mut strategy = C::Strategy::build(config, genesis)?;
    let mut lanes: Vec<WorkloadGenerator> = (0..strategy.lanes())
        .map(|lane| {
            WorkloadGenerator::new(WorkloadConfig {
                seed: spec.workload.seed ^ (lane as u64).wrapping_mul(0x9E37_79B9),
                ..spec.workload
            })
        })
        .collect();
    let mut series = Series::default();
    let faults = match spec.faults {
        None => {
            // Batches are pre-generated so the pipelined lifecycle can
            // keep several heights in flight; the cumulative counts
            // reproduce the mempool depth a lazy loop would sample.
            let mut generated = 0u64;
            let mut cumulative = Vec::with_capacity(spec.rounds);
            let rounds: Vec<Vec<Vec<Transaction>>> = (0..spec.rounds)
                .map(|_| {
                    let batches: Vec<_> = lanes
                        .iter_mut()
                        .map(|g| g.batch(spec.txs_per_block))
                        .collect();
                    generated += batches.iter().map(|b| b.len() as u64).sum::<u64>();
                    cumulative.push(generated);
                    batches
                })
                .collect();
            strategy.commit_rounds(rounds, &mut |s, round| {
                series.sample(s, round, cumulative[round]);
            })?;
            None
        }
        Some(profile) => Some(run_faults(
            &mut strategy,
            &spec,
            profile,
            &mut lanes,
            &mut series,
        )?),
    };
    let suffix = if faults.is_some() { "+faults" } else { "" };
    series.finish(
        &format!("{}{suffix}", C::Strategy::LABEL),
        strategy.net().len(),
    );
    strategy.net().meter().publish_telemetry();
    let summary = summarize(&strategy, faults);
    Ok((strategy, summary))
}

/// The faulted loop: one plan round per iteration, one lane proposing.
fn run_faults<S: Strategy>(
    s: &mut S,
    spec: &RunSpec,
    profile: FaultProfile,
    lanes: &mut [WorkloadGenerator],
    series: &mut Series,
) -> Result<FaultSummary, SimError> {
    let groups = s.fault_groups();
    let mut f = FaultSummary {
        groups: groups.len(),
        rounds: spec.rounds,
        min_live_nodes: s.net().len(),
        min_availability: 1.0,
        final_audit_clean: true,
        ..FaultSummary::default()
    };
    let plan = FaultPlanConfig::new(profile.seed, spec.rounds, groups)
        .churn(profile.churn)
        .partitions(profile.partitions)
        .messages(profile.messages)
        .byzantine(profile.byzantine)
        .build()?;
    f.plan_render = plan.render();
    f.plan_fingerprint = plan.fingerprint();
    f.cycles_per_cluster = plan.cycles_per_cluster();
    let mut scheduler = FaultScheduler::new(plan);

    let mut pending: Vec<Option<Vec<Transaction>>> = vec![None; lanes.len()];
    let mut generated = 0u64;
    while let Some(round) = scheduler.step() {
        // 1. Scheduled churn (restarts come back disk-intact), then the
        //    round's message faults on the send path.
        mark_churn(s, "faults/restart", &round.restarts, round.round);
        for node in &round.restarts {
            s.recover(*node);
        }
        mark_churn(s, "faults/crash", &round.crashes, round.round);
        for node in &round.crashes {
            s.crash(*node);
        }
        f.restart_events += round.restarts.len();
        f.crash_events += round.crashes.len();
        f.min_live_nodes = f.min_live_nodes.min(round.live_nodes);
        s.net_mut().set_faults(round.message_faults.clone());

        // 2. One proposal from this round's lane. An equivocating
        //    proposer burns the round and real dissemination bandwidth
        //    outright; lying or withholding verifiers can stall the home
        //    group's verdict quorum before the commit is attempted.
        let lane = round.round % lanes.len();
        let batch = pending[lane].take().unwrap_or_else(|| {
            let fresh = lanes[lane].batch(spec.txs_per_block);
            generated += fresh.len() as u64;
            fresh
        });
        let mut touched = [&round.crashes[..], &round.restarts[..]].concat();
        let committed = if round.equivocation {
            let (detected, wasted) = burn(s, lane, &batch, true, round.round);
            f.equivocation_attempts += 1;
            f.wasted_bytes += wasted;
            if detected {
                f.equivocations_detected += 1;
            } else {
                f.safety_breaches += 1;
            }
            f.byz_skipped_rounds += 1;
            false
        } else {
            let (stalled, missed) = tally_verdicts(s, lane, &round, &mut f);
            if stalled {
                // The leader distributed the block before the verdict
                // stalled — that traffic is the liars' bandwidth cost.
                f.wasted_bytes += burn(s, lane, &batch, false, round.round).1;
                f.byz_skipped_rounds += 1;
                false
            } else {
                f.byz_missed_cluster_verdicts += missed;
                let stage_mix = profile.stage_churn.fires(round.round).then(|| {
                    ici_trace::derive_id(profile.seed ^ STAGE_CHURN_SALT, round.round as u64)
                });
                let (ok, victim) = s.propose(lane, batch.clone(), stage_mix, round.round);
                if let Some(victim) = victim {
                    f.stage_crash_events += 1;
                    f.stage_crash_commits += usize::from(ok);
                    touched.push(victim);
                }
                ok
            }
        };
        if !committed {
            f.skipped_rounds += 1;
            pending[lane] = Some(batch);
        }

        // 3. Healing, then a sample of the healed state.
        s.heal(&touched, &mut f);
        series.sample(s, round.round, generated);
    }

    // Faults end with the plan; the strategy heals and audits the rest.
    s.net_mut().clear_faults();
    s.finish(&mut f);
    f.unrecoverable_heights.sort_unstable();
    f.unrecoverable_heights.dedup();
    f.total_bytes = s.net().meter().total().bytes;
    for (name, value) in [
        ("sim/fault_repair_bytes", f.repair_bytes),
        ("faults/equivocations", f.equivocation_attempts as u64),
        (
            "faults/equivocations_detected",
            f.equivocations_detected as u64,
        ),
        ("faults/verdict_flips", f.verdict_flips as u64),
        ("faults/liars_detected", f.liars_detected as u64),
        ("sim/byz_wasted_bytes", f.wasted_bytes),
    ] {
        ici_telemetry::counter_add(name, ici_telemetry::Label::Global, value);
    }
    Ok(f)
}

/// Elects `lane`'s live leader from its tip: the parent header, the
/// leader, and the live candidates in their original order. `None` when
/// nobody can propose.
pub(crate) fn elect_leader<S: Strategy>(
    s: &S,
    lane: usize,
) -> Option<(BlockHeader, NodeId, Vec<NodeId>)> {
    let (tip, candidates) = s.proposer(lane)?;
    let net = s.net();
    let leader = elect_live_leader(&tip.id(), tip.height + 1, &candidates, |n| net.is_up(n))?;
    let live = candidates.into_iter().filter(|n| net.is_up(*n)).collect();
    Some((tip, leader, live))
}

/// Meters a block that Byzantine action kills, as the elected leader
/// disseminates it. An equivocating leader (`twins`) shows conflicting
/// twins to disjoint halves of its live audience, which then cross-check
/// their headers; detection happens exactly when both halves hold a
/// witness. A stalled verdict costs the full distribution plus one
/// all-pairs vote round that fails to reach quorum. Returns
/// `(detected, wasted_bytes)`.
fn burn<S: Strategy>(
    s: &mut S,
    lane: usize,
    batch: &[Transaction],
    twins: bool,
    round: usize,
) -> (bool, u64) {
    let Some((tip, leader, live)) = elect_leader(s, lane) else {
        // No live proposer: nothing disseminated, nothing conflicts.
        return (true, 0);
    };
    if twins && ici_trace::enabled() {
        ici_trace::mark(
            "byz/equivocation",
            s.now().as_micros(),
            tip.height + 1,
            group_of(s, leader),
            Some(leader.get()),
            ici_trace::derive_id(FAULT_MARK_SALT ^ 0xE9, round as u64 ^ leader.get()),
            0,
        );
    }
    // One twin sizes both: the bodies are identical, the headers differ
    // only in timestamp.
    let body_bytes = s.body_bytes(&tip, leader, batch);
    let audience: Vec<NodeId> = live.iter().copied().filter(|m| *m != leader).collect();
    let split = if twins { audience.len() / 2 } else { 0 };
    let (half_a, half_b) = audience.split_at(split);
    let before = s.net().meter().total().bytes;
    for half in [half_a, half_b] {
        for (index, member) in half.iter().enumerate() {
            let (kind, bytes) = s.delivery(index, body_bytes);
            let _ = s.net_mut().send(leader, *member, kind, bytes);
        }
    }
    if twins {
        S::cross_check(s.net_mut(), &audience);
    } else {
        all_pairs_vote(s.net_mut(), &live);
    }
    let detected = !half_a.is_empty() && !half_b.is_empty();
    (detected, s.net().meter().total().bytes - before)
}

/// Tallies each voting group's verdict on an honest block under the
/// scheduled flips and withholds, updating the lie accounting. Honest
/// members vote `Accept`; every false reject in a group with at least
/// one honest member is exposed by re-verification. Returns whether the
/// home group stalled and how many other groups missed their quorum.
fn tally_verdicts<S: Strategy>(
    s: &S,
    lane: usize,
    round: &ScheduledRound,
    f: &mut FaultSummary,
) -> (bool, usize) {
    let (mut stalled, mut missed) = (false, 0);
    if round.verdict_faults.is_empty() {
        return (stalled, missed);
    }
    for (live, home) in s.verdict_groups(lane) {
        let count = |kind: VerdictFault| {
            let faults = round.verdict_faults.iter();
            faults
                .filter(|(n, k)| *k == kind && live.contains(n))
                .count()
        };
        let (flips, withholds) = (count(VerdictFault::Flip), count(VerdictFault::Withhold));
        if live.is_empty() || flips + withholds == 0 {
            continue;
        }
        let honest = live.len() - flips - withholds;
        f.verdict_flips += flips;
        f.verdict_withholds += withholds;
        if honest > 0 {
            f.liars_detected += flips;
        }
        let votes = std::iter::repeat_n(VerifierVote::Accept, honest)
            .chain(std::iter::repeat_n(VerifierVote::Reject, flips))
            .chain(std::iter::repeat_n(VerifierVote::Withhold, withholds));
        if tally_votes(votes, live.len()).outcome() != VerdictOutcome::Accepted {
            if home {
                stalled = true;
            } else {
                missed += 1;
            }
        }
    }
    (stalled, missed)
}

/// Emits one `faults/<what>` instant per churn event so a trace viewer
/// shows crashes and restarts on the timeline of the node they hit.
pub(crate) fn mark_churn<S: Strategy>(s: &S, name: &'static str, nodes: &[NodeId], round: usize) {
    if !ici_trace::enabled() {
        return;
    }
    let at_us = s.now().as_micros();
    for node in nodes {
        ici_trace::mark(
            name,
            at_us,
            0,
            group_of(s, *node),
            Some(node.get()),
            ici_trace::derive_id(FAULT_MARK_SALT ^ round as u64, node.get()),
            0,
        );
    }
}

/// The fault-plan group `node` belongs to, for trace marks.
fn group_of<S: Strategy>(s: &S, node: NodeId) -> Option<u64> {
    let groups = s.fault_groups();
    groups
        .iter()
        .position(|g| g.contains(&node))
        .map(|i| i as u64)
}

/// Per-round time-series samples (see `ici_trace::series`), taken only
/// under `ICI_TELEMETRY=1` like every other exported-but-not-committed
/// section.
#[derive(Default)]
struct Series {
    samples: Vec<RoundSample>,
    tracker: TrafficTracker,
}

impl Series {
    fn sample<S: Strategy>(&mut self, s: &S, round: usize, generated_txs: u64) {
        if !ici_telemetry::enabled() {
            return;
        }
        let commits = s.commits();
        let committed_txs = commits.iter().map(|c| c.txs).sum();
        let meter = s.net().meter();
        let traffic = self.tracker.delta(
            meter
                .by_kind()
                .iter()
                .map(|(kind, c)| (kind.name(), c.messages, c.bytes)),
        );
        self.samples.push(RoundSample {
            round: round as u64,
            height: commits.last().map_or(0, |c| c.height),
            at_us: s.now().as_micros(),
            committed_txs,
            mempool_depth: generated_txs.saturating_sub(committed_txs),
            live_nodes: s.net().live_nodes().len() as u64,
            stored_bytes: s.storage_bytes(),
            traffic,
        });
    }

    /// Registers the run's samples under `label/n=<nodes>`.
    fn finish(self, label: &str, nodes: usize) {
        if !self.samples.is_empty() {
            ici_trace::series::push(ici_trace::series::RunSeries {
                run: format!("{label}/n={nodes}"),
                samples: self.samples,
            });
        }
    }
}

fn summarize<S: Strategy>(s: &S, faults: Option<FaultSummary>) -> RunSummary {
    let commits = s.commits();
    let total_txs: u64 = commits.iter().map(|c| c.txs).sum();
    let final_clock_ms = s.now().as_micros() as f64 / 1_000.0;
    let mean = |field: fn(&Commit) -> u64| {
        commits.iter().map(field).sum::<u64>() as f64 / commits.len().max(1) as f64
    };
    RunSummary {
        strategy: S::LABEL.into(),
        nodes: s.net().len(),
        committed_blocks: commits.len() as u64,
        total_txs,
        storage: StorageStats::from_bytes(s.storage_bytes()),
        ledger_bytes: s.ledger_bytes(),
        mean_block_messages: mean(|c| c.messages),
        mean_block_bytes: mean(|c| c.bytes),
        commit_latency: LatencyStats::from_durations(commits.iter().map(|c| c.latency)),
        throughput_tps: if final_clock_ms <= 0.0 {
            0.0
        } else {
            total_txs as f64 / (final_clock_ms / 1_000.0)
        },
        final_clock_ms,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_baselines::full::{FullConfig, FullReplicationNetwork};
    use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
    use ici_core::config::IciConfig;
    use ici_faults::plan::FaultError;
    use ici_net::link::LinkModel;

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            accounts: 32,
            ..WorkloadConfig::default()
        }
    }

    fn quiet_link() -> LinkModel {
        LinkModel {
            max_jitter_ms: 0.0,
            ..LinkModel::default()
        }
    }

    fn ici(nodes: usize, cluster_size: usize) -> IciConfig {
        IciConfig::builder()
            .nodes(nodes)
            .cluster_size(cluster_size)
            .replication(2)
            .link(quiet_link())
            .build()
            .expect("valid")
    }

    /// The fault tests' ICI deployment: 3 clusters of 8, seed 7.
    fn config() -> IciConfig {
        IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .link(quiet_link())
            .seed(7)
            .build()
            .expect("valid")
    }

    /// Like [`config`] on the default jittery link.
    fn jittery() -> IciConfig {
        IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .seed(7)
            .build()
            .expect("valid")
    }

    fn full_config() -> FullConfig {
        FullConfig {
            nodes: 24,
            fanout: 4,
            link: quiet_link(),
            seed: 2,
            ..FullConfig::default()
        }
    }

    fn rc_config() -> RapidChainConfig {
        RapidChainConfig {
            nodes: 24,
            committee_size: 8,
            link: quiet_link(),
            seed: 2,
            ..RapidChainConfig::default()
        }
    }

    fn profile(seed: u64) -> FaultProfile {
        FaultProfile {
            seed,
            churn: ChurnConfig {
                crash_prob: 0.08,
                restart_prob: 0.4,
                cluster_churn_prob: 0.0,
                min_live_per_cluster: 3,
                ..ChurnConfig::default()
            },
            ..FaultProfile::default()
        }
    }

    fn byz_profile(seed: u64) -> FaultProfile {
        FaultProfile {
            byzantine: ByzantineConfig {
                equivocation_prob: 0.3,
                false_verdict_fraction: 0.25,
                flip_prob: 0.35,
                withhold_prob: 0.15,
            },
            ..profile(seed)
        }
    }

    fn stage_profile(seed: u64) -> FaultProfile {
        FaultProfile {
            stage_churn: StageChurn { interval: 2 },
            ..profile(seed)
        }
    }

    /// Runs `config` for 10 rounds of `txs` transactions under `profile`.
    fn faulted<C: StrategyConfig>(
        config: C,
        txs: usize,
        profile: FaultProfile,
    ) -> Result<(C::Strategy, RunSummary, FaultSummary), SimError> {
        let spec = RunSpec {
            faults: Some(profile),
            ..RunSpec::new(10, txs, workload())
        };
        let (network, summary) = run(config, spec)?;
        let faults = summary.faults.clone().expect("faulted run");
        Ok((network, summary, faults))
    }

    #[test]
    fn ici_run_produces_consistent_summary() {
        let (network, summary) = run(ici(24, 8), RunSpec::new(4, 6, workload())).expect("run");
        assert_eq!(summary.committed_blocks, 4);
        assert_eq!(summary.total_txs, 24);
        assert_eq!(summary.storage.nodes, 24);
        assert!(summary.throughput_tps > 0.0);
        assert!(summary.storage_fraction() < 1.0);
        assert!(summary.faults.is_none());
        assert_eq!(network.chain_len(), 5);
    }

    #[test]
    fn full_run_stores_everything() {
        let config = FullConfig {
            nodes: 24,
            link: quiet_link(),
            seed: 1,
            ..FullConfig::default()
        };
        let (_, summary) = run(config, RunSpec::new(4, 6, workload())).expect("run");
        assert_eq!(summary.committed_blocks, 4);
        assert!((summary.storage_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rapidchain_run_commits_in_every_shard() {
        let config = RapidChainConfig {
            nodes: 40,
            committee_size: 10,
            link: quiet_link(),
            seed: 1,
            ..RapidChainConfig::default()
        };
        let (network, summary) = run(config, RunSpec::new(2, 5, workload())).expect("run");
        assert_eq!(network.shard_count(), 4);
        assert_eq!(summary.committed_blocks, 8);
        assert_eq!(summary.total_txs, 40);
        // Each node stores ~1/k of the ledger.
        assert!(summary.storage_fraction() < 0.5);
    }

    #[test]
    fn ici_storage_fraction_is_far_below_full() {
        let (_, ici) = run(ici(32, 16), RunSpec::new(5, 8, workload())).expect("run");
        let full_cfg = FullConfig {
            nodes: 32,
            link: quiet_link(),
            seed: 1,
            ..FullConfig::default()
        };
        let (_, full) = run(full_cfg, RunSpec::new(5, 8, workload())).expect("run");
        assert!(
            ici.storage.mean < full.storage.mean / 3.0,
            "ici {} vs full {}",
            ici.storage.mean,
            full.storage.mean
        );
    }

    #[test]
    fn jittery_summary_is_thread_count_invariant() {
        let spec = RunSpec::new(3, 5, workload());
        ici_par::set_threads(1);
        let (_, serial) = run(jittery(), spec).expect("run");
        ici_par::set_threads(4);
        let (_, parallel) = run(jittery(), spec).expect("run");
        assert_eq!(serial, parallel, "summary must not depend on threads");
    }

    #[test]
    fn same_seed_same_summary() {
        let (_, a) = run(ici(16, 8), RunSpec::new(3, 4, workload())).expect("run");
        let (_, b) = run(ici(16, 8), RunSpec::new(3, 4, workload())).expect("run");
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_run_commits_and_recovers() {
        let (network, summary, f) = faulted(config(), 5, profile(3)).expect("plan builds");
        assert_eq!(f.rounds, 10);
        assert!(f.crash_events > 0, "{}", f.plan_render);
        assert!(summary.committed_blocks + f.skipped_rounds as u64 == 10);
        assert!(f.recovery_attempts > 0);
        assert_eq!(f.recovery_success_rate(), 1.0, "{f:?}");
        assert!(f.final_audit_clean);
        assert!(f.unrecoverable_heights.is_empty());
        assert!(f.min_live_nodes < 24);
        assert!(network.chain_len() > 1);
    }

    #[test]
    fn same_seed_same_fault_summary() {
        let (_, a, _) = faulted(config(), 4, profile(11)).expect("plan");
        let (_, b, _) = faulted(config(), 4, profile(11)).expect("plan");
        assert_eq!(a, b);
        let (_, _, c) = faulted(config(), 4, profile(12)).expect("plan");
        assert_ne!(a.faults.map(|f| f.plan_render), Some(c.plan_render));
    }

    #[test]
    fn fault_summary_is_thread_count_invariant_under_jitter() {
        ici_par::set_threads(1);
        let (_, serial, _) = faulted(jittery(), 4, profile(11)).expect("plan");
        ici_par::set_threads(4);
        let (_, parallel, _) = faulted(jittery(), 4, profile(11)).expect("plan");
        assert_eq!(serial, parallel, "fault run must not depend on threads");
    }

    #[test]
    fn guaranteed_cycles_cover_every_cluster() {
        let (_, _, f) = faulted(config(), 4, profile(5)).expect("plan");
        assert_eq!(f.cycles_per_cluster.len(), f.groups);
        assert!(f.cycles_per_cluster.iter().all(|c| *c >= 1));
    }

    #[test]
    fn churn_events_become_trace_marks() {
        ici_trace::set_enabled(true);
        ici_trace::reset();
        let (_, _, f) = faulted(config(), 4, profile(3)).expect("plan builds");
        let snap = ici_trace::snapshot();
        ici_trace::set_enabled(false);
        ici_trace::reset();
        let crashes: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "faults/crash")
            .collect();
        assert_eq!(crashes.len(), f.crash_events, "one mark per crash");
        for mark in crashes {
            assert_eq!(mark.kind, ici_trace::TraceKind::Mark);
            assert!(mark.node.is_some() && mark.cluster.is_some());
            assert_ne!(mark.id, 0);
        }
        assert_eq!(
            snap.events
                .iter()
                .filter(|e| e.name == "faults/restart")
                .count(),
            f.restart_events
        );
    }

    #[test]
    fn crash_only_profiles_report_no_byzantine_activity() {
        let (_, _, f) = faulted(config(), 4, profile(3)).expect("plan");
        assert_eq!(f.equivocation_attempts, 0);
        assert_eq!(f.verdict_flips + f.verdict_withholds, 0);
        assert_eq!(f.wasted_bytes, 0);
        assert_eq!(f.equivocation_detection_rate(), 1.0);
        assert_eq!(f.liar_detection_rate(), 1.0);
    }

    #[test]
    fn byzantine_run_detects_every_equivocation_and_stays_clean() {
        let (network, summary, f) = faulted(config(), 5, byz_profile(23)).expect("plan");
        assert!(f.equivocation_attempts > 0, "{}", f.plan_render);
        // 8-member clusters with a floor of 3 live: both audience halves
        // always hold an honest witness, so detection is total and no
        // forged branch survives.
        assert_eq!(f.equivocation_detection_rate(), 1.0, "{f:?}");
        assert_eq!(f.safety_breaches, 0);
        assert!(f.wasted_bytes > 0, "equivocation burns bandwidth");
        assert_eq!(
            summary.committed_blocks + f.skipped_rounds as u64,
            f.rounds as u64
        );
        assert!(f.byz_skipped_rounds >= f.equivocation_attempts);
        assert!(f.final_audit_clean, "{f:?}");
        assert!(network.chain_len() > 1, "liveness survives the liars");
    }

    #[test]
    fn byzantine_run_is_deterministic() {
        let (_, a, _) = faulted(config(), 4, byz_profile(29)).expect("plan");
        let (_, b, _) = faulted(config(), 4, byz_profile(29)).expect("plan");
        assert_eq!(a, b);
    }

    #[test]
    fn byzantine_summary_is_thread_count_invariant() {
        ici_par::set_threads(1);
        let (_, serial, _) = faulted(jittery(), 4, byz_profile(29)).expect("plan");
        ici_par::set_threads(4);
        let (_, parallel, _) = faulted(jittery(), 4, byz_profile(29)).expect("plan");
        assert_eq!(serial, parallel, "byz run must not depend on threads");
    }

    #[test]
    fn heavy_flipping_stalls_rounds_but_liars_are_named() {
        let flood = FaultProfile {
            byzantine: ByzantineConfig {
                equivocation_prob: 0.0,
                false_verdict_fraction: 0.4,
                flip_prob: 1.0,
                withhold_prob: 0.0,
            },
            ..profile(13)
        };
        let (_, _, f) = faulted(config(), 4, flood).expect("plan");
        assert!(f.verdict_flips > 0);
        assert!(
            f.byz_skipped_rounds > 0,
            "3-of-8 flipping must stall some home verdicts: {f:?}"
        );
        // Every false reject lands in a cluster with honest members, so
        // every liar is exposed.
        assert_eq!(f.liar_detection_rate(), 1.0, "{f:?}");
        assert!(f.wasted_bytes > 0);
        assert!(f.final_audit_clean);
    }

    #[test]
    fn stage_churn_rounds_recover_and_stay_auditable() {
        let (network, summary, f) = faulted(config(), 4, stage_profile(3)).expect("plan");
        assert!(f.stage_crash_events > 0, "{}", f.plan_render);
        assert!(f.stage_crash_commits <= f.stage_crash_events);
        // Every mid-proposal crash is restarted and its cluster repaired
        // the same round, so nothing stays degraded or lost.
        assert_eq!(f.recovery_success_rate(), 1.0, "{f:?}");
        assert!(f.final_audit_clean, "{f:?}");
        assert!(f.unrecoverable_heights.is_empty());
        assert_eq!(
            summary.committed_blocks + f.skipped_rounds as u64,
            f.rounds as u64
        );
        assert!(network.chain_len() > 1, "liveness survives stage churn");
    }

    #[test]
    fn stage_churn_is_deterministic_and_thread_invariant() {
        ici_par::set_threads(1);
        let (_, serial, _) = faulted(jittery(), 4, stage_profile(11)).expect("plan");
        ici_par::set_threads(4);
        let (_, parallel, _) = faulted(jittery(), 4, stage_profile(11)).expect("plan");
        assert_eq!(serial, parallel, "stage churn must not depend on threads");
    }

    #[test]
    fn inert_stage_churn_leaves_crash_only_runs_byte_stable() {
        let (_, plain, f) = faulted(config(), 4, profile(11)).expect("plan");
        let explicit = FaultProfile {
            stage_churn: StageChurn { interval: 0 },
            ..profile(11)
        };
        let (_, zeroed, _) = faulted(config(), 4, explicit).expect("plan");
        assert_eq!(plain, zeroed);
        assert_eq!(f.stage_crash_events, 0);
    }

    #[test]
    fn impossible_floor_is_a_typed_error() {
        let bad = FaultProfile {
            churn: ChurnConfig {
                min_live_per_cluster: 100,
                ..ChurnConfig::default()
            },
            ..FaultProfile::default()
        };
        assert!(matches!(
            faulted(config(), 4, bad),
            Err(SimError::Plan(FaultError::MinLiveTooHigh { .. }))
        ));
    }

    #[test]
    fn message_faults_still_converge() {
        let lossy = FaultProfile {
            messages: MessageFaultSpec {
                drop_prob: 0.1,
                dup_prob: 0.05,
                delay_prob: 0.1,
                max_extra_delay_ms: 20.0,
            },
            ..profile(9)
        };
        let (_, _, f) = faulted(config(), 4, lossy).expect("plan");
        assert!(f.final_audit_clean, "{f:?}");
        assert_eq!(f.recovery_success_rate(), 1.0);
    }

    #[test]
    fn full_baseline_survives_crash_churn() {
        let (network, summary, f): (FullReplicationNetwork, _, _) =
            faulted(full_config(), 4, profile(3)).expect("plan");
        assert_eq!(summary.strategy, "FullReplication");
        assert_eq!(f.groups, 1);
        assert!(f.crash_events > 0, "{}", f.plan_render);
        assert_eq!(
            summary.committed_blocks + f.skipped_rounds as u64,
            f.rounds as u64
        );
        assert!(f.min_live_nodes < 24);
        assert_eq!(f.verdict_flips, 0, "solo validation has no verdicts");
        assert!(network.chain_len() > 1);
        assert!(f.total_bytes > 0);
    }

    #[test]
    fn rapidchain_baseline_survives_crash_churn() {
        let (network, summary, f): (RapidChainNetwork, _, _) =
            faulted(rc_config(), 4, profile(3)).expect("plan");
        assert_eq!(summary.strategy, "RapidChain");
        assert_eq!(f.groups, 3);
        assert!(f.crash_events > 0, "{}", f.plan_render);
        assert_eq!(
            summary.committed_blocks + f.skipped_rounds as u64,
            f.rounds as u64
        );
        let total_height: u64 = (0..network.shard_count())
            .map(|s| network.shard_chain_len(s) - 1)
            .sum();
        assert_eq!(total_height, summary.committed_blocks);
    }

    #[test]
    fn faulted_rapidchain_shards_commit_disjoint_transactions() {
        let quiet = FaultProfile {
            churn: ChurnConfig {
                crash_prob: 0.0,
                restart_prob: 0.0,
                cluster_churn_prob: 0.0,
                ensure_cycle_per_cluster: false,
                ..ChurnConfig::default()
            },
            ..FaultProfile::default()
        };
        let spec = RunSpec {
            faults: Some(quiet),
            ..RunSpec::new(12, 4, workload())
        };
        let (network, summary) = run(rc_config(), spec).expect("plan");
        assert_eq!(summary.total_txs, 48, "every round commits");
        let mut seen = std::collections::BTreeMap::new();
        for shard in 0..network.shard_count() {
            for height in 1..network.shard_chain_len(shard) {
                let block = network.shard_block(shard, height).expect("committed");
                for tx in block.transactions() {
                    if let Some(other) = seen.insert(tx.id(), shard) {
                        panic!("tx committed in shards {other} and {shard}");
                    }
                }
            }
        }
        assert_eq!(seen.len(), 48);
    }

    #[test]
    fn full_baseline_detects_equivocation() {
        let (_, _, f) = faulted(full_config(), 4, byz_profile(23)).expect("plan");
        assert!(f.equivocation_attempts > 0, "{}", f.plan_render);
        // A live floor of 3 over one 24-node cluster keeps an honest
        // witness in both audience halves: detection is total.
        assert_eq!(f.equivocation_detection_rate(), 1.0, "{f:?}");
        assert_eq!(f.safety_breaches, 0);
        assert!(f.wasted_bytes > 0, "twins burn bandwidth");
        assert!(f.wasted_fraction() > 0.0 && f.wasted_fraction() < 1.0);
        assert_eq!(f.verdict_flips + f.verdict_withholds, 0);
    }

    #[test]
    fn rapidchain_baseline_detects_equivocation_and_names_liars() {
        let (_, _, f) = faulted(rc_config(), 4, byz_profile(23)).expect("plan");
        assert!(f.equivocation_attempts > 0, "{}", f.plan_render);
        assert_eq!(f.equivocation_detection_rate(), 1.0, "{f:?}");
        assert_eq!(f.safety_breaches, 0);
        assert_eq!(f.liar_detection_rate(), 1.0, "{f:?}");
        assert!(f.wasted_bytes > 0);
    }

    #[test]
    fn rapidchain_heavy_flipping_stalls_the_active_committee() {
        let flood = FaultProfile {
            byzantine: ByzantineConfig {
                equivocation_prob: 0.0,
                false_verdict_fraction: 0.4,
                flip_prob: 1.0,
                withhold_prob: 0.0,
            },
            ..profile(13)
        };
        let (_, _, f) = faulted(rc_config(), 4, flood).expect("plan");
        assert!(f.verdict_flips > 0, "{}", f.plan_render);
        // 3 liars in an 8-member committee leave 5 accepts < quorum 6.
        assert!(f.byz_skipped_rounds > 0, "{f:?}");
        assert_eq!(f.liar_detection_rate(), 1.0, "{f:?}");
        assert!(f.wasted_bytes > 0);
    }

    #[test]
    fn baseline_fault_runs_are_deterministic() {
        let (_, a, _) = faulted(full_config(), 4, byz_profile(29)).expect("plan");
        let (_, b, _) = faulted(full_config(), 4, byz_profile(29)).expect("plan");
        assert_eq!(a, b);
        let (_, c, _) = faulted(rc_config(), 4, byz_profile(29)).expect("plan");
        let (_, d, _) = faulted(rc_config(), 4, byz_profile(29)).expect("plan");
        assert_eq!(c, d);
        let render = |s: &RunSummary| s.faults.as_ref().map(|f| f.plan_render.clone());
        assert_ne!(render(&a), render(&c), "different cluster maps");
    }

    #[test]
    fn rapidchain_fault_summary_is_thread_count_invariant() {
        ici_par::set_threads(1);
        let (_, serial, _) = faulted(rc_config(), 4, byz_profile(29)).expect("plan");
        ici_par::set_threads(4);
        let (_, parallel, _) = faulted(rc_config(), 4, byz_profile(29)).expect("plan");
        assert_eq!(serial, parallel, "baseline run must not depend on threads");
    }

    #[test]
    fn sim_errors_name_their_cause() {
        let plan = SimError::Plan(FaultError::ZeroRounds);
        assert!(plan.to_string().contains("fault plan"));
        assert!(std::error::Error::source(&plan).is_some());
        let commit = SimError::Commit {
            strategy: "RapidChain",
            cause: None,
        };
        assert!(commit.to_string().contains("RapidChain"));
        let zero = RunSpec::new(0, 4, workload());
        let faulted = RunSpec {
            faults: Some(profile(1)),
            ..zero
        };
        assert!(matches!(
            run::<IciConfig>(config(), faulted),
            Err(SimError::Plan(FaultError::ZeroRounds))
        ));
    }
}
