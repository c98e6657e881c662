//! PBFT-style intra-cluster commit, message-metered.
//!
//! ICIStrategy commits blocks inside a cluster with a three-phase BFT
//! exchange (pre-prepare → prepare → commit) over the simulated network.
//! Every transmission is metered by the [`Network`] — one
//! [`Network::send`] each, or, for a quiet network's vote rounds, one
//! [`Network::fan_out`] charge that counts the same messages — so the run
//! leaves the communication experiments an exact byte/message trace;
//! latencies come out of the link model and the per-member validation
//! cost.
//!
//! The model is faithful for the honest-crash setting the paper evaluates:
//! crashed members neither validate nor vote, quorums are computed over the
//! configured membership, and a member commits at the arrival of its
//! `2f+1`-th commit vote.

use std::collections::BTreeMap;
use std::sync::Arc;

use ici_net::link::LinkTable;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};

use crate::quorum::quorum;

/// Size of a prepare/commit vote on the wire: block digest (32) + height
/// (8) + voter id (8) + signature (64) ≈ 112 bytes.
pub const VOTE_BYTES: u64 = 112;

/// Outcome of one intra-cluster commit round.
#[derive(Clone, Debug, Default)]
pub struct CommitReport {
    /// When each live member committed the block. Members missing from the
    /// map never reached a commit quorum.
    pub commit_times: BTreeMap<NodeId, SimTime>,
    /// Quorum size used.
    pub quorum: usize,
}

impl CommitReport {
    /// Whether at least a quorum of members committed.
    pub fn is_committed(&self) -> bool {
        self.quorum > 0 && self.commit_times.len() >= self.quorum
    }

    /// Earliest member commit time.
    pub fn first_commit(&self) -> Option<SimTime> {
        self.commit_times.values().min().copied()
    }

    /// Time at which the `quorum`-th member committed — the cluster-level
    /// commit instant.
    pub fn quorum_commit(&self) -> Option<SimTime> {
        if !self.is_committed() {
            return None;
        }
        let mut times: Vec<SimTime> = self.commit_times.values().copied().collect();
        times.sort_unstable();
        Some(times[self.quorum - 1])
    }

    /// Latest member commit time.
    pub fn last_commit(&self) -> Option<SimTime> {
        self.commit_times.values().max().copied()
    }
}

/// Per-member inputs to a commit round.
///
/// ICIStrategy and the baselines differ only in what the leader ships to
/// each member (full block vs body vs header) and how long validation takes
/// (solo vs collaborative share); both are injected as closures.
pub struct PbftInputs<'a, P, V>
where
    P: Fn(NodeId) -> (MessageKind, u64),
    V: Fn(NodeId) -> Duration,
{
    /// Cluster membership (quorums are computed over its length).
    pub members: &'a [NodeId],
    /// The proposing member.
    pub leader: NodeId,
    /// Proposal time.
    pub start: SimTime,
    /// What the leader sends each member: message class and byte count.
    pub payload: P,
    /// How long each member takes to validate before voting prepare.
    pub validation: V,
}

/// Runs one pre-prepare → prepare → commit exchange.
///
/// Returns per-member commit times; traffic lands in `net`'s meter. If the
/// leader is crashed, nobody commits.
pub fn run_pbft_commit<P, V>(net: &mut Network, inputs: PbftInputs<'_, P, V>) -> CommitReport
where
    P: Fn(NodeId) -> (MessageKind, u64),
    V: Fn(NodeId) -> Duration,
{
    let _span = ici_telemetry::span!("consensus/pbft_round");
    let members = inputs.members;
    let c = members.len();
    let q = quorum(c);
    let mut report = CommitReport {
        commit_times: BTreeMap::new(),
        quorum: q,
    };
    if c == 0 || !net.is_up(inputs.leader) {
        ici_telemetry::counter_add("consensus/pbft_aborted", ici_telemetry::Label::Global, 1);
        return report;
    }

    // Phase 1 — pre-prepare: leader ships the payload.
    let mut ready: Vec<Option<SimTime>> = Vec::with_capacity(c);
    let mut payload_bytes = 0u64;
    for &m in members {
        let arrival = if m == inputs.leader {
            Some(inputs.start)
        } else {
            let (kind, bytes) = (inputs.payload)(m);
            payload_bytes += bytes;
            net.send(inputs.leader, m, kind, bytes)
                .delay()
                .map(|d| inputs.start + d)
        };
        ready.push(arrival.map(|at| at + (inputs.validation)(m)));
    }
    if ici_trace::enabled() {
        // Dissemination + validation stage: proposal to the last member
        // becoming vote-ready, keyed by the network's causal context.
        let ctx = net.trace_ctx();
        let done = ready
            .iter()
            .flatten()
            .max()
            .copied()
            .unwrap_or(inputs.start);
        ici_trace::stage(
            "consensus/preprepare",
            inputs.start.as_micros(),
            done.saturating_since(inputs.start).as_micros(),
            ctx.height,
            ctx.cluster,
            Some(inputs.leader.get()),
            payload_bytes,
            ici_trace::derive_id(ctx.parent, 1),
            ctx.parent,
        );
    }

    // Phase 2 — prepare: each ready member broadcasts a vote; a member is
    // *prepared* at its q-th prepare arrival (own vote counts at send time).
    let table = net.link_table(members);
    let prepared = vote_round(net, &table, &ready, q);

    // Phase 3 — commit: same pattern over commit votes.
    let committed = vote_round(net, &table, &prepared, q);

    report.commit_times = by_member(&table, &committed);
    ici_telemetry::counter_add(
        if report.is_committed() {
            "consensus/pbft_committed"
        } else {
            "consensus/pbft_failed"
        },
        ici_telemetry::Label::Global,
        1,
    );
    if let Some(at) = report.quorum_commit() {
        // Simulated commit latency, in sim-clock microseconds.
        ici_telemetry::observe(
            "consensus/pbft_commit_sim_us",
            ici_telemetry::Label::Global,
            at.saturating_since(inputs.start).as_micros(),
        );
        if ici_trace::enabled() {
            let ctx = net.trace_ctx();
            ici_trace::stage(
                "consensus/commit",
                inputs.start.as_micros(),
                at.saturating_since(inputs.start).as_micros(),
                ctx.height,
                ctx.cluster,
                Some(inputs.leader.get()),
                0,
                ici_trace::derive_id(ctx.parent, 2),
                ctx.parent,
            );
        }
    }
    report
}

/// Runs `rounds` successive all-to-all vote exchanges among `table`'s
/// committee, starting from `ready` (per-member readiness times), with
/// quorum `q` per round. Returns the final per-member quorum times. Used
/// directly by consensus variants that handle dissemination themselves
/// (RapidChain's IDA-gossip committees); each round is one
/// [`vote_round`], so quiet networks read every delay from the table.
pub fn run_vote_rounds(
    net: &mut Network,
    table: &LinkTable,
    ready: &BTreeMap<NodeId, SimTime>,
    q: usize,
    rounds: usize,
) -> BTreeMap<NodeId, SimTime> {
    let mut times: Vec<Option<SimTime>> = table
        .members()
        .iter()
        .map(|m| ready.get(m).copied())
        .collect();
    for _ in 0..rounds {
        times = vote_round(net, table, &times, q);
    }
    by_member(table, &times)
}

/// Per-position times as a map keyed by member.
fn by_member(table: &LinkTable, times: &[Option<SimTime>]) -> BTreeMap<NodeId, SimTime> {
    table
        .members()
        .iter()
        .zip(times)
        .filter_map(|(&m, t)| t.map(|t| (m, t)))
        .collect()
}

/// Each member of `table`'s committee with a time in `send_times`
/// (indexed by position) broadcasts a vote at that time; returns, by
/// position, the arrival of the `q`-th vote (its own included) at every
/// live member that collects `q`.
///
/// Where [`Network::can_fan_out`] holds — a jitter-free, fault-free
/// network with untraced sends — no vote's outcome depends on a sequence
/// number, so the round is one [`Network::fan_out`]: each destination's
/// arrivals are read off its table row in one pass, the `q`-th is
/// selected in place, and the meter is charged once per round. Otherwise
/// each voter sends through its own fork (stream = voter id), so the
/// jitter and fault draws — and the trace ids — each vote gets are a
/// function of the voter alone and identical at any `ICI_PAR_THREADS`;
/// the forks run in parallel and their arrivals are gathered per
/// destination. Both paths advance the parent's sequence stream once.
fn vote_round(
    net: &mut Network,
    table: &LinkTable,
    send_times: &[Option<SimTime>],
    q: usize,
) -> Vec<Option<SimTime>> {
    let _span = ici_telemetry::span!("consensus/vote_round");
    let members = table.members();
    let voters: Vec<(usize, SimTime)> = send_times
        .iter()
        .enumerate()
        .filter_map(|(i, at)| at.map(|at| (i, at)))
        .collect();
    let mut out = vec![None; members.len()];
    let quorum_of = |own: Option<SimTime>, arrivals: &mut Vec<SimTime>| {
        arrivals.extend(own);
        (arrivals.len() >= q).then(|| *arrivals.select_nth_unstable(q - 1).1)
    };
    if net.can_fan_out(table) {
        net.fan_out(
            table,
            &voters,
            MessageKind::Vote,
            VOTE_BYTES,
            |dest, arrivals| out[dest] = quorum_of(send_times[dest], arrivals),
        );
        net.advance_stream();
        return out;
    }
    let work: Vec<((usize, SimTime), Network)> = voters
        .iter()
        .map(|&(voter, at)| ((voter, at), net.fork(members[voter].index() as u64)))
        .collect();
    net.advance_stream();
    let dests: Arc<Vec<NodeId>> = Arc::new(members.to_vec());
    let broadcasts = ici_par::par_map(work, move |_, ((voter, at), mut fork)| {
        let from = dests[voter];
        let mut sent: Vec<(usize, SimTime)> = Vec::with_capacity(dests.len());
        for (dest, &to) in dests.iter().enumerate() {
            if dest == voter {
                continue;
            }
            if let Some(delay) = fork.send(from, to, MessageKind::Vote, VOTE_BYTES).delay() {
                sent.push((dest, at + delay));
            }
        }
        (sent, fork)
    });
    let mut sent_lists: Vec<Vec<(usize, SimTime)>> = Vec::with_capacity(broadcasts.len());
    for (sent, fork) in broadcasts {
        net.absorb(fork);
        sent_lists.push(sent);
    }
    // Each voter's list holds at most one arrival per destination, in
    // destination order, so one cursor per list gathers a destination's
    // arrivals into a single scratch buffer.
    let mut cursors = vec![0usize; sent_lists.len()];
    let mut gathered: Vec<SimTime> = Vec::with_capacity(sent_lists.len() + 1);
    for (dest, &node) in members.iter().enumerate() {
        gathered.clear();
        for (sent, cursor) in sent_lists.iter().zip(cursors.iter_mut()) {
            if let Some(&(d, t)) = sent.get(*cursor) {
                if d == dest {
                    gathered.push(t);
                    *cursor += 1;
                }
            }
        }
        if net.is_up(node) {
            out[dest] = quorum_of(send_times[dest], &mut gathered);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_net::link::LinkModel;
    use ici_net::topology::{Placement, Topology};

    fn network(n: usize) -> Network {
        let topo = Topology::generate(n, &Placement::Uniform { side: 20.0 }, 3);
        Network::new(
            topo,
            LinkModel {
                max_jitter_ms: 0.0,
                ..LinkModel::default()
            },
        )
    }

    fn members(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// Serializes the tests that flip the process-global trace flag, so
    /// one test switching tracing off cannot cut another's events short.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn run(net: &mut Network, m: &[NodeId], leader: NodeId) -> CommitReport {
        run_pbft_commit(
            net,
            PbftInputs {
                members: m,
                leader,
                start: SimTime::ZERO,
                payload: |_| (MessageKind::BlockFull, 100_000),
                validation: |_| Duration::from_millis(2),
            },
        )
    }

    #[test]
    fn all_honest_members_commit() {
        let mut net = network(7);
        let m = members(7);
        let report = run(&mut net, &m, NodeId::new(0));
        assert!(report.is_committed());
        assert_eq!(report.commit_times.len(), 7);
        assert_eq!(report.quorum, 5);
        assert!(report.first_commit().expect("committed") > SimTime::ZERO);
        assert!(report.quorum_commit() <= report.last_commit());
    }

    #[test]
    fn traffic_is_metered_per_phase() {
        let mut net = network(4);
        let m = members(4);
        let _ = run(&mut net, &m, NodeId::new(0));
        // Pre-prepare: 3 block sends. Prepare + commit: 4·3 votes each.
        let meter = net.meter();
        assert_eq!(meter.kind(MessageKind::BlockFull).messages, 3);
        assert_eq!(meter.kind(MessageKind::Vote).messages, 24);
        assert_eq!(meter.kind(MessageKind::Vote).bytes, 24 * VOTE_BYTES);
    }

    #[test]
    fn crashed_leader_commits_nothing() {
        let mut net = network(4);
        net.crash(NodeId::new(0));
        let report = run(&mut net, &members(4), NodeId::new(0));
        assert!(!report.is_committed());
        assert!(report.commit_times.is_empty());
        assert_eq!(net.meter().total().messages, 0);
    }

    #[test]
    fn commit_survives_f_crashes() {
        // c=7 tolerates f=2 crashed members.
        let mut net = network(7);
        net.crash(NodeId::new(5));
        net.crash(NodeId::new(6));
        let report = run(&mut net, &members(7), NodeId::new(0));
        assert!(report.is_committed());
        assert_eq!(report.commit_times.len(), 5);
        assert!(!report.commit_times.contains_key(&NodeId::new(5)));
    }

    #[test]
    fn too_many_crashes_block_commit() {
        // c=7, f=2: crashing 3 members leaves only 4 < 2f+1 = 5 voters.
        let mut net = network(7);
        for i in 4..7 {
            net.crash(NodeId::new(i));
        }
        let report = run(&mut net, &members(7), NodeId::new(0));
        assert!(!report.is_committed());
    }

    #[test]
    fn validation_time_delays_commit() {
        let m = members(4);
        let fast = {
            let mut net = network(4);
            run_pbft_commit(
                &mut net,
                PbftInputs {
                    members: &m,
                    leader: NodeId::new(0),
                    start: SimTime::ZERO,
                    payload: |_| (MessageKind::BlockFull, 1_000),
                    validation: |_| Duration::ZERO,
                },
            )
        };
        let slow = {
            let mut net = network(4);
            run_pbft_commit(
                &mut net,
                PbftInputs {
                    members: &m,
                    leader: NodeId::new(0),
                    start: SimTime::ZERO,
                    payload: |_| (MessageKind::BlockFull, 1_000),
                    validation: |_| Duration::from_millis(50),
                },
            )
        };
        let f = fast.quorum_commit().expect("fast commits");
        let s = slow.quorum_commit().expect("slow commits");
        assert!(s.saturating_since(f) >= Duration::from_millis(50));
    }

    #[test]
    fn start_time_offsets_everything() {
        let m = members(4);
        let base = {
            let mut net = network(4);
            run(&mut net, &m, NodeId::new(0))
        };
        let offset = {
            let mut net = network(4);
            run_pbft_commit(
                &mut net,
                PbftInputs {
                    members: &m,
                    leader: NodeId::new(0),
                    start: SimTime::from_millis(1_000),
                    payload: |_| (MessageKind::BlockFull, 100_000),
                    validation: |_| Duration::from_millis(2),
                },
            )
        };
        let b = base.quorum_commit().expect("commits");
        let o = offset.quorum_commit().expect("commits");
        assert_eq!(
            o.saturating_since(b),
            Duration::from_millis(1_000),
            "jitter-free run should shift exactly"
        );
    }

    #[test]
    fn commit_times_are_thread_count_invariant_under_jitter() {
        let m = members(12);
        let mut run_with = |threads: usize| {
            ici_par::set_threads(threads);
            let topo = Topology::generate(12, &Placement::Uniform { side: 20.0 }, 3);
            let mut net = Network::new(topo, LinkModel::default());
            let report = run(&mut net, &m, NodeId::new(0));
            (report.commit_times, net.meter().total().messages)
        };
        let serial = run_with(1);
        let parallel = run_with(4);
        assert_eq!(
            serial, parallel,
            "jittery commit must not depend on threads"
        );
    }

    #[test]
    fn commit_emits_causally_linked_stage_events() {
        let _guard = trace_lock();
        ici_trace::reset();
        ici_trace::set_enabled(true);
        let mut net = network(4);
        net.set_trace_ctx(ici_trace::SendCtx {
            sends: false,
            at_us: 0,
            height: 9,
            cluster: Some(1),
            parent: 4242,
        });
        let report = run(&mut net, &members(4), NodeId::new(0));
        ici_trace::set_enabled(false);
        let snap = ici_trace::snapshot();
        ici_trace::reset();
        assert!(report.is_committed());
        let pre = snap
            .events
            .iter()
            .find(|e| e.name == "consensus/preprepare")
            .expect("preprepare stage");
        let commit = snap
            .events
            .iter()
            .find(|e| e.name == "consensus/commit")
            .expect("commit stage");
        assert_eq!((pre.height, pre.cluster, pre.parent), (9, Some(1), 4242));
        assert_eq!(commit.parent, 4242);
        assert_eq!(pre.id, ici_trace::derive_id(4242, 1));
        assert_eq!(commit.id, ici_trace::derive_id(4242, 2));
        assert!(pre.bytes > 0, "pre-prepare carries the payload bytes");
        assert_eq!(
            commit.dur_us,
            report.quorum_commit().expect("commits").as_micros()
        );
        // Context did not opt sends in: stage summaries only.
        assert!(snap
            .events
            .iter()
            .all(|e| e.kind != ici_trace::TraceKind::Send));
    }

    #[test]
    fn traced_sends_keep_one_event_per_vote_on_a_quiet_network() {
        let _guard = trace_lock();
        let c = 6u64;
        let m = members(c);
        let ready: BTreeMap<NodeId, SimTime> = m
            .iter()
            .map(|&v| (v, SimTime::from_micros(10 * v.get())))
            .collect();
        let q = quorum(m.len());
        let ctx = ici_trace::SendCtx {
            sends: true,
            at_us: 0,
            height: 5,
            cluster: Some(3),
            parent: 777,
        };
        let mut traced_net = network(c as usize);
        traced_net.set_trace_ctx(ctx);
        // The ids the per-voter forks hand out: stream = voter id, one
        // sequence number per send in destination order.
        let mut probe = traced_net.clone();
        let mut expected_ids = Vec::new();
        for &voter in &m {
            let mut fork = probe.fork(voter.index() as u64);
            for &dest in m.iter().filter(|&&d| d != voter) {
                expected_ids.push(fork.next_send_trace_id());
                fork.send(voter, dest, MessageKind::Vote, VOTE_BYTES);
            }
        }

        ici_trace::reset();
        ici_trace::set_enabled(true);
        let table = traced_net.link_table(&m);
        let traced = run_vote_rounds(&mut traced_net, &table, &ready, q, 1);
        ici_trace::set_enabled(false);
        let snap = ici_trace::snapshot();
        ici_trace::reset();

        let sends: Vec<&ici_trace::TraceEvent> = snap
            .events
            .iter()
            .filter(|e| e.kind == ici_trace::TraceKind::Send)
            .collect();
        assert_eq!(sends.len() as u64, c * (c - 1), "one event per vote");
        for e in &sends {
            assert_eq!(e.name, MessageKind::Vote.name());
            assert_eq!((e.height, e.cluster, e.parent), (5, Some(3), 777));
            assert_eq!(e.bytes, VOTE_BYTES);
        }
        let mut ids: Vec<u64> = sends.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        expected_ids.sort_unstable();
        assert_eq!(ids, expected_ids, "ids come from per-voter fork streams");

        // Tracing changes no outcome: the untraced one-pass round agrees.
        let mut quiet = network(c as usize);
        let fast = run_vote_rounds(&mut quiet, &table, &ready, q, 1);
        assert_eq!(traced, fast);
        assert_eq!(traced_net.meter().by_kind(), quiet.meter().by_kind());
        for node in &m {
            assert_eq!(
                traced_net.meter().sent_by(*node),
                quiet.meter().sent_by(*node)
            );
            assert_eq!(
                traced_net.meter().received_by(*node),
                quiet.meter().received_by(*node)
            );
        }
    }

    #[test]
    fn single_member_cluster_commits_instantly_after_validation() {
        let mut net = network(1);
        let m = members(1);
        let report = run(&mut net, &m, NodeId::new(0));
        assert!(report.is_committed());
        assert_eq!(
            report.commit_times[&NodeId::new(0)],
            SimTime::ZERO + Duration::from_millis(2)
        );
    }
}
