//! Byte- and message-level traffic metering.
//!
//! Every simulated send is charged here, classified by [`MessageKind`], so
//! the communication experiments (E3, E4) can report exactly where the bytes
//! went — full bodies vs headers vs votes vs repair traffic.

use std::collections::BTreeMap;
use std::fmt;

use crate::node::NodeId;

/// Classification of protocol traffic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MessageKind {
    /// Full block (header + body).
    BlockFull,
    /// Block body only (to responsible nodes).
    BlockBody,
    /// Block header only.
    BlockHeader,
    /// Erasure-coded shard of a block (IDA-gossip).
    BlockShard,
    /// Transaction gossip.
    Transaction,
    /// Consensus / verification vote.
    Vote,
    /// Query for a block, body, or proof.
    Query,
    /// Response carrying a body or Merkle proof.
    Response,
    /// Bootstrap download traffic.
    Bootstrap,
    /// Repair / re-replication traffic after failures.
    Repair,
    /// Membership and other control-plane messages.
    Control,
}

impl MessageKind {
    /// Stable lowercase name, as used in tables and telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            MessageKind::BlockFull => "block-full",
            MessageKind::BlockBody => "block-body",
            MessageKind::BlockHeader => "block-header",
            MessageKind::BlockShard => "block-shard",
            MessageKind::Transaction => "transaction",
            MessageKind::Vote => "vote",
            MessageKind::Query => "query",
            MessageKind::Response => "response",
            MessageKind::Bootstrap => "bootstrap",
            MessageKind::Repair => "repair",
            MessageKind::Control => "control",
        }
    }

    /// All kinds, for table rendering.
    pub const ALL: [MessageKind; 11] = [
        MessageKind::BlockFull,
        MessageKind::BlockBody,
        MessageKind::BlockHeader,
        MessageKind::BlockShard,
        MessageKind::Transaction,
        MessageKind::Vote,
        MessageKind::Query,
        MessageKind::Response,
        MessageKind::Bootstrap,
        MessageKind::Repair,
        MessageKind::Control,
    ];
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` (not `write_str`) so `{:<12}`-style table alignment works.
        f.pad(self.name())
    }
}

/// Message/byte counters for one traffic class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    /// Messages counted.
    pub messages: u64,
    /// Payload bytes counted.
    pub bytes: u64,
}

impl Counter {
    fn add(&mut self, bytes: u64) {
        self.add_n(1, bytes);
    }

    fn add_n(&mut self, messages: u64, bytes_each: u64) {
        self.messages += messages;
        self.bytes += messages * bytes_each;
    }
}

/// Aggregated traffic statistics for a run.
#[derive(Clone, Debug, Default)]
pub struct TrafficMeter {
    by_kind: BTreeMap<MessageKind, Counter>,
    sent_by_node: BTreeMap<NodeId, Counter>,
    received_by_node: BTreeMap<NodeId, Counter>,
    total: Counter,
}

impl TrafficMeter {
    /// A meter with all counters at zero.
    pub fn new() -> TrafficMeter {
        TrafficMeter::default()
    }

    /// Charges one message of `bytes` payload from `from` to `to`.
    pub fn record(&mut self, from: NodeId, to: NodeId, kind: MessageKind, bytes: u64) {
        self.by_kind.entry(kind).or_default().add(bytes);
        self.sent_by_node.entry(from).or_default().add(bytes);
        self.received_by_node.entry(to).or_default().add(bytes);
        self.total.add(bytes);
    }

    /// Charges a fan-out of `kind` messages of `bytes` each in one go:
    /// `sent` lists each sender with the messages it sent, `received`
    /// each receiver with the messages addressed to it. Equivalent to one
    /// [`TrafficMeter::record`] per message, but touches the kind and
    /// total counters once and each node's counters once. Both lists
    /// must sum to the same message count; zero-count entries (and an
    /// empty fan-out) leave no trace, as no `record` call would.
    pub fn record_fanout(
        &mut self,
        kind: MessageKind,
        bytes: u64,
        sent: &[(NodeId, u64)],
        received: &[(NodeId, u64)],
    ) {
        let messages: u64 = sent.iter().map(|&(_, n)| n).sum();
        debug_assert_eq!(
            messages,
            received.iter().map(|&(_, n)| n).sum::<u64>(),
            "fan-out senders and receivers disagree on the message count"
        );
        if messages == 0 {
            return;
        }
        self.by_kind.entry(kind).or_default().add_n(messages, bytes);
        for &(node, n) in sent.iter().filter(|&&(_, n)| n > 0) {
            self.sent_by_node.entry(node).or_default().add_n(n, bytes);
        }
        for &(node, n) in received.iter().filter(|&&(_, n)| n > 0) {
            self.received_by_node
                .entry(node)
                .or_default()
                .add_n(n, bytes);
        }
        self.total.add_n(messages, bytes);
    }

    /// Mirrors the accumulated per-class totals into the workspace
    /// telemetry registry (`net/messages` and `net/bytes`, labelled by
    /// message class). Counters add, so call this exactly once per meter
    /// lifetime — the simulation runners do it at end of run, keeping
    /// [`TrafficMeter::record`] free of any per-send telemetry cost.
    pub fn publish_telemetry(&self) {
        if !ici_telemetry::enabled() {
            return;
        }
        for (kind, c) in &self.by_kind {
            let phase = ici_telemetry::Label::Phase(kind.name());
            ici_telemetry::counter_add("net/messages", phase, c.messages);
            ici_telemetry::counter_add("net/bytes", phase, c.bytes);
        }
    }

    /// Total over all classes.
    pub fn total(&self) -> Counter {
        self.total
    }

    /// Counter for one class.
    pub fn kind(&self, kind: MessageKind) -> Counter {
        self.by_kind.get(&kind).copied().unwrap_or_default()
    }

    /// Per-class table, ascending by kind.
    pub fn by_kind(&self) -> &BTreeMap<MessageKind, Counter> {
        &self.by_kind
    }

    /// Bytes sent by `node`.
    pub fn sent_by(&self, node: NodeId) -> Counter {
        self.sent_by_node.get(&node).copied().unwrap_or_default()
    }

    /// Bytes received by `node`.
    pub fn received_by(&self, node: NodeId) -> Counter {
        self.received_by_node
            .get(&node)
            .copied()
            .unwrap_or_default()
    }

    /// The maximum bytes received by any single node (load hotspot).
    pub fn max_received_bytes(&self) -> u64 {
        self.received_by_node
            .values()
            .map(|c| c.bytes)
            .max()
            .unwrap_or(0)
    }

    /// Resets every counter.
    pub fn reset(&mut self) {
        *self = TrafficMeter::default();
    }

    /// Folds another meter's counts into this one.
    pub fn merge(&mut self, other: &TrafficMeter) {
        for (kind, c) in &other.by_kind {
            let e = self.by_kind.entry(*kind).or_default();
            e.messages += c.messages;
            e.bytes += c.bytes;
        }
        for (node, c) in &other.sent_by_node {
            let e = self.sent_by_node.entry(*node).or_default();
            e.messages += c.messages;
            e.bytes += c.bytes;
        }
        for (node, c) in &other.received_by_node {
            let e = self.received_by_node.entry(*node).or_default();
            e.messages += c.messages;
            e.bytes += c.bytes;
        }
        self.total.messages += other.total.messages;
        self.total.bytes += other.total.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_everywhere() {
        let mut m = TrafficMeter::new();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        m.record(a, b, MessageKind::BlockBody, 100);
        m.record(a, b, MessageKind::BlockBody, 50);
        m.record(b, a, MessageKind::Vote, 8);

        assert_eq!(
            m.total(),
            Counter {
                messages: 3,
                bytes: 158
            }
        );
        assert_eq!(
            m.kind(MessageKind::BlockBody),
            Counter {
                messages: 2,
                bytes: 150
            }
        );
        assert_eq!(
            m.kind(MessageKind::Vote),
            Counter {
                messages: 1,
                bytes: 8
            }
        );
        assert_eq!(m.kind(MessageKind::Query), Counter::default());
        assert_eq!(m.sent_by(a).bytes, 150);
        assert_eq!(m.received_by(a).bytes, 8);
        assert_eq!(m.max_received_bytes(), 150);
    }

    #[test]
    fn reset_zeroes() {
        let mut m = TrafficMeter::new();
        m.record(NodeId::new(0), NodeId::new(1), MessageKind::Control, 10);
        m.reset();
        assert_eq!(m.total(), Counter::default());
        assert!(m.by_kind().is_empty());
    }

    #[test]
    fn merge_sums_counters() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut m1 = TrafficMeter::new();
        m1.record(a, b, MessageKind::Query, 10);
        let mut m2 = TrafficMeter::new();
        m2.record(a, b, MessageKind::Query, 5);
        m2.record(b, a, MessageKind::Response, 100);
        m1.merge(&m2);
        assert_eq!(
            m1.kind(MessageKind::Query),
            Counter {
                messages: 2,
                bytes: 15
            }
        );
        assert_eq!(m1.total().bytes, 115);
    }

    #[test]
    fn fanout_charge_equals_the_records_it_replaces() {
        let (a, b, c, d) = (
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(7),
        );
        // a, b and c each send one vote to every other member of
        // {a, b, c, d}; idle is listed but sends nothing.
        let idle = NodeId::new(5);
        let senders = [a, b, c];
        let receivers = [a, b, c, d];
        let mut looped = TrafficMeter::new();
        looped.record(d, a, MessageKind::Query, 9);
        let mut bulk = looped.clone();
        let mut sent = Vec::new();
        let mut received: Vec<(NodeId, u64)> = receivers.iter().map(|&r| (r, 0)).collect();
        for &from in &senders {
            let mut n = 0;
            for (slot, &to) in receivers.iter().enumerate() {
                if from != to {
                    looped.record(from, to, MessageKind::Vote, 112);
                    n += 1;
                    received[slot].1 += 1;
                }
            }
            sent.push((from, n));
        }
        sent.push((idle, 0));
        bulk.record_fanout(MessageKind::Vote, 112, &sent, &received);

        assert_eq!(bulk.by_kind(), looped.by_kind());
        assert_eq!(bulk.total(), looped.total());
        for node in (0..8).map(NodeId::new) {
            assert_eq!(bulk.sent_by(node), looped.sent_by(node), "sent_by {node:?}");
            assert_eq!(
                bulk.received_by(node),
                looped.received_by(node),
                "received_by {node:?}"
            );
        }
        assert_eq!(bulk.max_received_bytes(), looped.max_received_bytes());
        assert_eq!(
            bulk.kind(MessageKind::Vote),
            Counter {
                messages: 9,
                bytes: 9 * 112
            }
        );
        // A sender listed with zero messages gets no entry, exactly as
        // no `record` call would create one.
        assert!(!bulk.sent_by_node.contains_key(&idle));

        // Merging bulk- and record-charged meters sums alike.
        let mut merged_bulk = TrafficMeter::new();
        merged_bulk.merge(&bulk);
        merged_bulk.merge(&looped);
        let mut merged_looped = looped.clone();
        merged_looped.merge(&looped);
        assert_eq!(merged_bulk.by_kind(), merged_looped.by_kind());
        assert_eq!(merged_bulk.total(), merged_looped.total());
        assert_eq!(merged_bulk.sent_by(a), merged_looped.sent_by(a));
        assert_eq!(merged_bulk.received_by(d), merged_looped.received_by(d));
    }

    #[test]
    fn empty_fanout_leaves_the_meter_untouched() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut m = TrafficMeter::new();
        // Every sender down or alone: listed, but with zero messages.
        m.record_fanout(MessageKind::Vote, 112, &[(a, 0), (b, 0)], &[(a, 0), (b, 0)]);
        m.record_fanout(MessageKind::Vote, 112, &[], &[]);
        assert!(m.by_kind().is_empty());
        assert_eq!(m.total(), Counter::default());
        assert!(m.sent_by_node.is_empty() && m.received_by_node.is_empty());
        let snapshot = m.by_kind().clone();
        assert!(snapshot.is_empty());

        // reset and merge keep their meaning around bulk charges.
        m.record_fanout(MessageKind::Vote, 112, &[(a, 1)], &[(b, 1)]);
        let mut copy = TrafficMeter::new();
        copy.merge(&m);
        assert_eq!(copy.kind(MessageKind::Vote), m.kind(MessageKind::Vote));
        assert_eq!(copy.received_by(b).bytes, 112);
        m.reset();
        assert!(m.by_kind().is_empty());
        assert_eq!(m.total(), Counter::default());
        assert_eq!(m.sent_by(a), Counter::default());
    }

    #[test]
    fn kind_display_names_are_distinct() {
        let names: std::collections::HashSet<String> =
            MessageKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names.len(), MessageKind::ALL.len());
    }

    #[test]
    fn kind_display_honors_width_and_alignment() {
        assert_eq!(format!("{:<12}|", MessageKind::Vote), "vote        |");
        assert_eq!(format!("{:>12}|", MessageKind::Vote), "        vote|");
        assert_eq!(format!("{:-<6}|", MessageKind::Query), "query-|");
        // Width shorter than the name must not truncate.
        assert_eq!(format!("{:2}", MessageKind::BlockHeader), "block-header");
    }

    #[test]
    fn merge_covers_all_kinds_and_node_tables() {
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let mut m1 = TrafficMeter::new();
        let mut m2 = TrafficMeter::new();
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            m1.record(a, b, kind, i as u64 + 1);
            m2.record(b, c, kind, 10 * (i as u64 + 1));
        }
        m1.merge(&m2);
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            assert_eq!(
                m1.kind(kind),
                Counter {
                    messages: 2,
                    bytes: 11 * (i as u64 + 1)
                },
                "kind {kind}"
            );
        }
        let n = MessageKind::ALL.len() as u64;
        assert_eq!(m1.total().messages, 2 * n);
        assert_eq!(m1.sent_by(a).messages, n);
        assert_eq!(m1.sent_by(b).messages, n);
        assert_eq!(m1.received_by(b).messages, n);
        assert_eq!(m1.received_by(c).messages, n);
        // Per-node totals agree with the grand total.
        let sent: u64 = [a, b, c].iter().map(|&x| m1.sent_by(x).bytes).sum();
        let received: u64 = [a, b, c].iter().map(|&x| m1.received_by(x).bytes).sum();
        assert_eq!(sent, m1.total().bytes);
        assert_eq!(received, m1.total().bytes);
    }

    #[test]
    fn merge_into_empty_meter_is_a_copy() {
        let (a, b) = (NodeId::new(3), NodeId::new(4));
        let mut src = TrafficMeter::new();
        src.record(a, b, MessageKind::Repair, 77);
        let mut dst = TrafficMeter::new();
        dst.merge(&src);
        assert_eq!(dst.kind(MessageKind::Repair), src.kind(MessageKind::Repair));
        assert_eq!(dst.total(), src.total());
        assert_eq!(dst.max_received_bytes(), 77);
    }

    #[test]
    fn publish_mirrors_totals_into_telemetry_registry() {
        ici_telemetry::set_enabled(true);
        ici_telemetry::reset();
        let mut m = TrafficMeter::new();
        m.record(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 112);
        m.record(NodeId::new(1), NodeId::new(0), MessageKind::Vote, 112);
        m.publish_telemetry();
        let snap = ici_telemetry::snapshot();
        ici_telemetry::set_enabled(false);
        let msgs = snap
            .counters
            .iter()
            .find(|c| c.name == "net/messages" && c.label == "phase=vote")
            .expect("net/messages mirrored");
        assert_eq!(msgs.value, 2);
        let bytes = snap
            .counters
            .iter()
            .find(|c| c.name == "net/bytes" && c.label == "phase=vote")
            .expect("net/bytes mirrored");
        assert_eq!(bytes.value, 224);
    }
}
