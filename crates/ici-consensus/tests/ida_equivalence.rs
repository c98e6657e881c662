//! Table-driven IDA dissemination against a per-send oracle.
//!
//! On a jitter-free, fault-free network with untraced sends, IDA-gossip
//! reads every delay from the committee's `LinkTable` and charges the
//! whole exchange once. This property pins it to the naive definition
//! written out here: the leader `send`s shard `i mod n` to member `i`,
//! then every live member pulls each further shard index it needs from
//! that index's first live holder (or the leader) with one `send` each,
//! and reconstructs at its `k`-th arrival. Reconstruction times, the
//! whole traffic meter — per kind, in total, per node sent and received,
//! and the hottest receiver — and the sequence-stream position must all
//! agree exactly.

use std::collections::BTreeMap;

use ici_consensus::ida::{run_ida_dissemination, IdaConfig};
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::SimTime;
use ici_net::topology::{Placement, Topology};
use ici_prop::{check, gen, Config, Shrink};
use ici_rng::Xoshiro256;

/// One committee member: its node id and whether it is crashed.
#[derive(Clone, Debug)]
struct Member {
    id: u64,
    crashed: bool,
}

impl Shrink for Member {
    fn shrink_candidates(&self) -> Vec<Self> {
        if self.crashed {
            vec![Member {
                crashed: false,
                ..self.clone()
            }]
        } else {
            Vec::new()
        }
    }
}

/// A committee (distinct ids, in generated — not sorted — order) over a
/// network of `nodes`, the leader's position in it, the body size, and
/// the IDA geometry.
#[derive(Clone, Debug)]
struct Case {
    nodes: u64,
    topo_seed: u64,
    members: Vec<Member>,
    leader_pos: usize,
    body_bytes: u64,
    data_shards: usize,
    parity_shards: usize,
}

impl Case {
    fn config(&self) -> IdaConfig {
        IdaConfig {
            data_shards: self.data_shards,
            parity_shards: self.parity_shards,
        }
    }

    fn network(&self) -> Network {
        let topo = Topology::generate(
            self.nodes as usize,
            &Placement::Uniform { side: 20.0 },
            self.topo_seed,
        );
        let mut net = Network::new(
            topo,
            LinkModel {
                max_jitter_ms: 0.0,
                ..LinkModel::default()
            },
        );
        for m in self.members.iter().filter(|m| m.crashed) {
            net.crash(NodeId::new(m.id));
        }
        net
    }

    fn ids(&self) -> Vec<NodeId> {
        self.members.iter().map(|m| NodeId::new(m.id)).collect()
    }

    fn leader(&self) -> NodeId {
        NodeId::new(self.members[self.leader_pos].id)
    }
}

impl Shrink for Case {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out: Vec<Case> = self
            .members
            .shrink_candidates()
            .into_iter()
            .filter(|members| self.leader_pos < members.len())
            .map(|members| Case {
                members,
                ..self.clone()
            })
            .collect();
        for leader_pos in self.leader_pos.shrink_candidates() {
            out.push(Case {
                leader_pos,
                ..self.clone()
            });
        }
        for body_bytes in self.body_bytes.shrink_candidates() {
            out.push(Case {
                body_bytes,
                ..self.clone()
            });
        }
        for data_shards in self.data_shards.shrink_candidates() {
            if data_shards > 0 {
                out.push(Case {
                    data_shards,
                    ..self.clone()
                });
            }
        }
        for parity_shards in self.parity_shards.shrink_candidates() {
            out.push(Case {
                parity_shards,
                ..self.clone()
            });
        }
        out
    }
}

fn gen_case(rng: &mut Xoshiro256) -> Case {
    // Half the cases stay small, where committees have fewer members
    // than shards and the leader serves unheld indices; the rest reach
    // RapidChain-sized committees.
    let c = if rng.gen_bool(0.5) {
        gen::usize_in(rng, 1, 13)
    } else {
        gen::usize_in(rng, 13, 161)
    };
    let nodes = c + gen::usize_in(rng, 0, c + 1);
    let mut ids: Vec<u64> = (0..nodes as u64).collect();
    rng.shuffle(&mut ids);
    let crash_prob = gen::f64_in(rng, 0.0, 0.4);
    let members = ids[..c]
        .iter()
        .map(|&id| Member {
            id,
            crashed: rng.gen_bool(crash_prob),
        })
        .collect();
    Case {
        nodes: nodes as u64,
        topo_seed: gen::u64_in(rng, 0, 1_000),
        members,
        leader_pos: gen::usize_in(rng, 0, c),
        body_bytes: gen::u64_in(rng, 0, 2_000_000),
        data_shards: gen::usize_in(rng, 1, 33),
        parity_shards: gen::usize_in(rng, 0, 17),
    }
}

/// The definition: scatter, then relay, one `send` per shard.
fn oracle(
    net: &mut Network,
    members: &[NodeId],
    leader: NodeId,
    start: SimTime,
    body_bytes: u64,
    config: &IdaConfig,
) -> BTreeMap<NodeId, SimTime> {
    let mut out = BTreeMap::new();
    if !net.is_up(leader) {
        return out;
    }
    let n = config.total_shards();
    let k = config.data_shards;
    let bytes = config.shard_bytes(body_bytes);
    // Who holds each shard index, and since when, in member order.
    let mut holders: Vec<Vec<(NodeId, SimTime)>> = vec![Vec::new(); n];
    for (i, &m) in members.iter().enumerate() {
        if m == leader {
            holders[i % n].push((m, start));
        } else if let Some(d) = net.send(leader, m, MessageKind::BlockShard, bytes).delay() {
            holders[i % n].push((m, start + d));
        }
    }
    for (i, &m) in members.iter().enumerate() {
        if m == leader || !net.is_up(m) {
            continue;
        }
        let mut arrivals: Vec<SimTime> = holders[i % n]
            .iter()
            .filter(|(node, _)| *node == m)
            .map(|&(_, at)| at)
            .collect();
        for step in 1..n {
            if arrivals.len() >= k {
                break;
            }
            let (from, at) = holders[(i + step) % n]
                .iter()
                .copied()
                .find(|&(node, _)| net.is_up(node))
                .unwrap_or((leader, start));
            if let Some(d) = net.send(from, m, MessageKind::BlockShard, bytes).delay() {
                arrivals.push(at + d);
            }
        }
        if arrivals.len() >= k {
            arrivals.sort_unstable();
            out.insert(m, arrivals[k - 1]);
        }
    }
    out.insert(leader, start);
    out
}

fn equivalent(case: &Case) -> Result<(), String> {
    let members = case.ids();
    let leader = case.leader();
    let config = case.config();
    let start = SimTime::from_micros(1_234);

    let mut fast_net = case.network();
    let table = fast_net.link_table(&members);
    assert!(fast_net.can_fan_out(&table));
    let fast = run_ida_dissemination(
        &mut fast_net,
        &table,
        leader,
        start,
        case.body_bytes,
        &config,
    );
    let mut oracle_net = case.network();
    let expected = oracle(
        &mut oracle_net,
        &members,
        leader,
        start,
        case.body_bytes,
        &config,
    );

    if fast != expected {
        return Err(format!(
            "reconstruction times differ: table {fast:?} vs oracle {expected:?}"
        ));
    }
    let (got, want) = (fast_net.meter(), oracle_net.meter());
    if got.by_kind() != want.by_kind() {
        return Err(format!(
            "by_kind differs: {:?} vs {:?}",
            got.by_kind(),
            want.by_kind()
        ));
    }
    if got.total() != want.total() {
        return Err(format!(
            "total differs: {:?} vs {:?}",
            got.total(),
            want.total()
        ));
    }
    for node in (0..case.nodes).map(NodeId::new) {
        if got.sent_by(node) != want.sent_by(node) {
            return Err(format!(
                "sent_by({node:?}) differs: {:?} vs {:?}",
                got.sent_by(node),
                want.sent_by(node)
            ));
        }
        if got.received_by(node) != want.received_by(node) {
            return Err(format!(
                "received_by({node:?}) differs: {:?} vs {:?}",
                got.received_by(node),
                want.received_by(node)
            ));
        }
    }
    if got.max_received_bytes() != want.max_received_bytes() {
        return Err("max_received_bytes differs".to_string());
    }
    if fast_net.next_send_trace_id() != oracle_net.next_send_trace_id() {
        return Err("sequence streams end at different positions".to_string());
    }
    Ok(())
}

#[test]
fn table_driven_ida_matches_the_per_send_oracle() {
    let result = check(
        "table-driven IDA == per-send oracle",
        &Config {
            seed: 0x6964_6121,
            cases: 64,
            ..Config::default()
        },
        gen_case,
        equivalent,
    );
    if let Err(failure) = result {
        panic!("{failure}");
    }
}

#[test]
fn pinned_geometries_match_the_oracle() {
    // Corners the random sweep may miss: a lone leader; fewer members
    // than shards with a crashed member and the leader last; a single
    // shard index (n = 1); and a RapidChain-sized committee at the
    // default geometry with its first member crashed.
    let member = |id: u64, crashed: bool| Member { id, crashed };
    let cases = [
        Case {
            nodes: 1,
            topo_seed: 1,
            members: vec![member(0, false)],
            leader_pos: 0,
            body_bytes: 10_000,
            data_shards: 16,
            parity_shards: 8,
        },
        Case {
            nodes: 9,
            topo_seed: 2,
            members: vec![
                member(8, false),
                member(3, true),
                member(5, false),
                member(0, false),
                member(6, false),
            ],
            leader_pos: 4,
            body_bytes: 77_777,
            data_shards: 4,
            parity_shards: 3,
        },
        Case {
            nodes: 6,
            topo_seed: 3,
            members: (0..6).map(|id| member(id, false)).collect(),
            leader_pos: 2,
            body_bytes: 5_000,
            data_shards: 1,
            parity_shards: 0,
        },
        Case {
            nodes: 160,
            topo_seed: 4,
            members: (0..128).rev().map(|id| member(id, id == 127)).collect(),
            leader_pos: 37,
            body_bytes: 1_000_000,
            data_shards: 16,
            parity_shards: 8,
        },
    ];
    for case in &cases {
        equivalent(case).unwrap_or_else(|e| panic!("{case:?}: {e}"));
    }
}
