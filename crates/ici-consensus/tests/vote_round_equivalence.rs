//! The one-pass vote round against a per-send oracle.
//!
//! On a jitter-free, fault-free network a vote round runs as one
//! `Network::fan_out` sweep over the committee's `LinkTable`, with one
//! bulk meter charge. This property
//! pins it to the naive definition written out here: every voter calls
//! `Network::send` once per other member, each member counts its own
//! vote at its send time, and a live member's quorum time is its `q`-th
//! arrival. Quorum times and the whole traffic meter — per kind, in
//! total, and per node sent and received — must agree exactly.

use std::collections::BTreeMap;

use ici_consensus::{quorum, run_vote_rounds, VOTE_BYTES};
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::SimTime;
use ici_net::topology::{Placement, Topology};
use ici_prop::{check, gen, Config, Shrink};
use ici_rng::Xoshiro256;

/// One committee member: its node id, whether it is crashed, and when
/// it votes (`None`: not ready, casts no vote).
#[derive(Clone, Debug)]
struct Member {
    id: u64,
    crashed: bool,
    ready_at_us: Option<u64>,
}

impl Shrink for Member {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.crashed {
            out.push(Member {
                crashed: false,
                ..self.clone()
            });
        }
        if let Some(at) = self.ready_at_us {
            for smaller in at.shrink_candidates() {
                out.push(Member {
                    ready_at_us: Some(smaller),
                    ..self.clone()
                });
            }
        }
        out
    }
}

/// A committee (distinct ids, in generated — not sorted — order) over a
/// network of `nodes`, and which quorum the round uses.
#[derive(Clone, Debug)]
struct Case {
    nodes: u64,
    topo_seed: u64,
    members: Vec<Member>,
    /// 0: q = 1, 1: q = quorum(c), 2: q = c.
    q_mode: u8,
}

impl Case {
    fn q(&self) -> usize {
        let c = self.members.len();
        match self.q_mode {
            0 => 1,
            1 => quorum(c),
            _ => c,
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

    fn ready(&self) -> BTreeMap<NodeId, SimTime> {
        self.members
            .iter()
            .filter_map(|m| {
                m.ready_at_us
                    .map(|us| (NodeId::new(m.id), SimTime::from_micros(us)))
            })
            .collect()
    }
}

impl Shrink for Case {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out: Vec<Case> = self
            .members
            .shrink_candidates()
            .into_iter()
            .filter(|members| !members.is_empty())
            .map(|members| Case {
                members,
                ..self.clone()
            })
            .collect();
        for q_mode in self.q_mode.shrink_candidates() {
            out.push(Case {
                q_mode,
                ..self.clone()
            });
        }
        out
    }
}

fn gen_case(rng: &mut Xoshiro256) -> Case {
    // Half the cases stay small, where crash and readiness patterns
    // decide quorums; the rest reach RapidChain-sized committees.
    let c = if rng.gen_bool(0.5) {
        gen::usize_in(rng, 1, 13)
    } else {
        gen::usize_in(rng, 13, 161)
    };
    let nodes = c + gen::usize_in(rng, 0, c + 1);
    let mut ids: Vec<u64> = (0..nodes as u64).collect();
    rng.shuffle(&mut ids);
    let crash_prob = gen::f64_in(rng, 0.0, 0.4);
    let ready_prob = gen::f64_in(rng, 0.5, 1.0);
    let members = ids[..c]
        .iter()
        .map(|&id| Member {
            id,
            crashed: rng.gen_bool(crash_prob),
            ready_at_us: rng
                .gen_bool(ready_prob)
                .then(|| gen::u64_in(rng, 0, 40_000)),
        })
        .collect();
    Case {
        nodes: nodes as u64,
        topo_seed: gen::u64_in(rng, 0, 1_000),
        members,
        q_mode: gen::u64_in(rng, 0, 3) as u8,
    }
}

/// The definition: one `send` per voter per other member.
fn oracle(
    net: &mut Network,
    members: &[NodeId],
    ready: &BTreeMap<NodeId, SimTime>,
    q: usize,
) -> BTreeMap<NodeId, SimTime> {
    let mut arrivals: BTreeMap<NodeId, Vec<SimTime>> = BTreeMap::new();
    for &voter in members {
        let Some(&at) = ready.get(&voter) else {
            continue;
        };
        for &dest in members {
            if dest == voter {
                arrivals.entry(dest).or_default().push(at);
            } else if let Some(delay) = net.send(voter, dest, MessageKind::Vote, VOTE_BYTES).delay()
            {
                arrivals.entry(dest).or_default().push(at + delay);
            }
        }
    }
    arrivals
        .into_iter()
        .filter(|(dest, times)| net.is_up(*dest) && times.len() >= q)
        .map(|(dest, mut times)| {
            times.sort_unstable();
            (dest, times[q - 1])
        })
        .collect()
}

fn equivalent(case: &Case) -> Result<(), String> {
    let members = case.ids();
    let ready = case.ready();
    let q = case.q();

    let mut fast_net = case.network();
    let table = fast_net.link_table(&members);
    assert!(fast_net.sends_are_stream_independent());
    assert!(fast_net.can_fan_out(&table));
    let fast = run_vote_rounds(&mut fast_net, &table, &ready, q, 1);
    let mut oracle_net = case.network();
    let expected = oracle(&mut oracle_net, &members, &ready, q);

    if fast != expected {
        return Err(format!(
            "quorum times differ (q = {q}): one-pass {fast:?} vs oracle {expected:?}"
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
    Ok(())
}

#[test]
fn one_pass_vote_round_matches_the_per_send_oracle() {
    let result = check(
        "one-pass vote round == per-send oracle",
        &Config {
            seed: 0x766f_7465,
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
fn every_quorum_choice_is_covered_at_both_committee_extremes() {
    // Pinned corners the random sweep may miss: a lone member, and a
    // 160-member committee with its first voter crashed and its last
    // member not ready, under each quorum rule.
    for q_mode in 0..3 {
        let lone = Case {
            nodes: 1,
            topo_seed: 1,
            members: vec![Member {
                id: 0,
                crashed: false,
                ready_at_us: Some(5),
            }],
            q_mode,
        };
        equivalent(&lone).expect("lone member");
        let mut members: Vec<Member> = (0..160)
            .rev()
            .map(|id| Member {
                id,
                crashed: false,
                ready_at_us: Some(id * 7 % 1_000),
            })
            .collect();
        members[0].crashed = true;
        members[159].ready_at_us = None;
        let wide = Case {
            nodes: 200,
            topo_seed: 2,
            members,
            q_mode,
        };
        equivalent(&wide).expect("160-member committee");
    }
}
