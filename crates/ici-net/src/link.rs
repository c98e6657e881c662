//! Point-to-point link model: propagation + serialization + jitter.
//!
//! Message transit time between `a` and `b` for a payload of `s` bytes is
//!
//! ```text
//! t = base + distance(a, b) + s / bandwidth + jitter
//! ```
//!
//! where `distance` comes from the latency-space [`Topology`], `bandwidth`
//! models the sender uplink, and `jitter` is deterministic pseudo-random
//! noise derived from `(seed, from, to, sequence)` so that runs are exactly
//! reproducible.

use crate::node::NodeId;
use crate::time::Duration;
use crate::topology::Topology;

/// Parameters of the link model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Fixed per-message overhead in milliseconds (protocol stack, queuing).
    pub base_ms: f64,
    /// Sender uplink bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// Maximum jitter in milliseconds (uniform in `[0, max_jitter_ms)`).
    pub max_jitter_ms: f64,
    /// Seed mixed into the jitter derivation.
    pub jitter_seed: u64,
}

impl Default for LinkModel {
    /// 1 ms overhead, 20 Mbit/s uplink, up to 2 ms jitter — a conservative
    /// WAN peer, in line with the RapidChain evaluation's bandwidth regime.
    fn default() -> LinkModel {
        LinkModel {
            base_ms: 1.0,
            bandwidth_mbps: 20.0,
            max_jitter_ms: 2.0,
            jitter_seed: 0,
        }
    }
}

impl LinkModel {
    /// Serialization delay for `bytes` at the configured bandwidth.
    pub fn serialization(&self, bytes: u64) -> Duration {
        let ms = (bytes as f64 * 8.0) / (self.bandwidth_mbps * 1_000.0);
        Duration::from_millis_f64(ms)
    }

    /// Deterministic jitter for the `seq`-th message on link `from → to`.
    pub fn jitter(&self, from: NodeId, to: NodeId, seq: u64) -> Duration {
        if self.max_jitter_ms <= 0.0 {
            return Duration::ZERO;
        }
        // SplitMix64 over the tuple for cheap, well-mixed noise.
        let mut z = self
            .jitter_seed
            .wrapping_add(from.get().wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(to.get().wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seq.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_millis_f64(unit * self.max_jitter_ms)
    }

    /// Propagation delay `from → to`: the fixed overhead plus the
    /// latency-space distance. Symmetric, because distance is.
    pub fn propagation(&self, topology: &Topology, from: NodeId, to: NodeId) -> Duration {
        Duration::from_millis_f64(self.base_ms + topology.distance_ms(from, to))
    }

    /// Full transit time of the `seq`-th message `from → to` carrying
    /// `bytes`, over `topology`.
    pub fn transit(
        &self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        seq: u64,
    ) -> Duration {
        self.propagation(topology, from, to)
            + self.serialization(bytes)
            + self.jitter(from, to, seq)
    }
}

/// A committee's members and the propagation delay between every pair of
/// them, computed once.
///
/// Each entry is exactly [`LinkModel::propagation`], so a sender that
/// adds [`LinkModel::serialization`] to an entry gets the same transit
/// time [`LinkModel::transit`] returns on a jitter-free link, to the
/// microsecond. The table depends only on the members' coordinates and
/// the link model, both fixed for a network's life (a joining node only
/// appends coordinates), so a committee that never changes can keep one
/// table for as long as the network lives. Liveness is not in the table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkTable {
    members: Vec<NodeId>,
    /// `c × c` delays in µs, one contiguous row per receiver: the entry
    /// for `from → to` sits at `to * c + from`. Empty when some delay
    /// does not fit a `u32` (over 71 minutes), so no pair is served from
    /// the table.
    delays_us: Vec<u32>,
}

impl LinkTable {
    /// Builds the table for `members`, which must be distinct. Distance
    /// is symmetric, so only one triangle is computed and mirrored.
    pub fn new(topology: &Topology, link: &LinkModel, members: &[NodeId]) -> LinkTable {
        debug_assert!(
            {
                let mut sorted = members.to_vec();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "committee members must be distinct"
        );
        let c = members.len();
        let mut delays_us = vec![0u32; c * c];
        for (to, &b) in members.iter().enumerate() {
            for (from, &a) in members.iter().enumerate().take(to + 1) {
                let Ok(us) = u32::try_from(link.propagation(topology, a, b).as_micros()) else {
                    return LinkTable {
                        members: members.to_vec(),
                        delays_us: Vec::new(),
                    };
                };
                delays_us[to * c + from] = us;
                delays_us[from * c + to] = us;
            }
        }
        LinkTable {
            members: members.to_vec(),
            delays_us,
        }
    }

    /// The committee, in the order it was built with; member indices
    /// elsewhere in this API are positions in this slice.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Position of `node` in the committee.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.members.iter().position(|&m| m == node)
    }

    /// Whether every pair's delay is in the table.
    pub fn is_complete(&self) -> bool {
        self.delays_us.len() == self.members.len() * self.members.len()
    }

    /// Propagation delay from the member at position `from` to the one
    /// at position `to`.
    ///
    /// # Panics
    ///
    /// If either position is out of range or the table is not complete.
    pub fn delay(&self, from: usize, to: usize) -> Duration {
        let c = self.members.len();
        let row = &self.delays_us[to * c..(to + 1) * c];
        Duration::from_micros(u64::from(row[from]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Coord, Placement};

    fn two_node_topology(distance: f64) -> Topology {
        Topology::from_coords(vec![Coord::new(0.0, 0.0), Coord::new(distance, 0.0)])
    }

    #[test]
    fn serialization_scales_with_bytes() {
        let model = LinkModel {
            bandwidth_mbps: 8.0, // 1 byte/µs
            ..LinkModel::default()
        };
        assert_eq!(model.serialization(1_000).as_micros(), 1_000);
        assert_eq!(model.serialization(0), Duration::ZERO);
    }

    #[test]
    fn transit_includes_all_terms() {
        let model = LinkModel {
            base_ms: 2.0,
            bandwidth_mbps: 8.0,
            max_jitter_ms: 0.0,
            jitter_seed: 0,
        };
        let topo = two_node_topology(10.0);
        let t = model.transit(&topo, NodeId::new(0), NodeId::new(1), 1_000, 0);
        // 2 ms base + 10 ms propagation + 1 ms serialization.
        assert_eq!(t.as_micros(), 13_000);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let model = LinkModel {
            max_jitter_ms: 3.0,
            jitter_seed: 42,
            ..LinkModel::default()
        };
        for seq in 0..200 {
            let j1 = model.jitter(NodeId::new(1), NodeId::new(2), seq);
            let j2 = model.jitter(NodeId::new(1), NodeId::new(2), seq);
            assert_eq!(j1, j2);
            assert!(j1.as_millis_f64() < 3.0, "seq {seq}: {j1}");
        }
    }

    #[test]
    fn jitter_varies_over_sequence() {
        let model = LinkModel {
            max_jitter_ms: 3.0,
            jitter_seed: 1,
            ..LinkModel::default()
        };
        let distinct: std::collections::HashSet<u64> = (0..50)
            .map(|seq| {
                model
                    .jitter(NodeId::new(0), NodeId::new(1), seq)
                    .as_micros()
            })
            .collect();
        assert!(
            distinct.len() > 20,
            "only {} distinct jitters",
            distinct.len()
        );
    }

    #[test]
    fn zero_jitter_configuration() {
        let model = LinkModel {
            max_jitter_ms: 0.0,
            ..LinkModel::default()
        };
        assert_eq!(
            model.jitter(NodeId::new(0), NodeId::new(1), 9),
            Duration::ZERO
        );
    }

    #[test]
    fn link_table_entries_equal_jitter_free_transit_and_are_symmetric() {
        let model = LinkModel {
            max_jitter_ms: 0.0,
            ..LinkModel::default()
        };
        let topo = Topology::generate(40, &Placement::Uniform { side: 137.0 }, 9);
        // A shuffled, gapped committee: positions differ from node ids.
        let members: Vec<NodeId> = [31, 2, 17, 0, 39, 8, 23, 11, 5, 26]
            .into_iter()
            .map(NodeId::new)
            .collect();
        let table = LinkTable::new(&topo, &model, &members);
        assert!(table.is_complete());
        assert_eq!(table.members(), &members[..]);
        for (to, &b) in members.iter().enumerate() {
            assert_eq!(table.position(b), Some(to));
            for (from, &a) in members.iter().enumerate() {
                let entry = table.delay(from, to);
                assert_eq!(entry, model.transit(&topo, a, b, 0, from as u64));
                assert_eq!(entry, table.delay(to, from));
                // Serialization adds on top, exactly as in `transit`.
                assert_eq!(
                    entry + model.serialization(4_321),
                    model.transit(&topo, a, b, 4_321, 7)
                );
            }
        }
        assert_eq!(table.position(NodeId::new(1)), None);
    }

    #[test]
    fn link_table_over_u32_micros_is_incomplete() {
        // 5,000 s apart: the delay does not fit a u32 of microseconds.
        let topo = two_node_topology(5_000_000.0);
        let model = LinkModel::default();
        let members = [NodeId::new(0), NodeId::new(1)];
        let table = LinkTable::new(&topo, &model, &members);
        assert!(!table.is_complete());
        assert_eq!(table.members(), &members);
        assert!(LinkTable::new(&topo, &model, &[]).is_complete());
    }

    #[test]
    fn self_send_costs_only_base_and_serialization() {
        let model = LinkModel {
            base_ms: 1.0,
            bandwidth_mbps: 8.0,
            max_jitter_ms: 0.0,
            jitter_seed: 0,
        };
        let topo = Topology::generate(4, &Placement::Uniform { side: 100.0 }, 0);
        let t = model.transit(&topo, NodeId::new(2), NodeId::new(2), 8_000, 0);
        assert_eq!(t.as_micros(), 1_000 + 8_000);
    }
}
