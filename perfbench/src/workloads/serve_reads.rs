//! `serve_reads`: the read path beside churn.
//!
//! Set-up commits a chain on the `ici_commit` network. Each request
//! then comes from a uniformly chosen live node: three in four are SPV
//! transaction-proof queries for a uniformly chosen committed
//! transaction, one in four are body fetches for a uniformly chosen
//! height. Every `membership_every`-th op is a membership change,
//! alternating a join (`bootstrap_node`) with a crash of one live node
//! followed by `repair_cluster` on its cluster. A crashed node restarts
//! with its disk intact just before the next join, so at most one node
//! is down and never during a join (see "Known defect" in `README.md`).
//! It is the only workload that reads `storage` holdings instead of
//! writing them, and the joins cover the paper's bootstrapping claim
//! and the recovery planner.

use std::collections::BTreeMap;
use std::time::Instant;

use ici_chain::transaction::TxId;
use ici_cluster::membership::JoinPolicy;
use ici_core::{IciNetwork, QueryTier};
use ici_net::metrics::{Counter, MessageKind};
use ici_net::node::NodeId;
use ici_net::topology::Coord;
use ici_rng::Xoshiro256;

use super::ici_commit::{self, storage_fraction};
use super::{ms_since, traffic, traffic_window, Timings, Values, Workload};
use crate::stats::{median, OpLog};

/// Sizes of the served chain and the request mix.
#[derive(Clone, Debug)]
pub struct Params {
    /// The network and its commit stream.
    pub network: ici_commit::Params,
    /// Blocks committed during set-up.
    pub blocks: usize,
    /// Every this-many ops is a membership change.
    pub membership_every: usize,
}

impl Params {
    /// The benchmark's sizes.
    pub const FULL: Params = Params {
        network: ici_commit::Params::FULL,
        blocks: 200,
        membership_every: 50,
    };
}

/// Side of the square joiners are placed in: the default placement's.
const PLACEMENT_SIDE: f64 = 160.0;

/// Request outcomes summed over the deterministic window.
#[derive(Clone, Debug, Default)]
struct Counts {
    read_latencies_ms: Vec<f64>,
    reads_in_cluster: u64,
    joins: u64,
    join_bytes: u64,
}

/// The `serve_reads` workload.
pub struct ServeReads {
    network: IciNetwork,
    tx_ids: Vec<TxId>,
    rng: Xoshiro256,
    membership_every: usize,
    ops: usize,
    changes: usize,
    down: Option<NodeId>,
    counts: Counts,
    base_traffic: BTreeMap<MessageKind, Counter>,
}

impl ServeReads {
    /// A uniformly chosen live node.
    fn requester(&mut self) -> Result<NodeId, String> {
        let live = self.network.net().live_nodes();
        self.rng
            .choose(&live)
            .copied()
            .ok_or_else(|| "no live node left".to_string())
    }

    /// Whether `server` sits in `requester`'s cluster.
    fn same_cluster(&self, requester: NodeId, server: NodeId) -> bool {
        let m = self.network.membership();
        m.cluster_of(requester) == m.cluster_of(server)
    }

    fn read(&mut self, log: &mut OpLog, t: &mut Timings) -> Result<(), String> {
        let requester = self.requester()?;
        let (ms, outcome) = if self.rng.bounded_u64(4) < 3 {
            let id = self.tx_ids[self.rng.bounded_u64(self.tx_ids.len() as u64) as usize];
            let start = Instant::now();
            let report = self.network.query_transaction(requester, &id);
            let ms = ms_since(start);
            t.record("core.query_transaction", ms);
            let outcome = match report {
                Ok(r) if r.transaction.id() == id => Ok((r.latency, r.server)),
                Ok(r) => Err(format!("asked for tx {id}, got {}", r.transaction.id())),
                Err(e) => Err(format!("query_transaction: {e}")),
            };
            (ms, outcome)
        } else {
            let height = 1 + self.rng.bounded_u64(self.network.chain_len() - 1);
            let start = Instant::now();
            let report = self.network.query_body(requester, height);
            let ms = ms_since(start);
            t.record("core.query_body", ms);
            let body_len = self
                .network
                .block(height)
                .map(|b| b.header().body_len as u64);
            let outcome = match report {
                Ok(r) if r.tier == QueryTier::Local || Some(r.bytes) == body_len => {
                    Ok((r.latency, r.server))
                }
                Ok(r) => Err(format!(
                    "body {height}: got {} bytes, header says {body_len:?}",
                    r.bytes
                )),
                Err(e) => Err(format!("query_body: {e}")),
            };
            (ms, outcome)
        };
        match outcome {
            Ok((latency, server)) => {
                log.ok(ms, 0);
                self.counts.read_latencies_ms.push(latency.as_millis_f64());
                self.counts.reads_in_cluster += u64::from(self.same_cluster(requester, server));
                Ok(())
            }
            Err(e) => {
                log.fail(ms);
                Err(e)
            }
        }
    }

    fn change_membership(&mut self, log: &mut OpLog, t: &mut Timings) -> Result<(), String> {
        self.changes += 1;
        if self.changes % 2 == 1 {
            let coord = Coord::new(
                self.rng.gen_f64() * PLACEMENT_SIDE,
                self.rng.gen_f64() * PLACEMENT_SIDE,
            );
            let start = Instant::now();
            let report = match self.down.take() {
                Some(node) => self.network.recover_node(node),
                None => Ok(()),
            }
            .and_then(|()| {
                self.network
                    .bootstrap_node(coord, JoinPolicy::NearestCentroid)
            });
            let ms = ms_since(start);
            t.record("core.bootstrap_node", ms);
            match report {
                Ok(r) => {
                    log.ok(ms, 0);
                    self.counts.joins += 1;
                    self.counts.join_bytes += r.total_bytes();
                    Ok(())
                }
                Err(e) => {
                    log.fail(ms);
                    Err(format!("bootstrap_node: {e}"))
                }
            }
        } else {
            let victim = self.requester()?;
            let cluster = self.network.membership().cluster_of(victim);
            let start = Instant::now();
            let crashed = self.network.crash_node(victim);
            let repair = crashed.map(|()| self.network.repair_cluster(cluster));
            let ms = ms_since(start);
            self.down = Some(victim);
            t.record("core.repair_cluster", ms);
            match repair {
                Ok(r) if r.unrecoverable.is_empty() => {
                    log.ok(ms, 0);
                    Ok(())
                }
                Ok(r) => {
                    log.fail(ms);
                    Err(format!("repair lost heights {:?}", r.unrecoverable))
                }
                Err(e) => {
                    log.fail(ms);
                    Err(format!("crash_node: {e}"))
                }
            }
        }
    }
}

impl Workload for ServeReads {
    type Params = Params;
    const COMMITS_TXS: bool = false;
    const TIMES_CALLS: bool = true;

    fn setup(p: &Params, seed: u64, setup: &mut Values) -> Result<ServeReads, String> {
        let (mut network, mut generator) = ici_commit::build(&p.network, seed, setup)?;
        let batches: Vec<_> = (0..p.blocks)
            .map(|_| generator.batch(p.network.txs_per_block))
            .collect();
        network
            .propose_blocks_pipelined(batches, ici_par::pipeline_depth(), |_, _| {})
            .map_err(|e| format!("set-up commit failed: {e}"))?;
        let tx_ids = (1..network.chain_len())
            .filter_map(|h| network.block(h))
            .flat_map(|b| b.transactions().iter().map(|tx| tx.id()))
            .collect();
        Ok(ServeReads {
            base_traffic: traffic(network.net().meter()),
            network,
            tx_ids,
            rng: Xoshiro256::seed_from_u64(seed ^ 0x5e4e_7265_6164_7321),
            membership_every: p.membership_every,
            ops: 0,
            changes: 0,
            down: None,
            counts: Counts::default(),
        })
    }

    fn step_ops(&self) -> usize {
        1
    }

    fn step(&mut self, log: &mut OpLog, t: &mut Timings) -> Result<(), String> {
        self.ops += 1;
        if self.ops.is_multiple_of(self.membership_every) {
            self.change_membership(log, t)
        } else {
            self.read(log, t)
        }
    }

    fn window(&mut self, ops: usize) -> Result<Values, String> {
        let c = &self.counts;
        let reads = c.read_latencies_ms.len() as f64;
        let mut out = Values::new();
        out.insert(
            "sim_latency_p50_ms".into(),
            median(&c.read_latencies_ms).unwrap_or(0.0),
        );
        out.insert("storage_fraction".into(), storage_fraction(&self.network));
        out.insert(
            "core.query_intra_cluster_ratio".into(),
            c.reads_in_cluster as f64 / reads,
        );
        if c.joins > 0 {
            out.insert(
                "core.bootstrap_bytes_per_join".into(),
                c.join_bytes as f64 / c.joins as f64,
            );
        }
        traffic_window(
            self.network.net().meter(),
            &self.base_traffic,
            ops,
            &mut out,
        );
        Ok(out)
    }

    fn layer_timings(&self, t: &Timings, _: usize, out: &mut Values) {
        for (key, metric) in [
            ("core.query_transaction", "core.query_transaction_ms_p50"),
            ("core.query_body", "core.query_body_ms_p50"),
            ("core.bootstrap_node", "core.bootstrap_node_ms_p50"),
            ("core.repair_cluster", "core.repair_cluster_ms_p50"),
        ] {
            if let Some(p50) = t.p50(key) {
                out.insert(metric.into(), p50);
            }
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.network.audit_all().iter().find(|r| !r.is_intact()) {
            Some(report) => Err(format!("integrity audit failed after churn: {report:?}")),
            None => Ok(()),
        }
    }
}
