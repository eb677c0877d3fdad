//! Cluster topology and hierarchical collectives.
//!
//! The paper's testbed is two 8-GPU servers joined by a 16 Gbps link —
//! exactly the shape where a flat ring all-reduce wastes the fast
//! intra-server interconnect. [`Topology`] models a two-level cluster and
//! prices the standard hierarchical schedule: reduce within each node,
//! ring-all-reduce one shard per node across nodes, then broadcast within
//! nodes.

use crate::allreduce::{ring_allreduce_time_s, LinkProfile};
use serde::{Deserialize, Serialize};

/// A two-level cluster: `gpus_per_node` GPUs in each of `nodes` servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of servers.
    pub nodes: usize,
    /// GPUs per server.
    pub gpus_per_node: usize,
    /// Intra-server interconnect.
    pub intra: LinkProfile,
    /// Inter-server interconnect.
    pub inter: LinkProfile,
}

impl Topology {
    /// The paper's testbed: 2 servers × 8 V100s, NVLink inside, 16 Gbps
    /// between.
    pub fn paper_testbed() -> Self {
        Topology {
            nodes: 2,
            gpus_per_node: 8,
            intra: LinkProfile::nvlink(),
            inter: LinkProfile::paper_testbed(),
        }
    }

    /// Total GPUs.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Time for a flat ring all-reduce across all GPUs, gated by the
    /// slowest link in the ring (the inter-server link once more than one
    /// node participates).
    pub fn flat_allreduce_time_s(&self, bytes: u64, gpus: usize) -> f64 {
        let gpus = gpus.min(self.total_gpus());
        let link = if gpus > self.gpus_per_node || self.nodes == 1 {
            if self.nodes == 1 { self.intra } else { self.inter }
        } else {
            self.intra
        };
        ring_allreduce_time_s(bytes, gpus, &link)
    }

    /// Time for a hierarchical all-reduce across `gpus` GPUs (filled
    /// node-by-node): intra-node reduce + inter-node ring over node leaders
    /// + intra-node broadcast.
    pub fn hierarchical_allreduce_time_s(&self, bytes: u64, gpus: usize) -> f64 {
        let gpus = gpus.min(self.total_gpus());
        if gpus <= 1 {
            return 0.0;
        }
        let full_nodes = gpus / self.gpus_per_node;
        let remainder = gpus % self.gpus_per_node;
        let nodes_used = full_nodes + usize::from(remainder > 0);
        let widest = if full_nodes > 0 { self.gpus_per_node } else { remainder };
        // Phase 1+3: reduce and broadcast within the widest node, each
        // approximated by one ring all-reduce at half cost.
        let intra = ring_allreduce_time_s(bytes, widest, &self.intra);
        if nodes_used <= 1 {
            return intra;
        }
        let inter = ring_allreduce_time_s(bytes, nodes_used, &self.inter);
        intra + inter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed() -> Topology {
        Topology::paper_testbed()
    }

    #[test]
    fn totals_and_construction() {
        let t = testbed();
        assert_eq!(t.total_gpus(), 16);
    }

    #[test]
    fn hierarchical_beats_flat_across_servers() {
        // 100 MB of ResNet-50 gradients over 16 GPUs spanning 2 servers:
        // the flat ring pays the slow link 2(N−1) times; hierarchical pays
        // it only across node leaders.
        let t = testbed();
        let bytes = 100 << 20;
        let flat = t.flat_allreduce_time_s(bytes, 16);
        let hier = t.hierarchical_allreduce_time_s(bytes, 16);
        assert!(hier < flat, "hier {hier} vs flat {flat}");
    }

    #[test]
    fn single_node_needs_no_inter_link() {
        let t = testbed();
        let bytes = 100 << 20;
        let within = t.hierarchical_allreduce_time_s(bytes, 8);
        let flat_within = t.flat_allreduce_time_s(bytes, 8);
        assert!((within - flat_within).abs() / flat_within < 1e-9);
    }

    #[test]
    fn one_gpu_costs_nothing() {
        let t = testbed();
        assert_eq!(t.hierarchical_allreduce_time_s(1 << 20, 1), 0.0);
        assert_eq!(t.flat_allreduce_time_s(1 << 20, 1), 0.0);
    }

    #[test]
    fn gpu_counts_are_capped_at_the_topology() {
        let t = testbed();
        assert_eq!(
            t.hierarchical_allreduce_time_s(1 << 20, 64),
            t.hierarchical_allreduce_time_s(1 << 20, 16)
        );
    }
}
