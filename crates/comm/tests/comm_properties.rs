//! Property-based tests for the communication substrate.

use proptest::prelude::*;
use vf_comm::allreduce::{ring_allreduce_time_s, LinkProfile};
use vf_comm::{BootstrapPolicy, ElasticGroup, Topology, WorkerId};

proptest! {
    /// Ring all-reduce cost is monotone in bytes and nonnegative; a single
    /// worker is free.
    #[test]
    fn allreduce_cost_is_sane(bytes in 1u64..1u64 << 32, workers in 1usize..65) {
        let link = LinkProfile::paper_testbed();
        let t = ring_allreduce_time_s(bytes, workers, &link);
        prop_assert!(t >= 0.0);
        prop_assert_eq!(t == 0.0, workers == 1);
        if workers > 1 {
            prop_assert!(ring_allreduce_time_s(bytes * 2, workers, &link) > t);
        }
    }

    /// Hierarchical all-reduce never loses to the flat ring on the paper
    /// topology (equal within one node, strictly better across nodes for
    /// non-trivial messages).
    #[test]
    fn hierarchical_never_loses(bytes in 1u64 << 16..1u64 << 30, gpus in 1usize..17) {
        let topo = Topology::paper_testbed();
        let flat = topo.flat_allreduce_time_s(bytes, gpus);
        let hier = topo.hierarchical_allreduce_time_s(bytes, gpus);
        prop_assert!(hier <= flat * (1.0 + 1e-9), "gpus={gpus}: {hier} > {flat}");
        if gpus > topo.gpus_per_node {
            prop_assert!(hier < flat, "crossing nodes must strictly win");
        }
    }

    /// Membership: any interleaving of joins/leaves/admissions keeps the
    /// group consistent (no duplicates, generation only moves forward).
    #[test]
    fn membership_stays_consistent(
        ops in proptest::collection::vec((0u32..12, 0u8..3), 1..40),
    ) {
        let mut g = ElasticGroup::new((0..2).map(WorkerId));
        let mut now = 0.0;
        let mut last_gen = g.generation();
        for (w, op) in ops {
            now += 1.0;
            match op {
                0 => g.request_join(WorkerId(w), now, 5.0),
                1 => { g.remove(WorkerId(w), now); }
                _ => { g.admit_ready(now); }
            }
            prop_assert!(g.generation() >= last_gen);
            last_gen = g.generation();
            let mut sorted = g.active().to_vec();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), g.active().len(), "duplicate members");
            // Nobody is simultaneously active and bootstrapping.
            for (w, _) in g.bootstrapping() {
                prop_assert!(!g.active().contains(&w));
            }
            // Async joins never stall the group.
            prop_assert_eq!(g.stall_time_s(BootstrapPolicy::Async, now), 0.0);
        }
    }
}
