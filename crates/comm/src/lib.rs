//! # vf-comm
//!
//! Simulated collective communication for the VirtualFlow reproduction.
//!
//! VirtualFlow (MLSys 2022) uses Horovod as the "narrow waist" that connects
//! a *changing* set of worker processes. This crate stands in for it with:
//!
//! * [`allreduce`] — the standard α–β ring cost model used by the step-time
//!   simulator, and the fixed gradient-bucket split;
//! * [`topology`] — two-level (intra-/inter-node) topologies and the
//!   hierarchical all-reduce cost;
//! * [`membership`] — an elastic worker group with generations and the
//!   asynchronous-bootstrap join protocol of paper §5;
//! * [`chaos`] — seeded per-collective fault draws (timeout, abort,
//!   straggler) and the retry loop that prices them.
//!
//! No tensor passes through here: the numeric reduction is
//! `vf_tensor::reduce`, called by the trainer, and this crate models what
//! moving those bytes costs and who is in the ring.
//!
//! ## Example
//!
//! ```
//! use vf_comm::allreduce::{ring_allreduce_time_s, LinkProfile};
//!
//! // Synchronizing 100 MB of ResNet-50 gradients across 8 workers:
//! let t = ring_allreduce_time_s(100 << 20, 8, &LinkProfile::paper_testbed());
//! assert!(t > 0.0);
//! ```

#![warn(missing_docs)]

pub mod allreduce;
pub mod chaos;
pub mod membership;
pub mod topology;

pub use allreduce::LinkProfile;
pub use chaos::{AttemptFault, CollectiveOutcome, CommFaultModel};
pub use membership::{BootstrapPolicy, ElasticGroup, WorkerId};
pub use topology::Topology;
