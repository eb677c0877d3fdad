//! # vf-sched
//!
//! The elastic cluster scheduling layer of the VirtualFlow reproduction
//! (paper §4, evaluated in §6.4).
//!
//! Because virtual node processing makes job resizes semantics-preserving,
//! a scheduler may grow and shrink running jobs freely. This crate provides:
//!
//! * [`scheduler::ElasticWfs`] — Algorithm 1: weighted fair shares
//!   recomputed on every arrival/completion, with resize requests issued to
//!   running jobs;
//! * [`scheduler::StaticPriority`] — the non-elastic baseline the paper
//!   compares against;
//! * [`sim`] — an event-driven cluster simulator replaying job traces,
//!   with fault-plan-driven capacity timelines;
//! * [`trace`] — Table 3's workload mix, Figure 12's 3-job trace, and the
//!   Poisson trace of Figures 13–14;
//! * [`metrics`] — makespan, JCT, queuing delay, and utilization.
//!
//! ## Example
//!
//! ```
//! use vf_sched::scheduler::{ElasticWfs, StaticPriority};
//! use vf_sched::sim::{run_trace, SimConfig};
//! use vf_sched::trace::three_job_trace;
//!
//! let config = SimConfig::v100_cluster(4);
//! let trace = three_job_trace(&config.link);
//! let elastic = run_trace(&trace, &mut ElasticWfs::new(), &config);
//! let static_ = run_trace(&trace, &mut StaticPriority::new(), &config);
//! assert!(elastic.metrics.makespan_s <= static_.metrics.makespan_s);
//! ```

#![warn(missing_docs)]

pub mod fairness;
pub mod job;
pub mod metrics;
pub mod scheduler;
pub mod sim;
pub mod trace;

pub use job::{JobId, JobSpec, JobState};
pub use metrics::{AllocationSample, TraceMetrics};
pub use scheduler::{ElasticWfs, Scheduler, StaticPriority, ThroughputOptimizer, WeightPolicy};
pub use sim::{
    capacity_events_from_faults, run_trace, run_trace_monitored, CapacityEvent, SimConfig,
    SimResult,
};
