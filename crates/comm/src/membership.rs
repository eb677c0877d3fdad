//! Elastic worker membership with asynchronous bootstrap.
//!
//! VirtualFlow's elasticity rides on a "narrow waist" communication layer
//! connecting a changing set of worker processes (paper §5, following
//! Or et al. 2020). The key mechanism modeled here is *asynchronous
//! bootstrap*: devices newly assigned to a job warm up on their own
//! (process start, library init, graph build) and only join the group once
//! ready, so the existing workers never idle waiting for them. The ablation
//! bench contrasts this with a blocking join where every worker stalls.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a worker process (one per device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerId(pub u32);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker{}", self.0)
    }
}

/// How joining workers are folded into the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BootstrapPolicy {
    /// New workers bootstrap in the background and join once ready; the
    /// existing group keeps training meanwhile (the paper's approach).
    #[default]
    Async,
    /// The whole group blocks until the new workers finish bootstrapping
    /// (the naive approach the paper avoids).
    Blocking,
}

/// A membership change applied to the group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MembershipEvent {
    /// A worker was requested to join at a time; it becomes ready later.
    JoinRequested {
        /// The joining worker.
        worker: WorkerId,
        /// Simulated time of the request.
        at_s: f64,
        /// Simulated time at which bootstrap completes.
        ready_at_s: f64,
    },
    /// A worker became an active group member.
    Joined {
        /// The worker that joined.
        worker: WorkerId,
        /// Simulated join time.
        at_s: f64,
    },
    /// A worker left the group.
    Left {
        /// The worker that left.
        worker: WorkerId,
        /// Simulated leave time.
        at_s: f64,
    },
}

/// An elastic group of workers with generation tracking.
///
/// Each effective membership change bumps the generation; collective
/// operations are tagged with the generation they were built for, mirroring
/// how Horovod invalidates its communicators on resize.
///
/// # Examples
///
/// ```
/// use vf_comm::membership::{ElasticGroup, WorkerId};
///
/// let mut group = ElasticGroup::new([WorkerId(0), WorkerId(1)]);
/// group.request_join(WorkerId(2), 10.0, 3.0);
/// assert_eq!(group.active().len(), 2);          // still bootstrapping
/// assert_eq!(group.admit_ready(12.0).len(), 0); // not ready yet
/// assert_eq!(group.admit_ready(13.0), vec![WorkerId(2)]);
/// assert_eq!(group.active().len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ElasticGroup {
    generation: u64,
    active: Vec<WorkerId>,
    bootstrapping: BTreeMap<WorkerId, f64>,
    log: Vec<MembershipEvent>,
}

impl ElasticGroup {
    /// Creates a group with the given initial active workers (generation 0).
    pub fn new(workers: impl IntoIterator<Item = WorkerId>) -> Self {
        let mut active: Vec<WorkerId> = workers.into_iter().collect();
        active.sort_unstable();
        active.dedup();
        ElasticGroup {
            generation: 0,
            active,
            bootstrapping: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// The current membership generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Active workers, sorted by id.
    pub fn active(&self) -> &[WorkerId] {
        &self.active
    }

    /// Workers currently bootstrapping, with their ready times.
    pub fn bootstrapping(&self) -> impl Iterator<Item = (WorkerId, f64)> + '_ {
        self.bootstrapping.iter().map(|(&w, &t)| (w, t))
    }

    /// The event log.
    pub fn log(&self) -> &[MembershipEvent] {
        &self.log
    }

    /// Requests that `worker` join; it will be ready `bootstrap_s` seconds
    /// after `now_s`. Re-requesting an active or already-bootstrapping worker
    /// is a no-op.
    pub fn request_join(&mut self, worker: WorkerId, now_s: f64, bootstrap_s: f64) {
        if self.active.contains(&worker) || self.bootstrapping.contains_key(&worker) {
            return;
        }
        let ready_at_s = now_s + bootstrap_s;
        self.bootstrapping.insert(worker, ready_at_s);
        self.log.push(MembershipEvent::JoinRequested {
            worker,
            at_s: now_s,
            ready_at_s,
        });
    }

    /// Promotes every bootstrapping worker whose ready time has passed.
    /// Returns the newly admitted workers (sorted); bumps the generation if
    /// any joined.
    pub fn admit_ready(&mut self, now_s: f64) -> Vec<WorkerId> {
        let ready: Vec<WorkerId> = self
            .bootstrapping
            .iter()
            .filter(|(_, &t)| t <= now_s)
            .map(|(&w, _)| w)
            .collect();
        for &w in &ready {
            self.bootstrapping.remove(&w);
            self.active.push(w);
            self.log.push(MembershipEvent::Joined { worker: w, at_s: now_s });
        }
        if !ready.is_empty() {
            self.active.sort_unstable();
            self.generation += 1;
        }
        ready
    }

    /// Removes `worker` from the group (active or bootstrapping). Returns
    /// whether it was a member; bumps the generation if it was active.
    pub fn remove(&mut self, worker: WorkerId, now_s: f64) -> bool {
        if let Some(pos) = self.active.iter().position(|&w| w == worker) {
            self.active.remove(pos);
            self.generation += 1;
            self.log.push(MembershipEvent::Left { worker, at_s: now_s });
            true
        } else {
            self.bootstrapping.remove(&worker).is_some()
        }
    }

    /// Seconds of whole-group idleness a resize at `now_s` costs under the
    /// given policy: blocking joins stall everyone for the longest pending
    /// bootstrap; async joins cost nothing.
    pub fn stall_time_s(&self, policy: BootstrapPolicy, now_s: f64) -> f64 {
        match policy {
            BootstrapPolicy::Async => 0.0,
            BootstrapPolicy::Blocking => self
                .bootstrapping
                .values()
                .map(|&t| (t - now_s).max(0.0))
                .fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u32) -> WorkerId {
        WorkerId(i)
    }

    #[test]
    fn initial_group_is_generation_zero_sorted_deduped() {
        let g = ElasticGroup::new([w(2), w(0), w(2)]);
        assert_eq!(g.generation(), 0);
        assert_eq!(g.active(), &[w(0), w(2)]);
    }

    #[test]
    fn join_only_takes_effect_after_bootstrap() {
        let mut g = ElasticGroup::new([w(0)]);
        g.request_join(w(1), 0.0, 5.0);
        assert_eq!(g.active(), &[w(0)]);
        assert!(g.admit_ready(4.9).is_empty());
        assert_eq!(g.generation(), 0);
        assert_eq!(g.admit_ready(5.0), vec![w(1)]);
        assert_eq!(g.active(), &[w(0), w(1)]);
        assert_eq!(g.generation(), 1);
    }

    #[test]
    fn duplicate_join_requests_are_ignored() {
        let mut g = ElasticGroup::new([w(0)]);
        g.request_join(w(1), 0.0, 5.0);
        g.request_join(w(1), 1.0, 100.0); // must not extend the bootstrap
        assert_eq!(g.admit_ready(5.0), vec![w(1)]);
    }

    #[test]
    fn joining_an_active_worker_is_a_noop() {
        let mut g = ElasticGroup::new([w(0)]);
        g.request_join(w(0), 0.0, 5.0);
        assert!(g.bootstrapping().next().is_none());
    }

    #[test]
    fn remove_active_bumps_generation() {
        let mut g = ElasticGroup::new([w(0), w(1)]);
        assert!(g.remove(w(1), 1.0));
        assert_eq!(g.active(), &[w(0)]);
        assert_eq!(g.generation(), 1);
        assert!(!g.remove(w(1), 2.0));
    }

    #[test]
    fn remove_bootstrapping_does_not_bump_generation() {
        let mut g = ElasticGroup::new([w(0)]);
        g.request_join(w(1), 0.0, 5.0);
        assert!(g.remove(w(1), 1.0));
        assert_eq!(g.generation(), 0);
        assert!(g.admit_ready(10.0).is_empty());
    }

    #[test]
    fn multiple_ready_workers_join_in_one_generation_bump() {
        let mut g = ElasticGroup::new([w(0)]);
        g.request_join(w(1), 0.0, 1.0);
        g.request_join(w(2), 0.0, 2.0);
        assert_eq!(g.admit_ready(3.0), vec![w(1), w(2)]);
        assert_eq!(g.generation(), 1);
    }

    #[test]
    fn stall_time_depends_on_policy() {
        let mut g = ElasticGroup::new([w(0)]);
        g.request_join(w(1), 0.0, 7.0);
        assert_eq!(g.stall_time_s(BootstrapPolicy::Async, 2.0), 0.0);
        assert!((g.stall_time_s(BootstrapPolicy::Blocking, 2.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn log_records_lifecycle() {
        let mut g = ElasticGroup::new([w(0)]);
        g.request_join(w(1), 0.0, 1.0);
        g.admit_ready(1.0);
        g.remove(w(0), 2.0);
        assert_eq!(g.log().len(), 3);
        assert!(matches!(g.log()[2], MembershipEvent::Left { worker, .. } if worker == w(0)));
    }
}
