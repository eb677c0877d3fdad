//! A simulated wall clock.
//!
//! All performance experiments run on simulated time: device cost models and
//! the cluster scheduler advance a [`SimClock`] rather than sleeping. Time is
//! `f64` seconds from simulation start.

/// A monotonically advancing simulated clock.
///
/// # Examples
///
/// ```
/// use vf_device::SimClock;
///
/// let mut clock = SimClock::new();
/// clock.advance(1.5);
/// clock.advance(0.5);
/// assert_eq!(clock.now(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now_s: f64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        SimClock { now_s: 0.0 }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Advances the clock by `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or NaN — simulated time never rewinds.
    pub fn advance(&mut self, dt_s: f64) {
        assert!(dt_s >= 0.0, "clock cannot advance by {dt_s}");
        self.now_s += dt_s;
    }

    /// Advances the clock to the absolute time `t_s` if it is in the future;
    /// does nothing otherwise. Returns the new current time.
    pub fn advance_to(&mut self, t_s: f64) -> f64 {
        if t_s > self.now_s {
            self.now_s = t_s;
        }
        self.now_s
    }
}

/// A simulated clock with two independent lanes: compute and communication.
///
/// Overlapped execution advances the lanes separately — backward waves on
/// the compute lane, bucketed collectives on the comm lane — and the step
/// ends at the *join* (max of lanes), not their sum. Communication is
/// sequential within its lane (one ring collective at a time), so each
/// bucket starts at the later of its gradient-ready time and the moment
/// the lane frees up.
///
/// # Examples
///
/// ```
/// use vf_device::TwoLaneClock;
///
/// let mut lanes = TwoLaneClock::new(10.0);
/// lanes.advance_compute(2.0);              // compute ends at 12.0
/// assert_eq!(lanes.begin_comm(11.0), 11.0); // first bucket ready mid-backward
/// lanes.advance_comm(0.25);
/// assert_eq!(lanes.begin_comm(11.1), 11.25); // lane busy until 11.25
/// lanes.advance_comm(0.25);
/// assert_eq!(lanes.join(), 12.0);           // comm fully hidden
/// assert_eq!(lanes.exposed_comm_s(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLaneClock {
    compute_s: f64,
    comm_s: f64,
}

impl TwoLaneClock {
    /// Both lanes aligned at `start_s`.
    pub fn new(start_s: f64) -> Self {
        TwoLaneClock { compute_s: start_s, comm_s: start_s }
    }

    /// Advances the compute lane by `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or NaN — simulated time never rewinds.
    pub fn advance_compute(&mut self, dt_s: f64) {
        assert!(dt_s >= 0.0, "compute lane cannot advance by {dt_s}");
        self.compute_s += dt_s;
    }

    /// Starts the next collective on the comm lane: the lane jumps forward
    /// to `ready_s` if it is idle before then (a collective cannot start
    /// before its gradients exist), and the start time is returned.
    pub fn begin_comm(&mut self, ready_s: f64) -> f64 {
        self.comm_s = self.comm_s.max(ready_s);
        self.comm_s
    }

    /// Advances the comm lane by `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or NaN.
    pub fn advance_comm(&mut self, dt_s: f64) {
        assert!(dt_s >= 0.0, "comm lane cannot advance by {dt_s}");
        self.comm_s += dt_s;
    }

    /// The join of the lanes — when a synchronous step is over.
    pub fn join(&self) -> f64 {
        self.compute_s.max(self.comm_s)
    }

    /// Comm time sticking out past the end of compute: the exposed (not
    /// overlapped) communication cost of the step.
    pub fn exposed_comm_s(&self) -> f64 {
        (self.comm_s - self.compute_s).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), 0.0);
    }

    #[test]
    fn advance_accumulates() {
        let mut c = SimClock::new();
        c.advance(2.0);
        c.advance(3.0);
        assert_eq!(c.now(), 5.0);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let mut c = SimClock::new();
        c.advance(5.0);
        assert_eq!(c.advance_to(3.0), 5.0);
        assert_eq!(c.advance_to(7.0), 7.0);
    }

    #[test]
    #[should_panic]
    fn negative_advance_panics() {
        SimClock::new().advance(-1.0);
    }

    #[test]
    fn two_lanes_join_at_the_max() {
        let mut lanes = TwoLaneClock::new(0.0);
        lanes.advance_compute(4.0);
        assert_eq!(lanes.begin_comm(3.0), 3.0);
        lanes.advance_comm(2.5); // comm lane ends at 5.5 > compute 4.0
        assert_eq!(lanes.join(), 5.5);
        assert!((lanes.exposed_comm_s() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn comm_lane_is_sequential_and_respects_ready_times() {
        let mut lanes = TwoLaneClock::new(1.0);
        // Lane idle: starts at the ready time.
        assert_eq!(lanes.begin_comm(2.0), 2.0);
        lanes.advance_comm(3.0); // busy until 5.0
        // Lane busy past the ready time: queued behind the previous bucket.
        assert_eq!(lanes.begin_comm(4.0), 5.0);
        // A ready time in the lane's past never rewinds it.
        assert_eq!(lanes.begin_comm(0.0), 5.0);
    }

    #[test]
    fn hidden_comm_exposes_nothing() {
        let mut lanes = TwoLaneClock::new(0.0);
        lanes.advance_compute(10.0);
        lanes.begin_comm(1.0);
        lanes.advance_comm(2.0);
        assert_eq!(lanes.exposed_comm_s(), 0.0);
        assert_eq!(lanes.join(), 10.0);
    }

    #[test]
    fn comm_bound_buckets_queue_back_to_back() {
        // Four 1.0s collectives becoming ready 0.25s apart across a 1.0s
        // window that closes when compute ends (t = 11): after the first,
        // each starts the moment the previous ends, so the exposed cost is
        // total comm minus the window.
        let mut lanes = TwoLaneClock::new(0.0);
        lanes.advance_compute(11.0);
        assert_eq!(lanes.exposed_comm_s(), 0.0); // no comm yet: nothing exposed
        let mut prev_end = 10.0;
        for b in 0..4 {
            assert_eq!(lanes.begin_comm(10.0 + 0.25 * f64::from(b)), prev_end);
            lanes.advance_comm(1.0);
            prev_end += 1.0;
        }
        assert_eq!(lanes.join(), 14.0);
        assert!((lanes.exposed_comm_s() - (4.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_comm_advance_panics() {
        TwoLaneClock::new(0.0).advance_comm(-0.1);
    }
}
