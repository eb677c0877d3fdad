//! The chaos supervisor: sustained fault injection with elastic recovery.
//!
//! The single-shot tests in [`crate::fault`] prove one clean failure is
//! survivable. This module proves the *regime* the paper's §7 claims
//! matter in: a long run under overlapping crashes, spot preemptions,
//! rack outages, and flaky collectives. A [`ChaosSupervisor`] drives a
//! [`Trainer`] to a target step count while a seeded
//! [`FaultPlan`](vf_device::FaultPlan) injects events against it, and
//! reacts the way a production control loop would:
//!
//! * **crash / rack failure** — elastic recovery by virtual-node
//!   reassignment ([`crate::fault::fail_devices`]); recovery attempts can
//!   themselves fail (the coordinator is on the same flaky network) and are
//!   retried with exponential backoff, every delay charged to the
//!   simulated clock;
//! * **spot preemption** — the advance notice is used to *drain* the
//!   device gracefully: its virtual nodes migrate off inside the notice
//!   window, so nothing is lost and no recovery is needed;
//! * **replacements** — freed or repaired devices return through a spare
//!   pool and rejoin via asynchronous bootstrap
//!   ([`vf_comm::membership::ElasticGroup`]): the surviving group never
//!   stalls waiting for them;
//! * **flaky collectives** — per-step all-reduces run through
//!   [`vf_comm::chaos::allreduce_with_recovery`], paying for timeouts,
//!   mid-collective aborts, and stragglers in time, never in values;
//! * **fleet loss** — only when a fault empties the fleet entirely does
//!   the supervisor degrade to the checkpoint-restore path the paper
//!   criticizes; fallbacks are counted and reported, and for any plan that
//!   never empties the fleet the count must be zero.
//!
//! The invariant everything above defends: **the final parameters are
//! bit-identical to the fault-free run.** Elastic recovery changes which
//! device computes which virtual node — never what is computed.

use crate::checkpoint::Checkpoint;
use crate::engine::Trainer;
use crate::fault::fail_devices;
use crate::{CoreError, TrainerConfig};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use vf_comm::allreduce::split_bucket_bytes;
use vf_comm::chaos::{
    allreduce_with_recovery, collective_stream, ring_reform_time_s, CommFaultModel,
};
use vf_comm::membership::{ElasticGroup, WorkerId};
use vf_comm::LinkProfile;
use vf_data::Dataset;
use vf_device::obs::emit_backward_window;
use vf_device::{Backoff, BackoffPolicy, DeviceId, FaultKind, FaultPlan, PlannedFault, SimClock};
use vf_models::trainable::Architecture;
use vf_obs::{Event, Metrics, Recorder};
use vf_store::{CheckpointStore, StoreConfig};

/// Stream tag for recovery-attempt draws inside the fault plan's seed
/// space (distinct from any device id stream).
const RECOVERY_STREAM: u64 = 0x5245_434F_5645_5259; // "RECOVERY"

/// Configuration of a chaos run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// The fault plan injected against the run.
    pub plan: FaultPlan,
    /// Communication faults per collective, if any.
    pub comm: Option<CommFaultModel>,
    /// Target number of training steps.
    pub steps: u64,
    /// Simulated compute time per wave of virtual nodes, in seconds.
    pub compute_s_per_wave: f64,
    /// Interconnect used for collectives and recovery pricing.
    pub link: LinkProfile,
    /// Bootstrap time for a replacement device (async: the group never
    /// waits for it).
    pub bootstrap_s: f64,
    /// Backoff policy for failed recovery attempts.
    pub backoff: BackoffPolicy,
    /// Probability that one recovery attempt fails and must be retried
    /// (clamped to `[0, 0.9]` so retry loops terminate).
    pub recovery_failure_prob: f64,
    /// Recovery attempts per fault before degrading to checkpoint-restore.
    pub max_recovery_attempts: u32,
    /// All-reduce attempts per step before declaring a partition.
    pub max_collective_attempts: u32,
    /// Steps between periodic checkpoints (0 disables; the last resort
    /// then restores from step 0).
    pub checkpoint_every: u64,
    /// Wall-clock cost of a checkpoint restore, in seconds.
    pub restore_s: f64,
    /// Seconds a failed or preempted device spends in repair before
    /// returning to the spare pool.
    pub cooldown_s: f64,
    /// Horizon the fault plan is materialized over. Must comfortably
    /// exceed the simulated run time; events beyond the end never fire.
    pub events_horizon_s: f64,
    /// Gradient-bucket byte threshold: each step's sync is cut into
    /// `split_bucket_bytes` chunks pipelined against the final wave's
    /// backward window on a second clock lane, each launched once its last
    /// gradient exists. The default, `u64::MAX` (as is `0`, or any
    /// threshold at or above the gradient's size), is one bucket: the
    /// paper's single all-reduce after the last backward pass.
    #[serde(default)]
    pub bucket_bytes: u64,
    /// Fraction of one wave's compute that is backward pass — the window
    /// over which gradients become ready, and which every step emits to the
    /// trace. With more than one bucket, all but the last collective can
    /// start inside it. Clamped to `[0, 1]`.
    #[serde(default)]
    pub backward_fraction: f64,
    /// Durable checkpoint store configuration. `None` (the default) keeps
    /// the legacy in-memory-only last resort; `Some` routes every periodic
    /// checkpoint through a `vf_store::CheckpointStore` — saves pay
    /// simulated storage time, restores prefer the newest *valid* durable
    /// checkpoint (falling back past corrupt ones), and the in-memory copy
    /// survives only as the path of last resort when no durable checkpoint
    /// is readable.
    #[serde(default)]
    pub store: Option<StoreConfig>,
}

impl ChaosConfig {
    /// A config with production-flavored defaults for the given plan and
    /// step count.
    pub fn new(plan: FaultPlan, steps: u64) -> Self {
        ChaosConfig {
            plan,
            comm: None,
            steps,
            compute_s_per_wave: 1.0,
            link: LinkProfile::paper_testbed(),
            bootstrap_s: 30.0,
            backoff: BackoffPolicy::default(),
            recovery_failure_prob: 0.2,
            max_recovery_attempts: 128,
            max_collective_attempts: 64,
            checkpoint_every: 50,
            restore_s: 60.0,
            cooldown_s: 300.0,
            events_horizon_s: steps as f64 * 30.0 + 3_600.0,
            bucket_bytes: u64::MAX,
            backward_fraction: 0.5,
            store: None,
        }
    }

    /// Checks every `f64` value before it reaches a clock: all must be
    /// finite, durations non-negative and the link's bandwidth positive.
    /// Finite probabilities and fractions keep their documented clamps.
    fn validate(&self) -> Result<(), CoreError> {
        const NON_NEGATIVE: &str = "finite and non-negative";
        const POSITIVE: &str = "finite and positive";
        const FINITE: &str = "finite";
        let fields = [
            ("compute_s_per_wave", self.compute_s_per_wave, NON_NEGATIVE),
            ("link.latency_s", self.link.latency_s, NON_NEGATIVE),
            ("link.bandwidth", self.link.bandwidth, POSITIVE),
            ("bootstrap_s", self.bootstrap_s, NON_NEGATIVE),
            ("backoff.base_s", self.backoff.base_s, NON_NEGATIVE),
            ("backoff.factor", self.backoff.factor, NON_NEGATIVE),
            ("backoff.max_s", self.backoff.max_s, NON_NEGATIVE),
            ("recovery_failure_prob", self.recovery_failure_prob, FINITE),
            ("restore_s", self.restore_s, NON_NEGATIVE),
            ("cooldown_s", self.cooldown_s, NON_NEGATIVE),
            ("events_horizon_s", self.events_horizon_s, NON_NEGATIVE),
            ("backward_fraction", self.backward_fraction, FINITE),
        ];
        for (field, value, requirement) in fields {
            let in_range = match requirement {
                NON_NEGATIVE => value >= 0.0,
                POSITIVE => value > 0.0,
                _ => true,
            };
            if !(value.is_finite() && in_range) {
                return Err(CoreError::InvalidChaosConfig { field, value, requirement });
            }
        }
        Ok(())
    }
}

/// Everything a chaos run observed, for reports and assertions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Training steps completed (equals the configured target on success).
    pub steps: u64,
    /// Devices lost to independent crashes.
    pub crashes: usize,
    /// Devices lost to correlated rack failures.
    pub rack_device_failures: usize,
    /// Devices reclaimed by spot preemption.
    pub preemptions: usize,
    /// Preempted devices drained gracefully inside their notice window.
    pub drained: usize,
    /// Collective attempts that timed out.
    pub comm_timeouts: usize,
    /// Collective attempts aborted mid-flight.
    pub comm_aborts: usize,
    /// Collectives that ran at straggler speed.
    pub comm_stragglers: usize,
    /// Successful elastic recoveries (virtual-node reassignments).
    pub recoveries: usize,
    /// Replacement devices admitted after asynchronous bootstrap.
    pub rejoins: usize,
    /// Failed recovery attempts that were retried.
    pub recovery_retries: usize,
    /// Total backoff delay charged to the clock, in seconds.
    pub backoff_total_s: f64,
    /// Times the supervisor degraded to checkpoint-restore (0 whenever the
    /// fault plan never emptied the fleet).
    pub checkpoint_fallbacks: usize,
    /// Steps re-executed after checkpoint restores.
    pub replayed_steps: u64,
    /// Total simulated wall-clock of the run, in seconds.
    pub sim_time_s: f64,
    /// Smallest fleet size observed during any step.
    pub min_fleet: usize,
    /// Fleet size at the end of the run.
    pub final_fleet: usize,
    /// Total communication time charged across all steps, in seconds.
    #[serde(default)]
    pub comm_total_s: f64,
    /// Communication time *not* hidden under compute: the part of each
    /// step's comm lane sticking out past the end of its backward window.
    /// With one bucket every collective starts as compute ends, so this
    /// equals `comm_total_s`.
    #[serde(default)]
    pub comm_exposed_s: f64,
    /// Checkpoints durably committed to the store (0 without a store).
    #[serde(default)]
    pub store_saves: u64,
    /// Durable checkpoint saves that failed (torn, crashed, disk-full) and
    /// left only debris the next scan sweeps.
    #[serde(default)]
    pub store_save_failures: u64,
    /// Successful restores served from the durable store.
    #[serde(default)]
    pub store_restores: u64,
    /// Checkpoint directories attempted across all durable restores.
    #[serde(default)]
    pub store_restore_attempts: u64,
    /// Durable restores that fell back past the newest checkpoint to an
    /// older valid one.
    #[serde(default)]
    pub store_fallback_restores: u64,
    /// Corrupt checkpoints detected (and quarantined) by checksum
    /// verification.
    #[serde(default)]
    pub store_corruptions_detected: u64,
    /// Checkpoint directories moved to quarantine.
    #[serde(default)]
    pub store_quarantined: u64,
    /// Restores that returned data the fault oracle knows was corrupted —
    /// must always be zero; anything else is a checksum-layer escape.
    #[serde(default)]
    pub store_silent_restores: u64,
    /// Times the durable store could not produce any valid checkpoint and
    /// the supervisor degraded to its in-memory copy.
    #[serde(default)]
    pub store_restore_failures: u64,
    /// Total simulated time spent inside checkpoint-restore recoveries
    /// (fleet wait + restore + durable reads), in seconds. Divide by
    /// `checkpoint_fallbacks` for MTTR.
    #[serde(default)]
    pub mttr_total_s: f64,
}

impl ChaosReport {
    /// Total faults injected: device-level failures, preemptions, and
    /// communication faults.
    pub fn faults_injected(&self) -> usize {
        self.crashes
            + self.rack_device_failures
            + self.preemptions
            + self.comm_timeouts
            + self.comm_aborts
    }

    /// Goodput of this run relative to a fault-free run of the same job:
    /// `fault_free_time / this_time`, in `(0, 1]` when faults cost time.
    ///
    /// Always finite: a zero-step baseline (both times zero), a zero-time
    /// divisor, or non-finite inputs all pin to `1.0` — "no measurable
    /// slowdown" — rather than leaking NaN/∞ into reports.
    pub fn goodput_vs(&self, fault_free: &ChaosReport) -> f64 {
        let (baseline, actual) = (fault_free.sim_time_s, self.sim_time_s);
        if !baseline.is_finite() || !actual.is_finite() || actual <= 0.0 {
            1.0
        } else {
            (baseline / actual).max(0.0)
        }
    }

    /// Mean time to recover for the checkpoint-restore last resort, in
    /// simulated seconds (0 when it never fired).
    pub fn mttr_s(&self) -> f64 {
        if self.checkpoint_fallbacks == 0 {
            0.0
        } else {
            self.mttr_total_s / self.checkpoint_fallbacks as f64
        }
    }

    /// Mirrors the report's cumulative counts into a registry with
    /// [`Metrics::set_counter`] — monotone, so safe to call every tick
    /// without double-counting. Also publishes the two derived series the
    /// default alert pack watches: `chaos/comm_retries` (timeouts + aborts)
    /// and `chaos/comm_attempts` (steps + retries, the burn-rate
    /// denominator).
    pub fn mirror_metrics(&self, m: &Metrics, steps_done: u64) {
        let retries = (self.comm_timeouts + self.comm_aborts) as u64;
        m.set_counter("chaos/steps", steps_done);
        m.set_counter("chaos/comm_retries", retries);
        m.set_counter("chaos/comm_attempts", steps_done + retries);
        m.set_counter("chaos/crashes", self.crashes as u64);
        m.set_counter("chaos/rack_device_failures", self.rack_device_failures as u64);
        m.set_counter("chaos/preemptions", self.preemptions as u64);
        m.set_counter("chaos/recoveries", self.recoveries as u64);
        m.set_counter("chaos/rejoins", self.rejoins as u64);
        m.set_counter("chaos/recovery_retries", self.recovery_retries as u64);
        m.set_counter("chaos/checkpoint_fallbacks", self.checkpoint_fallbacks as u64);
        m.set_counter("chaos/replayed_steps", self.replayed_steps);
        m.set_gauge("chaos/backoff_total_s", self.backoff_total_s);
        // The same fault counts as one dimensional family (kind → count):
        // rollup views aggregate the fleet's fault mix without a metric
        // name per kind.
        m.set_counter_with("chaos/faults", &[("kind", "crash")], self.crashes as u64);
        m.set_counter_with(
            "chaos/faults",
            &[("kind", "rack")],
            self.rack_device_failures as u64,
        );
        m.set_counter_with(
            "chaos/faults",
            &[("kind", "preemption")],
            self.preemptions as u64,
        );
        m.set_counter_with(
            "chaos/faults",
            &[("kind", "comm_timeout")],
            self.comm_timeouts as u64,
        );
        m.set_counter_with(
            "chaos/faults",
            &[("kind", "comm_abort")],
            self.comm_aborts as u64,
        );
    }
}

/// The result of a completed chaos run.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The trainer after reaching the target step count.
    pub trainer: Trainer,
    /// What the supervisor observed along the way.
    pub report: ChaosReport,
}

/// A supervisor driving one training job through a fault plan.
pub struct ChaosSupervisor {
    arch: Arc<dyn Architecture>,
    dataset: Arc<Dataset>,
    cfg: ChaosConfig,
    trainer: Trainer,
    clock: SimClock,
    group: ElasticGroup,
    /// Spare devices ready to be provisioned.
    spares: VecDeque<DeviceId>,
    /// Failed/preempted devices in repair: device → time it returns.
    cooling: BTreeMap<DeviceId, f64>,
    events: VecDeque<PlannedFault>,
    desired_fleet: usize,
    last_checkpoint: Checkpoint,
    /// Durable checkpoint store, when the config asks for one. The
    /// in-memory `last_checkpoint` then only serves as the path of last
    /// resort after every durable restore attempt fails.
    store: Option<CheckpointStore>,
    param_bytes: u64,
    recovery_draws: u64,
    report: ChaosReport,
    obs: Recorder,
}

impl ChaosSupervisor {
    /// Creates a supervisor over a fresh trainer on `devices`, with
    /// `spares` available as replacements.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidChaosConfig`] for a non-finite value, a negative
    /// duration or a link without bandwidth in `cfg`; otherwise the same
    /// conditions as [`Trainer::new`].
    pub fn new(
        arch: Arc<dyn Architecture>,
        dataset: Arc<Dataset>,
        config: TrainerConfig,
        devices: &[DeviceId],
        spares: &[DeviceId],
        cfg: ChaosConfig,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        let trainer = Trainer::new(arch.clone(), dataset.clone(), config, devices)?;
        let mut universe: Vec<DeviceId> = devices.iter().chain(spares.iter()).copied().collect();
        universe.sort_unstable();
        universe.dedup();
        let events: VecDeque<PlannedFault> =
            cfg.plan.events(&universe, cfg.events_horizon_s).into();
        let last_checkpoint = trainer.to_checkpoint();
        let mut store = match &cfg.store {
            Some(sc) => Some(CheckpointStore::new(sc.clone())?),
            None => None,
        };
        if let Some(s) = store.as_mut() {
            // Seed the store with the step-0 snapshot so it is never empty
            // while enabled. A storage fault here is survivable — the next
            // periodic checkpoint retries, and the in-memory copy remains.
            let payload = last_checkpoint.to_json()?;
            #[expect(
                clippy::let_underscore_must_use,
                reason = "survivable fault; periodic save retries"
            )]
            let _ = s.save(last_checkpoint.step, payload.as_bytes());
        }
        let param_bytes: u64 = trainer.params().iter().map(|t| t.size_bytes() as u64).sum();
        let group = ElasticGroup::new(devices.iter().map(|d| WorkerId(d.0)));
        let report = ChaosReport {
            min_fleet: devices.len(),
            ..ChaosReport::default()
        };
        Ok(ChaosSupervisor {
            arch,
            dataset,
            desired_fleet: devices.len(),
            trainer,
            clock: SimClock::new(),
            group,
            spares: spares.iter().copied().collect(),
            cooling: BTreeMap::new(),
            events,
            last_checkpoint,
            store,
            param_bytes,
            recovery_draws: 0,
            report,
            obs: Recorder::disabled(),
            cfg,
        })
    }

    /// Attaches the observability handle to the supervisor, its trainer
    /// and its store.
    ///
    /// All chaos events are emitted from the supervisor's single control
    /// loop, timestamped on the supervisor's [`SimClock`] — so the trace is
    /// bit-identical across thread counts and repeat runs. When the
    /// recorder carries a monitor, every supervisor loop iteration
    /// publishes its live signals — the report's cumulative counts, the
    /// fleet fraction, and the store's counters — into the monitor's
    /// registry and ticks it at the current `SimClock` time, driving the
    /// sampler and alert rules in step with the simulation; the trainer
    /// publishes `train/*` through the same handle.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.trainer.set_recorder(obs.clone());
        if let Some(s) = self.store.as_mut() {
            s.set_recorder(obs.clone());
        }
        self.obs = obs;
    }

    /// Publishes the current signals and ticks the recorder's monitor
    /// (no-op without one). Called once per supervisor loop iteration,
    /// after the step — all from the single control thread, with `SimClock`
    /// time, so the resulting series and alerts are deterministic.
    fn publish_monitor(&self, step_dt_s: f64) {
        let Some(mon) = self.obs.monitor() else { return };
        let m = mon.metrics();
        self.report.mirror_metrics(m, self.trainer.steps_done());
        // Step-time distribution as a bounded sketch: p50/p99 stay
        // O(buckets) however long the run, where raw retention would not.
        if step_dt_s.is_finite() && step_dt_s > 0.0 {
            m.observe_sketch("chaos/step_time_s", step_dt_s);
        }
        let active = self.trainer.mapping().num_devices();
        m.set_gauge(
            "chaos/fleet_frac",
            active as f64 / self.desired_fleet.max(1) as f64,
        );
        if let Some(s) = self.store.as_ref() {
            s.counters().record_metrics(m);
        }
        mon.tick(self.clock.now(), &self.obs);
    }

    /// Runs the job to the configured step count, surviving the fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FleetExhausted`] if every device is lost with
    /// no spares left for even the checkpoint-restore last resort,
    /// [`CoreError::CommPartitioned`] if a collective exhausts its retry
    /// budget, and any trainer error.
    pub fn run(mut self) -> Result<ChaosOutcome, CoreError> {
        while self.trainer.steps_done() < self.cfg.steps {
            let now = self.clock.now();
            // Push simulated time into the recorder so every event this
            // iteration emits (chaos, comm, and trainer alike — they share
            // one recorder) is stamped with SimClock time.
            self.obs.set_time_s(now);
            self.promote_cooled(now);
            self.admit_ready(now)?;
            self.fire_due_events()?;
            self.provision_replacements();
            self.execute_step()?;
            self.maybe_checkpoint()?;
            self.publish_monitor(self.clock.now() - now);
        }
        self.report.steps = self.trainer.steps_done();
        self.report.sim_time_s = self.clock.now();
        self.report.final_fleet = self.trainer.mapping().num_devices();
        if let Some(s) = self.store.as_ref() {
            let c = s.counters();
            self.report.store_saves = c.saves;
            self.report.store_save_failures = c.save_failures;
            self.report.store_restores = c.restores;
            self.report.store_restore_attempts = c.restore_attempts;
            self.report.store_fallback_restores = c.fallback_restores;
            self.report.store_corruptions_detected = c.corruptions_detected;
            self.report.store_quarantined = c.quarantined;
            self.report.store_silent_restores = c.silent_restores;
        }
        Ok(ChaosOutcome {
            trainer: self.trainer,
            report: self.report,
        })
    }

    /// Moves repaired devices from cooling back into the spare pool.
    fn promote_cooled(&mut self, now: f64) {
        let ready: Vec<DeviceId> = self
            .cooling
            .iter()
            .filter(|(_, &t)| t <= now)
            .map(|(&d, _)| d)
            .collect();
        for d in ready {
            self.cooling.remove(&d);
            self.spares.push_back(d);
        }
    }

    /// Folds bootstrapped replacements into the mapping (async join: the
    /// group pays only the membership barrier, never the bootstrap).
    fn admit_ready(&mut self, now: f64) -> Result<(), CoreError> {
        let ready = self.group.admit_ready(now);
        if ready.is_empty() {
            return Ok(());
        }
        let cap = self.trainer.config().total_vns as usize;
        let mut devs = self.trainer.mapping().devices();
        let mut admitted = 0usize;
        for w in ready {
            let d = DeviceId(w.0);
            if devs.len() < cap && !devs.contains(&d) {
                devs.push(d);
                admitted += 1;
            } else {
                // No room (or duplicate): the worker becomes a hot spare.
                self.group.remove(w, now);
                self.spares.push_back(d);
            }
        }
        if admitted > 0 {
            devs.sort_unstable();
            self.trainer.resize(&devs)?;
            self.report.rejoins += admitted;
            self.obs.record_with(|| {
                Event::instant("rejoin", "chaos", self.obs.now_us())
                    .with_arg("admitted", admitted)
                    .with_arg("fleet", devs.len())
            });
            // Joining workers fetch parameters from a healthy peer; the
            // group itself only pays the ring-reform barrier.
            self.clock
                .advance(ring_reform_time_s(devs.len(), &self.cfg.link));
        }
        Ok(())
    }

    /// Fires every fault whose notice time has passed.
    fn fire_due_events(&mut self) -> Result<(), CoreError> {
        loop {
            match self.events.front() {
                Some(next) if next.notice_at_s <= self.clock.now() => {}
                _ => break,
            }
            let Some(event) = self.events.pop_front() else {
                break;
            };
            // A crash and a rack failure differ only in their name and
            // counter; a preemption gives notice first.
            let (name, counter): (_, fn(&mut ChaosReport) -> &mut usize) = match event.kind {
                FaultKind::Crash => ("fault/crash", |r| &mut r.crashes),
                FaultKind::Rack { .. } => ("fault/rack", |r| &mut r.rack_device_failures),
                FaultKind::Preemption => {
                    self.handle_preemption(&event)?;
                    continue;
                }
            };
            let victims = self.active_victims(&event.devices);
            self.drop_bootstrapping_victims(&event.devices, event.at_s);
            if !victims.is_empty() {
                *counter(&mut self.report) += victims.len();
                self.obs.record_with(|| {
                    Event::instant(name, "chaos", self.obs.now_us())
                        .with_arg("victims", victims.len())
                });
                self.recover_from_deaths(&victims, event.at_s)?;
            }
        }
        Ok(())
    }

    /// Devices from `candidates` that are currently mapped.
    fn active_victims(&self, candidates: &[DeviceId]) -> Vec<DeviceId> {
        let mapped = self.trainer.mapping().devices();
        candidates
            .iter()
            .copied()
            .filter(|d| mapped.contains(d))
            .collect()
    }

    /// Faults can also strike devices still warming up; they never joined,
    /// so no recovery is needed — they just go to repair.
    fn drop_bootstrapping_victims(&mut self, candidates: &[DeviceId], at_s: f64) {
        let bootstrapping: Vec<WorkerId> = self.group.bootstrapping().map(|(w, _)| w).collect();
        for &d in candidates {
            let w = WorkerId(d.0);
            if bootstrapping.contains(&w) {
                self.group.remove(w, self.clock.now());
                self.cooling.insert(d, at_s + self.cfg.cooldown_s);
            }
        }
    }

    /// Spot preemption: drain gracefully inside the notice window when
    /// possible; a sole surviving device cannot drain and dies as a crash
    /// when the provider reclaims it.
    fn handle_preemption(&mut self, event: &PlannedFault) -> Result<(), CoreError> {
        let victims = self.active_victims(&event.devices);
        self.drop_bootstrapping_victims(&event.devices, event.at_s);
        let Some(&victim) = victims.first() else {
            return Ok(());
        };
        self.report.preemptions += 1;
        self.obs.record_with(|| {
            Event::instant("fault/preemption", "chaos", self.obs.now_us())
                .with_arg("device", u64::from(victim.0))
        });
        if self.trainer.mapping().num_devices() > 1 {
            // Graceful drain: the device donates its virtual nodes and
            // stateful kernels while still alive — nothing is lost, no
            // recovery needed.
            let survivors: Vec<DeviceId> = self
                .trainer
                .mapping()
                .devices()
                .into_iter()
                .filter(|&d| d != victim)
                .collect();
            self.trainer.resize(&survivors)?;
            self.group.remove(WorkerId(victim.0), self.clock.now());
            self.cooling.insert(victim, event.at_s + self.cfg.cooldown_s);
            self.report.drained += 1;
            self.clock
                .advance(ring_reform_time_s(survivors.len(), &self.cfg.link));
            self.obs.record_with(|| {
                Event::instant("drain", "chaos", self.obs.now_us())
                    .with_arg("device", u64::from(victim.0))
                    .with_arg("fleet", survivors.len())
            });
        } else {
            // Cannot drain the last device; it will die at reclaim time.
            self.report.crashes += 1; // counted as the crash it becomes
            self.report.preemptions -= 1;
            self.schedule(PlannedFault {
                devices: vec![victim],
                at_s: event.at_s,
                notice_at_s: event.at_s,
                kind: FaultKind::Crash,
            });
        }
        Ok(())
    }

    /// Inserts a synthesized event, keeping the queue sorted by notice
    /// time.
    fn schedule(&mut self, event: PlannedFault) {
        let pos = self
            .events
            .iter()
            .position(|e| e.notice_at_s > event.notice_at_s)
            .unwrap_or(self.events.len());
        self.events.insert(pos, event);
    }

    /// Elastic recovery from the simultaneous death of `victims`, with
    /// retry and exponential backoff; degrades to checkpoint-restore only
    /// if the fleet emptied (or retries exhausted).
    fn recover_from_deaths(&mut self, victims: &[DeviceId], at_s: f64) -> Result<(), CoreError> {
        for &v in victims {
            self.group.remove(WorkerId(v.0), self.clock.now());
            self.cooling.insert(v, at_s + self.cfg.cooldown_s);
        }
        let fail_prob = self.cfg.recovery_failure_prob.clamp(0.0, 0.9);
        let mut backoff = Backoff::new(self.cfg.backoff);
        loop {
            if backoff.attempts() >= self.cfg.max_recovery_attempts {
                // Recovery is not converging; treat as a lost fleet.
                return self.checkpoint_restore();
            }
            let u = self.cfg.plan.unit_draw(RECOVERY_STREAM, self.recovery_draws);
            self.recovery_draws += 1;
            if u < fail_prob {
                let delay = backoff.next_delay_s();
                self.clock.advance(delay);
                self.report.recovery_retries += 1;
                self.report.backoff_total_s += delay;
                self.obs.record_with(|| {
                    Event::instant("recovery/retry", "chaos", self.obs.now_us())
                        .with_arg("attempt", backoff.attempts())
                        .with_arg("delay_s", delay)
                });
                continue;
            }
            return match fail_devices(&mut self.trainer, victims, &[]) {
                Ok(recovery) => {
                    self.report.recoveries += 1;
                    self.clock.advance(ring_reform_time_s(
                        recovery.survivors.len(),
                        &self.cfg.link,
                    ));
                    self.obs.record_with(|| {
                        Event::instant("recovery", "chaos", self.obs.now_us())
                            .with_arg("survivors", recovery.survivors.len())
                    });
                    Ok(())
                }
                // Every device died at once: the elastic path has nothing
                // to migrate onto. Last resort engages.
                Err(CoreError::NoDevices) => self.checkpoint_restore(),
                Err(e) => Err(e),
            };
        }
    }

    /// The last-resort path the paper's design exists to avoid: restore
    /// the newest checkpoint onto fresh devices and replay the lost steps.
    ///
    /// With a durable store configured, the restore prefers the newest
    /// *valid* durable checkpoint — walking back past corrupt or torn ones
    /// — and only degrades to the in-memory copy when nothing on storage
    /// is readable.
    fn checkpoint_restore(&mut self) -> Result<(), CoreError> {
        self.report.checkpoint_fallbacks += 1;
        let mttr_t0 = self.clock.now();
        // Wait (in simulated time) for at least one repaired device if the
        // spare pool is empty.
        if self.spares.is_empty() {
            let Some((&d, &ready_at)) = self
                .cooling
                .iter()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            else {
                return Err(CoreError::FleetExhausted {
                    step: self.trainer.steps_done(),
                });
            };
            self.clock.advance_to(ready_at);
            self.cooling.remove(&d);
            self.spares.push_back(d);
        }
        self.promote_cooled(self.clock.now());
        let cap = self.trainer.config().total_vns as usize;
        let want = self.desired_fleet.min(cap).max(1);
        let mut fleet: Vec<DeviceId> = Vec::with_capacity(want);
        while fleet.len() < want {
            let Some(d) = self.spares.pop_front() else { break };
            fleet.push(d);
        }
        fleet.sort_unstable();
        let restored = self.restore_source()?;
        let lost = self.trainer.steps_done().saturating_sub(restored.step);
        self.report.replayed_steps += lost;
        self.trainer = Trainer::from_checkpoint(
            self.arch.clone(),
            self.dataset.clone(),
            restored.clone(),
            &fleet,
        )?;
        self.last_checkpoint = restored;
        // The rebuilt trainer starts with a disabled recorder; re-attach
        // ours so the replayed steps keep tracing and publishing.
        self.trainer.set_recorder(self.obs.clone());
        self.group = ElasticGroup::new(fleet.iter().map(|d| WorkerId(d.0)));
        self.clock.advance(self.cfg.restore_s);
        self.report.mttr_total_s += self.clock.now() - mttr_t0;
        self.obs.record_with(|| {
            Event::instant("checkpoint/restore", "chaos", self.obs.now_us())
                .with_arg("from_step", self.last_checkpoint.step)
                .with_arg("replayed", lost)
                .with_arg("fleet", fleet.len())
        });
        Ok(())
    }

    /// Picks the checkpoint to restore from: the newest valid durable one
    /// when a store is configured (charging its simulated scan and read
    /// time to the clock), else the in-memory copy. Durable failures —
    /// every checkpoint corrupt, or an unreadable payload — degrade to the
    /// in-memory copy and are counted, never silently absorbed.
    fn restore_source(&mut self) -> Result<Checkpoint, CoreError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(self.last_checkpoint.clone());
        };
        let outcome = store.restore_latest();
        self.clock.advance(store.drain_time_s());
        if let Ok((_, bytes)) = outcome {
            let parsed = std::str::from_utf8(&bytes)
                .map_err(|e| CoreError::CheckpointFormat { reason: e.to_string() })
                .and_then(Checkpoint::from_json);
            // The store's checksums verified these bytes, so they are
            // exactly what a successful save wrote; a parse failure here
            // means the payload itself was bad and the memory copy is the
            // better source.
            if let Ok(ckpt) = parsed {
                return Ok(ckpt);
            }
        }
        self.report.store_restore_failures += 1;
        Ok(self.last_checkpoint.clone())
    }

    /// Tops the fleet back up toward its original size through async
    /// bootstrap.
    fn provision_replacements(&mut self) {
        let now = self.clock.now();
        let cap = self.trainer.config().total_vns as usize;
        let want = self.desired_fleet.min(cap);
        let mut in_flight =
            self.trainer.mapping().num_devices() + self.group.bootstrapping().count();
        while in_flight < want {
            let Some(d) = self.spares.pop_front() else { break };
            self.group.request_join(WorkerId(d.0), now, self.cfg.bootstrap_s);
            in_flight += 1;
        }
    }

    /// One training step: waves of compute, then the (possibly faulty)
    /// gradient all-reduce, all charged to the simulated clock. The sync is
    /// bucketed and pipelined against the final wave's backward window on a
    /// second clock lane (`crate::overlap::pipeline_buckets`); the step
    /// ends at the *join* of the lanes. Each bucket's collective draws its
    /// faults from its own stream, with probabilities scaled by its byte
    /// share so fault exposure is invariant to bucketing, and retries on
    /// its own; trajectories stay bit-exact throughout.
    fn execute_step(&mut self) -> Result<(), CoreError> {
        // Faults handled this iteration advanced the clock past the loop's
        // snapshot; re-sync so step and comm events are stamped correctly.
        self.obs.set_time_s(self.clock.now());
        let workers = self.trainer.mapping().num_devices();
        let waves = self.trainer.mapping().waves();
        self.obs
            .record_with(|| Event::counter("chaos/fleet", "chaos", self.obs.now_us(), workers));
        let compute_s = self.cfg.compute_s_per_wave * waves as f64;
        // The overlappable window is the backward tail of the final wave.
        let window =
            (self.cfg.backward_fraction.clamp(0.0, 1.0) * self.cfg.compute_s_per_wave).min(compute_s);
        let step = self.trainer.steps_done();
        let t0 = self.clock.now();
        // The step's compute is stamped at its start, before the sync it
        // feeds moves the recorder to each collective's start.
        self.trainer.step()?;
        emit_backward_window(&self.obs, step, t0 + compute_s - window, window);
        let elapsed = self.sync_time_s(step, t0, compute_s, window, workers)?;
        self.clock.advance(elapsed);
        self.report.min_fleet = self.report.min_fleet.min(workers);
        Ok(())
    }

    /// Simulated duration of step `step`, which starts at `t0`: compute
    /// advances one lane; each gradient bucket's collective runs on the
    /// comm lane once its last gradient exists and the lane is free. The
    /// pipeline runs in step-local time, so the exposed comm it reports is
    /// a difference of durations, not of clock readings.
    fn sync_time_s(
        &mut self,
        step: u64,
        t0: f64,
        compute_s: f64,
        window: f64,
        workers: usize,
    ) -> Result<f64, CoreError> {
        let sizes = split_bucket_bytes(self.param_bytes, self.cfg.bucket_bytes);
        let model = self.cfg.comm.unwrap_or(CommFaultModel::quiet(0));
        let (obs, report) = (&self.obs, &mut self.report);
        let (link, max_attempts) = (&self.cfg.link, self.cfg.max_collective_attempts);
        let (mut comm_total, total_bytes) = (0.0, self.param_bytes);
        let pipeline = crate::overlap::pipeline_buckets::<CoreError>;
        let lanes = pipeline(0.0, compute_s, window, &sizes, |b, bytes, start| {
            // Bucket starts are nondecreasing, so this never rewinds the
            // recorder; comm spans land inside (or after) the backward
            // window, which is exactly what the trace-structure checks
            // assert.
            obs.set_time_s(t0 + start);
            // Per-attempt fault probabilities are scaled by the bucket's
            // byte share: fault exposure tracks bytes on the wire, so a
            // step's expected fault count is invariant to bucketing.
            let bucket_model = model.scaled(bytes as f64 / total_bytes.max(1) as f64);
            let outcome = allreduce_with_recovery(
                &bucket_model,
                collective_stream(step, b as u32),
                bytes,
                workers,
                link,
                max_attempts,
                obs,
            )
            .map_err(|e| CoreError::CommPartitioned { attempts: e.attempts })?;
            comm_total += outcome.time_s;
            report.comm_timeouts += outcome.timeouts as usize;
            report.comm_aborts += outcome.aborts as usize;
            report.comm_stragglers += outcome.stragglers as usize;
            Ok(outcome.time_s)
        })?;
        self.report.comm_total_s += comm_total;
        self.report.comm_exposed_s += lanes.exposed_comm_s();
        Ok(lanes.join())
    }

    /// Periodic checkpoint for the last-resort path. With a store
    /// configured, the snapshot is also committed durably: a *validation*
    /// failure (non-finite state, schema drift) is a bug and aborts the
    /// run, while a *storage* fault is survivable — the failed save's
    /// debris is swept at the next scan and the in-memory copy still
    /// advances.
    fn maybe_checkpoint(&mut self) -> Result<(), CoreError> {
        if self.cfg.checkpoint_every > 0
            && self
                .trainer
                .steps_done()
                .is_multiple_of(self.cfg.checkpoint_every)
        {
            self.last_checkpoint = self.trainer.to_checkpoint();
            // The sync left the recorder at its last collective's start;
            // the save happens once the step has ended.
            self.obs.set_time_s(self.clock.now());
            if let Some(store) = self.store.as_mut() {
                let payload = self.last_checkpoint.to_json()?;
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "faults here are the drill's subject; recovery uses the last committed manifest"
                )]
                let _ = store.save(self.last_checkpoint.step, payload.as_bytes());
                self.clock.advance(store.drain_time_s());
            }
            self.obs.record_with(|| {
                Event::instant("checkpoint/save", "chaos", self.obs.now_us())
                    .with_arg("step", self.last_checkpoint.step)
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for ChaosSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosSupervisor")
            .field("step", &self.trainer.steps_done())
            .field("fleet", &self.trainer.mapping().num_devices())
            .field("spares", &self.spares.len())
            .field("cooling", &self.cooling.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_data::synthetic::ClusterTask;
    use vf_device::{FailureModel, RackModel, SpotModel};
    use vf_models::Mlp;

    fn devices(range: std::ops::Range<u32>) -> Vec<DeviceId> {
        range.map(DeviceId).collect()
    }

    fn parts(seed: u64) -> (Arc<dyn Architecture>, Arc<Dataset>, TrainerConfig) {
        let dataset = Arc::new(ClusterTask::easy(seed).generate().unwrap());
        let arch: Arc<dyn Architecture> = Arc::new(Mlp::linear(16, 4));
        let config = TrainerConfig::simple(8, 64, 0.2, seed);
        (arch, dataset, config)
    }

    fn fault_free_params(seed: u64, steps: usize) -> Vec<vf_tensor::Tensor> {
        let (arch, dataset, config) = parts(seed);
        let mut t = Trainer::new(arch, dataset, config, &devices(0..4)).unwrap();
        t.run_steps(steps).unwrap();
        t.params().to_vec()
    }

    #[test]
    fn fault_free_plan_matches_a_plain_trainer() {
        let (arch, dataset, config) = parts(1);
        let sup = ChaosSupervisor::new(
            arch,
            dataset,
            config,
            &devices(0..4),
            &devices(8..12),
            ChaosConfig::new(FaultPlan::new(1), 40),
        )
        .unwrap();
        let out = sup.run().unwrap();
        assert_eq!(out.report.faults_injected(), 0);
        assert_eq!(out.report.checkpoint_fallbacks, 0);
        assert_eq!(out.report.steps, 40);
        assert_eq!(out.trainer.params(), &fault_free_params(1, 40)[..]);
        assert!(out.report.sim_time_s > 0.0);
    }

    #[test]
    fn crashes_recover_elastically_and_preserve_the_trajectory() {
        let (arch, dataset, config) = parts(2);
        let plan = FaultPlan::new(2).with_crashes(FailureModel::new(120.0, 2).unwrap());
        let mut cfg = ChaosConfig::new(plan, 60);
        // Fast repairs: dead devices return before the spare pool drains,
        // so the fleet never empties and the last resort stays unused.
        cfg.cooldown_s = 60.0;
        cfg.bootstrap_s = 10.0;
        let sup = ChaosSupervisor::new(
            arch,
            dataset,
            config,
            &devices(0..4),
            &devices(8..16),
            cfg,
        )
        .unwrap();
        let out = sup.run().unwrap();
        assert!(out.report.crashes > 0, "{:?}", out.report);
        assert!(out.report.recoveries > 0);
        assert_eq!(out.report.checkpoint_fallbacks, 0);
        assert_eq!(out.trainer.params(), &fault_free_params(2, 60)[..]);
    }

    #[test]
    fn preemptions_drain_gracefully_within_notice() {
        let (arch, dataset, config) = parts(3);
        let plan = FaultPlan::new(3).with_preemptions(SpotModel::new(150.0, 60.0).unwrap());
        let sup = ChaosSupervisor::new(
            arch,
            dataset,
            config,
            &devices(0..4),
            &devices(8..12),
            ChaosConfig::new(plan, 60),
        )
        .unwrap();
        let out = sup.run().unwrap();
        assert!(out.report.preemptions > 0, "{:?}", out.report);
        assert_eq!(
            out.report.drained, out.report.preemptions,
            "with a multi-device fleet every preemption drains gracefully"
        );
        assert_eq!(out.report.checkpoint_fallbacks, 0);
        assert_eq!(out.trainer.params(), &fault_free_params(3, 60)[..]);
    }

    #[test]
    fn retries_back_off_exponentially_and_are_charged() {
        let (arch, dataset, config) = parts(4);
        let plan = FaultPlan::new(4).with_crashes(FailureModel::new(60.0, 4).unwrap());
        let mut cfg = ChaosConfig::new(plan, 60);
        cfg.recovery_failure_prob = 0.7;
        let sup = ChaosSupervisor::new(
            arch,
            dataset,
            config,
            &devices(0..4),
            &devices(8..16),
            cfg,
        )
        .unwrap();
        let out = sup.run().unwrap();
        assert!(out.report.recovery_retries > 0, "{:?}", out.report);
        assert!(out.report.backoff_total_s > 0.0);
        assert_eq!(out.trainer.params(), &fault_free_params(4, 60)[..]);
    }

    #[test]
    fn rack_failure_of_the_whole_fleet_degrades_to_checkpoint_restore() {
        let (arch, dataset, config) = parts(5);
        // One rack holds the entire initial fleet; spares live elsewhere.
        let plan = FaultPlan::new(5).with_racks(RackModel::new(4, 90.0).unwrap());
        let mut cfg = ChaosConfig::new(plan, 60);
        cfg.checkpoint_every = 10;
        let sup = ChaosSupervisor::new(
            arch,
            dataset,
            config,
            &devices(0..4),
            &devices(100..104), // different rack: never part of rack 0's fault
            cfg,
        )
        .unwrap();
        let out = sup.run().unwrap();
        assert!(out.report.checkpoint_fallbacks > 0, "{:?}", out.report);
        assert!(out.report.replayed_steps > 0);
        assert_eq!(out.report.steps, 60);
        // Replay is deterministic, so even the last resort lands on the
        // fault-free parameters.
        assert_eq!(out.trainer.params(), &fault_free_params(5, 60)[..]);
    }

    /// Rack-wipe scenario with checkpoints routed through the durable
    /// store: the restore is served from storage, pays simulated storage
    /// time, and still lands on the fault-free trajectory.
    #[test]
    fn store_backed_rack_wipe_restores_durably_and_stays_bit_exact() {
        let (arch, dataset, config) = parts(5);
        let plan = FaultPlan::new(5).with_racks(RackModel::new(4, 90.0).unwrap());
        let mut cfg = ChaosConfig::new(plan, 60);
        cfg.checkpoint_every = 10;
        cfg.store = Some(StoreConfig::quiet(5));
        let sup = ChaosSupervisor::new(
            arch,
            dataset,
            config,
            &devices(0..4),
            &devices(100..104),
            cfg,
        )
        .unwrap();
        let out = sup.run().unwrap();
        assert!(out.report.checkpoint_fallbacks > 0, "{:?}", out.report);
        assert!(out.report.store_saves > 0);
        assert!(out.report.store_restores > 0, "{:?}", out.report);
        assert_eq!(out.report.store_restore_failures, 0);
        assert_eq!(out.report.store_silent_restores, 0);
        assert!(out.report.mttr_s() > 0.0);
        assert_eq!(out.report.steps, 60);
        assert_eq!(out.trainer.params(), &fault_free_params(5, 60)[..]);
    }

    /// Every durable save after the step-0 seed is sabotaged post-commit:
    /// the restore must detect the corruption, quarantine its way back to
    /// the step-0 checkpoint, replay everything — and still end bit-exact.
    #[test]
    fn corrupt_newest_checkpoints_fall_back_to_an_older_valid_one() {
        let (arch, dataset, config) = parts(5);
        let plan = FaultPlan::new(5).with_racks(RackModel::new(4, 90.0).unwrap());
        let mut cfg = ChaosConfig::new(plan, 60);
        cfg.checkpoint_every = 10;
        let mut sc = StoreConfig::quiet(5);
        sc.retention.keep_last = 64; // keep the step-0 seed restorable
        sc.sabotage_saves = (1..64).collect();
        cfg.store = Some(sc);
        let sup = ChaosSupervisor::new(
            arch,
            dataset,
            config,
            &devices(0..4),
            &devices(100..104),
            cfg,
        )
        .unwrap();
        let out = sup.run().unwrap();
        assert!(out.report.checkpoint_fallbacks > 0, "{:?}", out.report);
        assert!(out.report.store_fallback_restores > 0, "{:?}", out.report);
        assert!(out.report.store_corruptions_detected > 0);
        assert!(out.report.store_quarantined > 0);
        assert_eq!(out.report.store_silent_restores, 0);
        // Fell back to step 0, so the replay covers the whole prefix.
        assert!(out.report.replayed_steps > 0);
        assert_eq!(out.report.steps, 60);
        assert_eq!(out.trainer.params(), &fault_free_params(5, 60)[..]);
    }

    /// What a monitor reads is a pure function of the run, so thread count
    /// must not leak into it. The rack wipe forces the checkpoint-restore
    /// fallback, whose rebuilt trainer must get the recorder back: the
    /// registry's `train/steps` reaching the target proves it publishes.
    #[test]
    fn chaos_metrics_are_identical_across_thread_counts() {
        fn monitored(threads: usize) -> (ChaosReport, String, Option<vf_obs::Metric>) {
            vf_tensor::pool::set_num_threads(threads);
            let (arch, dataset, config) = parts(5);
            let plan = FaultPlan::new(5).with_racks(RackModel::new(4, 90.0).unwrap());
            let mut cfg = ChaosConfig::new(plan, 40);
            cfg.checkpoint_every = 10;
            cfg.store = Some(StoreConfig::quiet(5));
            let mut sup = ChaosSupervisor::new(
                arch,
                dataset,
                config,
                &devices(0..4),
                &devices(100..104),
                cfg,
            )
            .unwrap();
            let mon = Arc::new(vf_obs::Monitor::with_default_pack());
            sup.set_recorder(Recorder::disabled().with_monitor(mon.clone()));
            let report = sup.run().unwrap().report;
            (report, mon.metrics().to_json(), mon.metrics().get("train/steps"))
        }
        let orig = vf_tensor::pool::num_threads();
        let (report, json, steps) = monitored(1);
        let (quad_report, quad_json, _) = monitored(4);
        vf_tensor::pool::set_num_threads(orig);
        assert_eq!(report, quad_report);
        assert_eq!(json, quad_json);
        assert!(report.checkpoint_fallbacks > 0, "{report:?}");
        assert_eq!(steps, Some(vf_obs::Metric::Counter(40)));
        assert!(json.contains("chaos/checkpoint_fallbacks"));
        assert!(json.contains("store/restores"));
    }

    #[test]
    fn comm_faults_cost_time_but_never_values() {
        let (arch, dataset, config) = parts(6);
        let mut cfg = ChaosConfig::new(FaultPlan::new(6), 50);
        cfg.comm = Some(CommFaultModel::new(6, 0.15, 0.05, 0.1));
        let quiet = {
            let (arch, dataset, config) = parts(6);
            ChaosSupervisor::new(
                arch,
                dataset,
                config,
                &devices(0..4),
                &[],
                ChaosConfig::new(FaultPlan::new(6), 50),
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let noisy = ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &[], cfg)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            noisy.report.comm_timeouts + noisy.report.comm_aborts > 0,
            "{:?}",
            noisy.report
        );
        assert!(noisy.report.sim_time_s > quiet.report.sim_time_s);
        assert!(noisy.report.goodput_vs(&quiet.report) < 1.0);
        assert_eq!(noisy.trainer.params(), quiet.trainer.params());
    }

    #[test]
    fn exhausted_universe_is_a_clean_error() {
        let (arch, dataset, config) = parts(7);
        // Everything lives in one rack and there are no spares at all.
        let plan = FaultPlan::new(7).with_racks(RackModel::new(8, 50.0).unwrap());
        let sup = ChaosSupervisor::new(
            arch,
            dataset,
            config,
            &devices(0..4),
            &[],
            ChaosConfig::new(plan, 200),
        )
        .unwrap();
        // With cooldown, devices do come back eventually; force the
        // unrecoverable case by making repairs slower than the horizon.
        let err = match sup.run() {
            Err(e) => e,
            Ok(out) => {
                // Repairs rescued the run — also acceptable, but then the
                // fallback path must have engaged.
                assert!(out.report.checkpoint_fallbacks > 0);
                return;
            }
        };
        assert!(matches!(err, CoreError::FleetExhausted { .. }), "{err}");
    }

    /// Builds a supervisor over a config with `value` written by `set`.
    fn supervisor_with(
        set: &dyn Fn(&mut ChaosConfig, f64),
        value: f64,
    ) -> Result<ChaosSupervisor, CoreError> {
        let (arch, dataset, config) = parts(1);
        let mut cfg = ChaosConfig::new(FaultPlan::new(1), 10);
        cfg.bucket_bytes = 64;
        set(&mut cfg, value);
        ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..12), cfg)
    }

    /// Every value in `bad` is rejected as `field`; every value in `good`
    /// is accepted.
    fn check_field(field: &str, set: impl Fn(&mut ChaosConfig, f64), bad: &[f64], good: &[f64]) {
        for &v in bad {
            match supervisor_with(&set, v) {
                Err(CoreError::InvalidChaosConfig { field: f, .. }) => assert_eq!(f, field, "{v}"),
                Err(e) => panic!("{field} = {v}: wrong error {e}"),
                Ok(_) => panic!("{field} = {v} was accepted"),
            }
        }
        for &v in good {
            assert!(supervisor_with(&set, v).is_ok(), "{field} = {v} was rejected");
        }
    }

    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    const BAD_DURATION: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];

    #[test]
    fn compute_s_per_wave_must_be_a_duration() {
        check_field("compute_s_per_wave", |c, v| c.compute_s_per_wave = v, &BAD_DURATION, &[0.0]);
    }

    #[test]
    fn link_latency_must_be_a_duration() {
        check_field("link.latency_s", |c, v| c.link.latency_s = v, &BAD_DURATION, &[0.0]);
    }

    #[test]
    fn link_bandwidth_must_be_positive() {
        let bad = [f64::NAN, f64::INFINITY, 0.0, -1.0];
        check_field("link.bandwidth", |c, v| c.link.bandwidth = v, &bad, &[200.0]);
    }

    #[test]
    fn bootstrap_s_must_be_a_duration() {
        check_field("bootstrap_s", |c, v| c.bootstrap_s = v, &BAD_DURATION, &[0.0]);
    }

    #[test]
    fn backoff_base_must_be_a_duration() {
        check_field("backoff.base_s", |c, v| c.backoff.base_s = v, &BAD_DURATION, &[0.0]);
    }

    #[test]
    fn backoff_factor_must_be_finite_and_non_negative() {
        check_field("backoff.factor", |c, v| c.backoff.factor = v, &BAD_DURATION, &[1.0]);
    }

    #[test]
    fn backoff_cap_must_be_a_duration() {
        check_field("backoff.max_s", |c, v| c.backoff.max_s = v, &BAD_DURATION, &[0.0]);
    }

    #[test]
    fn recovery_failure_prob_must_be_finite_and_keeps_its_clamp() {
        let set = |c: &mut ChaosConfig, v| c.recovery_failure_prob = v;
        check_field("recovery_failure_prob", set, &NON_FINITE, &[-1.0, 2.0]);
    }

    #[test]
    fn restore_s_must_be_a_duration() {
        check_field("restore_s", |c, v| c.restore_s = v, &BAD_DURATION, &[0.0]);
    }

    #[test]
    fn cooldown_s_must_be_a_duration() {
        check_field("cooldown_s", |c, v| c.cooldown_s = v, &BAD_DURATION, &[0.0]);
    }

    #[test]
    fn events_horizon_s_must_be_a_duration() {
        check_field("events_horizon_s", |c, v| c.events_horizon_s = v, &BAD_DURATION, &[0.0]);
    }

    #[test]
    fn backward_fraction_must_be_finite_and_keeps_its_clamp() {
        // NaN used to survive `clamp` and turn every wave into backward.
        let set = |c: &mut ChaosConfig, v| c.backward_fraction = v;
        check_field("backward_fraction", set, &NON_FINITE, &[-1.0, 2.0]);
    }

    #[test]
    fn goodput_is_always_finite() {
        let zero = ChaosReport::default();
        // Zero-step baseline against a zero-step run: no slowdown measured.
        assert_eq!(zero.goodput_vs(&zero), 1.0);
        let with_time = |t: f64| ChaosReport {
            sim_time_s: t,
            ..ChaosReport::default()
        };
        let ran = with_time(100.0);
        let baseline = with_time(80.0);
        assert_eq!(ran.goodput_vs(&baseline), 0.8);
        // A zero-time baseline against a real run: goodput 0, not NaN.
        assert_eq!(ran.goodput_vs(&zero), 0.0);
        // Non-finite inputs pin to 1.0 instead of propagating.
        assert_eq!(with_time(f64::NAN).goodput_vs(&baseline), 1.0);
        assert_eq!(ran.goodput_vs(&with_time(f64::NAN)), 1.0);
        assert_eq!(with_time(f64::INFINITY).goodput_vs(&baseline), 1.0);
    }

    #[test]
    fn overlapped_sync_shrinks_sim_time_and_keeps_the_trajectory() {
        let mk = |bucket_bytes: u64| {
            let (arch, dataset, config) = parts(9);
            let mut cfg = ChaosConfig::new(FaultPlan::new(9), 30);
            cfg.bucket_bytes = bucket_bytes;
            ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..12), cfg)
                .unwrap()
                .run()
                .unwrap()
        };
        let single = mk(u64::MAX);
        let overlapped = mk(64);
        // The tiny MLP's early buckets hide under the backward window and
        // only the last 64 B collective sticks out, so overlap strictly
        // beats the single sync.
        assert!(
            overlapped.report.sim_time_s < single.report.sim_time_s,
            "overlapped {} vs single sync {}",
            overlapped.report.sim_time_s,
            single.report.sim_time_s
        );
        assert!(overlapped.report.comm_exposed_s > 0.0);
        assert!(overlapped.report.comm_exposed_s < single.report.comm_exposed_s);
        assert!(overlapped.report.comm_exposed_s < overlapped.report.comm_total_s);
        // Bucketing is a schedule, never a value: both runs land on the
        // plain trainer's bit-identical parameters.
        assert_eq!(overlapped.trainer.params(), single.trainer.params());
        assert_eq!(overlapped.trainer.params(), &fault_free_params(9, 30)[..]);
    }

    #[test]
    fn one_bucket_syncs_once_after_each_backward_pass() {
        use vf_obs::{Phase, RingSink};
        let (arch, dataset, config) = parts(10);
        const STEPS: u64 = 12;
        let cfg = ChaosConfig::new(FaultPlan::new(10), STEPS);
        let mut sup =
            ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &[], cfg).unwrap();
        let sink = Arc::new(RingSink::unbounded());
        sup.set_recorder(Recorder::with_sink(sink.clone()));
        let report = sup.run().unwrap().report;
        let events = sink.events();
        let spans = |name: &str| -> Vec<(u64, u64)> {
            events
                .iter()
                .filter(|e| e.name == name && e.ph == Phase::Complete)
                .map(|e| (e.ts_us, e.ts_us + e.dur_us))
                .collect()
        };
        let windows = spans("step/backward");
        let collectives = spans("allreduce");
        assert_eq!(windows.len(), STEPS as usize, "one backward window per step");
        assert_eq!(collectives.len(), STEPS as usize, "one collective per step");
        for (&(_, backward_end), &(start, _)) in windows.iter().zip(&collectives) {
            assert_eq!(start, backward_end, "the sync starts as the last backward pass ends");
        }
        // Nothing overlaps: every comm second is exposed, up to the
        // rounding of one step's durations, however late in the run.
        assert!(report.comm_total_s > 0.0);
        let gap = (report.comm_exposed_s - report.comm_total_s).abs();
        assert!(
            gap <= 1e-12 * report.comm_total_s,
            "exposed {} vs total {}",
            report.comm_exposed_s,
            report.comm_total_s
        );
    }

    /// Each step's compute (`vn{k}/grad`, `dev{d}/busy`, `aggregate`) is
    /// stamped at the step's start, before the collectives it feeds.
    #[test]
    fn a_steps_compute_is_traced_before_its_collectives() {
        use vf_obs::{Phase, RingSink};
        let (arch, dataset, config) = parts(12);
        let mut cfg = ChaosConfig::new(FaultPlan::new(12), 3);
        cfg.bucket_bytes = 64;
        let mut sup =
            ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &[], cfg).unwrap();
        let sink = Arc::new(RingSink::unbounded());
        sup.set_recorder(Recorder::with_sink(sink.clone()));
        sup.run().unwrap();
        let events = sink.events();
        let spans = |name: &str| -> Vec<(u64, u64)> {
            events
                .iter()
                .filter(|e| e.name == name && e.ph == Phase::Complete)
                .map(|e| (e.ts_us, e.ts_us + e.dur_us))
                .collect()
        };
        let windows = spans("step/backward");
        let aggregates = spans("aggregate");
        let collectives = spans("allreduce");
        assert_eq!((windows.len(), aggregates.len()), (3, 3));
        for (k, (&(window_start, _), &(_, aggregate_end))) in
            windows.iter().zip(&aggregates).enumerate()
        {
            let next_window = windows.get(k + 1).map_or(u64::MAX, |w| w.0);
            let first_collective = collectives
                .iter()
                .map(|c| c.0)
                .filter(|&ts| ts >= window_start && ts < next_window)
                .min()
                .unwrap();
            assert!(
                aggregate_end <= first_collective,
                "step {k}: aggregate ends at {aggregate_end}us, after its first allreduce at {first_collective}us"
            );
        }
    }

    /// A checkpoint is saved once its step has ended: every `checkpoint/save`
    /// instant, and the store's `ckpt/save` span, starts at or after the end
    /// of every collective that started before it.
    #[test]
    fn checkpoints_are_stamped_after_their_steps_sync() {
        use vf_obs::{Phase, RingSink};
        for with_store in [false, true] {
            let (arch, dataset, config) = parts(13);
            let mut cfg = ChaosConfig::new(FaultPlan::new(13), 12);
            cfg.checkpoint_every = 4;
            cfg.store = with_store.then(|| StoreConfig::quiet(5));
            let mut sup =
                ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &[], cfg).unwrap();
            let sink = Arc::new(RingSink::unbounded());
            sup.set_recorder(Recorder::with_sink(sink.clone()));
            sup.run().unwrap();
            let events = sink.events();
            let collectives: Vec<(u64, u64)> = events
                .iter()
                .filter(|e| e.name == "allreduce" && e.ph == Phase::Complete)
                .map(|e| (e.ts_us, e.ts_us + e.dur_us))
                .collect();
            let saves: Vec<u64> = events
                .iter()
                .filter(|e| e.name == "checkpoint/save" || e.name == "ckpt/save")
                .map(|e| e.ts_us)
                .collect();
            assert_eq!(saves.len(), 3 * (1 + usize::from(with_store)));
            for ts in saves {
                for &(start, end) in collectives.iter().filter(|c| c.0 <= ts) {
                    assert!(
                        end <= ts,
                        "save at {ts}us inside the allreduce {start}..{end}us (store: {with_store})"
                    );
                }
            }
        }
    }

    #[test]
    fn overlapped_chaos_keeps_bit_exact_trajectories_under_faults() {
        let (arch, dataset, config) = parts(11);
        let plan = FaultPlan::new(11).with_crashes(FailureModel::new(300.0, 11).unwrap());
        let mut cfg = ChaosConfig::new(plan, 40);
        cfg.comm = Some(CommFaultModel::new(11, 0.1, 0.02, 0.05));
        cfg.bucket_bytes = 128;
        cfg.cooldown_s = 60.0;
        let out =
            ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..16), cfg)
                .unwrap()
                .run()
                .unwrap();
        assert_eq!(out.report.steps, 40);
        // Comm faults (now drawn per-bucket) cost time, never values.
        assert_eq!(out.trainer.params(), &fault_free_params(11, 40)[..]);
        assert!(out.report.comm_exposed_s <= out.report.comm_total_s);
    }

    #[test]
    fn overlapped_trace_nests_collectives_inside_the_backward_window() {
        use vf_obs::{Phase, Recorder, RingSink};
        let (arch, dataset, config) = parts(12);
        let mut cfg = ChaosConfig::new(FaultPlan::new(12), 3);
        cfg.bucket_bytes = 64;
        let mut sup =
            ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &[], cfg).unwrap();
        let sink = Arc::new(RingSink::unbounded());
        sup.set_recorder(Recorder::with_sink(sink.clone()));
        sup.run().unwrap();
        let events = sink.events();
        let windows: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.name == "step/backward" && e.ph == Phase::Complete)
            .map(|e| (e.ts_us, e.ts_us + e.dur_us))
            .collect();
        assert_eq!(windows.len(), 3, "one backward window per step");
        let collectives: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "allreduce" && e.ph == Phase::Complete)
            .map(|e| e.ts_us)
            .collect();
        assert!(!collectives.is_empty());
        // Every bucket collective starts inside some step's backward
        // window: the trace itself proves the overlap.
        for ts in collectives {
            assert!(
                windows.iter().any(|&(lo, hi)| ts >= lo && ts <= hi),
                "allreduce at {ts}us outside every backward window {windows:?}"
            );
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let mk = || {
            let (arch, dataset, config) = parts(8);
            let plan = FaultPlan::new(8)
                .with_crashes(FailureModel::new(100.0, 8).unwrap())
                .with_preemptions(SpotModel::new(200.0, 30.0).unwrap());
            let mut cfg = ChaosConfig::new(plan, 50);
            cfg.comm = Some(CommFaultModel::new(8, 0.1, 0.02, 0.05));
            ChaosSupervisor::new(arch, dataset, config, &devices(0..4), &devices(8..12), cfg)
                .unwrap()
                .run()
                .unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.report, b.report);
        assert_eq!(a.trainer.params(), b.trainer.params());
    }
}
