//! The four workloads: what each sets up, what one batch of ops does, and
//! how its outputs are checked.
//!
//! Every workload is a closed loop with one client: the next op starts when
//! the previous one returns. `--seed` feeds only the generators
//! (`ClusterTask`, `ImageTask`, parameter init and shuffle order, the
//! arrival jitter of the job trace); the program under test sees generated
//! inputs.

use crate::process::cpu_seconds;
use crate::spans;
use crate::stats::Batch;
use std::collections::BTreeMap;
use std::error::Error;
use std::sync::Arc;
use std::time::Instant;
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::{ClusterTask, ImageTask};
use vf_data::Dataset;
use vf_device::DeviceId;
use vf_models::{Architecture, ConvNet, GradReport, Mlp, ModelError, StatefulState};
use vf_sched::sim::{run_trace, SimConfig, SimResult};
use vf_sched::trace::poisson_trace;
use vf_sched::{ElasticWfs, JobId, JobSpec, JobState, Scheduler};
use vf_tensor::Tensor;

pub type Res<T> = Result<T, Box<dyn Error>>;

pub struct Info {
    pub name: &'static str,
    /// `VF_NUM_THREADS` of the child that measures the per-layer step
    /// percentiles and pool counters (capped at the host's cores). The gated
    /// end-to-end runs always use one thread: on a small shared host a run
    /// that needs two cores at once repeats far worse than one that needs one.
    pub layer_threads: usize,
    /// What `work_per_s` counts.
    pub work_unit: &'static str,
}

pub const INFOS: [Info; 4] = [
    Info {
        name: "train_dense",
        layer_threads: 2,
        work_unit: "examples",
    },
    Info {
        name: "train_conv",
        layer_threads: 2,
        work_unit: "examples",
    },
    Info {
        name: "train_many_vn",
        layer_threads: 1,
        work_unit: "examples",
    },
    Info {
        name: "sched_elastic",
        layer_threads: 1,
        work_unit: "jobs",
    },
];

pub fn info(name: &str) -> Option<&'static Info> {
    INFOS.iter().find(|i| i.name == name)
}

pub fn devices(n: u32) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

/// 64-bit FNV-1a, for digests printed to compare outputs across commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------------
// Training workloads
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Model {
    Mlp {
        input: usize,
        hidden: &'static [usize],
        classes: usize,
        batch_norm: bool,
    },
    Conv {
        channels: usize,
        side: usize,
        filters: usize,
        blocks: usize,
        classes: usize,
    },
}

pub struct TrainSpec {
    pub model: Model,
    pub examples: usize,
    pub batch_size: usize,
    pub total_vns: u32,
    pub initial_devices: u32,
    /// One batch: for each leg, an optional resize to that many devices and
    /// then that many steps.
    pub legs: &'static [(Option<u32>, usize)],
    /// Steps in the untimed warm-up, after which parameters are snapshot for
    /// the decoupling check (a whole number of batches).
    pub check_steps: usize,
}

/// GEMM-bound: ~2.5 GFLOP per step through vf-tensor gemm, 8 VNs over 4
/// devices so that with two threads device-level fan-out keeps both busy.
const TRAIN_DENSE: TrainSpec = TrainSpec {
    model: Model::Mlp {
        input: 256,
        hidden: &[512, 512],
        classes: 32,
        batch_norm: false,
    },
    examples: 8192,
    batch_size: 1024,
    total_vns: 8,
    initial_devices: 4,
    legs: &[(None, 2)],
    check_steps: 32,
};

/// im2col/conv-bound, and the paper's "fewer GPUs, more VNs per GPU" shape:
/// 8 VNs time-sliced on one device, so a second core helps only inside a
/// kernel.
const TRAIN_CONV: TrainSpec = TrainSpec {
    model: Model::Conv {
        channels: 3,
        side: 16,
        filters: 16,
        blocks: 2,
        classes: 8,
    },
    examples: 2048,
    batch_size: 128,
    total_vns: 8,
    initial_devices: 1,
    legs: &[(None, 1)],
    check_steps: 16,
};

/// Kernels are tiny (micro-batch 8), so gather, tape, wave and tree
/// bookkeeping, reduce, optimizer, allocation and resize are the work. One
/// batch is one elastic cycle 8 → 4 → 2 → 4 devices, 16 steps on each.
const TRAIN_MANY_VN: TrainSpec = TrainSpec {
    model: Model::Mlp {
        input: 32,
        hidden: &[32],
        classes: 8,
        batch_norm: true,
    },
    examples: 131_072,
    batch_size: 512,
    total_vns: 64,
    initial_devices: 4,
    legs: &[(Some(8), 16), (Some(4), 16), (Some(2), 16), (Some(4), 16)],
    check_steps: 64,
};

impl TrainSpec {
    pub fn batch_ops(&self) -> usize {
        self.legs.iter().map(|&(_, steps)| steps).sum()
    }

    pub fn micro_batch(&self) -> usize {
        self.batch_size / self.total_vns as usize
    }

    fn arch(&self) -> Arc<dyn Architecture> {
        match self.model {
            Model::Mlp {
                input,
                hidden,
                classes,
                batch_norm,
            } => {
                let mlp = Mlp::new(input, hidden.to_vec(), classes);
                Arc::new(if batch_norm {
                    mlp.with_batch_norm()
                } else {
                    mlp
                })
            }
            Model::Conv {
                channels,
                side,
                filters,
                blocks,
                classes,
            } => Arc::new(ConvNet::new(channels, side, side, filters, blocks, classes)),
        }
    }

    /// Label noise keeps the loss off zero, so that gradients stay in the
    /// normal float range for the whole run.
    fn dataset(&self, seed: u64) -> Res<Dataset> {
        Ok(match self.model {
            Model::Mlp { input, classes, .. } => ClusterTask {
                num_examples: self.examples,
                dim: input,
                num_classes: classes,
                separation: 1.0,
                spread: 1.0,
                label_noise: 0.1,
                seed,
            }
            .generate()?,
            Model::Conv {
                channels,
                side,
                classes,
                ..
            } => ImageTask {
                num_examples: self.examples,
                channels,
                height: side,
                width: side,
                num_classes: classes,
                signal: 0.8,
                label_noise: 0.1,
                seed,
            }
            .generate()?,
        })
    }
}

/// Forwards to the real architecture, recording a `models.grad` span around
/// each backward pass so that it nests inside the step that caused it. Used
/// by the traced child only.
struct TimedArch(Arc<dyn Architecture>);

impl Architecture for TimedArch {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn init_params(&self, seed: u64) -> Vec<Tensor> {
        self.0.init_params(seed)
    }

    fn init_stateful(&self) -> StatefulState {
        self.0.init_stateful()
    }

    fn grad(
        &self,
        params: &[Tensor],
        stateful: &mut StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<GradReport, ModelError> {
        let _span = spans::enter("models.grad");
        self.0.grad(params, stateful, features, labels)
    }

    fn eval(
        &self,
        params: &[Tensor],
        stateful: &StatefulState,
        features: &Tensor,
        labels: &[usize],
    ) -> Result<vf_models::EvalReport, ModelError> {
        self.0.eval(params, stateful, features, labels)
    }
}

pub struct Train {
    pub spec: &'static TrainSpec,
    /// The architecture itself, without the timing wrapper.
    pub arch: Arc<dyn Architecture>,
    pub dataset: Arc<Dataset>,
    pub config: TrainerConfig,
    pub trainer: Trainer,
    pub step_ms: Vec<f64>,
    pub resize_ms: Vec<f64>,
    pub waves: u64,
    first_loss: Option<f32>,
    last_batch_loss: f32,
    /// Steps done and parameters at the end of the warm-up, for the check.
    snapshot: Option<(u64, Vec<Tensor>)>,
}

impl Train {
    fn setup(spec: &'static TrainSpec, seed: u64, timed_arch: bool) -> Res<Train> {
        let dataset = Arc::new(spec.dataset(seed)?);
        let arch = spec.arch();
        let config = TrainerConfig::simple(spec.total_vns, spec.batch_size, 0.05, seed);
        let run_arch: Arc<dyn Architecture> = if timed_arch {
            Arc::new(TimedArch(arch.clone()))
        } else {
            arch.clone()
        };
        let trainer = Trainer::new(
            run_arch,
            dataset.clone(),
            config.clone(),
            &devices(spec.initial_devices),
        )?;
        Ok(Train {
            spec,
            arch,
            dataset,
            config,
            trainer,
            step_ms: Vec::with_capacity(1 << 16),
            resize_ms: Vec::with_capacity(1 << 10),
            waves: 0,
            first_loss: None,
            last_batch_loss: f32::NAN,
            snapshot: None,
        })
    }

    fn run_batch(&mut self) -> Res<Batch> {
        let (started, cpu_started) = (Instant::now(), cpu_seconds());
        let mut loss_sum = 0.0f32;
        for &(resize_to, steps) in self.spec.legs {
            if let Some(n) = resize_to {
                let new_devices = devices(n);
                let t = Instant::now();
                let span = spans::enter("core.resize");
                self.trainer.resize(&new_devices)?;
                drop(span);
                self.resize_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            for _ in 0..steps {
                let t = Instant::now();
                let span = spans::enter("core.engine.step");
                let report = self.trainer.step()?;
                drop(span);
                self.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
                self.waves += report.waves as u64;
                self.first_loss.get_or_insert(report.loss);
                loss_sum += report.loss;
            }
        }
        let (wall_s, cpu_s) = (started.elapsed().as_secs_f64(), cpu_seconds() - cpu_started);
        let ops = self.spec.batch_ops();
        self.last_batch_loss = loss_sum / ops as f32;
        Ok(Batch {
            ops: ops as u64,
            work: (ops * self.spec.batch_size) as f64,
            wall_s,
            cpu_s,
        })
    }

    /// The decoupling invariant: a fresh trainer on one device, given the
    /// same job, reaches bit-identical parameters after the same number of
    /// steps as the measured trainer did on several devices or across
    /// resizes. Also: the loss is finite and went down.
    fn check(&self) -> Res<()> {
        let (steps, params) = self.snapshot.as_ref().ok_or("no snapshot was taken")?;
        let mut single = Trainer::new(
            self.arch.clone(),
            self.dataset.clone(),
            self.config.clone(),
            &devices(1),
        )?;
        for _ in 0..*steps {
            single.step()?;
        }
        let same = single.params().len() == params.len()
            && single.params().iter().zip(params).all(|(a, b)| {
                a.data().len() == b.data().len()
                    && a.data()
                        .iter()
                        .zip(b.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            });
        if !same {
            return Err(format!(
                "parameters after {steps} steps differ between 1 device and the measured mapping"
            )
            .into());
        }
        let first = self.first_loss.unwrap_or(f32::NAN);
        let last = self.last_batch_loss;
        if !(first.is_finite() && last.is_finite() && last < first) {
            return Err(
                format!("loss did not go down: first step {first}, last batch {last}").into(),
            );
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Scheduler workload
// ---------------------------------------------------------------------------

/// vf-sched only: 1600 events, ~100 active jobs per event and ~90%
/// utilisation, so the per-event scan, `step_time_on`, snapshot clones and
/// the WFS water-fill all matter; no tensor code runs.
///
/// The trace is `poisson_trace(800, 140/h, demand ≤ 8)` at a *fixed* base
/// seed, with every arrival moved by up to a minute either way as `--seed`
/// says. Independent Poisson traces of this size differ by 2× in simulation
/// cost (Σ active jobs per event 131k–195k over 24 seeds), which would drown
/// any code change; jittered arrivals reorder events and change the
/// simulation (digest, resizes ±7%) while its size stays within 1%.
///
/// The simulated makespan must stay under 2^15 s: beyond that `run_trace`
/// can spin forever on a job whose residual work no longer advances the f64
/// clock (see README). This trace ends near 25.1k s for every seed.
pub const SCHED_JOBS: u32 = 800;
const SCHED_RATE_PER_HOUR: f64 = 140.0;
const SCHED_MAX_DEMAND: u32 = 8;
const SCHED_GPUS: u32 = 256;
const SCHED_BASE_SEED: u64 = 2022;
const SCHED_JITTER_S: f64 = 60.0;

/// xorshift64*, for the arrival jitter: the benchmark's own generator, so
/// that its inputs do not change when a library's does.
struct XorShift(u64);

impl XorShift {
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Forwards to Elastic WFS, recording a span and counts per `allocate`.
/// Used by the traced child only.
#[derive(Default)]
pub struct TimedScheduler {
    inner: ElasticWfs,
    pub calls: u64,
    pub jobs_seen: u64,
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&mut self, now_s: f64, jobs: &[JobState], capacity: u32) -> BTreeMap<JobId, u32> {
        let _span = spans::enter("sched.scheduler.allocate");
        self.calls += 1;
        self.jobs_seen += jobs.len() as u64;
        self.inner.allocate(now_s, jobs, capacity)
    }
}

pub struct Sched {
    pub trace: Vec<JobSpec>,
    pub config: SimConfig,
    pub run_ms: Vec<f64>,
    /// Run through [`TimedScheduler`] instead of a plain `ElasticWfs`.
    pub timed: bool,
    /// Counts of the most recent timed run.
    pub allocate_calls: u64,
    pub jobs_seen: u64,
    pub last: Option<SimResult>,
    digest: Option<u64>,
    digest_mismatches: u64,
}

impl Sched {
    pub fn generate(seed: u64) -> (Vec<JobSpec>, SimConfig) {
        let config = SimConfig::v100_cluster(SCHED_GPUS);
        let mut trace = poisson_trace(
            SCHED_JOBS,
            SCHED_RATE_PER_HOUR,
            SCHED_MAX_DEMAND,
            SCHED_BASE_SEED,
            &config.link,
        );
        // Any seed, 0 included, must start the generator off zero.
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        for job in &mut trace {
            let jitter = (2.0 * rng.unit() - 1.0) * SCHED_JITTER_S;
            job.arrival_s = (job.arrival_s + jitter).max(0.0);
        }
        (trace, config)
    }

    fn setup(seed: u64) -> Sched {
        let (trace, config) = Sched::generate(seed);
        Sched {
            trace,
            config,
            run_ms: Vec::with_capacity(1 << 12),
            timed: false,
            allocate_calls: 0,
            jobs_seen: 0,
            last: None,
            digest: None,
            digest_mismatches: 0,
        }
    }

    fn run_batch(&mut self) -> Batch {
        let (started, cpu_started) = (Instant::now(), cpu_seconds());
        let span = spans::enter("sched.sim.run");
        let result = if self.timed {
            let mut scheduler = TimedScheduler::default();
            let result = run_trace(&self.trace, &mut scheduler, &self.config);
            self.allocate_calls = scheduler.calls;
            self.jobs_seen = scheduler.jobs_seen;
            result
        } else {
            run_trace(&self.trace, &mut ElasticWfs::new(), &self.config)
        };
        drop(span);
        let (wall_s, cpu_s) = (started.elapsed().as_secs_f64(), cpu_seconds() - cpu_started);
        self.run_ms.push(wall_s * 1e3);
        // The simulation is deterministic: every op of a run must produce
        // the same result.
        let digest = sched_digest(&result);
        if *self.digest.get_or_insert(digest) != digest {
            self.digest_mismatches += 1;
        }
        self.last = Some(result);
        Batch {
            ops: 1,
            work: f64::from(SCHED_JOBS),
            wall_s,
            cpu_s,
        }
    }

    fn check(&self) -> Res<()> {
        let result = self.last.as_ref().ok_or("no simulation ran")?;
        check_sim_result(result, &self.trace, self.config.num_gpus)?;
        if self.digest_mismatches > 0 {
            return Err(
                format!("{} ops produced a different result", self.digest_mismatches).into(),
            );
        }
        Ok(())
    }
}

/// Makespan, mean JCT, total resizes and every job's finish time, by bits.
pub fn sched_digest(result: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(result.metrics.makespan_s.to_bits());
    h.u64(result.metrics.mean_jct_s.to_bits());
    h.u64(u64::from(result.metrics.total_resizes));
    for job in &result.jobs {
        h.u64(job.finished_at_s.map_or(u64::MAX, f64::to_bits));
    }
    h.0
}

/// Every job finished, none before it arrived, and no timeline sample hands
/// out more GPUs than the cluster has.
pub fn check_sim_result(result: &SimResult, trace: &[JobSpec], capacity: u32) -> Res<()> {
    if result.jobs.len() != trace.len() {
        return Err(format!("{} jobs in, {} out", trace.len(), result.jobs.len()).into());
    }
    for job in &result.jobs {
        match job.finished_at_s {
            Some(f) if f >= job.spec.arrival_s => {}
            other => {
                return Err(format!(
                    "{} arrived at {} and finished at {other:?}",
                    job.spec.id, job.spec.arrival_s
                )
                .into())
            }
        }
    }
    for sample in &result.timeline {
        let used: u64 = sample.allocations.values().map(|&g| u64::from(g)).sum();
        if used > u64::from(capacity) {
            return Err(format!("{used} of {capacity} GPUs allocated at {}", sample.time_s).into());
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The common face
// ---------------------------------------------------------------------------

pub enum Workload {
    Train(Box<Train>),
    Sched(Box<Sched>),
}

impl Workload {
    /// Generates the inputs and builds the trainer or simulator
    /// configuration. `setup_s` covers this and the first batch.
    pub fn setup(name: &str, seed: u64, traced: bool) -> Res<Workload> {
        let spec = match name {
            "train_dense" => &TRAIN_DENSE,
            "train_conv" => &TRAIN_CONV,
            "train_many_vn" => &TRAIN_MANY_VN,
            "sched_elastic" => return Ok(Workload::Sched(Box::new(Sched::setup(seed)))),
            other => return Err(format!("unknown workload {other}").into()),
        };
        Ok(Workload::Train(Box::new(Train::setup(spec, seed, traced)?)))
    }

    pub fn batch_ops(&self) -> u64 {
        match self {
            Workload::Train(t) => t.spec.batch_ops() as u64,
            Workload::Sched(_) => 1,
        }
    }

    pub fn run_batch(&mut self) -> Res<Batch> {
        match self {
            Workload::Train(t) => t.run_batch(),
            Workload::Sched(s) => Ok(s.run_batch()),
        }
    }

    /// The untimed batches after the first: for training, up to the step at
    /// which parameters are snapshot for the check (the workload's
    /// `check_steps`, or where it already is when `quick`). Forgets the op
    /// times recorded so far.
    pub fn warm_up(&mut self, quick: bool) -> Res<()> {
        if let Workload::Train(t) = self {
            let steps = if quick { 0 } else { t.spec.check_steps as u64 };
            while t.trainer.steps_done() < steps {
                t.run_batch()?;
            }
            t.snapshot = Some((t.trainer.steps_done(), t.trainer.params().to_vec()));
            t.resize_ms.clear();
            t.waves = 0;
        }
        self.clear_op_ms();
        Ok(())
    }

    pub fn clear_op_ms(&mut self) {
        match self {
            Workload::Train(t) => t.step_ms.clear(),
            Workload::Sched(s) => s.run_ms.clear(),
        }
    }

    /// Per-op wall times in ms recorded since the warm-up or the last clear.
    pub fn op_ms(&self) -> &[f64] {
        match self {
            Workload::Train(t) => &t.step_ms,
            Workload::Sched(s) => &s.run_ms,
        }
    }

    pub fn check(&self) -> Res<()> {
        match self {
            Workload::Train(t) => t.check(),
            Workload::Sched(s) => s.check(),
        }
    }

    /// A digest of the outputs (the snapshot parameters, or the simulation),
    /// printed so that two commits can be compared.
    pub fn digest(&self) -> u64 {
        match self {
            Workload::Sched(s) => s.digest.unwrap_or(0),
            Workload::Train(t) => {
                let mut h = Fnv::new();
                for p in t.snapshot.iter().flat_map(|(_, params)| params) {
                    for v in p.data() {
                        h.u64(u64::from(v.to_bits()));
                    }
                }
                h.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_digest_is_stable() {
        // FNV-1a of eight zero bytes, and of the bytes of 1 then 2.
        let mut h = Fnv::new();
        h.u64(0);
        assert_eq!(h.0, 0xa8c7_f832_281a_39c5);
        let mut a = Fnv::new();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut again = Fnv::new();
        again.u64(1);
        again.u64(2);
        assert_eq!(a, again);
    }

    #[test]
    fn a_batch_is_the_sum_of_its_legs() {
        assert_eq!(TRAIN_DENSE.batch_ops(), 2);
        assert_eq!(TRAIN_CONV.batch_ops(), 1);
        assert_eq!(TRAIN_MANY_VN.batch_ops(), 64);
        for spec in [&TRAIN_DENSE, &TRAIN_CONV, &TRAIN_MANY_VN] {
            assert_eq!(spec.check_steps % spec.batch_ops(), 0);
            assert_eq!(spec.batch_size % spec.total_vns as usize, 0);
        }
        assert_eq!(TRAIN_MANY_VN.micro_batch(), 8);
    }

    #[test]
    fn every_workload_has_its_info() {
        for i in &INFOS {
            assert!(info(i.name).is_some());
        }
        assert!(info("nope").is_none());
        assert!(Workload::setup("nope", 1, false).is_err());
    }

    #[test]
    fn the_seed_jitters_arrivals_and_nothing_else() {
        let (a, _) = Sched::generate(1);
        let (b, _) = Sched::generate(2);
        let (a_again, _) = Sched::generate(1);
        assert_eq!(a.len(), SCHED_JOBS as usize);
        assert!(a
            .iter()
            .zip(&a_again)
            .all(|(x, y)| x.arrival_s == y.arrival_s));
        assert!(a.iter().zip(&b).any(|(x, y)| x.arrival_s != y.arrival_s));
        for (x, y) in a.iter().zip(&b) {
            assert!((x.arrival_s - y.arrival_s).abs() <= 2.0 * SCHED_JITTER_S);
            assert_eq!(
                (x.id, x.demand, x.total_steps, x.priority),
                (y.id, y.demand, y.total_steps, y.priority)
            );
        }
        let mut zero = XorShift(1);
        let u = zero.unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn sim_result_checks_catch_unfinished_jobs_and_overallocation() {
        let (mut trace, config) = Sched::generate(3);
        trace.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        trace.truncate(20);
        let good = run_trace(&trace, &mut ElasticWfs::new(), &config);
        assert!(check_sim_result(&good, &trace, config.num_gpus).is_ok());
        assert_eq!(sched_digest(&good), sched_digest(&good.clone()));

        let mut unfinished = good.clone();
        unfinished.jobs[3].finished_at_s = None;
        assert!(check_sim_result(&unfinished, &trace, config.num_gpus).is_err());
        assert_ne!(sched_digest(&good), sched_digest(&unfinished));

        let mut early = good.clone();
        early.jobs[0].finished_at_s = Some(early.jobs[0].spec.arrival_s - 1.0);
        assert!(check_sim_result(&early, &trace, config.num_gpus).is_err());

        assert!(check_sim_result(&good, &trace, 1).is_err());
        assert!(check_sim_result(&good, &trace[1..], config.num_gpus).is_err());
    }
}
