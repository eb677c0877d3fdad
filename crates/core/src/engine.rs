//! The virtual node training engine.
//!
//! [`Trainer`] executes synchronous data-parallel training over virtual
//! nodes (paper §3.2):
//!
//! 1. each global batch is split into `N` equal virtual node shards in
//!    logical VN order (never device order);
//! 2. devices process their assigned virtual nodes **sequentially** (waves),
//!    while different devices run **in parallel** (one thread per device);
//! 3. after the last wave, per-VN gradients are reduced in VN order through
//!    the one tree of [`vf_tensor::reduce`] and synchronized **once per
//!    step**, then the optimizer applies exactly one update.
//!
//! There is one executor for every reduction order and bucket plan
//! (`Trainer::compute_and_reduce`); gradient bucketing
//! ([`crate::overlap`]) shapes the simulated comm lane and the trace, not
//! host execution.
//!
//! Because the shard decomposition, gradient reduction order, and optimizer
//! state depend only on the virtual node count — not on the device mapping —
//! the resulting parameter trajectory is *bit-for-bit identical* across any
//! device count or resize schedule. That is the paper's reproducibility
//! guarantee, and the property the integration tests assert.
//!
//! Batch-norm moving statistics are the exception, faithfully reproduced
//! from §5.1: they are per-device "stateful kernels", updated in the order a
//! device runs its virtual nodes, and migrated (not reset) on resizes.

use crate::checkpoint::Checkpoint;
use crate::config::TrainerConfig;
use crate::overlap::BucketPlan;
use crate::vnode::{MigrationPlan, VirtualNodeId, VnMapping};
use crate::CoreError;
use std::collections::BTreeMap;
use std::sync::Arc;
use vf_data::batching::{BatchPlan, VisitLedger};
use vf_data::partitioned::PartitionedPlan;
use vf_data::{Dataset, DistributionMode};
use vf_device::DeviceId;
use vf_models::trainable::{Architecture, EvalReport, StatefulState};
use vf_obs::{Event, Monitor, Recorder};
use vf_tensor::ops::clip_global_norm;
use vf_tensor::optim::Optimizer;
use vf_tensor::reduce;
use vf_tensor::Tensor;

/// Which index order an epoch uses, depending on the distribution mode.
#[derive(Debug, Clone)]
enum PlanKind {
    /// Replicated dataset: one global shuffle, sliced into VN shards.
    Replicated(BatchPlan),
    /// Partitioned dataset: per-virtual-node partitions and shuffles.
    Partitioned(PartitionedPlan),
}

/// The batch plan in use, plus the index order of the epoch being trained.
///
/// The order is a pure function of `(plan, epoch)`; it is kept so that a
/// step looks its shards up in O(batch) instead of reshuffling the whole
/// dataset. It is keyed by epoch alone — never by "the previous step plus
/// one" — so a retried step, a restored checkpoint or a jump to any other
/// step reads exactly what [`BatchPlan::batch_at`] +
/// [`shard_indices`](vf_data::batching::shard_indices) (or
/// [`PartitionedPlan::shards_at`]) would return.
#[derive(Debug, Clone)]
struct DataPlan {
    kind: PlanKind,
    /// Examples per virtual node per step.
    micro_batch: usize,
    /// `(epoch, order)`: the epoch permutation (replicated), or every
    /// partition's permutation back to back in VN order (partitioned).
    order: Option<(usize, Vec<usize>)>,
}

impl DataPlan {
    fn new(config: &TrainerConfig, dataset_len: usize) -> Result<Self, CoreError> {
        let kind = match config.distribution {
            DistributionMode::Replicated => PlanKind::Replicated(BatchPlan::new(
                dataset_len,
                config.batch_size,
                config.seed,
            )?),
            DistributionMode::Partitioned => PlanKind::Partitioned(PartitionedPlan::new(
                dataset_len,
                config.total_vns,
                config.batch_size,
                config.seed,
            )?),
        };
        Ok(DataPlan {
            kind,
            micro_batch: config.micro_batch(),
            order: None,
        })
    }

    fn steps_per_epoch(&self) -> usize {
        match &self.kind {
            PlanKind::Replicated(p) => p.steps_per_epoch(),
            PlanKind::Partitioned(p) => p.steps_per_epoch(),
        }
    }

    /// Makes the order of the epoch containing absolute `step` current and
    /// returns `(epoch, step_in_epoch)`.
    fn seek(&mut self, step: usize) -> (usize, usize) {
        let spe = self.steps_per_epoch();
        let epoch = step / spe;
        if self.order.as_ref().map(|(e, _)| *e) != Some(epoch) {
            let order = match &self.kind {
                PlanKind::Replicated(p) => p.epoch_permutation(epoch),
                PlanKind::Partitioned(p) => (0..p.num_partitions())
                    .flat_map(|vn| p.partition_permutation(vn, epoch))
                    .collect(),
            };
            self.order = Some((epoch, order));
        }
        (epoch, step % spe)
    }

    /// Virtual node `vn`'s shard at `step_in_epoch` of the epoch last
    /// [sought](DataPlan::seek).
    ///
    /// # Panics
    ///
    /// Panics if no epoch was sought yet, or `(step_in_epoch, vn)` lies
    /// outside it.
    fn shard(&self, step_in_epoch: usize, vn: usize) -> &[usize] {
        let order = self.order.as_ref().map_or(&[][..], |(_, o)| o);
        let m = self.micro_batch;
        let start = match &self.kind {
            PlanKind::Replicated(p) => step_in_epoch * p.batch_size() + vn * m,
            PlanKind::Partitioned(p) => vn * p.partition_len() + step_in_epoch * m,
        };
        &order[start..start + m]
    }
}

/// What one step computed, before any of it is committed to the trainer.
struct StepOutput {
    /// The reduced gradient of every parameter, in parameter order.
    reduced: Vec<Tensor>,
    /// Every device's stateful kernels after its waves.
    replicas: Vec<(DeviceId, StatefulState)>,
    /// Per-VN mean losses, in VN order.
    vn_losses: Vec<f32>,
}

/// The outcome of one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Global step index (0-based) of the step just executed.
    pub step: u64,
    /// Epoch the step belonged to.
    pub epoch: usize,
    /// Step index within the epoch.
    pub step_in_epoch: usize,
    /// Mean training loss over the global batch.
    pub loss: f32,
    /// Learning rate applied.
    pub lr: f32,
    /// Number of sequential waves (max VNs on any device).
    pub waves: usize,
}

/// A synchronous data-parallel trainer over virtual nodes.
///
/// # Examples
///
/// ```
/// use vf_core::{Trainer, TrainerConfig};
/// use vf_data::synthetic::ClusterTask;
/// use vf_device::DeviceId;
/// use vf_models::Mlp;
/// use std::sync::Arc;
///
/// let dataset = ClusterTask::easy(0).generate()?;
/// let arch = Arc::new(Mlp::linear(16, 4));
/// let config = TrainerConfig::simple(8, 64, 0.2, 0);
/// let devices: Vec<DeviceId> = (0..2).map(DeviceId).collect();
/// let mut trainer = Trainer::new(arch, Arc::new(dataset), config, &devices)?;
/// let report = trainer.step()?;
/// assert_eq!(report.step, 0);
/// assert_eq!(report.waves, 4); // 8 VNs on 2 devices
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Trainer {
    arch: Arc<dyn Architecture>,
    dataset: Arc<Dataset>,
    config: TrainerConfig,
    plan: DataPlan,
    params: Vec<Tensor>,
    optimizer: Box<dyn Optimizer + Send>,
    mapping: VnMapping,
    replicas: BTreeMap<DeviceId, StatefulState>,
    step: u64,
    ledger: Option<VisitLedger>,
    obs: Recorder,
    /// Monitoring hook: when attached, each step publishes its loss, lr,
    /// and step count into the monitor's registry.
    monitor: Option<Arc<Monitor>>,
    /// Fixed gradient-bucket boundaries: one `bucket{k}/reduce` trace span
    /// per bucket. A single bucket (the default) is the one-sync-per-step
    /// schedule.
    bucket_plan: BucketPlan,
}

impl Trainer {
    /// Creates a trainer over the given devices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BatchNotDivisible`] if the batch size does not
    /// divide across the virtual nodes, mapping errors from
    /// [`VnMapping::balanced`], and [`CoreError::Data`] if the batch size
    /// exceeds the dataset.
    pub fn new(
        arch: Arc<dyn Architecture>,
        dataset: Arc<Dataset>,
        config: TrainerConfig,
        devices: &[DeviceId],
    ) -> Result<Self, CoreError> {
        if config.total_vns == 0 {
            return Err(CoreError::NoVirtualNodes);
        }
        if !config.batch_size.is_multiple_of(config.total_vns as usize) {
            return Err(CoreError::BatchNotDivisible {
                batch_size: config.batch_size,
                virtual_nodes: config.total_vns,
            });
        }
        let plan = DataPlan::new(&config, dataset.len())?;
        let mapping = VnMapping::balanced(config.total_vns, devices)?;
        let params = arch.init_params(config.seed);
        let optimizer = config.optimizer.build(config.schedule.at(0));
        let replicas = mapping
            .devices()
            .into_iter()
            .map(|d| (d, arch.init_stateful()))
            .collect();
        let ledger = match config.distribution {
            DistributionMode::Partitioned => Some(VisitLedger::new(dataset.len())),
            DistributionMode::Replicated => None,
        };
        let sizes: Vec<u64> = params.iter().map(|p| p.size_bytes() as u64).collect();
        Ok(Trainer {
            arch,
            dataset,
            config,
            plan,
            params,
            optimizer,
            mapping,
            replicas,
            step: 0,
            ledger,
            obs: Recorder::disabled(),
            monitor: None,
            bucket_plan: BucketPlan::single(&sizes),
        })
    }

    /// Sets the gradient-bucket byte threshold; `None` restores the
    /// single-bucket default (one sync per step).
    ///
    /// Boundaries are a pure function of the canonical parameter order and
    /// this threshold — never of arrival time. The plan decides how many
    /// `bucket{k}/reduce` spans a step's trace carries (and, through
    /// `ChaosConfig::bucket_bytes` and [`crate::perf_model`], how the
    /// simulated comm lane is scheduled); it is not an input to the
    /// reduction, so the parameter trajectory is bit-identical for every
    /// setting.
    pub fn set_bucket_bytes(&mut self, bucket_bytes: Option<u64>) {
        let sizes: Vec<u64> = self.params.iter().map(|p| p.size_bytes() as u64).collect();
        self.bucket_plan = match bucket_bytes {
            Some(b) => BucketPlan::from_sizes(&sizes, b),
            None => BucketPlan::single(&sizes),
        };
    }

    /// The gradient-bucket plan the step trace reports.
    pub fn bucket_plan(&self) -> &BucketPlan {
        &self.bucket_plan
    }

    /// Attaches a trace recorder. Spans and counters are emitted only from
    /// the coordinating thread, in virtual node order, with timestamps on
    /// the recorder's simulated clock — so the trace is bit-identical
    /// across `VF_NUM_THREADS` settings and repeat runs.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The attached trace recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Attaches a monitor. Each completed step then publishes `train/loss`
    /// (gauge, *verbatim* — a NaN loss must reach the non-finite-loss
    /// alert rule, so it is not sanitized here), `train/lr` (gauge), and
    /// `train/steps` (monotone counter mirror) into the monitor's
    /// registry. Publishing happens on the coordinating thread after the
    /// deterministic loss reduction, so the published values are
    /// bit-identical across thread counts. The trainer never ticks the
    /// monitor — sampling cadence belongs to the driver that owns the
    /// simulated clock.
    pub fn set_monitor(&mut self, monitor: Arc<Monitor>) {
        self.monitor = Some(monitor);
    }

    /// The current model parameters.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// The current VN↔device mapping.
    pub fn mapping(&self) -> &VnMapping {
        &self.mapping
    }

    /// Number of steps executed.
    pub fn steps_done(&self) -> u64 {
        self.step
    }

    /// Steps per epoch of the underlying batch plan.
    pub fn steps_per_epoch(&self) -> usize {
        self.plan.steps_per_epoch()
    }

    /// Whether the trainer sits exactly on an epoch boundary.
    pub fn at_epoch_boundary(&self) -> bool {
        (self.step as usize).is_multiple_of(self.plan.steps_per_epoch())
    }

    /// The stateful kernels of one device replica, if that device is mapped.
    pub fn replica_stateful(&self, device: DeviceId) -> Option<&StatefulState> {
        self.replicas.get(&device)
    }

    /// Discards the replica state of `device`, simulating the loss of that
    /// device's memory on a crash. Used by [`crate::fault`] before resizing
    /// away from a failed device.
    pub(crate) fn discard_replica(&mut self, device: DeviceId) {
        self.replicas.remove(&device);
    }

    /// Executes one synchronous training step over the current mapping.
    ///
    /// # Errors
    ///
    /// Propagates shard, model, and reduction errors. A step commits on
    /// success only: after such an error the parameters, optimizer
    /// moments, per-device stateful kernels, visit ledger and step counter
    /// are what they were before the call, so the step can simply be
    /// retried.
    pub fn step(&mut self) -> Result<StepReport, CoreError> {
        let lr = self.config.schedule.at(self.step);
        self.optimizer.set_learning_rate(lr);
        let (epoch, step_in_epoch) = self.plan.seek(self.step as usize);

        let StepOutput {
            mut reduced,
            replicas,
            vn_losses,
        } = self.compute_and_reduce(step_in_epoch)?;
        if let Some(max_norm) = self.config.clip_norm {
            clip_global_norm(&mut reduced, max_norm);
        }
        self.optimizer.step(&mut self.params, &reduced)?;

        // Nothing below can fail: replicas, ledger and step counter commit
        // together with the optimizer update.
        self.replicas.extend(replicas);
        if let Some(ledger) = &mut self.ledger {
            if step_in_epoch == 0 {
                ledger.reset();
            }
            for vn in 0..self.config.total_vns as usize {
                ledger.record(self.plan.shard(step_in_epoch, vn));
            }
        }

        let loss = vn_losses.iter().sum::<f32>() / vn_losses.len() as f32;
        let report = StepReport {
            step: self.step,
            epoch,
            step_in_epoch,
            loss,
            lr,
            waves: self.mapping.waves(),
        };
        self.trace_step(&report, &vn_losses);
        self.step += 1;
        if let Some(mon) = &self.monitor {
            let m = mon.metrics();
            m.set_gauge("train/loss", f64::from(loss));
            m.set_gauge("train/lr", f64::from(lr));
            m.set_counter("train/steps", self.step);
            // Loss distribution over the whole run as a bounded sketch:
            // the gauge shows "now", the sketch's p50/p99 show the shape.
            m.observe_sketch("train/loss_dist", f64::from(loss));
        }
        Ok(report)
    }

    /// The one wave executor (paper §3.2, Fig. 5): one pool task per device
    /// runs that device's virtual nodes wave by wave, then — after every
    /// device has joined — each parameter's per-VN gradients are moved, in
    /// VN order, into [`reduce::reduce_mean_owned`]. VN order is what makes
    /// the result independent of the mapping. Sharing the process-wide
    /// vf-tensor pool (instead of spawning per-step threads) keeps device
    /// fan-out and kernel parallelism on one fixed set of workers; nested
    /// kernel submissions are deadlock-free because submitters help drain
    /// their own jobs.
    ///
    /// Takes `&self`: a failing device or reduction leaves the trainer
    /// untouched, and [`Trainer::step`] commits the output as a whole.
    fn compute_and_reduce(&self, step_in_epoch: usize) -> Result<StepOutput, CoreError> {
        let arch = &self.arch;
        let dataset = &self.dataset;
        let params = &self.params;
        let plan = &self.plan;
        let total_vns = self.config.total_vns as usize;
        let work: Vec<(DeviceId, &[VirtualNodeId], &StatefulState)> = self
            .replicas
            .iter()
            .map(|(&d, st)| (d, self.mapping.vns_on(d), st))
            .collect();

        type DeviceResult = Result<
            (DeviceId, StatefulState, Vec<(usize, Vec<Tensor>, f32)>),
            CoreError,
        >;
        let results: Vec<DeviceResult> = vf_tensor::pool::parallel_tasks(work.len(), |i| {
            let (device, vns, stateful) = work[i];
            let mut stateful = stateful.clone();
            let mut outputs = Vec::with_capacity(vns.len());
            for vn in vns {
                let vn = vn.0 as usize;
                let (x, y) = dataset.gather(plan.shard(step_in_epoch, vn))?;
                let report = arch.grad(params, &mut stateful, &x, &y)?;
                outputs.push((vn, report.grads, report.loss));
            }
            Ok((device, stateful, outputs))
        });

        // One gradient column per VN, consumed parameter by parameter.
        let mut vn_grads: Vec<std::vec::IntoIter<Tensor>> =
            vec![Vec::new().into_iter(); total_vns];
        let mut vn_losses = vec![0.0; total_vns];
        let mut replicas = Vec::with_capacity(results.len());
        for result in results {
            let (device, stateful, outputs) = result?;
            replicas.push((device, stateful));
            for (vn, grads, loss) in outputs {
                vn_losses[vn] = loss;
                vn_grads[vn] = grads.into_iter();
            }
        }

        let mut reduced = Vec::with_capacity(self.params.len());
        for _ in 0..self.params.len() {
            let parts: Vec<Tensor> = vn_grads
                .iter_mut()
                .map(|g| {
                    g.next().ok_or(CoreError::Internal {
                        invariant: "every VN ran on one device and yielded a gradient per parameter",
                    })
                })
                .collect::<Result<_, _>>()?;
            reduced.push(reduce::reduce_mean_owned(parts, self.config.reduction, None)?);
        }
        Ok(StepOutput {
            reduced,
            replicas,
            vn_losses,
        })
    }

    /// Emits the per-step trace: one span per virtual node (in VN order, on
    /// its own logical `tid`), an aggregate span, and loss/lr/fleet
    /// counters. Runs only on the coordinating thread, *after* all device
    /// tasks have joined, so event order is a pure function of the logical
    /// step — never of pool scheduling. Timestamps are offsets on the
    /// recorder's simulated clock; each step advances it by a fixed logical
    /// width so a bare trainer (no outer SimClock driver) still produces a
    /// strictly ordered timeline.
    fn trace_step(&self, report: &StepReport, vn_losses: &[f32]) {
        if !self.obs.is_enabled() {
            return;
        }
        let base = self.obs.now_us();
        let total_vns = vn_losses.len();
        for (vn, &loss) in vn_losses.iter().enumerate() {
            self.obs.emit(
                Event::complete(format!("vn{vn}/grad"), "train", base + vn as u64, 1)
                    .with_tid(vn as u32 + 1)
                    .with_arg("step", report.step)
                    .with_arg("loss", loss),
            );
        }
        // Per-device busy mirror of the VN spans: each device's track
        // (tid `device_tid(i)`) carries one busy span per VN it ran this
        // step, so the profiler's track-busy table reads utilization per
        // device straight off the trace. Devices iterate in id order and
        // VNs in VN order — the same canonical order as everything else.
        for (di, (_, vns)) in self.mapping.iter().enumerate() {
            for vn in vns {
                self.obs.emit(
                    Event::complete(
                        format!("dev{di}/busy"),
                        "device",
                        base + u64::from(vn.0),
                        1,
                    )
                    .with_tid(vf_device::obs::device_tid(di))
                    .with_arg("step", report.step),
                );
            }
            self.obs.emit(
                Event::counter(
                    format!("dev{di}/vns"),
                    "device",
                    base,
                    vns.len(),
                )
                .with_tid(vf_device::obs::device_tid(di)),
            );
        }
        let agg_ts = base + total_vns as u64;
        let param_bytes: usize = self.params.iter().map(Tensor::size_bytes).sum();
        // The aggregate span widens just enough to parent one unit-width
        // reduce span per gradient bucket; the single-bucket default keeps
        // the original width-4 span.
        let buckets = self.bucket_plan.num_buckets();
        let agg_dur = 4u64.max(buckets as u64 + 1);
        self.obs.emit(
            Event::complete("aggregate", "train", agg_ts, agg_dur)
                .with_arg("step", report.step)
                .with_arg("waves", report.waves)
                .with_arg("param_bytes", param_bytes)
                .with_arg("buckets", buckets),
        );
        for k in 0..buckets {
            self.obs.emit(
                Event::complete(format!("bucket{k}/reduce"), "comm", agg_ts + k as u64, 1)
                    .with_arg("step", report.step),
            );
        }
        self.obs
            .emit(Event::counter("train/loss", "train", agg_ts, f64::from(report.loss)));
        self.obs
            .emit(Event::counter("train/lr", "train", agg_ts, f64::from(report.lr)));
        self.obs.emit(Event::counter(
            "train/devices",
            "train",
            agg_ts,
            self.mapping.num_devices(),
        ));
        self.obs.emit(Event::counter(
            "train/param_bytes",
            "train",
            agg_ts,
            param_bytes,
        ));
        self.obs.advance_us(total_vns as u64 + 4 + agg_dur);
    }

    /// Runs `n` consecutive steps, returning the last report.
    ///
    /// # Errors
    ///
    /// Stops at the first failing step.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn run_steps(&mut self, n: usize) -> Result<StepReport, CoreError> {
        assert!(n > 0, "run_steps requires n > 0");
        let mut last = None;
        for _ in 0..n {
            last = Some(self.step()?);
        }
        last.ok_or(CoreError::Internal {
            invariant: "run_steps with n > 0 executes at least one step",
        })
    }

    /// Runs exactly one epoch, returning the mean training loss.
    ///
    /// # Errors
    ///
    /// Stops at the first failing step.
    pub fn run_epoch(&mut self) -> Result<f32, CoreError> {
        let spe = self.plan.steps_per_epoch();
        let mut total = 0.0;
        for _ in 0..spe {
            total += self.step()?.loss;
        }
        Ok(total / spe as f32)
    }

    /// Resizes the job onto a new device set, redistributing virtual nodes
    /// and migrating stateful kernels (paper §4.1, §5.1).
    ///
    /// New devices receive the model parameters implicitly (parameters are
    /// logically replicated) and a *copy of the stateful kernels of the
    /// device that donated their first migrated virtual node* — the
    /// stateful-kernel migration the paper requires to avoid resetting
    /// batch-norm moving statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PartitionedResizeOffEpoch`] if the dataset is
    /// partitioned and the trainer is mid-epoch, plus mapping errors.
    pub fn resize(&mut self, new_devices: &[DeviceId]) -> Result<MigrationPlan, CoreError> {
        if self.config.distribution == DistributionMode::Partitioned && !self.at_epoch_boundary() {
            return Err(CoreError::PartitionedResizeOffEpoch {
                steps_into_epoch: self.step as usize % self.plan.steps_per_epoch(),
            });
        }
        let (new_mapping, plan) = self.mapping.redistribute(new_devices)?;

        // Migrate stateful kernels: each new device clones the state of the
        // device donating its first migrated VN; surviving devices keep
        // theirs; removed devices' state is dropped after donation.
        let mut new_replicas: BTreeMap<DeviceId, StatefulState> = BTreeMap::new();
        for d in new_mapping.devices() {
            if let Some(existing) = self.replicas.get(&d) {
                new_replicas.insert(d, existing.clone());
            } else {
                let donor = plan
                    .moves
                    .iter()
                    .find(|m| m.to == d)
                    .map(|m| m.from)
                    .ok_or(CoreError::Internal {
                        invariant: "a new device always receives at least one VN",
                    })?;
                // Prefer the donating device's state; if it is gone (e.g. it
                // failed rather than being gracefully released), fetch from
                // any healthy replica, as §7's fault tolerance prescribes.
                let donated = self
                    .replicas
                    .get(&donor)
                    .or_else(|| self.replicas.values().next())
                    .cloned()
                    .unwrap_or_else(|| self.arch.init_stateful());
                new_replicas.insert(d, donated);
            }
        }
        self.replicas = new_replicas;
        self.mapping = new_mapping;
        self.obs.record_with(|| {
            Event::instant("resize", "train", self.obs.now_us())
                .with_arg("devices", self.mapping.num_devices())
                .with_arg("moves", plan.moves.len())
                .with_arg("step", self.step)
        });
        Ok(plan)
    }

    /// Evaluates the model on a dataset in inference mode, using the
    /// stateful kernels of the lowest-id device (the paper evaluates on one
    /// worker).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<EvalReport, CoreError> {
        let stateful = self
            .replicas
            .values()
            .next()
            .cloned()
            .unwrap_or_else(|| self.arch.init_stateful());
        Ok(self.arch.eval(
            &self.params,
            &stateful,
            dataset.features(),
            dataset.labels(),
        )?)
    }

    /// Snapshots the complete job state into a [`Checkpoint`].
    pub fn to_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            schema_version: crate::checkpoint::CHECKPOINT_SCHEMA_VERSION,
            config: self.config.clone(),
            step: self.step,
            params: self.params.clone(),
            optimizer: self.optimizer.export_state(),
            stateful: self
                .replicas
                .values()
                .map(|s| s.tensors().to_vec())
                .collect(),
        }
    }

    /// Rebuilds a trainer from a checkpoint on a (possibly different) device
    /// set. Stateful kernels are dealt to the new devices round-robin from
    /// the snapshot. The continued trajectory is identical to the original
    /// run's regardless of the device count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Trainer::new`], plus optimizer-state layout
    /// mismatches if the checkpoint does not match the architecture.
    pub fn from_checkpoint(
        arch: Arc<dyn Architecture>,
        dataset: Arc<Dataset>,
        checkpoint: Checkpoint,
        devices: &[DeviceId],
    ) -> Result<Self, CoreError> {
        let mut trainer = Trainer::new(arch, dataset, checkpoint.config, devices)?;
        trainer.params = checkpoint.params;
        trainer.step = checkpoint.step;
        trainer.optimizer.import_state(checkpoint.optimizer)?;
        if !checkpoint.stateful.is_empty() {
            let donors = checkpoint.stateful;
            for (i, state) in trainer.replicas.values_mut().enumerate() {
                *state = StatefulState::new(donors[i % donors.len()].clone());
            }
        }
        Ok(trainer)
    }

    /// For partitioned datasets: indices whose per-epoch visit count
    /// violates exactly-once so far this epoch. Empty for replicated mode.
    pub fn visitation_violations(&self) -> Vec<usize> {
        match &self.ledger {
            Some(l) if self.at_epoch_boundary() && self.step > 0 => l.violations(1),
            _ => Vec::new(),
        }
    }
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("arch", &self.arch.name())
            .field("step", &self.step)
            .field("total_vns", &self.config.total_vns)
            .field("devices", &self.mapping.num_devices())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Mutex;
    use vf_data::batching::shard_indices;
    use vf_data::synthetic::ClusterTask;
    use vf_models::trainable::GradReport;
    use vf_models::{Mlp, ModelError};
    use vf_tensor::reduce::ReductionOrder;

    fn devices(n: u32) -> Vec<DeviceId> {
        (0..n).map(DeviceId).collect()
    }

    fn make_trainer(total_vns: u32, num_devices: u32, seed: u64) -> Trainer {
        let dataset = Arc::new(ClusterTask::easy(seed).generate().unwrap());
        let arch = Arc::new(Mlp::linear(16, 4));
        let config = TrainerConfig::simple(total_vns, 64, 0.2, seed);
        Trainer::new(arch, dataset, config, &devices(num_devices)).unwrap()
    }

    #[test]
    fn construction_validates_divisibility() {
        let dataset = Arc::new(ClusterTask::easy(0).generate().unwrap());
        let arch = Arc::new(Mlp::linear(16, 4));
        let config = TrainerConfig::simple(7, 64, 0.2, 0);
        let err = Trainer::new(arch, dataset, config, &devices(2)).unwrap_err();
        assert!(matches!(err, CoreError::BatchNotDivisible { .. }));
    }

    #[test]
    fn step_reports_progress_and_loss_decreases() {
        let mut t = make_trainer(8, 2, 0);
        let r0 = t.step().unwrap();
        assert_eq!(r0.step, 0);
        assert_eq!(r0.epoch, 0);
        let early = r0.loss;
        for _ in 0..30 {
            t.step().unwrap();
        }
        let late = t.step().unwrap().loss;
        assert!(late < early, "loss should fall: {early} → {late}");
    }

    #[test]
    fn trajectories_identical_across_device_counts() {
        // The headline reproducibility property: same VN count, different
        // device counts ⇒ bitwise-identical parameters, for every
        // deterministic reduction order (8 waves, 4 waves, 1 wave).
        for order in [ReductionOrder::Tree, ReductionOrder::Sequential] {
            let mk = |num_devices| {
                let mut t = make_trainer(8, num_devices, 3);
                t.config.reduction = order;
                t
            };
            let (mut t1, mut t2, mut t8) = (mk(1), mk(2), mk(8));
            for _ in 0..6 {
                let r1 = t1.step().unwrap();
                let r2 = t2.step().unwrap();
                let r8 = t8.step().unwrap();
                assert_eq!(r1.loss, r2.loss, "{order:?}");
                assert_eq!(r1.loss, r8.loss, "{order:?}");
            }
            assert_eq!(t1.params(), t2.params(), "{order:?}");
            assert_eq!(t1.params(), t8.params(), "{order:?}");
        }
    }

    #[test]
    fn resize_preserves_trajectory_exactly() {
        let mut fixed = make_trainer(8, 4, 5);
        let mut elastic = make_trainer(8, 4, 5);
        for step in 0..8 {
            if step == 2 {
                elastic.resize(&devices(1)).unwrap();
            }
            if step == 5 {
                elastic.resize(&devices(8)).unwrap();
            }
            let a = fixed.step().unwrap();
            let b = elastic.step().unwrap();
            assert_eq!(a.loss, b.loss, "step {step}");
        }
        assert_eq!(fixed.params(), elastic.params());
    }

    #[test]
    fn waves_reflect_mapping() {
        let t = make_trainer(8, 2, 0);
        assert_eq!(t.mapping().waves(), 4);
        let t = make_trainer(8, 8, 0);
        assert_eq!(t.mapping().waves(), 1);
    }

    #[test]
    fn partitioned_resize_mid_epoch_is_rejected() {
        let dataset = Arc::new(ClusterTask::easy(0).generate().unwrap());
        let arch = Arc::new(Mlp::linear(16, 4));
        let mut config = TrainerConfig::simple(4, 64, 0.2, 0);
        config.distribution = DistributionMode::Partitioned;
        let mut t = Trainer::new(arch, dataset, config, &devices(2)).unwrap();
        t.step().unwrap(); // 512/64 = 8 steps per epoch; now mid-epoch
        let err = t.resize(&devices(1)).unwrap_err();
        assert!(matches!(err, CoreError::PartitionedResizeOffEpoch { .. }));
        // Finish the epoch; resize becomes legal.
        for _ in 1..t.steps_per_epoch() {
            t.step().unwrap();
        }
        assert!(t.at_epoch_boundary());
        assert!(t.resize(&devices(1)).is_ok());
    }

    #[test]
    fn partitioned_mode_visits_each_example_once_per_epoch() {
        let dataset = Arc::new(ClusterTask::easy(1).generate().unwrap());
        let arch = Arc::new(Mlp::linear(16, 4));
        let mut config = TrainerConfig::simple(4, 64, 0.2, 1);
        config.distribution = DistributionMode::Partitioned;
        let mut t = Trainer::new(arch, dataset, config, &devices(2)).unwrap();
        for _ in 0..t.steps_per_epoch() {
            t.step().unwrap();
        }
        assert!(t.visitation_violations().is_empty());
    }

    #[test]
    fn evaluation_improves_with_training() {
        let dataset = ClusterTask::easy(2).generate().unwrap();
        let mut t = make_trainer(4, 2, 2);
        let before = t.evaluate(&dataset).unwrap();
        for _ in 0..40 {
            t.step().unwrap();
        }
        let after = t.evaluate(&dataset).unwrap();
        assert!(after.accuracy > before.accuracy);
        assert!(after.accuracy > 0.9, "accuracy {}", after.accuracy);
    }

    #[test]
    fn stateful_kernels_migrate_on_upsize() {
        // Train a BN model on one device, then upsize: the new device must
        // carry the donor's (non-initial) moving statistics.
        let dataset = Arc::new(ClusterTask::easy(3).generate().unwrap());
        let arch = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
        let config = TrainerConfig::simple(4, 64, 0.1, 3);
        let mut t = Trainer::new(arch.clone(), dataset, config, &devices(1)).unwrap();
        for _ in 0..4 {
            t.step().unwrap();
        }
        let donor_state = t.replica_stateful(DeviceId(0)).unwrap().clone();
        assert_ne!(donor_state, arch.init_stateful());
        t.resize(&devices(2)).unwrap();
        let new_state = t.replica_stateful(DeviceId(1)).unwrap();
        assert_eq!(new_state, &donor_state, "stateful kernels must migrate, not reset");
    }

    #[test]
    fn run_epoch_advances_exactly_one_epoch() {
        let mut t = make_trainer(4, 2, 4);
        let spe = t.steps_per_epoch();
        t.run_epoch().unwrap();
        assert_eq!(t.steps_done() as usize, spe);
        assert!(t.at_epoch_boundary());
    }

    #[test]
    fn checkpoint_restore_continues_identically() {
        for distribution in [DistributionMode::Replicated, DistributionMode::Partitioned] {
            let dataset = Arc::new(ClusterTask::easy(21).generate().unwrap());
            let arch: Arc<dyn Architecture> = Arc::new(Mlp::linear(16, 4));
            let mut config = TrainerConfig::simple(8, 64, 0.2, 21);
            config.distribution = distribution;
            let mut original =
                Trainer::new(arch.clone(), dataset.clone(), config, &devices(2)).unwrap();
            original.run_steps(5).unwrap();
            let snapshot = original.to_checkpoint();
            assert_eq!(snapshot.step, 5);
            assert!(!original.at_epoch_boundary(), "the restore lands mid-epoch");

            // Restore onto a different device count and keep training both,
            // through the rest of the epoch and into the next.
            let mut restored =
                Trainer::from_checkpoint(arch, dataset, snapshot, &devices(8)).unwrap();
            original.run_steps(4).unwrap();
            restored.run_steps(4).unwrap();
            assert_eq!(original.params(), restored.params(), "{distribution:?}");
            assert_eq!(original.steps_done(), restored.steps_done());
        }
    }

    /// Records the labels of every micro-batch it is handed. The dataset
    /// below labels example `i` as `i`, so these are the gathered indices.
    #[derive(Default)]
    struct RecordingArch {
        seen: Mutex<Vec<Vec<usize>>>,
    }

    impl Architecture for RecordingArch {
        fn name(&self) -> &str {
            "recording"
        }

        fn init_params(&self, _seed: u64) -> Vec<Tensor> {
            vec![Tensor::zeros([1])]
        }

        fn init_stateful(&self) -> StatefulState {
            StatefulState::default()
        }

        fn grad(
            &self,
            _params: &[Tensor],
            _stateful: &mut StatefulState,
            _features: &Tensor,
            labels: &[usize],
        ) -> Result<GradReport, ModelError> {
            self.seen.lock().unwrap().push(labels.to_vec());
            Ok(GradReport {
                grads: vec![Tensor::zeros([1])],
                loss: 0.0,
                examples: labels.len(),
            })
        }

        fn eval(
            &self,
            _params: &[Tensor],
            _stateful: &StatefulState,
            _features: &Tensor,
            _labels: &[usize],
        ) -> Result<EvalReport, ModelError> {
            Ok(EvalReport {
                loss: 0.0,
                accuracy: 0.0,
            })
        }
    }

    proptest! {
        /// What a step gathers is the plan, wherever the step counter goes:
        /// across an epoch wrap, to the same step again (a failed step
        /// retried), backwards (a restored checkpoint), or anywhere else.
        /// One device runs its virtual nodes in VN order, so the recorded
        /// micro-batches line up with the reference shards.
        #[test]
        fn prop_a_step_gathers_exactly_the_planned_shards(
            micro in 1usize..5,
            vns in 1u32..9,
            batches in 1usize..5,
            tail in 0usize..9,
            seed in any::<u64>(),
            partitioned in any::<bool>(),
            jumps in proptest::collection::vec(0usize..40, 1..8),
        ) {
            let batch_size = micro * vns as usize;
            let len = batch_size * batches + tail;
            let dataset = Dataset::new(Tensor::zeros([len, 1]), (0..len).collect()).unwrap();
            let mut config = TrainerConfig::simple(vns, batch_size, 0.1, seed);
            if partitioned {
                config.distribution = DistributionMode::Partitioned;
            }
            let arch = Arc::new(RecordingArch::default());
            let mut t = Trainer::new(arch.clone(), Arc::new(dataset), config, &devices(1)).unwrap();
            let spe = t.steps_per_epoch();
            let mut walk = vec![spe - 1, spe, spe, 0];
            walk.extend(jumps);
            for step in walk {
                t.step = step as u64;
                arch.seen.lock().unwrap().clear();
                let report = t.step().unwrap();
                prop_assert_eq!((report.epoch, report.step_in_epoch), (step / spe, step % spe));
                let want = if partitioned {
                    PartitionedPlan::new(len, vns, batch_size, seed)
                        .unwrap()
                        .shards_at(step / spe, step % spe)
                } else {
                    let batch = BatchPlan::new(len, batch_size, seed).unwrap().batch_at(step);
                    shard_indices(&batch.indices, vns as usize).unwrap()
                };
                prop_assert_eq!(&*arch.seen.lock().unwrap(), &want, "step {}", step);
            }
        }
    }

    #[test]
    fn checkpoint_json_round_trip_preserves_trajectory() {
        let dataset = Arc::new(ClusterTask::easy(22).generate().unwrap());
        let arch = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
        let config = TrainerConfig::simple(4, 64, 0.1, 22);
        let mut a =
            Trainer::new(arch.clone(), dataset.clone(), config.clone(), &devices(2)).unwrap();
        a.run_steps(3).unwrap();
        let json = a.to_checkpoint().to_json().unwrap();
        let restored_ckpt = Checkpoint::from_json(&json).unwrap();
        let mut b =
            Trainer::from_checkpoint(arch, dataset, restored_ckpt, &devices(4)).unwrap();
        a.run_steps(2).unwrap();
        b.run_steps(2).unwrap();
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn partitioned_mode_is_also_device_independent() {
        let dataset = Arc::new(ClusterTask::easy(23).generate().unwrap());
        let arch = Arc::new(Mlp::linear(16, 4));
        let mk = |n_dev: u32| {
            let mut config = TrainerConfig::simple(8, 64, 0.2, 23);
            config.distribution = DistributionMode::Partitioned;
            Trainer::new(arch.clone(), dataset.clone(), config, &devices(n_dev)).unwrap()
        };
        let mut a = mk(1);
        let mut b = mk(8);
        for _ in 0..a.steps_per_epoch() {
            a.step().unwrap();
            b.step().unwrap();
        }
        assert_eq!(a.params(), b.params());
        assert!(a.visitation_violations().is_empty());
        assert!(b.visitation_violations().is_empty());
    }

    #[test]
    fn gradient_clipping_bounds_the_update() {
        let dataset = Arc::new(ClusterTask::easy(24).generate().unwrap());
        let arch = Arc::new(Mlp::linear(16, 4));
        let mut config = TrainerConfig::simple(4, 64, 1.0, 24);
        config.clip_norm = Some(1e-3);
        let mut clipped =
            Trainer::new(arch.clone(), dataset.clone(), config, &devices(1)).unwrap();
        let mut free = Trainer::new(
            arch,
            dataset,
            TrainerConfig::simple(4, 64, 1.0, 24),
            &devices(1),
        )
        .unwrap();
        let before = clipped.params().to_vec();
        clipped.step().unwrap();
        free.step().unwrap();
        let moved = |t: &Trainer| {
            t.params()
                .iter()
                .zip(before.iter())
                .map(|(a, b)| a.sub(b).unwrap().l2_norm().powi(2))
                .sum::<f32>()
                .sqrt()
        };
        assert!(moved(&clipped) < moved(&free));
        assert!(moved(&clipped) <= 1e-3 * 1.01, "update ≤ lr * clip_norm");
    }

    #[test]
    fn bn_trainer_converges_across_device_counts_in_accuracy() {
        // With batch norm, trajectories are *parameter-identical* because BN
        // batch statistics are computed per virtual node (size B/N), not per
        // device — the property §5.1 argues for.
        let dataset = Arc::new(ClusterTask::easy(6).generate().unwrap());
        let arch = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
        let mk = |n_dev: u32| {
            let config = TrainerConfig::simple(8, 64, 0.1, 6);
            Trainer::new(arch.clone(), dataset.clone(), config, &devices(n_dev)).unwrap()
        };
        let mut a = mk(1);
        let mut b = mk(4);
        for _ in 0..5 {
            a.step().unwrap();
            b.step().unwrap();
        }
        assert_eq!(a.params(), b.params());
    }
}
