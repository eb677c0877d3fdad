//! The traced child: where a workload's time goes, layer by layer.
//!
//! Runs with one thread so that spans nest. What the harness can wrap is
//! measured in place (`Architecture::grad` inside `Trainer::step`,
//! `Scheduler::allocate` inside `run_trace`); what it cannot reach inside a
//! step is *replayed* from outside on the same parameters and micro-batch
//! shapes (gather, reduce, optimizer, the GEMM and conv kernels and their
//! reference twins). Allocation counts, tracing overhead and recorder
//! overhead come from interleaved batches of the same process.

use crate::alloc;
use crate::spans::{self, child_ms_per_parent, durations_ms};
use crate::stats::median;
use crate::workloads::{Model, Res, Sched, Train, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vf_data::batching::{shard_indices, BatchPlan};
use vf_device::DeviceProfile;
use vf_obs::{Recorder, RingSink};
use vf_sched::TraceMetrics;
use vf_tensor::{conv, gemm, reduce, Tensor};

pub type Metrics = Vec<(&'static str, f64)>;

/// Batches whose allocations are counted: a fixed number, so that the
/// counts repeat exactly from run to run.
const ALLOC_BATCHES: u64 = 2;
const REPLAYS: usize = 3;
const KERNEL_REPS: usize = 5;
/// Spans written to the trace file; the rest are counted in its footer.
const TRACE_FILE_SPANS: usize = 20_000;

/// Runs `w` in alternating batches with `mode` off and on, for at least two
/// pairs and until `budget` is spent; returns the per-op ms of each side.
fn interleaved(
    w: &mut Workload,
    budget: Duration,
    mut mode: impl FnMut(&mut Workload, bool),
) -> Res<(Vec<f64>, Vec<f64>)> {
    let started = Instant::now();
    let mut sides = (Vec::new(), Vec::new());
    let mut pairs = 0;
    while pairs < 2 || started.elapsed() < budget {
        for on in [false, true] {
            w.clear_op_ms();
            mode(w, on);
            let batch_span = on.then(|| spans::enter("bench.batch"));
            w.run_batch()?;
            drop(batch_span);
            mode(w, false);
            let side = if on { &mut sides.1 } else { &mut sides.0 };
            side.extend_from_slice(w.op_ms());
        }
        pairs += 1;
    }
    Ok(sides)
}

fn overhead_pct(off_ms: &[f64], on_ms: &[f64]) -> f64 {
    let base = median(off_ms);
    if base > 0.0 {
        (median(on_ms) - base) / base * 100.0
    } else {
        0.0
    }
}

fn counted_batches(w: &mut Workload) -> Res<(f64, f64)> {
    let (result, count, bytes) = alloc::counted(|| -> Res<()> {
        for _ in 0..ALLOC_BATCHES {
            w.run_batch()?;
        }
        Ok(())
    });
    result?;
    let ops = (ALLOC_BATCHES * w.batch_ops()) as f64;
    Ok((count as f64 / ops, bytes as f64 / ops))
}

pub fn run(name: &str, seed: u64, seconds: f64, trace_dir: &str) -> Res<Metrics> {
    let mut w = Workload::setup(name, seed, true)?;
    w.run_batch()?;
    let mut m: Metrics = Vec::new();

    let (count, bytes) = counted_batches(&mut w)?;
    m.push(("bench.alloc.count_per_op", count));
    m.push(("bench.alloc.bytes_per_op", bytes));

    let budget = Duration::from_secs_f64(seconds / 8.0);
    let (plain_ms, traced_ms) = interleaved(&mut w, budget, |w, on| {
        spans::set_enabled(on);
        if let Workload::Sched(s) = w {
            s.timed = on;
        }
    })?;
    m.push((
        "bench.trace.overhead_pct",
        overhead_pct(&plain_ms, &traced_ms),
    ));

    match &mut w {
        Workload::Train(t) => train_layers(t, &mut m)?,
        Workload::Sched(s) => sched_layers(s, seed, median(&plain_ms), &mut m)?,
    }
    if matches!(w, Workload::Train(_)) {
        let sink: Arc<RingSink> = Arc::new(RingSink::with_capacity(1 << 14));
        let recorder = Recorder::with_sink(sink);
        let (off_ms, on_ms) = interleaved(&mut w, budget / 2, |w, on| {
            if let Workload::Train(t) = w {
                t.trainer.set_recorder(if on {
                    recorder.clone()
                } else {
                    Recorder::disabled()
                });
            }
        })?;
        m.push(("obs.recorder.ms_per_step", median(&on_ms) - median(&off_ms)));
        m.push((
            "obs.recorder.events_per_step",
            recorder.events_recorded() as f64 / on_ms.len().max(1) as f64,
        ));
    }

    let all = spans::snapshot();
    eprintln!("perf_bench: {name}: spans by name");
    eprintln!(
        "  {:<28} {:>8} {:>12} {:>12}",
        "name", "count", "total ms", "self ms"
    );
    for (span_name, t) in spans::totals_by_name(&all) {
        let (total, own) = (t.total_ns as f64 / 1e6, t.self_ns as f64 / 1e6);
        eprintln!("  {span_name:<28} {:>8} {total:>12.3} {own:>12.3}", t.count);
    }
    let path = format!("{trace_dir}/trace_{name}.json");
    match std::fs::create_dir_all(trace_dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace(&all, TRACE_FILE_SPANS)))
    {
        Ok(()) => eprintln!("perf_bench: {} spans, trace written to {path}", all.len()),
        Err(e) => eprintln!("perf_bench: could not write {path}: {e}"),
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// Training layers
// ---------------------------------------------------------------------------

/// The dense layers of a model as `(k, n, needs_input_grad)`: a layer fed by
/// the constant input has no `dA = dC·Bᵀ` to compute.
fn dense_layers(model: Model) -> Vec<(usize, usize, bool)> {
    match model {
        Model::Mlp {
            input,
            hidden,
            classes,
            ..
        } => {
            let mut dims = vec![input];
            dims.extend_from_slice(hidden);
            dims.push(classes);
            dims.windows(2)
                .enumerate()
                .map(|(i, d)| (d[0], d[1], i > 0))
                .collect()
        }
        Model::Conv {
            filters, classes, ..
        } => vec![(filters, classes, true)],
    }
}

/// The convolutions of a model as `(in_channels, out_channels,
/// needs_input_grad)`, all 3×3 "same".
fn conv_layers(model: Model) -> Vec<(usize, usize, bool)> {
    match model {
        Model::Mlp { .. } => Vec::new(),
        Model::Conv {
            channels,
            filters,
            blocks,
            ..
        } => {
            let mut layers = vec![(channels, filters, false)];
            layers.extend(std::iter::repeat_n((filters, filters, true), 2 * blocks));
            layers
        }
    }
}

/// Values in `[-1, 1)` that are cheap to make and never denormal.
fn fill(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 31 + salt * 7) % 64) as f32 / 32.0 - 1.0)
        .collect()
}

/// What a family of kernels costs for one micro-batch.
#[derive(Default)]
struct KernelCost {
    ms: f64,
    reference_ms: f64,
    flop: f64,
}

const GEMM: (&str, &str) = ("tensor.gemm", "tensor.gemm.reference");
const CONV: (&str, &str) = ("tensor.conv", "tensor.conv.reference");

impl KernelCost {
    /// Adds one kernel of `flop` operations: the median of `KERNEL_REPS`
    /// calls of `f` and one call of `reference`, each under its span name.
    fn time(
        &mut self,
        (name, reference_name): (&'static str, &'static str),
        flop: usize,
        mut f: impl FnMut(),
        reference: impl FnOnce(),
    ) {
        let mut ms = Vec::with_capacity(KERNEL_REPS);
        for _ in 0..KERNEL_REPS {
            let t = Instant::now();
            let span = spans::enter(name);
            f();
            drop(span);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        let span = spans::enter(reference_name);
        reference();
        drop(span);
        self.ms += median(&ms);
        self.reference_ms += t.elapsed().as_secs_f64() * 1e3;
        self.flop += flop as f64;
    }

    /// The per-step metrics of a family run once per virtual node.
    fn push(&self, names: [&'static str; 3], vns: usize, m: &mut Metrics) {
        let ms_per_step = self.ms * vns as f64;
        m.push((names[0], ms_per_step));
        m.push((names[1], ratio(self.flop * vns as f64, ms_per_step * 1e6)));
        m.push((names[2], ratio(self.reference_ms, self.ms)));
    }
}

/// One micro-batch's GEMMs at the model's shapes.
fn replay_gemm(model: Model, m: usize) -> KernelCost {
    let mut cost = KernelCost::default();
    for (k, n, needs_input_grad) in dense_layers(model) {
        let (x, w, g) = (fill(m * k, 1), fill(k * n, 2), fill(m * n, 3));
        let flop = 2 * m * k * n;
        cost.time(
            GEMM,
            flop,
            || drop(black_box(gemm::matmul(&x, &w, m, k, n))),
            || drop(black_box(gemm::reference::matmul(&x, &w, m, k, n))),
        );
        // dW = Xᵀ·dY, with X stored (m × k).
        cost.time(
            GEMM,
            flop,
            || drop(black_box(gemm::matmul_tn(&x, &g, k, m, n))),
            || drop(black_box(gemm::reference::matmul_tn(&x, &g, k, m, n))),
        );
        if needs_input_grad {
            // dX = dY·Wᵀ, with W stored (k × n).
            cost.time(
                GEMM,
                flop,
                || drop(black_box(gemm::matmul_nt(&g, &w, m, n, k))),
                || drop(black_box(gemm::reference::matmul_nt(&g, &w, m, n, k))),
            );
        }
    }
    cost
}

/// One micro-batch's convolutions at the model's shapes.
fn replay_conv(model: Model, n: usize) -> Res<KernelCost> {
    let mut cost = KernelCost::default();
    let Model::Conv { side, .. } = model else {
        return Ok(cost);
    };
    for (ic, oc, needs_input_grad) in conv_layers(model) {
        let input = Tensor::from_vec(fill(n * ic * side * side, 4), [n, ic, side, side])?;
        let kernel = Tensor::from_vec(fill(oc * ic * 9, 5), [oc, ic, 3, 3])?;
        let grad_out = Tensor::from_vec(fill(n * oc * side * side, 6), [n, oc, side, side])?;
        let flop = 2 * n * oc * ic * 9 * side * side;
        // Shapes are valid by construction, so the kernels cannot fail; a
        // failure would show as a kernel that takes no time.
        cost.time(
            CONV,
            flop,
            || drop(black_box(conv::conv2d(&input, &kernel))),
            || drop(black_box(conv::reference::conv2d(&input, &kernel))),
        );
        cost.time(
            CONV,
            flop,
            || drop(black_box(conv::conv2d_grad_kernel(&input, &grad_out, 3, 3))),
            || {
                drop(black_box(conv::reference::conv2d_grad_kernel(
                    &input, &grad_out, 3, 3,
                )))
            },
        );
        if needs_input_grad {
            cost.time(
                CONV,
                flop,
                || drop(black_box(conv::conv2d_grad_input(&grad_out, &kernel))),
                || {
                    drop(black_box(conv::reference::conv2d_grad_input(
                        &grad_out, &kernel,
                    )))
                },
            );
        }
    }
    Ok(cost)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn train_layers(t: &mut Train, m: &mut Metrics) -> Res<()> {
    // Measured in place: the steps of the traced batches and the backward
    // passes nested in them.
    let recorded = spans::snapshot();
    let step_ms = durations_ms(&recorded, "core.engine.step");
    let grad_ms = child_ms_per_parent(&recorded, "core.engine.step", "models.grad");
    let outside_grad: Vec<f64> = step_ms.iter().zip(&grad_ms).map(|(s, g)| s - g).collect();
    let grad_ms_per_step = median(&grad_ms);

    // Replayed from outside, on the next step's shards and the current
    // parameters.
    let vns = t.spec.total_vns as usize;
    let step = t.trainer.steps_done();
    let plan = BatchPlan::new(t.dataset.len(), t.config.batch_size, t.config.seed)?;
    let shards = shard_indices(&plan.batch_at(step as usize).indices, vns)?;
    let params = t.trainer.params().to_vec();
    let mut gather_bytes = 0usize;
    spans::set_enabled(true);
    for _ in 0..REPLAYS {
        let _replay = spans::enter("bench.replay");
        let mut stateful = t.arch.init_stateful();
        let mut vn_grads = Vec::with_capacity(vns);
        gather_bytes = 0;
        for shard in &shards {
            let span = spans::enter("data.gather");
            let (x, y) = t.dataset.gather(shard)?;
            drop(span);
            gather_bytes += x.size_bytes() + std::mem::size_of_val(y.as_slice());
            vn_grads.push(t.arch.grad(&params, &mut stateful, &x, &y)?.grads);
        }
        let mut reduced = Vec::with_capacity(params.len());
        for p in 0..params.len() {
            let parts: Vec<Tensor> = vn_grads.iter().map(|g| g[p].clone()).collect();
            let _span = spans::enter("tensor.reduce");
            reduced.push(reduce::reduce_mean(&parts, t.config.reduction, None)?);
        }
        let mut optimizer = t.config.optimizer.build(t.config.schedule.at(step));
        let mut updated = params.clone();
        let _span = spans::enter("tensor.optim");
        optimizer.step(&mut updated, &reduced)?;
    }
    let micro_batch = t.spec.micro_batch();
    let gemm_cost = replay_gemm(t.spec.model, micro_batch);
    let conv_cost = replay_conv(t.spec.model, micro_batch)?;
    spans::set_enabled(false);

    let recorded = spans::snapshot();
    let per_replay = |child| median(&child_ms_per_parent(&recorded, "bench.replay", child));

    // Self time of the steps: everything the engine does outside the
    // backward passes, gather, reduce and optimizer included. The replayed
    // parts below estimate how much of it those three explain.
    m.push(("core.engine.self_ms_per_step", median(&outside_grad)));
    m.push(("data.gather.ms_per_step", per_replay("data.gather")));
    m.push(("data.gather.bytes_per_step", gather_bytes as f64));
    m.push(("models.grad.ms_per_step", grad_ms_per_step));
    m.push((
        "tensor.autograd.rest_ms_per_step",
        grad_ms_per_step - (gemm_cost.ms + conv_cost.ms) * vns as f64,
    ));
    let gemm_names = [
        "tensor.gemm.ms_per_step",
        "tensor.gemm.gflops",
        "tensor.gemm.vs_reference",
    ];
    let conv_names = [
        "tensor.conv.ms_per_step",
        "tensor.conv.gflops",
        "tensor.conv.vs_reference",
    ];
    gemm_cost.push(gemm_names, vns, m);
    conv_cost.push(conv_names, vns, m);
    m.push(("tensor.reduce.ms_per_step", per_replay("tensor.reduce")));
    m.push(("tensor.optim.ms_per_step", per_replay("tensor.optim")));
    Ok(())
}

// ---------------------------------------------------------------------------
// Scheduler layers
// ---------------------------------------------------------------------------

fn sched_layers(s: &mut Sched, seed: u64, plain_run_ms: f64, m: &mut Metrics) -> Res<()> {
    let recorded = spans::snapshot();
    let run_ms = durations_ms(&recorded, "sched.sim.run");
    let allocate_ms = child_ms_per_parent(&recorded, "sched.sim.run", "sched.scheduler.allocate");
    let self_ms: Vec<f64> = run_ms
        .iter()
        .zip(&allocate_ms)
        .map(|(r, a)| r - a)
        .collect();
    let result = s.last.as_ref().ok_or("no simulation ran")?;
    let events = result.timeline.len() as f64;

    spans::set_enabled(true);
    let mut gen_ms = Vec::new();
    for _ in 0..KERNEL_REPS {
        let t = Instant::now();
        let _span = spans::enter("sched.trace.gen");
        black_box(Sched::generate(seed));
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    // The unit cost of the step-time model, which the event loop evaluates
    // twice per running job per event (next completion, then advance).
    let device = DeviceProfile::of(s.config.device_type);
    let mut calls = 0u64;
    let t = Instant::now();
    {
        let _span = spans::enter("sched.job.step_time_on");
        for _ in 0..20 {
            for job in &s.trace {
                for gpus in 1..=job.demand {
                    black_box(job.step_time_on(black_box(gpus), device, &s.config.link));
                    calls += 1;
                }
            }
        }
    }
    let step_time_on_ns = t.elapsed().as_secs_f64() * 1e9 / calls as f64;
    let running_job_events: u64 = result
        .timeline
        .iter()
        .map(|sample| sample.allocations.values().filter(|&&g| g > 0).count() as u64)
        .sum();

    let first_arrival = s
        .trace
        .iter()
        .map(|j| j.arrival_s)
        .fold(f64::INFINITY, f64::min);
    let metrics = &result.metrics;
    let busy = metrics.avg_utilization * metrics.makespan_s * f64::from(s.config.num_gpus);
    let mut compute_ms = Vec::new();
    for _ in 0..KERNEL_REPS {
        let t = Instant::now();
        let _span = spans::enter("sched.metrics.compute");
        black_box(TraceMetrics::compute(
            &result.jobs,
            s.config.num_gpus,
            first_arrival,
            first_arrival + metrics.makespan_s,
            busy,
        ));
        compute_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    spans::set_enabled(false);

    m.push(("sched.sim.events_per_run", events));
    m.push(("sched.sim.us_per_event", ratio(plain_run_ms * 1e3, events)));
    m.push(("sched.sim.self_ms_per_run", median(&self_ms)));
    m.push((
        "sched.scheduler.allocate_calls_per_run",
        s.allocate_calls as f64,
    ));
    m.push(("sched.scheduler.allocate_ms_per_run", median(&allocate_ms)));
    m.push((
        "sched.scheduler.mean_jobs_per_call",
        ratio(s.jobs_seen as f64, s.allocate_calls as f64),
    ));
    m.push(("sched.job.step_time_on_ns", step_time_on_ns));
    m.push((
        "sched.job.step_time_on_ms_est_per_run",
        step_time_on_ns * 2.0 * running_job_events as f64 / 1e6,
    ));
    m.push(("sched.metrics.compute_ms", median(&compute_ms)));
    m.push(("sched.trace.gen_ms", median(&gen_ms)));
    m.push(("sched.sim.makespan_s", metrics.makespan_s));
    m.push(("sched.sim.avg_utilization", metrics.avg_utilization));
    m.push((
        "sched.sim.resizes_per_run",
        f64::from(metrics.total_resizes),
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_shapes_follow_the_architecture() {
        let mlp = Model::Mlp {
            input: 256,
            hidden: &[512, 512],
            classes: 32,
            batch_norm: false,
        };
        assert_eq!(
            dense_layers(mlp),
            vec![(256, 512, false), (512, 512, true), (512, 32, true)]
        );
        assert!(conv_layers(mlp).is_empty());
        let cnn = Model::Conv {
            channels: 3,
            side: 16,
            filters: 16,
            blocks: 2,
            classes: 8,
        };
        assert_eq!(dense_layers(cnn), vec![(16, 8, true)]);
        assert_eq!(
            conv_layers(cnn),
            vec![
                (3, 16, false),
                (16, 16, true),
                (16, 16, true),
                (16, 16, true),
                (16, 16, true)
            ]
        );
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_median() {
        assert!((overhead_pct(&[1.0, 1.0, 9.0], &[1.1, 1.1, 1.1]) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[], &[1.0]), 0.0);
    }
}
