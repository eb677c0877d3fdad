//! Kernel microbenchmarks: blocked/SIMD GEMM and the packed convolution
//! lowering (forward and both gradients) versus the seed's naive loops, and
//! the convolutions and the virtual-node GEMM shapes (transposed layouts,
//! micro-batch-8 calls) as a share of the GEMM rate measured in the same
//! process.
//!
//! Dependency-free on purpose (`std::time::Instant`, no criterion): this is
//! the harness that substantiates the kernel layer's headline numbers, so it
//! must run anywhere the workspace builds. The naive baselines below are the
//! exact loops the seed tree shipped (including the old `av == 0.0` skip in
//! matmul, later removed for NaN/∞ correctness), so speedups are measured
//! against what the code actually did, not a strawman.
//!
//! Writes `results/BENCH_kernels.json` with GFLOP/s and speedups per size.

use std::time::Instant;
use vf_bench::report::{print_table, Context, Mode, Result};
use vf_obs::Metrics;
use vf_tensor::{conv, gemm, init, pool, Tensor};

/// The seed tree's `ops::matmul` inner loops, verbatim (zero-skip included).
fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The seed tree's `conv::conv2d` loops, verbatim (padding taps skipped).
#[allow(
    clippy::many_single_char_names,
    reason = "the seed tree's loops, kept verbatim with their index names"
)]
fn naive_conv2d(input: &Tensor, kernel: &Tensor) -> Result<Tensor> {
    let d = input.shape().dims();
    let (n, ic, h, w) = (d[0], d[1], d[2], d[3]);
    let kd_dims = kernel.shape().dims();
    let (oc, kh, kw) = (kd_dims[0], kd_dims[2], kd_dims[3]);
    let (ph, pw) = (kh / 2, kw / 2);
    let mut out = vec![0.0f32; n * oc * h * w];
    let id = input.data();
    let kd = kernel.data();
    for b in 0..n {
        for o in 0..oc {
            for y in 0..h {
                for x in 0..w {
                    let mut acc = 0.0f32;
                    for c in 0..ic {
                        for dy in 0..kh {
                            let iy = y as isize + dy as isize - ph as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for dx in 0..kw {
                                let ix = x as isize + dx as isize - pw as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let iv = id[((b * ic + c) * h + iy as usize) * w + ix as usize];
                                let kv = kd[((o * ic + c) * kh + dy) * kw + dx];
                                acc += iv * kv;
                            }
                        }
                    }
                    out[((b * oc + o) * h + y) * w + x] = acc;
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, [n, oc, h, w])?)
}

/// Times `f` with a warm-up pass: runs until ~0.25 s or `max_reps` have
/// elapsed, whichever first, and returns seconds per call (best of means).
fn time_secs(max_reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: page in buffers, spin up pool workers
    let mut best = f64::INFINITY;
    let mut reps_done = 0;
    while reps_done < max_reps {
        let batch = ((max_reps - reps_done) / 4).clamp(1, 8);
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let per_call = t0.elapsed().as_secs_f64() / batch as f64;
        if per_call < best {
            best = per_call;
        }
        reps_done += batch;
    }
    best
}

pub fn run(_: Mode) -> Result {
    println!("== kernel microbenchmarks (f32, single process) ==\n");
    println!(
        "threads: {} (VF_NUM_THREADS to override)\n",
        pool::num_threads()
    );

    // Headline numbers flow through the shared vf-obs registry so the
    // emitted JSON carries the same canonical metrics block as every other
    // harness (and the trace reports).
    let metrics = Metrics::new();
    let mut rows = Vec::new();
    let mut gemm_json = Vec::new();
    for &s in &[64usize, 128, 256, 512] {
        let mut rng = init::rng(s as u64);
        let a = init::normal(&mut rng, [s, s], 0.0, 1.0);
        let b = init::normal(&mut rng, [s, s], 0.0, 1.0);
        let flops = 2.0 * (s * s * s) as f64;
        let reps = (1usize << 27) / (s * s * s).max(1);
        let t_naive = time_secs(reps.clamp(3, 64), || {
            std::hint::black_box(naive_matmul(a.data(), b.data(), s, s, s));
        });
        let t_fast = time_secs(reps.clamp(3, 256), || {
            std::hint::black_box(gemm::matmul(a.data(), b.data(), s, s, s));
        });
        let (gf_naive, gf_fast) = (flops / t_naive / 1e9, flops / t_fast / 1e9);
        rows.push(vec![
            format!("gemm {s}x{s}x{s}"),
            format!("{gf_naive:.2}"),
            format!("{gf_fast:.2}"),
            format!("{:.2}x", gf_fast / gf_naive),
            "-".into(),
        ]);
        metrics.set_gauge(&format!("gemm/{s}/fast_gflops"), gf_fast);
        metrics.set_gauge(&format!("gemm/{s}/speedup"), gf_fast / gf_naive);
        metrics.observe_sketch("gemm/speedup_hist", gf_fast / gf_naive);
        gemm_json.push(serde_json::json!({
            "size": s,
            "naive_gflops": gf_naive,
            "fast_gflops": gf_fast,
            "speedup": gf_fast / gf_naive,
        }));
    }

    // Everything below is also reported as a share of the 256³ GEMM rate:
    // the same microkernel on the same machine, so the ratio is what packing,
    // folding and per-call set-up cost, whatever the host. A shared host
    // changes speed from second to second, so the GEMM is timed again next
    // to each shape.
    let gemm_256_gflops = {
        let mut rng = init::rng(256);
        let a = init::normal(&mut rng, [256, 256], 0.0, 1.0);
        let b = init::normal(&mut rng, [256, 256], 0.0, 1.0);
        move || {
            let t = time_secs(64, || {
                std::hint::black_box(gemm::matmul(a.data(), b.data(), 256, 256, 256));
            });
            2.0 * 256f64.powi(3) / t / 1e9
        }
    };

    // The virtual-node shapes, `m×k×n`: one `train_dense` layer at
    // micro-batch 128 in the three layouts a step runs it in (forward,
    // `dH = dY·Wᵀ`, `dW = Xᵀ·dY`) and `train_many_vn`'s micro-batch-8 call,
    // where set-up outweighs the FMAs. Tiny calls are timed in runs long
    // enough for the clock to resolve.
    type Gemm = fn(&[f32], &[f32], usize, usize, usize) -> Vec<f32>;
    let vn_shapes: [(&str, Gemm, [usize; 3]); 4] = [
        ("nn_128x512x512", gemm::matmul, [128, 512, 512]),
        ("nt_128x512x512", gemm::matmul_nt, [128, 512, 512]),
        ("tn_512x128x512", gemm::matmul_tn, [512, 128, 512]),
        ("nn_8x32x32", gemm::matmul, [8, 32, 32]),
    ];
    let mut shape_json = Vec::new();
    for (name, kernel, [m, k, n]) in vn_shapes {
        let mut rng = init::rng((m * k * n) as u64);
        let a = init::normal(&mut rng, [m * k], 0.0, 1.0);
        let b = init::normal(&mut rng, [k * n], 0.0, 1.0);
        let calls = ((1usize << 22) / (m * k * n)).max(1);
        let t = time_secs(64, || {
            for _ in 0..calls {
                std::hint::black_box(kernel(a.data(), b.data(), m, k, n));
            }
        });
        let gf_fast = 2.0 * (calls * m * k * n) as f64 / t / 1e9;
        let share = gf_fast / gemm_256_gflops();
        rows.push(vec![
            format!("gemm {name}"),
            "-".into(),
            format!("{gf_fast:.2}"),
            "-".into(),
            format!("{:.0}%", 100.0 * share),
        ]);
        metrics.set_gauge(&format!("gemm/{name}/fast_gflops"), gf_fast);
        metrics.set_gauge(&format!("gemm/{name}/vs_gemm256"), share);
        shape_json.push(serde_json::json!({
            "shape": name,
            "fast_gflops": gf_fast,
            "vs_gemm256": share,
        }));
    }

    // The last convolution shape is perf_bench's `train_conv` trunk layer.
    let mut conv_json = Vec::new();
    for &(n, c, hw) in &[(4usize, 8usize, 32usize), (8, 16, 64), (16, 16, 16)] {
        let mut rng = init::rng((n * c * hw) as u64);
        let x = init::normal(&mut rng, [n, c, hw, hw], 0.0, 1.0);
        let k = init::normal(&mut rng, [c, c, 3, 3], 0.0, 0.5);
        let g = init::normal(&mut rng, [n, c, hw, hw], 0.0, 1.0);
        let flops = 2.0 * (n * c * c * 9 * hw * hw) as f64;
        let shape = format!("{n}x{c}x{hw}");
        // Checked once: the operands are fixed, so the timed calls cannot
        // fail where these did not.
        naive_conv2d(&x, &k)?;
        conv::conv2d(&x, &k)?;
        conv::conv2d_grad_input(&g, &k)?;
        conv::conv2d_grad_kernel(&x, &g, 3, 3)?;
        let t_naive = time_secs(12, || {
            std::hint::black_box(naive_conv2d(&x, &k).ok());
        });
        let gf_naive = flops / t_naive / 1e9;
        let t_fwd = time_secs(48, || {
            std::hint::black_box(conv::conv2d(&x, &k).ok());
        });
        let t_gi = time_secs(48, || {
            std::hint::black_box(conv::conv2d_grad_input(&g, &k).ok());
        });
        let t_gk = time_secs(48, || {
            std::hint::black_box(conv::conv2d_grad_kernel(&x, &g, 3, 3).ok());
        });
        let gemm_gflops = gemm_256_gflops();
        // The seed shipped naive loops for the forward pass only.
        for (op, t_fast, naive) in [
            ("forward", t_fwd, Some(gf_naive)),
            ("grad_input", t_gi, None),
            ("grad_kernel", t_gk, None),
        ] {
            let gf_fast = flops / t_fast / 1e9;
            let share = gf_fast / gemm_gflops;
            rows.push(vec![
                format!("conv {op} {shape}x{hw} k3"),
                naive.map_or("-".into(), |g| format!("{g:.2}")),
                format!("{gf_fast:.2}"),
                naive.map_or("-".into(), |g| format!("{:.2}x", gf_fast / g)),
                format!("{:.0}%", 100.0 * share),
            ]);
            // The forward gauges keep the names history already holds.
            let stem = if op == "forward" { "fast" } else { op };
            metrics.set_gauge(&format!("conv/{shape}/{stem}_gflops"), gf_fast);
            metrics.set_gauge(&format!("conv/{shape}/{op}_vs_gemm256"), share);
            conv_json.push(match naive {
                Some(gf_naive) => {
                    metrics.set_gauge(&format!("conv/{shape}/speedup"), gf_fast / gf_naive);
                    serde_json::json!({
                        "op": op, "batch": n, "channels": c, "hw": hw,
                        "naive_gflops": gf_naive,
                        "fast_gflops": gf_fast,
                        "speedup": gf_fast / gf_naive,
                        "vs_gemm256": share,
                    })
                }
                None => serde_json::json!({
                    "op": op, "batch": n, "channels": c, "hw": hw,
                    "fast_gflops": gf_fast,
                    "vs_gemm256": share,
                }),
            });
        }
    }

    print_table(
        &[
            "kernel",
            "naive GF/s",
            "fast GF/s",
            "speedup",
            "of gemm 256³",
        ],
        &rows,
    );

    let gemm_256 = &gemm_json[2];
    let speedup_256 = gemm_256["speedup"].as_f64().context("speedup")?;
    println!("\n256x256x256 GEMM speedup over seed naive: {speedup_256:.2}x");
    assert!(
        speedup_256 >= 3.0,
        "acceptance: 256^3 GEMM must be >= 3x over the seed naive kernel"
    );

    // Pool counters: thread-dependent by nature, which is exactly why they
    // live in bench-side metrics and never in a trace.
    let st = pool::stats();
    metrics.set_gauge("pool/jobs_submitted", st.jobs_submitted as f64);
    metrics.set_gauge("pool/chunks_executed", st.chunks_executed as f64);
    metrics.set_gauge("pool/serial_fallbacks", st.serial_fallbacks as f64);

    // Wall-clock GFLOPS land in history for trend-watching; the committed
    // baseline only gates deterministic metrics, so this cannot flake CI.
    Mode::Full.publish(
        "BENCH_kernels",
        "kernel_bench",
        serde_json::json!({
            "threads": pool::num_threads(),
            "gemm": gemm_json,
            "gemm_shapes": shape_json,
            "conv": conv_json,
        }),
        &metrics,
    )?;
    Ok(())
}
