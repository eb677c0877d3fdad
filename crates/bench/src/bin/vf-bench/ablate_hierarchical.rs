//! Ablation: flat vs hierarchical all-reduce on the paper's 2×8-GPU
//! testbed topology.
//!
//! The paper runs Horovod's ring across both servers; once a ring spans the
//! 16 Gbps inter-server link, every one of its 2(N−1) phases pays that
//! link. A hierarchical schedule (reduce within servers, ring across server
//! leaders, broadcast within servers) pays it only between leaders. This
//! quantifies how much of the step VirtualFlow's single per-step
//! synchronization costs under each schedule.

use vf_bench::report::{emit, print_table, Context, Mode, Result};
use vf_comm::Topology;
use vf_core::perf_model::{step_time, ExecutionShape, StepOptions, SyncSchedule};
use vf_device::{DeviceProfile, DeviceType};
use vf_models::profile::{bert_base, resnet50};

/// An unbucketed step synchronized by `sync`.
fn on(sync: SyncSchedule) -> StepOptions {
    StepOptions {
        sync,
        bucket_bytes: None,
    }
}

pub fn run(_: Mode) -> Result {
    println!("== ablation: flat vs hierarchical all-reduce (2 servers x 8 V100) ==\n");
    let topo = Topology::paper_testbed();
    let v100 = DeviceProfile::of(DeviceType::V100);
    let mut out = Vec::new();
    for (model, micro) in [(resnet50(), 256usize), (bert_base(), 8usize)] {
        println!("{} (micro-batch {micro}):", model.name);
        let mut rows = Vec::new();
        for gpus in [2usize, 4, 8, 12, 16] {
            let shape = ExecutionShape::homogeneous(v100, gpus, 1, micro);
            let flat = step_time(&model, &shape, on(SyncSchedule::Flat(topo)));
            let hier = step_time(&model, &shape, on(SyncSchedule::Hierarchical(topo)));
            let speedup = flat.total_s() / hier.total_s();
            rows.push(vec![
                gpus.to_string(),
                format!("{:.1}", flat.sync_s * 1e3),
                format!("{:.1}", hier.sync_s * 1e3),
                format!("{:.1}", flat.total_s() * 1e3),
                format!("{:.1}", hier.total_s() * 1e3),
                format!("{speedup:.2}x"),
            ]);
            out.push(serde_json::json!({
                "model": model.name,
                "gpus": gpus,
                "flat_sync_ms": flat.sync_s * 1e3,
                "hier_sync_ms": hier.sync_s * 1e3,
                "flat_step_ms": flat.total_s() * 1e3,
                "hier_step_ms": hier.total_s() * 1e3,
                "step_speedup": speedup,
            }));
        }
        print_table(
            &[
                "GPUs",
                "flat sync ms",
                "hier sync ms",
                "flat step ms",
                "hier step ms",
                "speedup",
            ],
            &rows,
        );
        println!();
    }
    // Within one server both schedules coincide; across two they must not.
    let ms = |row: &serde_json::Value, key: &str| row[key].as_f64().context(key);
    let same_server = out.iter().find(|r| r["gpus"] == 8).context("8-GPU row")?;
    let (flat_sync_ms, hier_sync_ms) = (
        ms(same_server, "flat_sync_ms")?,
        ms(same_server, "hier_sync_ms")?,
    );
    assert!((flat_sync_ms - hier_sync_ms).abs() < 1e-6);
    let cross = out.iter().find(|r| r["gpus"] == 16).context("16-GPU row")?;
    let step_speedup = ms(cross, "step_speedup")?;
    assert!(step_speedup > 1.2);
    println!("crossing the slow link, hierarchical reduction recovers most of the step ✓");
    emit("ablate_hierarchical", &serde_json::json!({ "rows": out }))?;
    Ok(())
}
