//! Figure 2: BERT-LARGE finetuning on RTE on a single RTX 2080 Ti, with
//! and without virtual node processing.
//!
//! Batch 16 does not fit the GPU natively (max 4), but converges to a
//! higher accuracy — virtual nodes put it in reach.

use vf_bench::report::{emit, Mode, Result};
use vf_bench::standins::{bert_large_task, LargeTask};
use vf_core::memory_model::check_fits;
use vf_device::{DeviceProfile, DeviceType};
use vf_models::profile::bert_large;

pub fn run(_: Mode) -> Result {
    println!("== Figure 2: BERT-LARGE on RTE, single RTX 2080 Ti ==\n");
    let gpu = DeviceProfile::of(DeviceType::Rtx2080Ti);
    let profile = bert_large();
    assert!(
        check_fits(&profile, &gpu, 4, 1).is_ok(),
        "batch 4 must fit natively"
    );
    assert!(
        check_fits(&profile, &gpu, 16, 1).is_err(),
        "batch 16 must NOT fit natively"
    );
    assert!(
        check_fits(&profile, &gpu, 4, 4).is_ok(),
        "batch 16 as 4 virtual nodes of 4 must fit"
    );
    println!("memory check: batch 4 fits natively; batch 16 only as 4 virtual nodes ✓\n");

    let w = bert_large_task(LargeTask::Rte);
    let without_vn = w.train("TF (bs 4)", 4, 1, 1)?;
    let with_vn = w.train("VirtualFlow (bs 16, 4 VNs)", 16, 4, 1)?;

    println!("epoch   TF bs=4   VF bs=16");
    for (i, (a, b)) in without_vn
        .curve
        .iter()
        .zip(with_vn.curve.iter())
        .enumerate()
    {
        println!("{:5}   {:6.2}%   {:7.2}%", i + 1, a * 100.0, b * 100.0);
    }
    println!(
        "\nfinal: {:.2}% (bs 4) vs {:.2}% (bs 16) — virtual nodes gain {:+.1} pp (paper: ~+7)",
        without_vn.final_accuracy * 100.0,
        with_vn.final_accuracy * 100.0,
        (with_vn.final_accuracy - without_vn.final_accuracy) * 100.0
    );
    assert!(with_vn.final_accuracy > without_vn.final_accuracy);
    emit(
        "fig02_rte_finetune",
        &serde_json::json!({ "without_vn": without_vn, "with_vn": with_vn }),
    )?;
    Ok(())
}
