//! Store bench: durable-checkpoint throughput, recovery time, and
//! corruption-detection rate.
//!
//! Every number here is *simulated* time from vf-store's deterministic
//! storage model (bandwidth, per-op latency, seeded fault draws), so the
//! headline metrics are bit-stable across machines and safe to gate:
//!
//! * save/restore throughput (MB/s of checkpoint payload over sim time);
//! * recovery time — the scan + fallback walk when the newest checkpoints
//!   are corrupt;
//! * corruption-detection rate — every save is corrupted post-commit, every
//!   restore must detect it; anything under 1.0 is a checksum escape.
//!
//! Usage: `vf-bench store_bench [--smoke]` — `--smoke` shrinks payloads for tier-1
//! and skips the history append.

use vf_bench::report::{print_table, Context, Mode, Result};
use vf_obs::Metrics;
use vf_store::{CheckpointStore, StoreConfig, StoreError};

const SEED: u64 = 2022;

fn payload(step: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(step * 31)) as u8)
        .collect()
}

/// Saves `rounds` checkpoints of `len` bytes through a quiet store and
/// restores the newest; returns (save_mbps, restore_mbps).
fn throughput(len: usize, rounds: u64) -> Result<(f64, f64)> {
    let mut cfg = StoreConfig::quiet(SEED);
    cfg.shard_bytes = 256 * 1024;
    cfg.capacity_bytes = (len as u64 + 1024) * (cfg.retention.keep_last as u64 + 2);
    let mut store = CheckpointStore::new(cfg).context("quiet store")?;
    let mb = len as f64 / 1.0e6;
    let mut save_s = 0.0;
    for step in 1..=rounds {
        store
            .save(step, &payload(step, len))
            .context("quiet save succeeds")?;
        save_s += store.drain_time_s();
    }
    let (report, bytes) = store.restore_latest().context("restore succeeds")?;
    let restore_s = store.drain_time_s();
    assert_eq!(report.step, rounds);
    assert_eq!(bytes, payload(rounds, len));
    Ok((mb * rounds as f64 / save_s, mb / restore_s))
}

/// Time to recover when the newest `bad` checkpoints are corrupt: the scan
/// quarantines them and the restore walks back to the newest valid one.
fn recovery_time(len: usize, saves: u64, bad: u64) -> Result<(f64, u64)> {
    let mut cfg = StoreConfig::quiet(SEED + 1);
    cfg.shard_bytes = 256 * 1024;
    cfg.retention.keep_last = saves as usize;
    cfg.capacity_bytes = (len as u64 + 4096) * (saves + 2);
    // Sabotage the last `bad` committed saves post-commit.
    cfg.sabotage_saves = (saves - bad..saves).collect();
    let mut store = CheckpointStore::new(cfg).context("store")?;
    for step in 1..=saves {
        store
            .save(step, &payload(step, len))
            .context("save succeeds")?;
    }
    store.drain_time_s(); // saves are not part of the recovery clock
    let (report, bytes) = store
        .restore_latest()
        .context("an older valid checkpoint survives")?;
    let recovery_s = store.drain_time_s();
    assert_eq!(
        report.step,
        saves - bad,
        "walked back past every corrupt checkpoint"
    );
    assert!(report.fallback);
    assert_eq!(bytes, payload(report.step, len));
    Ok((recovery_s, store.counters().quarantined))
}

/// Corrupts every checkpoint immediately after committing it and measures
/// how many of those corruptions the restore path detects. The answer must
/// be every single one.
fn detection_rate(len: usize, rounds: u64) -> Result<(f64, u64, u64)> {
    let mut cfg = StoreConfig::quiet(SEED + 2);
    cfg.shard_bytes = 4096;
    // Quarantined checkpoints keep occupying space until a real GC story
    // for them exists; size the disk for the whole corrupted history.
    cfg.capacity_bytes = (len as u64 + 8192) * (rounds + 6);
    let mut store = CheckpointStore::new(cfg).context("store")?;
    for step in 1..=rounds {
        store
            .save(step, &payload(step, len))
            .context("save succeeds")?;
        store.corrupt_newest().context("newest exists")?;
        match store.restore_latest() {
            // Older checkpoints were already quarantined, so a successful
            // restore here would have to serve corrupted bytes — the
            // counters below would catch it as a silent restore.
            Ok((r, bytes)) => assert_eq!(bytes, payload(r.step, len)),
            Err(StoreError::NoValidCheckpoint { .. }) => {}
            Err(e) => return Err(format!("unexpected restore error: {e}").into()),
        }
    }
    let c = store.counters();
    assert_eq!(c.silent_restores, 0, "corrupted bytes were served");
    Ok((
        c.corruptions_detected as f64 / rounds as f64,
        c.corruptions_detected,
        c.quarantined,
    ))
}

pub fn run(mode: Mode) -> Result {
    let (len, rounds) = if mode == Mode::Smoke {
        (256 * 1024, 6)
    } else {
        (4 * 1024 * 1024, 16)
    };
    println!("== store bench: {rounds} saves of {len} B ==\n");

    let metrics = Metrics::new();
    let (save_mbps, restore_mbps) = throughput(len, rounds)?;
    let (recovery_s, quarantined) = recovery_time(len, rounds, 2)?;
    let (rate, detected, _) = detection_rate(len.min(64 * 1024), rounds)?;

    metrics.set_gauge("save/throughput_mbps", save_mbps);
    metrics.set_gauge("restore/throughput_mbps", restore_mbps);
    metrics.set_gauge("recovery/time_s", recovery_s);
    metrics.inc("recovery/quarantined", quarantined);
    metrics.set_gauge("integrity/detection_rate", rate);
    metrics.inc("integrity/detected", detected);

    print_table(
        &["metric", "value"],
        &[
            vec!["save MB/s".into(), format!("{save_mbps:.1}")],
            vec!["restore MB/s".into(), format!("{restore_mbps:.1}")],
            vec!["recovery time (s)".into(), format!("{recovery_s:.4}")],
            vec!["quarantined".into(), quarantined.to_string()],
            vec!["detection rate".into(), format!("{rate:.3}")],
        ],
    );

    mode.publish(
        "BENCH_store",
        "store_bench",
        serde_json::json!({ "payload_bytes": len, "rounds": rounds }),
        &metrics,
    )?;
    if (rate - 1.0).abs() > f64::EPSILON {
        return Err(format!("corruption-detection rate {rate} != 1.0").into());
    }
    Ok(())
}
