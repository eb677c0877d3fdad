//! End-to-end store recovery properties under long randomized fault
//! schedules: every injected silent corruption is either quarantined or
//! swept, never restored, and the whole history replays bit-identically.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration test"
)]

use vf_store::{CheckpointStore, StorageFaultPlan, StoreConfig, StoreError};

fn payload(step: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i as u64).wrapping_mul(2654435761) ^ step) as u8).collect()
}

fn chaotic_config(seed: u64) -> StoreConfig {
    let mut cfg = StoreConfig::quiet(seed);
    cfg.plan = StorageFaultPlan::quiet(seed)
        .with_torn_writes(0.06)
        .with_bit_flips(0.04)
        .with_crash_writes(0.05)
        .with_stalls(0.08, 1.5);
    cfg.shard_bytes = 256;
    cfg.retention.keep_last = 3;
    cfg
}

/// Drives `rounds` of save / occasional power-loss / restore and returns a
/// full deterministic transcript of what happened.
fn drill(seed: u64, rounds: u64) -> (Vec<String>, String) {
    let mut store = CheckpointStore::new(chaotic_config(seed)).unwrap();
    let mut last_good: Option<(u64, Vec<u8>)> = None;
    let mut transcript = Vec::new();

    for round in 1..=rounds {
        let step = round * 10;
        let body = payload(step, 900 + (step % 7) as usize * 100);
        match store.save(step, &body) {
            Ok(r) => transcript.push(format!("save {step}: ok shards={}", r.shards)),
            Err(e) => transcript.push(format!("save {step}: err {e}")),
        }
        if round % 5 == 0 {
            store.power_loss();
        }
        if round % 4 == 0 {
            match store.restore_latest() {
                Ok((r, bytes)) => {
                    // Whatever was restored must byte-match what was saved
                    // at that step — a corrupted restore can never surface.
                    assert_eq!(bytes, payload(r.step, bytes.len()), "round {round}");
                    assert_eq!(bytes, payload(r.step, 900 + (r.step % 7) as usize * 100));
                    last_good = Some((r.step, bytes));
                    transcript.push(format!(
                        "restore: step={} attempts={} fallback={}",
                        r.step, r.attempts, r.fallback
                    ));
                }
                Err(StoreError::NoValidCheckpoint { scanned }) => {
                    transcript.push(format!("restore: none (scanned {scanned})"));
                }
                Err(e) => panic!("unexpected restore error: {e}"),
            }
        }
    }

    let c = store.counters();
    assert_eq!(c.silent_restores, 0, "a corruption evaded the checksum layer");
    // The fault plan injected silent damage over this many rounds with
    // near-certainty; the store must have *detected* corruption somewhere
    // (quarantine) or swept it with the debris of failed saves.
    let injected = store.sim().stats().silent_corruptions();
    if injected > 0 {
        assert!(
            c.corruptions_detected + c.save_failures + c.uncommitted_cleaned + c.temps_cleaned > 0,
            "injected {injected} silent corruptions but detected/swept nothing"
        );
    }
    let _ = last_good;
    (transcript, format!("{c:?}"))
}

#[test]
fn long_faulted_history_restores_only_good_data() {
    let (transcript, _) = drill(0xC0FFEE, 60);
    // The schedule must actually exercise the interesting paths.
    assert!(transcript.iter().any(|l| l.starts_with("restore: step=")));
    assert!(transcript.iter().any(|l| l.contains("err")), "no save ever failed: {transcript:?}");
}

#[test]
fn faulted_history_is_bit_identical_across_replays() {
    assert_eq!(drill(42, 40), drill(42, 40));
    assert_eq!(drill(7, 40), drill(7, 40));
    assert_ne!(drill(42, 40).0, drill(7, 40).0, "different seeds, different schedules");
}

#[test]
fn fallback_chain_walks_past_multiple_corrupt_checkpoints() {
    let mut cfg = StoreConfig::quiet(3);
    cfg.shard_bytes = 64;
    cfg.retention.keep_last = 5;
    // Sabotage the 3rd and 4th committed saves: restore must walk back two.
    cfg.sabotage_saves = vec![2, 3];
    let mut store = CheckpointStore::new(cfg).unwrap();
    for step in [10, 20, 30, 40] {
        store.save(step, &payload(step, 400)).unwrap();
    }
    let (report, bytes) = store.restore_latest().unwrap();
    assert_eq!(report.step, 20);
    assert!(report.fallback);
    assert_eq!(bytes, payload(20, 400));
    assert_eq!(store.counters().quarantined, 2);
    assert_eq!(store.counters().silent_restores, 0);
}
