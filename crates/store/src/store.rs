//! The durable checkpoint store and recovery planner.
//!
//! [`CheckpointStore`] layers the record format of [`crate::record`] over a
//! [`SimStore`] and owns the full durability loop:
//!
//! * **save** — shard the payload, write each shard and finally the
//!   manifest with write-temp → sync → rename (the manifest rename is the
//!   commit point), then apply the retention policy;
//! * **scan** — sweep stray temps and uncommitted debris, validate every
//!   committed manifest (schema, shard presence, lengths, CRC32s), and
//!   *quarantine* anything invalid under `quarantine/` so a bad checkpoint
//!   can never be restored by accident but remains available for forensics;
//! * **restore** — scan, then walk valid checkpoints newest-first,
//!   re-verifying the whole payload checksum at read time; a checkpoint
//!   that fails at this stage is quarantined and the next-older one is
//!   tried (a *fallback* restore).
//!
//! Every phase emits `ckpt/save`, `ckpt/scan`, `ckpt/restore` spans on the
//! `store` category through `vf_obs`, with counters for corruption
//! detections, quarantines, and restore attempts — the numbers the chaos
//! supervisor surfaces as MTTR and restore-attempt metrics.

use crate::error::StoreError;
use crate::fault::StorageFaultPlan;
use crate::record::{
    checkpoint_dir, step_of_dir, Manifest, MANIFEST_NAME, QUARANTINE_PREFIX, TEMP_SUFFIX,
};
use crate::sim::SimStore;
use crate::crc::crc32;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use vf_obs::{Event, Recorder};

/// How many committed checkpoints the store keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Newest committed checkpoints to retain; older ones are deleted
    /// after each successful save. Clamped to at least 1 — a retention
    /// policy that deletes everything is a configuration error, and
    /// keeping several is what makes fallback restores possible when the
    /// newest turns out corrupt.
    pub keep_last: usize,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy { keep_last: 4 }
    }
}

/// Full configuration of a [`CheckpointStore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// The storage fault plan (probabilities, bandwidths, seed).
    pub plan: StorageFaultPlan,
    /// Medium capacity in bytes.
    pub capacity_bytes: u64,
    /// Shard size in bytes; the payload is split into ceil(len/shard_bytes)
    /// shards.
    pub shard_bytes: usize,
    /// Retention/GC policy.
    pub retention: RetentionPolicy,
    /// Targeted sabotage: 0-based ordinals of *committed* saves whose first
    /// shard is silently bit-flipped right after commit. This is the
    /// deterministic knob recovery drills use to force "newest checkpoint
    /// is corrupt, fall back to an older valid one" without waiting for a
    /// probabilistic fault to land in the right place.
    #[serde(default)]
    pub sabotage_saves: Vec<u64>,
}

impl StoreConfig {
    /// A fault-free store: 1 GiB capacity, 64 KiB shards, keep last 4.
    pub fn quiet(seed: u64) -> Self {
        StoreConfig {
            plan: StorageFaultPlan::quiet(seed),
            capacity_bytes: 1 << 30,
            shard_bytes: 64 << 10,
            retention: RetentionPolicy::default(),
            sabotage_saves: Vec::new(),
        }
    }
}

/// Cumulative counters over a store's lifetime — the raw material for the
/// chaos supervisor's durability metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCounters {
    /// Successfully committed saves.
    pub saves: u64,
    /// Saves that failed before commit (crash, disk-full).
    pub save_failures: u64,
    /// Successful restores.
    pub restores: u64,
    /// Checkpoint validation attempts made during restores (>1 per restore
    /// means fallbacks happened).
    pub restore_attempts: u64,
    /// Restores that did not use the newest committed checkpoint because a
    /// newer one was corrupt or torn.
    pub fallback_restores: u64,
    /// Integrity violations detected (bad shards, bad manifests, payload
    /// checksum mismatches).
    pub corruptions_detected: u64,
    /// Checkpoints moved to quarantine.
    pub quarantined: u64,
    /// Stray temp objects swept by scans.
    pub temps_cleaned: u64,
    /// Uncommitted (manifest-less) checkpoint objects swept by scans.
    pub uncommitted_cleaned: u64,
    /// Checkpoints deleted by retention.
    pub gc_deleted: u64,
    /// Restores that returned data the fault oracle says was damaged.
    /// **Must stay 0**: any other value means a corruption evaded the
    /// checksum layer. The recovery drill gates on this.
    pub silent_restores: u64,
}

impl StoreCounters {
    /// Mirrors the counters into a [`vf_obs::Metrics`] registry under
    /// `store/*` names, using monotone counter mirrors
    /// ([`vf_obs::Metrics::set_counter`]) so a driver may republish the
    /// same cumulative counts every tick without double-counting — the
    /// monitor's sampler derives windowed rates from the deltas.
    pub fn record_metrics(&self, m: &vf_obs::Metrics) {
        m.set_counter("store/saves", self.saves);
        m.set_counter("store/save_failures", self.save_failures);
        m.set_counter("store/restores", self.restores);
        m.set_counter("store/restore_attempts", self.restore_attempts);
        m.set_counter("store/fallback_restores", self.fallback_restores);
        m.set_counter("store/corruptions_detected", self.corruptions_detected);
        m.set_counter("store/quarantined", self.quarantined);
        m.set_counter("store/temps_cleaned", self.temps_cleaned);
        m.set_counter("store/uncommitted_cleaned", self.uncommitted_cleaned);
        m.set_counter("store/gc_deleted", self.gc_deleted);
        m.set_counter("store/silent_restores", self.silent_restores);
    }
}

/// One valid checkpoint found by a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidCheckpoint {
    /// Training step.
    pub step: u64,
    /// Store directory name.
    pub dir: String,
}

/// What a scan found and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanReport {
    /// Valid checkpoints, ascending by step.
    pub valid: Vec<ValidCheckpoint>,
    /// Directories quarantined this scan.
    pub quarantined: Vec<String>,
    /// Corrupt shards / manifests detected this scan.
    pub corruptions: u64,
    /// Stray temps deleted this scan.
    pub temps_cleaned: u64,
    /// Uncommitted objects deleted this scan.
    pub uncommitted_cleaned: u64,
    /// Simulated seconds the scan took.
    pub time_s: f64,
}

/// What a successful save did.
#[derive(Debug, Clone, PartialEq)]
pub struct SaveReport {
    /// Step the checkpoint snapshots.
    pub step: u64,
    /// Payload bytes written.
    pub bytes: u64,
    /// Number of shards.
    pub shards: usize,
    /// Checkpoints deleted by retention after the commit.
    pub gc_deleted: u64,
    /// Simulated seconds the save took.
    pub time_s: f64,
}

/// What a successful restore did.
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreReport {
    /// Step of the checkpoint that was restored.
    pub step: u64,
    /// Validation attempts (1 = newest valid worked immediately).
    pub attempts: u64,
    /// True when a newer committed checkpoint existed but was corrupt.
    pub fallback: bool,
    /// Payload bytes restored.
    pub bytes: u64,
    /// Simulated seconds scan + restore took.
    pub time_s: f64,
}

/// The durable checkpoint store. See the module docs.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    sim: SimStore,
    shard_bytes: usize,
    retention: RetentionPolicy,
    sabotage: BTreeSet<u64>,
    counters: StoreCounters,
    obs: Recorder,
    /// Total simulated seconds of store I/O since construction (monotonic).
    total_time_s: f64,
    /// High-water mark already handed to the caller by `drain_time_s`.
    drained_mark_s: f64,
}

impl CheckpointStore {
    /// Builds a store from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidConfig`] for an invalid fault plan,
    /// zero capacity, or zero shard size.
    pub fn new(cfg: StoreConfig) -> Result<Self, StoreError> {
        if cfg.shard_bytes == 0 {
            return Err(StoreError::InvalidConfig {
                reason: "shard_bytes must be positive".into(),
            });
        }
        Ok(CheckpointStore {
            sim: SimStore::new(cfg.plan, cfg.capacity_bytes)?,
            shard_bytes: cfg.shard_bytes,
            retention: RetentionPolicy { keep_last: cfg.retention.keep_last.max(1) },
            sabotage: cfg.sabotage_saves.into_iter().collect(),
            counters: StoreCounters::default(),
            obs: Recorder::disabled(),
            total_time_s: 0.0,
            drained_mark_s: 0.0,
        })
    }

    /// Attaches a tracing recorder (disabled by default).
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Lifetime counters.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// The underlying simulator (fault stats, corruption oracle).
    pub fn sim(&self) -> &SimStore {
        &self.sim
    }

    /// Folds the simulator's freshly accumulated time into the store's
    /// monotonic total and returns the new total.
    fn absorb_time_s(&mut self) -> f64 {
        self.total_time_s += self.sim.drain_time_s();
        self.total_time_s
    }

    /// Simulated I/O seconds accumulated since the last drain; callers
    /// charge this to their `SimClock`.
    pub fn drain_time_s(&mut self) -> f64 {
        let now = self.absorb_time_s();
        let delta = now - self.drained_mark_s;
        self.drained_mark_s = now;
        delta
    }

    /// Simulates a power loss on the underlying medium (tears every
    /// unsynced object).
    pub fn power_loss(&mut self) {
        self.sim.power_loss();
    }

    /// Deterministically corrupts one bit of the newest committed
    /// checkpoint's first shard — the drill hook for forced-fallback
    /// scenarios.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoValidCheckpoint`] when nothing is committed.
    pub fn corrupt_newest(&mut self) -> Result<String, StoreError> {
        let manifests = self.committed_manifests();
        let Some((_, dir)) = manifests.last() else {
            return Err(StoreError::NoValidCheckpoint { scanned: 0 });
        };
        let shards = self.sim.list(&format!("{dir}/shard-"));
        let Some(shard) = shards.first() else {
            return Err(StoreError::NoValidCheckpoint { scanned: 0 });
        };
        let shard = shard.clone();
        self.sim.corrupt_object(&shard, 17)?;
        Ok(shard)
    }

    /// Every committed checkpoint `(step, dir)`, ascending by step.
    fn committed_manifests(&self) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        for path in self.sim.list("ckpt-") {
            if let Some(dir) = path.strip_suffix(&format!("/{MANIFEST_NAME}")) {
                if let Some(step) = step_of_dir(dir) {
                    out.push((step, dir.to_string()));
                }
            }
        }
        out.sort();
        out
    }

    /// Writes one object durably: temp → sync → rename.
    fn write_durable(&mut self, final_path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = format!("{final_path}{TEMP_SUFFIX}");
        self.sim.write(&tmp, bytes)?;
        self.sim.sync(&tmp)?;
        self.sim.rename(&tmp, final_path)
    }

    /// Saves `payload` as the checkpoint for `step`, then applies
    /// retention. On failure the partial checkpoint directory is swept
    /// best-effort and the error is returned.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError::DiskFull`] and
    /// [`StoreError::CrashedWrite`] from the medium.
    pub fn save(&mut self, step: u64, payload: &[u8]) -> Result<SaveReport, StoreError> {
        let start_us = self.obs.now_us();
        let t0_s = self.absorb_time_s();
        let dir = checkpoint_dir(step);
        let (manifest, chunks) = Manifest::build(step, payload, self.shard_bytes);
        let shards = chunks.len();

        let result = (|| {
            for (meta, chunk) in manifest.shards.iter().zip(&chunks) {
                self.write_durable(&format!("{dir}/{}", meta.name), chunk)?;
            }
            let json = manifest.to_json()?;
            self.write_durable(&format!("{dir}/{MANIFEST_NAME}"), json.as_bytes())
        })();

        if let Err(e) = result {
            self.counters.save_failures += 1;
            // Sweep the partial directory; leftovers are also caught by the
            // next scan, so failures here are ignorable.
            for path in self.sim.list(&format!("{dir}/")) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort sweep; the next scan retries"
                )]
                let _ = self.sim.delete(&path);
            }
            self.absorb_time_s();
            self.obs.record_with(|| {
                Event::instant("ckpt/save-failed", "store", start_us)
                    .with_arg("step", step as i64)
            });
            return Err(e);
        }

        // Targeted sabotage: committed-save ordinal, applied post-commit so
        // the save itself is honest and the *scan* must catch the damage.
        let ordinal = self.counters.saves;
        self.counters.saves += 1;
        if self.sabotage.contains(&ordinal) {
            if let Some(shard) = self.sim.list(&format!("{dir}/shard-")).first() {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "sabotage is opportunistic by design"
                )]
                let _ = self.sim.corrupt_object(shard, 17);
            }
        }

        let gc_deleted = self.apply_retention();
        let time_s = self.absorb_time_s() - t0_s;
        let report = SaveReport {
            step,
            bytes: payload.len() as u64,
            shards,
            gc_deleted,
            time_s,
        };
        self.obs.record_with(|| {
            Event::complete("ckpt/save", "store", start_us, (time_s * 1e6) as u64)
                .with_arg("step", step as i64)
                .with_arg("bytes", payload.len() as i64)
                .with_arg("shards", shards as i64)
        });
        Ok(report)
    }

    /// Deletes committed checkpoints beyond `keep_last`, newest kept.
    fn apply_retention(&mut self) -> u64 {
        let manifests = self.committed_manifests();
        if manifests.len() <= self.retention.keep_last {
            return 0;
        }
        let excess = manifests.len() - self.retention.keep_last;
        let mut deleted = 0;
        for (_, dir) in manifests.into_iter().take(excess) {
            for path in self.sim.list(&format!("{dir}/")) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "GC is best-effort; survivors rescan"
                )]
                let _ = self.sim.delete(&path);
            }
            deleted += 1;
        }
        self.counters.gc_deleted += deleted;
        deleted
    }

    /// Validates one committed checkpoint directory against its manifest.
    /// Returns the parsed manifest on success, or the number of
    /// corruptions found (at least 1) on failure.
    fn validate_dir(&mut self, dir: &str) -> Result<Manifest, u64> {
        let manifest_path = format!("{dir}/{MANIFEST_NAME}");
        let json_bytes = self.sim.read(&manifest_path).map_err(|_| 1u64)?;
        let json = String::from_utf8(json_bytes).map_err(|_| 1u64)?;
        let manifest = Manifest::from_json(&manifest_path, &json).map_err(|_| 1u64)?;

        let mut bad = 0u64;
        for meta in &manifest.shards {
            let path = format!("{dir}/{}", meta.name);
            match self.sim.read(&path) {
                Ok(bytes) => {
                    if bytes.len() as u64 != meta.len || crc32(&bytes) != meta.crc32 {
                        bad += 1;
                    }
                }
                Err(_) => bad += 1,
            }
        }
        if bad > 0 {
            return Err(bad);
        }
        Ok(manifest)
    }

    /// Moves every object of `dir` under the quarantine prefix.
    fn quarantine(&mut self, dir: &str) {
        for path in self.sim.list(&format!("{dir}/")) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a failed rename leaves the object uncommitted, which the scan already treats as damage"
            )]
            let _ = self.sim.rename(&path, &format!("{QUARANTINE_PREFIX}{path}"));
        }
        self.counters.quarantined += 1;
    }

    /// Scans the store: sweeps temps and uncommitted debris, validates
    /// every committed checkpoint, quarantines the invalid ones.
    pub fn scan(&mut self) -> ScanReport {
        let start_us = self.obs.now_us();
        let t0_s = self.absorb_time_s();
        let mut report = ScanReport::default();

        // Stray temps: crashed mid-protocol, never renamed.
        for path in self.sim.list("ckpt-") {
            if path.ends_with(TEMP_SUFFIX) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "stray temps retry next scan"
                )]
                let _ = self.sim.delete(&path);
                report.temps_cleaned += 1;
            }
        }

        // Uncommitted directories: shards present, manifest never landed.
        let committed: BTreeSet<String> =
            self.committed_manifests().into_iter().map(|(_, d)| d).collect();
        for path in self.sim.list("ckpt-") {
            let Some((dir, _)) = path.split_once('/') else { continue };
            if !committed.contains(dir) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "uncommitted debris retries next scan"
                )]
                let _ = self.sim.delete(&path);
                report.uncommitted_cleaned += 1;
            }
        }

        // Validate every committed checkpoint.
        for (step, dir) in self.committed_manifests() {
            match self.validate_dir(&dir) {
                Ok(_) => report.valid.push(ValidCheckpoint { step, dir }),
                Err(bad) => {
                    report.corruptions += bad;
                    self.quarantine(&dir);
                    report.quarantined.push(dir);
                }
            }
        }

        self.counters.corruptions_detected += report.corruptions;
        self.counters.temps_cleaned += report.temps_cleaned;
        self.counters.uncommitted_cleaned += report.uncommitted_cleaned;
        report.time_s = self.absorb_time_s() - t0_s;

        let (valid, quarantined) = (report.valid.len(), report.quarantined.len());
        let time_s = report.time_s;
        self.obs.record_with(|| {
            Event::complete("ckpt/scan", "store", start_us, (time_s * 1e6) as u64)
                .with_arg("valid", valid as i64)
                .with_arg("quarantined", quarantined as i64)
        });
        report
    }

    /// Restores the newest fully-valid checkpoint: scans, then walks valid
    /// checkpoints newest-first re-verifying the payload checksum at read
    /// time; failures quarantine the checkpoint and fall back to the next.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoValidCheckpoint`] when every checkpoint is corrupt,
    /// torn, or absent.
    pub fn restore_latest(&mut self) -> Result<(RestoreReport, Vec<u8>), StoreError> {
        let start_us = self.obs.now_us();
        let t0_s = self.absorb_time_s();
        let newest_committed = self.committed_manifests().last().map(|(s, _)| *s);
        let scan = self.scan();
        let scanned = scan.valid.len() + scan.quarantined.len();

        for (prior, ckpt) in scan.valid.iter().rev().enumerate() {
            let attempts = prior as u64 + 1;
            self.counters.restore_attempts += 1;
            match self.read_payload(ckpt) {
                Ok(payload) => {
                    let fallback = newest_committed.is_some_and(|s| s != ckpt.step);
                    self.counters.restores += 1;
                    if fallback {
                        self.counters.fallback_restores += 1;
                    }
                    // Ask the fault oracle whether anything we just returned
                    // was silently damaged; detection above should make this
                    // unreachable, and drills gate on it staying 0.
                    let shards = self.sim.list(&format!("{}/shard-", ckpt.dir));
                    if shards.iter().any(|s| self.sim.is_corrupted(s)) {
                        self.counters.silent_restores += 1;
                    }
                    let time_s = self.absorb_time_s() - t0_s;
                    let report = RestoreReport {
                        step: ckpt.step,
                        attempts,
                        fallback,
                        bytes: payload.len() as u64,
                        time_s,
                    };
                    self.obs.record_with(|| {
                        Event::complete("ckpt/restore", "store", start_us, (time_s * 1e6) as u64)
                            .with_arg("step", ckpt.step as i64)
                            .with_arg("attempts", attempts as i64)
                            .with_arg("fallback", fallback as i64)
                    });
                    return Ok((report, payload));
                }
                Err(_) => {
                    // Read-time corruption: quarantine and fall back.
                    self.counters.corruptions_detected += 1;
                    self.quarantine(&ckpt.dir);
                }
            }
        }

        self.obs.record_with(|| {
            Event::instant("ckpt/restore-failed", "store", start_us)
                .with_arg("scanned", scanned as i64)
        });
        Err(StoreError::NoValidCheckpoint { scanned })
    }

    /// Reads and re-verifies one checkpoint's payload.
    fn read_payload(&mut self, ckpt: &ValidCheckpoint) -> Result<Vec<u8>, StoreError> {
        let manifest_path = format!("{}/{MANIFEST_NAME}", ckpt.dir);
        let json_bytes = self.sim.read(&manifest_path)?;
        let json = String::from_utf8(json_bytes).map_err(|e| StoreError::BadManifest {
            path: manifest_path.clone(),
            reason: e.to_string(),
        })?;
        let manifest = Manifest::from_json(&manifest_path, &json)?;
        let mut payload = Vec::with_capacity(manifest.payload_len as usize);
        for meta in &manifest.shards {
            let path = format!("{}/{}", ckpt.dir, meta.name);
            let bytes = self.sim.read(&path)?;
            let actual = crc32(&bytes);
            if bytes.len() as u64 != meta.len || actual != meta.crc32 {
                return Err(StoreError::CorruptShard {
                    path,
                    expected_crc32: meta.crc32,
                    actual_crc32: actual,
                });
            }
            payload.extend_from_slice(&bytes);
        }
        let actual = crc32(&payload);
        if payload.len() as u64 != manifest.payload_len || actual != manifest.payload_crc32 {
            return Err(StoreError::CorruptShard {
                path: manifest_path,
                expected_crc32: manifest.payload_crc32,
                actual_crc32: actual,
            });
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vf_obs::RingSink;

    fn payload(step: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u64 * 31 + step) as u8).collect()
    }

    fn quiet_store(keep_last: usize) -> CheckpointStore {
        let mut cfg = StoreConfig::quiet(5);
        cfg.shard_bytes = 64;
        cfg.retention.keep_last = keep_last;
        CheckpointStore::new(cfg).unwrap()
    }

    #[test]
    fn save_restore_round_trip() {
        let mut store = quiet_store(4);
        let data = payload(10, 1000);
        let save = store.save(10, &data).unwrap();
        assert_eq!(save.shards, 16); // ceil(1000/64)
        assert!(save.time_s > 0.0);
        let (report, restored) = store.restore_latest().unwrap();
        assert_eq!(restored, data);
        assert_eq!(report.step, 10);
        assert_eq!(report.attempts, 1);
        assert!(!report.fallback);
        let c = store.counters();
        assert_eq!((c.saves, c.restores, c.silent_restores), (1, 1, 0));
        assert!(store.drain_time_s() > 0.0);
        assert_eq!(store.drain_time_s(), 0.0);
    }

    #[test]
    fn retention_keeps_newest() {
        let mut store = quiet_store(3);
        for step in [10, 20, 30, 40, 50, 60] {
            store.save(step, &payload(step, 200)).unwrap();
        }
        let scan = store.scan();
        let steps: Vec<u64> = scan.valid.iter().map(|v| v.step).collect();
        assert_eq!(steps, vec![40, 50, 60]);
        assert_eq!(store.counters().gc_deleted, 3);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older_valid() {
        let mut store = quiet_store(4);
        store.save(10, &payload(10, 500)).unwrap();
        store.save(20, &payload(20, 500)).unwrap();
        store.corrupt_newest().unwrap();
        let (report, restored) = store.restore_latest().unwrap();
        assert_eq!(report.step, 10, "must fall back past the corrupt step 20");
        assert!(report.fallback);
        assert_eq!(restored, payload(10, 500));
        let c = store.counters();
        assert_eq!(c.quarantined, 1);
        assert!(c.corruptions_detected >= 1);
        assert_eq!(c.fallback_restores, 1);
        assert_eq!(c.silent_restores, 0);
        // The corrupt checkpoint is preserved under quarantine, not deleted.
        assert!(!store.sim().list(QUARANTINE_PREFIX).is_empty());
    }

    #[test]
    fn sabotage_config_corrupts_the_named_save() {
        let mut cfg = StoreConfig::quiet(5);
        cfg.shard_bytes = 64;
        cfg.sabotage_saves = vec![1]; // second committed save
        let mut store = CheckpointStore::new(cfg).unwrap();
        store.save(10, &payload(10, 300)).unwrap();
        store.save(20, &payload(20, 300)).unwrap();
        let (report, _) = store.restore_latest().unwrap();
        assert_eq!(report.step, 10);
        assert!(report.fallback);
    }

    #[test]
    fn all_corrupt_is_a_loud_error() {
        let mut store = quiet_store(4);
        store.save(10, &payload(10, 100)).unwrap();
        store.corrupt_newest().unwrap();
        match store.restore_latest() {
            Err(StoreError::NoValidCheckpoint { scanned }) => assert_eq!(scanned, 1),
            other => panic!("expected NoValidCheckpoint, got {other:?}"),
        }
        assert_eq!(store.counters().restores, 0);
    }

    #[test]
    fn empty_store_restore_errors() {
        let mut store = quiet_store(4);
        assert!(matches!(
            store.restore_latest(),
            Err(StoreError::NoValidCheckpoint { scanned: 0 })
        ));
        assert!(matches!(
            store.corrupt_newest(),
            Err(StoreError::NoValidCheckpoint { .. })
        ));
    }

    #[test]
    fn crashed_save_leaves_no_committed_checkpoint_and_scan_sweeps() {
        let mut cfg = StoreConfig::quiet(5);
        cfg.plan = cfg.plan.with_crash_writes(1.0);
        cfg.shard_bytes = 64;
        let mut store = CheckpointStore::new(cfg).unwrap();
        assert!(store.save(10, &payload(10, 500)).is_err());
        assert_eq!(store.counters().save_failures, 1);
        let scan = store.scan();
        assert!(scan.valid.is_empty());
        assert_eq!(scan.quarantined.len(), 0);
        // The failed save swept its own debris; nothing is left.
        assert!(store.sim().list("ckpt-").is_empty());
    }

    #[test]
    fn power_loss_before_sync_never_yields_a_torn_restore() {
        // Write shards through the protocol, power-cut right after save
        // returns: everything save wrote was synced before rename, so the
        // checkpoint must still validate.
        let mut store = quiet_store(4);
        store.save(10, &payload(10, 500)).unwrap();
        store.power_loss();
        let (report, restored) = store.restore_latest().unwrap();
        assert_eq!(report.step, 10);
        assert_eq!(restored, payload(10, 500));
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let mut cfg = StoreConfig::quiet(99);
            cfg.plan = cfg
                .plan
                .with_torn_writes(0.08)
                .with_bit_flips(0.05)
                .with_crash_writes(0.04)
                .with_stalls(0.1, 2.0);
            cfg.shard_bytes = 128;
            cfg.retention.keep_last = 3;
            let mut store = CheckpointStore::new(cfg).unwrap();
            let mut outcomes = Vec::new();
            for step in (10..200u64).step_by(10) {
                outcomes.push(store.save(step, &payload(step, 700)).is_ok());
            }
            let restore = store.restore_latest().map(|(r, p)| (r.step, r.attempts, p));
            (outcomes, format!("{:?}", store.counters()), restore.ok(), store.drain_time_s())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spans_land_on_the_store_category() {
        let ring = Arc::new(RingSink::unbounded());
        let mut store = quiet_store(4);
        store.set_recorder(Recorder::with_sink(ring.clone()));
        store.save(10, &payload(10, 300)).unwrap();
        store.restore_latest().unwrap();
        let names: Vec<String> = ring.events().iter().map(|e| e.name.clone()).collect();
        assert!(names.contains(&"ckpt/save".to_string()), "{names:?}");
        assert!(names.contains(&"ckpt/scan".to_string()));
        assert!(names.contains(&"ckpt/restore".to_string()));
    }

    #[test]
    fn zero_shard_bytes_is_rejected() {
        let mut cfg = StoreConfig::quiet(0);
        cfg.shard_bytes = 0;
        assert!(matches!(
            CheckpointStore::new(cfg),
            Err(StoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn store_config_serde_round_trip() {
        let mut cfg = StoreConfig::quiet(7);
        cfg.sabotage_saves = vec![3, 5];
        let json = serde_json::to_string(&cfg).unwrap();
        let back: StoreConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
