//! The deterministic storage simulator.
//!
//! [`SimStore`] is a flat object store (path → bytes) with the semantics a
//! durable checkpoint format actually depends on:
//!
//! * **atomic rename** — `rename` replaces the destination in one step;
//!   readers never observe a half-renamed object;
//! * **explicit durability** — a written object is *unsynced* until
//!   [`SimStore::sync`] is called on it; [`SimStore::power_loss`] tears
//!   every unsynced object, synced ones survive. Write-temp → sync →
//!   rename is therefore the only safe commit protocol, exactly as on a
//!   real filesystem;
//! * **finite capacity** — writes beyond `capacity_bytes` fail with
//!   [`StoreError::DiskFull`];
//! * **injected faults** — each write consults the [`StorageFaultPlan`]'s
//!   seeded sub-streams for crashes, torn writes, bit flips, and stalls.
//!
//! All I/O charges *simulated* seconds to an internal accumulator
//! ([`SimStore::drain_time_s`]); nothing reads a wall clock, so storage
//! chaos composes with the chaos supervisor's `SimClock` without breaking
//! replayability.
//!
//! The store additionally remembers which objects it silently damaged
//! ([`SimStore::is_corrupted`]). That bookkeeping is *oracle state* for
//! drills and tests — the integrity layer above must detect every such
//! object from checksums alone, and the recovery drill asserts it never
//! restored from one.

use crate::error::StoreError;
use crate::fault::{
    StorageFaultPlan, STREAM_BIT, STREAM_CRASH, STREAM_CUT, STREAM_FLIP, STREAM_STALL, STREAM_TORN,
};
use std::collections::{BTreeMap, BTreeSet};

/// One stored object.
#[derive(Debug, Clone)]
struct Object {
    data: Vec<u8>,
    synced: bool,
}

/// Counters of faults the simulator actually injected — the ground truth a
/// drill compares detection counts against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Writes that silently persisted only a prefix.
    pub torn_writes: u64,
    /// Writes that silently inverted one bit.
    pub bit_flips: u64,
    /// Writes interrupted by a simulated crash (error surfaced).
    pub write_crashes: u64,
    /// Operations delayed by a latency stall.
    pub stalls: u64,
    /// Writes rejected for capacity.
    pub disk_full: u64,
    /// Objects torn by a power loss before they were synced.
    pub power_loss_tears: u64,
}

impl FaultStats {
    /// Silent corruptions injected: faults that returned success but
    /// damaged data. Only checksums can catch these.
    pub fn silent_corruptions(&self) -> u64 {
        self.torn_writes + self.bit_flips + self.power_loss_tears
    }
}

/// The deterministic simulated object store. See the module docs.
#[derive(Debug, Clone)]
pub struct SimStore {
    plan: StorageFaultPlan,
    capacity_bytes: u64,
    objects: BTreeMap<String, Object>,
    /// Oracle set of silently damaged object paths (renames carry marks).
    corrupted: BTreeSet<String>,
    /// Write-operation counter driving the fault sub-streams.
    write_ops: u64,
    /// Accumulated simulated I/O seconds not yet drained by the caller.
    pending_time_s: f64,
    stats: FaultStats,
}

impl SimStore {
    /// A store with the given fault plan and capacity.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidConfig`] for an invalid plan or a zero
    /// capacity.
    pub fn new(plan: StorageFaultPlan, capacity_bytes: u64) -> Result<Self, StoreError> {
        plan.validate()?;
        if capacity_bytes == 0 {
            return Err(StoreError::InvalidConfig {
                reason: "capacity_bytes must be positive".into(),
            });
        }
        Ok(SimStore {
            plan,
            capacity_bytes,
            objects: BTreeMap::new(),
            corrupted: BTreeSet::new(),
            write_ops: 0,
            pending_time_s: 0.0,
            stats: FaultStats::default(),
        })
    }

    /// The store's fault plan.
    pub fn plan(&self) -> &StorageFaultPlan {
        &self.plan
    }

    /// Total bytes currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.objects.values().map(|o| o.data.len() as u64).sum()
    }

    /// The configured capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Counters of injected faults (the drill's ground truth).
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Returns the simulated I/O seconds accumulated since the last drain
    /// and resets the accumulator. Callers charge this to their `SimClock`.
    pub fn drain_time_s(&mut self) -> f64 {
        std::mem::take(&mut self.pending_time_s)
    }

    /// True when the simulator silently damaged `path` (oracle state; the
    /// integrity layer must reach the same verdict from checksums alone).
    pub fn is_corrupted(&self, path: &str) -> bool {
        self.corrupted.contains(path)
    }

    fn charge(&mut self, seconds: f64) {
        self.pending_time_s += seconds;
    }

    fn transfer_s(bytes: usize, mbps: f64) -> f64 {
        bytes as f64 / (mbps * 1e6)
    }

    /// Writes `bytes` to `path` (replacing any existing object), subject to
    /// the fault plan. The object is *unsynced* until [`SimStore::sync`].
    ///
    /// Torn writes and bit flips return `Ok` — they are silent by design.
    ///
    /// # Errors
    ///
    /// [`StoreError::DiskFull`] when capacity would be exceeded;
    /// [`StoreError::CrashedWrite`] when the plan crashes the writer
    /// mid-write (a partial unsynced object is left behind).
    pub fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let op = self.write_ops;
        self.write_ops += 1;
        self.charge(self.plan.op_latency_s + Self::transfer_s(bytes.len(), self.plan.write_mbps));
        if self.plan.stall_prob > 0.0 && self.plan.unit_draw(STREAM_STALL, op) <= self.plan.stall_prob
        {
            self.stats.stalls += 1;
            self.charge(self.plan.stall_s);
        }

        let replaced = self.objects.get(path).map_or(0, |o| o.data.len() as u64);
        let used = self.used_bytes() - replaced;
        if used + bytes.len() as u64 > self.capacity_bytes {
            self.stats.disk_full += 1;
            return Err(StoreError::DiskFull {
                used_bytes: used,
                requested_bytes: bytes.len() as u64,
                capacity_bytes: self.capacity_bytes,
            });
        }

        if self.plan.crash_write_prob > 0.0
            && self.plan.unit_draw(STREAM_CRASH, op) <= self.plan.crash_write_prob
        {
            self.stats.write_crashes += 1;
            let cut = self.cut_len(bytes.len(), op);
            self.put(path, bytes[..cut].to_vec(), cut < bytes.len());
            return Err(StoreError::CrashedWrite {
                path: path.to_string(),
                written_bytes: cut as u64,
            });
        }

        if self.plan.torn_write_prob > 0.0
            && self.plan.unit_draw(STREAM_TORN, op) <= self.plan.torn_write_prob
        {
            self.stats.torn_writes += 1;
            let cut = self.cut_len(bytes.len(), op);
            self.put(path, bytes[..cut].to_vec(), cut < bytes.len());
            return Ok(()); // silent: the caller believes the write landed
        }

        if self.plan.bit_flip_prob > 0.0
            && self.plan.unit_draw(STREAM_FLIP, op) <= self.plan.bit_flip_prob
            && !bytes.is_empty()
        {
            self.stats.bit_flips += 1;
            let mut damaged = bytes.to_vec();
            let bit = (self.plan.unit_draw(STREAM_BIT, op) * (damaged.len() * 8) as f64) as usize;
            let bit = bit.min(damaged.len() * 8 - 1);
            damaged[bit / 8] ^= 1 << (bit % 8);
            self.put(path, damaged, true);
            return Ok(()); // silent
        }

        self.put(path, bytes.to_vec(), false);
        Ok(())
    }

    /// A strict-prefix length for a torn or crashed write.
    fn cut_len(&self, len: usize, op: u64) -> usize {
        if len == 0 {
            return 0;
        }
        let frac = self.plan.unit_draw(STREAM_CUT, op);
        ((frac * len as f64) as usize).min(len - 1)
    }

    fn put(&mut self, path: &str, data: Vec<u8>, corrupt: bool) {
        self.objects.insert(path.to_string(), Object { data, synced: false });
        if corrupt {
            self.corrupted.insert(path.to_string());
        } else {
            self.corrupted.remove(path);
        }
    }

    /// Makes `path` durable: it will survive [`SimStore::power_loss`].
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the object does not exist.
    pub fn sync(&mut self, path: &str) -> Result<(), StoreError> {
        self.charge(self.plan.op_latency_s);
        match self.objects.get_mut(path) {
            Some(o) => {
                o.synced = true;
                Ok(())
            }
            None => Err(StoreError::NotFound { path: path.to_string() }),
        }
    }

    /// Atomically renames `from` to `to`, replacing any existing `to`.
    /// Durability and corruption marks travel with the object.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when `from` does not exist.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        self.charge(self.plan.op_latency_s);
        let Some(o) = self.objects.remove(from) else {
            return Err(StoreError::NotFound { path: from.to_string() });
        };
        self.objects.insert(to.to_string(), o);
        if self.corrupted.remove(from) {
            self.corrupted.insert(to.to_string());
        } else {
            self.corrupted.remove(to);
        }
        Ok(())
    }

    /// Reads the full contents of `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the object does not exist.
    pub fn read(&mut self, path: &str) -> Result<Vec<u8>, StoreError> {
        match self.objects.get(path) {
            Some(o) => {
                let data = o.data.clone();
                self.charge(
                    self.plan.op_latency_s + Self::transfer_s(data.len(), self.plan.read_mbps),
                );
                Ok(data)
            }
            None => {
                self.charge(self.plan.op_latency_s);
                Err(StoreError::NotFound { path: path.to_string() })
            }
        }
    }

    /// Deletes `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the object does not exist.
    pub fn delete(&mut self, path: &str) -> Result<(), StoreError> {
        self.charge(self.plan.op_latency_s);
        if self.objects.remove(path).is_none() {
            return Err(StoreError::NotFound { path: path.to_string() });
        }
        self.corrupted.remove(path);
        Ok(())
    }

    /// True when `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.objects.contains_key(path)
    }

    /// All object paths starting with `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.objects
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Simulates a power loss: every *unsynced* object is torn to a
    /// deterministic prefix (and marked corrupted if shortened); synced
    /// objects are untouched. This is what makes the write-temp → sync →
    /// rename protocol load-bearing rather than ceremonial.
    pub fn power_loss(&mut self) {
        let victims: Vec<String> = self
            .objects
            .iter()
            .filter(|(_, o)| !o.synced)
            .map(|(k, _)| k.clone())
            .collect();
        for (i, path) in victims.iter().enumerate() {
            let cut = {
                let o = &self.objects[path];
                let len = o.data.len();
                if len == 0 {
                    0
                } else {
                    let frac = self.plan.unit_draw(STREAM_CUT, self.write_ops + i as u64);
                    ((frac * len as f64) as usize).min(len - 1)
                }
            };
            #[expect(clippy::expect_used, reason = "path came from iterating this very map")]
            let o = self
                .objects
                .get_mut(path)
                .expect("victim listed from the object map");
            if cut < o.data.len() {
                o.data.truncate(cut);
                self.corrupted.insert(path.clone());
                self.stats.power_loss_tears += 1;
            }
            o.synced = true; // whatever survived the outage is now on the medium
        }
    }

    /// Deterministically flips one bit of `path` in place and marks it
    /// corrupted — the targeted-sabotage hook recovery drills use to force
    /// "newest checkpoint is corrupt" scenarios.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the object does not exist or is empty.
    pub fn corrupt_object(&mut self, path: &str, bit_index: u64) -> Result<(), StoreError> {
        let Some(o) = self.objects.get_mut(path) else {
            return Err(StoreError::NotFound { path: path.to_string() });
        };
        if o.data.is_empty() {
            return Err(StoreError::NotFound { path: path.to_string() });
        }
        let bit = (bit_index % (o.data.len() as u64 * 8)) as usize;
        o.data[bit / 8] ^= 1 << (bit % 8);
        self.corrupted.insert(path.to_string());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(capacity: u64) -> SimStore {
        SimStore::new(StorageFaultPlan::quiet(1), capacity).unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = quiet(1 << 20);
        s.write("a/b", b"hello").unwrap();
        assert_eq!(s.read("a/b").unwrap(), b"hello");
        assert_eq!(s.used_bytes(), 5);
        assert!(s.exists("a/b"));
        assert!(!s.is_corrupted("a/b"));
    }

    #[test]
    fn missing_objects_error() {
        let mut s = quiet(1 << 20);
        assert!(matches!(s.read("nope"), Err(StoreError::NotFound { .. })));
        assert!(matches!(s.sync("nope"), Err(StoreError::NotFound { .. })));
        assert!(matches!(s.delete("nope"), Err(StoreError::NotFound { .. })));
        assert!(matches!(s.rename("nope", "x"), Err(StoreError::NotFound { .. })));
    }

    #[test]
    fn capacity_is_enforced_and_overwrites_reuse_space() {
        let mut s = quiet(10);
        s.write("a", &[0u8; 8]).unwrap();
        assert!(matches!(s.write("b", &[0u8; 4]), Err(StoreError::DiskFull { .. })));
        // Overwriting `a` with 10 bytes fits: the old 8 are released.
        s.write("a", &[0u8; 10]).unwrap();
        assert_eq!(s.used_bytes(), 10);
        assert_eq!(s.stats().disk_full, 1);
    }

    #[test]
    fn rename_is_atomic_and_carries_marks() {
        let mut s = quiet(1 << 20);
        s.write("tmp", b"payload").unwrap();
        s.sync("tmp").unwrap();
        s.rename("tmp", "final").unwrap();
        assert!(!s.exists("tmp"));
        assert_eq!(s.read("final").unwrap(), b"payload");
        // Corruption marks travel through renames.
        s.write("tmp2", b"xx").unwrap();
        s.corrupt_object("tmp2", 3).unwrap();
        s.rename("tmp2", "final2").unwrap();
        assert!(s.is_corrupted("final2"));
        assert!(!s.is_corrupted("tmp2"));
    }

    #[test]
    fn power_loss_tears_unsynced_but_spares_synced() {
        let mut s = quiet(1 << 20);
        s.write("durable", b"0123456789").unwrap();
        s.sync("durable").unwrap();
        s.write("volatile", b"0123456789").unwrap();
        s.power_loss();
        assert_eq!(s.read("durable").unwrap(), b"0123456789");
        let torn = s.read("volatile").unwrap();
        assert!(torn.len() < 10, "unsynced object must lose data");
        assert!(s.is_corrupted("volatile"));
        assert!(!s.is_corrupted("durable"));
        assert_eq!(s.stats().power_loss_tears, 1);
    }

    #[test]
    fn torn_writes_are_silent_and_marked_in_oracle() {
        let plan = StorageFaultPlan::quiet(7).with_torn_writes(1.0);
        let mut s = SimStore::new(plan, 1 << 20).unwrap();
        s.write("x", &[9u8; 100]).unwrap(); // Ok despite the tear
        assert!(s.read("x").unwrap().len() < 100);
        assert!(s.is_corrupted("x"));
        assert_eq!(s.stats().torn_writes, 1);
        assert_eq!(s.stats().silent_corruptions(), 1);
    }

    #[test]
    fn bit_flips_are_silent_single_bit() {
        let plan = StorageFaultPlan::quiet(7).with_bit_flips(1.0);
        let mut s = SimStore::new(plan, 1 << 20).unwrap();
        let original = vec![0u8; 64];
        s.write("x", &original).unwrap();
        let damaged = s.read("x").unwrap();
        assert_eq!(damaged.len(), 64);
        let flipped: u32 = damaged
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
        assert!(s.is_corrupted("x"));
    }

    #[test]
    fn crashed_writes_error_and_leave_partials() {
        let plan = StorageFaultPlan::quiet(7).with_crash_writes(1.0);
        let mut s = SimStore::new(plan, 1 << 20).unwrap();
        let err = s.write("x", &[1u8; 50]).unwrap_err();
        assert!(matches!(err, StoreError::CrashedWrite { .. }));
        assert!(s.read("x").unwrap().len() < 50);
        assert_eq!(s.stats().write_crashes, 1);
    }

    #[test]
    fn stalls_add_time_but_not_damage() {
        let plan = StorageFaultPlan::quiet(7).with_stalls(1.0, 5.0);
        let mut s = SimStore::new(plan, 1 << 20).unwrap();
        s.write("x", b"data").unwrap();
        assert_eq!(s.read("x").unwrap(), b"data");
        assert!(s.drain_time_s() >= 5.0);
        assert_eq!(s.drain_time_s(), 0.0, "drain resets the accumulator");
        assert_eq!(s.stats().stalls, 1);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let plan = StorageFaultPlan::quiet(42)
            .with_torn_writes(0.3)
            .with_bit_flips(0.2)
            .with_crash_writes(0.1)
            .with_stalls(0.2, 1.0);
        let run = |mut s: SimStore| {
            let mut log = Vec::new();
            for i in 0..50u32 {
                let payload = vec![i as u8; 64 + i as usize];
                let r = s.write(&format!("obj-{i:03}"), &payload);
                log.push((r.is_ok(), s.used_bytes(), format!("{:?}", s.stats())));
            }
            (log, format!("{:.9}", s.drain_time_s()))
        };
        let a = run(SimStore::new(plan.clone(), 1 << 20).unwrap());
        let b = run(SimStore::new(plan, 1 << 20).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn list_is_sorted_and_prefix_filtered() {
        let mut s = quiet(1 << 20);
        for name in ["b/2", "a/1", "b/1", "c"] {
            s.write(name, b"x").unwrap();
        }
        assert_eq!(s.list("b/"), vec!["b/1".to_string(), "b/2".to_string()]);
        assert_eq!(s.list("").len(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimStore::new(StorageFaultPlan::quiet(0), 0).is_err());
        assert!(SimStore::new(StorageFaultPlan::quiet(0).with_torn_writes(2.0), 100).is_err());
    }
}
