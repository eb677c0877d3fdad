//! # vf-store — durable checkpointing with integrity verification
//!
//! The chaos supervisor (vf-core) treats checkpoint-restore as the recovery
//! path of last resort; this crate makes that path *provably correct under
//! storage faults* instead of an in-memory fiction. It provides:
//!
//! * [`SimStore`] — a deterministic simulated storage medium with atomic
//!   rename, explicit sync/durability, finite capacity, and an injectable
//!   [`StorageFaultPlan`] (torn writes, bit flips, crash-during-write,
//!   latency stalls) whose draws are pure functions of a seed;
//! * the **record format** ([`record`]) — sharded, CRC32-checksummed
//!   checkpoints committed by a manifest rename, with a versioned schema;
//! * [`CheckpointStore`] — save/scan/restore/GC over the above: scans
//!   quarantine corrupt or torn checkpoints, restores walk back to the
//!   newest fully-valid one, and every phase is traced through `vf_obs`.
//!
//! Nothing here touches `std::fs`: the medium is simulated, so every fault
//! is a draw the plan can replay.
//!
//! Layering: vf-store sits *below* vf-core (it stores opaque byte
//! payloads and knows nothing about trainers); vf-core serializes its
//! `Checkpoint` to bytes and drives the store from the chaos supervisor.
//!
//! ## Example
//!
//! ```
//! use vf_store::{CheckpointStore, StoreConfig};
//!
//! let mut store = CheckpointStore::new(StoreConfig::quiet(7))?;
//! store.save(100, b"snapshot at step 100")?;
//! store.save(200, b"snapshot at step 200")?;
//!
//! // Someone corrupts the newest checkpoint...
//! store.corrupt_newest()?;
//!
//! // ...and restore falls back to the newest *valid* one, loudly.
//! let (report, payload) = store.restore_latest()?;
//! assert_eq!(report.step, 100);
//! assert!(report.fallback);
//! assert_eq!(payload, b"snapshot at step 100");
//! assert_eq!(store.counters().silent_restores, 0);
//! # Ok::<(), vf_store::StoreError>(())
//! ```

#![warn(missing_docs)]

pub mod crc;
mod error;
mod fault;
pub mod record;
mod sim;
mod store;

pub use error::StoreError;
pub use fault::StorageFaultPlan;
pub use record::{Manifest, ShardMeta, MANIFEST_SCHEMA_VERSION};
pub use sim::{FaultStats, SimStore};
pub use store::{
    CheckpointStore, RestoreReport, RetentionPolicy, SaveReport, ScanReport, StoreConfig,
    StoreCounters, ValidCheckpoint,
};
