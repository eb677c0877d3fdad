//! Error types for the checkpoint store.

use std::error::Error;
use std::fmt;

/// Errors produced by the storage simulator and the checkpoint store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A [`crate::StorageFaultPlan`] or store configuration was rejected.
    InvalidConfig {
        /// What was wrong with it.
        reason: String,
    },
    /// A write would exceed the store's capacity.
    DiskFull {
        /// Bytes already used.
        used_bytes: u64,
        /// Bytes the write needed.
        requested_bytes: u64,
        /// The store's capacity.
        capacity_bytes: u64,
    },
    /// The named object does not exist.
    NotFound {
        /// The missing path.
        path: String,
    },
    /// The simulated storage crashed mid-write: a partial, unsynced object
    /// was left behind and the operation did not complete.
    CrashedWrite {
        /// The path whose write was interrupted.
        path: String,
        /// Bytes that made it to the medium before the crash.
        written_bytes: u64,
    },
    /// A shard's bytes do not match the checksum its manifest recorded.
    CorruptShard {
        /// The shard path.
        path: String,
        /// The checksum the manifest promised.
        expected_crc32: u32,
        /// The checksum the bytes actually have.
        actual_crc32: u32,
    },
    /// A manifest could not be parsed, or promised shards that are missing
    /// or mis-sized.
    BadManifest {
        /// The manifest path.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A manifest was written by a format version this build cannot read.
    UnsupportedSchema {
        /// The version found in the manifest.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// A restore was requested but no fully-valid checkpoint exists.
    NoValidCheckpoint {
        /// How many checkpoints were scanned (all invalid or quarantined).
        scanned: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidConfig { reason } => {
                write!(f, "invalid store configuration: {reason}")
            }
            StoreError::DiskFull {
                used_bytes,
                requested_bytes,
                capacity_bytes,
            } => write!(
                f,
                "disk full: {used_bytes} bytes used, write of {requested_bytes} exceeds capacity {capacity_bytes}"
            ),
            StoreError::NotFound { path } => write!(f, "object not found: {path}"),
            StoreError::CrashedWrite { path, written_bytes } => write!(
                f,
                "storage crashed mid-write of {path}: only {written_bytes} bytes persisted"
            ),
            StoreError::CorruptShard {
                path,
                expected_crc32,
                actual_crc32,
            } => write!(
                f,
                "corrupt shard {path}: manifest promised crc32 {expected_crc32:#010x}, bytes have {actual_crc32:#010x}"
            ),
            StoreError::BadManifest { path, reason } => {
                write!(f, "bad manifest {path}: {reason}")
            }
            StoreError::UnsupportedSchema { found, supported } => write!(
                f,
                "manifest schema version {found} unsupported (this build reads version {supported})"
            ),
            StoreError::NoValidCheckpoint { scanned } => write!(
                f,
                "no fully-valid checkpoint in the store ({scanned} scanned, all corrupt or torn)"
            ),
        }
    }
}

impl Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_specifics() {
        let e = StoreError::CorruptShard {
            path: "ckpt-1/shard-00000.bin".into(),
            expected_crc32: 0xDEAD_BEEF,
            actual_crc32: 0x0BAD_F00D,
        };
        let s = e.to_string();
        assert!(s.contains("ckpt-1/shard-00000.bin"));
        assert!(s.contains("0xdeadbeef"));
        assert!(s.contains("0x0badf00d"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
