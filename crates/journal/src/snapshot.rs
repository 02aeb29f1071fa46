//! Durable snapshots of serialized service state.
//!
//! A snapshot file (`snap-<events_applied:010>.snap`) is one CRC frame
//! wrapping an opaque payload (the service serializes its state as JSON).
//! The store is deliberately ignorant of the payload's meaning; what it
//! owns is *validity*:
//!
//! * a snapshot is written to a temp file, synced, then renamed into
//!   place, so a kill mid-write leaves either no snapshot or a whole one —
//!   and even a torn rename survivor is caught by the CRC;
//! * on recovery, [`SnapshotStore::newest_valid`] returns the newest
//!   snapshot whose CRC checks out **and** whose `events_applied` does not
//!   exceed the number of events that survived in the journal — a
//!   snapshot "from the future" (its journal suffix was torn away) is
//!   useless, because replay could not reconcile it, so it is skipped in
//!   favour of an older one or a full replay from the log's beginning.

use crate::journal::JournalError;
use crate::wire::{read_frame, write_frame};
use std::path::{Path, PathBuf};

/// A store of durable state snapshots in one directory.
pub struct SnapshotStore {
    dir: PathBuf,
}

fn snapshot_name(events_applied: u64) -> String {
    format!("snap-{events_applied:010}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

impl SnapshotStore {
    /// Opens (creating if necessary) the store in `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a snapshot covering the first `events_applied` journal
    /// events. Atomic: temp file + fsync + rename.
    pub fn write(&self, events_applied: u64, payload: &[u8]) -> Result<(), JournalError> {
        let mut framed = Vec::with_capacity(payload.len() + crate::wire::FRAME_HEADER);
        write_frame(&mut framed, payload);
        let tmp = self
            .dir
            .join(format!(".{}.tmp", snapshot_name(events_applied)));
        let target = self.dir.join(snapshot_name(events_applied));
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&framed)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &target)?;
        Ok(())
    }

    /// All snapshot event-counts on disk, ascending (valid or not).
    pub fn list(&self) -> Result<Vec<u64>, JournalError> {
        let mut counts = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(count) = parse_snapshot_name(name) {
                counts.push(count);
            }
        }
        // Deterministic order regardless of directory iteration order.
        counts.sort_unstable();
        Ok(counts)
    }

    /// The newest snapshot that is internally valid (CRC) and covers at
    /// most `max_events` journal events. Returns `(events_applied,
    /// payload)`. Corrupt or too-new snapshots are skipped, not errors.
    pub fn newest_valid(&self, max_events: u64) -> Result<Option<(u64, Vec<u8>)>, JournalError> {
        for count in self.list()?.into_iter().rev() {
            if count > max_events {
                continue;
            }
            let path = self.dir.join(snapshot_name(count));
            let bytes = std::fs::read(&path)?;
            match read_frame(&bytes, 0) {
                Ok(Some(frame)) if frame.end == bytes.len() => {
                    return Ok(Some((count, frame.payload.to_vec())));
                }
                // Torn, trailing garbage, or oversized: fall through to an
                // older snapshot.
                _ => continue,
            }
        }
        Ok(None)
    }

    /// Deletes all but the newest `keep` snapshots.
    pub fn prune(&self, keep: usize) -> Result<(), JournalError> {
        let counts = self.list()?;
        if counts.len() <= keep {
            return Ok(());
        }
        for count in &counts[..counts.len() - keep] {
            std::fs::remove_file(self.dir.join(snapshot_name(*count)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    fn tmp_dir(tag: &str) -> TestDir {
        TestDir::new("snapshot", tag)
    }

    #[test]
    fn write_then_read_newest() {
        let dir = tmp_dir("rw");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(5, b"state-at-5").unwrap();
        store.write(12, b"state-at-12").unwrap();
        let (count, payload) = store.newest_valid(u64::MAX).unwrap().unwrap();
        assert_eq!((count, payload.as_slice()), (12, &b"state-at-12"[..]));
    }

    #[test]
    fn future_snapshots_are_skipped() {
        let dir = tmp_dir("future");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(5, b"old").unwrap();
        store.write(12, b"new").unwrap();
        // Journal only kept 8 events: the 12-event snapshot is from a
        // future that no longer exists.
        let (count, payload) = store.newest_valid(8).unwrap().unwrap();
        assert_eq!((count, payload.as_slice()), (5, &b"old"[..]));
        assert!(store.newest_valid(3).unwrap().is_none());
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older() {
        let dir = tmp_dir("corrupt");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(5, b"good").unwrap();
        store.write(9, b"soon-corrupt").unwrap();
        let path = dir.join(snapshot_name(9));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (count, _) = store.newest_valid(u64::MAX).unwrap().unwrap();
        assert_eq!(count, 5);
    }

    #[test]
    fn truncated_snapshot_is_invalid_at_every_cut() {
        let dir = tmp_dir("cuts");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(7, b"the-only-state").unwrap();
        let path = dir.join(snapshot_name(7));
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                store.newest_valid(u64::MAX).unwrap().is_none(),
                "cut at {cut} should invalidate the snapshot"
            );
        }
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp_dir("prune");
        let store = SnapshotStore::open(&dir).unwrap();
        for count in [3, 6, 9, 12] {
            store.write(count, b"s").unwrap();
        }
        store.prune(2).unwrap();
        assert_eq!(store.list().unwrap(), vec![9, 12]);
    }
}
