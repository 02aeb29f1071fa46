//! The append-only, segmented event journal.
//!
//! A journal is a directory of segment files named
//! `journal-<first_seq:010>.seg`, each a sequence of CRC-framed payloads
//! (see [`wire`](crate::wire)). Appends go to the newest segment; when it
//! exceeds the configured byte budget a new segment is started, so old
//! history can later be archived or dropped wholesale once a snapshot
//! covers it.
//!
//! ## Recovery contract
//!
//! [`Journal::open`] replays the directory into an in-memory list of event
//! payloads and is *tolerant of torn tails*: the first undecodable frame —
//! wherever it occurs — ends the recovered prefix. The torn segment is
//! truncated back to its valid prefix and any later segments are deleted,
//! so the journal on disk always equals exactly what recovery returned and
//! the next append continues from there. This is the write-ahead-log
//! guarantee the service builds on: an event either survives whole or the
//! journal behaves as if it (and everything after it) was never written —
//! and because the service only acknowledges a request *after* its event
//! is written and synced, an acknowledged request is always in the
//! surviving prefix of any crash the sync survived.

use crate::wire::{scan_frames, write_frame};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal configuration.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Rotate to a new segment once the current one reaches this many
    /// bytes. The default keeps segments comfortably memory-mappable while
    /// exercising rotation in any non-trivial run.
    pub segment_bytes: u64,
    /// Whether `append` syncs the segment to disk before returning. On is
    /// the write-ahead-log contract; off is for replay/throughput
    /// measurement only.
    pub sync_on_append: bool,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 * 1024 * 1024,
            sync_on_append: true,
        }
    }
}

/// An I/O or consistency failure in the journal layer.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The directory contains segment files whose names do not parse or
    /// whose first-sequence numbers do not line up contiguously.
    Inconsistent(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::Inconsistent(m) => write!(f, "journal inconsistent: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What [`Journal::open`] recovered from disk.
pub struct Recovered {
    /// The journal, positioned to append after the surviving prefix.
    pub journal: Journal,
    /// Every surviving event payload, in append order.
    pub events: Vec<Vec<u8>>,
    /// Number of bytes discarded from a torn tail (0 on a clean open).
    pub truncated_bytes: u64,
    /// Number of whole segments deleted because they followed the tear.
    pub dropped_segments: usize,
}

/// The append handle over a journal directory.
pub struct Journal {
    dir: PathBuf,
    cfg: JournalConfig,
    /// Sequence number of the next event to append (= events recovered +
    /// events appended so far).
    next_seq: u64,
    /// Open handle to the active segment, positioned at its end.
    active: File,
    /// Bytes currently in the active segment.
    active_len: u64,
}

fn segment_name(first_seq: u64) -> String {
    format!("journal-{first_seq:010}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("journal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(first_seq) = parse_segment_name(name) {
            segments.push((first_seq, entry.path()));
        }
    }
    // BTree-style ordering by construction: sort by first sequence number,
    // never by directory iteration order (which the OS does not define).
    segments.sort_by_key(|(seq, _)| *seq);
    Ok(segments)
}

impl Journal {
    /// Opens (creating if necessary) the journal in `dir` and recovers its
    /// surviving event prefix. See the [module docs](self) for the
    /// truncation contract.
    pub fn open(dir: impl Into<PathBuf>, cfg: JournalConfig) -> Result<Recovered, JournalError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let segments = list_segments(&dir)?;

        let mut events: Vec<Vec<u8>> = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut dropped_segments = 0usize;
        // (path, valid_len) of the segment the next append goes to.
        let mut active: Option<(PathBuf, u64)> = None;

        let mut torn = false;
        for (idx, (first_seq, path)) in segments.iter().enumerate() {
            if torn {
                // Everything after a tear is unreachable history: delete it
                // so disk state equals recovered state.
                let len = std::fs::metadata(path)?.len();
                truncated_bytes += len;
                dropped_segments += 1;
                std::fs::remove_file(path)?;
                continue;
            }
            if *first_seq != events.len() as u64 {
                return Err(JournalError::Inconsistent(format!(
                    "segment {} starts at seq {first_seq}, expected {}",
                    path.display(),
                    events.len()
                )));
            }
            let bytes = std::fs::read(path)?;
            let (payloads, valid_end) = scan_frames(&bytes);
            events.extend(payloads.iter().map(|p| p.to_vec()));
            if valid_end < bytes.len() {
                torn = true;
                truncated_bytes += (bytes.len() - valid_end) as u64;
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(valid_end as u64)?;
                file.sync_all()?;
            }
            let is_last_surviving = torn || idx == segments.len() - 1;
            if is_last_surviving {
                active = Some((path.clone(), valid_end as u64));
            }
        }

        let next_seq = events.len() as u64;
        let (active_path, active_len) = match active {
            Some(a) => a,
            None => (dir.join(segment_name(0)), 0),
        };
        let active_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;

        Ok(Recovered {
            journal: Journal {
                dir,
                cfg,
                next_seq,
                active: active_file,
                active_len,
            },
            events,
            truncated_bytes,
            dropped_segments,
        })
    }

    /// Appends one event payload, returning its sequence number.
    ///
    /// When [`JournalConfig::sync_on_append`] is set (the default) the
    /// frame is flushed and fsynced before this returns — the caller may
    /// acknowledge the event to the outside world once this call comes
    /// back.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, JournalError> {
        self.append_all([payload])
    }

    /// Appends event payloads as one group, returning the sequence number
    /// of the first.
    ///
    /// The frames land exactly where one [`append`](Self::append) per
    /// payload would put them, segment rotation included, and the group is
    /// durable when this returns. With [`JournalConfig::sync_on_append`]
    /// it costs one sync per segment it writes to rather than one per
    /// event.
    pub(crate) fn append_all<'p>(
        &mut self,
        payloads: impl IntoIterator<Item = &'p [u8]>,
    ) -> Result<u64, JournalError> {
        let first = self.next_seq;
        let mut group = Vec::new();
        let mut events = 0;
        for payload in payloads {
            if self.active_len + group.len() as u64 >= self.cfg.segment_bytes {
                self.commit(&mut group, &mut events)?;
                self.rotate()?;
            }
            write_frame(&mut group, payload);
            events += 1;
        }
        self.commit(&mut group, &mut events)?;
        Ok(first)
    }

    /// Writes `group` (`events` whole frames) to the active segment and
    /// syncs it if the config says so, then counts it.
    fn commit(&mut self, group: &mut Vec<u8>, events: &mut u64) -> Result<(), JournalError> {
        if group.is_empty() {
            return Ok(());
        }
        self.active.write_all(group)?;
        if self.cfg.sync_on_append {
            self.active.sync_data()?;
        }
        self.active_len += group.len() as u64;
        self.next_seq += *events;
        group.clear();
        *events = 0;
        Ok(())
    }

    /// Forces any buffered appends to disk.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.active.sync_data()?;
        Ok(())
    }

    /// Sequence number the next append will receive (= events on disk).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Segment files currently on disk, ascending by first sequence.
    pub fn segment_paths(&self) -> Result<Vec<PathBuf>, JournalError> {
        Ok(list_segments(&self.dir)?
            .into_iter()
            .map(|(_, p)| p)
            .collect())
    }

    fn rotate(&mut self) -> Result<(), JournalError> {
        self.active.sync_data()?;
        let first_seq = self.next_seq;
        let path = self.dir.join(segment_name(first_seq));
        self.active = OpenOptions::new().create(true).append(true).open(path)?;
        self.active_len = 0;
        Ok(())
    }

    /// Total journal size in bytes across all segments.
    pub fn size_bytes(&self) -> Result<u64, JournalError> {
        let mut total = 0;
        for path in self.segment_paths()? {
            total += std::fs::metadata(path)?.len();
        }
        Ok(total)
    }
}

/// Truncates the journal directory's *logical byte stream* at `offset`,
/// simulating a crash that lost everything after that point.
///
/// The stream is the concatenation of all segment files in sequence order.
/// Segments entirely past the offset are deleted; the segment containing
/// it is cut. Used by the crash-recovery tests and the kill-at-offset CI
/// matrix; a real kill can only lose an *unsynced suffix*, so testing
/// arbitrary prefix cuts is strictly stronger.
pub fn truncate_stream_at(dir: &Path, offset: u64) -> Result<(), JournalError> {
    let mut remaining = offset;
    for (_, path) in list_segments(dir)? {
        let len = std::fs::metadata(&path)?.len();
        if remaining >= len {
            remaining -= len;
            continue;
        }
        if remaining == 0 {
            std::fs::remove_file(&path)?;
        } else {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(remaining)?;
            file.sync_all()?;
            remaining = 0;
        }
    }
    Ok(())
}

/// Total logical stream length of the journal in `dir` (for choosing
/// truncation offsets).
pub fn stream_len(dir: &Path) -> Result<u64, JournalError> {
    let mut total = 0;
    for (_, path) in list_segments(dir)? {
        total += std::fs::metadata(&path)?.len();
    }
    Ok(total)
}

/// Reads the raw logical stream (for tests that corrupt specific bytes).
pub fn read_stream(dir: &Path) -> Result<Vec<u8>, JournalError> {
    let mut out = Vec::new();
    for (_, path) in list_segments(dir)? {
        let mut f = File::open(&path)?;
        f.seek(SeekFrom::Start(0))?;
        f.read_to_end(&mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    fn tmp_dir(tag: &str) -> TestDir {
        TestDir::new("journal", tag)
    }

    fn open(dir: &Path, segment_bytes: u64) -> Recovered {
        Journal::open(
            dir,
            JournalConfig {
                segment_bytes,
                sync_on_append: false,
            },
        )
        .expect("journal opens")
    }

    #[test]
    fn append_then_reopen_recovers_everything() {
        let dir = tmp_dir("reopen");
        {
            let mut j = open(&dir, 1 << 20).journal;
            for i in 0..10u32 {
                j.append(format!("event-{i}").as_bytes()).unwrap();
            }
            j.sync().unwrap();
        }
        let rec = open(&dir, 1 << 20);
        assert_eq!(rec.events.len(), 10);
        assert_eq!(rec.events[7], b"event-7");
        assert_eq!(rec.journal.next_seq(), 10);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn rotation_splits_segments_and_recovery_reads_across_them() {
        let dir = tmp_dir("rotate");
        {
            // Tiny budget: every append after the first rotates.
            let mut j = open(&dir, 16).journal;
            for i in 0..8u32 {
                j.append(format!("payload-{i}").as_bytes()).unwrap();
            }
            j.sync().unwrap();
        }
        let rec = open(&dir, 16);
        assert!(
            rec.journal.segment_paths().unwrap().len() > 1,
            "expected multiple segments"
        );
        assert_eq!(rec.events.len(), 8);
        assert_eq!(rec.events[5], b"payload-5");
    }

    #[test]
    fn a_group_lands_exactly_where_single_appends_would() {
        let payloads: Vec<Vec<u8>> = (0..9u32)
            .map(|i| format!("grouped-{i}-{}", "y".repeat(i as usize)).into_bytes())
            .collect();
        let segments = |dir: &Path| -> Vec<(String, Vec<u8>)> {
            list_segments(dir)
                .unwrap()
                .into_iter()
                .map(|(_, p)| {
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&p).unwrap())
                })
                .collect()
        };
        // A 40-byte budget makes the group cross several segment rotations.
        let (one, all) = (tmp_dir("group-one"), tmp_dir("group-all"));
        let mut single = open(&one, 40).journal;
        let mut group = open(&all, 40).journal;
        single.append(b"before").unwrap();
        group.append(b"before").unwrap();
        for p in &payloads {
            single.append(p).unwrap();
        }
        let first = group.append_all(payloads.iter().map(Vec::as_slice));
        assert_eq!(first.unwrap(), 1);
        assert_eq!(group.append_all([]).unwrap(), 10);
        assert_eq!(group.next_seq(), single.next_seq());
        assert!(segments(&all).len() > 2, "expected the group to rotate");
        assert_eq!(segments(&all), segments(&one));
        assert_eq!(open(&all, 40).events.len(), 10);
    }

    #[test]
    fn truncation_at_any_offset_recovers_a_prefix_and_rewrites_disk() {
        let dir = tmp_dir("truncate");
        let reference: Vec<Vec<u8>> = (0..6u32)
            .map(|i| format!("evt-{i}-{}", "x".repeat(i as usize)).into_bytes())
            .collect();
        {
            let mut j = open(&dir, 40).journal;
            for e in &reference {
                j.append(e).unwrap();
            }
            j.sync().unwrap();
        }
        let total = stream_len(&dir).unwrap();
        for cut in (0..=total).step_by(3) {
            let work = tmp_dir("truncate-work");
            copy_dir(&dir, &work);
            truncate_stream_at(&work, cut).unwrap();
            let rec = open(&work, 40);
            // The recovered events are a prefix of the reference.
            assert!(rec.events.len() <= reference.len());
            assert_eq!(rec.events[..], reference[..rec.events.len()]);
            // Disk now equals the recovered prefix: a second open is clean.
            let again = open(&work, 40);
            assert_eq!(again.events, rec.events);
            assert_eq!(again.truncated_bytes, 0);
            // And the journal keeps working after recovery.
            let mut j = again.journal;
            let seq = j.append(b"after-recovery").unwrap();
            assert_eq!(seq, rec.events.len() as u64);
        }
    }

    #[test]
    fn bit_flip_mid_stream_truncates_from_the_flip() {
        let dir = tmp_dir("bitflip");
        {
            let mut j = open(&dir, 1 << 20).journal;
            for i in 0..5u32 {
                j.append(format!("record-{i}").as_bytes()).unwrap();
            }
            j.sync().unwrap();
        }
        // Corrupt a byte inside the third frame's payload.
        let path = &list_segments(&dir).unwrap()[0].1;
        let mut bytes = std::fs::read(path).unwrap();
        let frame = crate::wire::FRAME_HEADER + b"record-0".len();
        bytes[2 * frame + crate::wire::FRAME_HEADER + 2] ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
        let rec = open(&dir, 1 << 20);
        assert_eq!(rec.events.len(), 2);
        assert!(rec.truncated_bytes > 0);
    }

    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}
