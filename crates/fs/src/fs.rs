//! A simulated filesystem of sized, content-hashed files.
//!
//! Flux's pairing phase synchronises the home device's frameworks,
//! libraries, APKs and app data directories to the guest (§3.1), using
//! rsync with `--link-dest` so files identical to ones already on the
//! guest's system partition become hard links. The model here tracks per-
//! file size and a content hash — exactly the information that sync
//! decision needs — plus hard-link identity so the pairing-cost experiment
//! (§4) can report "after hard linking" numbers.

use flux_simcore::ByteSize;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// Content identity of a file: size plus a collision-free hash stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Content {
    /// File size.
    pub size: ByteSize,
    /// Content hash. Files with equal hashes are byte-identical.
    pub hash: u64,
}

impl Content {
    /// Creates content with `size` bytes and identity `hash`.
    pub fn new(size: ByteSize, hash: u64) -> Self {
        Self { size, hash }
    }
}

/// One file entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Content identity.
    pub content: Content,
    /// If the file is a hard link, the path it links to.
    pub link_target: Option<String>,
}

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound(String),
    /// Link target does not exist.
    BadLinkTarget(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::BadLinkTarget(p) => write!(f, "hard-link target missing: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// A flat-namespace filesystem keyed by absolute path.
///
/// # Examples
///
/// ```
/// use flux_fs::{Content, SimFs};
/// use flux_simcore::ByteSize;
///
/// let mut fs = SimFs::new();
/// fs.write("/system/framework/framework.jar", Content::new(ByteSize::from_mib(6), 77));
/// assert_eq!(fs.total_size("/system").as_mib_f64(), 6.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    files: BTreeMap<String, FileEntry>,
}

impl SimFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates or replaces a regular file.
    pub fn write(&mut self, path: &str, content: Content) {
        self.files.insert(
            path.to_owned(),
            FileEntry {
                content,
                link_target: None,
            },
        );
    }

    /// Creates a hard link at `path` to `target`. The link shares the
    /// target's content and occupies no additional space.
    pub fn hard_link(&mut self, path: &str, target: &str) -> Result<(), FsError> {
        let content = self
            .files
            .get(target)
            .ok_or_else(|| FsError::BadLinkTarget(target.to_owned()))?
            .content;
        self.files.insert(
            path.to_owned(),
            FileEntry {
                content,
                link_target: Some(target.to_owned()),
            },
        );
        Ok(())
    }

    /// Removes a file.
    pub fn remove(&mut self, path: &str) -> Result<FileEntry, FsError> {
        self.files
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_owned()))
    }

    /// Removes everything under `prefix`, returning how many entries went.
    pub fn remove_tree(&mut self, prefix: &str) -> usize {
        let before = self.files.len();
        self.files.retain(|p, _| !p.starts_with(prefix));
        before - self.files.len()
    }

    /// Looks up a file.
    pub fn get(&self, path: &str) -> Option<&FileEntry> {
        self.files.get(path)
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// All `(path, entry)` pairs whose path starts with `prefix`, in path
    /// order. The paths sharing a prefix are one contiguous run of the
    /// sorted map, starting at `prefix` itself, so this walks only that
    /// run.
    pub fn list<'s: 'p, 'p>(
        &'s self,
        prefix: &'p str,
    ) -> impl Iterator<Item = (&'s str, &'s FileEntry)> + 'p {
        self.files
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(p, _)| p.starts_with(prefix))
            .map(|(p, e)| (p.as_str(), e))
    }

    /// Number of files under `prefix`.
    pub fn count(&self, prefix: &str) -> usize {
        self.list(prefix).count()
    }

    /// Total *apparent* size under `prefix` (hard links counted at full
    /// size, as `du --apparent-size` would).
    pub fn total_size(&self, prefix: &str) -> ByteSize {
        self.list(prefix).map(|(_, e)| e.content.size).sum()
    }

    /// Total *allocated* size under `prefix`: hard links occupy no space.
    pub fn allocated_size(&self, prefix: &str) -> ByteSize {
        self.list(prefix)
            .filter(|(_, e)| e.link_target.is_none())
            .map(|(_, e)| e.content.size)
            .sum()
    }

    /// Finds a path under `prefix` whose content hash equals `hash`.
    /// This is the `--link-dest` candidate search.
    pub fn find_by_hash(&self, prefix: &str, hash: u64) -> Option<&str> {
        self.list(prefix)
            .find(|(_, e)| e.content.hash == hash)
            .map(|(p, _)| p)
    }

    /// Finds a path under `prefix` whose content (size *and* hash) equals
    /// `content` — rsync compares sizes before checksums, so identity means
    /// both.
    pub fn find_identical(&self, prefix: &str, content: Content) -> Option<&str> {
        self.list(prefix)
            .find(|(_, e)| e.content == content)
            .map(|(p, _)| p)
    }

    /// Total number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the filesystem is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(mib: u64, hash: u64) -> Content {
        Content::new(ByteSize::from_mib(mib), hash)
    }

    #[test]
    fn write_list_and_sizes() {
        let mut fs = SimFs::new();
        fs.write("/system/lib/libc.so", c(1, 1));
        fs.write("/system/lib/libm.so", c(2, 2));
        fs.write("/data/app/x.apk", c(10, 3));
        assert_eq!(fs.count("/system"), 2);
        assert_eq!(fs.total_size("/system"), ByteSize::from_mib(3));
        assert_eq!(fs.total_size("/"), ByteSize::from_mib(13));
    }

    #[test]
    fn hard_links_share_content_and_occupy_no_space() {
        let mut fs = SimFs::new();
        fs.write("/system/lib/libc.so", c(4, 9));
        fs.hard_link("/data/flux/home/lib/libc.so", "/system/lib/libc.so")
            .unwrap();
        assert_eq!(fs.total_size("/data/flux"), ByteSize::from_mib(4));
        assert_eq!(fs.allocated_size("/data/flux"), ByteSize::ZERO);
        assert_eq!(
            fs.get("/data/flux/home/lib/libc.so").unwrap().content.hash,
            9
        );
    }

    #[test]
    fn hard_link_to_missing_target_fails() {
        let mut fs = SimFs::new();
        assert!(matches!(
            fs.hard_link("/a", "/nope"),
            Err(FsError::BadLinkTarget(_))
        ));
    }

    #[test]
    fn find_by_hash_locates_link_dest_candidates() {
        let mut fs = SimFs::new();
        fs.write("/system/framework/services.jar", c(5, 42));
        assert_eq!(
            fs.find_by_hash("/system", 42),
            Some("/system/framework/services.jar")
        );
        assert_eq!(fs.find_by_hash("/system", 43), None);
        assert_eq!(fs.find_by_hash("/data", 42), None);
    }

    #[test]
    fn remove_tree_clears_prefix() {
        let mut fs = SimFs::new();
        fs.write("/data/data/com.x/files/a", c(1, 1));
        fs.write("/data/data/com.x/cache/b", c(1, 2));
        fs.write("/data/data/com.y/files/a", c(1, 3));
        assert_eq!(fs.remove_tree("/data/data/com.x"), 2);
        assert_eq!(fs.len(), 1);
        assert!(matches!(
            fs.remove("/data/data/com.x/files/a"),
            Err(FsError::NotFound(_))
        ));
    }
}
