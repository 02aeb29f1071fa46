//! A simulated filesystem of sized, content-hashed files.
//!
//! Flux's pairing phase synchronises the home device's frameworks,
//! libraries, APKs and app data directories to the guest (§3.1), using
//! rsync with `--link-dest` so files identical to ones already on the
//! guest's system partition become hard links. The model here tracks per-
//! file size and a content hash — exactly the information that sync
//! decision needs — plus hard-link identity so the pairing-cost experiment
//! (§4) can report "after hard linking" numbers.
//!
//! Every device of one model and Android version carries the same
//! `/system` (§4), so a filesystem can mount a shared, immutable [`Tree`]
//! at a directory instead of holding its own copy of every entry. Reads
//! see mounted entries exactly as private ones; the first change at or
//! under a mount point copies that tree into the filesystem's private
//! entries (copy-on-write per mount).

use crate::rsync::StoredSync;
use flux_simcore::ByteSize;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::iter::Peekable;
use std::ops::Bound;
use std::sync::{Arc, Mutex};

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

/// The part of `path` at or under `root`, matching whole path components:
/// `Some("")` for `root` itself, `Some("/…")` for a path below it, and
/// `None` otherwise — in particular for a string sibling such as
/// `{root}y` or `{root}.bak`.
pub(crate) fn under<'p>(path: &'p str, root: &str) -> Option<&'p str> {
    path.strip_prefix(root)
        .filter(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// The entries of `files` whose path starts with `prefix`, in path order.
/// They form one contiguous run of the sorted map that starts at `prefix`
/// itself, so this walks only that run.
fn with_prefix<'m: 'p, 'p>(
    files: &'m BTreeMap<String, FileEntry>,
    prefix: &'p str,
) -> impl Iterator<Item = (&'m String, &'m FileEntry)> + 'p {
    files
        .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(p, _)| p.starts_with(prefix))
}

/// An immutable set of files that filesystems share by mounting it.
///
/// Keys are paths relative to the mount point: `""` is the mount point
/// itself and `"/lib/libc.so"` a file below it. Trees are only built by
/// [`SimFs::tree_at`] and never change afterwards. A tree also keeps the
/// results of syncs made from it, so a later sync of the same kind mounts
/// the stored mirror instead of re-deciding every file (see
/// [`crate::rsync::sync`]).
#[derive(Debug)]
pub struct Tree {
    files: BTreeMap<String, FileEntry>,
    pub(crate) synced: Mutex<Vec<StoredSync>>,
}

impl Tree {
    pub(crate) fn len(&self) -> usize {
        self.files.len()
    }

    /// The entries whose path, with the tree mounted at `point`, starts
    /// with `prefix`. Every such path starts with `point`, so a prefix of
    /// `point` takes the whole tree, and a longer prefix must extend
    /// `point` and then selects a run of the tree's own keys.
    fn matching<'t: 'p, 'p>(
        &'t self,
        point: &str,
        prefix: &'p str,
    ) -> impl Iterator<Item = (&'t String, &'t FileEntry)> + 'p {
        let rel = if point.starts_with(prefix) {
            Some("")
        } else {
            prefix.strip_prefix(point)
        };
        rel.into_iter()
            .flat_map(move |rel| with_prefix(&self.files, rel))
    }
}

/// A path and its entry, as [`SimFs::list`] yields them: private paths
/// are borrowed, mounted ones are built from mount point and tree key.
type Listed<'s> = (Cow<'s, str>, &'s FileEntry);

/// A filesystem keyed by absolute path.
///
/// # Examples
///
/// ```
/// use flux_fs::{Content, SimFs};
/// use flux_simcore::ByteSize;
/// use std::sync::Arc;
///
/// let mut fs = SimFs::new();
/// fs.write("/system/framework/framework.jar", Content::new(ByteSize::from_mib(6), 77));
/// assert_eq!(fs.total_size("/system").as_mib_f64(), 6.0);
///
/// // Another filesystem shares the same /system without copying it.
/// let image = Arc::new(fs.tree_at("/system"));
/// let mut other = SimFs::new();
/// other.mount("/system", Arc::clone(&image));
/// assert!(other.exists("/system/framework/framework.jar"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    /// Entries this filesystem holds itself. None lies at or under a
    /// mount point.
    files: BTreeMap<String, FileEntry>,
    /// Shared trees by mount point. No mount point lies under another.
    mounts: BTreeMap<String, Arc<Tree>>,
}

impl SimFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates or replaces a regular file.
    pub fn write(&mut self, path: &str, content: Content) {
        self.unshare(path);
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
            .get(target)
            .ok_or_else(|| FsError::BadLinkTarget(target.to_owned()))?
            .content;
        self.unshare(path);
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
        if !self.exists(path) {
            return Err(FsError::NotFound(path.to_owned()));
        }
        self.unshare(path);
        self.files
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_owned()))
    }

    /// Removes every file whose path starts with `prefix`, returning how
    /// many went. A mount all of whose paths match is dropped whole.
    pub fn remove_tree(&mut self, prefix: &str) -> usize {
        let mut removed = 0;
        self.mounts.retain(|point, tree| {
            let whole = point.starts_with(prefix);
            if whole {
                removed += tree.len();
            }
            !whole
        });
        let partial: Vec<String> = self
            .mounts
            .iter()
            .filter(|(point, tree)| tree.matching(point, prefix).next().is_some())
            .map(|(point, _)| point.clone())
            .collect();
        for point in partial {
            self.unshare(&point);
        }
        let before = self.files.len();
        self.files.retain(|p, _| !p.starts_with(prefix));
        removed + before - self.files.len()
    }

    /// Mounts `tree` at `point`, replacing everything that lay at or under
    /// it. Nothing is copied: every filesystem that mounts one tree shares
    /// its entries until it changes something at or under `point`.
    pub fn mount(&mut self, point: &str, tree: Arc<Tree>) {
        self.mounts.retain(|p, _| under(p, point).is_none());
        // An enclosing mount is copied out, so mounts never nest.
        self.unshare(point);
        self.files.retain(|p, _| under(p, point).is_none());
        self.mounts.insert(point.to_owned(), tree);
    }

    /// The tree mounted exactly at `point`, if any.
    pub fn mounted_at(&self, point: &str) -> Option<&Arc<Tree>> {
        self.mounts.get(point)
    }

    /// Copies everything at or under `root` into a new tree keyed relative
    /// to `root`, so mounting it at `root` of another filesystem lists the
    /// same entries there.
    pub fn tree_at(&self, root: &str) -> Tree {
        let files = self
            .list_under(root)
            .map(|(path, entry)| {
                let rel = under(&path, root).expect("list_under() stays under root");
                (rel.to_owned(), entry.clone())
            })
            .collect();
        Tree {
            files,
            synced: Mutex::default(),
        }
    }

    /// The mount holding `path`, with `path` relative to its point.
    fn mount_of<'p>(&self, path: &'p str) -> Option<(&str, &Tree, &'p str)> {
        self.mounts
            .iter()
            .find_map(|(point, tree)| under(path, point).map(|rel| (point.as_str(), &**tree, rel)))
    }

    /// Copies the tree mounted over `path`, if any, into the private
    /// entries, so `path` can change without touching the shared tree.
    fn unshare(&mut self, path: &str) {
        let Some(point) = self.mount_of(path).map(|(point, ..)| point.to_owned()) else {
            return;
        };
        let tree = self.mounts.remove(&point).expect("mount_of() found it");
        for (rel, entry) in &tree.files {
            self.files.insert(format!("{point}{rel}"), entry.clone());
        }
    }

    /// Looks up a file.
    pub fn get(&self, path: &str) -> Option<&FileEntry> {
        match self.mount_of(path) {
            Some((_, tree, rel)) => tree.files.get(rel),
            None => self.files.get(path),
        }
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.get(path).is_some()
    }

    /// All `(path, entry)` pairs whose path starts with `prefix`, in path
    /// order, mounted and private alike. Mounted paths are built on the
    /// way, so they come back owned.
    pub fn list<'s: 'p, 'p>(
        &'s self,
        prefix: &'p str,
    ) -> impl Iterator<Item = (Cow<'s, str>, &'s FileEntry)> + 'p {
        let mut mounted: Vec<Listed<'s>> = Vec::new();
        for (point, tree) in &self.mounts {
            mounted.extend(
                tree.matching(point, prefix)
                    .map(|(rel, e)| (Cow::Owned(format!("{point}{rel}")), e)),
            );
        }
        // Mount points never nest, but one mount's paths can still fall
        // between another's: `/a-b` sorts between `/a` and `/a/x`.
        mounted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let private = with_prefix(&self.files, prefix).map(|(p, e)| (Cow::Borrowed(p.as_str()), e));
        Merge {
            a: private.peekable(),
            b: mounted.into_iter().peekable(),
        }
    }

    /// All `(path, entry)` pairs at or under `root`, in path order. Unlike
    /// [`SimFs::list`], this matches whole path components: `root` itself
    /// or `root/…`, never a string sibling such as `{root}y`.
    pub fn list_under<'s: 'p, 'p>(
        &'s self,
        root: &'p str,
    ) -> impl Iterator<Item = (Cow<'s, str>, &'s FileEntry)> + 'p {
        self.list(root)
            .filter(move |(path, _)| under(path, root).is_some())
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

    /// Finds the first path at or under `root` whose content (size *and*
    /// hash) equals `content`. This is the `--link-dest` candidate search;
    /// rsync compares sizes before checksums, so identity means both.
    pub fn find_identical(&self, root: &str, content: Content) -> Option<Cow<'_, str>> {
        self.list_under(root)
            .find(|(_, e)| e.content == content)
            .map(|(p, _)| p)
    }

    /// Total number of files.
    pub fn len(&self) -> usize {
        self.files.len() + self.mounts.values().map(|t| t.len()).sum::<usize>()
    }

    /// Whether the filesystem is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A filesystem holding exactly `entries`, every one private.
impl FromIterator<(String, FileEntry)> for SimFs {
    fn from_iter<I: IntoIterator<Item = (String, FileEntry)>>(entries: I) -> Self {
        Self {
            files: entries.into_iter().collect(),
            mounts: BTreeMap::new(),
        }
    }
}

/// Two path-ordered runs merged into one. No path is in both: private
/// entries never lie under a mount point.
struct Merge<'s, A: Iterator<Item = Listed<'s>>, B: Iterator<Item = Listed<'s>>> {
    a: Peekable<A>,
    b: Peekable<B>,
}

impl<'s, A, B> Iterator for Merge<'s, A, B>
where
    A: Iterator<Item = Listed<'s>>,
    B: Iterator<Item = Listed<'s>>,
{
    type Item = Listed<'s>;

    fn next(&mut self) -> Option<Listed<'s>> {
        let a_first = match (self.a.peek(), self.b.peek()) {
            (Some(a), Some(b)) => a.0 < b.0,
            (a, _) => a.is_some(),
        };
        if a_first {
            self.a.next()
        } else {
            self.b.next()
        }
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
    fn find_identical_locates_link_dest_candidates() {
        let mut fs = SimFs::new();
        fs.write("/system/framework/services.jar", c(5, 42));
        fs.write("/system.bak/services.jar", c(5, 43));
        assert_eq!(
            fs.find_identical("/system", c(5, 42)).as_deref(),
            Some("/system/framework/services.jar")
        );
        // Same hash, other size: not identical.
        assert_eq!(fs.find_identical("/system", c(6, 42)), None);
        assert_eq!(fs.find_identical("/data", c(5, 42)), None);
        // `/system.bak` is a string sibling, not a file under `/system`.
        assert_eq!(fs.find_identical("/system", c(5, 43)), None);
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

    #[test]
    fn a_write_under_a_mount_copies_it_and_leaves_the_tree_alone() {
        let mut image = SimFs::new();
        image.write("/system/lib/libc.so", c(1, 1));
        image.write("/system/lib/libm.so", c(2, 2));
        let tree = Arc::new(image.tree_at("/system"));
        let (mut a, mut b) = (SimFs::new(), SimFs::new());
        a.mount("/system", Arc::clone(&tree));
        b.mount("/system", Arc::clone(&tree));
        a.write("/system.bak", c(3, 3));
        assert!(a.mounted_at("/system").is_some(), "a sibling is not under");

        a.write("/system/lib/libc.so", c(1, 9));
        assert!(a.mounted_at("/system").is_none());
        assert_eq!(a.get("/system/lib/libc.so").unwrap().content, c(1, 9));
        assert_eq!(a.get("/system/lib/libm.so").unwrap().content, c(2, 2));
        assert_eq!(b.get("/system/lib/libc.so").unwrap().content, c(1, 1));
        assert_eq!(tree.len(), 2);
        let names: Vec<String> = a.list("/sys").map(|(p, _)| p.into_owned()).collect();
        assert_eq!(
            names,
            ["/system.bak", "/system/lib/libc.so", "/system/lib/libm.so"]
        );
    }
}
