//! An rsync-style delta synchroniser with `--link-dest` support.
//!
//! Flux pairs devices by rsyncing the home device's core frameworks and
//! libraries to a custom location on the guest's data partition, using
//! `--link-dest` to hard-link files identical to the guest's own system
//! partition (§3.1). The same machinery verifies and re-syncs the APK and
//! app data directories before each migration. This module reproduces
//! rsync's *decision procedure* (skip / hard-link / delta / full) and
//! charges hashing time to the cost model; the bytes it reports feed the
//! transfer model and the §4 pairing-cost experiment.

use crate::fs::{under, FsError, SimFs, Tree};
use flux_simcore::{ByteSize, CostModel, SimDuration};
use std::borrow::Cow;
use std::sync::{Arc, PoisonError, Weak};

/// How one file was handled by a sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileAction {
    /// Destination already had the identical file at the same path.
    UpToDate,
    /// Identical content found under `--link-dest`; hard-linked, no bytes
    /// moved.
    HardLinked,
    /// Same path existed with different content; only a delta moved.
    Delta,
    /// New file; full (compressed) content moved.
    Full,
}

/// Options controlling a sync.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncOptions {
    /// Directory on the destination searched for identical files to
    /// hard-link against (rsync's `--link-dest`). `None` disables linking.
    pub link_dest: Option<String>,
    /// Fraction of a changed file's size that the rsync rolling-checksum
    /// delta actually ships (before compression). 1.0 disables delta.
    pub delta_ratio: f64,
    /// Compression ratio applied to shipped bytes (1.0 disables).
    pub compress_ratio: f64,
}

impl Default for SyncOptions {
    fn default() -> Self {
        Self {
            link_dest: None,
            // Framework jars/libs differ modestly across device builds of
            // the same Android version; calibrated so the §4 pairing
            // experiment reproduces (123 MB differing → 56 MB shipped).
            delta_ratio: 0.60,
            compress_ratio: 0.74,
        }
    }
}

/// The outcome of one sync run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SyncReport {
    /// Files examined on the source side.
    pub files_total: usize,
    /// Files already up to date at the destination.
    pub files_up_to_date: usize,
    /// Files satisfied by `--link-dest` hard links.
    pub files_hard_linked: usize,
    /// Files shipped as deltas.
    pub files_delta: usize,
    /// Files shipped in full.
    pub files_full: usize,
    /// Total source bytes considered ("constant data" in §4).
    pub bytes_considered: ByteSize,
    /// Bytes *not* satisfied by links or up-to-date files (the "after
    /// accounting for identical files" number in §4).
    pub bytes_differing: ByteSize,
    /// Bytes actually shipped after delta + compression (the "compressed
    /// delta that must be transferred" in §4).
    pub bytes_shipped: ByteSize,
    /// CPU time spent hashing and comparing, per the cost model.
    pub cpu_time: SimDuration,
}

impl SyncReport {
    /// Files that put bytes on the wire (deltas plus full copies). This is
    /// the `flux.fs.files_shipped` telemetry counter.
    pub fn files_shipped(&self) -> usize {
        self.files_delta + self.files_full
    }

    /// Files satisfied locally by `--link-dest` hard links. This is the
    /// `flux.fs.files_linked` telemetry counter.
    pub fn files_linked(&self) -> usize {
        self.files_hard_linked
    }

    /// Folds `other` into this report: counts and byte totals add, CPU
    /// time accumulates. Used to aggregate the per-area syncs of a pairing
    /// run into one report.
    pub fn absorb(&mut self, other: &SyncReport) {
        self.files_total += other.files_total;
        self.files_up_to_date += other.files_up_to_date;
        self.files_hard_linked += other.files_hard_linked;
        self.files_delta += other.files_delta;
        self.files_full += other.files_full;
        self.bytes_considered += other.bytes_considered;
        self.bytes_differing += other.bytes_differing;
        self.bytes_shipped += other.bytes_shipped;
        self.cpu_time += other.cpu_time;
    }
}

/// A sync result kept on its source tree (see [`sync`]): the mirror it
/// left under the destination root, keyed relative to that root, and its
/// report.
#[derive(Debug)]
pub(crate) struct StoredSync {
    /// The tree mounted at `--link-dest`, if linking was on. The `Weak`
    /// keeps the allocation alive, so no later tree can take its address
    /// and match by mistake.
    link: Option<Weak<Tree>>,
    opts: SyncOptions,
    cost: CostModel,
    mirror: Arc<Tree>,
    report: SyncReport,
}

impl StoredSync {
    fn matches(&self, link: Option<&Arc<Tree>>, opts: &SyncOptions, cost: &CostModel) -> bool {
        let same_link = match (&self.link, link) {
            (Some(held), Some(link)) => std::ptr::eq(held.as_ptr(), Arc::as_ptr(link)),
            (None, None) => true,
            _ => false,
        };
        same_link && self.opts == *opts && self.cost == *cost
    }
}

/// Synchronises everything at or under `src_root` in `src` to the
/// corresponding paths under `dst_root` in `dst`. Roots match whole path
/// components: `/data/data/com.x` does not take in `/data/data/com.xy`.
///
/// Per file the decision mirrors rsync:
/// 1. identical path+hash at destination → skip;
/// 2. identical *hash* anywhere under `link_dest` → hard link;
/// 3. same path, different hash → ship a delta;
/// 4. otherwise → ship the full file.
///
/// When the source is a [`Tree`] mounted at `src_root`, the destination
/// holds nothing at or under `dst_root`, and `link_dest` (if set) is a
/// mount point of `dst` apart from `dst_root`, every decision depends only
/// on the two trees, the options and the cost model. The first such sync
/// runs the per-file procedure on fresh filesystems holding just those
/// trees and stores the mirror and report on the source tree; every later
/// one of that kind mounts the stored mirror at `dst_root` and returns the
/// stored report.
pub fn sync(
    src: &SimFs,
    src_root: &str,
    dst: &mut SimFs,
    dst_root: &str,
    opts: &SyncOptions,
    cost: &CostModel,
) -> Result<SyncReport, FsError> {
    if let Some((tree, link)) = shared_inputs(src, src_root, dst, dst_root, opts) {
        let (mirror, report) = stored_sync(tree, link, src_root, dst_root, opts, cost)?;
        dst.mount(dst_root, mirror);
        return Ok(report);
    }
    sync_files(src, src_root, dst, dst_root, opts, cost)
}

/// The source tree and `--link-dest` tree when a sync's outcome depends on
/// nothing else (see [`sync`]).
fn shared_inputs<'s>(
    src: &'s SimFs,
    src_root: &str,
    dst: &'s SimFs,
    dst_root: &str,
    opts: &SyncOptions,
) -> Option<(&'s Arc<Tree>, Option<&'s Arc<Tree>>)> {
    let tree = src.mounted_at(src_root)?;
    if dst.list_under(dst_root).next().is_some() {
        return None;
    }
    let link = match opts.link_dest.as_deref() {
        None => None,
        Some(link_dest) => {
            if under(dst_root, link_dest).is_some() || under(link_dest, dst_root).is_some() {
                return None;
            }
            Some(dst.mounted_at(link_dest)?)
        }
    };
    Some((tree, link))
}

/// The stored mirror and report for a sync from `tree` against `link`,
/// computed and stored on `tree` first if no sync of this kind ran yet.
fn stored_sync(
    tree: &Arc<Tree>,
    link: Option<&Arc<Tree>>,
    src_root: &str,
    dst_root: &str,
    opts: &SyncOptions,
    cost: &CostModel,
) -> Result<(Arc<Tree>, SyncReport), FsError> {
    let find = |stored: &[StoredSync]| {
        stored
            .iter()
            .find(|s| s.matches(link, opts, cost))
            .map(|s| (Arc::clone(&s.mirror), s.report.clone()))
    };
    // Every update is one push, so the list stays valid after a panic.
    let lock = || tree.synced.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = find(&lock()) {
        return Ok(hit);
    }
    let mut src = SimFs::new();
    src.mount(src_root, Arc::clone(tree));
    let mut dst = SimFs::new();
    if let (Some(link_dest), Some(link)) = (&opts.link_dest, link) {
        dst.mount(link_dest, Arc::clone(link));
    }
    let report = sync_files(&src, src_root, &mut dst, dst_root, opts, cost)?;
    let mirror = Arc::new(dst.tree_at(dst_root));
    let mut stored = lock();
    // Another thread may have stored the same result meanwhile.
    if let Some(hit) = find(&stored) {
        return Ok(hit);
    }
    stored.push(StoredSync {
        link: link.map(Arc::downgrade),
        opts: opts.clone(),
        cost: cost.clone(),
        mirror: Arc::clone(&mirror),
        report: report.clone(),
    });
    Ok((mirror, report))
}

/// The per-file decision procedure: every sync's outcome is the one this
/// gives.
fn sync_files(
    src: &SimFs,
    src_root: &str,
    dst: &mut SimFs,
    dst_root: &str,
    opts: &SyncOptions,
    cost: &CostModel,
) -> Result<SyncReport, FsError> {
    let mut report = SyncReport::default();
    for (src_path, entry) in src.list_under(src_root) {
        let content = entry.content;
        let rel = under(&src_path, src_root).expect("list_under() stays under src_root");
        let dst_path = format!("{dst_root}{rel}");
        report.files_total += 1;
        report.bytes_considered += content.size;
        // rsync hashes both sides to decide; charge the source's hash.
        report.cpu_time += cost.hash_time(content.size);

        let basis_path = opts
            .link_dest
            .as_deref()
            .map(|link_dest| format!("{link_dest}{rel}"));
        let action = decide(dst, &dst_path, basis_path.as_deref(), content, opts);
        match action {
            FileAction::UpToDate => {
                report.files_up_to_date += 1;
            }
            FileAction::HardLinked => {
                // Prefer the same-relative-path candidate; fall back to a
                // content-identical file anywhere under --link-dest.
                let link_dest = opts
                    .link_dest
                    .as_deref()
                    .expect("linking implies link_dest");
                let target = basis_path
                    .filter(|p| dst.get(p).is_some_and(|e| e.content == content))
                    .or_else(|| dst.find_identical(link_dest, content).map(Cow::into_owned))
                    .expect("decide() found a link candidate");
                dst.hard_link(&dst_path, &target)?;
                report.files_hard_linked += 1;
            }
            FileAction::Delta => {
                let shipped = content
                    .size
                    .scale(opts.delta_ratio)
                    .scale(opts.compress_ratio);
                report.bytes_differing += content.size;
                report.bytes_shipped += shipped;
                report.cpu_time += cost.compress_time(content.size.scale(opts.delta_ratio));
                dst.write(&dst_path, content);
                report.files_delta += 1;
            }
            FileAction::Full => {
                let shipped = content.size.scale(opts.compress_ratio);
                report.bytes_differing += content.size;
                report.bytes_shipped += shipped;
                report.cpu_time += cost.compress_time(content.size);
                dst.write(&dst_path, content);
                report.files_full += 1;
            }
        }
    }
    Ok(report)
}

fn decide(
    dst: &SimFs,
    dst_path: &str,
    basis_path: Option<&str>,
    content: crate::fs::Content,
    opts: &SyncOptions,
) -> FileAction {
    if let Some(existing) = dst.get(dst_path) {
        if existing.content == content {
            return FileAction::UpToDate;
        }
        // Same path, different content: a delta candidate even if a link
        // candidate also exists (rsync prefers the basis file at the path).
        return FileAction::Delta;
    }
    if let Some(basis) = basis_path.and_then(|p| dst.get(p)) {
        if basis.content == content {
            return FileAction::HardLinked;
        }
        // rsync uses the --link-dest file at the same relative path as the
        // delta basis even when contents differ, so only a delta ships.
        return FileAction::Delta;
    }
    if let Some(link_dest) = &opts.link_dest {
        if dst.find_identical(link_dest, content).is_some() {
            return FileAction::HardLinked;
        }
    }
    FileAction::Full
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::Content;

    fn mib(n: u64) -> ByteSize {
        ByteSize::from_mib(n)
    }

    /// Home system partition with 4 files; guest already has 2 identical
    /// ones on its own system partition and 1 differing at the target path.
    fn fixture() -> (SimFs, SimFs) {
        let mut home = SimFs::new();
        home.write("/system/framework/framework.jar", Content::new(mib(8), 100));
        home.write("/system/framework/services.jar", Content::new(mib(6), 101));
        home.write("/system/lib/libandroid.so", Content::new(mib(2), 102));
        home.write("/system/lib/libhw_vendor.so", Content::new(mib(4), 103));

        let mut guest = SimFs::new();
        // Identical framework.jar and libandroid.so on the guest system.
        guest.write("/system/framework/framework.jar", Content::new(mib(8), 100));
        guest.write("/system/lib/libandroid.so", Content::new(mib(2), 102));
        // A *different* services.jar already synced at the flux location.
        guest.write(
            "/data/flux/home/system/framework/services.jar",
            Content::new(mib(6), 999),
        );
        (home, guest)
    }

    #[test]
    fn sync_classifies_link_delta_and_full() {
        let (home, mut guest) = fixture();
        let opts = SyncOptions {
            link_dest: Some("/system".into()),
            ..SyncOptions::default()
        };
        let r = sync(
            &home,
            "/system",
            &mut guest,
            "/data/flux/home/system",
            &opts,
            &CostModel::reference(),
        )
        .unwrap();
        assert_eq!(r.files_total, 4);
        assert_eq!(r.files_hard_linked, 2); // framework.jar + libandroid.so
        assert_eq!(r.files_delta, 1); // services.jar
        assert_eq!(r.files_full, 1); // libhw_vendor.so
        assert_eq!(r.bytes_considered, mib(20));
        assert_eq!(r.bytes_differing, mib(10));
        // Shipped is strictly less than differing (delta + compression).
        assert!(r.bytes_shipped < r.bytes_differing);
        assert!(r.cpu_time > SimDuration::ZERO);
        // The linked file is readable at the flux location with no space.
        assert!(guest.exists("/data/flux/home/system/framework/framework.jar"));
        assert_eq!(
            guest.allocated_size("/data/flux/home/system/framework"),
            mib(6).scale(1.0) // Only the delta'd services.jar occupies space.
        );
    }

    #[test]
    fn second_sync_is_all_up_to_date() {
        let (home, mut guest) = fixture();
        let opts = SyncOptions {
            link_dest: Some("/system".into()),
            ..SyncOptions::default()
        };
        sync(
            &home,
            "/system",
            &mut guest,
            "/data/flux/home/system",
            &opts,
            &CostModel::reference(),
        )
        .unwrap();
        let r2 = sync(
            &home,
            "/system",
            &mut guest,
            "/data/flux/home/system",
            &opts,
            &CostModel::reference(),
        )
        .unwrap();
        assert_eq!(r2.files_up_to_date, 4);
        assert_eq!(r2.bytes_shipped, ByteSize::ZERO);
    }

    #[test]
    fn without_link_dest_everything_ships() {
        let (home, mut guest) = fixture();
        let opts = SyncOptions {
            link_dest: None,
            ..SyncOptions::default()
        };
        let r = sync(
            &home,
            "/system",
            &mut guest,
            "/data/flux/home/system",
            &opts,
            &CostModel::reference(),
        )
        .unwrap();
        assert_eq!(r.files_hard_linked, 0);
        assert_eq!(r.files_full, 3);
        assert_eq!(r.files_delta, 1);
        assert!(r.bytes_shipped > ByteSize::ZERO);
    }

    #[test]
    fn delta_ratio_one_and_no_compression_ships_full_bytes() {
        let (home, mut guest) = fixture();
        let opts = SyncOptions {
            link_dest: None,
            delta_ratio: 1.0,
            compress_ratio: 1.0,
        };
        let r = sync(
            &home,
            "/system",
            &mut guest,
            "/data/flux/home/system",
            &opts,
            &CostModel::reference(),
        )
        .unwrap();
        assert_eq!(r.bytes_shipped, r.bytes_differing);
    }

    fn listing(fs: &SimFs) -> Vec<(String, crate::fs::FileEntry)> {
        fs.list("")
            .map(|(p, e)| (p.into_owned(), e.clone()))
            .collect()
    }

    /// A destination root under `--link-dest` lets a sync link against
    /// files it wrote itself, so its outcome depends on the roots and must
    /// not be stored for syncs elsewhere.
    #[test]
    fn a_destination_inside_link_dest_is_not_stored() {
        let mut image = SimFs::new();
        image.write("/system/a.so", Content::new(mib(1), 1));
        image.write("/system/b.so", Content::new(mib(1), 1));
        let home_tree = Arc::new(image.tree_at("/system"));
        let guest_tree = Arc::new(SimFs::new().tree_at("/system"));
        let opts = SyncOptions {
            link_dest: Some("/system".into()),
            ..SyncOptions::default()
        };
        let cost = CostModel::reference();
        let mut home = SimFs::new();
        home.mount("/system", home_tree);
        for dst_root in ["/system/lib", "/data/mirror"] {
            let mut guest = SimFs::new();
            guest.mount("/system", Arc::clone(&guest_tree));
            let mut flat_guest: SimFs = listing(&guest).into_iter().collect();
            let flat_home: SimFs = listing(&home).into_iter().collect();
            let want = sync(
                &flat_home,
                "/system",
                &mut flat_guest,
                dst_root,
                &opts,
                &cost,
            );
            let got = sync(&home, "/system", &mut guest, dst_root, &opts, &cost);
            assert_eq!(got, want, "{dst_root}");
            assert_eq!(listing(&guest), listing(&flat_guest), "{dst_root}");
        }
    }
}
