//! Property tests on the rsync synchroniser.

use flux_fs::{sync, Content, FileEntry, SimFs, SyncOptions, Tree};
use flux_simcore::{ByteSize, CostModel};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A random file set: (name index, size KiB, content tag).
fn files_strategy() -> impl Strategy<Value = Vec<(u8, u32, u8)>> {
    prop::collection::vec((0u8..40, 1u32..4096, any::<u8>()), 1..40)
}

fn build_fs(files: &[(u8, u32, u8)], root: &str) -> SimFs {
    let mut fs = SimFs::new();
    for (name, kib, tag) in files {
        fs.write(
            &format!("{root}/f{name:02}"),
            Content::new(ByteSize::from_kib(u64::from(*kib)), u64::from(*tag) + 1),
        );
    }
    fs
}

/// Path fragments whose concatenations share prefixes both at and inside
/// path components: `/data/data/com.x` is a prefix of `/data/data/com.xy`.
const FRAGMENTS: [&str; 8] = [
    "/data",
    "/data/data/com.x",
    "y",
    "/files",
    "/system",
    "/",
    ".db",
    "\u{e9}",
];

fn path_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FRAGMENTS.len(), 1..5)
        .prop_map(|ix| ix.iter().map(|&i| FRAGMENTS[i]).collect())
}

/// Prefixes that are whole fragment runs, runs cut at any character, the
/// empty prefix, or one that sorts after every key.
fn prefix_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        path_strategy(),
        (path_strategy(), 0usize..40).prop_map(|(p, cut)| p.chars().take(cut).collect()),
        Just(String::new()),
        Just("\u{10ffff}".to_owned()),
    ]
}

/// The whole-map filter `SimFs::list` must agree with: every written path
/// that starts with `prefix`, in path order, with its content.
fn filtered(model: &BTreeMap<String, Content>, prefix: &str) -> Vec<(String, Content)> {
    model
        .iter()
        .filter(|(p, _)| p.starts_with(prefix))
        .map(|(p, c)| (p.clone(), *c))
        .collect()
}

fn listed(fs: &SimFs, prefix: &str) -> Vec<(String, Content)> {
    fs.list(prefix)
        .map(|(p, e)| (p.into_owned(), e.content))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SimFs::list`'s range walk yields exactly the entries, in exactly
    /// the order, of a filter over the whole map.
    #[test]
    fn list_range_walk_matches_whole_map_filter(
        paths in prop::collection::vec(path_strategy(), 0..40),
        prefixes in prop::collection::vec(prefix_strategy(), 1..8),
    ) {
        let mut fs = SimFs::new();
        let mut model = BTreeMap::new();
        for (i, path) in paths.iter().enumerate() {
            let content = Content::new(ByteSize::from_kib(i as u64 + 1), i as u64);
            fs.write(path, content);
            model.insert(path.clone(), content);
        }
        for prefix in &prefixes {
            prop_assert_eq!(listed(&fs, prefix), filtered(&model, prefix), "prefix {:?}", prefix);
        }
    }

    /// After a sync, the destination mirrors the source: every source file
    /// exists at the destination with identical content.
    #[test]
    fn sync_makes_destination_mirror_source(
        src_files in files_strategy(),
        dst_files in files_strategy(),
    ) {
        let src = build_fs(&src_files, "/src");
        let mut dst = build_fs(&dst_files, "/dst/mirror"); // pre-existing junk
        let opts = SyncOptions::default();
        sync(&src, "/src", &mut dst, "/dst/mirror", &opts, &CostModel::reference()).unwrap();
        for (path, entry) in src.list("/src") {
            let rel = path.strip_prefix("/src").unwrap();
            let mirrored = dst.get(&format!("/dst/mirror{rel}")).unwrap();
            prop_assert_eq!(mirrored.content, entry.content);
        }
    }

    /// A second sync of unchanged content ships zero bytes.
    #[test]
    fn sync_is_idempotent(src_files in files_strategy()) {
        let src = build_fs(&src_files, "/src");
        let mut dst = SimFs::new();
        let opts = SyncOptions::default();
        sync(&src, "/src", &mut dst, "/d", &opts, &CostModel::reference()).unwrap();
        let second = sync(&src, "/src", &mut dst, "/d", &opts, &CostModel::reference()).unwrap();
        prop_assert_eq!(second.bytes_shipped, ByteSize::ZERO);
        prop_assert_eq!(second.files_up_to_date, second.files_total);
    }

    /// Shipped bytes never exceed differing bytes, which never exceed
    /// considered bytes; file-action counts partition the file set.
    #[test]
    fn sync_accounting_invariants(
        src_files in files_strategy(),
        link_files in files_strategy(),
    ) {
        let src = build_fs(&src_files, "/src");
        let mut dst = build_fs(&link_files, "/system");
        let opts = SyncOptions {
            link_dest: Some("/system".into()),
            ..SyncOptions::default()
        };
        let r = sync(&src, "/src", &mut dst, "/d", &opts, &CostModel::reference()).unwrap();
        prop_assert!(r.bytes_shipped <= r.bytes_differing);
        prop_assert!(r.bytes_differing <= r.bytes_considered);
        prop_assert_eq!(
            r.files_up_to_date + r.files_hard_linked + r.files_delta + r.files_full,
            r.files_total
        );
    }

    /// Files identical to a --link-dest candidate at the same relative path
    /// are hard-linked (zero allocated space) rather than shipped.
    #[test]
    fn link_dest_links_identical_content(src_files in files_strategy()) {
        let src = build_fs(&src_files, "/src");
        // The guest's /system holds byte-identical copies at matching paths.
        let mut dst = build_fs(&src_files, "/system");
        let opts = SyncOptions {
            link_dest: Some("/system".into()),
            ..SyncOptions::default()
        };
        let r = sync(&src, "/src", &mut dst, "/d", &opts, &CostModel::reference()).unwrap();
        prop_assert_eq!(r.bytes_shipped, ByteSize::ZERO);
        prop_assert_eq!(dst.allocated_size("/d"), ByteSize::ZERO);
        prop_assert_eq!(r.files_hard_linked, r.files_total);
    }
}

/// Regression, formerly the shrunk proptest seed
/// `src_files = [(21, 1, 248)], dst_files = [(21, 2, 248)]`: a destination
/// file at the same path whose *hash* matches the source but whose *size*
/// differs is NOT up to date. Content identity is `(size, hash)`; comparing
/// hashes alone left the stale 2 KiB file in place.
#[test]
fn same_hash_different_size_is_resynced() {
    let mut src = SimFs::new();
    src.write("/src/f21", Content::new(ByteSize::from_kib(1), 249));
    let mut dst = SimFs::new();
    dst.write("/dst/mirror/f21", Content::new(ByteSize::from_kib(2), 249));

    let r = sync(
        &src,
        "/src",
        &mut dst,
        "/dst/mirror",
        &SyncOptions::default(),
        &CostModel::reference(),
    )
    .unwrap();

    assert_eq!(r.files_up_to_date, 0, "size mismatch must not look current");
    assert!(r.bytes_shipped > ByteSize::ZERO);
    assert_eq!(
        dst.get("/dst/mirror/f21").unwrap().content,
        Content::new(ByteSize::from_kib(1), 249),
        "destination must mirror the source's (size, hash), not just hash"
    );
}

/// The edge cases of the range walk, pinned outright: a prefix that is not
/// a directory still matches longer names, the empty prefix lists every
/// file, and a prefix sorting after every key lists none.
#[test]
fn list_range_walk_edge_cases() {
    let paths = [
        "/data/data/com.x",
        "/data/data/com.x/files/a",
        "/data/data/com.xy/files/b",
        "/data/data/com.y/files/c",
        "/system/lib/libc.so",
    ];
    let mut fs = SimFs::new();
    let mut model = BTreeMap::new();
    for (i, path) in paths.iter().enumerate() {
        let content = Content::new(ByteSize::from_kib(1), i as u64);
        fs.write(path, content);
        model.insert((*path).to_owned(), content);
    }
    let names =
        |prefix: &str| -> Vec<String> { listed(&fs, prefix).into_iter().map(|(p, _)| p).collect() };
    assert_eq!(
        names("/data/data/com.x"),
        [
            "/data/data/com.x",
            "/data/data/com.x/files/a",
            "/data/data/com.xy/files/b"
        ]
    );
    assert_eq!(names(""), paths);
    assert!(names("\u{10ffff}").is_empty());
    assert!(names("/zzz").is_empty());
    for prefix in [
        "/data/data/com.x",
        "",
        "\u{10ffff}",
        "/zzz",
        "/data/data/com.x/",
    ] {
        assert_eq!(listed(&fs, prefix), filtered(&model, prefix), "{prefix:?}");
    }
}

/// Mount points and files: `/system/lib` nests in `/system`, `/sys` and
/// `/system.bak` are string siblings of it, and `/data/flux/h/system` is
/// where a pairing mirror lands.
const POINTS: [&str; 7] = [
    "/system",
    "/system/lib",
    "/system.bak",
    "/sys",
    "/data/flux/h/system",
    "/data",
    "/mirror",
];
const LEAVES: [&str; 6] = ["", "/a.so", "/lib", "/lib/b.so", "-x", "/lib.bak"];

fn point_strategy() -> impl Strategy<Value = String> {
    (0..POINTS.len()).prop_map(|i| POINTS[i].to_owned())
}

fn file_strategy() -> impl Strategy<Value = String> {
    (0..POINTS.len(), 0..LEAVES.len()).prop_map(|(p, l)| format!("{}{}", POINTS[p], LEAVES[l]))
}

/// Few distinct contents, so `--link-dest` finds identical files.
fn content_strategy() -> impl Strategy<Value = Content> {
    (1u64..4, 0u64..4).prop_map(|(kib, hash)| Content::new(ByteSize::from_kib(kib), hash))
}

/// Probe prefixes: files, files cut at any character (`/sys` cuts
/// `/system`), the empty prefix, and the string sibling `/system.bak`.
fn probe_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        file_strategy(),
        (file_strategy(), 0usize..24).prop_map(|(p, cut)| p.chars().take(cut).collect()),
        Just(String::new()),
        Just("/system.bak".to_owned()),
    ]
}

/// One step on filesystem `fs` (0 or 1); `Sync` copies from `fs` to the
/// other one, charging a reference or a half-speed CPU.
#[derive(Debug, Clone)]
enum Op {
    Write(usize, String, Content),
    HardLink(usize, String, String),
    Remove(usize, String),
    RemoveTree(usize, String),
    Mount(usize, String, usize),
    Capture(usize, String),
    Sync(usize, String, String, Option<String>, bool),
    /// Replaces the filesystem with a fresh one that mounts a pool tree
    /// at `/system`, as a newly booted device does.
    Boot(usize, usize),
}

/// Sync roots, drawn so syncs often find a tree mounted alone at the
/// source root, nothing at the destination root and a tree mounted at
/// `--link-dest`: the conditions for the stored-mirror path.
const SRC_ROOTS: [&str; 3] = ["/system", "/data/flux/h/system", "/system/lib"];
const DST_ROOTS: [&str; 4] = ["/data/flux/h/system", "/mirror", "/mirror", "/system/lib"];
const LINK_DESTS: [Option<&str>; 5] = [
    None,
    Some("/system"),
    Some("/system"),
    Some("/mirror"),
    Some("/system.bak"),
];

/// Writes, mounts, boots, syncs and pairing-shaped syncs are listed twice,
/// to make them likelier.
fn op_strategy() -> impl Strategy<Value = Op> {
    let write = || {
        (0usize..2, file_strategy(), content_strategy()).prop_map(|(f, p, c)| Op::Write(f, p, c))
    };
    let mount =
        || (0usize..2, point_strategy(), 0usize..8).prop_map(|(f, p, t)| Op::Mount(f, p, t));
    let boot = || (0usize..2, 0usize..8).prop_map(|(f, t)| Op::Boot(f, t));
    let sync = || {
        (
            0usize..2,
            0..SRC_ROOTS.len(),
            0..DST_ROOTS.len(),
            0..LINK_DESTS.len(),
            0u8..2,
        )
            .prop_map(|(f, s, d, l, slow)| {
                Op::Sync(
                    f,
                    SRC_ROOTS[s].to_owned(),
                    DST_ROOTS[d].to_owned(),
                    LINK_DESTS[l].map(str::to_owned),
                    slow == 1,
                )
            })
    };
    // The pairing shape: /system to the mirror, linking against /system.
    let pair = || {
        (0usize..2, 0u8..2).prop_map(|(f, slow)| {
            Op::Sync(
                f,
                "/system".into(),
                "/data/flux/h/system".into(),
                Some("/system".into()),
                slow == 1,
            )
        })
    };
    prop_oneof![
        write(),
        write(),
        (0usize..2, file_strategy(), file_strategy()).prop_map(|(f, p, t)| Op::HardLink(f, p, t)),
        (0usize..2, file_strategy()).prop_map(|(f, p)| Op::Remove(f, p)),
        (0usize..2, probe_strategy()).prop_map(|(f, p)| Op::RemoveTree(f, p)),
        mount(),
        mount(),
        (0usize..2, point_strategy()).prop_map(|(f, p)| Op::Capture(f, p)),
        boot(),
        boot(),
        sync(),
        sync(),
        pair(),
        pair(),
    ]
}

/// The reference for a whole-component root: `root` itself or `root/…`.
fn at_or_under(path: &str, root: &str) -> bool {
    path.strip_prefix(root)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

type Flat = BTreeMap<String, FileEntry>;

fn flat_listed(model: &Flat, prefix: &str) -> Vec<(String, FileEntry)> {
    model
        .iter()
        .filter(|(p, _)| p.starts_with(prefix))
        .map(|(p, e)| (p.clone(), e.clone()))
        .collect()
}

fn entries(fs: &SimFs, prefix: &str) -> Vec<(String, FileEntry)> {
    fs.list(prefix)
        .map(|(p, e)| (p.into_owned(), e.clone()))
        .collect()
}

/// Applies `op` to the filesystems under test and to their flat models,
/// checking that every result agrees. A sync runs on the models as the
/// per-file procedure between never-mounted copies.
fn apply(op: &Op, fss: &mut [SimFs; 2], models: &mut [Flat; 2], pool: &mut Vec<(Arc<Tree>, Flat)>) {
    match op {
        Op::Write(f, path, content) => {
            fss[*f].write(path, *content);
            models[*f].insert(
                path.clone(),
                FileEntry {
                    content: *content,
                    link_target: None,
                },
            );
        }
        Op::HardLink(f, path, target) => {
            let got = fss[*f].hard_link(path, target);
            match models[*f].get(target).map(|e| e.content) {
                Some(content) => {
                    prop_assert_eq!(got, Ok(()));
                    models[*f].insert(
                        path.clone(),
                        FileEntry {
                            content,
                            link_target: Some(target.clone()),
                        },
                    );
                }
                None => prop_assert!(got.is_err()),
            }
        }
        Op::Remove(f, path) => {
            let got = fss[*f].remove(path);
            prop_assert_eq!(got.ok(), models[*f].remove(path));
        }
        Op::RemoveTree(f, prefix) => {
            let before = models[*f].len();
            models[*f].retain(|p, _| !p.starts_with(prefix.as_str()));
            prop_assert_eq!(fss[*f].remove_tree(prefix), before - models[*f].len());
        }
        Op::Mount(f, point, t) => {
            if pool.is_empty() {
                return;
            }
            let (tree, rel) = &pool[t % pool.len()];
            fss[*f].mount(point, Arc::clone(tree));
            models[*f].retain(|p, _| !at_or_under(p, point));
            for (key, entry) in rel {
                models[*f].insert(format!("{point}{key}"), entry.clone());
            }
        }
        Op::Boot(f, t) => {
            fss[*f] = SimFs::new();
            models[*f].clear();
            apply(&Op::Mount(*f, "/system".into(), *t), fss, models, pool);
        }
        Op::Capture(f, root) => {
            let rel: Flat = models[*f]
                .iter()
                .filter(|(p, _)| at_or_under(p, root))
                .map(|(p, e)| (p[root.len()..].to_owned(), e.clone()))
                .collect();
            pool.push((Arc::new(fss[*f].tree_at(root)), rel));
        }
        Op::Sync(f, src_root, dst_root, link_dest, slow) => {
            let opts = SyncOptions {
                link_dest: link_dest.clone(),
                ..SyncOptions::default()
            };
            let cpu_scale = if *slow { 0.5 } else { 1.0 };
            let cost = CostModel::reference().scaled(cpu_scale);
            let (src, dst) = if *f == 0 {
                let (a, b) = fss.split_at_mut(1);
                (&a[0], &mut b[0])
            } else {
                let (a, b) = fss.split_at_mut(1);
                (&b[0], &mut a[0])
            };
            let got = sync(src, src_root, dst, dst_root, &opts, &cost);
            let flat_src: SimFs = models[*f].clone().into_iter().collect();
            let mut flat_dst: SimFs = models[1 - *f].clone().into_iter().collect();
            let want = sync(&flat_src, src_root, &mut flat_dst, dst_root, &opts, &cost);
            prop_assert_eq!(got, want);
            models[1 - *f] = entries(&flat_dst, "").into_iter().collect();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filesystems with mounted trees read exactly like flat maps through
    /// any sequence of writes, hard links, removes, mounts, tree captures
    /// and syncs, the shared-mirror sync path included.
    #[test]
    fn mounted_trees_read_like_a_flat_map(
        images in prop::collection::vec(
            (point_strategy(), prop::collection::vec((file_strategy(), content_strategy()), 0..12)),
            1..3,
        ),
        ops in prop::collection::vec(op_strategy(), 1..32),
        probes in prop::collection::vec(probe_strategy(), 1..6),
    ) {
        let mut fss = [SimFs::new(), SimFs::new()];
        let mut models = [Flat::new(), Flat::new()];
        let mut pool = Vec::new();
        for (root, files) in &images {
            let mut image = SimFs::new();
            for (path, content) in files {
                image.write(path, *content);
            }
            let model: Flat = entries(&image, "").into_iter().collect();
            let mut sources = [image, SimFs::new()];
            let mut source_models = [model, Flat::new()];
            apply(&Op::Capture(0, root.clone()), &mut sources, &mut source_models, &mut pool);
        }
        for f in 0..2 {
            apply(&Op::Boot(f, f), &mut fss, &mut models, &mut pool);
        }
        for op in &ops {
            apply(op, &mut fss, &mut models, &mut pool);
            for (fs, model) in fss.iter().zip(&models) {
                prop_assert_eq!(fs.len(), model.len(), "after {:?}", op);
                for probe in &probes {
                    let want = flat_listed(model, probe);
                    prop_assert_eq!(entries(fs, probe), want.clone(), "after {:?}, prefix {:?}", op, probe);
                    prop_assert_eq!(fs.get(probe), model.get(probe.as_str()), "after {:?}, path {:?}", op, probe);
                    let size = |linked: bool| -> ByteSize {
                        want.iter()
                            .filter(|(_, e)| linked || e.link_target.is_none())
                            .map(|(_, e)| e.content.size)
                            .sum()
                    };
                    prop_assert_eq!(fs.total_size(probe), size(true));
                    prop_assert_eq!(fs.allocated_size(probe), size(false));
                }
            }
        }
    }
}
