//! Property tests on the rsync synchroniser.

use flux_fs::{sync, Content, SimFs, SyncOptions};
use flux_simcore::{ByteSize, CostModel};
use proptest::prelude::*;
use std::collections::BTreeMap;

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
        .map(|(p, e)| (p.to_owned(), e.content))
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
