//! Synthetic system-partition images.
//!
//! Pairing syncs "a device's system libraries, frameworks and apps" (§4):
//! for a Nexus 7 → Nexus 7 (2013) pair, 215 MB of constant data, of which
//! everything identical to the guest's own system partition is hard-linked
//! (123 MB of differing files remain) and the rest ships as a 56 MB
//! compressed delta. This module generates system images with exactly that
//! structure: every device running the same Android version has the *same
//! file list*, but a calibrated fraction of the files carry device-specific
//! contents (vendor libraries, device overlays, odexed jars).

use crate::profile::{DeviceModel, DeviceProfile};
use flux_fs::{Content, SimFs, Tree};
use flux_simcore::ByteSize;
use std::sync::{Arc, Mutex, PoisonError};

/// Stable FNV-1a hash used to derive per-file identity.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Global size calibration (percent) applied to every manifest entry so the
/// generated partition lands on the paper's 215 MB constant-data figure.
const SIZE_SCALE_PCT: u64 = 93;

/// Per-mille of files (by count) whose contents are device-specific even at
/// the same Android version. Calibrated so a Nexus 7 → Nexus 7 (2013) pair
/// reproduces §4's 215 MB → 123 MB hard-link reduction.
const DEVICE_SPECIFIC_PER_MILLE: u64 = 515;

/// The synthetic file manifest: (path, size in KiB).
///
/// Sizes are drawn from the real layout of a KitKat system partition:
/// a few large framework jars, many small-to-medium shared libraries,
/// stock app APKs, fonts and media. The list is identical for every device
/// at the same Android version so the pairing delta is purely a question
/// of per-file content identity.
fn manifest() -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = Vec::new();

    // Framework jars: ~20 files, heavy tail.
    let jars = [
        ("framework.jar", 7_800),
        ("framework2.jar", 2_100),
        ("services.jar", 4_900),
        ("core.jar", 3_600),
        ("core-libart.jar", 2_900),
        ("ext.jar", 1_500),
        ("telephony-common.jar", 1_900),
        ("voip-common.jar", 480),
        ("ime-common.jar", 240),
        ("android.policy.jar", 760),
        ("apache-xml.jar", 1_100),
        ("bouncycastle.jar", 1_050),
        ("okhttp.jar", 420),
        ("conscrypt.jar", 380),
        ("webviewchromium.jar", 4_800),
        ("mms-common.jar", 340),
        ("wimax.jar", 180),
        ("am.jar", 12),
        ("content.jar", 10),
        ("input.jar", 8),
    ];
    for (name, kib) in jars {
        files.push((format!("/system/framework/{name}"), kib));
    }
    // Boot class path odex companions (always device-specific in practice;
    // the per-mille selector naturally catches most by count).
    for (name, kib) in jars {
        files.push((
            format!(
                "/system/framework/arm/{}.odex",
                name.trim_end_matches(".jar")
            ),
            (kib * 6) / 10,
        ));
    }

    // Shared libraries: 180 files, 40–560 KiB.
    for i in 0..180u64 {
        let kib = 40 + (fnv(&format!("libsize{i}")) % 37) * 14;
        files.push((format!("/system/lib/lib{:03}.so", i), kib));
    }
    // Big named libraries.
    for (name, kib) in [
        ("libwebviewchromium.so", 15_000),
        ("libart.so", 6_500),
        ("libdvm.so", 5_200),
        ("libskia.so", 4_800),
        ("libandroid_runtime.so", 3_900),
        ("libmedia.so", 2_400),
        ("libstagefright.so", 3_300),
        ("libEGL.so", 260),
        ("libGLESv2.so", 220),
        ("libbinder.so", 380),
        ("libc.so", 840),
        ("libicuuc.so", 4_100),
        ("libicui18n.so", 2_300),
        ("libcrypto.so", 1_700),
    ] {
        files.push((format!("/system/lib/{name}"), kib));
    }

    // Stock apps: 60 APKs, 100 KiB – 1.2 MiB.
    for i in 0..60u64 {
        let kib = 100 + (fnv(&format!("apksize{i}")) % 23) * 50;
        files.push((format!("/system/app/Stock{:02}.apk", i), kib));
    }

    // Fonts and media.
    for i in 0..30u64 {
        files.push((
            format!("/system/fonts/Font{:02}.ttf", i),
            150 + (i % 7) * 90,
        ));
    }
    for i in 0..25u64 {
        files.push((
            format!("/system/media/audio/ui/sound{:02}.ogg", i),
            30 + (i % 5) * 60,
        ));
    }

    // Binaries and configuration.
    for i in 0..70u64 {
        files.push((format!("/system/bin/tool{:02}", i), 15 + (i % 9) * 55));
    }
    for i in 0..40u64 {
        files.push((format!("/system/etc/conf{:02}.xml", i), 2 + (i % 4) * 6));
    }

    files
}

/// Writes a complete `/system` partition for `profile` into `fs`, one
/// file at a time. The GPU vendor library is added explicitly since Flux
/// must swap it on migration.
fn write_system(fs: &mut SimFs, profile: &DeviceProfile) {
    let is_device_specific = |path: &str| {
        path.contains("vendor")
            || path.ends_with(&profile.gpu.vendor_lib)
            || fnv(path) % 1000 < DEVICE_SPECIFIC_PER_MILLE
    };
    for (path, kib) in manifest() {
        let kib = (kib * SIZE_SCALE_PCT).div_ceil(100);
        let hash = if is_device_specific(&path) {
            fnv(&format!(
                "{}:{}:{:?}",
                path, profile.android_version, profile.model
            ))
        } else {
            fnv(&format!("{}:{}", path, profile.android_version))
        };
        fs.write(&path, Content::new(ByteSize::from_kib(kib), hash));
    }
    let vendor_path = format!("/system/vendor/lib/egl/{}", profile.gpu.vendor_lib);
    fs.write(
        &vendor_path,
        Content::new(
            ByteSize::from_kib(6_200),
            fnv(&format!("{vendor_path}:{:?}", profile.model)),
        ),
    );
}

/// What a `/system` image depends on: Android version, model and GPU
/// vendor library.
type ImageKey = (String, DeviceModel, String);

/// Every `/system` image built so far in this process.
static IMAGES: Mutex<Vec<(ImageKey, Arc<Tree>)>> = Mutex::new(Vec::new());

/// Mounts the `/system` partition for `profile` on `fs`.
///
/// Files identical across devices hash by `(path, android_version)`;
/// device-specific files (and the profile's GPU library) hash by `(path,
/// model, android_version)`. Every device of one Android version, model
/// and GPU library therefore carries the same partition, so the image is
/// built once per process and every device mounts that one shared tree. A
/// write under the device's `/system` copies the tree first, so it never
/// shows on another device.
pub fn populate_system(fs: &mut SimFs, profile: &DeviceProfile) {
    let key = (
        profile.android_version.clone(),
        profile.model,
        profile.gpu.vendor_lib.clone(),
    );
    let image = {
        // Every update is one push, so the list stays valid after a panic.
        let mut images = IMAGES.lock().unwrap_or_else(PoisonError::into_inner);
        match images.iter().find(|(k, _)| *k == key) {
            Some((_, image)) => Arc::clone(image),
            None => {
                let mut flat = SimFs::new();
                write_system(&mut flat, profile);
                let image = Arc::new(flat.tree_at("/system"));
                images.push((key, Arc::clone(&image)));
                image
            }
        }
    };
    fs.mount("/system", image);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_fs::{sync, SyncOptions};
    use flux_simcore::CostModel;

    fn files(fs: &SimFs) -> Vec<(String, flux_fs::FileEntry)> {
        fs.list("")
            .map(|(p, e)| (p.into_owned(), e.clone()))
            .collect()
    }

    fn profiles() -> [DeviceProfile; 3] {
        [
            DeviceProfile::nexus4(),
            DeviceProfile::nexus7_2012(),
            DeviceProfile::nexus7_2013(),
        ]
    }

    /// The mounted image lists exactly what the per-file `format!` writer
    /// puts into a flat filesystem, and devices of one profile share it.
    #[test]
    fn populate_system_matches_the_format_reference() {
        for profile in profiles() {
            let mut mounted = SimFs::new();
            let mut again = SimFs::new();
            let mut reference = SimFs::new();
            populate_system(&mut mounted, &profile);
            populate_system(&mut again, &profile);
            write_system(&mut reference, &profile);
            assert_eq!(mounted.len(), 460, "{:?}", profile.model);
            assert_eq!(files(&mounted), files(&reference), "{:?}", profile.model);
            let shared = |fs: &SimFs| Arc::as_ptr(fs.mounted_at("/system").unwrap());
            assert_eq!(shared(&mounted), shared(&again), "{:?}", profile.model);
        }
    }

    /// For every (home, guest) pair of profiles, the pairing sync's stored
    /// mirror and report equal a fresh per-file sync between flat,
    /// never-mounted filesystems. The guest's cost model sets `cpu_time`,
    /// so each pair is its own stored result. The first sync here computes
    /// it (nothing else in this test binary syncs) and the second mounts
    /// the stored one; both must match.
    #[test]
    fn stored_pairing_mirrors_equal_a_flat_per_file_sync() {
        let root = "/data/flux/home/system";
        let opts = SyncOptions {
            link_dest: Some("/system".into()),
            ..SyncOptions::default()
        };
        for home_profile in profiles() {
            let mut home = SimFs::new();
            populate_system(&mut home, &home_profile);
            let flat_home: SimFs = files(&home).into_iter().collect();
            for guest_profile in profiles() {
                let cost = CostModel::reference().scaled(guest_profile.cpu_scale);
                let mut flat_guest = SimFs::new();
                write_system(&mut flat_guest, &guest_profile);
                let want =
                    sync(&flat_home, "/system", &mut flat_guest, root, &opts, &cost).unwrap();
                let case = format!("{:?} -> {:?}", home_profile.model, guest_profile.model);
                let mut mirrors = Vec::new();
                for pass in ["computing", "stored"] {
                    let mut guest = SimFs::new();
                    populate_system(&mut guest, &guest_profile);
                    let got = sync(&home, "/system", &mut guest, root, &opts, &cost).unwrap();
                    assert_eq!(got, want, "{case}, {pass} report");
                    assert_eq!(files(&guest), files(&flat_guest), "{case}, {pass} mirror");
                    mirrors.push(Arc::as_ptr(guest.mounted_at(root).expect("mirror mounted")));
                }
                assert_eq!(mirrors[0], mirrors[1], "{case}: the second sync reuses");
            }
        }
    }

    #[test]
    fn system_image_is_about_215_mb() {
        let mut fs = SimFs::new();
        populate_system(&mut fs, &DeviceProfile::nexus7_2012());
        let total = fs.total_size("/system").as_mib_f64();
        assert!(
            (190.0..240.0).contains(&total),
            "system image was {total:.1} MiB"
        );
    }

    #[test]
    fn same_model_generates_identical_images() {
        let mut a = SimFs::new();
        let mut b = SimFs::new();
        populate_system(&mut a, &DeviceProfile::nexus4());
        populate_system(&mut b, &DeviceProfile::nexus4());
        let files_a: Vec<_> = a
            .list("/system")
            .map(|(p, e)| (p.into_owned(), e.clone()))
            .collect();
        let files_b: Vec<_> = b
            .list("/system")
            .map(|(p, e)| (p.into_owned(), e.clone()))
            .collect();
        assert_eq!(files_a, files_b);
    }

    #[test]
    fn cross_model_images_share_roughly_43_percent_of_bytes() {
        let mut home = SimFs::new();
        let mut guest = SimFs::new();
        populate_system(&mut home, &DeviceProfile::nexus7_2012());
        populate_system(&mut guest, &DeviceProfile::nexus7_2013());
        let mut identical = 0u64;
        let mut total = 0u64;
        for (path, e) in home.list("/system") {
            total += e.content.size.as_u64();
            if let Some(g) = guest.get(&path) {
                if g.content.hash == e.content.hash {
                    identical += e.content.size.as_u64();
                }
            }
        }
        let frac = identical as f64 / total as f64;
        // §4: 215 MB constant data reduces to 123 MB after hard linking,
        // i.e. ~43% identical by bytes.
        assert!(
            (0.30..0.56).contains(&frac),
            "identical byte fraction was {frac:.2}"
        );
    }

    #[test]
    fn vendor_gpu_library_is_always_device_specific() {
        let mut tegra = SimFs::new();
        let mut adreno = SimFs::new();
        populate_system(&mut tegra, &DeviceProfile::nexus7_2012());
        populate_system(&mut adreno, &DeviceProfile::nexus7_2013());
        assert!(tegra.exists("/system/vendor/lib/egl/libGLES_tegra.so"));
        assert!(adreno.exists("/system/vendor/lib/egl/libGLES_adreno.so"));
        assert!(!tegra.exists("/system/vendor/lib/egl/libGLES_adreno.so"));
    }
}
