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

use crate::profile::DeviceProfile;
use flux_fs::{Content, SimFs};
use flux_simcore::ByteSize;
use std::sync::LazyLock;

/// The FNV-1a offset basis: the hash of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`, so hashing `a` and then `b`
/// equals hashing their concatenation.
fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Stable FNV-1a hash used to derive per-file identity.
fn fnv(s: &str) -> u64 {
    fnv_extend(FNV_BASIS, s.as_bytes())
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

/// One `/system` file with everything about it that no profile changes.
struct SystemFile {
    path: String,
    /// Size after [`SIZE_SCALE_PCT`].
    size: ByteSize,
    /// The FNV-1a state after the path's bytes; each profile continues it
    /// over its own suffix.
    path_hash: u64,
    /// Vendor files, and files picked by a stable per-path draw, carry
    /// device-specific contents at the same Android version.
    device_specific: bool,
}

/// The manifest with sizes scaled and per-path draws taken, built once:
/// every device at one Android version shares the file list.
static SYSTEM_FILES: LazyLock<Vec<SystemFile>> = LazyLock::new(|| {
    manifest()
        .into_iter()
        .map(|(path, kib)| {
            let path_hash = fnv(&path);
            SystemFile {
                size: ByteSize::from_kib((kib * SIZE_SCALE_PCT).div_ceil(100)),
                device_specific: path.contains("vendor")
                    || path_hash % 1000 < DEVICE_SPECIFIC_PER_MILLE,
                path_hash,
                path,
            }
        })
        .collect()
});

/// Populates `fs` with a complete `/system` partition for `profile`.
///
/// Files identical across devices hash by `(path, android_version)`;
/// device-specific files (and the profile's GPU library) hash by `(path,
/// model, android_version)`. The GPU vendor library is added explicitly
/// since Flux must swap it on migration.
pub fn populate_system(fs: &mut SimFs, profile: &DeviceProfile) {
    // A file's identity is the FNV-1a hash of `{path}:{version}`, or of
    // `{path}:{version}:{model:?}` when it is device-specific.
    let shared = format!(":{}", profile.android_version);
    let specific = format!("{shared}:{:?}", profile.model);
    for file in SYSTEM_FILES.iter() {
        let suffix = if file.device_specific || file.path.ends_with(&profile.gpu.vendor_lib) {
            &specific
        } else {
            &shared
        };
        let hash = fnv_extend(file.path_hash, suffix.as_bytes());
        fs.write(&file.path, Content::new(file.size, hash));
    }
    // The vendor GPU library, always device-specific.
    let vendor_path = format!("/system/vendor/lib/egl/{}", profile.gpu.vendor_lib);
    fs.write(
        &vendor_path,
        Content::new(
            ByteSize::from_kib(6_200),
            fnv(&format!("{vendor_path}:{:?}", profile.model)),
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-file `format!` hashing `populate_system` replaced, kept as
    /// the oracle its table must reproduce byte for byte.
    fn reference_populate(fs: &mut SimFs, profile: &DeviceProfile) {
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

    #[test]
    fn populate_system_matches_the_format_reference() {
        for profile in [
            DeviceProfile::nexus4(),
            DeviceProfile::nexus7_2012(),
            DeviceProfile::nexus7_2013(),
        ] {
            let mut table = SimFs::new();
            let mut reference = SimFs::new();
            populate_system(&mut table, &profile);
            reference_populate(&mut reference, &profile);
            let files = |fs: &SimFs| -> Vec<(String, flux_fs::FileEntry)> {
                fs.list("")
                    .map(|(p, e)| (p.to_owned(), e.clone()))
                    .collect()
            };
            assert_eq!(table.len(), 460, "{:?}", profile.model);
            assert_eq!(files(&table), files(&reference), "{:?}", profile.model);
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
            .map(|(p, e)| (p.to_owned(), e.clone()))
            .collect();
        let files_b: Vec<_> = b
            .list("/system")
            .map(|(p, e)| (p.to_owned(), e.clone()))
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
            if let Some(g) = guest.get(path) {
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
