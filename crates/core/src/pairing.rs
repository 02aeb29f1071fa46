//! The one-time pairing phase (§3.1 and the §4 pairing-cost experiment).
//!
//! Pairing synchronises the home device's core frameworks and libraries to
//! a custom location on the guest's data partition, hard-linking files that
//! are identical to the guest's own system partition (rsync
//! `--link-dest`), then syncs and pseudo-installs each app's APK and data
//! directory so a wrapper app exists for migration-in.

use crate::errors::FluxError;
use crate::world::{Device, DeviceId, FluxWorld, WorldError};
use flux_fs::{sync, SyncOptions, SyncReport};
use flux_services::svc::package::{PackageManagerService, PackageRecord};
use flux_simcore::ByteSize;

/// The outcome of one pairing operation.
#[derive(Debug, Clone, PartialEq)]
pub struct PairingReport {
    /// Home → guest direction label.
    pub direction: String,
    /// The constant-data sync of frameworks and libraries.
    pub system_sync: SyncReport,
    /// Combined APK + data sync across all installed apps.
    pub app_sync: SyncReport,
    /// Packages pseudo-installed on the guest.
    pub packages: Vec<String>,
    /// Wall (virtual) time the pairing took, including transfer.
    pub elapsed: flux_simcore::SimDuration,
}

impl PairingReport {
    /// Total bytes that went over the air.
    pub fn bytes_shipped(&self) -> ByteSize {
        self.system_sync.bytes_shipped + self.app_sync.bytes_shipped
    }
}

/// Borrows `home` to read and `guest` to write at once, so a sync can read
/// the home filesystem while it writes the guest's. An unknown device is
/// reported before home == guest.
fn split_pair(
    devices: &mut [Device],
    home: DeviceId,
    guest: DeviceId,
) -> Result<(&Device, &mut Device), WorldError> {
    for id in [home, guest] {
        if id.0 >= devices.len() {
            return Err(WorldError::NoSuchDevice(id.0));
        }
    }
    if home.0 < guest.0 {
        let (low, high) = devices.split_at_mut(guest.0);
        Ok((&low[home.0], &mut high[0]))
    } else if guest.0 < home.0 {
        let (low, high) = devices.split_at_mut(home.0);
        Ok((&high[0], &mut low[guest.0]))
    } else {
        Err(WorldError::SelfPairing(home.0))
    }
}

/// Pairs `home` to `guest`: after this, apps installed on `home` can be
/// migrated to `guest`. Pairing is directional; pair both ways for
/// round-trip migration. A device cannot pair with itself.
pub fn pair(
    world: &mut FluxWorld,
    home: DeviceId,
    guest: DeviceId,
) -> Result<PairingReport, FluxError> {
    let started = world.clock.now();
    let (h, g) = split_pair(&mut world.devices, home, guest)?;
    let home_apps: Vec<PackageRecord> = h
        .specs
        .keys()
        .filter_map(|p| {
            h.host
                .service::<PackageManagerService>("package")
                .and_then(|pm| pm.package(p).cloned())
        })
        .collect();
    let pairing_root = format!("/data/flux/{}", h.name);

    // 1. Constant data: frameworks and libraries, hard-linked against the
    //    guest's own /system where identical.
    let opts = SyncOptions {
        link_dest: Some("/system".into()),
        ..SyncOptions::default()
    };
    let system_sync = sync(
        &h.fs,
        "/system",
        &mut g.fs,
        &format!("{pairing_root}/system"),
        &opts,
        &g.cost,
    )
    .map_err(|e| WorldError::Boot(e.to_string()))?;

    // 2. APKs and app data directories; then pseudo-install metadata.
    let app_opts = SyncOptions {
        link_dest: None,
        ..SyncOptions::default()
    };
    let mut app_sync = SyncReport::default();
    let mut packages = Vec::new();
    for record in &home_apps {
        let apk = sync(
            &h.fs,
            &record.apk_path,
            &mut g.fs,
            &format!("{pairing_root}{}", record.apk_path),
            &app_opts,
            &g.cost,
        )
        .map_err(|e| WorldError::Boot(e.to_string()))?;
        let data = sync(
            &h.fs,
            &format!("/data/data/{}", record.name),
            &mut g.fs,
            &format!("{pairing_root}/data/data/{}", record.name),
            &app_opts,
            &g.cost,
        )
        .map_err(|e| WorldError::Boot(e.to_string()))?;
        app_sync.absorb(&apk);
        app_sync.absorb(&data);
        g.host
            .service_mut::<PackageManagerService>("package")
            .expect("package service registered")
            .pseudo_install(record);
        // The guest needs the spec too, to re-launch after migration-in.
        if let Some(spec) = h.specs.get(&record.name) {
            g.specs.insert(record.name.clone(), spec.clone());
        }
        packages.push(record.name.clone());
    }

    // Charge CPU (hashing/compression) and radio time.
    let cpu = system_sync.cpu_time + app_sync.cpu_time;
    world.clock.charge(cpu);
    let shipped = system_sync.bytes_shipped + app_sync.bytes_shipped;
    let t = world
        .net
        .transfer(shipped, &h.profile.wifi, &g.profile.wifi);
    world.clock.charge(t.duration);

    // Record the pairing on the guest.
    let entry = g.pairings.entry(home.0).or_default();
    entry.root = pairing_root;
    entry.packages.extend(packages.iter().cloned());
    let direction = format!("{} -> {}", h.name, g.name);
    let detail = format!("{} -> guest, {shipped} shipped", h.name);

    let elapsed = world.clock.now() - started;
    record_fs_metrics(world, &system_sync);
    record_fs_metrics(world, &app_sync);
    world
        .telemetry
        .emit(world.clock.now(), "pairing.complete", detail);
    Ok(PairingReport {
        direction,
        system_sync,
        app_sync,
        packages,
        elapsed,
    })
}

/// Re-verifies (and re-syncs) one app's APK and data directory before a
/// migration — "Since apps may be updated frequently, the paired APK is
/// verified prior to migration and updated if necessary" (§3.1). Returns
/// the sync report of the verification pass.
pub fn verify_app(
    world: &mut FluxWorld,
    home: DeviceId,
    guest: DeviceId,
    package: &str,
) -> Result<SyncReport, FluxError> {
    let (h, g) = split_pair(&mut world.devices, home, guest)?;
    let apk_path = h
        .host
        .service::<PackageManagerService>("package")
        .and_then(|pm| pm.package(package))
        .map(|r| r.apk_path.as_str())
        .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?;
    let data_dir = format!("/data/data/{package}");
    let root = g
        .pairings
        .get(&home.0)
        .map(|p| p.root.as_str())
        .ok_or_else(|| WorldError::Boot("devices are not paired".into()))?;
    let opts = SyncOptions {
        link_dest: None,
        ..SyncOptions::default()
    };
    let mut report = SyncReport::default();
    for dir in [apk_path, data_dir.as_str()] {
        let synced = sync(
            &h.fs,
            dir,
            &mut g.fs,
            &format!("{root}{dir}"),
            &opts,
            &g.cost,
        )
        .map_err(|e| WorldError::Boot(e.to_string()))?;
        report.absorb(&synced);
    }
    world.clock.charge(report.cpu_time);
    record_fs_metrics(world, &report);
    Ok(report)
}

/// Accounts one sync run's outcome under the `flux.fs.*` metrics.
fn record_fs_metrics(world: &mut FluxWorld, report: &SyncReport) {
    world
        .telemetry
        .counter_add("flux.fs.files_shipped", report.files_shipped() as u64);
    world
        .telemetry
        .counter_add("flux.fs.files_linked", report.files_linked() as u64);
    world
        .telemetry
        .counter_add("flux.fs.bytes_shipped", report.bytes_shipped.as_u64());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleSnapshot, WorldBuilder};
    use flux_device::DeviceProfile;
    use flux_fs::{Content, SimFs};
    use flux_workloads::{spec, AppSpec};

    #[test]
    fn pairing_a_device_with_itself_is_an_explicit_error() {
        let app = spec("WhatsApp").expect("spec");
        let (mut world, ids) = WorldBuilder::new()
            .seed(7)
            .device("phone", DeviceProfile::nexus4())
            .app(0, app.clone())
            .build()
            .expect("build");
        let before = world.clock.now();
        let err = FluxError::World(WorldError::SelfPairing(0));
        assert_eq!(pair(&mut world, ids[0], ids[0]), Err(err.clone()));
        assert_eq!(
            verify_app(&mut world, ids[0], ids[0], &app.package),
            Err(err.clone())
        );
        assert_eq!(err.to_string(), "device #0 cannot pair with itself");
        // Refused before anything ran: no time, no pairing state.
        assert_eq!(world.clock.now(), before);
        assert!(world.device(ids[0]).unwrap().pairings.is_empty());
    }

    /// Every entry of `fs` in path order, mounted or private.
    fn files(fs: &SimFs) -> Vec<(String, flux_fs::FileEntry)> {
        fs.list("")
            .map(|(p, e)| (p.into_owned(), e.clone()))
            .collect()
    }

    /// A never-mounted copy of `fs`: every entry private.
    fn flat(fs: &SimFs) -> SimFs {
        files(fs).into_iter().collect()
    }

    /// Roots match whole path components: the data directory of `com.x`
    /// does not take in that of `com.xy`, whether pairing, verifying or
    /// capturing the oracle's promise.
    #[test]
    fn a_package_name_prefix_stays_out_of_its_neighbours_tree() {
        let base = spec("WhatsApp").expect("spec");
        let twin = |package: &str| AppSpec {
            name: package.into(),
            package: package.into(),
            ..base.clone()
        };
        let (mut world, ids) = WorldBuilder::new()
            .seed(7)
            .device("phone", DeviceProfile::nexus4())
            .device("tablet", DeviceProfile::nexus7_2013())
            .app(0, twin("com.x"))
            .app(0, twin("com.xy"))
            .build()
            .expect("build");
        let (home, guest) = (ids[0], ids[1]);
        let report = pair(&mut world, home, guest).unwrap();
        // One APK and one data file per app.
        assert_eq!(report.app_sync.files_total, 4);

        let neighbour = |world: &mut FluxWorld, name: &str, mib: u64| {
            world.device_mut(home).unwrap().fs.write(
                &format!("/data/data/com.xy/files/{name}"),
                Content::new(ByteSize::from_mib(mib), 99),
            );
        };
        neighbour(&mut world, "new.bin", 3);
        let verified = verify_app(&mut world, home, guest, "com.x").unwrap();
        assert_eq!(verified.files_total, 2);
        assert_eq!(verified.bytes_shipped, ByteSize::ZERO);

        let snap = OracleSnapshot::capture(&world, home, guest, "com.x").unwrap();
        assert_eq!(snap.file_count(), 1);
        // A change to the neighbour's data breaks no promise of com.x.
        neighbour(&mut world, "base.db", 1);
        let refused = FluxError::World(WorldError::NoSuchApp("com.x".into()));
        assert_eq!(snap.verdict(&world, Err(&refused)).failures, []);
    }

    /// Devices of one profile mount one `/system` image; a write on one
    /// device copies its image first and never shows on another.
    #[test]
    fn a_write_under_a_shared_system_stays_on_its_device() {
        let (mut world, ids) = WorldBuilder::new()
            .seed(7)
            .device("a", DeviceProfile::nexus4())
            .device("b", DeviceProfile::nexus4())
            .build()
            .expect("build");
        let path = "/system/lib/libc.so";
        let image = world.device(ids[1]).unwrap().fs.get(path).cloned();
        let written = Content::new(ByteSize::from_kib(1), 1);
        world.device_mut(ids[0]).unwrap().fs.write(path, written);

        let a = &world.device(ids[0]).unwrap().fs;
        assert_eq!(a.get(path).map(|e| e.content), Some(written));
        assert!(a.mounted_at("/system").is_none(), "a copied its image");
        assert_eq!(world.device(ids[1]).unwrap().fs.get(path).cloned(), image);
        let c = world.add_device("c", DeviceProfile::nexus4()).unwrap();
        assert_eq!(world.device(c).unwrap().fs.get(path).cloned(), image);
    }

    /// The first pairing mounts the stored mirror; once the home writes
    /// under its `/system`, a re-pair runs per file and ships exactly the
    /// delta a sync between flat, never-mounted copies ships.
    #[test]
    fn a_re_pair_after_a_system_write_ships_the_per_file_delta() {
        let (mut world, ids) = WorldBuilder::new()
            .seed(7)
            .device("phone", DeviceProfile::nexus4())
            .device("tablet", DeviceProfile::nexus7_2013())
            .build()
            .expect("build");
        let (home, guest) = (ids[0], ids[1]);
        let first = pair(&mut world, home, guest).unwrap();
        let mirror = "/data/flux/phone/system";
        assert!(world.device(guest).unwrap().fs.mounted_at(mirror).is_some());

        let path = "/system/framework/services.jar";
        let old = world.device(home).unwrap().fs.get(path).unwrap().content;
        world
            .device_mut(home)
            .unwrap()
            .fs
            .write(path, Content::new(old.size, old.hash ^ 1));
        let opts = SyncOptions {
            link_dest: Some("/system".into()),
            ..SyncOptions::default()
        };
        let flat_home = flat(&world.device(home).unwrap().fs);
        let g = world.device(guest).unwrap();
        let mut flat_guest = flat(&g.fs);
        let want = sync(
            &flat_home,
            "/system",
            &mut flat_guest,
            mirror,
            &opts,
            &g.cost,
        )
        .unwrap();

        let again = pair(&mut world, home, guest).unwrap();
        assert_eq!(again.system_sync, want);
        assert_eq!(again.system_sync.files_delta, 1);
        assert_eq!(
            again.system_sync.files_up_to_date,
            first.system_sync.files_total - 1
        );
        assert_eq!(
            again.system_sync.bytes_shipped,
            old.size.scale(0.60).scale(0.74)
        );
        assert_eq!(files(&world.device(guest).unwrap().fs), files(&flat_guest));
    }
}
