//! Host cost of standing a device up and pairing it: `add_device` per
//! profile (kernel, system services, `/system` partition), `pair` of a
//! home running all 16 migratable Table 3 apps, and the `verify_app` pass
//! every migration's transfer stage makes.
//!
//! A process boots each profile once and starts every later device of it
//! as a copy of that boot, so after its first iteration an `add_device`
//! row times the copy, which is what every device after the first of its
//! profile costs.
//!
//! Devices mount a shared `/system` image and an unwritten pairing mounts
//! a stored mirror, so `pair_16_apps_n4_to_n7_2013` measures that shared
//! path. `pair_16_apps_written_system` first writes one file under the
//! home's `/system`, which copies its image, so the pairing runs the
//! per-file rsync procedure over all 460 files.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use flux_core::{pair, verify_app, FluxWorld, WorldBuilder};
use flux_device::DeviceProfile;
use flux_fs::Content;
use flux_workloads::{top_apps, AppSpec};

/// The Table 3 apps the engine can migrate, in table order.
fn migratable_apps() -> Vec<AppSpec> {
    top_apps()
        .into_iter()
        .filter(|a| !a.multi_process && !a.preserve_egl)
        .collect()
}

/// A Nexus 4 home that has run every app's script, beside an unpaired
/// Nexus 7 (2013) guest.
fn staged(apps: &[AppSpec]) -> FluxWorld {
    let mut builder = WorldBuilder::new()
        .seed(3)
        .device("home", DeviceProfile::nexus4())
        .device("guest", DeviceProfile::nexus7_2013());
    for app in apps {
        builder = builder.app(0, app.clone());
    }
    let (mut world, ids) = builder.build().unwrap();
    for app in apps {
        world
            .run_script(ids[0], &app.package, &app.actions)
            .unwrap();
    }
    world
}

fn bench_boot(c: &mut Criterion) {
    let mut g = c.benchmark_group("boot/add_device");
    g.sample_size(100);
    for (label, profile) in [
        ("nexus4", DeviceProfile::nexus4()),
        ("nexus7_2012", DeviceProfile::nexus7_2012()),
        ("nexus7_2013", DeviceProfile::nexus7_2013()),
    ] {
        g.bench_function(label, |b| {
            b.iter_batched(
                || WorldBuilder::new().build().unwrap().0,
                |mut world| world.add_device("dev", profile.clone()).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();

    let apps = migratable_apps();
    assert_eq!(apps.len(), 16);
    let (home, guest) = (flux_core::DeviceId(0), flux_core::DeviceId(1));
    let mut g = c.benchmark_group("boot/pairing");
    g.sample_size(20);
    g.bench_function("pair_16_apps_n4_to_n7_2013", |b| {
        b.iter_batched(
            || staged(&apps),
            |mut world| pair(&mut world, home, guest).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("pair_16_apps_written_system", |b| {
        b.iter_batched(
            || {
                let mut world = staged(&apps);
                let fs = &mut world.device_mut(home).unwrap().fs;
                let path = "/system/framework/services.jar";
                let old = fs.get(path).unwrap().content;
                fs.write(path, Content::new(old.size, old.hash ^ 1));
                world
            },
            |mut world| pair(&mut world, home, guest).unwrap(),
            BatchSize::LargeInput,
        )
    });
    let mut world = staged(&apps);
    pair(&mut world, home, guest).unwrap();
    let mut next = apps.iter().cycle();
    g.sample_size(200);
    g.bench_function("verify_app", |b| {
        b.iter(|| {
            let app = next.next().unwrap();
            verify_app(&mut world, home, guest, &app.package).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_boot);
criterion_main!(benches);
