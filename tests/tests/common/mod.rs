//! Shared world-staging helpers for the integration suite.
//!
//! Every migration-flavoured test boots the same shape of world: a home
//! and a guest device, one Table 3 app deployed on the home, its canned
//! workload run, and the pair established. These helpers centralise that
//! staging so seeds, device names ("h" and "g" — the `/data/flux/h/...`
//! staging paths in several tests depend on the former) and fault-plan
//! wiring stay consistent across test binaries.
//!
//! Each integration-test binary compiles this module independently and
//! uses a different subset of it, hence the file-wide `dead_code` allow.
#![allow(dead_code)]

use flux_core::{pair, DeviceId, FluxWorld, WorldBuilder};
use flux_device::{DeviceModel, DeviceProfile};
use flux_kernel::Kernel;
use flux_net::{WifiAdapter, WifiStandard};
use flux_simcore::{FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime, Uid};
use flux_workloads::{spec, AppSpec};

/// The suite's default seed for single-scenario (non-proptest) stagings.
pub const SEED: u64 = 1234;

/// System services the record/replay and CRIU tests register.
pub const SERVICE_NAMES: [&str; 5] = ["notification", "alarm", "audio", "wifi", "clipboard"];

/// The most general staging: boots a two-device world (`h` home, `g`
/// guest), installs `app_name` on the home, runs its Table 3 workload,
/// and pairs the devices. Returns the world, both device ids and the
/// package name.
pub fn staged_with(
    app_name: &str,
    seed: u64,
    home_model: DeviceModel,
    guest_model: DeviceModel,
    plan: FaultPlan,
) -> (FluxWorld, DeviceId, DeviceId, String) {
    let app = spec(app_name).expect("app in Table 3");
    let (mut world, ids) = WorldBuilder::new()
        .seed(seed)
        .fault_plan(plan)
        .device("h", DeviceProfile::of(home_model))
        .device("g", DeviceProfile::of(guest_model))
        .app(0, app.clone())
        .build()
        .unwrap();
    let (home, guest) = (ids[0], ids[1]);
    world
        .run_script(home, &app.package, &app.actions.clone())
        .unwrap();
    pair(&mut world, home, guest).unwrap();
    (world, home, guest, app.package.clone())
}

/// Stages an arbitrary [`AppSpec`] — e.g. a generated corpus profile —
/// on the standard pair (`h` Nexus 4 home, `g` Nexus 7 (2013) guest):
/// deploys it on the home, runs its action script and pairs the devices.
pub fn staged_app(
    app: &AppSpec,
    seed: u64,
    plan: FaultPlan,
) -> (FluxWorld, DeviceId, DeviceId, String) {
    let (mut world, ids) = WorldBuilder::new()
        .seed(seed)
        .fault_plan(plan)
        .device("h", DeviceProfile::nexus4())
        .device("g", DeviceProfile::nexus7_2013())
        .app(0, app.clone())
        .build()
        .unwrap();
    let (home, guest) = (ids[0], ids[1]);
    world
        .run_script(home, &app.package, &app.actions.clone())
        .unwrap();
    pair(&mut world, home, guest).unwrap();
    (world, home, guest, app.package.clone())
}

/// The standard pair — Nexus 4 home, Nexus 7 (2013) guest — fault-free.
pub fn staged(app_name: &str, seed: u64) -> (FluxWorld, DeviceId, DeviceId, String) {
    staged_with(
        app_name,
        seed,
        DeviceModel::Nexus4,
        DeviceModel::Nexus7_2013,
        FaultPlan::none(),
    )
}

/// The standard pair with an ambient fault plan installed.
pub fn staged_faulty(
    app_name: &str,
    seed: u64,
    plan: FaultPlan,
) -> (FluxWorld, DeviceId, DeviceId, String) {
    staged_with(
        app_name,
        seed,
        DeviceModel::Nexus4,
        DeviceModel::Nexus7_2013,
        plan,
    )
}

/// Arbitrary device models at the suite's default seed.
pub fn staged_models(
    app_name: &str,
    home_model: DeviceModel,
    guest_model: DeviceModel,
) -> (FluxWorld, DeviceId, DeviceId, String) {
    staged_with(app_name, SEED, home_model, guest_model, FaultPlan::none())
}

/// A bare two-device Nexus 7 (2013) world — no app, no workload, no
/// pairing — for tests that shape app state by hand.
pub fn bare_pair(seed: u64) -> (FluxWorld, DeviceId, DeviceId) {
    let (world, ids) = WorldBuilder::new()
        .seed(seed)
        .device("h", DeviceProfile::nexus7_2013())
        .device("g", DeviceProfile::nexus7_2013())
        .build()
        .unwrap();
    (world, ids[0], ids[1])
}

/// A bare single-device Nexus 7 (2013) world.
pub fn bare_device(seed: u64) -> (FluxWorld, DeviceId) {
    let (world, ids) = WorldBuilder::new()
        .seed(seed)
        .device("h", DeviceProfile::nexus7_2013())
        .build()
        .unwrap();
    (world, ids[0])
}

/// A fleet staging: one home/guest device pair per app name (Nexus 4 →
/// Nexus 7 (2013)), each app deployed, scripted and paired on its own
/// pair. Returns the world and `(home, guest, package)` per request.
pub fn fleet_world(
    app_names: &[&str],
    seed: u64,
) -> (FluxWorld, Vec<(DeviceId, DeviceId, String)>) {
    let apps: Vec<_> = app_names
        .iter()
        .map(|n| spec(n).expect("app in Table 3"))
        .collect();
    let mut builder = WorldBuilder::new().seed(seed);
    for (i, app) in apps.iter().enumerate() {
        builder = builder
            .device(&format!("h{i:02}"), DeviceProfile::nexus4())
            .device(&format!("g{i:02}"), DeviceProfile::nexus7_2013())
            .app(2 * i, app.clone());
    }
    let (mut world, ids) = builder.build().unwrap();
    let mut pairs = Vec::with_capacity(apps.len());
    for (i, app) in apps.iter().enumerate() {
        let (home, guest) = (ids[2 * i], ids[2 * i + 1]);
        world
            .run_script(home, &app.package, &app.actions.clone())
            .unwrap();
        pair(&mut world, home, guest).unwrap();
        pairs.push((home, guest, app.package.clone()));
    }
    (world, pairs)
}

/// A shared-home fleet staging: one home device carrying every app,
/// paired to one guest per app — the device-contention counterpart of
/// [`fleet_world`]. Returns the world and `(home, guest, package)` per
/// request; every request shares the same source device, so a fleet
/// scheduler must serialise them.
pub fn shared_home_world(
    app_names: &[&str],
    seed: u64,
) -> (FluxWorld, Vec<(DeviceId, DeviceId, String)>) {
    let apps: Vec<_> = app_names
        .iter()
        .map(|n| spec(n).expect("app in Table 3"))
        .collect();
    let mut builder = WorldBuilder::new()
        .seed(seed)
        .device("h", DeviceProfile::nexus4());
    for (i, app) in apps.iter().enumerate() {
        builder = builder
            .device(&format!("g{i:02}"), DeviceProfile::nexus7_2013())
            .app(0, app.clone());
    }
    let (mut world, ids) = builder.build().unwrap();
    let home = ids[0];
    let mut pairs = Vec::with_capacity(apps.len());
    for (i, app) in apps.iter().enumerate() {
        world
            .run_script(home, &app.package, &app.actions.clone())
            .unwrap();
        let guest = ids[i + 1];
        pair(&mut world, home, guest).unwrap();
        pairs.push((home, guest, app.package.clone()));
    }
    (world, pairs)
}

/// A blanket link-drop schedule (every 200 ms for two minutes, relative
/// to the migration's own start): whatever instant the victim's transfer
/// covers, a drop lands in it, so with a no-retry policy the migration
/// deterministically rolls back.
pub fn blanket_drops() -> FaultPlan {
    FaultPlan::from_events(
        (0..600)
            .map(|i| FaultEvent {
                at: SimTime::from_millis(i * 200),
                kind: FaultKind::LinkDrop,
                duration: SimDuration::ZERO,
                magnitude: 0.0,
            })
            .collect(),
    )
}

/// A kernel of the given version with a system server exporting the
/// standard service nodes — the prelude every kernel-level CRIU property
/// test starts from, on both the home ("3.1") and guest ("3.4") side.
pub fn kernel_with_services(version: &str) -> Kernel {
    use flux_binder::NodeKind;
    let mut k = Kernel::new(version);
    let sys = k.spawn(Uid::SYSTEM, "system_server");
    for name in SERVICE_NAMES {
        let node = k
            .binder
            .create_node(
                sys,
                NodeKind::Service {
                    descriptor: format!("I{name}").into(),
                },
            )
            .unwrap();
        k.binder.add_service(name, node).unwrap();
    }
    k
}

/// The campus dual-band 802.11n adapter the transfer property tests use.
pub fn campus_adapter() -> WifiAdapter {
    WifiAdapter {
        standard: WifiStandard::N,
        dual_band: true,
        link_mbps: 65.0,
    }
}
