//! End-to-end migration scenarios across the whole stack.

mod common;

use common::staged_models as staged;
use flux_binder::Parcel;
use flux_core::{
    migrate, pair, FluxError, MigrationSpec, ReplayPolicy, ReplayStats, StageFailure, WorldBuilder,
    WorldError,
};
use flux_device::{DeviceModel, DeviceProfile};
use flux_services::svc::alarm::AlarmManagerService;
use flux_services::svc::location::LocationManagerService;
use flux_services::svc::notification::NotificationManagerService;
use flux_services::svc::sensor::SensorService;
use flux_services::Event;
use flux_simcore::SimDuration;
use flux_workloads::{spec, top_apps, Action};

#[test]
fn notification_state_follows_the_app() {
    let (mut world, home, guest, pkg) =
        staged("WhatsApp", DeviceModel::Nexus4, DeviceModel::Nexus7_2013);
    // Post-then-cancel churn: only the surviving notification may migrate.
    world
        .perform(
            home,
            &pkg,
            &Action::PostNotification {
                id: 50,
                payload_kib: 4,
            },
        )
        .unwrap();
    world
        .perform(home, &pkg, &Action::CancelNotification { id: 50 })
        .unwrap();

    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();

    let guest_dev = world.device(guest).unwrap();
    let uid = guest_dev.app_uid(&pkg).unwrap();
    let active = guest_dev
        .host
        .service::<NotificationManagerService>("notification")
        .unwrap()
        .active_for(uid);
    // Exactly the WhatsApp workload's one notification (id 2); 50 is gone.
    assert_eq!(active.len(), 1);
    assert_eq!(active[0].id, 2);

    // And the home device no longer shows it.
    let home_dev = world.device(home).unwrap();
    assert_eq!(
        home_dev
            .host
            .service::<NotificationManagerService>("notification")
            .unwrap()
            .active_count(),
        0
    );
}

#[test]
fn pending_alarms_migrate_and_fire_on_guest() {
    let (mut world, home, guest, pkg) =
        staged("eBay", DeviceModel::Nexus7_2013, DeviceModel::Nexus7_2013);
    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();

    // The auction-ending alarm (420 s) is pending on the guest.
    let guest_dev = world.device(guest).unwrap();
    let uid = guest_dev.app_uid(&pkg).unwrap();
    let pending = guest_dev
        .host
        .service::<AlarmManagerService>("alarm")
        .unwrap()
        .pending_for(uid);
    assert_eq!(pending.len(), 1);

    // Advance past the trigger: the app receives the broadcast on the guest.
    world.tick(SimDuration::from_secs(600));
    let events = world
        .device_mut(guest)
        .unwrap()
        .apps
        .get_mut(&pkg)
        .unwrap()
        .drain_inbox();
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::AlarmFired { operation } if operation == "auction-ending")));
}

#[test]
fn sensor_connection_keeps_handle_and_descriptor() {
    let (mut world, home, guest, pkg) =
        staged("Snapchat", DeviceModel::Nexus4, DeviceModel::Nexus7_2013);

    // Snapshot the app-visible identifiers on the home device.
    let (old_handle, old_fd) = {
        let dev = world.device(home).unwrap();
        let uid = dev.app_uid(&pkg).unwrap();
        let log = dev.records.log(uid).unwrap();
        let conn = log
            .entries()
            .iter()
            .find(|e| e.method == "createSensorEventConnection")
            .expect("connection recorded");
        let chan = log
            .entries()
            .iter()
            .find(|e| e.method == "getSensorChannel")
            .expect("channel recorded");
        (
            match conn.reply.object(0).unwrap() {
                flux_binder::ObjRef::Handle(h) => h,
                o => panic!("expected handle, got {o:?}"),
            },
            chan.reply.fd(0).unwrap(),
        )
    };

    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();

    let dev = world.device(guest).unwrap();
    let app = dev.apps.get(&pkg).unwrap();
    // The old handle resolves to a live connection node on the guest.
    let node = dev
        .kernel
        .binder
        .resolve_handle(app.main_pid, old_handle)
        .expect("old handle valid on guest");
    let uid = app.uid;
    let connections = dev
        .host
        .service::<SensorService>("sensorservice")
        .unwrap()
        .connections_of(uid);
    assert!(connections.iter().any(|c| c.node == node));
    // The event channel sits at the same descriptor number, as a live
    // Unix socket (dup2'd over the reserved slot).
    let proc = dev.kernel.process(app.main_pid).unwrap();
    assert!(matches!(
        proc.fds.get(old_fd),
        Some(flux_kernel::FdKind::UnixSocket { .. })
    ));
    // The enabled sensor survived too.
    assert!(connections.iter().any(|c| !c.enabled.is_empty()));
}

#[test]
fn virt_pid_is_stable_across_migration() {
    let (mut world, home, guest, pkg) =
        staged("Twitter", DeviceModel::Nexus7_2012, DeviceModel::Nexus4);
    let home_pid = world.device(home).unwrap().apps.get(&pkg).unwrap().main_pid;
    let virt = world
        .device(home)
        .unwrap()
        .kernel
        .process(home_pid)
        .unwrap()
        .virt_pid;

    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();

    let dev = world.device(guest).unwrap();
    let app = dev.apps.get(&pkg).unwrap();
    let proc = dev.kernel.process(app.main_pid).unwrap();
    assert_eq!(
        proc.virt_pid, virt,
        "app observes the same PID via its namespace"
    );
    assert!(proc.namespace.is_some());
    assert!(proc
        .jail_root
        .as_deref()
        .unwrap_or("")
        .contains("/data/flux/"));
}

#[test]
fn migration_refusals_match_section_3_4() {
    // Multi-process.
    let (mut world, home, guest, pkg) =
        staged("Facebook", DeviceModel::Nexus4, DeviceModel::Nexus7_2013);
    assert!(matches!(
        migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)),
        Err(FluxError::Migration(StageFailure::MultiProcess {
            processes: 2
        }))
    ));

    // Preserved EGL context.
    let (mut world, home, guest, pkg) = staged(
        "Subway Surfers",
        DeviceModel::Nexus4,
        DeviceModel::Nexus7_2013,
    );
    assert!(matches!(
        migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)),
        Err(FluxError::Migration(StageFailure::PreservedEglContext))
    ));

    // Mid-ContentProvider interaction.
    let (mut world, home, guest, pkg) =
        staged("Twitter", DeviceModel::Nexus4, DeviceModel::Nexus7_2013);
    world
        .perform(home, &pkg, &Action::BeginProviderQuery)
        .unwrap();
    assert!(matches!(
        migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)),
        Err(FluxError::Migration(StageFailure::ContentProviderActive))
    ));
    world
        .perform(home, &pkg, &Action::EndProviderQuery)
        .unwrap();
    assert!(migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).is_ok());

    // Open common SD-card file.
    let (mut world, home, guest, pkg) =
        staged("ZEDGE", DeviceModel::Nexus4, DeviceModel::Nexus7_2013);
    world
        .perform(
            home,
            &pkg,
            &Action::OpenCommonSdFile {
                name: "Music/song.mp3".into(),
            },
        )
        .unwrap();
    assert!(matches!(
        migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)),
        Err(FluxError::Migration(StageFailure::CommonSdCardFile { .. }))
    ));

    // Unpaired devices.
    let app = spec("Twitter").unwrap();
    let (mut world, ids) = WorldBuilder::new()
        .seed(3)
        .device("h", DeviceProfile::nexus4())
        .device("g", DeviceProfile::nexus7_2013())
        .app(0, app.clone())
        .build()
        .unwrap();
    let (home, guest) = (ids[0], ids[1]);
    assert!(matches!(
        migrate(
            &mut world,
            MigrationSpec::new(&app.package).between(home, guest)
        ),
        Err(FluxError::Migration(StageFailure::NotPaired))
    ));

    // One device named as both ends: refused with the cause `pair` names,
    // before any time is charged.
    let before = world.clock.now();
    let err = migrate(
        &mut world,
        MigrationSpec::new(&app.package).between(home, home),
    )
    .unwrap_err();
    assert_eq!(
        err,
        FluxError::Migration(WorldError::SelfPairing(home.0).into())
    );
    assert_eq!(
        err.to_string(),
        "migration failed: device #0 cannot pair with itself"
    );
    assert_eq!(world.clock.now(), before);
}

#[test]
fn api_level_incompatibility_is_refused() {
    // A guest stuck on an older stack.
    let mut old = DeviceProfile::nexus7_2012();
    old.api_level = 17;
    let mut app = spec("Twitter").unwrap();
    app.min_api = 19;
    let (mut world, ids) = WorldBuilder::new()
        .seed(8)
        .device("h", DeviceProfile::nexus4())
        .device("g", old)
        .app(0, app.clone())
        .pair(0, 1)
        .build()
        .unwrap();
    let (home, guest) = (ids[0], ids[1]);
    assert!(matches!(
        migrate(
            &mut world,
            MigrationSpec::new(&app.package).between(home, guest)
        ),
        Err(FluxError::Migration(StageFailure::ApiLevelIncompatible {
            required: 19,
            guest: 17
        }))
    ));
}

#[test]
fn dropped_network_connections_are_reported() {
    let (mut world, home, guest, pkg) =
        staged("Netflix", DeviceModel::Nexus4, DeviceModel::Nexus7_2013);
    let report = migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();
    assert_eq!(report.dropped_connections.len(), 1);
    assert!(report.dropped_connections[0].contains(":443"));
}

#[test]
fn receivers_get_connectivity_change_after_migration() {
    let (mut world, home, guest, pkg) =
        staged("Skype", DeviceModel::Nexus4, DeviceModel::Nexus7_2013);
    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();
    // Skype registered a CONNECTIVITY_CHANGE receiver; replay re-registered
    // it, so the disconnect + reconnect broadcasts reached the app.
    let events = world
        .device_mut(guest)
        .unwrap()
        .apps
        .get_mut(&pkg)
        .unwrap()
        .drain_inbox();
    let conn_events = events
        .iter()
        .filter(
            |e| matches!(e, Event::Broadcast { intent } if intent.action.contains("CONNECTIVITY")),
        )
        .count();
    assert_eq!(conn_events, 2, "loss + new connection");
}

#[test]
fn all_sixteen_migratable_apps_succeed_on_the_hardest_pair() {
    // Nexus 7 (2012) -> Nexus 4: different GPU vendors, kernels, screens.
    for app in top_apps() {
        if app.multi_process || app.preserve_egl {
            continue;
        }
        let (mut world, home, guest, pkg) =
            staged(&app.name, DeviceModel::Nexus7_2012, DeviceModel::Nexus4);
        let report = migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest))
            .unwrap_or_else(|e| {
                panic!("{} failed: {e}", app.name);
            });
        // The vendor GL library was swapped to the guest's.
        let dev = world.device(guest).unwrap();
        let a = dev.apps.get(&pkg).unwrap();
        if app.gl_contexts > 0 {
            assert_eq!(
                a.gl.vendor_lib.as_deref(),
                Some("libGLES_adreno.so"),
                "{}",
                app.name
            );
        }
        assert!(report.stages.total() > SimDuration::ZERO);
    }
}

#[test]
fn migrate_back_home_round_trip() {
    let (mut world, home, guest, pkg) =
        staged("Bible", DeviceModel::Nexus4, DeviceModel::Nexus7_2013);
    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();

    // Add state on the guest, then bring the app home.
    world
        .perform(
            guest,
            &pkg,
            &Action::PostNotification {
                id: 99,
                payload_kib: 2,
            },
        )
        .unwrap();
    pair(&mut world, guest, home).unwrap();
    migrate(&mut world, MigrationSpec::new(&pkg).between(guest, home)).unwrap();

    let home_dev = world.device(home).unwrap();
    let uid = home_dev.app_uid(&pkg).unwrap();
    let active = home_dev
        .host
        .service::<NotificationManagerService>("notification")
        .unwrap()
        .active_for(uid);
    assert!(
        active.iter().any(|n| n.id == 99),
        "guest-side state came home"
    );
    assert!(!world.device(guest).unwrap().apps.contains_key(&pkg));
}

#[test]
fn recording_disabled_blocks_nothing_but_replays_nothing() {
    let app = spec("WhatsApp").unwrap();
    let (mut world, ids) = WorldBuilder::new()
        .seed(5)
        .recording(false)
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
    let report = migrate(
        &mut world,
        MigrationSpec::new(&app.package).between(home, guest),
    )
    .unwrap();
    // Vanilla AOSP mode: nothing recorded, so nothing to replay — the
    // notification does NOT follow the app.
    assert_eq!(report.replay.total(), 0);
    let uid = world.device(guest).unwrap().app_uid(&app.package).unwrap();
    assert_eq!(
        world
            .device(guest)
            .unwrap()
            .host
            .service::<NotificationManagerService>("notification")
            .unwrap()
            .active_for(uid)
            .len(),
        0
    );
}

#[test]
fn clipboard_call_with_replay_keeps_only_latest_clip() {
    let (mut world, home, guest, pkg) =
        staged("Twitter", DeviceModel::Nexus4, DeviceModel::Nexus7_2013);
    for i in 0..5u8 {
        world
            .app_call(
                home,
                &pkg,
                "clipboard",
                "setPrimaryClip",
                Parcel::new().with_blob(vec![i; 64]),
            )
            .unwrap();
    }
    // The record log holds exactly one setPrimaryClip (the @drop this rule).
    let uid = world.device(home).unwrap().app_uid(&pkg).unwrap();
    let clip_entries = world
        .device(home)
        .unwrap()
        .records
        .log(uid)
        .unwrap()
        .entries()
        .iter()
        .filter(|e| e.method == "setPrimaryClip")
        .count();
    assert_eq!(clip_entries, 1);

    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();
    let clip = world
        .device(guest)
        .unwrap()
        .host
        .service::<flux_services::svc::clipboard::ClipboardService>("clipboard")
        .unwrap()
        .primary_clip()
        .unwrap()
        .to_vec();
    assert_eq!(clip, vec![4u8; 64]);
}

/// Migrates GroupOn, its location request switched to the GPS provider,
/// from a Nexus 4 onto a Nexus 7 (2013) without a GPS receiver, under
/// `policy`. Returns the replay counts and the providers of the app's
/// location requests on the guest.
fn migrate_a_gps_request_onto_a_guest_without_gps(
    policy: ReplayPolicy,
) -> (ReplayStats, Vec<String>) {
    let mut app = spec("GroupOn").unwrap();
    for action in &mut app.actions {
        if let Action::RequestLocation { provider } = action {
            *provider = "gps".into();
        }
    }
    let mut tablet = DeviceProfile::nexus7_2013();
    tablet.hardware.gps = false;
    let (mut world, ids) = WorldBuilder::new()
        .seed(11)
        .policy(policy)
        .device("phone", DeviceProfile::nexus4())
        .device("tablet", tablet)
        .app(0, app.clone())
        .pair(0, 1)
        .build()
        .unwrap();
    let (home, guest) = (ids[0], ids[1]);
    world.run_script(home, &app.package, &app.actions).unwrap();
    let report = migrate(
        &mut world,
        MigrationSpec::new(&app.package).between(home, guest),
    )
    .unwrap();
    let dev = world.device(guest).unwrap();
    let uid = dev.app_uid(&app.package).unwrap();
    let providers = dev
        .host
        .service::<LocationManagerService>("location")
        .unwrap()
        .requests_of(uid)
        .iter()
        .map(|r| r.provider.clone())
        .collect();
    (report.replay, providers)
}

#[test]
fn gps_request_is_forwarded_to_a_guest_without_gps() {
    // §3.2: by default the user opts in to forwarding absent hardware
    // over the network.
    let (replay, providers) =
        migrate_a_gps_request_onto_a_guest_without_gps(ReplayPolicy::default());
    assert_eq!((replay.proxied, replay.skipped), (1, 0));
    assert_eq!(providers, ["network-forwarded:gps"]);
}

#[test]
fn gps_request_is_dropped_on_a_guest_without_gps_when_forwarding_is_off() {
    let (replay, providers) = migrate_a_gps_request_onto_a_guest_without_gps(ReplayPolicy {
        forward_missing_hardware: false,
    });
    assert_eq!((replay.proxied, replay.skipped), (0, 1));
    assert!(providers.is_empty(), "{providers:?}");
}
