//! The adaptive-replay warm-up phase — the stage named **reintegration**:
//! replay the record log through contextualisation proxies, deliver the
//! connectivity interruption (lost, then regained on the guest, §3.1) and
//! conditionally re-initialise the view hierarchy at the guest's
//! resolution.
//!
//! The stage's outputs (replay statistics, redrawn view count) land in
//! the progress record for the driver's report assembly.

use super::failure::StageFailure;
use super::{Stage, StageCtx, Yield};
use crate::errors::FluxError;
use crate::migration::{MigrationStage, StageTimes};
use crate::replay::replay_log;
use crate::world::{DeviceId, FluxWorld};
use flux_appfw::conditional_reinit;
use flux_services::svc::activity::ActivityManagerService;
use flux_services::svc::connectivity::ConnectivityManagerService;
use flux_services::{Intent, ACTION_CONNECTIVITY_CHANGE};
use flux_simcore::SimDuration;
use flux_telemetry::LaneId;
use std::sync::Arc;

/// The reintegration stage (Adaptive Replay + connectivity + re-layout).
pub struct ReplayWarmup;

impl Stage for ReplayWarmup {
    fn name(&self) -> &'static str {
        "reintegration"
    }

    fn lane(&self, cx: &StageCtx<'_>) -> LaneId {
        cx.mig.guest_lane
    }

    fn anchor(&self) -> Option<MigrationStage> {
        Some(MigrationStage::Reintegration)
    }

    fn times_slot<'t>(&self, times: &'t mut StageTimes) -> Option<&'t mut SimDuration> {
        Some(&mut times.reintegration)
    }

    fn run(&self, cx: &mut StageCtx<'_>) -> Result<Yield, StageFailure> {
        let package = cx.mig.package.as_str();
        let image = Arc::clone(
            &cx.prog
                .checkpoint
                .as_ref()
                .expect("checkpoint completed")
                .image,
        );
        let replay = replay_log(
            cx.world,
            cx.mig.guest,
            package,
            &image.log,
            image.process.checkpoint_time,
            &cx.mig.home_profile,
        )?;
        cx.world
            .clock
            .charge(cx.mig.guest_cost.replay_time(image.log.len() as u64));

        // Connectivity interruption: lost, then regained on the guest (§3.1).
        broadcast_connectivity(cx.world, cx.mig.guest, false)?;
        broadcast_connectivity(cx.world, cx.mig.guest, true)?;

        // Conditional re-initialisation at the guest's resolution.
        let redrawn = {
            let now = cx.world.clock.now();
            let dev = cx.world.device_mut(cx.mig.guest)?;
            let vendor = dev.profile.gpu.vendor_lib.clone();
            let mut app = dev
                .apps
                .remove(package)
                .ok_or_else(|| StageFailure::NoSuchApp(package.to_owned()))?;
            let redrawn = conditional_reinit(
                &mut app,
                &mut dev.kernel,
                &mut dev.host,
                now,
                &vendor,
                image.reinit.textures,
                image.reinit.gl_contexts,
            )
            .map_err(|e| StageFailure::Internal(e.to_string()))?;
            dev.apps.insert(package.to_owned(), app);
            redrawn
        };
        cx.world.clock.charge(SimDuration::from_nanos(
            cx.mig.guest_cost.view_reinit_ns_per_view * redrawn as u64,
        ));
        cx.prog.replay = Some(replay);
        cx.prog.redrawn = redrawn;
        Ok(Yield::Done)
    }
}

/// Delivers a connectivity-change broadcast on `device`, flipping the
/// ConnectivityManager's active-network state.
pub fn broadcast_connectivity(
    world: &mut FluxWorld,
    device: DeviceId,
    connected: bool,
) -> Result<(), FluxError> {
    let now = world.clock.now();
    let dev = world.device_mut(device)?;
    if let Some(conn) = dev
        .host
        .service_mut::<ConnectivityManagerService>("connectivity")
    {
        conn.set_connected(connected);
    }
    let intent = Intent::new(ACTION_CONNECTIVITY_CHANGE)
        .with_extra("noConnectivity", if connected { "false" } else { "true" });
    let deliveries = dev
        .host
        .with_service_ctx(&mut dev.kernel, now, "activity", |svc, ctx| {
            let ams = svc
                .as_any_mut()
                .downcast_mut::<ActivityManagerService>()
                .expect("activity service type");
            ams.broadcast(ctx, &intent)
        })
        .map(|(_, d)| d)
        .unwrap_or_default();
    world.route_deliveries(device, deliveries)?;
    // One Binder transaction per broadcast leg.
    let binder = world.device(device)?.cost.binder_transaction;
    world.clock.charge(binder);
    Ok(())
}
