//! Declarative construction of a [`FluxWorld`].
//!
//! The builder replaces positional setup code (`FluxWorld::new(seed)` plus
//! a sequence of `add_device` / `deploy` / `pair` calls) with one
//! declarative pass:
//!
//! ```
//! use flux_core::WorldBuilder;
//! use flux_device::DeviceProfile;
//! use flux_workloads::spec;
//!
//! let (mut world, ids) = WorldBuilder::new()
//!     .seed(42)
//!     .device("phone", DeviceProfile::nexus4())
//!     .device("tablet", DeviceProfile::nexus7_2013())
//!     .app(0, spec("WhatsApp").unwrap())
//!     .pair(0, 1)
//!     .build()
//!     .unwrap();
//! assert_eq!(ids.len(), 2);
//! assert!(world.device(ids[0]).unwrap().apps.contains_key("com.whatsapp"));
//! # let _ = &mut world;
//! ```
//!
//! Devices are referred to by the order they were declared in; `build()`
//! boots every device, deploys every app, then pairs — and returns the
//! world together with the device ids in declaration order.

use crate::errors::FluxError;
use crate::pairing::pair;
use crate::world::{DeviceId, FluxWorld, ReplayPolicy};
use flux_device::DeviceProfile;
use flux_net::NetworkEnv;
use flux_simcore::{FaultPlan, SimClock};
use flux_telemetry::Telemetry;
use flux_workloads::AppSpec;

/// Declarative [`FluxWorld`] construction. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct WorldBuilder {
    seed: u64,
    recording: bool,
    policy: ReplayPolicy,
    fault_plan: FaultPlan,
    event_capacity: Option<usize>,
    devices: Vec<(String, DeviceProfile)>,
    apps: Vec<(usize, AppSpec)>,
    pairs: Vec<(usize, usize)>,
}

impl WorldBuilder {
    /// Starts a builder: seed 0, campus network, recording on, no faults.
    pub fn new() -> Self {
        Self {
            recording: true,
            ..Self::default()
        }
    }

    /// Sets the RNG seed every stochastic stream derives from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables Selective Record interposition (default: on).
    /// Disabling models vanilla AOSP for the Figure 16 comparison.
    pub fn recording(mut self, on: bool) -> Self {
        self.recording = on;
        self
    }

    /// Sets the Adaptive Replay policy.
    pub fn policy(mut self, policy: ReplayPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a fault schedule. The default is the empty plan, which is
    /// byte-identical to a world without fault injection.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Caps the telemetry event log at `limit` events; overflow is counted
    /// in `flux.telemetry.events_dropped` instead of growing memory without
    /// bound (long fault sweeps emit millions of chunk/fault events).
    pub fn event_capacity(mut self, limit: usize) -> Self {
        self.event_capacity = Some(limit);
        self
    }

    /// Declares a device; later `device_ref` arguments refer to devices by
    /// declaration order (0-based).
    pub fn device(mut self, name: &str, profile: DeviceProfile) -> Self {
        self.devices.push((name.to_owned(), profile));
        self
    }

    /// Deploys (installs + launches) `spec` on the `device_ref`-th device.
    pub fn app(mut self, device_ref: usize, spec: AppSpec) -> Self {
        self.apps.push((device_ref, spec));
        self
    }

    /// Pairs the `home_ref`-th device with the `guest_ref`-th device after
    /// all apps are deployed.
    pub fn pair(mut self, home_ref: usize, guest_ref: usize) -> Self {
        self.pairs.push((home_ref, guest_ref));
        self
    }

    /// Builds the world: boots devices, deploys apps, performs pairings.
    /// Returns the world and the [`DeviceId`]s in declaration order.
    pub fn build(self) -> Result<(FluxWorld, Vec<DeviceId>), FluxError> {
        let mut telemetry = Telemetry::new();
        if let Some(limit) = self.event_capacity {
            telemetry.set_event_capacity(limit);
        }
        let mut world = FluxWorld {
            clock: SimClock::new(),
            net: NetworkEnv::campus(self.seed),
            telemetry,
            policy: self.policy,
            recording: self.recording,
            fault_plan: self.fault_plan,
            devices: Vec::new(),
        };
        let mut ids = Vec::with_capacity(self.devices.len());
        for (name, profile) in self.devices {
            ids.push(world.add_device(&name, profile)?);
        }
        let resolve = |r: usize, what: &str| -> Result<DeviceId, FluxError> {
            ids.get(r).copied().ok_or_else(|| {
                FluxError::Config(format!(
                    "{what} refers to device {r}, but only {} devices were declared",
                    ids.len()
                ))
            })
        };
        for (r, spec) in &self.apps {
            let id = resolve(*r, "app")?;
            world.deploy(id, spec)?;
        }
        for (home, guest) in &self.pairs {
            let h = resolve(*home, "pairing home")?;
            let g = resolve(*guest, "pairing guest")?;
            if h == g {
                return Err(FluxError::Config(format!(
                    "device {home} cannot pair with itself"
                )));
            }
            pair(&mut world, h, g)?;
        }
        Ok((world, ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_workloads::spec;

    #[test]
    fn builds_devices_apps_and_pairings() {
        let (world, ids) = WorldBuilder::new()
            .seed(7)
            .device("phone", DeviceProfile::nexus4())
            .device("tablet", DeviceProfile::nexus7_2013())
            .app(0, spec("WhatsApp").expect("spec"))
            .pair(0, 1)
            .build()
            .expect("build");
        assert_eq!(ids.len(), 2);
        assert!(world
            .device(ids[0])
            .unwrap()
            .apps
            .contains_key("com.whatsapp"));
        assert!(world
            .device(ids[1])
            .unwrap()
            .pairings
            .get(&ids[0].0)
            .is_some_and(|p| p.packages.contains("com.whatsapp")));
    }

    #[test]
    fn build_matches_the_positional_construction_exactly() {
        let (built, ids) = WorldBuilder::new()
            .seed(42)
            .device("phone", DeviceProfile::nexus4())
            .app(0, spec("Twitter").expect("spec"))
            .build()
            .expect("build");

        // Hand-rolled positional construction of the same world.
        let mut legacy = FluxWorld {
            clock: SimClock::new(),
            net: NetworkEnv::campus(42),
            telemetry: Telemetry::new(),
            policy: ReplayPolicy::default(),
            recording: true,
            fault_plan: FaultPlan::none(),
            devices: Vec::new(),
        };
        let phone = legacy.add_device("phone", DeviceProfile::nexus4()).unwrap();
        legacy.deploy(phone, &spec("Twitter").unwrap()).unwrap();

        assert_eq!(ids[0], phone);
        assert_eq!(built.clock.now(), legacy.clock.now());
        assert_eq!(
            built.device(ids[0]).unwrap().apps.len(),
            legacy.device(phone).unwrap().apps.len()
        );
    }

    #[test]
    fn devices_get_distinct_lanes() {
        let (world, ids) = WorldBuilder::new()
            .device("phone", DeviceProfile::nexus4())
            .device("tablet", DeviceProfile::nexus7_2013())
            .build()
            .expect("build");
        let a = world.device(ids[0]).unwrap().lane;
        let b = world.device(ids[1]).unwrap().lane;
        assert_ne!(a, b);
        assert_eq!(world.telemetry.lanes().len(), 3); // world + 2 devices
    }

    #[test]
    fn out_of_range_refs_are_config_errors() {
        let err = WorldBuilder::new()
            .device("phone", DeviceProfile::nexus4())
            .app(3, spec("WhatsApp").expect("spec"))
            .build()
            .unwrap_err();
        assert!(matches!(err, FluxError::Config(_)));
        assert!(err.to_string().contains("world configuration"));
    }
}
