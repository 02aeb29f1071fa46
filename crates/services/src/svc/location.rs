//! The LocationManagerService.
//!
//! The replay proxy for `requestLocationUpdates` consults the guest's
//! hardware inventory: if the GPS is absent, the request can be forwarded
//! over the network at the user's option (§3.2). The provider string of
//! deliveries makes that visible (`"network-forwarded:gps"`).

use crate::intent::Event;
use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// One registered update request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationRequest {
    /// Owning app.
    pub uid: Uid,
    /// Listener identity.
    pub listener: String,
    /// Provider: `"gps"`, `"network"`, or `"network-forwarded:gps"`.
    pub provider: String,
}

/// The location service state.
#[derive(Debug, Clone)]
pub struct LocationManagerService {
    has_gps: bool,
    requests: BTreeMap<(Uid, String), LocationRequest>,
    gps_listeners: BTreeMap<(Uid, String), ()>,
    last_fix: Option<(f64, f64)>,
}

impl LocationManagerService {
    /// Creates the service; `has_gps` reflects the device inventory.
    pub fn new(has_gps: bool) -> Self {
        Self {
            has_gps,
            requests: BTreeMap::new(),
            gps_listeners: BTreeMap::new(),
            last_fix: Some((44.8378, -0.5792)), // Bordeaux, naturally.
        }
    }

    /// Whether the device has a GPS receiver.
    pub fn has_gps(&self) -> bool {
        self.has_gps
    }

    /// Active update requests of `uid`.
    pub fn requests_of(&self, uid: Uid) -> Vec<&LocationRequest> {
        self.requests.values().filter(|r| r.uid == uid).collect()
    }

    /// Emits a fix to every registered listener of `uid`.
    pub fn pump_fix(&self, uid: Uid, ctx: &mut ServiceCtx<'_>) {
        for r in self.requests.values().filter(|r| r.uid == uid) {
            ctx.deliver(
                uid,
                Event::LocationFix {
                    provider: r.provider.clone(),
                },
            );
        }
    }
}

impl SystemService for LocationManagerService {
    fn descriptor(&self) -> &'static str {
        "ILocationManager"
    }

    fn registry_name(&self) -> &'static str {
        "location"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "requestLocationUpdates" => {
                // (request, listener, intent, packageName); the request
                // string names the provider.
                let provider = args.str(0)?.to_owned();
                let listener = format!("{}", args.get(1)?.clone());
                if provider == "gps" && !self.has_gps {
                    return Err(ctx.fail(
                        self.descriptor(),
                        method,
                        "no GPS hardware on this device",
                    ));
                }
                self.requests.insert(
                    (ctx.caller_uid, listener.clone()),
                    LocationRequest {
                        uid: ctx.caller_uid,
                        listener,
                        provider,
                    },
                );
                Ok(Parcel::new())
            }
            "removeUpdates" => {
                let listener = format!("{}", args.get(0)?.clone());
                self.requests.remove(&(ctx.caller_uid, listener));
                Ok(Parcel::new())
            }
            "addGpsStatusListener" => {
                let listener = format!("{}", args.get(0)?.clone());
                if !self.has_gps {
                    return Ok(Parcel::new().with_bool(false));
                }
                self.gps_listeners.insert((ctx.caller_uid, listener), ());
                Ok(Parcel::new().with_bool(true))
            }
            "removeGpsStatusListener" => {
                let listener = format!("{}", args.get(0)?.clone());
                self.gps_listeners.remove(&(ctx.caller_uid, listener));
                Ok(Parcel::new())
            }
            "getLastLocation" => match self.last_fix {
                Some((lat, lon)) => Ok(Parcel::new().with_f64(lat).with_f64(lon)),
                None => Ok(Parcel::new().with_null()),
            },
            "getAllProviders" => {
                let mut p = Parcel::new();
                p.push(flux_binder::Value::Str("network".into()));
                if self.has_gps {
                    p.push(flux_binder::Value::Str("gps".into()));
                }
                Ok(p)
            }
            "isProviderEnabled" => {
                let provider = args.str(0)?;
                Ok(Parcel::new().with_bool(provider != "gps" || self.has_gps))
            }
            _ => Ok(Parcel::new()),
        }
    }

    fn on_uid_death(&mut self, _ctx: &mut ServiceCtx<'_>, uid: Uid) {
        self.requests.retain(|(u, _), _| *u != uid);
        self.gps_listeners.retain(|(u, _), _| *u != uid);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
