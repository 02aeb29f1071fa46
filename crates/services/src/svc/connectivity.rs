//! The ConnectivityManagerService.
//!
//! Flux does not restore network connections; the reintegration stage tells
//! the app "connectivity was lost, a new connection is available" (§3.1).
//! [`ConnectivityManagerService::set_connected`] is the hook it uses.

use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// The connectivity service state.
#[derive(Debug, Clone)]
pub struct ConnectivityManagerService {
    connected: bool,
    network_type: i32,
    network_preference: i32,
    feature_requests: BTreeMap<(Uid, i32, String), u32>,
    routes: Vec<(Uid, i32, Vec<u8>)>,
}

impl Default for ConnectivityManagerService {
    fn default() -> Self {
        Self {
            connected: true,
            network_type: 1, // TYPE_WIFI
            network_preference: 1,
            feature_requests: BTreeMap::new(),
            routes: Vec::new(),
        }
    }
}

impl ConnectivityManagerService {
    /// Whether an active network exists.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Sets the active-network state (used by Flux reintegration and by
    /// workloads simulating wireless churn).
    pub fn set_connected(&mut self, connected: bool) {
        self.connected = connected;
    }

    /// Feature requests held by `uid`.
    pub fn features_of(&self, uid: Uid) -> usize {
        self.feature_requests
            .keys()
            .filter(|(u, _, _)| *u == uid)
            .count()
    }
}

impl SystemService for ConnectivityManagerService {
    fn descriptor(&self) -> &'static str {
        "IConnectivityManager"
    }

    fn registry_name(&self) -> &'static str {
        "connectivity"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "getActiveNetworkInfo" => Ok(Parcel::new()
                .with_bool(self.connected)
                .with_i32(self.network_type)),
            "getNetworkInfo" => {
                let ty = args.i32(0)?;
                Ok(Parcel::new()
                    .with_bool(self.connected && ty == self.network_type)
                    .with_i32(ty))
            }
            "isNetworkSupported" => {
                let ty = args.i32(0)?;
                Ok(Parcel::new().with_bool(ty == 1 || ty == 0))
            }
            "isActiveNetworkMetered" => Ok(Parcel::new().with_bool(false)),
            "setNetworkPreference" => {
                self.network_preference = args.i32(0)?;
                Ok(Parcel::new())
            }
            "getNetworkPreference" => Ok(Parcel::new().with_i32(self.network_preference)),
            "startUsingNetworkFeature" => {
                let ty = args.i32(0)?;
                let feature = args.str(1)?.to_owned();
                *self
                    .feature_requests
                    .entry((ctx.caller_uid, ty, feature))
                    .or_insert(0) += 1;
                Ok(Parcel::new().with_i32(0))
            }
            "stopUsingNetworkFeature" => {
                let ty = args.i32(0)?;
                let feature = args.str(1)?.to_owned();
                self.feature_requests.remove(&(ctx.caller_uid, ty, feature));
                Ok(Parcel::new().with_i32(0))
            }
            "requestRouteToHostAddress" => {
                let ty = args.i32(0)?;
                let addr = args.blob(1)?.to_vec();
                self.routes.push((ctx.caller_uid, ty, addr));
                Ok(Parcel::new().with_bool(true))
            }
            _ => Ok(Parcel::new()),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
