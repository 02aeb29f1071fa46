//! The WifiService.

use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// The wifi service state.
#[derive(Debug, Clone)]
pub struct WifiService {
    enabled: bool,
    networks: BTreeMap<i32, (Uid, String)>,
    enabled_networks: Vec<i32>,
    locks: BTreeMap<(Uid, String), i32>,
    scans_requested: u64,
    next_net_id: i32,
    /// SSID of the current association (shared campus network).
    pub current_ssid: String,
}

impl Default for WifiService {
    fn default() -> Self {
        Self {
            enabled: true,
            networks: BTreeMap::new(),
            enabled_networks: Vec::new(),
            locks: BTreeMap::new(),
            scans_requested: 0,
            next_net_id: 1,
            current_ssid: "campus-wifi".into(),
        }
    }
}

impl WifiService {
    /// Whether the radio is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Configured networks added by `uid`.
    pub fn networks_of(&self, uid: Uid) -> Vec<(i32, &str)> {
        self.networks
            .iter()
            .filter(|(_, (u, _))| *u == uid)
            .map(|(id, (_, ssid))| (*id, ssid.as_str()))
            .collect()
    }

    /// Wifi locks held by `uid`.
    pub fn locks_of(&self, uid: Uid) -> usize {
        self.locks.keys().filter(|(u, _)| *u == uid).count()
    }

    /// Scans requested so far.
    pub fn scans_requested(&self) -> u64 {
        self.scans_requested
    }
}

impl SystemService for WifiService {
    fn descriptor(&self) -> &'static str {
        "IWifiManager"
    }

    fn registry_name(&self) -> &'static str {
        "wifi"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "setWifiEnabled" => {
                self.enabled = args.bool(0)?;
                Ok(Parcel::new().with_bool(true))
            }
            "getWifiEnabledState" => Ok(Parcel::new().with_i32(if self.enabled { 3 } else { 1 })),
            "startScan" => {
                self.scans_requested += 1;
                Ok(Parcel::new())
            }
            "getScanResults" => Ok(Parcel::new()
                .with_i32(1)
                .with_str(self.current_ssid.clone())),
            "getConnectionInfo" => Ok(Parcel::new()
                .with_bool(self.enabled)
                .with_str(self.current_ssid.clone())),
            "addOrUpdateNetwork" => {
                let ssid = args.str(0)?.to_owned();
                let id = self.next_net_id;
                self.next_net_id += 1;
                self.networks.insert(id, (ctx.caller_uid, ssid));
                Ok(Parcel::new().with_i32(id))
            }
            "removeNetwork" => {
                let id = args.i32(0)?;
                let existed = self.networks.remove(&id).is_some();
                self.enabled_networks.retain(|n| *n != id);
                Ok(Parcel::new().with_bool(existed))
            }
            "enableNetwork" => {
                let id = args.i32(0)?;
                if self.networks.contains_key(&id) {
                    if !self.enabled_networks.contains(&id) {
                        self.enabled_networks.push(id);
                    }
                    Ok(Parcel::new().with_bool(true))
                } else {
                    Ok(Parcel::new().with_bool(false))
                }
            }
            "disableNetwork" => {
                let id = args.i32(0)?;
                self.enabled_networks.retain(|n| *n != id);
                Ok(Parcel::new().with_bool(true))
            }
            "getConfiguredNetworks" => Ok(Parcel::new().with_i32(self.networks.len() as i32)),
            "acquireWifiLock" => {
                let token = args.str(0).unwrap_or("lock").to_owned();
                let lock_type = args.i32(1).unwrap_or(1);
                self.locks.insert((ctx.caller_uid, token), lock_type);
                Ok(Parcel::new().with_bool(true))
            }
            "releaseWifiLock" => {
                let token = args.str(0).unwrap_or("lock").to_owned();
                let existed = self.locks.remove(&(ctx.caller_uid, token)).is_some();
                Ok(Parcel::new().with_bool(existed))
            }
            "isDualBandSupported" => Ok(Parcel::new().with_bool(true)),
            "pingSupplicant" => Ok(Parcel::new().with_bool(self.enabled)),
            _ => Ok(Parcel::new()),
        }
    }

    fn on_uid_death(&mut self, _ctx: &mut ServiceCtx<'_>, uid: Uid) {
        self.locks.retain(|(u, _), _| *u != uid);
        let dead: Vec<i32> = self
            .networks
            .iter()
            .filter(|(_, (u, _))| *u == uid)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            self.networks.remove(&id);
            self.enabled_networks.retain(|n| *n != id);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
