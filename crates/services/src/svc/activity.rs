//! The ActivityManagerService.
//!
//! Tracks per-app receiver registrations, started/bound services, pending
//! intents and task ordering — the app-specific AMS state the record log
//! must recreate on the guest — and distributes broadcast intents to
//! matching receivers (§2 of the paper).

use crate::intent::{Event, Intent};
use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// A registered broadcast receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiverRecord {
    /// Owning app.
    pub uid: Uid,
    /// Receiver identity (the Binder object, stringified).
    pub receiver: String,
    /// Actions the filter matches.
    pub actions: Vec<String>,
}

/// A started (possibly foreground) app service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRecord {
    /// Owning app.
    pub uid: Uid,
    /// Service intent identity.
    pub service: String,
    /// Whether `setServiceForeground` was applied.
    pub foreground: bool,
}

/// The activity-manager state.
#[derive(Debug, Clone)]
pub struct ActivityManagerService {
    receivers: Vec<ReceiverRecord>,
    services: BTreeMap<(Uid, String), ServiceRecord>,
    bindings: BTreeMap<(Uid, String), String>,
    pending_intents: BTreeMap<(Uid, String), String>,
    /// Task z-order, most recent first; entries are (uid, task id).
    pub task_order: Vec<(Uid, i32)>,
    /// Current global configuration (width, height).
    pub configuration: (u32, u32),
    /// Per-activity requested orientations.
    orientations: BTreeMap<String, i32>,
    process_limit: i32,
}

impl ActivityManagerService {
    /// Creates the service with the device's screen configuration.
    pub fn new(screen: (u32, u32)) -> Self {
        Self {
            receivers: Vec::new(),
            services: BTreeMap::new(),
            bindings: BTreeMap::new(),
            pending_intents: BTreeMap::new(),
            task_order: Vec::new(),
            configuration: screen,
            orientations: BTreeMap::new(),
            process_limit: 0,
        }
    }

    /// Receivers registered by `uid`.
    pub fn receivers_of(&self, uid: Uid) -> Vec<&ReceiverRecord> {
        self.receivers.iter().filter(|r| r.uid == uid).collect()
    }

    /// Started services of `uid`.
    pub fn services_of(&self, uid: Uid) -> Vec<&ServiceRecord> {
        self.services.values().filter(|s| s.uid == uid).collect()
    }

    /// Service bindings of `uid` (connection → service intent).
    pub fn bindings_of(&self, uid: Uid) -> Vec<(&str, &str)> {
        self.bindings
            .iter()
            .filter(|((u, _), _)| *u == uid)
            .map(|((_, c), s)| (c.as_str(), s.as_str()))
            .collect()
    }

    /// Delivers `intent` to every receiver whose filter matches, queueing
    /// events on `ctx`. Returns the number of receivers matched.
    pub fn broadcast(&self, ctx: &mut ServiceCtx<'_>, intent: &Intent) -> usize {
        let mut matched = 0;
        for r in &self.receivers {
            if r.actions.iter().any(|a| a == &intent.action) {
                ctx.deliver(
                    r.uid,
                    Event::Broadcast {
                        intent: intent.clone(),
                    },
                );
                matched += 1;
            }
        }
        matched
    }
}

impl SystemService for ActivityManagerService {
    fn descriptor(&self) -> &'static str {
        "IActivityManager"
    }

    fn registry_name(&self) -> &'static str {
        "activity"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "registerReceiver" => {
                // (caller, callerPackage, receiver, filter, perm, userId) —
                // receiver identity is arg 2, filter actions arg 3 as a
                // comma-separated action list.
                let receiver = format!("{}", args.get(2)?.clone());
                let actions: Vec<String> = args
                    .str(3)?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                self.receivers.push(ReceiverRecord {
                    uid: ctx.caller_uid,
                    receiver,
                    actions,
                });
                Ok(Parcel::new().with_null())
            }
            "unregisterReceiver" => {
                let receiver = format!("{}", args.get(0)?.clone());
                let uid = ctx.caller_uid;
                self.receivers
                    .retain(|r| !(r.uid == uid && r.receiver == receiver));
                Ok(Parcel::new())
            }
            "broadcastIntent" => {
                let action = args.str(1)?.to_owned();
                let intent = Intent::new(&action);
                let matched = self.broadcast(ctx, &intent);
                Ok(Parcel::new().with_i32(matched as i32))
            }
            "startService" => {
                let service = args.str(1)?.to_owned();
                self.services.insert(
                    (ctx.caller_uid, service.clone()),
                    ServiceRecord {
                        uid: ctx.caller_uid,
                        service,
                        foreground: false,
                    },
                );
                Ok(Parcel::new())
            }
            "stopService" => {
                let service = args.str(1)?.to_owned();
                let existed = self.services.remove(&(ctx.caller_uid, service)).is_some();
                Ok(Parcel::new().with_i32(i32::from(existed)))
            }
            "setServiceForeground" => {
                let token = args.str(1)?.to_owned();
                if let Some(s) = self.services.get_mut(&(ctx.caller_uid, token)) {
                    s.foreground = true;
                }
                Ok(Parcel::new())
            }
            "bindService" => {
                let service = args.str(2)?.to_owned();
                let connection = format!("{}", args.get(4)?.clone());
                self.bindings.insert((ctx.caller_uid, connection), service);
                Ok(Parcel::new().with_i32(1))
            }
            "unbindService" => {
                let connection = format!("{}", args.get(0)?.clone());
                let existed = self
                    .bindings
                    .remove(&(ctx.caller_uid, connection))
                    .is_some();
                Ok(Parcel::new().with_bool(existed))
            }
            "getIntentSender" => {
                let package = args.str(1)?.to_owned();
                let token = args.str(2).unwrap_or("token").to_owned();
                self.pending_intents
                    .insert((ctx.caller_uid, token.clone()), package);
                Ok(Parcel::new().with_str(token))
            }
            "cancelIntentSender" => {
                let token = args.str(0)?.to_owned();
                self.pending_intents.remove(&(ctx.caller_uid, token));
                Ok(Parcel::new())
            }
            "moveTaskToFront" => {
                let task = args.i32(0)?;
                let uid = ctx.caller_uid;
                self.task_order.retain(|(u, t)| !(*u == uid && *t == task));
                self.task_order.insert(0, (uid, task));
                Ok(Parcel::new())
            }
            "moveTaskToBack" => {
                let task = args.i32(0)?;
                let uid = ctx.caller_uid;
                self.task_order.retain(|(u, t)| !(*u == uid && *t == task));
                self.task_order.push((uid, task));
                Ok(Parcel::new())
            }
            "updateConfiguration" => {
                let w = args.i32(0)? as u32;
                let h = args.i32(1)? as u32;
                self.configuration = (w, h);
                Ok(Parcel::new())
            }
            "getConfiguration" => Ok(Parcel::new()
                .with_i32(self.configuration.0 as i32)
                .with_i32(self.configuration.1 as i32)),
            "setRequestedOrientation" => {
                let token = args.str(0)?.to_owned();
                let orientation = args.i32(1)?;
                self.orientations.insert(token, orientation);
                Ok(Parcel::new())
            }
            "getRequestedOrientation" => {
                let token = args.str(0)?;
                Ok(Parcel::new().with_i32(*self.orientations.get(token).unwrap_or(&-1)))
            }
            "setProcessLimit" => {
                self.process_limit = args.i32(0)?;
                Ok(Parcel::new())
            }
            "getProcessLimit" => Ok(Parcel::new().with_i32(self.process_limit)),
            // Lifecycle notifications and queries with no migratable state.
            "activityPaused"
            | "activityStopped"
            | "activityResumed"
            | "activityIdle"
            | "activityDestroyed"
            | "activitySlept"
            | "finishActivity"
            | "unhandledBack"
            | "reportActivityFullyDrawn"
            | "notifyActivityDrawn" => Ok(Parcel::new()),
            _ => Ok(Parcel::new()),
        }
    }

    fn on_uid_death(&mut self, _ctx: &mut ServiceCtx<'_>, uid: Uid) {
        self.receivers.retain(|r| r.uid != uid);
        self.services.retain(|(u, _), _| *u != uid);
        self.bindings.retain(|(u, _), _| *u != uid);
        self.pending_intents.retain(|(u, _), _| *u != uid);
        self.task_order.retain(|(u, _)| *u != uid);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
