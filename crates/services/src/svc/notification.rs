//! The NotificationManagerService.
//!
//! The paper's canonical Selective Record example (Figures 6–7): posted
//! notifications are app-specific service state that must reappear on the
//! guest, while cancelled ones must not.

use crate::intent::Event;
use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// One posted notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationRecord {
    /// Posting package.
    pub pkg: String,
    /// Optional tag.
    pub tag: Option<String>,
    /// App-chosen id.
    pub id: i32,
    /// Payload size (icon + content), bytes.
    pub payload: usize,
}

type Key = (Uid, Option<String>, i32);

/// The notification service state.
#[derive(Debug, Clone, Default)]
pub struct NotificationManagerService {
    active: BTreeMap<Key, NotificationRecord>,
    enabled: BTreeMap<(String, u32), bool>,
    listeners: BTreeMap<Uid, Vec<String>>,
}

impl NotificationManagerService {
    /// Active notifications posted by `uid`, in key order.
    pub fn active_for(&self, uid: Uid) -> Vec<&NotificationRecord> {
        self.active
            .iter()
            .filter(|((u, _, _), _)| *u == uid)
            .map(|(_, r)| r)
            .collect()
    }

    /// Total active notifications.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    fn enqueue(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        pkg: &str,
        tag: Option<String>,
        id: i32,
        payload: usize,
    ) {
        self.active.insert(
            (ctx.caller_uid, tag.clone(), id),
            NotificationRecord {
                pkg: pkg.to_owned(),
                tag,
                id,
                payload,
            },
        );
        ctx.deliver(ctx.caller_uid, Event::NotificationPosted { id });
    }
}

impl SystemService for NotificationManagerService {
    fn descriptor(&self) -> &'static str {
        "INotificationManager"
    }

    fn registry_name(&self) -> &'static str {
        "notification"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "enqueueNotification" => {
                let pkg = args.str(0)?.to_owned();
                let id = args.i32(1)?;
                let payload = args.blob(2).map(<[u8]>::len).unwrap_or(256);
                self.enqueue(ctx, &pkg, None, id, payload);
                Ok(Parcel::new())
            }
            "cancelNotification" => {
                let id = args.i32(1)?;
                self.active.remove(&(ctx.caller_uid, None, id));
                Ok(Parcel::new())
            }
            "cancelAllNotifications" => {
                let uid = ctx.caller_uid;
                self.active.retain(|(u, _, _), _| *u != uid);
                Ok(Parcel::new())
            }
            "enqueueNotificationWithTag" => {
                let pkg = args.str(0)?.to_owned();
                let tag = args.str(1)?.to_owned();
                let id = args.i32(2)?;
                let payload = args.blob(3).map(<[u8]>::len).unwrap_or(256);
                self.enqueue(ctx, &pkg, Some(tag), id, payload);
                Ok(Parcel::new())
            }
            "cancelNotificationWithTag" => {
                let tag = args.str(1)?.to_owned();
                let id = args.i32(2)?;
                self.active.remove(&(ctx.caller_uid, Some(tag), id));
                Ok(Parcel::new())
            }
            "setNotificationsEnabledForPackage" => {
                let pkg = args.str(0)?.to_owned();
                let uid = args.i32(1)? as u32;
                let enabled = args.bool(2)?;
                self.enabled.insert((pkg, uid), enabled);
                Ok(Parcel::new())
            }
            "areNotificationsEnabledForPackage" => {
                let pkg = args.str(0)?;
                let uid = args.i32(1)? as u32;
                let enabled = *self.enabled.get(&(pkg.to_owned(), uid)).unwrap_or(&true);
                Ok(Parcel::new().with_bool(enabled))
            }
            "getActiveNotifications" => {
                Ok(Parcel::new().with_i32(self.active_for(ctx.caller_uid).len() as i32))
            }
            "registerListener" => {
                let label = format!(
                    "listener#{}",
                    args.object(0).map(|o| format!("{o:?}")).unwrap_or_default()
                );
                self.listeners
                    .entry(ctx.caller_uid)
                    .or_default()
                    .push(label);
                Ok(Parcel::new())
            }
            "unregisterListener" => {
                self.listeners.remove(&ctx.caller_uid);
                Ok(Parcel::new())
            }
            // Toasts and listener cancellation have no migratable state.
            "enqueueToast"
            | "cancelToast"
            | "getHistoricalNotifications"
            | "cancelNotificationFromListener" => Ok(Parcel::new()),
            other => Err(ctx.fail(self.descriptor(), other, "unhandled method")),
        }
    }

    fn on_uid_death(&mut self, _ctx: &mut ServiceCtx<'_>, uid: Uid) {
        self.active.retain(|(u, _, _), _| *u != uid);
        self.listeners.remove(&uid);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
