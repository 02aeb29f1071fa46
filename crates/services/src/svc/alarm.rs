//! The AlarmManagerService.
//!
//! Figures 8–10 of the paper: alarms are set with a trigger time and a
//! PendingIntent `operation`; on migration the record log re-sets only
//! alarms that had not yet fired (the `alarmMgrSet` proxy compares against
//! the checkpoint time). Here alarms are backed by the kernel alarm driver
//! and fire through [`AlarmManagerService::kernel_alarm_fired`].

use crate::intent::Event;
use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_kernel::AlarmClockType;
use flux_simcore::{SimTime, Uid};
use std::any::Any;
use std::collections::BTreeMap;

/// A pending alarm as the service tracks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlarmRecord {
    /// Owning app.
    pub uid: Uid,
    /// Alarm type (RTC_WAKEUP etc., as passed by the app).
    pub alarm_type: i32,
    /// Absolute trigger time.
    pub trigger_at: SimTime,
    /// Identity of the PendingIntent to broadcast.
    pub operation: String,
    /// Kernel alarm cookie.
    pub cookie: u64,
}

/// The alarm service state.
#[derive(Debug, Clone, Default)]
pub struct AlarmManagerService {
    by_operation: BTreeMap<(Uid, String), AlarmRecord>,
    by_cookie: BTreeMap<u64, (Uid, String)>,
    /// Wall-clock offset applied by `setTime` (affects reporting only).
    pub time_offset_ms: i64,
    /// Current timezone id.
    pub timezone: String,
}

impl AlarmManagerService {
    /// Pending alarms of `uid`, soonest first.
    pub fn pending_for(&self, uid: Uid) -> Vec<&AlarmRecord> {
        let mut v: Vec<&AlarmRecord> = self
            .by_operation
            .values()
            .filter(|a| a.uid == uid)
            .collect();
        v.sort_by_key(|a| a.trigger_at);
        v
    }

    /// Total pending alarms.
    pub fn pending_count(&self) -> usize {
        self.by_operation.len()
    }

    /// Called by the environment when the kernel alarm driver fires
    /// `cookie`; returns the delivery for the owning app, if the alarm was
    /// still tracked.
    pub fn kernel_alarm_fired(&mut self, cookie: u64) -> Option<(Uid, Event)> {
        let key = self.by_cookie.remove(&cookie)?;
        let record = self.by_operation.remove(&key)?;
        Some((
            record.uid,
            Event::AlarmFired {
                operation: record.operation,
            },
        ))
    }

    fn set_alarm(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        alarm_type: i32,
        trigger_at: SimTime,
        operation: String,
    ) {
        let key = (ctx.caller_uid, operation.clone());
        // A re-set with the same operation replaces the previous alarm,
        // mirroring AlarmManager.set semantics.
        if let Some(prev) = self.by_operation.remove(&key) {
            ctx.kernel.alarm.cancel(prev.cookie);
            self.by_cookie.remove(&prev.cookie);
        }
        let clock = if alarm_type % 2 == 0 {
            AlarmClockType::RtcWakeup
        } else {
            AlarmClockType::Rtc
        };
        let cookie = ctx.kernel.alarm.set(ctx.service_pid, clock, trigger_at);
        self.by_cookie.insert(cookie, key.clone());
        self.by_operation.insert(
            key,
            AlarmRecord {
                uid: ctx.caller_uid,
                alarm_type,
                trigger_at,
                operation,
                cookie,
            },
        );
    }
}

impl SystemService for AlarmManagerService {
    fn descriptor(&self) -> &'static str {
        "IAlarmManager"
    }

    fn registry_name(&self) -> &'static str {
        "alarm"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "set" => {
                let alarm_type = args.i32(0)?;
                let trigger_at = SimTime::from_millis(args.i64(1)?.max(0) as u64);
                let operation = args.str(2)?.to_owned();
                self.set_alarm(ctx, alarm_type, trigger_at, operation);
                Ok(Parcel::new())
            }
            "remove" => {
                let operation = args.str(0)?.to_owned();
                if let Some(prev) = self.by_operation.remove(&(ctx.caller_uid, operation)) {
                    ctx.kernel.alarm.cancel(prev.cookie);
                    self.by_cookie.remove(&prev.cookie);
                }
                Ok(Parcel::new())
            }
            "setTime" => {
                self.time_offset_ms = args.i64(0)?;
                Ok(Parcel::new())
            }
            "setTimeZone" => {
                self.timezone = args.str(0)?.to_owned();
                Ok(Parcel::new())
            }
            other => Err(ctx.fail(self.descriptor(), other, "unhandled method")),
        }
    }

    fn on_uid_death(&mut self, ctx: &mut ServiceCtx<'_>, uid: Uid) {
        // Cancel the dead app's kernel alarms and forget its records.
        let dead: Vec<(Uid, String)> = self
            .by_operation
            .keys()
            .filter(|(u, _)| *u == uid)
            .cloned()
            .collect();
        for key in dead {
            if let Some(rec) = self.by_operation.remove(&key) {
                ctx.kernel.alarm.cancel(rec.cookie);
                self.by_cookie.remove(&rec.cookie);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
