//! The Selective Record runtime.
//!
//! "During app execution, Flux selectively records an app's interactions
//! with system services through Binder's IPC mechanism ... The recorded log
//! is primarily used to restore the app-specific state of system services
//! once the app has migrated to a guest device ... It is kept small by
//! automatically discarding stale calls" (§3.1–3.2).
//!
//! The runtime consults the [`flux_aidl::CompiledInterface`] rules produced
//! from the decorated AIDL definitions: on every service call it applies
//! the `@drop`/`@if` matching against previous log entries, then records
//! (or suppresses) the new call. The paper stores the log in SQLite; here
//! it is an in-memory indexed log with the same semantics and a measured
//! wire size that feeds the transfer model.

use flux_aidl::{CompiledInterface, CompiledRule};
use flux_binder::Parcel;
use flux_simcore::{SimTime, Uid};
use std::collections::BTreeMap;

/// One recorded service call.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// Monotonic sequence number within the app's log.
    pub seq: u64,
    /// ServiceManager name of the called service (e.g. `"alarm"`).
    pub service: String,
    /// AIDL descriptor (e.g. `"IAlarmManager"`).
    pub descriptor: String,
    /// Method name.
    pub method: String,
    /// Arguments, exactly as sent.
    pub args: Parcel,
    /// The reply the home device's service returned. Replay proxies need
    /// this when the return value carried a handle or descriptor the app
    /// kept using (the SensorService case, §3.2).
    pub reply: Parcel,
    /// Virtual time of the call.
    pub at: SimTime,
}

/// Outcome of offering one call to the recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordOutcome {
    /// Whether the call was appended to the log.
    pub recorded: bool,
    /// How many previous entries the drop rules removed.
    pub dropped: usize,
    /// Whether recording was suppressed because a foreign drop matched
    /// (the `cancelNotification` pattern).
    pub suppressed: bool,
}

/// The per-app record log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallLog {
    entries: Vec<CallRecord>,
    next_seq: u64,
    /// Total calls ever offered (recorded or not), for overhead accounting.
    pub calls_seen: u64,
    /// Total entries ever dropped by rules.
    pub total_dropped: u64,
}

impl CallLog {
    /// Current log entries in sequence order.
    pub fn entries(&self) -> &[CallRecord] {
        &self.entries
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate serialized size of the log in bytes (ships with the
    /// checkpoint; the paper reports logs under 200 KB compressed).
    pub fn wire_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| {
                (e.service.len() + e.descriptor.len() + e.method.len()) as u64
                    + e.args.wire_size() as u64
                    + e.reply.wire_size() as u64
                    + 24
            })
            .sum()
    }

    /// Offers a call to the recorder under `iface`'s rules.
    ///
    /// Calls to methods without `@record` are counted but never stored.
    pub fn offer(
        &mut self,
        iface: &CompiledInterface,
        service: &str,
        method: &str,
        args: &Parcel,
        reply: &Parcel,
        at: SimTime,
    ) -> RecordOutcome {
        self.calls_seen += 1;
        let Some(rule) = iface.rule(method) else {
            return RecordOutcome {
                recorded: false,
                dropped: 0,
                suppressed: false,
            };
        };
        if !rule.recorded {
            return RecordOutcome {
                recorded: false,
                dropped: 0,
                suppressed: false,
            };
        }

        let (dropped, foreign_dropped) = self.apply_drops(rule, &iface.descriptor, args);
        self.total_dropped += dropped as u64;

        let suppressed = rule.suppress_on_foreign_drop && foreign_dropped > 0;
        if suppressed {
            return RecordOutcome {
                recorded: false,
                dropped,
                suppressed: true,
            };
        }
        self.next_seq += 1;
        self.entries.push(CallRecord {
            seq: self.next_seq,
            service: service.to_owned(),
            descriptor: iface.descriptor.clone(),
            method: method.to_owned(),
            args: args.clone(),
            reply: reply.clone(),
            at,
        });
        RecordOutcome {
            recorded: true,
            dropped,
            suppressed: false,
        }
    }

    /// Applies the rule's drop list against the log; returns
    /// `(total_dropped, foreign_dropped)`.
    fn apply_drops(
        &mut self,
        rule: &CompiledRule,
        descriptor: &str,
        args: &Parcel,
    ) -> (usize, usize) {
        let mut dropped = 0;
        let mut foreign = 0;
        for drop in &rule.drops {
            let before = self.entries.len();
            self.entries.retain(|e| {
                if e.descriptor != descriptor || e.method != drop.target {
                    return true;
                }
                // A previous call is dropped if ANY alternative signature
                // matches: all named args equal between the calls.
                let matches = drop.sigs.iter().any(|sig| {
                    sig.pairs.iter().all(|(caller_idx, target_idx)| {
                        match (args.get(*caller_idx), e.args.get(*target_idx)) {
                            (Ok(a), Ok(b)) => a == b,
                            _ => false,
                        }
                    })
                });
                !matches
            });
            let removed = before - self.entries.len();
            dropped += removed;
            if !drop.is_this {
                foreign += removed;
            }
        }
        (dropped, foreign)
    }

    /// Removes every entry for `service` (used when a service's state is
    /// reset wholesale, e.g. package data cleared).
    pub fn purge_service(&mut self, service: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.service != service);
        before - self.entries.len()
    }
}

/// Record logs for every app on a device, keyed by UID.
#[derive(Debug, Clone, Default)]
pub struct RecordStore {
    logs: BTreeMap<Uid, CallLog>,
}

impl RecordStore {
    /// The log for `uid`, created on first use.
    pub fn log_mut(&mut self, uid: Uid) -> &mut CallLog {
        self.logs.entry(uid).or_default()
    }

    /// The log for `uid`, if any calls were offered.
    pub fn log(&self, uid: Uid) -> Option<&CallLog> {
        self.logs.get(&uid)
    }

    /// Removes and returns the log for `uid` (shipped with a migration).
    pub fn take(&mut self, uid: Uid) -> CallLog {
        self.logs.remove(&uid).unwrap_or_default()
    }

    /// Installs a migrated log under a (possibly different) UID on the
    /// guest device.
    pub fn install(&mut self, uid: Uid, log: CallLog) {
        self.logs.insert(uid, log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_aidl::{compile, parse_one};

    fn notification_iface() -> CompiledInterface {
        compile(
            &parse_one(
                r#"
interface INotificationManager {
    @record {
        @drop this;
        @if pkg, id;
    }
    void enqueueNotification(String pkg, int id, in Notification notification);
    @record {
        @drop this, enqueueNotification;
        @if pkg, id;
    }
    void cancelNotification(String pkg, int id);
    boolean areNotificationsEnabled(String pkg);
}
"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn enqueue(id: i32) -> Parcel {
        Parcel::new()
            .with_str("com.x")
            .with_i32(id)
            .with_blob(vec![0; 64])
    }

    fn cancel(id: i32) -> Parcel {
        Parcel::new().with_str("com.x").with_i32(id)
    }

    #[test]
    fn undecorated_methods_are_not_recorded() {
        let iface = notification_iface();
        let mut log = CallLog::default();
        let out = log.offer(
            &iface,
            "notification",
            "areNotificationsEnabled",
            &Parcel::new().with_str("com.x"),
            &Parcel::new(),
            SimTime::ZERO,
        );
        assert!(!out.recorded);
        assert!(log.is_empty());
        assert_eq!(log.calls_seen, 1);
    }

    #[test]
    fn cancel_erases_matching_enqueue_and_suppresses_itself() {
        let iface = notification_iface();
        let mut log = CallLog::default();
        log.offer(
            &iface,
            "notification",
            "enqueueNotification",
            &enqueue(1),
            &Parcel::new(),
            SimTime::ZERO,
        );
        log.offer(
            &iface,
            "notification",
            "enqueueNotification",
            &enqueue(2),
            &Parcel::new(),
            SimTime::ZERO,
        );
        assert_eq!(log.len(), 2);

        let out = log.offer(
            &iface,
            "notification",
            "cancelNotification",
            &cancel(1),
            &Parcel::new(),
            SimTime::ZERO,
        );
        assert!(out.suppressed);
        assert!(!out.recorded);
        assert_eq!(out.dropped, 1);
        // Only the id=2 enqueue survives; the cancel itself is absent.
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].args.i32(1).unwrap(), 2);
    }

    #[test]
    fn cancel_without_match_is_recorded() {
        // A cancel for a notification posted before recording started must
        // itself be replayed (it may cancel state on the guest).
        let iface = notification_iface();
        let mut log = CallLog::default();
        let out = log.offer(
            &iface,
            "notification",
            "cancelNotification",
            &cancel(9),
            &Parcel::new(),
            SimTime::ZERO,
        );
        assert!(out.recorded);
        assert!(!out.suppressed);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn re_enqueue_replaces_previous_same_id() {
        let iface = notification_iface();
        let mut log = CallLog::default();
        log.offer(
            &iface,
            "notification",
            "enqueueNotification",
            &enqueue(1),
            &Parcel::new(),
            SimTime::ZERO,
        );
        let out = log.offer(
            &iface,
            "notification",
            "enqueueNotification",
            &enqueue(1),
            &Parcel::new(),
            SimTime::from_secs(1),
        );
        assert!(out.recorded);
        assert_eq!(out.dropped, 1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].at, SimTime::from_secs(1));
    }

    #[test]
    fn wire_bytes_shrink_when_entries_drop() {
        let iface = notification_iface();
        let mut log = CallLog::default();
        log.offer(
            &iface,
            "notification",
            "enqueueNotification",
            &enqueue(1),
            &Parcel::new(),
            SimTime::ZERO,
        );
        let full = log.wire_bytes();
        log.offer(
            &iface,
            "notification",
            "cancelNotification",
            &cancel(1),
            &Parcel::new(),
            SimTime::ZERO,
        );
        assert!(log.wire_bytes() < full);
    }

    #[test]
    fn record_store_take_and_install() {
        let iface = notification_iface();
        let mut store = RecordStore::default();
        store.log_mut(Uid(10_001)).offer(
            &iface,
            "notification",
            "enqueueNotification",
            &enqueue(1),
            &Parcel::new(),
            SimTime::ZERO,
        );
        let log = store.take(Uid(10_001));
        assert_eq!(log.len(), 1);
        assert!(store.log(Uid(10_001)).is_none());
        let mut guest = RecordStore::default();
        guest.install(Uid(10_077), log);
        assert_eq!(guest.log(Uid(10_077)).unwrap().len(), 1);
    }
}
