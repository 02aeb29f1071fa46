//! Scriptable app actions.
//!
//! An [`Action`] is one step of a workload: it maps onto one or more
//! decorated service calls, memory operations or file writes in the
//! environment. Keeping actions as plain data lets the same script run
//! before and after a migration and lets tests compare the outcomes.

/// One step of an app workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Post a notification with the given id and payload size.
    PostNotification {
        /// Notification id.
        id: i32,
        /// Payload size in KiB.
        payload_kib: u32,
    },
    /// Cancel a previously posted notification.
    CancelNotification {
        /// Notification id.
        id: i32,
    },
    /// Set an alarm `in_secs` from now, identified by its PendingIntent.
    SetAlarm {
        /// PendingIntent identity.
        operation: String,
        /// Seconds from now to trigger.
        in_secs: u64,
    },
    /// Cancel a pending alarm.
    CancelAlarm {
        /// PendingIntent identity.
        operation: String,
    },
    /// Create a sensor event connection, enable a sensor and open the
    /// event channel (the full §3.2 SensorService flow).
    UseSensor {
        /// Sensor handle (index into the device's sensor list).
        handle: i32,
    },
    /// Set a stream volume.
    SetVolume {
        /// Stream type (3 = music).
        stream: i32,
        /// Volume index in the *home* device's range.
        index: i32,
    },
    /// Request audio focus.
    RequestAudioFocus {
        /// Focus client id.
        client: String,
    },
    /// Acquire a wakelock through the PowerManager.
    AcquireWakeLock {
        /// Lock tag.
        tag: String,
    },
    /// Release a wakelock.
    ReleaseWakeLock {
        /// Lock tag.
        tag: String,
    },
    /// Register a broadcast receiver for comma-separated actions.
    RegisterReceiver {
        /// Receiver identity.
        receiver: String,
        /// Comma-separated action list.
        actions: String,
    },
    /// Put data on the clipboard.
    SetClipboard {
        /// Clip size in bytes.
        bytes: usize,
    },
    /// Request location updates from a provider (`"gps"`/`"network"`).
    RequestLocation {
        /// Provider name.
        provider: String,
    },
    /// Trigger a WiFi scan.
    WifiScan,
    /// Vibrate for the given duration.
    Vibrate {
        /// Milliseconds.
        ms: i64,
    },
    /// Render frames (dirties GPU state and the renderer cache).
    DrawFrames {
        /// Frame count.
        frames: u32,
    },
    /// Grow/dirty the Dalvik heap.
    AllocateHeap {
        /// New heap size in MiB.
        mib: u32,
        /// Dirty fraction after allocation.
        dirty: f64,
    },
    /// Write a file into the app's data directory.
    WriteDataFile {
        /// File name relative to the data dir.
        name: String,
        /// Size in KiB.
        kib: u64,
    },
    /// Prepare a data-directory write but hold it in app memory until the
    /// next lifecycle save point (`onPause`/`onStop` or the pre-checkpoint
    /// flush). A process killed before that point loses it — the
    /// lifecycle data-loss hazard of Riganelli et al.'s benchmark.
    BufferedWrite {
        /// File name relative to the data dir.
        name: String,
        /// Size in KiB.
        kib: u64,
    },
    /// Open a file on the *common* SD card area (blocks migration, §3.4).
    OpenCommonSdFile {
        /// Path under /sdcard/.
        name: String,
    },
    /// Begin a ContentProvider interaction (blocks migration while open).
    BeginProviderQuery,
    /// Finish the ContentProvider interaction.
    EndProviderQuery,
    /// Idle for the given virtual time.
    Think {
        /// Milliseconds.
        ms: u64,
    },
    /// A synchronous ContentProvider round-trip: opens the provider
    /// connection, holds it for `ms` of virtual time and — when
    /// `resolved` — closes it again. An unresolved call leaves the
    /// connection open across a later migration attempt, the §3.4 state
    /// the preflight refuses.
    ContentProviderCall {
        /// Virtual duration of the provider interaction.
        ms: u64,
        /// Whether the call completes; `false` leaves it open.
        resolved: bool,
    },
    /// Open a file on the SD card. App-scoped paths (under
    /// `/sdcard/Android/data/<package>/`) migrate fine; `common` opens a
    /// shared path instead — the §3.4 state that blocks migration.
    OpenSdFile {
        /// Path relative to the chosen SD-card root.
        name: String,
        /// Whether to open on common storage rather than the app area.
        common: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::Action;

    #[test]
    fn actions_are_plain_serializable_data() {
        let a = Action::SetAlarm {
            operation: "sync".into(),
            in_secs: 30,
        };
        let cloned = a.clone();
        assert_eq!(a, cloned);
    }
}
