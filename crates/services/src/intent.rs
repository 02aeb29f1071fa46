//! Intents, events and deliveries.
//!
//! Apps communicate with services "explicitly via RPC service interfaces or
//! through Intents" (§2 of the paper). Services produce [`Delivery`]s —
//! broadcasts, fired alarms, sensor events — which the environment routes
//! to the target app's process.

use flux_simcore::{SimTime, Uid};
use std::fmt;

/// Well-known broadcast action delivered on connectivity changes; Flux's
/// reintegration stage sends a disconnect + reconnect pair of these.
pub const ACTION_CONNECTIVITY_CHANGE: &str = "android.net.conn.CONNECTIVITY_CHANGE";

/// Broadcast action delivered when the device configuration (screen size,
/// orientation, density) changes — the hook Flux uses to make a migrated
/// app re-layout for the guest display.
pub const ACTION_CONFIGURATION_CHANGED: &str = "android.intent.action.CONFIGURATION_CHANGED";

/// A messaging object used to request an action from another component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Intent {
    /// Action string, e.g. [`ACTION_CONNECTIVITY_CHANGE`].
    pub action: String,
    /// Explicit target package, or `None` for implicit broadcast.
    pub package: Option<String>,
    /// Opaque extras payload (serialized Bundle).
    pub extras: Vec<(String, String)>,
}

impl Intent {
    /// Creates an implicit intent with just an action.
    pub fn new(action: &str) -> Self {
        Self {
            action: action.to_owned(),
            package: None,
            extras: Vec::new(),
        }
    }

    /// Sets the explicit target package.
    pub fn to_package(mut self, package: &str) -> Self {
        self.package = Some(package.to_owned());
        self
    }

    /// Adds an extra.
    pub fn with_extra(mut self, key: &str, value: &str) -> Self {
        self.extras.push((key.to_owned(), value.to_owned()));
        self
    }

    /// Looks up an extra by key.
    pub fn extra(&self, key: &str) -> Option<&str> {
        self.extras
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for Intent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Intent[{}]", self.action)
    }
}

/// An event produced by a system service for an app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A broadcast intent matched one of the app's receivers.
    Broadcast {
        /// The intent.
        intent: Intent,
    },
    /// An alarm the app scheduled fired.
    AlarmFired {
        /// The `operation` PendingIntent identity the alarm was set with.
        operation: String,
    },
    /// A sensor event on an open connection.
    SensorEvent {
        /// Sensor name.
        sensor: String,
        /// Descriptor the event arrived on.
        channel_fd: i32,
    },
    /// A posted notification became visible (used by workload assertions).
    NotificationPosted {
        /// Notification id.
        id: i32,
    },
    /// A location fix for a registered listener.
    LocationFix {
        /// Provider name, e.g. `"gps"` — or `"network-forwarded:gps"` when
        /// Adaptive Replay routed an absent device over the network.
        provider: String,
    },
}

/// An event queued for delivery to an app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The app (by UID) that should receive the event.
    pub to_uid: Uid,
    /// The event.
    pub event: Event,
    /// When it was produced.
    pub at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intent_builder_and_extras() {
        let i = Intent::new(ACTION_CONNECTIVITY_CHANGE)
            .to_package("com.example.app")
            .with_extra("noConnectivity", "true");
        assert_eq!(i.extra("noConnectivity"), Some("true"));
        assert_eq!(i.extra("missing"), None);
        assert_eq!(i.package.as_deref(), Some("com.example.app"));
    }

    #[test]
    fn intent_display_shows_action() {
        assert_eq!(Intent::new("a.b.C").to_string(), "Intent[a.b.C]");
    }
}
