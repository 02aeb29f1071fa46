//! Simulation-wide operating-system identifiers.
//!
//! PIDs and UIDs are shared vocabulary between the Binder driver, the kernel
//! process model and the system services, so they live here at the bottom of
//! the crate graph.

use std::fmt;

/// A process identifier.
///
/// Inside a restored app these stay stable across migration because CRIA
/// launches the wrapper app in a private PID namespace (§3.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// A user identifier. Android assigns one UID per installed app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Uid(pub u32);

impl Uid {
    /// The system UID used by Android system services.
    pub const SYSTEM: Uid = Uid(1000);

    /// The first UID handed to installed apps (`AID_APP` in Android).
    pub const FIRST_APP: Uid = Uid(10_000);

    /// Whether this UID belongs to an installed app rather than the system.
    pub fn is_app(self) -> bool {
        self.0 >= Self::FIRST_APP.0
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_uid_threshold_matches_android() {
        assert!(!Uid::SYSTEM.is_app());
        assert!(Uid::FIRST_APP.is_app());
        assert!(Uid(10_123).is_app());
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(Pid(42).to_string(), "pid:42");
        assert_eq!(Uid(1000).to_string(), "uid:1000");
    }
}
