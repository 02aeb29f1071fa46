//! Private PID namespaces.
//!
//! §3.1: "The wrapper app is launched in a private virtual namespace for
//! process identifiers to ensure that app processes see the same identifiers
//! even if the underlying operating system identifiers may have changed."
//! This module provides that virtualisation: a namespace maps the PIDs an
//! app observes (virtual) to the kernel's real PIDs.

use flux_simcore::Pid;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from namespace operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    /// The namespace id is unknown.
    NoSuchNamespace(u64),
    /// The virtual PID is already mapped in this namespace.
    VirtPidTaken {
        /// Namespace in question.
        ns: u64,
        /// The colliding virtual PID.
        virt: Pid,
    },
}

impl fmt::Display for NsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsError::NoSuchNamespace(id) => write!(f, "no PID namespace {id}"),
            NsError::VirtPidTaken { ns, virt } => {
                write!(f, "virtual {virt} already mapped in namespace {ns}")
            }
        }
    }
}

impl std::error::Error for NsError {}

/// One private PID namespace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PidNamespace {
    /// Namespace id.
    pub id: u64,
    virt_to_real: BTreeMap<Pid, Pid>,
}

impl PidNamespace {
    /// Resolves a virtual PID to the real one.
    pub fn resolve(&self, virt: Pid) -> Option<Pid> {
        self.virt_to_real.get(&virt).copied()
    }

    /// The virtual PID mapped to `real`, if any.
    pub fn virt_of(&self, real: Pid) -> Option<Pid> {
        self.virt_to_real
            .iter()
            .find(|(_, r)| **r == real)
            .map(|(v, _)| *v)
    }

    /// Number of processes in the namespace.
    pub fn len(&self) -> usize {
        self.virt_to_real.len()
    }

    /// Whether the namespace holds no processes.
    pub fn is_empty(&self) -> bool {
        self.virt_to_real.is_empty()
    }
}

/// Registry of PID namespaces in one kernel.
#[derive(Debug, Clone, Default)]
pub struct Namespaces {
    spaces: BTreeMap<u64, PidNamespace>,
    next_id: u64,
}

impl Namespaces {
    /// Creates a fresh namespace and returns its id.
    pub fn create(&mut self) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.spaces.insert(
            id,
            PidNamespace {
                id,
                ..PidNamespace::default()
            },
        );
        id
    }

    /// Maps `virt` → `real` inside namespace `ns`.
    pub fn map(&mut self, ns: u64, virt: Pid, real: Pid) -> Result<(), NsError> {
        let space = self
            .spaces
            .get_mut(&ns)
            .ok_or(NsError::NoSuchNamespace(ns))?;
        if space.virt_to_real.contains_key(&virt) {
            return Err(NsError::VirtPidTaken { ns, virt });
        }
        space.virt_to_real.insert(virt, real);
        Ok(())
    }

    /// Removes the mapping for `real` in `ns` (process exit).
    pub fn unmap_real(&mut self, ns: u64, real: Pid) {
        if let Some(space) = self.spaces.get_mut(&ns) {
            space.virt_to_real.retain(|_, r| *r != real);
        }
    }

    /// Looks up a namespace.
    pub fn get(&self, ns: u64) -> Option<&PidNamespace> {
        self.spaces.get(&ns)
    }

    /// Destroys a namespace; its processes keep running but lose the
    /// translation (only done after they exit in practice).
    pub fn destroy(&mut self, ns: u64) -> bool {
        self.spaces.remove(&ns).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_pids_are_stable_regardless_of_real_pids() {
        let mut nss = Namespaces::default();
        let ns = nss.create();
        // The app believed it was PID 1234 on the home device; on the guest
        // it gets real PID 9876 but still observes 1234.
        nss.map(ns, Pid(1234), Pid(9876)).unwrap();
        assert_eq!(nss.get(ns).unwrap().resolve(Pid(1234)), Some(Pid(9876)));
        assert_eq!(nss.get(ns).unwrap().virt_of(Pid(9876)), Some(Pid(1234)));
    }

    #[test]
    fn duplicate_virtual_pid_is_refused() {
        let mut nss = Namespaces::default();
        let ns = nss.create();
        nss.map(ns, Pid(5), Pid(100)).unwrap();
        assert_eq!(
            nss.map(ns, Pid(5), Pid(101)),
            Err(NsError::VirtPidTaken { ns, virt: Pid(5) })
        );
    }

    #[test]
    fn same_virtual_pid_allowed_in_different_namespaces() {
        let mut nss = Namespaces::default();
        let a = nss.create();
        let b = nss.create();
        nss.map(a, Pid(5), Pid(100)).unwrap();
        nss.map(b, Pid(5), Pid(200)).unwrap();
        assert_eq!(nss.get(a).unwrap().resolve(Pid(5)), Some(Pid(100)));
        assert_eq!(nss.get(b).unwrap().resolve(Pid(5)), Some(Pid(200)));
    }

    #[test]
    fn unmap_and_destroy() {
        let mut nss = Namespaces::default();
        let ns = nss.create();
        nss.map(ns, Pid(5), Pid(100)).unwrap();
        nss.unmap_real(ns, Pid(100));
        assert!(nss.get(ns).unwrap().is_empty());
        assert!(nss.destroy(ns));
        assert!(!nss.destroy(ns));
        assert_eq!(
            nss.map(ns, Pid(1), Pid(2)),
            Err(NsError::NoSuchNamespace(ns))
        );
    }
}
