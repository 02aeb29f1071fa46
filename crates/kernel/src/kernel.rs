//! The simulated Android/Linux kernel for one device.
//!
//! Ties together the process table, the Binder driver and the Android
//! drivers (§2 of the paper). One `Kernel` exists per simulated device; the
//! Flux migration pipeline operates on a home kernel and a guest kernel.

use crate::drivers::{AlarmDriver, Ashmem, Logger, Pmem, WakeLocks};
use crate::ns::{Namespaces, NsError};
use crate::process::{ProcState, Process};
use flux_binder::BinderDriver;
use flux_simcore::{IdAlloc, Pid, Uid};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from kernel-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Unknown PID.
    NoSuchProcess(Pid),
    /// A namespace operation failed.
    Namespace(NsError),
    /// A Binder operation failed.
    Binder(flux_binder::BinderError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoSuchProcess(pid) => write!(f, "no such process {pid}"),
            KernelError::Namespace(e) => write!(f, "namespace error: {e}"),
            KernelError::Binder(e) => write!(f, "binder error: {e}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<NsError> for KernelError {
    fn from(e: NsError) -> Self {
        KernelError::Namespace(e)
    }
}

impl From<flux_binder::BinderError> for KernelError {
    fn from(e: flux_binder::BinderError) -> Self {
        KernelError::Binder(e)
    }
}

/// The kernel of one simulated device.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel release, e.g. `"3.1"` (Nexus 7 2012) or `"3.4"` (Nexus 7
    /// 2013). Flux migrates across different kernel versions; CRIA's image
    /// format is version-independent.
    pub version: String,
    procs: BTreeMap<Pid, Process>,
    /// The Binder driver.
    pub binder: BinderDriver,
    /// The ashmem driver.
    pub ashmem: Ashmem,
    /// The pmem driver.
    pub pmem: Pmem,
    /// The wakelock driver.
    pub wakelocks: WakeLocks,
    /// The alarm driver.
    pub alarm: AlarmDriver,
    /// The Logger driver.
    pub logger: Logger,
    /// PID namespaces.
    pub namespaces: Namespaces,
    pids: IdAlloc,
}

impl Kernel {
    /// Boots a kernel with the given release string.
    pub fn new(version: &str) -> Self {
        Self {
            version: version.to_owned(),
            procs: BTreeMap::new(),
            binder: BinderDriver::new(),
            ashmem: Ashmem::default(),
            pmem: Pmem::default(),
            wakelocks: WakeLocks::default(),
            alarm: AlarmDriver::default(),
            logger: Logger::default(),
            namespaces: Namespaces::default(),
            pids: IdAlloc::starting_at(100),
        }
    }

    /// Spawns a process in the root namespace and attaches it to Binder.
    pub fn spawn(&mut self, uid: Uid, package: &str) -> Pid {
        let pid = Pid(self.pids.next() as u32);
        let proc = Process::new(pid, uid, package);
        self.binder.attach_process(pid, uid);
        self.procs.insert(pid, proc);
        pid
    }

    /// Spawns a process inside namespace `ns` with a caller-chosen virtual
    /// PID (the CRIA restore path). The real PID is freshly allocated.
    pub fn spawn_in_namespace(
        &mut self,
        ns: u64,
        virt_pid: Pid,
        uid: Uid,
        package: &str,
    ) -> Result<Pid, KernelError> {
        let real = Pid(self.pids.next() as u32);
        self.namespaces.map(ns, virt_pid, real)?;
        let mut proc = Process::new(real, uid, package);
        proc.virt_pid = virt_pid;
        proc.namespace = Some(ns);
        self.binder.attach_process(real, uid);
        self.procs.insert(real, proc);
        Ok(real)
    }

    /// Kills a process: detaches it from Binder (its nodes die), frees its
    /// pmem allocations and wakelocks, and drops it from the table.
    pub fn kill(&mut self, pid: Pid) -> Result<Process, KernelError> {
        let proc = self
            .procs
            .remove(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        self.binder.detach_process(pid);
        self.pmem.free_owned_by(pid);
        self.wakelocks.release_all_of(pid);
        if let Some(ns) = proc.namespace {
            self.namespaces.unmap_real(ns, pid);
        }
        Ok(proc)
    }

    /// Immutable process lookup by real PID.
    pub fn process(&self, pid: Pid) -> Result<&Process, KernelError> {
        self.procs.get(&pid).ok_or(KernelError::NoSuchProcess(pid))
    }

    /// Mutable process lookup by real PID.
    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, KernelError> {
        self.procs
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))
    }

    /// All processes belonging to `package` (multi-process apps have
    /// several; Flux refuses to migrate those, §3.4).
    pub fn processes_of_package(&self, package: &str) -> Vec<&Process> {
        self.procs
            .values()
            .filter(|p| p.package == package)
            .collect()
    }

    /// All processes owned by `uid`.
    pub fn processes_of_uid(&self, uid: Uid) -> Vec<&Process> {
        self.procs.values().filter(|p| p.uid == uid).collect()
    }

    /// Freezes a process so it can be checkpointed.
    pub fn freeze(&mut self, pid: Pid) -> Result<(), KernelError> {
        self.process_mut(pid)?.state = ProcState::Stopped;
        Ok(())
    }

    /// Thaws a frozen process.
    pub fn thaw(&mut self, pid: Pid) -> Result<(), KernelError> {
        self.process_mut(pid)?.state = ProcState::Running;
        Ok(())
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_attaches_to_binder() {
        let mut k = Kernel::new("3.4");
        let pid = k.spawn(Uid(10_001), "com.example.app");
        assert!(k.binder.knows_process(pid));
        assert_eq!(k.binder.uid_of(pid), Some(Uid(10_001)));
        assert_eq!(k.process(pid).unwrap().package, "com.example.app");
    }

    #[test]
    fn spawn_in_namespace_preserves_virtual_pid() {
        let mut k = Kernel::new("3.4");
        let ns = k.namespaces.create();
        let real = k
            .spawn_in_namespace(ns, Pid(1234), Uid(10_050), "com.example.app")
            .unwrap();
        let p = k.process(real).unwrap();
        assert_eq!(p.virt_pid, Pid(1234));
        assert_ne!(p.real_pid, Pid(1234));
        assert_eq!(k.namespaces.get(ns).unwrap().resolve(Pid(1234)), Some(real));
    }

    #[test]
    fn kill_cleans_up_driver_state() {
        let mut k = Kernel::new("3.4");
        let pid = k.spawn(Uid(10_001), "com.example.app");
        k.pmem
            .alloc(pid, "gpu", flux_simcore::ByteSize::from_mib(4));
        k.wakelocks.acquire("app-lock", pid);
        k.kill(pid).unwrap();
        assert!(k.pmem.owned_by(pid).is_empty());
        assert!(!k.wakelocks.any_held());
        assert!(!k.binder.knows_process(pid));
        assert!(matches!(k.process(pid), Err(KernelError::NoSuchProcess(_))));
    }

    #[test]
    fn multi_process_package_is_visible() {
        let mut k = Kernel::new("3.4");
        k.spawn(Uid(10_001), "com.facebook.katana");
        k.spawn(Uid(10_001), "com.facebook.katana");
        k.spawn(Uid(10_002), "com.twitter.android");
        assert_eq!(k.processes_of_package("com.facebook.katana").len(), 2);
        assert_eq!(k.processes_of_uid(Uid(10_001)).len(), 2);
    }

    #[test]
    fn freeze_and_thaw_toggle_state() {
        let mut k = Kernel::new("3.1");
        let pid = k.spawn(Uid(10_001), "a");
        k.freeze(pid).unwrap();
        assert_eq!(k.process(pid).unwrap().state, ProcState::Stopped);
        k.thaw(pid).unwrap();
        assert_eq!(k.process(pid).unwrap().state, ProcState::Running);
    }
}
