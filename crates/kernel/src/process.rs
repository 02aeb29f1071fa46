//! Simulated processes and threads.

use crate::fd::FdTable;
use crate::mem::AddressSpace;
use flux_simcore::{ByteSize, Pid, Uid};

/// A thread of a simulated process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thread {
    /// Thread id (thread-group-local).
    pub tid: u32,
    /// Thread name, e.g. `"main"`, `"Binder_1"`, `"RenderThread"`.
    pub name: String,
    /// Size of the architecture register/TLS blob a checkpoint carries.
    pub register_blob: u32,
}

impl Thread {
    /// Creates a thread with the default register blob size (matching a
    /// 32-bit ARM register set plus NEON and TLS state).
    pub fn new(tid: u32, name: &str) -> Self {
        Self {
            tid,
            name: name.to_owned(),
            register_blob: 368,
        }
    }
}

/// Run state of a process, mirroring the Android activity host states that
/// matter for migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Scheduled normally.
    Running,
    /// Frozen by the task idler / cgroup freezer; checkpointable.
    Stopped,
}

/// One simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Kernel-global PID.
    pub real_pid: Pid,
    /// The PID the process *observes* — equal to `real_pid` unless it lives
    /// in a private PID namespace (the CRIA restore path).
    pub virt_pid: Pid,
    /// Owning UID (one per app).
    pub uid: Uid,
    /// Package or command line, e.g. `"com.king.candycrushsaga"`.
    pub package: String,
    /// Threads, main thread first.
    pub threads: Vec<Thread>,
    /// The address space.
    pub mem: AddressSpace,
    /// Open descriptors.
    pub fds: FdTable,
    /// PID namespace id, if any.
    pub namespace: Option<u64>,
    /// Filesystem jail root, if chroot'd (the restored wrapper app is jailed
    /// to the synced home filesystem, §3.1).
    pub jail_root: Option<String>,
    /// Run state.
    pub state: ProcState,
}

impl Process {
    /// Creates a fresh single-threaded process.
    pub fn new(real_pid: Pid, uid: Uid, package: &str) -> Self {
        Self {
            real_pid,
            virt_pid: real_pid,
            uid,
            package: package.to_owned(),
            threads: vec![Thread::new(1, "main")],
            mem: AddressSpace::new(),
            fds: FdTable::new(),
            namespace: None,
            jail_root: None,
            state: ProcState::Running,
        }
    }

    /// Adds a thread and returns its tid.
    pub fn spawn_thread(&mut self, name: &str) -> u32 {
        let tid = self.threads.iter().map(|t| t.tid).max().unwrap_or(0) + 1;
        self.threads.push(Thread::new(tid, name));
        tid
    }

    /// Total bytes a checkpoint would need to dump for this process's
    /// memory (excludes clean file mappings and device-specific state).
    pub fn dump_bytes(&self) -> ByteSize {
        self.mem.dump_bytes()
    }

    /// Count of kernel objects a checkpoint walks (threads + VMAs + fds);
    /// used by the per-object cost model.
    pub fn object_count(&self) -> u64 {
        (self.threads.len() + self.mem.len() + self.fds.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{Prot, VmaKind};

    #[test]
    fn new_process_has_main_thread() {
        let p = Process::new(Pid(10), Uid(10_001), "com.example.app");
        assert_eq!(p.threads.len(), 1);
        assert_eq!(p.threads[0].name, "main");
        assert_eq!(p.virt_pid, p.real_pid);
        assert_eq!(p.state, ProcState::Running);
    }

    #[test]
    fn spawn_thread_assigns_increasing_tids() {
        let mut p = Process::new(Pid(10), Uid(10_001), "com.example.app");
        let a = p.spawn_thread("Binder_1");
        let b = p.spawn_thread("RenderThread");
        assert!(a > 1 && b > a);
    }

    #[test]
    fn object_count_covers_threads_vmas_fds() {
        let mut p = Process::new(Pid(10), Uid(10_001), "com.example.app");
        p.spawn_thread("Binder_1");
        p.mem
            .map(VmaKind::Anon, ByteSize::from_mib(1), Prot::RW, 1.0);
        p.fds.open(crate::fd::FdKind::Binder);
        assert_eq!(p.object_count(), 2 + 1 + 1);
    }
}
