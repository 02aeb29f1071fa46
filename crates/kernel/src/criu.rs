//! The CRIU engine: checkpoint/restore of simulated processes.
//!
//! Flux builds CRIA on CRIU (§3.3): "Hooks in the kernel allow CRIU to
//! transparently obtain and inject all necessary internal kernel state
//! required to represent the state of a running process." This module is
//! that engine for the simulated kernel. It deliberately implements only the
//! *mechanism*; CRIA's Android-specific policy (trim-memory preparation,
//! record-log capture, service reconnection, wrapper apps) lives in
//! `flux-core`.
//!
//! The checkpoint refuses to proceed while device-specific state remains —
//! GPU/pmem mappings or vendor GL libraries — which is exactly the contract
//! Flux's preparation stage must satisfy before calling in.

use crate::fd::FdKind;
use crate::kernel::Kernel;
use crate::mem::{Prot, Vma, VmaKind};
use crate::process::{ProcState, Thread};
use flux_binder::state::{self, SavedBinderState};
use flux_binder::BinderError;
use flux_simcore::wire::{WireError, WireReader, WireWriter};
use flux_simcore::{ByteSize, Pid, SimTime, Uid};
use std::fmt;

/// Magic bytes identifying a CRIA image ("CRIA" in ASCII).
const IMAGE_MAGIC: u32 = 0x4352_4941;
/// Image format version.
const IMAGE_VERSION: u32 = 2;

/// Errors from checkpoint and restore.
#[derive(Debug, Clone, PartialEq)]
pub enum CriuError {
    /// The process does not exist.
    NoSuchProcess(Pid),
    /// The process must be frozen (Stopped) before checkpointing.
    NotFrozen(Pid),
    /// Device-specific state is still mapped; the Flux preparation stage
    /// must free it first.
    DeviceStateRemaining {
        /// Description of the offending state.
        what: String,
    },
    /// The process still owns pmem allocations.
    PmemAllocsRemain {
        /// Number of live allocations.
        count: usize,
    },
    /// The process still owns ashmem regions (unsupported by design: the
    /// simulated Dalvik uses mmap instead, §3.3).
    AshmemRegionsRemain {
        /// Number of live regions.
        count: usize,
    },
    /// A Binder capture/restore failure.
    Binder(BinderError),
    /// A virtual-PID collision during restore.
    PidCollision(Pid),
    /// The image bytes are corrupt or of an unknown version.
    BadImage(String),
}

impl fmt::Display for CriuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CriuError::NoSuchProcess(pid) => write!(f, "no such process {pid}"),
            CriuError::NotFrozen(pid) => write!(f, "{pid} must be frozen before checkpoint"),
            CriuError::DeviceStateRemaining { what } => {
                write!(f, "device-specific state remains: {what}")
            }
            CriuError::PmemAllocsRemain { count } => {
                write!(f, "{count} pmem allocation(s) still live")
            }
            CriuError::AshmemRegionsRemain { count } => {
                write!(f, "{count} ashmem region(s) still live")
            }
            CriuError::Binder(e) => write!(f, "binder: {e}"),
            CriuError::PidCollision(pid) => write!(f, "virtual {pid} already in use"),
            CriuError::BadImage(m) => write!(f, "bad checkpoint image: {m}"),
        }
    }
}

impl std::error::Error for CriuError {}

impl From<BinderError> for CriuError {
    fn from(e: BinderError) -> Self {
        CriuError::Binder(e)
    }
}

impl From<WireError> for CriuError {
    fn from(e: WireError) -> Self {
        CriuError::BadImage(e.to_string())
    }
}

/// A checkpointed VMA.
#[derive(Debug, Clone, PartialEq)]
pub struct VmaImage {
    /// What backed the mapping.
    pub kind: VmaKind,
    /// Mapping length.
    pub len: ByteSize,
    /// Protection.
    pub prot: Prot,
    /// Dirty fraction at checkpoint.
    pub dirty: f64,
    /// Content seed for synthetic page data.
    pub content_seed: u64,
    /// Page bytes this VMA contributes to the image payload.
    pub payload: ByteSize,
}

/// A checkpointed descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdImage {
    /// Descriptor number.
    pub fd: i32,
    /// What it referred to.
    pub kind: FdKind,
}

/// A complete single-process checkpoint image.
///
/// The image stores VMA/fd/thread metadata plus the *declared* page payload
/// size; synthetic page contents are regenerated from `content_seed`s, so
/// the image stays cheap to hold in memory while [`ProcessImage::total_bytes`]
/// still reports the full size a real CRIU dump would occupy (which is what
/// the transfer model charges).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessImage {
    /// Package the process belonged to.
    pub package: String,
    /// PID the process observed (restored exactly via a namespace).
    pub virt_pid: Pid,
    /// Owning UID on the home device.
    pub uid: Uid,
    /// Thread set.
    pub threads: Vec<Thread>,
    /// Address-space metadata.
    pub vmas: Vec<VmaImage>,
    /// Descriptor table (INET sockets are carried but dropped on restore).
    pub fds: Vec<FdImage>,
    /// Binder handles/refs/nodes, per §3.3.
    pub binder: SavedBinderState,
    /// Virtual time at which the checkpoint was taken. Replay proxies
    /// compare against this (e.g. the AlarmManager proxy, Figure 10).
    pub checkpoint_time: SimTime,
}

impl ProcessImage {
    /// Metadata bytes: the encoded image minus page payload, measured by
    /// running the encoder into a [`WireWriter::counter`].
    pub fn metadata_bytes(&self) -> ByteSize {
        let mut w = WireWriter::counter();
        self.write(&mut w);
        ByteSize::from_bytes(w.len() as u64)
    }

    /// Page payload bytes (dirty anonymous/stack/ashmem pages).
    pub fn payload_bytes(&self) -> ByteSize {
        self.vmas.iter().map(|v| v.payload).sum()
    }

    /// Total image size: what a real CRIU dump would write and what the
    /// transfer stage must move.
    pub fn total_bytes(&self) -> ByteSize {
        self.metadata_bytes() + self.payload_bytes()
    }

    /// Kernel objects in the image (threads + VMAs + fds), for the
    /// per-object cost model.
    pub fn object_count(&self) -> u64 {
        (self.threads.len() + self.vmas.len() + self.fds.len()) as u64
    }

    /// Relative dump/restore weights of the image's components, for
    /// attributing a lump-charged checkpoint or restore window to
    /// per-driver telemetry sub-spans (`criu.dump.mem`, `criu.dump.fds`,
    /// ...). Weights are byte-based where bytes dominate (memory) and
    /// object-count-based elsewhere, mirroring the per-object term of the
    /// checkpoint cost model; every weight is at least 1 so no component
    /// ever collapses to a zero-length span.
    pub fn component_weights(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("mem", self.payload_bytes().as_u64().max(1)),
            ("fds", (self.fds.len() as u64).max(1) * 4096),
            (
                "binder",
                ((self.binder.handles.len() + self.binder.owned_nodes.len()) as u64).max(1) * 4096,
            ),
            ("threads", (self.threads.len() as u64).max(1) * 4096),
        ]
    }

    /// The residual image relative to an earlier [`predump`] of the same
    /// process: per-VMA page payload dirtied since `base` (VMAs are matched
    /// by content seed and kind), plus everything a pre-dump does not carry
    /// — metadata, descriptors, Binder state — taken from `self`.
    ///
    /// Streaming `base`'s pages and then shipping the delta therefore
    /// delivers every page of `self` exactly once, which is the invariant
    /// the pre-copy migration loop depends on. VMAs absent from `base`
    /// (mapped after the pre-dump) contribute their full payload.
    pub fn dirty_delta(&self, base: &ProcessImage) -> ProcessImage {
        let vmas = self
            .vmas
            .iter()
            .map(|v| {
                let prior = base
                    .vmas
                    .iter()
                    .find(|b| b.content_seed == v.content_seed && b.kind == v.kind)
                    .map_or(0, |b| b.payload.as_u64());
                VmaImage {
                    payload: ByteSize::from_bytes(v.payload.as_u64().saturating_sub(prior)),
                    ..v.clone()
                }
            })
            .collect();
        ProcessImage {
            vmas,
            ..self.clone()
        }
    }

    /// Deterministically materialises `len` bytes of synthetic page data
    /// for benchmarking real serialisation throughput.
    pub fn materialize_pages(&self, cap: usize) -> Vec<u8> {
        let total = self.payload_bytes().as_u64().min(cap as u64) as usize;
        let mut out = Vec::with_capacity(total);
        let mut x = self
            .vmas
            .first()
            .map(|v| v.content_seed)
            .unwrap_or(0xA5A5_5A5A)
            | 1;
        while out.len() < total {
            // Xorshift64: fast, deterministic filler.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.truncate(total);
        out
    }

    /// Encodes the image metadata to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.write(&mut w);
        w.into_bytes()
    }

    /// The one write sequence behind both [`encode`](Self::encode) and
    /// [`metadata_bytes`](Self::metadata_bytes).
    fn write(&self, w: &mut WireWriter) {
        w.u32(IMAGE_MAGIC);
        w.u32(IMAGE_VERSION);
        w.str(&self.package);
        w.u32(self.virt_pid.0);
        w.u32(self.uid.0);
        w.u64(self.checkpoint_time.as_nanos());

        w.seq(self.threads.len());
        for t in &self.threads {
            w.u32(t.tid);
            w.str(&t.name);
            w.u32(t.register_blob);
        }

        w.seq(self.vmas.len());
        for v in &self.vmas {
            encode_vma_kind(w, &v.kind);
            w.u64(v.len.as_u64());
            w.u8(u8::from(v.prot.r) | (u8::from(v.prot.w) << 1) | (u8::from(v.prot.x) << 2));
            w.f64(v.dirty);
            w.u64(v.content_seed);
            w.u64(v.payload.as_u64());
        }

        w.seq(self.fds.len());
        for f in &self.fds {
            w.u32(f.fd as u32);
            encode_fd_kind(w, &f.kind);
        }

        encode_binder_state(w, &self.binder);
    }

    /// Decodes an image from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CriuError> {
        let mut r = WireReader::new(bytes);
        let magic = r.u32()?;
        if magic != IMAGE_MAGIC {
            return Err(CriuError::BadImage(format!("bad magic {magic:#x}")));
        }
        let version = r.u32()?;
        if version != IMAGE_VERSION {
            return Err(CriuError::BadImage(format!(
                "unsupported image version {version}"
            )));
        }
        let package = r.str()?;
        let virt_pid = Pid(r.u32()?);
        let uid = Uid(r.u32()?);
        let checkpoint_time = SimTime::from_nanos(r.u64()?);

        let n = r.seq()?;
        let mut threads = Vec::with_capacity(n);
        for _ in 0..n {
            threads.push(Thread {
                tid: r.u32()?,
                name: r.str()?,
                register_blob: r.u32()?,
            });
        }

        let n = r.seq()?;
        let mut vmas = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = decode_vma_kind(&mut r)?;
            let len = ByteSize::from_bytes(r.u64()?);
            let bits = r.u8()?;
            let prot = Prot {
                r: bits & 1 != 0,
                w: bits & 2 != 0,
                x: bits & 4 != 0,
            };
            let dirty = r.f64()?;
            let content_seed = r.u64()?;
            let payload = ByteSize::from_bytes(r.u64()?);
            vmas.push(VmaImage {
                kind,
                len,
                prot,
                dirty,
                content_seed,
                payload,
            });
        }

        let n = r.seq()?;
        let mut fds = Vec::with_capacity(n);
        for _ in 0..n {
            let fd = r.u32()? as i32;
            let kind = decode_fd_kind(&mut r)?;
            fds.push(FdImage { fd, kind });
        }

        let binder = decode_binder_state(&mut r)?;

        Ok(ProcessImage {
            package,
            virt_pid,
            uid,
            threads,
            vmas,
            fds,
            binder,
            checkpoint_time,
        })
    }
}

fn encode_vma_kind(w: &mut WireWriter, k: &VmaKind) {
    match k {
        VmaKind::Anon => w.u8(0),
        VmaKind::Stack => w.u8(1),
        VmaKind::FileBacked {
            path,
            private_dirty,
        } => {
            w.u8(2);
            w.str(path);
            w.bool(*private_dirty);
        }
        VmaKind::SharedLib {
            path,
            vendor_specific,
        } => {
            w.u8(3);
            w.str(path);
            w.bool(*vendor_specific);
        }
        VmaKind::Ashmem { region } => {
            w.u8(4);
            w.u64(*region);
        }
        VmaKind::Pmem { alloc } => {
            w.u8(5);
            w.u64(*alloc);
        }
        VmaKind::Gpu { resource } => {
            w.u8(6);
            w.str(resource);
        }
    }
}

fn decode_vma_kind(r: &mut WireReader<'_>) -> Result<VmaKind, CriuError> {
    Ok(match r.u8()? {
        0 => VmaKind::Anon,
        1 => VmaKind::Stack,
        2 => VmaKind::FileBacked {
            path: r.str()?,
            private_dirty: r.bool()?,
        },
        3 => VmaKind::SharedLib {
            path: r.str()?,
            vendor_specific: r.bool()?,
        },
        4 => VmaKind::Ashmem { region: r.u64()? },
        5 => VmaKind::Pmem { alloc: r.u64()? },
        6 => VmaKind::Gpu { resource: r.str()? },
        t => return Err(CriuError::BadImage(format!("bad vma kind tag {t}"))),
    })
}

fn encode_fd_kind(w: &mut WireWriter, k: &FdKind) {
    match k {
        FdKind::File {
            path,
            offset,
            writable,
        } => {
            w.u8(0);
            w.str(path);
            w.u64(*offset);
            w.bool(*writable);
        }
        FdKind::UnixSocket { peer } => {
            w.u8(1);
            w.str(peer);
        }
        FdKind::InetSocket { remote } => {
            w.u8(2);
            w.str(remote);
        }
        FdKind::Binder => w.u8(3),
        FdKind::Ashmem { region } => {
            w.u8(4);
            w.u64(*region);
        }
        FdKind::AlarmDev => w.u8(5),
        FdKind::Logger { buffer } => {
            w.u8(6);
            w.str(buffer);
        }
        FdKind::Pipe { read_end } => {
            w.u8(7);
            w.bool(*read_end);
        }
        FdKind::Reserved => w.u8(8),
    }
}

fn decode_fd_kind(r: &mut WireReader<'_>) -> Result<FdKind, CriuError> {
    Ok(match r.u8()? {
        0 => FdKind::File {
            path: r.str()?,
            offset: r.u64()?,
            writable: r.bool()?,
        },
        1 => FdKind::UnixSocket { peer: r.str()? },
        2 => FdKind::InetSocket { remote: r.str()? },
        3 => FdKind::Binder,
        4 => FdKind::Ashmem { region: r.u64()? },
        5 => FdKind::AlarmDev,
        6 => FdKind::Logger { buffer: r.str()? },
        7 => FdKind::Pipe {
            read_end: r.bool()?,
        },
        8 => FdKind::Reserved,
        t => return Err(CriuError::BadImage(format!("bad fd kind tag {t}"))),
    })
}

fn encode_binder_state(w: &mut WireWriter, s: &SavedBinderState) {
    use flux_binder::SavedTarget;
    w.seq(s.handles.len());
    for h in &s.handles {
        w.u32(h.handle);
        w.u32(h.strong);
        match &h.target {
            SavedTarget::Internal { label, node_index } => {
                w.u8(0);
                w.str(label);
                w.u64(*node_index as u64);
            }
            SavedTarget::SystemService { name } => {
                w.u8(1);
                w.str(name);
            }
            SavedTarget::NonSystem { description } => {
                w.u8(2);
                w.str(description);
            }
            SavedTarget::SystemConnection { descriptor } => {
                w.u8(3);
                w.str(descriptor);
            }
        }
    }
    w.seq(s.owned_nodes.len());
    for n in &s.owned_nodes {
        w.str(&n.label);
        match &n.registered_name {
            Some(name) => {
                w.bool(true);
                w.str(name);
            }
            None => w.bool(false),
        }
    }
    w.u64(s.buffer_bytes);
}

fn decode_binder_state(r: &mut WireReader<'_>) -> Result<SavedBinderState, CriuError> {
    use flux_binder::{SavedHandle, SavedNode, SavedTarget};
    let n = r.seq()?;
    let mut handles = Vec::with_capacity(n);
    for _ in 0..n {
        let handle = r.u32()?;
        let strong = r.u32()?;
        let target = match r.u8()? {
            0 => SavedTarget::Internal {
                label: r.str()?,
                node_index: r.u64()? as usize,
            },
            1 => SavedTarget::SystemService { name: r.str()? },
            2 => SavedTarget::NonSystem {
                description: r.str()?,
            },
            3 => SavedTarget::SystemConnection {
                descriptor: r.str()?,
            },
            t => return Err(CriuError::BadImage(format!("bad target tag {t}"))),
        };
        handles.push(SavedHandle {
            handle,
            strong,
            target,
        });
    }
    let n = r.seq()?;
    let mut owned_nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let label = r.str()?;
        let registered_name = if r.bool()? { Some(r.str()?) } else { None };
        owned_nodes.push(SavedNode {
            label,
            registered_name,
        });
    }
    let buffer_bytes = r.u64()?;
    Ok(SavedBinderState {
        handles,
        owned_nodes,
        buffer_bytes,
    })
}

/// Checkpoints process `pid` (by real PID) at virtual time `now`.
///
/// Preconditions enforced (the Flux preparation stage establishes them):
/// the process is frozen; no device-specific VMAs remain; no pmem
/// allocations or ashmem regions are owned. Violations return an error
/// rather than producing an unrestorable image.
pub fn checkpoint(kernel: &Kernel, pid: Pid, now: SimTime) -> Result<ProcessImage, CriuError> {
    let proc = kernel
        .process(pid)
        .map_err(|_| CriuError::NoSuchProcess(pid))?;
    if proc.state != ProcState::Stopped {
        return Err(CriuError::NotFrozen(pid));
    }
    if let Some(v) = proc.mem.vmas().iter().find(|v| v.kind.is_device_specific()) {
        return Err(CriuError::DeviceStateRemaining {
            what: format!("vma {:?} ({})", v.kind, v.len),
        });
    }
    let pmem = kernel.pmem.owned_by(pid);
    if !pmem.is_empty() {
        return Err(CriuError::PmemAllocsRemain { count: pmem.len() });
    }
    let ashmem = kernel.ashmem.owned_by(pid);
    if !ashmem.is_empty() {
        return Err(CriuError::AshmemRegionsRemain {
            count: ashmem.len(),
        });
    }

    let binder = state::capture(&kernel.binder, pid)?;

    let vmas = proc
        .mem
        .vmas()
        .iter()
        .map(|v: &Vma| VmaImage {
            kind: v.kind.clone(),
            len: v.len,
            prot: v.prot,
            dirty: v.dirty,
            content_seed: v.content_seed,
            payload: v.dump_bytes(),
        })
        .collect();

    let fds = proc
        .fds
        .iter()
        .map(|(fd, kind)| FdImage {
            fd,
            kind: kind.clone(),
        })
        .collect();

    Ok(ProcessImage {
        package: proc.package.clone(),
        virt_pid: proc.virt_pid,
        uid: proc.uid,
        threads: proc.threads.clone(),
        vmas,
        fds,
        binder,
        checkpoint_time: now,
    })
}

/// Takes a *pre-dump* of process `pid` at virtual time `now`, without
/// freezing it.
///
/// A pre-dump captures the current page payload of every checkpointable
/// VMA while the app keeps running in the foreground, so a pre-copy
/// migration can stream the bulk of the image before the freeze. It is a
/// streaming-only image, not a restorable one: device-specific VMAs are
/// skipped (preparation has not run yet), the descriptor table is empty,
/// and Binder state is not captured — the final frozen [`checkpoint`]
/// supplies all of that, and [`ProcessImage::dirty_delta`] against the
/// last pre-dump yields the residue still to ship.
pub fn predump(kernel: &Kernel, pid: Pid, now: SimTime) -> Result<ProcessImage, CriuError> {
    let proc = kernel
        .process(pid)
        .map_err(|_| CriuError::NoSuchProcess(pid))?;

    let vmas = proc
        .mem
        .vmas()
        .iter()
        .filter(|v| !v.kind.is_device_specific())
        .map(|v: &Vma| VmaImage {
            kind: v.kind.clone(),
            len: v.len,
            prot: v.prot,
            dirty: v.dirty,
            content_seed: v.content_seed,
            payload: v.dump_bytes(),
        })
        .collect();

    Ok(ProcessImage {
        package: proc.package.clone(),
        virt_pid: proc.virt_pid,
        uid: proc.uid,
        threads: proc.threads.clone(),
        vmas,
        fds: Vec::new(),
        binder: SavedBinderState::default(),
        checkpoint_time: now,
    })
}

/// Options controlling a restore.
#[derive(Debug, Clone)]
pub struct RestoreOptions {
    /// Namespace to restore into (created by the wrapper app).
    pub namespace: u64,
    /// UID on the guest device (the pseudo-installed wrapper's UID).
    pub uid: Uid,
    /// Filesystem jail root holding the synced home frameworks and APK.
    pub jail_root: String,
}

/// The outcome of a restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Restored {
    /// Real PID allocated on the guest.
    pub real_pid: Pid,
    /// INET endpoints that were open at checkpoint and dropped; Flux
    /// reports a connectivity change for these (§3.1).
    pub dropped_connections: Vec<String>,
    /// Descriptor numbers reserved for replay proxies to `dup2` into
    /// (sensor event channels, §3.2).
    pub reserved_fds: Vec<i32>,
    /// Handles left vacant for replay proxies to fill with recreated
    /// connection objects (SensorEventConnections, §3.2).
    pub pending_connections: Vec<flux_binder::PendingConnection>,
}

/// Restores `image` into `kernel` (the guest device).
///
/// The process reappears frozen; the caller thaws it after reintegration.
/// Binder references are re-injected at the handle ids recorded in the
/// image, resolving system services through the guest's ServiceManager.
pub fn restore(
    kernel: &mut Kernel,
    image: &ProcessImage,
    opts: &RestoreOptions,
) -> Result<Restored, CriuError> {
    if kernel
        .namespaces
        .get(opts.namespace)
        .map(|ns| ns.resolve(image.virt_pid).is_some())
        .unwrap_or(false)
    {
        return Err(CriuError::PidCollision(image.virt_pid));
    }

    let real = kernel
        .spawn_in_namespace(opts.namespace, image.virt_pid, opts.uid, &image.package)
        .map_err(|e| CriuError::BadImage(e.to_string()))?;

    let mut dropped_connections = Vec::new();
    let mut reserved_fds = Vec::new();
    {
        let proc = kernel
            .process_mut(real)
            .map_err(|_| CriuError::NoSuchProcess(real))?;
        proc.jail_root = Some(opts.jail_root.clone());
        proc.state = ProcState::Stopped;
        proc.threads = image.threads.clone();

        for v in &image.vmas {
            // Carry the checkpointed content identity: the restored pages
            // *are* the home pages, so a later re-migration must present
            // the same seed for the guest's content-addressed image cache
            // to recognise unchanged chunks.
            proc.mem
                .map_with_seed(v.kind.clone(), v.len, v.prot, v.dirty, v.content_seed);
        }

        // Rebuild the descriptor table. INET sockets are dropped (the app is
        // told connectivity changed); Unix sockets become reserved slots for
        // the replay proxies to reconnect and dup2 into.
        proc.fds = crate::fd::FdTable::new();
        for f in &image.fds {
            match &f.kind {
                FdKind::InetSocket { remote } => {
                    dropped_connections.push(remote.clone());
                }
                FdKind::UnixSocket { .. } => {
                    proc.fds
                        .open_at(f.fd, FdKind::Reserved)
                        .map_err(|e| CriuError::BadImage(e.to_string()))?;
                    reserved_fds.push(f.fd);
                }
                other => {
                    proc.fds
                        .open_at(f.fd, other.clone())
                        .map_err(|e| CriuError::BadImage(e.to_string()))?;
                }
            }
        }
    }

    // Re-establish Binder state at the recorded handle ids.
    let pending_connections = match state::restore(&mut kernel.binder, real, &image.binder) {
        Ok(pending) => pending,
        Err(e) => {
            // Roll back the half-restored process so the kernel stays clean.
            let _ = kernel.kill(real);
            return Err(e.into());
        }
    };

    Ok(Restored {
        real_pid: real,
        dropped_connections,
        reserved_fds,
        pending_connections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{Prot, VmaKind};
    use flux_binder::NodeKind;
    use flux_simcore::ByteSize;

    /// A home kernel with one system-service process and one app ready to
    /// checkpoint.
    fn home_with_app() -> (Kernel, Pid) {
        let mut k = Kernel::new("3.1");
        let sys = k.spawn(Uid::SYSTEM, "system_server");
        for name in ["notification", "alarm", "sensorservice"] {
            let node = k
                .binder
                .create_node(
                    sys,
                    NodeKind::Service {
                        descriptor: format!("I{name}").into(),
                    },
                )
                .unwrap();
            k.binder.add_service(name, node).unwrap();
        }
        let app = k.spawn(Uid(10_040), "com.example.victim");
        {
            let p = k.process_mut(app).unwrap();
            p.spawn_thread("Binder_1");
            p.mem
                .map(VmaKind::Anon, ByteSize::from_mib(6), Prot::RW, 0.5);
            p.mem.map(
                VmaKind::FileBacked {
                    path: "/data/app/com.example.victim.apk".into(),
                    private_dirty: false,
                },
                ByteSize::from_mib(12),
                Prot::RX,
                0.0,
            );
            p.fds.open(FdKind::Binder);
            p.fds.open(FdKind::InetSocket {
                remote: "cdn.example.com:443".into(),
            });
            p.fds.open(FdKind::UnixSocket {
                peer: "SensorEventConnection#1".into(),
            });
        }
        k.binder.get_service(app, "notification").unwrap();
        k.binder.get_service(app, "alarm").unwrap();
        (k, app)
    }

    fn guest_kernel() -> Kernel {
        let mut g = Kernel::new("3.4");
        let sys = g.spawn(Uid::SYSTEM, "system_server");
        for name in ["alarm", "notification", "sensorservice"] {
            let node = g
                .binder
                .create_node(
                    sys,
                    NodeKind::Service {
                        descriptor: format!("I{name}").into(),
                    },
                )
                .unwrap();
            g.binder.add_service(name, node).unwrap();
        }
        g
    }

    #[test]
    fn checkpoint_requires_frozen_process() {
        let (k, app) = home_with_app();
        assert!(matches!(
            checkpoint(&k, app, SimTime::ZERO),
            Err(CriuError::NotFrozen(_))
        ));
    }

    #[test]
    fn checkpoint_refuses_device_specific_vmas() {
        let (mut k, app) = home_with_app();
        k.process_mut(app).unwrap().mem.map(
            VmaKind::Gpu {
                resource: "texture-cache".into(),
            },
            ByteSize::from_mib(16),
            Prot::RW,
            1.0,
        );
        k.freeze(app).unwrap();
        assert!(matches!(
            checkpoint(&k, app, SimTime::ZERO),
            Err(CriuError::DeviceStateRemaining { .. })
        ));
    }

    #[test]
    fn checkpoint_refuses_live_pmem() {
        let (mut k, app) = home_with_app();
        k.pmem.alloc(app, "gpu", ByteSize::from_mib(8));
        k.freeze(app).unwrap();
        assert!(matches!(
            checkpoint(&k, app, SimTime::ZERO),
            Err(CriuError::PmemAllocsRemain { count: 1 })
        ));
    }

    #[test]
    fn image_sizes_account_dirty_pages_only() {
        let (mut k, app) = home_with_app();
        k.freeze(app).unwrap();
        let img = checkpoint(&k, app, SimTime::from_secs(3)).unwrap();
        // 6 MiB anon at 50% dirty = 3 MiB payload; the clean APK mapping
        // contributes nothing.
        assert_eq!(img.payload_bytes(), ByteSize::from_mib(3));
        assert!(img.metadata_bytes().as_u64() < 4096);
        assert_eq!(img.checkpoint_time, SimTime::from_secs(3));
    }

    #[test]
    fn image_encode_decode_roundtrip() {
        let (mut k, app) = home_with_app();
        k.freeze(app).unwrap();
        let img = checkpoint(&k, app, SimTime::from_secs(1)).unwrap();
        let decoded = ProcessImage::decode(&img.encode()).unwrap();
        assert_eq!(decoded, img);
    }

    #[test]
    fn decode_rejects_corrupt_images() {
        let (mut k, app) = home_with_app();
        k.freeze(app).unwrap();
        let img = checkpoint(&k, app, SimTime::ZERO).unwrap();
        let mut bytes = img.encode();
        bytes[0] ^= 0xFF; // Corrupt the magic.
        assert!(matches!(
            ProcessImage::decode(&bytes),
            Err(CriuError::BadImage(_))
        ));
        let mut truncated = img.encode();
        truncated.truncate(truncated.len() / 2);
        assert!(ProcessImage::decode(&truncated).is_err());
    }

    #[test]
    fn restore_roundtrip_preserves_virt_pid_fds_and_binder() {
        let (mut home, app) = home_with_app();
        home.freeze(app).unwrap();
        let virt = home.process(app).unwrap().virt_pid;
        let img = checkpoint(&home, app, SimTime::from_secs(2)).unwrap();

        let mut guest = guest_kernel();
        let ns = guest.namespaces.create();
        let restored = restore(
            &mut guest,
            &img,
            &RestoreOptions {
                namespace: ns,
                uid: Uid(10_077),
                jail_root: "/data/flux/com.example.victim".into(),
            },
        )
        .unwrap();

        let p = guest.process(restored.real_pid).unwrap();
        assert_eq!(p.virt_pid, virt);
        assert_eq!(p.threads.len(), 2);
        assert_eq!(
            p.jail_root.as_deref(),
            Some("/data/flux/com.example.victim")
        );
        // The INET socket was dropped, the Unix socket reserved.
        assert_eq!(restored.dropped_connections, vec!["cdn.example.com:443"]);
        assert_eq!(restored.reserved_fds.len(), 1);
        assert_eq!(p.fds.get(restored.reserved_fds[0]), Some(&FdKind::Reserved));
        // Binder handles resolve to the guest's services at the same ids.
        for h in &img.binder.handles {
            assert!(guest
                .binder
                .resolve_handle(restored.real_pid, h.handle)
                .is_ok());
        }
    }

    #[test]
    fn restore_detects_virt_pid_collision() {
        let (mut home, app) = home_with_app();
        home.freeze(app).unwrap();
        let img = checkpoint(&home, app, SimTime::ZERO).unwrap();
        let mut guest = guest_kernel();
        let ns = guest.namespaces.create();
        let opts = RestoreOptions {
            namespace: ns,
            uid: Uid(10_077),
            jail_root: "/data/flux/x".into(),
        };
        restore(&mut guest, &img, &opts).unwrap();
        assert!(matches!(
            restore(&mut guest, &img, &opts),
            Err(CriuError::PidCollision(_))
        ));
    }

    #[test]
    fn restore_rolls_back_when_guest_lacks_services() {
        let (mut home, app) = home_with_app();
        home.freeze(app).unwrap();
        let img = checkpoint(&home, app, SimTime::ZERO).unwrap();
        // Guest with no services registered at all.
        let mut guest = Kernel::new("3.4");
        let ns = guest.namespaces.create();
        let before = guest.process_count();
        let r = restore(
            &mut guest,
            &img,
            &RestoreOptions {
                namespace: ns,
                uid: Uid(10_077),
                jail_root: "/data/flux/x".into(),
            },
        );
        assert!(matches!(r, Err(CriuError::Binder(_))));
        assert_eq!(guest.process_count(), before);
    }

    #[test]
    fn predump_works_on_running_process_and_skips_device_state() {
        let (mut k, app) = home_with_app();
        // Device-specific state is still mapped — preparation hasn't run —
        // and the process is still running in the foreground.
        k.process_mut(app).unwrap().mem.map(
            VmaKind::Gpu {
                resource: "texture-cache".into(),
            },
            ByteSize::from_mib(16),
            Prot::RW,
            1.0,
        );
        let pre = predump(&k, app, SimTime::from_secs(1)).unwrap();
        // Same dirty anon payload a checkpoint would carry (3 MiB of the
        // 6 MiB anon VMA), no GPU VMA, and none of the restore-only state.
        assert_eq!(pre.payload_bytes(), ByteSize::from_mib(3));
        assert!(pre.vmas.iter().all(|v| !v.kind.is_device_specific()));
        assert!(pre.fds.is_empty());
        assert!(pre.binder.handles.is_empty());
        assert_eq!(pre.checkpoint_time, SimTime::from_secs(1));
    }

    #[test]
    fn dirty_delta_carries_only_newly_dirtied_pages() {
        let (mut k, app) = home_with_app();
        let pre = predump(&k, app, SimTime::ZERO).unwrap();

        // The app keeps running and dirties more of its anon heap.
        for v in k.process_mut(app).unwrap().mem.vmas_mut() {
            if v.kind == VmaKind::Anon {
                v.dirty = 0.75; // was 0.5
            }
        }
        k.freeze(app).unwrap();
        let full = checkpoint(&k, app, SimTime::from_secs(2)).unwrap();
        let delta = full.dirty_delta(&pre);

        // Residue = the extra 25% of the 6 MiB anon VMA.
        assert_eq!(
            delta.payload_bytes(),
            full.payload_bytes() - pre.payload_bytes()
        );
        assert_eq!(delta.payload_bytes(), ByteSize::from_kib(1536));
        // Pre-dump payload + residue covers the full image exactly once.
        assert_eq!(
            pre.payload_bytes() + delta.payload_bytes(),
            full.payload_bytes()
        );
        // The delta still carries everything the pre-dump lacked.
        assert_eq!(delta.fds, full.fds);
        assert_eq!(delta.binder, full.binder);
        assert_eq!(delta.threads, full.threads);
    }

    #[test]
    fn restore_preserves_content_seeds() {
        let (mut home, app) = home_with_app();
        home.freeze(app).unwrap();
        let img = checkpoint(&home, app, SimTime::ZERO).unwrap();

        let mut guest = guest_kernel();
        let ns = guest.namespaces.create();
        let restored = restore(
            &mut guest,
            &img,
            &RestoreOptions {
                namespace: ns,
                uid: Uid(10_077),
                jail_root: "/data/flux/com.example.victim".into(),
            },
        )
        .unwrap();

        // The guest process exposes the home content identity, so a
        // re-checkpoint after a round trip produces matching seeds and a
        // content-addressed cache can recognise the pages.
        let p = guest.process(restored.real_pid).unwrap();
        let guest_seeds: Vec<u64> = p.mem.vmas().iter().map(|v| v.content_seed).collect();
        let home_seeds: Vec<u64> = img.vmas.iter().map(|v| v.content_seed).collect();
        assert_eq!(guest_seeds, home_seeds);
    }

    #[test]
    fn materialize_pages_is_deterministic_and_capped() {
        let (mut k, app) = home_with_app();
        k.freeze(app).unwrap();
        let img = checkpoint(&k, app, SimTime::ZERO).unwrap();
        let a = img.materialize_pages(64 * 1024);
        let b = img.materialize_pages(64 * 1024);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64 * 1024);
    }
}
