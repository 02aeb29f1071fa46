//! Virtual memory areas of a simulated process.
//!
//! CRIA checkpoints a process's address space, so the kernel model tracks
//! VMAs with enough fidelity to know (a) how many bytes a checkpoint image
//! contains, (b) which mappings are file-backed and need no page dump, and
//! (c) which mappings are *device-specific* (GPU, pmem) and must be freed by
//! Flux's preparation stage before checkpointing can proceed.

use flux_simcore::ByteSize;

/// The simulated page size (4 KiB, as on all the paper's devices).
pub const PAGE_SIZE: u64 = 4096;

/// What backs a VMA.
#[derive(Debug, Clone, PartialEq)]
pub enum VmaKind {
    /// Anonymous memory: Dalvik heap, malloc arenas.
    Anon,
    /// The main thread stack or a thread stack.
    Stack,
    /// A file-backed executable mapping (APK code, framework jars).
    /// `path` lets restore re-map the same file from the synced filesystem.
    FileBacked {
        /// Path of the backing file on the app's (synced) filesystem.
        path: String,
        /// Whether the mapping is private copy-on-write with dirty pages.
        private_dirty: bool,
    },
    /// A shared library mapping. `vendor_specific` marks GPU vendor
    /// libraries which must be unloaded by `eglUnload` before migration.
    SharedLib {
        /// Library path, e.g. `/system/lib/libEGL_adreno.so`.
        path: String,
        /// True for device-vendor GPU libraries.
        vendor_specific: bool,
    },
    /// An ashmem region (named anonymous shared memory).
    Ashmem {
        /// The backing ashmem region id.
        region: u64,
    },
    /// A physically contiguous pmem allocation used by devices like the GPU.
    Pmem {
        /// The backing pmem allocation id.
        alloc: u64,
    },
    /// GPU-mapped memory: textures, shader programs, command buffers.
    Gpu {
        /// Human-readable resource class, e.g. `"texture-cache"`.
        resource: String,
    },
}

impl VmaKind {
    /// Whether this mapping is device-specific state that cannot be
    /// checkpointed and must be released during migration preparation.
    pub fn is_device_specific(&self) -> bool {
        matches!(
            self,
            VmaKind::Pmem { .. }
                | VmaKind::Gpu { .. }
                | VmaKind::SharedLib {
                    vendor_specific: true,
                    ..
                }
        )
    }

    /// Whether the checkpoint must dump page contents for this mapping.
    ///
    /// Clean file-backed mappings are re-mapped from the synced filesystem
    /// on the guest instead of being dumped, which is what keeps checkpoint
    /// images small relative to the app's full footprint.
    pub fn needs_page_dump(&self) -> bool {
        match self {
            VmaKind::Anon | VmaKind::Stack | VmaKind::Ashmem { .. } => true,
            VmaKind::FileBacked { private_dirty, .. } => *private_dirty,
            VmaKind::SharedLib { .. } | VmaKind::Pmem { .. } | VmaKind::Gpu { .. } => false,
        }
    }
}

/// Memory protection bits of a VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prot {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Prot {
    /// `rw-`, the common data protection.
    pub const RW: Prot = Prot {
        r: true,
        w: true,
        x: false,
    };
    /// `r-x`, the common code protection.
    pub const RX: Prot = Prot {
        r: true,
        w: false,
        x: true,
    };
    /// `r--`, read-only data.
    pub const R: Prot = Prot {
        r: true,
        w: false,
        x: false,
    };
}

/// One virtual memory area.
#[derive(Debug, Clone, PartialEq)]
pub struct Vma {
    /// Stable id within the process.
    pub id: u64,
    /// What backs the mapping.
    pub kind: VmaKind,
    /// Mapping length in bytes (page-aligned).
    pub len: ByteSize,
    /// Protection bits.
    pub prot: Prot,
    /// Fraction of pages dirtied since mapping (0.0–1.0); determines how
    /// many pages a checkpoint image must carry for dump-needing VMAs.
    pub dirty: f64,
    /// Deterministic seed describing the synthetic page contents.
    pub content_seed: u64,
}

impl Vma {
    /// Pages spanned by the mapping.
    pub fn pages(&self) -> u64 {
        self.len.as_u64().div_ceil(PAGE_SIZE)
    }

    /// Bytes a checkpoint image must carry for this VMA.
    pub fn dump_bytes(&self) -> ByteSize {
        if !self.kind.needs_page_dump() {
            return ByteSize::ZERO;
        }
        let dirty_pages = (self.pages() as f64 * self.dirty.clamp(0.0, 1.0)).ceil() as u64;
        ByteSize::from_bytes(dirty_pages * PAGE_SIZE)
    }
}

/// The address space of a process: an ordered set of VMAs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AddressSpace {
    vmas: Vec<Vma>,
    next_id: u64,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a new VMA, rounding `len` up to whole pages, and returns its id.
    pub fn map(&mut self, kind: VmaKind, len: ByteSize, prot: Prot, dirty: f64) -> u64 {
        let seed = self.next_id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.map_with_seed(kind, len, prot, dirty, seed)
    }

    /// [`map`](Self::map) with an explicit content seed.
    ///
    /// Restore uses this to carry the checkpointed page identity across
    /// devices: the restored pages *are* the home pages, so a later
    /// re-migration must present the same content identity for the guest's
    /// content-addressed image cache to recognise unchanged chunks.
    pub fn map_with_seed(
        &mut self,
        kind: VmaKind,
        len: ByteSize,
        prot: Prot,
        dirty: f64,
        content_seed: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let pages = len.as_u64().div_ceil(PAGE_SIZE).max(1);
        self.vmas.push(Vma {
            id,
            kind,
            len: ByteSize::from_bytes(pages * PAGE_SIZE),
            prot,
            dirty: dirty.clamp(0.0, 1.0),
            content_seed,
        });
        id
    }

    /// Unmaps the VMA with `id`. Returns the removed VMA if it existed.
    pub fn unmap(&mut self, id: u64) -> Option<Vma> {
        let idx = self.vmas.iter().position(|v| v.id == id)?;
        Some(self.vmas.remove(idx))
    }

    /// Unmaps every VMA matching `pred`, returning how many were removed.
    pub fn unmap_matching(&mut self, pred: impl Fn(&Vma) -> bool) -> usize {
        let before = self.vmas.len();
        self.vmas.retain(|v| !pred(v));
        before - self.vmas.len()
    }

    /// All VMAs, in mapping order.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Mutable VMA access (e.g. to dirty more pages as an app runs).
    pub fn vmas_mut(&mut self) -> &mut [Vma] {
        &mut self.vmas
    }

    /// Looks up a VMA by id.
    pub fn get(&self, id: u64) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.id == id)
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> ByteSize {
        self.vmas.iter().map(|v| v.len).sum()
    }

    /// Bytes a checkpoint must dump across all VMAs.
    pub fn dump_bytes(&self) -> ByteSize {
        self.vmas.iter().map(Vma::dump_bytes).sum()
    }

    /// Whether any device-specific mappings remain (these block checkpoint).
    pub fn has_device_specific(&self) -> bool {
        self.vmas.iter().any(|v| v.kind.is_device_specific())
    }

    /// VMA count.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// Whether the address space has no mappings.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rounds_to_pages() {
        let mut a = AddressSpace::new();
        let id = a.map(VmaKind::Anon, ByteSize::from_bytes(1), Prot::RW, 0.5);
        assert_eq!(a.get(id).unwrap().len.as_u64(), PAGE_SIZE);
        assert_eq!(a.get(id).unwrap().pages(), 1);
    }

    #[test]
    fn dump_bytes_skips_clean_file_mappings() {
        let mut a = AddressSpace::new();
        a.map(
            VmaKind::FileBacked {
                path: "/system/framework/framework.jar".into(),
                private_dirty: false,
            },
            ByteSize::from_mib(8),
            Prot::RX,
            0.0,
        );
        a.map(VmaKind::Anon, ByteSize::from_mib(4), Prot::RW, 1.0);
        assert_eq!(a.dump_bytes(), ByteSize::from_mib(4));
    }

    #[test]
    fn dump_bytes_scales_with_dirty_fraction() {
        let mut a = AddressSpace::new();
        a.map(VmaKind::Anon, ByteSize::from_mib(10), Prot::RW, 0.25);
        let dumped = a.dump_bytes().as_mib_f64();
        assert!((dumped - 2.5).abs() < 0.01, "dumped {dumped} MiB");
    }

    #[test]
    fn device_specific_kinds_are_detected() {
        assert!(VmaKind::Pmem { alloc: 1 }.is_device_specific());
        assert!(VmaKind::Gpu {
            resource: "texture".into()
        }
        .is_device_specific());
        assert!(VmaKind::SharedLib {
            path: "/vendor/lib/egl/libGLES_adreno.so".into(),
            vendor_specific: true
        }
        .is_device_specific());
        assert!(!VmaKind::SharedLib {
            path: "/system/lib/libEGL.so".into(),
            vendor_specific: false
        }
        .is_device_specific());
        assert!(!VmaKind::Anon.is_device_specific());
    }

    #[test]
    fn unmap_matching_removes_gpu_state() {
        let mut a = AddressSpace::new();
        a.map(VmaKind::Anon, ByteSize::from_mib(1), Prot::RW, 1.0);
        a.map(
            VmaKind::Gpu {
                resource: "texture".into(),
            },
            ByteSize::from_mib(16),
            Prot::RW,
            1.0,
        );
        a.map(
            VmaKind::Pmem { alloc: 3 },
            ByteSize::from_mib(8),
            Prot::RW,
            1.0,
        );
        assert!(a.has_device_specific());
        let removed = a.unmap_matching(|v| v.kind.is_device_specific());
        assert_eq!(removed, 2);
        assert!(!a.has_device_specific());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn unmap_by_id() {
        let mut a = AddressSpace::new();
        let id = a.map(VmaKind::Stack, ByteSize::from_kib(64), Prot::RW, 0.1);
        assert!(a.unmap(id).is_some());
        assert!(a.unmap(id).is_none());
        assert!(a.is_empty());
    }
}
