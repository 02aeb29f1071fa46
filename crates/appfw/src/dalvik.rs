//! The Dalvik VM instance of an app.
//!
//! Every app "runs inside an isolated instance of the Dalvik VM" (§2). Two
//! details matter to CRIA: the managed heap dominates checkpoint image size,
//! and ashmem-named heap regions would need driver-level checkpoint support
//! — so Flux "modified Dalvik to use mmap for obtaining memory instead of
//! ashmem" (§3.3). This model bakes that modification in.

use flux_kernel::{Process, Prot, VmaKind};
use flux_simcore::ByteSize;

/// The Dalvik VM state of one process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dalvik {
    /// VMA id of the managed heap.
    pub heap_vma: Option<u64>,
    /// Heap size.
    pub heap_size: ByteSize,
    /// VMA id of the zygote-shared code cache mapping.
    pub code_cache_vma: Option<u64>,
}

impl Dalvik {
    /// Boots the VM in `proc` with an initial heap.
    ///
    /// The heap is an anonymous `mmap` mapping (the Flux Dalvik
    /// modification), so CRIA dumps its dirty pages like any other memory.
    pub fn boot(proc: &mut Process, heap: ByteSize, heap_dirty: f64) -> Self {
        let heap_vma = proc.mem.map(VmaKind::Anon, heap, Prot::RW, heap_dirty);
        let code_cache_vma = proc.mem.map(
            VmaKind::FileBacked {
                path: "/data/dalvik-cache/classes.dex".into(),
                private_dirty: false,
            },
            ByteSize::from_mib(4),
            Prot::RX,
            0.0,
        );
        Self {
            heap_vma: Some(heap_vma),
            heap_size: heap,
            code_cache_vma: Some(code_cache_vma),
        }
    }

    /// Grows (or dirties) the heap as the app allocates, replacing the heap
    /// mapping with a larger one.
    pub fn grow_heap(&mut self, proc: &mut Process, new_size: ByteSize, dirty: f64) {
        if let Some(vma) = self.heap_vma.take() {
            proc.mem.unmap(vma);
        }
        let vma = proc.mem.map(VmaKind::Anon, new_size, Prot::RW, dirty);
        self.heap_vma = Some(vma);
        self.heap_size = new_size;
    }

    /// Current dirty-heap bytes the checkpoint would carry.
    pub fn dirty_heap_bytes(&self, proc: &Process) -> ByteSize {
        self.heap_vma
            .and_then(|id| proc.mem.get(id))
            .map(|v| v.dump_bytes())
            .unwrap_or(ByteSize::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_kernel::Kernel;
    use flux_simcore::Uid;

    #[test]
    fn boot_maps_mmap_heap_not_ashmem() {
        let mut k = Kernel::new("3.4");
        let pid = k.spawn(Uid(10_001), "com.example.app");
        let proc = k.process_mut(pid).unwrap();
        let vm = Dalvik::boot(proc, ByteSize::from_mib(24), 0.5);
        let heap = proc.mem.get(vm.heap_vma.unwrap()).unwrap();
        assert_eq!(heap.kind, VmaKind::Anon);
        // No ashmem region was created (the Flux Dalvik modification).
        assert!(k.ashmem.is_empty());
    }

    #[test]
    fn grow_heap_replaces_mapping() {
        let mut k = Kernel::new("3.4");
        let pid = k.spawn(Uid(10_001), "com.example.app");
        let proc = k.process_mut(pid).unwrap();
        let mut vm = Dalvik::boot(proc, ByteSize::from_mib(8), 1.0);
        let before = vm.dirty_heap_bytes(proc);
        vm.grow_heap(proc, ByteSize::from_mib(32), 1.0);
        assert_eq!(vm.heap_size, ByteSize::from_mib(32));
        assert!(vm.dirty_heap_bytes(proc) > before);
    }
}
