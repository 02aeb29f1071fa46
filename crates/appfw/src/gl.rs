//! The OpenGL ES stack of an app process.
//!
//! "Communication with devices takes place via system-provided Binder
//! services ... An exception is the GPU, which is interacted with directly
//! using the standardized OpenGL ES library" (§2). OpenGL consists of a
//! generic library plus a *vendor-specific* library tied to the device's
//! GPU; Flux extends the stack with `eglUnload` so the vendor library can
//! be completely unloaded before checkpoint and a different vendor's
//! library loaded after restore (§3.3).

use flux_kernel::{Process, Prot, VmaKind};
use flux_simcore::ByteSize;

/// One EGL context with its GPU-resident state.
#[derive(Debug, Clone, PartialEq)]
pub struct EglContext {
    /// Context id.
    pub id: u32,
    /// GPU memory held for textures.
    pub texture_bytes: ByteSize,
    /// Compiled shader programs.
    pub shader_count: u32,
    /// Whether the app called `setPreserveEGLContextOnPause` — the
    /// unsupported case that blocks migration (§3.4).
    pub preserve_on_pause: bool,
    /// VMA id of the GPU mapping backing this context, if mapped.
    pub gpu_vma: Option<u64>,
    /// pmem allocation backing the context's command buffers.
    pub pmem_alloc: Option<u64>,
}

/// The app-side hardware renderer plus loaded GL libraries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlState {
    /// Whether the generic `libEGL`/`libGLESv2` pair is loaded.
    pub generic_loaded: bool,
    /// Name of the loaded vendor library (e.g. `libGLES_adreno.so`).
    pub vendor_lib: Option<String>,
    /// VMA id of the vendor library mapping.
    pub vendor_vma: Option<u64>,
    /// Live contexts.
    pub contexts: Vec<EglContext>,
    /// HardwareRenderer cache bytes (flushed by `startTrimMemory`).
    pub cache_bytes: ByteSize,
    /// VMA id backing the renderer cache, if mapped.
    pub cache_vma: Option<u64>,
    next_ctx: u32,
}

impl GlState {
    /// Initialises the GL stack: loads the generic and vendor libraries
    /// into the process and creates the renderer cache.
    pub fn initialize(&mut self, proc: &mut Process, vendor_lib: &str, cache: ByteSize) {
        if !self.generic_loaded {
            proc.mem.map(
                VmaKind::SharedLib {
                    path: "/system/lib/libEGL.so".into(),
                    vendor_specific: false,
                },
                ByteSize::from_kib(260),
                Prot::RX,
                0.0,
            );
            proc.mem.map(
                VmaKind::SharedLib {
                    path: "/system/lib/libGLESv2.so".into(),
                    vendor_specific: false,
                },
                ByteSize::from_kib(220),
                Prot::RX,
                0.0,
            );
            self.generic_loaded = true;
        }
        if self.vendor_lib.is_none() {
            let vma = proc.mem.map(
                VmaKind::SharedLib {
                    path: format!("/system/vendor/lib/egl/{vendor_lib}"),
                    vendor_specific: true,
                },
                ByteSize::from_mib(6),
                Prot::RX,
                0.0,
            );
            self.vendor_lib = Some(vendor_lib.to_owned());
            self.vendor_vma = Some(vma);
        }
        if self.cache_vma.is_none() && !cache.is_zero() {
            let vma = proc.mem.map(
                VmaKind::Gpu {
                    resource: "renderer-cache".into(),
                },
                cache,
                Prot::RW,
                1.0,
            );
            self.cache_bytes = cache;
            self.cache_vma = Some(vma);
        }
    }

    /// Creates a context holding `textures` of GPU memory, backed by a GPU
    /// mapping in the process and a pmem allocation.
    pub fn create_context(
        &mut self,
        proc: &mut Process,
        pmem: &mut flux_kernel::Pmem,
        textures: ByteSize,
        shaders: u32,
    ) -> u32 {
        self.next_ctx += 1;
        let id = self.next_ctx;
        let gpu_vma = proc.mem.map(
            VmaKind::Gpu {
                resource: format!("egl-context#{id}"),
            },
            textures,
            Prot::RW,
            1.0,
        );
        let alloc = pmem.alloc(proc.real_pid, "gpu", textures.scale(0.25));
        self.contexts.push(EglContext {
            id,
            texture_bytes: textures,
            shader_count: shaders,
            preserve_on_pause: false,
            gpu_vma: Some(gpu_vma),
            pmem_alloc: Some(alloc),
        });
        id
    }

    /// Marks a context preserve-on-pause (`setPreserveEGLContextOnPause`).
    pub fn set_preserve_on_pause(&mut self, ctx_id: u32, preserve: bool) -> bool {
        match self.contexts.iter_mut().find(|c| c.id == ctx_id) {
            Some(c) => {
                c.preserve_on_pause = preserve;
                true
            }
            None => false,
        }
    }

    /// Whether any context insists on persisting while backgrounded.
    pub fn any_preserved(&self) -> bool {
        self.contexts.iter().any(|c| c.preserve_on_pause)
    }

    /// Flushes the HardwareRenderer caches (`startTrimMemory`).
    pub fn flush_caches(&mut self, proc: &mut Process) -> ByteSize {
        let flushed = self.cache_bytes;
        if let Some(vma) = self.cache_vma.take() {
            proc.mem.unmap(vma);
        }
        self.cache_bytes = ByteSize::ZERO;
        flushed
    }

    /// Destroys every non-preserved context, unmapping its GPU memory and
    /// freeing its pmem. Returns how many contexts went away.
    pub fn destroy_contexts(&mut self, proc: &mut Process, pmem: &mut flux_kernel::Pmem) -> usize {
        let mut destroyed = 0;
        self.contexts.retain(|c| {
            if c.preserve_on_pause {
                return true;
            }
            if let Some(vma) = c.gpu_vma {
                proc.mem.unmap(vma);
            }
            if let Some(alloc) = c.pmem_alloc {
                pmem.free(alloc);
            }
            destroyed += 1;
            false
        });
        destroyed
    }

    /// Flux's `eglUnload` extension: unloads the vendor library once every
    /// context is gone, so a different vendor stack can be loaded on the
    /// guest. Fails while contexts remain (the trim cascade must run first).
    pub fn egl_unload(&mut self, proc: &mut Process) -> Result<(), String> {
        if !self.contexts.is_empty() {
            return Err(format!(
                "{} EGL context(s) still alive; trim memory first",
                self.contexts.len()
            ));
        }
        if let Some(vma) = self.vendor_vma.take() {
            proc.mem.unmap(vma);
        }
        self.vendor_lib = None;
        Ok(())
    }

    /// Total GPU bytes currently held (contexts + caches).
    pub fn gpu_bytes(&self) -> ByteSize {
        self.contexts
            .iter()
            .map(|c| c.texture_bytes)
            .sum::<ByteSize>()
            + self.cache_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_kernel::{Kernel, Pmem};
    use flux_simcore::Uid;

    fn setup() -> (Kernel, flux_simcore::Pid) {
        let mut k = Kernel::new("3.4");
        let pid = k.spawn(Uid(10_001), "com.example.game");
        (k, pid)
    }

    #[test]
    fn initialize_loads_generic_and_vendor_libs() {
        let (mut k, pid) = setup();
        let mut gl = GlState::default();
        let proc = k.process_mut(pid).unwrap();
        gl.initialize(proc, "libGLES_adreno.so", ByteSize::from_mib(4));
        assert!(gl.generic_loaded);
        assert_eq!(gl.vendor_lib.as_deref(), Some("libGLES_adreno.so"));
        assert!(proc.mem.has_device_specific());
        // Idempotent.
        gl.initialize(proc, "libGLES_adreno.so", ByteSize::from_mib(4));
        assert_eq!(gl.contexts.len(), 0);
    }

    #[test]
    fn context_lifecycle_allocates_and_frees_gpu_state() {
        let (mut k, pid) = setup();
        let mut gl = GlState::default();
        {
            let proc = k.process_mut(pid).unwrap();
            gl.initialize(proc, "libGLES_tegra.so", ByteSize::from_mib(2));
        }
        let mut pmem = std::mem::take(&mut k.pmem);
        let proc = k.process_mut(pid).unwrap();
        gl.create_context(proc, &mut pmem, ByteSize::from_mib(16), 12);
        assert_eq!(gl.gpu_bytes(), ByteSize::from_mib(18));
        assert_eq!(pmem.owned_by(pid).len(), 1);

        gl.flush_caches(proc);
        assert_eq!(gl.destroy_contexts(proc, &mut pmem), 1);
        assert!(pmem.owned_by(pid).is_empty());
        gl.egl_unload(proc).unwrap();
        assert!(!proc.mem.has_device_specific());
    }

    #[test]
    fn egl_unload_refuses_while_contexts_live() {
        let (mut k, pid) = setup();
        let mut gl = GlState::default();
        let mut pmem = Pmem::default();
        let proc = k.process_mut(pid).unwrap();
        gl.initialize(proc, "libGLES_adreno.so", ByteSize::ZERO);
        gl.create_context(proc, &mut pmem, ByteSize::from_mib(8), 4);
        assert!(gl.egl_unload(proc).is_err());
    }

    #[test]
    fn preserved_contexts_survive_trim() {
        let (mut k, pid) = setup();
        let mut gl = GlState::default();
        let mut pmem = Pmem::default();
        let proc = k.process_mut(pid).unwrap();
        gl.initialize(proc, "libGLES_adreno.so", ByteSize::ZERO);
        let ctx = gl.create_context(proc, &mut pmem, ByteSize::from_mib(8), 4);
        assert!(gl.set_preserve_on_pause(ctx, true));
        assert!(gl.any_preserved());
        assert_eq!(gl.destroy_contexts(proc, &mut pmem), 0);
        assert_eq!(gl.contexts.len(), 1);
        // This is exactly why Subway Surfers cannot migrate.
        assert!(gl.egl_unload(proc).is_err());
    }
}
