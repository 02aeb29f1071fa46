//! The app runtime: a launched app with its process, UI and GL state.

use crate::dalvik::Dalvik;
use crate::gl::GlState;
use crate::ui::{Activity, ActivityState, ViewRoot};
use flux_binder::{BinderError, Parcel};
use flux_kernel::{FdKind, Kernel, Prot, VmaKind};
use flux_services::svc::window::WindowManagerService;
use flux_services::{Delivery, Event, ServiceHost};
use flux_simcore::{ByteSize, Pid, SimTime, Uid};
use std::collections::BTreeMap;

/// Resource footprint an app is launched with.
#[derive(Debug, Clone, PartialEq)]
pub struct AppFootprint {
    /// Dalvik heap size.
    pub heap: ByteSize,
    /// Fraction of the heap that is dirty.
    pub heap_dirty: f64,
    /// Native (malloc) memory.
    pub native: ByteSize,
    /// GPU texture memory per EGL context.
    pub textures: ByteSize,
    /// EGL contexts (0 for non-GL apps).
    pub gl_contexts: u32,
    /// Views in the hierarchy.
    pub views: usize,
    /// Extra threads beyond main (binder threads, render thread…).
    pub threads: u32,
    /// APK size (code mapping).
    pub apk: ByteSize,
    /// Whether the app opens an INET socket (most do).
    pub network: bool,
}

impl Default for AppFootprint {
    fn default() -> Self {
        Self {
            heap: ByteSize::from_mib(24),
            heap_dirty: 0.4,
            native: ByteSize::from_mib(6),
            textures: ByteSize::from_mib(8),
            gl_contexts: 1,
            views: 40,
            threads: 4,
            apk: ByteSize::from_mib(10),
            network: true,
        }
    }
}

/// A data-directory write the app has prepared in memory but not yet
/// persisted: it reaches disk at the next lifecycle save point
/// (`onPause`/`onStop`, or the pre-checkpoint flush migration drives). A
/// killed process loses its pending writes — the lifecycle data-loss
/// hazard the scenario oracle classifies as a lost write.
///
/// The hash is fixed when the write is buffered, so flushing at any later
/// instant produces the same bytes the app promised at write time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingWrite {
    /// File name relative to the app data dir's `files/` subdirectory.
    pub name: String,
    /// Content size.
    pub size: ByteSize,
    /// Content identity.
    pub hash: u64,
}

/// A launched app.
#[derive(Debug)]
pub struct App {
    /// Package name.
    pub package: String,
    /// Assigned UID.
    pub uid: Uid,
    /// Main process (real PID on the hosting kernel).
    pub main_pid: Pid,
    /// Extra processes for multi-process apps (unsupported by Flux, §3.4).
    pub extra_pids: Vec<Pid>,
    /// Activities, most recent first.
    pub activities: Vec<Activity>,
    /// The view hierarchy of the top activity.
    pub view_root: ViewRoot,
    /// GL stack.
    pub gl: GlState,
    /// Dalvik VM.
    pub dalvik: Dalvik,
    /// Cached service handles, by registry name.
    pub handles: BTreeMap<String, u32>,
    /// Events delivered to the app (broadcasts, alarms, sensor events…).
    pub inbox: Vec<Event>,
    /// App data directory.
    pub data_dir: String,
    /// Minimum API level the APK requires.
    pub min_api: u32,
    /// Whether the app is currently interacting with a ContentProvider
    /// (blocks migration while true, §3.4).
    pub in_content_provider_call: bool,
    /// Writes prepared in memory but not yet persisted; lost if the
    /// process dies before a lifecycle save point.
    pub pending_writes: Vec<PendingWrite>,
}

impl App {
    /// The current lifecycle state of the top activity.
    pub fn top_state(&self) -> Option<ActivityState> {
        self.activities.first().map(|a| a.state)
    }

    /// Whether the app spans multiple processes.
    pub fn is_multi_process(&self) -> bool {
        !self.extra_pids.is_empty()
    }

    /// All PIDs of the app.
    pub fn pids(&self) -> Vec<Pid> {
        let mut v = vec![self.main_pid];
        v.extend_from_slice(&self.extra_pids);
        v
    }

    /// Takes and clears the delivered-event inbox.
    pub fn drain_inbox(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.inbox)
    }

    /// Buffers a data-directory write in memory. A later write to the
    /// same name replaces the earlier one, as re-saving a file would.
    pub fn buffer_write(&mut self, name: &str, size: ByteSize, hash: u64) {
        self.pending_writes.retain(|w| w.name != name);
        self.pending_writes.push(PendingWrite {
            name: name.to_owned(),
            size,
            hash,
        });
    }

    /// Takes the buffered writes for the caller to persist — the
    /// `onPause`/`onStop` save path.
    pub fn drain_pending(&mut self) -> Vec<PendingWrite> {
        std::mem::take(&mut self.pending_writes)
    }

    /// Accepts a delivery from the service layer.
    pub fn accept(&mut self, delivery: Delivery) {
        debug_assert_eq!(delivery.to_uid, self.uid);
        self.inbox.push(delivery.event);
    }

    /// Obtains (and caches) a handle to a system service via the
    /// ServiceManager — the app-side `getService` path.
    pub fn service_handle(&mut self, kernel: &mut Kernel, name: &str) -> Result<u32, BinderError> {
        if let Some(h) = self.handles.get(name) {
            return Ok(*h);
        }
        let h = kernel.binder.get_service(self.main_pid, name)?;
        self.handles.insert(name.to_owned(), h);
        Ok(h)
    }

    /// Calls a system service method directly (without Flux recording);
    /// the Flux runtime in `flux-core` wraps this with Selective Record.
    pub fn call_service(
        &mut self,
        kernel: &mut Kernel,
        host: &mut ServiceHost,
        now: SimTime,
        name: &str,
        method: &str,
        args: Parcel,
    ) -> Result<(Parcel, Vec<Delivery>), BinderError> {
        let handle = self.service_handle(kernel, name)?;
        let result = host.dispatch(kernel, now, self.main_pid, handle, method, args)?;
        Ok((result.reply, result.deliveries))
    }
}

/// Launches an app on a kernel: spawns the process, maps its memory image,
/// boots Dalvik, builds the UI against the device screen, initialises GL
/// when the footprint asks for it, and registers its window.
#[allow(clippy::too_many_arguments)]
pub fn launch(
    kernel: &mut Kernel,
    host: &mut ServiceHost,
    now: SimTime,
    package: &str,
    uid: Uid,
    footprint: &AppFootprint,
    vendor_gl_lib: &str,
    min_api: u32,
) -> Result<App, BinderError> {
    let pid = kernel.spawn(uid, package);
    {
        let proc = kernel.process_mut(pid).expect("just spawned");
        for i in 0..footprint.threads {
            proc.spawn_thread(&format!("Binder_{i}"));
        }
        proc.mem.map(
            VmaKind::FileBacked {
                path: format!("/data/app/{package}.apk"),
                private_dirty: false,
            },
            footprint.apk,
            Prot::RX,
            0.0,
        );
        proc.mem.map(VmaKind::Anon, footprint.native, Prot::RW, 0.6);
        proc.mem
            .map(VmaKind::Stack, ByteSize::from_kib(512), Prot::RW, 0.3);
        proc.fds.open(FdKind::Binder);
        proc.fds.open(FdKind::Logger {
            buffer: "main".into(),
        });
        if footprint.network {
            proc.fds.open(FdKind::InetSocket {
                remote: format!("api.{package}.example:443"),
            });
        }
    }

    let dalvik = {
        let proc = kernel.process_mut(pid).expect("just spawned");
        Dalvik::boot(proc, footprint.heap, footprint.heap_dirty)
    };

    let screen = host
        .service::<WindowManagerService>("window")
        .map(WindowManagerService::screen)
        .unwrap_or((1200, 1920));

    let mut gl = GlState::default();
    if footprint.gl_contexts > 0 {
        // Split pmem out so the process and the allocator can be borrowed
        // together.
        let mut pmem = std::mem::take(&mut kernel.pmem);
        let proc = kernel.process_mut(pid).expect("just spawned");
        gl.initialize(proc, vendor_gl_lib, ByteSize::from_mib(2));
        for _ in 0..footprint.gl_contexts {
            gl.create_context(proc, &mut pmem, footprint.textures, 8);
        }
        kernel.pmem = pmem;
    }

    let mut app = App {
        package: package.to_owned(),
        uid,
        main_pid: pid,
        extra_pids: Vec::new(),
        activities: vec![Activity {
            name: ".MainActivity".into(),
            state: ActivityState::Resumed,
            window_token: format!("{package}/.MainActivity"),
        }],
        view_root: ViewRoot::build(footprint.views, screen),
        gl,
        dalvik,
        handles: BTreeMap::new(),
        inbox: Vec::new(),
        data_dir: format!("/data/data/{package}"),
        min_api,
        in_content_provider_call: false,
        pending_writes: Vec::new(),
    };

    // Register the main window with the WindowManager.
    let token = app.activities[0].window_token.clone();
    app.call_service(
        kernel,
        host,
        now,
        "window",
        "addWindow",
        Parcel::new().with_str(token),
    )?;
    Ok(app)
}

/// Spawns an additional process for a multi-process app (e.g. Facebook).
pub fn add_process(kernel: &mut Kernel, app: &mut App, suffix: &str) -> Pid {
    let pid = kernel.spawn(app.uid, &format!("{}:{suffix}", app.package));
    {
        let proc = kernel.process_mut(pid).expect("just spawned");
        proc.mem
            .map(VmaKind::Anon, ByteSize::from_mib(12), Prot::RW, 0.5);
        proc.fds.open(FdKind::Binder);
    }
    app.extra_pids.push(pid);
    pid
}
