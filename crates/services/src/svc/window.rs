//! The WindowManagerService.
//!
//! Not part of Table 2 (its state is re-created rather than replayed), but
//! central to CRIA's preparation stage: it owns Windows and Surfaces, and
//! its `startTrimMemory`/`endTrimMemory` RPCs anchor the trim-memory
//! cascade that releases hardware rendering resources (§3.3).

use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// One window with its backing surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRecord {
    /// Owning app.
    pub uid: Uid,
    /// Window token.
    pub token: String,
    /// Whether the Surface currently exists (destroyed in Stopped state).
    pub surface_alive: bool,
    /// Layout size.
    pub size: (u32, u32),
}

/// The window-manager state.
#[derive(Debug, Clone)]
pub struct WindowManagerService {
    windows: BTreeMap<(Uid, String), WindowRecord>,
    screen: (u32, u32),
    /// Uids currently inside a startTrimMemory/endTrimMemory bracket.
    trimming: Vec<Uid>,
}

impl WindowManagerService {
    /// Creates the service with the device screen size.
    pub fn new(screen: (u32, u32)) -> Self {
        Self {
            windows: BTreeMap::new(),
            screen,
            trimming: Vec::new(),
        }
    }

    /// Windows of `uid`.
    pub fn windows_of(&self, uid: Uid) -> Vec<&WindowRecord> {
        self.windows.values().filter(|w| w.uid == uid).collect()
    }

    /// The device screen size windows lay out against.
    pub fn screen(&self) -> (u32, u32) {
        self.screen
    }

    /// Destroys the surfaces of `uid`'s windows (app went to background).
    pub fn destroy_surfaces(&mut self, uid: Uid) -> usize {
        let mut n = 0;
        for w in self.windows.values_mut().filter(|w| w.uid == uid) {
            if w.surface_alive {
                w.surface_alive = false;
                n += 1;
            }
        }
        n
    }
}

impl SystemService for WindowManagerService {
    fn descriptor(&self) -> &'static str {
        "IWindowManager"
    }

    fn registry_name(&self) -> &'static str {
        "window"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "addWindow" => {
                let token = args.str(0)?.to_owned();
                self.windows.insert(
                    (ctx.caller_uid, token.clone()),
                    WindowRecord {
                        uid: ctx.caller_uid,
                        token,
                        surface_alive: true,
                        size: self.screen,
                    },
                );
                Ok(Parcel::new())
            }
            "removeWindow" => {
                let token = args.str(0)?.to_owned();
                self.windows.remove(&(ctx.caller_uid, token));
                Ok(Parcel::new())
            }
            "relayout" => {
                let token = args.str(0)?.to_owned();
                let w = args.i32(1)? as u32;
                let h = args.i32(2)? as u32;
                match self.windows.get_mut(&(ctx.caller_uid, token)) {
                    Some(win) => {
                        win.size = (w.min(self.screen.0), h.min(self.screen.1));
                        win.surface_alive = true;
                        Ok(Parcel::new()
                            .with_i32(win.size.0 as i32)
                            .with_i32(win.size.1 as i32))
                    }
                    None => Err(ctx.fail(self.descriptor(), method, "no such window")),
                }
            }
            "startTrimMemory" => {
                self.trimming.push(ctx.caller_uid);
                Ok(Parcel::new())
            }
            "endTrimMemory" => {
                let uid = ctx.caller_uid;
                self.trimming.retain(|u| *u != uid);
                self.destroy_surfaces(uid);
                Ok(Parcel::new())
            }
            "getInitialDisplaySize" => Ok(Parcel::new()
                .with_i32(self.screen.0 as i32)
                .with_i32(self.screen.1 as i32)),
            other => Err(ctx.fail(self.descriptor(), other, "unhandled method")),
        }
    }

    fn on_uid_death(&mut self, _ctx: &mut ServiceCtx<'_>, uid: Uid) {
        self.windows.retain(|(u, _), _| *u != uid);
        self.trimming.retain(|u| *u != uid);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
