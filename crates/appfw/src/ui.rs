//! Activities, windows and view hierarchies.
//!
//! §2 of the paper: an activity transitions Resumed → Paused → Stopped; its
//! Window holds a Surface that is destroyed in the Stopped state; a View
//! hierarchy rooted at a ViewRoot redraws the UI. CRIA exploits all three:
//! backgrounding destroys surfaces, trim-memory destroys the ViewRoots'
//! hardware resources, and conditional re-initialisation redraws everything
//! at the guest's resolution after restore.

/// Activity lifecycle states (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityState {
    /// Foreground, interactive.
    Resumed,
    /// Visible but not interactive; cannot execute code.
    Paused,
    /// Not visible; surface destroyed; placed here by the task idler.
    Stopped,
}

/// One activity of an app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Activity {
    /// Component name, e.g. `".MainActivity"`.
    pub name: String,
    /// Lifecycle state.
    pub state: ActivityState,
    /// Window token registered with the WindowManager.
    pub window_token: String,
}

/// One view in the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// View class, e.g. `"TextView"`.
    pub class: &'static str,
    /// Whether the view's draw state is valid (invalidated views redraw).
    pub valid: bool,
}

/// A view hierarchy rooted at a ViewRoot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewRoot {
    /// Views in draw order.
    pub views: Vec<View>,
    /// Whether hardware rendering resources are attached.
    pub hardware_resources: bool,
    /// The size the hierarchy was last laid out against.
    pub layout_size: (u32, u32),
}

impl ViewRoot {
    /// Builds a hierarchy of `count` views laid out for `size`.
    pub fn build(count: usize, size: (u32, u32)) -> Self {
        let classes = [
            "FrameLayout",
            "LinearLayout",
            "TextView",
            "ImageView",
            "Button",
        ];
        Self {
            views: (0..count)
                .map(|i| View {
                    class: classes[i % classes.len()],
                    valid: true,
                })
                .collect(),
            hardware_resources: true,
            layout_size: size,
        }
    }

    /// `terminateHardwareResources`: detaches hardware rendering state.
    pub fn terminate_hardware_resources(&mut self) {
        self.hardware_resources = false;
    }

    /// Invalidates every view (they will redraw on next traversal).
    pub fn invalidate_all(&mut self) {
        for v in &mut self.views {
            v.valid = false;
        }
    }

    /// Lays the hierarchy out for a (possibly different) display size and
    /// redraws; returns how many views had to redraw.
    pub fn relayout(&mut self, size: (u32, u32)) -> usize {
        let resized = self.layout_size != size;
        self.layout_size = size;
        let mut redrawn = 0;
        for v in &mut self.views {
            if resized || !v.valid {
                v.valid = true;
                redrawn += 1;
            }
        }
        self.hardware_resources = true;
        redrawn
    }

    /// Number of views with invalid draw state.
    pub fn invalid_count(&self) -> usize {
        self.views.iter().filter(|v| !v.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_creates_requested_views() {
        let root = ViewRoot::build(7, (800, 1280));
        assert_eq!(root.views.len(), 7);
        assert!(root.hardware_resources);
        assert_eq!(root.invalid_count(), 0);
    }

    #[test]
    fn invalidate_then_relayout_redraws_everything() {
        let mut root = ViewRoot::build(5, (800, 1280));
        root.terminate_hardware_resources();
        root.invalidate_all();
        assert_eq!(root.invalid_count(), 5);
        // Restored on a bigger screen: everything redraws at the new size.
        let redrawn = root.relayout((1200, 1920));
        assert_eq!(redrawn, 5);
        assert_eq!(root.layout_size, (1200, 1920));
        assert!(root.hardware_resources);
    }

    #[test]
    fn relayout_same_size_redraws_only_invalid_views() {
        let mut root = ViewRoot::build(4, (800, 1280));
        root.views[1].valid = false;
        assert_eq!(root.relayout((800, 1280)), 1);
    }
}
