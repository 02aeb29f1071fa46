//! A unit test's temporary directory, removed when the test ends, pass or
//! fail.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// `<temp>/flux-<kind>-test-<tag>-<pid>`, emptied when made and removed
/// on drop, so a failing test leaves nothing behind.
pub(crate) struct TestDir(PathBuf);

impl TestDir {
    /// Makes the guard, removing what an earlier run left at the path.
    pub(crate) fn new(kind: &str, tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("flux-{kind}-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// Lets `&dir` go where an `impl Into<PathBuf>` is taken.
impl From<&TestDir> for PathBuf {
    fn from(dir: &TestDir) -> Self {
        dir.0.clone()
    }
}
