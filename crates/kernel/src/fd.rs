//! File descriptor tables of simulated processes.
//!
//! CRIA must checkpoint every open descriptor and recreate it on the guest.
//! Two details from the paper matter here: network sockets are *not*
//! restored (the app is told connectivity changed instead, §3.1), and the
//! SensorService replay proxy `dup2`s a fresh sensor channel into the
//! original descriptor number (§3.2), so descriptor numbers must be
//! reservable.

use std::collections::BTreeMap;
use std::fmt;

/// What an open descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdKind {
    /// A regular file on some filesystem.
    File {
        /// Absolute path.
        path: String,
        /// Current file offset.
        offset: u64,
        /// Open for writing.
        writable: bool,
    },
    /// A Unix domain socket, e.g. a sensor event channel.
    UnixSocket {
        /// Description of the peer, e.g. `"SensorEventConnection#3"`.
        peer: String,
    },
    /// An INET socket. Dropped on migration; connectivity-change events are
    /// delivered instead.
    InetSocket {
        /// Remote endpoint, e.g. `"api.netflix.com:443"`.
        remote: String,
    },
    /// The Binder device (`/dev/binder`).
    Binder,
    /// An ashmem region descriptor.
    Ashmem {
        /// Backing region id.
        region: u64,
    },
    /// The alarm device (`/dev/alarm`).
    AlarmDev,
    /// A logger device buffer (`/dev/log/main` etc.).
    Logger {
        /// Buffer name: `main`, `events`, `radio`, `system`.
        buffer: String,
    },
    /// One end of a pipe.
    Pipe {
        /// True for the read end.
        read_end: bool,
    },
    /// A descriptor number reserved during restore for a later `dup2`
    /// (the SensorService channel trick).
    Reserved,
}

impl FdKind {
    /// Whether migration drops this descriptor rather than restoring it.
    pub fn dropped_on_migration(&self) -> bool {
        matches!(self, FdKind::InetSocket { .. })
    }
}

impl fmt::Display for FdKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdKind::File { path, .. } => write!(f, "file:{path}"),
            FdKind::UnixSocket { peer } => write!(f, "unix:{peer}"),
            FdKind::InetSocket { remote } => write!(f, "inet:{remote}"),
            FdKind::Binder => write!(f, "binder"),
            FdKind::Ashmem { region } => write!(f, "ashmem:{region}"),
            FdKind::AlarmDev => write!(f, "alarm"),
            FdKind::Logger { buffer } => write!(f, "log:{buffer}"),
            FdKind::Pipe { read_end } => {
                write!(f, "pipe:{}", if *read_end { "r" } else { "w" })
            }
            FdKind::Reserved => write!(f, "reserved"),
        }
    }
}

/// Errors from descriptor-table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdError {
    /// The descriptor number is not open.
    BadFd(i32),
    /// Attempted to open at a number already in use.
    InUse(i32),
}

impl fmt::Display for FdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdError::BadFd(fd) => write!(f, "bad file descriptor {fd}"),
            FdError::InUse(fd) => write!(f, "descriptor {fd} already in use"),
        }
    }
}

impl std::error::Error for FdError {}

/// A process's descriptor table.
///
/// Descriptors 0–2 (stdio) are implicit and not tracked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FdTable {
    fds: BTreeMap<i32, FdKind>,
}

impl FdTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens `kind` at the lowest free descriptor ≥ 3, returning it.
    pub fn open(&mut self, kind: FdKind) -> i32 {
        let mut fd = 3;
        while self.fds.contains_key(&fd) {
            fd += 1;
        }
        self.fds.insert(fd, kind);
        fd
    }

    /// Opens `kind` at a specific descriptor number (restore path).
    pub fn open_at(&mut self, fd: i32, kind: FdKind) -> Result<(), FdError> {
        if self.fds.contains_key(&fd) {
            return Err(FdError::InUse(fd));
        }
        self.fds.insert(fd, kind);
        Ok(())
    }

    /// Closes `fd`.
    pub fn close(&mut self, fd: i32) -> Result<FdKind, FdError> {
        self.fds.remove(&fd).ok_or(FdError::BadFd(fd))
    }

    /// `dup2`: makes `newfd` refer to whatever `oldfd` refers to, closing
    /// `newfd` first if open. This is the primitive the SensorService replay
    /// proxy relies on.
    pub fn dup2(&mut self, oldfd: i32, newfd: i32) -> Result<(), FdError> {
        let kind = self.fds.get(&oldfd).ok_or(FdError::BadFd(oldfd))?.clone();
        self.fds.insert(newfd, kind);
        Ok(())
    }

    /// Looks up `fd`.
    pub fn get(&self, fd: i32) -> Option<&FdKind> {
        self.fds.get(&fd)
    }

    /// Replaces the kind stored at an *open* descriptor.
    pub fn replace(&mut self, fd: i32, kind: FdKind) -> Result<FdKind, FdError> {
        match self.fds.get_mut(&fd) {
            Some(slot) => Ok(std::mem::replace(slot, kind)),
            None => Err(FdError::BadFd(fd)),
        }
    }

    /// Iterates over `(fd, kind)` in descriptor order.
    pub fn iter(&self) -> impl Iterator<Item = (i32, &FdKind)> + '_ {
        self.fds.iter().map(|(fd, k)| (*fd, k))
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Whether no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_uses_lowest_free_descriptor() {
        let mut t = FdTable::new();
        let a = t.open(FdKind::Binder);
        let b = t.open(FdKind::AlarmDev);
        assert_eq!((a, b), (3, 4));
        t.close(3).unwrap();
        assert_eq!(t.open(FdKind::Reserved), 3);
    }

    #[test]
    fn open_at_refuses_collisions() {
        let mut t = FdTable::new();
        t.open_at(
            7,
            FdKind::Logger {
                buffer: "main".into(),
            },
        )
        .unwrap();
        assert_eq!(t.open_at(7, FdKind::Binder), Err(FdError::InUse(7)));
    }

    #[test]
    fn dup2_replaces_target() {
        let mut t = FdTable::new();
        let old = t.open(FdKind::UnixSocket {
            peer: "SensorEventConnection#1".into(),
        });
        t.open_at(9, FdKind::Reserved).unwrap();
        t.dup2(old, 9).unwrap();
        assert_eq!(
            t.get(9),
            Some(&FdKind::UnixSocket {
                peer: "SensorEventConnection#1".into()
            })
        );
        assert_eq!(t.dup2(99, 9), Err(FdError::BadFd(99)));
    }

    #[test]
    fn inet_sockets_are_dropped_on_migration() {
        assert!(FdKind::InetSocket {
            remote: "example.com:443".into()
        }
        .dropped_on_migration());
        assert!(!FdKind::Binder.dropped_on_migration());
    }

    #[test]
    fn replace_requires_open_fd() {
        let mut t = FdTable::new();
        assert!(t.replace(5, FdKind::Binder).is_err());
        let fd = t.open(FdKind::Reserved);
        let prev = t
            .replace(
                fd,
                FdKind::UnixSocket {
                    peer: "sensor".into(),
                },
            )
            .unwrap();
        assert_eq!(prev, FdKind::Reserved);
    }
}
