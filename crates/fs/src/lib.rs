//! Simulated filesystems and rsync-style delta synchronisation.
//!
//! Flux's pairing phase (§3.1 of the paper) synchronises the home device's
//! core frameworks, libraries, APKs and app data to the guest using rsync
//! with `--link-dest`. This crate provides the filesystem model
//! ([`SimFs`]) and the synchroniser ([`rsync::sync`]) whose byte accounting
//! drives both the transfer stage of every migration and the §4
//! pairing-cost experiment (215 MB constant data → 123 MB after hard links
//! → 56 MB compressed delta). Devices of one profile share their
//! `/system` as one mounted [`Tree`], and pairings of one kind share the
//! mirror a sync leaves behind.

pub mod fs;
pub mod rsync;

pub use fs::{Content, FileEntry, FsError, SimFs, Tree};
pub use rsync::{sync, FileAction, SyncOptions, SyncReport};
