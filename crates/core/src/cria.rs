//! CRIA: Checkpoint/Restore In Android, at the Flux level.
//!
//! The kernel-level CRIU engine lives in `flux-kernel`; this module adds
//! the Android-specific packaging of §3.3: a [`FluxImage`] bundles the
//! process image with the app's record log and the small amount of
//! framework metadata conditional re-initialisation needs on the guest
//! (view count, GL footprint), plus the compression model applied before
//! transfer.

use crate::record::CallLog;
use flux_device::DeviceProfile;
use flux_kernel::ProcessImage;
use flux_simcore::ByteSize;
use std::sync::Arc;

/// Compression ratio achieved on checkpoint images (mixed dirty heap pages
/// compress well; calibrated against the paper's ≤14 MB transfers).
pub const IMAGE_COMPRESS_RATIO: f64 = 0.47;

/// Compression ratio achieved on the record log (structured text).
pub const LOG_COMPRESS_RATIO: f64 = 0.35;

/// Framework metadata needed to conditionally re-initialise on the guest.
#[derive(Debug, Clone, PartialEq)]
pub struct ReinitSpec {
    /// GPU texture bytes per context to recreate.
    pub textures: ByteSize,
    /// EGL contexts to recreate.
    pub gl_contexts: u32,
    /// Views in the hierarchy (drives re-layout cost).
    pub views: usize,
    /// Dalvik heap size.
    pub heap: ByteSize,
}

/// The complete migratable image of one app.
#[derive(Debug, Clone, PartialEq)]
pub struct FluxImage {
    /// Package name.
    pub package: String,
    /// Name of the home device.
    pub home_device: String,
    /// Home hardware profile (replay proxies rescale against it), shared
    /// with the home device.
    pub home_profile: Arc<DeviceProfile>,
    /// The CRIU process image (includes Binder state).
    pub process: ProcessImage,
    /// The Selective Record log.
    pub log: CallLog,
    /// Conditional re-initialisation metadata.
    pub reinit: ReinitSpec,
}

/// The sizes of a [`FluxImage`] the transfer ledger and the cost model
/// read, measured together by [`FluxImage::sizes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageSizes {
    /// Uncompressed image bytes (process image + log).
    pub raw: ByteSize,
    /// Bytes actually sent over the air after compression.
    pub compressed: ByteSize,
    /// Compressed size of just the record log (the paper notes log + data
    /// directory deltas never exceeded a combined 200 KB).
    pub compressed_log: ByteSize,
}

impl FluxImage {
    /// Measures the image: one counting pass of the process image's
    /// encoder and one walk of the record log.
    pub fn sizes(&self) -> ImageSizes {
        let process = self.process.total_bytes();
        let log = ByteSize::from_bytes(self.log.wire_bytes());
        let compressed_log = log.scale(LOG_COMPRESS_RATIO);
        ImageSizes {
            raw: process + log,
            compressed: process.scale(IMAGE_COMPRESS_RATIO) + compressed_log,
            compressed_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_shrinks_the_image() {
        use flux_binder::SavedBinderState;
        use flux_kernel::{criu::VmaImage, Prot, Thread, VmaKind};
        use flux_simcore::{Pid, SimTime, Uid};

        let process = ProcessImage {
            package: "com.x".into(),
            virt_pid: Pid(5),
            uid: Uid(10_001),
            threads: vec![Thread::new(1, "main")],
            vmas: vec![VmaImage {
                kind: VmaKind::Anon,
                len: ByteSize::from_mib(8),
                prot: Prot::RW,
                dirty: 1.0,
                content_seed: 1,
                payload: ByteSize::from_mib(8),
            }],
            fds: vec![],
            binder: SavedBinderState::default(),
            checkpoint_time: SimTime::ZERO,
        };
        let image = FluxImage {
            package: "com.x".into(),
            home_device: "home".into(),
            home_profile: Arc::new(DeviceProfile::nexus4()),
            process,
            log: CallLog::default(),
            reinit: ReinitSpec {
                textures: ByteSize::from_mib(8),
                gl_contexts: 1,
                views: 40,
                heap: ByteSize::from_mib(24),
            },
        };
        let sizes = image.sizes();
        assert!(sizes.compressed < sizes.raw);
        assert!(sizes.compressed_log < sizes.compressed);
        let ratio = sizes.compressed.as_u64() as f64 / sizes.raw.as_u64() as f64;
        assert!((0.4..0.6).contains(&ratio), "ratio {ratio}");
    }
}
