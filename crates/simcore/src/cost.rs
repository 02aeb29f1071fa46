//! Cost models that turn work into virtual time.
//!
//! The paper's Figure 13 breaks a migration into five stages — preparation,
//! checkpoint, transfer, restore, reintegration. Everything but transfer is
//! CPU-bound work on the device; [`CostModel`] holds the per-unit costs used
//! to charge that work to the [`crate::SimClock`]. The default values were
//! calibrated so the reproduction matches the paper's reported shapes
//! (average migration ≈ 7.9 s dominated by transfer, non-transfer portion
//! ≈ 1.4 s; see EXPERIMENTS.md).

use crate::{ByteSize, SimDuration};

/// Per-unit CPU costs for the migration pipeline, for a reference device.
///
/// Actual devices scale these by their [`CostModel::cpu_scale`] factor
/// (e.g. the 2012 Nexus 7's Tegra 3 is slower than the 2013 model's
/// Snapdragon S4 Pro).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Relative CPU speed; 1.0 is the reference (Nexus 7 2013 class).
    pub cpu_scale: f64,
    /// Serialising one byte of process image during checkpoint.
    pub checkpoint_ns_per_byte: f64,
    /// Fixed overhead per checkpointed kernel object (VMA, fd, thread).
    pub checkpoint_ns_per_object: u64,
    /// Deserialising one byte of process image during restore.
    pub restore_ns_per_byte: f64,
    /// Fixed overhead per restored kernel object.
    pub restore_ns_per_object: u64,
    /// Compressing one byte of image before transfer.
    pub compress_ns_per_byte: f64,
    /// Decompressing one byte of image after transfer.
    pub decompress_ns_per_byte: f64,
    /// Replaying one recorded service call (Binder round trip + dispatch).
    pub replay_ns_per_call: u64,
    /// Recording one service call during app execution (async append).
    pub record_ns_per_call: u64,
    /// Destroying one hardware (GL) resource during trim-memory.
    pub gl_teardown_ns_per_resource: u64,
    /// Re-initialising one view during conditional re-initialisation.
    pub view_reinit_ns_per_view: u64,
    /// Hashing one byte during rsync delta computation.
    pub hash_ns_per_byte: f64,
    /// Fixed latency of moving an activity to the background and letting the
    /// task idler stop it (the paper notes prep is unoptimised because it
    /// waits for the idler).
    pub background_idle_latency: SimDuration,
    /// Fixed latency of one Binder transaction.
    pub binder_transaction: SimDuration,
}

impl CostModel {
    /// The reference cost model (Nexus 7 2013 class hardware).
    pub fn reference() -> Self {
        Self {
            cpu_scale: 1.0,
            checkpoint_ns_per_byte: 40.0,
            checkpoint_ns_per_object: 18_000,
            restore_ns_per_byte: 55.0,
            restore_ns_per_object: 15_000,
            compress_ns_per_byte: 22.0,
            decompress_ns_per_byte: 14.0,
            replay_ns_per_call: 600_000,
            record_ns_per_call: 2_000,
            gl_teardown_ns_per_resource: 120_000,
            view_reinit_ns_per_view: 800_000,
            hash_ns_per_byte: 2.2,
            background_idle_latency: SimDuration::from_millis(400),
            binder_transaction: SimDuration::from_micros(120),
        }
    }

    /// Returns a copy of this model scaled for a device `scale` times as
    /// fast as the reference (`scale < 1.0` means slower).
    pub fn scaled(&self, scale: f64) -> Self {
        let s = scale.max(0.05);
        Self {
            cpu_scale: s,
            checkpoint_ns_per_byte: self.checkpoint_ns_per_byte / s,
            checkpoint_ns_per_object: (self.checkpoint_ns_per_object as f64 / s) as u64,
            restore_ns_per_byte: self.restore_ns_per_byte / s,
            restore_ns_per_object: (self.restore_ns_per_object as f64 / s) as u64,
            compress_ns_per_byte: self.compress_ns_per_byte / s,
            decompress_ns_per_byte: self.decompress_ns_per_byte / s,
            replay_ns_per_call: (self.replay_ns_per_call as f64 / s) as u64,
            record_ns_per_call: (self.record_ns_per_call as f64 / s) as u64,
            gl_teardown_ns_per_resource: (self.gl_teardown_ns_per_resource as f64 / s) as u64,
            view_reinit_ns_per_view: (self.view_reinit_ns_per_view as f64 / s) as u64,
            hash_ns_per_byte: self.hash_ns_per_byte / s,
            background_idle_latency: SimDuration::from_nanos(
                (self.background_idle_latency.as_nanos() as f64 / s) as u64,
            ),
            binder_transaction: SimDuration::from_nanos(
                (self.binder_transaction.as_nanos() as f64 / s) as u64,
            ),
        }
    }

    /// The time to serialise `bytes` of image spread over `objects` kernel
    /// objects during checkpoint.
    pub fn checkpoint_time(&self, bytes: ByteSize, objects: u64) -> SimDuration {
        SimDuration::from_nanos(
            (bytes.as_u64() as f64 * self.checkpoint_ns_per_byte) as u64
                + objects * self.checkpoint_ns_per_object,
        )
    }

    /// The time to restore `bytes` of image spread over `objects` kernel
    /// objects.
    pub fn restore_time(&self, bytes: ByteSize, objects: u64) -> SimDuration {
        SimDuration::from_nanos(
            (bytes.as_u64() as f64 * self.restore_ns_per_byte) as u64
                + objects * self.restore_ns_per_object,
        )
    }

    /// The time to compress `bytes` before transfer.
    pub fn compress_time(&self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_nanos((bytes.as_u64() as f64 * self.compress_ns_per_byte) as u64)
    }

    /// The time to decompress `bytes` after transfer.
    pub fn decompress_time(&self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_nanos((bytes.as_u64() as f64 * self.decompress_ns_per_byte) as u64)
    }

    /// The time to replay `calls` recorded service calls.
    pub fn replay_time(&self, calls: u64) -> SimDuration {
        SimDuration::from_nanos(calls * self.replay_ns_per_call)
    }

    /// The time to hash `bytes` for rsync delta computation.
    pub fn hash_time(&self, bytes: ByteSize) -> SimDuration {
        SimDuration::from_nanos((bytes.as_u64() as f64 * self.hash_ns_per_byte) as u64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_model_is_proportionally_slower() {
        let fast = CostModel::reference();
        let slow = fast.scaled(0.5);
        let b = ByteSize::from_mib(4);
        let t_fast = fast.checkpoint_time(b, 100);
        let t_slow = slow.checkpoint_time(b, 100);
        let ratio = t_slow.as_nanos() as f64 / t_fast.as_nanos() as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio was {ratio}");
    }

    #[test]
    fn scale_floor_prevents_divide_by_zero() {
        let m = CostModel::reference().scaled(0.0);
        assert!(m.cpu_scale > 0.0);
    }

    #[test]
    fn checkpoint_time_grows_with_objects_and_bytes() {
        let m = CostModel::reference();
        let t1 = m.checkpoint_time(ByteSize::from_mib(1), 10);
        let t2 = m.checkpoint_time(ByteSize::from_mib(2), 10);
        let t3 = m.checkpoint_time(ByteSize::from_mib(1), 1000);
        assert!(t2 > t1);
        assert!(t3 > t1);
    }

    #[test]
    fn replay_time_is_linear_in_calls() {
        let m = CostModel::reference();
        assert_eq!(
            m.replay_time(10).as_nanos(),
            m.replay_time(5).as_nanos() * 2
        );
    }
}
