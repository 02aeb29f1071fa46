//! Android-specific kernel drivers.
//!
//! §2 of the paper enumerates the Android drivers whose state matters during
//! migration: Binder (modelled in `flux-binder`), **ashmem** (named shared
//! memory), **pmem** (physically contiguous allocations for devices like the
//! GPU), the **alarm** driver (fires regardless of sleep state),
//! **wakelocks** (power management) and the **Logger**. CRIA's findings
//! (§3.3) are encoded in these models: Logger carries no per-process state;
//! ashmem is avoided by building Dalvik on `mmap`; pmem is freed by the
//! preparation stage; wakelocks and alarms are only held by system services
//! and thus covered by Selective Record/Adaptive Replay.

use flux_simcore::{ByteSize, Pid, SimTime};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// ashmem
// ---------------------------------------------------------------------------

/// One named ashmem region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AshmemRegion {
    /// Region id (referenced by `FdKind::Ashmem` and `VmaKind::Ashmem`).
    pub id: u64,
    /// The region name passed to `ASHMEM_SET_NAME`.
    pub name: String,
    /// Region size.
    pub size: ByteSize,
    /// Creating process.
    pub owner: Pid,
}

/// The ashmem driver: a registry of named shared-memory regions.
#[derive(Debug, Clone, Default)]
pub struct Ashmem {
    regions: BTreeMap<u64, AshmemRegion>,
    next_id: u64,
}

impl Ashmem {
    /// Creates a region and returns its id.
    pub fn create(&mut self, owner: Pid, name: &str, size: ByteSize) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.regions.insert(
            id,
            AshmemRegion {
                id,
                name: name.to_owned(),
                size,
                owner,
            },
        );
        id
    }

    /// Destroys a region.
    pub fn destroy(&mut self, id: u64) -> Option<AshmemRegion> {
        self.regions.remove(&id)
    }

    /// Looks up a region.
    pub fn get(&self, id: u64) -> Option<&AshmemRegion> {
        self.regions.get(&id)
    }

    /// Regions owned by `pid` (these would need checkpoint support; Flux
    /// sidesteps the issue by making Dalvik use mmap instead, §3.3).
    pub fn owned_by(&self, pid: Pid) -> Vec<&AshmemRegion> {
        self.regions.values().filter(|r| r.owner == pid).collect()
    }

    /// Number of live regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions exist.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

// ---------------------------------------------------------------------------
// pmem
// ---------------------------------------------------------------------------

/// One physically contiguous pmem allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmemAlloc {
    /// Allocation id.
    pub id: u64,
    /// Allocation size.
    pub size: ByteSize,
    /// Owning process.
    pub owner: Pid,
    /// The device class that requested it, e.g. `"gpu"` or `"camera"`.
    pub device: String,
}

/// The pmem driver: physically contiguous allocations for devices.
#[derive(Debug, Clone, Default)]
pub struct Pmem {
    allocs: BTreeMap<u64, PmemAlloc>,
    next_id: u64,
}

impl Pmem {
    /// Allocates a contiguous region for `device`, returning its id.
    pub fn alloc(&mut self, owner: Pid, device: &str, size: ByteSize) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.allocs.insert(
            id,
            PmemAlloc {
                id,
                size,
                owner,
                device: device.to_owned(),
            },
        );
        id
    }

    /// Frees an allocation.
    pub fn free(&mut self, id: u64) -> Option<PmemAlloc> {
        self.allocs.remove(&id)
    }

    /// Frees every allocation owned by `pid`, returning how many were freed.
    /// The Flux preparation stage drives this through the GL teardown path.
    pub fn free_owned_by(&mut self, pid: Pid) -> usize {
        let before = self.allocs.len();
        self.allocs.retain(|_, a| a.owner != pid);
        before - self.allocs.len()
    }

    /// Allocations owned by `pid`; must be empty before CRIA checkpoints it.
    pub fn owned_by(&self, pid: Pid) -> Vec<&PmemAlloc> {
        self.allocs.values().filter(|a| a.owner == pid).collect()
    }

    /// Total bytes currently allocated.
    pub fn total_bytes(&self) -> ByteSize {
        self.allocs.values().map(|a| a.size).sum()
    }
}

// ---------------------------------------------------------------------------
// Wakelocks
// ---------------------------------------------------------------------------

/// The wakelock driver: named power-management locks.
///
/// Only Android system services hold these (apps go through the
/// PowerManagerService), so CRIA never needs to checkpoint them for an app;
/// the PowerManagerService's record rules handle the app-visible part.
#[derive(Debug, Clone, Default)]
pub struct WakeLocks {
    held: BTreeMap<String, Pid>,
}

impl WakeLocks {
    /// Acquires `name` on behalf of `holder`. Re-acquiring is idempotent.
    pub fn acquire(&mut self, name: &str, holder: Pid) {
        self.held.insert(name.to_owned(), holder);
    }

    /// Releases `name`. Returns whether it was held.
    pub fn release(&mut self, name: &str) -> bool {
        self.held.remove(name).is_some()
    }

    /// Whether any lock is held (the device must stay awake).
    pub fn any_held(&self) -> bool {
        !self.held.is_empty()
    }

    /// Whether `name` is held.
    pub fn is_held(&self, name: &str) -> bool {
        self.held.contains_key(name)
    }

    /// Releases every lock held by `pid`, returning how many were released.
    pub fn release_all_of(&mut self, pid: Pid) -> usize {
        let before = self.held.len();
        self.held.retain(|_, p| *p != pid);
        before - self.held.len()
    }
}

// ---------------------------------------------------------------------------
// Alarm driver
// ---------------------------------------------------------------------------

/// Alarm clock types from the Android alarm driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmClockType {
    /// Wall-clock time; wakes the device.
    RtcWakeup,
    /// Wall-clock time; fires only when awake.
    Rtc,
    /// Time since boot; wakes the device.
    ElapsedRealtimeWakeup,
    /// Time since boot; fires only when awake.
    ElapsedRealtime,
}

/// One pending kernel alarm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAlarm {
    /// Alarm cookie.
    pub id: u64,
    /// Clock type.
    pub clock: AlarmClockType,
    /// Absolute trigger time.
    pub trigger_at: SimTime,
    /// Owner (always the AlarmManagerService process in practice).
    pub owner: Pid,
}

/// The alarm driver: schedules absolute-time alarms that can wake the device.
#[derive(Debug, Clone, Default)]
pub struct AlarmDriver {
    alarms: BTreeMap<u64, KernelAlarm>,
    next_id: u64,
}

impl AlarmDriver {
    /// Schedules an alarm, returning its cookie.
    pub fn set(&mut self, owner: Pid, clock: AlarmClockType, trigger_at: SimTime) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        self.alarms.insert(
            id,
            KernelAlarm {
                id,
                clock,
                trigger_at,
                owner,
            },
        );
        id
    }

    /// Cancels an alarm by cookie.
    pub fn cancel(&mut self, id: u64) -> bool {
        self.alarms.remove(&id).is_some()
    }

    /// Removes and returns every alarm whose trigger time is `<= now`.
    pub fn fire_due(&mut self, now: SimTime) -> Vec<KernelAlarm> {
        let due: Vec<u64> = self
            .alarms
            .values()
            .filter(|a| a.trigger_at <= now)
            .map(|a| a.id)
            .collect();
        due.iter().filter_map(|id| self.alarms.remove(id)).collect()
    }

    /// Pending alarms, soonest first.
    pub fn pending(&self) -> Vec<&KernelAlarm> {
        let mut v: Vec<&KernelAlarm> = self.alarms.values().collect();
        v.sort_by_key(|a| a.trigger_at);
        v
    }
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Emitting process.
    pub pid: Pid,
    /// Log tag.
    pub tag: String,
    /// Message text.
    pub msg: String,
    /// Emission time.
    pub at: SimTime,
}

/// The Logger driver: fixed-capacity ring buffers.
///
/// "The device is used like any regular file and does not persist
/// per-process state" (§3.3) — so CRIA needs no special handling; entries
/// from a migrated app are simply left behind on the home device.
#[derive(Debug, Clone)]
pub struct Logger {
    buffers: BTreeMap<String, Vec<LogEntry>>,
    capacity: usize,
}

impl Logger {
    /// Creates the standard buffers (`main`, `events`, `radio`, `system`),
    /// each holding up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let mut buffers = BTreeMap::new();
        for name in ["main", "events", "radio", "system"] {
            buffers.insert(name.to_owned(), Vec::new());
        }
        Self { buffers, capacity }
    }

    /// Appends an entry to `buffer`, evicting the oldest at capacity.
    /// Unknown buffer names are created on demand.
    pub fn write(&mut self, buffer: &str, entry: LogEntry) {
        let buf = self.buffers.entry(buffer.to_owned()).or_default();
        if buf.len() == self.capacity {
            buf.remove(0);
        }
        buf.push(entry);
    }

    /// All entries currently in `buffer`.
    pub fn read(&self, buffer: &str) -> &[LogEntry] {
        self.buffers.get(buffer).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Entries in `buffer` emitted by `pid`.
    pub fn entries_of(&self, buffer: &str, pid: Pid) -> Vec<&LogEntry> {
        self.read(buffer).iter().filter(|e| e.pid == pid).collect()
    }
}

impl Default for Logger {
    fn default() -> Self {
        Self::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_simcore::SimDuration;

    #[test]
    fn ashmem_create_and_destroy() {
        let mut a = Ashmem::default();
        let id = a.create(Pid(5), "dalvik-heap", ByteSize::from_mib(16));
        assert_eq!(a.get(id).unwrap().name, "dalvik-heap");
        assert_eq!(a.owned_by(Pid(5)).len(), 1);
        assert!(a.destroy(id).is_some());
        assert!(a.is_empty());
    }

    #[test]
    fn pmem_free_owned_by_clears_process_allocs() {
        let mut p = Pmem::default();
        p.alloc(Pid(1), "gpu", ByteSize::from_mib(8));
        p.alloc(Pid(1), "gpu", ByteSize::from_mib(4));
        p.alloc(Pid(2), "camera", ByteSize::from_mib(2));
        assert_eq!(p.free_owned_by(Pid(1)), 2);
        assert!(p.owned_by(Pid(1)).is_empty());
        assert_eq!(p.total_bytes(), ByteSize::from_mib(2));
    }

    #[test]
    fn wakelocks_track_device_wakefulness() {
        let mut w = WakeLocks::default();
        assert!(!w.any_held());
        w.acquire("AlarmManager", Pid(2));
        w.acquire("AudioMix", Pid(3));
        assert!(w.any_held());
        assert!(w.is_held("AlarmManager"));
        assert_eq!(w.release_all_of(Pid(2)), 1);
        assert!(w.release("AudioMix"));
        assert!(!w.release("AudioMix"));
        assert!(!w.any_held());
    }

    #[test]
    fn alarms_fire_at_or_after_trigger_time() {
        let mut d = AlarmDriver::default();
        let t1 = SimTime::from_secs(10);
        let t2 = SimTime::from_secs(20);
        d.set(Pid(2), AlarmClockType::RtcWakeup, t1);
        let late = d.set(Pid(2), AlarmClockType::Rtc, t2);
        assert!(d.fire_due(SimTime::from_secs(5)).is_empty());
        let fired = d.fire_due(SimTime::from_secs(10));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].trigger_at, t1);
        assert!(d.cancel(late));
        assert!(!d.cancel(late));
        assert!(d.pending().is_empty());
    }

    #[test]
    fn alarm_pending_is_sorted_by_time() {
        let mut d = AlarmDriver::default();
        d.set(Pid(1), AlarmClockType::Rtc, SimTime::from_secs(30));
        d.set(Pid(1), AlarmClockType::Rtc, SimTime::from_secs(10));
        let pending = d.pending();
        assert!(pending[0].trigger_at < pending[1].trigger_at);
    }

    #[test]
    fn logger_ring_evicts_oldest() {
        let mut l = Logger::new(2);
        let mk = |i: u32| LogEntry {
            pid: Pid(9),
            tag: "flux".into(),
            msg: format!("m{i}"),
            at: SimTime::ZERO + SimDuration::from_millis(u64::from(i)),
        };
        l.write("main", mk(1));
        l.write("main", mk(2));
        l.write("main", mk(3));
        let entries = l.read("main");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].msg, "m2");
        assert_eq!(l.entries_of("main", Pid(9)).len(), 2);
        assert!(l.read("radio").is_empty());
    }
}
