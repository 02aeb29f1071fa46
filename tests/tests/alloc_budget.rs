//! The heap work of an executed migration and of a device boot, pinned.
//!
//! A counting global allocator wraps `SerialExecutor.execute` on an
//! eight-app fleet (one Nexus 4 → Nexus 7 (2013) pair per app, one
//! request per pair) and the test fails when the allocations or bytes
//! per executed request rise past the budget. The migration path only
//! reads the checkpoint, the device profiles and the view-class names, so
//! a rise means a copy of one of them crept back.
//!
//! Measured at seed 1234, debug and release alike: 221 allocations and
//! 71,029 bytes per executed request. The same run made 228 and 71,118
//! while each routed Binder transaction copied its target's descriptor,
//! 228 and 71,251 while every histogram carried its own bucket bounds,
//! 231 and 71,659 while the batch's telemetry hub kept a lane table of
//! its own, 251 and 73,275 while each request recorded into a fresh
//! telemetry hub of its own, 258 and 73,601 while each migration cloned
//! its app's whole `AppSpec`, and 531 and 118,827 before the image was
//! sized by a counting pass and shared instead of copied.
//!
//! The second budget counts one `add_device` once its profile has
//! booted in the process, which copies the stored boot instead of
//! booting again: 62-64 allocations and about 12.1 KB (a realloc of the
//! world's device list adds one allocation now and then). It fails when
//! service names become owned copies again: 89 allocations with owned
//! descriptors on the copy, and 145-148 booting every device with
//! owned names as before. A full boot with `&'static` names
//! makes 73-76 and passes; `world::tests` catches a lost boot list by
//! the profile every later device shares.
//!
//! The counters are thread-local with `const` initialisers, so the other
//! test threads of the harness never add to them and counting never
//! allocates. This file is a test binary of its own so that its global
//! allocator wraps no other test.

mod common;

use flux_core::{Executor, MigrationRequest, SerialExecutor, WorldBuilder};
use flux_device::DeviceProfile;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per executed request the migration path may make.
const MAX_ALLOCS_PER_REQUEST: u64 = 300;
/// Bytes per executed request the migration path may allocate.
const MAX_BYTES_PER_REQUEST: u64 = 90_000;
/// Allocations one `add_device` may make once its profile has booted.
const MAX_ALLOCS_PER_LATER_DEVICE: u64 = 80;

const APPS: [&str; 8] = [
    "WhatsApp",
    "Twitter",
    "Candy Crush Saga",
    "Bible",
    "eBay",
    "Instagram",
    "Netflix",
    "Skype",
];

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation (a `realloc` counts as one of its new size)
/// on the calling thread, then defers to the system allocator.
struct Counting;

fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; counting only
// touches thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The calling thread's `(allocations, bytes)` so far.
fn counted() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[test]
fn an_executed_migration_stays_within_its_allocation_budget() {
    let (mut world, pairs) = common::fleet_world(&APPS, common::SEED);
    let requests: Vec<MigrationRequest> = pairs
        .iter()
        .zip(1..)
        .map(|((home, guest, package), id)| MigrationRequest::new(id, *home, *guest, package))
        .collect();

    let (allocs_before, bytes_before) = counted();
    let executed = SerialExecutor.execute(&mut world, &requests);
    let (allocs_after, bytes_after) = counted();

    // A refused or rolled-back request skips most of the path and would
    // hide what a migration costs.
    for (exec, req) in executed.iter().zip(&requests) {
        assert!(
            exec.outcome().is_completed(),
            "{}: {:?}",
            req.package,
            exec.outcome()
        );
    }
    let n = requests.len() as u64;
    let allocs = (allocs_after - allocs_before) / n;
    let bytes = (bytes_after - bytes_before) / n;
    assert!(
        allocs <= MAX_ALLOCS_PER_REQUEST && bytes <= MAX_BYTES_PER_REQUEST,
        "{allocs} allocations and {bytes} bytes per executed request; the budget is \
         {MAX_ALLOCS_PER_REQUEST} and {MAX_BYTES_PER_REQUEST}"
    );
}

#[test]
fn a_later_device_stays_within_its_allocation_budget() {
    let (mut world, _) = WorldBuilder::new().build().unwrap();
    for profile in [
        DeviceProfile::nexus4(),
        DeviceProfile::nexus7_2012(),
        DeviceProfile::nexus7_2013(),
    ] {
        // The first device of a profile may boot it; the rest copy it.
        world.add_device("first", profile.clone()).unwrap();
        let model = profile.model;
        for _ in 0..4 {
            let profile = profile.clone();
            let before = counted();
            world.add_device("later", profile).unwrap();
            let after = counted();
            let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
            assert!(
                allocs <= MAX_ALLOCS_PER_LATER_DEVICE,
                "{model}: {allocs} allocations and {bytes} bytes for a later device; the budget \
                 is {MAX_ALLOCS_PER_LATER_DEVICE} allocations"
            );
        }
    }
}
