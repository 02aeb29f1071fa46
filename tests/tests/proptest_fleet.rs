//! Properties of the fleet scheduler and the shared radio medium.
//!
//! For any seeded fleet — disjoint device pairs or every request sharing
//! one home device, with or without a fault-injected victim — four
//! invariants must hold at every virtual instant:
//!
//! 1. **Medium conservation**: the per-flow shares recorded in every
//!    [`MediumSegment`] sum to at most the configured capacity.
//! 2. **No starvation**: every submitted request reaches a terminal
//!    outcome, and its timeline is well-ordered (submitted ≤ admitted ≤
//!    transfer window ≤ finished).
//! 3. **Per-device exclusivity**: a device's source-role flight windows
//!    never overlap, and neither do its target-role windows.
//! 4. **Permutation invariance**: with equal priorities, the submission
//!    order of the batch is invisible — rotating or reversing the request
//!    vector yields a byte-identical fleet report on an identical world.
//!
//! The multi-AP topology adds four more:
//!
//! 5. **Exact service**: the medium's fixed-point credit makes the set of
//!    completion instants invariant under arbitrary chopping of the
//!    `advance` schedule — every flow is served exactly its serial air.
//! 6. **Roam conservation**: a mid-flight roam carries the flow's
//!    remaining air time exactly; an uncontended roamer still completes
//!    at `admitted + serial_air`.
//! 7. **Per-cell conservation and isolation**: each cell's segments sum
//!    to at most *that cell's* capacity, and a flow only ever appears in
//!    the cell its device is associated with.
//! 8. **Stage-granular permutation invariance**: invariant 4 holds on a
//!    multi-cell topology with the fully pipelined engine, where each
//!    migration contributes several distinct radio windows.

mod common;

use flux_core::{FleetConfig, FleetScheduler, MigrationConfig, MigrationRequest, RetryPolicy};
use flux_net::{Band, RadioMedium, RadioTopology};
use flux_simcore::{ByteSize, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Migratable Table 3 apps (no `multi_process`, no `preserve_egl`).
const POOL: [&str; 4] = ["WhatsApp", "Twitter", "Instagram", "Netflix"];

fn requests_for(
    pairs: &[(flux_core::DeviceId, flux_core::DeviceId, String)],
    victim: Option<u64>,
) -> Vec<MigrationRequest> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, (home, guest, pkg))| {
            let id = i as u64 + 1;
            let mut req = MigrationRequest::new(id, *home, *guest, pkg);
            if victim == Some(id) {
                req = req
                    .with_faults(common::blanket_drops())
                    .with_config(MigrationConfig {
                        retry: RetryPolicy::none(),
                        ..MigrationConfig::default()
                    });
            }
            req
        })
        .collect()
}

/// Half-open interval overlap.
fn overlaps(a: (SimTime, SimTime), b: (SimTime, SimTime)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// One planned admission: `(at, id, device, bytes, serial_air)`.
type Admission = (SimTime, u64, u64, ByteSize, SimDuration);

/// Drives a medium through `admissions` (sorted by time) to quiescence,
/// returning every completion as `(instant, id)`. When `chop` is nonzero
/// each advance is split into 1–3 deterministic sub-steps, exercising the
/// fixed-point credit carried across segment boundaries.
fn drive_medium(
    mut medium: RadioMedium,
    admissions: &[Admission],
    mut chop: u64,
) -> Vec<(SimTime, u64)> {
    let mut done = Vec::new();
    let mut next = 0;
    loop {
        let adm_at = admissions.get(next).map(|a| a.0);
        let comp_at = medium.next_completion().map(|(t, _)| t);
        let target = match (adm_at, comp_at) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => break,
        };
        let start = medium.now();
        let span = target.since(start);
        if chop != 0 && span > SimDuration::ZERO {
            chop = chop
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pieces = 1 + (chop >> 60) % 3;
            for k in 1..pieces {
                medium.advance(start + SimDuration::from_nanos(span.as_nanos() * k / pieces));
            }
        }
        medium.advance(target);
        for id in medium.take_completed() {
            done.push((target, id));
        }
        while admissions.get(next).is_some_and(|a| a.0 == target) {
            let (_, id, device, bytes, air) = admissions[next];
            medium.admit_from(id, device, bytes, air);
            next += 1;
        }
    }
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn medium_exclusivity_and_liveness_hold_for_any_fleet(
        seed in 0..100_000u64,
        n in 2..5usize,
        limit in 1..5usize,
        shared_home in any::<bool>(),
        victim_sel in 0..8u64,
    ) {
        let apps = &POOL[..n];
        let (mut world, pairs) = if shared_home {
            common::shared_home_world(apps, seed)
        } else {
            common::fleet_world(apps, seed)
        };
        // With probability n/8 one request carries a rollback-forcing
        // fault plan, so the invariants are exercised across mixed
        // completed/rolled-back batches too.
        let victim = (victim_sel < n as u64).then_some(victim_sel + 1);
        let cfg = FleetConfig {
            max_in_flight: limit,
            ..FleetConfig::default()
        };
        let report = FleetScheduler::new(cfg)
            .unwrap()
            .run(&mut world, requests_for(&pairs, victim))
            .unwrap();

        // (2) No starvation, well-ordered per-flight timelines.
        prop_assert_eq!(report.flights.len(), n);
        prop_assert!(report.peak_in_flight <= limit);
        for f in &report.flights {
            prop_assert!(f.submitted_at <= f.admitted_at, "{}: admitted before submitted", f.id);
            prop_assert!(f.admitted_at <= f.transfer_start, "{}", f.id);
            prop_assert!(f.transfer_start <= f.transfer_end, "{}", f.id);
            prop_assert!(f.transfer_end <= f.finished_at, "{}", f.id);
            if victim == Some(f.id) {
                prop_assert!(!f.outcome.is_completed(), "victim {} completed", f.id);
            } else {
                prop_assert!(f.outcome.is_completed(), "{} did not complete", f.id);
            }
        }

        // (1) Medium conservation: every recorded segment's shares sum to
        // at most the configured capacity.
        for seg in &report.cells[0].segments {
            let total: f64 = seg.flows.iter().map(|(_, mbps)| mbps).sum();
            prop_assert!(
                total <= cfg.medium_capacity_mbps * (1.0 + 1e-9),
                "segment [{}, {}) oversubscribed: {total} > {}",
                seg.from, seg.to, cfg.medium_capacity_mbps
            );
        }

        // (3) Per-device exclusivity, per role: no two flights sharing a
        // source device (or a target device) overlap in [admitted,
        // finished).
        for a in &report.flights {
            for b in &report.flights {
                if a.id >= b.id {
                    continue;
                }
                let wa = (a.admitted_at, a.finished_at);
                let wb = (b.admitted_at, b.finished_at);
                if a.home == b.home {
                    prop_assert!(
                        !overlaps(wa, wb),
                        "flights {} and {} share source {:?} concurrently", a.id, b.id, a.home
                    );
                }
                if a.guest == b.guest {
                    prop_assert!(
                        !overlaps(wa, wb),
                        "flights {} and {} share target {:?} concurrently", a.id, b.id, a.guest
                    );
                }
            }
        }
    }

    // (4) Permutation invariance: equal-priority batches produce a
    // byte-identical report whatever order the request vector arrives in,
    // on disjoint pairs and on a shared home whose requests chain through
    // one device.
    #[test]
    fn submission_order_is_invisible_under_equal_priorities(
        seed in 0..100_000u64,
        n in 2..5usize,
        limit in 1..5usize,
        rot in 0..4usize,
        reverse in any::<bool>(),
        shared_home in any::<bool>(),
    ) {
        let apps = &POOL[..n];
        let cfg = FleetConfig {
            max_in_flight: limit,
            ..FleetConfig::default()
        };
        let stage = |s| {
            if shared_home {
                common::shared_home_world(apps, s)
            } else {
                common::fleet_world(apps, s)
            }
        };

        let (mut w1, p1) = stage(seed);
        let r1 = FleetScheduler::new(cfg)
            .unwrap()
            .run(&mut w1, requests_for(&p1, None))
            .unwrap();

        let (mut w2, p2) = stage(seed);
        let mut permuted = requests_for(&p2, None);
        permuted.rotate_left(rot % n);
        if reverse {
            permuted.reverse();
        }
        let r2 = FleetScheduler::new(cfg)
            .unwrap()
            .run(&mut w2, permuted)
            .unwrap();

        prop_assert_eq!(format!("{:?}", r1.flights), format!("{:?}", r2.flights));
        prop_assert_eq!(r1.makespan, r2.makespan);
        prop_assert_eq!(r1.serialized_makespan, r2.serialized_makespan);
        prop_assert_eq!(format!("{:?}", r1.cells), format!("{:?}", r2.cells));
        prop_assert_eq!(w1.clock.now(), w2.clock.now());
    }

    // (5) Exact service: however the scheduler chops its `advance` calls,
    // every flow completes at the same instant — the fixed-point credit
    // loses nothing at segment boundaries, so the medium serves exactly
    // the serial air it was asked for.
    #[test]
    fn medium_completions_are_invariant_under_advance_chopping(
        flows in prop::collection::vec((1..64u64, 50..5_000u64, 0..2_000u64), 1..6),
        chop in 1..u64::MAX,
    ) {
        let t0 = SimTime::from_millis(10);
        let mut at = t0;
        let admissions: Vec<Admission> = flows
            .iter()
            .enumerate()
            .map(|(i, &(mib, air_ms, gap_ms))| {
                at += SimDuration::from_millis(gap_ms);
                (
                    at,
                    i as u64 + 1,
                    i as u64 % 3, // a few flows share a device
                    ByteSize::from_mib(mib),
                    SimDuration::from_millis(air_ms),
                )
            })
            .collect();
        let control = drive_medium(RadioMedium::new(40.0, t0), &admissions, 0);
        let chopped = drive_medium(RadioMedium::new(40.0, t0), &admissions, chop);
        prop_assert_eq!(control.len(), flows.len(), "every flow must complete");
        prop_assert_eq!(&control, &chopped, "completion schedule must be chop-invariant");
    }

    // (6) Roam conservation: a roam mid-flight carries the remaining air
    // time (and sub-nanosecond credit) exactly — an uncontended flow still
    // completes at `admitted + serial_air` whatever cell it finishes in.
    #[test]
    fn roaming_preserves_remaining_air_exactly(
        mib in 1..32u64,
        air_ms in 1_000..10_000u64,
        roam_pct in 1..100u64,
        cap_west in 300..600u32,
        chop in 1..u64::MAX,
    ) {
        // nominal ≤ 32 MiB / 1 s ≈ 268 Mbit/s, under both cell capacities,
        // so the solo flow is uncontended before and after the roam.
        let topology = RadioTopology::new()
            .cell("east", 300.0, Band::Ghz5)
            .cell("west", f64::from(cap_west), Band::Ghz2_4)
            .associate(7, "east");
        let t0 = SimTime::from_millis(5);
        let air = SimDuration::from_millis(air_ms);
        let mut medium = RadioMedium::with_topology(&topology, t0);
        medium.admit_from(1, 7, ByteSize::from_mib(mib), air);
        let roam_at = t0 + SimDuration::from_nanos(air.as_nanos() * roam_pct / 100);
        // Chop the pre-roam stretch so the carried credit is nontrivial.
        let mid = t0 + SimDuration::from_nanos(roam_at.since(t0).as_nanos() * (chop % 97) / 97);
        medium.advance(mid);
        medium.advance(roam_at);
        medium.roam(7, "west");
        prop_assert_eq!(
            medium.next_completion(),
            Some((t0 + air, 1)),
            "roam must carry the remaining air time exactly"
        );
        medium.advance(t0 + air);
        prop_assert_eq!(medium.take_completed(), vec![1]);
        // The flow's segments moved cells at the roam instant.
        let traces = medium.into_cell_traces();
        let east_last = traces[0].segments.iter().rev()
            .find(|s| s.flows.iter().any(|(id, _)| *id == 1));
        let west_first = traces[1].segments.iter()
            .find(|s| s.flows.iter().any(|(id, _)| *id == 1));
        if let Some(seg) = east_last {
            prop_assert!(seg.to <= roam_at, "east segments must stop at the roam");
        }
        prop_assert!(
            west_first.is_some_and(|s| s.from >= roam_at),
            "the flow must reappear in west after the roam"
        );
    }

    // (7) + (8) Multi-AP fleet: per-cell conservation, cross-cell
    // isolation, and stage-granular permutation invariance under the
    // fully pipelined engine (pre-copy rounds give each migration several
    // distinct radio windows).
    #[test]
    fn multi_ap_fleet_conserves_and_isolates_each_cell(
        seed in 0..100_000u64,
        n in 2..5usize,
        limit in 1..4usize,
        assoc_mask in 0..16u8,
        rot in 0..4usize,
    ) {
        let apps = &POOL[..n];
        let cfg = FleetConfig {
            max_in_flight: limit,
            ..FleetConfig::default()
        };
        let pipelined = |reqs: Vec<MigrationRequest>| -> Vec<MigrationRequest> {
            reqs.into_iter()
                .map(|r| r.with_config(MigrationConfig::pipelined()))
                .collect()
        };
        let (mut world, pairs) = common::fleet_world(apps, seed);
        let mut topology = RadioTopology::new()
            .cell("east", 30.0, Band::Ghz5)
            .cell("west", 45.0, Band::Ghz2_4);
        let mut home_cell = std::collections::BTreeMap::new();
        for (i, (home, _, _)) in pairs.iter().enumerate() {
            let cell = if assoc_mask & (1 << i) != 0 { "west" } else { "east" };
            topology = topology.associate(home.0 as u64, cell);
            home_cell.insert(i as u64 + 1, cell);
        }
        let r1 = FleetScheduler::new(cfg)
            .unwrap()
            .with_topology(topology.clone())
            .run(&mut world, pipelined(requests_for(&pairs, None)))
            .unwrap();

        prop_assert_eq!(r1.cells.len(), 2);
        for f in &r1.flights {
            prop_assert!(f.outcome.is_completed(), "{} did not complete", f.id);
        }
        // (7a) Conservation against each cell's own budget.
        for cell in &r1.cells {
            for seg in &cell.segments {
                let total: f64 = seg.flows.iter().map(|(_, mbps)| mbps).sum();
                prop_assert!(
                    total <= cell.capacity_mbps * (1.0 + 1e-9),
                    "cell {} segment [{}, {}) oversubscribed: {total} > {}",
                    cell.name, seg.from, seg.to, cell.capacity_mbps
                );
            }
        }
        // (7b) Isolation: a flow only appears in its home device's cell,
        // so the two cells' flow-id sets are disjoint.
        for cell in &r1.cells {
            let ids: BTreeSet<u64> = cell
                .segments
                .iter()
                .flat_map(|s| s.flows.iter().map(|(id, _)| *id))
                .collect();
            for id in &ids {
                prop_assert_eq!(
                    home_cell.get(id).copied(), Some(cell.name.as_str()),
                    "flow {} surfaced outside its home cell {}", id, cell.name
                );
            }
        }
        // (8) Permutation invariance at stage granularity.
        let (mut w2, p2) = common::fleet_world(apps, seed);
        let mut permuted = pipelined(requests_for(&p2, None));
        permuted.rotate_left(rot % n);
        let r2 = FleetScheduler::new(cfg)
            .unwrap()
            .with_topology(topology)
            .run(&mut w2, permuted)
            .unwrap();
        prop_assert_eq!(format!("{:?}", &r1.flights), format!("{:?}", r2.flights));
        prop_assert_eq!(format!("{:?}", &r1.cells), format!("{:?}", r2.cells));
        prop_assert_eq!(r1.makespan, r2.makespan);
        prop_assert_eq!(r1.serialized_makespan, r2.serialized_makespan);
        prop_assert_eq!(w2.clock.now(), world.clock.now());
    }
}

/// A planned mid-run roam is part of the deterministic contract: two runs
/// of the same roaming fleet produce byte-identical reports, and every
/// cell's conservation bound holds through the roam.
#[test]
fn planned_roams_are_deterministic_and_conserve_each_cell() {
    let apps = &POOL[..3];
    let run = || {
        let (mut world, pairs) = common::fleet_world(apps, common::SEED);
        let mut topology =
            RadioTopology::new()
                .cell("east", 25.0, Band::Ghz5)
                .cell("west", 25.0, Band::Ghz2_4);
        for (home, _, _) in &pairs {
            topology = topology.associate(home.0 as u64, "east");
        }
        // The first request's home roams west mid-run; the exact phase it
        // lands in is the scheduler's business — only determinism and the
        // per-cell budgets are contractual.
        topology = topology.roam(SimDuration::from_secs(2), pairs[0].0 .0 as u64, "west");
        let cfg = FleetConfig {
            max_in_flight: 3,
            ..FleetConfig::default()
        };
        FleetScheduler::new(cfg)
            .unwrap()
            .with_topology(topology)
            .run(&mut world, requests_for(&pairs, None))
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "a roaming fleet must stay byte-deterministic"
    );
    assert!(a.flights.iter().all(|f| f.outcome.is_completed()));
    for cell in &a.cells {
        for seg in &cell.segments {
            let total: f64 = seg.flows.iter().map(|(_, mbps)| mbps).sum();
            assert!(
                total <= cell.capacity_mbps * (1.0 + 1e-9),
                "cell {} segment [{}, {}) oversubscribed through the roam",
                cell.name,
                seg.from,
                seg.to
            );
        }
    }
}
