//! A multi-cell radio contention model.
//!
//! [`NetworkEnv`](crate::NetworkEnv) prices one transfer at a time: the pair
//! of adapters owns the whole airspace. A fleet of concurrent migrations
//! does not get that luxury — K transfers through the same access point
//! share one medium, and each sees roughly 1/K of its solo goodput. A
//! [`RadioMedium`] models that sharing as a deterministic fluid process:
//! each admitted flow carries the *serial air time* the single-transfer
//! model already priced for it (jitter, congestion, MAC efficiency and all),
//! and drains at a rate capped by an equal split of its cell's capacity.
//!
//! The medium is a set of **cells** — named access points with their own
//! capacity and band, described by a [`RadioTopology`]. Devices associate
//! with a cell; a flow contends only inside the cell its source device is
//! associated with (the wired backhaul between access points is treated as
//! unconstrained), and a device may **roam** to another cell mid-transfer:
//! its active flows are re-admitted into the new cell carrying exactly
//! their remaining air time, to the sub-nanosecond. The single-argument
//! [`RadioMedium::new`] constructor builds the degenerate one-cell
//! topology, and on that topology the medium behaves byte-identically to
//! the original single-cell model.
//!
//! Between events the rate allocation is constant, so the medium only needs
//! piecewise-linear arithmetic — no iteration, no floating-point feedback —
//! and two identically-driven media produce byte-identical traces. With one
//! flow whose nominal rate fits under the capacity, the drain multiplier is
//! exactly `1.0`, so an uncontended fleet transfer completes in *exactly*
//! its serial duration: the fleet path degrades to the single-pair figures.
//!
//! Contended drain progress is integer fixed-point (32 fractional bits of a
//! nanosecond), with the sub-nanosecond remainder carried per flow across
//! serves. Completion instants are therefore *chop-invariant*: serving a
//! flow through any sequence of intermediate instants drains exactly as
//! much air as serving it straight to the completion time, and the total
//! air served equals the admitted serial air time exactly. (The previous
//! model ceil-rounded each segment independently, over-draining by up to
//! 1 ns per segment — at 10k-flow scale completions drifted measurably
//! early.)
//!
//! Chop invariance lets the medium drain lazily. A cell's shares depend
//! only on its flow set, and serving a flow at a constant multiplier does
//! not move its completion instant. So a cell serves its flows, in one
//! step, only just before its set changes (an admit, a harvest, or a roam
//! into or out of it), carrying each flow's credit across the change, and
//! keeps its earliest completion until then. [`RadioMedium::advance`]
//! records one segment per busy cell and touches no flow, and
//! [`RadioMedium::next_completion`] is a minimum over the cells: an event
//! costs what it changes, not what is on the air.
//!
//! The allocation is an equal-share cap (`min(nominal, capacity / K)`), not
//! max-min water-filling: slack from a slow flow is *not* redistributed.
//! That keeps the model monotone and trivially conservative — the per-flow
//! shares can never sum past the cell capacity, which the fleet proptests
//! assert segment by segment.
//!
//! # Caller protocol
//!
//! The scheduler owns event discovery. At each step it advances the medium
//! to the next interesting instant, harvests finished flows, then admits
//! new ones. It never advances past [`RadioMedium::next_completion`]: a
//! drained flow must be harvested first, and `advance` panics rather than
//! record a segment in which a drained flow still holds a share.
//!
//! ```
//! use flux_net::RadioMedium;
//! use flux_simcore::{ByteSize, SimDuration, SimTime};
//!
//! let mut medium = RadioMedium::new(30.0, SimTime::ZERO);
//! medium.admit(1, ByteSize::from_mib(10), SimDuration::from_secs(4));
//! let (done_at, id) = medium.next_completion().unwrap();
//! medium.advance(done_at);
//! assert_eq!(medium.take_completed(), vec![id]);
//! assert_eq!(done_at, SimTime::from_secs(4)); // alone under capacity: exact
//! ```

use crate::wifi::Band;
use flux_simcore::{ByteSize, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One constant-rate stretch of a cell's life: which flows were active
/// over `[from, to)` and the goodput share (Mbit/s) each was allocated.
#[derive(Debug, Clone, PartialEq)]
pub struct MediumSegment {
    /// Start of the stretch.
    pub from: SimTime,
    /// End of the stretch.
    pub to: SimTime,
    /// `(flow id, allocated goodput in Mbit/s)`, ascending by id.
    /// Consecutive segments of a cell whose flow set did not change share
    /// one list.
    pub flows: Arc<[(u64, f64)]>,
}

impl serde::Serialize for MediumSegment {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("from", &self.from)
            .field("to", &self.to)
            .field("flows", &*self.flows);
        obj.end();
    }
}

impl<'de> serde::Deserialize<'de> for MediumSegment {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        Ok(Self {
            from: v.read("from")?,
            to: v.read("to")?,
            flows: v.read::<Vec<(u64, f64)>>("flows")?.into(),
        })
    }
}

/// Wire name of a band (the no-op serde derive on [`Band`] carries no
/// impl, so cell traces spell it out).
fn band_name(band: Band) -> &'static str {
    match band {
        Band::Ghz2_4 => "2.4GHz",
        Band::Ghz5 => "5GHz",
    }
}

fn band_from_name(name: &str) -> Option<Band> {
    match name {
        "2.4GHz" => Some(Band::Ghz2_4),
        "5GHz" => Some(Band::Ghz5),
        _ => None,
    }
}

/// One access point in a [`RadioTopology`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Human-readable cell name (unique within a topology).
    pub name: String,
    /// Aggregate goodput budget of this cell, Mbit/s.
    pub capacity_mbps: f64,
    /// The band the cell operates on.
    pub band: Band,
}

/// A deterministic roam in a topology's plan: at `at` (relative to the
/// instant the medium opened), `device` re-associates with cell `cell`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoamEvent {
    /// Offset from the medium's opening instant.
    pub at: SimDuration,
    /// The roaming device.
    pub device: u64,
    /// Destination cell name.
    pub cell: String,
}

/// A multi-AP radio topology: named cells plus per-device association.
///
/// Cell 0 is the *default* cell: devices with no explicit association (and
/// flows admitted through the device-less [`RadioMedium::admit`]) land
/// there. [`RadioTopology::single_cell`] builds the degenerate topology the
/// plain [`RadioMedium::new`] constructor uses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RadioTopology {
    cells: Vec<CellSpec>,
    association: BTreeMap<u64, usize>,
    roam_plan: Vec<RoamEvent>,
}

impl RadioTopology {
    /// An empty topology; add cells with [`cell`](Self::cell).
    pub fn new() -> Self {
        Self::default()
    }

    /// The one-cell topology equivalent to the original single-medium
    /// model: a single 5 GHz cell named `air`.
    pub fn single_cell(capacity_mbps: f64) -> Self {
        Self::new().cell("air", capacity_mbps, Band::Ghz5)
    }

    /// Adds a cell. The first cell added is the default cell.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or a non-positive/non-finite capacity.
    pub fn cell(mut self, name: &str, capacity_mbps: f64, band: Band) -> Self {
        assert!(
            capacity_mbps > 0.0 && capacity_mbps.is_finite(),
            "cell {name}: capacity must be positive, got {capacity_mbps}"
        );
        assert!(
            self.cells.iter().all(|c| c.name != name),
            "duplicate cell name {name}"
        );
        self.cells.push(CellSpec {
            name: name.to_owned(),
            capacity_mbps,
            band,
        });
        self
    }

    /// Associates a device with a named cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell does not exist.
    pub fn associate(mut self, device: u64, cell: &str) -> Self {
        let idx = self
            .cell_index(cell)
            .unwrap_or_else(|| panic!("associate: no cell named {cell}"));
        self.association.insert(device, idx);
        self
    }

    /// Appends a deterministic roam to the plan: at `at` after the medium
    /// opens, `device` re-associates with `cell` (any in-flight flows carry
    /// their remaining air time into the new cell).
    ///
    /// # Panics
    ///
    /// Panics if the cell does not exist.
    pub fn roam(mut self, at: SimDuration, device: u64, cell: &str) -> Self {
        assert!(
            self.cell_index(cell).is_some(),
            "roam: no cell named {cell}"
        );
        self.roam_plan.push(RoamEvent {
            at,
            device,
            cell: cell.to_owned(),
        });
        self
    }

    /// The cells, in declaration order (cell 0 is the default).
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// The planned roams, in insertion order.
    pub fn roam_plan(&self) -> &[RoamEvent] {
        &self.roam_plan
    }

    /// The device → cell-index association map.
    pub fn association(&self) -> &BTreeMap<u64, usize> {
        &self.association
    }

    /// Index of the named cell.
    pub fn cell_index(&self, name: &str) -> Option<usize> {
        self.cells.iter().position(|c| c.name == name)
    }
}

/// One cell's complete trace: its spec plus every constant-rate segment it
/// recorded. This is the per-cell counterpart of the flat segment list and
/// what `FleetReport` embeds per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    /// Cell name.
    pub name: String,
    /// Cell capacity, Mbit/s.
    pub capacity_mbps: f64,
    /// Cell band.
    pub band: Band,
    /// Every constant-rate segment recorded in this cell, in order.
    pub segments: Vec<MediumSegment>,
}

impl serde::Serialize for CellTrace {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("name", &self.name)
            .field("capacity_mbps", &self.capacity_mbps)
            .field("band", band_name(self.band))
            .field("segments", &self.segments);
        obj.end();
    }
}

impl<'de> serde::Deserialize<'de> for CellTrace {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        let band: String = v.read("band")?;
        Ok(Self {
            name: v.read("name")?,
            capacity_mbps: v.read("capacity_mbps")?,
            band: band_from_name(&band)
                .ok_or_else(|| serde::DeError::msg(format!("unknown band {band}")))?,
            segments: v.read("segments")?,
        })
    }
}

/// Drain progress is tracked in integer fixed point: one unit is
/// 2⁻³² nanoseconds of served air time.
const FRAC_BITS: u32 = 32;
const ONE: u64 = 1 << FRAC_BITS;

/// A flow's drain multiplier (`share / nominal`) in fixed point. Exactly
/// [`ONE`] when uncontended (share ≥ nominal), never zero.
fn multiplier_fix(share_mbps: f64, nominal_mbps: f64) -> u64 {
    if share_mbps >= nominal_mbps {
        ONE
    } else {
        (((share_mbps / nominal_mbps) * ONE as f64) as u64).max(1)
    }
}

/// Air time consumed from a flow's remaining balance over `dt` at fixed-
/// point multiplier `m_fix`, carrying the sub-nanosecond remainder in
/// `credit`. Exact passthrough (credit untouched) when uncontended.
fn serve(dt: SimDuration, m_fix: u64, credit: &mut u64) -> SimDuration {
    if m_fix >= ONE {
        return dt;
    }
    let acc = dt.as_nanos() as u128 * m_fix as u128 + *credit as u128;
    *credit = (acc & (ONE as u128 - 1)) as u64;
    SimDuration::from_nanos((acc >> FRAC_BITS) as u64)
}

/// Smallest `dt` with `serve(dt, m_fix, credit) >= remaining`: exact at
/// multiplier one, exact integer division below it. Because the per-
/// nanosecond increment is under one unit when contended, the minimal `dt`
/// serves *exactly* `remaining` — never more.
fn drain_time(remaining: SimDuration, m_fix: u64, credit: u64) -> SimDuration {
    if m_fix >= ONE {
        return remaining;
    }
    // Only a drained flow not yet harvested holds more credit than air
    // owed (the leftover of its last serve); it needs no more time.
    let need = ((remaining.as_nanos() as u128) << FRAC_BITS).saturating_sub(credit as u128);
    SimDuration::from_nanos(need.div_ceil(m_fix as u128) as u64)
}

#[derive(Debug, Clone)]
struct Flow {
    /// Serial air time still owed as of its cell's `served_to`, in
    /// nanoseconds at multiplier 1.0.
    remaining: SimDuration,
    /// The goodput the single-transfer model priced for this payload:
    /// `bytes / serial air time`.
    nominal_mbps: f64,
    /// Sub-nanosecond served-air remainder (2⁻³² ns units), carried across
    /// serves and across roams.
    credit: u64,
    /// The source device the flow rides on — the roaming key.
    device: u64,
}

/// What a cell's flow set fixes until the set next changes. Shares depend
/// only on the set (equal split capped at each flow's nominal rate), and
/// serving a flow at a constant multiplier never moves its completion
/// instant, so both hold until the next admit, harvest or roam that
/// touches the cell.
#[derive(Debug, Clone)]
struct Rates {
    /// `(flow id, share)` in the flow map's (ascending id) order. Every
    /// segment recorded under this set shares the list.
    shares: Arc<[(u64, f64)]>,
    /// The cell's earliest completion, `(instant, id)`.
    next: (SimTime, u64),
}

#[derive(Debug, Clone)]
struct Cell {
    spec: CellSpec,
    flows: BTreeMap<u64, Flow>,
    /// The instant every flow's `remaining` and `credit` stand at. A cell
    /// is served only just before its flow set changes.
    served_to: SimTime,
    /// The current set's rates, built at first use after the set last
    /// changed.
    rates: Option<Rates>,
    segments: Vec<MediumSegment>,
}

impl Cell {
    /// The current flow set's rates. Only a busy cell has rates.
    fn rates(&mut self) -> &Rates {
        let (capacity, flows, served_to) = (self.spec.capacity_mbps, &self.flows, self.served_to);
        self.rates.get_or_insert_with(|| {
            let fair = capacity / flows.len() as f64;
            let share = |flow: &Flow| flow.nominal_mbps.min(fair);
            let next = flows
                .iter()
                .map(|(&id, flow)| {
                    let m = multiplier_fix(share(flow), flow.nominal_mbps);
                    (served_to + drain_time(flow.remaining, m, flow.credit), id)
                })
                .min()
                .expect("only a busy cell has rates");
            Rates {
                shares: flows.iter().map(|(&id, flow)| (id, share(flow))).collect(),
                next,
            }
        })
    }

    /// Serves every flow from `served_to` up to `now` in one step, however
    /// many segments that spans (the set, and so every multiplier, held
    /// throughout, and the fixed-point credit makes the step exact), then
    /// drops the rates: the caller is about to change the flow set.
    fn before_change(&mut self, now: SimTime) {
        let dt = now.since(self.served_to);
        if dt > SimDuration::ZERO && !self.flows.is_empty() {
            let shares = Arc::clone(&self.rates().shares);
            // `shares` lists the flows in the map's (ascending id) order.
            debug_assert!(shares
                .iter()
                .map(|&(id, _)| id)
                .eq(self.flows.keys().copied()));
            for ((&id, flow), &(_, share)) in self.flows.iter_mut().zip(shares.iter()) {
                let m = multiplier_fix(share, flow.nominal_mbps);
                let served = serve(dt, m, &mut flow.credit);
                assert!(
                    served <= flow.remaining,
                    "radio medium: flow {id} served {served:?} over [{:?}, {now:?}), \
                     past its remaining {:?}",
                    self.served_to,
                    flow.remaining
                );
                flow.remaining =
                    SimDuration::from_nanos(flow.remaining.as_nanos() - served.as_nanos());
            }
        }
        self.served_to = now;
        self.rates = None;
    }
}

/// A deterministic processor-sharing radio medium over a cell topology.
///
/// See the [module docs](self) for the model and the caller protocol.
#[derive(Debug, Clone)]
pub struct RadioMedium {
    cells: Vec<Cell>,
    association: BTreeMap<u64, usize>,
    now: SimTime,
}

impl RadioMedium {
    /// A single-cell medium with `capacity_mbps` of aggregate goodput,
    /// opened at `now` — the original one-AP model.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mbps` is not strictly positive and finite.
    pub fn new(capacity_mbps: f64, now: SimTime) -> Self {
        Self::with_topology(&RadioTopology::single_cell(capacity_mbps), now)
    }

    /// A medium over an arbitrary topology, opened at `now`. The topology's
    /// roam *plan* is not consumed here — the scheduler owns event time and
    /// calls [`roam`](Self::roam) when each planned instant arrives.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no cells.
    pub fn with_topology(topology: &RadioTopology, now: SimTime) -> Self {
        assert!(
            !topology.cells().is_empty(),
            "radio topology needs at least one cell"
        );
        Self {
            cells: topology
                .cells()
                .iter()
                .map(|spec| Cell {
                    spec: spec.clone(),
                    flows: BTreeMap::new(),
                    served_to: now,
                    rates: None,
                    segments: Vec::new(),
                })
                .collect(),
            association: topology.association().clone(),
            now,
        }
    }

    /// The default cell's goodput budget (the whole medium's, on a
    /// single-cell topology).
    pub fn capacity_mbps(&self) -> f64 {
        self.cells[0].spec.capacity_mbps
    }

    /// The medium's current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of flows currently on the air, across all cells.
    pub fn active(&self) -> usize {
        self.cells.iter().map(|c| c.flows.len()).sum()
    }

    /// The cell index a device's flows contend in.
    pub fn cell_of(&self, device: u64) -> usize {
        self.association.get(&device).copied().unwrap_or(0)
    }

    /// Admits a flow into the default cell at the current instant — the
    /// single-cell API. See [`admit_from`](Self::admit_from).
    pub fn admit(&mut self, id: u64, bytes: ByteSize, serial_air: SimDuration) {
        self.admit_into(id, id, 0, bytes, serial_air);
    }

    /// Admits a flow at the current instant: `bytes` of payload that the
    /// serial transfer model priced at `serial_air` of air time, riding on
    /// `device` — the flow contends in the cell that device is associated
    /// with, and follows the device when it roams. Alone under the cell
    /// capacity it drains in exactly `serial_air`; under contention its
    /// rate is capped at `capacity / K`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already on the air, or if `serial_air` is zero
    /// (zero-cost payloads never touch the medium).
    pub fn admit_from(&mut self, id: u64, device: u64, bytes: ByteSize, serial_air: SimDuration) {
        let cell = self.cell_of(device);
        self.admit_into(id, device, cell, bytes, serial_air);
    }

    fn admit_into(
        &mut self,
        id: u64,
        device: u64,
        cell: usize,
        bytes: ByteSize,
        serial_air: SimDuration,
    ) {
        assert!(
            serial_air > SimDuration::ZERO,
            "flow {id}: zero serial air time"
        );
        assert!(
            self.cells.iter().all(|c| !c.flows.contains_key(&id)),
            "flow {id} admitted twice"
        );
        let nominal_mbps = bytes.as_u64() as f64 * 8.0 / serial_air.as_secs_f64() / 1e6;
        let cell = &mut self.cells[cell];
        cell.before_change(self.now);
        cell.flows.insert(
            id,
            Flow {
                remaining: serial_air,
                nominal_mbps,
                credit: 0,
                device,
            },
        );
    }

    /// Re-associates `device` with the named cell and moves its in-flight
    /// flows there, carrying their remaining air time (and sub-nanosecond
    /// credit) exactly. The caller must have advanced the medium to the
    /// roam instant first. Only the cells that lose or gain a flow are
    /// served.
    ///
    /// # Panics
    ///
    /// Panics if the cell does not exist.
    pub fn roam(&mut self, device: u64, cell: &str) {
        let target = self
            .cells
            .iter()
            .position(|c| c.spec.name == cell)
            .unwrap_or_else(|| panic!("roam: no cell named {cell}"));
        self.association.insert(device, target);
        let now = self.now;
        let mut moved: Vec<(u64, Flow)> = Vec::new();
        for (idx, c) in self.cells.iter_mut().enumerate() {
            if idx == target || !c.flows.values().any(|f| f.device == device) {
                continue;
            }
            c.before_change(now);
            c.flows.retain(|&id, f| {
                if f.device == device {
                    moved.push((id, f.clone()));
                    false
                } else {
                    true
                }
            });
        }
        if !moved.is_empty() {
            let cell = &mut self.cells[target];
            cell.before_change(now);
            cell.flows.extend(moved);
        }
    }

    /// When the next flow (in any cell) completes under the *current*
    /// allocation, with its id — ties resolved to the smallest id. `None`
    /// when idle.
    ///
    /// Each cell keeps its earliest completion until its flow set changes,
    /// so this is a minimum over the cells. The scheduler must re-ask
    /// after every admit, harvest or roam.
    pub fn next_completion(&mut self) -> Option<(SimTime, u64)> {
        self.cells
            .iter_mut()
            .filter(|c| !c.flows.is_empty())
            .map(|c| c.rates().next)
            .min()
    }

    /// Advances the medium to `to`, recording one constant-rate segment
    /// per non-idle cell. No flow is served here: a cell drains its flows
    /// only just before its set changes.
    ///
    /// # Panics
    ///
    /// Panics if `to` is earlier than the medium's current time, or later
    /// than a pending completion: a drained flow must be harvested before
    /// the medium moves past it.
    pub fn advance(&mut self, to: SimTime) {
        assert!(to >= self.now, "radio medium time cannot rewind");
        if to > self.now {
            let from = self.now;
            for cell in self.cells.iter_mut().filter(|c| !c.flows.is_empty()) {
                let rates = cell.rates();
                let (done_at, id) = rates.next;
                assert!(
                    to <= done_at,
                    "radio medium advanced to {to:?}, past flow {id}'s completion at {done_at:?}"
                );
                let flows = Arc::clone(&rates.shares);
                cell.segments.push(MediumSegment { from, to, flows });
            }
        }
        self.now = to;
    }

    /// Removes and returns the flows that have fully drained, ascending by
    /// id across all cells. Only a cell whose earliest completion is due
    /// is served and scanned.
    pub fn take_completed(&mut self) -> Vec<u64> {
        let now = self.now;
        let mut done: Vec<u64> = Vec::new();
        for cell in &mut self.cells {
            if cell.flows.is_empty() || cell.rates().next.0 > now {
                continue;
            }
            cell.before_change(now);
            cell.flows.retain(|&id, f| {
                let drained = f.remaining == SimDuration::ZERO;
                if drained {
                    done.push(id);
                }
                !drained
            });
        }
        done.sort_unstable();
        done
    }

    /// Every constant-rate segment the *default* cell recorded, in order —
    /// the whole medium's trace on a single-cell topology.
    pub fn segments(&self) -> &[MediumSegment] {
        &self.cells[0].segments
    }

    /// Closes the medium and hands over its per-cell traces, in cell
    /// order. The segments move out; nothing is copied.
    pub fn into_cell_traces(self) -> Vec<CellTrace> {
        self.cells
            .into_iter()
            .map(|c| CellTrace {
                name: c.spec.name,
                capacity_mbps: c.spec.capacity_mbps,
                band: c.spec.band,
                segments: c.segments,
            })
            .collect()
    }

    /// The air time a lone flow of `bytes` priced at `serial_air` needs to
    /// drain through a cell of `capacity_mbps` — the exact same arithmetic
    /// a real solo flow sees, for callers that compute isolated baselines
    /// (`serialized_makespan`) without driving a medium.
    pub fn solo_drain(capacity_mbps: f64, bytes: ByteSize, serial_air: SimDuration) -> SimDuration {
        assert!(serial_air > SimDuration::ZERO, "zero serial air time");
        let nominal_mbps = bytes.as_u64() as f64 * 8.0 / serial_air.as_secs_f64() / 1e6;
        let m = multiplier_fix(nominal_mbps.min(capacity_mbps), nominal_mbps);
        drain_time(serial_air, m, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mib(n: u64) -> ByteSize {
        ByteSize::from_mib(n)
    }

    #[test]
    fn uncontended_flow_drains_in_exactly_its_serial_time() {
        // 10 MiB priced at a messy, non-round serial time: still exact.
        let air = SimDuration::from_nanos(3_777_123_457);
        let mut m = RadioMedium::new(30.0, SimTime::from_secs(100));
        m.admit(7, mib(10), air);
        let (done, id) = m.next_completion().unwrap();
        assert_eq!(id, 7);
        assert_eq!(done, SimTime::from_secs(100) + air);
        m.advance(done);
        assert_eq!(m.take_completed(), vec![7]);
        assert_eq!(m.active(), 0);
    }

    #[test]
    fn two_saturating_flows_each_see_half_the_capacity() {
        // Both flows nominally want 20 Mbit/s; capacity 20 → 10 each.
        let air = SimDuration::from_secs(4);
        let bytes = ByteSize::from_bytes(20_000_000 / 8 * 4); // 20 Mbit/s * 4 s
        let mut m = RadioMedium::new(20.0, SimTime::ZERO);
        m.admit(1, bytes, air);
        m.admit(2, bytes, air);
        // Halved rate: each needs 8 s.
        let (done, id) = m.next_completion().unwrap();
        assert_eq!((done, id), (SimTime::from_secs(8), 1));
        m.advance(done);
        assert_eq!(m.take_completed(), vec![1, 2]);
        let seg = &m.segments()[0];
        assert_eq!(seg.flows.len(), 2);
        for &(_, share) in seg.flows.iter() {
            assert!((share - 10.0).abs() < 1e-9, "share {share}");
        }
    }

    #[test]
    fn shares_never_sum_past_capacity() {
        let mut m = RadioMedium::new(25.0, SimTime::ZERO);
        m.admit(1, mib(64), SimDuration::from_secs(20));
        m.admit(2, mib(8), SimDuration::from_secs(9));
        m.advance(SimTime::from_secs(2));
        m.admit(3, mib(32), SimDuration::from_secs(14));
        while let Some((t, _)) = m.next_completion() {
            m.advance(t);
            m.take_completed();
        }
        assert!(!m.segments().is_empty());
        for seg in m.segments() {
            let sum: f64 = seg.flows.iter().map(|&(_, s)| s).sum();
            assert!(
                sum <= m.capacity_mbps() * (1.0 + 1e-12),
                "segment [{}, {}) allocates {sum} Mbit/s",
                seg.from,
                seg.to
            );
        }
    }

    #[test]
    fn departure_restores_the_survivors_rate() {
        // Flow 1 is short; once it leaves, flow 2 runs uncontended again.
        let mut m = RadioMedium::new(20.0, SimTime::ZERO);
        let bytes = ByteSize::from_bytes(20_000_000 / 8 * 2); // 20 Mbit/s * 2 s
        m.admit(1, bytes, SimDuration::from_secs(2));
        m.admit(2, bytes, SimDuration::from_secs(2));
        let (t1, id1) = m.next_completion().unwrap();
        assert_eq!((t1, id1), (SimTime::from_secs(4), 1)); // halved: 2 s -> 4 s
        m.advance(t1);
        assert_eq!(m.take_completed(), vec![1, 2]); // symmetric: both drain together
        assert_eq!(m.active(), 0);
    }

    #[test]
    fn completion_ties_break_by_smallest_id() {
        let mut m = RadioMedium::new(100.0, SimTime::ZERO);
        m.admit(9, mib(1), SimDuration::from_secs(3));
        m.admit(4, mib(1), SimDuration::from_secs(3));
        let (_, id) = m.next_completion().unwrap();
        assert_eq!(id, 4);
    }

    #[test]
    fn identically_driven_media_produce_identical_traces() {
        let drive = || {
            let mut m = RadioMedium::new(22.5, SimTime::from_millis(250));
            m.admit(1, mib(48), SimDuration::from_nanos(17_000_000_003));
            m.admit(2, mib(12), SimDuration::from_nanos(4_999_999_999));
            let mut done = Vec::new();
            while let Some((t, _)) = m.next_completion() {
                m.advance(t);
                done.extend(m.take_completed());
            }
            (done, format!("{:?}", m.segments()))
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn double_admission_panics() {
        let mut m = RadioMedium::new(10.0, SimTime::ZERO);
        m.admit(1, mib(1), SimDuration::from_secs(1));
        m.admit(1, mib(1), SimDuration::from_secs(1));
    }

    #[test]
    fn contended_completion_is_chop_invariant() {
        // A messy multiplier across many artificial segment boundaries must
        // complete at exactly the same instant as across one — the credit
        // carry makes chopping the timeline invisible. (The old per-segment
        // ceil drifted ~1 ns early per chop.)
        let air = SimDuration::from_nanos(7_919_999_983);
        let bytes = mib(97);
        let chopped = |chops: u64| {
            let mut m = RadioMedium::new(11.0, SimTime::ZERO);
            m.admit(1, bytes, air);
            m.admit(2, mib(40), SimDuration::from_nanos(123_456_789_123));
            let horizon = m.next_completion().unwrap().0;
            for i in 1..=chops {
                let t = SimTime::ZERO
                    + SimDuration::from_nanos(
                        horizon.since(SimTime::ZERO).as_nanos() * i / (chops + 1),
                    );
                m.advance(t);
            }
            while m.take_completed().is_empty() {
                let (t, _) = m.next_completion().unwrap();
                m.advance(t);
            }
            m.now()
        };
        let reference = chopped(0);
        for chops in [1, 7, 97, 1000] {
            assert_eq!(chopped(chops), reference, "{chops} chops drifted");
        }
    }

    #[test]
    fn contended_total_served_equals_serial_air_exactly() {
        // Drive a contended flow through many segments and integrate the
        // fixed-point serve amounts: they must sum to the admitted serial
        // air exactly, with the final (minimal) drain step serving exactly
        // the remainder.
        let air = SimDuration::from_nanos(5_432_109_871);
        let mut credit = 0u64;
        let m_fix = multiplier_fix(7.3, 19.1); // messy contended multiplier
        let mut remaining = air;
        let mut served_total = SimDuration::ZERO;
        let mut chop = 1u64;
        while remaining > SimDuration::ZERO {
            let dt = drain_time(remaining, m_fix, credit).min(SimDuration::from_nanos(chop * 13));
            let served = serve(dt, m_fix, &mut credit);
            assert!(served <= remaining, "over-drain: {served} > {remaining}");
            served_total += served;
            remaining = SimDuration::from_nanos(remaining.as_nanos() - served.as_nanos());
            chop += 1;
        }
        assert_eq!(served_total, air);
    }

    #[test]
    fn cross_cell_flows_never_share_a_cells_budget() {
        // Two saturating flows in *different* cells each keep their full
        // cell capacity — completion matches the uncontended solo time.
        let topo = RadioTopology::new()
            .cell("east", 20.0, Band::Ghz5)
            .cell("west", 20.0, Band::Ghz2_4)
            .associate(100, "east")
            .associate(200, "west");
        let air = SimDuration::from_secs(2);
        let bytes = ByteSize::from_bytes(20_000_000 / 8 * 2); // exactly 20 Mbit/s
        let mut m = RadioMedium::with_topology(&topo, SimTime::ZERO);
        m.admit_from(1, 100, bytes, air);
        m.admit_from(2, 200, bytes, air);
        let (done, id) = m.next_completion().unwrap();
        assert_eq!((done, id), (SimTime::from_secs(2), 1)); // solo, not halved
        m.advance(done);
        assert_eq!(m.take_completed(), vec![1, 2]);
        let traces = m.into_cell_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(*traces[0].segments[0].flows, [(1, 20.0)]);
        assert_eq!(*traces[1].segments[0].flows, [(2, 20.0)]);
    }

    #[test]
    fn roaming_preserves_remaining_air_time_exactly() {
        // A flow roams from a contended cell to an empty one halfway; total
        // air served must still equal its serial air exactly: 2 s contended
        // at half rate serves 1 s of air, then 3 s solo serves the rest.
        let topo = RadioTopology::new()
            .cell("east", 20.0, Band::Ghz5)
            .cell("west", 20.0, Band::Ghz5)
            .associate(100, "east")
            .associate(101, "east");
        let air = SimDuration::from_secs(4);
        let bytes = ByteSize::from_bytes(20_000_000 / 8 * 4); // 20 Mbit/s nominal
        let mut m = RadioMedium::with_topology(&topo, SimTime::ZERO);
        m.admit_from(1, 100, bytes, air);
        m.admit_from(2, 101, bytes, air);
        m.advance(SimTime::from_secs(2)); // halved: 1 s of air each served
        m.roam(100, "west");
        let (done, id) = m.next_completion().unwrap();
        assert_eq!(id, 1);
        // 3 s of air left, now solo at full rate: completes at t = 5 s.
        assert_eq!(done, SimTime::from_secs(5));
        m.advance(done);
        assert!(m.take_completed().contains(&1));
        // The roamer's segments appear in both cells' traces.
        let traces = m.into_cell_traces();
        assert!(traces[0]
            .segments
            .iter()
            .any(|s| s.flows.iter().any(|&(id, _)| id == 1)));
        assert!(traces[1]
            .segments
            .iter()
            .any(|s| s.flows.iter().any(|&(id, _)| id == 1)));
    }

    #[test]
    fn solo_drain_matches_a_real_solo_flow() {
        for (cap, bytes, air_ns) in [
            (30.0, 10u64, 3_777_123_457u64),
            (5.0, 64, 9_000_000_001),
            (0.75, 128, 123_456_789),
        ] {
            let air = SimDuration::from_nanos(air_ns);
            let mut m = RadioMedium::new(cap, SimTime::ZERO);
            m.admit(1, mib(bytes), air);
            let (done, _) = m.next_completion().unwrap();
            assert_eq!(
                done.since(SimTime::ZERO),
                RadioMedium::solo_drain(cap, mib(bytes), air),
                "cap {cap} bytes {bytes} air {air_ns}"
            );
            m.advance(done);
            assert_eq!(m.take_completed(), vec![1]);
        }
    }

    #[test]
    fn unchanged_cells_share_one_flow_list_until_their_set_changes() {
        let topo = RadioTopology::new()
            .cell("east", 20.0, Band::Ghz5)
            .cell("west", 30.0, Band::Ghz2_4)
            .associate(100, "east")
            .associate(101, "east")
            .associate(200, "west");
        let mut m = RadioMedium::with_topology(&topo, SimTime::ZERO);
        let step = |m: &mut RadioMedium| m.advance(m.now() + SimDuration::from_millis(100));
        m.admit_from(1, 100, mib(8), SimDuration::from_secs(4));
        m.admit_from(2, 101, mib(8), SimDuration::from_secs(6));
        m.admit_from(3, 200, mib(8), SimDuration::from_secs(5));
        step(&mut m); // segment 0 of both cells
        step(&mut m); // 1: nothing changed
        m.admit_from(4, 200, mib(1), SimDuration::from_secs(1));
        step(&mut m); // 2: admit in west
        m.roam(101, "west");
        step(&mut m); // 3: flow 2 left east for west
        let (done_at, first) = m.next_completion().unwrap();
        assert_eq!(first, 4);
        m.advance(done_at); // 4: nothing changed
        assert_eq!(m.take_completed(), vec![4]);
        step(&mut m); // 5: completion in west
        m.roam(300, "east");
        step(&mut m); // 6: a roam that moves no flow changes no set

        let traces = m.into_cell_traces();
        let (east, west) = (&traces[0].segments, &traces[1].segments);
        assert_eq!((east.len(), west.len()), (7, 7));
        let shared =
            |segs: &[MediumSegment], i: usize| Arc::ptr_eq(&segs[i - 1].flows, &segs[i].flows);
        let east_shared: Vec<bool> = (1..7).map(|i| shared(east, i)).collect();
        let west_shared: Vec<bool> = (1..7).map(|i| shared(west, i)).collect();
        assert_eq!(east_shared, [true, true, false, true, true, true]);
        assert_eq!(west_shared, [true, false, false, true, false, true]);
        let ids = |seg: &MediumSegment| seg.flows.iter().map(|&(id, _)| id).collect::<Vec<_>>();
        assert_eq!(ids(&east[2]), [1, 2]);
        assert_eq!(ids(&east[3]), [1]);
        assert_eq!(ids(&west[1]), [3]);
        assert_eq!(ids(&west[2]), [3, 4]);
        assert_eq!(ids(&west[3]), [2, 3, 4]);
        assert_eq!(ids(&west[5]), [2, 3]);

        // Sharing is invisible in the output: the trace serializes exactly
        // as one that gives every segment a list of its own.
        let unshared: Vec<CellTrace> = traces
            .iter()
            .map(|t| CellTrace {
                segments: t
                    .segments
                    .iter()
                    .map(|seg| MediumSegment {
                        flows: seg.flows.to_vec().into(),
                        ..seg.clone()
                    })
                    .collect(),
                ..t.clone()
            })
            .collect();
        assert!(!Arc::ptr_eq(
            &unshared[0].segments[0].flows,
            &unshared[0].segments[1].flows
        ));
        assert_eq!(serde::to_json(&traces), serde::to_json(&unshared));
        assert_eq!(format!("{traces:?}"), format!("{unshared:?}"));
    }

    #[test]
    #[should_panic(expected = "past flow 1's completion")]
    fn advancing_past_a_pending_completion_panics() {
        let mut m = RadioMedium::new(30.0, SimTime::ZERO);
        m.admit(1, mib(1), SimDuration::from_secs(1));
        m.advance(SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "past its remaining")]
    fn serving_past_a_flows_remaining_air_panics() {
        let mut m = RadioMedium::new(30.0, SimTime::ZERO);
        m.admit(1, mib(1), SimDuration::from_secs(1));
        m.cells[0].before_change(SimTime::from_secs(2));
    }

    #[test]
    fn admit_harvest_and_roams_refresh_a_cells_cached_completion() {
        // Every flow wants exactly 20 Mbit/s of a 20 Mbit/s cell: alone it
        // drains at multiplier one, two to a cell drain at exactly half.
        let topo = RadioTopology::new()
            .cell("east", 20.0, Band::Ghz5)
            .cell("west", 20.0, Band::Ghz5)
            .associate(100, "east")
            .associate(101, "east")
            .associate(200, "west");
        let bytes = |air_s: u64| ByteSize::from_bytes(20_000_000 / 8 * air_s);
        let secs = SimTime::from_secs;
        let cached = |m: &mut RadioMedium, cell: usize| {
            let cell = &mut m.cells[cell];
            (!cell.flows.is_empty()).then(|| cell.rates().next)
        };
        let mut m = RadioMedium::with_topology(&topo, SimTime::ZERO);
        m.admit_from(1, 100, bytes(4), SimDuration::from_secs(4));
        m.admit_from(3, 200, bytes(10), SimDuration::from_secs(10));
        assert_eq!(cached(&mut m, 0), Some((secs(4), 1)));
        assert_eq!(cached(&mut m, 1), Some((secs(10), 3)));

        // Admit: flow 2 halves flow 1's rate and finishes first.
        m.admit_from(2, 101, bytes(1), SimDuration::from_secs(1));
        assert!(m.cells[0].rates.is_none());
        assert_eq!(cached(&mut m, 0), Some((secs(2), 2)));

        // Harvest: flow 1 has 3 s of air left and runs alone again.
        m.advance(secs(2));
        assert_eq!(m.take_completed(), vec![2]);
        assert!(m.cells[0].rates.is_none());
        assert_eq!(cached(&mut m, 0), Some((secs(5), 1)));
        assert_eq!(m.next_completion(), Some((secs(5), 1)));

        // Roam in: flow 3 (7 s left) joins flow 1 (2 s left) in east.
        m.advance(secs(3));
        m.roam(200, "east");
        assert!(m.cells[0].rates.is_none());
        assert_eq!(cached(&mut m, 0), Some((secs(7), 1)));
        assert_eq!(cached(&mut m, 1), None);

        // Roam out: flow 1 (1 s left) leaves for west; flow 3 (6 s left)
        // runs alone.
        m.advance(secs(5));
        m.roam(100, "west");
        assert!(m.cells[0].rates.is_none() && m.cells[1].rates.is_none());
        assert_eq!(cached(&mut m, 0), Some((secs(11), 3)));
        assert_eq!(cached(&mut m, 1), Some((secs(6), 1)));

        let mut done = Vec::new();
        while let Some((t, _)) = m.next_completion() {
            m.advance(t);
            done.extend(m.take_completed().into_iter().map(|id| (t, id)));
        }
        assert_eq!(done, [(secs(6), 1), (secs(11), 3)]);
    }

    /// The eager drain the lazy medium must reproduce exactly: every
    /// advance serves every flow of every busy cell, and every query
    /// recomputes every flow's completion.
    struct EagerMedium {
        specs: Vec<CellSpec>,
        flows: Vec<BTreeMap<u64, Flow>>,
        segments: Vec<Vec<MediumSegment>>,
        association: BTreeMap<u64, usize>,
        now: SimTime,
    }

    impl EagerMedium {
        fn new(topology: &RadioTopology, now: SimTime) -> Self {
            let cells = topology.cells().len();
            Self {
                specs: topology.cells().to_vec(),
                flows: vec![BTreeMap::new(); cells],
                segments: vec![Vec::new(); cells],
                association: topology.association().clone(),
                now,
            }
        }

        fn shares(&self, cell: usize) -> Vec<(u64, f64)> {
            let fair = self.specs[cell].capacity_mbps / self.flows[cell].len() as f64;
            self.flows[cell]
                .iter()
                .map(|(&id, flow)| (id, flow.nominal_mbps.min(fair)))
                .collect()
        }

        fn admit_from(&mut self, id: u64, device: u64, bytes: ByteSize, serial_air: SimDuration) {
            let cell = self.association.get(&device).copied().unwrap_or(0);
            let nominal_mbps = bytes.as_u64() as f64 * 8.0 / serial_air.as_secs_f64() / 1e6;
            let flow = Flow {
                remaining: serial_air,
                nominal_mbps,
                credit: 0,
                device,
            };
            self.flows[cell].insert(id, flow);
        }

        fn roam(&mut self, device: u64, target: usize) {
            self.association.insert(device, target);
            for cell in 0..self.flows.len() {
                if cell == target {
                    continue;
                }
                let ids: Vec<u64> = self.flows[cell]
                    .iter()
                    .filter(|(_, f)| f.device == device)
                    .map(|(&id, _)| id)
                    .collect();
                for id in ids {
                    let flow = self.flows[cell].remove(&id).expect("listed flow");
                    self.flows[target].insert(id, flow);
                }
            }
        }

        fn next_completion(&self) -> Option<(SimTime, u64)> {
            (0..self.flows.len())
                .flat_map(|cell| {
                    let flows = &self.flows[cell];
                    flows
                        .iter()
                        .zip(self.shares(cell))
                        .map(|((&id, flow), (_, share))| {
                            let m = multiplier_fix(share, flow.nominal_mbps);
                            (self.now + drain_time(flow.remaining, m, flow.credit), id)
                        })
                        .collect::<Vec<_>>()
                })
                .min()
        }

        fn advance(&mut self, to: SimTime) {
            let dt = to.since(self.now);
            if dt > SimDuration::ZERO {
                for cell in 0..self.flows.len() {
                    if self.flows[cell].is_empty() {
                        continue;
                    }
                    let shares = self.shares(cell);
                    for (flow, &(_, share)) in self.flows[cell].values_mut().zip(&shares) {
                        let m = multiplier_fix(share, flow.nominal_mbps);
                        let served = serve(dt, m, &mut flow.credit);
                        assert!(served <= flow.remaining, "eager over-drain");
                        flow.remaining =
                            SimDuration::from_nanos(flow.remaining.as_nanos() - served.as_nanos());
                    }
                    self.segments[cell].push(MediumSegment {
                        from: self.now,
                        to,
                        flows: shares.into(),
                    });
                }
            }
            self.now = to;
        }

        fn take_completed(&mut self) -> Vec<u64> {
            let mut done = Vec::new();
            for flows in &mut self.flows {
                flows.retain(|&id, f| {
                    let drained = f.remaining == SimDuration::ZERO;
                    if drained {
                        done.push(id);
                    }
                    !drained
                });
            }
            done.sort_unstable();
            done
        }

        fn into_cell_traces(self) -> Vec<CellTrace> {
            self.specs
                .into_iter()
                .zip(self.segments)
                .map(|(spec, segments)| CellTrace {
                    name: spec.name,
                    capacity_mbps: spec.capacity_mbps,
                    band: spec.band,
                    segments,
                })
                .collect()
        }
    }

    /// One planned medium event: a flow `(device, MiB, serial air)` joins,
    /// or a device roams to a cell.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Admit(u64, u64, SimDuration),
        Roam(u64, usize),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lazy_drain_matches_the_eager_reference(
            caps in prop::collection::vec(50..400u32, 1..4),
            assoc in prop::collection::vec(0..3usize, 4),
            ops in prop::collection::vec((0..1_500u64, 0..4u64, 1..48u64, 30..4_000u64, 0..6u32), 1..24),
            chop in 1..u64::MAX,
        ) {
            let mut topology = RadioTopology::new();
            for (i, &tenths) in caps.iter().enumerate() {
                topology = topology.cell(&format!("c{i}"), f64::from(tenths) / 10.0, Band::Ghz5);
            }
            for (device, &cell) in assoc.iter().enumerate() {
                topology = topology.associate(device as u64, &format!("c{}", cell % caps.len()));
            }
            // Every sixth op (on average) is a roam; the rest admit a flow.
            let t0 = SimTime::from_millis(3);
            let mut at = t0;
            let plan: Vec<(SimTime, u64, Op)> = ops
                .iter()
                .enumerate()
                .map(|(i, &(gap_ms, device, mib, air_ms, kind))| {
                    at += SimDuration::from_millis(gap_ms);
                    let op = if kind == 0 {
                        Op::Roam(device, mib as usize % caps.len())
                    } else {
                        Op::Admit(device, mib, SimDuration::from_millis(air_ms))
                    };
                    (at, i as u64 + 1, op)
                })
                .collect();
            let admitted = plan.iter().filter(|(_, _, op)| matches!(op, Op::Admit(..))).count();

            let mut lazy = RadioMedium::with_topology(&topology, t0);
            let mut eager = EagerMedium::new(&topology, t0);
            let mut done = Vec::new();
            let mut next = 0;
            let mut chop = chop;
            loop {
                let completion = lazy.next_completion();
                prop_assert_eq!(completion, eager.next_completion());
                let target = match (plan.get(next).map(|p| p.0), completion.map(|c| c.0)) {
                    (Some(p), Some(c)) => p.min(c),
                    (Some(p), None) => p,
                    (None, Some(c)) => c,
                    (None, None) => break,
                };
                // Chop each stretch into 1-3 advances: the eager model
                // serves at every cut, so its credit carries across them.
                let (start, span) = (lazy.now(), target.since(lazy.now()));
                chop = chop.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pieces = 1 + (chop >> 60) % 3;
                for k in 1..pieces {
                    let cut = start + SimDuration::from_nanos(span.as_nanos() * k / pieces);
                    lazy.advance(cut);
                    eager.advance(cut);
                }
                lazy.advance(target);
                eager.advance(target);
                let harvested = lazy.take_completed();
                prop_assert_eq!(&harvested, &eager.take_completed());
                done.extend(harvested.into_iter().map(|id| (target, id)));
                while plan.get(next).is_some_and(|p| p.0 == target) {
                    let (_, id, op) = plan[next];
                    match op {
                        Op::Admit(device, mib, air) => {
                            lazy.admit_from(id, device, ByteSize::from_mib(mib), air);
                            eager.admit_from(id, device, ByteSize::from_mib(mib), air);
                        }
                        Op::Roam(device, cell) => {
                            lazy.roam(device, &format!("c{cell}"));
                            eager.roam(device, cell);
                        }
                    }
                    next += 1;
                }
            }
            prop_assert_eq!(done.len(), admitted, "every flow must complete");
            prop_assert_eq!(
                serde::to_json(&lazy.into_cell_traces()),
                serde::to_json(&eager.into_cell_traces())
            );
        }
    }

    #[test]
    fn cell_trace_round_trips_through_json() {
        let topo = RadioTopology::new()
            .cell("east", 20.0, Band::Ghz5)
            .associate(9, "east");
        let mut m = RadioMedium::with_topology(&topo, SimTime::ZERO);
        m.admit_from(1, 9, mib(4), SimDuration::from_secs(3));
        m.advance(SimTime::from_secs(3));
        m.take_completed();
        let traces = m.into_cell_traces();
        let json = serde::to_json(&traces);
        let parsed: Vec<CellTrace> = serde::from_json(&json).unwrap();
        assert_eq!(parsed, traces);
        assert_eq!(serde::to_json(&parsed), json);
    }
}
