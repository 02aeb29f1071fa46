//! WiFi adapters and the device-to-device transfer model.

use flux_simcore::{ByteSize, FaultPlan, SimDuration, SimRng, SimTime};

/// Default chunk size for acknowledged, resumable transfers.
pub const DEFAULT_CHUNK: ByteSize = ByteSize::from_kib(256);

/// 802.11 standard of an adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WifiStandard {
    /// 802.11n (all devices in the paper's evaluation).
    N,
    /// 802.11ac (the Nexus 5 the paper points to as the future).
    Ac,
}

/// Radio band an association uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// 2.4 GHz — "extremely congested" on the paper's campus network.
    Ghz2_4,
    /// 5 GHz — far less contended.
    Ghz5,
}

/// One device's WiFi adapter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiAdapter {
    /// Link standard.
    pub standard: WifiStandard,
    /// Whether the adapter can use the 5 GHz band. The 2012 Nexus 7
    /// cannot, which is why its migrations are the slowest (§4).
    pub dual_band: bool,
    /// Negotiated PHY link rate in Mbit/s.
    pub link_mbps: f64,
}

impl WifiAdapter {
    /// The band this adapter associates on in the simulated environment.
    pub fn band(&self) -> Band {
        if self.dual_band {
            Band::Ghz5
        } else {
            Band::Ghz2_4
        }
    }
}

/// Statistics of one completed transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferStats {
    /// Bytes moved.
    pub bytes: ByteSize,
    /// Wall (virtual) time the transfer took.
    pub duration: SimDuration,
    /// Achieved goodput in Mbit/s.
    pub goodput_mbps: f64,
}

/// A shared wireless environment two paired devices communicate through.
///
/// Throughput is `min(endpoint rates)` where each endpoint's effective rate
/// is its link rate degraded by MAC efficiency, band congestion and
/// per-transfer jitter. The defaults are calibrated against the paper's
/// observation that transfer dominates migration (>50 % of 7.88 s average)
/// while moving at most 14 MB.
#[derive(Debug, Clone)]
pub struct NetworkEnv {
    /// Fraction of theoretical MAC throughput actually achieved (rate
    /// adaptation, contention, TCP overhead).
    pub mac_efficiency: f64,
    /// Multiplier applied on the 2.4 GHz band (campus congestion).
    pub congestion_2_4: f64,
    /// Multiplier applied on the 5 GHz band.
    pub congestion_5: f64,
    /// Fixed per-transfer setup latency (association is already up; this is
    /// connection setup plus protocol handshake).
    pub setup_latency: SimDuration,
    /// Multiplicative jitter range around 1.0 (e.g. 0.12 = ±12 %).
    pub jitter: f64,
    rng: SimRng,
}

impl NetworkEnv {
    /// A campus-WiFi environment with the calibrated defaults.
    pub fn campus(seed: u64) -> Self {
        Self {
            mac_efficiency: 0.42,
            congestion_2_4: 0.38,
            congestion_5: 0.82,
            setup_latency: SimDuration::from_millis(120),
            jitter: 0.12,
            rng: SimRng::seed(seed),
        }
    }

    /// Derives a child RNG from the environment's jitter stream, labelled
    /// by `stream` — the [`SimRng::fork`] discipline. Consumes exactly one
    /// draw from the environment regardless of how many children are later
    /// derived from the fork, which is what lets a fleet executor hand
    /// every request an independent stream while perturbing the world's
    /// stream by a fixed, batch-size-independent amount.
    pub fn fork_rng(&mut self, stream: u64) -> SimRng {
        self.rng.fork(stream)
    }

    /// Replaces the environment's jitter stream. The journaled service
    /// installs each batch's stream this way, and tests hand a lone
    /// migration the stream the fleet executor would give a request.
    pub fn set_rng(&mut self, rng: SimRng) {
        self.rng = rng;
    }

    /// A clone of this environment drawing from `rng` instead of the
    /// shared stream: the environment a fleet request executes under,
    /// which the executor discards once the request has run.
    pub fn with_rng(&self, rng: SimRng) -> Self {
        let mut env = self.clone();
        env.rng = rng;
        env
    }

    /// The effective one-way rate of `adapter` in this environment, in
    /// Mbit/s, before jitter.
    pub fn endpoint_mbps(&self, adapter: &WifiAdapter) -> f64 {
        let band_factor = match adapter.band() {
            Band::Ghz2_4 => self.congestion_2_4,
            Band::Ghz5 => self.congestion_5,
        };
        adapter.link_mbps * self.mac_efficiency * band_factor
    }

    /// Transfers `bytes` from a device with adapter `a` to one with `b`,
    /// returning the time taken and achieved goodput.
    pub fn transfer(&mut self, bytes: ByteSize, a: &WifiAdapter, b: &WifiAdapter) -> TransferStats {
        let base = self.endpoint_mbps(a).min(self.endpoint_mbps(b));
        let jitter = self.rng.range_f64(1.0 - self.jitter, 1.0 + self.jitter);
        let goodput_mbps = (base * jitter).max(0.1);
        let secs = bytes.as_u64() as f64 * 8.0 / (goodput_mbps * 1e6);
        let duration = self.setup_latency + SimDuration::from_secs_f64(secs);
        TransferStats {
            bytes,
            duration,
            goodput_mbps,
        }
    }

    /// Transfers `bytes` in per-chunk-acknowledged pieces, consulting
    /// `plan` for link faults along the way.
    ///
    /// Chunks `0..resume_from` are taken as already delivered by an earlier
    /// attempt and are not re-sent; the attempt pays one connection setup
    /// and then ships the remaining chunks in order. A
    /// [`FaultKind::LinkDrop`](flux_simcore::FaultKind) scheduled inside
    /// the attempt window aborts the chunk in flight; everything
    /// acknowledged before it stays delivered. Congestion spikes stretch
    /// the chunks they overlap.
    ///
    /// Draws exactly one jitter sample — the same RNG consumption as
    /// [`NetworkEnv::transfer`] — and, under an empty plan with
    /// `resume_from == 0`, takes exactly the same virtual time, so enabling
    /// chunking without faults changes no results.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_chunked(
        &mut self,
        now: SimTime,
        bytes: ByteSize,
        chunk_size: ByteSize,
        a: &WifiAdapter,
        b: &WifiAdapter,
        resume_from: usize,
        plan: &FaultPlan,
    ) -> ChunkedTransfer {
        let chunk = chunk_size.as_u64().max(1);
        let total_chunks = bytes.as_u64().div_ceil(chunk) as usize;
        let resume_from = resume_from.min(total_chunks);
        let remaining =
            ByteSize::from_bytes(bytes.as_u64() - (resume_from as u64 * chunk).min(bytes.as_u64()));

        let base = self.endpoint_mbps(a).min(self.endpoint_mbps(b));
        let jitter = self.rng.range_f64(1.0 - self.jitter, 1.0 + self.jitter);
        let goodput_mbps = (base * jitter).max(0.1);
        let secs = remaining.as_u64() as f64 * 8.0 / (goodput_mbps * 1e6);
        let body = SimDuration::from_secs_f64(secs);

        let mut out = ChunkedTransfer {
            total_chunks,
            resumed_chunks: resume_from,
            delivered_chunks: resume_from,
            bytes_delivered: ByteSize::from_bytes(0),
            duration: self.setup_latency + body,
            goodput_mbps,
            congested_chunks: 0,
            outcome: ChunkedOutcome::Complete,
            chunks: Vec::new(),
        };

        // Connection setup; a drop during the handshake delivers nothing.
        let mut cursor = now + self.setup_latency;
        if let Some(e) = plan.link_drop_in(now, cursor) {
            out.duration = e.at - now;
            out.goodput_mbps = 0.0;
            out.outcome = ChunkedOutcome::LinkDropped { at: e.at };
            return out;
        }

        let n = total_chunks - resume_from;
        if n == 0 {
            return out;
        }
        // Integer split of the body time: every chunk gets `per`, the last
        // absorbs the remainder, so the fault-free sum is exactly `body`.
        let per = body.as_nanos() / n as u64;
        let rem = body.as_nanos() - per * n as u64;
        for i in 0..n {
            let base_d = SimDuration::from_nanos(if i == n - 1 { per + rem } else { per });
            let factor = plan.congestion_factor_at(cursor);
            let d = if factor > 1.0 {
                out.congested_chunks += 1;
                SimDuration::from_nanos((base_d.as_nanos() as f64 * factor) as u64)
            } else {
                base_d
            };
            if let Some(e) = plan.link_drop_in(cursor, cursor + d) {
                out.duration = e.at - now;
                out.goodput_mbps = derived_goodput(
                    out.bytes_delivered,
                    out.duration.saturating_sub(self.setup_latency),
                );
                out.outcome = ChunkedOutcome::LinkDropped { at: e.at };
                return out;
            }
            let sent = chunk.min(bytes.as_u64() - (resume_from as u64 + i as u64) * chunk);
            out.chunks.push(ChunkEvent {
                at: cursor,
                duration: d,
                bytes: ByteSize::from_bytes(sent),
                congested: factor > 1.0,
            });
            cursor += d;
            out.delivered_chunks += 1;
            out.bytes_delivered += ByteSize::from_bytes(sent);
        }
        out.duration = cursor - now;
        // Report what actually happened on the air: when congestion
        // stretched chunks the achieved goodput is lower than the jittered
        // nominal rate computed up front. Without faults the air time is
        // exactly `body`, so the nominal rate is kept bit-for-bit (chunking
        // must not change the legacy figures).
        if out.congested_chunks > 0 {
            out.goodput_mbps = derived_goodput(
                out.bytes_delivered,
                out.duration.saturating_sub(self.setup_latency),
            );
        }
        out
    }
}

/// Goodput in Mbit/s achieved by moving `bytes` over `air` time (transfer
/// duration minus connection setup). Zero when nothing moved.
fn derived_goodput(bytes: ByteSize, air: SimDuration) -> f64 {
    if air == SimDuration::ZERO || bytes.as_u64() == 0 {
        return 0.0;
    }
    bytes.as_u64() as f64 * 8.0 / (air.as_secs_f64() * 1e6)
}

/// How a chunked transfer attempt ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkedOutcome {
    /// Every remaining chunk was delivered and acknowledged.
    Complete,
    /// The link dropped mid-attempt; chunks acknowledged before `at` are
    /// safe, the rest must be re-sent by a later attempt.
    LinkDropped {
        /// When the link went down.
        at: SimTime,
    },
}

/// One delivered chunk of a chunked transfer, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkEvent {
    /// Virtual time the chunk started transmitting.
    pub at: SimTime,
    /// Air time of the chunk (including congestion stretch).
    pub duration: SimDuration,
    /// Payload bytes the chunk carried.
    pub bytes: ByteSize,
    /// Whether a congestion spike stretched this chunk.
    pub congested: bool,
}

/// Statistics of one chunked transfer attempt.
///
/// Two scopes of accounting coexist and are named accordingly:
///
/// * **cumulative** over the whole payload across attempts:
///   [`total_chunks`](Self::total_chunks),
///   [`delivered_chunks`](Self::delivered_chunks),
///   [`resumed_chunks`](Self::resumed_chunks);
/// * **per-attempt** (what *this* call put on the air):
///   [`bytes_delivered`](Self::bytes_delivered),
///   [`attempt_chunks`](Self::attempt_chunks), [`chunks`](Self::chunks),
///   [`duration`](Self::duration), [`goodput_mbps`](Self::goodput_mbps),
///   [`congested_chunks`](Self::congested_chunks).
///
/// Summing the per-attempt figures over the attempts of a resumed transfer
/// therefore reproduces the payload exactly once — nothing is double- or
/// under-reported. The `flux.net.*` counters accumulate the per-attempt
/// fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedTransfer {
    /// Chunks in the whole payload (cumulative scope).
    pub total_chunks: usize,
    /// Chunks already delivered by earlier attempts and skipped by this one
    /// (the `resume_from` argument, clamped to the payload).
    pub resumed_chunks: usize,
    /// Cumulative chunks delivered so far, *including* those resumed from
    /// earlier attempts. Pass this as `resume_from` to the next attempt.
    pub delivered_chunks: usize,
    /// Bytes this attempt put on the air (per-attempt scope; excludes
    /// resumed chunks).
    pub bytes_delivered: ByteSize,
    /// Virtual time this attempt consumed (setup + chunks, or time until
    /// the link dropped).
    pub duration: SimDuration,
    /// Goodput this attempt achieved in Mbit/s, derived from
    /// `bytes_delivered` over the air time (`duration` minus connection
    /// setup). Equals the jittered nominal rate when no fault stretched a
    /// chunk; 0.0 when nothing was delivered.
    pub goodput_mbps: f64,
    /// Chunks this attempt sent that congestion spikes slowed.
    pub congested_chunks: usize,
    /// How the attempt ended.
    pub outcome: ChunkedOutcome,
    /// Per-chunk delivery log, in transmission order, for telemetry
    /// (`net.chunk` instant events). Chunks resumed from earlier attempts
    /// and the chunk aborted by a link drop are not included.
    pub chunks: Vec<ChunkEvent>,
}

impl ChunkedTransfer {
    /// Whether every chunk of the payload has now been delivered.
    pub fn complete(&self) -> bool {
        matches!(self.outcome, ChunkedOutcome::Complete)
    }

    /// Chunks this attempt delivered (per-attempt scope): the cumulative
    /// count minus the resumed prefix. Always equals `chunks.len()`.
    pub fn attempt_chunks(&self) -> usize {
        self.delivered_chunks - self.resumed_chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n_dual() -> WifiAdapter {
        WifiAdapter {
            standard: WifiStandard::N,
            dual_band: true,
            link_mbps: 65.0,
        }
    }

    fn n_single() -> WifiAdapter {
        WifiAdapter {
            standard: WifiStandard::N,
            dual_band: false,
            link_mbps: 65.0,
        }
    }

    #[test]
    fn single_band_adapter_is_slower_on_campus() {
        let env = NetworkEnv::campus(1);
        assert!(env.endpoint_mbps(&n_single()) < env.endpoint_mbps(&n_dual()));
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let mut env = NetworkEnv::campus(1);
        let t1 = env.transfer(ByteSize::from_mib(1), &n_dual(), &n_dual());
        let t8 = env.transfer(ByteSize::from_mib(8), &n_dual(), &n_dual());
        assert!(t8.duration > t1.duration * 4);
    }

    #[test]
    fn pair_rate_is_min_of_endpoints() {
        let env = NetworkEnv::campus(1);
        let pair = env
            .endpoint_mbps(&n_dual())
            .min(env.endpoint_mbps(&n_single()));
        assert_eq!(pair, env.endpoint_mbps(&n_single()));
    }

    #[test]
    fn calibration_transfer_of_6mib_lands_in_paper_range() {
        // ~6 MB between dual-band devices should take a few seconds on the
        // congested campus network (the paper's migrations average 7.88 s
        // with transfer the majority).
        let mut env = NetworkEnv::campus(7);
        let t = env.transfer(ByteSize::from_mib(6), &n_dual(), &n_dual());
        let secs = t.duration.as_secs_f64();
        assert!((1.0..12.0).contains(&secs), "took {secs}s");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = NetworkEnv::campus(42);
        let mut b = NetworkEnv::campus(42);
        let ta = a.transfer(ByteSize::from_mib(3), &n_dual(), &n_single());
        let tb = b.transfer(ByteSize::from_mib(3), &n_dual(), &n_single());
        assert_eq!(ta.duration, tb.duration);
    }

    #[test]
    fn chunked_without_faults_matches_legacy_transfer_exactly() {
        let mut legacy = NetworkEnv::campus(42);
        let mut chunked = NetworkEnv::campus(42);
        let bytes = ByteSize::from_mib(6);
        let t = legacy.transfer(bytes, &n_dual(), &n_single());
        let c = chunked.transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_single(),
            0,
            &FaultPlan::none(),
        );
        assert_eq!(c.duration, t.duration);
        assert_eq!(c.goodput_mbps, t.goodput_mbps);
        assert!(c.complete());
        assert_eq!(c.delivered_chunks, c.total_chunks);
        assert_eq!(c.bytes_delivered, bytes);
        // The chunk log accounts for every byte and the whole body time.
        assert_eq!(c.chunks.len(), c.total_chunks);
        let logged: u64 = c.chunks.iter().map(|e| e.bytes.as_u64()).sum();
        assert_eq!(logged, bytes.as_u64());
        let air: SimDuration = c
            .chunks
            .iter()
            .map(|e| e.duration)
            .fold(SimDuration::ZERO, |acc, d| acc + d);
        assert_eq!(chunked.setup_latency + air, c.duration);
        // Both consumed exactly one jitter draw: the streams stay in step.
        let t2 = legacy.transfer(bytes, &n_dual(), &n_single());
        let c2 = chunked.transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_single(),
            0,
            &FaultPlan::none(),
        );
        assert_eq!(c2.duration, t2.duration);
    }

    #[test]
    fn resume_skips_delivered_chunks() {
        let mut env = NetworkEnv::campus(5);
        let bytes = ByteSize::from_mib(4);
        let full = env.transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            0,
            &FaultPlan::none(),
        );
        let mut env2 = NetworkEnv::campus(5);
        let resumed = env2.transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            full.total_chunks / 2,
            &FaultPlan::none(),
        );
        assert!(resumed.complete());
        assert!(resumed.duration < full.duration);
        assert!(resumed.bytes_delivered.as_u64() < bytes.as_u64());
        assert_eq!(resumed.delivered_chunks, full.total_chunks);
    }

    #[test]
    fn link_drop_aborts_with_partial_delivery() {
        use flux_simcore::{FaultEvent, FaultKind};
        let mut env = NetworkEnv::campus(9);
        let bytes = ByteSize::from_mib(8);
        // Find out how long the fault-free transfer takes, then schedule a
        // drop in the middle of it.
        let probe = NetworkEnv::campus(9).transfer(bytes, &n_dual(), &n_dual());
        let drop_at = SimTime::ZERO + SimDuration::from_nanos(probe.duration.as_nanos() / 2);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: drop_at,
            kind: FaultKind::LinkDrop,
            duration: SimDuration::ZERO,
            magnitude: 0.0,
        }]);
        let c = env.transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            0,
            &plan,
        );
        assert!(!c.complete());
        assert!(c.delivered_chunks > 0 && c.delivered_chunks < c.total_chunks);
        assert!(c.duration <= probe.duration);
        // A resumed attempt after the drop finishes the payload.
        let c2 = env.transfer_chunked(
            drop_at + SimDuration::from_secs(1),
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            c.delivered_chunks,
            &plan,
        );
        assert!(c2.complete());
        assert_eq!(c2.delivered_chunks, c.total_chunks);
    }

    #[test]
    fn congestion_spike_stretches_the_transfer() {
        use flux_simcore::{FaultEvent, FaultKind};
        let bytes = ByteSize::from_mib(6);
        let clean = NetworkEnv::campus(11).transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            0,
            &FaultPlan::none(),
        );
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::CongestionSpike,
            duration: clean.duration * 4,
            magnitude: 3.0,
        }]);
        let slow = NetworkEnv::campus(11).transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            0,
            &plan,
        );
        assert!(slow.complete());
        assert!(slow.congested_chunks > 0);
        assert!(slow.duration.as_secs_f64() > clean.duration.as_secs_f64() * 2.0);
    }

    #[test]
    fn congested_transfer_reports_achieved_goodput() {
        use flux_simcore::{FaultEvent, FaultKind};
        let bytes = ByteSize::from_mib(6);
        let clean = NetworkEnv::campus(11).transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            0,
            &FaultPlan::none(),
        );
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::CongestionSpike,
            duration: clean.duration * 4,
            magnitude: 3.0,
        }]);
        let mut env = NetworkEnv::campus(11);
        let slow = env.transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            0,
            &plan,
        );
        assert!(slow.congested_chunks > 0);
        // The reported goodput is what the air actually achieved, not the
        // pre-congestion nominal rate: bytes over the (stretched) air time.
        let air = slow.duration.saturating_sub(env.setup_latency);
        let derived = bytes.as_u64() as f64 * 8.0 / (air.as_secs_f64() * 1e6);
        assert!(
            (slow.goodput_mbps - derived).abs() < 1e-6,
            "reported {} but achieved {derived}",
            slow.goodput_mbps
        );
        // A 3x stretch must show up: well below the clean rate.
        assert!(
            slow.goodput_mbps < clean.goodput_mbps / 2.0,
            "congested goodput {} not below clean {}",
            slow.goodput_mbps,
            clean.goodput_mbps
        );
    }

    #[test]
    fn dropped_transfer_reports_partial_goodput() {
        use flux_simcore::{FaultEvent, FaultKind};
        let mut env = NetworkEnv::campus(9);
        let bytes = ByteSize::from_mib(8);
        let probe = NetworkEnv::campus(9).transfer(bytes, &n_dual(), &n_dual());
        let drop_at = SimTime::ZERO + SimDuration::from_nanos(probe.duration.as_nanos() / 2);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: drop_at,
            kind: FaultKind::LinkDrop,
            duration: SimDuration::ZERO,
            magnitude: 0.0,
        }]);
        let c = env.transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            0,
            &plan,
        );
        assert!(!c.complete());
        let air = c.duration.saturating_sub(env.setup_latency);
        let derived = c.bytes_delivered.as_u64() as f64 * 8.0 / (air.as_secs_f64() * 1e6);
        assert!(
            (c.goodput_mbps - derived).abs() < 1e-6,
            "reported {} but achieved {derived}",
            c.goodput_mbps
        );
        // A drop during the handshake achieves nothing.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::ZERO + SimDuration::from_millis(1),
            kind: FaultKind::LinkDrop,
            duration: SimDuration::ZERO,
            magnitude: 0.0,
        }]);
        let h = NetworkEnv::campus(9).transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            0,
            &plan,
        );
        assert_eq!(h.bytes_delivered, ByteSize::from_bytes(0));
        assert_eq!(h.goodput_mbps, 0.0);
    }

    #[test]
    fn resume_accounting_scopes_are_consistent() {
        use flux_simcore::{FaultEvent, FaultKind};
        let mut env = NetworkEnv::campus(9);
        let bytes = ByteSize::from_mib(8) + ByteSize::from_kib(37); // last chunk partial
        let probe = NetworkEnv::campus(9).transfer(bytes, &n_dual(), &n_dual());
        let drop_at = SimTime::ZERO + SimDuration::from_nanos(probe.duration.as_nanos() / 3);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: drop_at,
            kind: FaultKind::LinkDrop,
            duration: SimDuration::ZERO,
            magnitude: 0.0,
        }]);
        let first = env.transfer_chunked(
            SimTime::ZERO,
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            0,
            &plan,
        );
        assert!(!first.complete());
        assert_eq!(first.resumed_chunks, 0);
        assert_eq!(first.attempt_chunks(), first.chunks.len());
        let second = env.transfer_chunked(
            drop_at + SimDuration::from_secs(1),
            bytes,
            DEFAULT_CHUNK,
            &n_dual(),
            &n_dual(),
            first.delivered_chunks,
            &plan,
        );
        assert!(second.complete());
        // Cumulative scope: resumed prefix + this attempt = whole payload.
        assert_eq!(second.resumed_chunks, first.delivered_chunks);
        assert_eq!(second.delivered_chunks, second.total_chunks);
        assert_eq!(second.attempt_chunks(), second.chunks.len());
        // Per-attempt scope: the attempts partition the payload exactly.
        assert_eq!(
            first.attempt_chunks() + second.attempt_chunks(),
            second.total_chunks
        );
        assert_eq!(
            (first.bytes_delivered + second.bytes_delivered).as_u64(),
            bytes.as_u64()
        );
    }
}
