//! The transfer phase: APK/data verification sync + the chunked radio
//! transfer of the CRIA image — the stage that owns the engine's
//! interaction with [`flux_net`]'s chunked transfer and radio model.
//!
//! Under [`MigrationConfig::pipeline`](crate::MigrationConfig) the
//! compression deferred from the checkpoint stage overlaps the radio in a
//! [`FusedLanes`] window; the busy accounting then charges the air time
//! the radio actually occupied, with the hidden latency carried by
//! `overlap_saved`. Delivered chunks are staged on the guest so a faulted
//! attempt resumes instead of starting over.
//!
//! The serial transfer is *resumable*: the radio window is priced up
//! front by [`flux_net`], then drained slice by slice, each slice ending
//! at the first chunk boundary at or past the next armed interrupt (or
//! at the window's end when none is due). An undisturbed run drains the
//! whole window in one slice and is byte-identical to the old monolithic
//! stage. The fused pipeline window stays indivisible — compression and
//! radio are interleaved sub-chunk, so interrupts land at its edges.

use super::failure::StageFailure;
use super::{Stage, StageCtx, Yield};
use crate::migration::{MigrationStage, StageTimes};
use crate::pairing::verify_app;
use flux_net::{ChunkedOutcome, ChunkedTransfer, DEFAULT_CHUNK};
use flux_simcore::{ByteSize, FusedLanes, SimDuration, SimTime, TraceKind};
use flux_telemetry::{Detail, LaneId};

/// A serial radio window priced by [`flux_net`] and not yet fully
/// drained onto the virtual clock. Lives in
/// [`Progress`](super::ctx::Progress) between transfer slices.
pub(crate) struct InflightTransfer {
    /// The priced window: chunk schedule, totals, outcome.
    pub(crate) radio: ChunkedTransfer,
    /// When the stage entered (busy accounting baseline).
    pub(crate) t2: SimTime,
    /// Absolute end of the priced window.
    pub(crate) end: SimTime,
    /// How far the window has been drained (absolute).
    pub(crate) cursor: SimTime,
    /// First chunk not yet drained (index into `radio.chunks`).
    pub(crate) next_chunk: usize,
    /// Bytes already handed to the slice log in earlier slices.
    pub(crate) bytes_recorded: ByteSize,
}

/// The transfer stage (verification sync + chunked radio transfer).
pub struct Transfer;

impl Stage for Transfer {
    fn name(&self) -> &'static str {
        "transfer"
    }

    fn lane(&self, cx: &StageCtx<'_>) -> LaneId {
        let _ = cx;
        LaneId::WORLD
    }

    fn pending(&self, cx: &StageCtx<'_>) -> bool {
        !cx.prog.transfer_done
    }

    fn anchor(&self) -> Option<MigrationStage> {
        Some(MigrationStage::Transfer)
    }

    fn times_slot<'t>(&self, times: &'t mut StageTimes) -> Option<&'t mut SimDuration> {
        Some(&mut times.transfer)
    }

    fn run(&self, cx: &mut StageCtx<'_>) -> Result<Yield, StageFailure> {
        if let Some(inflight) = cx.prog.transfer_inflight.take() {
            return drain_window(cx, inflight);
        }
        let package = cx.mig.package.as_str();
        let t2 = cx.world.clock.now();
        // The verification sync is naturally resumable: files delivered by
        // an earlier attempt classify as up-to-date and ship zero bytes.
        let verify = verify_app(cx.world, cx.mig.home, cx.mig.guest, package)?;
        cx.prog.data_delta += verify.bytes_shipped;
        let ledger = cx.prog.ledger();
        let verify_done = cx.world.clock.now();
        if cx.mig.cfg.pipeline {
            // Fused window: the compression deferred from the checkpoint
            // stage proceeds on the CPU lane while chunks already go on
            // the air; the radio starts once the first chunk exists.
            // (Deferred compression is not stall-checked — the watchdog
            // guards the dump, which stays in the checkpoint stage.)
            let compress = cx.prog.compress_pending;
            let chunk_count = ledger
                .total()
                .as_u64()
                .div_ceil(DEFAULT_CHUNK.as_u64())
                .max(1);
            let mut fused = FusedLanes::begin(verify_done, compress, chunk_count);
            let radio_start = fused.radio_ready();
            let radio = cx.world.net.transfer_chunked(
                radio_start,
                ledger.total(),
                DEFAULT_CHUNK,
                &cx.mig.home_profile.wifi,
                &cx.mig.guest_profile.wifi,
                cx.prog.delivered_chunks,
                cx.plan,
            );
            fused.run_radio(radio.duration);
            cx.world.clock.advance_to(fused.end());
            cx.prog
                .log
                .radio(radio_start, radio.duration, radio.bytes_delivered);
            if compress > SimDuration::ZERO {
                // The deferred compression stays in the checkpoint stage's
                // busy accounting, where the serial engine charges it.
                let (c_start, c_end) = fused.cpu_window();
                cx.world.telemetry.record_complete(
                    cx.mig.home_lane,
                    "criu.compress",
                    c_start,
                    c_end,
                );
                cx.prog.times.checkpoint += compress;
                cx.prog.compress_pending = SimDuration::ZERO;
            }
            cx.prog.times.overlap_saved += fused.overlap_saved();
            cx.prog.delivered_chunks = radio.delivered_chunks;
            emit_chunk_instants(cx, &radio.chunks);
            let busy = verify_done.since(t2) + radio.duration;
            settle_window(cx, radio, busy)
        } else {
            let radio = cx.world.net.transfer_chunked(
                verify_done,
                ledger.total(),
                DEFAULT_CHUNK,
                &cx.mig.home_profile.wifi,
                &cx.mig.guest_profile.wifi,
                cx.prog.delivered_chunks,
                cx.plan,
            );
            let end = verify_done + radio.duration;
            cx.prog.transfer_inflight = Some(InflightTransfer {
                radio,
                t2,
                end,
                cursor: verify_done,
                next_chunk: 0,
                bytes_recorded: ByteSize::ZERO,
            });
            Ok(Yield::Progress)
        }
    }

    /// Removes the staged chunk prefix; an aborted migration must leave no
    /// image residue on the guest. (The image *cache* deliberately
    /// survives — it is content-addressed, not migration state.)
    fn rollback(&self, cx: &mut StageCtx<'_>) -> Result<(), StageFailure> {
        let dev = cx
            .world
            .device_mut(cx.mig.guest)
            .map_err(|e| StageFailure::RollbackFailed {
                reason: e.to_string(),
            })?;
        let _ = dev.fs.remove(&cx.mig.staged_path);
        cx.prog.delivered_chunks = 0;
        cx.prog.transfer_inflight = None;
        Ok(())
    }
}

/// Drains one slice of the priced serial window: up to the first chunk
/// boundary at or past the next armed interrupt, or to the window's end
/// when none is due before it.
fn drain_window(cx: &mut StageCtx<'_>, mut infl: InflightTransfer) -> Result<Yield, StageFailure> {
    let target = match cx.interrupts.next_before(infl.end) {
        Some(due) => infl.radio.chunks[infl.next_chunk..]
            .iter()
            .map(|c| c.at + c.duration)
            .find(|&chunk_end| chunk_end >= due)
            .unwrap_or(infl.end),
        None => infl.end,
    };
    cx.world.clock.advance_to(target);
    let first = infl.next_chunk;
    while infl.next_chunk < infl.radio.chunks.len() {
        let c = &infl.radio.chunks[infl.next_chunk];
        if c.at + c.duration > target {
            break;
        }
        infl.next_chunk += 1;
    }
    // The last slice absorbs any byte rounding so the logged radio windows
    // sum exactly to the priced window's delivered bytes.
    let seg_bytes = if target == infl.end {
        ByteSize::from_bytes(infl.radio.bytes_delivered.as_u64() - infl.bytes_recorded.as_u64())
    } else {
        ByteSize::from_bytes(
            infl.radio.chunks[first..infl.next_chunk]
                .iter()
                .map(|c| c.bytes.as_u64())
                .sum(),
        )
    };
    cx.prog
        .log
        .radio(infl.cursor, target.since(infl.cursor), seg_bytes);
    cx.prog.delivered_chunks = if target == infl.end {
        infl.radio.delivered_chunks
    } else {
        infl.radio.resumed_chunks + infl.next_chunk
    };
    emit_chunk_instants(cx, &infl.radio.chunks[first..infl.next_chunk]);
    if target < infl.end {
        // Stage what the guest acknowledged so far: this is exactly the
        // torn prefix a kill in this window leaves behind for rollback.
        cx.stage_chunks()?;
        infl.cursor = target;
        infl.bytes_recorded =
            ByteSize::from_bytes(infl.bytes_recorded.as_u64() + seg_bytes.as_u64());
        cx.prog.transfer_inflight = Some(infl);
        return Ok(Yield::Progress);
    }
    let InflightTransfer { radio, t2, .. } = infl;
    let busy = cx.world.clock.now() - t2;
    settle_window(cx, radio, busy)
}

/// Emits the per-chunk trace instants (shared by the serial drain and the
/// fused pipeline window).
fn emit_chunk_instants(cx: &mut StageCtx<'_>, chunks: &[flux_net::ChunkEvent]) {
    for chunk in chunks {
        cx.world.telemetry.instant(
            LaneId::WORLD,
            TraceKind::Generic,
            "net.chunk",
            chunk.at,
            Detail::Chunk {
                bytes: chunk.bytes,
                duration: chunk.duration,
                congested: chunk.congested,
            },
        );
    }
}

/// The end-of-window bookkeeping every transfer attempt runs once its
/// radio window has fully drained: per-attempt counters, congestion
/// faults, chunk staging, busy accounting and the outcome.
fn settle_window(
    cx: &mut StageCtx<'_>,
    radio: ChunkedTransfer,
    busy: SimDuration,
) -> Result<Yield, StageFailure> {
    // The flux.net.* counters accumulate per-attempt figures, so over a
    // resumed transfer they sum to the payload exactly once.
    cx.world
        .telemetry
        .counter_add("flux.net.bytes_transferred", radio.bytes_delivered.as_u64());
    cx.world
        .telemetry
        .counter_add("flux.net.chunks_delivered", radio.attempt_chunks() as u64);
    if radio.resumed_chunks > 0 {
        cx.world
            .telemetry
            .counter_add("flux.net.chunks_resumed", radio.resumed_chunks as u64);
    }
    cx.world
        .telemetry
        .counter_add("flux.net.chunks_congested", radio.congested_chunks as u64);
    cx.world
        .telemetry
        .gauge_set("flux.net.goodput_mbps", radio.goodput_mbps);
    // Each congested chunk is one fault event that hit this migration.
    cx.prog.faults += radio.congested_chunks as u32;
    if radio.congested_chunks > 0 {
        cx.world.telemetry.emit_kind(
            cx.world.clock.now(),
            TraceKind::Fault,
            "net.fault",
            format!(
                "congestion stretched {} of the {} chunks sent this attempt",
                radio.congested_chunks,
                radio.attempt_chunks()
            ),
        );
    }
    // Stage what the guest acknowledged so a retry resumes instead of
    // starting over.
    cx.stage_chunks()?;
    // Busy accounting: under the pipeline, the air time the radio
    // occupied rather than the fused window's wall span — the hidden
    // part is what `overlap_saved` carries.
    cx.prog.busy_override = Some(busy);
    match radio.outcome {
        ChunkedOutcome::Complete => {
            cx.prog.transfer_done = true;
            // Chunks the cache lacked are now on the guest: remember
            // them for the next migration of this package.
            cx.insert_cache_misses()?;
            Ok(Yield::Done)
        }
        ChunkedOutcome::LinkDropped { at } => Err(StageFailure::FaultAborted {
            stage: MigrationStage::Transfer,
            attempts: 0,
            detail: format!(
                "link dropped at {at} with {}/{} chunks delivered",
                radio.delivered_chunks, radio.total_chunks
            ),
        }),
    }
}
