//! The class of a traced event. The event log itself is
//! `flux_telemetry::Telemetry::instants`, where every instant event
//! carries one of these kinds.

/// What class of event a trace entry records.
///
/// Figure-13-style accounting wants fault, retry and rollback time kept
/// apart from ordinary progress events, so harnesses can balance the books
/// (time charged = stage time + backoff + stall time) without parsing
/// detail strings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceKind {
    /// Ordinary progress event.
    #[default]
    Generic,
    /// An injected fault bit a running operation.
    Fault,
    /// A failed stage is being retried (backoff charged).
    Retry,
    /// A failed migration is being rolled back to the home device.
    Rollback,
}
