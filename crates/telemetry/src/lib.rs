//! Service-level telemetry instruments for the overlay simulations.
//!
//! The resilience paper argues that connection resilience `κ(D)` is a
//! *proxy* for the service the overlay delivers: whether lookups still
//! succeed and stored data stays reachable. This crate provides the
//! measurement side of that argument — dependency-free streaming
//! instruments that the protocol layer feeds and the experiment harness
//! reads:
//!
//! * [`histogram::LogHistogram`] — a log-bucketed histogram with exact
//!   counts for small values, percentile queries, and a lossless
//!   [`histogram::LogHistogram::merge`] for windowed rollups.
//! * [`trace`] — per-lookup trace records ([`trace::LookupRecord`]: target,
//!   purpose, hops, messages, simulated latency, outcome) and the
//!   [`trace::TelemetrySink`] hook the simulator emits them through. The
//!   default is a no-op ([`trace::NoopSink`]); simulations that do not
//!   install a sink pay one `Option` discriminant check per lookup.
//! * [`timeseries::MinuteSeries`] — windowed aggregation keyed by simulated
//!   minute.
//! * [`recorder::Recorder`] — schema-checked CSV emission: column names
//!   declared once, every row typed and arity-checked against them, so the
//!   header and the rows of an experiment's output can never drift apart.
//! * [`span`] — the observability side's wall-clock instrument: a
//!   hierarchical span profiler ([`span::SpanTimer`] guards aggregating
//!   into a [`span::SpanProfile`] keyed by static label paths, self/total
//!   time) that costs one thread-local `Option` check
//!   when no profile is installed.
//! * [`journal`] — a structured event journal whose FNV-1a hash chain
//!   fingerprints the per-minute event sequence of a run
//!   ([`journal::MinuteSeal`] → `audit-chain.csv` → `repro audit`), with
//!   per-kind event counts beside it.
//! * [`tracetree`] — full simulated-time trace trees behind the flat
//!   records: per-RPC spans with causal parents
//!   ([`tracetree::RpcSpan`]), critical-path extraction whose
//!   rtt/timeout/queue attribution provably sums to the end-to-end
//!   latency ([`tracetree::TraceTree::critical_path`]), and the
//!   deterministic p99 exemplar reservoir
//!   ([`tracetree::ExemplarReservoir`]).
//!
//! The crate is dependency-free (std only) on purpose: the instruments sit
//! on the lookup hot path, and keeping them self-contained makes the
//! overhead measurable (kadbench's `kad_telemetry.*` metrics) and the
//! arithmetic auditable in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod journal;
pub mod recorder;
pub mod span;
pub mod timeseries;
pub mod trace;
pub mod tracetree;

pub use histogram::LogHistogram;
pub use journal::{Journal, JournalEvent, MinuteSeal};
pub use recorder::{Cell, Recorder};
pub use span::{SpanProfile, SpanStats, SpanTimer};
pub use timeseries::{MinuteSeries, WindowStats};
pub use trace::{
    DefenseAction, FanoutSink, LookupOutcome, LookupRecord, NoopSink, TelemetrySink, TracePurpose,
    VecSink,
};
pub use tracetree::{
    Attribution, CriticalPath, ExemplarReservoir, RpcSpan, SpanOutcome, TraceTree,
};
