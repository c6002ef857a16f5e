//! Low-overhead tracing and timing substrate for the nrl workspace.
//!
//! The engine crates can *count* (cache hits, recovery engine routing,
//! reduce chunks, admission buckets) but counting attributes no time.
//! This crate is the missing time axis, built so the instrumented
//! crates can leave their probes compiled in behind the `obs-trace`
//! cargo feature while the *disabled* runtime path stays one relaxed
//! atomic load — the same discipline `fault-inject` set for faults and
//! the PR 6 token poll set for cancellation checks.
//!
//! Pieces:
//!
//! * [`Clock`] / [`now_ns`] — a process-monotonic nanosecond clock
//!   (one `Instant` epoch per process, so timestamps from different
//!   threads share an axis).
//! * [`TraceId`] / [`SpanId`] — cheap atomic id allocators. A
//!   `TraceId` follows one request across threads (caller → pool
//!   workers); a `SpanId` names one emitted span.
//! * [`EventRing`] — a per-thread, fixed-capacity, lock-free ring of
//!   completed [`Event`]s. Single producer (the owning thread),
//!   drained from any thread; when full it **drops oldest**,
//!   advancing the read cursor by CAS and counting the loss in
//!   [`EventRing::dropped`]. No allocation ever happens on the push
//!   path.
//! * [`Hist`] / [`SharedHist`] — log2-bucketed latency histograms
//!   (fixed `[u64; 64]`): record/merge/percentile/render, plus an
//!   atomic variant whose `snapshot()` feeds always-on service
//!   metrics.
//! * [`span`] / [`span_traced`] / [`emit`] — the recording API.
//!   `span` returns a drop-guard that emits one event on scope exit;
//!   `emit` records an interval measured elsewhere (e.g. a queue wait
//!   whose endpoints live on two threads).
//! * [`TraceSession`] / [`Trace`] — enable recording, run work, then
//!   drain every registered ring into a [`Trace`] and export it as
//!   chrome://tracing "trace event" JSON (`Trace::to_chrome_json`),
//!   loadable in Perfetto: one pid per pool, one tid per worker.
//!
//! See `docs/OBSERVABILITY.md` for the span taxonomy and the
//! ring/drain lifecycle.

#![warn(missing_docs)]

mod clock;
mod hist;
mod ring;
mod trace;

pub use clock::{now_ns, Clock};
pub use hist::{Hist, SharedHist};
pub use ring::{Event, EventRing};
pub use trace::{
    drain, emit, next_pool_id, set_thread_meta, span, span_traced, Span, SpanId, Trace,
    TraceConfig, TraceEvent, TraceId, TraceSession, DEFAULT_RING_CAPACITY,
};
