//! Serving-path observability: lock-free metrics, latency histograms,
//! query lifecycle spans, and a stats exposition surface.
//!
//! The module splits into an always-compiled reporting layer and a
//! feature-gated recording layer:
//!
//! * [`counters`] / [`hist`] — the primitives: cache-padded relaxed
//!   counters and log-linear (HDR-style) latency histograms, both
//!   lock-free and allocation-free to record.
//! * [`snapshot`] — [`RuntimeStats`], the point-in-time schema shared
//!   by the threaded runtime and the timing simulators. One table row
//!   per metric drives its JSON serializer and parser and its
//!   Prometheus text rendering.
//! * [`recorder`] — the hot-path instrumentation ([`RuntimeObs`]).
//!   Behind the default-on `obs` feature: compiled out, it becomes a
//!   zero-sized no-op and no clock is read, so the serving loop
//!   carries zero instrumentation cost while every call site stays
//!   `#[cfg]`-free.
//! * [`flight`] — the per-query layer: an always-on, lock-free
//!   per-slot ring of the steps inside a query, with tail-sampled
//!   slow-query retention ([`FlightRecorder`], [`QueryTrace`]).
//! * [`chrome`] — Chrome trace-event JSON export of retained traces
//!   (viewable in Perfetto) plus the validator CI runs on emitted
//!   files.
//! * [`qlog`] — the per-query record ([`QueryRecord`]) every
//!   per-query surface reads, and the wide-event query log
//!   ([`QueryLog`]) that writes it allocation-free into a lock-free
//!   ring and drains it as JSON lines.
//! * [`prof`] — the thread-state sampling profiler: runtime threads
//!   publish a one-word state marker, a 97 Hz sampler accumulates the
//!   (thread, state) attribution table, exported as folded-stack text
//!   (`/profile`, `algas profile`) and a JSON block.
//! * [`window`] — rotating windowed aggregation: a ring of periodic
//!   histogram snapshots whose deltas give moving p50/p99, rates, and
//!   the SLO burn-rate health behind `/healthz` + `/readyz`.
//! * [`http`] — a dependency-free `std::net` stats server exposing
//!   `/metrics`, `/stats.json`, `/traces`, `/query-log`, `/profile`,
//!   and health/readiness probes from a live server.
//! * [`json`] / [`prom`] — the self-contained wire formats (the
//!   hermetic workspace has no `serde_json`).

pub mod chrome;
pub mod counters;
pub mod flight;
pub mod hist;
pub mod http;
pub mod json;
pub mod prof;
pub mod prom;
pub mod qlog;
pub mod recorder;
pub mod snapshot;
pub mod window;

pub use chrome::{chrome_trace_json, validate_chrome_trace, ChromeSummary};
pub use counters::{CachePadded, Counter};
pub use flight::{
    traces_json, EventKind, FlightConfig, FlightRecorder, FlightTotals, QueryTrace, TraceEvent,
    MAX_RING_CAPACITY,
};
pub use hist::{Histogram, HistogramSnapshot};
pub use http::{StatsServer, StatsSource};
pub use prof::{
    ProfHandle, ProfRegistry, ProfState, ProfStateCount, ProfStats, ProfThreadStats,
    SharedProfRegistry, ThreadKind,
};
pub use qlog::{QlogConfig, QlogTotals, QueryLog, QueryRecord};
pub use recorder::{ObsTickConfig, RuntimeObs, OBS_ENABLED};
pub use snapshot::{HostStats, PhaseStats, RuntimeStats, SlotStats, TailExemplar, WorkerStats};
pub use window::{WindowBlock, WindowRing, WindowStats};
