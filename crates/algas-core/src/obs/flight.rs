//! The per-query flight recorder: always-on slot event tracing with
//! tail-sampled slow-query capture.
//!
//! The aggregate layer ([`super::recorder`]) can show *that* p99
//! regressed; this module shows *why one query* was slow. Every slot
//! owns a fixed-capacity ring of timestamped [`TraceEvent`]s — the
//! steps *inside* a query: per-CTA search steps, the beam-extend
//! localization→diffusing switch, the rerank pass, SLO controller
//! decisions — written lock-free and allocation-free, overwriting the
//! oldest events like an aircraft flight recorder. The lifecycle edges
//! are not ring events: the query's [`QueryRecord`] carries their
//! stamps, and a retained trace takes its ids, worker and lifecycle
//! from that record, so none of them can be overwritten.
//!
//! On query completion the runtime *tail-samples*: the full timeline is
//! lifted out of the ring only for queries slower than
//! [`FlightConfig::slow_threshold_ns`], for the top-K slowest seen so
//! far, and for an optional 1-in-N sample. The fast-path rejection is a
//! handful of relaxed loads; the capture itself (allocating a
//! [`QueryTrace`]) runs only for retained queries.
//!
//! **Why the ring is safe without locks:** each slot belongs to one
//! worker, which writes every event of its query and performs the
//! capture at delivery. A ring therefore has a single writer, and the
//! capture reads it on that same thread.
//!
//! With the `obs` feature compiled out, [`FlightRecorder`] is a
//! zero-sized no-op; the data model ([`TraceEvent`], [`QueryTrace`],
//! [`FlightConfig`]) stays available so the CLI and the Chrome-trace
//! exporter compile unchanged.

use super::json::{obj, Value};
use super::qlog::QueryRecord;

/// Most cells one event or query-log ring may hold (64 Ki). Larger
/// configured capacities are clamped here; `--trace-ring` above it is
/// a CLI error.
pub const MAX_RING_CAPACITY: usize = 1 << 16;

/// Cells a ring configured for `capacity` allocates: rounded up to a
/// power of two and clamped to `8..=MAX_RING_CAPACITY`.
pub(crate) fn ring_cells(capacity: usize) -> usize {
    capacity.clamp(8, MAX_RING_CAPACITY).next_power_of_two()
}

/// What happened at one [`TraceEvent`] (one unit of progress inside a
/// query; the lifecycle edges live in its [`QueryRecord`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// One CTA search step (`lane` = CTA, `a` = distances evaluated,
    /// `b` = synthesized duration in ns).
    CtaStep = 4,
    /// The beam-extend localization→diffusing switch fired (`lane` =
    /// CTA, `a` = step index of the switch).
    BeamSwitch = 5,
    /// The SQ8 exact-rerank pass ran (`lane` = worker, `a` =
    /// candidates, `b` = promotions).
    RerankPass = 6,
    /// The SLO controller changed or confirmed the effort level at a
    /// tick triggered by this query's completion (`lane` = worker, `a`
    /// = new effort level, `b` = [`crate::control::ControlReason`] as
    /// `u8`).
    ControlAdjust = 11,
}

impl EventKind {
    /// The kind's wire/track name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CtaStep => "cta_step",
            EventKind::BeamSwitch => "beam_switch",
            EventKind::RerankPass => "rerank_pass",
            EventKind::ControlAdjust => "control_adjust",
        }
    }

    /// Decodes a ring cell's kind byte (`None` for never-written cells).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            4 => EventKind::CtaStep,
            5 => EventKind::BeamSwitch,
            6 => EventKind::RerankPass,
            11 => EventKind::ControlAdjust,
            _ => return None,
        })
    }
}

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch (server start).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Which lane it happened on — worker or CTA index, depending on
    /// [`EventKind`].
    pub lane: u32,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u32,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u32,
}

/// One retained query timeline: the query's record plus every ring
/// event that survived overwriting.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// The completed query's record: ids, worker and lifecycle stamps.
    pub record: QueryRecord,
    /// Ring events that were overwritten before capture (0 when the
    /// ring was deep enough for the whole query).
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// End-to-end latency of the traced query.
    pub fn e2e_ns(&self) -> u64 {
        self.record.e2e_ns()
    }

    /// The trace as a JSON value (the `/traces` wire form). The worker
    /// carries the query end to end, so it is also the `slot` and the
    /// `host`, and the merge begins at `finish`.
    pub fn to_json_value(&self) -> Value {
        let r = &self.record;
        let worker = Value::Uint(u64::from(r.worker));
        obj(vec![
            ("tag", Value::Uint(r.tag)),
            ("request_id", Value::Uint(r.request_id)),
            ("conn", Value::Uint(r.conn_id)),
            ("slot", worker.clone()),
            ("worker", worker.clone()),
            ("host", worker),
            ("e2e_ns", Value::Uint(self.e2e_ns())),
            ("dropped", Value::Uint(self.dropped)),
            (
                "lifecycle_ns",
                obj(vec![
                    ("submitted", Value::Uint(r.submitted_ns)),
                    ("slot", Value::Uint(r.slot_ns)),
                    ("work_start", Value::Uint(r.work_start_ns)),
                    ("finish", Value::Uint(r.finish_ns)),
                    ("merge_begin", Value::Uint(r.finish_ns)),
                    ("merged", Value::Uint(r.merged_ns)),
                    ("delivered", Value::Uint(r.delivered_ns)),
                ]),
            ),
            (
                "events",
                Value::Arr(
                    self.events
                        .iter()
                        .map(|e| {
                            obj(vec![
                                ("ts_ns", Value::Uint(e.ts_ns)),
                                ("kind", Value::Str(e.kind.name().to_string())),
                                ("lane", Value::Uint(u64::from(e.lane))),
                                ("a", Value::Uint(u64::from(e.a))),
                                ("b", Value::Uint(u64::from(e.b))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Renders retained traces as the `/traces` endpoint's JSON document.
pub fn traces_json(traces: &[QueryTrace]) -> String {
    obj(vec![("traces", Value::Arr(traces.iter().map(QueryTrace::to_json_value).collect()))])
        .render()
}

/// Flight-recorder shape and tail-sampling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightConfig {
    /// Events kept per slot before the oldest are overwritten (rounded
    /// up to a power of two, clamped to 8..=[`MAX_RING_CAPACITY`]).
    pub ring_capacity: usize,
    /// Queries at least this slow (end-to-end ns) are always retained.
    /// `u64::MAX` (the default) disables the threshold.
    pub slow_threshold_ns: u64,
    /// Reservoir of the K slowest queries seen so far (0 disables).
    pub top_k: usize,
    /// Retain every Nth completion regardless of latency (0 disables).
    pub sample_every: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self { ring_capacity: 1024, slow_threshold_ns: u64::MAX, top_k: 8, sample_every: 0 }
    }
}

/// Flight-recorder totals for the serving snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightTotals {
    /// Completions the tail-sampler examined.
    pub completions: u64,
    /// Events written across all slot rings (including overwritten).
    pub events: u64,
    /// Distinct query traces currently retained.
    pub retained: u64,
}

#[cfg(feature = "obs")]
pub use enabled::FlightRecorder;

#[cfg(not(feature = "obs"))]
pub use disabled::FlightRecorder;

#[cfg(feature = "obs")]
mod enabled {
    use super::{ring_cells, EventKind, FlightConfig, FlightTotals, QueryTrace, TraceEvent};
    use crate::obs::counters::CachePadded;
    use crate::obs::qlog::QueryRecord;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    /// Retained slow queries kept outside the top-K reservoir.
    const SLOW_CAP: usize = 64;
    /// Retained probabilistic samples.
    const SAMPLE_CAP: usize = 64;

    /// One ring cell: three words written with relaxed stores by the
    /// slot's one worker (see the module docs). `w1 == 0` means never
    /// written.
    #[derive(Default)]
    struct EventCell {
        /// Timestamp, ns since epoch.
        w0: AtomicU64,
        /// `kind << 32 | lane`.
        w1: AtomicU64,
        /// `a << 32 | b`.
        w2: AtomicU64,
    }

    struct SlotRing {
        cells: Box<[EventCell]>,
        /// Monotone write cursor (never wraps; cell index is
        /// `cursor & mask`).
        cursor: AtomicU64,
        /// Cursor position when the slot's current query began —
        /// capture reads `[max(mark, cursor - capacity), cursor)`.
        mark: AtomicU64,
    }

    /// Buckets of retained traces. A trace can qualify for more than
    /// one bucket; [`FlightRecorder::retained`] deduplicates by tag.
    #[derive(Default)]
    struct Retained {
        /// Over-threshold queries (replace-slowest-out when full).
        slow: Vec<QueryTrace>,
        /// The K slowest queries seen so far.
        top: Vec<QueryTrace>,
        /// 1-in-N samples (FIFO when full).
        sampled: Vec<QueryTrace>,
    }

    /// The per-slot event rings plus the tail-sampling state.
    pub struct FlightRecorder {
        epoch: Instant,
        cfg: FlightConfig,
        mask: u64,
        rings: Vec<CachePadded<SlotRing>>,
        completions: AtomicU64,
        /// Cached minimum end-to-end latency of the top-K bucket: the
        /// lock-free fast-path filter. 0 while the bucket is filling
        /// (accept everything), `u64::MAX` when `top_k == 0`.
        top_min: AtomicU64,
        retained: Mutex<Retained>,
    }

    impl FlightRecorder {
        /// Allocates the rings (startup only; recording never
        /// allocates).
        pub fn new(n_slots: usize, cfg: FlightConfig) -> Self {
            let capacity = ring_cells(cfg.ring_capacity);
            let rings = (0..n_slots)
                .map(|_| {
                    CachePadded(SlotRing {
                        cells: (0..capacity).map(|_| EventCell::default()).collect(),
                        cursor: AtomicU64::new(0),
                        mark: AtomicU64::new(0),
                    })
                })
                .collect();
            Self {
                epoch: Instant::now(),
                cfg,
                mask: capacity as u64 - 1,
                rings,
                completions: AtomicU64::new(0),
                top_min: AtomicU64::new(if cfg.top_k == 0 { u64::MAX } else { 0 }),
                retained: Mutex::new(Retained::default()),
            }
        }

        /// The active configuration.
        pub fn config(&self) -> FlightConfig {
            self.cfg
        }

        /// `stamp` as nanoseconds since the recorder's epoch.
        #[inline]
        pub fn ns_of(&self, stamp: Instant) -> u64 {
            stamp.saturating_duration_since(self.epoch).as_nanos() as u64
        }

        /// Nanoseconds since the recorder's epoch, now.
        #[inline]
        pub fn now_ns(&self) -> u64 {
            self.ns_of(Instant::now())
        }

        /// Marks the start of a new query on `slot`: events older than
        /// this point belong to the previous occupant and are excluded
        /// from capture.
        #[inline]
        pub fn begin_query(&self, slot: usize) {
            let ring = &self.rings[slot];
            ring.mark.store(ring.cursor.load(Ordering::Relaxed), Ordering::Relaxed);
        }

        /// Writes one event into `slot`'s ring: a cursor bump plus
        /// three relaxed stores, overwriting the oldest cell when full.
        /// Never allocates, never blocks.
        #[inline]
        pub fn record(&self, slot: usize, kind: EventKind, lane: u32, a: u32, b: u32, ts_ns: u64) {
            let ring = &self.rings[slot];
            let i = ring.cursor.load(Ordering::Relaxed);
            ring.cursor.store(i + 1, Ordering::Relaxed);
            let cell = &ring.cells[(i & self.mask) as usize];
            cell.w0.store(ts_ns, Ordering::Relaxed);
            cell.w1.store(u64::from(kind as u8) << 32 | u64::from(lane), Ordering::Relaxed);
            cell.w2.store(u64::from(a) << 32 | u64::from(b), Ordering::Relaxed);
        }

        /// Tail-samples one completed query. The fast path (query not
        /// retained) is a few relaxed atomic ops and never allocates;
        /// capturing a retained trace allocates its [`QueryTrace`]
        /// (acceptable: retention is rare by construction).
        pub fn on_complete(&self, record: &QueryRecord) {
            let n = self.completions.fetch_add(1, Ordering::Relaxed) + 1;
            let e2e = record.e2e_ns();
            let slow = e2e >= self.cfg.slow_threshold_ns;
            let sampled = self.cfg.sample_every > 0 && n.is_multiple_of(self.cfg.sample_every);
            // `>=` lets ties through; the cold path re-checks with `>`
            // under the lock, so this stays a conservative filter.
            let top = self.cfg.top_k > 0 && e2e >= self.top_min.load(Ordering::Relaxed);
            if !(slow || sampled || top) {
                return;
            }
            let trace = self.capture(record);
            let mut r = self.retained.lock();
            if top {
                if r.top.len() < self.cfg.top_k {
                    r.top.push(trace.clone());
                } else if let Some(min_idx) = min_e2e_index(&r.top) {
                    if e2e > r.top[min_idx].e2e_ns() {
                        r.top[min_idx] = trace.clone();
                    }
                }
                if r.top.len() >= self.cfg.top_k {
                    let new_min = r.top.iter().map(QueryTrace::e2e_ns).min().unwrap_or(u64::MAX);
                    self.top_min.store(new_min, Ordering::Relaxed);
                }
            }
            if slow {
                if r.slow.len() < SLOW_CAP {
                    r.slow.push(trace.clone());
                } else if let Some(min_idx) = min_e2e_index(&r.slow) {
                    if e2e > r.slow[min_idx].e2e_ns() {
                        r.slow[min_idx] = trace.clone();
                    }
                }
            }
            if sampled {
                if r.sampled.len() >= SAMPLE_CAP {
                    r.sampled.remove(0);
                }
                r.sampled.push(trace);
            }
        }

        /// Drains the ring of the slot that served `record` (its
        /// worker's) into an owned trace (cold path).
        fn capture(&self, record: &QueryRecord) -> QueryTrace {
            let ring = &self.rings[record.worker as usize];
            let hi = ring.cursor.load(Ordering::Relaxed);
            let mark = ring.mark.load(Ordering::Relaxed);
            let capacity = self.mask + 1;
            let lo = mark.max(hi.saturating_sub(capacity));
            let mut events = Vec::with_capacity((hi - lo) as usize);
            for i in lo..hi {
                let cell = &ring.cells[(i & self.mask) as usize];
                let w1 = cell.w1.load(Ordering::Relaxed);
                let Some(kind) = EventKind::from_u8((w1 >> 32) as u8) else { continue };
                events.push(TraceEvent {
                    ts_ns: cell.w0.load(Ordering::Relaxed),
                    kind,
                    lane: w1 as u32,
                    a: (cell.w2.load(Ordering::Relaxed) >> 32) as u32,
                    b: cell.w2.load(Ordering::Relaxed) as u32,
                });
            }
            QueryTrace { record: *record, dropped: lo - mark, events }
        }

        /// The retained traces, deduplicated across buckets (by tag)
        /// and sorted slowest-first.
        pub fn retained(&self) -> Vec<QueryTrace> {
            let r = self.retained.lock();
            let mut out: Vec<QueryTrace> = Vec::new();
            for t in r.slow.iter().chain(r.top.iter()).chain(r.sampled.iter()) {
                if !out.iter().any(|seen| seen.record.tag == t.record.tag) {
                    out.push(t.clone());
                }
            }
            out.sort_by(|a, b| b.e2e_ns().cmp(&a.e2e_ns()).then(a.record.tag.cmp(&b.record.tag)));
            out
        }

        /// Recorder totals for the serving snapshot.
        pub fn totals(&self) -> FlightTotals {
            FlightTotals {
                completions: self.completions.load(Ordering::Relaxed),
                events: self.rings.iter().map(|r| r.cursor.load(Ordering::Relaxed)).sum(),
                retained: self.retained().len() as u64,
            }
        }
    }

    fn min_e2e_index(traces: &[QueryTrace]) -> Option<usize> {
        traces.iter().enumerate().min_by_key(|(_, t)| t.e2e_ns()).map(|(i, _)| i)
    }
}

#[cfg(not(feature = "obs"))]
mod disabled {
    use super::FlightConfig;

    /// Zero-sized no-op stand-in for the flight recorder.
    pub struct FlightRecorder;

    impl FlightRecorder {
        /// No-op.
        pub fn new(_n_slots: usize, _cfg: FlightConfig) -> Self {
            Self
        }
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    /// A completed query served by `worker`, `e2e` ns end to end.
    fn record(tag: u64, worker: u32, e2e: u64) -> QueryRecord {
        QueryRecord {
            tag,
            request_id: tag,
            submitted_ns: 100,
            slot_ns: 110,
            work_start_ns: 120,
            finish_ns: 100 + e2e - 20,
            merged_ns: 100 + e2e - 10,
            delivered_ns: 100 + e2e,
            worker,
            ..QueryRecord::default()
        }
    }

    fn capture_all() -> FlightConfig {
        FlightConfig { ring_capacity: 64, slow_threshold_ns: 0, top_k: 0, sample_every: 0 }
    }

    #[test]
    fn ring_captures_events_in_order() {
        let fr = FlightRecorder::new(2, capture_all());
        fr.begin_query(1);
        fr.record(1, EventKind::CtaStep, 0, 32, 10, 125);
        fr.record(1, EventKind::BeamSwitch, 0, 1, 0, 135);
        fr.record(1, EventKind::CtaStep, 0, 40, 10, 135);
        fr.record(1, EventKind::RerankPass, 1, 16, 2, 140);
        fr.on_complete(&record(42, 1, 60));
        let traces = fr.retained();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!((t.record.tag, t.record.worker, t.dropped), (42, 1, 0));
        let kinds: Vec<EventKind> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::CtaStep, EventKind::BeamSwitch, EventKind::CtaStep, EventKind::RerankPass]
        );
        assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let cfg = FlightConfig { ring_capacity: 8, ..capture_all() };
        let fr = FlightRecorder::new(1, cfg);
        fr.begin_query(0);
        for i in 0..20u32 {
            fr.record(0, EventKind::CtaStep, 0, i, 0, u64::from(i));
        }
        fr.on_complete(&record(7, 0, 50));
        let t = &fr.retained()[0];
        assert_eq!(t.events.len(), 8, "ring keeps exactly its capacity");
        assert_eq!(t.dropped, 12, "overwritten events are counted");
        // The survivors are the newest 8, in order.
        let kept: Vec<u32> = t.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, (12..20).collect::<Vec<u32>>());
    }

    #[test]
    fn ring_capacity_is_capped() {
        assert_eq!(ring_cells(0), 8);
        assert_eq!(ring_cells(100), 128);
        assert_eq!(ring_cells(usize::MAX), MAX_RING_CAPACITY);
        assert_eq!(ring_cells(1 << 40), MAX_RING_CAPACITY);
        // A huge configured ring allocates the cap, not the request.
        let fr =
            FlightRecorder::new(1, FlightConfig { ring_capacity: usize::MAX, ..capture_all() });
        fr.begin_query(0);
        fr.record(0, EventKind::CtaStep, 0, 1, 0, 1);
        fr.on_complete(&record(1, 0, 50));
        assert_eq!(fr.retained()[0].events.len(), 1);
    }

    #[test]
    fn begin_query_isolates_previous_occupant() {
        let fr = FlightRecorder::new(1, capture_all());
        fr.begin_query(0);
        fr.record(0, EventKind::CtaStep, 0, 9, 0, 10);
        fr.on_complete(&record(1, 0, 30));
        fr.begin_query(0);
        fr.record(0, EventKind::CtaStep, 0, 5, 0, 50);
        fr.on_complete(&record(2, 0, 40));
        let traces = fr.retained();
        let second = traces.iter().find(|t| t.record.tag == 2).unwrap();
        assert_eq!(second.events.len(), 1, "previous query's events excluded");
        assert_eq!(second.events[0].a, 5);
    }

    #[test]
    fn threshold_rejects_fast_queries() {
        let cfg =
            FlightConfig { ring_capacity: 16, slow_threshold_ns: 1_000, top_k: 0, sample_every: 0 };
        let fr = FlightRecorder::new(1, cfg);
        fr.begin_query(0);
        fr.on_complete(&record(1, 0, 999));
        assert!(fr.retained().is_empty(), "fast query must not be retained");
        fr.begin_query(0);
        fr.on_complete(&record(2, 0, 1_000));
        assert_eq!(fr.retained().len(), 1);
        assert_eq!(fr.retained()[0].record.tag, 2);
    }

    #[test]
    fn top_k_keeps_the_slowest() {
        let cfg = FlightConfig {
            ring_capacity: 16,
            slow_threshold_ns: u64::MAX,
            top_k: 2,
            sample_every: 0,
        };
        let fr = FlightRecorder::new(1, cfg);
        for (tag, e2e) in [(1u64, 500u64), (2, 300), (3, 800), (4, 100), (5, 600)] {
            fr.begin_query(0);
            fr.on_complete(&record(tag, 0, e2e));
        }
        let tags: Vec<u64> = fr.retained().iter().map(|t| t.record.tag).collect();
        assert_eq!(tags, vec![3, 5], "slowest two, slowest first");
    }

    #[test]
    fn sample_every_n_retains_every_nth() {
        let cfg = FlightConfig {
            ring_capacity: 16,
            slow_threshold_ns: u64::MAX,
            top_k: 0,
            sample_every: 3,
        };
        let fr = FlightRecorder::new(1, cfg);
        for tag in 1..=9u64 {
            fr.begin_query(0);
            fr.on_complete(&record(tag, 0, 50));
        }
        let mut tags: Vec<u64> = fr.retained().iter().map(|t| t.record.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![3, 6, 9]);
        assert_eq!(fr.totals().completions, 9);
        assert_eq!(fr.totals().retained, 3);
    }

    #[test]
    fn retained_dedups_across_buckets() {
        // A query both over-threshold and in the top-K appears once.
        let cfg =
            FlightConfig { ring_capacity: 16, slow_threshold_ns: 10, top_k: 4, sample_every: 1 };
        let fr = FlightRecorder::new(1, cfg);
        fr.begin_query(0);
        fr.on_complete(&record(77, 0, 999));
        assert_eq!(fr.retained().len(), 1);
        assert_eq!(fr.totals().retained, 1);
    }

    #[test]
    fn trace_json_carries_the_timeline() {
        let fr = FlightRecorder::new(2, capture_all());
        fr.begin_query(1);
        fr.record(1, EventKind::BeamSwitch, 2, 14, 0, 130);
        let r = QueryRecord { request_id: 9_001, conn_id: 3, ..record(5, 1, 60) };
        fr.on_complete(&r);
        let text = traces_json(&fr.retained());
        let doc = Value::parse(&text).unwrap();
        let t = &doc.get("traces").unwrap().as_arr().unwrap()[0];
        assert_eq!(t.get("tag").unwrap().as_u64(), Some(5));
        assert_eq!(t.get("request_id").unwrap().as_u64(), Some(9_001));
        assert_eq!(t.get("conn").unwrap().as_u64(), Some(3));
        for key in ["slot", "worker", "host"] {
            assert_eq!(t.get(key).unwrap().as_u64(), Some(1), "{key} names the worker");
        }
        assert_eq!(t.get("e2e_ns").unwrap().as_u64(), Some(60));
        let lc = t.get("lifecycle_ns").unwrap();
        assert_eq!(lc.get("merge_begin").unwrap().as_u64(), lc.get("finish").unwrap().as_u64());
        assert_eq!(lc.get("delivered").unwrap().as_u64(), Some(160));
        let events = t.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1, "lifecycle edges are not repeated as events");
        let ev = &events[0];
        assert_eq!(ev.get("kind").unwrap().as_str(), Some("beam_switch"));
        assert_eq!(ev.get("lane").unwrap().as_u64(), Some(2));
        assert_eq!(ev.get("a").unwrap().as_u64(), Some(14));
    }

    #[test]
    fn event_kind_roundtrips() {
        let mut kinds = 0;
        for v in 0..=255u8 {
            if let Some(k) = EventKind::from_u8(v) {
                assert_eq!(k as u8, v);
                assert!(!k.name().is_empty());
                kinds += 1;
            }
        }
        assert_eq!(kinds, 4, "only intra-query step kinds remain");
        assert!(EventKind::from_u8(0).is_none());
        assert_eq!(EventKind::from_u8(11), Some(EventKind::ControlAdjust));
        assert!(EventKind::from_u8(12).is_none());
    }
}
