//! The hot-path recorder behind the `obs` feature flag.
//!
//! [`RuntimeObs`] owns the live metric cells the serving threads write:
//! one cache-padded counter block per worker (each worker's counters
//! live on their own cache lines, so relaxed increments never contend)
//! and the six shared phase histograms. A worker fills one
//! [`QueryRecord`](crate::obs::qlog::QueryRecord) as it serves a query
//! and hands it over once, to [`RuntimeObs::record_delivery`], which
//! feeds the histograms, the tail exemplar, the flight recorder's tail
//! sampler and the query log from it.
//!
//! With the (default-on) `obs` feature disabled [`RuntimeObs`] compiles
//! to a zero-sized no-op whose clock reads return 0 without touching
//! the clock, so the serving loop keeps identical shape with zero
//! instrumentation cost — call sites never need `#[cfg]`.

#[cfg(feature = "obs")]
pub use enabled::RuntimeObs;

#[cfg(not(feature = "obs"))]
pub use disabled::RuntimeObs;

/// Whether the `obs` recording layer is compiled in. A runtime `bool`
/// so call sites can skip spawning obs-only threads without `#[cfg]`.
pub const OBS_ENABLED: bool = cfg!(feature = "obs");

/// Configuration of the background obs tick thread — the single timer
/// driving both the [`prof`](crate::obs::prof) sampler and the
/// [`window`](crate::obs::window) ring rotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsTickConfig {
    /// Profiler sampling frequency (passes/second). 0 disables
    /// sampling; window rotation still runs.
    pub prof_hz: u32,
    /// Window ring rotation period (ms).
    pub window_period_ms: u64,
    /// Window ring capacity (snapshots retained); 64 × 1s covers the
    /// 60s window with headroom.
    pub window_slots: usize,
}

impl Default for ObsTickConfig {
    fn default() -> Self {
        Self { prof_hz: 97, window_period_ms: 1_000, window_slots: 64 }
    }
}

#[cfg(feature = "obs")]
mod enabled {
    use crate::engine::RerankStats;
    use crate::merge::MergeStats;
    use crate::obs::counters::{CachePadded, Counter};
    use crate::obs::flight::{EventKind, FlightConfig, FlightRecorder, FlightTotals, QueryTrace};
    use crate::obs::hist::Histogram;
    use crate::obs::prof::{ProfRegistry, ProfState, SharedProfRegistry, ThreadKind};
    use crate::obs::qlog::{QlogConfig, QlogTotals, QueryLog, QueryRecord, STATUS_REJECTED};
    use crate::obs::snapshot::{HostStats, RuntimeStats, SlotStats, TailExemplar, WorkerStats};
    use crate::obs::window::{WindowBlock, WindowRing};
    use crate::tracer::StepTotals;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use super::ObsTickConfig;

    /// Deliveries between tail-exemplar resets: the exemplar tracks the
    /// slowest end-to-end latency (and its request id) within the
    /// current window, so it stays recent instead of pinning the
    /// all-time maximum forever.
    const EXEMPLAR_WINDOW: u64 = 4096;

    /// One worker's counters. The worker owns its slot and delivers its
    /// own results, so the per-worker, per-host and per-slot snapshot
    /// blocks of index `w` are all read from this one block.
    #[derive(Default)]
    struct WorkerCells {
        queries: Counter,
        busy_passes: Counter,
        idle_passes: Counter,
        // Search totals land in the owning worker's block so the hot
        // path never shares a cache line with another thread.
        steps: Counter,
        expansions: Counter,
        dist_evals: Counter,
        sorts: Counter,
        calc_cycles: Counter,
        sort_cycles: Counter,
        other_cycles: Counter,
        // SQ8 exact-rerank phase totals (zero on fp32 engines).
        reranks: Counter,
        rerank_candidates: Counter,
        rerank_promotions: Counter,
        // Entry quality: summed best entry distance (milli-units, so
        // the counter stays integral) over this worker's queries.
        entry_dist_milli: Counter,
        // Slot protocol edges and the merges behind the deliveries.
        assigned: Counter,
        delivered: Counter,
        merges: Counter,
        merge_elements: Counter,
        merge_dupes: Counter,
    }

    /// The live metric cells of one running server.
    pub struct RuntimeObs {
        workers: Vec<CachePadded<WorkerCells>>,
        /// The phase histograms in [`QueryRecord::phase_ns`] order: the
        /// five spans, then end to end.
        phases: [Histogram; 6],
        flight: FlightRecorder,
        qlog: QueryLog,
        /// Deliveries since startup (drives the exemplar window reset).
        exemplar_count: AtomicU64,
        /// Slowest end-to-end latency in the current exemplar window.
        exemplar_e2e_ns: AtomicU64,
        /// Wire request id of that slowest delivery.
        exemplar_request_id: AtomicU64,
        /// Thread-state marker registry + sample table.
        prof: Arc<ProfRegistry>,
        /// Rotating ring of periodic histogram snapshots.
        window: WindowRing,
        tick: ObsTickConfig,
    }

    impl RuntimeObs {
        /// Allocates the cells for `n_workers` workers (startup only;
        /// recording never allocates) under the flight-recorder,
        /// query-log and obs-tick (profiler Hz, window period/capacity)
        /// policies.
        pub fn new(
            n_workers: usize,
            flight_cfg: FlightConfig,
            qlog_cfg: QlogConfig,
            tick: ObsTickConfig,
        ) -> Self {
            let obs = Self {
                workers: (0..n_workers).map(|_| CachePadded::default()).collect(),
                phases: std::array::from_fn(|_| Histogram::new()),
                flight: FlightRecorder::new(n_workers, flight_cfg),
                qlog: QueryLog::new(qlog_cfg),
                exemplar_count: AtomicU64::new(0),
                exemplar_e2e_ns: AtomicU64::new(0),
                exemplar_request_id: AtomicU64::new(0),
                prof: Arc::new(ProfRegistry::new(tick.prof_hz)),
                window: WindowRing::new(tick.window_period_ms, tick.window_slots),
                tick,
            };
            // Baseline snapshot at construction (synchronous, so it
            // deterministically precedes all queries): the first
            // periodic rotation then forms a window covering startup
            // activity — work finishing before the first rotation
            // would otherwise be invisible to every window.
            obs.rotate_window();
            obs
        }
        /// The thread-state marker registry, for threads that want to
        /// [`register`](ProfRegistry::register) and stamp.
        pub fn prof_registry(&self) -> SharedProfRegistry {
            Arc::clone(&self.prof)
        }

        /// Blocking folded-stack delta capture over `seconds` (the
        /// `/profile` endpoint's worker).
        pub fn prof_capture(&self, seconds: f64) -> String {
            self.prof.capture(seconds)
        }

        /// The windowed view of the end-to-end histogram against
        /// `slo_ns` (0 = no SLO armed).
        pub fn window_stats(&self, slo_ns: u64) -> WindowBlock {
            self.window.stats(slo_ns)
        }

        /// Rotates the window ring once off the live histograms
        /// (normally the tick thread's job; public for tests and
        /// simulators that drive time themselves).
        pub fn rotate_window(&self) {
            let [submit_to_slot, .., end_to_end] = &self.phases;
            self.window.rotate(end_to_end, submit_to_slot.count());
        }

        /// The obs tick thread body: drives the profiler sampler at
        /// `prof_hz` and rotates the window ring every
        /// `window_period_ms` until `shutdown` flips. Spawn gated on
        /// [`OBS_ENABLED`](super::OBS_ENABLED); with `obs` off this is
        /// a no-op.
        pub fn run_ticker(&self, shutdown: &AtomicBool) {
            let handle = self.prof.register(ThreadKind::Sampler, "obs-tick");
            handle.stamp(ProfState::Idle);
            // The period stays short even with sampling off so shutdown
            // joins promptly; rotation cadence is kept by tick count.
            let period = if self.tick.prof_hz == 0 {
                Duration::from_millis(self.tick.window_period_ms.clamp(1, 250))
            } else {
                Duration::from_secs_f64(1.0 / f64::from(self.tick.prof_hz))
            };
            let ticks_per_rotation = if self.tick.prof_hz == 0 {
                (self.tick.window_period_ms / (period.as_millis() as u64).max(1)).max(1)
            } else {
                (u64::from(self.tick.prof_hz) * self.tick.window_period_ms / 1_000).max(1)
            };
            let mut n: u64 = 0;
            // Absolute-deadline schedule: each iteration sleeps until
            // the next deadline rather than for a fixed duration, so
            // sample/rotation work time doesn't stretch real window
            // periods past window_period_ms (which would overstate
            // rate_qps against the nominal span_ms).
            let mut next = Instant::now() + period;
            while !shutdown.load(Ordering::Acquire) {
                if self.tick.prof_hz > 0 {
                    self.prof.sample_once();
                }
                n += 1;
                if n.is_multiple_of(ticks_per_rotation) {
                    self.rotate_window();
                }
                let now = Instant::now();
                if let Some(wait) = next.checked_duration_since(now).filter(|w| !w.is_zero()) {
                    std::thread::sleep(wait);
                } else {
                    // Fell behind a full period: resynchronize from now
                    // instead of bursting ticks to catch up.
                    next = now;
                }
                next += period;
            }
            handle.stamp(ProfState::Shutdown);
        }

        /// The retained (tail-sampled) flight-recorder traces,
        /// slowest-first.
        pub fn flight_retained(&self) -> Vec<QueryTrace> {
            self.flight.retained()
        }

        /// Flight-recorder totals.
        pub fn flight_totals(&self) -> FlightTotals {
            self.flight.totals()
        }

        /// The active flight-recorder configuration.
        pub fn flight_config(&self) -> FlightConfig {
            self.flight.config()
        }

        /// Drains ring records into the query-log retention buffer
        /// (off the serving path); returns how many were drained.
        pub fn qlog_drain(&self) -> usize {
            self.qlog.drain()
        }

        /// The retained query-log lines, oldest first. Drains the ring
        /// first so the view is current.
        pub fn qlog_lines(&self) -> Vec<String> {
            self.qlog.drain();
            self.qlog.lines()
        }

        /// Retained query-log lines past `cursor`, plus the new cursor
        /// (the file-writer thread's tailing interface). Drains the
        /// ring first so the view is current.
        pub fn qlog_lines_since(&self, cursor: u64) -> (Vec<String>, u64) {
            self.qlog.drain();
            self.qlog.lines_since(cursor)
        }

        /// Query-log totals.
        pub fn qlog_totals(&self) -> QlogTotals {
            self.qlog.totals()
        }

        /// The active query-log configuration.
        pub fn qlog_config(&self) -> QlogConfig {
            self.qlog.config()
        }

        /// Logs a backpressure reject as a wide-event record (rejects
        /// always log, regardless of sampling). Allocation-free.
        #[inline]
        pub fn qlog_reject(&self, request_id: u64, conn_id: u64) {
            self.qlog.log(&QueryRecord {
                request_id,
                conn_id,
                status: STATUS_REJECTED,
                ..QueryRecord::default()
            });
        }

        /// Writes one flight-recorder event into worker `s`'s slot ring,
        /// stamped now. Allocation-free.
        #[inline]
        pub fn flight_record(&self, s: usize, kind: EventKind, lane: u32, a: u32, b: u32) {
            self.flight.record(s, kind, lane, a, b, self.flight.now_ns());
        }

        /// Accounts one worker poll pass.
        #[inline]
        pub fn worker_pass(&self, w: usize, did_work: bool) {
            let cells = &self.workers[w];
            if did_work {
                cells.busy_passes.incr();
            } else {
                cells.idle_passes.incr();
            }
        }

        /// Nanoseconds since the recorder's epoch, now: the clock every
        /// [`QueryRecord`] stamp is read from.
        #[inline]
        pub fn now_ns(&self) -> u64 {
            self.flight.now_ns()
        }

        /// `t` as nanoseconds since the recorder's epoch.
        #[inline]
        pub fn ns_of(&self, t: Instant) -> u64 {
            self.flight.ns_of(t)
        }

        /// Worker `w` claims its slot for a new query: counts the
        /// assignment, opens the slot's flight-recorder window, and
        /// returns the slot stamp.
        #[inline]
        pub fn begin_query(&self, w: usize) -> u64 {
            self.workers[w].assigned.incr();
            self.flight.begin_query(w);
            self.now_ns()
        }

        /// Accounts one completed search on worker `w` (step and
        /// rerank totals, entry quality) and writes its flight-recorder
        /// events: per-CTA `cta_step` spans (simulated step costs
        /// scaled onto the record's measured `work_start → finish`
        /// span), `beam_switch` markers and an optional `rerank_pass`.
        /// The totals are read out of `multi` here, not at the call
        /// site, so a disabled build skips the aggregation entirely.
        /// Allocation-free.
        pub fn record_search(
            &self,
            w: usize,
            multi: &crate::search::multi::MultiScratch,
            rerank_delta: &RerankStats,
            record: &QueryRecord,
        ) {
            self.record_search_totals(w, &multi.step_totals(), rerank_delta);
            if let Some(d) = multi.entry_distance() {
                // Milli-unit fixed point keeps the cell a plain counter.
                self.workers[w].entry_dist_milli.add((f64::from(d) * 1e3) as u64);
            }
            let start_ns = record.work_start_ns;
            let span_ns = record.finish_ns.saturating_sub(start_ns);
            for c in 0..multi.n_active() {
                let switch = multi.diffusing_switch_step(c);
                for (i, (off, dur, step)) in multi.trace(c).scaled_spans(span_ns).enumerate() {
                    let ts = start_ns + off;
                    if switch == Some(i as u32) {
                        self.flight.record(w, EventKind::BeamSwitch, c as u32, i as u32, 0, ts);
                    }
                    self.flight.record(
                        w,
                        EventKind::CtaStep,
                        c as u32,
                        step.dist_evals,
                        dur.min(u64::from(u32::MAX)) as u32,
                        ts,
                    );
                }
            }
            if rerank_delta.reranks > 0 {
                self.flight.record(
                    w,
                    EventKind::RerankPass,
                    w as u32,
                    rerank_delta.candidates.min(u64::from(u32::MAX)) as u32,
                    rerank_delta.promotions.min(u64::from(u32::MAX)) as u32,
                    record.finish_ns,
                );
            }
        }

        /// The counter half of [`RuntimeObs::record_search`], with
        /// pre-aggregated totals.
        #[inline]
        pub fn record_search_totals(&self, w: usize, totals: &StepTotals, rerank: &RerankStats) {
            let cells = &self.workers[w];
            cells.queries.incr();
            cells.steps.add(totals.steps);
            cells.expansions.add(totals.expansions);
            cells.dist_evals.add(totals.dist_evals);
            cells.sorts.add(totals.sorts);
            cells.calc_cycles.add(totals.calc_cycles);
            cells.sort_cycles.add(totals.sort_cycles);
            cells.other_cycles.add(totals.other_cycles);
            cells.reranks.add(rerank.reranks);
            cells.rerank_candidates.add(rerank.candidates);
            cells.rerank_promotions.add(rerank.promotions);
        }

        /// Accounts one delivered query from its completed record:
        /// bumps the worker's delivery and merge counters, records the
        /// six phase spans, hands the query to the flight recorder's
        /// tail sampler, writes its query-log record, and updates the
        /// tail exemplar. Allocation-free unless the tail sampler
        /// retains the query.
        #[inline]
        pub fn record_delivery(&self, record: &QueryRecord, merge_delta: &MergeStats) {
            let cells = &self.workers[record.worker as usize];
            cells.delivered.incr();
            cells.merges.add(merge_delta.merges);
            cells.merge_elements.add(merge_delta.elements);
            cells.merge_dupes.add(merge_delta.dupes_dropped);
            for (h, ns) in self.phases.iter().zip(record.phase_ns()) {
                h.record(ns);
            }
            self.flight.on_complete(record);
            self.qlog.log(record);

            let e2e_ns = record.e2e_ns();
            let n = self.exemplar_count.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(EXEMPLAR_WINDOW) {
                self.exemplar_e2e_ns.store(0, Ordering::Relaxed);
            }
            // Racy max-update pair (both relaxed): an exemplar only has
            // to point at *a* recent slow request, not *the* slowest.
            if e2e_ns > self.exemplar_e2e_ns.load(Ordering::Relaxed) {
                self.exemplar_e2e_ns.store(e2e_ns, Ordering::Relaxed);
                self.exemplar_request_id.store(record.request_id, Ordering::Relaxed);
            }
        }

        /// Copies every cell into `out`: the per-worker block fills the
        /// per-worker, per-host and per-slot breakdowns of the same
        /// index (host passes stay 0: no host poll loop exists), plus
        /// the phase histograms and the cross-worker search, rerank and
        /// merge totals. Counter fields of `out` that the recorder
        /// doesn't own (queue totals, gauges) are left untouched.
        pub fn populate(&self, out: &mut RuntimeStats) {
            out.per_worker = self
                .workers
                .iter()
                .map(|c| WorkerStats {
                    queries: c.queries.get(),
                    busy_passes: c.busy_passes.get(),
                    idle_passes: c.idle_passes.get(),
                })
                .collect();
            out.per_host = self
                .workers
                .iter()
                .map(|c| HostStats {
                    delivered: c.delivered.get(),
                    refills: c.assigned.get(),
                    ..HostStats::default()
                })
                .collect();
            out.per_slot = self
                .workers
                .iter()
                .map(|c| SlotStats {
                    assigned: c.assigned.get(),
                    finished: c.queries.get(),
                    delivered: c.delivered.get(),
                })
                .collect();
            out.search = StepTotals::default();
            out.rerank = RerankStats::default();
            out.merge = MergeStats::default();
            for c in &self.workers {
                out.search.merge(&StepTotals {
                    steps: c.steps.get(),
                    expansions: c.expansions.get(),
                    dist_evals: c.dist_evals.get(),
                    sorts: c.sorts.get(),
                    calc_cycles: c.calc_cycles.get(),
                    sort_cycles: c.sort_cycles.get(),
                    other_cycles: c.other_cycles.get(),
                });
                out.rerank.merge(&RerankStats {
                    reranks: c.reranks.get(),
                    candidates: c.rerank_candidates.get(),
                    promotions: c.rerank_promotions.get(),
                });
                out.merge.merge(&MergeStats {
                    merges: c.merges.get(),
                    elements: c.merge_elements.get(),
                    dupes_dropped: c.merge_dupes.get(),
                });
            }
            out.entry_dist_milli_total =
                self.workers.iter().map(|c| c.entry_dist_milli.get()).sum();
            for ((_, snap), h) in out.phases.named_mut().into_iter().zip(&self.phases) {
                *snap = h.snapshot();
            }
            out.flight = self.flight.totals();
            out.qlog = self.qlog.totals();
            out.exemplar = TailExemplar {
                e2e_ns: self.exemplar_e2e_ns.load(Ordering::Relaxed),
                request_id: self.exemplar_request_id.load(Ordering::Relaxed),
            };
            out.prof = self.prof.table();
        }
    }
}

#[cfg(not(feature = "obs"))]
mod disabled {
    use crate::engine::RerankStats;
    use crate::merge::MergeStats;
    use crate::obs::flight::{EventKind, FlightConfig, FlightTotals, QueryTrace};
    use crate::obs::prof::{ProfRegistry, SharedProfRegistry};
    use crate::obs::qlog::{QlogConfig, QlogTotals, QueryRecord};
    use crate::obs::snapshot::RuntimeStats;
    use crate::obs::window::WindowBlock;
    use crate::tracer::StepTotals;
    use std::time::Instant;

    use super::ObsTickConfig;

    /// Zero-sized no-op stand-in for the live metric cells.
    pub struct RuntimeObs;

    impl RuntimeObs {
        /// No-op.
        pub fn new(
            _n_workers: usize,
            _flight_cfg: FlightConfig,
            _qlog_cfg: QlogConfig,
            _tick: ObsTickConfig,
        ) -> Self {
            Self
        }

        /// The zero-sized registry stand-in (stamps are no-ops).
        pub fn prof_registry(&self) -> SharedProfRegistry {
            ProfRegistry
        }

        /// Always empty.
        pub fn prof_capture(&self, _seconds: f64) -> String {
            String::new()
        }

        /// Always the empty block.
        pub fn window_stats(&self, _slo_ns: u64) -> WindowBlock {
            WindowBlock::default()
        }

        /// No-op.
        pub fn rotate_window(&self) {}

        /// Returns immediately: there is nothing to sample or rotate.
        pub fn run_ticker(&self, _shutdown: &std::sync::atomic::AtomicBool) {}

        /// No-op: nothing is ever retained.
        pub fn flight_retained(&self) -> Vec<QueryTrace> {
            Vec::new()
        }

        /// No-op: all-zero totals.
        pub fn flight_totals(&self) -> FlightTotals {
            FlightTotals::default()
        }

        /// No-op: the default configuration.
        pub fn flight_config(&self) -> FlightConfig {
            FlightConfig::default()
        }

        /// No-op; nothing to drain.
        pub fn qlog_drain(&self) -> usize {
            0
        }

        /// Always empty.
        pub fn qlog_lines(&self) -> Vec<String> {
            Vec::new()
        }

        /// Always empty.
        pub fn qlog_lines_since(&self, _cursor: u64) -> (Vec<String>, u64) {
            (Vec::new(), 0)
        }

        /// Always zero.
        pub fn qlog_totals(&self) -> QlogTotals {
            QlogTotals::default()
        }

        /// No-op: the default configuration.
        pub fn qlog_config(&self) -> QlogConfig {
            QlogConfig::default()
        }

        /// No-op.
        #[inline]
        pub fn qlog_reject(&self, _request_id: u64, _conn_id: u64) {}

        /// No-op.
        #[inline]
        pub fn flight_record(&self, _s: usize, _kind: EventKind, _lane: u32, _a: u32, _b: u32) {}

        /// No-op.
        #[inline]
        pub fn worker_pass(&self, _w: usize, _did_work: bool) {}

        /// Always 0: no clock is read.
        #[inline]
        pub fn now_ns(&self) -> u64 {
            0
        }

        /// Always 0.
        #[inline]
        pub fn ns_of(&self, _t: Instant) -> u64 {
            0
        }

        /// Always 0: no clock is read.
        #[inline]
        pub fn begin_query(&self, _w: usize) -> u64 {
            0
        }

        /// No-op.
        #[inline]
        pub fn record_search(
            &self,
            _w: usize,
            _multi: &crate::search::multi::MultiScratch,
            _rerank_delta: &RerankStats,
            _record: &QueryRecord,
        ) {
        }

        /// No-op.
        #[inline]
        pub fn record_search_totals(&self, _w: usize, _totals: &StepTotals, _rerank: &RerankStats) {
        }

        /// No-op.
        #[inline]
        pub fn record_delivery(&self, _record: &QueryRecord, _merge_delta: &MergeStats) {}

        /// No-op: the snapshot keeps its zeroed breakdowns.
        pub fn populate(&self, _out: &mut RuntimeStats) {}
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use crate::merge::MergeStats;
    use crate::obs::flight::{EventKind, FlightConfig};
    use crate::obs::qlog::{QlogConfig, QueryRecord};
    use crate::obs::snapshot::{HostStats, RuntimeStats, SlotStats};
    use crate::tracer::StepTotals;

    /// Stamps the phase boundaries after `slot_ns` in order, as the
    /// worker does.
    fn finish_stamps(obs: &RuntimeObs, rec: &mut QueryRecord) {
        rec.finish_ns = obs.now_ns();
        rec.merged_ns = obs.now_ns();
        rec.delivered_ns = obs.now_ns();
    }

    fn assert_monotone(rec: &QueryRecord) {
        let stamps = [
            rec.submitted_ns,
            rec.slot_ns,
            rec.work_start_ns,
            rec.finish_ns,
            rec.merged_ns,
            rec.delivered_ns,
        ];
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "stamps decrease: {stamps:?}");
    }

    #[test]
    fn recorder_populates_snapshot() {
        use crate::obs::json::Value;
        let qcfg = QlogConfig { enabled: true, sample_every: 1, ..QlogConfig::default() };
        let obs = RuntimeObs::new(2, FlightConfig::default(), qcfg, ObsTickConfig::default());
        let mut rec = QueryRecord {
            tag: 7,
            request_id: 907,
            conn_id: 2,
            worker: 1,
            hops: 10,
            slo_level: 1,
            rerank_depth: 32,
            entry_code: 1,
            ..QueryRecord::default()
        };
        rec.submitted_ns = obs.now_ns();
        rec.slot_ns = obs.begin_query(1);
        obs.worker_pass(1, true);
        obs.worker_pass(0, false);
        rec.work_start_ns = obs.now_ns();
        let totals = StepTotals {
            steps: 10,
            expansions: 12,
            dist_evals: 200,
            sorts: 10,
            calc_cycles: 900,
            sort_cycles: 80,
            other_cycles: 20,
        };
        let rerank = crate::engine::RerankStats { reranks: 1, candidates: 20, promotions: 3 };
        obs.record_search_totals(1, &totals, &rerank);
        finish_stamps(&obs, &mut rec);
        let delta = MergeStats { merges: 1, elements: 16, dupes_dropped: 2 };
        obs.record_delivery(&rec, &delta);

        let mut s = RuntimeStats::empty(2, 2, 2);
        obs.populate(&mut s);
        assert_eq!(s.per_worker[1].queries, 1);
        assert_eq!(s.per_worker[1].busy_passes, 1);
        assert_eq!(s.per_worker[0].idle_passes, 1);
        // One block per worker fills all three breakdowns of its index.
        assert_eq!(s.per_host[1], HostStats { delivered: 1, refills: 1, ..HostStats::default() });
        assert_eq!(s.per_slot[1], SlotStats { assigned: 1, finished: 1, delivered: 1 });
        assert_eq!((s.per_host[0], s.per_slot[0]), Default::default());
        assert_eq!(s.search, totals);
        assert_eq!(s.rerank, rerank);
        assert_eq!(s.merge, delta);
        for (name, h) in s.phases.named() {
            assert_eq!(h.count, 1, "phase {name} should hold one sample");
        }
        let spans: u64 = s.phases.named()[..5].iter().map(|(_, h)| h.sum).sum();
        assert_eq!(spans, s.phases.end_to_end.sum, "the five spans partition end to end");
        assert_eq!(s.flight.completions, 1);
        assert_eq!(s.flight.events, 0, "lifecycle edges are not ring events");
        assert_eq!(s.qlog.logged, 1);
        assert_eq!(s.exemplar.request_id, 907, "exemplar points at the slowest request");
        assert_eq!(s.exemplar.e2e_ns, rec.e2e_ns());

        // The query-log line renders the same record.
        assert_eq!(obs.qlog_drain(), 1);
        let lines = obs.qlog_lines();
        let doc = Value::parse(&lines[0]).expect("query-log line parses");
        assert_eq!(doc.get("request_id").unwrap().as_u64(), Some(907));
        assert_eq!(doc.get("tag").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("conn").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("hops").unwrap().as_u64(), Some(10));
        assert_eq!(doc.get("entry").unwrap().as_str(), Some("medoid"));
        assert_eq!(doc.get("slo_level").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("rerank_depth").unwrap().as_u64(), Some(32));
        assert_eq!(doc.get("e2e_ns").unwrap().as_u64(), Some(rec.e2e_ns()));
        for key in ["slot", "worker", "host"] {
            assert_eq!(doc.get(key).unwrap().as_u64(), Some(1), "{key}");
        }
    }

    #[test]
    fn slow_query_is_retained_through_the_recorder() {
        let cfg = FlightConfig { slow_threshold_ns: 0, ..FlightConfig::default() };
        let obs = RuntimeObs::new(2, cfg, QlogConfig::default(), ObsTickConfig::default());
        let mut rec = QueryRecord { tag: 42, request_id: 42, worker: 1, ..QueryRecord::default() };
        rec.submitted_ns = obs.now_ns();
        rec.slot_ns = obs.begin_query(1);
        rec.work_start_ns = obs.now_ns();
        obs.flight_record(1, EventKind::CtaStep, 0, 32, 100);
        obs.flight_record(1, EventKind::ControlAdjust, 1, 2, 0);
        finish_stamps(&obs, &mut rec);
        obs.record_delivery(&rec, &MergeStats { merges: 1, elements: 8, dupes_dropped: 0 });

        let traces = obs.flight_retained();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.record, rec, "the trace carries the delivered record verbatim");
        assert_eq!(t.record.worker, 1);
        assert_eq!(t.dropped, 0);
        let kinds: Vec<EventKind> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::CtaStep, EventKind::ControlAdjust]);
        assert_monotone(&t.record);
    }
}
