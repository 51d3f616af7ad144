//! A native, threaded implementation of the ALGAS serving architecture.
//!
//! The simulators in `algas-gpu-sim` answer the paper's *performance*
//! questions; this module implements the same architecture as a real
//! concurrent system and doubles as a usable low-latency CPU ANNS
//! server:
//!
//! * **Persistent workers** stand in for the persistent kernel: spawned
//!   once, they poll the submission queue instead of being launched per
//!   query.
//! * **One slot per worker**, owned by that worker, follows the
//!   [`AtomicSlotState`] protocol (`Work` → `Finish` → `Done`), so the
//!   occupancy gauge and the per-slot flight rings keep §V-A's slot
//!   vocabulary.
//! * **No separate host role.** On the GPU the host merges per-CTA TopK
//!   lists (§IV-B) so CTAs never synchronise, and host threads own slot
//!   subsets (§V-B). Here the CTAs are host threads already: all
//!   `N_parallel` walkers of a query run on one worker, which merges
//!   their lists as the search ends. A second thread picking the lists
//!   up would only hand work across cores, so each worker carries its
//!   query from the queue to the reply.

use crate::engine::{AlgasEngine, SearchScratch};
use crate::obs::{
    self, DeliveryCtx, FlightConfig, JobStamps, ObsTickConfig, ProfHandle, ProfState, QlogConfig,
    QlogTotals, QueryTrace, RuntimeObs, RuntimeStats, SharedProfRegistry, ThreadKind,
};
use crate::state::{AtomicSlotState, SlotState};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Runtime shape: how many workers and how deep the queue.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Persistent worker threads; each owns one slot and serves its
    /// queries from dequeue to reply.
    pub n_workers: usize,
    /// Bound of the submission queue (backpressure for open-loop
    /// clients).
    pub queue_capacity: usize,
    /// Flight-recorder policy: per-slot ring size and which completed
    /// queries are retained for trace export (ignored when the `obs`
    /// feature is compiled out).
    pub flight: FlightConfig,
    /// Wide-event query-log policy: sampling, slow-query threshold,
    /// ring and retention sizes (ignored when the `obs` feature is
    /// compiled out; the log is off by default).
    pub qlog: QlogConfig,
    /// Obs tick thread policy: profiler sampling Hz and window ring
    /// rotation period/capacity (ignored when the `obs` feature is
    /// compiled out; no tick thread is spawned then).
    pub tick: ObsTickConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            n_workers: 2,
            queue_capacity: 1024,
            flight: FlightConfig::default(),
            qlog: QlogConfig::default(),
            tick: ObsTickConfig::default(),
        }
    }
}

/// Wire-level identity a network front end attaches to a submission so
/// every observability surface (flight traces, Chrome export, the query
/// log) is keyed by the id the *client* logged, not a server-private
/// tag. Plain [`AlgasServer::submit`] defaults the request id to the
/// server tag, so local callers trace by tag as before.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireCtx {
    /// The client-chosen request id from the frame header.
    pub request_id: u64,
    /// Server connection id (monotone accept order; 0 = local).
    pub conn_id: u64,
    /// Client send timestamp (µs since the client's epoch) from the
    /// `FLAG_CLIENT_TS` payload extension; 0 when absent.
    pub client_ts_us: u64,
}

/// A search result delivered to the submitting client.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchReply {
    /// Client-chosen tag echoed back.
    pub tag: u64,
    /// TopK ids, ascending by distance.
    pub ids: Vec<u32>,
    /// Matching distances.
    pub distances: Vec<f32>,
}

struct Job {
    tag: u64,
    query: Vec<f32>,
    reply_to: Sender<SearchReply>,
    submitted_at: std::time::Instant,
    /// Lifecycle timestamps for the phase histograms (zero-sized no-op
    /// when the `obs` feature is off).
    stamps: JobStamps,
    /// Wire identity for trace/query-log keying (request id = tag for
    /// local submissions).
    wire: WireCtx,
}

#[derive(Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_queue_full: AtomicU64,
    service_ns_total: AtomicU64,
    max_service_ns: AtomicU64,
}

impl Stats {
    /// `(submitted, completed)` with `completed <= submitted`: a job is
    /// counted as submitted before it is enqueued and as completed
    /// after it was served, so loading `completed` first (Acquire,
    /// pairing with the worker's Release) can never see a completion
    /// whose submission the second load misses.
    fn submitted_completed(&self) -> (u64, u64) {
        let completed = self.completed.load(Ordering::Acquire);
        race_window();
        (self.submitted.load(Ordering::Relaxed), completed)
    }
}

/// Yields between paired accesses that other threads may interleave
/// with, on threads a race test has opted in, so its checks hit those
/// windows; a no-op outside `cfg(test)`.
#[inline]
fn race_window() {
    #[cfg(test)]
    if tests::RACE_WINDOWS.with(std::cell::Cell::get) {
        std::thread::yield_now();
    }
}

/// A point-in-time view of the server's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries accepted into the submission queue.
    pub submitted: u64,
    /// Queries fully served (merged + replied).
    pub completed: u64,
    /// Queries rejected with [`SubmitError::QueueFull`] (backpressure).
    pub rejected_queue_full: u64,
    /// Sum of service times (submit → reply) in ns.
    pub service_ns_total: u64,
    /// Worst single service time observed, ns.
    pub max_service_ns: u64,
}

impl StatsSnapshot {
    /// Queries currently queued or in flight.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.completed
    }

    /// Mean service time in microseconds (0 if nothing completed).
    pub fn mean_service_us(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.service_ns_total as f64 / self.completed as f64 / 1000.0
        }
    }
}

struct Shared {
    engine: AlgasEngine,
    /// One slot per worker, indexed by worker id.
    slots: Vec<AtomicSlotState>,
    submissions: Receiver<Job>,
    shutdown: AtomicBool,
    stats: Stats,
    obs: RuntimeObs,
}

/// Handle to a running server; dropping it shuts the server down.
pub struct AlgasServer {
    shared: Arc<Shared>,
    /// The submission queue's only sender. Shutdown takes it, so the
    /// workers see `Disconnected` once they have drained the queue; a
    /// submit holds the read lock across its enqueue, so no accepted
    /// query can land after the workers exit.
    submit_tx: RwLock<Option<Sender<Job>>>,
    /// Workers plus the obs tick thread (absent with `obs` compiled
    /// out); emptied by the first shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_tag: AtomicU64,
}

/// A submitted query's tag plus the channel its reply arrives on.
pub type PendingReply = (u64, Receiver<SearchReply>);

/// Submission failure.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full (apply backpressure).
    QueueFull,
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue full"),
            SubmitError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl AlgasServer {
    /// Starts the server: spawns the persistent workers.
    ///
    /// # Panics
    /// Panics if `cfg.n_workers` is zero.
    pub fn start(engine: AlgasEngine, cfg: RuntimeConfig) -> Self {
        assert!(cfg.n_workers > 0, "need at least one worker");
        let (submit_tx, submit_rx) = bounded(cfg.queue_capacity.max(1));
        let shared = Arc::new(Shared {
            engine,
            slots: (0..cfg.n_workers).map(|_| AtomicSlotState::new()).collect(),
            submissions: submit_rx,
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            // The snapshot schema keeps per-host blocks; worker `w`
            // delivers its own results into block `w`.
            obs: RuntimeObs::new(
                cfg.n_workers,
                cfg.n_workers,
                cfg.n_workers,
                cfg.flight,
                cfg.qlog,
                cfg.tick,
            ),
        });

        let mut threads: Vec<JoinHandle<()>> = (0..cfg.n_workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("algas-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn worker")
            })
            .collect();

        // One background thread drives both the thread-state sampler
        // and the window ring rotation; with `obs` compiled out there
        // is nothing to drive, so none is spawned.
        if obs::OBS_ENABLED {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("algas-obs-tick".to_string())
                    .spawn(move || shared.obs.run_ticker(&shared.shutdown))
                    .expect("spawn obs ticker"),
            );
        }

        Self {
            shared,
            submit_tx: RwLock::new(Some(submit_tx)),
            threads: Mutex::new(threads),
            next_tag: AtomicU64::new(0),
        }
    }

    /// Submits a query; the reply arrives on the returned channel.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    ///
    /// # Panics
    /// Panics if the query dimension doesn't match the index.
    pub fn submit(&self, query: Vec<f32>) -> Result<PendingReply, SubmitError> {
        self.submit_inner(query, None)
    }

    /// [`Self::submit`] with a wire identity attached: flight traces
    /// and query-log records for this query carry `wire.request_id` /
    /// `wire.conn_id` instead of tag-as-request-id, so a client can
    /// grep the id it logged straight into `/traces` and `/query-log`.
    ///
    /// # Errors
    /// Same as [`Self::submit`].
    ///
    /// # Panics
    /// Panics if the query dimension doesn't match the index.
    pub fn submit_traced(
        &self,
        query: Vec<f32>,
        wire: WireCtx,
    ) -> Result<PendingReply, SubmitError> {
        self.submit_inner(query, Some(wire))
    }

    fn submit_inner(
        &self,
        query: Vec<f32>,
        wire: Option<WireCtx>,
    ) -> Result<PendingReply, SubmitError> {
        assert_eq!(query.len(), self.shared.engine.index().base.dim(), "query dimension mismatch");
        let submit_tx = self.submit_tx.read();
        let Some(submit_tx) = submit_tx.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = unbounded();
        let job = Job {
            tag,
            query,
            reply_to: reply_tx,
            submitted_at: std::time::Instant::now(),
            stamps: JobStamps::new(),
            wire: wire.unwrap_or(WireCtx { request_id: tag, conn_id: 0, client_ts_us: 0 }),
        };
        // Count before enqueueing: a worker may serve the job before
        // `try_send` even returns, and `completed` must never pass
        // `submitted`.
        let submitted = &self.shared.stats.submitted;
        submitted.fetch_add(1, Ordering::Relaxed);
        race_window();
        let sent = submit_tx.try_send(job);
        race_window();
        match sent {
            Ok(()) => Ok((tag, reply_rx)),
            Err(TrySendError::Full(_)) => {
                submitted.fetch_sub(1, Ordering::Relaxed);
                self.shared.stats.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                submitted.fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// The index dimensionality submitted queries must match.
    pub fn dim(&self) -> usize {
        self.shared.engine.index().base.dim()
    }

    /// The SLO controller's live stats — the controller's view of load
    /// (windowed p99, current rung). Used by the network front end to
    /// size RETRY_AFTER delay suggestions.
    pub fn control_stats(&self) -> crate::control::ControlStats {
        self.shared.engine.controller().stats()
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        let (submitted, completed) = self.shared.stats.submitted_completed();
        StatsSnapshot {
            submitted,
            completed,
            rejected_queue_full: self.shared.stats.rejected_queue_full.load(Ordering::Relaxed),
            service_ns_total: self.shared.stats.service_ns_total.load(Ordering::Relaxed),
            max_service_ns: self.shared.stats.max_service_ns.load(Ordering::Relaxed),
        }
    }

    /// The full telemetry snapshot: query counters, occupancy gauges,
    /// per-worker / per-host / per-slot breakdowns, phase latency
    /// histograms, and search/merge totals. The gauges and queue
    /// counters are always live; the breakdowns and histograms carry
    /// data only when the (default-on) `obs` feature is compiled in.
    /// Each worker fills the per-host block of the same index.
    pub fn runtime_stats(&self) -> RuntimeStats {
        let n = self.shared.slots.len();
        let mut out = RuntimeStats::empty(n, n, n);
        (out.submitted, out.completed) = self.shared.stats.submitted_completed();
        out.rejected_queue_full = self.shared.stats.rejected_queue_full.load(Ordering::Relaxed);
        out.queue_depth = self.shared.submissions.len() as u64;
        let index = self.shared.engine.index();
        out.base_bytes = index.base.nbytes() as u64;
        out.quant_bytes = index.quant.as_ref().map_or(0, |q| q.nbytes() as u64);
        out.slots_occupied = self
            .shared
            .slots
            .iter()
            .filter(|s| matches!(s.load(), SlotState::Work | SlotState::Finish))
            .count() as u64;
        self.shared.obs.populate(&mut out);
        // The controller lives in the engine, not the recorder; the
        // server stamps its state in so every exposition surface
        // (JSON, Prometheus, `algas stats`) carries the control rung.
        out.control = self.shared.engine.controller().stats();
        // Windowed view of the end-to-end histogram, judged against
        // the declared SLO (0 when none is armed → always "ok").
        out.window = self.shared.obs.window_stats(self.shared.engine.controller().slo_ns());
        out
    }

    /// The thread-state marker registry, so auxiliary threads outside
    /// this runtime (the network readiness loop, the query-log writer)
    /// can register and stamp into the same profile.
    pub fn prof_registry(&self) -> SharedProfRegistry {
        self.shared.obs.prof_registry()
    }

    /// Blocking folded-stack profile capture over `seconds` (clamped
    /// to 0.1–30): samples the thread-state markers for the duration
    /// and returns the delta as flamegraph-ready collapsed-stack text.
    /// Empty when the `obs` feature is compiled out.
    pub fn profile_capture(&self, seconds: f64) -> String {
        self.shared.obs.prof_capture(seconds)
    }

    /// The windowed telemetry block (moving p50/p99, rates, burn-rate
    /// health) as of the last ring rotation. Empty until two rotations
    /// have happened or when the `obs` feature is compiled out.
    pub fn window_stats(&self) -> crate::obs::WindowBlock {
        self.shared.obs.window_stats(self.shared.engine.controller().slo_ns())
    }

    /// The flight recorder's retained (tail-sampled) query traces,
    /// slowest-first. Empty when the `obs` feature is compiled out or
    /// no completed query met the retention policy yet.
    pub fn flight_traces(&self) -> Vec<QueryTrace> {
        self.shared.obs.flight_retained()
    }

    /// Retained flight traces as the `/traces` JSON document.
    pub fn traces_json(&self) -> String {
        obs::traces_json(&self.flight_traces())
    }

    /// Retained flight traces as Chrome trace-event JSON, loadable in
    /// Perfetto / `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        obs::chrome_trace_json(&self.flight_traces())
    }

    /// Drains newly completed query-log records into the bounded
    /// retained-lines buffer. Call periodically (the CLI's writer
    /// thread does) or rely on [`Self::qlog_lines`] draining lazily.
    pub fn qlog_drain(&self) -> usize {
        self.shared.obs.qlog_drain()
    }

    /// The retained wide-event query-log lines (JSON, one per record),
    /// oldest first. Drains the ring first so the view is current.
    pub fn qlog_lines(&self) -> Vec<String> {
        self.shared.obs.qlog_lines()
    }

    /// Query-log lines at sequence `cursor` onward plus the next
    /// cursor — the writer-thread tailing interface. Records that
    /// rotated out of retention before the cursor are skipped.
    pub fn qlog_lines_since(&self, cursor: u64) -> (Vec<String>, u64) {
        self.shared.obs.qlog_lines_since(cursor)
    }

    /// The query log's lifetime counters.
    pub fn qlog_totals(&self) -> QlogTotals {
        self.shared.obs.qlog_totals()
    }

    /// Records a rejected (backpressured) query in the query log under
    /// its wire identity. Called by the network front end when it
    /// answers RETRY_AFTER instead of submitting.
    pub fn qlog_reject(&self, request_id: u64, conn_id: u64) {
        self.shared.obs.qlog_reject(request_id, conn_id);
    }

    /// Readiness: the index is loaded and the runtime is accepting
    /// submissions (i.e. shutdown has not begun). The engine exists
    /// before `start` returns, so a constructed server is ready until
    /// told to stop.
    pub fn ready(&self) -> bool {
        !self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Convenience: submit and block for the reply.
    pub fn search_blocking(&self, query: Vec<f32>) -> Result<SearchReply, SubmitError> {
        let (_, rx) = self.submit(query)?;
        rx.recv().map_err(|_| SubmitError::ShuttingDown)
    }

    /// Submits a batch of queries; returns one `(tag, receiver)` per
    /// query. All-or-nothing: if the queue fills mid-batch, already
    /// accepted queries are still served but the error tells the caller
    /// how many were accepted.
    pub fn submit_batch(
        &self,
        queries: impl IntoIterator<Item = Vec<f32>>,
    ) -> Result<Vec<PendingReply>, (usize, SubmitError)> {
        let mut out = Vec::new();
        for q in queries {
            match self.submit(q) {
                Ok(pair) => out.push(pair),
                Err(e) => return Err((out.len(), e)),
            }
        }
        Ok(out)
    }

    /// Stops accepting queries, lets the workers drain every query
    /// already accepted, and joins all threads. Safe to call while
    /// other threads are still submitting (they get
    /// [`SubmitError::ShuttingDown`]) and more than once.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Dropping the only sender disconnects the queue: each worker
        // serves what is left and exits on `Disconnected`.
        drop(self.submit_tx.write().take());
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for AlgasServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl RuntimeStats {
    /// [`AlgasServer::runtime_stats`] spelled from the snapshot side:
    /// `RuntimeStats::snapshot(&server)`.
    pub fn snapshot(server: &AlgasServer) -> RuntimeStats {
        server.runtime_stats()
    }
}

/// A running server is directly servable by the
/// [`obs::StatsServer`]: `/metrics` is the
/// Prometheus page, `/stats.json` the snapshot, `/traces` the retained
/// flight traces.
impl crate::obs::StatsSource for AlgasServer {
    fn metrics_text(&self) -> String {
        self.runtime_stats().to_prometheus()
    }

    fn stats_json(&self) -> String {
        self.runtime_stats().to_json()
    }

    fn traces_json(&self) -> String {
        AlgasServer::traces_json(self)
    }

    fn query_log_lines(&self) -> Vec<String> {
        self.qlog_lines()
    }

    fn profile_folded(&self, seconds: f64) -> String {
        self.profile_capture(seconds)
    }

    fn health_state(&self) -> String {
        self.window_stats().health
    }

    fn readyz(&self) -> bool {
        self.ready()
    }
}

/// Bounded spin-then-yield backoff for the workers' idle wait (crossbeam
/// `Backoff`-style). A worker that just served a query spins in short
/// `spin_loop` bursts — the next query may arrive any nanosecond and an
/// OS yield would cost microseconds of latency — but each empty poll
/// doubles the burst, and once the wait stretches past `SPIN_LIMIT`
/// polls the worker falls back to `yield_now`, so an idle worker stops
/// burning a full core. Finding work resets the backoff to hot
/// spinning. Parking in a blocking `recv` instead costs the wake-up on
/// every query of a lightly loaded server.
struct Backoff {
    step: u32,
}

impl Backoff {
    /// Idle passes spent spinning before falling back to OS yields.
    const SPIN_LIMIT: u32 = 6;

    fn new() -> Self {
        Self { step: 0 }
    }

    /// Waits a little; call after a poll that found no work.
    fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Back to hot spinning; call after a poll that did work.
    fn reset(&mut self) {
        self.step = 0;
    }
}

/// Persistent worker `w`: takes queries off the submission queue and
/// serves each one to its reply. Exits once shutdown has dropped the
/// sender and the queue is drained.
fn worker_loop(shared: &Shared, w: usize) {
    // Per-worker reusable state: search scratch (candidate lists,
    // visited bitmap, per-CTA buffers, the merged TopK). After the
    // first few queries warm it up, the search itself performs no heap
    // allocation in this thread; only the reply's own vectors do.
    let mut scratch = SearchScratch::new();
    let mut backoff = Backoff::new();
    // Thread-state marker for the sampling profiler: each stamp is one
    // relaxed store into this thread's own cache-padded cell (a no-op
    // with `obs` off). Dropping the handle on exit clears the marker.
    let prof = shared.obs.prof_registry().register(ThreadKind::Worker, &format!("worker-{w}"));
    prof.stamp(ProfState::Idle);
    loop {
        match shared.submissions.try_recv() {
            Ok(job) => {
                serve(shared, w, job, &mut scratch, &prof);
                shared.obs.worker_pass(w, true);
                backoff.reset();
            }
            Err(TryRecvError::Empty) => {
                shared.obs.worker_pass(w, false);
                prof.stamp(ProfState::Idle);
                backoff.snooze();
            }
            Err(TryRecvError::Disconnected) => return,
        }
    }
}

/// Serves one query on worker `w`, whose slot brackets the search
/// (`Work`) and the delivery (`Finish`). The search leaves the merged
/// (and, on a quantized engine, exactly re-ranked) TopK in
/// `scratch.topk`, which becomes the reply.
fn serve(shared: &Shared, w: usize, mut job: Job, scratch: &mut SearchScratch, prof: &ProfHandle) {
    let slot = &shared.slots[w];
    let idle = slot.load();
    job.stamps.mark_slot();
    shared.obs.slot_assigned(w, w, &job.stamps);
    let flipped = slot.transition(idle, SlotState::Work);
    debug_assert!(flipped, "only this worker moves its slot");

    prof.stamp(ProfState::Scan);
    job.stamps.mark_work_start();
    let rerank_before = scratch.rerank;
    let merge_before = scratch.merge_stats();
    // Physical-id search; ids are translated to the caller's original
    // space exactly once, below.
    shared.engine.search_physical_into(&job.query, job.tag, scratch);
    job.stamps.mark_finish();
    let rerank_delta = scratch.rerank.since(&rerank_before);
    shared.obs.record_search(w, w, &scratch.multi);
    shared.obs.record_rerank(w, &rerank_delta);
    shared.obs.flight_search(w, w, &scratch.multi, &rerank_delta, &job.stamps);
    let flipped = slot.transition(SlotState::Work, SlotState::Finish);
    debug_assert!(flipped, "only this worker moves its slot");

    prof.stamp(ProfState::Merge);
    let picked_up = obs::stamp();
    shared.engine.index().externalize(&mut scratch.topk);
    let reply = SearchReply {
        tag: job.tag,
        ids: scratch.topk.iter().map(|&(_, id)| id).collect(),
        distances: scratch.topk.iter().map(|&(d, _)| d.0).collect(),
    };
    let merged_at = obs::stamp();
    prof.stamp(ProfState::Deliver);
    // Account the completed query before replying so a caller
    // observing the reply sees it counted.
    let service_ns = job.submitted_at.elapsed().as_nanos() as u64;
    shared.stats.service_ns_total.fetch_add(service_ns, Ordering::Relaxed);
    shared.stats.max_service_ns.fetch_max(service_ns, Ordering::Relaxed);
    shared.stats.completed.fetch_add(1, Ordering::Release);
    // Feed the SLO controller the submit→reply span it regulates. When
    // a cadence tick fires, stamp the decision into this slot's flight
    // ring before the delivery events close the query's window.
    let controller = shared.engine.controller();
    if let Some(d) = controller.observe(service_ns) {
        shared.obs.flight_record(
            w,
            obs::flight::EventKind::ControlAdjust,
            w as u32,
            d.level,
            d.reason as u32,
        );
    }
    // Telemetry lands before the reply too, so a client observing its
    // reply sees its query fully recorded (the delivery stamp marks the
    // send boundary).
    let ctx = DeliveryCtx {
        tag: job.tag,
        request_id: job.wire.request_id,
        conn_id: job.wire.conn_id,
        client_ts_us: job.wire.client_ts_us,
        worker: w as u32,
        hops: scratch.multi.step_totals().steps.min(u64::from(u32::MAX)) as u32,
        slo_level: controller.level(),
        rerank_depth: shared.engine.rerank_depth().min(u32::MAX as usize) as u32,
        entry_code: obs::qlog::entry_policy_code(&shared.engine.config().entry_policy),
    };
    shared.obs.record_delivery(
        w,
        w,
        &ctx,
        &job.stamps,
        picked_up,
        merged_at,
        obs::stamp(),
        &scratch.merge_stats().since(&merge_before),
    );
    // The client may have dropped its receiver; fine.
    let _ = job.reply_to.send(reply);
    let flipped = slot.transition(SlotState::Finish, SlotState::Done);
    debug_assert!(flipped, "only this worker moves its slot");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlgasIndex, BeamMode, EngineConfig};
    use algas_graph::cagra::CagraParams;
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::Metric;

    thread_local! {
        /// Whether [`race_window`] yields on this thread.
        pub(super) static RACE_WINDOWS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Opts the calling thread into [`race_window`] yields.
    fn widen_race_windows() {
        RACE_WINDOWS.with(|w| w.set(true));
    }

    fn test_server(
        workers: usize,
    ) -> (AlgasServer, algas_vector::datasets::GeneratedDataset, AlgasEngine) {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg = EngineConfig {
            k: 8,
            l: 32,
            slots: workers,
            beam: BeamMode::Auto,
            ..Default::default()
        };
        let server_engine = AlgasEngine::new(index.clone(), cfg).unwrap();
        let oracle = AlgasEngine::new(index, cfg).unwrap();
        let server = AlgasServer::start(
            server_engine,
            RuntimeConfig { n_workers: workers, queue_capacity: 256, ..Default::default() },
        );
        (server, ds, oracle)
    }

    #[test]
    fn backoff_spins_then_yields_and_resets() {
        let mut b = Backoff::new();
        for _ in 0..(Backoff::SPIN_LIMIT + 50) {
            b.snooze(); // must stay bounded: no panic, no overflow
        }
        assert!(b.step > Backoff::SPIN_LIMIT, "backoff should exhaust its spin budget");
        b.reset();
        assert_eq!(b.step, 0);
    }

    #[test]
    fn relayouted_server_replies_in_original_id_space() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        // Medoid entry: the same physical start point pre/post relayout,
        // so the reply ids must match the unpermuted oracle exactly.
        let cfg = EngineConfig {
            k: 8,
            l: 32,
            slots: 4,
            beam: BeamMode::Auto,
            entry_policy: algas_graph::EntryPolicy::Medoid,
            ..Default::default()
        };
        let oracle = AlgasEngine::new(index.clone(), cfg).unwrap();
        let mut relayouted = index;
        relayouted.relayout();
        let server = AlgasServer::start(
            AlgasEngine::new(relayouted, cfg).unwrap(),
            RuntimeConfig { n_workers: 2, queue_capacity: 64, ..Default::default() },
        );
        for i in 0..5 {
            let q = ds.queries.get(i).to_vec();
            let reply = server.search_blocking(q.clone()).unwrap();
            assert_eq!(reply.ids, oracle.search(&q, reply.tag), "query {i}");
        }
        server.shutdown();
    }

    #[test]
    fn quantized_server_replies_match_its_oracle() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg = EngineConfig {
            k: 8,
            l: 32,
            slots: 4,
            beam: BeamMode::Auto,
            quantize: true,
            ..Default::default()
        };
        let oracle = AlgasEngine::new(index.clone(), cfg).unwrap();
        assert!(oracle.quantized());
        let server = AlgasServer::start(
            AlgasEngine::new(index, cfg).unwrap(),
            RuntimeConfig { n_workers: 2, queue_capacity: 64, ..Default::default() },
        );
        for i in 0..5 {
            let q = ds.queries.get(i).to_vec();
            let reply = server.search_blocking(q.clone()).unwrap();
            assert_eq!(reply.ids, oracle.search(&q, reply.tag), "query {i}");
            // Reranked distances are exact f32 distances (modulo the
            // batched kernel's summation order, a last-ulp effect).
            for (&d, &id) in reply.distances.iter().zip(&reply.ids) {
                let exact = Metric::L2.distance(&q, ds.base.get(id as usize));
                assert!((d - exact).abs() <= 1e-5 * exact.max(1.0), "{d} vs exact {exact}");
            }
        }
        #[cfg(feature = "obs")]
        {
            let s = server.runtime_stats();
            assert_eq!(s.rerank.reranks, 5, "every quantized query runs one rerank pass");
            assert!(s.rerank.candidates >= 5 * 8);
            assert!(s.quant_bytes > 0 && s.base_bytes > s.quant_bytes, "both stores reported");
        }
        server.shutdown();
    }

    #[test]
    fn serves_single_query_correctly() {
        let (server, ds, oracle) = test_server(2);
        let q = ds.queries.get(0).to_vec();
        let reply = server.search_blocking(q.clone()).unwrap();
        // tag 0 == query_id 0: identical entry hashing to the oracle.
        assert_eq!(reply.ids, oracle.search(&q, 0));
        assert_eq!(reply.ids.len(), 8);
        assert!(reply.distances.windows(2).all(|w| w[0] <= w[1]));
        server.shutdown();
    }

    #[test]
    fn serves_many_queries_from_many_clients() {
        let (server, ds, oracle) = test_server(3);
        let server = Arc::new(server);
        let n = 40;
        let replies: Vec<SearchReply> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|c| {
                    let server = Arc::clone(&server);
                    let ds = &ds;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for i in (c..n).step_by(4) {
                            let q = ds.queries.get(i % ds.queries.len()).to_vec();
                            out.push(server.search_blocking(q).unwrap());
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(replies.len(), n);
        // Every reply matches the oracle for its tag's query.
        for r in &replies {
            // Reconstruct which query this tag used is client-side
            // knowledge; instead verify result quality directly:
            assert_eq!(r.ids.len(), 8);
            assert!(r.distances.windows(2).all(|w| w[0] <= w[1]));
        }
        // Spot-check exactness for a fresh tag.
        let q = ds.queries.get(1).to_vec();
        let (tag, rx) = server.submit(q.clone()).unwrap();
        let reply = rx.recv().unwrap();
        assert_eq!(reply.ids, oracle.search(&q, tag));
        match Arc::try_unwrap(server) {
            Ok(s) => s.shutdown(),
            Err(_) => panic!("server still shared"),
        }
    }

    #[test]
    fn submit_batch_serves_everything() {
        let (server, ds, oracle) = test_server(2);
        let batch: Vec<Vec<f32>> =
            (0..12).map(|i| ds.queries.get(i % ds.queries.len()).to_vec()).collect();
        let pending = server.submit_batch(batch.clone()).unwrap();
        assert_eq!(pending.len(), 12);
        for ((tag, rx), q) in pending.into_iter().zip(&batch) {
            let reply = rx.recv().unwrap();
            assert_eq!(reply.tag, tag);
            assert_eq!(reply.ids, oracle.search(q, tag));
        }
        server.shutdown();
    }

    #[test]
    fn stats_track_service() {
        let (server, ds, _) = test_server(2);
        assert_eq!(server.stats().completed, 0);
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.stats();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.completed, 10);
        assert_eq!(s.in_flight(), 0);
        assert!(s.mean_service_us() > 0.0);
        assert!(s.max_service_ns >= (s.service_ns_total / 10));
        server.shutdown();
    }

    #[test]
    fn runtime_stats_report_counters_and_gauges() {
        let (server, ds, _) = test_server(2);
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.runtime_stats();
        assert_eq!((s.n_slots, s.n_workers, s.n_host_threads), (2, 2, 2));
        assert_eq!((s.submitted, s.completed, s.rejected_queue_full), (10, 10, 0));
        // The breakdown vectors always carry the runtime shape, even
        // with `obs` compiled out (they're just all-zero then).
        assert_eq!(s.per_worker.len(), 2);
        assert_eq!(s.per_host.len(), 2);
        assert_eq!(s.per_slot.len(), 2);
        assert!(s.queue_depth == 0 && s.slots_occupied <= 2);
        #[cfg(feature = "obs")]
        {
            // search_blocking returned for every query, so every
            // query's full telemetry has landed.
            assert_eq!(s.per_worker.iter().map(|w| w.queries).sum::<u64>(), 10);
            assert_eq!(s.per_slot.iter().map(|x| x.assigned).sum::<u64>(), 10);
            assert_eq!(s.per_slot.iter().map(|x| x.delivered).sum::<u64>(), 10);
            assert_eq!(s.per_host.iter().map(|h| h.delivered).sum::<u64>(), 10);
            assert_eq!(s.phases.end_to_end.count, 10);
            assert!(s.phases.end_to_end.quantile(0.5) > 0);
            assert!(s.search.dist_evals > 0);
            assert_eq!(s.merge.merges, 10);
        }
        // The associated-function spelling sees the same counters.
        let again = RuntimeStats::snapshot(&server);
        assert_eq!((again.submitted, again.completed), (10, 10));
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn flight_recorder_captures_served_queries() {
        use crate::obs::flight::EventKind;
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 8, l: 32, slots: 2, beam: BeamMode::Auto, ..Default::default() };
        let engine = AlgasEngine::new(index, cfg).unwrap();
        let server = AlgasServer::start(
            engine,
            RuntimeConfig {
                n_workers: 1,
                queue_capacity: 64,
                // Retain everything: threshold 0 marks every query slow.
                flight: FlightConfig { slow_threshold_ns: 0, ..Default::default() },
                qlog: QlogConfig::default(),
                tick: ObsTickConfig::default(),
            },
        );
        for i in 0..6 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let traces = server.flight_traces();
        assert!(!traces.is_empty(), "threshold 0 must retain queries");
        for t in &traces {
            let kinds: Vec<EventKind> = t.events.iter().map(|e| e.kind).collect();
            for k in [
                EventKind::Enqueued,
                EventKind::Assigned,
                EventKind::WorkStart,
                EventKind::CtaStep,
                EventKind::Finish,
                EventKind::MergeBegin,
                EventKind::MergeEnd,
                EventKind::Delivered,
            ] {
                assert!(kinds.contains(&k), "trace {} missing {}", t.tag, k.name());
            }
            assert!(t.e2e_ns() > 0);
            assert!(t.lifecycle.delivered_ns >= t.lifecycle.submitted_ns);
        }
        // The whole pipeline round-trips: ring -> retained -> Chrome
        // JSON -> validator, with all six lifecycle phases as spans.
        let chrome = server.chrome_trace_json();
        let summary = crate::obs::validate_chrome_trace(&chrome).expect("valid Chrome trace");
        assert!(summary.missing_phases().is_empty(), "missing {:?}", summary.missing_phases());
        let stats = server.runtime_stats();
        assert_eq!(stats.flight.completions, 6);
        assert!(stats.flight.retained >= traces.len() as u64);
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn wire_identity_threads_into_traces_and_query_log() {
        use crate::obs::json::Value;
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 8, l: 32, slots: 2, beam: BeamMode::Auto, ..Default::default() };
        let server = AlgasServer::start(
            AlgasEngine::new(index, cfg).unwrap(),
            RuntimeConfig {
                n_workers: 1,
                queue_capacity: 64,
                // Retain + log everything: threshold 0 marks all slow.
                flight: FlightConfig { slow_threshold_ns: 0, ..Default::default() },
                qlog: QlogConfig { enabled: true, ..Default::default() },
                ..Default::default()
            },
        );
        for i in 0..4u64 {
            let wire = WireCtx { request_id: 5_000 + i, conn_id: 7, client_ts_us: 1_000 + i };
            let q = ds.queries.get(i as usize % ds.queries.len()).to_vec();
            let (_, rx) = server.submit_traced(q, wire).unwrap();
            let _ = rx.recv().unwrap();
        }
        // Flight traces are keyed by the wire request id, not the tag.
        let traces = server.flight_traces();
        assert!(!traces.is_empty());
        for t in &traces {
            assert!((5_000..5_004).contains(&t.request_id), "trace keyed by {}", t.request_id);
            assert_eq!(t.conn, 7);
        }
        // So is every query-log line, with real phase spans.
        let lines = server.qlog_lines();
        assert_eq!(lines.len(), 4);
        let mut seen: Vec<u64> = Vec::new();
        for line in &lines {
            let v = Value::parse(line).expect("query-log line parses as JSON");
            seen.push(v.get("request_id").and_then(Value::as_u64).unwrap());
            assert_eq!(v.get("conn").and_then(Value::as_u64), Some(7));
            assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
            assert!(v.get("e2e_ns").and_then(Value::as_u64).unwrap() > 0);
            assert!(v.get("hops").and_then(Value::as_u64).unwrap() > 0);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![5_000, 5_001, 5_002, 5_003]);
        assert_eq!(server.qlog_totals().logged, 4);
        // Plain submissions keep tracing by tag (request id == tag).
        let q = ds.queries.get(0).to_vec();
        let (tag, rx) = server.submit(q).unwrap();
        let _ = rx.recv().unwrap();
        let line = server.qlog_lines().pop().unwrap();
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("request_id").and_then(Value::as_u64), Some(tag));
        assert_eq!(v.get("conn").and_then(Value::as_u64), Some(0));
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn windowed_stats_match_recomputation_from_raw_snapshots() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 8, l: 32, slots: 4, beam: BeamMode::Auto, ..Default::default() };
        let server = AlgasServer::start(
            AlgasEngine::new(index, cfg).unwrap(),
            RuntimeConfig {
                n_workers: 2,
                queue_capacity: 64,
                // Park the ticker (no sampling, hour-long rotation) so
                // this test drives rotations deterministically.
                tick: ObsTickConfig { prof_hz: 0, window_period_ms: 3_600_000, window_slots: 8 },
                ..Default::default()
            },
        );
        assert!(
            server.window_stats().windows.is_empty(),
            "no windows before two rotations exist to subtract"
        );
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        // Raw snapshot at the same instant as the baseline rotation
        // (no queries run in between, so the two views are identical).
        let base = server.runtime_stats().phases.end_to_end.clone();
        server.shared.obs.rotate_window();
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let full = server.runtime_stats().phases.end_to_end.clone();
        server.shared.obs.rotate_window();

        // Every window target must agree exactly with the delta
        // recomputed from the raw histogram snapshots.
        let recomputed = full.delta(&base);
        let block = server.window_stats();
        assert_eq!(block.health, "ok", "no SLO armed, never degraded");
        for target in [1u64, 10, 60] {
            let w = block.window(target).expect("window present after two rotations");
            assert_eq!(w.completed, recomputed.count, "window {target}s completions");
            assert_eq!(w.p50_ns, recomputed.quantile(0.5), "window {target}s p50");
            assert_eq!(w.p99_ns, recomputed.quantile(0.99), "window {target}s p99");
            assert_eq!(w.max_ns, recomputed.max, "window {target}s max");
        }
        // The same block rides runtime_stats into every exposition
        // surface.
        let s = server.runtime_stats();
        assert_eq!(s.window.window(10).unwrap().p99_ns, recomputed.quantile(0.99));
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn live_profile_capture_attributes_thread_states() {
        use crate::obs::StatsSource;
        let (server, ds, _) = test_server(2);
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        // The default 97 Hz ticker is live; a short capture must
        // attribute samples to the registered runtime threads.
        let folded = server.profile_capture(0.2);
        assert!(!folded.is_empty(), "a live sampler must accumulate samples");
        for line in folded.lines() {
            let (frames, count) = line.rsplit_once(' ').expect("folded line has a count");
            assert_eq!(frames.split(';').count(), 3, "kind;label;state in {line:?}");
            assert!(count.parse::<u64>().unwrap() > 0, "counts are positive in {line:?}");
        }
        assert!(
            folded.lines().any(|l| l.starts_with("worker;worker-")),
            "worker threads must appear in {folded:?}"
        );
        assert!(!folded.contains("host;"), "no host poller thread exists in {folded:?}");
        // The StatsSource forwarding serves the same capture.
        assert!(!StatsSource::profile_folded(&server, 0.1).is_empty());
        assert_eq!(StatsSource::health_state(&server), "ok");

        // Workers carry each query through to its reply: under load,
        // sampling the markers directly must catch a worker in the
        // merge or deliver state.
        let reg = server.prof_registry();
        let done = AtomicBool::new(false);
        let caught = std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0.. {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let q = ds.queries.get(i % ds.queries.len()).to_vec();
                    let _ = server.search_blocking(q).unwrap();
                }
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            let mut caught = false;
            while !caught && std::time::Instant::now() < deadline {
                for _ in 0..1_000 {
                    reg.sample_once();
                }
                caught = reg.table().threads.iter().any(|t| {
                    t.kind == "worker"
                        && t.states.iter().any(|c| c.state == "merge" || c.state == "deliver")
                });
            }
            done.store(true, Ordering::Relaxed);
            caught
        });
        assert!(caught, "no worker sampled in merge/deliver: {:?}", reg.table());
        server.shutdown();
    }

    #[test]
    fn slo_controller_sheds_under_an_impossible_target() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        // Quantized engine: the effort ladder has rerank rungs to shed.
        // A 1 µs SLO is unreachable, so every tick must shed until the
        // ladder saturates — never restore.
        let cfg = EngineConfig {
            k: 8,
            l: 32,
            slots: 2,
            beam: BeamMode::Auto,
            quantize: true,
            slo_us: Some(1),
            ..Default::default()
        };
        let engine = AlgasEngine::new(index, cfg).unwrap();
        assert!(engine.controller().enabled(), "quantized + slo => active controller");
        let tick_every = engine.controller().config().tick_every;
        let server = AlgasServer::start(
            engine,
            RuntimeConfig { n_workers: 1, queue_capacity: 256, ..Default::default() },
        );
        for i in 0..(3 * tick_every as usize) {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.runtime_stats();
        assert!(s.control.enabled);
        assert!(s.control.ticks >= 2, "completions must drive cadence ticks");
        assert!(s.control.sheds >= 1, "an impossible SLO must shed effort");
        assert_eq!(s.control.restores, 0);
        assert!(s.control.level >= 1);
        assert!(s.control.last_p99_ns > 1_000, "p99 of real service spans");
        server.shutdown();
    }

    #[test]
    fn controller_stays_inert_without_an_slo() {
        let (server, ds, _) = test_server(2);
        for i in 0..80 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.runtime_stats();
        assert!(!s.control.enabled);
        assert_eq!((s.control.level, s.control.ticks, s.control.sheds), (0, 0, 0));
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_queries() {
        let (server, ds, _) = test_server(2);
        let mut rxs = Vec::new();
        for i in 0..12 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            rxs.push(server.submit(q).unwrap().1);
        }
        server.shutdown();
        for rx in rxs {
            assert!(rx.recv().is_ok(), "in-flight query dropped during shutdown");
        }
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let (server, ds, _) = test_server(1);
        server.shutdown();
        assert!(!server.ready());
        let err = server.submit(ds.queries.get(0).to_vec()).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        assert_eq!(server.stats().submitted, 0, "a refused submit is not counted");
        server.shutdown(); // idempotent
    }

    #[test]
    fn stats_never_show_more_completions_than_submissions() {
        const PER_SUBMITTER: usize = 200;
        let (server, ds, _) = test_server(2);
        let submitters_left = std::sync::atomic::AtomicUsize::new(4);
        std::thread::scope(|scope| {
            for c in 0..4 {
                let (server, ds, left) = (&server, &ds, &submitters_left);
                scope.spawn(move || {
                    widen_race_windows();
                    for i in 0..PER_SUBMITTER {
                        let q = ds.queries.get((c + 4 * i) % ds.queries.len()).to_vec();
                        let _ = server.search_blocking(q).unwrap();
                    }
                    left.fetch_sub(1, Ordering::Release);
                });
            }
            widen_race_windows();
            let mut polls = 0u64;
            while submitters_left.load(Ordering::Acquire) > 0 {
                let s = server.stats();
                assert!(s.completed <= s.submitted, "poll {polls}: {s:?}");
                let _ = s.in_flight();
                let r = server.runtime_stats();
                assert!(r.completed <= r.submitted, "poll {polls}: {r:?}");
                polls += 1;
            }
        });
        let s = server.stats();
        let total = 4 * PER_SUBMITTER as u64;
        assert_eq!((s.submitted, s.completed, s.in_flight()), (total, total, 0));
        server.shutdown();
    }

    #[test]
    fn shutdown_under_concurrent_submits_delivers_exactly_once() {
        // Each client keeps at most WINDOW queries outstanding, so the
        // queue never fills: every submit is either accepted or refused
        // with ShuttingDown. Several server lifetimes give the shutdown
        // several chances to land inside a submit.
        const CLIENTS: usize = 4;
        const WINDOW: usize = 16;
        const ROUNDS: usize = 5;
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 8, l: 32, slots: 2, beam: BeamMode::Auto, ..Default::default() };
        let oracle = AlgasEngine::new(index.clone(), cfg).unwrap();
        let exact_topk = |q: &[f32]| {
            let mut exact: Vec<(f32, u32)> = (0..ds.base.len())
                .map(|id| (Metric::L2.distance(q, ds.base.get(id)), id as u32))
                .collect();
            exact.sort_by(|a, b| a.0.total_cmp(&b.0));
            exact.truncate(8);
            exact.into_iter().map(|(_, id)| id).collect::<Vec<u32>>()
        };
        // Takes the one reply of an accepted query, failing rather than
        // hanging if it never comes; the receiver is kept to check,
        // after shutdown, that no second reply followed.
        let take_reply = |tag: u64, qi: usize, rx: Receiver<SearchReply>| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            let reply = loop {
                match rx.try_recv() {
                    Ok(reply) => break reply,
                    Err(TryRecvError::Empty) if std::time::Instant::now() < deadline => {
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("accepted query {tag} never answered: {e:?}"),
                }
            };
            assert_eq!(reply.tag, tag);
            (qi, reply, rx)
        };
        let (mut hits, mut answered) = (0usize, 0usize);
        for round in 0..ROUNDS {
            let server = AlgasServer::start(
                AlgasEngine::new(index.clone(), cfg).unwrap(),
                RuntimeConfig {
                    n_workers: 2,
                    queue_capacity: CLIENTS * WINDOW,
                    ..Default::default()
                },
            );
            let served: Vec<_> = std::thread::scope(|scope| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let (server, ds) = (&server, &ds);
                        scope.spawn(move || {
                            widen_race_windows();
                            let mut pending = std::collections::VecDeque::new();
                            let mut served = Vec::new();
                            for i in 0.. {
                                if pending.len() == WINDOW {
                                    let (tag, qi, rx) = pending.pop_front().unwrap();
                                    served.push(take_reply(tag, qi, rx));
                                }
                                let qi = (c + CLIENTS * i) % ds.queries.len();
                                match server.submit(ds.queries.get(qi).to_vec()) {
                                    Ok((tag, rx)) => pending.push_back((tag, qi, rx)),
                                    Err(SubmitError::ShuttingDown) => break,
                                    Err(e) => panic!("client {c}: unexpected {e}"),
                                }
                                std::thread::yield_now();
                            }
                            // Once refused, always refused.
                            let again = server.submit(ds.queries.get(0).to_vec());
                            assert_eq!(again.unwrap_err(), SubmitError::ShuttingDown);
                            for (tag, qi, rx) in pending {
                                served.push(take_reply(tag, qi, rx));
                            }
                            served
                        })
                    })
                    .collect();
                while server.stats().completed < 64 {
                    std::thread::yield_now();
                }
                server.shutdown();
                clients.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            let s = server.stats();
            assert_eq!(s.submitted, served.len() as u64, "round {round}: an accepted query lost");
            assert_eq!(s.completed, s.submitted, "round {round}");
            // Every worker has been joined, so every reply channel is
            // closed: anything still queued would be a second reply.
            for (_, reply, rx) in &served {
                let tag = reply.tag;
                assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected), "{tag} answered twice");
            }
            let mut tags: Vec<u64> = served.iter().map(|(_, r, _)| r.tag).collect();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(tags.len(), served.len(), "round {round}: one reply per tag");
            // Replies belong to their own queries: each matches the
            // engine's answer for that query and tag, and overlaps the
            // brute-force TopK within the engine's recall floor.
            for (qi, reply, _) in &served {
                let q = ds.queries.get(*qi);
                assert_eq!(reply.ids, oracle.search(q, reply.tag), "round {round} query {qi}");
                let exact = exact_topk(q);
                hits += reply.ids.iter().filter(|id| exact.contains(id)).count();
            }
            answered += served.len();
        }
        let recall = hits as f64 / (8 * answered) as f64;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn backpressure_reports_queue_full() {
        let ds = DatasetSpec::tiny(300, 8, Metric::L2, 77).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg = EngineConfig { k: 4, l: 16, slots: 1, ..Default::default() };
        let engine = AlgasEngine::new(index, cfg).unwrap();
        let server = AlgasServer::start(
            engine,
            RuntimeConfig { n_workers: 1, queue_capacity: 1, ..Default::default() },
        );
        // Flood faster than one slot can drain; eventually QueueFull.
        let mut rejections = 0u64;
        let mut rxs = Vec::new();
        for i in 0..200 {
            match server.submit(ds.queries.get(i % ds.queries.len()).to_vec()) {
                Ok((_, rx)) => rxs.push(rx),
                Err(SubmitError::QueueFull) => rejections += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(rejections > 0, "bounded queue never filled");
        // Every rejection is counted, in both exposition surfaces.
        assert_eq!(server.stats().rejected_queue_full, rejections);
        assert_eq!(server.runtime_stats().rejected_queue_full, rejections);
        assert_eq!(server.stats().submitted, 200 - rejections);
        server.shutdown();
        for rx in rxs {
            assert!(rx.recv().is_ok());
        }
    }
}
