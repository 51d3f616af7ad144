//! The three workloads. Each generates its inputs from the seed, sets
//! up several times, measures for the run length, checks every answer
//! and fills the ledger; a traced run adds the per-layer pass.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use algas_core::engine::AlgasEngine;
use algas_core::merge::MergeScratch;
use algas_core::net::NetServer;
use algas_core::runtime::AlgasServer;
use algas_vector::{GeneratedDataset, Metric, QuantizedStore, VectorStore};

use crate::check::{self, Checker, Violation};
use crate::gen::{Driver, Outcome, Pass};
use crate::host;
use crate::layers::{self, KernelNs, SearchLayer, StatsDelta};
use crate::report::Ledger;
use crate::setup::{self, Live, SetupTimes};
use crate::spec::{
    derive, Drive, Pins, Workload, HEAVY_QPS, K, LADDER_MAX_PASSES, LADDER_STEP, LIGHT_QPS,
    MIN_ACHIEVED_SHARE, SETUPS, SLO_P99_US, TAIL,
};
use crate::stats::{median, windowed_rate, Samples, Series};
use crate::trace::{SpanId, Tracer};

/// One run's parameters.
pub struct Run {
    /// The workload.
    pub w: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Pinned constants.
    pub pins: Pins,
    /// Where index files and the span/ledger dumps go.
    pub out_dir: PathBuf,
}

/// What a run produced.
pub struct Outputs {
    /// Every metric measured.
    pub ledger: Ledger,
    /// Failed correctness checks.
    pub violations: Vec<Violation>,
    /// Operations attempted in the measured passes.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The spans of a traced run.
    pub spans: Tracer,
}

/// A drive's own outcome, before the common metrics are added.
#[derive(Default)]
struct Tally {
    violations: Vec<Violation>,
    attempted: u64,
    failed: u64,
}

/// Runs workload `run.w`.
///
/// The in-process and batch drives measure a third of the run on each
/// of the [`SETUPS`] set-ups, so the measurement spans the whole run
/// and samples more states of the shared host; `serve-net` measures on
/// the last set-up.
///
/// # Errors
/// Set-up or connection failures.
pub fn run(run: &Run) -> std::io::Result<Outputs> {
    let ds = run.w.dataset(run.seed).generate();
    let truth = ground_truth(&ds.base, &ds.queries);
    let mut tr = Tracer::new(run.trace, Instant::now());
    let mut ledger = Ledger::default();
    let mut checker = Checker::new(&ds.base, &ds.queries, &truth, Metric::L2, K);
    let mut spare = checker.fresh();
    let part_s = run.seconds / SETUPS as f64;
    let (mut setups, mut setup_spans, mut twin) = (Vec::new(), 0, None);
    let mut parts = Parts::default();
    let mut tally = Tally::default();
    for i in 0..SETUPS {
        let path = setup::index_path(&run.out_dir, run.w, run.seed, i);
        let spans_before = tr.len();
        let (live, t) = setup::run(run.w, ds.base.clone(), ds.queries.get(0), &path, &mut tr)?;
        setup_spans += tr.len() - spans_before;
        if i + 1 == SETUPS && run.trace {
            twin = Some(algas_core::AlgasIndex::load(&path)?);
        }
        std::fs::remove_file(&path)?;
        setups.push(t);
        let offset = i as f64 * part_s;
        match live {
            Live::Server(server) => {
                lowlat_part(
                    run,
                    &ds,
                    &server,
                    offset,
                    &mut parts,
                    &mut checker,
                    &mut spare,
                    &mut tr,
                );
                server.shutdown();
            }
            Live::Engine(engine) => {
                batch_part(run, &ds, &engine, offset, &mut parts, &mut checker, &mut spare, &mut tr)
            }
            Live::Net(net, server) if i + 1 == SETUPS => {
                let r = serve_net(run, &ds, &net, &mut checker, &mut ledger, &mut tr);
                Live::Net(net, server).stop();
                tally = r?;
            }
            net => net.stop(),
        }
    }
    match run.w.drive {
        Drive::InProc => tally = lowlat_finish(run, parts, &checker, &spare, &mut ledger),
        Drive::Batch => tally = batch_finish(run, parts, &checker, &spare, &mut ledger),
        Drive::Net => {}
    }
    ledger.put("recall_at_10", "ratio", checker.recall(), checker.answers());
    tally.violations.extend(checker.finish(run.pins.recall_floor(run.w.name)));
    setup_metrics(&mut ledger, &setups);
    ledger.put("rss_mb", "MB", host::peak_rss_mb(), 1);
    if let Some(twin) = twin {
        per_layer(run, &ds, &twin, &mut ledger, &mut tr, setup_spans as f64 / SETUPS as f64);
    }
    Ok(Outputs {
        ledger,
        violations: tally.violations,
        attempted: tally.attempted,
        failed: tally.failed,
        spans: tr,
    })
}

/// The in-process and batch drives' measurements, one part per
/// set-up, each part's times shifted by its offset into the run.
#[derive(Default)]
struct Parts {
    /// The measured passes (traced in a traced run).
    measured: Measured,
    /// The untraced passes of a traced run, for the overhead.
    untraced: Measured,
    /// The runtime's counters over the measured passes.
    delta: Option<StatsDelta>,
}

/// One drive's measured passes: latencies, completions, counts.
#[derive(Default)]
struct Measured {
    /// Latency per answered query, µs, stamped with its completion.
    latency: Series,
    /// Completion offsets from the start of the run, s.
    done_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Search-layer figures (batch drive).
    layer: SearchLayer,
}

impl Measured {
    /// Appends `part`, which started `offset` seconds into the run.
    fn append(&mut self, part: Measured, offset: f64) {
        self.latency.append(part.latency, offset);
        self.done_s.extend(part.done_s.iter().map(|t| t + offset));
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.layer.absorb(part.layer);
    }
}

/// Exact top-k of every query by brute force with `Metric::distance`,
/// split over `nproc` threads; computed before anything is timed.
pub fn ground_truth(base: &VectorStore, queries: &VectorStore) -> Vec<Vec<u32>> {
    let threads = host::nproc().max(1);
    let mut truth = vec![Vec::new(); queries.len()];
    std::thread::scope(|s| {
        for (t, chunk) in truth.chunks_mut(queries.len().div_ceil(threads)).enumerate() {
            let first = t * queries.len().div_ceil(threads);
            s.spawn(move || {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let q = queries.get(first + j);
                    let mut d: Vec<(f32, u32)> = (0..base.len())
                        .map(|i| (Metric::L2.distance(q, base.get(i)), i as u32))
                        .collect();
                    d.select_nth_unstable_by(K - 1, |a, b| a.0.total_cmp(&b.0));
                    d.truncate(K);
                    d.sort_by(|a, b| a.0.total_cmp(&b.0));
                    *slot = d.into_iter().map(|(_, i)| i).collect();
                }
            });
        }
    });
    truth
}

fn setup_metrics(ledger: &mut Ledger, setups: &[SetupTimes]) {
    let n = setups.len() as u64;
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    ledger.put("setup_s", "s", med(|t| t.total), n);
    ledger.put("graph.build_s", "s", med(|t| t.build), n);
    ledger.put("persist.save_s", "s", med(|t| t.save), n);
    ledger.put("persist.load_s", "s", med(|t| t.load), n);
    ledger.put("persist.file_mb", "MB", med(|t| t.file_mb), n);
    ledger.put("engine.new_s", "s", med(|t| t.engine), n);
    ledger.put("runtime.start_s", "s", med(|t| t.start), n);
    ledger.put("setup.first_query_s", "s", med(|t| t.first_query), n);
    if setups.iter().any(|t| t.quantize > 0.0) {
        ledger.put("quant.encode_s", "s", med(|t| t.quantize), n);
    }
}

/// Puts the windowed p50, p95 and p99 of `s` under `prefix`.
fn put_latency(ledger: &mut Ledger, prefix: &str, s: &Series) {
    let n = s.len() as u64;
    ledger.put(format!("{prefix}_p50_us"), "us", s.median(), n);
    ledger.put(format!("{prefix}_p95_us"), "us", s.quantile(0.95), n);
    ledger.put(format!("{prefix}_p99_us"), "us", s.quantile(0.99), n);
}

// ---------------------------------------------------------------- lowlat

/// Windows a run's throughput is the median over.
const RATE_WINDOWS: usize = 10;

/// One client, closed loop, one query in flight, for `seconds`.
fn closed_loop(
    server: &AlgasServer,
    queries: &VectorStore,
    seconds: f64,
    checker: &mut Checker,
    tr: &mut Tracer,
) -> Measured {
    let mut out = Measured { latency: Series::new(seconds), ..Measured::default() };
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while Instant::now() < until {
        let qid = i as usize % queries.len();
        let query = queries.get(qid).to_vec();
        out.attempted += 1;
        let req = tr.open("request", SpanId::NONE, i);
        let t0 = Instant::now();
        let s = tr.open("runtime.submit", req, i);
        let submitted = server.submit(query);
        tr.close(s);
        let reply = submitted.ok().and_then(|(_, rx)| {
            let w = tr.open("reply.wait", req, i);
            let r = rx.recv().ok();
            tr.close(w);
            r
        });
        let t1 = Instant::now();
        tr.close(req);
        match reply {
            Some(r) => {
                let done = (t1 - start).as_secs_f64();
                out.latency.push(done, (t1 - t0).as_secs_f64() * 1e6);
                out.done_s.push(done);
                checker.answer(qid, &r.ids, &r.distances);
            }
            None => out.failed += 1,
        }
        i += 1;
    }
    out
}

/// One part of the in-process drive on `server`: a warm-up, then in a
/// traced run an untraced pass, then the measured pass.
#[allow(clippy::too_many_arguments)]
fn lowlat_part(
    run: &Run,
    ds: &GeneratedDataset,
    server: &AlgasServer,
    offset: f64,
    parts: &mut Parts,
    checker: &mut Checker,
    spare: &mut Checker,
    tr: &mut Tracer,
) {
    // Warm the runtime's threads and caches; not measured or checked.
    for qid in 0..200 {
        let (_, rx) = server.submit(ds.queries.get(qid).to_vec()).expect("warm-up submit");
        rx.recv().expect("warm-up reply");
    }
    let part_s = run.seconds / SETUPS as f64;
    if run.trace {
        let mut off = Tracer::new(false, tr.epoch());
        parts.untraced.append(closed_loop(server, &ds.queries, part_s, spare, &mut off), offset);
    }
    let before = server.runtime_stats();
    parts.measured.append(closed_loop(server, &ds.queries, part_s, checker, tr), offset);
    let delta = StatsDelta::between(&before, &server.runtime_stats());
    match &mut parts.delta {
        Some(d) => d.merge(&delta),
        None => parts.delta = Some(delta),
    }
}

fn lowlat_finish(
    run: &Run,
    parts: Parts,
    checker: &Checker,
    spare: &Checker,
    ledger: &mut Ledger,
) -> Tally {
    let m = &parts.measured;
    let qps = windowed_rate(&m.done_s, run.seconds, RATE_WINDOWS);
    put_latency(ledger, "latency", &m.latency);
    ledger.put("throughput_qps", "1/s", qps, m.latency.len() as u64);
    ledger.put("failed_share", "ratio", m.failed as f64 / m.attempted.max(1) as f64, m.attempted);
    if run.trace {
        let u = &parts.untraced;
        let u_qps = windowed_rate(&u.done_s, run.seconds, RATE_WINDOWS);
        overhead(ledger, "latency_p50_us", m.latency.median(), u.latency.median());
        overhead(ledger, "latency_p95_us", m.latency.quantile(TAIL), u.latency.quantile(TAIL));
        overhead(ledger, "throughput_qps", qps, u_qps);
        overhead(ledger, "recall_at_10", checker.recall(), spare.recall());
        runtime_layer(ledger, "runtime", parts.delta.as_ref().expect("one part per set-up"));
    }
    Tally { violations: Vec::new(), attempted: m.attempted, failed: m.failed }
}

/// `trace.overhead_pct.<metric>`: traced minus untraced, as a percent
/// of untraced.
fn overhead(ledger: &mut Ledger, metric: &str, traced: f64, untraced: f64) {
    let pct = if untraced == 0.0 { 0.0 } else { (traced - untraced) / untraced * 100.0 };
    ledger.put(format!("trace.overhead_pct.{metric}"), "%", pct, 2);
}

/// Runtime phase p50/p99, idle share and flight events from a stats
/// delta, under `prefix`.
fn runtime_layer(ledger: &mut Ledger, prefix: &str, d: &StatsDelta) {
    for (name, h) in &d.phases {
        ledger.put(format!("{prefix}.{name}_us.p50"), "us", h.quantile(0.5) as f64 / 1e3, h.count);
        ledger.put(format!("{prefix}.{name}_us.p99"), "us", h.quantile(0.99) as f64 / 1e3, h.count);
    }
    ledger.put(
        format!("{prefix}.idle_pass_share"),
        "ratio",
        d.idle_passes as f64 / d.passes.max(1) as f64,
        d.passes,
    );
    ledger.put(
        format!("{prefix}.flight_events_per_query"),
        "count",
        d.flight_events as f64 / d.completed.max(1) as f64,
        d.completed,
    );
}

// ------------------------------------------------------------- serve-net

/// Shares of the run length given to the light pass, the heavy pass
/// and each ladder rung.
const LIGHT_SHARE: f64 = 0.5;
const HEAVY_SHARE: f64 = 0.25;
const RUNG_SHARE: f64 = 0.05;

/// One pass of the open-loop driver, with the server's counters around
/// it.
fn net_pass(
    net: &NetServer,
    drv: &mut Driver,
    pass: Pass,
    queries: &VectorStore,
) -> (Outcome, StatsDelta) {
    let before = net.runtime_stats();
    let o = drv.run(pass, queries);
    (o, StatsDelta::between(&before, &net.runtime_stats()))
}

fn serve_net(
    run: &Run,
    ds: &GeneratedDataset,
    net: &NetServer,
    checker: &mut Checker,
    ledger: &mut Ledger,
    tr: &mut Tracer,
) -> std::io::Result<Tally> {
    let mut drv = Driver::connect(net.local_addr())?;
    let pass = |rate, seconds, stream, ping_every| Pass {
        rate_qps: rate,
        seconds,
        seed: derive(run.seed, stream),
        ping_every,
    };
    // Warm-up at the light rate; not measured or checked.
    drv.run(pass(LIGHT_QPS, 1.0, 0x3A, 0), &ds.queries);

    let mut violations = Vec::new();
    let mut record = |o: &Outcome, checker: &mut Checker| {
        for (q, ids, d) in &o.answers {
            checker.answer(*q, ids, d);
        }
        violations.extend(check::counts(o.sent, o.ok, o.rejected, o.failed));
    };
    // The untraced twin of the operating points, for the overhead.
    let untraced = if run.trace {
        let mut spare = checker.fresh();
        let l = drv.run(pass(LIGHT_QPS, run.seconds * LIGHT_SHARE, 0x11, 0), &ds.queries);
        let h = drv.run(pass(HEAVY_QPS, run.seconds * HEAVY_SHARE, 0x12, 0), &ds.queries);
        record(&l, &mut spare);
        record(&h, &mut spare);
        Some((l.latency, h.achieved_qps, spare.recall()))
    } else {
        None
    };
    let ping_every = if run.trace { 10 } else { 0 };
    let (light, light_d) = net_pass(
        net,
        &mut drv,
        pass(LIGHT_QPS, run.seconds * LIGHT_SHARE, 0x11, ping_every),
        &ds.queries,
    );
    let (heavy, heavy_d) = net_pass(
        net,
        &mut drv,
        pass(HEAVY_QPS, run.seconds * HEAVY_SHARE, 0x12, ping_every),
        &ds.queries,
    );
    record(&light, checker);
    record(&heavy, checker);

    // The ladder: fixed-step rungs up from heavy, each judged on its
    // pooled client p99. A rung that misses runs once more before it
    // counts, so one stall of the shared host does not end the climb;
    // the climb ends at the first rung that misses twice. If heavy misses too, the ladder walks down instead
    // until a rung passes. `rungs` counts the passes run.
    let rung_s = run.seconds * RUNG_SHARE;
    let passes = |o: &Outcome| {
        o.rejected == 0
            && o.failed == 0
            && o.latency.pooled().quantile(0.99) <= SLO_P99_US
            && o.achieved_qps >= MIN_ACHIEVED_SHARE * o.offered_qps
    };
    let mut rungs = 0u64;
    let mut rung = |rate: f64, rungs: &mut u64| {
        (0..2).any(|_| {
            let o = drv.run(pass(rate, rung_s, 0x100 + *rungs, 0), &ds.queries);
            record(&o, checker);
            *rungs += 1;
            passes(&o)
        })
    };
    let climbing = passes(&heavy) || rung(HEAVY_QPS, &mut rungs);
    let step = if climbing { 1.0 + LADDER_STEP } else { 1.0 / (1.0 + LADDER_STEP) };
    let (mut best, mut rate) = (if climbing { HEAVY_QPS } else { 0.0 }, HEAVY_QPS);
    while rungs < LADDER_MAX_PASSES {
        rate *= step;
        let ok = rung(rate, &mut rungs);
        if ok {
            best = best.max(rate);
        }
        if ok != climbing {
            break;
        }
    }
    ledger.put("max_qps_at_slo", "1/s", best, rungs);

    let (ls, hs) = (&light.latency, &heavy.latency);
    put_latency(ledger, "light", ls);
    put_latency(ledger, "heavy", hs);
    // The gated latency is the light pass: the paper's claim is low
    // latency at small batch, which idle wake-up cost decides.
    put_latency(ledger, "latency", ls);
    // The gated throughput is the rate served at heavy, not the
    // ladder's knee: on a 2-core host shared with other tenants the
    // knee of runs of one build moved between about 2 700 and 5 000 q/s.
    ledger.put("throughput_qps", "1/s", heavy.achieved_qps, heavy.ok);
    let attempted = light.sent + heavy.sent;
    let failed = light.rejected + light.failed + heavy.rejected + heavy.failed;
    ledger.put("failed_share", "ratio", failed as f64 / attempted.max(1) as f64, attempted);

    for (label, o, d, s) in [("light", &light, &light_d, ls), ("heavy", &heavy, &heavy_d, hs)] {
        gen_layer(ledger, label, o);
        if run.trace {
            net_layer(ledger, label, o, d, s, run.pins.closure_tolerance);
            request_spans(tr, o);
        }
    }
    if let Some((u, u_heavy_qps, u_recall)) = untraced {
        overhead(ledger, "latency_p50_us", ls.median(), u.median());
        overhead(ledger, "latency_p95_us", ls.quantile(TAIL), u.quantile(TAIL));
        // The ladder is not repeated: throughput compares the heavy
        // passes' achieved rates.
        overhead(ledger, "throughput_qps", heavy.achieved_qps, u_heavy_qps);
        overhead(ledger, "recall_at_10", checker.recall(), u_recall);
        ledger.put("net.codec_ns_per_request", "ns", layers::codec_ns(&ds.queries, K), 7);
    }
    Ok(Tally { violations, attempted, failed })
}

/// Spans of one traced pass, from the driver's timeline: `request` (or
/// `ping`) from due time to answer, with `gen.lag` from due to send as
/// its child — so a request's self time is its time on the wire and in
/// the server.
fn request_spans(tr: &mut Tracer, o: &Outcome) {
    for (i, st) in o.timeline.iter().enumerate() {
        let (Some(sent), Some(answered)) = (st.sent, st.answered) else { continue };
        let name = if st.ping { "ping" } else { "request" };
        let root = tr.record(name, st.due, answered, SpanId::NONE, i as u64);
        tr.record("gen.lag", st.due, sent, root, i as u64);
    }
}

/// The load driver's own figures for one pass.
fn gen_layer(ledger: &mut Ledger, label: &str, o: &Outcome) {
    let lag = Samples::new(o.lag_us.clone());
    let n = lag.len() as u64;
    ledger.put(format!("gen.{label}.lag_us.p50"), "us", lag.median(), n);
    ledger.put(format!("gen.{label}.lag_us.p99"), "us", lag.quantile(0.99), n);
    ledger.put(format!("gen.{label}.sent"), "count", o.sent as f64, n);
    ledger.put(format!("gen.{label}.ok"), "count", o.ok as f64, n);
    ledger.put(format!("gen.{label}.rejected"), "count", o.rejected as f64, n);
    ledger.put(format!("gen.{label}.failed"), "count", o.failed as f64, n);
    ledger.put(format!("gen.{label}.unexpected"), "count", o.unexpected as f64, n);
    ledger.put(format!("gen.{label}.offered_qps"), "1/s", o.offered_qps, n);
    ledger.put(format!("gen.{label}.achieved_qps"), "1/s", o.achieved_qps, n);
}

/// Net tax, server phases, and the closure of one traced pass: the
/// client p50 against the PING round trip (socket + net loop under the
/// same load) plus the server's phase medians.
fn net_layer(
    ledger: &mut Ledger,
    label: &str,
    o: &Outcome,
    d: &StatsDelta,
    client: &Series,
    tolerance: f64,
) {
    runtime_layer(ledger, &format!("runtime.{label}"), d);
    let e2e = |q| d.phase_us("end_to_end", q);
    ledger.put(
        format!("net.{label}.tax_us.p50"),
        "us",
        client.median() - e2e(0.5),
        client.len() as u64,
    );
    ledger.put(
        format!("net.{label}.tax_us.p99"),
        "us",
        client.quantile(0.99) - e2e(0.99),
        client.len() as u64,
    );
    let ping = Samples::new(o.ping_us.clone());
    ledger.put(format!("net.{label}.ping_rtt_us.p50"), "us", ping.median(), ping.len() as u64);
    ledger.put(
        format!("net.{label}.bytes_per_request"),
        "B",
        d.bytes as f64 / d.frames_in.max(1) as f64,
        d.frames_in,
    );
    ledger.put(format!("net.{label}.rejects"), "count", d.rejects as f64, d.frames_in);
    ledger.put(
        format!("net.{label}.protocol_errors"),
        "count",
        d.protocol_errors as f64,
        d.frames_in,
    );
    let phases: f64 = [
        "submit_to_slot",
        "slot_to_work",
        "work_to_finish",
        "finish_to_merged",
        "merged_to_delivered",
    ]
    .iter()
    .map(|p| d.phase_us(p, 0.5))
    .sum();
    closure(ledger, &format!("{label}_p50_us"), client.median(), ping.median() + phases, tolerance);
}

/// Records a closure check: `parts` should add back to `whole`.
fn closure(ledger: &mut Ledger, metric: &str, whole: f64, parts: f64, tolerance: f64) {
    let residual = (whole - parts) / whole.max(1e-9);
    ledger.put(format!("closure.{metric}.parts_us"), "us", parts, 1);
    ledger.put(format!("closure.{metric}.residual_share"), "ratio", residual, 1);
    ledger.put(
        format!("closure.{metric}.pass"),
        "bool",
        f64::from(u8::from(residual.abs() <= tolerance)),
        1,
    );
}

// --------------------------------------------------------- batch-sq8-gist

/// Caller-thread passes per part. Each starts fresh threads, so a run
/// samples several placements of them on the shared cores.
const BATCH_SUBPASSES: usize = 3;

/// One part of the batch drive on `engine`: [`BATCH_SUBPASSES`] passes,
/// each in a traced run preceded by an untraced one; every answer is
/// checked.
#[allow(clippy::too_many_arguments)]
fn batch_part(
    run: &Run,
    ds: &GeneratedDataset,
    engine: &AlgasEngine,
    offset: f64,
    parts: &mut Parts,
    checker: &mut Checker,
    spare: &mut Checker,
    tr: &mut Tracer,
) {
    let sub_s = run.seconds / (SETUPS * BATCH_SUBPASSES) as f64;
    for j in 0..BATCH_SUBPASSES {
        let at = offset + j as f64 * sub_s;
        if run.trace {
            let (pass, answers, _) = callers(engine, &ds.queries, sub_s, false, tr.epoch());
            for (q, ids, d) in &answers {
                spare.answer(*q, ids, d);
            }
            parts.untraced.append(pass, at);
        }
        let (pass, answers, spans) = callers(engine, &ds.queries, sub_s, run.trace, tr.epoch());
        for (q, ids, d) in &answers {
            checker.answer(*q, ids, d);
        }
        parts.measured.append(pass, at);
        tr.absorb(spans);
    }
}

fn batch_finish(
    run: &Run,
    parts: Parts,
    checker: &Checker,
    spare: &Checker,
    ledger: &mut Ledger,
) -> Tally {
    let m = &parts.measured;
    let completed = m.latency.len() as u64;
    let qps = windowed_rate(&m.done_s, run.seconds, RATE_WINDOWS);
    put_latency(ledger, "latency", &m.latency);
    ledger.put("batch_qps", "1/s", qps, completed);
    ledger.put("throughput_qps", "1/s", qps, completed);
    ledger.put("failed_share", "ratio", 0.0, completed);
    if run.trace {
        let u = &parts.untraced;
        overhead(ledger, "latency_p50_us", m.latency.median(), u.latency.median());
        overhead(ledger, "latency_p95_us", m.latency.quantile(TAIL), u.latency.quantile(TAIL));
        overhead(
            ledger,
            "throughput_qps",
            qps,
            windowed_rate(&u.done_s, run.seconds, RATE_WINDOWS),
        );
        overhead(ledger, "recall_at_10", checker.recall(), spare.recall());
        search_layer(ledger, &m.layer);
    }
    Tally { violations: Vec::new(), attempted: completed, failed: 0 }
}

/// `nproc` caller threads, each with its own scratch, walking the
/// query set from its own offset for `seconds`. Each thread's first
/// walk covers a fixed share of the queries exactly once; the counts
/// come from that walk, so they repeat exactly for a fixed seed.
/// Returns the pass (latency = `search_into` time per query), the
/// answers to check, and the threads' spans.
fn callers(
    engine: &AlgasEngine,
    queries: &VectorStore,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> (Measured, Vec<crate::gen::Answer>, Tracer) {
    let threads = host::nproc().max(1);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    type PerThread = (SearchLayer, Vec<crate::gen::Answer>, Vec<f64>, Tracer);
    let results: Vec<PerThread> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch);
                    let mut layer = SearchLayer::default();
                    let (mut answers, mut done_s) = (Vec::new(), Vec::new());
                    let mut scratch = engine.make_scratch();
                    let mut merge = MergeScratch::new();
                    let mut merged = Vec::new();
                    let n = queries.len();
                    let mut i = 0usize;
                    loop {
                        // Thread t walks t, t+T, t+2T, ...; the first
                        // walk is exactly its share of the query set,
                        // and is finished even past `seconds`.
                        let k = t + i * threads;
                        let first_walk = k < n;
                        if !first_walk && Instant::now() >= until {
                            break;
                        }
                        let qid = k % n;
                        let before = (scratch.rerank.candidates, scratch.rerank.promotions);
                        let span = tr.open("query", SpanId::NONE, qid as u64);
                        let s_in = tr.open("search_into", span, qid as u64);
                        let t0 = Instant::now();
                        engine.search_into(queries.get(qid), qid as u64, &mut scratch);
                        let t1 = Instant::now();
                        layer.service_us.push((t1 - t0).as_secs_f64() * 1e6);
                        done_s.push((t1 - start).as_secs_f64());
                        tr.close(s_in);
                        if traced {
                            let m = tr.open("merge.rerun", span, qid as u64);
                            let stats_before = merge.stats;
                            layer.merge_us.push(layers::rerun_merge(
                                engine,
                                &scratch,
                                &mut merge,
                                &mut merged,
                            ));
                            if first_walk {
                                layer.merge.merge(&merge.stats.since(&stats_before));
                            }
                            tr.close(m);
                        }
                        if first_walk {
                            layer.count(&scratch, before);
                        }
                        tr.close(span);
                        let (ids, d) = scratch.topk.iter().map(|&(d, id)| (id, d.0)).unzip();
                        answers.push((qid, ids, d));
                        i += 1;
                    }
                    (layer, answers, done_s, tr)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
    });
    let mut pass = Measured { latency: Series::new(seconds), ..Measured::default() };
    let (mut answers, mut spans) = (Vec::new(), Tracer::new(traced, epoch));
    for (layer, a, done_s, tr) in results {
        for (&t, &v) in done_s.iter().zip(&layer.service_us) {
            pass.latency.push(t, v);
        }
        pass.attempted += a.len() as u64;
        pass.done_s.extend(done_s);
        pass.layer.absorb(layer);
        answers.extend(a);
        spans.absorb(tr);
    }
    (pass, answers, spans)
}

// ------------------------------------------------------------- per layer

/// Search, merge and rerank figures from a [`SearchLayer`].
fn search_layer(ledger: &mut Ledger, l: &SearchLayer) {
    let service = Samples::new(l.service_us.clone());
    let n = service.len() as u64;
    ledger.put("search.service_us.p50", "us", service.median(), n);
    ledger.put("search.service_us.p99", "us", service.quantile(0.99), n);
    let per_q = |v: u64| v as f64 / l.counted.max(1) as f64;
    ledger.put("search.hops_per_query", "count", per_q(l.steps.steps), l.counted);
    ledger.put("search.dist_evals_per_query", "count", per_q(l.steps.dist_evals), l.counted);
    ledger.put("search.expansions_per_query", "count", per_q(l.steps.expansions), l.counted);
    ledger.put("search.sorts_per_query", "count", per_q(l.steps.sorts), l.counted);
    let merge = Samples::new(l.merge_us.clone());
    ledger.put("merge.us_per_query", "us", merge.mean(), merge.len() as u64);
    ledger.put(
        "merge.dup_share",
        "ratio",
        l.merge.dupes_dropped as f64 / l.merge.elements.max(1) as f64,
        l.merge.elements,
    );
    ledger.put("rerank.candidates_per_query", "count", per_q(l.rerank_candidates), l.counted);
    ledger.put(
        "rerank.promotion_share",
        "ratio",
        l.rerank_promotions as f64 / (l.counted.max(1) * K as u64) as f64,
        l.counted,
    );
}

/// The per-layer pass of a traced run: kernel timings, the twin
/// engine's search pass (in-process and net drives), derived shares,
/// closure and self times.
fn per_layer(
    run: &Run,
    ds: &GeneratedDataset,
    twin: &algas_core::AlgasIndex,
    ledger: &mut Ledger,
    tr: &mut Tracer,
    spans_per_setup: f64,
) {
    // Vector kernels on the workload's own rows.
    let t = Instant::now();
    let quant = match &twin.quant {
        Some(q) => q.clone(),
        None => QuantizedStore::from_store(&twin.base),
    };
    if twin.quant.is_none() {
        ledger.put("quant.encode_s", "s", t.elapsed().as_secs_f64(), 1);
    }
    let k: KernelNs = layers::kernels(&twin.base, &quant, &ds.queries, run.seed);
    ledger.put("vector.fp32_ns_per_dist.hot", "ns", k.fp32_hot, 7);
    ledger.put("vector.fp32_ns_per_dist.cold", "ns", k.fp32_cold, 7);
    ledger.put("vector.sq8_ns_per_dist.cold", "ns", k.sq8_cold, 7);

    if run.w.drive != Drive::Batch {
        let engine =
            AlgasEngine::new(twin.clone(), setup::engine_config(run.w)).expect("twin engine tunes");
        let layer = layers::twin_pass(&engine, &ds.queries, 3);
        search_layer(ledger, &layer);
    }
    let evals = ledger.get("search.dist_evals_per_query").unwrap_or(0.0);
    let rerank = ledger.get("rerank.candidates_per_query").unwrap_or(0.0);
    let traversal_ns = if run.w.quantize { k.sq8_cold } else { k.fp32_cold };
    let service = ledger.get("search.service_us.p50").unwrap_or(0.0);
    ledger.put(
        "search.vector_share",
        "ratio",
        (evals * traversal_ns + rerank * k.fp32_cold) / (service * 1e3).max(1e-9),
        1,
    );

    if run.w.drive == Drive::InProc {
        // latency ≈ search service + host merge + runtime handoff.
        let latency = ledger.get("latency_p50_us").unwrap_or(0.0);
        let handoff: f64 =
            ["submit_to_slot", "slot_to_work", "finish_to_merged", "merged_to_delivered"]
                .iter()
                .map(|p| ledger.get(&format!("runtime.{p}_us.p50")).unwrap_or(0.0))
                .sum();
        ledger.put("runtime.handoff_us.p50", "us", latency - service, 1);
        closure(ledger, "latency_p50_us", latency, service + handoff, run.pins.closure_tolerance);
    }

    // Tracing overhead on the set-up and on memory, from the measured
    // cost and size of a span.
    let per_span = span_cost_ns();
    let setup_s = ledger.get("setup_s").unwrap_or(1.0);
    ledger.put(
        "trace.overhead_pct.setup_s",
        "%",
        spans_per_setup * per_span / 1e9 / setup_s * 100.0,
        1,
    );
    let rss = ledger.get("rss_mb").unwrap_or(1.0);
    ledger.put(
        "trace.overhead_pct.rss_mb",
        "%",
        tr.bytes() as f64 / 1e6 / rss * 100.0,
        tr.len() as u64,
    );
    ledger.put("trace.span_ns", "ns", per_span, 7);

    for (name, selfs) in tr.self_times_us() {
        let s = Samples::new(selfs);
        ledger.put(format!("self_us.{name}.p50"), "us", s.median(), s.len() as u64);
    }
}

/// Measured cost of one span open + close, ns.
fn span_cost_ns() -> f64 {
    let reps: Vec<f64> = (0..7)
        .map(|_| {
            let mut t = Tracer::new(true, Instant::now());
            let start = Instant::now();
            for i in 0..10_000u64 {
                let s = t.open("x", SpanId::NONE, i);
                t.close(s);
            }
            start.elapsed().as_nanos() as f64 / 10_000.0
        })
        .collect();
    median(&reps)
}
