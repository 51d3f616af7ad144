//! `figures bench_net`: the network front end under open-loop load →
//! `BENCH_net.json`.
//!
//! Three measurements over one synthetic corpus:
//!
//! 1. **Capacity calibration** — closed-loop waves through the bare
//!    runtime establish the corpus's sustainable throughput; every
//!    open-loop target below is a fraction of it.
//! 2. **TCP tax at moderate load** — the *same* seeded Poisson
//!    schedule replayed two ways: submitted in-process (no sockets)
//!    and through `NetServer` + the pipelined client over loopback.
//!    Both runs use a fresh runtime, so their *server-side*
//!    submit→delivered p99s are directly comparable; the acceptance
//!    bound is that the network path inflates server-side p99 by at
//!    most 15% (the readiness loop must not perturb the hot path).
//!    Client-side p50/p99 for the TCP run quantify the loopback+codec
//!    round-trip itself.
//! 3. **Load curve** — the open-loop generator swept across a ladder
//!    of target rates (fractions of calibrated capacity, crossing it)
//!    on a fresh runtime per sweep, producing the classic
//!    latency-vs-offered-load curve: client p50/p99 and reject counts
//!    per rung under `"load_curve"`.
//! 4. **Overload** — the open-loop generator at a multiple of capacity
//!    against a deliberately small in-flight budget. Backpressure must
//!    convert the overload into RETRY_AFTER rejects (counted in obs)
//!    while the *accepted* requests keep a bounded tail — instead of
//!    every client watching its p99 diverge with the backlog.

use std::sync::Arc;
use std::time::{Duration, Instant};

use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas_core::net::loadgen::{self, LoadConfig, LoadReport};
use algas_core::net::{NetConfig, NetServer};
use algas_core::obs::json::{obj, Value};
use algas_core::obs::RuntimeStats;
use algas_core::runtime::{AlgasServer, RuntimeConfig};
use algas_graph::cagra::CagraParams;
use algas_vector::datasets::{DatasetSpec, GeneratedDataset};
use algas_vector::Metric;

const DIM: usize = 64;
const K: usize = 10;
const L: usize = 64;
const SEED: u64 = 0xB1A5;

/// Worker parallelism scaled to the machine: on a single hardware
/// thread, extra runtime threads only add context switching — and the
/// network path brings its own readiness-loop and client threads on
/// top.
fn runtime_config(queue_capacity: usize) -> RuntimeConfig {
    let par = std::thread::available_parallelism().map_or(1, |n| n.get());
    RuntimeConfig { n_workers: if par >= 4 { 2 } else { 1 }, queue_capacity, ..Default::default() }
}

fn start_runtime(index: &AlgasIndex, queue_capacity: usize) -> AlgasServer {
    let cfg = EngineConfig { k: K, l: L, slots: 16, ..Default::default() };
    let engine = AlgasEngine::new(index.clone(), cfg).expect("tuning");
    AlgasServer::start(engine, runtime_config(queue_capacity))
}

/// Closed-loop waves through the bare runtime: the sustainable q/s the
/// open-loop targets are scaled against.
fn calibrate_capacity_qps(index: &AlgasIndex, ds: &GeneratedDataset) -> f64 {
    let server = start_runtime(index, 4096);
    let waves = 6;
    let t0 = Instant::now();
    for _ in 0..waves {
        let pending: Vec<_> = (0..ds.queries.len())
            .map(|qi| server.submit(ds.queries.get(qi).to_vec()).expect("submit").1)
            .collect();
        for rx in pending {
            rx.recv().expect("reply");
        }
    }
    let qps = (waves * ds.queries.len()) as f64 / t0.elapsed().as_secs_f64();
    server.shutdown();
    qps
}

/// Replays the identical Poisson schedule the TCP generator uses, but
/// through direct `submit` calls — the no-network twin of `run_load`.
/// Returns the runtime's stats (server-side phases) plus offered /
/// completed counts.
fn run_inproc_open_loop(
    server: &AlgasServer,
    ds: &GeneratedDataset,
    qps: f64,
    requests: usize,
    seed: u64,
) -> (usize, usize) {
    let schedule = loadgen::poisson_schedule(qps, requests, seed);
    let epoch = Instant::now();
    // Server-side phases are stamped by the runtime regardless of when
    // the caller drains its reply channel, so the sender just paces the
    // schedule and the backlog of receivers is drained afterwards — no
    // per-request client threads perturbing the measurement.
    let mut pending = Vec::with_capacity(requests);
    for (i, &at_ns) in schedule.iter().enumerate() {
        let at = Duration::from_nanos(at_ns);
        let now = epoch.elapsed();
        if at > now {
            std::thread::sleep(at - now);
        }
        let query = ds.queries.get(i % ds.queries.len()).to_vec();
        if let Ok((_, rx)) = server.submit(query) {
            pending.push(rx);
        }
    }
    let offered = pending.len();
    let completed = pending.into_iter().filter(|rx| rx.recv().is_ok()).count();
    (offered, completed)
}

fn p99_us(stats: &RuntimeStats) -> f64 {
    stats.phases.end_to_end.quantile(0.99) as f64 / 1e3
}

fn report_fields(report: &LoadReport) -> Vec<(&'static str, Value)> {
    vec![
        ("offered", Value::Uint(report.offered as u64)),
        ("completed", Value::Uint(report.completed as u64)),
        ("rejected", Value::Uint(report.rejected as u64)),
        ("errors", Value::Uint(report.errors as u64)),
        ("measured", Value::Uint(report.measured as u64)),
        ("achieved_qps", Value::Num(report.achieved_qps)),
        ("client_p50_us", Value::Num(report.p50_us())),
        ("client_p99_us", Value::Num(report.p99_us())),
        ("slo_attainment", Value::Num(report.attainment)),
    ]
}

/// Runs the network benchmark at `scale` and writes `out_path`.
#[allow(clippy::too_many_lines)]
pub fn run(scale: f64, out_path: &str) {
    let n_base = ((20_000.0 * scale) as usize).max(2_000);
    let spec = DatasetSpec {
        name: "net-bench".into(),
        n_base,
        n_queries: 256,
        dim: DIM,
        metric: Metric::L2,
        clusters: 32,
        spread: 0.55,
        seed: SEED,
    };
    eprintln!("generating {n_base} x {DIM} corpus ...");
    let ds = spec.generate();
    let t0 = Instant::now();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    eprintln!("built CAGRA index in {:.1?}", t0.elapsed());

    let capacity_qps = calibrate_capacity_qps(&index, &ds);
    eprintln!("closed-loop capacity ≈ {capacity_qps:.0} q/s");

    // ── TCP tax: identical schedule, in-process vs over loopback ─────
    // A third of closed-loop capacity: solidly loaded (queueing is
    // real) but with enough headroom that the comparison measures the
    // front end, not CPU starvation of the workers by client threads.
    let moderate_qps = (capacity_qps / 3.0).max(200.0);
    let requests = ((moderate_qps * 1.5) as usize).clamp(1_000, 20_000);
    let slo = Duration::from_micros(20_000);

    eprintln!("in-process open loop: {moderate_qps:.0} q/s, {requests} requests ...");
    let inproc_server = start_runtime(&index, 4096);
    let (inproc_offered, inproc_completed) =
        run_inproc_open_loop(&inproc_server, &ds, moderate_qps, requests, SEED);
    let inproc_stats = inproc_server.runtime_stats();
    inproc_server.shutdown();
    let inproc_p99 = p99_us(&inproc_stats);
    eprintln!(
        "  {inproc_completed}/{inproc_offered} completed; server-side e2e p99 {inproc_p99:.1} µs"
    );

    eprintln!("network open loop: same schedule over loopback ...");
    let net_runtime = Arc::new(start_runtime(&index, 4096));
    let net = NetServer::start("127.0.0.1:0", Arc::clone(&net_runtime), NetConfig::default())
        .expect("bind loopback");
    let queries: Vec<Vec<f32>> =
        (0..ds.queries.len()).map(|i| ds.queries.get(i).to_vec()).collect();
    let moderate_cfg = LoadConfig {
        target_qps: moderate_qps,
        requests,
        connections: 1,
        seed: SEED,
        warmup_fraction: 0.2,
        slo: Some(slo),
        ..Default::default()
    };
    let moderate = loadgen::run_load(net.local_addr(), &queries, &moderate_cfg).expect("load run");
    let net_side = net.runtime_stats();
    net.stop();
    drop(net_runtime);
    let net_p99 = p99_us(&net_side);
    let tax_ratio = if inproc_p99 > 0.0 { net_p99 / inproc_p99 } else { 0.0 };
    eprintln!(
        "  {}/{} completed, {} rejected; server-side e2e p99 {net_p99:.1} µs \
         ({tax_ratio:.3}x in-process); client p50 {:.1} µs, p99 {:.1} µs",
        moderate.completed,
        moderate.offered,
        moderate.rejected,
        moderate.p50_us(),
        moderate.p99_us(),
    );

    // ── Load curve: a ladder of offered rates across capacity ────────
    // Fractions of the calibrated closed-loop capacity, deliberately
    // crossing 1.0 so the curve shows the knee: flat client latency
    // while there is headroom, then the queueing blow-up.
    let curve_fractions = [0.25, 0.5, 0.75, 1.0, 1.25];
    let curve_runtime = Arc::new(start_runtime(&index, 4096));
    let curve_net =
        NetServer::start("127.0.0.1:0", Arc::clone(&curve_runtime), NetConfig::default())
            .expect("bind loopback");
    let mut curve_rows = Vec::with_capacity(curve_fractions.len());
    for &fraction in &curve_fractions {
        let target_qps = (capacity_qps * fraction).max(100.0);
        let curve_requests = ((target_qps * 0.75) as usize).clamp(500, 10_000);
        eprintln!(
            "load curve {fraction:.2}x capacity: {target_qps:.0} q/s, {curve_requests} requests ..."
        );
        let cfg = LoadConfig {
            target_qps,
            requests: curve_requests,
            connections: 2,
            seed: SEED + 2,
            warmup_fraction: 0.2,
            slo: Some(slo),
            ..Default::default()
        };
        let report = loadgen::run_load(curve_net.local_addr(), &queries, &cfg).expect("curve run");
        eprintln!(
            "  achieved {:.0} q/s, client p50 {:.1} µs, p99 {:.1} µs, {} rejected",
            report.achieved_qps,
            report.p50_us(),
            report.p99_us(),
            report.rejected,
        );
        curve_rows.push(obj({
            let mut f = vec![
                ("fraction_of_capacity", Value::Num(fraction)),
                ("target_qps", Value::Num(target_qps)),
                ("requests", Value::Uint(curve_requests as u64)),
            ];
            f.extend(report_fields(&report));
            f
        }));
    }
    curve_net.stop();
    drop(curve_runtime);

    // ── Overload: open loop past capacity, small in-flight budget ────
    let overload_qps = capacity_qps * 2.5;
    let overload_requests = ((overload_qps * 1.0) as usize).clamp(2_000, 40_000);
    eprintln!("overload open loop: {overload_qps:.0} q/s, {overload_requests} requests ...");
    let over_runtime = Arc::new(start_runtime(&index, 256));
    let over_net = NetServer::start(
        "127.0.0.1:0",
        Arc::clone(&over_runtime),
        NetConfig { max_inflight: 64, ..NetConfig::default() },
    )
    .expect("bind loopback");
    let overload_cfg = LoadConfig {
        target_qps: overload_qps,
        requests: overload_requests,
        connections: 4,
        seed: SEED + 1,
        warmup_fraction: 0.2,
        slo: Some(slo),
        ..Default::default()
    };
    let overload =
        loadgen::run_load(over_net.local_addr(), &queries, &overload_cfg).expect("overload run");
    let over_stats = over_net.runtime_stats();
    over_net.stop();
    drop(over_runtime);
    eprintln!(
        "  {}/{} completed, {} rejected (obs counted {}), accepted client p99 {:.1} µs",
        overload.completed,
        overload.offered,
        overload.rejected,
        over_stats.net.backpressure_rejects,
        overload.p99_us(),
    );

    let doc = obj(vec![
        (
            "config",
            obj(vec![
                ("n_base", Value::Uint(n_base as u64)),
                ("dim", Value::Uint(DIM as u64)),
                ("k", Value::Uint(K as u64)),
                ("l", Value::Uint(L as u64)),
                ("n_workers", Value::Uint(runtime_config(4096).n_workers as u64)),
                ("seed", Value::Uint(SEED)),
                ("slo_us", Value::Uint(slo.as_micros() as u64)),
            ]),
        ),
        ("capacity_qps_closed_loop", Value::Num(capacity_qps)),
        (
            "moderate_load",
            obj(vec![
                ("target_qps", Value::Num(moderate_qps)),
                ("requests", Value::Uint(requests as u64)),
                ("connections", Value::Uint(moderate_cfg.connections as u64)),
                (
                    "inproc",
                    obj(vec![
                        ("offered", Value::Uint(inproc_offered as u64)),
                        ("completed", Value::Uint(inproc_completed as u64)),
                        ("server_e2e_p99_us", Value::Num(inproc_p99)),
                    ]),
                ),
                (
                    "net",
                    obj({
                        let mut f = report_fields(&moderate);
                        f.push(("server_e2e_p99_us", Value::Num(net_p99)));
                        f
                    }),
                ),
                ("net_over_inproc_server_p99", Value::Num(tax_ratio)),
                ("within_15pct", Value::Bool(tax_ratio <= 1.15)),
            ]),
        ),
        ("load_curve", Value::Arr(curve_rows)),
        (
            "overload",
            obj(vec![
                ("target_qps", Value::Num(overload_qps)),
                ("requests", Value::Uint(overload_requests as u64)),
                ("connections", Value::Uint(overload_cfg.connections as u64)),
                ("max_inflight", Value::Uint(64)),
                ("net", obj(report_fields(&overload))),
                (
                    "rejects_counted_in_obs",
                    Value::Bool(over_stats.net.backpressure_rejects == overload.rejected as u64),
                ),
                (
                    "net_counters",
                    Value::parse(&over_stats.to_json())
                        .ok()
                        .and_then(|v| v.get("net").cloned())
                        .unwrap_or(Value::Null),
                ),
            ]),
        ),
    ]);
    let mut text = doc.render();
    text.push('\n');
    std::fs::write(out_path, text).expect("write bench output");
    eprintln!("wrote {out_path}");
}
