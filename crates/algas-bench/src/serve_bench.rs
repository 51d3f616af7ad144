//! `figures bench_serve`: serving-path latency benchmark →
//! `BENCH_serve.json`.
//!
//! Drives the threaded runtime ([`AlgasServer`]) with a synthetic
//! corpus and reports the telemetry snapshot the `obs` subsystem
//! collects: end-to-end p50/p95/p99/p999 plus the per-phase breakdown
//! (`submit→slot`, `slot→work`, `work→finish`, `finish→merged`,
//! `merged→delivered`) and the search-side cycle split. The emitted
//! file embeds the full [`RuntimeStats`](algas_core::obs::RuntimeStats)
//! JSON, so anything that parses `BENCH_serve.json` can drill down to
//! per-worker / per-slot counters and raw histogram buckets.

use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas_core::obs::json::{obj, Value};
use algas_core::obs::HistogramSnapshot;
use algas_core::runtime::{AlgasServer, RuntimeConfig};
use algas_graph::cagra::CagraParams;
use algas_vector::datasets::DatasetSpec;
use algas_vector::Metric;

const DIM: usize = 64;
const K: usize = 10;
const L: usize = 64;
const WAVES: usize = 8;

fn quantile_fields(h: &HistogramSnapshot) -> Value {
    let (p50, p95, p99, p999) = h.percentiles();
    obj(vec![
        ("count", Value::Uint(h.count)),
        ("p50", Value::Uint(p50)),
        ("p95", Value::Uint(p95)),
        ("p99", Value::Uint(p99)),
        ("p999", Value::Uint(p999)),
        ("mean", Value::Num(h.mean())),
        ("max", Value::Uint(h.max)),
    ])
}

/// Runs the serving benchmark at `scale` and writes `out_path`.
pub fn run(scale: f64, out_path: &str) {
    let n_base = ((20_000.0 * scale) as usize).max(2_000);
    let spec = DatasetSpec {
        name: "serve-bench".into(),
        n_base,
        n_queries: 256,
        dim: DIM,
        metric: Metric::L2,
        clusters: 32,
        spread: 0.55,
        seed: 0x5E7E,
    };
    eprintln!("generating {n_base} x {DIM} corpus ...");
    let ds = spec.generate();
    let t0 = std::time::Instant::now();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    eprintln!("built CAGRA index in {:.1?}", t0.elapsed());

    let cfg = EngineConfig { k: K, l: L, slots: 16, ..Default::default() };
    let engine = AlgasEngine::new(index, cfg).expect("tuning");
    let runtime_cfg = RuntimeConfig { n_workers: 2, queue_capacity: 4096, ..Default::default() };
    let server = AlgasServer::start(engine, runtime_cfg);

    // Closed-loop waves: submit the whole query set, drain, repeat —
    // the first wave warms the per-worker scratches, later waves see
    // the steady-state (allocation-free) serving path.
    let t0 = std::time::Instant::now();
    for wave in 0..WAVES {
        let pending: Vec<_> = (0..ds.queries.len())
            .map(|qi| server.submit(ds.queries.get(qi).to_vec()).expect("submit").1)
            .collect();
        for rx in pending {
            rx.recv().expect("reply");
        }
        let _ = wave;
    }
    let wall = t0.elapsed();
    let total = ds.queries.len() * WAVES;
    let qps = total as f64 / wall.as_secs_f64();

    let stats = server.runtime_stats();
    server.shutdown();
    let e2e = &stats.phases.end_to_end;
    let (p50, p95, p99, p999) = e2e.percentiles();
    eprintln!(
        "served {total} queries at {qps:.0} q/s; e2e p50 {:.1} µs  p95 {:.1} µs  \
         p99 {:.1} µs  p99.9 {:.1} µs  (sort fraction {:.3})",
        p50 as f64 / 1000.0,
        p95 as f64 / 1000.0,
        p99 as f64 / 1000.0,
        p999 as f64 / 1000.0,
        stats.search.sort_fraction(),
    );

    let doc = obj(vec![
        (
            "config",
            obj(vec![
                ("n_base", Value::Uint(n_base as u64)),
                ("dim", Value::Uint(DIM as u64)),
                ("k", Value::Uint(K as u64)),
                ("l", Value::Uint(L as u64)),
                ("n_workers", Value::Uint(runtime_cfg.n_workers as u64)),
                ("queries", Value::Uint(total as u64)),
            ]),
        ),
        ("throughput_qps", Value::Num(qps)),
        ("end_to_end_ns", quantile_fields(e2e)),
        (
            "phases_ns",
            Value::Obj(
                stats
                    .phases
                    .named()
                    .into_iter()
                    .map(|(name, h)| (name.to_string(), quantile_fields(h)))
                    .collect(),
            ),
        ),
        ("sort_fraction", Value::Num(stats.search.sort_fraction())),
        // The complete snapshot, embedded for drill-down.
        ("runtime_stats", Value::parse(&stats.to_json()).expect("own JSON parses")),
    ]);
    let mut text = doc.render();
    text.push('\n');
    std::fs::write(out_path, text).expect("write bench output");
    eprintln!("wrote {out_path}");
}
