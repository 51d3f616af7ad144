//! `figures bench_adaptive`: smart entry selection + SLO-adaptive
//! control → `BENCH_adaptive.json`.
//!
//! Two measurements:
//!
//! 1. **Hops at equal recall** — one CAGRA index searched under each
//!    entry policy (`medoid`, `hashed`, `hash-table`, `descent`) across
//!    a candidate-list sweep. For each policy the sweep yields a
//!    recall/hops curve; the summary reports the hops each policy needs
//!    to reach fixed recall targets. The index-backed policies seed the
//!    walk near the query, so they cross each target in fewer hops than
//!    the medoid start — the per-query latency the entry subsystem
//!    buys.
//! 2. **Recall at SLO** — the same index served quantized through the
//!    threaded runtime under closed-loop load, at a descending sweep of
//!    latency targets. The static engine always runs rung 0 and misses
//!    every target below its natural p99; the SLO controller sheds
//!    effort (rerank depth, then CTAs, then beam) until the p99 fits,
//!    trading bounded recall for held tail latency.

use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas_core::obs::json::{obj, Value};
use algas_core::obs::Histogram;
use algas_core::runtime::{AlgasServer, RuntimeConfig};
use algas_graph::cagra::CagraParams;
use algas_graph::{EntryParams, EntryPolicy};
use algas_vector::datasets::DatasetSpec;
use algas_vector::ground_truth::{mean_recall, GroundTruth};
use algas_vector::{Metric, VectorStore};

const DIM: usize = 64;
const K: usize = 10;
const L_SWEEP: [usize; 6] = [16, 24, 32, 48, 64, 96];
const RECALL_TARGETS: [f64; 2] = [0.90, 0.95];
const POLICIES: [(&str, EntryPolicy); 4] = [
    ("medoid", EntryPolicy::Medoid),
    ("hashed", EntryPolicy::Hashed { seed: 7 }),
    ("hash_table", EntryPolicy::HashTable),
    ("descent", EntryPolicy::Descent),
];

/// One (policy, L) sweep point.
struct SweepPoint {
    l: usize,
    recall: f64,
    hops: f64,
    entry_dist: f64,
}

/// A close seed → the walk crosses the graph in fewer steps. The sweep
/// runs single-CTA (1024 slots tunes to N_parallel = 1) so hops counts
/// the serial steps of one walk; in multi-CTA mode the medoid policy's
/// duplicated CTAs terminate early and mask the transit cost the entry
/// structures remove.
fn sweep_policy(
    index: &AlgasIndex,
    queries: &VectorStore,
    gt: &GroundTruth,
) -> Vec<Vec<SweepPoint>> {
    POLICIES
        .iter()
        .map(|&(name, policy)| {
            L_SWEEP
                .iter()
                .map(|&l| {
                    let cfg = EngineConfig {
                        k: K,
                        l,
                        slots: 1024,
                        entry_policy: policy,
                        ..Default::default()
                    };
                    let engine = AlgasEngine::new(index.clone(), cfg).expect("tuning");
                    let wl = engine.run_workload(queries);
                    let nq = wl.traces.len() as f64;
                    let hops: usize = wl.traces.iter().map(|t| t.max_steps()).sum();
                    let entry_dist: f64 = wl
                        .traces
                        .iter()
                        .filter_map(|t| {
                            t.traces
                                .iter()
                                .filter_map(|c| c.steps.first().map(|s| f64::from(s.best_distance)))
                                .fold(None, |acc: Option<f64>, d| Some(acc.map_or(d, |a| a.min(d))))
                        })
                        .sum();
                    let p = SweepPoint {
                        l,
                        recall: mean_recall(&wl.results, gt, K),
                        hops: hops as f64 / nq,
                        entry_dist: entry_dist / nq,
                    };
                    eprintln!(
                        "  {name:<11} L={:<3} recall {:.3}  hops/query {:5.1}  entry dist {:5.2}",
                        p.l, p.recall, p.hops, p.entry_dist
                    );
                    p
                })
                .collect()
        })
        .collect()
}

/// The cheapest sweep point reaching `target` recall, if any.
fn at_recall(curve: &[SweepPoint], target: f64) -> Option<&SweepPoint> {
    curve.iter().find(|p| p.recall >= target)
}

/// One closed-loop serve session: `clients` threads each issue
/// `per_client` blocking searches round-robin over the query set. The
/// first half of each client's stream is warm-up — the controller is
/// still walking the ladder — and only the steady-state second half is
/// recorded into the latency histogram.
/// Returns (p99_ns, recall, controller stats).
fn serve_session(
    index: &AlgasIndex,
    queries: &VectorStore,
    gt: &GroundTruth,
    slo_us: Option<u64>,
) -> (u64, f64, algas_core::control::ControlStats) {
    let cfg = EngineConfig {
        k: K,
        l: 64,
        slots: 8,
        quantize: true,
        rerank_depth: Some(64),
        entry_policy: EntryPolicy::HashTable,
        slo_us,
        ..Default::default()
    };
    let engine = AlgasEngine::new(index.clone(), cfg).expect("tuning");
    let server = AlgasServer::start(engine, RuntimeConfig { n_workers: 2, ..Default::default() });
    let clients = 8usize;
    let per_client = (8 * queries.len() / clients).max(128);
    // Shared warm-up arithmetic with the open-loop net generator: the
    // first half of each client's stream (controller still walking the
    // ladder) is excluded from the recorded latencies.
    let warmup = algas_core::net::loadgen::warmup_len(per_client, 0.5);
    let hist = Histogram::new();
    let nq = queries.len();
    // ids per query index, merged across clients (identical queries
    // return identical ids, so last-write-wins is fine).
    let results: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = &server;
                let hist = &hist;
                scope.spawn(move || {
                    let mut out: Vec<Vec<u32>> = vec![Vec::new(); nq];
                    for i in 0..per_client {
                        let qi = (c + i * clients) % nq;
                        let t0 = std::time::Instant::now();
                        let reply = server.submit(queries.get(qi).to_vec()).and_then(|(_, rx)| {
                            rx.recv().map_err(|_| algas_core::runtime::SubmitError::ShuttingDown)
                        });
                        if i >= warmup {
                            hist.record(t0.elapsed().as_nanos() as u64);
                        }
                        out[qi] = reply.expect("serve session reply").ids;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut merged: Vec<Vec<u32>> = vec![Vec::new(); nq];
    for per_client_results in results {
        for (qi, ids) in per_client_results.into_iter().enumerate() {
            if !ids.is_empty() {
                merged[qi] = ids;
            }
        }
    }
    let recall = mean_recall(&merged, gt, K);
    let stats = server.runtime_stats();
    let p99 = hist.snapshot().quantile(0.99);
    server.shutdown();
    (p99, recall, stats.control)
}

/// Runs the adaptive benchmark at `scale` and writes `out_path`.
pub fn run(scale: f64, out_path: &str) {
    let n_base = ((20_000.0 * scale) as usize).max(2_000);
    let spec = DatasetSpec {
        name: "adaptive-bench".into(),
        n_base,
        n_queries: 256,
        dim: DIM,
        metric: Metric::L2,
        clusters: 32,
        spread: 0.55,
        seed: 0xE17,
    };
    eprintln!("generating {n_base} x {DIM} corpus ...");
    let ds = spec.generate();
    let t0 = std::time::Instant::now();
    let mut index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    index.build_entry_index(&EntryParams::default());
    eprintln!("built CAGRA index + entry structures in {:.1?}", t0.elapsed());
    let gt = algas_vector::ground_truth::brute_force_knn(&ds.base, &ds.queries, Metric::L2, K);

    // ── 1. Hops at equal recall across entry policies ────────────────
    eprintln!("sweeping entry policies over L = {L_SWEEP:?} ...");
    let curves = sweep_policy(&index, &ds.queries, &gt);

    let mut policy_docs = Vec::new();
    let mut summary_rows = Vec::new();
    for (pi, &(name, _)) in POLICIES.iter().enumerate() {
        let points: Vec<Value> = curves[pi]
            .iter()
            .map(|p| {
                obj(vec![
                    ("l", Value::Uint(p.l as u64)),
                    ("recall_at_10", Value::Num(p.recall)),
                    ("hops_per_query", Value::Num(p.hops)),
                    ("mean_entry_distance", Value::Num(p.entry_dist)),
                ])
            })
            .collect();
        policy_docs.push((name, Value::Arr(points)));
        for &target in &RECALL_TARGETS {
            if let Some(p) = at_recall(&curves[pi], target) {
                summary_rows.push(obj(vec![
                    ("policy", Value::Str(name.to_string())),
                    ("recall_target", Value::Num(target)),
                    ("l", Value::Uint(p.l as u64)),
                    ("recall_at_10", Value::Num(p.recall)),
                    ("hops_per_query", Value::Num(p.hops)),
                ]));
            }
        }
    }
    for &target in &RECALL_TARGETS {
        let hops_of = |pi: usize| at_recall(&curves[pi], target).map(|p| p.hops);
        if let (Some(med), Some(smart)) = (
            hops_of(0),
            [2usize, 3]
                .iter()
                .filter_map(|&pi| hops_of(pi))
                .fold(None, |acc: Option<f64>, h| Some(acc.map_or(h, |a: f64| a.min(h)))),
        ) {
            eprintln!(
                "recall ≥ {target:.2}: medoid {med:.1} hops/query, best smart entry {smart:.1} \
                 ({:+.0}%)",
                (smart / med - 1.0) * 100.0
            );
        }
    }

    // ── 2. Recall at SLO: static rung 0 vs the controller ────────────
    eprintln!("calibrating static serve p99 ...");
    let (static_p99, static_recall, _) = serve_session(&index, &ds.queries, &gt, None);
    // fp32 medoid at the widest sweep point: the recall baseline the
    // acceptance bound is measured against.
    let fp32_medoid_recall = curves[0].last().map_or(0.0, |p| p.recall);
    eprintln!("static (rung 0): p99 {:.0} µs, recall {static_recall:.4}", static_p99 as f64 / 1e3);

    let mut slo_rows = Vec::new();
    for frac in [1.2f64, 0.8, 0.6, 0.4] {
        let target_us = ((static_p99 as f64 * frac) / 1e3).max(1.0) as u64;
        let (p99, recall, ctl) = serve_session(&index, &ds.queries, &gt, Some(target_us));
        let static_misses = static_p99 > target_us * 1_000;
        let held = p99 <= (target_us as f64 * 1_150.0) as u64; // within hysteresis band
        eprintln!(
            "target {target_us:>6} µs: adaptive p99 {:>8.0} µs (held: {held}), recall {recall:.4}, \
             rung {}/{} after {} ticks ({} shed, {} restore, last {})",
            p99 as f64 / 1e3,
            ctl.level,
            ctl.max_level,
            ctl.ticks,
            ctl.sheds,
            ctl.restores,
            ctl.last_reason,
        );
        slo_rows.push(obj(vec![
            ("target_p99_us", Value::Uint(target_us)),
            ("static_p99_us", Value::Num(static_p99 as f64 / 1e3)),
            ("static_misses_target", Value::Bool(static_misses)),
            ("adaptive_p99_us", Value::Num(p99 as f64 / 1e3)),
            ("adaptive_holds_target", Value::Bool(held)),
            ("adaptive_recall_at_10", Value::Num(recall)),
            ("recall_delta_vs_fp32_medoid", Value::Num(recall - fp32_medoid_recall)),
            ("settled_level", Value::Uint(u64::from(ctl.level))),
            ("max_level", Value::Uint(u64::from(ctl.max_level))),
            ("ticks", Value::Uint(ctl.ticks)),
            ("sheds", Value::Uint(ctl.sheds)),
            ("restores", Value::Uint(ctl.restores)),
            ("last_reason", Value::Str(ctl.last_reason)),
        ]));
    }

    let doc = obj(vec![
        (
            "config",
            obj(vec![
                ("dim", Value::Uint(DIM as u64)),
                ("k", Value::Uint(K as u64)),
                ("n_base", Value::Uint(n_base as u64)),
                ("queries", Value::Uint(ds.queries.len() as u64)),
                ("l_sweep", Value::Arr(L_SWEEP.iter().map(|&l| Value::Uint(l as u64)).collect())),
            ]),
        ),
        ("entry_sweep", obj(policy_docs.into_iter().collect())),
        ("hops_at_recall", Value::Arr(summary_rows)),
        (
            "slo_control",
            obj(vec![
                ("static_p99_us", Value::Num(static_p99 as f64 / 1e3)),
                ("static_recall_at_10", Value::Num(static_recall)),
                ("fp32_medoid_recall_at_10", Value::Num(fp32_medoid_recall)),
                ("targets", Value::Arr(slo_rows)),
            ]),
        ),
    ]);
    let mut text = doc.render();
    text.push('\n');
    std::fs::write(out_path, text).expect("write bench output");
    eprintln!("wrote {out_path}");
}
