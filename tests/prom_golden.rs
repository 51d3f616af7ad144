//! Golden-file tests for the snapshot wire formats: a fixed
//! [`RuntimeStats`] fixture must render byte-for-byte the Prometheus
//! page checked in at `tests/golden/stats.prom` (and that page must
//! satisfy the exposition checker: HELP/TYPE pairing, name charset, no
//! duplicate series), and must render the same JSON document as
//! `tests/golden/stats.json` — same keys, nesting, array order and
//! values, with object key order ignored.
//!
//! The golden pins catch accidental renames — a metric name or JSON
//! key is public API the moment a dashboard or script reads it. After
//! an *intentional* change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test prom_golden
//! ```

use algas::core::control::ControlStats;
use algas::core::engine::RerankStats;
use algas::core::merge::MergeStats;
use algas::core::net::{ClosedConnTotals, ConnStats, NetStats};
use algas::core::obs::json::Value;
use algas::core::obs::prom::check_exposition;
use algas::core::obs::{
    FlightTotals, Histogram, HostStats, ProfStateCount, ProfStats, ProfThreadStats, QlogTotals,
    RuntimeStats, SlotStats, TailExemplar, WindowBlock, WindowStats, WorkerStats,
};
use algas::core::tracer::StepTotals;
use std::path::Path;

/// A fully-populated snapshot with every family non-trivial. Values
/// are arbitrary but fixed; the histogram is filled through the real
/// recording path so the golden file also pins bucket boundaries.
fn fixture() -> RuntimeStats {
    let mut s = RuntimeStats::empty(2, 2, 1);
    s.submitted = 40;
    s.completed = 38;
    s.rejected_queue_full = 3;
    s.queue_depth = 2;
    s.slots_occupied = 1;
    s.base_bytes = 48_000;
    s.quant_bytes = 12_400;
    s.per_worker[0] = WorkerStats { queries: 20, busy_passes: 19, idle_passes: 100 };
    s.per_worker[1] = WorkerStats { queries: 18, busy_passes: 18, idle_passes: 120 };
    s.per_host[0] = HostStats { delivered: 38, refills: 40, busy_passes: 70, idle_passes: 9 };
    s.per_slot[0] = SlotStats { assigned: 21, finished: 20, delivered: 20 };
    s.per_slot[1] = SlotStats { assigned: 19, finished: 18, delivered: 18 };
    let h = Histogram::new();
    for v in [1_000u64, 2_000, 5_000, 100_000, 12] {
        h.record(v);
    }
    s.phases.end_to_end = h.snapshot();
    s.phases.work_to_finish = h.snapshot();
    s.search = StepTotals {
        steps: 500,
        expansions: 700,
        dist_evals: 9_000,
        sorts: 500,
        calc_cycles: 80_000,
        sort_cycles: 20_000,
        other_cycles: 10_000,
    };
    s.rerank = RerankStats { reranks: 38, candidates: 760, promotions: 12 };
    s.merge = MergeStats { merges: 38, elements: 300, dupes_dropped: 4 };
    s.flight = FlightTotals { completions: 38, events: 410, retained: 5 };
    s.entry_dist_milli_total = 41_230;
    s.control = ControlStats {
        enabled: true,
        slo_ns: 2_000_000,
        level: 2,
        max_level: 5,
        beam_width: 16,
        offset_beam: 2,
        rerank_depth: 24,
        n_ctas: 4,
        ticks: 9,
        sheds: 3,
        restores: 1,
        holds: 5,
        last_p99_ns: 1_900_000,
        last_reason: "hold".to_string(),
    };
    s.net = NetStats {
        connections_accepted: 6,
        connections_closed: 4,
        frames_in: 120,
        frames_out: 118,
        bytes_in: 10_560,
        bytes_out: 13_216,
        protocol_errors: 2,
        backpressure_rejects: 7,
    };
    s.net_conns = vec![
        ConnStats {
            id: 5,
            inflight: 3,
            bytes_in: 8_000,
            bytes_out: 9_900,
            backlog_high_water: 4_096,
            errors: 1,
            retry_afters: 5,
        },
        ConnStats {
            id: 6,
            inflight: 1,
            bytes_in: 2_560,
            bytes_out: 3_316,
            backlog_high_water: 512,
            errors: 1,
            retry_afters: 2,
        },
    ];
    // Closed-connection aggregates plus a live-series cap of 1: the
    // golden page pins both the `algas_net_conn_closed_*` totals and
    // connection 6 collapsing into the `conn="other"` overflow series.
    s.net_closed =
        ClosedConnTotals { bytes_in: 4_100, bytes_out: 5_425, errors: 1, retry_afters: 3 };
    s.conn_series_max = 1;
    let backoff = Histogram::new();
    for v in [200u64, 400, 800, 1_600, 12_800, 51_200, 102_400] {
        backoff.record(v);
    }
    s.retry_backoff = backoff.snapshot();
    s.qlog = QlogTotals { logged: 36, dropped: 2, drained: 30 };
    s.exemplar = TailExemplar { e2e_ns: 100_000, request_id: 0xC0FF_EE07 };
    s.window = WindowBlock {
        period_ms: 1_000,
        slots: 16,
        slo_ns: 2_000_000,
        health: "ok".to_string(),
        windows: vec![
            WindowStats {
                target_s: 1,
                span_ms: 1_000,
                completed: 4,
                submitted: 5,
                p50_ns: 95_000,
                p99_ns: 510_000,
                max_ns: 520_000,
                attainment_ppm: 1_000_000,
            },
            WindowStats {
                target_s: 10,
                span_ms: 10_000,
                completed: 38,
                submitted: 40,
                p50_ns: 110_000,
                p99_ns: 1_700_000,
                max_ns: 2_000_000,
                attainment_ppm: 973_684,
            },
            WindowStats {
                target_s: 60,
                span_ms: 30_000,
                completed: 38,
                submitted: 40,
                p50_ns: 110_000,
                p99_ns: 1_700_000,
                max_ns: 2_000_000,
                attainment_ppm: 973_684,
            },
        ],
    };
    s.prof = ProfStats {
        hz: 97,
        passes: 1_940,
        threads: vec![
            ProfThreadStats {
                kind: "worker".to_string(),
                label: "worker-0".to_string(),
                states: vec![
                    ProfStateCount { state: "scan".to_string(), samples: 1_200 },
                    ProfStateCount { state: "idle".to_string(), samples: 740 },
                ],
            },
            ProfThreadStats {
                kind: "net".to_string(),
                label: "net-loop".to_string(),
                states: vec![ProfStateCount { state: "read".to_string(), samples: 1_940 }],
            },
        ],
    };
    s
}

#[test]
fn exposition_matches_golden_and_passes_checker() {
    let page = fixture().to_prometheus();

    let samples = check_exposition(&page).expect("exposition is well-formed");
    assert!(samples > 30, "suspiciously few samples ({samples}) — families missing?");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats.prom");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &page).expect("write golden");
        eprintln!("regenerated {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/golden/stats.prom exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        page, golden,
        "Prometheus exposition drifted from tests/golden/stats.prom. Metric names and \
         labels are public API — if the change is intentional, rerun with UPDATE_GOLDEN=1 \
         and include the golden diff in review."
    );
}

/// `v` with every object's keys sorted, recursively: two documents
/// compare equal when they carry the same keys, nesting, array order
/// and values, whatever order each object lists its keys in.
fn canonical(v: Value) -> Value {
    match v {
        Value::Obj(mut fields) => {
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Obj(fields.into_iter().map(|(k, v)| (k, canonical(v))).collect())
        }
        Value::Arr(items) => Value::Arr(items.into_iter().map(canonical).collect()),
        other => other,
    }
}

#[test]
fn json_matches_golden() {
    let doc = fixture().to_json();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &doc).expect("write golden");
        eprintln!("regenerated {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/golden/stats.json exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        canonical(Value::parse(&doc).expect("to_json output parses")),
        canonical(Value::parse(&golden).expect("golden JSON parses")),
        "JSON snapshot drifted from tests/golden/stats.json. Keys are public API — if the \
         change is intentional, rerun with UPDATE_GOLDEN=1 and include the golden diff in review."
    );
}

/// The `runtime_stats` block of the checked-in `BENCH_serve.json` is a
/// real snapshot from before the SQ8, flight, control, net, qlog,
/// window and profiler blocks existed: it must still parse, with every
/// later addition at its default.
#[test]
fn pre_sq8_snapshot_still_parses() {
    let bench =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_serve.json"))
            .expect("BENCH_serve.json is checked in");
    let doc = Value::parse(&bench).expect("BENCH_serve.json parses");
    let block = doc.get("runtime_stats").expect("runtime_stats block");
    let s = RuntimeStats::from_json(&block.render()).expect("old snapshot parses");
    let field = |path: &[&str]| {
        path.iter().fold(block, |v, k| v.get(k).expect("key present")).as_u64().expect("integer")
    };
    assert_eq!(s.n_slots as u64, field(&["config", "n_slots"]));
    assert_eq!(s.completed, field(&["queries", "completed"]));
    assert_eq!(s.search.dist_evals, field(&["search", "dist_evals"]));
    assert_eq!(s.merge.merges, field(&["merge", "merges"]));
    assert_eq!(s.phases.end_to_end.count, field(&["phases", "end_to_end", "count"]));
    assert_eq!(s.per_slot.len(), s.n_slots);
    assert_eq!(s.per_worker.len(), s.n_workers);
    assert_eq!(s.per_host.len(), s.n_host_threads);
    assert!(s.completed > 0 && s.phases.end_to_end.count == s.completed);
    let blank = RuntimeStats::default();
    assert_eq!((s.base_bytes, s.quant_bytes, s.entry_dist_milli_total), (0, 0, 0));
    assert_eq!(s.rerank, blank.rerank);
    assert_eq!(s.flight, blank.flight);
    assert_eq!(s.control, blank.control);
    assert_eq!(s.net, blank.net);
    assert_eq!(s.net_conns, blank.net_conns);
    assert_eq!(s.net_closed, blank.net_closed);
    assert_eq!(s.conn_series_max, 0);
    assert_eq!(s.retry_backoff, blank.retry_backoff);
    assert_eq!(s.qlog, blank.qlog);
    assert_eq!(s.exemplar, blank.exemplar);
    assert_eq!(s.window, blank.window);
    assert_eq!(s.prof, blank.prof);
}

/// Every object-key path of `v` (array elements addressed by index).
fn key_paths(v: &Value, prefix: &[String], out: &mut Vec<Vec<String>>) {
    let mut walk = |key: String, child: &Value, is_key: bool| {
        let path = [prefix, &[key]].concat();
        if is_key {
            out.push(path.clone());
        }
        key_paths(child, &path, out);
    };
    match v {
        Value::Obj(fields) => fields.iter().for_each(|(k, x)| walk(k.clone(), x, true)),
        Value::Arr(items) => {
            items.iter().enumerate().for_each(|(i, x)| walk(i.to_string(), x, false))
        }
        _ => {}
    }
}

/// `v` with the key at `path` removed.
fn without(v: &Value, path: &[String]) -> Value {
    match (v, path) {
        (Value::Obj(fields), [last]) => {
            Value::Obj(fields.iter().filter(|(k, _)| k != last).cloned().collect())
        }
        (Value::Obj(fields), [head, rest @ ..]) => Value::Obj(
            fields
                .iter()
                .map(|(k, x)| (k.clone(), if k == head { without(x, rest) } else { x.clone() }))
                .collect(),
        ),
        (Value::Arr(items), [head, rest @ ..]) => Value::Arr(
            items
                .iter()
                .enumerate()
                .map(|(i, x)| if i.to_string() == *head { without(x, rest) } else { x.clone() })
                .collect(),
        ),
        _ => v.clone(),
    }
}

/// Removing any item an older snapshot may lack parses to that item's
/// default; removing a derived value (ignored on parse) changes
/// nothing; removing anything else is an error.
#[test]
fn optional_items_default_and_required_items_are_enforced() {
    type Reset = fn(&mut RuntimeStats);
    let optional: &[(&str, Reset)] = &[
        ("gauges.base_bytes", |s| s.base_bytes = 0),
        ("gauges.quant_bytes", |s| s.quant_bytes = 0),
        ("search.entry_dist_milli_total", |s| s.entry_dist_milli_total = 0),
        ("conn_series_max", |s| s.conn_series_max = 0),
        ("rerank", |s| s.rerank = Default::default()),
        ("flight", |s| s.flight = Default::default()),
        ("control", |s| s.control = Default::default()),
        ("control.n_ctas", |s| s.control.n_ctas = 0),
        ("control.last_reason", |s| s.control.last_reason = "init".to_string()),
        ("net", |s| s.net = Default::default()),
        ("net_conns", |s| s.net_conns.clear()),
        ("net_closed", |s| s.net_closed = Default::default()),
        ("retry_backoff_us", |s| s.retry_backoff = Default::default()),
        ("qlog", |s| s.qlog = Default::default()),
        ("exemplar", |s| s.exemplar = Default::default()),
        ("window", |s| s.window = Default::default()),
        ("prof", |s| s.prof = Default::default()),
    ];
    let derived = |path: &[String]| {
        let last = path.last().map(String::as_str);
        matches!(last, Some("p50" | "p95" | "p99" | "p999"))
            || matches!(
                path.join(".").as_str(),
                "search.sort_fraction" | "search.hops_per_query" | "search.mean_entry_distance"
            )
    };
    let s = fixture();
    let doc = Value::parse(&s.to_json()).expect("to_json output parses");
    let mut paths = Vec::new();
    key_paths(&doc, &[], &mut paths);
    for (name, _) in optional {
        assert!(paths.iter().any(|p| p.join(".") == *name), "fixture lacks `{name}`");
    }
    for path in &paths {
        let name = path.join(".");
        let parsed = RuntimeStats::from_json(&without(&doc, path).render());
        if let Some((_, reset)) = optional.iter().find(|(p, _)| *p == name) {
            let mut want = s.clone();
            reset(&mut want);
            assert_eq!(parsed, Ok(want), "without optional `{name}`");
        } else if derived(path) {
            assert_eq!(parsed, Ok(s.clone()), "without derived `{name}`");
        } else {
            assert!(parsed.is_err(), "without required `{name}` still parsed");
        }
    }
}
