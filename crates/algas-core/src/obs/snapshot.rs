//! The serving-telemetry snapshot schema and its exposition formats.
//!
//! [`RuntimeStats`] is the single point-in-time view of a serving run:
//! query counters, occupancy gauges, per-worker / per-host / per-slot
//! breakdowns, the six lifecycle-phase latency histograms, and the
//! aggregated search ([`StepTotals`]) and merge ([`MergeStats`])
//! totals. The same schema is produced by the threaded runtime
//! ([`crate::runtime::AlgasServer::runtime_stats`]) and by the timing
//! simulators ([`RuntimeStats::from_sim_report`]), so simulated and
//! native runs are directly comparable.
//!
//! Serialization is hand-rolled over [`super::json`] and
//! [`super::prom`] (the hermetic workspace has no `serde_json`) and
//! declared once per metric: a metric is one row of `field_tables!`
//! (JSON key, whether older snapshots may lack it, Prometheus family),
//! and `to_json`, `from_json` and `to_prometheus` all walk `BLOCKS`,
//! the document's top-level entries in exposition order. `to_json` /
//! `from_json` round-trip exactly; `to_prometheus` emits text
//! exposition format v0.0.4.

use super::flight::FlightTotals;
use super::hist::HistogramSnapshot;
use super::json::Value;
use super::prof::{ProfStateCount, ProfStats, ProfThreadStats};
use super::prom::PromWriter;
use super::qlog::QlogTotals;
use super::window::{WindowBlock, WindowStats};
use crate::control::ControlStats;
use crate::engine::RerankStats;
use crate::merge::MergeStats;
use crate::net::{ClosedConnTotals, ConnStats, NetStats};
use crate::tracer::StepTotals;
use algas_gpu_sim::sched::SimReport;

/// The tail exemplar: the slowest end-to-end latency within the
/// recorder's current exemplar window, plus the wire request id that
/// produced it — a direct bridge from the p99 to a greppable id in
/// `/traces` and the query log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailExemplar {
    /// Slowest end-to-end latency in the window (ns).
    pub e2e_ns: u64,
    /// Wire request id of that delivery.
    pub request_id: u64,
}

/// Per-worker ("CTA group" thread) counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Queries searched by this worker.
    pub queries: u64,
    /// Poll passes that executed at least one search.
    pub busy_passes: u64,
    /// Poll passes that found nothing to do (idle spins).
    pub idle_passes: u64,
}

/// Per-host-poller counters. The native runtime has no separate poller:
/// worker `w` fills block `w`. The simulator keeps a real host role.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Results merged and delivered by this poller.
    pub delivered: u64,
    /// Slots refilled from the submission queue.
    pub refills: u64,
    /// Poll passes that did work.
    pub busy_passes: u64,
    /// Poll passes that found nothing to do.
    pub idle_passes: u64,
}

/// Per-slot state-transition counts (the §V-A protocol edges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// `None/Done → Work` transitions (jobs assigned).
    pub assigned: u64,
    /// `Work → Finish` transitions (searches completed).
    pub finished: u64,
    /// `Finish → Done` transitions (results delivered).
    pub delivered: u64,
}

/// The query-lifecycle phase latency histograms (ns).
///
/// The five spans partition the end-to-end path: `submit→slot` (queue
/// wait), `slot→work` (worker pickup), `work→finish` (search),
/// `finish→merged` (host pickup + merge), `merged→delivered` (reply
/// delivery). `end_to_end` is recorded independently from the same
/// timestamps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Submission → slot assignment (queue wait).
    pub submit_to_slot: HistogramSnapshot,
    /// Slot assignment → worker starts searching.
    pub slot_to_work: HistogramSnapshot,
    /// Search start → `Finish` flip (the GPU-side work).
    pub work_to_finish: HistogramSnapshot,
    /// `Finish` → host merge completed.
    pub finish_to_merged: HistogramSnapshot,
    /// Merge → reply handed to the client channel.
    pub merged_to_delivered: HistogramSnapshot,
    /// Submission → delivery.
    pub end_to_end: HistogramSnapshot,
}

impl PhaseStats {
    /// The phases as `(name, histogram)` pairs, in lifecycle order.
    pub fn named(&self) -> [(&'static str, &HistogramSnapshot); 6] {
        [
            ("submit_to_slot", &self.submit_to_slot),
            ("slot_to_work", &self.slot_to_work),
            ("work_to_finish", &self.work_to_finish),
            ("finish_to_merged", &self.finish_to_merged),
            ("merged_to_delivered", &self.merged_to_delivered),
            ("end_to_end", &self.end_to_end),
        ]
    }

    pub(crate) fn named_mut(&mut self) -> [(&'static str, &mut HistogramSnapshot); 6] {
        [
            ("submit_to_slot", &mut self.submit_to_slot),
            ("slot_to_work", &mut self.slot_to_work),
            ("work_to_finish", &mut self.work_to_finish),
            ("finish_to_merged", &mut self.finish_to_merged),
            ("merged_to_delivered", &mut self.merged_to_delivered),
            ("end_to_end", &mut self.end_to_end),
        ]
    }
}

/// A complete point-in-time view of a serving run's telemetry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuntimeStats {
    /// Configured slot count.
    pub n_slots: usize,
    /// Configured worker-thread count.
    pub n_workers: usize,
    /// Configured host-poller count (the worker count for the native
    /// runtime, whose workers deliver their own results).
    pub n_host_threads: usize,
    /// Queries accepted into the submission queue.
    pub submitted: u64,
    /// Queries fully served.
    pub completed: u64,
    /// Queries rejected because the bounded queue was full.
    pub rejected_queue_full: u64,
    /// Gauge: submissions queued at snapshot time.
    pub queue_depth: u64,
    /// Gauge: slots holding an in-flight query at snapshot time.
    pub slots_occupied: u64,
    /// Gauge: logical bytes of the fp32 corpus being served.
    pub base_bytes: u64,
    /// Gauge: logical bytes of the SQ8 code mirror (codes + affine
    /// tables + row norms); 0 when the engine is fp32-only.
    pub quant_bytes: u64,
    /// Per-worker breakdown (`n_workers` entries).
    pub per_worker: Vec<WorkerStats>,
    /// Per-host-poller breakdown (`n_host_threads` entries).
    pub per_host: Vec<HostStats>,
    /// Per-slot transition counts (`n_slots` entries).
    pub per_slot: Vec<SlotStats>,
    /// Lifecycle-phase latency histograms.
    pub phases: PhaseStats,
    /// Aggregated per-step search totals (cycles split into
    /// calc/sort/other, as Fig 3 / Fig 17 split them).
    pub search: StepTotals,
    /// SQ8 exact-rerank totals (all zero on fp32 engines).
    pub rerank: RerankStats,
    /// Summed best-entry distance over all searched queries, in
    /// milli-units (fixed point so the hot-path cell stays a plain
    /// counter). Divide by queries for the mean entry distance — the
    /// gauge the smart entry policies exist to shrink.
    pub entry_dist_milli_total: u64,
    /// SLO controller state (all zero / `init` when no SLO is set).
    pub control: ControlStats,
    /// Host-side merge totals.
    pub merge: MergeStats,
    /// Flight-recorder totals (completions examined, events written,
    /// traces retained).
    pub flight: FlightTotals,
    /// Network front-end counters (all zero when no query listener is
    /// running — the library/CLI paths never touch a socket).
    pub net: NetStats,
    /// Per-connection telemetry of the currently open connections
    /// (empty when no listener is running).
    pub net_conns: Vec<ConnStats>,
    /// Totals folded in from closed connections (the traffic retired
    /// out of `net_conns`).
    pub net_closed: ClosedConnTotals,
    /// Cap on `conn`-labeled Prometheus series: connections past the
    /// first `conn_series_max` collapse into one `conn="other"` series
    /// (0 = uncapped).
    pub conn_series_max: u64,
    /// Advised RETRY_AFTER backoff delays (µs).
    pub retry_backoff: HistogramSnapshot,
    /// Wide-event query-log totals.
    pub qlog: QlogTotals,
    /// Tail exemplar: the slowest recent delivery and its request id.
    pub exemplar: TailExemplar,
    /// Moving-window view of the end-to-end histogram plus the SLO
    /// burn-rate health verdict (empty until the window ring has run).
    pub window: WindowBlock,
    /// Thread-state profiler attribution table (empty with `obs` off
    /// or before the sampler has run).
    pub prof: ProfStats,
}

impl RuntimeStats {
    /// An all-zero snapshot with the per-component vectors sized.
    pub fn empty(n_slots: usize, n_workers: usize, n_host_threads: usize) -> Self {
        Self {
            n_slots,
            n_workers,
            n_host_threads,
            per_worker: vec![WorkerStats::default(); n_workers],
            per_host: vec![HostStats::default(); n_host_threads],
            per_slot: vec![SlotStats::default(); n_slots],
            ..Self::default()
        }
    }

    /// Total queries searched across workers.
    pub fn queries_searched(&self) -> u64 {
        self.per_worker.iter().map(|w| w.queries).sum()
    }

    /// Mean CTA search steps ("hops") per searched query — the figure
    /// of merit for entry selection (0.0 before any query).
    pub fn hops_per_query(&self) -> f64 {
        let q = self.queries_searched();
        if q == 0 {
            0.0
        } else {
            self.search.steps as f64 / q as f64
        }
    }

    /// Mean best-entry distance per searched query (0.0 before any
    /// query).
    pub fn mean_entry_distance(&self) -> f64 {
        let q = self.queries_searched();
        if q == 0 {
            0.0
        } else {
            self.entry_dist_milli_total as f64 / 1e3 / q as f64
        }
    }

    /// Renders the snapshot as compact JSON (the `--stats-json` /
    /// `BENCH_serve.json` wire form; [`RuntimeStats::from_json`] is its
    /// exact inverse).
    pub fn to_json(&self) -> String {
        Value::Obj(BLOCKS.iter().map(|b| (b.key.to_string(), (b.json)(self))).collect()).render()
    }

    /// Parses the JSON produced by [`RuntimeStats::to_json`]. Blocks and
    /// fields added after a snapshot was written parse as their
    /// defaults.
    ///
    /// # Errors
    /// Malformed JSON, missing/mistyped fields, or inconsistent
    /// histograms.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Value::parse(text)?;
        let mut out = Self::default();
        for b in BLOCKS {
            match doc.get(b.key) {
                Some(v) => (b.parse)(&mut out, v).map_err(|e| format!("`{}`: {e}", b.key))?,
                None if b.optional => {}
                None => return Err(format!("missing `{}`", b.key)),
            }
        }
        Ok(out)
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (v0.0.4), each family opened by a `# HELP`/`# TYPE` pair. Phase
    /// histograms become summaries (quantiles + `_sum`/`_count`) under
    /// one `algas_phase_latency_ns` family. The page passes
    /// [`super::prom::check_exposition`].
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        for b in BLOCKS {
            (b.prom)(self, &mut w);
        }
        w.finish()
    }

    /// Builds the same snapshot schema from a timing-simulator run, so
    /// simulated serving (`algas-gpu-sim`) and the native runtime emit
    /// comparable telemetry. The simulator has no worker/host threads
    /// or slot protocol, so those breakdowns stay empty; the phase
    /// histograms map `arrival→dispatch→gpu_start→gpu_done→completion`
    /// onto `submit→slot→work→finish→merged` (delivery is folded into
    /// the merge span, so `merged_to_delivered` stays empty).
    pub fn from_sim_report(report: &SimReport, n_slots: usize) -> Self {
        use super::hist::Histogram;
        let mut out = RuntimeStats {
            n_slots,
            submitted: report.per_query.len() as u64,
            completed: report.per_query.len() as u64,
            ..Self::default()
        };
        let hists: Vec<Histogram> = (0..5).map(|_| Histogram::new()).collect();
        for t in &report.per_query {
            let spans = t.phase_spans_ns();
            for (h, &v) in hists.iter().zip(spans.iter()) {
                h.record(v);
            }
            hists[4].record(t.e2e_latency_ns());
        }
        out.phases.submit_to_slot = hists[0].snapshot();
        out.phases.slot_to_work = hists[1].snapshot();
        out.phases.work_to_finish = hists[2].snapshot();
        out.phases.finish_to_merged = hists[3].snapshot();
        out.phases.end_to_end = hists[4].snapshot();
        out
    }
}

/// A scalar field's JSON form: integers stay lossless `Uint`s, flags
/// are JSON booleans (exported to Prometheus as 0/1).
trait Scalar: Sized {
    fn to_json(&self) -> Value;
    fn from_json(v: &Value) -> Option<Self>;
}

macro_rules! scalars {
    ($($t:ty: $to:expr, $from:expr;)*) => {$(
        impl Scalar for $t {
            fn to_json(&self) -> Value { ($to)(self) }
            fn from_json(v: &Value) -> Option<Self> { ($from)(v) }
        }
    )*};
}

scalars! {
    u64: |x: &u64| Value::Uint(*x), Value::as_u64;
    u32: |x: &u32| Value::Uint(u64::from(*x)), |v: &Value| v.as_u64()?.try_into().ok();
    usize: |x: &usize| Value::Uint(*x as u64), |v: &Value| v.as_u64()?.try_into().ok();
    bool: |x: &bool| Value::Bool(*x),
        |v: &Value| if let Value::Bool(b) = v { Some(*b) } else { None };
    String: |x: &String| Value::Str(x.clone()), |v: &Value| v.as_str().map(str::to_string);
}

/// One exported field of a struct `T`: its JSON key (the field name),
/// whether older snapshots may lack it, its Prometheus family
/// (`(kind, name, help)`; `None` = JSON only), and its accessors.
struct Field<T> {
    key: &'static str,
    optional: bool,
    prom: Option<(&'static str, &'static str, &'static str)>,
    get: fn(&T) -> Value,
    set: fn(&mut T, &Value) -> Result<(), String>,
}

/// Declares the field tables, one per struct, one row per field:
///
/// ```text
/// counter|gauge field [optional|derived] "prom_name" "help";
/// json field [optional];
/// counter member.field ...;
/// list field(ELEMENT_TABLE) [optional];
/// ```
///
/// `json` rows are JSON only; `list` rows are arrays of structs with
/// their own table; `optional` marks a field older snapshots may lack
/// (it then parses as the field's default); `derived` exports the
/// value of the struct's method `field()`, which parsing ignores. A
/// `member.field` path reaches into a member struct; the JSON key is
/// the last segment.
macro_rules! field_tables {
    (@opt) => { false };
    (@opt optional) => { true };
    (@opt derived) => { true };
    (@prom json) => { None };
    (@prom list) => { None };
    (@prom counter $name:literal $help:literal) => { Some(("counter", $name, $help)) };
    (@prom gauge $name:literal $help:literal) => { Some(("gauge", $name, $help)) };
    (@key $f:ident) => { stringify!($f) };
    (@key $parent:ident $($f:ident)+) => { field_tables!(@key $($f)+) };
    (@get [derived] ($($f:ident).+)) => { |x| Value::Num(x.$($f).+()) };
    (@get [$($opt:ident)?] ($($f:ident).+) $list:ident) => { |x| items_json($list, &x.$($f).+) };
    (@get [$($opt:ident)?] ($($f:ident).+)) => { |x| Scalar::to_json(&x.$($f).+) };
    (@set [derived] ($($f:ident).+)) => { |_, _| Ok(()) };
    (@set [$($opt:ident)?] ($($f:ident).+) $list:ident) => {
        |x, v| items_parse($list, v).map(|items| x.$($f).+ = items)
    };
    (@set [$($opt:ident)?] ($($f:ident).+)) => {
        |x, v| Scalar::from_json(v).map(|val| x.$($f).+ = val).ok_or_else(|| "mistyped".to_string())
    };
    ($($(#[$doc:meta])* $table:ident: $t:ty {$(
        $kind:ident $($f:ident).+ $(($list:ident))? $($opt:ident)? $($name:literal $help:literal)?;
    )*})*) => {$(
        $(#[$doc])*
        const $table: &[Field<$t>] = &[$(Field::<$t> {
            key: field_tables!(@key $($f)+),
            optional: field_tables!(@opt $($opt)?),
            prom: field_tables!(@prom $kind $($name $help)?),
            get: field_tables!(@get [$($opt)?] ($($f).+) $($list)?),
            set: field_tables!(@set [$($opt)?] ($($f).+) $($list)?),
        }),*];
    )*};
}

/// A [`Block`] that is one struct's field table: the struct is the
/// snapshot itself, or its member `$f` (exported by `$prom`, when the
/// member has families that are not plain rows).
macro_rules! block {
    ($key:literal $($opt:ident)?, $f:ident: $fields:expr $(, $prom:expr)?) => {
        Block {
            key: $key,
            optional: field_tables!(@opt $($opt)?),
            json: |s| Value::Obj(fields_json($fields, &s.$f)),
            parse: |s, v| fields_parse($fields, v, &mut s.$f),
            prom: block!(@prom $f $fields $(, $prom)?),
        }
    };
    ($key:literal, $fields:expr) => {
        Block {
            key: $key,
            optional: false,
            json: |s| Value::Obj(fields_json($fields, s)),
            parse: |s, v| fields_parse($fields, v, s),
            prom: |s, w| fields_prom($fields, s, w),
        }
    };
    (@prom $f:ident $fields:expr) => { |s, w| fields_prom($fields, &s.$f, w) };
    (@prom $f:ident $fields:expr, $prom:expr) => { $prom };
}

/// A [`Block`] that is an array member `$f`, one field table per
/// element, exported as series labeled `$label="<index>"` (or by
/// `$prom`).
macro_rules! items {
    ($key:literal $($opt:ident)?, $f:ident: $fields:ident, $prom:tt) => {
        Block {
            key: $key,
            optional: field_tables!(@opt $($opt)?),
            json: |s| items_json($fields, &s.$f),
            parse: |s, v| items_parse($fields, v).map(|items| s.$f = items),
            prom: items!(@prom $f $fields $prom),
        }
    };
    (@prom $f:ident $fields:ident $label:literal) => {
        |s, w| series_prom($fields, &s.$f, $label, |i, _| i.to_string(), w)
    };
    (@prom $f:ident $fields:ident $prom:ident) => { $prom };
}

/// One top-level entry of the snapshot document: its JSON key, whether
/// older snapshots may lack it, and how it renders, parses and
/// exports.
struct Block {
    key: &'static str,
    optional: bool,
    json: fn(&RuntimeStats) -> Value,
    parse: fn(&mut RuntimeStats, &Value) -> Result<(), String>,
    prom: fn(&RuntimeStats, &mut PromWriter),
}

fn fields_json<T>(fields: &[Field<T>], x: &T) -> Vec<(String, Value)> {
    fields.iter().map(|f| (f.key.to_string(), (f.get)(x))).collect()
}

fn fields_parse<T>(fields: &[Field<T>], v: &Value, x: &mut T) -> Result<(), String> {
    for f in fields {
        match v.get(f.key) {
            Some(val) => (f.set)(x, val).map_err(|e| format!("`{}`: {e}", f.key))?,
            None if f.optional => {}
            None => return Err(format!("missing field `{}`", f.key)),
        }
    }
    Ok(())
}

/// One unlabeled family per exported field.
fn fields_prom<T>(fields: &[Field<T>], x: &T, w: &mut PromWriter) {
    series_prom(fields, std::slice::from_ref(x), "", |_, _| String::new(), w);
}

fn items_json<T>(fields: &[Field<T>], items: &[T]) -> Value {
    Value::Arr(items.iter().map(|x| Value::Obj(fields_json(fields, x))).collect())
}

fn items_parse<T: Default>(fields: &[Field<T>], v: &Value) -> Result<Vec<T>, String> {
    let parse = |e: &Value| {
        let mut x = T::default();
        fields_parse(fields, e, &mut x).map(|()| x)
    };
    v.as_arr().ok_or("expected an array")?.iter().map(parse).collect()
}

/// One family per exported field, one sample per item labeled
/// `label="<label_of(index, item)>"` (unlabeled when `label` is empty).
fn series_prom<T>(
    fields: &[Field<T>],
    items: &[T],
    label: &str,
    label_of: fn(usize, &T) -> String,
    w: &mut PromWriter,
) {
    for f in fields {
        let Some((kind, name, help)) = f.prom else { continue };
        w.family(name, kind, help);
        for (i, x) in items.iter().enumerate() {
            let value = label_of(i, x);
            let labels: &[(&str, &str)] = if label.is_empty() { &[] } else { &[(label, &value)] };
            w.sample(name, labels, sample_value(&(f.get)(x)));
        }
    }
}

/// A field value as a Prometheus sample (flags export as 0/1).
fn sample_value(v: &Value) -> f64 {
    match *v {
        Value::Bool(b) => f64::from(u8::from(b)),
        ref v => v.as_f64().unwrap_or(0.0),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// A histogram's JSON form: the totals, the headline percentiles
/// (derived; ignored on parse) and the non-empty buckets as
/// `[index, count]` pairs.
fn hist_json(h: &HistogramSnapshot) -> Value {
    let (p50, p95, p99, p999) = h.percentiles();
    let totals = [("count", h.count), ("sum", h.sum), ("min", h.min), ("max", h.max)];
    let percentiles = [("p50", p50), ("p95", p95), ("p99", p99), ("p999", p999)];
    let mut out: Vec<(String, Value)> = totals
        .into_iter()
        .chain(percentiles)
        .map(|(k, v)| (k.to_string(), Value::Uint(v)))
        .collect();
    let buckets = h
        .sparse()
        .into_iter()
        .map(|(i, c)| Value::Arr(vec![Value::Uint(i as u64), Value::Uint(c)]));
    out.push(("buckets".to_string(), Value::Arr(buckets.collect())));
    Value::Obj(out)
}

fn hist_parse(v: &Value) -> Result<HistogramSnapshot, String> {
    let u =
        |key: &str| u64::from_json(field(v, key)?).ok_or_else(|| format!("mistyped field `{key}`"));
    let pairs = field(v, "buckets")?
        .as_arr()
        .ok_or("`buckets` not an array")?
        .iter()
        .map(|pair| match pair.as_arr() {
            Some([i, c]) => Ok((
                i.as_u64().and_then(|i| usize::try_from(i).ok()).ok_or("bad bucket index")?,
                c.as_u64().ok_or("bad bucket count")?,
            )),
            _ => Err("bucket entry not a pair"),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let snap = HistogramSnapshot::from_sparse(&pairs, u("sum")?, u("min")?, u("max")?)?;
    if snap.count != u("count")? {
        return Err("histogram count disagrees with buckets".into());
    }
    Ok(snap)
}

/// Emits `h` as summary samples of family `name` — the quantiles `qs`,
/// then `_sum` and `_count` — each carrying `labels`.
fn summary_prom(
    w: &mut PromWriter,
    name: &str,
    labels: &[(&str, &str)],
    h: &HistogramSnapshot,
    qs: &[f64],
) {
    for &q in qs {
        let q_label = q.to_string();
        let with_q = [labels, &[("quantile", q_label.as_str())]].concat();
        w.sample(name, &with_q, h.quantile(q) as f64);
    }
    w.sample(&format!("{name}_sum"), labels, h.sum as f64);
    w.sample(&format!("{name}_count"), labels, h.count as f64);
}

field_tables! {
    CONFIG: RuntimeStats {
        json n_slots;
        json n_workers;
        json n_host_threads;
    }
    QUERIES: RuntimeStats {
        counter submitted "algas_queries_submitted_total" "Queries accepted into the queue.";
        counter completed "algas_queries_completed_total" "Queries fully served.";
        counter rejected_queue_full "algas_queries_rejected_queue_full_total"
            "Queries rejected by backpressure.";
    }
    GAUGES: RuntimeStats {
        gauge queue_depth "algas_queue_depth" "Submissions queued right now.";
        gauge slots_occupied "algas_slots_occupied" "Slots holding an in-flight query.";
        gauge base_bytes optional "algas_base_store_bytes" "Bytes of the fp32 corpus.";
        gauge quant_bytes optional "algas_quant_store_bytes"
            "Bytes of the SQ8 mirror (0 if fp32-only).";
    }
    WORKER: WorkerStats {
        counter queries "algas_worker_queries_total" "Queries searched, per worker.";
        counter busy_passes "algas_worker_busy_passes_total" "Worker poll passes that did work.";
        counter idle_passes "algas_worker_idle_passes_total"
            "Worker poll passes that found nothing.";
    }
    HOST: HostStats {
        counter delivered "algas_host_delivered_total"
            "Results merged and delivered, per host poller.";
        counter refills "algas_host_refills_total"
            "Slots refilled from the queue, per host poller.";
        counter busy_passes "algas_host_busy_passes_total" "Host poll passes that did work.";
        counter idle_passes "algas_host_idle_passes_total" "Host poll passes that found nothing.";
    }
    SLOT: SlotStats {
        counter assigned "algas_slot_assigned_total" "None/Done to Work transitions, per slot.";
        counter finished "algas_slot_finished_total" "Work to Finish transitions, per slot.";
        counter delivered "algas_slot_delivered_total" "Finish to Done transitions, per slot.";
    }
    SEARCH: RuntimeStats {
        counter search.steps "algas_search_steps_total" "Search steps executed.";
        counter search.expansions "algas_search_expansions_total" "Candidates expanded.";
        counter search.dist_evals "algas_search_dist_evals_total" "Distances computed.";
        counter search.sorts "algas_search_sorts_total" "Sort/merge invocations.";
        counter search.calc_cycles "algas_search_calc_cycles_total" "Cycles in distance kernels.";
        counter search.sort_cycles "algas_search_sort_cycles_total" "Cycles in sorting/merging.";
        counter search.other_cycles "algas_search_other_cycles_total" "Remaining search cycles.";
        gauge search.sort_fraction derived "algas_search_sort_fraction"
            "Fraction of cycles spent sorting.";
        json entry_dist_milli_total optional;
        gauge hops_per_query derived "algas_search_hops_per_query"
            "Mean CTA search steps per query (entry-selection figure of merit).";
        gauge mean_entry_distance derived "algas_entry_distance_mean"
            "Mean best-entry distance per query.";
    }
    RERANK: RerankStats {
        counter reranks "algas_rerank_total" "SQ8 exact-rerank passes.";
        counter candidates "algas_rerank_candidates_total" "Candidates exactly re-ranked.";
        counter promotions "algas_rerank_promotions_total" "Rerank-order promotions.";
    }
    MERGE: MergeStats {
        counter merges "algas_merge_total" "Host-side TopK merges.";
        counter elements "algas_merge_elements_total" "Elements merged.";
        counter dupes_dropped "algas_merge_dupes_dropped_total" "Duplicate ids dropped in merges.";
    }
    FLIGHT: FlightTotals {
        counter completions "algas_flight_completions_total"
            "Completions examined by the flight recorder.";
        counter events "algas_flight_events_total" "Trace events written across all slot rings.";
        gauge retained "algas_flight_retained" "Query traces currently retained.";
    }
    CONTROL: ControlStats {
        gauge enabled "algas_control_enabled"
            "1 when an SLO is configured and the controller is live.";
        gauge slo_ns "algas_control_slo_ns" "Configured p99 service-latency target.";
        gauge level "algas_control_level" "Current effort level (0 = full effort).";
        gauge max_level "algas_control_max_level" "Cheapest effort level available.";
        gauge beam_width "algas_control_beam_width" "Current beam width (0 = greedy).";
        gauge offset_beam "algas_control_offset_beam"
            "Current diffusing-switch offset (0 = greedy).";
        gauge rerank_depth "algas_control_rerank_depth" "Current exact-rerank pool depth.";
        gauge n_ctas optional "algas_control_n_ctas" "Parallel CTAs per query at the current rung.";
        gauge last_p99_ns "algas_control_last_p99_ns" "Window p99 at the last controller tick.";
        counter ticks "algas_control_ticks_total" "Controller ticks run.";
        counter sheds "algas_control_sheds_total" "Ticks that shed effort.";
        counter restores "algas_control_restores_total" "Ticks that restored effort.";
        counter holds "algas_control_holds_total" "Ticks that held the level.";
        json last_reason optional;
    }
    NET: NetStats {
        counter connections_accepted "algas_net_connections_accepted_total"
            "TCP connections accepted by the query listener.";
        counter connections_closed "algas_net_connections_closed_total"
            "Query connections fully closed.";
        counter frames_in "algas_net_frames_in_total" "Complete frames decoded from clients.";
        counter frames_out "algas_net_frames_out_total" "Frames written to clients.";
        counter bytes_in "algas_net_bytes_in_total" "Bytes read from client sockets.";
        counter bytes_out "algas_net_bytes_out_total" "Bytes written to client sockets.";
        counter protocol_errors "algas_net_protocol_errors_total" "Frames rejected as malformed.";
        counter backpressure_rejects "algas_net_backpressure_rejects_total"
            "Requests answered with RETRY_AFTER.";
    }
    NET_CLOSED: ClosedConnTotals {
        counter bytes_in "algas_net_conn_closed_bytes_in_total"
            "Bytes read over all closed connections.";
        counter bytes_out "algas_net_conn_closed_bytes_out_total"
            "Bytes written over all closed connections.";
        counter errors "algas_net_conn_closed_errors_total"
            "Protocol errors answered over all closed connections.";
        counter retry_afters "algas_net_conn_closed_retry_afters_total"
            "RETRY_AFTER responses sent over all closed connections.";
    }
    CONN: ConnStats {
        json id;
        gauge inflight "algas_net_conn_inflight" "Requests in flight, per open connection.";
        counter bytes_in "algas_net_conn_bytes_in_total" "Bytes read, per open connection.";
        counter bytes_out "algas_net_conn_bytes_out_total" "Bytes written, per open connection.";
        gauge backlog_high_water "algas_net_conn_backlog_high_water_bytes"
            "Largest pending-write backlog seen, per open connection.";
        counter errors "algas_net_conn_errors_total"
            "Protocol errors answered, per open connection.";
        counter retry_afters "algas_net_conn_retry_afters_total"
            "RETRY_AFTER responses sent, per open connection.";
    }
    QLOG: QlogTotals {
        counter logged "algas_qlog_records_total" "Wide-event records accepted.";
        counter dropped "algas_qlog_dropped_total" "Records dropped (ring full).";
        counter drained "algas_qlog_drained_total" "Records drained as JSON lines.";
    }
    EXEMPLAR: TailExemplar {
        gauge e2e_ns "algas_tail_exemplar_e2e_ns"
            "Slowest end-to-end latency in the current exemplar window.";
        gauge request_id "algas_tail_exemplar_request_id"
            "Wire request id of the exemplar delivery (grep it in /traces).";
    }
    WINDOW_BLOCK: WindowBlock {
        json period_ms;
        json slots;
        json slo_ns;
        json health;
        list windows(WINDOW);
    }
    WINDOW: WindowStats {
        json target_s;
        json span_ms;
        gauge completed "algas_window_completed" "Queries completed inside the moving window.";
        json submitted;
        json p50_ns;
        json p99_ns;
        json max_ns;
        json attainment_ppm;
    }
    PROF: ProfStats {
        json hz;
        counter passes "algas_prof_passes_total" "Thread-state sampler passes since start.";
        list threads(PROF_THREAD);
    }
    PROF_THREAD: ProfThreadStats {
        json kind;
        json label;
        list states(PROF_STATE);
    }
    PROF_STATE: ProfStateCount {
        json state;
        json samples;
    }
}

/// The snapshot document's top-level entries, in Prometheus page
/// order. Blocks marked optional are absent in snapshots written before
/// their subsystem existed.
const BLOCKS: &[Block] = &[
    Block {
        key: "config",
        optional: false,
        json: |s| Value::Obj(fields_json(CONFIG, s)),
        parse: |s, v| fields_parse(CONFIG, v, s),
        // The runtime shape is exported as the labels of one gauge.
        prom: |s, w| {
            let values: Vec<String> = CONFIG.iter().map(|f| (f.get)(s).render()).collect();
            let labels: Vec<(&str, &str)> =
                CONFIG.iter().zip(&values).map(|(f, v)| (f.key, v.as_str())).collect();
            let name = "algas_runtime_info";
            w.family(name, "gauge", "Configured runtime shape, as labels.")
                .sample(name, &labels, 1.0);
        },
    },
    block!("queries", QUERIES),
    block!("gauges", GAUGES),
    items!("workers", per_worker: WORKER, "worker"),
    items!("hosts", per_host: HOST, "host"),
    items!("slots", per_slot: SLOT, "slot"),
    Block {
        key: "phases",
        optional: false,
        json: |s| {
            let named = s.phases.named().into_iter();
            Value::Obj(named.map(|(name, h)| (name.to_string(), hist_json(h))).collect())
        },
        parse: |s, v| {
            for (name, h) in s.phases.named_mut() {
                *h = hist_parse(field(v, name)?).map_err(|e| format!("`{name}`: {e}"))?;
            }
            Ok(())
        },
        prom: |s, w| {
            let name = "algas_phase_latency_ns";
            w.family(name, "summary", "Query lifecycle phase latency, nanoseconds.");
            for (phase, h) in s.phases.named() {
                summary_prom(w, name, &[("phase", phase)], h, &[0.5, 0.95, 0.99, 0.999]);
            }
        },
    },
    block!("search", SEARCH),
    block!("rerank" optional, rerank: RERANK),
    block!("merge", merge: MERGE),
    block!("flight" optional, flight: FLIGHT),
    Block {
        key: "control",
        optional: true,
        json: |s| Value::Obj(fields_json(CONTROL, &s.control)),
        parse: |s, v| {
            // Snapshots from before the controller reported its reasons.
            s.control.last_reason = "init".to_string();
            fields_parse(CONTROL, v, &mut s.control)
        },
        prom: |s, w| fields_prom(CONTROL, &s.control, w),
    },
    block!("net" optional, net: NET),
    block!("net_closed" optional, net_closed: NET_CLOSED),
    items!("net_conns" optional, net_conns: CONN, conns_prom),
    Block {
        key: "conn_series_max",
        optional: true,
        json: |s| Value::Uint(s.conn_series_max),
        parse: |s, v| v.as_u64().map(|n| s.conn_series_max = n).ok_or("not an integer".into()),
        // Shapes the `net_conns` series; not a metric itself.
        prom: |_, _| {},
    },
    Block {
        key: "retry_backoff_us",
        optional: true,
        json: |s| hist_json(&s.retry_backoff),
        parse: |s, v| hist_parse(v).map(|h| s.retry_backoff = h),
        prom: |s, w| {
            let name = "algas_net_retry_backoff_us";
            w.family(name, "summary", "Advised RETRY_AFTER backoff delay, microseconds.");
            summary_prom(w, name, &[], &s.retry_backoff, &[0.5, 0.99]);
        },
    },
    block!("qlog" optional, qlog: QLOG),
    block!("exemplar" optional, exemplar: EXEMPLAR),
    block!("window" optional, window: WINDOW_BLOCK, window_prom),
    block!("prof" optional, prof: PROF, prof_prom),
];

/// Per-connection series stay bounded: past `conn_series_max` the
/// remaining connections collapse into one `conn="other"` series
/// (counters sum; the high-water gauge takes the max).
fn conns_prom(s: &RuntimeStats, w: &mut PromWriter) {
    let cap = match s.conn_series_max {
        0 => usize::MAX,
        max => usize::try_from(max).unwrap_or(usize::MAX),
    };
    let (head, tail) = s.net_conns.split_at(cap.min(s.net_conns.len()));
    for f in CONN {
        let Some((kind, name, help)) = f.prom else { continue };
        w.family(name, kind, help);
        for c in head {
            w.sample(name, &[("conn", &c.id.to_string())], sample_value(&(f.get)(c)));
        }
        if !tail.is_empty() {
            let vals = tail.iter().map(|c| (f.get)(c).as_u64().unwrap_or(0));
            let v =
                if f.key == "backlog_high_water" { vals.max().unwrap_or(0) } else { vals.sum() };
            w.sample(name, &[("conn", "other")], v as f64);
        }
    }
}

/// The moving-window families, present once the ring has computed a
/// window.
fn window_prom(s: &RuntimeStats, w: &mut PromWriter) {
    let windows = &s.window.windows;
    if windows.is_empty() {
        return;
    }
    series_prom(WINDOW, windows, "window", |_, wd| window_label(wd), w);
    let per_window =
        |w: &mut PromWriter, name: &str, help: &str, value: fn(&WindowStats) -> f64| {
            w.family(name, "gauge", help);
            for wd in windows {
                w.sample(name, &[("window", &window_label(wd))], value(wd));
            }
        };
    per_window(
        w,
        "algas_window_rate_qps",
        "Completion rate over the moving window, queries/second.",
        WindowStats::rate_qps,
    );
    let name = "algas_window_latency_ns";
    w.family(name, "gauge", "Moving-window end-to-end latency quantiles, nanoseconds.");
    for wd in windows {
        for (q, v) in [("0.5", wd.p50_ns), ("0.99", wd.p99_ns), ("1", wd.max_ns)] {
            w.sample(name, &[("window", &window_label(wd)), ("quantile", q)], v as f64);
        }
    }
    per_window(
        w,
        "algas_window_slo_attainment_ratio",
        "Fraction of windowed completions inside the SLO (1 with no SLO armed).",
        |wd| wd.attainment_ppm as f64 / 1e6,
    );
    per_window(
        w,
        "algas_window_span_seconds",
        "Actual span each moving window covers (truncated while warming up).",
        |wd| wd.span_ms as f64 / 1e3,
    );
    let name = "algas_window_degraded";
    w.family(name, "gauge", "1 when the multi-window SLO burn-rate rule says degraded.")
        .scalar(name, u64::from(s.window.degraded()));
}

fn window_label(wd: &WindowStats) -> String {
    wd.target_s.to_string() + "s"
}

/// The profiler attribution, present once a thread has registered.
fn prof_prom(s: &RuntimeStats, w: &mut PromWriter) {
    if s.prof.threads.is_empty() {
        return;
    }
    fields_prom(PROF, &s.prof, w);
    let name = "algas_prof_samples_total";
    w.family(name, "counter", "Sampler observations per thread and state (profiler attribution).");
    for t in &s.prof.threads {
        for sc in &t.states {
            let labels = [("kind", t.kind.as_str()), ("thread", &t.label), ("state", &sc.state)];
            w.sample(name, &labels, sc.samples as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::hist::Histogram;
    use super::*;
    use crate::obs::prom::parse_prometheus;

    fn sample_stats() -> RuntimeStats {
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
        s.merge = MergeStats { merges: 38, elements: 300, dupes_dropped: 4 };
        s.flight = FlightTotals { completions: 38, events: 410, retained: 5 };
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
                bytes_in: 5_280,
                bytes_out: 6_608,
                backlog_high_water: 4_096,
                errors: 1,
                retry_afters: 4,
            },
            ConnStats {
                id: 6,
                inflight: 0,
                bytes_in: 5_280,
                bytes_out: 6_608,
                backlog_high_water: 512,
                errors: 1,
                retry_afters: 3,
            },
        ];
        s.net_closed =
            ClosedConnTotals { bytes_in: 4_000, bytes_out: 5_500, errors: 2, retry_afters: 3 };
        s.conn_series_max = 1;
        let b = Histogram::new();
        for v in [150u64, 220, 900, 12_000] {
            b.record(v);
        }
        s.retry_backoff = b.snapshot();
        s.qlog = QlogTotals { logged: 30, dropped: 2, drained: 28 };
        s.exemplar = TailExemplar { e2e_ns: 100_000, request_id: 777 };
        s.window = WindowBlock {
            period_ms: 1_000,
            slots: 12,
            slo_ns: 2_000_000,
            health: "ok".to_string(),
            windows: vec![
                WindowStats {
                    target_s: 1,
                    span_ms: 1_000,
                    completed: 5,
                    submitted: 6,
                    p50_ns: 90_000,
                    p99_ns: 480_000,
                    max_ns: 500_000,
                    attainment_ppm: 1_000_000,
                },
                WindowStats {
                    target_s: 10,
                    span_ms: 10_000,
                    completed: 38,
                    submitted: 40,
                    p50_ns: 100_000,
                    p99_ns: 1_600_000,
                    max_ns: 2_100_000,
                    attainment_ppm: 973_684,
                },
            ],
        };
        s.prof = ProfStats {
            hz: 97,
            passes: 970,
            threads: vec![
                ProfThreadStats {
                    kind: "worker".to_string(),
                    label: "worker-0".to_string(),
                    states: vec![
                        ProfStateCount { state: "scan".to_string(), samples: 600 },
                        ProfStateCount { state: "idle".to_string(), samples: 370 },
                    ],
                },
                ProfThreadStats {
                    kind: "host".to_string(),
                    label: "host-0".to_string(),
                    states: vec![ProfStateCount { state: "merge".to_string(), samples: 970 }],
                },
            ],
        };
        s
    }

    #[test]
    fn json_roundtrips_exactly() {
        let s = sample_stats();
        let text = s.to_json();
        assert_eq!(RuntimeStats::from_json(&text).unwrap(), s);
        // The empty snapshot round-trips too.
        let e = RuntimeStats::empty(4, 2, 2);
        assert_eq!(RuntimeStats::from_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(RuntimeStats::from_json("{}").is_err());
        assert!(RuntimeStats::from_json("not json").is_err());
        // A tampered histogram count is caught.
        let tampered = sample_stats().to_json().replacen("\"count\":5", "\"count\":6", 1);
        assert!(RuntimeStats::from_json(&tampered).is_err());
        // Bucket counts that overflow u64 when summed are an error, not
        // a panic.
        let hostile = sample_stats().to_json().replacen(
            "\"buckets\":[]",
            "\"buckets\":[[1,18446744073709551615],[2,18446744073709551615]]",
            1,
        );
        assert!(RuntimeStats::from_json(&hostile).is_err());
    }

    #[test]
    fn prometheus_page_parses_and_carries_values() {
        let s = sample_stats();
        crate::obs::prom::check_exposition(&s.to_prometheus()).expect("well-formed exposition");
        let samples = parse_prometheus(&s.to_prometheus()).unwrap();
        let find = |name: &str| samples.iter().find(|x| x.name == name).unwrap();
        assert_eq!(find("algas_queries_submitted_total").value, 40.0);
        assert_eq!(find("algas_queries_rejected_queue_full_total").value, 3.0);
        assert_eq!(find("algas_rerank_candidates_total").value, 760.0);
        assert_eq!(find("algas_rerank_promotions_total").value, 12.0);
        assert_eq!(find("algas_slots_occupied").value, 1.0);
        assert_eq!(find("algas_base_store_bytes").value, 48_000.0);
        assert_eq!(find("algas_quant_store_bytes").value, 12_400.0);
        assert_eq!(find("algas_flight_completions_total").value, 38.0);
        assert_eq!(find("algas_flight_events_total").value, 410.0);
        assert_eq!(find("algas_flight_retained").value, 5.0);
        assert_eq!(find("algas_control_enabled").value, 1.0);
        assert_eq!(find("algas_control_level").value, 2.0);
        assert_eq!(find("algas_control_sheds_total").value, 3.0);
        assert_eq!(find("algas_control_last_p99_ns").value, 1_900_000.0);
        assert_eq!(find("algas_qlog_records_total").value, 30.0);
        assert_eq!(find("algas_qlog_dropped_total").value, 2.0);
        assert_eq!(find("algas_tail_exemplar_e2e_ns").value, 100_000.0);
        assert_eq!(find("algas_tail_exemplar_request_id").value, 777.0);
        assert_eq!(find("algas_net_retry_backoff_us_count").value, 4.0);
        let conn5 = samples
            .iter()
            .find(|x| x.name == "algas_net_conn_retry_afters_total" && x.label("conn") == Some("5"))
            .unwrap();
        assert_eq!(conn5.value, 4.0);
        // conn_series_max = 1, so connection 6 collapses into "other".
        assert!(!samples
            .iter()
            .any(|x| x.name.starts_with("algas_net_conn_") && x.label("conn") == Some("6")));
        let other = samples
            .iter()
            .find(|x| x.name == "algas_net_conn_bytes_in_total" && x.label("conn") == Some("other"))
            .unwrap();
        assert_eq!(other.value, 5_280.0);
        assert_eq!(find("algas_net_conn_closed_bytes_out_total").value, 5_500.0);
        assert_eq!(find("algas_net_conn_closed_retry_afters_total").value, 3.0);
        let w10 = |name: &str| {
            samples.iter().find(|x| x.name == name && x.label("window") == Some("10s")).unwrap()
        };
        assert_eq!(w10("algas_window_completed").value, 38.0);
        assert_eq!(w10("algas_window_rate_qps").value, 3.8);
        assert_eq!(w10("algas_window_slo_attainment_ratio").value, 0.973684);
        let wp99 = samples
            .iter()
            .find(|x| {
                x.name == "algas_window_latency_ns"
                    && x.label("window") == Some("10s")
                    && x.label("quantile") == Some("0.99")
            })
            .unwrap();
        assert_eq!(wp99.value, 1_600_000.0);
        assert_eq!(find("algas_window_degraded").value, 0.0);
        assert_eq!(find("algas_prof_passes_total").value, 970.0);
        let scan = samples
            .iter()
            .find(|x| {
                x.name == "algas_prof_samples_total"
                    && x.label("thread") == Some("worker-0")
                    && x.label("state") == Some("scan")
            })
            .unwrap();
        assert_eq!(scan.value, 600.0);
        let hops = find("algas_search_hops_per_query").value;
        assert!((hops - s.hops_per_query()).abs() < 1e-12);
        let ed = find("algas_entry_distance_mean").value;
        assert!((ed - s.mean_entry_distance()).abs() < 1e-12);
        let w1 = samples
            .iter()
            .find(|x| x.name == "algas_worker_queries_total" && x.label("worker") == Some("1"))
            .unwrap();
        assert_eq!(w1.value, 18.0);
        let p99 = samples
            .iter()
            .find(|x| {
                x.name == "algas_phase_latency_ns"
                    && x.label("phase") == Some("end_to_end")
                    && x.label("quantile") == Some("0.99")
            })
            .unwrap();
        assert_eq!(p99.value, s.phases.end_to_end.quantile(0.99) as f64);
        let frac = find("algas_search_sort_fraction").value;
        assert!((frac - s.search.sort_fraction()).abs() < 1e-12);
    }

    #[test]
    fn sim_report_maps_onto_the_same_schema() {
        use algas_gpu_sim::sched::QueryTiming;
        let timings = vec![
            QueryTiming {
                arrival_ns: 0,
                dispatch_ns: 100,
                gpu_start_ns: 150,
                gpu_done_ns: 1_150,
                completion_ns: 1_200,
            },
            QueryTiming {
                arrival_ns: 50,
                dispatch_ns: 120,
                gpu_start_ns: 180,
                gpu_done_ns: 2_180,
                completion_ns: 2_250,
            },
        ];
        let report = SimReport::from_timings(timings, 0.9, 0.0, 0, 0);
        let s = RuntimeStats::from_sim_report(&report, 8);
        assert_eq!(s.n_slots, 8);
        assert_eq!((s.submitted, s.completed), (2, 2));
        assert_eq!(s.phases.work_to_finish.count, 2);
        assert_eq!(s.phases.work_to_finish.min, 1_000);
        assert!(s.phases.end_to_end.quantile(0.5) >= 1_200);
        assert!(s.phases.merged_to_delivered.is_empty());
        // And it serializes like any native snapshot.
        assert_eq!(RuntimeStats::from_json(&s.to_json()).unwrap(), s);
    }
}
