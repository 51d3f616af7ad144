//! The ledger: every metric a run measured, by name, unit and sample
//! count, and the result line the benchmark ends with.

use algas_core::obs::json::{obj, Value};

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("throughput_qps", "1/s"),
    ("recall_at_10", "ratio"),
    ("rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every workload reports with `--trace 1`, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("search.service_us.p50", "us"),
    ("search.service_us.p99", "us"),
    ("search.hops_per_query", "count"),
    ("search.dist_evals_per_query", "count"),
    ("search.expansions_per_query", "count"),
    ("search.sorts_per_query", "count"),
    ("search.vector_share", "ratio"),
    ("vector.fp32_ns_per_dist.hot", "ns"),
    ("vector.fp32_ns_per_dist.cold", "ns"),
    ("vector.sq8_ns_per_dist.cold", "ns"),
    ("merge.us_per_query", "us"),
    ("merge.dup_share", "ratio"),
    ("rerank.candidates_per_query", "count"),
    ("rerank.promotion_share", "ratio"),
    ("graph.build_s", "s"),
    ("quant.encode_s", "s"),
    ("persist.save_s", "s"),
    ("persist.load_s", "s"),
    ("persist.file_mb", "MB"),
    ("engine.new_s", "s"),
    ("trace.overhead_pct.latency_p50_us", "%"),
    ("trace.overhead_pct.latency_p95_us", "%"),
    ("trace.overhead_pct.throughput_qps", "%"),
    ("trace.overhead_pct.recall_at_10", "%"),
    ("trace.overhead_pct.rss_mb", "%"),
    ("trace.overhead_pct.setup_s", "%"),
];

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value rests on.
    pub samples: u64,
}

/// Every metric of one run, in the order measured.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    entries: Vec<Entry>,
}

impl Ledger {
    /// Records a metric (a later value of the same name replaces it).
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: u64) {
        let name = name.into();
        let entry = Entry { name, unit, value, samples };
        match self.entries.iter_mut().find(|e| e.name == entry.name) {
            Some(e) => *e = entry,
            None => self.entries.push(entry),
        }
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.value)
    }

    /// One line per metric: name, value, unit, samples.
    pub fn print(&self, title: &str) {
        println!("# {title}");
        for e in &self.entries {
            println!("{:<44} {:>14.4} {:<6} n={}", e.name, e.value, e.unit, e.samples);
        }
    }

    /// The ledger as a JSON array of `{name, unit, value, samples}`.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.entries
                .iter()
                .map(|e| {
                    obj(vec![
                        ("name", Value::Str(e.name.clone())),
                        ("unit", Value::Str(e.unit.into())),
                        ("value", Value::Num(e.value)),
                        ("samples", Value::Uint(e.samples)),
                    ])
                })
                .collect(),
        )
    }

    /// The `metrics` object of the result line: exactly `names`, each
    /// `{value, unit}`. A name the run did not measure is an error.
    ///
    /// # Errors
    /// Names the first missing metric.
    pub fn select(&self, names: &[(&str, &str)]) -> Result<Value, String> {
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let e = self
                .entries
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if e.unit != unit {
                return Err(format!("metric `{name}` measured in {} not {unit}", e.unit));
            }
            fields.push((
                name,
                obj(vec![("value", Value::Num(e.value)), ("unit", Value::Str(unit.into()))]),
            ));
        }
        Ok(obj(fields))
    }
}

/// The result line: `{"correct","attempted","failed","metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Uint(attempted)),
        ("failed", Value::Uint(failed)),
        ("metrics", metrics),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = Value::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Value::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn select_takes_exactly_the_named_metrics() {
        let mut l = Ledger::default();
        l.put("a", "ms", 1.5, 10);
        l.put("b", "s", 2.0, 3);
        l.put("a", "ms", 1.25, 12);
        let line = result_line(true, 5, 0, l.select(&[("a", "ms")]).unwrap());
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"a":{"value":1.25,"unit":"ms"}}}"#
        );
        assert!(l.select(&[("c", "s")]).is_err());
        assert!(l.select(&[("b", "ms")]).is_err());
    }
}
