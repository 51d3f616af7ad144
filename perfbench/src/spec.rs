//! What each workload runs and the constants of its drive, and the
//! values recorded in `pins.json` (seeds, recall floors, closure
//! tolerance).

use algas_core::obs::json::Value;
use algas_vector::{DatasetSpec, Metric};

/// Results per query, in every workload.
pub const K: usize = 10;
/// Candidate-list length per CTA, in every workload.
pub const L: usize = 32;
/// Queries generated per corpus.
pub const N_QUERIES: usize = 2_000;
/// Timed set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// The gated tail percentile: p95, not p99 (`tail_reason` in
/// `pins.json` records why).
pub const TAIL: f64 = 0.95;

/// `serve-net` light pass rate, q/s.
pub const LIGHT_QPS: f64 = 300.0;
/// `serve-net` heavy pass rate, q/s, where the ladder starts.
pub const HEAVY_QPS: f64 = 1_800.0;
/// Each ladder rung offers this share more than the one before.
pub const LADDER_STEP: f64 = 0.05;
/// Most ladder passes run.
pub const LADDER_MAX_PASSES: u64 = 16;
/// Client p99 a passing rung stays within, µs.
pub const SLO_P99_US: f64 = 20_000.0;
/// Achieved over offered rate a passing rung needs (no growing
/// backlog).
pub const MIN_ACHIEVED_SHARE: f64 = 0.97;

/// How a workload drives the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// In-process `AlgasServer::submit` → reply, one client, closed
    /// loop, one query in flight.
    InProc,
    /// `NetServer` on loopback driven open-loop from one connection.
    Net,
    /// `AlgasEngine::search_into` from `nproc` caller threads.
    Batch,
}

/// One workload: its corpus, engine and drive.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// How the workload drives the program.
    pub drive: Drive,
    /// Corpus label.
    pub corpus: &'static str,
    /// Base vectors.
    pub n_base: usize,
    /// Dimension.
    pub dim: usize,
    /// Mixture components of the synthetic corpus.
    pub clusters: usize,
    /// Per-dimension spread around each centroid.
    pub spread: f32,
    /// SQ8 traversal with an fp32 rerank.
    pub quantize: bool,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
}

/// The three workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lowlat-inproc",
        drive: Drive::InProc,
        corpus: "sift4k",
        n_base: 4_000,
        dim: 128,
        clusters: 64,
        spread: 0.8,
        quantize: false,
        why: "batch-of-one latency with no queue and no socket: search and vector do most of the work, runtime handoff the rest",
    },
    Workload {
        name: "serve-net",
        drive: Drive::Net,
        corpus: "sift4k",
        n_base: 4_000,
        dim: 128,
        clusters: 64,
        spread: 0.8,
        quantize: false,
        why: "independent users over TCP, open loop: idle wake-up at light load, slot and queue waiting and the net reactor at heavy load",
    },
    Workload {
        name: "batch-sq8-gist",
        drive: Drive::Batch,
        corpus: "gist3k",
        n_base: 3_000,
        dim: 960,
        clusters: 48,
        spread: 0.6,
        quantize: true,
        why: "offline SQ8 throughput at d=960 with runtime and net bypassed: u8 codes plus an exact rerank, a working set past L2",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The corpus for `seed`: one seed derives the base vectors and
    /// the queries (the arrival schedule derives from it separately).
    pub fn dataset(&self, seed: u64) -> DatasetSpec {
        DatasetSpec {
            name: self.corpus.to_string(),
            n_base: self.n_base,
            n_queries: N_QUERIES,
            dim: self.dim,
            metric: Metric::L2,
            clusters: self.clusters,
            spread: self.spread,
            seed: derive(seed, 0xC0DE),
        }
    }
}

/// A 64-bit mix of `seed` and a stream label (splitmix64 finalizer),
/// so each input stream gets its own well-spread seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The values recorded in `pins.json`: seeds, recall floors and the
/// closure tolerance.
#[derive(Clone, Debug)]
pub struct Pins {
    /// Seed for everyday runs.
    pub default_seed: u64,
    /// Seed kept back for verifying a claimed gain.
    pub heldout_seed: u64,
    /// Closure: per-layer medians must add back to the end-to-end
    /// median within this share of it.
    pub closure_tolerance: f64,
    /// Recall floor per workload.
    floors: Vec<(String, f64)>,
}

impl Pins {
    /// The pins compiled into the binary.
    pub fn load() -> Pins {
        Pins::parse(include_str!("../pins.json")).expect("pins.json is valid")
    }

    /// Parses pins from JSON text.
    ///
    /// # Errors
    /// Names the first missing or mistyped key.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let v = Value::parse(text)?;
        let num = |key: &str| v.get(key).and_then(Value::as_f64).ok_or(format!("pins: `{key}`"));
        let floors = match v.get("recall_floor") {
            Some(Value::Obj(fields)) => fields
                .iter()
                .map(|(k, f)| Ok((k.clone(), f.as_f64().ok_or(format!("pins: floor `{k}`"))?)))
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("pins: `recall_floor`".into()),
        };
        Ok(Pins {
            default_seed: num("default_seed")? as u64,
            heldout_seed: num("heldout_seed")? as u64,
            closure_tolerance: num("closure_tolerance")?,
            floors,
        })
    }

    /// The recall floor of workload `name`.
    pub fn recall_floor(&self, name: &str) -> f64 {
        self.floors.iter().find(|(k, _)| k == name).map_or(1.0, |&(_, f)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_cover_every_workload() {
        let pins = Pins::load();
        for w in &WORKLOADS {
            let floor = pins.recall_floor(w.name);
            assert!(floor > 0.5 && floor < 1.0, "{}: floor {floor}", w.name);
        }
        assert_ne!(pins.default_seed, pins.heldout_seed);
    }

    #[test]
    fn same_seed_replays_inputs_and_another_seed_changes_them() {
        let w = workload("lowlat-inproc").unwrap();
        let small = |seed| DatasetSpec { n_base: 300, n_queries: 20, ..w.dataset(seed) }.generate();
        let (a, b, c) = (small(1), small(1), small(2));
        assert_eq!(a.base.get(17), b.base.get(17));
        assert_eq!(a.queries.get(3), b.queries.get(3));
        assert_ne!(a.base.get(17), c.base.get(17));
        assert_ne!(a.queries.get(3), c.queries.get(3));
    }
}
