//! Per-layer measurements taken from outside the program: timed calls
//! into a layer's public functions, and deltas of the counters and
//! histograms the program exposes.

use std::time::Instant;

use algas_core::engine::{AlgasEngine, SearchScratch};
use algas_core::merge::{merge_topk_into, MergeScratch, MergeStats};
use algas_core::net::frame::{self, Decoded};
use algas_core::obs::{HistogramSnapshot, RuntimeStats};
use algas_core::tracer::StepTotals;
use algas_vector::metric::DistValue;
use algas_vector::{Metric, QuantizedQuery, QuantizedStore, VectorStore};

use crate::spec::derive;
use crate::stats::median;

/// Repetitions of each kernel timing; the median is reported.
const REPS: usize = 7;
/// Distances per kernel timing repetition.
const DISTS_PER_REP: usize = 1 << 18;
/// Ids per `distance_batch` / `score_batch` call.
const BATCH: usize = 64;

/// Nanoseconds per distance of the vector kernels at the workload's
/// dimension.
#[derive(Clone, Copy, Debug)]
pub struct KernelNs {
    /// fp32 `Metric::distance_batch` over the same 64 rows (cache-hot).
    pub fp32_hot: f64,
    /// fp32 over ids drawn across the whole corpus.
    pub fp32_cold: f64,
    /// SQ8 `QuantizedQuery::score_batch` over ids across the corpus.
    pub sq8_cold: f64,
}

/// Times the distance kernels on `base`/`quant` with the workload's
/// queries.
pub fn kernels(
    base: &VectorStore,
    quant: &QuantizedStore,
    queries: &VectorStore,
    seed: u64,
) -> KernelNs {
    let n = base.len() as u64;
    let mut state = derive(seed, 0x1D5);
    let cold_ids: Vec<u32> = (0..DISTS_PER_REP)
        .map(|_| {
            state = derive(state, 1);
            (state % n) as u32
        })
        .collect();
    let hot_ids: Vec<u32> = cold_ids[..BATCH].to_vec();
    let mut out = Vec::with_capacity(BATCH);
    let time = |f: &mut dyn FnMut(usize)| {
        let reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for call in 0..DISTS_PER_REP / BATCH {
                    f(call);
                }
                t.elapsed().as_nanos() as f64 / DISTS_PER_REP as f64
            })
            .collect();
        median(&reps)
    };
    let q = |call: usize| queries.get(call % queries.len());
    let fp32_hot = time(&mut |call| {
        Metric::L2.distance_batch(q(call), base, &hot_ids, &mut out);
        std::hint::black_box(&out);
    });
    let fp32_cold = time(&mut |call| {
        let ids = &cold_ids[call * BATCH..(call + 1) * BATCH];
        Metric::L2.distance_batch(q(call), base, ids, &mut out);
        std::hint::black_box(&out);
    });
    let encoded: Vec<QuantizedQuery> = (0..queries.len().min(64))
        .map(|i| {
            let mut qq = QuantizedQuery::new();
            qq.encode(Metric::L2, queries.get(i), quant);
            qq
        })
        .collect();
    let sq8_cold = time(&mut |call| {
        let ids = &cold_ids[call * BATCH..(call + 1) * BATCH];
        encoded[call % encoded.len()].score_batch(quant, ids, &mut out);
        std::hint::black_box(&out);
    });
    KernelNs { fp32_hot, fp32_cold, sq8_cold }
}

/// Search-layer figures from one engine at one query in flight.
#[derive(Clone, Debug, Default)]
pub struct SearchLayer {
    /// `search_into` wall time per query, µs.
    pub service_us: Vec<f64>,
    /// Re-run `merge_topk_into` wall time per query, µs.
    pub merge_us: Vec<f64>,
    /// Step totals summed over the counted queries.
    pub steps: StepTotals,
    /// Merge counters over the counted queries.
    pub merge: MergeStats,
    /// Rerank candidates over the counted queries.
    pub rerank_candidates: u64,
    /// Rerank promotions over the counted queries.
    pub rerank_promotions: u64,
    /// Queries the counts cover (each query of the set exactly once,
    /// so with a fixed seed the counts repeat exactly).
    pub counted: u64,
}

impl SearchLayer {
    /// Folds another thread's figures in.
    pub fn absorb(&mut self, other: SearchLayer) {
        self.service_us.extend(other.service_us);
        self.merge_us.extend(other.merge_us);
        self.steps.merge(&other.steps);
        self.merge.merge(&other.merge);
        self.rerank_candidates += other.rerank_candidates;
        self.rerank_promotions += other.rerank_promotions;
        self.counted += other.counted;
    }

    /// Counts one finished search from `scratch` (its first pass).
    pub fn count(&mut self, scratch: &SearchScratch, rerank_before: (u64, u64)) {
        self.steps.merge(&scratch.multi.step_totals());
        self.rerank_candidates += scratch.rerank.candidates - rerank_before.0;
        self.rerank_promotions += scratch.rerank.promotions - rerank_before.1;
        self.counted += 1;
    }
}

/// Re-runs the host merge on the per-CTA lists of the last search in
/// `scratch`, timed; returns µs.
pub fn rerun_merge(
    engine: &AlgasEngine,
    scratch: &SearchScratch,
    merge: &mut MergeScratch,
    out: &mut Vec<(DistValue, u32)>,
) -> f64 {
    let depth = if engine.quantized() { engine.rerank_depth() } else { engine.config().k };
    let t = Instant::now();
    merge_topk_into(scratch.multi.per_cta(), depth, merge, out);
    t.elapsed().as_secs_f64() * 1e6
}

/// One query in flight on `engine`: `passes` walks over the query set,
/// timing `search_into` and the re-run merge; counts cover the first
/// walk.
pub fn twin_pass(engine: &AlgasEngine, queries: &VectorStore, passes: usize) -> SearchLayer {
    let mut layer = SearchLayer::default();
    let mut scratch = engine.make_scratch();
    let mut merge = MergeScratch::new();
    let mut merged = Vec::new();
    for pass in 0..passes {
        for qid in 0..queries.len() {
            let before = (scratch.rerank.candidates, scratch.rerank.promotions);
            let t = Instant::now();
            engine.search_into(queries.get(qid), qid as u64, &mut scratch);
            layer.service_us.push(t.elapsed().as_secs_f64() * 1e6);
            let stats_before = merge.stats;
            layer.merge_us.push(rerun_merge(engine, &scratch, &mut merge, &mut merged));
            if pass == 0 {
                layer.count(&scratch, before);
                layer.merge.merge(&merge.stats.since(&stats_before));
            }
        }
    }
    layer
}

/// Nanoseconds per request of the wire codec on the workload's
/// vectors: SEARCH encode + frame decode + payload decode, then RESULT
/// encode + decode with k ids.
pub fn codec_ns(queries: &VectorStore, k: usize) -> f64 {
    let ids: Vec<u32> = (0..k as u32).collect();
    let dists: Vec<f32> = (0..k).map(|i| i as f32).collect();
    let (mut buf, mut query, mut out_ids, mut out_d) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let iters = 20_000;
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                buf.clear();
                frame::encode_search(&mut buf, i as u64, queries.get(i % queries.len()));
                if let Ok(Decoded::Frame { payload, .. }) =
                    frame::decode_frame(&buf, frame::DEFAULT_MAX_PAYLOAD)
                {
                    frame::decode_search_into(payload, &mut query).expect("valid SEARCH");
                }
                buf.clear();
                frame::encode_result(&mut buf, i as u64, &ids, &dists);
                if let Ok(Decoded::Frame { payload, .. }) =
                    frame::decode_frame(&buf, frame::DEFAULT_MAX_PAYLOAD)
                {
                    frame::decode_result_into(payload, &mut out_ids, &mut out_d)
                        .expect("valid RESULT");
                }
                std::hint::black_box((&query, &out_ids));
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&reps)
}

/// The change in the program's own counters over one pass.
pub struct StatsDelta {
    /// Phase histograms over the pass, in `PhaseStats::named()` order.
    pub phases: Vec<(&'static str, HistogramSnapshot)>,
    /// Queries completed.
    pub completed: u64,
    /// Worker and host passes that found no work, and all passes.
    pub idle_passes: u64,
    /// All worker and host passes.
    pub passes: u64,
    /// Flight-recorder events written.
    pub flight_events: u64,
    /// Net frames decoded, bytes in + out, backpressure rejects and
    /// protocol errors.
    pub frames_in: u64,
    /// Bytes read plus bytes written by the listener.
    pub bytes: u64,
    /// RETRY_AFTER answers.
    pub rejects: u64,
    /// Malformed frames.
    pub protocol_errors: u64,
}

impl StatsDelta {
    /// Folds another pass's delta in.
    pub fn merge(&mut self, other: &StatsDelta) {
        for ((_, h), (_, o)) in self.phases.iter_mut().zip(&other.phases) {
            h.merge(o);
        }
        self.completed += other.completed;
        self.idle_passes += other.idle_passes;
        self.passes += other.passes;
        self.flight_events += other.flight_events;
        self.frames_in += other.frames_in;
        self.bytes += other.bytes;
        self.rejects += other.rejects;
        self.protocol_errors += other.protocol_errors;
    }

    /// `after − before`.
    pub fn between(before: &RuntimeStats, after: &RuntimeStats) -> Self {
        let phases = after
            .phases
            .named()
            .into_iter()
            .zip(before.phases.named())
            .map(|((name, a), (_, b))| (name, a.delta(b)))
            .collect();
        let idle = |s: &RuntimeStats| {
            s.per_worker.iter().map(|w| w.idle_passes).sum::<u64>()
                + s.per_host.iter().map(|h| h.idle_passes).sum::<u64>()
        };
        let all = |s: &RuntimeStats| {
            idle(s)
                + s.per_worker.iter().map(|w| w.busy_passes).sum::<u64>()
                + s.per_host.iter().map(|h| h.busy_passes).sum::<u64>()
        };
        Self {
            phases,
            completed: after.completed - before.completed,
            idle_passes: idle(after) - idle(before),
            passes: all(after) - all(before),
            flight_events: after.flight.events - before.flight.events,
            frames_in: after.net.frames_in - before.net.frames_in,
            bytes: (after.net.bytes_in + after.net.bytes_out)
                - (before.net.bytes_in + before.net.bytes_out),
            rejects: after.net.backpressure_rejects - before.net.backpressure_rejects,
            protocol_errors: after.net.protocol_errors - before.net.protocol_errors,
        }
    }

    /// Quantile `q` of phase `name`, µs.
    pub fn phase_us(&self, name: &str, q: f64) -> f64 {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, h)| h.quantile(q) as f64 / 1e3)
    }
}
