//! Fig 18 backing bench: the dynamic simulator under host-thread and
//! state-mode sweeps. The native runtime has no host-thread role (its
//! workers deliver their own results), so Fig 18 stays simulated.

use algas_gpu_sim::sched::dynamic::{run_dynamic, DynamicConfig, StateMode};
use algas_gpu_sim::QueryWork;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_host_threads(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(18);
    let works: Vec<QueryWork> = (0..512)
        .map(|_| {
            let ns = rng.gen_range(40_000u64..120_000);
            QueryWork::synthetic(&[ns; 8], 128, 16)
        })
        .collect();
    let arrivals = vec![0u64; works.len()];
    let mut group = c.benchmark_group("host_parallel_sim");
    for threads in [1usize, 2, 4, 8] {
        for (name, mode) in [("local", StateMode::LocalCopy), ("remote", StateMode::RemotePolling)]
        {
            let cfg = DynamicConfig {
                n_slots: 32,
                host_threads: threads,
                state_mode: mode,
                capacity: 4096,
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, _| {
                b.iter(|| black_box(run_dynamic(&works, &arrivals, &cfg).throughput_qps))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_host_threads);
criterion_main!(benches);
