//! Table 2, row 8: the hospital hereditary-disease workload (vertical
//! recursion into ancestry subtrees of depth ≤ 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xqy_bench::{engine_for, hospital_workload, run_cell, Backend, FixpointStrategy};
use xqy_datagen::Scale;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("hospital");
    group.sample_size(10);
    let workload = hospital_workload(Scale::Small);
    for backend in [Backend::SourceLevel, Backend::Algebraic] {
        for algorithm in [FixpointStrategy::Naive, FixpointStrategy::Delta] {
            let id = BenchmarkId::new(backend.name(), algorithm.name());
            group.bench_with_input(id, &workload, |b, workload| {
                let mut engine = engine_for(workload);
                b.iter(|| run_cell(&mut engine, workload, backend, algorithm));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
