//! Table 2, rows 6–7: the curriculum transitive-closure consistency check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xqy_bench::{curriculum_workload, engine_for, run_cell, Backend, FixpointStrategy};
use xqy_datagen::Scale;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("curriculum");
    group.sample_size(10);
    // Larger scales are exercised by the `table2` binary.
    for scale in [Scale::Small] {
        let workload = curriculum_workload(scale);
        for backend in [Backend::SourceLevel, Backend::Algebraic] {
            for algorithm in [FixpointStrategy::Naive, FixpointStrategy::Delta] {
                let id = BenchmarkId::new(
                    format!("{}/{}", backend.name(), algorithm.name()),
                    scale.name(),
                );
                group.bench_with_input(id, &workload, |b, workload| {
                    let mut engine = engine_for(workload);
                    b.iter(|| run_cell(&mut engine, workload, backend, algorithm));
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
