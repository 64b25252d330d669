//! Table 2, rows 1–4: the XMark-style bidder network, Naïve vs Delta on
//! both back-ends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xqy_bench::{bidder_network, engine_for, run_cell, Backend, FixpointStrategy};
use xqy_datagen::Scale;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("bidder_network");
    group.sample_size(10);
    // The medium/large/huge instances are exercised by the `table2` binary;
    // keeping the criterion benches at the small scale bounds `cargo bench`.
    for scale in [Scale::Small] {
        let workload = bidder_network(scale);
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
