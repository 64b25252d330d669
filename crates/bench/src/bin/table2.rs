//! Regenerate Table 2 of the paper: Naïve vs Delta evaluation times, total
//! number of nodes fed back, and recursion depth, for every workload on both
//! back-ends — plus the **batched** variant of the per-item cells, where all
//! seeds run as one multi-source fixpoint over a `(seed, node)` relation.
//!
//! ```bash
//! cargo run --release -p xqy_bench --bin table2             # quick scales
//! cargo run --release -p xqy_bench --bin table2 -- --quick  # same, explicit (CI smoke run)
//! cargo run --release -p xqy_bench --bin table2 -- --full   # paper-sized rows
//! ```
//!
//! Every cell goes through the prepared-query surface: the workload query is
//! prepared once per cell and the timed region is one
//! `PreparedQuery::execute` (or `execute_batched` for the `batch Delta`
//! column) with the seed nodes bound to `$seed`.
//!
//! Absolute times are not comparable with the paper's 2008 hardware and
//! engines; the reproduced quantities are the *ratios* (Delta vs Naïve,
//! batched vs per-seed), the engine-independent "nodes fed back" columns and
//! the recursion depths.

use xqy_bench::{
    engine_for, run_cell, run_cell_batched, run_cell_batched_parallel, table2_rows, Backend,
    FixpointStrategy,
};
use xqy_ifp::Parallelism;

fn main() {
    // `--quick` (the default) keeps the small/medium rows; `--full` adds
    // the paper-sized instances.
    let full = std::env::args().any(|a| a == "--full");
    let rows = table2_rows(full);
    // The parallel batched column shards over one thread per core (or over
    // whatever XQY_FIXPOINT_THREADS requests); on a single-core machine it
    // degenerates to the sequential batched cell.
    let parallelism = Parallelism::from_env().unwrap_or(Parallelism::Auto);
    let threads = parallelism.threads();

    println!(
        "{:<28} | {:>13} {:>13} {:>13} {:>13} | {:>13} {:>13} {:>13} | {:>12} {:>12} | {:>5}",
        "Query",
        "algebra Naive",
        "algebra Delta",
        "batch Delta",
        format!("par batch t{threads}"),
        "source Naive",
        "source Delta",
        "src batch",
        "fed (Naive)",
        "fed (Delta)",
        "depth"
    );
    println!("{}", "-".repeat(174));

    let mut json_rows: Vec<String> = Vec::new();

    for workload in rows {
        let mut cells = Vec::new();
        for backend in [Backend::Algebraic, Backend::SourceLevel] {
            for algorithm in [FixpointStrategy::Naive, FixpointStrategy::Delta] {
                let mut engine = engine_for(&workload);
                cells.push(run_cell(&mut engine, &workload, backend, algorithm));
            }
        }
        // The batched multi-source cells only apply to per-item workloads
        // (a single-fixpoint workload already runs one fixpoint): one on
        // the relational back-end, one through the batched source-level
        // driver (distinct-frontier sharing in the interpreter).
        let batched = workload.per_item.then(|| {
            let mut engine = engine_for(&workload);
            run_cell_batched(
                &mut engine,
                &workload,
                Backend::Algebraic,
                FixpointStrategy::Delta,
            )
        });
        // The same relational batched cell, sharded over `threads` OS
        // threads (the tentpole of PR 6) — the thread-count column.
        let par_batched = (workload.per_item && threads > 1).then(|| {
            let mut engine = engine_for(&workload);
            run_cell_batched_parallel(
                &mut engine,
                &workload,
                Backend::Algebraic,
                FixpointStrategy::Delta,
                parallelism,
            )
        });
        let src_batched = workload.per_item.then(|| {
            let mut engine = engine_for(&workload);
            run_cell_batched(
                &mut engine,
                &workload,
                Backend::SourceLevel,
                FixpointStrategy::Delta,
            )
        });
        let (alg_naive, alg_delta, src_naive, src_delta) =
            (&cells[0], &cells[1], &cells[2], &cells[3]);
        assert_eq!(alg_naive.result_size, alg_delta.result_size);
        assert_eq!(src_naive.result_size, src_delta.result_size);
        if let Some(batched) = &batched {
            assert_eq!(batched.result_size, alg_delta.result_size);
        }
        if let Some(par_batched) = &par_batched {
            // Sequential equivalence: the sharded run reports the same
            // result set, fed-back total and depth as the sequential one.
            let batched = batched.as_ref().expect("parallel implies batched");
            assert_eq!(par_batched.result_size, batched.result_size);
            assert_eq!(par_batched.nodes_fed_back, batched.nodes_fed_back);
            assert_eq!(par_batched.depth, batched.depth);
        }
        if let Some(src_batched) = &src_batched {
            assert_eq!(src_batched.result_size, src_delta.result_size);
        }
        if let (Some(batched), Some(par_batched)) = (&batched, &par_batched) {
            json_rows.push(format!(
                "    {{\"workload\": \"{}\", \"threads\": {}, \"batch_delta_ns\": {}, \"parallel_batch_delta_ns\": {}, \"speedup\": {:.2}}}",
                workload.label,
                threads,
                batched.elapsed.as_nanos(),
                par_batched.elapsed.as_nanos(),
                batched.elapsed.as_secs_f64() / par_batched.elapsed.as_secs_f64().max(1e-9),
            ));
        }
        let col = |cell: &Option<xqy_bench::CellResult>| match cell {
            Some(cell) => format!("{:>10.1?}", cell.elapsed),
            None => format!("{:>10}", "-"),
        };
        println!(
            "{:<28} | {:>10.1?} {:>10.1?} {:>13} {:>13} | {:>10.1?} {:>10.1?} {:>13} | {:>12} {:>12} | {:>5}",
            workload.label,
            alg_naive.elapsed,
            alg_delta.elapsed,
            col(&batched),
            col(&par_batched),
            src_naive.elapsed,
            src_delta.elapsed,
            col(&src_batched),
            src_naive.nodes_fed_back,
            src_delta.nodes_fed_back,
            src_delta.depth,
        );
    }
    println!();
    println!("(speed-ups: Delta vs Naive per back-end; 'batch Delta' / 'src batch' run all");
    println!(" per-item seeds as one multi-source fixpoint — on the relational executor and");
    println!(" through the batched source-level interpreter driver respectively; 'par batch'");
    println!(" shards the relational batched cell across OS threads over a frozen store");
    println!(" snapshot; 'fed' columns are the engine-independent 'Total # of Nodes Fed");
    println!(" Back' of Table 2.)");

    // Record the thread-count column next to the criterion artifact: the
    // single-run table2 measurements of the parallel batched cells, written
    // when `TABLE2_PARALLEL_JSON` names a file (CI uploads it alongside the
    // bench artifact).
    if let Ok(path) = std::env::var("TABLE2_PARALLEL_JSON") {
        if !path.is_empty() && !json_rows.is_empty() {
            let out = format!(
                "{{\n  \"threads\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
                threads,
                json_rows.join(",\n")
            );
            if let Err(err) = std::fs::write(&path, out) {
                eprintln!("table2: could not write {path}: {err}");
            }
        }
    }
}
