//! Parallel batched fixpoints must be **bit-identical** to sequential ones:
//! the `Parallelism` knob shards the per-seed phases of a batched run over a
//! frozen store snapshot, merges at the iteration barrier, and is forbidden
//! from changing any observable output — per-seed node sets, their order,
//! the concatenation, and the per-run statistics.
//!
//! The property test draws random reference graphs, random seed sets (with
//! duplicates) and random recursion bodies from a pool that mixes
//! algebraic-subset bodies (driven over the relational executor) with
//! predicate-filtered ones (driven over the interpreter) — on both, the
//! driver shards its per-seed folds — then checks thread counts 2 and 8
//! against the sequential default under every back-end.

use proptest::prelude::*;

use xqy_ifp::xdm::Sequence;
use xqy_ifp::{Backend, Bindings, Engine, Parallelism, Strategy};

fn curriculum_from_edges(courses: usize, edges: &[(usize, usize)]) -> String {
    let mut out = String::from("<curriculum>");
    for i in 0..courses {
        out.push_str(&format!("<course code=\"c{i}\"><prerequisites>"));
        for (from, to) in edges {
            if *from == i {
                out.push_str(&format!("<pre_code>c{}</pre_code>", to % courses));
            }
        }
        out.push_str("</prerequisites></course>");
    }
    out.push_str("</curriculum>");
    out
}

fn edge_strategy(courses: usize) -> impl proptest::strategy::Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..courses, 0..courses), 0..courses * 3)
}

fn curriculum_engine(xml: &str) -> Engine {
    let mut engine = Engine::new();
    // The property must hold regardless of what XQY_FIXPOINT_THREADS says;
    // pin the baseline so the reference runs are genuinely sequential.
    engine.set_parallelism(Parallelism::Sequential);
    engine
        .load_document_with_ids("c.xml", xml, &["code"])
        .unwrap();
    engine
}

fn all_courses(engine: &mut Engine) -> Sequence {
    engine.run("doc('c.xml')/curriculum/course").unwrap().result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel ≡ sequential: for random graphs, seed sets and bodies, a
    /// batched execution with `Parallelism::Fixed(2)` / `Fixed(8)` returns
    /// exactly the sequential per-seed sequences and concatenation, on
    /// every back-end.
    #[test]
    fn parallel_batched_equals_sequential(
        courses in 2usize..9,
        edges in edge_strategy(8),
        seed_picks in proptest::collection::vec(0usize..9, 1..7),
        body in prop_oneof![
            // Algebraic subset: batched runs go through the relational
            // executor's seed-carried plan.
            Just("$x/id(./prerequisites/pre_code)"),
            Just("$x/prerequisites/pre_code"),
            Just("$x/*"),
            Just("$x/prerequisites union $x/self::course"),
            Just("$x/id(./prerequisites/pre_code) except $x/self::course"),
            // Outside the subset (predicates): batched runs go through the
            // interpreter.
            Just("$x/id(./prerequisites/pre_code)[@code]"),
            Just("$x/*[exists(./pre_code)]"),
            Just("$x/id(./prerequisites/pre_code)[exists(../prerequisites)] union $x/self::course[@code='c0']"),
        ],
    ) {
        let xml = curriculum_from_edges(courses, &edges);
        let query = format!("with $x seeded by $seed recurse {body}");
        for backend in [Backend::SourceLevel, Backend::Algebraic, Backend::Auto] {
            let mut engine = curriculum_engine(&xml);
            engine.set_strategy(Strategy::Auto);
            let prepared = engine.prepare(&query).unwrap().with_backend(backend);
            if backend == Backend::Algebraic
                && !prepared.occurrences()[0].is_algebraic_capable()
            {
                // Forcing the algebraic back-end on an out-of-subset body is
                // a compile error by design; Auto covers this body below.
                continue;
            }
            let courses_seq = all_courses(&mut engine);
            let seeds = Sequence::from_nodes(
                seed_picks
                    .iter()
                    .map(|&i| courses_seq.nodes()[i % courses_seq.len()])
                    .collect::<Vec<_>>(),
            );

            let sequential = prepared
                .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
                .unwrap();

            for threads in [2usize, 8] {
                // Re-prepare instead of cloning: a clone shares the
                // occurrence's cost-feedback cell, so the observations of
                // the sequential baseline would legitimately re-route the
                // parallel run (a different algorithm reports different
                // logical stats).  A fresh prepare makes both runs decide
                // from the same blank slate, isolating the sharding knob —
                // which is what this property pins.
                let parallel = engine
                    .prepare(&query)
                    .unwrap()
                    .with_backend(backend)
                    .with_parallelism(Parallelism::Fixed(threads))
                    .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
                    .unwrap();
                prop_assert_eq!(parallel.batched, sequential.batched);
                prop_assert_eq!(parallel.per_seed.len(), sequential.per_seed.len());
                for (i, (p, s)) in parallel
                    .per_seed
                    .iter()
                    .zip(sequential.per_seed.iter())
                    .enumerate()
                {
                    prop_assert_eq!(
                        p.nodes(),
                        s.nodes(),
                        "seed #{} under {} with {} threads and body {}",
                        i,
                        backend.name(),
                        threads,
                        body
                    );
                }
                prop_assert_eq!(
                    parallel.outcome.result.nodes(),
                    sequential.outcome.result.nodes()
                );
                // Statistics are part of the contract: the shard count must
                // not change how many logical iterations or body
                // evaluations the run reports.
                prop_assert_eq!(
                    parallel.outcome.fixpoints.len(),
                    sequential.outcome.fixpoints.len()
                );
                for (p, s) in parallel
                    .outcome
                    .fixpoints
                    .iter()
                    .zip(sequential.outcome.fixpoints.iter())
                {
                    prop_assert_eq!(p.iterations, s.iterations);
                    prop_assert_eq!(p.nodes_fed_back, s.nodes_fed_back);
                    prop_assert_eq!(p.payload_calls, s.payload_calls);
                    prop_assert_eq!(p.batch_seeds, s.batch_seeds);
                    prop_assert_eq!(p.backend, s.backend);
                }
            }
        }
    }
}

/// The seed-inclusive reading must survive sharding too.
#[test]
fn parallel_batched_respects_seed_in_result() {
    let xml = curriculum_from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 0), (5, 4)]);
    let mut engine = curriculum_engine(&xml);
    engine.set_seed_in_result(true);
    let query = "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)";
    for backend in [Backend::SourceLevel, Backend::Algebraic] {
        let prepared = engine.prepare(query).unwrap().with_backend(backend);
        let seeds = all_courses(&mut engine);
        let sequential = prepared
            .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
            .unwrap();
        let parallel = prepared
            .with_parallelism(Parallelism::Fixed(4))
            .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
            .unwrap();
        assert!(parallel.batched);
        for (i, (p, s)) in parallel
            .per_seed
            .iter()
            .zip(sequential.per_seed.iter())
            .enumerate()
        {
            assert!(p.nodes().contains(&seeds.nodes()[i]));
            assert_eq!(p.nodes(), s.nodes(), "seed #{i} under {}", backend.name());
        }
    }
}

/// One shard per core — what a caller sizing the pool from the machine
/// would pick — still matches sequential output exactly.
#[test]
fn parallel_core_count_matches_sequential() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let xml = curriculum_from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 0), (6, 5)]);
    let mut engine = curriculum_engine(&xml);
    let query = "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)";
    let prepared = engine
        .prepare(query)
        .unwrap()
        .with_backend(Backend::Algebraic);
    let seeds = all_courses(&mut engine);
    let sequential = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    let parallel = prepared
        .with_parallelism(Parallelism::Fixed(cores))
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(parallel.batched);
    assert_eq!(
        parallel.outcome.result.nodes(),
        sequential.outcome.result.nodes()
    );
    for (p, s) in parallel.per_seed.iter().zip(sequential.per_seed.iter()) {
        assert_eq!(p.nodes(), s.nodes());
    }
}

/// Node-constructing bodies mutate the store, which is why bodies run on
/// the caller thread: with the driver's folds sharded they still match the
/// sequential baseline.
#[test]
fn constructing_bodies_stay_sequential_but_correct() {
    let xml = curriculum_from_edges(4, &[(0, 1), (1, 2)]);
    let mut engine = curriculum_engine(&xml);
    engine.set_seed_in_result(true);
    let query = "with $x seeded by $seed recurse \
                 (if (count($x) < 3) then <step/> else ())";
    let prepared = engine.prepare(query).unwrap();
    let seeds = all_courses(&mut engine);
    let sequential = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    let parallel = prepared
        .with_parallelism(Parallelism::Fixed(8))
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert_eq!(parallel.per_seed.len(), sequential.per_seed.len());
    for (p, s) in parallel.per_seed.iter().zip(sequential.per_seed.iter()) {
        assert_eq!(p.len(), s.len());
    }
}
