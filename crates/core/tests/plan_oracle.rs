//! The differential plan-oracle harness (PR 9).
//!
//! Every point of the `{Naïve, Delta} × {source-level, algebraic} ×
//! {per-seed, batched}` plan grid computes the **same function**; only the
//! cost differs.  This harness pins that down: for random fixpoint bodies,
//! random document shapes and random seed sets, it executes the query under
//! every *valid* grid point (Delta needs a distributivity certificate, the
//! algebraic routes a compiled plan) and asserts the per-seed results are
//! identical — `(len, display)` — to a fixed oracle: forced Naïve on the
//! source-level interpreter, one execution per seed.
//!
//! The `Auto` knobs are then held to the same bar: whatever the plan rule
//! picks must (a) be a point of the valid grid and (b) reproduce the oracle
//! bit for bit.

use proptest::prelude::*;
use xqy_ifp::eval::{FixpointBackendTag, FixpointStrategy};
use xqy_ifp::xdm::Sequence;
use xqy_ifp::{Backend, Bindings, DecisionSource, Engine, OccurrencePlan, PreparedQuery, Strategy};

/// A curriculum document whose prerequisite graph is given by `edges`,
/// plus a decorative `<filler>` subtree (a `wide`-fanout row of leaves and
/// a `chain`-deep spine) that changes the store's shape without touching
/// the `id()` space the recursion bodies traverse.
fn curriculum_xml(courses: usize, edges: &[(usize, usize)], wide: usize, chain: usize) -> String {
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
    out.push_str("<filler>");
    for _ in 0..wide {
        out.push_str("<leaf/>");
    }
    for _ in 0..chain {
        out.push_str("<deep>");
    }
    for _ in 0..chain {
        out.push_str("</deep>");
    }
    out.push_str("</filler></curriculum>");
    out
}

fn engine_for(xml: &str) -> Engine {
    let mut engine = Engine::new();
    engine
        .load_document_with_ids("c.xml", xml, &["code"])
        .unwrap();
    engine
}

fn all_courses(engine: &mut Engine) -> Sequence {
    engine.run("doc('c.xml')/curriculum/course").unwrap().result
}

/// `(len, serialized display)` of a result sequence — the oracle identity.
fn signature(engine: &Engine, seq: &Sequence) -> (usize, String) {
    (seq.len(), engine.display(seq))
}

/// One execution per seed under the given knobs, returning per-seed
/// signatures.
fn per_seed_signatures(
    prepared: &PreparedQuery,
    engine: &mut Engine,
    seeds: &Sequence,
) -> Vec<(usize, String)> {
    seeds
        .iter()
        .map(|item| {
            let bindings = Bindings::new().with("seed", Sequence::singleton(item.clone()));
            let outcome = prepared.execute(engine, &bindings).unwrap();
            signature(engine, &outcome.result)
        })
        .collect()
}

/// One batched execution over all seeds, returning per-seed signatures.
fn batched_signatures(
    prepared: &PreparedQuery,
    engine: &mut Engine,
    seeds: &Sequence,
) -> Vec<(usize, String)> {
    let batch = prepared
        .execute_batched(engine, "seed", seeds, &Bindings::new())
        .unwrap();
    batch
        .per_seed
        .iter()
        .map(|seq| signature(engine, seq))
        .collect()
}

/// The body pool: a mix of algebraic-subset and interpreter-only bodies,
/// distributive and not, `id()`-hopping and purely structural.
fn body_pool() -> impl proptest::strategy::Strategy<Value = &'static str> {
    prop_oneof![
        Just("$x/id(./prerequisites/pre_code)"),
        Just("$x/prerequisites/pre_code"),
        Just("$x/*"),
        Just("$x/self::course"),
        Just("$x/prerequisites union $x/self::course"),
        Just("$x/id(./prerequisites/pre_code) except $x/self::course"),
        Just("($x/self::course, $x/id(./prerequisites/pre_code))"),
        // Outside the algebraic subset (predicates / position):
        Just("$x/id(./prerequisites/pre_code)[@code]"),
        Just("$x/*[exists(./pre_code)]"),
        Just("($x/id(./prerequisites/pre_code))[position() <= 3]"),
        // Non-distributive (count over the whole accumulator):
        Just("if (count($x) > 1) then $x/self::course else $x/id(./prerequisites/pre_code)"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every valid grid point ≡ the Naïve/source-level per-seed oracle,
    /// and Auto's choice is (a) a valid grid point and (b) also ≡ oracle.
    #[test]
    fn every_grid_point_matches_the_oracle(
        courses in 2usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..20),
        seed_picks in proptest::collection::vec(0usize..8, 1..6),
        wide in 0usize..60,
        chain in 0usize..10,
        body in body_pool(),
    ) {
        let xml = curriculum_xml(courses, &edges, wide, chain);
        let query = format!("with $x seeded by $seed recurse {body}");
        let mut engine = engine_for(&xml);
        let courses_seq = all_courses(&mut engine);
        let seeds = Sequence::from_nodes(
            seed_picks
                .iter()
                .map(|&i| courses_seq.nodes()[i % courses_seq.len()])
                .collect::<Vec<_>>(),
        );

        // The oracle: forced Naïve, source-level, one execution per seed.
        let oracle_prepared = engine
            .prepare(&query)
            .unwrap()
            .with_backend(Backend::SourceLevel);
        let analysis = engine.prepare(&query).unwrap();
        let distributive = analysis.distributivity()[0].is_distributive();
        let algebraic = analysis.occurrences()[0].is_algebraic_capable();
        let oracle = {
            let mut e = engine_for(&xml);
            e.set_strategy(Strategy::Naive);
            let p = e.prepare(&query).unwrap().with_backend(Backend::SourceLevel);
            per_seed_signatures(&p, &mut e, &seeds)
        };
        drop(oracle_prepared);

        // Every valid forced grid point must reproduce the oracle, both one
        // fixpoint per seed and batched.
        let mut strategies = vec![Strategy::Naive];
        if distributive {
            strategies.push(Strategy::Delta);
        }
        let mut backends = vec![Backend::SourceLevel];
        if algebraic {
            backends.push(Backend::Algebraic);
        }
        for &strategy in &strategies {
            for &backend in &backends {
                let mut e = engine_for(&xml);
                e.set_strategy(strategy);
                let p = e.prepare(&query).unwrap().with_backend(backend);
                let per_seed = per_seed_signatures(&p, &mut e, &seeds);
                prop_assert_eq!(
                    &per_seed, &oracle,
                    "{:?}/{:?}/per-seed diverged from oracle on body {}",
                    strategy, backend, body
                );
                let batched = batched_signatures(&p, &mut e, &seeds);
                prop_assert_eq!(
                    &batched, &oracle,
                    "{:?}/{:?}/batched diverged from oracle on body {}",
                    strategy, backend, body
                );
            }
        }

        // Auto: the plan rule may pick any valid grid point — and nothing
        // outside it — and must reproduce the oracle too.
        let mut e = engine_for(&xml);
        e.set_strategy(Strategy::Auto);
        let p = e.prepare(&query).unwrap().with_backend(Backend::Auto);
        let auto_per_seed = per_seed_signatures(&p, &mut e, &seeds);
        prop_assert_eq!(&auto_per_seed, &oracle, "Auto/per-seed diverged on body {}", body);
        let auto_batch = p
            .execute_batched(&mut e, "seed", &seeds, &Bindings::new())
            .unwrap();
        let auto_batched: Vec<(usize, String)> = auto_batch
            .per_seed
            .iter()
            .map(|seq| signature(&e, seq))
            .collect();
        prop_assert_eq!(&auto_batched, &oracle, "Auto/batched diverged on body {}", body);
        for plan in &auto_batch.outcome.occurrences {
            prop_assert!(
                plan.strategy == FixpointStrategy::Naive || distributive,
                "Auto chose Delta for a non-distributive body {}",
                body
            );
            prop_assert!(
                plan.backend == FixpointBackendTag::Interpreted || algebraic,
                "Auto chose the algebraic back-end for an uncompilable body {}",
                body
            );
        }
    }
}

/// Auto's decision report on a fixed document is the point the plan rule
/// picks (a deterministic, non-proptest entry point for quick runs).
#[test]
fn auto_decision_is_a_valid_grid_point() {
    let xml = curriculum_xml(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 10, 4);
    let mut engine = engine_for(&xml);
    engine.set_strategy(Strategy::Auto);
    let prepared = engine
        .prepare("with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)")
        .unwrap()
        .with_backend(Backend::Auto);
    let seeds = all_courses(&mut engine);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(batch.batched);
    // The body is distributive and has a seed-carried plan: Delta, on the
    // relational executor, batched, by rule.
    assert_eq!(
        batch.outcome.occurrences[0],
        OccurrencePlan {
            variable: "x".into(),
            strategy: FixpointStrategy::Delta,
            backend: FixpointBackendTag::Algebraic,
            batched: true,
            decided_by: DecisionSource::Rule,
        }
    );
    assert_eq!(batch.outcome.fixpoints.len(), 1);
    assert_eq!(
        batch.outcome.fixpoints[0].backend,
        FixpointBackendTag::Algebraic
    );
}
