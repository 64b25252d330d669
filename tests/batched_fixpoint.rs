//! Batched multi-source fixpoints: `PreparedQuery::execute_batched` must be
//! **observationally identical** to executing the prepared query once per
//! seed — same per-seed node sets, same order, same concatenation — while
//! sharing the fixpoint work across the seeds whenever the recursion body is
//! seed-local.
//!
//! The central property test draws random algebraic-subset bodies and random
//! seed sets and checks batched ≡ per-seed on both back-ends; the unit tests
//! pin the edge cases (empty seed set, duplicate seeds, non-algebraic
//! fallback, per-batch statistics).  The same holds for the plain per-item
//! loop `for $s in $seed return (with $x seeded by $s recurse b)`, which the
//! evaluator batches by itself (`for_route_equals_the_per_item_loop` and
//! the negative table `loops_off_the_route_keep_the_per_item_loop`).
//! `a_shared_batch_hands_each_node_to_the_body_once` pins what sharing
//! buys: on either back-end a shared-frontier batch evaluates each distinct
//! node once per run, and `a_batch_wider_than_a_lane_equals_the_per_seed_loop`
//! checks both across the boundaries of the driver's 64-seed lanes.

use proptest::prelude::*;

use xqy_ifp::eval::{FixpointBackendTag, FixpointStrategy};
use xqy_ifp::xdm::Sequence;
use xqy_ifp::{Backend, Bindings, Engine, QueryOutcome, Strategy};

/// Build a curriculum-like document from an arbitrary edge list over
/// `courses` nodes (the same generator the cross-backend property test
/// uses).
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

const BATCHED_QUERY: &str = "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)";

fn curriculum_engine(xml: &str) -> Engine {
    let mut engine = Engine::new();
    engine
        .load_document_with_ids("c.xml", xml, &["code"])
        .unwrap();
    engine
}

/// All course elements of the loaded curriculum, in document order.
fn all_courses(engine: &mut Engine) -> Sequence {
    engine.run("doc('c.xml')/curriculum/course").unwrap().result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched ≡ per-seed equivalence property: for random
    /// algebraic-subset bodies, random reference graphs and random seed
    /// sets (with duplicates), `execute_batched` returns per seed exactly
    /// what a per-seed `execute` returns, and the concatenations agree —
    /// on the algebraic back-end (where seed-local bodies take the batched
    /// fast path) and under `Auto`.
    #[test]
    fn execute_batched_equals_per_seed_execute(
        courses in 2usize..9,
        edges in edge_strategy(8),
        seed_picks in proptest::collection::vec(0usize..9, 0..6),
        body in prop_oneof![
            Just("$x/id(./prerequisites/pre_code)"),
            Just("$x/prerequisites/pre_code"),
            Just("$x/*"),
            Just("$x/self::course"),
            Just("$x/prerequisites union $x/self::course"),
            Just("$x/id(./prerequisites/pre_code) union $x/self::course"),
            Just("$x/id(./prerequisites/pre_code) except $x/self::course"),
            Just("if (count($x/prerequisites/pre_code)) then $x/id(./prerequisites/pre_code) else ()"),
            Just("($x/self::course, $x/id(./prerequisites/pre_code))"),
        ],
    ) {
        let xml = curriculum_from_edges(courses, &edges);
        let query = format!("with $x seeded by $seed recurse {body}");
        for backend in [Backend::Algebraic, Backend::Auto] {
            let mut engine = curriculum_engine(&xml);
            engine.set_strategy(Strategy::Auto);
            let prepared = engine.prepare(&query).unwrap().with_backend(backend);
            // Random seed set, duplicates allowed.
            let courses_seq = all_courses(&mut engine);
            let seeds = Sequence::from_nodes(
                seed_picks
                    .iter()
                    .map(|&i| courses_seq.nodes()[i % courses_seq.len()])
                    .collect::<Vec<_>>(),
            );

            let batch = prepared
                .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
                .unwrap();
            prop_assert_eq!(batch.per_seed.len(), seeds.len());

            // Reference: one execute per seed item, in order.
            let mut concatenated = Vec::new();
            for (i, &seed) in seeds.nodes().iter().enumerate() {
                let bindings =
                    Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
                let reference = prepared.execute(&mut engine, &bindings).unwrap();
                prop_assert_eq!(
                    batch.per_seed[i].nodes(),
                    reference.result.nodes(),
                    "seed #{} under {} with body {}",
                    i,
                    backend.name(),
                    body
                );
                concatenated.extend(reference.result.nodes());
            }
            prop_assert_eq!(batch.outcome.result.nodes(), concatenated);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched **source-level** driver ≡ per-seed source-level
    /// execution: for random *non-algebraic* bodies (predicates keep them
    /// out of the compiler subset; the pool mixes distributive bodies,
    /// which take the shared distinct-frontier mode, and non-distributive
    /// ones, which take the grouped mode), random reference graphs and
    /// random seed sets with duplicates, `execute_batched` returns per seed
    /// exactly what a per-seed `execute` returns — under both
    /// `Backend::SourceLevel` and `Backend::Auto`.
    #[test]
    fn batched_source_level_equals_per_seed_source_level(
        courses in 2usize..9,
        edges in edge_strategy(8),
        seed_picks in proptest::collection::vec(0usize..9, 0..6),
        body in prop_oneof![
            Just("$x/id(./prerequisites/pre_code)[@code]"),
            Just("$x/id(./prerequisites/pre_code)[@code='c1' or @code='c2']"),
            Just("$x/*[exists(./pre_code)]"),
            Just("($x/id(./prerequisites/pre_code))[position() <= 3]"),
            Just("if (count($x) > 1) then $x/self::course else $x/id(./prerequisites/pre_code)"),
            Just("$x/id(./prerequisites/pre_code)[exists(../prerequisites)] union $x/self::course[@code='c0']"),
        ],
    ) {
        let xml = curriculum_from_edges(courses, &edges);
        let query = format!("with $x seeded by $seed recurse {body}");
        for backend in [Backend::SourceLevel, Backend::Auto] {
            let mut engine = curriculum_engine(&xml);
            engine.set_strategy(Strategy::Auto);
            let prepared = engine.prepare(&query).unwrap().with_backend(backend);
            prop_assert!(
                !prepared.occurrences()[0].is_algebraic_capable(),
                "body {} unexpectedly compiled",
                body
            );
            let courses_seq = all_courses(&mut engine);
            let seeds = Sequence::from_nodes(
                seed_picks
                    .iter()
                    .map(|&i| courses_seq.nodes()[i % courses_seq.len()])
                    .collect::<Vec<_>>(),
            );

            let batch = prepared
                .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
                .unwrap();
            prop_assert_eq!(batch.per_seed.len(), seeds.len());
            if !seeds.is_empty() {
                // The batch ran as one interpreted multi-source fixpoint.
                prop_assert!(batch.batched);
                prop_assert_eq!(batch.outcome.fixpoints.len(), 1);
                prop_assert!(batch.outcome.fixpoints[0].batch_seeds > 0);
                prop_assert_eq!(
                    batch.outcome.fixpoints[0].backend,
                    FixpointBackendTag::Interpreted
                );
            }

            let mut concatenated = Vec::new();
            for (i, &seed) in seeds.nodes().iter().enumerate() {
                let bindings =
                    Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
                let reference = prepared.execute(&mut engine, &bindings).unwrap();
                prop_assert_eq!(
                    batch.per_seed[i].nodes(),
                    reference.result.nodes(),
                    "seed #{} under {} with body {}",
                    i,
                    backend.name(),
                    body
                );
                concatenated.extend(reference.result.nodes());
            }
            prop_assert_eq!(batch.outcome.result.nodes(), concatenated);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On the shared route, on both back-ends and under either algorithm,
    /// the body is handed each distinct node once per run: the seeds in the
    /// first round, and every node a seed's result gains in the round after
    /// — so the run's frontier curve sums to |seeds ∪ ⋃ results|.
    #[test]
    fn a_shared_batch_hands_each_node_to_the_body_once(
        courses in 2usize..9,
        edges in edge_strategy(8),
        seed_picks in proptest::collection::vec(0usize..9, 1..6),
        body in prop_oneof![
            Just("$x/id(./prerequisites/pre_code)"),
            Just("$x/prerequisites/pre_code"),
            Just("$x/*"),
            Just("($x/id(./prerequisites/pre_code) union $x/self::course)"),
        ],
    ) {
        let xml = curriculum_from_edges(courses, &edges);
        let query = format!("with $x seeded by $seed recurse {body}");
        let mut engine = curriculum_engine(&xml);
        let all = all_courses(&mut engine).nodes();
        let seeds: Vec<_> = seed_picks.iter().map(|&i| all[i % all.len()]).collect();
        let seeds = Sequence::from_nodes(seeds);
        for strategy in [Strategy::Naive, Strategy::Delta] {
            for (backend, tag) in [
                (Backend::SourceLevel, FixpointBackendTag::Interpreted),
                (Backend::Algebraic, FixpointBackendTag::Algebraic),
            ] {
                let at = format!("{body} under {strategy:?}/{}", backend.name());
                engine.set_strategy(strategy);
                let prepared = engine.prepare(&query).unwrap().with_backend(backend);
                prop_assert!(prepared.occurrences()[0].report().is_distributive());
                let batch = prepared
                    .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
                    .unwrap();
                prop_assert!(batch.batched, "{}", &at);
                prop_assert_eq!(batch.outcome.fixpoints.len(), 1, "{}", &at);
                let run = &batch.outcome.fixpoints[0];
                prop_assert_eq!(run.backend, tag, "{}", &at);
                let mut met = seeds.nodes();
                met.extend(batch.per_seed.iter().flat_map(Sequence::nodes));
                met.sort_unstable();
                met.dedup();
                let handed: u64 = run.frontier_curve.iter().sum();
                prop_assert_eq!(handed, met.len() as u64, "{}", &at);
            }
        }
    }
}

/// A shared batch folds its seeds in lanes of 64: 140 seeds are two full
/// lanes and a partial one, so bits 63 and 64 and a short last lane are all
/// exercised.  On both back-ends and under either algorithm the batch is
/// the per-seed loop, and the body is still handed each node once per run.
#[test]
fn a_batch_wider_than_a_lane_equals_the_per_seed_loop() {
    const COURSES: usize = 140;
    // Chains of ten, each course also pointing into another chain.
    let edges: Vec<_> = (0..COURSES)
        .flat_map(|i| {
            [
                (i, if i % 10 == 9 { i } else { i + 1 }),
                (i, (3 * i + 7) % COURSES),
            ]
        })
        .collect();
    let mut engine = curriculum_engine(&curriculum_from_edges(COURSES, &edges));
    // Seeds against document order, so local ids do not follow it.
    let mut seeds = all_courses(&mut engine).nodes();
    seeds.reverse();
    assert!(seeds.len() > 128 && !seeds.len().is_multiple_of(64));
    let seeds = Sequence::from_nodes(seeds);
    for strategy in [Strategy::Naive, Strategy::Delta] {
        for backend in [Backend::SourceLevel, Backend::Algebraic] {
            let at = format!("{strategy:?}/{}", backend.name());
            engine.set_strategy(strategy);
            let prepared = engine.prepare(BATCHED_QUERY).unwrap().with_backend(backend);
            let batch = prepared
                .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
                .unwrap();
            assert!(batch.batched, "{at}");
            let run = &batch.outcome.fixpoints[0];
            assert_eq!(run.batch_seeds, COURSES, "{at}");
            let mut fed = 0;
            for (i, &seed) in seeds.nodes().iter().enumerate() {
                let bindings = Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
                let reference = prepared.execute(&mut engine, &bindings).unwrap();
                assert_eq!(
                    batch.per_seed[i].nodes(),
                    reference.result.nodes(),
                    "seed #{i} under {at}"
                );
                fed += reference.fixpoints[0].nodes_fed_back;
            }
            assert_eq!(run.nodes_fed_back, fed, "{at}");
            let mut met = seeds.nodes();
            met.extend(batch.per_seed.iter().flat_map(Sequence::nodes));
            met.sort_unstable();
            met.dedup();
            let handed: u64 = run.frontier_curve.iter().sum();
            assert_eq!(handed, met.len() as u64, "{at}");
        }
    }
}

#[test]
fn batched_fast_path_runs_one_shared_fixpoint() {
    let xml = curriculum_from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 0)]);
    let mut engine = curriculum_engine(&xml);
    // One algorithm on both sides, so the fed-back counts are comparable.
    engine.set_strategy(Strategy::Delta);
    let prepared = engine
        .prepare(BATCHED_QUERY)
        .unwrap()
        .with_backend(Backend::Algebraic);
    assert!(prepared.occurrences()[0].is_batch_capable());
    let seeds = all_courses(&mut engine);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(batch.batched, "seed-local algebraic body must batch");
    // One fixpoint run for the whole batch, tagged with the batch size.
    assert_eq!(batch.outcome.fixpoints.len(), 1);
    assert_eq!(batch.outcome.fixpoints[0].batch_seeds, 6);
    assert_eq!(batch.outcome.batch_seeds(), 6);
    assert_eq!(
        batch.outcome.fixpoints[0].backend,
        FixpointBackendTag::Algebraic
    );
    // The shared loop's depth is the max per-seed depth, and the body ran
    // once per shared iteration — strictly fewer evaluations than the six
    // per-seed fixpoints would have performed together.
    let (mut per_seed_calls, mut per_seed_fed, mut per_seed_depth) = (0, 0, 0);
    for &seed in &seeds.nodes() {
        let bindings = Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
        let outcome = prepared.execute(&mut engine, &bindings).unwrap();
        per_seed_calls += outcome.fixpoints[0].payload_calls;
        per_seed_fed += outcome.fixpoints[0].nodes_fed_back;
        per_seed_depth = per_seed_depth.max(outcome.fixpoints[0].iterations);
    }
    let shared = &batch.outcome.fixpoints[0];
    assert_eq!(shared.iterations, per_seed_depth);
    assert!(
        shared.payload_calls < per_seed_calls,
        "batched made {} body calls, per-seed {}",
        shared.payload_calls,
        per_seed_calls
    );
    // Nodes fed back are each seed's own Figure-3 count, summed — at least
    // the seeds themselves, which the first round feeds.
    assert_eq!(shared.nodes_fed_back, per_seed_fed);
    assert!(per_seed_fed >= 6, "{per_seed_fed}");
}

#[test]
fn forced_naive_batches_run_and_record_naive_on_both_back_ends() {
    // A shared-frontier batch follows the strategy it records: under a
    // forced Naïve each seed re-feeds its whole accumulator, so both
    // back-ends report the per-seed Naïve count.
    let xml = curriculum_from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 0), (5, 0)]);
    let mut engine = curriculum_engine(&xml);
    engine.set_strategy(Strategy::Naive);
    let prepared = engine.prepare(BATCHED_QUERY).unwrap();
    assert!(prepared.occurrences()[0].report().is_distributive());
    let seeds = all_courses(&mut engine);
    let (mut per_seed_fed, mut per_seed) = (0, Vec::new());
    for &seed in &seeds.nodes() {
        let bindings = Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
        let outcome = prepared.execute(&mut engine, &bindings).unwrap();
        per_seed_fed += outcome.fixpoints[0].nodes_fed_back;
        per_seed.push(outcome.result.nodes());
    }
    for backend in [Backend::SourceLevel, Backend::Algebraic] {
        let batch = prepared
            .clone()
            .with_backend(backend)
            .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
            .unwrap();
        assert!(batch.batched, "{}", backend.name());
        let run = &batch.outcome.fixpoints[0];
        assert_eq!(run.strategy, Some(FixpointStrategy::Naive));
        assert_eq!(run.batch_seeds, 6);
        assert_eq!(run.nodes_fed_back, per_seed_fed, "{}", backend.name());
        let results: Vec<_> = batch.per_seed.iter().map(Sequence::nodes).collect();
        assert_eq!(results, per_seed);
    }
}

/// `query` with `$seed` bound to `seeds`.
fn execute_query(
    engine: &mut Engine,
    query: &str,
    strategy: Strategy,
    backend: Backend,
    seeds: &Sequence,
) -> Result<QueryOutcome, String> {
    engine.set_strategy(strategy);
    let prepared = engine
        .prepare(query)
        .map_err(|e| e.to_string())?
        .with_backend(backend);
    let bindings = Bindings::new().with("seed", seeds.clone());
    prepared
        .execute(engine, &bindings)
        .map_err(|e| e.to_string())
}

/// The per-item loop over `$seed` for `body`, and the same loop with a
/// position variable, which keeps the evaluator off the batched route.
fn loop_queries(body: &str) -> (String, String) {
    (
        format!("for $s in $seed return (with $x seeded by $s recurse {body})"),
        format!("for $s at $i in $seed return (with $x seeded by $s recurse {body})"),
    )
}

/// Result nodes, summed nodes fed back and maximum depth of an outcome.
fn table_2(outcome: &QueryOutcome) -> (Vec<xqy_ifp::xdm::NodeId>, u64, usize) {
    (
        outcome.result.nodes(),
        outcome.fixpoints.iter().map(|s| s.nodes_fed_back).sum(),
        outcome
            .fixpoints
            .iter()
            .map(|s| s.iterations)
            .max()
            .unwrap_or(0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Automatic batching ≡ the per-item loop: at every grid point
    /// (strategy × back-end), for random algebraic-subset bodies, reference
    /// graphs and distinct seed sets, the plain loop returns the loop's
    /// results in order, the same summed nodes fed back and the same
    /// maximum depth — and under Delta with a distributive body it ran as
    /// one batch.
    #[test]
    fn for_route_equals_the_per_item_loop(
        courses in 2usize..9,
        edges in edge_strategy(8),
        seed_picks in proptest::collection::vec(0usize..9, 1..6),
        body in prop_oneof![
            Just("$x/id(./prerequisites/pre_code)"),
            Just("$x/prerequisites/pre_code"),
            Just("$x/*"),
            Just("$x/prerequisites union $x/self::course"),
            Just("$x/id(./prerequisites/pre_code) union $x/self::course"),
            Just("if (count($x/prerequisites/pre_code)) then $x/id(./prerequisites/pre_code) else ()"),
        ],
    ) {
        let xml = curriculum_from_edges(courses, &edges);
        let (routed, looped) = loop_queries(body);
        let mut engine = curriculum_engine(&xml);
        let all = all_courses(&mut engine).nodes();
        let mut picked = Vec::new();
        for i in seed_picks {
            let node = all[i % all.len()];
            if !picked.contains(&node) {
                picked.push(node);
            }
        }
        let seeds = Sequence::from_nodes(picked);
        for strategy in [Strategy::Naive, Strategy::Delta, Strategy::Auto] {
            for backend in [Backend::SourceLevel, Backend::Algebraic, Backend::Auto] {
                let at = format!("{body} under {strategy:?}/{}", backend.name());
                let route = execute_query(&mut engine, &routed, strategy, backend, &seeds).unwrap();
                let reference = execute_query(&mut engine, &looped, strategy, backend, &seeds).unwrap();
                prop_assert_eq!(table_2(&route), table_2(&reference), "{}", &at);
                prop_assert!(reference.fixpoints.iter().all(|s| s.batch_seeds == 0));
                let decided_delta = route.occurrences[0].strategy == FixpointStrategy::Delta;
                if decided_delta && route.distributivity[0].is_distributive() {
                    prop_assert_eq!(route.fixpoints.len(), 1, "{}", &at);
                    prop_assert_eq!(route.fixpoints[0].batch_seeds, seeds.len(), "{}", &at);
                }
            }
        }
    }
}

#[test]
fn loops_off_the_route_keep_the_per_item_loop() {
    // Each row changes one thing about the batched shape or its conditions;
    // the loop must answer exactly as its position-variable twin (which
    // never batches), and, except where noted, by one run per item.
    const CLOSURE: &str = "$x/id(./prerequisites/pre_code)";
    const EXAMPLE_2_4: &str = "if (count($x/self::course[prerequisites/pre_code])) \
                               then $x/id(./prerequisites/pre_code) else ()";
    let xml_a = curriculum_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 1)]);
    let xml_b = curriculum_from_edges(3, &[(0, 2), (2, 1)]);
    let mut engine = curriculum_engine(&xml_a);
    engine
        .load_document_with_ids("d.xml", &xml_b, &["code"])
        .unwrap();
    let courses = all_courses(&mut engine);
    let mut both = courses.nodes();
    both.extend(
        engine
            .run("doc('d.xml')/curriculum/course")
            .unwrap()
            .result
            .nodes(),
    );
    let both = Sequence::from_nodes(both);
    let per_item = |body: &str| loop_queries(body).0;
    let rows: Vec<(&str, String, Strategy, Backend, Sequence, bool)> = vec![
        (
            "a position variable",
            loop_queries(CLOSURE).1,
            Strategy::Delta,
            Backend::SourceLevel,
            courses.clone(),
            false,
        ),
        (
            "a body reading $s",
            per_item("$x/id(./prerequisites/pre_code) union $s/self::course[@code = 'c9']"),
            Strategy::Delta,
            Backend::SourceLevel,
            courses.clone(),
            false,
        ),
        (
            "seeded by $s/..",
            format!("for $s in $seed return (with $x seeded by $s/.. recurse {CLOSURE})"),
            Strategy::Delta,
            Backend::SourceLevel,
            courses.clone(),
            false,
        ),
        (
            "an atomic item",
            format!("for $s in ($seed, 1) return (with $x seeded by $s recurse {CLOSURE})"),
            Strategy::Delta,
            Backend::SourceLevel,
            courses.clone(),
            false,
        ),
        (
            "duplicate items (batched; the duplicate replicated)",
            format!("for $s in ($seed, $seed) return (with $x seeded by $s recurse {CLOSURE})"),
            Strategy::Delta,
            Backend::SourceLevel,
            courses.clone(),
            true,
        ),
        (
            "no item",
            per_item(CLOSURE),
            Strategy::Delta,
            Backend::Algebraic,
            Sequence::empty(),
            false,
        ),
        (
            "a forced Naïve",
            per_item(CLOSURE),
            Strategy::Naive,
            Backend::Algebraic,
            courses.clone(),
            false,
        ),
        (
            "Example 2.4's body",
            per_item(EXAMPLE_2_4),
            Strategy::Delta,
            Backend::SourceLevel,
            courses.clone(),
            false,
        ),
        (
            "an id() body over two documents (batched)",
            per_item(CLOSURE),
            Strategy::Delta,
            Backend::Algebraic,
            both.clone(),
            true,
        ),
    ];
    for (name, query, strategy, backend, seeds, batches) in rows {
        let twin = query.replacen("for $s in", "for $s at $i in", 1);
        let outcome = execute_query(&mut engine, &query, strategy, backend, &seeds);
        let reference = execute_query(&mut engine, &twin, strategy, backend, &seeds);
        match (&outcome, &reference) {
            (Ok(outcome), Ok(reference)) => {
                assert_eq!(outcome.result.nodes(), reference.result.nodes(), "{name}");
                let batched = outcome.fixpoints.iter().any(|s| s.batch_seeds > 0);
                assert_eq!(batched, batches, "{name}");
                if !batches {
                    assert_eq!(table_2(outcome), table_2(reference), "{name}");
                }
            }
            (Err(error), Err(expected)) => assert_eq!(error, expected, "{name}"),
            _ => panic!("{name}: {outcome:?} against {reference:?}"),
        }
    }
}

#[test]
fn a_batched_loop_stays_batched_across_executions() {
    // Feedback only ever observes the batched run, so a plan that decided
    // to batch the loop keeps deciding so.
    let xml = curriculum_from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 0), (5, 0)]);
    let (query, _) = loop_queries("$x/id(./prerequisites/pre_code)");
    for backend in [Backend::SourceLevel, Backend::Algebraic] {
        let mut engine = curriculum_engine(&xml);
        engine.set_strategy(Strategy::Delta);
        let prepared = engine.prepare(&query).unwrap().with_backend(backend);
        let seeds = all_courses(&mut engine);
        let bindings = Bindings::new().with("seed", seeds.clone());
        for run in 0..3 {
            let outcome = prepared.execute(&mut engine, &bindings).unwrap();
            let at = format!("run {run} on {}", backend.name());
            assert!(outcome.occurrences.iter().all(|o| o.batched), "{at}");
            assert_eq!(outcome.fixpoints.len(), 1, "{at}");
            assert_eq!(outcome.fixpoints[0].batch_seeds, seeds.len(), "{at}");
        }
    }
}

#[test]
fn batched_empty_seed_set_is_a_noop() {
    let xml = curriculum_from_edges(3, &[(0, 1)]);
    for backend in [Backend::SourceLevel, Backend::Algebraic, Backend::Auto] {
        let mut engine = curriculum_engine(&xml);
        let prepared = engine.prepare(BATCHED_QUERY).unwrap().with_backend(backend);
        let batch = prepared
            .execute_batched(&mut engine, "seed", &Sequence::empty(), &Bindings::new())
            .unwrap();
        assert!(batch.per_seed.is_empty());
        assert!(batch.outcome.result.is_empty());
        assert!(batch.outcome.fixpoints.is_empty());
        assert_eq!(batch.outcome.batch_seeds(), 0);
        // The per-occurrence report is still present (with zero deltas).
        assert_eq!(batch.outcome.occurrences.len(), 1);
    }
}

#[test]
fn batched_duplicate_seeds_replicate_one_computation() {
    let xml = curriculum_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
    let mut engine = curriculum_engine(&xml);
    let prepared = engine
        .prepare(BATCHED_QUERY)
        .unwrap()
        .with_backend(Backend::Algebraic);
    let courses = all_courses(&mut engine);
    let c0 = courses.nodes()[0];
    let c3 = courses.nodes()[3];
    // c0 twice, c3 once, c0 again — four result slots, two distinct seeds.
    let seeds = Sequence::from_nodes(vec![c0, c0, c3, c0]);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(batch.batched);
    assert_eq!(batch.per_seed.len(), 4);
    assert_eq!(batch.per_seed[0].nodes(), batch.per_seed[1].nodes());
    assert_eq!(batch.per_seed[0].nodes(), batch.per_seed[3].nodes());
    // The fixpoint only saw the two distinct seeds.
    assert_eq!(batch.outcome.fixpoints[0].batch_seeds, 2);
    // Concatenation replicates the duplicated seed's result.
    let expected: Vec<_> = batch.per_seed.iter().flat_map(|s| s.nodes()).collect();
    assert_eq!(batch.outcome.result.nodes(), expected);
}

#[test]
fn non_algebraic_bodies_route_through_the_batched_source_level_driver() {
    // Predicate-filtered bodies are outside the compiler subset: under Auto
    // the occurrence runs source-level — since PR 5 as **one batched
    // interpreter fixpoint** over all seeds (observable via
    // `FixpointStats::batch_seeds`), not as a per-seed loop.  Results must
    // still match per-seed execution exactly.
    let xml = curriculum_from_edges(4, &[(0, 1), (1, 2)]);
    let mut engine = curriculum_engine(&xml);
    let query =
        "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)[@code='c1' or @code='c2']";
    let prepared = engine.prepare(query).unwrap().with_backend(Backend::Auto);
    assert!(!prepared.occurrences()[0].is_algebraic_capable());
    let seeds = all_courses(&mut engine);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(batch.batched, "non-algebraic bodies batch source-level now");
    assert_eq!(batch.outcome.fixpoints.len(), 1, "one run for the batch");
    assert_eq!(batch.outcome.fixpoints[0].batch_seeds, 4);
    assert_eq!(batch.outcome.batch_seeds(), 4);
    assert_eq!(
        batch.outcome.fixpoints[0].backend,
        FixpointBackendTag::Interpreted
    );
    for (i, &seed) in seeds.nodes().iter().enumerate() {
        let bindings = Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
        let reference = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(batch.per_seed[i].nodes(), reference.result.nodes());
    }
}

#[test]
fn batched_source_level_shares_body_evaluations_on_distributive_bodies() {
    // A distributive source-level body (the predicate keeps it out of the
    // algebraic subset, the union keeps it syntactically distributive):
    // the batched driver evaluates each distinct frontier node once for the
    // whole batch, so it makes strictly fewer body calls than the per-seed
    // loops combined.
    let xml = curriculum_from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 0), (5, 0)]);
    let mut engine = curriculum_engine(&xml);
    let query = "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)[@code]";
    let prepared = engine
        .prepare(query)
        .unwrap()
        .with_backend(Backend::SourceLevel);
    let seeds = all_courses(&mut engine);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(batch.batched);
    assert_eq!(batch.outcome.fixpoints[0].batch_seeds, 6);
    let mut per_seed_calls = 0;
    for (i, &seed) in seeds.nodes().iter().enumerate() {
        let bindings = Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
        let reference = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(batch.per_seed[i].nodes(), reference.result.nodes());
        per_seed_calls += reference.fixpoints[0].payload_calls;
    }
    assert!(
        batch.outcome.fixpoints[0].payload_calls < per_seed_calls,
        "batched made {} body calls, per-seed loops {}",
        batch.outcome.fixpoints[0].payload_calls,
        per_seed_calls
    );
}

#[test]
fn batched_source_level_handles_cross_document_seeds() {
    // The source-level driver resolves `id()` in each frontier node's own
    // document, so seed sets spanning documents batch and match per-seed
    // results.
    let xml_a = curriculum_from_edges(3, &[(0, 1), (1, 2)]);
    let xml_b = curriculum_from_edges(4, &[(0, 2), (2, 3)]);
    let mut engine = Engine::new();
    engine
        .load_document_with_ids("c.xml", &xml_a, &["code"])
        .unwrap();
    engine
        .load_document_with_ids("d.xml", &xml_b, &["code"])
        .unwrap();
    let prepared = engine
        .prepare(BATCHED_QUERY)
        .unwrap()
        .with_backend(Backend::SourceLevel);
    let mut seeds = engine
        .run("doc('c.xml')/curriculum/course")
        .unwrap()
        .result
        .nodes();
    seeds.extend(
        engine
            .run("doc('d.xml')/curriculum/course")
            .unwrap()
            .result
            .nodes(),
    );
    let seeds = Sequence::from_nodes(seeds);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(batch.batched, "source-level batches across documents");
    assert_eq!(batch.outcome.fixpoints[0].batch_seeds, seeds.len());
    for (i, &seed) in seeds.nodes().iter().enumerate() {
        let bindings = Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
        let reference = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(batch.per_seed[i].nodes(), reference.result.nodes());
    }
}

#[test]
fn batched_source_level_duplicate_and_empty_seeds() {
    let xml = curriculum_from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
    let mut engine = curriculum_engine(&xml);
    let query =
        "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)[@code='c1' or @code='c2']";
    let prepared = engine
        .prepare(query)
        .unwrap()
        .with_backend(Backend::SourceLevel);
    // Empty seed set: a true no-op, nothing recorded.
    let empty = prepared
        .execute_batched(&mut engine, "seed", &Sequence::empty(), &Bindings::new())
        .unwrap();
    assert!(empty.per_seed.is_empty());
    assert!(empty.outcome.fixpoints.is_empty());
    // Duplicates fold onto one computation and replicate.
    let courses = all_courses(&mut engine);
    let (c0, c3) = (courses.nodes()[0], courses.nodes()[3]);
    let seeds = Sequence::from_nodes(vec![c0, c0, c3, c0]);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(batch.batched);
    assert_eq!(batch.per_seed.len(), 4);
    assert_eq!(batch.per_seed[0].nodes(), batch.per_seed[1].nodes());
    assert_eq!(batch.per_seed[0].nodes(), batch.per_seed[3].nodes());
    assert_eq!(batch.outcome.fixpoints[0].batch_seeds, 2, "distinct seeds");
    let expected: Vec<_> = batch.per_seed.iter().flat_map(|s| s.nodes()).collect();
    assert_eq!(batch.outcome.result.nodes(), expected);
}

#[test]
fn non_fixpoint_query_shapes_fall_back_to_per_seed_execution() {
    // The per-item FLWOR shape (`for $s in $seed return (with ...)`) is not
    // a bare fixpoint over `$seed`; execute_batched must still honour the
    // contract by executing the module once per seed item.
    let xml = curriculum_from_edges(4, &[(0, 1), (1, 2), (2, 0)]);
    let mut engine = curriculum_engine(&xml);
    let query = "for $s in $seed return \
                 (with $x seeded by $s recurse $x/id(./prerequisites/pre_code))";
    let prepared = engine
        .prepare(query)
        .unwrap()
        .with_backend(Backend::Algebraic);
    let seeds = all_courses(&mut engine);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(!batch.batched);
    assert_eq!(batch.per_seed.len(), 4);
    for (i, &seed) in seeds.nodes().iter().enumerate() {
        let bindings = Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
        let reference = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(batch.per_seed[i].nodes(), reference.result.nodes());
    }
}

#[test]
fn batched_execution_reuses_the_persistent_static_cache() {
    // Named for the cross-run cache it once pinned.  What it holds now: a
    // second batch on the warm runtime the first one returned answers the
    // same, and each is one batched run with a run cache of its own.
    let xml = curriculum_from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
    let mut engine = curriculum_engine(&xml);
    let query = "with $x seeded by $seed recurse \
                 ($x/id(./prerequisites/pre_code) union $x/self::course)";
    let prepared = engine
        .prepare(query)
        .unwrap()
        .with_backend(Backend::Algebraic);
    let seeds = all_courses(&mut engine);
    let first = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(first.batched);
    let second = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(second.batched);
    assert_eq!(first.outcome.result.nodes(), second.outcome.result.nodes());
    assert_eq!(first.outcome.fixpoints, second.outcome.fixpoints);
    assert_eq!(prepared.runtimes_minted(), 1);
}

#[test]
fn algebraic_batches_fold_seeds_spanning_documents_for_id_bodies() {
    // id() resolves each argument node in its own document, so a batch
    // mixing documents runs as one seed-carried plan and every seed still
    // gets its per-seed answer.
    let xml_a = curriculum_from_edges(3, &[(0, 1), (1, 2)]);
    let xml_b = curriculum_from_edges(3, &[(0, 2)]);
    let mut engine = Engine::new();
    engine
        .load_document_with_ids("c.xml", &xml_a, &["code"])
        .unwrap();
    engine
        .load_document_with_ids("d.xml", &xml_b, &["code"])
        .unwrap();
    let prepared = engine
        .prepare(BATCHED_QUERY)
        .unwrap()
        .with_backend(Backend::Algebraic);
    let mut seeds = engine
        .run("doc('c.xml')/curriculum/course")
        .unwrap()
        .result
        .nodes();
    seeds.extend(
        engine
            .run("doc('d.xml')/curriculum/course")
            .unwrap()
            .result
            .nodes(),
    );
    let seeds = Sequence::from_nodes(seeds);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(batch.batched, "a cross-document id() batch folds");
    assert_eq!(batch.outcome.fixpoints[0].batch_seeds, seeds.len());
    for (i, &seed) in seeds.nodes().iter().enumerate() {
        let bindings = Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
        let reference = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(batch.per_seed[i].nodes(), reference.result.nodes());
    }
}

#[test]
fn batched_respects_seed_in_result_reading() {
    let xml = curriculum_from_edges(4, &[(0, 1), (1, 2)]);
    let mut engine = curriculum_engine(&xml);
    engine.set_seed_in_result(true);
    let prepared = engine
        .prepare(BATCHED_QUERY)
        .unwrap()
        .with_backend(Backend::Algebraic);
    let seeds = all_courses(&mut engine);
    let batch = prepared
        .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
        .unwrap();
    assert!(batch.batched);
    for (i, &seed) in seeds.nodes().iter().enumerate() {
        assert!(
            batch.per_seed[i].nodes().contains(&seed),
            "seed-inclusive reading keeps each seed in its own closure"
        );
        let bindings = Bindings::new().with("seed", Sequence::from_nodes(vec![seed]));
        let reference = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(batch.per_seed[i].nodes(), reference.result.nodes());
    }
}
