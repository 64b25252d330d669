//! Prepared-query surface tests: parse/analyse/compile once, execute many —
//! reuse across bindings and late-loaded documents, error paths for
//! unbound / mistyped external variables, per-occurrence strategy and
//! back-end selection, and Naïve ≡ Delta equivalence through the new API.

use xqy_ifp::eval::{FixpointBackendTag, FixpointStrategy};
use xqy_ifp::{Backend, Bindings, Engine, IfpError, Strategy};

const CURRICULUM: &str = r#"<curriculum>
    <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
    <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
    <course code="c3"><prerequisites/></course>
    <course code="c4"><prerequisites/></course>
</curriculum>"#;

const PREREQ_BODY: &str = "$x/id(./prerequisites/pre_code)";

fn curriculum_engine() -> Engine {
    let mut engine = Engine::new();
    engine
        .load_document_with_ids("curriculum.xml", CURRICULUM, &["code"])
        .unwrap();
    engine
}

fn seed_for(engine: &mut Engine, code: &str) -> Bindings {
    let seed = engine
        .run(&format!(
            "doc('curriculum.xml')/curriculum/course[@code='{code}']"
        ))
        .unwrap()
        .result;
    Bindings::new().with("seed", seed)
}

#[test]
fn one_prepared_query_serves_many_bindings() {
    let mut engine = curriculum_engine();
    let prepared = engine
        .prepare(&format!("with $x seeded by $seed recurse {PREREQ_BODY}"))
        .unwrap();
    assert_eq!(prepared.external_variables(), ["seed"]);

    let expected = [("c1", 3), ("c2", 1), ("c3", 0), ("c4", 0)];
    for (code, size) in expected {
        let bindings = seed_for(&mut engine, code);
        let outcome = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(outcome.result.len(), size, "closure of {code}");
    }
}

#[test]
fn executing_n_times_parses_and_compiles_exactly_once() {
    let mut engine = curriculum_engine();
    // Preparation pays the parse and the (per-occurrence) plan compilation…
    let prepared = engine
        .prepare(&format!(
            "for $s in $seed return (with $x seeded by $s recurse {PREREQ_BODY})"
        ))
        .unwrap();
    let bindings = {
        let seed = engine
            .run("doc('curriculum.xml')/curriculum/course")
            .unwrap()
            .result;
        Bindings::new().with("seed", seed)
    };
    // …and N executions (4 fixpoints each: one per seed course, run as
    // one batch of four) pay neither.
    let parses = xqy_ifp::parser::parse_count();
    let compiles = xqy_ifp::algebra::compile_count();
    for _ in 0..5 {
        let outcome = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(outcome.batch_seeds(), 4);
    }
    assert_eq!(xqy_ifp::parser::parse_count(), parses, "no re-parsing");
    assert_eq!(
        xqy_ifp::algebra::compile_count(),
        compiles,
        "no re-compilation"
    );
}

#[test]
fn documents_loaded_after_prepare_are_visible() {
    let mut engine = Engine::new();
    // Prepare against an empty store: preparation is purely static.
    let prepared = engine
        .prepare(&format!("with $x seeded by $seed recurse {PREREQ_BODY}"))
        .unwrap();
    engine
        .load_document_with_ids("curriculum.xml", CURRICULUM, &["code"])
        .unwrap();
    let bindings = seed_for(&mut engine, "c1");
    let outcome = prepared.execute(&mut engine, &bindings).unwrap();
    assert_eq!(outcome.result.len(), 3);
}

#[test]
fn unbound_external_variable_is_rejected_before_evaluation() {
    let mut engine = curriculum_engine();
    let prepared = engine
        .prepare(&format!("with $x seeded by $seed recurse {PREREQ_BODY}"))
        .unwrap();
    let err = prepared.execute(&mut engine, &Bindings::new()).unwrap_err();
    assert!(matches!(err, IfpError::UnboundVariable(name) if name == "seed"));
    // Binding an unrelated name does not help.
    let err = prepared
        .execute(
            &mut engine,
            &Bindings::new().with("sead", xqy_ifp::xdm::Sequence::empty()),
        )
        .unwrap_err();
    assert!(matches!(err, IfpError::UnboundVariable(_)));
}

#[test]
fn mistyped_external_variable_is_a_type_error() {
    let mut engine = curriculum_engine();
    let prepared = engine
        .prepare(&format!("with $x seeded by $seed recurse {PREREQ_BODY}"))
        .unwrap();
    // An IFP seed must be a node sequence; atomics are a dynamic type error.
    let atomic = engine.run("(1, 2, 3)").unwrap().result;
    let err = prepared
        .execute(&mut engine, &Bindings::new().with("seed", atomic))
        .unwrap_err();
    assert!(
        matches!(err, IfpError::Eval(xqy_ifp::eval::EvalError::Type(_))),
        "got {err:?}"
    );
}

#[test]
fn naive_and_delta_agree_through_the_prepared_surface() {
    let query = format!("with $x seeded by $seed recurse {PREREQ_BODY}");
    for backend in [Backend::SourceLevel, Backend::Algebraic, Backend::Auto] {
        let mut sizes = Vec::new();
        for strategy in [Strategy::Naive, Strategy::Delta] {
            let mut engine = curriculum_engine();
            engine.set_strategy(strategy);
            engine.set_backend(backend);
            let prepared = engine.prepare(&query).unwrap();
            let bindings = seed_for(&mut engine, "c1");
            let outcome = prepared.execute(&mut engine, &bindings).unwrap();
            sizes.push(outcome.result.len());
        }
        assert_eq!(
            sizes[0],
            sizes[1],
            "Naive and Delta must agree on a distributive body ({})",
            backend.name()
        );
    }
}

#[test]
fn auto_strategy_mixes_delta_and_naive_per_occurrence() {
    // Acceptance criterion of the redesign: one distributive and one
    // non-distributive occurrence in the same query run Delta and Naïve
    // respectively under `Strategy::Auto`, both visible in the outcome.
    let mut engine = Engine::new();
    engine.set_seed_in_result(true);
    let prepared = engine
        .prepare(
            "let $a := <a><b/></a> return \
             ((with $x seeded by $a recurse $x/*), \
              (with $y seeded by $a recurse if (count($y)) then $y/* else ()))",
        )
        .unwrap();
    assert_eq!(prepared.occurrences().len(), 2);
    assert_eq!(
        prepared.occurrences()[0].strategy(),
        FixpointStrategy::Delta
    );
    assert_eq!(
        prepared.occurrences()[1].strategy(),
        FixpointStrategy::Naive
    );

    let outcome = prepared.execute(&mut engine, &Bindings::new()).unwrap();
    assert_eq!(outcome.occurrences[0].strategy, FixpointStrategy::Delta);
    assert_eq!(outcome.occurrences[1].strategy, FixpointStrategy::Naive);
    assert_eq!(outcome.strategy_used(), FixpointStrategy::Naive);
}

#[test]
fn auto_backend_is_bounded_by_capability_and_settled_by_cost() {
    // `position()` inside a predicate is outside the algebraic compiler's
    // subset, so under Backend::Auto the second occurrence can only run on
    // the interpreter.  The first compiles, which leaves the choice to the
    // plan rule — and a per-seed run goes to the interpreter too: path
    // steps run once per focus set there (curriculum S per seed: 1.4 ms
    // against 4.5 ms on the relational executor).
    let mut engine = curriculum_engine();
    engine.set_backend(Backend::Auto);
    let prepared = engine
        .prepare(&format!(
            "((with $x seeded by $seed recurse {PREREQ_BODY}), \
              (with $y seeded by $seed recurse $y/id(./prerequisites/pre_code)[position() > 0]))"
        ))
        .unwrap();
    assert!(prepared.occurrences()[0].is_algebraic_capable());
    assert!(!prepared.occurrences()[1].is_algebraic_capable());

    let bindings = seed_for(&mut engine, "c1");
    let outcome = prepared.execute(&mut engine, &bindings).unwrap();
    // Both compute the same 3-course closure; the sequence constructor
    // concatenates the two results without deduplication.
    assert_eq!(outcome.result.len(), 6);
    assert_eq!(outcome.fixpoints.len(), 2);
    for (plan, run) in outcome.occurrences.iter().zip(&outcome.fixpoints) {
        assert_eq!(plan.backend, FixpointBackendTag::Interpreted);
        assert_eq!(run.backend, FixpointBackendTag::Interpreted);
    }

    // The compiled plan is still there for whoever asks for it.
    let forced = engine
        .prepare(&format!("with $x seeded by $seed recurse {PREREQ_BODY}"))
        .unwrap()
        .with_backend(Backend::Algebraic);
    let outcome = forced.execute(&mut engine, &bindings).unwrap();
    assert_eq!(outcome.fixpoints[0].backend, FixpointBackendTag::Algebraic);
    assert_eq!(outcome.result.len(), 3);
}

#[test]
fn explicit_algebraic_backend_rejects_bodies_outside_the_subset() {
    let mut engine = curriculum_engine();
    engine.set_backend(Backend::Algebraic);
    let prepared = engine
        .prepare("with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)[position() > 0]")
        .unwrap();
    let bindings = seed_for(&mut engine, "c1");
    let err = prepared.execute(&mut engine, &bindings).unwrap_err();
    assert!(matches!(err, IfpError::Algebra(_)), "got {err:?}");
}

#[test]
fn prepared_backend_override_beats_the_engine_default() {
    let mut engine = curriculum_engine();
    let prepared = engine
        .prepare(&format!("with $x seeded by $seed recurse {PREREQ_BODY}"))
        .unwrap()
        .with_backend(Backend::Algebraic);
    let bindings = seed_for(&mut engine, "c1");
    let outcome = prepared.execute(&mut engine, &bindings).unwrap();
    assert_eq!(
        outcome.occurrences[0].backend,
        FixpointBackendTag::Algebraic
    );
    assert_eq!(outcome.result.len(), 3);
}

#[test]
fn per_item_prepared_query_batches_per_seed_fixpoints() {
    // The Figure-10 shape: one fixpoint per seed node, all sharing one
    // prepared artifact (and, on the algebraic back-end, one compiled plan)
    // — and, the body being distributive and decided Delta, one batched
    // run of the seed-carried plan.
    let mut engine = curriculum_engine();
    engine.set_backend(Backend::Algebraic);
    let prepared = engine
        .prepare(&format!(
            "for $s in $seed return (with $x seeded by $s recurse {PREREQ_BODY})"
        ))
        .unwrap();
    let all_courses = engine
        .run("doc('curriculum.xml')/curriculum/course")
        .unwrap()
        .result;
    let bindings = Bindings::new().with("seed", all_courses);
    let compiles = xqy_ifp::algebra::compile_count();
    let outcome = prepared.execute(&mut engine, &bindings).unwrap();
    assert_eq!(xqy_ifp::algebra::compile_count(), compiles);
    assert_eq!(outcome.fixpoints.len(), 1, "one batch for the courses");
    assert_eq!(
        outcome.fixpoints[0].batch_seeds, 4,
        "one fixpoint per course"
    );
    assert_eq!(outcome.fixpoints[0].backend, FixpointBackendTag::Algebraic);
    assert!(outcome.occurrences[0].batched);
    // c1 -> 3, c2 -> 1, c3/c4 -> 0; the for-loop concatenates the closures.
    assert_eq!(outcome.result.len(), 4);
}

#[test]
fn bindings_shadow_nothing_and_support_rebinding() {
    let mut engine = curriculum_engine();
    let prepared = engine.prepare("count($seed)").unwrap();
    let one = seed_for(&mut engine, "c1");
    let outcome = prepared.execute(&mut engine, &one).unwrap();
    assert_eq!(engine.display(&outcome.result), "1");

    let all = {
        let seed = engine
            .run("doc('curriculum.xml')/curriculum/course")
            .unwrap()
            .result;
        Bindings::new().with("seed", seed)
    };
    let outcome = prepared.execute(&mut engine, &all).unwrap();
    assert_eq!(engine.display(&outcome.result), "4");
}

/// A body with a rec-independent arm: the doc-rooted scan for `c4`.
const SCAN_BODY: &str = "($x/id(./prerequisites/pre_code) union \
                         doc('curriculum.xml')/curriculum/course[@code='c4'])";

#[test]
fn every_run_evaluates_its_rec_independent_nodes_once_and_hits_them_after() {
    // The run cache's contract at the query surface: a per-seed loop pays
    // the rec-independent scan once per seed — nothing is carried from one
    // run to the next; sharing across seeds is the batched run's job — and
    // every later iteration of a run gets the table back as a shared handle.
    let mut engine = curriculum_engine();
    engine.set_backend(Backend::Algebraic);
    let prepared = engine
        .prepare(&format!(
            "for $s in $seed return (with $x seeded by $s recurse {SCAN_BODY})"
        ))
        .unwrap();
    let all = engine
        .run("doc('curriculum.xml')/curriculum/course")
        .unwrap()
        .result;
    let bindings = Bindings::new().with("seed", all);
    for _ in 0..2 {
        let outcome = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(outcome.fixpoints.len(), 4);
        let evals: Vec<u64> = outcome
            .fixpoints
            .iter()
            .map(|s| s.static_plan_evals)
            .collect();
        assert!(evals[0] > 0, "the body has a rec-independent scan");
        assert!(evals.iter().all(|&e| e == evals[0]), "{evals:?}");
        for run in &outcome.fixpoints {
            assert!(run.payload_calls >= 2);
            assert_eq!(run.static_cache_hits as usize, run.payload_calls - 1);
        }
    }
}

#[test]
fn loading_a_document_after_execute_invalidates_the_static_cache() {
    // Named for the cache it once pinned; what it holds now is the answer:
    // a plan executed after a later load answers from the store as it is.  The first execution gets as far as the `c4` scan and fails on
    // the document that is not there yet.
    let mut engine = curriculum_engine();
    engine.set_backend(Backend::Algebraic);
    let prepared = engine
        .prepare(
            "with $x seeded by $seed recurse \
             (doc('curriculum.xml')/curriculum/course[@code='c4'] union \
              doc('late.xml')/late/course)",
        )
        .unwrap();
    let bindings = seed_for(&mut engine, "c1");
    assert!(prepared.execute(&mut engine, &bindings).is_err());

    engine
        .load_document("late.xml", "<late><course code='l1'/></late>")
        .unwrap();
    let outcome = prepared.execute(&mut engine, &bindings).unwrap();
    let expected = engine
        .run(
            "doc('curriculum.xml')/curriculum/course[@code='c4'] union \
             doc('late.xml')/late/course",
        )
        .unwrap();
    assert_eq!(outcome.result.nodes(), expected.result.nodes());
    assert_eq!(outcome.result.len(), 2);
}

#[test]
fn prepared_query_executed_against_a_different_engine_sees_that_store() {
    // A prepared query keeps no table from one execution to the next:
    // executing the same artifact against a *different* engine — even one
    // that performed the same number of loads — answers from that engine's
    // documents, never with node ids of the first.
    let mut a = curriculum_engine();
    a.set_backend(Backend::Algebraic);
    let prepared = a
        .prepare(
            "with $x seeded by $seed recurse \
             doc('curriculum.xml')/curriculum/course[@code='c4']",
        )
        .unwrap();
    let bindings_a = seed_for(&mut a, "c1");
    let on_a = prepared.execute(&mut a, &bindings_a).unwrap();
    assert_eq!(on_a.result.len(), 1, "engine A has a c4 course");

    // Engine B: same URI, same number of loads, but no c4 course at all.
    let mut b = Engine::new();
    b.set_backend(Backend::Algebraic);
    b.load_document_with_ids(
        "curriculum.xml",
        r#"<curriculum>
            <course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
            <course code="c2"><prerequisites/></course>
        </curriculum>"#,
        &["code"],
    )
    .unwrap();
    let bindings_b = seed_for(&mut b, "c1");
    let on_b = prepared.execute(&mut b, &bindings_b).unwrap();
    assert_eq!(
        on_b.result.len(),
        0,
        "engine B has no c4 course; a table kept from A would leak one"
    );
    // …and back.
    let again = prepared.execute(&mut a, &bindings_a).unwrap();
    assert_eq!(again.result.nodes(), on_a.result.nodes());
}

#[test]
fn one_runtime_serves_every_occurrence_and_both_plans() {
    // Two algebraic occurrences, and `execute` interleaved with
    // `execute_batched`: one executor per execution drives all of it, and
    // every answer is what a fresh engine with a freshly prepared query
    // gives.
    let two = format!(
        "(with $x seeded by $seed recurse {PREREQ_BODY}, \
          count(with $x seeded by $seed recurse {SCAN_BODY}))"
    );
    // A bare fixpoint, so that `execute_batched` runs the seed-carried plan
    // where `execute` runs the per-seed one.
    let bare = format!("with $x seeded by $seed recurse {PREREQ_BODY}");
    for query in [two, bare] {
        let mut engine = curriculum_engine();
        engine.set_backend(Backend::Algebraic);
        let prepared = engine.prepare(&query).unwrap();
        let seeds = engine
            .run("doc('curriculum.xml')/curriculum/course")
            .unwrap()
            .result;
        let fresh = |batched: bool, code: &str| {
            let mut engine = curriculum_engine();
            engine.set_backend(Backend::Algebraic);
            let prepared = engine.prepare(&query).unwrap();
            let outcome = if batched {
                let none = Bindings::new();
                let batch = prepared.execute_batched(&mut engine, "seed", &seeds, &none);
                batch.unwrap().outcome
            } else {
                let bindings = seed_for(&mut engine, code);
                prepared.execute(&mut engine, &bindings).unwrap()
            };
            engine.display(&outcome.result)
        };
        let mut batched = Vec::new();
        for code in ["c1", "c2", "c1"] {
            let batch = prepared
                .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
                .unwrap();
            batched.push(batch.batched);
            assert_eq!(engine.display(&batch.outcome.result), fresh(true, code));
            let bindings = seed_for(&mut engine, code);
            let single = prepared.execute(&mut engine, &bindings).unwrap();
            assert_eq!(engine.display(&single.result), fresh(false, code));
        }
        // Measured wall times may route a later batch seed by seed.
        assert_eq!(batched[0], prepared.occurrences().len() == 1, "{batched:?}");
    }
}

#[test]
fn text_constructed_between_two_algebraic_runs_leaves_both_answers_alone() {
    use std::sync::Arc;
    use xqy_ifp::xdm::{CowStore, NodeStore};
    use xqy_ifp::{ExecOptions, PreparedQuery};

    // Both fixpoints resolve `id()` through the store's ID index, whose
    // keys are text-pool symbols.  The first runs on the shared snapshot's
    // text pool; the constructor between them interns a new string, so the
    // session's store diverges and the second run reads its private copy.
    let query = format!(
        "(with $x seeded by $seed recurse {PREREQ_BODY}, \
          <note at='never seen before'>a text no document holds</note>, \
          with $y seeded by $seed recurse {})",
        PREREQ_BODY.replace("$x", "$y")
    );
    let mut store = NodeStore::new();
    let doc = store
        .parse_document_with_uri("curriculum.xml", CURRICULUM)
        .unwrap();
    store.register_id_attribute(doc, "code");
    let seed = store.lookup_id(doc, "c1").unwrap();
    let snapshot = Arc::new(store);
    let bindings = Bindings::new().with("seed", xqy_ifp::xdm::Sequence::from_nodes(vec![seed]));

    let answer = |prepared: &PreparedQuery| {
        let mut cow = CowStore::new(Arc::clone(&snapshot));
        let outcome = prepared
            .execute_on(&mut cow, &bindings, &ExecOptions::default())
            .unwrap();
        assert!(cow.diverged());
        assert!(!cow.read().shares_text_pool(&snapshot));
        outcome.result.display(cow.read())
    };
    let prepare = |backend| PreparedQuery::new(&query, Strategy::Auto, backend).unwrap();
    let algebraic = prepare(Backend::Algebraic);
    let expected = answer(&prepare(Backend::SourceLevel));
    assert!(expected.contains("a text no document holds"));
    // The second execution starts on the snapshot's pool again.
    for _ in 0..2 {
        assert_eq!(answer(&algebraic), expected);
    }
}

/// An execution's run summary is its own: every session executing the
/// plan gets back exactly the fixpoint runs it made, however the fast
/// executions below interleave with the slow one.
#[test]
fn concurrent_executions_of_one_plan_keep_their_own_run_summaries() {
    use xqy_ifp::xdm::{Item, Sequence};

    let prepared = curriculum_engine()
        .prepare(&format!(
            "(count(with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c1'] \
               recurse {PREREQ_BODY}), \
              count(for $i in (1 to $n) return $i))"
        ))
        .unwrap();
    // One execution with `$n = n`: 1 when it came back without exactly
    // its own fixpoint run, else 0.
    let lost = |engine: &mut Engine, n: i64| {
        let steps = Bindings::new().with("n", Sequence::singleton(Item::integer(n)));
        let outcome = prepared.execute(engine, &steps).unwrap();
        usize::from(outcome.fixpoints.len() != 1)
    };

    let (slow_lost, fast_lost) = std::thread::scope(|scope| {
        // The fixpoint runs first; the loop then keeps the execution in
        // flight while this thread finishes execution after execution.
        let slow = scope.spawn(|| {
            let mut engine = curriculum_engine();
            (0..20).map(|_| lost(&mut engine, 200_000)).sum::<usize>()
        });
        let mut engine = curriculum_engine();
        let mut fast_lost = 0;
        while !slow.is_finished() {
            fast_lost += lost(&mut engine, 0);
        }
        (slow.join().unwrap(), fast_lost)
    });
    assert_eq!(
        (slow_lost, fast_lost),
        (0, 0),
        "(slow, fast) executions whose run summary went to another execution"
    );
}

/// No constructor, no copy: a recursion body selects nodes, so executing it
/// over a copy-on-write view of a published snapshot never takes a private
/// copy — on either back-end, single-source, as a `for` loop of per-seed
/// fixpoints or through `execute_batched`.  A query that constructs a node
/// is what diverges the view.
#[test]
fn selecting_bodies_never_copy_the_snapshot_they_read() {
    use std::sync::Arc;
    use xqy_datagen::{auction, curriculum, hospital, play, Scale};
    use xqy_ifp::xdm::{CowStore, NodeStore, Sequence};
    use xqy_ifp::{ExecOptions, PreparedQuery};

    let mut engine = Engine::new();
    let docs = [
        (
            curriculum::DOC_URI,
            curriculum::generate(&curriculum::CurriculumConfig::for_scale(Scale::Small)),
            &["code"][..],
        ),
        (
            auction::DOC_URI,
            auction::generate(&auction::AuctionConfig::for_scale(Scale::Small)),
            &[],
        ),
        (
            play::DOC_URI,
            play::generate(&play::PlayConfig::for_scale(Scale::Small)),
            &[],
        ),
        (
            hospital::DOC_URI,
            hospital::generate(&hospital::HospitalConfig::for_scale(Scale::Small)),
            &[],
        ),
    ];
    for (uri, xml, ids) in &docs {
        engine.load_document_with_ids(uri, xml, ids).unwrap();
    }
    let cells = [
        ("doc('curriculum.xml')/curriculum/course", curriculum::BODY),
        (
            "doc('curriculum.xml')/curriculum/course",
            "$x/id(./prerequisites/pre_code)/self::course[@code = 'c7']",
        ),
        ("doc('auction.xml')/site/people/person", auction::BODY),
        ("doc('play.xml')//SPEECH[@start='1']", play::BODY),
        (
            "doc('hospital.xml')/hospital/patient[@disease='yes']",
            hospital::BODY,
        ),
    ];
    let seeds: Vec<Sequence> = cells
        .iter()
        .map(|(path, _)| {
            let nodes = engine.run(path).unwrap().result.nodes();
            Sequence::from_nodes(nodes[nodes.len() - 6..].to_vec())
        })
        .collect();
    let snapshot = Arc::new(std::mem::replace(engine.store_mut(), NodeStore::new()));
    let opts = ExecOptions::default();
    let prepare =
        |query: &str, backend| PreparedQuery::new(query, Strategy::Auto, backend).unwrap();
    let untouched = |cow: &CowStore, what: &str| {
        assert!(!cow.diverged(), "{what}: the view took a private copy");
        assert!(Arc::ptr_eq(cow.arc(), &snapshot), "{what}: another store");
    };

    for ((_, body), seed) in cells.iter().zip(&seeds) {
        let single = format!("with $x seeded by $seed recurse {body}");
        let looped = format!("for $s in $seed return (with $x seeded by $s recurse {body})");
        let bindings = Bindings::new().with("seed", seed.clone());
        for backend in [Backend::SourceLevel, Backend::Algebraic, Backend::Auto] {
            for query in [&single, &looped] {
                let mut cow = CowStore::new(Arc::clone(&snapshot));
                prepare(query, backend)
                    .execute_on(&mut cow, &bindings, &opts)
                    .unwrap();
                untouched(&cow, &format!("{backend:?} {query}"));
            }
            let mut cow = CowStore::new(Arc::clone(&snapshot));
            let outcome = prepare(&single, backend)
                .execute_batched_on(&mut cow, "seed", seed, &Bindings::new(), &opts)
                .unwrap();
            assert_eq!(outcome.per_seed.len(), seed.len());
            untouched(&cow, &format!("{backend:?} batched {body}"));
        }
    }

    let constructing = format!(
        "(with $x seeded by $seed recurse {}, <note/>)",
        curriculum::BODY
    );
    let mut cow = CowStore::new(Arc::clone(&snapshot));
    prepare(&constructing, Backend::Auto)
        .execute_on(
            &mut cow,
            &Bindings::new().with("seed", seeds[0].clone()),
            &opts,
        )
        .unwrap();
    assert!(cow.diverged(), "a constructor writes");
    assert!(!Arc::ptr_eq(cow.arc(), &snapshot));
}
