//! Whole-workload integration tests: the four benchmark workloads of the
//! paper's Table 2, run at small scale on both back-ends and with both
//! algorithms, checking that (i) Naïve and Delta agree on these
//! distributive bodies, (ii) Delta feeds back strictly fewer nodes, and
//! (iii) the relational back-end agrees with the source-level evaluator.

use xqy_datagen::{auction, curriculum, hospital, play, Scale};
use xqy_ifp::{Backend, Bindings, Engine, Strategy};

struct Workload {
    name: &'static str,
    uri: &'static str,
    xml: String,
    id_attrs: &'static [&'static str],
    seed_query: String,
    body: &'static str,
    query: String,
}

fn workloads() -> Vec<Workload> {
    let curriculum_xml = curriculum::generate(&curriculum::CurriculumConfig {
        courses: 120,
        max_prerequisites: 3,
        cycles: 3,
        seed: 42,
    });
    let auction_xml = auction::generate(&auction::AuctionConfig {
        persons: 60,
        auctions: 90,
        max_bidders: 3,
        seed: 42,
    });
    let play_xml = play::generate(&play::PlayConfig::for_scale(Scale::Small));
    let hospital_xml = hospital::generate(&hospital::HospitalConfig {
        patients: 800,
        max_depth: 5,
        disease_percent: 20,
        seed: 42,
    });
    vec![
        Workload {
            name: "curriculum",
            uri: curriculum::DOC_URI,
            xml: curriculum_xml,
            id_attrs: &["code"],
            seed_query: format!(
                "doc('{}')/curriculum/course[@code='c100']",
                curriculum::DOC_URI
            ),
            body: curriculum::BODY,
            query: curriculum::prerequisites_query("c100"),
        },
        Workload {
            name: "bidder network",
            uri: auction::DOC_URI,
            xml: auction_xml,
            id_attrs: &[],
            seed_query: format!("doc('{}')/site/people/person[@id='p0']", auction::DOC_URI),
            body: auction::BODY,
            query: auction::bidder_network_query("p0"),
        },
        Workload {
            name: "dialogs",
            uri: play::DOC_URI,
            xml: play_xml,
            id_attrs: &[],
            seed_query: format!("doc('{}')//SPEECH[@start='1']", play::DOC_URI),
            body: play::BODY,
            query: play::dialogs_query(),
        },
        Workload {
            name: "hospital",
            uri: hospital::DOC_URI,
            xml: hospital_xml,
            id_attrs: &[],
            seed_query: format!(
                "doc('{}')/hospital/patient[@disease='yes']",
                hospital::DOC_URI
            ),
            body: hospital::BODY,
            query: hospital::hereditary_query(),
        },
    ]
}

fn engine_for(workload: &Workload) -> Engine {
    let mut engine = Engine::new();
    engine
        .load_document_with_ids(workload.uri, &workload.xml, workload.id_attrs)
        .unwrap();
    engine
}

/// Result size and total nodes fed back of `query` under `strategy`.
fn size_and_fed_back(workload: &Workload, query: &str, strategy: Strategy) -> (usize, u64) {
    let mut engine = engine_for(workload);
    engine.set_strategy(strategy);
    let outcome = engine.run(query).unwrap();
    let fed = outcome.fixpoints.iter().map(|s| s.nodes_fed_back).sum();
    (outcome.result.len(), fed)
}

#[test]
fn naive_and_delta_agree_and_delta_feeds_fewer_nodes() {
    let workloads = workloads();
    for workload in &workloads {
        let (naive_len, naive_fed) = size_and_fed_back(workload, &workload.query, Strategy::Naive);
        let (delta_len, delta_fed) = size_and_fed_back(workload, &workload.query, Strategy::Delta);
        assert_eq!(
            naive_len, delta_len,
            "{}: Naive and Delta must agree",
            workload.name
        );
        assert!(
            delta_fed <= naive_fed,
            "{}: Delta ({delta_fed}) must not feed back more nodes than Naive ({naive_fed})",
            workload.name
        );
    }
    // Strictly fewer once some recursion goes more than a step deep: the
    // bidder network seeded with every person, one fixpoint each, as Table 2
    // runs it.
    let bidders = &workloads[1];
    let per_person = format!(
        "for $s in doc('{}')/site/people/person return (with $x seeded by $s recurse {})",
        bidders.uri, bidders.body
    );
    let (naive_len, naive_fed) = size_and_fed_back(bidders, &per_person, Strategy::Naive);
    let (delta_len, delta_fed) = size_and_fed_back(bidders, &per_person, Strategy::Delta);
    assert_eq!(naive_len, delta_len);
    assert!(
        delta_fed < naive_fed,
        "Delta {delta_fed}, Naive {naive_fed}"
    );
}

#[test]
fn auto_strategy_selects_delta_for_every_workload() {
    for workload in workloads() {
        let mut engine = engine_for(&workload);
        engine.set_strategy(Strategy::Auto);
        let outcome = engine.run(&workload.query).unwrap();
        assert_eq!(
            outcome.strategy_used(),
            xqy_ifp::eval::FixpointStrategy::Delta,
            "{}: all benchmark bodies are distributive",
            workload.name
        );
        assert!(outcome.distributivity.iter().all(|d| d.is_distributive()));
    }
}

#[test]
fn relational_backend_agrees_with_the_evaluator() {
    for workload in workloads() {
        let mut engine = engine_for(&workload);
        engine.set_strategy(Strategy::Delta);
        let reference = engine.run(&workload.query).unwrap();

        // The same recursion body on the relational back-end: one prepared
        // query per algorithm, seed bound externally, plan compiled once.
        let seed = engine.run(&workload.seed_query).unwrap().result;
        let bindings = Bindings::new().with("seed", seed);
        let fixpoint_query = format!("with $x seeded by $seed recurse {}", workload.body);
        engine.set_backend(Backend::Algebraic);

        engine.set_strategy(Strategy::Naive);
        let mu = engine
            .prepare(&fixpoint_query)
            .unwrap()
            .execute(&mut engine, &bindings)
            .unwrap();
        engine.set_strategy(Strategy::Delta);
        let mud = engine
            .prepare(&fixpoint_query)
            .unwrap()
            .execute(&mut engine, &bindings)
            .unwrap();

        assert_eq!(
            mu.result.len(),
            reference.result.len(),
            "{}: µ result differs from the evaluator",
            workload.name
        );
        assert_eq!(
            mud.result.len(),
            reference.result.len(),
            "{}: µ∆ result differs from the evaluator",
            workload.name
        );
        assert!(
            mud.fixpoints[0].nodes_fed_back <= mu.fixpoints[0].nodes_fed_back,
            "{}: µ∆ must not feed back more rows than µ",
            workload.name
        );
        for run in [&mu.fixpoints[0], &mud.fixpoints[0]] {
            assert!(run.iterations >= 1 && run.nodes_fed_back > 0);
        }
        assert!(mu
            .occurrences
            .iter()
            .all(|o| o.backend == xqy_ifp::eval::FixpointBackendTag::Algebraic));
    }
}

#[test]
fn bidder_network_value_join_formulation_matches_id_link_formulation() {
    // Figure 10's original value-join query (source-level engine only) and
    // the id-link reformulation used by the algebraic compiler must compute
    // the same network.
    let xml = auction::generate(&auction::AuctionConfig {
        persons: 40,
        auctions: 70,
        max_bidders: 3,
        seed: 7,
    });
    let mut engine = Engine::new();
    engine.load_document(auction::DOC_URI, &xml).unwrap();
    let via_links = engine.run(&auction::bidder_network_query("p3")).unwrap();
    let via_join = engine
        .run(&auction::bidder_network_value_join_query("p3"))
        .unwrap();
    assert_eq!(via_links.result.nodes(), via_join.result.nodes());
}

#[test]
fn consistency_check_finds_only_cyclic_courses() {
    let xml = curriculum::generate(&curriculum::CurriculumConfig {
        courses: 60,
        max_prerequisites: 2,
        cycles: 2,
        seed: 5,
    });
    let mut engine = Engine::new();
    engine
        .load_document_with_ids(curriculum::DOC_URI, &xml, &["code"])
        .unwrap();
    let outcome = engine.run(&curriculum::consistency_check_query()).unwrap();
    // Exactly the 2 * cycles cycle-closing courses are among their own
    // prerequisites (the layered DAG part is acyclic by construction).
    assert_eq!(outcome.result.len(), 4);
}

#[test]
fn dialog_recursion_depth_matches_the_longest_dialog() {
    let config = play::PlayConfig::for_scale(Scale::Small);
    let xml = play::generate(&config);
    let expected = play::max_dialog_length(&xml);
    let mut engine = Engine::new();
    engine.load_document(play::DOC_URI, &xml).unwrap();
    engine.set_strategy(Strategy::Delta);
    let outcome = engine.run(&play::dialogs_query()).unwrap();
    let depth = outcome.fixpoints[0].iterations;
    // A dialog of length L contributes L-1 continuation hops; the recursion
    // needs one extra iteration to detect convergence.
    assert_eq!(
        depth,
        expected.saturating_sub(1),
        "depth {depth} vs dialog length {expected}"
    );
}

#[test]
fn max_dialog_length_query_matches_ground_truth() {
    let config = play::PlayConfig::for_scale(Scale::Small);
    let xml = play::generate(&config);
    let expected = play::max_dialog_length(&xml);
    let mut engine = Engine::new();
    engine.load_document(play::DOC_URI, &xml).unwrap();
    let outcome = engine.run(&play::max_dialog_query()).unwrap();
    let reported = outcome.result.items()[0]
        .as_atomic()
        .unwrap()
        .to_integer()
        .unwrap();
    assert_eq!(reported as usize, expected);
}
