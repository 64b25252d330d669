//! The source-level Naïve→Delta rewrite (what the paper did for Saxon) is
//! semantics-preserving on distributive bodies and equivalent to the native
//! IFP operator.

use xqy_datagen::{curriculum, hospital, Scale};
use xqy_ifp::parser::parse_query;
use xqy_ifp::{rewrite_fixpoints_to_functions, Engine, RewriteStyle, Strategy};

fn curriculum_engine() -> Engine {
    let config = curriculum::CurriculumConfig::for_scale(Scale::Small);
    let xml = curriculum::generate(&config);
    let mut engine = Engine::new();
    engine
        .load_document_with_ids(curriculum::DOC_URI, &xml, &["code"])
        .unwrap();
    engine
}

#[test]
fn rewritten_curriculum_query_matches_native_ifp() {
    let query = curriculum::prerequisites_query("c42");
    let module = parse_query(&query).unwrap();

    let mut engine = curriculum_engine();
    let native = engine.run(&query).unwrap();

    for style in [RewriteStyle::Naive, RewriteStyle::Delta] {
        let rewritten = rewrite_fixpoints_to_functions(&module, style);
        let mut engine2 = curriculum_engine();
        let lowered = engine2.run_module(&rewritten).unwrap();
        assert!(!native.result.is_empty());
        assert_eq!(
            native.result.nodes(),
            lowered.result.nodes(),
            "style {:?}",
            style
        );
    }
}

#[test]
fn rewritten_hospital_query_matches_native_ifp() {
    let config = hospital::HospitalConfig {
        patients: 400,
        max_depth: 5,
        disease_percent: 25,
        seed: 17,
    };
    let xml = hospital::generate(&config);
    let query = hospital::ancestors_query("pt350");
    let module = parse_query(&query).unwrap();

    let mut engine = Engine::new();
    engine.load_document(hospital::DOC_URI, &xml).unwrap();
    let native = engine.run(&query).unwrap();

    let rewritten = rewrite_fixpoints_to_functions(&module, RewriteStyle::Delta);
    let mut engine2 = Engine::new();
    engine2.load_document(hospital::DOC_URI, &xml).unwrap();
    let lowered = engine2.run_module(&rewritten).unwrap();
    assert_eq!(native.result.nodes(), lowered.result.nodes());
}

#[test]
fn naive_and_delta_strategies_agree_on_distributive_workloads() {
    let query = curriculum::prerequisites_query("c77");
    let mut naive_engine = curriculum_engine();
    naive_engine.set_strategy(Strategy::Naive);
    let naive = naive_engine.run(&query).unwrap();

    let mut delta_engine = curriculum_engine();
    delta_engine.set_strategy(Strategy::Delta);
    let delta = delta_engine.run(&query).unwrap();

    assert!(!naive.result.is_empty());
    assert_eq!(naive.result.nodes(), delta.result.nodes());
    assert!(delta.fixpoints[0].nodes_fed_back <= naive.fixpoints[0].nodes_fed_back);
}

#[test]
fn rewrite_is_printable_and_reparsable_for_every_workload_query() {
    for query in [
        curriculum::prerequisites_query("c1"),
        hospital::hereditary_query(),
        xqy_datagen::play::dialogs_query(),
        xqy_datagen::auction::bidder_network_query("p0"),
    ] {
        let module = parse_query(&query).unwrap();
        for style in [RewriteStyle::Naive, RewriteStyle::Delta] {
            let rewritten = rewrite_fixpoints_to_functions(&module, style);
            let printed = xqy_ifp::parser::pretty::print_module(&rewritten);
            let reparsed = parse_query(&printed).expect("rewritten query must re-parse");
            assert_eq!(reparsed.functions.len(), rewritten.functions.len());
        }
    }
}
