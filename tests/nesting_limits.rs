//! Nesting limits: deeply nested input is a typed error, never a stack
//! overflow (an abort no `catch_unwind` contains).
//!
//! Both recursive descents — the query parser and the XML parser — stop at
//! a fixed depth, and the query parser also bounds the height its *loops*
//! add to the tree (operator chains, step chains, binder lists: no
//! recursion in the parser, one tree level per link for every later pass).
//! Every case runs on a spawned thread with the default 2 MiB stack, the
//! stack every `QueryService` client has: an input *at* the limit must
//! parse, prepare, execute and drop there, and an input far beyond it must
//! come back as `IfpError::Parse` / `IfpError::Document`.

use xqy_ifp::{Bindings, Engine, IfpError};

/// Far beyond either limit: at the parent commit this many levels overflow
/// the main thread's stack too.
const HOSTILE: usize = 10_000;

fn on_default_stack(case: impl FnOnce() + Send + 'static) {
    std::thread::spawn(case).join().expect("case thread");
}

fn engine() -> Engine {
    let mut engine = Engine::new();
    engine.load_document("d", "<a><a><a/></a></a>").unwrap();
    engine
}

/// The deepest `shape(n)` the parser accepts, found by growing `n` until it
/// refuses; everything up to it must prepare, and the refusal must be the
/// typed parse error.
fn deepest_accepted(engine: &Engine, shape: fn(usize) -> String) -> usize {
    for n in 1..HOSTILE {
        match engine.prepare(&shape(n)) {
            Ok(_) => {}
            Err(IfpError::Parse(message)) => {
                assert!(message.contains("nested deeper"), "{message}");
                assert!(n > 8, "limit refuses ordinary nesting ({n} levels)");
                return n - 1;
            }
            Err(other) => panic!("{n} levels: {other}"),
        }
    }
    panic!("no nesting limit below {HOSTILE} levels");
}

fn query_shape_round_trips(shape: fn(usize) -> String) {
    on_default_stack(move || {
        let mut engine = engine();
        let at_limit = deepest_accepted(&engine, shape);
        let prepared = engine.prepare(&shape(at_limit)).unwrap();
        let outcome = prepared.execute(&mut engine, &Bindings::new()).unwrap();
        engine.display(&outcome.result);
        drop((outcome, prepared));
        assert!(matches!(
            engine.prepare(&shape(HOSTILE)),
            Err(IfpError::Parse(_))
        ));
    });
}

#[test]
fn nested_parentheses() {
    query_shape_round_trips(|n| format!("{}1{}", "(".repeat(n), ")".repeat(n)));
}

#[test]
fn nested_unary_minus() {
    query_shape_round_trips(|n| format!("{}1", "-".repeat(n)));
}

#[test]
fn nested_if() {
    query_shape_round_trips(|n| format!("{}1{}", "if (".repeat(n), ") then 1 else 0".repeat(n)));
    query_shape_round_trips(|n| format!("{}0", "if (0) then 1 else ".repeat(n)));
}

#[test]
fn nested_flwor() {
    query_shape_round_trips(|n| format!("{}$i", "for $i in 1 return ".repeat(n)));
    query_shape_round_trips(|n| format!("{}1", "let $v := 1 return ".repeat(n)));
}

#[test]
fn nested_path_predicates() {
    query_shape_round_trips(|n| format!("doc('d')/a{}{}", "[a".repeat(n), "]".repeat(n)));
}

#[test]
fn nested_function_calls() {
    query_shape_round_trips(|n| format!("{}1{}", "count(".repeat(n), ")".repeat(n)));
}

#[test]
fn nested_direct_element_constructors() {
    query_shape_round_trips(|n| format!("{}{}", "<e>".repeat(n), "</e>".repeat(n)));
    query_shape_round_trips(|n| format!("{}1{}", "<e>{".repeat(n), "}</e>".repeat(n)));
}

/// `first` followed by `n` copies of `link`.
fn chain(first: &str, link: &str, n: usize) -> String {
    format!("{first}{}", link.repeat(n))
}

#[test]
fn operator_chains() {
    query_shape_round_trips(|n| chain("1", "+1", n));
    query_shape_round_trips(|n| chain("1", "*1", n));
    query_shape_round_trips(|n| chain("0", " or 0", n));
    query_shape_round_trips(|n| chain("1", " and 1", n));
    query_shape_round_trips(|n| chain("doc('d')", " union doc('d')", n));
    query_shape_round_trips(|n| chain("doc('d')//a", " except doc('d')/a", n));
}

#[test]
fn step_chains() {
    query_shape_round_trips(|n| chain("doc('d')", "/a", n));
    query_shape_round_trips(|n| chain("doc('d')", "//a", n));
    // …as a recursion body, which the algebra compiler walks as well.
    query_shape_round_trips(|n| {
        let body = chain("$x", "/self::a", n);
        format!("with $x seeded by doc('d')/a recurse {body}")
    });
}

#[test]
fn binder_lists() {
    query_shape_round_trips(|n| format!("for $i in 1{} return $i", ", $i in 1".repeat(n)));
    query_shape_round_trips(|n| format!("let $v := 1{} return $v", ", $v := 1".repeat(n)));
    query_shape_round_trips(|n| format!("some $i in 1{} satisfies $i", ", $i in 1".repeat(n)));
}

/// The two limits are independent, so the worst tree exhausts both: the
/// longest chain under the deepest nesting.
#[test]
fn a_chain_at_its_limit_under_nesting_at_its_limit() {
    on_default_stack(|| {
        let mut engine = engine();
        let links = deepest_accepted(&engine, |n| chain("1", "+1", n));
        for (open, close) in [("count(", ")"), ("<e>{", "}</e>"), ("-", "")] {
            let nested = |n: usize| {
                let sum = chain("1", "+1", links);
                format!("{}{sum}{}", open.repeat(n), close.repeat(n))
            };
            let levels = (1..HOSTILE)
                .take_while(|&n| engine.prepare(&nested(n)).is_ok())
                .count();
            assert!(levels > 8, "{open}: {levels} levels");
            let prepared = engine.prepare(&nested(levels)).unwrap();
            let outcome = prepared.execute(&mut engine, &Bindings::new()).unwrap();
            engine.display(&outcome.result);
        }
    });
}

#[test]
fn nested_xml_elements() {
    on_default_stack(|| {
        let xml = |n: usize| format!("{}t{}", "<e>".repeat(n), "</e>".repeat(n));
        let mut at_limit = 0;
        for n in 1..HOSTILE {
            match Engine::new().load_document("deep", &xml(n)) {
                Ok(()) => at_limit = n,
                Err(IfpError::Document(message)) => {
                    assert!(message.contains("nested deeper"), "{message}");
                    break;
                }
                Err(other) => panic!("{n} levels: {other}"),
            }
        }
        assert!(at_limit >= 64, "limit refuses ordinary documents");
        assert!(at_limit < HOSTILE - 1, "no nesting limit");
        // Walk the deepest accepted document with everything that descends
        // a tree recursively.
        let mut engine = Engine::new();
        engine.load_document("deep", &xml(at_limit)).unwrap();
        let outcome = engine
            .run(
                "count(doc('deep')//e), string(doc('deep')), \
                 <copy>{doc('deep')/e}</copy>, doc('deep')//e[last()]/ancestor::e",
            )
            .unwrap();
        assert_eq!(outcome.result.len(), 3 + (at_limit - 1));
        engine.display(&outcome.result);
        assert!(matches!(
            engine.load_document("hostile", &xml(HOSTILE)),
            Err(IfpError::Document(_))
        ));
    });
}
