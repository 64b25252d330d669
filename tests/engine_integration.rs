//! End-to-end engine tests: strategy selection, statistics, Regular XPath
//! closure helpers, and multi-document queries.

use xqy_ifp::closure::{reflexive_transitive_closure, transitive_closure};
use xqy_ifp::eval::FixpointStrategy;
use xqy_ifp::parser::ast::QueryModule;
use xqy_ifp::xdm::Sequence;
use xqy_ifp::{Bindings, Engine, Strategy};

const TREE: &str = "<r><a><b><c/></b></a><d><e/></d></r>";

#[test]
fn regular_xpath_child_closure_equals_descendant_axis() {
    let mut engine = Engine::new();
    engine.load_document("tree.xml", TREE).unwrap();
    let closure = transitive_closure("doc('tree.xml')/r", "child::*").unwrap();
    let module = QueryModule {
        functions: vec![],
        variables: vec![],
        body: closure,
    };
    let via_closure = engine.run_module(&module).unwrap();
    let via_axis = engine.run("doc('tree.xml')/r/descendant::*").unwrap();
    assert_eq!(via_closure.result.nodes(), via_axis.result.nodes());
    // Closure bodies are distributive, so Auto must have picked Delta.
    assert_eq!(via_closure.strategy_used(), FixpointStrategy::Delta);
}

#[test]
fn reflexive_closure_includes_the_seed_nodes() {
    let mut engine = Engine::new();
    engine.load_document("tree.xml", TREE).unwrap();
    let star = reflexive_transitive_closure("doc('tree.xml')/r", "child::*").unwrap();
    let module = QueryModule {
        functions: vec![],
        variables: vec![],
        body: star,
    };
    let result = engine.run_module(&module).unwrap();
    let plus = engine.run("doc('tree.xml')/r/descendant::*").unwrap();
    assert_eq!(result.result.len(), plus.result.len() + 1);
}

#[test]
fn following_sibling_closure() {
    let mut engine = Engine::new();
    engine.load_document("tree.xml", TREE).unwrap();
    let closure = transitive_closure("doc('tree.xml')/r/a", "following-sibling::*").unwrap();
    let module = QueryModule {
        functions: vec![],
        variables: vec![],
        body: closure,
    };
    let result = engine.run_module(&module).unwrap();
    assert_eq!(result.result.len(), 1); // only <d>
}

#[test]
fn fixpoint_statistics_are_exposed_per_occurrence() {
    let mut engine = Engine::new();
    engine
        .load_document_with_ids(
            "c.xml",
            "<curriculum>\
               <course code=\"a\"><prerequisites><pre_code>b</pre_code></prerequisites></course>\
               <course code=\"b\"><prerequisites><pre_code>c</pre_code></prerequisites></course>\
               <course code=\"c\"><prerequisites/></course>\
             </curriculum>",
            &["code"],
        )
        .unwrap();
    let query = "for $c in doc('c.xml')/curriculum/course \
                 return count(with $x seeded by $c recurse $x/id(./prerequisites/pre_code))";
    let outcome = engine.run(query).unwrap();
    // One fixpoint execution per course.
    assert_eq!(outcome.fixpoints.len(), 3);
    let counts: Vec<String> = outcome
        .result
        .iter()
        .map(|item| item.as_atomic().unwrap().string_value())
        .collect();
    assert_eq!(counts, vec!["2", "1", "0"]);
}

#[test]
fn auto_strategy_is_per_occurrence_with_mixed_bodies() {
    let mut engine = Engine::new();
    engine.set_seed_in_result(true);
    // One distributive and one non-distributive fixpoint in the same query:
    // Auto runs Delta on the former and Naïve on the latter — one body no
    // longer drags the whole query down.
    let query = "let $seed := <a><b/></a> return \
                 ((with $x seeded by $seed recurse $x/*), \
                  (with $y seeded by $seed recurse if (count($y)) then $y/* else ()))";
    let outcome = engine.run(query).unwrap();
    assert_eq!(outcome.distributivity.len(), 2);
    assert!(outcome.distributivity[0].is_distributive());
    assert!(!outcome.distributivity[1].is_distributive());
    assert_eq!(outcome.occurrences[0].strategy, FixpointStrategy::Delta);
    assert_eq!(outcome.occurrences[1].strategy, FixpointStrategy::Naive);
    // The query-level summary stays conservative.
    assert_eq!(outcome.strategy_used(), FixpointStrategy::Naive);
    // The per-run statistics carry the per-occurrence strategies too.
    use xqy_ifp::eval::FixpointStrategy;
    let tags: Vec<_> = outcome.fixpoints.iter().map(|s| s.strategy).collect();
    assert_eq!(
        tags,
        vec![Some(FixpointStrategy::Delta), Some(FixpointStrategy::Naive)]
    );
}

/// Bodies the syntactic check must refuse: a nested µ whose body inspects
/// its variable as a whole, a call that sees `$x` through two arguments, a
/// call whose overload by arity is not distributive, and a built-in a
/// declaration of the same name cannot shadow.  Certified, `Auto` ran them
/// with Delta and lost nodes, and a forced-Naïve `execute_batched` shared
/// frontier nodes across seeds; now both answer what per-seed Naïve
/// answers, on both back-end settings.
#[test]
fn auto_equals_naive_on_bodies_the_syntactic_check_refuses() {
    let siblings = "<r><s><a/><b/><c/></s><z/></r>";
    let four = "<r><a/><a/><a/><a/></r>";
    let nested = "$x/following-sibling::*[1] union \
                  (with $y seeded by $x recurse if (count($y) >= 2) then doc('d.xml')//z else ())";
    let two_args = "declare function f($a, $b) { for $i in $a return \
                      (for $j in $b return if ($i is $j) then () else $i/parent::*) };\n";
    let overloaded =
        "declare function f($a) { if (count($a) >= 2) then doc('d.xml')/r else () };\n\
                      declare function f($a, $b) { $a/b };\n";
    let shadowing = "declare function local:subsequence($a, $b, $c) { $a/self::* };\n";
    for (xml, prolog, body, seed, naive_size) in [
        (siblings, "", nested, "doc('d.xml')//a", 3),
        (
            siblings,
            two_args,
            "$x/following-sibling::*[1] union f($x, $x)",
            "doc('d.xml')//a",
            5,
        ),
        (
            four,
            overloaded,
            "$x/following-sibling::*[1] union f($x)",
            "doc('d.xml')/r/a[1]",
            4,
        ),
        (
            four,
            shadowing,
            "$x/following-sibling::*[1] union subsequence($x, 2, 1)/parent::*",
            "doc('d.xml')/r/a[1]",
            4,
        ),
    ] {
        let mut engine = Engine::new();
        engine.load_document("d.xml", xml).unwrap();
        let query = format!("{prolog}with $x seeded by {seed} recurse {body}");
        let seeded = format!("{prolog}with $x seeded by $seed recurse {body}");
        let seed_nodes = engine.run(seed).unwrap().result;
        for backend in [xqy_ifp::Backend::SourceLevel, xqy_ifp::Backend::Auto] {
            engine.set_backend(backend);
            let mut answer = |strategy| {
                engine.set_strategy(strategy);
                let outcome = engine.run(&query).unwrap();
                assert!(!outcome.distributivity[0].syntactic, "{query}");
                outcome.result.nodes()
            };
            let naive = answer(Strategy::Naive);
            assert_eq!(naive.len(), naive_size, "{query}");
            assert_eq!(
                answer(Strategy::Auto),
                naive,
                "{query} on {}",
                backend.name()
            );
            // Through `execute` with `$seed` bound, run after run.
            let prepared = engine.prepare(&seeded).unwrap();
            let bindings = Bindings::new().with("seed", seed_nodes.clone());
            for run in 0..3 {
                let outcome = prepared.execute(&mut engine, &bindings).unwrap();
                assert_eq!(outcome.result.nodes(), naive, "{seeded}, run {run}");
            }
        }
        // One batch over every element under forced Naïve: no frontier node
        // may be shared, so each seed gets its per-seed Naïve answer.
        engine.set_strategy(Strategy::Naive);
        let prepared = engine.prepare(&seeded).unwrap();
        let seeds = engine.run("doc('d.xml')//*").unwrap().result;
        let batch = prepared
            .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
            .unwrap();
        for (seed, batched) in seeds.iter().zip(&batch.per_seed) {
            let alone = Bindings::new().with("seed", Sequence::singleton(seed.clone()));
            let per_seed = prepared.execute(&mut engine, &alone).unwrap().result;
            assert_eq!(batched.nodes(), per_seed.nodes(), "{body} from {seed:?}");
        }
    }
}

#[test]
fn queries_across_multiple_documents() {
    let mut engine = Engine::new();
    engine
        .load_document("a.xml", "<r><x id=\"1\"/></r>")
        .unwrap();
    engine
        .load_document("b.xml", "<r><x id=\"2\"/><x id=\"3\"/></r>")
        .unwrap();
    let outcome = engine
        .run("count(doc('a.xml')//x) + count(doc('b.xml')//x)")
        .unwrap();
    assert_eq!(engine.display(&outcome.result), "3");
}

#[test]
fn display_serializes_nodes_as_xml() {
    let mut engine = Engine::new();
    engine
        .load_document("t.xml", "<r><a k=\"v\">text</a></r>")
        .unwrap();
    let outcome = engine.run("doc('t.xml')/r/a").unwrap();
    assert_eq!(engine.display(&outcome.result), "<a k=\"v\">text</a>");
}

#[test]
fn strategy_accessors_round_trip() {
    let mut engine = Engine::new();
    assert_eq!(engine.strategy(), Strategy::Auto);
    engine.set_strategy(Strategy::Delta);
    assert_eq!(engine.strategy(), Strategy::Delta);
    assert_eq!(Strategy::Naive.name(), "naive");
    assert_eq!(Strategy::Auto.name(), "auto");
}

/// Names match ignoring prefixes, so a prefixed name test selects what its
/// unprefixed twin does — through the interpreter's steps, a predicate and
/// the algebraic executor's attribute access alike.
#[test]
fn prefixed_name_tests_select_what_their_unprefixed_twins_do() {
    let mut engine = Engine::new();
    let xml = "<r xml:id=\"r1\"><p:a xml:id=\"a1\" next=\"a2\"/><a id=\"a2\"/><b/></r>";
    engine.load_document("d.xml", xml).unwrap();
    for (prefixed, plain, expected) in [
        ("doc('d.xml')/r/@xml:id", "doc('d.xml')/r/@id", 1),
        (
            "doc('d.xml')/r/attribute::xml:id",
            "doc('d.xml')/r/attribute::id",
            1,
        ),
        ("doc('d.xml')/r/p:a", "doc('d.xml')/r/a", 2),
        ("doc('d.xml')/r/child::q:a", "doc('d.xml')/r/child::a", 2),
        (
            "doc('d.xml')//*[@xml:id='a1']",
            "doc('d.xml')//*[@id='a1']",
            1,
        ),
        ("doc('d.xml')/r/p:a/@xml:id", "doc('d.xml')/r/a/@id", 2),
    ] {
        let twin = engine.run(plain).unwrap().result.nodes();
        assert_eq!(twin.len(), expected, "{plain}");
        assert_eq!(
            engine.run(prefixed).unwrap().result.nodes(),
            twin,
            "{prefixed}"
        );
    }
    // `xml:id` attributes feed the ID index, and a recursion over them runs
    // on both back-ends.
    for backend in [xqy_ifp::Backend::SourceLevel, xqy_ifp::Backend::Algebraic] {
        engine.set_backend(backend);
        let closure = engine
            .run("with $x seeded by doc('d.xml')/r/p:a recurse $x/id(./@next)")
            .unwrap();
        assert_eq!(closure.result.len(), 1, "{}", backend.name());
    }
    assert!(engine
        .run("doc('d.xml')/r/p:zzz")
        .unwrap()
        .result
        .is_empty());
}

/// One answer per body, whichever back-end runs it: on every row the
/// interpreter, the forced relational executor and `Auto` give the same
/// node set — or, for a body that can return atomic values, the executor
/// refuses it as `Unsupported` while the interpreter (and so `Auto`)
/// raises its "must return nodes" type error.
#[test]
fn back_ends_agree_on_attribute_atomic_and_cross_document_bodies() {
    use xqy_ifp::algebra::AlgebraError;
    use xqy_ifp::eval::EvalError;
    use xqy_ifp::{Backend, IfpError};

    const BACKENDS: [Backend; 3] = [Backend::SourceLevel, Backend::Algebraic, Backend::Auto];
    let mut engine = Engine::new();
    engine
        .load_document(
            "t.xml",
            "<r><p k='p1'><q a='1'/><q a='2'/></p><o k=''><q/><q a=''/><q/></o></r>",
        )
        .unwrap();
    // Equal IDs in two documents: each reference must resolve in its own.
    engine
        .load_document_with_ids(
            "d1.xml",
            "<r><s ref='z'/><m id='z' ref='y'/><m id='y'/></r>",
            &["id"],
        )
        .unwrap();
    engine
        .load_document_with_ids("d2.xml", "<r><s ref='z'/><m id='z'/></r>", &["id"])
        .unwrap();
    let fixpoint = |body: &str| format!("with $x seeded by doc('t.xml')/r/p recurse {body}");
    let node_rows = [
        ("$x/q/@a", 2),
        ("$x/@k", 1),
        ("$x/q/attribute::a", 2),
        ("$x/descendant::q/@a", 2),
        ("$x/q/@a/..", 2),
        ("$x/@*", 1),
    ];
    let both = "(doc('d1.xml')/r/s, doc('d2.xml')/r/s)";
    let cross_document = [
        format!("with $x seeded by {both} recurse $x/id(./@ref)"),
        format!("for $s in {both} return (with $x seeded by $s recurse $x/id(./@ref))"),
    ];
    let rows = node_rows
        .iter()
        .map(|&(body, n)| (fixpoint(body), n))
        .chain(cross_document.into_iter().map(|query| (query, 3)));
    for (query, expected) in rows {
        engine.set_backend(Backend::SourceLevel);
        let reference = engine.run(&query).unwrap().result.nodes();
        assert_eq!(reference.len(), expected, "{query}");
        for backend in BACKENDS {
            engine.set_backend(backend);
            let nodes = engine.run(&query).unwrap().result.nodes();
            assert_eq!(nodes, reference, "{query} on {}", backend.name());
        }
    }
    for body in [
        "string($x)",
        "($x/q, 'lit')",
        "('lit', $x/q)",
        "if (count($x/q)) then $x/q else 'x'",
    ] {
        for backend in BACKENDS {
            engine.set_backend(backend);
            let error = engine.run(&fixpoint(body)).unwrap_err();
            let at = format!("{body} on {}: {error}", backend.name());
            match backend {
                Backend::Algebraic => assert!(
                    matches!(error, IfpError::Algebra(AlgebraError::Unsupported(_))),
                    "{at}"
                ),
                _ => assert!(
                    matches!(&error, IfpError::Eval(EvalError::Type(m)) if m.contains("must return nodes")),
                    "{at}"
                ),
            }
        }
    }
    // A condition that yields atomic values: the executor refuses it, and
    // `Auto` answers as the interpreter does — ∅ where the value's EBV is
    // false, a type error where it has none (`Some(0)` vs `None` below).
    let conditioned = |cond: &str| {
        format!("with $x seeded by doc('t.xml')/r/o recurse if ({cond}) then $x/q else ()")
    };
    for (cond, expected) in [
        ("''", Some(0)),
        ("0", Some(0)),
        ("data($x/@k)", Some(0)),
        ("string($x/@k)", Some(0)),
        ("data($x/q)", None),
        ("string($x/q)", None),
        ("data($x/q/@a)", Some(0)),
    ] {
        let query = conditioned(cond);
        for backend in BACKENDS {
            engine.set_backend(backend);
            let outcome = engine.run(&query);
            let at = format!("{cond} on {}", backend.name());
            match (backend, expected, outcome) {
                (Backend::Algebraic, _, Err(error)) => assert!(
                    matches!(error, IfpError::Algebra(AlgebraError::Unsupported(_))),
                    "{at}: {error}"
                ),
                (Backend::SourceLevel | Backend::Auto, Some(n), Ok(outcome)) => {
                    assert_eq!(outcome.result.len(), n, "{at}")
                }
                (Backend::SourceLevel | Backend::Auto, None, Err(error)) => assert!(
                    matches!(error, IfpError::Eval(EvalError::Type(_))),
                    "{at}: {error}"
                ),
                (_, _, outcome) => panic!("{at}: {:?}", outcome.map(|o| o.result.len())),
            }
        }
    }
    // `[@a = 'lit']` compares attribute nodes' string values: the empty
    // string, a value, and a literal no document holds.
    for (literal, expected) in [("''", 1), ("'1'", 1), ("'zz'", 0)] {
        let query = format!("with $x seeded by doc('t.xml')/r/* recurse $x/q[@a = {literal}]");
        engine.set_backend(Backend::SourceLevel);
        let reference = engine.run(&query).unwrap().result.nodes();
        assert_eq!(reference.len(), expected, "{query}");
        for backend in BACKENDS {
            engine.set_backend(backend);
            let nodes = engine.run(&query).unwrap().result.nodes();
            assert_eq!(nodes, reference, "{query} on {}", backend.name());
        }
    }
    // Outside the compiler subset the executor refuses and `Auto` answers
    // as the interpreter does: `empty()` (whose count the plan would read
    // as its negation) and every constructor form (fresh nodes per round).
    let unsupported = |engine: &mut Engine, body: &str| {
        engine.set_backend(Backend::Algebraic);
        let error = engine.run(&fixpoint(body)).unwrap_err();
        assert!(
            matches!(error, IfpError::Algebra(AlgebraError::Unsupported(_))),
            "{body}: {error}"
        );
    };
    let body = "if (empty($x/zz)) then $x/q else ()";
    unsupported(&mut engine, body);
    for backend in [Backend::SourceLevel, Backend::Auto] {
        engine.set_backend(backend);
        assert_eq!(engine.run(&fixpoint(body)).unwrap().result.len(), 2);
    }
    for body in [
        "<w>{$x/q}</w>",
        "element w {$x/q}",
        "text {'t'}",
        "attribute z {'v'}",
    ] {
        unsupported(&mut engine, body);
    }
}
