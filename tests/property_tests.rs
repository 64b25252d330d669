//! Property-based tests over the core invariants of the reproduction:
//!
//! * the node-set operations behave like set algebra under `fs:ddo`;
//! * Naïve and Delta agree on distributive bodies for *arbitrary* generated
//!   reference graphs (Theorem 3.2 exercised empirically);
//! * the syntactic distributivity judgement is sound with respect to the
//!   definition of distributivity (Definition 3.1) on generated inputs;
//! * the relational back-end agrees with the source-level evaluator.

use proptest::prelude::*;

use xqy_ifp::eval::{Evaluator, FixpointStrategy};
use xqy_ifp::xdm::{ddo, is_subset, node_except, node_union, NodeId, NodeStore};
use xqy_ifp::{Backend, Engine, Strategy};

/// Build a curriculum-like document from an arbitrary edge list over
/// `courses` nodes.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Naïve and Delta compute the same IFP for the (distributive)
    /// transitive-closure body on arbitrary reference graphs, including
    /// graphs with cycles and self-loops.
    #[test]
    fn naive_equals_delta_on_arbitrary_reference_graphs(
        courses in 2usize..12,
        edges in edge_strategy(11),
        seed_course in 0usize..12,
    ) {
        let xml = curriculum_from_edges(courses, &edges);
        let seed_course = seed_course % courses;
        let query = format!(
            "with $x seeded by doc('c.xml')/curriculum/course[@code='c{seed_course}'] \
             recurse $x/id(./prerequisites/pre_code)"
        );
        let run = |strategy: FixpointStrategy| {
            let mut store = NodeStore::new();
            let doc = store.parse_document_with_uri("c.xml", &xml).unwrap();
            store.register_id_attribute(doc, "code");
            let mut evaluator = Evaluator::new(&mut store);
            evaluator.set_fixpoint_strategy(strategy);
            let result = evaluator.eval_query_str(&query).unwrap();
            let mut codes: Vec<String> = result
                .nodes()
                .iter()
                .map(|&n| store.attribute_value(n, "code").unwrap().to_string())
                .collect();
            codes.sort();
            codes
        };
        prop_assert_eq!(run(FixpointStrategy::Naive), run(FixpointStrategy::Delta));
    }

    /// The relational µ / µ∆ operators agree with each other and with the
    /// source-level engine — node for node — on arbitrary reference graphs,
    /// for bodies with attribute steps and seed sets that may span two
    /// documents whose course codes coincide.
    #[test]
    fn algebraic_and_source_level_backends_agree(
        courses in 2usize..10,
        edges in edge_strategy(9),
        other_edges in edge_strategy(9),
        seed_picks in proptest::collection::vec(0usize..20, 1..4),
        body in prop_oneof![
            Just(xqy_datagen::curriculum::BODY),
            Just("$x/@code/.."),
            Just("$x/id(./prerequisites/pre_code)/@code/.."),
            Just("$x/id(./prerequisites/pre_code) union $x/@code/.."),
            Just("$x/id(./prerequisites/pre_code)/self::course[@code = 'c1']"),
        ],
    ) {
        let mut engine = Engine::new();
        engine
            .load_document_with_ids("c.xml", &curriculum_from_edges(courses, &edges), &["code"])
            .unwrap();
        engine
            .load_document_with_ids("d.xml", &curriculum_from_edges(courses, &other_edges), &["code"])
            .unwrap();
        // Picks below 10 seed in c.xml, the others in d.xml.
        let seeds: Vec<String> = seed_picks
            .iter()
            .map(|&i| {
                let uri = if i < 10 { "c.xml" } else { "d.xml" };
                format!("doc('{uri}')/curriculum/course[@code='c{}']", i % 10 % courses)
            })
            .collect();
        let query = format!("with $x seeded by ({}) recurse {body}", seeds.join(", "));
        engine.set_strategy(Strategy::Delta);
        let reference = engine.run(&query).unwrap().result.nodes();
        // The same query on the relational back-end, prepared once per
        // algorithm: µ (Naïve) and µ∆ (Delta) drive the compiled plan.
        engine.set_backend(Backend::Algebraic);
        engine.set_strategy(Strategy::Naive);
        let mu = engine.run(&query).unwrap().result.nodes();
        engine.set_strategy(Strategy::Delta);
        let mud = engine.run(&query).unwrap().result.nodes();
        prop_assert_eq!(&mu, &reference, "µ: {}", &query);
        prop_assert_eq!(&mud, &reference, "µ∆: {}", &query);
    }

    /// Set-algebra laws of the node-set operations under document order.
    #[test]
    fn node_set_operations_behave_like_sets(
        children in 1usize..30,
        picks_a in proptest::collection::vec(0usize..30, 0..40),
        picks_b in proptest::collection::vec(0usize..30, 0..40),
    ) {
        let mut xml = String::from("<r>");
        for i in 0..children {
            xml.push_str(&format!("<c n=\"{i}\"/>"));
        }
        xml.push_str("</r>");
        let mut store = NodeStore::new();
        let doc = store.parse_document(&xml).unwrap();
        let root = store.document_element(doc).unwrap();
        let all = store.children(root);
        let a: Vec<_> = picks_a.iter().map(|&i| all[i % all.len()]).collect();
        let b: Vec<_> = picks_b.iter().map(|&i| all[i % all.len()]).collect();

        // Union is commutative and idempotent; ddo is idempotent.
        let ab = node_union(&store, &a, &b);
        let ba = node_union(&store, &b, &a);
        prop_assert_eq!(&ab, &ba);
        let ddo_a = ddo(&store, &a);
        prop_assert_eq!(ddo(&store, &ddo_a), ddo_a.clone());
        prop_assert_eq!(node_union(&store, &a, &a), ddo_a);

        // a \ b is disjoint from b and together with (a ∩ b) covers ddo(a).
        let diff = node_except(&store, &a, &b);
        prop_assert!(diff.iter().all(|n| !b.contains(n)));
        prop_assert!(is_subset(&diff, &a));
        // (a \ b) ∪ b ⊇ a.
        let rejoined = node_union(&store, &diff, &b);
        prop_assert!(is_subset(&ddo(&store, &a), &rejoined));
    }

    /// Soundness of the syntactic judgement (Definition 3.1): whenever
    /// `ds_$x(e)` holds for a generated body — path steps, and one body per
    /// Figure-5 rule beyond them — evaluating `e` over a sequence equals the
    /// union of evaluating it over the singletons.
    #[test]
    fn syntactic_judgement_is_sound_for_step_bodies(
        courses in 2usize..8,
        edges in edge_strategy(7),
        case in prop_oneof![
            Just(("", "$x/id(./prerequisites/pre_code)")),
            Just(("", "$x/prerequisites/pre_code")),
            Just(("", "$x/*")),
            Just(("", "$x/self::course")),
            Just(("", "$x/prerequisites union $x/self::course")),
            // LET2
            Just(("", "let $p := $x/prerequisites return $p/pre_code")),
            // FOR1, FOR2
            Just(("", "for $k in (1, 2) return $x/prerequisites")),
            Just(("", "for $c in $x return $c/id(./prerequisites/pre_code)")),
            // EXCEPT
            Just(("", "$x/id(./prerequisites/pre_code) except doc('c.xml')//course[@code='c0']")),
            // FUNCALL, one argument
            Just((
                "declare function pre($c) { $c/id(./prerequisites/pre_code) };\n",
                "pre($x)",
            )),
            // FIXPOINT, a distributive nested body
            Just(("", "with $y seeded by $x recurse $y/id(./prerequisites/pre_code)")),
        ],
    ) {
        let (prolog, body) = case;
        let xml = curriculum_from_edges(courses, &edges);
        let judgement = judge(prolog, body);
        prop_assert!(judgement.safe, "{}: {}", body, judgement.rule);
        // X = all courses; e(X) vs union over singletons.
        let (whole, split) = whole_and_split(&xml, prolog, body, "doc('c.xml')/curriculum/course");
        prop_assert_eq!(whole, split);
    }
}

/// `ds_$x(body)` under `prolog`'s function declarations.
fn judge(prolog: &str, body: &str) -> xqy_ifp::DsJudgement {
    let module = xqy_ifp::parser::parse_query(&format!("{prolog}{body}")).unwrap();
    xqy_ifp::is_distributivity_safe(&module.body, "x", &module.functions)
}

/// `e(X)` and `⋃ₓ e({x})` for `e` = `body` and `X` = what `x` selects in
/// the document `xml` (loaded as `c.xml`, IDs on `@code`), each in
/// document order.
fn whole_and_split(xml: &str, prolog: &str, body: &str, x: &str) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut store = NodeStore::new();
    let doc = store.parse_document_with_uri("c.xml", xml).unwrap();
    store.register_id_attribute(doc, "code");
    let mut evaluator = Evaluator::new(&mut store);
    let mut eval = |query: String| evaluator.eval_query_str(&query).unwrap().nodes();
    let mut whole = eval(format!("{prolog}let $x := {x} return {body}"));
    let mut split = eval(format!(
        "{prolog}for $item in {x} return (let $x := $item return {body})"
    ));
    store.sort_distinct(&mut whole);
    store.sort_distinct(&mut split);
    (whole, split)
}

/// The negative table: bodies an earlier judgement certified although they
/// are not distributive (the FIXPOINT, FUNCALL-linearity and transitive
/// constructor holes of PR 25; call resolution by name alone, declarations
/// over built-ins, and unjudged arguments of recursive calls).  Each is refused now, and each really does give
/// `e(X) ≠ ⋃ₓ e({x})` on `X = (a, b)`.
#[test]
fn syntactic_judgement_refuses_non_distributive_bodies() {
    let xml = "<r><s><a/><b/><c/></s><z/></r>";
    let two_args = "declare function f($a, $b) { for $i in $a return \
                      (for $j in $b return if ($i is $j) then () else $i/parent::*) };\n";
    for (prolog, body, reason) in [
        (
            "",
            "$x/following-sibling::*[1] union (with $y seeded by $x recurse \
             if (count($y) >= 2) then doc('c.xml')//z else ())",
            "nested recursion body is not distributive",
        ),
        (
            two_args,
            "$x/following-sibling::*[1] union f($x, $x)",
            "more than one argument of f()",
        ),
        (
            "declare function f() { <c/> };\n",
            "$x/* union f()",
            "node constructor",
        ),
        // Calls resolve by name *and* arity: `f($x)` runs the one-parameter
        // `f`, and `g()` the constructing one.
        (
            "declare function f($a) { if (count($a) >= 2) then doc('c.xml')/r else () };\n\
             declare function f($a, $b) { $a/b };\n",
            "$x/following-sibling::*[1] union f($x)",
            "body of f() is not distributive in $a",
        ),
        (
            "declare function g() { <c/> };\ndeclare function g($n) { $n };\n",
            "$x/* union g()",
            "node constructor",
        ),
        // Built-ins win over declarations, as in the evaluator.
        (
            "declare function local:subsequence($a, $b, $c) { $a/self::* };\n",
            "$x/following-sibling::*[1] union subsequence($x, 2, 1)/parent::*",
            "built-in subsequence() inspects the sequence bound to $x",
        ),
        // A recursive call is assumed safe, its arguments are still judged.
        (
            "declare function f($a, $n) { if ($n > 0) then f($a[1], $n - 1) else $a };\n",
            "f($x, 1)",
            "filter expression over a sequence containing $a",
        ),
    ] {
        let judgement = judge(prolog, body);
        assert!(!judgement.safe, "{body}");
        assert!(
            judgement.rule.contains(reason),
            "{body}: {}",
            judgement.rule
        );
        let (whole, split) = whole_and_split(xml, prolog, body, "doc('c.xml')//(a | b)");
        assert_ne!(whole, split, "{body} distributes over (a, b) after all");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cross-backend equivalence on *random* recursion bodies drawn from
    /// the algebraic compiler's subset: for arbitrary reference graphs and
    /// arbitrary seeds, the pre-compiled µ/µ∆ plans on the relational
    /// executor return exactly the node set the source-level interpreter
    /// computes.  `Strategy::Auto` decides the algorithm per occurrence,
    /// so non-distributive bodies (difference, count-conditionals) run
    /// Naïve on both back-ends and distributive ones run Delta on both.
    #[test]
    fn random_bodies_agree_between_source_level_and_algebraic_backends(
        courses in 2usize..9,
        edges in edge_strategy(8),
        seed_course in 0usize..9,
        body in prop_oneof![
            Just("$x/id(./prerequisites/pre_code)"),
            Just("$x/prerequisites/pre_code"),
            Just("$x/*"),
            Just("$x/self::course"),
            Just("$x/prerequisites union $x/self::course"),
            Just("$x/id(./prerequisites/pre_code) union $x/self::course"),
            Just("$x/id(./prerequisites/pre_code) except $x/self::course"),
            Just("$x/id(./prerequisites/pre_code) intersect $x/id(./prerequisites/pre_code)"),
            Just("if (count($x/prerequisites/pre_code)) then $x/id(./prerequisites/pre_code) else ()"),
            Just("($x/self::course, $x/id(./prerequisites/pre_code))"),
        ],
    ) {
        let xml = curriculum_from_edges(courses, &edges);
        let seed_course = seed_course % courses;
        let query = format!(
            "with $x seeded by doc('c.xml')/curriculum/course[@code='c{seed_course}'] \
             recurse {body}"
        );
        let mut engine = Engine::new();
        engine.load_document_with_ids("c.xml", &xml, &["code"]).unwrap();
        engine.set_strategy(Strategy::Auto);

        let interpreted = engine.run(&query).unwrap();
        engine.set_backend(Backend::Algebraic);
        let algebraic = engine.run(&query).unwrap();

        // Same store, so node identities are directly comparable.
        let mut a = interpreted.result.nodes();
        let mut b = algebraic.result.nodes();
        a.sort();
        a.dedup();
        b.sort();
        b.dedup();
        prop_assert_eq!(a, b, "body: {}", body);
    }
}
