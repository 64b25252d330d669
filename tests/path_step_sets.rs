//! Differential tests for set-at-a-time path steps.
//!
//! The interpreter evaluates a path step that the distributivity judgement
//! read over the context item certifies once for the whole focus set
//! (`Evaluator::step_over_set`) and everything else once per focus node.
//! Here random steps meet random focus sets — unordered, with duplicates,
//! spanning two or three loaded documents and a constructed fragment — and
//! four readings of `E/step` must agree:
//!
//! * **set**: `$e/step` over a node-backed focus (the set-valued routine
//!   for the steps the judgement certifies);
//! * **loop**: `$ei/step` over the same focus built item by item, which
//!   forces the general per-focus loop at the top;
//! * **singletons**: `ddo(for $d in $e return $d/step)`;
//! * **expanded**: the step rewritten with an explicit `for` per `/`,
//!   two-argument `id(…, $d)` (the string-keyed probe) and the `|`
//!   operator, so nothing but single-node axis steps is left of the path
//!   machinery.
//!
//! Every step the algebra compiler accepts as the body `$x/step` also runs
//! on the relational executor, over the same focus, in two more readings:
//!
//! * **per-seed plan**: the compiled plan over the focus as one relation,
//!   whose node set must be the set reading's;
//! * **seed-carried plan**: the batched plan over `(tag, node)` rows, one
//!   tag per focus node (a repeated node repeats its tag, so a tag's rows
//!   need not be adjacent), whose nodes per tag must be that node's
//!   singleton reading.
//!
//! Both back-ends run the predicate-free chains of these steps through one
//! path-join kernel; the generator therefore also emits chains of two and
//! more `id()` hops (auction's `id(./sells/@ref)/bidder/id(./@person)`)
//! over element and attribute arguments with whitespace-separated,
//! dangling and repeated tokens.
//!
//! The negative half appends what must *not* be distributed — positional
//! and boolean predicates, `position()`, `last()`, a filtered or
//! two-argument `id`, and a node-returning right-hand side of `/` that
//! reads the intermediate focus, which `E/(p/s)` must not re-associate as
//! `(E/p)/s` — and checks the same agreement (the executor's readings
//! where the compiler accepts the step: the `[@a = 'lit']` predicate).
//! That none of these forms reaches the kernel is
//! `evaluator::tests::predicated_and_positional_steps_stay_off_the_kernel`.

use proptest::prelude::*;

use xqy_ifp::algebra::{compile_recursion_body, Executor, Key, Table, SEED_COLUMN};
use xqy_ifp::eval::Evaluator;
use xqy_ifp::parser::parse_expr;
use xqy_ifp::xdm::{ddo, Axis, Item, NodeId, NodeStore, NodeTest, Sequence};

/// Deterministic splitmix64 stream for the recursive shapes the proptest
/// shim has no combinator for; seeded per case by the shim.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, choices: &[&'a str]) -> &'a str {
        choices[self.below(choices.len())]
    }
}

// ---------------------------------------------------------------------
// Documents
// ---------------------------------------------------------------------

/// One ID vocabulary for every document, so the same value resolves to a
/// different element depending on the anchor document.
const IDS: &[&str] = &["n0", "n1", "n2", "n3", "n4", "n5"];
const GAPS: &[&str] = &[" ", "  ", "\t", " \n "];

/// A whitespace-separated IDREFS list: known ids, an unknown one,
/// duplicates, ragged whitespace, possibly empty.
fn idrefs(rng: &mut Rng) -> String {
    let mut out = String::from(rng.pick(&["", " ", ""]));
    for _ in 0..rng.below(5) {
        out.push_str(rng.pick(&["n0", "n1", "n2", "n3", "n4", "n5", "zz", "n1"]));
        out.push_str(rng.pick(GAPS));
    }
    out
}

fn gen_element(rng: &mut Rng, depth: usize, out: &mut String) {
    let name = rng.pick(&["a", "b", "c", "r"]);
    out.push('<');
    out.push_str(name);
    if rng.below(2) == 0 {
        out.push_str(&format!(" id=\"{}\"", rng.pick(IDS)));
    }
    if rng.below(4) == 0 {
        out.push_str(&format!(" code=\"{}\"", rng.pick(IDS)));
    }
    if rng.below(3) == 0 {
        out.push_str(&format!(" ref=\"{}\"", rng.pick(IDS)));
    }
    if rng.below(3) == 0 {
        out.push_str(&format!(" refs=\"{}\"", idrefs(rng)));
    }
    out.push('>');
    match rng.below(5) {
        // Element-valued id argument, one text child (a single symbol).
        0 => out.push_str(rng.pick(IDS)),
        // … with a list in it.
        1 => out.push_str(&idrefs(rng)),
        // Mixed content: the string value is a genuine concatenation.
        2 => {
            out.push_str(rng.pick(IDS));
            out.push_str(" <b/>");
            out.push_str(rng.pick(IDS));
        }
        _ => {
            if depth < 3 {
                for _ in 0..rng.below(4) {
                    gen_element(rng, depth + 1, out);
                }
            }
        }
    }
    out.push_str(&format!("</{name}>"));
}

fn gen_document(rng: &mut Rng) -> String {
    let mut out = String::from("<root>");
    for _ in 0..1 + rng.below(4) {
        gen_element(rng, 1, &mut out);
    }
    out.push_str("</root>");
    out
}

/// Every node below (and including) `root`: elements, text, attributes.
fn subtree(store: &NodeStore, root: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    for node in store.axis_nodes(root, Axis::DescendantOrSelf, &NodeTest::AnyNode) {
        out.push(node);
        out.extend(store.attributes(node));
    }
    out
}

/// A store of two or three documents — `code` is ID-typed in the first
/// only — plus one constructed fragment; returns the pool of focus nodes.
fn build_store(rng: &mut Rng, store: &mut NodeStore) -> Vec<NodeId> {
    let mut pool = Vec::new();
    for i in 0..2 + rng.below(2) {
        let doc = store
            .parse_document_with_uri(&format!("d{i}.xml"), &gen_document(rng))
            .unwrap();
        if i == 0 {
            store.register_id_attribute(doc, "code");
        }
        pool.extend(subtree(store, store.document_node(doc).unwrap()));
    }
    let fragment = Evaluator::new(&mut *store)
        .eval_query_str(
            "<w id=\"n1\" ref=\"n2\" refs=\" n3  n1 \">{ \
               <v id=\"n2\" refs=\"n1 zz n1\"><r>n1</r></v>, <r>n2 n1</r>, <a id=\"n3\"/> \
             }</w>",
        )
        .unwrap();
    pool.extend(subtree(store, fragment.nodes()[0]));
    pool
}

// ---------------------------------------------------------------------
// Steps
// ---------------------------------------------------------------------

enum Step {
    Dot,
    /// `axis::test`, or — only as the right-hand side of a `/` or at the
    /// top — an axis step with a predicate.
    Axis(String),
    Path(Box<Step>, Box<Step>),
    Id(Box<Step>),
    Union(Box<Step>, Box<Step>, &'static str),
}

const AXES: &[&str] = &[
    "child",
    "child",
    "descendant",
    "descendant-or-self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "self",
    "following-sibling",
    "preceding-sibling",
];
const TESTS: &[&str] = &["*", "node()", "a", "b", "r", "text()"];
const ATTRIBUTES: &[&str] = &["@ref", "@refs", "@id", "@code", "attribute::*"];
const PREDICATES: &[&str] = &[
    "[1]",
    "[last()]",
    "[position() = 2]",
    "[@id]",
    "[@ref = 'n1']",
    "[not(@refs)][1]",
];

impl Step {
    /// A random step of the distributive grammar.
    fn random(rng: &mut Rng, depth: usize) -> Step {
        let leaf = depth >= 3;
        match rng.below(if leaf { 4 } else { 9 }) {
            0 => Step::Dot,
            1 | 2 => Step::Axis(format!("{}::{}", rng.pick(AXES), rng.pick(TESTS))),
            3 => Step::Axis(rng.pick(ATTRIBUTES).to_string()),
            4 | 5 => Step::Path(
                Box::new(Step::random(rng, depth + 1)),
                Box::new(Step::random(rng, depth + 1)),
            ),
            6 | 7 => Step::Id(Box::new(Step::random(rng, depth + 1))),
            _ => Step::Union(
                Box::new(Step::random(rng, depth + 1)),
                Box::new(Step::random(rng, depth + 1)),
                rng.pick(&["|", "union"]),
            ),
        }
    }

    /// A chain of two or three `id()` hops with a step between each two,
    /// as in `id(./sells/@ref)/bidder/id(./@person)`: element and
    /// attribute arguments, relative to the node each hop reached.
    fn id_chain(rng: &mut Rng) -> Step {
        const ARGUMENTS: &[&str] = &["@ref", "@refs", "@code", "r", "*", "text()"];
        let arg = |rng: &mut Rng| {
            let arg = Step::Axis(rng.pick(ARGUMENTS).to_string());
            match rng.below(3) {
                0 => Step::Id(Box::new(Step::Path(Box::new(Step::Dot), Box::new(arg)))),
                1 => Step::Id(Box::new(arg)),
                _ => Step::Id(Box::new(Step::Path(
                    Box::new(Step::Axis(format!("child::{}", rng.pick(&["a", "b", "*"])))),
                    Box::new(arg),
                ))),
            }
        };
        let mut chain = arg(rng);
        for _ in 0..1 + rng.below(2) {
            let between = Step::Axis(format!(
                "{}::{}",
                rng.pick(&["child", "self", "descendant-or-self", "parent"]),
                rng.pick(&["*", "a", "b", "node()"])
            ));
            let hop = Step::Path(Box::new(between), Box::new(arg(rng)));
            chain = Step::Path(Box::new(chain), Box::new(hop));
        }
        chain
    }

    /// An axis step with a positional or boolean predicate — outside the
    /// grammar at the top, allowed under a distributed prefix.
    fn predicated(rng: &mut Rng) -> Step {
        Step::Axis(format!(
            "{}::{}{}",
            rng.pick(&[
                "child",
                "descendant",
                "descendant-or-self",
                "following-sibling"
            ]),
            rng.pick(&["*", "a", "r"]),
            rng.pick(PREDICATES)
        ))
    }

    /// The step as written after `E/`.
    fn text(&self) -> String {
        match self {
            Step::Dot => ".".into(),
            Step::Axis(step) => step.clone(),
            Step::Path(p, s) => format!("({}/{})", p.text(), s.text()),
            Step::Id(p) => format!("id({})", p.text()),
            Step::Union(p, q, op) => format!("({} {op} {})", p.text(), q.text()),
        }
    }

    /// The step applied to the single node `$var`, with every `/` an
    /// explicit `for` and every `id` anchored by its second argument.
    /// Always in distinct document order.
    fn expanded(&self, var: &str) -> String {
        match self {
            Step::Dot => format!("${var}"),
            Step::Axis(step) => format!("${var}/{step}"),
            Step::Path(p, s) => {
                let inner = format!("{var}m");
                format!(
                    "ddo(for ${inner} in {} return {})",
                    p.expanded(var),
                    s.expanded(&inner)
                )
            }
            Step::Id(p) => format!("id({}, ${var})", p.expanded(var)),
            Step::Union(p, q, _) => format!("({} | {})", p.expanded(var), q.expanded(var)),
        }
    }
}

/// A random multiset of focus nodes in random order; sometimes empty.
fn random_focus(rng: &mut Rng, pool: &[NodeId]) -> Vec<NodeId> {
    let mut focus: Vec<NodeId> = (0..rng.below(10))
        .map(|_| pool[rng.below(pool.len())])
        .collect();
    if !focus.is_empty() && rng.below(3) == 0 {
        focus.push(focus[0]);
    }
    focus
}

/// Evaluate `query` with `$e` node-backed and `$ei` item-built over `focus`.
fn eval(store: &mut NodeStore, focus: &[NodeId], query: &str) -> Sequence {
    let mut evaluator = Evaluator::new(store);
    evaluator.bind_global("e", Sequence::from_nodes(focus.iter().copied()));
    evaluator.bind_global(
        "ei",
        Sequence::from_items(focus.iter().map(|&n| Item::Node(n)).collect()),
    );
    evaluator
        .eval_query_str(query)
        .unwrap_or_else(|e| panic!("{query}: {e}"))
}

/// The four readings of `E/step` agree, and so do the executor's two when
/// the compiler accepts `$x/step`.
fn assert_readings_agree(store: &mut NodeStore, focus: &[NodeId], step: &str, expanded: &str) {
    let set = eval(store, focus, &format!("$e/{step}"));
    let readings = [
        ("loop", format!("$ei/{step}")),
        ("singletons", format!("ddo(for $d in $e return $d/{step})")),
        ("expanded", format!("ddo(for $d in $e return {expanded})")),
    ];
    for (name, query) in readings {
        let other = eval(store, focus, &query);
        assert_eq!(
            set.nodes(),
            other.nodes(),
            "set vs {name} reading of `{step}` over {focus:?}\n  {query}"
        );
        assert!(other.all_nodes(), "{query}");
    }
    assert_executor_agrees(store, focus, step, &set.nodes());
}

/// The executor's readings of `$x/step` over `focus`, when the compiler
/// accepts the body: the per-seed plan gives the set reading `set`, the
/// seed-carried plan with one tag per focus node gives each node's
/// singleton reading under its tag.
fn assert_executor_agrees(store: &mut NodeStore, focus: &[NodeId], step: &str, set: &[NodeId]) {
    let body = parse_expr(&format!("$x/{step}")).unwrap();
    let Ok(compiled) = compile_recursion_body(&body, "x") else {
        return;
    };
    let mut executor = Executor::new();
    let rows = executor
        .eval_plan(store, &compiled.plan, &Table::from_nodes(focus))
        .unwrap_or_else(|e| panic!("$x/{step}: {e}"));
    assert_eq!(
        ddo(store, &rows.item_nodes()),
        set,
        "per-seed plan vs set reading of `{step}` over {focus:?}"
    );

    let carried = compiled
        .batched_plan
        .unwrap_or_else(|| panic!("$x/{step} is seed-local"));
    let tags: Vec<Key> = focus.iter().map(|&n| Key::Node(n)).collect();
    let items = tags.clone();
    let rec = Table::from_columns(vec![SEED_COLUMN.into(), "item".into()], vec![tags, items]);
    let rows = executor
        .eval_plan(store, &carried, &rec)
        .unwrap_or_else(|e| panic!("$x/{step}, seed-carried: {e}"));
    let (tag, item) = (
        rows.column_index(SEED_COLUMN).unwrap(),
        rows.column_index("item").unwrap(),
    );
    for &node in focus {
        let got: Vec<NodeId> = (0..rows.len())
            .filter(|&r| rows.key(r, tag) == Key::Node(node))
            .filter_map(|r| rows.key(r, item).as_node())
            .collect();
        let single = eval(
            store,
            &[node],
            &format!("ddo(for $d in $e return $d/{step})"),
        );
        assert_eq!(
            ddo(store, &got),
            single.nodes(),
            "seed-carried plan vs singleton reading of `{step}` at {node:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `E/step ≡ ddo(for $d in E return $d/step)` for steps of the
    /// distributive grammar.
    #[test]
    fn distributive_steps_agree_with_the_per_focus_readings(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let mut store = NodeStore::new();
        let pool = build_store(&mut rng, &mut store);
        for _ in 0..6 {
            let focus = random_focus(&mut rng, &pool);
            for _ in 0..5 {
                let step = Step::random(&mut rng, 0);
                assert_readings_agree(&mut store, &focus, &step.text(), &step.expanded("d"));
            }
            let chain = Step::id_chain(&mut rng);
            assert_readings_agree(&mut store, &focus, &chain.text(), &chain.expanded("d"));
        }
    }

    /// What the grammar leaves out keeps the per-focus semantics: a
    /// predicate under a distributed prefix, at the top, on `id`; and
    /// `position()` / `last()` of the intermediate focus.
    #[test]
    fn positional_and_filtered_steps_keep_the_per_focus_semantics(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let mut store = NodeStore::new();
        let pool = build_store(&mut rng, &mut store);
        for _ in 0..6 {
            let focus = random_focus(&mut rng, &pool);
            let prefix = Step::random(&mut rng, 1);
            // `p/axis::test[pred]` — the prefix is distributed, the
            // predicated step is not — and the predicated step alone.
            let alone = Step::predicated(&mut rng);
            assert_readings_agree(&mut store, &focus, &alone.text(), &alone.expanded("d"));
            let under = Step::Path(
                Box::new(Step::random(&mut rng, 1)),
                Box::new(Step::predicated(&mut rng)),
            );
            assert_readings_agree(&mut store, &focus, &under.text(), &under.expanded("d"));

            // A filtered and a two-argument `id` over the prefix.
            let p = prefix.text();
            let px = prefix.expanded("d");
            assert_readings_agree(
                &mut store,
                &focus,
                &format!("id({p})[1]"),
                &format!("(id({px}, $d))[1]"),
            );
            assert_readings_agree(&mut store, &focus, &format!("id({p}, .)"), &format!("id({px}, $d)"));

            // `E/(p/position())` numbers each node's own `p`, not `E/p`.
            for (function, per_node) in [
                ("position()", format!("for $m at $i in {px} return $i")),
                ("last()", format!("for $m in {px} return count({px})")),
            ] {
                let set = eval(&mut store, &focus, &format!("$e/({p}/{function})"));
                let by_loop = eval(&mut store, &focus, &format!("$ei/({p}/{function})"));
                let expanded = eval(&mut store, &focus, &format!("for $d in $e return ({per_node})"));
                prop_assert_eq!(&set, &by_loop, "{}/{} over {:?}", p, function, focus);
                prop_assert_eq!(&set, &expanded, "{}/{} over {:?}", p, function, focus);
            }

            // … and a node-returning `s` in `p/s` that reads them.
            for (test, per_node) in [
                (
                    "position() = 1",
                    format!("for $m at $i in {px} return if ($i = 1) then $m/self::* else ()"),
                ),
                (
                    "position() = last()",
                    format!(
                        "let $s := {px} return \
                         for $m at $i in $s return if ($i = count($s)) then $m/self::* else ()"
                    ),
                ),
            ] {
                let step = format!("({p}/(if ({test}) then self::* else ()))");
                assert_readings_agree(&mut store, &focus, &step, &format!("ddo({per_node})"));
            }
        }
    }
}

/// Over two `<s>` focus nodes, `child::*/(if (position() = 1) …)` keeps one
/// child per `<s>`: re-associated as `($e/child::*)/(if …)` it would number
/// the four children together and keep one in all.
#[test]
fn a_right_hand_side_reading_the_intermediate_focus_is_not_reassociated() {
    let mut store = NodeStore::new();
    store
        .parse_document_with_uri("d.xml", "<r><s><a/><b/></s><s><a/><b/></s></r>")
        .unwrap();
    let mut evaluator = Evaluator::new(&mut store);
    let focus = evaluator.eval_query_str("doc('d.xml')/r/s").unwrap();
    evaluator.bind_global("e", focus);
    for (test, kept) in [("position() = 1", "a"), ("position() = last()", "b")] {
        let query = format!("$e/(child::*/(if ({test}) then self::* else ()))");
        let nodes = evaluator.eval_query_str(&query).unwrap().nodes();
        let store = evaluator.store_ref();
        let names: Vec<&str> = nodes
            .iter()
            .map(|&n| store.name(n).unwrap().local.as_str())
            .collect();
        assert_eq!(names, [kept, kept], "{query}");
    }
}

/// The shapes the random half reaches only by luck, spelled out: one focus
/// spanning both documents and the fragment, ids that exist in all three.
#[test]
fn id_steps_resolve_in_each_focus_nodes_own_document() {
    let mut store = NodeStore::new();
    for (uri, xml) in [
        ("a.xml", "<root><a id=\"n1\" refs=\" n2 zz  n1 n2\"/><b id=\"n2\"><r>n1</r></b><c><r>n2 <b/>n1</r></c></root>"),
        ("b.xml", "<root><b id=\"n1\"/><a id=\"n2\" ref=\"n1\"/></root>"),
    ] {
        store.parse_document_with_uri(uri, xml).unwrap();
    }
    let fragment = Evaluator::new(&mut store)
        .eval_query_str("<w id=\"n2\" refs=\"n1 n2\"><v id=\"n1\"/></w>")
        .unwrap()
        .nodes()[0];
    let mut evaluator = Evaluator::new(&mut store);
    let mut focus = evaluator
        .eval_query_str("(doc('b.xml')//a, doc('a.xml')//*, doc('a.xml')//a)")
        .unwrap()
        .nodes();
    focus.push(fragment);
    evaluator.bind_global("e", Sequence::from_nodes(focus.iter().copied()));
    let names = |evaluator: &mut Evaluator<'_>, query: &str| -> Vec<String> {
        let nodes = evaluator.eval_query_str(query).unwrap().nodes();
        nodes
            .iter()
            .map(|&n| {
                let store = evaluator.store_ref();
                format!("{}:{}", n.doc, store.name(n).unwrap().local)
            })
            .collect()
    };
    // a.xml: refs of <a> reach a and b; b.xml: ref of <a> reaches its b;
    // the fragment: refs of <w> reach w and v.  Document order throughout.
    assert_eq!(
        names(&mut evaluator, "$e/id(./@refs | ./@ref)"),
        ["0:a", "0:b", "1:b", "2:w", "2:v"]
    );
    // Element-valued arguments: one text child, and a concatenation.
    assert_eq!(names(&mut evaluator, "$e/id(./r)"), ["0:a", "0:b"]);
    // Two hops, the second through the first's result set.
    assert_eq!(
        names(
            &mut evaluator,
            "$e/id(./@ref)/id(./following-sibling::*/@id)"
        ),
        ["1:a"]
    );
    assert_eq!(names(&mut evaluator, "()/id(./@ref)"), Vec::<String>::new());
}
