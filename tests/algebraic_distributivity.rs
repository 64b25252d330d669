//! Integration tests for the algebraic (∪ push-up) distributivity check —
//! Section 4 / Figure 9 / Table 1 of the paper.

use xqy_ifp::algebra::{check_distributivity, compile_recursion_body, Operator, Plan};
use xqy_ifp::parser::parse_expr;
use xqy_ifp::xdm::{Axis, NodeTest};

fn body(src: &str) -> xqy_ifp::parser::Expr {
    parse_expr(src).unwrap()
}

#[test]
fn figure_9a_q1_body_is_distributive() {
    let compiled = compile_recursion_body(&body("$x/id(./prerequisites/pre_code)"), "x").unwrap();
    assert!(compiled.distributivity.distributive);
    // The plan contains the step joins and the id lookup of Figure 9(a).
    let rendered = compiled.plan.render();
    assert!(rendered.contains("child::prerequisites"));
    assert!(rendered.contains("child::pre_code"));
    assert!(rendered.contains("id()"));
}

#[test]
fn figure_9b_q2_body_is_blocked_at_count() {
    let compiled =
        compile_recursion_body(&body("if (count($x/self::a)) then $x/* else ()"), "x").unwrap();
    assert!(!compiled.distributivity.distributive);
    assert_eq!(compiled.distributivity.blocked_by.as_deref(), Some("count"));
}

#[test]
fn benchmark_bodies_are_all_recognised_as_distributive() {
    for (name, src) in [
        ("curriculum", xqy_datagen::curriculum::BODY),
        ("bidder network", xqy_datagen::auction::BODY),
        ("dialogs", xqy_datagen::play::BODY),
        ("hospital", xqy_datagen::hospital::BODY),
    ] {
        let compiled = compile_recursion_body(&body(src), "x")
            .unwrap_or_else(|e| panic!("{name} body should compile: {e}"));
        assert!(
            compiled.distributivity.distributive,
            "{name} body should be distributive"
        );
    }
}

#[test]
fn table_1_push_flags() {
    // ⊙ / ⊗ rows.
    for op in [
        Operator::Project(vec![("item".into(), "item".into())]),
        Operator::Select {
            column: "item".into(),
            value: "v".into(),
        },
        Operator::Join {
            left: "item".into(),
            right: "item".into(),
        },
        Operator::Cross,
        Operator::Union,
        Operator::RowTag,
        Operator::Step {
            axis: Axis::Child,
            test: NodeTest::AnyElement,
        },
        Operator::Mu,
        Operator::MuDelta,
    ] {
        assert!(op.union_pushable(), "{} should be pushable", op.name());
    }
    // "−" rows.
    for op in [
        Operator::Distinct,
        Operator::Difference,
        Operator::Count { group_by: None },
        Operator::RowNum,
        Operator::Construct("e".into()),
    ] {
        assert!(!op.union_pushable(), "{} should block", op.name());
    }
}

#[test]
fn hand_built_plan_mixing_branches() {
    // A plan where one branch of the recursion input flows through a
    // pushable chain and another through an aggregate: the whole plan is
    // rejected, and the blocking operator is reported.
    let mut plan = Plan::new();
    let rec = plan.add(Operator::RecInput, vec![]);
    let steps = plan.add(
        Operator::Step {
            axis: Axis::Descendant,
            test: NodeTest::AnyElement,
        },
        vec![rec],
    );
    let agg = plan.add(Operator::Count { group_by: None }, vec![rec]);
    let cross = plan.add(Operator::Cross, vec![steps, agg]);
    plan.set_root(cross);
    let outcome = check_distributivity(&plan);
    assert!(!outcome.distributive);
    assert_eq!(outcome.blocked_by.as_deref(), Some("count"));
    assert!(outcome.pushed_through.contains(&steps));
}

#[test]
fn syntactic_and_algebraic_checks_agree_on_the_paper_examples() {
    // `None`: the algebraic check abstains, as the compiler refuses the
    // body (a constructor mints fresh nodes per evaluation).
    let cases = [
        ("$x/id(./prerequisites/pre_code)", true, Some(true)),
        (
            "if (count($x/self::a)) then $x/* else ()",
            false,
            Some(false),
        ),
        ("$x/child::a union $x/descendant::b", true, Some(true)),
        ("($x/*, <grow/>)", false, None),
    ];
    for (src, expected, algebraic) in cases {
        let expr = body(src);
        let syntactic = xqy_ifp::is_distributivity_safe(&expr, "x", &[]);
        assert_eq!(syntactic.safe, expected, "syntactic on {src}");
        let compiled = compile_recursion_body(&expr, "x").ok();
        assert_eq!(
            compiled.map(|c| c.distributivity.distributive),
            algebraic,
            "algebraic on {src}"
        );
    }
}

#[test]
fn unsupported_bodies_report_unsupported_rather_than_guessing() {
    // The id()-unfolded variation of Q1 from Section 4 contains a general
    // FLWOR with a where-clause value join; it lies outside the restricted
    // compiler's subset, so the algebraic check abstains (and the paper's
    // point — that the algebraic check is more robust than the syntactic
    // one — is documented in EXPERIMENTS.md as a known gap of this
    // reproduction).
    let unfolded = "for $c in doc('curriculum.xml')/curriculum/course \
                    where $c/@code = $x/prerequisites/pre_code \
                    return $c";
    let err = compile_recursion_body(&body(unfolded), "x").unwrap_err();
    assert!(matches!(
        err,
        xqy_ifp::algebra::AlgebraError::Unsupported(_)
    ));
}
