//! Syntactic distributivity safety `ds_$x(·)` — Figure 5 of the paper.
//!
//! The rules live in [`xqy_eval::distributivity`], below both of their
//! readers and beside the built-in library they must agree with: the
//! prepared-query layer reads them over a recursion variable `$x` (Delta
//! instead of Naïve, a batch that feeds each frontier node once), the
//! interpreter over the context item `.` (a path step once per focus set).
//! This module re-exports the `$x` reading, which the algebraic check of
//! Section 4 ([`xqy_algebra::check_distributivity`]) complements.

pub use xqy_eval::distributivity::{distributivity_hint, is_distributivity_safe, DsJudgement};

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_parser::{parse_expr, parse_query};

    fn check(src: &str) -> DsJudgement {
        is_distributivity_safe(&parse_expr(src).unwrap(), "x", &[])
    }

    /// The judgement of the body of `query` — a module whose body is one
    /// `with $x …` fixpoint — under the module's declared functions.
    fn check_fixpoint_body(query: &str) -> DsJudgement {
        let module = parse_query(query).unwrap();
        match &module.body {
            xqy_parser::Expr::Fixpoint { body, .. } => {
                is_distributivity_safe(body, "x", &module.functions)
            }
            other => panic!("expected fixpoint, got {other:?}"),
        }
    }

    #[test]
    fn q1_body_is_safe_via_step2() {
        let j = check("$x/id(./prerequisites/pre_code)");
        assert!(j.safe);
        assert_eq!(j.rule, "STEP2");
    }

    #[test]
    fn q2_body_is_rejected_at_the_if_condition() {
        let j = check("if (count($x/self::a)) then $x/* else ()");
        assert!(!j.safe);
        assert!(j.rule.contains("condition"));
    }

    #[test]
    fn whole_sequence_inspection_is_rejected() {
        assert!(!check("count($x)").safe);
        assert!(!check("$x[1]").safe);
        assert!(!check("$x = 10").safe);
        assert!(!check("$x + 1").safe);
        assert!(!check("-$x").safe);
    }

    #[test]
    fn location_steps_are_safe() {
        assert!(check("$x/child::course").safe);
        assert!(check("$x/descendant::person/@id").safe);
        assert!(check("$x/*").safe);
        assert!(check("$x/ancestor::scene/following-sibling::scene").safe);
    }

    #[test]
    fn constructors_are_never_safe() {
        assert!(!check("text { 'c' }").safe);
        assert!(!check("<wrap>{ $x }</wrap>").safe);
        assert!(!check("($x/*, <grow/>)").safe);
        // ... even when entirely independent of $x (Section 3.2).
        assert!(!check("element out { 1 }").safe);
    }

    #[test]
    fn independent_expressions_are_safe() {
        assert!(check("count($y) >= 1").safe);
        assert!(check("doc('d.xml')//person").safe);
        assert!(check("1 + 2").safe);
    }

    #[test]
    fn for_rules_respect_linearity() {
        // FOR1: $x only in the body.
        assert!(check("for $y in (1, 2) return $x/a").safe);
        // FOR2: $x only in the range.
        assert!(check("for $y in $x return $y/a").safe);
        // Both: rejected (the SQL:1999 linearity restriction).
        assert!(!check("for $y in $x return ($x, $y)").safe);
    }

    #[test]
    fn let_rules_match_figure_5() {
        // LET1.
        assert!(check("let $y := doc('d.xml') return $x/a").safe);
        // LET2: $x in the bound value, body distributive in $y.
        assert!(check("let $y := $x/a return $y/b").safe);
        // LET2 violated: body uses count($y).
        assert!(!check("let $y := $x/a return count($y)").safe);
        // $x in both value and body.
        assert!(!check("let $y := $x/a return ($x, $y)").safe);
    }

    #[test]
    fn except_extension_is_safe_only_with_fixed_right_operand() {
        assert!(check("$x/a except doc('d.xml')//b").safe);
        assert!(!check("doc('d.xml')//b except $x").safe);
        assert!(!check("$x/* except $x").safe);
    }

    #[test]
    fn typeswitch_rule() {
        assert!(
            check("typeswitch (doc('d.xml')) case element(a) return $x/a default return $x/b").safe
        );
        assert!(!check("typeswitch ($x) case element(a) return 1 default return 2").safe);
    }

    #[test]
    fn funcall_rule_analyses_declared_bodies() {
        let j = check_fixpoint_body(
            "declare function bidder($in as node()*) as node()* {\n\
               for $id in $in/@id\n\
               let $b := doc('auction.xml')//open_auction[seller/@person = $id]/bidder/personref\n\
               return doc('auction.xml')//people/person[@id = $b/@person]\n\
             };\n\
             with $x seeded by doc('auction.xml')//person[@id='p0'] recurse bidder($x)",
        );
        assert!(
            j.safe,
            "bidder() body should be distributivity-safe: {}",
            j.rule
        );
    }

    #[test]
    fn funcall_rule_rejects_aggregating_bodies() {
        let j = check_fixpoint_body(
            "declare function f($in) { count($in) };\n\
             with $x seeded by doc('d.xml')//a recurse f($x)",
        );
        assert!(!j.safe);
    }

    #[test]
    fn recursive_functions_do_not_loop_the_checker() {
        // Must terminate; the exact verdict is less important than not
        // diverging, but this particular body is derivable.
        let j = check_fixpoint_body(
            "declare function walk($n) { $n/child::a union walk($n/child::b) };\n\
             with $x seeded by doc('d.xml')//r recurse walk($x)",
        );
        assert!(j.safe);
    }

    /// Counterexample (a): the nested body inspects `$y` as a whole, so the
    /// nested fixpoint does not distribute over its seed `$x`.
    #[test]
    fn fixpoint_rule_requires_a_distributive_nested_body() {
        let j = check(
            "$x/following-sibling::*[1] union (with $y seeded by $x recurse \
             if (count($y) >= 2) then doc('d.xml')//z else ())",
        );
        assert!(!j.safe);
        assert!(
            j.rule
                .contains("nested recursion body is not distributive in $y"),
            "{}",
            j.rule
        );
        let j = check("with $y seeded by $x/a recurse $y/b");
        assert_eq!((j.safe, j.rule.as_str()), (true, "FIXPOINT"));
    }

    /// Counterexample (b): `f($x, $x)` pairs items of `$x` inside `f`.
    #[test]
    fn funcall_rule_keeps_linearity_across_arguments() {
        let j = check_fixpoint_body(
            "declare function f($a, $b) { for $i in $a return \
               (for $j in $b return if ($i is $j) then () else $i/parent::*) };\n\
             with $x seeded by doc('d.xml')//a recurse $x/following-sibling::*[1] union f($x, $x)",
        );
        assert!(!j.safe);
        assert!(
            j.rule.contains("more than one argument of f()"),
            "{}",
            j.rule
        );
    }

    /// Counterexample (c): the constructor hides in a declared function —
    /// here two calls deep, behind a recursive one.
    #[test]
    fn constructors_reached_through_declared_functions_are_never_safe() {
        for query in [
            "declare function f() { <c/> };\n\
             with $x seeded by doc('d.xml')//a recurse $x/* union f()",
            "declare function g($n) { if (doc('d.xml')/r) then $n/* else (g($n), h()) };\n\
             declare function h() { text { 'c' } };\n\
             with $x seeded by doc('d.xml')//a recurse g($x)",
        ] {
            let j = check_fixpoint_body(query);
            assert!(!j.safe, "{query}");
            assert_eq!(j.rule, "node constructor in expression");
        }
    }

    #[test]
    fn distributivity_hint_makes_underivable_expressions_derivable() {
        // count($x) >= 1 is distributive but not derivable…
        let original = parse_expr("count($x) >= 1").unwrap();
        assert!(!is_distributivity_safe(&original, "x", &[]).safe);
        // …its hint form is (via FOR2).
        let hinted = distributivity_hint(&original, "x", "y");
        let j = is_distributivity_safe(&hinted, "x", &[]);
        assert!(j.safe);
        assert_eq!(j.rule, "FOR2");
    }

    #[test]
    fn hint_preserves_free_variables() {
        let original = parse_expr("$x/id(./pre)").unwrap();
        let hinted = distributivity_hint(&original, "x", "y");
        assert!(hinted.has_free_var("x"));
        assert!(!hinted.free_vars().contains("y"));
    }
}
