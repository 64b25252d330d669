//! Syntactic distributivity safety `ds_$x(·)` — Figure 5 of the paper.
//!
//! The judgement traverses the expression's parse tree bottom-up and checks
//! sufficient *syntactic* conditions for the distributivity property of
//! Definition 3.1.  Whenever the judgement succeeds, algorithm Delta may
//! safely replace Naïve for the inflationary fixed point whose body is the
//! judged expression (Theorem 3.2).  The approximation is sound but
//! incomplete — `count($x) >= 1` is distributive yet not derivable — which
//! is why the paper also offers the *distributivity hint* rewrite
//! ([`distributivity_hint`]) and the algebraic check of Section 4
//! ([`xqy_algebra::check_distributivity`]).
//!
//! Rule names follow Figure 5 (`CONST`, `VAR`, `IF`, `CONCAT`, `FOR1/2`,
//! `LET1/2`, `TYPESW`, `STEP1/2`, `FUNCALL`, `FIXPOINT`), plus the sound
//! extensions `INDEPENDENT` ($x not free), `EXCEPT` ($x only left of
//! `except`/`intersect`) and `BUILTIN` (item-wise built-ins).  Three side
//! conditions are spelt out here because the figure leaves them implicit:
//!
//! * **Constructors** are never safe (Section 3.2: fresh identities on
//!   every call).  [`is_distributivity_safe`] checks this once, on the
//!   expression and on every declared function body it reaches.
//! * **`FUNCALL`**: `$x` may be free in at most one argument of a call —
//!   the linearity FOR and LET enforce, since `f($x, $x)` pairs items of
//!   `$x` — that argument must be `ds_$x`, and a declared function's body
//!   must be `ds` for the matching parameter (a recursive call already
//!   under analysis is assumed safe).
//! * **`FIXPOINT`**: in `with $y seeded by e_s recurse e_b`, `$x` may be
//!   free in the seed only, `e_s` must be `ds_$x` and `e_b` must be
//!   `ds_$y`: a distributive body makes the nested fixpoint distribute over
//!   its seed.

use std::collections::{HashMap, HashSet};

use xqy_parser::ast::{Expr, FunctionDecl};
use xqy_parser::BinaryOp;

/// The outcome of the `ds_$x(e)` judgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsJudgement {
    /// `true` when distributivity safety could be derived.
    pub safe: bool,
    /// The rule that concluded the judgement at the root (e.g. `"STEP2"`),
    /// or the reason the derivation failed.
    pub rule: String,
}

impl DsJudgement {
    fn safe(rule: &str) -> Self {
        DsJudgement {
            safe: true,
            rule: rule.to_string(),
        }
    }

    fn unsafe_because(reason: impl Into<String>) -> Self {
        DsJudgement {
            safe: false,
            rule: reason.into(),
        }
    }
}

/// Check whether `expr` is distributivity-safe for variable `var`
/// (`ds_$var(expr)` of Figure 5).  `functions` supplies the bodies of
/// user-defined functions for the `FUNCALL` rule.
pub fn is_distributivity_safe(expr: &Expr, var: &str, functions: &[FunctionDecl]) -> DsJudgement {
    let map: HashMap<&str, &FunctionDecl> = functions
        .iter()
        .map(|f| (strip_prefix(&f.name), f))
        .collect();
    // Node constructors create fresh identities on every invocation and are
    // therefore never distributivity-safe, even when independent of $x
    // (Section 3.2's text { "c" } example) — wherever they sit: in the
    // expression or in a declared function it reaches.
    if constructs(expr, &map) {
        return DsJudgement::unsafe_because("node constructor in expression");
    }
    let mut in_progress = Vec::new();
    ds(expr, var, &map, &mut in_progress)
}

/// `true` when `expr`, or the body of a declared function it calls
/// (transitively, each body visited once), contains a node constructor.
fn constructs<'a>(expr: &'a Expr, functions: &HashMap<&str, &'a FunctionDecl>) -> bool {
    let mut pending = vec![expr];
    let mut visited: HashSet<&str> = HashSet::new();
    while let Some(expr) = pending.pop() {
        if expr.contains_node_constructor() {
            return true;
        }
        expr.walk(&mut |e| {
            if let Expr::FunctionCall { name, .. } = e {
                if let Some((&local, decl)) = functions.get_key_value(strip_prefix(name)) {
                    if visited.insert(local) {
                        pending.push(&decl.body);
                    }
                }
            }
        });
    }
    false
}

/// The paper's "distributivity hint" (Section 3.2): every distributive
/// expression `e($x)` is set-equal to `for $y in $x return e($y)`, and the
/// rewritten form *is* derivable by the rules (via `FOR2`).  Query authors
/// (or tools) can apply this rewrite to guide the processor towards Delta.
pub fn distributivity_hint(expr: &Expr, var: &str, fresh_var: &str) -> Expr {
    Expr::For {
        var: fresh_var.to_string(),
        pos_var: None,
        seq: Box::new(Expr::VarRef(var.to_string())),
        body: Box::new(expr.rename_free_var(var, fresh_var)),
    }
}

fn strip_prefix(name: &str) -> &str {
    match name.split_once(':') {
        Some((_, local)) => local,
        None => name,
    }
}

fn ds(
    expr: &Expr,
    var: &str,
    functions: &HashMap<&str, &FunctionDecl>,
    in_progress: &mut Vec<String>,
) -> DsJudgement {
    // Blanket independence rule (sound): an expression in which $x does not
    // occur free evaluates to the same items for every binding of $x, so the
    // `for $y in $x return e` expansion is set-equal to `e`.
    if !expr.has_free_var(var) {
        return DsJudgement::safe("INDEPENDENT");
    }
    match expr {
        Expr::Literal(_) | Expr::EmptySequence | Expr::ContextItem => DsJudgement::safe("CONST"),
        Expr::VarRef(_) => DsJudgement::safe("VAR"),
        Expr::Sequence(items) => {
            for item in items {
                let j = ds(item, var, functions, in_progress);
                if !j.safe {
                    return j;
                }
            }
            DsJudgement::safe("CONCAT")
        }
        Expr::Binary { op, lhs, rhs } => match op {
            // CONCAT also covers `|` (union).
            BinaryOp::Union => {
                let l = ds(lhs, var, functions, in_progress);
                if !l.safe {
                    return l;
                }
                let r = ds(rhs, var, functions, in_progress);
                if !r.safe {
                    return r;
                }
                DsJudgement::safe("CONCAT")
            }
            // Sound extension: `e1 except e2` / `e1 intersect e2` with the
            // recursion variable only in e1 (the stratified-Datalog
            // `f(x) = x \ R` case mentioned in Section 6).
            BinaryOp::Except | BinaryOp::Intersect => {
                if rhs.has_free_var(var) {
                    return DsJudgement::unsafe_because(format!(
                        "${var} occurs in the right operand of '{}'",
                        op.symbol()
                    ));
                }
                let l = ds(lhs, var, functions, in_progress);
                if !l.safe {
                    return l;
                }
                DsJudgement::safe("EXCEPT")
            }
            other => DsJudgement::unsafe_because(format!(
                "operator '{}' inspects the sequence bound to ${var} as a whole",
                other.symbol()
            )),
        },
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            if cond.has_free_var(var) {
                return DsJudgement::unsafe_because(format!(
                    "${var} occurs free in an if(·) condition"
                ));
            }
            let t = ds(then_branch, var, functions, in_progress);
            if !t.safe {
                return t;
            }
            let e = ds(else_branch, var, functions, in_progress);
            if !e.safe {
                return e;
            }
            DsJudgement::safe("IF")
        }
        Expr::For {
            var: v,
            pos_var,
            seq,
            body,
        } => {
            if pos_var.is_some() && seq.has_free_var(var) {
                // A positional variable over a $x-dependent range inspects
                // positions within $x; stay conservative.
                return DsJudgement::unsafe_because(format!(
                    "positional for-variable over a range containing ${var}"
                ));
            }
            let range_has = seq.has_free_var(var);
            let body_has = v != var && body.has_free_var(var);
            match (range_has, body_has) {
                // FOR1: $x only in the body.
                (false, _) => {
                    let b = ds(body, var, functions, in_progress);
                    if b.safe {
                        DsJudgement::safe("FOR1")
                    } else {
                        b
                    }
                }
                // FOR2: $x only in the range.
                (true, false) => {
                    let r = ds(seq, var, functions, in_progress);
                    if r.safe {
                        DsJudgement::safe("FOR2")
                    } else {
                        r
                    }
                }
                // The linearity constraint of SQL:1999: not in both.
                (true, true) => DsJudgement::unsafe_because(format!(
                    "${var} occurs in both the range and the body of a for-expression"
                )),
            }
        }
        Expr::Let {
            var: v,
            value,
            body,
        } => {
            let value_has = value.has_free_var(var);
            let body_has = v != var && body.has_free_var(var);
            match (value_has, body_has) {
                // LET1: $x only in the body.
                (false, _) => {
                    let b = ds(body, var, functions, in_progress);
                    if b.safe {
                        DsJudgement::safe("LET1")
                    } else {
                        b
                    }
                }
                // LET2: $x only in the bound value; the body must then be
                // distributive in the let-variable.
                (true, false) => {
                    let v_judgement = ds(value, var, functions, in_progress);
                    if !v_judgement.safe {
                        return v_judgement;
                    }
                    let body_in_v = ds(body, v, functions, in_progress);
                    if body_in_v.safe {
                        DsJudgement::safe("LET2")
                    } else {
                        DsJudgement::unsafe_because(format!(
                            "let-body is not distributive in ${v}: {}",
                            body_in_v.rule
                        ))
                    }
                }
                (true, true) => DsJudgement::unsafe_because(format!(
                    "${var} occurs in both the value and the body of a let-expression"
                )),
            }
        }
        Expr::Typeswitch { operand, cases } => {
            if operand.has_free_var(var) {
                return DsJudgement::unsafe_because(format!(
                    "${var} occurs free in a typeswitch operand"
                ));
            }
            for case in cases {
                let j = ds(&case.body, var, functions, in_progress);
                if !j.safe {
                    return j;
                }
            }
            DsJudgement::safe("TYPESW")
        }
        Expr::Path { input, step } => {
            let input_has = input.has_free_var(var);
            let step_has = step.has_free_var(var);
            match (input_has, step_has) {
                (false, _) => {
                    let s = ds(step, var, functions, in_progress);
                    if s.safe {
                        DsJudgement::safe("STEP1")
                    } else {
                        s
                    }
                }
                (true, false) => {
                    let i = ds(input, var, functions, in_progress);
                    if i.safe {
                        DsJudgement::safe("STEP2")
                    } else {
                        i
                    }
                }
                (true, true) => DsJudgement::unsafe_because(format!(
                    "${var} occurs on both sides of a path step"
                )),
            }
        }
        Expr::AxisStep { predicates, .. } => {
            // The context item of an axis step ranges over single items, so
            // predicates are harmless unless they mention $x.
            if predicates.iter().any(|p| p.has_free_var(var)) {
                DsJudgement::unsafe_because(format!("${var} occurs free in a step predicate"))
            } else {
                DsJudgement::safe("STEP")
            }
        }
        Expr::Filter { input, predicates } => {
            // e[p] with $x in e inspects positions within the sequence bound
            // to $x (e.g. $x[1]); stay conservative whenever $x is involved.
            if input.has_free_var(var) || predicates.iter().any(|p| p.has_free_var(var)) {
                DsJudgement::unsafe_because(format!(
                    "filter expression over a sequence containing ${var} (e.g. $x[1]) is not distributive"
                ))
            } else {
                DsJudgement::safe("INDEPENDENT")
            }
        }
        Expr::Quantified {
            seq, cond, var: v, ..
        } => {
            // some/every quantify over their range; as long as $x is not
            // inspected as a whole by the condition, treat like FOR.
            if cond.has_free_var(var) && v != var {
                return DsJudgement::unsafe_because(format!(
                    "${var} occurs free in a quantifier condition"
                ));
            }
            let r = ds(seq, var, functions, in_progress);
            if r.safe {
                DsJudgement::safe("FOR2")
            } else {
                r
            }
        }
        Expr::FunctionCall { name, args } => {
            let local = strip_prefix(name);
            // Linearity, as FOR and LET enforce it: a call may see $x
            // through one argument only (`f($x, $x)` pairs items of $x).
            if args.iter().filter(|arg| arg.has_free_var(var)).count() > 1 {
                return DsJudgement::unsafe_because(format!(
                    "${var} occurs in more than one argument of {local}()"
                ));
            }
            match functions.get(local) {
                Some(decl) => {
                    // FUNCALL: for every argument in which $x occurs free,
                    // the argument must be ds for $x and the function body
                    // must be ds for the corresponding parameter.
                    if in_progress.iter().any(|n| n == local) {
                        // Recursive call already under analysis: assume safe
                        // (greatest fixed point of the rule system).
                        return DsJudgement::safe("FUNCALL");
                    }
                    in_progress.push(local.to_string());
                    let mut result = DsJudgement::safe("FUNCALL");
                    for (arg, param) in args.iter().zip(decl.params.iter()) {
                        if !arg.has_free_var(var) {
                            continue;
                        }
                        let a = ds(arg, var, functions, in_progress);
                        if !a.safe {
                            result = a;
                            break;
                        }
                        let body = ds(&decl.body, param, functions, in_progress);
                        if !body.safe {
                            result = DsJudgement::unsafe_because(format!(
                                "body of {local}() is not distributive in ${param}: {}",
                                body.rule
                            ));
                            break;
                        }
                    }
                    in_progress.pop();
                    result
                }
                None => {
                    // Built-in functions: only those that apply their
                    // argument item-wise are safe; aggregates and positional
                    // functions inspect the whole sequence.
                    let itemwise = matches!(
                        local,
                        "data"
                            | "string"
                            | "id"
                            | "name"
                            | "local-name"
                            | "root"
                            | "number"
                            | "ddo"
                            | "distinct-doc-order"
                    );
                    if itemwise {
                        for arg in args {
                            let j = ds(arg, var, functions, in_progress);
                            if !j.safe {
                                return j;
                            }
                        }
                        DsJudgement::safe("BUILTIN")
                    } else {
                        DsJudgement::unsafe_because(format!(
                            "built-in {local}() inspects the sequence bound to ${var} as a whole"
                        ))
                    }
                }
            }
        }
        Expr::Unary { .. } => DsJudgement::unsafe_because(format!(
            "arithmetic over ${var} requires a singleton sequence"
        )),
        Expr::RootPath { .. } => DsJudgement::safe("CONST"),
        Expr::Fixpoint {
            seed,
            body,
            var: inner,
        } => {
            // A nested IFP: safe if $x only flows into the seed and the
            // nested body is distributive in its own variable — then the
            // nested fixpoint distributes over its seed.
            if body.has_free_var(var) && inner != var {
                return DsJudgement::unsafe_because(format!(
                    "${var} occurs free in a nested recursion body"
                ));
            }
            let s = ds(seed, var, functions, in_progress);
            if !s.safe {
                return s;
            }
            let b = ds(body, inner, functions, in_progress);
            if b.safe {
                DsJudgement::safe("FIXPOINT")
            } else {
                DsJudgement::unsafe_because(format!(
                    "nested recursion body is not distributive in ${inner}: {}",
                    b.rule
                ))
            }
        }
        Expr::DirectElement { .. }
        | Expr::ComputedElement { .. }
        | Expr::ComputedAttribute { .. }
        | Expr::ComputedText { .. } => {
            DsJudgement::unsafe_because("node constructor in expression")
        }
    }
}

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
