//! Regular XPath: transitive closure of steps via the IFP form.
//!
//! Regular XPath [ten Cate, PODS 2006] extends XPath with a transitive
//! closure operator `e+`.  Section 2 of the paper shows that for step
//! expressions `e` obeying three simple restrictions, `e+` is expressible as
//!
//! ```xquery
//! with $x seeded by . recurse $x/e
//! ```
//!
//! and Section 3.1 shows that such bodies are always distributive, so Delta
//! applies.  This module packages that construction.

use xqy_parser::ast::Expr;
use xqy_parser::parse_expr;

use crate::{IfpError, Result};

/// Why a step expression is not admissible for the closure construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClosureRestriction {
    /// The step mentions the reserved closure variable freely
    /// (restriction (i) of Section 3.1).
    FreeClosureVariable,
    /// The step calls `fn:position()` or `fn:last()` (restriction (ii)).
    PositionalFunction,
    /// The step contains a node constructor (restriction (iii)).
    NodeConstructor,
}

impl std::fmt::Display for ClosureRestriction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClosureRestriction::FreeClosureVariable => {
                write!(f, "step mentions the closure variable $x freely")
            }
            ClosureRestriction::PositionalFunction => {
                write!(f, "step calls fn:position() or fn:last()")
            }
            ClosureRestriction::NodeConstructor => write!(f, "step constructs nodes"),
        }
    }
}

/// Check the admissibility restrictions (i)–(iii) of Section 3.1 for a step
/// expression `e` that is to be closed transitively.
pub fn check_step_restrictions(step: &Expr) -> std::result::Result<(), ClosureRestriction> {
    if step.has_free_var("x") {
        return Err(ClosureRestriction::FreeClosureVariable);
    }
    if step.contains_node_constructor() {
        return Err(ClosureRestriction::NodeConstructor);
    }
    let mut positional = false;
    step.walk(&mut |e| {
        if let Expr::FunctionCall { name, .. } = e {
            positional |= matches!(
                xqy_eval::distributivity::builtin(name),
                Some("position" | "last")
            );
        }
    });
    if positional {
        return Err(ClosureRestriction::PositionalFunction);
    }
    Ok(())
}

/// Build the IFP expression for the transitive closure `e+` of `step`,
/// seeded by `seed` (use the context item `.` for the Regular XPath reading).
///
/// The result is `with $x seeded by seed recurse $x/step`.
pub fn transitive_closure_expr(seed: Expr, step: Expr) -> Result<Expr> {
    check_step_restrictions(&step)
        .map_err(|r| IfpError::Parse(format!("step not admissible for closure: {r}")))?;
    Ok(Expr::Fixpoint {
        var: "x".to_string(),
        seed: Box::new(seed),
        body: Box::new(Expr::Path {
            input: Box::new(Expr::VarRef("x".to_string())),
            step: Box::new(step),
        }),
    })
}

/// Convenience: build `e+` from query text for the seed and step.
pub fn transitive_closure(seed: &str, step: &str) -> Result<Expr> {
    let seed_expr = parse_expr(seed)?;
    let step_expr = parse_expr(step)?;
    transitive_closure_expr(seed_expr, step_expr)
}

/// The reflexive-transitive closure `e*`: like [`transitive_closure`] but the
/// seed nodes themselves are part of the result.  This corresponds to the
/// `seed_in_result` evaluation option (see
/// [`EvalOptions`](xqy_eval::EvalOptions)); the returned expression encodes
/// it as `seed union e+`.
pub fn reflexive_transitive_closure(seed: &str, step: &str) -> Result<Expr> {
    let seed_expr = parse_expr(seed)?;
    let plus = transitive_closure(seed, step)?;
    Ok(Expr::Binary {
        op: xqy_parser::BinaryOp::Union,
        lhs: Box::new(seed_expr),
        rhs: Box::new(plus),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntactic::is_distributivity_safe;
    use xqy_eval::Evaluator;
    use xqy_xdm::NodeStore;

    #[test]
    fn closure_bodies_are_always_distributive() {
        for step in [
            "child::a",
            "descendant::b/@ref",
            "parent::node()",
            "following-sibling::s",
        ] {
            let expr = transitive_closure("doc('d.xml')//seed", step).unwrap();
            match expr {
                Expr::Fixpoint { body, .. } => {
                    let j = is_distributivity_safe(&body, "x", &[]);
                    assert!(j.safe, "closure of {step} should be distributive");
                }
                other => panic!("expected fixpoint, got {other:?}"),
            }
        }
    }

    #[test]
    fn restrictions_are_enforced() {
        assert!(matches!(
            check_step_restrictions(&parse_expr("child::a[position() = 1]").unwrap()),
            Err(ClosureRestriction::PositionalFunction)
        ));
        assert!(matches!(
            check_step_restrictions(&parse_expr("<a/>").unwrap()),
            Err(ClosureRestriction::NodeConstructor)
        ));
        assert!(matches!(
            check_step_restrictions(&parse_expr("$x/child::a").unwrap()),
            Err(ClosureRestriction::FreeClosureVariable)
        ));
        assert!(check_step_restrictions(&parse_expr("child::a").unwrap()).is_ok());
        assert!(transitive_closure(".", "child::a[last()]").is_err());
    }

    #[test]
    fn descendant_closure_equals_child_plus() {
        // child+ computed via the IFP equals the descendant axis.
        let doc = "<r><a><b><c/></b></a><d/></r>";
        let mut store = NodeStore::new();
        store.parse_document_with_uri("d.xml", doc).unwrap();

        let closure = transitive_closure("doc('d.xml')/r", "child::node()").unwrap();
        let module = xqy_parser::ast::QueryModule {
            functions: vec![],
            variables: vec![],
            body: closure,
        };
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.set_fixpoint_strategy(xqy_eval::FixpointStrategy::Delta);
        let via_closure = evaluator.eval_module(&module).unwrap();
        let via_axis = evaluator
            .eval_query_str("doc('d.xml')/r/descendant::node()")
            .unwrap();
        assert_eq!(via_closure.nodes(), via_axis.nodes());
    }

    #[test]
    fn reflexive_closure_includes_the_seed() {
        let doc = "<r><a><b/></a></r>";
        let mut store = NodeStore::new();
        store.parse_document_with_uri("d.xml", doc).unwrap();
        let expr = reflexive_transitive_closure("doc('d.xml')/r", "child::*").unwrap();
        let module = xqy_parser::ast::QueryModule {
            functions: vec![],
            variables: vec![],
            body: expr,
        };
        let mut evaluator = Evaluator::new(&mut store);
        let result = evaluator.eval_module(&module).unwrap();
        // r, a, b — the seed r is included.
        assert_eq!(result.len(), 3);
    }
}
