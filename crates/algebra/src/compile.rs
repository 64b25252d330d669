//! A restricted XQuery-to-algebra compiler for recursion bodies.
//!
//! The Pathfinder compiler of the paper translates arbitrary XQuery into
//! loop-lifted relational plans.  This reproduction compiles the expression
//! subset that the paper's examples and the benchmark recursion bodies use:
//!
//! * paths over the recursion variable and over `doc('literal')` (never
//!   `doc()` in step position), with steps on every axis — attribute steps
//!   select attribute *nodes*, as on the interpreter;
//! * `id(p)` over a relative node path `p`, resolved in each argument
//!   node's own document;
//! * `@name = 'literal'` predicates, which compare the attribute nodes'
//!   string values with the literal;
//! * `()`, the node-set operators, `,` and `if`/`then`/`else`, whose
//!   condition is a node sequence or `count`/`exists` of one;
//! * a union in step position, `E/(p | q)`, compiled as `E/p | E/q`.
//!
//! A plan carries nodes, and a condition's count only.  Every form that
//! yields atomic values — literals, `data()`, `string()`, `count()` outside
//! a condition, comparisons and arithmetic — is refused with one message,
//! and so is everything else outside the subset (constructors, FLWOR,
//! filters): the compiler reports [`AlgebraError::Unsupported`], so that
//! the engine falls back to the source-level evaluator instead of
//! executing a plan whose answer differs from the interpreter's.

use xqy_parser::ast::{local_name, Expr, Literal};
use xqy_parser::BinaryOp;
use xqy_xdm::{Axis, NodeTest};

use crate::error::AlgebraError;
use crate::plan::{Operator, Plan, PlanNodeId};
use crate::Result;

/// The result of compiling a recursion body: the plan plus the conclusions
/// of the algebraic distributivity check run on it.
#[derive(Debug, Clone)]
pub struct CompiledBody {
    /// The algebraic plan; its `RecInput` leaves stand for the recursion
    /// variable.
    pub plan: Plan,
    /// Outcome of the `∪` push-up analysis.
    pub distributivity: crate::pushup::PushupOutcome,
    /// The [seed-carried form](Plan::seed_carried) of `plan`, when the body
    /// is seed-local: the input of a batched multi-source fixpoint
    /// ([`crate::Executor::run_fixpoint_batched`]).  `None` means the body
    /// must run one fixpoint per seed.
    pub batched_plan: Option<Plan>,
}

std::thread_local! {
    static COMPILE_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times this thread has invoked [`compile_recursion_body`],
/// successfully or not.
///
/// This is the *compile-count hook* of the prepared-query API: a prepared
/// query promises to compile its recursion bodies exactly once, and callers
/// can audit that promise by snapshotting the counter around repeated
/// executions.  The counter is thread-local so concurrently running tests do
/// not observe each other's compilations.
pub fn compile_count() -> u64 {
    COMPILE_COUNT.with(|c| c.get())
}

/// Compile the recursion body `body` of an IFP whose recursion variable is
/// `var` into an algebraic plan, and run the distributivity check on it.
pub fn compile_recursion_body(body: &Expr, var: &str) -> Result<CompiledBody> {
    COMPILE_COUNT.with(|c| c.set(c.get() + 1));
    let mut compiler = Compiler {
        plan: Plan::new(),
        var: var.to_string(),
    };
    let root = compiler.compile(body)?;
    compiler.plan.set_root(root);
    let distributivity = crate::pushup::check_distributivity(&compiler.plan);
    let batched_plan = compiler.plan.seed_carried();
    Ok(CompiledBody {
        plan: compiler.plan,
        distributivity,
        batched_plan,
    })
}

struct Compiler {
    plan: Plan,
    var: String,
}

impl Compiler {
    fn unsupported(&self, what: &str) -> AlgebraError {
        AlgebraError::Unsupported(what.to_string())
    }

    /// The one refusal of every atomic-yielding form.
    fn atomic(&self, what: &str) -> AlgebraError {
        self.unsupported(&format!(
            "{what} yields atomic values (a plan carries nodes, and a condition's count only)"
        ))
    }

    fn compile(&mut self, expr: &Expr) -> Result<PlanNodeId> {
        match expr {
            Expr::VarRef(v) if *v == self.var => Ok(self.plan.add(Operator::RecInput, vec![])),
            Expr::VarRef(v) => Err(self.unsupported(&format!(
                "free variable ${v} (only the recursion variable ${} is supported)",
                self.var
            ))),
            Expr::EmptySequence => Ok(self.plan.add(Operator::Empty, vec![])),
            Expr::Literal(_) => Err(self.atomic("a literal")),
            Expr::Unary { .. } => Err(self.atomic("a unary operator")),
            Expr::Path { input, step } => {
                let input_id = self.compile(input)?;
                self.compile_step(input_id, step)
            }
            Expr::AxisStep { .. } => Err(self.unsupported(
                "an axis step without an explicit input (context-item steps only occur inside paths)",
            )),
            Expr::FunctionCall { name, args } => self.compile_call_with_input(None, name, args),
            Expr::Binary { op, lhs, rhs } => {
                let operator = match op {
                    BinaryOp::Union => Operator::Union,
                    BinaryOp::Except | BinaryOp::Intersect => Operator::Difference,
                    other => return Err(self.atomic(&format!("operator '{}'", other.symbol()))),
                };
                let l = self.compile(lhs)?;
                let r = self.compile(rhs)?;
                let id = self.plan.add(operator, vec![l, r]);
                if matches!(op, BinaryOp::Intersect) {
                    // a ∩ b  ≡  a \ (a \ b)
                    return Ok(self.plan.add(Operator::Difference, vec![l, id]));
                }
                Ok(id)
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond_id = self.compile_condition(cond)?;
                let then_id = self.compile(then_branch)?;
                let else_id = self.compile(else_branch)?;
                Ok(self
                    .plan
                    .add(Operator::IfThenElse, vec![cond_id, then_id, else_id]))
            }
            Expr::Sequence(items) => {
                // Sequence construction over node sets behaves like union for
                // the (set-based) purposes of the algebra backend.
                let mut compiled = Vec::new();
                for item in items {
                    compiled.push(self.compile(item)?);
                }
                let mut iter = compiled.into_iter();
                let first = iter
                    .next()
                    .ok_or_else(|| self.unsupported("empty sequence constructor"))?;
                Ok(iter.fold(first, |acc, next| {
                    self.plan.add(Operator::Union, vec![acc, next])
                }))
            }
            Expr::RootPath { .. } | Expr::ContextItem => Err(self.unsupported(
                "the context item outside of a step position (recursion bodies are functions of the recursion variable)",
            )),
            // A constructor mints fresh nodes on every evaluation
            // (Definition 2.1), which no plan operator reproduces.
            Expr::DirectElement { .. }
            | Expr::ComputedElement { .. }
            | Expr::ComputedText { .. }
            | Expr::ComputedAttribute { .. } => Err(self.unsupported(&format!(
                "{} (constructed nodes are fresh per evaluation)",
                variant_name(expr)
            ))),
            other => Err(self.unsupported(&format!(
                "expression form {:?} (general FLWOR/filters are outside the compiler subset)",
                variant_name(other)
            ))),
        }
    }

    /// Compile a condition expression; the result is wrapped so its
    /// effective-boolean-value aggregation is explicit in the plan (an EBV
    /// inspects its operand as a whole, which is what blocks distributivity
    /// when the operand depends on the recursion variable).  The operand
    /// is a node sequence, whose EBV is "non-empty"; `count(e)` and
    /// `exists(e)` already aggregate, so `e` is counted.
    fn compile_condition(&mut self, cond: &Expr) -> Result<PlanNodeId> {
        let operand = match cond {
            Expr::FunctionCall { name, args }
                if matches!(local_name(name), "count" | "exists") && args.len() == 1 =>
            {
                &args[0]
            }
            other => other,
        };
        let inner = self.compile(operand)?;
        Ok(self.plan.add(Operator::Count, vec![inner]))
    }

    /// Compile a path step applied to the node rows of `input`.
    fn compile_step(&mut self, input: PlanNodeId, step: &Expr) -> Result<PlanNodeId> {
        match step {
            Expr::AxisStep {
                axis,
                test,
                predicates,
            } => {
                let mut id = self.plan.add(
                    Operator::Step {
                        axis: *axis,
                        test: test.clone(),
                    },
                    vec![input],
                );
                for pred in predicates {
                    id = self.compile_predicate(id, pred)?;
                }
                Ok(id)
            }
            Expr::ContextItem => Ok(input),
            Expr::FunctionCall { name, args } => {
                self.compile_call_with_input(Some(input), name, args)
            }
            Expr::Path {
                input: nested,
                step,
            } => {
                // A nested relative path (e.g. from `./a/b` inside id(…)).
                let nested_id = self.compile_step(input, nested)?;
                self.compile_step(nested_id, step)
            }
            Expr::Binary {
                op: BinaryOp::Union,
                lhs,
                rhs,
            } => {
                // `E/(p | q)` is `E/p | E/q`: a focus node's image is the
                // union of its two.
                let l = self.compile_step(input, lhs)?;
                let r = self.compile_step(input, rhs)?;
                Ok(self.plan.add(Operator::Union, vec![l, r]))
            }
            Expr::Literal(_) => Err(self.atomic("a literal")),
            other => Err(self.unsupported(&format!("path step of form {}", variant_name(other)))),
        }
    }

    /// Compile a predicate `[…]` applied to the node rows of `input`.  Only
    /// the `@attr = 'literal'` form is supported: one σ that keeps the nodes
    /// with such an attribute.
    fn compile_predicate(&mut self, input: PlanNodeId, pred: &Expr) -> Result<PlanNodeId> {
        let named_attribute = |step: &Expr| match step {
            Expr::AxisStep {
                axis: Axis::Attribute,
                test: NodeTest::Name(name),
                predicates,
            } if predicates.is_empty() => Some(name.clone()),
            _ => None,
        };
        let attr_equals = match pred {
            Expr::Binary {
                op: BinaryOp::GeneralEq,
                lhs,
                rhs,
            } => match (lhs.as_ref(), rhs.as_ref()) {
                (attr, Expr::Literal(Literal::String(value)))
                | (Expr::Literal(Literal::String(value)), attr) => {
                    named_attribute(attr).map(|name| Operator::AttrEquals {
                        name,
                        value: value.clone(),
                    })
                }
                _ => None,
            },
            other => {
                return Err(self.unsupported(&format!(
                    "predicate of form {} (only @attr = 'literal' predicates compile)",
                    variant_name(other)
                )))
            }
        };
        let op = attr_equals
            .ok_or_else(|| self.unsupported("predicates other than @attribute = 'literal'"))?;
        Ok(self.plan.add(op, vec![input]))
    }

    /// Compile a function call, possibly in step position (with the nodes of
    /// `input` as the context).
    fn compile_call_with_input(
        &mut self,
        input: Option<PlanNodeId>,
        name: &str,
        args: &[Expr],
    ) -> Result<PlanNodeId> {
        match (local_name(name), args.len()) {
            ("doc", 1) => {
                // In step position `doc()` would leave its focus node's
                // document, and with it the anchor `id()` resolves in.
                if input.is_some() {
                    return Err(self.unsupported("doc() in step position"));
                }
                let Expr::Literal(Literal::String(uri)) = &args[0] else {
                    return Err(self.unsupported("doc() with a non-literal URI"));
                };
                Ok(self.plan.add(Operator::DocRoot(uri.clone()), vec![]))
            }
            ("id", 1) => {
                let context = input.ok_or_else(|| {
                    self.unsupported("id() outside of a path step (no context nodes)")
                })?;
                // The argument is a relative node path from the context
                // nodes; each of its nodes resolves in its own document,
                // which is its context node's.
                let arg = self.compile_step(context, &args[0])?;
                Ok(self.plan.add(Operator::IdLookup, vec![arg]))
            }
            (atomic @ ("data" | "string" | "count"), _) => {
                Err(self.atomic(&format!("{atomic}()")))
            }
            (other, _) => Err(self.unsupported(&format!(
                "function {other}() in a recursion body (compiler subset: doc, id, and count or exists as a condition)"
            ))),
        }
    }
}

fn variant_name(expr: &Expr) -> &'static str {
    match expr {
        Expr::Literal(_) => "literal",
        Expr::EmptySequence => "empty sequence",
        Expr::VarRef(_) => "variable reference",
        Expr::ContextItem => "context item",
        Expr::Sequence(_) => "sequence",
        Expr::If { .. } => "if",
        Expr::For { .. } => "for",
        Expr::Let { .. } => "let",
        Expr::Quantified { .. } => "quantified expression",
        Expr::Typeswitch { .. } => "typeswitch",
        Expr::Binary { .. } => "binary operator",
        Expr::Unary { .. } => "unary operator",
        Expr::Path { .. } => "path",
        Expr::RootPath { .. } => "root path",
        Expr::AxisStep { .. } => "axis step",
        Expr::Filter { .. } => "filter",
        Expr::FunctionCall { .. } => "function call",
        Expr::DirectElement { .. } => "direct element constructor",
        Expr::ComputedElement { .. } => "computed element constructor",
        Expr::ComputedAttribute { .. } => "computed attribute constructor",
        Expr::ComputedText { .. } => "computed text constructor",
        Expr::Fixpoint { .. } => "nested fixpoint",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use xqy_parser::parse_expr;
    use xqy_xdm::fixpoint::FixpointStrategy;
    use xqy_xdm::NodeStore;

    fn body_of(src: &str) -> Expr {
        match parse_expr(src).unwrap() {
            Expr::Fixpoint { body, .. } => *body,
            other => other,
        }
    }

    #[test]
    fn q1_body_compiles_and_is_distributive() {
        let body = body_of(
            "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c1'] \
             recurse $x/id(./prerequisites/pre_code)",
        );
        let compiled = compile_recursion_body(&body, "x").unwrap();
        assert!(compiled.distributivity.distributive);
        assert!(compiled.plan.len() >= 4);
        assert_eq!(compiled.plan.rec_inputs().len(), 1);
    }

    #[test]
    fn q2_body_compiles_and_is_blocked_at_count() {
        let body = body_of("if (count($x/self::a)) then $x/* else ()");
        let compiled = compile_recursion_body(&body, "x").unwrap();
        assert!(!compiled.distributivity.distributive);
        assert_eq!(compiled.distributivity.blocked_by.as_deref(), Some("count"));
    }

    #[test]
    fn constructor_bodies_are_refused() {
        for src in [
            "($x/*, <grow/>)",
            "<w>{$x/q}</w>",
            "element w {$x/q}",
            "text {'t'}",
            "attribute z {'v'}",
            "$x/q union <w/>",
            "if (count($x/q)) then $x/q else <w/>",
        ] {
            let err = compile_recursion_body(&body_of(src), "x").unwrap_err();
            assert!(matches!(err, AlgebraError::Unsupported(_)), "{src}");
        }
    }

    #[test]
    fn union_of_steps_is_distributive() {
        let body = body_of("$x/child::a union $x/descendant::b");
        let compiled = compile_recursion_body(&body, "x").unwrap();
        assert!(compiled.distributivity.distributive);
    }

    #[test]
    fn except_against_recursion_variable_blocks() {
        let body = body_of("$x/* except $x");
        let compiled = compile_recursion_body(&body, "x").unwrap();
        assert!(!compiled.distributivity.distributive);
    }

    #[test]
    fn unsupported_expressions_are_reported_not_guessed() {
        // Able to yield atomic values: one refusal, whatever the form.
        for src in [
            "string($x)",
            "$x/string(.)",
            "count($x/q)",
            "($x/q, 'lit')",
            "('lit', $x/q)",
            "$x/q union 'lit'",
            "if (count($x/q)) then $x/q else 'x'",
            "if (count($x/q)) then 1 else $x/q",
            "if ('') then $x/q else ()",
            "if (0) then $x/q else ()",
            "if (data($x/@a)) then $x/q else ()",
            "if (string($x/q)) then $x/q else ()",
            "if (count($x/q) = 2) then $x/q else ()",
            "$x/id('x')",
            "$x/id(string(.))",
            "string($x)/..",
            "-$x",
        ] {
            let err = compile_recursion_body(&body_of(src), "x").unwrap_err();
            assert!(
                matches!(&err, AlgebraError::Unsupported(m) if m.contains("a plan carries nodes")),
                "{src}: {err}"
            );
        }
        // Outside the subset.
        for src in [
            "for $y in $x return $y[1]",
            "$x[1]",
            "if (empty($x/q)) then $x/q else ()",
            "$x/doc('d.xml')",
            "$x/id(doc('d.xml'))",
            "$x/q[@a/@b = '1']",
            "$x/(a except b)",
        ] {
            let err = compile_recursion_body(&body_of(src), "x").unwrap_err();
            assert!(matches!(err, AlgebraError::Unsupported(_)), "{src}");
        }
        for src in [
            "()",
            "$x/@*",
            "$x/q/@a/..",
            "$x/q[@a = '']",
            "$x/(a | id(./@r)/self::*[@a = 'v'])",
            "if (count($x/q)) then $x/q else ()",
            "if ($x/q) then $x/q else ()",
        ] {
            assert!(compile_recursion_body(&body_of(src), "x").is_ok(), "{src}");
        }
    }

    #[test]
    fn compiled_q1_body_executes_like_the_paper_example() {
        let curriculum = r#"<curriculum>
            <course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
            <course code="c2"><prerequisites><pre_code>c3</pre_code></prerequisites></course>
            <course code="c3"><prerequisites/></course>
        </curriculum>"#;
        let mut store = NodeStore::new();
        let doc = store
            .parse_document_with_uri("curriculum.xml", curriculum)
            .unwrap();
        store.register_id_attribute(doc, "code");
        let root = store.document_element(doc).unwrap();
        let seed: Vec<_> = store
            .axis_nodes(
                root,
                xqy_xdm::Axis::Child,
                &xqy_xdm::NodeTest::Name("course".into()),
            )
            .into_iter()
            .filter(|&c| store.attribute_value(c, "code") == Some("c1"))
            .collect();

        let body = body_of("$x/id(./prerequisites/pre_code)");
        let compiled = compile_recursion_body(&body, "x").unwrap();
        let mut exec = Executor::new();
        let (result, stats) = exec
            .run_fixpoint(
                &store,
                &compiled.plan,
                &seed,
                FixpointStrategy::Delta,
                false,
            )
            .unwrap();
        assert_eq!(result.len(), 2); // c2, c3
        assert_eq!(stats.result_rows, 2);
    }

    /// The index of `op`'s variant.  No wildcard arm: a new operator does
    /// not build until this test names it — and a body that compiles to it.
    fn variant(op: &Operator) -> usize {
        match op {
            Operator::RecInput => 0,
            Operator::Empty => 1,
            Operator::DocRoot(_) => 2,
            Operator::AttrEquals { .. } => 3,
            Operator::Union => 4,
            Operator::Difference => 5,
            Operator::Count => 6,
            Operator::Step { .. } => 7,
            Operator::IdLookup => 8,
            Operator::IfThenElse => 9,
        }
    }

    /// The algebra is what the compiler emits: every operator variant
    /// appears in the compiled plan of some body.
    #[test]
    fn every_operator_is_emitted() {
        const VARIANTS: usize = 10;
        let mut emitted = [false; VARIANTS];
        for src in [
            "()",
            "doc('d.xml')/a",
            "$x/q[@a = 'v']",
            "$x/id(./r)",
            "$x/a union $x/b",
            "$x/a except $x/b",
            "if ($x/q) then $x/q else ()",
        ] {
            let compiled = compile_recursion_body(&body_of(src), "x").unwrap();
            for (_, node) in compiled.plan.iter() {
                emitted[variant(&node.op)] = true;
            }
        }
        let missing: Vec<usize> = (0..VARIANTS).filter(|&v| !emitted[v]).collect();
        assert!(missing.is_empty(), "no body emits variants {missing:?}");
    }

    #[test]
    fn predicate_on_attribute_compiles_inside_seed_like_paths() {
        let expr = parse_expr("doc('d.xml')/site/people/person[@id='p1']").unwrap();
        let compiled = compile_recursion_body(&expr, "x").unwrap();
        // No RecInput leaf: trivially distributive.
        assert!(compiled.distributivity.distributive);
        assert!(compiled.plan.rec_inputs().is_empty());
    }
}
