//! A restricted XQuery-to-algebra compiler for recursion bodies.
//!
//! The Pathfinder compiler of the paper translates arbitrary XQuery into
//! loop-lifted relational plans.  This reproduction compiles the expression
//! subset that the paper's examples and the benchmark recursion bodies use —
//! paths over the recursion variable and over `doc(…)`, attribute access,
//! `id(·)` lookups, `data`/`string`, simple `@attr = 'literal'` predicates,
//! the node-set operators, `count`, and `if`/`then`/`else` — and reports
//! everything else as [`AlgebraError::Unsupported`] so that the engine can
//! fall back to the source-level evaluator instead of executing a wrong
//! plan.

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

/// What kind of value the `item` column currently carries; used to insert
/// `StringValue` coercions before `IdLookup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemKind {
    Nodes,
    Strings,
    Unknown,
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
    let (root, _kind) = compiler.compile(body)?;
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

    fn compile(&mut self, expr: &Expr) -> Result<(PlanNodeId, ItemKind)> {
        match expr {
            Expr::VarRef(v) if *v == self.var => {
                Ok((self.plan.add(Operator::RecInput, vec![]), ItemKind::Nodes))
            }
            Expr::VarRef(v) => Err(self.unsupported(&format!(
                "free variable ${v} (only the recursion variable ${} is supported)",
                self.var
            ))),
            Expr::EmptySequence => Ok((
                self.plan.add(Operator::Literal(Vec::new()), vec![]),
                ItemKind::Strings,
            )),
            Expr::Literal(Literal::String(s)) => Ok((
                self.plan.add(Operator::Literal(vec![s.clone()]), vec![]),
                ItemKind::Strings,
            )),
            Expr::Literal(Literal::Integer(i)) => Ok((
                self.plan.add(Operator::Literal(vec![i.to_string()]), vec![]),
                ItemKind::Strings,
            )),
            Expr::Literal(Literal::Double(d)) => Ok((
                self.plan.add(Operator::Literal(vec![d.to_string()]), vec![]),
                ItemKind::Strings,
            )),
            Expr::Path { input, step } => {
                let (input_id, _) = self.compile(input)?;
                self.compile_step(input_id, step)
            }
            Expr::AxisStep { .. } => Err(self.unsupported(
                "an axis step without an explicit input (context-item steps only occur inside paths)",
            )),
            Expr::FunctionCall { name, args } => self.compile_call_with_input(None, name, args),
            Expr::Binary { op, lhs, rhs } => {
                let (l, lk) = self.compile(lhs)?;
                let (r, _) = self.compile(rhs)?;
                let operator = match op {
                    BinaryOp::Union => Operator::Union,
                    BinaryOp::Except => Operator::Difference,
                    BinaryOp::Intersect => {
                        // a ∩ b  ≡  a \ (a \ b)
                        let a_minus_b = self.plan.add(Operator::Difference, vec![l, r]);
                        let id = self.plan.add(Operator::Difference, vec![l, a_minus_b]);
                        return Ok((id, lk));
                    }
                    other => {
                        return Err(self.unsupported(&format!(
                            "binary operator '{}' in a recursion body",
                            other.symbol()
                        )))
                    }
                };
                Ok((self.plan.add(operator, vec![l, r]), lk))
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let (cond_id, _) = self.compile_condition(cond)?;
                let (then_id, then_kind) = self.compile(then_branch)?;
                let (else_id, _) = self.compile(else_branch)?;
                Ok((
                    self.plan
                        .add(Operator::IfThenElse, vec![cond_id, then_id, else_id]),
                    then_kind,
                ))
            }
            Expr::Sequence(items) => {
                // Sequence construction over node sets behaves like union for
                // the (set-based) purposes of the algebra backend.
                let mut compiled = Vec::new();
                let mut kind = ItemKind::Unknown;
                for item in items {
                    let (id, k) = self.compile(item)?;
                    kind = k;
                    compiled.push(id);
                }
                let mut iter = compiled.into_iter();
                let first = iter
                    .next()
                    .ok_or_else(|| self.unsupported("empty sequence constructor"))?;
                let combined = iter.fold(first, |acc, next| {
                    self.plan.add(Operator::Union, vec![acc, next])
                });
                Ok((combined, kind))
            }
            Expr::RootPath { .. } | Expr::ContextItem => Err(self.unsupported(
                "the context item outside of a step position (recursion bodies are functions of the recursion variable)",
            )),
            Expr::DirectElement { name, .. } | Expr::ComputedElement { name, .. } => {
                let lit = self.plan.add(Operator::Literal(Vec::new()), vec![]);
                Ok((
                    self.plan.add(Operator::Construct(name.clone()), vec![lit]),
                    ItemKind::Nodes,
                ))
            }
            Expr::ComputedText { .. } | Expr::ComputedAttribute { .. } => {
                let lit = self.plan.add(Operator::Literal(Vec::new()), vec![]);
                Ok((
                    self.plan.add(Operator::Construct("text".into()), vec![lit]),
                    ItemKind::Nodes,
                ))
            }
            other => Err(self.unsupported(&format!(
                "expression form {:?} (general FLWOR/filters are outside the compiler subset)",
                variant_name(other)
            ))),
        }
    }

    /// Compile a condition expression; the result is wrapped so its
    /// effective-boolean-value aggregation is explicit in the plan (an EBV
    /// inspects its operand as a whole, which is what blocks distributivity
    /// when the operand depends on the recursion variable).
    fn compile_condition(&mut self, cond: &Expr) -> Result<(PlanNodeId, ItemKind)> {
        let (id, kind) = match cond {
            // count(e) / exists(e) / empty(e): already aggregates.
            Expr::FunctionCall { name, args }
                if matches!(local_name(name), "count" | "exists" | "empty") && args.len() == 1 =>
            {
                let (inner, _) = self.compile(&args[0])?;
                (
                    self.plan
                        .add(Operator::Count { group_by: None }, vec![inner]),
                    ItemKind::Strings,
                )
            }
            other => {
                let (inner, _) = self.compile(other)?;
                (
                    self.plan
                        .add(Operator::Count { group_by: None }, vec![inner]),
                    ItemKind::Strings,
                )
            }
        };
        Ok((id, kind))
    }

    /// Compile a path step applied to the rows of `input`.
    fn compile_step(&mut self, input: PlanNodeId, step: &Expr) -> Result<(PlanNodeId, ItemKind)> {
        match step {
            Expr::AxisStep {
                axis,
                test,
                predicates,
            } => {
                let (mut id, mut kind) = match (axis, test) {
                    (Axis::Attribute, NodeTest::Name(name)) => (
                        self.plan
                            .add(Operator::AttrValue(name.clone()), vec![input]),
                        ItemKind::Strings,
                    ),
                    (Axis::Attribute, _) => {
                        return Err(self.unsupported("wildcard attribute steps"))
                    }
                    _ => (
                        self.plan.add(
                            Operator::Step {
                                axis: *axis,
                                test: test.clone(),
                            },
                            vec![input],
                        ),
                        ItemKind::Nodes,
                    ),
                };
                for pred in predicates {
                    (id, kind) = self.compile_predicate(id, pred)?;
                }
                Ok((id, kind))
            }
            Expr::ContextItem => Ok((input, ItemKind::Unknown)),
            Expr::FunctionCall { name, args } => {
                self.compile_call_with_input(Some(input), name, args)
            }
            Expr::Path {
                input: nested,
                step,
            } => {
                // A nested relative path (e.g. from `./a/b` inside id(…)).
                let (nested_id, _) = self.compile_step(input, nested)?;
                self.compile_step(nested_id, step)
            }
            other => Err(self.unsupported(&format!("path step of form {}", variant_name(other)))),
        }
    }

    /// Compile a predicate `[…]` applied to the node rows of `input`.  Only
    /// the `@attr = 'literal'` form is supported.
    fn compile_predicate(
        &mut self,
        input: PlanNodeId,
        pred: &Expr,
    ) -> Result<(PlanNodeId, ItemKind)> {
        match pred {
            Expr::Binary {
                op: BinaryOp::GeneralEq,
                lhs,
                rhs,
            } => {
                let (attr_name, literal) = match (lhs.as_ref(), rhs.as_ref()) {
                    (
                        Expr::AxisStep {
                            axis: Axis::Attribute,
                            test: NodeTest::Name(name),
                            ..
                        },
                        Expr::Literal(Literal::String(value)),
                    ) => (name.clone(), value.clone()),
                    (
                        Expr::Literal(Literal::String(value)),
                        Expr::AxisStep {
                            axis: Axis::Attribute,
                            test: NodeTest::Name(name),
                            ..
                        },
                    ) => (name.clone(), value.clone()),
                    _ => {
                        return Err(self.unsupported("predicates other than @attribute = 'literal'"))
                    }
                };
                // Carry the node, test its attribute, project the node back.
                let keep = self.plan.add(
                    Operator::Project(vec![
                        ("node".into(), "item".into()),
                        ("item".into(), "item".into()),
                    ]),
                    vec![input],
                );
                let attr = self.plan.add(Operator::AttrValue(attr_name), vec![keep]);
                let select = self.plan.add(
                    Operator::Select {
                        column: "item".into(),
                        value: literal,
                    },
                    vec![attr],
                );
                let back = self.plan.add(
                    Operator::Project(vec![("item".into(), "node".into())]),
                    vec![select],
                );
                Ok((back, ItemKind::Nodes))
            }
            other => Err(self.unsupported(&format!(
                "predicate of form {} (only @attr = 'literal' predicates compile)",
                variant_name(other)
            ))),
        }
    }

    /// Compile a function call, possibly in step position (with the nodes of
    /// `input` as the context).
    fn compile_call_with_input(
        &mut self,
        input: Option<PlanNodeId>,
        name: &str,
        args: &[Expr],
    ) -> Result<(PlanNodeId, ItemKind)> {
        match (local_name(name), args.len()) {
            ("doc", 1) => {
                let Expr::Literal(Literal::String(uri)) = &args[0] else {
                    return Err(self.unsupported("doc() with a non-literal URI"));
                };
                Ok((
                    self.plan.add(Operator::DocRoot(uri.clone()), vec![]),
                    ItemKind::Nodes,
                ))
            }
            ("id", 1) => {
                let context = input.ok_or_else(|| {
                    self.unsupported("id() outside of a path step (no context nodes)")
                })?;
                // The argument is evaluated relative to the context nodes.
                let (arg, kind) = self.compile_step(context, &args[0])?;
                let strings = if kind == ItemKind::Strings {
                    arg
                } else {
                    self.plan.add(Operator::StringValue, vec![arg])
                };
                Ok((
                    self.plan.add(Operator::IdLookup, vec![strings]),
                    ItemKind::Nodes,
                ))
            }
            ("data" | "string", 1) => {
                let (arg, _) = match input {
                    Some(ctx) => self.compile_step(ctx, &args[0])?,
                    None => self.compile(&args[0])?,
                };
                Ok((
                    self.plan.add(Operator::StringValue, vec![arg]),
                    ItemKind::Strings,
                ))
            }
            ("count", 1) => {
                let (arg, _) = match input {
                    Some(ctx) => self.compile_step(ctx, &args[0])?,
                    None => self.compile(&args[0])?,
                };
                Ok((
                    self.plan.add(Operator::Count { group_by: None }, vec![arg]),
                    ItemKind::Strings,
                ))
            }
            (other, _) => Err(self.unsupported(&format!(
                "function {other}() in a recursion body (compiler subset: doc, id, data, string, count)"
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
    use crate::exec::{Executor, MuStrategy};
    use xqy_parser::parse_expr;
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
    fn constructor_bodies_are_not_distributive() {
        let body = body_of("($x/*, <grow/>)");
        let compiled = compile_recursion_body(&body, "x").unwrap();
        assert!(!compiled.distributivity.distributive);
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
        let body = body_of("for $y in $x return $y[1]");
        let err = compile_recursion_body(&body, "x").unwrap_err();
        assert!(matches!(err, AlgebraError::Unsupported(_)));

        let body = body_of("$x[1]");
        assert!(compile_recursion_body(&body, "x").is_err());
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
                &mut store,
                &compiled.plan,
                &seed,
                MuStrategy::MuDelta,
                false,
            )
            .unwrap();
        assert_eq!(result.len(), 2); // c2, c3
        assert_eq!(stats.result_rows, 2);
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
