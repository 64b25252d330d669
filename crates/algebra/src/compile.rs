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
//! * `@name = 'literal'` predicates;
//! * `data`/`string` and `count` (whose atomic results only a condition
//!   may consume), the node-set operators, `,` and `if`/`then`/`else`.
//!
//! A body must yield nodes, whatever branch it takes.  Everything else —
//! atomic bodies, constructors, FLWOR, filters — is reported as
//! [`AlgebraError::Unsupported`], so that the engine falls back to the
//! source-level evaluator instead of executing a plan whose answer differs
//! from the interpreter's.

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

/// What the `item` column of a compiled expression carries.  The
/// interpreter raises a type error where a body, a path's input or an
/// `id()` argument yields an atomic value, and the executor would silently
/// drop one, so those positions demand [`ItemKind::Nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemKind {
    /// Nodes only (`()` included).
    Nodes,
    /// Possibly atomic values.
    Atomic,
}

impl ItemKind {
    /// The kind of a sequence holding items of both kinds.
    fn and(self, other: ItemKind) -> ItemKind {
        if self == ItemKind::Nodes && other == ItemKind::Nodes {
            ItemKind::Nodes
        } else {
            ItemKind::Atomic
        }
    }
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
    let root = compiler.compile_nodes(body, "a recursion body")?;
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

    /// `kind` must be nodes where `what` stands.
    fn require_nodes(&self, (id, kind): (PlanNodeId, ItemKind), what: &str) -> Result<PlanNodeId> {
        match kind {
            ItemKind::Nodes => Ok(id),
            ItemKind::Atomic => Err(self.unsupported(&format!(
                "{what} that can yield atomic values (only node sequences compile there)"
            ))),
        }
    }

    fn compile_nodes(&mut self, expr: &Expr, what: &str) -> Result<PlanNodeId> {
        let compiled = self.compile(expr)?;
        self.require_nodes(compiled, what)
    }

    fn compile(&mut self, expr: &Expr) -> Result<(PlanNodeId, ItemKind)> {
        let literal =
            |plan: &mut Plan, values: Vec<String>| plan.add(Operator::Literal(values), vec![]);
        match expr {
            Expr::VarRef(v) if *v == self.var => {
                Ok((self.plan.add(Operator::RecInput, vec![]), ItemKind::Nodes))
            }
            Expr::VarRef(v) => Err(self.unsupported(&format!(
                "free variable ${v} (only the recursion variable ${} is supported)",
                self.var
            ))),
            Expr::EmptySequence => Ok((literal(&mut self.plan, Vec::new()), ItemKind::Nodes)),
            Expr::Literal(lit) => {
                let text = match lit {
                    Literal::String(s) => s.clone(),
                    Literal::Integer(i) => i.to_string(),
                    Literal::Double(d) => d.to_string(),
                };
                Ok((literal(&mut self.plan, vec![text]), ItemKind::Atomic))
            }
            Expr::Path { input, step } => {
                let input_id = self.compile_nodes(input, "a path's input")?;
                self.compile_step(input_id, step)
            }
            Expr::AxisStep { .. } => Err(self.unsupported(
                "an axis step without an explicit input (context-item steps only occur inside paths)",
            )),
            Expr::FunctionCall { name, args } => self.compile_call_with_input(None, name, args),
            Expr::Binary { op, lhs, rhs } => {
                let (l, lk) = self.compile(lhs)?;
                let (r, rk) = self.compile(rhs)?;
                let kind = lk.and(rk);
                let operator = match op {
                    BinaryOp::Union => Operator::Union,
                    BinaryOp::Except => Operator::Difference,
                    BinaryOp::Intersect => {
                        // a ∩ b  ≡  a \ (a \ b)
                        let a_minus_b = self.plan.add(Operator::Difference, vec![l, r]);
                        let id = self.plan.add(Operator::Difference, vec![l, a_minus_b]);
                        return Ok((id, kind));
                    }
                    other => {
                        return Err(self.unsupported(&format!(
                            "binary operator '{}' in a recursion body",
                            other.symbol()
                        )))
                    }
                };
                Ok((self.plan.add(operator, vec![l, r]), kind))
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond_id = self.compile_condition(cond)?;
                let (then_id, then_kind) = self.compile(then_branch)?;
                let (else_id, else_kind) = self.compile(else_branch)?;
                Ok((
                    self.plan
                        .add(Operator::IfThenElse, vec![cond_id, then_id, else_id]),
                    then_kind.and(else_kind),
                ))
            }
            Expr::Sequence(items) => {
                // Sequence construction over node sets behaves like union for
                // the (set-based) purposes of the algebra backend.
                let mut compiled = Vec::new();
                let mut kind = ItemKind::Nodes;
                for item in items {
                    let (id, k) = self.compile(item)?;
                    kind = kind.and(k);
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
    /// when the operand depends on the recursion variable).
    /// `count(e)` and `exists(e)` already aggregate, so `e` is counted.
    fn compile_condition(&mut self, cond: &Expr) -> Result<PlanNodeId> {
        let operand = match cond {
            Expr::FunctionCall { name, args }
                if matches!(local_name(name), "count" | "exists") && args.len() == 1 =>
            {
                &args[0]
            }
            other => other,
        };
        let (inner, _) = self.compile(operand)?;
        Ok(self
            .plan
            .add(Operator::Count { group_by: None }, vec![inner]))
    }

    /// Compile a path step applied to the node rows of `input`.
    fn compile_step(&mut self, input: PlanNodeId, step: &Expr) -> Result<(PlanNodeId, ItemKind)> {
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
                Ok((id, ItemKind::Nodes))
            }
            Expr::ContextItem => Ok((input, ItemKind::Nodes)),
            Expr::FunctionCall { name, args } => {
                self.compile_call_with_input(Some(input), name, args)
            }
            Expr::Path {
                input: nested,
                step,
            } => {
                // A nested relative path (e.g. from `./a/b` inside id(…)).
                let nested = self.compile_step(input, nested)?;
                let nested_id = self.require_nodes(nested, "a path's input")?;
                self.compile_step(nested_id, step)
            }
            other => Err(self.unsupported(&format!("path step of form {}", variant_name(other)))),
        }
    }

    /// Compile a predicate `[…]` applied to the node rows of `input`.  Only
    /// the `@attr = 'literal'` form is supported.
    fn compile_predicate(&mut self, input: PlanNodeId, pred: &Expr) -> Result<PlanNodeId> {
        let named_attribute = |step: &Expr| {
            matches!(step, Expr::AxisStep {
                axis: Axis::Attribute,
                test: NodeTest::Name(_),
                predicates,
            } if predicates.is_empty())
        };
        let (attr, literal) = match pred {
            Expr::Binary {
                op: BinaryOp::GeneralEq,
                lhs,
                rhs,
            } => match (lhs.as_ref(), rhs.as_ref()) {
                (attr, Expr::Literal(Literal::String(value)))
                | (Expr::Literal(Literal::String(value)), attr)
                    if named_attribute(attr) =>
                {
                    (attr, value.clone())
                }
                _ => return Err(self.unsupported("predicates other than @attribute = 'literal'")),
            },
            other => {
                return Err(self.unsupported(&format!(
                    "predicate of form {} (only @attr = 'literal' predicates compile)",
                    variant_name(other)
                )))
            }
        };
        // Carry the node, step to its attribute, compare the attribute's
        // string value, project the node back.  An element has at most one
        // attribute of a name, so no node comes back twice.
        let keep = self.plan.add(
            Operator::Project(vec![
                ("node".into(), "item".into()),
                ("item".into(), "item".into()),
            ]),
            vec![input],
        );
        let (attr, _) = self.compile_step(keep, attr)?;
        let value = self.plan.add(Operator::StringValue, vec![attr]);
        let select = self.plan.add(
            Operator::Select {
                column: "item".into(),
                value: literal,
            },
            vec![value],
        );
        Ok(self.plan.add(
            Operator::Project(vec![("item".into(), "node".into())]),
            vec![select],
        ))
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
                // In step position `doc()` would leave its focus node's
                // document, and with it the anchor `id()` resolves in.
                if input.is_some() {
                    return Err(self.unsupported("doc() in step position"));
                }
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
                // The argument is a relative node path from the context
                // nodes; each of its nodes resolves in its own document,
                // which is its context node's.
                let arg = self.compile_step(context, &args[0])?;
                let arg = self.require_nodes(arg, "an id() argument")?;
                Ok((
                    self.plan.add(Operator::IdLookup, vec![arg]),
                    ItemKind::Nodes,
                ))
            }
            ("data" | "string" | "count", 1) => {
                let (arg, _) = match input {
                    Some(ctx) => self.compile_step(ctx, &args[0])?,
                    None => self.compile(&args[0])?,
                };
                let op = if local_name(name) == "count" {
                    Operator::Count { group_by: None }
                } else {
                    Operator::StringValue
                };
                Ok((self.plan.add(op, vec![arg]), ItemKind::Atomic))
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
        // Outside the subset, or able to yield atomic values where the
        // interpreter demands nodes.
        for src in [
            "for $y in $x return $y[1]",
            "$x[1]",
            "string($x)",
            "$x/string(.)",
            "count($x/q)",
            "($x/q, 'lit')",
            "('lit', $x/q)",
            "$x/q union 'lit'",
            "if (count($x/q)) then $x/q else 'x'",
            "if (count($x/q)) then 1 else $x/q",
            "if (empty($x/q)) then $x/q else ()",
            "$x/id('x')",
            "$x/id(string(.))",
            "string($x)/..",
            "$x/doc('d.xml')",
            "$x/id(doc('d.xml'))",
            "$x/q[@a/@b = '1']",
        ] {
            let err = compile_recursion_body(&body_of(src), "x").unwrap_err();
            assert!(matches!(err, AlgebraError::Unsupported(_)), "{src}");
        }
        for src in [
            "()",
            "$x/@*",
            "$x/q/@a/..",
            "if (count($x/q)) then $x/q else ()",
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
