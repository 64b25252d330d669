//! Abstract syntax tree for the XQuery subset.
//!
//! The AST mirrors LiXQuery's structure (the fragment the paper's Figure 5
//! inference rules are formulated over) plus the paper's new
//! `with $x seeded by e recurse e` form, which becomes [`Expr::Fixpoint`].

use std::collections::HashSet;
use std::fmt;

use xqy_xdm::{Axis, NodeTest};

/// A parsed query module: function/variable declarations plus the body.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryModule {
    /// `declare function …` declarations, in source order.
    pub functions: Vec<FunctionDecl>,
    /// `declare variable $v := e;` declarations, in source order.
    pub variables: Vec<(String, Expr)>,
    /// The main expression.
    pub body: Expr,
}

/// A user-defined function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// Function name (possibly prefixed, e.g. `local:fix`).
    pub name: String,
    /// Parameter names (without the `$`).
    pub params: Vec<String>,
    /// Declared parameter types (parallel to `params`; informational only).
    pub param_types: Vec<Option<SequenceType>>,
    /// Declared return type (informational only).
    pub return_type: Option<SequenceType>,
    /// Function body.
    pub body: Expr,
}

/// A function name without its (ignored) namespace prefix: `fn:count` →
/// `count`, `local:fix` → `fix`.
pub fn local_name(name: &str) -> &str {
    match name.split_once(':') {
        Some((_, local)) => local,
        None => name,
    }
}

/// A literal value in the source text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Integer(i64),
    /// Decimal / double literal.
    Double(f64),
    /// String literal.
    String(String),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `or`
    Or,
    /// `and`
    And,
    /// General comparison `=`
    GeneralEq,
    /// General comparison `!=`
    GeneralNe,
    /// General comparison `<`
    GeneralLt,
    /// General comparison `<=`
    GeneralLe,
    /// General comparison `>`
    GeneralGt,
    /// General comparison `>=`
    GeneralGe,
    /// Value comparison `eq`
    ValueEq,
    /// Value comparison `ne`
    ValueNe,
    /// Value comparison `lt`
    ValueLt,
    /// Value comparison `le`
    ValueLe,
    /// Value comparison `gt`
    ValueGt,
    /// Value comparison `ge`
    ValueGe,
    /// Node identity comparison `is`
    Is,
    /// Node order comparison `<<`
    Precedes,
    /// Node order comparison `>>`
    Follows,
    /// Range `to`
    Range,
    /// Addition `+`
    Add,
    /// Subtraction `-`
    Sub,
    /// Multiplication `*`
    Mul,
    /// Division `div`
    Div,
    /// Integer division `idiv`
    IDiv,
    /// Modulo `mod`
    Mod,
    /// Node set union `union` / `|`
    Union,
    /// Node set intersection `intersect`
    Intersect,
    /// Node set difference `except`
    Except,
}

impl BinaryOp {
    /// The operator's surface syntax.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::Or => "or",
            BinaryOp::And => "and",
            BinaryOp::GeneralEq => "=",
            BinaryOp::GeneralNe => "!=",
            BinaryOp::GeneralLt => "<",
            BinaryOp::GeneralLe => "<=",
            BinaryOp::GeneralGt => ">",
            BinaryOp::GeneralGe => ">=",
            BinaryOp::ValueEq => "eq",
            BinaryOp::ValueNe => "ne",
            BinaryOp::ValueLt => "lt",
            BinaryOp::ValueLe => "le",
            BinaryOp::ValueGt => "gt",
            BinaryOp::ValueGe => "ge",
            BinaryOp::Is => "is",
            BinaryOp::Precedes => "<<",
            BinaryOp::Follows => ">>",
            BinaryOp::Range => "to",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "div",
            BinaryOp::IDiv => "idiv",
            BinaryOp::Mod => "mod",
            BinaryOp::Union => "union",
            BinaryOp::Intersect => "intersect",
            BinaryOp::Except => "except",
        }
    }

    /// `true` for the general comparisons (`=`, `!=`, `<`, …) which involve
    /// existential quantification over their operand sequences — the reason
    /// they block the syntactic distributivity judgement.
    pub fn is_general_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::GeneralEq
                | BinaryOp::GeneralNe
                | BinaryOp::GeneralLt
                | BinaryOp::GeneralLe
                | BinaryOp::GeneralGt
                | BinaryOp::GeneralGe
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Unary minus.
    Minus,
    /// Unary plus.
    Plus,
}

/// A (simplified) sequence type, as written after `as` or in `typeswitch`
/// cases: an item-type name plus an occurrence indicator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SequenceType {
    /// The item type: `node()`, `item()`, `element(course)`, `xs:integer`, …
    pub item_type: String,
    /// `?`, `*`, `+` or empty.
    pub occurrence: Occurrence,
}

/// Occurrence indicator of a sequence type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Occurrence {
    /// Exactly one.
    One,
    /// Zero or one (`?`).
    Optional,
    /// Zero or more (`*`).
    ZeroOrMore,
    /// One or more (`+`).
    OneOrMore,
}

impl fmt::Display for SequenceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let occ = match self.occurrence {
            Occurrence::One => "",
            Occurrence::Optional => "?",
            Occurrence::ZeroOrMore => "*",
            Occurrence::OneOrMore => "+",
        };
        write!(f, "{}{}", self.item_type, occ)
    }
}

/// One `case` branch of a `typeswitch`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeswitchCase {
    /// Optional case variable (`case $v as T return …`).
    pub var: Option<String>,
    /// The sequence type to match; `None` for the `default` branch.
    pub seq_type: Option<SequenceType>,
    /// The branch body.
    pub body: Expr,
}

/// Content item of a direct element constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstructorContent {
    /// Literal character data.
    Text(String),
    /// An enclosed expression `{ e }`.
    Expr(Expr),
}

/// An XQuery expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Literal),
    /// The empty sequence `()`.
    EmptySequence,
    /// A variable reference `$v`.
    VarRef(String),
    /// The context item `.`.
    ContextItem,
    /// Sequence construction `e1, e2, …`.
    Sequence(Vec<Expr>),
    /// `if (cond) then e1 else e2`.
    If {
        /// The condition (effective boolean value is taken).
        cond: Box<Expr>,
        /// The `then` branch.
        then_branch: Box<Expr>,
        /// The `else` branch.
        else_branch: Box<Expr>,
    },
    /// A single `for` clause with its return body (FLWORs desugar to nested
    /// `For`/`Let`/`If`).
    For {
        /// The bound variable.
        var: String,
        /// Optional positional variable (`at $p`).
        pos_var: Option<String>,
        /// The sequence iterated over.
        seq: Box<Expr>,
        /// The loop body.
        body: Box<Expr>,
    },
    /// `let $v := e return body`.
    Let {
        /// The bound variable.
        var: String,
        /// The bound value.
        value: Box<Expr>,
        /// The in-scope body.
        body: Box<Expr>,
    },
    /// Quantified expression `some/every $v in seq satisfies cond`.
    Quantified {
        /// `true` for `every`, `false` for `some`.
        every: bool,
        /// The bound variable.
        var: String,
        /// The sequence quantified over.
        seq: Box<Expr>,
        /// The condition.
        cond: Box<Expr>,
    },
    /// `typeswitch (op) case … default …`.
    Typeswitch {
        /// The operand.
        operand: Box<Expr>,
        /// The case branches, tried in order; the last one must be the
        /// `default` branch (with `seq_type == None`).
        cases: Vec<TypeswitchCase>,
    },
    /// Binary operator application.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Path step `input/step` — for every item of `input` (bound as context
    /// item), evaluate `step`; results are combined and document-ordered.
    Path {
        /// The input expression.
        input: Box<Expr>,
        /// The step expression, evaluated with the context item bound.
        step: Box<Expr>,
    },
    /// Leading-slash path: evaluate `step` with the context item set to the
    /// root of the current context node's tree.
    RootPath {
        /// The step following `/` (or `None` for a bare `/`).
        step: Option<Box<Expr>>,
    },
    /// An axis step `axis::test[pred…]`, evaluated against the context item.
    AxisStep {
        /// The axis.
        axis: Axis,
        /// The node test.
        test: NodeTest,
        /// Predicates applied to the step result.
        predicates: Vec<Expr>,
    },
    /// A filter expression `primary[pred…]`.
    Filter {
        /// The filtered expression.
        input: Box<Expr>,
        /// Predicates applied in order.
        predicates: Vec<Expr>,
    },
    /// A (built-in or user-defined) function call.
    FunctionCall {
        /// Function name as written (prefixes preserved).
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Direct element constructor `<name attr="…">…</name>`.
    DirectElement {
        /// Element name.
        name: String,
        /// Attributes: name and content parts (text / enclosed exprs).
        attributes: Vec<(String, Vec<ConstructorContent>)>,
        /// Element content.
        content: Vec<ConstructorContent>,
    },
    /// Computed element constructor `element {name-expr} { content }` or
    /// `element name { content }`.
    ComputedElement {
        /// Element name (static) — the common case in the paper's queries.
        name: String,
        /// Content expression.
        content: Box<Expr>,
    },
    /// Computed attribute constructor `attribute name { content }`.
    ComputedAttribute {
        /// Attribute name.
        name: String,
        /// Content expression.
        content: Box<Expr>,
    },
    /// Computed text node constructor `text { content }`.
    ComputedText {
        /// Content expression.
        content: Box<Expr>,
    },
    /// The inflationary fixed point form of the paper:
    /// `with $var seeded by seed recurse body`.
    Fixpoint {
        /// The recursion variable.
        var: String,
        /// The seed expression.
        seed: Box<Expr>,
        /// The recursion body (payload), with `var` free.
        body: Box<Expr>,
    },
}

impl Expr {
    /// Convenience: is this expression the IFP form?
    pub fn is_fixpoint(&self) -> bool {
        matches!(self, Expr::Fixpoint { .. })
    }

    /// The free variables of the expression (the `fv(e)` of the paper).
    pub fn free_vars(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        self.collect_free_vars(&mut out);
        out
    }

    fn collect_free_vars(&self, out: &mut HashSet<String>) {
        match self {
            Expr::Literal(_) | Expr::EmptySequence | Expr::ContextItem => {}
            Expr::VarRef(v) => {
                out.insert(v.clone());
            }
            Expr::Sequence(items) => {
                for e in items {
                    e.collect_free_vars(out);
                }
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.collect_free_vars(out);
                then_branch.collect_free_vars(out);
                else_branch.collect_free_vars(out);
            }
            Expr::For {
                var,
                pos_var,
                seq,
                body,
            } => {
                seq.collect_free_vars(out);
                let mut inner = HashSet::new();
                body.collect_free_vars(&mut inner);
                inner.remove(var);
                if let Some(p) = pos_var {
                    inner.remove(p);
                }
                out.extend(inner);
            }
            Expr::Let { var, value, body } => {
                value.collect_free_vars(out);
                let mut inner = HashSet::new();
                body.collect_free_vars(&mut inner);
                inner.remove(var);
                out.extend(inner);
            }
            Expr::Quantified { var, seq, cond, .. } => {
                seq.collect_free_vars(out);
                let mut inner = HashSet::new();
                cond.collect_free_vars(&mut inner);
                inner.remove(var);
                out.extend(inner);
            }
            Expr::Typeswitch { operand, cases } => {
                operand.collect_free_vars(out);
                for case in cases {
                    let mut inner = HashSet::new();
                    case.body.collect_free_vars(&mut inner);
                    if let Some(v) = &case.var {
                        inner.remove(v);
                    }
                    out.extend(inner);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_free_vars(out);
                rhs.collect_free_vars(out);
            }
            Expr::Unary { expr, .. } => expr.collect_free_vars(out),
            Expr::Path { input, step } => {
                input.collect_free_vars(out);
                step.collect_free_vars(out);
            }
            Expr::RootPath { step } => {
                if let Some(s) = step {
                    s.collect_free_vars(out);
                }
            }
            Expr::AxisStep { predicates, .. } => {
                for p in predicates {
                    p.collect_free_vars(out);
                }
            }
            Expr::Filter { input, predicates } => {
                input.collect_free_vars(out);
                for p in predicates {
                    p.collect_free_vars(out);
                }
            }
            Expr::FunctionCall { args, .. } => {
                for a in args {
                    a.collect_free_vars(out);
                }
            }
            Expr::DirectElement {
                attributes,
                content,
                ..
            } => {
                for (_, parts) in attributes {
                    for part in parts {
                        if let ConstructorContent::Expr(e) = part {
                            e.collect_free_vars(out);
                        }
                    }
                }
                for part in content {
                    if let ConstructorContent::Expr(e) = part {
                        e.collect_free_vars(out);
                    }
                }
            }
            Expr::ComputedElement { content, .. }
            | Expr::ComputedAttribute { content, .. }
            | Expr::ComputedText { content } => content.collect_free_vars(out),
            Expr::Fixpoint { var, seed, body } => {
                seed.collect_free_vars(out);
                let mut inner = HashSet::new();
                body.collect_free_vars(&mut inner);
                inner.remove(var);
                out.extend(inner);
            }
        }
    }

    /// `true` if `var` occurs free in this expression.
    pub fn has_free_var(&self, var: &str) -> bool {
        self.free_vars().contains(var)
    }

    /// Replace every *free* occurrence of variable `from` by a reference to
    /// variable `to` — the `e[$y/$x]` substitution used by the paper's
    /// "distributivity hint" rewrite.
    pub fn rename_free_var(&self, from: &str, to: &str) -> Expr {
        self.substitute_var(from, &Expr::VarRef(to.to_string()))
    }

    /// Replace every free occurrence of variable `var` by `replacement`
    /// (capture is avoided only in the sense that bound occurrences of `var`
    /// shadow the substitution, which is all the IFP machinery needs).
    pub fn substitute_var(&self, var: &str, replacement: &Expr) -> Expr {
        match self {
            Expr::VarRef(v) if v == var => replacement.clone(),
            Expr::Literal(_) | Expr::EmptySequence | Expr::ContextItem | Expr::VarRef(_) => {
                self.clone()
            }
            Expr::Sequence(items) => Expr::Sequence(
                items
                    .iter()
                    .map(|e| e.substitute_var(var, replacement))
                    .collect(),
            ),
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => Expr::If {
                cond: Box::new(cond.substitute_var(var, replacement)),
                then_branch: Box::new(then_branch.substitute_var(var, replacement)),
                else_branch: Box::new(else_branch.substitute_var(var, replacement)),
            },
            Expr::For {
                var: v,
                pos_var,
                seq,
                body,
            } => {
                let new_seq = Box::new(seq.substitute_var(var, replacement));
                let shadowed = v == var || pos_var.as_deref() == Some(var);
                Expr::For {
                    var: v.clone(),
                    pos_var: pos_var.clone(),
                    seq: new_seq,
                    body: if shadowed {
                        body.clone()
                    } else {
                        Box::new(body.substitute_var(var, replacement))
                    },
                }
            }
            Expr::Let {
                var: v,
                value,
                body,
            } => {
                let new_value = Box::new(value.substitute_var(var, replacement));
                Expr::Let {
                    var: v.clone(),
                    value: new_value,
                    body: if v == var {
                        body.clone()
                    } else {
                        Box::new(body.substitute_var(var, replacement))
                    },
                }
            }
            Expr::Quantified {
                every,
                var: v,
                seq,
                cond,
            } => Expr::Quantified {
                every: *every,
                var: v.clone(),
                seq: Box::new(seq.substitute_var(var, replacement)),
                cond: if v == var {
                    cond.clone()
                } else {
                    Box::new(cond.substitute_var(var, replacement))
                },
            },
            Expr::Typeswitch { operand, cases } => Expr::Typeswitch {
                operand: Box::new(operand.substitute_var(var, replacement)),
                cases: cases
                    .iter()
                    .map(|c| TypeswitchCase {
                        var: c.var.clone(),
                        seq_type: c.seq_type.clone(),
                        body: if c.var.as_deref() == Some(var) {
                            c.body.clone()
                        } else {
                            c.body.substitute_var(var, replacement)
                        },
                    })
                    .collect(),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.substitute_var(var, replacement)),
                rhs: Box::new(rhs.substitute_var(var, replacement)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.substitute_var(var, replacement)),
            },
            Expr::Path { input, step } => Expr::Path {
                input: Box::new(input.substitute_var(var, replacement)),
                step: Box::new(step.substitute_var(var, replacement)),
            },
            Expr::RootPath { step } => Expr::RootPath {
                step: step
                    .as_ref()
                    .map(|s| Box::new(s.substitute_var(var, replacement))),
            },
            Expr::AxisStep {
                axis,
                test,
                predicates,
            } => Expr::AxisStep {
                axis: *axis,
                test: test.clone(),
                predicates: predicates
                    .iter()
                    .map(|p| p.substitute_var(var, replacement))
                    .collect(),
            },
            Expr::Filter { input, predicates } => Expr::Filter {
                input: Box::new(input.substitute_var(var, replacement)),
                predicates: predicates
                    .iter()
                    .map(|p| p.substitute_var(var, replacement))
                    .collect(),
            },
            Expr::FunctionCall { name, args } => Expr::FunctionCall {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| a.substitute_var(var, replacement))
                    .collect(),
            },
            Expr::DirectElement {
                name,
                attributes,
                content,
            } => Expr::DirectElement {
                name: name.clone(),
                attributes: attributes
                    .iter()
                    .map(|(n, parts)| {
                        (
                            n.clone(),
                            parts
                                .iter()
                                .map(|p| match p {
                                    ConstructorContent::Text(t) => {
                                        ConstructorContent::Text(t.clone())
                                    }
                                    ConstructorContent::Expr(e) => {
                                        ConstructorContent::Expr(e.substitute_var(var, replacement))
                                    }
                                })
                                .collect(),
                        )
                    })
                    .collect(),
                content: content
                    .iter()
                    .map(|p| match p {
                        ConstructorContent::Text(t) => ConstructorContent::Text(t.clone()),
                        ConstructorContent::Expr(e) => {
                            ConstructorContent::Expr(e.substitute_var(var, replacement))
                        }
                    })
                    .collect(),
            },
            Expr::ComputedElement { name, content } => Expr::ComputedElement {
                name: name.clone(),
                content: Box::new(content.substitute_var(var, replacement)),
            },
            Expr::ComputedAttribute { name, content } => Expr::ComputedAttribute {
                name: name.clone(),
                content: Box::new(content.substitute_var(var, replacement)),
            },
            Expr::ComputedText { content } => Expr::ComputedText {
                content: Box::new(content.substitute_var(var, replacement)),
            },
            Expr::Fixpoint { var: v, seed, body } => Expr::Fixpoint {
                var: v.clone(),
                seed: Box::new(seed.substitute_var(var, replacement)),
                body: if v == var {
                    body.clone()
                } else {
                    Box::new(body.substitute_var(var, replacement))
                },
            },
        }
    }

    /// `true` if this very expression is a node constructor.
    pub fn is_node_constructor(&self) -> bool {
        matches!(
            self,
            Expr::DirectElement { .. }
                | Expr::ComputedElement { .. }
                | Expr::ComputedAttribute { .. }
                | Expr::ComputedText { .. }
        )
    }

    /// `true` if the expression (or any subexpression) constructs nodes —
    /// the condition under which an IFP may fail to terminate and under
    /// which distributivity is lost (Section 3.2 of the paper).  Calls are
    /// not followed; `xqy_eval::distributivity::reaches_constructor` is
    /// the transitive check.
    pub fn contains_node_constructor(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| found |= e.is_node_constructor());
        found
    }

    /// Call `visit` on this expression and every subexpression (pre-order).
    pub fn walk(&self, visit: &mut impl FnMut(&Expr)) {
        visit(self);
        match self {
            Expr::Literal(_) | Expr::EmptySequence | Expr::VarRef(_) | Expr::ContextItem => {}
            Expr::Sequence(items) => items.iter().for_each(|e| e.walk(visit)),
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.walk(visit);
                then_branch.walk(visit);
                else_branch.walk(visit);
            }
            Expr::For { seq, body, .. } => {
                seq.walk(visit);
                body.walk(visit);
            }
            Expr::Let { value, body, .. } => {
                value.walk(visit);
                body.walk(visit);
            }
            Expr::Quantified { seq, cond, .. } => {
                seq.walk(visit);
                cond.walk(visit);
            }
            Expr::Typeswitch { operand, cases } => {
                operand.walk(visit);
                cases.iter().for_each(|c| c.body.walk(visit));
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            Expr::Unary { expr, .. } => expr.walk(visit),
            Expr::Path { input, step } => {
                input.walk(visit);
                step.walk(visit);
            }
            Expr::RootPath { step } => {
                if let Some(s) = step {
                    s.walk(visit);
                }
            }
            Expr::AxisStep { predicates, .. } => predicates.iter().for_each(|p| p.walk(visit)),
            Expr::Filter { input, predicates } => {
                input.walk(visit);
                predicates.iter().for_each(|p| p.walk(visit));
            }
            Expr::FunctionCall { args, .. } => args.iter().for_each(|a| a.walk(visit)),
            Expr::DirectElement {
                attributes,
                content,
                ..
            } => {
                for (_, parts) in attributes {
                    for p in parts {
                        if let ConstructorContent::Expr(e) = p {
                            e.walk(visit);
                        }
                    }
                }
                for p in content {
                    if let ConstructorContent::Expr(e) = p {
                        e.walk(visit);
                    }
                }
            }
            Expr::ComputedElement { content, .. }
            | Expr::ComputedAttribute { content, .. }
            | Expr::ComputedText { content } => content.walk(visit),
            Expr::Fixpoint { seed, body, .. } => {
                seed.walk(visit);
                body.walk(visit);
            }
        }
    }

    /// Count the nodes of the expression tree (used in tests and reports).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Expr {
        Expr::VarRef(name.to_string())
    }

    #[test]
    fn free_vars_respect_binders() {
        // for $y in $x return ($y, $z)
        let expr = Expr::For {
            var: "y".into(),
            pos_var: None,
            seq: Box::new(var("x")),
            body: Box::new(Expr::Sequence(vec![var("y"), var("z")])),
        };
        let fv = expr.free_vars();
        assert!(fv.contains("x"));
        assert!(fv.contains("z"));
        assert!(!fv.contains("y"));
    }

    #[test]
    fn let_binder_shadows() {
        // let $x := $x return $x — the outer $x is only free in the value.
        let expr = Expr::Let {
            var: "x".into(),
            value: Box::new(var("x")),
            body: Box::new(var("x")),
        };
        assert_eq!(expr.free_vars().len(), 1);
    }

    #[test]
    fn fixpoint_binds_its_variable() {
        let expr = Expr::Fixpoint {
            var: "x".into(),
            seed: Box::new(var("seed")),
            body: Box::new(Expr::Path {
                input: Box::new(var("x")),
                step: Box::new(Expr::AxisStep {
                    axis: Axis::Child,
                    test: NodeTest::AnyElement,
                    predicates: vec![],
                }),
            }),
        };
        let fv = expr.free_vars();
        assert!(fv.contains("seed"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn substitution_avoids_bound_occurrences() {
        // for $x in $x return $x : substituting $x only affects the range.
        let expr = Expr::For {
            var: "x".into(),
            pos_var: None,
            seq: Box::new(var("x")),
            body: Box::new(var("x")),
        };
        let replaced = expr.substitute_var("x", &Expr::EmptySequence);
        match replaced {
            Expr::For { seq, body, .. } => {
                assert_eq!(*seq, Expr::EmptySequence);
                assert_eq!(*body, var("x"));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn rename_free_var_builds_hint_shape() {
        let body = Expr::Path {
            input: Box::new(var("x")),
            step: Box::new(Expr::AxisStep {
                axis: Axis::Child,
                test: NodeTest::Name("a".into()),
                predicates: vec![],
            }),
        };
        let renamed = body.rename_free_var("x", "y");
        assert!(renamed.has_free_var("y"));
        assert!(!renamed.has_free_var("x"));
    }

    #[test]
    fn detects_node_constructors() {
        let ctor = Expr::ComputedText {
            content: Box::new(Expr::Literal(Literal::String("c".into()))),
        };
        assert!(ctor.contains_node_constructor());
        let plain = Expr::Sequence(vec![var("x"), Expr::Literal(Literal::Integer(1))]);
        assert!(!plain.contains_node_constructor());
    }

    #[test]
    fn size_counts_subexpressions() {
        let expr = Expr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(Expr::Literal(Literal::Integer(1))),
            rhs: Box::new(Expr::Literal(Literal::Integer(2))),
        };
        assert_eq!(expr.size(), 3);
    }
}
