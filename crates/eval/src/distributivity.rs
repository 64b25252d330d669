//! Distributivity safety `ds(·)` — Figure 5 of the paper — read over a
//! variable `$x` or over the context item `.`, beside the built-in library
//! it must agree with.
//!
//! The judgement traverses an expression bottom-up, visiting each node once,
//! and checks sufficient *syntactic* conditions for the distributivity
//! property of Definition 3.1 (`e(X ∪ Y) = e(X) ∪ e(Y)`).  It has two
//! readers, and they read the same rules:
//!
//! * **over `$x`** ([`is_distributivity_safe`]): whenever it succeeds for a
//!   recursion body, algorithm Delta may replace Naïve (Theorem 3.2) and a
//!   batch may feed each frontier node once (`BatchSharing::DistinctNodes`);
//! * **over `.`** (`step_distributes`): a path step `E/step` it certifies
//!   is evaluated once for the whole focus set `E` instead of once per
//!   focus node — the interpreter's set route.  Here "occurs" means reading
//!   the focus: `.`, an axis step, `/`, the zero-argument built-ins that
//!   default to the context item, one-argument `id` (anchored at the focus
//!   node's document) and `position()`/`last()`, which are never
//!   distributive.  A path step's right-hand side, predicates and the bodies
//!   of declared functions and nested fixpoints have a focus of their own.
//!
//! The approximation is sound but incomplete — `count($x) >= 1` is
//! distributive yet not derivable — which is why the paper also offers the
//! *distributivity hint* rewrite ([`distributivity_hint`]) and the algebraic
//! check of Section 4.
//!
//! Rule names follow Figure 5 (`VAR`, `IF`, `CONCAT`, `FOR1/2`, `LET1/2`,
//! `TYPESW`, `STEP`, `STEP1/2`, `FUNCALL`, `FIXPOINT`), plus the sound
//! extensions `INDEPENDENT` (the subject does not occur), `EXCEPT` (it
//! occurs only left of `except`/`intersect`) and `BUILTIN` (built-ins
//! applied item-wise).  The side conditions the figure leaves implicit:
//!
//! * **Constructors** are never safe (Section 3.2: fresh identities on every
//!   call), not even behind a declared function ([`reaches_constructor`]):
//!   the `$x` reading checks the whole body, the set route the part it
//!   re-associates — where a constructor would run over fewer focus nodes.
//! * **Calls** resolve as the evaluator runs them (`resolve`): built-ins
//!   first, then declared functions by local name *and* arity.  A built-in
//!   is item-wise in its first argument only for `data`, `id`, `ddo` and
//!   `distinct-doc-order`; the others read their arguments as a whole
//!   (`string`, `name`, `root`, … take the first item).
//! * **`FUNCALL`**: the subject may occur in at most one argument of a call
//!   — the linearity FOR and LET enforce, since `f($x, $x)` pairs items —
//!   that argument must be `ds`, and a declared function's body must be
//!   `ds` for the matching parameter; a parameter already under analysis
//!   further up is assumed safe (the greatest fixed point of the rules),
//!   its arguments still are not.
//! * **`FIXPOINT`**: in `with $y seeded by e_s recurse e_b`, the subject may
//!   occur in the seed only, `e_s` must be `ds` and `e_b` must be `ds_$y`:
//!   a distributive body makes the nested fixpoint distribute over its
//!   seed.

use std::cell::RefCell;
use std::fmt;

use xqy_parser::ast::{local_name, Expr, FunctionDecl, TypeswitchCase};
use xqy_parser::BinaryOp;
use xqy_xdm::Hop;

use crate::builtins::is_builtin;

/// The outcome of the `ds_$x(e)` judgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsJudgement {
    /// `true` when distributivity safety could be derived.
    pub safe: bool,
    /// The rule that concluded the judgement at the root (e.g. `"STEP2"`),
    /// or the reason the derivation failed.
    pub rule: String,
}

/// What a call `name(…)` with some number of arguments runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Callee<'n, D> {
    /// The built-in of this local name.
    Builtin(&'n str),
    /// A declared function.
    Declared(D),
    /// Nothing: evaluating the call is an error.
    Undefined,
}

/// The built-in a call of `name` runs, if any: built-ins win over
/// declarations whatever the prefix, so `fn:` functions cannot be redefined.
pub fn builtin(name: &str) -> Option<&str> {
    let local = local_name(name);
    is_builtin(local).then_some(local)
}

/// The one resolution rule, the evaluator's and the judgement's: a
/// built-in first ([`builtin`]), else the function `declared` under the
/// call's local name and arity.
pub(crate) fn resolve<'n, D>(
    name: &'n str,
    arity: usize,
    declared: impl FnOnce(&'n str, usize) -> Option<D>,
) -> Callee<'n, D> {
    match builtin(name) {
        Some(local) => Callee::Builtin(local),
        None => declared(local_name(name), arity).map_or(Callee::Undefined, Callee::Declared),
    }
}

/// A lookup of declared functions by local name and arity.
pub trait Declared<'a>: Fn(&str, usize) -> Option<&'a FunctionDecl> {}

impl<'a, F: Fn(&str, usize) -> Option<&'a FunctionDecl>> Declared<'a> for F {}

/// The declarations of a module as calls see them (`resolve`): by local
/// name and arity, a later declaration replacing an earlier one (as
/// `Evaluator::register_functions` does).
pub fn declared_in(functions: &[FunctionDecl]) -> impl Declared<'_> {
    move |local: &str, arity: usize| {
        functions
            .iter()
            .rev()
            .find(|f| local_name(&f.name) == local && f.params.len() == arity)
    }
}

/// `true` when `expr`, or the body of a declared function it calls
/// (transitively, each body visited once), contains a node constructor.
/// Nothing is allocated unless `expr` calls a declared function.
pub fn reaches_constructor<'a>(expr: &Expr, declared: &impl Declared<'a>) -> bool {
    fn reaches<'a>(
        expr: &Expr,
        declared: &impl Declared<'a>,
        visited: &mut Vec<&'a FunctionDecl>,
    ) -> bool {
        let mut found = false;
        expr.walk(&mut |e| match e {
            Expr::FunctionCall { name, args } => {
                if let Callee::Declared(decl) = resolve(name, args.len(), declared) {
                    if !visited.iter().any(|v| std::ptr::eq(*v, decl)) {
                        visited.push(decl);
                        found |= reaches(&decl.body, declared, visited);
                    }
                }
            }
            _ => found |= e.is_node_constructor(),
        });
        found
    }
    reaches(expr, declared, &mut Vec::new())
}

/// Check whether `expr` is distributivity-safe for variable `var`
/// (`ds_$var(expr)` of Figure 5).  `functions` are the module's
/// declarations, for the `FUNCALL` rule.
pub fn is_distributivity_safe(expr: &Expr, var: &str, functions: &[FunctionDecl]) -> DsJudgement {
    let declared = declared_in(functions);
    if reaches_constructor(expr, &declared) {
        let rule = "node constructor in expression".into();
        return DsJudgement { safe: false, rule };
    }
    let judge = Judge::new(&declared, true);
    let (safe, rule) = match judge.judge(expr, Subject::Var(var)) {
        Verdict::Independent => (true, "INDEPENDENT".into()),
        Verdict::Safe(rule) => (true, rule.into()),
        Verdict::Unsafe => (false, judge.reason()),
    };
    DsJudgement { safe, rule }
}

/// The judgement over `.`: `true` unless it refuses `expr`.  Allocates
/// nothing unless `expr` calls a declared function: a refusal carries no
/// reason.  Constructors are refused where the judgement visits them; the
/// transitive check is the set route's to make where it matters
/// (`Evaluator::step_over_set` re-associating `E/(p/s)`, the one place it
/// evaluates a part over fewer focus nodes than the per-node reading).
pub(crate) fn focus_distributive<'a>(expr: &Expr, declared: &impl Declared<'a>) -> bool {
    let verdict = Judge::new(declared, false).judge(expr, Subject::Focus);
    !matches!(verdict, Verdict::Unsafe)
}

/// The interpreter's set-route gate: `E/step` over a node-only focus `E`
/// equals `ddo(⋃ₙ n/step)` however `E` is ordered or repeated, because the
/// step yields only nodes ([`yields_only_nodes`]) and the judgement over `.`
/// certifies it ([`focus_distributive`]).
pub(crate) fn step_distributes<'a>(step: &Expr, declared: &impl Declared<'a>) -> bool {
    yields_only_nodes(step) && focus_distributive(step, declared)
}

/// A *kernel step*: `.`, a predicate-free axis step, one-argument `id(p)`
/// or `p/s` over kernel steps.  It reads nothing of its focus but the node,
/// yields only nodes and constructs none, so [`step_distributes`]
/// certifies it and every `/` in it may re-associate: `E/step` is one path
/// join ([`xqy_xdm::pathjoin`]) of its hops ([`kernel_hops`]): a path
/// spine of kernel steps consults neither gate, and the set route never
/// judges re-association inside one.  Purely syntactic: a match per node
/// of `step`, no allocation.
pub(crate) fn is_kernel_step(step: &Expr) -> bool {
    match step {
        Expr::ContextItem => true,
        Expr::AxisStep { predicates, .. } => predicates.is_empty(),
        Expr::Path { input, step } => is_kernel_step(input) && is_kernel_step(step),
        Expr::FunctionCall { name, args } => {
            args.len() == 1 && builtin(name) == Some("id") && is_kernel_step(&args[0])
        }
        _ => false,
    }
}

/// Hand the hops of the kernel step `step` ([`is_kernel_step`], which the
/// caller has checked) to `emit`, left to right.
pub(crate) fn kernel_hops<'e>(step: &'e Expr, emit: &mut impl FnMut(Hop<'e>)) {
    match step {
        Expr::AxisStep { axis, test, .. } => emit(Hop::Step(*axis, test)),
        Expr::Path { input, step } => {
            kernel_hops(input, emit);
            kernel_hops(step, emit);
        }
        Expr::FunctionCall { args, .. } => {
            kernel_hops(&args[0], emit);
            emit(Hop::Id);
        }
        _ => {}
    }
}

/// `true` when every item `expr` yields over a node focus is a node (or its
/// evaluation fails).  Conservative: variables and declared calls say no.
pub(crate) fn yields_only_nodes(expr: &Expr) -> bool {
    match expr {
        Expr::ContextItem | Expr::AxisStep { .. } | Expr::EmptySequence => true,
        Expr::RootPath { step } => step.as_deref().is_none_or(yields_only_nodes),
        Expr::Path { step: last, .. } | Expr::Filter { input: last, .. } => yields_only_nodes(last),
        Expr::If {
            then_branch: a,
            else_branch: b,
            ..
        }
        | Expr::Binary {
            op: BinaryOp::Union | BinaryOp::Intersect | BinaryOp::Except,
            lhs: a,
            rhs: b,
        } => yields_only_nodes(a) && yields_only_nodes(b),
        Expr::FunctionCall { name, .. } => matches!(builtin(name), Some("id" | "doc" | "root")),
        _ => false,
    }
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

/// What the judgement is read over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subject<'a> {
    Var(&'a str),
    Focus,
}

impl Subject<'_> {
    /// `true` when a binder of `var` hides the subject.
    fn bound_by(self, var: &str) -> bool {
        matches!(self, Subject::Var(v) if v == var)
    }
}

impl fmt::Display for Subject<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Var(v) => write!(f, "${v}"),
            Subject::Focus => f.write_str("."),
        }
    }
}

/// One sub-expression's verdict.  `Independent` exactly when the subject
/// does not occur in it: a refusal always means it does.
#[derive(Clone, Copy)]
enum Verdict {
    Independent,
    Safe(&'static str),
    Unsafe,
}

impl Verdict {
    fn occurs(&self) -> bool {
        !matches!(self, Verdict::Independent)
    }

    /// A safe occurrence concluded by `rule`; anything else unchanged.
    fn by(self, rule: &'static str) -> Verdict {
        match self {
            Verdict::Safe(_) => Verdict::Safe(rule),
            other => other,
        }
    }
}

/// A refusal; its reason is formatted only when the judge explains.
macro_rules! refuse {
    ($judge:expr, $($reason:tt)+) => {
        $judge.refuse(format_args!($($reason)+))
    };
}

struct Judge<'d, D> {
    declared: &'d D,
    /// The reason of the latest refusal; `None` when the judge does not
    /// explain itself (formatting allocates).
    reason: Option<RefCell<String>>,
    /// The (function, parameter) pairs whose bodies are under analysis.
    in_progress: RefCell<Vec<(*const FunctionDecl, usize)>>,
}

impl<'d, 'a, D: Declared<'a>> Judge<'d, D> {
    fn new(declared: &'d D, explain: bool) -> Self {
        let reason = explain.then(RefCell::default);
        let in_progress = RefCell::default();
        Judge {
            declared,
            reason,
            in_progress,
        }
    }

    fn refuse(&self, reason: fmt::Arguments<'_>) -> Verdict {
        if let Some(cell) = &self.reason {
            *cell.borrow_mut() = reason.to_string();
        }
        Verdict::Unsafe
    }

    /// The latest refusal's reason, for a refusal that wraps it.
    fn reason(&self) -> String {
        self.reason.as_ref().map(RefCell::take).unwrap_or_default()
    }

    /// CONCAT: every part safe or independent; the first refusal wins.
    fn all(&self, parts: impl Iterator<Item = Verdict>, rule: &'static str) -> Verdict {
        let mut verdict = Verdict::Independent;
        for part in parts {
            match part {
                Verdict::Unsafe => return part,
                Verdict::Safe(_) => verdict = Verdict::Safe(rule),
                Verdict::Independent => {}
            }
        }
        verdict
    }

    fn judge(&self, expr: &Expr, s: Subject<'_>) -> Verdict {
        use Verdict::{Independent, Safe, Unsafe};
        let judge = |e: &Expr| self.judge(e, s);
        match expr {
            Expr::Literal(_) | Expr::EmptySequence => Independent,
            Expr::ContextItem if s == Subject::Focus => Safe("VAR"),
            Expr::VarRef(v) if s.bound_by(v) => Safe("VAR"),
            Expr::ContextItem | Expr::VarRef(_) => Independent,
            Expr::Sequence(items) => self.all(items.iter().map(judge), "CONCAT"),
            Expr::Binary {
                op: BinaryOp::Union,
                lhs,
                rhs,
            } => self.all([lhs, rhs].into_iter().map(|e| judge(e)), "CONCAT"),
            // Sound extension: `e1 except e2` / `e1 intersect e2` with the
            // subject only in e1 (the stratified-Datalog `f(x) = x \ R` case
            // mentioned in Section 6).
            Expr::Binary {
                op: op @ (BinaryOp::Except | BinaryOp::Intersect),
                lhs,
                rhs,
            } => match judge(rhs).occurs() {
                true => refuse!(self, "{s} occurs in the right operand of '{}'", op.symbol()),
                false => judge(lhs).by("EXCEPT"),
            },
            Expr::Binary { op, lhs, rhs } if judge(lhs).occurs() || judge(rhs).occurs() => {
                let op = op.symbol();
                refuse!(
                    self,
                    "operator '{op}' inspects the sequence bound to {s} as a whole"
                )
            }
            Expr::Unary { expr, .. } if judge(expr).occurs() => {
                refuse!(self, "arithmetic over {s} requires a singleton sequence")
            }
            Expr::Binary { .. } | Expr::Unary { .. } => Independent,
            Expr::If { cond, .. } if judge(cond).occurs() => {
                refuse!(self, "{s} occurs free in an if(·) condition")
            }
            Expr::If {
                then_branch,
                else_branch,
                ..
            } => self.all(
                [then_branch, else_branch].into_iter().map(|e| judge(e)),
                "IF",
            ),
            Expr::For {
                var,
                pos_var,
                seq,
                body,
            } => {
                let range = judge(seq);
                if range.occurs() && pos_var.is_some() {
                    // A positional variable over a range the subject reaches
                    // inspects positions within it; stay conservative.
                    return refuse!(self, "positional for-variable over a range containing {s}");
                }
                let hidden = s.bound_by(var) || pos_var.as_deref().is_some_and(|p| s.bound_by(p));
                let body = if hidden { Independent } else { judge(body) };
                match (range.occurs(), body.occurs()) {
                    // The linearity constraint of SQL:1999: not in both.
                    (true, true) => refuse!(
                        self,
                        "{s} occurs in both the range and the body of a for-expression"
                    ),
                    (true, false) => range.by("FOR2"),
                    (false, _) => body.by("FOR1"),
                }
            }
            Expr::Let { var, value, body } => {
                let bound = judge(value);
                let in_body = if s.bound_by(var) {
                    Independent
                } else {
                    judge(body)
                };
                match (bound.occurs(), in_body.occurs()) {
                    (true, true) => refuse!(
                        self,
                        "{s} occurs in both the value and the body of a let-expression"
                    ),
                    // LET2: the subject only in the bound value; the body must
                    // then be distributive in the let-variable.
                    (true, false) => match bound {
                        Unsafe => Unsafe,
                        _ => match self.judge(body, Subject::Var(var)) {
                            Unsafe => {
                                let reason = self.reason();
                                refuse!(self, "let-body is not distributive in ${var}: {reason}")
                            }
                            _ => Safe("LET2"),
                        },
                    },
                    (false, _) => in_body.by("LET1"),
                }
            }
            // some/every quantify over their range; as long as the condition
            // does not inspect the subject, treat like FOR.
            Expr::Quantified { var, cond, .. } if !s.bound_by(var) && judge(cond).occurs() => {
                refuse!(self, "{s} occurs free in a quantifier condition")
            }
            Expr::Quantified { seq, .. } => judge(seq).by("FOR2"),
            Expr::Typeswitch { operand, .. } if judge(operand).occurs() => {
                refuse!(self, "{s} occurs free in a typeswitch operand")
            }
            Expr::Typeswitch { cases, .. } => {
                let case = |c: &TypeswitchCase| match &c.var {
                    Some(v) if s.bound_by(v) => Independent,
                    _ => judge(&c.body),
                };
                self.all(cases.iter().map(case), "TYPESW")
            }
            Expr::Path { input, step } => {
                let input = judge(input);
                // The step has a focus of its own: `.` never reaches it.
                let step = match s {
                    Subject::Focus => Independent,
                    Subject::Var(_) => judge(step),
                };
                match (input.occurs(), step.occurs()) {
                    (true, true) => refuse!(self, "{s} occurs on both sides of a path step"),
                    (true, false) => input.by("STEP2"),
                    (false, _) => step.by("STEP1"),
                }
            }
            // `/` and an axis step read the context node item by item; their
            // steps and predicates have a focus of their own.
            Expr::RootPath { .. } | Expr::AxisStep { .. } if s == Subject::Focus => Safe("STEP"),
            Expr::RootPath { step } => step.as_deref().map_or(Independent, judge),
            Expr::AxisStep { predicates, .. } if predicates.iter().any(|p| judge(p).occurs()) => {
                refuse!(self, "{s} occurs free in a step predicate")
            }
            Expr::AxisStep { .. } => Independent,
            // e[p] with the subject in e inspects positions within the
            // sequence it is bound to (e.g. $x[1]).
            Expr::Filter { input, predicates } => {
                let in_predicates =
                    s != Subject::Focus && predicates.iter().any(|p| judge(p).occurs());
                match in_predicates || judge(input).occurs() {
                    true => refuse!(
                        self,
                        "filter expression over a sequence containing {s} (e.g. $x[1]) is not distributive"
                    ),
                    false => Independent,
                }
            }
            Expr::FunctionCall { name, args } => self.call(name, args, s),
            // A nested IFP: safe if the subject only flows into the seed and
            // the nested body (which has no focus) is distributive in its own
            // variable — then the nested fixpoint distributes over its seed.
            Expr::Fixpoint { var, body, .. }
                if s != Subject::Focus && !s.bound_by(var) && judge(body).occurs() =>
            {
                refuse!(self, "{s} occurs free in a nested recursion body")
            }
            Expr::Fixpoint { var, seed, body } => match judge(seed) {
                Safe(_) => match self.judge(body, Subject::Var(var)) {
                    Unsafe => {
                        let reason = self.reason();
                        refuse!(
                            self,
                            "nested recursion body is not distributive in ${var}: {reason}"
                        )
                    }
                    _ => Safe("FIXPOINT"),
                },
                other => other,
            },
            Expr::DirectElement { .. }
            | Expr::ComputedElement { .. }
            | Expr::ComputedAttribute { .. }
            | Expr::ComputedText { .. } => refuse!(self, "node constructor in expression"),
        }
    }

    fn call(&self, name: &str, args: &[Expr], s: Subject<'_>) -> Verdict {
        use Verdict::{Independent, Safe, Unsafe};
        let local = local_name(name);
        // Linearity, as FOR and LET enforce it: a call may see the subject
        // through one argument only (`f($x, $x)` pairs its items).
        let mut occurrence = None;
        for (i, arg) in args.iter().enumerate() {
            let verdict = self.judge(arg, s);
            if verdict.occurs() {
                if occurrence.is_some() {
                    return refuse!(self, "{s} occurs in more than one argument of {local}()");
                }
                occurrence = Some((i, verdict));
            }
        }
        let decl = match resolve(name, args.len(), self.declared) {
            Callee::Declared(decl) => decl,
            Callee::Builtin(builtin) => {
                // Item-wise in the first argument: the image of a sequence is
                // the union of its items' images.
                let itemwise = matches!(builtin, "data" | "id" | "ddo" | "distinct-doc-order");
                return match (occurrence, s) {
                    (Some((0, arg)), _) if itemwise => arg.by("BUILTIN"),
                    (Some(_), _) => {
                        refuse!(
                            self,
                            "built-in {builtin}() inspects the sequence bound to {s} as a whole"
                        )
                    }
                    (None, Subject::Focus) => match (builtin, args.len()) {
                        ("position" | "last", 0) => {
                            refuse!(self, "{builtin}() reads the focus position")
                        }
                        ("string" | "name" | "local-name" | "node-name" | "root", 0)
                        | ("id", 1) => Safe("BUILTIN"),
                        _ => Independent,
                    },
                    (None, _) => Independent,
                };
            }
            Callee::Undefined => {
                let arity = args.len();
                return occurrence.map_or(Independent, |_| {
                    refuse!(
                        self,
                        "no function {local}() of {arity} arguments is declared"
                    )
                });
            }
        };
        let Some((i, arg)) = occurrence else {
            return Independent;
        };
        // FUNCALL: the argument must be ds, and the body ds for the parameter
        // it binds — assumed for a parameter already under analysis.
        let key = (decl as *const FunctionDecl, i);
        if matches!(arg, Unsafe) || self.in_progress.borrow().contains(&key) {
            return arg.by("FUNCALL");
        }
        self.in_progress.borrow_mut().push(key);
        let param = &decl.params[i];
        let body = self.judge(&decl.body, Subject::Var(param));
        self.in_progress.borrow_mut().pop();
        match body {
            Unsafe => {
                let reason = self.reason();
                refuse!(
                    self,
                    "body of {local}() is not distributive in ${param}: {reason}"
                )
            }
            _ => Safe("FUNCALL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_parser::{parse_expr, parse_query};

    fn module_judgement(query: &str) -> DsJudgement {
        let module = parse_query(query).unwrap();
        is_distributivity_safe(&module.body, "x", &module.functions)
    }

    fn over_focus(step: &str) -> bool {
        focus_distributive(&parse_expr(step).unwrap(), &declared_in(&[]))
    }

    #[test]
    fn calls_resolve_to_built_ins_first_then_by_name_and_arity() {
        let module = parse_query(
            "declare function f($a) { 1 }; declare function f($a, $b) { 2 };\n\
             declare function local:count($a) { 3 }; f(1)",
        )
        .unwrap();
        let declared = declared_in(&module.functions);
        let params = |name: &str, arity| match resolve(name, arity, &declared) {
            Callee::Declared(decl) => Some(decl.params.len()),
            Callee::Builtin(_) | Callee::Undefined => None,
        };
        assert_eq!(params("f", 1), Some(1));
        assert_eq!(params("local:f", 2), Some(2));
        assert_eq!(resolve("f", 3, &declared), Callee::Undefined);
        assert_eq!(resolve("count", 1, &declared), Callee::Builtin("count"));
        assert_eq!(
            resolve("local:count", 1, &declared),
            Callee::Builtin("count")
        );
    }

    #[test]
    fn funcall_follows_the_overload_the_call_runs() {
        // Counterexample: resolved by name alone, f($x) was judged through
        // the two-parameter f, whose body is distributive.
        let j = module_judgement(
            "declare function f($a) { if (count($a) >= 2) then doc('d.xml')/r else () };\n\
             declare function f($a, $b) { $a/b };\n\
             $x/following-sibling::*[1] union f($x)",
        );
        assert!(!j.safe);
        assert!(
            j.rule.contains("body of f() is not distributive in $a"),
            "{}",
            j.rule
        );
        // …and the constructor check follows it too.
        let j = module_judgement(
            "declare function g() { <c/> }; declare function g($n) { $n };\n$x/* union g()",
        );
        assert_eq!(
            (j.safe, j.rule.as_str()),
            (false, "node constructor in expression")
        );
        let j = module_judgement(
            "declare function g() { <c/> }; declare function g($n) { $n };\n$x/* union g($x)",
        );
        assert_eq!((j.safe, j.rule.as_str()), (true, "CONCAT"));
    }

    #[test]
    fn built_ins_win_over_declarations() {
        let j = module_judgement(
            "declare function local:subsequence($a, $b, $c) { $a/self::* };\n\
             $x/following-sibling::*[1] union subsequence($x, 2, 1)/parent::*",
        );
        assert!(!j.safe);
        assert!(j.rule.contains("built-in subsequence()"), "{}", j.rule);
    }

    #[test]
    fn built_ins_are_item_wise_only_where_the_library_is() {
        for body in [
            "id($x/@r)",
            "data($x)",
            "ddo($x/..)",
            "id(./@r, doc('d.xml'))",
        ] {
            assert!(module_judgement(body).safe, "{body}");
        }
        // The first item only, or the anchor of `id`.
        for body in [
            "id(string($x))",
            "id(name($x))",
            "root($x)",
            "id(number($x))",
            "id('n1', $x)",
        ] {
            assert!(!module_judgement(body).safe, "{body}");
        }
    }

    #[test]
    fn recursive_calls_still_judge_their_arguments() {
        let j = module_judgement(
            "declare function f($a, $n) { if ($n > 0) then f($a[1], $n - 1) else $a };\nf($x, 1)",
        );
        assert!(!j.safe);
        assert!(j.rule.contains("filter expression"), "{}", j.rule);
    }

    #[test]
    fn a_path_step_or_predicate_closes_the_focus() {
        for step in [
            ".",
            "child::a",
            "a[1]",
            "a[position() = last()]",
            "./a/b[1]",
            "id(./@r)",
            "id('n1')",
            "/r",
            "(./a, ../b)",
            "(./a except doc('d.xml')//b)",
            "for $i in (1, 2) return ./a",
            "let $y := ./a return $y/b",
            "with $y seeded by ./a recurse $y/b",
            "(1, 2)/position()",
            "string()",
        ] {
            assert!(over_focus(step), "{step}");
        }
        for step in [
            "position()",
            "last()",
            "(./a, position())",
            "if (position() = 1) then . else ()",
            "if (. is ..) then . else ()",
            ".[1]",
            "(./a except ./b)",
            "id(./@r, .)",
            "string(.)",
            "let $y := ./a return ($y, .)",
        ] {
            assert!(!over_focus(step), "{step}");
        }
    }

    #[test]
    fn the_gate_wants_nodes() {
        let gate = |step: &str| step_distributes(&parse_expr(step).unwrap(), &declared_in(&[]));
        assert!(gate("(./a | id(./@r))"));
        assert!(gate("(child::*/(if (doc('d.xml')) then self::* else ()))"));
        assert!(!gate("(./a, 'x')"));
        assert!(!gate("./a/string(.)"));
        assert!(!gate("$e"));
        assert!(!gate("<x/>"));
    }

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
