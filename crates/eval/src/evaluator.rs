//! The tree-walking evaluator.

use std::collections::HashMap;
use std::sync::Arc;

use xqy_parser::ast::{
    local_name, Expr, FunctionDecl, Literal, Occurrence, QueryModule, SequenceType, UnaryOp,
};
use xqy_parser::{parse_query, BinaryOp};
use xqy_xdm::{
    ddo, ddo_vec, intersect, node_except, node_union, AtomicValue, DocId, Hop, IdMap, Interner,
    Item, JoinScratch, NodeId, NodeKind, NodeStore, Sequence, StoreMut, StrId,
};

use crate::compare::{arithmetic, effective_boolean_value, general_pair_compare, value_compare};
use crate::context::{Environment, Focus};
use crate::distributivity::{self, Callee, Declared};
use crate::error::EvalError;
use crate::fixpoint::{self, FixpointInterceptor, FixpointStats, FixpointStrategy};
use crate::Result;
use xqy_xdm::fixpoint::Seeds;

/// Tunable evaluation options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Which algorithm the `with … seeded by … recurse` form uses.
    pub fixpoint_strategy: FixpointStrategy,
    /// When `false` (the default) the IFP follows Definition 2.1 literally:
    /// the accumulation starts from `e_rec(e_seed)` and the seed nodes are
    /// only part of the result if the recursion re-discovers them (this is
    /// what makes `e+`, the *non*-reflexive transitive closure, expressible).
    ///
    /// When `true` the accumulation starts from the seed itself, which is the
    /// reading used by the paper's worked Example 2.4 (its iteration table
    /// lists the seed as the iteration-0 result) and corresponds to the
    /// reflexive closure `e*`.
    pub seed_in_result: bool,
    /// Maximum user-defined function recursion depth.
    pub max_recursion_depth: usize,
    /// Ignored; written only by the ledger adapter until ROADMAP 2a.
    #[doc(hidden)]
    pub fixpoint_threads: usize,
    /// What the fixpoint driver's iteration barrier enforces: the
    /// engine-wide divergence guards (breach: the IFP is *undefined* per
    /// Definition 2.1, [`EvalError::NoFixpoint`]) and the per-query
    /// deadline and budgets ([`EvalError::DeadlineExceeded`] /
    /// [`EvalError::BudgetExceeded`]).  The defaults guard only.
    pub limits: xqy_xdm::fixpoint::Limits,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            fixpoint_strategy: FixpointStrategy::Naive,
            seed_in_result: false,
            max_recursion_depth: 4_096,
            fixpoint_threads: 1,
            limits: xqy_xdm::fixpoint::Limits::default(),
        }
    }
}

/// The XQuery interpreter.
///
/// An `Evaluator` holds a [`StoreMut`] handle for the duration of a query
/// run: either exclusive access to a [`NodeStore`] (the classic single-query
/// path) or a session's [copy-on-write store](xqy_xdm::CowStore) (the
/// concurrent service path, where node constructors clone the shared store
/// privately instead of mutating it).  Document order / ID indexes are
/// refreshed lazily on access either way.
pub struct Evaluator<'s> {
    pub(crate) store: StoreMut<'s>,
    /// Name pool: every variable, parameter and function name the evaluator
    /// touches is interned once, so environments and the function registry
    /// key on `Copy` [`StrId`] symbols instead of `String`s.
    names: Interner,
    /// User-defined functions, shared so a call clones an `Arc` handle
    /// instead of the declaration's whole AST.
    functions: HashMap<(StrId, usize), Arc<FunctionDecl>>,
    globals: Vec<(StrId, Sequence)>,
    options: EvalOptions,
    fixpoint_runs: Vec<FixpointStats>,
    recursion_depth: usize,
    /// Per-occurrence settings overrides, keyed by the occurrence's
    /// `(recursion variable, body)` pair.  Looked up structurally so the
    /// same occurrence matches however many times it is evaluated (per-seed
    /// loops, function bodies cloned at call time, …).  The bodies are
    /// shared `Arc`s so installing overrides is O(occurrences), not
    /// O(AST size).
    occurrence_overrides: Vec<((String, Arc<Expr>), OccurrenceOverrides)>,
    /// Optional hook that may take over fixpoint evaluation (e.g. to drive a
    /// pre-compiled algebraic plan on the relational back-end).
    interceptor: Option<Box<dyn FixpointInterceptor>>,
    /// The path join's buffers and duplicate bitmap, reused by every
    /// path join of this evaluator.
    scratch: JoinScratch,
}

/// The per-occurrence settings a higher layer can install on an evaluator
/// (one record per `(var, body)` pair; see
/// [`Evaluator::set_fixpoint_strategy_for`] and
/// [`Evaluator::set_fixpoint_batch_sharing_for`]), plus which recorded runs
/// were this occurrence's ([`Evaluator::fixpoint_runs_of`]).
#[derive(Debug, Clone, Default)]
struct OccurrenceOverrides {
    /// Algorithm override; `None` falls back to the global
    /// [`EvalOptions::fixpoint_strategy`].
    strategy: Option<FixpointStrategy>,
    /// Batch-sharing grant for the batched source-level driver.
    share: bool,
    /// Indexes into [`Evaluator::fixpoint_runs`] of this occurrence's runs.
    runs: Vec<usize>,
}

impl<'s> Evaluator<'s> {
    /// Create an evaluator over `store` with default options.
    ///
    /// Accepts anything convertible into a [`StoreMut`] handle: a classic
    /// `&mut NodeStore`, or a `&mut CowStore` for copy-on-write execution
    /// over a shared store.
    pub fn new(store: impl Into<StoreMut<'s>>) -> Self {
        Evaluator {
            store: store.into(),
            names: Interner::new(),
            functions: HashMap::new(),
            globals: Vec::new(),
            options: EvalOptions::default(),
            fixpoint_runs: Vec::new(),
            recursion_depth: 0,
            occurrence_overrides: Vec::new(),
            interceptor: None,
            scratch: JoinScratch::default(),
        }
    }

    /// Borrow the underlying node store mutably (a copy-on-write handle
    /// clones the shared store on first use — see [`xqy_xdm::CowStore`]).
    pub fn store(&mut self) -> &mut NodeStore {
        self.store.write()
    }

    /// Borrow the underlying node store for reading (never copies).
    pub fn store_ref(&self) -> &NodeStore {
        self.store.read()
    }

    /// Current options.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Mutable access to the options.
    pub fn options_mut(&mut self) -> &mut EvalOptions {
        &mut self.options
    }

    /// Select the IFP evaluation algorithm (Naïve or Delta).
    pub fn set_fixpoint_strategy(&mut self, strategy: FixpointStrategy) {
        self.options.fixpoint_strategy = strategy;
    }

    /// Override the IFP algorithm for one occurrence, identified by its
    /// `(recursion variable, body)` pair.  Occurrences without an override
    /// use the global [`EvalOptions::fixpoint_strategy`].  This is how the
    /// prepared-query layer applies a *per-occurrence* strategy decision —
    /// Delta for distributive bodies, Naïve for the rest — within one query.
    pub fn set_fixpoint_strategy_for(
        &mut self,
        var: &str,
        body: Arc<Expr>,
        strategy: FixpointStrategy,
    ) {
        self.occurrence_overrides_for(var, body).strategy = Some(strategy);
    }

    /// The mutable override record for `(var, body)`, created on first use.
    fn occurrence_overrides_for(&mut self, var: &str, body: Arc<Expr>) -> &mut OccurrenceOverrides {
        if let Some(idx) = self
            .occurrence_overrides
            .iter()
            .position(|((v, b), _)| v == var && **b == *body)
        {
            return &mut self.occurrence_overrides[idx].1;
        }
        self.occurrence_overrides
            .push(((var.to_string(), body), OccurrenceOverrides::default()));
        &mut self.occurrence_overrides.last_mut().expect("just pushed").1
    }

    /// Grant (or revoke) **batch sharing** for the occurrence `(var, body)`:
    /// when `true`, [`Evaluator::run_fixpoint_batched`]'s source-level
    /// driver may evaluate the recursion body once per *distinct* frontier
    /// node and distribute the images to every owning seed.  Only sound for
    /// **distributive** bodies (`e(X) = ⋃ₓ e({x})`, Theorem 3.2 of the
    /// paper) — the caller certifies distributivity, and the driver trusts
    /// the grant (the prepared-query layer grants
    /// `DistributivityReport::is_distributive`, whose syntactic half refuses
    /// constructors, where its plan decision batches the occurrence).
    /// Occurrences without a grant run group-wise (one body evaluation per
    /// seed per iteration), which is exact for every body.  The grant also
    /// licenses a Delta occurrence's per-item `for` loop to run as one
    /// batch (see [`eval_expr`](Self::eval_expr)).
    pub fn set_fixpoint_batch_sharing_for(&mut self, var: &str, body: Arc<Expr>, share: bool) {
        self.occurrence_overrides_for(var, body).share = share;
    }

    /// `true` when batch sharing has been granted for `(var, body)` via
    /// [`set_fixpoint_batch_sharing_for`](Self::set_fixpoint_batch_sharing_for).
    pub fn fixpoint_batch_sharing_for(&self, var: &str, body: &Expr) -> bool {
        self.overrides(var, body).is_some_and(|o| o.share)
    }

    /// The override record installed for `(var, body)`, if any.
    fn overrides(&self, var: &str, body: &Expr) -> Option<&OccurrenceOverrides> {
        self.occurrence_overrides
            .iter()
            .find(|((v, b), _)| v == var && b.as_ref() == body)
            .map(|(_, o)| o)
    }

    /// Install a [`FixpointInterceptor`] that may take over the evaluation
    /// of IFP occurrences (see the trait docs).
    pub fn set_fixpoint_interceptor(&mut self, interceptor: Box<dyn FixpointInterceptor>) {
        self.interceptor = Some(interceptor);
    }

    /// The strategy that will evaluate the occurrence `(var, body)`.
    pub fn fixpoint_strategy_for(&self, var: &str, body: &Expr) -> FixpointStrategy {
        self.overrides(var, body)
            .and_then(|o| o.strategy)
            .unwrap_or(self.options.fixpoint_strategy)
    }

    /// Statistics of every fixed point computation executed so far, in
    /// execution order.
    pub fn fixpoint_runs(&self) -> &[FixpointStats] {
        &self.fixpoint_runs
    }

    /// Statistics of the most recent fixed point computation, if any.
    pub fn last_fixpoint_stats(&self) -> Option<&FixpointStats> {
        self.fixpoint_runs.last()
    }

    /// The recorded runs of the occurrence `(var, body)` — whichever
    /// back-end (interpreted or intercepted) produced them — in execution
    /// order.  Only occurrences with an installed override record (e.g. a
    /// [`set_fixpoint_strategy_for`](Self::set_fixpoint_strategy_for)
    /// call) are tracked; the prepared-query layer reads what ran from
    /// here once evaluation is over.
    pub fn fixpoint_runs_of(
        &self,
        var: &str,
        body: &Expr,
    ) -> impl Iterator<Item = &FixpointStats> + Clone {
        let runs = self.overrides(var, body).map_or(&[][..], |o| &o.runs);
        runs.iter().map(|&run| &self.fixpoint_runs[run])
    }

    /// Record a run attributed to the occurrence `(var, body)`.
    pub(crate) fn record_fixpoint_run_for(&mut self, var: &str, body: &Expr, stats: FixpointStats) {
        let run = self.fixpoint_runs.len();
        if let Some((_, overrides)) = self
            .occurrence_overrides
            .iter_mut()
            .find(|((v, b), _)| v == var && b.as_ref() == body)
        {
            overrides.runs.push(run);
        }
        self.fixpoint_runs.push(stats);
    }

    /// Register additional user-defined functions (callable from any
    /// subsequently evaluated expression).  Names are interned here, once;
    /// calls look them up by symbol.
    pub fn register_functions(&mut self, functions: &[FunctionDecl]) {
        for f in functions {
            let name = self.names.intern(local_name(&f.name));
            self.functions
                .insert((name, f.params.len()), Arc::new(f.clone()));
        }
    }

    /// Bind a global variable visible to every evaluated expression.  The
    /// name is resolved to its symbol once, here.
    pub fn bind_global(&mut self, name: impl Into<String>, value: Sequence) {
        let name = self.names.intern(&name.into());
        self.globals.push((name, value));
    }

    /// A fresh environment pre-loaded with the global bindings.  Cloning a
    /// global's value is cheap for node sequences (a shared handle); nothing
    /// else is copied — this replaces the old whole-`globals` clone that
    /// every `eval_module` call paid.
    fn env_with_globals(&self) -> Environment {
        let mut env = Environment::with_capacity(self.globals.len());
        for (name, value) in &self.globals {
            env.push(*name, value.clone());
        }
        env
    }

    /// Run **one inflationary fixpoint per seed** of `seeds` for the
    /// occurrence `(var, body)`, returning the per-seed node lists
    /// (index-aligned with `seeds`) and whether they were computed by a
    /// single *batched* multi-source run.
    ///
    /// This is the batched dispatch point of the eval layer, shared by
    /// `PreparedQuery::execute_batched` and the evaluator's own per-item
    /// loops (see [`eval_expr`](Self::eval_expr)'s `for` arm).  A seed that
    /// occurs more than once is computed once and its result replicated.
    /// Routing of the distinct seeds, in order:
    ///
    /// 1. the installed [`FixpointInterceptor`], offered the whole batch
    ///    ([`Seeds::Each`]) — one shared fixpoint over the `(seed, node)`
    ///    relation on the relational back-end (returns `(groups, true)`);
    /// 2. the interceptor again, offered the batch seed by seed
    ///    ([`Seeds::Set`] of one) — one algebraic fixpoint per seed for
    ///    occurrences that compile but are not seed-local;
    /// 3. the **batched source-level route**
    ///    ([`fixpoint::evaluate_fixpoint_batched`]) for occurrences the
    ///    interceptor declines entirely (bodies outside the algebraic
    ///    subset, or no interceptor installed): one run of the shared
    ///    driver over all seeds under the strategy
    ///    [`fixpoint_strategy_for`](Self::fixpoint_strategy_for) reports,
    ///    with the globals bound via [`bind_global`](Self::bind_global) in
    ///    scope.  Distributive bodies (granted via
    ///    [`set_fixpoint_batch_sharing_for`](Self::set_fixpoint_batch_sharing_for))
    ///    additionally evaluate each distinct frontier node once and share
    ///    the image across seeds.
    ///
    /// Every run is recorded in [`fixpoint_runs`](Self::fixpoint_runs):
    /// one entry with [`FixpointStats::batch_seeds`]` > 0` on routes 1 and
    /// 3, one entry per distinct seed on route 2.
    pub fn run_fixpoint_batched(
        &mut self,
        var: &str,
        body: &Expr,
        seeds: &[NodeId],
    ) -> Result<(Vec<Vec<NodeId>>, bool)> {
        let mut env = self.env_with_globals();
        self.run_fixpoint_per_item(var, body, seeds, &mut env)
    }

    /// [`run_fixpoint_batched`](Self::run_fixpoint_batched) with the
    /// source-level routes evaluating `body` under `env`: fold duplicate
    /// items onto one seed each, run the distinct seeds, and expand the
    /// groups back to one per item.
    fn run_fixpoint_per_item(
        &mut self,
        var: &str,
        body: &Expr,
        items: &[NodeId],
        env: &mut Environment,
    ) -> Result<(Vec<Vec<NodeId>>, bool)> {
        let mut index: IdMap<NodeId, usize> =
            IdMap::with_capacity_and_hasher(items.len(), Default::default());
        let mut seeds: Vec<NodeId> = Vec::with_capacity(items.len());
        let positions: Vec<usize> = items
            .iter()
            .map(|&node| {
                *index.entry(node).or_insert_with(|| {
                    seeds.push(node);
                    seeds.len() - 1
                })
            })
            .collect();
        let (groups, batched) = self.run_fixpoint_distinct(var, body, &seeds, env)?;
        if seeds.len() == items.len() {
            return Ok((groups, batched));
        }
        let groups = positions.iter().map(|&i| groups[i].clone()).collect();
        Ok((groups, batched))
    }

    /// The routes of [`run_fixpoint_batched`](Self::run_fixpoint_batched)
    /// over distinct `seeds`.
    fn run_fixpoint_distinct(
        &mut self,
        var: &str,
        body: &Expr,
        seeds: &[NodeId],
        env: &mut Environment,
    ) -> Result<(Vec<Vec<NodeId>>, bool)> {
        if seeds.is_empty() {
            // Zero seeds means zero fixpoints: nothing runs, nothing is
            // recorded (matching a per-seed loop over an empty set).
            return Ok((Vec::new(), false));
        }
        if let Some(groups) = self.intercept(var, body, Seeds::Each(seeds))? {
            debug_assert_eq!(groups.len(), seeds.len());
            return Ok((groups, true));
        }
        let mut groups = Vec::with_capacity(seeds.len());
        for (idx, &seed) in seeds.iter().enumerate() {
            match self.intercept(var, body, Seeds::Set(&[seed]))? {
                Some(mut nodes) => groups.push(nodes.pop().unwrap_or_default()),
                None if idx == 0 => {
                    // The interceptor matches occurrences by `(var, body)`,
                    // so a decline is seed-independent: the whole batch is
                    // source-level.  Run it as one batched fixpoint instead
                    // of one interpreter loop per seed.
                    let strategy = self.fixpoint_strategy_for(var, body);
                    let share = self.fixpoint_batch_sharing_for(var, body);
                    return fixpoint::evaluate_fixpoint_batched(
                        self, var, seeds, body, env, strategy, share,
                    )
                    .map(|groups| (groups, true));
                }
                None => {
                    // Defensive: an interceptor that accepts some seeds but
                    // declines others (none of ours does) still gets exact
                    // per-seed semantics.
                    let strategy = self.fixpoint_strategy_for(var, body);
                    let seed_seq = Sequence::from_nodes(vec![seed]);
                    let nodes =
                        fixpoint::evaluate_fixpoint(self, var, &seed_seq, body, env, strategy)?
                            .nodes();
                    groups.push(nodes);
                }
            }
        }
        Ok((groups, false))
    }

    /// Offer the occurrence `(var, body)` over `seeds` to the installed
    /// interceptor.  `Ok(None)` when there is none or it declines;
    /// otherwise the run is recorded and its per-source node lists (or its
    /// error) returned.
    fn intercept(
        &mut self,
        var: &str,
        body: &Expr,
        seeds: Seeds<'_>,
    ) -> Result<Option<Vec<Vec<NodeId>>>> {
        let Some(interceptor) = self.interceptor.as_mut() else {
            return Ok(None);
        };
        let seed_in_result = self.options.seed_in_result;
        let outcome = interceptor.run_fixpoint(self.store.read(), var, body, seeds, seed_in_result);
        let Some(result) = outcome else {
            return Ok(None);
        };
        let (groups, stats) = result?;
        self.record_fixpoint_run_for(var, body, stats);
        Ok(Some(groups))
    }

    /// **Automatic batching**: the loop `expr`, when
    /// [`per_item_fixpoint`] accepts it, as one
    /// [`run_fixpoint_per_item`](Self::run_fixpoint_per_item) call over its
    /// evaluated `input`, the groups concatenated in item order — what the
    /// per-item loop returns.  `None` (take the loop) unless, besides the
    /// shape, `input` is all nodes and the occurrence is decided Delta and
    /// holds the batch-sharing grant.  Shared frontiers only: under the
    /// grant every seed's frontier node is evaluated once for the batch,
    /// which is where the route wins; Naïve keeps its per-item loop.
    fn batch_per_item_loop(
        &mut self,
        expr: &Expr,
        input: &Sequence,
        env: &mut Environment,
    ) -> Option<Result<Sequence>> {
        if !input.all_nodes() {
            return None;
        }
        let is_global = |v: &str| self.names.get(v).is_some_and(|id| self.is_global(id));
        let Some(Expr::Fixpoint { var, body, .. }) = per_item_fixpoint(expr, is_global) else {
            return None;
        };
        if self.fixpoint_strategy_for(var, body) != FixpointStrategy::Delta
            || !self.fixpoint_batch_sharing_for(var, body)
        {
            return None;
        }
        let items = input.nodes();
        let run = self.run_fixpoint_per_item(var, body, &items, env);
        Some(run.map(|(groups, _)| Sequence::from_nodes(groups.into_iter().flatten())))
    }

    /// `true` when `name` is bound by [`bind_global`](Self::bind_global) or
    /// a module's variable declaration.
    fn is_global(&self, name: StrId) -> bool {
        self.globals.iter().any(|(global, _)| *global == name)
    }

    /// Parse and evaluate a complete query.
    pub fn eval_query_str(&mut self, source: &str) -> Result<Sequence> {
        let module = parse_query(source)?;
        self.eval_module(&module)
    }

    /// Evaluate a parsed query module: register its functions, evaluate its
    /// global variables, then evaluate the body.
    pub fn eval_module(&mut self, module: &QueryModule) -> Result<Sequence> {
        self.register_functions(&module.functions);
        let mut env = self.env_with_globals();
        for (name, expr) in &module.variables {
            let value = self.eval_expr(expr, &mut env, None)?;
            let id = self.names.intern(name);
            env.push(id, value.clone());
            self.globals.push((id, value));
        }
        self.eval_expr(&module.body, &mut env, None)
    }

    /// Evaluate `expr` under `env` with optional focus.
    pub fn eval_expr(
        &mut self,
        expr: &Expr,
        env: &mut Environment,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        match expr {
            Expr::Literal(lit) => Ok(Sequence::singleton(literal_item(lit))),
            Expr::EmptySequence => Ok(Sequence::empty()),
            Expr::VarRef(name) => self
                .names
                .get(name)
                .and_then(|id| env.lookup(id))
                .cloned()
                .ok_or_else(|| EvalError::UndefinedVariable(name.clone())),
            Expr::ContextItem => focus
                .map(|f| Sequence::singleton(f.item.clone()))
                .ok_or(EvalError::MissingContextItem),
            Expr::Sequence(items) => {
                let mut out = Sequence::empty();
                for item in items {
                    out.extend(self.eval_expr(item, env, focus)?);
                }
                Ok(out)
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let test = self.eval_expr(cond, env, focus)?;
                if effective_boolean_value(&test)? {
                    self.eval_expr(then_branch, env, focus)
                } else {
                    self.eval_expr(else_branch, env, focus)
                }
            }
            Expr::For {
                var,
                pos_var,
                seq,
                body,
            } => {
                let input = self.eval_expr(seq, env, focus)?;
                if let Some(result) = self.batch_per_item_loop(expr, &input, env) {
                    return result;
                }
                let var_id = self.names.intern(var);
                let pos_id = pos_var.as_ref().map(|p| self.names.intern(p));
                let mut out = Sequence::empty();
                for (i, item) in input.into_iter().enumerate() {
                    let depth = env.depth();
                    env.push(var_id, Sequence::singleton(item));
                    if let Some(p) = pos_id {
                        env.push(p, Sequence::singleton(Item::integer(i as i64 + 1)));
                    }
                    let result = self.eval_expr(body, env, focus);
                    env.truncate(depth);
                    out.extend(result?);
                }
                Ok(out)
            }
            Expr::Let { var, value, body } => {
                let bound = self.eval_expr(value, env, focus)?;
                let depth = env.depth();
                let var_id = self.names.intern(var);
                env.push(var_id, bound);
                let result = self.eval_expr(body, env, focus);
                env.truncate(depth);
                result
            }
            Expr::Quantified {
                every,
                var,
                seq,
                cond,
            } => {
                let input = self.eval_expr(seq, env, focus)?;
                let var_id = self.names.intern(var);
                let mut result = *every;
                for item in input.into_iter() {
                    let depth = env.depth();
                    env.push(var_id, Sequence::singleton(item));
                    let holds = self
                        .eval_expr(cond, env, focus)
                        .and_then(|s| effective_boolean_value(&s));
                    env.truncate(depth);
                    let holds = holds?;
                    if *every && !holds {
                        result = false;
                        break;
                    }
                    if !*every && holds {
                        result = true;
                        break;
                    }
                }
                Ok(Sequence::singleton(Item::boolean(result)))
            }
            Expr::Typeswitch { operand, cases } => {
                let value = self.eval_expr(operand, env, focus)?;
                for case in cases {
                    let matches = match &case.seq_type {
                        Some(t) => self.matches_sequence_type(&value, t),
                        None => true, // default branch
                    };
                    if matches {
                        let depth = env.depth();
                        if let Some(v) = &case.var {
                            let v = self.names.intern(v);
                            env.push(v, value.clone());
                        }
                        let result = self.eval_expr(&case.body, env, focus);
                        env.truncate(depth);
                        return result;
                    }
                }
                Ok(Sequence::empty())
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, env, focus),
            Expr::Unary { op, expr } => {
                let value = self.eval_expr(expr, env, focus)?;
                let atoms = self.atomize(&value);
                if atoms.is_empty() {
                    return Ok(Sequence::empty());
                }
                if atoms.len() > 1 {
                    return Err(EvalError::Type("unary operator on a sequence".into()));
                }
                let n = atoms[0].to_double();
                let value = match op {
                    UnaryOp::Minus => -n,
                    UnaryOp::Plus => n,
                };
                if value.fract() == 0.0 && matches!(atoms[0], AtomicValue::Integer(_)) {
                    Ok(Sequence::singleton(Item::integer(value as i64)))
                } else {
                    Ok(Sequence::singleton(Item::double(value)))
                }
            }
            Expr::Path { input, step } => self.eval_path(expr, input, step, env, focus),
            Expr::RootPath { step } => {
                let focus = focus.ok_or(EvalError::MissingContextItem)?;
                let node = focus
                    .item
                    .as_node()
                    .ok_or_else(|| EvalError::Type("'/' requires a node context item".into()))?;
                let root = self.store.tree_root(node);
                let root_seq = Sequence::from_nodes(vec![root]);
                match step {
                    None => Ok(root_seq),
                    Some(s) => self.eval_path_step(&root_seq, s, env),
                }
            }
            Expr::AxisStep {
                axis,
                test,
                predicates,
            } => {
                let focus = focus.ok_or(EvalError::MissingContextItem)?;
                let node = focus.item.as_node().ok_or_else(|| {
                    EvalError::Type(format!(
                        "axis step {}::{} requires a node context item",
                        axis.name(),
                        test
                    ))
                })?;
                let candidates = self.store.axis_nodes(node, *axis, test);
                let mut seq = Sequence::from_nodes(candidates);
                for pred in predicates {
                    seq = self.apply_predicate(seq, pred, env)?;
                }
                let ordered = ddo(&self.store, &seq.nodes());
                Ok(Sequence::from_nodes(ordered))
            }
            Expr::Filter { input, predicates } => {
                let mut seq = self.eval_expr(input, env, focus)?;
                for pred in predicates {
                    seq = self.apply_predicate(seq, pred, env)?;
                }
                Ok(seq)
            }
            Expr::FunctionCall { name, args } => self.eval_function_call(name, args, env, focus),
            Expr::DirectElement { .. }
            | Expr::ComputedElement { .. }
            | Expr::ComputedAttribute { .. }
            | Expr::ComputedText { .. } => crate::construct::construct(self, expr, env, focus),
            Expr::Fixpoint { var, seed, body } => {
                let seed_value = self.eval_expr(seed, env, focus)?;
                // Offer node-seeded occurrences to the interceptor first
                // (non-node seeds fall through to evaluate_fixpoint, which
                // reports the type error).
                if self.interceptor.is_some() && seed_value.all_nodes() {
                    let seeds = seed_value.nodes();
                    if let Some(mut groups) = self.intercept(var, body, Seeds::Set(&seeds))? {
                        return Ok(Sequence::from_nodes(groups.pop().unwrap_or_default()));
                    }
                }
                let strategy = self.fixpoint_strategy_for(var, body);
                fixpoint::evaluate_fixpoint(self, var, &seed_value, body, env, strategy)
            }
        }
    }

    // ------------------------------------------------------------------
    // Paths, predicates
    // ------------------------------------------------------------------

    /// The path `expr` = `input/step`.  When the top of its spine
    /// `base/s₁/…/sₙ` is a run of kernel steps, `base` is evaluated and the
    /// run is one path join; otherwise `step` is applied to `input`.
    fn eval_path(
        &mut self,
        expr: &Expr,
        input: &Expr,
        step: &Expr,
        env: &mut Environment,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let Some(base) = spine(expr) else {
            let input_seq = self.eval_expr(input, env, focus)?;
            return self.eval_path_step(&input_seq, step, env);
        };
        let value = self.eval_expr(base, env, focus)?;
        let Some(ids) = value.node_ids() else {
            // Atomic items: step by step, for the general semantics and its
            // errors.
            return self.steps_from(value, expr, base, env);
        };
        let mut nodes = Vec::new();
        let mut run = self.scratch.run(&self.store, ids);
        spine_hops(expr, base, &mut |hop| run.hop(hop));
        run.finish_into(&mut nodes);
        Ok(Sequence::from_nodes(ddo_vec(&self.store, nodes)))
    }

    /// Evaluate a path step `input/step`, combining the per-focus results;
    /// node results come back in distinct document order, mirroring `fs:ddo`.
    ///
    /// A step the judgement over `.` certifies
    /// ([`distributivity::step_distributes`]) is evaluated once for the
    /// whole node-backed `input` ([`step_over_set`](Self::step_over_set)).
    /// Everything else — and any `input` holding non-node items — takes
    /// [`step_per_focus`](Self::step_per_focus), one `Focus` per item, which
    /// is the general semantics.
    pub(crate) fn eval_path_step(
        &mut self,
        input: &Sequence,
        step: &Expr,
        env: &mut Environment,
    ) -> Result<Sequence> {
        match input.node_ids() {
            Some(ids) if distributivity::step_distributes(step, &self.declared()) => {
                let nodes = self.step_over_set(ids, step, env)?;
                Ok(Sequence::from_nodes(ddo_vec(&self.store, nodes)))
            }
            // A node-backed input is read off its id buffer, never
            // materializing an `Item` view of the (possibly large) set.
            Some(ids) => self.step_per_focus(ids.len(), |i| Item::Node(ids[i]), step, env),
            None => self.step_per_focus(input.len(), |i| input.items()[i].clone(), step, env),
        }
    }

    /// `value/s₁/…/sₙ` one step at a time, for the spine of `expr` above
    /// `base` (whose value `value` is).
    fn steps_from(
        &mut self,
        value: Sequence,
        expr: &Expr,
        base: &Expr,
        env: &mut Environment,
    ) -> Result<Sequence> {
        match expr {
            Expr::Path { input, step } if !std::ptr::eq(expr, base) => {
                let input = self.steps_from(value, input, base, env)?;
                self.eval_path_step(&input, step, env)
            }
            _ => Ok(value),
        }
    }

    /// `step` evaluated once per focus item — `size` of them, the `i`-th
    /// being `item(i)` at position `i + 1` — and the results combined in
    /// distinct document order.
    fn step_per_focus(
        &mut self,
        size: usize,
        item: impl Fn(usize) -> Item,
        step: &Expr,
        env: &mut Environment,
    ) -> Result<Sequence> {
        let mut out = Sequence::empty();
        for i in 0..size {
            let focus = Focus {
                item: item(i),
                position: i + 1,
                size,
            };
            out.extend(self.eval_expr(step, env, Some(&focus))?);
        }
        if let Some(ids) = out.node_ids() {
            let ordered = ddo(&self.store, ids);
            Ok(Sequence::from_nodes(ordered))
        } else if out.all_nodes() {
            let ordered = ddo(&self.store, &out.nodes());
            Ok(Sequence::from_nodes(ordered))
        } else if out.nodes().is_empty() {
            Ok(out)
        } else {
            Err(EvalError::Type(
                "path step result mixes nodes and atomic values".into(),
            ))
        }
    }

    /// The distinct nodes of `⋃ₙ step(n)` over the focus nodes `focus`, in
    /// no particular order: the caller puts them in document order once.
    /// Precondition, the gate's: `step` yields only nodes, and the
    /// judgement over `.` certifies it or finds it independent of `.`.  By
    /// the argument of Theorem 3.2 the step applied to the set then equals
    /// the union of its per-node results, whatever the order and
    /// multiplicity of `focus`, so no part sorts.  A kernel step (a chain
    /// of predicate-free axis steps, `.` and one-argument `id()`, however
    /// nested in `p/s` and `id(p)`: `distributivity::is_kernel_step`) is
    /// one path join ([`xqy_xdm::pathjoin`]); the other certified forms split into parts
    /// that keep the precondition — CONCAT, STEP2 and BUILTIN hand the
    /// judgement down to `l | r`, `p` of `p/s` and `p` of `id(p)` — and
    /// what is checked below is what they do not.  Everything else runs
    /// once per focus node.
    fn step_over_set(
        &mut self,
        focus: &[NodeId],
        step: &Expr,
        env: &mut Environment,
    ) -> Result<Vec<NodeId>> {
        if distributivity::is_kernel_step(step) {
            let mut out = Vec::new();
            let mut run = self.scratch.run(&self.store, focus);
            distributivity::kernel_hops(step, &mut |hop| run.hop(hop));
            run.finish_into(&mut out);
            return Ok(out);
        }
        let mut out = match step {
            // `E/(p/s)` is `(E/p)/s` when `s` reads nothing of its focus but
            // the item: then the set `E/p` can stand for every node's own
            // `n/p`.  Anything else — `position()`, `last()` — would see the
            // intermediate set where it should see one node's `n/p`; and a
            // constructor, run once per node of the set `E/p`, would make
            // fewer fresh nodes than once per node of every `n/p`.
            Expr::Path { input, step }
                if distributivity::yields_only_nodes(input)
                    && distributivity::focus_distributive(step, &self.declared())
                    && !distributivity::reaches_constructor(step, &self.declared()) =>
            {
                let mid = self.step_over_set(focus, input, env)?;
                return self.step_over_set(&mid, step, env);
            }
            // One-argument `id` is anchored at the focus node's own
            // document, so the focus is cut into runs of one document and
            // each run resolves its argument nodes against that document in
            // one probe.
            Expr::FunctionCall { name, args }
                if args.len() == 1
                    && distributivity::builtin(name) == Some("id")
                    && distributivity::yields_only_nodes(&args[0]) =>
            {
                let mut out = Vec::new();
                for run in focus.chunk_by(|a, b| a.doc == b.doc) {
                    let arg_nodes = self.step_over_set(run, &args[0], env)?;
                    self.store
                        .lookup_id_nodes(DocId(run[0].doc), &arg_nodes, &mut out);
                }
                out
            }
            Expr::Binary {
                op: BinaryOp::Union,
                lhs,
                rhs,
            } => {
                let mut out = self.step_over_set(focus, lhs, env)?;
                out.extend(self.step_over_set(focus, rhs, env)?);
                out
            }
            // A predicated axis step, a `p/s` or `id(p)` the judgement does
            // not re-associate, and whatever else the gate certified: once
            // per focus node.  Certified, it reads no focus position, so the
            // order and multiplicity of `focus` do not matter.
            _ => {
                return self
                    .step_per_focus(focus.len(), |i| Item::Node(focus[i]), step, env)
                    .map(|s| s.nodes())
            }
        };
        self.scratch.dedupe(&mut out);
        Ok(out)
    }

    fn apply_predicate(
        &mut self,
        input: Sequence,
        pred: &Expr,
        env: &mut Environment,
    ) -> Result<Sequence> {
        let size = input.len();
        let mut out = Sequence::empty();
        for (i, item) in input.iter().enumerate() {
            let focus = Focus {
                item: item.clone(),
                position: i + 1,
                size,
            };
            let value = self.eval_expr(pred, env, Some(&focus))?;
            // Numeric predicate selects by position; otherwise EBV filters.
            let keep = if value.len() == 1 {
                match value.first() {
                    Some(Item::Atomic(a)) if a.is_numeric() => {
                        (a.to_double() - (i as f64 + 1.0)).abs() < f64::EPSILON
                    }
                    _ => effective_boolean_value(&value)?,
                }
            } else {
                effective_boolean_value(&value)?
            };
            if keep {
                out.push(item.clone());
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Operators
    // ------------------------------------------------------------------

    fn eval_binary(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        env: &mut Environment,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        match op {
            BinaryOp::Or => {
                let l = self.eval_expr(lhs, env, focus)?;
                if effective_boolean_value(&l)? {
                    return Ok(Sequence::singleton(Item::boolean(true)));
                }
                let r = self.eval_expr(rhs, env, focus)?;
                Ok(Sequence::singleton(Item::boolean(effective_boolean_value(
                    &r,
                )?)))
            }
            BinaryOp::And => {
                let l = self.eval_expr(lhs, env, focus)?;
                if !effective_boolean_value(&l)? {
                    return Ok(Sequence::singleton(Item::boolean(false)));
                }
                let r = self.eval_expr(rhs, env, focus)?;
                Ok(Sequence::singleton(Item::boolean(effective_boolean_value(
                    &r,
                )?)))
            }
            BinaryOp::Union | BinaryOp::Intersect | BinaryOp::Except => {
                let l = self.eval_expr(lhs, env, focus)?;
                let r = self.eval_expr(rhs, env, focus)?;
                if !l.all_nodes() || !r.all_nodes() {
                    return Err(EvalError::Type(format!(
                        "operands of '{}' must be node sequences",
                        op.symbol()
                    )));
                }
                // Borrow the id buffers where the operands are node-backed
                // (the common case — path results); fall back to extraction
                // for item-built all-node sequences.
                let (lv, rv);
                let ln = match l.node_ids() {
                    Some(ids) => ids,
                    None => {
                        lv = l.nodes();
                        &lv[..]
                    }
                };
                let rn = match r.node_ids() {
                    Some(ids) => ids,
                    None => {
                        rv = r.nodes();
                        &rv[..]
                    }
                };
                let result = match op {
                    BinaryOp::Union => node_union(&self.store, ln, rn),
                    BinaryOp::Intersect => intersect(&self.store, ln, rn),
                    BinaryOp::Except => node_except(&self.store, ln, rn),
                    _ => unreachable!(),
                };
                Ok(Sequence::from_nodes(result))
            }
            BinaryOp::Is | BinaryOp::Precedes | BinaryOp::Follows => {
                let l = self.eval_expr(lhs, env, focus)?;
                let r = self.eval_expr(rhs, env, focus)?;
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::empty());
                }
                let (Some(a), Some(b)) = (l.first_node(), r.first_node()) else {
                    return Err(EvalError::Type(format!(
                        "operands of '{}' must be single nodes",
                        op.symbol()
                    )));
                };
                let result = match op {
                    BinaryOp::Is => a == b,
                    BinaryOp::Precedes => self.store.doc_order(a, b) == std::cmp::Ordering::Less,
                    BinaryOp::Follows => self.store.doc_order(a, b) == std::cmp::Ordering::Greater,
                    _ => unreachable!(),
                };
                Ok(Sequence::singleton(Item::boolean(result)))
            }
            BinaryOp::Range => {
                let l = self.eval_single_integer(lhs, env, focus)?;
                let r = self.eval_single_integer(rhs, env, focus)?;
                match (l, r) {
                    (Some(a), Some(b)) if a <= b => {
                        Ok((a..=b).map(Item::integer).collect::<Sequence>())
                    }
                    _ => Ok(Sequence::empty()),
                }
            }
            op if op.is_general_comparison() => {
                let l = self.eval_expr(lhs, env, focus)?;
                let r = self.eval_expr(rhs, env, focus)?;
                let latoms = self.atomize(&l);
                let ratoms = self.atomize(&r);
                let result = latoms
                    .iter()
                    .any(|a| ratoms.iter().any(|b| general_pair_compare(op, a, b)));
                Ok(Sequence::singleton(Item::boolean(result)))
            }
            BinaryOp::ValueEq
            | BinaryOp::ValueNe
            | BinaryOp::ValueLt
            | BinaryOp::ValueLe
            | BinaryOp::ValueGt
            | BinaryOp::ValueGe => {
                let l = self.eval_expr(lhs, env, focus)?;
                let r = self.eval_expr(rhs, env, focus)?;
                let latoms = self.atomize(&l);
                let ratoms = self.atomize(&r);
                if latoms.is_empty() || ratoms.is_empty() {
                    return Ok(Sequence::empty());
                }
                if latoms.len() > 1 || ratoms.len() > 1 {
                    return Err(EvalError::Type(format!(
                        "value comparison '{}' requires singleton operands",
                        op.symbol()
                    )));
                }
                Ok(Sequence::singleton(Item::boolean(value_compare(
                    op, &latoms[0], &ratoms[0],
                )?)))
            }
            BinaryOp::Add
            | BinaryOp::Sub
            | BinaryOp::Mul
            | BinaryOp::Div
            | BinaryOp::IDiv
            | BinaryOp::Mod => {
                let l = self.eval_expr(lhs, env, focus)?;
                let r = self.eval_expr(rhs, env, focus)?;
                let latoms = self.atomize(&l);
                let ratoms = self.atomize(&r);
                if latoms.is_empty() || ratoms.is_empty() {
                    return Ok(Sequence::empty());
                }
                if latoms.len() > 1 || ratoms.len() > 1 {
                    return Err(EvalError::Type(format!(
                        "arithmetic operator '{}' requires singleton operands",
                        op.symbol()
                    )));
                }
                Ok(Sequence::singleton(Item::Atomic(arithmetic(
                    op, &latoms[0], &ratoms[0],
                )?)))
            }
            other => Err(EvalError::Type(format!(
                "unsupported binary operator '{}'",
                other.symbol()
            ))),
        }
    }

    fn eval_single_integer(
        &mut self,
        expr: &Expr,
        env: &mut Environment,
        focus: Option<&Focus>,
    ) -> Result<Option<i64>> {
        let value = self.eval_expr(expr, env, focus)?;
        let atoms = self.atomize(&value);
        match atoms.len() {
            0 => Ok(None),
            1 => Ok(Some(atoms[0].to_integer()?)),
            _ => Err(EvalError::Type(
                "range operand must be a single integer".into(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Functions
    // ------------------------------------------------------------------

    fn eval_function_call(
        &mut self,
        name: &str,
        args: &[Expr],
        env: &mut Environment,
        focus: Option<&Focus>,
    ) -> Result<Sequence> {
        let callee = distributivity::resolve(name, args.len(), |local, arity| {
            self.function(local, arity).cloned()
        });
        let mut values = Vec::with_capacity(args.len());
        if !matches!(callee, Callee::Undefined) {
            for a in args {
                values.push(self.eval_expr(a, env, focus)?);
            }
        }
        match callee {
            Callee::Builtin(local) => crate::builtins::call_builtin(self, local, &values, focus),
            Callee::Declared(decl) => {
                if self.recursion_depth >= self.options.max_recursion_depth {
                    return Err(EvalError::RecursionLimit(self.options.max_recursion_depth));
                }
                self.recursion_depth += 1;
                // Function bodies see only their parameters and the globals.
                let mut call_env = self.env_with_globals();
                for (param, value) in decl.params.iter().zip(values) {
                    let param = self.names.intern(param);
                    call_env.push(param, value);
                }
                let result = self.eval_expr(&decl.body, &mut call_env, None);
                self.recursion_depth -= 1;
                result
            }
            Callee::Undefined => Err(EvalError::UndefinedFunction {
                name: name.to_string(),
                arity: args.len(),
            }),
        }
    }

    /// The declared function `local` of `arity` parameters.
    fn function(&self, local: &str, arity: usize) -> Option<&Arc<FunctionDecl>> {
        self.functions.get(&(self.names.get(local)?, arity))
    }

    /// The declared functions, as the judgement over `.` resolves calls.
    fn declared(&self) -> impl Declared<'_> + '_ {
        move |local: &str, arity: usize| self.function(local, arity).map(|decl| &**decl)
    }

    // ------------------------------------------------------------------
    // Helpers shared with builtins / construct / fixpoint
    // ------------------------------------------------------------------

    /// Atomize a sequence: nodes become `xs:untypedAtomic` of their string
    /// value, atomic items pass through.  Node values are zero-copy: leaf
    /// payloads and memoized element concatenations come out as shared
    /// handles on the store's text pool, so repeated probes of the same
    /// node allocate nothing (see [`NodeStore::untyped_value`]).
    pub(crate) fn atomize(&self, seq: &Sequence) -> Vec<AtomicValue> {
        seq.iter()
            .map(|item| match item {
                Item::Atomic(a) => a.clone(),
                Item::Node(n) => AtomicValue::Untyped(self.store.untyped_value(*n)),
            })
            .collect()
    }

    /// The string value of a single item.
    pub(crate) fn item_string(&self, item: &Item) -> String {
        match item {
            Item::Atomic(a) => a.string_value(),
            Item::Node(n) => self.store.string_value(*n),
        }
    }

    /// Simple sequence-type matching for `typeswitch`.
    fn matches_sequence_type(&self, value: &Sequence, t: &SequenceType) -> bool {
        let occurrence_ok = match t.occurrence {
            Occurrence::One => value.len() == 1,
            Occurrence::Optional => value.len() <= 1,
            Occurrence::ZeroOrMore => true,
            Occurrence::OneOrMore => !value.is_empty(),
        };
        if !occurrence_ok {
            return false;
        }
        if t.item_type == "empty-sequence()" {
            return value.is_empty();
        }
        value
            .iter()
            .all(|item| self.item_matches_type(item, &t.item_type))
    }

    fn item_matches_type(&self, item: &Item, item_type: &str) -> bool {
        let base = item_type.trim();
        match item {
            Item::Node(n) => {
                let kind = self.store.kind(*n);
                match base {
                    "item()" | "node()" => true,
                    "text()" => kind.is_text(),
                    "comment()" => matches!(kind, NodeKind::Comment(_)),
                    "document-node()" => matches!(kind, NodeKind::Document),
                    _ if base.starts_with("element(") || base == "element()" => {
                        let inner = base
                            .trim_start_matches("element(")
                            .trim_end_matches(')')
                            .trim();
                        kind.is_element()
                            && (inner.is_empty()
                                || inner == "*"
                                || self.store.name(*n).is_some_and(|q| q.local == inner))
                    }
                    _ if base.starts_with("attribute(") || base == "attribute()" => {
                        let inner = base
                            .trim_start_matches("attribute(")
                            .trim_end_matches(')')
                            .trim();
                        kind.is_attribute()
                            && (inner.is_empty()
                                || inner == "*"
                                || self.store.name(*n).is_some_and(|q| q.local == inner))
                    }
                    _ => false,
                }
            }
            Item::Atomic(a) => match base {
                "item()" => true,
                "xs:integer" => matches!(a, AtomicValue::Integer(_)),
                "xs:double" | "xs:decimal" | "xs:float" => {
                    matches!(a, AtomicValue::Double(_) | AtomicValue::Integer(_))
                }
                "xs:string" => matches!(a, AtomicValue::String(_)),
                "xs:boolean" => matches!(a, AtomicValue::Boolean(_)),
                "xs:untypedAtomic" => matches!(a, AtomicValue::Untyped(_)),
                "xs:anyAtomicType" => true,
                _ => false,
            },
        }
    }

    /// Resolve `fn:id(values)` relative to `doc_node`'s document.
    pub(crate) fn lookup_ids(&mut self, doc_node: NodeId, values: &[AtomicValue]) -> Vec<NodeId> {
        let doc = DocId(doc_node.doc);
        let mut out = Vec::new();
        for value in values {
            // Borrow string-shaped values directly — atomized node values
            // already own their text; re-rendering would clone per probe.
            let rendered;
            let text: &str = match value.as_str() {
                Some(s) => s,
                None => {
                    rendered = value.string_value();
                    &rendered
                }
            };
            for token in text.split_whitespace() {
                if let Some(node) = self.store.lookup_id(doc, token) {
                    out.push(node);
                }
            }
        }
        ddo_vec(&self.store, out)
    }

    /// Evaluate the recursion body of an IFP with `var` bound to `value`
    /// (used by the fixpoint algorithms).
    pub(crate) fn eval_with_binding(
        &mut self,
        body: &Expr,
        env: &mut Environment,
        var: &str,
        value: Sequence,
    ) -> Result<Sequence> {
        let depth = env.depth();
        let var = self.names.intern(var);
        env.push(var, value);
        let result = self.eval_expr(body, env, None);
        env.truncate(depth);
        result
    }
}

/// The base of the path `expr` (`base/s₁/…/sₙ`) below the longest run of
/// kernel steps at the top of its spine; `None` when the top step is no
/// kernel step ([`distributivity::is_kernel_step`]).
fn spine(expr: &Expr) -> Option<&Expr> {
    match expr {
        Expr::Path { input, step } if distributivity::is_kernel_step(step) => {
            Some(spine(input).unwrap_or(input))
        }
        _ => None,
    }
}

/// Hand `emit` the hops of the spine of `expr` above its [`spine`] base
/// `base`, in order.
fn spine_hops<'e>(expr: &'e Expr, base: &Expr, emit: &mut impl FnMut(Hop<'e>)) {
    if let Expr::Path { input, step } = expr {
        if !std::ptr::eq(expr, base) {
            spine_hops(input, base, emit);
            distributivity::kernel_hops(step, emit);
        }
    }
}

/// The fixpoint of a per-item loop `for $s in E return with $x seeded by
/// $s recurse b` (no `at`), when `b` reads no variable but `$x` and those
/// `is_global` names — the shape the evaluator may run as one batch, and
/// the one the prepared-query layer prices batched routes for.  `None` for
/// every other expression.
pub fn per_item_fixpoint(expr: &Expr, is_global: impl Fn(&str) -> bool) -> Option<&Expr> {
    let Expr::For {
        var: item,
        pos_var: None,
        body: fixpoint,
        ..
    } = expr
    else {
        return None;
    };
    let Expr::Fixpoint { var, seed, body } = fixpoint.as_ref() else {
        return None;
    };
    let seeded_by_item = matches!(seed.as_ref(), Expr::VarRef(s) if s == item);
    let reads_globals = || {
        body.free_vars()
            .iter()
            .all(|v| v == var || (v != item && is_global(v)))
    };
    (seeded_by_item && reads_globals()).then_some(fixpoint.as_ref())
}

fn literal_item(lit: &Literal) -> Item {
    match lit {
        Literal::Integer(i) => Item::integer(*i),
        Literal::Double(d) => Item::double(*d),
        Literal::String(s) => Item::string(s.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str) -> Sequence {
        let mut store = NodeStore::new();
        let mut eval = Evaluator::new(&mut store);
        eval.eval_query_str(src).unwrap()
    }

    fn eval_err(src: &str) -> EvalError {
        let mut store = NodeStore::new();
        let mut eval = Evaluator::new(&mut store);
        eval.eval_query_str(src).unwrap_err()
    }

    fn eval_with_doc(doc: &str, src: &str) -> (NodeStore, Sequence) {
        let mut store = NodeStore::new();
        store.parse_document_with_uri("doc.xml", doc).unwrap();
        let mut evaluator = Evaluator::new(&mut store);
        let result = evaluator.eval_query_str(src).unwrap();
        (store, result)
    }

    fn ints(seq: &Sequence) -> Vec<i64> {
        seq.iter()
            .map(|i| i.as_atomic().unwrap().to_integer().unwrap())
            .collect()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(ints(&eval("1 + 2 * 3")), vec![7]);
        assert_eq!(ints(&eval("(1 + 2) * 3")), vec![9]);
        assert_eq!(ints(&eval("7 mod 4")), vec![3]);
        assert_eq!(ints(&eval("7 idiv 2")), vec![3]);
        assert_eq!(ints(&eval("-(3) + 5")), vec![2]);
    }

    #[test]
    fn sequences_and_ranges() {
        assert_eq!(ints(&eval("1 to 5")), vec![1, 2, 3, 4, 5]);
        assert_eq!(ints(&eval("(1, 2, (3, 4))")), vec![1, 2, 3, 4]);
        assert!(eval("()").is_empty());
        assert!(eval("5 to 1").is_empty());
    }

    #[test]
    fn flwor_evaluation() {
        assert_eq!(
            ints(&eval("for $x in 1 to 3 return $x * 10")),
            vec![10, 20, 30]
        );
        assert_eq!(
            ints(&eval("for $x at $i in (5, 6, 7) return $i")),
            vec![1, 2, 3]
        );
        assert_eq!(
            ints(&eval("for $x in 1 to 5 where $x mod 2 = 0 return $x")),
            vec![2, 4]
        );
        assert_eq!(ints(&eval("let $x := 4 return $x + 1")), vec![5]);
    }

    #[test]
    fn conditionals_and_quantifiers() {
        assert_eq!(ints(&eval("if (1 < 2) then 10 else 20")), vec![10]);
        assert_eq!(ints(&eval("if (()) then 10 else 20")), vec![20]);
        let t = eval("some $x in (1, 2, 3) satisfies $x > 2");
        assert_eq!(t.items()[0], Item::boolean(true));
        let f = eval("every $x in (1, 2, 3) satisfies $x > 2");
        assert_eq!(f.items()[0], Item::boolean(false));
    }

    #[test]
    fn comparisons_general_and_value() {
        assert_eq!(eval("(1, 2) = (2, 3)").items()[0], Item::boolean(true));
        assert_eq!(eval("(1, 2) = (5, 6)").items()[0], Item::boolean(false));
        assert_eq!(eval("1 eq 1").items()[0], Item::boolean(true));
        assert!(eval("() eq 1").is_empty());
        assert!(matches!(eval_err("(1, 2) eq 1"), EvalError::Type(_)));
    }

    #[test]
    fn logic_short_circuits() {
        // The rhs would raise an error if evaluated.
        assert_eq!(
            eval("false() and (1 idiv 0 = 1)").items()[0],
            Item::boolean(false)
        );
        assert_eq!(
            eval("true() or (1 idiv 0 = 1)").items()[0],
            Item::boolean(true)
        );
    }

    #[test]
    fn path_navigation_over_document() {
        let doc = "<curriculum><course code=\"c1\"><prerequisites><pre_code>c2</pre_code></prerequisites></course><course code=\"c2\"/></curriculum>";
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')/curriculum/course");
        assert_eq!(result.len(), 2);
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')//pre_code");
        assert_eq!(result.len(), 1);
        let (store, result) = eval_with_doc(
            doc,
            "doc('doc.xml')//course[@code='c1']/prerequisites/pre_code",
        );
        assert_eq!(result.len(), 1);
        assert_eq!(store.string_value(result.nodes()[0]), "c2");
    }

    #[test]
    fn predicates_numeric_and_boolean() {
        let doc = "<r><i>1</i><i>2</i><i>3</i></r>";
        let (store, result) = eval_with_doc(doc, "doc('doc.xml')/r/i[2]");
        assert_eq!(store.string_value(result.nodes()[0]), "2");
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')/r/i[. > 1]");
        assert_eq!(result.len(), 2);
        let (store, result) = eval_with_doc(doc, "(doc('doc.xml')/r/i)[last()]");
        assert_eq!(store.string_value(result.nodes()[0]), "3");
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')/r/i[position() < 3]");
        assert_eq!(result.len(), 2);
    }

    /// The set route's gate is the judgement over `.` (plus "nodes only,
    /// no constructor"): what the closed grammar of PR 17 refused at the
    /// top — a predicated axis step, `id` of one — is certified now, and the
    /// set route hands it to the per-focus loop.
    #[test]
    fn the_set_route_gate_follows_the_judgement_over_the_focus() {
        let gate = |src: &str| match xqy_parser::parse_expr(&format!("$e/{src}")).unwrap() {
            Expr::Path { step, .. } => {
                distributivity::step_distributes(&step, &|_: &str, _: usize| None)
            }
            other => panic!("{src}: not a path: {other:?}"),
        };
        for src in [
            ".",
            "a",
            "descendant-or-self::node()",
            "id(./sells/@ref)",
            "fn:id(.)",
            "(./a | id(./@r) union ../b)",
            "(./a/b[1])",
            "(id(./@r)/a[@k = 'v'][last()])",
            "(./a[1]/b)",
            "id(./a[1])",
            "a[1]",
            "a[@k]",
            "id(a[1])",
            "(child::*/(if (position() = 1) then self::* else ()))",
        ] {
            assert!(gate(src), "{src}");
        }
        for src in [
            "position()",
            "(./a/position())",
            "(./a/last())",
            "(./a/string(.))",
            "id(./@r)[1]",
            "id(./@r, .)",
            "idref(./@r)",
            "(./a intersect ./b)",
            "(./a except ./b)",
            "<x/>",
            "(./a/<x/>)",
            "$e",
            "(if (position() = 1) then self::* else ())",
            "(./a, 'k')",
        ] {
            assert!(!gate(src), "{src}");
        }
    }

    /// Re-associated, `f()/y` would run once for the one `<a>` of the set
    /// `$e/a`, not once per (repeated) focus node.
    #[test]
    fn a_constructing_right_hand_side_is_not_reassociated() {
        let mut store = NodeStore::new();
        store
            .parse_document_with_uri("doc.xml", "<r><s><a/></s></r>")
            .unwrap();
        let mut evaluator = Evaluator::new(&mut store);
        let s = evaluator
            .eval_query_str("doc('doc.xml')/r/s")
            .unwrap()
            .nodes()[0];
        evaluator.bind_global("e", Sequence::from_nodes(vec![s, s]));
        let query = "declare function f() { <x><y/></x> };\ncount($e/(./a/(f()/y)))";
        assert_eq!(ints(&evaluator.eval_query_str(query).unwrap()), vec![2]);
    }

    /// Predicated and positional steps, a filtered or two-argument `id`,
    /// and a right-hand side reading the intermediate focus stay off the
    /// path-join kernel; each Table-2 body's spine is one chain of hops
    /// over `$x`.
    #[test]
    fn predicated_and_positional_steps_stay_off_the_kernel() {
        let parse = |src: &str| xqy_parser::parse_expr(src).unwrap();
        let hops = |expr: &Expr| {
            let mut n = 0;
            distributivity::is_kernel_step(expr)
                .then(|| distributivity::kernel_hops(expr, &mut |_| n += 1))
                .map(|()| n)
        };
        for src in [
            "a[1]",
            "a[last()]",
            "a[@id]",
            "a[@ref = 'n1']",
            "id(./a)[1]",
            "id(./a, .)",
            "id(./a[1])",
            "position()",
            "a/(if (position() = 1) then self::* else ())",
            "a/string(.)",
        ] {
            assert_eq!(hops(&parse(src)), None, "{src}");
            let path = parse(&format!("$x/{src}"));
            assert!(spine(&path).is_none(), "{src}");
        }
        for (body, count) in [
            ("$x/id(./sells/@ref)/bidder/id(./@person)", 6),
            ("$x/id(./prerequisites/pre_code)", 3),
            ("$x/id(./parentref/@ref)", 3),
            ("$x/id(./@cont)", 2),
        ] {
            let path = parse(body);
            let base = spine(&path).unwrap();
            assert!(matches!(base, Expr::VarRef(x) if x == "x"), "{body}");
            let mut n = 0;
            spine_hops(&path, base, &mut |_| n += 1);
            assert_eq!(n, count, "{body}");
        }
        // Only the run above the last non-kernel step joins.
        let path = parse("$x/a[1]/b/id(./@r)");
        let base = spine(&path).unwrap();
        assert!(
            matches!(base, Expr::Path { step, .. } if hops(step).is_none()),
            "{base:?}"
        );
    }

    #[test]
    fn attribute_and_parent_axes() {
        let doc = "<r><a id=\"x\"><b/></a></r>";
        let (store, result) = eval_with_doc(doc, "doc('doc.xml')//a/@id");
        assert_eq!(result.len(), 1);
        assert_eq!(store.string_value(result.nodes()[0]), "x");
        let (store, result) = eval_with_doc(doc, "doc('doc.xml')//b/../@id");
        assert_eq!(store.string_value(result.nodes()[0]), "x");
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')//b/ancestor::r");
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn node_set_operations() {
        let doc = "<r><a/><b/><c/></r>";
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')/r/a union doc('doc.xml')/r/b");
        assert_eq!(result.len(), 2);
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')/r/* except doc('doc.xml')/r/b");
        assert_eq!(result.len(), 2);
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')/r/* intersect doc('doc.xml')/r/b");
        assert_eq!(result.len(), 1);
        // Union removes duplicates and restores document order.
        let (store, result) = eval_with_doc(
            doc,
            "(doc('doc.xml')/r/c union doc('doc.xml')/r/a) union doc('doc.xml')/r/a",
        );
        assert_eq!(result.len(), 2);
        assert_eq!(store.name(result.nodes()[0]).unwrap().local, "a");
    }

    #[test]
    fn node_identity_and_order_comparisons() {
        let doc = "<r><a/><b/></r>";
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')/r/a is doc('doc.xml')/r/a");
        assert_eq!(result.items()[0], Item::boolean(true));
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')/r/a << doc('doc.xml')/r/b");
        assert_eq!(result.items()[0], Item::boolean(true));
        let (_, result) = eval_with_doc(doc, "doc('doc.xml')/r/a >> doc('doc.xml')/r/b");
        assert_eq!(result.items()[0], Item::boolean(false));
    }

    #[test]
    fn user_defined_functions_and_recursion() {
        let result = eval(
            "declare function fact($n) { if ($n <= 1) then 1 else $n * fact($n - 1) };\nfact(5)",
        );
        assert_eq!(ints(&result), vec![120]);

        let result = eval("declare function twice($x) { ($x, $x) };\ncount(twice((1, 2, 3)))");
        assert_eq!(ints(&result), vec![6]);
    }

    #[test]
    fn runaway_recursion_is_bounded() {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.options_mut().max_recursion_depth = 64;
        let err = evaluator
            .eval_query_str("declare function loop($n) { loop($n + 1) };\nloop(0)")
            .unwrap_err();
        assert!(matches!(err, EvalError::RecursionLimit(_)));
    }

    #[test]
    fn declared_variables_are_visible_in_functions() {
        let doc = "<r><a/></r>";
        let mut store = NodeStore::new();
        store.parse_document_with_uri("doc.xml", doc).unwrap();
        let mut evaluator = Evaluator::new(&mut store);
        let result = evaluator
            .eval_query_str(
                "declare variable $d := doc('doc.xml');\n\
                 declare function f() { $d//a };\ncount(f())",
            )
            .unwrap();
        assert_eq!(ints(&result), vec![1]);
    }

    #[test]
    fn typeswitch_dispatches_on_kind() {
        let doc = "<r><a/>text</r>";
        let (_, result) = eval_with_doc(
            doc,
            "for $n in doc('doc.xml')/r/node() return typeswitch ($n) \
             case element(a) return 'elem' case text() return 'text' default return 'other'",
        );
        let strings: Vec<String> = result
            .iter()
            .map(|i| i.as_atomic().unwrap().string_value())
            .collect();
        assert_eq!(strings, vec!["elem", "text"]);
    }

    #[test]
    fn undefined_names_error_cleanly() {
        assert!(matches!(eval_err("$nope"), EvalError::UndefinedVariable(_)));
        assert!(matches!(
            eval_err("no-such-function(1)"),
            EvalError::UndefinedFunction { .. }
        ));
        assert!(matches!(
            eval_err("doc('missing.xml')"),
            EvalError::DocumentNotFound(_)
        ));
    }

    #[test]
    fn a_per_item_fixpoint_loop_batches_only_in_its_exact_shape() {
        // Element ancestors of the `b`s, three distinct seeds.
        const ITEMS: &str = "doc('doc.xml')//b";
        let run = |query: &str, body: &str, strategy, grant| {
            let mut store = NodeStore::new();
            let doc = "<r><a><b/><b/></a><c><b/></c></r>";
            store.parse_document_with_uri("doc.xml", doc).unwrap();
            let mut evaluator = Evaluator::new(&mut store);
            evaluator.set_fixpoint_strategy(strategy);
            let body = Arc::new(xqy_parser::parse_expr(body).unwrap());
            evaluator.set_fixpoint_batch_sharing_for("x", body, grant);
            evaluator.bind_global("g", Sequence::empty());
            let twin = query.replacen("for $s in", "for $s at $i in", 1);
            let looped = evaluator.eval_query_str(&twin).unwrap().nodes();
            let loop_runs = evaluator.fixpoint_runs().len();
            let result = evaluator.eval_query_str(query).unwrap().nodes();
            assert_eq!(result, looped, "{query}");
            let runs = &evaluator.fixpoint_runs()[loop_runs..];
            runs.iter().map(|s| s.batch_seeds).collect::<Vec<_>>()
        };
        let per_item = |items: &str, body: &str| {
            format!("for $s in {items} return with $x seeded by $s recurse {body}")
        };
        let up = "$x/parent::*";
        let delta = FixpointStrategy::Delta;
        assert_eq!(run(&per_item(ITEMS, up), up, delta, true), [3]);
        // Duplicate items fold onto one seed each and are replicated.
        let twice = format!("({ITEMS}, {ITEMS})");
        assert_eq!(run(&per_item(&twice, up), up, delta, true), [3]);
        let reads_global = "$x/parent::* union $g";
        assert_eq!(
            run(&per_item(ITEMS, reads_global), reads_global, delta, true),
            [3]
        );
        // Each condition, broken alone, keeps the loop.
        assert_eq!(run(&per_item(ITEMS, up), up, delta, false), [0, 0, 0]);
        let naive = FixpointStrategy::Naive;
        assert_eq!(run(&per_item(ITEMS, up), up, naive, true), [0, 0, 0]);
        let reads_item = "$x/parent::* union $s/self::c";
        assert_eq!(
            run(&per_item(ITEMS, reads_item), reads_item, delta, true),
            [0, 0, 0]
        );
        let local = format!(
            "let $l := () return {}",
            per_item(ITEMS, "$x/parent::* union $l")
        );
        assert_eq!(run(&local, "$x/parent::* union $l", delta, true), [0, 0, 0]);
        let parent_seeded =
            format!("for $s in {ITEMS} return with $x seeded by $s/.. recurse {up}");
        assert_eq!(run(&parent_seeded, up, delta, true), [0, 0, 0]);
        let positioned =
            format!("for $s at $p in {ITEMS} return with $x seeded by $s recurse {up}");
        assert_eq!(run(&positioned, up, delta, true), [0, 0, 0]);
    }

    #[test]
    fn context_item_errors_when_absent() {
        assert!(matches!(eval_err("."), EvalError::MissingContextItem));
        assert!(matches!(eval_err("/r"), EvalError::MissingContextItem));
    }
}
