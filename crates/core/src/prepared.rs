//! The prepared-query API: parse / analyse / compile **once**, execute
//! **many** times.
//!
//! The paper's whole pitch is that the expensive decision work — the
//! distributivity analysis of Figure 5 and Section 4, and the compilation of
//! recursion bodies into algebraic plans — is *query-sized*, not data-sized:
//! it can be paid once per query and amortized over arbitrarily many
//! executions.  [`Engine::prepare`] produces a [`PreparedQuery`] that has
//! already parsed the source, run both distributivity approximations per IFP
//! occurrence, chosen a strategy (Naïve / Delta) for each occurrence, and
//! pre-compiled the bodies that lie inside the algebraic subset;
//! [`PreparedQuery::execute`] then runs the artifact against the engine's
//! current document store, with externally bound variables supplied through
//! [`Bindings`].
//!
//! # The plan and its executors
//!
//! Preparation consults no store, and executing never writes to the
//! artifact: a [`PreparedQuery`] is an immutable plan, so one
//! `Arc<PreparedQuery>` serves any number of concurrent executions — over
//! different stores, snapshots and bindings.  What *does* change while a
//! fixpoint runs belongs to the execution: an execution whose plan decision
//! routes an occurrence through the relational executor makes one
//! [`Executor`], which drives every occurrence of the query and both of an
//! occurrence's plans, and drops it when it ends.  An executor keeps no
//! table from one run to the next and no string at all, so there is
//! nothing a later execution could reuse, and nothing about a cached plan
//! can go stale.
//!
//! ```
//! use xqy_ifp::{Bindings, Engine};
//!
//! let mut engine = Engine::new();
//! engine
//!     .load_document_with_ids(
//!         "curriculum.xml",
//!         r#"<curriculum>
//!              <course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
//!              <course code="c2"><prerequisites/></course>
//!            </curriculum>"#,
//!         &["code"],
//!     )
//!     .unwrap();
//! // Analysis and plan compilation happen here, once.
//! let prepared = engine
//!     .prepare("with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)")
//!     .unwrap();
//! assert_eq!(prepared.external_variables(), ["seed"]);
//! // ... and are reused for every seed we execute with.
//! for code in ["c1", "c2"] {
//!     let seed = engine
//!         .run(&format!("doc('curriculum.xml')/curriculum/course[@code='{code}']"))
//!         .unwrap()
//!         .result;
//!     let bindings = Bindings::new().with("seed", seed);
//!     let outcome = prepared.execute(&mut engine, &bindings).unwrap();
//!     assert!(outcome.result.len() <= 1);
//! }
//! ```

use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Instant;

use xqy_algebra::{
    compile_recursion_body, AlgebraError, BatchSharing, CompiledBody, ExecStats, Executor,
};
use xqy_eval::distributivity::is_distributivity_safe;
use xqy_eval::evaluator::per_item_fixpoint;
use xqy_eval::{
    EvalError, Evaluator, FixpointBackendTag, FixpointInterceptor, FixpointStats, FixpointStrategy,
};
use xqy_parser::ast::{Expr, QueryModule};
use xqy_parser::parse_query;
use xqy_xdm::fixpoint::{Limits, Seeds};
use xqy_xdm::{NodeId, NodeStore, QueryBudget, Sequence, StoreMut};

use crate::engine::{DistributivityReport, Engine, QueryOutcome, Strategy};
use crate::{IfpError, Result};

/// Which back-end executes the fixpoint occurrences of a prepared query.
///
/// Every other part of a query — paths, FLWOR, functions, constructors — is
/// always evaluated by the source-level interpreter; the knob decides who
/// drives the `with … seeded by … recurse` iterations, which is where all
/// the repeated work lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The source-level interpreter runs the recursion body per iteration
    /// (the paper's "Saxon role").  This is the default: it supports the
    /// full expression subset.
    #[default]
    SourceLevel,
    /// Every IFP occurrence is driven by its pre-compiled algebraic plan on
    /// the relational executor (the paper's "MonetDB/Pathfinder role", µ and
    /// µ∆).  Preparing succeeds even for bodies outside the algebraic
    /// subset, but executing reports [`xqy_algebra::AlgebraError::Unsupported`].
    Algebraic,
    /// Per occurrence, by the plan rule ([`PreparedOccurrence::plan`]):
    /// the relational executor for a batch whose body has a seed-carried
    /// plan, the interpreter for everything else.
    Auto,
}

impl Backend {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::SourceLevel => "source-level",
            Backend::Algebraic => "algebraic",
            Backend::Auto => "auto",
        }
    }
}

/// Values for the external (free) variables of a prepared query.
///
/// A query such as `with $x seeded by $seed recurse …` leaves `$seed`
/// unbound; each [`PreparedQuery::execute`] call supplies it here.  Names
/// are given without the leading `$`.
///
/// ```
/// use xqy_ifp::Bindings;
/// use xqy_ifp::xdm::Sequence;
///
/// let bindings = Bindings::new()
///     .with("seed", Sequence::empty())
///     .with("limit", Sequence::empty());
/// assert_eq!(bindings.len(), 2);
/// assert!(bindings.get("seed").is_some());
/// assert!(bindings.get("other").is_none());
/// assert_eq!(
///     bindings.iter().map(|(name, _)| name).collect::<Vec<_>>(),
///     ["seed", "limit"]
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    vars: Vec<(String, Sequence)>,
}

impl Bindings {
    /// No bindings.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Builder-style: add (or replace) a binding and return `self`.
    pub fn with(mut self, name: impl Into<String>, value: Sequence) -> Self {
        self.set(name, value);
        self
    }

    /// Add or replace a binding.
    pub fn set(&mut self, name: impl Into<String>, value: Sequence) {
        let name = name.into();
        if let Some(slot) = self.vars.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.vars.push((name, value));
        }
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Sequence> {
        self.vars.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Iterate over all `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Sequence)> {
        self.vars.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// `true` when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

/// One IFP occurrence of a prepared query: its analysis results, the
/// strategy chosen for it, and (when the body lies inside the algebraic
/// subset) its pre-compiled plan.
#[derive(Debug, Clone)]
pub struct PreparedOccurrence {
    var: String,
    /// Shared so per-execute bookkeeping (strategy overrides, interceptor
    /// entries) is O(occurrences), not O(AST size).
    body: Arc<Expr>,
    report: DistributivityReport,
    strategy: FixpointStrategy,
    compiled: std::result::Result<Arc<CompiledBody>, String>,
    /// The occurrence is the whole body of a per-item loop, `for $s in E
    /// return with $x seeded by $s recurse b`, whose `b` reads no variable
    /// but `$x` and the module's globals and externals
    /// ([`per_item_fixpoint`]): the evaluator may run the loop as one
    /// batch, so [`PreparedQuery::execute`] offers it the batched route.
    per_item_loop: bool,
}

impl PreparedOccurrence {
    /// The recursion variable (without the `$`).
    pub fn variable(&self) -> &str {
        &self.var
    }

    /// The distributivity assessment of the occurrence's body.
    pub fn report(&self) -> &DistributivityReport {
        &self.report
    }

    /// The strategy chosen for this occurrence (per-occurrence under
    /// [`Strategy::Auto`]: Delta when either approximation certifies
    /// distributivity, Naïve otherwise).
    pub fn strategy(&self) -> FixpointStrategy {
        self.strategy
    }

    /// `true` when the body compiled to an algebraic plan, i.e. the
    /// occurrence can run on the relational back-end.
    pub fn is_algebraic_capable(&self) -> bool {
        self.compiled.is_ok()
    }

    /// `true` when the body additionally has a **seed-carried batched
    /// plan**, i.e. a whole seed set can run as one multi-source fixpoint
    /// through [`PreparedQuery::execute_batched`] instead of one fixpoint
    /// per seed.
    pub fn is_batch_capable(&self) -> bool {
        self.compiled
            .as_ref()
            .map(|c| c.batched_plan.is_some())
            .unwrap_or(false)
    }

    /// The plan rule: the grid point one execution runs this occurrence at
    /// under the `backend` knob, for an `execute_batched` call (`batch`) or
    /// any other.  It reads nothing but the knobs and the analysis, never
    /// the store:
    ///
    /// * **Strategy** — [`strategy`](Self::strategy): the forced one, else
    ///   Delta when the body is certified distributive (Theorem 3.2) and
    ///   Naïve otherwise.
    /// * **Batching** — batched whenever a batched route is offered: to an
    ///   `execute_batched` call, and to a per-item loop the evaluator can
    ///   batch (Delta over a certified body).  A batch never does more body
    ///   work than its per-seed loop.  The executor's batched route needs
    ///   the seed-carried plan, so a forced [`Backend::Algebraic`] without
    ///   one runs per seed.
    /// * **Back-end** — the forced one, else the relational executor for a
    ///   batch with a seed-carried plan (one set evaluation per round) and
    ///   the interpreter for everything else.
    ///
    /// # Errors
    /// A forced [`Backend::Algebraic`] over a body outside the algebraic
    /// subset.
    pub fn plan(&self, backend: Backend, batch: bool) -> Result<PlanAlternative> {
        let strategy = self.strategy;
        let offered = batch
            || (self.per_item_loop
                && strategy == FixpointStrategy::Delta
                && self.report.is_distributive());
        let backend = match (backend, &self.compiled) {
            (Backend::SourceLevel, _) => FixpointBackendTag::Interpreted,
            (Backend::Algebraic, Ok(_)) => FixpointBackendTag::Algebraic,
            (Backend::Algebraic, Err(reason)) => {
                return Err(IfpError::Algebra(xqy_algebra::AlgebraError::Unsupported(
                    format!(
                        "recursion body of ${} is outside the algebraic subset: {reason}",
                        self.var
                    ),
                )))
            }
            (Backend::Auto, _) if offered && self.is_batch_capable() => {
                FixpointBackendTag::Algebraic
            }
            (Backend::Auto, _) => FixpointBackendTag::Interpreted,
        };
        Ok(PlanAlternative {
            strategy,
            backend,
            batched: offered
                && (backend == FixpointBackendTag::Interpreted || self.is_batch_capable()),
        })
    }
}

/// One point of the `{strategy} × {backend} × {batching}` plan grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanAlternative {
    /// The iteration algorithm (Figure 3): Naïve or Delta.
    pub strategy: FixpointStrategy,
    /// Who drives the iterations: the source-level interpreter or the
    /// relational executor.
    pub backend: FixpointBackendTag,
    /// `true` for the batched multi-source route (all seeds in one shared
    /// fixpoint), `false` for one fixpoint per seed.
    pub batched: bool,
}

/// Who settled an occurrence's plan for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionSource {
    /// The plan rule ([`PreparedOccurrence::plan`]) under a
    /// [`Strategy::Auto`] or [`Backend::Auto`] knob.
    Rule,
    /// Both knobs name a value; only the batching bit was left to the rule.
    Forced,
}

/// The per-occurrence execution decision recorded in a [`QueryOutcome`]:
/// which algorithm, back-end and batching ran each `with … recurse`
/// occurrence and who decided, in syntactic order (index-aligned with
/// `QueryOutcome::distributivity`).  The wall time of each run is
/// [`FixpointStats::wall_micros`] in `QueryOutcome::fixpoints`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccurrencePlan {
    /// The recursion variable of the occurrence.
    pub variable: String,
    /// The algorithm that ran the occurrence.
    pub strategy: FixpointStrategy,
    /// The back-end that drove the occurrence.
    pub backend: FixpointBackendTag,
    /// `true` when the occurrence ran as a single batched multi-source
    /// fixpoint: under [`execute_batched`](PreparedQuery::execute_batched),
    /// or as the body of a per-item `for` loop the evaluator batched.
    pub batched: bool,
    /// Who settled the plan: the knobs or the plan rule.
    pub decided_by: DecisionSource,
}

/// Per-query resource budgets, enforced cooperatively at the fixpoint
/// driver's iteration barrier — one barrier for every back-end and batching
/// mode, the same place the engine's own divergence limits are checked — so
/// a query over budget aborts between iterations, never mid-mutation.
///
/// Unlike the engine-wide safety nets (`Limits::max_iterations` /
/// `Limits::max_nodes`, whose breach means "the IFP is undefined"),
/// exceeding a caller-supplied limit here is a *resource* verdict: a typed
/// [`EvalError::BudgetExceeded`] (or `DeadlineExceeded`) carrying the
/// occurrence and iteration count, which the query service maps to
/// `ServiceError::ResourceExhausted` / `DeadlineExceeded`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceLimits {
    /// Cap on any single fixpoint accumulator's size, in nodes.
    pub max_result_nodes: Option<usize>,
    /// Approximate cap on bytes materialized on behalf of the query
    /// (charged at `TextPool` / `Sequence` / store-arena / executor relation growth
    /// points, see [`xqy_xdm::budget`]).  Before failing, the drivers
    /// degrade once: store memos and executor run caches are dropped
    /// (and credited back).
    pub max_memory_bytes: Option<u64>,
    /// Cap on any single fixpoint occurrence's iteration count.
    pub max_iterations: Option<usize>,
    /// Cooperative per-query deadline: fixpoint drivers — source-level and
    /// algebraic — check it at every iteration barrier and abort with
    /// [`EvalError::DeadlineExceeded`] once the instant has passed.
    /// `None` never times out.
    pub deadline: Option<Instant>,
}

/// Per-execution settings for [`PreparedQuery::execute_on`].
///
/// [`PreparedQuery::execute`] derives these from the engine (and never sets
/// limits); engine-less callers — the concurrent query service — build
/// them directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Start each IFP accumulation from the seed itself (see
    /// [`Engine::set_seed_in_result`]).
    pub seed_in_result: bool,
    /// Per-query resource budgets (deadline included).
    pub limits: ResourceLimits,
}

/// A parsed, analysed and (where possible) compiled query, ready to be
/// executed any number of times — concurrently, through one shared
/// reference.  Create with [`Engine::prepare`]; see the [module docs](self)
/// for the amortization story and for how the immutable plan is kept apart
/// from the executors that run it.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    module: QueryModule,
    backend: Backend,
    /// The strategy knob as given, which fixed each occurrence's
    /// algorithm at prepare time; a decision reads it for `decided_by`.
    strategy: Strategy,
    default_strategy: FixpointStrategy,
    occurrences: Vec<PreparedOccurrence>,
    external_vars: Vec<String>,
}

impl PreparedQuery {
    /// Parse and analyse `query` without an [`Engine`]: the standalone
    /// entry point for callers that hold no engine — e.g. a concurrent
    /// query service preparing plans into a shared cache.  Preparation is
    /// purely static (no store is consulted), so the artifact can later be
    /// executed against any store via
    /// [`execute_on`](PreparedQuery::execute_on).
    pub fn new(query: &str, strategy: Strategy, backend: Backend) -> Result<Self> {
        let module = parse_query(query)?;
        Ok(PreparedQuery::analyse_module(module, strategy, backend))
    }

    /// Analyse `module`: collect its IFP occurrences, run both
    /// distributivity approximations on each, choose a per-occurrence
    /// strategy under `strategy`, and pre-compile the algebraic plans.
    pub(crate) fn analyse_module(
        module: QueryModule,
        strategy: Strategy,
        backend: Backend,
    ) -> Self {
        let occurrences = analyse_occurrences(&module, strategy);
        let external_vars = external_variables(&module);
        let default_strategy = strategy.forced().unwrap_or(FixpointStrategy::Naive);
        PreparedQuery {
            module,
            backend,
            strategy,
            default_strategy,
            occurrences,
            external_vars,
        }
    }

    /// The back-end the fixpoint occurrences will run on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Select the back-end for the fixpoint occurrences.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// Builder-style [`set_backend`](Self::set_backend).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The IFP occurrences of the query, in syntactic order.
    pub fn occurrences(&self) -> &[PreparedOccurrence] {
        &self.occurrences
    }

    /// The distributivity reports, one per occurrence in syntactic order.
    pub fn distributivity(&self) -> Vec<DistributivityReport> {
        self.occurrences.iter().map(|o| o.report.clone()).collect()
    }

    /// The external (free) variables the query expects from [`Bindings`]
    /// at execution time, sorted by name and given without the `$`.
    pub fn external_variables(&self) -> &[String] {
        &self.external_vars
    }

    /// The parsed module.
    pub fn module(&self) -> &QueryModule {
        &self.module
    }

    /// Every occurrence's plan by [the rule](PreparedOccurrence::plan),
    /// for an `execute_batched` call (`batch`) or any other.
    fn decide_plans(&self, batch: bool) -> Result<Vec<PlanDecision>> {
        let source = if self.strategy.forced().is_some() && self.backend != Backend::Auto {
            DecisionSource::Forced
        } else {
            DecisionSource::Rule
        };
        self.occurrences
            .iter()
            .map(|occ| {
                let alternative = occ.plan(self.backend, batch)?;
                Ok(PlanDecision {
                    alternative,
                    source,
                    plan: occ
                        .compiled
                        .as_ref()
                        .ok()
                        .filter(|_| alternative.backend == FixpointBackendTag::Algebraic)
                        .cloned(),
                    share: alternative.batched && occ.report.is_distributive(),
                })
            })
            .collect()
    }

    /// The interceptor entries for the occurrences whose decision routes
    /// through the relational executor.
    fn plan_entries(&self, decisions: &[PlanDecision]) -> Vec<PlanEntry> {
        self.occurrences
            .iter()
            .zip(decisions)
            .filter_map(|(occ, decision)| {
                decision.plan.as_ref().map(|compiled| PlanEntry {
                    var: occ.var.clone(),
                    body: occ.body.clone(),
                    compiled: compiled.clone(),
                    strategy: decision.alternative.strategy,
                    share: decision.share,
                })
            })
            .collect()
    }

    /// The per-occurrence report of one execution: the decided plan,
    /// corrected by what `evaluator` logged as the occurrence's first run
    /// where that differs (a per-item loop over items that are not all
    /// nodes runs per seed).  Without an evaluator (the runs were inner
    /// executions') the report is the decisions'.
    fn occurrence_plans(
        &self,
        decisions: &[PlanDecision],
        evaluator: Option<&Evaluator<'_>>,
    ) -> Vec<OccurrencePlan> {
        self.occurrences
            .iter()
            .zip(decisions)
            .map(|(occ, decision)| {
                let ran = evaluator
                    .and_then(|e| e.fixpoint_runs_of(&occ.var, &occ.body).next())
                    .and_then(|run| {
                        Some(PlanAlternative {
                            strategy: run.strategy?,
                            backend: run.backend,
                            batched: run.batch_seeds > 0,
                        })
                    });
                let alternative = ran.unwrap_or(decision.alternative);
                OccurrencePlan {
                    variable: occ.var.clone(),
                    strategy: alternative.strategy,
                    backend: alternative.backend,
                    batched: alternative.batched,
                    decided_by: decision.source,
                }
            })
            .collect()
    }

    /// Execute the prepared query against `engine`'s current document store
    /// with the external variables bound from `bindings`.
    ///
    /// No parsing, distributivity analysis or plan compilation happens here
    /// — only evaluation.  Documents loaded into the engine *after*
    /// [`Engine::prepare`] are visible, since preparation is purely static.
    pub fn execute(&self, engine: &mut Engine, bindings: &Bindings) -> Result<QueryOutcome> {
        let opts = ExecOptions {
            seed_in_result: engine.seed_in_result,
            limits: ResourceLimits::default(),
        };
        self.execute_on(&mut engine.store, bindings, &opts)
    }

    /// Execute against any store handle — a `&mut NodeStore` or a session's
    /// `&mut CowStore` — without an [`Engine`].  This is the concurrent
    /// service's entry point: N sessions execute one shared
    /// `Arc<PreparedQuery>` simultaneously, each over its own copy-on-write
    /// view of the published store, with a per-query deadline from `opts`.
    pub fn execute_on<'s>(
        &self,
        store: impl Into<StoreMut<'s>>,
        bindings: &Bindings,
        opts: &ExecOptions,
    ) -> Result<QueryOutcome> {
        for var in &self.external_vars {
            if bindings.get(var).is_none() {
                return Err(IfpError::UnboundVariable(var.clone()));
            }
        }
        let store: StoreMut<'s> = store.into();
        let decisions = self.decide_plans(false)?;
        let _budget_scope = install_budget(&opts.limits);
        let mut evaluator = self.evaluator(store, opts, &decisions);
        for (name, value) in bindings.iter() {
            evaluator.bind_global(name, value.clone());
        }

        let result = evaluator.eval_module(&self.module)?;
        Ok(QueryOutcome {
            result,
            distributivity: self.distributivity(),
            occurrences: self.occurrence_plans(&decisions, Some(&evaluator)),
            fixpoints: evaluator.fixpoint_runs().to_vec(),
        })
    }

    /// The evaluator every execution route runs on: options and limits
    /// from `opts`, the decided algorithm and batch-sharing grant per
    /// occurrence, and — only when a decision routes through the relational
    /// executor — the interceptor that drives those decisions on an
    /// executor of its own, dropped with the evaluator.
    fn evaluator<'s>(
        &self,
        store: StoreMut<'s>,
        opts: &ExecOptions,
        decisions: &[PlanDecision],
    ) -> Evaluator<'s> {
        let mut evaluator = Evaluator::new(store);
        let options = evaluator.options_mut();
        options.seed_in_result = opts.seed_in_result;
        options.limits = Limits {
            deadline: opts.limits.deadline,
            budget_iterations: opts.limits.max_iterations,
            max_result_nodes: opts.limits.max_result_nodes,
            ..options.limits
        };
        evaluator.set_fixpoint_strategy(self.default_strategy);
        for (occ, decision) in self.occurrences.iter().zip(decisions) {
            let strategy = decision.alternative.strategy;
            evaluator.set_fixpoint_strategy_for(&occ.var, occ.body.clone(), strategy);
            evaluator.set_fixpoint_batch_sharing_for(&occ.var, occ.body.clone(), decision.share);
        }
        let entries = self.plan_entries(decisions);
        if !entries.is_empty() {
            evaluator.set_fixpoint_interceptor(Box::new(PlanDriver {
                entries,
                executor: Executor::new(),
                limits: evaluator.options().limits,
            }));
        }
        evaluator
    }

    /// The single IFP occurrence a batched execution can dispatch through
    /// the eval layer: the module body must be exactly
    /// `with $var seeded by $seed_var recurse <body>` (no declared
    /// variables, no further occurrences), so that binding `$seed_var` to
    /// one node and executing is precisely "run that occurrence's fixpoint
    /// over that seed".
    fn batched_occurrence(&self, seed_var: &str) -> Option<&PreparedOccurrence> {
        if !self.module.variables.is_empty() || self.occurrences.len() != 1 {
            return None;
        }
        let Expr::Fixpoint { var, seed, body } = &self.module.body else {
            return None;
        };
        if !matches!(seed.as_ref(), Expr::VarRef(v) if v == seed_var) {
            return None;
        }
        let occ = &self.occurrences[0];
        if occ.var != *var || *occ.body != **body {
            return None;
        }
        Some(occ)
    }

    /// Execute **one fixpoint per seed node of `seeds`** — the per-item
    /// workload shape — sharing as much work across the seeds as the query
    /// allows.
    ///
    /// Semantically this is exactly
    ///
    /// ```text
    /// for each item s of seeds (in order, duplicates included):
    ///     execute(engine, bindings + { seed_var ↦ (s) })
    /// ```
    ///
    /// with the per-seed results returned individually
    /// ([`BatchedOutcome::per_seed`]) and concatenated
    /// ([`QueryOutcome::result`]).  Operationally, when the query is a
    /// single `with $x seeded by $seed_var recurse …` whose body compiled
    /// to a [seed-local plan](xqy_algebra::Plan::seed_carried) (and the
    /// back-end allows the relational executor), all seeds run as **one
    /// batched multi-source fixpoint** over a `(seed, node)` relation —
    /// every body scan, join and duplicate elimination is shared, and
    /// Delta's difference is applied per seed by grouping on the seed
    /// column.  Bodies **outside** the algebraic subset batch too: the
    /// source-level interpreter runs one shared Figure-3 loop over all
    /// seeds, evaluating distributive bodies once per distinct frontier
    /// node ([`FixpointStats::batch_seeds`] reports the batch size either
    /// way).  [`BatchedOutcome::batched`] reports whether a batched route
    /// ran; only non-seed-local algebraic plans (and non-fixpoint query
    /// shapes) still run one fixpoint per seed, with results identical
    /// either way.
    ///
    /// A query that loops over the seeds itself — `for $s in $seed return
    /// (with $x seeded by $s recurse …)` — gets the shared-frontier batch
    /// from plain [`execute`](Self::execute) when its body is distributive
    /// and decided Delta (see the evaluator's per-item loops).
    ///
    /// `bindings` supplies every external variable except `seed_var`
    /// (a `seed_var` entry, if present, is ignored — the seeds come from
    /// `seeds`).  Duplicate seeds are computed once and replicated;
    /// an empty `seeds` yields an empty outcome with zero fixpoint runs.
    ///
    /// ```
    /// use xqy_ifp::{Backend, Bindings, Engine};
    ///
    /// let mut engine = Engine::new();
    /// engine
    ///     .load_document_with_ids(
    ///         "curriculum.xml",
    ///         r#"<curriculum>
    ///              <course code="c1"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
    ///              <course code="c2"><prerequisites/></course>
    ///            </curriculum>"#,
    ///         &["code"],
    ///     )
    ///     .unwrap();
    /// let prepared = engine
    ///     .prepare("with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)")
    ///     .unwrap()
    ///     .with_backend(Backend::Auto);
    /// // All courses at once: one batched fixpoint instead of one per course.
    /// let seeds = engine.run("doc('curriculum.xml')/curriculum/course").unwrap().result;
    /// let batch = prepared
    ///     .execute_batched(&mut engine, "seed", &seeds, &Bindings::new())
    ///     .unwrap();
    /// assert!(batch.batched);
    /// assert_eq!(batch.per_seed.len(), 2);
    /// assert_eq!(batch.per_seed[0].len(), 1); // c1 → { c2 }
    /// assert_eq!(batch.per_seed[1].len(), 0); // c2 → ∅
    /// assert_eq!(batch.outcome.batch_seeds(), 2);
    /// ```
    pub fn execute_batched(
        &self,
        engine: &mut Engine,
        seed_var: &str,
        seeds: &Sequence,
        bindings: &Bindings,
    ) -> Result<BatchedOutcome> {
        let opts = ExecOptions {
            seed_in_result: engine.seed_in_result,
            limits: ResourceLimits::default(),
        };
        self.execute_batched_on(&mut engine.store, seed_var, seeds, bindings, &opts)
    }

    /// [`execute_batched`](Self::execute_batched) against any store handle
    /// and under explicit [`ExecOptions`] — the batched counterpart of
    /// [`execute_on`](Self::execute_on), and the way to run a batch under
    /// [`ResourceLimits`].
    pub fn execute_batched_on<'s>(
        &self,
        store: impl Into<StoreMut<'s>>,
        seed_var: &str,
        seeds: &Sequence,
        bindings: &Bindings,
        opts: &ExecOptions,
    ) -> Result<BatchedOutcome> {
        for var in &self.external_vars {
            if var != seed_var && bindings.get(var).is_none() {
                return Err(IfpError::UnboundVariable(var.clone()));
            }
        }
        let mut store: StoreMut<'s> = store.into();
        if seeds.all_nodes() {
            if let Some(occ) = self.batched_occurrence(seed_var) {
                let decisions = self.decide_plans(true)?;
                return self.execute_batched_fixpoint(
                    store, occ, seed_var, seeds, bindings, opts, decisions,
                );
            }
        }
        // General fallback: the query is not a bare fixpoint over
        // `$seed_var` (or the seeds are not all nodes, and the per-seed
        // execution must surface the evaluator's type error) — run the
        // module once per seed item, exactly as the contract reads.
        // The outer report is the per-execute decisions.
        let decisions = self.decide_plans(false)?;
        let occurrences = self.occurrence_plans(&decisions, None);
        let mut result = Sequence::empty();
        let mut per_seed = Vec::with_capacity(seeds.len());
        let mut fixpoints = Vec::new();
        for item in seeds.iter() {
            let per_item = bindings
                .clone()
                .with(seed_var, Sequence::singleton(item.clone()));
            let outcome = self.execute_on(store.reborrow(), &per_item, opts)?;
            result.extend(outcome.result.clone());
            per_seed.push(outcome.result);
            fixpoints.extend(outcome.fixpoints);
        }
        Ok(BatchedOutcome {
            outcome: QueryOutcome {
                result,
                distributivity: self.distributivity(),
                occurrences,
                fixpoints,
            },
            per_seed,
            batched: false,
        })
    }

    /// The eval-layer route of [`execute_batched`](Self::execute_batched):
    /// dispatch the single occurrence through
    /// [`Evaluator::run_fixpoint_batched`], which tries the batched
    /// interceptor first and falls back per seed (algebraic, then
    /// source-level) when the occurrence declines.
    #[allow(clippy::too_many_arguments)]
    fn execute_batched_fixpoint(
        &self,
        store: StoreMut<'_>,
        occ: &PreparedOccurrence,
        seed_var: &str,
        seeds: &Sequence,
        bindings: &Bindings,
        opts: &ExecOptions,
        decisions: Vec<PlanDecision>,
    ) -> Result<BatchedOutcome> {
        let _budget_scope = install_budget(&opts.limits);
        let mut evaluator = self.evaluator(store, opts, &decisions);
        // The source-level fallback evaluates the recursion body directly;
        // give it the module's functions and the non-seed externals.
        evaluator.register_functions(&self.module.functions);
        for (name, value) in bindings.iter() {
            if name != seed_var {
                evaluator.bind_global(name, value.clone());
            }
        }

        let (groups, batched) =
            evaluator.run_fixpoint_batched(&occ.var, &occ.body, &seeds.nodes())?;
        let per_seed: Vec<Sequence> = groups.into_iter().map(Sequence::from_nodes).collect();
        let mut result = Sequence::empty();
        for seq in &per_seed {
            result.extend(seq.clone());
        }
        Ok(BatchedOutcome {
            outcome: QueryOutcome {
                result,
                distributivity: self.distributivity(),
                occurrences: self.occurrence_plans(&decisions, Some(&evaluator)),
                fixpoints: evaluator.fixpoint_runs().to_vec(),
            },
            per_seed,
            batched,
        })
    }
}

/// Install the per-query memory budget of `limits`, if any, on this thread:
/// the growth points of the data model and the relational executor charge
/// the installed cell and the fixpoint driver checks it at its iteration
/// barrier.
fn install_budget(limits: &ResourceLimits) -> Option<xqy_xdm::budget::BudgetScope> {
    limits
        .max_memory_bytes
        .map(|bytes| xqy_xdm::budget::install(QueryBudget::new(bytes)))
}

/// The result of a [`PreparedQuery::execute_batched`] call: the aggregate
/// [`QueryOutcome`] plus the per-seed result slices and the dispatch route
/// that produced them.
#[derive(Debug, Clone)]
pub struct BatchedOutcome {
    /// The aggregate outcome.  `outcome.result` is the concatenation of the
    /// per-seed results in seed order; `outcome.fixpoints` holds one entry
    /// with [`FixpointStats::batch_seeds`]` > 0` when the batched fast path
    /// ran, one entry per (unique) seed otherwise.
    pub outcome: QueryOutcome,
    /// One result sequence per input seed, index-aligned with the `seeds`
    /// argument (duplicated seeds see their shared result replicated).
    pub per_seed: Vec<Sequence>,
    /// `true` when the seeds ran as a **single batched multi-source
    /// fixpoint** — on the relational back-end (seed-carried plan) or
    /// through the batched source-level driver.  `false` when they ran one
    /// fixpoint per seed: a forced algebraic back-end over a body without
    /// a seed-carried plan, or non-fixpoint query shapes.
    pub batched: bool,
}

/// The plan one execution decided for one occurrence: the grid point, its
/// provenance, and (for the algebraic routes) the compiled plan to drive.
struct PlanDecision {
    alternative: PlanAlternative,
    source: DecisionSource,
    /// `Some` iff `alternative.backend` is algebraic.
    plan: Option<Arc<CompiledBody>>,
    /// The batch-sharing grant (`BatchSharing::DistinctNodes`) every route
    /// reads: the decision batches the occurrence and
    /// `DistributivityReport::is_distributive` certifies its body.
    share: bool,
}

/// One interceptor entry: an occurrence whose decision routes through the
/// relational executor, with its pre-compiled plan.
struct PlanEntry {
    var: String,
    body: Arc<Expr>,
    compiled: Arc<CompiledBody>,
    strategy: FixpointStrategy,
    /// The grant of `BatchSharing::DistinctNodes` for a batch
    /// ([`PlanDecision::share`]), which the source-level routes read too.
    share: bool,
}

/// The [`FixpointInterceptor`] installed by [`PreparedQuery::execute`]: it
/// recognises occurrences by their `(var, body)` pair and drives their
/// pre-compiled plans through the relational executor.  The
/// [`CompiledBody`] is the prepared query's, shared by every execution; the
/// [`Executor`] is this execution's, and serves every seed of a per-item
/// loop.
struct PlanDriver {
    entries: Vec<PlanEntry>,
    executor: Executor,
    /// What the iteration barrier enforces, installed on the entry's
    /// executor before each run: the same limits the evaluator runs under.
    limits: Limits,
}

impl PlanEntry {
    /// The eval-layer statistics of a run `executor` just finished for this
    /// entry, given its run-cache counters from before the run.
    fn stats(&self, executor: &Executor, run: ExecStats, before: (u64, u64)) -> FixpointStats {
        FixpointStats {
            strategy: Some(self.strategy),
            backend: FixpointBackendTag::Algebraic,
            static_cache_hits: executor.static_cache_hits() - before.0,
            static_plan_evals: executor.static_plan_evals() - before.1,
            ..run.into()
        }
    }
}

/// Map an executor failure to the eval-layer error the interceptor
/// contract reports: barrier verdicts stay **typed** — and gain the
/// occurrence variable — so the service can distinguish (and attribute) a
/// timeout or an exhausted budget; everything else is carried as an opaque
/// back-end message.
fn backend_error(var: &str, err: AlgebraError) -> EvalError {
    match err {
        AlgebraError::Limit(limit) => xqy_eval::fixpoint::limit_error(var, limit),
        other => EvalError::Backend(other.to_string()),
    }
}

impl FixpointInterceptor for PlanDriver {
    fn run_fixpoint(
        &mut self,
        store: &NodeStore,
        var: &str,
        body: &Expr,
        seeds: Seeds<'_>,
        seed_in_result: bool,
    ) -> Option<xqy_eval::Result<(Vec<Vec<NodeId>>, FixpointStats)>> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.var == var && *e.body == *body)?;
        let (plan, sharing) = match seeds {
            Seeds::Set(_) => (&entry.compiled.plan, BatchSharing::PerSeed),
            Seeds::Each(_) => {
                // Bodies outside the seed-local subset have no seed-carried
                // plan: decline the batch, so the evaluator offers it seed
                // by seed.
                let batched_plan = entry.compiled.batched_plan.as_ref()?;
                // Distributive bodies (`e(X) = ⋃ₓ e({x})`, certified by
                // either approximation) additionally share body scans
                // between seeds whose frontiers overlap: each distinct
                // node is evaluated once per run.
                // Non-distributive seed-local bodies keep strict per-seed
                // rows.
                let sharing = if entry.share {
                    BatchSharing::DistinctNodes
                } else {
                    BatchSharing::PerSeed
                };
                (batched_plan, sharing)
            }
        };
        let executor = &mut self.executor;
        executor.limits = self.limits;
        let before = (executor.static_cache_hits(), executor.static_plan_evals());
        let strategy = entry.strategy;
        Some(
            executor
                .run_fixpoint_groups(store, plan, seeds, strategy, seed_in_result, sharing)
                .map(|(groups, run)| (groups, entry.stats(executor, run, before)))
                .map_err(|err| backend_error(var, err)),
        )
    }
}

/// Analyse every IFP occurrence of `module`: run both distributivity
/// approximations, choose a per-occurrence strategy under `strategy`, and
/// compile the algebraic plan when the body lies inside the subset.
pub(crate) fn analyse_occurrences(
    module: &QueryModule,
    strategy: Strategy,
) -> Vec<PreparedOccurrence> {
    let mut occurrences = Vec::new();
    for (var, body, per_item_loop) in collect_occurrences(module) {
        let syntactic = is_distributivity_safe(&body, &var, &module.functions);
        let compiled = compile_recursion_body(&body, &var)
            .map(Arc::new)
            .map_err(|e| e.to_string());
        let (algebraic, blocked) = match &compiled {
            Ok(c) => (
                Some(c.distributivity.distributive),
                c.distributivity.blocked_by.clone(),
            ),
            Err(_) => (None, None),
        };
        let report = DistributivityReport {
            variable: var.clone(),
            syntactic: syntactic.safe,
            syntactic_rule: syntactic.rule,
            algebraic,
            algebraic_blocked_by: blocked,
        };
        let chosen = strategy.forced().unwrap_or(if report.is_distributive() {
            FixpointStrategy::Delta
        } else {
            FixpointStrategy::Naive
        });
        occurrences.push(PreparedOccurrence {
            var,
            body: Arc::new(body),
            report,
            strategy: chosen,
            compiled,
            per_item_loop,
        });
    }
    occurrences
}

/// Collect the `(recursion variable, body, per-item loop)` of every IFP
/// occurrence in the module, in syntactic order (functions, then variable
/// declarations, then the main body) — the order
/// `QueryOutcome::distributivity` reports.  The flag is
/// [`PreparedOccurrence::per_item_loop`].
fn collect_occurrences(module: &QueryModule) -> Vec<(String, Expr, bool)> {
    // The module's globals and externals, computed on the first question.
    let globals: OnceCell<Vec<String>> = OnceCell::new();
    let is_global = |v: &str| {
        let globals = globals.get_or_init(|| {
            let declared = module.variables.iter().map(|(name, _)| name.clone());
            external_variables(module)
                .into_iter()
                .chain(declared)
                .collect()
        });
        globals.iter().any(|g| g == v)
    };
    let mut bodies: Vec<(String, Expr, bool)> = Vec::new();
    // The fixpoints that are a per-item loop's whole body; `walk` visits
    // the loop before its body.
    let mut loop_bodies: Vec<*const Expr> = Vec::new();
    let mut collect = |expr: &Expr| {
        expr.walk(&mut |e| match e {
            Expr::For { .. } => {
                if let Some(fixpoint) = per_item_fixpoint(e, is_global) {
                    loop_bodies.push(fixpoint);
                }
            }
            Expr::Fixpoint { var, body, .. } => {
                let per_item_loop = loop_bodies.contains(&(e as *const Expr));
                bodies.push((var.clone(), body.as_ref().clone(), per_item_loop));
            }
            _ => {}
        });
    };
    for f in &module.functions {
        collect(&f.body);
    }
    for (_, v) in &module.variables {
        collect(v);
    }
    collect(&module.body);
    bodies
}

/// The external variables of a module: every free variable that is not
/// satisfied by a `declare variable` of the module itself (function bodies
/// see their parameters and the globals, mirroring the evaluator's scoping).
fn external_variables(module: &QueryModule) -> Vec<String> {
    use std::collections::HashSet;
    let declared: HashSet<&str> = module.variables.iter().map(|(n, _)| n.as_str()).collect();
    let mut out: Vec<String> = Vec::new();
    let add = |v: String, out: &mut Vec<String>| {
        if !out.contains(&v) {
            out.push(v);
        }
    };
    // Declared variables are evaluated in order; each initializer may use
    // the variables declared before it (and the externals).
    let mut seen: HashSet<String> = HashSet::new();
    for (name, expr) in &module.variables {
        for v in expr.free_vars() {
            if !seen.contains(&v) {
                add(v, &mut out);
            }
        }
        seen.insert(name.clone());
    }
    for f in &module.functions {
        for v in f.body.free_vars() {
            if !f.params.contains(&v) && !declared.contains(v.as_str()) {
                add(v, &mut out);
            }
        }
    }
    for v in module.body.free_vars() {
        if !declared.contains(v.as_str()) {
            add(v, &mut out);
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_parser::parse_query;

    fn externals(src: &str) -> Vec<String> {
        external_variables(&parse_query(src).unwrap())
    }

    #[test]
    fn external_variables_respect_declarations_and_binders() {
        assert_eq!(externals("with $x seeded by $seed recurse $x/*"), ["seed"]);
        assert!(
            externals("declare variable $seed := <a/>; with $x seeded by $seed recurse $x/*")
                .is_empty()
        );
        assert_eq!(
            externals("for $s in $input return ($s, $extra)"),
            ["extra", "input"]
        );
        assert!(externals("let $y := 1 return $y").is_empty());
    }

    #[test]
    fn function_parameters_are_not_external() {
        assert_eq!(
            externals(
                "declare function f($a) { $a union $shared };\n\
                 f($start)"
            ),
            ["shared", "start"]
        );
    }

    #[test]
    fn bindings_replace_and_lookup() {
        let mut b = Bindings::new().with("x", Sequence::empty());
        assert!(b.get("x").is_some());
        assert!(b.get("y").is_none());
        b.set("x", Sequence::empty());
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert_eq!(Backend::Auto.name(), "auto");
        assert_eq!(Backend::default(), Backend::SourceLevel);
    }

    /// The plan rule, as a table: every knob pair × distributivity verdict
    /// × what compiled (nothing, a per-seed plan, a seed-carried plan too)
    /// × call (`execute`, `execute_batched`, a per-item loop under
    /// `execute`), each row checked against the rule's clauses.
    #[test]
    fn the_plan_rule_decides_every_row_of_the_grid() {
        use FixpointBackendTag::{Algebraic, Interpreted};
        const BODIES: [(&str, bool); 2] = [
            ("$x/id(./prerequisites/pre_code)", true),
            (
                "if (count($x) > 1) then $x/self::course else $x/id(./prerequisites/pre_code)",
                false,
            ),
        ];
        let seed_carried =
            compile_recursion_body(&xqy_parser::parse_expr(BODIES[0].0).unwrap(), "x")
                .map(Arc::new)
                .unwrap();
        assert!(seed_carried.batched_plan.is_some());
        let per_seed = Arc::new(CompiledBody {
            batched_plan: None,
            ..(*seed_carried).clone()
        });
        let compiled = [Err("outside".to_string()), Ok(per_seed), Ok(seed_carried)];
        let mut rows = 0;
        for strategy_knob in [Strategy::Auto, Strategy::Naive, Strategy::Delta] {
            for backend_knob in [Backend::Auto, Backend::SourceLevel, Backend::Algebraic] {
                for (body, certified) in BODIES {
                    for compiled in &compiled {
                        for (batch, per_item_loop) in [(false, false), (true, false), (false, true)]
                        {
                            let query = format!("with $x seeded by $seed recurse {body}");
                            let mut plan =
                                PreparedQuery::new(&query, strategy_knob, backend_knob).unwrap();
                            let occ = &mut plan.occurrences[0];
                            assert_eq!(occ.report.is_distributive(), certified);
                            occ.compiled = compiled.clone();
                            occ.per_item_loop = per_item_loop;
                            let seed_carried =
                                matches!(compiled, Ok(c) if c.batched_plan.is_some());
                            let row = format!(
                                "{strategy_knob:?}/{backend_knob:?} certified={certified} \
                                 compiled={} seed_carried={seed_carried} batch={batch} \
                                 per_item_loop={per_item_loop}",
                                compiled.is_ok()
                            );
                            rows += 1;
                            let decided = plan.decide_plans(batch);
                            if backend_knob == Backend::Algebraic && compiled.is_err() {
                                let err = decided.err().unwrap_or_else(|| panic!("{row}"));
                                assert!(
                                    err.to_string().contains("outside the algebraic subset"),
                                    "{row}: {err}"
                                );
                                continue;
                            }
                            let decision = &decided.unwrap()[0];
                            // Strategy: the forced one, else Delta iff certified.
                            let strategy = match strategy_knob {
                                Strategy::Naive => FixpointStrategy::Naive,
                                Strategy::Delta => FixpointStrategy::Delta,
                                Strategy::Auto if certified => FixpointStrategy::Delta,
                                Strategy::Auto => FixpointStrategy::Naive,
                            };
                            // Batching is offered to `execute_batched` and to
                            // a per-item loop the evaluator batches.
                            let offered = batch
                                || (per_item_loop
                                    && strategy == FixpointStrategy::Delta
                                    && certified);
                            // Back-end: forced, else the executor for a batch
                            // with a seed-carried plan only.
                            let backend = match backend_knob {
                                Backend::SourceLevel => Interpreted,
                                Backend::Algebraic => Algebraic,
                                Backend::Auto if offered && seed_carried => Algebraic,
                                Backend::Auto => Interpreted,
                            };
                            // The executor batches only over a seed-carried plan.
                            let batched = offered && (backend == Interpreted || seed_carried);
                            let decided_by = if strategy_knob == Strategy::Auto
                                || backend_knob == Backend::Auto
                            {
                                DecisionSource::Rule
                            } else {
                                DecisionSource::Forced
                            };
                            assert_eq!(
                                (decision.alternative, decision.source),
                                (
                                    PlanAlternative {
                                        strategy,
                                        backend,
                                        batched
                                    },
                                    decided_by
                                ),
                                "{row}"
                            );
                            assert_eq!(decision.plan.is_some(), backend == Algebraic, "{row}");
                            assert_eq!(decision.share, batched && certified, "{row}");
                        }
                    }
                }
            }
        }
        assert_eq!(rows, 3 * 3 * 2 * 3 * 3);
    }

    const CURRICULUM: &str = r#"<curriculum>
        <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
        <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
        <course code="c3"><prerequisites/></course>
        <course code="c4"><prerequisites/></course>
    </curriculum>"#;

    fn curriculum_store() -> xqy_xdm::NodeStore {
        let mut store = xqy_xdm::NodeStore::new();
        let doc = store
            .parse_document_with_uri("curriculum.xml", CURRICULUM)
            .unwrap();
        store.register_id_attribute(doc, "code");
        store
    }

    /// The prerequisite closure of `$seed` on the relational executor, so
    /// every execution makes an executor.
    fn algebraic_closure() -> PreparedQuery {
        PreparedQuery::new(
            "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)",
            Strategy::Auto,
            Backend::Algebraic,
        )
        .unwrap()
    }

    /// Execute `plan` over the course `code` on a store of its own; the
    /// closure as text.
    fn closure_of(plan: &PreparedQuery, code: &str) -> String {
        let mut store = curriculum_store();
        let course = store.lookup_id(store.doc("curriculum.xml").unwrap(), code);
        let seed = Bindings::new().with("seed", Sequence::from_nodes(course));
        let outcome = plan
            .execute_on(&mut store, &seed, &ExecOptions::default())
            .unwrap();
        outcome.result.display(&store)
    }

    #[test]
    fn concurrent_executions_share_one_plan() {
        const CODES: [&str; 4] = ["c1", "c2", "c3", "c4"];
        let sequential: Vec<String> = CODES
            .iter()
            .map(|code| closure_of(&algebraic_closure(), code))
            .collect();
        assert!(sequential[0].contains("c4") && sequential[3].is_empty());

        let plan = Arc::new(algebraic_closure());
        let wave = || -> Vec<String> {
            let start = std::sync::Barrier::new(CODES.len());
            std::thread::scope(|scope| {
                let sessions: Vec<_> = CODES
                    .iter()
                    .map(|code| {
                        let (plan, start) = (&plan, &start);
                        scope.spawn(move || {
                            start.wait();
                            closure_of(plan, code)
                        })
                    })
                    .collect();
                sessions.into_iter().map(|s| s.join().unwrap()).collect()
            })
        };
        assert_eq!(wave(), sequential);
        for (code, expected) in CODES.iter().zip(&sequential) {
            assert_eq!(&closure_of(&plan, code), expected);
        }
        assert_eq!(wave(), sequential);
    }
}
