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
//! # The plan and its runtimes
//!
//! Preparation consults no store, and executing never writes to the
//! artifact: a [`PreparedQuery`] is an immutable plan, so one
//! `Arc<PreparedQuery>` serves any number of concurrent executions — over
//! different stores, snapshots and bindings.  What *does* change while a
//! fixpoint runs is a separate value, a *runtime*: one relational
//! [`Executor`], which drives every occurrence of the query and both of an
//! occurrence's plans.  One is enough because an executor carries symbols,
//! not tables: every table it computes is dropped with the run that
//! computed it, and what it keeps from run to run — its interner and the
//! store-symbol translation table, which is what makes a warm runtime pay —
//! depends on the store's text pool and on no plan.  A runtime belongs to
//! exactly one execution at a time.  An execution whose plan decision routes
//! an occurrence through the relational executor checks one out of the
//! query's pool of idle runtimes (minting one when every pooled runtime is
//! in flight, so the pool never holds more than the peak concurrency the
//! query has seen), owns it for the run, and returns it — warm — when it
//! ends, unless the thread is unwinding from a panic: a runtime that may
//! hold half-applied state is dropped, and the next execution mints a fresh
//! one.  A warm runtime that meets a store with another text pool restarts
//! its symbols at the start of the run; nothing about a cached plan, or a
//! pooled runtime, can go stale.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use xqy_algebra::{
    compile_recursion_body, AlgebraError, BatchSharing, CompiledBody, ExecStats, Executor,
};
use xqy_eval::distributivity::{builtin, declared_in, is_distributivity_safe, reaches_constructor};
use xqy_eval::evaluator::per_item_fixpoint;
use xqy_eval::{
    EvalError, Evaluator, FixpointBackendTag, FixpointInterceptor, FixpointStats, FixpointStrategy,
};
use xqy_parser::ast::{Expr, FunctionDecl, QueryModule};
use xqy_parser::parse_query;
use xqy_xdm::fixpoint::{Limits, Seeds};
use xqy_xdm::{NodeId, QueryBudget, Sequence, StoreMut, StoreStatistics};

use crate::cost::{self, DecisionSource, FeedbackCell, OccurrenceFeatures, PlanAlternative};
use crate::engine::{DistributivityReport, Engine, Parallelism, QueryOutcome, Strategy};
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
    /// Per occurrence and per execution: the [cost model](crate::cost)
    /// picks between the pre-compiled algebraic plan — when the body lies
    /// inside the algebraic subset — and the interpreter; bodies outside
    /// the subset always run on the interpreter.
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
    /// Static features feeding the cost model (body size, `id()` usage,
    /// constructor presence, capability flags).
    features: OccurrenceFeatures,
    /// The occurrence is the whole body of a per-item loop, `for $s in E
    /// return with $x seeded by $s recurse b`, whose `b` reads no variable
    /// but `$x` and the module's globals and externals
    /// ([`per_item_fixpoint`]): the evaluator may run the loop as one
    /// batch, so [`PreparedQuery::execute`] prices the batched routes for
    /// it too.
    per_item_loop: bool,
    /// The occurrence's feedback loop: what completed executions observed,
    /// keyed on the store-statistics fingerprint and consulted by every
    /// plan decision.  Shared by every execution (and clone) of the query —
    /// observations describe the data, not an executor, and the cell
    /// self-invalidates when the data materially changes.
    feedback: Arc<FeedbackCell>,
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

    /// The static features the cost model prices this occurrence under.
    pub fn features(&self) -> &OccurrenceFeatures {
        &self.features
    }
}

/// The per-occurrence execution decision recorded in a [`QueryOutcome`]:
/// which algorithm, back-end and batching ran each `with … recurse`
/// occurrence, who decided (knobs, static cost model, or feedback), and at
/// what estimated vs. observed cost — in syntactic order (index-aligned
/// with `QueryOutcome::distributivity`).
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
    /// Who settled the plan: the knobs ([`DecisionSource::Forced`]), the
    /// static cost estimate, or feedback from earlier runs on the same
    /// data.
    pub decided_by: DecisionSource,
    /// The cost the winning alternative was selected at, in the model's
    /// abstract microseconds (a rescaled measured wall time once the
    /// winner has been observed).
    pub estimated_cost_micros: u64,
    /// The observed wall time of this execution's fixpoint runs for the
    /// occurrence, in microseconds; `None` when the occurrence did not run
    /// (dead code, empty seed set).
    pub observed_cost_micros: Option<u64>,
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
    /// (charged at `TextPool` / `Sequence` / store-arena / `Table` growth
    /// points, see [`xqy_xdm::budget`]).  Before failing, the drivers
    /// degrade once: store memos and executor run caches are dropped
    /// (and credited back), and sharded evaluation falls back to
    /// sequential.
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
/// from the runtimes that execute it.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    module: QueryModule,
    backend: Backend,
    /// The strategy knob as given: [`Strategy::Auto`] widens the
    /// per-occurrence candidate grid to both sound algorithms, a forced
    /// strategy collapses it.
    strategy: Strategy,
    default_strategy: FixpointStrategy,
    parallelism: Parallelism,
    occurrences: Vec<PreparedOccurrence>,
    external_vars: Vec<String>,
    /// The query's idle runtimes (shared with its clones, whose occurrences
    /// are the same).
    runtimes: Arc<RuntimePool>,
}

/// The run-time state of one execution: the executor that drives every
/// occurrence and both plans of each.  Its symbols survive from one
/// execution — and one seed of a per-item loop — to the next.
type Runtime = Executor;

/// The idle runtimes of one prepared query, and how many were ever minted.
#[derive(Debug, Default)]
struct RuntimePool {
    idle: Mutex<Vec<Runtime>>,
    minted: AtomicU64,
}

impl RuntimePool {
    /// The idle list; it is only ever pushed to and popped from, so a
    /// poisoned lock still guards a valid list.
    fn idle(&self) -> std::sync::MutexGuard<'_, Vec<Runtime>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One execution's exclusive hold on a [`Runtime`].  Dropping it returns the
/// runtime to the pool it came from — unless the thread is unwinding: a
/// fixpoint aborted mid-iteration may have left the executors half-applied,
/// so that runtime is dropped instead.
#[derive(Debug)]
struct CheckedOut {
    executor: Runtime,
    pool: Arc<RuntimePool>,
}

impl Drop for CheckedOut {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.pool.idle().push(std::mem::take(&mut self.executor));
        }
    }
}

impl PreparedQuery {
    /// Parse and analyse `query` without an [`Engine`]: the standalone
    /// entry point for callers that hold no engine — e.g. a concurrent
    /// query service preparing plans into a shared cache.  Preparation is
    /// purely static (no store is consulted), so the artifact can later be
    /// executed against any store via
    /// [`execute_on`](PreparedQuery::execute_on).
    pub fn prepare(
        query: &str,
        strategy: Strategy,
        backend: Backend,
        parallelism: Parallelism,
    ) -> Result<Self> {
        let module = parse_query(query)?;
        Ok(PreparedQuery::analyse_module(
            module,
            strategy,
            backend,
            parallelism,
        ))
    }

    /// Analyse `module`: collect its IFP occurrences, run both
    /// distributivity approximations on each, choose a per-occurrence
    /// strategy under `strategy`, and pre-compile the algebraic plans.
    pub(crate) fn analyse_module(
        module: QueryModule,
        strategy: Strategy,
        backend: Backend,
        parallelism: Parallelism,
    ) -> Self {
        let occurrences = analyse_occurrences(&module, strategy);
        let external_vars = external_variables(&module);
        let default_strategy = strategy.forced().unwrap_or(FixpointStrategy::Naive);
        PreparedQuery {
            module,
            backend,
            strategy,
            default_strategy,
            parallelism,
            occurrences,
            external_vars,
            runtimes: Arc::default(),
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

    /// The thread policy batched fixpoint executions run under.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Select the thread policy for batched fixpoint executions (overrides
    /// the engine setting captured at prepare time).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// Builder-style [`set_parallelism`](Self::set_parallelism).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
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

    /// How many runtimes this query (with its clones) has minted so far:
    /// one for its first execution on the relational executor, one more
    /// each time an execution found every pooled runtime in flight, and
    /// one to replace each runtime dropped by a panic.
    pub fn runtimes_minted(&self) -> u64 {
        self.runtimes.minted.load(Ordering::Relaxed)
    }

    /// Take an idle runtime out of the pool, or mint one.
    fn check_out(&self) -> CheckedOut {
        let pooled = self.runtimes.idle().pop();
        let executor = pooled.unwrap_or_else(|| {
            self.runtimes.minted.fetch_add(1, Ordering::Relaxed);
            Executor::new()
        });
        CheckedOut {
            executor,
            pool: Arc::clone(&self.runtimes),
        }
    }

    /// The grid of plan alternatives the knobs leave open for `occ`,
    /// ordered so preferred routes come first (the tie-break of
    /// [`cost::decide`]): batched before per-seed, algebraic before
    /// source-level, Delta before Naïve.
    ///
    /// Soundness and capability prune the grid: Delta only enters under
    /// [`Strategy::Auto`] when a distributivity approximation certified the
    /// body (a *forced* Delta is kept as-is — the engine does not stop you
    /// from shooting your own foot); the algebraic routes need a compiled
    /// plan, the batched algebraic route a seed-carried one.  A forced
    /// [`Backend::Algebraic`] over an uncompilable body is an error, as
    /// before.  The batched routes enter for an `execute_batched` call
    /// (`batch`) and, Delta only, for a per-item loop the evaluator can
    /// batch ([`PreparedOccurrence::per_item_loop`]).
    fn candidate_grid(
        &self,
        occ: &PreparedOccurrence,
        batch: bool,
    ) -> Result<Vec<PlanAlternative>> {
        let strategies: &[FixpointStrategy] = match self.strategy.forced() {
            Some(FixpointStrategy::Delta) => &[FixpointStrategy::Delta],
            Some(FixpointStrategy::Naive) => &[FixpointStrategy::Naive],
            None if occ.report.is_distributive() => {
                &[FixpointStrategy::Delta, FixpointStrategy::Naive]
            }
            None => &[FixpointStrategy::Naive],
        };
        let backends: &[FixpointBackendTag] = match (self.backend, &occ.compiled) {
            (Backend::SourceLevel, _) => &[FixpointBackendTag::Interpreted],
            (Backend::Algebraic, Ok(_)) => &[FixpointBackendTag::Algebraic],
            (Backend::Algebraic, Err(reason)) => {
                return Err(IfpError::Algebra(xqy_algebra::AlgebraError::Unsupported(
                    format!(
                        "recursion body of ${} is outside the algebraic subset: {reason}",
                        occ.var
                    ),
                )))
            }
            (Backend::Auto, Ok(_)) => &[
                FixpointBackendTag::Algebraic,
                FixpointBackendTag::Interpreted,
            ],
            (Backend::Auto, Err(_)) => &[FixpointBackendTag::Interpreted],
        };
        let mut grid = Vec::new();
        if batch || occ.per_item_loop {
            for &backend in backends {
                if backend == FixpointBackendTag::Algebraic && !occ.is_batch_capable() {
                    continue;
                }
                for &strategy in strategies {
                    if !batch && strategy != FixpointStrategy::Delta {
                        continue;
                    }
                    grid.push(PlanAlternative {
                        strategy,
                        backend,
                        batched: true,
                    });
                }
            }
        }
        for &backend in backends {
            for &strategy in strategies {
                grid.push(PlanAlternative {
                    strategy,
                    backend,
                    batched: false,
                });
            }
        }
        Ok(grid)
    }

    /// Cost every occurrence's candidate grid against the store statistics
    /// (and any feedback taken under the same statistics fingerprint) and
    /// pick a plan each.  `batch_seeds` is `Some(n)` for an
    /// `execute_batched` call over `n` seeds, which adds the batched routes
    /// to the grid.
    fn decide_plans(
        &self,
        stats: &StoreStatistics,
        batch_seeds: Option<usize>,
    ) -> Result<Vec<PlanDecision>> {
        let mut decisions = Vec::with_capacity(self.occurrences.len());
        for occ in &self.occurrences {
            let candidates = self.candidate_grid(occ, batch_seeds.is_some())?;
            let decision = cost::decide(
                &candidates,
                &occ.features,
                stats,
                &occ.feedback,
                batch_seeds.unwrap_or(1),
            );
            let plan = if decision.alternative.backend == FixpointBackendTag::Algebraic {
                occ.compiled.as_ref().ok().cloned()
            } else {
                None
            };
            decisions.push(PlanDecision {
                alternative: decision.alternative,
                source: decision.source,
                estimated_micros: decision.estimated_micros,
                plan,
                share: decision.alternative.batched && occ.report.is_distributive(),
            });
        }
        Ok(decisions)
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
                    batched: decision.alternative.batched,
                    share: decision.share,
                })
            })
            .collect()
    }

    /// The per-occurrence report of one execution, rolling the runs
    /// `evaluator` logged into each occurrence's feedback cell (keyed on
    /// `fingerprint`) on the way: the decided alternative — corrected by
    /// what *actually* ran where that differs from the decision — and the
    /// decision provenance and costs.  Without an evaluator (the runs were
    /// inner executions', already rolled up) the report is the decisions'.
    fn occurrence_plans(
        &self,
        decisions: &[PlanDecision],
        evaluator: Option<&Evaluator<'_>>,
        fingerprint: u64,
    ) -> Vec<OccurrencePlan> {
        self.occurrences
            .iter()
            .zip(decisions)
            .map(|(occ, decision)| {
                let runs = evaluator
                    .into_iter()
                    .flat_map(|e| e.fixpoint_runs_of(&occ.var, &occ.body));
                let ran = occ.feedback.finish_run(fingerprint, runs);
                let alternative = ran.map_or(decision.alternative, |r| r.alternative);
                OccurrencePlan {
                    variable: occ.var.clone(),
                    strategy: alternative.strategy,
                    backend: alternative.backend,
                    batched: alternative.batched,
                    decided_by: decision.source,
                    estimated_cost_micros: decision.estimated_micros,
                    observed_cost_micros: ran.map(|r| r.wall_micros),
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
        // Cost-based selection: summarize the store (memoized per
        // revision), price each occurrence's candidate grid, pick a plan.
        let stats = store.read().statistics();
        let decisions = self.decide_plans(&stats, None)?;
        let _budget_scope = install_budget(&opts.limits);
        let mut evaluator = self.evaluator(store, opts, &decisions);
        for (name, value) in bindings.iter() {
            evaluator.bind_global(name, value.clone());
        }

        let result = evaluator.eval_module(&self.module)?;
        Ok(QueryOutcome {
            result,
            distributivity: self.distributivity(),
            occurrences: self.occurrence_plans(&decisions, Some(&evaluator), stats.fingerprint()),
            fixpoints: evaluator.fixpoint_runs().to_vec(),
        })
    }

    /// The evaluator every execution route runs on: options and limits
    /// from `opts`, the decided algorithm and batch-sharing grant per
    /// occurrence, and — only when a decision routes through the relational
    /// executor — the interceptor that drives those decisions on a
    /// checked-out runtime, which it owns until the evaluator is dropped.
    fn evaluator<'s>(
        &self,
        store: StoreMut<'s>,
        opts: &ExecOptions,
        decisions: &[PlanDecision],
    ) -> Evaluator<'s> {
        let threads = self.parallelism.threads();
        let mut evaluator = Evaluator::new(store);
        let options = evaluator.options_mut();
        options.seed_in_result = opts.seed_in_result;
        options.fixpoint_threads = threads;
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
                runtime: self.check_out(),
                threads,
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
        let stats = store.read().statistics();
        if seeds.all_nodes() {
            if let Some(occ) = self.batched_occurrence(seed_var) {
                let decisions = self.decide_plans(&stats, Some(seeds.len().max(1)))?;
                // The eval-layer route can honor any decision except a
                // measured preference for the *interpreted per-seed* loop
                // (its batched source driver always folds the seeds): for
                // that one, fall through to the general per-seed loop.
                if decisions[0].alternative.batched || decisions[0].plan.is_some() {
                    return self.execute_batched_fixpoint(
                        store, occ, seed_var, seeds, bindings, opts, &stats, decisions,
                    );
                }
            }
        }
        // General fallback: the query is not a bare fixpoint over
        // `$seed_var` (or the seeds are not all nodes, and the per-seed
        // execution must surface the evaluator's type error) — run the
        // module once per seed item, exactly as the contract reads.
        //
        // The inner `execute_on` calls roll their own feedback up; the
        // outer report is the per-execute decisions.
        let decisions = self.decide_plans(&stats, None)?;
        let occurrences = self.occurrence_plans(&decisions, None, stats.fingerprint());
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
        stats: &StoreStatistics,
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
                occurrences: self.occurrence_plans(
                    &decisions,
                    Some(&evaluator),
                    stats.fingerprint(),
                ),
                fixpoints: evaluator.fixpoint_runs().to_vec(),
            },
            per_seed,
            batched,
        })
    }
}

/// Install the per-query memory budget of `limits`, if any, on this thread:
/// the growth points of the data model and the relational executor charge
/// the installed cell (shard workers re-install it, see `xqy_xdm::shard`)
/// and the fixpoint driver checks it at its iteration barrier.
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
    /// through the batched source-level driver (non-algebraic bodies).
    /// `false` when they ran one fixpoint per seed: non-seed-local
    /// *algebraic* plans, a cost decision for the per-seed algebraic route,
    /// or non-fixpoint query shapes.
    pub batched: bool,
}

/// The plan one execution decided for one occurrence: the grid point, its
/// provenance and estimated cost, and (for the algebraic routes) the
/// compiled plan to drive.
struct PlanDecision {
    alternative: PlanAlternative,
    source: DecisionSource,
    estimated_micros: u64,
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
    /// `false` when the cost decision picked the per-seed algebraic route
    /// inside a batched execution: the interceptor declines the batch so the
    /// evaluator falls back to one (algebraic) fixpoint per seed.
    batched: bool,
    /// The grant of `BatchSharing::DistinctNodes` for a batch
    /// ([`PlanDecision::share`]), which the source-level routes read too.
    share: bool,
}

/// The [`FixpointInterceptor`] installed by [`PreparedQuery::execute`]: it
/// recognises occurrences by their `(var, body)` pair and drives their
/// pre-compiled plans through the relational executor.  Both the
/// [`CompiledBody`] *and* the [`Executor`] are reused across every
/// execution and every seed of a per-item workload — the driver hands the
/// runtime's long-lived executor `&mut` access to the store per run instead
/// of building a fresh executor (which would re-intern every string per
/// seed).  The executor is the driver's own for as long as it lives: it
/// holds the execution's checked-out runtime and gives it back when dropped.
struct PlanDriver {
    entries: Vec<PlanEntry>,
    runtime: CheckedOut,
    /// Shard count of the driver's folds in batched runs (from the
    /// prepared query's [`Parallelism`] policy); a single-source run has
    /// nothing to shard.
    threads: usize,
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
        store: StoreMut<'_>,
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
                // The cost decision may prefer the per-seed algebraic route
                // over the batched one (observed wall times): decline the
                // batch, so the evaluator offers it seed by seed.
                if !entry.batched {
                    return None;
                }
                // Bodies outside the seed-local subset have no seed-carried
                // plan: decline likewise.
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
        let executor = &mut self.runtime.executor;
        executor.set_threads(self.threads);
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
        let features = occurrence_features(&body, &module.functions, &report, &compiled);
        // Identical occurrences share one feedback cell: the evaluator logs
        // their runs under one (var, body) pair.
        let feedback = occurrences
            .iter()
            .find(|o: &&PreparedOccurrence| o.var == var && *o.body == body)
            .map(|o| o.feedback.clone())
            .unwrap_or_else(|| Arc::new(FeedbackCell::new()));
        occurrences.push(PreparedOccurrence {
            var,
            body: Arc::new(body),
            report,
            strategy: chosen,
            compiled,
            features,
            feedback,
            per_item_loop,
        });
    }
    occurrences
}

/// Extract the static cost-model features of one recursion body, whose
/// calls resolve against the module's `functions`.
fn occurrence_features(
    body: &Expr,
    functions: &[FunctionDecl],
    report: &DistributivityReport,
    compiled: &std::result::Result<Arc<CompiledBody>, String>,
) -> OccurrenceFeatures {
    let mut body_size = 0usize;
    let mut uses_id = false;
    body.walk(&mut |e| {
        body_size += 1;
        if let Expr::FunctionCall { name, .. } = e {
            uses_id |= builtin(name) == Some("id");
        }
    });
    let constructs = reaches_constructor(body, &declared_in(functions));
    OccurrenceFeatures {
        distributive: report.is_distributive(),
        algebraic: compiled.is_ok(),
        batch_capable: compiled
            .as_ref()
            .map(|c| c.batched_plan.is_some())
            .unwrap_or(false),
        uses_id,
        constructs,
        body_size,
    }
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
    /// every execution needs a runtime.
    fn algebraic_closure() -> PreparedQuery {
        PreparedQuery::prepare(
            "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)",
            Strategy::Auto,
            Backend::Algebraic,
            Parallelism::Sequential,
        )
        .unwrap()
    }

    /// Execute `plan` over the course `code` on a store of its own; the
    /// closure as text and the fixpoint runs the execution made.
    fn closure_of(plan: &PreparedQuery, code: &str) -> (String, usize) {
        let mut store = curriculum_store();
        let course = store.lookup_id(store.doc("curriculum.xml").unwrap(), code);
        let seed = Bindings::new().with("seed", Sequence::from_nodes(course));
        let outcome = plan
            .execute_on(&mut store, &seed, &ExecOptions::default())
            .unwrap();
        (outcome.result.display(&store), outcome.fixpoints.len())
    }

    #[test]
    fn concurrent_executions_share_one_plan_and_pool_their_runtimes() {
        const CODES: [&str; 4] = ["c1", "c2", "c3", "c4"];
        let sequential: Vec<String> = CODES
            .iter()
            .map(|code| closure_of(&algebraic_closure(), code).0)
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
                            closure_of(plan, code).0
                        })
                    })
                    .collect();
                sessions.into_iter().map(|s| s.join().unwrap()).collect()
            })
        };
        assert_eq!(wave(), sequential);
        let minted = plan.runtimes_minted();
        assert!((1..=4).contains(&minted), "minted {minted}");
        assert_eq!(plan.runtimes.idle().len() as u64, minted, "all came back");
        // Sequential executions find a runtime in the pool: nothing is minted
        // for them.  (A second concurrent wave may still mint, up to the
        // peak concurrency, if the first happened to overlap less.)
        for (code, expected) in CODES.iter().zip(&sequential) {
            assert_eq!(&closure_of(&plan, code).0, expected);
        }
        assert_eq!(plan.runtimes_minted(), minted);
        assert_eq!(wave(), sequential);
        assert!(plan.runtimes_minted() <= 4);
    }

    #[test]
    fn runtime_dropped_during_unwind_is_not_pooled() {
        let plan = algebraic_closure();
        drop(plan.check_out());
        assert_eq!(
            plan.runtimes.idle().len(),
            1,
            "a finished execution pools it"
        );
        let in_flight = plan.check_out();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = in_flight;
            panic!("mid-query panic");
        }));
        assert!(unwound.is_err());
        assert!(
            plan.runtimes.idle().is_empty(),
            "possibly half-applied state"
        );
        assert_eq!(
            closure_of(&plan, "c2").0,
            closure_of(&algebraic_closure(), "c2").0
        );
        assert_eq!(
            plan.runtimes_minted(),
            2,
            "the next execution minted afresh"
        );
    }
}
