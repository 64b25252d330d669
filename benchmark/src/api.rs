//! The adapter: the only file of the ledger that names the crates under
//! test.  Every other module sees the engine through the types below, so a
//! later PR that moves or retires an engine API (ROADMAP item 3 retires
//! `Engine::run`; nothing here uses it) edits this file and nothing else.
//! `benchmark/README.md` lists the surface used here.

use std::sync::Arc;
use std::time::Duration;

use xqy_datagen::{auction, curriculum, hospital, play};
use xqy_ifp::algebra::{
    check_distributivity, compile_recursion_body, BatchSharing, CompiledBody, Executor, MuStrategy,
};
use xqy_ifp::cost::{self, FeedbackCell, PlanAlternative};
use xqy_ifp::eval::{Evaluator, FixpointBackendTag, FixpointStats, FixpointStrategy};
use xqy_ifp::parser::ast::{Expr, QueryModule};
use xqy_ifp::parser::lexer::Lexer;
use xqy_ifp::parser::token::TokenKind;
use xqy_ifp::parser::{parse_expr, parse_query};
use xqy_ifp::xdm::{CowStore, DocId, NodeSet, NodeStore, Sequence};
use xqy_ifp::{
    is_distributivity_safe, Backend, Bindings, Engine, ExecOptions, Parallelism, PreparedQuery,
    QueryOutcome, Strategy,
};
use xqy_service::{CacheOutcome, QueryService, ServiceConfig, ServiceError};

/// A node of a loaded document.  Identifiers are stable across clones of a
/// store, so an oracle built on one snapshot checks answers from another.
pub type Node = xqy_ifp::xdm::NodeId;

/// Errors cross the adapter as text: the ledger only counts them.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(err: E) -> String {
    err.to_string()
}

// ---------------------------------------------------------------------
// Generated documents
// ---------------------------------------------------------------------

/// The four document families of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Curriculum,
    Auction,
    Hospital,
    Play,
}

/// Instance sizes: the generator presets, and a `Tiny` instance (a few
/// dozen elements) on which executing a query costs about as little as
/// preparing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Tiny,
    Small,
    Medium,
    Large,
}

impl Size {
    fn scale(self) -> xqy_datagen::Scale {
        match self {
            Size::Tiny | Size::Small => xqy_datagen::Scale::Small,
            Size::Medium => xqy_datagen::Scale::Medium,
            Size::Large => xqy_datagen::Scale::Large,
        }
    }
}

impl Family {
    /// Generate the family's document at `size`; `seed` is the only source
    /// of randomness.
    pub fn generate(self, size: Size, seed: u64) -> String {
        let scale = size.scale();
        let tiny = size == Size::Tiny;
        match self {
            Family::Curriculum => {
                let mut config = curriculum::CurriculumConfig::for_scale(scale);
                config.seed = seed;
                if tiny {
                    (config.courses, config.cycles) = (24, 1);
                }
                curriculum::generate(&config)
            }
            Family::Auction => {
                let mut config = auction::AuctionConfig::for_scale(scale);
                config.seed = seed;
                if tiny {
                    (config.persons, config.auctions) = (24, 40);
                }
                auction::generate(&config)
            }
            Family::Hospital => {
                let mut config = hospital::HospitalConfig::for_scale(scale);
                config.seed = seed;
                if tiny {
                    config.patients = 60;
                }
                hospital::generate(&config)
            }
            Family::Play => {
                let mut config = play::PlayConfig::for_scale(scale);
                config.seed = seed;
                if tiny {
                    (config.scenes, config.speeches_per_scene) = (3, 10);
                }
                play::generate(&config)
            }
        }
    }

    /// The family's id-following recursion body, a function of `$x`.
    pub fn body(self) -> &'static str {
        match self {
            Family::Curriculum => curriculum::BODY,
            Family::Auction => auction::BODY,
            Family::Hospital => hospital::BODY,
            Family::Play => play::BODY,
        }
    }

    /// Attribute names to declare ID-typed besides the built-in `id`.
    pub fn id_attributes(self) -> &'static [&'static str] {
        match self {
            Family::Curriculum => &["code"],
            _ => &[],
        }
    }
}

// ---------------------------------------------------------------------
// Read-only store access (oracle, seed choice, xdm probes)
// ---------------------------------------------------------------------

/// A borrowed view of a node store: the accessors the oracle walks with.
#[derive(Clone, Copy)]
pub struct Store<'a>(&'a NodeStore);

impl<'a> Store<'a> {
    /// The root element of the document loaded under `uri`.
    pub fn root(&self, uri: &str) -> Option<Node> {
        let doc = self.0.doc(uri)?;
        self.0.document_element(doc)
    }

    /// Element children of `node`, optionally restricted to one name.
    pub fn children(&self, node: Node, name: Option<&str>) -> Vec<Node> {
        self.0
            .children(node)
            .into_iter()
            .filter(|&c| match self.0.name(c) {
                Some(q) => self.0.kind(c).is_element() && name.is_none_or(|n| q.local == n),
                None => false,
            })
            .collect()
    }

    /// The value of attribute `name` on `node`.
    pub fn attribute(&self, node: Node, name: &str) -> Option<&'a str> {
        self.0.attribute_value(node, name)
    }

    /// The string value of `node`.
    pub fn string_value(&self, node: Node) -> String {
        self.0.string_value(node)
    }

    /// `id(value)` resolved in the document that owns `anchor`.
    pub fn lookup_id(&self, anchor: Node, value: &str) -> Option<Node> {
        self.0.lookup_id(DocId(anchor.doc), value)
    }

    /// How many `lookup_id` probes the store answered from its memo.
    pub fn id_probe_hits(&self) -> u64 {
        self.0.id_probe_hits()
    }

    /// Total nodes over all documents (memoized statistics walk).
    pub fn node_count(&self) -> u64 {
        self.0.statistics().totals.nodes
    }
}

/// An owned store outside any engine: what the `xdm` probes time.
pub struct OwnedStore(NodeStore);

impl Default for OwnedStore {
    fn default() -> Self {
        OwnedStore(NodeStore::new())
    }
}

impl OwnedStore {
    /// `NodeStore::parse_document_with_uri` plus the ID declarations.
    pub fn parse(&mut self, uri: &str, xml: &str, id_attributes: &[&str]) -> Res<()> {
        let doc = self.0.parse_document_with_uri(uri, xml).map_err(text)?;
        for attr in id_attributes {
            self.0.register_id_attribute(doc, attr);
        }
        Ok(())
    }

    pub fn view(&self) -> Store<'_> {
        Store(&self.0)
    }

    /// `NodeStore::clone` — what `publish()` pays first.  A store that was
    /// parsed but never read hands its clone cold derived indexes and a
    /// cold statistics memo, which is the state of the service's writer
    /// master at every publication.
    pub fn deep_clone(&self) -> OwnedStore {
        OwnedStore(self.0.clone())
    }

    /// `NodeStore::refresh_all` — rebuilds every derived index.
    pub fn refresh_all(&self) {
        self.0.refresh_all();
    }

    /// `NodeStore::statistics`: the O(nodes) shape walk (memoized per
    /// revision; a clone inherits the memo, cold or warm).  Returns the
    /// node total.
    pub fn statistics(&self) -> u64 {
        self.0.statistics().totals.nodes
    }
}

/// `NodeSet`, the bitmap kernel both fixpoint drivers run their set algebra
/// on.
#[derive(Clone)]
pub struct Set(NodeSet);

impl Set {
    pub fn from_nodes(nodes: &[Node]) -> Set {
        Set(NodeSet::from_nodes(nodes.iter().copied()))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn union(&self, other: &Set) -> Set {
        Set(self.0.union(&other.0))
    }

    pub fn except(&self, other: &Set) -> Set {
        Set(self.0.except(&other.0))
    }

    /// Document-order materialisation.
    pub fn to_vec(&self, store: Store<'_>) -> Vec<Node> {
        self.0.to_vec(store.0)
    }
}

// ---------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------

/// What the ledger keeps of a query result: enough to compare with the
/// oracle without depending on result order, plus the Table-2 counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Answer {
    /// Result cardinality (nodes and atomic items).
    pub count: usize,
    /// Order-insensitive digest of the result's node identifiers.
    pub digest: u64,
    /// The serialised atomic items, when the result has any.
    pub atoms: Option<String>,
    /// Table 2's "Total # of Nodes Fed Back", summed over fixpoint runs.
    pub fed_back: u64,
    /// Recursion depth: the maximum over fixpoint runs.
    pub depth: usize,
    /// Body evaluations, summed over fixpoint runs.
    pub body_calls: usize,
    /// Static-cache hits and rec-independent plan evaluations (algebra).
    pub static_hits: u64,
    pub static_evals: u64,
}

/// Order-insensitive digest of a multiset of nodes.
pub fn digest_nodes(nodes: impl IntoIterator<Item = Node>) -> u64 {
    nodes.into_iter().fold(0u64, |acc, n| {
        let mut z =
            (u64::from(n.doc) << 32 | u64::from(n.node)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc.wrapping_add(z ^ (z >> 31))
    })
}

impl Answer {
    fn of_nodes(nodes: &[Node]) -> Answer {
        Answer {
            count: nodes.len(),
            digest: digest_nodes(nodes.iter().copied()),
            ..Answer::default()
        }
    }

    fn of_sequence(result: &Sequence, store: &NodeStore) -> Answer {
        if result.all_nodes() {
            match result.node_ids() {
                Some(ids) => Answer::of_nodes(ids),
                None => Answer::of_nodes(&result.nodes()),
            }
        } else {
            Answer {
                count: result.len(),
                digest: digest_nodes(result.nodes()),
                atoms: Some(result.display(store)),
                ..Answer::default()
            }
        }
    }

    fn with_stats(mut self, runs: &[FixpointStats]) -> Answer {
        self.fed_back = runs.iter().map(|s| s.nodes_fed_back).sum();
        self.depth = runs.iter().map(|s| s.iterations).max().unwrap_or(0);
        self.body_calls = runs.iter().map(|s| s.payload_calls).sum();
        self.static_hits = runs.iter().map(|s| s.static_cache_hits).sum();
        self.static_evals = runs.iter().map(|s| s.static_plan_evals).sum();
        self
    }

    fn of_outcome(outcome: &QueryOutcome, store: &NodeStore) -> Answer {
        Answer::of_sequence(&outcome.result, store).with_stats(&outcome.fixpoints)
    }
}

// ---------------------------------------------------------------------
// Engine: prepare + execute (user a)
// ---------------------------------------------------------------------

/// Naïve or Delta; `None` where a caller leaves the choice to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Naive,
    Delta,
}

/// Who drives the fixpoint: the interpreter (the paper's Saxon column) or
/// the relational executor (its MonetDB column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    Source,
    Algebra,
}

fn strategy(algo: Option<Algo>) -> Strategy {
    match algo {
        Some(Algo::Naive) => Strategy::Naive,
        Some(Algo::Delta) => Strategy::Delta,
        None => Strategy::Auto,
    }
}

fn backend(via: Option<Via>) -> Backend {
    match via {
        Some(Via::Source) => Backend::SourceLevel,
        Some(Via::Algebra) => Backend::Algebraic,
        None => Backend::Auto,
    }
}

fn fixpoint_strategy(algo: Algo) -> FixpointStrategy {
    match algo {
        Algo::Naive => FixpointStrategy::Naive,
        Algo::Delta => FixpointStrategy::Delta,
    }
}

fn mu_strategy(algo: Algo) -> MuStrategy {
    match algo {
        Algo::Naive => MuStrategy::Mu,
        Algo::Delta => MuStrategy::MuDelta,
    }
}

/// A prepared query (`Engine::prepare` / `PreparedQuery::prepare`).
pub struct Plan(PreparedQuery);

impl Plan {
    /// IFP occurrences certified distributive by the syntactic rules and by
    /// the algebraic ∪ push-up, out of how many.
    pub fn distributive_counts(&self) -> (usize, usize, usize) {
        let reports = self.0.distributivity();
        (
            reports.iter().filter(|r| r.syntactic).count(),
            reports.iter().filter(|r| r.algebraic == Some(true)).count(),
            reports.len(),
        )
    }
}

/// One engine with its documents (`Engine`).
pub struct Db(Engine);

impl Default for Db {
    fn default() -> Self {
        Db(Engine::new())
    }
}

impl Db {
    /// `Engine::load_document_with_ids`.
    pub fn load(&mut self, uri: &str, xml: &str, id_attributes: &[&str]) -> Res<()> {
        self.0
            .load_document_with_ids(uri, xml, id_attributes)
            .map_err(text)
    }

    pub fn store(&self) -> Store<'_> {
        Store(self.0.store())
    }

    /// `Engine::prepare` under the given knobs (`None` = `Auto`).  Batched
    /// fixpoints run with `threads` shards.
    pub fn prepare(
        &mut self,
        query: &str,
        algo: Option<Algo>,
        via: Option<Via>,
        threads: usize,
    ) -> Res<Plan> {
        self.0.set_strategy(strategy(algo));
        self.0.set_backend(backend(via));
        self.0.set_parallelism(if threads > 1 {
            Parallelism::Fixed(threads)
        } else {
            Parallelism::Sequential
        });
        self.0.prepare(query).map(Plan).map_err(text)
    }

    /// `PreparedQuery::execute`, binding `$seed` when the query has one.
    pub fn execute(&mut self, plan: &Plan, seed: Option<&[Node]>) -> Res<Answer> {
        let mut bindings = Bindings::new();
        if let Some(seed) = seed {
            bindings.set("seed", Sequence::from_nodes(seed.iter().copied()));
        }
        let outcome = plan.0.execute(&mut self.0, &bindings).map_err(text)?;
        Ok(Answer::of_outcome(&outcome, self.0.store()))
    }

    /// `PreparedQuery::execute_batched` over `$seed`.
    pub fn execute_batched(&mut self, plan: &Plan, seeds: &[Node]) -> Res<Answer> {
        let seeds = Sequence::from_nodes(seeds.iter().copied());
        let batch = plan
            .0
            .execute_batched(&mut self.0, "seed", &seeds, &Bindings::new())
            .map_err(text)?;
        Ok(Answer::of_outcome(&batch.outcome, self.0.store()))
    }

    // -- the same fixpoints, called on the layer below `core` -----------

    /// `Evaluator::eval_module` of an already parsed module on the bare
    /// store, `$seed` bound when given: what `core` hands the interpreter,
    /// without `core`.  `algo` is the evaluator's fixpoint strategy.
    pub fn eval_module(
        &mut self,
        module: &Parsed,
        seed: Option<&[Node]>,
        algo: Algo,
    ) -> Res<Answer> {
        let mut evaluator = Evaluator::new(self.0.store_mut());
        evaluator.set_fixpoint_strategy(fixpoint_strategy(algo));
        if let Some(seed) = seed {
            evaluator.bind_global("seed", Sequence::from_nodes(seed.iter().copied()));
        }
        let result = evaluator.eval_module(&module.0).map_err(text)?;
        let runs = evaluator.fixpoint_runs().to_vec();
        Ok(Answer::of_sequence(&result, self.0.store()).with_stats(&runs))
    }

    /// `Evaluator::run_fixpoint_batched`: the batched source-level driver,
    /// sharing body evaluations across seeds (the bodies here are
    /// distributive).
    pub fn eval_fixpoint_batched(
        &mut self,
        body: &BodyExpr,
        seeds: &[Node],
        algo: Algo,
        threads: usize,
    ) -> Res<Answer> {
        let mut evaluator = Evaluator::new(self.0.store_mut());
        evaluator.options_mut().fixpoint_threads = threads;
        evaluator.set_fixpoint_strategy(fixpoint_strategy(algo));
        evaluator.set_fixpoint_batch_sharing_for("x", Arc::clone(&body.0), true);
        let (groups, _) = evaluator
            .run_fixpoint_batched("x", &body.0, seeds)
            .map_err(text)?;
        let runs = evaluator.fixpoint_runs().to_vec();
        let nodes: Vec<Node> = groups.into_iter().flatten().collect();
        Ok(Answer::of_nodes(&nodes).with_stats(&runs))
    }
}

/// A parsed recursion body (`parse_expr`), shared with the evaluator.
pub struct BodyExpr(Arc<Expr>);

impl BodyExpr {
    pub fn parse(body: &str) -> Res<BodyExpr> {
        parse_expr(body)
            .map(|e| BodyExpr(Arc::new(e)))
            .map_err(text)
    }
}

/// A recursion body compiled to an algebraic plan, with the two persistent
/// executors `core` keeps per occurrence (per-seed and batched).
pub struct AlgebraBody {
    compiled: CompiledBody,
    per_seed: Executor,
    batched: Executor,
}

impl AlgebraBody {
    /// `compile_recursion_body` over `$x`.
    pub fn compile(body: &BodyExpr) -> Res<AlgebraBody> {
        Ok(AlgebraBody {
            compiled: compile_recursion_body(&body.0, "x").map_err(text)?,
            per_seed: Executor::new(),
            batched: Executor::new(),
        })
    }

    /// `Executor::run_fixpoint`: one fixpoint over the whole seed.
    pub fn run(&mut self, db: &mut Db, seed: &[Node], algo: Algo) -> Res<Answer> {
        let hits = self.per_seed.static_cache_hits();
        let evals = self.per_seed.static_plan_evals();
        let (table, stats) = self
            .per_seed
            .run_fixpoint(
                db.0.store_mut(),
                &self.compiled.plan,
                seed,
                mu_strategy(algo),
                false,
            )
            .map_err(text)?;
        let mut answer = Answer::of_nodes(&table.item_nodes());
        answer.fed_back = stats.rows_fed_back;
        answer.depth = stats.iterations;
        answer.body_calls = stats.body_evaluations;
        answer.static_hits = self.per_seed.static_cache_hits() - hits;
        answer.static_evals = self.per_seed.static_plan_evals() - evals;
        Ok(answer)
    }

    /// `Executor::run_fixpoint_batched` on the seed-carried plan.
    pub fn run_batched(
        &mut self,
        db: &mut Db,
        seeds: &[Node],
        algo: Algo,
        threads: usize,
    ) -> Res<Answer> {
        let plan = self
            .compiled
            .batched_plan
            .as_ref()
            .ok_or("body has no seed-carried plan")?;
        let sharing = if self.compiled.distributivity.distributive {
            BatchSharing::DistinctNodes
        } else {
            BatchSharing::PerSeed
        };
        self.batched.set_threads(threads);
        let hits = self.batched.static_cache_hits();
        let evals = self.batched.static_plan_evals();
        let (table, stats) = self
            .batched
            .run_fixpoint_batched(
                db.0.store_mut(),
                plan,
                seeds,
                mu_strategy(algo),
                false,
                sharing,
            )
            .map_err(text)?;
        let items: Vec<Node> = table.col(1).iter().filter_map(|k| k.as_node()).collect();
        let mut answer = Answer::of_nodes(&items);
        answer.fed_back = stats.rows_fed_back;
        answer.depth = stats.iterations;
        answer.body_calls = stats.body_evaluations;
        answer.static_hits = self.batched.static_cache_hits() - hits;
        answer.static_evals = self.batched.static_plan_evals() - evals;
        Ok(answer)
    }
}

// ---------------------------------------------------------------------
// The parts of `Engine::prepare`, one public call each (user d)
// ---------------------------------------------------------------------

/// A parsed query module (`parse_query`).
pub struct Parsed(QueryModule);

/// `parse_query`.
pub fn parse(query: &str) -> Res<Parsed> {
    parse_query(query).map(Parsed).map_err(text)
}

/// `Lexer::next_token` to the end of `query`; returns the token count.
pub fn lex(query: &str) -> Res<usize> {
    let mut lexer = Lexer::new(query);
    let mut tokens = 0;
    loop {
        let token = lexer.next_token().map_err(text)?;
        if token.kind == TokenKind::Eof {
            return Ok(tokens);
        }
        tokens += 1;
    }
}

impl Parsed {
    /// Call `f(variable, body)` for every IFP occurrence, in syntactic
    /// order (functions, declared variables, main expression).
    fn for_each_occurrence(&self, mut f: impl FnMut(&str, &Expr)) {
        let mut visit = |expr: &Expr| {
            expr.walk(&mut |e| {
                if let Expr::Fixpoint { var, body, .. } = e {
                    f(var, body);
                }
            });
        };
        for function in &self.0.functions {
            visit(&function.body);
        }
        for (_, value) in &self.0.variables {
            visit(value);
        }
        visit(&self.0.body);
    }

    /// `is_distributivity_safe` (Figure 5) on every occurrence; returns
    /// how many were certified.
    pub fn syntactic(&self) -> usize {
        let mut safe = 0;
        self.for_each_occurrence(|var, body| {
            safe += usize::from(is_distributivity_safe(body, var, &self.0.functions).safe);
        });
        safe
    }

    /// `compile_recursion_body` on every occurrence (bodies outside the
    /// algebraic subset yield no plan).
    pub fn compile(&self) -> Vec<CompiledPlan> {
        let mut plans = Vec::new();
        self.for_each_occurrence(|var, body| {
            plans.extend(compile_recursion_body(body, var).ok().map(CompiledPlan));
        });
        plans
    }
}

/// One compiled recursion body.
pub struct CompiledPlan(CompiledBody);

impl CompiledPlan {
    /// `check_distributivity`: the ∪ push-up of Section 4.
    pub fn pushup(&self) -> bool {
        check_distributivity(&self.0.plan).distributive
    }
}

impl Db {
    /// `Engine::analyse`: both approximations on every occurrence.
    pub fn analyse(&self, parsed: &Parsed) -> usize {
        self.0.analyse(&parsed.0).len()
    }

    /// `cost::decide` for every occurrence of `plan` over the full
    /// {Naive, Delta} × {algebraic, source} grid, against this engine's
    /// store statistics and a fresh feedback cell.
    pub fn decide(&self, plan: &Plan) -> usize {
        let stats = self.0.store().statistics();
        let feedback = FeedbackCell::new();
        let mut decided = 0;
        for occurrence in plan.0.occurrences() {
            let mut grid = Vec::with_capacity(4);
            for backend in [
                FixpointBackendTag::Algebraic,
                FixpointBackendTag::Interpreted,
            ] {
                if backend == FixpointBackendTag::Algebraic && !occurrence.is_algebraic_capable() {
                    continue;
                }
                for strategy in [FixpointStrategy::Delta, FixpointStrategy::Naive] {
                    if strategy == FixpointStrategy::Delta && !occurrence.report().is_distributive()
                    {
                        continue;
                    }
                    grid.push(PlanAlternative {
                        strategy,
                        backend,
                        batched: false,
                    });
                }
            }
            std::hint::black_box(cost::decide(
                &grid,
                occurrence.features(),
                &stats,
                &feedback,
                1,
            ));
            decided += 1;
        }
        decided
    }
}

// ---------------------------------------------------------------------
// Query service (users b and c)
// ---------------------------------------------------------------------

/// Why the service did not answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    Saturated,
    Deadline,
    Other(String),
}

/// One service answer with the service's own accounting of it.
pub struct Served {
    pub answer: Answer,
    pub queue_wait: Duration,
    pub cache_hit: bool,
}

/// Cumulative service counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub forks: u64,
    pub saturated: u64,
    pub deadline_exceeded: u64,
}

/// `QueryService` under `ServiceConfig { max_concurrent, max_queue,
/// ..default }`: `Strategy::Auto` and `Backend::Auto`, so the cost model is
/// in the loop.
#[derive(Clone)]
pub struct Service(Arc<QueryService>);

impl Service {
    pub fn new(max_concurrent: usize, max_queue: usize) -> Service {
        Service(Arc::new(QueryService::new(ServiceConfig {
            max_concurrent,
            max_queue,
            ..ServiceConfig::default()
        })))
    }

    /// `QueryService::load_document_with_ids` (writer side).
    pub fn load(&self, uri: &str, xml: &str, id_attributes: &[&str]) -> Res<()> {
        self.0
            .load_document_with_ids(uri, xml, id_attributes)
            .map_err(text)
    }

    /// `QueryService::publish`.
    pub fn publish(&self) -> Res<()> {
        self.0.publish().map(|_| ()).map_err(text)
    }

    /// `QueryService::execute`.
    pub fn execute(&self, query: &str) -> Result<Served, Refusal> {
        match self.0.execute(query) {
            Ok(served) => Ok(Served {
                answer: Answer::of_outcome(&served.outcome, &served.store),
                queue_wait: served.stats.queue_wait,
                cache_hit: served.stats.cache == CacheOutcome::Hit,
            }),
            Err(ServiceError::Saturated { .. }) => Err(Refusal::Saturated),
            Err(ServiceError::DeadlineExceeded { .. }) => Err(Refusal::Deadline),
            Err(other) => Err(Refusal::Other(other.to_string())),
        }
    }

    /// `QueryService::counters`.
    pub fn counters(&self) -> Counters {
        let counters = self.0.counters();
        Counters {
            forks: counters.cache.forks,
            saturated: counters.saturated,
            deadline_exceeded: counters.deadline_exceeded,
        }
    }

    /// `QueryService::published`: the snapshot new queries pin.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.0.published().store)
    }
}

/// A published snapshot, pinned.
pub struct Snapshot(Arc<NodeStore>);

impl Snapshot {
    pub fn store(&self) -> Store<'_> {
        Store(&self.0)
    }

    /// `PreparedQuery::prepare` under the service's defaults — what the
    /// service does on a plan-cache miss.
    pub fn prepare(query: &str) -> Res<Plan> {
        PreparedQuery::prepare(
            query,
            Strategy::Auto,
            Backend::Auto,
            Parallelism::Sequential,
        )
        .map(Plan)
        .map_err(text)
    }

    /// `PreparedQuery::execute_on` over a copy-on-write view of this
    /// snapshot — what the service does once admission, cache lookup and
    /// the lease are behind it.
    pub fn execute_on(&self, plan: &Plan) -> Res<Answer> {
        let mut cow = CowStore::new(Arc::clone(&self.0));
        let outcome = plan
            .0
            .execute_on(&mut cow, &Bindings::new(), &ExecOptions::default())
            .map_err(text)?;
        Ok(Answer::of_outcome(&outcome, cow.read()))
    }
}
