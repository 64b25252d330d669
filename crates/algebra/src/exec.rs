//! Plan execution over relational encodings of the node store.
//!
//! The executor evaluates a [`Plan`] bottom-up (with memoisation over the
//! DAG) into [`Relation`]s.  Its most important entry point for the
//! reproduction is [`Executor::run_fixpoint`]: given a compiled recursion
//! body plan and a seed node set, it drives the Naïve (`µ`) or Delta (`µ∆`)
//! iteration and records how many rows were fed back into the body — the
//! quantity Table 2 of the paper reports.
//!
//! ## Data plane
//!
//! The body plan is re-evaluated once per fixpoint iteration, so the
//! per-row representation is the hot path.  Three choices keep it
//! allocation-free:
//!
//! * **Step chains are one path join.**  Every maximal chain of `Step` and
//!   `IdLookup` nodes whose lower hops have one consumer each — the hop
//!   above — runs as one [`PathJoin`] at the chain's top node, compiled
//!   once per run: the kernel the interpreter runs a path spine through
//!   ([`xqy_xdm::pathjoin`]).  No relation is built for a hop below the
//!   top, and no hop sorts; the driver puts the body's images in document
//!   order.  A seed-carried plan runs one pass per tag group.
//! * **One relation shape.**  Every plan node evaluates to a [`Relation`]:
//!   an `item` column of node ids and, in the rec-dependent part of a
//!   seed-carried plan, an `iter` column beside it holding each row's
//!   group — its seed's dense index in the batch.  This is the loop-lifted
//!   `iter|pos|item` encoding of Pathfinder without `pos`: the driver
//!   restores document order, so no operator needs positions.  No cell
//!   holds a string or an integer: a `[@a = 'lit']` selection reads the
//!   attribute values through the store, and a condition holds when its
//!   relation is not empty.
//! * **Shared columns, reused buffers.**  Both columns are `Arc`-shared,
//!   so a memo hit, run-cache hit or `RecInput` reference bumps a count.
//!   The memo and the run cache are one vector indexed by plan node, and
//!   the recursion input's columns, the dedupe set and the join buffers
//!   are refilled in place for the whole run: an evaluation allocates for
//!   the relations it makes, not for its bookkeeping.
//!
//! ## What an executor keeps
//!
//! The executor borrows no store — every entry point takes a `&NodeStore`,
//! which it only reads: no compiled plan constructs a node — and keeps no
//! relation from one run to the next.  Relations live in two scopes only:
//! the memo of one body evaluation, and the *run cache* of one run (the
//! relations of the plan nodes that do not depend on the recursion input,
//! computed on the first iteration and shared by every later one).  Both
//! are built when the run starts and dropped when it ends, so no plan,
//! store or document load can make a relation stale — there is nothing to
//! invalidate.  What outlives a run is its limits and two counters; the
//! prepared-query layer makes one executor per execution.
//!
//! ## Fixpoints
//!
//! The executor does not own a fixpoint loop: [`Executor::run_fixpoint`]
//! and [`Executor::run_fixpoint_batched`] hand a compiled body to the
//! shared Figure-3 driver ([`xqy_xdm::fixpoint`]) as a [`Body`].  The whole
//! run — body, folds and materialisation — is on the caller thread,
//! against the caller's store, as on the interpreter.

use std::iter::repeat_n;
use std::mem::size_of;
use std::sync::Arc;

use xqy_xdm::fixpoint::{self, Body, Config, FixpointStrategy, Group, LimitError, Limits, Seeds};
use xqy_xdm::{Hop, IdSet, JoinScratch, NodeId, NodeStore, PathJoin};

pub use xqy_xdm::fixpoint::{BatchSharing, ExecStats};

use crate::error::AlgebraError;
use crate::plan::{Operator, Plan, PlanNodeId};
use crate::Result;

/// What a plan node evaluates to: an `item` column of nodes and, in the
/// rec-dependent part of a seed-carried plan, an `iter` column beside it —
/// row `r` belongs to group `iter[r]`, a dense index into the batch.
///
/// Both columns are `Arc`-shared: `clone()` is two reference-count bumps.
/// The executor works with *set* semantics: ∪ and \ hold no row twice, and
/// the fixpoint driver reduces every group to a set of nodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    iter: Option<Arc<Vec<u32>>>,
    item: Arc<Vec<NodeId>>,
}

impl Relation {
    /// Nodes with no `iter` column: the input of a per-seed plan.
    pub fn new(item: Vec<NodeId>) -> Self {
        Relation::of(None, item)
    }

    /// Row `r` is `(iter[r], item[r])`: the input of a seed-carried plan.
    ///
    /// # Panics
    /// Panics when the columns' lengths differ.
    pub fn tagged(iter: Vec<u32>, item: Vec<NodeId>) -> Self {
        assert_eq!(iter.len(), item.len(), "one iter per item");
        Relation::of(Some(iter), item)
    }

    /// Fresh columns: the relational growth point of the per-query memory
    /// accounting (a shared handle charges nothing).
    fn of(iter: Option<Vec<u32>>, item: Vec<NodeId>) -> Self {
        let relation = Relation {
            iter: iter.map(Arc::new),
            item: Arc::new(item),
        };
        xqy_xdm::budget::charge(relation.bytes());
        relation
    }

    /// The rows `rows`, with an `iter` column when `tagged`.
    fn collect(tagged: bool, rows: impl Iterator<Item = (u32, NodeId)>) -> Self {
        let (mut iter, mut item) = (Vec::new(), Vec::new());
        for (group, node) in rows {
            if tagged {
                iter.push(group);
            }
            item.push(node);
        }
        Relation::of(tagged.then_some(iter), item)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.item.len()
    }

    /// `true` when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.item.is_empty()
    }

    /// The `item` column.
    pub fn items(&self) -> &[NodeId] {
        &self.item
    }

    /// The `iter` column, if the relation has one.
    pub fn iters(&self) -> Option<&[u32]> {
        self.iter.as_deref().map(Vec::as_slice)
    }

    fn bytes(&self) -> u64 {
        let iter = self.iter.as_ref().map_or(0, |_| size_of::<u32>());
        (self.len() * (iter + size_of::<NodeId>())) as u64
    }

    /// Row `r` as `(iter, item)`; without an `iter` column every row is in
    /// group 0.
    fn row(&self, r: usize) -> (u32, NodeId) {
        (self.iter.as_ref().map_or(0, |iter| iter[r]), self.item[r])
    }

    fn rows(&self) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        (0..self.len()).map(|r| self.row(r))
    }

    /// The rows `keep` accepts; `self`, storage shared, when it keeps all.
    fn retain(self, mut keep: impl FnMut((u32, NodeId)) -> bool) -> Relation {
        let Some(first) = (0..self.len()).position(|r| !keep(self.row(r))) else {
            return self;
        };
        let rest = (first + 1..self.len())
            .map(|r| self.row(r))
            .filter(|&row| keep(row));
        Relation::collect(self.iter.is_some(), self.rows().take(first).chain(rest))
    }

    /// The distinct `(iter, item)` rows, deduplicated through `seen`.
    fn distinct(self, seen: &mut IdSet<(u32, NodeId)>) -> Relation {
        seen.clear();
        self.retain(|row| seen.insert(row))
    }
}

/// Refill `column` with `values` — in place, unless something else still
/// holds it.
fn refill<T: Clone>(
    column: &mut Option<Arc<Vec<T>>>,
    values: impl Iterator<Item = T>,
) -> Arc<Vec<T>> {
    let mut column = column.take().unwrap_or_default();
    let buffer = Arc::make_mut(&mut column);
    buffer.clear();
    buffer.extend(values);
    column
}

/// The executor state scoped to *one run* of one plan: built when the run
/// starts, dropped when it ends.
#[derive(Debug, Default)]
struct PlanState {
    /// `values[id]` — the relation of plan node `id`.  A rec-dependent
    /// node's is the memo of one evaluation, dropped when it ends; a
    /// rec-independent node's is the run cache, computed on the run's first
    /// iteration and handed out as a shared handle on every later one.
    values: Vec<Option<Relation>>,
    /// `rec_dependent[id]` — does plan node `id` (transitively) consume a
    /// `RecInput`?
    rec_dependent: Vec<bool>,
    /// The recursion input's columns, refilled by every evaluation.
    input_iter: Option<Arc<Vec<u32>>>,
    input_item: Option<Arc<Vec<NodeId>>>,
    /// The rows a ∪, \ or dedupe has met.
    seen: IdSet<(u32, NodeId)>,
}

impl PlanState {
    /// The state a run of `plan` starts from.
    fn of(plan: &Plan) -> Self {
        PlanState {
            values: vec![None; plan.len()],
            rec_dependent: plan.rec_dependent(),
            ..PlanState::default()
        }
    }

    /// The recursion input `item` — tagged with `iter`, if given — in the
    /// run's reused columns.
    fn input(
        &mut self,
        iter: Option<impl Iterator<Item = u32>>,
        item: impl Iterator<Item = NodeId>,
    ) -> Relation {
        let rec = Relation {
            iter: iter.map(|iter| refill(&mut self.input_iter, iter)),
            item: refill(&mut self.input_item, item),
        };
        xqy_xdm::budget::charge(rec.bytes());
        rec
    }

    /// Take back the columns of an input made by [`PlanState::input`].
    fn recycle(&mut self, rec: Relation) {
        self.input_iter = rec.iter.or(self.input_iter.take());
        self.input_item = Some(rec.item);
    }
}

/// The plan executor.
///
/// Holds no store borrow — every entry point takes a `&NodeStore` — and no
/// relation beyond the run that computed it (see the [module docs](self)).
#[derive(Debug)]
pub struct Executor {
    /// Memo, run cache and buffers of the run in progress; empty between
    /// runs.
    plan_state: PlanState,
    /// Times the run cache returned a shared handle.
    static_cache_hits: u64,
    /// Times a rec-independent plan node was actually evaluated.
    static_plan_evals: u64,
    /// What the fixpoint iteration barrier enforces: the divergence guards
    /// and the per-query deadline and budgets.  Persists across runs until
    /// reset; a breach stops the run between iterations, never
    /// mid-mutation.
    pub limits: Limits,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// Create a fresh executor.
    pub fn new() -> Self {
        Executor {
            plan_state: PlanState::default(),
            static_cache_hits: 0,
            static_plan_evals: 0,
            limits: Limits::default(),
        }
    }

    /// Drop the run cache, returning an estimate of the bytes freed — the
    /// relational side of budget relief.  The relations are recomputable:
    /// the next iteration evaluates what it needs again.
    fn release_run_cache(&mut self) -> u64 {
        let state = &mut self.plan_state;
        state
            .values
            .iter_mut()
            .zip(&state.rec_dependent)
            .filter(|&(_, &dependent)| !dependent)
            .filter_map(|(value, _)| value.take())
            .map(|relation| relation.bytes())
            .sum()
    }

    /// How many run-cache lookups returned a shared handle, over the
    /// executor's lifetime: a rec-independent plan node met again on a
    /// later iteration of the *same* run (nothing is reused across runs).
    /// The prepared-query layer diffs this around a run to report it in
    /// `FixpointStats`.
    pub fn static_cache_hits(&self) -> u64 {
        self.static_cache_hits
    }

    /// How many rec-independent plan nodes were actually evaluated, over
    /// the executor's lifetime — once per node per run that reaches it
    /// (twice only when budget relief dropped the run cache in between).
    pub fn static_plan_evals(&self) -> u64 {
        self.static_plan_evals
    }

    /// Run `f` with the state of a fresh run of `plan` installed, and drop
    /// that state afterwards.
    fn in_run<T>(&mut self, plan: &Plan, f: impl FnOnce(&mut Self) -> T) -> T {
        self.plan_state = PlanState::of(plan);
        let out = f(self);
        self.plan_state = PlanState::default();
        out
    }

    /// Evaluate `plan` with the recursion input bound to `rec` (pass an
    /// empty relation when the plan has no `RecInput` leaf).
    ///
    /// A direct call is a run of its own: no relation carries over from
    /// previous calls.  [`Executor::run_fixpoint`] instead scopes the run
    /// cache to the whole fixpoint.
    pub fn eval_plan(
        &mut self,
        store: &NodeStore,
        plan: &Plan,
        rec: &Relation,
    ) -> Result<Relation> {
        let mut joins = Joins::of(store, plan);
        self.in_run(plan, |exec| {
            exec.eval_plan_in_run(store, plan, rec, &mut joins)
        })
    }

    /// One evaluation of `plan` inside the run in progress — the
    /// per-iteration entry point of a fixpoint run.
    fn eval_plan_in_run(
        &mut self,
        store: &NodeStore,
        plan: &Plan,
        rec: &Relation,
        joins: &mut Joins<'_>,
    ) -> Result<Relation> {
        let root = plan
            .root()
            .ok_or_else(|| AlgebraError::InvalidPlan("plan has no root".into()))?;
        let out = self.eval_node(store, plan, root, rec, joins);
        // The memo lives for one evaluation, the run cache for the run.
        let state = &mut self.plan_state;
        for (value, &dependent) in state.values.iter_mut().zip(&state.rec_dependent) {
            if dependent {
                *value = None;
            }
        }
        out
    }

    fn eval_node(
        &mut self,
        store: &NodeStore,
        plan: &Plan,
        id: PlanNodeId,
        rec: &Relation,
        joins: &mut Joins<'_>,
    ) -> Result<Relation> {
        let dependent = self.plan_state.rec_dependent[id];
        if let Some(value) = &self.plan_state.values[id] {
            self.static_cache_hits += u64::from(!dependent);
            return Ok(value.clone());
        }
        let node = plan.node(id);
        let mut input =
            |exec: &mut Self, i: usize| exec.eval_node(store, plan, node.inputs[i], rec, joins);
        let relation = match &node.op {
            Operator::RecInput => rec.clone(),
            Operator::Empty => Relation::default(),
            Operator::DocRoot(uri) => {
                let doc = store
                    .doc(uri)
                    .ok_or_else(|| AlgebraError::Execution(format!("document not found: {uri}")))?;
                let node = store.document_node(doc).ok_or_else(|| {
                    AlgebraError::Execution(format!("document has no root: {uri}"))
                })?;
                Relation::new(vec![node])
            }
            Operator::AttrEquals { name, value } => {
                input(self, 0)?.retain(|(_, node)| store.has_attribute_value(node, name, value))
            }
            Operator::Union => {
                let (left, right) = (input(self, 0)?, input(self, 1)?);
                debug_assert_eq!(left.iter.is_some(), right.iter.is_some(), "a tagged ∪ arm");
                let seen = &mut self.plan_state.seen;
                seen.clear();
                let rows = left
                    .rows()
                    .chain(right.rows())
                    .filter(|&row| seen.insert(row));
                Relation::collect(left.iter.is_some(), rows)
            }
            Operator::Difference => {
                let (left, right) = (input(self, 0)?, input(self, 1)?);
                debug_assert_eq!(left.iter.is_some(), right.iter.is_some(), "a tagged \\ arm");
                let seen = &mut self.plan_state.seen;
                seen.clear();
                seen.extend(right.rows());
                left.retain(|row| !seen.contains(&row))
            }
            // A condition's count is only asked whether it is zero.
            Operator::Count => input(self, 0)?,
            Operator::IfThenElse => {
                let taken = if input(self, 0)?.is_empty() { 2 } else { 1 };
                input(self, taken)?
            }
            // Every step and `id()` runs in the path join of its chain, at
            // the chain's top: the hops below it are never evaluated on
            // their own.
            Operator::Step { .. } | Operator::IdLookup => {
                let below = joins.input_of(id).ok_or_else(|| {
                    AlgebraError::InvalidPlan(format!(
                        "{} evaluated outside its chain",
                        node.op.name()
                    ))
                })?;
                let below = self.eval_node(store, plan, below, rec, joins)?;
                joins.run(id, &below, &mut self.plan_state.seen)
            }
        };
        self.static_plan_evals += u64::from(!dependent);
        self.plan_state.values[id] = Some(relation.clone());
        Ok(relation)
    }

    /// Run the fixpoint of `body` seeded with `seed` using `strategy`.
    ///
    /// With `seed_in_result = false` the accumulation starts from the body
    /// applied to the seed (Definition 2.1); with `true` it starts from the
    /// seed itself (the paper's Example 2.4 reading).  The result has no
    /// `iter` column, and its nodes are in document order.
    pub fn run_fixpoint(
        &mut self,
        store: &NodeStore,
        body: &Plan,
        seed: &[NodeId],
        strategy: impl Into<FixpointStrategy>,
        seed_in_result: bool,
    ) -> Result<(Relation, ExecStats)> {
        let seeds = Seeds::Set(seed);
        let sharing = BatchSharing::PerSeed;
        let (mut groups, stats) =
            self.run_fixpoint_groups(store, body, seeds, strategy.into(), seed_in_result, sharing)?;
        Ok((Relation::new(groups.pop().unwrap_or_default()), stats))
    }

    /// Run one **batched multi-source fixpoint**: evaluate the recursion
    /// body once per iteration over one relation holding the frontiers of
    /// *all* seeds, each row's `iter` naming its seed, instead of running
    /// one fixpoint per seed.  Every body scan and duplicate elimination is
    /// shared across the batch; Naïve/Delta semantics are applied **per
    /// seed** by the driver.
    ///
    /// `body` must be the [seed-carried form](Plan::seed_carried) of the
    /// recursion body (plans that are not seed-local are not batchable and
    /// should run per seed).  `seeds` must be distinct; the caller
    /// deduplicates (a duplicated seed would fold two identical fixpoints
    /// into one group).  `sharing` picks the frontier representation:
    /// [`BatchSharing::DistinctNodes`] additionally shares body scans
    /// between seeds whose frontiers overlap, evaluating each distinct node
    /// once per run, and is only sound for distributive bodies — pass
    /// [`BatchSharing::PerSeed`] otherwise.
    ///
    /// Row `r` of the result is `(i, node)` for a node of the fixpoint of
    /// `seeds[i]`: grouped by seed in input order with each group in
    /// document order — exactly the concatenation of the per-seed
    /// [`Executor::run_fixpoint`] results.  [`ExecStats::iterations`] is
    /// the *maximum* per-seed depth, [`ExecStats::rows_fed_back`] the sum
    /// of the per-seed counts and [`ExecStats::body_evaluations`] counts
    /// the shared iterations (under [`BatchSharing::DistinctNodes`], those
    /// that met a new node).
    pub fn run_fixpoint_batched(
        &mut self,
        store: &NodeStore,
        body: &Plan,
        seeds: &[NodeId],
        strategy: impl Into<FixpointStrategy>,
        seed_in_result: bool,
        sharing: BatchSharing,
    ) -> Result<(Relation, ExecStats)> {
        let batch = Seeds::Each(seeds);
        let (groups, stats) =
            self.run_fixpoint_groups(store, body, batch, strategy.into(), seed_in_result, sharing)?;
        let iter = (0..).zip(&groups);
        let iter = iter
            .flat_map(|(i, nodes)| repeat_n(i, nodes.len()))
            .collect();
        Ok((Relation::tagged(iter, groups.concat()), stats))
    }

    /// The general entry point behind [`Executor::run_fixpoint`] and
    /// [`Executor::run_fixpoint_batched`]: hand `plan` to the shared
    /// Figure-3 driver as a [`Body`] and return one node list per source,
    /// in document order — `plan` in per-seed form for [`Seeds::Set`]
    /// (where `sharing` is immaterial), in seed-carried form for
    /// [`Seeds::Each`].
    pub fn run_fixpoint_groups(
        &mut self,
        store: &NodeStore,
        plan: &Plan,
        seeds: Seeds<'_>,
        strategy: FixpointStrategy,
        seed_in_result: bool,
        sharing: BatchSharing,
    ) -> Result<(Vec<Vec<NodeId>>, ExecStats)> {
        let config = Config {
            strategy,
            sharing,
            seed_in_result,
            limits: self.limits,
        };
        let carried = matches!(seeds, Seeds::Each(_));
        let (result, stats) = self.in_run(plan, |executor| {
            let mut body = PlanBody {
                executor,
                store,
                plan,
                carried,
                joins: Joins::of(store, plan),
            };
            fixpoint::run(&mut body, &config, seeds)
        });
        Ok((result?, stats))
    }

    /// Evaluate the (seed-carried) body once over `tagged` — a list of
    /// `(tag, nodes)` groups, group `i`'s rows entering as `(i, node)` —
    /// and regroup the output rows by `iter`.  One body evaluation serves
    /// the entire batch; the tags themselves never reach the plan (seeds in
    /// [`BatchSharing::PerSeed`] mode, origin nodes in
    /// [`BatchSharing::DistinctNodes`] mode).
    fn eval_tagged_batch(
        &mut self,
        store: &NodeStore,
        body: &Plan,
        tagged: &[Group<'_>],
        stats: &mut ExecStats,
        joins: &mut Joins<'_>,
    ) -> Result<Vec<Vec<NodeId>>> {
        let total_rows: usize = tagged.iter().map(|(_, nodes)| nodes.len()).sum();
        stats.frontier_curve.push(total_rows as u64);
        stats.body_evaluations += 1;
        let iter = (0..).zip(tagged);
        let rec = self.plan_state.input(
            Some(iter.flat_map(|(i, (_, nodes))| repeat_n(i, nodes.len()))),
            tagged.iter().flat_map(|(_, nodes)| nodes.iter().copied()),
        );
        let out = self.eval_plan_in_run(store, body, &rec, joins)?;
        self.plan_state.recycle(rec);
        let iter = out.iters().ok_or_else(|| {
            AlgebraError::InvalidPlan("a seed-carried plan's output has an iter column".into())
        })?;
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); tagged.len()];
        for (&i, &node) in iter.iter().zip(out.items()) {
            groups[i as usize].push(node);
        }
        Ok(groups)
    }

    fn eval_body(
        &mut self,
        store: &NodeStore,
        body: &Plan,
        input: &[NodeId],
        stats: &mut ExecStats,
        joins: &mut Joins<'_>,
    ) -> Result<Vec<NodeId>> {
        stats.frontier_curve.push(input.len() as u64);
        stats.body_evaluations += 1;
        xqy_xdm::fail::point("alloc.table").map_err(|e| AlgebraError::Execution(e.to_string()))?;
        let rec = self
            .plan_state
            .input(None::<std::iter::Empty<u32>>, input.iter().copied());
        let out = self.eval_plan_in_run(store, body, &rec, joins)?;
        // Unshared unless the body's value is its input or cached.
        let items = Arc::unwrap_or_clone(out.item);
        self.plan_state.recycle(rec);
        Ok(items)
    }
}

/// A compiled recursion body as the driver sees it: the per-seed plan is
/// evaluated group by group, the seed-carried plan once over all groups.
struct PlanBody<'a> {
    executor: &'a mut Executor,
    store: &'a NodeStore,
    plan: &'a Plan,
    carried: bool,
    /// The run's path joins, built once.
    joins: Joins<'a>,
}

impl Body for PlanBody<'_> {
    type Error = AlgebraError;

    fn images(&mut self, groups: &[Group<'_>], stats: &mut ExecStats) -> Result<Vec<Vec<NodeId>>> {
        let (store, plan, joins) = (self.store, self.plan, &mut self.joins);
        if self.carried {
            return self
                .executor
                .eval_tagged_batch(store, plan, groups, stats, joins);
        }
        groups
            .iter()
            .map(|&(_, nodes)| self.executor.eval_body(store, plan, nodes, stats, joins))
            .collect()
    }

    fn store(&self) -> &NodeStore {
        self.store
    }

    fn release_memory(&mut self) -> u64 {
        self.executor.release_run_cache()
    }

    fn limit_error(&self, error: LimitError) -> AlgebraError {
        AlgebraError::Limit(error)
    }
}

/// The path joins of one run of a plan: every maximal chain of `Step` and
/// `IdLookup` nodes whose lower hops have one consumer each — the hop
/// above — runs as one [`PathJoin`] at its top node, so no relation is
/// built for a hop below the top.
struct Joins<'a> {
    /// `tops[id]` for the top node `id` of a chain: the plan node below
    /// the chain's lowest hop, and the chain's join.
    tops: Vec<Option<(PlanNodeId, PathJoin<'a>)>>,
    scratch: JoinScratch,
    /// `met[i]` — has one [`Joins::run`] met group `i` yet?
    met: Vec<bool>,
}

impl<'a> Joins<'a> {
    /// The chains of `plan`, compiled over `store`.
    fn of(store: &'a NodeStore, plan: &'a Plan) -> Self {
        let hop = |id: PlanNodeId| match &plan.node(id).op {
            Operator::Step { axis, test } => Some(Hop::Step(*axis, test)),
            Operator::IdLookup => Some(Hop::Id),
            _ => None,
        };
        // A hop is absorbed into the hop above it when that is its only
        // consumer (and it is not the root, whose relation is the answer).
        let mut consumers = vec![0usize; plan.len()];
        let mut under_hop = vec![false; plan.len()];
        for (id, node) in plan.iter() {
            for &input in &node.inputs {
                consumers[input] += 1;
                under_hop[input] |= hop(id).is_some();
            }
        }
        let absorbed = |id: PlanNodeId| {
            hop(id).is_some() && consumers[id] == 1 && under_hop[id] && plan.root() != Some(id)
        };
        let tops = (0..plan.len())
            .map(|top| {
                if hop(top).is_none() || absorbed(top) {
                    return None;
                }
                let mut chain = vec![top];
                let mut below = plan.node(top).inputs[0];
                while absorbed(below) {
                    chain.push(below);
                    below = plan.node(below).inputs[0];
                }
                let hops = chain.iter().rev().filter_map(|&id| hop(id));
                Some((below, PathJoin::new(store, hops)))
            })
            .collect();
        Joins {
            tops,
            scratch: JoinScratch::default(),
            met: Vec::new(),
        }
    }

    /// The input of the chain topped by `id`, if `id` tops one.
    fn input_of(&self, id: PlanNodeId) -> Option<PlanNodeId> {
        self.tops[id].as_ref().map(|(input, _)| *input)
    }

    /// The chain topped by `id` (which must top one) over `input`: one pass
    /// over the whole relation when it has no `iter` column, else one per
    /// run of rows of equal `iter`, each selected node keeping its run's
    /// `iter`.  The output holds no row twice, as every operator's: a group
    /// split into several runs — its rows interleaved with another group's,
    /// as a ∪ leaves them — may select a node in more than one run, so then
    /// the output is made distinct through `seen`.
    fn run(
        &mut self,
        id: PlanNodeId,
        input: &Relation,
        seen: &mut IdSet<(u32, NodeId)>,
    ) -> Relation {
        let (_, join) = self.tops[id].as_ref().expect("`id` tops a chain");
        let mut item = Vec::new();
        let Some(iter) = input.iters() else {
            join.select_into(input.items(), &mut self.scratch, &mut item);
            return Relation::new(item);
        };
        let mut out_iter = Vec::new();
        let mut split = false;
        self.met.clear();
        let mut start = 0;
        while start < iter.len() {
            let group = iter[start];
            let end = iter[start..]
                .iter()
                .position(|&i| i != group)
                .map_or(iter.len(), |run| start + run);
            let i = group as usize;
            if i >= self.met.len() {
                self.met.resize(i + 1, false);
            }
            split |= std::mem::replace(&mut self.met[i], true);
            join.select_into(&input.items()[start..end], &mut self.scratch, &mut item);
            out_iter.resize(item.len(), group);
            start = end;
        }
        let out = Relation::tagged(out_iter, item);
        if split {
            out.distinct(seen)
        } else {
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_xdm::{Axis, DocId, NodeTest};

    const NAIVE: FixpointStrategy = FixpointStrategy::Naive;
    const DELTA: FixpointStrategy = FixpointStrategy::Delta;

    const CURRICULUM: &str = r#"<curriculum>
        <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
        <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
        <course code="c3"><prerequisites/></course>
        <course code="c4"><prerequisites/></course>
    </curriculum>"#;

    fn store_with_curriculum() -> (NodeStore, DocId) {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document_with_uri("curriculum.xml", CURRICULUM)
            .unwrap();
        store.register_id_attribute(doc, "code");
        (store, doc)
    }

    /// The Q1 recursion body as a hand-built plan.
    fn q1_plan() -> Plan {
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let prereq = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::Name("prerequisites".into()),
            },
            vec![rec],
        );
        let code = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::Name("pre_code".into()),
            },
            vec![prereq],
        );
        let lookup = plan.add(Operator::IdLookup, vec![code]);
        plan.set_root(lookup);
        plan
    }

    fn seed_course(store: &NodeStore, doc: DocId, code: &str) -> Vec<NodeId> {
        let root = store.document_element(doc).unwrap();
        store
            .axis_nodes(root, Axis::Child, &NodeTest::Name("course".into()))
            .into_iter()
            .filter(|&c| store.attribute_value(c, "code") == Some(code))
            .collect()
    }

    #[test]
    fn step_and_select_operators() {
        let (store, doc) = store_with_curriculum();
        let root_elem = store.document_element(doc).unwrap();
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let courses = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::Name("course".into()),
            },
            vec![rec],
        );
        let select = plan.add(
            Operator::AttrEquals {
                name: "code".into(),
                value: "c2".into(),
            },
            vec![courses],
        );
        plan.set_root(select);

        let mut exec = Executor::new();
        let result = exec
            .eval_plan(&store, &plan, &Relation::new(vec![root_elem]))
            .unwrap();
        assert_eq!(result.len(), 1);
        let node = result.items()[0];
        assert_eq!(store.attribute_value(node, "code"), Some("c2"));
    }

    #[test]
    fn mu_computes_transitive_closure() {
        let (store, doc) = store_with_curriculum();
        let seed = seed_course(&store, doc, "c1");
        let plan = q1_plan();
        let mut exec = Executor::new();
        let (result, stats) = exec
            .run_fixpoint(&store, &plan, &seed, NAIVE, false)
            .unwrap();
        let mut codes: Vec<String> = result
            .items()
            .iter()
            .map(|&n| store.attribute_value(n, "code").unwrap().to_string())
            .collect();
        codes.sort();
        assert_eq!(codes, vec!["c2", "c3", "c4"]);
        assert!(stats.iterations >= 2);
    }

    #[test]
    fn mu_delta_matches_mu_and_feeds_fewer_rows() {
        let (store, doc) = store_with_curriculum();
        let seed = seed_course(&store, doc, "c1");
        let plan = q1_plan();

        let (naive_result, naive_stats) = {
            let mut exec = Executor::new();
            exec.run_fixpoint(&store, &plan, &seed, NAIVE, false)
                .unwrap()
        };
        let (delta_result, delta_stats) = {
            let mut exec = Executor::new();
            exec.run_fixpoint(&store, &plan, &seed, DELTA, false)
                .unwrap()
        };
        let mut a = naive_result.items().to_vec();
        let mut b = delta_result.items().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(delta_stats.rows_fed_back < naive_stats.rows_fed_back);
    }

    /// `doc('curriculum.xml')/descendant::pre_code/id(.)`: the courses
    /// some course requires, {c2, c3, c4}.
    fn required_courses(plan: &mut Plan) -> PlanNodeId {
        let docroot = plan.add(Operator::DocRoot("curriculum.xml".into()), vec![]);
        let codes = plan.add(
            Operator::Step {
                axis: Axis::Descendant,
                test: NodeTest::Name("pre_code".into()),
            },
            vec![docroot],
        );
        plan.add(Operator::IdLookup, vec![codes])
    }

    fn courses(store: &NodeStore, doc: DocId, codes: &[&str]) -> Vec<NodeId> {
        codes
            .iter()
            .flat_map(|code| seed_course(store, doc, code))
            .collect()
    }

    /// `count($x intersect …)`, with `intersect` spelled as the compiler
    /// spells it: `a \ (a \ b)`.  What a condition asks of a count is
    /// whether it is zero, so the count is the counted relation itself.
    #[test]
    fn intersect_and_count_operators() {
        let (store, doc) = store_with_curriculum();
        let mut plan = Plan::new();
        let left = plan.add(Operator::RecInput, vec![]);
        let right = required_courses(&mut plan);
        let outside = plan.add(Operator::Difference, vec![left, right]);
        let both = plan.add(Operator::Difference, vec![left, outside]);
        let count = plan.add(Operator::Count, vec![both]);
        plan.set_root(count);
        let rec = Relation::new(courses(&store, doc, &["c1", "c2", "c3"]));
        let result = Executor::new().eval_plan(&store, &plan, &rec).unwrap();
        assert_eq!(result.items(), courses(&store, doc, &["c2", "c3"]));
    }

    #[test]
    fn union_and_difference_operators() {
        let (store, doc) = store_with_curriculum();
        let mut exec = Executor::new();
        let mut plan = Plan::new();
        let a = plan.add(Operator::RecInput, vec![]);
        let b = required_courses(&mut plan);
        let union = plan.add(Operator::Union, vec![a, b]);
        plan.set_root(union);
        let rec = Relation::new(courses(&store, doc, &["c1", "c2", "c2"]));
        let result = exec.eval_plan(&store, &plan, &rec).unwrap();
        assert_eq!(result.len(), 4); // c1, c2, c3, c4 — set semantics

        let mut plan2 = Plan::new();
        let a = plan2.add(Operator::RecInput, vec![]);
        let b = required_courses(&mut plan2);
        let diff = plan2.add(Operator::Difference, vec![a, b]);
        plan2.set_root(diff);
        let rec = Relation::new(courses(&store, doc, &["c1", "c2"]));
        let result = exec.eval_plan(&store, &plan2, &rec).unwrap();
        assert_eq!(result.items(), courses(&store, doc, &["c1"]));
    }

    #[test]
    fn if_then_else_executes_on_count_condition() {
        let (store, doc) = store_with_curriculum();
        let mut plan = Plan::new();
        let input = plan.add(Operator::RecInput, vec![]);
        let cond = plan.add(Operator::Count, vec![input]);
        let then_branch = required_courses(&mut plan);
        let else_branch = plan.add(Operator::Empty, vec![]);
        let ite = plan.add(Operator::IfThenElse, vec![cond, then_branch, else_branch]);
        plan.set_root(ite);
        let mut exec = Executor::new();
        let c1 = Relation::new(courses(&store, doc, &["c1"]));
        let result = exec.eval_plan(&store, &plan, &c1).unwrap();
        assert_eq!(result.items(), courses(&store, doc, &["c2", "c3", "c4"]));
        let none = Relation::default();
        assert!(exec.eval_plan(&store, &plan, &none).unwrap().is_empty());
    }

    /// `Executor::default()` must behave like `Executor::new()` — in
    /// particular its iteration limit must not be zero.
    #[test]
    fn default_executor_matches_new() {
        assert_eq!(
            Executor::default().limits.max_iterations,
            Executor::new().limits.max_iterations
        );
        assert!(Executor::default().limits.max_iterations > 0);
    }

    /// An empty-seeded run over an id()-using body evaluates to the empty
    /// set, also right after a seeded run of the same body.
    #[test]
    fn empty_seed_id_lookup_returns_empty_after_a_seeded_run() {
        let (store, doc) = store_with_curriculum();
        let plan = q1_plan();
        let mut exec = Executor::new();
        let seed = seed_course(&store, doc, "c1");
        exec.run_fixpoint(&store, &plan, &seed, DELTA, false)
            .unwrap();
        let (result, _) = exec.run_fixpoint(&store, &plan, &[], DELTA, false).unwrap();
        assert!(result.is_empty());
    }

    /// The prerequisite closure with its `id()` targets minus a
    /// rec-independent scan (`doc → descendant::prerequisites`, two plan
    /// nodes) that holds no course: the Q1 answer, from a body whose every
    /// iteration needs the same scan.
    fn closure_minus_scan_plan() -> Plan {
        let mut plan = q1_plan();
        let targets = plan.root().unwrap();
        let docroot = plan.add(Operator::DocRoot("curriculum.xml".into()), vec![]);
        let scan = plan.add(
            Operator::Step {
                axis: Axis::Descendant,
                test: NodeTest::Name("prerequisites".into()),
            },
            vec![docroot],
        );
        let minus = plan.add(Operator::Difference, vec![targets, scan]);
        plan.set_root(minus);
        plan
    }

    /// Rec-independent plan nodes of [`closure_minus_scan_plan`].
    const SCAN_NODES: u64 = 2;

    /// The counters' movement over `run`.
    fn counted<T>(exec: &mut Executor, run: impl FnOnce(&mut Executor) -> T) -> (T, u64, u64) {
        let before = (exec.static_plan_evals(), exec.static_cache_hits());
        let out = run(exec);
        let evals = exec.static_plan_evals() - before.0;
        (out, evals, exec.static_cache_hits() - before.1)
    }

    /// The run cache's whole contract: every run evaluates each
    /// rec-independent node once and hits it on every later iteration, a
    /// run inherits nothing from the one before — same plan or not, same
    /// store or not — and leaves no table behind.
    #[test]
    fn run_cache_serves_one_run_and_is_dropped_with_it() {
        let (mut store, doc) = store_with_curriculum();
        let plan = closure_minus_scan_plan();
        let mut exec = Executor::new();
        for code in ["c1", "c2", "c3", "c4", "c1"] {
            let seed = seed_course(&store, doc, code);
            let ((result, stats), evals, hits) = counted(&mut exec, |exec| {
                exec.run_fixpoint(&store, &plan, &seed, DELTA, true)
                    .unwrap()
            });
            let (expected, _) = Executor::new()
                .run_fixpoint(&store, &q1_plan(), &seed, DELTA, true)
                .unwrap();
            assert_eq!(result, expected, "seed {code}");
            assert_eq!(evals, SCAN_NODES, "seed {code}: once per run, every run");
            assert!(stats.body_evaluations >= 2 || code > "c2", "seed {code}");
            assert_eq!(hits as usize, stats.body_evaluations - 1, "seed {code}");
            assert!(exec.plan_state.values.is_empty(), "dropped with the run");
            // Another plan in between thrashes nothing: there is nothing
            // plan-keyed to thrash.
            exec.run_fixpoint(&store, &q1_plan(), &seed, NAIVE, false)
                .unwrap();
        }

        // A document loaded between two runs is seen by the second.
        let late = r#"<curriculum><course code="c9"/></curriculum>"#;
        store.parse_document_with_uri("late.xml", late).unwrap();
        let mut late_plan = Plan::new();
        let late_root = late_plan.add(Operator::DocRoot("late.xml".into()), vec![]);
        late_plan.set_root(late_root);
        let empty = Relation::default();
        assert_eq!(exec.eval_plan(&store, &late_plan, &empty).unwrap().len(), 1);

        // A run on another store answers from that store.
        let mut other = NodeStore::new();
        let other_doc = other
            .parse_document_with_uri(
                "curriculum.xml",
                r#"<curriculum><course code="c2"/><course code="c1"><prerequisites>
                   <pre_code>c2</pre_code></prerequisites></course></curriculum>"#,
            )
            .unwrap();
        other.register_id_attribute(other_doc, "code");
        let seed = seed_course(&other, other_doc, "c1");
        let (result, _) = exec
            .run_fixpoint(&other, &plan, &seed, DELTA, false)
            .unwrap();
        assert_eq!(result.items(), seed_course(&other, other_doc, "c2"));
    }

    /// The batched multi-source driver computes, for every seed of the
    /// batch, exactly the per-seed fixpoint — grouped by seed, in document
    /// order within each group — while evaluating the shared body only
    /// `max(per-seed depth)` times.
    #[test]
    fn batched_fixpoint_matches_per_seed_runs() {
        let (store, doc) = store_with_curriculum();
        let plan = q1_plan();
        let batched_plan = plan.seed_carried().expect("Q1 body is seed-local");
        let seeds: Vec<NodeId> = ["c1", "c2", "c3"]
            .iter()
            .flat_map(|code| seed_course(&store, doc, code))
            .collect();

        for strategy in [NAIVE, DELTA] {
            for sharing in [BatchSharing::PerSeed, BatchSharing::DistinctNodes] {
                let (table, stats) = {
                    let mut exec = Executor::new();
                    exec.run_fixpoint_batched(
                        &store,
                        &batched_plan,
                        &seeds,
                        strategy,
                        false,
                        sharing,
                    )
                    .unwrap()
                };
                assert_eq!(stats.batch_seeds, 3);

                // Reference: one per-seed run per seed, concatenated.
                let mut expected_rows: Vec<(NodeId, NodeId)> = Vec::new();
                let mut max_depth = 0;
                let mut evaluations = 0;
                for &seed in &seeds {
                    let mut exec = Executor::new();
                    let (result, s) = exec
                        .run_fixpoint(&store, &plan, &[seed], strategy, false)
                        .unwrap();
                    max_depth = max_depth.max(s.iterations);
                    evaluations += s.body_evaluations;
                    for &node in result.items() {
                        expected_rows.push((seed, node));
                    }
                }
                let iters = table.iters().expect("a batched result has iter");
                let rows: Vec<(NodeId, NodeId)> = (iters.iter())
                    .zip(table.items())
                    .map(|(&i, &node)| (seeds[i as usize], node))
                    .collect();
                assert_eq!(
                    rows,
                    expected_rows,
                    "strategy {} sharing {}",
                    strategy.name(),
                    sharing.name()
                );
                assert_eq!(stats.iterations, max_depth, "depth is the max over seeds");
                assert!(
                    stats.body_evaluations < evaluations,
                    "batching must share body evaluations ({} vs {evaluations} per-seed)",
                    stats.body_evaluations
                );
            }
        }
    }

    /// A chain above a ∪ of a seed-carried plan meets each tag in two
    /// runs of rows; what both runs select still comes out once per tag.
    #[test]
    fn a_chain_over_split_tag_groups_repeats_no_row() {
        let (store, doc) = store_with_curriculum();
        let step = |plan: &mut Plan, name: &str, input| {
            plan.add(
                Operator::Step {
                    axis: Axis::Child,
                    test: NodeTest::Name(name.into()),
                },
                vec![input],
            )
        };
        // (($x/prerequisites) ∪ ($x/prerequisites/pre_code))/descendant-or-self::pre_code
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let left = step(&mut plan, "prerequisites", rec);
        let mid = step(&mut plan, "prerequisites", rec);
        let right = step(&mut plan, "pre_code", mid);
        let union = plan.add(Operator::Union, vec![left, right]);
        let top = plan.add(
            Operator::Step {
                axis: Axis::DescendantOrSelf,
                test: NodeTest::Name("pre_code".into()),
            },
            vec![union],
        );
        plan.set_root(top);
        let carried = plan.seed_carried().expect("the body is seed-local");

        let seeds: Vec<NodeId> = ["c1", "c2"]
            .iter()
            .flat_map(|code| seed_course(&store, doc, code))
            .collect();
        let rec = Relation::tagged(vec![0, 1], seeds);
        let out = Executor::new().eval_plan(&store, &carried, &rec).unwrap();
        // c1 has two pre_codes, c2 one: three rows, none repeated.
        assert_eq!(out.len(), 3);
        assert_eq!(out.distinct(&mut IdSet::default()).len(), 3);
    }

    /// An empty batch is a no-op: empty `(iter, item)` relation, zero
    /// iterations, no context-document derivation from stale state.
    #[test]
    fn batched_fixpoint_empty_seed_set() {
        let (store, _doc) = store_with_curriculum();
        let batched_plan = q1_plan().seed_carried().unwrap();
        let mut exec = Executor::new();
        let (table, stats) = exec
            .run_fixpoint_batched(
                &store,
                &batched_plan,
                &[],
                DELTA,
                false,
                BatchSharing::default(),
            )
            .unwrap();
        assert!(table.is_empty());
        assert_eq!(table.iters(), Some(&[][..]));
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.batch_seeds, 0);
    }

    /// The seed-inclusive reading (`seed_in_result`) starts each seed's
    /// accumulator from the seed itself.
    #[test]
    fn batched_fixpoint_seed_in_result_includes_seeds() {
        let (store, doc) = store_with_curriculum();
        let batched_plan = q1_plan().seed_carried().unwrap();
        let seeds = seed_course(&store, doc, "c1");
        let mut exec = Executor::new();
        let (table, _) = exec
            .run_fixpoint_batched(
                &store,
                &batched_plan,
                &seeds,
                DELTA,
                true,
                BatchSharing::DistinctNodes,
            )
            .unwrap();
        assert!(
            table.items().contains(&seeds[0]),
            "seed must be in its own group"
        );
        assert_eq!(table.len(), 4); // c1 plus its closure {c2, c3, c4}
    }
}
