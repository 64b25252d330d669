//! Plan execution over relational encodings of the node store.
//!
//! The executor evaluates a [`Plan`] bottom-up (with memoisation over the
//! DAG) into [`Table`]s.  Its most important entry point for the
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
//!   ([`xqy_xdm::pathjoin`]).  No table is built for a hop below the top,
//!   and no hop sorts; the driver puts the body's images in document
//!   order.  A seed-carried plan runs one pass per tag group.
//! * **Typed keys.**  Every table cell is a [`Key`] — a `Copy` word that is
//!   a node id or an integer.  Union, difference and duplicate elimination
//!   hash and compare `Key`s directly.  No cell holds a string: a body
//!   yields nodes, plus the integer a condition counts, and a
//!   `[@a = 'lit']` selection reads its node cells' string values through
//!   the store.
//! * **Columnar, shared storage.**  A [`Table`] is a list of
//!   `Arc<Vec<Key>>` columns.  Cloning a table — what every memo hit,
//!   run-cache hit and `RecInput` reference does — bumps one reference
//!   count per column instead of deep-copying rows, and projection just
//!   re-arranges column handles.
//!
//! ## What an executor keeps
//!
//! The executor borrows no store — every entry point takes a `&NodeStore`,
//! which it only reads: no compiled plan constructs a node — and keeps no
//! table from one run to the next.  Tables live in two scopes only: the
//! memo of one body evaluation, and the *run cache* of one run
//! (the tables of the plan nodes that do not depend on the recursion input,
//! computed on the first iteration and shared by every later one).  Both
//! are built when the run starts and dropped when it ends, so no plan,
//! store or document load can make a table stale — there is nothing to
//! invalidate.  What outlives a run is its limits, its shard count and two
//! counters; the prepared-query layer makes one executor per execution.
//!
//! ## Fixpoints
//!
//! The executor does not own a fixpoint loop: [`Executor::run_fixpoint`]
//! and [`Executor::run_fixpoint_batched`] hand a compiled body to the
//! shared Figure-3 driver ([`xqy_xdm::fixpoint`]) as a [`Body`].  The body
//! always runs on the caller thread, against the caller's store;
//! [`Executor::set_threads`] only lets the driver shard its folds (by seed,
//! or by lane of 64 seeds in a shared batch), as on the interpreter.

use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use xqy_xdm::fixpoint::{self, Body, Config, FixpointStrategy, Group, LimitError, Limits, Seeds};
use xqy_xdm::{Hop, IdMap, IdSet, JoinScratch, NodeId, NodeStore, PathJoin};

pub use xqy_xdm::fixpoint::{BatchSharing, ExecStats};

use crate::error::AlgebraError;
use crate::plan::{Operator, Plan, PlanNodeId, SEED_COLUMN};
use crate::Result;

/// A typed, `Copy` table cell — also the key the executor unites,
/// subtracts and deduplicates on.  Keys compare by variant *and* payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    /// A node reference.
    Node(NodeId),
    /// An integer: the one cell of a `count`.
    Int(i64),
}

impl Key {
    /// The node, if this key is one.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Key::Node(n) => Some(*n),
            Key::Int(_) => None,
        }
    }
}

/// A flat relational table: named columns of [`Key`]s in columnar storage.
///
/// Columns are `Arc`-shared: `clone()` is O(columns) reference-count bumps
/// and mutation copies only the columns it touches (projection copies
/// none).  The executor works with *set* semantics: operators that would
/// produce duplicate rows may keep them, but the fixpoint driver always
/// reduces its accumulator to a set of nodes, matching the set-based IFP
/// semantics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Column names (shared across derived tables).
    names: Arc<Vec<String>>,
    /// Column data; `cols[c][r]` is row `r`'s value in column `c`.
    cols: Vec<Arc<Vec<Key>>>,
    /// Number of rows (every column has exactly this many entries).
    rows: usize,
}

impl Table {
    /// An empty table with the given columns.
    pub fn new(columns: Vec<String>) -> Self {
        let cols = columns.iter().map(|_| Arc::new(Vec::new())).collect();
        Table {
            names: Arc::new(columns),
            cols,
            rows: 0,
        }
    }

    /// A table from column names and column-major data.
    ///
    /// # Panics
    /// Panics (in debug builds) when the column counts or lengths disagree.
    pub fn from_columns(columns: Vec<String>, cols: Vec<Vec<Key>>) -> Self {
        debug_assert_eq!(columns.len(), cols.len());
        let rows = cols.first().map_or(0, Vec::len);
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        // Fresh column-major materialization: the relational `Table` growth
        // point of the per-query memory accounting (shared-handle reuse via
        // `with_schema` charges nothing).
        xqy_xdm::budget::charge((rows * cols.len() * std::mem::size_of::<Key>()) as u64);
        Table {
            names: Arc::new(columns),
            cols: cols.into_iter().map(Arc::new).collect(),
            rows,
        }
    }

    /// Internal constructor reusing an existing schema handle.
    fn with_schema(names: Arc<Vec<String>>, cols: Vec<Arc<Vec<Key>>>) -> Self {
        let rows = cols.first().map_or(0, |c| c.len());
        debug_assert_eq!(names.len(), cols.len());
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        Table { names, cols, rows }
    }

    /// A single-column `item` table of nodes.
    pub fn from_nodes(nodes: &[NodeId]) -> Self {
        Table::from_columns(
            vec!["item".to_string()],
            vec![nodes.iter().map(|&n| Key::Node(n)).collect()],
        )
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.names
    }

    /// Index of column `name`.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.names.iter().position(|c| c == name).ok_or_else(|| {
            AlgebraError::Execution(format!(
                "column '{name}' not found (have: {})",
                self.names.join(", ")
            ))
        })
    }

    /// Borrow a column's cells.
    pub fn col(&self, idx: usize) -> &[Key] {
        &self.cols[idx]
    }

    /// The cell at (`row`, `col`).
    pub fn key(&self, row: usize, col: usize) -> Key {
        self.cols[col][row]
    }

    /// One row, materialized (test/debug convenience — the executor itself
    /// never builds row vectors).
    pub fn row(&self, row: usize) -> Vec<Key> {
        self.cols.iter().map(|c| c[row]).collect()
    }

    /// `true` when `self` and `other` are views of the *same* column
    /// storage (every column pair is `Arc`-pointer-equal).  This is how
    /// tests verify that operators hand out shared handles instead of deep
    /// copies.
    pub fn shares_storage(&self, other: &Table) -> bool {
        !self.cols.is_empty()
            && self.cols.len() == other.cols.len()
            && self
                .cols
                .iter()
                .zip(&other.cols)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The node values of the `item` column (non-node rows are skipped).
    pub fn item_nodes(&self) -> Vec<NodeId> {
        let Ok(idx) = self.column_index("item") else {
            return Vec::new();
        };
        self.cols[idx].iter().filter_map(Key::as_node).collect()
    }

    /// Deduplicate rows (set semantics).  `Key`s hash directly, so no
    /// per-row rendering happens; single- and two-column tables (the
    /// overwhelmingly common shapes) avoid building row vectors entirely.
    pub fn distinct(self) -> Table {
        let mask: Vec<bool> = match self.cols.len() {
            0 => return self,
            1 => {
                let mut seen = IdSet::with_capacity_and_hasher(self.rows, Default::default());
                self.cols[0].iter().map(|&k| seen.insert(k)).collect()
            }
            2 => {
                let mut seen = IdSet::with_capacity_and_hasher(self.rows, Default::default());
                (0..self.rows)
                    .map(|r| seen.insert((self.cols[0][r], self.cols[1][r])))
                    .collect()
            }
            _ => {
                let mut seen = IdSet::with_capacity_and_hasher(self.rows, Default::default());
                (0..self.rows).map(|r| seen.insert(self.row(r))).collect()
            }
        };
        self.filter_rows(&mask)
    }

    /// Keep the rows whose mask entry is `true`; returns `self` with its
    /// storage untouched (shared) when nothing is dropped.
    fn filter_rows(self, mask: &[bool]) -> Table {
        debug_assert_eq!(mask.len(), self.rows);
        let kept = mask.iter().filter(|&&m| m).count();
        if kept == self.rows {
            return self;
        }
        let cols = self
            .cols
            .iter()
            .map(|col| {
                Arc::new(
                    col.iter()
                        .zip(mask)
                        .filter(|(_, &m)| m)
                        .map(|(&k, _)| k)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        Table::with_schema(self.names, cols)
    }
}

/// Strategy of the fixpoint driver — mirrors the µ / µ∆ operator pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MuStrategy {
    /// The Naïve operator µ.
    #[default]
    Mu,
    /// The Delta operator µ∆.
    MuDelta,
}

impl MuStrategy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MuStrategy::Mu => "mu",
            MuStrategy::MuDelta => "mu-delta",
        }
    }
}

impl From<FixpointStrategy> for MuStrategy {
    fn from(strategy: FixpointStrategy) -> Self {
        match strategy {
            FixpointStrategy::Naive => MuStrategy::Mu,
            FixpointStrategy::Delta => MuStrategy::MuDelta,
        }
    }
}

impl From<MuStrategy> for FixpointStrategy {
    fn from(strategy: MuStrategy) -> Self {
        match strategy {
            MuStrategy::Mu => FixpointStrategy::Naive,
            MuStrategy::MuDelta => FixpointStrategy::Delta,
        }
    }
}

/// The executor state scoped to *one run* of one plan: built when the run
/// starts, dropped when it ends.
#[derive(Debug, Default)]
struct PlanState {
    /// Tables of the plan nodes that do not depend on the recursion input,
    /// each computed once — on the run's first iteration — and handed out
    /// as a shared handle on every later one.
    run_cache: IdMap<PlanNodeId, Table>,
    /// `rec_dependent[id]` — does plan node `id` (transitively) consume a
    /// `RecInput`?
    rec_dependent: Vec<bool>,
}

impl PlanState {
    /// The state a run of `plan` starts from.
    fn of(plan: &Plan) -> Self {
        PlanState {
            run_cache: IdMap::default(),
            rec_dependent: plan.rec_dependent(),
        }
    }
}

/// The plan executor.
///
/// Holds no store borrow — every entry point takes a `&NodeStore` — and no
/// table beyond the run that computed it (see the [module docs](self)).
#[derive(Debug)]
pub struct Executor {
    /// Run cache and bitmap of the run in progress; empty between runs.
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
    /// Shard count of the driver's folds; `1` = sequential (default).
    threads: usize,
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
            threads: 1,
        }
    }

    /// Drop the run cache, returning an estimate of the bytes freed — the
    /// relational side of budget relief.  The tables are recomputable: the
    /// next iteration evaluates what it needs again.
    fn release_run_cache(&mut self) -> u64 {
        let bytes = |t: &Table| (t.rows * t.cols.len() * std::mem::size_of::<Key>()) as u64;
        self.plan_state
            .run_cache
            .drain()
            .map(|(_, t)| bytes(&t))
            .sum()
    }

    /// Set the shard count of the fixpoint driver
    /// ([`xqy_xdm::fixpoint::Config::threads`]).  The one sharding rule, as
    /// on the interpreter: the driver splits its folds and final
    /// materialisations — by seed, or by lane of 64 seeds in a shared
    /// batch — over at most this many threads,
    /// and the body always runs on the caller thread.  A single seed has
    /// nothing to split, `1` (the default; `0` clamps to it) runs
    /// everything inline, and once a memory budget has used its relief
    /// round the rest of the query is sequential.  Results and statistics
    /// are identical at any count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
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
    /// empty table when the plan has no `RecInput` leaf).
    ///
    /// A direct call is a run of its own: no table carries over from
    /// previous calls.  [`Executor::run_fixpoint`] instead scopes the run
    /// cache to the whole fixpoint.
    pub fn eval_plan(&mut self, store: &NodeStore, plan: &Plan, rec: &Table) -> Result<Table> {
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
        rec: &Table,
        joins: &mut Joins<'_>,
    ) -> Result<Table> {
        let root = plan
            .root()
            .ok_or_else(|| AlgebraError::InvalidPlan("plan has no root".into()))?;
        let mut memo: IdMap<PlanNodeId, Table> = IdMap::default();
        self.eval_node(store, plan, root, rec, &mut memo, joins)
    }

    fn eval_node(
        &mut self,
        store: &NodeStore,
        plan: &Plan,
        id: PlanNodeId,
        rec: &Table,
        memo: &mut IdMap<PlanNodeId, Table>,
        joins: &mut Joins<'_>,
    ) -> Result<Table> {
        if let Some(cached) = memo.get(&id) {
            return Ok(cached.clone());
        }
        let is_rec_dependent = self.plan_state.rec_dependent[id];
        if !is_rec_dependent {
            if let Some(cached) = self.plan_state.run_cache.get(&id) {
                self.static_cache_hits += 1;
                return Ok(cached.clone());
            }
        }
        let table = if let Some(input) = joins.input_of(id) {
            // The top of a chain: the hops below it are never evaluated
            // on their own.
            let input = self.eval_node(store, plan, input, rec, memo, joins)?;
            joins.run(id, &input)?
        } else {
            let node = plan.node(id);
            let mut inputs = Vec::with_capacity(node.inputs.len());
            for &input in &node.inputs {
                inputs.push(self.eval_node(store, plan, input, rec, memo, joins)?);
            }
            Self::apply(store, &node.op, inputs, rec)?
        };
        if is_rec_dependent {
            memo.insert(id, table.clone());
        } else {
            self.static_plan_evals += 1;
            self.plan_state.run_cache.insert(id, table.clone());
        }
        Ok(table)
    }

    /// Apply `op` to its evaluated `inputs` (in plan order), with the recursion
    /// input bound to `rec`.
    fn apply(
        store: &NodeStore,
        op: &Operator,
        mut inputs: Vec<Table>,
        rec: &Table,
    ) -> Result<Table> {
        match op {
            Operator::RecInput => Ok(rec.clone()),
            Operator::Empty => Ok(Table::new(vec!["item".into()])),
            Operator::DocRoot(uri) => {
                let doc = store
                    .doc(uri)
                    .ok_or_else(|| AlgebraError::Execution(format!("document not found: {uri}")))?;
                let node = store.document_node(doc).ok_or_else(|| {
                    AlgebraError::Execution(format!("document has no root: {uri}"))
                })?;
                Ok(Table::from_nodes(&[node]))
            }
            Operator::Project(renames) => {
                let input = inputs.remove(0);
                let mut cols = Vec::with_capacity(renames.len());
                for (_, source) in renames {
                    // Zero-copy: projection re-arranges column handles.
                    cols.push(input.cols[input.column_index(source)?].clone());
                }
                Ok(Table {
                    names: Arc::new(renames.iter().map(|(out, _)| out.clone()).collect()),
                    cols,
                    rows: input.rows,
                })
            }
            Operator::Select { column, value } => {
                let input = inputs.remove(0);
                let idx = input.column_index(column)?;
                // A row stays iff its cell is a node whose string value is
                // the literal; the value is read in place, never copied.
                let mask: Vec<bool> = input.cols[idx]
                    .iter()
                    .map(|key| {
                        key.as_node()
                            .is_some_and(|node| store.string_value_ref(node) == **value)
                    })
                    .collect();
                Ok(input.filter_rows(&mask))
            }
            Operator::Union => {
                let right = inputs.remove(1);
                let left = inputs.remove(0);
                if *left.names != *right.names {
                    return Err(AlgebraError::Execution(
                        "union over tables with different schemas".into(),
                    ));
                }
                let cols = left
                    .cols
                    .iter()
                    .zip(&right.cols)
                    .map(|(a, b)| {
                        let mut col = Vec::with_capacity(a.len() + b.len());
                        col.extend_from_slice(a);
                        col.extend_from_slice(b);
                        Arc::new(col)
                    })
                    .collect();
                Ok(Table::with_schema(left.names.clone(), cols).distinct())
            }
            Operator::Difference => {
                let right = inputs.remove(1);
                let left = inputs.remove(0);
                let mask: Vec<bool> = if left.cols.len() == 1 && right.cols.len() == 1 {
                    let keys: IdSet<Key> = right.cols[0].iter().copied().collect();
                    left.cols[0].iter().map(|k| !keys.contains(k)).collect()
                } else {
                    let keys: IdSet<Vec<Key>> = (0..right.rows).map(|r| right.row(r)).collect();
                    (0..left.rows)
                        .map(|r| !keys.contains(&left.row(r)))
                        .collect()
                };
                Ok(left.filter_rows(&mask))
            }
            Operator::Count => Ok(Table::from_columns(
                vec!["count".into()],
                vec![vec![Key::Int(inputs[0].rows as i64)]],
            )),
            // Every step and `id()` runs in the path join of its chain
            // (`Joins`).
            Operator::Step { .. } | Operator::IdLookup => Err(AlgebraError::InvalidPlan(format!(
                "{} evaluated outside its chain",
                op.name()
            ))),
            Operator::IfThenElse => {
                let else_table = inputs.remove(2);
                let then_table = inputs.remove(1);
                let truthy = effective_boolean(&inputs[0]);
                Ok(if truthy { then_table } else { else_table })
            }
        }
    }

    /// Run the fixpoint of `body` seeded with `seed` using `strategy`.
    ///
    /// With `seed_in_result = false` the accumulation starts from the body
    /// applied to the seed (Definition 2.1); with `true` it starts from the
    /// seed itself (the paper's Example 2.4 reading).
    pub fn run_fixpoint(
        &mut self,
        store: &NodeStore,
        body: &Plan,
        seed: &[NodeId],
        strategy: MuStrategy,
        seed_in_result: bool,
    ) -> Result<(Table, ExecStats)> {
        let seeds = Seeds::Set(seed);
        let sharing = BatchSharing::PerSeed;
        let (mut groups, stats) =
            self.run_fixpoint_groups(store, body, seeds, strategy.into(), seed_in_result, sharing)?;
        Ok((Table::from_nodes(&groups.pop().unwrap_or_default()), stats))
    }

    /// Run one **batched multi-source fixpoint**: evaluate the recursion
    /// body once per iteration over a two-column `(`[`SEED_COLUMN`]`, item)`
    /// relation holding the frontiers of *all* seeds, instead of running one
    /// fixpoint per seed.  Every body scan, join and duplicate elimination
    /// is shared across the batch; Naïve/Delta semantics are applied
    /// **per seed** by the driver.
    ///
    /// `body` must be the [seed-carried form](Plan::seed_carried) of the
    /// recursion body — the per-seed plan rewritten so every rec-dependent
    /// operator propagates the seed column (plans that cannot be rewritten
    /// are not batchable and should run per seed).  `seeds` must be
    /// distinct; the caller deduplicates (a duplicated seed would fold two
    /// identical fixpoints into one group).  `sharing` picks the frontier
    /// representation: [`BatchSharing::DistinctNodes`] additionally shares
    /// body scans between seeds whose frontiers overlap, evaluating each
    /// distinct node once per run, and is only sound for distributive
    /// bodies — pass [`BatchSharing::PerSeed`] otherwise.
    ///
    /// The result table has columns `[`[`SEED_COLUMN`]`, item]`, grouped by
    /// seed in input order with each group in document order — exactly the
    /// concatenation of the per-seed [`Executor::run_fixpoint`] results.
    /// [`ExecStats::iterations`] is the *maximum* per-seed depth,
    /// [`ExecStats::rows_fed_back`] the sum of the per-seed counts and
    /// [`ExecStats::body_evaluations`] counts the shared iterations (under
    /// [`BatchSharing::DistinctNodes`], those that met a new node).
    pub fn run_fixpoint_batched(
        &mut self,
        store: &NodeStore,
        body: &Plan,
        seeds: &[NodeId],
        strategy: MuStrategy,
        seed_in_result: bool,
        sharing: BatchSharing,
    ) -> Result<(Table, ExecStats)> {
        let batch = Seeds::Each(seeds);
        let (groups, stats) =
            self.run_fixpoint_groups(store, body, batch, strategy.into(), seed_in_result, sharing)?;
        let mut seed_col = Vec::with_capacity(stats.result_rows);
        let mut item_col = Vec::with_capacity(stats.result_rows);
        for (seed, nodes) in seeds.iter().zip(&groups) {
            seed_col.extend(std::iter::repeat_n(Key::Node(*seed), nodes.len()));
            item_col.extend(nodes.iter().map(|&node| Key::Node(node)));
        }
        let schema = vec![SEED_COLUMN.to_string(), "item".to_string()];
        Ok((Table::from_columns(schema, vec![seed_col, item_col]), stats))
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
            threads: self.threads,
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
    /// `(tag, nodes)` groups, each row entering as `(tag, node)` — and
    /// regroup the output rows by tag.  One body evaluation serves the
    /// entire batch; the tags are opaque to the plan (seeds in
    /// [`BatchSharing::PerSeed`] mode, origin nodes in
    /// [`BatchSharing::DistinctNodes`] mode).
    fn eval_tagged_batch(
        &mut self,
        store: &NodeStore,
        body: &Plan,
        tagged: &[(NodeId, &[NodeId])],
        stats: &mut ExecStats,
        joins: &mut Joins<'_>,
    ) -> Result<Vec<Vec<NodeId>>> {
        let total_rows: usize = tagged.iter().map(|(_, nodes)| nodes.len()).sum();
        stats.frontier_curve.push(total_rows as u64);
        stats.body_evaluations += 1;
        let mut tag_col = Vec::new();
        let mut item_col = Vec::new();
        for (tag, nodes) in tagged {
            for &node in *nodes {
                tag_col.push(Key::Node(*tag));
                item_col.push(Key::Node(node));
            }
        }
        let rec = Table::from_columns(
            vec![SEED_COLUMN.to_string(), "item".to_string()],
            vec![tag_col, item_col],
        );
        let out = self.eval_plan_in_run(store, body, &rec, joins)?;
        let si = out.column_index(SEED_COLUMN)?;
        let ii = out.column_index("item")?;
        let index: IdMap<NodeId, usize> = tagged
            .iter()
            .enumerate()
            .map(|(i, &(tag, _))| (tag, i))
            .collect();
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); tagged.len()];
        for r in 0..out.len() {
            let (Some(tag), Some(item)) = (out.key(r, si).as_node(), out.key(r, ii).as_node())
            else {
                // Mirrors `Table::item_nodes`: non-node rows do not feed
                // back into a node-set fixpoint.
                continue;
            };
            if let Some(&i) = index.get(&tag) {
                groups[i].push(item);
            }
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
        let rec = Table::from_nodes(input);
        let out = self.eval_plan_in_run(store, body, &rec, joins)?;
        Ok(out.item_nodes())
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
/// above — runs as one [`PathJoin`] at its top node, so no table is built
/// for a hop below the top.
struct Joins<'a> {
    /// `tops[id]` for the top node `id` of a chain: the plan node below
    /// the chain's lowest hop, and the chain's join.
    tops: Vec<Option<(PlanNodeId, PathJoin<'a>)>>,
    scratch: JoinScratch,
    /// One tag group's focus nodes, and what the join selected from them.
    focus: Vec<NodeId>,
    found: Vec<NodeId>,
    /// The hashes of the groups one [`Joins::run`] has met.
    groups: IdSet<u64>,
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
        // consumer (and it is not the root, whose table is the answer).
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
            focus: Vec::new(),
            found: Vec::new(),
            groups: IdSet::default(),
        }
    }

    /// The input of the chain topped by `id`, if `id` tops one.
    fn input_of(&self, id: PlanNodeId) -> Option<PlanNodeId> {
        self.tops[id].as_ref().map(|(input, _)| *input)
    }

    /// The chain topped by `id` over the `item` column of `input`: one pass
    /// per run of rows that agree on every other column (a tag group of a
    /// seed-carried plan; the whole table of a per-seed one), each selected
    /// node carrying its group's other cells.  The output holds no row
    /// twice, as every operator's: a group split into several runs — its
    /// rows interleaved with another group's, as a ∪ leaves them — may
    /// select a node in more than one run, so then the output is made
    /// distinct.
    fn run(&mut self, id: PlanNodeId, input: &Table) -> Result<Table> {
        let Some((_, join)) = &self.tops[id] else {
            return Err(AlgebraError::InvalidPlan(format!("{id} tops no chain")));
        };
        let item = input.column_index("item")?;
        let same_group = |a: usize, b: usize| {
            input
                .cols
                .iter()
                .enumerate()
                .all(|(c, col)| c == item || col[a] == col[b])
        };
        let mut cols: Vec<Vec<Key>> = vec![Vec::new(); input.cols.len()];
        // A group met again is caught by its hash; a collision only costs
        // the final `distinct`.
        let grouped = input.cols.len() > 1;
        let mut split = false;
        self.groups.clear();
        let mut start = 0;
        while start < input.rows {
            let mut end = start + 1;
            while end < input.rows && same_group(start, end) {
                end += 1;
            }
            if grouped {
                let mut hasher = self.groups.hasher().build_hasher();
                for (_, col) in input.cols.iter().enumerate().filter(|&(c, _)| c != item) {
                    col[start].hash(&mut hasher);
                }
                split |= !self.groups.insert(hasher.finish());
            }
            self.focus.clear();
            let group = &input.cols[item][start..end];
            self.focus.extend(group.iter().filter_map(Key::as_node));
            self.found.clear();
            join.select_into(&self.focus, &mut self.scratch, &mut self.found);
            for (c, col) in cols.iter_mut().enumerate() {
                if c == item {
                    col.extend(self.found.iter().map(|&node| Key::Node(node)));
                } else {
                    col.extend(std::iter::repeat_n(input.cols[c][start], self.found.len()));
                }
            }
            start = end;
        }
        let cols = cols.into_iter().map(Arc::new).collect();
        let table = Table::with_schema(input.names.clone(), cols);
        Ok(if split { table.distinct() } else { table })
    }
}

/// Effective boolean value of a condition table: a single `count`/integer
/// cell is tested against zero; otherwise any row counts as true.
fn effective_boolean(table: &Table) -> bool {
    if table.columns().len() == 1 && table.len() == 1 {
        if let Key::Int(i) = table.key(0, 0) {
            return i != 0;
        }
    }
    !table.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_xdm::{Axis, DocId, NodeTest};

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
        let keep = plan.add(
            Operator::Project(vec![
                ("node".into(), "item".into()),
                ("item".into(), "item".into()),
            ]),
            vec![courses],
        );
        let attr = plan.add(
            Operator::Step {
                axis: Axis::Attribute,
                test: NodeTest::Name("code".into()),
            },
            vec![keep],
        );
        let select = plan.add(
            Operator::Select {
                column: "item".into(),
                value: "c2".into(),
            },
            vec![attr],
        );
        let back = plan.add(
            Operator::Project(vec![("item".into(), "node".into())]),
            vec![select],
        );
        plan.set_root(back);

        let mut exec = Executor::new();
        let result = exec
            .eval_plan(&store, &plan, &Table::from_nodes(&[root_elem]))
            .unwrap();
        assert_eq!(result.len(), 1);
        let node = result.item_nodes()[0];
        assert_eq!(store.attribute_value(node, "code"), Some("c2"));
    }

    #[test]
    fn mu_computes_transitive_closure() {
        let (store, doc) = store_with_curriculum();
        let seed = seed_course(&store, doc, "c1");
        let plan = q1_plan();
        let mut exec = Executor::new();
        let (result, stats) = exec
            .run_fixpoint(&store, &plan, &seed, MuStrategy::Mu, false)
            .unwrap();
        let mut codes: Vec<String> = result
            .item_nodes()
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
            exec.run_fixpoint(&store, &plan, &seed, MuStrategy::Mu, false)
                .unwrap()
        };
        let (delta_result, delta_stats) = {
            let mut exec = Executor::new();
            exec.run_fixpoint(&store, &plan, &seed, MuStrategy::MuDelta, false)
                .unwrap()
        };
        let mut a = naive_result.item_nodes();
        let mut b = delta_result.item_nodes();
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
    /// spells it: `a \ (a \ b)`.
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
        let rec = Table::from_nodes(&courses(&store, doc, &["c1", "c2", "c3"]));
        let result = Executor::new().eval_plan(&store, &plan, &rec).unwrap();
        assert_eq!(result.key(0, 0), Key::Int(2)); // c2, c3
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
        let rec = Table::from_nodes(&courses(&store, doc, &["c1", "c2", "c2"]));
        let result = exec.eval_plan(&store, &plan, &rec).unwrap();
        assert_eq!(result.len(), 4); // c1, c2, c3, c4 — set semantics

        let mut plan2 = Plan::new();
        let a = plan2.add(Operator::RecInput, vec![]);
        let b = required_courses(&mut plan2);
        let diff = plan2.add(Operator::Difference, vec![a, b]);
        plan2.set_root(diff);
        let rec = Table::from_nodes(&courses(&store, doc, &["c1", "c2"]));
        let result = exec.eval_plan(&store, &plan2, &rec).unwrap();
        assert_eq!(result.item_nodes(), courses(&store, doc, &["c1"]));
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
        let c1 = Table::from_nodes(&courses(&store, doc, &["c1"]));
        let result = exec.eval_plan(&store, &plan, &c1).unwrap();
        assert_eq!(
            result.item_nodes(),
            courses(&store, doc, &["c2", "c3", "c4"])
        );
        let none = Table::from_nodes(&[]);
        assert!(exec.eval_plan(&store, &plan, &none).unwrap().is_empty());
    }

    #[test]
    fn missing_column_reports_schema() {
        let (store, doc) = store_with_curriculum();
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let select = plan.add(
            Operator::Select {
                column: "nope".into(),
                value: "c1".into(),
            },
            vec![rec],
        );
        plan.set_root(select);
        let rec = Table::from_nodes(&courses(&store, doc, &["c1"]));
        let err = Executor::new().eval_plan(&store, &plan, &rec).unwrap_err();
        assert!(err.to_string().contains("nope"));
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
        exec.run_fixpoint(&store, &plan, &seed, MuStrategy::MuDelta, false)
            .unwrap();
        let (result, _) = exec
            .run_fixpoint(&store, &plan, &[], MuStrategy::MuDelta, false)
            .unwrap();
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
                exec.run_fixpoint(&store, &plan, &seed, MuStrategy::MuDelta, true)
                    .unwrap()
            });
            let (expected, _) = Executor::new()
                .run_fixpoint(&store, &q1_plan(), &seed, MuStrategy::MuDelta, true)
                .unwrap();
            assert_eq!(result, expected, "seed {code}");
            assert_eq!(evals, SCAN_NODES, "seed {code}: once per run, every run");
            assert!(stats.body_evaluations >= 2 || code > "c2", "seed {code}");
            assert_eq!(hits as usize, stats.body_evaluations - 1, "seed {code}");
            assert!(exec.plan_state.run_cache.is_empty(), "dropped with the run");
            // Another plan in between thrashes nothing: there is nothing
            // plan-keyed to thrash.
            exec.run_fixpoint(&store, &q1_plan(), &seed, MuStrategy::Mu, false)
                .unwrap();
        }

        // A document loaded between two runs is seen by the second.
        let late = r#"<curriculum><course code="c9"/></curriculum>"#;
        store.parse_document_with_uri("late.xml", late).unwrap();
        let mut late_plan = Plan::new();
        let late_root = late_plan.add(Operator::DocRoot("late.xml".into()), vec![]);
        late_plan.set_root(late_root);
        let empty = Table::new(vec!["item".into()]);
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
            .run_fixpoint(&other, &plan, &seed, MuStrategy::MuDelta, false)
            .unwrap();
        assert_eq!(result.item_nodes(), seed_course(&other, other_doc, "c2"));
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

        for strategy in [MuStrategy::Mu, MuStrategy::MuDelta] {
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
                assert_eq!(table.columns(), [SEED_COLUMN, "item"]);
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
                    for node in result.item_nodes() {
                        expected_rows.push((seed, node));
                    }
                }
                let seed_idx = table.column_index(SEED_COLUMN).unwrap();
                let item_idx = table.column_index("item").unwrap();
                let rows: Vec<(NodeId, NodeId)> = (0..table.len())
                    .map(|r| {
                        (
                            table.key(r, seed_idx).as_node().unwrap(),
                            table.key(r, item_idx).as_node().unwrap(),
                        )
                    })
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
        let rec = Table::from_columns(
            vec![SEED_COLUMN.to_string(), "item".to_string()],
            vec![
                seeds.iter().map(|&s| Key::Node(s)).collect(),
                seeds.iter().map(|&s| Key::Node(s)).collect(),
            ],
        );
        let out = Executor::new().eval_plan(&store, &carried, &rec).unwrap();
        // c1 has two pre_codes, c2 one: three rows, none repeated.
        assert_eq!(out.len(), 3);
        assert_eq!(out.clone().distinct().len(), 3);
    }

    /// An empty batch is a no-op: empty `(seed, item)` table, zero
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
                MuStrategy::MuDelta,
                false,
                BatchSharing::default(),
            )
            .unwrap();
        assert!(table.is_empty());
        assert_eq!(table.columns(), [SEED_COLUMN, "item"]);
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
                MuStrategy::MuDelta,
                true,
                BatchSharing::DistinctNodes,
            )
            .unwrap();
        let items = table.col(1);
        assert!(
            items.contains(&Key::Node(seeds[0])),
            "seed must be in its own group"
        );
        assert_eq!(table.len(), 4); // c1 plus its closure {c2, c3, c4}
    }

    /// A batched run whose driver shards its folds (`threads > 1`)
    /// is bit-identical to the sequential one — same table, same stats —
    /// for every strategy × sharing × seed-inclusion combination and
    /// several shard counts (including more shards than seeds, and `0`,
    /// which clamps to sequential).
    #[test]
    fn parallel_batched_matches_sequential() {
        let (store, doc) = store_with_curriculum();
        let batched_plan = q1_plan().seed_carried().unwrap();
        let seeds: Vec<NodeId> = ["c1", "c2", "c3", "c4"]
            .iter()
            .flat_map(|code| seed_course(&store, doc, code))
            .collect();

        for strategy in [MuStrategy::Mu, MuStrategy::MuDelta] {
            for sharing in [BatchSharing::PerSeed, BatchSharing::DistinctNodes] {
                for seed_in_result in [false, true] {
                    let (expected, expected_stats) = Executor::new()
                        .run_fixpoint_batched(
                            &store,
                            &batched_plan,
                            &seeds,
                            strategy,
                            seed_in_result,
                            sharing,
                        )
                        .unwrap();
                    for threads in [0, 2, 3, 8] {
                        let mut exec = Executor::new();
                        exec.set_threads(threads);
                        let (table, stats) = exec
                            .run_fixpoint_batched(
                                &store,
                                &batched_plan,
                                &seeds,
                                strategy,
                                seed_in_result,
                                sharing,
                            )
                            .unwrap();
                        let label = format!(
                            "threads {threads} strategy {} sharing {} seed_in_result {seed_in_result}",
                            strategy.name(),
                            sharing.name()
                        );
                        assert_eq!(table, expected, "{label}");
                        assert_eq!(stats, expected_stats, "{label}");
                    }
                }
            }
        }
    }

    /// Projection shares column storage with its input (zero-copy π).
    #[test]
    fn projection_shares_column_storage() {
        let (store, doc) = store_with_curriculum();
        let courses = {
            let root = store.document_element(doc).unwrap();
            store.axis_nodes(root, Axis::Child, &NodeTest::Name("course".into()))
        };
        let input = Table::from_nodes(&courses);
        let mut plan = Plan::new();
        let rec = plan.add(Operator::RecInput, vec![]);
        let project = plan.add(
            Operator::Project(vec![("renamed".into(), "item".into())]),
            vec![rec],
        );
        plan.set_root(project);
        let mut exec = Executor::new();
        let result = exec.eval_plan(&store, &plan, &input).unwrap();
        assert_eq!(result.columns(), ["renamed"]);
        assert!(
            result.shares_storage(&input),
            "π must re-arrange column handles, not copy cells"
        );
    }
}
