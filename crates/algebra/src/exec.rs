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
//! * **Typed keys.**  Every table cell is a [`Key`] — a `Copy` word that is
//!   a node id, an interned string symbol, an integer or a boolean.
//!   Selections, joins, difference, grouping and duplicate elimination all
//!   hash and compare `Key`s directly; nothing is stringified per row, and
//!   a string cell can never collide with a node or boolean cell (the old
//!   `as_key()` rendering made `"node:5"` join against node 5).
//! * **Interning.**  Strings enter the plane once through the executor's
//!   [`Interner`] (`string()` results and literals) and are
//!   symbols from then on.  The pool outlives the run (see below), so a
//!   per-item loop pays each distinct string once across *all* seeds.
//! * **Columnar, shared storage.**  A [`Table`] is a list of
//!   `Arc<Vec<Key>>` columns.  Cloning a table — what every memo hit,
//!   run-cache hit and `RecInput` reference does — bumps one reference
//!   count per column instead of deep-copying rows, and projection just
//!   re-arranges column handles.
//!
//! ## What an executor keeps
//!
//! The executor borrows no store — every entry point takes a store handle —
//! and carries **symbols, not tables**.  Tables live in two scopes only: the
//! memo of one body evaluation, and the *run cache* of one run (the tables
//! of the plan nodes that do not depend on the recursion input, computed on
//! the first iteration and shared by every later one).  Both are built when
//! the run starts and dropped when it ends, so no plan, store or document
//! load can make a table stale — there is nothing to invalidate.  What
//! survives from run to run is the [`Interner`] and the store-symbol
//! translation table beside it: they depend on the store's text pool and on
//! no plan, which is why one warm executor serves every plan the
//! prepared-query layer hands it.  Both restart together when a top-level
//! run begins on a store with a different
//! [text pool](NodeStore::text_pool_id); as no table outlives a run, no
//! `Key::Sym` cell can point into a dropped pool.
//!
//! ## Fixpoints
//!
//! The executor does not own a fixpoint loop: [`Executor::run_fixpoint`]
//! and [`Executor::run_fixpoint_batched`] hand a compiled body to the
//! shared Figure-3 driver ([`xqy_xdm::fixpoint`]) as a
//! [`Body`], and a nested `µ`/`µ∆` operator
//! re-enters the same driver.  The body always runs on the caller thread,
//! against the caller's [`StoreMut`] handle; [`Executor::set_threads`] only
//! lets the driver shard its folds (by seed, or by lane of 64 seeds in a
//! shared batch), as on the interpreter.

use std::sync::Arc;

use xqy_xdm::fixpoint::{self, Body, Config, FixpointStrategy, Group, LimitError, Limits, Seeds};
use xqy_xdm::{DocId, IdMap, IdSet, Interner, NodeId, NodeStore, StoreMut, StrId};

pub use xqy_xdm::fixpoint::{BatchSharing, ExecStats};

use crate::error::AlgebraError;
use crate::plan::{FunKind, Operator, Plan, PlanNodeId, SEED_COLUMN};
use crate::Result;

/// A cell value at the executor's API boundary, with strings materialized.
///
/// Inside tables every cell is a [`Key`]; `Value` is the convenience used
/// to build literals and read results without touching the interner at
/// every call site.  Convert with [`Value::key`] / [`Key::value`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A node reference.
    Node(NodeId),
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Encode into the typed key representation, interning strings.
    pub fn key(&self, interner: &mut Interner) -> Key {
        match self {
            Value::Node(n) => Key::Node(*n),
            Value::Str(s) => Key::Sym(interner.intern(s)),
            Value::Int(i) => Key::Int(*i),
            Value::Bool(b) => Key::Bool(*b),
        }
    }

    /// The node, if this value is one.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Value::Node(n) => Some(*n),
            _ => None,
        }
    }
}

/// A typed, `Copy` table cell — also the key the executor selects, joins,
/// groups and deduplicates on.
///
/// Keys compare by variant *and* payload: `Sym("node:5")` never equals
/// `Node(5)` and `Sym("true")` never equals `Bool(true)`, which is the
/// typed fix for the tag-collision hazard of the old string rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    /// A node reference.
    Node(NodeId),
    /// An interned string (resolve through the executor's [`Interner`]).
    Sym(StrId),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
}

impl Key {
    /// The node, if this key is one.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Key::Node(n) => Some(*n),
            _ => None,
        }
    }

    /// Decode into a [`Value`], materializing interned strings.
    pub fn value(&self, interner: &Interner) -> Value {
        match self {
            Key::Node(n) => Value::Node(*n),
            Key::Sym(s) => Value::Str(interner.resolve(*s).to_string()),
            Key::Int(i) => Value::Int(*i),
            Key::Bool(b) => Value::Bool(*b),
        }
    }

    /// The interned string behind this key, if it is a symbol.
    pub fn as_str<'i>(&self, interner: &'i Interner) -> Option<&'i str> {
        match self {
            Key::Sym(s) => Some(interner.resolve(*s)),
            _ => None,
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

    /// The cell at (`row`, `col`) decoded through `interner`.
    pub fn value(&self, row: usize, col: usize, interner: &Interner) -> Value {
        self.key(row, col).value(interner)
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
/// starts, dropped when it ends.  Bundled so that re-entrant evaluation (a
/// nested `µ`/`µ∆` operator, whose sub-plan's node ids overlap the outer
/// plan's) swaps the whole lot out and back in one move.
#[derive(Debug, Default)]
struct PlanState {
    /// Tables of the plan nodes that do not depend on the recursion input,
    /// each computed once — on the run's first iteration — and handed out
    /// as a shared handle on every later one.  A constructed node is
    /// therefore one identity for the whole run, and a fresh one per run.
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
/// Holds no store borrow — every entry point takes a store handle — so an
/// executor is a *persistent* artifact: its [`Interner`] and store-symbol
/// translation table survive across runs, plans and
/// `PreparedQuery::execute` calls, until a run starts on a store with a
/// different text pool.  Every table it computes is dropped with the run
/// that computed it (see the [module docs](self)).
#[derive(Debug)]
pub struct Executor {
    /// The string pool backing every `Key::Sym` this executor produced.
    interner: Interner,
    /// Identity of the store text pool `sym_xlat` translates from (`0` is
    /// never a real pool id, so it doubles as "no cache built yet").
    sym_xlat_pool: u64,
    /// Dense store-symbol → executor-symbol translation table, indexed by
    /// the store `StrId`'s raw value, `u32::MAX` marking an untranslated
    /// slot.  A hit turns `intern(store.resolve_text(sym))` — a hash over
    /// the payload bytes — into one array load: sound because a pool id
    /// names one linear growth history, so a store symbol's string can
    /// never change under an unchanged `sym_xlat_pool`.
    sym_xlat: Vec<u32>,
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
            interner: Interner::new(),
            sym_xlat_pool: 0,
            sym_xlat: Vec::new(),
            plan_state: PlanState::default(),
            static_cache_hits: 0,
            static_plan_evals: 0,
            limits: Limits::default(),
            threads: 1,
        }
    }

    /// Map a store text-pool symbol to this executor's interner through
    /// the dense per-pool cache.  On a hit this skips both the payload
    /// render and the hash — equality of pool ids guarantees the cached
    /// executor symbol is exactly what `intern(resolve_text(sym))` would
    /// return.  A pool-id change *during* a run (the store's pool diverged
    /// by growing while shared) drops only the translation table; executor
    /// symbols handed out earlier stay valid because the interner is
    /// untouched.
    fn translate_sym(&mut self, store: &NodeStore, sym: StrId) -> StrId {
        let pool = store.text_pool_id();
        if self.sym_xlat_pool != pool {
            self.sym_xlat.clear();
            self.sym_xlat_pool = pool;
        }
        let idx = sym.0 as usize;
        if idx >= self.sym_xlat.len() {
            self.sym_xlat.resize(idx + 1, u32::MAX);
        }
        if self.sym_xlat[idx] != u32::MAX {
            return StrId(self.sym_xlat[idx]);
        }
        let exec_sym = self.interner.intern(store.resolve_text(sym));
        self.sym_xlat[idx] = exec_sym.0;
        exec_sym
    }

    /// Restart the symbols when `store`'s text pool is not the one they
    /// were taken from.  Only ever called where a top-level run starts — no
    /// table is alive there, so no `Key::Sym` cell can be left pointing
    /// into the dropped pool — and it keeps a long-lived executor that
    /// crosses many stores from accumulating every string it ever saw.
    fn restart_symbols_for(&mut self, store: &NodeStore) {
        let pool = store.text_pool_id();
        if self.sym_xlat_pool != pool {
            self.interner = Interner::new();
            self.sym_xlat.clear();
            self.sym_xlat_pool = pool;
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

    /// The executor's string pool (resolve `Key::Sym` cells through this).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the string pool (to build `Key::Sym` cells when
    /// constructing input tables by hand).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
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

    /// Run `f` with the state of a fresh run of `plan` installed, and put
    /// back what was there before: nothing at top level, the outer run's
    /// state under a nested `µ`/`µ∆`.
    fn in_run<T>(&mut self, plan: &Plan, f: impl FnOnce(&mut Self) -> T) -> T {
        let outer = std::mem::replace(&mut self.plan_state, PlanState::of(plan));
        let out = f(self);
        self.plan_state = outer;
        out
    }

    /// Evaluate `plan` with the recursion input bound to `rec` (pass an
    /// empty table when the plan has no `RecInput` leaf).
    ///
    /// A direct call is a run of its own: no table (constructed
    /// identities and `id()` resolutions included) carries over from
    /// previous calls.  [`Executor::run_fixpoint`] instead scopes them to
    /// the whole fixpoint, so a body's constructed node is stable across
    /// its iterations.
    ///
    /// `Key::Sym` cells in the returned table resolve against
    /// [`Executor::interner`] *as of now*: the next run that starts on a
    /// store with a different text pool restarts the symbols.  Decode
    /// string cells before handing the executor another store.
    pub fn eval_plan<'a>(
        &mut self,
        store: impl Into<StoreMut<'a>>,
        plan: &Plan,
        rec: &Table,
    ) -> Result<Table> {
        let mut store: StoreMut<'_> = store.into();
        self.restart_symbols_for(store.read());
        self.in_run(plan, |exec| exec.eval_plan_in_run(&mut store, plan, rec))
    }

    /// One evaluation of `plan` inside the run in progress — the
    /// per-iteration entry point of a fixpoint run.
    fn eval_plan_in_run(
        &mut self,
        store: &mut StoreMut<'_>,
        plan: &Plan,
        rec: &Table,
    ) -> Result<Table> {
        let root = plan
            .root()
            .ok_or_else(|| AlgebraError::InvalidPlan("plan has no root".into()))?;
        let mut memo: IdMap<PlanNodeId, Table> = IdMap::default();
        self.eval_node(store, plan, root, rec, &mut memo)
    }

    fn eval_node(
        &mut self,
        store: &mut StoreMut<'_>,
        plan: &Plan,
        id: PlanNodeId,
        rec: &Table,
        memo: &mut IdMap<PlanNodeId, Table>,
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
        let node = plan.node(id).clone();
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for &input in &node.inputs {
            inputs.push(self.eval_node(store, plan, input, rec, memo)?);
        }
        let table = self.apply(store, plan, &node.op, &node.inputs, inputs, rec)?;
        if is_rec_dependent {
            memo.insert(id, table.clone());
        } else {
            self.static_plan_evals += 1;
            self.plan_state.run_cache.insert(id, table.clone());
        }
        Ok(table)
    }

    fn apply(
        &mut self,
        store: &mut StoreMut<'_>,
        plan: &Plan,
        op: &Operator,
        input_ids: &[PlanNodeId],
        mut inputs: Vec<Table>,
        rec: &Table,
    ) -> Result<Table> {
        match op {
            Operator::RecInput => Ok(rec.clone()),
            Operator::Literal(values) => Ok(Table::from_columns(
                vec!["item".into()],
                vec![values
                    .iter()
                    .map(|v| Key::Sym(self.interner.intern(v)))
                    .collect()],
            )),
            Operator::DocRoot(uri) => {
                let store = store.read();
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
                // The literal is compared *typed*: string cells against the
                // interned symbol, numeric/boolean cells against the parsed
                // literal, and node cells never match a string literal (the
                // tag-collision fix).
                let lit_sym = self.interner.intern(value);
                let lit_int: Option<i64> = value.trim().parse().ok();
                let lit_bool: Option<bool> = match value.as_str() {
                    "true" => Some(true),
                    "false" => Some(false),
                    _ => None,
                };
                let mask: Vec<bool> = input.cols[idx]
                    .iter()
                    .map(|&k| match k {
                        Key::Sym(s) => s == lit_sym,
                        Key::Int(i) => lit_int == Some(i),
                        Key::Bool(b) => lit_bool == Some(b),
                        Key::Node(_) => false,
                    })
                    .collect();
                Ok(input.filter_rows(&mask))
            }
            Operator::Join { left, right } => {
                let right_table = inputs.remove(1);
                let left_table = inputs.remove(0);
                let li = left_table.column_index(left)?;
                let ri = right_table.column_index(right)?;
                // Hash index over the right input, on typed keys.
                let mut index: IdMap<Key, Vec<usize>> = IdMap::default();
                for (row_idx, &key) in right_table.cols[ri].iter().enumerate() {
                    index.entry(key).or_default().push(row_idx);
                }
                // Matching (left row, right row) pairs.
                let mut lsrc = Vec::new();
                let mut rsrc = Vec::new();
                for (l, key) in left_table.cols[li].iter().enumerate() {
                    if let Some(matches) = index.get(key) {
                        for &r in matches {
                            lsrc.push(l);
                            rsrc.push(r);
                        }
                    }
                }
                // Output columns: left columns plus the right columns except
                // the join column, suffixing clashes.
                let mut names: Vec<String> = left_table.names.as_ref().clone();
                let mut cols: Vec<Arc<Vec<Key>>> = left_table
                    .cols
                    .iter()
                    .map(|col| Arc::new(gather(col, &lsrc)))
                    .collect();
                for (i, c) in right_table.names.iter().enumerate() {
                    if i == ri {
                        continue;
                    }
                    let name = if names.contains(c) {
                        format!("{c}_r")
                    } else {
                        c.clone()
                    };
                    names.push(name);
                    cols.push(Arc::new(gather(&right_table.cols[i], &rsrc)));
                }
                Ok(Table::with_schema(Arc::new(names), cols))
            }
            Operator::Cross => {
                let right = inputs.remove(1);
                let left = inputs.remove(0);
                let mut names: Vec<String> = left.names.as_ref().clone();
                for c in right.names.iter() {
                    let name = if names.contains(c) {
                        format!("{c}_r")
                    } else {
                        c.clone()
                    };
                    names.push(name);
                }
                let (lsrc, rsrc): (Vec<usize>, Vec<usize>) = (0..left.rows)
                    .flat_map(|l| (0..right.rows).map(move |r| (l, r)))
                    .unzip();
                let mut cols: Vec<Arc<Vec<Key>>> = left
                    .cols
                    .iter()
                    .map(|col| Arc::new(gather(col, &lsrc)))
                    .collect();
                cols.extend(right.cols.iter().map(|col| Arc::new(gather(col, &rsrc))));
                Ok(Table::with_schema(Arc::new(names), cols))
            }
            Operator::Distinct => Ok(inputs.remove(0).distinct()),
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
            Operator::Count { group_by } => {
                let input = inputs.remove(0);
                match group_by {
                    None => Ok(Table::from_columns(
                        vec!["count".into()],
                        vec![vec![Key::Int(input.rows as i64)]],
                    )),
                    Some(col) => {
                        let idx = input.column_index(col)?;
                        let mut order: Vec<Key> = Vec::new();
                        let mut groups: IdMap<Key, i64> = IdMap::default();
                        for &key in input.cols[idx].iter() {
                            *groups.entry(key).or_insert_with(|| {
                                order.push(key);
                                0
                            }) += 1;
                        }
                        let counts = order.iter().map(|k| Key::Int(groups[k])).collect();
                        Ok(Table::from_columns(
                            vec![col.clone(), "count".into()],
                            vec![order, counts],
                        ))
                    }
                }
            }
            Operator::Fun { kind, left, right } => {
                let input = inputs.remove(0);
                let li = input.column_index(left)?;
                let ri = input.column_index(right)?;
                let res: Vec<Key> = (0..input.rows)
                    .map(|r| apply_fun(*kind, input.cols[li][r], input.cols[ri][r], &self.interner))
                    .collect();
                let mut names: Vec<String> = input.names.as_ref().clone();
                names.push("res".into());
                let mut cols = input.cols;
                cols.push(Arc::new(res));
                Ok(Table::with_schema(Arc::new(names), cols))
            }
            Operator::RowTag | Operator::RowNum => {
                let input = inputs.remove(0);
                let mut names: Vec<String> = input.names.as_ref().clone();
                names.push(if matches!(op, Operator::RowTag) {
                    "tag".into()
                } else {
                    "rownum".into()
                });
                let numbers = (0..input.rows).map(|i| Key::Int(i as i64 + 1)).collect();
                let mut cols = input.cols;
                cols.push(Arc::new(numbers));
                Ok(Table::with_schema(Arc::new(names), cols))
            }
            Operator::Step { axis, test } => {
                let store = store.read();
                let input = inputs.remove(0);
                let idx = input.column_index("item")?;
                let step = store.step(*axis, test);
                let mut src = Vec::new();
                let mut items = Vec::new();
                let mut selected = Vec::new();
                for (r, key) in input.cols[idx].iter().enumerate() {
                    let Some(node) = key.as_node() else {
                        continue;
                    };
                    step.nodes_into(node, &mut selected);
                    src.resize(src.len() + selected.len(), r);
                    items.extend(selected.drain(..).map(Key::Node));
                }
                Ok(replace_item_column(&input, idx, src, items).distinct())
            }
            Operator::StringValue => {
                let store = store.read();
                let input = inputs.remove(0);
                let idx = input.column_index("item")?;
                // Row count is preserved: only the item column is rewritten,
                // every other column handle is shared untouched.
                let items: Vec<Key> = input.cols[idx]
                    .iter()
                    .map(|&key| match key.as_node() {
                        Some(node) => match store.string_value_sym(node) {
                            // Leaf payload: store symbol → executor symbol
                            // through the per-pool cache, no render.
                            Some(sym) => Key::Sym(self.translate_sym(store, sym)),
                            // Element/document concatenation: borrow the
                            // store's memoized render instead of building
                            // a fresh String per row.
                            None => Key::Sym(self.interner.intern(&store.string_value_ref(node))),
                        },
                        None => key,
                    })
                    .collect();
                let mut cols = input.cols.clone();
                cols[idx] = Arc::new(items);
                Ok(Table::with_schema(input.names.clone(), cols))
            }
            Operator::IdLookup => {
                let store = store.read();
                let input = inputs.remove(0);
                let idx = input.column_index("item")?;
                // `fn:id` as the interpreter runs it: an argument node
                // resolves in its own document, through the kernel that
                // probes the ID index with the node's text symbol.
                let mut src = Vec::new();
                let mut items = Vec::new();
                let mut found = Vec::new();
                for (r, key) in input.cols[idx].iter().enumerate() {
                    let Some(node) = key.as_node() else {
                        continue;
                    };
                    store.lookup_id_nodes(DocId(node.doc), &[node], &mut found);
                    src.resize(src.len() + found.len(), r);
                    items.extend(found.drain(..).map(Key::Node));
                }
                Ok(replace_item_column(&input, idx, src, items).distinct())
            }
            Operator::IfThenElse => {
                let else_table = inputs.remove(2);
                let then_table = inputs.remove(1);
                let cond = inputs.remove(0);
                let truthy = effective_boolean(&cond);
                Ok(if truthy { then_table } else { else_table })
            }
            Operator::Construct(name) => {
                let input = inputs.remove(0);
                let store = store.write();
                let frag = store.new_fragment();
                let element = store.create_element(frag, xqy_xdm::QName::local(name.clone()));
                let _ = input;
                Ok(Table::from_nodes(&[element]))
            }
            Operator::Mu | Operator::MuDelta => {
                // input 0: seed plan result; input 1 is the body sub-plan,
                // which must be re-evaluated per iteration — so it cannot be
                // passed as a pre-computed table.  We re-drive it here; the
                // nested run installs its own run state and puts the outer
                // plan's back (plan node ids overlap between plans).
                let seed = inputs.remove(0);
                let body_root = input_ids[1];
                let body_plan = subplan(plan, body_root);
                let strategy = if matches!(op, Operator::Mu) {
                    FixpointStrategy::Naive
                } else {
                    FixpointStrategy::Delta
                };
                let seed = seed.item_nodes();
                let (mut groups, _stats) = self.drive(
                    store,
                    &body_plan,
                    Seeds::Set(&seed),
                    strategy,
                    false,
                    BatchSharing::PerSeed,
                )?;
                Ok(Table::from_nodes(&groups.pop().unwrap_or_default()))
            }
        }
    }

    /// Run the fixpoint of `body` seeded with `seed` using `strategy`.
    ///
    /// With `seed_in_result = false` the accumulation starts from the body
    /// applied to the seed (Definition 2.1); with `true` it starts from the
    /// seed itself (the paper's Example 2.4 reading).
    pub fn run_fixpoint<'a>(
        &mut self,
        store: impl Into<StoreMut<'a>>,
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
    pub fn run_fixpoint_batched<'a>(
        &mut self,
        store: impl Into<StoreMut<'a>>,
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
    /// [`Executor::run_fixpoint_batched`]: run the fixpoint(s) of `body`
    /// over `seeds` and return one node list per source, in document order
    /// — `body` in per-seed form for [`Seeds::Set`] (where `sharing` is
    /// immaterial), in seed-carried form for [`Seeds::Each`].
    pub fn run_fixpoint_groups<'a>(
        &mut self,
        store: impl Into<StoreMut<'a>>,
        body: &Plan,
        seeds: Seeds<'_>,
        strategy: FixpointStrategy,
        seed_in_result: bool,
        sharing: BatchSharing,
    ) -> Result<(Vec<Vec<NodeId>>, ExecStats)> {
        let mut store: StoreMut<'_> = store.into();
        self.restart_symbols_for(store.read());
        self.drive(&mut store, body, seeds, strategy, seed_in_result, sharing)
    }

    /// Hand `plan` to the shared Figure-3 driver as a [`Body`] — the one
    /// entry every fixpoint of this executor goes through, the nested
    /// `µ`/`µ∆` operator included.  A batch ([`Seeds::Each`]) takes `plan`
    /// in seed-carried form, a single-source run in per-seed form.
    fn drive(
        &mut self,
        store: &mut StoreMut<'_>,
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
        store: &mut StoreMut<'_>,
        body: &Plan,
        tagged: &[(NodeId, &[NodeId])],
        stats: &mut ExecStats,
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
        let out = self.eval_plan_in_run(store, body, &rec)?;
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
        store: &mut StoreMut<'_>,
        body: &Plan,
        input: &[NodeId],
        stats: &mut ExecStats,
    ) -> Result<Vec<NodeId>> {
        stats.frontier_curve.push(input.len() as u64);
        stats.body_evaluations += 1;
        xqy_xdm::fail::point("alloc.table").map_err(|e| AlgebraError::Execution(e.to_string()))?;
        let rec = Table::from_nodes(input);
        let out = self.eval_plan_in_run(store, body, &rec)?;
        Ok(out.item_nodes())
    }
}

/// A compiled recursion body as the driver sees it: the per-seed plan is
/// evaluated group by group, the seed-carried plan once over all groups.
struct PlanBody<'a, 's> {
    executor: &'a mut Executor,
    store: &'a mut StoreMut<'s>,
    plan: &'a Plan,
    carried: bool,
}

impl Body for PlanBody<'_, '_> {
    type Error = AlgebraError;

    fn images(&mut self, groups: &[Group<'_>], stats: &mut ExecStats) -> Result<Vec<Vec<NodeId>>> {
        if self.carried {
            return self
                .executor
                .eval_tagged_batch(self.store, self.plan, groups, stats);
        }
        groups
            .iter()
            .map(|&(_, nodes)| self.executor.eval_body(self.store, self.plan, nodes, stats))
            .collect()
    }

    fn store(&self) -> &NodeStore {
        self.store.read()
    }

    fn release_memory(&mut self) -> u64 {
        self.executor.release_run_cache()
    }

    fn limit_error(&self, error: LimitError) -> AlgebraError {
        AlgebraError::Limit(error)
    }
}

/// Gather `col[i]` for every `i` in `idx` (the columnar row-selection
/// primitive joins, crosses and steps are built from).
fn gather(col: &[Key], idx: &[usize]) -> Vec<Key> {
    idx.iter().map(|&i| col[i]).collect()
}

/// Rebuild `input` with the `item` column replaced by `items` and every
/// other column gathered through `src` (one source row per output row).
fn replace_item_column(input: &Table, item_idx: usize, src: Vec<usize>, items: Vec<Key>) -> Table {
    debug_assert_eq!(src.len(), items.len());
    let mut cols: Vec<Arc<Vec<Key>>> = Vec::with_capacity(input.cols.len());
    for (c, col) in input.cols.iter().enumerate() {
        if c == item_idx {
            cols.push(Arc::new(Vec::new())); // replaced just below
        } else {
            cols.push(Arc::new(gather(col, &src)));
        }
    }
    cols[item_idx] = Arc::new(items);
    Table::with_schema(input.names.clone(), cols)
}

fn apply_fun(kind: FunKind, left: Key, right: Key, interner: &Interner) -> Key {
    match kind {
        // Equality is typed (`Sym` never equals `Node`/`Bool`), with a
        // numeric bridge between symbols and integers so that a count
        // compared against a literal (compiled as a string symbol) works.
        FunKind::Eq => Key::Bool(keys_equal(left, right, interner)),
        FunKind::Ne => Key::Bool(!keys_equal(left, right, interner)),
        FunKind::Lt | FunKind::Gt => {
            let (l, r) = (numeric(left, interner), numeric(right, interner));
            Key::Bool(if matches!(kind, FunKind::Lt) {
                l < r
            } else {
                l > r
            })
        }
        FunKind::Add | FunKind::Sub => {
            let (l, r) = (numeric(left, interner), numeric(right, interner));
            Key::Int(if matches!(kind, FunKind::Add) {
                l + r
            } else {
                l - r
            })
        }
    }
}

fn keys_equal(left: Key, right: Key, interner: &Interner) -> bool {
    match (left, right) {
        // The bridge fires only when the symbol *is* an integer rendering;
        // a non-numeric string never equals any integer (in particular not
        // 0, which a parse fallback would silently produce).
        (Key::Sym(s), Key::Int(i)) | (Key::Int(i), Key::Sym(s)) => {
            interner.resolve(s).trim().parse::<i64>() == Ok(i)
        }
        _ => left == right,
    }
}

fn numeric(key: Key, interner: &Interner) -> i64 {
    match key {
        Key::Int(i) => i,
        Key::Bool(b) => b as i64,
        Key::Sym(s) => interner.resolve(s).trim().parse().unwrap_or(0),
        Key::Node(_) => 0,
    }
}

/// Effective boolean value of a condition table: a single `count`/integer
/// cell is tested against zero; otherwise any row counts as true.
fn effective_boolean(table: &Table) -> bool {
    if table.columns().len() == 1 && table.len() == 1 {
        match table.key(0, 0) {
            Key::Int(i) => return i != 0,
            Key::Bool(b) => return b,
            _ => {}
        }
    }
    !table.is_empty()
}

/// Extract the sub-plan rooted at `root` as its own [`Plan`] (used to
/// re-drive the body input of a µ / µ∆ operator).
fn subplan(plan: &Plan, root: PlanNodeId) -> Plan {
    let mut mapping: IdMap<PlanNodeId, PlanNodeId> = IdMap::default();
    let mut out = Plan::new();
    let new_root = copy_into(plan, root, &mut out, &mut mapping);
    out.set_root(new_root);
    out
}

fn copy_into(
    plan: &Plan,
    id: PlanNodeId,
    out: &mut Plan,
    mapping: &mut IdMap<PlanNodeId, PlanNodeId>,
) -> PlanNodeId {
    if let Some(&mapped) = mapping.get(&id) {
        return mapped;
    }
    let node = plan.node(id).clone();
    let inputs = node
        .inputs
        .iter()
        .map(|&i| copy_into(plan, i, out, mapping))
        .collect();
    let new_id = out.add(node.op, inputs);
    mapping.insert(id, new_id);
    new_id
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_xdm::{Axis, NodeTest};

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

    fn seed_course(store: &mut NodeStore, doc: DocId, code: &str) -> Vec<NodeId> {
        let root = store.document_element(doc).unwrap();
        store
            .axis_nodes(root, Axis::Child, &NodeTest::Name("course".into()))
            .into_iter()
            .filter(|&c| store.attribute_value(c, "code") == Some(code))
            .collect()
    }

    #[test]
    fn step_and_select_operators() {
        let (mut store, doc) = store_with_curriculum();
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
        let attr = plan.add(Operator::StringValue, vec![attr]);
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
            .eval_plan(&mut store, &plan, &Table::from_nodes(&[root_elem]))
            .unwrap();
        assert_eq!(result.len(), 1);
        let node = result.item_nodes()[0];
        assert_eq!(store.attribute_value(node, "code"), Some("c2"));
    }

    #[test]
    fn mu_computes_transitive_closure() {
        let (mut store, doc) = store_with_curriculum();
        let seed = seed_course(&mut store, doc, "c1");
        let plan = q1_plan();
        let mut exec = Executor::new();
        let (result, stats) = exec
            .run_fixpoint(&mut store, &plan, &seed, MuStrategy::Mu, false)
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
        let (mut store, doc) = store_with_curriculum();
        let seed = seed_course(&mut store, doc, "c1");
        let plan = q1_plan();

        let (naive_result, naive_stats) = {
            let mut exec = Executor::new();
            exec.run_fixpoint(&mut store, &plan, &seed, MuStrategy::Mu, false)
                .unwrap()
        };
        let (delta_result, delta_stats) = {
            let mut exec = Executor::new();
            exec.run_fixpoint(&mut store, &plan, &seed, MuStrategy::MuDelta, false)
                .unwrap()
        };
        let mut a = naive_result.item_nodes();
        let mut b = delta_result.item_nodes();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(delta_stats.rows_fed_back < naive_stats.rows_fed_back);
    }

    #[test]
    fn mu_operator_embedded_in_a_plan() {
        let (mut store, doc) = store_with_curriculum();
        let _ = doc;
        let mut plan = Plan::new();
        // Seed: doc root -> child::course -> select code = c1 (via carry).
        let docroot = plan.add(Operator::DocRoot("curriculum.xml".into()), vec![]);
        let curriculum = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::Name("curriculum".into()),
            },
            vec![docroot],
        );
        let courses = plan.add(
            Operator::Step {
                axis: Axis::Child,
                test: NodeTest::Name("course".into()),
            },
            vec![curriculum],
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
        let attr = plan.add(Operator::StringValue, vec![attr]);
        let select = plan.add(
            Operator::Select {
                column: "item".into(),
                value: "c1".into(),
            },
            vec![attr],
        );
        let seed = plan.add(
            Operator::Project(vec![("item".into(), "node".into())]),
            vec![select],
        );
        // Body: the Q1 recursion body.
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
        let mu = plan.add(Operator::Mu, vec![seed, lookup]);
        plan.set_root(mu);

        // The nested µ resolves id() in its argument nodes' document.
        let mut exec = Executor::new();
        let result = exec
            .eval_plan(&mut store, &plan, &Table::new(vec!["item".into()]))
            .unwrap();
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn join_and_count_operators() {
        let mut store = NodeStore::new();
        let mut plan = Plan::new();
        let left = plan.add(
            Operator::Literal(vec!["a".into(), "b".into(), "c".into()]),
            vec![],
        );
        let right = plan.add(
            Operator::Literal(vec!["b".into(), "c".into(), "d".into()]),
            vec![],
        );
        let join = plan.add(
            Operator::Join {
                left: "item".into(),
                right: "item".into(),
            },
            vec![left, right],
        );
        let count = plan.add(Operator::Count { group_by: None }, vec![join]);
        plan.set_root(count);
        let mut exec = Executor::new();
        let result = exec
            .eval_plan(&mut store, &plan, &Table::new(vec!["item".into()]))
            .unwrap();
        assert_eq!(result.key(0, 0), Key::Int(2));
    }

    #[test]
    fn union_difference_and_distinct() {
        let mut store = NodeStore::new();
        let mut plan = Plan::new();
        let a = plan.add(
            Operator::Literal(vec!["x".into(), "y".into(), "y".into()]),
            vec![],
        );
        let b = plan.add(Operator::Literal(vec!["y".into(), "z".into()]), vec![]);
        let union = plan.add(Operator::Union, vec![a, b]);
        plan.set_root(union);
        let mut exec = Executor::new();
        let result = exec
            .eval_plan(&mut store, &plan, &Table::new(vec!["item".into()]))
            .unwrap();
        assert_eq!(result.len(), 3); // x, y, z — set semantics

        let mut plan2 = Plan::new();
        let a = plan2.add(Operator::Literal(vec!["x".into(), "y".into()]), vec![]);
        let b = plan2.add(Operator::Literal(vec!["y".into()]), vec![]);
        let diff = plan2.add(Operator::Difference, vec![a, b]);
        plan2.set_root(diff);
        let result = exec
            .eval_plan(&mut store, &plan2, &Table::new(vec!["item".into()]))
            .unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.value(0, 0, exec.interner()), Value::Str("x".into()));
    }

    #[test]
    fn if_then_else_executes_on_count_condition() {
        let mut store = NodeStore::new();
        let mut plan = Plan::new();
        let input = plan.add(Operator::Literal(vec!["a".into()]), vec![]);
        let cond = plan.add(Operator::Count { group_by: None }, vec![input]);
        let then_branch = plan.add(Operator::Literal(vec!["then".into()]), vec![]);
        let else_branch = plan.add(Operator::Literal(vec!["else".into()]), vec![]);
        let ite = plan.add(Operator::IfThenElse, vec![cond, then_branch, else_branch]);
        plan.set_root(ite);
        let mut exec = Executor::new();
        let result = exec
            .eval_plan(&mut store, &plan, &Table::new(vec!["item".into()]))
            .unwrap();
        assert_eq!(
            result.value(0, 0, exec.interner()),
            Value::Str("then".into())
        );
    }

    #[test]
    fn missing_column_reports_schema() {
        let mut store = NodeStore::new();
        let mut plan = Plan::new();
        let lit = plan.add(Operator::Literal(vec!["a".into()]), vec![]);
        let select = plan.add(
            Operator::Select {
                column: "nope".into(),
                value: "a".into(),
            },
            vec![lit],
        );
        plan.set_root(select);
        let mut exec = Executor::new();
        let err = exec
            .eval_plan(&mut store, &plan, &Table::new(vec!["item".into()]))
            .unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    /// Regression test for the `as_key` tag collision: the old string
    /// rendering made `Str("node:<k>")` join/dedup against `Node(k)` and
    /// `Str("true")` against `Bool(true)`.  With typed keys these are four
    /// distinct cells.
    #[test]
    fn string_cells_never_collide_with_node_or_bool_cells() {
        let (mut store, doc) = store_with_curriculum();
        let course = seed_course(&mut store, doc, "c1")[0];

        // A document string column that *spells* the old rendering of the
        // course node must not join against the node itself.
        let mut exec = Executor::new();
        let forged = format!("node:{course}");
        let mut plan = Plan::new();
        let strings = plan.add(Operator::Literal(vec![forged.clone()]), vec![]);
        let rec = plan.add(Operator::RecInput, vec![]);
        let join = plan.add(
            Operator::Join {
                left: "item".into(),
                right: "item".into(),
            },
            vec![strings, rec],
        );
        plan.set_root(join);
        let result = exec
            .eval_plan(&mut store, &plan, &Table::from_nodes(&[course]))
            .unwrap();
        assert!(
            result.is_empty(),
            "string '{forged}' must not join against the node it spells"
        );

        // Dedup: a table holding Node(k), Sym("node:<k>"), Bool(true) and
        // Sym("true") has four distinct rows, and difference removes none
        // of the string rows when subtracting the node/bool rows.
        let interner = exec.interner_mut();
        let forged_sym = Key::Sym(interner.intern(&forged));
        let true_sym = Key::Sym(interner.intern("true"));
        let mixed = Table::from_columns(
            vec!["item".into()],
            vec![vec![
                Key::Node(course),
                forged_sym,
                Key::Bool(true),
                true_sym,
                Key::Bool(true),
            ]],
        );
        assert_eq!(mixed.distinct().len(), 4);
        let typed_only = Table::from_columns(
            vec!["item".into()],
            vec![vec![Key::Node(course), Key::Bool(true)]],
        );
        let mut diff_plan = Plan::new();
        let lits = diff_plan.add(
            Operator::Literal(vec![forged.clone(), "true".into()]),
            vec![],
        );
        let rec_typed = diff_plan.add(Operator::RecInput, vec![]);
        let diff = diff_plan.add(Operator::Difference, vec![lits, rec_typed]);
        diff_plan.set_root(diff);
        let surviving = exec.eval_plan(&mut store, &diff_plan, &typed_only).unwrap();
        assert_eq!(
            surviving.len(),
            2,
            "subtracting Node(k)/Bool(true) rows must remove neither string row"
        );

        // Select: a node cell never matches a string literal, even the one
        // that spells its old rendering.
        let mut plan2 = Plan::new();
        let rec2 = plan2.add(Operator::RecInput, vec![]);
        let select = plan2.add(
            Operator::Select {
                column: "item".into(),
                value: forged.clone(),
            },
            vec![rec2],
        );
        plan2.set_root(select);
        let selected = exec
            .eval_plan(&mut store, &plan2, &Table::from_nodes(&[course]))
            .unwrap();
        assert!(selected.is_empty());
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

    /// Node constructors create a fresh identity per fixpoint *run* even
    /// though they are rec-independent: their tables live in the run cache,
    /// which is dropped with the run.
    #[test]
    fn constructed_nodes_are_fresh_per_run_but_stable_within_one() {
        let mut store = NodeStore::new();
        let mut plan = Plan::new();
        let lit = plan.add(Operator::Literal(Vec::new()), vec![]);
        let flag = plan.add(Operator::Construct("flag".into()), vec![lit]);
        plan.set_root(flag);
        let mut exec = Executor::new();
        let (r1, s1) = exec
            .run_fixpoint(&mut store, &plan, &[], MuStrategy::Mu, false)
            .unwrap();
        let (r2, _) = exec
            .run_fixpoint(&mut store, &plan, &[], MuStrategy::Mu, false)
            .unwrap();
        // Within one run the constructed node is stable (the fixpoint
        // terminates); across runs the identity is fresh.
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1);
        assert!(s1.iterations >= 1);
        assert_ne!(
            r1.item_nodes(),
            r2.item_nodes(),
            "a second run must construct a fresh element"
        );
        // Direct eval_plan calls are each their own scope too.
        let empty = Table::new(vec!["item".into()]);
        let e1 = exec.eval_plan(&mut store, &plan, &empty).unwrap();
        let e2 = exec.eval_plan(&mut store, &plan, &empty).unwrap();
        assert_ne!(e1.item_nodes(), e2.item_nodes());
    }

    /// An empty-seeded run over an id()-using body evaluates to the empty
    /// set, also right after a seeded run of the same body.
    #[test]
    fn empty_seed_id_lookup_returns_empty_after_a_seeded_run() {
        let (mut store, doc) = store_with_curriculum();
        let plan = q1_plan();
        let mut exec = Executor::new();
        let seed = seed_course(&mut store, doc, "c1");
        exec.run_fixpoint(&mut store, &plan, &seed, MuStrategy::MuDelta, false)
            .unwrap();
        let (result, _) = exec
            .run_fixpoint(&mut store, &plan, &[], MuStrategy::MuDelta, false)
            .unwrap();
        assert!(result.is_empty());
    }

    /// The `⊚ Eq` Sym↔Int bridge compares numerically only when the symbol
    /// actually parses as an integer; a non-numeric string must not equal
    /// `Int(0)` through a parse fallback.
    #[test]
    fn fun_eq_numeric_bridge_requires_a_numeric_symbol() {
        let mut interner = Interner::new();
        let na = Key::Sym(interner.intern("n/a"));
        let five = Key::Sym(interner.intern("5"));
        assert_eq!(
            apply_fun(FunKind::Eq, na, Key::Int(0), &interner),
            Key::Bool(false)
        );
        assert_eq!(
            apply_fun(FunKind::Ne, na, Key::Int(0), &interner),
            Key::Bool(true)
        );
        assert_eq!(
            apply_fun(FunKind::Eq, five, Key::Int(5), &interner),
            Key::Bool(true)
        );
    }

    /// The prerequisite closure with `id()` spelt as a join against a
    /// rec-independent scan (`doc → course → π → @code → string()`, five
    /// plan nodes): a
    /// seed-local body whose every iteration needs the same scan.
    fn join_closure_plan() -> Plan {
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
        let value = plan.add(Operator::StringValue, vec![code]);
        let docroot = plan.add(Operator::DocRoot("curriculum.xml".into()), vec![]);
        let all = plan.add(
            Operator::Step {
                axis: Axis::Descendant,
                test: NodeTest::Name("course".into()),
            },
            vec![docroot],
        );
        let keep = plan.add(
            Operator::Project(vec![
                ("node".into(), "item".into()),
                ("item".into(), "item".into()),
            ]),
            vec![all],
        );
        let attr = plan.add(
            Operator::Step {
                axis: Axis::Attribute,
                test: NodeTest::Name("code".into()),
            },
            vec![keep],
        );
        let attr = plan.add(Operator::StringValue, vec![attr]);
        let join = plan.add(
            Operator::Join {
                left: "item".into(),
                right: "item".into(),
            },
            vec![value, attr],
        );
        let back = plan.add(
            Operator::Project(vec![("item".into(), "node".into())]),
            vec![join],
        );
        plan.set_root(back);
        plan
    }

    /// Rec-independent plan nodes of [`join_closure_plan`].
    const SCAN_NODES: u64 = 5;

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
        let plan = join_closure_plan();
        let mut exec = Executor::new();
        for code in ["c1", "c2", "c3", "c4", "c1"] {
            let seed = seed_course(&mut store, doc, code);
            let ((result, stats), evals, hits) = counted(&mut exec, |exec| {
                exec.run_fixpoint(&mut store, &plan, &seed, MuStrategy::MuDelta, true)
                    .unwrap()
            });
            let (expected, _) = Executor::new()
                .run_fixpoint(&mut store, &q1_plan(), &seed, MuStrategy::MuDelta, true)
                .unwrap();
            assert_eq!(result, expected, "seed {code}");
            assert_eq!(evals, SCAN_NODES, "seed {code}: once per run, every run");
            assert!(stats.body_evaluations >= 2 || code > "c2", "seed {code}");
            assert_eq!(hits as usize, stats.body_evaluations - 1, "seed {code}");
            assert!(exec.plan_state.run_cache.is_empty(), "dropped with the run");
            // Another plan in between thrashes nothing: there is nothing
            // plan-keyed to thrash.
            exec.run_fixpoint(&mut store, &q1_plan(), &seed, MuStrategy::Mu, false)
                .unwrap();
        }

        // A document loaded between two runs is seen by the second.
        let late = r#"<curriculum><course code="c9"/></curriculum>"#;
        store.parse_document_with_uri("late.xml", late).unwrap();
        let mut late_plan = Plan::new();
        let late_root = late_plan.add(Operator::DocRoot("late.xml".into()), vec![]);
        late_plan.set_root(late_root);
        let empty = Table::new(vec!["item".into()]);
        assert_eq!(
            exec.eval_plan(&mut store, &late_plan, &empty)
                .unwrap()
                .len(),
            1
        );

        // A run on another store answers from that store, and the symbols
        // restart with its text pool instead of piling up across stores.
        let mut other = NodeStore::new();
        let other_doc = other
            .parse_document_with_uri(
                "curriculum.xml",
                r#"<curriculum><course code="c2"/><course code="c1"><prerequisites>
                   <pre_code>c2</pre_code></prerequisites></course></curriculum>"#,
            )
            .unwrap();
        let seed = seed_course(&mut other, other_doc, "c1");
        let (result, _) = exec
            .run_fixpoint(&mut other, &plan, &seed, MuStrategy::MuDelta, false)
            .unwrap();
        assert_eq!(
            result.item_nodes(),
            seed_course(&mut other, other_doc, "c2")
        );
        assert!(
            exec.interner().get("c4").is_none(),
            "c4 is the first store's"
        );
    }

    /// A nested `µ` is a run of its own inside the outer one: its tables
    /// are dropped when it ends and the outer run's come back.
    #[test]
    fn nested_mu_gets_a_run_cache_of_its_own() {
        let (mut store, doc) = store_with_curriculum();
        let body = join_closure_plan();
        let mut plan = Plan::new();
        let seed = plan.add(Operator::RecInput, vec![]);
        let mut mapping = IdMap::default();
        let body_root = copy_into(&body, body.root().unwrap(), &mut plan, &mut mapping);
        let mu = plan.add(Operator::MuDelta, vec![seed, body_root]);
        plan.set_root(mu);

        let c1 = seed_course(&mut store, doc, "c1");
        let (expected, _) = Executor::new()
            .run_fixpoint(&mut store, &body, &c1, MuStrategy::MuDelta, false)
            .unwrap();
        let mut exec = Executor::new();
        let mut deltas = Vec::new();
        for _ in 0..2 {
            let (result, evals, hits) = counted(&mut exec, |exec| {
                exec.eval_plan(&mut store, &plan, &Table::from_nodes(&c1))
                    .unwrap()
            });
            assert_eq!(result, expected);
            assert!(hits > 0, "later iterations of the nested run hit");
            assert_eq!(evals % SCAN_NODES, 0, "whole scans only");
            assert!(exec.plan_state.rec_dependent.is_empty(), "outer state back");
            deltas.push((evals, hits));
        }
        assert_eq!(deltas[0], deltas[1], "every run pays for itself");
    }

    /// The batched multi-source driver computes, for every seed of the
    /// batch, exactly the per-seed fixpoint — grouped by seed, in document
    /// order within each group — while evaluating the shared body only
    /// `max(per-seed depth)` times.
    #[test]
    fn batched_fixpoint_matches_per_seed_runs() {
        let (mut store, doc) = store_with_curriculum();
        let plan = q1_plan();
        let batched_plan = plan.seed_carried().expect("Q1 body is seed-local");
        let seeds: Vec<NodeId> = ["c1", "c2", "c3"]
            .iter()
            .flat_map(|code| seed_course(&mut store, doc, code))
            .collect();

        for strategy in [MuStrategy::Mu, MuStrategy::MuDelta] {
            for sharing in [BatchSharing::PerSeed, BatchSharing::DistinctNodes] {
                let (table, stats) = {
                    let mut exec = Executor::new();
                    exec.run_fixpoint_batched(
                        &mut store,
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
                        .run_fixpoint(&mut store, &plan, &[seed], strategy, false)
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

    /// An empty batch is a no-op: empty `(seed, item)` table, zero
    /// iterations, no context-document derivation from stale state.
    #[test]
    fn batched_fixpoint_empty_seed_set() {
        let (mut store, _doc) = store_with_curriculum();
        let batched_plan = q1_plan().seed_carried().unwrap();
        let mut exec = Executor::new();
        let (table, stats) = exec
            .run_fixpoint_batched(
                &mut store,
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
        let (mut store, doc) = store_with_curriculum();
        let batched_plan = q1_plan().seed_carried().unwrap();
        let seeds = seed_course(&mut store, doc, "c1");
        let mut exec = Executor::new();
        let (table, _) = exec
            .run_fixpoint_batched(
                &mut store,
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
        let (mut store, doc) = store_with_curriculum();
        let batched_plan = q1_plan().seed_carried().unwrap();
        let seeds: Vec<NodeId> = ["c1", "c2", "c3", "c4"]
            .iter()
            .flat_map(|code| seed_course(&mut store, doc, code))
            .collect();

        for strategy in [MuStrategy::Mu, MuStrategy::MuDelta] {
            for sharing in [BatchSharing::PerSeed, BatchSharing::DistinctNodes] {
                for seed_in_result in [false, true] {
                    let (expected, expected_stats) = Executor::new()
                        .run_fixpoint_batched(
                            &mut store,
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
                                &mut store,
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
        let (mut store, doc) = store_with_curriculum();
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
        let result = exec.eval_plan(&mut store, &plan, &input).unwrap();
        assert_eq!(result.columns(), ["renamed"]);
        assert!(
            result.shares_storage(&input),
            "π must re-arrange column handles, not copy cells"
        );
    }
}
