//! The inflationary fixed point driver: Figure 3 of the paper, written once.
//!
//! ```text
//! (a) Naïve                          (b) Delta
//! res ← e_rec(e_seed);               res ← e_rec(e_seed);
//! do                                 ∆ ← res;
//!   res ← e_rec(res) union res;      do
//! while res grows;                     ∆ ← e_rec(∆) except res;
//!                                      res ← ∆ union res;
//!                                    while res grows;
//! ```
//!
//! The two algorithms are the same loop with one switch — feed `res` or
//! feed `∆` ([`FixpointStrategy`]) — exactly as µ and µ∆ are the same
//! operator in the algebra (Section 4 / Table 1).  [`run`] is that loop,
//! generalised in the two directions the engine needs and no further:
//!
//! * it advances **many sources at once**: each source keeps its own `res`
//!   and frontier and drops out the round it stops growing, so a run over
//!   one source *is* the per-seed algorithm and a run over `n` sources is
//!   `n` per-seed runs in lockstep;
//! * the recursion body is a [`Body`] — "tagged frontier groups → image
//!   groups" — implemented by the source-level interpreter and by the
//!   relational executor.
//!
//! Delta replaces Naïve safely only for *distributive* bodies (Theorem
//! 3.2); the driver does not check this, its callers do.
//!
//! The two frontier representations ([`BatchSharing`]) are two fold
//! loops.  Per seed, each source keeps its `res` as a [`NodeSet`] and the
//! round runs `except`/`union` on it.  Over distinct nodes, the run gives
//! every node it meets a dense run-local id and keeps each node's image,
//! computed once per run: a distributive body's image of a node depends on
//! the node alone (Definition 3.1).  The sources are then folded in
//! *lanes* of 64, one bit each, as in a multi-source bit-parallel BFS: a
//! lane keeps one word per local id, and one `|=` over a frontier node's
//! image advances every source of the lane whose frontier holds the node.
//! The results leave in document order from one sort of the run's nodes.
//!
//! Who counts what: the driver counts the paper's columns — rounds, nodes
//! fed back ([`ExecStats::rows_fed_back`]: each source's own frontier, so
//! the count is the per-seed Figure-3 count whatever the frontier
//! representation), result size and wall time; the body counts what it
//! evaluates ([`ExecStats::body_evaluations`], [`ExecStats::frontier_curve`]
//! — so a sharing run reports the work it saved: over distinct nodes the
//! body is handed each node once per run).

use std::fmt;
use std::time::Instant;

use crate::budget::{self, QueryBudget};
use crate::fail::{self, FaultError};
use crate::{IdMap, NodeId, NodeSet, NodeStore};

/// Which algorithm evaluates `with … seeded by … recurse`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FixpointStrategy {
    /// Figure 3(a): feed the entire accumulated result back each iteration.
    #[default]
    Naive,
    /// Figure 3(b): feed only the newly discovered nodes back each iteration.
    Delta,
}

impl FixpointStrategy {
    /// Human-readable name (matches the paper's terminology).
    pub fn name(&self) -> &'static str {
        match self {
            FixpointStrategy::Naive => "Naive",
            FixpointStrategy::Delta => "Delta",
        }
    }
}

/// How a multi-source run represents the frontier it hands the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BatchSharing {
    /// One group per source: `(source tag, that source's frontier)`.  Each
    /// source sees precisely the evaluations its own per-seed loop would
    /// perform, so this is sound for *every* body — including
    /// non-distributive and constructing ones.
    #[default]
    PerSeed,
    /// One group per **distinct** node, `(n, [n])`, handed to the body the
    /// first round some source's frontier contains `n`; the image is kept
    /// for the rest of the run and read by every source whose frontier
    /// contains `n`, in that round or a later one.  Overlapping frontiers —
    /// the common case in the per-item workloads — pay each node once per
    /// run instead of once per source and round.  Sound only for
    /// **distributive** bodies (`e(X) = ⋃ₓ∈X e({x})`, Theorem 3.2): a
    /// non-distributive body evaluated per node is simply a different
    /// function.
    DistinctNodes,
}

impl BatchSharing {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BatchSharing::PerSeed => "per-seed",
            BatchSharing::DistinctNodes => "distinct-nodes",
        }
    }
}

/// Statistics of one fixpoint run — the quantities Table 2 reports.
#[derive(Debug, Clone, Default, Eq)]
pub struct ExecStats {
    /// Iterations of the do-while loop (the paper's "recursion depth").
    /// For a multi-source run this is the *maximum* per-source depth — the
    /// shared loop runs until the deepest source converges.
    pub iterations: usize,
    /// The paper's "Total # of Nodes Fed Back": the lengths of the
    /// frontiers the sources were fed, summed over rounds and sources.
    /// Counted by the driver, so a batch reports the sum of its seeds'
    /// own Figure-3 counts under either [`BatchSharing`] — the nodes the
    /// body actually evaluated are [`body_evaluations`](Self::body_evaluations)
    /// and [`frontier_curve`](Self::frontier_curve).
    pub rows_fed_back: u64,
    /// Number of body evaluations, as the body counts them (the
    /// interpreter: one per group it evaluates; the relational batch: one
    /// per call, however many groups).  Over distinct nodes the driver
    /// skips a round that meets no new node, so there it counts the rounds
    /// that did.
    pub body_evaluations: usize,
    /// Nodes in the final result, summed over sources.
    pub result_rows: usize,
    /// Number of seeds a batch ([`Seeds::Each`]) evaluated together; `0`
    /// for a single-source run ([`Seeds::Set`]).
    pub batch_seeds: usize,
    /// Nodes the body was handed at each evaluation, in evaluation order:
    /// the frontier-growth curve.
    /// Deterministic for a given input, so it takes part in equality.
    pub frontier_curve: Vec<u64>,
    /// Wall time of the run in microseconds.  **Excluded from equality**:
    /// tests compare whole stats structs, and wall time legitimately
    /// differs between runs.
    pub wall_micros: u64,
}

impl PartialEq for ExecStats {
    fn eq(&self, other: &Self) -> bool {
        self.iterations == other.iterations
            && self.rows_fed_back == other.rows_fed_back
            && self.body_evaluations == other.body_evaluations
            && self.result_rows == other.result_rows
            && self.batch_seeds == other.batch_seeds
            && self.frontier_curve == other.frontier_curve
    }
}

/// What the iteration barrier enforces, besides the thread-installed
/// memory budget ([`budget::current`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Cooperative deadline; `None` never times out.
    pub deadline: Option<Instant>,
    /// Per-query iteration budget — a *resource* verdict
    /// ([`LimitError::Budget`]), checked before `max_iterations`.
    pub budget_iterations: Option<usize>,
    /// Engine-wide iteration guard: reaching it means the IFP is undefined
    /// (Definition 2.1), reported as [`LimitError::NoFixpoint`].
    pub max_iterations: usize,
    /// Per-query cap on any single accumulator, in nodes
    /// ([`LimitError::Budget`]).
    pub max_result_nodes: Option<usize>,
    /// Engine-wide accumulator guard ([`LimitError::NoFixpoint`]).
    pub max_nodes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            deadline: None,
            budget_iterations: None,
            max_iterations: 100_000,
            max_result_nodes: None,
            max_nodes: 50_000_000,
        }
    }
}

/// Why the barrier stopped a run.  Each back-end maps this to its own error
/// type in [`Body::limit_error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LimitError {
    /// The `fixpoint.barrier` failpoint fired.
    Fault(FaultError),
    /// The deadline passed.
    Deadline {
        /// Rounds completed when it was detected.
        iterations: usize,
    },
    /// A per-query budget is exhausted.
    Budget {
        /// `"iterations"`, `"result-nodes"` or `"memory"`.
        budget: &'static str,
        /// Usage when the check failed.
        used: u64,
        /// The configured limit.
        limit: u64,
        /// Rounds completed when it tripped.
        iterations: usize,
    },
    /// An engine-wide divergence guard tripped: the IFP is undefined.
    NoFixpoint {
        /// Rounds completed.
        iterations: usize,
        /// `"iteration"` or `"node"`.
        limit: &'static str,
    },
}

impl fmt::Display for LimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitError::Fault(fault) => fault.fmt(f),
            LimitError::Deadline { iterations } => {
                write!(f, "deadline exceeded after {iterations} iterations")
            }
            LimitError::Budget {
                budget,
                used,
                limit,
                iterations,
            } => write!(
                f,
                "{budget} budget exceeded ({used} used, limit {limit}) after {iterations} iterations"
            ),
            LimitError::NoFixpoint { iterations, limit } => {
                write!(f, "{limit} limit reached after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LimitError {}

/// A tagged group of nodes: what the driver hands a [`Body`].
pub type Group<'a> = (NodeId, &'a [NodeId]);

/// What a run is seeded by — the two shapes the engine has.
#[derive(Debug, Clone, Copy)]
pub enum Seeds<'a> {
    /// One fixpoint over the whole node set: a single source, whose tag is
    /// arbitrary (such runs use bodies that ignore tags).
    Set(&'a [NodeId]),
    /// One fixpoint per node (a *batch*): one source per node, tagged with
    /// it.  The nodes must be distinct.
    Each(&'a [NodeId]),
}

/// A recursion body `e_rec`, as one back-end evaluates it.
pub trait Body {
    /// The back-end's error type.
    type Error;

    /// Apply the body to each group's nodes and return the images,
    /// index-aligned with `groups`.
    ///
    /// Tags are distinct within one call and otherwise opaque: under
    /// [`BatchSharing::PerSeed`] they are the tags of the run's sources,
    /// under [`BatchSharing::DistinctNodes`] every group is `(n, [n])`, for
    /// a node `n` the run has not handed over before, and `groups` is never
    /// empty.  A
    /// body that carries tags through its evaluation (the relational
    /// seed-carried plan) may evaluate all groups at once; any other body
    /// evaluates group by group, in order.  Either way it runs on the
    /// caller thread.  The body adds what it actually evaluated to `stats`.
    fn images(
        &mut self,
        groups: &[Group<'_>],
        stats: &mut ExecStats,
    ) -> Result<Vec<Vec<NodeId>>, Self::Error>;

    /// The store whose document order the frontiers and results follow.
    fn store(&self) -> &NodeStore;

    /// Budget relief: drop recomputable memory that was charged to the
    /// budget — the interpreter's store memos, the executor's static
    /// tables — and return an estimate of the bytes freed.
    fn release_memory(&mut self) -> u64;

    /// Map a barrier verdict into the back-end's error type.
    fn limit_error(&self, error: LimitError) -> Self::Error;
}

/// The parameters of one [`run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    /// Feed `res` or feed `∆`.
    pub strategy: FixpointStrategy,
    /// The frontier representation.
    pub sharing: BatchSharing,
    /// `false`: start from `e_rec(e_seed)` (Definition 2.1).  `true`: start
    /// from the seed itself (the reading of the paper's Example 2.4).
    pub seed_in_result: bool,
    /// What the barrier enforces.
    pub limits: Limits,
}

/// Run one inflationary fixed point per source of `seeds`, returning the
/// results in document order, one per source, and the run's statistics
/// (also on failure, with what was counted until then).
pub fn run<B: Body>(
    body: &mut B,
    config: &Config,
    seeds: Seeds<'_>,
) -> (Result<Vec<Vec<NodeId>>, B::Error>, ExecStats) {
    let started = Instant::now();
    let batch_seeds = match seeds {
        Seeds::Set(_) => 0,
        Seeds::Each(seeds) => {
            debug_assert!(
                seeds.iter().collect::<crate::IdSet<_>>().len() == seeds.len(),
                "the seeds of a batch must be distinct"
            );
            seeds.len()
        }
    };
    let stats = ExecStats {
        batch_seeds,
        ..ExecStats::default()
    };
    let (result, mut stats) = match config.sharing {
        BatchSharing::PerSeed => Run::iterate(body, config, own_sources(seeds), stats),
        BatchSharing::DistinctNodes => Run::iterate(body, config, Shared::new(seeds), stats),
    };
    if let Ok(groups) = &result {
        stats.result_rows = groups.iter().map(Vec::len).sum();
    }
    stats.wall_micros = started.elapsed().as_micros() as u64;
    (result, stats)
}

/// Which fold of a run [`Sources::absorb`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// The first, from the seed itself (`seed_in_result`): each source's
    /// image is its own frontier.
    Seeds,
    /// The first, from `e_rec(e_seed)`.
    First,
    /// A later round's: a source whose `∆` is empty has converged.
    Round,
}

/// A run's sources in one frontier representation ([`BatchSharing`]).
trait Sources {
    /// `true` while some source still grows.
    fn any_active(&self) -> bool;

    /// The largest accumulator, in nodes.
    fn largest(&self) -> usize;

    /// Hand the body the active sources' frontiers, counting each one as
    /// fed back, and keep the images for [`absorb`](Self::absorb).
    fn feed<B: Body>(&mut self, body: &mut B, stats: &mut ExecStats) -> Result<(), B::Error>;

    /// Fold the images into the active sources:
    /// `∆ ← image except res; res ← ∆ union res`, then the next frontier is
    /// `res` (Naïve) or `∆` (Delta).
    fn absorb(&mut self, fold: Fold, strategy: FixpointStrategy, store: &NodeStore);

    /// Every source's result, in document order.
    fn results(&self, store: &NodeStore) -> Vec<Vec<NodeId>>;
}

/// One source's loop state under [`BatchSharing::PerSeed`].
struct Source {
    tag: NodeId,
    res: NodeSet,
    /// What the next body evaluation is fed.
    frontier: Vec<NodeId>,
    /// This source's own image of the current round.
    image: Vec<NodeId>,
    /// Cleared the round the source stops growing.
    active: bool,
}

/// The sources of a [`BatchSharing::PerSeed`] run.
fn own_sources(seeds: Seeds<'_>) -> Vec<Source> {
    let source = |tag, frontier| Source {
        tag,
        res: NodeSet::new(),
        frontier,
        image: Vec::new(),
        active: true,
    };
    match seeds {
        Seeds::Set(seed) => {
            let untagged = NodeId::new(u32::MAX, u32::MAX);
            vec![source(untagged, seed.to_vec())]
        }
        Seeds::Each(seeds) => seeds.iter().map(|&seed| source(seed, vec![seed])).collect(),
    }
}

impl Sources for Vec<Source> {
    fn any_active(&self) -> bool {
        self.iter().any(|s| s.active)
    }

    fn largest(&self) -> usize {
        self.iter().map(|s| s.res.len()).max().unwrap_or(0)
    }

    /// One group per active source: its tag and its own frontier.
    fn feed<B: Body>(&mut self, body: &mut B, stats: &mut ExecStats) -> Result<(), B::Error> {
        let active = || self.iter().filter(|s| s.active);
        stats.rows_fed_back += active().map(|s| s.frontier.len() as u64).sum::<u64>();
        let groups: Vec<Group<'_>> = active().map(|s| (s.tag, &s.frontier[..])).collect();
        let images = body.images(&groups, stats)?;
        for (source, image) in self.iter_mut().filter(|s| s.active).zip(images) {
            source.image = image;
        }
        Ok(())
    }

    fn absorb(&mut self, fold: Fold, strategy: FixpointStrategy, store: &NodeStore) {
        for source in self.iter_mut().filter(|s| s.active) {
            if fold == Fold::Seeds {
                source.image = std::mem::take(&mut source.frontier);
            }
            let mut delta = NodeSet::from_nodes(std::mem::take(&mut source.image));
            delta.except_in_place(&source.res);
            if delta.is_empty() && fold == Fold::Round {
                source.active = false;
                continue;
            }
            source.res.union_in_place(&delta);
            let next = match strategy {
                FixpointStrategy::Naive => &source.res,
                FixpointStrategy::Delta => &delta,
            };
            source.frontier = next.to_vec(store);
        }
    }

    fn results(&self, store: &NodeStore) -> Vec<Vec<NodeId>> {
        self.iter().map(|s| s.res.to_vec(store)).collect()
    }
}

/// The state of a [`BatchSharing::DistinctNodes`] run: every node it meets
/// has a dense run-local id, and its image, in local ids, once the body
/// has computed it — once per run, and read by every source in every round.
/// The sources are folded in [`Lane`]s of 64.
#[derive(Default)]
struct Shared {
    /// Local id → node.
    nodes: Vec<NodeId>,
    /// Node → local id.
    ids: IdMap<NodeId, u32>,
    /// Local id → the span of `flat` holding its image; `None` until the
    /// body has been handed the node.
    spans: Vec<Option<(u32, u32)>>,
    /// Every image, back to back.
    flat: Vec<u32>,
    lanes: Vec<Lane>,
}

/// Up to 64 sources of a shared run, one bit each — a multi-source
/// bit-parallel BFS (Then et al., PVLDB 2014): one `|=` advances every
/// source of the lane whose frontier holds a node.
struct Lane {
    /// Local id → the sources whose `res` holds it.
    seen: Vec<u64>,
    /// Local id → the sources whose image of this round holds it; all zero
    /// between folds.
    next: Vec<u64>,
    /// What the next round reads the images of: a node and the sources
    /// whose frontier holds it.
    frontier: Vec<(u32, u64)>,
    /// The local ids whose `next` word a fold has made non-zero; empty
    /// between folds.
    touched: Vec<u32>,
    /// The sources still growing.
    active: u64,
    /// Each source's result size.
    counts: Vec<usize>,
}

/// Bytes a lane keeps per node the run has met: `seen` and `next`.
const LANE_BYTES_PER_NODE: u64 = 16;

/// Bytes the run keeps per node it has met, besides the lanes: `nodes`,
/// `spans` and the `ids` entry.
const SHARED_BYTES_PER_NODE: u64 = 32;

impl Lane {
    /// A lane of `width` (1 ..= 64) sources, all active.
    fn new(width: usize, frontier: Vec<(u32, u64)>) -> Self {
        Lane {
            seen: Vec::new(),
            next: Vec::new(),
            frontier,
            touched: Vec::new(),
            active: u64::MAX >> (64 - width),
            counts: vec![0; width],
        }
    }

    /// One fold: `next[m] |= bits` over the frontier's images, then `∆ ←
    /// next except seen; seen ← seen union ∆`, a word at a time.
    fn fold<'i>(
        &mut self,
        fold: Fold,
        strategy: FixpointStrategy,
        met: usize,
        image: impl Fn(u32) -> &'i [u32],
    ) {
        let Lane {
            seen,
            next,
            frontier,
            touched,
            active,
            counts,
        } = self;
        if seen.len() < met {
            budget::charge((met - seen.len()) as u64 * LANE_BYTES_PER_NODE);
            seen.resize(met, 0);
            next.resize(met, 0);
        }
        for &(v, bits) in frontier.iter() {
            let image = match fold {
                Fold::Seeds => std::slice::from_ref(&v),
                Fold::First | Fold::Round => image(v),
            };
            for &m in image {
                let slot = &mut next[m as usize];
                if *slot == 0 {
                    touched.push(m);
                }
                *slot |= bits;
            }
        }
        frontier.clear();
        let mut grew = 0;
        for m in touched.drain(..) {
            let fresh = std::mem::take(&mut next[m as usize]) & !seen[m as usize];
            if fresh == 0 {
                continue;
            }
            seen[m as usize] |= fresh;
            grew |= fresh;
            let mut bits = fresh;
            while bits != 0 {
                counts[bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
            if strategy == FixpointStrategy::Delta {
                frontier.push((m, fresh));
            }
        }
        if fold == Fold::Round {
            *active &= grew;
        }
        if strategy == FixpointStrategy::Naive {
            let active = *active;
            frontier.extend(
                (seen.iter().enumerate())
                    .filter(|(_, &bits)| bits & active != 0)
                    .map(|(v, &bits)| (v as u32, bits & active)),
            );
        }
    }

    /// Each source's result: the nodes of `order` (every local id, in
    /// document order) whose bit it has set.
    fn results(&self, order: &[u32], nodes: &[NodeId]) -> Vec<Vec<NodeId>> {
        let mut results: Vec<Vec<NodeId>> =
            self.counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        for &id in order {
            // The nodes met in the last images were never folded.
            let mut bits = self.seen.get(id as usize).copied().unwrap_or(0);
            while bits != 0 {
                results[bits.trailing_zeros() as usize].push(nodes[id as usize]);
                bits &= bits - 1;
            }
        }
        results
    }
}

impl Shared {
    fn new(seeds: Seeds<'_>) -> Self {
        let mut shared = Shared::default();
        let lanes = match seeds {
            Seeds::Set(seed) => {
                let frontier = seed.iter().map(|&n| (shared.id(n), 1)).collect();
                vec![Lane::new(1, frontier)]
            }
            Seeds::Each(seeds) => (seeds.chunks(64))
                .map(|chunk| {
                    let frontier = (chunk.iter().enumerate())
                        .map(|(j, &n)| (shared.id(n), 1 << j))
                        .collect();
                    Lane::new(chunk.len(), frontier)
                })
                .collect(),
        };
        shared.lanes = lanes;
        shared
    }

    /// The local id of `node`, assigned (and charged) on first sight.
    fn id(&mut self, node: NodeId) -> u32 {
        *self.ids.entry(node).or_insert_with(|| {
            budget::charge(SHARED_BYTES_PER_NODE);
            self.nodes.push(node);
            self.spans.push(None);
            (self.nodes.len() - 1) as u32
        })
    }
}

impl Sources for Shared {
    fn any_active(&self) -> bool {
        self.lanes.iter().any(|lane| lane.active != 0)
    }

    fn largest(&self) -> usize {
        let counts = self.lanes.iter().flat_map(|lane| &lane.counts);
        counts.copied().max().unwrap_or(0)
    }

    /// One group per frontier node that has no image yet, in
    /// first-appearance order; no call at all when there is none.  Each
    /// source is counted as fed its own frontier: a node once per bit.
    fn feed<B: Body>(&mut self, body: &mut B, stats: &mut ExecStats) -> Result<(), B::Error> {
        let mut fresh = Vec::new();
        for &(id, bits) in self.lanes.iter().flat_map(|lane| &lane.frontier) {
            stats.rows_fed_back += u64::from(bits.count_ones());
            let span = &mut self.spans[id as usize];
            if span.is_none() {
                // Claimed; the image lands below.
                *span = Some((0, 0));
                fresh.push(id);
            }
        }
        if fresh.is_empty() {
            return Ok(());
        }
        let groups: Vec<Group<'_>> = fresh
            .iter()
            .map(|&id| {
                let node = &self.nodes[id as usize];
                (*node, std::slice::from_ref(node))
            })
            .collect();
        let images = body.images(&groups, stats)?;
        let flat = self.flat.len();
        for (id, image) in fresh.into_iter().zip(images) {
            let start = self.flat.len() as u32;
            for node in image {
                let local = self.id(node);
                self.flat.push(local);
            }
            self.spans[id as usize] = Some((start, self.flat.len() as u32));
        }
        budget::charge(((self.flat.len() - flat) * std::mem::size_of::<u32>()) as u64);
        Ok(())
    }

    /// One [`Lane::fold`] per active lane.
    fn absorb(&mut self, fold: Fold, strategy: FixpointStrategy, _: &NodeStore) {
        let Shared {
            nodes,
            spans,
            flat,
            lanes,
            ..
        } = self;
        let image = |id: u32| match spans[id as usize] {
            Some((start, end)) => &flat[start as usize..end as usize],
            None => unreachable!("a frontier node is fed before it is folded"),
        };
        for lane in lanes.iter_mut().filter(|lane| lane.active != 0) {
            lane.fold(fold, strategy, nodes.len(), image);
        }
    }

    /// The run's nodes sorted into document order once; each lane reads
    /// its sources' results off that order.
    fn results(&self, store: &NodeStore) -> Vec<Vec<NodeId>> {
        let mut sorted = self.nodes.clone();
        store.sort_distinct(&mut sorted);
        let order: Vec<u32> = sorted.iter().map(|node| self.ids[node]).collect();
        self.lanes
            .iter()
            .flat_map(|lane| lane.results(&order, &self.nodes))
            .collect()
    }
}

/// The state of one [`run`].
struct Run<'a, B, S> {
    body: &'a mut B,
    config: &'a Config,
    budget: Option<std::sync::Arc<QueryBudget>>,
    sources: S,
    stats: ExecStats,
}

impl<'a, B: Body, S: Sources> Run<'a, B, S> {
    /// Run `sources` to their fixed points, returning their results and
    /// the run's statistics.
    fn iterate(
        body: &'a mut B,
        config: &'a Config,
        sources: S,
        stats: ExecStats,
    ) -> (Result<Vec<Vec<NodeId>>, B::Error>, ExecStats) {
        let mut run = Run {
            body,
            config,
            budget: budget::current(),
            sources,
            stats,
        };
        let result = run.figure_3();
        (result, run.stats)
    }

    /// Figure 3, line by line.
    fn figure_3(&mut self) -> Result<Vec<Vec<NodeId>>, B::Error> {
        if !self.sources.any_active() {
            // Zero sources are zero fixpoints: the body is never evaluated.
            return Ok(Vec::new());
        }
        let strategy = self.config.strategy;
        // res ← e_rec(e_seed); ∆ ← res — or both ← e_seed.
        let first = if self.config.seed_in_result {
            Fold::Seeds
        } else {
            self.sources.feed(self.body, &mut self.stats)?;
            Fold::First
        };
        self.sources.absorb(first, strategy, self.body.store());
        // do … while res grows
        while self.sources.any_active() {
            self.barrier()
                .map_err(|error| self.body.limit_error(error))?;
            self.stats.iterations += 1;
            // e_rec(res) resp. e_rec(∆) …
            self.sources.feed(self.body, &mut self.stats)?;
            // … except res; union res
            self.sources
                .absorb(Fold::Round, strategy, self.body.store());
        }
        Ok(self.sources.results(self.body.store()))
    }

    /// The iteration barrier, checked before every round: failpoint,
    /// deadline, iteration budget, iteration guard, result-size budget, node
    /// guard, memory budget.  On the first memory breach the run *degrades*
    /// instead of failing — the body drops its recomputable memory and the
    /// freed estimate is credited back — only a re-breach after relief is
    /// fatal.
    fn barrier(&mut self) -> Result<(), LimitError> {
        let limits = &self.config.limits;
        let iterations = self.stats.iterations;
        let largest = self.sources.largest();
        fail::point("fixpoint.barrier").map_err(LimitError::Fault)?;
        if limits
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return Err(LimitError::Deadline { iterations });
        }
        let exceeded = |budget, used: usize, limit: usize| LimitError::Budget {
            budget,
            used: used as u64,
            limit: limit as u64,
            iterations,
        };
        match limits.budget_iterations {
            Some(max) if iterations >= max => return Err(exceeded("iterations", iterations, max)),
            _ => {}
        }
        if iterations >= limits.max_iterations {
            let limit = "iteration";
            return Err(LimitError::NoFixpoint { iterations, limit });
        }
        match limits.max_result_nodes {
            Some(max) if largest > max => return Err(exceeded("result-nodes", largest, max)),
            _ => {}
        }
        if largest > limits.max_nodes {
            let limit = "node";
            return Err(LimitError::NoFixpoint { iterations, limit });
        }
        if let Some(budget) = &self.budget {
            if budget.over_limit().is_some() && budget.try_relieve() {
                budget.credit(self.body.release_memory());
            }
            if let Some(used) = budget.over_limit() {
                return Err(LimitError::Budget {
                    budget: "memory",
                    used,
                    limit: budget.limit(),
                    iterations,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Axis, NodeTest};

    /// A toy body over a parsed document: the elements one `axis` step
    /// (by default, child) from the group's nodes — or, as `guard`ed, the
    /// body of the paper's Example 2.4, `if (count($x/self::a)) then $x/*
    /// else ()`, which is not distributive.  Counts one evaluation per
    /// group, like the interpreter.
    struct Children<'a> {
        store: &'a NodeStore,
        axis: Axis,
        guard: bool,
        /// What `release_memory` claims to free.
        releases: u64,
    }

    impl<'a> Children<'a> {
        fn new(store: &'a NodeStore) -> Self {
            Children {
                store,
                axis: Axis::Child,
                guard: false,
                releases: 0,
            }
        }
    }

    impl Body for Children<'_> {
        type Error = LimitError;

        fn images(
            &mut self,
            groups: &[Group<'_>],
            stats: &mut ExecStats,
        ) -> Result<Vec<Vec<NodeId>>, LimitError> {
            let is_a = |n: &NodeId| self.store.name(*n).is_some_and(|q| q.local == "a");
            Ok(groups
                .iter()
                .map(|&(_, nodes)| {
                    stats.frontier_curve.push(nodes.len() as u64);
                    stats.body_evaluations += 1;
                    if self.guard && !nodes.iter().any(is_a) {
                        return Vec::new();
                    }
                    nodes
                        .iter()
                        .flat_map(|&n| self.store.axis_nodes(n, self.axis, &NodeTest::AnyElement))
                        .collect()
                })
                .collect())
        }

        fn store(&self) -> &NodeStore {
            self.store
        }

        fn release_memory(&mut self) -> u64 {
            self.releases
        }

        fn limit_error(&self, error: LimitError) -> LimitError {
            error
        }
    }

    /// `<r>` with a three-level subtree, a two-level one and a leaf.
    fn tree() -> (NodeStore, Vec<NodeId>) {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<r><a><b><c/><c/></b><b/></a><d><e/></d><f/></r>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        let tops = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement);
        (store, tops)
    }

    fn config(strategy: FixpointStrategy, sharing: BatchSharing) -> Config {
        Config {
            strategy,
            sharing,
            ..Config::default()
        }
    }

    fn run_ok(
        store: &NodeStore,
        config: &Config,
        seeds: Seeds<'_>,
    ) -> (Vec<Vec<NodeId>>, ExecStats) {
        let (result, stats) = run(&mut Children::new(store), config, seeds);
        (result.unwrap(), stats)
    }

    use BatchSharing::{DistinctNodes, PerSeed};
    use FixpointStrategy::{Delta, Naive};

    #[test]
    fn naive_and_delta_agree_on_a_distributive_body() {
        let (store, tops) = tree();
        let root = store.document_element(crate::DocId(0)).unwrap();
        let (naive, naive_stats) = run_ok(&store, &config(Naive, PerSeed), Seeds::Set(&[root]));
        let (delta, delta_stats) = run_ok(&store, &config(Delta, PerSeed), Seeds::Set(&[root]));
        assert_eq!(naive, delta);
        // Definition 2.1: the seed itself is not part of the result.
        assert_eq!(naive[0].len(), 8);
        assert_eq!(naive[0][0], tops[0]);
        // res₀ = 3 tops; three rounds find 3, 2 and 0 new nodes.
        assert_eq!(naive_stats.iterations, 3);
        assert_eq!(delta_stats.iterations, 3);
        assert_eq!(naive_stats.frontier_curve, [1, 3, 6, 8]);
        assert_eq!(delta_stats.frontier_curve, [1, 3, 3, 2]);
        assert_eq!(delta_stats.rows_fed_back, 9);
        assert_eq!(delta_stats.result_rows, 8);
        assert_eq!(delta_stats.batch_seeds, 0);
    }

    #[test]
    fn naive_and_delta_differ_on_example_2_4() {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document("<r><a/><b><c><d/></c></b></r>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        let seed = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement);
        let mut results = Vec::new();
        for strategy in [Naive, Delta] {
            let config = Config {
                seed_in_result: true,
                ..config(strategy, PerSeed)
            };
            let mut body = Children::new(&store);
            body.guard = true;
            let (result, stats) = run(&mut body, &config, Seeds::Set(&seed));
            results.push((result.unwrap().remove(0).len(), stats.iterations));
        }
        // The paper's table: Naïve reaches (a, b, c, d) and stabilises at
        // iteration 3; Delta stops at (a, b, c) after iteration 2.
        assert_eq!(results, [(4, 3), (3, 2)]);
    }

    #[test]
    fn a_batch_is_its_seeds_run_one_by_one() {
        let (store, tops) = tree();
        for strategy in [Naive, Delta] {
            let config = config(strategy, PerSeed);
            let (batch, batch_stats) = run_ok(&store, &config, Seeds::Each(&tops));
            let mut singles = ExecStats::default();
            for (seed, expected) in tops.iter().zip(&batch) {
                let (single, stats) = run_ok(&store, &config, Seeds::Each(&[*seed]));
                assert_eq!(&single[0], expected);
                // … and a batch of one is the single-source run.
                let (set, set_stats) = run_ok(&store, &config, Seeds::Set(&[*seed]));
                assert_eq!(set, single);
                assert_eq!(set_stats.frontier_curve, stats.frontier_curve);
                singles.iterations = singles.iterations.max(stats.iterations);
                singles.rows_fed_back += stats.rows_fed_back;
                singles.body_evaluations += stats.body_evaluations;
                singles.result_rows += stats.result_rows;
            }
            assert_eq!(batch_stats.batch_seeds, 3);
            assert_eq!(batch_stats.iterations, singles.iterations);
            assert_eq!(batch_stats.rows_fed_back, singles.rows_fed_back);
            assert_eq!(batch_stats.body_evaluations, singles.body_evaluations);
            assert_eq!(batch_stats.result_rows, singles.result_rows);
        }
    }

    #[test]
    fn frontier_representation_does_not_change_the_answer() {
        // Ancestors of the leaves: the leaves' frontiers overlap.
        let (store, _) = tree();
        let root = store.document_element(crate::DocId(0)).unwrap();
        let mut leaves = store.axis_nodes(root, Axis::Descendant, &NodeTest::AnyElement);
        leaves.retain(|&n| store.children(n).is_empty());
        assert_eq!(leaves.len(), 5);
        let run_up = |config: &Config| {
            let mut body = Children::new(&store);
            body.axis = Axis::Parent;
            let (result, stats) = run(&mut body, config, Seeds::Each(&leaves));
            (result.unwrap(), stats)
        };
        for strategy in [Naive, Delta] {
            let (expected, expected_stats) = run_up(&config(strategy, PerSeed));
            // The first leaf is a `c`: ancestors r, a, b in document order.
            assert_eq!((expected[0].len(), expected[0][0]), (3, root));
            // The nodes the run meets: the leaves and their ancestors r, a,
            // b, d — nine, against 16 evaluations per seed.
            let met: crate::IdSet<NodeId> = leaves
                .iter()
                .chain(expected.iter().flatten())
                .copied()
                .collect();
            assert_eq!((met.len(), expected_stats.body_evaluations), (9, 16));
            let (shared, shared_stats) = run_up(&config(strategy, DistinctNodes));
            assert_eq!(shared, expected);
            assert_eq!(shared_stats.iterations, expected_stats.iterations);
            // Every source is fed its own frontier, so the Figure-3 count
            // is the per-seed one; the body is handed each node the run
            // meets exactly once.
            assert_eq!(shared_stats.rows_fed_back, expected_stats.rows_fed_back);
            assert_eq!(shared_stats.body_evaluations, met.len());
            assert_eq!(shared_stats.frontier_curve, vec![1; met.len()]);
        }
        assert!(run_ok(&store, &Config::default(), Seeds::Each(&[]))
            .0
            .is_empty());
    }

    /// 40 `a`s, each over a three-level chain, every third one also over a
    /// leaf `e`; the seeds are every element, the root last — whose parent
    /// is no element, so its first image is empty.  175 seeds are two full
    /// lanes and a partial third.
    fn forest() -> (NodeStore, Vec<NodeId>) {
        let mut store = NodeStore::new();
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str("<a><b><c><d/></c></b>");
            if i % 3 == 0 {
                xml.push_str("<e/>");
            }
            xml.push_str("</a>");
        }
        xml.push_str("</r>");
        let doc = store.parse_document(&xml).unwrap();
        let root = store.document_element(doc).unwrap();
        let mut seeds = store.axis_nodes(root, Axis::Descendant, &NodeTest::AnyElement);
        seeds.push(root);
        assert_eq!((seeds.len(), seeds.len() / 64), (175, 2));
        (store, seeds)
    }

    #[test]
    fn lanes_of_64_fold_like_the_seeds_one_by_one() {
        let (store, seeds) = forest();
        for axis in [Axis::Child, Axis::Parent] {
            let go = |config: &Config| {
                let mut body = Children::new(&store);
                body.axis = axis;
                let (result, stats) = run(&mut body, config, Seeds::Each(&seeds));
                (result.unwrap(), stats)
            };
            for strategy in [Naive, Delta] {
                for seed_in_result in [false, true] {
                    let at = |sharing| Config {
                        seed_in_result,
                        ..config(strategy, sharing)
                    };
                    let (expected, expected_stats) = go(&at(PerSeed));
                    let (result, stats) = go(&at(DistinctNodes));
                    let case = (axis, strategy, seed_in_result);
                    assert_eq!(result, expected, "{case:?}");
                    assert_eq!(stats.rows_fed_back, expected_stats.rows_fed_back);
                    assert_eq!(stats.iterations, expected_stats.iterations);
                    assert_eq!(stats.result_rows, expected_stats.result_rows);
                }
            }
        }
    }

    #[test]
    fn a_shared_run_charges_its_lanes_to_the_memory_budget() {
        // The toy body charges nothing: what the budget sees is the run's
        // own state.
        let (store, seeds) = forest();
        let config = config(Delta, DistinctNodes);
        let metered = |limit| {
            let budget = QueryBudget::new(limit);
            let (result, _) = {
                let _scope = budget::install(budget.clone());
                run(&mut Children::new(&store), &config, Seeds::Each(&seeds))
            };
            (result, budget.used())
        };
        // Every node the run meets is a seed; each of the three lanes keeps
        // 16 bytes a node.
        let (result, used) = metered(u64::MAX);
        assert!(result.is_ok());
        assert!(
            used >= 3 * LANE_BYTES_PER_NODE * seeds.len() as u64,
            "{used}"
        );
        // Under a small budget: a typed error at the first barrier, after
        // relief has found nothing to free.
        let (result, _) = metered(used / 4);
        assert!(matches!(
            result,
            Err(LimitError::Budget {
                budget: "memory",
                iterations: 0,
                ..
            })
        ));
    }

    #[test]
    fn seed_in_result_is_the_same_under_either_representation() {
        let (store, tops) = tree();
        for strategy in [Naive, Delta] {
            let seeded = |sharing| Config {
                seed_in_result: true,
                ..config(strategy, sharing)
            };
            let (expected, expected_stats) = run_ok(&store, &seeded(PerSeed), Seeds::Each(&tops));
            // Each seed is part of its own result, ahead of its subtree.
            assert!(expected.iter().zip(&tops).all(|(r, seed)| r[0] == *seed));
            let (shared, shared_stats) = run_ok(&store, &seeded(DistinctNodes), Seeds::Each(&tops));
            assert_eq!(shared, expected);
            assert_eq!(shared_stats.iterations, expected_stats.iterations);
            assert_eq!(shared_stats.rows_fed_back, expected_stats.rows_fed_back);
            assert_eq!(shared_stats.result_rows, expected_stats.result_rows);
        }
    }

    #[test]
    fn results_over_two_documents_come_back_in_document_order() {
        // Seeds from the later document first, and each document's nodes
        // late in document order first: local ids follow first sight, so
        // only the final sort puts the results in order.
        let mut store = NodeStore::new();
        let mut roots = Vec::new();
        for xml in ["<r><a><b/></a><c/></r>", "<s><d/><e><f/></e></s>"] {
            let doc = store.parse_document(xml).unwrap();
            roots.push(store.document_element(doc).unwrap());
        }
        let mut seeds = store.axis_nodes(roots[1], Axis::Descendant, &NodeTest::AnyElement);
        seeds.extend(store.axis_nodes(roots[0], Axis::Descendant, &NodeTest::AnyElement));
        seeds.reverse();
        let ordered = |nodes: &[NodeId]| {
            nodes
                .windows(2)
                .all(|w| store.doc_order(w[0], w[1]).is_lt())
        };
        let up = |config: &Config, seeds| {
            let mut body = Children::new(&store);
            body.axis = Axis::Ancestor;
            let (result, stats) = run(&mut body, config, seeds);
            (result.unwrap(), stats)
        };
        for strategy in [Naive, Delta] {
            let (expected, _) = up(&config(strategy, PerSeed), Seeds::Each(&seeds));
            let (shared, _) = up(&config(strategy, DistinctNodes), Seeds::Each(&seeds));
            assert_eq!(shared, expected);
            assert!(shared.iter().all(|r| ordered(r)));
            // One source over both documents: its result (r, a, s, e)
            // spans them.
            let (set, _) = up(&config(strategy, DistinctNodes), Seeds::Set(&seeds));
            assert_eq!(set[0].len(), 4);
            assert!(ordered(&set[0]));
            assert_eq!((set[0][0], set[0][2]), (roots[0], roots[1]));
        }
    }

    #[test]
    fn each_limit_stops_the_run_at_its_round() {
        let (store, tops) = tree();
        // Under either representation the result-nodes budget reads each
        // source's own count, not the nodes the run has met.
        for sharing in [PerSeed, DistinctNodes] {
            let stopped = |limits: Limits| {
                let config = Config {
                    limits,
                    ..config(Delta, sharing)
                };
                let (result, stats) = run(&mut Children::new(&store), &config, Seeds::Each(&tops));
                (result.unwrap_err(), stats.iterations)
            };
            let unlimited = Limits::default();
            // The deepest seed needs two rounds; its accumulator holds 2 and 4
            // nodes at the barriers before them.
            let past = Instant::now();
            assert_eq!(
                stopped(Limits {
                    deadline: Some(past),
                    ..unlimited
                }),
                (LimitError::Deadline { iterations: 0 }, 0)
            );
            let budget = |budget, used, limit, iterations| LimitError::Budget {
                budget,
                used,
                limit,
                iterations,
            };
            assert_eq!(
                stopped(Limits {
                    budget_iterations: Some(1),
                    ..unlimited
                }),
                (budget("iterations", 1, 1, 1), 1)
            );
            assert_eq!(
                stopped(Limits {
                    max_iterations: 1,
                    budget_iterations: Some(2),
                    ..unlimited
                })
                .0,
                LimitError::NoFixpoint {
                    iterations: 1,
                    limit: "iteration"
                }
            );
            assert_eq!(
                stopped(Limits {
                    max_result_nodes: Some(3),
                    ..unlimited
                }),
                (budget("result-nodes", 4, 3, 1), 1)
            );
            assert_eq!(
                stopped(Limits {
                    max_nodes: 1,
                    max_result_nodes: Some(1),
                    ..unlimited
                })
                .0,
                budget("result-nodes", 2, 1, 0)
            );
            assert_eq!(
                stopped(Limits {
                    max_nodes: 1,
                    ..unlimited
                })
                .0,
                LimitError::NoFixpoint {
                    iterations: 0,
                    limit: "node"
                }
            );
            // Generous limits change nothing.
            let limits = Limits {
                budget_iterations: Some(2),
                max_result_nodes: Some(4),
                ..unlimited
            };
            let config = Config {
                limits,
                ..config(Delta, sharing)
            };
            assert_eq!(run_ok(&store, &config, Seeds::Each(&tops)).1.iterations, 2);
        }
    }

    #[test]
    fn memory_relief_is_granted_once() {
        let (store, tops) = tree();
        let config = config(Delta, PerSeed);
        let over_budget = || {
            let budget = QueryBudget::new(100);
            budget.charge(150);
            budget
        };

        // Relief that frees enough: the run completes with the unbudgeted
        // answer.
        let budget = over_budget();
        let mut body = Children::new(&store);
        body.releases = 60;
        let (result, stats) = {
            let _scope = budget::install(budget.clone());
            run(&mut body, &config, Seeds::Each(&tops))
        };
        assert_eq!(
            result.unwrap(),
            run_ok(&store, &config, Seeds::Each(&tops)).0
        );
        assert!(budget.relieved());
        assert_eq!(budget.used(), 90);
        assert_eq!(stats.iterations, 2);

        // Relief that does not: a typed error at that same barrier.
        let budget = over_budget();
        let mut body = Children::new(&store);
        body.releases = 10;
        let (result, _) = {
            let _scope = budget::install(budget.clone());
            run(&mut body, &config, Seeds::Each(&tops))
        };
        let error = LimitError::Budget {
            budget: "memory",
            used: 140,
            limit: 100,
            iterations: 0,
        };
        assert_eq!(result.unwrap_err(), error);
    }
}
