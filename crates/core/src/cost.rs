//! Cost-based plan selection for IFP occurrences (PR 9).
//!
//! Under the `Auto` knobs ([`Backend::Auto`](crate::Backend) /
//! [`Strategy::Auto`](crate::Strategy)) an IFP occurrence can run at any
//! point of the plan grid
//!
//! ```text
//! {Naïve, Delta} × {source-level, algebraic} × {per-seed, batched}
//! ```
//!
//! (restricted by soundness — Delta needs a distributivity certificate —
//! and by capability — the algebraic routes need a compiled plan).  Earlier
//! revisions picked a point statically: Delta whenever distributive,
//! algebraic whenever compiled, batched whenever a seed-carried plan
//! existed.  Those defaults are right *most* of the time, which is exactly
//! the problem: Table 2 of the paper shows the ranking between the cells
//! flipping with the workload (recursion depth, result size) and the scale
//! of the data.
//!
//! This module replaces the static defaults with a small cost model:
//!
//! 1. **Statistics** — [`StoreStatistics`] summarizes the store (node
//!    counts, average fanout, depth, ID-index density) and is memoized per
//!    revision; [`OccurrenceFeatures`] summarizes the occurrence (the
//!    distributivity verdict, body size, constructor presence, `id()`
//!    usage).
//! 2. **Estimation** — [`static_params`] turns the two into workload
//!    parameters: the expected iteration count and per-seed result size.
//! 3. **Costing** — [`cost`] prices every [`PlanAlternative`] in abstract
//!    microseconds; [`decide`] picks the cheapest candidate.
//! 4. **Feedback** — a per-occurrence [`FeedbackCell`] is handed the real
//!    [`FixpointStats`] of every finished execution's runs (iterations,
//!    result size, wall time).  The next [`decide`] re-costs the grid with
//!    *observed* parameters, and once the model's champion has itself been measured,
//!    measured wall times settle the ranking.  The cell is keyed on the
//!    statistics [fingerprint](StoreStatistics::fingerprint): when the data
//!    materially changes, the observations are discarded and selection
//!    falls back to the static estimate.
//!
//! The decision made for each occurrence is reported per execution in
//! [`OccurrencePlan`](crate::OccurrencePlan): the chosen alternative, who
//! chose it ([`DecisionSource`]), and the estimated vs. observed cost.

use std::sync::{Mutex, PoisonError};

use xqy_eval::{FixpointBackendTag, FixpointStats, FixpointStrategy};
use xqy_xdm::StoreStatistics;

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

impl PlanAlternative {
    /// A compact display name, e.g. `delta/algebraic/batched`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            match self.strategy {
                FixpointStrategy::Naive => "naive",
                FixpointStrategy::Delta => "delta",
            },
            match self.backend {
                FixpointBackendTag::Interpreted => "source-level",
                FixpointBackendTag::Algebraic => "algebraic",
            },
            if self.batched { "batched" } else { "per-seed" },
        )
    }
}

/// Who settled an occurrence's plan for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionSource {
    /// The knobs left a single candidate (forced strategy *and* backend,
    /// or an occurrence with only one sound/capable alternative).
    Forced,
    /// The static cost model chose among several candidates using store
    /// statistics alone — no observations were available.
    Estimated,
    /// Observed statistics from earlier runs on the *same* data (same
    /// statistics fingerprint) corrected the estimate.
    Adapted,
}

/// Static, store-independent features of one IFP occurrence, extracted at
/// prepare time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccurrenceFeatures {
    /// Either distributivity approximation certified the body, so Delta is
    /// sound (and the batched drivers may share frontier evaluations).
    pub distributive: bool,
    /// The body compiled into the algebraic subset.
    pub algebraic: bool,
    /// A seed-carried batched plan exists (implies `algebraic`).
    pub batch_capable: bool,
    /// The body performs `fn:id(·)` lookups: recursion hops along ID edges,
    /// so tree depth does **not** bound the iteration count.
    pub uses_id: bool,
    /// The body contains node constructors (fresh identities per call).
    pub constructs: bool,
    /// AST size of the recursion body, a proxy for per-node evaluation
    /// work.
    pub body_size: usize,
}

/// Workload parameters an alternative is priced under: either estimated
/// from [`StoreStatistics`] or corrected by a [`FeedbackCell`] observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Expected fixpoint iterations until stabilization.
    pub depth: f64,
    /// Expected result size per seed (nodes in the closure).
    pub result: f64,
    /// Seeds of the call: 1 for `execute`, the seed-set size for
    /// `execute_batched`.
    pub seeds: f64,
    /// Total nodes in the store, capping how many *distinct* frontier
    /// nodes a shared batched run can ever touch.
    pub store_nodes: f64,
}

/// Estimate workload parameters from store statistics alone.
///
/// The iteration count is modeled as the depth at which a
/// fanout-`F` expansion exhausts the store: `log_F(N)`.  High fanout
/// therefore predicts a *shallow* recursion — the misprediction the
/// feedback loop exists to correct (a deep chain hanging off a wide root
/// looks shallow to this estimate).  For purely structural bodies the tree
/// depth bounds the iterations and clamps the estimate; `id()`-using
/// bodies hop across the tree, so no such bound applies.  On an empty or
/// near-empty store (queries over constructed data) a moderate default
/// depth keeps Delta the distributive default.
pub fn static_params(
    stats: &StoreStatistics,
    features: &OccurrenceFeatures,
    seeds: f64,
) -> CostParams {
    let n = stats.totals.nodes.max(1) as f64;
    let fanout = stats.avg_fanout().max(1.25);
    let mut depth = if stats.totals.nodes <= 1 {
        4.0
    } else {
        (n.ln() / fanout.ln()).clamp(1.0, 64.0)
    };
    if !features.uses_id && stats.totals.max_depth > 0 {
        depth = depth.min(stats.totals.max_depth as f64 + 1.0);
    }
    let result = (fanout * depth).min(n).max(1.0);
    CostParams {
        depth,
        result,
        seeds: seeds.max(1.0),
        store_nodes: n,
    }
}

/// Price one alternative under `params`, in abstract microseconds.
///
/// The formulas capture the first-order terms of each route:
///
/// * **Naïve vs. Delta** — Naïve re-feeds the whole growing accumulator
///   every iteration (`I × R/2` body inputs), Delta feeds each discovered
///   node once (`R + I`).  Naïve wins only when the recursion is very
///   shallow (estimated depth below ~2), where Delta's per-iteration
///   difference bookkeeping has nothing to amortize against.
/// * **Source-level vs. algebraic** — since path steps run once per focus
///   *set* the interpreter is the cheaper of the two per fed node as well
///   as per iteration and per run (constants below), so a per-seed loop
///   goes to the interpreter whenever both are available; the interesting
///   choice is batched:
/// * **Batched** — over a distributive body the driver hands each distinct
///   node to the body once per run on either back-end, and folds the seeds
///   64 to a word, a lane at a time.  The interpreter evaluates a handed node as
///   one body call on a singleton; the executor evaluates a round's new
///   nodes in one call.  So the executor wins when rounds are few against
///   distinct nodes (a wide batch, no per-node call overhead), and the
///   interpreter when each round meets only a node or two (a deep, narrow
///   walk, where a set call buys nothing).  A batched run can always
///   degenerate to the grouped per-seed loop (sharing only setup), so its
///   static cost is capped just below the per-seed loop's.
///
/// # Calibration
///
/// The constants were re-derived after the interpreter's path steps became
/// set-at-a-time, from Delta runs of the Table-2 bodies (release build, µs,
/// best of seven; the ledger reports the same quantities as
/// `eval.ns_per_fed_node`, `algebra.ns_per_fed_row`,
/// `eval.fixpoint_batched_ms`, `algebra.fixpoint_batched_ms`):
///
/// | cell (runs, body calls, nodes fed) | source | algebraic |
/// |---|---|---|
/// | hospital S, one run (1, 5, 1 227) | 138 | 196 |
/// | hospital L, one run (1, 5, 29 176) | 6 362 | 9 194 |
/// | dialogs M per seed (145, 860, 840) | 645 | 1 043 |
/// | curriculum S per seed (104, 1 656, 3 514) | 1 386 | 4 463 |
/// | curriculum M per seed (816, 26 659, 229 434) | 50 868 | 151 835 |
/// | bidders M per seed (400, 2 747, 133 462) | 95 695 | 123 912 |
/// | hospital S per patient, batched (422 seeds, depth 4) | 813–823 | 511–533 |
/// | bidders S batched (120 seeds, depth 9) | 261–282 | 231–247 |
/// | curriculum S batched (104 seeds, depth 21) | 107–110 | 88–94 |
/// | curriculum M batched (816 seeds, depth 49) | 3 195–3 326 | 2 223–3 067 |
/// | chain of 120, two seeds, batched (depth 120) | 82–83 | 277–288 |
///
/// The batched rows are three runs of best of nine on a 2-core host,
/// measured once the driver folded its seeds in lanes of 64; the same
/// runs of the per-seed fold before it read 910–934 / 660–671, 814–853 /
/// 795–800, 231–245 / 242–255, 9 779–10 252 / 10 054–11 448 and 94–101 /
/// 297–299: the fold was most of every wide batch.
///
/// * *Per fed node.*  The single-run hospital cells are all per-node work:
///   0.11–0.22 µs in the interpreter against 0.16–0.32 in the executor, a
///   ratio of 0.63–0.70 at `body_scale` 1.25.  The executor keeps its
///   `0.12`; the interpreter's constant is `0.08` (it was `0.6`, five times
///   the executor's, when every focus node paid its own `Focus`, `ddo` and
///   string-keyed `id()` probe).
/// * *Per iteration, per run.*  Dialogs feeds one node per call, so its
///   4.4 µs (source) and 7.2 µs (algebraic) per six-call run bound these
///   from above; `0.5`/`1.0` and `0.8`/`2.5` fit and are unchanged.
/// * *No per-run term in the store size.*  The same dialogs runs sit on a
///   5 930-node store: the former `0.003·N` (source) and `0.002·N`
///   (algebraic) "scan" terms alone priced a run at 17.8 and 11.9 µs, more
///   than the whole run takes, and by their 3:2 ratio decided every
///   per-seed cell at scale for the executor, which the curriculum and
///   bidder rows refute.  Nothing measured grows with the store per run
///   (hospital's per-node cost does, S → L, but that is per fed node), so
///   the term is gone.
/// * *Batched.*  A distinct node costs the interpreter a call *and* a
///   node, `per_iter + per_node`, and the executor a node, plus
///   `per_iter` per round.  With the per-run and fold terms shared, the
///   executor is ahead once `I` is below about half the distinct nodes:
///   it leads the hospital, bidder and curriculum batches (by 8–37 %),
///   and the interpreter leads the chain, where every round meets one
///   node — the model's verdict on every row.
/// * *Fold.*  The driver folds a lane of 64 seeds with one `|=` per image
///   node, so the fold is priced per lane and round, not per seed.  Timed
///   inside the driver (fold plus results, best of 54 runs), a lane-round
///   costs 0.15 µs on the chain, 0.3–0.6 µs on the curriculum S batches,
///   3.1 µs on curriculum M and 4.1–4.2 µs on bidders S and hospital S;
///   `1.0` is their geometric middle.  The term is the same on both
///   back-ends and the batched cost is capped below the per-seed loop's,
///   so it ranks nothing by itself.
pub fn cost(alt: PlanAlternative, params: &CostParams, features: &OccurrenceFeatures) -> f64 {
    let i = params.depth.max(1.0);
    let r = params.result.max(1.0);
    let s = params.seeds.max(1.0);
    // Nodes fed through the body per seed over the whole run.
    let fed = match alt.strategy {
        FixpointStrategy::Naive => i * (0.5 * r + 1.0),
        FixpointStrategy::Delta => r + i,
    };
    // Per-node body application cost, scaled by body complexity;
    // constructors allocate fresh nodes on every call.
    let body_scale =
        1.0 + features.body_size as f64 / 32.0 + if features.constructs { 0.5 } else { 0.0 };
    let (per_node, per_iter, setup) = match alt.backend {
        FixpointBackendTag::Interpreted => (0.08 * body_scale, 0.5, 1.0),
        FixpointBackendTag::Algebraic => (0.12 * body_scale, 0.8, 2.5),
    };
    let per_seed_loop = s * (setup + per_iter * i + per_node * fed);
    if !alt.batched {
        return per_seed_loop;
    }
    // Distinct frontier nodes a shared run touches in total: seeds'
    // closures overlap, and the store bounds them.
    let distinct = (0.7 * s * r).min(params.store_nodes).max(1.0);
    let batched = if features.distributive {
        // Shared mode: the driver hands each distinct node to the body once
        // per run, on either back-end, and folds the seeds in lanes of 64.
        let body = match alt.backend {
            // One set evaluation per round that meets a new node.
            FixpointBackendTag::Algebraic => per_iter * i + per_node * distinct,
            // One singleton call per distinct node.
            FixpointBackendTag::Interpreted => (per_iter + per_node) * distinct,
        };
        let lanes = (s / 64.0).ceil();
        setup + body + 1.0 * i * lanes
    } else {
        match alt.backend {
            // Strict per-seed rows in one shared loop.
            FixpointBackendTag::Algebraic => {
                setup + per_iter * i + per_node * s * fed + 0.05 * i * s
            }
            // Grouped lockstep: the same evaluations as the per-seed loop,
            // sharing only the setup.
            FixpointBackendTag::Interpreted => setup + per_iter * i + per_node * s * fed,
        }
    };
    batched.min(0.95 * per_seed_loop)
}

/// What one completed execution of an occurrence looked like: the
/// alternative that actually ran and the observed workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunObservation {
    /// The grid point the run used (reconstructed from [`FixpointStats`]).
    pub alternative: PlanAlternative,
    /// Maximum iteration count observed.
    pub depth: u64,
    /// Total result nodes across all runs folded into this observation.
    pub result: u64,
    /// Total seeds served (one per `execute`, the batch size for a batched
    /// run).
    pub seeds: u64,
    /// Total wall-clock microseconds.
    pub wall_micros: u64,
    /// Fixpoint runs folded into this observation.
    pub runs: u64,
}

impl RunObservation {
    fn from_stats(stats: &FixpointStats) -> Option<Self> {
        Some(RunObservation {
            alternative: PlanAlternative {
                strategy: stats.strategy?,
                backend: stats.backend,
                batched: stats.batch_seeds > 0,
            },
            depth: stats.iterations as u64,
            result: stats.result_size as u64,
            seeds: stats.batch_seeds.max(1) as u64,
            wall_micros: stats.wall_micros,
            runs: 1,
        })
    }

    fn absorb(&mut self, other: &RunObservation) {
        self.depth = self.depth.max(other.depth);
        self.result += other.result;
        self.seeds += other.seeds;
        self.wall_micros += other.wall_micros;
        self.runs += other.runs;
    }
}

#[derive(Debug, Default)]
struct FeedbackInner {
    /// The statistics fingerprint the observations were taken under.
    fingerprint: Option<u64>,
    /// One (latest) completed observation per alternative tried.
    observed: Vec<RunObservation>,
    /// The most recently completed observation — the freshest workload
    /// parameters.
    recent: Option<RunObservation>,
}

/// The per-occurrence feedback loop: what completed executions of the
/// occurrence observed, advising the next [`decide`] call.
///
/// The cell is shared by every session executing the prepared query, so it
/// holds **completed** observations only.  The runs of an execution in
/// flight are that execution's own (the evaluator's run log); once
/// evaluation is over the prepared query hands them to
/// [`finish_run`](Self::finish_run) with the store's statistics
/// fingerprint.  A fingerprint change (the data materially changed)
/// discards all accumulated observations.
#[derive(Debug, Default)]
pub struct FeedbackCell {
    inner: Mutex<FeedbackInner>,
}

impl FeedbackCell {
    /// A fresh cell with no observations.
    pub fn new() -> Self {
        FeedbackCell::default()
    }

    /// Take the cell's lock even if a previous holder panicked: every
    /// update below is a whole-value store, so the table stays valid, and
    /// one contained panic must not poison cost feedback for the service.
    fn lock(&self) -> std::sync::MutexGuard<'_, FeedbackInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Roll one finished execution's `runs` of the occurrence into the
    /// observation table under `fingerprint`, one observation per
    /// alternative that ran, and return the execution's aggregate (the
    /// dominant alternative by wall time).  Returns `None` when nothing
    /// ran.
    pub fn finish_run<'a>(
        &self,
        fingerprint: u64,
        runs: impl IntoIterator<Item = &'a FixpointStats>,
    ) -> Option<RunObservation> {
        let mut current: Vec<RunObservation> = Vec::new();
        for obs in runs.into_iter().filter_map(RunObservation::from_stats) {
            match current
                .iter_mut()
                .find(|o| o.alternative == obs.alternative)
            {
                Some(slot) => slot.absorb(&obs),
                None => current.push(obs),
            }
        }
        let mut inner = self.lock();
        if inner.fingerprint != Some(fingerprint) {
            inner.observed.clear();
            inner.recent = None;
            inner.fingerprint = Some(fingerprint);
        }
        let mut dominant: Option<RunObservation> = None;
        for obs in current {
            if let Some(slot) = inner
                .observed
                .iter_mut()
                .find(|o| o.alternative == obs.alternative)
            {
                *slot = obs;
            } else {
                inner.observed.push(obs);
            }
            inner.recent = Some(obs);
            match &mut dominant {
                Some(d) if d.wall_micros >= obs.wall_micros => {}
                _ => dominant = Some(obs),
            }
        }
        dominant
    }

    /// The corrected workload parameters and measured wall times for the
    /// next decision, if observations exist for this `fingerprint`.
    fn advise(&self, fingerprint: u64) -> Option<Advice> {
        let inner = self.lock();
        if inner.fingerprint != Some(fingerprint) {
            return None;
        }
        let recent = inner.recent?;
        Some(Advice {
            recent,
            walls: inner
                .observed
                .iter()
                .map(|o| (o.alternative, o.wall_micros as f64, o.seeds.max(1) as f64))
                .collect(),
        })
    }

    /// Number of distinct alternatives observed under the current
    /// fingerprint (diagnostic).
    pub fn observed_alternatives(&self) -> usize {
        self.lock().observed.len()
    }
}

/// Observed guidance for one decision.
struct Advice {
    recent: RunObservation,
    /// `(alternative, total wall µs, seeds it served)` per alternative
    /// measured under the current fingerprint.
    walls: Vec<(PlanAlternative, f64, f64)>,
}

impl Advice {
    fn params(&self, seeds: f64, store_nodes: f64) -> CostParams {
        let per_seed = self.recent.result as f64 / self.recent.seeds.max(1) as f64;
        CostParams {
            depth: (self.recent.depth as f64).max(1.0),
            result: per_seed.max(1.0),
            seeds: seeds.max(1.0),
            store_nodes: store_nodes.max(1.0),
        }
    }

    /// The measured wall time of `alt`, linearly rescaled from the seed
    /// count it was measured under to the current one.
    fn observed_micros(&self, alt: PlanAlternative, seeds: f64) -> Option<f64> {
        self.walls
            .iter()
            .find(|(a, _, _)| *a == alt)
            .map(|(_, wall, obs_seeds)| wall * seeds.max(1.0) / obs_seeds.max(1.0))
    }
}

/// The outcome of costing one occurrence's candidate grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostDecision {
    /// The chosen grid point.
    pub alternative: PlanAlternative,
    /// The cost the winner was selected at: the model estimate, or the
    /// rescaled measured wall time once the winner has been measured.
    pub estimated_micros: u64,
    /// Who settled the choice.
    pub source: DecisionSource,
}

/// Pick the cheapest of `candidates` for an occurrence with `features`
/// over a store summarized by `stats`, consulting (and preferring)
/// `feedback` observations taken under the same statistics fingerprint.
///
/// Candidate order is the tie-break: the first of equal-cost candidates
/// wins, so callers list preferred routes (batched, algebraic, Delta)
/// first.  Selection is a two-step rule that mixes model estimates and
/// measurements without ever comparing the two directly (their units are
/// not calibrated against each other):
///
/// 1. the model — with feedback-corrected parameters when available —
///    picks a champion;
/// 2. if that champion has itself been measured, the measured wall times
///    settle the ranking among all *measured* candidates.
///
/// Step 2 makes the loop converge: a model champion that measures worse
/// than a previously tried alternative is demoted on the next run, while
/// an unmeasured champion gets explored exactly once.
pub fn decide(
    candidates: &[PlanAlternative],
    features: &OccurrenceFeatures,
    stats: &StoreStatistics,
    feedback: &FeedbackCell,
    seeds: usize,
) -> CostDecision {
    debug_assert!(
        !candidates.is_empty(),
        "decide() needs at least one candidate"
    );
    let seeds = seeds.max(1) as f64;
    let fingerprint = stats.fingerprint();
    let advice = feedback.advise(fingerprint);
    let (params, source) = match &advice {
        Some(a) => (
            a.params(seeds, stats.totals.nodes.max(1) as f64),
            DecisionSource::Adapted,
        ),
        None => (
            static_params(stats, features, seeds),
            DecisionSource::Estimated,
        ),
    };

    let mut champion = candidates[0];
    let mut champion_cost = cost(champion, &params, features);
    for &alt in &candidates[1..] {
        let c = cost(alt, &params, features);
        if c < champion_cost {
            champion = alt;
            champion_cost = c;
        }
    }

    let mut chosen = champion;
    let mut chosen_cost = champion_cost;
    if let Some(advice) = &advice {
        if let Some(champion_wall) = advice.observed_micros(champion, seeds) {
            // The champion has been measured: trust measurements among all
            // measured candidates, with 10% hysteresis so measurement noise
            // cannot flap the plan between runs.
            chosen_cost = champion_wall;
            for &alt in candidates {
                if alt == chosen {
                    continue;
                }
                if let Some(wall) = advice.observed_micros(alt, seeds) {
                    if wall < 0.9 * chosen_cost {
                        chosen = alt;
                        chosen_cost = wall;
                    }
                }
            }
        }
    }

    CostDecision {
        alternative: chosen,
        estimated_micros: chosen_cost.round() as u64,
        source: if candidates.len() == 1 {
            DecisionSource::Forced
        } else {
            source
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_xdm::DocumentStatistics;

    fn features(distributive: bool) -> OccurrenceFeatures {
        OccurrenceFeatures {
            distributive,
            algebraic: true,
            batch_capable: true,
            uses_id: true,
            constructs: false,
            body_size: 8,
        }
    }

    fn stats(nodes: u64, parents: u64, child_links: u64) -> StoreStatistics {
        StoreStatistics {
            revision: 1,
            documents: 1,
            totals: DocumentStatistics {
                nodes,
                elements: nodes,
                parents,
                child_links,
                max_depth: 64,
                ..DocumentStatistics::default()
            },
            per_document: Vec::new(),
            text_pool_strings: 0,
        }
    }

    fn alt(
        strategy: FixpointStrategy,
        backend: FixpointBackendTag,
        batched: bool,
    ) -> PlanAlternative {
        PlanAlternative {
            strategy,
            backend,
            batched,
        }
    }

    #[test]
    fn empty_store_defaults_prefer_delta() {
        let st = stats(0, 0, 0);
        let f = features(true);
        let p = static_params(&st, &f, 1.0);
        assert!(
            p.depth >= 3.0,
            "empty-store depth default too shallow: {}",
            p.depth
        );
        let delta = cost(
            alt(
                FixpointStrategy::Delta,
                FixpointBackendTag::Interpreted,
                false,
            ),
            &p,
            &f,
        );
        let naive = cost(
            alt(
                FixpointStrategy::Naive,
                FixpointBackendTag::Interpreted,
                false,
            ),
            &p,
            &f,
        );
        assert!(delta < naive, "delta {delta} should beat naive {naive}");
    }

    #[test]
    fn high_fanout_shallow_estimate_prefers_naive() {
        // A 4000-child root: fanout ≈ N, so the estimated depth is < 2 and
        // Naïve's re-feeding never materializes.
        let st = stats(4030, 31, 4029);
        let f = features(true);
        let p = static_params(&st, &f, 1.0);
        assert!(p.depth < 2.0, "estimated depth {} should be < 2", p.depth);
        let delta = cost(
            alt(
                FixpointStrategy::Delta,
                FixpointBackendTag::Interpreted,
                false,
            ),
            &p,
            &f,
        );
        let naive = cost(
            alt(
                FixpointStrategy::Naive,
                FixpointBackendTag::Interpreted,
                false,
            ),
            &p,
            &f,
        );
        assert!(naive < delta, "naive {naive} should beat delta {delta}");
    }

    #[test]
    fn batched_never_costs_more_than_per_seed_statically() {
        for &(n, parents, links) in &[
            (30u64, 10u64, 29u64),
            (5000, 1200, 4999),
            (200_000, 60_000, 199_999),
        ] {
            let st = stats(n, parents, links);
            for &distributive in &[true, false] {
                let f = features(distributive);
                for seeds in [1usize, 4, 64] {
                    let p = static_params(&st, &f, seeds as f64);
                    for strategy in [FixpointStrategy::Naive, FixpointStrategy::Delta] {
                        for backend in [
                            FixpointBackendTag::Interpreted,
                            FixpointBackendTag::Algebraic,
                        ] {
                            let b = cost(alt(strategy, backend, true), &p, &f);
                            let s = cost(alt(strategy, backend, false), &p, &f);
                            assert!(
                                b < s,
                                "batched {b} ≥ per-seed {s} at n={n} seeds={seeds} {strategy:?} {backend:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_backend_ranking_flips_with_depth() {
        // Both back-ends hand each distinct node to the body once per run;
        // what is left to choose between is the executor's one set call per
        // round against the interpreter's one singleton call per distinct
        // node.  Measured on shared batches folded in lanes of 64 (Delta,
        // `execute_batched`, best of nine).
        let f = features(true);
        let batched = |backend, params: &CostParams| {
            cost(alt(FixpointStrategy::Delta, backend, true), params, &f)
        };
        // Shallow, the shape of hospital S run per diseased patient (422
        // seeds, five ancestors each, depth 4): 0.51–0.53 ms on the executor
        // against 0.81–0.82 ms on the interpreter.  Wide and deeper, the
        // shape of bidders S (120 seeds, ~90 persons each, depth 9): the
        // executor still leads, 0.23–0.25 ms against 0.26–0.28 ms.
        for (name, params) in [
            (
                "shallow",
                CostParams {
                    depth: 4.0,
                    result: 5.0,
                    seeds: 422.0,
                    store_nodes: 10_760.0,
                },
            ),
            (
                "wide",
                CostParams {
                    depth: 9.0,
                    result: 90.0,
                    seeds: 120.0,
                    store_nodes: 3_624.0,
                },
            ),
        ] {
            let alg = batched(FixpointBackendTag::Algebraic, &params);
            let src = batched(FixpointBackendTag::Interpreted, &params);
            assert!(
                alg < src,
                "{name}: algebraic {alg} should beat source {src}"
            );
        }
        // Deep and narrow, two seeds walking a 120-link chain one node a
        // round: a round is one node, so its set call buys nothing — 82–83
        // µs on the interpreter against 277–288 µs on the executor.
        let deep = CostParams {
            depth: 120.0,
            result: 119.0,
            seeds: 2.0,
            store_nodes: 122.0,
        };
        let alg = batched(FixpointBackendTag::Algebraic, &deep);
        let src = batched(FixpointBackendTag::Interpreted, &deep);
        assert!(src < alg, "deep: source {src} should beat algebraic {alg}");
    }

    #[test]
    fn per_seed_loops_go_to_the_interpreter() {
        // Every per-seed Delta cell measured after path steps became
        // set-at-a-time is faster source-level (curriculum M 51 ms against
        // 152 ms, bidders M 96 against 124, hospital L 6.4 against 9.2), at
        // any store size: no per-run term grows with the store any more.
        let f = features(true);
        for &(n, parents, links) in &[
            (2_000u64, 600u64, 1_999u64),
            (50_000, 15_000, 49_999),
            (500_000, 150_000, 499_999),
        ] {
            let p = static_params(&stats(n, parents, links), &f, 1.0);
            let per_seed = |backend| cost(alt(FixpointStrategy::Delta, backend, false), &p, &f);
            let (src, alg) = (
                per_seed(FixpointBackendTag::Interpreted),
                per_seed(FixpointBackendTag::Algebraic),
            );
            assert!(src < alg, "n={n}: source {src} should beat algebraic {alg}");
        }
    }

    #[test]
    fn feedback_corrects_a_shallow_misprediction() {
        // Static estimate says depth < 2 → Naïve; the observed run reveals a
        // 30-deep chain and the next decision flips to Delta.
        let st = stats(4030, 31, 4029);
        let f = OccurrenceFeatures {
            algebraic: false,
            batch_capable: false,
            ..features(true)
        };
        let cell = FeedbackCell::new();
        let grid = [
            alt(
                FixpointStrategy::Delta,
                FixpointBackendTag::Interpreted,
                false,
            ),
            alt(
                FixpointStrategy::Naive,
                FixpointBackendTag::Interpreted,
                false,
            ),
        ];
        let first = decide(&grid, &f, &st, &cell, 1);
        assert_eq!(first.alternative.strategy, FixpointStrategy::Naive);
        assert_eq!(first.source, DecisionSource::Estimated);

        let naive_run = FixpointStats {
            strategy: Some(FixpointStrategy::Naive),
            backend: FixpointBackendTag::Interpreted,
            iterations: 31,
            result_size: 30,
            wall_micros: 900,
            ..FixpointStats::default()
        };
        assert!(cell.finish_run(st.fingerprint(), [&naive_run]).is_some());

        let second = decide(&grid, &f, &st, &cell, 1);
        assert_eq!(second.alternative.strategy, FixpointStrategy::Delta);
        assert_eq!(second.source, DecisionSource::Adapted);

        // Once Delta has been measured too, wall times settle the ranking.
        let delta_run = FixpointStats {
            strategy: Some(FixpointStrategy::Delta),
            backend: FixpointBackendTag::Interpreted,
            iterations: 31,
            result_size: 30,
            wall_micros: 120,
            ..FixpointStats::default()
        };
        cell.finish_run(st.fingerprint(), [&delta_run]);
        let third = decide(&grid, &f, &st, &cell, 1);
        assert_eq!(third.alternative.strategy, FixpointStrategy::Delta);
        assert_eq!(third.estimated_micros, 120);
    }

    #[test]
    fn fingerprint_change_discards_observations() {
        let st = stats(4030, 31, 4029);
        let cell = FeedbackCell::new();
        let naive_run = FixpointStats {
            strategy: Some(FixpointStrategy::Naive),
            backend: FixpointBackendTag::Interpreted,
            iterations: 31,
            result_size: 30,
            wall_micros: 900,
            ..FixpointStats::default()
        };
        cell.finish_run(st.fingerprint(), [&naive_run]);
        assert_eq!(cell.observed_alternatives(), 1);

        // Materially different data → different fingerprint → observations
        // are dropped and the decision is Estimated again.
        let grown = stats(1_000_000, 400_000, 999_999);
        assert_ne!(st.fingerprint(), grown.fingerprint());
        let grid = [
            alt(
                FixpointStrategy::Delta,
                FixpointBackendTag::Interpreted,
                false,
            ),
            alt(
                FixpointStrategy::Naive,
                FixpointBackendTag::Interpreted,
                false,
            ),
        ];
        let d = decide(&grid, &features(true), &grown, &cell, 1);
        assert_eq!(d.source, DecisionSource::Estimated);
        cell.finish_run(grown.fingerprint(), []);
        assert_eq!(cell.observed_alternatives(), 0);
    }

    #[test]
    fn forced_single_candidate_reports_forced() {
        let st = stats(100, 40, 99);
        let cell = FeedbackCell::new();
        let d = decide(
            &[alt(
                FixpointStrategy::Delta,
                FixpointBackendTag::Algebraic,
                false,
            )],
            &features(true),
            &st,
            &cell,
            1,
        );
        assert_eq!(d.source, DecisionSource::Forced);
        assert_eq!(d.alternative.backend, FixpointBackendTag::Algebraic);
    }
}
