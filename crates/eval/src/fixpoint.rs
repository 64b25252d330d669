//! The source-level side of the inflationary fixed point: the interpreter
//! as a [`Body`] of the shared Figure-3 driver ([`xqy_xdm::fixpoint`]), the
//! per-run statistics the evaluator records, and the hook a higher layer
//! uses to take an occurrence over ([`FixpointInterceptor`]).
//!
//! Delta is only a safe replacement for Naïve when the recursion body is
//! *distributive* for the recursion variable (Theorem 3.2); the runtime does
//! not check this — strategy selection is the caller's (or `xqy-ifp`'s
//! `Auto` mode's) responsibility.  Example 2.4 of the paper, where the two
//! algorithms genuinely differ, is reproduced in the tests below.

use xqy_parser::ast::Expr;
use xqy_xdm::fixpoint::{self, BatchSharing, Body, Config, ExecStats, Group, LimitError, Seeds};
use xqy_xdm::{NodeId, NodeStore, Sequence};

use crate::context::Environment;
use crate::error::EvalError;
use crate::evaluator::Evaluator;
use crate::Result;

pub use xqy_xdm::fixpoint::FixpointStrategy;

/// Which engine actually drove one fixed point computation.
///
/// The interpreter runs fixpoints itself by default; a
/// [`FixpointInterceptor`] installed by a higher layer (the `xqy_ifp`
/// prepared-query machinery) may instead drive a pre-compiled algebraic plan
/// through the relational back-end.  The tag records which one happened so
/// per-occurrence statistics stay attributable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FixpointBackendTag {
    /// The source-level interpreter evaluated the recursion body per
    /// iteration (the paper's "Saxon role").
    #[default]
    Interpreted,
    /// A pre-compiled algebraic plan was driven by the relational executor
    /// (the paper's "MonetDB/Pathfinder role").
    Algebraic,
}

impl FixpointBackendTag {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FixpointBackendTag::Interpreted => "interpreted",
            FixpointBackendTag::Algebraic => "algebraic",
        }
    }
}

/// A hook that may take over the evaluation of an IFP occurrence.
///
/// The evaluator calls the hook once per `with … seeded by … recurse`
/// evaluation, after the seed expression has been evaluated to a node set.
/// Returning `None` declines the occurrence (the interpreter then runs the
/// Naïve/Delta algorithms itself); returning `Some(result)` supplies the
/// fixpoint result and its statistics.  `xqy_ifp` uses this to execute
/// occurrences whose bodies were pre-compiled to algebraic plans on the
/// relational back-end, without re-entering the interpreter per iteration.
pub trait FixpointInterceptor {
    /// Attempt to run the occurrence `(var, body)` over `seeds`: one
    /// fixpoint over a whole seed set ([`Seeds::Set`]), or **one fixpoint
    /// per seed** as a single batched multi-source run ([`Seeds::Each`],
    /// the seeds distinct — see
    /// [`Evaluator::run_fixpoint_batched`](crate::Evaluator::run_fixpoint_batched)).
    ///
    /// On success the result holds one node list per source — one list for
    /// a set, one per seed and index-aligned for a batch, each equal to
    /// what a separate run over that singleton seed would return — plus
    /// the [`FixpointStats`] of the whole run.  Implementors decline
    /// (return `None`) an occurrence they have no plan for, and a batch
    /// they cannot fold — e.g. a body outside the seed-local subset; the
    /// evaluator then offers the batch seed by seed before running it
    /// source-level.
    ///
    /// `store` is the evaluator's store, read-only: an intercepted
    /// fixpoint selects nodes and constructs none.
    fn run_fixpoint(
        &mut self,
        store: &NodeStore,
        var: &str,
        body: &Expr,
        seeds: Seeds<'_>,
        seed_in_result: bool,
    ) -> Option<Result<(Vec<Vec<NodeId>>, FixpointStats)>>;
}

/// Statistics of one fixed point computation.
#[derive(Debug, Clone, Eq, Default)]
pub struct FixpointStats {
    /// The strategy that was used.
    pub strategy: Option<FixpointStrategy>,
    /// Which back-end drove the computation.
    pub backend: FixpointBackendTag,
    /// Number of do-while iterations executed (the paper's
    /// "recursion depth").
    pub iterations: usize,
    /// The paper's "Total # of Nodes Fed Back" column: the frontier
    /// lengths fed back, summed over iterations — and, for a batch, over
    /// seeds, so a batch reports the sum of its seeds' own Figure-3 counts
    /// however much of that work it shared ([`ExecStats::rows_fed_back`]).
    pub nodes_fed_back: u64,
    /// Number of invocations of the recursion body (a shared-frontier batch
    /// hands each node over once per run: the "work saved" view).
    pub payload_calls: usize,
    /// Size of the final result (number of nodes).
    pub result_size: usize,
    /// Run-cache hits during this run: a rec-independent plan node met
    /// again on a later iteration, whose table came back as a shared handle
    /// instead of being re-evaluated.  Only the algebraic back-end has such
    /// a cache; interpreted runs report zero.
    pub static_cache_hits: u64,
    /// Rec-independent plan nodes actually evaluated during this run: each
    /// one once, on the iteration that first reaches it.  Nothing carries
    /// over from an earlier run, so every run of a body reports its own.
    pub static_plan_evals: u64,
    /// Number of seeds this run evaluated together as a **batched
    /// multi-source fixpoint** — `0` for an ordinary single-source run.
    /// When non-zero, `iterations` is the maximum per-seed recursion depth,
    /// `nodes_fed_back` the sum of the per-seed counts and `payload_calls`
    /// counts the *shared* body evaluations (on the relational back-end one
    /// per batched iteration, however many seeds are still iterating — and,
    /// over distinct nodes, only an iteration that met a new node).
    pub batch_seeds: usize,
    /// Nodes fed into each recursion-body call, in call order — the
    /// frontier-growth curve.  Deterministic for a given (query, store,
    /// seed) input, so it takes part in equality.
    pub frontier_curve: Vec<u64>,
    /// Wall time of the run in microseconds.  **Excluded from equality**:
    /// tests compare whole stats structs, and wall time legitimately
    /// differs between runs.
    pub wall_micros: u64,
}

impl PartialEq for FixpointStats {
    fn eq(&self, other: &Self) -> bool {
        self.strategy == other.strategy
            && self.backend == other.backend
            && self.iterations == other.iterations
            && self.nodes_fed_back == other.nodes_fed_back
            && self.payload_calls == other.payload_calls
            && self.result_size == other.result_size
            && self.static_cache_hits == other.static_cache_hits
            && self.static_plan_evals == other.static_plan_evals
            && self.batch_seeds == other.batch_seeds
            && self.frontier_curve == other.frontier_curve
    }
}

impl From<ExecStats> for FixpointStats {
    /// The driver's counters under the interpreter's names; the strategy
    /// (and, for an intercepted run, the back-end) is the caller's to add.
    fn from(stats: ExecStats) -> Self {
        FixpointStats {
            iterations: stats.iterations,
            nodes_fed_back: stats.rows_fed_back,
            payload_calls: stats.body_evaluations,
            result_size: stats.result_rows,
            batch_seeds: stats.batch_seeds,
            frontier_curve: stats.frontier_curve,
            wall_micros: stats.wall_micros,
            ..FixpointStats::default()
        }
    }
}

/// The interpreter as a recursion body: bind `var`, evaluate `body`,
/// require a node-sequence result.
struct Interpreted<'a, 's> {
    eval: &'a mut Evaluator<'s>,
    var: &'a str,
    body: &'a Expr,
    env: &'a mut Environment,
}

impl Interpreted<'_, '_> {
    /// One invocation of the recursion body, counted.
    fn call(&mut self, input: &[NodeId], stats: &mut ExecStats) -> Result<Vec<NodeId>> {
        stats.frontier_curve.push(input.len() as u64);
        stats.body_evaluations += 1;
        xqy_xdm::fail::point("alloc.sequence").map_err(|e| EvalError::Xdm(e.to_string()))?;
        let input = Sequence::from_nodes(input.iter().copied());
        let value = self
            .eval
            .eval_with_binding(self.body, self.env, self.var, input)?;
        if !value.all_nodes() {
            return Err(EvalError::Type(
                "the recursion body of an inflationary fixed point must return nodes".into(),
            ));
        }
        Ok(value.nodes())
    }
}

impl Body for Interpreted<'_, '_> {
    type Error = EvalError;

    /// Group by group, in order.
    fn images(&mut self, groups: &[Group<'_>], stats: &mut ExecStats) -> Result<Vec<Vec<NodeId>>> {
        groups
            .iter()
            .map(|&(_, nodes)| self.call(nodes, stats))
            .collect()
    }

    fn store(&self) -> &NodeStore {
        self.eval.store_ref()
    }

    fn release_memory(&mut self) -> u64 {
        self.eval.store_ref().release_memory()
    }

    fn limit_error(&self, error: LimitError) -> EvalError {
        limit_error(self.var, error)
    }
}

/// The evaluation error for a barrier verdict on the occurrence `var` — for
/// the interpreter's own runs and for interceptors reporting a back-end's.
pub fn limit_error(var: &str, error: LimitError) -> EvalError {
    let occurrence = var.to_string();
    match error {
        LimitError::Fault(fault) => EvalError::Backend(fault.to_string()),
        LimitError::Deadline { iterations } => EvalError::DeadlineExceeded {
            occurrence,
            iterations,
        },
        LimitError::Budget {
            budget,
            used,
            limit,
            iterations,
        } => EvalError::BudgetExceeded {
            budget: budget.into(),
            used,
            limit,
            occurrence,
            iterations,
        },
        LimitError::NoFixpoint { iterations, limit } => EvalError::NoFixpoint {
            iterations,
            limit: limit.into(),
        },
    }
}

/// Evaluate the IFP of `body` (with recursion variable `var`) seeded by
/// `seed`, using `strategy`.  Statistics are recorded on the evaluator.
pub fn evaluate_fixpoint(
    eval: &mut Evaluator<'_>,
    var: &str,
    seed: &Sequence,
    body: &Expr,
    env: &mut Environment,
    strategy: FixpointStrategy,
) -> Result<Sequence> {
    if !seed.all_nodes() {
        return Err(EvalError::Type(
            "the seed of an inflationary fixed point must be a node sequence".into(),
        ));
    }
    let seeds = Seeds::Set(&seed.nodes());
    let mut groups = drive(eval, var, body, env, strategy, false, seeds)?;
    Ok(Sequence::from_nodes(groups.pop().unwrap_or_default()))
}

/// Evaluate **one inflationary fixpoint per seed of `seeds`** as one run of
/// the shared driver — the source-level counterpart of the algebraic
/// executor's batched `(seed, node)` run.
///
/// * `share_frontiers = true` (only sound for *distributive*, pure bodies —
///   `e(X) = ⋃ₓ e({x})`, Theorem 3.2; the caller screens both): the body is
///   evaluated once per **distinct** node the run meets, across all seeds
///   and rounds ([`BatchSharing::DistinctNodes`]: the driver keeps the
///   images).  Each seed still follows `strategy` — Naïve re-feeds its
///   whole `res`, which the kept images answer without a body call.
/// * `share_frontiers = false`: the body is evaluated on each seed's own
///   frontier, exactly as a per-seed loop would — correct for every body.
///
/// Returns one node list per seed, index-aligned with `seeds` (which must
/// be distinct — callers deduplicate), each equal to what
/// [`evaluate_fixpoint`] over that singleton seed returns.  One
/// [`FixpointStats`] entry is recorded for the whole batch:
/// [`FixpointStats::batch_seeds`]` = seeds.len()`, `iterations` is the
/// maximum per-seed recursion depth, `nodes_fed_back` the sum of the
/// per-seed Figure-3 counts, and `payload_calls` the body evaluations
/// actually performed.
pub fn evaluate_fixpoint_batched(
    eval: &mut Evaluator<'_>,
    var: &str,
    seeds: &[NodeId],
    body: &Expr,
    env: &mut Environment,
    strategy: FixpointStrategy,
    share_frontiers: bool,
) -> Result<Vec<Vec<NodeId>>> {
    let seeds = Seeds::Each(seeds);
    drive(eval, var, body, env, strategy, share_frontiers, seeds)
}

/// Run the shared driver over the interpreter and record the run.
fn drive(
    eval: &mut Evaluator<'_>,
    var: &str,
    body: &Expr,
    env: &mut Environment,
    strategy: FixpointStrategy,
    share: bool,
    seeds: Seeds<'_>,
) -> Result<Vec<Vec<NodeId>>> {
    let options = eval.options();
    let config = Config {
        strategy,
        sharing: if share {
            BatchSharing::DistinctNodes
        } else {
            BatchSharing::PerSeed
        },
        seed_in_result: options.seed_in_result,
        limits: options.limits,
    };
    let mut interpreted = Interpreted {
        eval,
        var,
        body,
        env,
    };
    let (result, stats) = fixpoint::run(&mut interpreted, &config, seeds);
    let stats = FixpointStats {
        strategy: Some(strategy),
        ..stats.into()
    };
    eval.record_fixpoint_run_for(var, body, stats);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_xdm::NodeStore;

    const CURRICULUM: &str = r#"<curriculum>
        <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
        <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
        <course code="c3"><prerequisites/></course>
        <course code="c4"><prerequisites/></course>
        <course code="c5"><prerequisites><pre_code>c1</pre_code></prerequisites></course>
    </curriculum>"#;

    fn curriculum_store() -> NodeStore {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document_with_uri("curriculum.xml", CURRICULUM)
            .unwrap();
        store.register_id_attribute(doc, "code");
        store
    }

    const Q1: &str = "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c1'] \
                      recurse $x/id(./prerequisites/pre_code)";

    fn codes(store: &NodeStore, seq: &Sequence) -> Vec<String> {
        seq.nodes()
            .iter()
            .map(|&n| store.attribute_value(n, "code").unwrap().to_string())
            .collect()
    }

    #[test]
    fn naive_computes_transitive_prerequisites() {
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
        let result = evaluator.eval_query_str(Q1).unwrap();
        assert_eq!(codes(&store, &result), vec!["c2", "c3", "c4"]);
    }

    #[test]
    fn delta_matches_naive_on_distributive_body() {
        let mut store = curriculum_store();
        let naive_result = {
            let mut evaluator = Evaluator::new(&mut store);
            evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
            evaluator.eval_query_str(Q1).unwrap()
        };
        let mut store2 = curriculum_store();
        let delta_result = {
            let mut evaluator = Evaluator::new(&mut store2);
            evaluator.set_fixpoint_strategy(FixpointStrategy::Delta);
            evaluator.eval_query_str(Q1).unwrap()
        };
        assert_eq!(codes(&store, &naive_result), codes(&store2, &delta_result));
    }

    #[test]
    fn delta_feeds_fewer_nodes_than_naive() {
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
        evaluator.eval_query_str(Q1).unwrap();
        let naive_fed = evaluator.last_fixpoint_stats().unwrap().nodes_fed_back;

        let mut store2 = curriculum_store();
        let mut evaluator2 = Evaluator::new(&mut store2);
        evaluator2.set_fixpoint_strategy(FixpointStrategy::Delta);
        evaluator2.eval_query_str(Q1).unwrap();
        let delta_fed = evaluator2.last_fixpoint_stats().unwrap().nodes_fed_back;

        assert!(
            delta_fed < naive_fed,
            "Delta ({delta_fed}) should feed back fewer nodes than Naive ({naive_fed})"
        );
    }

    #[test]
    fn seed_node_in_a_cycle_is_included_when_reachable() {
        // c5 -> c1 -> {c2, c3}; c1 is in a cycle with nothing, but seeding
        // from c5 must reach c1 and its closure.
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        let result = evaluator
            .eval_query_str(
                "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c5'] \
                 recurse $x/id(./prerequisites/pre_code)",
            )
            .unwrap();
        assert_eq!(codes(&store, &result), vec!["c1", "c2", "c3", "c4"]);
    }

    /// Example 2.4 / Query Q2 of the paper: a non-distributive recursion
    /// body on which Naïve and Delta genuinely disagree.
    const Q2: &str = "let $seed := (<a/>,<b><c><d/></c></b>) \
                      return with $x seeded by $seed \
                      recurse if (count($x/self::a)) then $x/* else ()";

    #[test]
    fn example_2_4_naive_and_delta_differ() {
        // The worked table of Example 2.4 accumulates from the seed itself
        // (its iteration-0 row lists (a,b)); enable that reading.
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.options_mut().seed_in_result = true;
        evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
        let naive_result = evaluator.eval_query_str(Q2).unwrap();
        // Naïve computes (a, b, c, d): 4 nodes.
        assert_eq!(naive_result.len(), 4);

        let mut store2 = NodeStore::new();
        let mut evaluator2 = Evaluator::new(&mut store2);
        evaluator2.options_mut().seed_in_result = true;
        evaluator2.set_fixpoint_strategy(FixpointStrategy::Delta);
        let delta_result = evaluator2.eval_query_str(Q2).unwrap();
        // Delta returns only (a, b, c): 3 nodes.
        assert_eq!(delta_result.len(), 3);
    }

    #[test]
    fn iteration_counts_match_paper_table_for_q2() {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.options_mut().seed_in_result = true;
        evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
        evaluator.eval_query_str(Q2).unwrap();
        let naive_stats = evaluator.last_fixpoint_stats().unwrap().clone();
        // Paper's table: Naïve stabilises at iteration 3 (res_3 = res_2).
        assert_eq!(naive_stats.iterations, 3);

        let mut store2 = NodeStore::new();
        let mut evaluator2 = Evaluator::new(&mut store2);
        evaluator2.options_mut().seed_in_result = true;
        evaluator2.set_fixpoint_strategy(FixpointStrategy::Delta);
        evaluator2.eval_query_str(Q2).unwrap();
        let delta_stats = evaluator2.last_fixpoint_stats().unwrap().clone();
        // Delta stops after iteration 2 (∆ becomes empty).
        assert_eq!(delta_stats.iterations, 2);
    }

    #[test]
    fn definition_2_1_literal_reading_hides_the_divergence_on_q2() {
        // Under the literal Definition 2.1 (res₀ = e_rec(e_seed)) Q2's seed
        // nodes never enter the result: both algorithms agree on (c).  This
        // test documents why the seed-inclusive option exists.
        for strategy in [FixpointStrategy::Naive, FixpointStrategy::Delta] {
            let mut store = NodeStore::new();
            let mut evaluator = Evaluator::new(&mut store);
            evaluator.set_fixpoint_strategy(strategy);
            let result = evaluator.eval_query_str(Q2).unwrap();
            assert_eq!(result.len(), 1, "strategy {}", strategy.name());
        }
    }

    #[test]
    fn non_node_seed_is_rejected() {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        let err = evaluator
            .eval_query_str("with $x seeded by (1, 2) recurse $x")
            .unwrap_err();
        assert!(matches!(err, EvalError::Type(_)));
    }

    #[test]
    fn non_node_payload_result_is_rejected() {
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        let err = evaluator
            .eval_query_str(
                "with $x seeded by doc('curriculum.xml')/curriculum/course recurse count($x)",
            )
            .unwrap_err();
        assert!(matches!(err, EvalError::Type(_)));
    }

    #[test]
    fn diverging_fixpoint_with_constructors_is_reported_undefined() {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.options_mut().limits.max_iterations = 50;
        // Each iteration constructs a brand new element, so the result keeps
        // growing: the IFP is undefined (Definition 2.1).
        let err = evaluator
            .eval_query_str("with $x seeded by <seed/> recurse ($x, <grow/>)")
            .unwrap_err();
        assert!(matches!(err, EvalError::NoFixpoint { .. }));
    }

    #[test]
    fn stats_record_result_size_and_payload_calls() {
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.set_fixpoint_strategy(FixpointStrategy::Delta);
        evaluator.eval_query_str(Q1).unwrap();
        let stats = evaluator.last_fixpoint_stats().unwrap();
        assert_eq!(stats.result_size, 3);
        assert!(stats.payload_calls >= 2);
        assert_eq!(stats.strategy, Some(FixpointStrategy::Delta));
    }

    #[test]
    fn fixpoint_equivalent_to_user_defined_fix_function() {
        // Figure 2 of the paper: the fix()/rec() template is equivalent to
        // the IFP form.  (The termination test is written as
        // `empty($res except $x)` — "no new nodes discovered" — which is the
        // reading consistent with Definition 2.1; the literal operand order
        // printed in the paper's figure does not terminate.)
        let fix_src = "declare function rec($cs) as node()* { $cs/id(./prerequisites/pre_code) };\n\
             declare function fix($x) as node()* {\n\
               let $res := rec($x) return if (empty($res except $x)) then $x else fix($res union $x)\n\
             };\n\
             let $seed := doc('curriculum.xml')/curriculum/course[@code='c1']\n\
             return fix(rec($seed))";
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        let via_fix = evaluator.eval_query_str(fix_src).unwrap();
        let via_ifp = evaluator.eval_query_str(Q1).unwrap();
        assert_eq!(codes(&store, &via_fix), codes(&store, &via_ifp));
    }

    #[test]
    fn fixpoint_equivalent_to_user_defined_delta_function() {
        // Figure 4 of the paper: the delta(·,·) user-defined function is a
        // drop-in replacement for fix(·) on distributive bodies.  The initial
        // call seeds the accumulator with rec($seed) so that the level-0
        // result is part of the answer (Figure 3(b): res ← e_rec(e_seed),
        // ∆ ← res).
        let delta_src =
            "declare function rec($cs) as node()* { $cs/id(./prerequisites/pre_code) };\n\
             declare function delta($x, $res) as node()* {\n\
               let $delta := rec($x) except $res\n\
               return if (empty($delta)) then $res else delta($delta, $delta union $res)\n\
             };\n\
             let $seed := doc('curriculum.xml')/curriculum/course[@code='c1']\n\
             return delta(rec($seed), rec($seed))";
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        let via_delta_udf = evaluator.eval_query_str(delta_src).unwrap();
        evaluator.set_fixpoint_strategy(FixpointStrategy::Delta);
        let via_ifp = evaluator.eval_query_str(Q1).unwrap();
        assert_eq!(codes(&store, &via_delta_udf), codes(&store, &via_ifp));
    }
}
