//! The engine facade: documents, strategy/back-end selection, prepared
//! queries.

use xqy_eval::{FixpointStats, FixpointStrategy};
use xqy_parser::ast::QueryModule;
use xqy_parser::parse_query;
use xqy_xdm::{NodeStore, Sequence};

use crate::prepared::{Backend, Bindings, OccurrencePlan, PreparedQuery};
use crate::{IfpError, Result};

/// How the engine evaluates `with … seeded by … recurse` occurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Always use algorithm Naïve (Figure 3(a)).
    Naive,
    /// Always use algorithm Delta (Figure 3(b)) — only sound for
    /// distributive recursion bodies (Theorem 3.2); the engine does not stop
    /// you from shooting your own foot, mirroring the paper's Example 2.4.
    Delta,
    /// Decide **per IFP occurrence**: use Delta for every occurrence whose
    /// recursion body is recognised as distributive (by the syntactic *or*
    /// the algebraic check), Naïve for the rest.  This is the mode the paper
    /// advocates; one non-distributive body in a query no longer drags the
    /// other occurrences down to Naïve.
    #[default]
    Auto,
}

impl Strategy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::Delta => "delta",
            Strategy::Auto => "auto",
        }
    }

    /// The algorithm this strategy forces on every occurrence, or `None`
    /// for `Auto` (per-occurrence decision from the distributivity
    /// reports).  Single source of truth for the Strategy → algorithm
    /// mapping.
    pub fn forced(&self) -> Option<FixpointStrategy> {
        match self {
            Strategy::Naive => Some(FixpointStrategy::Naive),
            Strategy::Delta => Some(FixpointStrategy::Delta),
            Strategy::Auto => None,
        }
    }
}

impl From<FixpointStrategy> for Strategy {
    /// The strategy that forces `algorithm` on every occurrence.
    fn from(algorithm: FixpointStrategy) -> Self {
        match algorithm {
            FixpointStrategy::Naive => Strategy::Naive,
            FixpointStrategy::Delta => Strategy::Delta,
        }
    }
}

/// Thread-count policy for **batched fixpoint execution**.
///
/// One sharding rule on both back-ends: the fixpoint driver splits the
/// phases of a batched multi-source run — its folds and final
/// materialisations, by seed or, in a shared batch, by lane of 64 seeds —
/// across OS threads, and the recursion
/// body always runs on the caller thread.  Single-source fixpoints have
/// nothing to split, and `threads == 1` takes the sequential code path
/// exactly, so results are identical for every setting.
///
/// The `XQY_FIXPOINT_THREADS` environment variable overrides the engine
/// default at [`Engine::new`] time with a shard count (`0`/`1` mean
/// sequential).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Everything on the caller thread (the default).
    #[default]
    Sequential,
    /// Exactly this many shards (clamped to at least 1).
    Fixed(usize),
}

impl Parallelism {
    /// The shard count this policy resolves to.
    pub fn threads(&self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => (*n).max(1),
        }
    }

    /// The policy named by the `XQY_FIXPOINT_THREADS` environment variable,
    /// if it is set and well-formed: a shard count (`0` and `1` both mean
    /// [`Parallelism::Sequential`]).
    ///
    /// A set-but-malformed value is **not** silently ignored: a warning is
    /// printed to stderr (and the engine default applies), so a typo like
    /// `XQY_FIXPOINT_THREADS=fourteen` is visible instead of quietly
    /// running sequentially.
    pub fn from_env() -> Option<Parallelism> {
        let value = std::env::var("XQY_FIXPOINT_THREADS").ok();
        let (policy, warning) = Parallelism::from_env_value(value.as_deref());
        if let Some(warning) = warning {
            eprintln!("warning: {warning}");
        }
        policy
    }

    /// Pure parse of an `XQY_FIXPOINT_THREADS` value: the resolved policy
    /// (if any) plus a warning message for a set-but-malformed value.
    /// Factored out of [`Parallelism::from_env`] so the parse is unit
    /// testable without mutating process environment.
    pub fn from_env_value(value: Option<&str>) -> (Option<Parallelism>, Option<String>) {
        let Some(value) = value else {
            return (None, None);
        };
        match value.trim().parse::<usize>() {
            Ok(0) | Ok(1) => (Some(Parallelism::Sequential), None),
            Ok(n) => (Some(Parallelism::Fixed(n)), None),
            Err(_) => (
                None,
                Some(format!(
                    "ignoring invalid XQY_FIXPOINT_THREADS value {value:?}: \
                     expected a shard count"
                )),
            ),
        }
    }
}

/// Distributivity assessment of one recursion body found in a query.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributivityReport {
    /// The recursion variable of the IFP occurrence.
    pub variable: String,
    /// Verdict of the syntactic `ds_$x(·)` rules (Figure 5).
    pub syntactic: bool,
    /// The rule (or failure reason) reported by the syntactic check.
    pub syntactic_rule: String,
    /// Verdict of the algebraic ∪ push-up check, when the body lies inside
    /// the algebraic compiler's subset.
    pub algebraic: Option<bool>,
    /// The operator that blocked the push-up, if any.
    pub algebraic_blocked_by: Option<String>,
}

impl DistributivityReport {
    /// `true` when either approximation certifies distributivity.
    pub fn is_distributive(&self) -> bool {
        self.syntactic || self.algebraic == Some(true)
    }
}

/// The outcome of running a query through the engine.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query result.
    pub result: Sequence,
    /// One report per IFP occurrence in the query, in syntactic order.
    pub distributivity: Vec<DistributivityReport>,
    /// The per-occurrence execution decisions (strategy and back-end),
    /// index-aligned with `distributivity`.
    pub occurrences: Vec<OccurrencePlan>,
    /// Per-fixpoint runtime statistics (iterations, nodes fed back, …) in
    /// execution order — one entry per fixpoint *run*, so an occurrence
    /// inside a `for` loop contributes one entry per binding.
    pub fixpoints: Vec<FixpointStats>,
}

impl QueryOutcome {
    /// Query-level strategy summary, kept for compatibility with the
    /// pre-prepared-query API: [`FixpointStrategy::Delta`] when the query
    /// has at least one IFP occurrence and every occurrence ran Delta,
    /// [`FixpointStrategy::Naive`] otherwise.  Per-occurrence decisions are
    /// in [`QueryOutcome::occurrences`].
    pub fn strategy_used(&self) -> FixpointStrategy {
        if !self.occurrences.is_empty()
            && self
                .occurrences
                .iter()
                .all(|o| o.strategy == FixpointStrategy::Delta)
        {
            FixpointStrategy::Delta
        } else {
            FixpointStrategy::Naive
        }
    }

    /// The largest number of seeds any fixpoint run of this outcome
    /// evaluated together as a **batched multi-source fixpoint** — `0` when
    /// every run was an ordinary single-source fixpoint.  Per-run batch
    /// sizes are in [`FixpointStats::batch_seeds`]
    /// (`self.fixpoints[i].batch_seeds`); see
    /// [`PreparedQuery::execute_batched`](crate::PreparedQuery::execute_batched).
    pub fn batch_seeds(&self) -> usize {
        self.fixpoints
            .iter()
            .map(|s| s.batch_seeds)
            .max()
            .unwrap_or(0)
    }
}

/// The engine: owns the node store and the configuration, prepares queries
/// and runs them through the source-level evaluator and/or the relational
/// back-end.
///
/// The core API is [`Engine::prepare`] → [`PreparedQuery::execute`]: parse,
/// analyse and compile once, execute many times.  [`Engine::run`] is a thin
/// prepare-then-execute convenience for one-shot queries.
pub struct Engine {
    pub(crate) store: NodeStore,
    pub(crate) strategy: Strategy,
    pub(crate) backend: Backend,
    pub(crate) seed_in_result: bool,
    pub(crate) parallelism: Parallelism,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Create an engine with an empty document store, the `Auto` strategy
    /// and the source-level back-end.
    pub fn new() -> Self {
        Engine {
            store: NodeStore::new(),
            strategy: Strategy::Auto,
            backend: Backend::SourceLevel,
            seed_in_result: false,
            parallelism: Parallelism::from_env().unwrap_or_default(),
        }
    }

    /// Select the thread policy for batched fixpoint execution (captured by
    /// [`Engine::prepare`]; a [`PreparedQuery`] can override it with
    /// [`PreparedQuery::with_parallelism`](crate::PreparedQuery::with_parallelism)).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// The currently selected thread policy.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Select the fixpoint strategy.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// The currently selected strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Select the default back-end for queries prepared by this engine (a
    /// [`PreparedQuery`] can override it with
    /// [`PreparedQuery::set_backend`]).
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The currently selected back-end.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Use the seed-inclusive IFP reading (see
    /// [`EvalOptions::seed_in_result`](xqy_eval::EvalOptions)).
    pub fn set_seed_in_result(&mut self, value: bool) {
        self.seed_in_result = value;
    }

    /// Borrow the node store (e.g. to serialize result nodes).
    pub fn store(&self) -> &NodeStore {
        &self.store
    }

    /// Mutably borrow the node store.
    pub fn store_mut(&mut self) -> &mut NodeStore {
        &mut self.store
    }

    /// Load a document under `uri`.
    pub fn load_document(&mut self, uri: &str, xml: &str) -> Result<()> {
        self.store
            .parse_document_with_uri(uri, xml)
            .map(|_| ())
            .map_err(|e| IfpError::Document(e.to_string()))
    }

    /// Load a document and declare additional ID-typed attribute names
    /// (mirroring DTD `#ID` declarations such as the curriculum's `code`).
    pub fn load_document_with_ids(
        &mut self,
        uri: &str,
        xml: &str,
        id_attrs: &[&str],
    ) -> Result<()> {
        let doc = self
            .store
            .parse_document_with_uri(uri, xml)
            .map_err(|e| IfpError::Document(e.to_string()))?;
        for attr in id_attrs {
            self.store.register_id_attribute(doc, attr);
        }
        Ok(())
    }

    /// Parse and analyse `query` once, producing a [`PreparedQuery`] that
    /// can be executed any number of times (with external variables bound
    /// per execution).  The prepared query captures the engine's current
    /// strategy and back-end selection; it does *not* capture documents —
    /// execution always sees the engine's store as it is at execute time.
    pub fn prepare(&self, query: &str) -> Result<PreparedQuery> {
        let module = parse_query(query)?;
        Ok(self.prepare_module(module))
    }

    /// Like [`Engine::prepare`], for an already-parsed module.
    pub fn prepare_module(&self, module: QueryModule) -> PreparedQuery {
        PreparedQuery::analyse_module(module, self.strategy, self.backend, self.parallelism)
    }

    /// Analyse the distributivity of every IFP occurrence in `module`.
    pub fn analyse(&self, module: &QueryModule) -> Vec<DistributivityReport> {
        crate::prepared::analyse_occurrences(module, self.strategy)
            .iter()
            .map(|occ| occ.report().clone())
            .collect()
    }

    /// Parse, analyse and evaluate a query with the configured strategy and
    /// back-end — a thin [`Engine::prepare`] + [`PreparedQuery::execute`]
    /// convenience for queries without external variables.
    ///
    /// ```
    /// use xqy_ifp::Engine;
    ///
    /// let mut engine = Engine::new();
    /// engine.load_document("doc.xml", "<r><a/><a/></r>").unwrap();
    /// let outcome = engine.run("count(doc('doc.xml')/r/a)").unwrap();
    /// assert_eq!(engine.display(&outcome.result), "2");
    /// ```
    pub fn run(&mut self, query: &str) -> Result<QueryOutcome> {
        self.prepare(query)?.execute(self, &Bindings::new())
    }

    /// Like [`Engine::run`], for an already-parsed module.
    ///
    /// Convenience only: it clones `module` into a throw-away prepared
    /// query.  Callers that run the same module repeatedly should
    /// [`prepare_module`](Engine::prepare_module) once and reuse the
    /// [`PreparedQuery`].
    pub fn run_module(&mut self, module: &QueryModule) -> Result<QueryOutcome> {
        self.prepare_module(module.clone())
            .execute(self, &Bindings::new())
    }

    /// Serialize a result sequence (nodes as XML, atomics as text).
    pub fn display(&self, seq: &Sequence) -> String {
        seq.display(&self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_eval::FixpointBackendTag;

    const CURRICULUM: &str = r#"<curriculum>
        <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
        <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
        <course code="c3"><prerequisites/></course>
        <course code="c4"><prerequisites/></course>
    </curriculum>"#;

    const Q1: &str = "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c1'] \
                      recurse $x/id(./prerequisites/pre_code)";

    const Q2: &str = "let $seed := (<a/>,<b><c><d/></c></b>) \
                      return with $x seeded by $seed \
                      recurse if (count($x/self::a)) then $x/* else ()";

    fn engine() -> Engine {
        let mut engine = Engine::new();
        engine
            .load_document_with_ids("curriculum.xml", CURRICULUM, &["code"])
            .unwrap();
        engine
    }

    #[test]
    fn auto_strategy_picks_delta_for_q1() {
        let mut engine = engine();
        let outcome = engine.run(Q1).unwrap();
        assert_eq!(outcome.strategy_used(), FixpointStrategy::Delta);
        assert_eq!(outcome.result.len(), 3);
        assert_eq!(outcome.distributivity.len(), 1);
        assert!(outcome.distributivity[0].syntactic);
        assert_eq!(outcome.distributivity[0].algebraic, Some(true));
        assert_eq!(outcome.occurrences.len(), 1);
        assert_eq!(outcome.occurrences[0].strategy, FixpointStrategy::Delta);
        assert_eq!(
            outcome.occurrences[0].backend,
            FixpointBackendTag::Interpreted
        );
    }

    #[test]
    fn auto_strategy_falls_back_to_naive_for_q2() {
        let mut engine = engine();
        engine.set_seed_in_result(true);
        let outcome = engine.run(Q2).unwrap();
        assert_eq!(outcome.strategy_used(), FixpointStrategy::Naive);
        assert!(!outcome.distributivity[0].is_distributive());
        // Naïve on the seed-inclusive reading gives (a, b, c, d).
        assert_eq!(outcome.result.len(), 4);
    }

    #[test]
    fn explicit_strategies_are_respected() {
        let mut engine = engine();
        engine.set_strategy(Strategy::Naive);
        let naive = engine.run(Q1).unwrap();
        assert_eq!(naive.strategy_used(), FixpointStrategy::Naive);

        engine.set_strategy(Strategy::Delta);
        let delta = engine.run(Q1).unwrap();
        assert_eq!(delta.strategy_used(), FixpointStrategy::Delta);
        assert_eq!(naive.result.len(), delta.result.len());
        assert!(
            delta.fixpoints[0].nodes_fed_back < naive.fixpoints[0].nodes_fed_back,
            "delta should feed back fewer nodes"
        );
    }

    #[test]
    fn algebraic_backend_agrees_with_the_evaluator() {
        let mut engine = engine();
        let eval_result = engine.run(Q1).unwrap();

        engine.set_backend(Backend::Algebraic);
        let algebraic = engine.run(Q1).unwrap();
        assert_eq!(algebraic.result.len(), eval_result.result.len());
        assert_eq!(
            algebraic.occurrences[0].backend,
            FixpointBackendTag::Algebraic
        );
        assert!(algebraic.fixpoints[0].iterations >= 2);
    }

    #[test]
    fn queries_without_fixpoints_report_no_distributivity() {
        let mut engine = engine();
        let outcome = engine.run("count(doc('curriculum.xml')//course)").unwrap();
        assert!(outcome.distributivity.is_empty());
        assert!(outcome.occurrences.is_empty());
        assert!(outcome.fixpoints.is_empty());
        assert_eq!(engine.display(&outcome.result), "4");
    }

    #[test]
    fn document_errors_are_reported() {
        let mut engine = Engine::new();
        assert!(engine.load_document("bad.xml", "<a><b></a>").is_err());
        let err = engine.run("doc('missing.xml')").unwrap_err();
        assert!(matches!(err, IfpError::Eval(_)));
    }

    #[test]
    fn free_variables_are_reported_unbound_by_run() {
        let mut engine = engine();
        let err = engine.run("count($seed)").unwrap_err();
        assert!(matches!(err, IfpError::UnboundVariable(name) if name == "seed"));
    }

    #[test]
    fn parallelism_policies_resolve_to_shard_counts() {
        assert_eq!(Parallelism::default(), Parallelism::Sequential);
        assert_eq!(Parallelism::Sequential.threads(), 1);
        assert_eq!(Parallelism::Fixed(4).threads(), 4);
        // Fixed(0) is clamped: there is always at least the caller thread.
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
    }

    #[test]
    fn env_parallelism_parses_valid_values_without_warning() {
        assert_eq!(Parallelism::from_env_value(None), (None, None));
        assert_eq!(
            Parallelism::from_env_value(Some(" 2 ")),
            (Some(Parallelism::Fixed(2)), None)
        );
        assert_eq!(
            Parallelism::from_env_value(Some("0")),
            (Some(Parallelism::Sequential), None)
        );
        assert_eq!(
            Parallelism::from_env_value(Some("1")),
            (Some(Parallelism::Sequential), None)
        );
        assert_eq!(
            Parallelism::from_env_value(Some("8")),
            (Some(Parallelism::Fixed(8)), None)
        );
    }

    #[test]
    fn env_parallelism_warns_on_invalid_values() {
        // `auto` is not a policy (only shard counts are).
        for bad in ["fourteen", "-2", "4x", "", "auto"] {
            let (policy, warning) = Parallelism::from_env_value(Some(bad));
            assert_eq!(policy, None, "invalid value {bad:?} must not resolve");
            let warning = warning.expect("invalid value must produce a warning");
            assert!(warning.contains("XQY_FIXPOINT_THREADS"));
            assert!(warning.contains(bad));
        }
    }

    #[test]
    fn engine_parallelism_is_settable_and_captured_by_prepare() {
        let mut engine = engine();
        engine.set_parallelism(Parallelism::Fixed(4));
        assert_eq!(engine.parallelism(), Parallelism::Fixed(4));
        let prepared = engine.prepare(Q1).unwrap();
        assert_eq!(prepared.parallelism(), Parallelism::Fixed(4));
        // The prepared-query override does not touch the engine default.
        let prepared = prepared.with_parallelism(Parallelism::Sequential);
        assert_eq!(prepared.parallelism(), Parallelism::Sequential);
        assert_eq!(engine.parallelism(), Parallelism::Fixed(4));
    }
}
