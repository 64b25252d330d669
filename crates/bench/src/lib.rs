#![warn(missing_docs)]

//! Shared benchmark harness: workload setup and measured runs.
//!
//! Table 2 of the paper reports, for each workload and input size, the
//! evaluation time under Naïve and Delta on two processors
//! (MonetDB/XQuery's algebraic µ/µ∆ operators and Saxon's source-level
//! recursion), plus the total number of nodes fed back into the recursion
//! body and the recursion depth.  [`run_cell`] produces one such cell; the
//! `table2` binary and the Criterion benches are thin wrappers around it.
//!
//! Every cell is driven through the prepared-query API: the workload query
//! is prepared **once** (parse + distributivity analysis + plan compilation)
//! and the measured region is a single [`PreparedQuery::execute`] with the
//! seed node set supplied through a `$seed` binding.  In particular the
//! per-item workloads (one fixpoint per seed node, the shape of Figure 10's
//! bidder networks and the per-course curriculum check) reuse one compiled
//! plan across *all* seeds instead of re-parsing and re-compiling the
//! recursion body per seed.

use std::time::{Duration, Instant};

use xqy_datagen::{auction, curriculum, hospital, play, Scale};
use xqy_ifp::{Bindings, Engine, Parallelism, PreparedQuery};

pub use xqy_ifp::eval::FixpointStrategy;
pub use xqy_ifp::Backend;

/// A benchmark workload: document, seed and recursion body.
pub struct Workload {
    /// Row label, mirroring Table 2 ("Bidder network (small)", …).
    pub label: String,
    /// Document URI.
    pub uri: &'static str,
    /// Generated XML document.
    pub xml: String,
    /// Attribute names registered as ID-typed.
    pub id_attrs: Vec<&'static str>,
    /// Query computing the seed node sequence (bound to `$seed`).
    pub seed_query: String,
    /// The recursion body (a function of `$x`).
    pub body: &'static str,
    /// When `true` a separate fixpoint is run per seed node (the shape of
    /// Figure 10's per-person bidder network and of the per-course
    /// curriculum check); statistics are summed over the fixpoints and the
    /// depth is their maximum.  When `false` a single fixpoint is seeded
    /// with the whole seed sequence (the hospital workload).
    pub per_item: bool,
}

impl Workload {
    /// The IFP query, with the seed node set left as the external variable
    /// `$seed` so one prepared query serves every seed assignment.
    pub fn query(&self) -> String {
        if self.per_item {
            format!(
                "for $s in $seed return (with $x seeded by $s recurse {})",
                self.body
            )
        } else {
            self.batched_query()
        }
    }

    /// The **batched** form of a per-item workload: a bare fixpoint over
    /// `$seed`, executed through [`PreparedQuery::execute_batched`] so the
    /// whole seed set runs as one multi-source fixpoint (instead of the
    /// per-item `for`-loop of [`Workload::query`], which runs one fixpoint
    /// per seed).  The two forms return the same node multiset.
    pub fn batched_query(&self) -> String {
        format!("with $x seeded by $seed recurse {}", self.body)
    }
}

/// The measurements of one Table-2 cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Wall-clock evaluation time (the `execute` call only — preparation is
    /// amortized outside the measured region).
    pub elapsed: Duration,
    /// Result cardinality (nodes in the fixpoint).
    pub result_size: usize,
    /// Total number of nodes fed back into the recursion body.
    pub nodes_fed_back: u64,
    /// Recursion depth (iterations of the do-while loop).
    pub depth: usize,
}

/// Build the bidder-network workload at a scale.
pub fn bidder_network(scale: Scale) -> Workload {
    let config = auction::AuctionConfig::for_scale(scale);
    Workload {
        label: format!("Bidder network ({})", scale.name()),
        uri: auction::DOC_URI,
        xml: auction::generate(&config),
        id_attrs: vec![],
        seed_query: format!("doc('{}')/site/people/person", auction::DOC_URI),
        body: auction::BODY,
        per_item: true,
    }
}

/// Build the Romeo-and-Juliet-style dialog workload.
pub fn dialogs(scale: Scale) -> Workload {
    let config = play::PlayConfig::for_scale(scale);
    Workload {
        label: "Romeo and Juliet".to_string(),
        uri: play::DOC_URI,
        xml: play::generate(&config),
        id_attrs: vec![],
        seed_query: format!("doc('{}')//SPEECH[@start='1']", play::DOC_URI),
        body: play::BODY,
        per_item: true,
    }
}

/// Build the curriculum workload at a scale.
pub fn curriculum_workload(scale: Scale) -> Workload {
    let config = curriculum::CurriculumConfig::for_scale(scale);
    Workload {
        label: format!("Curriculum ({})", scale.name()),
        uri: curriculum::DOC_URI,
        xml: curriculum::generate(&config),
        id_attrs: vec!["code"],
        seed_query: format!("doc('{}')/curriculum/course", curriculum::DOC_URI),
        body: curriculum::BODY,
        per_item: true,
    }
}

/// Build the hospital workload at a scale.
pub fn hospital_workload(scale: Scale) -> Workload {
    let config = hospital::HospitalConfig::for_scale(scale);
    Workload {
        label: format!("Hospital ({})", scale.name()),
        uri: hospital::DOC_URI,
        xml: hospital::generate(&config),
        id_attrs: vec![],
        seed_query: format!(
            "doc('{}')/hospital/patient[@disease='yes']",
            hospital::DOC_URI
        ),
        body: hospital::BODY,
        per_item: false,
    }
}

/// Prepare an engine with the workload's document loaded.
pub fn engine_for(workload: &Workload) -> Engine {
    let mut engine = Engine::new();
    engine
        .load_document_with_ids(workload.uri, &workload.xml, &workload.id_attrs)
        .expect("workload document parses");
    engine
}

/// Prepare the workload query on `engine` for a `backend` × `algorithm`
/// cell (parse + analysis + plan compilation, done once per cell).
pub fn prepare_cell(
    engine: &mut Engine,
    workload: &Workload,
    backend: Backend,
    algorithm: FixpointStrategy,
) -> PreparedQuery {
    engine.set_strategy(algorithm.into());
    engine
        .prepare(&workload.query())
        .expect("workload query parses")
        .with_backend(backend)
}

/// The `$seed` binding for a workload: its seed query evaluated once.
pub fn seed_bindings(engine: &mut Engine, workload: &Workload) -> Bindings {
    let seeds = engine
        .run(&workload.seed_query)
        .expect("seed query runs")
        .result;
    Bindings::new().with("seed", seeds)
}

/// Turn an executed outcome into the Table-2 quantities: statistics are
/// summed over the fixpoint runs and the depth is their maximum.
pub fn cell_result(outcome: &xqy_ifp::QueryOutcome, elapsed: Duration) -> CellResult {
    CellResult {
        elapsed,
        result_size: outcome.result.len(),
        nodes_fed_back: outcome.fixpoints.iter().map(|s| s.nodes_fed_back).sum(),
        depth: outcome
            .fixpoints
            .iter()
            .map(|s| s.iterations)
            .max()
            .unwrap_or(0),
    }
}

/// Run one cell: `workload` × `backend` × `algorithm`.  Prepares once,
/// measures one execution.
pub fn run_cell(
    engine: &mut Engine,
    workload: &Workload,
    backend: Backend,
    algorithm: FixpointStrategy,
) -> CellResult {
    let prepared = prepare_cell(engine, workload, backend, algorithm);
    let bindings = seed_bindings(engine, workload);
    let start = Instant::now();
    let outcome = prepared
        .execute(engine, &bindings)
        .expect("workload query runs");
    let elapsed = start.elapsed();
    debug_assert!(outcome.occurrences.iter().all(|o| o.strategy == algorithm));
    cell_result(&outcome, elapsed)
}

/// Run the **batched** variant of a per-item cell: the whole seed set as
/// one multi-source fixpoint via [`PreparedQuery::execute_batched`]
/// (`workload` × `backend` × `algorithm`).  Prepares once, measures one
/// batched execution; the resulting [`CellResult`] is directly comparable
/// with [`run_cell`] on the same workload (same result cardinality, same
/// depth convention — the maximum per-seed recursion depth).
pub fn run_cell_batched(
    engine: &mut Engine,
    workload: &Workload,
    backend: Backend,
    algorithm: FixpointStrategy,
) -> CellResult {
    run_cell_batched_parallel(
        engine,
        workload,
        backend,
        algorithm,
        Parallelism::Sequential,
    )
}

/// [`run_cell_batched`] with an explicit thread policy: the batched run's
/// per-seed phases shard across `parallelism.threads()` OS threads over a
/// frozen store view.  `Parallelism::Sequential` reproduces
/// [`run_cell_batched`] exactly (same code path, same statistics), so the
/// two cells are directly comparable.
pub fn run_cell_batched_parallel(
    engine: &mut Engine,
    workload: &Workload,
    backend: Backend,
    algorithm: FixpointStrategy,
    parallelism: Parallelism,
) -> CellResult {
    engine.set_strategy(algorithm.into());
    let prepared = engine
        .prepare(&workload.batched_query())
        .expect("workload query parses")
        .with_backend(backend)
        .with_parallelism(parallelism);
    let seeds = engine
        .run(&workload.seed_query)
        .expect("seed query runs")
        .result;
    let start = Instant::now();
    let batch = prepared
        .execute_batched(engine, "seed", &seeds, &Bindings::new())
        .expect("workload query runs");
    let elapsed = start.elapsed();
    cell_result(&batch.outcome, elapsed)
}

/// The rows of Table 2 at "quick" scales (small/medium); `full` adds the
/// large and huge instances.
pub fn table2_rows(full: bool) -> Vec<Workload> {
    let mut rows = vec![bidder_network(Scale::Small), bidder_network(Scale::Medium)];
    if full {
        rows.push(bidder_network(Scale::Large));
        rows.push(bidder_network(Scale::Huge));
    }
    rows.push(dialogs(Scale::Medium));
    rows.push(curriculum_workload(Scale::Medium));
    if full {
        rows.push(curriculum_workload(Scale::Large));
    }
    rows.push(hospital_workload(if full {
        Scale::Large
    } else {
        Scale::Medium
    }));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_ifp::eval::FixpointBackendTag;

    #[test]
    fn cells_agree_across_backends_and_algorithms() {
        let workload = curriculum_workload(Scale::Small);
        let mut sizes = Vec::new();
        for backend in [Backend::SourceLevel, Backend::Algebraic] {
            for algorithm in [FixpointStrategy::Naive, FixpointStrategy::Delta] {
                let mut engine = engine_for(&workload);
                let cell = run_cell(&mut engine, &workload, backend, algorithm);
                sizes.push(cell.result_size);
                assert!(cell.depth >= 1);
                assert!(cell.nodes_fed_back > 0);
            }
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "sizes: {sizes:?}");
    }

    #[test]
    fn delta_feeds_back_fewer_nodes_on_the_bidder_network() {
        let workload = bidder_network(Scale::Small);
        let mut engine = engine_for(&workload);
        let naive = run_cell(
            &mut engine,
            &workload,
            Backend::SourceLevel,
            FixpointStrategy::Naive,
        );
        let delta = run_cell(
            &mut engine,
            &workload,
            Backend::SourceLevel,
            FixpointStrategy::Delta,
        );
        assert_eq!(naive.result_size, delta.result_size);
        assert!(delta.nodes_fed_back < naive.nodes_fed_back);
    }

    #[test]
    fn algebraic_cells_reuse_one_compiled_plan_across_seeds() {
        // The per-item curriculum workload runs one fixpoint per course; the
        // prepared query must compile its recursion body exactly once.
        let workload = curriculum_workload(Scale::Small);
        let mut engine = engine_for(&workload);
        let prepared = prepare_cell(
            &mut engine,
            &workload,
            Backend::Algebraic,
            FixpointStrategy::Delta,
        );
        let bindings = seed_bindings(&mut engine, &workload);
        let compiles_before = xqy_ifp::algebra::compile_count();
        let outcome = prepared.execute(&mut engine, &bindings).unwrap();
        assert_eq!(xqy_ifp::algebra::compile_count(), compiles_before);
        assert!(outcome.fixpoints.len() > 1, "one fixpoint per seed course");
        assert!(outcome
            .fixpoints
            .iter()
            .all(|s| s.backend == FixpointBackendTag::Algebraic));
    }

    #[test]
    fn batched_cells_match_per_item_cells() {
        // The batched variant of a per-item cell computes the same result
        // set with the same (max) depth, while feeding back fewer rows and
        // running as one batched fixpoint.
        let workload = curriculum_workload(Scale::Small);
        for backend in [Backend::Algebraic, Backend::Auto] {
            let mut engine = engine_for(&workload);
            let per_item = run_cell(&mut engine, &workload, backend, FixpointStrategy::Delta);
            let batched =
                run_cell_batched(&mut engine, &workload, backend, FixpointStrategy::Delta);
            assert_eq!(batched.result_size, per_item.result_size);
            assert_eq!(batched.depth, per_item.depth);
            assert!(
                batched.nodes_fed_back <= per_item.nodes_fed_back,
                "batched ({}) must not feed back more than per-item ({})",
                batched.nodes_fed_back,
                per_item.nodes_fed_back
            );
        }
    }

    #[test]
    fn parallel_batched_cells_match_sequential_cells() {
        // The thread policy must change only the wall-clock column: result
        // cardinality, fed-back counts and depth are all part of the
        // sequential-equivalence contract.
        let workload = curriculum_workload(Scale::Small);
        for backend in [Backend::Algebraic, Backend::SourceLevel] {
            let mut engine = engine_for(&workload);
            let sequential =
                run_cell_batched(&mut engine, &workload, backend, FixpointStrategy::Delta);
            let parallel = run_cell_batched_parallel(
                &mut engine,
                &workload,
                backend,
                FixpointStrategy::Delta,
                Parallelism::Fixed(4),
            );
            assert_eq!(parallel.result_size, sequential.result_size);
            assert_eq!(parallel.nodes_fed_back, sequential.nodes_fed_back);
            assert_eq!(parallel.depth, sequential.depth);
        }
    }

    #[test]
    fn quick_table_has_the_expected_rows() {
        let rows = table2_rows(false);
        assert_eq!(rows.len(), 5);
        let full = table2_rows(true);
        assert_eq!(full.len(), 8);
    }
}
