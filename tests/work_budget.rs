//! What one execution of a Table-2 body costs, held against the allocator
//! and the fixpoint counters: a test binary of its own because it installs a
//! counting `#[global_allocator]`.
//!
//! Every cell runs one of the four Table-2 bodies at Small scale under
//! {Naïve, Delta} × {`SourceLevel`, `Algebraic`} × {`single`: one fixpoint
//! seeded by [`BATCH`] nodes, `for`: a loop of one fixpoint per node}.
//! After a warm-up execution (which fills the store's memos), a freshly
//! prepared query executes once under the counters: allocator calls and bytes are pinned from above, the nodes
//! fed back, body evaluations, recursion depth, the nodes passed through
//! `NodeStore::sort_distinct` and the `id()` arguments tokenised at probe
//! time exactly — an in-place sort allocates nothing, so only the sort
//! column sees a sort put back where none was, and a probe that no longer
//! reads the document's ID adjacency allocates nothing either, so only the
//! last column sees it.  A fresh prepared query carries no observed cost,
//! so the plan decision is the same every run.
//!
//! A pin that fails prints the whole measured table in the shape of
//! [`PINS`].  Lower a pin when the work goes down; a pin that has to go up
//! is a regression to explain.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use xqy_datagen::{auction, curriculum, hospital, play, Scale};
use xqy_ifp::xdm::{sorted_count, tokenised_count, Sequence};
use xqy_ifp::{Backend, Bindings, Engine, PreparedQuery, Strategy};

/// The system allocator, counting calls and requested bytes.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Seeds of a cell: the last this many nodes of the workload's seed path.
const BATCH: usize = 12;

/// One cell's measured work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    /// Allocator calls (`alloc` + `realloc`) during the execution.
    allocs: u64,
    /// Bytes those calls requested.
    bytes: u64,
    /// `FixpointStats::nodes_fed_back`, summed over the runs.
    fed_back: u64,
    /// `FixpointStats::payload_calls`, summed over the runs.
    body_evals: usize,
    /// `FixpointStats::iterations`, the deepest run's.
    depth: usize,
    /// Nodes passed through `NodeStore::sort_distinct` during the execution.
    sorted: u64,
    /// `id()` argument nodes resolved by tokenising their string value
    /// rather than from the document's ID adjacency (`tokenised_count`).
    tokenised: u64,
}

/// `(workload, strategy, back-end, shape)` and its pinned work: `allocs`
/// and `bytes` are upper bounds, the rest exact.
type Pin = (&'static str, &'static str, &'static str, &'static str, Work);

const fn w(
    allocs: u64,
    bytes: u64,
    fed_back: u64,
    body_evals: usize,
    depth: usize,
    sorted: u64,
    tokenised: u64,
) -> Work {
    Work {
        allocs,
        bytes,
        fed_back,
        body_evals,
        depth,
        sorted,
        tokenised,
    }
}

/// Measured in a debug build; the allocator figures carry 5 % headroom
/// above the reading (a release build reads at most one call fewer).
#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("curriculum", "naive", "source", "single", w(359, 80187, 1217, 21, 20, 553, 0)),
    ("curriculum", "naive", "source", "for", w(2510, 446558, 6917, 184, 21, 6566, 0)),
    ("curriculum", "naive", "algebraic", "single", w(260, 51225, 1217, 21, 20, 0, 0)),
    ("curriculum", "naive", "algebraic", "for", w(2171, 373488, 6917, 184, 21, 0, 0)),
    ("curriculum", "delta", "source", "single", w(266, 23067, 90, 21, 20, 114, 0)),
    ("curriculum", "delta", "source", "for", w(637, 63249, 511, 85, 21, 231, 0)),
    ("curriculum", "delta", "algebraic", "single", w(214, 21758, 90, 21, 20, 0, 0)),
    ("curriculum", "delta", "algebraic", "for", w(414, 56875, 511, 21, 21, 85, 0)),
    ("auction", "naive", "source", "single", w(150, 56658, 486, 6, 5, 34, 0)),
    ("auction", "naive", "source", "for", w(1243, 336233, 3927, 72, 9, 497, 0)),
    ("auction", "naive", "algebraic", "single", w(120, 44393, 486, 6, 5, 0, 0)),
    ("auction", "naive", "algebraic", "for", w(1161, 388465, 3927, 72, 9, 0, 0)),
    ("auction", "delta", "source", "single", w(140, 36137, 130, 6, 5, 48, 0)),
    ("auction", "delta", "source", "for", w(737, 111365, 1074, 119, 9, 615, 0)),
    ("auction", "delta", "algebraic", "single", w(120, 31172, 130, 6, 5, 0, 0)),
    ("auction", "delta", "algebraic", "for", w(398, 113140, 1074, 6, 9, 119, 0)),
    ("play", "naive", "source", "single", w(243, 50888, 825, 17, 16, 705, 0)),
    ("play", "naive", "source", "for", w(1076, 109811, 355, 81, 16, 343, 0)),
    ("play", "naive", "algebraic", "single", w(204, 39698, 825, 17, 16, 0, 0)),
    ("play", "naive", "algebraic", "for", w(1019, 115322, 355, 81, 16, 0, 0)),
    ("play", "delta", "source", "single", w(224, 23352, 80, 17, 16, 68, 0)),
    ("play", "delta", "source", "for", w(570, 39843, 80, 80, 16, 148, 0)),
    ("play", "delta", "algebraic", "single", w(183, 22360, 80, 17, 16, 0, 0)),
    ("play", "delta", "algebraic", "for", w(340, 31542, 80, 17, 16, 80, 0)),
    ("hospital", "naive", "source", "single", w(129, 39968, 195, 5, 4, 71, 0)),
    ("hospital", "naive", "source", "for", w(951, 159497, 206, 60, 4, 235, 0)),
    ("hospital", "naive", "algebraic", "single", w(110, 32182, 195, 5, 4, 0, 0)),
    ("hospital", "naive", "algebraic", "for", w(957, 175071, 206, 60, 4, 0, 0)),
    ("hospital", "delta", "source", "single", w(98, 21723, 98, 5, 4, 86, 0)),
    ("hospital", "delta", "source", "for", w(596, 49150, 105, 98, 4, 188, 0)),
    ("hospital", "delta", "algebraic", "single", w(95, 22270, 98, 5, 4, 0, 0)),
    ("hospital", "delta", "algebraic", "for", w(266, 38399, 105, 5, 4, 98, 0)),
];

struct Workload {
    name: &'static str,
    uri: &'static str,
    xml: String,
    id_attrs: &'static [&'static str],
    seeds: &'static str,
    body: &'static str,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "curriculum",
            uri: curriculum::DOC_URI,
            xml: curriculum::generate(&curriculum::CurriculumConfig::for_scale(Scale::Small)),
            id_attrs: &["code"],
            seeds: "doc('curriculum.xml')/curriculum/course",
            body: curriculum::BODY,
        },
        Workload {
            name: "auction",
            uri: auction::DOC_URI,
            xml: auction::generate(&auction::AuctionConfig::for_scale(Scale::Small)),
            id_attrs: &[],
            seeds: "doc('auction.xml')/site/people/person",
            body: auction::BODY,
        },
        Workload {
            name: "play",
            uri: play::DOC_URI,
            xml: play::generate(&play::PlayConfig::for_scale(Scale::Small)),
            id_attrs: &[],
            seeds: "doc('play.xml')//SPEECH[@start='1']",
            body: play::BODY,
        },
        Workload {
            name: "hospital",
            uri: hospital::DOC_URI,
            xml: hospital::generate(&hospital::HospitalConfig::for_scale(Scale::Small)),
            id_attrs: &[],
            seeds: "doc('hospital.xml')/hospital/patient[@disease='yes']",
            body: hospital::BODY,
        },
    ]
}

/// The cell's work over a freshly prepared `query`, after a warm-up
/// execution of another preparation of it.
fn measure(
    engine: &mut Engine,
    query: &str,
    strategy: Strategy,
    backend: Backend,
    bindings: &Bindings,
) -> Work {
    let prepare = || PreparedQuery::new(query, strategy, backend);
    prepare().unwrap().execute(engine, bindings).unwrap();
    let prepared = prepare().unwrap();
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let (sorted, tokenised) = (sorted_count(), tokenised_count());
    let outcome = prepared.execute(engine, bindings).unwrap();
    let (allocs, bytes) = (CALLS.load(Relaxed) - calls, BYTES.load(Relaxed) - bytes);
    let (sorted, tokenised) = (sorted_count() - sorted, tokenised_count() - tokenised);
    let runs = &outcome.fixpoints;
    Work {
        allocs,
        bytes,
        fed_back: runs.iter().map(|r| r.nodes_fed_back).sum(),
        body_evals: runs.iter().map(|r| r.payload_calls).sum(),
        depth: runs.iter().map(|r| r.iterations).max().unwrap_or(0),
        sorted,
        tokenised,
    }
}

/// One test, so that nothing else in this binary allocates while a cell is
/// measured.
#[test]
fn table_2_cells_stay_within_their_work_pins() {
    let mut measured: Vec<Pin> = Vec::new();
    for workload in workloads() {
        let mut engine = Engine::new();
        engine
            .load_document_with_ids(workload.uri, &workload.xml, workload.id_attrs)
            .unwrap();
        let seeds = engine.run(workload.seeds).unwrap().result.nodes();
        assert!(
            seeds.len() >= BATCH,
            "{}: {} seeds",
            workload.name,
            seeds.len()
        );
        let bindings = Bindings::new().with(
            "seed",
            Sequence::from_nodes(seeds[seeds.len() - BATCH..].to_vec()),
        );
        let single = format!("with $x seeded by $seed recurse {}", workload.body);
        let looped = format!(
            "for $s in $seed return (with $x seeded by $s recurse {})",
            workload.body
        );
        for (strategy, strategy_name) in [(Strategy::Naive, "naive"), (Strategy::Delta, "delta")] {
            for (backend, backend_name) in [
                (Backend::SourceLevel, "source"),
                (Backend::Algebraic, "algebraic"),
            ] {
                for (shape, query) in [("single", &single), ("for", &looped)] {
                    let work = measure(&mut engine, query, strategy, backend, &bindings);
                    measured.push((workload.name, strategy_name, backend_name, shape, work));
                }
            }
        }
    }

    let table: String = measured
        .iter()
        .map(|(workload, strategy, backend, shape, m)| {
            format!(
                "    ({workload:?}, {strategy:?}, {backend:?}, {shape:?}, w({}, {}, {}, {}, {}, {}, {})),\n",
                m.allocs, m.bytes, m.fed_back, m.body_evals, m.depth, m.sorted, m.tokenised
            )
        })
        .collect();
    assert_eq!(measured.len(), PINS.len(), "measured:\n{table}");
    for (pin, got) in PINS.iter().zip(&measured) {
        let (key, want, work) = ((pin.0, pin.1, pin.2, pin.3), pin.4, got.4);
        assert_eq!(key, (got.0, got.1, got.2, got.3), "measured:\n{table}");
        let exact = (
            work.fed_back,
            work.body_evals,
            work.depth,
            work.sorted,
            work.tokenised,
        );
        assert_eq!(
            exact,
            (
                want.fed_back,
                want.body_evals,
                want.depth,
                want.sorted,
                want.tokenised
            ),
            "{key:?}: fed back, body evaluations, depth, nodes sorted, id() arguments \
             tokenised; measured:\n{table}"
        );
        assert!(
            work.allocs <= want.allocs && work.bytes <= want.bytes,
            "{key:?}: {} allocations of {} bytes, pinned at most {} of {}; measured:\n{table}",
            work.allocs,
            work.bytes,
            want.allocs,
            want.bytes
        );
    }
}
