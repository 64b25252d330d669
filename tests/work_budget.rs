//! What one execution of a Table-2 body costs, held against the allocator
//! and the fixpoint counters: a test binary of its own because it installs a
//! counting `#[global_allocator]`.
//!
//! Every cell runs one of the four Table-2 bodies at Small scale under
//! {Naïve, Delta} × {`SourceLevel`, `Algebraic`} × {`single`: one fixpoint
//! seeded by [`BATCH`] nodes, `for`: a loop of one fixpoint per node}.
//! After a warm-up execution (which fills the store's memos), a freshly
//! prepared query executes once under the counters: allocator calls and bytes are pinned from above, the nodes
//! fed back, body evaluations and recursion depth exactly.  The queries are
//! prepared with [`Parallelism::Sequential`], so a run under
//! `XQY_FIXPOINT_THREADS` reads the same numbers; a fresh prepared query
//! carries no observed cost, so the plan decision is the same every run.
//!
//! A pin that fails prints the whole measured table in the shape of
//! [`PINS`].  Lower a pin when the work goes down; a pin that has to go up
//! is a regression to explain.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use xqy_datagen::{auction, curriculum, hospital, play, Scale};
use xqy_ifp::xdm::Sequence;
use xqy_ifp::{Backend, Bindings, Engine, Parallelism, PreparedQuery, Strategy};

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
}

/// `(workload, strategy, back-end, shape)` and its pinned work: `allocs`
/// and `bytes` are upper bounds, the rest exact.
type Pin = (&'static str, &'static str, &'static str, &'static str, Work);

const fn w(allocs: u64, bytes: u64, fed_back: u64, body_evals: usize, depth: usize) -> Work {
    Work {
        allocs,
        bytes,
        fed_back,
        body_evals,
        depth,
    }
}

/// Measured in a debug build; the allocator figures carry 5 % headroom
/// above the reading (a release build reads at most one call fewer).
#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("curriculum", "naive", "source", "single", w(992, 287579, 1217, 21, 20)),
    ("curriculum", "naive", "source", "for", w(6503, 1500368, 6917, 184, 21)),
    ("curriculum", "naive", "algebraic", "single", w(1997, 808891, 1217, 21, 20)),
    ("curriculum", "naive", "algebraic", "for", w(15393, 4407981, 6917, 184, 21)),
    ("curriculum", "delta", "source", "single", w(382, 30135, 90, 21, 20)),
    ("curriculum", "delta", "source", "for", w(901, 71729, 511, 85, 21)),
    ("curriculum", "delta", "algebraic", "single", w(1243, 94042, 90, 21, 20)),
    ("curriculum", "delta", "algebraic", "for", w(1568, 156353, 511, 21, 21)),
    ("auction", "naive", "source", "single", w(578, 339558, 486, 6, 5)),
    ("auction", "naive", "source", "for", w(5197, 2783165, 3927, 72, 9)),
    ("auction", "naive", "algebraic", "single", w(1036, 867266, 486, 6, 5)),
    ("auction", "naive", "algebraic", "for", w(10192, 7021262, 3927, 72, 9)),
    ("auction", "delta", "source", "single", w(377, 121208, 130, 6, 5)),
    ("auction", "delta", "source", "for", w(1913, 160433, 1074, 119, 9)),
    ("auction", "delta", "algebraic", "single", w(832, 303677, 130, 6, 5)),
    ("auction", "delta", "algebraic", "for", w(1172, 457383, 1074, 6, 9)),
    ("play", "naive", "source", "single", w(414, 83509, 825, 17, 16)),
    ("play", "naive", "source", "for", w(1319, 120962, 355, 81, 16)),
    ("play", "naive", "algebraic", "single", w(1002, 195580, 825, 17, 16)),
    ("play", "naive", "algebraic", "for", w(3392, 224486, 355, 81, 16)),
    ("play", "delta", "source", "single", w(273, 25482, 80, 17, 16)),
    ("play", "delta", "source", "for", w(726, 45147, 80, 80, 16)),
    ("play", "delta", "algebraic", "single", w(706, 47385, 80, 17, 16)),
    ("play", "delta", "algebraic", "for", w(943, 71849, 80, 17, 16)),
    ("hospital", "naive", "source", "single", w(227, 67490, 195, 5, 4)),
    ("hospital", "naive", "source", "for", w(1217, 168833, 206, 60, 4)),
    ("hospital", "naive", "algebraic", "single", w(461, 122948, 195, 5, 4)),
    ("hospital", "naive", "algebraic", "for", w(3397, 285856, 206, 60, 4)),
    ("hospital", "delta", "source", "single", w(141, 23037, 98, 5, 4)),
    ("hospital", "delta", "source", "for", w(835, 54581, 105, 98, 4)),
    ("hospital", "delta", "algebraic", "single", w(370, 56195, 98, 5, 4)),
    ("hospital", "delta", "algebraic", "for", w(545, 90156, 105, 5, 4)),
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
    let prepare = || PreparedQuery::prepare(query, strategy, backend, Parallelism::Sequential);
    prepare().unwrap().execute(engine, bindings).unwrap();
    let prepared = prepare().unwrap();
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let outcome = prepared.execute(engine, bindings).unwrap();
    let (allocs, bytes) = (CALLS.load(Relaxed) - calls, BYTES.load(Relaxed) - bytes);
    let runs = &outcome.fixpoints;
    Work {
        allocs,
        bytes,
        fed_back: runs.iter().map(|r| r.nodes_fed_back).sum(),
        body_evals: runs.iter().map(|r| r.payload_calls).sum(),
        depth: runs.iter().map(|r| r.iterations).max().unwrap_or(0),
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
                "    ({workload:?}, {strategy:?}, {backend:?}, {shape:?}, w({}, {}, {}, {}, {})),\n",
                m.allocs, m.bytes, m.fed_back, m.body_evals, m.depth
            )
        })
        .collect();
    assert_eq!(measured.len(), PINS.len(), "measured:\n{table}");
    for (pin, got) in PINS.iter().zip(&measured) {
        let (key, want, work) = ((pin.0, pin.1, pin.2, pin.3), pin.4, got.4);
        assert_eq!(key, (got.0, got.1, got.2, got.3), "measured:\n{table}");
        let exact = (work.fed_back, work.body_evals, work.depth);
        assert_eq!(
            exact,
            (want.fed_back, want.body_evals, want.depth),
            "{key:?}: fed back, body evaluations, depth; measured:\n{table}"
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
