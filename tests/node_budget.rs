//! What a node costs, held against the allocator: a test binary of its own
//! because it installs a counting `#[global_allocator]`.
//!
//! A node is one 32-byte record in its document's arena and owns no heap
//! block, so (1) parsing allocates per *distinct* name and payload and per
//! arena doubling, not per node, and (2) what `QueryBudget` is charged for
//! constructed nodes is what the allocator handed out for them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use xqy_datagen::{hospital, Scale};
use xqy_ifp::xdm::{budget, NodeStore, QueryBudget};
use xqy_ifp::Engine;

/// The system allocator, counting calls and live bytes.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE.fetch_add(new_size as u64, Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide: one measurement at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Allocator calls made and live bytes gained while `work` ran; what it
/// returns stays alive across the second reading.
fn measure<T>(work: impl FnOnce() -> T) -> (T, u64, i64) {
    let (calls, live) = (CALLS.load(Relaxed), LIVE.load(Relaxed));
    let kept = work();
    let grown = LIVE.load(Relaxed) as i64 - live as i64;
    (kept, CALLS.load(Relaxed) - calls, grown)
}

#[test]
fn parsing_allocates_per_distinct_string_not_per_node() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let xml = hospital::generate(&hospital::HospitalConfig::for_scale(Scale::Small));
    let mut store = NodeStore::new();
    let (_, calls, grown) = measure(|| store.parse_document(&xml).expect("generated XML parses"));
    let nodes = store.nodes_created();
    let distinct = store.statistics().text_pool_strings;
    assert!(nodes > 10_000, "hospital Small has {nodes} nodes");

    // One `Arc<str>` per distinct payload (2 002 ids and flags over 10 760
    // nodes) is the text pool's; beyond those, the arena's and the pool
    // tables' doublings are all there is (66 calls when this was written).
    let beyond_pool = calls.saturating_sub(distinct);
    assert!(
        beyond_pool as f64 <= 0.05 * nodes as f64,
        "{calls} allocator calls for {nodes} nodes and {distinct} distinct payloads"
    );
    // 32 bytes of arena per node; the rest is the text pool — its strings
    // and the two tables over them, 17 bytes a node on this document.
    let per_node = grown as f64 / nodes as f64;
    assert!(per_node <= 52.0, "{per_node:.1} resident bytes per node");

    // A second copy of the document meets every name and payload again:
    // nothing left to allocate but its arena.
    let (_, calls, grown) = measure(|| store.parse_document(&xml).expect("parses again"));
    let added = store.nodes_created() - nodes;
    assert!(
        calls as f64 <= 0.05 * added as f64,
        "{calls} allocator calls for {added} more nodes"
    );
    let per_node = grown as f64 / added as f64;
    assert!(per_node <= 33.0, "{per_node:.1} resident bytes per node");
}

#[test]
fn the_budget_is_charged_what_constructed_nodes_cost() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut engine = Engine::new();
    // Constructor-heavy: 3 000 fragments of five nodes over five names and
    // two payloads, so nodes are all that grows.
    let query = "for $i in 1 to 3000 return <row kind=\"k\"><cell/><cell>t</cell></row>";
    engine.run(query).expect("warm-up run");
    let cell = QueryBudget::new(u64::MAX);
    let _scope = budget::install(Arc::clone(&cell));
    let (outcome, _, grown) = measure(|| engine.run(query).expect("constructors evaluate"));
    assert_eq!(outcome.result.len(), 3000);
    let (charged, real) = (cell.used() as f64, grown as f64);
    assert!(
        charged <= 1.25 * real && real <= 1.25 * charged,
        "charged {charged} bytes, the allocator handed out {real}"
    );
}
