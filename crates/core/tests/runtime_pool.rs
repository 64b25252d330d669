//! A panic at the fixpoint barrier costs the plan the runtime that was in
//! flight, and nothing else.
//!
//! In a test binary of its own: the failpoint registry is process-global,
//! and `fixpoint.barrier` armed on its first hit would fire in whichever
//! test reached a barrier first.

use xqy_ifp::xdm::{fail, NodeStore, Sequence};
use xqy_ifp::{Backend, Bindings, ExecOptions, Parallelism, PreparedQuery, Strategy};

const CURRICULUM: &str = r#"<curriculum>
    <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
    <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
    <course code="c3"><prerequisites/></course>
    <course code="c4"><prerequisites/></course>
</curriculum>"#;

fn closure() -> PreparedQuery {
    PreparedQuery::prepare(
        "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)",
        Strategy::Auto,
        Backend::Algebraic,
        Parallelism::Sequential,
    )
    .unwrap()
}

fn closure_of_c1(plan: &PreparedQuery, store: &mut NodeStore) -> String {
    let course = store.lookup_id(store.doc("curriculum.xml").unwrap(), "c1");
    let seed = Bindings::new().with("seed", Sequence::from_nodes(course));
    let outcome = plan
        .execute_on(&mut *store, &seed, &ExecOptions::default())
        .unwrap();
    outcome.result.display(store)
}

#[test]
fn panic_at_the_barrier_discards_the_runtime_in_flight() {
    let mut store = NodeStore::new();
    let doc = store
        .parse_document_with_uri("curriculum.xml", CURRICULUM)
        .unwrap();
    store.register_id_attribute(doc, "code");
    let expected = closure_of_c1(&closure(), &mut store);
    assert!(expected.contains("c4"));

    let plan = closure();
    assert_eq!(closure_of_c1(&plan, &mut store), expected);
    assert_eq!(plan.runtimes_minted(), 1);

    // The warm runtime is checked out again, and the run panics between
    // two iterations — executors mid-run.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    fail::configure(
        "fixpoint.barrier",
        fail::FaultAction::Panic,
        fail::FaultTrigger::OnNthHit(2),
    );
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        closure_of_c1(&plan, &mut store)
    }));
    fail::reset();
    std::panic::set_hook(default_hook);
    assert!(panicked.is_err(), "the armed barrier fires");
    assert_eq!(plan.runtimes_minted(), 1, "it ran on the pooled runtime");

    // That runtime never came back: the next execution mints a fresh one,
    // answers correctly, and pools it.
    assert_eq!(closure_of_c1(&plan, &mut store), expected);
    assert_eq!(plan.runtimes_minted(), 2);
    assert_eq!(closure_of_c1(&plan, &mut store), expected);
    assert_eq!(plan.runtimes_minted(), 2);
}
