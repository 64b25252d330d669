//! The `XQY_FAULTS` environment path of `xqy_xdm::fail`, which must be
//! pinned from a process where no other code has touched the failpoint
//! API first: the spec is parsed lazily by the *first* `point()` call,
//! and a regression here (e.g. a disabled fast path that never reaches
//! the parser) is invisible to tests that arm sites programmatically.
//! Integration tests get their own process, and this file holds exactly
//! one test, so the set-env-then-first-use ordering is deterministic.

use xqy_xdm::fail;

#[test]
fn env_spec_arms_failpoints_without_any_programmatic_call() {
    // Safe here: one test, one thread, set before any fail:: use.
    std::env::set_var("XQY_FAULTS", "env.site=error@2; env.panic=panic@1");

    // First use ever in this process: the fast path must initialize the
    // registry (parsing the env spec) rather than short-circuit to "no
    // faults armed".
    assert!(fail::point("env.site").is_ok(), "hit 1 of 2 must pass");
    let err = fail::point("env.site").expect_err("hit 2 must fire from the env spec");
    assert_eq!(err.site, "env.site");
    assert_eq!(err.hit, 2);

    let caught = std::panic::catch_unwind(|| fail::point("env.panic"));
    let payload = caught.expect_err("panic action must fire from the env spec");
    let message = payload
        .downcast_ref::<String>()
        .expect("injected panics carry a string payload");
    assert!(message.contains("injected fault at env.panic"));

    let fired = fail::fired_sites();
    assert!(fired.contains(&"env.site".to_string()), "got {fired:?}");
    assert!(fired.contains(&"env.panic".to_string()), "got {fired:?}");
    fail::reset();
}
