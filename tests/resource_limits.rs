//! Per-query resource limits are enforced by the one fixpoint iteration
//! barrier, so they hold on **every** route — either back-end, a single
//! run or a batch — and budget relief really lets a run finish.

use std::sync::Arc;

use xqy_ifp::algebra::{compile_recursion_body, BatchSharing, Executor};
use xqy_ifp::eval::{EvalError, FixpointStrategy};
use xqy_ifp::parser::parse_expr;
use xqy_ifp::xdm::{budget, NodeId, QueryBudget, Sequence};
use xqy_ifp::{Backend, Bindings, Engine, ExecOptions, IfpError, ResourceLimits, Strategy};

const CLOSURE: &str = "with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)";

/// A linear chain of `courses` courses, `k0 → k1 → …`: the closure of `kᵢ`
/// is the whole suffix, found one node per iteration.
fn chain_engine(courses: usize) -> Engine {
    let mut xml = String::from("<curriculum>");
    for i in 0..courses {
        xml.push_str(&format!(
            "<course code=\"k{i}\"><prerequisites><pre_code>k{}</pre_code></prerequisites></course>",
            i + 1
        ));
    }
    xml.push_str(&format!(
        "<course code=\"k{courses}\"><prerequisites/></course></curriculum>"
    ));
    let mut engine = Engine::new();
    engine
        .load_document_with_ids("chain.xml", &xml, &["code"])
        .unwrap();
    engine
}

fn courses(engine: &mut Engine, first: usize) -> Sequence {
    let all = engine
        .run("doc('chain.xml')/curriculum/course")
        .unwrap()
        .result;
    Sequence::from_nodes(all.nodes().into_iter().take(first))
}

#[test]
fn max_result_nodes_caps_the_accumulator_on_every_route() {
    let mut engine = chain_engine(40);
    engine.set_strategy(Strategy::Delta);
    let seeds = courses(&mut engine, 3);
    let capped = ExecOptions {
        limits: ResourceLimits {
            max_result_nodes: Some(10),
            ..ResourceLimits::default()
        },
        ..ExecOptions::default()
    };

    for backend in [Backend::SourceLevel, Backend::Algebraic] {
        let prepared = engine.prepare(CLOSURE).unwrap().with_backend(backend);
        let single = Bindings::new().with("seed", courses(&mut engine, 1));
        let none = Bindings::new();
        let store = engine.store_mut();

        // Unlimited, every closure is the whole suffix of the chain.
        let free = ExecOptions::default();
        let outcome = prepared.execute_on(&mut *store, &single, &free).unwrap();
        assert_eq!(outcome.result.len(), 40);
        let batch = prepared
            .execute_batched_on(&mut *store, "seed", &seeds, &none, &free)
            .unwrap();
        assert_eq!(batch.outcome.result.len(), 40 + 39 + 38);

        let routes = [
            prepared
                .execute_on(&mut *store, &single, &capped)
                .map(|outcome| outcome.result.len()),
            prepared
                .execute_batched_on(&mut *store, "seed", &seeds, &none, &capped)
                .map(|batch| batch.outcome.result.len()),
        ];
        for (route, result) in ["execute", "execute_batched"].into_iter().zip(routes) {
            match result {
                Err(IfpError::Eval(EvalError::BudgetExceeded {
                    budget,
                    used,
                    limit,
                    occurrence,
                    iterations,
                })) => {
                    // One node per iteration: the 11th trips the cap.
                    assert_eq!(
                        (
                            budget.as_str(),
                            used,
                            limit,
                            occurrence.as_str(),
                            iterations
                        ),
                        ("result-nodes", 11, 10, "x", 10),
                        "{route} on the {} back-end",
                        backend.name()
                    );
                }
                other => panic!(
                    "{route} on the {} back-end ignored max_result_nodes: {other:?}",
                    backend.name()
                ),
            }
        }
    }
}

#[test]
fn a_shared_batch_over_its_memory_budget_stops_with_a_typed_error() {
    let mut engine = chain_engine(80);
    engine.set_strategy(Strategy::Delta);
    let seeds = courses(&mut engine, 72);
    let small = ExecOptions {
        limits: ResourceLimits {
            max_memory_bytes: Some(4 << 10),
            ..ResourceLimits::default()
        },
        ..ExecOptions::default()
    };
    for backend in [Backend::SourceLevel, Backend::Algebraic] {
        let prepared = engine.prepare(CLOSURE).unwrap().with_backend(backend);
        let store = engine.store_mut();
        let free = prepared
            .execute_batched_on(
                &mut *store,
                "seed",
                &seeds,
                &Bindings::new(),
                &ExecOptions::default(),
            )
            .unwrap();
        assert!(free.batched);
        let capped =
            prepared.execute_batched_on(&mut *store, "seed", &seeds, &Bindings::new(), &small);
        match capped {
            Err(IfpError::Eval(EvalError::BudgetExceeded { budget, .. })) => {
                assert_eq!(budget, "memory", "on the {} back-end", backend.name())
            }
            other => panic!(
                "a shared batch on the {} back-end ignored max_memory_bytes: {other:?}",
                backend.name()
            ),
        }
    }
}

/// One batched algebraic run on a fresh executor under `budget`: its
/// `(iter, item)` rows.  The store's memos are warmed first, so what the
/// run charges is the same on every call.
fn budgeted_run(
    engine: &mut Engine,
    seeds: &[NodeId],
    budget: &Arc<QueryBudget>,
) -> Result<usize, String> {
    // The prerequisite closure behind a rec-independent condition: the
    // condition's relations are what the executor caches across rounds — and
    // what relief can free — and the plan is still seed-carried.
    let body = "if (doc('chain.xml')/curriculum/course) \
                then $x/id(./prerequisites/pre_code) else $x/id(./prerequisites/pre_code)";
    let compiled = compile_recursion_body(&parse_expr(body).unwrap(), "x").unwrap();
    let plan = compiled.batched_plan.as_ref().unwrap();
    let run = |engine: &mut Engine| {
        Executor::new().run_fixpoint_batched(
            engine.store_mut(),
            plan,
            seeds,
            FixpointStrategy::Delta,
            false,
            BatchSharing::DistinctNodes,
        )
    };
    run(engine).unwrap();
    let _scope = budget::install(Arc::clone(budget));
    run(engine)
        .map(|(relation, _)| relation.len())
        .map_err(|e| e.to_string())
}

#[test]
fn memory_relief_lets_the_run_finish_with_the_same_rows() {
    // 72 seeds are two lanes of a shared batch.
    let mut engine = chain_engine(80);
    let seeds = courses(&mut engine, 72).nodes();

    // Unbudgeted (a metering cell nothing trips).
    let meter = QueryBudget::new(u64::MAX);
    let rows = budgeted_run(&mut engine, &seeds, &meter).unwrap();
    let again = QueryBudget::new(u64::MAX);
    assert_eq!(budgeted_run(&mut engine, &seeds, &again), Ok(rows));
    assert_eq!(
        again.used(),
        meter.used(),
        "charges repeat exactly on a fresh executor"
    );

    // Charges only grow, so the smallest limit that never trips is what
    // the last barrier sees; one byte less trips exactly that barrier,
    // relief frees the executor's static relations, and the last round runs
    // on.
    let (mut trips, mut passes) = (0, meter.used());
    while passes - trips > 1 {
        let limit = trips + (passes - trips) / 2;
        let budget = QueryBudget::new(limit);
        let result = budgeted_run(&mut engine, &seeds, &budget);
        if result.is_ok() && !budget.relieved() {
            passes = limit;
        } else {
            trips = limit;
        }
    }
    let budget = QueryBudget::new(passes - 1);
    let result = budgeted_run(&mut engine, &seeds, &budget);
    assert!(budget.relieved(), "one byte under the last barrier's usage");
    assert_eq!(result, Ok(rows), "the relieved run returns the same answer");
}
