//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! Layers are the crates under test.  Everything here is measured from the
//! harness side, by opening a span around a call into a crate's *public*
//! function; what a crate calls below itself is inside its span (spans
//! inside the crates are ROADMAP item 2).  A traced run has two parts:
//!
//! 1. **Layer probes** — the same for every workload: each layer's public
//!    entry points called directly on standard inputs made from `--seed`
//!    (Medium auction and curriculum, Large hospital, a corpus of cold
//!    query texts, a small service scenario).
//! 2. **Replay** — the workload's own operations, each run three ways:
//!    bundled with tracing off, bundled inside a span, and "unbundled" as
//!    direct calls into the layer below.  The shares of the operation's
//!    time per layer come from here, and so does `trace.overhead_share`.
//!
//! Every answer obtained on the way is checked against the oracle.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::api::{
    self, AlgebraBody, Algo, Answer, BodyExpr, Db, Family, Node, OwnedStore, Parsed, Res, Set,
    Size, Snapshot, Via,
};
use crate::inputs::{derive, Doc, Rng, AUCTION, CURRICULUM, HOSPITAL};
use crate::oracle::{self, Expected};
use crate::run::{extras, measure, proc_status_mb, Metric, Outcome};
use crate::stats::{geomean, median, percentile};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Built, Cold, Engine, EngineCell, Publish, Read, Shape, Workload};

/// Every per-layer metric with its unit, in the order it is printed.  This
/// list and `BENCHMARK.json` must agree; `ledger check` holds them to it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xdm.parse_mb_s", "MB/s"),
    ("xdm.store_bytes_per_xml_byte", "ratio"),
    ("xdm.clone_ms", "ms"),
    ("xdm.refresh_all_ms", "ms"),
    ("xdm.statistics_ms", "ms"),
    ("xdm.nodeset_union_ns_per_node", "ns"),
    ("xdm.nodeset_except_ns_per_node", "ns"),
    ("xdm.nodeset_to_vec_ns_per_node", "ns"),
    ("xdm.lookup_id_ns", "ns"),
    ("xdm.id_probe_hit_share", "ratio"),
    ("xdm.string_value_ns", "ns"),
    ("parser.parse_us", "us"),
    ("parser.parse_mb_s", "MB/s"),
    ("parser.lex_mb_s", "MB/s"),
    ("core.syntactic_us", "us"),
    ("core.analyse_us", "us"),
    ("core.decide_us", "us"),
    ("core.prepare_us", "us"),
    ("core.prepare_glue_share", "ratio"),
    ("core.execute_overhead_us", "us"),
    ("core.auto_regret", "ratio"),
    ("core.distributive_share.syntactic", "ratio"),
    ("core.distributive_share.algebraic", "ratio"),
    ("algebra.compile_us", "us"),
    ("algebra.pushup_us", "us"),
    ("algebra.fixpoint_perseed_ms", "ms"),
    ("algebra.fixpoint_batched_ms", "ms"),
    ("algebra.fixpoint_naive_ms", "ms"),
    ("algebra.batched_t2_ms", "ms"),
    ("algebra.ns_per_fed_row", "ns"),
    ("algebra.static_cache_hit_share", "ratio"),
    ("algebra.rows_fed_back", "count"),
    ("algebra.body_evaluations", "count"),
    ("algebra.depth", "count"),
    ("eval.fixpoint_perseed_ms", "ms"),
    ("eval.fixpoint_batched_ms", "ms"),
    ("eval.fixpoint_naive_ms", "ms"),
    ("eval.batched_t2_ms", "ms"),
    ("eval.ns_per_fed_node", "ns"),
    ("eval.nodes_fed_back", "count"),
    ("eval.payload_calls", "count"),
    ("eval.depth", "count"),
    ("eval.path_step_ns", "ns"),
    ("service.noop_us", "us"),
    ("service.overhead_us", "us"),
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p95_us", "us"),
    ("service.cache_hit_share", "ratio"),
    ("service.forks", "count"),
    ("service.tail_p95_ms", "ms"),
    ("service.p99_ms", "ms"),
    ("service.saturated", "count"),
    ("service.deadline_exceeded", "count"),
    ("service.publish_p50_ms", "ms"),
    ("service.publish_ms_per_mnode", "ms"),
    ("service.first_publish_ms", "ms"),
    ("service.first_query_after_publish_ms", "ms"),
    ("replay.share.parser", "ratio"),
    ("replay.share.core", "ratio"),
    ("replay.share.algebra", "ratio"),
    ("replay.share.eval", "ratio"),
    ("replay.share.service", "ratio"),
    ("replay.fed_back_nodes", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Where the numbers and the verdicts of a traced run collect.
struct Ledger {
    tracer: Tracer,
    values: BTreeMap<&'static str, (f64, usize)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    tiny: bool,
}

impl Ledger {
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Count one checked answer.
    fn check(&mut self, what: &str, result: &Res<Answer>, expected: &Expected) {
        self.attempted += 1;
        if let Err(note) = workloads::judge(what, result, expected, None) {
            self.fail(note);
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Repetitions of a probe: `full` normally, a token few under `check`.
    fn reps(&self, full: usize) -> usize {
        if self.tiny {
            full.min(2)
        } else {
            full
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The standard documents of the probes: the delta workloads' documents
/// without the play.
fn standard_docs(seed: u64, tiny: bool) -> [Doc; 3] {
    [
        Doc::generate(
            Family::Auction,
            workloads::size(Size::Medium, tiny),
            AUCTION,
            seed,
        ),
        Doc::generate(
            Family::Curriculum,
            workloads::size(Size::Medium, tiny),
            CURRICULUM,
            seed,
        ),
        Doc::generate(
            Family::Hospital,
            workloads::size(Size::Large, tiny),
            HOSPITAL,
            seed,
        ),
    ]
}

// ---------------------------------------------------------------------
// xdm
// ---------------------------------------------------------------------

fn parse_all(ledger: &mut Ledger, docs: &[Doc]) -> (OwnedStore, Duration) {
    let mut store = OwnedStore::default();
    let mut took = Duration::ZERO;
    for doc in docs {
        let (result, d) = ledger.tracer.timed("xdm.parse_document_with_uri", || {
            store.parse(&doc.uri, &doc.xml, doc.id_attributes())
        });
        took += d;
        if let Err(e) = result {
            ledger.attempted += 1;
            ledger.fail(format!("parse {}: {e}", doc.uri));
        }
    }
    (store, took)
}

/// `xdm` probes.  Runs first: the store's footprint is read off the
/// process's resident set before anything else has grown it.
fn probe_xdm(ledger: &mut Ledger, docs: &[Doc]) {
    let bytes: usize = docs.iter().map(|d| d.xml.len()).sum();
    let rss_before = proc_status_mb("VmRSS");
    let (raw, first) = parse_all(ledger, docs);
    let rss_after = proc_status_mb("VmRSS");
    ledger.put(
        "xdm.store_bytes_per_xml_byte",
        (rss_after - rss_before) * 1024.0 * 1024.0 / bytes as f64,
        1,
    );
    let mut parse_times = vec![first];
    for _ in 0..ledger.reps(2) {
        parse_times.push(parse_all(ledger, docs).1);
    }
    let rates: Vec<f64> = parse_times
        .iter()
        .map(|d| bytes as f64 / 1e6 / d.as_secs_f64())
        .collect();
    ledger.put("xdm.parse_mb_s", median(&rates), rates.len());

    // `raw` was parsed and never read: its derived indexes and statistics
    // memo are cold, like the service's writer master at every publish().
    let (mut clones, mut refreshes, mut walks) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ledger.reps(5) {
        let (copy, d) = ledger.tracer.timed("xdm.clone", || raw.deep_clone());
        clones.push(ms(d));
        refreshes.push(ms(ledger
            .tracer
            .timed("xdm.refresh_all", || copy.refresh_all())
            .1));
        walks.push(ms(ledger
            .tracer
            .timed("xdm.statistics", || copy.statistics())
            .1));
    }
    ledger.put("xdm.clone_ms", median(&clones), clones.len());
    ledger.put("xdm.refresh_all_ms", median(&refreshes), refreshes.len());
    ledger.put("xdm.statistics_ms", median(&walks), walks.len());

    let warm = raw.deep_clone();
    warm.refresh_all();
    let view = warm.view();
    let persons = workloads::persons(view);
    let courses = workloads::courses(view, CURRICULUM);

    // Set algebra on operands shaped like a bidder fixpoint's: an
    // accumulator of half the persons against one person's network.
    let accumulator: Vec<Node> = persons.iter().copied().step_by(2).collect();
    let network = persons
        .iter()
        .map(|&p| oracle::closure(view, Family::Auction, &[p]).nodes)
        .find(|n| !n.is_empty())
        .unwrap_or_default();
    let (a, b) = (Set::from_nodes(&accumulator), Set::from_nodes(&network));
    let reps = ledger.reps(2_000);
    let operands = ((a.len() + b.len()) * reps).max(1) as f64;
    let (_, d) = ledger.tracer.timed("xdm.nodeset_union", || {
        for _ in 0..reps {
            black_box(black_box(&a).union(black_box(&b)));
        }
    });
    ledger.put(
        "xdm.nodeset_union_ns_per_node",
        d.as_nanos() as f64 / operands,
        reps,
    );
    let (_, d) = ledger.tracer.timed("xdm.nodeset_except", || {
        for _ in 0..reps {
            black_box(black_box(&a).except(black_box(&b)));
        }
    });
    ledger.put(
        "xdm.nodeset_except_ns_per_node",
        d.as_nanos() as f64 / operands,
        reps,
    );
    let (_, d) = ledger.tracer.timed("xdm.nodeset_to_vec", || {
        for _ in 0..reps {
            black_box(black_box(&a).to_vec(view));
        }
    });
    ledger.put(
        "xdm.nodeset_to_vec_ns_per_node",
        d.as_nanos() as f64 / (a.len() * reps).max(1) as f64,
        reps,
    );

    // id() probes: every fixpoint body here follows id links.
    let ids: Vec<&str> = persons
        .iter()
        .filter_map(|&p| view.attribute(p, "id"))
        .collect();
    let anchor = persons[0];
    let reps = ledger.reps(50);
    let hits_before = view.id_probe_hits();
    let (found, d) = ledger.tracer.timed("xdm.lookup_id", || {
        let mut found = 0usize;
        for _ in 0..reps {
            for id in &ids {
                found += usize::from(view.lookup_id(anchor, id).is_some());
            }
        }
        found
    });
    let probes = (ids.len() * reps).max(1);
    ledger.attempted += 1;
    if found != probes {
        ledger.fail(format!("lookup_id found {found} of {probes} person ids"));
    }
    ledger.put(
        "xdm.lookup_id_ns",
        d.as_nanos() as f64 / probes as f64,
        probes,
    );
    ledger.put(
        "xdm.id_probe_hit_share",
        (view.id_probe_hits() - hits_before) as f64 / probes as f64,
        probes,
    );

    let codes: Vec<Node> = courses
        .iter()
        .flat_map(|&c| view.children(c, Some("prerequisites")))
        .flat_map(|p| view.children(p, Some("pre_code")))
        .collect();
    let reps = ledger.reps(20);
    let (_, d) = ledger.tracer.timed("xdm.string_value", || {
        for _ in 0..reps {
            for &code in &codes {
                black_box(view.string_value(code));
            }
        }
    });
    let calls = (codes.len() * reps).max(1);
    ledger.put(
        "xdm.string_value_ns",
        d.as_nanos() as f64 / calls as f64,
        calls,
    );
}

// ---------------------------------------------------------------------
// parser, core analysis, algebra compile: the parts of prepare
// ---------------------------------------------------------------------

/// Time every part of `Engine::prepare` as its own public call, and the
/// bundled call, over a corpus of cold texts.
fn probe_prepare(ledger: &mut Ledger, seed: u64) -> Res<()> {
    let mut db = Engine::load(&workloads::cold_docs(seed))?;
    let corpus = workloads::cold_corpus(db.store(), seed, if ledger.tiny { 3 } else { 50 });
    let bytes: usize = corpus.iter().map(|q| q.text.len()).sum();
    let passes = ledger.reps(4);

    // At a few microseconds a call, the clock reads and the span around it
    // are a visible part of what is timed: measure an empty span and take
    // it off every sample.
    let empty: Vec<f64> = (0..1_000)
        .map(|_| us(ledger.tracer.timed("trace.empty", || ()).1))
        .collect();
    let span_cost = median(&empty);
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut note = |name: &'static str, d: Duration| {
        times
            .entry(name)
            .or_default()
            .push((us(d) - span_cost).max(0.0));
    };
    let (mut syntactic, mut algebraic, mut occurrences) = (0usize, 0usize, 0usize);
    for pass in 0..passes {
        for query in &corpus {
            ledger.tracer.next_op();
            // The bundled call goes first on even passes and last on odd
            // ones: whichever runs second finds the text warm in cache.
            let mut bundled = None;
            if pass % 2 == 0 {
                let (plan, d) = ledger
                    .tracer
                    .timed("core.prepare", || db.prepare(&query.text, None, None, 1));
                note("prepare", d);
                bundled = Some(plan);
            }
            let (tokens, d) = ledger.tracer.timed("parser.lex", || api::lex(&query.text));
            note("lex", d);
            let (parsed, d) = ledger
                .tracer
                .timed("parser.parse_query", || api::parse(&query.text));
            note("parse", d);
            tokens?;
            let parsed = parsed?;
            let (_, d) = ledger
                .tracer
                .timed("core.is_distributivity_safe", || parsed.syntactic());
            note("syntactic", d);
            let (plans, d) = ledger
                .tracer
                .timed("algebra.compile_recursion_body", || parsed.compile());
            note("compile", d);
            for plan in &plans {
                let (_, d) = ledger
                    .tracer
                    .timed("algebra.check_distributivity", || plan.pushup());
                note("pushup", d);
            }
            let (_, d) = ledger.tracer.timed("core.analyse", || db.analyse(&parsed));
            note("analyse", d);
            let plan = bundled.unwrap_or_else(|| {
                let (plan, d) = ledger
                    .tracer
                    .timed("core.prepare", || db.prepare(&query.text, None, None, 1));
                note("prepare", d);
                plan
            });
            let plan = plan?;
            let (_, d) = ledger.tracer.timed("core.decide", || db.decide(&plan));
            note("decide", d);
            if pass == 0 {
                let (s, a, n) = plan.distributive_counts();
                syntactic += s;
                algebraic += a;
                occurrences += n;
            }
        }
    }
    let of = |name: &str| times.get(name).cloned().unwrap_or_default();
    let total_s = |name: &str| of(name).iter().sum::<f64>() / 1e6;
    let samples = of("parse").len();
    ledger.put("parser.parse_us", median(&of("parse")), samples);
    ledger.put(
        "parser.parse_mb_s",
        (bytes * passes) as f64 / 1e6 / total_s("parse"),
        samples,
    );
    ledger.put(
        "parser.lex_mb_s",
        (bytes * passes) as f64 / 1e6 / total_s("lex"),
        samples,
    );
    ledger.put("core.syntactic_us", median(&of("syntactic")), samples);
    ledger.put("core.analyse_us", median(&of("analyse")), samples);
    ledger.put("core.decide_us", median(&of("decide")), samples);
    ledger.put("core.prepare_us", median(&of("prepare")), samples);
    ledger.put("algebra.compile_us", median(&of("compile")), samples);
    ledger.put(
        "algebra.pushup_us",
        median(&of("pushup")),
        of("pushup").len(),
    );
    // What `prepare` spends outside its three parts: collecting occurrences,
    // cost features, free variables, building executors.
    let parts = total_s("parse") + total_s("syntactic") + total_s("compile");
    ledger.put(
        "core.prepare_glue_share",
        1.0 - parts / total_s("prepare"),
        samples,
    );
    let occurrences = occurrences.max(1) as f64;
    ledger.put(
        "core.distributive_share.syntactic",
        syntactic as f64 / occurrences,
        occurrences as usize,
    );
    ledger.put(
        "core.distributive_share.algebraic",
        algebraic as f64 / occurrences,
        occurrences as usize,
    );
    Ok(())
}

// ---------------------------------------------------------------------
// algebra, eval: the same fixpoints on each executor, and core on top
// ---------------------------------------------------------------------

/// A family's seeds on the standard engine, with the oracle's closures.
struct Seeds {
    nodes: Vec<Node>,
    expected: Expected,
    per_seed: Vec<Expected>,
}

fn pick_seeds(
    db: &Db,
    family: Family,
    candidates: Vec<Node>,
    count: usize,
    rng: &mut Rng,
) -> Seeds {
    let mut pool = candidates;
    let mut nodes = Vec::new();
    while nodes.len() < count && !pool.is_empty() {
        nodes.push(pool.swap_remove(rng.below(pool.len())));
    }
    let closures = oracle::closures(db.store(), family, &nodes);
    Seeds {
        per_seed: closures
            .iter()
            .map(|c| Expected::of_nodes(&c.nodes))
            .collect(),
        expected: Expected::of_groups(&closures),
        nodes,
    }
}

/// Sum the Table-2 counters of several answers (depth: the maximum).
fn tally(answers: &[Answer]) -> Answer {
    let mut sum = Answer::default();
    for a in answers {
        sum.fed_back += a.fed_back;
        sum.body_calls += a.body_calls;
        sum.depth = sum.depth.max(a.depth);
        sum.static_hits += a.static_hits;
        sum.static_evals += a.static_evals;
    }
    sum
}

/// `passes` passes of one fixpoint per seed, each inside a span named
/// `span` and checked against the oracle; returns the wall time of every
/// pass and the counters of the last.
fn per_seed_passes(
    ledger: &mut Ledger,
    db: &mut Db,
    seeds: &Seeds,
    passes: usize,
    span: &'static str,
    run: &mut dyn FnMut(&mut Db, Node) -> Res<Answer>,
) -> (Vec<f64>, Answer) {
    let mut pass_ms = Vec::new();
    let mut last = Answer::default();
    for _ in 0..passes {
        let mut answers = Vec::with_capacity(seeds.nodes.len());
        let started = Instant::now();
        for (&node, expected) in seeds.nodes.iter().zip(&seeds.per_seed) {
            ledger.tracer.next_op();
            let result = ledger.tracer.span(span, || run(db, node));
            ledger.check(span, &result, expected);
            answers.extend(result);
        }
        pass_ms.push(ms(started.elapsed()));
        last = tally(&answers);
    }
    (pass_ms, last)
}

fn probe_fixpoints(ledger: &mut Ledger, docs: &[Doc], seed: u64) -> Res<()> {
    let mut db = Engine::load(docs)?;
    let mut rng = Rng::new(derive(seed, "probe-seeds"));
    let count = if ledger.tiny { 8 } else { 40 };
    let bidder = pick_seeds(
        &db,
        Family::Auction,
        workloads::persons(db.store()),
        count,
        &mut rng,
    );
    let curric = pick_seeds(
        &db,
        Family::Curriculum,
        workloads::courses(db.store(), CURRICULUM),
        count,
        &mut rng,
    );
    let passes = ledger.reps(3);

    let body = BodyExpr::parse(Family::Auction.body())?;
    let mut algebra = AlgebraBody::compile(&body)?;
    let bidder_module = api::parse(&format!(
        "with $x seeded by $seed recurse {}",
        Family::Auction.body()
    ))?;

    // -- algebra: Executor::run_fixpoint directly, one seed at a time -----
    let (delta_ms, delta) = per_seed_passes(
        ledger,
        &mut db,
        &bidder,
        passes,
        "algebra.run_fixpoint",
        &mut |db, node| algebra.run(db, &[node], Algo::Delta),
    );
    ledger.put(
        "algebra.fixpoint_perseed_ms",
        median(&delta_ms),
        delta_ms.len(),
    );
    ledger.put(
        "algebra.ns_per_fed_row",
        median(&delta_ms) * 1e6 / delta.fed_back.max(1) as f64,
        delta_ms.len(),
    );
    ledger.put(
        "algebra.static_cache_hit_share",
        delta.static_hits as f64 / (delta.static_hits + delta.static_evals).max(1) as f64,
        delta_ms.len(),
    );
    ledger.put("algebra.rows_fed_back", delta.fed_back as f64, 1);
    ledger.put("algebra.body_evaluations", delta.body_calls as f64, 1);
    ledger.put("algebra.depth", delta.depth as f64, 1);
    let (naive_ms, _) = per_seed_passes(
        ledger,
        &mut db,
        &bidder,
        passes,
        "algebra.run_fixpoint",
        &mut |db, node| algebra.run(db, &[node], Algo::Naive),
    );
    ledger.put(
        "algebra.fixpoint_naive_ms",
        median(&naive_ms),
        naive_ms.len(),
    );

    // -- eval: the interpreter's driver directly --------------------------
    let (delta_ms, delta) = per_seed_passes(
        ledger,
        &mut db,
        &bidder,
        passes,
        "eval.eval_module",
        &mut |db, node| db.eval_module(&bidder_module, Some(&[node]), Algo::Delta),
    );
    ledger.put(
        "eval.fixpoint_perseed_ms",
        median(&delta_ms),
        delta_ms.len(),
    );
    ledger.put(
        "eval.ns_per_fed_node",
        median(&delta_ms) * 1e6 / delta.fed_back.max(1) as f64,
        delta_ms.len(),
    );
    ledger.put("eval.nodes_fed_back", delta.fed_back as f64, 1);
    ledger.put("eval.payload_calls", delta.body_calls as f64, 1);
    ledger.put("eval.depth", delta.depth as f64, 1);
    let (naive_ms, _) = per_seed_passes(
        ledger,
        &mut db,
        &bidder,
        passes,
        "eval.eval_module",
        &mut |db, node| db.eval_module(&bidder_module, Some(&[node]), Algo::Naive),
    );
    ledger.put("eval.fixpoint_naive_ms", median(&naive_ms), naive_ms.len());

    // -- batched drivers, one and two shards -----------------------------
    for (name, span, threads, via) in [
        (
            "algebra.fixpoint_batched_ms",
            "algebra.run_fixpoint_batched",
            1,
            Via::Algebra,
        ),
        (
            "algebra.batched_t2_ms",
            "algebra.run_fixpoint_batched",
            2,
            Via::Algebra,
        ),
        (
            "eval.fixpoint_batched_ms",
            "eval.run_fixpoint_batched",
            1,
            Via::Source,
        ),
        (
            "eval.batched_t2_ms",
            "eval.run_fixpoint_batched",
            2,
            Via::Source,
        ),
    ] {
        let mut samples = Vec::new();
        for _ in 0..passes + 1 {
            ledger.tracer.next_op();
            let (result, d) = ledger.tracer.timed(span, || match via {
                Via::Algebra => algebra.run_batched(&mut db, &bidder.nodes, Algo::Delta, threads),
                Via::Source => db.eval_fixpoint_batched(&body, &bidder.nodes, Algo::Delta, threads),
            });
            ledger.check(name, &result, &bidder.expected);
            samples.push(ms(d));
        }
        // The first call of each configuration warms its executor.
        ledger.put(name, median(&samples[1..]), samples.len() - 1);
    }

    // -- a non-recursive path: what `path_lookup` cells run --------------
    let path = api::parse(&format!("doc('{HOSPITAL}')/hospital/patient/parentref"))
        .expect("the path parses");
    let mut per_node = Vec::new();
    for _ in 0..passes {
        ledger.tracer.next_op();
        let (result, d) = ledger.tracer.timed("eval.eval_module", || {
            db.eval_module(&path, None, Algo::Naive)
        });
        ledger.attempted += 1;
        match result {
            Ok(answer) if answer.count > 0 => {
                per_node.push(d.as_nanos() as f64 / answer.count as f64)
            }
            Ok(_) => ledger.fail("path probe selected nothing".into()),
            Err(e) => ledger.fail(format!("path probe: {e}")),
        }
    }
    ledger.put("eval.path_step_ns", median(&per_node), per_node.len());

    // -- core on top: PreparedQuery::execute minus the direct call -------
    // One short fixpoint per pair, bundled and direct alternating, so drift
    // cancels within a pair and the overhead is a visible share of it.
    let single_query = format!("with $x seeded by $seed recurse {}", Family::Auction.body());
    let mut overheads = Vec::new();
    for via in [Via::Algebra, Via::Source] {
        let plan = db.prepare(&single_query, Some(Algo::Delta), Some(via), 1)?;
        for _ in 0..passes {
            for (&node, expected) in bidder.nodes.iter().zip(&bidder.per_seed) {
                ledger.tracer.next_op();
                let (result, bundled) = ledger
                    .tracer
                    .timed("core.execute", || db.execute(&plan, Some(&[node])));
                ledger.check("core.execute", &result, expected);
                let (result, direct) = match via {
                    Via::Algebra => ledger.tracer.timed("algebra.run_fixpoint", || {
                        algebra.run(&mut db, &[node], Algo::Delta)
                    }),
                    Via::Source => ledger.tracer.timed("eval.eval_module", || {
                        db.eval_module(&bidder_module, Some(&[node]), Algo::Delta)
                    }),
                };
                ledger.check("direct call", &result, expected);
                overheads.push(us(bundled) - us(direct));
            }
        }
    }
    ledger.put(
        "core.execute_overhead_us",
        median(&overheads),
        overheads.len(),
    );

    let batched_query = single_query;
    // -- Auto against the best forced grid point -------------------------
    let per_seed_query = format!(
        "for $s in $seed return (with $x seeded by $s recurse {})",
        Family::Curriculum.body()
    );
    let mut regrets = Vec::new();
    for (query, seeds, batched) in [
        (&batched_query, &bidder, true),
        (&per_seed_query, &curric, false),
    ] {
        let mut timings = Vec::new();
        for (algo, via) in [
            (Some(Algo::Delta), Some(Via::Algebra)),
            (Some(Algo::Delta), Some(Via::Source)),
            (None, None),
        ] {
            let plan = db.prepare(query, algo, via, 1)?;
            let mut samples = Vec::new();
            // Two discarded runs: Auto settles on a plan from feedback.
            for _ in 0..passes + 2 {
                ledger.tracer.next_op();
                let (result, d) = ledger.tracer.timed("core.execute", || {
                    if batched {
                        db.execute_batched(&plan, &seeds.nodes)
                    } else {
                        db.execute(&plan, Some(&seeds.nodes))
                    }
                });
                ledger.check("auto regret", &result, &seeds.expected);
                samples.push(ms(d));
            }
            timings.push(median(&samples[2..]));
        }
        if let [algebraic, source, auto] = timings[..] {
            regrets.push(auto / algebraic.min(source));
        }
    }
    ledger.put("core.auto_regret", geomean(&regrets), regrets.len());
    Ok(())
}

// ---------------------------------------------------------------------
// service
// ---------------------------------------------------------------------

fn probe_service(ledger: &mut Ledger, seed: u64) -> Res<()> {
    let tiny = ledger.tiny;
    // -- reads: two clients on a warm cache -------------------------------
    let mut read = Read::new(seed, tiny)?;
    read.per_client = if tiny { 20 } else { 200 };
    read.round();
    let rounds = measure(&mut read, Duration::ZERO, 1);
    for round in &rounds {
        ledger.attempted += round.attempted;
        ledger.failed += round.failed;
        ledger.notes.extend(round.notes.iter().cloned());
    }
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().flatten().copied())
        .collect();
    let p95s: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| percentile(s, 0.95)))
        .filter(|v| *v > 0.0)
        .collect();
    let waits = extras(&rounds, "queue_wait_us");
    let hits = extras(&rounds, "cache_hit");
    ledger.put("service.tail_p95_ms", geomean(&p95s), pooled.len());
    ledger.put("service.p99_ms", percentile(&pooled, 0.99), pooled.len());
    ledger.put(
        "service.queue_wait_p50_us",
        percentile(&waits, 0.50),
        waits.len(),
    );
    ledger.put(
        "service.queue_wait_p95_us",
        percentile(&waits, 0.95),
        waits.len(),
    );
    ledger.put(
        "service.cache_hit_share",
        hits.iter().sum::<f64>() / hits.len().max(1) as f64,
        hits.len(),
    );
    ledger.put(
        "service.forks",
        extras(&rounds, "forks").iter().sum(),
        rounds.len(),
    );
    ledger.put(
        "service.saturated",
        extras(&rounds, "saturated").iter().sum(),
        rounds.len(),
    );
    ledger.put(
        "service.deadline_exceeded",
        extras(&rounds, "deadline_exceeded").iter().sum(),
        rounds.len(),
    );

    // -- the service's own share: execute() minus execute_on() -----------
    let reps = ledger.reps(40);
    let mut noop = Vec::new();
    for _ in 0..reps * 10 {
        ledger.tracer.next_op();
        let (served, d) = ledger
            .tracer
            .timed("service.execute", || read.service.execute("()"));
        ledger.attempted += 1;
        match served {
            Ok(served) if served.answer.count == 0 => noop.push(us(d)),
            Ok(_) => ledger.fail("() returned items".into()),
            Err(refusal) => ledger.fail(format!("(): {refusal:?}")),
        }
    }
    ledger.put("service.noop_us", median(&noop), noop.len());
    let snapshot = read.service.snapshot();
    let mut overheads = Vec::new();
    for kind in &read.kinds {
        let plan = Snapshot::prepare(&kind.text)?;
        let mut pairs = Vec::new();
        for _ in 0..reps {
            ledger.tracer.next_op();
            let (served, bundled) = ledger
                .tracer
                .timed("service.execute", || read.service.execute(&kind.text));
            let result = served.map(|s| s.answer).map_err(|r| format!("{r:?}"));
            ledger.check(kind.name, &result, &kind.expected);
            let (result, direct) = ledger
                .tracer
                .timed("core.execute_on", || snapshot.execute_on(&plan));
            ledger.check(kind.name, &result, &kind.expected);
            pairs.push(us(bundled) - us(direct));
        }
        overheads.push(median(&pairs));
    }
    ledger.put("service.overhead_us", median(&overheads), overheads.len());
    drop(read);

    // -- writes beside reads ---------------------------------------------
    let mut publish = Publish::new(seed, tiny)?;
    publish.publications = if tiny { 2 } else { 6 };
    publish.reads_per_publication = if tiny { 4 } else { 12 };
    let rounds = measure(&mut publish, Duration::ZERO, 1);
    for round in &rounds {
        ledger.attempted += round.attempted;
        ledger.failed += round.failed;
        ledger.notes.extend(round.notes.iter().cloned());
    }
    let published: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.samples.last().into_iter().flatten().copied())
        .collect();
    let nodes = median(&extras(&rounds, "store_nodes")).max(1.0);
    ledger.put(
        "service.publish_p50_ms",
        median(&published),
        published.len(),
    );
    ledger.put(
        "service.publish_ms_per_mnode",
        median(&published) / (nodes / 1e6),
        published.len(),
    );
    let first = extras(&rounds, "first_publish_ms");
    ledger.put("service.first_publish_ms", median(&first), first.len());
    let cold = extras(&rounds, "first_query_after_publish_ms");
    ledger.put(
        "service.first_query_after_publish_ms",
        median(&cold),
        cold.len(),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Replay of the workload's own operations
// ---------------------------------------------------------------------

/// Time per layer over a replay, and the bundled time with tracing off and
/// on.
#[derive(Default)]
struct Shares {
    untraced: Duration,
    traced: Duration,
    layers: BTreeMap<&'static str, Duration>,
    fed_back: u64,
}

impl Shares {
    fn add(&mut self, layer: &'static str, d: Duration) {
        *self.layers.entry(layer).or_default() += d;
    }
}

/// The direct call under an engine cell's bundled `execute`.
struct Direct {
    algebra: BTreeMap<&'static str, AlgebraBody>,
    bodies: BTreeMap<&'static str, BodyExpr>,
    modules: BTreeMap<(&'static str, bool), Parsed>,
}

impl Direct {
    fn new(cells: &[EngineCell]) -> Res<Direct> {
        let mut direct = Direct {
            algebra: BTreeMap::new(),
            bodies: BTreeMap::new(),
            modules: BTreeMap::new(),
        };
        for cell in cells {
            let body = cell.family.body();
            if !direct.bodies.contains_key(body) {
                let parsed = BodyExpr::parse(body)?;
                direct.algebra.insert(body, AlgebraBody::compile(&parsed)?);
                direct.bodies.insert(body, parsed);
                direct.modules.insert(
                    (body, true),
                    api::parse(&format!(
                        "for $s in $seed return (with $x seeded by $s recurse {body})"
                    ))?,
                );
                direct.modules.insert(
                    (body, false),
                    api::parse(&format!("with $x seeded by $seed recurse {body}"))?,
                );
            }
        }
        Ok(direct)
    }

    /// Run `cell` on the layer below `core`; returns the answer (all seeds
    /// together) and the layer that did the work.
    fn run(
        &mut self,
        tracer: &Tracer,
        db: &mut Db,
        cell: &EngineCell,
    ) -> (Res<Answer>, &'static str) {
        let body = cell.family.body();
        match (cell.via, cell.shape) {
            (Via::Algebra, Shape::PerSeed) => {
                let algebra = self.algebra.get_mut(body).expect("compiled in new()");
                let mut all: Res<Vec<Answer>> = Ok(Vec::with_capacity(cell.seeds.len()));
                for &seed in &cell.seeds {
                    let one = tracer.span("algebra.run_fixpoint", || {
                        algebra.run(db, &[seed], cell.algo)
                    });
                    match (&mut all, one) {
                        (Ok(list), Ok(answer)) => list.push(answer),
                        (Ok(_), Err(e)) => all = Err(e),
                        (Err(_), _) => {}
                    }
                }
                let answer = all.map(|list| {
                    let mut sum = tally(&list);
                    sum.count = list.iter().map(|a| a.count).sum();
                    sum.digest = list.iter().fold(0u64, |d, a| d.wrapping_add(a.digest));
                    sum
                });
                (answer, "algebra")
            }
            (Via::Algebra, Shape::Batched) => {
                let algebra = self.algebra.get_mut(body).expect("compiled in new()");
                let answer = tracer.span("algebra.run_fixpoint_batched", || {
                    algebra.run_batched(db, &cell.seeds, cell.algo, 1)
                });
                (answer, "algebra")
            }
            (Via::Algebra, Shape::Single) => {
                let algebra = self.algebra.get_mut(body).expect("compiled in new()");
                let answer = tracer.span("algebra.run_fixpoint", || {
                    algebra.run(db, &cell.seeds, cell.algo)
                });
                (answer, "algebra")
            }
            (Via::Source, Shape::Batched) => {
                let parsed = &self.bodies[body];
                let answer = tracer.span("eval.run_fixpoint_batched", || {
                    db.eval_fixpoint_batched(parsed, &cell.seeds, cell.algo, 1)
                });
                (answer, "eval")
            }
            (Via::Source, shape) => {
                let module = &self.modules[&(body, shape == Shape::PerSeed)];
                let answer = tracer.span("eval.eval_module", || {
                    db.eval_module(module, Some(&cell.seeds), cell.algo)
                });
                (answer, "eval")
            }
        }
    }
}

fn replay_engine(ledger: &mut Ledger, engine: &mut Engine, budget: Duration) -> Res<Shares> {
    let mut direct = Direct::new(&engine.cells)?;
    let mut shares = Shares::default();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || started.elapsed() < budget {
        let traced_first = rounds % 2 == 1;
        let mut fed_back = 0;
        for cell in &engine.cells {
            ledger.tracer.next_op();
            let mut d = Duration::ZERO;
            for traced in [traced_first, !traced_first] {
                if traced {
                    let (bundled, took) = ledger
                        .tracer
                        .timed("core.execute", || Engine::execute(&mut engine.db, cell));
                    d = took;
                    shares.traced += took;
                    fed_back += bundled.as_ref().map_or(0, |a| a.fed_back);
                    ledger.check(&cell.name, &bundled, &cell.expected);
                } else {
                    let t0 = Instant::now();
                    let plain = Engine::execute(&mut engine.db, cell);
                    shares.untraced += t0.elapsed();
                    ledger.check(&cell.name, &plain, &cell.expected);
                }
            }
            let ((answer, layer), below) = ledger.tracer.timed("replay.unbundled", || {
                direct.run(&ledger.tracer, &mut engine.db, cell)
            });
            ledger.check(&cell.name, &answer, &cell.expected);
            shares.add(layer, below);
            // What `core` adds on top of the layer it routes to.
            shares.add("core", d.saturating_sub(below));
        }
        shares.fed_back = fed_back;
        rounds += 1;
    }
    Ok(shares)
}

fn replay_cold(ledger: &mut Ledger, cold: &mut Cold, budget: Duration) -> Res<Shares> {
    let mut shares = Shares::default();
    let started = Instant::now();
    // The same eighth of the corpus every round, so the counts repeat.
    let slice = (cold.corpus.len() / 8).max(1);
    let mut rounds = 0;
    while rounds < 2 || started.elapsed() < budget {
        let traced_first = rounds % 2 == 1;
        let mut fed_back = 0;
        cold.fresh_engine()?;
        for step in 0..slice {
            let query = &cold.corpus[step];
            let name = workloads::COLD_TEMPLATES[query.template];
            ledger.tracer.next_op();
            let (mut prepare, mut execute) = (Duration::ZERO, Duration::ZERO);
            let mut prepared = None;
            for traced in [traced_first, !traced_first] {
                if traced {
                    // Bundled, in two spans: prepare, then execute.
                    let (plan, took) = ledger.tracer.timed("core.prepare", || {
                        cold.db.prepare(&query.text, None, None, 1)
                    });
                    let plan = plan?;
                    prepare = took;
                    let (bundled, took) = ledger
                        .tracer
                        .timed("core.execute", || cold.db.execute(&plan, None));
                    execute = took;
                    shares.traced += prepare + execute;
                    fed_back += bundled.as_ref().map_or(0, |a| a.fed_back);
                    ledger.check(name, &bundled, &query.expected);
                    prepared = Some(plan);
                } else {
                    // The same two calls with tracing off; the plan is
                    // dropped after the clock stops on both sides.
                    let t0 = Instant::now();
                    let plan = cold.db.prepare(&query.text, None, None, 1)?;
                    let plain = cold.db.execute(&plan, None);
                    shares.untraced += t0.elapsed();
                    ledger.check(name, &plain, &query.expected);
                }
            }
            let plan = prepared.expect("the traced side ran");

            // Unbundled: the parts of prepare, then the interpreter alone.
            let (parsed, parse) = ledger
                .tracer
                .timed("parser.parse_query", || api::parse(&query.text));
            let parsed = parsed?;
            let (_, syntactic) = ledger
                .tracer
                .timed("core.is_distributivity_safe", || parsed.syntactic());
            let (_, compile) = ledger
                .tracer
                .timed("algebra.compile_recursion_body", || parsed.compile());
            // `Auto` runs Delta where an approximation certified the body.
            let (safe, pushed, occurrences) = plan.distributive_counts();
            let algo = if occurrences > 0 && safe.max(pushed) == occurrences {
                Algo::Delta
            } else {
                Algo::Naive
            };
            let (answer, eval) = ledger.tracer.timed("eval.eval_module", || {
                cold.db.eval_module(&parsed, None, algo)
            });
            ledger.check(name, &answer, &query.expected);
            shares.add("parser", parse);
            shares.add("algebra", compile);
            shares.add("eval", eval);
            shares.add(
                "core",
                syntactic
                    + prepare.saturating_sub(parse + syntactic + compile)
                    + execute.saturating_sub(eval),
            );
        }
        shares.fed_back = fed_back;
        rounds += 1;
    }
    Ok(shares)
}

/// Replay of a service workload's query kinds on one thread: the service's
/// `execute` against `PreparedQuery::execute_on` over the pinned snapshot.
fn replay_service(
    ledger: &mut Ledger,
    service: &api::Service,
    kinds: &[workloads::Kind],
    budget: Duration,
) -> Res<Shares> {
    let snapshot = service.snapshot();
    let plans: Vec<api::Plan> = kinds
        .iter()
        .map(|k| Snapshot::prepare(&k.text))
        .collect::<Res<_>>()?;
    let mut shares = Shares::default();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || started.elapsed() < budget {
        let traced_first = rounds % 2 == 1;
        let mut fed_back = 0;
        for _ in 0..20 {
            for (kind, plan) in kinds.iter().zip(&plans) {
                ledger.tracer.next_op();
                let mut d = Duration::ZERO;
                for traced in [traced_first, !traced_first] {
                    let t0 = Instant::now();
                    let served = if traced {
                        ledger
                            .tracer
                            .span("service.execute", || service.execute(&kind.text))
                    } else {
                        service.execute(&kind.text)
                    };
                    let took = t0.elapsed();
                    let served = served.map(|s| s.answer).map_err(|r| format!("{r:?}"));
                    ledger.check(kind.name, &served, &kind.expected);
                    if traced {
                        d = took;
                        shares.traced += took;
                        fed_back += served.as_ref().map_or(0, |a| a.fed_back);
                    } else {
                        shares.untraced += took;
                    }
                }
                let (answer, below) = ledger
                    .tracer
                    .timed("core.execute_on", || snapshot.execute_on(plan));
                ledger.check(kind.name, &answer, &kind.expected);
                shares.add("core", below);
                shares.add("service", d.saturating_sub(below));
            }
        }
        shares.fed_back = fed_back;
        rounds += 1;
    }
    Ok(shares)
}

fn replay(ledger: &mut Ledger, name: &str, seed: u64, budget: Duration) -> Res<()> {
    let mut built = workloads::build(name, seed, ledger.tiny)?;
    let warm_up = built.workload().round();
    ledger.attempted += warm_up.attempted;
    ledger.failed += warm_up.failed;
    ledger.notes.extend(warm_up.notes);
    let shares = match &mut built {
        Built::Engine(engine) => replay_engine(ledger, engine, budget)?,
        Built::Cold(cold) => replay_cold(ledger, cold, budget)?,
        Built::Read(read) => replay_service(ledger, &read.service, &read.kinds, budget)?,
        Built::Publish(publish) => {
            publish.fresh_service()?;
            replay_service(ledger, &publish.service, &publish.kinds, budget)?
        }
    };
    let whole = shares.traced.as_secs_f64().max(f64::MIN_POSITIVE);
    for (metric, layer) in [
        ("replay.share.parser", "parser"),
        ("replay.share.core", "core"),
        ("replay.share.algebra", "algebra"),
        ("replay.share.eval", "eval"),
        ("replay.share.service", "service"),
    ] {
        let spent = shares.layers.get(layer).copied().unwrap_or_default();
        ledger.put(metric, spent.as_secs_f64() / whole, 1);
    }
    ledger.put("replay.fed_back_nodes", shares.fed_back as f64, 1);
    ledger.put(
        "trace.overhead_share",
        shares.traced.as_secs_f64() / shares.untraced.as_secs_f64().max(f64::MIN_POSITIVE) - 1.0,
        1,
    );
    Ok(())
}

// ---------------------------------------------------------------------

/// Where trace files and `latest.json` go: `benchmark/out/`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The traced run (`--trace 1`).
pub fn traced(name: &str, seed: u64, seconds: f64, tiny: bool) -> Res<Outcome> {
    if !workloads::NAMES.contains(&name) {
        return Err(format!(
            "unknown workload {name:?}; known: {:?}",
            workloads::NAMES
        ));
    }
    let started = Instant::now();
    let mut ledger = Ledger {
        tracer: Tracer::new(true),
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        tiny,
    };
    let docs = standard_docs(seed, tiny);
    let mut lap = Instant::now();
    let mut laps = Vec::new();
    let mut mark = |name: &'static str| {
        laps.push((name, lap.elapsed().as_secs_f64()));
        lap = Instant::now();
    };
    probe_xdm(&mut ledger, &docs);
    mark("probe.xdm_s");
    probe_prepare(&mut ledger, seed)?;
    mark("probe.prepare_s");
    probe_fixpoints(&mut ledger, &docs, seed)?;
    mark("probe.fixpoints_s");
    drop(docs);
    probe_service(&mut ledger, seed)?;
    mark("probe.service_s");
    let probes_s = started.elapsed().as_secs_f64();
    let budget = Duration::from_secs_f64((seconds - probes_s).max(0.0));
    replay(&mut ledger, name, seed, budget)?;

    let mut outcome = Outcome {
        workload: name.to_string(),
        seed,
        attempted: ledger.attempted,
        failed: ledger.failed,
        notes: ledger.notes,
        ..Outcome::default()
    };
    for &(metric, unit) in PER_LAYER {
        let (value, samples) = ledger.values.get(metric).copied().unwrap_or((0.0, 0));
        outcome
            .metrics
            .push(Metric::new(metric, unit, value, samples));
    }
    for (name, seconds) in laps {
        outcome.detail.push(Metric::new(name, "s", seconds, 1));
    }

    // Spans are held in memory until here.
    let spans = ledger.tracer.into_spans();
    for (span_name, totals) in trace::totals_by_name(&spans) {
        outcome.detail.push(Metric::new(
            format!("span.{span_name}.self_ms"),
            "ms",
            totals.self_ns as f64 / 1e6,
            totals.calls as usize,
        ));
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("trace.{name}.json"));
    std::fs::write(&file, trace::to_json(&spans).to_json())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    outcome.notes.truncate(8);
    Ok(outcome)
}
