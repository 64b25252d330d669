//! The six workloads.  Each is built from `--seed` alone, runs closed-loop
//! rounds (the next operation starts when the previous one completed) and
//! checks every timed answer against the oracle.  Why each exists is said
//! where it is built, and again in `BENCHMARK.json` and the README.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::api::{Algo, Answer, Db, Family, Node, Plan, Res, Service, Size, Store, Via};
use crate::inputs::{derive, Doc, Rng, AUCTION, CURRICULUM, HOSPITAL, PLAY};
use crate::oracle::{self, Closure, Expected};

pub const NAMES: [&str; 6] = [
    "delta_source",
    "delta_algebra",
    "naive_refeed",
    "prepare_cold",
    "service_read",
    "service_publish",
];

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of the round's timed region, all clients together.
    pub wall: Duration,
    /// Latency samples in milliseconds, per cell.
    pub samples: Vec<Vec<f64>>,
    pub attempted: u64,
    /// Errors, refusals and answers that differ from the oracle.
    pub failed: u64,
    /// The first failures, for the report.
    pub notes: Vec<String>,
    /// Table 2's "nodes fed back", as the engine reports it, summed over
    /// the round's operations.
    pub fed_back: u64,
    /// Further per-round measurements by name (service accounting).
    pub extras: BTreeMap<&'static str, Vec<f64>>,
}

impl Round {
    fn new(cells: usize) -> Round {
        Round {
            samples: vec![Vec::new(); cells],
            ..Round::default()
        }
    }

    fn record(&mut self, cell: usize, elapsed: Duration, verdict: Result<&Answer, String>) {
        self.samples[cell].push(elapsed.as_secs_f64() * 1e3);
        self.attempted += 1;
        match verdict {
            Ok(answer) => self.fed_back += answer.fed_back,
            Err(note) => {
                self.failed += 1;
                if self.notes.len() < 5 {
                    self.notes.push(note);
                }
            }
        }
    }

    fn extra(&mut self, name: &'static str, value: f64) {
        self.extras.entry(name).or_default().push(value);
    }
}

/// Compare an answer with what the oracle expects of it.
pub fn judge<'a>(
    cell: &str,
    result: &'a Res<Answer>,
    expected: &Expected,
    fed_expected: Option<u64>,
) -> Result<&'a Answer, String> {
    let answer = result.as_ref().map_err(|e| format!("{cell}: {e}"))?;
    if !expected.matches(answer) {
        return Err(format!(
            "{cell}: answer differs from the oracle ({} items)",
            answer.count
        ));
    }
    match fed_expected {
        Some(fed) if fed != answer.fed_back => Err(format!(
            "{cell}: {} nodes fed back, the oracle's Figure-3 count is {fed}",
            answer.fed_back
        )),
        _ => Ok(answer),
    }
}

pub trait Workload {
    fn cells(&self) -> Vec<String>;
    fn round(&mut self) -> Round;
}

/// A built workload, by kind: the traced run replays each kind's
/// operations layer by layer and needs more than [`Workload`] shows.
// One value per process, so the size difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Built {
    Engine(Engine),
    Cold(Cold),
    Read(Read),
    Publish(Publish),
}

impl Built {
    pub fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Built::Engine(w) => w,
            Built::Cold(w) => w,
            Built::Read(w) => w,
            Built::Publish(w) => w,
        }
    }
}

/// Build the named workload.  `tiny` shrinks every input to a smoke-test
/// size (`ledger check`).
pub fn build(name: &str, seed: u64, tiny: bool) -> Res<Built> {
    Ok(match name {
        "delta_source" => Built::Engine(Engine::delta(seed, tiny, Via::Source)?),
        "delta_algebra" => Built::Engine(Engine::delta(seed, tiny, Via::Algebra)?),
        "naive_refeed" => Built::Engine(Engine::naive(seed, tiny)?),
        "prepare_cold" => Built::Cold(Cold::new(seed, tiny)?),
        "service_read" => Built::Read(Read::new(seed, tiny)?),
        "service_publish" => Built::Publish(Publish::new(seed, tiny)?),
        other => return Err(format!("unknown workload {other:?}; known: {NAMES:?}")),
    })
}

pub fn size(wanted: Size, tiny: bool) -> Size {
    if tiny {
        Size::Small
    } else {
        wanted
    }
}

// ---------------------------------------------------------------------
// Seed nodes
// ---------------------------------------------------------------------

pub fn persons(store: Store<'_>) -> Vec<Node> {
    let site = store.root(AUCTION).expect("auction document is loaded");
    store
        .children(site, Some("people"))
        .into_iter()
        .flat_map(|people| store.children(people, Some("person")))
        .collect()
}

pub fn courses(store: Store<'_>, uri: &str) -> Vec<Node> {
    let root = store.root(uri).expect("curriculum document is loaded");
    store.children(root, Some("course"))
}

pub fn diseased_patients(store: Store<'_>) -> Vec<Node> {
    let root = store.root(HOSPITAL).expect("hospital document is loaded");
    store
        .children(root, Some("patient"))
        .into_iter()
        .filter(|&p| store.attribute(p, "disease") == Some("yes"))
        .collect()
}

pub fn dialog_starts(store: Store<'_>) -> Vec<Node> {
    let root = store.root(PLAY).expect("play document is loaded");
    store
        .children(root, Some("SCENE"))
        .into_iter()
        .flat_map(|scene| store.children(scene, Some("SPEECH")))
        .filter(|&s| store.attribute(s, "start") == Some("1"))
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Draw seed nodes from `candidates` in `--seed` order until the nodes
/// Figure 3 feeds back for them (as the oracle counts them, under `algo`)
/// reach `budget`.  Every `--seed` therefore asks for the same amount of
/// Table-2 work on different data: a bidder network's size swings by ±10 %
/// from one generated document to the next, and Naïve's cost with the
/// square of its depth, which would otherwise drown a 5 % regression.
fn draw_seeds(
    store: Store<'_>,
    family: Family,
    mut candidates: Vec<Node>,
    algo: Algo,
    budget: u64,
    rng: &mut Rng,
) -> (Vec<Node>, Vec<Closure>) {
    shuffle(&mut candidates, rng);
    let mut seeds = Vec::new();
    let mut closures = Vec::new();
    let mut fed = 0u64;
    for candidate in candidates {
        if fed >= budget {
            break;
        }
        let closure = oracle::closure(store, family, &[candidate]);
        fed += fed_back(&closure, algo);
        seeds.push(candidate);
        closures.push(closure);
    }
    (seeds, closures)
}

fn fed_back(closure: &Closure, algo: Algo) -> u64 {
    match algo {
        Algo::Delta => closure.delta_fed,
        Algo::Naive => closure.naive_fed,
    }
}

// ---------------------------------------------------------------------
// delta_source, delta_algebra, naive_refeed: the Table-2 cells
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `for $s in $seed return (with $x seeded by $s recurse body)`.
    PerSeed,
    /// The same fixpoints as one `execute_batched` call.
    Batched,
    /// One fixpoint seeded with the whole seed sequence.
    Single,
}

pub struct EngineCell {
    pub name: String,
    pub family: Family,
    pub shape: Shape,
    pub algo: Algo,
    pub via: Via,
    pub plan: Plan,
    pub seeds: Vec<Node>,
    pub expected: Expected,
    /// The oracle's Figure-3 feed-back count, where the cell's driver is
    /// the plain per-seed loop the oracle models (batched drivers share
    /// work between seeds and feed back fewer nodes).
    pub fed_expected: Option<u64>,
}

pub struct Engine {
    pub db: Db,
    pub cells: Vec<EngineCell>,
}

/// A document family's seed set for the per-seed and batched cells.
struct SeedSet {
    label: &'static str,
    family: Family,
    seeds: Vec<Node>,
    closures: Vec<Closure>,
}

impl Engine {
    pub fn load(docs: &[Doc]) -> Res<Db> {
        let mut db = Db::default();
        for doc in docs {
            db.load(&doc.uri, &doc.xml, doc.id_attributes())?;
        }
        Ok(db)
    }

    fn cell(
        db: &mut Db,
        name: String,
        set: &SeedSet,
        shape: Shape,
        algo: Algo,
        via: Via,
    ) -> Res<EngineCell> {
        let body = set.family.body();
        let query = match shape {
            Shape::PerSeed => {
                format!("for $s in $seed return (with $x seeded by $s recurse {body})")
            }
            Shape::Batched | Shape::Single => format!("with $x seeded by $seed recurse {body}"),
        };
        let plan = db.prepare(&query, Some(algo), Some(via), 1)?;
        let (expected, fed_expected) = match shape {
            Shape::Single => {
                let whole = oracle::closure(db.store(), set.family, &set.seeds);
                (
                    Expected::of_nodes(&whole.nodes),
                    Some(fed_back(&whole, algo)),
                )
            }
            Shape::PerSeed => (
                Expected::of_groups(&set.closures),
                Some(set.closures.iter().map(|c| fed_back(c, algo)).sum()),
            ),
            Shape::Batched => (Expected::of_groups(&set.closures), None),
        };
        Ok(EngineCell {
            name,
            family: set.family,
            shape,
            algo,
            via,
            plan,
            seeds: set.seeds.clone(),
            expected,
            fed_expected,
        })
    }

    /// `delta_source` / `delta_algebra`: algorithm Delta on one back-end.
    ///
    /// *Why:* under `Via::Source` the interpreter (`eval`) does nearly all
    /// the work and `algebra` none — the paper's Saxon column; under
    /// `Via::Algebra` it is the reverse — its MonetDB column.  A change to
    /// one executor must move its workload and leave the other flat.
    /// Per-seed and batched cells sit side by side so that collapsing the
    /// six Figure-3 loops (ROADMAP item 3) has to hold both.
    fn delta(seed: u64, tiny: bool, via: Via) -> Res<Engine> {
        let docs = [
            Doc::generate(Family::Auction, size(Size::Medium, tiny), AUCTION, seed),
            Doc::generate(
                Family::Curriculum,
                size(Size::Medium, tiny),
                CURRICULUM,
                seed,
            ),
            Doc::generate(Family::Hospital, size(Size::Large, tiny), HOSPITAL, seed),
            Doc::generate(Family::Play, size(Size::Medium, tiny), PLAY, seed),
        ];
        let mut db = Engine::load(&docs)?;
        let scale = if tiny { 20 } else { 1 };
        let store = db.store();
        let mut rng = Rng::new(derive(seed, "seed-nodes"));
        let mut sets = Vec::new();
        for (label, family, candidates, budget) in [
            ("bidder_m", Family::Auction, persons(store), 100_000),
            (
                "curric_m",
                Family::Curriculum,
                courses(store, CURRICULUM),
                200_000,
            ),
            ("dialogs_m", Family::Play, dialog_starts(store), 600),
        ] {
            let (seeds, closures) = draw_seeds(
                store,
                family,
                candidates,
                Algo::Delta,
                budget / scale,
                &mut rng,
            );
            sets.push(SeedSet {
                label,
                family,
                seeds,
                closures,
            });
        }
        let hospital = SeedSet {
            label: "hospital_l",
            family: Family::Hospital,
            seeds: diseased_patients(store),
            closures: Vec::new(),
        };
        let mut cells = Vec::new();
        for set in &sets[..2] {
            for (shape, suffix) in [(Shape::PerSeed, "perseed"), (Shape::Batched, "batched")] {
                let name = format!("{}.{suffix}", set.label);
                cells.push(Engine::cell(&mut db, name, set, shape, Algo::Delta, via)?);
            }
        }
        let name = format!("{}.single", hospital.label);
        cells.push(Engine::cell(
            &mut db,
            name,
            &hospital,
            Shape::Single,
            Algo::Delta,
            via,
        )?);
        let name = format!("{}.perseed", sets[2].label);
        cells.push(Engine::cell(
            &mut db,
            name,
            &sets[2],
            Shape::PerSeed,
            Algo::Delta,
            via,
        )?);
        Ok(Engine { db, cells })
    }

    /// `naive_refeed`: algorithm Naïve on both back-ends.
    ///
    /// *Why:* the same drivers used differently — the whole accumulator is
    /// fed back every iteration, so `xdm` set algebra, document-order
    /// materialisation and memo churn dominate.  A Delta-only trick that
    /// costs Naïve shows here, and ROADMAP item 4's "Naïve medium is still
    /// seconds" gets a number.  (Curriculum-medium Naïve, 4–6.5 s a cell,
    /// is left out for time; the small instance stands in.)
    fn naive(seed: u64, tiny: bool) -> Res<Engine> {
        const SMALL_CURRICULUM: &str = "curriculum_s.xml";
        let docs = [
            Doc::generate(Family::Auction, size(Size::Medium, tiny), AUCTION, seed),
            Doc::generate(Family::Hospital, size(Size::Large, tiny), HOSPITAL, seed),
            Doc::generate(Family::Curriculum, Size::Small, SMALL_CURRICULUM, seed),
        ];
        let mut db = Engine::load(&docs)?;
        let scale = if tiny { 20 } else { 1 };
        let store = db.store();
        let mut rng = Rng::new(derive(seed, "seed-nodes"));
        let (seeds, closures) = draw_seeds(
            store,
            Family::Auction,
            persons(store),
            Algo::Naive,
            120_000 / scale,
            &mut rng,
        );
        let bidder = SeedSet {
            label: "bidder_m",
            family: Family::Auction,
            seeds,
            closures,
        };
        let hospital = SeedSet {
            label: "hospital_l",
            family: Family::Hospital,
            seeds: diseased_patients(store),
            closures: Vec::new(),
        };
        let (seeds, closures) = draw_seeds(
            store,
            Family::Curriculum,
            courses(store, SMALL_CURRICULUM),
            Algo::Naive,
            20_000 / scale,
            &mut rng,
        );
        let curriculum = SeedSet {
            label: "curric_s",
            family: Family::Curriculum,
            seeds,
            closures,
        };
        let mut cells = Vec::new();
        for (set, shape, kind) in [
            (&bidder, Shape::PerSeed, "perseed"),
            (&hospital, Shape::Single, "single"),
            (&curriculum, Shape::PerSeed, "perseed"),
        ] {
            for (via, suffix) in [(Via::Algebra, "alg"), (Via::Source, "src")] {
                let name = format!("{}.{kind}.{suffix}", set.label);
                cells.push(Engine::cell(&mut db, name, set, shape, Algo::Naive, via)?);
            }
        }
        Ok(Engine { db, cells })
    }

    /// The bundled operation of one cell: what a caller of
    /// `prepare` → `execute{,_batched}` runs.
    pub fn execute(db: &mut Db, cell: &EngineCell) -> Res<Answer> {
        match cell.shape {
            Shape::PerSeed | Shape::Single => db.execute(&cell.plan, Some(&cell.seeds)),
            Shape::Batched => db.execute_batched(&cell.plan, &cell.seeds),
        }
    }
}

impl Workload for Engine {
    fn cells(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.name.clone()).collect()
    }

    fn round(&mut self) -> Round {
        let mut round = Round::new(self.cells.len());
        let started = Instant::now();
        for (i, cell) in self.cells.iter().enumerate() {
            let t0 = Instant::now();
            let result = Engine::execute(&mut self.db, cell);
            let elapsed = t0.elapsed();
            round.record(
                i,
                elapsed,
                judge(&cell.name, &result, &cell.expected, cell.fed_expected),
            );
        }
        round.wall = started.elapsed();
        round
    }
}

// ---------------------------------------------------------------------
// prepare_cold: a query text the system has not seen
// ---------------------------------------------------------------------

pub const COLD_TEMPLATES: [&str; 8] = [
    "q1_closure",
    "bidder_closure",
    "flwor_per_item",
    "module_function",
    "nested_mu",
    "example_2_4",
    "child_closure",
    "predicate_path",
];

pub struct ColdQuery {
    pub template: usize,
    pub text: String,
    pub expected: Expected,
}

/// `prepare_cold`: `Engine::prepare(text)` plus one `execute`, over a
/// corpus of distinct texts on Tiny documents.
///
/// *Why:* `parser`, `core` analysis and cost, and `algebra` compile and
/// push-up do most of the work and the fixpoint almost none — the inverse
/// of the three Table-2 workloads.  It is what an ad-hoc query or a
/// plan-cache miss pays, and where prepare-time checks (ROADMAP 5b) will
/// show their cost.
pub struct Cold {
    docs: [Doc; 4],
    pub db: Db,
    pub corpus: Vec<ColdQuery>,
}

impl Cold {
    pub fn new(seed: u64, tiny: bool) -> Res<Cold> {
        let docs = cold_docs(seed);
        let db = Engine::load(&docs)?;
        let per_template = if tiny { 8 } else { 250 };
        let corpus = cold_corpus(db.store(), seed, per_template);
        Ok(Cold { docs, db, corpus })
    }

    /// A fresh engine over the same documents.  `example_2_4` constructs
    /// nodes, and an `Engine` keeps every constructed fragment in its store
    /// (and re-walks the store for statistics after each): without this a
    /// round would be the slower the more rounds came before it.  Node
    /// identifiers of the loaded documents are the same in every engine.
    pub fn fresh_engine(&mut self) -> Res<()> {
        self.db = Engine::load(&self.docs)?;
        Ok(())
    }

    /// The bundled operation: prepare under `Auto`/`Auto`, execute once.
    pub fn run(db: &mut Db, query: &ColdQuery) -> Res<Answer> {
        let plan = db.prepare(&query.text, None, None, 1)?;
        db.execute(&plan, None)
    }
}

/// The documents cold queries run on: Tiny, so that executing the query
/// once does not bury the cost of preparing it.
pub fn cold_docs(seed: u64) -> [Doc; 4] {
    [
        Doc::generate(Family::Curriculum, Size::Tiny, CURRICULUM, seed),
        Doc::generate(Family::Auction, Size::Tiny, AUCTION, seed),
        Doc::generate(Family::Hospital, Size::Tiny, HOSPITAL, seed),
        Doc::generate(Family::Play, Size::Tiny, PLAY, seed),
    ]
}

/// Two candidates drawn at random and their `@attr` values.
fn pair<'a>(
    store: Store<'a>,
    candidates: &[Node],
    attr: &str,
    rng: &mut Rng,
) -> ([Node; 2], [&'a str; 2]) {
    let a = candidates[rng.below(candidates.len())];
    let b = candidates[rng.below(candidates.len())];
    let value = |n| {
        store
            .attribute(n, attr)
            .expect("generated nodes carry the attribute")
    };
    ([a, b], [value(a), value(b)])
}

/// The seeded corpus: `per_template` distinct texts from each of the eight
/// templates, interleaved, each with the answer the oracle expects.
pub fn cold_corpus(store: Store<'_>, seed: u64, per_template: usize) -> Vec<ColdQuery> {
    let mut rng = Rng::new(derive(seed, "cold-corpus"));
    let courses = courses(store, CURRICULUM);
    let persons = persons(store);
    let patients = store.children(
        store.root(HOSPITAL).expect("hospital is loaded"),
        Some("patient"),
    );
    let speeches: Vec<Node> = store
        .children(store.root(PLAY).expect("play is loaded"), Some("SCENE"))
        .into_iter()
        .flat_map(|scene| store.children(scene, Some("SPEECH")))
        .collect();
    let course = |code: &str| format!("doc('{CURRICULUM}')/curriculum/course[@code='{code}']");
    let person = |id: &str| format!("doc('{AUCTION}')/site/people/person[@id='{id}']");
    let patient = |id: &str| format!("doc('{HOSPITAL}')/hospital/patient[@id='{id}']");
    let speech = |id: &str| format!("doc('{PLAY}')/PLAY/SCENE/SPEECH[@id='{id}']");
    let curriculum_body = Family::Curriculum.body();

    let mut seen = std::collections::HashSet::new();
    let mut corpus = Vec::with_capacity(per_template * COLD_TEMPLATES.len());
    for template in 0..COLD_TEMPLATES.len() {
        let mut made = 0;
        while made < per_template {
            let (text, expected) = match template {
                0 => {
                    let (nodes, codes) = pair(store, &courses, "code", &mut rng);
                    let closure = oracle::closure(store, Family::Curriculum, &nodes);
                    (
                        format!(
                            "with $x seeded by ({}, {}) recurse {curriculum_body}",
                            course(codes[0]),
                            course(codes[1])
                        ),
                        Expected::of_nodes(&closure.nodes),
                    )
                }
                1 => {
                    let (nodes, ids) = pair(store, &persons, "id", &mut rng);
                    let closure = oracle::closure(store, Family::Auction, &nodes);
                    (
                        format!(
                            "with $x seeded by ({}, {}) recurse {}",
                            person(ids[0]),
                            person(ids[1]),
                            Family::Auction.body()
                        ),
                        Expected::of_nodes(&closure.nodes),
                    )
                }
                2 => {
                    let (nodes, codes) = pair(store, &courses, "code", &mut rng);
                    let sizes: Vec<String> = nodes
                        .iter()
                        .map(|&n| {
                            oracle::closure(store, Family::Curriculum, &[n])
                                .nodes
                                .len()
                                .to_string()
                        })
                        .collect();
                    (
                        format!(
                            "for $s in ({}, {}) return count(with $x seeded by $s recurse {curriculum_body})",
                            course(codes[0]),
                            course(codes[1])
                        ),
                        Expected::Atoms(sizes.join(" ")),
                    )
                }
                3 => {
                    let (nodes, codes) = pair(store, &courses, "code", &mut rng);
                    let closure = oracle::closure(store, Family::Curriculum, &nodes);
                    (
                        format!(
                            "declare function local:pre($c as node()*) as node()* {{ $c/id(./prerequisites/pre_code) }}; \
                             with $x seeded by ({}, {}) recurse local:pre($x)",
                            course(codes[0]),
                            course(codes[1])
                        ),
                        Expected::of_nodes(&closure.nodes),
                    )
                }
                4 => {
                    let (nodes, ids) = pair(store, &patients, "id", &mut rng);
                    let inner = oracle::closure(store, Family::Hospital, &nodes);
                    let outer = oracle::closure(store, Family::Hospital, &inner.nodes);
                    let body = Family::Hospital.body();
                    (
                        format!(
                            "with $x seeded by (with $y seeded by ({}, {}) recurse {}) recurse {body}",
                            patient(ids[0]),
                            patient(ids[1]),
                            body.replace("$x", "$y")
                        ),
                        Expected::of_nodes(&outer.nodes),
                    )
                }
                5 => {
                    // Example 2.4: not distributive, so `Auto` must pick
                    // Naïve.  `<a/>` makes the body yield the children of
                    // both seed elements once; none of those is an `a`, so
                    // the recursion stops there.
                    let children = 1 + rng.below(5);
                    let tag = rng.below(1_000);
                    let inner: String = (0..children).map(|i| format!("<c{tag}_{i}/>")).collect();
                    (
                        format!(
                            "let $seed := (<a/>, <b>{inner}</b>) return with $x seeded by $seed \
                             recurse if (count($x/self::a)) then $x/* else ()"
                        ),
                        Expected::Count(children),
                    )
                }
                6 => {
                    let (nodes, ids) = pair(store, &speeches, "id", &mut rng);
                    (
                        format!(
                            "with $x seeded by ({}, {}) recurse $x/*",
                            speech(ids[0]),
                            speech(ids[1])
                        ),
                        Expected::of_nodes(&oracle::descendants(store, &nodes)),
                    )
                }
                _ => {
                    let (nodes, codes) = pair(store, &courses, "code", &mut rng);
                    let mut codes_of: Vec<Node> = Vec::new();
                    // A path result is in document order without duplicates.
                    let mut distinct = nodes.to_vec();
                    distinct.sort();
                    distinct.dedup();
                    for n in distinct {
                        for p in store.children(n, Some("prerequisites")) {
                            codes_of.extend(store.children(p, Some("pre_code")));
                        }
                    }
                    (
                        format!(
                            "({}, {})/prerequisites/pre_code",
                            course(codes[0]),
                            course(codes[1])
                        ),
                        Expected::of_nodes(&codes_of),
                    )
                }
            };
            if seen.insert(text.clone()) {
                corpus.push(ColdQuery {
                    template,
                    text,
                    expected,
                });
                made += 1;
            }
        }
    }
    // Interleave the templates so every stretch of a pass sees all eight.
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    shuffle(&mut order, &mut rng);
    let mut slots: Vec<Option<ColdQuery>> = corpus.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each index is taken once"))
        .collect()
}

impl Workload for Cold {
    fn cells(&self) -> Vec<String> {
        COLD_TEMPLATES.iter().map(|t| t.to_string()).collect()
    }

    fn round(&mut self) -> Round {
        let mut round = Round::new(COLD_TEMPLATES.len());
        if let Err(e) = self.fresh_engine() {
            round.attempted += 1;
            round.failed += 1;
            round.notes.push(format!("fresh engine: {e}"));
            return round;
        }
        let started = Instant::now();
        for query in &self.corpus {
            let t0 = Instant::now();
            let result = Cold::run(&mut self.db, query);
            let elapsed = t0.elapsed();
            round.record(
                query.template,
                elapsed,
                judge(
                    COLD_TEMPLATES[query.template],
                    &result,
                    &query.expected,
                    None,
                ),
            );
        }
        round.wall = started.elapsed();
        round
    }
}

// ---------------------------------------------------------------------
// service_read, service_publish: what a client of the service sees
// ---------------------------------------------------------------------

pub struct Kind {
    pub name: &'static str,
    pub text: String,
    pub expected: Expected,
}

fn closure_kind(
    name: &'static str,
    store: Store<'_>,
    family: Family,
    candidates: &[Node],
    attr: &str,
    quantile: f64,
    path: impl Fn(&str) -> String,
) -> Kind {
    let seed = oracle::pick_by_closure_size(store, family, candidates, quantile)
        .expect("generated documents have non-empty networks");
    let key = store
        .attribute(seed, attr)
        .expect("seed nodes carry their key");
    Kind {
        name,
        text: format!("with $x seeded by {} recurse {}", path(key), family.body()),
        expected: Expected::of_nodes(&oracle::closure(store, family, &[seed]).nodes),
    }
}

fn course_path(code: &str) -> String {
    format!("doc('{CURRICULUM}')/curriculum/course[@code='{code}']")
}

fn person_path(id: &str) -> String {
    format!("doc('{AUCTION}')/site/people/person[@id='{id}']")
}

fn path_lookup_kind(store: Store<'_>, rng: &mut Rng) -> Kind {
    let courses = courses(store, CURRICULUM);
    loop {
        let course = courses[rng.below(courses.len())];
        let codes: Vec<Node> = store
            .children(course, Some("prerequisites"))
            .into_iter()
            .flat_map(|p| store.children(p, Some("pre_code")))
            .collect();
        if !codes.is_empty() {
            let code = store
                .attribute(course, "code")
                .expect("courses carry a code");
            return Kind {
                name: "path_lookup",
                text: format!("{}/prerequisites/pre_code", course_path(code)),
                expected: Expected::of_nodes(&codes),
            };
        }
    }
}

fn count_kind(name: &'static str, store: Store<'_>) -> Kind {
    Kind {
        name,
        text: format!("count(doc('{HOSPITAL}')/hospital/patient[@disease='yes'])"),
        expected: Expected::Atoms(diseased_patients(store).len().to_string()),
    }
}

fn serve(docs: &[Doc], max_concurrent: usize) -> Res<Service> {
    let service = Service::new(max_concurrent, max_concurrent);
    for doc in docs {
        service.load(&doc.uri, &doc.xml, doc.id_attributes())?;
    }
    Ok(service)
}

/// One client's closed loop over the query kinds.
struct ClientLog {
    /// `(kind, latency, queue wait, plan-cache hit)` per answered query.
    answered: Vec<(usize, Duration, Duration, bool)>,
    failures: Vec<String>,
    fed_back: u64,
}

fn client_query(service: &Service, kinds: &[Kind], kind: usize, log: &mut ClientLog) {
    let t0 = Instant::now();
    let served = service.execute(&kinds[kind].text);
    let elapsed = t0.elapsed();
    match served {
        Ok(served) if kinds[kind].expected.matches(&served.answer) => {
            log.fed_back += served.answer.fed_back;
            log.answered
                .push((kind, elapsed, served.queue_wait, served.cache_hit));
        }
        Ok(_) => log.failures.push(format!(
            "{}: answer differs from the oracle",
            kinds[kind].name
        )),
        Err(refusal) => log
            .failures
            .push(format!("{}: {refusal:?}", kinds[kind].name)),
    }
}

fn merge_client(round: &mut Round, log: ClientLog) {
    for (kind, latency, queue_wait, cache_hit) in log.answered {
        round.samples[kind].push(latency.as_secs_f64() * 1e3);
        round.attempted += 1;
        round.extra("queue_wait_us", queue_wait.as_secs_f64() * 1e6);
        round.extra("cache_hit", if cache_hit { 1.0 } else { 0.0 });
    }
    for note in log.failures {
        round.attempted += 1;
        round.failed += 1;
        if round.notes.len() < 5 {
            round.notes.push(note);
        }
    }
    round.fed_back += log.fed_back;
}

/// `service_read`: two clients against one published snapshot, plan cache
/// warm, `Strategy::Auto`/`Backend::Auto` (the cost model is in the loop).
///
/// *Why:* what a client sees.  The fixpoints are short (≤ 1 ms), so the
/// service's own overhead — admission, cache lookup, lease, snapshot pin —
/// and `core`'s plan decision are a visible share of every answer.
pub struct Read {
    pub service: Service,
    pub kinds: Vec<Kind>,
    /// Queries each client sends in a round.
    pub per_client: usize,
}

pub const READ_CLIENTS: usize = 2;

impl Read {
    pub fn new(seed: u64, tiny: bool) -> Res<Read> {
        let docs = [
            Doc::generate(
                Family::Curriculum,
                size(Size::Medium, tiny),
                CURRICULUM,
                seed,
            ),
            Doc::generate(Family::Auction, size(Size::Medium, tiny), AUCTION, seed),
            Doc::generate(Family::Hospital, size(Size::Medium, tiny), HOSPITAL, seed),
        ];
        let service = serve(&docs, READ_CLIENTS)?;
        service.publish()?;
        let snapshot = service.snapshot();
        let store = snapshot.store();
        let mut rng = Rng::new(derive(seed, "service-kinds"));
        let courses = courses(store, CURRICULUM);
        let kinds = vec![
            closure_kind(
                "closure_deep",
                store,
                Family::Curriculum,
                &courses,
                "code",
                1.0,
                course_path,
            ),
            closure_kind(
                "closure_mid",
                store,
                Family::Curriculum,
                &courses,
                "code",
                0.5,
                course_path,
            ),
            closure_kind(
                "bidder_closure",
                store,
                Family::Auction,
                &persons(store),
                "id",
                0.5,
                person_path,
            ),
            path_lookup_kind(store, &mut rng),
            count_kind("count_scan", store),
        ];
        Ok(Read {
            service,
            kinds,
            per_client: if tiny { 50 } else { 500 },
        })
    }
}

impl Workload for Read {
    fn cells(&self) -> Vec<String> {
        self.kinds.iter().map(|k| k.name.to_string()).collect()
    }

    fn round(&mut self) -> Round {
        let mut round = Round::new(self.kinds.len());
        let before = self.service.counters();
        let started = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..READ_CLIENTS)
                .map(|client| {
                    let (service, kinds, per_client) =
                        (&self.service, &self.kinds, self.per_client);
                    scope.spawn(move || {
                        let mut log = ClientLog {
                            answered: Vec::with_capacity(per_client),
                            failures: Vec::new(),
                            fed_back: 0,
                        };
                        for i in 0..per_client {
                            client_query(service, kinds, (client + i) % kinds.len(), &mut log);
                        }
                        log
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread does not panic"))
                .collect()
        });
        round.wall = started.elapsed();
        for log in logs {
            merge_client(&mut round, log);
        }
        let after = self.service.counters();
        round.extra("forks", (after.forks - before.forks) as f64);
        round.extra("saturated", (after.saturated - before.saturated) as f64);
        round.extra(
            "deadline_exceeded",
            (after.deadline_exceeded - before.deadline_exceeded) as f64,
        );
        round
    }
}

/// `service_publish`: one reader beside one writer that loads a small
/// document under a fresh URI and publishes after every batch of reads.
///
/// *Why:* writes beside reads on the same `service`/`xdm` code.
/// `publish()` deep-clones every document and re-derives its indexes, and
/// every publication moves the load epoch, which empties the plan cache and
/// sends the reader down the cold path.  A read-side gain that costs
/// publish, or the reverse, shows in this workload only.  `publish` is a
/// cell of its own, so its latency enters `cell_geomean_ms`.
pub struct Publish {
    docs: Vec<Doc>,
    delta: Doc,
    pub service: Service,
    pub kinds: Vec<Kind>,
    /// Publications in a round, and the reads the writer waits for before
    /// each.
    pub publications: usize,
    pub reads_per_publication: u64,
}

impl Publish {
    pub fn new(seed: u64, tiny: bool) -> Res<Publish> {
        let docs = vec![
            Doc::generate(Family::Hospital, size(Size::Large, tiny), HOSPITAL, seed),
            Doc::generate(
                Family::Curriculum,
                size(Size::Medium, tiny),
                CURRICULUM,
                seed,
            ),
            Doc::generate(Family::Auction, size(Size::Medium, tiny), AUCTION, seed),
        ];
        let delta = Doc::generate(Family::Curriculum, Size::Small, "delta.xml", seed);
        let service = serve(&docs, 2)?;
        service.publish()?;
        let snapshot = service.snapshot();
        let store = snapshot.store();
        let mut rng = Rng::new(derive(seed, "service-kinds"));
        let kinds = vec![
            closure_kind(
                "closure_deep",
                store,
                Family::Curriculum,
                &courses(store, CURRICULUM),
                "code",
                1.0,
                course_path,
            ),
            closure_kind(
                "bidder_closure",
                store,
                Family::Auction,
                &persons(store),
                "id",
                0.5,
                person_path,
            ),
            path_lookup_kind(store, &mut rng),
            count_kind("hospital_count", store),
        ];
        Ok(Publish {
            docs,
            delta,
            service,
            kinds,
            publications: if tiny { 2 } else { 6 },
            reads_per_publication: if tiny { 8 } else { 24 },
        })
    }

    /// A service as it is right after its documents were loaded and
    /// published for the first time; returns the time of that first
    /// `publish()`.  Every round starts from this state, so rounds do not
    /// inherit each other's growing stores.
    pub fn fresh_service(&mut self) -> Res<Duration> {
        self.service = serve(&self.docs, 2)?;
        let t0 = Instant::now();
        self.service.publish()?;
        Ok(t0.elapsed())
    }
}

impl Workload for Publish {
    fn cells(&self) -> Vec<String> {
        let mut cells: Vec<String> = self.kinds.iter().map(|k| k.name.to_string()).collect();
        cells.push("publish".to_string());
        cells
    }

    fn round(&mut self) -> Round {
        let publish_cell = self.kinds.len();
        let mut round = Round::new(publish_cell + 1);
        match self.fresh_service() {
            Ok(first) => round.extra("first_publish_ms", first.as_secs_f64() * 1e3),
            Err(e) => {
                round.attempted += 1;
                round.failed += 1;
                round.notes.push(format!("fresh service: {e}"));
                return round;
            }
        }
        // Warm the plan cache: the round measures steady reads disturbed by
        // publications, not the first contact.
        for kind in &self.kinds {
            let _ = self.service.execute(&kind.text);
        }
        let before = self.service.counters();
        let reads_done = Mutex::new(0u64);
        let batch_done = Condvar::new();
        let writer_done = AtomicBool::new(false);
        let after_publish = AtomicU64::new(0);
        let (service, kinds, delta) = (&self.service, &self.kinds, &self.delta);
        let (publications, per_publication) = (self.publications, self.reads_per_publication);
        let started = Instant::now();
        let (log, first_reads, published) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut log = ClientLog {
                    answered: Vec::new(),
                    failures: Vec::new(),
                    fed_back: 0,
                };
                // Latency of the first read that starts after a publication
                // completed: the cold path (plan cache emptied).
                let mut first_reads = Vec::new();
                let mut seen_publications = 0;
                let mut i = 0usize;
                while !writer_done.load(Ordering::SeqCst) {
                    let published = after_publish.load(Ordering::SeqCst);
                    client_query(service, kinds, i % kinds.len(), &mut log);
                    if published > seen_publications {
                        seen_publications = published;
                        if let Some(&(_, latency, _, _)) = log.answered.last() {
                            first_reads.push(latency.as_secs_f64() * 1e3);
                        }
                    }
                    i += 1;
                    let mut done = reads_done
                        .lock()
                        .expect("reader holds no lock while panicking");
                    *done += 1;
                    if done.is_multiple_of(per_publication) {
                        batch_done.notify_one();
                    }
                }
                (log, first_reads)
            });
            let writer = scope.spawn(|| {
                let mut published: Vec<Result<Duration, String>> = Vec::new();
                for n in 0..publications {
                    let target = per_publication * (n as u64 + 1);
                    let mut done = reads_done
                        .lock()
                        .expect("writer holds no lock while panicking");
                    while *done < target {
                        done = batch_done
                            .wait(done)
                            .expect("reader does not panic under the lock");
                    }
                    drop(done);
                    let t0 = Instant::now();
                    let result = service
                        .load(&format!("delta-{n}.xml"), &delta.xml, delta.id_attributes())
                        .and_then(|()| service.publish());
                    published.push(result.map(|()| t0.elapsed()));
                    after_publish.fetch_add(1, Ordering::SeqCst);
                }
                writer_done.store(true, Ordering::SeqCst);
                published
            });
            let published = writer.join().expect("writer thread does not panic");
            let (log, first_reads) = reader.join().expect("reader thread does not panic");
            (log, first_reads, published)
        });
        round.wall = started.elapsed();
        merge_client(&mut round, log);
        for outcome in published {
            round.attempted += 1;
            match outcome {
                Ok(took) => round.samples[publish_cell].push(took.as_secs_f64() * 1e3),
                Err(e) => {
                    round.failed += 1;
                    round.notes.push(format!("publish: {e}"));
                }
            }
        }
        for ms in first_reads {
            round.extra("first_query_after_publish_ms", ms);
        }
        let after = self.service.counters();
        round.extra("forks", (after.forks - before.forks) as f64);
        round.extra("saturated", (after.saturated - before.saturated) as f64);
        round.extra(
            "deadline_exceeded",
            (after.deadline_exceeded - before.deadline_exceeded) as f64,
        );
        round.extra(
            "store_nodes",
            self.service.snapshot().store().node_count() as f64,
        );
        round
    }
}
