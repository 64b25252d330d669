//! One measured run of one workload with tracing off: set-up (several
//! times, median reported), one discarded warm-up round, then rounds until
//! `--seconds` have passed; the end-to-end metrics come out of the rounds.

use std::time::{Duration, Instant};

use crate::api::Res;
use crate::json::{object, Value};
use crate::stats::{geomean, median, percentile};
use crate::workloads::{self, Built, Round, Workload};

/// The default `--seconds`; `ledger check` holds `run_seconds` in
/// `BENCHMARK.json` to it.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// Every end-to-end metric with its unit.  This list and `BENCHMARK.json`
/// must agree; `ledger check` holds them to it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cell_geomean_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// One named number, as printed and as written to the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples stand behind the value.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// What a run reports: the metrics `BENCHMARK.json` names for this mode,
/// further detail for the table, and the correctness verdict.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Numbers printed beside the metrics but not listed in
    /// `BENCHMARK.json`: per-cell medians, exact counts, round counts.
    pub detail: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted.max(1) as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .to_json()
    }

    pub fn print_table(&self) {
        println!(
            "# {} seed {}: attempted {} failed {}",
            self.workload, self.seed, self.attempted, self.failed
        );
        for metric in self.metrics.iter().chain(&self.detail) {
            println!(
                "{:<44} {:>16.6} {:<8} n={}",
                metric.name, metric.value, metric.unit, metric.samples
            );
        }
        for note in &self.notes {
            println!("! {note}");
        }
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    object([
                        ("value", Value::Number(m.value)),
                        ("unit", Value::Text(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// A field of `/proc/self/status` in MB (`VmHWM`: peak resident set,
/// `VmRSS`: current).
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set up `name` `times` times, keeping the last; returns each set-up's
/// duration.
pub fn set_up(name: &str, seed: u64, tiny: bool, times: usize) -> Res<(Built, Vec<f64>)> {
    let mut durations = Vec::new();
    let mut workload = None;
    for _ in 0..times.max(1) {
        // The previous instance goes first, so two never live side by side
        // and `peak_rss_mb` stays the footprint of one.
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(workloads::build(name, seed, tiny)?);
        durations.push(t0.elapsed().as_secs_f64());
    }
    Ok((workload.expect("set up at least once"), durations))
}

/// Run rounds until `budget` has passed (and at least `min_rounds`).
pub fn measure(workload: &mut dyn Workload, budget: Duration, min_rounds: usize) -> Vec<Round> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || started.elapsed() < budget {
        rounds.push(workload.round());
    }
    rounds
}

/// Per cell: the latency, the p95 over all samples where there are at
/// least `TAIL_SAMPLES` of them (so at least ten lie beyond it), and the
/// sample count.
///
/// The latency is the median *within* a round and the fastest tenth *over*
/// rounds.  This box shares its host: interference comes in bursts of
/// seconds that slow whole rounds by 10–50 %, while the quiet rounds of a
/// run agree to a few percent.  The number wanted is what the program
/// costs, not what the neighbour took, so the quiet rounds speak for the
/// run; over ten runs the tenth percentile spread a third as wide as the
/// median did.  The plain median over rounds is printed beside it.
pub struct CellSummary {
    pub name: String,
    pub latency_ms: f64,
    pub median_ms: f64,
    pub p95_ms: Option<f64>,
    pub samples: usize,
}

pub const TAIL_SAMPLES: usize = 200;
/// The share of rounds, counted from the fastest, that speaks for a run.
pub const QUIET_ROUNDS: f64 = 0.10;

pub fn summarize_cells(names: &[String], rounds: &[Round]) -> Vec<CellSummary> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let medians: Vec<f64> = rounds
                .iter()
                .map(|r| &r.samples[i])
                .filter(|s| !s.is_empty())
                .map(|s| median(s))
                .collect();
            let pooled: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.samples[i].iter().copied())
                .collect();
            CellSummary {
                name: name.clone(),
                latency_ms: percentile(&medians, QUIET_ROUNDS),
                median_ms: median(&medians),
                p95_ms: (pooled.len() >= TAIL_SAMPLES).then(|| percentile(&pooled, 0.95)),
                samples: pooled.len(),
            }
        })
        .collect()
}

/// All values of one extra over all rounds.
pub fn extras(rounds: &[Round], name: &str) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.extras.get(name).into_iter().flatten().copied())
        .collect()
}

/// The end-to-end run (`--trace 0`).
pub fn end_to_end(name: &str, seed: u64, seconds: f64, tiny: bool) -> Res<Outcome> {
    let (mut built, set_ups) = set_up(name, seed, tiny, if tiny { 1 } else { 3 })?;
    let workload = built.workload();
    let warm_up_started = Instant::now();
    let warm_up = workload.round();
    let warm_up_s = warm_up_started.elapsed().as_secs_f64();
    let rounds = measure(
        workload,
        Duration::from_secs_f64(seconds),
        if tiny { 1 } else { 3 },
    );
    let peak_rss_mb = proc_status_mb("VmHWM");

    let names = workload.cells();
    let cells = summarize_cells(&names, &rounds);
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum::<u64>() + warm_up.failed;
    let throughput: Vec<f64> = rounds
        .iter()
        .filter(|r| r.wall > Duration::ZERO)
        .map(|r| r.attempted as f64 / r.wall.as_secs_f64())
        .collect();
    let latencies: Vec<f64> = cells.iter().map(|c| c.latency_ms).collect();
    let medians: Vec<f64> = cells.iter().map(|c| c.median_ms).collect();

    let mut outcome = Outcome {
        workload: name.to_string(),
        seed,
        attempted,
        failed,
        ..Outcome::default()
    };
    outcome.metrics = vec![
        // Median set-up plus the one warm-up round: everything between
        // process start and the first measured operation.
        Metric::new("setup_s", "s", median(&set_ups) + warm_up_s, set_ups.len()),
        Metric::new("cell_geomean_ms", "ms", geomean(&latencies), cells.len()),
        // Throughput of the quiet rounds, as for the latencies.
        Metric::new(
            "ops_per_s",
            "1/s",
            percentile(&throughput, 1.0 - QUIET_ROUNDS),
            throughput.len(),
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb, 1),
    ];
    outcome.detail.push(Metric::new(
        "rounds",
        "count",
        rounds.len() as f64,
        rounds.len(),
    ));
    for cell in &cells {
        outcome.detail.push(Metric::new(
            format!("cell.{}_ms", cell.name),
            "ms",
            cell.latency_ms,
            cell.samples,
        ));
    }
    // What the same numbers read with the plain median over rounds: the
    // gap to the metrics above is the interference this run met.
    outcome.detail.push(Metric::new(
        "median_rounds.cell_geomean_ms",
        "ms",
        geomean(&medians),
        cells.len(),
    ));
    outcome.detail.push(Metric::new(
        "median_rounds.ops_per_s",
        "1/s",
        median(&throughput),
        throughput.len(),
    ));
    let tails: Vec<f64> = cells.iter().filter_map(|c| c.p95_ms).collect();
    if !tails.is_empty() {
        outcome.detail.push(Metric::new(
            "tail_p95_ms",
            "ms",
            geomean(&tails),
            tails.len(),
        ));
    }
    if let Some(first) = rounds.first() {
        // Exact-repeat count: one round's worth, the same in every round.
        let steady = rounds.iter().all(|r| r.fed_back == first.fed_back);
        outcome.detail.push(Metric::new(
            "fed_back_nodes",
            "count",
            first.fed_back as f64,
            rounds.len(),
        ));
        if !steady && !name.starts_with("service") {
            outcome
                .notes
                .push("fed_back_nodes differs between rounds of one run".to_string());
        }
    }
    for round in std::iter::once(&warm_up).chain(&rounds) {
        outcome.notes.extend(round.notes.iter().cloned());
    }
    outcome.notes.truncate(8);
    Ok(outcome)
}
