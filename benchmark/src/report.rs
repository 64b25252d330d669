//! The commands around a single run: `all` (every workload in a process of
//! its own, then the traced runs, merged into `out/latest.json`), `check`
//! (the smoke test that holds the code to `BENCHMARK.json`) and `aa` (the
//! whole set twice on one binary, differences next to their bounds).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use crate::api::Res;
use crate::json::{self, object, Value};
use crate::layers::{self, out_dir, PER_LAYER};
use crate::run::{self, Outcome, DEFAULT_SECONDS, END_TO_END};
use crate::stats::{median, quartile_spread};
use crate::workloads::NAMES;

/// What `BENCHMARK.json` declares, as far as the ledger checks it.
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// `(name, unit, bound)`.
    pub end_to_end: Vec<(String, String, f64)>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
    pub better: BTreeMap<String, String>,
}

fn spec_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn load_spec() -> Res<Spec> {
    let path = spec_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |item: &Value, key: &str| -> Res<String> {
        item.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: an entry lacks \"{key}\""))
    };
    let list = |key: &str| root.get(key).map(Value::as_array).unwrap_or_default();
    let mut spec = Spec {
        run_seconds: root
            .get("run_seconds")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        workloads: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        better: BTreeMap::new(),
    };
    for item in list("workloads") {
        field(item, "why")?;
        spec.workloads.push(field(item, "name")?);
    }
    for item in list("end_to_end") {
        let bound = item
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: an end-to-end metric lacks \"bound\"")?;
        let name = field(item, "name")?;
        spec.better.insert(name.clone(), field(item, "better")?);
        spec.end_to_end.push((name, field(item, "unit")?, bound));
    }
    for item in list("per_layer") {
        let name = field(item, "name")?;
        spec.better.insert(name.clone(), field(item, "better")?);
        spec.per_layer.push((name, field(item, "unit")?));
    }
    Ok(spec)
}

/// The full record of one run, for `out/`.
fn outcome_json(outcome: &Outcome) -> Value {
    object([
        ("workload", Value::Text(outcome.workload.clone())),
        ("seed", Value::Number(outcome.seed as f64)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", run::metrics_json(&outcome.metrics)),
        ("detail", run::metrics_json(&outcome.detail)),
        (
            "notes",
            Value::Array(outcome.notes.iter().cloned().map(Value::Text).collect()),
        ),
    ])
}

fn record_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}.{}.json",
        if traced { "traced" } else { "end_to_end" }
    ))
}

/// Run one workload in this process, print its table and result line, and
/// leave the full record in `out/`.
pub fn single(workload: &str, seed: u64, seconds: f64, traced: bool) -> Res<()> {
    let outcome = if traced {
        layers::traced(workload, seed, seconds, false)?
    } else {
        run::end_to_end(workload, seed, seconds, false)?
    };
    outcome.print_table();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = record_path(workload, traced);
    std::fs::write(&path, outcome_json(&outcome).to_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", outcome.result_line());
    Ok(())
}

/// Run `workload` in a fresh process of this binary (so set-up time and
/// peak memory are the workload's own) and read its record back.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Res<Value> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} run exited with {status}"));
    }
    let path = record_path(workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One pass over the whole set: every workload untraced, then traced.
fn whole_set(seed: u64, seconds: f64) -> Res<Value> {
    let mut workloads = Vec::new();
    for name in NAMES {
        let end_to_end = child(name, seed, seconds, false)?;
        workloads.push((name.to_string(), object([("end_to_end", end_to_end)])));
    }
    for (name, record) in &mut workloads {
        let traced = child(name, seed, seconds, true)?;
        if let Value::Object(fields) = record {
            fields.push(("traced".to_string(), traced));
        }
    }
    Ok(object([
        ("seed", Value::Number(seed as f64)),
        ("seconds", Value::Number(seconds)),
        (
            "available_parallelism",
            Value::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Value::Object(workloads)),
    ]))
}

fn all_correct(set: &Value) -> bool {
    set.get("workloads")
        .map(Value::as_object)
        .unwrap_or_default()
        .iter()
        .all(|(_, w)| {
            ["end_to_end", "traced"].iter().all(|mode| {
                w.get(mode)
                    .and_then(|r| r.get("correct"))
                    .and_then(Value::as_bool)
                    == Some(true)
            })
        })
}

/// `ledger all`: the one command behind `benchmark/run.sh`.
pub fn all(seed: u64, seconds: f64) -> Res<()> {
    let set = whole_set(seed, seconds)?;
    let path = out_dir().join("latest.json");
    std::fs::write(&path, set.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    if all_correct(&set) {
        Ok(())
    } else {
        Err("some answers differed from the oracle; see the tables above".into())
    }
}

/// The value of `metric` in one run's record.
fn value_of(set: &Value, workload: &str, mode: &str, section: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(mode)?
        .get(section)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Counts that must repeat exactly between two runs of the same code on the
/// same seed.
fn repeats_exactly(metric: &str) -> bool {
    metric.ends_with("fed_back_nodes")
        || metric.ends_with(".depth")
        || metric.ends_with(".rows_fed_back")
        || metric.ends_with(".nodes_fed_back")
        || metric.ends_with(".body_evaluations")
        || metric.ends_with(".payload_calls")
}

/// `ledger aa`: the whole set twice on this binary.  Prints, per
/// (metric, workload), the relative difference next to its bound; fails on
/// any breach and on any exact-repeat count that moved.
pub fn aa(seed: u64, seconds: f64) -> Res<()> {
    let spec = load_spec()?;
    let first = whole_set(seed, seconds)?;
    let second = whole_set(seed, seconds)?;
    let mut breaches = Vec::new();
    println!("# A/A: the same binary, the same seed, twice");
    println!(
        "{:<16} {:<40} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "change", "bound"
    );
    for workload in NAMES {
        for (metric, _, bound) in &spec.end_to_end {
            let a = value_of(&first, workload, "end_to_end", "metrics", metric);
            let b = value_of(&second, workload, "end_to_end", "metrics", metric);
            let (Some(a), Some(b)) = (a, b) else {
                breaches.push(format!("{workload}/{metric}: missing"));
                continue;
            };
            let worse = match spec.better.get(metric).map(String::as_str) {
                Some("higher") => (a - b) / a,
                _ => (b - a) / a,
            };
            println!(
                "{workload:<16} {metric:<40} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%",
                worse * 100.0,
                bound * 100.0
            );
            if worse > *bound {
                breaches.push(format!(
                    "{workload}/{metric}: worse by {:.1}%, bound {:.0}%",
                    worse * 100.0,
                    bound * 100.0
                ));
            }
        }
        let counts = spec
            .per_layer
            .iter()
            .map(|(name, _)| ("traced", "metrics", name.as_str()))
            .chain([("end_to_end", "detail", "fed_back_nodes")])
            .filter(|(_, _, name)| repeats_exactly(name));
        for (mode, section, metric) in counts {
            // The service workloads run two threads; what each query feeds
            // back is fixed, how many queries a round holds is not.
            if workload == "service_publish" && metric == "fed_back_nodes" {
                continue;
            }
            let a = value_of(&first, workload, mode, section, metric);
            let b = value_of(&second, workload, mode, section, metric);
            if a != b || a.is_none() {
                println!("{workload:<16} {metric:<40} {a:>14.0?} {b:>14.0?}   moved");
                breaches.push(format!(
                    "{workload}/{metric}: exact-repeat count moved, {a:?} -> {b:?}"
                ));
            }
        }
    }
    println!("# per-layer metrics (no bound): change of the second traced run against the first");
    for workload in NAMES {
        for (metric, _) in &spec.per_layer {
            let a = value_of(&first, workload, "traced", "metrics", metric);
            let b = value_of(&second, workload, "traced", "metrics", metric);
            if let (Some(a), Some(b)) = (a, b) {
                let change = if a == 0.0 {
                    0.0
                } else {
                    (b - a) / a.abs() * 100.0
                };
                println!("{workload:<16} {metric:<40} {a:>14.4} {b:>14.4} {change:>8.2}%");
            }
        }
    }
    if !(all_correct(&first) && all_correct(&second)) {
        breaches.push("some answers differed from the oracle".into());
    }
    if breaches.is_empty() {
        println!("# A/A: every end-to-end metric within its bound, every exact count repeated");
        Ok(())
    } else {
        Err(format!("A/A breaches:\n  {}", breaches.join("\n  ")))
    }
}

/// `ledger spread`: each workload `runs` times, every time with another
/// seed, and per end-to-end metric the distance between the first and
/// third quartile as a share of the median — the rule a benchmark is
/// accepted by — next to a third of the metric's bound.
pub fn spread(first_seed: u64, seconds: f64, runs: usize) -> Res<()> {
    let spec = load_spec()?;
    let mut wide = Vec::new();
    for workload in NAMES {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for run in 0..runs {
            let record = child(workload, first_seed + run as u64, seconds, false)?;
            if record.get("correct").and_then(Value::as_bool) != Some(true) {
                return Err(format!(
                    "{workload}, seed {}: incorrect",
                    first_seed + run as u64
                ));
            }
            for (metric, _, _) in &spec.end_to_end {
                let value = record
                    .get("metrics")
                    .and_then(|m| m.get(metric)?.get("value")?.as_f64());
                values.entry(metric).or_default().extend(value);
            }
        }
        for (metric, _, bound) in &spec.end_to_end {
            let seen = &values[metric.as_str()];
            let spread = quartile_spread(seen);
            println!(
                "{workload:<16} {metric:<18} median {:>12.4} spread {:>6.2}%  a third of the bound {:>5.2}%",
                median(seen),
                spread * 100.0,
                bound / 3.0 * 100.0
            );
            if metric != "setup_s" && spread > bound / 3.0 {
                wide.push(format!(
                    "{workload}/{metric}: spread {:.2}%",
                    spread * 100.0
                ));
            }
        }
    }
    if wide.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "spreads above a third of their bound:\n  {}",
            wide.join("\n  ")
        ))
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Hold one run's metrics to the names and units `BENCHMARK.json` lists.
fn check_printed(
    problems: &mut Vec<String>,
    workload: &str,
    mode: &str,
    outcome: &Outcome,
    expected: &[(String, String)],
) {
    if !outcome.correct() {
        problems.push(format!(
            "{workload} ({mode}): {} of {} operations failed: {:?}",
            outcome.failed, outcome.attempted, outcome.notes
        ));
    }
    for (name, unit) in expected {
        let printed: Vec<_> = outcome.metrics.iter().filter(|m| m.name == *name).collect();
        match printed[..] {
            [one] if one.unit == unit => {}
            [one] => problems.push(format!(
                "{workload} ({mode}): {name} printed in {}, BENCHMARK.json says {unit}",
                one.unit
            )),
            [] => problems.push(format!("{workload} ({mode}): {name} is not printed")),
            _ => problems.push(format!(
                "{workload} ({mode}): {name} is printed more than once"
            )),
        }
    }
    for metric in &outcome.metrics {
        if !expected.iter().any(|(name, _)| *name == metric.name) {
            problems.push(format!(
                "{workload} ({mode}): {} is printed but not in BENCHMARK.json",
                metric.name
            ));
        }
        if !metric.value.is_finite() {
            problems.push(format!(
                "{workload} ({mode}): {} is not a number",
                metric.name
            ));
        }
    }
}

/// `ledger check`: every workload at smoke-test size, both modes, and the
/// output held against `BENCHMARK.json`.
pub fn check(seed: u64) -> Res<()> {
    let spec = load_spec()?;
    let mut problems = Vec::new();
    if spec.workloads != NAMES {
        problems.push(format!(
            "BENCHMARK.json names workloads {:?}, the ledger has {NAMES:?}",
            spec.workloads
        ));
    }
    if spec.run_seconds != DEFAULT_SECONDS {
        problems.push(format!(
            "BENCHMARK.json says run_seconds {}, the ledger defaults to {DEFAULT_SECONDS}",
            spec.run_seconds
        ));
    }
    if spec.end_to_end.is_empty() || spec.end_to_end.len() > 16 {
        problems.push(format!(
            "{} end-to-end metrics, 1 to 16 allowed",
            spec.end_to_end.len()
        ));
    }
    if spec.per_layer.is_empty() || spec.per_layer.len() > 128 {
        problems.push(format!(
            "{} per-layer metrics, 1 to 128 allowed",
            spec.per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = spec
        .workloads
        .iter()
        .chain(spec.end_to_end.iter().map(|(n, _, _)| n))
        .chain(spec.per_layer.iter().map(|(n, _)| n));
    for name in names {
        if !valid_name(name) {
            problems.push(format!(
                "{name:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
            ));
        }
        if !seen.insert(name.clone()) {
            problems.push(format!("{name:?} is used twice"));
        }
    }
    for (name, _, bound) in &spec.end_to_end {
        if !(*bound > 0.0 && *bound <= 0.25) {
            problems.push(format!("{name}: bound {bound} is outside (0, 0.25]"));
        }
    }
    let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let end_to_end: Vec<(String, String)> = spec
        .end_to_end
        .iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect();
    if end_to_end != declared(END_TO_END) {
        problems.push("BENCHMARK.json's end_to_end list differs from run::END_TO_END".into());
    }
    if spec.per_layer != declared(PER_LAYER) {
        problems.push("BENCHMARK.json's per_layer list differs from layers::PER_LAYER".into());
    }
    for workload in NAMES {
        let outcome = run::end_to_end(workload, seed, 0.0, true)?;
        check_printed(&mut problems, workload, "trace 0", &outcome, &end_to_end);
        let outcome = layers::traced(workload, seed, 0.0, true)?;
        check_printed(
            &mut problems,
            workload,
            "trace 1",
            &outcome,
            &spec.per_layer,
        );
        println!("checked {workload}");
    }
    if problems.is_empty() {
        println!(
            "check: {} workloads, {} end-to-end and {} per-layer metrics, each printed once with its unit",
            NAMES.len(),
            spec.end_to_end.len(),
            spec.per_layer.len()
        );
        Ok(())
    } else {
        Err(format!("check failed:\n  {}", problems.join("\n  ")))
    }
}
