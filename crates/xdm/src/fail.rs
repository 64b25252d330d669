//! Deterministic fault injection (failpoints).
//!
//! A *failpoint* is a named site in the engine (`publish.clone`,
//! `fixpoint.barrier`, …) where a test can ask for a failure to be injected:
//! either a **panic** (to exercise unwind containment) or a typed **error**
//! (to exercise error propagation).  Sites fire under one of two
//! deterministic triggers:
//!
//! * **nth hit** — the site fires exactly once, on its `n`-th execution;
//! * **seeded probability** — every hit fires with probability `p`, driven
//!   by a per-site splitmix64 stream seeded explicitly, so a chaos run is
//!   reproducible from `(fault spec, thread schedule)`.
//!
//! Faults are configured programmatically ([`configure`]) or through the
//! `XQY_FAULTS` environment variable (read once, at first use):
//!
//! ```text
//! XQY_FAULTS="publish.clone=error@1;fixpoint.barrier=panic%5:42"
//!             └────site────┘ └action┘└┤  └───site──────┘ └┤  └┤ └┤
//!                                  nth hit            action  p%  seed
//! ```
//!
//! The subsystem is always compiled in, but costs a single relaxed atomic
//! load per site when no fault is armed — there is no registry lookup, no
//! lock, and no allocation on the disabled path.  Sites that fired are
//! recorded ([`report`]) so a chaos harness can prove coverage.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// What an armed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an `"injected fault at <site>"` payload, exercising the
    /// unwind-containment path.
    Panic,
    /// Return a [`FaultError`] from [`point`], exercising the typed error
    /// path.  Sites without a `Result` channel (e.g. `shard.worker`)
    /// escalate `Error` to a panic.
    Error,
}

/// When an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// Fire exactly once, on the `n`-th hit (1-based).
    OnNthHit(u64),
    /// Fire each hit independently with the given probability in `[0, 1]`,
    /// from a splitmix64 stream with the given seed.
    Probability {
        /// Chance of firing per hit, `0.0 ..= 1.0`.
        p: f64,
        /// Seed of the per-site random stream.
        seed: u64,
    },
}

/// The typed error produced by an `Error`-action failpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that fired.
    pub site: String,
    /// Which hit of the site fired (1-based).
    pub hit: u64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (hit {})", self.site, self.hit)
    }
}

impl std::error::Error for FaultError {}

/// Per-site bookkeeping for [`report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// Site name.
    pub site: String,
    /// Times the site was reached while armed.
    pub hits: u64,
    /// Times the site actually fired.
    pub fired: u64,
}

struct SiteState {
    action: FaultAction,
    trigger: FaultTrigger,
    hits: AtomicU64,
    fired: AtomicU64,
    /// splitmix64 state for `Probability` triggers.
    rng: AtomicU64,
}

impl SiteState {
    fn new(action: FaultAction, trigger: FaultTrigger) -> Self {
        let seed = match trigger {
            FaultTrigger::Probability { seed, .. } => seed,
            FaultTrigger::OnNthHit(_) => 0,
        };
        SiteState {
            action,
            trigger,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
            rng: AtomicU64::new(seed),
        }
    }

    /// Count a hit and decide whether it fires.
    fn hit(&self) -> Option<(FaultAction, u64)> {
        let hit = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fires = match self.trigger {
            FaultTrigger::OnNthHit(n) => hit == n,
            FaultTrigger::Probability { p, seed: _ } => {
                let x = splitmix64(&self.rng);
                // Map the top 53 bits to [0, 1).
                let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
                unit < p
            }
        };
        if fires {
            self.fired.fetch_add(1, Ordering::Relaxed);
            Some((self.action, hit))
        } else {
            None
        }
    }
}

fn splitmix64(state: &AtomicU64) -> u64 {
    let mut z = state.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tri-state armed flag; the only cost paid by the disabled fast path is
/// one relaxed load.  `UNINIT` exists so the very first `point()` call
/// parses `XQY_FAULTS` — were this a plain boolean starting at "off",
/// an env-armed process would never reach the registry that arms it.
const UNINIT: u8 = 0;
const DISABLED: u8 = 1;
const ARMED: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(UNINIT);

static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<SiteState>>>> = OnceLock::new();

fn registry() -> &'static Mutex<HashMap<String, Arc<SiteState>>> {
    REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var("XQY_FAULTS") {
            match parse_spec(&spec) {
                Ok(sites) => {
                    for (site, action, trigger) in sites {
                        map.insert(site, Arc::new(SiteState::new(action, trigger)));
                    }
                }
                Err(e) => eprintln!("xqy_xdm::fail: ignoring malformed XQY_FAULTS: {e}"),
            }
        }
        let state = if map.is_empty() { DISABLED } else { ARMED };
        // Racing initializers may briefly overwrite a concurrent
        // `configure`'s ARMED with DISABLED; `configure` re-stores ARMED
        // after `lock_registry` returns, so the flag settles correctly.
        STATE.store(state, Ordering::Release);
        Mutex::new(map)
    })
}

/// `true` iff at least one site may be armed, initializing the registry
/// (and with it the `XQY_FAULTS` parse) on the first call.
#[inline]
fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        DISABLED => false,
        ARMED => true,
        _ => {
            registry();
            STATE.load(Ordering::Relaxed) == ARMED
        }
    }
}

fn lock_registry() -> std::sync::MutexGuard<'static, HashMap<String, Arc<SiteState>>> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parse an `XQY_FAULTS`-style spec: `site=action@n` or `site=action%p:seed`
/// (`p` is a percentage, possibly fractional), `;`-separated.
pub fn parse_spec(spec: &str) -> Result<Vec<(String, FaultAction, FaultTrigger)>, String> {
    let mut out = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, rest) = part
            .split_once('=')
            .ok_or_else(|| format!("missing '=' in {part:?}"))?;
        let (action_str, trigger) = if let Some((a, n)) = rest.split_once('@') {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad hit count in {part:?}"))?;
            (a, FaultTrigger::OnNthHit(n))
        } else if let Some((a, pr)) = rest.split_once('%') {
            let (pct, seed) = pr
                .split_once(':')
                .ok_or_else(|| format!("missing ':seed' in {part:?}"))?;
            let pct: f64 = pct
                .parse()
                .map_err(|_| format!("bad probability in {part:?}"))?;
            let seed: u64 = seed.parse().map_err(|_| format!("bad seed in {part:?}"))?;
            (
                a,
                FaultTrigger::Probability {
                    p: (pct / 100.0).clamp(0.0, 1.0),
                    seed,
                },
            )
        } else {
            return Err(format!("missing '@n' or '%p:seed' trigger in {part:?}"));
        };
        let action = match action_str {
            "panic" => FaultAction::Panic,
            "error" => FaultAction::Error,
            other => return Err(format!("unknown action {other:?} in {part:?}")),
        };
        out.push((site.trim().to_string(), action, trigger));
    }
    Ok(out)
}

/// Arm a failpoint programmatically (replacing any previous configuration
/// of the same site).
pub fn configure(site: &str, action: FaultAction, trigger: FaultTrigger) {
    lock_registry().insert(site.to_string(), Arc::new(SiteState::new(action, trigger)));
    STATE.store(ARMED, Ordering::Release);
}

/// Disarm every failpoint and forget its hit counts.
pub fn reset() {
    lock_registry().clear();
    STATE.store(DISABLED, Ordering::Release);
}

/// Hit/fired counts for every armed site, sorted by site name — the raw
/// material of the chaos suite's coverage report.
pub fn report() -> Vec<SiteReport> {
    let mut out: Vec<SiteReport> = lock_registry()
        .iter()
        .map(|(site, st)| SiteReport {
            site: site.clone(),
            hits: st.hits.load(Ordering::Relaxed),
            fired: st.fired.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by(|a, b| a.site.cmp(&b.site));
    out
}

/// Names of the sites that have fired at least once.
pub fn fired_sites() -> Vec<String> {
    report()
        .into_iter()
        .filter(|r| r.fired > 0)
        .map(|r| r.site)
        .collect()
}

/// Execute the failpoint named `site`.
///
/// Disabled sites return `Ok(())` after a single relaxed atomic load.  An
/// armed site whose trigger fires either panics (action `Panic`) or returns
/// a [`FaultError`] (action `Error`) for the caller to map into its local
/// error type.
#[inline]
pub fn point(site: &str) -> Result<(), FaultError> {
    if !enabled() {
        return Ok(());
    }
    point_slow(site)
}

#[cold]
fn point_slow(site: &str) -> Result<(), FaultError> {
    let state = lock_registry().get(site).cloned();
    if let Some(state) = state {
        if let Some((action, hit)) = state.hit() {
            match action {
                FaultAction::Panic => panic!("injected fault at {site} (hit {hit})"),
                FaultAction::Error => {
                    return Err(FaultError {
                        site: site.to_string(),
                        hit,
                    })
                }
            }
        }
    }
    Ok(())
}

/// Execute the failpoint named `site` in a context with no error channel:
/// both actions escalate to a panic (used by e.g. `shard.worker`, where the
/// panic is surfaced as a typed error at the service boundary).
#[inline]
pub fn point_panic(site: &str) {
    if !enabled() {
        return;
    }
    if let Err(e) = point_slow(site) {
        panic!("{e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so these tests serialise on a lock
    // and reset state around each scenario.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_point_is_ok() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        assert_eq!(point("nonexistent.site"), Ok(()));
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        configure("t.nth", FaultAction::Error, FaultTrigger::OnNthHit(3));
        assert!(point("t.nth").is_ok());
        assert!(point("t.nth").is_ok());
        let err = point("t.nth").unwrap_err();
        assert_eq!(err.site, "t.nth");
        assert_eq!(err.hit, 3);
        assert!(point("t.nth").is_ok());
        let rep = report();
        assert_eq!(rep.len(), 1);
        assert_eq!(rep[0].hits, 4);
        assert_eq!(rep[0].fired, 1);
        reset();
    }

    #[test]
    fn probability_is_seeded_and_reproducible() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let run = |seed: u64| -> Vec<bool> {
            reset();
            configure(
                "t.prob",
                FaultAction::Error,
                FaultTrigger::Probability { p: 0.5, seed },
            );
            let fired: Vec<bool> = (0..64).map(|_| point("t.prob").is_err()).collect();
            reset();
            fired
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must reproduce the same firing pattern");
        assert_ne!(a, c, "different seeds should diverge");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fired), "p=0.5 fired {fired}/64 times");
    }

    #[test]
    fn panic_action_panics_and_is_catchable() {
        let _g = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        configure("t.panic", FaultAction::Panic, FaultTrigger::OnNthHit(1));
        let caught = std::panic::catch_unwind(|| {
            let _ = point("t.panic");
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected fault at t.panic"));
        reset();
    }

    #[test]
    fn spec_grammar_round_trips() {
        let parsed = parse_spec("a.b=error@2; c.d=panic%12.5:99").unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[0],
            (
                "a.b".to_string(),
                FaultAction::Error,
                FaultTrigger::OnNthHit(2)
            )
        );
        assert_eq!(parsed[1].0, "c.d");
        assert_eq!(parsed[1].1, FaultAction::Panic);
        match parsed[1].2 {
            FaultTrigger::Probability { p, seed } => {
                assert!((p - 0.125).abs() < 1e-9);
                assert_eq!(seed, 99);
            }
            _ => panic!("expected probability trigger"),
        }
        assert!(parse_spec("garbage").is_err());
        assert!(parse_spec("a=panic").is_err(), "trigger is mandatory");
        assert!(parse_spec("a=explode@1").is_err());
    }
}
