//! Deterministic fault injection at the executor and store boundaries.
//!
//! Compiled in, off by default. `CHRONUS_FAULTS` turns it on for the CLI
//! harnesses:
//!
//! ```text
//! CHRONUS_FAULTS=panic:0.1,io:0.05,seed:7,attempts:1
//! ```
//!
//! * `panic:P` — a cell simulation panics with probability `P`; a cell is
//!   simulated once, so the panic is recorded, never retried;
//! * `io:P` — a store read/write fails with an injected `io::Error`;
//! * `seed:N` — decorrelates runs; every decision is a pure function of
//!   `(seed, site, key, attempt)`, so one seed replays identically on every
//!   machine — which is what lets integration tests and CI assert exact
//!   recovery behaviour instead of trusting it;
//! * `attempts:N` — only inject on the first `N` attempts of each site, so
//!   store-write retries deterministically heal (the retry-success path is
//!   testable); a simulation's one attempt is attempt 0.
//!
//! The library never reads the environment itself: executors and stores
//! take an explicit [`FaultInjector`] (see `ExecOpts::faults` and
//! `ResultStore::with_faults`), and the bench layer wires the variable
//! through. Tests construct plans directly and stay immune to env races.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

use crate::hash::unit01;

/// Environment variable the CLI harnesses read fault plans from.
pub const FAULTS_ENV: &str = "CHRONUS_FAULTS";

/// A parsed fault plan: which faults fire, how often, and with what seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability a cell simulation panics.
    pub panic_p: f64,
    /// Probability a store operation returns an injected I/O error.
    pub io_p: f64,
    /// Decision seed; every draw is pure in `(seed, site, key, attempt)`.
    pub seed: u64,
    /// Inject only on attempts `< N` of each site (`None` = every attempt).
    pub max_attempt: Option<u32>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            panic_p: 0.0,
            io_p: 0.0,
            seed: 0,
            max_attempt: None,
        }
    }
}

impl FaultPlan {
    /// Parses the `CHRONUS_FAULTS` syntax (`key:value` pairs, comma
    /// separated).
    ///
    /// # Errors
    ///
    /// Names the offending pair on unknown keys, unparsable numbers, and
    /// probabilities outside `[0, 1]`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for pair in text.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("fault spec '{pair}' is not key:value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault '{key}': invalid probability '{v}'"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault '{key}': probability {p} outside [0, 1]"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.trim()
                    .parse()
                    .map_err(|_| format!("fault '{key}': invalid integer '{v}'"))
            };
            match key.trim() {
                "panic" => plan.panic_p = prob(value)?,
                "io" => plan.io_p = prob(value)?,
                "seed" => plan.seed = int(value)?,
                "attempts" => plan.max_attempt = Some(int(value)? as u32),
                other => {
                    return Err(format!(
                        "unknown fault key '{other}' (known: panic, io, seed, attempts)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Reads and parses [`FAULTS_ENV`]; `Ok(None)` when unset or empty.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::parse`] diagnostics.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(text) if !text.trim().is_empty() => Self::parse(&text).map(Some),
            _ => Ok(None),
        }
    }

    /// Whether any fault can ever fire under this plan.
    pub fn is_active(&self) -> bool {
        self.panic_p > 0.0 || self.io_p > 0.0
    }

    /// Builds the injector for this plan.
    pub fn injector(self) -> FaultInjector {
        FaultInjector {
            plan: self,
            io_attempts: Arc::new(Mutex::new(HashMap::new())),
        }
    }
}

/// Draws deterministic fault decisions for executor and store sites.
///
/// Cloning shares the per-key I/O attempt counters, so a store and the
/// executor driving it observe one consistent schedule.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Store operations carry no explicit attempt number, so retries are
    /// distinguished by counting calls per `(op, key)`.
    io_attempts: Arc<Mutex<HashMap<String, u32>>>,
}

impl FaultInjector {
    /// The plan behind this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn gated(&self, attempt: u32) -> bool {
        self.plan.max_attempt.is_none_or(|n| attempt < n)
    }

    fn draw(&self, site: &str, key: &str, attempt: u32) -> f64 {
        unit01(format!("{}|{site}|{key}|{attempt}", self.plan.seed).as_bytes())
    }

    /// Whether simulating cell `key` panics. A cell is simulated once, so
    /// this is the draw for attempt 0.
    pub fn exec_fault(&self, key: &str) -> bool {
        self.gated(0) && self.draw("panic", key, 0) < self.plan.panic_p
    }

    /// The injected error (if any) for the next `op` (`"put"`, `"get"`) on
    /// entry `key`. Each call advances that site's attempt counter, so a
    /// retried operation sees a fresh (attempt-gated) draw.
    pub fn io_fault(&self, op: &str, key: &str) -> Option<io::Error> {
        let attempt = {
            let mut counts = self.io_attempts.lock().expect("io counter lock");
            let slot = counts.entry(format!("{op}|{key}")).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        };
        if self.gated(attempt) && self.draw("io", &format!("{op}|{key}"), attempt) < self.plan.io_p
        {
            return Some(io::Error::other(format!(
                "injected I/O fault ({op} {key}, attempt {attempt})"
            )));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_syntax() {
        let plan = FaultPlan::parse("panic:0.5, io:0.25,seed:9,attempts:2").unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                panic_p: 0.5,
                io_p: 0.25,
                seed: 9,
                max_attempt: Some(2),
            }
        );
        assert!(plan.is_active());
        assert!(!FaultPlan::default().is_active());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "panic",
            "panic:1.5",
            "panic:-0.1",
            "panic:zap",
            "warp:0.5",
            "seed:x",
            "attempts:ten",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad} should fail");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seeded() {
        let a = FaultPlan {
            panic_p: 0.5,
            seed: 1,
            ..FaultPlan::default()
        }
        .injector();
        let b = FaultPlan {
            panic_p: 0.5,
            seed: 1,
            ..FaultPlan::default()
        }
        .injector();
        let c = FaultPlan {
            panic_p: 0.5,
            seed: 2,
            ..FaultPlan::default()
        }
        .injector();
        let keys: Vec<String> = (0..64).map(|i| format!("cell{i}")).collect();
        let fire =
            |inj: &FaultInjector| -> Vec<bool> { keys.iter().map(|k| inj.exec_fault(k)).collect() };
        assert_eq!(fire(&a), fire(&b), "same seed must replay identically");
        assert_ne!(fire(&a), fire(&c), "seeds must decorrelate");
        // p = 0.5 over 64 keys: both outcomes must appear.
        assert!(fire(&a).iter().any(|&f| f));
        assert!(fire(&a).iter().any(|&f| !f));
    }

    #[test]
    fn certainties_behave() {
        let always = FaultPlan {
            panic_p: 1.0,
            ..FaultPlan::default()
        }
        .injector();
        let never = FaultPlan::default().injector();
        for key in ["a", "b", "c"] {
            assert!(always.exec_fault(key));
            assert!(!never.exec_fault(key));
        }
    }

    #[test]
    fn attempt_gating_heals_retries() {
        // A simulation's one attempt is attempt 0: `attempts:1` still
        // panics it, `attempts:0` gates every site off.
        let plan = |max_attempt| FaultPlan {
            panic_p: 1.0,
            io_p: 1.0,
            max_attempt,
            ..FaultPlan::default()
        };
        let once = plan(Some(1)).injector();
        assert!(once.exec_fault("k"), "attempt 0 injects");
        assert!(once.io_fault("put", "k").is_some(), "first put injects");
        assert!(
            once.io_fault("put", "k").is_none(),
            "the write retry is clean"
        );
        let off = plan(Some(0)).injector();
        assert!(!off.exec_fault("k"));
        assert!(off.io_fault("put", "k").is_none());
    }

    #[test]
    fn io_faults_count_attempts_per_site() {
        let inj = FaultPlan {
            io_p: 1.0,
            max_attempt: Some(1),
            ..FaultPlan::default()
        }
        .injector();
        assert!(inj.io_fault("put", "h1").is_some(), "first call injects");
        assert!(inj.io_fault("put", "h1").is_none(), "retry is gated clean");
        assert!(inj.io_fault("put", "h2").is_some(), "fresh key starts over");
        assert!(inj.io_fault("get", "h1").is_some(), "ops count separately");
    }

    #[test]
    fn lease_and_journal_keys_are_unknown() {
        // No layer reads these keys: a plan naming them must fail loudly
        // rather than run without the faults it asks for.
        for key in ["lease", "journal"] {
            let err = FaultPlan::parse(&format!("{key}:1.0,seed:7")).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown fault key '{key}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn stall_keys_are_unknown() {
        // No wall clock watches a simulation any more: a plan asking for a
        // stall must fail rather than run without it.
        for key in ["stall", "stall_ms"] {
            let err = FaultPlan::parse(&format!("{key}:1,seed:7")).unwrap_err();
            assert_eq!(
                err,
                format!("unknown fault key '{key}' (known: panic, io, seed, attempts)")
            );
        }
    }
}
