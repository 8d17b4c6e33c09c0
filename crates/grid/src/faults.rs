//! Deterministic fault injection at the executor and store boundaries.
//!
//! Compiled in, off by default. `CHRONUS_FAULTS` turns it on for the CLI
//! harnesses:
//!
//! ```text
//! CHRONUS_FAULTS=panic:0.1,io:0.05,seed:7
//! ```
//!
//! * `panic:P` — a cell simulation panics with probability `P`; a cell is
//!   simulated once, so the panic is recorded, never retried;
//! * `io:P` — a store read/write fails with an injected `io::Error`; a
//!   failed write is recorded as `StoreWrite`, never retried;
//! * `seed:N` — decorrelates runs; every decision is a pure function of
//!   `(seed, site, key)`, so one seed replays identically on every
//!   machine and every call — which is what lets integration tests and CI
//!   assert exact recovery behaviour instead of trusting it.
//!
//! The library never reads the environment itself: executors and stores
//! take an explicit [`FaultPlan`] (see `ExecOpts::faults` and
//! `ResultStore::with_faults`), and the bench layer wires the variable
//! through. Tests construct plans directly and stay immune to env races.

use std::io;

use crate::hash::unit01;

/// Environment variable the CLI harnesses read fault plans from.
pub const FAULTS_ENV: &str = "CHRONUS_FAULTS";

/// A parsed fault plan: which faults fire, how often, and with what seed.
/// Every decision it draws is pure, so a plan carries no state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability a cell simulation panics.
    pub panic_p: f64,
    /// Probability a store operation returns an injected I/O error.
    pub io_p: f64,
    /// Decision seed; every draw is pure in `(seed, site, key)`.
    pub seed: u64,
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
                other => {
                    return Err(format!(
                        "unknown fault key '{other}' (known: panic, io, seed)"
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

    fn draw(&self, site: &str, key: &str) -> f64 {
        unit01(format!("{}|{site}|{key}", self.seed).as_bytes())
    }

    /// Whether simulating cell `key` panics.
    pub fn exec_fault(&self, key: &str) -> bool {
        self.draw("panic", key) < self.panic_p
    }

    /// The injected error (if any) for `op` (`"put"`, `"get"`) on entry
    /// `key`. The draw is pure, so every call on one `(op, key)` agrees.
    pub fn io_fault(&self, op: &str, key: &str) -> Option<io::Error> {
        (self.draw("io", &format!("{op}|{key}")) < self.io_p)
            .then(|| io::Error::other(format!("injected I/O fault ({op} {key})")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_syntax() {
        let plan = FaultPlan::parse("panic:0.5, io:0.25,seed:9").unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                panic_p: 0.5,
                io_p: 0.25,
                seed: 9,
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
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad} should fail");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seeded() {
        let plan = |seed| FaultPlan {
            panic_p: 0.5,
            seed,
            ..FaultPlan::default()
        };
        let (a, b, c) = (plan(1), plan(1), plan(2));
        let keys: Vec<String> = (0..64).map(|i| format!("cell{i}")).collect();
        let fire =
            |plan: &FaultPlan| -> Vec<bool> { keys.iter().map(|k| plan.exec_fault(k)).collect() };
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
        };
        let never = FaultPlan::default();
        for key in ["a", "b", "c"] {
            assert!(always.exec_fault(key));
            assert!(!never.exec_fault(key));
        }
    }

    #[test]
    fn io_draws_are_pure_per_op_and_key() {
        // Nothing is retried, so nothing counts calls: the same `(op, key)`
        // draws the same decision on every call, and ops and keys draw
        // independently.
        let plan = FaultPlan {
            io_p: 0.5,
            seed: 3,
            ..FaultPlan::default()
        };
        let keys: Vec<String> = (0..64).map(|i| format!("h{i}")).collect();
        let fire = |op: &str| -> Vec<bool> {
            keys.iter()
                .map(|k| plan.io_fault(op, k).is_some())
                .collect()
        };
        let puts = fire("put");
        assert_eq!(puts, fire("put"), "a repeated call draws the same");
        assert_ne!(puts, fire("get"), "ops draw independently");
        assert!(puts.contains(&true) && puts.contains(&false), "{puts:?}");
        let err = keys.iter().find_map(|k| plan.io_fault("put", k)).unwrap();
        assert!(
            err.to_string().starts_with("injected I/O fault (put h"),
            "{err}"
        );
    }

    #[test]
    fn attempts_key_is_unknown() {
        // No store write is retried, so no attempt can be gated clean: a
        // plan asking for that must fail rather than run without it.
        assert_eq!(
            FaultPlan::parse("io:1.0,attempts:1,seed:7").unwrap_err(),
            "unknown fault key 'attempts' (known: panic, io, seed)"
        );
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
                format!("unknown fault key '{key}' (known: panic, io, seed)")
            );
        }
    }
}
