//! Command-line options shared by all figure binaries.

use std::path::PathBuf;

use chronus_grid::Shard;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Instructions per core.
    pub instructions: u64,
    /// Four-core mixes per intensity class.
    pub mixes_per_class: usize,
    /// Worker threads.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// RowHammer threshold sweep.
    pub nrh_list: Vec<u32>,
    /// Optional JSON output path.
    pub out: Option<PathBuf>,
    /// Grid shard this process owns (`--shard i/N`).
    pub shard: Shard,
    /// Result-store directory override (`--grid-dir`); default is
    /// `$CHRONUS_GRID_DIR` or `./grid-cache`.
    pub grid_dir: Option<PathBuf>,
    /// Bypass the result store entirely (`--no-cache`).
    pub no_cache: bool,
    /// Suppress per-cell progress/ETA lines (`--quiet`).
    pub quiet: bool,
    /// Attach the timing-observability probe to every simulation
    /// (`--obs`): reports gain an `ObsReport` section. Changes cell keys
    /// (obs cells cache separately) but no pre-existing report field.
    pub obs: bool,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        Self {
            instructions: 60_000,
            mixes_per_class: 2,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8),
            seed: 42,
            nrh_list: vec![1024, 512, 256, 128, 64, 32, 20],
            out: None,
            shard: Shard::full(),
            grid_dir: None,
            no_cache: false,
            quiet: false,
            obs: false,
        }
    }
}

/// Why parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// `--help` was requested.
    Help,
    /// A flag was malformed; the message names the flag and the offending
    /// value.
    Invalid(String),
}

/// The flags of [`HarnessOpts::parse_from`] that take no value argument.
/// Argument pre-splitters (`chronus-sweep` separates positionals from
/// flags) consult this so flag arity is defined in exactly one place.
pub const VALUELESS_FLAGS: &[&str] = &["--no-cache", "--quiet", "--obs", "--help", "-h"];

impl HarnessOpts {
    /// Parses `std::env::args`, printing usage on `--help` (exit 0) and a
    /// diagnostic naming the flag and value on malformed input (exit 2).
    pub fn from_args(tool: &str) -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(ParseOutcome::Help) => {
                eprintln!("{}", Self::usage(tool));
                std::process::exit(0);
            }
            Err(ParseOutcome::Invalid(msg)) => {
                eprintln!("{tool}: {msg}");
                eprintln!("try --help");
                std::process::exit(2);
            }
        }
    }

    /// The `--help` text.
    pub fn usage(tool: &str) -> String {
        format!(
            "{tool}: regenerates one artefact of the Chronus paper.\n\
             flags: --instructions N --mixes N --threads N --seed N \
             --nrh a,b,c --out FILE\n\
             \x20      (--instructions and each --nrh value are at least 1)\n\
             grid:  --shard i/N --grid-dir DIR --no-cache --quiet --obs\n\
             \x20      (split a grid across processes: --shard i/N, then \
             `chronus-sweep merge`)\n\
             fault: env CHRONUS_FAULTS=panic:P,io:P,seed:N\n\
             \x20      (a cell is simulated once: a panic, a run past its \
             cycle budget or a failed store write is recorded and the run \
             exits 3)"
        )
    }

    /// Pure parser over an argument iterator (testable; no process exit).
    ///
    /// # Errors
    ///
    /// [`ParseOutcome::Help`] on `--help`/`-h`; [`ParseOutcome::Invalid`]
    /// with a flag-and-value diagnostic on malformed input, including a
    /// zero `--instructions` or `--nrh` value (no cell could simulate it).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, ParseOutcome> {
        let mut o = Self::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| ParseOutcome::Invalid(format!("{name} requires a value")))
            };
            match a.as_str() {
                "--instructions" => {
                    o.instructions = positive("--instructions", &value("--instructions")?)?
                }
                "--mixes" => o.mixes_per_class = parse_flag("--mixes", &value("--mixes")?)?,
                "--threads" => o.threads = parse_flag("--threads", &value("--threads")?)?,
                "--seed" => o.seed = parse_flag("--seed", &value("--seed")?)?,
                "--nrh" => {
                    let list = value("--nrh")?;
                    o.nrh_list = list
                        .split(',')
                        .map(|s| positive("--nrh", s.trim()))
                        .collect::<Result<_, _>>()?;
                }
                "--out" => o.out = Some(PathBuf::from(value("--out")?)),
                "--shard" => {
                    let v = value("--shard")?;
                    o.shard = v
                        .parse()
                        .map_err(|e| ParseOutcome::Invalid(format!("--shard: {e}")))?;
                }
                "--grid-dir" => o.grid_dir = Some(PathBuf::from(value("--grid-dir")?)),
                "--no-cache" => o.no_cache = true,
                "--quiet" => o.quiet = true,
                "--obs" => o.obs = true,
                "--help" | "-h" => return Err(ParseOutcome::Help),
                other => return Err(ParseOutcome::Invalid(format!("unknown flag '{other}'"))),
            }
        }
        Ok(o)
    }

    /// A scaled-down copy for smoke tests.
    pub fn smoke() -> Self {
        Self {
            instructions: 5_000,
            mixes_per_class: 1,
            nrh_list: vec![1024, 32],
            ..Self::default()
        }
    }
}

/// Parses one flag value, reporting the flag name and offending value on
/// failure instead of panicking with a bare `expect("int")`.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ParseOutcome>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| ParseOutcome::Invalid(format!("{flag}: invalid value '{value}' ({e})")))
}

/// [`parse_flag`] for a count that must be at least 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    value: &str,
) -> Result<T, ParseOutcome>
where
    T::Err: std::fmt::Display,
{
    let n: T = parse_flag(flag, value)?;
    if n == T::default() {
        return Err(ParseOutcome::Invalid(format!(
            "{flag}: invalid value '{value}' (must be at least 1)"
        )));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessOpts, ParseOutcome> {
        HarnessOpts::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_cover_the_paper_sweep() {
        let o = HarnessOpts::default();
        assert_eq!(o.nrh_list, vec![1024, 512, 256, 128, 64, 32, 20]);
        assert!(o.threads >= 1);
        assert!(o.shard.is_full());
        assert!(!o.no_cache);
    }

    #[test]
    fn smoke_is_smaller() {
        let s = HarnessOpts::smoke();
        assert!(s.instructions < HarnessOpts::default().instructions);
    }

    #[test]
    fn parses_every_flag() {
        let o = parse(&[
            "--instructions",
            "9000",
            "--mixes",
            "3",
            "--threads",
            "2",
            "--seed",
            "7",
            "--nrh",
            "128, 64",
            "--out",
            "rows.json",
            "--shard",
            "2/4",
            "--grid-dir",
            "/tmp/store",
            "--no-cache",
            "--quiet",
            "--obs",
        ])
        .unwrap();
        assert_eq!(o.instructions, 9_000);
        assert_eq!(o.mixes_per_class, 3);
        assert_eq!(o.threads, 2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.nrh_list, vec![128, 64]);
        assert_eq!(o.out.as_deref(), Some(std::path::Path::new("rows.json")));
        assert_eq!(o.shard.to_string(), "2/4");
        assert_eq!(
            o.grid_dir.as_deref(),
            Some(std::path::Path::new("/tmp/store"))
        );
        assert!(o.no_cache);
        assert!(o.quiet);
        assert!(o.obs);
        assert!(!HarnessOpts::default().obs, "obs is opt-in");
    }

    #[test]
    fn batched_is_no_longer_a_flag() {
        // Timing cohorts fill automatically; the old opt-in is a usage error.
        assert_eq!(
            parse(&["--batched"]).unwrap_err(),
            ParseOutcome::Invalid("unknown flag '--batched'".into())
        );
    }

    #[test]
    fn bad_int_names_flag_and_value() {
        let err = parse(&["--threads", "x"]).unwrap_err();
        match err {
            ParseOutcome::Invalid(msg) => {
                assert!(msg.contains("--threads"), "flag name missing: {msg}");
                assert!(msg.contains("'x'"), "offending value missing: {msg}");
            }
            ParseOutcome::Help => panic!("expected Invalid"),
        }
    }

    #[test]
    fn bad_nrh_element_names_flag_and_value() {
        let err = parse(&["--nrh", "1024,zap,32"]).unwrap_err();
        match err {
            ParseOutcome::Invalid(msg) => {
                assert!(msg.contains("--nrh"), "{msg}");
                assert!(msg.contains("'zap'"), "{msg}");
            }
            ParseOutcome::Help => panic!("expected Invalid"),
        }
    }

    #[test]
    fn missing_value_and_unknown_flag_are_reported() {
        assert!(matches!(
            parse(&["--seed"]),
            Err(ParseOutcome::Invalid(msg)) if msg.contains("--seed")
        ));
        assert!(matches!(
            parse(&["--bogus"]),
            Err(ParseOutcome::Invalid(msg)) if msg.contains("--bogus")
        ));
        assert!(matches!(
            parse(&["--shard", "5/2"]),
            Err(ParseOutcome::Invalid(msg)) if msg.contains("5/2")
        ));
    }

    #[test]
    fn zero_instructions_and_zero_nrh_are_usage_errors() {
        // Every cell would fail (an empty trace) or panic (a zero
        // threshold); the user hears about the flag instead.
        for args in [
            &["--instructions", "0"][..],
            &["--nrh", "0"],
            &["--nrh", "1024,0,32"],
        ] {
            assert_eq!(
                parse(args).unwrap_err(),
                ParseOutcome::Invalid(format!(
                    "{}: invalid value '0' (must be at least 1)",
                    args[0]
                )),
                "{args:?}"
            );
        }
        let o = parse(&["--instructions", "1", "--nrh", "1"]).unwrap();
        assert_eq!((o.instructions, o.nrh_list), (1, vec![1]));
    }

    #[test]
    fn lease_ttl_is_no_longer_a_flag() {
        assert_eq!(
            parse(&["--lease-ttl", "9"]).unwrap_err(),
            ParseOutcome::Invalid("unknown flag '--lease-ttl'".into())
        );
    }

    #[test]
    fn retired_fault_flags_are_usage_errors() {
        // A cell is simulated once and no wall clock watches it: the
        // retry budget and the watchdog deadline are gone.
        for flag in ["--retries", "--cell-timeout"] {
            assert_eq!(
                parse(&[flag, "1"]).unwrap_err(),
                ParseOutcome::Invalid(format!("unknown flag '{flag}'"))
            );
        }
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]).unwrap_err(), ParseOutcome::Help);
        assert_eq!(parse(&["-h"]).unwrap_err(), ParseOutcome::Help);
    }
}
