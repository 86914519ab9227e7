//! Shared flag parsing for the `harness` subcommands.
//!
//! Historically every subcommand hand-rolled its own `--machine`,
//! `--threads`, `--simt`, `--quick`, and `--out` loops, and they drifted
//! (`analyze` could not change scale at all). This module is the one
//! table-driven parser: a [`CliSpec`] names which common flags a
//! subcommand accepts plus any subcommand-specific extras, and
//! [`parse`] rejects everything else with a message the caller prints
//! before the usage text. The cache flags (`--no-cache`, `--cache-dir`)
//! are global: every subcommand that prepares artifacts accepts them, and
//! every caller accepts `--help` / `-h` (see [`CommonArgs::help`]).

use diag_pipeline::{DiskCache, Session};
use diag_workloads::{Params, Scale};

use crate::runner::MachineSpec;
use crate::sweep::default_jobs;

/// Common flags a subcommand can opt into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--scale tiny|small|full` and its `--quick` (= `--scale tiny`)
    /// alias.
    Scale,
    /// `--threads N`.
    Threads,
    /// `--simt`.
    Simt,
    /// `--machine SPEC` in the canonical machine grammar —
    /// `diag[:preset][+key=value,...]`, `ooo[:cores]`, or `inorder`
    /// (see [`MachineSpec::parse`]).
    Machine,
    /// `--jobs N`.
    Jobs,
    /// `--strict`.
    Strict,
    /// `--out FILE`.
    Out,
}

/// A subcommand-specific flag the shared parser captures verbatim.
#[derive(Debug, Clone, Copy)]
pub struct Extra {
    /// Flag spelling, e.g. `--format`.
    pub name: &'static str,
    /// Whether the flag consumes the next argument as its value.
    pub takes_value: bool,
}

/// What one subcommand accepts.
#[derive(Debug, Clone, Copy)]
pub struct CliSpec {
    /// Subcommand name (for error messages).
    pub cmd: &'static str,
    /// Accepted common flags.
    pub flags: &'static [Flag],
    /// Accepted subcommand-specific flags.
    pub extras: &'static [Extra],
    /// Scale when neither `--scale` nor `--quick` is given.
    pub default_scale: Scale,
}

/// Parsed arguments of one subcommand invocation.
#[derive(Debug)]
pub struct CommonArgs {
    /// Problem scale (`--scale` / `--quick`, else the spec's default).
    pub scale: Scale,
    /// `--threads` (default 1).
    pub threads: usize,
    /// `--simt`.
    pub simt: bool,
    /// `--machine` (default `diag:f4c32`).
    pub machine: MachineSpec,
    /// `--jobs` (default: host parallelism).
    pub jobs: usize,
    /// `--strict`.
    pub strict: bool,
    /// `--out`.
    pub out: Option<String>,
    /// `--no-cache`: keep the session in memory only.
    pub no_cache: bool,
    /// `--cache-dir`: on-disk cache location override.
    pub cache_dir: Option<String>,
    /// `--help` / `-h`: the caller prints its usage to stdout and exits 0
    /// instead of running.
    pub help: bool,
    /// Non-flag arguments, in order (workload/experiment names).
    pub positionals: Vec<String>,
    extras: Vec<(&'static str, String)>,
}

impl CommonArgs {
    /// Whether a flag-style extra (e.g. `--json`) was given.
    pub fn has(&self, name: &str) -> bool {
        self.extras.iter().any(|(n, _)| *n == name)
    }

    /// The value of a value-taking extra (e.g. `--format`), if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.extras
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Build/run parameters from the parsed scale, threads, and SIMT
    /// flags.
    pub fn params(&self) -> Params {
        Params::small()
            .with_scale(self.scale)
            .with_threads(self.threads)
            .with_simt(self.simt)
    }

    /// The artifact session this invocation asked for: in-memory under
    /// `--no-cache`, else disk-backed at `--cache-dir` (default
    /// `target/diag-cache/`), degrading to in-memory if the directory
    /// cannot be created.
    pub fn session(&self) -> Session {
        if self.no_cache {
            return Session::in_memory();
        }
        match &self.cache_dir {
            Some(dir) => match DiskCache::open(dir, DiskCache::DEFAULT_BUDGET) {
                Ok(disk) => Session::with_disk(disk),
                Err(_) => Session::in_memory(),
            },
            None => Session::open_default(),
        }
    }
}

fn value_of<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn positive<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    value_of(it, flag)?
        .parse::<T>()
        .map_err(|_| format!("{flag} needs a positive integer"))
}

/// Parses `args` against `spec`.
///
/// # Errors
///
/// Returns a one-line message on an unknown flag, a flag the subcommand
/// does not accept, a missing value, or an unparsable value — the caller
/// prints it and exits with the usage text.
pub fn parse(spec: &CliSpec, args: &[String]) -> Result<CommonArgs, String> {
    let has = |f: Flag| spec.flags.contains(&f);
    let mut out = CommonArgs {
        scale: spec.default_scale,
        threads: 1,
        simt: false,
        machine: MachineSpec::parse("diag")?,
        jobs: default_jobs(),
        strict: false,
        out: None,
        no_cache: false,
        cache_dir: None,
        help: false,
        positionals: Vec::new(),
        extras: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => out.help = true,
            "--no-cache" => out.no_cache = true,
            "--cache-dir" => out.cache_dir = Some(value_of(&mut it, "--cache-dir")?.clone()),
            "--scale" if has(Flag::Scale) => {
                out.scale = match value_of(&mut it, "--scale")?.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale `{other}` (tiny|small|full)")),
                };
            }
            "--quick" if has(Flag::Scale) => out.scale = Scale::Tiny,
            "--threads" if has(Flag::Threads) => {
                out.threads = positive::<usize>(&mut it, "--threads")?.max(1);
            }
            "--simt" if has(Flag::Simt) => out.simt = true,
            "--machine" if has(Flag::Machine) => {
                let text = value_of(&mut it, "--machine")?;
                out.machine =
                    MachineSpec::parse(text).map_err(|e| format!("--machine {text}: {e}"))?;
            }
            "--jobs" if has(Flag::Jobs) => {
                out.jobs = positive::<usize>(&mut it, "--jobs")?.max(1);
            }
            "--strict" if has(Flag::Strict) => out.strict = true,
            "--out" if has(Flag::Out) => {
                out.out = Some(value_of(&mut it, "--out")?.clone());
            }
            other => {
                if let Some(extra) = spec.extras.iter().find(|e| e.name == other) {
                    let v = if extra.takes_value {
                        value_of(&mut it, extra.name)?.clone()
                    } else {
                        String::new()
                    };
                    out.extras.push((extra.name, v));
                } else if other.starts_with('-') {
                    return Err(format!("unknown flag `{other}`"));
                } else {
                    out.positionals.push(other.to_string());
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const FULL: CliSpec = CliSpec {
        cmd: "test",
        flags: &[
            Flag::Scale,
            Flag::Threads,
            Flag::Simt,
            Flag::Machine,
            Flag::Jobs,
            Flag::Strict,
            Flag::Out,
        ],
        extras: &[
            Extra {
                name: "--format",
                takes_value: true,
            },
            Extra {
                name: "--json",
                takes_value: false,
            },
        ],
        default_scale: Scale::Small,
    };

    const BARE: CliSpec = CliSpec {
        cmd: "bare",
        flags: &[],
        extras: &[],
        default_scale: Scale::Small,
    };

    #[test]
    fn parses_every_common_flag() {
        let parsed = parse(
            &FULL,
            &args(&[
                "hotspot",
                "--scale",
                "tiny",
                "--threads",
                "4",
                "--simt",
                "--machine",
                "ooo",
                "--jobs",
                "2",
                "--strict",
                "--out",
                "x.json",
                "--no-cache",
            ]),
        )
        .unwrap();
        assert_eq!(parsed.scale, Scale::Tiny);
        assert_eq!(parsed.threads, 4);
        assert!(parsed.simt);
        assert!(matches!(parsed.machine, MachineSpec::Ooo(12)));
        assert_eq!(parsed.jobs, 2);
        assert!(parsed.strict);
        assert_eq!(parsed.out.as_deref(), Some("x.json"));
        assert!(parsed.no_cache);
        assert_eq!(parsed.positionals, ["hotspot"]);
    }

    #[test]
    fn machine_specs_parse_through_the_grammar() {
        let parsed = parse(
            &FULL,
            &args(&["--machine", "diag:f4c2+clusters=8,lsu_depth=4"]),
        )
        .unwrap();
        let MachineSpec::Diag(cfg) = &parsed.machine else {
            panic!("not diag: {:?}", parsed.machine)
        };
        assert_eq!(cfg.clusters, 8);
        assert_eq!(cfg.lsu_depth, 4);
        assert_eq!(parsed.machine.render(), "diag:f4c2+clusters=8,lsu_depth=4");

        let parsed = parse(&FULL, &args(&[])).unwrap();
        assert_eq!(parsed.machine.render(), "diag:f4c32", "default machine");
    }

    #[test]
    fn quick_is_a_scale_alias() {
        let parsed = parse(&FULL, &args(&["--quick"])).unwrap();
        assert_eq!(parsed.scale, Scale::Tiny);
        let parsed = parse(&FULL, &args(&[])).unwrap();
        assert_eq!(parsed.scale, Scale::Small);
    }

    #[test]
    fn rejects_unknown_flags_and_values() {
        assert!(parse(&FULL, &args(&["--no-such"])).is_err());
        assert!(parse(&FULL, &args(&["--scale", "huge"]))
            .unwrap_err()
            .contains("unknown scale"));
        assert!(parse(&FULL, &args(&["--machine", "vax"]))
            .unwrap_err()
            .contains("unknown machine"));
        assert!(parse(&FULL, &args(&["--machine", "diag+clusters=nope"]))
            .unwrap_err()
            .contains("unsigned integer"));
        assert!(parse(&FULL, &args(&["--threads", "many"]))
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&FULL, &args(&["--out"]))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn unaccepted_common_flags_are_rejected() {
        // A spec with no flags rejects every common flag it did not opt
        // into — no silent acceptance of `--simt` on `bench`.
        for flag in [
            "--scale",
            "--quick",
            "--threads",
            "--simt",
            "--machine",
            "--jobs",
        ] {
            let err = parse(&BARE, &args(&[flag])).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
        // The cache flags are global even on a bare spec.
        assert!(parse(&BARE, &args(&["--no-cache"])).is_ok());
    }

    #[test]
    fn extras_are_captured() {
        let parsed = parse(&FULL, &args(&["--json", "--format", "folded"])).unwrap();
        assert!(parsed.has("--json"));
        assert!(!parsed.has("--top"));
        assert_eq!(parsed.value("--format"), Some("folded"));
        assert!(parse(&FULL, &args(&["--format"])).is_err());
    }

    #[test]
    fn params_carry_scale_threads_simt() {
        let parsed = parse(
            &FULL,
            &args(&["--scale", "full", "--threads", "12", "--simt"]),
        )
        .unwrap();
        let p = parsed.params();
        assert_eq!(p.scale, Scale::Full);
        assert_eq!(p.threads, 12);
        assert!(p.simt);
        assert_eq!(p.seed, Params::small().seed, "seed is not CLI-settable");
    }

    #[test]
    fn help_is_accepted_by_every_spec() {
        for flag in ["--help", "-h"] {
            let parsed = parse(&BARE, &args(&[flag])).unwrap();
            assert!(parsed.help, "{flag}");
        }
        assert!(!parse(&BARE, &args(&[])).unwrap().help);
    }

    #[test]
    fn no_cache_session_has_no_disk() {
        let parsed = parse(&FULL, &args(&["--no-cache"])).unwrap();
        assert!(parsed.session().disk().is_none());
    }
}
