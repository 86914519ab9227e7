//! `diag-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--spans-out FILE]`
//!
//! Prints one line per metric (value, unit, sample count), the
//! `RunStats` digests and any failed checks, then the one-line JSON
//! result. Exits 1 when any output check failed, 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use diag_perfbench::{run, Config, WORKLOADS};

const USAGE: &str =
    "usage: diag-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        spans_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.max(1),
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--spans-out" => cfg.spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if cfg.seconds == 0 {
        return Err("--seconds is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("diag-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("diag-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.render_table(&cfg.workload));
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
