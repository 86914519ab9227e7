//! The `diag-serve` binary: a persistent experiment server.
//!
//! ```text
//! diag-serve [--addr HOST:PORT] [--workers N] [--capacity N]
//!            [--quantum N] [--port-file FILE] [--no-cache]
//!            [--cache-dir DIR]
//! ```
//!
//! Binds (port 0 picks an ephemeral port; `--port-file` writes the
//! resolved port for scripts), serves the line-delimited JSON protocol
//! until a client sends `shutdown`, drains the queue, and exits 0.

use std::process::ExitCode;

use diag_bench::cli::{self, CliSpec, Extra};
use diag_bench::sweep::default_jobs;
use diag_serve::{ServeConfig, Server};
use diag_workloads::Scale;

const USAGE: &str = "usage: diag-serve [--addr HOST:PORT] [--workers N] [--capacity N] \
                     [--quantum N] [--port-file FILE] [--no-cache] [--cache-dir DIR]";

const SPEC: CliSpec = CliSpec {
    cmd: "diag-serve",
    flags: &[],
    extras: &[
        Extra {
            name: "--addr",
            takes_value: true,
        },
        Extra {
            name: "--workers",
            takes_value: true,
        },
        Extra {
            name: "--capacity",
            takes_value: true,
        },
        Extra {
            name: "--quantum",
            takes_value: true,
        },
        Extra {
            name: "--port-file",
            takes_value: true,
        },
    ],
    default_scale: Scale::Tiny,
};

fn fail(message: &str) -> ExitCode {
    eprintln!("diag-serve: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_count(args: &cli::CommonArgs, flag: &str, default: usize) -> Result<usize, String> {
    match args.value(flag) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("{flag} needs a non-negative integer, got `{v}`")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&SPEC, &argv) {
        Ok(args) => args,
        Err(e) => return fail(&e),
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if !args.positionals.is_empty() {
        return fail(&format!("unexpected argument `{}`", args.positionals[0]));
    }
    let workers = match parse_count(&args, "--workers", default_jobs()) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let capacity = match parse_count(&args, "--capacity", 1024) {
        Ok(n) => n.max(1),
        Err(e) => return fail(&e),
    };
    let quantum = match parse_count(&args, "--quantum", 1) {
        Ok(n) => n.max(1) as u64,
        Err(e) => return fail(&e),
    };
    let config = ServeConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
        workers,
        capacity,
        quantum,
    };
    let server = match Server::bind(&config, args.session()) {
        Ok(server) => server,
        Err(e) => return fail(&format!("bind {}: {e}", config.addr)),
    };
    let addr = server.local_addr();
    eprintln!(
        "diag-serve: listening on {addr} ({workers} workers, capacity {capacity}, quantum {quantum})"
    );
    if let Some(path) = args.value("--port-file") {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
            return fail(&format!("write {path}: {e}"));
        }
    }
    match server.run() {
        Ok(()) => {
            eprintln!("diag-serve: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("diag-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
