//! The `diag-load` load generator: a closed-loop client for `diag-serve`.
//!
//! ```text
//! diag-load --addr HOST:PORT [--conns N] [--inflight M] [--requests K]
//!           [--seed S] [--machine SPEC|mix]
//!           [--workloads a,b,c] [--scale tiny|small|full]
//!           [--expect-warm] [--allow-reject] [--shutdown]
//! ```
//!
//! `--machine` takes any spec in the canonical grammar
//! (`diag[:preset][+k=v,...]`, `ooo[:cores]`, `inorder`) or `mix` for a
//! rotation over the three default machines.
//!
//! Opens `--conns` connections, each keeping up to `--inflight`
//! submissions outstanding until `--requests` per connection have
//! completed (closed loop). The workload/machine mix is drawn from a
//! SplitMix64 stream seeded with `--seed` + the connection index, so a
//! repeated invocation submits the identical request set — which is what
//! lets a second burst assert warm-cache behaviour with `--expect-warm`
//! (every result must report `builds == 0`, `hits ≥ 1`, and zero
//! run-stage builds: nothing simulated).
//!
//! Prints one summary line (req/s, latency p50/p99, cache totals) and
//! exits nonzero on any error frame, any reject (unless
//! `--allow-reject`), or any warm violation. `--shutdown` instead sends
//! the shutdown verb and exits.
//!
//! Client-side latency is recorded into the shared telemetry histogram
//! ([`diag_telemetry::Histogram`]) — the same log-scale buckets the
//! server uses — so the p50/p99 the summary prints and the ones the
//! server's `metrics` verb reports are directly comparable. With
//! `--expect-warm` the run finishes by scraping that verb and printing
//! the server-side view: per-verb latency, first-byte latency at the
//! run's scale, queue-depth high water, and run-stage cache totals next
//! to the client-observed ones.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use diag_bench::cli::{self, CliSpec, Extra, Flag};
use diag_bench::hostbench::scale_name;
use diag_bench::runner::MachineSpec;
use diag_isa::prng::SplitMix64;
use diag_serve::{Client, Frame, Submit};
use diag_telemetry::{Histogram, HistogramSnapshot};
use diag_workloads::Scale;

const USAGE: &str = "usage: diag-load --addr HOST:PORT [--conns N] [--inflight M] \
                     [--requests K] [--seed S] [--machine SPEC|mix] \
                     [--workloads a,b,c] [--scale tiny|small|full] [--expect-warm] \
                     [--allow-reject] [--shutdown]";

const SPEC: CliSpec = CliSpec {
    cmd: "diag-load",
    flags: &[Flag::Scale],
    extras: &[
        Extra {
            name: "--addr",
            takes_value: true,
        },
        Extra {
            name: "--conns",
            takes_value: true,
        },
        Extra {
            name: "--inflight",
            takes_value: true,
        },
        Extra {
            name: "--requests",
            takes_value: true,
        },
        Extra {
            name: "--seed",
            takes_value: true,
        },
        Extra {
            name: "--machine",
            takes_value: true,
        },
        Extra {
            name: "--workloads",
            takes_value: true,
        },
        Extra {
            name: "--expect-warm",
            takes_value: false,
        },
        Extra {
            name: "--allow-reject",
            takes_value: false,
        },
        Extra {
            name: "--shutdown",
            takes_value: false,
        },
    ],
    default_scale: Scale::Tiny,
};

fn fail(message: &str) -> ExitCode {
    eprintln!("diag-load: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// What one connection observed.
#[derive(Default)]
struct ConnReport {
    ok: u64,
    errors: u64,
    rejects: u64,
    warm_violations: u64,
    cache_hits: u64,
    cache_builds: u64,
    run_hits: u64,
    run_builds: u64,
    latency: Histogram,
    /// First few problem frames, verbatim, for the failure report.
    samples: Vec<String>,
}

struct Plan {
    addr: String,
    requests: u64,
    inflight: u64,
    seed: u64,
    workloads: Vec<String>,
    machines: Vec<String>,
    scale: Scale,
    expect_warm: bool,
}

fn drive(plan: &Plan, conn_idx: u64) -> std::io::Result<ConnReport> {
    let mut client = Client::connect(&plan.addr)?;
    let mut rng = SplitMix64::seed_from_u64(plan.seed.wrapping_add(conn_idx));
    let mut report = ConnReport::default();
    let mut sent: HashMap<u64, Instant> = HashMap::new();
    let mut next: u64 = 0;
    let mut done: u64 = 0;
    while done < plan.requests {
        while next < plan.requests && next - done < plan.inflight {
            let workload = &plan.workloads[rng.gen_range(0..plan.workloads.len())];
            let machine = &plan.machines[rng.gen_range(0..plan.machines.len())];
            let mut submit = Submit::new(next, workload, machine);
            submit.scale = scale_name(plan.scale).to_string();
            client.submit(&submit)?;
            sent.insert(next, Instant::now());
            next += 1;
        }
        let Some(frame) = client.recv()? else {
            return Err(std::io::Error::other(format!(
                "server closed with {} submissions outstanding",
                next - done
            )));
        };
        let seq = frame.seq();
        match frame.kind() {
            "result" => {
                done += 1;
                if let Some(t0) = seq.and_then(|s| sent.remove(&s)) {
                    report.latency.record(t0.elapsed().as_nanos() as u64);
                }
                let hits = frame.cache_hits().unwrap_or(0);
                let builds = frame.cache_builds().unwrap_or(0);
                let run_builds = frame.run_builds().unwrap_or(0);
                report.cache_hits += hits;
                report.cache_builds += builds;
                report.run_hits += frame.run_hits().unwrap_or(0);
                report.run_builds += run_builds;
                if frame.ok() == Some(true) {
                    report.ok += 1;
                    if plan.expect_warm && (builds != 0 || hits == 0 || run_builds != 0) {
                        report.warm_violations += 1;
                        sample(&mut report.samples, &frame.raw);
                    }
                } else {
                    report.errors += 1;
                    sample(&mut report.samples, &frame.raw);
                }
            }
            "reject" => {
                done += 1;
                seq.and_then(|s| sent.remove(&s));
                report.rejects += 1;
                sample(&mut report.samples, &frame.raw);
            }
            _ => {}
        }
    }
    Ok(report)
}

fn sample(samples: &mut Vec<String>, raw: &str) {
    if samples.len() < 5 {
        samples.push(raw.to_string());
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Scrapes the server's `metrics` verb on a fresh connection.
fn scrape_metrics(addr: &str) -> std::io::Result<Frame> {
    let mut client = Client::connect(addr)?;
    client.send_verb("metrics")?;
    let frame = client
        .recv()?
        .ok_or_else(|| std::io::Error::other("server closed before the metrics frame"))?;
    if frame.kind() != "metrics" {
        return Err(std::io::Error::other(format!(
            "expected a metrics frame, got: {}",
            frame.raw
        )));
    }
    Ok(frame)
}

/// Prints the server-side view next to what this client observed: the
/// two latency distributions share bucket math, so the percentiles are
/// directly comparable.
fn print_server_view(frame: &Frame, scale: Scale, total: &ConnReport, client: &HistogramSnapshot) {
    let hist = |key: &str, field: &str| frame.metric_field("histograms", key, field);
    for verb in ["submit", "status", "metrics", "cancel"] {
        let key = format!("diag_serve_verb_ns{{verb=\"{verb}\"}}");
        let Some(count) = hist(&key, "count").filter(|&c| c > 0) else {
            continue;
        };
        println!(
            "diag-load: server verb {verb}: {count} handled, p50 {:.2}ms p99 {:.2}ms",
            ms(hist(&key, "p50").unwrap_or(0)),
            ms(hist(&key, "p99").unwrap_or(0)),
        );
    }
    let key = format!(
        "diag_serve_first_byte_ns{{scale=\"{}\"}}",
        scale_name(scale)
    );
    println!(
        "diag-load: server first-byte[{}] p50 {:.2}ms p99 {:.2}ms vs client p50 {:.2}ms p99 {:.2}ms",
        scale_name(scale),
        ms(hist(&key, "p50").unwrap_or(0)),
        ms(hist(&key, "p99").unwrap_or(0)),
        ms(client.p50()),
        ms(client.p99()),
    );
    let gauge = |key: &str, field: &str| frame.metric_field("gauges", key, field).unwrap_or(0);
    println!(
        "diag-load: server queue depth high-water {}; run stage {} hits, {} builds \
         (this client saw {} hits, {} builds)",
        gauge("diag_serve_queue_depth", "high_water"),
        gauge("diag_cache_stage_hits{stage=\"runs\"}", "value"),
        gauge("diag_cache_stage_builds{stage=\"runs\"}", "value"),
        total.run_hits,
        total.run_builds,
    );
}

fn shutdown(addr: &str) -> ExitCode {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(&format!("connect {addr}: {e}")),
    };
    if let Err(e) = client.send_verb("shutdown") {
        return fail(&format!("send shutdown: {e}"));
    }
    match client.recv() {
        Ok(Some(frame)) => {
            println!("{}", frame.raw);
            ExitCode::SUCCESS
        }
        Ok(None) => fail("server closed before acknowledging shutdown"),
        Err(e) => fail(&format!("read shutdown ack: {e}")),
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
    let Some(addr) = args.value("--addr") else {
        return fail("--addr is required");
    };
    if args.has("--shutdown") {
        return shutdown(addr);
    }
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        match args.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a non-negative integer, got `{v}`")),
        }
    };
    let (conns, inflight, requests, seed) = match (|| {
        Ok::<_, String>((
            num("--conns", 2)?.max(1),
            num("--inflight", 4)?.max(1),
            num("--requests", 16)?,
            num("--seed", 1)?,
        ))
    })() {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let machines: Vec<String> = match args.value("--machine").unwrap_or("mix") {
        "mix" => ["diag", "ooo", "inorder"]
            .iter()
            .map(|m| m.to_string())
            .collect(),
        spec => match MachineSpec::parse(spec) {
            Ok(parsed) => vec![parsed.render()],
            Err(e) => return fail(&format!("--machine {spec}: {e}")),
        },
    };
    let workloads: Vec<String> = args
        .value("--workloads")
        .unwrap_or("bfs,hotspot,nn,mcf")
        .split(',')
        .map(|w| w.trim().to_string())
        .filter(|w| !w.is_empty())
        .collect();
    if workloads.is_empty() {
        return fail("--workloads needs at least one name");
    }
    let plan = Plan {
        addr: addr.to_string(),
        requests,
        inflight,
        seed,
        workloads,
        machines,
        scale: args.scale,
        expect_warm: args.has("--expect-warm"),
    };
    let t0 = Instant::now();
    let reports: Vec<std::io::Result<ConnReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let plan = &plan;
                scope.spawn(move || drive(plan, c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("connection thread panicked")))
            })
            .collect()
    });
    let elapsed = t0.elapsed();

    let mut total = ConnReport::default();
    let mut latency = HistogramSnapshot::default();
    let mut io_errors = 0u64;
    for report in reports {
        match report {
            Ok(r) => {
                total.ok += r.ok;
                total.errors += r.errors;
                total.rejects += r.rejects;
                total.warm_violations += r.warm_violations;
                total.cache_hits += r.cache_hits;
                total.cache_builds += r.cache_builds;
                total.run_hits += r.run_hits;
                total.run_builds += r.run_builds;
                latency.merge(&r.latency.snapshot());
                for s in r.samples {
                    sample(&mut total.samples, &s);
                }
            }
            Err(e) => {
                io_errors += 1;
                eprintln!("diag-load: connection failed: {e}");
            }
        }
    }
    let results = total.ok + total.errors;
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "diag-load: {results} results ({} ok, {} errors, {} rejects{}) in {secs:.3}s; \
         {:.1} req/s; latency p50 {:.2}ms p99 {:.2}ms; cache {} hits, {} builds; \
         runs {} hits, {} builds",
        total.ok,
        total.errors,
        total.rejects,
        if plan.expect_warm {
            format!(", {} warm violations", total.warm_violations)
        } else {
            String::new()
        },
        results as f64 / secs,
        ms(latency.p50()),
        ms(latency.p99()),
        total.cache_hits,
        total.cache_builds,
        total.run_hits,
        total.run_builds,
    );
    for s in &total.samples {
        eprintln!("diag-load: problem frame: {s}");
    }
    if plan.expect_warm {
        match scrape_metrics(addr) {
            Ok(frame) => print_server_view(&frame, plan.scale, &total, &latency),
            Err(e) => eprintln!("diag-load: metrics scrape failed: {e}"),
        }
    }
    let rejects_fatal = total.rejects > 0 && !args.has("--allow-reject");
    if total.errors > 0 || rejects_fatal || total.warm_violations > 0 || io_errors > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
