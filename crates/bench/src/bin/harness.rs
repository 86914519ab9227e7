//! Experiment harness CLI: regenerates the paper's tables and figures,
//! analyzes workloads statically, sweeps machines, and captures traces.
//!
//! ```text
//! harness run <experiment|all> [--scale S|--quick] [--jobs N] [--strict]
//! harness analyze [workload ...|all] [--json] [--scale S] [--threads N] [--simt]
//! harness sweep [workload ...|all] [--scale S|--quick] [--jobs N] [--strict]
//!               [--metrics-out FILE]
//! harness metrics <file>
//! harness tune [workload ...|all] [--grid SPEC;...] [--scale S|--quick]
//!              [--threads N] [--simt] [--jobs N] [--strict] [--out FILE]
//! harness bench [workload ...|all] [--scale S|--quick] [--repeat N] [--out FILE]
//!               [--baseline FILE] [--max-regress PCT]
//! harness trace <workload> [--machine M] [--format F] [--window N]
//!               [--out FILE] [--threads N] [--simt] [--scale S|--quick]
//! harness profile <workload> [--machine M] [--format text|json|folded]
//!               [--top N] [--out FILE] [--threads N] [--simt] [--scale S|--quick]
//! harness profile diff <before.json> <after.json> [--top N]
//! harness cache stats|clear [--cache-dir DIR]
//! harness serve [--addr HOST:PORT] [--workers N] [--capacity N]
//!               [--quantum N] [--port-file FILE]
//! harness --help
//! ```
//!
//! The leading `run` may be omitted (`harness table1` works), preserving
//! the historical invocation. Unknown flags exit non-zero with the usage
//! text instead of being silently ignored. All subcommands share one
//! flag parser ([`diag_bench::cli`]): `--scale tiny|small|full` picks the
//! input scale uniformly (`--quick` is an alias for `--scale tiny`), and
//! the global `--no-cache` / `--cache-dir DIR` flags control the artifact
//! cache.
//!
//! Everything a subcommand prepares — workload assembly, station-table
//! lowering, static analysis, rendered reports — flows through one
//! content-addressed artifact session (`diag_pipeline::Session`): each
//! stage is built at most once per key per invocation, program images
//! and reports persist under `target/diag-cache/` across invocations,
//! and a one-line cache summary is printed to stderr (stdout stays
//! byte-identical, cold or warm). `--no-cache` keeps the session in
//! memory only; `harness cache stats|clear` inspects or empties the disk
//! layer.
//!
//! Experiments: `table1 table2 table3 fig9a fig9b fig10a fig10b fig11
//! fig12 stalls ablation-lane ablation-reuse ablation-simt ablation-lsu
//! ablation-spec`. `--jobs N` shards the simulation runs of each
//! experiment over N worker threads (default: the host's available
//! parallelism); results are byte-identical at any job count. `--strict`
//! exits non-zero if any individual run failed (failures are otherwise
//! reported inline and the remaining rows still render).
//!
//! `analyze` runs the static dataflow analyzer ([`diag_analyze`]) over the
//! named workloads (default: all) without simulating a cycle, printing one
//! text report per kernel — or one JSON object per line with `--json` — and
//! exits non-zero if any kernel has a warning- or error-severity finding.
//! (Its default scale stays `tiny`: analysis findings do not change with
//! input size, and the CI gate runs it on every push.)
//!
//! `sweep` runs the named workloads (default: all) on every machine model
//! — DiAG f4c32, the 12-core out-of-order baseline, and the in-order
//! reference — in parallel, and prints one cycles/IPC table. With
//! `--metrics-out FILE` the sweep workers are instrumented (busy/idle
//! wall time, per-run host ns and ns/instr histograms) and the telemetry
//! exposition — including the session's cache-stage gauges — is written
//! to FILE as `diag-telemetry-v1` JSON; `harness metrics FILE` renders
//! such a file (or a captured `diag-serve` `metrics` frame) as aligned
//! text.
//!
//! `tune` sweeps a grid of DiAG configurations (default: 36 points
//! around F4C32 on the §5 parametrizable axes; override with
//! `--grid "spec;spec;..."`) over the named workloads and prints each
//! workload's Pareto frontier of cycles vs modeled energy. Every grid
//! run is memoized by the session's run stage, so a warm re-tune
//! simulates nothing and prints a byte-identical report.
//!
//! `bench` times the *simulator itself*: host nanoseconds per committed
//! instruction for every named workload (default: all) on every machine
//! model, serially, best of `--repeat N` runs (default 3). The report is
//! written as JSON to `--out FILE` (default `BENCH_sim.json`); the host
//! metadata object records the artifact-cache counters of the run. With
//! `--baseline FILE` each row gains a `speedup_vs_seed` field against the
//! recorded numbers, and `--max-regress PCT` exits non-zero if the
//! aggregate ns/instr regressed by more than PCT percent.
//!
//! `trace` runs one workload with the [`diag_trace`] subsystem attached
//! and exports the event stream: `--format perfetto` (default) writes
//! Chrome trace-event JSON loadable at <https://ui.perfetto.dev>,
//! `jsonl` writes the canonical one-event-per-line stream, `heatmap` and
//! `timeline` render text views at `--window N` cycles per bucket
//! (default: the run length over 64). `--out FILE` redirects the export
//! from stdout into a file.
//!
//! `profile` runs one workload with the [`diag_profile`] cycle-accounting
//! subsystem attached and reports where the cycles went: `--format text`
//! (default) prints the top-down bucket table and the `--top N` hottest
//! PCs with annotated disassembly, `json` writes the full machine-readable
//! profile (host metadata in the header, exact reconciliation enforced
//! before writing), and `folded` writes collapsed stacks — one
//! `loop;block;instruction count` line per PC — loadable by inferno /
//! speedscope / `flamegraph.pl`. `profile diff <before> <after>` compares
//! two saved JSON profiles and prints per-PC self-cycle deltas.
//!
//! All `--out` paths create missing parent directories.

use diag_bench::cli::{self, CliSpec, CommonArgs, Extra, Flag};
use diag_bench::runner::{build_machine, run_built, MachineSpec};
use diag_bench::sweep::Sweep;
use diag_bench::tune;
use diag_bench::{experiments, hostbench, sweep};
use diag_pipeline::{DiskCache, ReportFormat, Session};
use diag_profile::{
    diff_profiles, render_text, to_folded, CycleModel, Profile, ProfileCollector, ProfileMeta,
    Profiler,
};
use diag_trace::timeline::StallTimeline;
use diag_trace::{heatmap, perfetto, Tracer, VecSink};
use diag_workloads::{Scale, Suite};

const USAGE: &str = "usage: harness <subcommand> [options]

subcommands:
  run <experiment|all>   regenerate a paper table/figure (the leading
                         `run` may be omitted: `harness table1` works)
  analyze [workload ...] static dataflow analysis, no simulation
  verify [workload ...]  abstract-interpretation verifier, no simulation
  sweep [workload ...]   run workloads on every machine; cycles/IPC table
  metrics <file>         pretty-print a saved telemetry exposition
  tune [workload ...]    sweep a DiAG config grid; cycles/energy Pareto frontier
  bench [workload ...]   time the simulator itself; write BENCH_sim.json
  trace <workload>       run one workload with tracing and export events
  profile <workload>     run one workload with cycle accounting attached
  profile diff <a> <b>   compare two saved JSON profiles
  cache stats|clear      inspect or empty the on-disk artifact cache
  serve                  start the persistent experiment server (diag-serve)
  --help                 this message

global options (every subcommand):
  --no-cache             keep artifacts in memory only for this run
  --cache-dir DIR        artifact cache location (default target/diag-cache)

run options:      [--scale tiny|small|full | --quick] [--jobs N] [--strict]
analyze options:  [--json] [--scale tiny|small|full] [--threads N] [--simt]
verify options:   [--json] [--scale tiny|small|full] [--threads N] [--simt]
                  [--strict] [--out FILE]
sweep options:    [--scale tiny|small|full | --quick] [--jobs N] [--strict]
                  [--metrics-out FILE]
tune options:     [--scale tiny|small|full | --quick] [--threads N] [--simt]
                  [--jobs N] [--strict] [--out FILE] [--grid SPEC;SPEC;...]
bench options:    [--scale tiny|small|full | --quick] [--repeat N] [--out FILE]
                  [--baseline FILE] [--max-regress PCT]
trace options:    [--machine SPEC] [--format perfetto|jsonl|heatmap|timeline]
                  [--window N] [--out FILE] [--threads N] [--simt] [--quick]
profile options:  [--machine SPEC] [--format text|json|folded]
                  [--top N] [--out FILE] [--threads N] [--simt] [--quick]

machine specs (--machine, --grid): diag[:preset][+key=value,...] | ooo[:cores]
  | inorder, e.g. diag:f4c32+clusters=16,lsu_depth=8. Presets: i4c2 f4c2
  f4c16 f4c32. Override keys: pes_per_cluster clusters ring_clusters
  lane_buffer_interval lsu_depth memlane_capacity commit_width max_cycles
  reuse simt.
profile diff options: [--top N]
cache options:    [--cache-dir DIR]
serve options:    [--addr HOST:PORT] [--workers N] [--capacity N] [--quantum N]
                  [--port-file FILE]

experiments: table1 table2 table3 fig9a fig9b fig10a fig10b fig11 fig12
             stalls ablation-lane ablation-reuse ablation-simt
             ablation-lsu ablation-spec";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Parses `args` against `spec`, printing the parse error and the usage
/// text on rejection, or the usage text alone (exit 0) on `--help`.
fn parse_or_usage(spec: &CliSpec, args: &[String]) -> CommonArgs {
    let args = cli::parse(spec, args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    if args.help {
        println!("{USAGE}");
        std::process::exit(0);
    }
    args
}

/// Prints the session's one-line cache summary to stderr (stdout is
/// reserved for subcommand output, which must be byte-identical whether
/// the cache was cold or warm).
fn report_cache(session: &Session) {
    eprintln!("{}", session.counters().summary());
}

/// Writes `text` to `path`, creating any missing parent directories —
/// `--out results/new/run.json` should not fail on a fresh checkout.
fn write_output(path: &str, text: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The `analyze` subcommand: static analysis over bundled workloads.
/// Returns the process exit code.
fn analyze_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "analyze",
        flags: &[Flag::Scale, Flag::Threads, Flag::Simt],
        extras: &[Extra {
            name: "--json",
            takes_value: false,
        }],
        // Findings do not change with input size and the CI gate runs
        // `harness analyze` on every push, so the cheap scale stays the
        // default; `--scale small|full` is available for parity.
        default_scale: Scale::Tiny,
    };
    let args = parse_or_usage(&SPEC, args);
    let json = args.has("--json");
    let specs = resolve_workloads(&args.positionals);
    let session = args.session();

    let opts = diag_analyze::AnalyzeOptions {
        config: diag_core::DiagConfig::f4c32(),
        threads: args.threads,
    };
    let params = args.params();
    let format = if json {
        ReportFormat::Json
    } else {
        ReportFormat::Text
    };
    let mut worst: Option<diag_analyze::Severity> = None;
    for spec in &specs {
        if args.simt && !spec.simt_capable {
            continue;
        }
        let report = match session.analysis_report(spec, &params, &opts, format) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: build failed: {e}", spec.name);
                return 1;
            }
        };
        if json {
            println!("{report}");
        } else {
            print!("{report}");
        }
        let analysis = match session.analysis(spec, &params, &opts) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{}: build failed: {e}", spec.name);
                return 1;
            }
        };
        worst = worst.max(analysis.max_severity());
    }
    report_cache(&session);
    if worst >= Some(diag_analyze::Severity::Warning) {
        eprintln!("analyze: findings at warning severity or above (see reports)");
        1
    } else {
        0
    }
}

/// The `verify` subcommand: abstract-interpretation verification over
/// bundled workloads. Returns the process exit code.
fn verify_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "verify",
        flags: &[
            Flag::Scale,
            Flag::Threads,
            Flag::Simt,
            Flag::Strict,
            Flag::Out,
        ],
        extras: &[Extra {
            name: "--json",
            takes_value: false,
        }],
        // Like `analyze`: verdicts do not depend on input size and the
        // CI gate runs `verify --strict` on every push, so the cheap
        // scale is the default.
        default_scale: Scale::Tiny,
    };
    let args = parse_or_usage(&SPEC, args);
    let json = args.has("--json");
    let specs = resolve_workloads(&args.positionals);
    let session = args.session();

    let opts = diag_verify::VerifyOptions {
        threads: args.threads,
        trap_vector: None,
    };
    let params = args.params();
    let format = if json {
        ReportFormat::Json
    } else {
        ReportFormat::Text
    };
    let mut refuted = 0usize;
    let mut collected = String::new();
    for spec in &specs {
        if args.simt && !spec.simt_capable {
            continue;
        }
        let report = match session.verification_report(spec, &params, &opts, format) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: build failed: {e}", spec.name);
                return 1;
            }
        };
        if json {
            println!("{report}");
            collected.push_str(&report);
            collected.push('\n');
        } else {
            print!("{report}");
            collected.push_str(&report);
        }
        let verification = match session.verification(spec, &params, &opts) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{}: build failed: {e}", spec.name);
                return 1;
            }
        };
        refuted += verification.refuted_count();
    }
    if let Some(path) = &args.out {
        if let Err(e) = write_output(path, &collected) {
            eprintln!("{e}");
            return 1;
        }
    }
    report_cache(&session);
    eprintln!("verify: {} fixpoint runs", diag_verify::fixpoint_runs());
    if refuted > 0 {
        eprintln!("verify: {refuted} refuted fact(s) (see reports)");
        if args.strict {
            return 1;
        }
    }
    0
}

/// Looks up workload names (empty or `all` → every bundled workload),
/// exiting with usage on an unknown name.
fn resolve_workloads(names: &[String]) -> Vec<diag_workloads::WorkloadSpec> {
    if names.is_empty() || names == ["all"] {
        return diag_workloads::all();
    }
    names
        .iter()
        .map(|n| {
            diag_workloads::find(n).unwrap_or_else(|| {
                eprintln!("unknown workload `{n}`");
                usage();
            })
        })
        .collect()
}

/// The `sweep` subcommand: every named workload on every machine model,
/// one cycles/IPC table. Returns the process exit code.
fn sweep_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "sweep",
        flags: &[Flag::Scale, Flag::Jobs, Flag::Strict],
        extras: &[Extra {
            name: "--metrics-out",
            takes_value: true,
        }],
        default_scale: Scale::Small,
    };
    let args = parse_or_usage(&SPEC, args);
    let specs = resolve_workloads(&args.positionals);
    let params = args.params();
    let session = args.session();
    let machines = [
        MachineSpec::Diag(diag_core::DiagConfig::f4c32()),
        MachineSpec::Ooo(12),
        MachineSpec::InOrder,
    ];
    let mut queue = Sweep::new();
    let mut ids = Vec::new();
    for spec in &specs {
        let row: Vec<_> = machines
            .iter()
            .map(|m| queue.add(m.clone(), *spec, params))
            .collect();
        ids.push((spec.name, row));
    }
    // Worker telemetry is opt-in: without `--metrics-out` the sweep
    // takes the uninstrumented path (no clock reads in the run loop).
    let metrics_out = args.value("--metrics-out").map(str::to_string);
    let registry = diag_telemetry::Registry::new();
    let results = match metrics_out {
        Some(_) => {
            let metrics = sweep::SweepMetrics::new(&registry);
            queue.execute_metered(&session, args.jobs, &metrics)
        }
        None => queue.execute_with(&session, args.jobs),
    };
    let mut table = diag_power::TextTable::new(
        std::iter::once("benchmark".to_string()).chain(machines.iter().map(|m| m.label())),
    );
    for (name, row) in &ids {
        table.row(
            std::iter::once(name.to_string()).chain(row.iter().map(
                |id| match results.stats(*id) {
                    Some(s) => format!("{} cy (IPC {:.2})", s.cycles, s.ipc()),
                    None => "failed".to_string(),
                },
            )),
        );
    }
    let mut out = table.render();
    sweep::append_failures(&mut out, &results);
    println!("{out}");
    report_cache(&session);
    if let Some(path) = &metrics_out {
        session.export_telemetry(&registry);
        let mut json = registry.snapshot().to_json();
        json.push('\n');
        if let Err(e) = write_output(path, &json) {
            eprintln!("{e}");
            return 1;
        }
        eprintln!("wrote telemetry exposition to {path}");
    }
    if args.strict && !results.failures().is_empty() {
        eprintln!("--strict: at least one run failed");
        return 1;
    }
    0
}

/// The `metrics` subcommand: pretty-print a saved telemetry exposition
/// — a `--metrics-out` file, or a captured `diag-serve` `metrics` frame
/// (the embedded `json` document is used). Returns the process exit
/// code.
fn metrics_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "metrics",
        flags: &[],
        extras: &[],
        default_scale: Scale::Small,
    };
    let args = parse_or_usage(&SPEC, args);
    let [path] = &args.positionals[..] else {
        eprintln!("metrics needs exactly one exposition file path");
        usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    let doc = match diag_trace::json::parse(text.trim()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return 1;
        }
    };
    let exposition = match doc.get("frame").and_then(diag_trace::json::Value::as_str) {
        Some("metrics") => match doc.get("json") {
            Some(inner) => inner,
            None => {
                eprintln!("{path}: metrics frame has no `json` exposition");
                return 1;
            }
        },
        Some(other) => {
            eprintln!("{path}: not a metrics frame (frame: {other})");
            return 1;
        }
        None => &doc,
    };
    match diag_bench::metricsfmt::render(exposition) {
        Ok(rendered) => {
            print!("{rendered}");
            0
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            1
        }
    }
}

/// The `tune` subcommand: sweep a DiAG configuration grid over the named
/// workloads and print per-workload cycles/energy Pareto frontiers.
/// Returns the process exit code.
fn tune_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "tune",
        flags: &[
            Flag::Scale,
            Flag::Threads,
            Flag::Simt,
            Flag::Jobs,
            Flag::Strict,
            Flag::Out,
        ],
        extras: &[Extra {
            name: "--grid",
            takes_value: true,
        }],
        // A 48-point grid times every workload is a lot of simulation;
        // the cheap scale is the sane default for exploration.
        default_scale: Scale::Tiny,
    };
    let args = parse_or_usage(&SPEC, args);
    let grid = match args.value("--grid") {
        Some(text) => match tune::parse_grid(text) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("{e}");
                usage();
            }
        },
        None => tune::default_grid(),
    };
    let specs = resolve_workloads(&args.positionals);
    let params = args.params();
    let session = args.session();
    let report = tune::tune(&session, &specs, &grid, &params, args.jobs);
    let text = report.render();
    print!("{text}");
    if let Some(path) = &args.out {
        if let Err(e) = write_output(path, &text) {
            eprintln!("{e}");
            return 1;
        }
    }
    report_cache(&session);
    let runs = session.counters().runs;
    eprintln!(
        "tune: {} run-stage builds, {} run-stage hits",
        runs.builds, runs.hits
    );
    let failed: usize = report.frontiers.iter().map(|f| f.failed.len()).sum();
    if args.strict && failed > 0 {
        eprintln!("--strict: {failed} grid run(s) failed");
        return 1;
    }
    0
}

/// The `bench` subcommand: host-time the simulator over workloads ×
/// machines and write `BENCH_sim.json`. Returns the process exit code.
fn bench_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "bench",
        flags: &[Flag::Scale, Flag::Out],
        extras: &[
            Extra {
                name: "--repeat",
                takes_value: true,
            },
            Extra {
                name: "--baseline",
                takes_value: true,
            },
            Extra {
                name: "--max-regress",
                takes_value: true,
            },
        ],
        default_scale: Scale::Small,
    };
    let args = parse_or_usage(&SPEC, args);
    let repeat = match args.value("--repeat") {
        Some(v) => match v.parse::<u32>() {
            Ok(n) => n.max(1),
            Err(_) => {
                eprintln!("--repeat needs a positive integer");
                usage();
            }
        },
        None => 3,
    };
    let max_regress = match args.value("--max-regress") {
        Some(v) => match v.parse::<f64>() {
            Ok(pct) => Some(pct),
            Err(_) => {
                eprintln!("--max-regress needs a percentage");
                usage();
            }
        },
        None => None,
    };
    let out_path = args.out.clone().unwrap_or_else(|| "BENCH_sim.json".into());
    let specs = resolve_workloads(&args.positionals);
    let params = args.params();
    let baseline = match args.value("--baseline") {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match hostbench::BenchBaseline::parse(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("cannot parse baseline {path}: {e}");
                    return 1;
                }
            },
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return 1;
            }
        },
        None => None,
    };
    let session = args.session();
    let report = hostbench::run_bench(&session, &specs, &params, repeat, baseline.as_ref());
    let json = hostbench::to_json(&report, baseline.as_ref());
    if let Err(e) = write_output(&out_path, &json) {
        eprintln!("{e}");
        return 1;
    }
    let mut table = diag_power::TextTable::new(
        ["benchmark", "machine", "ns/instr", "sim cycles", "vs seed"]
            .iter()
            .map(|s| s.to_string()),
    );
    for row in &report.rows {
        table.row([
            row.workload.clone(),
            row.machine.clone(),
            format!("{:.1}", row.ns_per_instr),
            row.sim_cycles.to_string(),
            match row.speedup_vs_seed {
                Some(s) => format!("{s:.2}x"),
                None => "-".to_string(),
            },
        ]);
    }
    println!("{}", table.render());
    eprintln!(
        "total: {:.1} ns/instr over {} committed instructions; wrote {out_path}",
        report.total_ns_per_instr(),
        report.total_committed()
    );
    for failure in &report.failures {
        eprintln!("failed: {failure}");
    }
    report_cache(&session);
    if let (Some(pct), Some(b)) = (max_regress, baseline.as_ref()) {
        if let Err(e) = hostbench::check_regression(&report, b, pct) {
            eprintln!("bench regression gate: {e}");
            return 1;
        }
    }
    if report.failures.is_empty() {
        0
    } else {
        1
    }
}

/// Resolves the one workload named on a trace/profile command line,
/// checking SIMT capability.
fn single_workload(args: &CommonArgs, what: &str) -> Result<diag_workloads::WorkloadSpec, i32> {
    let [name] = &args.positionals[..] else {
        eprintln!("{what} needs exactly one workload name");
        usage();
    };
    let Some(spec) = diag_workloads::find(name) else {
        eprintln!("unknown workload `{name}`");
        usage();
    };
    if args.simt && !spec.simt_capable {
        eprintln!("{name} has no SIMT variant");
        return Err(1);
    }
    Ok(spec)
}

/// The `trace` subcommand: run one workload with a tracer attached and
/// export the event stream. Returns the process exit code.
fn trace_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "trace",
        flags: &[
            Flag::Scale,
            Flag::Threads,
            Flag::Simt,
            Flag::Machine,
            Flag::Out,
        ],
        extras: &[
            Extra {
                name: "--format",
                takes_value: true,
            },
            Extra {
                name: "--window",
                takes_value: true,
            },
        ],
        default_scale: Scale::Small,
    };
    let args = parse_or_usage(&SPEC, args);
    let format = args.value("--format").unwrap_or("perfetto").to_string();
    if !matches!(
        format.as_str(),
        "perfetto" | "jsonl" | "heatmap" | "timeline"
    ) {
        eprintln!("unknown format `{format}` (perfetto|jsonl|heatmap|timeline)");
        usage();
    }
    let window = match args.value("--window") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n.max(1)),
            Err(_) => {
                eprintln!("--window needs a positive integer");
                usage();
            }
        },
        None => None,
    };
    let spec = match single_workload(&args, "trace") {
        Ok(s) => s,
        Err(code) => return code,
    };
    let kind = args.machine.clone();
    let params = args.params();
    let session = args.session();
    let sink = VecSink::shared();
    let mut machine = build_machine(&kind);
    machine.set_tracer(Tracer::to_shared(sink.clone()));
    let stats = match run_built(&session, &kind, &spec, &params, machine.as_mut()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let events = sink.borrow_mut().take();
    let window = window.unwrap_or_else(|| (stats.cycles / 64).max(1));
    let text = match format.as_str() {
        "perfetto" => perfetto::export(&events),
        "jsonl" => {
            let mut buf = String::new();
            for event in &events {
                event.write_jsonl(&mut buf);
                buf.push('\n');
            }
            buf
        }
        "heatmap" => heatmap::render(&events, window),
        _ => StallTimeline::from_events(&events, window).render(),
    };
    eprintln!(
        "{} on {}: {} events over {} cycles ({} committed)",
        spec.name,
        kind.label(),
        events.len(),
        stats.cycles,
        stats.committed
    );
    report_cache(&session);
    match &args.out {
        Some(path) => {
            if let Err(e) = write_output(path, &text) {
                eprintln!("{e}");
                return 1;
            }
            eprintln!("wrote {format} trace to {path}");
        }
        None => print!("{text}"),
    }
    0
}

/// The `profile` subcommand: run one workload with cycle accounting
/// attached and report where the cycles went; or, with a leading `diff`,
/// compare two saved JSON profiles. Returns the process exit code.
fn profile_cmd(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("diff") {
        return profile_diff_cmd(&args[1..]);
    }
    const SPEC: CliSpec = CliSpec {
        cmd: "profile",
        flags: &[
            Flag::Scale,
            Flag::Threads,
            Flag::Simt,
            Flag::Machine,
            Flag::Out,
        ],
        extras: &[
            Extra {
                name: "--format",
                takes_value: true,
            },
            Extra {
                name: "--top",
                takes_value: true,
            },
        ],
        default_scale: Scale::Small,
    };
    let args = parse_or_usage(&SPEC, args);
    let format = args.value("--format").unwrap_or("text").to_string();
    if !matches!(format.as_str(), "text" | "json" | "folded") {
        eprintln!("unknown format `{format}` (text|json|folded)");
        usage();
    }
    let top = match args.value("--top") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                eprintln!("--top needs a positive integer");
                usage();
            }
        },
        None => 20,
    };
    let spec = match single_workload(&args, "profile") {
        Ok(s) => s,
        Err(code) => return code,
    };
    let kind = args.machine.clone();
    let params = args.params();
    let session = args.session();
    let built = match session.workload(&spec, &params) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{}: build failed: {e}", spec.name);
            return 1;
        }
    };
    let shared = ProfileCollector::shared();
    let mut machine = build_machine(&kind);
    machine.set_profiler(Profiler::to_shared(&shared));
    let stats = match run_built(&session, &kind, &spec, &params, machine.as_mut()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let meta = ProfileMeta {
        workload: spec.name.to_string(),
        machine: kind.label(),
        threads: params.threads as u64,
        simt: params.simt,
        cycle_model: match kind {
            MachineSpec::InOrder => CycleModel::Additive,
            _ => CycleModel::Wallclock,
        },
        total_cycles: stats.cycles,
        committed: stats.committed,
        stalls: [
            stats.stalls.memory,
            stats.stalls.control,
            stats.stalls.structural,
        ],
        host: diag_bench::hostmeta::host_entries_with_repeat(1),
    };
    let frames = diag_analyze::flame::frame_map(&built.program);
    let collector = shared.borrow();
    let mut profile = Profile::build(&collector, meta, Some(&built.program));
    drop(collector);
    profile.apply_frames(&frames);
    if let Err(e) = profile.reconcile() {
        eprintln!(
            "{} on {}: profile does not reconcile: {e}",
            spec.name,
            kind.label()
        );
        return 1;
    }
    let text = match format.as_str() {
        "text" => render_text(&profile, top),
        "json" => profile.to_json(),
        _ => to_folded(&profile, Some(&frames)),
    };
    eprintln!(
        "{} on {}: {} cycles, {} committed, {} hot PCs",
        spec.name,
        kind.label(),
        stats.cycles,
        stats.committed,
        profile.pcs.len()
    );
    report_cache(&session);
    match &args.out {
        Some(path) => {
            if let Err(e) = write_output(path, &text) {
                eprintln!("{e}");
                return 1;
            }
            eprintln!("wrote {format} profile to {path}");
        }
        None => print!("{text}"),
    }
    0
}

/// The `profile diff` mode: per-PC self-cycle deltas between two saved
/// JSON profiles. Returns the process exit code.
fn profile_diff_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "profile diff",
        flags: &[],
        extras: &[Extra {
            name: "--top",
            takes_value: true,
        }],
        default_scale: Scale::Small,
    };
    let args = parse_or_usage(&SPEC, args);
    let top = match args.value("--top") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                eprintln!("--top needs a positive integer");
                usage();
            }
        },
        None => 20,
    };
    let [before, after] = &args.positionals[..] else {
        eprintln!("profile diff needs exactly two JSON profile paths");
        usage();
    };
    let load = |path: &str| -> Result<Profile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Profile::from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let (a, b) = match (load(before), load(after)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 1;
        }
    };
    print!("{}", diff_profiles(&a, &b, top));
    0
}

/// The `cache` subcommand: inspect (`stats`) or empty (`clear`) the
/// on-disk artifact cache. Returns the process exit code.
fn cache_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "cache",
        flags: &[],
        extras: &[],
        default_scale: Scale::Small,
    };
    let args = parse_or_usage(&SPEC, args);
    let dir = args
        .cache_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(DiskCache::default_dir);
    let cache = match DiskCache::open(&dir, DiskCache::DEFAULT_BUDGET) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot open cache at {}: {e}", dir.display());
            return 1;
        }
    };
    match args.positionals.first().map(String::as_str) {
        Some("stats") => {
            let stats = cache.stats();
            println!(
                "{}: {} blobs, {} bytes (budget {})",
                cache.dir().display(),
                stats.files,
                stats.bytes,
                DiskCache::DEFAULT_BUDGET
            );
            0
        }
        Some("clear") => {
            let removed = cache.clear();
            println!("{}: removed {removed} blobs", cache.dir().display());
            0
        }
        _ => {
            eprintln!("cache needs a mode: stats|clear");
            usage();
        }
    }
}

/// The `run` subcommand (also the default): regenerate paper artifacts.
/// Returns the process exit code.
fn run_cmd(args: &[String]) -> i32 {
    const SPEC: CliSpec = CliSpec {
        cmd: "run",
        flags: &[Flag::Scale, Flag::Jobs, Flag::Strict],
        extras: &[],
        default_scale: Scale::Small,
    };
    let args = parse_or_usage(&SPEC, args);
    if args.positionals.is_empty() {
        usage();
    }
    let list: Vec<&str> = if args.positionals == ["all"] {
        ALL.to_vec()
    } else {
        args.positionals.iter().map(String::as_str).collect()
    };
    let session = args.session();
    let mut any_failed = false;
    for (i, name) in list.iter().enumerate() {
        match run(name, &session, args.scale, args.jobs) {
            Some(out) => {
                if i > 0 {
                    println!();
                }
                any_failed |= out.contains(FAILURE_MARKER);
                println!("{out}");
            }
            None => {
                eprintln!("unknown experiment `{name}`");
                usage();
            }
        }
    }
    report_cache(&session);
    if args.strict && any_failed {
        eprintln!("--strict: at least one run failed (see \"failed runs\" sections above)");
        return 1;
    }
    0
}

fn run(name: &str, session: &Session, scale: Scale, jobs: usize) -> Option<String> {
    let out = match name {
        "table1" => experiments::table1(session, scale, jobs),
        "table2" => experiments::table2(),
        "table3" => experiments::table3(),
        "fig9a" => experiments::fig_single_thread(session, Suite::Rodinia, scale, jobs),
        "fig9b" => experiments::fig_multi_thread(session, Suite::Rodinia, scale, jobs),
        "fig10a" => experiments::fig_single_thread(session, Suite::Spec, scale, jobs),
        "fig10b" => experiments::fig_multi_thread(session, Suite::Spec, scale, jobs),
        "fig11" => experiments::fig11(session, scale, jobs),
        "fig12" => experiments::fig12(session, scale, jobs),
        "stalls" => experiments::stalls(session, scale, jobs),
        "ablation-lane" => experiments::ablation_lane(session, scale, jobs),
        "ablation-reuse" => experiments::ablation_reuse(session, scale, jobs),
        "ablation-simt" => experiments::ablation_simt_interval(session, scale, jobs),
        "ablation-lsu" => experiments::ablation_lsu(session, scale, jobs),
        "ablation-spec" => experiments::ablation_spec(session, scale, jobs),
        _ => return None,
    };
    Some(out)
}

const ALL: [&str; 15] = [
    "table1",
    "table2",
    "table3",
    "fig9a",
    "fig9b",
    "fig10a",
    "fig10b",
    "fig11",
    "fig12",
    "stalls",
    "ablation-lane",
    "ablation-reuse",
    "ablation-simt",
    "ablation-lsu",
    "ablation-spec",
];

/// Marker `sweep::append_failures` puts in a report when runs failed.
const FAILURE_MARKER: &str = "failed runs (";

/// The `serve` subcommand: delegates to the co-built `diag-serve`
/// binary with the arguments passed through verbatim. The server crate
/// depends on this one (it reuses the sweep runner and CLI parser), so
/// the harness cannot link it directly without a dependency cycle —
/// instead it execs the sibling binary cargo placed next to itself.
fn serve_cmd(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("serve: cannot locate the harness binary: {e}");
            return 1;
        }
    };
    let name = if cfg!(windows) {
        "diag-serve.exe"
    } else {
        "diag-serve"
    };
    let sibling = exe.with_file_name(name);
    if !sibling.exists() {
        eprintln!(
            "serve: `{}` not found — build it with `cargo build -p diag-serve`",
            sibling.display()
        );
        return 1;
    }
    match std::process::Command::new(&sibling).args(args).status() {
        Ok(status) => status.code().unwrap_or(1),
        Err(e) => {
            eprintln!("serve: cannot run {}: {e}", sibling.display());
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            0
        }
        Some("analyze") => analyze_cmd(&args[1..]),
        Some("verify") => verify_cmd(&args[1..]),
        Some("sweep") => sweep_cmd(&args[1..]),
        Some("metrics") => metrics_cmd(&args[1..]),
        Some("tune") => tune_cmd(&args[1..]),
        Some("bench") => bench_cmd(&args[1..]),
        Some("trace") => trace_cmd(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        Some("cache") => cache_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        Some(_) => run_cmd(&args),
        None => usage(),
    };
    std::process::exit(code)
}
