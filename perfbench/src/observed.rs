//! `sim-observed`: every bundled workload on each default machine
//! (DiAG F4C32, OoO, in-order) at tiny scale, run twice per pass — once
//! with a `Tracer` into a `VecSink` plus the Perfetto export (the
//! `harness trace` calls), once with a `Profiler` plus the profile
//! report (the `harness profile` calls). Tiny scale keeps the event
//! sink small: a traced small-scale DiAG pass records about six events
//! per instruction.

use std::hint::black_box;
use std::time::Instant;

use diag_analyze::flame::frame_map;
use diag_bench::runner::{build_machine, run_built, MachineSpec};
use diag_pipeline::Session;
use diag_profile::{render_text, CycleModel, Profile, ProfileCollector, ProfileMeta, Profiler};
use diag_sim::{machine_steps, RunStats};
use diag_trace::{perfetto, Event, Tracer, VecSink};
use diag_workloads::{Params, Scale, WorkloadSpec};

use crate::report::{digest, Outcome};
use crate::spans::{SpanLog, ROOT};
use crate::{
    gen, machine, ns_per_instr, ns_since, prepare, repeated_setup, Config, RowTimes, MACHINES,
    RUN_METRICS,
};

/// One traced or profiled run's timings.
struct Observed {
    /// Whole row: machine, run, and export or report.
    total_ns: u64,
    /// The `run_built` call alone.
    run_ns: u64,
    /// The Perfetto export or the profile report alone.
    post_ns: u64,
    /// Trace events recorded (traced rows).
    events: u64,
}

fn traced_row(
    session: &Session,
    kind: &MachineSpec,
    spec: &WorkloadSpec,
    params: &Params,
    log: &mut SpanLog,
    req: u64,
) -> Result<(RunStats, Observed), String> {
    let t0 = Instant::now();
    let root = log.enter("bench.trace_row", ROOT, req);
    let sink = VecSink::shared();
    let mut m = build_machine(kind);
    m.set_tracer(Tracer::to_shared(sink.clone()));
    let t_run = Instant::now();
    let stats = log
        .time("trace.run", root, req, || {
            run_built(session, kind, spec, params, m.as_mut())
        })
        .map_err(|e| e.to_string())?;
    let run_ns = ns_since(t_run);
    let events = sink.borrow_mut().take();
    let t_post = Instant::now();
    let json = log.time("trace.export", root, req, || perfetto::export(&events));
    let post_ns = ns_since(t_post);
    black_box(json.len());
    log.exit(root);
    if events.is_empty() {
        return Err(format!("{}: tracer recorded no events", spec.name));
    }
    Ok((
        stats,
        Observed {
            total_ns: ns_since(t0),
            run_ns,
            post_ns,
            events: events.len() as u64,
        },
    ))
}

fn profiled_row(
    session: &Session,
    kind: &MachineSpec,
    spec: &WorkloadSpec,
    params: &Params,
    log: &mut SpanLog,
    req: u64,
) -> Result<(RunStats, Observed), String> {
    let t0 = Instant::now();
    let root = log.enter("bench.profile_row", ROOT, req);
    let built = session.workload(spec, params)?;
    let shared = ProfileCollector::shared();
    let mut m = build_machine(kind);
    m.set_profiler(Profiler::to_shared(&shared));
    let t_run = Instant::now();
    let stats = log
        .time("profile.run", root, req, || {
            run_built(session, kind, spec, params, m.as_mut())
        })
        .map_err(|e| e.to_string())?;
    let run_ns = ns_since(t_run);
    let t_post = Instant::now();
    let report = log.time("profile.report", root, req, || {
        let meta = ProfileMeta {
            workload: spec.name.to_string(),
            machine: kind.label(),
            threads: params.threads as u64,
            simt: params.simt,
            cycle_model: CycleModel::Wallclock,
            total_cycles: stats.cycles,
            committed: stats.committed,
            stalls: [
                stats.stalls.memory,
                stats.stalls.control,
                stats.stalls.structural,
            ],
            host: Vec::new(),
        };
        let frames = frame_map(&built.program);
        let mut profile = Profile::build(&shared.borrow(), meta, Some(&built.program));
        profile.apply_frames(&frames);
        profile.reconcile().map(|()| render_text(&profile, 20))
    });
    let post_ns = ns_since(t_post);
    log.exit(root);
    let text = report.map_err(|e| format!("{}: profile does not reconcile: {e}", spec.name))?;
    black_box(text.len());
    Ok((
        stats,
        Observed {
            total_ns: ns_since(t0),
            run_ns,
            post_ns,
            events: 0,
        },
    ))
}

/// Per-workload timings of one measured phase.
struct Rows {
    trace_total: Vec<RowTimes>,
    trace_run: Vec<RowTimes>,
    trace_export: Vec<RowTimes>,
    profile_total: Vec<RowTimes>,
    profile_run: Vec<RowTimes>,
    profile_report: Vec<RowTimes>,
    events: Vec<u64>,
    /// Step-counter delta of one traced plus one profiled run.
    steps: Vec<u64>,
    passes: u64,
}

impl Rows {
    /// Host ns per instruction of one traced plus one profiled run,
    /// over the rows in `rows`.
    fn cost(&self, rows: impl Iterator<Item = usize> + Clone) -> (f64, u64) {
        let (t, nt) = ns_per_instr(rows.clone().map(|r| &self.trace_total[r]));
        let (p, np) = ns_per_instr(rows.map(|r| &self.profile_total[r]));
        (t + p, nt + np)
    }

    /// The run calls alone (traced plus profiled), over `rows`.
    fn run_cost(&self, rows: impl Iterator<Item = usize> + Clone) -> (f64, u64) {
        let (t, nt) = ns_per_instr(rows.clone().map(|r| &self.trace_run[r]));
        let (p, np) = ns_per_instr(rows.map(|r| &self.profile_run[r]));
        (t + p, nt + np)
    }
}

/// The rows: workload-major, then [`MACHINES`] order.
fn rows(specs: &[WorkloadSpec]) -> Vec<(usize, usize)> {
    (0..specs.len())
        .flat_map(|w| (0..MACHINES.len()).map(move |m| (w, m)))
        .collect()
}

/// Indices of the rows that run on machine `m` (an index into
/// [`MACHINES`]).
fn on_machine(rows: &[(usize, usize)], m: usize) -> impl Iterator<Item = usize> + Clone + '_ {
    rows.iter()
        .enumerate()
        .filter(move |(_, r)| r.1 == m)
        .map(|(i, _)| i)
}

#[allow(clippy::too_many_arguments)]
fn measure(
    session: &Session,
    specs: &[WorkloadSpec],
    kinds: &[MachineSpec],
    params: &Params,
    rows: &[(usize, usize)],
    reference: &[RunStats],
    budget: std::time::Duration,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Rows {
    let n = rows.len();
    let mut times = Rows {
        trace_total: vec![RowTimes::default(); n],
        trace_run: vec![RowTimes::default(); n],
        trace_export: vec![RowTimes::default(); n],
        profile_total: vec![RowTimes::default(); n],
        profile_run: vec![RowTimes::default(); n],
        profile_report: vec![RowTimes::default(); n],
        events: vec![0; n],
        steps: vec![0; n],
        passes: 0,
    };
    let start = Instant::now();
    while times.passes < 2 || start.elapsed() < budget {
        for (r, &(w, m)) in rows.iter().enumerate() {
            let (spec, kind) = (&specs[w], &kinds[m]);
            let req = times.passes * n as u64 + r as u64;
            let committed = reference[r].committed;
            // Instrumentation must not change what the machine computes.
            let same = |stats: RunStats, what: &str| {
                if stats == reference[r] {
                    Ok(())
                } else {
                    Err(format!(
                        "{} on {}: {what} RunStats differ from the uninstrumented run",
                        spec.name, MACHINES[m]
                    ))
                }
            };
            let steps0 = machine_steps();
            match traced_row(session, kind, spec, params, log, req) {
                Ok((stats, o)) => {
                    out.check(same(stats, "traced"));
                    times.trace_total[r].ns.push(o.total_ns);
                    times.trace_run[r].ns.push(o.run_ns);
                    times.trace_export[r].ns.push(o.post_ns);
                    times.events[r] = o.events;
                }
                Err(e) => out.check(Err(e)),
            }
            match profiled_row(session, kind, spec, params, log, req) {
                Ok((stats, o)) => {
                    out.check(same(stats, "profiled"));
                    times.profile_total[r].ns.push(o.total_ns);
                    times.profile_run[r].ns.push(o.run_ns);
                    times.profile_report[r].ns.push(o.post_ns);
                }
                Err(e) => out.check(Err(e)),
            }
            times.steps[r] = machine_steps() - steps0;
            for t in [
                &mut times.trace_total[r],
                &mut times.trace_run[r],
                &mut times.profile_total[r],
                &mut times.profile_run[r],
                &mut times.profile_report[r],
            ] {
                t.committed = committed;
            }
            // Export cost is per event, not per instruction.
            times.trace_export[r].committed = times.events[r];
        }
        times.passes += 1;
    }
    times
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let specs = diag_workloads::all();
    let kinds: Vec<MachineSpec> = MACHINES.iter().map(|m| machine(m)).collect();
    let rows = rows(&specs);
    let params = Params {
        seed: gen::input_seed(cfg.seed),
        ..Params::small().with_scale(Scale::Tiny)
    };
    // Set-up prepares every program and runs each row once
    // uninstrumented: the reference every traced and profiled run must
    // reproduce exactly.
    let (prepared, setup_s) = repeated_setup(
        || {
            let session = Session::in_memory();
            prepare(&session, &specs, &params, &mut SpanLog::off())?;
            let reference = rows
                .iter()
                .map(|&(w, m)| {
                    let mut machine = build_machine(&kinds[m]);
                    run_built(&session, &kinds[m], &specs[w], &params, machine.as_mut())
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<RunStats>, String>>()?;
            Ok::<_, String>((session, reference))
        },
        drop,
    );
    let (session, reference) = match prepared {
        Ok(p) => p,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };
    for _ in &reference {
        out.check(Ok(()));
    }
    out.note(format!(
        "digest {} over {} rows",
        digest(&reference),
        reference.len()
    ));

    let origin = Instant::now();
    let mut log = SpanLog::off();
    let budget = if cfg.trace {
        cfg.budget() / 2
    } else {
        cfg.budget()
    };
    let plain = measure(
        &session, &specs, &kinds, &params, &rows, &reference, budget, &mut log, &mut out,
    );
    if !cfg.trace {
        crate::setup_metric(&mut out, setup_s);
        for (m, name) in MACHINES.iter().enumerate() {
            let (v, n) = plain.cost(on_machine(&rows, m));
            out.metric(&format!("{name}_ns_per_instr"), v, "ns", n);
        }
        let (v, n) = ns_per_instr(&plain.trace_total);
        out.metric("trace_ns_per_instr", v, "ns", n);
        let (v, n) = ns_per_instr(&plain.profile_total);
        out.metric("profile_ns_per_instr", v, "ns", n);
        return out;
    }

    log = SpanLog::on(origin);
    let before = session.counters();
    let traced = measure(
        &session, &specs, &kinds, &params, &rows, &reference, budget, &mut log, &mut out,
    );
    let after = session.counters();
    for (m, name) in RUN_METRICS.into_iter().enumerate() {
        let (v, n) = traced.run_cost(on_machine(&rows, m));
        out.metric(name, v, "ns", n);
    }
    let (v, n) = ns_per_instr(&traced.trace_run);
    out.metric("trace.run_ns_per_instr", v, "ns", n);
    let events: u64 = traced.events.iter().sum();
    let committed: u64 = reference.iter().map(|s| s.committed).sum();
    out.metric(
        "trace.events_per_instr",
        events as f64 / committed.max(1) as f64,
        "ratio",
        rows.len() as u64,
    );
    let (v, n) = ns_per_instr(&traced.trace_export);
    out.metric("trace.export_ns_per_event", v, "ns", n);
    let largest = traced.events.iter().copied().max().unwrap_or(0);
    out.metric(
        "trace.sink_mb",
        (largest as usize * std::mem::size_of::<Event>()) as f64 / (1024.0 * 1024.0),
        "MB",
        1,
    );
    let (v, n) = ns_per_instr(&traced.profile_run);
    out.metric("profile.run_ns_per_instr", v, "ns", n);
    let report_ms: u64 = traced
        .profile_report
        .iter()
        .filter_map(RowTimes::best)
        .sum();
    out.metric(
        "profile.report_ms",
        report_ms as f64 / 1e6,
        "ms",
        traced.passes * rows.len() as u64,
    );
    let diag: Vec<&RunStats> = on_machine(&rows, 0).map(|r| &reference[r]).collect();
    let n = diag.len() as u64;
    out.metric(
        "core.sim_cycles",
        diag.iter().map(|s| s.cycles).sum::<u64>() as f64,
        "count",
        n,
    );
    out.metric(
        "core.committed",
        diag.iter().map(|s| s.committed).sum::<u64>() as f64,
        "count",
        n,
    );
    let steps: u64 = traced.steps.iter().sum();
    out.metric(
        "sim.steps_per_instr",
        steps as f64 / (2 * committed).max(1) as f64,
        "ratio",
        rows.len() as u64,
    );
    out.metric("pipeline.builds", after.builds() as f64, "count", 1);
    out.metric(
        "pipeline.hits",
        ((after.hits() - before.hits()) / traced.passes) as f64,
        "count",
        traced.passes,
    );
    crate::cold_prepare(&specs, &params, &mut log, &mut out);

    let all = || 0..rows.len();
    let (untraced, n0) = plain.cost(all());
    let (traced_cost, n1) = traced.cost(all());
    crate::overhead_pct(&mut out, untraced, traced_cost, n0 + n1);
    crate::finish_spans(cfg, &log, &mut out);
    out
}
