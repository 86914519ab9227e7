//! `sim-batch`: every bundled workload on DiAG (F4C32), the OoO
//! baseline and the in-order core at small scale, serially — the cost
//! every sweep row, tune point and serve miss pays. Each row is
//! `build_machine` + `runner::run_built`: preparation is a cache hit,
//! the run memo is bypassed, and the row covers simulate plus verify.

use std::time::Instant;

use diag_bench::runner::{build_machine, run_built, MachineSpec};
use diag_pipeline::Session;
use diag_sim::{machine_steps, RunStats};
use diag_workloads::{Params, WorkloadSpec};

use crate::report::{digest, Outcome};
use crate::spans::{SpanLog, ROOT};
use crate::{
    gen, machine, ns_per_instr, ns_since, prepare, repeated_setup, Config, RowTimes, MACHINES,
    RUN_METRICS,
};

/// What one row run measured.
struct Row {
    stats: RunStats,
    total_ns: u64,
    /// Traced rows only: the `Machine::run` call, the verify closure,
    /// and the step-counter delta.
    run_ns: u64,
    verify_ns: u64,
    steps: u64,
}

/// Everything one measured phase collected, indexed by row.
struct Phase {
    total: Vec<RowTimes>,
    run: Vec<RowTimes>,
    first: Vec<Option<RunStats>>,
    steps: Vec<u64>,
    verify_ns_per_pass: Vec<u64>,
    passes: u64,
}

/// The rows: workload-major, then [`MACHINES`] order.
fn rows(specs: &[WorkloadSpec]) -> Vec<(usize, usize)> {
    (0..specs.len())
        .flat_map(|w| (0..MACHINES.len()).map(move |m| (w, m)))
        .collect()
}

/// Indices of the rows that run on machine `m` (an index into
/// [`MACHINES`]).
fn on_machine(rows: &[(usize, usize)], m: usize) -> impl Iterator<Item = usize> + '_ {
    rows.iter()
        .enumerate()
        .filter(move |(_, r)| r.1 == m)
        .map(|(i, _)| i)
}

/// Runs one row through `run_built` (untraced) or through the same
/// calls one by one, each inside a span (traced).
fn run_row(
    session: &Session,
    kind: &MachineSpec,
    spec: &WorkloadSpec,
    params: &Params,
    log: &mut SpanLog,
    req: u64,
) -> Result<Row, String> {
    let t0 = Instant::now();
    if !log.is_on() {
        let mut m = build_machine(kind);
        let stats =
            run_built(session, kind, spec, params, m.as_mut()).map_err(|e| e.to_string())?;
        return Ok(Row {
            stats,
            total_ns: ns_since(t0),
            run_ns: 0,
            verify_ns: 0,
            steps: 0,
        });
    }
    let root = log.enter("bench.row", ROOT, req);
    let mut m = log.time("bench.build_machine", root, req, || build_machine(kind));
    let built = log
        .time("pipeline.workload", root, req, || {
            session.workload(spec, params)
        })
        .map_err(|e| format!("{}: build failed: {e}", spec.name))?;
    // The same calls `run_built` makes: DiAG mounts the bare program,
    // the baselines adopt the session's shared station table.
    let stations = match kind {
        MachineSpec::Diag(_) => None,
        MachineSpec::Ooo(_) | MachineSpec::InOrder => Some(
            log.time("pipeline.stations", root, req, || {
                session.stations(spec, params, None)
            })
            .map_err(|e| format!("{}: lowering failed: {e}", spec.name))?,
        ),
    };
    let steps0 = machine_steps();
    let t_run = Instant::now();
    let run = match &stations {
        None => log.time("core.run", root, req, || {
            m.run(&built.program, params.threads)
        }),
        Some(st) => log.time("baseline.run", root, req, || {
            m.run_prepared(&built.program, st, params.threads)
        }),
    };
    let run_ns = ns_since(t_run);
    let steps = machine_steps() - steps0;
    let stats = run.map_err(|e| format!("{} on {}: {e}", spec.name, kind.label()))?;
    let t_verify = Instant::now();
    let verified = log.time("workloads.verify", root, req, || (built.verify)(&*m));
    let verify_ns = ns_since(t_verify);
    log.exit(root);
    verified.map_err(|e| {
        format!(
            "{} on {}: verification failed: {e}",
            spec.name,
            kind.label()
        )
    })?;
    Ok(Row {
        stats,
        total_ns: ns_since(t0),
        run_ns,
        verify_ns,
        steps,
    })
}

/// Runs whole passes over `rows` until `budget` has passed (at least
/// two, so repeated passes can be compared).
#[allow(clippy::too_many_arguments)]
fn measure(
    session: &Session,
    specs: &[WorkloadSpec],
    kinds: &[MachineSpec],
    params: &Params,
    rows: &[(usize, usize)],
    budget: std::time::Duration,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase {
        total: vec![RowTimes::default(); rows.len()],
        run: vec![RowTimes::default(); rows.len()],
        first: vec![None; rows.len()],
        steps: vec![0; rows.len()],
        verify_ns_per_pass: Vec::new(),
        passes: 0,
    };
    let start = Instant::now();
    while phase.passes < 2 || start.elapsed() < budget {
        let mut verify_ns = 0;
        for (r, &(w, m)) in rows.iter().enumerate() {
            let req = phase.passes * rows.len() as u64 + r as u64;
            let row = match run_row(session, &kinds[m], &specs[w], params, log, req) {
                Ok(row) => row,
                Err(e) => {
                    out.check(Err(e));
                    continue;
                }
            };
            let check = match phase.first[r] {
                None => {
                    phase.first[r] = Some(row.stats);
                    phase.steps[r] = row.steps;
                    Ok(())
                }
                Some(first) if first == row.stats => Ok(()),
                Some(_) => Err(format!(
                    "{} on {}: pass {} RunStats differ from pass 0",
                    specs[w].name, MACHINES[m], phase.passes
                )),
            };
            out.check(check);
            phase.total[r].ns.push(row.total_ns);
            phase.total[r].committed = row.stats.committed;
            phase.run[r].ns.push(row.run_ns);
            phase.run[r].committed = row.stats.committed;
            verify_ns += row.verify_ns;
        }
        phase.verify_ns_per_pass.push(verify_ns);
        phase.passes += 1;
    }
    phase
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let specs = diag_workloads::all();
    let kinds: Vec<MachineSpec> = MACHINES.iter().map(|m| machine(m)).collect();
    let params = Params {
        seed: gen::input_seed(cfg.seed),
        ..Params::small()
    };
    let (session, setup_s) = repeated_setup(
        || {
            let session = Session::in_memory();
            prepare(&session, &specs, &params, &mut SpanLog::off()).map(|()| session)
        },
        drop,
    );
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };
    let rows = rows(&specs);
    let origin = Instant::now();
    let mut log = SpanLog::off();

    let budget = if cfg.trace {
        cfg.budget() / 2
    } else {
        cfg.budget()
    };
    let plain = measure(
        &session, &specs, &kinds, &params, &rows, budget, &mut log, &mut out,
    );
    let phase = if cfg.trace {
        log = SpanLog::on(origin);
        let before = session.counters();
        let traced = measure(
            &session, &specs, &kinds, &params, &rows, budget, &mut log, &mut out,
        );
        let after = session.counters();
        // The traced path repeats `run_built`'s calls one by one; it
        // must still produce what `run_built` produced.
        for (r, &(w, m)) in rows.iter().enumerate() {
            out.check(if traced.first[r] == plain.first[r] {
                Ok(())
            } else {
                Err(format!(
                    "{} on {}: traced RunStats differ from run_built's",
                    specs[w].name, MACHINES[m]
                ))
            });
        }
        per_layer(&specs, &params, &rows, &plain, &traced, &mut log, &mut out);
        out.metric("pipeline.builds", after.builds() as f64, "count", 1);
        out.metric(
            "pipeline.hits",
            ((after.hits() - before.hits()) / traced.passes) as f64,
            "count",
            traced.passes,
        );
        crate::finish_spans(cfg, &log, &mut out);
        traced
    } else {
        crate::setup_metric(&mut out, setup_s);
        for (m, name) in MACHINES.iter().enumerate() {
            let (v, n) = ns_per_instr(on_machine(&rows, m).map(|i| &plain.total[i]));
            out.metric(&format!("{name}_ns_per_instr"), v, "ns", n);
        }
        plain
    };

    // All three machines must retire the same instructions per workload.
    for (w, spec) in specs.iter().enumerate() {
        let committed: Vec<Option<u64>> = (0..MACHINES.len())
            .map(|m| phase.first[w * MACHINES.len() + m].map(|s| s.committed))
            .collect();
        out.check(if committed.windows(2).all(|p| p[0] == p[1]) {
            Ok(())
        } else {
            Err(format!(
                "{}: machines commit different counts {committed:?}",
                spec.name
            ))
        });
    }
    let first: Vec<RunStats> = phase.first.iter().flatten().copied().collect();
    out.note(format!(
        "digest {} over {} rows, {} passes",
        digest(&first),
        first.len(),
        phase.passes
    ));
    out
}

/// The traced run's per-layer figures.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    specs: &[WorkloadSpec],
    params: &Params,
    rows: &[(usize, usize)],
    plain: &Phase,
    traced: &Phase,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    for (m, name) in RUN_METRICS.into_iter().enumerate() {
        let (v, n) = ns_per_instr(on_machine(rows, m).map(|i| &traced.run[i]));
        out.metric(name, v, "ns", n);
    }
    let diag: Vec<RunStats> = on_machine(rows, 0)
        .filter_map(|i| traced.first[i])
        .collect();
    let n = diag.len() as u64;
    let cycles: u64 = diag.iter().map(|s| s.cycles).sum();
    out.metric("core.sim_cycles", cycles as f64, "count", n);
    let committed: u64 = diag.iter().map(|s| s.committed).sum();
    out.metric("core.committed", committed as f64, "count", n);
    for (m, name) in MACHINES.iter().enumerate() {
        let steps: u64 = on_machine(rows, m).map(|i| traced.steps[i]).sum();
        let committed: u64 = on_machine(rows, m)
            .filter_map(|i| traced.first[i])
            .map(|st| st.committed)
            .sum();
        out.metric(
            &format!("sim.steps_per_instr.{name}"),
            steps as f64 / committed.max(1) as f64,
            "ratio",
            specs.len() as u64,
        );
    }
    let steps: u64 = traced.steps.iter().sum();
    let committed: u64 = traced.first.iter().flatten().map(|st| st.committed).sum();
    out.metric(
        "sim.steps_per_instr",
        steps as f64 / committed.max(1) as f64,
        "ratio",
        rows.len() as u64,
    );
    let mut verify: Vec<f64> = traced
        .verify_ns_per_pass
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let n = verify.len() as u64;
    if let Some(v) = crate::stats::median(&mut verify) {
        out.metric("workloads.verify_us", v, "us", n);
    }

    crate::cold_prepare(specs, params, log, out);

    let (untraced, n_plain) = ns_per_instr(&plain.total);
    let (traced_cost, n_traced) = ns_per_instr(&traced.total);
    crate::overhead_pct(out, untraced, traced_cost, n_plain + n_traced);
}
