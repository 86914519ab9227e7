//! The DiAG benchmark: drives the simulator and the experiment server
//! through their public APIs on four workloads, checks every output,
//! and reports end-to-end metrics (untraced run) or per-layer metrics
//! (traced run). See `README.md` in this directory for why each
//! workload exists and which layer each metric watches.

mod gen;
mod observed;
pub mod report;
mod serving;
mod simbatch;
pub mod spans;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use diag_bench::runner::MachineSpec;
use diag_pipeline::Session;
use diag_workloads::{Params, WorkloadSpec};

use crate::report::Outcome;
use crate::spans::{SpanLog, ROOT};

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 4] = ["sim-batch", "sim-observed", "serve-hit", "serve-miss"];

/// Fewest fresh set-ups per run; `setup_s` is the fastest of them.
pub const SETUP_MIN_REPEATS: usize = 3;

/// Most fresh set-ups per run.
pub const SETUP_MAX_REPEATS: usize = 2048;

/// Set-up time to accumulate before the fastest is taken.
pub const SETUP_MIN_TOTAL: Duration = Duration::from_secs(3);

/// The three default machines: DiAG (F4C32), the 8-wide OoO baseline,
/// and the in-order core.
pub const MACHINES: [&str; 3] = ["diag", "ooo", "inorder"];

/// The workloads `BENCHMARK.json` gates. Each must report every metric
/// of [`END_TO_END`] (untraced run) or [`PER_LAYER`] (traced run); the
/// one-line JSON result of a gated workload holds exactly those.
pub const GATED: [&str; 3] = ["sim-batch", "sim-observed", "serve-miss"];

/// The end-to-end metrics `BENCHMARK.json` lists, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("diag_ns_per_instr", "ns"),
    ("ooo_ns_per_instr", "ns"),
    ("inorder_ns_per_instr", "ns"),
];

/// The per-layer metrics `BENCHMARK.json` lists, with their units.
pub const PER_LAYER: [(&str, &str); 11] = [
    ("pipeline.prepare_ms", "ms"),
    ("pipeline.builds", "count"),
    ("pipeline.hits", "count"),
    ("workloads.build_calls", "count"),
    ("core.run_ns_per_instr", "ns"),
    ("core.sim_cycles", "count"),
    ("core.committed", "count"),
    ("baseline.ooo_run_ns_per_instr", "ns"),
    ("baseline.inorder_run_ns_per_instr", "ns"),
    ("sim.steps_per_instr", "ratio"),
    ("spans.overhead_pct", "%"),
];

/// The layer-level name of each machine's run-call figure, in
/// [`MACHINES`] order.
pub const RUN_METRICS: [&str; 3] = [
    "core.run_ns_per_instr",
    "baseline.ooo_run_ns_per_instr",
    "baseline.inorder_run_ns_per_instr",
];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed for every generated input and request stream.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the traced run writes its spans (JSON lines).
    pub spans_out: Option<PathBuf>,
}

impl Config {
    /// The measurement budget as a `Duration`.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Runs the configured workload.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut outcome = match cfg.workload.as_str() {
        "sim-batch" => simbatch::run(cfg),
        "sim-observed" => observed::run(cfg),
        "serve-hit" => serving::run_hit(cfg),
        "serve-miss" => serving::run_miss(cfg),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    if !cfg.trace {
        match report::peak_rss_mb() {
            Some(mb) => outcome.metric("peak_rss_mb", mb, "MB", 1),
            None => outcome.fail("peak RSS is unavailable on this platform".into()),
        }
    }
    if GATED.contains(&cfg.workload.as_str()) {
        let listed: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
        for &(name, unit) in listed {
            match outcome.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => {}
                Some(m) => outcome.fail(format!("metric {name} in {}, listed in {unit}", m.unit)),
                None => outcome.fail(format!("metric {name} was not measured")),
            }
        }
        outcome.json_only = Some(listed.iter().map(|&(name, _)| name).collect());
    }
    Ok(outcome)
}

/// The index into [`MACHINES`] of `kind`'s machine family.
pub fn family(kind: &MachineSpec) -> usize {
    match kind {
        MachineSpec::Diag(_) => 0,
        MachineSpec::Ooo(_) => 1,
        MachineSpec::InOrder => 2,
    }
}

/// Parses one of [`MACHINES`] (or any spec in the machine grammar).
pub fn machine(text: &str) -> MachineSpec {
    MachineSpec::parse(text).unwrap_or_else(|e| panic!("built-in machine `{text}`: {e}"))
}

/// Prepares every workload's program and shared station table in
/// `session` (the pipeline's cold path), one span per call.
///
/// # Errors
///
/// Returns the first build failure.
pub fn prepare(
    session: &Session,
    specs: &[WorkloadSpec],
    params: &Params,
    log: &mut SpanLog,
) -> Result<(), String> {
    for (i, spec) in specs.iter().enumerate() {
        let root = log.enter("pipeline.prepare", ROOT, i as u64);
        log.time("pipeline.workload", root, i as u64, || {
            session.workload(spec, params)
        })
        .map_err(|e| format!("{}: build failed: {e}", spec.name))?;
        log.time("pipeline.stations", root, i as u64, || {
            session.stations(spec, params, None)
        })
        .map_err(|e| format!("{}: lowering failed: {e}", spec.name))?;
        log.exit(root);
    }
    Ok(())
}

/// One extra cold preparation on a throwaway session, traced: the
/// pipeline's cold path and the workload builder's call count.
pub fn cold_prepare(specs: &[WorkloadSpec], params: &Params, log: &mut SpanLog, out: &mut Outcome) {
    let calls0 = diag_workloads::build_calls();
    let t0 = Instant::now();
    match prepare(&Session::in_memory(), specs, params, log) {
        Ok(()) => {
            let n = specs.len() as u64;
            out.metric(
                "pipeline.prepare_ms",
                t0.elapsed().as_secs_f64() * 1e3,
                "ms",
                n,
            );
            let calls = diag_workloads::build_calls() - calls0;
            out.metric("workloads.build_calls", calls as f64, "count", n);
        }
        Err(e) => out.check(Err(e)),
    }
}

/// Set-up time: the fastest of repeated fresh set-ups.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Seconds of the fastest set-up.
    pub best_s: f64,
    /// Set-ups timed.
    pub repeats: u64,
}

/// Repeats `setup` at least [`SETUP_MIN_REPEATS`] times and until
/// [`SETUP_MIN_TOTAL`] has been spent (at most [`SETUP_MAX_REPEATS`]),
/// and keeps the fastest time: the same best-of estimator as the
/// simulator rows, since the host's neighbours only ever add time.
/// Returns the last result (earlier ones are torn down by `teardown`)
/// and the fastest time.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, SetupTime) {
    let mut best_s = f64::INFINITY;
    let mut repeats = 0;
    let mut last = None;
    let start = Instant::now();
    while repeats < SETUP_MIN_REPEATS
        || (start.elapsed() < SETUP_MIN_TOTAL && repeats < SETUP_MAX_REPEATS)
    {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        let value = setup();
        best_s = best_s.min(t0.elapsed().as_secs_f64());
        repeats += 1;
        last = Some(value);
    }
    (
        last.expect("at least one set-up"),
        SetupTime {
            best_s,
            repeats: repeats as u64,
        },
    )
}

/// Reports `setup_s`.
pub fn setup_metric(out: &mut Outcome, t: SetupTime) {
    out.metric("setup_s", t.best_s, "s", t.repeats);
}

/// Host time of a row of identical runs: the per-row minimum, which
/// damps scheduler noise (the same estimator `harness bench` uses).
#[derive(Debug, Clone, Default)]
pub struct RowTimes {
    /// Host nanoseconds of each pass.
    pub ns: Vec<u64>,
    /// Instructions the row commits (identical every pass).
    pub committed: u64,
}

impl RowTimes {
    /// Fastest pass.
    pub fn best(&self) -> Option<u64> {
        self.ns.iter().copied().min()
    }
}

/// Σ best host ns ÷ Σ committed over `rows`, with the number of timed
/// runs it summarises.
pub fn ns_per_instr<'a>(rows: impl IntoIterator<Item = &'a RowTimes>) -> (f64, u64) {
    let (mut ns, mut committed, mut samples) = (0u64, 0u64, 0u64);
    for row in rows {
        if let Some(best) = row.best() {
            ns += best;
            committed += row.committed;
            samples += row.ns.len() as u64;
        }
    }
    (ns as f64 / committed.max(1) as f64, samples)
}

/// Elapsed nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Writes the traced run's spans and reports each layer's share of the
/// recorded self time.
pub fn finish_spans(cfg: &Config, log: &SpanLog, outcome: &mut Outcome) {
    let by_layer = spans::self_time_by_layer(log.spans());
    let total: u64 = by_layer.values().sum();
    for (layer, ns) in &by_layer {
        outcome.metric(
            &format!("spans.self_pct.{layer}"),
            100.0 * *ns as f64 / total.max(1) as f64,
            "%",
            log.spans().iter().filter(|s| s.layer() == *layer).count() as u64,
        );
    }
    if let Some(path) = &cfg.spans_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, log.to_jsonl()));
        match written {
            Ok(()) => outcome.note(format!(
                "wrote {} spans to {} ({} more not kept)",
                log.spans().len(),
                path.display(),
                log.dropped()
            )),
            Err(e) => outcome.fail(format!("writing spans to {}: {e}", path.display())),
        }
    }
}

/// Tracing overhead: how much worse the traced half's figure is than
/// the untraced half's, in percent (`cost` figures: lower is better).
pub fn overhead_pct(outcome: &mut Outcome, untraced_cost: f64, traced_cost: f64, samples: u64) {
    outcome.metric(
        "spans.overhead_pct",
        100.0 * (traced_cost / untraced_cost - 1.0),
        "%",
        samples,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_trace::json::{self, Value};

    /// `(name, unit)` of every entry of `BENCHMARK.json`'s `key` list.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let field = |v: &Value, f: &str| v.get(f).and_then(Value::as_str).unwrap_or("").to_string();
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|v| (field(v, "name"), field(v, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, GATED);
        assert!(GATED.iter().all(|w| WORKLOADS.contains(w)));
    }
}
