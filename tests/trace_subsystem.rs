//! End-to-end tests of the `diag-trace` observability subsystem.
//!
//! The contract under test (ISSUE acceptance criteria):
//!
//! 1. **Exact stall reconciliation** — the stall-attribution timeline
//!    built from the event stream sums to exactly the run's
//!    [`StallBreakdown`], per cause, for every bundled workload on every
//!    machine model, including multi-threaded and SIMT variants.
//! 2. **Tracing is observation only** — a traced run's [`RunStats`] are
//!    identical to an untraced run's.
//! 3. **Determinism** — two traced runs of the same workload produce
//!    byte-identical JSONL event streams.
//! 4. **Perfetto validity** — the Chrome trace-event export passes the
//!    schema check for every machine model.
//! 5. **Golden export bytes** — the Perfetto export and the JSONL
//!    encoding of every traced run hash to a pinned digest, so a rewrite
//!    of either writer must reproduce today's output byte for byte.

use diag_bench::runner::{build_machine, MachineSpec};
use diag_pipeline::StableHasher;
use diag_sim::RunStats;
use diag_trace::timeline::StallTimeline;
use diag_trace::{perfetto, Event, Tracer, VecSink};
use diag_workloads::{Params, WorkloadSpec};

/// Runs `spec` on a machine of `kind` with a tracer attached; returns the
/// run's statistics and the captured event stream.
fn traced_run(kind: &MachineSpec, spec: &WorkloadSpec, params: &Params) -> (RunStats, Vec<Event>) {
    let built = spec.build(params).expect("workload builds");
    let sink = VecSink::shared();
    let mut machine = build_machine(kind);
    machine.set_tracer(Tracer::to_shared(sink.clone()));
    let stats = machine
        .run(&built.program, params.threads)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", spec.name, kind.label()));
    (built.verify)(machine.as_ref())
        .unwrap_or_else(|e| panic!("{} on {}: verify: {e}", spec.name, kind.label()));
    let events = sink.borrow_mut().take();
    (stats, events)
}

/// Asserts the timeline built from `events` reconciles exactly with the
/// run's stall breakdown.
fn assert_reconciles(label: &str, stats: &RunStats, events: &[Event]) {
    let timeline = StallTimeline::from_events(events, 64);
    assert_eq!(
        timeline.totals(),
        [
            stats.stalls.memory,
            stats.stalls.control,
            stats.stalls.structural
        ],
        "{label}: timeline disagrees with StallBreakdown {:?}",
        stats.stalls
    );
}

fn machines() -> Vec<MachineSpec> {
    vec![
        MachineSpec::Diag(diag_core::DiagConfig::f4c32()),
        MachineSpec::Ooo(4),
        MachineSpec::InOrder,
    ]
}

#[test]
fn stall_timeline_reconciles_on_every_workload() {
    for kind in machines() {
        for spec in diag_workloads::all() {
            let params = Params::tiny();
            let (stats, events) = traced_run(&kind, &spec, &params);
            assert_reconciles(
                &format!("{} on {}", spec.name, kind.label()),
                &stats,
                &events,
            );
        }
    }
}

#[test]
fn stall_timeline_reconciles_multithreaded_and_simt() {
    for spec in diag_workloads::all() {
        let kind = MachineSpec::Diag(diag_core::DiagConfig::f4c32());
        let params = Params::tiny().with_threads(4);
        let (stats, events) = traced_run(&kind, &spec, &params);
        assert_reconciles(&format!("{} x4 threads", spec.name), &stats, &events);
        if spec.simt_capable {
            let params = Params::tiny().with_threads(4).with_simt(true);
            let (stats, events) = traced_run(&kind, &spec, &params);
            assert_reconciles(&format!("{} x4 simt", spec.name), &stats, &events);
        }
    }
    // The baselines under waves (threads > cores) as well.
    let spec = diag_workloads::find("hotspot").expect("bundled");
    let params = Params::tiny().with_threads(6);
    for kind in [MachineSpec::Ooo(2), MachineSpec::InOrder] {
        let (stats, events) = traced_run(&kind, &spec, &params);
        assert_reconciles(
            &format!("hotspot waves on {}", kind.label()),
            &stats,
            &events,
        );
    }
}

#[test]
fn tracing_does_not_change_stats() {
    for kind in machines() {
        for name in ["hotspot", "mcf"] {
            let spec = diag_workloads::find(name).expect("bundled");
            let params = Params::tiny().with_threads(2);
            let built = spec.build(&params).expect("workload builds");
            let mut plain = build_machine(&kind);
            let untraced = plain.run(&built.program, params.threads).expect("runs");
            let (traced, events) = traced_run(&kind, &spec, &params);
            assert!(
                !events.is_empty(),
                "{name} on {} traced nothing",
                kind.label()
            );
            assert_eq!(
                untraced,
                traced,
                "{name} on {}: tracing perturbed the run",
                kind.label()
            );
        }
    }
}

#[test]
fn traced_runs_are_byte_deterministic() {
    let spec = diag_workloads::find("bfs").expect("bundled");
    let params = Params::tiny().with_threads(2);
    let jsonl = |events: &[Event]| {
        let mut buf = String::new();
        for event in events {
            event.write_jsonl(&mut buf);
            buf.push('\n');
        }
        buf
    };
    for kind in machines() {
        let (_, first) = traced_run(&kind, &spec, &params);
        let (_, second) = traced_run(&kind, &spec, &params);
        assert_eq!(
            jsonl(&first),
            jsonl(&second),
            "bfs on {}: nondeterministic event stream",
            kind.label()
        );
    }
}

#[test]
fn perfetto_export_is_schema_valid() {
    let spec = diag_workloads::find("srad").expect("bundled");
    for kind in machines() {
        let (_, events) = traced_run(&kind, &spec, &Params::tiny());
        let text = perfetto::export(&events);
        let summary = perfetto::validate_chrome_trace(&text)
            .unwrap_or_else(|e| panic!("srad on {}: invalid trace: {e}", kind.label()));
        assert!(summary.events > 0, "srad on {}: empty trace", kind.label());
        assert!(summary.slices > 0, "srad on {}: no slices", kind.label());
    }
}

/// The pinned digest of [`export_bytes_match_the_golden_digest`].
/// Change it only together with a deliberate change to the trace
/// vocabulary or an exporter's format, and say so in the change log.
const GOLDEN_EXPORT: &str = "40e0ab3beb8a34f2";

#[test]
fn export_bytes_match_the_golden_digest() {
    let mut runs: Vec<(MachineSpec, WorkloadSpec, Params)> = Vec::new();
    for kind in machines() {
        for spec in diag_workloads::all() {
            runs.push((kind.clone(), spec, Params::tiny()));
        }
    }
    let hotspot = diag_workloads::find("hotspot").expect("bundled");
    runs.push((
        MachineSpec::Diag(diag_core::DiagConfig::f4c32()),
        hotspot,
        Params::tiny().with_threads(4).with_simt(true),
    ));
    let mut h = StableHasher::new();
    let mut line = String::new();
    for (kind, spec, params) in &runs {
        let (_, events) = traced_run(kind, spec, params);
        h.write_str(&perfetto::export(&events));
        for event in &events {
            line.clear();
            event.write_jsonl(&mut line);
            h.write_str(&line);
        }
    }
    let digest = format!("{:016x}", h.finish());
    assert_eq!(
        digest,
        GOLDEN_EXPORT,
        "export digest over {} traced runs changed",
        runs.len()
    );
}
