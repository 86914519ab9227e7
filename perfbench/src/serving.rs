//! `serve-hit` and `serve-miss`: an in-process `diag-serve` server with
//! the default `ServeConfig` on an ephemeral local port, driven closed
//! loop by [`CONNS`] client connections that each keep one request
//! outstanding.
//!
//! - `serve-hit` warms the 54 keys (18 workloads × 3 default machines,
//!   small scale), then draws keys from a seeded stream: every request
//!   is a run-memo hit, so protocol, admission, memo lookup, telemetry
//!   and JSON do all the work.
//! - `serve-miss` draws, without replacement, from 18 workloads × (the
//!   tuner's 36 DiAG grid points + `ooo` + `inorder`) — 684 distinct
//!   run keys, so every request simulates. Preparation (assembly and
//!   station lowering) is done in set-up, as a long-running server
//!   would have it; the wire protocol has no input-seed field, so the
//!   seed only picks and orders requests.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use diag_bench::runner::{run_verified_with, MachineSpec};
use diag_bench::tune::default_grid;
use diag_pipeline::{run_key, Session};
use diag_serve::protocol::{parse_request, result_frame, CacheDelta};
use diag_serve::{Client, FairQueue, Frame, ServeConfig, Server, ServerHandle, Submit};
use diag_sim::{machine_steps, RunStats};
use diag_telemetry::Histogram;
use diag_trace::json::{self, Value};
use diag_workloads::{Params, WorkloadSpec};

use crate::gen::{self, HitStream};
use crate::report::{digest, Outcome};
use crate::spans::{SpanLog, ROOT};
use crate::stats::{median_of, percentile};
use crate::{family, machine, ns_since, repeated_setup, Config, MACHINES, RUN_METRICS};

/// Client connections (the host has two cores; the server's default
/// worker pool is one worker per core).
const CONNS: u64 = 2;

/// Keyed requests the serve-miss reference check re-runs through the
/// library path.
const MISS_REFERENCE_SAMPLE: usize = 24;

/// Latency samples one connection keeps over a phase; past that, the
/// sample is thinned (see [`Sample`]).
const MAX_SAMPLES: usize = 1 << 17;

/// Request and frame lines each connection keeps for the traced run's
/// replay micro-measurements.
const KEPT_LINES: usize = 2048;

/// One distinct request: a workload on a machine, at small scale.
#[derive(Debug, Clone)]
struct Key {
    /// The workload.
    spec: WorkloadSpec,
    /// Machine text as sent on the wire.
    machine: String,
    /// The parsed machine.
    kind: MachineSpec,
}

impl Key {
    /// The request line for `seq`.
    fn submit_line(&self, seq: u64) -> String {
        let mut s = Submit::new(seq, self.spec.name, &self.machine);
        s.scale = "small".to_string();
        s.to_line()
    }
}

/// The run-stage outcome every measured result must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A memo hit: no simulation ran.
    Hit,
    /// A memo miss: the request simulated. Each result frame's
    /// `run_builds` is a delta over the *shared* session during that
    /// request's run, so with two workers it can include a neighbour's
    /// build; exactly-once is checked on the session's totals instead.
    Miss,
}

/// Where a connection's next key comes from.
enum Source<'a> {
    /// Seeded draws with replacement (one stream per connection).
    Random { seed: u64, label: u64 },
    /// A shared list, each entry taken by exactly one connection.
    List {
        order: &'a [usize],
        next: &'a AtomicUsize,
    },
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    seen: Phase,
    checks: Outcome,
    spans: Option<SpanLog>,
}

/// The latencies of a phase's requests, in bounded memory.
///
/// Samples are kept compact (`u32` nanoseconds; server time only in
/// traced phases). Every `stride`-th request is kept; when
/// [`MAX_SAMPLES`] are kept, every other one is dropped and the stride
/// doubles, so the benchmark's own bookkeeping — part of
/// `peak_rss_mb` — does not grow with the request rate, and the sample
/// stays spread evenly over the whole phase.
struct Sample {
    /// Requests that completed.
    count: u64,
    /// One request in `stride` is kept.
    stride: u64,
    /// Client-observed latencies of the kept requests.
    latency_ns: Vec<u32>,
    /// The matching result frames' `host_ns`, traced phases only.
    host_ns: Vec<u32>,
}

impl Default for Sample {
    fn default() -> Sample {
        Sample {
            count: 0,
            stride: 1,
            latency_ns: Vec::new(),
            host_ns: Vec::new(),
        }
    }
}

impl Sample {
    /// Counts one request, keeping it if its turn has come.
    fn record(&mut self, latency: u32, host: Option<u32>) {
        if self.count.is_multiple_of(self.stride) {
            self.latency_ns.push(latency);
            self.host_ns.extend(host);
            if self.latency_ns.len() >= MAX_SAMPLES {
                self.thin();
            }
        }
        self.count += 1;
    }

    /// Drops every other kept request and doubles the stride.
    fn thin(&mut self) {
        for v in [&mut self.latency_ns, &mut self.host_ns] {
            let mut i = 0;
            v.retain(|_| {
                i += 1;
                i % 2 == 1
            });
        }
        self.stride *= 2;
    }

    /// Folds in `other`, first thinning whichever side keeps more
    /// densely, so every kept request stands for the same number of
    /// requests.
    fn merge(&mut self, mut other: Sample) {
        while self.stride < other.stride {
            self.thin();
        }
        while other.stride < self.stride {
            other.thin();
        }
        self.count += other.count;
        self.latency_ns.append(&mut other.latency_ns);
        self.host_ns.append(&mut other.host_ns);
    }
}

/// One key's results over a phase: its fastest request, and the
/// simulated counts its result frames report.
#[derive(Debug, Clone, Copy)]
struct KeyTimes {
    /// Requests for this key that completed.
    runs: u64,
    /// Fastest client-observed latency.
    latency_ns: u64,
    /// Fastest server execute time (the result frame's `host_ns`).
    host_ns: u64,
    cycles: u64,
    committed: u64,
}

impl KeyTimes {
    fn merge(&mut self, other: KeyTimes) {
        self.runs += other.runs;
        self.latency_ns = self.latency_ns.min(other.latency_ns);
        self.host_ns = self.host_ns.min(other.host_ns);
    }
}

/// Everything a closed-loop phase collected across connections.
#[derive(Default)]
struct Phase {
    sample: Sample,
    /// Per key index.
    per_key: BTreeMap<usize, KeyTimes>,
    /// Instructions the completed requests committed.
    committed: u64,
    run_hits: u64,
    run_builds: u64,
    rejects: u64,
    /// The first [`KEPT_LINES`] keys, request lines and result frames.
    keys: Vec<usize>,
    lines: Vec<String>,
    frames: Vec<String>,
    elapsed: Duration,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.sample.count
    }

    /// Folds in another connection's view of the same interval.
    fn overlay(&mut self, other: Phase) {
        self.sample.merge(other.sample);
        for (k, t) in other.per_key {
            self.record_key(k, t);
        }
        self.committed += other.committed;
        self.run_hits += other.run_hits;
        self.run_builds += other.run_builds;
        self.rejects += other.rejects;
        let room = KEPT_LINES.saturating_sub(self.lines.len());
        self.keys.extend(other.keys.into_iter().take(room));
        self.lines.extend(other.lines.into_iter().take(room));
        self.frames.extend(other.frames.into_iter().take(room));
    }

    /// Appends a later interval.
    fn merge(&mut self, other: Phase) {
        self.elapsed += other.elapsed;
        self.overlay(other);
    }

    fn record_key(&mut self, k: usize, t: KeyTimes) {
        self.per_key
            .entry(k)
            .and_modify(|seen| seen.merge(t))
            .or_insert(t);
    }

    /// Σ fastest `pick` time ÷ Σ committed over the keys on machine
    /// family `m` (an index into [`MACHINES`]), with the number of
    /// requests it summarises.
    fn ns_per_instr(&self, keys: &[Key], m: usize, pick: fn(&KeyTimes) -> u64) -> (f64, u64) {
        let (mut ns, mut committed, mut runs) = (0, 0, 0);
        for (&k, t) in &self.per_key {
            if family(&keys[k].kind) == m {
                ns += pick(t);
                committed += t.committed;
                runs += t.runs;
            }
        }
        (ns as f64 / committed.max(1) as f64, runs)
    }

    /// Host seconds per completed request (the inverse of `rps`).
    fn cost(&self) -> f64 {
        self.elapsed.as_secs_f64() / self.completed().max(1) as f64
    }
}

fn num(frame: &Frame, path: &[&str]) -> Option<u64> {
    let mut v: &Value = &frame.doc;
    for key in path {
        v = v.get(key)?;
    }
    v.as_num().map(|n| n as u64)
}

/// Checks one result frame against the request it answers.
fn check_frame(
    frame: &Frame,
    seq: u64,
    key: &Key,
    expect: Option<Expect>,
    reference: Option<&RunStats>,
) -> Result<(), String> {
    let what = || format!("seq {seq} ({} on {})", key.spec.name, key.machine);
    if frame.kind() != "result" || frame.seq() != Some(seq) {
        return Err(format!("{}: unexpected frame {}", what(), frame.raw));
    }
    if frame.ok() != Some(true) {
        return Err(format!("{}: run failed: {}", what(), frame.raw));
    }
    let (hits, builds) = (
        frame.run_hits().unwrap_or(0),
        frame.run_builds().unwrap_or(0),
    );
    match expect {
        Some(Expect::Hit) if builds != 0 || hits == 0 => {
            return Err(format!(
                "{}: expected a memo hit, got run_hits {hits} run_builds {builds}",
                what()
            ))
        }
        Some(Expect::Miss) if hits != 0 || builds == 0 => {
            return Err(format!(
                "{}: expected a simulation, got run_hits {hits} run_builds {builds}",
                what()
            ))
        }
        _ => {}
    }
    if let Some(r) = reference {
        let got = (
            num(frame, &["stats", "cycles"]),
            num(frame, &["stats", "committed"]),
        );
        if got != (Some(r.cycles), Some(r.committed)) {
            return Err(format!(
                "{}: served cycles/committed {got:?} differ from the library's ({}, {})",
                what(),
                r.cycles,
                r.committed
            ));
        }
    }
    Ok(())
}

/// One connection's closed loop: submit, wait for the frame, check it,
/// repeat until the deadline or the source runs dry.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    conn: u64,
    keys: &[Key],
    source: &Source<'_>,
    expect: Option<Expect>,
    reference: &[Option<RunStats>],
    deadline: Instant,
    spans: Option<SpanLog>,
) -> ConnLog {
    let mut log = ConnLog {
        spans,
        ..ConnLog::default()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.checks.check(Err(format!("connection {conn}: {e}")));
            return log;
        }
    };
    let mut random = match source {
        Source::Random { seed, label } => Some(HitStream::new(*seed, label + conn, keys.len())),
        Source::List { .. } => None,
    };
    let mut seq = conn << 40;
    let mut off = SpanLog::off();
    while Instant::now() < deadline {
        let k = match source {
            Source::Random { .. } => random.as_mut().map(HitStream::next_key),
            Source::List { order, next } => {
                order.get(next.fetch_add(1, Ordering::Relaxed)).copied()
            }
        };
        let Some(k) = k else { break };
        seq += 1;
        let key = &keys[k];
        let line = key.submit_line(seq);
        let spans = log.spans.as_mut().unwrap_or(&mut off);
        let t0 = Instant::now();
        let root = spans.enter("serve.request", ROOT, seq);
        let received = client.send_line(&line).and_then(|()| client.recv_line());
        let frame = match received {
            Ok(Some(raw)) => spans
                .time("serve.client_decode", root, seq, || json::parse(&raw))
                .map(|doc| Frame { raw, doc })
                .map_err(|e| e.to_string()),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(e.to_string()),
        };
        spans.exit(root);
        let latency = ns_since(t0);
        let frame = match frame {
            Ok(f) => f,
            Err(e) => {
                log.checks
                    .check(Err(format!("connection {conn}, seq {seq}: {e}")));
                break;
            }
        };
        log.checks
            .check(check_frame(&frame, seq, key, expect, reference[k].as_ref()));
        let traced = log.spans.is_some();
        let seen = &mut log.seen;
        if frame.kind() == "reject" {
            seen.rejects += 1;
        }
        let host = traced
            .then(|| u32::try_from(num(&frame, &["host_ns"]).unwrap_or(0)).unwrap_or(u32::MAX));
        seen.sample
            .record(u32::try_from(latency).unwrap_or(u32::MAX), host);
        if frame.ok() == Some(true) {
            let field = |path: &[&str]| num(&frame, path).unwrap_or(0);
            let committed = field(&["stats", "committed"]);
            seen.committed += committed;
            seen.record_key(
                k,
                KeyTimes {
                    runs: 1,
                    latency_ns: latency,
                    host_ns: field(&["host_ns"]),
                    cycles: field(&["stats", "cycles"]),
                    committed,
                },
            );
        }
        seen.run_hits += frame.run_hits().unwrap_or(0);
        seen.run_builds += frame.run_builds().unwrap_or(0);
        if seen.lines.len() < KEPT_LINES {
            seen.keys.push(k);
            seen.lines.push(line);
            seen.frames.push(frame.raw);
        }
    }
    log
}

/// Runs [`CONNS`] connections in parallel until `deadline`, merging
/// what they saw into `phase` and their checks into `out`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: SocketAddr,
    keys: &[Key],
    source: &Source<'_>,
    expect: Option<Expect>,
    reference: &[Option<RunStats>],
    deadline: Instant,
    spans: Option<&mut SpanLog>,
    out: &mut Outcome,
) -> Phase {
    let origin = spans.as_ref().map(|l| l.origin());
    let t0 = Instant::now();
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let log = origin.map(SpanLog::on);
                s.spawn(move || drive(addr, conn, keys, source, expect, reference, deadline, log))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut phase = Phase::default();
    let mut spans = spans;
    for log in logs {
        phase.overlay(log.seen);
        out.absorb(log.checks);
        if let (Some(dst), Some(src)) = (spans.as_deref_mut(), log.spans) {
            dst.absorb(src);
        }
    }
    phase.elapsed = elapsed;
    phase
}

/// Runs `indices` of `keys` through the library path (`run_verified_with`
/// on a session of its own), split over [`CONNS`] threads — the
/// reference every served result is compared with.
fn library_reference(keys: &[Key], indices: &[usize], out: &mut Outcome) -> Vec<Option<RunStats>> {
    let params = Params::small();
    let session = &Session::in_memory();
    let results: Vec<(usize, Result<RunStats, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS as usize)
            .map(|t| {
                s.spawn(move || {
                    indices
                        .iter()
                        .skip(t)
                        .step_by(CONNS as usize)
                        .map(|&i| {
                            let k = &keys[i];
                            (
                                i,
                                run_verified_with(session, &k.kind, &k.spec, &params)
                                    .map_err(|e| e.to_string()),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference threads do not panic"))
            .collect()
    });
    let mut reference = vec![None; keys.len()];
    for (i, r) in results {
        match r {
            Ok(stats) => {
                out.check(Ok(()));
                reference[i] = Some(stats);
            }
            Err(e) => out.check(Err(format!("library reference: {e}"))),
        }
    }
    reference
}

fn start(session: Session) -> io::Result<ServerHandle> {
    Ok(Server::bind(&ServeConfig::default(), session)?.spawn())
}

/// Asks the server to drain, then waits for it to exit.
fn stop(handle: ServerHandle) -> io::Result<()> {
    let mut client = Client::connect(handle.addr())?;
    client.send_verb("shutdown")?;
    while let Some(frame) = client.recv_line()? {
        if frame.contains("\"frame\":\"shutdown\"") {
            break;
        }
    }
    drop(client);
    handle.join()
}

/// Scrapes the server's `metrics` verb.
fn scrape(addr: SocketAddr) -> io::Result<Frame> {
    let mut client = Client::connect(addr)?;
    client.send_verb("metrics")?;
    let frame = client
        .recv()?
        .ok_or_else(|| io::Error::other("server closed before the metrics frame"))?;
    if frame.kind() != "metrics" {
        return Err(io::Error::other(format!(
            "expected a metrics frame, got {}",
            frame.raw
        )));
    }
    Ok(frame)
}

const STAGES: [&str; 7] = [
    "workloads",
    "programs",
    "stations",
    "analyses",
    "verifications",
    "reports",
    "runs",
];

fn stage_gauge(frame: &Frame, name: &str, stage: &str) -> u64 {
    frame
        .metric_field("gauges", &format!("{name}{{stage=\"{stage}\"}}"), "value")
        .unwrap_or(0)
}

/// Reports `rps` over the whole phase, and `p50_ms` and the named tail
/// percentile over its latency sample, each only with at least ten
/// samples beyond it and with the number of samples it was taken over.
fn latency_metrics(phase: &Phase, tail: (&str, f64), out: &mut Outcome) {
    let n = phase.completed();
    out.metric("rps", n as f64 / phase.elapsed.as_secs_f64(), "1/s", n);
    let mut ns = phase.sample.latency_ns.clone();
    ns.sort_unstable();
    for (name, pct) in [("p50_ms", 50.0), tail] {
        match percentile(&ns, pct) {
            Some(p) => out.metric(name, p.value / 1e6, "ms", p.samples as u64),
            None => out.note(format!(
                "{name} not reported: {} samples leave fewer than ten beyond it",
                ns.len()
            )),
        }
    }
    if phase.sample.stride > 1 {
        out.note(format!(
            "latencies sampled: one request in {} of {n}",
            phase.sample.stride
        ));
    }
}

/// Times `n` calls of `f` as one span; returns nanoseconds per call.
fn per_call(log: &mut SpanLog, name: &'static str, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let root = log.enter(name, ROOT, 0);
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    let ns = ns_since(t0);
    log.exit(root);
    ns as f64 / n.max(1) as f64
}

/// Replay calls per micro-measurement.
const REPLAYS: usize = 20_000;

/// The traced run's serve-side figures: the server's own view (its
/// `metrics` frame, scraped at the end of the traced phase), the
/// client-observed split of each request, and replays of single layer
/// calls on this run's own lines and frames.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    metrics: &Frame,
    keys: &[Key],
    reference: &[Option<RunStats>],
    traced: &Phase,
    expect: Expect,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    let n = traced.completed();
    let us = |v: &[u32]| median_of(v).map(|m| m / 1e3);
    let sample = &traced.sample;
    if let Some(v) = us(&sample.host_ns) {
        out.metric("serve.execute_us", v, "us", sample.host_ns.len() as u64);
    }
    let overhead: Vec<u32> = sample
        .latency_ns
        .iter()
        .zip(&sample.host_ns)
        .map(|(l, h)| l.saturating_sub(*h))
        .collect();
    if let Some(v) = us(&overhead) {
        out.metric("serve.overhead_us", v, "us", overhead.len() as u64);
    }
    out.metric("serve.rejects", traced.rejects as f64, "count", n);
    let ratio = traced.run_hits as f64 / (traced.run_hits + traced.run_builds).max(1) as f64;
    out.metric("pipeline.memo_hit_ratio", ratio, "ratio", n);

    let hist = |name: &str, field: &str| {
        metrics.metric_field("histograms", &format!("{name}{{scale=\"small\"}}"), field)
    };
    for (metric, name) in [
        ("serve.queue_wait_us", "diag_serve_queue_wait_ns"),
        ("serve.first_byte_us", "diag_serve_first_byte_ns"),
    ] {
        if let (Some(p50), Some(count)) = (hist(name, "p50"), hist(name, "count")) {
            out.metric(metric, p50 as f64 / 1e3, "us", count);
        }
    }
    if let Some(hw) = metrics.metric_field("gauges", "diag_serve_queue_depth", "high_water") {
        out.metric("serve.queue_depth_max", hw as f64, "count", 1);
    }
    let total = |name: &str| {
        STAGES
            .iter()
            .map(|s| stage_gauge(metrics, name, s))
            .sum::<u64>()
    };
    out.metric(
        "pipeline.builds",
        total("diag_cache_stage_builds") as f64,
        "count",
        1,
    );
    out.metric(
        "pipeline.hits",
        total("diag_cache_stage_hits") as f64,
        "count",
        1,
    );

    // Replays of single layer calls on this run's own traffic.
    let lines = &traced.lines;
    let frames = &traced.frames;
    if lines.is_empty() {
        out.check(Err("traced phase completed no requests".into()));
        return;
    }
    let v = per_call(log, "serve.parse", REPLAYS, |i| {
        black_box(parse_request(&lines[i % lines.len()]).is_ok());
    });
    out.metric("serve.parse_ns", v, "ns", REPLAYS as u64);
    let v = per_call(log, "serve.client_decode", REPLAYS, |i| {
        black_box(json::parse(&frames[i % frames.len()]).is_ok());
    });
    out.metric("serve.client_decode_ns", v, "ns", REPLAYS as u64);
    let stats: Vec<(&Key, RunStats)> = traced
        .keys
        .iter()
        .filter_map(|&k| reference[k].map(|s| (&keys[k], s)))
        .collect();
    if let Some(first) = stats.first() {
        let v = per_call(log, "serve.frame", REPLAYS, |i| {
            let (key, s) = stats.get(i % stats.len()).unwrap_or(first);
            let frame = result_frame(
                i as u64,
                key.spec.name,
                &key.machine,
                &key.kind.render(),
                s,
                CacheDelta::default(),
                1,
            );
            black_box(frame.len());
        });
        out.metric("serve.frame_ns", v, "ns", REPLAYS as u64);
    }
    let queue: FairQueue<usize> = FairQueue::new(1024, 1);
    let v = per_call(log, "serve.queue", REPLAYS, |i| {
        let _ = queue.submit("conn1", 8, i);
        black_box(queue.pop());
    });
    out.metric("serve.queue_ns", v, "ns", REPLAYS as u64);
    let hist = Histogram::new();
    let lat = &sample.latency_ns;
    let v = per_call(log, "telemetry.record", REPLAYS, |i| {
        hist.record(u64::from(lat[i % lat.len()]))
    });
    out.metric("telemetry.record_ns", v, "ns", REPLAYS as u64);

    let params = Params::small();
    let run_keys: Vec<_> = traced
        .keys
        .iter()
        .map(|&k| run_key(keys[k].spec.name, &params, &keys[k].kind))
        .collect();
    match expect {
        Expect::Hit => {
            // A warm memo holding exactly the served keys.
            let memo = Session::in_memory();
            for (&k, key) in traced.keys.iter().zip(&run_keys) {
                memo.record_run(*key, reference[k].unwrap_or_default());
            }
            let v = per_call(log, "pipeline.memo_lookup", REPLAYS, |i| {
                black_box(memo.cached_run(run_keys[i % run_keys.len()]));
            });
            out.metric("pipeline.memo_lookup_ns", v, "ns", REPLAYS as u64);
        }
        Expect::Miss => {
            // Recording into a fresh memo, one distinct key per call.
            let memo = Session::in_memory();
            let all: Vec<_> = keys
                .iter()
                .map(|k| run_key(k.spec.name, &params, &k.kind))
                .collect();
            let v = per_call(log, "pipeline.memo_record", all.len(), |i| {
                memo.record_run(all[i], RunStats::default());
            });
            out.metric("pipeline.memo_record_ns", v, "ns", all.len() as u64);
        }
    }
}

/// The traced serve-miss run's simulator figures, taken from the result
/// frames: the workers' execute time per instruction by machine family
/// (the nearest the run call can be timed from outside the server),
/// DiAG's simulated counts, and the step counter over the phase.
fn miss_layers(keys: &[Key], traced: &Phase, steps: u64, out: &mut Outcome) {
    for (m, name) in RUN_METRICS.into_iter().enumerate() {
        let (v, n) = traced.ns_per_instr(keys, m, |t| t.host_ns);
        out.metric(name, v, "ns", n);
    }
    let diag: Vec<&KeyTimes> = traced
        .per_key
        .iter()
        .filter(|(&k, _)| family(&keys[k].kind) == 0)
        .map(|(_, t)| t)
        .collect();
    let n = diag.len() as u64;
    out.metric(
        "core.sim_cycles",
        diag.iter().map(|t| t.cycles).sum::<u64>() as f64,
        "count",
        n,
    );
    out.metric(
        "core.committed",
        diag.iter().map(|t| t.committed).sum::<u64>() as f64,
        "count",
        n,
    );
    out.metric(
        "sim.steps_per_instr",
        steps as f64 / traced.committed.max(1) as f64,
        "ratio",
        traced.completed(),
    );
}

/// The 54 serve-hit keys: every workload on each default machine.
fn hit_keys(specs: &[WorkloadSpec]) -> Vec<Key> {
    specs
        .iter()
        .flat_map(|spec| {
            MACHINES.iter().map(move |m| Key {
                spec: *spec,
                machine: (*m).to_string(),
                kind: machine(m),
            })
        })
        .collect()
}

/// The 684 serve-miss keys, workload-major: every workload on each of
/// the tuner's default DiAG grid points, then `ooo` and `inorder`.
fn miss_keys(specs: &[WorkloadSpec]) -> Vec<Key> {
    let mut machines: Vec<MachineSpec> = default_grid();
    machines.push(machine("ooo"));
    machines.push(machine("inorder"));
    specs
        .iter()
        .flat_map(|spec| {
            machines.iter().map(move |kind| Key {
                spec: *spec,
                machine: kind.render(),
                kind: kind.clone(),
            })
        })
        .collect()
}

/// Runs serve-hit.
pub fn run_hit(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let specs = diag_workloads::all();
    let keys = hit_keys(&specs);
    let all: Vec<usize> = (0..keys.len()).collect();
    let reference = library_reference(&keys, &all, &mut out);
    let library: Vec<RunStats> = reference.iter().flatten().copied().collect();
    out.note(format!(
        "digest {} over {} library runs",
        digest(&library),
        library.len()
    ));

    let mut warm_checks = Outcome::default();
    let (server, setup_s) = repeated_setup(
        || {
            let handle = start(Session::in_memory())?;
            // Warm every key once; each warm-up request simulates.
            let next = AtomicUsize::new(0);
            let source = Source::List {
                order: &all,
                next: &next,
            };
            let far = Instant::now() + Duration::from_secs(3600);
            let warm = closed_loop(
                handle.addr(),
                &keys,
                &source,
                Some(Expect::Miss),
                &reference,
                far,
                None,
                &mut warm_checks,
            );
            if warm.completed() != keys.len() as u64 {
                return Err(io::Error::other(format!(
                    "warm-up completed {} of {} keys",
                    warm.completed(),
                    keys.len()
                )));
            }
            Ok(handle)
        },
        stop_quietly,
    );
    out.absorb(warm_checks);
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(format!("set-up: {e}")));
            return out;
        }
    };
    let addr = server.addr();
    let source = Source::Random {
        seed: cfg.seed,
        label: 0,
    };
    let measure = |budget: Duration, spans: Option<&mut SpanLog>, out: &mut Outcome| {
        let seen = closed_loop(
            addr,
            &keys,
            &source,
            Some(Expect::Hit),
            &reference,
            Instant::now() + budget,
            spans,
            out,
        );
        let metrics = scrape(addr)
            .map_err(|e| out.check(Err(format!("metrics scrape: {e}"))))
            .ok();
        (seen, metrics)
    };
    report(
        cfg,
        &keys,
        &specs,
        &reference,
        Expect::Hit,
        setup_s,
        &mut out,
        measure,
    );
    if let Err(e) = stop(server) {
        out.check(Err(format!("shutdown: {e}")));
    }
    out
}

/// A fresh server over a session that has every workload prepared.
fn start_prepared(specs: &[WorkloadSpec]) -> io::Result<ServerHandle> {
    let session = Session::in_memory();
    crate::prepare(&session, specs, &Params::small(), &mut SpanLog::off())
        .map_err(io::Error::other)?;
    start(session)
}

fn stop_quietly(server: io::Result<ServerHandle>) {
    if let Ok(h) = server {
        let _ = stop(h);
    }
}

/// Runs serve-miss. Each pass sends every key once to a fresh server
/// (a warm memo would turn repeats into hits); passes repeat while the
/// budget has room for another whole pass, so the measured mix is whole
/// passes unless a single pass outlasts the budget.
pub fn run_miss(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let specs = diag_workloads::all();
    let keys = miss_keys(&specs);
    let machines = keys.len() / specs.len();
    let order: Vec<usize> = gen::miss_order(cfg.seed, specs.len(), machines)
        .into_iter()
        .map(|(w, m)| w * machines + m)
        .collect();
    let sample = gen::sample(cfg.seed, 0x5A3, keys.len(), MISS_REFERENCE_SAMPLE);
    let reference = library_reference(&keys, &sample, &mut out);
    let library: Vec<RunStats> = reference.iter().flatten().copied().collect();
    out.note(format!(
        "digest {} over {} sampled library runs",
        digest(&library),
        library.len()
    ));

    let (server, setup_s) = repeated_setup(|| start_prepared(&specs), stop_quietly);
    let mut next_server = Some(server);
    let measure = |budget: Duration, mut spans: Option<&mut SpanLog>, out: &mut Outcome| {
        let start = Instant::now();
        let (mut seen, mut metrics, mut last) = (Phase::default(), None, Duration::ZERO);
        loop {
            let remaining = budget.saturating_sub(start.elapsed());
            if remaining.is_zero() || (seen.completed() > 0 && remaining < last) {
                break;
            }
            let server = match next_server.take().unwrap_or_else(|| start_prepared(&specs)) {
                Ok(s) => s,
                Err(e) => {
                    out.check(Err(format!("set-up: {e}")));
                    break;
                }
            };
            let addr = server.addr();
            let next = AtomicUsize::new(0);
            let source = Source::List {
                order: &order,
                next: &next,
            };
            let deadline = Instant::now() + remaining;
            let pass = closed_loop(
                addr,
                &keys,
                &source,
                Some(Expect::Miss),
                &reference,
                deadline,
                spans.as_deref_mut(),
                out,
            );
            // Every request simulated exactly once: the session's run
            // stage recorded one build per completed request, no hit.
            match scrape(addr) {
                Ok(frame) => {
                    let builds = stage_gauge(&frame, "diag_cache_stage_builds", "runs");
                    let hits = stage_gauge(&frame, "diag_cache_stage_hits", "runs");
                    out.check(if builds == pass.completed() && hits == 0 {
                        Ok(())
                    } else {
                        Err(format!(
                            "run stage: {builds} builds and {hits} hits for {} requests",
                            pass.completed()
                        ))
                    });
                    metrics = Some(frame);
                }
                Err(e) => out.check(Err(format!("metrics scrape: {e}"))),
            }
            if let Err(e) = stop(server) {
                out.check(Err(format!("shutdown: {e}")));
            }
            last = pass.elapsed;
            seen.merge(pass);
        }
        (seen, metrics)
    };
    report(
        cfg,
        &keys,
        &specs,
        &reference,
        Expect::Miss,
        setup_s,
        &mut out,
        measure,
    );
    out
}

/// Measures with `measure` for the whole budget (untraced run), or for
/// an untraced half and then a traced half (traced run), and reports.
/// `measure` returns what the clients saw and the server's `metrics`
/// frame at the end.
#[allow(clippy::too_many_arguments)]
fn report(
    cfg: &Config,
    keys: &[Key],
    specs: &[WorkloadSpec],
    reference: &[Option<RunStats>],
    expect: Expect,
    setup_s: crate::SetupTime,
    out: &mut Outcome,
    mut measure: impl FnMut(Duration, Option<&mut SpanLog>, &mut Outcome) -> (Phase, Option<Frame>),
) {
    let budget = if cfg.trace {
        cfg.budget() / 2
    } else {
        cfg.budget()
    };
    let (plain, _) = measure(budget, None, out);
    if !cfg.trace {
        crate::setup_metric(out, setup_s);
        let tail = match expect {
            Expect::Hit => ("p99_ms", 99.0),
            Expect::Miss => ("p95_ms", 95.0),
        };
        latency_metrics(&plain, tail, out);
        if expect == Expect::Miss {
            // What a client waits per simulated instruction, by machine.
            for (m, name) in MACHINES.iter().enumerate() {
                let (v, n) = plain.ns_per_instr(keys, m, |t| t.latency_ns);
                out.metric(&format!("{name}_ns_per_instr"), v, "ns", n);
            }
        }
        return;
    }
    let mut log = SpanLog::on(Instant::now());
    let steps0 = machine_steps();
    let (traced, metrics) = measure(budget, Some(&mut log), out);
    let steps = machine_steps() - steps0;
    if let Some(frame) = metrics {
        serve_layers(&frame, keys, reference, &traced, expect, &mut log, out);
    }
    if expect == Expect::Miss {
        miss_layers(keys, &traced, steps, out);
    }
    crate::cold_prepare(specs, &Params::small(), &mut log, out);
    crate::overhead_pct(
        out,
        plain.cost(),
        traced.cost(),
        plain.completed() + traced.completed(),
    );
    crate::finish_spans(cfg, &log, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_thins_evenly_and_stays_bounded() {
        let mut s = Sample::default();
        let n = 3 * MAX_SAMPLES as u64;
        for i in 0..n {
            s.record(i as u32, Some(i as u32 + 1));
        }
        assert_eq!(s.count, n);
        assert_eq!(s.stride, 4);
        assert!(s.latency_ns.len() < MAX_SAMPLES);
        // Every kept request is a multiple of the stride, in order, and
        // its server time stayed paired with it.
        assert!(s
            .latency_ns
            .iter()
            .enumerate()
            .all(|(i, &l)| u64::from(l) == i as u64 * s.stride));
        assert!(s.latency_ns.iter().zip(&s.host_ns).all(|(l, h)| h - l == 1));
    }

    #[test]
    fn merge_brings_both_sides_to_one_stride() {
        let mut dense = Sample::default();
        for i in 0..100 {
            dense.record(i, None);
        }
        let mut sparse = Sample::default();
        for i in 0..MAX_SAMPLES as u32 + 10 {
            sparse.record(i, None);
        }
        assert_eq!(sparse.stride, 2);
        dense.merge(sparse);
        assert_eq!(dense.stride, 2);
        assert_eq!(dense.count, 100 + MAX_SAMPLES as u64 + 10);
        assert_eq!(dense.latency_ns.len(), 50 + MAX_SAMPLES / 2 + 5);
    }
}
