//! Chrome/Perfetto trace-event JSON export.
//!
//! [`export`] turns a recorded event stream into the JSON object format
//! understood by `ui.perfetto.dev` and `chrome://tracing`: one named
//! track per `(thread, component)` pair, complete slices (`ph:"X"`) for
//! PE execution intervals and stall intervals, async slices (`ph:"b"` /
//! `ph:"e"`) for in-flight LSU requests, counter samples (`ph:"C"`) for
//! segment-buffer occupancy, and instants for everything else.
//!
//! [`validate_chrome_trace`] re-parses an export with the in-crate JSON
//! parser and checks it structurally — the CI smoke job runs it against
//! every trace the harness writes.
//!
//! Timestamps are simulation cycles written in the `ts` field (nominally
//! microseconds); the viewer's absolute unit does not matter for relative
//! inspection, and integral cycle values keep the export
//! byte-deterministic.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::event::{Event, EventKind, Track};
use crate::json::{self, push_dec, push_hex, Value};

/// A small multiplicative hasher (the rustc "Fx" mix) for the export's
/// `(thread, Track)` keys: a handful of small integers per key, hashed
/// once per event, where SipHash's DoS resistance buys nothing.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Stable track identity within the export: process = hardware thread,
/// thread row = component track.
struct Tracks {
    /// The distinct `(thread, Track)` keys, in sorted order; the key at
    /// position `i` has tid `i + 1`, so the viewer lists components in a
    /// stable order and the export is deterministic.
    sorted: Vec<(u32, Track)>,
    /// Each sorted key's `,"pid":…,"tid":…` fields, rendered once.
    fields: Vec<String>,
    /// Each event's position in `sorted`.
    of_event: Vec<u32>,
}

impl Tracks {
    fn new(events: &[Event]) -> Tracks {
        // One hash probe per event assigns first-seen indices; only the
        // distinct keys are sorted.
        let mut index: HashMap<(u32, Track), u32, BuildHasherDefault<KeyHasher>> =
            HashMap::default();
        let mut seen: Vec<(u32, Track)> = Vec::new();
        let mut of_event: Vec<u32> = events
            .iter()
            .map(|e| {
                let key = (e.thread, e.track);
                *index.entry(key).or_insert_with(|| {
                    seen.push(key);
                    (seen.len() - 1) as u32
                })
            })
            .collect();
        let mut order: Vec<usize> = (0..seen.len()).collect();
        order.sort_unstable_by_key(|&i| seen[i]);
        let mut rank = vec![0u32; seen.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r as u32;
        }
        for t in &mut of_event {
            *t = rank[*t as usize];
        }
        let sorted: Vec<(u32, Track)> = order.iter().map(|&i| seen[i]).collect();
        let fields = sorted
            .iter()
            .enumerate()
            .map(|(r, &(thread, _))| pid_tid(thread, r as u64 + 1))
            .collect();
        Tracks {
            sorted,
            fields,
            of_event,
        }
    }
}

/// The `,"pid":…,"tid":…` fields of one record.
fn pid_tid(pid: u32, tid: u64) -> String {
    let mut out = String::with_capacity(32);
    out.push_str(",\"pid\":");
    push_dec(&mut out, u64::from(pid));
    out.push_str(",\"tid\":");
    push_dec(&mut out, tid);
    out
}

/// Output bytes reserved per event. A `pc` slice, the longest common
/// record, is about 100 bytes and the mean is nearer 70, so the output
/// string is sized once.
const BYTES_PER_EVENT: usize = 104;

struct Emitter {
    out: String,
    first: bool,
}

impl Emitter {
    fn with_capacity(bytes: usize) -> Self {
        let mut out = String::with_capacity(bytes);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        Self { out, first: true }
    }

    /// Starts one trace-event object up to the open `name` string; the
    /// caller appends the name (plain ASCII, or escaped) and then calls
    /// [`Emitter::head`].
    fn begin(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str("{\"name\":\"");
        &mut self.out
    }

    /// Closes the name and writes the phase, timestamp and the track's
    /// pre-rendered `pid`/`tid` fields; the caller appends extra fields
    /// and the closing brace.
    fn head(&mut self, ph: &str, ts: u64, pid_tid: &str) -> &mut String {
        self.out.push_str("\",\"ph\":\"");
        self.out.push_str(ph);
        self.out.push_str("\",\"ts\":");
        push_dec(&mut self.out, ts);
        self.out.push_str(pid_tid);
        &mut self.out
    }

    /// Writes one `ph:"M"` record naming a process or a track row.
    fn metadata(&mut self, record: &str, pid_tid: &str, name: &str) {
        self.begin().push_str(record);
        let out = self.head("M", 0, pid_tid);
        out.push_str(",\"args\":{\"name\":\"");
        json::escape_into(out, name);
        out.push_str("\"}}");
    }

    /// Writes one record per exported event. The names are built from
    /// static ASCII and integers, so they need no escaping.
    fn events(&mut self, events: &[Event], tracks: &Tracks) {
        for (e, &track) in events.iter().zip(&tracks.of_event) {
            let fields = &tracks.fields[track as usize];
            match e.kind {
                EventKind::PeRetire { pc, start, finish } => {
                    let name = self.begin();
                    name.push_str("pc ");
                    push_hex(name, u64::from(pc));
                    let out = self.head("X", start, fields);
                    out.push_str(",\"dur\":");
                    push_dec(out, finish.saturating_sub(start).max(1));
                    out.push_str(",\"args\":{\"commit\":");
                    push_dec(out, e.cycle);
                    out.push_str(",\"pc\":");
                    push_dec(out, u64::from(pc));
                    out.push_str("}}");
                }
                EventKind::StallEnd { cause, cycles } => {
                    if cycles == 0 {
                        continue;
                    }
                    let name = self.begin();
                    name.push_str("stall:");
                    name.push_str(cause.name());
                    let out = self.head("X", e.cycle.saturating_sub(cycles), fields);
                    out.push_str(",\"dur\":");
                    push_dec(out, cycles);
                    out.push_str(",\"cname\":\"terrible\"}");
                }
                // Begin markers carry no information the matching End lacks.
                EventKind::StallBegin { .. } => {}
                EventKind::LsuEnqueue { id, write, .. } => {
                    self.begin().push_str(if write { "store" } else { "load" });
                    let out = self.head("b", e.cycle, fields);
                    out.push_str(",\"cat\":\"mem\",\"id\":");
                    push_dec(out, id);
                    out.push('}');
                }
                EventKind::LsuComplete { id } => {
                    self.begin().push_str("load");
                    let out = self.head("e", e.cycle, fields);
                    out.push_str(",\"cat\":\"mem\",\"id\":");
                    push_dec(out, id);
                    out.push('}');
                }
                EventKind::SegOccupancy { segment, occupancy } => {
                    let name = self.begin();
                    name.push_str("seg");
                    push_dec(name, u64::from(segment));
                    name.push_str(" occupancy");
                    let out = self.head("C", e.cycle, fields);
                    out.push_str(",\"args\":{\"in_flight\":");
                    push_dec(out, u64::from(occupancy));
                    out.push_str("}}");
                }
                _ => {
                    self.begin().push_str(e.kind.name());
                    self.head("i", e.cycle, fields).push_str(",\"s\":\"t\"}");
                }
            }
        }
    }

    fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

/// Exports `events` as a Chrome trace-event JSON document.
pub fn export(events: &[Event]) -> String {
    let tracks = Tracks::new(events);
    let mut em = Emitter::with_capacity(
        64 + events.len() * BYTES_PER_EVENT + tracks.sorted.len() * 2 * BYTES_PER_EVENT,
    );

    // Metadata: name every track row and every process (hardware thread).
    // Keys are sorted by thread first, so each process is named right
    // before its first track.
    let mut name = String::new();
    for (i, &(thread, track)) in tracks.sorted.iter().enumerate() {
        if i == 0 || tracks.sorted[i - 1].0 != thread {
            name.clear();
            name.push_str("hw thread ");
            push_dec(&mut name, u64::from(thread));
            em.metadata("process_name", &pid_tid(thread, 0), &name);
        }
        name.clear();
        track.write_name(&mut name);
        em.metadata("thread_name", &tracks.fields[i], &name);
    }
    em.events(events, &tracks);
    em.finish()
}

/// Summary statistics returned by a successful
/// [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total trace-event records.
    pub events: usize,
    /// Complete (`ph:"X"`) slices.
    pub slices: usize,
    /// Instant (`ph:"i"`) events.
    pub instants: usize,
    /// Counter (`ph:"C"`) samples.
    pub counters: usize,
    /// Async begin/end (`ph:"b"`/`ph:"e"`) pairs seen (begins).
    pub async_begins: usize,
    /// Metadata (`ph:"M"`) records.
    pub metadata: usize,
}

/// Structurally validates a Chrome trace-event JSON document: a
/// `traceEvents` array whose members carry the mandatory `name`/`ph`/
/// `ts`/`pid`/`tid` fields with the right types, `dur` on complete
/// slices, and `id` on async events. Returns counts per phase type.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_obj()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing ph"))?;
        obj.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing name"))?;
        for key in ["ts", "pid", "tid"] {
            let n = obj
                .get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("traceEvents[{i}] missing numeric {key}"))?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!(
                    "traceEvents[{i}].{key} is not a non-negative integer"
                ));
            }
        }
        match ph {
            "X" => {
                summary.slices += 1;
                let dur = obj
                    .get("dur")
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("traceEvents[{i}] X slice missing dur"))?;
                if dur < 0.0 {
                    return Err(format!("traceEvents[{i}] negative dur"));
                }
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            "b" | "e" => {
                if ph == "b" {
                    summary.async_begins += 1;
                }
                obj.get("id")
                    .ok_or_else(|| format!("traceEvents[{i}] async event missing id"))?;
            }
            "M" => summary.metadata += 1,
            other => return Err(format!("traceEvents[{i}] unknown ph {other:?}")),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallCause;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 12,
                thread: 0,
                track: Track::Pe {
                    cluster: 0,
                    slot: 1,
                },
                kind: EventKind::PeRetire {
                    pc: 0x10,
                    start: 4,
                    finish: 9,
                },
            },
            Event {
                cycle: 5,
                thread: 0,
                track: Track::Lsu(0),
                kind: EventKind::LsuEnqueue {
                    id: 1,
                    write: false,
                    wait: 0,
                    occupancy: 1,
                },
            },
            Event {
                cycle: 30,
                thread: 0,
                track: Track::Lsu(0),
                kind: EventKind::LsuComplete { id: 1 },
            },
            Event {
                cycle: 30,
                thread: 0,
                track: Track::Control,
                kind: EventKind::StallEnd {
                    cause: StallCause::Memory,
                    cycles: 25,
                },
            },
            Event {
                cycle: 8,
                thread: 1,
                track: Track::Lane(3),
                kind: EventKind::SegOccupancy {
                    segment: 1,
                    occupancy: 2,
                },
            },
            Event {
                cycle: 2,
                thread: 0,
                track: Track::Control,
                kind: EventKind::BranchRedirect {
                    from_pc: 0x20,
                    to_pc: 0x0,
                    backward: true,
                },
            },
        ]
    }

    #[test]
    fn export_validates() {
        let text = export(&sample_events());
        let summary = validate_chrome_trace(&text).expect("export must be valid");
        assert_eq!(summary.slices, 2); // retire slice + stall slice
        assert_eq!(summary.async_begins, 1);
        assert_eq!(summary.counters, 1);
        assert!(summary.metadata >= 4); // ≥2 processes + ≥4 tracks named
        assert!(summary.instants >= 1);
    }

    #[test]
    fn export_is_deterministic() {
        let events = sample_events();
        assert_eq!(export(&events), export(&events));
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = export(&[]);
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.events, 0);
    }

    #[test]
    fn track_names_are_escaped() {
        let hostile = "ctl\u{1}\u{1f}\t\n\r \"q\" \\ é — 世界";
        let events = sample_events();
        let mut em = Emitter::with_capacity(0);
        em.metadata("thread_name", &pid_tid(0, 1), hostile);
        em.events(&events, &Tracks::new(&events));
        let text = em.finish();
        let summary = validate_chrome_trace(&text).expect("escaped export must be valid");
        assert_eq!(summary.metadata, 1);
        let doc = json::parse(&text).expect("parses");
        let first = &doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events")[0];
        let name = first.get("args").and_then(|a| a.get("name"));
        assert_eq!(name.and_then(Value::as_str), Some(hostile));
    }

    #[test]
    fn track_ids_follow_sorted_key_order() {
        // First seen: thread 1 before thread 0, Lsu before Pe.
        let mut events = sample_events();
        events.reverse();
        let text = export(&events);
        let doc = json::parse(&text).expect("parses");
        let names: Vec<(f64, f64, String)> = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events")
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .map(|e| {
                let num = |k| e.get(k).and_then(Value::as_num).expect("numeric");
                let name = e.get("args").and_then(|a| a.get("name"));
                (
                    num("pid"),
                    num("tid"),
                    name.and_then(Value::as_str).expect("name").to_string(),
                )
            })
            .collect();
        let expected = [
            (0.0, 1.0, "pe:0.1"),
            (0.0, 2.0, "lsu:0"),
            (0.0, 3.0, "ctrl"),
            (1.0, 4.0, "lane:3"),
        ];
        assert_eq!(names.len(), expected.len());
        for ((pid, tid, name), (epid, etid, ename)) in names.iter().zip(expected) {
            assert_eq!((*pid, *tid, name.as_str()), (epid, etid, ename));
        }
    }

    #[test]
    fn validator_rejects_missing_fields() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Z\",\"ts\":0,\"pid\":0,\"tid\":0}]}"
        )
        .is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":0}]}"
        )
        .is_err()); // X without dur
    }
}
