//! The typed trace-event vocabulary.
//!
//! Every observable micro-architectural happening is an [`Event`]: a
//! cycle, the hardware thread it belongs to, the component [`Track`] it
//! occurred on, and a typed [`EventKind`] payload. The vocabulary covers
//! the component granularity of the paper's evaluation (§7.3): PEs,
//! register lanes and their buffered segments, cluster LSUs, caches, the
//! shared 512-bit bus, and the control unit.

use std::fmt;

use crate::json::push_dec;

/// Why an instruction (or a whole pipeline) could not make progress in a
/// given cycle. Matches the paper's stall attribution (§7.3.2): only the
/// *source* of a stall is counted, not dependent instructions subsequently
/// stalled.
///
/// Defined here (the bottom of the workspace dependency graph) so trace
/// events and `diag_sim::StallBreakdown` share one taxonomy; `diag-sim`
/// re-exports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Cache misses, full LSU queues, busy memory bus.
    Memory,
    /// Branch redirects, instruction-line reloads after control flow
    /// changes.
    Control,
    /// Structural hazards: shared bus busy, no free cluster, no free
    /// functional unit, full ROB/IQ.
    Structural,
}

impl StallCause {
    /// All causes, in the paper's reporting order (memory, control,
    /// structural/other).
    pub const ALL: [StallCause; 3] = [
        StallCause::Memory,
        StallCause::Control,
        StallCause::Structural,
    ];

    /// Stable lowercase name used in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Memory => "memory",
            StallCause::Control => "control",
            StallCause::Structural => "structural",
        }
    }

    /// Index into per-cause arrays (`ALL[cause.index()] == cause`).
    pub fn index(self) -> usize {
        match self {
            StallCause::Memory => 0,
            StallCause::Control => 1,
            StallCause::Structural => 2,
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The hardware component a trace event belongs to. Exporters render one
/// timeline track per distinct `(thread, Track)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Track {
    /// One processing element: `cluster` within the ring, `slot` within
    /// the cluster.
    Pe {
        /// Cluster index within the ring.
        cluster: u32,
        /// PE slot within the cluster.
        slot: u32,
    },
    /// One architectural register lane (index into the 64-lane file).
    Lane(u8),
    /// One processing cluster (line residency, fetch events).
    Cluster(u32),
    /// One cluster-level load/store unit.
    Lsu(u32),
    /// The shared 512-bit bus.
    Bus,
    /// A cache level (1 = L1D, 2 = L2).
    Cache(u8),
    /// The central control unit (redirects, SIMT scheduling, stalls
    /// without a narrower home).
    Control,
    /// A conventional core of a baseline machine.
    Core(u32),
}

impl Track {
    /// Appends the track's stable name (`pe:2.5`, `lane:31`, `cache:L2`,
    /// `ctrl`, ...) to `out`. The name is plain ASCII and needs no JSON
    /// escaping.
    pub(crate) fn write_name(self, out: &mut String) {
        match self {
            Track::Pe { cluster, slot } => {
                num(out, "pe:", cluster);
                num(out, ".", slot);
            }
            Track::Lane(n) => num(out, "lane:", n),
            Track::Cluster(n) => num(out, "cluster:", n),
            Track::Lsu(n) => num(out, "lsu:", n),
            Track::Bus => out.push_str("bus"),
            Track::Cache(level) => num(out, "cache:L", level),
            Track::Control => out.push_str("ctrl"),
            Track::Core(n) => num(out, "core:", n),
        }
    }
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut name = String::with_capacity(16);
        self.write_name(&mut name);
        f.write_str(&name)
    }
}

/// Typed payload of one trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A PE accepted a dynamic instruction (start of execution).
    PeIssue {
        /// Instruction address.
        pc: u32,
        /// Whether it executed from the resident datapath (no
        /// fetch/decode — paper §4.3.2 reuse).
        reused: bool,
    },
    /// The PC lane retired a dynamic instruction. `cycle` is the commit
    /// time; `start`/`finish` bound its execution interval.
    PeRetire {
        /// Instruction address.
        pc: u32,
        /// Cycle execution began.
        start: u64,
        /// Cycle the result was available.
        finish: u64,
    },
    /// A PE drove a register lane with a new value.
    LaneWrite {
        /// Lane index (0..64).
        lane: u8,
    },
    /// A lane value was transported across buffered segments to a
    /// consumer (paper §6.1.2).
    LaneForward {
        /// Lane index.
        lane: u8,
        /// Global PE slot of the writer.
        from_slot: u32,
        /// Global PE slot of the consumer.
        to_slot: u32,
        /// Segment-boundary crossings charged (cycles of transport).
        hops: u32,
    },
    /// A value entered a lane-buffer segment.
    SegPush {
        /// Lane index.
        lane: u8,
        /// Segment index within the ring.
        segment: u32,
    },
    /// A value left a lane-buffer segment at its consumer.
    SegPop {
        /// Lane index.
        lane: u8,
        /// Segment index within the ring.
        segment: u32,
    },
    /// In-flight occupancy of a lane-buffer segment after a push.
    SegOccupancy {
        /// Segment index within the ring.
        segment: u32,
        /// Transports currently traversing the segment.
        occupancy: u32,
    },
    /// A cluster LSU accepted a memory request.
    LsuEnqueue {
        /// Request serial number (unique per LSU).
        id: u64,
        /// Whether the request is a store.
        write: bool,
        /// Cycles the requester waited for queue room (a memory stall).
        wait: u64,
        /// Requests in flight after acceptance.
        occupancy: u32,
    },
    /// An LSU request's data returned (loads) / globally performed
    /// (stores).
    LsuComplete {
        /// Serial number of the completed request.
        id: u64,
    },
    /// A data-cache lookup.
    CacheAccess {
        /// Cache level (1 = L1D, 2 = L2).
        level: u8,
        /// Whether the access was a store.
        write: bool,
        /// Whether the level hit.
        hit: bool,
    },
    /// The shared 512-bit bus granted a transfer.
    BusGrant {
        /// Cycles the requester waited for the bus (structural stall).
        wait: u64,
        /// Beats transferred.
        beats: u64,
    },
    /// An instruction line was made resident in a cluster.
    LineFetch {
        /// Line base address.
        line: u32,
        /// Whether the scheduling table had prefetched it (§5.1.3).
        prefetched: bool,
    },
    /// A taken control transfer redirected the PC lane.
    BranchRedirect {
        /// Address of the transferring instruction.
        from_pc: u32,
        /// Target address.
        to_pc: u32,
        /// Whether the target is at or before the source (loop branch).
        backward: bool,
    },
    /// A SIMT loop instance was initiated into the pipelined region
    /// (paper §4.4: thread-advance).
    SimtSpawn {
        /// Instance number within the region execution (0-based).
        instance: u64,
        /// Control-register value carried by the instance.
        rc: u32,
    },
    /// A whole SIMT region completed pipelined execution.
    SimtRegion {
        /// Address of the `simt_s` marker.
        pc_s: u32,
        /// Address of the `simt_e` marker.
        pc_e: u32,
        /// Loop instances pipelined through the region.
        instances: u64,
    },
    /// A hardware thread started on this component.
    ThreadStart,
    /// A hardware thread halted (`ecall`).
    ThreadHalt,
    /// A stall interval began. Paired with a [`EventKind::StallEnd`] of
    /// the same cause on the same track.
    StallBegin {
        /// Attributed cause.
        cause: StallCause,
    },
    /// A stall interval ended; `cycle - cycles` is its begin time. The
    /// per-cause sum of `cycles` over a run reconciles exactly with the
    /// run's `StallBreakdown`.
    StallEnd {
        /// Attributed cause.
        cause: StallCause,
        /// Length of the interval in cycles.
        cycles: u64,
    },
}

impl EventKind {
    /// Stable lowercase name used in exported traces.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PeIssue { .. } => "pe_issue",
            EventKind::PeRetire { .. } => "pe_retire",
            EventKind::LaneWrite { .. } => "lane_write",
            EventKind::LaneForward { .. } => "lane_forward",
            EventKind::SegPush { .. } => "seg_push",
            EventKind::SegPop { .. } => "seg_pop",
            EventKind::SegOccupancy { .. } => "seg_occupancy",
            EventKind::LsuEnqueue { .. } => "lsu_enqueue",
            EventKind::LsuComplete { .. } => "lsu_complete",
            EventKind::CacheAccess { .. } => "cache_access",
            EventKind::BusGrant { .. } => "bus_grant",
            EventKind::LineFetch { .. } => "line_fetch",
            EventKind::BranchRedirect { .. } => "branch_redirect",
            EventKind::SimtSpawn { .. } => "simt_spawn",
            EventKind::SimtRegion { .. } => "simt_region",
            EventKind::ThreadStart => "thread_start",
            EventKind::ThreadHalt => "thread_halt",
            EventKind::StallBegin { .. } => "stall_begin",
            EventKind::StallEnd { .. } => "stall_end",
        }
    }
}

/// One cycle-level trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Cycle the event occurred (machine clock of the emitting model).
    pub cycle: u64,
    /// Hardware thread the event belongs to.
    pub thread: u32,
    /// Component the event occurred on.
    pub track: Track,
    /// Typed payload.
    pub kind: EventKind,
}

impl Event {
    /// Appends the event's canonical JSONL encoding (one compact JSON
    /// object, no trailing newline) to `out`.
    ///
    /// The encoding is byte-deterministic: fixed key order, no floats, no
    /// whitespace — two identical runs of a deterministic machine produce
    /// byte-identical streams.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"c\":");
        push_dec(out, self.cycle);
        num(out, ",\"t\":", self.thread);
        out.push_str(",\"on\":\"");
        self.track.write_name(out);
        out.push_str("\",\"k\":\"");
        out.push_str(self.kind.name());
        out.push('"');
        match self.kind {
            EventKind::PeIssue { pc, reused } => {
                num(out, ",\"pc\":", pc);
                flag(out, ",\"reused\":", reused);
            }
            EventKind::PeRetire { pc, start, finish } => {
                num(out, ",\"pc\":", pc);
                num(out, ",\"start\":", start);
                num(out, ",\"finish\":", finish);
            }
            EventKind::LaneWrite { lane } => num(out, ",\"lane\":", lane),
            EventKind::LaneForward {
                lane,
                from_slot,
                to_slot,
                hops,
            } => {
                num(out, ",\"lane\":", lane);
                num(out, ",\"from\":", from_slot);
                num(out, ",\"to\":", to_slot);
                num(out, ",\"hops\":", hops);
            }
            EventKind::SegPush { lane, segment } | EventKind::SegPop { lane, segment } => {
                num(out, ",\"lane\":", lane);
                num(out, ",\"seg\":", segment);
            }
            EventKind::SegOccupancy { segment, occupancy } => {
                num(out, ",\"seg\":", segment);
                num(out, ",\"occ\":", occupancy);
            }
            EventKind::LsuEnqueue {
                id,
                write,
                wait,
                occupancy,
            } => {
                num(out, ",\"id\":", id);
                flag(out, ",\"write\":", write);
                num(out, ",\"wait\":", wait);
                num(out, ",\"occ\":", occupancy);
            }
            EventKind::LsuComplete { id } => num(out, ",\"id\":", id),
            EventKind::CacheAccess { level, write, hit } => {
                num(out, ",\"level\":", level);
                flag(out, ",\"write\":", write);
                flag(out, ",\"hit\":", hit);
            }
            EventKind::BusGrant { wait, beats } => {
                num(out, ",\"wait\":", wait);
                num(out, ",\"beats\":", beats);
            }
            EventKind::LineFetch { line, prefetched } => {
                num(out, ",\"line\":", line);
                flag(out, ",\"prefetched\":", prefetched);
            }
            EventKind::BranchRedirect {
                from_pc,
                to_pc,
                backward,
            } => {
                num(out, ",\"from\":", from_pc);
                num(out, ",\"to\":", to_pc);
                flag(out, ",\"backward\":", backward);
            }
            EventKind::SimtSpawn { instance, rc } => {
                num(out, ",\"instance\":", instance);
                num(out, ",\"rc\":", rc);
            }
            EventKind::SimtRegion {
                pc_s,
                pc_e,
                instances,
            } => {
                num(out, ",\"pc_s\":", pc_s);
                num(out, ",\"pc_e\":", pc_e);
                num(out, ",\"instances\":", instances);
            }
            EventKind::ThreadStart | EventKind::ThreadHalt => {}
            EventKind::StallBegin { cause } => cause_field(out, cause),
            EventKind::StallEnd { cause, cycles } => {
                cause_field(out, cause);
                num(out, ",\"cycles\":", cycles);
            }
        }
        out.push('}');
    }

    /// The event's canonical JSONL line (without trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_jsonl(&mut s);
        s
    }
}

/// Appends `prefix` (such as a `,"name":` key) and `v` in decimal.
fn num(out: &mut String, prefix: &str, v: impl Into<u64>) {
    out.push_str(prefix);
    push_dec(out, v.into());
}

/// Appends `key` (a `,"name":` prefix) and `true` or `false`.
fn flag(out: &mut String, key: &str, v: bool) {
    out.push_str(key);
    out.push_str(if v { "true" } else { "false" });
}

/// Appends the `,"cause":"…"` field.
fn cause_field(out: &mut String, cause: StallCause) {
    out.push_str(",\"cause\":\"");
    out.push_str(cause.name());
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_round_trip() {
        for cause in StallCause::ALL {
            assert_eq!(StallCause::ALL[cause.index()], cause);
            assert!(!cause.name().is_empty());
        }
    }

    #[test]
    fn track_display_is_stable() {
        assert_eq!(
            Track::Pe {
                cluster: 2,
                slot: 5
            }
            .to_string(),
            "pe:2.5"
        );
        assert_eq!(Track::Lane(31).to_string(), "lane:31");
        assert_eq!(Track::Cache(2).to_string(), "cache:L2");
        assert_eq!(Track::Bus.to_string(), "bus");
        assert_eq!(Track::Control.to_string(), "ctrl");
    }

    #[test]
    fn jsonl_encoding_is_compact_and_typed() {
        let e = Event {
            cycle: 7,
            thread: 1,
            track: Track::Lsu(0),
            kind: EventKind::LsuEnqueue {
                id: 3,
                write: true,
                wait: 0,
                occupancy: 2,
            },
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"c\":7,\"t\":1,\"on\":\"lsu:0\",\"k\":\"lsu_enqueue\",\
             \"id\":3,\"write\":true,\"wait\":0,\"occ\":2}"
        );
    }

    #[test]
    fn every_kind_serializes_to_valid_json() {
        let kinds = [
            EventKind::PeIssue {
                pc: 4,
                reused: true,
            },
            EventKind::PeRetire {
                pc: 4,
                start: 1,
                finish: 2,
            },
            EventKind::LaneWrite { lane: 5 },
            EventKind::LaneForward {
                lane: 5,
                from_slot: 0,
                to_slot: 9,
                hops: 1,
            },
            EventKind::SegPush {
                lane: 1,
                segment: 0,
            },
            EventKind::SegPop {
                lane: 1,
                segment: 1,
            },
            EventKind::SegOccupancy {
                segment: 1,
                occupancy: 2,
            },
            EventKind::LsuEnqueue {
                id: 1,
                write: false,
                wait: 2,
                occupancy: 1,
            },
            EventKind::LsuComplete { id: 1 },
            EventKind::CacheAccess {
                level: 1,
                write: false,
                hit: true,
            },
            EventKind::BusGrant { wait: 1, beats: 2 },
            EventKind::LineFetch {
                line: 64,
                prefetched: false,
            },
            EventKind::BranchRedirect {
                from_pc: 8,
                to_pc: 0,
                backward: true,
            },
            EventKind::SimtSpawn { instance: 0, rc: 0 },
            EventKind::SimtRegion {
                pc_s: 0,
                pc_e: 32,
                instances: 8,
            },
            EventKind::ThreadStart,
            EventKind::ThreadHalt,
            EventKind::StallBegin {
                cause: StallCause::Memory,
            },
            EventKind::StallEnd {
                cause: StallCause::Memory,
                cycles: 4,
            },
        ];
        for kind in kinds {
            let e = Event {
                cycle: 0,
                thread: 0,
                track: Track::Control,
                kind,
            };
            let line = e.to_jsonl();
            crate::json::parse(&line)
                .unwrap_or_else(|err| panic!("{}: {err} in {line}", kind.name()));
        }
    }
}
