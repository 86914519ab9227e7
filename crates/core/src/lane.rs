//! Register lanes: value, validity time, and writer position per
//! architectural register, plus the PC-lane commit tracker.
//!
//! A register lane (paper §2, §4.1) carries one architectural register's
//! value and valid bit through the row of PEs. In this cycle-level model a
//! lane is `(value, ready_time, writer_slot)`: the *value* for functional
//! execution, the *time* the valid bit rises at the writer, and the
//! writer's global PE slot so consumers can add the propagation delay of
//! the lane buffers between writer and reader (§6.1.2: a register buffer
//! every 8 PEs and one between clusters).

use diag_isa::{ArchReg, NUM_LANES};

/// Geometry needed to compute lane propagation delays within a ring.
///
/// The segment count and every slot's segment are computed once, when the
/// ring is built, so the per-operand delay on the hot path is a table
/// lookup and a compare rather than a chain of divisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneGeometry {
    /// Total PE slots in the ring (clusters × PEs per cluster).
    ring_slots: usize,
    /// Total buffered segments around the ring.
    segments: usize,
    /// Lane-buffer segment of each slot below `ring_slots`.
    segment: Box<[usize]>,
}

impl LaneGeometry {
    /// Geometry of a ring of `ring_slots` PE slots whose register lanes
    /// are buffered every `buffer_interval` PEs (paper: 8).
    pub fn new(buffer_interval: usize, ring_slots: usize) -> LaneGeometry {
        LaneGeometry {
            ring_slots,
            segments: ring_slots.div_ceil(buffer_interval),
            segment: (0..ring_slots).map(|s| s / buffer_interval).collect(),
        }
    }

    /// Total PE slots in the ring.
    pub fn ring_slots(&self) -> usize {
        self.ring_slots
    }

    /// Total buffered segments around the ring.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// `slot` folded into the ring. Every slot the engine computes is
    /// already inside it; the modulo is a fallback for callers that
    /// count stage slots past the last cluster.
    #[inline]
    fn wrap(&self, slot: usize) -> usize {
        if slot < self.ring_slots {
            slot
        } else {
            slot % self.ring_slots
        }
    }

    /// Lane-buffer segment containing global PE `slot` (used by the trace
    /// subsystem to attribute segment-buffer traffic).
    pub fn segment_of(&self, slot: usize) -> usize {
        self.segment[self.wrap(slot)]
    }

    /// Cycles for a cross-cluster register transfer over the shared
    /// 512-bit bus, including arbitration (paper §5.1.3: "in two cycles",
    /// plus one to arbitrate). Lane transports never cost more than this:
    /// the central control unit routes distant transfers over the bus
    /// rather than rippling them through every lane buffer.
    pub const BUS_SHORTCUT: u64 = 2;

    /// Propagation delay in cycles from a value produced at `writer` slot
    /// to a consumer at `reader` slot: one cycle per lane-buffer boundary
    /// crossed walking forward around the ring, capped at
    /// [`LaneGeometry::BUS_SHORTCUT`] for distant or wrapping transfers.
    /// Values consumed within the writer's own segment forward
    /// combinationally.
    #[inline]
    pub fn delay(&self, writer: usize, reader: usize) -> u64 {
        let writer = self.wrap(writer);
        let reader = self.wrap(reader);
        let sw = self.segment[writer];
        let sr = self.segment[reader];
        let walk = if sr > sw {
            sr - sw
        } else if sr < sw {
            sr + self.segments - sw
        } else if reader >= writer {
            0
        } else {
            // Same segment but the reader is behind: a full circle.
            self.segments
        };
        (walk as u64).min(Self::BUS_SHORTCUT)
    }
}

/// The full set of 64 register lanes for one hardware thread.
#[derive(Debug, Clone)]
pub struct LaneFile {
    values: [u32; NUM_LANES],
    ready: [u64; NUM_LANES],
    writer: [usize; NUM_LANES],
}

impl LaneFile {
    /// Creates lanes that are all valid at time zero with value zero,
    /// written at slot 0.
    pub fn new() -> LaneFile {
        LaneFile {
            values: [0; NUM_LANES],
            ready: [0; NUM_LANES],
            writer: [0; NUM_LANES],
        }
    }

    /// Architectural value of a lane (the `x0` lane always reads zero).
    pub fn value(&self, lane: ArchReg) -> u32 {
        if lane.is_zero() {
            0
        } else {
            self.values[lane.index()]
        }
    }

    /// Sets a lane's architectural value without touching timing (used for
    /// thread initialization).
    pub fn set_value(&mut self, lane: ArchReg, value: u32) {
        if !lane.is_zero() {
            self.values[lane.index()] = value;
        }
    }

    /// Time at which a consumer at `reader` slot observes the lane valid,
    /// including lane-buffer propagation from the writer.
    #[inline]
    pub fn ready_at(&self, lane: ArchReg, reader: usize, geom: &LaneGeometry) -> u64 {
        if lane.is_zero() {
            return 0;
        }
        let i = lane.index();
        self.ready[i] + geom.delay(self.writer[i], reader)
    }

    /// Raw validity time at the writer (no propagation).
    pub fn raw_ready(&self, lane: ArchReg) -> u64 {
        if lane.is_zero() {
            0
        } else {
            self.ready[lane.index()]
        }
    }

    /// Global PE slot of the lane's most recent writer (slot 0 for
    /// never-written lanes and the `x0` lane).
    pub fn writer_of(&self, lane: ArchReg) -> usize {
        if lane.is_zero() {
            0
        } else {
            self.writer[lane.index()]
        }
    }

    /// Drives a lane from a PE: sets value, validity time, and writer slot.
    /// Writes to the `x0` lane are discarded.
    pub fn write(&mut self, lane: ArchReg, value: u32, time: u64, slot: usize) {
        if lane.is_zero() {
            return;
        }
        let i = lane.index();
        self.values[i] = value;
        self.ready[i] = time;
        self.writer[i] = slot;
    }

    /// Re-times every lane to `time` at `slot` (used at thread start and
    /// after a register-file transfer over the shared bus, §5.1.3).
    pub fn retime_all(&mut self, time: u64, slot: usize) {
        for i in 1..NUM_LANES {
            self.ready[i] = time;
            self.writer[i] = slot;
        }
    }

    /// The latest raw validity time across all lanes (pipeline-drain time).
    pub fn latest_ready(&self) -> u64 {
        self.ready.iter().copied().max().unwrap_or(0)
    }
}

impl Default for LaneFile {
    fn default() -> LaneFile {
        LaneFile::new()
    }
}

/// In-order retirement through the PC lane (paper §5.1.4: "the PC lane
/// essentially retires instructions in-order like a reorder buffer"), with
/// bounded retirement bandwidth per cycle.
#[derive(Debug, Clone)]
pub struct CommitTracker {
    width: usize,
    last_time: u64,
    at_last: usize,
    committed: u64,
}

impl CommitTracker {
    /// Creates a tracker retiring at most `width` instructions per cycle.
    pub fn new(width: usize) -> CommitTracker {
        CommitTracker {
            width,
            last_time: 0,
            at_last: 0,
            committed: 0,
        }
    }

    /// Retires an instruction that finished execution at `finish`; returns
    /// its commit time (≥ finish, ≥ all previous commits).
    pub fn commit(&mut self, finish: u64) -> u64 {
        let mut t = finish.max(self.last_time);
        if t == self.last_time && self.at_last >= self.width {
            t += 1;
        }
        if t > self.last_time {
            self.last_time = t;
            self.at_last = 0;
        }
        self.at_last += 1;
        self.committed += 1;
        t
    }

    /// Total retired instructions.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Time of the most recent retirement.
    pub fn last_commit(&self) -> u64 {
        self.last_time
    }

    /// Fast-forwards the tracker to at least `time` (used when a SIMT
    /// region retires as a block).
    pub fn advance_to(&mut self, time: u64) {
        if time > self.last_time {
            self.last_time = time;
            self.at_last = 0;
        }
    }

    /// Adds `count` retirements accounted inside a SIMT region.
    pub fn add_bulk(&mut self, count: u64) {
        self.committed += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_isa::{regs, ArchReg};

    fn geom() -> LaneGeometry {
        LaneGeometry::new(8, 32)
    }

    #[test]
    fn same_segment_is_combinational() {
        assert_eq!(geom().delay(0, 7), 0);
        assert_eq!(geom().delay(3, 3), 0);
        assert_eq!(geom().delay(8, 15), 0);
    }

    #[test]
    fn each_boundary_costs_one() {
        assert_eq!(geom().delay(0, 8), 1); // mid-cluster buffer
        assert_eq!(geom().delay(0, 16), 2); // into next cluster
        assert_eq!(geom().delay(7, 31), LaneGeometry::BUS_SHORTCUT); // capped
    }

    #[test]
    fn wrap_around_uses_circular_connection() {
        // Writer in last segment, reader in first: one boundary (the
        // circular cluster connection).
        assert_eq!(geom().delay(31, 0), 1);
        // Same segment, reader behind writer: a full circle, but never
        // worse than the 512-bit bus shortcut.
        assert_eq!(geom().delay(5, 2), LaneGeometry::BUS_SHORTCUT);
    }

    #[test]
    fn long_transfers_capped_by_bus() {
        let big = LaneGeometry::new(8, 512);
        // 32 clusters apart would be 62 buffer crossings on the lanes;
        // the control unit routes it over the bus instead (§5.1.3).
        assert_eq!(big.delay(0, 500), LaneGeometry::BUS_SHORTCUT);
        assert_eq!(big.delay(500, 4), 2); // short wrap uses the circular link
                                          // Short hops still use the lanes.
        assert_eq!(big.delay(0, 9), 1);
    }

    /// The lane-delay rule as first written, one division per step: the
    /// oracle the precomputed geometry must agree with.
    fn oracle_delay(
        buffer_interval: usize,
        ring_slots: usize,
        writer: usize,
        reader: usize,
    ) -> u64 {
        let segment_of = |slot: usize| (slot % ring_slots) / buffer_interval;
        let sw = segment_of(writer);
        let sr = segment_of(reader);
        let segs = ring_slots.div_ceil(buffer_interval);
        let walk = if sw == sr {
            if reader % ring_slots >= writer % ring_slots {
                0
            } else {
                segs as u64
            }
        } else {
            ((sr + segs - sw) % segs) as u64
        };
        walk.min(LaneGeometry::BUS_SHORTCUT)
    }

    #[test]
    fn delay_matches_the_division_oracle_everywhere() {
        const PES: usize = 16;
        for interval in [1, 2, 4, 8, 16] {
            for clusters in 1..=32 {
                let ring_slots = clusters * PES;
                let g = LaneGeometry::new(interval, ring_slots);
                assert_eq!(g.segments(), ring_slots / interval);
                // One cluster past the ring exercises the modulo fallback
                // for stage slots beyond it.
                for writer in 0..ring_slots + PES {
                    for reader in 0..ring_slots + PES {
                        assert_eq!(
                            g.delay(writer, reader),
                            oracle_delay(interval, ring_slots, writer, reader),
                            "interval {interval}, {clusters} clusters, {writer} -> {reader}"
                        );
                    }
                    assert_eq!(g.segment_of(writer), (writer % ring_slots) / interval);
                }
            }
        }
    }

    #[test]
    fn lane_write_and_read() {
        let mut lanes = LaneFile::new();
        let a0 = ArchReg::from(regs::A0);
        lanes.write(a0, 42, 10, 4);
        assert_eq!(lanes.value(a0), 42);
        assert_eq!(lanes.ready_at(a0, 5, &geom()), 10); // same segment
        assert_eq!(lanes.ready_at(a0, 9, &geom()), 11); // one buffer
        assert_eq!(lanes.ready_at(a0, 20, &geom()), 12);
    }

    #[test]
    fn zero_lane_immutable() {
        let mut lanes = LaneFile::new();
        let zero = ArchReg::from(regs::ZERO);
        lanes.write(zero, 99, 50, 3);
        assert_eq!(lanes.value(zero), 0);
        assert_eq!(lanes.ready_at(zero, 31, &geom()), 0);
    }

    #[test]
    fn fp_lanes_are_independent() {
        let mut lanes = LaneFile::new();
        lanes.write(ArchReg::from(regs::FA0), 7, 3, 0);
        assert_eq!(lanes.value(ArchReg::from(regs::A0)), 0);
        assert_eq!(lanes.value(ArchReg::from(regs::FA0)), 7);
    }

    #[test]
    fn retime_all_moves_every_lane() {
        let mut lanes = LaneFile::new();
        lanes.write(ArchReg::from(regs::A0), 1, 5, 2);
        lanes.retime_all(100, 0);
        assert_eq!(lanes.raw_ready(ArchReg::from(regs::A0)), 100);
        assert_eq!(
            lanes.value(ArchReg::from(regs::A0)),
            1,
            "values survive retiming"
        );
        assert_eq!(lanes.latest_ready(), 100);
    }

    #[test]
    fn commit_bandwidth_enforced() {
        let mut c = CommitTracker::new(2);
        assert_eq!(c.commit(10), 10);
        assert_eq!(c.commit(10), 10);
        assert_eq!(c.commit(10), 11); // third in the same cycle spills over
        assert_eq!(c.commit(5), 11); // in-order: can't commit before previous
        assert_eq!(c.committed(), 4);
    }

    #[test]
    fn commit_monotone_under_random_finishes() {
        let mut c = CommitTracker::new(4);
        let mut last = 0;
        for finish in [5u64, 3, 9, 9, 9, 9, 9, 2, 40] {
            let t = c.commit(finish);
            assert!(t >= last);
            assert!(t >= finish);
            last = t;
        }
    }

    #[test]
    fn advance_and_bulk() {
        let mut c = CommitTracker::new(4);
        c.advance_to(500);
        c.add_bulk(32);
        assert_eq!(c.committed(), 32);
        assert_eq!(
            c.commit(0),
            500,
            "post-region commits cannot precede the region"
        );
    }
}
