//! Per-processing-cluster state for the serial dataflow engine.
//!
//! A processing cluster (paper §4.3, §5.1) holds one I-cache line's worth
//! of instructions — 16 PEs in every evaluated configuration — along with
//! the cluster-level load/store unit. The [`Cluster`] here tracks the
//! resident line, when its instructions became usable (fetch + decode),
//! which PE slots have been decoded (for reuse accounting), and when each
//! slot's last dynamic instance finished (a PE holds one instruction
//! instance at a time).

use diag_isa::StationSlot;
use diag_mem::Lsu;

/// Timing and residency state of one processing cluster.
#[derive(Debug)]
pub struct Cluster {
    /// Base address of the resident I-line, if any.
    pub line_addr: Option<u32>,
    /// Predecoded PE stations for the resident line, one per slot (paper
    /// §4.2: the line is decoded once into the PEs' latched control
    /// signals; re-executions skip fetch/decode). The arena is sized at
    /// construction and overwritten in place on every line load — the hot
    /// path never allocates.
    pub stations: Vec<StationSlot>,
    /// Cycle at which the resident instructions finished decoding and may
    /// begin execution (§5.1.1: one cycle after assignment).
    pub decode_ready: u64,
    /// Bitmask of PE slots that have decoded their instruction since the
    /// line was loaded; subsequent executions are datapath reuse.
    pub decoded_slots: u32,
    /// Finish time of the most recent dynamic instance at each PE slot.
    pub slot_busy: Vec<u64>,
    /// Latest commit time among instructions executed since the line was
    /// loaded — the cluster may only be reloaded after this (§4.3: "a
    /// cluster is freed if all its functional units have completed").
    pub last_commit: u64,
    /// The cluster's load/store unit (§5.1: loads and stores are queued at
    /// the level of the processing cluster).
    pub lsu: Lsu,
    /// Recently-accessed data lines held at the cluster LSU and memory
    /// lanes (§5.2: "a load store unit at the cluster level, where the
    /// previously accessed line is stored" + set-associative memory lanes
    /// passing data "for immediate access"). Timing-only: hits bypass the
    /// L1D entirely.
    line_buf: Vec<u32>,
    line_buf_capacity: usize,
}

impl Cluster {
    /// Creates an empty cluster with `pes` PE slots and an LSU of the
    /// given depth.
    pub fn new(pes: usize, lsu_depth: usize) -> Cluster {
        Cluster {
            line_addr: None,
            stations: vec![StationSlot::Empty; pes],
            decode_ready: 0,
            decoded_slots: 0,
            slot_busy: vec![0; pes],
            last_commit: 0,
            lsu: Lsu::new(lsu_depth),
            line_buf: Vec::with_capacity(8),
            line_buf_capacity: 8,
        }
    }

    /// Whether `line` is held in the cluster's line buffer; a hit promotes
    /// it to most-recently-used.
    pub fn line_buf_hit(&mut self, line: u32) -> bool {
        if let Some(pos) = self.line_buf.iter().position(|&l| l == line) {
            let l = self.line_buf.remove(pos);
            self.line_buf.push(l);
            true
        } else {
            false
        }
    }

    /// Installs `line` as the most-recently-accessed data line.
    pub fn line_buf_fill(&mut self, line: u32) {
        if !self.line_buf_hit(line) {
            if self.line_buf.len() == self.line_buf_capacity {
                self.line_buf.remove(0);
            }
            self.line_buf.push(line);
        }
    }

    /// Loads a new I-line, resetting per-residency state. `decode_ready`
    /// is when the instructions become executable.
    pub fn load_line(&mut self, line_addr: u32, decode_ready: u64) {
        self.line_addr = Some(line_addr);
        self.decode_ready = decode_ready;
        self.decoded_slots = 0;
        for slot in &mut self.slot_busy {
            *slot = decode_ready;
        }
        self.last_commit = self.last_commit.max(decode_ready);
        self.lsu.reset();
    }

    /// Marks a PE slot decoded; returns `true` if this was the first
    /// execution since the line loaded (i.e. a real decode, not reuse).
    pub fn mark_decoded(&mut self, slot: usize) -> bool {
        let bit = 1u32 << slot;
        let first = self.decoded_slots & bit == 0;
        self.decoded_slots |= bit;
        first
    }

    /// Invalidates the resident line (reuse-ablation support).
    pub fn evict(&mut self) {
        self.line_addr = None;
        self.decoded_slots = 0;
    }
}

/// Which cluster of a ring holds each I-line of the text segment.
///
/// A dense table indexed by line number from the text base: the engine
/// resolves the current line on every step, and an array index is far
/// cheaper there than a hash probe. Lines outside the text are never
/// resident.
#[derive(Debug)]
pub(crate) struct Residency {
    /// Lowest address any text line can have.
    base: u32,
    /// Line addresses are multiples of `1 << shift` (the trailing zeros
    /// of the line size), so `(line - base) >> shift` is one-to-one.
    shift: u32,
    /// Holding cluster per line, or [`Residency::NONE`].
    table: Vec<u32>,
    /// Lines currently resident.
    len: usize,
}

impl Residency {
    const NONE: u32 = u32::MAX;

    /// An empty table covering every line of text `[text_base, text_end)`
    /// for `line_bytes`-byte lines (line of `a` is `a & !(line_bytes - 1)`).
    pub(crate) fn new(text_base: u32, text_end: u32, line_bytes: u32) -> Residency {
        // `a & !(line_bytes - 1)` never falls below `a` rounded down to
        // the next power of two of the line size, even when that size is
        // not itself a power of two.
        let base = text_base & !(line_bytes.next_power_of_two() - 1);
        let shift = line_bytes.trailing_zeros();
        let lines = ((text_end - base) >> shift) as usize + 1;
        Residency {
            base,
            shift,
            table: vec![Self::NONE; lines],
            len: 0,
        }
    }

    fn index(&self, line: u32) -> Option<usize> {
        let i = (line.wrapping_sub(self.base) >> self.shift) as usize;
        (i < self.table.len()).then_some(i)
    }

    /// The cluster holding `line`, if it is resident.
    #[inline]
    pub(crate) fn get(&self, line: u32) -> Option<usize> {
        let c = self.table[self.index(line)?];
        (c != Self::NONE).then_some(c as usize)
    }

    /// Records `line` as held by `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `line` lies outside the text segment.
    pub(crate) fn insert(&mut self, line: u32, cluster: usize) {
        // Lines are loaded only for text addresses, which the table covers.
        let i = self.index(line).expect("resident line lies in the text"); // lint: allow(unwrap)
        if self.table[i] == Self::NONE {
            self.len += 1;
        }
        self.table[i] = cluster as u32;
    }

    /// Forgets where `line` is held, if anywhere.
    pub(crate) fn remove(&mut self, line: u32) {
        if let Some(i) = self.index(line) {
            if self.table[i] != Self::NONE {
                self.table[i] = Self::NONE;
                self.len -= 1;
            }
        }
    }

    /// Forgets every line.
    pub(crate) fn clear(&mut self) {
        self.table.fill(Self::NONE);
        self.len = 0;
    }

    /// Number of resident lines.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_tracks_lines_like_a_map() {
        let mut r = Residency::new(0x1000, 0x1100, 64);
        assert_eq!(r.get(0x1000), None);
        r.insert(0x1000, 3);
        r.insert(0x10c0, 0);
        r.insert(0x10c0, 1);
        assert_eq!(
            (r.get(0x1000), r.get(0x10c0), r.len()),
            (Some(3), Some(1), 2)
        );
        r.remove(0x1000);
        r.remove(0x1000);
        assert_eq!((r.get(0x1000), r.len()), (None, 1));
        // Lines outside the text are never resident.
        assert_eq!(r.get(0x0fc0), None);
        assert_eq!(r.get(0x2000), None);
        r.remove(0x2000);
        r.clear();
        assert_eq!((r.get(0x10c0), r.len()), (None, 0));
    }

    #[test]
    fn residency_covers_lines_of_non_power_of_two_size() {
        // 12-PE clusters: 48-byte lines, line of `a` is `a & !47`.
        let (base, end) = (0x1020, 0x1400);
        let mut lines: Vec<u32> = (base..end).step_by(4).map(|a| a & !47).collect();
        lines.sort_unstable();
        lines.dedup();
        let mut r = Residency::new(base, end, 48);
        for (k, &line) in lines.iter().enumerate() {
            r.insert(line, k);
        }
        for (k, &line) in lines.iter().enumerate() {
            assert_eq!(r.get(line), Some(k), "line {line:#x}");
        }
        assert_eq!(r.len(), lines.len());
    }

    #[test]
    fn load_line_resets_state() {
        let mut c = Cluster::new(16, 4);
        c.mark_decoded(3);
        c.slot_busy[5] = 99;
        c.last_commit = 80;
        c.load_line(0x1000, 120);
        assert_eq!(c.line_addr, Some(0x1000));
        assert_eq!(c.decoded_slots, 0);
        assert_eq!(c.slot_busy[5], 120);
        assert_eq!(c.last_commit, 120);
        assert_eq!(c.decode_ready, 120);
    }

    #[test]
    fn decode_then_reuse() {
        let mut c = Cluster::new(16, 4);
        c.load_line(0x1000, 0);
        assert!(c.mark_decoded(7), "first execution decodes");
        assert!(!c.mark_decoded(7), "second execution reuses");
        assert!(c.mark_decoded(8), "other slots decode independently");
    }

    #[test]
    fn evict_clears_residency() {
        let mut c = Cluster::new(16, 4);
        c.load_line(0x40, 0);
        c.mark_decoded(0);
        c.evict();
        assert_eq!(c.line_addr, None);
        assert!(c.mark_decoded(0), "decode required after eviction");
    }
}
