//! The finished [`Profile`] document: built from a collector, exported
//! to / parsed from deterministic JSON, and reconciled exactly against
//! the run's aggregate statistics.

use diag_asm::Program;
use diag_trace::{json, StallCause};

use crate::collect::{Bucket, ProfileCollector};
use crate::frames::FrameMap;

/// Schema identifier written into (and required from) profile JSON.
pub const PROFILE_SCHEMA: &str = "diag-profile-v1";

/// How a machine's `RunStats.cycles` relates to per-thread clocks, which
/// decides the reconciliation identity [`Profile::reconcile`] enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleModel {
    /// `cycles` is the *sum* of per-thread clocks (the in-order
    /// reference time-slices one core), so per-PC self-cycles sum to
    /// `cycles` directly.
    Additive,
    /// `cycles` is the *latest* absolute end clock over all threads
    /// (DiAG rings and the OoO cores run concurrently), so per-PC
    /// self-cycles sum to the per-thread span total while `cycles`
    /// equals the maximum thread end clock.
    Wallclock,
}

impl CycleModel {
    /// Stable lowercase name used in exported profiles.
    pub fn name(self) -> &'static str {
        match self {
            CycleModel::Additive => "additive",
            CycleModel::Wallclock => "wallclock",
        }
    }

    fn parse(s: &str) -> Option<CycleModel> {
        match s {
            "additive" => Some(CycleModel::Additive),
            "wallclock" => Some(CycleModel::Wallclock),
            _ => None,
        }
    }
}

/// Run-level metadata a profile is built with, taken from the machine's
/// final `RunStats` (which is what makes reconciliation meaningful).
#[derive(Debug, Clone)]
pub struct ProfileMeta {
    /// Workload name.
    pub workload: String,
    /// Machine key (`diag` / `ooo` / `inorder`).
    pub machine: String,
    /// Hardware threads of the run.
    pub threads: u64,
    /// Whether SIMT pipelining was enabled.
    pub simt: bool,
    /// The machine's cycle model (see [`CycleModel`]).
    pub cycle_model: CycleModel,
    /// `RunStats.cycles` of the run.
    pub total_cycles: u64,
    /// `RunStats.committed` of the run.
    pub committed: u64,
    /// `StallBreakdown` totals in [`StallCause::ALL`] order.
    pub stalls: [u64; 3],
    /// Host attribution entries (rustc version, git rev, …), in
    /// insertion order.
    pub host: Vec<(String, String)>,
}

/// Profile of one static instruction address.
#[derive(Debug, Clone, PartialEq)]
pub struct PcEntry {
    /// Instruction address.
    pub pc: u32,
    /// Disassembly (empty when the program was not supplied).
    pub disasm: String,
    /// Cluster of the most recent executing station.
    pub cluster: u32,
    /// PE slot within the cluster.
    pub slot: u32,
    /// Dynamic executions.
    pub issues: u64,
    /// Executions served from the resident datapath.
    pub reuse: u64,
    /// Total attributed cycles (sum of `buckets`).
    pub self_cycles: u64,
    /// Self cycles of this PC plus every PC sharing its innermost
    /// natural loop (equals `self_cycles` until
    /// [`Profile::apply_frames`] supplies the loop nesting).
    pub cum_cycles: u64,
    /// Top-down bucket cycles ([`Bucket::ALL`] order).
    pub buckets: [u64; 5],
    /// Stall-source cycles ([`StallCause::ALL`] order).
    pub stalls: [u64; 3],
}

/// A complete per-PC cycle-accounting profile of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Workload name.
    pub workload: String,
    /// Machine key.
    pub machine: String,
    /// Hardware threads.
    pub threads: u64,
    /// Whether SIMT pipelining was enabled.
    pub simt: bool,
    /// Cycle model of the machine.
    pub cycle_model: CycleModel,
    /// `RunStats.cycles`.
    pub total_cycles: u64,
    /// `RunStats.committed`.
    pub committed: u64,
    /// `StallBreakdown` totals ([`StallCause::ALL`] order).
    pub stalls: [u64; 3],
    /// Host attribution entries, in insertion order.
    pub host: Vec<(String, String)>,
    /// `(thread, start_clock, end_clock)` spans, sorted by thread id.
    pub thread_spans: Vec<(u32, u64, u64)>,
    /// Per-PC entries, sorted by address.
    pub pcs: Vec<PcEntry>,
}

impl Profile {
    /// Builds a profile from a collector and run metadata. When
    /// `program` is given, entries carry disassembly text.
    pub fn build(
        collector: &ProfileCollector,
        meta: ProfileMeta,
        program: Option<&Program>,
    ) -> Profile {
        let pcs = collector
            .pcs
            .iter()
            .map(|(&pc, rec)| {
                let disasm = program
                    .and_then(|p| p.decode_at(pc))
                    .map(|inst| inst.to_string())
                    .unwrap_or_default();
                let self_cycles = rec.self_cycles();
                PcEntry {
                    pc,
                    disasm,
                    cluster: rec.cluster,
                    slot: rec.slot,
                    issues: rec.issues,
                    reuse: rec.reuse,
                    self_cycles,
                    cum_cycles: self_cycles,
                    buckets: rec.buckets,
                    stalls: rec.stalls,
                }
            })
            .collect();
        let mut thread_spans = collector.threads.clone();
        thread_spans.sort_by_key(|&(t, s, e)| (t, s, e));
        Profile {
            workload: meta.workload,
            machine: meta.machine,
            threads: meta.threads,
            simt: meta.simt,
            cycle_model: meta.cycle_model,
            total_cycles: meta.total_cycles,
            committed: meta.committed,
            stalls: meta.stalls,
            host: meta.host,
            thread_spans,
            pcs,
        }
    }

    /// Top-down totals over every PC ([`Bucket::ALL`] order).
    pub fn topdown(&self) -> [u64; 5] {
        let mut totals = [0u64; 5];
        for e in &self.pcs {
            for (acc, b) in totals.iter_mut().zip(e.buckets) {
                *acc += b;
            }
        }
        totals
    }

    /// Sum of per-PC self cycles.
    pub fn self_total(&self) -> u64 {
        self.pcs.iter().map(|e| e.self_cycles).sum()
    }

    /// Sum of per-thread `[start, end)` span lengths.
    pub fn span_total(&self) -> u64 {
        self.thread_spans.iter().map(|&(_, s, e)| e - s).sum()
    }

    /// Recomputes cumulative cycles from a loop-nest [`FrameMap`]: a
    /// PC's `cum_cycles` becomes the self-cycle sum of every PC whose
    /// innermost `loop@…` frame matches its own (PCs outside any loop
    /// keep `cum == self`).
    pub fn apply_frames(&mut self, frames: &FrameMap) {
        use std::collections::BTreeMap;
        let mut loop_totals: BTreeMap<&str, u64> = BTreeMap::new();
        let keys: Vec<Option<&str>> = self
            .pcs
            .iter()
            .map(|e| frames.innermost_loop(e.pc))
            .collect();
        for (e, key) in self.pcs.iter().zip(&keys) {
            if let Some(k) = key {
                *loop_totals.entry(k).or_default() += e.self_cycles;
            }
        }
        for (e, key) in self.pcs.iter_mut().zip(&keys) {
            e.cum_cycles = match key {
                Some(k) => loop_totals[k],
                None => e.self_cycles,
            };
        }
    }

    /// Verifies the exact-accounting contract against the run metadata
    /// the profile was built with:
    ///
    /// 1. every entry's buckets sum to its `self_cycles`;
    /// 2. per-PC self cycles sum to the per-thread span total
    ///    (telescoping);
    /// 3. the cycle-model identity holds — additive: span total equals
    ///    `total_cycles`; wallclock: the latest thread end clock equals
    ///    `total_cycles`;
    /// 4. per-PC stall columns sum to the `StallBreakdown` totals;
    /// 5. per-PC issues sum to `committed`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first identity that failed.
    pub fn reconcile(&self) -> Result<(), String> {
        for e in &self.pcs {
            let sum: u64 = e.buckets.iter().sum();
            if sum != e.self_cycles {
                return Err(format!(
                    "pc {:#x}: bucket sum {sum} != self_cycles {}",
                    e.pc, e.self_cycles
                ));
            }
        }
        let self_total = self.self_total();
        let span_total = self.span_total();
        if self_total != span_total {
            return Err(format!(
                "per-PC self cycles ({self_total}) != thread span total ({span_total})"
            ));
        }
        match self.cycle_model {
            CycleModel::Additive => {
                if span_total != self.total_cycles {
                    return Err(format!(
                        "additive: span total {span_total} != total_cycles {}",
                        self.total_cycles
                    ));
                }
            }
            CycleModel::Wallclock => {
                let latest = self
                    .thread_spans
                    .iter()
                    .map(|&(_, _, e)| e)
                    .max()
                    .unwrap_or(0);
                if latest != self.total_cycles {
                    return Err(format!(
                        "wallclock: latest thread end {latest} != total_cycles {}",
                        self.total_cycles
                    ));
                }
            }
        }
        let mut stall_sums = [0u64; 3];
        for e in &self.pcs {
            for (acc, s) in stall_sums.iter_mut().zip(e.stalls) {
                *acc += s;
            }
        }
        if stall_sums != self.stalls {
            return Err(format!(
                "per-PC stalls {stall_sums:?} != StallBreakdown {:?}",
                self.stalls
            ));
        }
        let issues: u64 = self.pcs.iter().map(|e| e.issues).sum();
        if issues != self.committed {
            return Err(format!(
                "per-PC issues ({issues}) != committed ({})",
                self.committed
            ));
        }
        Ok(())
    }

    /// Renders the profile as its canonical JSON document. The encoding
    /// is byte-deterministic: fixed key order, integers only, sorted
    /// entries — two identical runs produce identical bytes.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096 + self.pcs.len() * 256);
        let _ = write!(out, "{{\n  \"schema\": \"{PROFILE_SCHEMA}\",\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", json::escape(&self.workload));
        let _ = writeln!(out, "  \"machine\": \"{}\",", json::escape(&self.machine));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"simt\": {},", self.simt);
        let _ = writeln!(out, "  \"cycle_model\": \"{}\",", self.cycle_model.name());
        let _ = writeln!(out, "  \"total_cycles\": {},", self.total_cycles);
        let _ = writeln!(out, "  \"committed\": {},", self.committed);
        out.push_str("  \"stalls\": {");
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {}",
                if i > 0 { ", " } else { "" },
                cause.name(),
                self.stalls[i]
            );
        }
        out.push_str("},\n  \"topdown\": {");
        let topdown = self.topdown();
        for (i, bucket) in Bucket::ALL.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {}",
                if i > 0 { ", " } else { "" },
                bucket.name(),
                topdown[i]
            );
        }
        out.push_str("},\n  \"host\": {");
        for (i, (k, v)) in self.host.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": \"{}\"",
                if i > 0 { ", " } else { "" },
                json::escape(k),
                json::escape(v)
            );
        }
        out.push_str("},\n  \"thread_spans\": [\n");
        for (i, &(t, s, e)) in self.thread_spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"thread\": {t}, \"start\": {s}, \"end\": {e}}}{}",
                if i + 1 < self.thread_spans.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out.push_str("  ],\n  \"pcs\": [\n");
        for (i, e) in self.pcs.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"pc\": {}, \"disasm\": \"{}\", \"cluster\": {}, \"slot\": {}, \
                 \"issues\": {}, \"reuse\": {}, \"self_cycles\": {}, \"cum_cycles\": {}",
                e.pc,
                json::escape(&e.disasm),
                e.cluster,
                e.slot,
                e.issues,
                e.reuse,
                e.self_cycles,
                e.cum_cycles
            );
            for (j, bucket) in Bucket::ALL.iter().enumerate() {
                let _ = write!(out, ", \"{}\": {}", bucket.name(), e.buckets[j]);
            }
            for (j, cause) in StallCause::ALL.iter().enumerate() {
                let _ = write!(out, ", \"{}\": {}", cause.name(), e.stalls[j]);
            }
            let _ = writeln!(out, "}}{}", if i + 1 < self.pcs.len() { "," } else { "" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a profile back from the JSON a previous run wrote.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON, carries a
    /// different schema identifier, or lacks expected fields.
    pub fn from_json(text: &str) -> Result<Profile, String> {
        let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
        if schema != PROFILE_SCHEMA {
            return Err(format!("schema `{schema}` is not `{PROFILE_SCHEMA}`"));
        }
        let get_str = |k: &str| {
            doc.get(k)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing `{k}`"))
        };
        let get_u64 = |v: Option<&json::Value>, what: &str| {
            v.and_then(|v| v.as_num())
                .map(|n| n as u64)
                .ok_or_else(|| format!("missing `{what}`"))
        };
        let cycle_model_name = get_str("cycle_model")?;
        let cycle_model = CycleModel::parse(&cycle_model_name)
            .ok_or_else(|| format!("unknown cycle model `{cycle_model_name}`"))?;
        let simt = matches!(doc.get("simt"), Some(json::Value::Bool(true)));
        let mut stalls = [0u64; 3];
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            stalls[i] = get_u64(
                doc.get("stalls").and_then(|s| s.get(cause.name())),
                cause.name(),
            )?;
        }
        let host = doc
            .get("host")
            .and_then(|v| v.as_obj())
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                    .collect()
            })
            .unwrap_or_default();
        let mut thread_spans = Vec::new();
        for row in doc
            .get("thread_spans")
            .and_then(|v| v.as_arr())
            .ok_or("missing `thread_spans`")?
        {
            thread_spans.push((
                get_u64(row.get("thread"), "thread")? as u32,
                get_u64(row.get("start"), "start")?,
                get_u64(row.get("end"), "end")?,
            ));
        }
        let mut pcs = Vec::new();
        for row in doc
            .get("pcs")
            .and_then(|v| v.as_arr())
            .ok_or("missing `pcs`")?
        {
            let mut buckets = [0u64; 5];
            for (i, bucket) in Bucket::ALL.iter().enumerate() {
                buckets[i] = get_u64(row.get(bucket.name()), bucket.name())?;
            }
            let mut pc_stalls = [0u64; 3];
            for (i, cause) in StallCause::ALL.iter().enumerate() {
                pc_stalls[i] = get_u64(row.get(cause.name()), cause.name())?;
            }
            pcs.push(PcEntry {
                pc: get_u64(row.get("pc"), "pc")? as u32,
                disasm: row
                    .get("disasm")
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_string(),
                cluster: get_u64(row.get("cluster"), "cluster")? as u32,
                slot: get_u64(row.get("slot"), "slot")? as u32,
                issues: get_u64(row.get("issues"), "issues")?,
                reuse: get_u64(row.get("reuse"), "reuse")?,
                self_cycles: get_u64(row.get("self_cycles"), "self_cycles")?,
                cum_cycles: get_u64(row.get("cum_cycles"), "cum_cycles")?,
                buckets,
                stalls: pc_stalls,
            });
        }
        Ok(Profile {
            workload: get_str("workload")?,
            machine: get_str("machine")?,
            threads: get_u64(doc.get("threads"), "threads")?,
            simt,
            cycle_model,
            total_cycles: get_u64(doc.get("total_cycles"), "total_cycles")?,
            committed: get_u64(doc.get("committed"), "committed")?,
            stalls,
            host,
            thread_spans,
            pcs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Profiler, RetireSample};

    fn sample_profile() -> Profile {
        let shared = ProfileCollector::shared();
        let p = Profiler::to_shared(&shared);
        p.retire(|| RetireSample {
            pc: 0x1000,
            cluster: 0,
            slot: 0,
            reused: false,
            parts: [4, 0, 0, 0, 2],
        });
        p.retire(|| RetireSample {
            pc: 0x1004,
            cluster: 0,
            slot: 1,
            reused: false,
            parts: [1, 3, 0, 0, 0],
        });
        p.stall(0x1004, StallCause::Memory, 3);
        p.thread_span(0, 0, 10);
        let collector = shared.borrow();
        Profile::build(
            &collector,
            ProfileMeta {
                workload: "unit".to_string(),
                machine: "diag".to_string(),
                threads: 1,
                simt: false,
                cycle_model: CycleModel::Wallclock,
                total_cycles: 10,
                committed: 2,
                stalls: [3, 0, 0],
                host: vec![("rustc".to_string(), "test".to_string())],
            },
            None,
        )
    }

    #[test]
    fn reconcile_accepts_exact_profile() {
        sample_profile().reconcile().expect("identities hold");
    }

    #[test]
    fn reconcile_rejects_dropped_cycles() {
        let mut p = sample_profile();
        p.pcs[0].buckets[0] -= 1;
        p.pcs[0].self_cycles -= 1;
        assert!(p.reconcile().is_err());
    }

    #[test]
    fn json_round_trips() {
        let p = sample_profile();
        let text = p.to_json();
        let back = Profile::from_json(&text).expect("round-trip");
        assert_eq!(back, p);
        back.reconcile().expect("parsed profile still reconciles");
    }

    #[test]
    fn control_characters_in_strings_stay_valid_json() {
        let mut p = sample_profile();
        p.host.push(("note".to_string(), "\"\t\n\u{1}".to_string()));
        p.workload = "line\nbreak".to_string();
        let text = p.to_json();
        json::parse(&text).expect("escaped profile parses");
        let back = Profile::from_json(&text).expect("round-trip");
        assert_eq!(back.workload, p.workload);
        let note = back.host.iter().find(|(k, _)| k == "note");
        assert_eq!(note.map(|(_, v)| v.as_str()), Some("\"\t\n\u{1}"));
    }

    #[test]
    fn json_is_byte_deterministic() {
        assert_eq!(sample_profile().to_json(), sample_profile().to_json());
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(Profile::from_json("{\"schema\": \"nope\"}").is_err());
    }

    #[test]
    fn apply_frames_sums_loop_members() {
        let mut p = sample_profile();
        let mut frames = FrameMap::new();
        frames.insert(
            0x1000,
            vec!["loop@0x1000".to_string(), "0x1000".to_string()],
        );
        frames.insert(
            0x1004,
            vec!["loop@0x1000".to_string(), "0x1004".to_string()],
        );
        p.apply_frames(&frames);
        assert_eq!(p.pcs[0].cum_cycles, 10);
        assert_eq!(p.pcs[1].cum_cycles, 10);
    }
}
