//! Rendering an [`Analysis`] as human-readable text or
//! machine-readable JSON.
//!
//! The JSON emitter is hand-rolled: the workspace is dependency-free by
//! policy, and the schema is small enough that an escaping helper plus
//! `format!` is clearer than a serialization framework.

use crate::Analysis;
use diag_trace::json;
use std::fmt::Write as _;

/// Formats an IPC bound with two decimals.
fn ipc(v: f64) -> String {
    format!("{v:.2}")
}

/// Renders the analysis as an indented text report. `name` labels the
/// program (e.g. the workload name); `program` supplies symbol names for
/// addresses.
pub fn text_report(name: &str, program: &diag_asm::Program, analysis: &Analysis) -> String {
    let mut out = String::new();
    let cfg = &analysis.cfg;
    let reachable = cfg.blocks.iter().filter(|b| b.reachable).count();
    let _ = writeln!(
        out,
        "{name}: {} instructions, {} blocks ({} reachable), {} loops{}",
        analysis.text_insts,
        cfg.blocks.len(),
        reachable,
        analysis.perf.loops.len(),
        if cfg.has_indirect {
            ", indirect jumps present"
        } else {
            ""
        },
    );
    let _ = writeln!(
        out,
        "  lanes: max {} live of 64, {} live at entry, peak segment-buffer {} slots/cluster",
        analysis.max_live_lanes, analysis.entry_live_lanes, analysis.peak_segment_slots,
    );
    for l in &analysis.perf.loops {
        let _ = writeln!(
            out,
            "  loop {}: {} insts ({} guaranteed), {} line(s), II={}{}, crit path {} cy, \
             IPC bound {}{}",
            program.describe_addr(l.head),
            l.body_insts,
            l.guaranteed_insts,
            l.lines,
            l.recurrence_ii,
            match l.recurrence_lane {
                Some(r) => format!(" (lane {r})"),
                None => String::new(),
            },
            l.critical_path,
            ipc(l.ipc_bound),
            if l.reuse_eligible {
                ", reuse-eligible"
            } else {
                ", exceeds line capacity"
            },
        );
    }
    let _ = writeln!(
        out,
        "  ipc bound: {} program-wide{}",
        ipc(analysis.perf.ipc_bound),
        match analysis.perf.steady_state_ipc_bound {
            Some(s) => format!(", {} steady-state", ipc(s)),
            None => String::new(),
        },
    );
    if analysis.diagnostics.is_empty() {
        let _ = writeln!(out, "  diagnostics: none");
    } else {
        let _ = writeln!(out, "  diagnostics: {}", analysis.diagnostics.len());
        for d in &analysis.diagnostics {
            let _ = writeln!(out, "    {d}");
            for line in &d.context {
                let _ = writeln!(out, "      {line}");
            }
        }
    }
    out
}

/// Renders the analysis as a single JSON object.
pub fn json_report(name: &str, analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(out, "\"name\":\"{}\",", json::escape(name));
    let _ = write!(out, "\"text_insts\":{},", analysis.text_insts);
    let _ = write!(out, "\"blocks\":{},", analysis.cfg.blocks.len());
    let _ = write!(
        out,
        "\"reachable_blocks\":{},",
        analysis.cfg.blocks.iter().filter(|b| b.reachable).count()
    );
    let _ = write!(out, "\"has_indirect_jumps\":{},", analysis.cfg.has_indirect);
    let _ = write!(
        out,
        "\"lanes\":{{\"max_live\":{},\"entry_live\":{},\"peak_segment_slots\":{}}},",
        analysis.max_live_lanes, analysis.entry_live_lanes, analysis.peak_segment_slots
    );
    out.push_str("\"loops\":[");
    for (i, l) in analysis.perf.loops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"head\":{},\"body_insts\":{},\"guaranteed_insts\":{},\"lines\":{},\
             \"reuse_eligible\":{},\"critical_path\":{},\"recurrence_ii\":{},\
             \"ipc_bound\":{}}}",
            l.head,
            l.body_insts,
            l.guaranteed_insts,
            l.lines,
            l.reuse_eligible,
            l.critical_path,
            l.recurrence_ii,
            ipc(l.ipc_bound),
        );
    }
    out.push_str("],");
    let _ = write!(out, "\"ipc_bound\":{},", ipc(analysis.perf.ipc_bound));
    match analysis.perf.steady_state_ipc_bound {
        Some(s) => {
            let _ = write!(out, "\"steady_state_ipc_bound\":{},", ipc(s));
        }
        None => out.push_str("\"steady_state_ipc_bound\":null,"),
    }
    out.push_str("\"diagnostics\":[");
    for (i, d) in analysis.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"severity\":\"{}\",\"lint\":\"{}\",\"pc_start\":{},\"pc_end\":{},\
             \"message\":\"{}\",\"context\":[",
            d.severity.name(),
            d.lint.id(),
            d.pc_range.0,
            d.pc_range.1,
            json::escape(&d.message),
        );
        for (j, line) in d.context.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json::escape(line));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}
