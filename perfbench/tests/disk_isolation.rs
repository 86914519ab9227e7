//! The benchmark must never touch the pipeline's disk cache: a
//! disk-backed session would turn a second serve-miss run into disk
//! hits instead of simulations.

use std::path::Path;

use diag_perfbench::{run, Config};
use diag_pipeline::DiskCache;

/// Every file under `dir` (none when it does not exist).
fn files(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.display().to_string());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn back_to_back_serve_miss_runs_simulate_and_write_nothing_to_disk() {
    let dir = DiskCache::default_dir();
    let before = files(&dir);
    for seed in [5, 5] {
        let cfg = Config {
            workload: "serve-miss".to_string(),
            seed,
            seconds: 1,
            trace: false,
            spans_out: None,
        };
        let outcome = run(&cfg).expect("serve-miss is a workload");
        // `correct` covers the per-request checks (no run-memo hit on
        // any result) and the server's run-stage totals (one build per
        // request): every request simulated.
        assert!(outcome.correct(), "{:?}", outcome.failures);
        let rps = outcome
            .metrics
            .iter()
            .find(|m| m.name == "rps")
            .expect("rps reported");
        assert!(rps.value > 0.0 && rps.samples > 0);
    }
    assert_eq!(
        files(&dir),
        before,
        "the benchmark wrote under {}",
        dir.display()
    );
}
