//! CLI contract tests for the `harness` binary: the help text documents
//! every subcommand, and unknown flags are rejected with the usage exit
//! code rather than being silently ignored.

use std::process::Command;

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_harness"))
}

/// A fresh scratch directory unique to `test` (plain std; no tempdir
/// crate in this workspace).
fn scratch(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("diag-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_documents_the_bench_subcommand() {
    let out = harness().arg("--help").output().unwrap();
    let text =
        String::from_utf8_lossy(&out.stdout).to_string() + &String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("bench"), "help must list `bench`: {text}");
    assert!(
        text.contains("--quick") && text.contains("--baseline"),
        "help must list bench options: {text}"
    );
}

#[test]
fn bench_rejects_unknown_flags() {
    let out = harness()
        .args(["bench", "--no-such-flag"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag"),
        "stderr must name the rejection: {err}"
    );
}

#[test]
fn subcommand_help_prints_usage_and_exits_zero() {
    for cmd in ["trace", "bench", "profile"] {
        let out = harness().args([cmd, "--help"]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{cmd} --help");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("usage:"), "{cmd} --help: {text}");
    }
}

#[test]
fn bench_rejects_unknown_workloads() {
    let out = harness()
        .args(["bench", "definitely-not-a-workload"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_documents_the_profile_subcommand() {
    let out = harness().arg("--help").output().unwrap();
    let text =
        String::from_utf8_lossy(&out.stdout).to_string() + &String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("profile"), "help must list `profile`: {text}");
    assert!(
        text.contains("--top") && text.contains("folded") && text.contains("profile diff"),
        "help must list profile options and the diff mode: {text}"
    );
}

#[test]
fn profile_rejects_unknown_flags_and_formats() {
    let out = harness()
        .args(["profile", "hotspot", "--no-such-flag"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "{err}");

    let out = harness()
        .args(["profile", "hotspot", "--format", "xml"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown format must exit 2");
}

#[test]
fn out_paths_create_missing_parent_directories() {
    let dir = scratch("mkdirs");
    // Both exporters that take --out must create intermediate dirs.
    let profile_out = dir.join("a/b/profile.json");
    let out = harness()
        .args(["profile", "hotspot", "--quick", "--format", "json", "--out"])
        .arg(&profile_out)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&profile_out).expect("profile written");
    assert!(json.contains("diag-profile-v1"), "schema header: {json}");
    assert!(json.contains("\"host\""), "host metadata header: {json}");

    let trace_out = dir.join("c/d/trace.jsonl");
    let out = harness()
        .args(["trace", "hotspot", "--quick", "--format", "jsonl", "--out"])
        .arg(&trace_out)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace_out.exists(), "trace written into created dirs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_diff_of_identical_profiles_reports_no_changes() {
    let dir = scratch("diff");
    let path = dir.join("p.json");
    let out = harness()
        .args(["profile", "hotspot", "--quick", "--format", "json", "--out"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = harness()
        .args(["profile", "diff"])
        .arg(&path)
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("no per-PC self-cycle changes"),
        "self-diff must be empty: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_json_carries_host_metadata() {
    let dir = scratch("benchhost");
    let path = dir.join("bench.json");
    let out = harness()
        .args(["bench", "hotspot", "--quick", "--repeat", "1", "--out"])
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("bench written");
    for key in [
        "\"host\"",
        "\"rustc\"",
        "\"git_rev\"",
        "\"thin_lto\"",
        "\"repeat\"",
        "\"cache_hits\"",
        "\"cache_builds\"",
        "\"cache_disk_hits\"",
        "\"cache_disk_writes\"",
    ] {
        assert!(json.contains(key), "bench JSON must carry {key}: {json}");
    }
    // The baseline parser must still accept reports with the new header.
    diag_bench::hostbench::BenchBaseline::parse(&json).expect("baseline parses");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the harness with the given args, asserting exit 0, and returns
/// (stdout, stderr).
fn run_ok(args: &[&str]) -> (Vec<u8>, String) {
    let out = harness().args(args).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "harness {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (out.stdout, String::from_utf8_lossy(&out.stderr).to_string())
}

#[test]
fn scale_flag_is_uniform_and_validated() {
    // `analyze` historically hard-coded tiny inputs; now every
    // subcommand takes --scale and rejects unknown values.
    let dir = scratch("scale");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let (tiny, _) = run_ok(&[
        "analyze",
        "hotspot",
        "--json",
        "--scale",
        "tiny",
        "--cache-dir",
        cache,
    ]);
    let (quick, _) = run_ok(&["analyze", "hotspot", "--json", "--cache-dir", cache]);
    assert_eq!(tiny, quick, "analyze default scale is tiny");

    let out = harness()
        .args(["sweep", "hotspot", "--scale", "huge"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown scale must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scale"), "{err}");

    // `--quick` remains as the tiny alias on sweep-style subcommands.
    let out = harness()
        .args(["run", "table2", "--quick"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_and_warm_outputs_are_byte_identical() {
    let dir = scratch("coldwarm");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();

    // analyze: report text comes back from the disk blob on the warm
    // runs and must not differ by a byte.
    let (cold, _) = run_ok(&["analyze", "hotspot", "--json", "--cache-dir", cache]);
    let (warm, warm_err) = run_ok(&["analyze", "hotspot", "--json", "--cache-dir", cache]);
    assert_eq!(cold, warm, "analyze output changed between cold and warm");
    assert!(
        warm_err.contains("disk") && !warm_err.contains("disk 0 hits"),
        "warm run must report disk hits on stderr: {warm_err}"
    );

    // no-cache runs produce the same bytes as cached ones.
    let (uncached, _) = run_ok(&["analyze", "hotspot", "--json", "--no-cache"]);
    assert_eq!(cold, uncached, "--no-cache changed analyze output");

    // sweep and profile: simulation-derived stdout is cache-invariant.
    let sweep_args = [
        "sweep",
        "hotspot",
        "--quick",
        "--jobs",
        "2",
        "--cache-dir",
        cache,
    ];
    let (cold, _) = run_ok(&sweep_args);
    let (warm, _) = run_ok(&sweep_args);
    assert_eq!(cold, warm, "sweep output changed between cold and warm");

    let profile_args = [
        "profile",
        "hotspot",
        "--quick",
        "--format",
        "folded",
        "--cache-dir",
        cache,
    ];
    let (cold, _) = run_ok(&profile_args);
    let (warm, _) = run_ok(&profile_args);
    assert_eq!(cold, warm, "profile output changed between cold and warm");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_blobs_are_rebuilt_not_served() {
    let dir = scratch("corruptcli");
    let cache_dir = dir.join("cache");
    let cache = cache_dir.to_str().unwrap();
    let (cold, _) = run_ok(&["analyze", "hotspot", "--json", "--cache-dir", cache]);

    // Truncate every blob mid-payload.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&cache_dir).expect("cache populated") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|x| x.to_str()) != Some("blob") {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0, "cold run must have written blobs");

    let (rebuilt, _) = run_ok(&["analyze", "hotspot", "--json", "--cache-dir", cache]);
    assert_eq!(
        cold, rebuilt,
        "corrupt blobs must rebuild to identical output"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_subcommand_reports_and_clears() {
    let dir = scratch("cachecmd");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    run_ok(&["analyze", "hotspot", "--json", "--cache-dir", cache]);

    let (stats, _) = run_ok(&["cache", "stats", "--cache-dir", cache]);
    let stats = String::from_utf8_lossy(&stats).to_string();
    assert!(!stats.contains(": 0 blobs"), "populated cache: {stats}");

    let (cleared, _) = run_ok(&["cache", "clear", "--cache-dir", cache]);
    let cleared = String::from_utf8_lossy(&cleared).to_string();
    assert!(cleared.contains("removed"), "{cleared}");

    let (stats, _) = run_ok(&["cache", "stats", "--cache-dir", cache]);
    let stats = String::from_utf8_lossy(&stats).to_string();
    assert!(stats.contains(": 0 blobs"), "cleared cache: {stats}");

    // Missing mode is a usage error.
    let out = harness().args(["cache"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}
