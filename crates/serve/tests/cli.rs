//! CLI contract tests for the `diag-serve` and `diag-load` binaries:
//! `--help` / `-h` print the usage to stdout and exit 0 without binding
//! or connecting, and unknown flags still exit 2.

use std::process::Command;

const BINARIES: [&str; 2] = [
    env!("CARGO_BIN_EXE_diag-serve"),
    env!("CARGO_BIN_EXE_diag-load"),
];

#[test]
fn help_prints_usage_and_exits_zero() {
    for exe in BINARIES {
        for flag in ["--help", "-h"] {
            let out = Command::new(exe).arg(flag).output().unwrap();
            assert_eq!(out.status.code(), Some(0), "{exe} {flag}");
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(text.starts_with("usage: diag-"), "{exe} {flag}: {text}");
        }
    }
}

#[test]
fn unknown_flags_exit_two() {
    for exe in BINARIES {
        let out = Command::new(exe).arg("--no-such-flag").output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{exe}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{exe}: {err}");
    }
}
