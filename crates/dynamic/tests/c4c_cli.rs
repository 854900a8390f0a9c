//! Command-line checks of `c4c`'s model-checking flags.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The lost-update race the model checker finds with two sessions.
const LOST_UPDATE: &str = "store { register Best; }
txn submit(s) { if (Best.get() < s) { Best.put(s); } }
";

/// Writes `source` to a file of its own under the system temp directory.
fn program_file(tag: &str, source: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("c4c-cli-{}-{tag}.ccl", std::process::id()));
    std::fs::write(&path, source).expect("temp file is writable");
    path
}

fn c4c(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_c4c")).args(args).output().expect("c4c runs")
}

#[test]
fn zero_sessions_is_a_usage_error() {
    let path = program_file("zero", LOST_UPDATE);
    let out = c4c(&[path.to_str().unwrap(), "--mc", "--max-sessions", "0"]);
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("error: --max-sessions needs at least one session"), "{stderr}");
    assert!(stderr.contains("usage: c4c"), "{stderr}");
    assert!(!stdout.contains("no violation"), "{stdout}");
}

#[test]
fn zero_depth_is_a_usage_error() {
    // A zero depth explores no execution, so "no violation" would be a
    // verdict about nothing.
    let path = program_file("depth0", LOST_UPDATE);
    let out = c4c(&[path.to_str().unwrap(), "--no-filter", "--mc", "--depth", "0"]);
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("error: --depth needs at least one transaction per session"), "{stderr}");
    assert!(stderr.contains("usage: c4c"), "{stderr}");
    assert!(!stdout.contains("model checking: "), "{stdout}");
}

#[test]
fn one_session_still_model_checks() {
    // One session cannot race with itself: every schedule is serial.
    let path = program_file("one", LOST_UPDATE);
    let out = c4c(&[path.to_str().unwrap(), "--no-filter", "--mc", "--max-sessions", "1"]);
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("model checking: "), "{stdout}");
    assert!(
        stdout
            .contains("no violation in any causally-consistent schedule of the bounded workloads"),
        "{stdout}"
    );
}
