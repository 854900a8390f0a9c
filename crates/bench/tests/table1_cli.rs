//! Command-line checks of `table1`'s argument handling.

use std::process::{Command, Output};

fn table1(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table1")).args(args).output().expect("table1 runs")
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    let out = table1(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("usage: table1"), "{stdout}");
    assert!(stdout.contains("--threads N"), "{stdout}");
    assert!(!stdout.contains("Program"), "--help must not run the analysis: {stdout}");
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let out = table1(&["--no-such-flag"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("error: unknown flag \"--no-such-flag\""), "{stderr}");
    assert!(stderr.contains("usage: table1"), "{stderr}");
    assert!(stdout.is_empty(), "nothing runs on a usage error: {stdout}");
}
