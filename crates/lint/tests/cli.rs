//! The linter's command line: usage errors exit 64, because the low
//! bits of its exit status are the rule families' (2 is determinism).

use std::process::Command;

const LINT: &str = env!("CARGO_BIN_EXE_occusense-lint");

#[test]
fn a_misspelt_flag_exits_64_with_usage() {
    let out = Command::new(LINT).arg("--jsn").output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(64), "{stderr}");
    assert!(stderr.contains("unknown flag \"--jsn\""), "{stderr}");
    assert!(stderr.contains("usage: occusense-lint"), "{stderr}");
    let out = Command::new(LINT).arg("--root").output().unwrap();
    assert_eq!(out.status.code(), Some(64));
}

#[test]
fn help_exits_zero() {
    let out = Command::new(LINT).arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .starts_with("usage: occusense-lint"));
}
