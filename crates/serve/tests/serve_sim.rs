//! `serve_sim` refuses bad command lines before it trains or serves.

use std::process::Command;

const SERVE_SIM: &str = env!("CARGO_BIN_EXE_serve_sim");

fn assert_refused(args: &[&str], reason: &str) {
    let help = Command::new(SERVE_SIM).arg("--help").output().unwrap();
    assert_eq!(help.status.code(), Some(0));
    let usage = String::from_utf8(help.stdout).unwrap();

    let out = Command::new(SERVE_SIM).args(args).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(stderr.contains(usage.trim_end()), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
}

#[test]
fn a_misspelt_flag_is_refused_with_usage() {
    assert_refused(&["--sensor", "2"], "unknown flag \"--sensor\"");
}

/// A duration that is not finite and positive replays no record, and
/// a fault run over no records used to pass vacuously.
#[test]
fn durations_that_replay_nothing_are_refused() {
    for duration in ["nan", "-1", "0"] {
        assert_refused(
            &["--duration", duration, "--faults", "nan@50x5"],
            &format!("bad value \"{duration}\" for --duration"),
        );
    }
}

#[test]
fn a_malformed_fault_plan_names_its_problem() {
    assert_refused(&["--faults", "nan"], "bad --faults \"nan\"");
}
