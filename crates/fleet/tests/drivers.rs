//! `fleet_storm` and `fleet_worker` refuse misspelt flags with their
//! usage and exit status 2, and print that usage for `--help`.

use std::process::Command;

fn assert_refused(bin: &str, args: &[&str], reason: &str) {
    let help = Command::new(bin).arg("--help").output().unwrap();
    assert_eq!(help.status.code(), Some(0), "{bin} --help");
    let usage = String::from_utf8(help.stdout).unwrap();

    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(reason), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(usage.trim_end()),
        "{bin} {args:?}: {stderr}"
    );
}

#[test]
fn fleet_storm_refuses_misspelt_flags() {
    let bin = env!("CARGO_BIN_EXE_fleet_storm");
    assert_refused(bin, &["--kil-one"], "unknown flag \"--kil-one\"");
    assert_refused(bin, &["--kill-one", "--procs", "1"], "--procs >= 2");
}

#[test]
fn fleet_worker_refuses_misspelt_and_misplaced_flags() {
    let bin = env!("CARGO_BIN_EXE_fleet_worker");
    assert_refused(bin, &["--tenat", "acme"], "unknown flag \"--tenat\"");
    assert_refused(
        bin,
        &["--seed", "7", "--tenant", "acme"],
        "--seed before any --tenant",
    );
    assert_refused(bin, &["--hb-ms", "10"], "at least one --tenant");
}
