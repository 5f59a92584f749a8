//! The `occusense` CLI refuses misspelt flags instead of running with
//! defaults.

use std::process::Command;

const OCCUSENSE: &str = env!("CARGO_BIN_EXE_occusense");

#[test]
fn help_prints_usage_and_exits_zero() {
    for arg in ["--help", "-h", "help"] {
        let out = Command::new(OCCUSENSE).arg(arg).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{arg}");
        assert!(String::from_utf8(out.stdout)
            .unwrap()
            .contains("occusense simulate"));
    }
}

#[test]
fn a_misspelt_flag_is_refused_before_simulating() {
    let out_csv = std::env::temp_dir().join(format!("occusense-cli-{}.csv", std::process::id()));
    let out = Command::new(OCCUSENSE)
        .args([
            "simulate",
            "--out",
            out_csv.to_str().unwrap(),
            "--quik",
            "10",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag \"--quik\""), "{stderr}");
    assert!(stderr.contains("occusense simulate --out"), "{stderr}");
    assert!(!out_csv.exists(), "simulated the default campaign anyway");
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &[][..],
        &["simulat", "--out", "x.csv"],
        &["train", "--data", "x.csv"],
        &["train", "--features", "wifi"],
    ] {
        let out = Command::new(OCCUSENSE).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
