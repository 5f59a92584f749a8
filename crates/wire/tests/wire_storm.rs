//! `wire_storm` end to end: its command line and its `--json` summary.

use occusense_driver::json::{self, Value};
use std::process::Command;

const WIRE_STORM: &str = env!("CARGO_BIN_EXE_wire_storm");

#[test]
fn a_misspelt_flag_is_refused_with_usage() {
    let help = Command::new(WIRE_STORM).arg("--help").output().unwrap();
    assert_eq!(help.status.code(), Some(0));
    let usage = String::from_utf8(help.stdout).unwrap();

    for (args, reason) in [
        (&["--sensor", "2"][..], "unknown flag \"--sensor\""),
        (&["--swap"], "--swap requires --temporal"),
        (&["--drivers", "0"], "bad value \"0\" for --drivers"),
    ] {
        let out = Command::new(WIRE_STORM).args(args).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert!(stderr.contains(usage.trim_end()), "{args:?}: {stderr}");
    }
}

#[test]
fn a_small_verified_storm_writes_a_passing_summary() {
    let path = std::env::temp_dir().join(format!("wire_storm-{}.json", std::process::id()));
    let out = Command::new(WIRE_STORM)
        .args([
            "--sensors",
            "2",
            "--records",
            "50",
            "--drivers",
            "4",
            "--verify",
        ])
        .arg("--json")
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let summary = json::parse(&text).unwrap();
    let field = |key: &str| {
        summary
            .get(key)
            .unwrap_or_else(|| panic!("no {key}: {text}"))
    };
    assert_eq!(field("verdict").as_str(), Some("pass"));
    assert_eq!(field("unaccounted"), &Value::UInt(0));
    assert_eq!(field("sensors"), &Value::UInt(2));
    let decoded = field("report")
        .get("wire")
        .and_then(|w| w.get("records_decoded"));
    assert_eq!(decoded, Some(&Value::UInt(100)));
    // The driver count actually used: never more than one per sensor.
    assert_eq!(field("drivers"), &Value::UInt(2));
    assert!(field("records_per_s").as_f64().unwrap() > 0.0);
    assert_eq!(field("rtt_us").get("samples"), Some(&Value::UInt(100)));
}
