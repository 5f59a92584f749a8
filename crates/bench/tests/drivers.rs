//! Every binary of this crate refuses a misspelt flag with its usage
//! on stderr and exit status 2, and prints that usage for `--help`.

use std::process::Command;

const REPRO: &[&str] = &[
    env!("CARGO_BIN_EXE_repro_table1"),
    env!("CARGO_BIN_EXE_repro_table2"),
    env!("CARGO_BIN_EXE_repro_table3"),
    env!("CARGO_BIN_EXE_repro_table4"),
    env!("CARGO_BIN_EXE_repro_table5"),
    env!("CARGO_BIN_EXE_repro_fig2"),
    env!("CARGO_BIN_EXE_repro_fig3"),
    env!("CARGO_BIN_EXE_repro_seeds"),
    env!("CARGO_BIN_EXE_repro_profiling"),
    env!("CARGO_BIN_EXE_repro_ablation_layout"),
    env!("CARGO_BIN_EXE_repro_ablation_phase"),
    env!("CARGO_BIN_EXE_repro_ablation_window"),
    env!("CARGO_BIN_EXE_repro_ext_activity"),
    env!("CARGO_BIN_EXE_repro_ext_counting"),
    env!("CARGO_BIN_EXE_repro_ext_online"),
    env!("CARGO_BIN_EXE_repro_ext_quantization"),
    env!("CARGO_BIN_EXE_repro_ext_temporal"),
];

/// Runs `bin --help` (exit 0, usage on stdout), then `bin args…`
/// (exit 2, the refusal and that same usage on stderr).
fn assert_refused(bin: &str, args: &[&str], reason: &str) {
    let help = Command::new(bin).arg("--help").output().unwrap();
    assert_eq!(help.status.code(), Some(0), "{bin} --help");
    let usage = String::from_utf8(help.stdout).unwrap();
    assert!(usage.contains("--help"), "{bin}: {usage}");

    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(reason), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(usage.trim_end()),
        "{bin} {args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
}

#[test]
fn repro_binaries_refuse_misspelt_flags() {
    for bin in REPRO {
        assert_refused(bin, &["--sed", "1"], "unknown flag \"--sed\"");
    }
    assert_refused(
        env!("CARGO_BIN_EXE_repro_fig2"),
        &["--frobnicate"],
        "unknown flag \"--frobnicate\"",
    );
}

#[test]
fn repro_binaries_refuse_rates_with_no_records() {
    for rate in ["nan", "inf", "0", "-3"] {
        assert_refused(
            env!("CARGO_BIN_EXE_repro_table2"),
            &["--rate", rate],
            &format!("bad value \"{rate}\" for --rate"),
        );
    }
}

#[test]
fn bench_gate_refuses_a_misspelt_flag_instead_of_opening_it() {
    let bench_gate = env!("CARGO_BIN_EXE_bench_gate");
    assert_refused(
        bench_gate,
        &["--tolerence", "0.5", "a.json", "b.json"],
        "unknown flag \"--tolerence\"",
    );
    assert_refused(bench_gate, &["a.json"], "path pairs");
    assert_refused(
        bench_gate,
        &["--tolerance", "nan", "a.json", "b.json"],
        "bad value \"nan\" for --tolerance",
    );
}
