//! The flag parser, the verdict and the percentile.

use occusense_driver::{no_flags, percentile, CliError, Parser, Verdict};
use std::process::ExitCode;

fn parser(args: &[&str]) -> Parser {
    Parser::new(args.iter().map(|s| s.to_string()))
}

#[test]
fn values_are_taken_in_order_and_typed() {
    let mut p = parser(&["--n", "3", "--name", "x y", "--ratio", "-0.5", "pos"]);
    assert_eq!(p.next().as_deref(), Some("--n"));
    assert_eq!(p.value::<usize>("--n"), Ok(3));
    assert_eq!(p.next().as_deref(), Some("--name"));
    assert_eq!(p.value::<String>("--name").as_deref(), Ok("x y"));
    assert_eq!(p.next().as_deref(), Some("--ratio"));
    // A value may start with a dash: it belongs to the flag before it.
    assert_eq!(p.value::<f64>("--ratio"), Ok(-0.5));
    assert_eq!(p.next().as_deref(), Some("pos"));
    assert_eq!(p.next(), None);
}

#[test]
fn missing_and_unparsable_values_are_typed_errors() {
    assert_eq!(
        parser(&[]).value::<u64>("--seed"),
        Err(CliError::MissingValue("--seed".into()))
    );
    assert_eq!(
        parser(&["-3"]).value::<usize>("--n"),
        Err(CliError::BadValue {
            flag: "--n".into(),
            value: "-3".into()
        })
    );
    assert_eq!(
        parser(&["fast"]).value_with("--policy", |_| None::<u8>),
        Err(CliError::BadValue {
            flag: "--policy".into(),
            value: "fast".into()
        })
    );
}

#[test]
fn nonzero_counts_are_at_least_one() {
    assert_eq!(parser(&["1"]).nonzero("--n"), Ok(1));
    for bad in ["0", "-1", "x", ""] {
        assert!(
            matches!(
                parser(&[bad]).nonzero("--n"),
                Err(CliError::BadValue { .. })
            ),
            "{bad}"
        );
    }
}

#[test]
fn positive_quantities_are_finite_and_above_zero() {
    assert_eq!(parser(&["0.5"]).positive("--rate"), Ok(0.5));
    for bad in ["nan", "NaN", "inf", "-inf", "0", "-0", "-3", "fast"] {
        assert_eq!(
            parser(&[bad]).positive("--rate"),
            Err(CliError::BadValue {
                flag: "--rate".into(),
                value: bad.into()
            }),
            "{bad}"
        );
    }
}

#[test]
fn unexpected_arguments_are_help_or_unknown() {
    assert_eq!(CliError::unexpected("-h".into()), CliError::Help);
    assert_eq!(CliError::unexpected("--help".into()), CliError::Help);
    assert_eq!(
        CliError::unexpected("--quik".into()),
        CliError::UnknownFlag("--quik".into())
    );
    assert_eq!(no_flags(&mut parser(&[])), Ok(()));
    assert_eq!(no_flags(&mut parser(&["--help"])), Err(CliError::Help));
    assert_eq!(
        no_flags(&mut parser(&["--frobnicate"])),
        Err(CliError::UnknownFlag("--frobnicate".into()))
    );
}

#[test]
fn errors_name_the_flag_and_the_value() {
    let e = CliError::BadValue {
        flag: "--rate".into(),
        value: "nan".into(),
    };
    assert_eq!(e.to_string(), "bad value \"nan\" for --rate");
    assert_eq!(
        CliError::UnknownFlag("--x".into()).to_string(),
        "unknown flag \"--x\""
    );
    assert_eq!(
        CliError::MissingValue("--x".into()).to_string(),
        "missing value for --x"
    );
}

#[test]
fn verdict_labels_follow_enablement_and_failures() {
    let mut off = Verdict::new("t", false);
    assert_eq!(off.label(), "off");
    off.fail("sensor error");
    assert_eq!(off.label(), "off");
    assert_eq!(off.finish("unused"), ExitCode::FAILURE);

    let mut on = Verdict::new("t", true);
    on.check(true, || unreachable!("not evaluated when ok"));
    assert_eq!(on.label(), "pass");
    assert_eq!(Verdict::new("t", true).finish("ok"), ExitCode::SUCCESS);
    on.check(false, || "broken".into());
    assert_eq!(on.label(), "fail");
    assert_eq!(on.finish("unused"), ExitCode::FAILURE);
}

#[test]
fn verdict_summary_ends_with_the_verdict_field() {
    let path = std::env::temp_dir().join(format!("driver-summary-{}.json", std::process::id()));
    let path = path.to_str().unwrap();
    let v = Verdict::new("t", true);
    v.write_summary(path, occusense_driver::obj([("unaccounted", 0u64.into())]));
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::remove_file(path).unwrap();
    assert_eq!(text, "{\"unaccounted\": 0, \"verdict\": \"pass\"}\n");
}

#[test]
fn percentile_is_nearest_rank() {
    let s: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&s, 50.0), 50);
    assert_eq!(percentile(&s, 99.0), 99);
    assert_eq!(percentile(&s, 100.0), 100);
    assert_eq!(percentile(&s, 0.0), 1);
    assert_eq!(percentile::<u64>(&[], 99.0), 0);
    assert_eq!(percentile(&[7u64], 50.0), 7);
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
}
