//! Benchmark self-tests at a tiny scale: every declared metric is
//! printed with its unit, and every output check can fail.

use emvolt_engine::snap::parse_line;
use emvolt_perfbench::{run, Checks, Options, Report, Scale, Workload};
use serde::Value;
use std::path::PathBuf;

fn options(workload: Workload, trace: bool, checks: Checks, tag: &str) -> Options {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{tag}-{}",
        workload.name(),
        u8::from(trace)
    ));
    std::fs::create_dir_all(&work_dir).expect("create the test work directory");
    Options {
        workload,
        seed: 3,
        seconds: 0.001,
        trace,
        scale: Scale::tiny(),
        checks,
        work_dir,
    }
}

fn run_tiny(workload: Workload, trace: bool, checks: Checks, tag: &str) -> Report {
    let opts = options(workload, trace, checks, tag);
    let report = run(&opts);
    std::fs::remove_dir_all(&opts.work_dir).ok();
    report
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key `{key}`")),
        _ => panic!("`{key}` looked up in a non-object"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = parse_line(&text.replace('\n', " ")).expect("BENCHMARK.json parses");
    match field(&doc, section) {
        Value::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    str_of(field(m, "name")).to_string(),
                    str_of(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        _ => panic!("`{section}` is not a list"),
    }
}

/// `(name, unit, value)` of every metric in a printed metrics object.
fn printed(line: &str, key: &str) -> Vec<(String, String, f64)> {
    let doc = parse_line(line).expect("printed line parses");
    let doc = if key == "record" {
        field(&doc, "record")
    } else {
        &doc
    };
    match field(doc, "metrics") {
        Value::Obj(fields) => fields
            .iter()
            .map(|(name, m)| {
                let value = match field(m, "value") {
                    Value::Num(v) => *v,
                    other => panic!("{name}: value {other:?} is not a number"),
                };
                (name.clone(), str_of(field(m, "unit")).to_string(), value)
            })
            .collect(),
        _ => panic!("metrics is not an object"),
    }
}

fn assert_declared_metrics(report: &Report, section: &str) {
    assert!(report.correct(), "{}", report.record_line());
    let got = printed(&report.result_line(), "result");
    let want = declared(section);
    let got_pairs: Vec<(String, String)> =
        got.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect();
    assert_eq!(got_pairs, want, "{} {section}", report.workload.name());
    for (name, _, value) in &got {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    for workload in Workload::ALL {
        let report = run_tiny(workload, false, Checks::default(), "e2e");
        assert_declared_metrics(&report, "end_to_end");
        assert_eq!(report.tally.failed, 0);
        let record = printed(&report.record_line(), "record");
        let names: Vec<&str> = record.iter().map(|(n, _, _)| n.as_str()).collect();
        let mut expected = vec!["failed_frac", "sim_campaign_s"];
        match workload {
            Workload::Characterize => expected.push("resonance_err_mhz"),
            Workload::GaVirus | Workload::GaReplay => expected.push("virus_dbm"),
        }
        for name in expected {
            assert!(
                names.contains(&name),
                "{}: no {name} in {names:?}",
                workload.name()
            );
        }
        let frac = record
            .iter()
            .find(|(n, _, _)| n == "failed_frac")
            .expect("failed_frac");
        assert_eq!((frac.1.as_str(), frac.2), ("ratio", 0.0));
    }
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    for workload in Workload::ALL {
        let report = run_tiny(workload, true, Checks::default(), "layers");
        assert_declared_metrics(&report, "per_layer");
    }
}

/// Runs `workload` with `checks` and asserts that a check whose name
/// contains `name` failed and raised the failure count.
fn assert_check_fails(workload: Workload, checks: Checks, name: &str) {
    let report = run_tiny(workload, false, checks, name);
    assert!(!report.correct());
    assert!(report.tally.failed > 0);
    assert!(report.failed_frac() > 0.0);
    let failed: Vec<&str> = report
        .tally
        .checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| c.name.as_str())
        .collect();
    assert!(
        failed.iter().any(|c| c.contains(name)),
        "expected `{name}` to fail; failed: {failed:?}"
    );
}

#[test]
fn ga_virus_checks_can_fail() {
    assert_check_fails(
        Workload::GaVirus,
        Checks {
            dominant_band_hz: (0.0, 1.0),
            ..Checks::default()
        },
        "ga_virus.dominant_in_band",
    );
    assert_check_fails(
        Workload::GaVirus,
        Checks {
            reference_seed_xor: 1,
            ..Checks::default()
        },
        "ga_virus.matches_serial_reference",
    );
}

#[test]
fn characterize_checks_can_fail() {
    assert_check_fails(
        Workload::Characterize,
        Checks {
            resonance_tol_hz: 0.0,
            ..Checks::default()
        },
        ".resonance",
    );
    assert_check_fails(
        Workload::Characterize,
        Checks {
            vmin_margin_v: 1.0,
            ..Checks::default()
        },
        ".vmin",
    );
}

#[test]
fn ga_replay_checks_can_fail() {
    assert_check_fails(
        Workload::GaReplay,
        Checks {
            expected_fitness_bits_xor: 1,
            ..Checks::default()
        },
        "ga_replay.matches_recording",
    );
    assert_check_fails(
        Workload::GaReplay,
        Checks {
            checkpoint_fingerprint_xor: 1,
            ..Checks::default()
        },
        "ga_replay.checkpoint_resumes",
    );
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
