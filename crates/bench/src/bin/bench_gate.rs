//! Compares a freshly exported `BENCH_eval.json` against the committed
//! baseline and fails when the full-chain floor regresses.
//!
//! CI runs `export_bench` into a scratch directory and then:
//!
//! ```text
//! bench_gate BENCH_eval.json /tmp/bench/BENCH_eval.json [tolerance]
//! ```
//!
//! For every committed record whose name starts with `full_chain`, the
//! fresh run must contain the same record with
//! `min_ms <= committed_min_ms * tolerance` (default 1.5x — CI runners
//! are noisy and heterogeneous; the gate catches integer-factor
//! regressions like losing the state-space kernel or the band-Goertzel
//! path, not single-digit-percent drift). Missing records fail too, so
//! renaming an entry forces a deliberate baseline update.
//!
//! The gate also checks these structural invariants that survive machine
//! changes, all computed *within the fresh run* — same-machine ratios,
//! immune to runner speed:
//!
//! - `full_chain_baseline` (auto-selected fast path) must stay at least
//!   1.5x faster than `full_chain_lu_fft` (the forced general path);
//! - every `full_chain_batched_xN` record must amortize: its per-lane
//!   cost (`min_ms / N`, with `N` parsed from the record name) must be
//!   at most 0.75x the serial `full_chain_baseline` floor — i.e. the
//!   lane-major batched chain buys at least a 1.33x per-eval speedup;
//! - on hosts whose detected SIMD level is AVX2, the dispatched
//!   lane-major fold (`simd_fold_lanes_dispatch`) must beat the
//!   scalar-forced one (`simd_fold_lanes_scalar`) by at least 1.3x —
//!   losing runtime dispatch would silently degrade every chain while
//!   staying bit-identical. On narrower hosts the check logs a skip
//!   instead of failing: the floor is calibrated to 4-wide FMA;
//! - from the `BENCH_ga.json` written next to the fresh eval file, the
//!   engine-driven campaign checkpointing every batch
//!   (`checkpoint_overhead`) must stay within 3% of the legacy one-shot
//!   path (`ga_campaign_noop_recorder`) — the step-engine's snapshot
//!   and atomic-rename cost must never tax an uncheckpointed-equivalent
//!   campaign noticeably.
//!
//! Finally, `ga_campaign_noop_recorder` in that fresh `BENCH_ga.json`
//! is held to the committed `BENCH_ga.json` beside the committed eval
//! file at the same tolerance as the `full_chain_*` floors: an absolute
//! floor on the GA campaign end to end.

use serde::{DeError, Deserialize, Value};
use std::process::ExitCode;

/// `{name -> min_ms}` extracted from a bench-record array.
struct MinTimes(Vec<(String, f64)>);

impl MinTimes {
    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, t)| t)
    }
}

impl Deserialize for MinTimes {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let Value::Arr(items) = v else {
            return Err(DeError::new("expected a top-level array of records"));
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let name = match item.field_value("name")? {
                Value::Str(s) => s.clone(),
                other => {
                    return Err(DeError::new(format!(
                        "name: expected string, got {other:?}"
                    )))
                }
            };
            let min_ms = match item.field_value("min_ms")? {
                Value::Num(n) => *n,
                other => {
                    return Err(DeError::new(format!(
                        "min_ms: expected number, got {other:?}"
                    )))
                }
            };
            out.push((name, min_ms));
        }
        Ok(MinTimes(out))
    }
}

fn load(path: &str) -> MinTimes {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Ratio of the forced general path to the auto fast path, if both were
/// recorded. Machine-independent: both numbers come from the same run.
fn fast_path_speedup(times: &MinTimes) -> Option<f64> {
    let general = times.get("full_chain_lu_fft")?;
    let fast = times.get("full_chain_baseline")?;
    Some(general / fast)
}

/// `(name, lanes, per_lane_ms)` for every `full_chain_batched_xN`
/// record, with `N` parsed from the name so the gate needs no schema
/// beyond `{name, min_ms}`.
fn batched_per_lane(times: &MinTimes) -> Vec<(String, usize, f64)> {
    times
        .0
        .iter()
        .filter_map(|(name, min_ms)| {
            let lanes: usize = name.strip_prefix("full_chain_batched_x")?.parse().ok()?;
            Some((name.clone(), lanes, min_ms / lanes as f64))
        })
        .collect()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().unwrap_or_else(|| "BENCH_eval.json".to_owned());
    let fresh_path = args
        .next()
        .unwrap_or_else(|| usage("missing fresh BENCH_eval.json path"));
    let tolerance: f64 = args
        .next()
        .map(|t| t.parse().unwrap_or_else(|_| usage("bad tolerance")))
        .unwrap_or(1.5);

    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);
    let mut failed = false;

    for (name, base_min) in baseline
        .0
        .iter()
        .filter(|(n, _)| n.starts_with("full_chain"))
    {
        failed |= !floor_holds(name, *base_min, fresh.get(name), tolerance, &fresh_path);
    }

    // Same-run speedup floor: insensitive to absolute runner speed.
    const SPEEDUP_FLOOR: f64 = 1.5;
    match fast_path_speedup(&fresh) {
        Some(ratio) if ratio >= SPEEDUP_FLOOR => {
            eprintln!("ok   lu_fft/baseline speedup {ratio:.2}x (floor {SPEEDUP_FLOOR}x)");
        }
        Some(ratio) => {
            eprintln!("FAIL lu_fft/baseline speedup {ratio:.2}x below floor {SPEEDUP_FLOOR}x");
            failed = true;
        }
        None => {
            eprintln!("FAIL fresh run lacks full_chain_lu_fft/full_chain_baseline records");
            failed = true;
        }
    }

    // Same-run amortization floor: each lane of a batched evaluation
    // must cost at most this fraction of a serial evaluation.
    const AMORTIZATION_CEILING: f64 = 0.75;
    let batched = batched_per_lane(&fresh);
    if batched.is_empty() {
        eprintln!("FAIL fresh run lacks full_chain_batched_xN records");
        failed = true;
    }
    match fresh.get("full_chain_baseline") {
        Some(serial) => {
            for (name, lanes, per_lane) in &batched {
                let ratio = per_lane / serial;
                if ratio <= AMORTIZATION_CEILING {
                    eprintln!(
                        "ok   {name:<28} {per_lane:.3} ms/lane x{lanes} = {ratio:.2}x serial \
                         (ceiling {AMORTIZATION_CEILING}x)"
                    );
                } else {
                    eprintln!(
                        "FAIL {name:<28} {per_lane:.3} ms/lane x{lanes} = {ratio:.2}x serial \
                         exceeds {AMORTIZATION_CEILING}x"
                    );
                    failed = true;
                }
            }
        }
        None if !batched.is_empty() => {
            eprintln!("FAIL fresh run lacks full_chain_baseline for the amortization gate");
            failed = true;
        }
        None => {}
    }

    // Same-run SIMD dispatch floor, gated on host capability: the
    // numbers in the fresh file were produced on this machine, so
    // detection here matches the conditions they were measured under.
    const SIMD_SPEEDUP_FLOOR: f64 = 1.3;
    let simd_ratio = (|| {
        let scalar = fresh.get("simd_fold_lanes_scalar")?;
        let dispatch = fresh.get("simd_fold_lanes_dispatch")?;
        Some(scalar / dispatch)
    })();
    if emvolt_simd::detected_level() == emvolt_simd::SimdLevel::Avx2 {
        match simd_ratio {
            Some(ratio) if ratio >= SIMD_SPEEDUP_FLOOR => {
                eprintln!(
                    "ok   simd fold dispatch/scalar speedup {ratio:.2}x \
                     (floor {SIMD_SPEEDUP_FLOOR}x on avx2)"
                );
            }
            Some(ratio) => {
                eprintln!(
                    "FAIL simd fold dispatch/scalar speedup {ratio:.2}x \
                     below floor {SIMD_SPEEDUP_FLOOR}x on avx2"
                );
                failed = true;
            }
            None => {
                eprintln!("FAIL fresh run lacks simd_fold_lanes_* records");
                failed = true;
            }
        }
    } else {
        eprintln!(
            "skip simd fold speedup floor: host dispatches {} (calibrated for avx2)",
            emvolt_simd::detected_level().as_str()
        );
    }

    // Same-run checkpoint-overhead ceiling, from the GA-scale file that
    // `export_bench` writes beside the eval file: the engine-driven
    // campaign snapshotting after every batch against the legacy
    // one-shot entry point. Both floors come from the same run on the
    // same machine, so the ratio is immune to runner speed.
    const CHECKPOINT_CEILING: f64 = 1.03;
    let ga_path = beside(&fresh_path, "BENCH_ga.json");
    let ga = load(&ga_path);
    match (
        ga.get("checkpoint_overhead"),
        ga.get("ga_campaign_noop_recorder"),
    ) {
        (Some(engine), Some(legacy)) => {
            let ratio = engine / legacy;
            if ratio <= CHECKPOINT_CEILING {
                eprintln!(
                    "ok   checkpoint_overhead        {engine:.3} ms = {ratio:.3}x legacy \
                     one-shot (ceiling {CHECKPOINT_CEILING}x)"
                );
            } else {
                eprintln!(
                    "FAIL checkpoint_overhead        {engine:.3} ms = {ratio:.3}x legacy \
                     one-shot exceeds {CHECKPOINT_CEILING}x"
                );
                failed = true;
            }
        }
        _ => {
            eprintln!("FAIL {ga_path} lacks checkpoint_overhead/ga_campaign_noop_recorder records");
            failed = true;
        }
    }

    // Absolute GA-campaign floor: the committed `BENCH_ga.json` beside
    // the committed eval file, at the full-chain tolerance. The batched
    // chain's partial lane groups show up here first, since every GA
    // generation ends in one.
    const GA_FLOOR: &str = "ga_campaign_noop_recorder";
    let ga_baseline_path = beside(&baseline_path, "BENCH_ga.json");
    match load(&ga_baseline_path).get(GA_FLOOR) {
        Some(base_min) => {
            failed |= !floor_holds(GA_FLOOR, base_min, ga.get(GA_FLOOR), tolerance, &ga_path);
        }
        None => {
            eprintln!("FAIL {ga_baseline_path} lacks {GA_FLOOR}");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Checks one absolute floor, `fresh_min <= base_min * tolerance`, and
/// logs the verdict; a record missing from the fresh run fails.
fn floor_holds(
    name: &str,
    base_min: f64,
    fresh_min: Option<f64>,
    tolerance: f64,
    fresh_path: &str,
) -> bool {
    match fresh_min {
        Some(fresh_min) if fresh_min <= base_min * tolerance => {
            eprintln!("ok   {name:<28} {fresh_min:.3} ms (baseline {base_min:.3} ms)");
            true
        }
        Some(fresh_min) => {
            eprintln!("FAIL {name:<28} {fresh_min:.3} ms exceeds {base_min:.3} ms * {tolerance}");
            false
        }
        None => {
            eprintln!("FAIL {name:<28} missing from {fresh_path}");
            false
        }
    }
}

/// The path of `file` in the directory holding `path`.
fn beside(path: &str, file: &str) -> String {
    std::path::Path::new(path)
        .with_file_name(file)
        .to_string_lossy()
        .into_owned()
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\nusage: bench_gate <committed.json> <fresh.json> [tolerance]");
    std::process::exit(2);
}
