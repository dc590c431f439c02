//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a stamped record line followed by the
//! result line (`correct`, `attempted`, `failed`, `metrics`). Exits 1
//! when an output check fails or an operation failed, 2 on bad
//! arguments.

use emvolt_perfbench::{run, Checks, Options, Scale, Workload};
use std::path::{Path, PathBuf};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        scale: Scale::full(),
        checks: Checks::default(),
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

/// Removes the scratch directory when dropped, also when a panic unwinds.
struct WorkDir<'a>(&'a Path);

impl Drop for WorkDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        if let Some(parent) = self.0.parent() {
            // Removed only when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("error: create {}: {e}", opts.work_dir.display());
        std::process::exit(2);
    }
    let report = {
        let _cleanup = WorkDir(&opts.work_dir);
        run(&opts)
    };
    for c in report.tally.checks.iter().filter(|c| !c.passed) {
        eprintln!("check failed: {}: {}", c.name, c.detail);
    }
    println!("{}", report.record_line());
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
