//! End-to-end campaign benchmark for emvolt.
//!
//! Three closed-loop workloads, each one named paper campaign run back
//! to back for a fixed time (see `README.md` in this directory for why
//! each exists). An untraced run reports the end-to-end metrics; a
//! traced run (`trace = true`) wraps the backend and campaign in timing
//! probes, repeats the requests of one campaign through each layer's
//! public functions, and reports the per-layer ledger.

pub mod layers;
pub mod probe;
pub mod stats;
pub mod workloads;

use crate::layers::LayerTimes;
use crate::stats::{median, quantile};
use crate::workloads::{Bench, Characterize, GaReplay, GaVirus, Outcome, Traced};
use emvolt_platform::DomainError;
use emvolt_simd::SimdLevel;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The EM-driven GA virus search on a live backend.
    GaVirus,
    /// Resonance sweeps and V_MIN ladders on every platform.
    Characterize,
    /// The GA campaign replayed from a recorded trace, checkpointing.
    GaReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::GaVirus,
        Workload::Characterize,
        Workload::GaReplay,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GaVirus => "ga_virus",
            Workload::Characterize => "characterize",
            Workload::GaReplay => "ga_replay",
        }
    }
}

/// Problem sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`]
/// serves the self-tests.
#[derive(Debug, Clone)]
pub struct Scale {
    /// GA population.
    pub population: usize,
    /// GA generations.
    pub generations: usize,
    /// Suite workloads per platform in the V_MIN ladders.
    pub suite_limit: usize,
    /// Set-up repetitions (their median is `setup_s`).
    pub setup_reps: usize,
    /// Set-up repetitions of `ga_replay`, whose set-up records a whole
    /// live campaign.
    pub replay_setup_reps: usize,
    /// Kernels per pass of the lane × SIMD ledger.
    pub ledger_kernels: usize,
    /// Timed passes per ledger cell.
    pub ledger_passes: usize,
}

impl Scale {
    /// The benchmark's size.
    pub fn full() -> Self {
        Scale {
            population: 50,
            generations: 30,
            suite_limit: usize::MAX,
            setup_reps: 15,
            replay_setup_reps: 5,
            ledger_kernels: 48,
            ledger_passes: 3,
        }
    }

    /// A size small enough for tests.
    pub fn tiny() -> Self {
        Scale {
            population: 8,
            generations: 2,
            suite_limit: 1,
            setup_reps: 1,
            replay_setup_reps: 1,
            ledger_kernels: 8,
            ledger_passes: 1,
        }
    }
}

/// Output-check tolerances. The defaults are the benchmark's; tests
/// tighten or perturb them to show that every check can fail.
#[derive(Debug, Clone)]
pub struct Checks {
    /// The GA champion's dominant frequency must lie in this band, Hz.
    pub dominant_band_hz: (f64, f64),
    /// Largest accepted |sweep resonance − impedance peak|, Hz.
    pub resonance_tol_hz: f64,
    /// V_MIN must lie in `[floor_v + margin, start_v − margin]`.
    pub vmin_margin_v: f64,
    /// XORed into the GA seed of the threads=1 lanes=1 reference run.
    pub reference_seed_xor: u64,
    /// XORed into the recorded champion's fitness bits before comparing.
    pub expected_fitness_bits_xor: u64,
    /// XORed into the fingerprint the checkpoint must carry.
    pub checkpoint_fingerprint_xor: u64,
}

impl Default for Checks {
    fn default() -> Self {
        Checks {
            dominant_band_hz: (50e6, 200e6),
            resonance_tol_hz: 5e6,
            vmin_margin_v: 0.0,
            reference_seed_xor: 0,
            expected_fitness_bits_xor: 0,
            checkpoint_fingerprint_xor: 0,
        }
    }
}

/// Everything one invocation needs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed; every program input derives from it.
    pub seed: u64,
    /// Length of the timed loop, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Output-check tolerances.
    pub checks: Checks,
    /// Scratch directory for the recorded trace and checkpoints.
    pub work_dir: PathBuf,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Check name.
    pub name: String,
    /// Whether it passed.
    pub passed: bool,
    /// What was compared.
    pub detail: String,
}

/// Operations attempted and failed, and the output checks behind them.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: requests, V_MIN runs, campaigns, checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every check, in order; per-campaign checks are kept once per name
    /// (the first failure, else the first pass).
    pub checks: Vec<CheckResult>,
}

impl Tally {
    fn requests(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    fn campaign(&mut self, ok: bool, error: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.record("campaign", false, error.to_string());
        }
    }

    fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.attempted += 1;
        self.failed += u64::from(!passed);
        self.record(name, passed, detail);
    }

    fn record(&mut self, name: &str, passed: bool, detail: String) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if c.passed && !passed => {
                c.passed = false;
                c.detail = detail;
            }
            Some(_) => {}
            None => self.checks.push(CheckResult {
                name: name.to_string(),
                passed,
                detail,
            }),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Host and run identity stamped on every result.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Available parallelism.
    pub nproc: usize,
    /// GA worker threads.
    pub threads: usize,
    /// Resolved lane width.
    pub lanes: usize,
    /// Dispatched SIMD level.
    pub simd_level: &'static str,
    /// Source revision, or `unknown` outside a git checkout.
    pub git_commit: String,
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Traced run?
    pub trace: bool,
    /// Failures and checks.
    pub tally: Tally,
    /// End-to-end metrics common to every workload (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// End-to-end metrics that apply to this workload only (untraced runs).
    pub workload_metrics: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Host and run identity.
    pub stamp: Stamp,
}

impl Report {
    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.checks.iter().all(|c| c.passed)
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// The metrics the result line carries: end-to-end untraced,
    /// per-layer traced.
    pub fn result_metrics(&self) -> &[Metric] {
        if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The stamped record line: identity, every metric with its unit,
    /// the failure tally and every check.
    pub fn record_line(&self) -> String {
        let s = &self.stamp;
        let mut out = String::from("{\"record\": {");
        let _ = write!(
            out,
            "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"threads\": {}, \
             \"lanes\": {}, \"simd_level\": \"{}\", \"git_commit\": \"{}\", \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.workload.name(),
            self.seed,
            self.trace,
            s.nproc,
            s.threads,
            s.lanes,
            s.simd_level,
            json_escape(&s.git_commit),
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
        );
        let mut all: Vec<Metric> = self.result_metrics().to_vec();
        if !self.trace {
            all.extend(self.workload_metrics.iter().cloned());
            all.push(metric("failed_frac", "ratio", self.failed_frac()));
        }
        out.push_str(&metrics_json(&all));
        out.push_str(", \"checks\": [");
        for (i, c) in self.tally.checks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"passed\": {}, \"detail\": \"{}\"}}",
                json_escape(&c.name),
                c.passed,
                json_escape(&c.detail)
            );
        }
        out.push_str("]}}");
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics_json(self.result_metrics())
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// Peak resident set of this process, MB (from `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Builds the workload once, timing it.
fn build(opts: &Options, dir: &Path) -> Result<(Box<dyn Bench>, f64), DomainError> {
    let (seed, scale, checks) = (opts.seed, &opts.scale, &opts.checks);
    let t = Instant::now();
    let bench: Box<dyn Bench> = match opts.workload {
        Workload::GaVirus => Box::new(GaVirus::setup(seed, scale, checks)?),
        Workload::Characterize => Box::new(Characterize::setup(seed, scale, checks)?),
        Workload::GaReplay => Box::new(GaReplay::setup(seed, scale, checks, dir)?),
    };
    Ok((bench, t.elapsed().as_secs_f64()))
}

/// Runs one invocation end to end.
pub fn run(opts: &Options) -> Report {
    let threads = workloads::ga_threads();
    let stamp = Stamp {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        threads,
        lanes: emvolt_simd::preferred_lanes(),
        simd_level: emvolt_simd::level().as_str(),
        git_commit: git_commit(),
    };
    let mut report = Report {
        workload: opts.workload,
        seed: opts.seed,
        trace: opts.trace,
        tally: Tally::default(),
        end_to_end: Vec::new(),
        workload_metrics: Vec::new(),
        per_layer: Vec::new(),
        stamp,
    };
    let (mut bench, first_setup_s) = match build(opts, &opts.work_dir) {
        Ok(b) => b,
        Err(e) => {
            report.tally.check("setup", false, e.to_string());
            return report;
        }
    };
    report.stamp.lanes = bench.lanes();

    let mut setup_s = vec![first_setup_s];
    let timed = timed_loop(bench.as_mut(), opts, &mut setup_s, &mut report.tally);
    let rss = peak_rss_mb();
    bench.final_checks(&mut report.tally);

    let untraced_s: Vec<f64> = timed.untraced.iter().map(|(s, _)| *s).collect();
    let outcomes: Vec<&Outcome> = timed.untraced.iter().map(|(_, o)| o).collect();
    if opts.trace {
        report.per_layer = per_layer(bench.as_ref(), opts, &timed, &mut report.tally);
    } else {
        // Per campaign, so one host stall moves one sample, not the rate.
        let rates: Vec<f64> = timed
            .untraced
            .iter()
            .map(|(s, o)| o.evals as f64 / s.max(f64::MIN_POSITIVE))
            .collect();
        report.end_to_end = vec![
            metric("setup_s", "s", median(&setup_s)),
            metric("campaign_s", "s", median(&untraced_s)),
            metric("evals_per_s", "1/s", median(&rates)),
            metric("peak_rss_mb", "MB", rss),
        ];
        let sims: Vec<f64> = outcomes.iter().map(|o| o.sim_s).collect();
        report
            .workload_metrics
            .push(metric("sim_campaign_s", "s", median(&sims)));
        if let Some(v) = outcomes.iter().find_map(|o| o.virus_dbm) {
            report.workload_metrics.push(metric("virus_dbm", "dBm", v));
        }
        let errs: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.resonance_err_mhz)
            .collect();
        if !errs.is_empty() {
            let worst = errs.iter().copied().fold(0.0, f64::max);
            report
                .workload_metrics
                .push(metric("resonance_err_mhz", "MHz", worst));
        }
    }
    if report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .any(|m| !m.value.is_finite())
    {
        report.tally.check(
            "metrics_finite",
            false,
            "a metric is not a finite number".to_string(),
        );
    }
    report
}

/// What the timed loop produced.
struct Timed {
    /// `(wall seconds, outcome)` of every untraced campaign.
    untraced: Vec<(f64, Outcome)>,
    /// `(wall seconds, outcome)` of every traced campaign.
    traced: Vec<(f64, Outcome)>,
}

/// Runs campaigns back to back for `opts.seconds`. A traced invocation
/// alternates untraced and traced campaigns, so both see the same host
/// conditions; the first traced campaign records its requests.
///
/// The remaining set-up repetitions are spread evenly over the loop (and
/// kept out of the campaign times), so their median samples the whole
/// window rather than one moment of it.
fn timed_loop(
    bench: &mut dyn Bench,
    opts: &Options,
    setup_s: &mut Vec<f64>,
    tally: &mut Tally,
) -> Timed {
    let reps = if opts.workload == Workload::GaReplay {
        opts.scale.replay_setup_reps
    } else {
        opts.scale.setup_reps
    };
    let resetup = |setup_s: &mut Vec<f64>, tally: &mut Tally| {
        let dir = opts.work_dir.join("setup");
        let built = std::fs::create_dir_all(&dir)
            .map_err(|e| DomainError::Backend(format!("create {}: {e}", dir.display())))
            .and_then(|()| build(opts, &dir));
        match built {
            Ok((_, s)) => setup_s.push(s),
            Err(e) => tally.check("setup", false, e.to_string()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    };
    let start = Instant::now();
    let mut timed = Timed {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    loop {
        let traced = opts.trace && timed.traced.len() < timed.untraced.len();
        let record = traced && timed.traced.is_empty();
        let t = Instant::now();
        let out = bench.campaign(traced, record, tally);
        let dt = t.elapsed().as_secs_f64();
        if traced {
            timed.traced.push((dt, out));
        } else {
            timed.untraced.push((dt, out));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let done = elapsed >= opts.seconds && (!opts.trace || !timed.traced.is_empty());
        while setup_s.len() < reps
            && (done || elapsed >= opts.seconds * setup_s.len() as f64 / reps as f64)
        {
            resetup(setup_s, tally);
        }
        if done {
            break;
        }
    }
    timed
}

/// The per-layer metrics of a traced invocation.
fn per_layer(bench: &dyn Bench, opts: &Options, timed: &Timed, tally: &mut Tally) -> Vec<Metric> {
    let traced: Vec<&Traced> = timed
        .traced
        .iter()
        .filter_map(|(_, o)| o.traced.as_ref())
        .collect();
    let n = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Traced) -> f64| traced.iter().map(|t| f(t)).sum::<f64>() / n;
    let calls = traced
        .first()
        .map(|t| t.backend.calls.as_slice())
        .unwrap_or(&[]);
    let recorded_busy = traced.first().map_or(0.0, |t| t.backend.busy_s);

    let mut layers = match bench.layer_times(calls) {
        Ok(l) => l,
        Err(e) => {
            tally.check("layer_ledger", false, e.to_string());
            LayerTimes::default()
        }
    };
    let coverage = if recorded_busy > 0.0 {
        layers.chain_s() / recorded_busy
    } else {
        0.0
    };
    if let Err(e) = bench.anchor_times(&mut layers) {
        tally.check("layer_ledger", false, e.to_string());
    }
    let plan_s = bench.plan_s().unwrap_or(f64::NAN) + layers.plan_s;

    let call_ms: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.backend.call_s.iter().map(|s| s * 1e3))
        .collect();
    let lanes = bench.lanes() as f64;
    let (lane_reqs, lane_batches) = (
        sum(&|t| t.backend.lane_requests as f64),
        sum(&|t| t.backend.lane_batches as f64),
    );
    // Every state-machine call of a GA workload's campaign is the GA's.
    let is_ga = opts.workload != Workload::Characterize;
    let ga = |f: &dyn Fn(&probe::CampaignStats) -> f64| {
        if is_ga {
            sum(&|t| f(&t.campaign))
        } else {
            0.0
        }
    };
    let mut distinct = std::collections::HashSet::new();
    let mut ga_evals = 0u64;
    for call in calls.iter().filter(|c| c.lanes) {
        for r in &call.requests {
            if let Some((k, _)) = &r.kernel {
                distinct.insert(emvolt_backend::kernel_fingerprint(k));
                ga_evals += 1;
            }
        }
    }
    let untraced_s: Vec<f64> = timed.untraced.iter().map(|(s, _)| *s).collect();
    let traced_s: Vec<f64> = timed.traced.iter().map(|(s, _)| *s).collect();

    let mut out = vec![
        metric("cpu.simulate_calls", "count", layers.cpu_calls as f64),
        metric("cpu.simulate_s", "s", layers.cpu_s),
        metric("pdn.plan_s", "s", plan_s),
        metric("pdn.transient_s", "s", layers.transient_s),
        metric("pdn.transient_batch_s", "s", layers.transient_batch_s),
        metric("dsp.band_s", "s", layers.dsp_s),
        metric("em.channel_s", "s", layers.em_s),
        metric("inst.analyzer_s", "s", layers.inst_s),
        metric("platform.eval_ms_p50", "ms", quantile(&layers.eval_ms, 0.5)),
        metric(
            "platform.eval_ms_p99",
            "ms",
            quantile(&layers.eval_ms, 0.99),
        ),
        metric(
            "platform.lane_eval_ms",
            "ms",
            if layers.lane_evals > 0 {
                layers.lane_eval_s * 1e3 / layers.lane_evals as f64
            } else {
                0.0
            },
        ),
        metric(
            "backend.requests",
            "count",
            sum(&|t| t.backend.requests as f64),
        ),
        metric(
            "backend.batches",
            "count",
            sum(&|t| t.backend.batches as f64),
        ),
        metric("backend.busy_s", "s", sum(&|t| t.backend.busy_s)),
        metric("backend.batch_ms_p50", "ms", quantile(&call_ms, 0.5)),
        metric("backend.batch_ms_p99", "ms", quantile(&call_ms, 0.99)),
        metric("backend.failed", "count", sum(&|t| t.backend.failed as f64)),
        metric(
            "backend.lane_occupancy",
            "ratio",
            if lane_batches > 0.0 {
                lane_reqs / (lane_batches * lanes)
            } else {
                0.0
            },
        ),
        metric("backend.trace_load_s", "s", bench.trace_load_s()),
        metric("ga.next_batch_s", "s", ga(&|c| c.next_batch_s)),
        metric("ga.absorb_s", "s", ga(&|c| c.absorb_s)),
        metric(
            "ga.unique_eval_ratio",
            "ratio",
            if ga_evals > 0 {
                distinct.len() as f64 / ga_evals as f64
            } else {
                0.0
            },
        ),
        metric("engine.self_s", "s", sum(&Traced::engine_self_s)),
        metric("engine.snapshot_s", "s", sum(&|t| t.campaign.snapshot_s)),
        metric(
            "engine.checkpoint_renders",
            "count",
            sum(&|t| t.campaign.renders as f64),
        ),
        metric(
            "engine.checkpoint_bytes",
            "B",
            sum(&|t| t.campaign.bytes as f64),
        ),
        metric(
            "core.sweep_points",
            "count",
            sum(&|t| t.sweep_points as f64),
        ),
        metric("core.sweep_s", "s", sum(&|t| t.sweep_s)),
        metric("vmin.runs", "count", sum(&|t| t.vmin_runs as f64)),
        metric("vmin.ladder_s", "s", sum(&|t| t.ladder_s)),
        metric(
            "bench.trace_overhead_frac",
            "ratio",
            median(&traced_s) / median(&untraced_s) - 1.0,
        ),
        metric("bench.layer_coverage", "ratio", coverage),
    ];
    out.extend(lane_ledger(opts, tally));
    out
}

/// The lane × SIMD ledger: ms per evaluation of random GA kernels at
/// lane widths 1, 4 and 8, on the AVX2 and SSE2 tiers (each clamped to
/// what the host supports; the record line names the dispatched level).
fn lane_ledger(opts: &Options, tally: &mut Tally) -> Vec<Metric> {
    let kernels = workloads::random_kernels(
        workloads::derive_seed(opts.seed, "ledger"),
        50,
        opts.scale.ledger_kernels,
    );
    let chain = layers::Chain::new(
        &[emvolt_platform::JunoBoard::new().a72],
        emvolt_platform::RunConfig::fast(),
    );
    let samples = workloads::ga_config(opts.seed, &opts.scale).samples_per_individual;
    let mut out = Vec::new();
    for level in [SimdLevel::Avx2, SimdLevel::Sse2] {
        for lanes in [1, 4, 8] {
            let ms = chain
                .lane_ledger(
                    "A72",
                    &kernels,
                    emvolt_platform::RESONANCE_BAND,
                    samples,
                    level,
                    lanes,
                    opts.scale.ledger_passes,
                )
                .unwrap_or_else(|e| {
                    tally.check("lane_ledger", false, e.to_string());
                    f64::NAN
                });
            out.push(metric(
                format!("platform.lane_eval_ms.{}.l{lanes}", level.as_str()),
                "ms",
                ms,
            ));
        }
    }
    out
}
