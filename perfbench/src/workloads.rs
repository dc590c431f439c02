//! The three closed-loop workloads: set-up, one campaign, output checks.
//!
//! Each workload keeps one campaign in flight; the next starts when the
//! previous one returns. Set-up builds everything a campaign reuses, so
//! the timed loop measures campaigns alone.

use crate::layers::{Chain, LayerTimes};
use crate::probe::{BackendStats, CampaignStats, Probe, RecordedCall, TimedCampaign};
use crate::{Checks, Scale, Tally};
use emvolt_backend::{
    BandSpec, LiveBackend, Load, MeasureRequest, MeasurementBackend, RecordBackend, ReplayBackend,
};
use emvolt_core::{
    fast_resonance_sweep_on, generate_em_virus_resumable, FastSweepConfig, FastSweepResult,
    SweepCampaign, Virus, VirusCampaign, VirusGenConfig,
};
use emvolt_engine::{drive, Campaign, Checkpoint, DriveOptions, DriveOutcome, NullBackend};
use emvolt_ga::{GaConfig, KernelRepresentation, Representation};
use emvolt_isa::kernels::resonant_stress_kernel;
use emvolt_isa::{InstructionPool, Isa, Kernel};
use emvolt_obs::Telemetry;
use emvolt_pdn::{lin_freqs, strongest_peak_in_band};
use emvolt_platform::{
    desktop_suite, spec2006_suite, AmdDesktop, DomainError, EmBench, JunoBoard, RunConfig,
    VoltageDomain, RESONANCE_BAND,
};
use emvolt_vmin::{vmin_test, FailureModel, VminCampaign, VminConfig, VminResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Campaign name (part of the checkpoint fingerprint).
const NAME: &str = "perfbench";
/// The GA's domain.
const GA_DOMAIN: &str = "A72";

/// Derives an independent seed for one consumer of the workload seed.
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer over seed ^ tag hash.
    let mut z = (seed ^ h).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker threads the GA uses: the host's parallelism, capped at two.
pub fn ga_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

/// What one traced campaign spent, layer by layer.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Wall seconds inside `drive`.
    pub drive_s: f64,
    /// The campaign's own methods.
    pub campaign: CampaignStats,
    /// The backend's calls.
    pub backend: BackendStats,
    /// Characterize only: sweep points, sweep seconds, V_MIN runs, ladder seconds.
    pub sweep_points: u64,
    /// Seconds of sweep campaigns.
    pub sweep_s: f64,
    /// V_MIN campaigns run.
    pub vmin_runs: u64,
    /// Seconds in V_MIN rungs after the anchor.
    pub ladder_s: f64,
}

impl Traced {
    /// Wall seconds of the engine's own work: drive time not spent in
    /// the campaign's methods or waiting on the backend.
    pub fn engine_self_s(&self) -> f64 {
        self.drive_s - self.campaign.self_s() - self.backend.wall_s
    }

    fn add(&mut self, drive_s: f64, campaign: &CampaignStats, backend: BackendStats) {
        self.drive_s += drive_s;
        let c = &mut self.campaign;
        c.next_batch_s += campaign.next_batch_s;
        c.absorb_s += campaign.absorb_s;
        c.snapshot_s += campaign.snapshot_s;
        c.renders += campaign.renders;
        c.bytes += campaign.bytes;
        c.batches += campaign.batches;
        let b = &mut self.backend;
        b.requests += backend.requests;
        b.failed += backend.failed;
        b.batches += backend.batches;
        b.lane_batches += backend.lane_batches;
        b.lane_requests += backend.lane_requests;
        b.busy_s += backend.busy_s;
        b.wall_s += backend.wall_s;
        b.call_s.extend(backend.call_s);
        b.calls.extend(backend.calls);
    }
}

/// What one campaign produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Chain evaluations completed (backend requests plus V_MIN domain runs).
    pub evals: u64,
    /// Simulated lab seconds the campaign would take on the rig.
    pub sim_s: f64,
    /// Champion fitness, dBm (GA workloads).
    pub virus_dbm: Option<f64>,
    /// Max over platforms of the sweep's resonance error, MHz (characterize).
    pub resonance_err_mhz: Option<f64>,
    /// Present when the campaign ran traced.
    pub traced: Option<Traced>,
}

/// The GA configuration both GA workloads use.
pub fn ga_config(seed: u64, scale: &Scale) -> VirusGenConfig {
    VirusGenConfig {
        ga: GaConfig {
            population: scale.population,
            generations: scale.generations,
            seed: derive_seed(seed, "ga"),
            ..GaConfig::default()
        },
        kernel_len: 50,
        // Five analyzer sweeps per individual, as `emvolt virus` runs it.
        samples_per_individual: 5,
        threads: ga_threads(),
        lanes: 0,
        ..VirusGenConfig::default()
    }
}

/// `n` random A72 kernels of the GA's length, from `seed`.
pub fn random_kernels(seed: u64, len: usize, n: usize) -> Vec<Kernel> {
    let repr = KernelRepresentation::new(InstructionPool::default_for(Isa::ArmV8), len);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| repr.random(&mut rng)).collect()
}

fn ga_request(kernel: &Kernel, seed: Option<u64>) -> MeasureRequest<'_> {
    MeasureRequest {
        domain: GA_DOMAIN,
        load: Load::Kernel {
            kernel,
            loaded_cores: 1,
        },
        freq_hz: None,
        band: BandSpec::Explicit {
            lo_hz: RESONANCE_BAND.0,
            hi_hz: RESONANCE_BAND.1,
        },
        samples: 3,
        seed,
    }
}

/// Runs one EM virus campaign over `backend`; traced, it drives the
/// same `VirusCampaign` that `generate_em_virus_resumable` builds,
/// through the timing wrappers.
fn virus_campaign<B: MeasurementBackend>(
    backend: &mut Probe<B>,
    cfg: &VirusGenConfig,
    opts: &DriveOptions,
    traced: bool,
) -> Result<(Virus, Option<Traced>), DomainError> {
    if !traced {
        let virus = generate_em_virus_resumable(NAME, backend, GA_DOMAIN, cfg, opts, |_| {})?
            .ok_or_else(|| DomainError::Backend("campaign interrupted".to_string()))?;
        return Ok((virus, None));
    }
    backend
        .configure_run(&cfg.run)
        .map_err(emvolt_backend::BackendError::into_domain_error)?;
    let isa = backend
        .domain_info(GA_DOMAIN)
        .ok_or_else(|| DomainError::Backend(format!("unknown domain `{GA_DOMAIN}`")))?
        .isa;
    let mut campaign = VirusCampaign::new(NAME, GA_DOMAIN, isa, cfg, opts.lanes, |_| {});
    let mut timed = TimedCampaign::new(&mut campaign);
    let t = Instant::now();
    let outcome = drive(backend, &mut timed, opts)?;
    let drive_s = t.elapsed().as_secs_f64();
    let stats = timed.stats();
    if outcome != DriveOutcome::Complete {
        return Err(DomainError::Backend("campaign interrupted".to_string()));
    }
    let virus = campaign.into_virus(backend)?;
    let mut traced = Traced::default();
    traced.add(drive_s, &stats, backend.take());
    Ok((virus, Some(traced)))
}

fn same_champion(a: &Virus, b: &Virus) -> bool {
    a.kernel == b.kernel && a.fitness.to_bits() == b.fitness.to_bits()
}

/// A workload ready to run campaigns.
pub trait Bench {
    /// Runs one campaign (traced or not), recording its failures and
    /// per-campaign checks in `tally`.
    fn campaign(&mut self, traced: bool, record: bool, tally: &mut Tally) -> Outcome;
    /// Checks made once, outside the timed loop.
    fn final_checks(&mut self, tally: &mut Tally);
    /// The measurement chain the workload's backend runs, or `None`
    /// when the backend does no physics.
    fn chain(&self) -> Option<&Chain>;
    /// The per-layer stage times of the recorded traced campaign.
    ///
    /// # Errors
    ///
    /// A simulation failure.
    fn layer_times(&self, calls: &[RecordedCall]) -> Result<LayerTimes, DomainError> {
        let Some(chain) = self.chain() else {
            return Ok(LayerTimes::default());
        };
        let mut times = chain.replay_stages(calls)?;
        chain.replay_chain(calls, &mut times)?;
        Ok(times)
    }
    /// Adds the stage times of work a campaign does outside the
    /// backend (the V_MIN anchor runs) to `times`.
    ///
    /// # Errors
    ///
    /// A simulation failure.
    fn anchor_times(&self, _times: &mut LayerTimes) -> Result<(), DomainError> {
        Ok(())
    }
    /// Seconds to build the transient plans set-up builds.
    fn plan_s(&self) -> Result<f64, DomainError>;
    /// Seconds loading the recorded trace (replay only).
    fn trace_load_s(&self) -> f64 {
        0.0
    }
    /// Resolved lane width of lane-dispatched batches.
    fn lanes(&self) -> usize;
}

fn drive_opts(threads: usize) -> DriveOptions {
    DriveOptions::pool(threads, emvolt_simd::preferred_lanes())
}

// ---------------------------------------------------------------- ga_virus

/// `ga_virus`: the paper's headline GA on the A72 over a live backend.
pub struct GaVirus {
    cfg: VirusGenConfig,
    opts: DriveOptions,
    backend: Probe<LiveBackend>,
    rig: Vec<(String, String)>,
    rig_seed: u64,
    chain: Chain,
    checks: Checks,
    champions: Vec<Virus>,
}

impl GaVirus {
    /// Builds the domain, the backend and its warm evaluation slots.
    ///
    /// # Errors
    ///
    /// A simulation failure while warming up.
    pub fn setup(seed: u64, scale: &Scale, checks: &Checks) -> Result<Self, DomainError> {
        let cfg = ga_config(seed, scale);
        let rig_seed = derive_seed(seed, "rig");
        let domain = JunoBoard::new().a72;
        let mut live = LiveBackend::single(domain.clone(), EmBench::new(rig_seed), cfg.run.clone());
        let rig = warm(&mut live, &cfg.run, derive_seed(seed, "warm"))?;
        Ok(GaVirus {
            opts: drive_opts(cfg.threads),
            chain: Chain::new(&[domain], cfg.run.clone()),
            cfg,
            backend: Probe::new(live, false, false),
            rig,
            rig_seed,
            checks: checks.clone(),
            champions: Vec::new(),
        })
    }
}

/// The live rig's analyzer-noise stream, without its occupancy clock:
/// the clock only counts forward, so rewinding it is refused, and the
/// noise stream alone decides every reading.
fn noise_state(live: &LiveBackend) -> Vec<(String, String)> {
    live.rig_state()
        .into_iter()
        .filter(|(key, _)| key == "rig_rng")
        .collect()
}

/// Warms a live backend's pooled and serial evaluation slots, returning
/// the noise state from before the warm-up so every campaign starts from
/// the same analyzer noise stream.
fn warm(
    live: &mut LiveBackend,
    run: &RunConfig,
    seed: u64,
) -> Result<Vec<(String, String)>, DomainError> {
    live.configure_run(run)
        .map_err(emvolt_backend::BackendError::into_domain_error)?;
    let rig = noise_state(live);
    let kernels = random_kernels(seed, 50, emvolt_simd::preferred_lanes());
    let reqs: Vec<MeasureRequest<'_>> = kernels
        .iter()
        .enumerate()
        .map(|(i, k)| ga_request(k, Some(i as u64)))
        .collect();
    let noop = Telemetry::noop();
    for r in live.measure_batch(&reqs, &noop) {
        r.map_err(emvolt_backend::BackendError::into_domain_error)?;
    }
    live.measure_serial(&ga_request(&kernels[0], None), &noop)
        .map_err(emvolt_backend::BackendError::into_domain_error)?;
    live.restore_rig_state(&rig)
        .map_err(emvolt_backend::BackendError::into_domain_error)?;
    Ok(rig)
}

impl Bench for GaVirus {
    fn campaign(&mut self, traced: bool, record: bool, tally: &mut Tally) -> Outcome {
        self.backend.set_mode(traced, record);
        let mut out = Outcome::default();
        let result = self
            .backend
            .restore_rig_state(&self.rig)
            .map_err(emvolt_backend::BackendError::into_domain_error)
            .and_then(|()| virus_campaign(&mut self.backend, &self.cfg, &self.opts, traced));
        let (requests, failed) = match &result {
            Ok((_, Some(t))) => (t.backend.requests, t.backend.failed),
            _ => (self.backend.requests(), self.backend.failed()),
        };
        self.backend.take();
        tally.requests(requests, failed);
        match result {
            Ok((virus, t)) => {
                tally.campaign(true, "");
                out.evals = requests;
                out.sim_s = virus.campaign.seconds();
                out.virus_dbm = Some(virus.fitness);
                out.traced = t;
                self.champions.push(virus);
            }
            Err(e) => tally.campaign(false, &e.to_string()),
        }
        out
    }

    fn final_checks(&mut self, tally: &mut Tally) {
        let Some(champion) = self.champions.first() else {
            return;
        };
        let (lo, hi) = self.checks.dominant_band_hz;
        tally.check(
            "ga_virus.dominant_in_band",
            (lo..=hi).contains(&champion.dominant_hz),
            format!(
                "dominant {:.1} MHz, band {:.0}-{:.0} MHz",
                champion.dominant_hz / 1e6,
                lo / 1e6,
                hi / 1e6
            ),
        );
        let mut cfg = self.cfg.clone();
        cfg.ga.seed ^= self.checks.reference_seed_xor;
        let domain = JunoBoard::new().a72;
        let live = LiveBackend::single(domain, EmBench::new(self.rig_seed), cfg.run.clone());
        let mut reference = Probe::new(live, false, false);
        let result = virus_campaign(&mut reference, &cfg, &DriveOptions::pool(1, 1), false);
        match result {
            Ok((virus, _)) => tally.check(
                "ga_virus.matches_serial_reference",
                self.champions.iter().all(|c| same_champion(c, &virus)),
                format!(
                    "{} campaign champions ({:.6} dBm) vs threads=1 lanes=1 reference {:.6} dBm",
                    self.champions.len(),
                    champion.fitness,
                    virus.fitness
                ),
            ),
            Err(e) => tally.check("ga_virus.matches_serial_reference", false, e.to_string()),
        }
    }

    fn chain(&self) -> Option<&Chain> {
        Some(&self.chain)
    }

    fn plan_s(&self) -> Result<f64, DomainError> {
        self.chain.plan_seconds(&[GA_DOMAIN])
    }

    fn lanes(&self) -> usize {
        self.opts.lanes
    }
}

// ------------------------------------------------------------ characterize

/// One platform of the characterize workload.
struct Platform {
    domain: VoltageDomain,
    backend: Probe<LiveBackend>,
    rig: Vec<(String, String)>,
    sweep: FastSweepConfig,
    /// First-order resonance of the PDN's impedance sweep, Hz.
    reference_hz: f64,
    model: FailureModel,
    /// `(name, kernel, config)` per V_MIN ladder.
    ladders: Vec<(String, Kernel, VminConfig)>,
}

/// `characterize`: the serial resonance sweep and the V_MIN ladders on
/// every platform.
pub struct Characterize {
    platforms: Vec<Platform>,
    chain: Chain,
    checks: Checks,
}

impl Characterize {
    /// Builds the three platforms, their backends, sweep plans, suite
    /// kernels and impedance references.
    ///
    /// # Errors
    ///
    /// A simulation failure while warming up.
    pub fn setup(seed: u64, scale: &Scale, checks: &Checks) -> Result<Self, DomainError> {
        let board = JunoBoard::new();
        let specs = [
            (board.a72, FailureModel::juno_a72(), Isa::ArmV8),
            (board.a53, FailureModel::juno_a53(), Isa::ArmV8),
            (AmdDesktop::new().domain, FailureModel::amd(), Isa::X86_64),
        ];
        let mut platforms = Vec::new();
        let mut domains = Vec::new();
        for (domain, model, isa) in specs {
            let name = domain.name().to_string();
            let sweep = FastSweepConfig::for_domain(&domain);
            let rig_seed = derive_seed(seed, &format!("rig.{name}"));
            let mut live =
                LiveBackend::single(domain.clone(), EmBench::new(rig_seed), sweep.run.clone());
            live.configure_run(&sweep.run)
                .map_err(emvolt_backend::BackendError::into_domain_error)?;
            let rig = noise_state(&live);
            // Warm the serial slot with one DVFS point, then rewind the rig.
            let kernel = emvolt_isa::kernels::sweep_kernel(isa);
            let warm_req = MeasureRequest {
                domain: &name,
                load: Load::Kernel {
                    kernel: &kernel,
                    loaded_cores: sweep.loaded_cores,
                },
                freq_hz: sweep.cpu_freqs_hz.first().copied(),
                band: BandSpec::AroundLoop {
                    halfwidth_hz: sweep.marker_halfwidth_hz,
                },
                samples: sweep.samples_per_point,
                seed: None,
            };
            live.measure_serial(&warm_req, &Telemetry::noop())
                .map_err(emvolt_backend::BackendError::into_domain_error)?;
            live.restore_rig_state(&rig)
                .map_err(emvolt_backend::BackendError::into_domain_error)?;

            let z = domain
                .build_pdn()
                .impedance_sweep(&lin_freqs(20e6, 300e6, 0.25e6))?;
            let reference_hz =
                strongest_peak_in_band(&z, 20e6, 300e6).map_or(f64::NAN, |p| p.frequency_hz);

            let suite = if isa == Isa::X86_64 {
                desktop_suite()
            } else {
                spec2006_suite(isa)
            };
            let stress = if isa == Isa::X86_64 {
                resonant_stress_kernel(isa, 16, 40)
            } else {
                resonant_stress_kernel(isa, 12, 17)
            };
            let vmin_seed = derive_seed(seed, &format!("vmin.{name}"));
            let base = VminConfig {
                start_v: domain.voltage(),
                floor_v: domain.voltage() - 0.35,
                loaded_cores: 2,
                ..VminConfig::default()
            };
            let mut ladders: Vec<(String, Kernel, VminConfig)> = suite
                .into_iter()
                .take(scale.suite_limit)
                .enumerate()
                .map(|(i, w)| {
                    let cfg = VminConfig {
                        trials: 2,
                        seed: vmin_seed ^ i as u64,
                        ..base.clone()
                    };
                    (w.name, w.kernel, cfg)
                })
                .collect();
            ladders.push((
                "resonant_stress".to_string(),
                stress,
                VminConfig {
                    trials: 5,
                    seed: vmin_seed ^ 0xffff,
                    ..base.clone()
                },
            ));
            domains.push(domain.clone());
            platforms.push(Platform {
                domain,
                backend: Probe::new(live, false, false),
                rig,
                sweep,
                reference_hz,
                model,
                ladders,
            });
        }
        Ok(Characterize {
            chain: Chain::new(&domains, RunConfig::fast()),
            platforms,
            checks: checks.clone(),
        })
    }

    fn sweep(
        p: &mut Platform,
        traced: bool,
    ) -> Result<(FastSweepResult, Option<Traced>), DomainError> {
        let name = p.domain.name().to_string();
        if !traced {
            return Ok((
                fast_resonance_sweep_on(&mut p.backend, &name, &p.sweep)?,
                None,
            ));
        }
        let t0 = Instant::now();
        p.backend
            .configure_run(&p.sweep.run)
            .map_err(emvolt_backend::BackendError::into_domain_error)?;
        let info = p
            .backend
            .domain_info(&name)
            .ok_or_else(|| DomainError::Backend(format!("unknown domain `{name}`")))?;
        let mut campaign = SweepCampaign::new(&name, info.isa, info.max_frequency_hz, &p.sweep);
        let mut timed = TimedCampaign::new(&mut campaign);
        let t = Instant::now();
        let outcome = drive(&mut p.backend, &mut timed, &DriveOptions::default())?;
        let drive_s = t.elapsed().as_secs_f64();
        let stats = timed.stats();
        if outcome != DriveOutcome::Complete {
            return Err(DomainError::Backend("sweep interrupted".to_string()));
        }
        let result = campaign.into_result(&mut p.backend)?;
        let mut traced = Traced::default();
        traced.add(drive_s, &stats, p.backend.take());
        traced.sweep_points = result.points.len() as u64;
        traced.sweep_s = t0.elapsed().as_secs_f64();
        Ok((result, Some(traced)))
    }

    fn vmin(
        domain: &VoltageDomain,
        kernel: &Kernel,
        model: &FailureModel,
        cfg: &VminConfig,
        traced: Option<&mut Traced>,
    ) -> Result<VminResult, DomainError> {
        let Some(traced) = traced else {
            return vmin_test(domain, kernel, model, cfg);
        };
        let mut campaign = VminCampaign::new(domain, kernel, model, cfg, Telemetry::noop());
        let mut timed = TimedCampaign::new(&mut campaign);
        let mut backend = Probe::new(NullBackend, true, false);
        let t = Instant::now();
        let outcome = drive(&mut backend, &mut timed, &DriveOptions::default())?;
        let drive_s = t.elapsed().as_secs_f64();
        let stats = timed.stats();
        if outcome != DriveOutcome::Complete {
            return Err(DomainError::Backend("ladder interrupted".to_string()));
        }
        traced.add(drive_s, &stats, backend.take());
        traced.vmin_runs += 1;
        traced.ladder_s += stats.absorb_s - stats.first_absorb_s;
        campaign.into_result()
    }
}

impl Bench for Characterize {
    fn campaign(&mut self, traced: bool, record: bool, tally: &mut Tally) -> Outcome {
        let mut out = Outcome {
            traced: traced.then(Traced::default),
            ..Outcome::default()
        };
        let mut worst_err = 0.0f64;
        let mut ok = true;
        let mut error = String::new();
        let checks = &self.checks;
        for p in &mut self.platforms {
            p.backend.set_mode(traced, record);
            if let Err(e) = p.backend.restore_rig_state(&p.rig) {
                ok = false;
                error = e.to_string();
                continue;
            }
            let swept = Self::sweep(p, traced);
            let (requests, failed) = match &swept {
                Ok((_, Some(t))) => (t.backend.requests, t.backend.failed),
                _ => (p.backend.requests(), p.backend.failed()),
            };
            p.backend.take();
            tally.requests(requests, failed);
            out.evals += requests;
            match swept {
                Ok((sweep, t)) => {
                    out.sim_s += sweep.campaign.seconds();
                    let err_hz = (sweep.resonance_hz - p.reference_hz).abs();
                    worst_err = worst_err.max(err_hz / 1e6);
                    tally.check(
                        &format!("characterize.{}.resonance", p.domain.name()),
                        err_hz <= checks.resonance_tol_hz,
                        format!(
                            "sweep {:.2} MHz vs impedance peak {:.2} MHz (tolerance {:.2} MHz)",
                            sweep.resonance_hz / 1e6,
                            p.reference_hz / 1e6,
                            checks.resonance_tol_hz / 1e6
                        ),
                    );
                    if let (Some(acc), Some(t)) = (out.traced.as_mut(), t) {
                        acc.add(t.drive_s, &t.campaign, t.backend);
                        acc.sweep_points += t.sweep_points;
                        acc.sweep_s += t.sweep_s;
                    }
                }
                Err(e) => {
                    ok = false;
                    error = e.to_string();
                }
            }
            for (name, kernel, cfg) in &p.ladders {
                let result = Self::vmin(&p.domain, kernel, &p.model, cfg, out.traced.as_mut());
                tally.requests(1, u64::from(result.is_err()));
                out.evals += 1;
                match result {
                    Ok(r) => {
                        let (lo, hi) = (
                            cfg.floor_v + checks.vmin_margin_v,
                            cfg.start_v - checks.vmin_margin_v,
                        );
                        tally.check(
                            &format!("characterize.{}.{name}.vmin", p.domain.name()),
                            (lo..=hi).contains(&r.vmin_v) && r.max_droop_v.is_finite(),
                            format!(
                                "vmin {:.3} V in [{lo:.3}, {hi:.3}] V, droop {:.1} mV",
                                r.vmin_v,
                                r.max_droop_v * 1e3
                            ),
                        );
                    }
                    Err(e) => {
                        ok = false;
                        error = e.to_string();
                    }
                }
            }
        }
        tally.campaign(ok, &error);
        out.resonance_err_mhz = Some(worst_err);
        out
    }

    fn final_checks(&mut self, _tally: &mut Tally) {}

    fn chain(&self) -> Option<&Chain> {
        Some(&self.chain)
    }

    fn anchor_times(&self, times: &mut LayerTimes) -> Result<(), DomainError> {
        for p in &self.platforms {
            for (_, kernel, cfg) in &p.ladders {
                self.chain
                    .anchor(&p.domain, cfg.start_v, kernel, cfg.loaded_cores, times)?;
            }
        }
        Ok(())
    }

    fn plan_s(&self) -> Result<f64, DomainError> {
        let names: Vec<&str> = self.platforms.iter().map(|p| p.domain.name()).collect();
        self.chain.plan_seconds(&names)
    }

    fn lanes(&self) -> usize {
        1
    }
}

// ---------------------------------------------------------------- ga_replay

/// `ga_replay`: the `ga_virus` campaign served from a trace recorded in
/// set-up, checkpointing after every batch.
pub struct GaReplay {
    cfg: VirusGenConfig,
    opts: DriveOptions,
    backend: Probe<ReplayBackend>,
    /// The recorded live champion, as the checks expect it.
    expected: Virus,
    trace: PathBuf,
    checkpoint: PathBuf,
    trace_load_s: f64,
    chain: Chain,
    checks: Checks,
    champion_ok: bool,
}

impl GaReplay {
    /// Records the live campaign into `dir` and loads the trace.
    ///
    /// # Errors
    ///
    /// A simulation or trace-store failure.
    pub fn setup(
        seed: u64,
        scale: &Scale,
        checks: &Checks,
        dir: &Path,
    ) -> Result<Self, DomainError> {
        let cfg = ga_config(seed, scale);
        let opts = drive_opts(cfg.threads);
        let domain = JunoBoard::new().a72;
        let trace = dir.join("ga_replay.trace.jsonl");
        let live = LiveBackend::single(
            domain.clone(),
            EmBench::new(derive_seed(seed, "rig")),
            cfg.run.clone(),
        );
        let mut record = Probe::new(
            RecordBackend::create(live, &trace)
                .map_err(emvolt_backend::BackendError::into_domain_error)?,
            false,
            false,
        );
        let (recorded, _) = virus_campaign(&mut record, &cfg, &opts, false)?;
        drop(record);
        let t = Instant::now();
        let replay =
            ReplayBackend::open(&trace).map_err(emvolt_backend::BackendError::into_domain_error)?;
        let trace_load_s = t.elapsed().as_secs_f64();
        let mut checkpoint = opts.clone();
        checkpoint.checkpoint = Some(dir.join("ga_replay.checkpoint.jsonl"));
        checkpoint.checkpoint_every = 1;
        Ok(GaReplay {
            chain: Chain::new(&[domain], cfg.run.clone()),
            cfg,
            checkpoint: dir.join("ga_replay.checkpoint.jsonl"),
            opts: checkpoint,
            backend: Probe::new(replay, false, false),
            expected: {
                let mut v = recorded;
                v.fitness = f64::from_bits(v.fitness.to_bits() ^ checks.expected_fitness_bits_xor);
                v
            },
            trace,
            trace_load_s,
            checks: checks.clone(),
            champion_ok: true,
        })
    }
}

impl Bench for GaReplay {
    fn campaign(&mut self, traced: bool, record: bool, tally: &mut Tally) -> Outcome {
        let mut out = Outcome::default();
        self.backend.set_mode(traced, record);
        let result = virus_campaign(&mut self.backend, &self.cfg, &self.opts, traced);
        let (requests, failed) = match &result {
            Ok((_, Some(t))) => (t.backend.requests, t.backend.failed),
            _ => (self.backend.requests(), self.backend.failed()),
        };
        self.backend.take();
        tally.requests(requests, failed);
        match result {
            Ok((virus, t)) => {
                tally.campaign(true, "");
                self.champion_ok &= same_champion(&virus, &self.expected);
                out.evals = requests;
                out.sim_s = virus.campaign.seconds();
                out.virus_dbm = Some(virus.fitness);
                out.traced = t;
            }
            Err(e) => tally.campaign(false, &e.to_string()),
        }
        out
    }

    fn final_checks(&mut self, tally: &mut Tally) {
        tally.check(
            "ga_replay.matches_recording",
            self.champion_ok,
            format!(
                "every replayed champion equals the recorded live champion ({:.6} dBm)",
                self.expected.fitness
            ),
        );
        let detail = match self.interrupt_and_resume() {
            Ok(detail) => detail,
            Err(e) => (false, e.to_string()),
        };
        tally.check("ga_replay.checkpoint_resumes", detail.0, detail.1);
    }

    fn chain(&self) -> Option<&Chain> {
        None
    }

    fn plan_s(&self) -> Result<f64, DomainError> {
        self.chain.plan_seconds(&[GA_DOMAIN])
    }

    fn trace_load_s(&self) -> f64 {
        self.trace_load_s
    }

    fn lanes(&self) -> usize {
        self.opts.lanes
    }
}

impl GaReplay {
    /// Stops a replayed campaign half way, reads the checkpoint back
    /// through the engine's reader, checks its kind and fingerprint, and
    /// resumes it to the recorded champion.
    fn interrupt_and_resume(&self) -> Result<(bool, String), DomainError> {
        let store = emvolt_backend::BackendError::into_domain_error;
        let mut opts = self.opts.clone();
        opts.max_batches = Some((self.cfg.ga.generations as u64 / 2).max(1));
        let mut replay = Probe::new(
            ReplayBackend::open(&self.trace).map_err(store)?,
            false,
            false,
        );
        let first =
            generate_em_virus_resumable(NAME, &mut replay, GA_DOMAIN, &self.cfg, &opts, |_| {})?;
        if first.is_some() {
            return Ok((
                false,
                "batch limit did not interrupt the campaign".to_string(),
            ));
        }
        let cp = Checkpoint::read(&self.checkpoint).map_err(DomainError::Checkpoint)?;
        let expected_fp = VirusCampaign::new(
            NAME,
            GA_DOMAIN,
            Isa::ArmV8,
            &self.cfg,
            self.opts.lanes,
            |_| {},
        )
        .fingerprint()
            ^ self.checks.checkpoint_fingerprint_xor;
        if cp.campaign != "virus" || cp.fingerprint != expected_fp {
            return Ok((
                false,
                format!(
                    "checkpoint holds `{}` {:016x}, expected `virus` {expected_fp:016x}",
                    cp.campaign, cp.fingerprint
                ),
            ));
        }
        opts.max_batches = None;
        opts.resume = Some(self.checkpoint.clone());
        let mut replay = Probe::new(
            ReplayBackend::open(&self.trace).map_err(store)?,
            false,
            false,
        );
        let resumed =
            generate_em_virus_resumable(NAME, &mut replay, GA_DOMAIN, &self.cfg, &opts, |_| {})?
                .ok_or_else(|| DomainError::Backend("resumed campaign interrupted".to_string()))?;
        Ok((
            same_champion(&resumed, &self.expected),
            format!(
                "checkpoint after {} batches read back with matching fingerprint; resumed champion {:.6} dBm",
                cp.batches, resumed.fitness
            ),
        ))
    }
}
