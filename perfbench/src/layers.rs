//! The per-layer ledger: the requests a traced campaign issued, repeated
//! through each layer's public functions with a timer around every call.
//!
//! The live backend evaluates a request as core model → PDN transient →
//! band spectrum → EM channel → analyzer. Each of those stages is a
//! public function of its crate, so the ledger calls them one by one on
//! the same inputs, in the same grouping (a lane group goes through the
//! batched transient, the multi-lane Goertzel and the batched channel),
//! and times each call. The sum of the stage times over
//! `backend.busy_s` is `bench.layer_coverage`: how much of the backend's
//! time the split accounts for.
//!
//! Every band these workloads measure covers well under half of the
//! spectrum's bins, so `SpectralChoice::Auto` takes the Goertzel band
//! path throughout; the ledger times that path.

use crate::probe::{OwnedRequest, RecordedCall};
use emvolt_circuit::{BatchTransientScratch, Stimulus, TransientConfig, TransientScratch};
use emvolt_cpu::{Cpu, SimOutput};
use emvolt_dsp::{
    of_samples_band_into, of_samples_band_multi_into, BandSpectrum, GoertzelScratch, Window,
};
use emvolt_em::EmChannel;
use emvolt_inst::{AnalyzerConfig, SpectrumAnalyzer};
use emvolt_isa::Kernel;
use emvolt_obs::Telemetry;
use emvolt_pdn::Pdn;
use emvolt_platform::{
    DomainError, DomainRun, DomainRunner, EmBench, MeasureScratch, RunConfig, SharedEmBench,
    VoltageDomain,
};
use emvolt_simd::SimdLevel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Stage times of the requests one campaign issued.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `Cpu::simulate` calls (lane groups reuse a duplicate kernel's
    /// simulation, as the platform does).
    pub cpu_calls: u64,
    /// Seconds in `Cpu::simulate`.
    pub cpu_s: f64,
    /// Seconds building transient plans.
    pub plan_s: f64,
    /// Seconds in serial `Pdn::transient_scoped`.
    pub transient_s: f64,
    /// Seconds in lane-group `Pdn::transient_batch`.
    pub transient_batch_s: f64,
    /// Seconds in the Goertzel band spectrum (serial and multi-lane).
    pub dsp_s: f64,
    /// Seconds propagating bands through the EM channel.
    pub em_s: f64,
    /// Seconds in the analyzer's peak metric.
    pub inst_s: f64,
    /// Per-request wall time of the whole serial chain
    /// (`DomainRunner::run_into` + `SharedEmBench::measure_in_band_seeded_with`), ms.
    pub eval_ms: Vec<f64>,
    /// Seconds in `DomainRunner::run_measure_batch_into` over every lane group.
    pub lane_eval_s: f64,
    /// Lanes those groups held.
    pub lane_evals: u64,
}

impl LayerTimes {
    /// Sum of the stage times the backend's calls are made of.
    pub fn chain_s(&self) -> f64 {
        self.cpu_s
            + self.transient_s
            + self.transient_batch_s
            + self.dsp_s
            + self.em_s
            + self.inst_s
    }
}

/// Everything the ledger needs to repeat requests: the domains by name,
/// the run configuration and the measurement rig's fixed parts.
pub struct Chain {
    domains: HashMap<String, VoltageDomain>,
    run: RunConfig,
    tcfg: TransientConfig,
    channel: EmChannel,
    analyzer: AnalyzerConfig,
    shared: SharedEmBench,
}

/// Per-domain PDN state for the stage-by-stage replay.
struct PdnState {
    pdn: Pdn,
    plan: emvolt_circuit::TransientPlan,
    scratch: TransientScratch,
    batch: BatchTransientScratch,
}

/// Scratch for the spectral stages.
#[derive(Default)]
struct SpectralScratch {
    goertzel: GoertzelScratch,
    i_band: BandSpectrum,
    rx_band: BandSpectrum,
    i_bands: Vec<BandSpectrum>,
    rx_bands: Vec<BandSpectrum>,
    transfer: Vec<f64>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Chain {
    /// A chain over `domains` at `run` fidelity, with the stock rig.
    pub fn new(domains: &[VoltageDomain], run: RunConfig) -> Self {
        let tcfg = TransientConfig::new(run.pdn_dt, run.pdn_warmup + run.pdn_window)
            .with_warmup(run.pdn_warmup);
        let bench = EmBench::new(0);
        Chain {
            domains: domains
                .iter()
                .map(|d| (d.name().to_string(), d.clone()))
                .collect(),
            run,
            tcfg,
            channel: bench.channel.clone(),
            analyzer: bench.analyzer.config().clone(),
            shared: bench.share(),
        }
    }

    fn domain(&self, name: &str) -> Result<&VoltageDomain, DomainError> {
        self.domains
            .get(name)
            .ok_or_else(|| DomainError::Backend(format!("ledger knows no domain `{name}`")))
    }

    /// Band edges widened by the analyzer's RBW skirt, as the platform
    /// widens them before the Goertzel pass.
    fn widened(&self, lo: f64, hi: f64) -> (f64, f64) {
        let margin = 4.0 * (self.analyzer.rbw_hz / 2.355);
        (lo - margin, hi + margin)
    }

    /// Builds one domain's transient plan, timing it.
    fn plan(
        &self,
        domain: &VoltageDomain,
        times: &mut LayerTimes,
    ) -> Result<PdnState, DomainError> {
        let pdn = domain.build_pdn();
        let t = Instant::now();
        let plan =
            pdn.plan_transient_kernel_with(self.run.pdn_dt, self.run.kernel, &Telemetry::noop())?;
        times.plan_s += secs(t);
        Ok(PdnState {
            pdn,
            plan,
            scratch: TransientScratch::new(),
            batch: BatchTransientScratch::new(),
        })
    }

    /// Seconds to build one transient plan per named domain.
    pub fn plan_seconds(&self, names: &[&str]) -> Result<f64, DomainError> {
        let mut times = LayerTimes::default();
        for name in names {
            self.plan(self.domain(name)?, &mut times)?;
        }
        Ok(times.plan_s)
    }

    /// Simulates `kernel` on `domain` at `freq_hz`, timing the core model.
    fn simulate(
        &self,
        domain: &VoltageDomain,
        freq_hz: f64,
        kernel: &Kernel,
        times: &mut LayerTimes,
    ) -> Result<SimOutput, DomainError> {
        let cpu = Cpu::new(domain.core_model().clone(), freq_hz);
        let t = Instant::now();
        let sim = cpu.simulate(kernel, &self.run.sim)?;
        times.cpu_s += secs(t);
        times.cpu_calls += 1;
        Ok(sim)
    }

    /// The cluster load the platform builds from one core's draw.
    fn cluster_load(domain: &VoltageDomain, sim: &SimOutput, loaded_cores: usize) -> Stimulus {
        let idle_extra = domain.active_cores().saturating_sub(loaded_cores) as f64
            * domain.core_model().idle_current;
        let total: Vec<f64> = sim
            .current
            .samples()
            .iter()
            .map(|&i| i * loaded_cores as f64 + idle_extra)
            .collect();
        Stimulus::Samples {
            dt: sim.current.dt(),
            values: Arc::from(total),
            repeat: true,
        }
    }

    /// Repeats every recorded call stage by stage.
    ///
    /// # Errors
    ///
    /// A simulation failure in any stage.
    pub fn replay_stages(&self, calls: &[RecordedCall]) -> Result<LayerTimes, DomainError> {
        let mut times = LayerTimes::default();
        let mut pdns: HashMap<String, PdnState> = HashMap::new();
        let mut spec = SpectralScratch::default();
        for call in calls {
            let Some(first) = call.requests.first() else {
                continue;
            };
            if !pdns.contains_key(&first.domain) {
                let state = self.plan(self.domain(&first.domain)?, &mut LayerTimes::default())?;
                pdns.insert(first.domain.clone(), state);
            }
            let state = pdns.get_mut(&first.domain).expect("inserted above");
            if call.lanes && call.requests.len() > 1 {
                self.lane_group(&call.requests, state, &mut spec, &mut times)?;
            } else {
                for req in &call.requests {
                    self.serial_request(req, state, &mut spec, &mut times)?;
                }
            }
        }
        Ok(times)
    }

    fn serial_request(
        &self,
        req: &OwnedRequest,
        state: &mut PdnState,
        spec: &mut SpectralScratch,
        times: &mut LayerTimes,
    ) -> Result<(), DomainError> {
        let Some((kernel, cores)) = &req.kernel else {
            return Ok(());
        };
        let domain = self.domain(&req.domain)?;
        let sim = self.simulate(
            domain,
            req.freq_hz.unwrap_or(domain.frequency()),
            kernel,
            times,
        )?;
        state.pdn.set_load(Self::cluster_load(domain, &sim, *cores));
        let t = Instant::now();
        let die = state
            .pdn
            .transient_scoped(&state.plan, &self.tcfg, &mut state.scratch)?;
        times.transient_s += secs(t);
        let rate = 1.0 / die.dt();
        let (lo, hi) = req.band.resolve(sim.loop_frequency());
        let (blo, bhi) = self.widened(lo, hi);
        let t = Instant::now();
        of_samples_band_into(
            die.i_die(),
            rate,
            Window::Hann,
            blo,
            bhi,
            &mut spec.goertzel,
            &mut spec.i_band,
        );
        times.dsp_s += secs(t);
        let t = Instant::now();
        self.channel
            .received_band_into_with(&spec.i_band, &mut spec.rx_band, &Telemetry::noop());
        times.em_s += secs(t);
        let t = Instant::now();
        let mut analyzer = SpectrumAnalyzer::new(self.analyzer.clone());
        let mut rng = StdRng::seed_from_u64(req.seed.unwrap_or(0));
        black_box(analyzer.peak_metric(&spec.rx_band, lo, hi, req.samples, &mut rng));
        times.inst_s += secs(t);
        Ok(())
    }

    fn lane_group(
        &self,
        reqs: &[OwnedRequest],
        state: &mut PdnState,
        spec: &mut SpectralScratch,
        times: &mut LayerTimes,
    ) -> Result<(), DomainError> {
        let domain = self.domain(&reqs[0].domain)?;
        let freq = reqs[0].freq_hz.unwrap_or(domain.frequency());
        let mut sims: Vec<SimOutput> = Vec::with_capacity(reqs.len());
        let mut loads = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            let Some((kernel, cores)) = &req.kernel else {
                return Ok(());
            };
            let dup = reqs[..i]
                .iter()
                .position(|r| r.kernel.as_ref().is_some_and(|(k, _)| k == kernel));
            let sim = match dup {
                Some(j) => sims[j].clone(),
                None => self.simulate(domain, freq, kernel, times)?,
            };
            loads.push(Self::cluster_load(domain, &sim, *cores));
            sims.push(sim);
        }
        let t = Instant::now();
        state
            .pdn
            .transient_batch(&state.plan, &self.tcfg, &loads, &mut state.batch)?;
        times.transient_batch_s += secs(t);
        // Copied out (untimed): a lane view borrows its `DieTransient`.
        let owned: Vec<Vec<f64>> = (0..reqs.len())
            .map(|i| state.pdn.die_lane(&state.batch, i).i_die().to_vec())
            .collect();
        let lanes: Vec<&[f64]> = owned.iter().map(Vec::as_slice).collect();
        let rate = 1.0 / state.pdn.die_lane(&state.batch, 0).dt();
        let (lo, hi) = reqs[0].band.resolve(sims[0].loop_frequency());
        let (blo, bhi) = self.widened(lo, hi);
        spec.i_bands.resize_with(reqs.len(), BandSpectrum::default);
        spec.rx_bands.resize_with(reqs.len(), BandSpectrum::default);
        let t = Instant::now();
        of_samples_band_multi_into(
            &lanes,
            rate,
            Window::Hann,
            blo,
            bhi,
            &mut spec.goertzel,
            &mut spec.i_bands,
        );
        times.dsp_s += secs(t);
        let refs: Vec<&BandSpectrum> = spec.i_bands[..reqs.len()].iter().collect();
        let t = Instant::now();
        self.channel.received_spectrum_batch_into(
            &refs,
            &mut spec.rx_bands,
            &mut spec.transfer,
            &Telemetry::noop(),
        );
        times.em_s += secs(t);
        let t = Instant::now();
        for (rx, req) in spec.rx_bands.iter().zip(reqs) {
            let mut analyzer = SpectrumAnalyzer::new(self.analyzer.clone());
            let mut rng = StdRng::seed_from_u64(req.seed.unwrap_or(0));
            black_box(analyzer.peak_metric(rx, lo, hi, req.samples, &mut rng));
        }
        times.inst_s += secs(t);
        Ok(())
    }

    /// Repeats every recorded request through the platform's whole
    /// chain: each request alone through the serial path (per-request
    /// times → `eval_ms`), and each lane group through the batched path.
    ///
    /// # Errors
    ///
    /// A simulation failure.
    pub fn replay_chain(
        &self,
        calls: &[RecordedCall],
        times: &mut LayerTimes,
    ) -> Result<(), DomainError> {
        let mut runners: HashMap<String, DomainRunner> = HashMap::new();
        let mut run = DomainRun::empty();
        let mut outs: Vec<DomainRun> = Vec::new();
        let mut batch = BatchTransientScratch::new();
        let mut measure = MeasureScratch::new();
        for call in calls {
            for req in &call.requests {
                let Some((kernel, cores)) = &req.kernel else {
                    continue;
                };
                let runner = self.runner(&mut runners, req)?;
                let t = Instant::now();
                runner.run_into(kernel, *cores, &mut run)?;
                let (lo, hi) = req.band.resolve(run.loop_frequency);
                black_box(self.shared.measure_in_band_seeded_with(
                    &run,
                    lo,
                    hi,
                    req.samples,
                    req.seed.unwrap_or(0),
                    &mut measure,
                ));
                times.eval_ms.push(secs(t) * 1e3);
            }
            if call.lanes && call.requests.len() > 1 {
                let entries: Option<Vec<(&Kernel, usize)>> = call
                    .requests
                    .iter()
                    .map(|r| r.kernel.as_ref().map(|(k, c)| (k, *c)))
                    .collect();
                let Some(entries) = entries else { continue };
                let seeds: Vec<u64> = call.requests.iter().map(|r| r.seed.unwrap_or(0)).collect();
                let first = &call.requests[0];
                let (lo, hi) = first.band.resolve(0.0);
                outs.resize_with(entries.len(), DomainRun::empty);
                let runner = self.runner(&mut runners, first)?;
                let t = Instant::now();
                black_box(runner.run_measure_batch_into(
                    &entries,
                    lo,
                    hi,
                    first.samples,
                    &seeds,
                    &self.shared,
                    &mut outs,
                    &mut batch,
                    &mut measure,
                )?);
                times.lane_eval_s += secs(t);
                times.lane_evals += entries.len() as u64;
            }
        }
        Ok(())
    }

    fn runner<'r>(
        &self,
        runners: &'r mut HashMap<String, DomainRunner>,
        req: &OwnedRequest,
    ) -> Result<&'r mut DomainRunner, DomainError> {
        let domain = self.domain(&req.domain)?;
        if !runners.contains_key(&req.domain) {
            runners.insert(
                req.domain.clone(),
                DomainRunner::new(domain, self.run.clone())?,
            );
        }
        let runner = runners.get_mut(&req.domain).expect("inserted above");
        let target = req.freq_hz.unwrap_or(domain.frequency());
        if runner.domain().frequency() != target {
            runner.try_set_frequency(target)?;
        }
        Ok(runner)
    }

    /// Stage-by-stage time of one V_MIN anchor run: the plan the ladder
    /// builds at its start voltage, the core model and the serial
    /// transient.
    ///
    /// # Errors
    ///
    /// A simulation failure.
    pub fn anchor(
        &self,
        domain: &VoltageDomain,
        start_v: f64,
        kernel: &Kernel,
        loaded_cores: usize,
        times: &mut LayerTimes,
    ) -> Result<(), DomainError> {
        let mut dom = domain.clone();
        dom.try_set_voltage(start_v)?;
        let mut state = self.plan(&dom, times)?;
        let sim = self.simulate(&dom, dom.frequency(), kernel, times)?;
        state
            .pdn
            .set_load(Self::cluster_load(&dom, &sim, loaded_cores));
        let t = Instant::now();
        black_box(
            state
                .pdn
                .transient_scoped(&state.plan, &self.tcfg, &mut state.scratch)?
                .v_die()
                .len(),
        );
        times.transient_s += secs(t);
        Ok(())
    }

    /// The lane × SIMD ledger: ms per evaluation of `kernels` on
    /// `domain_name` at lane width `lanes` with `level` forced, the
    /// median of `passes` passes. Width 1 is the serial chain, as the
    /// live backend serves a one-request group.
    ///
    /// # Errors
    ///
    /// A simulation failure.
    #[allow(clippy::too_many_arguments)]
    pub fn lane_ledger(
        &self,
        domain_name: &str,
        kernels: &[Kernel],
        band: (f64, f64),
        samples: usize,
        level: SimdLevel,
        lanes: usize,
        passes: usize,
    ) -> Result<f64, DomainError> {
        emvolt_simd::force_level(Some(level));
        let result = self.lane_passes(domain_name, kernels, band, samples, lanes, passes);
        emvolt_simd::force_level(None);
        result
    }

    fn lane_passes(
        &self,
        domain_name: &str,
        kernels: &[Kernel],
        band: (f64, f64),
        samples: usize,
        lanes: usize,
        passes: usize,
    ) -> Result<f64, DomainError> {
        let mut runner = DomainRunner::new(self.domain(domain_name)?, self.run.clone())?;
        let mut run = DomainRun::empty();
        let mut outs: Vec<DomainRun> = Vec::new();
        let mut batch = BatchTransientScratch::new();
        let mut measure = MeasureScratch::new();
        let mut per_pass = Vec::with_capacity(passes);
        // One untimed pass first, so buffers have grown to size.
        for pass in 0..=passes {
            let t = Instant::now();
            for (g, group) in kernels.chunks(lanes.max(1)).enumerate() {
                let seeds: Vec<u64> = (0..group.len()).map(|i| (g * lanes + i) as u64).collect();
                if group.len() == 1 {
                    runner.run_into(&group[0], 1, &mut run)?;
                    black_box(self.shared.measure_in_band_seeded_with(
                        &run,
                        band.0,
                        band.1,
                        samples,
                        seeds[0],
                        &mut measure,
                    ));
                } else {
                    let entries: Vec<(&Kernel, usize)> = group.iter().map(|k| (k, 1)).collect();
                    outs.resize_with(group.len(), DomainRun::empty);
                    black_box(runner.run_measure_batch_into(
                        &entries,
                        band.0,
                        band.1,
                        samples,
                        &seeds,
                        &self.shared,
                        &mut outs,
                        &mut batch,
                        &mut measure,
                    )?);
                }
            }
            if pass > 0 {
                per_pass.push(secs(t) * 1e3 / kernels.len() as f64);
            }
        }
        Ok(crate::stats::median(&per_pass))
    }
}
