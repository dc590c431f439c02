//! The live backend: the full simulated measurement chain.
//!
//! This is the pre-trait measurement path, re-homed behind
//! [`MeasurementBackend`]: per-worker [`EvalSlot`] pools keep warm
//! [`DomainRunner`]s (netlist + LU factorizations built once), the
//! parallel path measures through a [`SharedEmBench`] with explicit
//! seeds, and the serial path drives the bench's own stateful RNG.
//! Seeded campaigns through this backend are bit-identical to the code
//! they replaced.

use crate::request::{BandSpec, CombinedSource, DomainInfo, EmObservation, Load, MeasureRequest};
use crate::{BackendError, MeasurementBackend};
use emvolt_inst::SweepReading;
use emvolt_obs::{CounterId, Telemetry};
use emvolt_platform::{
    BatchTransientScratch, DomainError, DomainRun, DomainRunner, EmBench, EmReading,
    MeasureScratch, RunConfig, SessionCosts, SharedEmBench, VoltageDomain,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One worker's reusable evaluation state: a warm [`DomainRunner`]
/// (netlist + LU factorizations already built), a recycled [`DomainRun`]
/// and the spectrum [`MeasureScratch`]. Holding all three together means
/// a steady-state evaluation allocates nothing transient-sized anywhere
/// in the kernel → current → PDN → spectrum → metric chain.
#[derive(Debug)]
pub struct EvalSlot {
    /// The warm per-worker runner.
    pub runner: DomainRunner,
    /// Recycled run buffers.
    pub run: DomainRun,
    /// Recycled spectrum/measurement scratch.
    pub measure: MeasureScratch,
    /// Recycled per-lane run buffers for the batched path.
    pub runs: Vec<DomainRun>,
    /// Recycled lock-step transient state for the batched path.
    pub batch: BatchTransientScratch,
}

impl EvalSlot {
    /// Builds a cold slot for `domain` (pays netlist construction and LU
    /// factorization).
    ///
    /// # Errors
    ///
    /// Propagates netlist/factorization failures.
    pub fn new(
        domain: &VoltageDomain,
        run_config: &RunConfig,
        telemetry: &Telemetry,
    ) -> Result<Self, DomainError> {
        let runner = DomainRunner::new_with(domain, run_config.clone(), telemetry.clone())?;
        let mut measure = MeasureScratch::new();
        measure.set_telemetry(telemetry.clone());
        Ok(EvalSlot {
            runner,
            run: DomainRun::empty(),
            measure,
            runs: Vec::new(),
            batch: BatchTransientScratch::new(),
        })
    }
}

/// Coordinator-side state for one domain: a warm runner for serial
/// measurements (fast sweep, post-campaign re-measurement).
#[derive(Debug)]
struct SerialSlot {
    runner: DomainRunner,
    run: DomainRun,
}

/// [`MeasurementBackend`] over the full simulation chain.
#[derive(Debug)]
pub struct LiveBackend {
    domains: Vec<VoltageDomain>,
    run_config: RunConfig,
    costs: SessionCosts,
    bench: EmBench,
    shared: SharedEmBench,
    /// Per-domain checkout pools for the parallel path. At steady state
    /// each holds one slot per worker thread, so per-individual setup is
    /// paid `threads` times per campaign instead of
    /// `population x generations` times.
    pools: Vec<Mutex<Vec<EvalSlot>>>,
    serial: Vec<Option<SerialSlot>>,
}

impl LiveBackend {
    /// Builds a backend over `domains` measuring through `bench`. The
    /// run configuration's spectral-path selection is applied to the
    /// bench (and its shared half), so `RunConfig::spectral` is
    /// authoritative for every measurement through this backend.
    pub fn new(domains: Vec<VoltageDomain>, mut bench: EmBench, run_config: RunConfig) -> Self {
        bench.set_spectral(run_config.spectral);
        let shared = bench.share();
        let n = domains.len();
        LiveBackend {
            domains,
            run_config,
            costs: SessionCosts::default(),
            bench,
            shared,
            pools: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            serial: (0..n).map(|_| None).collect(),
        }
    }

    /// Single-domain convenience constructor.
    pub fn single(domain: VoltageDomain, bench: EmBench, run_config: RunConfig) -> Self {
        LiveBackend::new(vec![domain], bench, run_config)
    }

    /// Overrides the session cost model.
    #[must_use]
    pub fn with_costs(mut self, costs: SessionCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Direct access to a served domain.
    pub fn domain(&self, name: &str) -> Option<&VoltageDomain> {
        self.domains.iter().find(|d| d.name() == name)
    }

    /// Mutable access to a served domain (DVFS, power gating). Warm
    /// runner state for that domain is dropped, since pooled runners
    /// carry clones of the old control settings.
    pub fn domain_mut(&mut self, name: &str) -> Option<&mut VoltageDomain> {
        let idx = self.domains.iter().position(|d| d.name() == name)?;
        self.pools[idx].lock().clear();
        self.serial[idx] = None;
        Some(&mut self.domains[idx])
    }

    /// Consumes the backend, folding outstanding shared-analyzer time
    /// back into the bench and returning it.
    pub fn into_bench(mut self) -> EmBench {
        self.bench.absorb_elapsed(&self.shared);
        self.bench
    }

    fn index(&self, name: &str) -> Result<usize, BackendError> {
        self.domains
            .iter()
            .position(|d| d.name() == name)
            .ok_or_else(|| BackendError::UnknownDomain(name.to_string()))
    }

    /// Points the runner at the request's effective clock. Skipped when
    /// the slot is already there — `Cpu::simulate` is `&self`, so an
    /// up-to-date runner needs no rebuild.
    fn retune(
        slot_runner: &mut DomainRunner,
        domain: &VoltageDomain,
        freq_hz: Option<f64>,
    ) -> Result<(), BackendError> {
        let target = freq_hz.unwrap_or_else(|| domain.frequency());
        if slot_runner.domain().frequency() != target {
            slot_runner.try_set_frequency(target)?;
        }
        Ok(())
    }

    fn run_load(
        slot_runner: &mut DomainRunner,
        run: &mut DomainRun,
        load: &Load<'_>,
    ) -> Result<(), DomainError> {
        match *load {
            Load::Kernel {
                kernel,
                loaded_cores,
            } => slot_runner.run_into(kernel, loaded_cores, run),
            Load::Idle => {
                *run = slot_runner.run_idle()?;
                Ok(())
            }
        }
    }

    fn observation(run: &DomainRun, reading: EmReading, band: (f64, f64)) -> EmObservation {
        EmObservation {
            reading,
            loop_frequency_hz: run.loop_frequency,
            ipc: run.ipc,
            max_droop_v: run.max_droop(),
            peak_to_peak_v: run.peak_to_peak(),
            band,
            cached: false,
        }
    }
}

impl MeasurementBackend for LiveBackend {
    fn label(&self) -> &'static str {
        "live"
    }

    fn domains(&self) -> Vec<DomainInfo> {
        self.domains
            .iter()
            .map(|d| DomainInfo {
                name: d.name().to_string(),
                isa: d.core_model().isa,
                max_frequency_hz: d.max_frequency(),
                frequency_hz: d.frequency(),
                voltage_v: d.voltage(),
                active_cores: d.active_cores(),
                expected_resonance_hz: d.expected_resonance_hz(),
            })
            .collect()
    }

    fn configure_run(&mut self, config: &RunConfig) -> Result<(), BackendError> {
        if *config != self.run_config {
            self.run_config = config.clone();
            // Fold outstanding shared-analyzer time back before the
            // shared half is rebuilt with the new spectral selection.
            self.bench.absorb_elapsed(&self.shared);
            self.bench.set_spectral(config.spectral);
            self.shared = self.bench.share();
            for pool in &self.pools {
                pool.lock().clear();
            }
            for slot in &mut self.serial {
                *slot = None;
            }
        }
        Ok(())
    }

    fn measure(
        &self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        let idx = self.index(req.domain)?;
        let seed = req.seed.ok_or(BackendError::SeedRequired)?;
        let domain = &self.domains[idx];
        // Checkout accounting matches the old RunnerPool: every call is a
        // checkout, a miss means a cold slot had to be built.
        telemetry.count(CounterId::ScratchCheckouts, 1);
        let mut slot = match self.pools[idx].lock().pop() {
            Some(s) => s,
            None => {
                telemetry.count(CounterId::ScratchMisses, 1);
                EvalSlot::new(domain, &self.run_config, telemetry)?
            }
        };
        slot.runner.set_telemetry(telemetry.clone());
        slot.measure.set_telemetry(telemetry.clone());
        let result = (|| {
            Self::retune(&mut slot.runner, domain, req.freq_hz)?;
            Self::run_load(&mut slot.runner, &mut slot.run, &req.load)?;
            let band = req.band.resolve(slot.run.loop_frequency);
            let reading = self.shared.measure_in_band_seeded_with(
                &slot.run,
                band.0,
                band.1,
                req.samples,
                seed,
                &mut slot.measure,
            );
            Ok(Self::observation(&slot.run, reading, band))
        })();
        // The slot goes back whatever happened — a failed run leaves the
        // runner's plan and netlist untouched.
        self.pools[idx].lock().push(slot);
        result
    }

    /// Amortized batch: when every request targets the same domain with
    /// the same explicit band, clock, sweep count and a per-lane seed,
    /// one warm slot serves the whole group through the lane-major chain
    /// (one lock-step transient, one multi-lane Goertzel pass, shared
    /// channel transfer). Reading `l` is bit-identical to the serial
    /// `measure(&reqs[l], ..)` call it replaces, and trace-visible
    /// counter totals are lane-count-invariant (`ScratchCheckouts` is
    /// still charged once per request). Groups that mix domains, bands
    /// or load shapes — or whose cached plan is LU-only — fall back to
    /// the serial loop.
    fn measure_batch(
        &self,
        reqs: &[MeasureRequest<'_>],
        telemetry: &Telemetry,
    ) -> Vec<Result<EmObservation, BackendError>> {
        let serial =
            |reqs: &[MeasureRequest<'_>]| reqs.iter().map(|r| self.measure(r, telemetry)).collect();
        let Some(first) = reqs.first() else {
            return Vec::new();
        };
        let band = match first.band {
            BandSpec::Explicit { lo_hz, hi_hz } => (lo_hz, hi_hz),
            BandSpec::AroundLoop { .. } => return serial(reqs),
        };
        let uniform = reqs.iter().all(|r| {
            r.domain == first.domain
                && r.freq_hz == first.freq_hz
                && r.samples == first.samples
                && r.seed.is_some()
                && matches!(r.load, Load::Kernel { .. })
                && matches!(
                    r.band,
                    BandSpec::Explicit { lo_hz, hi_hz } if (lo_hz, hi_hz) == band
                )
        });
        if !uniform || reqs.len() == 1 {
            return serial(reqs);
        }
        let Ok(idx) = self.index(first.domain) else {
            return serial(reqs);
        };
        let domain = &self.domains[idx];
        let active = domain.active_cores();
        if reqs
            .iter()
            .any(|r| matches!(r.load, Load::Kernel { loaded_cores, .. } if loaded_cores > active))
        {
            // Per-lane core-count validation has per-lane outcomes; let
            // the serial loop report them individually.
            return serial(reqs);
        }

        let mut slot = match self.pools[idx].lock().pop() {
            Some(s) => s,
            None => {
                telemetry.count(CounterId::ScratchMisses, 1);
                match EvalSlot::new(domain, &self.run_config, telemetry) {
                    Ok(s) => s,
                    Err(e) => {
                        let msg = e.to_string();
                        return reqs
                            .iter()
                            .map(|_| Err(BackendError::Domain(DomainError::Backend(msg.clone()))))
                            .collect();
                    }
                }
            }
        };
        if !slot.runner.supports_batch() {
            self.pools[idx].lock().push(slot);
            return serial(reqs);
        }
        // One checkout per request keeps the trace-visible totals
        // identical to the serial loop at any lane count.
        telemetry.count(CounterId::ScratchCheckouts, reqs.len() as u64);
        slot.runner.set_telemetry(telemetry.clone());
        slot.measure.set_telemetry(telemetry.clone());
        slot.batch.set_telemetry(telemetry.clone());
        let entries: Vec<(&emvolt_isa::Kernel, usize)> = reqs
            .iter()
            .map(|r| match r.load {
                Load::Kernel {
                    kernel,
                    loaded_cores,
                } => (kernel, loaded_cores),
                Load::Idle => unreachable!("uniformity check rejected idle loads"),
            })
            .collect();
        let seeds: Vec<u64> = reqs
            .iter()
            .map(|r| r.seed.expect("uniformity check required seeds"))
            .collect();
        let results: Result<Vec<Result<EmObservation, BackendError>>, BackendError> = (|| {
            Self::retune(&mut slot.runner, domain, first.freq_hz)?;
            if slot.runs.len() < reqs.len() {
                slot.runs.resize_with(reqs.len(), DomainRun::empty);
            }
            let readings = slot.runner.run_measure_batch_into(
                &entries,
                band.0,
                band.1,
                first.samples,
                &seeds,
                &self.shared,
                &mut slot.runs,
                &mut slot.batch,
                &mut slot.measure,
            )?;
            Ok(slot
                .runs
                .iter()
                .zip(readings)
                .map(|(run, reading)| Ok(Self::observation(run, reading, band)))
                .collect::<Vec<_>>())
        })();
        self.pools[idx].lock().push(slot);
        match results {
            Ok(observations) => observations,
            Err(e) => {
                let msg = e.to_string();
                reqs.iter()
                    .map(|_| Err(BackendError::Domain(DomainError::Backend(msg.clone()))))
                    .collect()
            }
        }
    }

    fn measure_serial(
        &mut self,
        req: &MeasureRequest<'_>,
        telemetry: &Telemetry,
    ) -> Result<EmObservation, BackendError> {
        let idx = self.index(req.domain)?;
        self.bench.absorb_elapsed(&self.shared);
        self.bench.set_telemetry(telemetry.clone());
        if self.serial[idx].is_none() {
            // Prefer a warm pooled runner (the post-campaign path reuses a
            // worker's slot exactly as the old code did); build cold
            // otherwise.
            let slot = match self.pools[idx].lock().pop() {
                Some(s) => SerialSlot {
                    runner: s.runner,
                    run: s.run,
                },
                None => SerialSlot {
                    runner: DomainRunner::new_with(
                        &self.domains[idx],
                        self.run_config.clone(),
                        telemetry.clone(),
                    )?,
                    run: DomainRun::empty(),
                },
            };
            self.serial[idx] = Some(slot);
        }
        let domain = &self.domains[idx];
        let slot = self.serial[idx]
            .as_mut()
            .expect("serial slot just installed above");
        slot.runner.set_telemetry(telemetry.clone());
        Self::retune(&mut slot.runner, domain, req.freq_hz)?;
        Self::run_load(&mut slot.runner, &mut slot.run, &req.load)?;
        let band = req.band.resolve(slot.run.loop_frequency);
        let reading = match req.seed {
            // The serial rig: the bench's own RNG advances call over call.
            None => self
                .bench
                .measure_in_band(&slot.run, band.0, band.1, req.samples),
            Some(seed) => {
                let mut scratch = MeasureScratch::new();
                scratch.set_telemetry(telemetry.clone());
                self.shared.measure_in_band_seeded_with(
                    &slot.run,
                    band.0,
                    band.1,
                    req.samples,
                    seed,
                    &mut scratch,
                )
            }
        };
        Ok(Self::observation(&slot.run, reading, band))
    }

    fn capture_combined(
        &mut self,
        sources: &[CombinedSource<'_>],
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<SweepReading, BackendError> {
        self.bench.set_telemetry(telemetry.clone());
        let mut runs = Vec::with_capacity(sources.len());
        for src in sources {
            let idx = self.index(src.domain)?;
            if self.serial[idx].is_none() {
                self.serial[idx] = Some(SerialSlot {
                    runner: DomainRunner::new_with(
                        &self.domains[idx],
                        self.run_config.clone(),
                        telemetry.clone(),
                    )?,
                    run: DomainRun::empty(),
                });
            }
            let domain = &self.domains[idx];
            let slot = self.serial[idx]
                .as_mut()
                .expect("serial slot just installed above");
            slot.runner.set_telemetry(telemetry.clone());
            Self::retune(&mut slot.runner, domain, None)?;
            let load = match src.kernel {
                Some(kernel) => Load::Kernel {
                    kernel,
                    loaded_cores: src.loaded_cores,
                },
                None => Load::Idle,
            };
            Self::run_load(&mut slot.runner, &mut slot.run, &load)?;
            runs.push(slot.run.clone());
        }
        let refs: Vec<&DomainRun> = runs.iter().collect();
        let rx = self.bench.received_spectrum_multi(&refs);
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(self.bench.analyzer.sweep(&rx, &mut rng))
    }

    fn elapsed_seconds(&self) -> f64 {
        self.bench.elapsed() + self.shared.elapsed()
    }

    fn costs(&self) -> SessionCosts {
        self.costs
    }

    fn rig_state(&self) -> Vec<(String, String)> {
        let words = self.bench.rng_state();
        vec![
            (
                "rig_rng".to_string(),
                words
                    .iter()
                    .map(|w| format!("{w:016x}"))
                    .collect::<Vec<_>>()
                    .join(":"),
            ),
            (
                "elapsed".to_string(),
                format!("{:016x}", self.elapsed_seconds().to_bits()),
            ),
        ]
    }

    fn restore_rig_state(&mut self, state: &[(String, String)]) -> Result<(), BackendError> {
        // Fold any outstanding shared-analyzer time in first so the
        // restored absolute total lands on the bench alone.
        self.bench.absorb_elapsed(&self.shared);
        for (key, value) in state {
            match key.as_str() {
                "rig_rng" => {
                    let words = value
                        .split(':')
                        .map(|w| u64::from_str_radix(w, 16))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| {
                            BackendError::Store(format!("bad rig_rng word in `{value}`: {e}"))
                        })?;
                    let words: [u64; 4] = words.try_into().map_err(|w: Vec<u64>| {
                        BackendError::Store(format!("rig_rng holds {} words, expected 4", w.len()))
                    })?;
                    self.bench.set_rng_state(words);
                }
                "elapsed" => {
                    let bits = u64::from_str_radix(value, 16).map_err(|e| {
                        BackendError::Store(format!("bad elapsed bits `{value}`: {e}"))
                    })?;
                    self.bench
                        .restore_elapsed(f64::from_bits(bits))
                        .map_err(|e| BackendError::Store(e.to_string()))?;
                }
                other => {
                    return Err(BackendError::Store(format!(
                        "live backend knows no rig-state key `{other}`"
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::BandSpec;
    use emvolt_cpu::CoreModel;
    use emvolt_isa::{kernels::padded_sweep_kernel, Isa};
    use emvolt_platform::{a72_pdn, RESONANCE_BAND};

    fn a72() -> VoltageDomain {
        VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
    }

    fn backend() -> LiveBackend {
        LiveBackend::single(a72(), EmBench::new(11), RunConfig::fast())
    }

    #[test]
    fn seeded_measure_matches_the_direct_chain() {
        let kernel = padded_sweep_kernel(Isa::ArmV8, 17);
        let be = backend();
        let req = MeasureRequest {
            domain: "A72",
            load: Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: RESONANCE_BAND.0,
                hi_hz: RESONANCE_BAND.1,
            },
            samples: 3,
            seed: Some(42),
        };
        let tel = Telemetry::noop();
        let obs = be.measure(&req, &tel).unwrap();

        // The same measurement, spelled out by hand.
        let domain = a72();
        let mut runner = DomainRunner::new(&domain, RunConfig::fast()).unwrap();
        let run = runner.run(&kernel, 1).unwrap();
        let bench = EmBench::new(11);
        let shared = bench.share();
        let mut scratch = MeasureScratch::new();
        let expect = shared.measure_in_band_seeded_with(
            &run,
            RESONANCE_BAND.0,
            RESONANCE_BAND.1,
            3,
            42,
            &mut scratch,
        );
        assert_eq!(obs.reading, expect);
        assert_eq!(obs.loop_frequency_hz, run.loop_frequency);
        assert!(!obs.cached);
    }

    #[test]
    fn measure_requires_a_seed() {
        let kernel = padded_sweep_kernel(Isa::ArmV8, 3);
        let be = backend();
        let req = MeasureRequest {
            domain: "A72",
            load: Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: RESONANCE_BAND.0,
                hi_hz: RESONANCE_BAND.1,
            },
            samples: 1,
            seed: None,
        };
        assert!(matches!(
            be.measure(&req, &Telemetry::noop()),
            Err(BackendError::SeedRequired)
        ));
    }

    #[test]
    fn unknown_domain_is_a_typed_error() {
        let mut be = backend();
        let req = MeasureRequest {
            domain: "GPU",
            load: Load::Idle,
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: 5e7,
                hi_hz: 2e8,
            },
            samples: 1,
            seed: Some(1),
        };
        assert!(matches!(
            be.measure(&req, &Telemetry::noop()),
            Err(BackendError::UnknownDomain(_))
        ));
        assert!(matches!(
            be.measure_serial(&req, &Telemetry::noop()),
            Err(BackendError::UnknownDomain(_))
        ));
    }

    #[test]
    fn serial_rig_advances_like_a_plain_bench() {
        let kernel = padded_sweep_kernel(Isa::ArmV8, 17);
        let mut be = backend();
        let req = MeasureRequest {
            domain: "A72",
            load: Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: RESONANCE_BAND.0,
                hi_hz: RESONANCE_BAND.1,
            },
            samples: 2,
            seed: None,
        };
        let tel = Telemetry::noop();
        let first = be.measure_serial(&req, &tel).unwrap();
        let second = be.measure_serial(&req, &tel).unwrap();

        let domain = a72();
        let mut runner = DomainRunner::new(&domain, RunConfig::fast()).unwrap();
        let run = runner.run(&kernel, 1).unwrap();
        let mut bench = EmBench::new(11);
        let e1 = bench.measure_in_band(&run, RESONANCE_BAND.0, RESONANCE_BAND.1, 2);
        let e2 = bench.measure_in_band(&run, RESONANCE_BAND.0, RESONANCE_BAND.1, 2);
        assert_eq!(first.reading, e1);
        assert_eq!(second.reading, e2);
        assert_ne!(first.reading, second.reading, "rig RNG must advance");
    }

    #[test]
    fn dvfs_override_moves_the_loop_frequency() {
        let kernel = emvolt_isa::kernels::sweep_kernel(Isa::ArmV8);
        let mut be = backend();
        let tel = Telemetry::noop();
        let at = |be: &mut LiveBackend, hz: Option<f64>| {
            be.measure_serial(
                &MeasureRequest {
                    domain: "A72",
                    load: Load::Kernel {
                        kernel: &kernel,
                        loaded_cores: 1,
                    },
                    freq_hz: hz,
                    band: BandSpec::AroundLoop { halfwidth_hz: 3e6 },
                    samples: 1,
                    seed: Some(9),
                },
                &tel,
            )
            .unwrap()
        };
        let full = at(&mut be, Some(1.2e9));
        let half = at(&mut be, Some(0.6e9));
        let ratio = full.loop_frequency_hz / half.loop_frequency_hz;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
        // And with no override the runner returns to the domain default.
        let default = at(&mut be, None);
        assert_eq!(default.loop_frequency_hz, full.loop_frequency_hz);
    }

    #[test]
    fn combined_capture_matches_direct_multi_domain_sweep() {
        let kernel = padded_sweep_kernel(Isa::ArmV8, 17);
        let mut be = LiveBackend::single(a72(), EmBench::new(6), RunConfig::fast());
        let reading = be
            .capture_combined(
                &[CombinedSource {
                    domain: "A72",
                    kernel: Some(&kernel),
                    loaded_cores: 2,
                }],
                0x515,
                &Telemetry::noop(),
            )
            .unwrap();

        let domain = a72();
        let run = domain.run(&kernel, 2, &RunConfig::fast()).unwrap();
        let mut bench = EmBench::new(6);
        let rx = bench.received_spectrum_multi(&[&run]);
        let mut rng = StdRng::seed_from_u64(0x515);
        let expect = bench.analyzer.sweep(&rx, &mut rng);
        assert_eq!(reading.points, expect.points);
    }

    /// The batched path must return exactly what the default serial loop
    /// over `measure` would — observation bits, lane order and
    /// trace-visible checkout counters alike.
    #[test]
    fn batched_measure_matches_the_serial_loop_bit_for_bit() {
        let kernels: Vec<_> = [3usize, 17, 9]
            .iter()
            .map(|&p| padded_sweep_kernel(Isa::ArmV8, p))
            .collect();
        let reqs: Vec<MeasureRequest<'_>> = kernels
            .iter()
            .enumerate()
            .map(|(i, kernel)| MeasureRequest {
                domain: "A72",
                load: Load::Kernel {
                    kernel,
                    loaded_cores: 1 + i % 2,
                },
                freq_hz: None,
                band: BandSpec::Explicit {
                    lo_hz: RESONANCE_BAND.0,
                    hi_hz: RESONANCE_BAND.1,
                },
                samples: 3,
                seed: Some(40 + i as u64),
            })
            .collect();
        let tel = Telemetry::noop();

        let batched_be = backend();
        let batched = batched_be.measure_batch(&reqs, &tel);

        let serial_be = backend();
        for (req, got) in reqs.iter().zip(&batched) {
            let want = serial_be.measure(req, &tel).unwrap();
            let got = got.as_ref().expect("batched lane failed");
            assert_eq!(
                want.reading.metric_dbm.to_bits(),
                got.reading.metric_dbm.to_bits()
            );
            assert_eq!(
                want.reading.dominant_hz.to_bits(),
                got.reading.dominant_hz.to_bits()
            );
            assert_eq!(want.loop_frequency_hz, got.loop_frequency_hz);
            assert_eq!(want.ipc, got.ipc);
            assert_eq!(want.max_droop_v, got.max_droop_v);
            assert_eq!(want.peak_to_peak_v, got.peak_to_peak_v);
        }
        assert_eq!(
            batched_be.elapsed_seconds().to_bits(),
            serial_be.elapsed_seconds().to_bits()
        );
    }

    /// An LU-only plan cannot run the lock-step transient: the batch call
    /// silently serves the group through the serial loop instead.
    #[test]
    fn batched_measure_falls_back_to_serial_for_lu_only_plans() {
        use emvolt_platform::KernelChoice;
        let kernel = padded_sweep_kernel(Isa::ArmV8, 17);
        let mut cfg = RunConfig::fast();
        cfg.kernel = KernelChoice::Lu;
        let be = LiveBackend::single(a72(), EmBench::new(11), cfg.clone());
        let reqs: Vec<MeasureRequest<'_>> = (0..2)
            .map(|i| MeasureRequest {
                domain: "A72",
                load: Load::Kernel {
                    kernel: &kernel,
                    loaded_cores: 1,
                },
                freq_hz: None,
                band: BandSpec::Explicit {
                    lo_hz: RESONANCE_BAND.0,
                    hi_hz: RESONANCE_BAND.1,
                },
                samples: 2,
                seed: Some(70 + i),
            })
            .collect();
        let tel = Telemetry::noop();
        let batched = be.measure_batch(&reqs, &tel);
        let serial_be = LiveBackend::single(a72(), EmBench::new(11), cfg);
        for (req, got) in reqs.iter().zip(&batched) {
            let want = serial_be.measure(req, &tel).unwrap();
            assert_eq!(want.reading, got.as_ref().unwrap().reading);
        }
    }

    fn elapsed_state(total_s: f64) -> Vec<(String, String)> {
        vec![("elapsed".to_string(), format!("{:016x}", total_s.to_bits()))]
    }

    /// A corrupt checkpoint total is a typed error, not a panic, and
    /// leaves the rig's clock as it was.
    #[test]
    fn restore_rejects_non_finite_or_negative_elapsed() {
        let mut be = backend();
        be.restore_rig_state(&elapsed_state(3.5)).unwrap();
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let err = be.restore_rig_state(&elapsed_state(bad)).unwrap_err();
            assert!(matches!(err, BackendError::Store(_)), "{bad}: {err:?}");
            assert_eq!(be.elapsed_seconds(), 3.5, "{bad} moved the clock");
        }
    }

    /// A total earlier than the current one (a rewind) restores exactly.
    #[test]
    fn restore_rewinds_elapsed_to_an_earlier_total() {
        let mut be = backend();
        be.restore_rig_state(&elapsed_state(3.5)).unwrap();
        be.restore_rig_state(&elapsed_state(1.25)).unwrap();
        assert_eq!(be.elapsed_seconds(), 1.25);
    }

    #[test]
    fn configure_run_drops_warm_state_only_on_change() {
        let mut be = backend();
        let kernel = padded_sweep_kernel(Isa::ArmV8, 5);
        let req = MeasureRequest {
            domain: "A72",
            load: Load::Kernel {
                kernel: &kernel,
                loaded_cores: 1,
            },
            freq_hz: None,
            band: BandSpec::Explicit {
                lo_hz: 5e7,
                hi_hz: 2e8,
            },
            samples: 1,
            seed: Some(3),
        };
        let tel = Telemetry::noop();
        be.measure(&req, &tel).unwrap();
        assert_eq!(be.pools[0].lock().len(), 1);
        be.configure_run(&RunConfig::fast()).unwrap();
        assert_eq!(be.pools[0].lock().len(), 1, "same config keeps the pool");
        be.configure_run(&RunConfig::default()).unwrap();
        assert_eq!(be.pools[0].lock().len(), 0, "new fidelity drops warm slots");
    }
}
