//! The EM measurement rig: antenna + spectrum analyzer aimed at a
//! platform, plus helpers that run the full physics chain
//! (kernel -> current -> PDN -> radiation -> analyzer).

use crate::domain::{DomainError, DomainRun};
use emvolt_dsp::{
    of_samples_band_multi_into, BandSpectrum, GoertzelScratch, Spectrum, SpectrumScratch, Window,
};
use emvolt_em::EmChannel;
use emvolt_inst::{AnalyzerConfig, SpectrumAnalyzer, SweepReading};
use emvolt_obs::{CounterId, HistId, Layer, Telemetry};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's first-order search band: 50–200 MHz.
pub const RESONANCE_BAND: (f64, f64) = (50e6, 200e6);

/// How an in-band measurement turns the die-current trace into analyzer
/// input: the full one-sided FFT spectrum, or Goertzel evaluation of only
/// the bins the analyzer scan can reach.
///
/// The band path applies the identical window, per-bin recurrence scaling
/// and channel transfer, so in-band readings agree with the full-FFT path
/// to rounding (~1e-9 relative on bin amplitudes); displayed sweeps and
/// spectrogram consumers always keep the full FFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpectralChoice {
    /// Use the band path when the requested band (plus the analyzer's RBW
    /// skirt) covers at most half of the spectrum's bins.
    #[default]
    Auto,
    /// Always compute the full one-sided spectrum via FFT.
    FullFft,
    /// Always evaluate only the requested band via Goertzel.
    BandGoertzel,
}

impl SpectralChoice {
    /// Parses a CLI-style selector: `auto`, `fft` or `goertzel`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(SpectralChoice::Auto),
            "fft" => Some(SpectralChoice::FullFft),
            "goertzel" => Some(SpectralChoice::BandGoertzel),
            _ => None,
        }
    }

    /// The canonical selector string accepted by [`SpectralChoice::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            SpectralChoice::Auto => "auto",
            SpectralChoice::FullFft => "fft",
            SpectralChoice::BandGoertzel => "goertzel",
        }
    }

    /// Whether a measurement of `run` over the margin-widened band
    /// `[lo_hz, hi_hz]` should take the Goertzel path.
    fn picks_band(self, run: &DomainRun, lo_hz: f64, hi_hz: f64) -> bool {
        match self {
            SpectralChoice::FullFft => false,
            SpectralChoice::BandGoertzel => true,
            SpectralChoice::Auto => {
                let n = run.i_die.samples().len();
                if n == 0 {
                    return false;
                }
                // Mirror the Goertzel bin selection: widened outward so
                // every analyzer scan window is covered.
                let total = n / 2 + 1;
                let step = run.i_die.sample_rate() / n as f64;
                let k0 = if lo_hz <= 0.0 {
                    0
                } else {
                    ((lo_hz / step).floor() as usize).min(total)
                };
                let k1 = if hi_hz < lo_hz || hi_hz < 0.0 {
                    0
                } else {
                    (((hi_hz / step).ceil() as usize) + 1).min(total)
                };
                let covered = k1.saturating_sub(k0);
                covered > 0 && 2 * covered <= total
            }
        }
    }
}

/// Widens `[lo, hi]` by the analyzer's Gaussian RBW skirt (the scan
/// evaluates each display point over `f ± 4σ`, `σ = RBW / 2.355`), so the
/// band path feeds every bin the sweep can touch.
fn band_with_margin(config: &AnalyzerConfig, lo: f64, hi: f64) -> (f64, f64) {
    let margin = 4.0 * (config.rbw_hz / 2.355);
    (lo - margin, hi + margin)
}

/// Reusable buffers for the spectrum half of a measurement: the FFT
/// scratch plus the die-current and received spectra. Checking one out
/// per evaluation slot lets repeated measurements reuse every spectrum
/// buffer at steady state.
#[derive(Debug, Clone, Default)]
pub struct MeasureScratch {
    spec: SpectrumScratch,
    i_spec: Spectrum,
    rx: Spectrum,
    goertzel: GoertzelScratch,
    /// Per-lane die-current bands, lane order (one lane for a serial
    /// measurement).
    i_bands: Vec<BandSpectrum>,
    /// Per-lane received bands, lane order.
    rx_bands: Vec<BandSpectrum>,
    /// Shared per-bin channel-transfer values for batched propagation.
    transfer: Vec<f64>,
    telemetry: Telemetry,
}

impl MeasureScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry handle, propagating it to the spectrum
    /// scratch so FFT and channel-propagation work is charged too. The
    /// default handle is inert.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.spec.set_telemetry(telemetry.clone());
        self.goertzel.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Fills `self.rx` with the received spectrum of `run` through
    /// `channel`, reusing every buffer.
    fn refresh_rx(&mut self, channel: &EmChannel, run: &DomainRun) {
        Spectrum::of_trace_into(&run.i_die, Window::Hann, &mut self.spec, &mut self.i_spec);
        channel.received_spectrum_into_with(&self.i_spec, &mut self.rx, &self.telemetry);
    }

    /// The band stage: fills `self.rx_bands[l]` with the received band
    /// `[lo, hi]` Hz of `runs[l]` through `channel`, evaluating only the
    /// covered bins. The die-current bands come from one multi-lane
    /// Goertzel pass and are propagated with per-bin transfer values
    /// computed once for all lanes; per lane the arithmetic does not
    /// depend on the lane count. Every run must share one record length
    /// and sample rate; a serial measurement is the one-lane call.
    fn refresh_rx_bands(&mut self, channel: &EmChannel, runs: &[&DomainRun], lo: f64, hi: f64) {
        let samples: Vec<&[f64]> = runs.iter().map(|r| r.i_die.samples()).collect();
        self.i_bands.resize_with(runs.len(), BandSpectrum::default);
        self.rx_bands.resize_with(runs.len(), BandSpectrum::default);
        of_samples_band_multi_into(
            &samples,
            runs[0].i_die.sample_rate(),
            Window::Hann,
            lo,
            hi,
            &mut self.goertzel,
            &mut self.i_bands,
        );
        let i_refs: Vec<&BandSpectrum> = self.i_bands.iter().collect();
        channel.received_spectrum_batch_into(
            &i_refs,
            &mut self.rx_bands,
            &mut self.transfer,
            &self.telemetry,
        );
    }
}

/// One EM reading of a running workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmReading {
    /// The GA metric: mean-root-square of the per-sweep band peaks, dBm.
    pub metric_dbm: f64,
    /// The frequency at which the peak most often occurred.
    pub dominant_hz: f64,
}

/// An antenna + spectrum-analyzer rig pointed at one or more domains.
#[derive(Debug)]
pub struct EmBench {
    /// The radiation channel (antenna, distance, coupling).
    pub channel: EmChannel,
    /// The spectrum analyzer at the end of the coax.
    pub analyzer: SpectrumAnalyzer,
    rng: StdRng,
    scratch: MeasureScratch,
    spectral: SpectralChoice,
}

impl EmBench {
    /// Creates a rig with default channel/analyzer and a measurement-noise
    /// seed.
    pub fn new(seed: u64) -> Self {
        EmBench {
            channel: EmChannel::default(),
            analyzer: SpectrumAnalyzer::new(AnalyzerConfig::default()),
            rng: StdRng::seed_from_u64(seed),
            scratch: MeasureScratch::new(),
            spectral: SpectralChoice::default(),
        }
    }

    /// Selects how in-band measurements compute the received spectrum;
    /// [`EmBench::share`] copies the choice into the shared half.
    pub fn set_spectral(&mut self, spectral: SpectralChoice) {
        self.spectral = spectral;
    }

    /// The active spectral-path selection.
    pub fn spectral(&self) -> SpectralChoice {
        self.spectral
    }

    /// Received voltage spectrum at the analyzer input for a domain run.
    pub fn received_spectrum(&self, run: &DomainRun) -> Spectrum {
        let i_spec = Spectrum::of_trace(&run.i_die, Window::Hann);
        self.channel.received_spectrum(&i_spec)
    }

    /// Received spectrum with several domains radiating at once (§6.1).
    pub fn received_spectrum_multi(&self, runs: &[&DomainRun]) -> Spectrum {
        let specs: Vec<Spectrum> = runs
            .iter()
            .map(|r| Spectrum::of_trace(&r.i_die, Window::Hann))
            .collect();
        self.channel.received_multi(&specs)
    }

    /// Attaches a telemetry handle: measurements through this rig then
    /// charge analyzer counters, the band-amplitude histogram and (for
    /// emitting handles) `measure` spans.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.scratch.set_telemetry(telemetry);
    }

    /// One displayed analyzer sweep of a run.
    pub fn sweep(&mut self, run: &DomainRun) -> SweepReading {
        self.scratch.refresh_rx(&self.channel, run);
        self.scratch.telemetry.count(CounterId::AnalyzerSweeps, 1);
        self.analyzer.sweep(&self.scratch.rx, &mut self.rng)
    }

    /// The paper's GA fitness measurement: `n` sweeps (30 in the paper),
    /// metric = mean root square of the band-peak amplitudes.
    pub fn measure(&mut self, run: &DomainRun, n: usize) -> EmReading {
        self.measure_in_band(run, RESONANCE_BAND.0, RESONANCE_BAND.1, n)
    }

    /// Like [`EmBench::measure`] but over an explicit band — used when the
    /// resonance has already been located and the analyzer span is
    /// narrowed to speed up the GA (§5.3 motivation (b)).
    pub fn measure_in_band(&mut self, run: &DomainRun, lo: f64, hi: f64, n: usize) -> EmReading {
        let (blo, bhi) = band_with_margin(self.analyzer.config(), lo, hi);
        let (metric_dbm, dominant_hz) = if self.spectral.picks_band(run, blo, bhi) {
            self.scratch
                .refresh_rx_bands(&self.channel, &[run], blo, bhi);
            self.analyzer
                .peak_metric(&self.scratch.rx_bands[0], lo, hi, n, &mut self.rng)
        } else {
            self.scratch.refresh_rx(&self.channel, run);
            self.analyzer
                .peak_metric(&self.scratch.rx, lo, hi, n, &mut self.rng)
        };
        record_measurement(&self.scratch.telemetry, lo, hi, n, metric_dbm, dominant_hz);
        EmReading {
            metric_dbm,
            dominant_hz,
        }
    }

    /// Total analyzer wall-clock consumed so far (for the paper's
    /// measurement-latency accounting).
    pub fn elapsed(&self) -> f64 {
        self.analyzer.elapsed()
    }

    /// Splits off the immutable measurement chain for concurrent use; see
    /// [`SharedEmBench`]. Accumulated sweep time is folded back with
    /// [`EmBench::absorb_elapsed`].
    pub fn share(&self) -> SharedEmBench {
        SharedEmBench {
            channel: self.channel.clone(),
            analyzer_config: self.analyzer.config().clone(),
            spectral: self.spectral,
            elapsed_s: Mutex::new(0.0),
        }
    }

    /// Folds the sweep time accumulated by a [`SharedEmBench`] batch back
    /// into this rig's analyzer, keeping [`EmBench::elapsed`] equal to
    /// what a serial measurement sequence would have reported.
    pub fn absorb_elapsed(&mut self, shared: &SharedEmBench) {
        self.analyzer.advance_elapsed(shared.take_elapsed());
    }

    /// Raw words of the rig's measurement-noise RNG, for campaign
    /// checkpoints: un-seeded serial measurements advance this stream, so
    /// resuming a campaign mid-way must restore it exactly.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the measurement-noise RNG from words captured by
    /// [`EmBench::rng_state`].
    pub fn set_rng_state(&mut self, s: [u64; 4]) {
        self.rng = StdRng::from_state(s);
    }

    /// Sets the analyzer's occupancy clock to an absolute total, for
    /// checkpoint restore; the total may lie before or after the current
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::Checkpoint`] when `total_s` is negative or
    /// not finite; the clock is left unchanged.
    pub fn restore_elapsed(&mut self, total_s: f64) -> Result<(), DomainError> {
        if !(total_s.is_finite() && total_s >= 0.0) {
            return Err(DomainError::Checkpoint(format!(
                "elapsed total {total_s} s is not a finite non-negative time"
            )));
        }
        self.analyzer.reset_elapsed();
        self.analyzer.advance_elapsed(total_s);
        Ok(())
    }
}

/// The thread-shareable half of an [`EmBench`]: the radiation channel and
/// the analyzer configuration, both immutable, plus a locked running total
/// of sweep time.
///
/// The mutable per-measurement state (analyzer noise RNG, elapsed-time
/// counter) is what stops `EmBench::measure_in_band` being called from
/// several threads. Here each measurement instead builds a throwaway
/// analyzer from the shared config and draws its noise from a caller-
/// provided seed, so results depend only on `(run, band, n, seed)` — not
/// on which thread or in which order the measurement executed. That is
/// the property the parallel GA path relies on for thread-count-invariant
/// fitness.
#[derive(Debug)]
pub struct SharedEmBench {
    channel: EmChannel,
    analyzer_config: AnalyzerConfig,
    spectral: SpectralChoice,
    elapsed_s: Mutex<f64>,
}

impl SharedEmBench {
    /// Received voltage spectrum at the analyzer input for a domain run.
    pub fn received_spectrum(&self, run: &DomainRun) -> Spectrum {
        let i_spec = Spectrum::of_trace(&run.i_die, Window::Hann);
        self.channel.received_spectrum(&i_spec)
    }

    /// Seeded counterpart of [`EmBench::measure_in_band`]: `n` sweeps over
    /// `[lo, hi]` Hz with measurement noise drawn from `seed`.
    pub fn measure_in_band_seeded(
        &self,
        run: &DomainRun,
        lo: f64,
        hi: f64,
        n: usize,
        seed: u64,
    ) -> EmReading {
        let mut scratch = MeasureScratch::new();
        self.measure_in_band_seeded_with(run, lo, hi, n, seed, &mut scratch)
    }

    /// Like [`SharedEmBench::measure_in_band_seeded`], but reusing a
    /// caller-owned [`MeasureScratch`] so repeated measurements reuse its
    /// spectrum buffers. Bit-identical results. This is the one-lane
    /// [`SharedEmBench::measure_in_band_batch_seeded_with`].
    pub fn measure_in_band_seeded_with(
        &self,
        run: &DomainRun,
        lo: f64,
        hi: f64,
        n: usize,
        seed: u64,
        scratch: &mut MeasureScratch,
    ) -> EmReading {
        self.measure_in_band_batch_seeded_with(&[run], lo, hi, n, &[seed], scratch)[0]
    }

    /// Measures every lane of `runs` over `[lo, hi]` Hz in one call, lane
    /// `l` drawing its measurement noise from `seeds[l]`;
    /// [`SharedEmBench::measure_in_band_seeded_with`] is the one-lane
    /// call.
    ///
    /// When every lane shares one record length and sample rate and the
    /// spectral choice resolves to the band path, the die-current bands
    /// are evaluated by the multi-lane Goertzel in one pass and propagated
    /// through the channel with per-bin transfer values computed once.
    /// Each lane's analyzer stage runs on a throwaway analyzer seeded from
    /// its own lane seed, so reading `l` is bit-identical to the one-lane
    /// call `measure_in_band_seeded_with(runs[l], .., seeds[l], ..)`. A
    /// spectral choice that resolves to the full FFT runs each lane's
    /// full spectrum in turn; mixed record shapes are measured one lane
    /// at a time — same results, no amortization.
    ///
    /// Counter totals are lane-count-invariant: the batched stages charge
    /// one Goertzel invocation and one received spectrum per lane, and
    /// per-lane measurement accounting is recorded in lane order.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is shorter than `runs`.
    pub fn measure_in_band_batch_seeded_with(
        &self,
        runs: &[&DomainRun],
        lo: f64,
        hi: f64,
        n: usize,
        seeds: &[u64],
        scratch: &mut MeasureScratch,
    ) -> Vec<EmReading> {
        assert!(seeds.len() >= runs.len(), "one noise seed per lane");
        let Some(first) = runs.first() else {
            return Vec::new();
        };
        let uniform = runs.iter().all(|r| {
            r.i_die.samples().len() == first.i_die.samples().len()
                && r.i_die.sample_rate() == first.i_die.sample_rate()
        });
        if !uniform {
            return runs
                .iter()
                .zip(seeds)
                .map(|(run, &seed)| self.measure_in_band_seeded_with(run, lo, hi, n, seed, scratch))
                .collect();
        }

        let (blo, bhi) = band_with_margin(&self.analyzer_config, lo, hi);
        let banded = self.spectral.picks_band(first, blo, bhi);
        if banded {
            scratch.refresh_rx_bands(&self.channel, runs, blo, bhi);
        }
        let mut readings = Vec::with_capacity(runs.len());
        for (l, (run, &seed)) in runs.iter().zip(seeds).enumerate() {
            let mut analyzer = SpectrumAnalyzer::new(self.analyzer_config.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let (metric_dbm, dominant_hz) = if banded {
                analyzer.peak_metric(&scratch.rx_bands[l], lo, hi, n, &mut rng)
            } else {
                scratch.refresh_rx(&self.channel, run);
                analyzer.peak_metric(&scratch.rx, lo, hi, n, &mut rng)
            };
            *self.elapsed_s.lock() += analyzer.elapsed();
            record_measurement(&scratch.telemetry, lo, hi, n, metric_dbm, dominant_hz);
            readings.push(EmReading {
                metric_dbm,
                dominant_hz,
            });
        }
        readings
    }

    /// Sweep time accumulated since creation (or the last
    /// [`SharedEmBench::take_elapsed`]).
    pub fn elapsed(&self) -> f64 {
        *self.elapsed_s.lock()
    }

    /// Returns the accumulated sweep time and resets the total.
    pub fn take_elapsed(&self) -> f64 {
        std::mem::take(&mut *self.elapsed_s.lock())
    }
}

/// Shared accounting for one in-band measurement: counters, the
/// band-amplitude histogram and (for emitting handles) a `measure` span.
fn record_measurement(
    telemetry: &Telemetry,
    lo: f64,
    hi: f64,
    n: usize,
    metric_dbm: f64,
    dominant_hz: f64,
) {
    telemetry.count(CounterId::Measurements, 1);
    telemetry.count(CounterId::AnalyzerSweeps, n as u64);
    telemetry.record_value(HistId::BandAmplitudeDbm, metric_dbm);
    telemetry.span(
        "measure",
        Layer::Platform,
        &[
            ("lo_mhz", lo / 1e6),
            ("hi_mhz", hi / 1e6),
            ("sweeps", n as f64),
            ("metric_dbm", metric_dbm),
            ("dominant_mhz", dominant_hz / 1e6),
        ],
    );
    if telemetry.wave_enabled() {
        // Point readings: each measurement appends one sample past the
        // trace high-water mark, so a campaign's swept-band history reads
        // as a step waveform alongside the analog traces.
        let band_id = telemetry.wave_register("inst.band_dbm", emvolt_obs::WaveKind::Real);
        telemetry.wave_append(band_id, metric_dbm);
        let dom_id = telemetry.wave_register("inst.dominant_mhz", emvolt_obs::WaveKind::Real);
        telemetry.wave_append(dom_id, dominant_hz / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{RunConfig, VoltageDomain};
    use emvolt_cpu::CoreModel;
    use emvolt_isa::{
        kernels::{padded_sweep_kernel, sweep_kernel},
        Isa,
    };
    use emvolt_pdn::PdnParams;

    fn domain() -> VoltageDomain {
        VoltageDomain::new(
            "a72",
            CoreModel::cortex_a72(),
            PdnParams::generic_mobile(),
            1.2e9,
        )
    }

    #[test]
    fn busy_core_reads_above_idle() {
        let d = domain();
        let mut bench = EmBench::new(1);
        let cfg = RunConfig::fast();
        // A kernel whose loop frequency sits on the PDN resonance: the
        // busy cluster radiates well above the idle noise floor.
        let busy = d
            .run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &cfg)
            .unwrap();
        let idle = d.run_idle(&cfg).unwrap();
        let busy_reading = bench.measure(&busy, 5);
        let idle_reading = bench.measure(&idle, 5);
        assert!(
            busy_reading.metric_dbm > idle_reading.metric_dbm + 10.0,
            "busy {} vs idle {}",
            busy_reading.metric_dbm,
            idle_reading.metric_dbm
        );
    }

    #[test]
    fn dominant_frequency_is_in_band() {
        let d = domain();
        let mut bench = EmBench::new(2);
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 2, &RunConfig::fast())
            .unwrap();
        let r = bench.measure(&run, 10);
        assert!(
            (RESONANCE_BAND.0..=RESONANCE_BAND.1).contains(&r.dominant_hz),
            "dominant {:.2e}",
            r.dominant_hz
        );
    }

    /// Seeded shared measurements must not depend on call order — the
    /// property the parallel GA evaluation path rests on.
    #[test]
    fn shared_measurements_are_order_invariant() {
        let d = domain();
        let bench = EmBench::new(7);
        let shared = bench.share();
        let cfg = RunConfig::fast();
        let run_a = d.run(&sweep_kernel(Isa::ArmV8), 2, &cfg).unwrap();
        let run_b = d
            .run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &cfg)
            .unwrap();

        let a_first = shared.measure_in_band_seeded(&run_a, 50e6, 200e6, 5, 11);
        let b_second = shared.measure_in_band_seeded(&run_b, 50e6, 200e6, 5, 12);
        // Reversed order, fresh shared bench: identical readings.
        let shared2 = bench.share();
        let b_first = shared2.measure_in_band_seeded(&run_b, 50e6, 200e6, 5, 12);
        let a_second = shared2.measure_in_band_seeded(&run_a, 50e6, 200e6, 5, 11);
        assert_eq!(a_first, a_second);
        assert_eq!(b_first, b_second);
    }

    #[test]
    fn shared_elapsed_folds_back_into_the_bench() {
        let d = domain();
        let mut bench = EmBench::new(9);
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 1, &RunConfig::fast())
            .unwrap();
        let shared = bench.share();
        let _ = shared.measure_in_band_seeded(&run, 50e6, 200e6, 30, 1);
        assert!(
            (shared.elapsed() - 18.0).abs() < 1.0,
            "{}",
            shared.elapsed()
        );
        let before = bench.elapsed();
        bench.absorb_elapsed(&shared);
        assert!((bench.elapsed() - before - 18.0).abs() < 1.0);
        // The total was taken: absorbing twice adds nothing.
        bench.absorb_elapsed(&shared);
        assert!((bench.elapsed() - before - 18.0).abs() < 1.0);
    }

    #[test]
    fn spectral_choice_parsing_round_trips() {
        for c in [
            SpectralChoice::Auto,
            SpectralChoice::FullFft,
            SpectralChoice::BandGoertzel,
        ] {
            assert_eq!(SpectralChoice::parse(c.as_str()), Some(c));
        }
        assert_eq!(SpectralChoice::parse("bluestein"), None);
        assert_eq!(SpectralChoice::default(), SpectralChoice::Auto);
    }

    /// Forcing the Goertzel band path must reproduce the full-FFT reading
    /// to rounding: same seed, same band, same sweep count. The default
    /// `Auto` choice resolves to the band path for the paper's 50–200 MHz
    /// band, so it is pinned to the forced-band reading too.
    #[test]
    fn band_path_matches_full_fft_within_tolerance() {
        let d = domain();
        let bench = EmBench::new(4);
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 2, &RunConfig::fast())
            .unwrap();

        let mut full_bench = EmBench::new(4);
        full_bench.set_spectral(SpectralChoice::FullFft);
        let shared_full = full_bench.share();
        let full = shared_full.measure_in_band_seeded(&run, 50e6, 200e6, 5, 21);

        let mut band_bench = EmBench::new(4);
        band_bench.set_spectral(SpectralChoice::BandGoertzel);
        let shared_band = band_bench.share();
        let band = shared_band.measure_in_band_seeded(&run, 50e6, 200e6, 5, 21);

        assert!(
            (full.metric_dbm - band.metric_dbm).abs() < 1e-6,
            "full {} vs band {}",
            full.metric_dbm,
            band.metric_dbm
        );
        assert_eq!(full.dominant_hz, band.dominant_hz);

        let shared_auto = bench.share();
        let auto = shared_auto.measure_in_band_seeded(&run, 50e6, 200e6, 5, 21);
        assert_eq!(auto, band, "Auto must resolve to the band path here");
    }

    /// When the requested band spans (nearly) the whole spectrum, `Auto`
    /// falls back to the full FFT and the readings are bit-identical to
    /// the forced-FFT path.
    #[test]
    fn auto_takes_full_fft_for_wide_bands() {
        let d = domain();
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 2, &RunConfig::fast())
            .unwrap();
        let nyquist = 0.5 * run.i_die.sample_rate();

        let auto_bench = EmBench::new(6);
        let auto = auto_bench
            .share()
            .measure_in_band_seeded(&run, 1e6, nyquist, 5, 33);

        let mut fft_bench = EmBench::new(6);
        fft_bench.set_spectral(SpectralChoice::FullFft);
        let full = fft_bench
            .share()
            .measure_in_band_seeded(&run, 1e6, nyquist, 5, 33);

        assert_eq!(auto, full);
    }

    /// One batched call over L lanes must reproduce the L serial seeded
    /// measurements bit-for-bit — on the amortized band path and on the
    /// forced-FFT fallback alike — and accumulate the same sweep time.
    #[test]
    fn batched_measurements_match_serial_seeded_calls() {
        let d = domain();
        let cfg = RunConfig::fast();
        let runs = [
            d.run(&sweep_kernel(Isa::ArmV8), 1, &cfg).unwrap(),
            d.run(&padded_sweep_kernel(Isa::ArmV8, 17), 2, &cfg)
                .unwrap(),
            d.run(&sweep_kernel(Isa::ArmV8), 2, &cfg).unwrap(),
        ];
        let refs: Vec<&DomainRun> = runs.iter().collect();
        let seeds = [101u64, 202, 303];

        for spectral in [SpectralChoice::Auto, SpectralChoice::FullFft] {
            let mut bench = EmBench::new(5);
            bench.set_spectral(spectral);
            let shared = bench.share();
            let mut scratch = MeasureScratch::new();
            let batched = shared.measure_in_band_batch_seeded_with(
                &refs,
                50e6,
                200e6,
                4,
                &seeds,
                &mut scratch,
            );
            let batched_elapsed = shared.take_elapsed();

            let serial_shared = bench.share();
            let mut serial_scratch = MeasureScratch::new();
            assert_eq!(batched.len(), refs.len());
            for ((run, &seed), got) in refs.iter().zip(&seeds).zip(&batched) {
                let want = serial_shared.measure_in_band_seeded_with(
                    run,
                    50e6,
                    200e6,
                    4,
                    seed,
                    &mut serial_scratch,
                );
                assert_eq!(want.metric_dbm.to_bits(), got.metric_dbm.to_bits());
                assert_eq!(want.dominant_hz.to_bits(), got.dominant_hz.to_bits());
            }
            assert_eq!(
                batched_elapsed.to_bits(),
                serial_shared.take_elapsed().to_bits(),
                "sweep-time accounting must not depend on batching"
            );
        }
    }

    #[test]
    fn measurement_time_accumulates_like_the_paper() {
        let d = domain();
        let mut bench = EmBench::new(3);
        let run = d
            .run(&sweep_kernel(Isa::ArmV8), 1, &RunConfig::fast())
            .unwrap();
        let _ = bench.measure(&run, 30);
        assert!((bench.elapsed() - 18.0).abs() < 1.0, "{}", bench.elapsed());
    }
}
