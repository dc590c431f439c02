//! Swept spectrum-analyzer model (Agilent E4402B / N9332C stand-in).

use emvolt_dsp::{dbm_to_watts, watts_to_dbm, SpectralBins};
use rand::Rng;
use rand_distr_normal::{box_muller, uniforms};

/// Gaussian sampling helper without an extra dependency.
mod rand_distr_normal {
    use rand::Rng;

    /// The two uniform draws one Box–Muller sample consumes, in draw order.
    pub fn uniforms<R: Rng>(rng: &mut R) -> (f64, f64) {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (u1, u2)
    }

    /// Box–Muller standard-normal sample from [`uniforms`], scaled to
    /// `sigma`.
    pub fn box_muller((u1, u2): (f64, f64), sigma: f64) -> f64 {
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * sigma
    }
}

/// Spectrum-analyzer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzerConfig {
    /// Sweep start frequency in Hz.
    pub start_hz: f64,
    /// Sweep stop frequency in Hz.
    pub stop_hz: f64,
    /// Resolution bandwidth in Hz (Gaussian filter sigma ~ RBW/2.355).
    pub rbw_hz: f64,
    /// Displayed average noise level in dBm.
    pub noise_floor_dbm: f64,
    /// Standard deviation of per-point measurement noise in dB.
    pub noise_sigma_db: f64,
    /// Input impedance in ohms (50 by convention).
    pub input_ohms: f64,
    /// Number of displayed points per sweep.
    pub points: usize,
    /// Wall-clock seconds one sweep takes (drives the paper's ~18 s per
    /// 30-sample measurement accounting).
    pub sweep_time_s: f64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            start_hz: 10e6,
            stop_hz: 250e6,
            rbw_hz: 1e6,
            noise_floor_dbm: -95.0,
            noise_sigma_db: 0.7,
            input_ohms: 50.0,
            points: 481,
            sweep_time_s: 0.6,
        }
    }
}

/// One displayed sweep: `(frequency, level_dbm)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReading {
    /// Displayed points.
    pub points: Vec<(f64, f64)>,
}

impl SweepReading {
    /// The marker peak: highest-level point within `[lo, hi]` Hz.
    pub fn peak_in_band(&self, lo: f64, hi: f64) -> Option<(f64, f64)> {
        self.points
            .iter()
            .filter(|(f, _)| *f >= lo && *f <= hi)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .copied()
    }
}

/// A swept spectrum analyzer measuring the voltage spectrum at its input.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumAnalyzer {
    config: AnalyzerConfig,
    elapsed_s: f64,
}

impl SpectrumAnalyzer {
    /// Creates an analyzer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is non-physical (empty span, RBW or
    /// points of zero).
    pub fn new(config: AnalyzerConfig) -> Self {
        assert!(
            config.stop_hz > config.start_hz && config.rbw_hz > 0.0 && config.points >= 2,
            "invalid analyzer configuration"
        );
        SpectrumAnalyzer {
            config,
            elapsed_s: 0.0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Accumulated measurement wall-clock in seconds.
    pub fn elapsed(&self) -> f64 {
        self.elapsed_s
    }

    /// Resets the measurement-time accounting.
    pub fn reset_elapsed(&mut self) {
        self.elapsed_s = 0.0;
    }

    /// Adds externally accounted sweep time — used when sweeps ran on a
    /// detached analyzer clone (e.g. a parallel measurement batch) and
    /// their wall-clock is folded back into this instrument's total.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite `seconds`.
    pub fn advance_elapsed(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid elapsed advance {seconds}"
        );
        self.elapsed_s += seconds;
    }

    /// Performs one sweep over the input voltage spectrum (volts per bin
    /// at the analyzer input). Generic over [`SpectralBins`], so a
    /// band-limited spectrum sweeps exactly like a dense one: the sweep
    /// already skips zero-amplitude bins, and a band view reads zero
    /// outside its covered range.
    pub fn sweep<R: Rng, S: SpectralBins>(&mut self, input: &S, rng: &mut R) -> SweepReading {
        self.elapsed_s += self.config.sweep_time_s;
        let sigma_db = self.config.noise_sigma_db;
        let points = (0..self.config.points)
            .map(|i| {
                let level = self.level_at(input, i) + box_muller(uniforms(rng), sigma_db);
                (self.point_hz(i), level)
            })
            .collect();
        SweepReading { points }
    }

    /// Centre frequency of display point `i` in Hz.
    fn point_hz(&self, i: usize) -> f64 {
        let c = &self.config;
        let span = c.stop_hz - c.start_hz;
        c.start_hz + span * i as f64 / (c.points - 1) as f64
    }

    /// Noise-free displayed level of point `i` in dBm.
    fn level_at<S: SpectralBins>(&self, input: &S, i: usize) -> f64 {
        let c = &self.config;
        let f_center = self.point_hz(i);
        // Positive-peak detector through the Gaussian RBW filter: the
        // displayed level is the strongest RBW-weighted component in
        // view, which reads a narrowband spike at exactly its power
        // without double-counting the analysis window's main lobe.
        let sigma = c.rbw_hz / 2.355; // FWHM -> sigma
        let lo = f_center - 4.0 * sigma;
        let hi = f_center + 4.0 * sigma;
        let mut power_w = 0.0f64;
        if !input.is_empty() {
            let k0 = ((lo / input.freq_step()).floor().max(0.0)) as usize;
            let k1 = (((hi / input.freq_step()).ceil()) as usize).min(input.len() - 1);
            for k in k0..=k1 {
                let a = input.amplitude_at(k);
                if a == 0.0 {
                    continue;
                }
                let df = input.freq_at(k) - f_center;
                let w = (-0.5 * (df / sigma) * (df / sigma)).exp();
                // Sine of amplitude a into R: P = a^2 / (2R).
                power_w = power_w.max(w * a * a / (2.0 * c.input_ohms));
            }
        }
        watts_to_dbm(power_w + dbm_to_watts(c.noise_floor_dbm))
    }

    /// The paper's GA fitness metric: the *mean root square* of `n`
    /// max-amplitude marker readings in `[lo, hi]` Hz — `n` sweeps are
    /// taken, each contributing its band peak in linear power; the metric
    /// is the RMS of those peaks, reported in dBm.
    ///
    /// Bit-identical to `n` [`SpectrumAnalyzer::sweep`]s (at least one)
    /// each read with [`SweepReading::peak_in_band`], but only the noise
    /// differs between sweeps: each in-band point's noise-free level is
    /// computed once, and every sweep after that is a noise-only pass.
    /// Each display point still draws its noise in point order, so the
    /// RNG stream is unchanged; only in-band points pay for the transform.
    ///
    /// Returns `(metric_dbm, dominant_frequency_hz)`.
    pub fn peak_metric<R: Rng, S: SpectralBins>(
        &mut self,
        input: &S,
        lo: f64,
        hi: f64,
        n: usize,
        rng: &mut R,
    ) -> (f64, f64) {
        let mut acc = 0.0;
        let mut freq_votes: std::collections::BTreeMap<i64, usize> =
            std::collections::BTreeMap::new();
        let mut best_freq = lo;
        let mut hits = 0usize;
        // `(frequency, noise-free level)` of in-band points, `None` elsewhere.
        let trace: Vec<Option<(f64, f64)>> = (0..self.config.points)
            .map(|i| {
                let f = self.point_hz(i);
                (f >= lo && f <= hi).then(|| (f, self.level_at(input, i)))
            })
            .collect();
        let sigma_db = self.config.noise_sigma_db;
        for _ in 0..n.max(1) {
            self.elapsed_s += self.config.sweep_time_s;
            // Band peak; a tie goes to the later point, as in `max_by`.
            let mut peak: Option<(f64, f64)> = None;
            for point in &trace {
                let u = uniforms(rng);
                if let Some((f, base)) = *point {
                    let level = base + box_muller(u, sigma_db);
                    if peak.is_none_or(|(_, best)| level.total_cmp(&best).is_ge()) {
                        peak = Some((f, level));
                    }
                }
            }
            if let Some((f, dbm)) = peak {
                let p = dbm_to_watts(dbm);
                acc += p * p;
                hits += 1;
                let key = (f / 1e6).round() as i64;
                *freq_votes.entry(key).or_insert(0) += 1;
            }
        }
        if hits == 0 {
            // The requested band holds no displayed points (e.g. a marker
            // outside the sweep span): report the instrument floor.
            return (self.config.noise_floor_dbm, best_freq);
        }
        if let Some((&key, _)) = freq_votes.iter().max_by_key(|(_, &v)| v) {
            best_freq = key as f64 * 1e6;
        }
        let rms_w = (acc / hits as f64).sqrt();
        (watts_to_dbm(rms_w), best_freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_dsp::{Spectrum, Window};
    use rand::{rngs::StdRng, SeedableRng};

    fn tone_spectrum(f0: f64, amp_v: f64) -> Spectrum {
        let fs = 1e9;
        let n = 8192;
        let s: Vec<f64> = (0..n)
            .map(|i| amp_v * (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
            .collect();
        Spectrum::of_samples(&s, fs, Window::Hann)
    }

    #[test]
    fn tone_level_is_close_to_theory() {
        // 1 mV peak into 50 ohm: P = 1e-6/100 = 10 nW = -50 dBm.
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig {
            noise_sigma_db: 0.0,
            ..AnalyzerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let reading = sa.sweep(&tone_spectrum(100e6, 1e-3), &mut rng);
        let (f, dbm) = reading.peak_in_band(50e6, 200e6).unwrap();
        assert!((f - 100e6).abs() < 1e6, "peak at {f:.3e}");
        assert!((dbm - (-50.0)).abs() < 1.5, "level {dbm} dBm");
    }

    #[test]
    fn noise_floor_dominates_when_no_signal() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let empty = Spectrum::from_bins(1e6, vec![0.0; 300]);
        let reading = sa.sweep(&empty, &mut rng);
        for (_, dbm) in &reading.points {
            assert!((*dbm - (-95.0)).abs() < 5.0, "floor point {dbm}");
        }
    }

    #[test]
    fn weak_tone_below_floor_is_invisible() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        // -130 dBm-ish tone: far below the -95 dBm floor.
        let reading = sa.sweep(&tone_spectrum(100e6, 1e-7), &mut rng);
        let (_, dbm) = reading.peak_in_band(90e6, 110e6).unwrap();
        assert!(dbm < -88.0, "tone should be buried, got {dbm}");
    }

    #[test]
    fn peak_metric_votes_for_dominant_frequency() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let (dbm, f) = sa.peak_metric(&tone_spectrum(67e6, 1e-3), 50e6, 200e6, 30, &mut rng);
        assert!((f - 67e6).abs() < 1.5e6, "dominant {f:.3e}");
        assert!((dbm - (-50.0)).abs() < 2.0, "metric {dbm}");
    }

    #[test]
    fn sweep_time_accumulates() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let s = tone_spectrum(80e6, 1e-3);
        let _ = sa.peak_metric(&s, 50e6, 200e6, 30, &mut rng);
        // ~18 s for 30 samples, as the paper reports.
        assert!(
            (sa.elapsed() - 18.0).abs() < 1.0,
            "elapsed {}",
            sa.elapsed()
        );
        sa.reset_elapsed();
        assert_eq!(sa.elapsed(), 0.0);
    }

    #[test]
    fn stronger_tone_reads_higher() {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let (weak, _) = sa.peak_metric(&tone_spectrum(70e6, 1e-4), 50e6, 200e6, 5, &mut rng);
        let (strong, _) = sa.peak_metric(&tone_spectrum(70e6, 1e-3), 50e6, 200e6, 5, &mut rng);
        assert!(strong > weak + 15.0, "strong {strong} vs weak {weak}");
    }

    /// A band view holding the same bin values as the dense spectrum must
    /// sweep bit-identically inside the band: same displayed levels, same
    /// RNG draw order. This is the contract that lets the measurement
    /// layer swap in Goertzel bands without disturbing seeded campaigns
    /// beyond the documented bin-value tolerance.
    #[test]
    fn band_view_sweep_matches_dense_sweep_in_band() {
        use emvolt_dsp::BandSpectrum;
        let spec = tone_spectrum(100e6, 1e-3);
        let (lo, hi) = (50e6, 200e6);
        let margin = 4.0 * (1e6 / 2.355);
        let k0 = (((lo - margin) / spec.freq_step()).floor()) as usize;
        let k1 = ((((hi + margin) / spec.freq_step()).ceil()) as usize).min(spec.len() - 1);
        let mut band = BandSpectrum::default();
        band.refill_from_bins(
            spec.freq_step(),
            k0,
            spec.len(),
            (k0..=k1).map(|k| spec.amplitude_at(k)),
        );

        let mut sa_dense = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut sa_band = SpectrumAnalyzer::new(AnalyzerConfig::default());
        let mut rng_dense = StdRng::seed_from_u64(9);
        let mut rng_band = StdRng::seed_from_u64(9);
        let dense = sa_dense.sweep(&spec, &mut rng_dense);
        let banded = sa_band.sweep(&band, &mut rng_band);
        assert_eq!(dense.points.len(), banded.points.len());
        for ((f1, d1), (f2, d2)) in dense.points.iter().zip(&banded.points) {
            assert_eq!(f1.to_bits(), f2.to_bits());
            if *f1 >= lo && *f1 <= hi {
                assert_eq!(d1.to_bits(), d2.to_bits(), "level diverged at {f1:.3e}");
            }
        }
        // The RNG streams stayed aligned across the whole sweep.
        assert_eq!(rng_dense.gen::<u64>(), rng_band.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "invalid analyzer configuration")]
    fn rejects_empty_span() {
        let _ = SpectrumAnalyzer::new(AnalyzerConfig {
            start_hz: 100e6,
            stop_hz: 100e6,
            ..AnalyzerConfig::default()
        });
    }
}
