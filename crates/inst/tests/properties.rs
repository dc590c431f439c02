//! Property-based tests for the instrument models.

use emvolt_circuit::Trace;
use emvolt_dsp::{dbm_to_watts, watts_to_dbm, BandSpectrum, SpectralBins, Spectrum, Window};
use emvolt_inst::{AnalyzerConfig, Oscilloscope, ScopeConfig, SpectrumAnalyzer};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

fn tone_spectrum(f0: f64, amp_v: f64) -> Spectrum {
    let fs = 1e9;
    let n = 4096;
    let s: Vec<f64> = (0..n)
        .map(|i| amp_v * (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
        .collect();
    Spectrum::of_samples(&s, fs, Window::Hann)
}

/// The formulation `peak_metric` replaces: `n` full sweeps (at least
/// one), each read with `peak_in_band`, then the RMS of the band peaks in
/// linear power and a vote over the peaks' frequencies rounded to MHz.
fn reference_peak_metric<S: SpectralBins>(
    sa: &mut SpectrumAnalyzer,
    input: &S,
    lo: f64,
    hi: f64,
    n: usize,
    rng: &mut StdRng,
) -> (f64, f64) {
    let mut acc = 0.0;
    let mut hits = 0usize;
    let mut votes: BTreeMap<i64, usize> = BTreeMap::new();
    for _ in 0..n.max(1) {
        if let Some((f, dbm)) = sa.sweep(input, rng).peak_in_band(lo, hi) {
            let p = dbm_to_watts(dbm);
            acc += p * p;
            hits += 1;
            *votes.entry((f / 1e6).round() as i64).or_insert(0) += 1;
        }
    }
    if hits == 0 {
        return (sa.config().noise_floor_dbm, lo);
    }
    let (&key, _) = votes.iter().max_by_key(|(_, &v)| v).expect("hits > 0");
    (watts_to_dbm((acc / hits as f64).sqrt()), key as f64 * 1e6)
}

/// Asserts `peak_metric` matches the reference bit for bit: the result,
/// the accumulated sweep time and the RNG stream left behind.
fn assert_peak_metric_matches<S: SpectralBins>(
    cfg: &AnalyzerConfig,
    input: &S,
    (lo, hi): (f64, f64),
    n: usize,
    seed: u64,
) {
    let mut sa = SpectrumAnalyzer::new(cfg.clone());
    let mut sa_ref = SpectrumAnalyzer::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rng_ref = StdRng::seed_from_u64(seed);
    let (metric, hz) = sa.peak_metric(input, lo, hi, n, &mut rng);
    let (metric_ref, hz_ref) = reference_peak_metric(&mut sa_ref, input, lo, hi, n, &mut rng_ref);
    assert_eq!(
        metric.to_bits(),
        metric_ref.to_bits(),
        "{metric} vs {metric_ref}"
    );
    assert_eq!(hz.to_bits(), hz_ref.to_bits(), "{hz} vs {hz_ref}");
    assert_eq!(sa.elapsed().to_bits(), sa_ref.elapsed().to_bits());
    assert_eq!(rng.gen::<u64>(), rng_ref.gen::<u64>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `peak_metric` is bit-identical to `n` full sweeps read with
    /// `peak_in_band`, on dense spectra and on band views cut from them,
    /// for bands inside, straddling and outside the sweep span. Display
    /// points beyond a spectrum's last bin or far from its nonzero bins
    /// read exactly the floor, so with zero noise they tie, which
    /// exercises the later-point-wins tie rule.
    #[test]
    fn peak_metric_matches_full_sweeps(
        (freq_step, bins) in (
            0.1e6..2e6f64,
            prop::collection::vec((any::<bool>(), 1e-6..1e-2f64), 0..700),
        ),
        (band_from, band_len) in (0.0..1.0f64, 0.0..1.0f64),
        (lo, width) in (0.0..300e6f64, 0.0..150e6f64),
        n in 0usize..=8,
        (noise_sigma_db, points) in (prop_oneof![Just(0.0), 0.05..3.0f64], 2usize..600),
        seed in any::<u64>(),
    ) {
        let cfg = AnalyzerConfig {
            noise_sigma_db,
            points,
            ..AnalyzerConfig::default()
        };
        let amps: Vec<f64> = bins.iter().map(|&(on, a)| if on { a } else { 0.0 }).collect();
        let dense = Spectrum::from_bins(freq_step, amps.clone());
        let band_range = (lo, lo + width);
        assert_peak_metric_matches(&cfg, &dense, band_range, n, seed);

        let first = (band_from * amps.len() as f64) as usize;
        let covered = (band_len * (amps.len() - first) as f64) as usize;
        let mut band = BandSpectrum::default();
        band.refill_from_bins(
            freq_step,
            first,
            amps.len(),
            amps[first..first + covered].iter().copied(),
        );
        assert_peak_metric_matches(&cfg, &band, band_range, n, seed);
    }

    /// Analyzer monotonicity: a stronger tone never reads lower (with
    /// noise disabled).
    #[test]
    fn analyzer_is_monotone(f0 in 20e6..240e6f64, a in 1e-5..1e-2f64, k in 1.5..10.0f64) {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig {
            noise_sigma_db: 0.0,
            ..AnalyzerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let (weak, _) = sa.peak_metric(&tone_spectrum(f0, a), 10e6, 250e6, 1, &mut rng);
        let (strong, _) = sa.peak_metric(&tone_spectrum(f0, a * k), 10e6, 250e6, 1, &mut rng);
        prop_assert!(strong >= weak, "strong {strong} < weak {weak}");
    }

    /// A noiseless tone reads within 2 dB of its theoretical dBm level
    /// whenever it is comfortably above the floor.
    #[test]
    fn analyzer_levels_match_theory(f0 in 20e6..240e6f64, a in 3e-4..1e-2f64) {
        let mut sa = SpectrumAnalyzer::new(AnalyzerConfig {
            noise_sigma_db: 0.0,
            ..AnalyzerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let (dbm, f) = sa.peak_metric(&tone_spectrum(f0, a), 10e6, 250e6, 1, &mut rng);
        let expected = 10.0 * ((a * a / 100.0) / 1e-3).log10();
        prop_assert!((dbm - expected).abs() < 2.0, "{dbm} vs {expected}");
        prop_assert!((f - f0).abs() < 2e6, "marker at {f}, tone {f0}");
    }

    /// Scope output always lies on the quantization grid and inside the
    /// vertical range, for any input.
    #[test]
    fn scope_output_is_on_grid(
        amp in 0.0..3.0f64,
        offset in -1.0..3.0f64,
        f0 in 1e6..200e6f64,
    ) {
        let cfg = ScopeConfig {
            noise_v: 0.0,
            ..ScopeConfig::oc_dso()
        };
        let scope = Oscilloscope::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let analog = Trace::from_samples(
            0.25e-9,
            (0..4000)
                .map(|i| offset + amp * (2.0 * std::f64::consts::PI * f0 * i as f64 * 0.25e-9).sin())
                .collect(),
        );
        let shot = scope.capture(&analog, &mut rng);
        let lo = cfg.v_center - cfg.v_span / 2.0;
        let hi = cfg.v_center + cfg.v_span / 2.0;
        let lsb = cfg.v_span / (1u64 << cfg.bits) as f64;
        for &v in shot.samples() {
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            let steps = (v - lo) / lsb;
            prop_assert!((steps - steps.round()).abs() < 1e-9);
        }
    }

    /// Scope capture of an in-range signal preserves its mean within an
    /// LSB plus noise.
    #[test]
    fn scope_preserves_mean(offset in 0.8..1.2f64) {
        let cfg = ScopeConfig::oc_dso();
        let lsb = cfg.v_span / (1u64 << cfg.bits) as f64;
        let scope = Oscilloscope::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let analog = Trace::from_samples(1e-9, vec![offset; 4000]);
        let shot = scope.capture(&analog, &mut rng);
        prop_assert!((shot.mean() - offset).abs() < lsb + 1e-3);
    }
}
