//! Band-limited spectral evaluation via the Goertzel algorithm.
//!
//! The measurement chain's spectrum analyzer only ever reads a narrow
//! band (the paper's 50–200 MHz EM resonance window), yet the full-FFT
//! path computes every bin of a Bluestein transform. The Goertzel
//! recurrence evaluates the *same* DFT bins — `X_k` for exactly the bins
//! a band sweep will scan — in `O(n)` per bin with no transform-length
//! padding, which wins whenever the band covers a minority of the
//! spectrum.
//!
//! Bin values agree with [`Spectrum::of_samples_into`] to rounding: both
//! compute the identical windowed DFT coefficient, but the Goertzel
//! recurrence accumulates it in a different floating-point order than
//! the FFT butterflies, so the equivalence contract is a documented
//! tolerance (see DESIGN.md §9 and the property tests), not `to_bits`.
//!
//! The recurrence state is laid out as flat per-bin arrays and the
//! sample loop is the outer loop, so the inner per-bin update has no
//! cross-iteration dependency and vectorizes cleanly.

use crate::spectrum::Spectrum;
use crate::window::Window;
use emvolt_obs::{CounterId, Layer, Telemetry};

/// Read-only view of a one-sided amplitude spectrum, implemented by both
/// the dense [`Spectrum`] and the band-limited [`BandSpectrum`].
///
/// Consumers that scan bins by index (the spectrum analyzer's sweep, the
/// EM channel's transfer application) are generic over this trait, so a
/// band-limited spectrum slots into the measurement chain wherever a
/// full one is accepted.
pub trait SpectralBins {
    /// Frequency resolution (Hz per bin).
    fn freq_step(&self) -> f64;

    /// Number of addressable bins (DC through Nyquist) — for a band
    /// view, the *logical* bin count of the underlying full spectrum,
    /// not just the bins actually evaluated.
    fn len(&self) -> usize;

    /// `true` when the spectrum holds no bins.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Amplitude of bin `k`. Band views return `0.0` outside the band
    /// they evaluated.
    fn amplitude_at(&self, k: usize) -> f64;

    /// Frequency of bin `k`.
    fn freq_at(&self, k: usize) -> f64 {
        k as f64 * self.freq_step()
    }
}

impl SpectralBins for Spectrum {
    fn freq_step(&self) -> f64 {
        Spectrum::freq_step(self)
    }

    fn len(&self) -> usize {
        Spectrum::len(self)
    }

    fn amplitude_at(&self, k: usize) -> f64 {
        Spectrum::amplitude_at(self, k)
    }
}

/// Amplitudes for a contiguous run of DFT bins, indexed like the full
/// spectrum they were cut from.
///
/// `len()` reports the full spectrum's bin count and `amplitude_at`
/// answers `0.0` for bins outside the evaluated band, so downstream
/// index arithmetic (analyzer scan windows, `f / freq_step` clamps)
/// behaves exactly as it does on a dense [`Spectrum`]. The analyzer's
/// sweep already skips zero-amplitude bins, so out-of-band zeros cost
/// nothing there.
#[derive(Debug, Clone, PartialEq)]
pub struct BandSpectrum {
    freq_step: f64,
    first_bin: usize,
    total_bins: usize,
    bins: Vec<f64>,
}

impl Default for BandSpectrum {
    /// An empty band with a unit frequency step, intended as the starting
    /// state for the `_into` refill APIs.
    fn default() -> Self {
        BandSpectrum {
            freq_step: 1.0,
            first_bin: 0,
            total_bins: 0,
            bins: Vec::new(),
        }
    }
}

impl BandSpectrum {
    /// Index of the first evaluated bin.
    pub fn first_bin(&self) -> usize {
        self.first_bin
    }

    /// Number of bins actually evaluated (the band, not the full
    /// spectrum).
    pub fn covered_bins(&self) -> usize {
        self.bins.len()
    }

    /// Evaluated amplitudes, first bin at [`BandSpectrum::first_bin`].
    pub fn amplitudes(&self) -> &[f64] {
        &self.bins
    }

    /// Overwrites this band in place from per-bin amplitudes, reusing the
    /// bin storage — the band counterpart of
    /// [`Spectrum::refill_from_bins`].
    ///
    /// # Panics
    ///
    /// Panics if `freq_step` is not strictly positive or the band extends
    /// past `total_bins`.
    pub fn refill_from_bins(
        &mut self,
        freq_step: f64,
        first_bin: usize,
        total_bins: usize,
        bins: impl Iterator<Item = f64>,
    ) {
        assert!(freq_step > 0.0, "frequency step must be positive");
        self.freq_step = freq_step;
        self.first_bin = first_bin;
        self.total_bins = total_bins;
        self.bins.clear();
        self.bins.extend(bins);
        assert!(
            first_bin + self.bins.len() <= total_bins,
            "band extends past the spectrum"
        );
    }

    /// Overwrites this band in place from the elementwise product
    /// `amps[j] * scale[j]` — the EM channel's transfer application —
    /// running the multiply on the runtime-dispatched SIMD level (every
    /// level is bit-identical; see `emvolt-simd`).
    ///
    /// # Panics
    ///
    /// Panics if `freq_step` is not strictly positive, `amps` and `scale`
    /// differ in length, or the band extends past `total_bins`.
    pub fn refill_from_product(
        &mut self,
        freq_step: f64,
        first_bin: usize,
        total_bins: usize,
        amps: &[f64],
        scale: &[f64],
    ) {
        assert!(freq_step > 0.0, "frequency step must be positive");
        assert_eq!(amps.len(), scale.len(), "amplitude/scale length mismatch");
        assert!(
            first_bin + amps.len() <= total_bins,
            "band extends past the spectrum"
        );
        self.freq_step = freq_step;
        self.first_bin = first_bin;
        self.total_bins = total_bins;
        self.bins.clear();
        self.bins.resize(amps.len(), 0.0);
        emvolt_simd::level().mul(amps, scale, &mut self.bins);
    }
}

impl SpectralBins for BandSpectrum {
    fn freq_step(&self) -> f64 {
        self.freq_step
    }

    fn len(&self) -> usize {
        self.total_bins
    }

    fn amplitude_at(&self, k: usize) -> f64 {
        if k < self.first_bin {
            0.0
        } else {
            self.bins.get(k - self.first_bin).copied().unwrap_or(0.0)
        }
    }
}

/// Reusable buffers for repeated band evaluations: the windowed copy of
/// the input plus the per-bin recurrence state. At steady state (same
/// record length and band across calls) [`of_samples_band_into`]
/// performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct GoertzelScratch {
    windowed: Vec<f64>,
    coeff: Vec<f64>,
    s1: Vec<f64>,
    s2: Vec<f64>,
    /// Per-sample window coefficients, shared by the windowing pass and
    /// the coherent-gain sum (and across every lane of a multi-lane
    /// call).
    wcoef: Vec<f64>,
    telemetry: Telemetry,
}

impl GoertzelScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry handle; bands computed through this scratch
    /// then charge the Goertzel counter and (for emitting handles) a
    /// `goertzel` span. The default handle is inert.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// Evaluates the amplitude bins covering `[lo_hz, hi_hz]` of the signal's
/// one-sided spectrum, windowed and scaled identically to
/// [`Spectrum::of_samples_into`] — the one-lane case of
/// [`of_samples_band_multi_into`].
///
/// The covered bin range is widened outward — `floor(lo/step)` through
/// `ceil(hi/step)`, clamped to the spectrum — so every bin whose
/// frequency could enter a scan window over `[lo_hz, hi_hz]` is present.
/// An inverted or fully out-of-range band yields zero covered bins (but
/// the logical bin count is still that of the full spectrum).
///
/// # Panics
///
/// Panics if `sample_rate` is not strictly positive.
pub fn of_samples_band_into(
    samples: &[f64],
    sample_rate: f64,
    window: Window,
    lo_hz: f64,
    hi_hz: f64,
    scratch: &mut GoertzelScratch,
    out: &mut BandSpectrum,
) {
    of_samples_band_multi_into(
        &[samples],
        sample_rate,
        window,
        lo_hz,
        hi_hz,
        scratch,
        std::slice::from_mut(out),
    );
}

/// Multi-lane band evaluation: `lanes` independent signals of equal
/// length evaluated over one shared bin grid in a single pass, each
/// windowed, scaled and bin-selected as [`of_samples_band_into`]
/// documents.
///
/// Everything that depends only on the record length and band is
/// computed once and shared across every lane: the per-sample window
/// coefficients, the coherent gain, and the per-bin recurrence
/// coefficients `2·cos(2πk/n)`. Each lane then runs the bin-vectorized
/// quad recurrence against the shared state, so per lane the arithmetic
/// sequence (windowing, per-bin recurrence in sample order, magnitude
/// extraction) does not depend on the lane count and `outs[l]` is
/// bit-identical to a one-lane evaluation of `lanes[l]` alone. One
/// [`CounterId::GoertzelInvocations`] tick is charged per lane, and the
/// `goertzel` span carries a `lanes` field only when there is more than
/// one, so a one-lane call reports exactly like a serial evaluation.
///
/// Lanes of differing lengths have different bin grids and are evaluated
/// one lane at a time (still bit-identical per lane).
///
/// # Panics
///
/// Panics if `sample_rate` is not strictly positive or `outs` is shorter
/// than `lanes`.
pub fn of_samples_band_multi_into(
    lanes: &[&[f64]],
    sample_rate: f64,
    window: Window,
    lo_hz: f64,
    hi_hz: f64,
    scratch: &mut GoertzelScratch,
    outs: &mut [BandSpectrum],
) {
    assert!(sample_rate > 0.0, "sample rate must be positive");
    assert!(outs.len() >= lanes.len(), "one output band per lane");
    let n_lanes = lanes.len();
    if n_lanes == 0 {
        return;
    }
    let n = lanes[0].len();
    if lanes.iter().any(|s| s.len() != n) {
        for (samples, out) in lanes.iter().zip(outs.iter_mut()) {
            of_samples_band_into(samples, sample_rate, window, lo_hz, hi_hz, scratch, out);
        }
        return;
    }
    let outs = &mut outs[..n_lanes];
    for out in outs.iter_mut() {
        out.bins.clear();
        out.first_bin = 0;
    }
    if n == 0 {
        for out in outs.iter_mut() {
            out.freq_step = sample_rate;
            out.total_bins = 0;
        }
        return;
    }
    let total_bins = n / 2 + 1;
    let freq_step = sample_rate / n as f64;

    let k0 = if lo_hz <= 0.0 {
        0
    } else {
        ((lo_hz / freq_step).floor() as usize).min(total_bins)
    };
    let k1 = if hi_hz < lo_hz || hi_hz < 0.0 {
        0
    } else {
        (((hi_hz / freq_step).ceil() as usize) + 1).min(total_bins)
    };
    for out in outs.iter_mut() {
        out.freq_step = freq_step;
        out.total_bins = total_bins;
        out.first_bin = k0;
    }
    if k1 <= k0 {
        return;
    }
    let nb = k1 - k0;

    // The per-sample window coefficients and the coherent gain depend
    // only on the record length, so they are computed once for all
    // lanes. The windowed product `samples[i] * w[i]` multiplies exactly
    // the values `Window::apply` multiplies, and the gain sums the same
    // coefficients in the same order as `Window::coherent_gain`, so every
    // value is identical to the full-FFT path's windowing.
    let GoertzelScratch {
        windowed,
        coeff,
        s1,
        s2,
        wcoef,
        ..
    } = scratch;
    let lv = emvolt_simd::level();
    wcoef.clear();
    wcoef.extend((0..n).map(|i| window.value(i, n)));
    let gain = (wcoef.iter().sum::<f64>() / n as f64).max(1e-12);
    let scale = 1.0 / (n as f64 * gain);

    // Windowed copies, lane-major `[L][n]`, through the dispatched SIMD
    // multiply.
    windowed.clear();
    windowed.resize(n_lanes * n, 0.0);
    for (samples, lane_w) in lanes.iter().zip(windowed.chunks_exact_mut(n)) {
        lv.mul(samples, wcoef, lane_w);
    }

    coeff.clear();
    coeff.extend((k0..k1).map(|k| {
        let w = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
        2.0 * w.cos()
    }));

    // Sample-outer / bin-inner recurrence on the dispatched SIMD level,
    // one lane at a time against the shared coefficients: the inner loop
    // has no cross-iteration dependency, so it vectorizes across bins,
    // and four samples advance per inner pass so the state arrays are
    // loaded and stored once per quad. The per-bin sequence is the fused
    // `c.mul_add(s1, x − s2)` step in sample order at every level, so
    // results are bit-identical across dispatch levels (see
    // `emvolt-simd`) and lane counts. The recurrence chain is
    // latency-bound, so the shared trig above is where the multi-lane
    // win comes from.
    for (lane_w, out) in windowed.chunks_exact(n).zip(outs.iter_mut()) {
        s1.clear();
        s1.resize(nb, 0.0);
        s2.clear();
        s2.resize(nb, 0.0);
        lv.goertzel(lane_w, coeff, s1, s2);
        out.bins.extend((0..nb).map(|j| {
            let a = s1[j];
            let b = s2[j];
            let power = a * a + b * b - coeff[j] * a * b;
            let mag = power.max(0.0).sqrt() * scale;
            let k = k0 + j;
            // One-sided doubling, same rule as the full-FFT path.
            if k == 0 || (n.is_multiple_of(2) && k == n / 2) {
                mag
            } else {
                2.0 * mag
            }
        }));
    }

    scratch
        .telemetry
        .count(CounterId::GoertzelInvocations, n_lanes as u64);
    let fields = [
        ("n", n as f64),
        ("bins", nb as f64),
        ("lanes", n_lanes as f64),
    ];
    let fields = if n_lanes == 1 { &fields[..2] } else { &fields };
    scratch.telemetry.span("goertzel", Layer::Dsp, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, fs: f64, f0: f64, a: f64) -> Vec<f64> {
        (0..n)
            .map(|i| a * (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
            .collect()
    }

    fn band_of(samples: &[f64], fs: f64, window: Window, lo: f64, hi: f64) -> BandSpectrum {
        let mut scratch = GoertzelScratch::new();
        let mut out = BandSpectrum::default();
        of_samples_band_into(samples, fs, window, lo, hi, &mut scratch, &mut out);
        out
    }

    #[test]
    fn band_bins_match_full_fft_bins() {
        let fs = 1000.0;
        let s = tone(1000, fs, 50.0, 3.0);
        let full = Spectrum::of_samples(&s, fs, Window::Hann);
        let band = band_of(&s, fs, Window::Hann, 30.0, 80.0);
        assert_eq!(band.freq_step(), full.freq_step());
        assert_eq!(SpectralBins::len(&band), full.len());
        let peak = full
            .amplitudes()
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        for k in band.first_bin()..band.first_bin() + band.covered_bins() {
            let a = full.amplitude_at(k);
            let b = SpectralBins::amplitude_at(&band, k);
            assert!(
                (a - b).abs() <= 1e-9 * peak.max(1e-300),
                "bin {k}: fft={a}, goertzel={b}"
            );
        }
    }

    #[test]
    fn out_of_band_bins_read_zero() {
        let fs = 1000.0;
        let s = tone(512, fs, 100.0, 1.0);
        let band = band_of(&s, fs, Window::Hann, 80.0, 120.0);
        assert_eq!(SpectralBins::amplitude_at(&band, 0), 0.0);
        assert_eq!(SpectralBins::amplitude_at(&band, 256), 0.0);
        assert!(band.first_bin() > 0);
        assert!(band.covered_bins() < SpectralBins::len(&band));
    }

    #[test]
    fn band_edges_cover_scan_clamps() {
        // The analyzer clamps scan windows with floor(lo/step) and
        // ceil(hi/step); the evaluated band must include both edges.
        let fs = 1000.0;
        let s = tone(1000, fs, 100.0, 1.0);
        let band = band_of(&s, fs, Window::Hann, 50.4, 149.6);
        let step = band.freq_step();
        let k_lo = (50.4 / step).floor() as usize;
        let k_hi = (149.6 / step).ceil() as usize;
        assert!(band.first_bin() <= k_lo);
        assert!(band.first_bin() + band.covered_bins() > k_hi);
    }

    #[test]
    fn degenerate_bands_are_empty_but_sized() {
        let fs = 1000.0;
        let s = tone(256, fs, 60.0, 1.0);
        let inverted = band_of(&s, fs, Window::Hann, 200.0, 100.0);
        assert_eq!(inverted.covered_bins(), 0);
        assert_eq!(SpectralBins::len(&inverted), 129);
        let empty = band_of(&[], fs, Window::Hann, 0.0, 100.0);
        assert!(SpectralBins::is_empty(&empty));
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let fs = 1000.0;
        let mut scratch = GoertzelScratch::new();
        let mut out = BandSpectrum::default();
        for (n, f0) in [(1000usize, 50.0), (512, 120.0), (1000, 75.0)] {
            let s = tone(n, fs, f0, 1.7);
            let fresh = band_of(&s, fs, Window::Hann, 20.0, 200.0);
            of_samples_band_into(&s, fs, Window::Hann, 20.0, 200.0, &mut scratch, &mut out);
            assert_eq!(fresh, out, "n={n}");
        }
    }
}
