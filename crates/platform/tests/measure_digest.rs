//! Golden digest of in-band EM measurements.
//!
//! Pins `to_bits` of `metric_dbm`, `dominant_hz` and the accumulated
//! analyzer time from `EmBench::measure_in_band`,
//! `SharedEmBench::measure_in_band_seeded_with` and
//! `SharedEmBench::measure_in_band_batch_seeded_with`, over A72 runs of
//! seeded random kernels, for the Goertzel band path and the full-FFT
//! path, on the paper's 50–200 MHz band and a narrowed one. The readings
//! depend only on IEEE arithmetic that every SIMD dispatch level performs
//! identically, so the digests hold at every level (including
//! `EMVOLT_SIMD=scalar`) and on every host. A restructuring of the
//! spectral or analyzer stages must leave them untouched; a deliberate
//! change to their arithmetic updates the constants below (the failure
//! message prints the new value).

use emvolt_cpu::CoreModel;
use emvolt_isa::{InstructionPool, Isa};
use emvolt_platform::{
    a72_pdn, DomainRun, DomainRunner, EmBench, MeasureScratch, RunConfig, SpectralChoice,
    VoltageDomain,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn reading(&mut self, metric_dbm: f64, dominant_hz: f64, elapsed: f64) {
        self.word(metric_dbm.to_bits());
        self.word(dominant_hz.to_bits());
        self.word(elapsed.to_bits());
    }
}

/// Measured bands: the paper's search band and a narrowed span.
const BANDS: [(f64, f64); 2] = [(50e6, 200e6), (60e6, 95e6)];

/// Analyzer sweeps per measurement.
const SWEEPS: usize = 4;

/// A72 runs of seeded random kernels of varying length and core count.
fn runs() -> Vec<DomainRun> {
    let domain = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
    let mut runner = DomainRunner::new(&domain, RunConfig::fast()).expect("runner");
    let pool = InstructionPool::default_for(Isa::ArmV8);
    let mut rng = StdRng::seed_from_u64(0x3ea5_0e1d);
    (0..5)
        .map(|_| {
            let kernel = pool.random_kernel(rng.gen_range(8..=40), &mut rng);
            let cores = rng.gen_range(1..=2);
            runner.run(&kernel, cores).expect("run")
        })
        .collect()
}

fn measure_digest(spectral: SpectralChoice) -> u64 {
    let runs = runs();
    let refs: Vec<&DomainRun> = runs.iter().collect();
    let seeds: Vec<u64> = (0..runs.len() as u64).map(|i| 0x51 + 7 * i).collect();
    let mut digest = Digest::new();
    for (lo, hi) in BANDS {
        let mut bench = EmBench::new(0x0b5e);
        bench.set_spectral(spectral);
        for run in &runs {
            let r = bench.measure_in_band(run, lo, hi, SWEEPS);
            digest.reading(r.metric_dbm, r.dominant_hz, bench.elapsed());
        }

        let shared = bench.share();
        let mut scratch = MeasureScratch::new();
        for (run, &seed) in runs.iter().zip(&seeds) {
            let r = shared.measure_in_band_seeded_with(run, lo, hi, SWEEPS, seed, &mut scratch);
            digest.reading(r.metric_dbm, r.dominant_hz, shared.elapsed());
        }
        for r in
            shared.measure_in_band_batch_seeded_with(&refs, lo, hi, SWEEPS, &seeds, &mut scratch)
        {
            digest.reading(r.metric_dbm, r.dominant_hz, shared.elapsed());
        }
        digest.word(shared.take_elapsed().to_bits());
    }
    digest.0
}

fn check(name: &str, got: u64, golden: u64) {
    assert_eq!(got, golden, "{name} measurement digest {got:#018x}");
}

#[test]
fn band_measurement_digest_is_golden() {
    let got = measure_digest(SpectralChoice::BandGoertzel);
    check("band", got, 0x09d8_1934_5c17_067d);
}

#[test]
fn fft_measurement_digest_is_golden() {
    let got = measure_digest(SpectralChoice::FullFft);
    check("FFT", got, 0xc429_24fa_dd9a_8ec5);
}
