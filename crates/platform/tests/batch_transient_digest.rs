//! Golden digests of the batched and serial PDN transients.
//!
//! Pins `to_bits` of every lane's `v_die` and `i_die` from
//! `Pdn::transient_batch` on the A72, A53 and Athlon II PDNs under
//! `RunConfig::fast`, driven by seeded random sample-trace loads, at
//! batch widths 1..=10 and 17 — every split of a batch into 8-wide lane
//! groups plus a remainder — and likewise every serial
//! `Pdn::transient_scoped` run of such loads through an `Auto`
//! (state-space) and a `KernelChoice::Lu` plan, one scratch reused
//! across all runs. The serial digests are the independent oracle for
//! the serial path, which shares its step kernels with the lane groups.
//! The transient uses only IEEE `+`, `-` and fused `mul_add`, so the
//! digests are the same at every SIMD dispatch level (including
//! `EMVOLT_SIMD=scalar`) and on every host. A change to the kernels'
//! loop structure must leave them untouched; a deliberate change to the
//! solver's arithmetic updates the constants below (the failure message
//! prints the new value).

use emvolt_circuit::{KernelChoice, Stimulus, TransientConfig, TransientScratch};
use emvolt_pdn::{Pdn, PdnParams};
use emvolt_platform::{a53_pdn, a72_pdn, amd_pdn, BatchTransientScratch, RunConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// Batch widths: one to ten lanes (a single group of each width, then
/// one full group plus a one- or two-lane remainder) and 17 (two full
/// groups plus one lane).
const WIDTHS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17];

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

    fn samples(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// A repeating core-current trace of random length and level, sampled
/// at the core clock.
fn random_load(rng: &mut StdRng, freq_hz: f64, lo: f64, hi: f64) -> Stimulus {
    let len = rng.gen_range(16..=512usize);
    let values: Vec<f64> = (0..len).map(|_| rng.gen_range(lo..hi)).collect();
    Stimulus::Samples {
        dt: 1.0 / freq_hz,
        values: Arc::from(values),
        repeat: true,
    }
}

/// Digest of every lane of every batch width on one PDN; each width
/// draws fresh loads and runs through a fresh scratch.
fn pdn_digest(params: PdnParams, active_cores: usize, freq_hz: f64, amps: (f64, f64)) -> u64 {
    let cfg = RunConfig::fast();
    let pdn = Pdn::new(params, active_cores);
    let plan = pdn.plan_transient(cfg.pdn_dt).expect("plans");
    let tcfg = TransientConfig::new(cfg.pdn_dt, cfg.pdn_warmup + cfg.pdn_window)
        .with_warmup(cfg.pdn_warmup);
    let mut rng = StdRng::seed_from_u64(0xba7c_4d16 ^ freq_hz as u64);
    let mut digest = Digest::new();
    for width in WIDTHS {
        let loads: Vec<Stimulus> = (0..width)
            .map(|_| random_load(&mut rng, freq_hz, amps.0, amps.1))
            .collect();
        let mut batch = BatchTransientScratch::new();
        pdn.transient_batch(&plan, &tcfg, &loads, &mut batch)
            .expect("batch runs");
        assert_eq!(batch.n_lanes(), width);
        digest.word(width as u64);
        for lane in 0..width {
            let die = pdn.die_lane(&batch, lane);
            digest.word(die.dt().to_bits());
            digest.word(die.start_time().to_bits());
            digest.samples(die.v_die());
            digest.samples(die.i_die());
        }
    }
    digest.0
}

/// Loads per serial digest, per plan kernel.
const SERIAL_RUNS: usize = 6;

/// Digest of serial runs on one PDN: the same seeded loads through an
/// `Auto` plan and then an LU plan, all through one reused scratch.
fn serial_digest(params: PdnParams, active_cores: usize, freq_hz: f64, amps: (f64, f64)) -> u64 {
    let cfg = RunConfig::fast();
    let mut pdn = Pdn::new(params, active_cores);
    let tcfg = TransientConfig::new(cfg.pdn_dt, cfg.pdn_warmup + cfg.pdn_window)
        .with_warmup(cfg.pdn_warmup);
    let mut scratch = TransientScratch::new();
    let mut digest = Digest::new();
    for kernel in [KernelChoice::Auto, KernelChoice::Lu] {
        let plan = pdn
            .plan_transient_kernel(cfg.pdn_dt, kernel)
            .expect("plans");
        assert_eq!(plan.uses_state_kernel(), kernel == KernelChoice::Auto);
        let mut rng = StdRng::seed_from_u64(0xba7c_4d16 ^ freq_hz as u64);
        for _ in 0..SERIAL_RUNS {
            pdn.set_load(random_load(&mut rng, freq_hz, amps.0, amps.1));
            let die = pdn
                .transient_scoped(&plan, &tcfg, &mut scratch)
                .expect("serial run");
            digest.word(die.dt().to_bits());
            digest.word(die.start_time().to_bits());
            digest.samples(die.v_die());
            digest.samples(die.i_die());
        }
    }
    digest.0
}

fn check(name: &str, got: u64, golden: u64) {
    assert_eq!(got, golden, "{name} digest {got:#018x}");
}

#[test]
fn a72_batch_digest_is_golden() {
    let got = pdn_digest(a72_pdn(), 2, 1.2e9, (0.2, 2.5));
    check("A72 batch", got, 0x01c7_924a_4f61_5701);
}

#[test]
fn a53_batch_digest_is_golden() {
    let got = pdn_digest(a53_pdn(), 4, 950e6, (0.1, 1.2));
    check("A53 batch", got, 0xb23a_8878_1485_4cc5);
}

#[test]
fn athlon_batch_digest_is_golden() {
    let got = pdn_digest(amd_pdn(), 4, 3.1e9, (2.0, 30.0));
    check("Athlon II batch", got, 0xc19b_6d1d_6459_45cb);
}

#[test]
fn a72_serial_digest_is_golden() {
    let got = serial_digest(a72_pdn(), 2, 1.2e9, (0.2, 2.5));
    check("A72 serial", got, 0x8a21_b05c_a171_8c4c);
}

#[test]
fn a53_serial_digest_is_golden() {
    let got = serial_digest(a53_pdn(), 4, 950e6, (0.1, 1.2));
    check("A53 serial", got, 0x4cd5_368f_5ec2_72f2);
}

#[test]
fn athlon_serial_digest_is_golden() {
    let got = serial_digest(amd_pdn(), 4, 3.1e9, (2.0, 30.0));
    check("Athlon II serial", got, 0x189f_1c2e_bfea_c391);
}
