//! Golden digest of the cycle-level timing model.
//!
//! Pins every output of `Cpu::simulate` and `Cpu::simulate_traced` — the
//! current samples, IPC, cycles per iteration, per-unit issue counts and
//! the issue-slot occupancy — bit for bit over seeded random kernels on
//! every core model, with and without front-end interference. The model
//! uses only `+`, `×`, `÷` and a seeded `StdRng`, so the digests do not
//! depend on the host. A change to the engine's data structures must
//! leave them untouched; a deliberate change to the model's behaviour
//! updates the constants below (the failure message prints the new value).

use emvolt_cpu::{CoreModel, Cpu, SimConfig, SimOutput};
use emvolt_isa::InstructionPool;
use rand::{rngs::StdRng, Rng, SeedableRng};

const KERNELS_PER_MODEL: u64 = 100;

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

    fn output(&mut self, out: &SimOutput, occupancy: &[u32]) {
        self.word(out.current.len() as u64);
        for s in out.current.samples() {
            self.word(s.to_bits());
        }
        self.word(out.ipc.to_bits());
        self.word(out.cycles_per_iteration.to_bits());
        self.word(out.fu_issues.len() as u64);
        for (&kind, &count) in &out.fu_issues {
            self.word(kind as u64);
            self.word(count);
        }
        self.word(occupancy.len() as u64);
        for &n in occupancy {
            self.word(n as u64);
        }
    }
}

/// Digest of `KERNELS_PER_MODEL` random kernels (1–64 body ops) on
/// `model`, each with its own jitter seed when `jitter` is set.
fn model_digest(model: CoreModel, freq_hz: f64, jitter: bool) -> u64 {
    let pool = InstructionPool::default_for(model.isa);
    let cpu = Cpu::new(model, freq_hz);
    let mut rng = StdRng::seed_from_u64(0x5eed_0c0d ^ freq_hz as u64);
    let mut digest = Digest::new();
    let mut occupancy = Vec::new();
    for _ in 0..KERNELS_PER_MODEL {
        let len = rng.gen_range(1..=64usize);
        let kernel = pool.random_kernel(len, &mut rng);
        let cfg = SimConfig {
            warmup_iterations: 5,
            min_duration: 2e-6,
            interference_interval_s: if jitter { 250e-9 } else { 0.0 },
            jitter_seed: rng.gen(),
            ..SimConfig::default()
        };
        let plain = cpu.simulate(&kernel, &cfg).expect("simulates");
        let traced = cpu
            .simulate_traced(&kernel, &cfg, &mut occupancy)
            .expect("simulates");
        assert_eq!(plain.current.samples(), traced.current.samples());
        assert_eq!(plain.fu_issues, traced.fu_issues);
        digest.output(&plain, &occupancy);
    }
    digest.0
}

/// Checks `[without jitter, with jitter]` digests against `golden`.
fn check(name: &str, model: CoreModel, freq_hz: f64, golden: [u64; 2]) {
    let got = [false, true].map(|jitter| model_digest(model.clone(), freq_hz, jitter));
    assert_eq!(
        got, golden,
        "{name} digests [{:#018x}, {:#018x}]",
        got[0], got[1]
    );
}

#[test]
fn cortex_a72_digest_is_golden() {
    check(
        "Cortex-A72",
        CoreModel::cortex_a72(),
        1.2e9,
        [0xec5a_5bf0_0599_f6d2, 0xe2b2_bbeb_20e1_e6ae],
    );
}

#[test]
fn cortex_a53_digest_is_golden() {
    check(
        "Cortex-A53",
        CoreModel::cortex_a53(),
        950e6,
        [0x4d58_7741_d4db_04b6, 0x7734_35fb_0b93_fef4],
    );
}

#[test]
fn athlon_ii_digest_is_golden() {
    check(
        "Athlon II",
        CoreModel::athlon_ii(),
        3.1e9,
        [0x18c3_f5fe_4e29_1924, 0xbe60_b64e_17e1_f832],
    );
}

#[test]
fn gpu_sm_digest_is_golden() {
    check(
        "GPU SM",
        CoreModel::gpu_sm(),
        1.3e9,
        [0x3b76_5983_fb37_c0f2, 0x4c95_4ffa_5050_ec02],
    );
}
