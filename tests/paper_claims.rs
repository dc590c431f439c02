//! Reduced-scale checks of the paper's headline claims. The full-scale
//! numbers live in EXPERIMENTS.md; these tests guard the *shape* of each
//! result on every build.

use emvolt::core::{
    fast_resonance_sweep_on, generate_em_virus_on, FastSweepConfig, VirusGenConfig,
};
use emvolt::ga::GaConfig;
use emvolt::prelude::*;

fn small_ga() -> VirusGenConfig {
    VirusGenConfig {
        ga: GaConfig {
            population: 10,
            generations: 6,
            ..GaConfig::default()
        },
        kernel_len: 30,
        loaded_cores: 2,
        samples_per_individual: 2,
        ..VirusGenConfig::default()
    }
}

/// §5.1 / Fig. 7: the EM-driven GA improves its fitness and its dominant
/// frequency lands inside the paper's 50-200 MHz first-order band.
#[test]
fn ga_improves_and_lands_in_band() {
    let domain = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
    let cfg = small_ga();
    let mut backend = LiveBackend::single(domain.clone(), EmBench::new(42), cfg.run.clone());
    let virus = generate_em_virus_on("test", &mut backend, domain.name(), &cfg).unwrap();
    let first = virus.history.first().unwrap().best_so_far();
    let last = virus.history.last().unwrap().best_so_far();
    assert!(last >= first, "fitness regressed: {first} -> {last}");
    assert!(
        (50e6..=200e6).contains(&virus.dominant_hz),
        "dominant {:.1} MHz outside band",
        virus.dominant_hz / 1e6
    );
}

/// §5.3 / Figs. 11, 16: the fast sweep finds each platform's first-order
/// resonance within ~20%.
#[test]
fn fast_sweep_finds_resonance_on_all_three_cpus() {
    let juno = JunoBoard::new();
    let amd = AmdDesktop::new();
    for (domain, seed) in [(&juno.a72, 1u64), (&juno.a53, 2), (&amd.domain, 3)] {
        let mut cfg = FastSweepConfig::for_domain(domain);
        cfg.samples_per_point = 3;
        // Halve the point count to keep the test quick.
        cfg.cpu_freqs_hz = cfg.cpu_freqs_hz.iter().step_by(2).copied().collect();
        let mut backend = LiveBackend::single(domain.clone(), EmBench::new(seed), cfg.run.clone());
        let result = fast_resonance_sweep_on(&mut backend, domain.name(), &cfg).unwrap();
        let expected = domain.expected_resonance_hz();
        assert!(
            (result.resonance_hz - expected).abs() / expected < 0.25,
            "{}: sweep {:.1} MHz vs analytic {:.1} MHz",
            domain.name(),
            result.resonance_hz / 1e6,
            expected / 1e6
        );
    }
}

/// §6 / Fig. 13: power-gating cores raises the first-order resonance
/// monotonically on the quad-core A53.
#[test]
fn power_gating_raises_resonance_monotonically() {
    let board = JunoBoard::new();
    let mut last = 0.0;
    for active in (1..=4).rev() {
        let mut a53 = board.a53.clone();
        a53.power_gate(active);
        let f = a53.expected_resonance_hz();
        assert!(f > last, "resonance must rise as cores gate off");
        last = f;
    }
    // Endpoints match the paper's measured values.
    let p = a53_pdn();
    assert!((p.first_order_resonance_hz(4) - 76.5e6).abs() < 1e6);
    assert!((p.first_order_resonance_hz(1) - 97e6).abs() < 1.5e6);
}

/// Table 1 sanity: the three platforms expose the paper's configuration.
#[test]
fn table1_platform_inventory() {
    let juno = JunoBoard::new();
    let amd = AmdDesktop::new();
    assert_eq!(juno.a72.core_count(), 2);
    assert_eq!(juno.a53.core_count(), 4);
    assert_eq!(amd.domain.core_count(), 4);
    assert_eq!(juno.a72.core_model().isa, Isa::ArmV8);
    assert_eq!(amd.domain.core_model().isa, Isa::X86_64);
    assert!(!juno.a72.core_model().out_of_order || juno.a72.core_model().window > 0);
    assert!(!juno.a53.core_model().out_of_order, "A53 is in-order");
}

/// §2.2 / Fig. 2: pulsed excitation at the resonance amplifies both die
/// voltage and die current well beyond off-resonance excitation.
#[test]
fn resonant_amplification_holds() {
    use emvolt::circuit::{Stimulus, TransientConfig};
    let params = a72_pdn();
    let f_res = params.first_order_resonance_hz(2);
    let mut pdn = Pdn::new(params, 2);
    let cfg = TransientConfig::new(0.5e-9, 3e-6).with_warmup(1.5e-6);
    pdn.set_load(Stimulus::square(0.0, 0.5, f_res));
    let (v_on, i_on) = pdn.transient(&cfg).unwrap();
    pdn.set_load(Stimulus::square(0.0, 0.5, f_res / 3.1));
    let (v_off, i_off) = pdn.transient(&cfg).unwrap();
    assert!(v_on.peak_to_peak() > 2.0 * v_off.peak_to_peak());
    assert!(i_on.peak_to_peak() > 1.5 * i_off.peak_to_peak());
    // Resonant current swing exceeds the injected 0.5 A.
    assert!(i_on.peak_to_peak() > 0.5);
}

/// Helper so the test reads naturally: per-generation record's running
/// best.
trait BestSoFar {
    fn best_so_far(&self) -> f64;
}

impl BestSoFar for emvolt::core::GenerationRecord {
    fn best_so_far(&self) -> f64 {
        self.best_fitness
    }
}
