//! Property-based tests for the GA engine.

use emvolt_ga::{one_point_crossover, GaConfig, GaState, KernelRepresentation, Representation};
use emvolt_isa::{InstructionPool, Isa};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One-point crossover conserves total gene multiset across the two
    /// children for equal-length parents.
    #[test]
    fn crossover_conserves_genes(
        a in prop::collection::vec(0u8..=255, 2..64),
        seed in any::<u64>(),
    ) {
        let b: Vec<u8> = a.iter().map(|x| x.wrapping_add(1)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let (c1, c2) = one_point_crossover(&a, &b, &mut rng);
        prop_assert_eq!(c1.len(), a.len());
        prop_assert_eq!(c2.len(), a.len());
        let mut original: Vec<u8> = a.iter().chain(&b).copied().collect();
        let mut children: Vec<u8> = c1.iter().chain(&c2).copied().collect();
        original.sort_unstable();
        children.sort_unstable();
        prop_assert_eq!(original, children);
    }

    /// A `GaState` loop always reports exactly `generations` entries
    /// with a monotone best-so-far, for arbitrary valid configurations.
    #[test]
    fn engine_history_invariants(
        population in 2usize..24,
        generations in 1usize..16,
        tournament_k in 1usize..6,
        mutation_rate in 0.0..0.3f64,
        seed in any::<u64>(),
    ) {
        let elitism = 1usize.min(population - 1);
        let repr = KernelRepresentation::new(InstructionPool::default_for(Isa::ArmV8), 8);
        let config = GaConfig { population, generations, tournament_k, mutation_rate, elitism, seed };
        prop_assert_eq!(config.validate(), Ok(()));
        let mut state = GaState::new(&repr, &config);
        let mut calls = 0usize;
        while !state.is_done(&config) {
            let scores: Vec<f64> = state
                .population
                .iter()
                .map(|k| {
                    calls += 1;
                    k.len() as f64 + (k.body()[0].mem_slot as f64) / 100.0
                })
                .collect();
            state.absorb_scores(&repr, &config, &emvolt_obs::Telemetry::noop(), &scores, |_| {});
        }
        let result = state.into_result();
        prop_assert_eq!(result.history.len(), generations);
        prop_assert_eq!(result.generation_best.len(), generations);
        prop_assert_eq!(calls, population * generations);
        for w in result.history.windows(2) {
            prop_assert!(w[1].best_so_far >= w[0].best_so_far);
        }
        for g in &result.history {
            prop_assert!(g.best_fitness >= g.mean_fitness - 1e-9);
        }
    }

    /// Kernel genomes never change length under crossover + mutation.
    #[test]
    fn kernel_genome_length_is_invariant(seed in any::<u64>(), rate in 0.0..1.0f64) {
        let repr = KernelRepresentation::new(InstructionPool::default_for(Isa::X86_64), 50);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = repr.random(&mut rng);
        let b = repr.random(&mut rng);
        let (mut c1, mut c2) = repr.crossover(&a, &b, &mut rng);
        repr.mutate(&mut c1, rate, &mut rng);
        repr.mutate(&mut c2, rate, &mut rng);
        prop_assert_eq!(c1.len(), 50);
        prop_assert_eq!(c2.len(), 50);
    }
}
