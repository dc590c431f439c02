//! High-level façade: one object that characterizes a voltage domain
//! end-to-end with the EM methodology.

use crate::campaigns::require_domain;
use crate::fast_sweep::{fast_resonance_sweep_on, FastSweepConfig, FastSweepResult};
use crate::ga_virus::{generate_em_virus_on, Virus, VirusGenConfig};
use crate::report::{analyze_virus, VirusReport};
use emvolt_backend::{LiveBackend, MeasurementBackend};
use emvolt_platform::{DomainError, EmBench, RunConfig, VoltageDomain};
use emvolt_vmin::{FailureModel, VminConfig};

/// An EM-based characterization session for one voltage domain — the
/// paper's complete flow: find the resonance quickly, evolve a virus,
/// quantify the margin.
///
/// Generic over the [`MeasurementBackend`], defaulting to the live
/// simulated chain: the same session runs against a recording wrapper or
/// a replayed trace via [`Characterization::with_backend`].
#[derive(Debug)]
pub struct Characterization<B: MeasurementBackend = LiveBackend> {
    backend: B,
    domain_name: String,
}

impl Characterization<LiveBackend> {
    /// Aims the EM rig at `domain` (seed controls measurement noise).
    pub fn new(domain: VoltageDomain, seed: u64) -> Self {
        let domain_name = domain.name().to_owned();
        Characterization {
            backend: LiveBackend::single(domain, EmBench::new(seed), RunConfig::fast()),
            domain_name,
        }
    }

    /// The domain under characterization.
    pub fn domain(&self) -> &VoltageDomain {
        self.backend
            .domain(&self.domain_name)
            .expect("constructed with this domain")
    }

    /// Mutable access (power gating, DVFS) between steps.
    pub fn domain_mut(&mut self) -> &mut VoltageDomain {
        self.backend
            .domain_mut(&self.domain_name)
            .expect("constructed with this domain")
    }

    /// §5.2 + Table 2: V_MIN and metrics for a virus.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn report(
        &self,
        virus: &Virus,
        failure: &FailureModel,
        vmin_cfg: &VminConfig,
    ) -> Result<VirusReport, DomainError> {
        analyze_virus(
            &virus.name,
            self.domain(),
            &virus.kernel,
            failure,
            vmin_cfg,
            &RunConfig::fast(),
        )
    }
}

impl<B: MeasurementBackend> Characterization<B> {
    /// Runs the session over an arbitrary backend — e.g. a
    /// [`RecordBackend`](emvolt_backend::RecordBackend) persisting the
    /// campaign or a [`ReplayBackend`](emvolt_backend::ReplayBackend)
    /// serving a recorded one.
    pub fn with_backend(backend: B, domain_name: impl Into<String>) -> Self {
        Characterization {
            backend,
            domain_name: domain_name.into(),
        }
    }

    /// The measurement backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Consumes the session, returning the backend (e.g. to flush a
    /// recording or recover the bench).
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// §5.3: fast loop-frequency sweep; returns the resonance estimate.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn find_resonance_fast(&mut self) -> Result<FastSweepResult, DomainError> {
        let info = require_domain(&self.backend, &self.domain_name)?;
        let cfg = FastSweepConfig::for_max_frequency(info.max_frequency_hz);
        fast_resonance_sweep_on(&mut self.backend, &self.domain_name, &cfg)
    }

    /// §5.1: EM-driven GA virus generation.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn generate_virus(
        &mut self,
        name: &str,
        config: &VirusGenConfig,
    ) -> Result<Virus, DomainError> {
        generate_em_virus_on(name, &mut self.backend, &self.domain_name, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_cpu::CoreModel;
    use emvolt_ga::GaConfig;
    use emvolt_platform::a72_pdn;

    #[test]
    fn full_flow_smoke_test() {
        let domain =
            emvolt_platform::VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
        let mut session = Characterization::new(domain, 9);
        let sweep = session.find_resonance_fast().unwrap();
        assert!(sweep.resonance_hz > 40e6 && sweep.resonance_hz < 120e6);

        let cfg = VirusGenConfig {
            ga: GaConfig {
                population: 6,
                generations: 4,
                ..GaConfig::default()
            },
            kernel_len: 16,
            samples_per_individual: 2,
            ..VirusGenConfig::default()
        };
        let virus = session.generate_virus("smoke", &cfg).unwrap();
        let report = session
            .report(
                &virus,
                &FailureModel::juno_a72(),
                &VminConfig {
                    trials: 2,
                    golden_iterations: 30,
                    ..VminConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.loop_instructions, 16);
    }
}
