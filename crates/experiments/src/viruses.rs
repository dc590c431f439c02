//! Generation and caching of the five dI/dt viruses of Table 2.
//!
//! GA campaigns are deterministic given their seed, but take tens of
//! seconds each, and several experiments share the same virus; generated
//! kernels are therefore cached as JSON under `results/viruses/`.

use crate::Options;
use emvolt_backend::BackendSpec;
use emvolt_core::{generate_em_virus_on, generate_voltage_virus, Virus, VirusGenConfig};
use emvolt_ga::GaConfig;
use emvolt_inst::{Oscilloscope, ScopeConfig};
use emvolt_isa::{Kernel, KernelSpec};
use emvolt_platform::{AmdDesktop, EmBench, JunoBoard, VoltageDomain};
use std::error::Error;
use std::path::PathBuf;

/// The five viruses of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VirusTag {
    /// OC-DSO-droop-driven GA on the Cortex-A72.
    A72OcDso,
    /// EM-driven GA on the Cortex-A72.
    A72Em,
    /// EM-driven GA on the Cortex-A53.
    A53Em,
    /// EM-driven GA on the AMD Athlon.
    AmdEm,
    /// Kelvin-pad-droop-driven GA on the AMD Athlon.
    AmdOsc,
}

impl VirusTag {
    /// Table-2 row label.
    pub fn label(self) -> &'static str {
        match self {
            VirusTag::A72OcDso => "a72OC-DSO",
            VirusTag::A72Em => "a72em",
            VirusTag::A53Em => "a53em",
            VirusTag::AmdEm => "amdEm",
            VirusTag::AmdOsc => "amdOsc",
        }
    }

    fn cache_file(self) -> PathBuf {
        PathBuf::from("viruses").join(format!("{}.json", self.label()))
    }

    /// The domain this virus targets, rebuilt fresh.
    pub fn domain(self) -> VoltageDomain {
        match self {
            VirusTag::A72OcDso | VirusTag::A72Em => JunoBoard::new().a72,
            VirusTag::A53Em => JunoBoard::new().a53,
            VirusTag::AmdEm | VirusTag::AmdOsc => AmdDesktop::new().domain,
        }
    }

    /// Cores loaded during generation and V_MIN testing (the paper loads
    /// every powered core).
    pub fn loaded_cores(self) -> usize {
        match self {
            VirusTag::A72OcDso | VirusTag::A72Em => 2,
            _ => 4,
        }
    }

    fn seed(self) -> u64 {
        match self {
            VirusTag::A72OcDso => 0xA720C,
            VirusTag::A72Em => 0xA72E3,
            VirusTag::A53Em => 0xA53E3,
            VirusTag::AmdEm => 0xA3DE3,
            VirusTag::AmdOsc => 0xA3D0C,
        }
    }
}

/// GA scale for the given options: paper scale (50 x 60) normally, a
/// reduced run under `--quick`.
pub fn ga_config(tag: VirusTag, opts: &Options) -> VirusGenConfig {
    let (population, generations) = if opts.quick { (12, 10) } else { (50, 60) };
    VirusGenConfig {
        ga: GaConfig {
            population,
            generations,
            seed: tag.seed(),
            ..GaConfig::default()
        },
        kernel_len: 50,
        loaded_cores: tag.loaded_cores(),
        samples_per_individual: if opts.quick { 3 } else { 30 },
        ..VirusGenConfig::default()
    }
}

/// Generates (or loads from cache) the kernel for `tag`.
///
/// # Errors
///
/// Propagates simulation and I/O errors.
pub fn get_or_generate(tag: VirusTag, opts: &Options) -> Result<Kernel, Box<dyn Error>> {
    let cache = tag.cache_file();
    if !opts.refresh {
        if let Some(json) = crate::output::read_cache(&cache) {
            let spec: KernelSpec = serde_json::from_str(&json)?;
            return Ok(spec.to_kernel()?);
        }
    }
    let virus = generate(tag, opts)?;
    let spec = KernelSpec::from_kernel(&virus.kernel);
    crate::output::write_cache(&cache, &serde_json::to_string_pretty(&spec)?)?;
    Ok(virus.kernel)
}

/// Runs the full GA campaign for `tag` (no caching) and returns the
/// complete [`Virus`] including its per-generation history.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn generate(tag: VirusTag, opts: &Options) -> Result<Virus, Box<dyn Error>> {
    let domain = tag.domain();
    let config = ga_config(tag, opts);
    let virus = match tag {
        VirusTag::A72Em | VirusTag::A53Em | VirusTag::AmdEm => {
            let spec = opts.backend_for(tag.label()).unwrap_or(BackendSpec::Live);
            if let BackendSpec::Record(path) = &spec {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            let mut backend = spec
                .build(
                    vec![domain.clone()],
                    EmBench::new(tag.seed() ^ 0xBEEF),
                    config.run.clone(),
                )
                .map_err(|e| format!("backend {spec}: {e}"))?;
            generate_em_virus_on(tag.label(), &mut *backend, domain.name(), &config)?
        }
        VirusTag::A72OcDso => {
            let scope = Oscilloscope::new(ScopeConfig::oc_dso());
            generate_voltage_virus(tag.label(), &domain, &scope, &config, tag.seed() ^ 0xBEEF)?
        }
        VirusTag::AmdOsc => {
            let mut cfg = ScopeConfig::bench_scope();
            cfg.v_center = domain.voltage();
            let scope = Oscilloscope::new(cfg);
            generate_voltage_virus(tag.label(), &domain, &scope, &config, tag.seed() ^ 0xBEEF)?
        }
    };
    Ok(virus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_have_unique_labels_and_seeds() {
        let tags = [
            VirusTag::A72OcDso,
            VirusTag::A72Em,
            VirusTag::A53Em,
            VirusTag::AmdEm,
            VirusTag::AmdOsc,
        ];
        let mut labels: Vec<&str> = tags.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
        let mut seeds: Vec<u64> = tags.iter().map(|t| t.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5);
    }

    #[test]
    fn quick_config_is_smaller() {
        let quick = ga_config(
            VirusTag::A72Em,
            &Options {
                quick: true,
                ..Options::default()
            },
        );
        let full = ga_config(
            VirusTag::A72Em,
            &Options {
                quick: false,
                ..Options::default()
            },
        );
        assert!(quick.ga.population < full.ga.population);
        assert!(quick.ga.generations < full.ga.generations);
        assert_eq!(full.ga.population, 50);
        assert_eq!(full.ga.generations, 60);
    }
}
