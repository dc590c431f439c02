//! AMD Athlon II experiments: Figs. 16, 17 and 18.

use crate::juno_figs::vmin_ladder;
use crate::output::{mhz, section, table, write_csv};
use crate::viruses::{self, VirusTag};
use crate::Options;
use emvolt_backend::LiveBackend;
use emvolt_core::{fast_resonance_sweep_on, FastSweepConfig};
use emvolt_platform::{desktop_suite, AmdDesktop, EmBench, Suite};
use emvolt_vmin::{vmin_test, FailureModel, VminConfig};
use std::error::Error;

/// Fig. 16: loop-frequency sweep on the Athlon II — resonance at 78 MHz.
pub fn fig16(opts: &Options) -> Result<String, Box<dyn Error>> {
    let amd = AmdDesktop::new();
    let mut cfg = FastSweepConfig::for_domain(&amd.domain);
    if opts.quick {
        cfg.cpu_freqs_hz
            .retain(|f| ((f / 51.7e6).round() as u64).is_multiple_of(2));
        cfg.samples_per_point = 3;
    }
    let mut backend =
        LiveBackend::single(amd.domain.clone(), EmBench::new(0x1616), cfg.run.clone());
    let sweep = fast_resonance_sweep_on(&mut backend, amd.domain.name(), &cfg)?;
    let headers = ["cpu clock (MHz)", "loop freq (MHz)", "EM (dBm)"];
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|p| {
            vec![
                mhz(p.cpu_freq_hz),
                mhz(p.loop_freq_hz),
                format!("{:.1}", p.amplitude_dbm),
            ]
        })
        .collect();
    let mut out = section("Fig. 16: loop-frequency sweep on the Athlon II X4 645");
    out.push_str(&table(&headers, &rows));
    out.push_str(&format!(
        "\nresonance: {} MHz (paper: 78 MHz)\n",
        mhz(sweep.resonance_hz)
    ));
    write_csv("fig16_sweep_amd.csv", &headers, &rows)?;
    Ok(out)
}

/// Fig. 17: EM-amplitude-driven GA on the AMD CPU.
pub fn fig17(opts: &Options) -> Result<String, Box<dyn Error>> {
    let virus = viruses::generate(VirusTag::AmdEm, opts)?;
    let headers = ["gen", "best EM (dBm)", "dominant (MHz)"];
    let rows: Vec<Vec<String>> = virus
        .history
        .iter()
        .map(|r| {
            vec![
                r.index.to_string(),
                format!("{:.2}", r.best_fitness),
                mhz(r.dominant_hz),
            ]
        })
        .collect();
    let mut out = section("Fig. 17: EM-driven GA on the AMD CPU (quad-core)");
    out.push_str(&table(&headers, &rows));
    out.push_str(&format!(
        "\nconverged dominant frequency: {} MHz (paper: 77 MHz; sweep says 78 MHz)\n",
        mhz(virus.dominant_hz)
    ));
    write_csv("fig17_ga_amd.csv", &headers, &rows)?;
    Ok(out)
}

/// Fig. 18: V_MIN and voltage-noise on the AMD CPU across desktop
/// workloads, stability tests and both GA viruses, plus the two-core EM
/// virus data point.
pub fn fig18(opts: &Options) -> Result<String, Box<dyn Error>> {
    let amd = AmdDesktop::new();
    let model = FailureModel::amd();
    let mut workloads: Vec<(String, emvolt_isa::Kernel, Suite)> = desktop_suite()
        .into_iter()
        .map(|w| (w.name, w.kernel, w.suite))
        .collect();
    let em = viruses::get_or_generate(VirusTag::AmdEm, opts)?;
    let osc = viruses::get_or_generate(VirusTag::AmdOsc, opts)?;
    workloads.push(("OscVirus".into(), osc, Suite::Virus));
    workloads.push(("EMvirus".into(), em.clone(), Suite::Virus));

    let (txt, mut rows) = vmin_ladder(&amd.domain, &workloads, &model, 4, opts)?;
    let mut out = section("Fig. 18: V_MIN and voltage noise on the AMD CPU (quad-core)");
    out.push_str(&txt);

    // The paper's extra data point: the EM virus on only two active cores
    // still beats the four-core stability tests.
    let cfg2 = VminConfig {
        start_v: amd.domain.voltage(),
        floor_v: amd.domain.voltage() - 0.35,
        trials: if opts.quick { 5 } else { 30 },
        loaded_cores: 2,
        golden_iterations: if opts.quick { 50 } else { 200 },
        seed: 0x1802,
        ..VminConfig::default()
    };
    let res2 = vmin_test(&amd.domain, &em, &model, &cfg2)?;
    out.push_str(&format!(
        "\nEMvirus on 2 active cores: Vmin {:.3} V, droop {:.1} mV\n",
        res2.vmin_v,
        res2.max_droop_v * 1e3
    ));
    rows.push(vec![
        "EMvirus(2core)".into(),
        if res2.first_failure_v.is_nan() {
            "<floor".into()
        } else {
            format!("{:.3}", res2.first_failure_v)
        },
        format!("{:.3}", res2.vmin_v),
        format!("{:.1}", res2.max_droop_v * 1e3),
        format!("{:.1}", res2.peak_to_peak_v * 1e3),
    ]);

    let vmin_of = |name: &str| -> f64 {
        rows.iter()
            .find(|r| r[0] == name)
            .and_then(|r| r[2].parse().ok())
            .unwrap_or(f64::NAN)
    };
    out.push_str(&format!(
        "EMvirus(2core) Vmin {:.3} V vs prime95 4-core {:.3} V: still more severe: {}\n",
        vmin_of("EMvirus(2core)"),
        vmin_of("prime95"),
        vmin_of("EMvirus(2core)") > vmin_of("prime95")
    ));
    out.push_str(&format!(
        "EMvirus margin below nominal: {:.1} mV (paper: 37.5 mV)\n",
        (amd.domain.voltage() - vmin_of("EMvirus")) * 1e3
    ));
    write_csv(
        "fig18_vmin_amd.csv",
        &["workload", "first_fail_v", "vmin_v", "droop_mv", "p2p_mv"],
        &rows,
    )?;
    Ok(out)
}
