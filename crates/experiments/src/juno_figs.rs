//! Cortex-A72 experiments on the Juno board: Figs. 4, 7, 8, 9, 10, 11.

use crate::output::{mhz, mv, section, table, write_csv};
use crate::viruses::{self, VirusTag};
use crate::Options;
use emvolt_backend::LiveBackend;
use emvolt_core::{annotate_droop, fast_resonance_sweep_on, FastSweepConfig};
use emvolt_dsp::{Spectrum, Window};
use emvolt_inst::{Oscilloscope, ScopeConfig};
use emvolt_platform::{
    spec2006_suite, EmBench, JunoBoard, RunConfig, Scl, Suite, Workload, RESONANCE_BAND,
};
use emvolt_vmin::{vmin_test, FailureModel, VminConfig};
use rand::{rngs::StdRng, SeedableRng};
use std::error::Error;

fn run_config(opts: &Options) -> RunConfig {
    if opts.quick {
        RunConfig::fast()
    } else {
        RunConfig::default()
    }
}

/// Fig. 4: OC-DSO voltage waveforms for idle, a SPEC benchmark and the
/// dI/dt virus — the virus causes by far the largest noise.
pub fn fig04(opts: &Options) -> Result<String, Box<dyn Error>> {
    let board = JunoBoard::new();
    let cfg = run_config(opts);
    let virus = viruses::get_or_generate(VirusTag::A72Em, opts)?;
    let spec = spec2006_suite(emvolt_isa::Isa::ArmV8);
    let bench = spec.iter().find(|w| w.name == "gcc").expect("gcc exists");

    let mut rng = StdRng::seed_from_u64(0x0405);
    let mut row = |name: &str, run: emvolt_platform::DomainRun| {
        let shot = board.ocdso.capture(&run.v_die, &mut rng);
        vec![
            name.to_owned(),
            mv(shot.max_droop_below(1.0)),
            mv(shot.peak_to_peak()),
            mv(shot.mean()),
        ]
    };
    let rows = vec![
        row("idle", board.a72.run_idle(&cfg)?),
        row("gcc (SPEC2006)", board.a72.run(&bench.kernel, 2, &cfg)?),
        row("dI/dt virus", board.a72.run(&virus, 2, &cfg)?),
    ];
    let headers = ["workload", "max droop (mV)", "p2p (mV)", "mean (mV)"];
    let mut out = section("Fig. 4: OC-DSO voltage waveforms on the Cortex-A72 (dual-core)");
    out.push_str(&table(&headers, &rows));
    write_csv("fig04_waveforms.csv", &headers, &rows)?;
    Ok(out)
}

/// Fig. 7: EM-driven GA run on the Cortex-A72 — per-generation best EM
/// amplitude, dominant frequency and (re-measured) maximum droop.
pub fn fig07(opts: &Options) -> Result<String, Box<dyn Error>> {
    let board = JunoBoard::new();
    let mut virus = viruses::generate(VirusTag::A72Em, opts)?;
    let scope = Oscilloscope::new(ScopeConfig::oc_dso());
    let cfg = viruses::ga_config(VirusTag::A72Em, opts);
    annotate_droop(&mut virus, &board.a72, &scope, &cfg, 0x0707)?;

    let headers = ["gen", "best EM (dBm)", "dominant (MHz)", "max droop (mV)"];
    let rows: Vec<Vec<String>> = virus
        .history
        .iter()
        .map(|r| {
            vec![
                r.index.to_string(),
                format!("{:.2}", r.best_fitness),
                mhz(r.dominant_hz),
                r.droop_v.map(mv).unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    let mut out = section("Fig. 7: EM-driven GA on Cortex-A72 (dual-core)");
    out.push_str(&table(&headers, &rows));
    out.push_str(&format!(
        "\nconverged dominant frequency: {} MHz (paper: 67 MHz; SCL says 66-72 MHz)\n",
        mhz(virus.dominant_hz)
    ));
    out.push_str(&format!(
        "physical campaign length: {} (paper: ~15 h for 60 generations)\n",
        virus.campaign.display()
    ));
    // EM amplitude and droop must rise together (the paper's correlation).
    let first = &virus.history[0];
    let last = virus.history.last().expect("non-empty history");
    out.push_str(&format!(
        "EM amplitude: {:.1} -> {:.1} dBm; droop: {:.1} -> {:.1} mV\n",
        first.best_fitness,
        last.best_fitness,
        first.droop_v.unwrap_or(0.0) * 1e3,
        last.droop_v.unwrap_or(0.0) * 1e3,
    ));
    write_csv("fig07_ga_a72.csv", &headers, &rows)?;
    Ok(out)
}

/// Fig. 8: SCL square-wave sweep on the A72 PDN, two powered cores vs
/// one.
pub fn fig08(opts: &Options) -> Result<String, Box<dyn Error>> {
    let mut board = JunoBoard::new();
    let cfg = RunConfig::fast();
    let step = if opts.quick { 4e6 } else { 1e6 };
    let freqs: Vec<f64> = {
        let mut v = Vec::new();
        let mut f = 40e6;
        while f <= 120e6 {
            v.push(f);
            f += step;
        }
        v
    };
    let scl = Scl::default();
    let sweep2 = scl.sweep(&board.a72, &freqs, &cfg)?;
    board.a72.power_gate(1);
    let sweep1 = scl.sweep(&board.a72, &freqs, &cfg)?;

    let headers = ["freq (MHz)", "p2p C0C1 (mV)", "p2p C0 (mV)"];
    let rows: Vec<Vec<String>> = sweep2
        .iter()
        .zip(&sweep1)
        .map(|(a, b)| vec![mhz(a.freq_hz), mv(a.p2p_v), mv(b.p2p_v)])
        .collect();
    let peak2 = Scl::peak(&sweep2).expect("non-empty sweep");
    let peak1 = Scl::peak(&sweep1).expect("non-empty sweep");
    let mut out = section("Fig. 8: SCL stimulus sweep on the Cortex-A72 PDN");
    out.push_str(&table(&headers, &rows));
    out.push_str(&format!(
        "\nresonance with both cores powered (C0C1): {} MHz (paper: 66-72 MHz)\n",
        mhz(peak2.freq_hz)
    ));
    out.push_str(&format!(
        "resonance with one core powered (C0):     {} MHz (paper: 80-86 MHz)\n",
        mhz(peak1.freq_hz)
    ));
    write_csv("fig08_scl.csv", &headers, &rows)?;
    Ok(out)
}

/// Fig. 9: spectrum-analyzer reading versus FFT of OC-DSO voltage samples
/// while the EM virus runs — both must show the same spikes.
pub fn fig09(opts: &Options) -> Result<String, Box<dyn Error>> {
    let board = JunoBoard::new();
    let cfg = run_config(opts);
    let virus = viruses::get_or_generate(VirusTag::A72Em, opts)?;
    let run = board.a72.run(&virus, 2, &cfg)?;

    // Analyzer view of the radiated field.
    let mut bench = EmBench::new(0x0909);
    let sweep = bench.sweep(&run);
    let (f_sa, dbm_sa) = sweep
        .peak_in_band(RESONANCE_BAND.0, RESONANCE_BAND.1)
        .expect("band covered");

    // OC-DSO capture -> FFT.
    let mut rng = StdRng::seed_from_u64(0x0910);
    let shot = board.ocdso.capture(&run.v_die, &mut rng);
    let vspec = Spectrum::of_trace(&shot, Window::Hann);
    let (f_dso, amp_dso) = vspec
        .peak_in_band(RESONANCE_BAND.0, RESONANCE_BAND.1)
        .expect("band covered");

    // Secondary spikes: the loop fundamental.
    let loop_f = run.loop_frequency;
    let sa_at_loop = sweep
        .peak_in_band(loop_f * 0.8, loop_f * 1.2)
        .map(|(f, _)| f);
    let dso_at_loop = vspec
        .peak_in_band(loop_f * 0.8, loop_f * 1.2)
        .map(|(f, _)| f);

    let mut out = section("Fig. 9: spectrum analyzer vs FFT of OC-DSO voltage samples");
    out.push_str(&format!(
        "analyzer dominant:  {} MHz at {:.1} dBm\n",
        mhz(f_sa),
        dbm_sa
    ));
    out.push_str(&format!(
        "OC-DSO FFT dominant: {} MHz at {:.3} mV\n",
        mhz(f_dso),
        amp_dso * 1e3
    ));
    out.push_str(&format!(
        "dominant frequencies agree within one bin: {}\n",
        (f_sa - f_dso).abs() < 2e6
    ));
    out.push_str(&format!(
        "loop fundamental {} MHz visible on both: {}\n",
        mhz(loop_f),
        sa_at_loop.is_some() && dso_at_loop.is_some()
    ));
    write_csv(
        "fig09_compare.csv",
        &["instrument", "dominant_mhz"],
        &[
            vec!["spectrum_analyzer".into(), mhz(f_sa)],
            vec!["ocdso_fft".into(), mhz(f_dso)],
        ],
    )?;
    Ok(out)
}

/// Rendered ladder text plus its raw rows.
pub(crate) type LadderOutput = (String, Vec<Vec<String>>);

/// Shared V_MIN ladder over a set of workloads.
pub(crate) fn vmin_ladder(
    domain: &emvolt_platform::VoltageDomain,
    workloads: &[(String, emvolt_isa::Kernel, Suite)],
    model: &FailureModel,
    loaded_cores: usize,
    opts: &Options,
) -> Result<LadderOutput, Box<dyn Error>> {
    let mut rows = Vec::new();
    for (name, kernel, suite) in workloads {
        let trials = match suite {
            Suite::Virus => {
                if opts.quick {
                    5
                } else {
                    30
                }
            }
            _ => 2,
        };
        let cfg = VminConfig {
            start_v: domain.voltage(),
            floor_v: domain.voltage() - 0.35,
            trials,
            loaded_cores,
            golden_iterations: if opts.quick { 50 } else { 200 },
            seed: 0xF00D ^ name.len() as u64,
            ..VminConfig::default()
        };
        let res = vmin_test(domain, kernel, model, &cfg)?;
        rows.push(vec![
            name.clone(),
            if res.first_failure_v.is_nan() {
                "<floor".into()
            } else {
                format!("{:.3}", res.first_failure_v)
            },
            format!("{:.3}", res.vmin_v),
            mv(res.max_droop_v),
            mv(res.peak_to_peak_v),
        ]);
    }
    let headers = [
        "workload",
        "first fail (V)",
        "Vmin (V)",
        "droop (mV)",
        "p2p (mV)",
    ];
    Ok((table(&headers, &rows), rows))
}

/// A named workload entry for the V_MIN ladders.
pub(crate) type LadderEntry = (String, emvolt_isa::Kernel, Suite);

/// Builds the Fig. 10 workload list: idle stand-in, the SPEC suite and
/// both A72 viruses.
fn fig10_workloads(opts: &Options) -> Result<Vec<LadderEntry>, Box<dyn Error>> {
    let mut list: Vec<(String, emvolt_isa::Kernel, Suite)> = spec2006_suite(emvolt_isa::Isa::ArmV8)
        .into_iter()
        .map(|w: Workload| (w.name, w.kernel, w.suite))
        .collect();
    let ocdso = viruses::get_or_generate(VirusTag::A72OcDso, opts)?;
    let em = viruses::get_or_generate(VirusTag::A72Em, opts)?;
    list.push(("ocdsoVirus".into(), ocdso, Suite::Virus));
    list.push(("emVirus".into(), em, Suite::Virus));
    Ok(list)
}

/// Fig. 10: V_MIN and maximum droop across workloads on the Cortex-A72.
pub fn fig10(opts: &Options) -> Result<String, Box<dyn Error>> {
    let board = JunoBoard::new();
    let model = FailureModel::juno_a72();
    let workloads = fig10_workloads(opts)?;
    let (txt, rows) = vmin_ladder(&board.a72, &workloads, &model, 2, opts)?;
    let mut out = section("Fig. 10: V_MIN and max droop on the Cortex-A72 (dual-core runs)");
    out.push_str(&txt);

    // The paper's claims: viruses droop >= ~25 mV more than lbm and have
    // ~20 mV higher V_MIN.
    let find = |name: &str| rows.iter().find(|r| r[0] == name).cloned();
    if let (Some(lbm), Some(em)) = (find("lbm"), find("emVirus")) {
        let lbm_droop: f64 = lbm[3].parse().unwrap_or(0.0);
        let em_droop: f64 = em[3].parse().unwrap_or(0.0);
        let lbm_vmin: f64 = lbm[2].parse().unwrap_or(0.0);
        let em_vmin: f64 = em[2].parse().unwrap_or(0.0);
        out.push_str(&format!(
            "\nemVirus droop - lbm droop: {:.1} mV (paper: >25 mV)\n",
            em_droop - lbm_droop
        ));
        out.push_str(&format!(
            "emVirus Vmin - lbm Vmin:   {:.1} mV (paper: ~20 mV)\n",
            (em_vmin - lbm_vmin) * 1e3
        ));
    }
    write_csv(
        "fig10_vmin_a72.csv",
        &["workload", "first_fail_v", "vmin_v", "droop_mv", "p2p_mv"],
        &rows,
    )?;
    Ok(out)
}

/// Fig. 11: fast EM loop-frequency sweep on the A72 with both gating
/// states.
pub fn fig11(opts: &Options) -> Result<String, Box<dyn Error>> {
    let mut board = JunoBoard::new();
    let mut cfg = FastSweepConfig::for_domain(&board.a72);
    if opts.quick {
        cfg.cpu_freqs_hz
            .retain(|f| ((f / 20e6).round() as u64).is_multiple_of(2));
        cfg.samples_per_point = 3;
    }
    // One rig across both gating states: the second sweep continues the
    // first one's analyzer noise stream.
    let mut backend = LiveBackend::single(board.a72.clone(), EmBench::new(0x1111), cfg.run.clone());
    let sweep2 = fast_resonance_sweep_on(&mut backend, board.a72.name(), &cfg)?;
    board.a72.power_gate(1);
    let mut backend = LiveBackend::single(board.a72.clone(), backend.into_bench(), cfg.run.clone());
    let sweep1 = fast_resonance_sweep_on(&mut backend, board.a72.name(), &cfg)?;

    let headers = [
        "cpu clock (MHz)",
        "loop freq (MHz)",
        "EM C0C1 (dBm)",
        "EM C0 (dBm)",
    ];
    let rows: Vec<Vec<String>> = sweep2
        .points
        .iter()
        .zip(&sweep1.points)
        .map(|(a, b)| {
            vec![
                mhz(a.cpu_freq_hz),
                mhz(a.loop_freq_hz),
                format!("{:.1}", a.amplitude_dbm),
                format!("{:.1}", b.amplitude_dbm),
            ]
        })
        .collect();
    let mut out = section("Fig. 11: EM loop-frequency sweep on the Cortex-A72");
    out.push_str(&table(&headers, &rows));
    out.push_str(&format!(
        "\npeak loop frequency, both cores powered: {} MHz (paper: ~70 MHz)\n",
        mhz(sweep2.resonance_hz)
    ));
    out.push_str(&format!(
        "peak loop frequency, one core powered:   {} MHz (paper: ~85 MHz)\n",
        mhz(sweep1.resonance_hz)
    ));
    out.push_str(&format!(
        "physical sweep time: {} (paper: ~15 min)\n",
        sweep2.campaign.display()
    ));
    write_csv("fig11_sweep_a72.csv", &headers, &rows)?;
    Ok(out)
}
