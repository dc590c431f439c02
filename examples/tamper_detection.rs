//! PDN tamper detection from outside the case (§10 future work): the
//! EM-measured first-order resonance is a fingerprint of the board's
//! capacitance and inductance; rework, implants or missing decaps move
//! it.
//!
//! ```sh
//! cargo run --release --example tamper_detection
//! ```

use emvolt::core::tamper::{compare, fingerprint, TamperVerdict};
use emvolt::core::FastSweepConfig;
use emvolt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Golden reference captured at manufacturing time.
    let golden_board = VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9);
    let cfg = FastSweepConfig::for_domain(&golden_board);
    let mut backend = LiveBackend::single(golden_board.clone(), EmBench::new(1), cfg.run.clone());
    let golden = fingerprint(&mut backend, golden_board.name(), &cfg)?;
    println!(
        "golden fingerprint: resonance {:.1} MHz, peak {:.1} dBm",
        golden.resonance_hz / 1e6,
        golden.peak_dbm
    );

    let audit = |label: &str, board: &VoltageDomain| -> Result<(), Box<dyn std::error::Error>> {
        let cfg = FastSweepConfig::for_domain(board);
        let mut backend = LiveBackend::single(board.clone(), EmBench::new(2), cfg.run.clone());
        let fp = fingerprint(&mut backend, board.name(), &cfg)?;
        match compare(&golden, &fp, 0.05) {
            TamperVerdict::Clean => {
                println!("{label:<32} {:.1} MHz  -> clean", fp.resonance_hz / 1e6)
            }
            TamperVerdict::ResonanceShift { shift, .. } => println!(
                "{label:<32} {:.1} MHz  -> TAMPERED ({:+.1}% resonance shift)",
                fp.resonance_hz / 1e6,
                shift * 100.0
            ),
        }
        Ok(())
    };

    println!();
    // A unit fresh off the same line.
    audit("identical unit", &golden_board.clone())?;

    // A reworked package that lost half its shared decap.
    let mut damaged = a72_pdn();
    damaged.die_capacitance.cluster_farads *= 0.5;
    audit(
        "decap removed during rework",
        &VoltageDomain::new("A72", CoreModel::cortex_a72(), damaged, 1.2e9),
    )?;

    // A hardware implant hanging extra capacitance on the rail.
    let mut implant = a72_pdn();
    implant.die_capacitance.cluster_farads *= 1.6;
    audit(
        "parasitic implant on the rail",
        &VoltageDomain::new("A72", CoreModel::cortex_a72(), implant, 1.2e9),
    )?;

    println!("\nthe check is non-contact and takes one fast sweep per unit.");
    Ok(())
}
