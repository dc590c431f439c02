//! Voltage-margin prediction from EM emanations (§10, future work (c)).
//!
//! The paper proposes predicting voltage margins from EM readings taken
//! during *conventional* workload execution — no undervolting campaign at
//! all. The physics supports a simple model: maximum droop is dominated
//! by the resonant current amplitude, and the received EM amplitude at
//! the band peak is proportional to that same amplitude (§2.2). A linear
//! fit of droop against received amplitude, calibrated once per platform
//! with a handful of direct measurements, then predicts the droop (and
//! hence the V_MIN margin) of any workload from a purely passive EM
//! reading.

use emvolt_dsp::dbm_to_watts;
use emvolt_isa::Kernel;
use emvolt_platform::{DomainError, EmBench, EmReading, RunConfig, VoltageDomain};
use emvolt_vmin::FailureModel;

/// A calibrated EM → droop predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginPredictor {
    /// Slope of droop (V) per unit received amplitude (sqrt-watt).
    slope: f64,
    /// Intercept (V): broadband/IR droop floor.
    intercept: f64,
    /// Calibration points as `(amplitude, droop_v)`.
    points: Vec<(f64, f64)>,
}

/// Converts a dBm band-peak reading into the amplitude-like regressor
/// (square root of linear power).
fn amplitude_of(reading: &EmReading) -> f64 {
    dbm_to_watts(reading.metric_dbm).sqrt()
}

impl MarginPredictor {
    /// Calibrates the predictor on `workloads`: each is run, its droop
    /// measured directly (the one-off step that does need a probe or a
    /// V_MIN ladder) and its EM reading taken, then a least-squares line
    /// is fitted.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; fails with
    /// [`DomainError::TooManyLoadedCores`] style errors from the runs.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two workloads are supplied.
    pub fn calibrate(
        domain: &VoltageDomain,
        bench: &mut EmBench,
        workloads: &[(&str, &Kernel)],
        loaded_cores: usize,
        samples: usize,
        config: &RunConfig,
    ) -> Result<Self, DomainError> {
        assert!(
            workloads.len() >= 2,
            "need at least two calibration workloads"
        );
        let mut points = Vec::with_capacity(workloads.len());
        for (_, kernel) in workloads {
            let run = domain.run(kernel, loaded_cores, config)?;
            let reading = bench.measure(&run, samples);
            points.push((amplitude_of(&reading), run.max_droop()));
        }
        Ok(Self::fit(points))
    }

    /// Ordinary least squares over `(amplitude, droop)` points.
    fn fit(points: Vec<(f64, f64)>) -> Self {
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        let slope = if denom.abs() < 1e-30 {
            0.0
        } else {
            (n * sxy - sx * sy) / denom
        };
        let intercept = (sy - slope * sx) / n;
        MarginPredictor {
            slope,
            intercept,
            points,
        }
    }

    /// Predicts the maximum droop (volts) from a passive EM reading.
    pub fn predict_droop(&self, reading: &EmReading) -> f64 {
        (self.slope * amplitude_of(reading) + self.intercept).max(0.0)
    }

    /// Predicts a workload's V_MIN: critical voltage plus predicted
    /// droop.
    pub fn predict_vmin(&self, reading: &EmReading, model: &FailureModel, clock_hz: f64) -> f64 {
        model.v_crit_at(clock_hz) + self.predict_droop(reading)
    }

    /// Coefficient of determination of the calibration fit.
    pub fn r_squared(&self) -> f64 {
        let n = self.points.len() as f64;
        let mean = self.points.iter().map(|p| p.1).sum::<f64>() / n;
        let ss_tot: f64 = self.points.iter().map(|p| (p.1 - mean).powi(2)).sum();
        let ss_res: f64 = self
            .points
            .iter()
            .map(|p| {
                let pred = self.slope * p.0 + self.intercept;
                (p.1 - pred).powi(2)
            })
            .sum();
        if ss_tot < 1e-30 {
            return 1.0;
        }
        1.0 - ss_res / ss_tot
    }

    /// Fitted slope (V per sqrt-watt).
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Fitted intercept (V).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_cpu::CoreModel;
    use emvolt_isa::kernels::{padded_sweep_kernel, resonant_stress_kernel};
    use emvolt_isa::Isa;
    use emvolt_platform::{a72_pdn, spec2006_suite};

    fn domain() -> VoltageDomain {
        VoltageDomain::new("A72", CoreModel::cortex_a72(), a72_pdn(), 1.2e9)
    }

    #[test]
    fn calibration_fits_the_em_droop_relation() {
        let d = domain();
        let mut bench = EmBench::new(21);
        let suite = spec2006_suite(Isa::ArmV8);
        let stress = resonant_stress_kernel(Isa::ArmV8, 12, 17);
        let probe = padded_sweep_kernel(Isa::ArmV8, 17);
        let mut cal: Vec<(&str, &Kernel)> = suite
            .iter()
            .take(6)
            .map(|w| (w.name.as_str(), &w.kernel))
            .collect();
        cal.push(("stress", &stress));
        cal.push(("probe", &probe));
        let predictor =
            MarginPredictor::calibrate(&d, &mut bench, &cal, 2, 5, &RunConfig::fast()).unwrap();
        assert!(
            predictor.r_squared() > 0.6,
            "weak EM/droop fit: R^2 = {}",
            predictor.r_squared()
        );
        assert!(predictor.slope() > 0.0, "droop must grow with EM amplitude");
    }

    #[test]
    fn prediction_ranks_unseen_workloads() {
        let d = domain();
        let mut bench = EmBench::new(22);
        let suite = spec2006_suite(Isa::ArmV8);
        // Calibration spans the dynamic range, benchmark-class to
        // virus-class — as a vendor would calibrate with both regular
        // code and a known stress test.
        let stress = resonant_stress_kernel(Isa::ArmV8, 12, 17);
        let mut cal: Vec<(&str, &Kernel)> = suite
            .iter()
            .take(5)
            .map(|w| (w.name.as_str(), &w.kernel))
            .collect();
        cal.push(("stress", &stress));
        let predictor =
            MarginPredictor::calibrate(&d, &mut bench, &cal, 2, 5, &RunConfig::fast()).unwrap();

        // Unseen: lbm (noisiest benchmark) and a resonant probe loop.
        let cfg = RunConfig::fast();
        let lbm = suite.iter().find(|w| w.name == "lbm").expect("lbm exists");
        let probe = padded_sweep_kernel(Isa::ArmV8, 17);
        let run_lbm = d.run(&lbm.kernel, 2, &cfg).unwrap();
        let run_probe = d.run(&probe, 2, &cfg).unwrap();
        let r_lbm = bench.measure(&run_lbm, 5);
        let r_probe = bench.measure(&run_probe, 5);
        let p_lbm = predictor.predict_droop(&r_lbm);
        let p_probe = predictor.predict_droop(&r_probe);
        // Predictions track the true droops within the model's scatter.
        assert!(
            (p_lbm - run_lbm.max_droop()).abs() < 0.030,
            "lbm predicted {p_lbm} vs actual {}",
            run_lbm.max_droop()
        );
        assert!(
            (p_probe - run_probe.max_droop()).abs() < 0.030,
            "probe predicted {p_probe} vs actual {}",
            run_probe.max_droop()
        );
    }

    #[test]
    fn vmin_prediction_combines_model_and_reading() {
        let d = domain();
        let mut bench = EmBench::new(23);
        let suite = spec2006_suite(Isa::ArmV8);
        let cal: Vec<(&str, &Kernel)> = suite
            .iter()
            .take(4)
            .map(|w| (w.name.as_str(), &w.kernel))
            .collect();
        let predictor =
            MarginPredictor::calibrate(&d, &mut bench, &cal, 2, 3, &RunConfig::fast()).unwrap();
        let model = FailureModel::juno_a72();
        let run = d.run(&cal[0].1.clone(), 2, &RunConfig::fast()).unwrap();
        let reading = bench.measure(&run, 3);
        let vmin = predictor.predict_vmin(&reading, &model, d.frequency());
        assert!(
            vmin > model.v_crit && vmin < d.voltage(),
            "predicted vmin {vmin} out of range"
        );
    }
}
