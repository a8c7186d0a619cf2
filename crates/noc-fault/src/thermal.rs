//! HotSpot-style lumped-RC thermal model.
//!
//! Each router tile is one thermal node with a capacitance `c_th`, a
//! vertical resistance `r_vertical` to ambient (through the heat-sink
//! stack), and lateral resistances `r_lateral` to its mesh neighbors.
//! Per-epoch router power drives the network; temperatures settle toward
//!
//! ```text
//! T_ss ≈ T_amb + P · R_eff
//! ```
//!
//! The defaults place the paper's observed 50–100 °C operating range over
//! the realistic per-router power range (~0.03–0.4 W). The thermal time
//! constant is deliberately shortened relative to physical silicon
//! (microseconds instead of milliseconds) so temperature dynamics are
//! visible within reduced-length simulations — a standard acceleration in
//! architectural studies; see DESIGN.md.

use serde::{Deserialize, Serialize};

/// Thermal network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Ambient (heat-sink) temperature in °C.
    pub ambient_c: f64,
    /// Vertical thermal resistance per tile, °C/W.
    pub r_vertical: f64,
    /// Lateral tile-to-tile thermal resistance, °C/W.
    pub r_lateral: f64,
    /// Tile thermal capacitance, J/°C.
    pub c_th: f64,
    /// Junction-temperature ceiling, °C: thermal throttling clamps tiles
    /// here (real chips trip DTM well before silicon limits).
    pub max_temperature_c: f64,
}

impl Default for ThermalParams {
    fn default() -> Self {
        Self {
            ambient_c: 45.0,
            r_vertical: 150.0,
            r_lateral: 50.0,
            // τ = R·C ≈ 150 · 2e-8 = 3 µs: ~6 control epochs at 2 GHz.
            c_th: 2e-8,
            max_temperature_c: 108.0,
        }
    }
}

/// The per-router thermal state.
///
/// # Example
///
/// ```
/// use noc_fault::thermal::{ThermalModel, ThermalParams};
///
/// let mut model = ThermalModel::new(4, 4, ThermalParams::default());
/// // Heat one corner hard for a long time.
/// let mut powers = [0.02; 16];
/// powers[0] = 0.35;
/// for _ in 0..100 {
///     model.update(&powers, 1e-6);
/// }
/// assert!(model.temperature(0) > model.temperature(15));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    width: u16,
    height: u16,
    params: ThermalParams,
    temperatures: Vec<f64>,
}

impl ThermalModel {
    /// Creates a model for a `width × height` tile grid, initialized at a
    /// light-load steady state just above ambient.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or any parameter is non-positive.
    pub fn new(width: u16, height: u16, params: ThermalParams) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        assert!(
            params.r_vertical > 0.0 && params.r_lateral > 0.0 && params.c_th > 0.0,
            "thermal parameters must be positive"
        );
        let n = width as usize * height as usize;
        Self {
            width,
            height,
            params,
            // Idle-ish starting point: ~50 °C, the bottom of the paper's
            // observed range.
            temperatures: vec![params.ambient_c + 5.0; n],
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Temperature of tile `node` (row-major), in °C.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn temperature(&self, node: usize) -> f64 {
        self.temperatures[node]
    }

    /// All tile temperatures, row-major.
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// Advances the thermal state by `dt` seconds under per-tile powers
    /// (watts). Internally sub-steps to keep explicit integration stable.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` does not match the grid size.
    pub fn update(&mut self, powers: &[f64], dt: f64) {
        assert_eq!(
            powers.len(),
            self.temperatures.len(),
            "power vector size mismatch"
        );
        if dt <= 0.0 {
            return;
        }
        let p = self.params;
        // Stability bound for explicit Euler: dt_sub < C / G_max where
        // G_max = 1/Rv + 4/Rl. Use a 5× margin.
        let g_max = 1.0 / p.r_vertical + 4.0 / p.r_lateral;
        let dt_stable = p.c_th / g_max / 5.0;
        let substeps = (dt / dt_stable).ceil().max(1.0) as usize;
        let h = dt / substeps as f64;
        let (w, hgt) = (self.width as usize, self.height as usize);
        let mut next = self.temperatures.clone();
        for _ in 0..substeps {
            for y in 0..hgt {
                for x in 0..w {
                    let i = y * w + x;
                    let t = self.temperatures[i];
                    let mut flow = powers[i] - (t - p.ambient_c) / p.r_vertical;
                    let mut lateral = |j: usize| {
                        flow += (self.temperatures[j] - t) / p.r_lateral;
                    };
                    if x > 0 {
                        lateral(i - 1);
                    }
                    if x + 1 < w {
                        lateral(i + 1);
                    }
                    if y > 0 {
                        lateral(i - w);
                    }
                    if y + 1 < hgt {
                        lateral(i + w);
                    }
                    next[i] = (t + h / p.c_th * flow).min(p.max_temperature_c);
                }
            }
            std::mem::swap(&mut self.temperatures, &mut next);
        }
    }

    /// The steady-state temperature of an isolated tile burning `power`
    /// watts (ignoring lateral flow) — useful for calibration checks.
    #[cfg(test)]
    fn isolated_steady_state(&self, power: f64) -> f64 {
        self.params.ambient_c + power * self.params.r_vertical
    }

    /// [`ThermalModel::update`] instrumented through `telemetry`: the
    /// solve runs under a `thermal.update` span, and the resulting mean
    /// and maximum tile temperatures land in the `thermal.mean_c` /
    /// `thermal.max_c` gauges. The model itself stays telemetry-free so
    /// its value semantics (`Clone`/`PartialEq`/serde) are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` does not match the grid size.
    pub fn update_with_telemetry(
        &mut self,
        powers: &[f64],
        dt: f64,
        telemetry: &rlnoc_telemetry::Telemetry,
    ) {
        {
            let _span = telemetry.timer("thermal.update").start();
            self.update(powers, dt);
        }
        if telemetry.is_enabled() {
            let n = self.temperatures.len() as f64;
            let sum: f64 = self.temperatures.iter().sum();
            let max = self.temperatures.iter().copied().fold(f64::MIN, f64::max);
            telemetry.gauge("thermal.mean_c").set(sum / n);
            telemetry.gauge("thermal.max_c").set(max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_4x4() -> ThermalModel {
        ThermalModel::new(4, 4, ThermalParams::default())
    }

    /// Run to (near) steady state under constant power.
    fn settle(model: &mut ThermalModel, powers: &[f64]) {
        for _ in 0..2000 {
            model.update(powers, 1e-6);
        }
    }

    #[test]
    fn uniform_power_reaches_uniform_steady_state() {
        let mut m = model_4x4();
        let powers = [0.1; 16];
        settle(&mut m, &powers);
        let expect = m.isolated_steady_state(0.1);
        for &t in m.temperatures() {
            assert!((t - expect).abs() < 0.5, "tile at {t}, expected ≈{expect}");
        }
    }

    #[test]
    fn calibration_covers_paper_range() {
        // ~0.03 W idle → ~50 °C; ~0.37 W hot → ~100 °C.
        let m = model_4x4();
        assert!((m.isolated_steady_state(0.033) - 50.0).abs() < 1.0);
        assert!((m.isolated_steady_state(0.366) - 100.0).abs() < 1.0);
    }

    #[test]
    fn hot_tile_heats_its_neighbors() {
        let mut m = model_4x4();
        let mut powers = [0.02; 16];
        powers[5] = 0.4; // interior tile (1,1)
        settle(&mut m, &powers);
        let hot = m.temperature(5);
        let neighbor = m.temperature(6);
        let far = m.temperature(15);
        assert!(hot > neighbor, "source hotter than neighbor");
        assert!(neighbor > far, "lateral conduction warms neighbors");
    }

    #[test]
    fn temperature_decays_without_power() {
        let mut m = model_4x4();
        settle(&mut m, &[0.3; 16]);
        let hot = m.temperature(0);
        settle(&mut m, &[0.0; 16]);
        let cooled = m.temperature(0);
        assert!(cooled < hot);
        assert!((cooled - m.params().ambient_c).abs() < 1.0);
    }

    #[test]
    fn update_is_stable_for_large_dt() {
        let mut m = model_4x4();
        // One huge step: sub-stepping must keep it bounded.
        m.update(&[0.4; 16], 1.0);
        for &t in m.temperatures() {
            assert!(t.is_finite());
            assert!((0.0..200.0).contains(&t), "diverged to {t}");
        }
    }

    #[test]
    fn zero_dt_is_noop() {
        let mut m = model_4x4();
        let before = m.temperatures().to_vec();
        m.update(&[0.5; 16], 0.0);
        assert_eq!(m.temperatures(), &before[..]);
    }

    #[test]
    fn monotone_in_power() {
        let mut lo = model_4x4();
        let mut hi = model_4x4();
        settle(&mut lo, &[0.05; 16]);
        settle(&mut hi, &[0.2; 16]);
        assert!(hi.temperature(0) > lo.temperature(0));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_power_length_panics() {
        let mut m = model_4x4();
        m.update(&[0.1; 4], 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacitance_panics() {
        let _ = ThermalModel::new(
            2,
            2,
            ThermalParams {
                c_th: 0.0,
                ..ThermalParams::default()
            },
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Temperatures stay within [ambient, ambient + Pmax·Rv] for any
        /// bounded power history.
        #[test]
        fn temperatures_bounded(powers in proptest::collection::vec(0.0f64..0.5, 16),
                                steps in 1usize..50) {
            let mut m = ThermalModel::new(4, 4, ThermalParams::default());
            for _ in 0..steps {
                m.update(&powers, 2e-6);
            }
            let upper = m.params().ambient_c + 0.5 * m.params().r_vertical + 1.0;
            for &t in m.temperatures() {
                prop_assert!(t >= m.params().ambient_c - 1.0);
                prop_assert!(t <= upper, "temperature {t} exceeded bound {upper}");
            }
        }
    }
}
