//! Capacitive MEMS accelerometer model.
//!
//! Both the DMU's accelerometers and the ADXL202 sense acceleration as
//! the displacement of a spring-suspended proof mass, read out as a
//! change in differential capacitance between fixed plates and plates
//! attached to the mass. The proof-mass dynamics are a second-order
//! mass-spring-damper; the readout behaves as a low-pass filter whose
//! corner is the mechanical resonance (or the anti-alias filter of the
//! electronics, whichever is lower).
//!
//! # One affine step per output sample
//!
//! The proof mass obeys `x'' = wn^2 (a - x) - 2 zeta wn x'`, which is
//! stiff at the output rate (`wn * dt` is about 63 for the DMU's 1 kHz
//! resonance sampled at 100 Hz). The model integrates it with
//! `ceil(wn * dt / 0.2)` semi-implicit Euler substeps per output
//! interval, holding the input `a` constant across the interval. Each
//! substep is linear in `(pos, vel, a)`, so the whole interval composes
//! into one affine map
//!
//! ```text
//! [pos, vel] <- M * [pos, vel] + d * a
//! ```
//!
//! [`CapacitiveAccel::new`] derives `M` and `d` once by running the
//! substep recurrence on the unit states `[1, 0]`, `[0, 1]` (with
//! `a = 0`) and on the rest state with `a = 1`; [`CapacitiveAccel::sample`]
//! then costs six multiplies per axis instead of hundreds of substeps.
//! In exact arithmetic the two are the same map. In floating point
//! they differ only by rounding order: the map is contractive, so the
//! difference stays at the 1e-14 m/s^2 level instead of accumulating,
//! far below the DMU's 16-bit output word (`4 g / 32768`, about
//! 1.2e-3 m/s^2). The unit tests bound that drift against the substep
//! integrator rather than pinning the unquantized bits.

use crate::error_model::{ErrorModelConfig, SensorErrorModel};
use mathx::STANDARD_GRAVITY;
use rand::Rng;

/// Capacitive accelerometer configuration.
#[derive(Clone, Copy, Debug)]
pub struct AccelConfig {
    /// Proof-mass natural frequency, Hz.
    pub natural_frequency_hz: f64,
    /// Damping ratio of the proof-mass suspension.
    pub damping_ratio: f64,
    /// Output sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Channel error model (m/s^2 units).
    pub error: ErrorModelConfig,
}

impl AccelConfig {
    /// Datasheet-class defaults for a tactical-grade MEMS accelerometer
    /// channel as found in a DMU-style IMU (+/-4 g, ~1 kHz resonance,
    /// a few hundred ug/sqrt(Hz)).
    pub fn dmu_grade() -> Self {
        let g = STANDARD_GRAVITY;
        Self {
            natural_frequency_hz: 1_000.0,
            damping_ratio: 0.7,
            sample_rate_hz: 100.0,
            error: ErrorModelConfig {
                bias: 0.0,
                scale_factor_error: 0.0,
                noise_std: 300e-6 * g * (100.0_f64).sqrt(), // ~3 mg rms at 100 Hz
                bias_walk_std: 1e-6 * g,
                quantization: 4.0 * g / 32768.0, // 16-bit over +/-4 g
                range: 4.0 * g,
            },
        }
    }

    /// Consumer-grade defaults matching the ADXL202 datasheet
    /// (+/-2 g, ~500 ug/sqrt(Hz), ~50 Hz filtered bandwidth).
    pub fn adxl202_grade() -> Self {
        let g = STANDARD_GRAVITY;
        Self {
            natural_frequency_hz: 50.0, // set by the external filter caps
            damping_ratio: 0.7,
            sample_rate_hz: 200.0,
            error: ErrorModelConfig {
                bias: 0.0,
                scale_factor_error: 0.0,
                noise_std: 500e-6 * g * (200.0_f64).sqrt(),
                bias_walk_std: 2e-6 * g,
                quantization: 4.0 * g / 4096.0, // duty-cycle timer resolution
                range: 2.0 * g,
            },
        }
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self::dmu_grade()
    }
}

/// One capacitive accelerometer channel with second-order proof-mass
/// dynamics.
///
/// The dynamics advance one output interval per [`sample`] call
/// through the precomputed affine map described in the
/// [module docs](self): the substep integrator's exact composition,
/// evaluated in a handful of multiply-adds.
///
/// [`sample`]: CapacitiveAccel::sample
///
/// # Examples
///
/// ```
/// use mathx::rng::seeded_rng;
/// use sensors::{AccelConfig, CapacitiveAccel};
///
/// let mut accel = CapacitiveAccel::new(AccelConfig::default());
/// let mut rng = seeded_rng(1);
/// let mut y = 0.0;
/// for _ in 0..300 {
///     y = accel.sample(9.80665, &mut rng); // 1 g step
/// }
/// assert!((y - 9.80665).abs() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct CapacitiveAccel {
    config: AccelConfig,
    // Proof-mass displacement normalized so that steady state equals
    // the input acceleration (x_norm = a for constant a).
    pos: f64,
    vel: f64,
    // One output interval of proof-mass dynamics:
    // [pos, vel] <- step * [pos, vel] + drive * a.
    step: [[f64; 2]; 2],
    drive: [f64; 2],
    channel: SensorErrorModel,
}

impl CapacitiveAccel {
    /// Creates an accelerometer channel.
    ///
    /// # Panics
    ///
    /// Panics if the sample rate or natural frequency is not positive.
    pub fn new(config: AccelConfig) -> Self {
        assert!(config.sample_rate_hz > 0.0, "sample rate must be positive");
        assert!(
            config.natural_frequency_hz > 0.0,
            "natural frequency must be positive"
        );
        let [p0, v0] = integrate_interval(&config, [1.0, 0.0], 0.0);
        let [p1, v1] = integrate_interval(&config, [0.0, 1.0], 0.0);
        Self {
            config,
            pos: 0.0,
            vel: 0.0,
            step: [[p0, p1], [v0, v1]],
            drive: integrate_interval(&config, [0.0, 0.0], 1.0),
            channel: SensorErrorModel::new(config.error),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Produces one output sample from the true specific force along
    /// this channel's axis (m/s^2).
    pub fn sample<R: Rng + ?Sized>(&mut self, true_accel: f64, rng: &mut R) -> f64 {
        let [pos, vel] = [self.pos, self.vel];
        let [[m00, m01], [m10, m11]] = self.step;
        self.pos = m00 * pos + m01 * vel + self.drive[0] * true_accel;
        self.vel = m10 * pos + m11 * vel + self.drive[1] * true_accel;
        self.channel.apply(self.pos, rng)
    }

    /// Resets the proof-mass state and error-model state.
    pub fn reset(&mut self) {
        self.pos = 0.0;
        self.vel = 0.0;
        self.channel.reset();
    }
}

/// Advances `[pos, vel]` over one output interval of
/// `x'' = wn^2 (a - x) - 2 zeta wn x'` with the input `a` held
/// constant, using semi-implicit Euler substeps short enough
/// (`wn * h <= 0.2`) to stay stable when `wn * dt` is large.
fn integrate_interval(config: &AccelConfig, [mut pos, mut vel]: [f64; 2], a: f64) -> [f64; 2] {
    let wn = 2.0 * std::f64::consts::PI * config.natural_frequency_hz;
    let zeta = config.damping_ratio;
    let dt = 1.0 / config.sample_rate_hz;
    let substeps = ((wn * dt / 0.2).ceil() as usize).max(1);
    let h = dt / substeps as f64;
    for _ in 0..substeps {
        let acc = wn * wn * (a - pos) - 2.0 * zeta * wn * vel;
        vel += acc * h;
        pos += vel * h;
    }
    [pos, vel]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathx::rng::seeded_rng;
    use mathx::RunningStats;
    use rand::RngExt;

    fn noiseless_config() -> AccelConfig {
        AccelConfig {
            error: ErrorModelConfig::ideal(),
            ..AccelConfig::default()
        }
    }

    #[test]
    fn settles_to_constant_input() {
        let mut accel = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(1);
        let mut y = 0.0;
        for _ in 0..1000 {
            y = accel.sample(3.0, &mut rng);
        }
        assert!((y - 3.0).abs() < 1e-9, "settled {y}");
    }

    #[test]
    fn zero_input_zero_output() {
        let mut accel = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(1);
        for _ in 0..100 {
            assert_eq!(accel.sample(0.0, &mut rng), 0.0);
        }
    }

    #[test]
    fn noise_floor_matches_config() {
        let mut cfg = noiseless_config();
        cfg.error.noise_std = 0.01;
        let mut accel = CapacitiveAccel::new(cfg);
        let mut rng = seeded_rng(2);
        let mut stats = RunningStats::new();
        for _ in 0..20_000 {
            stats.push(accel.sample(0.0, &mut rng));
        }
        assert!((stats.std_dev() - 0.01).abs() < 1e-3);
    }

    #[test]
    fn adxl_range_saturates_at_2g() {
        let mut cfg = AccelConfig::adxl202_grade();
        cfg.error.noise_std = 0.0;
        cfg.error.quantization = 0.0;
        cfg.error.bias_walk_std = 0.0;
        let mut accel = CapacitiveAccel::new(cfg);
        let mut rng = seeded_rng(3);
        let mut y = 0.0;
        for _ in 0..2000 {
            y = accel.sample(5.0 * STANDARD_GRAVITY, &mut rng);
        }
        assert!((y - 2.0 * STANDARD_GRAVITY).abs() < 1e-9);
    }

    #[test]
    fn low_bandwidth_lags_fast_steps() {
        // ADXL-grade channel (50 Hz corner) responds slower than the
        // 1 kHz DMU channel to the same step.
        let mut slow = CapacitiveAccel::new(AccelConfig {
            error: ErrorModelConfig::ideal(),
            ..AccelConfig::adxl202_grade()
        });
        let mut fast = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(4);
        let ys = slow.sample(1.0, &mut rng);
        let yf = fast.sample(1.0, &mut rng);
        assert!(ys < yf, "slow {ys} fast {yf}");
    }

    #[test]
    fn stable_for_high_resonance() {
        // wn*dt = 2*pi*1000/100 = 62.8: the substeps composed into the
        // precomputed interval map must form a contraction, not blow up.
        let mut accel = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(5);
        for _ in 0..1000 {
            let y = accel.sample(1.0, &mut rng);
            assert!(y.is_finite() && y.abs() < 10.0);
        }
    }

    fn quantize(x: f64, lsb: f64) -> f64 {
        (x / lsb).round() * lsb
    }

    #[test]
    fn collapsed_step_tracks_the_substep_integrator() {
        let dmu_lsb = 4.0 * STANDARD_GRAVITY / 32768.0;
        for (grade, config) in [
            ("dmu", AccelConfig::dmu_grade()),
            ("adxl202", AccelConfig::adxl202_grade()),
        ] {
            let config = AccelConfig {
                error: ErrorModelConfig::ideal(),
                ..config
            };
            let mut collapsed = CapacitiveAccel::new(config);
            // The substep integrator run sample by sample: the
            // reference the collapsed step must track.
            let mut reference = [0.0, 0.0];
            let mut rng = seeded_rng(0xACCE1);
            let mut worst = 0.0_f64;
            for i in 0..200_000 {
                let a = rng.random_range(-4.0 * STANDARD_GRAVITY..4.0 * STANDARD_GRAVITY);
                let got = collapsed.sample(a, &mut rng);
                reference = integrate_interval(&config, reference, a);
                let want = reference[0];
                worst = worst.max((got - want).abs());
                assert_eq!(
                    quantize(got, dmu_lsb),
                    quantize(want, dmu_lsb),
                    "{grade}: sample {i} differs after 16-bit quantization"
                );
            }
            assert!(worst <= 1e-12, "{grade}: drift {worst:e} m/s^2");
        }
    }

    #[test]
    fn reset_restores_rest() {
        let mut accel = CapacitiveAccel::new(noiseless_config());
        let mut rng = seeded_rng(6);
        for _ in 0..50 {
            accel.sample(2.0, &mut rng);
        }
        accel.reset();
        assert_eq!(accel.sample(0.0, &mut rng), 0.0);
    }
}
