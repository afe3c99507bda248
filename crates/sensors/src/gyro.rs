//! Vibrating ring-resonator gyroscope model.
//!
//! The DMU's gyros sense rotation through the Coriolis effect: a ring
//! micro-machined from silicon is driven to vibrate in a primary mode;
//! under rotation at rate `omega` about the sensitive axis, Coriolis
//! forces couple energy into the orthogonal secondary mode with
//! amplitude proportional to `omega`. The pickoff demodulates that
//! secondary motion into a rate signal.
//!
//! For simulation we do not integrate the ~14 kHz ring dynamics sample
//! by sample; what matters to the fusion filter is the *demodulated*
//! channel behaviour: a first-order response with the loop bandwidth of
//! the sense electronics, followed by the instrument error model. The
//! ring parameters (frequency, quality factor) determine the scale
//! factor and are retained for documentation and the scale-factor
//! sensitivity they induce.

use crate::error_model::{ErrorModelConfig, SensorErrorModel};
use rand::Rng;

/// Ring-resonator gyroscope configuration.
#[derive(Clone, Copy, Debug)]
pub struct GyroConfig {
    /// Demodulated channel bandwidth, Hz (sense-loop low-pass).
    pub bandwidth_hz: f64,
    /// Output sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Ring drive-mode resonant frequency, Hz (documentation/scale).
    pub ring_frequency_hz: f64,
    /// Ring quality factor (documentation/scale).
    pub quality_factor: f64,
    /// Channel error model (rad/s units).
    pub error: ErrorModelConfig,
}

impl GyroConfig {
    /// Datasheet-class defaults for a silicon ring gyro
    /// (~14.5 kHz ring, 75 Hz bandwidth, 100 Hz output,
    /// 0.05 deg/s/sqrt(Hz) noise, +/-100 deg/s range).
    pub fn silicon_ring_default() -> Self {
        let deg = std::f64::consts::PI / 180.0;
        Self {
            bandwidth_hz: 75.0,
            sample_rate_hz: 100.0,
            ring_frequency_hz: 14_500.0,
            quality_factor: 5_000.0,
            error: ErrorModelConfig {
                bias: 0.0,
                scale_factor_error: 0.0,
                noise_std: 0.05 * deg * (100.0_f64).sqrt() / 10.0, // ~0.05 deg/s rms at 100 Hz
                bias_walk_std: 2e-6,
                quantization: 200.0 * deg / 32768.0, // 16-bit over +/-200 deg/s
                range: 100.0 * deg,
            },
        }
    }
}

impl Default for GyroConfig {
    fn default() -> Self {
        Self::silicon_ring_default()
    }
}

/// One ring-resonator gyro channel.
///
/// # Examples
///
/// ```
/// use mathx::rng::seeded_rng;
/// use sensors::{GyroConfig, RingGyro};
///
/// let mut gyro = RingGyro::new(GyroConfig::default());
/// let mut rng = seeded_rng(1);
/// let mut y = 0.0;
/// for _ in 0..200 {
///     y = gyro.sample(0.1, &mut rng); // constant 0.1 rad/s input
/// }
/// assert!((y - 0.1).abs() < 0.01);
/// ```
#[derive(Clone, Debug)]
pub struct RingGyro {
    config: GyroConfig,
    filter_state: f64,
    alpha: f64,
    channel: SensorErrorModel,
}

impl RingGyro {
    /// Creates a gyro channel.
    ///
    /// # Panics
    ///
    /// Panics if the sample rate or bandwidth is not positive.
    pub fn new(config: GyroConfig) -> Self {
        assert!(config.sample_rate_hz > 0.0, "sample rate must be positive");
        assert!(config.bandwidth_hz > 0.0, "bandwidth must be positive");
        // One-pole low-pass discretized at the sample rate.
        let dt = 1.0 / config.sample_rate_hz;
        let tau = 1.0 / (2.0 * std::f64::consts::PI * config.bandwidth_hz);
        let alpha = dt / (tau + dt);
        Self {
            config,
            filter_state: 0.0,
            alpha,
            channel: SensorErrorModel::new(config.error),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GyroConfig {
        &self.config
    }

    /// Produces one output sample from the true angular rate (rad/s).
    pub fn sample<R: Rng + ?Sized>(&mut self, true_rate: f64, rng: &mut R) -> f64 {
        // Sense-loop bandwidth limit.
        self.filter_state += self.alpha * (true_rate - self.filter_state);
        self.channel.apply(self.filter_state, rng)
    }

    /// Resets dynamic state (power cycle).
    pub fn reset(&mut self) {
        self.filter_state = 0.0;
        self.channel.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathx::rng::seeded_rng;
    use mathx::RunningStats;

    fn noiseless_config() -> GyroConfig {
        GyroConfig {
            error: ErrorModelConfig::ideal(),
            ..GyroConfig::default()
        }
    }

    #[test]
    fn tracks_constant_rate() {
        let mut gyro = RingGyro::new(noiseless_config());
        let mut rng = seeded_rng(1);
        let mut y = 0.0;
        for _ in 0..500 {
            y = gyro.sample(0.25, &mut rng);
        }
        assert!((y - 0.25).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_limits_step_response() {
        let mut gyro = RingGyro::new(noiseless_config());
        let mut rng = seeded_rng(1);
        // First sample after a unit step must be below the final value
        // (one-pole response), converging monotonically.
        let y1 = gyro.sample(1.0, &mut rng);
        let y2 = gyro.sample(1.0, &mut rng);
        let y3 = gyro.sample(1.0, &mut rng);
        assert!(y1 < 1.0);
        assert!(y1 < y2 && y2 < y3);
    }

    #[test]
    fn noise_floor_matches_config() {
        let mut cfg = noiseless_config();
        cfg.error.noise_std = 0.002;
        cfg.error.quantization = 0.0;
        let mut gyro = RingGyro::new(cfg);
        let mut rng = seeded_rng(2);
        let mut stats = RunningStats::new();
        for _ in 0..20_000 {
            stats.push(gyro.sample(0.0, &mut rng));
        }
        assert!(stats.mean().abs() < 1e-4);
        assert!((stats.std_dev() - 0.002).abs() < 2e-4);
    }

    #[test]
    fn saturates_at_range() {
        let mut cfg = noiseless_config();
        cfg.error.range = 0.5;
        let mut gyro = RingGyro::new(cfg);
        let mut rng = seeded_rng(3);
        let mut y = 0.0;
        for _ in 0..500 {
            y = gyro.sample(2.0, &mut rng);
        }
        assert_eq!(y, 0.5);
    }

    #[test]
    fn default_quantization_is_16_bit() {
        let cfg = GyroConfig::default();
        let deg = std::f64::consts::PI / 180.0;
        assert!((cfg.error.quantization - 200.0 * deg / 32768.0).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut gyro = RingGyro::new(noiseless_config());
        let mut rng = seeded_rng(4);
        for _ in 0..10 {
            gyro.sample(1.0, &mut rng);
        }
        gyro.reset();
        let y = gyro.sample(0.0, &mut rng);
        assert_eq!(y, 0.0);
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_sample_rate_panics() {
        let mut cfg = noiseless_config();
        cfg.sample_rate_hz = 0.0;
        let _ = RingGyro::new(cfg);
    }
}
