//! Deterministic measurement noise.
//!
//! Real measurements on the TX2 are noisy (the paper repeats every experiment
//! ten times and averages). We emulate this with *deterministic* noise keyed
//! by `(seed, task, configuration, quantity)` so that:
//!
//! * repeated identical invocations observe the same "measurement" — runs are
//!   bit-for-bit reproducible;
//! * different tasks/configurations see independent residuals, so regression
//!   models trained on the platform have realistic, non-zero error.
//!
//! Noise magnitudes are calibrated per rail so the MPR models land near the
//! paper's reported accuracies: execution time ~97%, CPU power ~90%, memory
//! power ~80% (Fig. 10).

use serde::{Deserialize, Serialize};

/// SplitMix64: tiny, high-quality 64-bit mixer used as a stateless hash RNG.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix an arbitrary number of u64 keys into one, starting from `h`.
///
/// Folding keys directly keeps [`NoiseModel::factor`] allocation-free: the
/// hash of `[seed, tag, keys...]` is produced by seeding the fold with the
/// prefix instead of materializing the concatenated slice.
#[inline]
fn mix_into(mut h: u64, keys: &[u64]) -> u64 {
    for &k in keys {
        h = splitmix64(h ^ k);
    }
    h
}

/// Initial state of the key fold.
const MIX_INIT: u64 = 0x853C_49E6_748F_EA9B;

/// Uniform in [0, 1) from a key.
#[inline]
fn unit(key: u64) -> f64 {
    // 53 mantissa bits.
    (splitmix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// Standard normal via Box-Muller from two decorrelated uniforms.
#[inline]
fn std_normal(key: u64) -> f64 {
    let u1 = unit(key).max(1e-12);
    let u2 = unit(key.wrapping_add(0x9E37_79B9_7F4A_7C15));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Which measured quantity is being perturbed; each gets an independent
/// noise stream and its own magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Quantity {
    /// Task execution time.
    Time,
    /// CPU rail power.
    CpuPower,
    /// Memory rail power.
    MemPower,
}

impl Quantity {
    fn tag(self) -> u64 {
        match self {
            Quantity::Time => 0x54_49_4D_45,     // "TIME"
            Quantity::CpuPower => 0x43_50_55_50, // "CPUP"
            Quantity::MemPower => 0x4D_45_4D_50, // "MEMP"
        }
    }
}

/// Deterministic multiplicative noise model for platform measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Global seed; distinct seeds give statistically independent platforms.
    pub seed: u64,
    /// Relative (1-sigma) noise on execution time.
    pub sigma_time: f64,
    /// Relative (1-sigma) noise on CPU power.
    pub sigma_cpu_power: f64,
    /// Relative (1-sigma) noise on memory power.
    pub sigma_mem_power: f64,
}

impl NoiseModel {
    /// Calibrated default: time 2%, CPU power 6%, memory power 30%.
    ///
    /// Chosen so the three MPR model accuracies land near the paper's
    /// 97% / 90% / 80% (Fig. 10): residuals combine this measurement noise
    /// with the structural mismatch between the quadratic regression form and
    /// the ground-truth machine model.
    pub fn calibrated(seed: u64) -> Self {
        NoiseModel {
            seed,
            sigma_time: 0.02,
            sigma_cpu_power: 0.06,
            sigma_mem_power: 0.30,
        }
    }

    /// Noise disabled — measurements equal the analytic ground truth.
    pub fn disabled(seed: u64) -> Self {
        NoiseModel {
            seed,
            sigma_time: 0.0,
            sigma_cpu_power: 0.0,
            sigma_mem_power: 0.0,
        }
    }

    /// Multiplicative factor (mean 1) for a quantity measured under a keyed
    /// context. The factor is clamped to [0.5, 1.5] to keep measurements
    /// physical even in the distribution tails.
    pub fn factor(&self, q: Quantity, keys: &[u64]) -> f64 {
        let sigma = match q {
            Quantity::Time => self.sigma_time,
            Quantity::CpuPower => self.sigma_cpu_power,
            Quantity::MemPower => self.sigma_mem_power,
        };
        if sigma == 0.0 {
            return 1.0;
        }
        // Identical to hashing `[seed, tag, keys...]` as one slice, without
        // building it: this runs three times per simulated task execution.
        let h = mix_into(mix_into(MIX_INIT, &[self.seed, q.tag()]), keys);
        (1.0 + sigma * std_normal(h)).clamp(0.5, 1.5)
    }

    /// All three quantity factors for one measurement context, in
    /// [`Quantity`] declaration order (time, CPU power, memory power):
    /// exactly three [`NoiseModel::factor`] calls. This is the path
    /// `MachineModel::execute` takes once per simulated task execution.
    pub fn factors3(&self, keys: &[u64]) -> [f64; 3] {
        [Quantity::Time, Quantity::CpuPower, Quantity::MemPower].map(|q| self.factor(q, keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_key() {
        let n = NoiseModel::calibrated(7);
        let a = n.factor(Quantity::Time, &[1, 2, 3]);
        let b = n.factor(Quantity::Time, &[1, 2, 3]);
        assert_eq!(a, b);
        let c = n.factor(Quantity::Time, &[1, 2, 4]);
        assert_ne!(a, c);
    }

    #[test]
    fn quantities_are_independent_streams() {
        let n = NoiseModel::calibrated(7);
        let t = n.factor(Quantity::Time, &[42]);
        let p = n.factor(Quantity::CpuPower, &[42]);
        let m = n.factor(Quantity::MemPower, &[42]);
        assert!(t != p && p != m && t != m);
    }

    #[test]
    fn disabled_noise_is_identity() {
        let n = NoiseModel::disabled(0);
        assert_eq!(n.factor(Quantity::Time, &[9]), 1.0);
        assert_eq!(n.factor(Quantity::MemPower, &[9]), 1.0);
    }

    #[test]
    fn noise_statistics_match_sigma() {
        let n = NoiseModel::calibrated(1234);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let count = 20_000;
        for i in 0..count {
            let f = n.factor(Quantity::MemPower, &[i]);
            sum += f;
            sum_sq += f * f;
        }
        let mean = sum / count as f64;
        let var = sum_sq / count as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        let sd = var.sqrt();
        // Clamping at [0.5, 1.5] trims the tails slightly below sigma.
        assert!((sd - 0.30).abs() < 0.04, "sd {sd}");
    }

    #[test]
    fn factors_stay_clamped() {
        let n = NoiseModel {
            seed: 5,
            sigma_time: 0.8,
            sigma_cpu_power: 0.8,
            sigma_mem_power: 0.8,
        };
        for i in 0..5_000 {
            let f = n.factor(Quantity::Time, &[i]);
            assert!((0.5..=1.5).contains(&f));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = NoiseModel::calibrated(1).factor(Quantity::Time, &[1]);
        let b = NoiseModel::calibrated(2).factor(Quantity::Time, &[1]);
        assert_ne!(a, b);
    }
}
