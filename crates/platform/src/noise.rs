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
//!
//! Every simulated task execution draws all three factors (time, CPU power,
//! memory power) for one key list, so [`NoiseModel::factors3`] is the only
//! entry point. It folds the three per-quantity hashes in lockstep lanes:
//! each lane computes exactly the splitmix fold of `[seed, tag, keys...]`
//! it would compute alone, so the factors are bit-identical to three
//! separate folds (the `fused_lanes_match_the_per_quantity_fold_bitwise`
//! test holds it to a per-quantity reference), while the dependent hash
//! chain is a third as long.

use serde::{Deserialize, Serialize};

/// SplitMix64: tiny, high-quality 64-bit mixer used as a stateless hash RNG.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    /// Every quantity, in declaration order: the lane order of
    /// [`NoiseModel::factors3`].
    pub const ALL: [Quantity; 3] = [Quantity::Time, Quantity::CpuPower, Quantity::MemPower];

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

    /// All three quantity factors for one measurement context, in
    /// [`Quantity`] declaration order (time, CPU power, memory power). This
    /// is the path `MachineModel::execute` takes once per simulated task
    /// execution.
    ///
    /// Each factor is multiplicative with mean 1, clamped to [0.5, 1.5] to
    /// keep measurements physical even in the distribution tails; a zero
    /// sigma gives exactly `1.0`. Lane `q` hashes `[seed, q.tag(), keys...]`
    /// with the splitmix fold and draws one Box-Muller normal from the hash.
    /// The three lanes run in lockstep and share the seed step: the fold is
    /// one dependent chain of `keys.len() + 2` steps, three hashes wide after
    /// the first, not three such chains back to back.
    pub fn factors3(&self, keys: &[u64]) -> [f64; 3] {
        let sigma = [self.sigma_time, self.sigma_cpu_power, self.sigma_mem_power];
        let seeded = splitmix64(MIX_INIT ^ self.seed);
        let mut h = Quantity::ALL.map(|q| splitmix64(seeded ^ q.tag()));
        for &k in keys {
            h = h.map(|lane| splitmix64(lane ^ k));
        }
        let mut out = [1.0; 3];
        for ((f, &s), &lane) in out.iter_mut().zip(&sigma).zip(&h) {
            if s != 0.0 {
                *f = (1.0 + s * std_normal(lane)).clamp(0.5, 1.5);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One quantity's factor, through the fused kernel.
    fn factor(n: &NoiseModel, q: Quantity, keys: &[u64]) -> f64 {
        n.factors3(keys)[q as usize]
    }

    /// Reference: one quantity at a time, hashing `[seed, tag, keys...]`
    /// as a single slice with its own fold, as the noise model did before
    /// the three lanes were fused.
    fn reference_factor(n: &NoiseModel, q: Quantity, keys: &[u64]) -> f64 {
        let sigma = match q {
            Quantity::Time => n.sigma_time,
            Quantity::CpuPower => n.sigma_cpu_power,
            Quantity::MemPower => n.sigma_mem_power,
        };
        if sigma == 0.0 {
            return 1.0;
        }
        let mut h = MIX_INIT;
        for k in [n.seed, q.tag()].iter().chain(keys) {
            h = splitmix64(h ^ k);
        }
        (1.0 + sigma * std_normal(h)).clamp(0.5, 1.5)
    }

    #[test]
    fn fused_lanes_match_the_per_quantity_fold_bitwise() {
        let mut rng = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            rng = splitmix64(rng);
            rng
        };
        let sigma_choices = [0.0, 0.02, 0.06, 0.30, 0.8];
        for case in 0..4_000 {
            let seed = next();
            let mut pick = || sigma_choices[(next() % sigma_choices.len() as u64) as usize];
            let n = NoiseModel {
                seed,
                sigma_time: pick(),
                sigma_cpu_power: pick(),
                sigma_mem_power: pick(),
            };
            // Engine-shaped keys (small integers) and arbitrary 64-bit ones,
            // including the empty key list.
            let len = case % 7;
            let keys: Vec<u64> = (0..len)
                .map(|_| if case % 2 == 0 { next() % 8 } else { next() })
                .collect();
            let got = n.factors3(&keys);
            for q in Quantity::ALL {
                assert_eq!(
                    got[q as usize].to_bits(),
                    reference_factor(&n, q, &keys).to_bits(),
                    "{q:?} lane differs for {n:?}, keys {keys:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_key() {
        let n = NoiseModel::calibrated(7);
        let a = factor(&n, Quantity::Time, &[1, 2, 3]);
        let b = factor(&n, Quantity::Time, &[1, 2, 3]);
        assert_eq!(a, b);
        let c = factor(&n, Quantity::Time, &[1, 2, 4]);
        assert_ne!(a, c);
    }

    #[test]
    fn quantities_are_independent_streams() {
        let n = NoiseModel::calibrated(7);
        let [t, p, m] = n.factors3(&[42]);
        assert!(t != p && p != m && t != m);
    }

    #[test]
    fn disabled_noise_is_identity() {
        let n = NoiseModel::disabled(0);
        assert_eq!(n.factors3(&[9]), [1.0; 3]);
    }

    #[test]
    fn noise_statistics_match_sigma() {
        let n = NoiseModel::calibrated(1234);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let count = 20_000;
        for i in 0..count {
            let f = factor(&n, Quantity::MemPower, &[i]);
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
            for f in n.factors3(&[i]) {
                assert!((0.5..=1.5).contains(&f));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = factor(&NoiseModel::calibrated(1), Quantity::Time, &[1]);
        let b = factor(&NoiseModel::calibrated(2), Quantity::Time, &[1]);
        assert_ne!(a, b);
    }
}
