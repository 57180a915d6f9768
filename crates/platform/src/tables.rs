//! Precomputed per-ladder-point tables of the machine laws.
//!
//! JOSS's knobs take values on discrete ladders, so every frequency-only
//! term of the machine model is a pure function of a ladder index and can
//! be evaluated once per machine and reused wherever an index is in hand:
//!
//! * idle rail power — `cluster_idle_w` per CPU frequency, `mem_idle_w` per
//!   memory frequency — read by the engine's dirty-flag rail-power
//!   recompute and by `joss_models::search`, where every objective
//!   evaluation charges the idle floor of a candidate configuration;
//! * the operating-point factors of the time and power laws
//!   ([`OpPoint`]): `(fC/fC_max)^0.55` and `V(TC, fC)` per CPU frequency,
//!   DRAM supply bandwidth and access energy per memory frequency, and
//!   `NC^0.85` per width. The engine reads them at every task launch and
//!   DVFS rescale instead of calling `powf`.
//!
//! The values are produced by the *exact same* [`MachineModel`] expressions
//! the direct computation evaluates, so replacing a call with a lookup is
//! bit-exact — the engine's golden-fixture equivalence tests rely on that.

use crate::config::{ConfigSpace, CoreType, FreqIndex};
use crate::machine::{MachineModel, OpPoint};
use serde::{Deserialize, Serialize};

/// Idle rail power (the paper's §4.3.3 idle characterization) and law
/// factors per ladder index, measured once per machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTables {
    /// `[core_type][fc]` idle power of the whole cluster, watts.
    pub cpu_idle_w: [Vec<f64>; 2],
    /// `[fm]` memory background power, watts.
    pub mem_idle_w: Vec<f64>,
    /// `[fc]` CPU frequency, GHz.
    fc_ghz: Vec<f64>,
    /// `[fc]` demand-bandwidth factor, `(fC/fC_max)^0.55`.
    fc_demand: Vec<f64>,
    /// `[core_type][fc]` cluster voltage.
    volt: [Vec<f64>; 2],
    /// `[fm]` DRAM supply bandwidth, GB/s.
    mem_supply_gbs: Vec<f64>,
    /// `[fm]` DRAM access energy, joules per gigabyte.
    mem_e_gb: Vec<f64>,
    /// `[width]` demand-bandwidth factor, `NC^0.85`, for every width up to
    /// the largest cluster.
    nc_demand: Vec<f64>,
}

impl PowerTables {
    /// Measure from a machine (idle power is stable; measured once).
    pub fn measure(machine: &MachineModel, space: &ConfigSpace) -> Self {
        fn over(ladder: &[f64], law: impl Fn(f64) -> f64) -> Vec<f64> {
            ladder.iter().map(|&f| law(f)).collect()
        }
        let (fc, fm) = (&space.cpu_freqs_ghz, &space.mem_freqs_ghz);
        let max_width = machine.spec.clusters.iter().map(|c| c.n_cores).max();
        PowerTables {
            cpu_idle_w: CoreType::ALL.map(|tc| over(fc, |f| machine.cluster_idle_w(tc, f))),
            mem_idle_w: over(fm, |f| machine.mem_idle_w(f)),
            fc_ghz: fc.clone(),
            fc_demand: over(fc, |f| machine.fc_demand(f)),
            volt: CoreType::ALL.map(|tc| over(fc, |f| machine.spec.voltage(tc, f))),
            mem_supply_gbs: over(fm, |f| machine.mem_supply_gbs(f)),
            mem_e_gb: over(fm, |f| machine.mem_e_gb(f)),
            nc_demand: (0..=max_width.unwrap_or(0))
                .map(MachineModel::nc_demand)
                .collect(),
        }
    }

    /// Idle power of cluster `tc` at CPU frequency index `fc`, watts.
    #[inline]
    pub fn cluster_idle_w(&self, tc: CoreType, fc: FreqIndex) -> f64 {
        self.cpu_idle_w[tc.index()][fc.0]
    }

    /// Memory background power at memory frequency index `fm`, watts.
    #[inline]
    pub fn mem_idle_w(&self, fm: FreqIndex) -> f64 {
        self.mem_idle_w[fm.0]
    }

    /// The law factors of `<tc, nc, fc, fm>` by table lookup: bit-identical
    /// to [`MachineModel::op_point`] at the ladder's frequencies. `nc` may
    /// not exceed the largest cluster.
    #[inline]
    pub fn op_point(&self, tc: CoreType, nc: usize, fc: FreqIndex, fm: FreqIndex) -> OpPoint {
        OpPoint {
            tc,
            nc,
            fc_ghz: self.fc_ghz[fc.0],
            nc_demand: self.nc_demand[nc],
            fc_demand: self.fc_demand[fc.0],
            volt: self.volt[tc.index()][fc.0],
            mem_supply_gbs: self.mem_supply_gbs[fm.0],
            mem_e_gb: self.mem_e_gb[fm.0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::PlatformSpec;

    #[test]
    fn tables_match_direct_model_calls_bitwise() {
        let machine = MachineModel::tx2(7);
        let space = ConfigSpace::from_spec(&machine.spec);
        let tables = PowerTables::measure(&machine, &space);
        for tc in CoreType::ALL {
            for (i, &f) in space.cpu_freqs_ghz.iter().enumerate() {
                assert_eq!(
                    tables.cluster_idle_w(tc, FreqIndex(i)).to_bits(),
                    machine.cluster_idle_w(tc, f).to_bits(),
                    "cluster idle lookup must be bit-exact"
                );
            }
        }
        for (i, &f) in space.mem_freqs_ghz.iter().enumerate() {
            assert_eq!(
                tables.mem_idle_w(FreqIndex(i)).to_bits(),
                machine.mem_idle_w(f).to_bits(),
                "memory idle lookup must be bit-exact"
            );
        }
    }

    fn law_bits(op: &OpPoint) -> [u64; 6] {
        [
            op.fc_ghz,
            op.nc_demand,
            op.fc_demand,
            op.volt,
            op.mem_supply_gbs,
            op.mem_e_gb,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn indexed_laws_match_the_f64_laws_bitwise() {
        use crate::machine::{ExecContext, TaskShape};
        // Tiny deterministic generator: uniform in [0, 1).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut uniform = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for spec in [PlatformSpec::tx2_like(), PlatformSpec::large()] {
            let mut machine = MachineModel::tx2(11);
            machine.spec = spec;
            let space = ConfigSpace::from_spec(&machine.spec);
            let tables = PowerTables::measure(&machine, &space);
            for case in 0..40 {
                // Compute-only, memory-only and mixed shapes.
                let work = if case % 5 == 1 { 0.0 } else { uniform() * 0.2 };
                let bytes = if case % 5 == 2 { 0.0 } else { uniform() * 0.3 };
                let shape = TaskShape::new(work + 1e-6, bytes).with_scalability(uniform());
                let ctx = ExecContext {
                    other_demand_gbs: [0.0, 4.0, 40.0, uniform() * 60.0][case % 4],
                };
                for tc in CoreType::ALL {
                    for nc in 1..=machine.spec.cluster(tc).n_cores {
                        for (i, &fc) in space.cpu_freqs_ghz.iter().enumerate() {
                            for (j, &fm) in space.mem_freqs_ghz.iter().enumerate() {
                                let op = tables.op_point(tc, nc, FreqIndex(i), FreqIndex(j));
                                let direct = machine.op_point(tc, nc, fc, fm);
                                assert_eq!((op.tc, op.nc), (direct.tc, direct.nc));
                                assert_eq!(law_bits(&op), law_bits(&direct), "{tc:?} {nc} {i} {j}");
                                let keys = [case as u64, tc.index() as u64, nc as u64, i as u64];
                                let a = machine.execute_at(&shape, &op, &ctx, &keys);
                                let b = machine.execute(&shape, tc, nc, fc, fm, &ctx, &keys);
                                assert_eq!(a.duration, b.duration);
                                for (x, y) in [
                                    (a.cpu_dyn_w, b.cpu_dyn_w),
                                    (a.mem_dyn_w, b.mem_dyn_w),
                                    (a.true_mb, b.true_mb),
                                    (
                                        machine.clean_time_at(&shape, &op, &ctx),
                                        machine.clean_time_s(&shape, tc, nc, fc, fm, &ctx),
                                    ),
                                ] {
                                    assert_eq!(
                                        x.to_bits(),
                                        y.to_bits(),
                                        "{tc:?} nc={nc} fc={fc} fm={fm}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn idle_power_increases_with_frequency() {
        let machine = MachineModel::tx2_noiseless();
        let space = ConfigSpace::from_spec(&PlatformSpec::tx2_like());
        let tables = PowerTables::measure(&machine, &space);
        for tc in CoreType::ALL {
            let lo = tables.cluster_idle_w(tc, FreqIndex(0));
            let hi = tables.cluster_idle_w(tc, FreqIndex(space.cpu_freqs_ghz.len() - 1));
            assert!(hi > lo && lo > 0.0);
        }
        assert!(tables.mem_idle_w(FreqIndex(2)) > tables.mem_idle_w(FreqIndex(0)));
    }
}
