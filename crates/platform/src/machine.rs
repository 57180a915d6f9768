//! Ground-truth machine model: what the simulated hardware "actually does".
//!
//! Given a task's computational shape and a knob configuration, the model
//! produces execution time, CPU dynamic power and memory dynamic power. It is
//! the *oracle* that the runtime measures (with noise) and that the MPR models
//! in `joss-models` approximate — exactly the role real silicon plays for the
//! paper.
//!
//! The functional form follows the paper's decomposition
//! `Time = Time_comp + Time_stall` (§4.2) but with a richer coupling than the
//! regression models can represent (harmonic latency/bandwidth combination,
//! sublinear frequency exponents), so fitting them yields realistic residuals:
//!
//! * `Time_comp = work / (ipc * fC * NC^alpha)` — compute scales with core
//!   frequency and (per-kernel) moldable scalability `alpha`;
//! * `Time_stall = bytes / BW_eff`, where `BW_eff` harmonically combines the
//!   cores' demand bandwidth (growing with `fC` and `NC`) with the DRAM supply
//!   bandwidth (growing with `fM`) — core frequency indirectly changes how
//!   fast requests are issued, as observed in the paper;
//! * CPU dynamic power `= NC * c_dyn * V(fC)^2 * fC * activity(MB)` — stalled
//!   cores burn less than busy ones;
//! * memory dynamic power `= e_GB * achieved_BW * g(fM)` plus an
//!   `fM`-dependent background captured in idle power.

use crate::config::CoreType;
use crate::noise::NoiseModel;
use crate::time::Duration;
use crate::topology::PlatformSpec;
use serde::{Deserialize, Serialize};

/// `x.powf(y)` with the IEEE-754 `pow(1, y) == 1` special case branched
/// before the call: bit-identical for every input (the standard requires
/// `pow(1, y)` to be exactly `1.0` for any `y`, even NaN), but skips the
/// ~20 ns transcendental in the engine's overwhelmingly common operating
/// points — width-1 tasks (`nc == 1`) and maximum frequencies
/// (`f_rel == 1.0`).
#[inline]
pub(crate) fn powf_1fast(x: f64, y: f64) -> f64 {
    if x == 1.0 {
        1.0
    } else {
        x.powf(y)
    }
}

/// Exponent of demand-bandwidth growth with CPU frequency.
const DEMAND_FC_EXP: f64 = 0.55;
/// Exponent of demand-bandwidth growth with core count.
const DEMAND_NC_EXP: f64 = 0.85;
/// Exponent of supply-bandwidth growth with memory frequency.
const SUPPLY_FM_EXP: f64 = 0.92;
/// Fraction of dynamic CPU power still burned while stalled on memory.
const STALL_ACTIVITY: f64 = 0.30;
/// Memory access energy multiplier range over the fM ladder.
const MEM_E_FM_COUPLING: f64 = 0.20;

/// The computational shape of one task (or task partition workload).
///
/// This is everything the hardware needs to know to "execute" a task: how
/// many operations it performs, how much DRAM traffic it generates, and how
/// well it scales when molded across multiple cores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskShape {
    /// Total operations, in giga-ops (work done by all cores together).
    pub work_gops: f64,
    /// Total DRAM traffic, in gigabytes.
    pub bytes_gb: f64,
    /// Moldable scalability exponent: effective parallelism is `NC^alpha`.
    /// `1.0` = linear speedup, `0.0` = no benefit from extra cores.
    pub scal_alpha: f64,
}

impl TaskShape {
    /// A shape with the given work and traffic and near-linear scalability.
    pub fn new(work_gops: f64, bytes_gb: f64) -> Self {
        TaskShape {
            work_gops,
            bytes_gb,
            scal_alpha: 0.95,
        }
    }

    /// Set the moldable scalability exponent.
    pub fn with_scalability(mut self, alpha: f64) -> Self {
        self.scal_alpha = alpha.clamp(0.0, 1.0);
        self
    }

    /// Operations-per-byte ratio (the task-characteristic axis of the paper).
    pub fn ops_per_byte(&self) -> f64 {
        if self.bytes_gb <= 0.0 {
            f64::INFINITY
        } else {
            self.work_gops / self.bytes_gb
        }
    }

    /// Validity check used by property tests and builders.
    pub fn is_valid(&self) -> bool {
        self.work_gops >= 0.0
            && self.bytes_gb >= 0.0
            && (self.work_gops + self.bytes_gb) > 0.0
            && (0.0..=1.0).contains(&self.scal_alpha)
            && self.work_gops.is_finite()
            && self.bytes_gb.is_finite()
    }
}

/// Execution context that affects timing beyond the task's own knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ExecContext {
    /// Aggregate DRAM bandwidth demand of the *other* concurrently running
    /// tasks, GB/s. Contention only bites when total demand exceeds supply:
    /// below saturation each task gets what it asks for; above it, supply is
    /// shared proportionally to demand (bandwidth-fair DRAM scheduling).
    pub other_demand_gbs: f64,
}

impl ExecContext {
    /// A task running alone on the machine.
    pub fn alone() -> Self {
        ExecContext {
            other_demand_gbs: 0.0,
        }
    }
}

/// The measured outcome of executing a task at one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecSample {
    /// Wall-clock (virtual) execution time of the task, noise included.
    pub duration: Duration,
    /// CPU dynamic power over the task's execution, all `NC` cores combined,
    /// watts, noise included.
    pub cpu_dyn_w: f64,
    /// Memory dynamic power attributable to this task, watts, noise included.
    pub mem_dyn_w: f64,
    /// Ground-truth memory-boundness (stall fraction), noise-free. Exposed
    /// for accuracy evaluation only; schedulers must not read it.
    pub true_mb: f64,
}

/// One operating point `<TC, NC, fC, fM>` with the law factors that depend
/// only on the knobs, not on the task. The time and power laws are written
/// once, over this struct: [`MachineModel::op_point`] fills it with `powf`
/// from frequencies in GHz, and the engine fills it by ladder index from
/// [`PowerTables`](crate::PowerTables), whose cells hold the bits the same
/// expressions produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPoint {
    /// Core type the task runs on.
    pub tc: CoreType,
    /// Number of cores the task is molded across.
    pub nc: usize,
    /// CPU frequency, GHz.
    pub fc_ghz: f64,
    /// Demand-bandwidth growth with core count, `nc^0.85`.
    pub nc_demand: f64,
    /// Demand-bandwidth growth with CPU frequency, `(fC/fC_max)^0.55`.
    pub fc_demand: f64,
    /// Cluster voltage at `fC`, volts.
    pub volt: f64,
    /// DRAM supply bandwidth at `fM`, GB/s.
    pub mem_supply_gbs: f64,
    /// DRAM access energy at `fM`, joules per gigabyte.
    pub mem_e_gb: f64,
}

/// Calibratable parameters beyond the [`PlatformSpec`] electricals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineParams {
    /// Per-task fixed runtime overhead added to every execution (dispatch,
    /// cache warmup), seconds.
    pub task_overhead_s: f64,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            task_overhead_s: 3.0e-6,
        }
    }
}

/// Ground-truth model of one platform: timing + power oracle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineModel {
    /// Static platform description (topology, frequency ladders, electricals).
    pub spec: PlatformSpec,
    /// Measurement noise generator.
    pub noise: NoiseModel,
    /// Extra calibration parameters.
    pub params: MachineParams,
}

impl MachineModel {
    /// Build a TX2-like machine with calibrated noise.
    pub fn tx2(seed: u64) -> Self {
        MachineModel {
            spec: PlatformSpec::tx2_like(),
            noise: NoiseModel::calibrated(seed),
            params: MachineParams::default(),
        }
    }

    /// Build a noise-free machine (useful as a test oracle).
    pub fn tx2_noiseless() -> Self {
        MachineModel {
            spec: PlatformSpec::tx2_like(),
            noise: NoiseModel::disabled(0),
            params: MachineParams::default(),
        }
    }

    /// Demand-bandwidth growth with core count, `nc^0.85`.
    pub(crate) fn nc_demand(nc: usize) -> f64 {
        powf_1fast(nc as f64, DEMAND_NC_EXP)
    }

    /// Demand-bandwidth growth with CPU frequency, `(fC/fC_max)^0.55`.
    pub(crate) fn fc_demand(&self, fc_ghz: f64) -> f64 {
        powf_1fast(fc_ghz / self.spec.fc_max_ghz(), DEMAND_FC_EXP)
    }

    /// DRAM supply bandwidth at memory frequency `fm_ghz`, GB/s.
    pub(crate) fn mem_supply_gbs(&self, fm_ghz: f64) -> f64 {
        let fm_rel = fm_ghz / self.spec.fm_max_ghz();
        self.spec.mem_bw_gbs * powf_1fast(fm_rel, SUPPLY_FM_EXP)
    }

    /// DRAM access energy per gigabyte at memory frequency `fm_ghz`,
    /// mildly increasing with frequency (higher-rate I/O costs more per
    /// bit), matching the paper's Fig. 5b trends.
    pub(crate) fn mem_e_gb(&self, fm_ghz: f64) -> f64 {
        let fm_rel = fm_ghz / self.spec.fm_max_ghz();
        self.spec.mem_energy_j_per_gb * (1.0 - MEM_E_FM_COUPLING + MEM_E_FM_COUPLING * fm_rel)
    }

    /// The law factors of `<tc, nc, fc_ghz, fm_ghz>`, evaluated with `powf`.
    /// [`PowerTables::op_point`](crate::PowerTables::op_point) returns the
    /// same bits from a table when the frequencies are ladder indices.
    pub fn op_point(&self, tc: CoreType, nc: usize, fc_ghz: f64, fm_ghz: f64) -> OpPoint {
        OpPoint {
            tc,
            nc,
            fc_ghz,
            nc_demand: Self::nc_demand(nc),
            fc_demand: self.fc_demand(fc_ghz),
            volt: self.spec.voltage(tc, fc_ghz),
            mem_supply_gbs: self.mem_supply_gbs(fm_ghz),
            mem_e_gb: self.mem_e_gb(fm_ghz),
        }
    }

    /// Compute-side time component (seconds), before noise.
    pub fn compute_time_s(&self, shape: &TaskShape, tc: CoreType, nc: usize, fc_ghz: f64) -> f64 {
        let cl = self.spec.cluster(tc);
        let parallelism = powf_1fast(nc as f64, shape.scal_alpha);
        shape.work_gops / (cl.ipc * fc_ghz * parallelism)
    }

    /// Memory-stall time component (seconds), before noise.
    pub fn stall_time_s(
        &self,
        shape: &TaskShape,
        tc: CoreType,
        nc: usize,
        fc_ghz: f64,
        fm_ghz: f64,
        ctx: &ExecContext,
    ) -> f64 {
        self.stall_time_at(shape, &self.op_point(tc, nc, fc_ghz, fm_ghz), ctx)
    }

    fn stall_time_at(&self, shape: &TaskShape, op: &OpPoint, ctx: &ExecContext) -> f64 {
        if shape.bytes_gb <= 0.0 {
            return 0.0;
        }
        let cl = self.spec.cluster(op.tc);
        let demand = cl.core_bw_gbs * op.nc_demand * op.fc_demand;
        let supply_total = op.mem_supply_gbs;
        // Contention: below saturation the other streams do not slow us
        // down; above it, supply is split proportionally to demand.
        let other = ctx.other_demand_gbs.max(0.0);
        let supply = if demand + other <= supply_total {
            supply_total - other
        } else {
            supply_total * demand / (demand + other)
        };
        // Harmonic combination: latency-limited when demand << supply,
        // bandwidth-limited when demand >> supply.
        let eff_bw = 1.0 / (1.0 / demand + 1.0 / supply.max(1e-9));
        shape.bytes_gb / eff_bw
    }

    /// `(stall, clean)` time in seconds: the stall component and the
    /// noise-free total including fixed task overhead.
    fn times_at(&self, shape: &TaskShape, op: &OpPoint, ctx: &ExecContext) -> (f64, f64) {
        let t_comp = self.compute_time_s(shape, op.tc, op.nc, op.fc_ghz);
        let t_stall = self.stall_time_at(shape, op, ctx);
        (t_stall, t_comp + t_stall + self.params.task_overhead_s)
    }

    /// Noise-free execution time (seconds) including fixed task overhead.
    pub fn clean_time_s(
        &self,
        shape: &TaskShape,
        tc: CoreType,
        nc: usize,
        fc_ghz: f64,
        fm_ghz: f64,
        ctx: &ExecContext,
    ) -> f64 {
        self.clean_time_at(shape, &self.op_point(tc, nc, fc_ghz, fm_ghz), ctx)
    }

    /// [`MachineModel::clean_time_s`] at a prepared operating point.
    pub fn clean_time_at(&self, shape: &TaskShape, op: &OpPoint, ctx: &ExecContext) -> f64 {
        self.times_at(shape, op, ctx).1
    }

    /// Execute a task: the full measured sample at one configuration.
    ///
    /// `keys` identifies the measurement context (task uid, invocation count,
    /// configuration) for deterministic noise.
    // The oracle call mirrors the paper's knob tuple <shape, TC, NC, fC, fM>
    // plus interference context and noise keys; bundling them would obscure it.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        shape: &TaskShape,
        tc: CoreType,
        nc: usize,
        fc_ghz: f64,
        fm_ghz: f64,
        ctx: &ExecContext,
        keys: &[u64],
    ) -> ExecSample {
        self.execute_at(shape, &self.op_point(tc, nc, fc_ghz, fm_ghz), ctx, keys)
    }

    /// [`MachineModel::execute`] at a prepared operating point.
    pub fn execute_at(
        &self,
        shape: &TaskShape,
        op: &OpPoint,
        ctx: &ExecContext,
        keys: &[u64],
    ) -> ExecSample {
        debug_assert!(shape.is_valid(), "invalid task shape {shape:?}");
        debug_assert!(op.nc >= 1);
        let (t_stall, t_clean) = self.times_at(shape, op, ctx);
        let mb = if t_clean > 0.0 {
            t_stall / t_clean
        } else {
            0.0
        };

        // Time, CPU-power and memory-power noise for this context.
        let [f_time, f_cpu, f_mem] = self.noise.factors3(keys);
        let duration_s = t_clean * f_time;

        // CPU dynamic power: switching power scales with V^2*f and droops
        // while stalled; the active-base term is paid by every active core
        // regardless of frequency (uncore/fabric).
        let cl = self.spec.cluster(op.tc);
        let v = op.volt;
        let activity = (1.0 - mb) + STALL_ACTIVITY * mb;
        let cpu_dyn =
            op.nc as f64 * (cl.c_dyn * v * v * op.fc_ghz * activity + cl.active_base_w) * f_cpu;

        // Memory dynamic power: per-byte energy at the achieved bandwidth.
        let achieved_bw = if t_clean > 0.0 {
            shape.bytes_gb / t_clean
        } else {
            0.0
        };
        let mem_dyn = op.mem_e_gb * achieved_bw * f_mem;

        ExecSample {
            duration: Duration::from_secs_f64(duration_s),
            cpu_dyn_w: cpu_dyn,
            mem_dyn_w: mem_dyn,
            true_mb: mb,
        }
    }

    /// Idle power of one powered-on core of cluster `tc` at frequency
    /// `fc_ghz` (leakage scales with `V^2`).
    pub fn cpu_idle_w_per_core(&self, tc: CoreType, fc_ghz: f64) -> f64 {
        let cl = self.spec.cluster(tc);
        let v = self.spec.voltage(tc, fc_ghz);
        cl.idle_w_per_core * (v / cl.v_max).powi(2)
    }

    /// Idle power of a whole cluster at frequency `fc_ghz`.
    pub fn cluster_idle_w(&self, tc: CoreType, fc_ghz: f64) -> f64 {
        self.cpu_idle_w_per_core(tc, fc_ghz) * self.spec.cluster(tc).n_cores as f64
    }

    /// Memory background (idle) power at memory frequency `fm_ghz`: refresh,
    /// PHY and controller power that is paid whenever the rail is up.
    pub fn mem_idle_w(&self, fm_ghz: f64) -> f64 {
        let fm_rel = fm_ghz / self.spec.fm_max_ghz();
        self.spec.mem_bg_w_min + self.spec.mem_bg_w_span * fm_rel * fm_rel
    }

    /// Total platform idle power with both clusters at the given frequencies.
    pub fn platform_idle_w(&self, fc_big_ghz: f64, fc_little_ghz: f64, fm_ghz: f64) -> f64 {
        self.cluster_idle_w(CoreType::Big, fc_big_ghz)
            + self.cluster_idle_w(CoreType::Little, fc_little_ghz)
            + self.mem_idle_w(fm_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MachineModel {
        MachineModel::tx2_noiseless()
    }

    fn max_cfg(m: &MachineModel) -> (f64, f64) {
        (m.spec.fc_max_ghz(), m.spec.fm_max_ghz())
    }

    #[test]
    fn compute_time_scales_with_frequency() {
        let m = m();
        let s = TaskShape::new(1.0, 0.0);
        let t_hi = m.compute_time_s(&s, CoreType::Big, 1, 2.035);
        let t_lo = m.compute_time_s(&s, CoreType::Big, 1, 1.0175);
        assert!(
            (t_lo / t_hi - 2.0).abs() < 1e-9,
            "compute time must scale ~linearly with fC"
        );
    }

    #[test]
    fn big_core_beats_little_on_compute() {
        let m = m();
        let s = TaskShape::new(1.0, 0.001);
        let (fc, fm) = max_cfg(&m);
        let ctx = ExecContext::default();
        let tb = m.clean_time_s(&s, CoreType::Big, 1, fc, fm, &ctx);
        let tl = m.clean_time_s(&s, CoreType::Little, 1, fc, fm, &ctx);
        let ratio = tl / tb;
        assert!(
            ratio > 2.5 && ratio < 4.5,
            "big/little compute ratio {ratio} out of TX2 range"
        );
    }

    #[test]
    fn stall_time_drops_with_memory_frequency() {
        let m = m();
        let s = TaskShape::new(0.001, 1.0);
        let ctx = ExecContext::default();
        let t_hi = m.stall_time_s(&s, CoreType::Big, 2, 2.035, 1.866, &ctx);
        let t_lo = m.stall_time_s(&s, CoreType::Big, 2, 2.035, 0.800, &ctx);
        assert!(t_lo > t_hi, "lower fM must increase stall time");
    }

    #[test]
    fn stall_time_depends_on_core_frequency() {
        // Core frequency changes the issue rate, hence stall time (paper §4.2).
        let m = m();
        let s = TaskShape::new(0.001, 1.0);
        let ctx = ExecContext::default();
        let t_hi = m.stall_time_s(&s, CoreType::Big, 1, 2.035, 1.866, &ctx);
        let t_lo = m.stall_time_s(&s, CoreType::Big, 1, 0.345, 1.866, &ctx);
        assert!(
            t_lo > t_hi * 1.5,
            "low fC should throttle memory issue rate"
        );
    }

    #[test]
    fn true_mb_separates_task_classes() {
        let m = m();
        let ctx = ExecContext::default();
        let (fc, fm) = max_cfg(&m);
        // MM-like tile: high ops/byte.
        let mm = TaskShape::new(0.0335, 0.0016);
        // MC-like copy: low ops/byte.
        let mc = TaskShape::new(0.0335, 0.268);
        let smm = m.execute(&mm, CoreType::Big, 1, fc, fm, &ctx, &[1]);
        let smc = m.execute(&mc, CoreType::Big, 1, fc, fm, &ctx, &[2]);
        assert!(
            smm.true_mb < 0.15,
            "MM tile should be compute-bound, mb={}",
            smm.true_mb
        );
        assert!(
            smc.true_mb > 0.6,
            "MC tile should be memory-bound, mb={}",
            smc.true_mb
        );
    }

    #[test]
    fn cpu_power_increases_with_frequency_and_cores() {
        let m = m();
        let s = TaskShape::new(1.0, 0.01);
        let ctx = ExecContext::default();
        let p1 = m
            .execute(&s, CoreType::Little, 1, 1.113, 1.866, &ctx, &[3])
            .cpu_dyn_w;
        let p2 = m
            .execute(&s, CoreType::Little, 2, 1.113, 1.866, &ctx, &[3])
            .cpu_dyn_w;
        let p_hi = m
            .execute(&s, CoreType::Little, 1, 2.035, 1.866, &ctx, &[3])
            .cpu_dyn_w;
        assert!(p2 > p1 * 1.8, "two cores should draw ~2x power");
        assert!(p_hi > p1 * 2.0, "V^2*f scaling should be superlinear in f");
    }

    #[test]
    fn cpu_rail_power_in_tx2_range() {
        // Paper Fig. 5a: 2 little cores at max config draw < ~2 W on the CPU rail.
        let m = m();
        let compute = TaskShape::new(1.0, 0.0001);
        let ctx = ExecContext::default();
        let (fc, fm) = max_cfg(&m);
        let p = m
            .execute(&compute, CoreType::Little, 2, fc, fm, &ctx, &[4])
            .cpu_dyn_w
            + m.cluster_idle_w(CoreType::Little, fc);
        assert!(p > 0.5 && p < 2.5, "little x2 max power {p} out of range");
    }

    #[test]
    fn mem_power_increases_with_bandwidth_and_fm() {
        let m = m();
        let stream = TaskShape::new(0.001, 1.0);
        let compute = TaskShape::new(1.0, 0.0001);
        let ctx = ExecContext::default();
        let (fc, fm) = max_cfg(&m);
        let p_stream = m
            .execute(&stream, CoreType::Big, 2, fc, fm, &ctx, &[5])
            .mem_dyn_w;
        let p_compute = m
            .execute(&compute, CoreType::Big, 2, fc, fm, &ctx, &[5])
            .mem_dyn_w;
        assert!(
            p_stream > 5.0 * p_compute.max(1e-9),
            "streaming harder on memory rail"
        );
        let idle_hi = m.mem_idle_w(1.866);
        let idle_lo = m.mem_idle_w(0.800);
        assert!(idle_hi > idle_lo, "memory background power grows with fM");
    }

    #[test]
    fn contention_bites_only_past_saturation() {
        let m = m();
        let s = TaskShape::new(0.001, 1.0);
        let (fc, fm) = max_cfg(&m);
        let alone = m.clean_time_s(&s, CoreType::Little, 1, fc, fm, &ExecContext::alone());
        // 4 GB/s of background traffic: total demand still below the 28 GB/s
        // supply, so only mild slowdown (the slack shrinks).
        let light = m.clean_time_s(
            &s,
            CoreType::Little,
            1,
            fc,
            fm,
            &ExecContext {
                other_demand_gbs: 4.0,
            },
        );
        // 40 GB/s of background traffic: saturated, proportional sharing.
        let heavy = m.clean_time_s(
            &s,
            CoreType::Little,
            1,
            fc,
            fm,
            &ExecContext {
                other_demand_gbs: 40.0,
            },
        );
        assert!(
            light < heavy,
            "saturation must hurt more than light sharing"
        );
        assert!(
            heavy > 1.5 * alone,
            "heavy contention must slow streaming tasks"
        );
        assert!(light < 1.3 * alone, "light sharing must be near-free");
    }

    #[test]
    fn moldable_scaling_follows_alpha() {
        let m = m();
        let s = TaskShape::new(1.0, 0.0).with_scalability(1.0);
        let t1 = m.compute_time_s(&s, CoreType::Little, 1, 1.0);
        let t4 = m.compute_time_s(&s, CoreType::Little, 4, 1.0);
        assert!((t1 / t4 - 4.0).abs() < 1e-9, "alpha=1 is linear speedup");
        let s0 = s.with_scalability(0.0);
        let t1n = m.compute_time_s(&s0, CoreType::Little, 1, 1.0);
        let t4n = m.compute_time_s(&s0, CoreType::Little, 4, 1.0);
        assert!((t1n - t4n).abs() < 1e-12, "alpha=0 gains nothing");
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let noisy = MachineModel::tx2(42);
        let clean = MachineModel::tx2_noiseless();
        let s = TaskShape::new(0.1, 0.01);
        let ctx = ExecContext::default();
        let (fc, fm) = max_cfg(&clean);
        let a = noisy.execute(&s, CoreType::Big, 1, fc, fm, &ctx, &[7, 1]);
        let b = clean.execute(&s, CoreType::Big, 1, fc, fm, &ctx, &[7, 1]);
        let rel =
            (a.duration.as_secs_f64() - b.duration.as_secs_f64()).abs() / b.duration.as_secs_f64();
        assert!(rel < 0.15, "time noise should be small, rel={rel}");
        assert_ne!(a.duration, b.duration);
    }

    #[test]
    fn idle_power_drops_with_voltage() {
        let m = m();
        let hi = m.cluster_idle_w(CoreType::Big, 2.035);
        let lo = m.cluster_idle_w(CoreType::Big, 0.345);
        assert!(lo < hi, "idle power scales with V^2");
        assert!(lo > 0.0);
    }

    #[test]
    fn ops_per_byte_reflects_intensity() {
        assert!(
            TaskShape::new(1.0, 0.001).ops_per_byte() > TaskShape::new(0.001, 1.0).ops_per_byte()
        );
        assert_eq!(TaskShape::new(1.0, 0.0).ops_per_byte(), f64::INFINITY);
    }
}
