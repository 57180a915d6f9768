//! Replays: per-call costs of layers that run inside the engine, where
//! the benchmark cannot wrap a call from outside. Each replay calls the
//! layer's public function over the kernel shapes of the workload's own
//! grids; the engine's counts (search evaluations, tasks) times these
//! per-call costs estimate each layer's share of spec time.

use crate::Report;
use joss_dag::KernelSpec;
use joss_models::{exhaustive_search, steepest_descent_search, EnergyEstimator, Objective};
use joss_platform::{CoreType, ExecContext};
use joss_sweep::ExperimentContext;
use joss_workloads::{fig8_bench, Scale};
use std::hint::black_box;
use std::time::Instant;

/// Set `workloads.build_s`, `models.search_ns`, and `platform.execute_ns`
/// from replays over the given grid labels at `scale`.
pub fn report(report: &mut Report, ctx: &ExperimentContext, labels: &[String], scale: Scale) {
    let (build_s, kernels) = build(labels, scale);
    report.set("workloads.build_s", build_s);
    report.set("models.search_ns", search_ns(ctx, &kernels));
    report.set("platform.execute_ns", execute_ns(ctx, &kernels));
}

/// Build every labelled workload at `scale` with `fig8_bench`, returning
/// the build time in seconds and the distinct kernels of the built graphs.
pub fn build(labels: &[String], scale: Scale) -> (f64, Vec<KernelSpec>) {
    let t0 = Instant::now();
    let built: Vec<_> = labels
        .iter()
        .map(|l| fig8_bench(l, scale).expect("benchmark labels come from fig8_labels"))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    let mut kernels: Vec<KernelSpec> = Vec::new();
    for b in &built {
        for k in b.graph.kernels() {
            if !kernels
                .iter()
                .any(|seen| seen.shape == k.shape && seen.max_width == k.max_width)
            {
                kernels.push(k.clone());
            }
        }
    }
    (secs, kernels)
}

/// Nanoseconds per configuration evaluation of the two model searches
/// (exhaustive, as STEER runs it, and steepest descent, as JOSS runs it),
/// each kernel's prediction tables built from clean model timings.
pub fn search_ns(ctx: &ExperimentContext, kernels: &[KernelSpec]) -> f64 {
    let models = &ctx.models;
    let ectx = ExecContext::alone();
    let mut evals = 0u64;
    let mut ns = 0u128;
    for k in kernels {
        let samples: Vec<Option<(f64, f64)>> = models
            .indexer()
            .iter()
            .map(|(tc, nc)| {
                let w = ctx.space.nc_count(tc, nc);
                let at = |fc| {
                    ctx.machine
                        .clean_time_s(&k.shape, tc, w, fc, models.fm_ref_ghz(), &ectx)
                };
                Some((at(models.fc_ref_ghz()), at(models.fc_alt_ghz())))
            })
            .collect();
        let tables = models.build_kernel_tables(&samples);
        let est = EnergyEstimator {
            space: &ctx.space,
            tables: &tables,
            idle: &models.idle,
            objective: Objective::TotalEnergy,
            concurrency: 2.0,
            max_width: k.max_width,
        };
        let t0 = Instant::now();
        for _ in 0..20 {
            evals += black_box(exhaustive_search(&est, true)).stats.evaluations;
            evals += black_box(steepest_descent_search(&est, true))
                .stats
                .evaluations;
        }
        ns += t0.elapsed().as_nanos();
    }
    ns as f64 / evals.max(1) as f64
}

/// Nanoseconds per `MachineModel::execute` call over every kernel at every
/// core type, width, and frequency pair of the configuration space.
pub fn execute_ns(ctx: &ExperimentContext, kernels: &[KernelSpec]) -> f64 {
    let space = &ctx.space;
    let ectx = ExecContext {
        other_demand_gbs: 1.0,
    };
    let mut calls = 0u64;
    let t0 = Instant::now();
    for (ki, k) in kernels.iter().enumerate() {
        for (ti, tc) in [CoreType::Big, CoreType::Little].into_iter().enumerate() {
            for &nc in &space.nc_options[ti] {
                for (fi, &fc) in space.cpu_freqs_ghz.iter().enumerate() {
                    for (mi, &fm) in space.mem_freqs_ghz.iter().enumerate() {
                        let keys = [ki as u64, ti as u64, nc as u64, fi as u64, mi as u64];
                        black_box(ctx.machine.execute(&k.shape, tc, nc, fc, fm, &ectx, &keys));
                        calls += 1;
                    }
                }
            }
        }
    }
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}
