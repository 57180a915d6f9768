//! Property-based tests (proptest) on the core invariants of the stack.

use joss_core::engine::{EngineConfig, SimEngine};
use joss_core::sched::{GrwsSched, ModelSched};
use joss_dag::{generators, KernelSpec};
use joss_experiments::ExperimentContext;
use joss_models::{
    estimate_mb, exhaustive_search, steepest_descent_search, EnergyEstimator, IdleTables,
    KernelTables, Objective,
};
use joss_platform::{
    ConfigSpace, CoreType, Duration, DvfsController, DvfsDomain, ExecContext, FreqIndex,
    MachineModel, SimTime, TaskShape,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn shared_ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_reps(42, 2))
}

fn arb_shape() -> impl Strategy<Value = TaskShape> {
    (1e-6f64..0.5, 1e-6f64..0.5, 0.0f64..=1.0).prop_map(|(w, b, a)| TaskShape {
        work_gops: w,
        bytes_gb: b,
        scal_alpha: a,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The machine oracle produces physical measurements for any shape and
    /// configuration: positive time, non-negative powers, MB in [0, 1].
    #[test]
    fn machine_outputs_are_physical(
        shape in arb_shape(),
        tc_big in any::<bool>(),
        nc in 1usize..=4,
        fc in 0usize..5,
        fm in 0usize..3,
        seed in 0u64..1000,
    ) {
        let m = MachineModel::tx2(seed);
        let tc = if tc_big { CoreType::Big } else { CoreType::Little };
        let nc = nc.min(m.spec.cluster(tc).n_cores);
        let s = m.execute(
            &shape,
            tc,
            nc,
            m.spec.cpu_freqs_ghz[fc],
            m.spec.mem_freqs_ghz[fm],
            &ExecContext::alone(),
            &[seed, fc as u64, fm as u64],
        );
        prop_assert!(s.duration.as_secs_f64() > 0.0);
        prop_assert!(s.cpu_dyn_w >= 0.0 && s.cpu_dyn_w.is_finite());
        prop_assert!(s.mem_dyn_w >= 0.0 && s.mem_dyn_w.is_finite());
        prop_assert!((0.0..=1.0).contains(&s.true_mb));
    }

    /// More work never runs faster; higher memory frequency never runs
    /// slower (noise-free monotonicity).
    #[test]
    fn time_is_monotone(shape in arb_shape(), extra in 1e-6f64..0.5) {
        let m = MachineModel::tx2_noiseless();
        let ectx = ExecContext::alone();
        let (fc, fm_hi, fm_lo) = (2.035, 1.866, 0.800);
        let t = m.clean_time_s(&shape, CoreType::Big, 1, fc, fm_hi, &ectx);
        let mut bigger = shape;
        bigger.work_gops += extra;
        let t_big = m.clean_time_s(&bigger, CoreType::Big, 1, fc, fm_hi, &ectx);
        prop_assert!(t_big >= t);
        let t_slow_mem = m.clean_time_s(&shape, CoreType::Big, 1, fc, fm_lo, &ectx);
        prop_assert!(t_slow_mem >= t);
    }

    /// Eq. 3's MB estimate is always in [0, 1] for positive sample times.
    #[test]
    fn mb_estimate_is_clamped(t_ref in 1e-9f64..10.0, t_alt in 1e-9f64..10.0) {
        let mb = estimate_mb(t_ref, 2.035, t_alt, 1.113);
        prop_assert!((0.0..=1.0).contains(&mb));
    }

    /// DVFS controller timeline is consistent: after the last request's
    /// effective time, the frequency equals the last requested target.
    #[test]
    fn dvfs_controller_settles(targets in proptest::collection::vec(0usize..5, 1..10)) {
        let mut c = DvfsController::new(
            DvfsDomain::ClusterBig,
            FreqIndex(4),
            Duration::from_micros(100),
        );
        let mut t = SimTime::ZERO;
        let mut last_effective = SimTime::ZERO;
        for &target in &targets {
            t += Duration::from_micros(37);
            let r = c.request(FreqIndex(target), t);
            last_effective = last_effective.max(r.effective_at);
        }
        let settle = last_effective + Duration::from_micros(1);
        prop_assert_eq!(c.freq_at(settle), c.settled_freq());
        prop_assert_eq!(c.settled_freq(), FreqIndex(*targets.last().unwrap()));
    }

    /// Pruning a controller at every transition's effective time, as the
    /// engine does on each DVFS event, never changes an answer: for a
    /// monotone stream of requests and queries (queries at or after the
    /// current time), the pruned controller matches an unpruned one. So
    /// does one pruned at every step's current time, between effective
    /// times.
    #[test]
    fn dvfs_pruning_preserves_answers(
        // (time step µs, target index or >= 5 for a query-only step,
        // query look-ahead µs)
        steps in proptest::collection::vec((0u64..300, 0usize..8, 0u64..500), 1..60),
    ) {
        let fresh = || {
            DvfsController::new(DvfsDomain::Memory, FreqIndex(4), Duration::from_micros(100))
        };
        let mut full = fresh();
        let mut pruned = [fresh(), fresh()];
        let mut pending = std::collections::VecDeque::new();
        let mut now = SimTime::ZERO;
        for &(dt, target, ahead) in &steps {
            now += Duration::from_micros(dt);
            // Deliver every transition that took effect by now, in order.
            while pending.front().is_some_and(|&at| at <= now) {
                pruned[0].prune_before(pending.pop_front().expect("front checked"));
            }
            pruned[1].prune_before(now);
            if target < 5 {
                let r = full.request(FreqIndex(target), now);
                for c in &mut pruned {
                    prop_assert_eq!(c.request(FreqIndex(target), now), r);
                }
                if r.transitioned {
                    pending.push_back(r.effective_at);
                }
            }
            for c in &pruned {
                for at in [now, now + Duration::from_micros(ahead)] {
                    prop_assert_eq!(c.freq_at(at), full.freq_at(at));
                }
                prop_assert_eq!(c.settled_freq(), full.settled_freq());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random layered DAG drains completely under both a model-free and
    /// a model-based scheduler, with positive energy and monotone virtual
    /// time.
    #[test]
    fn random_dags_always_drain(
        layers in 2usize..10,
        width in 1usize..8,
        dag_seed in 0u64..500,
        engine_seed in 0u64..500,
        w in 1e-5f64..0.05,
        b in 1e-5f64..0.05,
    ) {
        let ctx = shared_ctx();
        let kernel = KernelSpec::new("k", TaskShape::new(w, b));
        let graph = generators::random_layered("prop", kernel, layers, width, dag_seed);
        let n = graph.n_tasks();
        let cfg = EngineConfig { seed: engine_seed, ..EngineConfig::default() };

        let mut grws = GrwsSched::new();
        let r1 = SimEngine::run(&ctx.machine, &graph, &mut grws, cfg.clone());
        prop_assert_eq!(r1.tasks, n);
        prop_assert!(r1.total_j() > 0.0);

        let mut joss = ModelSched::joss(ctx.models.clone());
        let r2 = SimEngine::run(&ctx.machine, &graph, &mut joss, cfg);
        prop_assert_eq!(r2.tasks, n);
        prop_assert!(r2.total_j() > 0.0);
        // The sampled sensor must roughly agree with exact integration —
        // meaningful only once the makespan spans many 5 ms sensor periods.
        if r2.energy.makespan_s > 0.5 {
            prop_assert!(r2.energy.sampling_rel_error() < 0.25);
        }
    }

    /// Steepest descent never needs more evaluations than exhaustive search
    /// and never returns a config outside the admissible width.
    #[test]
    fn steepest_descent_is_cheaper_and_admissible(
        w in 1e-4f64..0.2,
        b in 1e-4f64..0.2,
        max_width in 1usize..=4,
        conc in 1.0f64..6.0,
    ) {
        let ctx = shared_ctx();
        let shape = TaskShape::new(w, b);
        let ectx = ExecContext::alone();
        let samples: Vec<Option<(f64, f64)>> = ctx
            .models
            .indexer()
            .iter()
            .map(|(tc, nc)| {
                let width = ctx.space.nc_count(tc, nc);
                if width > max_width {
                    return None;
                }
                Some((
                    ctx.machine.clean_time_s(
                        &shape, tc, width,
                        ctx.models.fc_ref_ghz(), ctx.models.fm_ref_ghz(), &ectx),
                    ctx.machine.clean_time_s(
                        &shape, tc, width,
                        ctx.models.fc_alt_ghz(), ctx.models.fm_ref_ghz(), &ectx),
                ))
            })
            .collect();
        let tables = ctx.models.build_kernel_tables(&samples);
        let est = EnergyEstimator {
            space: &ctx.space,
            tables: &tables,
            idle: &ctx.models.idle,
            objective: Objective::TotalEnergy,
            concurrency: conc,
            max_width,
        };
        let ex = exhaustive_search(&est, true);
        let sd = steepest_descent_search(&est, true);
        prop_assert!(sd.stats.evaluations <= ex.stats.evaluations);
        prop_assert!(ctx.space.nc_count(sd.config.tc, sd.config.nc) <= max_width);
        prop_assert!(ctx.space.nc_count(ex.config.tc, ex.config.nc) <= max_width);
        // Local search can miss the global optimum but not by much on these
        // landscapes.
        prop_assert!(sd.energy_j <= ex.energy_j * 1.5);
    }

    /// Lookup tables built from valid samples contain positive, finite times
    /// at every admissible cell.
    #[test]
    fn kernel_tables_are_finite(w in 1e-4f64..0.2, b in 1e-4f64..0.2) {
        let ctx = shared_ctx();
        let shape = TaskShape::new(w, b);
        let ectx = ExecContext::alone();
        let samples: Vec<Option<(f64, f64)>> = ctx
            .models
            .indexer()
            .iter()
            .map(|(tc, nc)| {
                let width = ctx.space.nc_count(tc, nc);
                Some((
                    ctx.machine.clean_time_s(
                        &shape, tc, width,
                        ctx.models.fc_ref_ghz(), ctx.models.fm_ref_ghz(), &ectx),
                    ctx.machine.clean_time_s(
                        &shape, tc, width,
                        ctx.models.fc_alt_ghz(), ctx.models.fm_ref_ghz(), &ectx),
                ))
            })
            .collect();
        let tables: KernelTables = ctx.models.build_kernel_tables(&samples);
        for cfg in ctx.space.iter_all() {
            prop_assert!(tables.time_s(cfg) > 0.0 && tables.time_s(cfg).is_finite());
            prop_assert!(tables.cpu_w(cfg) >= 0.0);
            prop_assert!(tables.mem_w(cfg) >= 0.0);
        }
        let _ = IdleTables::measure(&ctx.machine, &ctx.space);
        let _: &ConfigSpace = &ctx.space;
    }
}
