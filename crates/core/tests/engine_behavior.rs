//! Direct behavioural tests of the discrete-event engine: moldable
//! execution, frequency coordination, DVFS pinning and rescaling, stealing
//! restrictions, and idle-power accounting.

use joss_core::engine::{EngineConfig, SimEngine};
use joss_core::placement::{ExecutedSample, Placement};
use joss_core::sched::{SchedCtx, Scheduler};
use joss_core::Coordination;
use joss_dag::{generators, KernelSpec, TaskGraphBuilder, TaskId};
use joss_platform::{CoreType, FreqIndex, MachineModel, TaskShape};
use std::cell::RefCell;
use std::rc::Rc;

/// A scriptable scheduler: one fixed placement, plus a log of completions.
struct Probe {
    placement: Placement,
    samples: Rc<RefCell<Vec<ExecutedSample>>>,
}

impl Scheduler for Probe {
    fn name(&self) -> &str {
        "Probe"
    }
    fn place(&mut self, _ctx: &mut SchedCtx<'_>, _task: TaskId) -> Placement {
        self.placement
    }
    fn task_completed(&mut self, _ctx: &mut SchedCtx<'_>, sample: &ExecutedSample) {
        self.samples.borrow_mut().push(*sample);
    }
}

fn machine() -> MachineModel {
    MachineModel::tx2(11)
}

fn run_probe(
    graph: &joss_dag::TaskGraph,
    placement: Placement,
    coordination: Coordination,
) -> (joss_core::RunReport, Vec<ExecutedSample>) {
    let machine = machine();
    let samples = Rc::new(RefCell::new(Vec::new()));
    let mut sched = Probe {
        placement,
        samples: samples.clone(),
    };
    let cfg = EngineConfig {
        coordination,
        ..EngineConfig::default()
    };
    let report = SimEngine::run(&machine, graph, &mut sched, cfg);
    let out = samples.borrow().clone();
    (report, out)
}

#[test]
fn moldable_tasks_achieve_requested_width() {
    // Sequential moldable tasks on the little cluster: each should gather
    // all four cores (reservation guarantees width once cores free up).
    let g = generators::chain(
        "chain",
        KernelSpec::new("k", TaskShape::new(0.02, 0.002)),
        20,
    );
    let (_, samples) = run_probe(
        &g,
        Placement::on(CoreType::Little, 4),
        Coordination::Average,
    );
    assert_eq!(samples.len(), 20);
    assert!(
        samples.iter().all(|s| s.width == 4),
        "sequential moldable tasks must get full width: {:?}",
        samples.iter().map(|s| s.width).collect::<Vec<_>>()
    );
    assert!(samples.iter().all(|s| s.tc == CoreType::Little));
}

#[test]
fn moldable_width_caps_at_cluster_size() {
    let g = generators::chain(
        "chain",
        KernelSpec::new("k", TaskShape::new(0.01, 0.001)),
        5,
    );
    let (_, samples) = run_probe(&g, Placement::on(CoreType::Big, 64), Coordination::Average);
    assert!(
        samples.iter().all(|s| s.width == 2),
        "big cluster has two cores"
    );
}

#[test]
fn kernel_max_width_is_respected() {
    let mut b = TaskGraphBuilder::new();
    let k = b.add_kernel(KernelSpec::new("rigid", TaskShape::new(0.01, 0.001)).rigid());
    for _ in 0..8 {
        b.add_task(k, &[]).unwrap();
    }
    let g = b.build("rigid_bag").unwrap();
    let (_, samples) = run_probe(
        &g,
        Placement::on(CoreType::Little, 4),
        Coordination::Average,
    );
    assert!(
        samples.iter().all(|s| s.width == 1),
        "rigid kernels never mold"
    );
}

#[test]
fn pinned_frequency_tasks_start_at_target() {
    // Pin far from the initial (max) frequency: the engine must delay the
    // start until the transition lands, so fc_start == target and clean.
    let g = generators::chain(
        "chain",
        KernelSpec::new("k", TaskShape::new(0.01, 0.001)),
        10,
    );
    let (_, samples) = run_probe(
        &g,
        Placement::pinned(CoreType::Big, 1, FreqIndex(0), FreqIndex(0)),
        Coordination::Average,
    );
    for s in &samples {
        assert_eq!(s.fc_start, FreqIndex(0));
        assert_eq!(s.fm_start, FreqIndex(0));
        assert!(s.is_clean(), "sequential pins cannot be perturbed");
    }
}

#[test]
fn throttled_requests_reach_the_controller() {
    let g = generators::chain(
        "chain",
        KernelSpec::new("k", TaskShape::new(0.02, 0.002)),
        6,
    );
    let (report, samples) = run_probe(
        &g,
        Placement::throttled(CoreType::Big, 1, FreqIndex(2), FreqIndex(1)),
        Coordination::Average,
    );
    assert!(
        report.dvfs_transitions >= 2,
        "fc and fm transitions must happen"
    );
    // After the first task triggers the transition, later tasks observe it.
    let last = samples.last().unwrap();
    assert_eq!(last.fc_start, FreqIndex(2));
    assert_eq!(last.fm_start, FreqIndex(1));
}

#[test]
fn coordination_none_vs_average_changes_transition_count() {
    // Two kernels demanding opposite frequencies on one cluster: without
    // coordination the controller thrashes; averaging converges.
    let mut b = TaskGraphBuilder::new();
    let hot = b.add_kernel(KernelSpec::new("hot", TaskShape::new(0.02, 0.001)));
    let cold = b.add_kernel(KernelSpec::new("cold", TaskShape::new(0.02, 0.001)));
    for _ in 0..40 {
        b.add_task(hot, &[]).unwrap();
        b.add_task(cold, &[]).unwrap();
    }
    let g = b.build("conflict").unwrap();

    struct TwoFreq;
    impl Scheduler for TwoFreq {
        fn name(&self) -> &str {
            "TwoFreq"
        }
        fn place(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Placement {
            let hot = ctx.graph.kernel_of(task).index() == 0;
            let fc = if hot { FreqIndex(4) } else { FreqIndex(0) };
            Placement::throttled(CoreType::Little, 1, fc, FreqIndex(2))
        }
    }

    let machine = machine();
    let mut s1 = TwoFreq;
    let none = SimEngine::run(
        &machine,
        &g,
        &mut s1,
        EngineConfig {
            coordination: Coordination::None,
            ..EngineConfig::default()
        },
    );
    let mut s2 = TwoFreq;
    let avg = SimEngine::run(
        &machine,
        &g,
        &mut s2,
        EngineConfig {
            coordination: Coordination::Average,
            ..EngineConfig::default()
        },
    );
    // The §5.3 interference: with no coordination the cluster ping-pongs
    // between the extreme frequencies, so co-running tasks repeatedly land
    // on the 0.345 GHz floor and the application slows down. Averaging
    // keeps the cluster near the middle of the ladder and finishes faster.
    eprintln!(
        "none: {} transitions, makespan {:.4}s; avg: {} transitions, makespan {:.4}s",
        none.dvfs_transitions, none.energy.makespan_s, avg.dvfs_transitions, avg.energy.makespan_s
    );
    assert_eq!(none.tasks, g.n_tasks());
    assert_eq!(avg.tasks, g.n_tasks());
    assert!(
        none.dvfs_transitions > 0,
        "conflicting pins must transition"
    );
    assert!(
        avg.energy.makespan_s < none.energy.makespan_s,
        "averaging must mitigate the slow-extreme dwell time: {:.4} vs {:.4}",
        avg.energy.makespan_s,
        none.energy.makespan_s
    );
}

#[test]
fn typed_tasks_never_run_on_the_other_cluster() {
    let g = generators::independent("bag", KernelSpec::new("k", TaskShape::new(0.01, 0.001)), 64);
    let (report, samples) = run_probe(&g, Placement::on(CoreType::Big, 1), Coordination::Average);
    assert!(samples.iter().all(|s| s.tc == CoreType::Big));
    assert_eq!(report.tasks_per_type[CoreType::Little.index()], 0);
    // With only 2 big cores and 64 independent tasks, stealing must occur
    // between the two big cores' queues.
    assert!(report.steals > 0);
}

#[test]
fn untyped_tasks_use_both_clusters() {
    let g = generators::independent("bag", KernelSpec::new("k", TaskShape::new(0.01, 0.001)), 64);
    let (report, _) = run_probe(&g, Placement::anywhere(), Coordination::Average);
    assert!(report.tasks_per_type[0] > 0 && report.tasks_per_type[1] > 0);
}

#[test]
fn competing_molds_time_out_and_launch_degraded() {
    // Two long width-1 little tasks occupy cores while two width-3 molds
    // gather: the molds split the remaining little cores between their
    // reservations, neither fills, and when the first mold launches (fed by
    // the finishing long tasks) the second one's patience deadline — set
    // when it started gathering — fires mid-run and launches it degraded.
    let mut b = TaskGraphBuilder::new();
    let long = b.add_kernel(KernelSpec::new("long", TaskShape::new(0.02, 0.001)));
    let mold = b.add_kernel(KernelSpec::new("mold", TaskShape::new(0.02, 0.001)));
    for _ in 0..2 {
        b.add_task(long, &[]).unwrap();
    }
    for _ in 0..2 {
        b.add_task(mold, &[]).unwrap();
    }
    let g = b.build("compete").unwrap();

    struct MixedWidth;
    impl Scheduler for MixedWidth {
        fn name(&self) -> &str {
            "MixedWidth"
        }
        fn place(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Placement {
            if ctx.graph.kernel_of(task).index() == 0 {
                Placement::on(CoreType::Little, 1)
            } else {
                Placement::on(CoreType::Little, 3)
            }
        }
    }
    let machine = machine();
    let mut sched = MixedWidth;
    let report = SimEngine::run(&machine, &g, &mut sched, EngineConfig::default());
    assert_eq!(report.tasks, 4);
    assert!(
        report.mold_timeouts >= 1,
        "a gathering mold must run out of patience (got {})",
        report.mold_timeouts
    );
}

#[test]
fn sched_ctx_mirrors_stay_consistent_through_steals() {
    // The per-core queue-length/busy slices and the running-task counter
    // are maintained incrementally; this probe cross-checks their
    // invariants at every scheduler callback of a steal- and mold-heavy
    // run (they cannot be compared against the queues directly from here,
    // but violations of these invariants are what drift looks like).
    #[derive(Default)]
    struct Auditor {
        placed: usize,
        completed: usize,
        callbacks: usize,
    }
    impl Auditor {
        fn audit(&mut self, ctx: &SchedCtx<'_>) {
            self.callbacks += 1;
            let n = ctx.core_tc.len();
            assert_eq!(ctx.queue_lens.len(), n);
            assert_eq!(ctx.core_busy.len(), n);
            let busy = ctx.core_busy.iter().filter(|&&b| b).count();
            assert!(
                busy >= ctx.running_tasks,
                "each running task occupies at least one core ({} busy, {} running)",
                busy,
                ctx.running_tasks
            );
            if ctx.running_tasks == 0 {
                assert_eq!(busy, 0, "no running tasks but busy cores");
            }
            let queued: usize = ctx.queue_lens.iter().sum();
            assert!(
                queued + ctx.running_tasks + self.completed <= self.placed + ctx.running_tasks,
                "more work visible than ever placed"
            );
        }
    }
    impl Scheduler for Auditor {
        fn name(&self) -> &str {
            "Auditor"
        }
        fn place(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Placement {
            self.audit(ctx);
            self.placed += 1;
            // Mixed widths and types keep molds, steals and re-routing busy.
            match task.0 % 3 {
                0 => Placement::anywhere(),
                1 => Placement::on(CoreType::Little, 2),
                _ => Placement::on(CoreType::Big, 1),
            }
        }
        fn revise(
            &mut self,
            ctx: &mut SchedCtx<'_>,
            _task: TaskId,
            current: Placement,
        ) -> Placement {
            self.audit(ctx);
            current
        }
        fn task_started(
            &mut self,
            ctx: &mut SchedCtx<'_>,
            _task: TaskId,
            core: usize,
            _stolen: bool,
        ) {
            self.audit(ctx);
            assert!(ctx.core_busy[core], "the leader core must be marked busy");
        }
        fn task_completed(&mut self, ctx: &mut SchedCtx<'_>, _sample: &ExecutedSample) {
            self.audit(ctx);
            self.completed += 1;
        }
    }
    let machine = machine();
    let g = generators::chain_bundle(
        "audit",
        KernelSpec::new("k", TaskShape::new(0.008, 0.002)),
        120,
        12,
    );
    let mut sched = Auditor::default();
    let report = SimEngine::run(&machine, &g, &mut sched, EngineConfig::default());
    assert_eq!(report.tasks, 120);
    assert_eq!(sched.completed, 120);
    assert!(report.steals > 0, "the audit run must exercise stealing");
    assert!(sched.callbacks > 400, "every callback path must be audited");
}

#[test]
fn arena_invariants_hold_through_steal_and_mold_heavy_runs() {
    // Debug builds audit the arena inside the event loop every 32 events
    // (`EngineArena::debug_validate`: queue links vs the `SchedCtx`
    // mirrors and the per-core steal counts, free-list accounting,
    // busy/running consistency). This test
    // drives that auditor through a steal- and mold-heavy workload, reuses
    // one arena across runs of different sizes the way `Campaign` workers
    // do, and audits the final state after each run drains.
    use joss_core::{CalendarQueue, EngineArena};
    use joss_platform::{ConfigSpace, PowerTables, SimTime};

    struct MixedWidths;
    impl Scheduler for MixedWidths {
        fn name(&self) -> &str {
            "MixedWidths"
        }
        fn place(&mut self, _ctx: &mut SchedCtx<'_>, task: TaskId) -> Placement {
            // Mixed widths and types keep molds gathering, queues deep,
            // and steals frequent.
            match task.0 % 4 {
                0 => Placement::anywhere(),
                1 => Placement::on(CoreType::Little, 3),
                2 => Placement::on(CoreType::Big, 2),
                _ => Placement::on(CoreType::Little, 1),
            }
        }
    }

    let machine = machine();
    let space = ConfigSpace::from_spec(&machine.spec);
    let idle = PowerTables::measure(&machine, &space);
    let mut arena = EngineArena::new();
    let mut total_steals = 0;
    for n in [40usize, 160, 80] {
        let g = generators::chain_bundle(
            "arena-audit",
            KernelSpec::new("k", TaskShape::new(0.008, 0.002)),
            n,
            10,
        );
        let report = SimEngine::run_with_arena(
            &machine,
            &g,
            &mut MixedWidths,
            EngineConfig::default(),
            &mut arena,
            &idle,
        );
        assert_eq!(report.tasks, n);
        total_steals += report.steals;
        // After a completed run every queue is empty and every slot freed;
        // the invariants must hold on this quiescent recycled state too.
        arena.debug_validate();
    }
    assert!(total_steals > 0, "the audit runs must exercise stealing");

    // The calendar queue rejects non-monotone pushes in debug builds —
    // the guard the engine's event stream is audited by.
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    q.push(SimTime(100), 1);
    assert_eq!(q.pop(), Some((SimTime(100), 1)));
    let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        q.push(SimTime(50), 2);
    }));
    assert!(
        past.is_err(),
        "pushing before the watermark must trip the debug guard"
    );
}

#[test]
fn energy_includes_idle_power_of_unused_cluster() {
    // Running only on the big cluster must still pay the little cluster's
    // idle power: compare against the analytic idle floor.
    let machine = machine();
    let g = generators::chain("chain", KernelSpec::new("k", TaskShape::new(0.1, 0.001)), 4);
    let samples = Rc::new(RefCell::new(Vec::new()));
    let mut sched = Probe {
        placement: Placement::on(CoreType::Big, 1),
        samples: samples.clone(),
    };
    let report = SimEngine::run(&machine, &g, &mut sched, EngineConfig::default());
    let fc_max = machine.spec.fc_max_ghz();
    let fm_max = machine.spec.fm_max_ghz();
    let idle_floor = (machine.cluster_idle_w(CoreType::Little, fc_max)
        + machine.cluster_idle_w(CoreType::Big, fc_max)
        + machine.mem_idle_w(fm_max))
        * report.energy.makespan_s;
    assert!(
        report.total_j() > idle_floor,
        "total energy {} must exceed the idle floor {}",
        report.total_j(),
        idle_floor
    );
}

#[test]
fn mid_run_transitions_mark_samples_perturbed() {
    // One long-running task starts; a second kernel immediately retunes the
    // cluster; the first task must be flagged perturbed.
    let mut b = TaskGraphBuilder::new();
    let long = b.add_kernel(KernelSpec::new("long", TaskShape::new(0.5, 0.01)));
    let short = b.add_kernel(KernelSpec::new("short", TaskShape::new(0.001, 0.0001)));
    let _t0 = b.add_task(long, &[]).unwrap();
    let _t1 = b.add_task(short, &[]).unwrap();
    let g = b.build("perturb").unwrap();

    struct Mixed;
    impl Scheduler for Mixed {
        fn name(&self) -> &str {
            "Mixed"
        }
        fn place(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Placement {
            if ctx.graph.kernel_of(task).index() == 0 {
                Placement::on(CoreType::Big, 1)
            } else {
                // Retune the big cluster while `long` runs (no coordination).
                Placement::pinned(CoreType::Big, 1, FreqIndex(0), FreqIndex(2))
            }
        }
    }
    let machine = machine();
    let samples = Rc::new(RefCell::new(Vec::new()));
    struct Recorder(Mixed, Rc<RefCell<Vec<ExecutedSample>>>);
    impl Scheduler for Recorder {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn place(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Placement {
            self.0.place(ctx, task)
        }
        fn task_completed(&mut self, _ctx: &mut SchedCtx<'_>, sample: &ExecutedSample) {
            self.1.borrow_mut().push(*sample);
        }
    }
    let mut sched = Recorder(Mixed, samples.clone());
    SimEngine::run(&machine, &g, &mut sched, EngineConfig::default());
    let samples = samples.borrow();
    let long_sample = samples.iter().find(|s| s.kernel.index() == 0).unwrap();
    assert!(
        long_sample.perturbed || long_sample.fc_start != long_sample.fc_end,
        "the long task must be visibly disturbed by the mid-run transition"
    );
}

#[test]
fn lower_frequency_reduces_power_but_stretches_time() {
    let g = generators::chain(
        "chain",
        KernelSpec::new("k", TaskShape::new(0.05, 0.001)),
        8,
    );
    let (fast, _) = run_probe(
        &g,
        Placement::pinned(CoreType::Big, 1, FreqIndex(4), FreqIndex(2)),
        Coordination::Average,
    );
    let (slow, _) = run_probe(
        &g,
        Placement::pinned(CoreType::Big, 1, FreqIndex(0), FreqIndex(2)),
        Coordination::Average,
    );
    assert!(slow.energy.makespan_s > 3.0 * fast.energy.makespan_s);
    let p_fast = fast.total_j() / fast.energy.makespan_s;
    let p_slow = slow.total_j() / slow.energy.makespan_s;
    assert!(
        p_slow < p_fast,
        "average power must drop at the low frequency"
    );
}

#[test]
fn trace_recording_captures_every_task_and_transition() {
    let machine = machine();
    let g = generators::chain_bundle(
        "traced",
        KernelSpec::new("k", TaskShape::new(0.01, 0.002)),
        30,
        4,
    );
    let samples = Rc::new(RefCell::new(Vec::new()));
    let mut sched = Probe {
        placement: Placement::throttled(CoreType::Big, 1, FreqIndex(2), FreqIndex(1)),
        samples,
    };
    let cfg = EngineConfig {
        record_trace: true,
        ..EngineConfig::default()
    };
    let report = SimEngine::run(&machine, &g, &mut sched, cfg);
    let trace = report.trace.as_ref().expect("trace recorded");
    assert_eq!(trace.tasks.len(), 30, "one span per task");
    assert!(!trace.dvfs.is_empty(), "throttling must leave DVFS marks");
    assert!((trace.makespan_s() - report.energy.makespan_s).abs() < 1e-6);
    // Spans are consistent: end after start, cores in range.
    for t in &trace.tasks {
        assert!(t.end_s > t.start_s);
        assert!(t.cores.iter().all(|&c| c < machine.spec.total_cores()));
    }
    let json = trace.to_chrome_json();
    assert!(json.contains("\"ph\":\"X\""));
    let ascii = trace.ascii_timeline(machine.spec.total_cores(), 60);
    assert_eq!(ascii.lines().count(), machine.spec.total_cores());
}

#[test]
fn coincident_completions_keep_their_schedule() {
    // Identical compute-only tasks on a noiseless machine finish at
    // identical instants, so a task often becomes ready on a core whose
    // own completion is due at that same instant. The engine skips the
    // `Wake` only for cores that complete strictly later; skipping it for
    // a core completing now reorders dispatch and changes every run below.
    // The pinned values were recorded from the engine before it skipped
    // any `Wake`.
    let machine = MachineModel::tx2_noiseless();
    let g = generators::random_layered(
        "coincident",
        KernelSpec::new("k", TaskShape::new(0.002, 0.0)),
        40,
        12,
        3,
    );
    let pinned: [(u64, u64); 4] = [
        (120, 0x3fd6b0c5348777ef),
        (114, 0x3fd7835b1a4cfaad),
        (128, 0x3fd6fc1f1b2fcf22),
        (131, 0x3fd7adadc25c94e8),
    ];
    for (seed, &(steals, total_j_bits)) in pinned.iter().enumerate() {
        let mut sched = joss_core::sched::GrwsSched::new();
        let r = SimEngine::run(
            &machine,
            &g,
            &mut sched,
            EngineConfig::with_seed(seed as u64),
        );
        assert_eq!(
            (r.steals, r.total_j().to_bits()),
            (steals, total_j_bits),
            "seed {seed}"
        );
    }
}
