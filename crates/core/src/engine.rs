//! The discrete-event execution engine: XiTAO-like task runtime over the
//! simulated platform.
//!
//! The engine owns per-core work queues, work stealing, moldable execution
//! (paper §5.3), the DVFS controllers, and exact power/energy accounting. A
//! [`Scheduler`](crate::sched::Scheduler) makes the policy decisions; the
//! engine provides the mechanisms:
//!
//! * ready tasks are placed in the work queue of a (randomly chosen) core of
//!   the scheduler-selected type, and may be stolen by other cores of a
//!   compatible type for load balancing;
//! * a moldable task (width > 1) recruits idle cores of the same type at
//!   start time and partitions its work across them; the last partition to
//!   finish completes the task and wakes dependents;
//! * frequency requests pass through the coordination heuristic when other
//!   tasks share the domain, then go to the (serializing) DVFS controllers;
//! * a DVFS transition landing mid-task rescales the remaining execution
//!   time of every affected task and updates its power draw;
//! * rail powers are piecewise-constant between events and integrated
//!   exactly; the INA3221-style sensor samples them every 5 ms in parallel.
//!
//! Hot-path layout (see `docs/ENGINE.md` for the full story): all per-run
//! mutable state lives in an [`EngineArena`] — struct-of-arrays task and
//! slot storage with intrusive per-core queues — events flow through a
//! [`CalendarQueue`](crate::equeue::CalendarQueue) that reproduces the
//! `(time, push order)` pop order of a binary heap, and idle rail power
//! and the machine laws' per-frequency factors come from precomputed
//! [`PowerTables`]. All of it is bit-exact against
//! the pre-arena engine: the golden-fixture suite in
//! `crates/sweep/tests/engine_equivalence.rs` is the gate.

use crate::arena::{EngineArena, QueuedTask, WaitingMold, NIL};
use crate::coordination::Coordination;
use crate::metrics::RunReport;
use crate::placement::{ExecutedSample, FreqCommand};
use crate::sched::{SchedCtx, Scheduler};
use crate::trace::{DvfsSpan, ExecTrace, TaskSpan};
use joss_dag::{TaskGraph, TaskId};
use joss_platform::{
    ConfigSpace, CoreType, Duration, DvfsController, DvfsDomain, EnergyAccount, ExecContext,
    FreqIndex, MachineModel, PowerSensor, PowerTables, PowerTrace, SimTime,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// RNG seed for core selection and steal-victim order.
    pub seed: u64,
    /// Frequency coordination heuristic (paper uses the arithmetic mean).
    pub coordination: Coordination,
    /// How long a moldable task waits for same-type cores to free up before
    /// starting with a degraded width, microseconds.
    pub mold_patience_us: u64,
    /// Record a full execution trace (task spans + DVFS transitions) into
    /// the run report.
    ///
    /// **Off by default, and keep it off for batch runs**: the trace holds
    /// one span per task, so memory grows linearly with task count (a
    /// full-scale FB run is ~57k spans), and it lives inside the returned
    /// [`RunReport`] for as long as the report does. Campaign executors
    /// (`joss-sweep`) hold every report of a grid in memory at once, so
    /// they force this off unless a spec opts in per-run.
    pub record_trace: bool,
    /// Deadlock/livelock guard: abort if virtual time exceeds this.
    pub max_virtual_time_s: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0xC0FFEE,
            coordination: Coordination::Average,
            mold_patience_us: 500,
            record_trace: false,
            max_virtual_time_s: 1.0e6,
        }
    }
}

impl EngineConfig {
    /// Default config with an explicit RNG seed — the one-field override
    /// every experiment run starts from.
    pub fn with_seed(seed: u64) -> Self {
        EngineConfig {
            seed,
            ..EngineConfig::default()
        }
    }
}

/// Event payloads. Ordering is owned by the calendar queue: events pop in
/// ascending `(SimTime, push order)` — FIFO within an identical timestamp,
/// with the kind never participating in the order (the push counter is
/// unique, so the tie-break never reaches it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// A core may have work to pick up.
    Wake { core: usize },
    /// A running task's partitions finish (all at once; the engine models
    /// the "last finisher" as this single completion point). `token` is
    /// unique per task occupancy *and* per rescale, so stale events can
    /// never complete a different (or rescaled) occupant of a reused slot.
    Done { slot: usize, token: u64 },
    /// A DVFS transition took effect; running tasks must be rescaled.
    Dvfs,
    /// A waiting moldable task ran out of patience gathering cores.
    MoldTimeout { mold: usize },
    /// Scheduler timer tick (e.g. Aequitas' 1 s time slices).
    Timer,
}

/// The simulation engine. Create one per run via [`SimEngine::run`], or
/// reuse an [`EngineArena`] across runs via [`SimEngine::run_with_arena`].
pub struct SimEngine;

impl SimEngine {
    /// Execute `graph` on `machine` under `scheduler`; returns the full
    /// measurement report.
    ///
    /// Convenience wrapper building a fresh [`EngineArena`] and
    /// [`PowerTables`] per run. Batch executors should build both once and
    /// call [`SimEngine::run_with_arena`] instead — the results are
    /// identical either way (the arena resets to a fresh state and the
    /// tables are a pure function of the machine).
    pub fn run(
        machine: &MachineModel,
        graph: &TaskGraph,
        scheduler: &mut dyn Scheduler,
        cfg: EngineConfig,
    ) -> RunReport {
        let space = ConfigSpace::from_spec(&machine.spec);
        let tables = PowerTables::measure(machine, &space);
        let mut arena = EngineArena::new();
        Self::run_with_arena(machine, graph, scheduler, cfg, &mut arena, &tables)
    }

    /// Execute `graph` reusing a caller-owned arena and precomputed ladder
    /// tables (`tables` must be [`PowerTables::measure`] of `machine` —
    /// `Campaign` workers pass the experiment context's tables).
    ///
    /// The arena is reset at the start of the run, so any arena works for
    /// any run; reusing one across many runs keeps the hot path free of
    /// per-run allocation (one arena per worker thread, not per spec).
    pub fn run_with_arena(
        machine: &MachineModel,
        graph: &TaskGraph,
        scheduler: &mut dyn Scheduler,
        cfg: EngineConfig,
        arena: &mut EngineArena,
        tables: &PowerTables,
    ) -> RunReport {
        let mut sim = Sim::new(machine, graph, cfg, arena, tables);
        sim.main_loop(scheduler);
        sim.into_report(scheduler, graph)
    }
}

struct Sim<'a> {
    machine: &'a MachineModel,
    space: ConfigSpace,
    graph: &'a TaskGraph,
    cfg: EngineConfig,

    now: SimTime,
    /// All reusable per-run state: SoA task/slot storage, intrusive
    /// queues, the calendar event queue, mirrors, scratch (see
    /// [`crate::arena`]).
    a: &'a mut EngineArena,
    /// Precomputed idle rail power and law factors per ladder index.
    tables: &'a PowerTables,

    next_token: u64,
    trace_rec: Option<ExecTrace>,

    running_count: usize,
    running_per_type: [usize; 2],
    /// Number of `Some` entries in `molds` (skips the join scan when zero).
    active_molds: usize,
    /// Cached rail powers, recomputed only after an event that can change
    /// them (task launch/completion, DVFS activity).
    rail_cache: [f64; 3],
    rail_dirty: bool,

    ctrl: [DvfsController; 2],
    ctrl_mem: DvfsController,

    completed: usize,

    trace: PowerTrace,
    sensor: PowerSensor,
    rng: StdRng,

    // Report counters.
    steals: u64,
    mold_timeouts: u64,
    tasks_per_type: [usize; 2],
    sampling_time_s: f64,
    total_task_time_s: f64,

    // Profiling tallies, flushed to the joss-telemetry catalog once per
    // run by `into_report` (branch-on-enabled). Plain local increments —
    // the hot loop never touches an atomic for these.
    t_events: u64,
    t_dispatches: u64,
    t_steal_attempts: u64,
    t_arena_recycles: u64,
    t_queue_peak: usize,
}

impl<'a> Sim<'a> {
    fn new(
        machine: &'a MachineModel,
        graph: &'a TaskGraph,
        cfg: EngineConfig,
        arena: &'a mut EngineArena,
        tables: &'a PowerTables,
    ) -> Self {
        let space = ConfigSpace::from_spec(&machine.spec);
        arena.reset(machine);
        arena.indegree.extend_from_slice(graph.indegrees());
        // Paper §6.1: frequencies start at maximum before each benchmark.
        let cpu_lat = Duration::from_micros(machine.spec.cpu_dvfs_latency_us);
        let mem_lat = Duration::from_micros(machine.spec.mem_dvfs_latency_us);
        let ctrl = [
            DvfsController::new(DvfsDomain::ClusterBig, space.fc_max(), cpu_lat),
            DvfsController::new(DvfsDomain::ClusterLittle, space.fc_max(), cpu_lat),
        ];
        let ctrl_mem = DvfsController::new(DvfsDomain::Memory, space.fm_max(), mem_lat);
        let sensor = PowerSensor::new(Duration::from_millis(machine.spec.sensor_period_ms));
        let seed = cfg.seed;
        let record_trace = cfg.record_trace;
        Sim {
            machine,
            space,
            graph,
            cfg,
            now: SimTime::ZERO,
            a: arena,
            tables,
            next_token: 0,
            trace_rec: record_trace.then(ExecTrace::default),
            running_count: 0,
            running_per_type: [0, 0],
            active_molds: 0,
            rail_cache: [0.0; 3],
            rail_dirty: true,
            ctrl,
            ctrl_mem,
            completed: 0,
            trace: PowerTrace::new(false),
            sensor,
            rng: StdRng::seed_from_u64(seed),
            steals: 0,
            mold_timeouts: 0,
            tasks_per_type: [0, 0],
            sampling_time_s: 0.0,
            total_task_time_s: 0.0,
            t_events: 0,
            t_dispatches: 0,
            t_steal_attempts: 0,
            t_arena_recycles: 0,
            t_queue_peak: 0,
        }
    }

    #[inline]
    fn push(&mut self, at: SimTime, kind: Ev) {
        self.a.events.push(at, kind);
    }

    /// O(1), allocation-free: every field is either a counter the event
    /// handlers keep current or a borrowed slice over the arena's
    /// incrementally maintained per-core mirrors.
    fn sched_ctx(&self) -> SchedCtx<'_> {
        SchedCtx {
            space: &self.space,
            graph: self.graph,
            now_s: self.now.as_secs_f64(),
            running_tasks: self.running_count,
            settled_fc: [self.ctrl[0].settled_freq(), self.ctrl[1].settled_freq()],
            settled_fm: self.ctrl_mem.settled_freq(),
            queue_lens: &self.a.queue_lens,
            core_busy: &self.a.core_busy,
            core_tc: &self.a.core_tc,
        }
    }

    fn main_loop(&mut self, sched: &mut dyn Scheduler) {
        // Seed the system: place roots, wake all cores.
        let mut roots = std::mem::take(&mut self.a.roots);
        roots.extend(self.graph.roots());
        for &t in &roots {
            self.make_ready(sched, t);
        }
        self.a.roots = roots;
        for c in 0..self.a.core_tc.len() {
            self.push(SimTime::ZERO, Ev::Wake { core: c });
        }
        if let Some(interval) = sched.timer_interval() {
            self.push(SimTime::ZERO + interval, Ev::Timer);
        }

        let n = self.graph.n_tasks();
        let deadline = SimTime::from_secs_f64(self.cfg.max_virtual_time_s);
        let mut audit_tick = 0u32;
        while self.completed < n {
            self.t_events += 1;
            self.t_queue_peak = self.t_queue_peak.max(self.a.events.len());
            let Some((at, kind)) = self.a.events.pop() else {
                panic!(
                    "scheduler deadlock: {} of {} tasks completed, no events pending",
                    self.completed, n
                )
            };
            assert!(
                at <= deadline,
                "virtual-time guard exceeded: possible livelock"
            );
            // Integrate power up to the event, with pre-event rail values.
            let held = self.trace.current();
            self.sensor.advance_to(at, |_| held);
            self.trace.advance(at);
            self.now = at;

            match kind {
                Ev::Wake { core } => self.try_dispatch(sched, core),
                Ev::Done { slot, token } => self.handle_done(sched, slot, token),
                Ev::Dvfs => {
                    // Engine time never moves backwards, so entries that
                    // took effect before now are never queried again.
                    for c in self.ctrl.iter_mut().chain([&mut self.ctrl_mem]) {
                        c.prune_before(self.now);
                    }
                    self.rescale_all();
                }
                Ev::MoldTimeout { mold } => {
                    // Patience exhausted: start with the gathered width.
                    if let Some(m) = self.a.molds[mold].take() {
                        self.active_molds -= 1;
                        self.mold_timeouts += 1;
                        self.launch(sched, m.q, m.members, m.stolen);
                    }
                }
                Ev::Timer => {
                    let mut cmds = std::mem::take(&mut self.a.timer_cmds);
                    cmds.clear();
                    {
                        let mut ctx = self.sched_ctx();
                        sched.on_timer(&mut ctx, &mut cmds);
                    }
                    for &cmd in &cmds {
                        self.apply_freq_command(cmd);
                    }
                    self.a.timer_cmds = cmds;
                    if self.completed < n {
                        if let Some(interval) = sched.timer_interval() {
                            self.push(self.now + interval, Ev::Timer);
                        }
                    }
                }
            }
            // Commit the rail-power level at every event (the integration
            // break points must match the event sequence exactly), but only
            // recompute it when this event could have changed it.
            if self.rail_dirty {
                self.rail_cache = self.rail_powers();
                self.rail_dirty = false;
            }
            self.trace.set(self.now, self.rail_cache);

            // Debug builds audit the arena's link/free-list/mirror
            // invariants as the run progresses (every 32 events keeps the
            // audit's list walks from turning tests quadratic).
            if cfg!(debug_assertions) {
                if audit_tick & 31 == 0 {
                    self.a.debug_validate();
                }
                audit_tick = audit_tick.wrapping_add(1);
            }
        }
    }

    /// A task's dependencies are all satisfied: ask the scheduler for a
    /// placement and enqueue it.
    fn make_ready(&mut self, sched: &mut dyn Scheduler, task: TaskId) {
        let placement = {
            let mut ctx = self.sched_ctx();
            sched.place(&mut ctx, task)
        };
        let core = self.pick_home_core(placement.tc);
        self.a.enqueue_back(
            core,
            QueuedTask {
                task,
                placement,
                pin_waits: 0,
            },
        );
        self.wake_now(core);
    }

    /// Push a `Wake` for `core` at the current time, unless the core runs a
    /// task whose live completion is strictly later: that `Wake` would pop,
    /// find the core busy, and do nothing. The core picks its queue up
    /// through the `Wake` its completion pushes. Pushes at the current
    /// time take no future-queue sequence number, so eliding one leaves
    /// the pop order of every other event unchanged.
    fn wake_now(&mut self, core: usize) {
        let slot = self.a.core_running[core];
        if slot != NIL && self.a.run_finish[slot as usize] > self.now {
            debug_assert!(
                self.a.run_live[slot as usize] && self.a.run_cores[slot as usize].contains(&core),
                "elided wake of core {core}: slot {slot} is not its live occupant"
            );
            return;
        }
        self.push(self.now, Ev::Wake { core });
    }

    /// Random core of the requested type (or of any type), as the paper's
    /// random-queue placement. The per-type index lists are precomputed at
    /// construction, so a typed pick is one RNG draw and one table lookup.
    fn pick_home_core(&mut self, tc: Option<CoreType>) -> usize {
        match tc {
            None => self.rng.gen_range(0..self.a.core_tc.len()),
            Some(t) => {
                let candidates = self.a.cores_of[t.index()].len();
                let pick = self.rng.gen_range(0..candidates);
                self.a.cores_of[t.index()][pick]
            }
        }
    }

    /// Try to give an idle core work: join a waiting moldable task first,
    /// then own queue, then steal.
    fn try_dispatch(&mut self, sched: &mut dyn Scheduler, core: usize) {
        if self.a.core_running[core] != NIL || self.a.core_reserved[core] {
            return;
        }
        self.t_dispatches += 1;
        // Waiting moldable tasks of my type have priority (core reservation).
        // The scan is gated on the active-mold counter: in the common case
        // (no task gathering cores) dispatch skips it entirely.
        let my_tc = self.a.core_tc[core];
        if self.active_molds > 0 {
            let joinable = self.a.molds.iter().position(|m| {
                m.as_ref()
                    .is_some_and(|m| m.tc == my_tc && m.members.len() < m.need)
            });
            if let Some(mi) = joinable {
                self.a.core_reserved[core] = true;
                let full = {
                    let m = self.a.molds[mi].as_mut().expect("present");
                    m.members.push(core);
                    m.members.len() >= m.need
                };
                if full {
                    let m = self.a.molds[mi].take().expect("present");
                    self.active_molds -= 1;
                    self.launch(sched, m.q, m.members, m.stolen);
                }
                return;
            }
        }
        if let Some(q) = self.a.dequeue_front(core) {
            if self.revise_and_route(sched, core, q, false) {
                return;
            }
            // Task was re-routed to another cluster; try for more work now.
            self.push(self.now, Ev::Wake { core });
            return;
        }
        // Steal: visit victims in random order; take the oldest compatible
        // item. Typed placements may only be stolen by cores of the same
        // type (paper §5.3); untyped (GRWS) items move anywhere. A victim
        // holding nothing this core may steal costs one count lookup, not a
        // queue walk (`EngineArena::steal_oldest`). The victim buffer is
        // arena-owned scratch, refilled (not reallocated) and
        // reshuffled on every attempt — the RNG draw sequence is identical
        // to shuffling a freshly collected vector.
        self.t_steal_attempts += 1;
        let mut victims = std::mem::take(&mut self.a.steal_scratch);
        victims.clear();
        victims.extend((0..self.a.core_tc.len()).filter(|&v| v != core));
        // Fisher-Yates with the engine RNG for deterministic victim order.
        for i in (1..victims.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            victims.swap(i, j);
        }
        let mut found = None;
        for &v in &victims {
            if let Some(q) = self.a.steal_oldest(v, my_tc) {
                found = Some(q);
                break;
            }
        }
        self.a.steal_scratch = victims;
        if let Some(q) = found {
            self.steals += 1;
            if !self.revise_and_route(sched, core, q, true) {
                self.push(self.now, Ev::Wake { core });
            }
        }
        // Otherwise nothing to do: the core sleeps until a Wake event.
    }

    /// Give the scheduler a dispatch-time chance to revise the placement.
    /// Returns `true` if the task started on `core`; `false` if it was
    /// re-routed to a core of the revised type.
    fn revise_and_route(
        &mut self,
        sched: &mut dyn Scheduler,
        core: usize,
        mut q: QueuedTask,
        stolen: bool,
    ) -> bool {
        let revised = {
            let mut ctx = self.sched_ctx();
            sched.revise(&mut ctx, q.task, q.placement)
        };
        q.placement = revised;
        let my_tc = self.a.core_tc[core];
        if let Some(want_tc) = revised.tc {
            if want_tc != my_tc {
                let target = self.pick_home_core(Some(want_tc));
                self.a.enqueue_back(target, q);
                self.wake_now(target);
                return false;
            }
        }
        self.start_task(sched, core, q, stolen);
        true
    }

    /// Begin executing a task on `leader`, recruiting idle same-type cores
    /// up to the requested moldable width.
    fn start_task(
        &mut self,
        sched: &mut dyn Scheduler,
        leader: usize,
        q: QueuedTask,
        stolen: bool,
    ) {
        let task = q.task;
        let kernel_id = self.graph.kernel_of(task);
        let spec = self.graph.kernel(kernel_id);
        let tc = self.a.core_tc[leader];
        let cluster_size = self.machine.spec.cluster(tc).n_cores;
        let width_req = q
            .placement
            .width
            .min(spec.max_width)
            .min(cluster_size)
            .max(1);

        // Pinned (sampling) placements must measure at exactly the requested
        // frequencies: issue the requests and, if a transition is needed,
        // hold the task until it takes effect (the paper's sampler pins the
        // cluster frequency before timing).
        if let (Some((want_fc, want_fm)), false) = (q.placement.freq, q.placement.coordinate) {
            let r1 = self.ctrl[tc.index()].request(want_fc, self.now);
            let r2 = self.ctrl_mem.request(want_fm, self.now);
            if r1.transitioned {
                self.push(r1.effective_at, Ev::Dvfs);
                self.note_dvfs(tc.index(), r1.effective_at, want_fc);
                self.rail_dirty = true;
            }
            if r2.transitioned {
                self.push(r2.effective_at, Ev::Dvfs);
                self.note_dvfs(2, r2.effective_at, want_fm);
                self.rail_dirty = true;
            }
            let settle = r1.effective_at.max(r2.effective_at);
            let pending = self.ctrl[tc.index()].freq_at(self.now) != want_fc
                || self.ctrl_mem.freq_at(self.now) != want_fm;
            if pending && settle > self.now && q.pin_waits < 3 {
                let mut q = q;
                q.pin_waits += 1;
                self.a.enqueue_front(leader, q);
                self.push(settle, Ev::Wake { core: leader });
                return;
            }
        }

        // Gather cores for moldable execution: take currently free same-type
        // cores immediately; if short, reserve and wait (bounded patience)
        // for cores to finish their current tasks and join. The member
        // vector is recycled from completed tasks, so the steady state
        // allocates nothing.
        let mut members = self.a.take_core_vec();
        members.push(leader);
        if width_req > 1 {
            for i in 0..self.a.core_tc.len() {
                if members.len() >= width_req {
                    break;
                }
                if i != leader
                    && self.a.core_tc[i] == tc
                    && self.a.core_running[i] == NIL
                    && !self.a.core_reserved[i]
                {
                    members.push(i);
                }
            }
            if members.len() < width_req {
                for &m in &members {
                    self.a.core_reserved[m] = true;
                }
                let mold = WaitingMold {
                    q,
                    tc,
                    need: width_req,
                    members,
                    stolen,
                };
                let mi = if let Some(free) = self.a.molds.iter().position(|m| m.is_none()) {
                    self.a.molds[free] = Some(mold);
                    free
                } else {
                    self.a.molds.push(Some(mold));
                    self.a.molds.len() - 1
                };
                self.active_molds += 1;
                // Patience: at least the configured floor, and long enough
                // for every same-cluster task currently running to finish
                // and join (cores join waiting molds before taking new
                // work, so this bounds the wait without deadlock).
                let mut deadline = self.now + Duration::from_micros(self.cfg.mold_patience_us);
                for slot in 0..self.a.run_live.len() {
                    if self.a.run_live[slot] && self.a.run_tc[slot] == tc {
                        deadline =
                            deadline.max(self.a.run_finish[slot] + Duration::from_micros(10));
                    }
                }
                self.push(deadline, Ev::MoldTimeout { mold: mi });
                return;
            }
        }
        self.launch(sched, q, members, stolen);
    }

    /// Execute a task on the gathered member cores: issue coordinated
    /// frequency requests, compute the execution sample, and commit it.
    fn launch(
        &mut self,
        sched: &mut dyn Scheduler,
        q: QueuedTask,
        members: Vec<usize>,
        stolen: bool,
    ) {
        let task = q.task;
        let kernel_id = self.graph.kernel_of(task);
        let spec = self.graph.kernel(kernel_id);
        let leader = members[0];
        let tc = self.a.core_tc[leader];
        let width = members.len();

        // Coordinated frequency requests: blend with the current setting when
        // other tasks share the domain (paper §5.3). Sharer counts come from
        // the incrementally maintained per-type counters, not a slot scan.
        if let (Some((want_fc, want_fm)), true) = (q.placement.freq, q.placement.coordinate) {
            let others_cluster = self.running_per_type[tc.index()];
            let others_mem = self.running_count;
            let fc_t = self.cfg.coordination.blend(
                want_fc,
                self.ctrl[tc.index()].settled_freq(),
                others_cluster,
                &self.space.cpu_freqs_ghz,
            );
            let fm_t = self.cfg.coordination.blend(
                want_fm,
                self.ctrl_mem.settled_freq(),
                others_mem,
                &self.space.mem_freqs_ghz,
            );
            let r1 = self.ctrl[tc.index()].request(fc_t, self.now);
            if r1.transitioned {
                self.push(r1.effective_at, Ev::Dvfs);
                self.note_dvfs(tc.index(), r1.effective_at, fc_t);
            }
            let r2 = self.ctrl_mem.request(fm_t, self.now);
            if r2.transitioned {
                self.push(r2.effective_at, Ev::Dvfs);
                self.note_dvfs(2, r2.effective_at, fm_t);
            }
        }

        // Execute at the frequencies in effect *now*; a transition landing
        // later rescales the remainder.
        let fc_now = self.ctrl[tc.index()].freq_at(self.now);
        let fm_now = self.ctrl_mem.freq_at(self.now);
        let shape = spec.scaled_shape(self.graph.scale_of(task));
        // DRAM contention context: aggregate bandwidth demand of the other
        // running tasks (each task's demand was computed when it started).
        // Slot order, exactly as the rail-power sum below — the float
        // rounding of both depends on it.
        let mut other_demand_gbs = 0.0;
        for slot in 0..self.a.run_live.len() {
            if self.a.run_live[slot] {
                other_demand_gbs += self.a.run_mem_demand[slot];
            }
        }
        let ctx = ExecContext { other_demand_gbs };
        let op = self.tables.op_point(tc, width, fc_now, fm_now);
        let exec = self.machine.execute_at(
            &shape,
            &op,
            &ctx,
            &[
                task.0 as u64,
                tc.index() as u64,
                width as u64,
                fc_now.0 as u64,
                fm_now.0 as u64,
            ],
        );

        let slot = self.a.alloc_run_slot();
        let duration_s = exec.duration.as_secs_f64().max(1e-12);
        self.next_token += 1;
        for &m in &members {
            self.a.core_running[m] = slot as u32;
            self.a.core_reserved[m] = false;
            self.a.core_busy[m] = true;
        }
        let finish_at = self.now + exec.duration;
        let token = self.next_token;
        self.a.run_live[slot] = true;
        self.a.run_task[slot] = task;
        self.a.run_shape[slot] = shape;
        self.a.run_tc[slot] = tc;
        self.a.run_width[slot] = width;
        // `members` moves into the running slot (it is recycled at
        // completion); no per-launch clone.
        self.a.run_cores[slot] = members;
        self.a.run_started[slot] = self.now;
        self.a.run_finish[slot] = finish_at;
        self.a.run_token[slot] = token;
        self.a.run_rescales[slot] = 0;
        self.a.run_fc_start[slot] = fc_now;
        self.a.run_fm_start[slot] = fm_now;
        self.a.run_fc_cur[slot] = fc_now;
        self.a.run_fm_cur[slot] = fm_now;
        self.a.run_cpu_dyn_w[slot] = exec.cpu_dyn_w;
        self.a.run_mem_dyn_w[slot] = exec.mem_dyn_w;
        self.a.run_mem_demand[slot] = shape.bytes_gb / duration_s;
        self.a.run_other_demand[slot] = other_demand_gbs;
        self.a.run_sampling[slot] = !q.placement.coordinate;
        self.a.run_stolen[slot] = stolen;
        self.running_count += 1;
        self.running_per_type[tc.index()] += 1;
        self.tasks_per_type[tc.index()] += 1;
        self.rail_dirty = true;
        self.push(finish_at, Ev::Done { slot, token });

        let mut ctx2 = self.sched_ctx();
        sched.task_started(&mut ctx2, task, leader, stolen);
    }

    /// A task's partitions all finished: free cores, notify the scheduler,
    /// wake dependents.
    fn handle_done(&mut self, sched: &mut dyn Scheduler, slot: usize, token: u64) {
        if !self.a.run_live[slot] || self.a.run_token[slot] != token {
            return; // stale event (rescaled, or a later occupant of the slot)
        }
        self.a.run_live[slot] = false;
        self.a.free_slots.push(slot);
        self.running_count -= 1;
        let tc = self.a.run_tc[slot];
        self.running_per_type[tc.index()] -= 1;
        self.rail_dirty = true;
        debug_assert_eq!(
            self.running_count,
            self.a.run_live.iter().filter(|&&l| l).count()
        );
        let cores = std::mem::take(&mut self.a.run_cores[slot]);
        for &c in &cores {
            self.a.core_running[c] = NIL;
            self.a.core_busy[c] = false;
            self.push(self.now, Ev::Wake { core: c });
        }
        let started = self.a.run_started[slot];
        let duration_s = self.now.since(started).as_secs_f64();
        self.total_task_time_s += duration_s;
        if self.a.run_sampling[slot] {
            self.sampling_time_s += duration_s;
        }
        self.completed += 1;

        let task = self.a.run_task[slot];
        let sample = ExecutedSample {
            task,
            kernel: self.graph.kernel_of(task),
            tc,
            width: self.a.run_width[slot],
            fc_start: self.a.run_fc_start[slot],
            fm_start: self.a.run_fm_start[slot],
            fc_end: self.ctrl[tc.index()].freq_at(self.now),
            fm_end: self.ctrl_mem.freq_at(self.now),
            duration_s,
            started_s: started.as_secs_f64(),
            stolen: self.a.run_stolen[slot],
            perturbed: self.a.run_rescales[slot] > 0,
            scale: self.graph.scale_of(task),
        };
        if let Some(tr) = &mut self.trace_rec {
            tr.tasks.push(TaskSpan {
                task,
                kernel: self.graph.kernel(self.graph.kernel_of(task)).name.clone(),
                core: cores[0],
                cores: cores.clone(),
                tc,
                start_s: started.as_secs_f64(),
                end_s: self.now.as_secs_f64(),
                fc: self.a.run_fc_start[slot],
                fm: self.a.run_fm_start[slot],
                sampling: self.a.run_sampling[slot],
            });
        }
        {
            let mut ctx = self.sched_ctx();
            sched.task_completed(&mut ctx, &sample);
        }
        self.a.recycle_core_vec(cores);
        self.t_arena_recycles += 1;

        // Wake dependents whose last dependency this was. The successor
        // slice borrows the graph (lifetime `'a`, independent of `self`),
        // so no defensive copy is needed while `make_ready` mutates state.
        let graph = self.graph;
        for &s in graph.successors(task) {
            let d = &mut self.a.indegree[s.index()];
            debug_assert!(*d > 0, "dependency counting underflow");
            *d -= 1;
            if *d == 0 {
                self.make_ready(sched, s);
            }
        }
    }

    fn apply_freq_command(&mut self, cmd: FreqCommand) {
        let (req, domain, freq) = match cmd {
            FreqCommand::Cluster(tc, f) => {
                (self.ctrl[tc.index()].request(f, self.now), tc.index(), f)
            }
            FreqCommand::Memory(f) => (self.ctrl_mem.request(f, self.now), 2, f),
        };
        if req.transitioned {
            self.push(req.effective_at, Ev::Dvfs);
            self.note_dvfs(domain, req.effective_at, freq);
            self.rail_dirty = true;
        }
    }

    /// Record a DVFS transition in the trace (if recording).
    fn note_dvfs(&mut self, domain: usize, at: SimTime, freq: FreqIndex) {
        if let Some(tr) = &mut self.trace_rec {
            tr.dvfs.push(DvfsSpan {
                domain,
                at_s: at.as_secs_f64(),
                freq,
            });
        }
    }

    /// A DVFS transition took effect: rescale every running task whose
    /// effective frequencies changed and refresh its power draw.
    fn rescale_all(&mut self) {
        // A transition landed: even if no running task's operating point
        // changes, the cluster idle draw follows the new frequency.
        self.rail_dirty = true;
        let n_slots = self.a.run_live.len();
        let mut self_token = self.next_token;
        for slot in 0..n_slots {
            if !self.a.run_live[slot] {
                continue;
            }
            let tc = self.a.run_tc[slot];
            let fc_new = self.ctrl[tc.index()].freq_at(self.now);
            let fm_new = self.ctrl_mem.freq_at(self.now);
            if fc_new == self.a.run_fc_cur[slot] && fm_new == self.a.run_fm_cur[slot] {
                continue;
            }
            let shape = self.a.run_shape[slot];
            let width = self.a.run_width[slot];
            let ctx = ExecContext {
                other_demand_gbs: self.a.run_other_demand[slot],
            };
            let op_old =
                self.tables
                    .op_point(tc, width, self.a.run_fc_cur[slot], self.a.run_fm_cur[slot]);
            let op_new = self.tables.op_point(tc, width, fc_new, fm_new);
            let t_old = self.machine.clean_time_at(&shape, &op_old, &ctx);
            let t_new = self.machine.clean_time_at(&shape, &op_new, &ctx);
            let finish_at = self.a.run_finish[slot];
            let remaining = finish_at.since(self.now.min(finish_at)).as_secs_f64();
            let remaining_new = if t_old > 0.0 {
                remaining * t_new / t_old
            } else {
                remaining
            };
            let new_finish = self.now + joss_platform::Duration::from_secs_f64(remaining_new);
            self.a.run_finish[slot] = new_finish;
            self.a.run_rescales[slot] += 1;
            // Refresh power draw at the new operating point (deterministic:
            // keyed by task and configuration).
            let exec = self.machine.execute_at(
                &shape,
                &op_new,
                &ctx,
                &[
                    self.a.run_task[slot].0 as u64,
                    tc.index() as u64,
                    width as u64,
                    fc_new.0 as u64,
                    fm_new.0 as u64,
                ],
            );
            self.a.run_cpu_dyn_w[slot] = exec.cpu_dyn_w;
            self.a.run_mem_dyn_w[slot] = exec.mem_dyn_w;
            self.a.run_mem_demand[slot] = shape.bytes_gb
                / new_finish
                    .since(self.a.run_started[slot])
                    .as_secs_f64()
                    .max(1e-12);
            self.a.run_fc_cur[slot] = fc_new;
            self.a.run_fm_cur[slot] = fm_new;
            self_token += 1;
            self.a.run_token[slot] = self_token;
            self.push(
                new_finish,
                Ev::Done {
                    slot,
                    token: self_token,
                },
            );
        }
        self.next_token = self_token;
    }

    /// Instantaneous rail powers: per-cluster idle + running dynamic CPU
    /// power; memory background + running dynamic memory power. Idle power
    /// is a [`PowerTables`] lookup by frequency index (bit-identical to the
    /// machine-model call it replaces); the dynamic sums stream the arena's
    /// SoA columns in slot order.
    fn rail_powers(&self) -> [f64; 3] {
        let mut big = self
            .tables
            .cluster_idle_w(CoreType::Big, self.ctrl[0].freq_at(self.now));
        let mut little = self
            .tables
            .cluster_idle_w(CoreType::Little, self.ctrl[1].freq_at(self.now));
        let mut mem = self.tables.mem_idle_w(self.ctrl_mem.freq_at(self.now));
        for slot in 0..self.a.run_live.len() {
            if self.a.run_live[slot] {
                match self.a.run_tc[slot] {
                    CoreType::Big => big += self.a.run_cpu_dyn_w[slot],
                    CoreType::Little => little += self.a.run_cpu_dyn_w[slot],
                }
                mem += self.a.run_mem_dyn_w[slot];
            }
        }
        [big, little, mem]
    }

    fn into_report(self, sched: &mut dyn Scheduler, graph: &TaskGraph) -> RunReport {
        if joss_telemetry::enabled() {
            use joss_telemetry::catalog as tm;
            tm::ENGINE_RUNS.inc();
            tm::ENGINE_EVENTS.add(self.t_events);
            tm::ENGINE_DISPATCHES.add(self.t_dispatches);
            tm::ENGINE_STEAL_ATTEMPTS.add(self.t_steal_attempts);
            tm::ENGINE_STEALS.add(self.steals);
            tm::ENGINE_ARENA_RECYCLES.add(self.t_arena_recycles);
            tm::ENGINE_TASKS.add(self.completed as u64);
            tm::ENGINE_EVENT_QUEUE_PEAK.set_max(self.t_queue_peak as i64);
        }
        let energy = EnergyAccount::from_measurements(&self.trace, &self.sensor, self.now);
        RunReport {
            scheduler: sched.name().to_string(),
            benchmark: graph.name().to_string(),
            energy,
            tasks: self.completed,
            tasks_per_type: self.tasks_per_type,
            steals: self.steals,
            mold_timeouts: self.mold_timeouts,
            dvfs_transitions: self.ctrl[0].n_transitions
                + self.ctrl[1].n_transitions
                + self.ctrl_mem.n_transitions,
            dvfs_serialized: self.ctrl[0].n_serialized
                + self.ctrl[1].n_serialized
                + self.ctrl_mem.n_serialized,
            sampling_time_s: self.sampling_time_s,
            total_task_time_s: self.total_task_time_s,
            search_evaluations: sched.search_evaluations(),
            selected_configs: sched.selected_configs(),
            trace: self.trace_rec,
        }
    }
}
