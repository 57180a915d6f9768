//! The engine's struct-of-arrays task arena: every piece of per-run mutable
//! state the hot path touches, laid out as parallel arrays indexed by dense
//! ids, owned by one allocation-stable object that `Campaign` workers reuse
//! across runs (one arena per worker thread, not per spec).
//!
//! Three id spaces live here:
//!
//! * **queued-task slots** — a ready-but-not-running task is three small
//!   fields (`task`, `placement`, `pin_waits`) plus an intrusive `next`
//!   link; the per-core FIFO work queues are singly-linked index lists over
//!   these slots (`q_head`/`q_tail` per core), so enqueue, dispatch, and
//!   the steal scan move `u32` indices, never structs. Freed slots go on an
//!   internal free list and are recycled LIFO.
//! * **running slots** — the state of an in-flight task, split into
//!   parallel arrays (`run_*`) so the event loop's summations (rail dynamic
//!   power, DRAM-demand context) stream over dense `f64` arrays instead of
//!   striding through 150-byte structs. Slot ids are allocated LIFO from
//!   `free_slots`, growing only when no freed slot exists — the exact
//!   discipline of the previous `Vec<Option<Running>>`, which matters
//!   because float summations iterate *in slot order* and must reproduce
//!   the same rounding. [`EngineArena::reset`] truncates (rather than
//!   free-lists across runs) for the same reason: a reused arena assigns
//!   slot ids in exactly the order a fresh engine would.
//! * **cores** — the scheduler-visible mirrors (`queue_lens`, `core_busy`,
//!   `core_tc`), dispatch state (`core_running`, `core_reserved`), and the
//!   per-core count of queued items each core type may steal
//!   (`stealable`), maintained by the queue/slot helpers so they can never
//!   drift from the linked structure itself.
//!   [`EngineArena::debug_validate`] re-derives and cross-checks all of it
//!   in debug builds.
//!
//! The event queue ([`CalendarQueue`](crate::equeue::CalendarQueue)) and
//! the scratch buffers PR 3 introduced (steal victims, member-core vectors,
//! timer commands, indegrees) live here too, so `SimEngine::run_with_arena`
//! performs no per-run allocation in steady state.

use crate::equeue::CalendarQueue;
use crate::placement::{FreqCommand, Placement};
use joss_dag::TaskId;
use joss_platform::{CoreType, FreqIndex, MachineModel, SimTime, TaskShape};

use crate::engine::Ev;

/// Null link / "no slot" sentinel for the `u32` index spaces.
pub(crate) const NIL: u32 = u32::MAX;

/// A ready task as handed around the dispatch path, materialized from the
/// queued-task SoA on dequeue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedTask {
    pub task: TaskId,
    pub placement: Placement,
    /// Times this item was held back waiting for a pinned-frequency
    /// transition (bounded to avoid ping-pong between conflicting pins).
    pub pin_waits: u8,
}

/// A moldable task gathering cores: the leader reserves itself and waits up
/// to the configured patience for same-type cores to join (XiTAO-style core
/// reservation); on timeout it starts with whatever width it has.
#[derive(Debug)]
pub(crate) struct WaitingMold {
    pub q: QueuedTask,
    pub tc: CoreType,
    pub need: usize,
    pub members: Vec<usize>,
    pub stolen: bool,
}

/// Which core types may steal a queued item, as `[big, little]` 0/1
/// counts: a typed placement only by cores of its type (paper §5.3), an
/// untyped (GRWS) one by either.
fn steal_mask(place: &Placement) -> [u32; 2] {
    match place.tc {
        None => [1, 1],
        Some(CoreType::Big) => [1, 0],
        Some(CoreType::Little) => [0, 1],
    }
}

/// Reusable engine state: see the module docs. Opaque outside the crate —
/// create one with [`EngineArena::new`] (or `Default`) and hand it to
/// `SimEngine::run_with_arena`; the engine resets it at the start of every
/// run, so one arena may serve any sequence of runs.
#[derive(Debug, Default)]
pub struct EngineArena {
    // Queued-task SoA + intrusive links.
    q_task: Vec<TaskId>,
    q_place: Vec<Placement>,
    q_pin_waits: Vec<u8>,
    /// Next link: within a core's FIFO list, or within the free list.
    q_next: Vec<u32>,
    q_free_head: u32,
    q_free_len: usize,
    /// Per-core FIFO list heads/tails over the queued-task slots.
    q_head: Vec<u32>,
    q_tail: Vec<u32>,
    /// Per core, `[big, little]`: how many of its queued items a core of
    /// that type may steal (see [`steal_mask`]). A steal scan of a victim
    /// whose count is zero is skipped without walking its list.
    stealable: Vec<[u32; 2]>,

    // Core state + scheduler-visible mirrors.
    pub(crate) core_tc: Vec<CoreType>,
    pub(crate) core_running: Vec<u32>,
    pub(crate) core_reserved: Vec<bool>,
    pub(crate) queue_lens: Vec<usize>,
    pub(crate) core_busy: Vec<bool>,
    /// Core indices per core type (ascending engine order), precomputed so
    /// typed placement never filters the core list.
    pub(crate) cores_of: [Vec<usize>; 2],

    // Running-slot SoA.
    pub(crate) run_live: Vec<bool>,
    pub(crate) run_task: Vec<TaskId>,
    pub(crate) run_shape: Vec<TaskShape>,
    pub(crate) run_tc: Vec<CoreType>,
    pub(crate) run_width: Vec<usize>,
    pub(crate) run_cores: Vec<Vec<usize>>,
    pub(crate) run_started: Vec<SimTime>,
    pub(crate) run_finish: Vec<SimTime>,
    /// Unique completion-event key; regenerated on install and every rescale.
    pub(crate) run_token: Vec<u64>,
    /// Number of mid-run DVFS rescales (perturbation marker).
    pub(crate) run_rescales: Vec<u32>,
    pub(crate) run_fc_start: Vec<FreqIndex>,
    pub(crate) run_fm_start: Vec<FreqIndex>,
    pub(crate) run_fc_cur: Vec<FreqIndex>,
    pub(crate) run_fm_cur: Vec<FreqIndex>,
    pub(crate) run_cpu_dyn_w: Vec<f64>,
    pub(crate) run_mem_dyn_w: Vec<f64>,
    /// DRAM bandwidth the slot's task consumes while running, GB/s.
    pub(crate) run_mem_demand: Vec<f64>,
    /// The `ExecContext::other_demand_gbs` the task launched under.
    pub(crate) run_other_demand: Vec<f64>,
    pub(crate) run_sampling: Vec<bool>,
    pub(crate) run_stolen: Vec<bool>,
    /// Freed running slots, recycled LIFO (matches the previous engine).
    pub(crate) free_slots: Vec<usize>,

    // Moldable tasks gathering cores (cold path; index-stable options).
    pub(crate) molds: Vec<Option<WaitingMold>>,

    /// The calendar event queue (see [`crate::equeue`]).
    pub(crate) events: CalendarQueue<Ev>,

    // Scratch reused across events and runs.
    pub(crate) steal_scratch: Vec<usize>,
    pub(crate) core_vec_pool: Vec<Vec<usize>>,
    pub(crate) timer_cmds: Vec<FreqCommand>,
    pub(crate) indegree: Vec<u32>,
    pub(crate) roots: Vec<TaskId>,
}

impl EngineArena {
    /// Empty arena; buffers grow on first use and persist across runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewind to the state of a freshly built arena for `machine`, keeping
    /// every allocation. Truncates both id spaces to zero (see the module
    /// docs for why the free lists must not survive across runs).
    pub(crate) fn reset(&mut self, machine: &MachineModel) {
        self.q_task.clear();
        self.q_place.clear();
        self.q_pin_waits.clear();
        self.q_next.clear();
        self.q_free_head = NIL;
        self.q_free_len = 0;

        let n_big = machine.spec.cluster(CoreType::Big).n_cores;
        let n_little = machine.spec.cluster(CoreType::Little).n_cores;
        let n_cores = n_big + n_little;
        self.core_tc.clear();
        self.core_tc.resize(n_big, CoreType::Big);
        self.core_tc.resize(n_big + n_little, CoreType::Little);
        self.q_head.clear();
        self.q_head.resize(n_cores, NIL);
        self.q_tail.clear();
        self.q_tail.resize(n_cores, NIL);
        self.stealable.clear();
        self.stealable.resize(n_cores, [0; 2]);
        self.core_running.clear();
        self.core_running.resize(n_cores, NIL);
        self.core_reserved.clear();
        self.core_reserved.resize(n_cores, false);
        self.queue_lens.clear();
        self.queue_lens.resize(n_cores, 0);
        self.core_busy.clear();
        self.core_busy.resize(n_cores, false);
        self.cores_of[0].clear();
        self.cores_of[1].clear();
        for (i, &tc) in self.core_tc.iter().enumerate() {
            self.cores_of[tc.index()].push(i);
        }

        self.run_live.clear();
        self.run_task.clear();
        self.run_shape.clear();
        self.run_tc.clear();
        self.run_width.clear();
        for mut v in self.run_cores.drain(..) {
            // Salvage member-vector capacity into the pool; slots whose
            // vector was already recycled hold a capacity-less `Vec::new()`
            // not worth pooling.
            if v.capacity() > 0 {
                v.clear();
                self.core_vec_pool.push(v);
            }
        }
        self.run_started.clear();
        self.run_finish.clear();
        self.run_token.clear();
        self.run_rescales.clear();
        self.run_fc_start.clear();
        self.run_fm_start.clear();
        self.run_fc_cur.clear();
        self.run_fm_cur.clear();
        self.run_cpu_dyn_w.clear();
        self.run_mem_dyn_w.clear();
        self.run_mem_demand.clear();
        self.run_other_demand.clear();
        self.run_sampling.clear();
        self.run_stolen.clear();
        self.free_slots.clear();

        self.molds.clear();
        self.events.reset();
        self.steal_scratch.clear();
        self.timer_cmds.clear();
        self.indegree.clear();
        self.roots.clear();
    }

    // --- queued-task slots + per-core intrusive FIFO lists -------------

    fn qslot_alloc(&mut self, q: QueuedTask) -> u32 {
        if self.q_free_head != NIL {
            let id = self.q_free_head;
            let i = id as usize;
            self.q_free_head = self.q_next[i];
            self.q_free_len -= 1;
            self.q_task[i] = q.task;
            self.q_place[i] = q.placement;
            self.q_pin_waits[i] = q.pin_waits;
            self.q_next[i] = NIL;
            id
        } else {
            let id = self.q_task.len() as u32;
            self.q_task.push(q.task);
            self.q_place.push(q.placement);
            self.q_pin_waits.push(q.pin_waits);
            self.q_next.push(NIL);
            id
        }
    }

    /// Unlinked slot -> free list, returning its materialized contents.
    fn qslot_release(&mut self, id: u32) -> QueuedTask {
        let i = id as usize;
        let q = QueuedTask {
            task: self.q_task[i],
            placement: self.q_place[i],
            pin_waits: self.q_pin_waits[i],
        };
        self.q_next[i] = self.q_free_head;
        self.q_free_head = id;
        self.q_free_len += 1;
        q
    }

    // Every queue mutation goes through these helpers so the published
    // `queue_lens` mirror, the `stealable` counts and the links can never
    // drift apart.

    fn count_queued(&mut self, core: usize, place: &Placement) {
        let mask = steal_mask(place);
        let counts = &mut self.stealable[core];
        counts[0] += mask[0];
        counts[1] += mask[1];
        self.queue_lens[core] += 1;
    }

    fn uncount_queued(&mut self, core: usize, id: u32) {
        let mask = steal_mask(&self.q_place[id as usize]);
        let counts = &mut self.stealable[core];
        counts[0] -= mask[0];
        counts[1] -= mask[1];
        self.queue_lens[core] -= 1;
    }

    pub(crate) fn enqueue_back(&mut self, core: usize, q: QueuedTask) {
        self.count_queued(core, &q.placement);
        let id = self.qslot_alloc(q);
        let tail = self.q_tail[core];
        if tail == NIL {
            self.q_head[core] = id;
        } else {
            self.q_next[tail as usize] = id;
        }
        self.q_tail[core] = id;
    }

    pub(crate) fn enqueue_front(&mut self, core: usize, q: QueuedTask) {
        self.count_queued(core, &q.placement);
        let id = self.qslot_alloc(q);
        self.q_next[id as usize] = self.q_head[core];
        self.q_head[core] = id;
        if self.q_tail[core] == NIL {
            self.q_tail[core] = id;
        }
    }

    pub(crate) fn dequeue_front(&mut self, core: usize) -> Option<QueuedTask> {
        let id = self.q_head[core];
        if id == NIL {
            return None;
        }
        let next = self.q_next[id as usize];
        self.q_head[core] = next;
        if next == NIL {
            self.q_tail[core] = NIL;
        }
        self.uncount_queued(core, id);
        Some(self.qslot_release(id))
    }

    /// Steal scan over one victim's queue for a thief of type `tc`: unlink
    /// and return the **oldest** (FIFO order) item `tc` may steal — the
    /// same item `queue.iter().position(..)` + `remove(pos)` selected in
    /// the `VecDeque` engine, with the survivors' relative order preserved.
    /// O(1) when the victim holds nothing `tc` may steal.
    pub(crate) fn steal_oldest(&mut self, core: usize, tc: CoreType) -> Option<QueuedTask> {
        if self.stealable[core][tc.index()] == 0 {
            return None;
        }
        let mut prev = NIL;
        let mut cur = self.q_head[core];
        while cur != NIL {
            if steal_mask(&self.q_place[cur as usize])[tc.index()] == 1 {
                let next = self.q_next[cur as usize];
                if prev == NIL {
                    self.q_head[core] = next;
                } else {
                    self.q_next[prev as usize] = next;
                }
                if next == NIL {
                    self.q_tail[core] = prev;
                }
                self.uncount_queued(core, cur);
                return Some(self.qslot_release(cur));
            }
            prev = cur;
            cur = self.q_next[cur as usize];
        }
        unreachable!("stealable count of core {core} out of sync with its queue")
    }

    // --- running slots --------------------------------------------------

    /// Claim a running slot: recycle LIFO, grow only when none are free —
    /// bit-for-bit the allocation discipline of the previous engine.
    pub(crate) fn alloc_run_slot(&mut self) -> usize {
        if let Some(slot) = self.free_slots.pop() {
            return slot;
        }
        let slot = self.run_live.len();
        self.run_live.push(false);
        self.run_task.push(TaskId(0));
        self.run_shape.push(TaskShape::new(0.0, 0.0));
        self.run_tc.push(CoreType::Big);
        self.run_width.push(0);
        self.run_cores.push(Vec::new());
        self.run_started.push(SimTime::ZERO);
        self.run_finish.push(SimTime::ZERO);
        self.run_token.push(0);
        self.run_rescales.push(0);
        self.run_fc_start.push(FreqIndex(0));
        self.run_fm_start.push(FreqIndex(0));
        self.run_fc_cur.push(FreqIndex(0));
        self.run_fm_cur.push(FreqIndex(0));
        self.run_cpu_dyn_w.push(0.0);
        self.run_mem_dyn_w.push(0.0);
        self.run_mem_demand.push(0.0);
        self.run_other_demand.push(0.0);
        self.run_sampling.push(false);
        self.run_stolen.push(false);
        slot
    }

    /// Take a member-core vector from the recycle pool (or allocate on a
    /// cold start). Returned vectors are empty.
    pub(crate) fn take_core_vec(&mut self) -> Vec<usize> {
        self.core_vec_pool.pop().unwrap_or_default()
    }

    /// Return a member-core vector to the pool once its task completed.
    pub(crate) fn recycle_core_vec(&mut self, mut v: Vec<usize>) {
        v.clear();
        self.core_vec_pool.push(v);
    }

    // --- invariant audit -------------------------------------------------

    /// Re-derive the arena's redundant state and assert it consistent:
    /// per-core link lists vs `queue_lens`/`q_tail`/`stealable`, the
    /// queued-slot free list vs the allocation count, core mirrors vs
    /// running slots, and the running-slot free list vs liveness. Called
    /// from the engine's event loop under `debug_assertions` (and from the
    /// behavior tests' auditor); release builds never pay for it.
    pub fn debug_validate(&self) {
        let n_slots = self.q_task.len();
        let mut linked = 0usize;
        for core in 0..self.core_tc.len() {
            let mut count = 0usize;
            let mut stealable = [0u32; 2];
            let mut prev = NIL;
            let mut cur = self.q_head[core];
            while cur != NIL {
                assert!((cur as usize) < n_slots, "queue link out of bounds");
                count += 1;
                assert!(count <= n_slots, "queue link cycle on core {core}");
                let mask = steal_mask(&self.q_place[cur as usize]);
                stealable[0] += mask[0];
                stealable[1] += mask[1];
                prev = cur;
                cur = self.q_next[cur as usize];
            }
            assert_eq!(
                self.q_tail[core], prev,
                "tail link of core {core} out of sync"
            );
            assert_eq!(
                count, self.queue_lens[core],
                "queue_lens mirror of core {core} out of sync"
            );
            assert_eq!(
                stealable, self.stealable[core],
                "stealable counts of core {core} out of sync"
            );
            linked += count;
        }
        let mut free = 0usize;
        let mut cur = self.q_free_head;
        while cur != NIL {
            assert!((cur as usize) < n_slots, "free link out of bounds");
            free += 1;
            assert!(free <= n_slots, "free-list cycle");
            cur = self.q_next[cur as usize];
        }
        assert_eq!(free, self.q_free_len, "free-list length out of sync");
        assert_eq!(
            linked + free,
            n_slots,
            "every queued-task slot must be linked or free"
        );

        for c in 0..self.core_tc.len() {
            let running = self.core_running[c];
            assert_eq!(
                self.core_busy[c],
                running != NIL,
                "core_busy mirror of core {c} out of sync"
            );
            if running != NIL {
                let slot = running as usize;
                assert!(self.run_live[slot], "core {c} points at a dead slot");
                assert!(
                    self.run_cores[slot].contains(&c),
                    "slot {slot} does not list its core {c}"
                );
            }
        }
        for &slot in &self.free_slots {
            assert!(!self.run_live[slot], "live slot {slot} on the free list");
        }
        let live = self.run_live.iter().filter(|&&l| l).count();
        assert_eq!(
            live + self.free_slots.len(),
            self.run_live.len(),
            "running slots must be exactly live + free"
        );
    }
}
