//! The model-based schedulers: JOSS (all variants) and STEER.
//!
//! Both share one pipeline (paper Fig. 6):
//!
//! 1. **Online sampling** — each kernel's first invocations are used to time
//!    it at every admissible `<TC,NC>` at two core frequencies (§5.1);
//! 2. **Model prediction** — MB is derived (Eq. 3) and the per-kernel lookup
//!    tables are filled from the trained MPR models;
//! 3. **Configuration selection** — a search (steepest descent by default,
//!    §5.2) picks the configuration meeting the trade-off target;
//! 4. **Steady state** — every later invocation of the kernel uses the
//!    cached configuration; fine-grained kernels issue DVFS requests only
//!    once per coarsened batch (§5.3).
//!
//! STEER is the same machinery with the CPU-energy objective and no memory
//! DVFS; the paper's JOSS_NoMemDVFS pins `fM` but keeps the total-energy
//! objective.

use crate::placement::{ExecutedSample, Placement};
use crate::sampling::KernelSampler;
use crate::sched::{SchedCtx, Scheduler};
use joss_dag::{KernelId, TaskId};
use joss_models::{
    constrained_search, exhaustive_search, fastest_config, steepest_descent_search,
    EnergyEstimator, ModelSet, Objective, SearchOutcome,
};
use joss_platform::KnobConfig;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

/// Energy/performance trade-off target (§5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// Scenario 1: minimize total (or CPU) energy.
    MinEnergy,
    /// Scenario 2: minimize energy subject to a per-task speedup constraint
    /// relative to the MinEnergy configuration.
    Speedup(f64),
    /// Maximize per-task performance regardless of energy (MAXP).
    MaxPerf,
}

/// Which search algorithm selects configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// The paper's pruning search (Fig. 7).
    SteepestDescent,
    /// Full enumeration (§7.4 comparison baseline and test oracle).
    Exhaustive,
}

/// Per-kernel learning state.
enum KernelState {
    Sampling(KernelSampler),
    Ready {
        config: KnobConfig,
        /// Issue a DVFS request every `batch` tasks (1 = every task);
        /// `batch > 1` is the §5.3 coarsening of fine-grained kernels.
        batch: u64,
        /// Tasks placed since the last DVFS request.
        since_request: u64,
    },
}

/// JOSS / STEER scheduler.
pub struct ModelSched {
    name: String,
    models: Arc<ModelSet>,
    objective: Objective,
    mem_dvfs: bool,
    target: Target,
    search: SearchKind,
    /// Kernels with predicted task time below this are "fine-grained" and
    /// get coarsened DVFS requests (§5.3).
    pub coarsen_threshold_s: f64,
    kernels: Vec<Option<KernelState>>,
    inflight: HashMap<TaskId, (KernelId, usize)>,
    search_evals: u64,
    selected: BTreeMap<String, KnobConfig>,
}

impl ModelSched {
    fn new(
        name: impl Into<String>,
        models: Arc<ModelSet>,
        objective: Objective,
        mem_dvfs: bool,
        target: Target,
    ) -> Self {
        ModelSched {
            name: name.into(),
            models,
            objective,
            mem_dvfs,
            target,
            search: SearchKind::SteepestDescent,
            coarsen_threshold_s: 200e-6,
            kernels: Vec::new(),
            inflight: HashMap::new(),
            search_evals: 0,
            selected: BTreeMap::new(),
        }
    }

    /// JOSS: joint `<TC,NC,fC,fM>` selection minimizing total energy.
    pub fn joss(models: Arc<ModelSet>) -> Self {
        Self::new(
            "JOSS",
            models,
            Objective::TotalEnergy,
            true,
            Target::MinEnergy,
        )
    }

    /// JOSS without the memory DVFS knob (`fM` pinned at maximum) but still
    /// optimizing total energy.
    pub fn joss_no_mem_dvfs(models: Arc<ModelSet>) -> Self {
        Self::new(
            "JOSS_NoMemDVFS",
            models,
            Objective::TotalEnergy,
            false,
            Target::MinEnergy,
        )
    }

    /// JOSS under a performance constraint: per-task speedup relative to the
    /// minimum-energy configuration.
    pub fn joss_with_speedup(models: Arc<ModelSet>, speedup: f64) -> Self {
        assert!(speedup > 0.0);
        Self::new(
            format!("JOSS+{speedup}X"),
            models,
            Objective::TotalEnergy,
            true,
            Target::Speedup(speedup),
        )
    }

    /// JOSS maximizing per-task performance (MAXP).
    pub fn joss_maxp(models: Arc<ModelSet>) -> Self {
        Self::new(
            "JOSS+MAXP",
            models,
            Objective::TotalEnergy,
            true,
            Target::MaxPerf,
        )
    }

    /// STEER: `<TC,NC,fC>` selection minimizing CPU energy (no memory DVFS,
    /// memory energy invisible to the objective).
    pub fn steer(models: Arc<ModelSet>) -> Self {
        Self::new(
            "STEER",
            models,
            Objective::CpuEnergy,
            false,
            Target::MinEnergy,
        )
    }

    /// Override the search algorithm (default: steepest descent).
    pub fn with_search(mut self, search: SearchKind) -> Self {
        self.search = search;
        self
    }

    /// Override the fine-grained coarsening threshold.
    pub fn with_coarsen_threshold(mut self, seconds: f64) -> Self {
        self.coarsen_threshold_s = seconds;
        self
    }

    /// The trained model set in use.
    pub fn models(&self) -> &ModelSet {
        &self.models
    }

    fn ensure_kernel(&mut self, ctx: &SchedCtx<'_>, kernel: KernelId) {
        if self.kernels.len() < ctx.graph.n_kernels() {
            self.kernels.resize_with(ctx.graph.n_kernels(), || None);
        }
        if self.kernels[kernel.index()].is_none() {
            let max_width = ctx.graph.kernel(kernel).max_width;
            let sampler = KernelSampler::two_freq_plan(
                &self.models.space,
                max_width,
                self.models.cfg.fc_ref,
                self.models.cfg.fc_alt,
                self.models.cfg.fm_ref,
            );
            self.kernels[kernel.index()] = Some(KernelState::Sampling(sampler));
        }
    }

    /// Run the configuration search for a fully sampled kernel.
    fn finalize_kernel(&mut self, ctx: &SchedCtx<'_>, kernel: KernelId) {
        let Some(KernelState::Sampling(sampler)) = &self.kernels[kernel.index()] else {
            return;
        };
        let samples = sampler.two_freq_samples(self.models.indexer(), self.models.cfg.fc_ref);
        if samples.iter().all(|s| s.is_none()) {
            // Sampling failed entirely (pathologically contended run): fall
            // back to the fastest cluster at maximum frequencies.
            let space = &self.models.space;
            let fallback = KnobConfig::new(
                joss_platform::CoreType::Big,
                joss_platform::NcIndex(0),
                space.fc_max(),
                space.fm_max(),
            );
            self.selected
                .insert(ctx.graph.kernel(kernel).name.clone(), fallback);
            self.kernels[kernel.index()] = Some(KernelState::Ready {
                config: fallback,
                batch: 1,
                since_request: 0,
            });
            return;
        }
        let tables = self.models.build_kernel_tables(&samples);
        let max_width = ctx.graph.kernel(kernel).max_width;
        let est = EnergyEstimator {
            space: &self.models.space,
            tables: &tables,
            idle: &self.models.idle,
            objective: self.objective,
            concurrency: ctx.running_tasks.max(1) as f64,
            max_width,
        };
        let base: SearchOutcome = match self.search {
            SearchKind::SteepestDescent => steepest_descent_search(&est, self.mem_dvfs),
            SearchKind::Exhaustive => exhaustive_search(&est, self.mem_dvfs),
        };
        self.search_evals += base.stats.evaluations;
        let outcome = match self.target {
            Target::MinEnergy => base,
            Target::Speedup(s) => {
                let c = constrained_search(&est, self.mem_dvfs, base.config, s);
                self.search_evals += c.stats.evaluations;
                c
            }
            Target::MaxPerf => {
                let f = fastest_config(&est, self.mem_dvfs);
                self.search_evals += f.stats.evaluations;
                f
            }
        };
        if std::env::var_os("JOSS_DEBUG_FINALIZE").is_some() {
            eprintln!(
                "[{}] finalize kernel '{}' (running={}):",
                self.name,
                ctx.graph.kernel(kernel).name,
                ctx.running_tasks
            );
            for (i, (tc, nc)) in self.models.indexer().iter().enumerate() {
                if let Some((tr, ta)) = samples[i] {
                    eprintln!(
                        "   <{},{}> t_ref={:.6} t_alt={:.6} mb={:.3}",
                        tc.paper_name(),
                        self.models.space.nc_count(tc, nc),
                        tr,
                        ta,
                        tables.mb_of(tc, nc)
                    );
                }
            }
            eprintln!(
                "   chosen {} E_pred={:.6} t_pred={:.6}",
                self.models.space.label(outcome.config),
                outcome.energy_j,
                tables.time_s(outcome.config)
            );
        }
        let task_time_s = tables.time_s(outcome.config);
        let batch = if task_time_s < self.coarsen_threshold_s && task_time_s > 0.0 {
            ((self.coarsen_threshold_s / task_time_s).ceil() as u64).clamp(1, 64)
        } else {
            1
        };
        self.selected
            .insert(ctx.graph.kernel(kernel).name.clone(), outcome.config);
        self.kernels[kernel.index()] = Some(KernelState::Ready {
            config: outcome.config,
            batch,
            since_request: 0,
        });
    }
}

impl Scheduler for ModelSched {
    fn name(&self) -> &str {
        &self.name
    }

    fn place(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId) -> Placement {
        let kernel = ctx.graph.kernel_of(task);
        self.ensure_kernel(ctx, kernel);
        match self.kernels[kernel.index()].as_mut().expect("ensured") {
            KernelState::Sampling(sampler) => {
                if let Some(cell) = sampler.next_cell() {
                    let placement = sampler.placement_for(cell);
                    self.inflight.insert(task, (kernel, cell));
                    placement
                } else {
                    // All cells are in flight but the kernel is not finalized
                    // yet: run like the baseline until predictions exist.
                    Placement::anywhere()
                }
            }
            KernelState::Ready {
                config,
                batch,
                since_request,
                ..
            } => {
                let width = self.models.space.nc_count(config.tc, config.nc);
                let request = *since_request % *batch == 0;
                *since_request += 1;
                if request {
                    Placement::throttled(config.tc, width, config.fc, config.fm)
                } else {
                    Placement::on(config.tc, width)
                }
            }
        }
    }

    fn revise(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId, current: Placement) -> Placement {
        // The map is empty outside a kernel's sampling phase: skip hashing.
        if !self.inflight.is_empty() && self.inflight.contains_key(&task) {
            return current; // already carries a sampling assignment
        }
        let kernel = ctx.graph.kernel_of(task);
        self.ensure_kernel(ctx, kernel);
        match self.kernels[kernel.index()].as_mut().expect("ensured") {
            KernelState::Sampling(sampler) => {
                if let Some(cell) = sampler.next_cell() {
                    let placement = sampler.placement_for(cell);
                    self.inflight.insert(task, (kernel, cell));
                    placement
                } else {
                    current
                }
            }
            KernelState::Ready {
                config,
                batch,
                since_request,
            } => {
                let width = self.models.space.nc_count(config.tc, config.nc);
                if current.tc == Some(config.tc) && current.width == width {
                    return current; // already configured by place()
                }
                let request = *since_request % *batch == 0;
                *since_request += 1;
                if request {
                    Placement::throttled(config.tc, width, config.fc, config.fm)
                } else {
                    Placement::on(config.tc, width)
                }
            }
        }
    }

    fn task_completed(&mut self, ctx: &mut SchedCtx<'_>, sample: &ExecutedSample) {
        if self.inflight.is_empty() {
            return;
        }
        let Some((kernel, cell)) = self.inflight.remove(&sample.task) else {
            return;
        };
        let complete = {
            let Some(KernelState::Sampling(sampler)) = self.kernels[kernel.index()].as_mut() else {
                return;
            };
            sampler.record(cell, sample);
            sampler.is_complete()
        };
        if complete {
            self.finalize_kernel(ctx, kernel);
        }
    }

    fn search_evaluations(&self) -> u64 {
        self.search_evals
    }

    fn selected_configs(&self) -> BTreeMap<String, KnobConfig> {
        self.selected.clone()
    }
}
