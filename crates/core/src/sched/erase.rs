//! ERASE (paper §6.2 comparator): energy-efficient task mapping without
//! DVFS.
//!
//! ERASE combines an *online history-based performance model* — measured
//! execution times per `<TC, NC>` — with an *offline categorized CPU power
//! model*, and picks the `<TC, NC>` that minimizes CPU energy (dynamic +
//! attributed idle). It never touches the DVFS knobs: everything runs at the
//! maximum frequencies.
//!
//! The offline power table here is derived from the same platform
//! characterization the other model-based schedulers use: the mean predicted
//! CPU dynamic power per `<TC,NC>` at maximum frequency across the
//! memory-boundness range (a coarse "category average", substituting for
//! ERASE's workload-category tables).

use crate::placement::{ExecutedSample, Placement};
use crate::sampling::KernelSampler;
use crate::sched::{SchedCtx, Scheduler};
use joss_dag::{KernelId, TaskId};
use joss_models::ModelSet;
use joss_platform::{KnobConfig, NcIndex};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The ERASE scheduler.
pub struct EraseSched {
    models: Arc<ModelSet>,
    /// Offline CPU power table: mean dynamic watts per dense `<TC,NC>` at
    /// maximum frequency.
    offline_cpu_w: Vec<f64>,
    kernels: Vec<Option<KernelState>>,
    inflight: HashMap<TaskId, (KernelId, usize)>,
    selected: BTreeMap<String, KnobConfig>,
    search_evals: u64,
}

enum KernelState {
    Sampling(KernelSampler),
    Ready { config: KnobConfig },
}

impl EraseSched {
    /// Build from a trained model set.
    pub fn new(models: Arc<ModelSet>) -> Self {
        let fc_max_ghz = models.space.fc_ghz(models.space.fc_max());
        let offline_cpu_w = models
            .indexer()
            .iter()
            .map(|(tc, nc)| {
                // Category-average power: mean over the MB range.
                let m = &models.models(tc, nc).cpu;
                let grid = [0.05, 0.25, 0.5, 0.75, 0.95];
                grid.iter()
                    .map(|&mb| m.predict_w(mb, fc_max_ghz))
                    .sum::<f64>()
                    / grid.len() as f64
            })
            .collect();
        EraseSched {
            models,
            offline_cpu_w,
            kernels: Vec::new(),
            inflight: HashMap::new(),
            selected: BTreeMap::new(),
            search_evals: 0,
        }
    }

    fn ensure_kernel(&mut self, ctx: &SchedCtx<'_>, kernel: KernelId) {
        if self.kernels.len() < ctx.graph.n_kernels() {
            self.kernels.resize_with(ctx.graph.n_kernels(), || None);
        }
        if self.kernels[kernel.index()].is_none() {
            let max_width = ctx.graph.kernel(kernel).max_width;
            let sampler = KernelSampler::max_freq_plan(&self.models.space, max_width);
            self.kernels[kernel.index()] = Some(KernelState::Sampling(sampler));
        }
    }

    fn finalize_kernel(&mut self, ctx: &SchedCtx<'_>, kernel: KernelId) {
        let Some(KernelState::Sampling(sampler)) = &self.kernels[kernel.index()] else {
            return;
        };
        let space = &self.models.space;
        let fc_max = space.fc_max();
        let fm_max = space.fm_max();
        let observed = ctx.running_tasks.max(1) as f64;
        let mut best: Option<(KnobConfig, f64)> = None;
        for (cell, c) in sampler.plan().iter().enumerate() {
            let Some(t) = sampler.time_of(cell) else {
                continue;
            };
            let dense = self.models.indexer().index(c.tc, c.nc);
            let idle = self.models.idle.cluster_idle_w(c.tc, fc_max);
            // Idle is shared by at most cluster_size/width concurrent tasks.
            let cluster_cores = *space.nc_options[c.tc.index()].last().expect("non-empty") as f64;
            let conc = (cluster_cores / c.width as f64).min(observed).max(1.0);
            let e = (self.offline_cpu_w[dense] + idle / conc) * t;
            self.search_evals += 1;
            if best.is_none_or(|(_, be)| e < be) {
                best = Some((KnobConfig::new(c.tc, c.nc, fc_max, fm_max), e));
            }
        }
        let (config, _) = best.unwrap_or_else(|| {
            // Every cell failed to sample: fall back to big cores at max.
            (
                KnobConfig::new(joss_platform::CoreType::Big, NcIndex(0), fc_max, fm_max),
                0.0,
            )
        });
        self.selected
            .insert(ctx.graph.kernel(kernel).name.clone(), config);
        self.kernels[kernel.index()] = Some(KernelState::Ready { config });
    }

    /// The chosen `<TC,NC>` for a kernel once learning finished (test hook).
    pub fn chosen(&self, kernel: KernelId) -> Option<(joss_platform::CoreType, NcIndex)> {
        match self.kernels.get(kernel.index())? {
            Some(KernelState::Ready { config }) => Some((config.tc, config.nc)),
            _ => None,
        }
    }
}

impl Scheduler for EraseSched {
    fn name(&self) -> &str {
        "ERASE"
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
                    Placement::anywhere()
                }
            }
            KernelState::Ready { config } => {
                let width = self.models.space.nc_count(config.tc, config.nc);
                Placement::on(config.tc, width)
            }
        }
    }

    fn revise(&mut self, ctx: &mut SchedCtx<'_>, task: TaskId, current: Placement) -> Placement {
        // The map is empty outside a kernel's sampling phase: skip hashing.
        if !self.inflight.is_empty() && self.inflight.contains_key(&task) {
            return current;
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
            KernelState::Ready { config } => {
                let width = self.models.space.nc_count(config.tc, config.nc);
                Placement::on(config.tc, width)
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
