//! The campaign executor: fan a list of [`RunSpec`]s out across OS threads
//! and collect one [`RunRecord`] per spec, in spec order.

use crate::context::ExperimentContext;
use crate::pool::{default_threads, ordered_parallel_map, ordered_parallel_stream};
use crate::record::RunRecord;
use crate::spec::RunSpec;
use joss_core::engine::SimEngine;
use joss_core::metrics::RunReport;
use joss_core::EngineArena;
use std::cell::RefCell;

/// Parallel executor for spec lists.
///
/// The expensive one-time [`ExperimentContext`] (machine + trained model
/// set) is shared across all workers — schedulers clone the `Arc`'d model
/// set, never the tables. Results are deterministic and thread-count
/// invariant: each run owns its RNG (seeded from its spec), and records come
/// back ordered by spec index, not completion order.
#[derive(Debug, Clone)]
pub struct Campaign {
    threads: usize,
}

impl Campaign {
    /// Executor using every available core.
    pub fn new() -> Self {
        Campaign {
            threads: default_threads(),
        }
    }

    /// Executor with an explicit worker count (>= 1).
    pub fn with_threads(threads: usize) -> Self {
        Campaign {
            threads: threads.max(1),
        }
    }

    /// Worker count this campaign will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute every spec; records come back in spec order.
    ///
    /// Holds every record of the grid in memory at once — fine for grids
    /// whose records are post-processed together. For large grids (or any
    /// grid with traces opted in) whose records go straight to disk, use
    /// [`Campaign::run_streaming`] instead.
    pub fn run(&self, ctx: &ExperimentContext, specs: Vec<RunSpec>) -> Vec<RunRecord> {
        let tid = campaign_started();
        ordered_parallel_map(self.threads, &specs, |index, spec| {
            run_spec_traced(ctx, tid, index, spec)
        })
    }

    /// Execute every spec, handing each record to `sink` **in spec order**
    /// as workers finish.
    ///
    /// Only records that have finished but not yet flushed to the sink are
    /// buffered — O(threads) in practice when the sink keeps pace with the
    /// workers — so a grid's memory footprint does not scale with its spec
    /// count. This is the streaming path the `joss_sweep` CLI uses to write
    /// JSONL/CSV files. The sink runs on the calling thread and is not
    /// backpressured; keep it cheap (buffered writes), or a sink slower
    /// than all workers combined will grow the backlog.
    pub fn run_streaming(
        &self,
        ctx: &ExperimentContext,
        specs: Vec<RunSpec>,
        sink: impl FnMut(RunRecord),
    ) {
        self.run_streaming_indexed(ctx, 0, specs, sink);
    }

    /// [`Campaign::run_streaming`], with record indices offset by
    /// `index_base` — the sharded-execution entry point: a shard running
    /// specs `base..base+len` of a larger grid emits records carrying
    /// their **global** spec indices, so shard outputs concatenate
    /// byte-identically into the unsharded run (see
    /// [`crate::shard`] and [`crate::GridDesc::resolve_specs`]).
    pub fn run_streaming_indexed(
        &self,
        ctx: &ExperimentContext,
        index_base: usize,
        specs: Vec<RunSpec>,
        mut sink: impl FnMut(RunRecord),
    ) {
        let tid = campaign_started();
        ordered_parallel_stream(
            self.threads,
            &specs,
            |index, spec| run_spec_traced(ctx, tid, index_base + index, spec),
            |_, record| sink(record),
        );
    }

    /// [`Campaign::run_streaming`], with an **explicit global index per
    /// spec** — the entry point for gap-filling execution: a server that
    /// already holds some of a range's records (a content-addressed store
    /// hit) simulates only the missing specs, passing their original
    /// global indices here. `indices` must be the same length as `specs`;
    /// records stream back in `specs` order carrying `indices[i]`. A
    /// record's bytes depend on its index only through the emitted
    /// `index` field — the simulation itself is a pure function of
    /// `(spec, context)` — so records produced here are byte-identical to
    /// the same specs run via [`Campaign::run_streaming_indexed`].
    pub fn run_streaming_at(
        &self,
        ctx: &ExperimentContext,
        indices: &[usize],
        specs: Vec<RunSpec>,
        mut sink: impl FnMut(RunRecord),
    ) {
        assert_eq!(
            indices.len(),
            specs.len(),
            "one global index per spec required"
        );
        let tid = campaign_started();
        ordered_parallel_stream(
            self.threads,
            &specs,
            |index, spec| run_spec_traced(ctx, tid, indices[index], spec),
            |_, record| sink(record),
        );
    }

    /// Execute every spec, streaming records into a fallible
    /// [`RecordSink`](crate::sink::RecordSink) in spec order.
    ///
    /// The campaign itself cannot be cancelled mid-flight (workers finish
    /// their specs), but after the first sink error no further writes are
    /// attempted and that error is returned — the behaviour a network
    /// response stream needs when its client disconnects. Returns the
    /// number of records written on success.
    pub fn run_to_sink(
        &self,
        ctx: &ExperimentContext,
        specs: Vec<RunSpec>,
        sink: &mut impl crate::sink::RecordSink,
    ) -> std::io::Result<usize> {
        let mut first_err: Option<std::io::Error> = None;
        let mut written = 0usize;
        self.run_streaming(ctx, specs, |record| {
            if first_err.is_none() {
                match sink.write(&record) {
                    Ok(()) => written += 1,
                    Err(e) => first_err = Some(e),
                }
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(written),
        }
    }
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

thread_local! {
    /// Per-worker engine arena, recycled across every spec the thread runs.
    ///
    /// [`SimEngine::run_with_arena`] resets the arena at the start of each
    /// run, so recycling is behaviorally identical to building a fresh
    /// engine per spec (asserted byte-for-byte by the campaign determinism
    /// test) — it just keeps grid sweeps free of per-spec allocation.
    static ARENA: RefCell<EngineArena> = RefCell::new(EngineArena::new());
}

/// Count a campaign start and capture the calling thread's trace id so
/// worker closures (which run on pool threads without the thread-local)
/// can tag their spec spans with it. Returns 0 (untraced) when telemetry
/// is disabled — [`run_spec_traced`] skips span capture entirely then.
fn campaign_started() -> u64 {
    if joss_telemetry::enabled() {
        joss_telemetry::catalog::SWEEP_CAMPAIGNS.inc();
        joss_telemetry::trace::current()
    } else {
        0
    }
}

/// [`run_spec`] wrapped in spec-lifecycle telemetry: a `spec` span under
/// the campaign's trace, the per-spec latency histogram, and the spec
/// counter. Zero extra work when telemetry is disabled.
fn run_spec_traced(ctx: &ExperimentContext, tid: u64, index: usize, spec: &RunSpec) -> RunRecord {
    if !joss_telemetry::enabled() {
        return run_spec(ctx, index, spec);
    }
    let span = joss_telemetry::trace::Span::with_trace(tid, "spec", format!("spec={index}"));
    let record = run_spec(ctx, index, spec);
    joss_telemetry::catalog::SWEEP_SPECS.inc();
    joss_telemetry::catalog::SWEEP_SPEC_SECONDS.record_duration(span.elapsed());
    record
}

/// Execute one spec (the campaign's per-worker body, also usable serially).
pub fn run_spec(ctx: &ExperimentContext, index: usize, spec: &RunSpec) -> RunRecord {
    let mut sched = spec.scheduler.build(ctx);
    let report = ARENA.with(|arena| {
        SimEngine::run_with_arena(
            &ctx.machine,
            &spec.workload.graph,
            sched.as_mut(),
            spec.engine.to_config(),
            &mut arena.borrow_mut(),
            &ctx.models.idle,
        )
    });
    RunRecord {
        index,
        workload: spec.workload.label.clone(),
        scheduler: report.scheduler.clone(),
        kind: spec.scheduler,
        seed: spec.engine.seed,
        report,
    }
}

/// Convenience: run a whole grid's specs and chunk the records per workload
/// (requires the grid order [`crate::spec::SpecGrid::build`] guarantees).
pub fn records_per_workload(
    records: Vec<RunRecord>,
    runs_per_workload: usize,
) -> Vec<Vec<RunRecord>> {
    assert!(runs_per_workload > 0);
    assert_eq!(records.len() % runs_per_workload, 0);
    let mut out = Vec::with_capacity(records.len() / runs_per_workload);
    let mut it = records.into_iter();
    loop {
        let chunk: Vec<RunRecord> = it.by_ref().take(runs_per_workload).collect();
        if chunk.is_empty() {
            return out;
        }
        out.push(chunk);
    }
}

/// Split grid-ordered records into per-workload `(label, reports)` rows,
/// returning the scheduler column names from the first workload's records —
/// the figure-table shape every suite × scheduler grid post-processes into.
pub fn rows_by_workload(
    records: Vec<RunRecord>,
    runs_per_workload: usize,
) -> (Vec<String>, Vec<(String, Vec<RunReport>)>) {
    let schedulers = records
        .iter()
        .take(runs_per_workload)
        .map(|r| r.scheduler.clone())
        .collect();
    let rows = records_per_workload(records, runs_per_workload)
        .into_iter()
        .map(|chunk| {
            (
                chunk[0].workload.clone(),
                chunk.into_iter().map(|r| r.report).collect(),
            )
        })
        .collect();
    (schedulers, rows)
}
