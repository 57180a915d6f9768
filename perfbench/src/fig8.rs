//! `fig8_offline`: the paper's Fig. 8 grid, regenerated offline.
//!
//! 21 benchmark instances × the six Fig. 8 schedulers at full scale and
//! the paper's seed, run as `GridDesc` (wire JSON) → `resolve_specs` →
//! `Campaign::with_threads(2).run_streaming` → JSONL bytes in memory.
//! The engine, the platform model, and the model searches do nearly all
//! the work; serve and fleet do none. The grid is fixed (the `--seed`
//! only picks which slice is re-run on one thread), so every simulated
//! number it reports repeats exactly.

use crate::stats::{median, tail};
use crate::trace::{ledger_metrics, Tracer, ROOT};
use crate::{joss_energy_ratio, replay, train, Args, Report, Rng, THREADS};
use joss_sweep::{
    ordered_parallel_stream, run_spec, Campaign, ExperimentContext, GridDesc, RunRecord,
    SchedulerKind,
};
use joss_workloads::{fig8_labels, Scale};
use std::collections::BTreeMap;
use std::time::Instant;

/// The paper's Fig. 8 seed (`joss_repro --seed` default).
const FIG8_SEED: u64 = 42;
/// Aequitas time slice at full scale, as `joss_repro --full` sets it.
const AEQUITAS_SLICE_S: f64 = 1.0;
/// Trainings timed before the first pass for `setup_s`; one more is
/// timed after every pass, so the reported median spans the whole run.
const SETUPS: usize = 5;
/// Workloads re-run on one thread for the thread-count identity check.
const SLICE_WORKLOADS: usize = 3;

/// Engine counts summed over one grid.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub tasks: u64,
    pub steals: u64,
    pub dvfs_transitions: u64,
    pub mold_timeouts: u64,
    pub search_evals: u64,
}

impl Tally {
    pub fn add(&mut self, r: &RunRecord) {
        self.tasks += r.report.tasks as u64;
        self.steals += r.report.steals;
        self.dvfs_transitions += r.report.dvfs_transitions;
        self.mold_timeouts += r.report.mold_timeouts;
        self.search_evals += r.report.search_evaluations;
    }
}

fn push_record(out: &mut Vec<u8>, r: &RunRecord) {
    out.extend_from_slice(r.to_json().as_bytes());
    out.push(b'\n');
}

/// The Fig. 8 grid description.
pub fn grid(seed: u64, scale: Scale, slice_s: f64) -> GridDesc {
    GridDesc {
        workloads: fig8_labels(),
        schedulers: SchedulerKind::fig8_set(slice_s),
        seeds: vec![seed],
        scale,
        record_trace: false,
        shard: None,
    }
}

/// One untraced pass: the path a user of the offline sweep takes.
fn pass(ctx: &ExperimentContext, wire: &str, tally: &mut Tally) -> Vec<u8> {
    let desc = GridDesc::from_json(wire).expect("the grid's own wire form parses");
    let (_, specs) = desc.resolve_specs().expect("Fig. 8 labels resolve");
    let mut bytes = Vec::with_capacity(specs.len() * 320);
    Campaign::with_threads(THREADS).run_streaming(ctx, specs, |r| {
        tally.add(&r);
        push_record(&mut bytes, &r);
    });
    bytes
}

/// Layer times of traced campaigns, summed.
#[derive(Default)]
struct Layers {
    resolve_s: f64,
    /// Pass start to the first record at the sink.
    first_record_s: f64,
    encode_s: f64,
    campaign_s: f64,
    spec_s: BTreeMap<String, f64>,
}

impl Layers {
    /// Set the sweep and core metrics for `passes` passes' worth of layer
    /// times and the engine counts of one pass.
    fn report(&self, report: &mut Report, passes: f64, tally: &Tally) {
        let spec_total: f64 = self.spec_s.values().sum();
        report.set("sweep.resolve_s", self.resolve_s / passes);
        report.set("sweep.encode_s", self.encode_s / passes);
        report.set(
            "sweep.parallel_efficiency",
            spec_total / (THREADS as f64 * self.campaign_s),
        );
        for (name, secs) in &self.spec_s {
            report.set(spec_metric(name), secs / passes);
        }
        report.set("core.tasks_per_s", tally.tasks as f64 * passes / spec_total);
        report.set("models.search_evals", tally.search_evals as f64);
        report.set("core.tasks", tally.tasks as f64);
        report.set("core.steals", tally.steals as f64);
        report.set("core.dvfs_transitions", tally.dvfs_transitions as f64);
        report.set("core.mold_timeouts", tally.mold_timeouts as f64);
        report.set("platform.execute_calls", tally.tasks as f64);
    }
}

/// One traced grid run: the same calls as [`pass`], each wrapped in a
/// span. The campaign runs on the ordered pool `Campaign` itself uses, so
/// `run_spec` calls can be wrapped one by one.
fn traced_pass(
    ctx: &ExperimentContext,
    wire: &str,
    tracer: &Tracer,
    key: u64,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Vec<u8> {
    tracer.span(ROOT, "fig8.pass", key, |root| {
        let t = Instant::now();
        let pass_start = t;
        let (base, specs) = tracer.span(root, "sweep.resolve", key, |_| {
            let desc = GridDesc::from_json(wire).expect("the grid's own wire form parses");
            desc.resolve_specs().expect("grid labels resolve")
        });
        layers.resolve_s += t.elapsed().as_secs_f64();
        let mut bytes = Vec::with_capacity(specs.len() * 320);
        let spec_times = std::sync::Mutex::new(vec![0.0f64; specs.len()]);
        let t = Instant::now();
        tracer.span(root, "sweep.campaign", key, |campaign| {
            ordered_parallel_stream(
                THREADS,
                &specs,
                |i, spec| {
                    let t = Instant::now();
                    let r = tracer.span(campaign, "core.spec", i as u64, |_| {
                        run_spec(ctx, base + i, spec)
                    });
                    spec_times.lock().expect("spec times")[i] = t.elapsed().as_secs_f64();
                    r
                },
                |i, r| {
                    let t = Instant::now();
                    if i == 0 {
                        layers.first_record_s += (t - pass_start).as_secs_f64();
                    }
                    tracer.span(campaign, "sweep.encode", i as u64, |_| {
                        push_record(&mut bytes, &r)
                    });
                    layers.encode_s += t.elapsed().as_secs_f64();
                    tally.add(&r);
                },
            );
        });
        layers.campaign_s += t.elapsed().as_secs_f64();
        let spec_times = spec_times.into_inner().expect("spec times");
        for (spec, secs) in specs.iter().zip(&spec_times) {
            *layers.spec_s.entry(spec.scheduler.to_string()).or_default() += secs;
        }
        bytes
    })
}

/// Offline reference bytes of grids that a workload sends to a daemon,
/// run through traced campaigns on this process's own context; sets the
/// sweep and core metrics from those runs, since the daemon's own calls
/// cannot be wrapped from outside.
pub fn offline_layers(
    report: &mut Report,
    ctx: &ExperimentContext,
    grids: &[GridDesc],
) -> Vec<Vec<u8>> {
    let tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let bodies = grids
        .iter()
        .enumerate()
        .map(|(i, g)| {
            traced_pass(
                ctx,
                &g.to_canonical_json(),
                &tracer,
                i as u64,
                &mut tally,
                &mut layers,
            )
        })
        .collect();
    layers.report(report, 1.0, &tally);
    bodies
}

pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let mut train_times = Vec::with_capacity(SETUPS);
    let mut ctx = None;
    for _ in 0..SETUPS {
        let (c, secs) = train();
        train_times.push(secs);
        ctx = Some(c);
    }
    let ctx = ctx.expect("at least one training");
    let desc = grid(FIG8_SEED, Scale::Full, AEQUITAS_SLICE_S);
    let wire = desc.to_canonical_json();

    // Reference pass (untimed): cold caches and the noise memo fill here.
    let mut reference_tally = Tally::default();
    let reference = pass(&ctx, &wire, &mut reference_tally);
    let verified = joss_serve::client::verify_body(&desc, &reference);
    report.check(verified == Ok(desc.spec_count()), || {
        format!("Fig. 8 records malformed: {verified:?}")
    });

    // Timed passes. Traced runs alternate untraced and traced passes so
    // the tracing overhead is measured on the same host minute.
    let start = Instant::now();
    // Time spent in the trainings timed between passes, not pass time.
    let mut paused_s = 0.0;
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers = Layers::default();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() - paused_s < args.seconds
        || walls.is_empty()
        || (tracer.on() && traced_walls.is_empty())
    {
        let traced = tracer.on() && i % 2 == 1;
        let mut tally = Tally::default();
        let t0 = Instant::now();
        let bytes = if traced {
            traced_pass(&ctx, &wire, tracer, i, &mut tally, &mut layers)
        } else {
            pass(&ctx, &wire, &mut tally)
        };
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        report.check(bytes == reference, || {
            format!("pass {i}: JSONL bytes differ from the reference pass")
        });
        report.check(tally == reference_tally, || {
            format!("pass {i}: engine counts differ from the reference pass")
        });
        let secs = train().1;
        train_times.push(secs);
        paused_s += secs;
        i += 1;
    }
    let window_s = start.elapsed().as_secs_f64() - paused_s;

    // Thread-count identity on a seed-chosen slice of workloads.
    let block = desc.schedulers.len() * desc.seeds.len();
    let first = Rng::new(args.seed, 8).below(desc.workloads.len() - SLICE_WORKLOADS + 1);
    let range = joss_sweep::SpecRange::new(first * block, (first + SLICE_WORKLOADS) * block);
    let (base, specs) = desc
        .with_shard(range)
        .resolve_specs()
        .expect("slice resolves");
    let mut serial = Vec::new();
    Campaign::with_threads(1)
        .run_streaming_indexed(&ctx, base, specs, |r| push_record(&mut serial, &r));
    let expected: Vec<u8> = reference
        .split_inclusive(|&b| b == b'\n')
        .skip(range.start)
        .take(range.len())
        .flatten()
        .copied()
        .collect();
    report.check(serial == expected, || {
        format!("1-thread slice {range} differs from the 2-thread bytes")
    });

    let ratio = joss_energy_ratio(&reference);
    report.check(ratio.is_some(), || {
        "no JOSS/GRWS pair in the Fig. 8 records".into()
    });
    let setup = median(&train_times);
    report.set("setup_s", setup);
    report.set("latency_p50_ms", median(&walls) * 1e3);
    report.set("latency_tail_ms", tail(&walls).value * 1e3);
    report.set("miss_p50_ms", median(&walls) * 1e3);
    report.set(
        "throughput_per_s",
        (walls.len() + traced_walls.len()) as f64 * desc.spec_count() as f64 / window_s,
    );
    report.set("energy_ratio", ratio.unwrap_or(f64::NAN));
    eprintln!(
        "[perfbench] fig8_offline: {} passes, wall median {:.3} s (tail rule: {:?}), setup {:.4} s, walls {:.3?}",
        walls.len(),
        median(&walls),
        tail(&walls),
        setup,
        walls
    );

    report.set("models.train_s", setup);
    if tracer.on() {
        let untraced = median(&walls);
        let traced = median(&traced_walls);
        report.set("trace.overhead_share", traced / untraced - 1.0);
        ledger_metrics(
            &mut report,
            &tracer.spans(),
            &[
                ("sweep.resolve", "ledger.sweep_resolve_share"),
                ("sweep.campaign", "ledger.sweep_campaign_share"),
                ("core.spec", "ledger.core_spec_share"),
                ("sweep.encode", "ledger.sweep_encode_share"),
            ],
        );
        layers.report(&mut report, traced_walls.len() as f64, &reference_tally);
        report.set(
            "sweep.first_record_ms",
            layers.first_record_s / traced_walls.len() as f64 * 1e3,
        );
        replay::report(&mut report, &ctx, &desc.workloads, desc.scale);
    }
    report
}

/// The `core.spec_s.<scheduler>` metric name of a Fig. 8 scheduler.
pub fn spec_metric(scheduler: &str) -> &'static str {
    match scheduler {
        "GRWS" => "core.spec_s.GRWS",
        "ERASE" => "core.spec_s.ERASE",
        "Aequitas" => "core.spec_s.Aequitas",
        "STEER" => "core.spec_s.STEER",
        "JOSS" => "core.spec_s.JOSS",
        "JOSS_NoMemDVFS" => "core.spec_s.JOSS_NoMemDVFS",
        other => panic!("{other} is not a Fig. 8 scheduler"),
    }
}
