//! `fleet_sharded`: a closed loop of campaigns, one at a time, through a
//! resident `FleetSession` over two in-process backends with one campaign
//! thread each.
//!
//! Each campaign is the Fig. 8 grid at a tenth of full scale with a fresh
//! seed drawn from `--seed`, so every spec misses every cache and store.
//! It is the only workload that runs the coordinator, range stealing, and
//! the ordered merge; it runs the same engine work as `fig8_offline`, so
//! the gap between the two prices the distribution layers.

use crate::fig8::{grid, offline_layers};
use crate::serve_mix::{server_stats, ServerStats};
use crate::stats::{median, tail};
use crate::trace::{ledger_metrics, Tracer, ROOT};
use crate::{joss_energy_ratio, replay, train, Args, Report, Rng, TRAIN_REPS, TRAIN_SEED};
use joss_fleet::{spawn_local_backends_with, FleetConfig, FleetReport, FleetSession};
use joss_serve::{client, ServeConfig, ServerHandle};
use joss_sweep::GridDesc;
use joss_workloads::Scale;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const BACKENDS: usize = 2;
/// A tenth of full scale: a few hundred ms per campaign on a 2-core host.
const SCALE: Scale = Scale::Divided(10);
/// Aequitas slice at that scale (`joss_repro`'s rule: 1/divisor).
const AEQUITAS_SLICE_S: f64 = 0.1;
/// Fleet boots timed before the first campaign for `setup_s`; a spare
/// fleet is booted and stopped after every [`BOOT_EVERY`]th campaign, so
/// the reported median spans the whole run.
const SETUPS: usize = 5;
const BOOT_EVERY: usize = 8;
/// Leading campaigns whose merged bytes are compared with offline bytes
/// (every campaign passes `client::verify_body`).
const VERIFIED: usize = 3;

/// Merged output with the time its first byte arrived.
struct Stamped {
    bytes: Vec<u8>,
    first: Option<Instant>,
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !buf.is_empty() {
            self.first.get_or_insert_with(Instant::now);
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct CampaignRun {
    desc: GridDesc,
    start: Instant,
    first: Instant,
    end: Instant,
    traced: bool,
    report: Option<FleetReport>,
    bytes: Vec<u8>,
}

impl CampaignRun {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

fn boot() -> (Vec<ServerHandle>, FleetConfig, f64) {
    let t0 = Instant::now();
    let template = ServeConfig {
        workers: 2,
        max_inflight: 2,
        campaign_threads: 1,
        train_seed: TRAIN_SEED,
        reps: TRAIN_REPS,
        ..ServeConfig::default()
    };
    let handles = spawn_local_backends_with(BACKENDS, &template, true).expect("spawn backends");
    let config = FleetConfig {
        expect_train_seed: Some(TRAIN_SEED),
        expect_reps: Some(TRAIN_REPS),
        ..FleetConfig::new(handles.iter().map(|h| h.addr().to_string()).collect())
    };
    drop(FleetSession::connect(&config).expect("fleet session"));
    (handles, config, t0.elapsed().as_secs_f64())
}

/// Run `f` while polling every backend's `/stats` every 20 ms; returns
/// `f`'s result and the peak executor queue depth seen.
fn with_queue_monitor<R>(backends: &[String], f: impl FnOnce() -> R) -> (R, u64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                for addr in backends {
                    peak = peak.max(server_stats(addr).queue_depth);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        let out = f();
        done.store(true, Ordering::Relaxed);
        (out, monitor.join().expect("queue monitor"))
    })
}

fn stop(handles: Vec<ServerHandle>) {
    for h in handles {
        h.stop().expect("stop a backend");
    }
}

pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    // Each boot spawns and trains both backends and opens a session; the
    // session that carries the load is the last boot's, dialed again.
    let mut boots = Vec::with_capacity(SETUPS);
    let mut fleet = None;
    for _ in 0..SETUPS {
        if let Some((handles, _)) = fleet.take() {
            stop(handles);
        }
        let (handles, config, secs) = boot();
        boots.push(secs);
        fleet = Some((handles, config));
    }
    let (handles, config) = fleet.expect("one fleet booted");
    let session = FleetSession::connect(&config).expect("fleet session");

    let mut rng = Rng::new(args.seed, 3);
    let stats_before: Vec<ServerStats> = config.backends.iter().map(|a| server_stats(a)).collect();
    let busy_before = joss_telemetry::catalog::SWEEP_SPEC_SECONDS.snapshot().sum;
    let start = Instant::now();
    // Time spent booting spare fleets, which is not campaign time.
    let mut paused_s = 0.0;
    let mut queue_peak = 0u64;
    let mut campaigns: Vec<CampaignRun> = Vec::new();
    while start.elapsed().as_secs_f64() - paused_s < args.seconds || campaigns.len() < VERIFIED {
        let desc = grid(rng.next_u64() >> 16, SCALE, AEQUITAS_SLICE_S);
        let traced = tracer.on() && campaigns.len() % 2 == 1;
        let mut out = Stamped {
            bytes: Vec::with_capacity(desc.spec_count() * 320),
            first: None,
        };
        let t0 = Instant::now();
        let result = if traced {
            // Traced campaigns also poll each backend's executor queue.
            let (result, peak) =
                with_queue_monitor(&config.backends, || session.run(&desc, &mut out));
            queue_peak = queue_peak.max(peak);
            result
        } else {
            session.run(&desc, &mut out)
        };
        let end = Instant::now();
        if let Err(e) = &result {
            eprintln!("[perfbench] fleet campaign failed: {e}");
        }
        campaigns.push(CampaignRun {
            desc,
            start: t0,
            first: out.first.unwrap_or(end),
            end,
            traced,
            report: result.ok(),
            bytes: out.bytes,
        });
        if campaigns.len().is_multiple_of(BOOT_EVERY) {
            let t = Instant::now();
            let (spare, _, secs) = boot();
            boots.push(secs);
            stop(spare);
            paused_s += t.elapsed().as_secs_f64();
        }
    }
    let window_s = start.elapsed().as_secs_f64() - paused_s;
    let busy_us = joss_telemetry::catalog::SWEEP_SPEC_SECONDS.snapshot().sum - busy_before;
    let stats_after: Vec<ServerStats> = config.backends.iter().map(|a| server_stats(a)).collect();
    drop(session);
    stop(handles);

    for c in &campaigns {
        let verified = client::verify_body(&c.desc, &c.bytes);
        report.check(
            c.report.is_some() && verified == Ok(c.desc.spec_count()),
            || format!("fleet campaign malformed: {verified:?}"),
        );
    }
    let (ctx, train_s) = train();
    let grids: Vec<GridDesc> = campaigns[..VERIFIED]
        .iter()
        .map(|c| c.desc.clone())
        .collect();
    let references = offline_layers(&mut report, &ctx, &grids);
    for (c, reference) in campaigns.iter().zip(&references) {
        report.check(&c.bytes == reference, || {
            "fleet-merged bytes differ from the offline bytes".into()
        });
    }

    let untraced: Vec<f64> = campaigns
        .iter()
        .filter(|c| !c.traced)
        .map(CampaignRun::ms)
        .collect();
    let ratio = joss_energy_ratio(&references.concat());
    report.check(ratio.is_some(), || {
        "no JOSS/GRWS pair in the campaigns".into()
    });
    report.set("setup_s", median(&boots));
    report.set("latency_p50_ms", median(&untraced));
    report.set("latency_tail_ms", tail(&untraced).value);
    report.set("miss_p50_ms", median(&untraced));
    let specs: usize = campaigns.iter().map(|c| c.desc.spec_count()).sum();
    report.set("throughput_per_s", specs as f64 / window_s);
    report.set("energy_ratio", ratio.unwrap_or(f64::NAN));
    report.set("models.train_s", train_s);
    eprintln!(
        "[perfbench] fleet_sharded: {} campaigns, p50 {:.1} ms, tail {:?}, setup {:.4} s",
        campaigns.len(),
        median(&untraced),
        tail(&untraced),
        median(&boots)
    );
    if !tracer.on() {
        return report;
    }

    let traced: Vec<&CampaignRun> = campaigns.iter().filter(|c| c.traced).collect();
    for (i, c) in traced.iter().enumerate() {
        let root = tracer.id();
        tracer.record(root, ROOT, "fleet.campaign", i as u64, c.start, c.end);
        tracer.record(
            tracer.id(),
            root,
            "fleet.first_byte",
            i as u64,
            c.start,
            c.first,
        );
        tracer.record(tracer.id(), root, "fleet.stream", i as u64, c.first, c.end);
    }
    let traced_ms: Vec<f64> = traced.iter().map(|c| c.ms()).collect();
    report.set(
        "trace.overhead_share",
        median(&traced_ms) / median(&untraced) - 1.0,
    );
    ledger_metrics(
        &mut report,
        &tracer.spans(),
        &[
            ("fleet.first_byte", "ledger.fleet_first_byte_share"),
            ("fleet.stream", "ledger.fleet_stream_share"),
        ],
    );
    let reports: Vec<&FleetReport> = campaigns.iter().filter_map(|c| c.report.as_ref()).collect();
    let per_campaign = |f: &dyn Fn(&FleetReport) -> usize| {
        reports.iter().map(|r| f(r)).sum::<usize>() as f64 / reports.len() as f64
    };
    report.set(
        "sweep.first_record_ms",
        median(
            &traced
                .iter()
                .map(|c| (c.first - c.start).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("fleet.steals", per_campaign(&|r| r.steals));
    report.set("fleet.stolen_specs", per_campaign(&|r| r.stolen_specs));
    report.set(
        "fleet.merge_buffer_peak",
        reports
            .iter()
            .map(|r| r.max_buffered_lines)
            .max()
            .unwrap_or(0) as f64,
    );
    report.set(
        "fleet.backend_busy_share",
        busy_us as f64 / 1e6 / (BACKENDS as f64 * window_s),
    );
    let mut per_backend = [0usize; BACKENDS];
    for r in &reports {
        for (slot, (_, tasks)) in per_backend.iter_mut().zip(&r.completed_per_backend) {
            *slot += tasks;
        }
    }
    let ranges = per_backend.iter().sum::<usize>();
    let mean = ranges as f64 / BACKENDS as f64;
    let delta = |f: fn(&ServerStats) -> u64| {
        stats_before
            .iter()
            .zip(&stats_after)
            .map(|(b, a)| f(a) - f(b))
            .sum::<u64>() as f64
    };
    report.set(
        "serve.cache_hit_ratio",
        delta(|s| s.cache_hits) / ranges as f64,
    );
    report.set(
        "serve.store_spec_hit_ratio",
        delta(|s| s.store_hits) / (ranges as f64 - delta(|s| s.cache_hits)).max(1.0),
    );
    report.set("serve.shed_503", delta(|s| s.rejected_503));
    report.set("serve.queue_depth_peak", queue_peak as f64);
    report.set(
        "fleet.balance",
        *per_backend.iter().max().unwrap_or(&0) as f64 / mean,
    );
    replay::report(&mut report, &ctx, &grids[0].workloads, SCALE);
    report
}
