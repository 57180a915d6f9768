//! The JOSS benchmark: one command that runs a workload against the
//! repository's crates, checks the outputs, and prints every metric with
//! its unit.
//!
//! ```text
//! perfbench --workload <fig8_offline|serve_mix|fleet_sharded> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! With `--trace 0` it carries the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a separate traced run. The process exits
//! non-zero when any output check failed. `perfbench/NOTES.md` defines
//! every metric and why each workload exists.

mod fig8;
mod fleet;
mod replay;
mod serve_mix;
mod stats;
mod trace;

use joss_sweep::ExperimentContext;
use std::collections::BTreeMap;
use std::time::Instant;

/// Training seed and repetitions shared by the offline context and every
/// daemon, so offline and served records are byte-identical.
pub const TRAIN_SEED: u64 = 42;
pub const TRAIN_REPS: u32 = 10;
/// Campaign worker threads (the host the benchmark targets has 2 cores).
pub const THREADS: usize = 2;

/// End-to-end metrics. Every workload reports each one; `NOTES.md` gives
/// the per-workload meaning.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("energy_ratio", "ratio"),
];

/// Per-layer metrics of the traced run, printed for every workload. A
/// layer a workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("fail_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.wall_ms", "ms"),
    ("ledger.unattributed_share", "share"),
    ("ledger.sweep_resolve_share", "share"),
    ("ledger.sweep_campaign_share", "share"),
    ("ledger.core_spec_share", "share"),
    ("ledger.sweep_encode_share", "share"),
    ("ledger.fleet_first_byte_share", "share"),
    ("ledger.fleet_stream_share", "share"),
    ("models.train_s", "s"),
    ("models.search_evals", "count"),
    ("models.search_ns", "ns"),
    ("workloads.build_s", "s"),
    ("sweep.resolve_s", "s"),
    ("sweep.encode_s", "s"),
    ("sweep.parallel_efficiency", "share"),
    ("sweep.first_record_ms", "ms"),
    ("core.spec_s.GRWS", "s"),
    ("core.spec_s.ERASE", "s"),
    ("core.spec_s.Aequitas", "s"),
    ("core.spec_s.STEER", "s"),
    ("core.spec_s.JOSS", "s"),
    ("core.spec_s.JOSS_NoMemDVFS", "s"),
    ("core.tasks_per_s", "1/s"),
    ("core.tasks", "count"),
    ("core.steals", "count"),
    ("core.dvfs_transitions", "count"),
    ("core.mold_timeouts", "count"),
    ("platform.execute_calls", "count"),
    ("platform.execute_ns", "ns"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.store_spec_hit_ratio", "share"),
    ("serve.shed_503", "count"),
    ("serve.queue_depth_peak", "count"),
    ("fleet.steals", "count"),
    ("fleet.stolen_specs", "count"),
    ("fleet.merge_buffer_peak", "count"),
    ("fleet.backend_busy_share", "share"),
    ("fleet.balance", "ratio"),
];

/// Per-layer metrics only the open-loop `serve_mix` workload measures;
/// they are printed only when measured.
const SERVE_MIX_LAYER: &[(&str, &str)] = &[
    ("ledger.serve_gen_wait_share", "share"),
    ("ledger.serve_head_share", "share"),
    ("ledger.serve_body_share", "share"),
    ("serve.hit_head_ms", "ms"),
    ("serve.miss_head_ms", "ms"),
    ("serve.miss_body_ms", "ms"),
    ("serve.gen_lateness_p50_ms", "ms"),
    ("serve.gen_lateness_max_ms", "ms"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one checked operation; a failed check prints why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] CHECK FAILED: {}", what());
        }
    }
}

/// SplitMix64: the benchmark's input generator. Every input a workload
/// sends to the program is drawn from one of these, seeded by `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Train the shared context, returning it with its training time.
pub fn train() -> (ExperimentContext, f64) {
    let t0 = Instant::now();
    let ctx = ExperimentContext::with_reps(TRAIN_SEED, TRAIN_REPS);
    (ctx, t0.elapsed().as_secs_f64())
}

/// Geometric mean over workloads of JOSS total energy over GRWS total
/// energy, read from JSONL record bytes (each workload needs both
/// schedulers at one seed; others are ignored). `None` when no workload
/// has both.
pub fn joss_energy_ratio(jsonl: &[u8]) -> Option<f64> {
    let text = std::str::from_utf8(jsonl).ok()?;
    let mut energy: BTreeMap<(String, u64, String), f64> = BTreeMap::new();
    for line in text.lines() {
        let v = joss_sweep::json::parse(line).ok()?;
        let field = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
        let seed = v.get("seed").and_then(|x| x.as_u64())?;
        let total = v.get("total_j").and_then(|x| x.as_f64())?;
        energy.insert((field("workload")?, seed, field("scheduler")?), total);
    }
    let ratios: Vec<f64> = energy
        .iter()
        .filter(|((_, _, s), _)| s == "JOSS")
        .filter_map(|((w, seed, _), joss)| {
            energy
                .get(&(w.clone(), *seed, "GRWS".to_string()))
                .map(|grws| joss / grws)
        })
        .collect();
    (!ratios.is_empty()).then(|| stats::geo_mean(&ratios))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <fig8_offline|serve_mix|fleet_sharded> \
                 --seed N --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let tracer = trace::Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "fig8_offline" => fig8::run(&args, &tracer),
        "serve_mix" => serve_mix::run(&args, &tracer),
        "fleet_sharded" => fleet::run(&args, &tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if args.trace {
        write_trace(&args, &tracer);
        report.set(
            "fail_share",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
    }
    // End-to-end metrics must all be measured; per-layer metrics of a
    // bypassed layer read 0, and serve_mix's own extras print when set.
    let rows: Vec<(&str, &str, Option<f64>)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    unit,
                    Some(report.metrics.get(name).copied().unwrap_or(0.0)),
                )
            })
            .chain(
                SERVE_MIX_LAYER
                    .iter()
                    .filter(|(name, _)| report.metrics.contains_key(name))
                    .map(|&(name, unit)| (name, unit, report.metrics.get(name).copied())),
            )
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, report.metrics.get(name).copied()))
            .collect()
    };
    let mut failed = report.failed;
    let mut metrics = String::new();
    for (i, (name, unit, value)) in rows.into_iter().enumerate() {
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                eprintln!("[perfbench] CHECK FAILED: metric {name} is not finite ({v})");
                failed += 1;
                0.0
            }
            None => {
                eprintln!("[perfbench] CHECK FAILED: metric {name} was not measured");
                failed += 1;
                0.0
            }
        };
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        report.attempted.max(1)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Write the traced run's spans under `target/perfbench/` in the working
/// directory (best effort: a trace file is a by-product, not a result).
fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let dir = std::path::Path::new("target").join("perfbench");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
        Err(e) => eprintln!(
            "[perfbench] could not write spans to {}: {e}",
            path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn energy_ratio_pairs_joss_with_grws() {
        let jsonl = b"{\"workload\":\"A\",\"scheduler\":\"GRWS\",\"seed\":1,\"total_j\":2.0}\n\
{\"workload\":\"A\",\"scheduler\":\"JOSS\",\"seed\":1,\"total_j\":1.0}\n\
{\"workload\":\"B\",\"scheduler\":\"GRWS\",\"seed\":1,\"total_j\":4.0}\n\
{\"workload\":\"B\",\"scheduler\":\"JOSS\",\"seed\":1,\"total_j\":2.0}\n\
{\"workload\":\"C\",\"scheduler\":\"JOSS\",\"seed\":1,\"total_j\":9.0}\n";
        assert!((joss_energy_ratio(jsonl).unwrap() - 0.5).abs() < 1e-12);
        assert!(joss_energy_ratio(b"").is_none());
    }
}
