//! `serve_mix`: an open loop against one in-process `joss-serve` daemon.
//!
//! The reactor, HTTP parsing, admission, the results cache and the spec
//! store do most of the work; the engine runs only small grids. The mix,
//! drawn from `--seed`:
//!
//! * ~80% exact repeats of a catalog of small Fig. 8 grids with Zipf
//!   popularity. The catalog holds more grids than the daemon's default
//!   64-entry results cache, so eviction shows;
//! * ~10% sub-ranges of catalog grids cut at fresh offsets (the shard
//!   slicing and store splice path);
//! * ~10% grids with a fresh seed, which must simulate.
//!
//! Requests go out on a schedule (Poisson arrivals) over two pipelined
//! keep-alive connections, whether or not earlier ones have answered, and
//! each is timed from its due time, so a stall shows in every request
//! queued behind it. `loadgen::run` is not used: it starts a request's
//! clock after its pacing sleep and would hide exactly those stalls.
//! The loop runs at three fixed offered rates; latency metrics are read at
//! the middle one, goodput is the highest rate that meets the limit.

use crate::stats::{goodput, median, percentile, tail, Rung};
use crate::trace::{ledger_metrics, Tracer, ROOT};
use crate::{joss_energy_ratio, replay, train, Args, Report, Rng, THREADS, TRAIN_REPS, TRAIN_SEED};
use joss_serve::http::{self, ChunkedReader};
use joss_serve::{client, ServeConfig, Server, ServerHandle};
use joss_sweep::{ExperimentContext, GridDesc, SchedulerKind, SpecRange};
use joss_workloads::{fig8_labels, Scale};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Catalog size: more grids than the daemon's 64-entry results cache, and
/// 21 labels × 4 extra schedulers, so every (label, scheduler) pair
/// appears exactly once and every seed's catalog costs the same mix of
/// simulations.
const CATALOG: usize = 84;
/// Zipf exponent of catalog popularity.
const ZIPF_S: f64 = 1.0;
/// Scale of every grid in the mix.
const SCALE: Scale = Scale::Divided(400);
/// Aequitas slice at that scale (`joss_repro`'s rule: 1/divisor, ≥ 5 ms).
const AEQUITAS_SLICE_S: f64 = 0.005;
/// Offered rates of the ladder, requests per second. On a 2-core host the
/// mix's capacity is about 8-11k req/s; the middle rate keeps the daemon
/// and the client at about 30% of the two cores, and the top rate is well
/// above capacity.
const RATES: [f64; 3] = [500.0, 1500.0, 20000.0];
/// Share of the run each rung gets; latency metrics come from the middle.
const RUNG_SHARE: [f64; 3] = [0.2, 0.6, 0.2];
/// Sub-windows of each rung. Latency metrics are medians over them, so
/// one host stall (tens of ms on a shared 2-core host) moves a single
/// window, not the reported figure. In a 45 s run a middle-rate window
/// holds about 1000 requests, so the tail rule lands near p98.9 in each.
const SUB_WINDOWS: usize = 40;
/// The p99 latency limit goodput is judged against, ms.
const LIMIT_MS: f64 = 50.0;
/// Largest number of requests in flight per connection; past it the
/// generator waits (and runs late).
const WINDOW: usize = 512;
/// Load connections.
const CONNS: usize = 2;
/// Daemon boots timed for `setup_s` before the first rung and again
/// (spare daemons, stopped at once) after every rung, so the reported
/// median spans the whole run.
const SETUPS: usize = 5;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Repeat,
    Sub,
    Fresh,
}

/// One scheduled request.
struct Req {
    due_s: f64,
    kind: Kind,
    desc: GridDesc,
    wire: Vec<u8>,
    /// Expected body (repeats and sub-ranges), `None` for fresh grids.
    expect: Option<Arc<[u8]>>,
}

/// What came back for one request.
struct Done {
    seq: usize,
    ok: bool,
    hit: bool,
    due: Instant,
    send: Instant,
    first: Instant,
    done: Instant,
    request_id: String,
    /// Fresh-grid bodies are verified after the window.
    body: Option<Vec<u8>>,
}

impl Done {
    /// Latency from the due time; a failed request is infinitely late.
    fn latency_ms(&self) -> f64 {
        if self.ok {
            ms(self.done - self.due)
        } else {
            f64::INFINITY
        }
    }
}

struct Catalog {
    grids: Vec<GridDesc>,
    /// Offline reference bytes per grid, one entry per record line.
    lines: Vec<Vec<Arc<[u8]>>>,
    bodies: Vec<Arc<[u8]>>,
    zipf_cdf: Vec<f64>,
}

/// Catalog grid `i`: one benchmark label (the catalog cycles through all
/// 21 from a seeded offset) under GRWS, JOSS, and one of the other four
/// schedulers.
fn catalog_grid(labels: &[String], i: usize, offset: usize, seed: u64) -> GridDesc {
    let extra = [
        SchedulerKind::Erase,
        SchedulerKind::Aequitas(AEQUITAS_SLICE_S),
        SchedulerKind::Steer,
        SchedulerKind::JossNoMemDvfs,
    ];
    GridDesc {
        workloads: vec![labels[(i + offset) % labels.len()].clone()],
        schedulers: vec![
            SchedulerKind::Grws,
            SchedulerKind::Joss,
            extra[i % extra.len()],
        ],
        seeds: vec![seed],
        scale: SCALE,
        record_trace: false,
        shard: None,
    }
}

fn build_catalog(report: &mut Report, ctx: &ExperimentContext, seed: u64) -> Catalog {
    let labels = fig8_labels();
    let mut rng = Rng::new(seed, 1);
    let grid_seed = rng.next_u64() >> 16;
    let offset = rng.below(labels.len());
    let grids: Vec<GridDesc> = (0..CATALOG)
        .map(|i| catalog_grid(&labels, i, offset, grid_seed))
        .collect();
    let bodies: Vec<Arc<[u8]>> = crate::fig8::offline_layers(report, ctx, &grids)
        .into_iter()
        .map(Arc::from)
        .collect();
    let lines = bodies
        .iter()
        .map(|b| b.split_inclusive(|&c| c == b'\n').map(Arc::from).collect())
        .collect();
    let weights: Vec<f64> = (1..=CATALOG).map(|k| (k as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let zipf_cdf = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    Catalog {
        grids,
        lines,
        bodies,
        zipf_cdf,
    }
}

fn request_bytes(desc: &GridDesc) -> Vec<u8> {
    let body = desc.to_canonical_json();
    format!(
        "POST /v1/campaign HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The request schedule of one rung: Poisson arrivals at `rate` for
/// `secs`, kinds and grids drawn from `rng`.
fn schedule(cat: &Catalog, rng: &mut Rng, rate: f64, secs: f64) -> Vec<Req> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            return out;
        }
        let u = rng.unit();
        let g = cat
            .zipf_cdf
            .partition_point(|&c| c < rng.unit())
            .min(CATALOG - 1);
        let base = &cat.grids[g];
        let (kind, desc, expect) = if u < 0.8 {
            (Kind::Repeat, base.clone(), Some(Arc::clone(&cat.bodies[g])))
        } else if u < 0.9 {
            let n = base.spec_count();
            let a = rng.below(n);
            let mut b = a + 1 + rng.below(n - a);
            if (a, b) == (0, n) {
                b = n - 1;
            }
            let bytes: Vec<u8> = cat.lines[g][a..b]
                .iter()
                .flat_map(|l| l.iter().copied())
                .collect();
            (
                Kind::Sub,
                base.with_shard(SpecRange::new(a, b)),
                Some(Arc::from(bytes)),
            )
        } else {
            // Fresh grids draw their shape uniformly, not by popularity,
            // so the simulated work per miss does not hinge on which
            // label the seed made most popular.
            let mut fresh = cat.grids[rng.below(CATALOG)].clone();
            fresh.seeds = vec![rng.next_u64() >> 16];
            (Kind::Fresh, fresh, None)
        };
        out.push(Req {
            due_s: t,
            kind,
            wire: request_bytes(&desc),
            desc,
            expect,
        });
    }
}

/// Read one response off a pipelined connection; returns
/// (ok, cache hit, first body byte time, request id, body).
fn read_one(
    reader: &mut BufReader<TcpStream>,
    expect: Option<&[u8]>,
) -> (bool, bool, Instant, String, Vec<u8>) {
    let (status, headers) = match http::read_response_head(reader) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("[perfbench] serve: bad response head: {e:?}");
            return (false, false, Instant::now(), String::new(), Vec::new());
        }
    };
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    let hit = header("x-joss-cache") == "hit";
    let rid = header("x-joss-request-id");
    let mut body = Vec::new();
    let mut first = None;
    let mut buf = [0u8; 16 * 1024];
    let read = if http::is_chunked(&headers) {
        let mut chunked = ChunkedReader::new(reader);
        loop {
            match chunked.read(&mut buf) {
                Ok(0) => break Ok(()),
                Ok(n) => {
                    first.get_or_insert_with(Instant::now);
                    body.extend_from_slice(&buf[..n]);
                }
                Err(e) => break Err(e),
            }
        }
    } else {
        let len: usize = header("content-length").parse().unwrap_or(0);
        body.resize(len, 0);
        let r = reader.read_exact(&mut body);
        first = Some(Instant::now());
        r
    };
    let first = first.unwrap_or_else(Instant::now);
    let ok = status == 200 && read.is_ok() && expect.is_none_or(|e| e == body.as_slice());
    if !ok {
        eprintln!(
            "[perfbench] serve: request {rid} failed: status {status}, read {:?}, body matches: {}",
            read.err(),
            expect.is_none_or(|e| e == body.as_slice())
        );
    }
    (ok, hit, first, rid, body)
}

/// Counters read from a daemon's `/stats`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerStats {
    pub cache_hits: u64,
    pub store_hits: u64,
    pub rejected_503: u64,
    pub queue_depth: u64,
}

pub fn server_stats(addr: &str) -> ServerStats {
    let resp = client::get(addr, "/stats", IO_TIMEOUT).expect("/stats answers");
    let v = joss_sweep::json::parse(&resp.body_text()).expect("/stats is JSON");
    let n = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    ServerStats {
        cache_hits: n("cache_hits"),
        store_hits: n("store_hits"),
        rejected_503: n("rejected_503"),
        queue_depth: n("executor_queue_depth"),
    }
}

/// Everything measured over one rung.
struct RungRun {
    done: Vec<Done>,
    start: Instant,
    /// Due offsets (s) of requests never sent: the generator's window
    /// was still full when the rung ended.
    unsent_due_s: Vec<f64>,
    offered_rps: f64,
    window_s: f64,
    drain_ms: f64,
    before: ServerStats,
    after: ServerStats,
    queue_peak: u64,
}

impl RungRun {
    /// Sub-window of a due offset.
    fn window_of(&self, due_s: f64) -> usize {
        ((due_s / self.window_s * SUB_WINDOWS as f64) as usize).min(SUB_WINDOWS - 1)
    }

    /// The rung's requests split by due time into [`SUB_WINDOWS`] equal
    /// windows.
    fn sub_windows(&self) -> Vec<Vec<&Done>> {
        let mut out = vec![Vec::new(); SUB_WINDOWS];
        for d in &self.done {
            out[self.window_of((d.due - self.start).as_secs_f64())].push(d);
        }
        out
    }

    /// The rung as the ladder rule sees it. Its p99 is the median over
    /// sub-windows of each window's p99, requests left unsent counting as
    /// infinitely late in the window they were due in, so a lone host
    /// stall does not decide goodput.
    fn rung(&self) -> Rung {
        let mut windows: Vec<Vec<f64>> = self
            .sub_windows()
            .iter()
            .map(|w| w.iter().map(|d| d.latency_ms()).collect())
            .collect();
        for &due_s in &self.unsent_due_s {
            windows[self.window_of(due_s)].push(f64::INFINITY);
        }
        let p99s: Vec<f64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, 99.0))
            .collect();
        Rung {
            offered_rps: self.offered_rps,
            achieved_rps: self.done.iter().filter(|d| d.ok).count() as f64 / self.window_s,
            p99_ms: median(&p99s),
            backlog_ok: Rung::backlog_ok(self.drain_ms, self.unsent_due_s.len(), LIMIT_MS),
        }
    }
}

/// Drive one rung over fresh connections.
fn run_rung(
    addr: &str,
    reqs: &[Req],
    rate: f64,
    secs: f64,
    tracer: &Tracer,
    traced: bool,
    key0: u64,
) -> RungRun {
    let before = server_stats(addr);
    let stop_monitor = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let outstanding: Vec<AtomicUsize> = (0..CONNS).map(|_| AtomicUsize::new(0)).collect();
    let mut unsent_due_s = Vec::new();
    let mut done: Vec<Done> = Vec::with_capacity(reqs.len());
    let start = Instant::now();
    let mut last_due = start;
    std::thread::scope(|scope| {
        if traced {
            scope.spawn(|| {
                while !stop_monitor.load(Ordering::Relaxed) {
                    peak.fetch_max(server_stats(addr).queue_depth, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for c in 0..CONNS {
            let stream = TcpStream::connect(addr).expect("connect to the daemon");
            stream.set_nodelay(true).expect("nodelay");
            stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .expect("read timeout");
            stream
                .set_write_timeout(Some(IO_TIMEOUT))
                .expect("write timeout");
            let mut reader =
                BufReader::with_capacity(64 * 1024, stream.try_clone().expect("clone socket"));
            writers.push(stream);
            let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
            let outstanding = &outstanding[c];
            readers.push((
                tx,
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Ok((seq, due, send)) = rx.recv() {
                        let req = &reqs[seq];
                        let (ok, hit, first, request_id, body) =
                            read_one(&mut reader, req.expect.as_deref());
                        let now = Instant::now();
                        outstanding.fetch_sub(1, Ordering::Release);
                        out.push(Done {
                            seq,
                            ok,
                            hit,
                            due,
                            send,
                            first,
                            done: now,
                            request_id,
                            body: (req.kind == Kind::Fresh).then_some(body),
                        });
                    }
                    out
                }),
            ));
        }
        let window_end = start + Duration::from_secs_f64(secs);
        for (seq, req) in reqs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(req.due_s);
            last_due = due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            // Least-loaded connection; wait (late) while both windows are full.
            let c = loop {
                let c = (0..CONNS)
                    .min_by_key(|&c| outstanding[c].load(Ordering::Acquire))
                    .expect("at least one connection");
                if outstanding[c].load(Ordering::Acquire) < WINDOW {
                    break c;
                }
                if Instant::now() >= window_end {
                    break usize::MAX;
                }
                std::thread::sleep(Duration::from_micros(100));
            };
            if c == usize::MAX {
                unsent_due_s = reqs[seq..].iter().map(|r| r.due_s).collect();
                break;
            }
            outstanding[c].fetch_add(1, Ordering::AcqRel);
            if let Err(e) = writers[c].write_all(&req.wire) {
                eprintln!("[perfbench] serve: send failed: {e}");
                outstanding[c].fetch_sub(1, Ordering::AcqRel);
                unsent_due_s = reqs[seq..].iter().map(|r| r.due_s).collect();
                break;
            }
            let send = Instant::now();
            readers[c].0.send((seq, due, send)).expect("reader alive");
        }
        for (tx, handle) in readers {
            drop(tx);
            done.extend(handle.join().expect("reader thread"));
        }
        stop_monitor.store(true, Ordering::Relaxed);
    });
    let last_done = done.iter().map(|d| d.done).max().unwrap_or(last_due);
    let drain_ms = last_done.saturating_duration_since(last_due).as_secs_f64() * 1e3;
    done.sort_by_key(|d| d.seq);
    if traced {
        for d in &done {
            let key = key0 + d.seq as u64;
            let root = tracer.id();
            tracer.record(root, ROOT, "serve.request", key, d.due, d.done);
            tracer.record(tracer.id(), root, "serve.gen_wait", key, d.due, d.send);
            tracer.record(tracer.id(), root, "serve.head", key, d.send, d.first);
            tracer.record(tracer.id(), root, "serve.body", key, d.first, d.done);
            tracer.tag(key, d.request_id.clone());
        }
    }
    RungRun {
        start,
        unsent_due_s,
        offered_rps: rate,
        window_s: secs,
        drain_ms,
        before,
        after: server_stats(addr),
        queue_peak: peak.into_inner(),
        done,
    }
}

fn boot() -> (ServerHandle, String, f64) {
    let t0 = Instant::now();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: THREADS,
        // Admission above the load connections' concurrency: the open loop
        // never has more than two campaigns in flight, so nothing is shed.
        max_inflight: 2 * CONNS,
        campaign_threads: 1,
        train_seed: TRAIN_SEED,
        reps: TRAIN_REPS,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    server.train();
    let handle = server.spawn().expect("spawn the daemon");
    let addr = handle.addr().to_string();
    client::wait_ready(&addr, IO_TIMEOUT).expect("daemon ready");
    (handle, addr, t0.elapsed().as_secs_f64())
}

/// Boot and stop [`SETUPS`] spare daemons, recording each boot time.
fn spare_boots(boots: &mut Vec<f64>) {
    for _ in 0..SETUPS {
        let (spare, _, secs) = boot();
        boots.push(secs);
        ServerHandle::stop(spare).expect("stop a spare daemon");
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let mut boots = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some((handle, _)) = daemon.take() {
            ServerHandle::stop(handle).expect("stop the daemon");
        }
        let (handle, addr, secs) = boot();
        boots.push(secs);
        daemon = Some((handle, addr));
    }
    let (handle, addr) = daemon.expect("one daemon booted");

    // Offline references (the checker's own work, untimed).
    let (ctx, train_s) = train();
    let cat = build_catalog(&mut report, &ctx, args.seed);
    for (g, body) in cat.grids.iter().zip(&cat.bodies) {
        let verified = client::verify_body(g, body);
        report.check(verified == Ok(g.spec_count()), || {
            format!("catalog reference malformed: {verified:?}")
        });
    }
    // Prime the daemon with every catalog grid once.
    let mut conn = client::Conn::connect(&addr, IO_TIMEOUT).expect("priming connection");
    for (g, body) in cat.grids.iter().zip(&cat.bodies) {
        let resp = conn.run_campaign(g).expect("priming request");
        report.check(resp.status == 200 && resp.body == **body, || {
            format!(
                "served bytes of {} differ from the offline Campaign bytes",
                g.to_canonical_json()
            )
        });
    }
    drop(conn);

    let mut rng = Rng::new(args.seed, 2);
    let rungs: Vec<RungRun> = if tracer.on() {
        // Traced runs alternate untraced and traced windows at the middle rate.
        let secs = args.seconds / 4.0;
        (0..4)
            .map(|w| {
                let reqs = schedule(&cat, &mut rng, RATES[1], secs);
                let run = run_rung(
                    &addr,
                    &reqs,
                    RATES[1],
                    secs,
                    tracer,
                    w % 2 == 1,
                    (w as u64) << 32,
                );
                verify(&mut report, &reqs, &run);
                spare_boots(&mut boots);
                run
            })
            .collect()
    } else {
        RATES
            .iter()
            .zip(RUNG_SHARE)
            .map(|(&rate, share)| {
                let secs = args.seconds * share;
                let reqs = schedule(&cat, &mut rng, rate, secs);
                let run = run_rung(&addr, &reqs, rate, secs, tracer, false, 0);
                verify(&mut report, &reqs, &run);
                spare_boots(&mut boots);
                run
            })
            .collect()
    };
    ServerHandle::stop(handle).expect("stop the daemon");

    let all_bodies: Vec<u8> = cat.bodies.iter().flat_map(|b| b.iter().copied()).collect();
    let ratio = joss_energy_ratio(&all_bodies);
    report.check(ratio.is_some(), || {
        "no JOSS/GRWS pair in the catalog".into()
    });
    report.set("setup_s", median(&boots));
    report.set("energy_ratio", ratio.unwrap_or(f64::NAN));
    report.set("models.train_s", train_s);

    if !tracer.on() {
        let mid = &rungs[1];
        let windows = mid.sub_windows();
        // Median over sub-windows; a window with no sample (no miss in it)
        // yields NaN and is left out.
        let over = |f: &dyn Fn(&[&Done]) -> f64| {
            median(
                &windows
                    .iter()
                    .map(|w| f(w))
                    .filter(|v| !v.is_nan())
                    .collect::<Vec<_>>(),
            )
        };
        let lat = |w: &[&Done], misses: bool| -> Vec<f64> {
            w.iter()
                .filter(|d| !misses || !d.hit)
                .map(|d| d.latency_ms())
                .collect()
        };
        report.set("latency_p50_ms", over(&|w| median(&lat(w, false))));
        report.set(
            "latency_tail_ms",
            over(&|w| {
                if w.is_empty() {
                    f64::NAN
                } else {
                    tail(&lat(w, false)).value
                }
            }),
        );
        report.set("miss_p50_ms", over(&|w| median(&lat(w, true))));
        let ladder: Vec<Rung> = rungs.iter().map(RungRun::rung).collect();
        let best = goodput(&ladder, LIMIT_MS);
        report.set("throughput_per_s", best.map_or(0.0, |r| r.achieved_rps));
        for r in &ladder {
            eprintln!("[perfbench] serve_mix rung {r:?}");
        }
        eprintln!(
            "[perfbench] serve_mix: middle rate {} req/s, {} requests in {SUB_WINDOWS} windows, \
             tail rule per window: {:?}, goodput {:?}",
            RATES[1],
            mid.done.len(),
            tail(&lat(&windows[0], false)),
            best
        );
        return report;
    }

    let (untraced, traced): (Vec<&RungRun>, Vec<&RungRun>) =
        rungs
            .iter()
            .enumerate()
            .fold((Vec::new(), Vec::new()), |(mut u, mut t), (i, r)| {
                if i % 2 == 1 {
                    t.push(r)
                } else {
                    u.push(r)
                }
                (u, t)
            });
    let p50 = |runs: &[&RungRun]| {
        median(
            &runs
                .iter()
                .flat_map(|r| r.done.iter().map(Done::latency_ms))
                .collect::<Vec<_>>(),
        )
    };
    report.set("trace.overhead_share", p50(&traced) / p50(&untraced) - 1.0);
    ledger_metrics(
        &mut report,
        &tracer.spans(),
        &[
            ("serve.gen_wait", "ledger.serve_gen_wait_share"),
            ("serve.head", "ledger.serve_head_share"),
            ("serve.body", "ledger.serve_body_share"),
        ],
    );
    let done: Vec<&Done> = traced.iter().flat_map(|r| r.done.iter()).collect();
    let pick = |f: &dyn Fn(&Done) -> Option<f64>| {
        median(&done.iter().filter_map(|d| f(d)).collect::<Vec<_>>())
    };
    report.set(
        "serve.hit_head_ms",
        pick(&|d| d.hit.then(|| ms(d.first - d.send))),
    );
    report.set(
        "serve.miss_head_ms",
        pick(&|d| (!d.hit).then(|| ms(d.first - d.send))),
    );
    report.set(
        "serve.miss_body_ms",
        pick(&|d| (!d.hit).then(|| ms(d.done - d.first))),
    );
    let lateness: Vec<f64> = done.iter().map(|d| ms(d.send - d.due)).collect();
    report.set("serve.gen_lateness_p50_ms", median(&lateness));
    report.set(
        "serve.gen_lateness_max_ms",
        lateness.iter().cloned().fold(0.0, f64::max),
    );
    let delta = |f: &dyn Fn(&ServerStats) -> u64| {
        traced
            .iter()
            .map(|r| f(&r.after) - f(&r.before))
            .sum::<u64>() as f64
    };
    report.set(
        "serve.cache_hit_ratio",
        delta(&|s| s.cache_hits) / done.len() as f64,
    );
    let cache_misses = done.len() as f64 - delta(&|s| s.cache_hits);
    report.set(
        "serve.store_spec_hit_ratio",
        delta(&|s| s.store_hits) / cache_misses.max(1.0),
    );
    report.set("serve.shed_503", delta(&|s| s.rejected_503));
    report.set(
        "serve.queue_depth_peak",
        traced.iter().map(|r| r.queue_peak).max().unwrap_or(0) as f64,
    );

    let labels: Vec<String> = cat.grids.iter().flat_map(|g| g.workloads.clone()).collect();
    replay::report(&mut report, &ctx, &labels, SCALE);
    report
}

/// Check every response of a rung: cached and sub-range bodies were
/// compared byte for byte as they arrived; fresh grids pass
/// `client::verify_body` here.
fn verify(report: &mut Report, reqs: &[Req], run: &RungRun) {
    for d in &run.done {
        let req = &reqs[d.seq];
        let mut ok = d.ok;
        if let Some(body) = &d.body {
            let verified = client::verify_body(&req.desc, body);
            ok &= verified == Ok(req.desc.run_count());
        }
        report.check(ok, || {
            format!("{:?} request {} ({})", req.kind, d.seq, d.request_id)
        });
    }
}
