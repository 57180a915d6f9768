//! The load generator behind `joss_loadgen`: drive a daemon with N
//! concurrent clients, verify every streamed record, and report
//! throughput + latency percentiles.
//!
//! Two drive modes:
//!
//! * **closed loop** (default): each client issues its next request the
//!   moment the previous response finishes — measures saturation
//!   throughput;
//! * **open loop** (`target_rate`): request *starts* are paced on a fixed
//!   schedule spread across clients, independent of completions —
//!   measures latency at a controlled offered load. Each request's
//!   latency is timed from its due slot, so a client whose response is
//!   still streaming when its next slot arrives fires late and that wait
//!   counts in the late request's latency (no coordinated omission).
//!
//! Connections are **reused by default** (HTTP/1.1 keep-alive): each
//! client holds one connection and pipelines its requests down it
//! back-to-back, optionally recycling after `requests_per_conn` exchanges.
//! `keep_alive: false` restores the dial-per-request behaviour — the A/B
//! baseline for measuring what connection reuse buys. The report carries
//! the dial count so reuse is visible (`ok / connections` = exchanges per
//! connection).
//!
//! A `503` answer is load shedding, not failure: the client honours
//! `Retry-After` and retries the same request (configurable), and the
//! report counts every shed. Latency is measured per *request*, first
//! attempt (open loop: due slot) to final byte, so shed-and-retry shows
//! up as tail latency — exactly what a real client would experience.

use crate::client;
use joss_sweep::GridDesc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What to drive, how hard, and how carefully to check it.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// The grid each request submits.
    pub desc: GridDesc,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Open-loop aggregate request-start rate (req/s); `None` = closed loop.
    pub target_rate: Option<f64>,
    /// Verify every streamed record (count, order, schema).
    pub verify: bool,
    /// Retry shed (503) requests after their `Retry-After`.
    pub retry_503: bool,
    /// Most 503 retries per request before it counts as an error —
    /// bounds the run against a permanently saturated daemon.
    pub max_shed_retries: usize,
    /// Give each request a unique seed list, defeating the daemon's cache
    /// (measures simulation throughput rather than memory bandwidth).
    pub vary_seeds: bool,
    /// Reuse connections across requests (HTTP/1.1 keep-alive). `false`
    /// dials per request and sends `Connection: close` — the A/B baseline.
    pub keep_alive: bool,
    /// With `keep_alive`, recycle each connection after this many
    /// exchanges (0 = never; one connection per client for the whole run).
    pub requests_per_conn: usize,
    /// Per-exchange socket timeout.
    pub timeout: Duration,
}

impl LoadgenConfig {
    /// Closed-loop config with verification on.
    pub fn new(addr: impl Into<String>, desc: GridDesc) -> Self {
        LoadgenConfig {
            addr: addr.into(),
            desc,
            clients: 1,
            requests_per_client: 1,
            target_rate: None,
            verify: true,
            retry_503: true,
            max_shed_retries: 30,
            vary_seeds: false,
            keep_alive: true,
            requests_per_conn: 0,
            timeout: Duration::from_secs(120),
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Successful (200, and verified if enabled) requests.
    pub ok: usize,
    /// 503 responses observed (each retry attempt counts one).
    pub shed_503: usize,
    /// Responses that failed verification.
    pub malformed: usize,
    /// Transport/protocol errors and non-200/503 statuses.
    pub errors: usize,
    /// Total records across successful responses.
    pub records: usize,
    /// Connections dialed (with keep-alive, many requests share one).
    pub connections: usize,
    /// Successful responses served from the daemon's cache (header).
    pub cache_hits: usize,
    /// Per-request latencies (first attempt → final byte; in open loop,
    /// due slot → final byte), sorted ascending.
    pub latencies: Vec<Duration>,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Body of the first successful response (for offline diffing).
    pub first_body: Option<Vec<u8>>,
    /// First verification failure, if any (diagnostics).
    pub first_malformation: Option<String>,
    /// The `X-Joss-Request-Id`s of the [`WORST_K`] worst-latency
    /// successful requests, worst first — the join key between a
    /// client-observed tail latency and the server's trace ring.
    pub worst: Vec<(Duration, String)>,
}

/// How many worst-latency request ids the report keeps.
pub const WORST_K: usize = 5;

impl LoadReport {
    /// Latency at percentile `p` (0–100) over successful requests.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((p / 100.0) * self.latencies.len() as f64).ceil() as usize;
        self.latencies[rank.clamp(1, self.latencies.len()) - 1]
    }

    /// Successful requests per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    /// Human summary (the `joss_loadgen` output).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "ok {} | shed(503) {} | malformed {} | errors {} | records {} | \
             cache hits {} | conns {} ({:.1} req/conn) | {:.1} req/s | \
             p50 {:.1} ms | p90 {:.1} ms | p99 {:.1} ms | max {:.1} ms",
            self.ok,
            self.shed_503,
            self.malformed,
            self.errors,
            self.records,
            self.cache_hits,
            self.connections,
            if self.connections == 0 {
                0.0
            } else {
                self.ok as f64 / self.connections as f64
            },
            self.throughput_rps(),
            self.percentile(50.0).as_secs_f64() * 1e3,
            self.percentile(90.0).as_secs_f64() * 1e3,
            self.percentile(99.0).as_secs_f64() * 1e3,
            self.latencies
                .last()
                .copied()
                .unwrap_or_default()
                .as_secs_f64()
                * 1e3,
        );
        if !self.worst.is_empty() {
            out.push_str("\nworst request ids:");
            for (latency, rid) in &self.worst {
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!(" {rid}={:.1}ms", latency.as_secs_f64() * 1e3),
                );
            }
        }
        out
    }
}

#[derive(Default)]
struct Tally {
    ok: usize,
    malformed: usize,
    errors: usize,
    records: usize,
    cache_hits: usize,
    latencies: Vec<Duration>,
    /// This client's worst-latency (latency, request id) pairs, worst
    /// first, capped at [`WORST_K`]; merged across clients in the report.
    worst: Vec<(Duration, String)>,
}

impl Tally {
    fn note_worst(&mut self, latency: Duration, request_id: Option<&str>) {
        let Some(rid) = request_id else {
            return;
        };
        self.worst.push((latency, rid.to_string()));
        self.worst
            .sort_by_key(|(latency, _)| std::cmp::Reverse(*latency));
        self.worst.truncate(WORST_K);
    }
}

/// One client's connection slot: holds the kept-alive connection between
/// requests and counts dials.
#[derive(Default)]
struct ConnSlot {
    conn: Option<client::Conn>,
    /// Exchanges completed on the current connection.
    served: usize,
    /// Connections dialed by this client.
    dials: usize,
}

impl ConnSlot {
    /// The connection for the next exchange, dialing when there is none,
    /// the daemon asked to close, or the recycle interval is up.
    fn acquire(&mut self, config: &LoadgenConfig) -> std::io::Result<&mut client::Conn> {
        let recycle = match &self.conn {
            None => true,
            Some(conn) => {
                !conn.is_reusable()
                    || (config.requests_per_conn > 0 && self.served >= config.requests_per_conn)
            }
        };
        if recycle {
            self.conn = Some(client::Conn::connect(&config.addr, config.timeout)?);
            self.dials += 1;
            self.served = 0;
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }

    /// One campaign exchange with keep-alive reuse. A failure on a
    /// *reused* connection is retried once on a fresh dial — the daemon
    /// may have reaped it as idle between exchanges, which is not a
    /// request failure.
    fn run_campaign(
        &mut self,
        config: &LoadgenConfig,
        desc: &GridDesc,
    ) -> std::io::Result<crate::http::Response> {
        for attempt in 0..2 {
            let fresh = self.conn.is_none() || self.served == 0;
            let conn = self.acquire(config)?;
            match conn.run_campaign(desc) {
                Ok(response) => {
                    self.served += 1;
                    return Ok(response);
                }
                Err(e) => {
                    self.conn = None;
                    if fresh || attempt > 0 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("loop returns on success, error, or retry exhaustion")
    }
}

/// Drive the daemon as configured and aggregate the outcome.
pub fn run(config: &LoadgenConfig) -> LoadReport {
    let first_body: Mutex<Option<Vec<u8>>> = Mutex::new(None);
    let first_malformation: Mutex<Option<String>> = Mutex::new(None);
    let shed_total = AtomicU64::new(0);
    let interval = config
        .target_rate
        .map(|rate| Duration::from_secs_f64(1.0 / rate.max(1e-9)));
    let started = Instant::now();

    let tallies: Vec<(Tally, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|client_id| {
                let first_body = &first_body;
                let first_malformation = &first_malformation;
                let shed_total = &shed_total;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut slot = ConnSlot::default();
                    for req in 0..config.requests_per_client {
                        // Open loop: global request slots are interleaved
                        // round-robin across clients, and latency runs from
                        // the due slot even when the request fires late.
                        let t0 = match interval {
                            Some(interval) => {
                                let slot = (req * config.clients.max(1) + client_id) as u32;
                                let due = started + interval * slot;
                                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                due
                            }
                            None => Instant::now(),
                        };
                        let desc = request_desc(config, client_id, req);
                        drive_one(
                            config,
                            &desc,
                            t0,
                            &mut slot,
                            &mut tally,
                            shed_total,
                            first_body,
                            first_malformation,
                        );
                    }
                    (tally, slot.dials)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen client panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut report = LoadReport {
        ok: 0,
        shed_503: shed_total.load(Ordering::Relaxed) as usize,
        malformed: 0,
        errors: 0,
        records: 0,
        connections: 0,
        cache_hits: 0,
        latencies: Vec::new(),
        elapsed,
        first_body: first_body.into_inner().expect("first body lock"),
        first_malformation: first_malformation.into_inner().expect("malformation lock"),
        worst: Vec::new(),
    };
    for (tally, dials) in tallies {
        report.ok += tally.ok;
        report.malformed += tally.malformed;
        report.errors += tally.errors;
        report.records += tally.records;
        report.cache_hits += tally.cache_hits;
        report.connections += dials;
        report.latencies.extend(tally.latencies);
        report.worst.extend(tally.worst);
    }
    report.latencies.sort();
    report
        .worst
        .sort_by_key(|(latency, _)| std::cmp::Reverse(*latency));
    report.worst.truncate(WORST_K);
    report
}

/// The grid a given (client, request) submits; unique seeds when the run
/// wants to defeat the cache.
fn request_desc(config: &LoadgenConfig, client_id: usize, req: usize) -> GridDesc {
    let mut desc = config.desc.clone();
    if config.vary_seeds {
        let unique = (client_id * config.requests_per_client + req) as u64;
        desc.seeds = vec![0x5eed_0000 + unique];
    }
    desc
}

/// Issue one request (retrying sheds) and tally it; `t0` is when the
/// request was due, which its latency is measured from.
#[allow(clippy::too_many_arguments)]
fn drive_one(
    config: &LoadgenConfig,
    desc: &GridDesc,
    t0: Instant,
    slot: &mut ConnSlot,
    tally: &mut Tally,
    shed_total: &AtomicU64,
    first_body: &Mutex<Option<Vec<u8>>>,
    first_malformation: &Mutex<Option<String>>,
) {
    let mut sheds_seen = 0usize;
    loop {
        let attempt = if config.keep_alive {
            slot.run_campaign(config, desc)
        } else {
            slot.dials += 1;
            client::run_campaign(&config.addr, desc, config.timeout)
        };
        let response = match attempt {
            Ok(r) => r,
            Err(_) => {
                tally.errors += 1;
                return;
            }
        };
        match response.status {
            200 => {
                if config.verify {
                    match client::verify_body(desc, &response.body) {
                        Ok(n) => tally.records += n,
                        Err(why) => {
                            tally.malformed += 1;
                            let mut slot = first_malformation.lock().expect("malformation lock");
                            slot.get_or_insert(why);
                            return;
                        }
                    }
                } else {
                    tally.records += response.body.iter().filter(|&&b| b == b'\n').count();
                }
                if response.header("x-joss-cache") == Some("hit") {
                    tally.cache_hits += 1;
                }
                tally.ok += 1;
                let latency = t0.elapsed();
                tally.latencies.push(latency);
                tally.note_worst(latency, response.header("x-joss-request-id"));
                if !config.vary_seeds {
                    let mut slot = first_body.lock().expect("first body lock");
                    if slot.is_none() {
                        *slot = Some(response.body);
                    }
                }
                return;
            }
            503 => {
                shed_total.fetch_add(1, Ordering::Relaxed);
                if !config.retry_503 {
                    return;
                }
                sheds_seen += 1;
                if sheds_seen > config.max_shed_retries {
                    // A daemon shedding this persistently is effectively
                    // down for this client; bound the run instead of
                    // spinning on Retry-After forever.
                    tally.errors += 1;
                    return;
                }
                let wait = response
                    .header("retry-after")
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(1);
                // saturating: Retry-After is server-controlled input.
                std::thread::sleep(Duration::from_millis(
                    wait.saturating_mul(1000).clamp(100, 10_000),
                ));
            }
            _ => {
                tally.errors += 1;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// Read one request (head plus `Content-Length` body) off `reader`.
    fn read_request(reader: &mut impl BufRead) {
        let mut body_len = 0;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("request head");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    body_len = value.trim().parse().expect("content length");
                }
            }
        }
        let mut body = vec![0; body_len];
        reader.read_exact(&mut body).expect("request body");
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_slot() {
        // One kept-alive client, two requests due 50 ms apart. The stub
        // daemon holds the first response for 400 ms, so the second
        // request fires about 350 ms after its due time; that wait must
        // show in its latency rather than vanish from the measurement.
        const HOLD: Duration = Duration::from_millis(400);
        let interval = Duration::from_millis(50);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let stub = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut writer = stream;
            for exchange in 0..2 {
                read_request(&mut reader);
                if exchange == 0 {
                    std::thread::sleep(HOLD);
                }
                writer
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                    .expect("respond");
            }
        });

        let mut config = LoadgenConfig::new(addr, GridDesc::default());
        config.requests_per_client = 2;
        config.target_rate = Some(1.0 / interval.as_secs_f64());
        config.verify = false;
        config.timeout = Duration::from_secs(10);
        let report = run(&config);
        stub.join().expect("stub daemon");

        assert_eq!((report.ok, report.errors), (2, 0), "{}", report.summary());
        assert_eq!(report.connections, 1, "both requests share the connection");
        let late = HOLD - interval;
        assert!(
            report.latencies.iter().all(|&l| l >= late),
            "the request held behind the slow response must count its wait: {:?}",
            report.latencies
        );
    }
}
