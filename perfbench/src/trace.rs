//! The benchmark's own span recorder and the layer ledger built from it.
//!
//! Spans are recorded around calls into the program's public functions
//! (never inside the program): name, start, end, parent, and a key that
//! joins the spans of one spec, request, or campaign. They stay in memory
//! and are written out when the run ends. With tracing off every call is a
//! plain pass-through and nothing is recorded.

use crate::Report;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// Largest share of traced wall time the ledger may leave unattributed
/// to a layer (time a root span spends with no child span open).
pub const LEDGER_BOUND: f64 = 0.05;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder shared by every benchmark thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    tags: Mutex<Vec<(u64, String)>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
            tags: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch of `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserve a span id (for spans whose children start before they end).
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span with a reserved `id`. No-op when off.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            key,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent child spans.
    pub fn span<R>(
        &self,
        parent: u64,
        name: &'static str,
        key: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(ROOT);
        }
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, name, key, start, Instant::now());
        out
    }

    /// Attach a string (a server request id) to a span key.
    pub fn tag(&self, key: u64, value: String) {
        if self.on {
            self.tags
                .lock()
                .expect("tag list poisoned")
                .push((key, value));
        }
    }

    /// Everything recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// The spans and tags as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            ));
        }
        for (key, value) in self.tags.lock().expect("tag list poisoned").iter() {
            out.push_str(&format!(
                "{{\"key\":{key},\"request_id\":{}}}\n",
                joss_sweep::json::quote(value)
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Wall time split by layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Length of the union of all root spans, ns.
    pub wall_ns: f64,
    /// Wall time attributed to each non-root span name, ns.
    pub layers: BTreeMap<&'static str, f64>,
    /// Summed self time of each span name, ns (concurrent spans each
    /// count in full, so this can exceed wall time).
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Wall time attributed to root spans themselves (no layer open), ns.
    pub unattributed_ns: f64,
}

impl Ledger {
    /// Layer time plus unattributed time, as a share of wall (1 when the
    /// attribution is complete).
    pub fn sum_share(&self) -> f64 {
        (self.layers.values().sum::<f64>() + self.unattributed_ns) / self.wall_ns
    }

    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns / self.wall_ns
    }

    pub fn share(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0) / self.wall_ns
    }

    /// The ledger check: the attribution adds up to the wall, and layers
    /// account for all but [`LEDGER_BOUND`] of it.
    pub fn holds(&self) -> bool {
        self.wall_ns > 0.0
            && (self.sum_share() - 1.0).abs() <= 1e-6
            && self.unattributed_share() <= LEDGER_BOUND
    }
}

/// Attribute wall time to spans. At each instant the open spans with no
/// open child share that instant equally, so a span's attributed time is
/// its self time, divided among whatever ran beside it: two specs on two
/// threads each get half of the interval they overlap. The attributions
/// add up to the union of the root spans.
pub fn ledger(spans: &[Span]) -> Ledger {
    let depth = depths(spans);
    // (time, is_start, order key, index); ends sort before starts at one
    // instant, parents start before children and end after them.
    let mut events: Vec<(u64, bool, i64, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns <= s.start_ns {
            continue;
        }
        let d = depth[i] as i64;
        events.push((s.start_ns, true, d, i));
        events.push((s.end_ns, false, -d, i));
    }
    events.sort_unstable();
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0usize; spans.len()];
    // The open parent each span was counted against when it started.
    let mut counted: Vec<Option<usize>> = vec![None; spans.len()];
    let mut entered = vec![0.0f64; spans.len()];
    let mut accrued = vec![0.0f64; spans.len()];
    let mut frontier = 0usize;
    let mut roots_open = 0usize;
    // Integral of 1/|frontier| dt since the first event.
    let mut share = 0.0f64;
    let mut wall = 0.0f64;
    let mut last = events.first().map_or(0, |e| e.0);
    for (t, is_start, _, i) in events {
        if frontier > 0 {
            share += (t - last) as f64 / frontier as f64;
        }
        if roots_open > 0 {
            wall += (t - last) as f64;
        }
        last = t;
        let is_root = spans[i].parent == ROOT;
        if is_start {
            let parent = (!is_root)
                .then(|| index.get(&spans[i].parent).copied())
                .flatten()
                .filter(|&p| open[p]);
            if let Some(p) = parent {
                if open_children[p] == 0 {
                    accrued[p] += share - entered[p];
                    frontier -= 1;
                }
                open_children[p] += 1;
            }
            counted[i] = parent;
            roots_open += usize::from(is_root);
            open[i] = true;
            entered[i] = share;
            frontier += 1;
        } else {
            open[i] = false;
            if open_children[i] == 0 {
                accrued[i] += share - entered[i];
                frontier -= 1;
            }
            roots_open -= usize::from(is_root);
            if let Some(p) = counted[i] {
                open_children[p] -= 1;
                if open_children[p] == 0 && open[p] {
                    entered[p] = share;
                    frontier += 1;
                }
            }
        }
    }
    let mut self_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let own = self_times(spans);
    for s in spans {
        *self_ns.entry(s.name).or_default() += own[&s.id] as f64;
    }
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            unattributed += accrued[i];
        } else {
            *layers.entry(s.name).or_default() += accrued[i];
        }
    }
    Ledger {
        wall_ns: wall,
        layers,
        self_ns,
        unattributed_ns: unattributed,
    }
}

/// Build the ledger of `spans`, check it (a failed check counts as a
/// failed operation), print it, and set `trace.wall_ms`,
/// `ledger.unattributed_share`, and one share metric per
/// `(span name, metric name)` pair.
pub fn ledger_metrics(report: &mut Report, spans: &[Span], shares: &[(&str, &'static str)]) {
    let l = ledger(spans);
    report.check(l.holds(), || {
        format!(
            "ledger: layers sum to {:.6} of wall, {:.4} unattributed (bound {LEDGER_BOUND})",
            l.sum_share(),
            l.unattributed_share()
        )
    });
    eprintln!(
        "[perfbench] ledger over {:.1} ms traced wall ({:.4} unattributed, bound {LEDGER_BOUND}):",
        l.wall_ns / 1e6,
        l.unattributed_share()
    );
    for (name, self_ns) in &l.self_ns {
        eprintln!(
            "[perfbench]   {name:<18} self {:>10.3} ms   wall share {:.4}",
            self_ns / 1e6,
            l.share(name)
        );
    }
    report.set("trace.wall_ms", l.wall_ns / 1e6);
    report.set("ledger.unattributed_share", l.unattributed_share());
    for (span, metric) in shares {
        report.set(metric, l.share(span));
    }
}

fn depths(spans: &[Span]) -> Vec<usize> {
    let parent: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    spans
        .iter()
        .map(|s| {
            let mut d = 0;
            let mut p = s.parent;
            while p != ROOT && d < spans.len() {
                d += 1;
                p = parent.get(&p).copied().unwrap_or(ROOT);
            }
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            key: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, ROOT, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "a", 20, 50),
            span(4, 1, "b", 60, 70),
            span(5, 4, "c", 62, 65),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&4], 10 - 3);
        assert_eq!(st[&5], 3);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span(1, ROOT, "root", 10, 20), span(2, 1, "a", 5, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn serial_ledger_equals_self_times() {
        let spans = [
            span(1, ROOT, "root", 0, 100),
            span(2, 1, "resolve", 0, 10),
            span(3, 1, "run", 10, 90),
            span(4, 3, "spec", 10, 80),
        ];
        let l = ledger(&spans);
        assert_eq!(l.wall_ns, 100.0);
        assert_eq!(l.layers["resolve"], 10.0);
        assert_eq!(l.layers["run"], 10.0);
        assert_eq!(l.layers["spec"], 70.0);
        assert_eq!(l.unattributed_ns, 10.0);
        assert!((l.sum_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_children_split_the_overlap() {
        let spans = [
            span(1, ROOT, "root", 0, 100),
            span(2, 1, "spec", 0, 100),
            span(3, 1, "spec", 50, 100),
            span(4, 1, "encode", 60, 70),
        ];
        let l = ledger(&spans);
        // 0..50: one spec; 50..60 and 70..100: two specs; 60..70: three.
        let spec = 50.0 + 10.0 + 30.0 + 10.0 * 2.0 / 3.0;
        assert!((l.layers["spec"] - spec).abs() < 1e-9);
        assert!((l.layers["encode"] - 10.0 / 3.0).abs() < 1e-9);
        assert_eq!(l.unattributed_ns, 0.0);
        assert!((l.sum_share() - 1.0).abs() < 1e-12);
        assert!(l.holds());
    }

    #[test]
    fn gaps_between_roots_are_not_wall() {
        let spans = [
            span(1, ROOT, "req", 0, 10),
            span(2, 1, "head", 0, 10),
            span(3, ROOT, "req", 20, 30),
            span(4, 3, "head", 20, 25),
        ];
        let l = ledger(&spans);
        assert_eq!(l.wall_ns, 20.0);
        assert_eq!(l.unattributed_ns, 5.0);
        assert!(!l.holds(), "a quarter unattributed exceeds the bound");
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span(ROOT, "x", 1, |id| id + 41);
        assert_eq!(v, 41);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span(ROOT, "outer", 7, |id| t.span(id, "inner", 7, |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
