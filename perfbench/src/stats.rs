//! Sample summaries and the two reporting rules the benchmark applies to
//! every timing: the tail percentile rule and the goodput ladder rule.

/// Median of `samples` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Ascending copy; `NaN`-free input assumed (infinities are allowed and
/// sort last, which is how failed requests count against a limit).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile `p` (0..=100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, i.e. the 11th-largest sample, but
/// never below the upper quartile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile it sits at (share of samples at or below, ×100).
    pub percentile: f64,
    /// Whether the ten-beyond rule set the value. With fewer than 40
    /// samples its percentile would sit below p75 (below the median under
    /// 22); the upper quartile (nearest-rank p75) is reported
    /// instead and this is `false`. The maximum of so few samples moves
    /// with a single host stall, so it would not repeat from run to run.
    pub supported: bool,
}

/// Apply the tail rule to `samples` (must be non-empty).
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of an empty sample set");
    let v = sorted(samples);
    let n = v.len();
    let rule = n.saturating_sub(TAIL_BEYOND + 1);
    let quartile = ((0.75 * n as f64).ceil() as usize).max(1) - 1;
    let at = rule.max(quartile);
    Tail {
        value: v[at],
        percentile: 100.0 * (at + 1) as f64 / n as f64,
        supported: at == rule,
    }
}

/// One rung of an open-loop rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Completed requests per second over the rung's window.
    pub achieved_rps: f64,
    /// The rung's 99th-percentile latency in ms, failed requests counted
    /// as infinitely late (`serve_mix` takes the median over sub-windows
    /// of each window's p99).
    pub p99_ms: f64,
    /// Whether the generator kept its schedule and the backlog drained
    /// (no growing queue): see [`Rung::backlog_ok`].
    pub backlog_ok: bool,
}

impl Rung {
    /// A rung's backlog is steady when the last response arrived within
    /// `limit_ms` of the last request's due time and nothing was left
    /// queued in the client when the send window closed.
    pub fn backlog_ok(drain_ms: f64, left_queued: usize, limit_ms: f64) -> bool {
        drain_ms <= limit_ms && left_queued == 0
    }
}

/// The goodput ladder rule: the highest offered rate whose p99 meets
/// `limit_ms` with a steady backlog. Returns that rung, or `None` when no
/// rung meets the limit (goodput 0).
pub fn goodput(rungs: &[Rung], limit_ms: f64) -> Option<Rung> {
    rungs
        .iter()
        .filter(|r| r.backlog_ok && r.p99_ms <= limit_ms)
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
        .copied()
}

/// Geometric mean of positive values (`NaN` if empty).
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert!(t.supported);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 90.0).abs() < 1e-9);
    }

    #[test]
    fn smallest_supported_tail_sits_at_the_upper_quartile() {
        let v: Vec<f64> = (0..40).map(f64::from).rev().collect();
        let t = tail(&v);
        assert!(t.supported);
        assert_eq!(t.value, 29.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        let t = tail(&v[..39]);
        assert!(!t.supported);
        assert!(t.percentile >= 75.0);
    }

    #[test]
    fn tail_without_enough_samples_falls_back_to_upper_quartile() {
        let t = tail(&[5.0, 1.0, 9.0, 7.0]);
        assert!(!t.supported);
        assert_eq!(t.value, 7.0);
        assert_eq!(t.percentile, 75.0);
        // 18 samples (a 45 s fig8_offline run): 4 lie beyond, so one slow
        // pass cannot move it.
        let mut v: Vec<f64> = (1..=17).map(f64::from).collect();
        v.push(1000.0);
        assert_eq!(tail(&v).value, 14.0);
    }

    #[test]
    fn failed_samples_count_as_infinitely_late() {
        let mut v: Vec<f64> = vec![1.0; 100];
        v.extend([f64::INFINITY; 2]);
        assert_eq!(percentile(&v, 99.0), f64::INFINITY);
        assert_eq!(tail(&v).value, 1.0);
    }

    fn rung(offered: f64, p99: f64, ok: bool) -> Rung {
        Rung {
            offered_rps: offered,
            achieved_rps: offered,
            p99_ms: p99,
            backlog_ok: ok,
        }
    }

    #[test]
    fn goodput_is_highest_rung_within_limit() {
        let rungs = [
            rung(100.0, 5.0, true),
            rung(200.0, 8.0, true),
            rung(400.0, 90.0, true),
        ];
        assert_eq!(goodput(&rungs, 20.0).unwrap().offered_rps, 200.0);
    }

    #[test]
    fn goodput_rejects_growing_backlog_and_failures() {
        let rungs = [
            rung(100.0, 5.0, true),
            rung(200.0, 8.0, false),
            rung(400.0, f64::INFINITY, true),
        ];
        assert_eq!(goodput(&rungs, 20.0).unwrap().offered_rps, 100.0);
        assert!(goodput(&[rung(100.0, 50.0, true)], 20.0).is_none());
    }

    #[test]
    fn backlog_rule() {
        assert!(Rung::backlog_ok(3.0, 0, 20.0));
        assert!(!Rung::backlog_ok(30.0, 0, 20.0));
        assert!(!Rung::backlog_ok(3.0, 1, 20.0));
    }

    #[test]
    fn geo_mean_of_ratios() {
        assert!((geo_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geo_mean(&[0.8, 0.8]) - 0.8).abs() < 1e-12);
    }
}
