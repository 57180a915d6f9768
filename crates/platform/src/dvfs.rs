//! DVFS controllers for the shared frequency domains.
//!
//! The TX2 has three throttleable domains: the Denver cluster, the A57
//! cluster, and the memory subsystem (EMC/DRAM). All cores of a cluster share
//! one frequency; all tasks share the memory frequency. Transitions are not
//! free: each takes a latency, and a controller can only perform one
//! transition at a time, so conflicting requests from concurrent tasks
//! *serialize* — the interference the paper's frequency-coordination
//! heuristic (§5.3) is designed to mitigate.

use crate::config::FreqIndex;
use crate::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// A frequency-controllable domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DvfsDomain {
    /// Big (Denver-like) CPU cluster.
    ClusterBig,
    /// Little (A57-like) CPU cluster.
    ClusterLittle,
    /// Memory subsystem.
    Memory,
}

/// Result of submitting a frequency request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DvfsRequest {
    /// When the new frequency takes effect.
    pub effective_at: SimTime,
    /// Whether the request had to wait behind an in-flight transition.
    pub serialized: bool,
    /// Whether a transition actually happens (false if already at target and
    /// no transition was pending).
    pub transitioned: bool,
}

/// One frequency domain's controller: current operating point, transition
/// latency, and a timeline of committed transitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DvfsController {
    domain: DvfsDomain,
    latency: Duration,
    /// Committed transition steps `(effective_time, freq)`, ascending in time.
    /// The first entry is the initial frequency at time zero.
    timeline: Vec<(SimTime, FreqIndex)>,
    /// Until when the controller hardware is busy transitioning.
    busy_until: SimTime,
    /// Statistics: total transitions performed.
    pub n_transitions: u64,
    /// Statistics: requests that had to serialize behind another transition.
    pub n_serialized: u64,
}

impl DvfsController {
    /// New controller starting at `initial` frequency.
    pub fn new(domain: DvfsDomain, initial: FreqIndex, latency: Duration) -> Self {
        DvfsController {
            domain,
            latency,
            timeline: vec![(SimTime::ZERO, initial)],
            busy_until: SimTime::ZERO,
            n_transitions: 0,
            n_serialized: 0,
        }
    }

    /// The domain this controller manages.
    pub fn domain(&self) -> DvfsDomain {
        self.domain
    }

    /// Frequency in effect at time `now`.
    pub fn freq_at(&self, now: SimTime) -> FreqIndex {
        match self.timeline.binary_search_by(|(t, _)| t.cmp(&now)) {
            Ok(i) => self.timeline[i].1,
            Err(0) => self.timeline[0].1,
            Err(i) => self.timeline[i - 1].1,
        }
    }

    /// The frequency the domain will settle at once all committed
    /// transitions complete (the target of the latest request).
    pub fn settled_freq(&self) -> FreqIndex {
        self.timeline.last().expect("timeline never empty").1
    }

    /// Submit a frequency request at time `now`.
    ///
    /// If the controller is mid-transition the request queues behind it
    /// (serialization). Requesting the already-settled frequency is a no-op.
    pub fn request(&mut self, target: FreqIndex, now: SimTime) -> DvfsRequest {
        let settled = self.settled_freq();
        if settled == target {
            return DvfsRequest {
                effective_at: self.busy_until.max(now),
                serialized: false,
                transitioned: false,
            };
        }
        let serialized = self.busy_until > now;
        let start = if serialized { self.busy_until } else { now };
        let effective = start + self.latency;
        self.busy_until = effective;
        self.timeline.push((effective, target));
        self.n_transitions += 1;
        if serialized {
            self.n_serialized += 1;
        }
        DvfsRequest {
            effective_at: effective,
            serialized,
            transitioned: true,
        }
    }

    /// Drop timeline entries strictly older than `horizon`, keeping the one
    /// in effect at `horizon`. Afterwards [`DvfsController::freq_at`] is
    /// exact only for times `>= horizon`; a caller whose clock is monotone
    /// prunes at its current time to keep the timeline (and the lookup)
    /// down to the entry in effect plus pending transitions.
    pub fn prune_before(&mut self, horizon: SimTime) {
        // Index of the last entry with time <= horizon.
        let keep_from = match self.timeline.binary_search_by(|(t, _)| t.cmp(&horizon)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        if keep_from > 0 {
            self.timeline.drain(..keep_from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> DvfsController {
        DvfsController::new(DvfsDomain::Memory, FreqIndex(2), Duration::from_micros(100))
    }

    #[test]
    fn initial_frequency_holds() {
        let c = ctrl();
        assert_eq!(c.freq_at(SimTime::ZERO), FreqIndex(2));
        assert_eq!(c.freq_at(SimTime::from_secs_f64(10.0)), FreqIndex(2));
    }

    #[test]
    fn transition_takes_latency() {
        let mut c = ctrl();
        let r = c.request(FreqIndex(0), SimTime::from_secs_f64(1.0));
        assert!(r.transitioned);
        assert!(!r.serialized);
        assert_eq!(
            r.effective_at,
            SimTime::from_secs_f64(1.0) + Duration::from_micros(100)
        );
        // Before effective: old frequency.
        assert_eq!(c.freq_at(SimTime::from_secs_f64(1.00005)), FreqIndex(2));
        // After: new frequency.
        assert_eq!(c.freq_at(SimTime::from_secs_f64(1.001)), FreqIndex(0));
    }

    #[test]
    fn same_target_is_noop() {
        let mut c = ctrl();
        let r = c.request(FreqIndex(2), SimTime::from_secs_f64(1.0));
        assert!(!r.transitioned);
        assert_eq!(c.n_transitions, 0);
    }

    #[test]
    fn conflicting_requests_serialize() {
        let mut c = ctrl();
        let t0 = SimTime::from_secs_f64(1.0);
        let r1 = c.request(FreqIndex(0), t0);
        let r2 = c.request(FreqIndex(1), t0); // while first is in flight
        assert!(r2.serialized);
        assert!(r2.effective_at > r1.effective_at);
        assert_eq!(c.n_serialized, 1);
        // Final settled frequency is the last request's target.
        assert_eq!(c.settled_freq(), FreqIndex(1));
        // Mid-flight frequency is the first target after r1 effective.
        assert_eq!(c.freq_at(r1.effective_at), FreqIndex(0));
        assert_eq!(c.freq_at(r2.effective_at), FreqIndex(1));
    }

    #[test]
    fn requesting_settled_target_mid_flight_is_noop() {
        let mut c = ctrl();
        let t0 = SimTime::from_secs_f64(1.0);
        c.request(FreqIndex(0), t0);
        let r = c.request(FreqIndex(0), t0);
        assert!(!r.transitioned);
        assert_eq!(c.n_transitions, 1);
    }

    #[test]
    fn prune_keeps_effective_entry() {
        let mut c = ctrl();
        c.request(FreqIndex(0), SimTime::from_secs_f64(1.0));
        c.request(FreqIndex(1), SimTime::from_secs_f64(2.0));
        c.request(FreqIndex(2), SimTime::from_secs_f64(3.0));
        c.prune_before(SimTime::from_secs_f64(2.5));
        assert_eq!(c.freq_at(SimTime::from_secs_f64(2.5)), FreqIndex(1));
        assert_eq!(c.freq_at(SimTime::from_secs_f64(3.5)), FreqIndex(2));
    }
}
