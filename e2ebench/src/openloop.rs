//! Open-loop load arithmetic: requests leave on a fixed schedule whether
//! or not earlier ones have returned, and every request is timed from when
//! it was *due*, so a stall is charged to every request queued behind it.

use crate::stats::{median, p99_with_failures};

/// Due time of request `k` of a phase at `rate` req/s, in seconds after
/// the phase starts.
pub fn due_s(k: usize, rate: f64) -> f64 {
    k as f64 / rate
}

/// Timestamps of one phase, in seconds after its start, indexed by the
/// request's position in the schedule.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    /// When each request was due.
    pub due: Vec<f64>,
    /// When the generator actually sent it.
    pub sent: Vec<f64>,
    /// When its answer arrived; `None` for a failed or refused request.
    pub done: Vec<Option<f64>>,
}

impl PhaseTimes {
    /// Latency of every answered request in schedule order, in ms, timed
    /// from its due time.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.done)
            .filter_map(|(d, done)| done.map(|t| (t - d) * 1e3))
            .collect()
    }

    /// Requests that got no valid answer.
    pub fn failed(&self) -> usize {
        self.done.iter().filter(|d| d.is_none()).count()
    }

    /// How late the generator sent each request, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(d, s)| ((s - d) * 1e3).max(0.0))
            .collect()
    }

    /// Whether the phase's queue grew (see [`backlog_growing`]).
    pub fn backlog_growing(&self) -> bool {
        self.failed() > 0 || backlog_growing(&self.latencies_ms())
    }

    /// Whether the phase met the latency limit: p99 (failures counted as
    /// misses) within `limit_ms`, enough samples for a p99, and no
    /// growing backlog.
    pub fn meets(&self, limit_ms: f64) -> bool {
        p99_with_failures(&self.latencies_ms(), self.failed()).is_some_and(|p| p <= limit_ms)
            && !self.backlog_growing()
    }
}

/// A backlog grows when the requests of the last quarter of a phase wait
/// clearly longer than those of the first quarter: more than twice as
/// long, and by more than 1 ms. In a stable queue latency is stationary;
/// above capacity every request waits for all the excess before it, so
/// latency climbs with its position in the schedule.
pub fn backlog_growing(latencies_ms: &[f64]) -> bool {
    let n = latencies_ms.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = median(&latencies_ms[..q]);
    let last = median(&latencies_ms[n - q..]);
    last > 2.0 * first && last - first > 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(rate: f64, latency_ms: impl Fn(usize) -> Option<f64>, late_ms: f64) -> PhaseTimes {
        let n = 2000;
        let due: Vec<f64> = (0..n).map(|k| due_s(k, rate)).collect();
        PhaseTimes {
            sent: due.iter().map(|d| d + late_ms / 1e3).collect(),
            done: (0..n)
                .map(|k| latency_ms(k).map(|l| due[k] + l / 1e3))
                .collect(),
            due,
        }
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        assert_eq!(due_s(0, 500.0), 0.0);
        assert_eq!(due_s(500, 500.0), 1.0);
        assert_eq!(due_s(3, 4.0), 0.75);
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let p = phase(1000.0, |_| Some(2.0), 0.25);
        let late = crate::stats::nearest_rank(&p.lateness_ms(), 990);
        assert!((late - 0.25).abs() < 1e-9);
        let lat = p.latencies_ms();
        assert!(lat.iter().all(|l| (l - 2.0).abs() < 1e-9), "timed from due");
    }

    #[test]
    fn stationary_queue_has_no_growing_backlog() {
        let p = phase(1000.0, |k| Some(1.0 + (k % 7) as f64 * 0.3), 0.0);
        assert!(!p.backlog_growing());
        assert!(p.meets(5.0));
        assert!(!p.meets(2.0), "p99 above the limit");
    }

    #[test]
    fn overload_is_detected_as_a_growing_backlog() {
        // Each request waits for the excess of all before it.
        let p = phase(1000.0, |k| Some(1.0 + k as f64 * 0.05), 0.0);
        assert!(p.backlog_growing());
        assert!(!p.meets(1e9), "a growing backlog fails any limit");
    }

    #[test]
    fn failures_count_as_misses() {
        let few = phase(1000.0, |k| (k % 500 != 0).then_some(1.0), 0.0);
        assert_eq!(few.failed(), 4);
        assert!(!few.meets(5.0), "any failure fails the step");
        let p99 = p99_with_failures(&few.latencies_ms(), few.failed()).expect("2000 samples");
        assert!((p99 - 1.0).abs() < 1e-9, "4 misses in 2000 stay above p99");
    }
}
