//! Egalitarian processor-sharing bandwidth resource.

use std::collections::HashMap;

use crate::{SimDuration, SimTime};

/// Minimum bytes of slack below which a transfer counts as finished.
const DONE_EPS_BYTES: f64 = 0.5;

/// Predicted completion of the earliest-finishing transfer on a
/// [`SharedBandwidth`] resource.
///
/// The `epoch` field detects staleness: every mutation of the resource bumps
/// its epoch, so an event scheduled from an old prediction can recognize it
/// has been superseded and do nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsCompletion {
    /// Virtual time at which the earliest transfer finishes.
    pub at: SimTime,
    /// Resource epoch at prediction time; compare with
    /// [`SharedBandwidth::epoch`].
    pub epoch: u64,
}

/// A shared link with egalitarian processor sharing.
///
/// Models PCIe links and host staging bandwidth: `n` concurrent transfers
/// each progress at `capacity / n` bytes per second. This produces the
/// transfer-contention effects behind the paper's multi-GPU scaling knee
/// (Fig 9): when preprocessing floods the staging path, adding GPUs stops
/// helping.
///
/// The resource is a pure state machine. After any call to
/// [`start`](Self::start) or [`take_completed`](Self::take_completed), the
/// caller should (re)schedule an event at
/// [`next_completion`](Self::next_completion) and validate its epoch when
/// the event fires.
///
/// # Examples
///
/// ```
/// use vserve_sim::{SharedBandwidth, SimTime};
///
/// // 1000 bytes/s link, two simultaneous 500-byte transfers.
/// let mut link = SharedBandwidth::new(1000.0);
/// let t0 = SimTime::ZERO;
/// link.start(t0, 500.0);
/// link.start(t0, 500.0);
/// let next = link.next_completion(t0).unwrap();
/// // Each gets 500 B/s, so both finish after 1 s.
/// assert_eq!(next.at.as_secs_f64(), 1.0);
/// let done = link.take_completed(next.at);
/// assert_eq!(done.len(), 2);
/// ```
#[derive(Debug)]
pub struct SharedBandwidth {
    capacity: f64,
    /// Bytes of slack treated as "finished": at least [`DONE_EPS_BYTES`],
    /// and never less than what the link moves in 2 ns — otherwise the
    /// integer-nanosecond clock could round a completion time down and
    /// strand a job forever just above the threshold.
    done_eps: f64,
    last: SimTime,
    jobs: HashMap<u64, f64>,
    next_id: u64,
    epoch: u64,
    /// Total bytes ever offered to the link (accumulated in `start` call
    /// order). Completed bytes are derived as `offered - in_flight`, so a
    /// finished job contributes exactly its requested size — no rounding
    /// drift from per-tick accumulation, no `done_eps` slack counted as
    /// transferred.
    offered: f64,
}

impl SharedBandwidth {
    /// Creates a link with `capacity` bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive, got {capacity}"
        );
        SharedBandwidth {
            capacity,
            done_eps: (capacity * 2e-9).max(DONE_EPS_BYTES),
            last: SimTime::ZERO,
            jobs: HashMap::new(),
            next_id: 0,
            epoch: 0,
            offered: 0.0,
        }
    }

    /// Link capacity in bytes per second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of in-flight transfers.
    pub fn active(&self) -> usize {
        self.jobs.len()
    }

    /// Current epoch; compare against [`PsCompletion::epoch`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total bytes transferred so far, including partial progress of
    /// in-flight jobs. Once a job completes it has contributed exactly its
    /// requested size; with the link drained this equals the sum of all
    /// offered sizes.
    pub fn bytes_done(&self) -> f64 {
        // Sum remaining bytes in ascending-id order: HashMap iteration
        // order must not leak into reported totals (determinism).
        let mut ids: Vec<u64> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        let in_flight: f64 = ids.iter().map(|id| self.jobs[id]).sum();
        (self.offered - in_flight).max(0.0)
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "time went backwards in SharedBandwidth");
        if self.jobs.is_empty() {
            self.last = now;
            return;
        }
        let dt = (now - self.last).as_secs_f64();
        if dt > 0.0 {
            let per_job = self.capacity / self.jobs.len() as f64 * dt;
            for rem in self.jobs.values_mut() {
                *rem -= per_job.min(*rem);
            }
        }
        self.last = now;
    }

    /// Starts a transfer of `bytes` at time `now`, returning its id.
    ///
    /// Zero or negative sizes complete instantly on the next
    /// [`take_completed`](Self::take_completed).
    pub fn start(&mut self, now: SimTime, bytes: f64) -> u64 {
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
        let bytes = bytes.max(0.0);
        self.offered += bytes;
        self.jobs.insert(id, bytes);
        self.epoch += 1;
        id
    }

    /// Predicted completion of the earliest-finishing transfer.
    ///
    /// Returns `None` when idle. The prediction is exact under the equal-
    /// share discipline *provided no further arrivals occur*; arrivals bump
    /// the epoch so stale predictions are detectable.
    pub fn next_completion(&self, now: SimTime) -> Option<PsCompletion> {
        if self.jobs.is_empty() {
            return None;
        }
        let elapsed = (now.max(self.last) - self.last).as_secs_f64();
        let share = self.capacity / self.jobs.len() as f64;
        let min_rem = self
            .jobs
            .values()
            .map(|r| (r - share * elapsed).max(0.0))
            .fold(f64::INFINITY, f64::min);
        let dt = if min_rem <= self.done_eps {
            0.0
        } else {
            min_rem / share
        };
        Some(PsCompletion {
            at: now.max(self.last) + SimDuration::from_secs_f64(dt),
            epoch: self.epoch,
        })
    }

    /// Advances to `now` and removes every finished transfer, returning
    /// their ids (ascending order for determinism).
    pub fn take_completed(&mut self, now: SimTime) -> Vec<u64> {
        self.advance(now);
        let mut done: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, &rem)| rem <= self.done_eps)
            .map(|(&id, _)| id)
            .collect();
        done.sort_unstable();
        for id in &done {
            self.jobs.remove(id);
        }
        if !done.is_empty() {
            self.epoch += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_bad_capacity() {
        let _ = SharedBandwidth::new(0.0);
    }

    #[test]
    fn single_job_full_rate() {
        let mut link = SharedBandwidth::new(100.0);
        link.start(SimTime::ZERO, 50.0);
        let c = link.next_completion(SimTime::ZERO).unwrap();
        assert!((c.at.as_secs_f64() - 0.5).abs() < 1e-9);
        assert_eq!(link.take_completed(c.at), vec![0]);
        assert_eq!(link.active(), 0);
    }

    #[test]
    fn late_arrival_slows_first() {
        let mut link = SharedBandwidth::new(100.0);
        link.start(SimTime::ZERO, 100.0); // alone: would finish at 1 s
        let mid = SimTime::from_nanos(500_000_000);
        link.start(mid, 100.0); // arrives at 0.5 s
                                // First job has 50 B left at 0.5 s, now at 50 B/s → finishes at 1.5 s.
        let c = link.next_completion(mid).unwrap();
        assert!((c.at.as_secs_f64() - 1.5).abs() < 1e-6);
        let done = link.take_completed(c.at);
        assert_eq!(done, vec![0]);
        // Second job: 50 B left, alone at 100 B/s → 0.5 s more.
        let c2 = link.next_completion(c.at).unwrap();
        assert!((c2.at.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn epoch_detects_staleness() {
        let mut link = SharedBandwidth::new(100.0);
        link.start(SimTime::ZERO, 100.0);
        let stale = link.next_completion(SimTime::ZERO).unwrap();
        link.start(SimTime::from_nanos(1), 10.0);
        assert_ne!(stale.epoch, link.epoch());
        let fresh = link.next_completion(SimTime::from_nanos(1)).unwrap();
        assert_eq!(fresh.epoch, link.epoch());
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut link = SharedBandwidth::new(10.0);
        link.start(SimTime::ZERO, 0.0);
        let c = link.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(c.at, SimTime::ZERO);
        assert_eq!(link.take_completed(SimTime::ZERO).len(), 1);
    }

    #[test]
    fn idle_has_no_completion() {
        let link = SharedBandwidth::new(10.0);
        assert!(link.next_completion(SimTime::ZERO).is_none());
    }

    proptest! {
        /// Work conservation: with jobs always present, total transferred
        /// bytes equal capacity × elapsed time, and every job finishes no
        /// earlier than its solo transfer time.
        #[test]
        fn conservation(sizes in prop::collection::vec(1.0f64..1e6, 1..20)) {
            let cap = 1e6;
            let mut link = SharedBandwidth::new(cap);
            let total: f64 = sizes.iter().sum();
            for &s in &sizes {
                link.start(SimTime::ZERO, s);
            }
            let mut now = SimTime::ZERO;
            let mut completed = 0usize;
            let mut guard = 0;
            while completed < sizes.len() {
                let c = link.next_completion(now).unwrap();
                now = c.at;
                completed += link.take_completed(now).len();
                guard += 1;
                prop_assert!(guard < 1000, "no progress");
            }
            let expect = total / cap;
            prop_assert!((now.as_secs_f64() - expect).abs() < 1e-6 * (1.0 + expect),
                "finished at {} expected {}", now.as_secs_f64(), expect);
            // Byte conservation is exact, not approximate: with the link
            // drained, completed bytes equal the offered sizes to the bit.
            prop_assert_eq!(link.bytes_done(), total);
        }
    }
}
