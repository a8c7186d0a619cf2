//! Open-loop load schedule: operation `i` is *due* at `i / rate` after
//! the phase starts, whatever happened to the operations before it.
//! Latency is counted from the due time, so a stall charges every
//! operation it delays, and how late the generator actually sent is
//! reported beside it.

use std::time::{Duration, Instant};

/// Due time of operation `index`, as an offset from the phase start.
pub fn due_offset(index: usize, rate_per_s: u32) -> Duration {
    Duration::from_nanos(index as u64 * 1_000_000_000 / u64::from(rate_per_s))
}

/// Operations that fall due in `seconds` at `rate_per_s`.
pub fn ops_due_within(seconds: f64, rate_per_s: u32) -> usize {
    (seconds * f64::from(rate_per_s)).floor() as usize
}

/// Indices of the operations connection `lane` of `lanes` sends:
/// round-robin, so every connection carries the same rate.
pub fn lane_indices(lane: usize, lanes: usize, count: usize) -> impl Iterator<Item = usize> {
    (lane..count).step_by(lanes)
}

/// One operation's timestamps, as offsets from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule wanted it sent.
    pub due: Duration,
    /// When the generator sent it.
    pub sent: Duration,
    /// When the result was in hand.
    pub done: Duration,
}

impl Timing {
    /// Latency a user on the schedule saw: due → result in hand.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent: 0 when it sent on or before the
    /// due time.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Blocks until `start + due`: sleeps to within a margin, then spins,
/// because a bare sleep overshoots by more than the 1 ms the generator
/// is allowed to lag.
pub fn wait_until(start: Instant, due: Duration) {
    const SPIN_MARGIN: Duration = Duration::from_micros(300);
    let target = start + due;
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > SPIN_MARGIN {
            std::thread::sleep(left - SPIN_MARGIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
