//! Request schedules for the scoring workloads.
//!
//! One call drives one connection. In the open loop requests fall due
//! on a fixed schedule whether or not the server kept up, and each is
//! timed from its due time, so a stall is charged to every later
//! request it delays (a closed loop would hide it by sending less).
//! The closed loop sends the next request as soon as the previous
//! answer arrives.

use std::time::{Duration, Instant};

pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until_ns(&self, t: u64);
}

/// Monotonic wall clock counted from a shared start instant.
pub struct Wall(pub Instant);

impl Clock for Wall {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until_ns(&self, t: u64) {
        let now = self.now_ns();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// What one request did, in clock nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl Sample {
    /// Latency a user sees: from when the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 * 1e-6
    }

    /// Time on the wire and in the server: from the actual send.
    pub fn service_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 * 1e-6
    }

    /// How far behind schedule the generator sent this request.
    pub fn late_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 * 1e-6
    }
}

/// Requests `k = 0, 1, ...` fall due at `first_due_ns + k·interval_ns`
/// until `end_ns`. `send(k)` performs request `k` and reports success.
pub fn open_loop(
    clock: &impl Clock,
    first_due_ns: u64,
    interval_ns: u64,
    end_ns: u64,
    mut send: impl FnMut(u64) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut k = 0u64;
    loop {
        let due_ns = first_due_ns + k * interval_ns;
        if due_ns >= end_ns {
            return out;
        }
        clock.sleep_until_ns(due_ns);
        let sent_ns = clock.now_ns();
        let ok = send(k);
        out.push(Sample {
            due_ns,
            sent_ns,
            done_ns: clock.now_ns(),
            ok,
        });
        k += 1;
    }
}

/// Back-to-back requests until `end_ns`; each is due when it is sent.
pub fn closed_loop(
    clock: &impl Clock,
    end_ns: u64,
    mut send: impl FnMut(u64) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut k = 0u64;
    loop {
        let sent_ns = clock.now_ns();
        if sent_ns >= end_ns {
            return out;
        }
        let ok = send(k);
        out.push(Sample {
            due_ns: sent_ns,
            sent_ns,
            done_ns: clock.now_ns(),
            ok,
        });
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Simulated time: sleeping jumps forward, a request advances the
    /// clock by its service time.
    struct Sim(Cell<u64>);

    impl Clock for Sim {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until_ns(&self, t: u64) {
            self.0.set(self.0.get().max(t));
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stall_shows_in_the_latency_of_later_requests() {
        let clock = Sim(Cell::new(0));
        // Due every 10 ms; requests take 1 ms, except request 2 stalls
        // for 35 ms.
        let samples = open_loop(&clock, 0, 10 * MS, 100 * MS, |k| {
            let service = if k == 2 { 35 * MS } else { MS };
            clock.0.set(clock.0.get() + service);
            true
        });
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        assert_eq!(samples.len(), 10);
        assert_eq!(lat[..2], [1.0, 1.0]);
        assert_eq!(lat[2], 35.0);
        // Request 3 was due at 30 ms but could only go at 55 ms.
        assert_eq!(lat[3], 26.0);
        assert_eq!(samples[3].late_ms(), 25.0);
        assert_eq!(samples[3].service_ms(), 1.0);
        assert_eq!(lat[4], 17.0);
        assert_eq!(lat[5], 8.0);
        // The backlog has drained by request 6.
        assert_eq!(lat[6..], [1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn a_closed_loop_sends_back_to_back_and_never_runs_late() {
        let clock = Sim(Cell::new(0));
        let samples = closed_loop(&clock, 10 * MS, |k| {
            clock
                .0
                .set(clock.0.get() + if k == 1 { 5 * MS } else { MS });
            k != 3
        });
        assert_eq!(samples.len(), 6);
        assert!(samples.iter().all(|s| s.late_ms() == 0.0));
        assert_eq!(samples[1].latency_ms(), 5.0);
        assert!(!samples[3].ok);
    }
}
