//! Open-loop arrivals: requests are due on a fixed schedule whatever the
//! server does, and each is timed from when it was *due*, so the wait a
//! stall imposes on later requests is counted (no coordinated omission).

use std::time::{Duration, Instant};

/// Time as the generator sees it; a fake one drives the unit tests.
pub trait Clock {
    /// Time since the schedule started.
    fn now(&self) -> Duration;
    /// Returns once `now() >= due`.
    fn wait_until(&self, due: Duration);
}

/// The real clock. A generator with a CPU of its own (the traced run's,
/// on the second-to-last allowed CPU) spins to the due time, because
/// sleeping would add the timer's and the scheduler's wake-up latency to
/// every request; one that shares the pinned CPU with the server (the
/// 40/s writer of `wire-write-beside-read`) must sleep instead.
pub struct WallClock {
    start: Instant,
    spin: bool,
}

impl WallClock {
    pub fn start(spin: bool) -> WallClock {
        WallClock {
            start: Instant::now(),
            spin,
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn wait_until(&self, due: Duration) {
        if self.spin {
            while self.start.elapsed() < due {
                std::hint::spin_loop();
            }
        } else if let Some(wait) = due.checked_sub(self.start.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

#[derive(Debug, Default, PartialEq)]
pub struct OpenLoopRun {
    /// Completion time minus due time, per request, in microseconds.
    pub latency_us: Vec<f64>,
    /// Send time minus due time: how late the generator ran.
    pub lateness_us: Vec<f64>,
}

/// Issues `count` requests at `rate` per second over one connection:
/// request `i` is due at `i / rate`. A request whose predecessor is
/// still in flight at its due time is sent late — and that lateness is
/// part of its latency. `op` returns whether to go on; a `false` ends
/// the schedule without recording that request.
pub fn run(
    clock: &impl Clock,
    rate: f64,
    count: usize,
    mut op: impl FnMut(usize) -> bool,
) -> OpenLoopRun {
    let mut out = OpenLoopRun {
        latency_us: Vec::with_capacity(count),
        lateness_us: Vec::with_capacity(count),
    };
    for i in 0..count {
        let due = Duration::from_secs_f64(i as f64 / rate);
        clock.wait_until(due);
        let sent = clock.now();
        if !op(i) {
            break;
        }
        let done = clock.now();
        out.lateness_us.push((sent - due).as_secs_f64() * 1e6);
        out.latency_us.push((done - due).as_secs_f64() * 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn wait_until(&self, due: Duration) {
            self.0.set(self.0.get().max(due));
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // 1000/s: due at 0, 1, 2, 3, 4 ms. Service takes 0.1 ms, except
        // request 1, which stalls for 2.5 ms.
        let service_us = [100, 2500, 100, 100, 100];
        let out = run(&clock, 1000.0, 5, |i| {
            clock
                .0
                .set(clock.0.get() + Duration::from_micros(service_us[i]));
            true
        });
        let round = |v: &[f64]| v.iter().map(|x| x.round()).collect::<Vec<_>>();
        // Request 2 was due at 2 ms but sent at 3.5 ms; request 3 due at
        // 3 ms, sent at 3.6 ms; request 4 is on time again.
        assert_eq!(round(&out.lateness_us), [0.0, 0.0, 1500.0, 600.0, 0.0]);
        assert_eq!(
            round(&out.latency_us),
            [100.0, 2500.0, 1600.0, 700.0, 100.0]
        );
    }

    #[test]
    fn on_time_generator_reports_zero_lateness() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let out = run(&clock, 100.0, 3, |_| {
            clock.0.set(clock.0.get() + Duration::from_micros(10));
            true
        });
        assert_eq!(out.lateness_us, [0.0, 0.0, 0.0]);
        assert!(out.latency_us.iter().all(|&l| (l - 10.0).abs() < 1e-6));
    }

    #[test]
    fn a_false_from_the_operation_ends_the_schedule() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let out = run(&clock, 100.0, 10, |i| i < 4);
        assert_eq!(out.latency_us.len(), 4);
    }
}
