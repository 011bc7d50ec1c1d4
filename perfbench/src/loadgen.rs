//! Open-loop load generation.
//!
//! Requests arrive on a seeded Poisson schedule in wall time, whatever the
//! service is doing, so a slow service faces a growing queue instead of
//! less load. Each request's latency runs from its *due* time, not from
//! when the generator got round to submitting it: a stall delays every
//! request due during it, and the stall shows in their latencies.

use crate::spans::{SpanId, Tracer};
use ba_crypto::rng::SimRng;
use std::time::{Duration, Instant};

/// Arrival times of a Poisson process with `rate_per_s` arrivals per
/// second over `[0, window)`. The same seed gives the same schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = SimRng::new(seed);
    let mut at = 0.0f64;
    let mut due = Vec::with_capacity((rate_per_s * window.as_secs_f64() * 1.1) as usize + 16);
    loop {
        // Uniform in (0, 1]: the inter-arrival gap is -ln(u) / rate.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        at += -u.ln() / rate_per_s;
        if at >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(at));
    }
}

/// How a request left the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Settled {
    /// Refused at submission.
    Refused,
    /// Decided, and the decision passed its checks.
    Decided,
    /// Decided wrongly, broke accounting or exceeded its bound.
    CheckFailed,
    /// Settled with a degradation verdict instead of a decision.
    Degraded,
    /// Evicted from the admission queue by load shedding.
    Shed,
}

/// What the generator needs from a service.
pub trait OpenLoopService {
    type Ticket: Copy;
    /// Offers request `index`; `None` when the service refuses it.
    fn submit(&mut self, index: usize) -> Option<Self::Ticket>;
    /// Advances the service by one step.
    fn tick(&mut self);
    /// Whether `ticket` has settled, and how.
    fn poll(&mut self, ticket: Self::Ticket) -> Option<Settled>;
    /// Whether nothing is queued or in flight.
    fn is_idle(&self) -> bool;
}

/// One request's fate, as offsets from the start of the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestRecord {
    pub due: Duration,
    /// When `submit` returned; `None` if the request was never offered.
    pub submitted: Option<Duration>,
    /// When a poll first saw the request settled.
    pub settled: Option<Duration>,
    /// `None` while unsettled.
    pub outcome: Option<Settled>,
}

impl RequestRecord {
    /// Due-to-settle latency.
    pub fn latency(&self) -> Option<Duration> {
        self.settled.map(|s| s.saturating_sub(self.due))
    }

    /// How late the generator submitted.
    pub fn lag(&self) -> Option<Duration> {
        self.submitted.map(|s| s.saturating_sub(self.due))
    }
}

/// The result of one open-loop run.
#[derive(Debug)]
pub struct OpenLoopRun {
    pub requests: Vec<RequestRecord>,
    /// From the start to the poll that saw the last request settle.
    pub wall: Duration,
}

impl OpenLoopRun {
    /// Due-to-settle latencies of the requests that settled as `kind`, in
    /// milliseconds.
    pub fn latencies_ms(&self, kind: Settled) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| r.outcome == Some(kind))
            .filter_map(RequestRecord::latency)
            .map(crate::spans::ms)
            .collect()
    }

    /// Submission lags in milliseconds.
    pub fn lags_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter_map(RequestRecord::lag)
            .map(crate::spans::ms)
            .collect()
    }

    /// Requests that ended as `kind`.
    pub fn count(&self, kind: Settled) -> usize {
        self.requests
            .iter()
            .filter(|r| r.outcome == Some(kind))
            .count()
    }
}

/// Offers request `i` at `start + due[i]` and ticks the service
/// until every accepted request has settled. While the service is idle
/// the generator spins until the next due time rather than sleeping, so
/// wake-up delay does not leak into latency.
///
/// Traced, it records a `request` span per request (due to settle) with
/// `svc.submit` and `svc.poll` (the poll that returned the outcome)
/// children, and a `svc.tick` span per tick.
pub fn drive<S: OpenLoopService>(
    service: &mut S,
    start: Instant,
    due: &[Duration],
    tracer: &mut Tracer,
) -> OpenLoopRun {
    let mut requests: Vec<RequestRecord> = due
        .iter()
        .map(|&due| RequestRecord {
            due,
            ..RequestRecord::default()
        })
        .collect();
    let mut spans: Vec<Option<SpanId>> = vec![None; due.len()];
    let mut pending: Vec<(usize, S::Ticket)> = Vec::new();
    let mut next = 0usize;
    let mut last_settle = Duration::ZERO;
    loop {
        let now = start.elapsed();
        while next < due.len() && due[next] <= now {
            let i = next;
            next += 1;
            spans[i] = tracer.open_at("request", start + due[i], None, Some(i as u64));
            let submit = tracer.open("svc.submit", spans[i], Some(i as u64));
            let ticket = service.submit(i);
            tracer.close(submit);
            requests[i].submitted = Some(start.elapsed());
            match ticket {
                Some(ticket) => pending.push((i, ticket)),
                None => {
                    requests[i].outcome = Some(Settled::Refused);
                    tracer.close(spans[i]);
                }
            }
        }
        if !service.is_idle() {
            let tick = tracer.open("svc.tick", None, None);
            service.tick();
            tracer.close(tick);
            let traced = tracer.enabled();
            pending.retain(|&(i, ticket)| {
                let asked = traced.then(Instant::now);
                let Some(outcome) = service.poll(ticket) else {
                    return true;
                };
                let now = Instant::now();
                if let Some(asked) = asked {
                    // Only the poll that returns the outcome gets a span;
                    // the misses before it would outnumber every other span.
                    let poll = tracer.open_at("svc.poll", asked, spans[i], Some(i as u64));
                    tracer.close_at(poll, now);
                }
                let at = now.duration_since(start);
                requests[i].settled = Some(at);
                requests[i].outcome = Some(outcome);
                tracer.close_at(spans[i], now);
                last_settle = at;
                false
            });
        } else if next == due.len() {
            break;
        } else {
            while start.elapsed() < due[next] {
                std::hint::spin_loop();
            }
        }
    }
    assert!(pending.is_empty(), "an idle service left tickets unsettled");
    OpenLoopRun {
        requests,
        wall: if last_settle.is_zero() {
            start.elapsed()
        } else {
            last_settle
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_from_the_seed() {
        let window = Duration::from_secs(2);
        let a = poisson_schedule(42, 1000.0, window);
        let b = poisson_schedule(42, 1000.0, window);
        let c = poisson_schedule(43, 1000.0, window);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        assert!(a.iter().all(|&d| d < window));
        // 2000 expected arrivals; 5 sigma is ~224.
        assert!((1776..=2224).contains(&a.len()), "{} arrivals", a.len());
        // A shorter window is a prefix of a longer one.
        let half = poisson_schedule(42, 1000.0, window / 2);
        assert_eq!(&a[..half.len()], &half[..]);
    }

    /// Settles each request two ticks after its submission; one tick
    /// stalls for a while once the clock passes `stall_after`.
    struct Mock {
        start: Instant,
        stall_after: Option<Duration>,
        stall_for: Duration,
        stalled: Option<(Instant, Instant)>,
        tick: u64,
        pending: Vec<(usize, u64)>,
        settled: Vec<usize>,
    }

    impl Mock {
        fn new(start: Instant, stall_after: Option<Duration>, stall_for: Duration) -> Mock {
            Mock {
                start,
                stall_after,
                stall_for,
                stalled: None,
                tick: 0,
                pending: Vec::new(),
                settled: Vec::new(),
            }
        }
    }

    impl OpenLoopService for Mock {
        type Ticket = usize;

        fn submit(&mut self, index: usize) -> Option<usize> {
            self.pending.push((index, self.tick + 2));
            Some(index)
        }

        fn tick(&mut self) {
            let now = Instant::now();
            let late = self.stall_after.is_some_and(|at| now >= self.start + at);
            if self.stalled.is_none() && late {
                std::thread::sleep(self.stall_for);
                self.stalled = Some((now, Instant::now()));
            }
            self.tick += 1;
            let tick = self.tick;
            self.settled
                .extend(self.pending.iter().filter(|p| p.1 <= tick).map(|p| p.0));
            self.pending.retain(|p| p.1 > tick);
        }

        fn poll(&mut self, ticket: usize) -> Option<Settled> {
            self.settled.contains(&ticket).then_some(Settled::Decided)
        }

        fn is_idle(&self) -> bool {
            self.pending.is_empty()
        }
    }

    #[test]
    fn a_stalled_tick_is_charged_to_every_request_due_during_it() {
        let due: Vec<Duration> = (0..80).map(Duration::from_millis).collect();
        let stall = Duration::from_millis(30);
        let start = Instant::now();
        let mut mock = Mock::new(start, Some(Duration::from_millis(20)), stall);
        let run = drive(&mut mock, start, &due, &mut Tracer::new(false));
        let (began, ended) = mock.stalled.expect("the stall happened");
        let began = began.saturating_duration_since(start);
        let ended = ended.saturating_duration_since(start);
        let during: Vec<&RequestRecord> = run
            .requests
            .iter()
            .filter(|r| r.due >= began && r.due < ended)
            .collect();
        assert!(
            during.len() >= 20,
            "{} requests due in the stall",
            during.len()
        );
        for r in &during {
            let waited = ended - r.due;
            assert!(
                r.latency().unwrap() >= waited,
                "request due at {:?} settled after {:?}, less than the {:?} the stall \
                 left it waiting",
                r.due,
                r.latency().unwrap(),
                waited
            );
            assert!(r.lag().unwrap() + Duration::from_millis(1) >= waited);
        }
        // Without the stall the same requests settle within a few ticks.
        let start = Instant::now();
        let mut calm = Mock::new(start, None, stall);
        let calm_run = drive(&mut calm, start, &due, &mut Tracer::new(false));
        let worst_calm = calm_run
            .requests
            .iter()
            .filter_map(RequestRecord::latency)
            .max()
            .unwrap();
        let worst_stalled = during.iter().filter_map(|r| r.latency()).max().unwrap();
        assert!(
            worst_stalled > worst_calm,
            "{worst_stalled:?} vs {worst_calm:?}"
        );
        assert_eq!(run.count(Settled::Decided), due.len());
    }

    #[test]
    fn traced_drive_links_submit_and_poll_to_the_request() {
        let due: Vec<Duration> = (0..5).map(|i| Duration::from_micros(100 * i)).collect();
        let start = Instant::now();
        let mut mock = Mock::new(start, None, Duration::ZERO);
        let mut tracer = Tracer::new(true);
        let run = drive(&mut mock, start, &due, &mut tracer);
        assert_eq!(run.count(Settled::Decided), 5);
        assert_eq!(tracer.durations_ms("request").len(), 5);
        assert_eq!(tracer.durations_ms("svc.submit").len(), 5);
        assert_eq!(tracer.durations_ms("svc.tick").len() as u64, mock.tick);
        assert!(tracer.to_jsonl().contains("\"name\":\"svc.poll\""));
    }
}
