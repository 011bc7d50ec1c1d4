//! `svc-overload`: open-loop load, at about 2.5 times what the service
//! sustains, on a `BaService` session of ds-relay instances (n = 64,
//! t = 1) sharing one verifier cache, over a lossy wire.
//!
//! A pass is a series of short rounds. Each round sets up afresh —
//! generates its arrival schedule, builds one instance spec per arrival,
//! runs one untimed warm-up agreement — then offers its arrivals to a new
//! session. Timings are medians over the rounds, so a round that meets a
//! busy host moves them little, and only one round's specs are alive at a
//! time.

use crate::loadgen::{self, OpenLoopRun, OpenLoopService, Settled};
use crate::report::{peak_rss_mib, Outcome};
use crate::spans::{ms, Tracer};
use crate::stats::{median, ratio, Summary};
use crate::Ctx;
use ba_algos::checkable::{find_target, CheckConfig, CheckTarget};
use ba_crypto::rng::{derive_seed, SimRng};
use ba_crypto::{Chain, Value, VerifierCache};
use ba_net::{
    instance_seed, run_target, AdmissionPolicy, BaService, ChaosProfile, InstanceRun, InstanceSpec,
    NetConfig, NetStats, SvcConfig, SvcReport, SvcSession, Ticket, TicketOutcome,
};
use ba_sim::schedule::ScheduleSpec;
use ba_sim::QueueStats;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TARGET: &str = "ds-relay";
pub const N: usize = 64;
pub const T: usize = 1;
pub const MAX_INFLIGHT: usize = 32;
/// Offered load, agreements per second of wall time: about 2.5 times what
/// the service sustains over this lossy wire on a 2-vCPU host.
pub const RATE_PER_S: f64 = 6000.0;
/// Per-link loss in 1/1000, so the wire retransmits.
pub const LOSS_PER_MILLE: u16 = 50;
pub const QUEUE_CAPACITY: usize = 64;
pub const ADMISSION: AdmissionPolicy = AdmissionPolicy::ShedOldest;
/// Nominal length of one round's arrival window, in seconds.
const ROUND_S: f64 = 1.25;

/// Decided instances per round replayed standalone at one worker thread
/// to check that their counts match the session's run on `nproc`.
const REPLAYED: usize = 4;

/// The tail percentile `latency_p99_ms` reports.
const TAIL_PCT: f64 = 99.0;

/// Agreed bytes per instance: one value word.
const VALUE_BYTES: f64 = 8.0;

/// Rounds in a pass of `seconds`, and each round's arrival window.
pub fn rounds(seconds: Duration) -> (u32, Duration) {
    let rounds = (seconds.as_secs_f64() / ROUND_S).round().max(1.0) as u32;
    (rounds, seconds / rounds)
}

/// Everything a round builds before its timed section.
struct Prepared {
    due: Vec<Duration>,
    values: Vec<Value>,
    specs: Vec<Option<InstanceSpec<Chain>>>,
    service: BaService,
    cache: Arc<VerifierCache>,
    chaos: ChaosProfile,
    registry_seed: u64,
    message_bound: u64,
}

fn config(value: Value, registry_seed: u64) -> CheckConfig {
    CheckConfig::new(N, T, value, registry_seed, 1, ScheduleSpec::default())
}

fn target() -> &'static CheckTarget {
    find_target(TARGET).expect("ds-relay is a registered target")
}

/// Generates round `round`'s inputs, builds every instance spec and runs
/// one untimed warm-up agreement through the service.
fn prepare(ctx: &Ctx, round: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
    let setup = tracer.open("setup", None, None);
    let seed = |k: u64| derive_seed(ctx.seed, 16 * round + k);
    let (_, window) = rounds(ctx.seconds);
    let due = loadgen::poisson_schedule(seed(1), RATE_PER_S, window);
    let mut rng = SimRng::new(seed(2));
    let values: Vec<Value> = (0..=due.len())
        .map(|_| Value(u64::from(rng.next_bool())))
        .collect();
    let registry_seed = seed(3);
    let chaos = ChaosProfile::lossy(seed(4), LOSS_PER_MILLE);
    let cache = Arc::new(VerifierCache::new());
    let service = BaService::new(
        SvcConfig::new()
            .with_threads(ctx.nproc)
            .with_max_inflight(MAX_INFLIGHT)
            .with_queue_capacity(QUEUE_CAPACITY)
            .with_admission(ADMISSION),
    )
    .with_chaos(chaos.clone())
    .with_shared_cache(Arc::clone(&cache));

    let target = target();
    let mut message_bound = 0;
    let mut specs = Vec::with_capacity(values.len());
    for (i, &value) in values.iter().enumerate() {
        let build = tracer.open("algos.build", setup, Some(i as u64));
        let built = target.build_shared(&config(value, registry_seed), &cache);
        tracer.close(build);
        let built = built.map_err(|e| format!("building instance {i}: {e}"))?;
        message_bound = built.message_bound;
        specs.push(Some(InstanceSpec {
            actors: built.actors,
            phases: built.phases,
            fault_budget: T,
            link_drops: vec![],
            registry: Some(built.registry),
        }));
    }

    // Warm-up: the spare last spec runs alone, in its own session.
    let warm = tracer.open("warmup", setup, None);
    let mut session = service.session::<Chain>();
    let spec = specs.pop().flatten().expect("one spare spec");
    session
        .submit(spec)
        .map_err(|e| format!("warm-up refused: {e}"))?;
    let report = session.drain();
    tracer.close(warm);
    tracer.close(setup);
    match report.outcomes.first().map(|o| &o.result) {
        Some(Ok(run)) => check_run(run, values[values.len() - 1], message_bound)?,
        _ => return Err("warm-up agreement did not decide".into()),
    }
    Ok(Prepared {
        due,
        values,
        specs,
        service,
        cache,
        chaos,
        registry_seed,
        message_bound,
    })
}

/// Agreement, validity and the message bound for one decided instance.
fn check_run(run: &InstanceRun, value: Value, bound: u64) -> Result<(), String> {
    let mut decided = run
        .decisions
        .iter()
        .zip(&run.correct)
        .filter(|(_, &correct)| correct)
        .map(|(d, _)| *d);
    let first = decided.next().flatten();
    if first.is_none() || decided.any(|d| d != first) {
        return Err("correct processors disagree or did not decide".into());
    }
    if run.correct[0] && first != Some(value) {
        return Err(format!(
            "decided {first:?}, but the transmitter sent {value}"
        ));
    }
    if run.metrics.messages_by_correct > bound {
        return Err(format!(
            "{} messages exceed the bound {bound}",
            run.metrics.messages_by_correct
        ));
    }
    Ok(())
}

/// The session behind the load generator.
struct Adapter<'a> {
    session: SvcSession<Chain>,
    specs: &'a mut [Option<InstanceSpec<Chain>>],
    values: &'a [Value],
    message_bound: u64,
    problems: Vec<String>,
    /// Instances in flight, summed over the ticks.
    inflight_sum: u64,
}

impl OpenLoopService for Adapter<'_> {
    type Ticket = (usize, Ticket);

    fn submit(&mut self, index: usize) -> Option<(usize, Ticket)> {
        let spec = self.specs[index].take().expect("each spec is offered once");
        self.session.submit(spec).ok().map(|t| (index, t))
    }

    fn tick(&mut self) {
        self.inflight_sum += self.session.in_flight() as u64;
        self.session.tick();
    }

    fn poll(&mut self, (index, ticket): (usize, Ticket)) -> Option<Settled> {
        match self.session.try_outcome(ticket)? {
            TicketOutcome::Shed(_) => Some(Settled::Shed),
            TicketOutcome::Settled(outcome) => Some(match &outcome.result {
                Err(_) => Settled::Degraded,
                Ok(run) => match check_run(run, self.values[index], self.message_bound) {
                    Ok(()) => Settled::Decided,
                    Err(e) => {
                        self.problems.push(format!("request {index}: {e}"));
                        Settled::CheckFailed
                    }
                },
            }),
        }
    }

    fn is_idle(&self) -> bool {
        self.session.is_idle()
    }
}

/// Exact counts summed over the decided instances. Which instances are
/// shed depends on timing, so only each instance's own counts repeat.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    agreements: u64,
    messages: u64,
    signatures: u64,
    bytes: u64,
    hashes: u64,
    sig_verifications: u64,
    phases: u64,
    transmissions: u64,
    retransmissions: u64,
}

impl Counts {
    fn add(&mut self, run: &InstanceRun) {
        self.agreements += 1;
        self.messages += run.metrics.messages_by_correct;
        self.signatures += run.metrics.signatures_by_correct;
        self.bytes += run.metrics.wire_bytes();
        self.hashes += run.metrics.crypto.hash_invocations;
        self.sig_verifications += run.metrics.crypto.sig_verifications;
        self.phases += run.metrics.phases as u64;
        self.transmissions += run.stats.physical_transmissions;
        self.retransmissions += run.stats.retransmissions;
    }

    fn merge(&mut self, o: &Counts) {
        self.agreements += o.agreements;
        self.messages += o.messages;
        self.signatures += o.signatures;
        self.bytes += o.bytes;
        self.hashes += o.hashes;
        self.sig_verifications += o.sig_verifications;
        self.phases += o.phases;
        self.transmissions += o.transmissions;
        self.retransmissions += o.retransmissions;
    }

    fn per(&self, total: u64) -> f64 {
        ratio(total as f64, self.agreements as f64)
    }
}

/// Replays the first decided instances standalone on the chaos runtime at
/// one worker thread, under the per-instance chaos seed the session used,
/// and compares their traffic counts: an instance's counts depend neither
/// on the worker count nor on the instances it shared the session with.
fn replay_matches(prep: &Prepared, report: &SvcReport) -> Result<(), String> {
    let net = NetConfig::new().with_threads(1);
    let key = |m: &ba_sim::Metrics, s: &NetStats| {
        (
            m.messages_by_correct,
            m.signatures_by_correct,
            m.wire_bytes(),
            m.phases,
            s.physical_transmissions,
            s.retransmissions,
            s.frames_delivered,
        )
    };
    for outcome in report.outcomes.iter().take(REPLAYED) {
        let Ok(multiplexed) = &outcome.result else {
            continue;
        };
        let id = outcome.id;
        let chaos = prep
            .chaos
            .clone()
            .reseeded(instance_seed(prep.chaos.seed, id));
        let cfg = config(prep.values[id as usize], prep.registry_seed);
        let solo = run_target(target(), &cfg, &net, &chaos)
            .map_err(|e| format!("replay of instance {id}: {e}"))?;
        let (want, got) = (
            key(&multiplexed.metrics, &multiplexed.stats),
            key(&solo.metrics, &solo.stats),
        );
        if want != got || multiplexed.decisions != solo.decisions {
            return Err(format!(
                "instance {id}: session counts {want:?} differ from the one-thread replay {got:?}"
            ));
        }
    }
    Ok(())
}

/// What one round measured.
struct Round {
    setup_s: f64,
    open: OpenLoopRun,
    counts: Counts,
    stats: NetStats,
    queue: QueueStats,
    ticks: u64,
    inflight_sum: u64,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    message_bound: u64,
}

/// Sets up and measures round `k`, appending check failures to
/// `problems`. `Err` when the set-up itself failed.
fn round(
    ctx: &Ctx,
    k: u64,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut prep = prepare(ctx, k, tracer)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let cache0 = (
        prep.cache.hits(),
        prep.cache.misses(),
        prep.cache.evictions(),
    );

    let mut adapter = Adapter {
        session: prep.service.session(),
        specs: &mut prep.specs,
        values: &prep.values,
        message_bound: prep.message_bound,
        problems: Vec::new(),
        inflight_sum: 0,
    };
    let open = loadgen::drive(&mut adapter, Instant::now(), &prep.due, tracer);
    let Adapter {
        session,
        problems: polled,
        inflight_sum,
        ..
    } = adapter;
    problems.extend(polled);
    let report = session.drain();

    if !report.accounting_balanced() {
        problems.push(format!("round {k}: session accounting is unbalanced"));
    }
    let mut counts = Counts::default();
    let mut queue_wait_ms = Vec::new();
    let mut service_ms = Vec::new();
    for o in &report.outcomes {
        if let Ok(run) = &o.result {
            if check_run(run, prep.values[o.id as usize], prep.message_bound).is_ok() {
                counts.add(run);
                queue_wait_ms.push(ms(o.queue_wait()));
                service_ms.push(ms(o.service_time()));
            }
        }
    }
    let decided = open.count(Settled::Decided) as u64;
    if counts.agreements != decided {
        problems.push(format!(
            "round {k}: {decided} requests polled decided, but the report holds {} correct \
             decisions",
            counts.agreements
        ));
    }
    if let Err(e) = replay_matches(&prep, &report) {
        problems.push(format!("fingerprint, round {k}: {e}"));
    }
    Ok(Round {
        setup_s,
        open,
        counts,
        stats: report.stats,
        queue: report.queue,
        ticks: report.ticks,
        inflight_sum,
        queue_wait_ms,
        service_ms,
        cache_hits: prep.cache.hits() - cache0.0,
        cache_misses: prep.cache.misses() - cache0.1,
        cache_evictions: prep.cache.evictions() - cache0.2,
        message_bound: prep.message_bound,
    })
}

/// Runs one pass of the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut measured = Vec::new();
    for k in 0..u64::from(rounds(ctx.seconds).0) {
        match round(ctx, k, tracer, &mut out.problems) {
            Ok(r) => measured.push(r),
            Err(e) => {
                out.fail_setup(format!("set-up of round {k}: {e}"));
                return out;
            }
        }
    }

    let mut counts = Counts::default();
    let mut stats = NetStats::default();
    let (mut shed, mut rejected, mut depth_sum, mut depth_samples) = (0, 0, 0, 0);
    let (mut ticks, mut inflight_sum) = (0, 0);
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    let (mut p50s, mut tails, mut rates, mut setups) = (vec![], vec![], vec![], vec![]);
    let (mut lags, mut queue_wait, mut service) = (vec![], vec![], vec![]);
    let mut decided_total = 0;
    for (k, r) in measured.iter().enumerate() {
        let open = &r.open;
        // Shed requests are the admission policy at work, not failures.
        let failed = open
            .requests
            .iter()
            .filter(|q| !matches!(q.outcome, Some(Settled::Decided | Settled::Shed)))
            .count();
        out.attempted += open.requests.len() as u64;
        out.failed += failed as u64;
        let decided = open.count(Settled::Decided);
        decided_total += decided;
        let rate = decided as f64 / open.wall.as_secs_f64();
        match Summary::of(&open.latencies_ms(Settled::Decided), TAIL_PCT) {
            Some(s) => {
                eprintln!(
                    "round {k}: latency (ms, due to decision) {s}; {decided} decided \
                     ({rate:.1}/s), {} shed, set-up {:.3} s",
                    open.count(Settled::Shed),
                    r.setup_s
                );
                if let Err(e) = s.check_tail() {
                    out.problems.push(format!("round {k}, latency_p99_ms: {e}"));
                }
                p50s.push(s.p50);
                tails.push(s.tail);
            }
            None => out.problems.push(format!("round {k}: nothing decided")),
        }
        rates.push(rate);
        setups.push(r.setup_s);
        lags.extend(open.lags_ms());
        queue_wait.extend_from_slice(&r.queue_wait_ms);
        service.extend_from_slice(&r.service_ms);
        counts.merge(&r.counts);
        stats.absorb(&r.stats);
        shed += r.queue.shed;
        rejected += r.queue.rejected;
        depth_sum += r.queue.depth_sum;
        depth_samples += r.queue.depth_samples;
        ticks += r.ticks;
        inflight_sum += r.inflight_sum;
        hits += r.cache_hits;
        misses += r.cache_misses;
        evictions += r.cache_evictions;
    }
    eprintln!(
        "counts: agreements {} messages {} signatures {} bytes {} hashes {} \
         sig_verifications {} phases {} transmissions {} retransmissions {}",
        counts.agreements,
        counts.messages,
        counts.signatures,
        counts.bytes,
        counts.hashes,
        counts.sig_verifications,
        counts.phases,
        counts.transmissions,
        counts.retransmissions
    );

    // End to end: medians over the rounds, so a round that meets a busy
    // host moves them little.
    let v = &mut out.values;
    if !p50s.is_empty() {
        v.set("latency_p50_ms", median(&p50s), decided_total);
        v.set("latency_p99_ms", median(&tails), decided_total);
    }
    let rate = median(&rates);
    v.set("agreements_per_s", rate, decided_total);
    v.set(
        "payload_mib_per_s",
        VALUE_BYTES * rate / (1024.0 * 1024.0),
        decided_total,
    );
    v.set("setup_s", median(&setups), setups.len());
    v.set("peak_rss_mib", peak_rss_mib(), 1);

    // Per layer: counts.
    if let Some(s) = Summary::of(&lags, 99.0) {
        v.set("loadgen.lag_p99_ms", s.tail, s.samples);
    }
    v.set("loadgen.offered", out.attempted as f64, 1);
    if !queue_wait.is_empty() {
        v.set(
            "svc.queue_wait_ms_p50",
            median(&queue_wait),
            queue_wait.len(),
        );
        v.set("svc.service_ms_p50", median(&service), service.len());
    }
    let agreements = counts.agreements as f64;
    v.set(
        "svc.ticks_per_agreement",
        ratio(ticks as f64, agreements),
        1,
    );
    v.set(
        "svc.inflight_mean",
        ratio(inflight_sum as f64, ticks as f64),
        ticks as usize,
    );
    v.set(
        "svc.queue_depth_mean",
        ratio(depth_sum as f64, depth_samples as f64),
        depth_samples as usize,
    );
    v.set("svc.shed", shed as f64, 1);
    v.set("svc.rejected", rejected as f64, 1);
    v.set(
        "wire.transmissions_per_agreement",
        counts.per(counts.transmissions),
        1,
    );
    v.set(
        "wire.retransmissions_per_agreement",
        counts.per(counts.retransmissions),
        1,
    );
    v.set(
        "wire.delivered_frac",
        ratio(
            stats.frames_delivered as f64,
            stats.physical_transmissions as f64,
        ),
        1,
    );
    v.set(
        "wire.frames_per_flush",
        stats.frames_per_flush(),
        stats.flushes as usize,
    );
    v.set(
        "wire.flushes_per_agreement",
        ratio(stats.flushes as f64, agreements),
        1,
    );
    v.set("wire.frames_failed", stats.frames_failed as f64, 1);
    v.set("crypto.hashes_per_agreement", counts.per(counts.hashes), 1);
    v.set(
        "crypto.sig_verifications_per_agreement",
        counts.per(counts.sig_verifications),
        1,
    );
    v.set(
        "crypto.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        (hits + misses) as usize,
    );
    v.set("crypto.cache_evictions", evictions as f64, 1);
    v.set(
        "algos.messages_per_agreement",
        counts.per(counts.messages),
        1,
    );
    v.set(
        "algos.signatures_per_agreement",
        counts.per(counts.signatures),
        1,
    );
    let bound = measured.first().map_or(0, |r| r.message_bound);
    v.set(
        "algos.bound_ratio",
        ratio(counts.per(counts.messages), bound as f64),
        1,
    );
    v.set("engine.phases", counts.per(counts.phases), 1);
    v.set("engine.bytes_per_agreement", counts.per(counts.bytes), 1);

    // Per layer: times from the spans.
    if tracer.enabled() {
        let wall: f64 = measured.iter().map(|r| r.open.wall.as_secs_f64()).sum();
        for (metric, span) in [
            ("svc.submit_us_p50", "svc.submit"),
            ("svc.poll_us_p50", "svc.poll"),
            ("algos.build_us_p50", "algos.build"),
        ] {
            let d = tracer.durations_ms(span);
            if !d.is_empty() {
                v.set(metric, median(&d) * 1e3, d.len());
            }
        }
        let ticks_ms = tracer.durations_ms("svc.tick");
        if let Some(s) = Summary::of(&ticks_ms, 99.0) {
            v.set("svc.tick_us_p50", s.p50 * 1e3, s.samples);
            v.set("svc.tick_us_p99", s.tail * 1e3, s.samples);
        }
        v.set(
            "svc.busy_frac",
            tracer.total_ms("svc.tick") / 1e3 / wall,
            ticks_ms.len(),
        );
    }
    out
}
