//! `ba-svc`: the multi-instance BA service — many concurrent agreement
//! instances over one wire, one worker pool and one verifier cache, behind
//! an open-loop session API with explicit admission control.
//!
//! The paper bounds the information exchange of a *single* agreement; a
//! serving system runs one instance per client request, amortizes the
//! fixed machinery across all of them, and — crucially — keeps accepting
//! requests while earlier ones are still deciding. This module is that
//! layer:
//!
//! * **Session API** — [`BaService::session`] opens a long-lived
//!   [`SvcSession`]: [`submit`](SvcSession::submit) offers one
//!   [`InstanceSpec`] and returns a [`Ticket`] (or a structured
//!   [`AdmissionError`]), [`tick`](SvcSession::tick) advances every
//!   in-flight instance one phase, [`try_outcome`](SvcSession::try_outcome)
//!   polls a ticket for settlement, and [`drain`](SvcSession::drain) runs
//!   the session to quiescence and produces the [`SvcReport`].
//! * **Admission control & backpressure** — a bounded queue
//!   ([`SvcConfig::queue_capacity`]) guards [`SvcConfig::max_inflight`].
//!   When the queue is full the session applies its [`AdmissionPolicy`] —
//!   reject, shed-oldest, or block-with-deadline — and every submission,
//!   accepted or refused, is recorded as a structured [`AdmissionVerdict`]
//!   in the session's admission log. Backpressure never panics and never
//!   drops silently: a shed instance leaves a [`ShedOutcome`], and the
//!   report's accounting is exact (`submitted = decided + degraded +
//!   shed`).
//! * **Open-loop arrivals** — [`PoissonArrivals`] is a seeded Poisson
//!   process over service ticks, so benchmarks and tests can offer
//!   sustained load (λ instances per tick) instead of a fixed batch, and
//!   measure steady-state agreements/sec plus submission-to-decision
//!   latency (queue wait included) rather than batch-relative figures.
//! * **Instance tagging** — every frame the service coalesces is a
//!   [`TaggedFrame`]: the wire envelope plus the id of the BA instance it
//!   belongs to, so one physical flush can carry many instances' traffic
//!   and still demultiplex exactly.
//! * **Pipelined phases** — each [`tick`](SvcSession::tick) admits up to
//!   [`SvcConfig::admit_per_tick`] queued instances and advances *every*
//!   in-flight instance by one phase, so instance `k + 1`'s phase 1
//!   overlaps instance `k`'s phase 2: the coordination cost of a tick (one
//!   pool fan-out, one cache flush) is paid once for the whole fleet.
//! * **Shared-wire batching** — all instances' frames for one directed
//!   link are assembled into a single flush per tick
//!   ([`NetStats::flushes`] counts them; the standalone runtime's
//!   one-send-per-frame behaviour shows up as `solo_flushes`).
//! * **Shared verifier cache** — built with
//!   [`BaService::with_shared_cache`], every instance's registry shares
//!   one sharded [`VerifierCache`], so a signer prefix verified by any
//!   instance is a cache hit fleet-wide. Sound only because all instances
//!   of one service share a cluster identity (same registry seed); see
//!   [`KeyRegistry::with_shared_cache`](ba_crypto::keys::KeyRegistry::with_shared_cache).
//! * **Flush-boundary batch verification** — when an instance's
//!   [`InstanceSpec::registry`] is present, the service verifies each
//!   distinct signature chain a flush delivers *once* and stamps its
//!   shared buffer ([`Chain::mark_verified`](ba_crypto::Chain::mark_verified)),
//!   so all `n` recipients' own `verify` calls are O(1) stamp hits.
//! * **Per-instance verdicts** — chaos fates, retransmission state, fault
//!   budgets and degradation are all tracked per instance: one instance
//!   blowing its budget yields *its own* [`DegradationVerdict`] while the
//!   rest of the fleet keeps deciding.
//!
//! # Tracks
//!
//! Each in-flight instance is a *track*: the one chaos-wire executor in
//! this crate, owning its actors, inboxes, scheduled drops, fate rng,
//! suspicion set, metrics and wire statistics. A session steps K tracks
//! per tick (its parallelism is across tracks, so each track steps its
//! actors inline); the standalone
//! [`NetRuntime`](crate::runtime::NetRuntime) drives a single track
//! straight to settlement, stepping its actors in contiguous chunks on the
//! shared pool instead.
//!
//! # Determinism
//!
//! Each instance draws its chaos fates from a private [`SimRng`] seeded
//! [`instance_seed`]`(profile.seed, ticket)`, and its phases run on the
//! same track code as the standalone
//! [`NetRuntime`](crate::runtime::NetRuntime). A multiplexed instance is
//! therefore byte-identical — decisions,
//! suspicion, wire statistics — to a standalone run under
//! [`ChaosProfile::reseeded`]`(instance_seed(seed, ticket))`, at any
//! worker count: batching changes *when* frames share a physical flush,
//! never which frames exist or what fate each one rolls. The shared cache
//! runs in deferred mode and flushes once per service tick, so the
//! session's own counters are also worker-count independent. Admission is
//! deterministic too: the same submission schedule (which `submit`/`tick`
//! calls in which order) yields the same tickets, the same admission
//! verdicts and the same shed set, at any worker count — only wall-clock
//! durations vary.
//!
//! # Example
//!
//! ```
//! use ba_net::{AdmissionPolicy, BaService, InstanceSpec, SvcConfig};
//! use ba_crypto::{ProcessId, Value};
//! use ba_sim::actor::{Actor, Envelope, Outbox};
//!
//! #[derive(Debug)]
//! struct Echo(Value);
//! impl Actor<Value> for Echo {
//!     fn step(&mut self, _phase: usize, _inbox: &[Envelope<Value>], out: &mut Outbox<Value>) {
//!         out.send(ProcessId(0), self.0);
//!     }
//!     fn decision(&self) -> Option<Value> { Some(self.0) }
//! }
//!
//! let service = BaService::new(SvcConfig::new().with_admission(AdmissionPolicy::Reject));
//! let mut session = service.session::<Value>();
//! let ticket = session
//!     .submit(InstanceSpec {
//!         actors: vec![Box::new(Echo(Value::ONE))],
//!         phases: 1,
//!         fault_budget: 0,
//!         link_drops: vec![],
//!         registry: None,
//!     })
//!     .expect("queue has room");
//! let report = session.drain();
//! assert_eq!(report.outcomes[0].ticket(), ticket);
//! assert!(report.accounting_balanced());
//! ```

use crate::chaos::ChaosProfile;
use crate::verdict::{
    AdmissionError, AdmissionVerdict, DegradationReason, DegradationVerdict, NetStats, ShedOutcome,
    Ticket,
};
use crate::wire::{self, WirePolicy};
use ba_crypto::keys::KeyRegistry;
use ba_crypto::rng::{splitmix64, SimRng};
use ba_crypto::stats::CryptoStats;
use ba_crypto::{ProcessId, Value, VerifierCache};
use ba_sim::schedule::LinkDrop;
use ba_sim::transport::{Fate, ScheduledDrops, Transport};
use ba_sim::{Actor, Envelope, Metrics, Outbox, Payload, QueueStats, WorkerPool};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Derives one BA instance's private chaos seed from the fleet profile's
/// base seed. `instance` is the instance's ticket number — dense from 0 in
/// *submission* order, so a ticket that is later shed still consumed its
/// seed slot and the surviving instances' streams are unaffected by the
/// shed.
///
/// For one fixed `base` the map `instance → seed` is injective: the
/// multiplier is odd (so `instance * M` never collides modulo 2⁶⁴), the
/// XOR with `base` preserves distinctness, and [`splitmix64`] is a
/// bijection on `u64`. Two instances under one base seed therefore *never*
/// share a chaos rng stream — the property the per-instance determinism
/// contract rests on (see the collision test in this module). Distinct
/// `base` values may collide with each other's instance seeds; only the
/// within-fleet guarantee is load-bearing.
///
/// A standalone run under
/// [`ChaosProfile::reseeded`]`(instance_seed(base, instance))` sees the
/// exact fate stream the multiplexed instance sees.
pub fn instance_seed(base: u64, instance: u64) -> u64 {
    let mut state = base ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// A seeded Poisson arrival process over service ticks: call
/// [`next`](PoissonArrivals::next) once per tick to learn how many
/// instances arrive during that tick. Drives open-loop load generation —
/// arrivals are independent of service state, which is exactly what makes
/// saturation (and the backpressure policy's reaction to it) observable.
///
/// The generator is deterministic for a given `(seed, rate)`: the same
/// schedule replays byte-identically, so open-loop runs can be asserted
/// deterministic across worker counts. Sampling uses Knuth's product
/// method, which is exact and costs O(λ) uniforms per tick — fine for the
/// per-tick rates a service tick loop meters (λ ≲ 64).
#[derive(Clone, Debug)]
pub struct PoissonArrivals {
    rng: SimRng,
    rate: f64,
    /// `e^{-λ}`, precomputed.
    threshold: f64,
}

impl PoissonArrivals {
    /// Creates a process with mean `rate` arrivals per tick.
    ///
    /// # Panics
    /// Panics when `rate` is negative or not finite.
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "arrival rate must be finite and non-negative, got {rate}"
        );
        PoissonArrivals {
            rng: SimRng::new(seed),
            rate,
            threshold: (-rate).exp(),
        }
    }

    /// The configured mean arrivals per tick.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Samples the number of arrivals in the next tick.
    pub fn next_arrivals(&mut self) -> usize {
        if self.rate == 0.0 {
            return 0;
        }
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            // Uniform in [0, 1) with the full 53 bits of double precision.
            p *= (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if p <= self.threshold {
                return k;
            }
            k += 1;
        }
    }
}

impl Iterator for PoissonArrivals {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        Some(self.next_arrivals())
    }
}

/// What a session does when a submission finds the admission queue full.
/// Whatever the policy, the outcome is a structured value — an
/// [`AdmissionVerdict`] in the log, an [`AdmissionError`] to the caller, a
/// [`ShedOutcome`] for an evicted ticket — never a panic, never a silent
/// drop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum AdmissionPolicy {
    /// Refuse the new submission with [`AdmissionError::QueueFull`]. The
    /// default: the caller owns the retry policy.
    #[default]
    Reject,
    /// Evict the *oldest queued* (never in-flight) ticket to make room,
    /// recording its [`ShedOutcome`], and accept the new submission —
    /// freshest-work-wins load shedding.
    ShedOldest,
    /// Tick the session from inside `submit` until a queue slot frees or
    /// `deadline_ticks` service ticks elapse, then refuse with
    /// [`AdmissionError::DeadlineExpired`]. Because every tick advances
    /// all in-flight instances one phase (and instances settle within
    /// their phase count), waiting always makes progress — the deadline
    /// bounds the wait, it does not paper over a deadlock.
    BlockWithDeadline {
        /// Maximum service ticks one submission may wait.
        deadline_ticks: u64,
    },
}

/// Tuning knobs for the service layer. Construct with
/// [`SvcConfig::new`]/[`default`](SvcConfig::default) and the `with_*`
/// builders — the struct is `#[non_exhaustive]` because its surface keeps
/// growing with the service layer.
///
/// Defaults: `threads = 1`, `max_inflight = 64`, `admit_per_tick = 8`,
/// `max_retries = 4`, `deadline_ticks = 128`, `queue_capacity = 64`,
/// `admission = AdmissionPolicy::Reject`.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct SvcConfig {
    /// Worker threads (pool participants) stepping instances each tick;
    /// instances are the unit of parallelism.
    pub threads: usize,
    /// Maximum instances in flight at once; arrivals beyond this queue.
    pub max_inflight: usize,
    /// Instances admitted from the queue per service tick.
    pub admit_per_tick: usize,
    /// Retransmissions allowed per frame after the first attempt.
    pub max_retries: u32,
    /// Virtual ticks one instance-phase may use before it is declared
    /// blown.
    pub deadline_ticks: u64,
    /// Bound on the admission queue (submitted but not yet in flight);
    /// submissions past it trigger the [`AdmissionPolicy`].
    pub queue_capacity: usize,
    /// What to do when the admission queue is full.
    pub admission: AdmissionPolicy,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            threads: 1,
            max_inflight: 64,
            admit_per_tick: 8,
            max_retries: 4,
            deadline_ticks: 128,
            queue_capacity: 64,
            admission: AdmissionPolicy::Reject,
        }
    }
}

impl SvcConfig {
    /// The default configuration; chain `with_*` builders to customize.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count for per-tick instance stepping.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the in-flight instance cap.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Sets how many queued instances each tick may admit.
    pub fn with_admit_per_tick(mut self, admit_per_tick: usize) -> Self {
        self.admit_per_tick = admit_per_tick;
        self
    }

    /// Sets the per-frame retransmission budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the virtual-tick deadline per instance phase.
    pub fn with_deadline_ticks(mut self, deadline_ticks: u64) -> Self {
        self.deadline_ticks = deadline_ticks;
        self
    }

    /// Sets the admission-queue bound.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the backpressure policy applied when the queue is full.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }
}

/// One BA instance handed to the service: its actors (faults already
/// applied), phase count, fault budget and scheduled link drops — the same
/// ingredients a standalone [`NetRuntime`](crate::runtime::NetRuntime)
/// takes.
pub struct InstanceSpec<P> {
    /// One actor per processor; actor `i` is processor `i`.
    pub actors: Vec<Box<dyn Actor<P>>>,
    /// Phases the algorithm needs before finalization.
    pub phases: usize,
    /// The fault budget `t` for this instance.
    pub fault_budget: usize,
    /// Scheduled link drops, with standalone-runtime semantics.
    pub link_drops: Vec<LinkDrop>,
    /// The instance's key registry. When present, the service batch-verifies
    /// each distinct signature chain once per flush and stamps its shared
    /// buffer, so every recipient's own `verify` is an O(1) stamp hit
    /// instead of a full hash-and-check pass (the engine's
    /// `with_batched_verification`, applied at the service's flush
    /// boundary).
    pub registry: Option<KeyRegistry>,
}

impl<P> std::fmt::Debug for InstanceSpec<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceSpec")
            .field("n", &self.actors.len())
            .field("phases", &self.phases)
            .field("fault_budget", &self.fault_budget)
            .finish()
    }
}

/// A wire frame annotated with the BA instance it belongs to — the unit a
/// coalesced per-link flush carries.
#[derive(Debug)]
pub struct TaggedFrame<P> {
    /// The owning instance's id (submission order).
    pub instance: u64,
    /// The instance's staging-order index of this frame, so demultiplexing
    /// restores the exact standalone delivery order.
    pub seq: usize,
    /// The wire envelope itself.
    pub frame: Envelope<P>,
}

/// What one settled track produced — a session instance's result, and
/// (as [`NetOutcome`](crate::runtime::NetOutcome)) a standalone run's.
#[derive(Clone, Debug)]
pub struct InstanceRun {
    /// Each processor's decision.
    pub decisions: Vec<Option<Value>>,
    /// Correctness flags after suspicion.
    pub correct: Vec<bool>,
    /// Logical traffic accounting for this instance alone.
    pub metrics: Metrics,
    /// This instance's physical wire statistics (its frames only; flush
    /// coalescing is accounted fleet-wide in [`SvcReport::stats`]).
    pub stats: NetStats,
    /// Senders this instance suspects from its failed links, in id order.
    pub suspected: Vec<ProcessId>,
}

/// One instance's journey through the service: tick-precise and
/// wall-clock-precise timestamps for submission, admission and settlement,
/// plus the result. Wall-clock timestamps are offsets from the session's
/// start, so a streaming consumer can order and subtract them without
/// holding the session.
#[derive(Clone, Debug)]
pub struct InstanceOutcome {
    /// The instance id (submission order, dense from 0).
    pub id: u64,
    /// Service tick at which the instance was submitted (entered the
    /// queue).
    pub submitted_tick: u64,
    /// Service tick at which it was admitted into flight.
    pub admitted_tick: u64,
    /// Service tick at which it decided or degraded.
    pub settled_tick: u64,
    /// Wall-clock submission time, as an offset from session start.
    pub submitted_at: Duration,
    /// Wall-clock admission time, as an offset from session start.
    pub admitted_at: Duration,
    /// Wall-clock settlement time, as an offset from session start.
    pub decided_at: Duration,
    /// The decisions, or this instance's own degradation verdict — other
    /// instances are unaffected either way.
    pub result: Result<InstanceRun, Box<DegradationVerdict>>,
}

impl InstanceOutcome {
    /// The ticket this outcome settles.
    pub fn ticket(&self) -> Ticket {
        Ticket(self.id)
    }

    /// Submission-to-decision latency — the figure an open-loop client
    /// experiences, queue wait included.
    pub fn latency(&self) -> Duration {
        self.decided_at.saturating_sub(self.submitted_at)
    }

    /// Time spent waiting in the admission queue.
    pub fn queue_wait(&self) -> Duration {
        self.admitted_at.saturating_sub(self.submitted_at)
    }

    /// Admission-to-decision service time (the pre-session notion of
    /// latency, which ignored queueing).
    pub fn service_time(&self) -> Duration {
        self.decided_at.saturating_sub(self.admitted_at)
    }
}

/// What one service session produced.
#[derive(Debug)]
pub struct SvcReport {
    /// Every settled instance's outcome, in submission order. Shed tickets
    /// are *not* here — they are in [`shed`](SvcReport::shed).
    pub outcomes: Vec<InstanceOutcome>,
    /// Every ticket evicted by shed-oldest backpressure, in ticket order.
    pub shed: Vec<ShedOutcome>,
    /// One verdict per `submit` call, in call order — the complete
    /// admission audit trail, refusals included.
    pub admission_log: Vec<AdmissionVerdict>,
    /// Queue-side accounting: submissions, admissions, sheds, rejections,
    /// blocking waits and depth statistics.
    pub queue: QueueStats,
    /// Fleet-wide wire statistics: per-instance stats absorbed together,
    /// plus the flush-coalescing counters only the service can observe.
    pub stats: NetStats,
    /// Service ticks executed.
    pub ticks: u64,
    /// Wall-clock duration of the whole session.
    pub elapsed: Duration,
    /// The most instances ever in flight at once.
    pub peak_inflight: usize,
}

impl SvcReport {
    /// Instances that decided.
    pub fn decided(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Instances that degraded with their own verdict.
    pub fn degraded(&self) -> usize {
        self.outcomes.len() - self.decided()
    }

    /// Tickets shed by backpressure.
    pub fn shed_count(&self) -> usize {
        self.shed.len()
    }

    /// Tickets issued over the session's lifetime (shed ones included;
    /// refused submissions are not, because they never got a ticket).
    pub fn submitted(&self) -> usize {
        self.outcomes.len() + self.shed.len()
    }

    /// The exact-accounting invariant every drained session must satisfy:
    /// `submitted = decided + degraded + shed`. Nothing a session accepted
    /// may vanish without a structured record.
    pub fn accounting_balanced(&self) -> bool {
        self.submitted() == self.decided() + self.degraded() + self.shed_count()
            && self.queue.submitted == self.submitted() as u64
            && self.queue.shed == self.shed.len() as u64
    }

    /// Iterates settled outcomes in submission order — the
    /// streaming-friendly accessor: each item carries its own
    /// `submitted_at`/`decided_at` timestamps, so consumers need no
    /// batch-level context.
    pub fn outcomes_iter(&self) -> impl Iterator<Item = &InstanceOutcome> {
        self.outcomes.iter()
    }

    /// Submission-to-decision latencies of the instances that decided, in
    /// submission order. Queue wait is included: this is what an open-loop
    /// client observes, not the batch-relative figure.
    pub fn submission_to_decision_latencies(&self) -> Vec<Duration> {
        self.outcomes
            .iter()
            .filter(|o| o.result.is_ok())
            .map(|o| o.latency())
            .collect()
    }
}

/// The service front door. Configure once, then open any number of
/// [`session`](Self::session)s; each session owns its tick loop, admission
/// queue and report.
#[derive(Clone, Debug)]
pub struct BaService {
    config: SvcConfig,
    chaos: ChaosProfile,
    shared_cache: Option<Arc<VerifierCache>>,
}

impl BaService {
    /// Creates a service with a reliable wire.
    pub fn new(config: SvcConfig) -> Self {
        BaService {
            config,
            chaos: ChaosProfile::reliable(),
            shared_cache: None,
        }
    }

    /// Installs the fleet chaos profile. Each instance rolls its own fates
    /// from [`instance_seed`]`(profile.seed, ticket)`.
    pub fn with_chaos(mut self, chaos: ChaosProfile) -> Self {
        self.chaos = chaos;
        self
    }

    /// Declares the verifier cache the instances' registries share. Each
    /// session runs it in deferred mode, flushing once per tick, so
    /// fleet-wide hit/miss counters are worker-count independent.
    pub fn with_shared_cache(mut self, cache: Arc<VerifierCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Opens a long-lived session: submit instances over time, tick the
    /// service, poll tickets, drain for the report.
    pub fn session<P: Payload + 'static>(&self) -> SvcSession<P> {
        SvcSession::new(
            self.config.clone(),
            self.chaos.clone(),
            self.shared_cache.clone(),
        )
    }
}

/// How far along one ticket is, as reported by [`SvcSession::status`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum TicketStatus {
    /// Waiting in the admission queue at this position (0 = next in).
    Queued {
        /// Position from the head of the queue.
        position: usize,
    },
    /// Admitted and mid-protocol at this 1-based phase.
    InFlight {
        /// Next phase to execute (`phases + 1` = finalize pending).
        phase: usize,
    },
    /// Settled — [`SvcSession::try_outcome`] will return it.
    Settled,
    /// Shed by backpressure — [`SvcSession::try_outcome`] will return the
    /// [`ShedOutcome`].
    Shed,
    /// Never issued by this session.
    Unknown,
}

/// What polling a ticket yields once the session is done with it.
#[derive(Clone, Debug)]
pub enum TicketOutcome {
    /// The instance ran to settlement (decision or degradation).
    Settled(Box<InstanceOutcome>),
    /// The ticket was evicted from the queue by shed-oldest backpressure.
    Shed(ShedOutcome),
}

/// A long-lived, open-loop service session. See the [module
/// docs](self) for the lifecycle and the determinism contract.
pub struct SvcSession<P> {
    config: SvcConfig,
    chaos: ChaosProfile,
    shared_cache: Option<Arc<VerifierCache>>,
    policy: WirePolicy,
    started: Instant,
    queue: VecDeque<Track<P>>,
    active: Vec<Track<P>>,
    settled: BTreeMap<u64, InstanceOutcome>,
    shed: BTreeMap<u64, ShedOutcome>,
    admission_log: Vec<AdmissionVerdict>,
    queue_stats: QueueStats,
    stats: NetStats,
    tick: u64,
    next_id: u64,
    peak_inflight: usize,
}

impl<P: Payload + 'static> SvcSession<P> {
    fn new(
        config: SvcConfig,
        chaos: ChaosProfile,
        shared_cache: Option<Arc<VerifierCache>>,
    ) -> Self {
        let policy = WirePolicy {
            max_retries: config.max_retries,
            deadline_ticks: config.deadline_ticks,
        };
        if let Some(cache) = &shared_cache {
            cache.set_deferred(true);
        }
        SvcSession {
            config,
            chaos,
            shared_cache,
            policy,
            started: Instant::now(),
            queue: VecDeque::new(),
            active: Vec::new(),
            settled: BTreeMap::new(),
            shed: BTreeMap::new(),
            admission_log: Vec::new(),
            queue_stats: QueueStats::default(),
            stats: NetStats::default(),
            tick: 0,
            next_id: 0,
            peak_inflight: 0,
        }
    }

    /// Offers one instance to the session. On success the returned
    /// [`Ticket`] identifies the instance for [`try_outcome`] polling; on
    /// refusal the structured [`AdmissionError`] says why. Either way the
    /// decision is appended to the [admission log](Self::admission_log).
    ///
    /// Under [`AdmissionPolicy::BlockWithDeadline`] this call may execute
    /// service ticks (advancing the whole fleet) while it waits for queue
    /// space — bounded by the policy's deadline, so it always returns.
    ///
    /// # Errors
    /// [`AdmissionError::QueueFull`] under [`AdmissionPolicy::Reject`],
    /// [`AdmissionError::DeadlineExpired`] under
    /// [`AdmissionPolicy::BlockWithDeadline`] when no slot freed in time.
    pub fn submit(&mut self, spec: InstanceSpec<P>) -> Result<Ticket, AdmissionError> {
        let capacity = self.config.queue_capacity.max(1);
        let mut waited = 0u64;
        if self.queue.len() >= capacity {
            match self.config.admission {
                AdmissionPolicy::Reject => {
                    let error = AdmissionError::QueueFull { capacity };
                    self.queue_stats.rejected += 1;
                    self.admission_log.push(AdmissionVerdict::Refused {
                        error,
                        depth: self.queue.len(),
                    });
                    return Err(error);
                }
                AdmissionPolicy::ShedOldest => {
                    let victim = self
                        .queue
                        .pop_front()
                        .expect("full queue has a head (capacity >= 1)");
                    let ticket = self.issue(spec);
                    let outcome = ShedOutcome {
                        ticket: Ticket(victim.id),
                        submitted_tick: victim.submitted_tick,
                        shed_tick: self.tick,
                        displaced_by: ticket,
                    };
                    self.shed.insert(victim.id, outcome);
                    self.queue_stats.shed += 1;
                    self.admission_log
                        .push(AdmissionVerdict::EnqueuedAfterShed {
                            ticket,
                            victim: outcome.ticket,
                        });
                    return Ok(ticket);
                }
                AdmissionPolicy::BlockWithDeadline { deadline_ticks } => {
                    self.queue_stats.blocked_submits += 1;
                    while self.queue.len() >= capacity && waited < deadline_ticks {
                        self.tick();
                        waited += 1;
                        self.queue_stats.blocked_ticks += 1;
                    }
                    if self.queue.len() >= capacity {
                        let error = AdmissionError::DeadlineExpired {
                            waited_ticks: waited,
                            capacity,
                        };
                        self.queue_stats.rejected += 1;
                        self.admission_log.push(AdmissionVerdict::Refused {
                            error,
                            depth: self.queue.len(),
                        });
                        return Err(error);
                    }
                }
            }
        }
        let ticket = self.issue(spec);
        let verdict = if waited > 0 {
            AdmissionVerdict::EnqueuedAfterWait {
                ticket,
                waited_ticks: waited,
            }
        } else {
            AdmissionVerdict::Enqueued {
                ticket,
                depth: self.queue.len(),
            }
        };
        self.admission_log.push(verdict);
        Ok(ticket)
    }

    /// Assigns the next ticket, builds the instance and enqueues it.
    fn issue(&mut self, spec: InstanceSpec<P>) -> Ticket {
        let id = self.next_id;
        self.next_id += 1;
        let mut inst = Track::new(id, spec, instance_seed(self.chaos.seed, id));
        inst.submitted_tick = self.tick;
        inst.submitted_at = self.started.elapsed();
        self.queue.push_back(inst);
        self.queue_stats.submitted += 1;
        Ticket(id)
    }

    /// Advances the session by one service tick: admit up to
    /// `admit_per_tick` queued instances (bounded by `max_inflight`), step
    /// every in-flight instance one phase on the shared pool, coalesce all
    /// staged frames into one flush per directed link, play each
    /// instance's frames over the wire, settle the finished, and publish
    /// this tick's verifications fleet-wide. A no-op-ish tick on an idle
    /// session still counts (the tick counter is the session's clock).
    pub fn tick(&mut self) {
        // Admission: drain the queue into flight, bounded by the caps.
        let mut admitted = 0usize;
        let max_inflight = self.config.max_inflight.max(1);
        let admit_per_tick = self.config.admit_per_tick.max(1);
        while admitted < admit_per_tick && self.active.len() < max_inflight {
            match self.queue.pop_front() {
                Some(mut inst) => {
                    inst.admitted_tick = self.tick;
                    inst.admitted_at = self.started.elapsed();
                    self.queue_stats.admitted += 1;
                    self.active.push(inst);
                    admitted += 1;
                }
                None => break,
            }
        }
        self.peak_inflight = self.peak_inflight.max(self.active.len());
        self.queue_stats.record_depth(self.queue.len());

        // Step: every in-flight instance advances one phase (or
        // finalizes) concurrently on the shared pool. One pool task
        // steps all actors of one instance inline, so the per-instance
        // thread-local crypto delta is measured where the work runs.
        let cells: Vec<Mutex<&mut Track<P>>> = self.active.iter_mut().map(Mutex::new).collect();
        WorkerPool::shared().run_chunks_capped(cells.len(), self.config.threads, |i| {
            cells[i].lock().expect("instance cell poisoned").step(1);
        });
        drop(cells);

        // Coalesce: collect every instance's post-schedule frames,
        // assemble one flush per directed link carrying all of them.
        let mut batches: BTreeMap<(ProcessId, ProcessId), Vec<TaggedFrame<P>>> = BTreeMap::new();
        for inst in self.active.iter_mut() {
            for (seq, frame) in inst.wire_frames.drain(..).enumerate() {
                batches
                    .entry((frame.from, frame.to))
                    .or_default()
                    .push(TaggedFrame {
                        instance: inst.id,
                        seq,
                        frame,
                    });
            }
        }
        let mut per_instance: BTreeMap<u64, Vec<(usize, Envelope<P>)>> = BTreeMap::new();
        for (_, batch) in batches {
            self.stats.note_flush(batch.len() as u64);
            for tagged in batch {
                per_instance
                    .entry(tagged.instance)
                    .or_default()
                    .push((tagged.seq, tagged.frame));
            }
        }

        // Deliver and settle, in submission order. Each instance plays
        // the wire with its own rng and policy state — fates are
        // per-instance even though the physical flushes were shared.
        let now = self.started.elapsed();
        let mut still_active: Vec<Track<P>> = Vec::with_capacity(self.active.len());
        for mut inst in std::mem::take(&mut self.active) {
            if inst.finalized() {
                let run = inst.finish();
                self.stats.absorb(&run.stats);
                let outcome = inst.outcome(self.tick, now, Ok(run));
                self.settled.insert(outcome.id, outcome);
                continue;
            }
            let mut frames: Vec<(usize, Envelope<P>)> =
                per_instance.remove(&inst.id).unwrap_or_default();
            frames.sort_unstable_by_key(|(seq, _)| *seq);
            let frames: Vec<Envelope<P>> = frames.into_iter().map(|(_, env)| env).collect();
            match inst.deliver_phase(frames, &self.chaos, self.policy) {
                Ok(()) => still_active.push(inst),
                Err(verdict) => {
                    self.stats.absorb(&verdict.stats);
                    let outcome = inst.outcome(self.tick, now, Err(verdict));
                    self.settled.insert(outcome.id, outcome);
                }
            }
        }
        self.active = still_active;

        // The tick barrier publishes this tick's verifications
        // fleet-wide, exactly like the engine's phase barrier.
        if let Some(cache) = &self.shared_cache {
            cache.flush_pending();
        }
        self.tick += 1;
    }

    /// Polls one ticket. Returns `None` while the ticket is queued or in
    /// flight (or was never issued); once the session settles or sheds it,
    /// returns the structured outcome. Non-destructive: the outcome also
    /// appears in the drained [`SvcReport`].
    pub fn try_outcome(&self, ticket: Ticket) -> Option<TicketOutcome> {
        if let Some(outcome) = self.settled.get(&ticket.0) {
            return Some(TicketOutcome::Settled(Box::new(outcome.clone())));
        }
        self.shed.get(&ticket.0).copied().map(TicketOutcome::Shed)
    }

    /// Where one ticket currently is in the pipeline.
    pub fn status(&self, ticket: Ticket) -> TicketStatus {
        if self.settled.contains_key(&ticket.0) {
            return TicketStatus::Settled;
        }
        if self.shed.contains_key(&ticket.0) {
            return TicketStatus::Shed;
        }
        if let Some(position) = self.queue.iter().position(|i| i.id == ticket.0) {
            return TicketStatus::Queued { position };
        }
        if let Some(inst) = self.active.iter().find(|i| i.id == ticket.0) {
            return TicketStatus::InFlight { phase: inst.phase };
        }
        TicketStatus::Unknown
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_empty()
    }

    /// Instances currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Instances currently in flight.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Service ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The admission audit trail so far, one verdict per `submit` call.
    pub fn admission_log(&self) -> &[AdmissionVerdict] {
        &self.admission_log
    }

    /// Queue-side accounting so far.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue_stats
    }

    /// Runs the session to quiescence (every accepted ticket settled) and
    /// produces the report. Restores the shared verifier cache to
    /// immediate mode. A session abandoned without `drain` leaves the
    /// shared cache in deferred mode — its pending verifications publish
    /// at the next flush, so correctness is unaffected, but drain anyway.
    pub fn drain(mut self) -> SvcReport {
        while !self.is_idle() {
            self.tick();
        }
        if let Some(cache) = &self.shared_cache {
            cache.set_deferred(false);
        }
        SvcReport {
            outcomes: std::mem::take(&mut self.settled).into_values().collect(),
            shed: std::mem::take(&mut self.shed).into_values().collect(),
            admission_log: std::mem::take(&mut self.admission_log),
            queue: self.queue_stats,
            stats: std::mem::take(&mut self.stats),
            ticks: self.tick,
            elapsed: self.started.elapsed(),
            peak_inflight: self.peak_inflight,
        }
    }
}

impl<P> std::fmt::Debug for SvcSession<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvcSession")
            .field("tick", &self.tick)
            .field("queued", &self.queue.len())
            .field("in_flight", &self.active.len())
            .field("settled", &self.settled.len())
            .field("shed", &self.shed.len())
            .finish()
    }
}

/// Drives one track to settlement on the calling thread: the whole of a
/// standalone [`NetRuntime::run`](crate::runtime::NetRuntime::run). Fates
/// roll from `chaos.seed` itself, every frame is its own wire send
/// (`solo_flushes`; only a session coalesces), the actors step in
/// `threads` chunks, and `cache` — the registry cache the actors share,
/// if any — runs in deferred mode with one flush per phase, the engine's
/// phase-snapshot discipline.
pub(crate) fn run_track<P: Payload>(
    spec: InstanceSpec<P>,
    chaos: &ChaosProfile,
    policy: WirePolicy,
    threads: usize,
    cache: Option<&VerifierCache>,
) -> Result<InstanceRun, Box<DegradationVerdict>> {
    if let Some(cache) = cache {
        cache.set_deferred(true);
    }
    let mut track = Track::new(0, spec, chaos.seed);
    let result = loop {
        track.step(threads);
        if track.finalized() {
            break Ok(track.finish());
        }
        let frames = std::mem::take(&mut track.wire_frames);
        track.stats.note_solo_flushes(frames.len() as u64);
        if let Err(verdict) = track.deliver_phase(frames, chaos, policy) {
            break Err(verdict);
        }
        if let Some(cache) = cache {
            cache.flush_pending();
        }
    };
    if let Some(cache) = cache {
        cache.set_deferred(false);
    }
    result
}

/// One instance track: a complete single-run chaos-wire executor, its
/// entire per-run state privately owned so fates and verdicts never leak
/// across instances. See the [module docs](self#tracks).
struct Track<P> {
    id: u64,
    actors: Vec<Box<dyn Actor<P>>>,
    n: usize,
    phases: usize,
    fault_budget: usize,
    /// Next phase to step, 1-based; `phases + 1` means finalize.
    phase: usize,
    inboxes: Vec<Vec<Envelope<P>>>,
    scheduled: ScheduledDrops,
    scheduled_faulty: BTreeSet<ProcessId>,
    correct: Vec<bool>,
    suspected: BTreeSet<ProcessId>,
    rng: SimRng,
    metrics: Metrics,
    stats: NetStats,
    submitted_tick: u64,
    submitted_at: Duration,
    admitted_tick: u64,
    admitted_at: Duration,
    /// Post-schedule frames staged by the last step, awaiting the wire.
    wire_frames: Vec<Envelope<P>>,
    /// Thread-local crypto delta of the last step.
    step_crypto: CryptoStats,
    /// Crypto spent by the last flush's batch-verification pass, attributed
    /// to the phase that consumes the stamped frames (the engine's
    /// carry-forward rule).
    carry_crypto: CryptoStats,
    /// This instance's registry, enabling flush-boundary batch
    /// verification.
    registry: Option<KeyRegistry>,
    /// Set once finalize ran.
    decisions: Option<Vec<Option<Value>>>,
}

/// One contiguous actor chunk of a multi-chunk step: each actor's staged
/// sends with its suppressed-send count, plus the chunk's thread-local
/// crypto delta.
struct Chunk<'a, P> {
    actors: &'a mut [Box<dyn Actor<P>>],
    staged: Vec<(Vec<Envelope<P>>, u64)>,
    crypto: CryptoStats,
}

/// Steps actors `base..base + actors.len()` through `phase` — or
/// finalizes them when `phase` is `None` — handing each stepped actor's
/// staged sends and suppressed-send count to `sink`.
fn step_actors<P: Payload>(
    actors: &mut [Box<dyn Actor<P>>],
    base: usize,
    phase: Option<usize>,
    inboxes: &[Vec<Envelope<P>>],
    mut sink: impl FnMut(Vec<Envelope<P>>, u64),
) {
    for (j, actor) in actors.iter_mut().enumerate() {
        let i = base + j;
        match phase {
            Some(phase) => {
                let mut out = Outbox::new(ProcessId(i as u32));
                actor.step(phase, &inboxes[i], &mut out);
                let omitted = out.omitted_count();
                sink(out.into_staged(), omitted);
            }
            None => actor.finalize(&inboxes[i]),
        }
    }
}

impl<P: Payload> Track<P> {
    /// A fresh track whose chaos fates roll from `seed`.
    fn new(id: u64, spec: InstanceSpec<P>, seed: u64) -> Self {
        let n = spec.actors.len();
        let correct: Vec<bool> = spec.actors.iter().map(|a| a.is_correct()).collect();
        let scheduled_faulty: BTreeSet<ProcessId> = correct
            .iter()
            .enumerate()
            .filter(|(_, ok)| !**ok)
            .map(|(i, _)| ProcessId(i as u32))
            .collect();
        Track {
            id,
            n,
            phases: spec.phases,
            fault_budget: spec.fault_budget,
            phase: 1,
            inboxes: vec![Vec::new(); n],
            scheduled: ScheduledDrops::new(spec.link_drops.iter().copied()),
            scheduled_faulty,
            correct,
            suspected: BTreeSet::new(),
            rng: SimRng::new(seed),
            metrics: Metrics::default(),
            stats: NetStats::default(),
            submitted_tick: 0,
            submitted_at: Duration::ZERO,
            admitted_tick: 0,
            admitted_at: Duration::ZERO,
            wire_frames: Vec::new(),
            step_crypto: CryptoStats::default(),
            carry_crypto: CryptoStats::default(),
            registry: spec.registry,
            actors: spec.actors,
            decisions: None,
        }
    }

    fn finalized(&self) -> bool {
        self.decisions.is_some()
    }

    /// Advances the track by one phase — or finalizes it. The actors step
    /// in up to `threads` contiguous chunks of the engine's geometry on
    /// the shared pool, each chunk measuring its own thread-local crypto
    /// delta; a single chunk steps inline on the calling thread. Staged
    /// sends are then accounted in actor-id order, so the outcome is the
    /// same at any chunk count.
    fn step(&mut self, threads: usize) {
        let inboxes: Vec<Vec<Envelope<P>>> = self.inboxes.iter_mut().map(std::mem::take).collect();
        let phase = (self.phase <= self.phases).then_some(self.phase);
        let workers = threads.clamp(1, self.n.max(1));
        let chunk_size = self.n.div_ceil(workers).max(1);
        // Detached while stepping so accounting can borrow the track.
        let mut actors = std::mem::take(&mut self.actors);
        if chunk_size >= self.n {
            let before = CryptoStats::snapshot();
            step_actors(&mut actors, 0, phase, &inboxes, |staged, omitted| {
                self.admit(staged, omitted)
            });
            self.step_crypto = CryptoStats::snapshot().since(&before);
        } else {
            let jobs: Vec<Mutex<Chunk<'_, P>>> = actors
                .chunks_mut(chunk_size)
                .map(|actors| {
                    Mutex::new(Chunk {
                        actors,
                        staged: Vec::new(),
                        crypto: CryptoStats::default(),
                    })
                })
                .collect();
            WorkerPool::shared().run_chunks_capped(jobs.len(), threads, |w| {
                let mut guard = jobs[w].lock().expect("track chunk poisoned");
                let job = &mut *guard;
                let before = CryptoStats::snapshot();
                step_actors(
                    job.actors,
                    w * chunk_size,
                    phase,
                    &inboxes,
                    |staged, omitted| job.staged.push((staged, omitted)),
                );
                job.crypto = CryptoStats::snapshot().since(&before);
            });
            let mut crypto = CryptoStats::default();
            for job in jobs {
                let job = job.into_inner().expect("track chunk poisoned");
                crypto = crypto.add(&job.crypto);
                for (staged, omitted) in job.staged {
                    self.admit(staged, omitted);
                }
            }
            self.step_crypto = crypto;
        }
        self.actors = actors;
        if phase.is_none() {
            self.decisions = Some(self.actors.iter().map(|a| a.decision()).collect());
        }
    }

    /// Accounts one actor's step exactly like the engine's routing
    /// barrier: suppressed sends, nonexistent receivers, scheduled drops.
    /// Survivors wait for the wire.
    fn admit(&mut self, staged: Vec<Envelope<P>>, omitted: u64) {
        let phase = self.phase;
        self.metrics.record_omitted(phase, omitted);
        for env in staged {
            if env.to.index() >= self.n {
                continue;
            }
            if self.scheduled.admit(phase, env.from, env.to) == Fate::Omit {
                self.metrics.record_omitted(phase, 1);
                continue;
            }
            self.wire_frames.push(env);
        }
    }

    /// Plays this track's staged frames over the wire and applies the
    /// post-wire pipeline: deadline, suspicion, fault budget, deliveries,
    /// per-phase crypto.
    fn deliver_phase(
        &mut self,
        frames: Vec<Envelope<P>>,
        chaos: &ChaosProfile,
        policy: WirePolicy,
    ) -> Result<(), Box<DegradationVerdict>> {
        let phase = self.phase;
        let report = wire::deliver(phase, frames, chaos, &mut self.rng, policy, &mut self.stats);
        if report.pending > 0 {
            return Err(self.verdict(DegradationReason::DeadlineBlown {
                pending_frames: report.pending,
                deadline_ticks: policy.deadline_ticks,
            }));
        }
        for link in &report.failed {
            self.suspected.insert(link.from);
            // A frame that never made it is suppressed traffic, same
            // bucket as a scheduled drop: sent but never on the wire.
            self.metrics.record_omitted(phase, 1);
        }
        self.stats
            .failed_links
            .extend(report.failed.iter().copied());

        let observed = self.scheduled_faulty.union(&self.suspected).count();
        if observed > self.fault_budget {
            return Err(self.verdict(DegradationReason::FaultBudgetExceeded {
                observed,
                budget: self.fault_budget,
            }));
        }

        // Flush-boundary batched verification: verify each distinct
        // signature chain this flush delivered once, stamp its shared
        // buffer, and every recipient's own `verify` next step becomes an
        // O(1) stamp hit. Runs on the coordinator thread in delivery order
        // — deterministic at any worker count. This is the service-side
        // analogue of the engine's batched barrier; the standalone runtime
        // verifies per recipient.
        let batch_crypto = if let Some(registry) = &self.registry {
            let before = CryptoStats::snapshot();
            let verifier = registry.verifier();
            let mut seen: HashSet<(usize, u32, u64)> = HashSet::new();
            for env in &report.delivered {
                let Some(chain) = env.payload.batch_chain() else {
                    continue;
                };
                if chain.is_empty() {
                    continue;
                }
                let key = (chain.storage_id(), chain.domain(), chain.value().0);
                if seen.insert(key) && chain.verify(&verifier).is_ok() {
                    chain.mark_verified(&verifier);
                }
            }
            CryptoStats::snapshot().since(&before)
        } else {
            CryptoStats::default()
        };

        for env in report.delivered {
            self.metrics.record_send(
                phase,
                self.correct[env.from.index()],
                env.payload.signature_count(),
                env.payload.weight_bytes(),
                env.payload.payload_bytes(),
                env.payload.kind(),
            );
            self.inboxes[env.to.index()].push(env);
        }
        let phase_crypto =
            std::mem::take(&mut self.step_crypto).add(&std::mem::take(&mut self.carry_crypto));
        self.metrics.record_phase_crypto(phase, phase_crypto);
        // The batch pass verified frames the *next* phase consumes; carry
        // its cost there, the engine's attribution rule.
        self.carry_crypto = batch_crypto;
        self.phase += 1;
        Ok(())
    }

    fn verdict(&self, reason: DegradationReason) -> Box<DegradationVerdict> {
        Box::new(DegradationVerdict {
            phase: self.phase,
            reason,
            suspected: self.suspected.iter().copied().collect(),
            failed_links: self.stats.failed_links.clone(),
            stats: self.stats.clone(),
        })
    }

    /// The settled track's result, once finalized: decisions, correctness
    /// after suspicion, metrics (finalize crypto absorbed) and wire
    /// statistics.
    fn finish(&mut self) -> InstanceRun {
        let mut metrics = std::mem::take(&mut self.metrics);
        let tail =
            std::mem::take(&mut self.step_crypto).add(&std::mem::take(&mut self.carry_crypto));
        metrics.absorb_crypto(tail);
        metrics.phases = self.phases;
        let mut correct = std::mem::take(&mut self.correct);
        for p in &self.suspected {
            correct[p.index()] = false;
        }
        InstanceRun {
            decisions: self.decisions.take().expect("finalized"),
            correct,
            metrics,
            stats: std::mem::take(&mut self.stats),
            suspected: self.suspected.iter().copied().collect(),
        }
    }

    /// This track's journey through a session, settled at `tick`/`now`.
    fn outcome(
        &self,
        tick: u64,
        now: Duration,
        result: Result<InstanceRun, Box<DegradationVerdict>>,
    ) -> InstanceOutcome {
        InstanceOutcome {
            id: self.id,
            submitted_tick: self.submitted_tick,
            admitted_tick: self.admitted_tick,
            settled_tick: tick,
            submitted_at: self.submitted_at,
            admitted_at: self.admitted_at,
            decided_at: now,
            result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_seeds_are_distinct_and_stable() {
        let a = instance_seed(7, 0);
        let b = instance_seed(7, 1);
        assert_ne!(a, b);
        assert_eq!(a, instance_seed(7, 0));
        assert_ne!(a, instance_seed(8, 0), "base seed matters");
    }

    #[test]
    fn instance_seeds_never_collide_within_a_fleet() {
        // The documented injectivity guarantee: under one base seed, no
        // two instances may ever share a chaos rng stream. Exercise a
        // fleet far larger than any real session, several bases, plus the
        // adversarial-looking base 0 and base = multiplier.
        for base in [0u64, 7, 11, 77, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let mut seen = std::collections::HashSet::with_capacity(4096);
            for instance in 0..4096u64 {
                assert!(
                    seen.insert(instance_seed(base, instance)),
                    "seed collision under base {base} at instance {instance}"
                );
            }
        }
        // And the first rng draws differ too — the streams themselves,
        // not just the seeds, are distinct for neighbouring tickets.
        let mut a = SimRng::new(instance_seed(77, 0));
        let mut b = SimRng::new(instance_seed(77, 1));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_plausible() {
        let schedule: Vec<usize> = PoissonArrivals::new(42, 2.0).take(256).collect();
        let replay: Vec<usize> = PoissonArrivals::new(42, 2.0).take(256).collect();
        assert_eq!(schedule, replay, "same seed must replay byte-identically");
        let other: Vec<usize> = PoissonArrivals::new(43, 2.0).take(256).collect();
        assert_ne!(schedule, other, "different seeds must differ");
        let mean = schedule.iter().sum::<usize>() as f64 / schedule.len() as f64;
        assert!(
            (1.5..2.5).contains(&mean),
            "sample mean {mean} implausible for rate 2.0"
        );
        let mut zero = PoissonArrivals::new(1, 0.0);
        assert_eq!(zero.next_arrivals(), 0, "rate 0 never arrives");
    }

    #[test]
    fn empty_session_drains_immediately() {
        let service = BaService::new(SvcConfig::default());
        let report = service.session::<Value>().drain();
        assert_eq!(report.outcomes.len(), 0);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.decided(), 0);
        assert_eq!(report.degraded(), 0);
        assert_eq!(report.shed_count(), 0);
        assert!(report.accounting_balanced());
    }

    #[test]
    fn svc_config_builders_cover_every_knob() {
        let cfg = SvcConfig::new()
            .with_threads(3)
            .with_max_inflight(5)
            .with_admit_per_tick(2)
            .with_max_retries(9)
            .with_deadline_ticks(33)
            .with_queue_capacity(7)
            .with_admission(AdmissionPolicy::ShedOldest);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.max_inflight, 5);
        assert_eq!(cfg.admit_per_tick, 2);
        assert_eq!(cfg.max_retries, 9);
        assert_eq!(cfg.deadline_ticks, 33);
        assert_eq!(cfg.queue_capacity, 7);
        assert_eq!(cfg.admission, AdmissionPolicy::ShedOldest);
    }
}
