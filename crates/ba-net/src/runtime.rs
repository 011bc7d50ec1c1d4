//! The standalone message-passing runtime: one agreement run over the
//! unreliable wire.
//!
//! # Architecture
//!
//! [`NetRuntime::run`] drives one instance track — the same chaos-wire
//! executor a [`svc`](crate::svc) session multiplexes K of — straight to
//! settlement, with no session, ticket or flush coalescing. Each phase
//! proceeds as:
//!
//! 1. **step** — the actors step in [`NetConfig::threads`] contiguous
//!    chunks on the shared [`WorkerPool`](ba_sim::WorkerPool) (the
//!    engine's chunk geometry; one chunk steps inline on the calling
//!    thread), each chunk measuring its own thread-local [`CryptoStats`]
//!    delta;
//! 2. **account** — in actor-id order, exactly like the engine's routing
//!    barrier: suppressed sends, nonexistent receivers, scheduled link
//!    drops;
//! 3. **wire** — the surviving frames are played over the unreliable
//!    wire, each as its own send: chaos-rolled loss, delay, duplication,
//!    acks, bounded retransmission with exponential backoff;
//! 4. **budget** — permanently failed links make their *senders* suspected
//!    (an omission-faulty sender explains every lost frame). While the
//!    union of scheduled-faulty and suspected processors stays within the
//!    budget `t` the run degrades gracefully — suspects are reported
//!    `correct = false` so the agreement checker holds them to nothing.
//!    The moment the union exceeds `t` the model is broken and the run
//!    aborts with a [`FaultBudgetExceeded`] verdict: no decisions are
//!    produced, because none could be trusted.
//!
//! Wire failures always end in a structured [`DegradationVerdict`]. An
//! actor panic propagates to the caller, as it does from
//! [`Simulation::run`](ba_sim::Simulation::run).
//!
//! # Equivalence with the lock-step engine
//!
//! Under [`ChaosProfile::reliable`] every frame arrives on its first
//! attempt in staging order, so inbox contents, metrics and decisions are
//! byte-identical to [`ba_sim::Simulation`] at any worker-thread count —
//! the `harness` module proves this for every checkable target. The same
//! [`Metrics`](ba_sim::Metrics) recording primitives are used, chunks
//! measure thread-local crypto deltas exactly like the engine's, and a
//! registry passed via [`NetRuntime::with_registry`] runs its verifier
//! cache in the same deferred phase-snapshot mode.
//!
//! [`CryptoStats`]: ba_crypto::stats::CryptoStats
//! [`FaultBudgetExceeded`]: crate::verdict::DegradationReason::FaultBudgetExceeded
//! [`ChaosProfile::reliable`]: crate::chaos::ChaosProfile::reliable

use crate::chaos::ChaosProfile;
use crate::svc::{run_track, InstanceRun, InstanceSpec};
use crate::verdict::DegradationVerdict;
use crate::wire::WirePolicy;
use ba_crypto::keys::KeyRegistry;
use ba_sim::schedule::LinkDrop;
use ba_sim::{Actor, Payload};
use std::collections::BTreeSet;

/// Tuning knobs for the runtime. Construct with
/// [`NetConfig::new`]/[`default`](NetConfig::default) and the `with_*`
/// builders (the same convention as `SvcConfig`, `DsOptions`,
/// `Alg3Options` and `ExtOptions`).
///
/// Defaults: `threads = 1`, `fault_budget = 0`, `max_retries = 4`,
/// `deadline_ticks = 128`.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Contiguous actor chunks stepped concurrently each phase (clamped to
    /// at least 1 and at most the actor count; results are byte-identical
    /// at any count).
    pub threads: usize,
    /// The fault budget `t`: the run aborts when scheduled-faulty plus
    /// suspected processors exceed this.
    pub fault_budget: usize,
    /// Retransmissions allowed per frame after the first attempt.
    pub max_retries: u32,
    /// Virtual ticks one phase may use before it is declared blown.
    pub deadline_ticks: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            threads: 1,
            fault_budget: 0,
            max_retries: 4,
            deadline_ticks: 128,
        }
    }
}

impl NetConfig {
    /// The default configuration; chain `with_*` builders to customize.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the fault budget `t`.
    pub fn with_fault_budget(mut self, fault_budget: usize) -> Self {
        self.fault_budget = fault_budget;
        self
    }

    /// Sets the per-frame retransmission budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the virtual-tick deadline per phase.
    pub fn with_deadline_ticks(mut self, deadline_ticks: u64) -> Self {
        self.deadline_ticks = deadline_ticks;
        self
    }
}

/// What a completed (possibly degraded-but-sound) run produced: each
/// processor's decision, the correctness flags after suspicion, the
/// logical [`Metrics`](ba_sim::Metrics) (byte-identical to the lock-step
/// engine's under a reliable profile), the physical wire statistics and
/// the suspected senders — the same record a settled service instance
/// yields.
pub type NetOutcome = InstanceRun;

/// A message-passing run over `n` actors. Build with [`NetRuntime::new`],
/// configure, then [`run`](NetRuntime::run) — the runtime is consumed
/// because the run takes ownership of the actors.
pub struct NetRuntime<P: Payload> {
    actors: Vec<Box<dyn Actor<P>>>,
    config: NetConfig,
    chaos: ChaosProfile,
    link_drops: BTreeSet<LinkDrop>,
    registry: Option<KeyRegistry>,
}

impl<P: Payload> std::fmt::Debug for NetRuntime<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetRuntime")
            .field("n", &self.actors.len())
            .field("config", &self.config)
            .field("chaos", &self.chaos)
            .finish()
    }
}

impl<P: Payload + 'static> NetRuntime<P> {
    /// Creates a runtime over `actors`; actor `i` is processor `i`.
    pub fn new(actors: Vec<Box<dyn Actor<P>>>, config: NetConfig) -> Self {
        NetRuntime {
            actors,
            config,
            chaos: ChaosProfile::reliable(),
            link_drops: BTreeSet::new(),
            registry: None,
        }
    }

    /// Injects the chaos profile the wire rolls against (default:
    /// [`ChaosProfile::reliable`]).
    pub fn with_chaos(mut self, chaos: ChaosProfile) -> Self {
        self.chaos = chaos;
        self
    }

    /// Declares scheduled link drops, with exactly the semantics of
    /// [`Simulation::with_link_drops`](ba_sim::Simulation::with_link_drops):
    /// a matching frame is suppressed before it ever reaches the wire and
    /// accounted under `omitted_messages`.
    pub fn with_link_drops(mut self, drops: impl IntoIterator<Item = LinkDrop>) -> Self {
        self.link_drops.extend(drops);
        self
    }

    /// Declares the [`KeyRegistry`] whose verifier cache this run's actors
    /// share; mirrors [`Simulation::with_registry`]'s deferred
    /// phase-snapshot mode so crypto counters stay schedule-independent.
    ///
    /// [`Simulation::with_registry`]: ba_sim::Simulation::with_registry
    pub fn with_registry(mut self, registry: &KeyRegistry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.actors.len()
    }

    /// Runs exactly `phases` phases.
    ///
    /// # Errors
    /// A [`DegradationVerdict`] (boxed — the verdict carries full wire
    /// statistics) when the observable fault set exceeds the budget or a
    /// phase's delivery deadline is blown. The runtime never panics on
    /// wire failures and never returns decisions from a run whose fault
    /// assumptions broke.
    ///
    /// # Panics
    /// Resumes a panic raised by an actor, after every chunk has
    /// quiesced.
    pub fn run(self, phases: usize) -> Result<NetOutcome, Box<DegradationVerdict>> {
        let spec = InstanceSpec {
            actors: self.actors,
            phases,
            fault_budget: self.config.fault_budget,
            link_drops: self.link_drops.into_iter().collect(),
            registry: None,
        };
        let policy = WirePolicy {
            max_retries: self.config.max_retries,
            deadline_ticks: self.config.deadline_ticks,
        };
        run_track(
            spec,
            &self.chaos,
            policy,
            self.config.threads,
            self.registry.as_ref().map(KeyRegistry::cache),
        )
    }
}
