//! Seeded chaos-soak campaigns for the `ba-net` runtime.
//!
//! Each campaign draws a fault schedule from `ba-check`'s sampler and a
//! chaos profile from `ba-net`, runs the target through the real
//! message-passing runtime, and classifies the outcome:
//!
//! * **clean** — the run completed and Byzantine Agreement held;
//! * **degraded** — the runtime aborted with a structured
//!   [`DegradationVerdict`](ba_net::DegradationVerdict) (fault budget
//!   exceeded or deadline blown) instead of deciding;
//! * **violation** — the run completed but agreement broke. Expected on
//!   targets registered unsound; a soundness breach (and a nonzero exit)
//!   on sound ones, because the runtime must abort rather than decide
//!   wrongly when the wire misbehaves past the budget.
//!
//! Every violation is fed back to the model checker: chaos-induced
//! permanently-failed links become `Passive`-sender [`LinkDrop`]s on the
//! lock-step schedule, the augmented schedule is replayed on the
//! deterministic engine, and — when it reproduces — shrunk to a 1-minimal
//! counterexample and appended to the regression corpus (`--corpus-out`).
//!
//! ```text
//! cargo run -p ba-bench --bin soak --release -- \
//!     --profile stress --campaigns 40 --seed 7
//!     # every registered target, 40 campaigns each
//!
//! cargo run -p ba-bench --bin soak --release -- \
//!     --target ds-weak-relay-threshold --profile lossy --expect-violation
//!     # CI guard: the weakened target must still be caught under chaos
//!
//! cargo run -p ba-bench --bin soak --release -- \
//!     --campaigns 100 --corpus-out /tmp/soak-corpus.json
//!     # persist newly minimized counterexamples for triage
//!
//! cargo run -p ba-bench --bin soak --release -- \
//!     --target ext --n 9 --t 2 --profile lossy --campaigns 20
//!     # chaos-soak the extension layer: completed runs must judge clean
//!     # (strict outcome agreement), degradation verdicts are acceptable
//! ```
//!
//! Determinism: campaign `i` of a target uses the schedule sampler seeded
//! from `--seed` and a chaos profile seeded with `derive_seed(seed, i)`,
//! and all chaos randomness runs on the coordinator thread — reruns with
//! the same flags reproduce byte-identical campaign outcomes at any
//! `--threads`.

use ba_check::corpus::{self, CorpusEntry};
use ba_check::{explore, shrink, shrink_ext, ExploreOptions, ExtSchedule, FaultSchedule, Strategy};
use ba_crypto::rng::derive_seed;
use ba_ext::check::{run_scenario_net, standard_scenarios};
use ba_ext::net::ExtNetError;
use ba_net::{run_target, ChaosProfile, NetConfig, NetRunError};
use ba_sim::schedule::{FaultBehavior, LinkDrop, ScheduleSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

struct Cli {
    target: Option<String>,
    profile: String,
    campaigns: usize,
    n: usize,
    t: usize,
    value: u64,
    seed: u64,
    threads: usize,
    inner: String,
    corpus_out: Option<String>,
    expect_violation: bool,
}

#[derive(Default)]
struct Tally {
    clean: usize,
    degraded: usize,
    skipped: usize,
    expected_violations: usize,
    unexpected_violations: usize,
    reproduced: usize,
    corpus_new: Vec<CorpusEntry>,
}

fn usage() -> ! {
    eprintln!(
        "usage: soak [--target NAME|ext] [--profile {}] [--campaigns N] \
         [--n N] [--t T] [--value 0|1] [--seed S] [--threads K] \
         [--inner NAME] [--corpus-out PATH] [--expect-violation]",
        ChaosProfile::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        target: None,
        profile: "stress".to_string(),
        campaigns: 40,
        n: 4,
        t: 1,
        value: 1,
        seed: 0,
        threads: 2,
        inner: "ds-broadcast".to_string(),
        corpus_out: None,
        expect_violation: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value_of = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} expects a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--target" => cli.target = Some(value_of("--target")),
            "--profile" => cli.profile = value_of("--profile"),
            "--campaigns" => cli.campaigns = parse_num(&value_of("--campaigns"), "--campaigns"),
            "--n" => cli.n = parse_num(&value_of("--n"), "--n"),
            "--t" => cli.t = parse_num(&value_of("--t"), "--t"),
            "--value" => cli.value = parse_num(&value_of("--value"), "--value") as u64,
            "--seed" => cli.seed = parse_num(&value_of("--seed"), "--seed") as u64,
            "--threads" => cli.threads = parse_num(&value_of("--threads"), "--threads").max(1),
            "--inner" => cli.inner = value_of("--inner"),
            "--corpus-out" => cli.corpus_out = Some(value_of("--corpus-out")),
            "--expect-violation" => cli.expect_violation = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if ChaosProfile::from_name(&cli.profile, 0).is_none() {
        eprintln!("unknown chaos profile {:?}", cli.profile);
        usage();
    }
    cli
}

fn parse_num(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a non-negative integer, got {text:?}");
        std::process::exit(2);
    })
}

/// Maps a chaos run's permanently failed links onto the lock-step
/// vocabulary: the sender becomes a `Passive` fault (honest behaviour,
/// counted against the budget — exactly how the runtime suspected it) and
/// each failed frame becomes a scheduled [`LinkDrop`].
fn absorb_failed_links(spec: &ScheduleSpec, failed: &[ba_net::FailedLink]) -> ScheduleSpec {
    let mut out = spec.clone();
    for link in failed {
        if !out.is_faulty(link.from) {
            out.faults.push((link.from, FaultBehavior::Passive));
        }
        out.link_drops.push(LinkDrop {
            phase: link.phase,
            from: link.from,
            to: link.to,
        });
    }
    out.faults.sort_by_key(|(p, _)| *p);
    out.link_drops.sort();
    out.link_drops.dedup();
    out
}

/// Replays a chaos-found violation on the deterministic engine; returns
/// the shrunk corpus entry when the failure reproduces.
fn reproduce_and_shrink(
    target: &'static ba_check::CheckTarget,
    schedule: &FaultSchedule,
) -> Option<CorpusEntry> {
    let replay = catch_unwind(AssertUnwindSafe(|| {
        target.run(&schedule.config(1)).failure()
    }));
    match replay {
        Ok(Some(_failure)) => {
            let (minimized, minimized_failure) = shrink::shrink(target, schedule);
            Some(CorpusEntry::target(minimized, minimized_failure))
        }
        Ok(None) => None,
        Err(_) => {
            eprintln!(
                "  lock-step replay panicked for {} — schedule kept un-shrunk: {}",
                schedule.target,
                schedule.to_json().render()
            );
            None
        }
    }
}

/// Replays a chaos-found extension violation on the lock-step engine;
/// returns the shrunk ext corpus entry when the failure reproduces.
fn reproduce_and_shrink_ext(schedule: &ExtSchedule) -> Option<CorpusEntry> {
    if schedule.validate().is_err() {
        // Absorbing failed links can push the schedule past the fault
        // budget; an over-budget schedule has no lock-step reproduction.
        return None;
    }
    let replay = catch_unwind(AssertUnwindSafe(|| schedule.failure(1)));
    match replay {
        Ok(Some(_failure)) => {
            let (minimized, minimized_failure) = shrink_ext(schedule);
            Some(CorpusEntry::ext(minimized, minimized_failure))
        }
        Ok(None) => None,
        Err(_) => {
            eprintln!(
                "  lock-step replay panicked for ext — schedule kept un-shrunk: {}",
                schedule.to_json().render()
            );
            None
        }
    }
}

/// Chaos-soaks the extension layer: the standard scenario family plus
/// seeded random schedules runs through `run_extension_net` under the
/// chosen profile. With a sound inner target (the default) every
/// completed run must judge clean (strict outcome agreement, no wrong
/// payload) and a degradation verdict is the only other acceptable
/// outcome; `--inner` swaps in a weakened digest-agreement target, whose
/// violations are expected and feed the shrink-to-corpus pipeline.
fn soak_ext(cli: &Cli, tally: &mut Tally) {
    let Some(inner) = ba_check::find_target(&cli.inner) else {
        eprintln!("unknown inner target {:?}", cli.inner);
        std::process::exit(2);
    };
    let (n, t) = (cli.n, cli.t);
    let scenarios = standard_scenarios(n, t, cli.seed, cli.campaigns);
    let net = NetConfig {
        threads: cli.threads,
        ..NetConfig::default()
    };
    let mut local = Tally::default();
    for (i, scenario) in scenarios.iter().enumerate() {
        let chaos = ChaosProfile::from_name(&cli.profile, derive_seed(cli.seed, i as u64))
            .expect("profile validated at parse time");
        let schedule = ExtSchedule {
            n,
            t,
            payload_len: 2_048,
            payload_seed: derive_seed(cli.seed, 2_000_000 + i as u64),
            seed: derive_seed(cli.seed, 1_000_000 + i as u64),
            inner: inner.name.to_string(),
            vote_inner: "ds-relay".to_string(),
            spec: scenario.spec.clone(),
            garble: scenario.garble.clone(),
        };
        let opts = match schedule.options(1) {
            Ok(opts) if schedule.validate().is_ok() => opts,
            _ => {
                local.skipped += 1;
                continue;
            }
        };
        match run_scenario_net(
            &schedule.payload(),
            &opts,
            &schedule.scenario(),
            &net,
            &chaos,
        ) {
            Err(ExtNetError::BadOptions(_)) | Err(ExtNetError::Schedule(_)) => local.skipped += 1,
            Err(ExtNetError::Degraded { .. }) => local.degraded += 1,
            Ok((_, None)) => local.clean += 1,
            Ok((run, Some(failure))) => {
                if inner.sound {
                    local.unexpected_violations += 1;
                    eprintln!(
                        "  EXT SOUNDNESS BREACH under {} chaos (campaign {i}, {}): {failure}",
                        cli.profile, scenario.label
                    );
                } else {
                    local.expected_violations += 1;
                }
                let failed: Vec<ba_net::FailedLink> = run
                    .wire
                    .iter()
                    .flat_map(|stage| stage.stats.failed_links.iter().cloned())
                    .collect();
                let augmented = ExtSchedule {
                    spec: absorb_failed_links(&schedule.spec, &failed),
                    ..schedule.clone()
                };
                if let Some(entry) = reproduce_and_shrink_ext(&augmented) {
                    local.reproduced += 1;
                    if !local.corpus_new.iter().any(|e| e.case == entry.case)
                        && !tally.corpus_new.iter().any(|e| e.case == entry.case)
                    {
                        println!(
                            "  minimized: {} — {}",
                            entry.schedule_json().render(),
                            entry.failure
                        );
                        local.corpus_new.push(entry);
                    }
                } else {
                    println!(
                        "  campaign {i}: ext violation did not reproduce on the lock-step \
                         engine (chaos-order dependent): {}",
                        augmented.to_json().render()
                    );
                }
            }
        }
    }
    println!(
        "ext: {} campaign(s) under {:?} at n = {n}, t = {t} — {} clean, {} degraded, \
         {} violation(s) ({} unexpected), {} reproduced, {} skipped",
        scenarios.len(),
        cli.profile,
        local.clean,
        local.degraded,
        local.expected_violations + local.unexpected_violations,
        local.unexpected_violations,
        local.reproduced,
        local.skipped
    );
    tally.clean += local.clean;
    tally.degraded += local.degraded;
    tally.skipped += local.skipped;
    tally.expected_violations += local.expected_violations;
    tally.unexpected_violations += local.unexpected_violations;
    tally.reproduced += local.reproduced;
    tally.corpus_new.extend(local.corpus_new);
}

fn soak_target(cli: &Cli, target: &'static ba_check::CheckTarget, tally: &mut Tally) {
    let (n, t) = if cli.target.is_some() {
        (cli.n, cli.t)
    } else if target.supports(4, 1) {
        (4, 1)
    } else {
        (3, 1)
    };
    if !target.supports(n, t) {
        eprintln!("{}: skipping, n = {n}, t = {t} unsupported", target.name);
        return;
    }
    // The sampler is the model checker's own schedule vocabulary; chaos
    // rides on top as wire-level noise.
    let specs = explore::sample_schedules(&ExploreOptions {
        target,
        n,
        t,
        value: cli.value,
        seed: cli.seed,
        budget: cli.campaigns,
        threads: 1,
        strategy: Strategy::Random,
    });
    let net = NetConfig {
        threads: cli.threads,
        ..NetConfig::default()
    };
    let mut local = Tally::default();
    for (i, spec) in specs.iter().enumerate() {
        let chaos = ChaosProfile::from_name(&cli.profile, derive_seed(cli.seed, i as u64))
            .expect("profile validated at parse time");
        let schedule = FaultSchedule {
            target: target.name.to_string(),
            n,
            t,
            value: cli.value,
            seed: derive_seed(cli.seed, 1_000_000 + i as u64),
            spec: spec.clone(),
        };
        let cfg = schedule.config(1);
        match run_target(target, &cfg, &net, &chaos) {
            Err(NetRunError::Schedule(_)) => local.skipped += 1,
            Err(NetRunError::Degraded(_)) => local.degraded += 1,
            Ok(run) if !run.violated() => local.clean += 1,
            Ok(run) => {
                if target.sound {
                    local.unexpected_violations += 1;
                    eprintln!(
                        "  SOUNDNESS BREACH: {} decided wrongly under {} chaos (campaign {i}): {:?}",
                        target.name, cli.profile, run.agreement
                    );
                } else {
                    local.expected_violations += 1;
                }
                let augmented = FaultSchedule {
                    spec: absorb_failed_links(&schedule.spec, &run.stats.failed_links),
                    ..schedule.clone()
                };
                if let Some(entry) = reproduce_and_shrink(target, &augmented) {
                    local.reproduced += 1;
                    if !local.corpus_new.iter().any(|e| e.case == entry.case)
                        && !tally.corpus_new.iter().any(|e| e.case == entry.case)
                    {
                        println!(
                            "  minimized: {} — {}",
                            entry.schedule_json().render(),
                            entry.failure
                        );
                        local.corpus_new.push(entry);
                    }
                } else {
                    println!(
                        "  campaign {i}: violation did not reproduce on the lock-step engine \
                         (chaos-order dependent): {}",
                        augmented.to_json().render()
                    );
                }
            }
        }
    }
    println!(
        "{}: {} campaign(s) under {:?} at n = {n}, t = {t} — {} clean, {} degraded, \
         {} violation(s) ({} unexpected), {} reproduced, {} skipped",
        target.name,
        specs.len(),
        cli.profile,
        local.clean,
        local.degraded,
        local.expected_violations + local.unexpected_violations,
        local.unexpected_violations,
        local.reproduced,
        local.skipped
    );
    tally.clean += local.clean;
    tally.degraded += local.degraded;
    tally.skipped += local.skipped;
    tally.expected_violations += local.expected_violations;
    tally.unexpected_violations += local.unexpected_violations;
    tally.reproduced += local.reproduced;
    tally.corpus_new.extend(local.corpus_new);
}

fn save_corpus(path: &str, new_entries: &[CorpusEntry]) -> Result<usize, String> {
    let path = Path::new(path);
    let mut entries = if path.exists() {
        corpus::load(path)?
    } else {
        Vec::new()
    };
    let mut added = 0;
    for entry in new_entries {
        if !entries.iter().any(|e| e.case == entry.case) {
            entries.push(entry.clone());
            added += 1;
        }
    }
    corpus::save(path, &entries)?;
    Ok(added)
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let started = std::time::Instant::now();
    let mut tally = Tally::default();
    match &cli.target {
        Some(name) if name == "ext" => soak_ext(&cli, &mut tally),
        Some(name) => match ba_check::find_target(name) {
            Some(target) => soak_target(&cli, target, &mut tally),
            None => {
                eprintln!("unknown check target {name:?}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            for target in ba_check::targets() {
                soak_target(&cli, target, &mut tally);
            }
        }
    }
    if let Some(path) = &cli.corpus_out {
        match save_corpus(path, &tally.corpus_new) {
            Ok(added) => println!("corpus: {added} new minimized counterexample(s) → {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let total_violations = tally.expected_violations + tally.unexpected_violations;
    println!(
        "soak: {} clean, {} degraded, {} violation(s) ({} unexpected), {} reproduced, \
         {} skipped in {:.2?}",
        tally.clean,
        tally.degraded,
        total_violations,
        tally.unexpected_violations,
        tally.reproduced,
        tally.skipped,
        started.elapsed()
    );
    if tally.unexpected_violations > 0 {
        eprintln!("sound target(s) decided wrongly under chaos — the runtime must abort instead");
        return ExitCode::FAILURE;
    }
    if cli.expect_violation && total_violations == 0 {
        eprintln!("--expect-violation: no violation surfaced");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
