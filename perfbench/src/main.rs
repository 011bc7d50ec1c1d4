//! The repository's benchmark: end-to-end metrics of two workloads, and
//! a traced run that splits them by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload svc-overload --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `svc-overload` — Poisson arrivals at 6000/s on service sessions over
//!   a lossy wire, with load shedding;
//! * `ext-1mib` — back-to-back agreements on 1 MiB payloads, n = 49.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the
//! workload twice for half the time each, untraced then traced, and
//! reports the per-layer metrics of the traced half plus the traced
//! minus untraced difference of every end-to-end metric; its spans go to
//! `perfbench/out/spans-<workload>.jsonl`.
//!
//! Every operation's output is checked, and exact counts are compared
//! across operations and worker counts. A failed check prints the result
//! line with `"correct": false` and exits with code 1. Human-readable
//! detail, every metric with its unit and sample count, goes to stderr;
//! the last line of stdout is the JSON result.

mod ext;
mod loadgen;
mod report;
mod spans;
mod stats;
mod svc;

use report::{Outcome, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per pass of a closed-loop workload; `setup_s` reports their
/// median.
pub const SETUPS: usize = 7;

/// What a pass runs with.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: Duration,
    /// Worker threads for every layer that takes a count.
    pub nproc: usize,
}

const WORKLOADS: [&str; 2] = ["svc-overload", "ext-1mib"];

fn run_pass(workload: &str, ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    match workload {
        "svc-overload" => svc::run(ctx, tracer),
        "ext-1mib" => ext::run(ctx, tracer),
        other => unreachable!("workload {other} was validated"),
    }
}

fn describe(workload: &str, ctx: &Ctx) -> String {
    let threads = ctx.nproc;
    match workload {
        "svc-overload" => format!(
            "target {} n = {} t = {}, Poisson {}/s in {} rounds of {:.2} s, chaos lossy {}‰, \
             max_inflight {}, queue {} {:?}, threads {threads}",
            svc::TARGET,
            svc::N,
            svc::T,
            svc::RATE_PER_S,
            svc::rounds(ctx.seconds).0,
            svc::rounds(ctx.seconds).1.as_secs_f64(),
            svc::LOSS_PER_MILLE,
            svc::MAX_INFLIGHT,
            svc::QUEUE_CAPACITY,
            svc::ADMISSION,
        ),
        _ => format!(
            "agree_on_payload ℓ = {} bytes, n = {} t = {}, fault-free, threads {threads}",
            ext::PAYLOAD_BYTES,
            ext::N,
            ext::T
        ),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?} (known: {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?).filter(|&s| s >= 1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds (at least 1) is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // At most `nproc` threads step work: the caller and nproc − 1 shared
    // pool workers. Left at its default the pool grows to 8 workers
    // whenever a helper is slow to park, and each extra worker's allocator
    // arena moves peak memory by host timing. No thread has started yet.
    std::env::set_var("BA_POOL_MAX_WORKERS", (nproc - 1).to_string());
    let full = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        nproc,
    };
    eprintln!(
        "perfbench {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    eprintln!("  {}", describe(&args.workload, &full));

    let (outcome, catalogue) = if args.trace {
        (traced(&args.workload, &full), PER_LAYER)
    } else {
        let outcome = run_pass(&args.workload, &full, &mut Tracer::new(false));
        (outcome, END_TO_END)
    };
    eprintln!(
        "attempted {} failed {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    outcome.print_table(catalogue);
    println!("{}", outcome.json(catalogue));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced invocation: an untraced pass and a traced pass of half the
/// time each; per-layer metrics come from the traced pass.
fn traced(workload: &str, full: &Ctx) -> Outcome {
    let half = Ctx {
        seconds: full.seconds / 2,
        ..full.clone()
    };
    let plain = run_pass(workload, &half, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let mut out = run_pass(workload, &half, &mut tracer);

    eprintln!("tracing overhead (traced − untraced):");
    for (name, unit) in END_TO_END {
        let (Some(t), Some(u)) = (out.values.get(name), plain.values.get(name)) else {
            continue;
        };
        let overhead = format!("overhead.{name}");
        let overhead = PER_LAYER
            .iter()
            .find(|(n, _)| *n == overhead)
            .map(|(n, _)| *n)
            .expect("every end-to-end metric has an overhead row");
        eprintln!(
            "  {name:<24} {t:>14.4} − {u:>14.4} = {:>+12.4} {unit}",
            t - u
        );
        out.values.set(overhead, t - u, 2);
    }
    eprintln!("spans by name: count, total ms, self ms");
    for (name, count, total, own) in tracer.summary() {
        eprintln!("  {name:<20} {count:>8} {total:>14.3} {own:>14.3}");
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.problems.extend(plain.problems);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_validated() {
        let ok = args(&[
            "--workload",
            "ext-1mib",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("ext-1mib", 7, 10, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "svc-overload",
            "--seed",
            "x",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "svc-overload",
            "--seed",
            "1",
            "--seconds",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "svc-overload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "svc-overload", "--seed"]).is_err());
    }
}
