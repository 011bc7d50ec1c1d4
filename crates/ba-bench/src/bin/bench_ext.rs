//! Benchmark and budget gate for the `ba-ext` extension protocol.
//!
//! For each `(payload ℓ, grid n)` cell the binary runs the full protocol —
//! digest agreement through the inner Dolev–Strong target plus
//! erasure-coded grid dissemination — and records the schedule-independent
//! bits-exchanged breakdown next to the timing:
//!
//! * `total_bytes` — wire bytes sent by correct processors across both
//!   layers (`Metrics::bytes_by_correct`);
//! * `payload_bytes` / `control_bytes` — the user-data vs framing split;
//! * `overhead_ratio` — `total_bytes / (ℓ·n)`, the figure the
//!   extension-protocol literature's `Ω(ℓn)` lower bound normalizes;
//! * `repair_requests` / `repair_response_bytes` — how much of the grid's
//!   column repair machinery each cell exercised.
//!
//! Each `(ℓ, n)` cell appears three times: fault-free (`"none"`), with the
//! last `t` grid nodes silent (`"withhold-t"` — their chunks must be
//! recovered through repair), and with the last `t` nodes garbling every
//! chunk and bundle they relay (`"garble-t"` — digest checks reject the
//! forgeries and repair routes around them). Faulty rows must still reach
//! unanimous decision among correct nodes; only fault-free rows feed the
//! overhead gate.
//!
//! Sections (select with `--section`, default `small`):
//!
//! * `small` — ℓ ∈ {1 KiB, 16 KiB, 256 KiB} on the 4×4 grid (CI);
//! * `full` — adds ℓ ∈ {1 MiB, 4 MiB} and the 7×7 grid.
//!
//! `--check-overhead` exits non-zero unless every fault-free cell with
//! ℓ ≥ 256 KiB satisfies `total_bytes ≤ 4·ℓ·n` (at small ℓ the inner-BA
//! signature chains dominate and the ratio is meaningless — the bound is
//! asymptotic in ℓ). A worker-count determinism check (threads 1 vs 4,
//! scoped vs shared pool) is always on: decisions and metrics must be
//! byte-identical or the run aborts. Emits a JSON report, tagged with the
//! SHA-256 kernel that ran (`sha256::kernel()`), to the path given as the
//! first positional argument (default `BENCH_ext.json`).
//!
//! ```text
//! cargo run -p ba-bench --release --bin bench_ext -- --section small --check-overhead
//! ```

use ba_bench::microbench::{bench, print_samples, Sample};
use ba_crypto::rng::SimRng;
use ba_crypto::{Bytes, ProcessId};
use ba_ext::check::{run_scenario, ExtScenario};
use ba_ext::{ExtDecision, ExtOptions, ExtReport};
use ba_sim::schedule::{FaultBehavior, ScheduleSpec};
use std::fmt::Write as _;

const KIB: usize = 1024;
const SMALL_PAYLOADS: [usize; 3] = [KIB, 16 * KIB, 256 * KIB];
const FULL_PAYLOADS: [usize; 2] = [1024 * KIB, 4096 * KIB];
/// Grids: (n, t). `t` is the full grid bound √n − 1 on the small grid and
/// a mid-range budget on the large one.
const SMALL_GRIDS: [(usize, usize); 1] = [(16, 3)];
const FULL_GRIDS: [(usize, usize); 1] = [(49, 4)];
/// The gated fault-free overhead constant: `total_bytes ≤ GATE · ℓ · n`.
const GATE: f64 = 4.0;
/// Payloads below this are exempt from the gate (control traffic
/// amortizes only asymptotically in ℓ).
const GATE_MIN_PAYLOAD: usize = 256 * KIB;

struct Row {
    payload_len: usize,
    n: usize,
    t: usize,
    fault: &'static str,
    total_bytes: u64,
    payload_bytes: u64,
    inner_bytes: u64,
    dissemination_bytes: u64,
    overhead_ratio: f64,
    repair_requests: u64,
    repair_response_bytes: u64,
    decided: usize,
    sample: Sample,
}

/// The benchmarked fault families: each cell runs fault-free, with the
/// last `t` grid nodes silent, and with the last `t` nodes garbling.
const FAULT_FAMILIES: [&str; 3] = ["none", "withhold-t", "garble-t"];

fn family_scenario(family: &str, n: usize, t: usize) -> ExtScenario {
    let tail: Vec<ProcessId> = (n - t..n).map(|p| ProcessId(p as u32)).collect();
    let (faults, garble) = match family {
        "none" => (Vec::new(), Vec::new()),
        "withhold-t" => (
            tail.iter().map(|p| (*p, FaultBehavior::Silent)).collect(),
            Vec::new(),
        ),
        "garble-t" => (Vec::new(), tail),
        other => die(&format!("unknown fault family {other:?}")),
    };
    ExtScenario {
        spec: ScheduleSpec {
            faults,
            link_drops: Vec::new(),
        },
        garble,
        label: family.to_string(),
    }
}

struct Config {
    out_path: String,
    sections: Vec<String>,
    check_overhead: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("bench_ext: {msg}");
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Config {
    let mut cfg = Config {
        out_path: "BENCH_ext.json".to_string(),
        sections: Vec::new(),
        check_overhead: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--section" => {
                let v = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--section needs a value"));
                if v != "small" && v != "full" {
                    die(&format!("unknown section {v:?} (known: small, full)"));
                }
                cfg.sections.push(v);
            }
            "--check-overhead" => cfg.check_overhead = true,
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag}")),
            path => cfg.out_path = path.to_string(),
        }
    }
    if cfg.sections.is_empty() {
        cfg.sections.push("small".to_string());
    }
    cfg
}

fn payload(len: usize, seed: u64) -> Bytes {
    let mut rng = SimRng::new(seed);
    Bytes::from((0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
}

fn decided_count(report: &ExtReport) -> usize {
    report
        .correct_decisions()
        .filter(|(_, d)| matches!(d, Some(ExtDecision::Decide(_))))
        .count()
}

/// Runs one cell and asserts the determinism and totality contracts: the
/// judge finds no violation, every correct node decides (the faulty
/// families stay within the `t` budget, so repair must recover the
/// payload), and a threads=4/pooled rerun is byte-identical.
fn probe(p: &Bytes, opts: &ExtOptions, scenario: &ExtScenario) -> ExtReport {
    let base = run_scenario(p, opts, scenario);
    if let Some(failure) = &base.failure {
        die(&format!(
            "cell n={} ℓ={} [{}] violated the judge: {failure}",
            opts.n,
            p.len(),
            scenario.label
        ));
    }
    let report = base
        .report
        .unwrap_or_else(|| die(&format!("cell [{}] produced no report", scenario.label)));
    let correct_total = report.correct.iter().filter(|c| **c).count();
    if decided_count(&report) != correct_total {
        die(&format!(
            "cell n={} ℓ={} [{}] did not decide on every correct node",
            opts.n, report.payload_len, scenario.label
        ));
    }
    let threaded = run_scenario(
        p,
        &ExtOptions {
            threads: 4,
            pooled: true,
            ..opts.clone()
        },
        scenario,
    );
    if threaded.report.as_ref() != Some(&report) {
        die(&format!(
            "DETERMINISM BROKEN at n={} ℓ={} [{}]: threads=4/pooled diverges from threads=1",
            opts.n, report.payload_len, scenario.label
        ));
    }
    report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parse_args(&args);

    let mut payloads: Vec<usize> = SMALL_PAYLOADS.to_vec();
    let mut grids: Vec<(usize, usize)> = SMALL_GRIDS.to_vec();
    if cfg.sections.iter().any(|s| s == "full") {
        payloads.extend(FULL_PAYLOADS);
        grids.extend(FULL_GRIDS);
    }

    let mut rows: Vec<Row> = Vec::new();
    for &(n, t) in &grids {
        for &len in &payloads {
            let opts = ExtOptions {
                n,
                t,
                seed: 0xE87,
                ..ExtOptions::default()
            };
            let p = payload(len, len as u64 ^ 0xBA5E);
            for family in FAULT_FAMILIES {
                let scenario = family_scenario(family, n, t);
                let report = probe(&p, &opts, &scenario);
                let sample = bench(
                    format!("ext ℓ={len:>8} n={n:>2} t={t} {family:<10}"),
                    || {
                        decided_count(
                            run_scenario(&p, &opts, &scenario)
                                .report
                                .as_ref()
                                .expect("bench run"),
                        )
                    },
                );
                rows.push(Row {
                    payload_len: len,
                    n,
                    t,
                    fault: family,
                    total_bytes: report.total_wire_bytes(),
                    payload_bytes: report.payload_wire_bytes(),
                    inner_bytes: report.inner_metrics.wire_bytes(),
                    dissemination_bytes: report.dissemination.wire_bytes(),
                    overhead_ratio: report.overhead_ratio(),
                    repair_requests: report.repair_requests,
                    repair_response_bytes: report.repair_response_bytes,
                    decided: decided_count(&report),
                    sample,
                });
            }
        }
    }

    let samples: Vec<Sample> = rows.iter().map(|r| r.sample.clone()).collect();
    print_samples("extension protocol", &samples);

    // -- JSON report -------------------------------------------------------
    let gate_applies = |r: &Row| r.fault == "none" && r.payload_len >= GATE_MIN_PAYLOAD;
    let overhead_ok = rows
        .iter()
        .filter(|r| gate_applies(r))
        .all(|r| r.overhead_ratio <= GATE);
    let mut json = format!(
        "{{\n  \"bench\": \"ext\",\n  \"sha256_kernel\": \"{}\",\n",
        ba_crypto::sha256::kernel()
    );
    let _ = writeln!(
        json,
        "  \"checks\": {{\"overhead_gate\": {overhead_ok}, \"gate_constant\": {GATE}, \
         \"gate_min_payload\": {GATE_MIN_PAYLOAD}, \"determinism\": true}},"
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"payload_len\": {}, \"n\": {}, \"t\": {}, \"fault\": \"{}\", \
             \"bytes_sent\": {}, \
             \"payload_bytes\": {}, \"control_bytes\": {}, \"inner_bytes\": {}, \
             \"dissemination_bytes\": {}, \"overhead_ratio\": {:.4}, \
             \"repair_requests\": {}, \"repair_response_bytes\": {}, \"gated\": {}, \
             \"decided\": {}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}}}{}",
            r.payload_len,
            r.n,
            r.t,
            r.fault,
            r.total_bytes,
            r.payload_bytes,
            r.total_bytes - r.payload_bytes,
            r.inner_bytes,
            r.dissemination_bytes,
            r.overhead_ratio,
            r.repair_requests,
            r.repair_response_bytes,
            gate_applies(r),
            r.decided,
            r.sample.median_ns,
            r.sample.mean_ns,
            r.sample.min_ns,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&cfg.out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", cfg.out_path);
        std::process::exit(1);
    });
    eprintln!("wrote {}", cfg.out_path);

    // -- overhead gate (after the JSON, so failures still leave a report) --
    if cfg.check_overhead {
        let mut failed = false;
        for r in rows.iter().filter(|r| gate_applies(r)) {
            if r.overhead_ratio > GATE {
                eprintln!(
                    "bench_ext: overhead gate FAILED: ℓ={} n={}: {} bytes = {:.2} x ℓn \
                     (gate {GATE})",
                    r.payload_len, r.n, r.total_bytes, r.overhead_ratio
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "bench_ext: overhead gate passed (total ≤ {GATE} x ℓn for every ℓ ≥ {GATE_MIN_PAYLOAD})"
        );
    }
}
