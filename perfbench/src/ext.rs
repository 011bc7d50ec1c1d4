//! `ext-1mib`: back-to-back `agree_on_payload` calls, each on a seeded
//! random 1 MiB payload, over the 7×7 grid (n = 49, t = 4).
//!
//! Traced, each agreement is preceded by probes of the three coding steps
//! it contains — `Sha256::digest`, `Coder::encode`, and
//! `Coder::reconstruct` with t chunks erased — so the agreement's time
//! splits into coding and protocol.

use crate::report::{peak_rss_mib, Outcome};
use crate::spans::{ms, Tracer};
use crate::stats::{median, min_samples, ratio, Summary};
use crate::Ctx;
use ba_crypto::rng::{derive_seed, SimRng};
use ba_crypto::sha256::Sha256;
use ba_crypto::Bytes;
use ba_ext::coding::Coder;
use ba_ext::{agree_on_payload, ExtOptions, ExtReport};
use ba_sim::Metrics;
use std::time::Instant;

pub const N: usize = 49;
pub const T: usize = 4;
pub const PAYLOAD_BYTES: usize = 1 << 20;
/// Distinct payloads generated at set-up; calls cycle through them.
const PAYLOADS: usize = 8;
/// The tail percentile `latency_p99_ms` reports. A pass runs at least
/// `min_samples(TAIL_PCT)` agreements, so ten lie beyond it.
const TAIL_PCT: f64 = 75.0;

/// The counts of every agreement, whatever the seed, the payload and the
/// worker count. A change that alters the protocol's work shows here as a
/// failed check.
const EXPECTED: Fingerprint = Fingerprint {
    messages: 34_691,
    signatures: 67_966,
    hashes: 103_410,
    sig_verifications: 36_019,
    inner_bytes: 392_640,
    dissemination_bytes: 61_451_852,
    vote_bytes: 1_004_598,
    fetch_bytes: 0,
    repair_requests: 0,
};

fn options(seed: u64, threads: usize) -> ExtOptions {
    ExtOptions::new()
        .with_n(N)
        .with_t(T)
        .with_seed(seed)
        .with_threads(threads)
}

fn payloads(seed: u64) -> Vec<Bytes> {
    let mut rng = SimRng::new(seed);
    (0..PAYLOADS)
        .map(|_| {
            let mut data = Vec::with_capacity(PAYLOAD_BYTES);
            while data.len() < PAYLOAD_BYTES {
                data.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            Bytes::from(data)
        })
        .collect()
}

/// Exact counts of one agreement, split by stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    messages: u64,
    signatures: u64,
    hashes: u64,
    sig_verifications: u64,
    inner_bytes: u64,
    dissemination_bytes: u64,
    vote_bytes: u64,
    fetch_bytes: u64,
    repair_requests: u64,
}

impl Fingerprint {
    fn of(r: &ExtReport) -> Fingerprint {
        let stages = [&r.inner_metrics, &r.dissemination, &r.vote, &r.fetch];
        let sum = |f: fn(&Metrics) -> u64| stages.iter().map(|m| f(m)).sum();
        Fingerprint {
            messages: sum(|m| m.messages_by_correct),
            signatures: sum(|m| m.signatures_by_correct),
            hashes: sum(|m| m.crypto.hash_invocations),
            sig_verifications: sum(|m| m.crypto.sig_verifications),
            inner_bytes: r.inner_metrics.wire_bytes(),
            dissemination_bytes: r.dissemination.wire_bytes(),
            vote_bytes: r.vote.wire_bytes(),
            fetch_bytes: r.fetch.wire_bytes(),
            repair_requests: r.repair_requests,
        }
    }

    fn bytes(&self) -> u64 {
        self.inner_bytes + self.dissemination_bytes + self.vote_bytes + self.fetch_bytes
    }

    fn phases(r: &ExtReport) -> usize {
        [&r.inner_metrics, &r.dissemination, &r.vote, &r.fetch]
            .iter()
            .map(|m| m.phases)
            .sum()
    }
}

/// One agreement on `payload`, checked: every correct node decides
/// exactly the payload, within the `4·ℓ·n` byte budget, with the expected
/// counts.
fn agree(payload: &Bytes, opts: &ExtOptions) -> Result<ExtReport, String> {
    let report = agree_on_payload(payload, opts).map_err(|e| e.to_string())?;
    for (id, decision) in report.correct_decisions() {
        if decision.and_then(|d| d.payload()) != Some(payload) {
            return Err(format!("{id} did not decide the payload: {decision:?}"));
        }
    }
    let budget = 4 * payload.len() as u64 * N as u64;
    if report.total_wire_bytes() > budget {
        return Err(format!(
            "{} wire bytes exceed 4·ℓ·n = {budget}",
            report.total_wire_bytes()
        ));
    }
    let fp = Fingerprint::of(&report);
    if fp != EXPECTED {
        return Err(format!(
            "fingerprint: counted {fp:?}, expected {EXPECTED:?}"
        ));
    }
    Ok(report)
}

/// Runs one pass of the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seed = derive_seed(ctx.seed, 1);
    let opts = options(seed, ctx.nproc);
    let traced = tracer.enabled();

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..crate::SETUPS {
        // Free the previous set-up before building the next.
        drop(prepared.take());
        let t0 = Instant::now();
        let setup = tracer.open("setup", None, None);
        let inputs = payloads(derive_seed(ctx.seed, 2));
        let warm = agree(&inputs[0], &opts);
        tracer.close(setup);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Err(e) = warm {
            out.fail_setup(format!("warm-up: {e}"));
            return out;
        }
        prepared = Some(inputs);
    }
    let inputs = prepared.expect("at least one set-up");
    let coder = Coder::new(opts.data_chunks(), N);

    let mut wall_ms = Vec::new();
    let mut probes_ms = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while start.elapsed() < ctx.seconds || wall_ms.len() < min_samples(TAIL_PCT) {
        let i = wall_ms.len();
        let payload = &inputs[i % inputs.len()];
        let request = Some(i as u64);
        let op = tracer.open("op", None, request);
        if traced {
            let t0 = Instant::now();
            let digest = tracer.time("ext.digest", op, request, || Sha256::digest(payload));
            std::hint::black_box(digest);
            let chunks = tracer.time("ext.encode", op, request, || coder.encode(payload));
            let mut erased: Vec<Option<Bytes>> = chunks.into_iter().map(Some).collect();
            erased.iter_mut().take(T).for_each(|c| *c = None);
            let rebuilt = tracer.time("ext.reconstruct", op, request, || {
                coder.reconstruct(&erased, payload.len())
            });
            probes_ms.push(ms(t0.elapsed()));
            if rebuilt.as_deref() != Some(&payload[..]) {
                out.problems
                    .push(format!("probe {i}: reconstruction lost the payload"));
            }
        }
        let t0 = Instant::now();
        let agreement = tracer.open("ext.agree", op, request);
        let result = agree(payload, &opts);
        tracer.close(agreement);
        wall_ms.push(ms(t0.elapsed()));
        tracer.close(op);
        out.attempted += 1;
        match result {
            Ok(r) => last = Some(r),
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("agreement {i}: {e}"));
            }
        }
    }

    // Fingerprint at one worker thread.
    if let Err(e) = agree(&inputs[0], &options(seed, 1)) {
        out.problems.push(format!("threads = 1: {e}"));
    }
    eprintln!("fingerprint ext-1mib: {EXPECTED:?}");

    let v = &mut out.values;
    // Back to back, the rate is the inverse of the agreement time, so
    // `agreements_per_s` and `payload_mib_per_s` restate `latency_p50_ms`.
    // A failed agreement fails the run, so every timed agreement counts.
    if let Some(s) = Summary::of(&wall_ms, TAIL_PCT) {
        eprintln!("latency (ms, one agreement): {s}");
        let rate = 1e3 / s.p50;
        v.set("latency_p50_ms", s.p50, s.samples);
        v.set("latency_p99_ms", s.tail, s.samples);
        v.set("agreements_per_s", rate, s.samples);
        let mib = PAYLOAD_BYTES as f64 / (1024.0 * 1024.0);
        v.set("payload_mib_per_s", mib * rate, s.samples);
    }
    v.set("setup_s", median(&setup_s), setup_s.len());
    v.set("peak_rss_mib", peak_rss_mib(), 1);

    let fp = EXPECTED;
    v.set("loadgen.offered", out.attempted as f64, 1);
    v.set("crypto.hashes_per_agreement", fp.hashes as f64, 1);
    v.set(
        "crypto.sig_verifications_per_agreement",
        fp.sig_verifications as f64,
        1,
    );
    v.set("algos.messages_per_agreement", fp.messages as f64, 1);
    v.set("algos.signatures_per_agreement", fp.signatures as f64, 1);
    let budget = 4.0 * PAYLOAD_BYTES as f64 * N as f64;
    v.set("algos.bound_ratio", fp.bytes() as f64 / budget, 1);
    v.set("engine.bytes_per_agreement", fp.bytes() as f64, 1);
    v.set("ext.inner_bytes", fp.inner_bytes as f64, 1);
    v.set("ext.dissemination_bytes", fp.dissemination_bytes as f64, 1);
    v.set("ext.vote_bytes", fp.vote_bytes as f64, 1);
    v.set("ext.fetch_bytes", fp.fetch_bytes as f64, 1);
    v.set("ext.repair_requests", fp.repair_requests as f64, 1);
    if let Some(r) = &last {
        v.set("engine.phases", Fingerprint::phases(r) as f64, 1);
        v.set("ext.overhead_ratio", r.overhead_ratio(), 1);
        let hits: u64 = [&r.inner_metrics, &r.dissemination, &r.vote, &r.fetch]
            .iter()
            .map(|m| m.crypto.cache_hits)
            .sum();
        let misses: u64 = [&r.inner_metrics, &r.dissemination, &r.vote, &r.fetch]
            .iter()
            .map(|m| m.crypto.cache_misses)
            .sum();
        v.set(
            "crypto.cache_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
            (hits + misses) as usize,
        );
    }
    if traced {
        for (metric, span) in [
            ("ext.digest_ms", "ext.digest"),
            ("ext.encode_ms", "ext.encode"),
            ("ext.reconstruct_ms", "ext.reconstruct"),
        ] {
            let d = tracer.durations_ms(span);
            if !d.is_empty() {
                v.set(metric, median(&d), d.len());
            }
        }
        let protocol: Vec<f64> = wall_ms
            .iter()
            .zip(&probes_ms)
            .map(|(agreement, probes)| agreement - probes)
            .collect();
        if !protocol.is_empty() {
            v.set("ext.protocol_ms", median(&protocol), protocol.len());
        }
    }
    out
}
