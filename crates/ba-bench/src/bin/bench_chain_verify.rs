//! Microbenchmark for signature-chain verification strategies.
//!
//! Compares, for chains of length 8 / 32 / 128:
//!
//! * `reference` — the retained naive verifier (`Chain::verify_reference`),
//!   which re-derives every prefix digest from scratch: O(L²) hashing;
//! * `incremental` — the rolling-digest verifier with the prefix cache
//!   bypassed (`Chain::verify_uncached`): O(L) hashing, L signature checks;
//! * `cached` — the full path (`Chain::verify`) against a warm
//!   `VerifierCache`, as a relaying processor sees it: O(L) hashing and
//!   O(1) signature checks per re-verification.
//!
//! It also times one-shot `Sha256::digest` at 64 B, 1 KiB and 1 MiB and
//! reports the throughput in MB/s, next to the name of the SHA-256
//! compression kernel the process dispatched to (`sha256::kernel()`).
//!
//! Emits a JSON report (timings plus exact per-verify hash / signature-check
//! counts) to the path given as the first argument, default
//! `BENCH_chain_verify.json`, and prints the human-readable table on
//! stderr.
//!
//! ```text
//! cargo run -p ba-bench --release --bin bench_chain_verify
//! ```

use ba_bench::microbench::{bench, print_samples, Sample};
use ba_crypto::keys::{KeyRegistry, SchemeKind};
use ba_crypto::sha256::{self, Sha256};
use ba_crypto::{Chain, CryptoStats, ProcessId, Value};
use std::fmt::Write as _;

const LENGTHS: [usize; 3] = [8, 32, 128];
/// Message sizes of the SHA-256 throughput rows.
const SHA256_SIZES: [usize; 3] = [64, 1024, 1024 * 1024];

struct Row {
    length: usize,
    strategy: &'static str,
    sample: Sample,
    hashes_per_verify: u64,
    sig_checks_per_verify: u64,
}

fn build_chain(registry: &KeyRegistry, len: usize) -> Chain {
    let mut chain = Chain::new(7, Value::ONE);
    for i in 0..len {
        chain.sign_and_append(&registry.signer(ProcessId(i as u32)));
    }
    chain
}

/// Exact crypto work of one invocation of `f`, via the thread-local
/// counters (measured outside the timing loop so instrumentation and
/// timing never mix).
fn work_of(f: impl Fn()) -> (u64, u64) {
    let before = CryptoStats::snapshot();
    f();
    let d = CryptoStats::snapshot().since(&before);
    (d.hash_invocations, d.sig_verifications)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_chain_verify.json".to_string());

    let mut rows: Vec<Row> = Vec::new();
    for len in LENGTHS {
        // Fast scheme so counter deltas are pure chain-structure cost.
        let registry = KeyRegistry::new(len + 1, 42, SchemeKind::Fast);
        let chain = build_chain(&registry, len);
        let verifier = registry.verifier();
        assert!(chain.verify_reference(&verifier).is_ok());

        let (h, s) = work_of(|| {
            chain.verify_reference(&verifier).unwrap();
        });
        rows.push(Row {
            length: len,
            strategy: "reference",
            sample: bench(format!("L={len:>3} reference"), || {
                chain.verify_reference(&verifier).unwrap()
            }),
            hashes_per_verify: h,
            sig_checks_per_verify: s,
        });

        let (h, s) = work_of(|| {
            chain.verify_uncached(&verifier).unwrap();
        });
        rows.push(Row {
            length: len,
            strategy: "incremental",
            sample: bench(format!("L={len:>3} incremental"), || {
                chain.verify_uncached(&verifier).unwrap()
            }),
            hashes_per_verify: h,
            sig_checks_per_verify: s,
        });

        // Warm the cache once, then measure the relaying-processor path.
        chain.verify(&verifier).unwrap();
        let (h, s) = work_of(|| {
            chain.verify(&verifier).unwrap();
        });
        rows.push(Row {
            length: len,
            strategy: "cached",
            sample: bench(format!("L={len:>3} cached"), || {
                chain.verify(&verifier).unwrap()
            }),
            hashes_per_verify: h,
            sig_checks_per_verify: s,
        });
    }

    let samples: Vec<Sample> = rows.iter().map(|r| r.sample.clone()).collect();
    print_samples("chain verification", &samples);

    let kernel = sha256::kernel();
    let sha_samples: Vec<Sample> = SHA256_SIZES
        .iter()
        .map(|&size| {
            let data = vec![0xABu8; size];
            bench(format!("sha256 {size} B"), || Sha256::digest(&data))
        })
        .collect();
    print_samples(&format!("sha256 ({kernel} kernel)"), &sha_samples);

    let mut json = format!(
        "{{\n  \"bench\": \"chain_verify\",\n  \"scheme\": \"Fast\",\n  \"sha256_kernel\": \"{kernel}\",\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"length\": {}, \"strategy\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"hashes_per_verify\": {}, \"sig_checks_per_verify\": {}}}{}",
            r.length,
            r.strategy,
            r.sample.median_ns,
            r.sample.mean_ns,
            r.sample.min_ns,
            r.hashes_per_verify,
            r.sig_checks_per_verify,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"sha256\": [\n");
    for (i, (size, sample)) in SHA256_SIZES.iter().zip(&sha_samples).enumerate() {
        // Bytes per nanosecond is GB/s; report decimal MB/s.
        let mb_per_s = *size as f64 / sample.median_ns * 1000.0;
        let _ = writeln!(
            json,
            "    {{\"bytes\": {size}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"mb_per_s\": {mb_per_s:.1}}}{}",
            sample.median_ns,
            sample.mean_ns,
            sample.min_ns,
            if i + 1 == sha_samples.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out_path}");
}
