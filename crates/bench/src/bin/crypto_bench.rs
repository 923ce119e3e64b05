//! **Release lint** for the crypto-enforced (outsourced-enforcement)
//! mechanism: on a clean workload it must release exactly the same tuple
//! multiset as the security-punctuation mechanism — release is a
//! cryptographic fact, and any divergence from the plaintext shield's
//! decisions means a broken capsule schedule or an unsound client — and no
//! frame may be released without a verified AEAD tag. Either violation
//! exits nonzero, failing CI.
//!
//! Nothing is timed here: what the crypto path costs per tuple is
//! `perfbench/`'s `baselines.crypto.ns_per_tuple` row, next to
//! `baselines.sp.ns_per_tuple`.
//!
//! Usage: `cargo run --release -p sp-bench --bin crypto_bench`

use std::collections::HashMap;
use std::sync::Arc;

use sp_baselines::{run_mechanism, CryptoEnforced, SpMechanism};
use sp_bench::mechanisms::{catalog, probe_roles, IN_FLIGHT};
use sp_bench::workloads::fig7_workload;
use sp_core::Tuple;

/// sp:tuple = 1/25, 3-role policies, 50% selectivity — the paper's
/// middle-of-the-road Fig. 7 point.
const SP_EVERY: usize = 25;
const POLICY_ROLES: u32 = 3;
const SELECTIVITY: f64 = 0.5;
const SEED: u64 = 0xC1F4;

fn multiset(tuples: &[Arc<Tuple>]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for t in tuples {
        *m.entry(t.tid.raw()).or_insert(0u64) += 1;
    }
    m
}

fn main() {
    let workload = fig7_workload(SP_EVERY, POLICY_ROLES, SELECTIVITY, SEED);
    let catalog = catalog(128);

    let mut sp_mech =
        SpMechanism::new(catalog.clone(), workload.schema.clone(), probe_roles(), IN_FLIGHT);
    let sp_out = run_mechanism(&mut sp_mech, workload.elements.iter().cloned());
    let mut crypto =
        CryptoEnforced::new(catalog.clone(), workload.schema.clone(), probe_roles(), IN_FLIGHT);
    let crypto_out = run_mechanism(&mut crypto, workload.elements.iter().cloned());
    let sp_set = multiset(&sp_out);
    let crypto_set = multiset(&crypto_out);
    let multiset_ok = sp_set == crypto_set;
    let unauth = crypto.client().released_unauthenticated();

    println!("crypto lint: crypto-enforced vs security-punctuations on a clean workload");
    println!("  sp released            {:>10}", sp_out.len());
    println!("  crypto released        {:>10}", crypto_out.len());
    println!("  multiset identical     {multiset_ok:>10}");
    println!("  unauthenticated rel.   {unauth:>10}");
    println!("  relay frames           {:>10}", crypto.relay().forwarded);
    println!("  relay ciphertext KB    {:>10.1}", crypto.relay().bytes as f64 / 1024.0);

    if !multiset_ok {
        eprintln!(
            "LINT FAILURE: crypto-enforced released a different tuple multiset than \
             security-punctuations on a clean workload ({} vs {} distinct tids)",
            crypto_set.len(),
            sp_set.len(),
        );
        std::process::exit(1);
    }
    if unauth != 0 {
        eprintln!("LINT FAILURE: {unauth} frames released without authentication");
        std::process::exit(1);
    }
}
