//! Loss identity under batched advice flushing.
//!
//! The batched Vm path changes *how* woven advice executes and when the
//! agent's buffers fold — never what is emitted, delivered, dropped, or
//! lost. This sweep re-checks the tuple ledger (`Ledger::check`) with
//! each request's shard burst driven through `Agent::invoke_batch`,
//! and pins the stronger property that the batched run's *entire
//! converged outcome* — surviving rows, loss books, injector tallies,
//! crash counts — equals the per-event `invoke` run of the identical
//! fault schedule.
//!
//! Reproduce any failure with `CHAOS_SEED=<n> cargo test -p pivot-chaos
//! --test batch_loss`; CI derives fresh seeds from the commit SHA via
//! `CHAOS_SEED_BASE` / `CHAOS_SEEDS`.

use pivot_chaos::sim::run_kv_burst;
use pivot_chaos::FaultConfig;

const REQUESTS: u64 = 192;
/// Shard events per request — comfortably past single-event bursts so
/// the fold scratch and batch arena actually engage.
const BURST: u64 = 5;

fn seed_list() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let one = s.parse().expect("CHAOS_SEED must be a u64");
        return vec![one];
    }
    let base: u64 = std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xba7c_4000);
    let count: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    (0..count).map(|i| base.wrapping_add(i)).collect()
}

#[test]
fn batched_fault_free_baseline_matches_scalar() {
    let scalar = run_kv_burst(0, FaultConfig::off(), REQUESTS, BURST, false);
    let batched = run_kv_burst(0, FaultConfig::off(), REQUESTS, BURST, true);
    assert_eq!(scalar.tuples.check(), Ok(()));
    assert_eq!(batched.tuples.check(), Ok(()));
    assert_eq!(scalar.tuples.emitted, REQUESTS * BURST);
    assert_eq!(scalar, batched, "fault-free outcomes diverge");
}

#[test]
fn batched_sweep_balances_and_matches_scalar() {
    let seeds = seed_list();
    let mut faulty_runs = 0u64;
    for &seed in &seeds {
        let cfg = FaultConfig::for_seed(seed);
        let batched = run_kv_burst(seed, cfg, REQUESTS, BURST, true);
        if let Err(e) = batched.tuples.check() {
            panic!("CHAOS_SEED={seed}: batched identity violated: {e}");
        }

        let scalar = run_kv_burst(seed, cfg, REQUESTS, BURST, false);
        assert_eq!(
            scalar, batched,
            "CHAOS_SEED={seed}: batched outcome diverges from per-event invoke"
        );
        if batched.chaos.tuples_dropped > 0 || batched.crashes > 0 {
            faulty_runs += 1;
        }
    }
    assert!(
        faulty_runs * 2 > seeds.len() as u64,
        "only {faulty_runs}/{} seeds injected faults — schedule generator is broken",
        seeds.len()
    );
}
