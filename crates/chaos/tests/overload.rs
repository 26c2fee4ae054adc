//! Seeded overload sweep: the governor under storms and explosions.
//!
//! Runs the overload KV workload — tracepoint storms, group-key
//! explosions, tight explicit budgets, small row caps, plus the usual
//! drop/dup/crash chaos — under seed-derived schedules and checks the
//! properties that make overload protection *honest*:
//!
//! 1. No panic, ever, under any schedule.
//! 2. The tuple ledger balances exactly, its `shed` term included —
//!    shedding is accounted, never silent.
//! 3. Bounded buffering: no per-query row buffer ever exceeds its cap,
//!    no matter how hard the storm blows.
//! 4. The frontend's view of shedding, truncation, and throttling is a
//!    lower bound on the agents' ground truth (chaos can hide loss
//!    reports, never invent them).
//! 5. The whole thing is deterministic: replaying a seed reproduces the
//!    outcome structurally, trip sequence and all.
//!
//! Reproduce any failure with `CHAOS_SEED=<n> cargo test -p pivot-chaos`;
//! CI derives fresh seeds from the commit SHA via `CHAOS_SEED_BASE` /
//! `CHAOS_SEEDS`.

use pivot_chaos::sim::{run_kv_overload, OVERLOAD_ROW_CAP};
use pivot_chaos::FaultConfig;

/// Fewer steps than the plain chaos sweep: storm and explosion steps
/// multiply each one into dozens-to-hundreds of invocations.
const REQUESTS: u64 = 96;

fn seed_list() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let one = s.parse().expect("CHAOS_SEED must be a u64");
        return vec![one];
    }
    let base: u64 = std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_0000);
    let count: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    (0..count).map(|i| base.wrapping_add(i)).collect()
}

#[test]
fn overload_sweep_balances_and_stays_bounded() {
    let seeds = seed_list();
    let mut tripped_runs = 0u64;
    let mut shed_runs = 0u64;
    let mut truncated_runs = 0u64;
    for &seed in &seeds {
        let out = run_kv_overload(seed, FaultConfig::overload_for_seed(seed), REQUESTS);

        // (2) Exact tuple conservation, shedding included.
        if let Err(e) = out.tuples.check() {
            panic!("CHAOS_SEED={seed}: extended identity violated: {e}");
        }

        // (3) Bounded buffering under arbitrary storm pressure.
        assert!(
            out.max_buffered <= OVERLOAD_ROW_CAP,
            "CHAOS_SEED={seed}: buffer grew to {} rows past the {OVERLOAD_ROW_CAP}-row cap",
            out.max_buffered,
        );

        // (4) Frontend-visible tallies never exceed agent ground truth.
        let fe_shed = out.loss.0.tuples_shed + out.loss.1.tuples_shed;
        assert!(
            fe_shed <= out.tuples.shed,
            "CHAOS_SEED={seed}: frontend saw {fe_shed} shed tuples, agents shed {}",
            out.tuples.shed,
        );
        let fe_truncated = out.loss.0.tuples_truncated + out.loss.1.tuples_truncated;
        assert!(
            fe_truncated <= out.truncated,
            "CHAOS_SEED={seed}: frontend saw {fe_truncated} truncations, agents count {}",
            out.truncated,
        );
        let fe_throttles = (out.throttles.0.len() + out.throttles.1.len()) as u64;
        assert!(
            fe_throttles <= out.trips,
            "CHAOS_SEED={seed}: {fe_throttles} throttle frames arrived for {} trips",
            out.trips,
        );
        // A throttle frame can only exist if the breaker actually tripped.
        if out.trips == 0 {
            assert!(out.throttles.0.is_empty() && out.throttles.1.is_empty());
        }

        tripped_runs += u64::from(out.trips > 0);
        shed_runs += u64::from(out.tuples.shed > 0);
        truncated_runs += u64::from(out.truncated > 0);
    }

    // (anti-vacuity) The schedules must actually overload: storms wide
    // enough to truncate, explosions wide enough to shed and trip, on
    // the clear majority of seeds — else the generator regressed.
    let n = seeds.len() as u64;
    assert!(
        tripped_runs * 2 > n,
        "only {tripped_runs}/{n} seeds tripped a breaker"
    );
    assert!(
        shed_runs * 2 > n,
        "only {shed_runs}/{n} seeds shed at a row cap"
    );
    assert!(
        truncated_runs * 2 > n,
        "only {truncated_runs}/{n} seeds hit the PackMode::All hard cap"
    );
}

#[test]
fn overload_replay_is_deterministic() {
    // (5) Byte-for-byte replay, including the trip/re-arm sequence and
    // every loss tally, across a handful of schedules.
    for &seed in seed_list().iter().take(6) {
        let a = run_kv_overload(seed, FaultConfig::overload_for_seed(seed), REQUESTS);
        let b = run_kv_overload(seed, FaultConfig::overload_for_seed(seed), REQUESTS);
        assert_eq!(a, b, "CHAOS_SEED={seed}: replay diverged");
    }
}
