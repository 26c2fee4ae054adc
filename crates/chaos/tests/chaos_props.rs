//! Seeded chaos property sweep.
//!
//! Runs the scripted KV workload under a few hundred seed-derived fault
//! mixes and checks the invariants that make monitoring-under-faults
//! *honest* rather than silently wrong:
//!
//! 1. No panic, ever, under any schedule.
//! 2. Differential correctness: every row that survives the faults equals
//!    the fault-free baseline row for the same request id (faults may lose
//!    results, never corrupt them).
//! 3. The tuple ledger balances exactly (`Ledger::check`): every emitted
//!    tuple was delivered, dropped by the injector, or lost in a crash.
//! 4. Duplicate suppression and gap detection agree with what the
//!    injector actually did.
//!
//! Reproduce any failure with `CHAOS_SEED=<n> cargo test -p pivot-chaos`;
//! CI derives fresh seeds from the commit SHA via `CHAOS_SEED_BASE` /
//! `CHAOS_SEEDS`.

use pivot_chaos::sim::run_kv;
use pivot_chaos::FaultConfig;

const REQUESTS: u64 = 256;

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
fn chaos_sweep_holds_all_invariants() {
    let baseline = run_kv(0, FaultConfig::off(), REQUESTS);
    assert_eq!(baseline.rows.len(), REQUESTS as usize);
    assert_eq!(baseline.tuples.check(), Ok(()));

    let seeds = seed_list();
    let mut faulty_runs = 0u64;
    for &seed in &seeds {
        let out = run_kv(seed, FaultConfig::for_seed(seed), REQUESTS);

        // (3) Exact tuple conservation.
        if let Err(e) = out.tuples.check() {
            panic!("CHAOS_SEED={seed}: accounting identity violated: {e}");
        }

        // (2) Surviving rows match the fault-free run, joined on request id.
        for row in &out.rows {
            let matching = baseline.rows.iter().find(|b| b.values[0] == row.values[0]);
            assert_eq!(
                matching,
                Some(row),
                "CHAOS_SEED={seed}: surviving row diverges from the fault-free baseline"
            );
        }

        // (4a) Every injected duplicate — and nothing else — is suppressed.
        assert_eq!(
            out.loss.reports_duplicate, out.chaos.reports_duplicated,
            "CHAOS_SEED={seed}: duplicate suppression disagrees with the injector"
        );
        // (4b) A sequence gap can only come from a frame the injector
        // destroyed (delays are all released before the run converges).
        assert!(
            out.loss.reports_missed <= out.chaos.reports_dropped,
            "CHAOS_SEED={seed}: {} reports missed but only {} dropped",
            out.loss.reports_missed,
            out.chaos.reports_dropped,
        );
        // (4c) Degradation flags fire iff something was actually lost.
        if out.chaos.reports_dropped == 0 && out.crashes == 0 {
            assert_eq!(
                out.loss.tuples_delivered, out.tuples.emitted,
                "CHAOS_SEED={seed}: lossless schedule lost tuples"
            );
        }
        if out.loss.is_degraded() {
            assert!(
                out.chaos.reports_dropped > 0 || out.crashes > 0,
                "CHAOS_SEED={seed}: degraded without any destructive fault"
            );
        }

        if out.chaos.reports_dropped + out.chaos.reports_delayed + out.crashes > 0 {
            faulty_runs += 1;
        }
    }
    // The sweep must actually exercise faults, not vacuously pass.
    assert!(
        faulty_runs * 2 > seeds.len() as u64,
        "only {faulty_runs}/{} seeds injected faults — schedule generator is broken",
        seeds.len()
    );
}

#[test]
fn heavy_loss_still_balances() {
    // A deliberately brutal mix: 40% drops, 20% dups, long delays, crashes.
    let cfg = FaultConfig {
        drop_per_mille: 400,
        dup_per_mille: 200,
        delay_per_mille: 200,
        delay_ns: 80_000_000,
        crash_per_mille: 150,
        ..FaultConfig::for_seed(99)
    };
    let mut detected = 0;
    for seed in 0..32u64 {
        let out = run_kv(seed, cfg, REQUESTS);
        assert_eq!(out.tuples.check(), Ok(()), "CHAOS_SEED={seed}: {out:?}");
        detected += u64::from(out.loss.is_degraded());
    }
    // The frontend's loss view is a lower bound: an incarnation whose
    // *trailing* reports are all dropped leaves no observable gap. Under
    // 40% drops that stays rare — detection must be the overwhelming norm.
    assert!(
        detected >= 24,
        "only {detected}/32 heavy-loss runs detected"
    );
}
