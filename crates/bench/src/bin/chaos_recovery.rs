//! Crash-recovery latency on the live runtime, written to
//! `BENCH_chaos.json`.
//!
//! Two recovery paths, both measured wall-clock from fault injection to
//! the agent being fully re-synced (status `Connected` *and* install
//! epoch caught up, i.e. the whole query set re-installed):
//!
//! | scenario         | what one trial is                                  |
//! |------------------|----------------------------------------------------|
//! | `sever_reconnect`| server cuts every socket (no `Goodbye`); the same agent reconnects with backoff and re-syncs |
//! | `abort_restart`  | agent process "crashes" (no flush, no `Goodbye`) and a replacement connects and re-syncs |
//!
//! Plus a deterministic fault-injection summary over the scripted KV
//! workload (`pivot-chaos`), recording how much the injector destroyed
//! and that the loss accounting balanced for every seed.
//!
//! ```text
//! cargo run -p pivot-bench --bin chaos_recovery --release -- \
//!     [--trials 20] [--quick] [--enforce] [--out BENCH_chaos.json]
//! ```
//!
//! `--enforce` exits non-zero if either median recovery exceeds the 2 s
//! budget (the CI gate for "recovery is fast").

use std::time::{Duration, Instant};

use pivot_bench::{flag, flag_usize, print_table};
use pivot_chaos::sim::run_kv;
use pivot_chaos::FaultConfig;
use pivot_core::{Ledger, ProcessInfo};
use pivot_live::service::define_kv_tracepoints;
use pivot_live::{ConnStatus, LiveAgent, LiveFrontend, ReconnectPolicy};

/// CI budget for median recovery (acceptance criterion).
const RECOVERY_BUDGET_MS: f64 = 2000.0;

const QUERY: &str = "From exec In KvShard.execute \
     Join req In First(KvClient.issueRequest) On req -> exec \
     GroupBy req.client \
     Select req.client, COUNT, SUM(exec.bytes)";

fn main() {
    let trials = flag_usize("--trials", 20);
    let quick = std::env::args().any(|a| a == "--quick");
    let enforce = std::env::args().any(|a| a == "--enforce");
    let out = flag("--out").unwrap_or_else(|| "BENCH_chaos.json".to_owned());
    let trials = if quick { trials.min(5) } else { trials };
    let seeds: u64 = if quick { 8 } else { 32 };

    eprintln!("chaos recovery bench: {trials} trials per scenario (quick={quick})");

    let sever_ms = bench_sever_reconnect(trials);
    let restart_ms = bench_abort_restart(trials);
    let sim = sim_summary(seeds);

    let sever_med = median(&sever_ms);
    let restart_med = median(&restart_ms);
    let ok = sever_med <= RECOVERY_BUDGET_MS && restart_med <= RECOVERY_BUDGET_MS;

    print_table(
        "Crash recovery (wall clock, fault to fully re-synced)",
        &["scenario", "median ms", "min ms", "max ms", "trials"],
        &[
            row("sever_reconnect", &sever_ms),
            row("abort_restart", &restart_ms),
        ],
    );
    println!(
        "\nsim sweep: {seeds} seeds, {} reports dropped, {} duplicated, {} crashes, all balanced: {}",
        sim.dropped, sim.duplicated, sim.crashes, sim.balanced
    );
    println!(
        "recovery budget: median <= {RECOVERY_BUDGET_MS} ms: {}",
        if ok { "PASS" } else { "FAIL" }
    );

    let json = render_json(trials, quick, &sever_ms, &restart_ms, &sim, ok);
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");

    if enforce && (!ok || !sim.balanced) {
        eprintln!("--enforce: recovery budget exceeded or accounting imbalance");
        std::process::exit(2);
    }
}

fn row(name: &str, ms: &[f64]) -> Vec<String> {
    let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ms.iter().copied().fold(0.0, f64::max);
    vec![
        name.to_owned(),
        format!("{:.1}", median(ms)),
        format!("{min:.1}"),
        format!("{max:.1}"),
        ms.len().to_string(),
    ]
}

fn median(ms: &[f64]) -> f64 {
    let mut v = ms.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn info(procid: u64) -> ProcessInfo {
    ProcessInfo {
        host: "bench".into(),
        procid,
        procname: "kvserver".into(),
    }
}

fn wait_synced(agent: &LiveAgent, epoch: u64) {
    assert!(
        agent
            .uplink()
            .wait_for_epoch(epoch, Duration::from_secs(30)),
        "agent re-synced (status {:?})",
        agent.uplink().status()
    );
}

/// One long-lived agent; each trial severs every server-side socket and
/// times the agent's own reconnect + epoch re-sync.
fn bench_sever_reconnect(trials: usize) -> Vec<f64> {
    let mut fe = LiveFrontend::start().expect("frontend starts");
    define_kv_tracepoints(fe.frontend_mut());
    fe.install(QUERY).expect("query installs");
    let epoch = fe.bus().epoch();

    let agent = LiveAgent::connect_with(
        fe.addr(),
        info(1),
        Duration::from_millis(50),
        ReconnectPolicy::new(0xbe7c),
    )
    .expect("agent connects");
    wait_synced(&agent, epoch);

    let mut ms = Vec::with_capacity(trials);
    for trial in 0..trials {
        // The agent's epoch check is satisfied by its previous session, so
        // explicitly wait for the server side to have (re)registered the
        // peer — otherwise a sever can race the accept and cut nothing.
        assert!(
            fe.bus().wait_for_agents(1, Duration::from_secs(30)),
            "peer registered before sever"
        );
        let start = Instant::now();
        fe.bus().sever();
        let target = (trial + 1) as u64;
        while agent.uplink().reconnects() < target
            || agent.uplink().status() != ConnStatus::Connected
        {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "reconnect stalled (status {:?})",
                agent.uplink().status()
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        wait_synced(&agent, epoch);
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    agent.shutdown();
    ms
}

/// Each trial kills a connected agent the way a crashing process would
/// and times a fresh replacement (same host/procid, new incarnation)
/// connecting and re-installing the full query set.
fn bench_abort_restart(trials: usize) -> Vec<f64> {
    let mut fe = LiveFrontend::start().expect("frontend starts");
    define_kv_tracepoints(fe.frontend_mut());
    fe.install(QUERY).expect("query installs");
    let epoch = fe.bus().epoch();

    let mut ms = Vec::with_capacity(trials);
    for _ in 0..trials {
        let victim = LiveAgent::connect(fe.addr(), info(1), Duration::from_millis(50))
            .expect("victim connects");
        wait_synced(&victim, epoch);

        let start = Instant::now();
        victim.abort();
        let replacement = LiveAgent::connect(fe.addr(), info(1), Duration::from_millis(50))
            .expect("replacement connects");
        wait_synced(&replacement, epoch);
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        replacement.shutdown();
    }
    ms
}

struct SimSummary {
    seeds: u64,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
    crashes: u64,
    tuples: Ledger,
    balanced: bool,
}

/// Deterministic fault-injection sweep: aggregate injector activity over
/// `seeds` seed-derived schedules and check that each run's tuple ledger
/// balanced.
fn sim_summary(seeds: u64) -> SimSummary {
    let mut s = SimSummary {
        seeds,
        dropped: 0,
        duplicated: 0,
        delayed: 0,
        crashes: 0,
        tuples: Ledger::default(),
        balanced: true,
    };
    for seed in 0..seeds {
        let out = run_kv(seed, FaultConfig::for_seed(seed), 128);
        s.dropped += out.chaos.reports_dropped;
        s.duplicated += out.chaos.reports_duplicated;
        s.delayed += out.chaos.reports_delayed;
        s.crashes += out.crashes;
        s.tuples += out.tuples;
        s.balanced &= out.tuples.check().is_ok();
    }
    s
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    trials: usize,
    quick: bool,
    sever_ms: &[f64],
    restart_ms: &[f64],
    sim: &SimSummary,
    ok: bool,
) -> String {
    let list = |ms: &[f64]| {
        ms.iter()
            .map(|m| format!("{m:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"chaos_recovery\",\n");
    s.push_str("  \"units\": \"ms_wall_clock\",\n");
    s.push_str(&format!("  \"trials\": {trials},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"unix_nanos\": {},\n", pivot_live::now_nanos()));
    s.push_str(&format!(
        "  \"recovery_budget_ms\": {RECOVERY_BUDGET_MS},\n  \"budget_ok\": {ok},\n"
    ));
    s.push_str("  \"scenarios\": [\n");
    s.push_str(&format!(
        "    {{\"name\": \"sever_reconnect\", \"median_ms\": {:.3}, \"trials_ms\": [{}]}},\n",
        median(sever_ms),
        list(sever_ms)
    ));
    s.push_str(&format!(
        "    {{\"name\": \"abort_restart\", \"median_ms\": {:.3}, \"trials_ms\": [{}]}}\n",
        median(restart_ms),
        list(restart_ms)
    ));
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"sim_sweep\": {{\"seeds\": {}, \"reports_dropped\": {}, \"reports_duplicated\": {}, \
         \"reports_delayed\": {}, \"crashes\": {}, \"tuples_emitted\": {}, \
         \"tuples_delivered\": {}, \"all_balanced\": {}}}\n",
        sim.seeds,
        sim.dropped,
        sim.duplicated,
        sim.delayed,
        sim.crashes,
        sim.tuples.emitted,
        sim.tuples.delivered,
        sim.balanced
    ));
    s.push_str("}\n");
    s
}
