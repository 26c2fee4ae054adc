//! A deterministic, scripted KV-store workload for chaos testing.
//!
//! [`run_kv`] drives the repo's canonical two-process KV scenario — a
//! client packs a request tuple into baggage, a shard executes it and
//! emits — over a [`crate::ChaosBus`]-wrapped `LocalBus`, on a virtual
//! step clock (no wall time anywhere). The shard agent can crash at flush
//! boundaries per the plan's crash schedule; the harness restarts it and
//! re-syncs the installed-query set through [`pivot_core::Agent::sync`],
//! exactly mirroring the live runtime's epoch re-sync after reconnect.
//!
//! Every run returns an outcome whose ground-truth `tuples` [`Ledger`]
//! must pass [`Ledger::check`]: each emitted tuple was delivered to the
//! frontend, dropped on the report path (tallied by the injector), died
//! unflushed in a crash (tallied by the harness), or was shed by a
//! row-capped buffer.
//!
//! [`run_kv_overload`] extends the scenario with the overload fault
//! family — tracepoint storms and group-key explosions from
//! [`FaultConfig::overload_for_seed`] — under tight explicit
//! [`QueryBudget`]s and small row caps, so the `shed` term is real.
//! [`run_kv_retro`] turns hindsight recording on and books the rings'
//! raw events in a second, `events` ledger.

use std::sync::Arc;

use pivot_baggage::{Baggage, QueryId};
use pivot_core::{
    set_trace, Agent, Bus, Frontend, Ledger, LocalBus, LossStats, ProcessInfo, QueryBudget,
    ResultRow, RetroLossStats, Throttled, TriggerKind,
};
use pivot_model::Value;

use crate::bus::{source_key, ChaosBus, ChaosStats};
use crate::plan::{FaultConfig, FaultPlan};

/// The workload query: per-request execution counts and bytes, joined
/// across the client → shard causal edge (a Q2-shaped query from the
/// paper, grouped by a per-request key so differential runs can be joined
/// on surviving request ids).
pub const KV_QUERY: &str = "From exec In KvShard.execute \
     Join req In First(KvClient.issueRequest) On req -> exec \
     GroupBy req.key \
     Select req.key, COUNT, SUM(exec.bytes)";

/// Virtual nanoseconds between requests.
pub const STEP_NS: u64 = 1_000_000;

/// Requests per flush interval (a flush boundary is also a crash
/// opportunity).
pub const FLUSH_EVERY: u64 = 16;

/// Everything observable about one harness run. Two runs of the same
/// `(seed, config, requests)` must compare equal — the determinism
/// regression test relies on `PartialEq` here.
#[derive(Clone, PartialEq, Debug)]
pub struct RunOutcome {
    /// Final cumulative result rows (sorted by key).
    pub rows: Vec<ResultRow>,
    /// The frontend's per-query loss accounting.
    pub loss: LossStats,
    /// The injector's tallies.
    pub chaos: ChaosStats,
    /// Ground-truth tuple books, summed over every shard/client agent
    /// incarnation.
    pub tuples: Ledger,
    /// Agent crash/restart cycles the schedule triggered.
    pub crashes: u64,
}

fn shard_info() -> ProcessInfo {
    ProcessInfo {
        host: "kv-server".into(),
        procid: 2,
        procname: "KvShard".into(),
    }
}

/// The fault-schedule source keys of the harness's two processes
/// `(client, shard)` — exposed so tests can fingerprint plans over the
/// exact sources the workload uses.
pub fn kv_sources() -> (u64, u64) {
    (source_key("kv-client", 1), source_key("kv-server", 2))
}

/// Runs `requests` KV operations under the fault schedule `(seed, cfg)`
/// and returns the converged outcome. Deterministic: no wall clock, no
/// stateful RNG, no thread interleaving.
pub fn run_kv(seed: u64, cfg: FaultConfig, requests: u64) -> RunOutcome {
    run_kv_burst(seed, cfg, requests, 1, false)
}

/// Like [`run_kv`], but each request's shard-side work is a burst of
/// `burst` execute events sharing that request's baggage — handed to the
/// agent through [`Agent::invoke_batch`] when `batched` is true, or the
/// equivalent per-event `invoke` loop when false. The loss identity and
/// the converged outcome must be identical either way (pinned by
/// `tests/batch_loss.rs`): batching changes how advice executes and
/// flushes, never what is emitted, delivered, dropped, or lost.
pub fn run_kv_burst(
    seed: u64,
    cfg: FaultConfig,
    requests: u64,
    burst: u64,
    batched: bool,
) -> RunOutcome {
    let plan = FaultPlan::new(seed, cfg);
    let mut fe = Frontend::new();
    fe.define("KvClient.issueRequest", ["client", "op", "key"]);
    fe.define("KvShard.execute", ["shard", "op", "bytes"]);
    let handle = fe.install(KV_QUERY).expect("chaos harness query compiles");
    let qid = handle.id;

    let client = Arc::new(Agent::new(ProcessInfo {
        host: "kv-client".into(),
        procid: 1,
        procname: "KvClient".into(),
    }));
    let mut shard = Arc::new(Agent::new(shard_info()));
    let (_, shard_src) = kv_sources();

    let mut bus = LocalBus::new();
    bus.register(Arc::clone(&client));
    bus.register(Arc::clone(&shard));
    let mut chaos = ChaosBus::new(bus, plan);
    for cmd in fe.drain_commands() {
        Bus::broadcast(&chaos, &cmd);
    }

    let mut tuples = Ledger::default();
    let mut crashes = 0u64;

    for i in 0..requests {
        let now = (i + 1) * STEP_NS;
        let key = format!("req-{i:05}");
        let mut bag = Baggage::new();
        client.invoke(
            "KvClient.issueRequest",
            &mut bag,
            now,
            &[
                ("client", Value::str("client-0")),
                ("op", Value::str("put")),
                ("key", Value::str(&key)),
            ],
        );
        // "RPC" to the shard: baggage crosses the process boundary by
        // serialization, as it would on a real wire.
        let bytes = bag.to_bytes();
        let mut remote = Baggage::from_bytes(&bytes);
        let events: Vec<[(&str, Value); 3]> = (0..burst)
            .map(|j| {
                let k = i * burst + j;
                [
                    ("shard", Value::U64(k % 4)),
                    ("op", Value::str("put")),
                    ("bytes", Value::I64((k % 97) as i64 + 1)),
                ]
            })
            .collect();
        if batched {
            let ev: Vec<(u64, &[(&str, Value)])> =
                events.iter().map(|e| (now, e.as_slice())).collect();
            shard.invoke_batch("KvShard.execute", &mut remote, &ev);
        } else {
            for e in &events {
                shard.invoke("KvShard.execute", &mut remote, now, e);
            }
        }

        if (i + 1) % FLUSH_EVERY == 0 {
            let step = (i + 1) / FLUSH_EVERY;
            if chaos.plan().should_crash(shard_src, step) {
                // The shard process dies mid-interval: its cumulative
                // emission counter is the last word of this incarnation,
                // and whatever it had not flushed is lost for good.
                crashes += 1;
                tuples.add_agent(&shard, &[qid]);
                tuples.add_crash_flush(&shard, now);
                chaos.inner_mut().unregister(&shard);
                // Restart: fresh incarnation, same process identity. The
                // replacement re-syncs the full installed-query set from
                // the frontend (the epoch re-sync path).
                let fresh = Arc::new(Agent::new(shard_info()));
                fresh.sync(&fe.installed());
                chaos.inner_mut().register(Arc::clone(&fresh));
                shard = fresh;
            }
            chaos.pump_into(now, &mut fe);
        }
    }

    // Convergence: stop injecting, release held frames, final flush.
    chaos.settle_into((requests + 2) * STEP_NS, &mut fe);
    tuples.add_agent(&shard, &[qid]);
    tuples.add_agent(&client, &[qid]);

    let res = fe.results(&handle);
    let (loss, stats) = (res.loss(), chaos.stats());
    tuples.delivered = loss.tuples_delivered;
    tuples.dropped = stats.tuples_dropped;
    RunOutcome {
        rows: res.rows(),
        loss,
        chaos: stats,
        tuples,
        crashes,
    }
}

/// Streaming companion query for the overload harness: an unaggregated
/// all-packs join, so tracepoint storms exercise the `PackMode::All` hard
/// cap on the baggage side and the streaming row cap on the buffer side.
pub const KV_STREAM_QUERY: &str = "From exec In KvShard.execute \
     Join req In KvClient.issueRequest On req -> exec \
     Select req.key, exec.bytes";

/// Row cap installed on the overload harness's agents — small enough
/// that group-key explosions and storm floods hit it within one flush
/// interval.
pub const OVERLOAD_ROW_CAP: usize = 64;

/// Everything observable about one overload-harness run. Derives
/// `PartialEq` so determinism tests can compare two replays of the same
/// `(seed, config, requests)` structurally, trip sequence included.
#[derive(Clone, PartialEq, Debug)]
pub struct OverloadOutcome {
    /// Final grouped-query result rows (sorted by key).
    pub grouped_rows: Vec<ResultRow>,
    /// Per-query loss accounting: `(grouped, streaming)`.
    pub loss: (LossStats, LossStats),
    /// Throttle notifications that reached the frontend: `(grouped,
    /// streaming)`. Ground-truth trips are in [`OverloadOutcome::trips`];
    /// these are only the ones whose report frames survived the chaos.
    pub throttles: (Vec<Throttled>, Vec<Throttled>),
    /// The injector's tallies.
    pub chaos: ChaosStats,
    /// Ground-truth tuple books over both queries and every agent
    /// incarnation; `shed` is what the governor's row caps shed.
    pub tuples: Ledger,
    /// Packed tuples dropped by the `PackMode::All` hard cap.
    pub truncated: u64,
    /// Circuit-breaker trips, ground truth summed over agents, queries,
    /// and incarnations.
    pub trips: u64,
    /// Agent crash/restart cycles the schedule triggered.
    pub crashes: u64,
    /// Largest per-query row buffer observed on the shard at any step —
    /// bounded-buffering means this never exceeds [`OVERLOAD_ROW_CAP`].
    pub max_buffered: usize,
}

/// Runs `requests` steps of the overload workload — tracepoint storms,
/// group-key explosions, tight explicit budgets, small row caps — under
/// the fault schedule `(seed, cfg)` and returns the converged outcome.
/// Pair with [`FaultConfig::overload_for_seed`] for a schedule that
/// actually storms; with [`FaultConfig::off`] the run is a plain (if
/// tightly budgeted) KV workload.
pub fn run_kv_overload(seed: u64, cfg: FaultConfig, requests: u64) -> OverloadOutcome {
    let plan = FaultPlan::new(seed, cfg);
    let mut fe = Frontend::new();
    fe.define("KvClient.issueRequest", ["client", "op", "key"]);
    fe.define("KvShard.execute", ["shard", "op", "bytes"]);
    let grouped = fe
        .install(KV_QUERY)
        .expect("overload grouped query compiles");
    let stream = fe
        .install(KV_STREAM_QUERY)
        .expect("overload stream query compiles");
    // Tight explicit budgets, windowed at a quarter of the flush
    // interval so trip → backoff → re-arm cycles complete within a run:
    // the grouped query trips on tuple floods (group-key explosions),
    // the streaming one on storm bursts. Ops/bytes rails are set high —
    // they are exercised by unit tests; here tuples are the story.
    fe.set_budget(
        &grouped,
        QueryBudget {
            tuples_per_window: 24,
            ops_per_window: 1_000_000,
            bytes_per_window: 1_000_000,
            window_ns: 4 * STEP_NS,
            backoff_base_windows: 1,
            max_backoff_doublings: 3,
        },
    );
    fe.set_budget(
        &stream,
        QueryBudget {
            tuples_per_window: 400,
            ops_per_window: 4_000_000,
            bytes_per_window: 4_000_000,
            window_ns: 4 * STEP_NS,
            backoff_base_windows: 1,
            max_backoff_doublings: 3,
        },
    );
    let queries: [QueryId; 2] = [grouped.id, stream.id];

    let client = Arc::new(Agent::new(ProcessInfo {
        host: "kv-client".into(),
        procid: 1,
        procname: "KvClient".into(),
    }));
    client.set_row_cap(OVERLOAD_ROW_CAP);
    let mut shard = Arc::new(Agent::new(shard_info()));
    shard.set_row_cap(OVERLOAD_ROW_CAP);
    let (_, shard_src) = kv_sources();

    let mut bus = LocalBus::new();
    bus.register(Arc::clone(&client));
    bus.register(Arc::clone(&shard));
    let mut chaos = ChaosBus::new(bus, plan);
    for cmd in fe.drain_commands() {
        Bus::broadcast(&chaos, &cmd);
    }

    let mut tuples = Ledger::default();
    let mut truncated = 0u64;
    let mut trips = 0u64;
    let mut crashes = 0u64;
    let mut max_buffered = 0usize;

    for i in 0..requests {
        let now = (i + 1) * STEP_NS;
        let burst = chaos.plan().storm_burst(shard_src, i);
        if chaos.plan().explodes(shard_src, i) {
            // Group-key explosion: a flood of one-shot requests with
            // distinct keys. The floor keeps every explosion wider than
            // [`OVERLOAD_ROW_CAP`], so each one both trips the grouped
            // budget and forces the grouped buffer to refuse new groups.
            let width = u64::from(burst.max(80));
            for j in 0..width {
                let key = format!("xk-{i:05}-{j:03}");
                let mut bag = Baggage::new();
                client.invoke(
                    "KvClient.issueRequest",
                    &mut bag,
                    now,
                    &[
                        ("client", Value::str("client-0")),
                        ("op", Value::str("put")),
                        ("key", Value::str(&key)),
                    ],
                );
                let bytes = bag.to_bytes();
                let mut remote = Baggage::from_bytes(&bytes);
                shard.invoke(
                    "KvShard.execute",
                    &mut remote,
                    now,
                    &[
                        ("shard", Value::U64(j % 4)),
                        ("op", Value::str("put")),
                        ("bytes", Value::I64((j % 97) as i64 + 1)),
                    ],
                );
            }
        } else {
            // Ordinary request — or a tracepoint storm when `burst > 1`:
            // the client tracepoint fires `burst` times on one request,
            // every firing packing into the same baggage, so the
            // `PackMode::All` hard cap engages past its limit.
            let key = format!("req-{i:05}");
            let mut bag = Baggage::new();
            for _ in 0..burst {
                client.invoke(
                    "KvClient.issueRequest",
                    &mut bag,
                    now,
                    &[
                        ("client", Value::str("client-0")),
                        ("op", Value::str("put")),
                        ("key", Value::str(&key)),
                    ],
                );
            }
            let bytes = bag.to_bytes();
            let mut remote = Baggage::from_bytes(&bytes);
            shard.invoke(
                "KvShard.execute",
                &mut remote,
                now,
                &[
                    ("shard", Value::U64(i % 4)),
                    ("op", Value::str("put")),
                    ("bytes", Value::I64((i % 97) as i64 + 1)),
                ],
            );
        }
        for q in queries {
            max_buffered = max_buffered.max(shard.buffered_rows(q));
        }

        if (i + 1) % FLUSH_EVERY == 0 {
            let step = (i + 1) / FLUSH_EVERY;
            if chaos.plan().should_crash(shard_src, step) {
                // The dying incarnation's governor tallies are its last
                // word — fold them into the ground truth before the
                // restart resets every counter.
                crashes += 1;
                tuples.add_agent(&shard, &queries);
                for q in queries {
                    truncated += shard.truncated_for(q);
                    trips += u64::from(shard.trips_for(q));
                }
                tuples.add_crash_flush(&shard, now);
                chaos.inner_mut().unregister(&shard);
                // Restart: the replacement re-syncs the query set *and*
                // the budget set, mirroring the live epoch re-sync.
                let fresh = Arc::new(Agent::new(shard_info()));
                fresh.set_row_cap(OVERLOAD_ROW_CAP);
                fresh.sync(&fe.installed());
                fresh.sync_budgets(&fe.budgets());
                chaos.inner_mut().register(Arc::clone(&fresh));
                shard = fresh;
            }
            chaos.pump_into(now, &mut fe);
        }
    }

    chaos.settle_into((requests + 2) * STEP_NS, &mut fe);
    tuples.add_agent(&shard, &queries);
    tuples.add_agent(&client, &queries);
    for q in queries {
        truncated += shard.truncated_for(q) + client.truncated_for(q);
        trips += u64::from(shard.trips_for(q)) + u64::from(client.trips_for(q));
    }

    let gres = fe.results(&grouped);
    let sres = fe.results(&stream);
    let (loss, stats) = ((gres.loss(), sres.loss()), chaos.stats());
    tuples.delivered = loss.0.tuples_delivered + loss.1.tuples_delivered;
    tuples.dropped = stats.tuples_dropped;
    OverloadOutcome {
        grouped_rows: gres.rows(),
        loss,
        throttles: (gres.throttles(), sres.throttles()),
        chaos: stats,
        tuples,
        truncated,
        trips,
        crashes,
        max_buffered,
    }
}

/// Hindsight companion query for the retro harness: large writes fire an
/// explicit `Trigger` advice op, draining the triggering request's
/// buffered raw events into a [`pivot_core::RetroReport`] routed to this
/// query's results.
pub const KV_TRIGGER_QUERY: &str = "From exec In KvShard.execute \
     Where exec.bytes > 90 \
     Trigger \
     Select exec.shard, exec.bytes";

/// Ring capacity installed on the retro harness's agents — small enough
/// that steady recording wraps the ring within a couple of flush
/// intervals, so `sampled_out` is exercised on every run.
pub const RETRO_RING_CAP: usize = 32;

/// Latency-outlier threshold for the retro harness (virtual ns). The
/// scripted workload exports `latency_ns` above it on a fixed cadence,
/// so every run also exercises the uncorrelated-orphan trigger path.
pub const RETRO_LATENCY_THRESHOLD: u64 = 1_000_000;

/// Everything observable about one retro-harness run. Derives `PartialEq`
/// so determinism tests can compare two replays of the same
/// `(seed, config, requests)` structurally, hindsight ledger included.
#[derive(Clone, PartialEq, Debug)]
pub struct RetroOutcome {
    /// Final grouped-query result rows (sorted by key).
    pub rows: Vec<ResultRow>,
    /// Per-query tuple loss accounting: `(grouped, trigger)`.
    pub loss: (LossStats, LossStats),
    /// The frontend's retro-flush loss accounting.
    pub retro: RetroLossStats,
    /// The injector's tallies (retro frames included).
    pub chaos: ChaosStats,
    /// Ground-truth tuple books over both queries and every agent
    /// incarnation.
    pub tuples: Ledger,
    /// Ground-truth books of the raw events recorded into retro rings,
    /// over every agent incarnation (`emitted` counts recorded events;
    /// `crash_lost` the ring-resident or flushed-but-undrained events
    /// that died with a crashing incarnation).
    pub events: Ledger,
    /// Agent crash/restart cycles the schedule triggered.
    pub crashes: u64,
    /// Retro reports that reached the trigger query's results.
    pub advice_reports: usize,
    /// Retro reports from non-query triggers (latency outliers, fault
    /// sites) that landed in the frontend's orphan pool.
    pub orphan_reports: usize,
    /// Largest ring occupancy observed on any agent at any step —
    /// bounded recording means this never exceeds [`RETRO_RING_CAP`].
    pub max_ring: usize,
}

/// Runs `requests` KV operations with hindsight recording on — a
/// `Trigger`-bearing query woven on the shard, a latency-outlier
/// threshold armed, and a fault-site trigger fired at every scheduled
/// crash — under the fault schedule `(seed, cfg)`, and returns the
/// converged outcome. Deterministic, like [`run_kv`].
///
/// The crash choreography is deliberately adversarial to the retro path:
/// the harness fires the fault trigger first and *then* kills the shard,
/// so the flushed report dies in the pending queue and its events must
/// come back out of the `events` ledger's `crash_lost`, not vanish.
pub fn run_kv_retro(seed: u64, cfg: FaultConfig, requests: u64) -> RetroOutcome {
    let plan = FaultPlan::new(seed, cfg);
    let mut fe = Frontend::new();
    fe.define("KvClient.issueRequest", ["client", "op", "key"]);
    fe.define("KvShard.execute", ["shard", "op", "bytes"]);
    let grouped = fe.install(KV_QUERY).expect("retro harness query compiles");
    let trigger = fe
        .install(KV_TRIGGER_QUERY)
        .expect("retro trigger query compiles");
    let queries: [QueryId; 2] = [grouped.id, trigger.id];

    let client = Arc::new(Agent::new(ProcessInfo {
        host: "kv-client".into(),
        procid: 1,
        procname: "KvClient".into(),
    }));
    let mut shard = Arc::new(Agent::new(shard_info()));
    let (_, shard_src) = kv_sources();

    let mut bus = LocalBus::new();
    bus.register(Arc::clone(&client));
    bus.register(Arc::clone(&shard));
    let mut chaos = ChaosBus::new(bus, plan);
    for cmd in fe.drain_commands() {
        Bus::broadcast(&chaos, &cmd);
    }
    // Installing KV_TRIGGER_QUERY switched retro on; tighten the rings so
    // wraparound (`sampled_out`) happens within a run.
    for a in [&client, &shard] {
        a.set_retro_cap(RETRO_RING_CAP);
        a.set_retro_latency_threshold(RETRO_LATENCY_THRESHOLD);
    }

    let mut tuples = Ledger::default();
    let mut events = Ledger::default();
    let mut crashes = 0u64;
    let mut max_ring = 0usize;

    for i in 0..requests {
        let now = (i + 1) * STEP_NS;
        let key = format!("req-{i:05}");
        let mut bag = Baggage::new();
        // Request ingress: stamp the trace id the rings correlate on.
        set_trace(&mut bag, i + 1);
        client.invoke(
            "KvClient.issueRequest",
            &mut bag,
            now,
            &[
                ("client", Value::str("client-0")),
                ("op", Value::str("put")),
                ("key", Value::str(&key)),
            ],
        );
        let bytes = bag.to_bytes();
        let mut remote = Baggage::from_bytes(&bytes);
        // A fixed cadence of latency spikes drives the outlier trigger;
        // bytes > 90 (seven residues mod 97) drives the advice trigger.
        let latency = if i % 29 == 11 {
            4 * RETRO_LATENCY_THRESHOLD
        } else {
            RETRO_LATENCY_THRESHOLD / 100
        };
        shard.invoke(
            "KvShard.execute",
            &mut remote,
            now,
            &[
                ("shard", Value::U64(i % 4)),
                ("op", Value::str("put")),
                ("bytes", Value::I64((i % 97) as i64 + 1)),
                ("latency_ns", Value::U64(latency)),
            ],
        );
        max_ring = max_ring
            .max(shard.retro_buffered())
            .max(client.retro_buffered());

        if (i + 1) % FLUSH_EVERY == 0 {
            let step = (i + 1) / FLUSH_EVERY;
            if chaos.plan().should_crash(shard_src, step) {
                crashes += 1;
                // The fault site asks for hindsight, then the process dies
                // before the report drains: those events are crash loss.
                shard.trigger_retro(TriggerKind::Fault, 0, now);
                tuples.add_agent(&shard, &queries);
                tuples.add_crash_flush(&shard, now);
                events.add_ring(shard.retro_counters());
                events.crash_lost += shard.retro_unflushed();
                chaos.inner_mut().unregister(&shard);
                let fresh = Arc::new(Agent::new(shard_info()));
                // The epoch re-sync re-arms retro (the trigger query is
                // still installed); ring tuning is harness config and is
                // re-applied the way a supervisor would.
                fresh.sync(&fe.installed());
                fresh.set_retro_cap(RETRO_RING_CAP);
                fresh.set_retro_latency_threshold(RETRO_LATENCY_THRESHOLD);
                chaos.inner_mut().register(Arc::clone(&fresh));
                shard = fresh;
            }
            chaos.pump_into(now, &mut fe);
        }
    }

    chaos.settle_into((requests + 2) * STEP_NS, &mut fe);
    tuples.add_agent(&shard, &queries);
    tuples.add_agent(&client, &queries);
    // Graceful end-of-life for the surviving incarnations: everything
    // deliverable has drained through `settle_into`; sealing accounts the
    // leftovers (unclaimed ring events become `sampled_out`).
    for a in [&shard, &client] {
        events.add_ring(a.retro_seal());
    }

    let gres = fe.results(&grouped);
    let tres = fe.results(&trigger);
    let (loss, retro, stats) = ((gres.loss(), tres.loss()), fe.retro_loss(), chaos.stats());
    tuples.delivered = loss.0.tuples_delivered + loss.1.tuples_delivered;
    tuples.dropped = stats.tuples_dropped;
    events.delivered = retro.events_delivered;
    events.dropped = stats.retro_events_dropped;
    RetroOutcome {
        rows: gres.rows(),
        loss,
        retro,
        chaos: stats,
        tuples,
        events,
        crashes,
        advice_reports: tres.retro().len(),
        orphan_reports: fe.retro_orphans().len(),
        max_ring,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_is_exact() {
        let out = run_kv(0, FaultConfig::off(), 128);
        assert_eq!(out.rows.len(), 128);
        assert_eq!(out.tuples.emitted, 128);
        assert_eq!(out.loss.tuples_delivered, 128);
        assert_eq!(out.loss.tuples_dropped, 0);
        assert_eq!(out.loss.reports_missed, 0);
        assert_eq!(out.crashes, 0);
        assert_eq!(out.tuples.check(), Ok(()));
        // COUNT == 1 and SUM(bytes) == the scripted value for each request.
        for (i, row) in out.rows.iter().enumerate() {
            assert_eq!(row.values[0], Value::str(format!("req-{i:05}")));
            assert_eq!(row.values[1], Value::U64(1));
            assert_eq!(row.values[2], Value::I64((i as i64 % 97) + 1));
        }
    }

    #[test]
    fn overload_off_run_is_exact_and_bounded() {
        let out = run_kv_overload(0, FaultConfig::off(), 128);
        assert_eq!(out.tuples.check(), Ok(()), "{out:?}");
        // No storms, no explosions, no crashes: one request per step
        // never reaches a budget rail or a row cap, so the governor is
        // pure observation and the run is exact.
        assert_eq!(out.crashes, 0);
        assert_eq!(out.tuples.crash_lost, 0);
        assert_eq!(out.chaos.tuples_dropped, 0);
        assert_eq!(out.trips, 0);
        assert_eq!(out.truncated, 0);
        assert_eq!(out.tuples.shed, 0);
        // One grouped + one streaming tuple per request.
        assert_eq!(out.tuples.emitted, 256);
        assert_eq!(out.grouped_rows.len(), 128);
        // Buffers drain every flush, so at most one interval's rows are
        // ever resident — far below the cap without a storm.
        assert_eq!(out.max_buffered, FLUSH_EVERY as usize);
        assert_eq!(out.loss.0.tuples_shed, 0);
        assert_eq!(out.loss.0.tuples_delivered, 128);
        assert_eq!(out.loss.1.tuples_shed, 0);
        assert_eq!(out.loss.1.tuples_delivered, 128);
        assert!(out.throttles.0.is_empty() && out.throttles.1.is_empty());
    }

    #[test]
    fn retro_fault_free_run_is_exact() {
        let out = run_kv_retro(0, FaultConfig::off(), 256);
        assert_eq!(out.tuples.check(), Ok(()), "{out:?}");
        assert_eq!(out.events.check(), Ok(()), "{out:?}");
        assert_eq!(out.crashes, 0);
        assert_eq!(out.events.crash_lost, 0);
        assert_eq!(out.chaos.retro_events_dropped, 0);
        // Two agents, one recorded raw event each per request.
        assert_eq!(out.events.emitted, 2 * 256);
        // Both trigger families fired and their reports arrived: advice
        // triggers route to the trigger query, latency outliers are
        // query-unscoped and land in the orphan pool.
        assert!(out.advice_reports > 0, "{out:?}");
        assert!(out.orphan_reports > 0, "{out:?}");
        assert!(out.retro.events_delivered > 0);
        assert_eq!(out.retro.reports_duplicate, 0);
        // Bounded recording: the ring never outgrew its cap, and the
        // overwritten remainder is accounted as sampled_out, not lost.
        assert!(out.max_ring <= RETRO_RING_CAP, "{out:?}");
        assert!(out.events.sampled_out > 0);
    }

    #[test]
    fn retro_chaotic_run_balances() {
        let out = run_kv_retro(7, FaultConfig::for_seed(7), 256);
        assert_eq!(out.tuples.check(), Ok(()), "{out:?}");
        assert_eq!(out.events.check(), Ok(()), "{out:?}");
        assert!(out.max_ring <= RETRO_RING_CAP);
    }

    #[test]
    fn chaotic_run_balances_and_is_a_subset() {
        let baseline = run_kv(11, FaultConfig::off(), 256);
        let out = run_kv(11, FaultConfig::for_seed(11), 256);
        assert_eq!(out.tuples.check(), Ok(()), "{out:?}");
        for row in &out.rows {
            assert!(
                baseline.rows.contains(row),
                "row {row:?} not in fault-free baseline"
            );
        }
    }
}
