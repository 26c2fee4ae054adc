//! Wall-clock Table-5 analog on the live runtime: per-operation cost of
//! the Pivot Tracing machinery on real OS threads, written to
//! `BENCH_live.json`.
//!
//! Unlike `table5` (virtual time inside the simulator), every number here
//! is measured with `Instant` on concurrently running threads, each with
//! its own thread-local baggage:
//!
//! | scenario    | what one "op" is                                        |
//! |-------------|---------------------------------------------------------|
//! | `unwoven`   | tracepoint call with **no query woven** (one atomic load)|
//! | `disabled`  | tracepoint call, query woven but the agent switched off  |
//! | `woven_agg` | tracepoint running Observe→Emit advice into a local agg  |
//! | `woven_join`| a Q1-style request: pack at the client tracepoint, unpack + emit at the shard tracepoint, fresh baggage scope |
//! | `pack`      | one `Baggage::pack` (FIRST mode, bounded)                |
//! | `serialize` | one pack + full wire encode (`Baggage::to_bytes`)        |
//!
//! ```text
//! cargo run -p pivot-bench --bin live_overhead --release -- \
//!     [--threads 4] [--quick] [--enforce] [--out BENCH_live.json]
//! ```
//!
//! `--enforce` exits non-zero if the unwoven or the disabled cost exceeds
//! the 50 ns/op budget (the CI gate for "inactive tracepoints are free").

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pivot_baggage::{Baggage, PackMode, QueryId};
use pivot_bench::{flag, flag_usize, print_table, run_threads};
use pivot_core::{Agent, Frontend, ProcessInfo};
use pivot_live::service::define_kv_tracepoints;
use pivot_live::{ctx, tracepoint};
use pivot_model::{Tuple, Value};

/// CI budget for an inactive tracepoint — nothing woven, or the agent
/// switched off (acceptance criterion).
const UNWOVEN_BUDGET_NS: f64 = 50.0;

struct Scenario {
    name: &'static str,
    detail: &'static str,
    iters: u64,
    ns_per_op: f64,
}

fn main() {
    let threads = flag_usize("--threads", 4);
    let quick = std::env::args().any(|a| a == "--quick");
    let enforce = std::env::args().any(|a| a == "--enforce");
    let out = flag("--out").unwrap_or_else(|| "BENCH_live.json".to_owned());
    let scale = if quick { 50 } else { 1 };

    eprintln!("live overhead bench: {threads} threads per scenario (quick={quick})");

    let fast_iters = 5_000_000 / scale;
    let slow_iters = 500_000 / scale;

    let scenarios = vec![
        Scenario {
            name: "unwoven",
            detail: "tracepoint with no query woven anywhere",
            iters: fast_iters,
            ns_per_op: bench_unwoven(threads, fast_iters),
        },
        Scenario {
            name: "disabled",
            detail: "query woven but agent disabled",
            iters: fast_iters,
            ns_per_op: bench_disabled(threads, fast_iters),
        },
        Scenario {
            name: "woven_agg",
            detail: "Observe -> Emit advice into the local aggregator",
            iters: slow_iters,
            ns_per_op: bench_woven_agg(threads, slow_iters),
        },
        Scenario {
            name: "woven_join",
            detail: "Q1-style request: pack at client, unpack+emit at shard, fresh scope",
            iters: slow_iters,
            ns_per_op: bench_woven_join(threads, slow_iters),
        },
        Scenario {
            name: "pack",
            detail: "Baggage::pack, FIRST mode",
            iters: slow_iters,
            ns_per_op: bench_pack(threads, slow_iters),
        },
        Scenario {
            name: "serialize",
            detail: "pack + full wire encode (to_bytes)",
            iters: slow_iters,
            ns_per_op: bench_serialize(threads, slow_iters),
        },
    ];

    let unwoven_ns = scenarios[0].ns_per_op;
    let disabled_ns = scenarios[1].ns_per_op;
    let unwoven_ok = unwoven_ns <= UNWOVEN_BUDGET_NS;
    let disabled_ok = disabled_ns <= UNWOVEN_BUDGET_NS;

    print_table(
        "Live overhead (wall clock, per op, mean across threads)",
        &["scenario", "ns/op", "iters/thread", "what one op is"],
        &scenarios
            .iter()
            .map(|s| {
                vec![
                    s.name.to_owned(),
                    format!("{:.1}", s.ns_per_op),
                    s.iters.to_string(),
                    s.detail.to_owned(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\ninactive budget: unwoven {unwoven_ns:.1}, disabled {disabled_ns:.1} ns/op <= {UNWOVEN_BUDGET_NS} ns/op: {}",
        if unwoven_ok && disabled_ok { "PASS" } else { "FAIL" }
    );

    let json = render_json(&scenarios, threads, quick, (unwoven_ok, disabled_ok));
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");

    if enforce && !(unwoven_ok && disabled_ok) {
        eprintln!("--enforce: inactive tracepoint cost exceeds budget");
        std::process::exit(2);
    }
}

fn render_json(scenarios: &[Scenario], threads: usize, quick: bool, ok: (bool, bool)) -> String {
    let (unwoven_ok, disabled_ok) = ok;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"live_overhead\",\n");
    s.push_str("  \"units\": \"ns_per_op_wall_clock\",\n");
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"unix_nanos\": {},\n", pivot_live::now_nanos()));
    s.push_str(&format!(
        "  \"unwoven_budget_ns\": {UNWOVEN_BUDGET_NS},\n  \"unwoven_ok\": {unwoven_ok},\n  \"disabled_ok\": {disabled_ok},\n"
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.3}, \"iters_per_thread\": {}, \"detail\": \"{}\"}}{}\n",
            sc.name,
            sc.ns_per_op,
            sc.iters,
            sc.detail,
            if i + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn kv_agent(name: &str) -> Arc<Agent> {
    Arc::new(Agent::new(ProcessInfo {
        host: "bench".into(),
        procid: 7,
        procname: name.into(),
    }))
}

/// Weaves `query` into a fresh agent via the real frontend pipeline
/// (verifier included) so the bench measures exactly what deployment runs.
fn woven_agent(query: &str) -> Arc<Agent> {
    let agent = kv_agent("kvserver");
    let mut fe = Frontend::new();
    define_kv_tracepoints(&mut fe);
    fe.install(query).expect("bench query installs");
    for cmd in fe.drain_commands() {
        agent.apply(&cmd);
    }
    agent
}

fn shard_exports() -> [(&'static str, Value); 4] {
    [
        ("shard", Value::U64(3)),
        ("op", Value::str("get")),
        ("bytes", Value::U64(128)),
        ("hit", Value::Bool(true)),
    ]
}

fn bench_unwoven(threads: usize, iters: u64) -> f64 {
    let agent = kv_agent("kvserver");
    let exports = shard_exports();
    run_threads(threads, iters, |n| {
        let _scope = ctx::attach(Baggage::new());
        let start = Instant::now();
        for _ in 0..n {
            tracepoint(black_box(&agent), "KvShard.execute", black_box(&exports));
        }
        start.elapsed().as_nanos() as u64
    })
}

fn bench_disabled(threads: usize, iters: u64) -> f64 {
    let agent = woven_agent(
        "From exec In KvShard.execute GroupBy exec.shard Select exec.shard, COUNT, SUM(exec.bytes)",
    );
    agent.set_enabled(false);
    let exports = shard_exports();
    run_threads(threads, iters, |n| {
        let _scope = ctx::attach(Baggage::new());
        let start = Instant::now();
        for _ in 0..n {
            tracepoint(black_box(&agent), "KvShard.execute", black_box(&exports));
        }
        start.elapsed().as_nanos() as u64
    })
}

fn bench_woven_agg(threads: usize, iters: u64) -> f64 {
    let agent = woven_agent(
        "From exec In KvShard.execute GroupBy exec.shard Select exec.shard, COUNT, SUM(exec.bytes)",
    );
    let exports = shard_exports();
    run_threads(threads, iters, |n| {
        let _scope = ctx::attach(Baggage::new());
        let start = Instant::now();
        for _ in 0..n {
            tracepoint(black_box(&agent), "KvShard.execute", black_box(&exports));
        }
        start.elapsed().as_nanos() as u64
    })
}

fn bench_woven_join(threads: usize, iters: u64) -> f64 {
    let agent = woven_agent(
        "From exec In KvShard.execute \
         Join req In First(KvClient.issueRequest) On req -> exec \
         GroupBy req.client \
         Select req.client, COUNT, SUM(exec.bytes)",
    );
    let client_exports = [
        ("client", Value::str("client-0")),
        ("op", Value::str("get")),
        ("key", Value::str("key-1")),
    ];
    let exec_exports = shard_exports();
    run_threads(threads, iters, |n| {
        let start = Instant::now();
        for _ in 0..n {
            // One op = one request's causal path on a single thread:
            // client-side pack, shard-side unpack + emit.
            let scope = ctx::attach(Baggage::new());
            tracepoint(
                black_box(&agent),
                "KvClient.issueRequest",
                black_box(&client_exports),
            );
            tracepoint(
                black_box(&agent),
                "KvShard.execute",
                black_box(&exec_exports),
            );
            drop(scope);
        }
        start.elapsed().as_nanos() as u64
    })
}

fn bench_pack(threads: usize, iters: u64) -> f64 {
    const Q: QueryId = QueryId(99);
    run_threads(threads, iters, |n| {
        let mut bag = Baggage::new();
        let tuple = Tuple::from_iter([Value::str("client-0"), Value::U64(128)]);
        let start = Instant::now();
        for _ in 0..n {
            bag.pack(Q, &PackMode::First(1), [black_box(tuple.clone())]);
        }
        black_box(bag.tuple_count(Q));
        start.elapsed().as_nanos() as u64
    })
}

fn bench_serialize(threads: usize, iters: u64) -> f64 {
    const Q: QueryId = QueryId(99);
    run_threads(threads, iters, |n| {
        let mut bag = Baggage::new();
        let tuple = Tuple::from_iter([Value::str("client-0"), Value::U64(128)]);
        let start = Instant::now();
        for _ in 0..n {
            // pack invalidates the encode cache, so to_bytes re-encodes.
            bag.pack(Q, &PackMode::First(1), [black_box(tuple.clone())]);
            black_box(bag.to_bytes());
        }
        start.elapsed().as_nanos() as u64
    })
}
