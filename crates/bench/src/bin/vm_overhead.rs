//! Tree-walk vs register-VM per-event advice cost, written to
//! `BENCH_vm.json`.
//!
//! Both engines execute the *same compiled queries* (installed through the
//! real frontend pipeline, verifier included) on identical exports and
//! baggage, so the only variable is the execution engine:
//!
//! | scenario        | engine     | what one "op" is                       |
//! |-----------------|------------|----------------------------------------|
//! | `treewalk_agg`  | interp     | Observe → grouped Emit, fold into aggs |
//! | `vm_agg`        | VM         | same advice, lowered bytecode          |
//! | `treewalk_join` | interp     | Q1 request: pack advice + unpack/emit advice, fresh baggage |
//! | `vm_join`       | VM         | same two programs, lowered bytecode    |
//! | `lower`         | (compiler) | one `CompiledCode::lower` (per-install, not per-event) |
//!
//! The tree-walk side folds emitted rows into a mutex-guarded group map,
//! mirroring what the pre-VM agent did per invocation; the VM side runs
//! through [`Agent::run_code`], i.e. the real sink the agent uses.
//!
//! ```text
//! cargo run -p pivot-bench --bin vm_overhead --release -- \
//!     [--threads 1] [--quick] [--enforce] [--out BENCH_vm.json]
//! ```
//!
//! `--enforce` exits non-zero if either woven VM cost exceeds its
//! tree-walk baseline ×1.5 (the CI regression gate: the VM must never
//! be meaningfully slower than the engine it replaced). The `agg`
//! scenarios additionally carry the ≥2× advice-cost reduction target
//! (`vm_2x_ok` in the JSON); the `join` op includes baggage allocation,
//! pack, and unpack — identical in both engines — so its ratio
//! understates the engine difference and is gated but not targeted.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pivot_baggage::Baggage;
use pivot_bench::{flag, flag_usize, print_table, run_threads};
use pivot_core::interp::{self, EmitRows};
use pivot_core::{Agent, Frontend, ProcessInfo};
use pivot_live::service::define_kv_tracepoints;
use pivot_model::{AggState, GroupKey, Value};
use pivot_query::{CompiledCode, CompiledQuery};

/// CI regression gate: woven VM cost must stay within baseline × this.
const GATE_RATIO: f64 = 1.5;

struct Scenario {
    name: &'static str,
    detail: &'static str,
    iters: u64,
    ns_per_op: f64,
}

fn main() {
    let threads = flag_usize("--threads", 1);
    let quick = std::env::args().any(|a| a == "--quick");
    let enforce = std::env::args().any(|a| a == "--enforce");
    let out = flag("--out").unwrap_or_else(|| "BENCH_vm.json".to_owned());
    let scale = if quick { 50 } else { 1 };

    eprintln!("vm overhead bench: {threads} thread(s) per scenario (quick={quick})");

    let iters = 1_000_000 / scale;
    let lower_iters = 100_000 / scale;

    let (agg_compiled, agg_code) = install(AGG_QUERY);
    let (join_compiled, join_code) = install(JOIN_QUERY);

    let scenarios = vec![
        Scenario {
            name: "treewalk_agg",
            detail: "interp: Observe -> grouped Emit, fold into agg states",
            iters,
            ns_per_op: bench_treewalk_agg(&agg_compiled, threads, iters),
        },
        Scenario {
            name: "vm_agg",
            detail: "VM: same advice as lowered bytecode",
            iters,
            ns_per_op: bench_vm_agg(&agg_code, threads, iters),
        },
        Scenario {
            name: "treewalk_join",
            detail: "interp: Q1 pack at client + unpack/emit at shard, fresh baggage",
            iters,
            ns_per_op: bench_treewalk_join(&join_compiled, threads, iters),
        },
        Scenario {
            name: "vm_join",
            detail: "VM: same two programs as lowered bytecode",
            iters,
            ns_per_op: bench_vm_join(&join_code, threads, iters),
        },
        Scenario {
            name: "lower",
            detail: "CompiledCode::lower (paid once per install, not per event)",
            iters: lower_iters,
            ns_per_op: bench_lower(&join_compiled, threads, lower_iters),
        },
    ];

    let ns = |name: &str| {
        scenarios
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.ns_per_op)
            .unwrap()
    };
    let speedup_agg = ns("treewalk_agg") / ns("vm_agg");
    let speedup_join = ns("treewalk_join") / ns("vm_join");
    let gate_ok = ns("vm_agg") <= ns("treewalk_agg") * GATE_RATIO
        && ns("vm_join") <= ns("treewalk_join") * GATE_RATIO;
    // The ≥2× target is on per-event *advice* cost (the agg scenario,
    // which is pure advice execution). The join op also pays baggage
    // allocation, pack, and unpack — identical machinery in both engines
    // — so its ratio understates the engine difference; it is gated at
    // ×1.5 but not part of the 2× target.
    let vm_2x_ok = speedup_agg >= 2.0;

    print_table(
        "Advice execution engines (wall clock, per op, mean across threads)",
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
        "\nspeedup (treewalk/vm): agg {speedup_agg:.2}x, join {speedup_join:.2}x \
         (advice cost >=2x target, agg: {})",
        if vm_2x_ok { "PASS" } else { "MISS" }
    );
    println!(
        "regression gate: vm <= treewalk x{GATE_RATIO}: {}",
        if gate_ok { "PASS" } else { "FAIL" }
    );

    let json = render_json(
        &scenarios,
        threads,
        quick,
        speedup_agg,
        speedup_join,
        gate_ok,
        vm_2x_ok,
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");

    if enforce && !gate_ok {
        eprintln!("--enforce: VM per-op cost exceeds tree-walk baseline x{GATE_RATIO}");
        std::process::exit(2);
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    scenarios: &[Scenario],
    threads: usize,
    quick: bool,
    speedup_agg: f64,
    speedup_join: f64,
    gate_ok: bool,
    vm_2x_ok: bool,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"vm_overhead\",\n");
    s.push_str("  \"units\": \"ns_per_op_wall_clock\",\n");
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"unix_nanos\": {},\n", pivot_live::now_nanos()));
    s.push_str(&format!("  \"gate_ratio\": {GATE_RATIO},\n"));
    s.push_str(&format!("  \"gate_ok\": {gate_ok},\n"));
    s.push_str(&format!("  \"speedup_agg\": {speedup_agg:.3},\n"));
    s.push_str(&format!("  \"speedup_join\": {speedup_join:.3},\n"));
    s.push_str(&format!("  \"vm_2x_ok\": {vm_2x_ok},\n"));
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

const AGG_QUERY: &str =
    "From exec In KvShard.execute GroupBy exec.shard Select exec.shard, COUNT, SUM(exec.bytes)";

const JOIN_QUERY: &str = "From exec In KvShard.execute \
     Join req In First(KvClient.issueRequest) On req -> exec \
     GroupBy req.client \
     Select req.client, COUNT, SUM(exec.bytes)";

/// Compiles `query` through the real frontend (verifier included) and
/// returns both engine inputs: the advice-op trees and the lowered code.
fn install(query: &str) -> (Arc<CompiledQuery>, Arc<CompiledCode>) {
    let mut fe = Frontend::new();
    define_kv_tracepoints(&mut fe);
    let handle = fe.install(query).expect("bench query installs");
    (
        fe.compiled(&handle).expect("compiled form"),
        fe.code(&handle).expect("lowered form"),
    )
}

fn bench_agent() -> Agent {
    Agent::new(ProcessInfo {
        host: "bench".into(),
        procid: 7,
        procname: "kvserver".into(),
    })
}

/// Exports at the shard tracepoint, default exports included (both
/// engines see the identical slice).
fn shard_exports() -> [(&'static str, Value); 7] {
    [
        ("shard", Value::U64(3)),
        ("op", Value::str("get")),
        ("bytes", Value::U64(128)),
        ("hit", Value::Bool(true)),
        ("host", Value::str("bench")),
        ("procname", Value::str("kvserver")),
        ("tracepoint", Value::str("KvShard.execute")),
    ]
}

fn client_exports() -> [(&'static str, Value); 6] {
    [
        ("client", Value::str("client-0")),
        ("op", Value::str("get")),
        ("key", Value::str("key-1")),
        ("host", Value::str("bench")),
        ("procname", Value::str("kvserver")),
        ("tracepoint", Value::str("KvClient.issueRequest")),
    ]
}

/// Folds an interp emit batch into the shared group map — the same
/// lock-then-aggregate step the pre-VM agent performed per invocation.
fn fold(buffers: &Mutex<HashMap<GroupKey, Vec<AggState>>>, emits: &[interp::Emitted]) -> usize {
    let mut n = 0;
    for e in emits {
        match interp::emit_rows(e) {
            EmitRows::Grouped(rows) => {
                let mut groups = buffers.lock().unwrap();
                for (key, args) in rows {
                    let states = groups
                        .entry(key)
                        .or_insert_with(|| e.spec.aggs.iter().map(|(f, _)| f.init()).collect());
                    for (st, arg) in states.iter_mut().zip(&args) {
                        st.update(arg);
                    }
                    n += 1;
                }
            }
            EmitRows::Raw(rows) => n += rows.len(),
        }
    }
    n
}

fn bench_treewalk_agg(cq: &CompiledQuery, threads: usize, iters: u64) -> f64 {
    assert_eq!(cq.advice.len(), 1, "agg query is a single program");
    let prog = &cq.advice[0];
    let exports = shard_exports();
    let buffers = Mutex::new(HashMap::new());
    run_threads(threads, iters, |n| {
        let mut bag = Baggage::new();
        let start = Instant::now();
        for _ in 0..n {
            let (emits, stats) = interp::run(prog, black_box(&exports), &mut bag);
            black_box(fold(&buffers, &emits));
            black_box(stats);
        }
        start.elapsed().as_nanos() as u64
    })
}

fn bench_vm_agg(code: &CompiledCode, threads: usize, iters: u64) -> f64 {
    assert_eq!(code.programs.len(), 1, "agg query is a single program");
    let agent = bench_agent();
    agent.install(code);
    let prog = &code.programs[0];
    let exports = shard_exports();
    run_threads(threads, iters, |n| {
        let mut bag = Baggage::new();
        let start = Instant::now();
        for _ in 0..n {
            black_box(agent.run_code(prog, black_box(&exports), &mut bag));
        }
        start.elapsed().as_nanos() as u64
    })
}

fn bench_treewalk_join(cq: &CompiledQuery, threads: usize, iters: u64) -> f64 {
    assert_eq!(cq.advice.len(), 2, "join query packs then emits");
    let (pack, emit) = (&cq.advice[0], &cq.advice[1]);
    let client = client_exports();
    let shard = shard_exports();
    let buffers = Mutex::new(HashMap::new());
    run_threads(threads, iters, |n| {
        let start = Instant::now();
        for _ in 0..n {
            // One op = one request's causal path: client-side pack,
            // shard-side unpack + emit, fresh baggage per request.
            let mut bag = Baggage::new();
            let (_, s1) = interp::run(pack, black_box(&client), &mut bag);
            let (emits, s2) = interp::run(emit, black_box(&shard), &mut bag);
            black_box(fold(&buffers, &emits));
            black_box((s1, s2));
        }
        start.elapsed().as_nanos() as u64
    })
}

fn bench_vm_join(code: &CompiledCode, threads: usize, iters: u64) -> f64 {
    assert_eq!(code.programs.len(), 2, "join query packs then emits");
    let agent = bench_agent();
    agent.install(code);
    let (pack, emit) = (&code.programs[0], &code.programs[1]);
    let client = client_exports();
    let shard = shard_exports();
    run_threads(threads, iters, |n| {
        let start = Instant::now();
        for _ in 0..n {
            let mut bag = Baggage::new();
            black_box(agent.run_code(pack, black_box(&client), &mut bag));
            black_box(agent.run_code(emit, black_box(&shard), &mut bag));
        }
        start.elapsed().as_nanos() as u64
    })
}

fn bench_lower(cq: &CompiledQuery, threads: usize, iters: u64) -> f64 {
    run_threads(threads, iters, |n| {
        let start = Instant::now();
        for _ in 0..n {
            black_box(CompiledCode::lower(black_box(cq)));
        }
        start.elapsed().as_nanos() as u64
    })
}
