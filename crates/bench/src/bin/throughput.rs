//! Batched vs scalar woven-invoke throughput plus report-wire density,
//! written to `BENCH_throughput.json`.
//!
//! Two halves, matching the two hot paths the batched/columnar work
//! targets:
//!
//! | scenario        | what one "op" is                                     |
//! |-----------------|------------------------------------------------------|
//! | `agg_scalar`    | one plain-aggregation invocation via [`Agent::invoke`] |
//! | `agg_batched`   | its share of an [`Agent::invoke_batch`] call         |
//! | `join_scalar`   | one happened-before-join invocation via [`Agent::invoke`] |
//! | `join_batched`  | its share of an [`Agent::invoke_batch`] call         |
//! | `wire_rows`     | one streaming tuple encoded as a plain report row    |
//! | `wire_blocks`   | one streaming tuple inside a columnar block          |
//!
//! The **join** pair is the CI-gated one: it runs the paper's canonical
//! query shape — group keys unpacked from baggage, aggregates computed
//! from the observed event — which the batched Vm executes through the
//! factorized join path (fold the batch once, merge per packed tuple)
//! instead of materializing the per-row cross product. Both invoke
//! scenarios install the *same compiled query* through the real frontend
//! pipeline (verifier included) and consume the identical event stream
//! end-to-end through the governed agent entry points — the only
//! variable is per-event dispatch vs one batched call. The wire
//! scenarios encode the *same tuples* through the real protocol encoder,
//! once as row-major rows (tag 0) and once as columnar blocks (tag 2).
//!
//! ```text
//! cargo run -p pivot-bench --bin throughput --release -- \
//!     [--threads 1] [--batch 256] [--rows 4096] [--quick] [--enforce] \
//!     [--out BENCH_throughput.json]
//! ```
//!
//! `--enforce` exits non-zero unless batched execution sustains >=2x the
//! scalar invokes/sec on the join workload AND the block wire carries a
//! streaming tuple in <=1/2 the row-major bytes (the CI gates for this
//! subsystem).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pivot_baggage::{Baggage, QueryId};
use pivot_bench::{flag, flag_usize, print_table, run_threads};
use pivot_core::{Agent, Frontend, ProcessInfo, Report, ReportRows};
use pivot_live::proto::{decode_message, encode_message, Message};
use pivot_live::service::define_kv_tracepoints;
use pivot_model::{EncodedBlock, Tuple, Value};
use pivot_query::CompiledCode;

/// CI gate: batched join invokes/sec must be at least this multiple of
/// scalar.
const BATCH_GATE: f64 = 2.0;
/// CI gate: row-major bytes/tuple must be at least this multiple of the
/// columnar-block bytes/tuple.
const WIRE_GATE: f64 = 2.0;

const AGG_QUERY: &str =
    "From exec In KvShard.execute GroupBy exec.shard Select exec.shard, COUNT, SUM(exec.bytes)";

/// The paper's canonical shape: join the observed server event against a
/// client identity carried in baggage, group by the unpacked key,
/// aggregate the observed column.
const JOIN_QUERY: &str = "From exec In KvShard.execute \
     Join req In First(KvClient.issueRequest) On req -> exec \
     GroupBy req.client \
     Select req.client, COUNT, SUM(exec.bytes)";

fn main() {
    let threads = flag_usize("--threads", 1);
    let batch_size = flag_usize("--batch", 256);
    let wire_rows = flag_usize("--rows", 4096);
    let quick = std::env::args().any(|a| a == "--quick");
    let enforce = std::env::args().any(|a| a == "--enforce");
    let out = flag("--out").unwrap_or_else(|| "BENCH_throughput.json".to_owned());
    let scale = if quick { 50 } else { 1 };

    eprintln!("throughput bench: {threads} thread(s), batch={batch_size}, quick={quick}");

    let iters = (2_000_000 / scale) as u64;
    let events = event_stream(batch_size.max(64));

    let agg_agent = install(AGG_QUERY);
    let no_seed = |_: &Agent, _: &mut Baggage| {};
    let agg_scalar_ns = bench_scalar(&agg_agent, &events, &no_seed, threads, iters);
    let agg_batched_ns = bench_batched(&agg_agent, &events, &no_seed, batch_size, threads, iters);
    let agg_speedup = agg_scalar_ns / agg_batched_ns;

    let join_agent = install(JOIN_QUERY);
    let join_seed = |agent: &Agent, bag: &mut Baggage| {
        agent.invoke(
            "KvClient.issueRequest",
            bag,
            0,
            &[
                ("client", Value::str("client-0")),
                ("op", Value::str("get")),
                ("key", Value::str("key-1")),
            ],
        );
    };
    let scalar_ns = bench_scalar(&join_agent, &events, &join_seed, threads, iters);
    let batched_ns = bench_batched(&join_agent, &events, &join_seed, batch_size, threads, iters);
    let batch_speedup = scalar_ns / batched_ns;
    let batch_ok = batch_speedup >= BATCH_GATE;

    let rows = wire_tuples(wire_rows);
    let rows_bytes = encode_report_bytes(ReportRows::Raw(rows.clone()), rows.len());
    let blocks_bytes = encode_report_bytes(
        ReportRows::RawEncoded(vec![EncodedBlock::encode(&rows)]),
        rows.len(),
    );
    let rows_per_tuple = rows_bytes as f64 / rows.len() as f64;
    let blocks_per_tuple = blocks_bytes as f64 / rows.len() as f64;
    let wire_ratio = rows_per_tuple / blocks_per_tuple;
    let wire_ok = wire_ratio >= WIRE_GATE;
    let gate_ok = batch_ok && wire_ok;

    print_table(
        "Woven invoke throughput (wall clock, mean across threads)",
        &["scenario", "ns/invoke", "invokes/sec", "detail"],
        &[
            vec![
                "agg_scalar".to_owned(),
                format!("{agg_scalar_ns:.1}"),
                format!("{:.0}", 1e9 / agg_scalar_ns),
                "Agent::invoke per event, plain GroupBy".to_owned(),
            ],
            vec![
                "agg_batched".to_owned(),
                format!("{agg_batched_ns:.1}"),
                format!("{:.0}", 1e9 / agg_batched_ns),
                format!("Agent::invoke_batch, {batch_size} events/call"),
            ],
            vec![
                "join_scalar".to_owned(),
                format!("{scalar_ns:.1}"),
                format!("{:.0}", 1e9 / scalar_ns),
                "Agent::invoke per event, baggage join".to_owned(),
            ],
            vec![
                "join_batched".to_owned(),
                format!("{batched_ns:.1}"),
                format!("{:.0}", 1e9 / batched_ns),
                format!("Agent::invoke_batch, {batch_size} events/call (gated)"),
            ],
        ],
    );
    print_table(
        "Streaming report wire density (real protocol encoder)",
        &["scenario", "bytes/tuple", "frame bytes", "detail"],
        &[
            vec![
                "wire_rows".to_owned(),
                format!("{rows_per_tuple:.2}"),
                rows_bytes.to_string(),
                format!("{} rows, tag-0 row-major", rows.len()),
            ],
            vec![
                "wire_blocks".to_owned(),
                format!("{blocks_per_tuple:.2}"),
                blocks_bytes.to_string(),
                format!("{} rows, tag-2 columnar blocks", rows.len()),
            ],
        ],
    );
    println!("\nplain-agg batched/scalar speedup: {agg_speedup:.2}x (reported, not gated)");
    println!(
        "join batched/scalar invoke speedup: {batch_speedup:.2}x (gate >={BATCH_GATE}x: {})",
        pass(batch_ok)
    );
    println!(
        "rows/blocks wire bytes-per-tuple ratio: {wire_ratio:.2}x (gate >={WIRE_GATE}x: {})",
        pass(wire_ok)
    );

    let json = render_json(&JsonInputs {
        threads,
        quick,
        batch_size,
        iters,
        agg_scalar_ns,
        agg_batched_ns,
        agg_speedup,
        scalar_ns,
        batched_ns,
        batch_speedup,
        batch_ok,
        wire_tuples: rows.len(),
        rows_bytes,
        blocks_bytes,
        rows_per_tuple,
        blocks_per_tuple,
        wire_ratio,
        wire_ok,
        gate_ok,
    });
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");

    if enforce && !gate_ok {
        eprintln!(
            "--enforce: throughput gates failed \
             (join batch {batch_speedup:.2}x vs >={BATCH_GATE}x, wire {wire_ratio:.2}x vs >={WIRE_GATE}x)"
        );
        std::process::exit(2);
    }
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

struct JsonInputs {
    threads: usize,
    quick: bool,
    batch_size: usize,
    iters: u64,
    agg_scalar_ns: f64,
    agg_batched_ns: f64,
    agg_speedup: f64,
    scalar_ns: f64,
    batched_ns: f64,
    batch_speedup: f64,
    batch_ok: bool,
    wire_tuples: usize,
    rows_bytes: usize,
    blocks_bytes: usize,
    rows_per_tuple: f64,
    blocks_per_tuple: f64,
    wire_ratio: f64,
    wire_ok: bool,
    gate_ok: bool,
}

fn render_json(j: &JsonInputs) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"throughput\",\n");
    s.push_str(&format!("  \"threads\": {},\n", j.threads));
    s.push_str(&format!("  \"quick\": {},\n", j.quick));
    s.push_str(&format!("  \"unix_nanos\": {},\n", pivot_live::now_nanos()));
    s.push_str(&format!("  \"batch_size\": {},\n", j.batch_size));
    s.push_str(&format!("  \"iters_per_thread\": {},\n", j.iters));
    s.push_str(&format!(
        "  \"agg_scalar_ns_per_invoke\": {:.3},\n",
        j.agg_scalar_ns
    ));
    s.push_str(&format!(
        "  \"agg_batched_ns_per_invoke\": {:.3},\n",
        j.agg_batched_ns
    ));
    s.push_str(&format!("  \"agg_speedup\": {:.3},\n", j.agg_speedup));
    s.push_str(&format!(
        "  \"scalar_ns_per_invoke\": {:.3},\n",
        j.scalar_ns
    ));
    s.push_str(&format!(
        "  \"batched_ns_per_invoke\": {:.3},\n",
        j.batched_ns
    ));
    s.push_str(&format!("  \"batch_speedup\": {:.3},\n", j.batch_speedup));
    s.push_str(&format!("  \"batch_gate\": {BATCH_GATE},\n"));
    s.push_str(&format!("  \"batch_2x_ok\": {},\n", j.batch_ok));
    s.push_str(&format!("  \"wire_tuples\": {},\n", j.wire_tuples));
    s.push_str(&format!("  \"wire_rows_frame_bytes\": {},\n", j.rows_bytes));
    s.push_str(&format!(
        "  \"wire_blocks_frame_bytes\": {},\n",
        j.blocks_bytes
    ));
    s.push_str(&format!(
        "  \"wire_rows_bytes_per_tuple\": {:.3},\n",
        j.rows_per_tuple
    ));
    s.push_str(&format!(
        "  \"wire_blocks_bytes_per_tuple\": {:.3},\n",
        j.blocks_per_tuple
    ));
    s.push_str(&format!("  \"wire_ratio\": {:.3},\n", j.wire_ratio));
    s.push_str(&format!("  \"wire_gate\": {WIRE_GATE},\n"));
    s.push_str(&format!("  \"wire_2x_ok\": {},\n", j.wire_ok));
    s.push_str(&format!("  \"gate_ok\": {}\n", j.gate_ok));
    s.push_str("}\n");
    s
}

/// Compiles `query` through the real frontend (verifier included) and
/// returns an agent with the woven advice installed.
fn install(query: &str) -> Agent {
    let mut fe = Frontend::new();
    define_kv_tracepoints(&mut fe);
    let handle = fe.install(query).expect("bench query installs");
    let code: Arc<CompiledCode> = fe.code(&handle).expect("lowered form");
    let agent = Agent::new(ProcessInfo {
        host: "bench".into(),
        procid: 7,
        procname: "kvserver".into(),
    });
    agent.install(&code);
    agent
}

/// A cycle of distinct shard events — the identical stream both invoke
/// scenarios consume. Only tracepoint exports: the agent adds the
/// default host/timestamp/procid/procname/tracepoint exports itself.
fn event_stream(n: usize) -> Vec<[(&'static str, Value); 4]> {
    (0..n)
        .map(|i| {
            [
                ("shard", Value::U64((i % 8) as u64)),
                ("op", Value::str(if i % 3 == 0 { "put" } else { "get" })),
                ("bytes", Value::U64(64 + (i % 512) as u64)),
                ("hit", Value::Bool(i % 5 != 0)),
            ]
        })
        .collect()
}

fn bench_scalar(
    agent: &Agent,
    events: &[[(&'static str, Value); 4]],
    seed: &(dyn Fn(&Agent, &mut Baggage) + Sync),
    threads: usize,
    iters: u64,
) -> f64 {
    run_threads(threads, iters, |n| {
        let mut bag = Baggage::new();
        seed(agent, &mut bag);
        let start = Instant::now();
        for i in 0..n {
            let exports = &events[i as usize % events.len()];
            agent.invoke("KvShard.execute", &mut bag, i, black_box(exports));
        }
        start.elapsed().as_nanos() as u64
    })
}

fn bench_batched(
    agent: &Agent,
    events: &[[(&'static str, Value); 4]],
    seed: &(dyn Fn(&Agent, &mut Baggage) + Sync),
    batch_size: usize,
    threads: usize,
    iters: u64,
) -> f64 {
    // The borrowed batch view is built once outside the timed loop: a
    // real instrumented process accumulates (timestamp, exports) pairs
    // and hands the same kind of slice to `invoke_batch`.
    let batch: Vec<(u64, &[(&str, Value)])> = events
        .iter()
        .map(|e| e.as_slice())
        .cycle()
        .take(batch_size)
        .enumerate()
        .map(|(i, e)| (i as u64, e))
        .collect();
    run_threads(threads, iters, |n| {
        let mut bag = Baggage::new();
        seed(agent, &mut bag);
        let calls = n.div_ceil(batch_size as u64);
        let start = Instant::now();
        for _ in 0..calls {
            agent.invoke_batch("KvShard.execute", &mut bag, black_box(&batch));
        }
        start.elapsed().as_nanos() as u64 * n / (calls * batch_size as u64)
    })
}

/// Realistic streaming rows: a mostly-repeating op column, monotonically
/// increasing timestamps, small varying sizes — the shape RLE and delta
/// tracks exist for.
fn wire_tuples(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::from_iter([
                Value::str(if i % 19 == 0 { "PUT" } else { "GET" }),
                Value::U64(1_722_000_000_000_000_000 + (i as u64) * 1_379),
                Value::U64(64 + (i % 512) as u64),
            ])
        })
        .collect()
}

/// Encodes one streaming report carrying `rows` (`n` tuples) through the
/// real encoder and returns the frame payload size. Decodes the frame
/// back to prove the bytes are real.
fn encode_report_bytes(rows: ReportRows, n: usize) -> usize {
    let report = Report {
        query: QueryId(1),
        host: "bench".into(),
        procid: 7,
        procname: "kvserver".into(),
        incarnation: 0,
        time: 1,
        seq: 0,
        tuples: n as u64,
        emitted_cum: n as u64,
        shed_cum: 0,
        truncated_cum: 0,
        throttled: None,
        rows,
    };
    let payload = encode_message(&Message::Report(report));
    let Message::Report(r) = decode_message(&payload).expect("bench frame decodes") else {
        panic!("bench frame is a report");
    };
    assert_eq!(r.rows.len(), n, "no tuples lost on the wire");
    payload.len()
}
