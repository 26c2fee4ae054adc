//! End-to-end benchmark of the live Pivot Tracing stack.
//!
//! ```text
//! cargo run --offline --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload kv-q1|kv-unwoven|fanin-relay --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name with its unit, runs the workload's
//! reference checks, writes the full result (and, traced, the span log)
//! under `.bench_out/`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` they are the per-layer ones of a separate traced run.
//! Exits non-zero when a reference check fails. See `README.md`.

mod fanin;
mod gen;
mod kv;
mod measure;

use measure::{Metrics, Tracer};

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// The gated tail is p95: p99 (printed, and kept in the result file)
/// moves several-fold when the host steals CPU time, while p95 does
/// not.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not run (the relay on `kv-*`, the KV round
/// trip on `fanin-relay`, query install on `kv-unwoven`) reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("live.tracepoint.calls", "count"),
    ("live.tracepoint.ns_p50", "ns"),
    ("live.tracepoint.ns_p99", "ns"),
    ("live.tracepoint.busy_frac", "ratio"),
    ("live.tracepoint.self_s", "s"),
    ("live.kv_round_trip.us_p50", "us"),
    ("live.kv_round_trip.us_p99", "us"),
    ("live.kv_round_trip.self_s", "s"),
    ("baggage.header_bytes", "B"),
    ("live.agent_flush.us_p50", "us"),
    ("live.agent_flush.us_p99", "us"),
    ("live.agent_flush.self_s", "s"),
    ("relay.absorb.us_p50", "us"),
    ("relay.absorb.us_p99", "us"),
    ("relay.absorb.self_s", "s"),
    ("relay.forward.us_p50", "us"),
    ("relay.forward.us_p99", "us"),
    ("relay.forward.self_s", "s"),
    ("relay.forward.nonempty_frac", "ratio"),
    ("core.frontend_poll.us_p50", "us"),
    ("core.frontend_poll.us_p99", "us"),
    ("core.frontend_poll.self_s", "s"),
    ("core.frontend_poll.nonempty_frac", "ratio"),
    ("query.install_ms", "ms"),
    ("query.weave_ms", "ms"),
    ("agent.advised_per_op", "count/op"),
    ("agent.idle_per_op", "count/op"),
    ("agent.tuples_packed_per_op", "count/op"),
    ("agent.tuples_emitted_per_op", "count/op"),
    ("agent.rows_reported_per_op", "count/op"),
    ("relay.reports_in", "count"),
    ("relay.reports_out", "count"),
    ("relay.tuples_in", "count"),
    ("relay.tuples_out", "count"),
    ("relay.reports_in_per_out", "ratio"),
    ("loss.reports_accepted", "count"),
    ("loss.tuples_delivered", "count"),
    ("loss.tuples_dropped", "count"),
    ("trace.request.self_s", "s"),
    ("trace.request.unexplained_frac", "ratio"),
    ("traced.setup_s", "s"),
    ("traced.throughput_per_s", "1/s"),
    ("traced.latency_p50_ms", "ms"),
    ("traced.latency_p95_ms", "ms"),
    ("traced.latency_p99_ms", "ms"),
    ("traced.peak_rss_mb", "MB"),
];

const WORKLOADS: &[&str] = &["kv-q1", "kv-unwoven", "fanin-relay"];
const OUT_DIR: &str = ".bench_out";

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics: counts in every run, timings when traced.
    pub layers: Metrics,
    pub info: Vec<(String, String)>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, problems: Vec<String>) -> Outcome {
        Outcome {
            attempted,
            failed,
            problems,
            e2e: Metrics::default(),
            layers: Metrics::default(),
            info: Vec::new(),
            tracer: None,
        }
    }

    pub fn info(&mut self, key: &str, value: String) {
        self.info.push((key.to_owned(), value));
    }
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Config {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics<'a>(entries: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = entries
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let result = match cfg.workload.as_str() {
        "kv-q1" => kv::run(&cfg, true),
        "kv-unwoven" => kv::run(&cfg, false),
        _ => fanin::run(&cfg),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {} failed to run: {e}", cfg.workload);
            std::process::exit(1);
        }
    };
    out.e2e.set("peak_rss_mb", measure::peak_rss_mb(), "MB");
    if cfg.traced {
        // A traced run's end-to-end numbers are per-layer results: set
        // beside the untraced ones, they give the tracing overhead.
        for (name, value, unit) in std::mem::take(&mut out.e2e).iter() {
            out.layers.set(&format!("traced.{name}"), *value, unit);
        }
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let correct = out.problems.is_empty() && out.failed == 0;
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;

    println!(
        "workload {} seed {} seconds {} trace {} available_parallelism {parallelism}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.traced as u8
    );
    for (k, v) in &out.info {
        println!("  {k:<34} {v}");
    }
    println!(
        "end-to-end{}:",
        if cfg.traced { " (traced run)" } else { "" }
    );
    for (name, value, unit) in out.e2e.iter().chain(
        out.layers
            .iter()
            .filter(|(n, _, _)| n.starts_with("traced.")),
    ) {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("  {:<34} {failed_frac:>16.6} ratio", "failed_frac");
    println!(
        "per-layer{}:",
        if cfg.traced {
            ""
        } else {
            " (counts and set-up medians; per-call timings need --trace 1)"
        }
    );
    for (name, value, unit) in out
        .layers
        .iter()
        .filter(|(n, _, _)| !n.starts_with("traced."))
    {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "reference checks: {} ({} attempted, {} failed)",
        if correct { "PASS" } else { "FAIL" },
        out.attempted,
        out.failed
    );
    for p in &out.problems {
        println!("  problem: {p}");
    }

    // The contract line: exactly the end-to-end or per-layer set.
    let (source, wanted) = if cfg.traced {
        (&out.layers, PER_LAYER)
    } else {
        (&out.e2e, END_TO_END)
    };
    let metrics = json_metrics(
        wanted
            .iter()
            .map(|&(name, unit)| (name, source.get(name).unwrap_or(0.0), unit)),
    );
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );

    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        cfg.workload, cfg.seed, cfg.traced as u8
    );
    let info: Vec<String> = out
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let full = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {parallelism}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"info\": {{{}}}, \
         \"end_to_end\": {}, \"per_layer\": {}, \"problems\": [{}]}}\n",
        json_str(&cfg.workload),
        cfg.seed,
        cfg.seconds,
        cfg.traced as u8,
        out.attempted,
        out.failed,
        json_num(failed_frac),
        info.join(", "),
        json_metrics(out.e2e.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
        json_metrics(out.layers.iter().map(|(n, v, u)| (n.as_str(), *v, *u))),
        out.problems
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), full))
        .and_then(|()| match &out.tracer {
            Some(t) => std::fs::write(format!("{stem}-spans.jsonl"), t.spans_jsonl()),
            None => Ok(()),
        });
    match written {
        Ok(()) => println!("wrote {stem}.json"),
        Err(e) => eprintln!("warning: could not write {stem}.json: {e}"),
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
