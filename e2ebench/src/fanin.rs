//! `fanin-relay`: one generator thread fires `Bench.event(k, v)`
//! round-robin on 8 in-process `LiveAgent`s, which report through one
//! `RelayServer` to the `LiveFrontend`. A grouped query is merged at the
//! relay; a ~4%-selective streaming query passes through it unmerged.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pivot_core::agent::AgentStats;
use pivot_core::{LossStats, ProcessInfo, QueryHandle};
use pivot_live::{tracepoint, LiveAgent, LiveFrontend};
use pivot_model::Value;
use pivot_relay::live::RelayServer;
use pivot_relay::RelayStats;

use crate::gen::{Rng, Zipf};
use crate::kv::{agent_counts, stats_delta, stats_sum};
use crate::measure::{
    latency_metrics, layer_metrics, median, nanos, percentiles, setup_metrics, wait_until,
    SetupTimes, Tracer,
};
use crate::{Config, Outcome};

const GROUPED: &str = "From e In Bench.event GroupBy e.k Select e.k, COUNT, SUM(e.v)";
const STREAMING: &str = "From e In Bench.event Where e.v > 95 Select e.k, e.v";

const AGENTS: usize = 8;
const KEYS: usize = 4096;
const ZIPF_EXPONENT: f64 = 0.99;
/// `v` is uniform over `0..V_RANGE`; the streaming query keeps
/// `v > STREAM_MIN`, i.e. 4% of events.
const V_RANGE: u64 = 100;
const STREAM_MIN: u64 = 95;
const STREAM_WIDTH: usize = (V_RANGE - STREAM_MIN - 1) as usize;
const AGENT_INTERVAL: Duration = Duration::from_millis(20);
const RELAY_INTERVAL: Duration = Duration::from_millis(20);
const POLL: Duration = Duration::from_millis(2);
/// The generator records its cumulative count every this many events;
/// each checkpoint gives one result-lag sample.
const CHECKPOINT: u64 = 500;
/// Events fired per round (a fixed count, so every round does the same
/// work and holds the same state): about 2.3 s at 0.65M events/s. A
/// round stops early at `2 * ROUND` so a slow machine cannot stretch a
/// run past its time limit.
const EVENTS_PER_ROUND: u64 = 1_500_000;
/// In the traced run every n-th tracepoint call is timed (all are
/// counted), and every 16th timed call keeps its span.
const TP_STRIDE: u64 = 16;
const SPAN_STRIDE: u64 = 16;
const SETUP_REPS: usize = 21;
/// A run has one round per this much of `--seconds`, each on a fresh
/// deployment: the frontend keeps every report interval's groups, so
/// rounds bound its memory, and throughput and lag are medians over the
/// rounds.
const ROUND: Duration = Duration::from_millis(2500);
const PARKED: Duration = Duration::from_secs(3600);
const TIMEOUT: Duration = Duration::from_secs(30);

struct Stack {
    fe: LiveFrontend,
    relay: RelayServer,
    agents: Vec<LiveAgent>,
    grouped: QueryHandle,
    streaming: QueryHandle,
}

fn setup(
    agent_interval: Duration,
    relay_interval: Duration,
) -> Result<(Stack, SetupTimes), String> {
    let t0 = Instant::now();
    let io = |e: std::io::Error| e.to_string();
    let mut fe = LiveFrontend::start().map_err(io)?;
    fe.define("Bench.event", ["k", "v"]);
    let relay_info = ProcessInfo {
        host: "relay".into(),
        procid: 100,
        procname: "pivot-relay".into(),
    };
    let relay = RelayServer::start(fe.addr(), relay_info, relay_interval).map_err(io)?;
    wait_until("the relay to register", TIMEOUT, || {
        fe.bus().relay_count() == 1
    })?;
    let agents = (0..AGENTS as u64)
        .map(|i| {
            let info = ProcessInfo {
                host: format!("host-{i}"),
                procid: i + 1,
                procname: "worker".into(),
            };
            LiveAgent::connect(relay.addr(), info, agent_interval)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    wait_until("the agents to register at the relay", TIMEOUT, || {
        relay.downstream().agent_count() == AGENTS
    })?;
    let t_install = Instant::now();
    let grouped = fe.install(GROUPED).map_err(|e| e.to_string())?;
    let streaming = fe.install(STREAMING).map_err(|e| e.to_string())?;
    let t_woven = Instant::now();
    wait_until("both queries to be woven on every agent", TIMEOUT, || {
        agents.iter().all(|a| {
            let reg = a.agent().registry();
            reg.has_query(grouped.id) && reg.has_query(streaming.id)
        })
    })?;
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        install_ms: (t_woven - t_install).as_secs_f64() * 1e3,
        weave_ms: t_woven.elapsed().as_secs_f64() * 1e3,
    };
    Ok((
        Stack {
            fe,
            relay,
            agents,
            grouped,
            streaming,
        },
        times,
    ))
}

impl Stack {
    fn stop(self) {
        for a in &self.agents {
            a.shutdown();
        }
        self.relay.shutdown();
    }

    fn loss(&mut self) -> (LossStats, LossStats) {
        let fe = self.fe.frontend_mut();
        (
            fe.results(&self.grouped).loss(),
            fe.results(&self.streaming).loss(),
        )
    }

    fn agent_stats(&self) -> AgentStats {
        self.agents.iter().fold(AgentStats::default(), |sum, a| {
            stats_sum(&sum, &a.agent().stats())
        })
    }
}

/// The generator's reference results and its checkpoints.
struct GenOut {
    events: u64,
    first: Instant,
    counts: Vec<u64>,
    sums: Vec<u64>,
    /// Streaming rows per `(k, v)`, indexed `k * STREAM_WIDTH + (v - STREAM_MIN - 1)`.
    stream: Vec<u64>,
    checkpoints: Vec<(u64, Instant)>,
    tracer: Tracer,
}

struct Control {
    done: AtomicBool,
    events: AtomicU64,
    stream_rows: AtomicU64,
}

/// Fires the round's seeded events round-robin over `agents`, keeping
/// the reference results and a checkpoint every `CHECKPOINT` events.
fn generate(
    agents: &[LiveAgent],
    cfg: &Config,
    round: u64,
    ctl: &Control,
    epoch: Instant,
    tag: u64,
) -> GenOut {
    let traced = cfg.traced;
    let keys: Vec<Value> = (0..KEYS).map(|k| Value::str(format!("k{k:04}"))).collect();
    let zipf = Zipf::new(KEYS, ZIPF_EXPONENT);
    let mut rng = Rng::new(cfg.seed, 0xFA11 + round);
    let mut out = GenOut {
        events: 0,
        first: Instant::now(),
        counts: vec![0; KEYS],
        sums: vec![0; KEYS],
        stream: vec![0; KEYS * STREAM_WIDTH],
        checkpoints: Vec::new(),
        tracer: Tracer::new(epoch, tag),
    };
    let mut n = 0u64;
    let cap = out.first + 2 * ROUND;
    while n < EVENTS_PER_ROUND && out.checkpoints.last().is_none_or(|(_, t)| *t < cap) {
        for _ in 0..CHECKPOINT {
            let agent = agents[(n % AGENTS as u64) as usize].agent();
            let k = zipf.sample(&mut rng);
            let v = rng.below(V_RANGE);
            let exports = [("k", keys[k].clone()), ("v", Value::I64(v as i64))];
            if traced && n.is_multiple_of(TP_STRIDE) {
                let t = Instant::now();
                tracepoint(agent, "Bench.event", &exports);
                let keep = (n / TP_STRIDE).is_multiple_of(SPAN_STRIDE);
                out.tracer
                    .sample("live.tracepoint", t, Instant::now(), n, keep);
            } else {
                tracepoint(agent, "Bench.event", &exports);
            }
            out.counts[k] += 1;
            out.sums[k] += v;
            if v > STREAM_MIN {
                out.stream[k * STREAM_WIDTH + (v - STREAM_MIN - 1) as usize] += 1;
            }
            n += 1;
        }
        out.checkpoints.push((n, Instant::now()));
    }
    out.events = n;
    if traced {
        out.tracer
            .layers
            .entry("live.tracepoint")
            .or_default()
            .calls = n;
    }
    ctl.stream_rows
        .store(out.stream.iter().sum(), Ordering::Relaxed);
    ctl.events.store(n, Ordering::Relaxed);
    ctl.done.store(true, Ordering::Release);
    out
}

/// Traced run: the relay's and agents' periodic steps, driven and timed
/// here at the timed run's cadence.
fn step_loop(
    relay: &RelayServer,
    agents: &[LiveAgent],
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> (u64, u64) {
    let (mut forwards, mut nonempty) = (0, 0);
    let mut next = Instant::now();
    while !stop.load(Ordering::Acquire) {
        next += AGENT_INTERVAL;
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        let t = Instant::now();
        relay.pull_now();
        tr.record("relay.absorb", t, Instant::now(), 0, 0, true);
        let out_before = relay.stats().reports_out;
        let t = Instant::now();
        relay.flush_now();
        tr.record("relay.forward", t, Instant::now(), 0, 0, true);
        forwards += 1;
        if relay.stats().reports_out > out_before {
            nonempty += 1;
        }
        for a in agents {
            let t = Instant::now();
            a.flush_now();
            tr.record("live.agent_flush", t, Instant::now(), 0, 0, true);
        }
    }
    (forwards, nonempty)
}

/// Lag of each checkpoint: from when the generator passed it until the
/// first poll that saw at least that many grouped tuples delivered.
fn checkpoint_lags_ns(checkpoints: &[(u64, Instant)], polls: &[(Instant, u64)]) -> Vec<u64> {
    let mut lags = Vec::with_capacity(checkpoints.len());
    let mut p = 0;
    for &(count, at) in checkpoints {
        while p < polls.len() && (polls[p].1 < count || polls[p].0 < at) {
            p += 1;
        }
        match polls.get(p) {
            Some(&(seen, _)) => lags.push(nanos(seen - at)),
            None => break,
        }
    }
    lags
}

/// What one round produced.
struct Round {
    events: u64,
    /// Generator wall time, first event to last.
    gen_s: f64,
    stream_rows: u64,
    rate: f64,
    lags: u64,
    /// Lag percentiles in ns.
    lag: [f64; 3],
    polls: u64,
    nonempty_polls: u64,
    forwards: u64,
    nonempty_forwards: u64,
    stats: AgentStats,
    relay: RelayStats,
    loss: LossStats,
    mismatched: u64,
    problems: Vec<String>,
    tracer: Tracer,
}

/// One round on a fresh deployment: fire the round's events, wait until the
/// frontend holds every tuple of both queries, then check them against
/// the generator's reference.
fn run_round(
    cfg: &Config,
    round: u64,
    setups: &mut Vec<SetupTimes>,
    epoch: Instant,
) -> Result<Round, String> {
    let (agent_interval, relay_interval) = if cfg.traced {
        (PARKED, PARKED)
    } else {
        (AGENT_INTERVAL, RELAY_INTERVAL)
    };
    let (mut stack, times) = setup(agent_interval, relay_interval)?;
    setups.push(times);
    let ctl = Control {
        done: AtomicBool::new(false),
        events: AtomicU64::new(0),
        stream_rows: AtomicU64::new(0),
    };
    let stop_steps = AtomicBool::new(false);
    let mut tracer = Tracer::new(epoch, 3 * round);
    let mut step_tr = Tracer::new(epoch, 3 * round + 1);
    let mut polls: Vec<(Instant, u64)> = Vec::new();
    let mut nonempty_polls = 0u64;
    let stats0 = stack.agent_stats();

    let Stack {
        fe,
        relay,
        agents,
        grouped,
        streaming,
    } = &mut stack;
    let (relay, agents): (&RelayServer, &[LiveAgent]) = (relay, agents);
    let (gen, settled, (forwards, nonempty_forwards)) = std::thread::scope(|s| {
        let (ctl, stop_steps, step_tr) = (&ctl, &stop_steps, &mut step_tr);
        let gen = s.spawn(move || generate(agents, cfg, round, ctl, epoch, 3 * round + 2));
        let steps = cfg
            .traced
            .then(|| s.spawn(move || step_loop(relay, agents, stop_steps, step_tr)));
        // Main thread: poll the frontend every 2 ms until it holds every
        // tuple of both queries, recording (time, delivered) samples.
        let (mut accepted, mut deadline) = (0u64, None);
        let mut next = Instant::now();
        let settled = loop {
            next += POLL;
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            let t = Instant::now();
            fe.poll();
            let now = Instant::now();
            if cfg.traced {
                tracer.record("core.frontend_poll", t, now, 0, 0, true);
            }
            let f = fe.frontend_mut();
            let (gl, sl) = (f.results(grouped).loss(), f.results(streaming).loss());
            polls.push((now, gl.tuples_delivered));
            let acc = gl.reports_accepted + sl.reports_accepted;
            if acc > accepted {
                nonempty_polls += 1;
                accepted = acc;
            }
            if ctl.done.load(Ordering::Acquire) {
                let deadline = *deadline.get_or_insert(now + TIMEOUT);
                if gl.tuples_delivered >= ctl.events.load(Ordering::Relaxed)
                    && sl.tuples_delivered >= ctl.stream_rows.load(Ordering::Relaxed)
                {
                    break Ok(now);
                }
                if now >= deadline {
                    break Err(format!(
                        "results incomplete after {TIMEOUT:?}: grouped {gl:?}, streaming {sl:?}"
                    ));
                }
            }
        };
        stop_steps.store(true, Ordering::Release);
        let gen = gen.join().expect("generator panicked");
        let steps = steps.map_or((0, 0), |h| h.join().expect("stepper panicked"));
        (gen, settled, steps)
    });
    let stats1 = stack.agent_stats();

    // Reference checks, through the relay.
    let mut problems = Vec::new();
    let mut mismatched = 0u64;
    let t_all = settled.unwrap_or_else(|e| {
        problems.push(e);
        Instant::now()
    });
    let (gl, sl) = stack.loss();
    let stream_rows: u64 = gen.stream.iter().sum();
    for (what, loss, want) in [("grouped", gl, gen.events), ("streaming", sl, stream_rows)] {
        if loss.tuples_emitted != want
            || loss.tuples_delivered != want
            || loss.tuples_dropped != 0
            || loss.tuples_shed != 0
            || loss.reports_missed != 0
        {
            mismatched += want.abs_diff(loss.tuples_delivered).max(1);
            problems.push(format!(
                "round {round}: {what} loss books do not balance: {want} tuples fired, {loss:?}"
            ));
        }
    }
    let f = stack.fe.frontend_mut();
    let mut got = vec![(0u64, 0u64); KEYS];
    let mut bad_rows = 0u64;
    for row in f.results(&stack.grouped).rows() {
        match key_index(&row.values[0]) {
            Some(k) => {
                got[k] = (
                    row.values[1].as_f64().unwrap_or(-1.0) as u64,
                    row.values[2].as_f64().unwrap_or(-1.0) as u64,
                );
            }
            None => bad_rows += 1,
        }
    }
    let wrong_groups = (0..KEYS)
        .filter(|&k| got[k] != (gen.counts[k], gen.sums[k]))
        .count() as u64;
    if wrong_groups + bad_rows > 0 {
        mismatched += wrong_groups + bad_rows;
        problems.push(format!(
            "round {round}: grouped results: {wrong_groups} keys differ from the reference, {bad_rows} unknown rows"
        ));
    }
    let mut got_stream = vec![0u64; KEYS * STREAM_WIDTH];
    let mut bad_stream = 0u64;
    for (_, row) in f.results(&stack.streaming).raw_rows() {
        let v = row.get(1).as_i64().and_then(|v| u64::try_from(v).ok());
        match (key_index(row.get(0)), v) {
            (Some(k), Some(v)) if v > STREAM_MIN && v < V_RANGE => {
                got_stream[k * STREAM_WIDTH + (v - STREAM_MIN - 1) as usize] += 1;
            }
            _ => bad_stream += 1,
        }
    }
    let wrong_stream = got_stream
        .iter()
        .zip(&gen.stream)
        .map(|(g, w)| g.abs_diff(*w))
        .sum::<u64>()
        + bad_stream;
    if wrong_stream > 0 {
        mismatched += wrong_stream;
        problems.push(format!(
            "round {round}: streaming rows differ from the reference multiset by {wrong_stream} rows"
        ));
    }
    let lags_ns = checkpoint_lags_ns(&gen.checkpoints, &polls);
    let lags = lags_ns.len() as u64;
    if lags_ns.len() < gen.checkpoints.len() && problems.is_empty() {
        problems.push(format!(
            "round {round}: some checkpoints were never delivered"
        ));
    }

    let mut loss = gl;
    loss.reports_accepted += sl.reports_accepted;
    loss.tuples_delivered += sl.tuples_delivered;
    loss.tuples_dropped += sl.tuples_dropped;
    tracer.absorb(gen.tracer);
    tracer.absorb(step_tr);
    let gen_s = gen
        .checkpoints
        .last()
        .map_or(0.0, |(_, t)| (*t - gen.first).as_secs_f64());
    let out = Round {
        events: gen.events,
        gen_s,
        stream_rows,
        rate: gen.events as f64 / (t_all - gen.first).as_secs_f64(),
        lags,
        lag: percentiles(lags_ns),
        polls: polls.len() as u64,
        nonempty_polls,
        forwards,
        nonempty_forwards,
        stats: stats_delta(&stats0, &stats1),
        relay: stack.relay.stats(),
        loss,
        mismatched,
        problems,
        tracer,
    };
    stack.stop();
    Ok(out)
}

fn key_index(v: &Value) -> Option<usize> {
    v.as_str()
        .and_then(|k| k.strip_prefix('k'))
        .and_then(|k| k.parse::<usize>().ok())
        .filter(|&k| k < KEYS)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // Set-ups on their own first, then one more per round.
    let mut setups = Vec::new();
    let interval = if cfg.traced { PARKED } else { AGENT_INTERVAL };
    for _ in 0..SETUP_REPS {
        let (s, times) = setup(interval, interval)?;
        setups.push(times);
        s.stop();
    }
    let epoch = Instant::now();
    let rounds = (cfg.seconds as f64 / ROUND.as_secs_f64()).round().max(1.0) as u64;
    let mut all: Vec<Round> = Vec::new();
    for round in 0..rounds {
        all.push(run_round(cfg, round, &mut setups, epoch)?);
    }

    let events: u64 = all.iter().map(|r| r.events).sum();
    let stream_rows: u64 = all.iter().map(|r| r.stream_rows).sum();
    let gen_s: f64 = all.iter().map(|r| r.gen_s).sum();
    let lags: u64 = all.iter().map(|r| r.lags).sum();
    let lag_parts: Vec<[f64; 3]> = all.iter().map(|r| r.lag).collect();
    let mut stats = AgentStats::default();
    let mut rs = RelayStats::default();
    let mut loss = LossStats::default();
    let mut tracer = Tracer::new(epoch, 1 << 20);
    let mut problems = Vec::new();
    let (mut polls, mut nonempty_polls, mut forwards, mut nonempty_forwards) = (0, 0, 0, 0);
    let mut mismatched = 0;
    let rates: Vec<f64> = all.iter().map(|r| r.rate).collect();
    for r in all {
        stats = stats_sum(&stats, &r.stats);
        rs.reports_in += r.relay.reports_in;
        rs.reports_out += r.relay.reports_out;
        rs.tuples_in += r.relay.tuples_in;
        rs.tuples_out += r.relay.tuples_out;
        loss.reports_accepted += r.loss.reports_accepted;
        loss.tuples_delivered += r.loss.tuples_delivered;
        loss.tuples_dropped += r.loss.tuples_dropped;
        polls += r.polls;
        nonempty_polls += r.nonempty_polls;
        forwards += r.forwards;
        nonempty_forwards += r.nonempty_forwards;
        mismatched += r.mismatched;
        problems.extend(r.problems);
        tracer.absorb(r.tracer);
    }

    let mut out = Outcome::new(events, mismatched, problems);
    out.info(
        "setup_reps",
        format!(
            "{} (median reported), install+weave of both queries inside each",
            setups.len()
        ),
    );
    out.info(
        "load",
        format!(
            "1 generator thread, {AGENTS} agents, 1 relay, keys zipf({ZIPF_EXPONENT}) over {KEYS}"
        ),
    );
    out.info(
        "rounds",
        format!("{rounds} of up to {EVENTS_PER_ROUND} events, each on a fresh deployment"),
    );
    out.info("events", events.to_string());
    out.info("streaming_rows", stream_rows.to_string());
    out.info(
        "round_rates_per_s",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.info(
        "lag_samples",
        format!(
            "{lags} ({} per round, so {} beyond each round's p99)",
            lags / rounds,
            lags / rounds / 100
        ),
    );
    out.info("polls", polls.to_string());

    setup_metrics(&mut out.e2e, &mut out.layers, &setups);
    let e2e = &mut out.e2e;
    e2e.set("throughput_per_s", median(&rates), "1/s");
    latency_metrics(e2e, &lag_parts);

    let m = &mut out.layers;
    agent_counts(m, &stats, events);
    m.set("relay.reports_in", rs.reports_in as f64, "count");
    m.set("relay.reports_out", rs.reports_out as f64, "count");
    m.set("relay.tuples_in", rs.tuples_in as f64, "count");
    m.set("relay.tuples_out", rs.tuples_out as f64, "count");
    m.set(
        "relay.reports_in_per_out",
        rs.reports_in as f64 / rs.reports_out.max(1) as f64,
        "ratio",
    );
    m.set(
        "loss.reports_accepted",
        loss.reports_accepted as f64,
        "count",
    );
    m.set(
        "loss.tuples_delivered",
        loss.tuples_delivered as f64,
        "count",
    );
    m.set("loss.tuples_dropped", loss.tuples_dropped as f64, "count");
    m.set(
        "core.frontend_poll.nonempty_frac",
        nonempty_polls as f64 / polls.max(1) as f64,
        "ratio",
    );
    if cfg.traced {
        let tp = tracer.layer("live.tracepoint");
        m.set("live.tracepoint.calls", tp.calls as f64, "count");
        layer_metrics(m, "live.tracepoint", &tp, "ns");
        m.set(
            "live.tracepoint.busy_frac",
            tp.busy_ns() / (gen_s * 1e9),
            "ratio",
        );
        layer_metrics(
            m,
            "live.agent_flush",
            &tracer.layer("live.agent_flush"),
            "us",
        );
        layer_metrics(m, "relay.absorb", &tracer.layer("relay.absorb"), "us");
        layer_metrics(m, "relay.forward", &tracer.layer("relay.forward"), "us");
        layer_metrics(
            m,
            "core.frontend_poll",
            &tracer.layer("core.frontend_poll"),
            "us",
        );
        m.set(
            "relay.forward.nonempty_frac",
            nonempty_forwards as f64 / forwards.max(1) as f64,
            "ratio",
        );
        out.tracer = Some(tracer);
    }
    Ok(out)
}
