//! `kv-q1` and `kv-unwoven`: a closed loop of KV clients against the
//! live sharded KV service over loopback TCP, with Q1 woven or not.
//!
//! Deployment: one `LiveFrontend`, a client-process and a server-process
//! `LiveAgent` reporting every 100 ms, a `KvServer` with 2 shards, and 2
//! `KvClient` connections, each driven by its own load thread. Each load
//! thread owns a disjoint key space, so it can check every reply against
//! its own reference model.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pivot_baggage::Baggage;
use pivot_core::agent::AgentStats;
use pivot_core::{Agent, LossStats, ProcessInfo, QueryHandle};
use pivot_live::service::{define_kv_tracepoints, KvClient, KvServer};
use pivot_live::{ctx, tracepoint, LiveAgent, LiveFrontend};
use pivot_model::Value;

use crate::gen::{Rng, Zipf};
use crate::measure::{
    latency_metrics, layer_metrics, median, nanos, percentiles, setup_metrics, wait_until, Metrics,
    SetupTimes, Tracer,
};
use crate::{Config, Outcome};

/// The paper's Q1, on the KV service's tracepoints.
const Q1: &str = "From exec In KvShard.execute \
     Join req In First(KvClient.issueRequest) On req -> exec \
     GroupBy req.client \
     Select req.client, COUNT, SUM(exec.bytes)";

const CLIENTS: usize = 2;
const SHARDS: usize = 2;
const KEYS: usize = 1024;
const ZIPF_EXPONENT: f64 = 0.99;
const REPORT_INTERVAL: Duration = Duration::from_millis(100);
/// Traffic before the measured time: lets connections, allocators and
/// the server's maps warm up.
const WARMUP: Duration = Duration::from_secs(1);
/// The measured time is split into windows of this length. Throughput
/// and the latency percentiles are medians over the windows, so a
/// second-long stall of a shared host moves them little.
const WINDOW: Duration = Duration::from_secs(1);
/// The main thread's phase-check period; a multiple of it is the report
/// interval at which it polls the frontend.
const TICK: Duration = Duration::from_millis(20);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// In the traced run, every n-th request keeps its spans and samples
/// the baggage header size.
const SPAN_STRIDE: u64 = 64;
/// Traced runs drive agent flushes themselves; the agents' own
/// reporters are parked on this interval.
const PARKED: Duration = Duration::from_secs(3600);
const TIMEOUT: Duration = Duration::from_secs(20);

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

fn info(procname: &str, procid: u64) -> ProcessInfo {
    ProcessInfo {
        host: "localhost".into(),
        procid,
        procname: procname.into(),
    }
}

struct Stack {
    fe: LiveFrontend,
    client_agent: LiveAgent,
    server_agent: LiveAgent,
    server: KvServer,
    conns: Vec<KvClient>,
    q1: Option<QueryHandle>,
}

/// Start until Q1 is woven on both agents (or, unwoven, until both
/// agents are registered and the clients connected).
fn setup(woven: bool, interval: Duration) -> Result<(Stack, SetupTimes), String> {
    let t0 = Instant::now();
    let io = |e: std::io::Error| e.to_string();
    let mut fe = LiveFrontend::start().map_err(io)?;
    define_kv_tracepoints(fe.frontend_mut());
    let client_agent = LiveAgent::connect(fe.addr(), info("kvclient", 2), interval).map_err(io)?;
    let server_agent = LiveAgent::connect(fe.addr(), info("kvserver", 1), interval).map_err(io)?;
    wait_until("both agents to register", TIMEOUT, || {
        fe.bus().agent_count() == 2
    })?;
    let server = KvServer::start(SHARDS, Arc::clone(server_agent.agent())).map_err(io)?;
    let conns = (0..CLIENTS)
        .map(|_| KvClient::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    let (mut install_ms, mut weave_ms, mut q1) = (0.0, 0.0, None);
    if woven {
        let t_install = Instant::now();
        let handle = fe.install(Q1).map_err(|e| e.to_string())?;
        let t_woven = Instant::now();
        wait_until("Q1 to be woven on both agents", TIMEOUT, || {
            [&client_agent, &server_agent]
                .iter()
                .all(|a| a.agent().registry().has_query(handle.id))
        })?;
        install_ms = (t_woven - t_install).as_secs_f64() * 1e3;
        weave_ms = t_woven.elapsed().as_secs_f64() * 1e3;
        q1 = Some(handle);
    }
    let total_s = t0.elapsed().as_secs_f64();
    Ok((
        Stack {
            fe,
            client_agent,
            server_agent,
            server,
            conns,
            q1,
        },
        SetupTimes {
            total_s,
            install_ms,
            weave_ms,
        },
    ))
}

impl Stack {
    fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
        self.client_agent.shutdown();
        self.server_agent.shutdown();
    }

    fn loss(&mut self) -> LossStats {
        q1_loss(&mut self.fe, self.q1.as_ref())
    }
}

/// Shared between the load threads and the main thread.
struct Control {
    phase: AtomicU8,
    /// The measurement window requests now complete in.
    window: AtomicUsize,
    done: AtomicU64,
}

/// What one load thread did.
struct ClientOut {
    completed: u64,
    failed: u64,
    wrong: u64,
    bytes: u64,
    tracer: Tracer,
    /// Traced run: request time not covered by a timed child call.
    unexplained_ns: u64,
    request_ns: u64,
    header_bytes: u64,
    header_samples: u64,
    problems: Vec<String>,
}

fn client_name(idx: usize) -> String {
    format!("client-{idx}")
}

/// One load thread: a closed loop of seeded gets (1/3) and puts (2/3)
/// over Zipf-skewed keys, each reply checked against a reference model.
fn client_loop(
    idx: usize,
    conn: &mut KvClient,
    agent: &Agent,
    cfg: &Config,
    ctl: &Control,
    epoch: Instant,
    samples: &Sender<WindowSamples>,
) -> ClientOut {
    let traced = cfg.traced;
    let keys: Vec<(String, Value)> = (0..KEYS)
        .map(|k| {
            let s = format!("c{idx}-k{k:04}");
            let v = Value::str(&s);
            (s, v)
        })
        .collect();
    let name = Value::str(client_name(idx));
    let (get_op, put_op) = (Value::str("get"), Value::str("put"));
    let zipf = Zipf::new(KEYS, ZIPF_EXPONENT);
    let mut rng = Rng::new(cfg.seed, idx as u64 + 1);
    let mut model: Vec<Option<Vec<u8>>> = vec![None; KEYS];
    let mut out = ClientOut {
        completed: 0,
        failed: 0,
        wrong: 0,
        bytes: 0,
        tracer: Tracer::new(epoch, idx as u64 + 1),
        unexplained_ns: 0,
        request_ns: 0,
        header_bytes: 0,
        header_samples: 0,
        problems: Vec::new(),
    };
    let mut req_id = (idx as u64 + 1) << 40;
    let mut window: WindowSamples = (0, Vec::new());
    loop {
        let phase = ctl.phase.load(Ordering::Acquire);
        if phase == STOP {
            break;
        }
        req_id += 1;
        let k = zipf.sample(&mut rng);
        let is_get = rng.below(3) == 0;
        let value: Vec<u8> = if is_get {
            Vec::new()
        } else {
            let len = 64 + rng.below(192) as usize;
            let mut v = Vec::with_capacity(len + 8);
            while v.len() < len {
                v.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            v.truncate(len);
            v
        };
        let (key, key_val) = &keys[k];

        let t0 = Instant::now();
        let scope = pivot_live::attach(Baggage::new());
        tracepoint(
            agent,
            "KvClient.issueRequest",
            &[
                ("client", name.clone()),
                (
                    "op",
                    if is_get {
                        get_op.clone()
                    } else {
                        put_op.clone()
                    },
                ),
                ("key", key_val.clone()),
            ],
        );
        let t1 = Instant::now();
        let measured = phase == MEASURE;
        let keep = traced && measured && req_id.is_multiple_of(SPAN_STRIDE);
        let mut t_rt = t1;
        if keep {
            out.header_bytes += ctx::snapshot_bytes().len() as u64;
            out.header_samples += 1;
            t_rt = Instant::now();
        }
        let result = if is_get {
            conn.get(key)
        } else {
            conn.put(key, &value)
        };
        let t2 = Instant::now();
        drop(scope);
        let t3 = Instant::now();

        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                out.failed += 1;
                out.problems
                    .push(format!("{}: request failed: {e}", client_name(idx)));
                break;
            }
        };
        out.completed += 1;
        ctl.done.fetch_add(1, Ordering::Relaxed);
        if is_get {
            let want = model[k].as_deref();
            if reply.hit != want.is_some() || reply.value != want.unwrap_or_default() {
                out.wrong += 1;
            }
            out.bytes += reply.value.len() as u64;
        } else {
            if !reply.hit || !reply.value.is_empty() {
                out.wrong += 1;
            }
            out.bytes += value.len() as u64;
            model[k] = Some(value);
        }

        if measured {
            let w = ctl.window.load(Ordering::Acquire);
            if w != window.0 {
                let _ = samples.send(std::mem::replace(&mut window, (w, Vec::new())));
            }
            window.1.push(nanos(t3 - t0));
            if traced {
                let tr = &mut out.tracer;
                let parent = tr.record("kv.request", t0, t3, 0, req_id, keep);
                tr.record("live.tracepoint", t0, t1, parent, req_id, keep);
                if keep {
                    tr.record("baggage.snapshot", t1, t_rt, parent, req_id, true);
                }
                tr.record("live.kv_round_trip", t_rt, t2, parent, req_id, keep);
                let request = nanos(t3 - t0);
                let explained = nanos(t1 - t0) + nanos(t2 - t1);
                out.request_ns += request;
                out.unexplained_ns += request.saturating_sub(explained);
            }
        }
    }
    let _ = samples.send(window);
    if out.wrong > 0 {
        out.problems.push(format!(
            "{}: {} replies differ from the reference model",
            client_name(idx),
            out.wrong
        ));
    }
    out
}

/// A load thread's latency samples of one measurement window.
type WindowSamples = (usize, Vec<u64>);

/// Per-window latency percentiles. Load threads hand over a window's
/// samples when they move past it, and a window is reduced to its
/// percentiles once every thread has, so only open windows are held in
/// memory and the benchmark's own samples barely show in `peak_rss_mb`.
#[derive(Default)]
struct WindowStats {
    open: BTreeMap<usize, (Vec<u64>, usize)>,
    /// Window -> (percentiles in ns, samples).
    closed: BTreeMap<usize, ([f64; 3], u64)>,
}

impl WindowStats {
    fn add(&mut self, (w, samples): WindowSamples) {
        let entry = self.open.entry(w).or_default();
        entry.0.extend(samples);
        entry.1 += 1;
        if entry.1 == CLIENTS {
            self.close(w);
        }
    }

    fn close(&mut self, w: usize) {
        if let Some((samples, _)) = self.open.remove(&w) {
            let n = samples.len() as u64;
            self.closed.insert(w, (percentiles(samples), n));
        }
    }

    /// The percentiles of the first `windows` windows, and their sample
    /// count. Requests completing after the last window closed belong to
    /// no window: they are checked but not timed.
    fn finish(mut self, windows: usize) -> (Vec<[f64; 3]>, u64) {
        let open: Vec<usize> = self.open.keys().copied().collect();
        for w in open {
            self.close(w);
        }
        let kept: Vec<_> = self.closed.range(..windows).map(|(_, v)| *v).collect();
        (
            kept.iter().map(|(p, _)| *p).collect(),
            kept.iter().map(|(_, n)| n).sum(),
        )
    }
}

/// What the measured deployment produced.
struct Measured {
    attempted: u64,
    failed: u64,
    /// Per measurement window: completed requests per second, and the
    /// window's latency percentiles in ns.
    rates: Vec<f64>,
    percentiles: Vec<[f64; 3]>,
    latencies: u64,
    measured_s: f64,
    polls: u64,
    nonempty_polls: u64,
    stats: AgentStats,
    loss: LossStats,
    unexplained_ns: u64,
    request_ns: u64,
    header_bytes: u64,
    header_samples: u64,
    problems: Vec<String>,
    tracer: Tracer,
}

/// Warms up, measures for `run` in windows, stops the load, then checks
/// Q1's results against the clients' tallies.
fn measure(cfg: &Config, stack: &mut Stack, run: Duration) -> Measured {
    let ctl = Control {
        phase: AtomicU8::new(WARM),
        window: AtomicUsize::new(0),
        done: AtomicU64::new(0),
    };
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let (mut polls, mut nonempty_polls) = (0u64, 0u64);
    let (mut t_measure, mut t_stop) = (epoch, epoch);
    let mut rates = Vec::new();
    let (mut stats0, mut stats1) = (AgentStats::default(), AgentStats::default());

    let q1 = stack.q1.clone();
    let Stack {
        fe,
        client_agent,
        server_agent,
        conns,
        ..
    } = stack;
    let (client_agent, server_agent): (&LiveAgent, &LiveAgent) = (client_agent, server_agent);
    let (samples_tx, samples_rx) = channel();
    let mut windows = WindowStats::default();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(idx, conn)| {
                let (ctl, tx) = (&ctl, samples_tx.clone());
                let agent = client_agent.agent();
                s.spawn(move || client_loop(idx, conn, agent, cfg, ctl, epoch, &tx))
            })
            .collect();

        // Main thread: drives the phases and windows, polls the frontend
        // every report interval, and in the traced run flushes the
        // agents itself at that cadence.
        let mut next_tick = epoch;
        let mut next_window = epoch;
        let mut last = (0, epoch);
        let mut accepted = 0;
        loop {
            next_tick += TICK;
            std::thread::sleep(next_tick.saturating_duration_since(Instant::now()));
            let report_tick = (next_tick - epoch)
                .as_nanos()
                .is_multiple_of(REPORT_INTERVAL.as_nanos());
            if cfg.traced && report_tick {
                for a in [client_agent, server_agent] {
                    let t = Instant::now();
                    a.flush_now();
                    tracer.record("live.agent_flush", t, Instant::now(), 0, 0, true);
                }
            }
            if report_tick {
                let t = Instant::now();
                fe.poll();
                if cfg.traced {
                    tracer.record("core.frontend_poll", t, Instant::now(), 0, 0, true);
                }
                polls += 1;
                let now_accepted = q1_loss(fe, q1.as_ref()).reports_accepted;
                if now_accepted > accepted {
                    nonempty_polls += 1;
                    accepted = now_accepted;
                }
            }
            for w in samples_rx.try_iter() {
                windows.add(w);
            }
            let now = Instant::now();
            let done = ctl.done.load(Ordering::Relaxed);
            match ctl.phase.load(Ordering::Relaxed) {
                WARM if now >= epoch + WARMUP => {
                    t_measure = now;
                    (last, next_window) = ((done, now), now + WINDOW);
                    stats0 = sum_stats(client_agent, server_agent);
                    ctl.phase.store(MEASURE, Ordering::Release);
                }
                MEASURE if now >= next_window => {
                    rates.push((done - last.0) as f64 / (now - last.1).as_secs_f64());
                    (last, next_window) = ((done, now), next_window + WINDOW);
                    ctl.window.fetch_add(1, Ordering::Release);
                    if now >= t_measure + run {
                        t_stop = now;
                        stats1 = sum_stats(client_agent, server_agent);
                        ctl.phase.store(STOP, Ordering::Release);
                        break;
                    }
                }
                _ => {}
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });

    let mut m = Measured {
        attempted: 0,
        failed: 0,
        percentiles: Vec::new(),
        latencies: 0,
        measured_s: (t_stop - t_measure).as_secs_f64(),
        polls,
        nonempty_polls,
        stats: stats_delta(&stats0, &stats1),
        loss: LossStats::default(),
        unexplained_ns: 0,
        request_ns: 0,
        header_bytes: 0,
        header_samples: 0,
        problems: Vec::new(),
        tracer,
        rates,
    };
    drop(samples_tx);
    for w in samples_rx {
        windows.add(w);
    }
    (m.percentiles, m.latencies) = windows.finish(m.rates.len());
    let mut completed = 0;
    let mut per_client = Vec::new();
    for o in outs {
        completed += o.completed;
        m.attempted += o.completed + o.failed;
        m.failed += o.failed + o.wrong;
        m.unexplained_ns += o.unexplained_ns;
        m.request_ns += o.request_ns;
        m.header_bytes += o.header_bytes;
        m.header_samples += o.header_samples;
        per_client.push((o.completed, o.bytes));
        m.problems.extend(o.problems);
        m.tracer.absorb(o.tracer);
    }

    // Reference checks on the query results.
    if let Some(q1) = q1 {
        stack.client_agent.flush_now();
        stack.server_agent.flush_now();
        let settled = wait_until("Q1 results to settle", TIMEOUT, || {
            stack.fe.poll();
            stack.loss().tuples_delivered >= completed
        });
        if let Err(e) = settled {
            m.problems.push(e);
        }
        let loss = stack.loss();
        if loss.tuples_emitted != completed
            || loss.tuples_delivered != completed
            || loss.tuples_dropped != 0
            || loss.tuples_shed != 0
            || loss.reports_missed != 0
        {
            m.failed += completed.abs_diff(loss.tuples_delivered).max(1);
            m.problems.push(format!(
                "Q1 loss books do not balance: {completed} requests, {loss:?}"
            ));
        }
        m.loss = loss;
        let rows = stack.fe.frontend_mut().results(&q1).rows();
        for (idx, (count, bytes)) in per_client.iter().enumerate() {
            let name = client_name(idx);
            let row = rows
                .iter()
                .find(|row| row.values.first().and_then(Value::as_str) == Some(name.as_str()));
            let got = row.map(|row| {
                (
                    row.values[1].as_f64().unwrap_or(-1.0),
                    row.values[2].as_f64().unwrap_or(-1.0),
                )
            });
            if got != Some((*count as f64, *bytes as f64)) {
                m.failed += 1;
                m.problems.push(format!(
                    "Q1 row for {name}: got (COUNT, SUM) {got:?}, reference ({count}, {bytes})"
                ));
            }
        }
        if rows.len() != CLIENTS {
            m.failed += 1;
            m.problems
                .push(format!("Q1 has {} groups, want {CLIENTS}", rows.len()));
        }
    } else if sum_stats(&stack.client_agent, &stack.server_agent).advised_invocations != 0 {
        m.failed += 1;
        m.problems
            .push("advice ran although no query was installed".to_owned());
    }
    m
}

pub fn run(cfg: &Config, woven: bool) -> Result<Outcome, String> {
    // `setup_s` is the median of several set-ups; the last one stays up
    // for the measurement.
    let interval = if cfg.traced { PARKED } else { REPORT_INTERVAL };
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = stack.take() {
            Stack::stop(s);
        }
        let (s, times) = setup(woven, interval)?;
        setups.push(times);
        stack = Some(s);
    }
    let mut stack = stack.expect("at least one set-up");
    let r = measure(cfg, &mut stack, Duration::from_secs(cfg.seconds));
    stack.stop();

    let mut out = Outcome::new(r.attempted, r.failed, r.problems);
    out.info(
        "setup_reps",
        format!(
            "{} (median reported){}",
            setups.len(),
            if woven {
                ", install+weave of Q1 inside each"
            } else {
                ""
            }
        ),
    );
    out.info(
        "load",
        format!("{CLIENTS} closed-loop clients, {SHARDS} shards, keys zipf({ZIPF_EXPONENT}) over {KEYS} per client"),
    );
    out.info(
        "windows",
        format!(
            "{} of {:.3} s after {:.3} s warm-up",
            r.rates.len(),
            WINDOW.as_secs_f64(),
            WARMUP.as_secs_f64()
        ),
    );
    out.info(
        "window_rates_per_s",
        r.rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let windows = r.rates.len().max(1) as u64;
    out.info(
        "latency_samples",
        format!(
            "{} ({} per window, so {} beyond each window's p99)",
            r.latencies,
            r.latencies / windows,
            r.latencies / windows / 100
        ),
    );

    setup_metrics(&mut out.e2e, &mut out.layers, &setups);
    let e2e = &mut out.e2e;
    e2e.set("throughput_per_s", median(&r.rates), "1/s");
    latency_metrics(e2e, &r.percentiles);

    let m = &mut out.layers;
    agent_counts(m, &r.stats, r.latencies);
    m.set(
        "loss.reports_accepted",
        r.loss.reports_accepted as f64,
        "count",
    );
    m.set(
        "loss.tuples_delivered",
        r.loss.tuples_delivered as f64,
        "count",
    );
    m.set("loss.tuples_dropped", r.loss.tuples_dropped as f64, "count");
    m.set(
        "core.frontend_poll.nonempty_frac",
        r.nonempty_polls as f64 / r.polls.max(1) as f64,
        "ratio",
    );
    if cfg.traced {
        let tracer = r.tracer;
        let tp = tracer.layer("live.tracepoint");
        m.set("live.tracepoint.calls", tp.calls as f64, "count");
        layer_metrics(m, "live.tracepoint", &tp, "ns");
        m.set(
            "live.tracepoint.busy_frac",
            tp.busy_ns() / (r.measured_s * 1e9 * CLIENTS as f64),
            "ratio",
        );
        layer_metrics(
            m,
            "live.kv_round_trip",
            &tracer.layer("live.kv_round_trip"),
            "us",
        );
        layer_metrics(
            m,
            "live.agent_flush",
            &tracer.layer("live.agent_flush"),
            "us",
        );
        layer_metrics(
            m,
            "core.frontend_poll",
            &tracer.layer("core.frontend_poll"),
            "us",
        );
        m.set(
            "baggage.header_bytes",
            r.header_bytes as f64 / r.header_samples.max(1) as f64,
            "B",
        );
        m.set("trace.request.self_s", r.unexplained_ns as f64 / 1e9, "s");
        m.set(
            "trace.request.unexplained_frac",
            r.unexplained_ns as f64 / r.request_ns.max(1) as f64,
            "ratio",
        );
        out.tracer = Some(tracer);
    }
    Ok(out)
}

fn q1_loss(fe: &mut LiveFrontend, q1: Option<&QueryHandle>) -> LossStats {
    q1.map(|h| fe.frontend_mut().results(h).loss())
        .unwrap_or_default()
}

fn sum_stats(a: &LiveAgent, b: &LiveAgent) -> AgentStats {
    stats_sum(&a.agent().stats(), &b.agent().stats())
}

pub fn stats_sum(a: &AgentStats, b: &AgentStats) -> AgentStats {
    AgentStats {
        idle_invocations: a.idle_invocations + b.idle_invocations,
        advised_invocations: a.advised_invocations + b.advised_invocations,
        tuples_packed: a.tuples_packed + b.tuples_packed,
        tuples_emitted: a.tuples_emitted + b.tuples_emitted,
        rows_reported: a.rows_reported + b.rows_reported,
    }
}

pub fn stats_delta(before: &AgentStats, after: &AgentStats) -> AgentStats {
    AgentStats {
        idle_invocations: after.idle_invocations - before.idle_invocations,
        advised_invocations: after.advised_invocations - before.advised_invocations,
        tuples_packed: after.tuples_packed - before.tuples_packed,
        tuples_emitted: after.tuples_emitted - before.tuples_emitted,
        rows_reported: after.rows_reported - before.rows_reported,
    }
}

/// `AgentStats` over the measured windows, per operation.
pub fn agent_counts(m: &mut Metrics, stats: &AgentStats, ops: u64) {
    let per = |n: u64| n as f64 / ops.max(1) as f64;
    m.set(
        "agent.advised_per_op",
        per(stats.advised_invocations),
        "count/op",
    );
    m.set("agent.idle_per_op", per(stats.idle_invocations), "count/op");
    m.set(
        "agent.tuples_packed_per_op",
        per(stats.tuples_packed),
        "count/op",
    );
    m.set(
        "agent.tuples_emitted_per_op",
        per(stats.tuples_emitted),
        "count/op",
    );
    m.set(
        "agent.rows_reported_per_op",
        per(stats.rows_reported),
        "count/op",
    );
}
