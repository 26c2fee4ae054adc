//! Live (real sockets, real processes-worth-of-threads) tree topology:
//! agents → two relays → frontend. Pins that the tier is transparent to
//! leaves (same connect/Hello/Sync dance), that the frontend sees relay
//! peers rather than a thundering herd of agents, that results and loss
//! accounting stay exact through the tree, and that a relay crash
//! mid-window surfaces its residue while both sides recover through
//! reconnect + epoch re-sync.

use std::time::{Duration, Instant};

use pivot_baggage::Baggage;
use pivot_core::{Ledger, ProcessInfo, QueryHandle};
use pivot_live::{tracepoint, ConnStatus, LiveAgent, LiveFrontend};
use pivot_model::Value;
use pivot_relay::live::RelayServer;

const QUERY: &str = "From e In Exec GroupBy e.k Select e.k, SUM(e.v)";

fn agent_info(slot: u64) -> ProcessInfo {
    ProcessInfo {
        host: format!("host-{slot}"),
        procid: slot,
        procname: "worker".into(),
    }
}

fn relay_info(slot: u64) -> ProcessInfo {
    ProcessInfo {
        host: format!("relay-{slot}"),
        procid: slot,
        procname: "pivot-relay".into(),
    }
}

fn drive(agent: &LiveAgent, key: &str, n: u64) {
    for _ in 0..n {
        let scope = pivot_live::attach(Baggage::new());
        tracepoint(
            agent.agent(),
            "Exec",
            &[("k", Value::str(key)), ("v", Value::I64(1))],
        );
        drop(scope);
    }
}

/// Polls (relay flushes + frontend drain) until the SUM over all groups
/// reaches `want`, or panics at the deadline.
fn wait_for_total(fe: &mut LiveFrontend, handle: &QueryHandle, relays: &[&RelayServer], want: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        for r in relays {
            r.flush_now();
        }
        let got: i64 = fe
            .results(handle)
            .rows()
            .iter()
            .filter_map(|r| r.values[1].as_f64())
            .map(|v| v as i64)
            .sum();
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "total never reached {want} (last: {got})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn agents_report_through_two_relays() {
    let mut fe = LiveFrontend::start().expect("frontend starts");
    fe.define("Exec", ["k", "v"]);
    let handle = fe.install_named("Q", QUERY).expect("query installs");

    // Two relays join upstream; the frontend counts them as relay peers,
    // not agents.
    let relay_a = RelayServer::start(fe.addr(), relay_info(0), Duration::from_millis(20))
        .expect("relay A starts");
    let relay_b = RelayServer::start(fe.addr(), relay_info(1), Duration::from_millis(20))
        .expect("relay B starts");
    assert!(fe.bus().wait_for_relays(2, Duration::from_secs(10)));
    assert_eq!(
        fe.bus().agent_count(),
        0,
        "no leaf connects to the frontend"
    );
    assert!(relay_a.uplink().wait_for_epoch(1, Duration::from_secs(10)));
    assert!(relay_b.uplink().wait_for_epoch(1, Duration::from_secs(10)));

    // Three agents per relay, connecting exactly as they would to a
    // frontend — the tier is invisible to leaves.
    let interval = Duration::from_millis(10);
    let mut agents = Vec::new();
    for slot in 0..3u64 {
        agents.push(LiveAgent::connect(relay_a.addr(), agent_info(slot), interval).expect("agent"));
    }
    for slot in 3..6u64 {
        agents.push(LiveAgent::connect(relay_b.addr(), agent_info(slot), interval).expect("agent"));
    }
    assert!(relay_a
        .downstream()
        .wait_for_agents(3, Duration::from_secs(10)));
    assert!(relay_b
        .downstream()
        .wait_for_agents(3, Duration::from_secs(10)));
    for agent in &agents {
        // The downstream Sync (proxied from the upstream one) carries the
        // installed query; epoch ≥ 1 proves it arrived.
        assert!(agent.uplink().wait_for_epoch(1, Duration::from_secs(10)));
        assert!(agent.agent().registry().has_query(handle.id));
    }

    for (i, agent) in agents.iter().enumerate() {
        drive(agent, if i % 2 == 0 { "even" } else { "odd" }, 10);
        agent.flush_now();
    }
    wait_for_total(&mut fe, &handle, &[&relay_a, &relay_b], 60);

    // Books balance through the tree, and the frontend heard from relay
    // identities only.
    let res = fe.results(&handle);
    let loss = res.loss();
    assert_eq!(loss.tuples_emitted, 60);
    assert_eq!(loss.tuples_delivered, 60);
    assert_eq!(loss.tuples_dropped, 0);
    assert!(!loss.is_degraded());
    let stats_a = relay_a.stats();
    let stats_b = relay_b.stats();
    assert_eq!(stats_a.tuples_in + stats_b.tuples_in, 60);
    assert!(
        stats_a.reports_out < stats_a.reports_in,
        "relay A coalesced {} inbound reports into {}",
        stats_a.reports_in,
        stats_a.reports_out
    );

    for agent in &agents {
        agent.shutdown();
    }
    relay_a.shutdown();
    relay_b.shutdown();
}

#[test]
fn relay_crash_mid_window_surfaces_residue_and_recovers() {
    let mut fe = LiveFrontend::start().expect("frontend starts");
    fe.define("Exec", ["k", "v"]);
    let handle = fe.install_named("Q", QUERY).expect("query installs");

    // A long flush interval makes the window state deterministic: only
    // explicit flush_now()/pull_now() calls move data upstream.
    let relay = RelayServer::start(fe.addr(), relay_info(0), Duration::from_secs(30))
        .expect("relay starts");
    assert!(relay.uplink().wait_for_epoch(1, Duration::from_secs(10)));

    let interval = Duration::from_secs(30); // explicit flushes only
    let agents: Vec<LiveAgent> = (0..2u64)
        .map(|slot| LiveAgent::connect(relay.addr(), agent_info(slot), interval).expect("agent"))
        .collect();
    assert!(relay
        .downstream()
        .wait_for_agents(2, Duration::from_secs(10)));
    for agent in &agents {
        assert!(agent.uplink().wait_for_epoch(1, Duration::from_secs(10)));
    }

    // Phase 1: delivered end-to-end before the fault.
    for agent in &agents {
        drive(agent, "pre", 10);
        agent.flush_now();
    }
    wait_for_total(&mut fe, &handle, &[&relay], 20);

    // Phase 2: absorbed into the relay's open window but never flushed.
    for agent in &agents {
        drive(agent, "mid", 5);
        agent.flush_now();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while relay.core().buffered_tuples() < 10 {
        relay.pull_now();
        assert!(
            Instant::now() < deadline,
            "window never absorbed phase 2 (buffered: {})",
            relay.core().buffered_tuples()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Crash: the open window dies and is surfaced, not hidden.
    let old_incarnation = relay.core().incarnation();
    let residue = relay.crash();
    assert_eq!(residue.window_tuples, 10, "phase 2 died with the window");
    assert_ne!(relay.core().incarnation(), old_incarnation);

    // Both sides recover against the same listener: the relay re-registers
    // upstream (healing its query shapes from the answering Sync), and the
    // severed agents reconnect downstream.
    let deadline = Instant::now() + Duration::from_secs(20);
    while relay.uplink().status() != ConnStatus::Connected || relay.uplink().reconnects() < 1 {
        assert!(Instant::now() < deadline, "relay upstream never recovered");
        std::thread::sleep(Duration::from_millis(5));
    }
    for agent in &agents {
        let deadline = Instant::now() + Duration::from_secs(20);
        while agent.uplink().status() != ConnStatus::Connected || agent.uplink().reconnects() < 1 {
            assert!(Instant::now() < deadline, "agent never reconnected");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Phase 3: flows again through the restarted relay.
    for agent in &agents {
        drive(agent, "post", 7);
        agent.flush_now();
    }
    wait_for_total(&mut fe, &handle, &[&relay], 34);

    // The loss identity holds end-to-end: 44 emitted by the agents,
    // 34 delivered, 10 destroyed by the relay crash (surfaced as the
    // residue), 0 unaccounted. Each relay incarnation balances at the
    // frontend on its own.
    let loss = fe.results(&handle).loss();
    assert_eq!(loss.tuples_delivered, 34);
    assert_eq!(loss.tuples_dropped, 0, "no silent transport loss");
    let mut books = Ledger {
        delivered: loss.tuples_delivered,
        dropped: loss.tuples_dropped,
        crash_lost: residue.window_tuples,
        ..Ledger::default()
    };
    for agent in &agents {
        books.add_agent(agent.agent(), &[handle.id]);
    }
    assert_eq!(books.emitted, 44);
    assert_eq!(books.check(), Ok(()));

    for agent in &agents {
        agent.shutdown();
    }
    relay.shutdown();
}
