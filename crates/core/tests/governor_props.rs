//! Property tests for the runtime overload governor: trip → backoff →
//! re-arm is deterministic, a tripped query never executes advice, and an
//! unlimited (or never-exceeded) budget is observationally identical to
//! running ungoverned.

use std::sync::Arc;

use pivot_core::{
    Agent, Bus, Frontend, LocalBus, ProcessInfo, QueryBudget, QueryHandle, ThrottleReason,
};
use pivot_model::Value;

/// One-second virtual windows; timestamps below are in window units.
const WINDOW_NS: u64 = 1_000;

/// A budget that trips after `tuples` emitted/packed tuples per window,
/// with a 2-window base backoff that doubles on consecutive trips.
fn tight(tuples: u64) -> QueryBudget {
    QueryBudget {
        tuples_per_window: tuples,
        ops_per_window: u64::MAX,
        bytes_per_window: u64::MAX,
        window_ns: WINDOW_NS,
        backoff_base_windows: 2,
        max_backoff_doublings: 2,
    }
}

/// Frontend + agent wired over a `LocalBus`, with one streaming query
/// over a single tracepoint.
fn setup() -> (Frontend, Arc<Agent>, LocalBus, QueryHandle) {
    let mut fe = Frontend::new();
    fe.define("Gov.point", ["v"]);
    let handle = fe
        .install("From e In Gov.point Select e.v")
        .expect("governor test query compiles");
    let agent = Arc::new(Agent::new(ProcessInfo {
        host: "gov-host".into(),
        procid: 7,
        procname: "GovProc".into(),
    }));
    let mut bus = LocalBus::new();
    bus.register(Arc::clone(&agent));
    for cmd in fe.drain_commands() {
        bus.broadcast(&cmd);
    }
    (fe, agent, bus, handle)
}

fn push_budget(fe: &mut Frontend, bus: &LocalBus, handle: &QueryHandle, budget: QueryBudget) {
    fe.set_budget(handle, budget);
    for cmd in fe.drain_commands() {
        bus.broadcast(&cmd);
    }
}

fn invoke(agent: &Agent, now: u64, v: i64) {
    let mut bag = pivot_baggage::Baggage::new();
    agent.invoke("Gov.point", &mut bag, now, &[("v", Value::I64(v))]);
}

#[test]
fn breaker_trips_and_advice_stops_executing() {
    let (mut fe, agent, bus, handle) = setup();
    push_budget(&mut fe, &bus, &handle, tight(4));

    // Ten invocations inside one window: the fifth tuple strictly
    // exceeds the 4-per-window budget and trips the breaker; the rest
    // hit an unwoven tracepoint and execute no advice at all.
    for i in 0..10 {
        invoke(&agent, 1 + i, i as i64);
    }
    assert!(agent.is_tripped(handle.id));
    assert_eq!(agent.trips_for(handle.id), 1);
    assert_eq!(agent.emitted_for(handle.id), 5);

    // The throttle notification rides the next flush.
    bus.pump_into(10, &mut fe);
    let res = fe.results(&handle);
    assert_eq!(res.raw_rows().len(), 5);
    let throttles = res.throttles();
    assert_eq!(throttles.len(), 1);
    assert_eq!(throttles[0].query, handle.id);
    assert_eq!(throttles[0].reason, ThrottleReason::Tuples);
    assert_eq!(throttles[0].stats.tuples, 5);
    assert_eq!(throttles[0].stats.trips, 1);
}

#[test]
fn breaker_rearms_after_backoff_and_backoff_doubles() {
    let (mut fe, agent, bus, handle) = setup();
    push_budget(&mut fe, &bus, &handle, tight(4));

    // First trip at t=1..=5. Backoff: 2 windows (2000 ns) from t=5.
    for i in 0..6 {
        invoke(&agent, 1 + i, 0);
    }
    assert!(agent.is_tripped(handle.id));
    assert_eq!(agent.emitted_for(handle.id), 5);

    // Still open before the deadline: flush does not re-arm, invokes do
    // nothing.
    bus.pump_into(1_500, &mut fe);
    assert!(agent.is_tripped(handle.id));
    invoke(&agent, 1_600, 0);
    assert_eq!(agent.emitted_for(handle.id), 5);

    // Past the deadline the flush re-arms and re-weaves; advice runs
    // again in a fresh window.
    bus.pump_into(3_100, &mut fe);
    assert!(!agent.is_tripped(handle.id));
    invoke(&agent, 3_200, 0);
    assert_eq!(agent.emitted_for(handle.id), 6);

    // Second trip: the backoff doubles to 4 windows.
    for i in 0..5 {
        invoke(&agent, 3_300 + i, 0);
    }
    assert!(agent.is_tripped(handle.id));
    assert_eq!(agent.trips_for(handle.id), 2);
    let tripped_at = 3_303;
    // 2 windows later: still open (first-trip backoff would have cleared).
    bus.pump_into(tripped_at + 2_500, &mut fe);
    assert!(agent.is_tripped(handle.id));
    // 4 windows later: re-armed.
    bus.pump_into(tripped_at + 4_100, &mut fe);
    assert!(!agent.is_tripped(handle.id));

    // Both throttle notifications reached the frontend, in trip order.
    let throttles = fe.results(&handle).throttles();
    assert_eq!(throttles.len(), 2);
    assert_eq!(throttles[0].stats.trips, 1);
    assert_eq!(throttles[1].stats.trips, 2);
}

#[test]
fn install_and_sync_cannot_undo_an_open_breaker() {
    let (mut fe, agent, bus, handle) = setup();
    push_budget(&mut fe, &bus, &handle, tight(2));
    for i in 0..4 {
        invoke(&agent, 1 + i, 0);
    }
    assert!(agent.is_tripped(handle.id));
    let frozen = agent.emitted_for(handle.id);

    // Re-delivering the install (duplicate command, or an epoch re-sync
    // racing the trip) must not re-weave a throttled query's advice.
    agent.sync(&fe.installed());
    agent.sync_budgets(&fe.budgets());
    invoke(&agent, 100, 0);
    assert!(agent.is_tripped(handle.id));
    assert_eq!(agent.emitted_for(handle.id), frozen);
}

/// Replays the same trip/re-arm script and captures every observable:
/// rows, trip flags, emission counters, throttle frames.
fn scripted_run() -> (Vec<(u64, pivot_model::Tuple)>, Vec<bool>, u64, usize) {
    let (mut fe, agent, bus, handle) = setup();
    push_budget(&mut fe, &bus, &handle, tight(3));
    let mut trip_flags = Vec::new();
    for round in 0..6u64 {
        let base = round * 2_500;
        for i in 0..5 {
            invoke(&agent, base + 1 + i, (round * 10 + i) as i64);
        }
        trip_flags.push(agent.is_tripped(handle.id));
        bus.pump_into(base + 2_000, &mut fe);
        trip_flags.push(agent.is_tripped(handle.id));
    }
    bus.pump_into(20_000, &mut fe);
    let res = fe.results(&handle);
    let throttles = res.throttles().len();
    (
        res.raw_rows().to_vec(),
        trip_flags,
        agent.emitted_for(handle.id),
        throttles,
    )
}

#[test]
fn trip_and_rearm_sequence_is_deterministic() {
    let a = scripted_run();
    let b = scripted_run();
    assert_eq!(a, b);
    // The script must actually exercise both states.
    assert!(a.1.iter().any(|t| *t) && a.1.iter().any(|t| !*t));
    assert!(a.3 > 0);
}

/// Drives a fixed workload and returns everything the frontend saw.
fn workload_run(budget: Option<QueryBudget>) -> (Vec<(u64, pivot_model::Tuple)>, u64, usize) {
    let (mut fe, agent, bus, handle) = setup();
    if let Some(b) = budget {
        push_budget(&mut fe, &bus, &handle, b);
    }
    for i in 0..200u64 {
        invoke(&agent, i + 1, (i % 13) as i64);
        if (i + 1) % 25 == 0 {
            bus.pump_into(i + 1, &mut fe);
        }
    }
    bus.pump_into(1_000, &mut fe);
    let res = fe.results(&handle);
    (
        res.raw_rows().to_vec(),
        agent.emitted_for(handle.id),
        res.throttles().len(),
    )
}

#[test]
fn unlimited_and_generous_budgets_match_ungoverned_exactly() {
    let ungoverned = workload_run(None);
    assert_eq!(ungoverned.0.len(), 200);
    assert_eq!(ungoverned.2, 0);

    // `unlimited()` short-circuits the governed fast path entirely …
    let unlimited = workload_run(Some(QueryBudget::unlimited()));
    // … while a huge finite budget takes the charging path but never
    // trips. Both must be byte-identical to running without a governor.
    let generous = workload_run(Some(QueryBudget {
        tuples_per_window: u64::MAX - 1,
        ops_per_window: u64::MAX - 1,
        bytes_per_window: u64::MAX - 1,
        window_ns: WINDOW_NS,
        backoff_base_windows: 1,
        max_backoff_doublings: 0,
    }));
    assert_eq!(ungoverned, unlimited);
    assert_eq!(ungoverned, generous);
}

/// A budgeted and an unbudgeted query woven on the same tracepoint, so one
/// governed VM loop meters the first and runs the second unmetered.
fn mixed_setup() -> (Arc<Agent>, QueryHandle, QueryHandle) {
    let (mut fe, agent, bus, budgeted) = setup();
    let free = fe.install("From e In Gov.point GroupBy e.v Select e.v, COUNT");
    let free = free.expect("unbudgeted query compiles");
    push_budget(&mut fe, &bus, &budgeted, tight(4)); // also broadcasts the install
    (agent, budgeted, free)
}

/// `[emitted, emitted, trips, trips]` for the budgeted and the free query.
fn tallies(agent: &Agent, b: &QueryHandle, f: &QueryHandle) -> [u64; 4] {
    let trips = |q: &QueryHandle| u64::from(agent.trips_for(q.id));
    [
        agent.emitted_for(b.id),
        agent.emitted_for(f.id),
        trips(b),
        trips(f),
    ]
}

#[test]
fn budgeted_query_trips_while_unbudgeted_neighbour_keeps_emitting() {
    // Scalar invokes: the budgeted query trips on its fifth tuple and
    // stops; the unbudgeted one emits on every invocation.
    let (agent, budgeted, free) = mixed_setup();
    for i in 0..10 {
        invoke(&agent, 1 + i, i as i64);
    }
    assert_eq!(tallies(&agent, &budgeted, &free), [5, 10, 1, 0]);

    // Batched invokes: one summed charge per batch, so the budgeted query
    // trips at the end of the first batch and runs nothing in the second.
    let (agent, budgeted, free) = mixed_setup();
    let exports: Vec<[(&str, Value); 1]> = (0..10).map(|i| [("v", Value::I64(i))]).collect();
    let events: Vec<(u64, &[(&str, Value)])> = exports.iter().map(|e| (1, e.as_slice())).collect();
    for round in 1..=2 {
        agent.invoke_batch("Gov.point", &mut pivot_baggage::Baggage::new(), &events);
        assert_eq!(tallies(&agent, &budgeted, &free), [10, 10 * round, 1, 0]);
    }
}
