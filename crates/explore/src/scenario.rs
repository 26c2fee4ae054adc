//! The canonical small-scope scenario the explorer enumerates.
//!
//! Model checking the full system at arbitrary scale is hopeless; the
//! small-scope hypothesis says most protocol bugs already manifest in the
//! smallest configuration that can express them. This scenario is that
//! configuration for the Pivot Tracing report/recovery protocol: one
//! frontend, 2–4 agents, one grouped query with a tight overload budget,
//! and a scripted workload that drives every interesting protocol edge —
//! install/budget broadcast, normal rounds, a severed link buffering an
//! overload storm, a crash losing unflushed tuples, and two epoch
//! re-syncs (one to the crashed agent's replacement, one to the agent
//! behind the healed link whose breaker is still open).
//!
//! The script is a fixed chain of [`STEPS`] workload steps; everything
//! *between* steps — which held frame is delivered next — is the
//! explorer's choice. Step metadata ([`step_touches`], [`step_fe_write`])
//! feeds the DPOR independence relation in [`crate::dpor`].

use pivot_core::QueryBudget;

/// Virtual nanoseconds per workload step. The clock advances only on
/// `Step` transitions (never on deliveries), so timestamps are a pure
/// function of script position and independent transitions commute
/// exactly.
pub const TICK: u64 = 1_000_000;

/// The scenario's one query: grouped aggregation over the `Exec`
/// tracepoint. Grouped (not streaming) so result merging is
/// order-insensitive and the frontend digest is stable across
/// report-delivery reorderings.
pub const QUERY: &str = "From e In Exec GroupBy e.k Select e.k, SUM(e.v)";

/// Per-query cap on buffered rows: small enough that the storm step
/// sheds, exercising the `shed` term of the loss ledger.
pub const ROW_CAP: usize = 8;

/// Number of scripted workload steps (transitions `Step(0..STEPS)`).
pub const STEPS: usize = 9;

/// The index of the agent whose link is severed during the storm.
pub const SEVERED_SLOT: usize = 1;

/// The index of the agent that crashes mid-run.
pub const CRASHED_SLOT: usize = 0;

/// A small-scope configuration: how many agents sit behind the one
/// frontend. The script itself is fixed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scenario {
    /// Number of agents (2–4; 2 is exhaustively explorable in CI).
    pub agents: usize,
}

impl Scenario {
    /// A scenario with `agents` agents, clamped to the supported 2–4
    /// range.
    pub fn new(agents: usize) -> Scenario {
        Scenario {
            agents: agents.clamp(2, 4),
        }
    }
}

impl Default for Scenario {
    fn default() -> Scenario {
        Scenario { agents: 2 }
    }
}

/// The tight per-query budget: 16 tuples per one-second window, backoff
/// long enough (64 windows) that a breaker tripped mid-run never re-arms
/// before the run ends — so "sync cannot unthrottle" is checkable at
/// every later transition. The window never rolls over either: the whole
/// run spans well under one window.
pub fn storm_budget() -> QueryBudget {
    QueryBudget {
        tuples_per_window: 16,
        window_ns: 1_000_000_000,
        backoff_base_windows: 64,
        max_backoff_doublings: 0,
        ..QueryBudget::unlimited()
    }
}

/// The step-8 replacement budget the frontend broadcasts mid-run: looser
/// than [`storm_budget`] but still finite, so the `SetBudget` frame races
/// the final round's reports without re-arming the severed agent's
/// still-open breaker (replacing a budget must never unthrottle).
pub fn relaxed_budget() -> QueryBudget {
    QueryBudget {
        tuples_per_window: 64,
        window_ns: 1_000_000_000,
        backoff_base_windows: 64,
        max_backoff_doublings: 0,
        ..QueryBudget::unlimited()
    }
}

/// Whether workload step `k` touches agent/link `slot` — the
/// conservative footprint driving `Step × delivery` (in)dependence.
pub fn step_touches(k: usize, slot: usize) -> bool {
    match k {
        // Install + budget broadcast and the three invoke/flush rounds
        // touch every agent and admit frames on every link.
        0 | 1 | 4 | 7 => true,
        // Sever, storm, restore+re-sync, and the rebudget finale only
        // involve the severed agent's link.
        2 | 3 | 6 | 8 => slot == SEVERED_SLOT,
        // The crash replaces only the crashed agent.
        5 => slot == CRASHED_SLOT,
        _ => false,
    }
}

/// Whether workload step `k` writes frontend state that report delivery
/// also touches (step 0 creates the query's result accumulator).
pub fn step_fe_write(k: usize) -> bool {
    k == 0
}

/// Human-readable name of workload step `k`, for schedule files and
/// violation reports.
pub fn step_name(k: usize) -> &'static str {
    match k {
        0 => "install-query-and-budget",
        1 => "round1-invoke-and-flush",
        2 => "sever-link",
        3 => "storm-and-flush-severed",
        4 => "round2-invoke-flush-most",
        5 => "crash-agent",
        6 => "restore-link-and-resync",
        7 => "round3-invoke-and-flush",
        8 => "rebudget-racing-final-round",
        _ => "past-end",
    }
}
