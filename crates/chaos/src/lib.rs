//! Seeded, deterministic fault injection for the Pivot Tracing bus.
//!
//! Distributed monitoring has to stay *honest* under the faults it is
//! meant to observe: report frames get dropped, duplicated, delayed, and
//! reordered; agents crash mid-interval and come back with empty weave
//! registries; partitions and limplocked nodes starve the report path.
//! This crate provides the machinery to test all of that reproducibly:
//!
//! - [`FaultPlan`] / [`FaultConfig`] — a *stateless* fault schedule: a
//!   pure function from `(seed, frame identity)` to a [`Verdict`], so the
//!   same seed yields a byte-identical schedule regardless of thread
//!   interleaving or draw order. `CHAOS_SEED=<n>` reproduces any failure.
//! - [`ChaosBus`] — bus middleware applying the plan to any
//!   [`pivot_core::Bus`] (local, simulated cluster, or live TCP), with
//!   [`ChaosStats`] tallying exactly what was injected.
//! - [`sim`] — a scripted two-process KV workload with crash/restart and
//!   epoch re-sync, returning outcomes whose ground-truth
//!   [`pivot_core::Ledger`]s must pass `Ledger::check` exactly; the
//!   injector's [`ChaosStats`] supply their `dropped` terms.
//!
//! The recovery machinery this crate exercises lives in `pivot-core`
//! (report sequence numbers, incarnations, `Agent::sync`, the frontend's
//! [`pivot_core::LossStats`]) and `pivot-live` (reconnect with backoff,
//! epoch re-sync over TCP); see DESIGN.md §5e.

mod bus;
mod plan;
pub mod sim;

pub use bus::{source_key, ChaosBus, ChaosStats, PlanScheduler};
pub use plan::{FaultConfig, FaultPlan, Verdict};
