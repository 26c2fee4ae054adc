//! Fault-injecting bus middleware.
//!
//! [`ChaosBus`] wraps any [`Bus`] and applies a [`FaultPlan`] to the
//! frames crossing it: report frames can be dropped, duplicated, or held
//! for later (delays double as partitions and limplock); command frames
//! can be duplicated or held, never dropped. Everything the injector does
//! is tallied in [`ChaosStats`], whose `tuples_dropped` is the `dropped`
//! term of the harnesses' ground-truth [`pivot_core::Ledger`].
//!
//! The delivery *mechanics* — pending frames, release deadlines, the
//! tallies themselves — live in [`pivot_core::SchedBus`]; this module
//! only contributes the policy: [`PlanScheduler`] turns the seeded fault
//! PRF into a [`pivot_core::Scheduler`].

use pivot_core::{Bus, Command, Frontend, Report, RetroReport, SchedBus, Scheduler, Verdict};

use crate::plan::FaultPlan;

/// What the injector did, cumulatively (the chaos-facing name for the
/// shared [`pivot_core::DeliveryStats`] tallies).
pub use pivot_core::DeliveryStats as ChaosStats;

/// Stable identity of a reporting process for fault-schedule keying:
/// a hash of `(host, procid)`. Deliberately excludes the agent
/// incarnation so restarts keep the same schedule (see `plan.rs`).
pub fn source_key(host: &str, procid: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in host.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ pivot_simrt::mix64(procid)
}

/// The fault PRF as a delivery policy: every verdict comes from the
/// stateless [`FaultPlan`], keyed by frame identity.
pub struct PlanScheduler {
    plan: FaultPlan,
}

impl Scheduler for PlanScheduler {
    fn command_verdict(&self, index: u64, _cmd: &Command) -> Verdict {
        match self.plan.command_verdict(index) {
            // Commands are never dropped — a permanently lost install is
            // indistinguishable from "not installed", which the epoch
            // re-sync path covers instead.
            Verdict::Drop => Verdict::Deliver,
            v => v,
        }
    }

    fn report_verdict(&self, r: &Report, now: u64) -> Verdict {
        self.plan
            .report_verdict(source_key(&r.host, r.procid), r.query.0, r.seq, now)
    }

    fn retro_verdict(&self, r: &RetroReport, now: u64) -> Verdict {
        self.plan
            .retro_verdict(source_key(&r.host, r.procid), r.seq, now)
    }
}

/// A [`Bus`] wrapper that injects the faults a [`FaultPlan`] schedules.
///
/// Works over any transport — [`pivot_core::LocalBus`], the simulated
/// cluster's `Rc<Cluster>`, or a live `Arc<TcpBusServer>` — because it
/// only touches the `Bus` trait surface.
pub struct ChaosBus<B> {
    bus: SchedBus<B, PlanScheduler>,
}

impl<B> ChaosBus<B> {
    /// Wraps `inner`, scheduling faults from `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> ChaosBus<B> {
        ChaosBus {
            bus: SchedBus::new(inner, PlanScheduler { plan }),
        }
    }

    /// The wrapped bus.
    pub fn inner(&self) -> &B {
        self.bus.inner()
    }

    /// The wrapped bus, mutably (e.g. to register/unregister agents on a
    /// `LocalBus` when the harness crashes and restarts them).
    pub fn inner_mut(&mut self) -> &mut B {
        self.bus.inner_mut()
    }

    /// The fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.bus.scheduler().plan
    }

    /// A snapshot of the injection tallies.
    pub fn stats(&self) -> ChaosStats {
        self.bus.stats()
    }

    /// Turns injection on or off. While disabled the bus is a transparent
    /// pass-through (pending frames still release on drain).
    pub fn set_enabled(&self, enabled: bool) {
        self.bus.set_enabled(enabled);
    }

    /// Marks every held frame due immediately, so the next drain delivers
    /// it regardless of the clock.
    pub fn release_pending(&self) {
        self.bus.release_pending();
    }

    /// Frames currently held for later delivery (reports, commands).
    pub fn pending(&self) -> (usize, usize) {
        self.bus.pending()
    }
}

impl<B: Bus> ChaosBus<B> {
    /// End-of-run convergence: stop injecting, release every held frame,
    /// and pump the final reports into `frontend`. After this, everything
    /// the plan did not *drop* has been delivered.
    pub fn settle_into(&self, now: u64, frontend: &mut Frontend) {
        self.bus.settle_into(now, frontend);
    }
}

impl<B: Bus> Bus for ChaosBus<B> {
    fn broadcast(&self, cmd: &Command) {
        self.bus.broadcast(cmd);
    }

    fn drain_reports(&self, now: u64) -> Vec<Report> {
        self.bus.drain_reports(now)
    }

    fn drain_retro(&self, now: u64) -> Vec<RetroReport> {
        self.bus.drain_retro(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultConfig;
    use pivot_core::LocalBus;

    #[test]
    fn disabled_bus_is_transparent() {
        let chaos = ChaosBus::new(LocalBus::new(), FaultPlan::from_seed(3));
        chaos.set_enabled(false);
        assert!(chaos.drain_reports(0).is_empty());
        assert_eq!(chaos.stats(), ChaosStats::default());
    }

    #[test]
    fn source_key_is_stable_and_separates_hosts() {
        assert_eq!(source_key("host-A", 1), source_key("host-A", 1));
        assert_ne!(source_key("host-A", 1), source_key("host-B", 1));
        assert_ne!(source_key("host-A", 1), source_key("host-A", 2));
    }

    #[test]
    fn off_plan_passes_everything_but_counts_frames() {
        let chaos = ChaosBus::new(LocalBus::new(), FaultPlan::new(1, FaultConfig::off()));
        chaos.broadcast(&Command::Uninstall(pivot_baggage::QueryId(9)));
        let st = chaos.stats();
        assert_eq!(st.commands_seen, 1);
        assert_eq!(st.commands_duplicated + st.commands_delayed, 0);
    }
}
