//! Scheduler-controlled execution of one small-scope configuration.
//!
//! Each agent sits behind its own [`SchedBus`] whose [`HoldScheduler`]
//! holds every frame indefinitely, so nothing moves unless the explorer
//! delivers it: an [`Execution`] applies one [`TransKey`] at a time —
//! a held command, a held report, a pending epoch re-sync, or the next
//! scripted workload step — and checks the protocol invariants after
//! every transition.
//!
//! The agents never flush through [`Bus::drain_reports`]; the harness
//! flushes them at script steps and admits the reports through
//! [`SchedBus::offer_report`], so report frames only ever move when the
//! explorer picks their transition. The virtual clock advances only on
//! workload steps (never on deliveries), which keeps every timestamp a
//! pure function of script position — the commutativity the DPOR
//! independence relation relies on.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use pivot_baggage::{Baggage, QueryId};
use pivot_core::{
    Agent, Bus, Command, Frontend, HeldFrame, Ledger, ProcessInfo, QueryHandle, Report, SchedBus,
    Scheduler, Verdict,
};
use pivot_model::Value;
use pivot_query::CompiledCode;

use crate::scenario::{self, Scenario, CRASHED_SLOT, QUERY, ROW_CAP, SEVERED_SLOT, STEPS, TICK};
use crate::schedule::{Schedule, TransKey};

/// The explorer's delivery policy: hold every frame forever. Delivery
/// happens only through [`SchedBus::release_where`] when the explorer
/// executes that frame's transition.
#[derive(Clone, Copy, Default, Debug)]
pub struct HoldScheduler;

impl Scheduler for HoldScheduler {
    fn command_verdict(&self, _index: u64, _cmd: &Command) -> Verdict {
        Verdict::Delay(u64::MAX)
    }
    fn report_verdict(&self, _report: &Report, _now: u64) -> Verdict {
        Verdict::Delay(u64::MAX)
    }
}

/// The bus endpoint behind one link: broadcasts apply to the slot's
/// *current* agent (the cell is swapped on crash/replacement), and
/// drains return nothing — the harness flushes agents explicitly, so a
/// bus drain can never move tuples behind the explorer's back.
pub struct AgentPort {
    cell: Arc<Mutex<Arc<Agent>>>,
}

impl Bus for AgentPort {
    fn broadcast(&self, cmd: &Command) {
        self.cell.lock().unwrap().apply(cmd);
    }
    fn drain_reports(&self, _now: u64) -> Vec<Report> {
        Vec::new()
    }
}

/// One agent slot: its scheduled link and the current agent incarnation.
struct Link {
    bus: SchedBus<AgentPort, HoldScheduler>,
    cell: Arc<Mutex<Arc<Agent>>>,
    /// Generation within this slot: 0 originally, +1 per crash.
    gen: u64,
}

impl Link {
    fn agent(&self) -> Arc<Agent> {
        Arc::clone(&self.cell.lock().unwrap())
    }
}

/// An epoch re-sync in flight to one agent, snapshotted at enqueue time
/// (the frontend's installed set and budgets as of the moment the
/// reconnect/replacement happened).
struct PendingSync {
    agent: usize,
    n: u64,
    installed: Vec<Arc<CompiledCode>>,
    budgets: Vec<(QueryId, pivot_core::QueryBudget)>,
}

/// The protocol invariants the explorer checks on every schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Invariant {
    /// Terminal: the tuple [`Ledger`] fails [`Ledger::check`] — tuples
    /// vanished without any loss tally (or were counted twice).
    LossIdentity,
    /// An agent has a query woven while that query's circuit breaker is
    /// open (an epoch re-sync undid a trip).
    WovenWhileTripped,
    /// A per-incarnation breaker trip count decreased.
    TripsDecreased,
    /// The frontend's install epoch regressed.
    EpochRegressed,
    /// The frontend counted delivered tuples past the agents' emission
    /// counters, or accepted a frame twice (duplicate suppression
    /// failed).
    DoubleCount,
}

impl Invariant {
    /// All invariants, for documentation and CLI listings.
    pub fn all() -> [Invariant; 5] {
        [
            Invariant::LossIdentity,
            Invariant::WovenWhileTripped,
            Invariant::TripsDecreased,
            Invariant::EpochRegressed,
            Invariant::DoubleCount,
        ]
    }

    /// Stable kebab-case name (used in schedule files).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::LossIdentity => "loss-identity",
            Invariant::WovenWhileTripped => "woven-while-tripped",
            Invariant::TripsDecreased => "trips-decreased",
            Invariant::EpochRegressed => "epoch-regressed",
            Invariant::DoubleCount => "double-count",
        }
    }

    /// Parses a name produced by [`Invariant::name`].
    pub fn parse(s: &str) -> Option<Invariant> {
        Invariant::all().into_iter().find(|i| i.name() == s)
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An invariant violation together with the exact transition sequence
/// that produced it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Human-readable specifics (counter values, slots).
    pub detail: String,
    /// The violating schedule: replaying exactly these transitions
    /// reproduces the violation.
    pub schedule: Vec<TransKey>,
}

impl Violation {
    /// Packages the violation as a replayable [`Schedule`] file.
    pub fn to_schedule(&self, scenario: &Scenario, mutation: Option<&str>) -> Schedule {
        Schedule {
            agents: scenario.agents,
            mutation: mutation.map(str::to_owned),
            invariant: Some(self.invariant.name().to_owned()),
            steps: self.schedule.clone(),
        }
    }
}

/// One scheduler-controlled execution of the scenario, from its initial
/// state through an explorer-chosen transition sequence.
pub struct Execution {
    scenario: Scenario,
    fe: Frontend,
    handle: Option<QueryHandle>,
    links: Vec<Link>,
    /// Raw incarnation number → (slot, generation). Incarnations come
    /// from a process-global counter and are not stable across
    /// re-executions; everything explorer-visible uses (slot, gen).
    incarnations: HashMap<u64, (usize, u64)>,
    pending_syncs: Vec<PendingSync>,
    sync_counter: u64,
    next_step: usize,
    /// Monotonicity baseline: (slot, gen) → last observed trip count.
    trips_seen: HashMap<(usize, u64), u32>,
    last_epoch: u64,
    /// Ground-truth books of the crashed incarnations, for the terminal
    /// loss identity.
    dead: Ledger,
}

impl Execution {
    /// Sets up the initial configuration: a frontend knowing the `Exec`
    /// tracepoint and `agents` fresh agents, each behind a hold-all
    /// scheduled link. Nothing is installed yet — that is step 0.
    pub fn new(scenario: &Scenario) -> Execution {
        let mut fe = Frontend::new();
        fe.define("Exec", ["k", "v"]);
        let mut links = Vec::new();
        let mut incarnations = HashMap::new();
        for slot in 0..scenario.agents {
            let agent = fresh_agent(slot);
            incarnations.insert(agent.incarnation(), (slot, 0));
            let cell = Arc::new(Mutex::new(agent));
            let bus = SchedBus::new(
                AgentPort {
                    cell: Arc::clone(&cell),
                },
                HoldScheduler,
            );
            links.push(Link { bus, cell, gen: 0 });
        }
        Execution {
            scenario: *scenario,
            fe,
            handle: None,
            links,
            incarnations,
            pending_syncs: Vec::new(),
            sync_counter: 0,
            next_step: 0,
            trips_seen: HashMap::new(),
            last_epoch: 0,
            dead: Ledger::default(),
        }
    }

    /// Re-executes `prefix` from the initial state. Returns the
    /// resulting execution and the first invariant violation hit along
    /// the way (with its schedule truncated to the violating prefix).
    /// `Err` means the prefix diverged — a transition was not enabled
    /// where the schedule claimed it would be.
    pub fn run_prefix(
        scenario: &Scenario,
        prefix: &[TransKey],
    ) -> Result<(Execution, Option<Violation>), String> {
        let mut exec = Execution::new(scenario);
        for (i, &t) in prefix.iter().enumerate() {
            match exec.apply(t) {
                Err(e) => return Err(format!("transition {i} (`{t}`): {e}")),
                Ok(Some((invariant, detail))) => {
                    let violation = Violation {
                        invariant,
                        detail,
                        schedule: prefix[..=i].to_vec(),
                    };
                    return Ok((exec, Some(violation)));
                }
                Ok(None) => {}
            }
        }
        Ok((exec, None))
    }

    /// The virtual clock: advances only with script progress.
    fn now(&self) -> u64 {
        (self.next_step as u64 + 1) * TICK
    }

    /// The held frames of `slot`'s link as transition keys, regardless
    /// of sever state (severed links' frames are *held*, not enabled).
    fn held_keys(&self, slot: usize) -> Vec<TransKey> {
        let mut out = Vec::new();
        self.links[slot].bus.release_where(|f| {
            match f {
                HeldFrame::Command { index, .. } => out.push(TransKey::Cmd {
                    link: slot,
                    idx: *index,
                }),
                HeldFrame::Report(r) => {
                    let (s, g) = self.incarnations[&r.incarnation];
                    debug_assert_eq!(s, slot, "report held on a foreign link");
                    out.push(TransKey::Rep {
                        link: slot,
                        gen: g,
                        query: r.query.0,
                        seq: r.seq,
                    });
                }
                // The explorer's scenarios never enable retroactive
                // tracing, so no retro frame can be held here.
                HeldFrame::Retro(_) => {}
            }
            false // visit only; release nothing
        });
        out
    }

    /// The currently enabled transitions, in deterministic (DFS) order:
    /// deliveries first, then re-syncs, then the next workload step.
    pub fn enabled(&self) -> Vec<TransKey> {
        let mut out = Vec::new();
        for slot in 0..self.links.len() {
            if self.links[slot].bus.is_severed() {
                continue;
            }
            out.extend(self.held_keys(slot));
        }
        for ps in &self.pending_syncs {
            if !self.links[ps.agent].bus.is_severed() {
                out.push(TransKey::Sync {
                    agent: ps.agent,
                    n: ps.n,
                });
            }
        }
        if self.next_step < STEPS {
            out.push(TransKey::Step(self.next_step));
        }
        out.sort_unstable();
        out
    }

    /// `true` once no transition is enabled (the script is done and
    /// every deliverable frame has been delivered).
    pub fn is_terminal(&self) -> bool {
        self.enabled().is_empty()
    }

    /// Applies one transition. `Err` when the transition is not
    /// currently enabled; otherwise the first invariant violated by the
    /// resulting state, if any.
    pub fn apply(&mut self, t: TransKey) -> Result<Option<(Invariant, String)>, String> {
        if !self.enabled().contains(&t) {
            return Err(format!("transition `{t}` is not enabled"));
        }
        match t {
            TransKey::Cmd { link, idx } => {
                let released = self.links[link].bus.release_where(
                    |f| matches!(f, HeldFrame::Command { index, .. } if *index == idx),
                );
                debug_assert_eq!(released, 1);
                // The drain broadcasts the released command into the
                // agent; AgentPort's drain contributes nothing fresh.
                let stray = self.links[link].bus.drain_reports(self.now());
                for r in stray {
                    self.fe.accept(r);
                }
            }
            TransKey::Rep {
                link,
                gen,
                query,
                seq,
            } => {
                let incarnations = &self.incarnations;
                let released = self.links[link].bus.release_where(|f| match f {
                    HeldFrame::Report(r) => {
                        incarnations[&r.incarnation] == (link, gen)
                            && r.query.0 == query
                            && r.seq == seq
                    }
                    HeldFrame::Command { .. } | HeldFrame::Retro(_) => false,
                });
                debug_assert_eq!(released, 1);
                let reports = self.links[link].bus.drain_reports(self.now());
                for r in reports {
                    self.fe.accept(r);
                }
            }
            TransKey::Sync { agent, n } => {
                let pos = self
                    .pending_syncs
                    .iter()
                    .position(|ps| ps.agent == agent && ps.n == n)
                    .ok_or_else(|| format!("sync {agent}/{n} vanished"))?;
                let ps = self.pending_syncs.remove(pos);
                let a = self.links[agent].agent();
                a.sync(&ps.installed);
                a.sync_budgets(&ps.budgets);
            }
            TransKey::Step(k) => self.apply_step(k)?,
        }
        Ok(self.check_invariants())
    }

    fn apply_step(&mut self, k: usize) -> Result<(), String> {
        let now = (k as u64 + 1) * TICK;
        let agents = self.scenario.agents;
        match k {
            // Install the query and its tight budget; the resulting
            // Install/SetBudget commands are admitted (and held) on
            // every link.
            0 => {
                let handle = self
                    .fe
                    .install_named("Q", QUERY)
                    .map_err(|e| format!("install failed: {e}"))?;
                self.fe.set_budget(&handle, scenario::storm_budget());
                self.handle = Some(handle);
                for cmd in self.fe.drain_commands() {
                    for link in &self.links {
                        link.bus.broadcast(&cmd);
                    }
                }
            }
            // A normal round: agent `i` emits `i + 2` tuples, everyone
            // flushes.
            1 => {
                for slot in 0..agents {
                    for j in 0..slot + 2 {
                        self.invoke(slot, now, &format!("r1-{slot}-{j}"));
                    }
                }
                for slot in 0..agents {
                    self.flush_and_offer(slot, now);
                }
            }
            // The severed agent's frontend link goes down; frames it
            // admits from here on are held until restore.
            2 => self.links[SEVERED_SLOT].bus.sever(),
            // An emission storm on the severed agent: blows the tuple
            // budget (breaker trips) and the row cap (rows shed), then
            // flushes into the dead link.
            3 => {
                for j in 0..40 {
                    self.invoke(SEVERED_SLOT, now, &format!("s-{j}"));
                }
                self.flush_and_offer(SEVERED_SLOT, now);
            }
            // Another round, but the crash victim does not flush — its
            // round-2 tuples must die with it as `crash_lost`.
            4 => {
                for slot in 0..agents {
                    for j in 0..2 {
                        self.invoke(slot, now, &format!("r2-{slot}-{j}"));
                    }
                }
                for slot in 0..agents {
                    if slot != CRASHED_SLOT {
                        self.flush_and_offer(slot, now);
                    }
                }
            }
            // Crash: unflushed tuples are tallied as ground truth and
            // lost; a fresh-generation agent takes the slot and an epoch
            // re-sync to it is enqueued.
            5 => self.crash(CRASHED_SLOT, now),
            // The severed link heals; the frontend re-syncs the agent
            // behind it (whose breaker, tripped during the storm, is
            // still open — the re-sync must not re-weave).
            6 => {
                self.links[SEVERED_SLOT].bus.restore();
                self.enqueue_sync(SEVERED_SLOT);
            }
            // A final round so post-recovery behaviour is observable.
            7 => {
                for slot in 0..agents {
                    self.invoke(slot, now, &format!("r3-{slot}"));
                }
                for slot in 0..agents {
                    self.flush_and_offer(slot, now);
                }
            }
            // The governor's control frames join the alphabet: the
            // frontend replaces the budget mid-flight, and the resulting
            // `SetBudget` frame races whatever round-3 reports are still
            // held on the severed agent's link — the agent whose breaker
            // tripped during the storm and is still open. Whatever order
            // the explorer picks, replacing a budget must never re-arm
            // that breaker or unbalance the loss books. (One link and no
            // extra round: the racing partners are step 7's frames, and
            // keeping the step frame-light keeps 2 agents exhaustively
            // explorable in CI.)
            8 => {
                let handle = self.handle.clone().ok_or("no installed query")?;
                self.fe.set_budget(&handle, scenario::relaxed_budget());
                for cmd in self.fe.drain_commands() {
                    self.links[SEVERED_SLOT].bus.broadcast(&cmd);
                }
            }
            _ => return Err(format!("no such step {k}")),
        }
        self.next_step = k + 1;
        Ok(())
    }

    fn invoke(&self, slot: usize, now: u64, key: &str) {
        let a = self.links[slot].agent();
        let mut bag = Baggage::new();
        a.invoke(
            "Exec",
            &mut bag,
            now,
            &[("k", Value::str(key)), ("v", Value::I64(1))],
        );
    }

    fn flush_and_offer(&mut self, slot: usize, now: u64) {
        let a = self.links[slot].agent();
        for report in a.flush(now) {
            // Hold-all scheduling makes this empty, but a disabled or
            // pass-through bus would deliver immediately.
            let immediate = self.links[slot].bus.offer_report(report, now);
            for r in immediate {
                self.fe.accept(r);
            }
        }
    }

    fn crash(&mut self, slot: usize, now: u64) {
        let old = self.links[slot].agent();
        if let Some(handle) = &self.handle {
            self.dead.add_agent(&old, &[handle.id]);
        }
        // Flushed at the moment of death but never offered to the bus:
        // these tuples are the ground truth for `crash_lost`.
        self.dead.add_crash_flush(&old, now);
        let agent = fresh_agent(slot);
        self.links[slot].gen += 1;
        self.incarnations
            .insert(agent.incarnation(), (slot, self.links[slot].gen));
        // The slot keeps its cell (the bus endpoint holds it); only the
        // agent inside swaps, so held commands now apply to the fresh
        // incarnation — exactly like a reconnecting live agent.
        *self.links[slot].cell.lock().unwrap() = agent;
        self.enqueue_sync(slot);
    }

    fn enqueue_sync(&mut self, slot: usize) {
        self.pending_syncs.push(PendingSync {
            agent: slot,
            n: self.sync_counter,
            installed: self.fe.installed(),
            budgets: self.fe.budgets(),
        });
        self.sync_counter += 1;
    }

    /// Per-transition invariants (everything except the terminal loss
    /// identity).
    fn check_invariants(&mut self) -> Option<(Invariant, String)> {
        let epoch = self.fe.epoch();
        if epoch < self.last_epoch {
            return Some((
                Invariant::EpochRegressed,
                format!("epoch went {} -> {epoch}", self.last_epoch),
            ));
        }
        self.last_epoch = epoch;
        let handle = self.handle.as_ref()?;
        let q = handle.id;
        for (slot, link) in self.links.iter().enumerate() {
            let a = link.agent();
            let trips = a.trips_for(q);
            let seen = self.trips_seen.entry((slot, link.gen)).or_insert(0);
            if trips < *seen {
                return Some((
                    Invariant::TripsDecreased,
                    format!(
                        "agent {slot} gen {}: trips went {seen} -> {trips}",
                        link.gen
                    ),
                ));
            }
            *seen = trips;
            if a.is_tripped(q) && a.registry().has_query(q) {
                return Some((
                    Invariant::WovenWhileTripped,
                    format!(
                        "agent {slot} gen {}: query {} is woven while its breaker is open",
                        link.gen, q.0
                    ),
                ));
            }
        }
        let loss = self.fe.results(handle).loss();
        if loss.reports_duplicate != 0 {
            return Some((
                Invariant::DoubleCount,
                format!(
                    "frontend saw {} duplicate reports on a bus that never duplicates",
                    loss.reports_duplicate
                ),
            ));
        }
        if loss.tuples_delivered > loss.tuples_emitted {
            return Some((
                Invariant::DoubleCount,
                format!(
                    "delivered {} tuples > emitted view {}",
                    loss.tuples_delivered, loss.tuples_emitted
                ),
            ));
        }
        None
    }

    /// The terminal loss identity, checked once no transition is
    /// enabled: every tuple any incarnation ever emitted is delivered,
    /// governor-shed, transport-dropped, or crash-lost — against
    /// *ground-truth* agent counters, not the frontend's (possibly
    /// deceived) view.
    pub fn terminal_check(&self) -> Option<(Invariant, String)> {
        let handle = self.handle.as_ref()?;
        let mut books = self.dead;
        books.delivered = self.fe.results(handle).loss().tuples_delivered;
        for link in &self.links {
            books.add_agent(&link.agent(), &[handle.id]);
            books.dropped += link.bus.stats().tuples_dropped;
        }
        books
            .check()
            .err()
            .map(|e| (Invariant::LossIdentity, e.to_string()))
    }

    /// A digest of the whole configuration state — frontend, agents,
    /// links (sever state, tallies, held frames), pending re-syncs,
    /// script position, and ground-truth tallies — stable across
    /// re-executions of the same transition sequence. The explorer's
    /// state cache keys on this.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(s, "n{};", self.next_step);
        let incarnations = &self.incarnations;
        let fe_digest = self.fe.state_digest(&mut |inc| {
            incarnations
                .get(&inc)
                .map_or(u64::MAX, |(slot, gen)| ((*slot as u64) << 32) | *gen)
        });
        let _ = write!(s, "f{fe_digest:016x};");
        for (slot, link) in self.links.iter().enumerate() {
            let _ = write!(
                s,
                "a{slot}:{:016x}|{}|{}|{:?};",
                link.agent().state_digest(),
                link.gen,
                link.bus.is_severed(),
                link.bus.stats(),
            );
            let mut held = self.held_keys(slot);
            held.sort_unstable();
            for k in held {
                let _ = write!(s, "h{k};");
            }
        }
        let mut syncs: Vec<(usize, u64)> =
            self.pending_syncs.iter().map(|p| (p.agent, p.n)).collect();
        syncs.sort_unstable();
        let _ = write!(s, "y{syncs:?};t{:?}", self.dead);
        crate::fnv64(s.as_bytes())
    }
}

fn fresh_agent(slot: usize) -> Arc<Agent> {
    let agent = Arc::new(Agent::new(ProcessInfo {
        host: format!("host-{slot}"),
        procid: slot as u64,
        procname: "worker".into(),
    }));
    agent.set_row_cap(ROW_CAP);
    agent
}

/// Replays a schedule file deterministically: re-executes exactly its
/// transitions and reports the violation it reproduces (or `None` if it
/// runs clean). `Err` when the schedule diverges from what the scenario
/// can actually do — e.g. a fixture from an older scenario revision.
pub fn replay(sched: &Schedule) -> Result<Option<Violation>, String> {
    let scenario = Scenario::new(sched.agents);
    let (exec, violation) = Execution::run_prefix(&scenario, &sched.steps)?;
    if violation.is_some() {
        return Ok(violation);
    }
    if exec.is_terminal() {
        if let Some((invariant, detail)) = exec.terminal_check() {
            return Ok(Some(Violation {
                invariant,
                detail,
                schedule: sched.steps.clone(),
            }));
        }
    }
    Ok(None)
}
