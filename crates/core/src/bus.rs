//! Message-bus types connecting the frontend and the agents.
//!
//! The paper's prototype uses a central pub/sub server (Figure 2). This
//! crate defines the messages; delivery is owned by the embedding system —
//! the simulated cluster delivers them over its simulated network, while
//! [`LocalBus`] delivers instantly for tests, examples, and benches.
//!
//! Delivery *policy* is factored out of delivery *mechanics*: a
//! [`Scheduler`] decides the fate ([`Verdict`]) of every frame crossing a
//! [`SchedBus`], which owns the one shared implementation of holding,
//! releasing, duplicating, and dropping frames. Plain FIFO delivery
//! ([`FifoScheduler`]), the chaos injector's seeded fault PRF, and the
//! interleaving explorer's exhaustive schedule enumeration are all just
//! `Scheduler` implementations over the same mechanics.

use parking_lot::Mutex;
use std::sync::Arc;

use pivot_baggage::QueryId;
use pivot_model::{AggState, EncodedBlock, GroupKey, Tuple};
use pivot_query::CompiledCode;

use crate::retro::RetroReport;

/// A transport between the frontend and the per-process agents (the
/// paper's Figure 2 pub/sub server).
///
/// Implementations decide *how* [`Command`]s reach agents and how
/// [`Report`]s travel back: [`LocalBus`] delivers both synchronously inside
/// one process, the simulated cluster delivers over its virtual network,
/// and `pivot-live`'s TCP bus carries the same messages over real sockets
/// between real processes. The frontend-facing code is identical across
/// all three.
pub trait Bus {
    /// Broadcasts a frontend command to every connected agent.
    fn broadcast(&self, cmd: &Command);

    /// Collects the reports currently addressed to the frontend.
    ///
    /// `now` is the flush timestamp for transports that flush agents on
    /// demand; transports whose agents self-report on their own clocks
    /// (e.g. over TCP) ignore it.
    fn drain_reports(&self, now: u64) -> Vec<Report>;

    /// Collects the retroactive-flush reports currently addressed to the
    /// frontend. Transports predating retroactive tracing carry none, so
    /// the default is empty. `now` serves the same role as in
    /// [`Bus::drain_reports`].
    fn drain_retro(&self, now: u64) -> Vec<RetroReport> {
        let _ = now;
        Vec::new()
    }

    /// Drains pending reports (and retro reports) into `frontend`.
    fn pump_into(&self, now: u64, frontend: &mut crate::Frontend) {
        for report in self.drain_reports(now) {
            frontend.accept(report);
        }
        for retro in self.drain_retro(now) {
            frontend.accept_retro(retro);
        }
    }
}

// Shared handles forward to the underlying bus, so embeddings that hand
// out `Rc<Cluster>` / `Arc<TcpBusServer>` handles can still be wrapped by
// bus middleware such as `pivot-chaos`'s fault injector.
impl<B: Bus + ?Sized> Bus for std::rc::Rc<B> {
    fn broadcast(&self, cmd: &Command) {
        (**self).broadcast(cmd);
    }
    fn drain_reports(&self, now: u64) -> Vec<Report> {
        (**self).drain_reports(now)
    }
    fn drain_retro(&self, now: u64) -> Vec<RetroReport> {
        (**self).drain_retro(now)
    }
}

impl<B: Bus + ?Sized> Bus for Arc<B> {
    fn broadcast(&self, cmd: &Command) {
        (**self).broadcast(cmd);
    }
    fn drain_reports(&self, now: u64) -> Vec<Report> {
        (**self).drain_reports(now)
    }
    fn drain_retro(&self, now: u64) -> Vec<RetroReport> {
        (**self).drain_retro(now)
    }
}

// Boxed buses make heterogeneous topologies expressible — e.g. the relay
// tier's fan-in over subtrees that mix plain, scheduled, and chaos-wrapped
// links under one `Vec<Box<dyn Bus>>`.
impl<B: Bus + ?Sized> Bus for Box<B> {
    fn broadcast(&self, cmd: &Command) {
        (**self).broadcast(cmd);
    }
    fn drain_reports(&self, now: u64) -> Vec<Report> {
        (**self).drain_reports(now)
    }
    fn drain_retro(&self, now: u64) -> Vec<RetroReport> {
        (**self).drain_retro(now)
    }
}

/// A frontend → agents control message.
///
/// `Install` carries the *lowered* bytecode ([`CompiledCode`]), not the
/// advice-op tree: agents execute exactly the artifact the frontend
/// verified, and the wire protocol serializes flat instructions instead of
/// expression trees.
#[derive(Clone, Debug)]
pub enum Command {
    /// Weave this query's lowered advice bytecode.
    Install(Arc<CompiledCode>),
    /// Unweave every program owned by this query.
    Uninstall(QueryId),
    /// Set (or replace) the overload-governor budget for a query.
    SetBudget(QueryId, crate::governor::QueryBudget),
}

/// Partial results of one query from one process over one interval.
///
/// Besides the rows themselves, every report carries the loss-accounting
/// envelope the frontend needs to detect faults on the report path:
/// `seq` (a per-agent, per-query flush counter) exposes duplicated and
/// missing reports, and `tuples` / `emitted_cum` let the frontend balance
/// `tuples_dropped + delivered == emitted` even when whole reports vanish.
#[derive(Clone, PartialEq, Debug)]
pub struct Report {
    /// The query.
    pub query: QueryId,
    /// Reporting host.
    pub host: String,
    /// Reporting process id (with `host`, the agent's stable identity).
    pub procid: u64,
    /// Reporting process name.
    pub procname: String,
    /// Agent incarnation: distinguishes a restarted agent (whose `seq`
    /// restarts at 0) from duplicated frames of the previous life.
    pub incarnation: u64,
    /// Report timestamp (nanoseconds).
    pub time: u64,
    /// Per-(agent, query) flush sequence number, starting at 0. Consecutive
    /// on the sender; gaps or repeats on the receiver are transport faults.
    pub seq: u64,
    /// Tuples folded into this report (the delta since the previous flush).
    pub tuples: u64,
    /// Cumulative tuples emitted for this query by this agent incarnation,
    /// including the ones in this report.
    pub emitted_cum: u64,
    /// Cumulative tuples this incarnation's governor shed from bounded
    /// buffers (emitted but intentionally never delivered; the `shed`
    /// term of the loss [`crate::Ledger`]).
    pub shed_cum: u64,
    /// Cumulative tuples truncated by the baggage `All`-cap for this query
    /// on this incarnation (never emitted; informational, so the frontend
    /// can distinguish governor truncation from transport drops).
    pub truncated_cum: u64,
    /// A circuit-breaker trip that occurred since the previous flush.
    pub throttled: Option<crate::governor::Throttled>,
    /// The partial rows.
    pub rows: ReportRows,
}

/// Rows inside a report.
#[derive(Clone, PartialEq, Debug)]
pub enum ReportRows {
    /// Raw rows of a streaming (non-aggregating) query.
    Raw(Vec<Tuple>),
    /// Partially aggregated groups.
    Grouped(Vec<(GroupKey, Vec<AggState>)>),
    /// Raw rows of a streaming query, already in the columnar block
    /// encoding ([`pivot_model::EncodedBlock`]).
    ///
    /// Agents flush large streaming batches in this form so the wire
    /// layer ships (and relays re-originate) the compressed bytes
    /// without re-encoding — or, on the relay path, without decoding at
    /// all. Only the frontend materializes tuples. Each block's row
    /// count is trusted for accounting (it is validated at wire decode);
    /// the payload is validated when the frontend decodes it.
    RawEncoded(Vec<EncodedBlock>),
}

impl ReportRows {
    /// Number of rows carried.
    pub fn len(&self) -> usize {
        match self {
            ReportRows::Raw(r) => r.len(),
            ReportRows::Grouped(g) => g.len(),
            ReportRows::RawEncoded(blocks) => blocks.iter().map(EncodedBlock::rows).sum(),
        }
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An instant-delivery bus for single-process embeddings.
///
/// Registers agents, broadcasts commands synchronously, and pumps agent
/// flushes straight into the frontend.
#[derive(Default)]
pub struct LocalBus {
    agents: Vec<Arc<crate::Agent>>,
}

impl LocalBus {
    /// Creates an empty bus.
    pub fn new() -> LocalBus {
        LocalBus::default()
    }

    /// Registers an agent.
    pub fn register(&mut self, agent: Arc<crate::Agent>) {
        self.agents.push(agent);
    }

    /// Removes an agent (by identity), e.g. when a chaos harness crashes a
    /// simulated process. Unflushed tuples die with it, exactly as a real
    /// process crash would lose them.
    pub fn unregister(&mut self, agent: &Arc<crate::Agent>) {
        self.agents.retain(|a| !Arc::ptr_eq(a, agent));
    }

    /// Returns the registered agents.
    pub fn agents(&self) -> &[Arc<crate::Agent>] {
        &self.agents
    }

    /// Broadcasts a command to every agent.
    pub fn broadcast(&self, cmd: &Command) {
        Bus::broadcast(self, cmd);
    }

    /// Flushes every agent and delivers the reports to `frontend`.
    pub fn pump(&self, now: u64, frontend: &mut crate::Frontend) {
        self.pump_into(now, frontend);
    }
}

impl Bus for LocalBus {
    fn broadcast(&self, cmd: &Command) {
        broadcast_to_agents(&self.agents, cmd);
    }

    fn drain_reports(&self, now: u64) -> Vec<Report> {
        flush_agents(&self.agents, now)
    }

    fn drain_retro(&self, _now: u64) -> Vec<RetroReport> {
        self.agents.iter().flat_map(|a| a.drain_retro()).collect()
    }
}

/// Applies `cmd` to every agent — the one broadcast loop shared by
/// [`LocalBus`] and the simulated cluster's bus.
pub fn broadcast_to_agents(agents: &[Arc<crate::Agent>], cmd: &Command) {
    for a in agents {
        a.apply(cmd);
    }
}

/// Flushes every agent at `now` and collects the reports — the one
/// drain loop shared by [`LocalBus`] and the simulated cluster's bus.
pub fn flush_agents(agents: &[Arc<crate::Agent>], now: u64) -> Vec<Report> {
    agents.iter().flat_map(|a| a.flush(now)).collect()
}

/// The fate of one frame crossing a [`SchedBus`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Silently discard (tallied in [`DeliveryStats`]).
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Hold for this many nanoseconds, then deliver.
    Delay(u64),
}

/// Delivery policy for a [`SchedBus`]: decides the [`Verdict`] of every
/// command and report frame crossing the bus.
///
/// Implementations are consulted under the bus's internal lock and must
/// be pure functions of their own state plus the frame identity — the
/// chaos injector's seeded PRF and the interleaving explorer's
/// hold-everything policy both satisfy this trivially.
pub trait Scheduler {
    /// The fate of the `index`-th broadcast command frame (`index` counts
    /// admissions on this bus, starting at 0).
    fn command_verdict(&self, index: u64, cmd: &Command) -> Verdict;

    /// The fate of one report frame admitted at `now`.
    fn report_verdict(&self, report: &Report, now: u64) -> Verdict;

    /// The fate of one retroactive-flush report frame admitted at `now`.
    /// Defaults to normal delivery so pre-retro schedulers need no change.
    fn retro_verdict(&self, report: &RetroReport, now: u64) -> Verdict {
        let _ = (report, now);
        Verdict::Deliver
    }
}

/// The trivial policy: deliver everything immediately, in admission
/// order. `SchedBus<B, FifoScheduler>` behaves exactly like `B` while
/// still tallying [`DeliveryStats`].
#[derive(Clone, Copy, Default, Debug)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn command_verdict(&self, _index: u64, _cmd: &Command) -> Verdict {
        Verdict::Deliver
    }
    fn report_verdict(&self, _report: &Report, _now: u64) -> Verdict {
        Verdict::Deliver
    }
}

/// What a [`SchedBus`] did to the frames that crossed it, cumulatively.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct DeliveryStats {
    /// Report frames that crossed the bus.
    pub reports_seen: u64,
    /// Report frames discarded.
    pub reports_dropped: u64,
    /// Report frames delivered twice.
    pub reports_duplicated: u64,
    /// Report frames held for later delivery.
    pub reports_delayed: u64,
    /// Tuples carried by dropped report frames (the bus-side ground
    /// truth for the frontend's `tuples_dropped`).
    pub tuples_dropped: u64,
    /// Command frames that crossed the bus.
    pub commands_seen: u64,
    /// Command frames discarded.
    pub commands_dropped: u64,
    /// Command frames delivered twice.
    pub commands_duplicated: u64,
    /// Command frames held for later delivery.
    pub commands_delayed: u64,
    /// Retro report frames that crossed the bus.
    pub retro_seen: u64,
    /// Retro report frames discarded.
    pub retro_dropped: u64,
    /// Retro report frames delivered twice.
    pub retro_duplicated: u64,
    /// Retro report frames held for later delivery.
    pub retro_delayed: u64,
    /// Buffered events carried by dropped retro frames (the bus-side
    /// ground truth for the frontend's retro `dropped` term).
    pub retro_events_dropped: u64,
}

/// A frame currently held by a [`SchedBus`], exposed to
/// [`SchedBus::release_where`] predicates.
pub enum HeldFrame<'a> {
    /// A held command, identified by its admission index on this bus.
    Command {
        /// The admission index [`Scheduler::command_verdict`] saw.
        index: u64,
        /// The command itself.
        cmd: &'a Command,
    },
    /// A held report.
    Report(&'a Report),
    /// A held retroactive-flush report.
    Retro(&'a RetroReport),
}

struct PendingReport {
    release: u64,
    report: Report,
}

struct PendingRetro {
    release: u64,
    report: RetroReport,
}

struct PendingCommand {
    index: u64,
    delay: u64,
    /// Set on the first drain after the broadcast (the bus has no clock of
    /// its own; commands age relative to the next observed `now`).
    release: Option<u64>,
    cmd: Command,
}

#[derive(Default)]
struct SchedShared {
    pending_reports: Vec<PendingReport>,
    pending_retro: Vec<PendingRetro>,
    pending_cmds: Vec<PendingCommand>,
    stats: DeliveryStats,
    cmd_index: u64,
    disabled: bool,
    severed: bool,
}

/// Bus middleware routing every frame through a [`Scheduler`].
///
/// Owns the delivery mechanics every scheduled transport shares: pending
/// frames with release deadlines, duplicate and drop tallies, an on/off
/// switch, and a severed-link state modelling a dead connection. Works
/// over any transport — [`LocalBus`], the simulated cluster's
/// `Rc<Cluster>`, or a live `Arc<TcpBusServer>` — because it only touches
/// the [`Bus`] trait surface.
pub struct SchedBus<B, S> {
    inner: B,
    sched: S,
    shared: Mutex<SchedShared>,
}

impl<B, S> SchedBus<B, S> {
    /// Wraps `inner`, routing every frame through `sched`.
    pub fn new(inner: B, sched: S) -> SchedBus<B, S> {
        SchedBus {
            inner,
            sched,
            shared: Mutex::new(SchedShared::default()),
        }
    }

    /// The wrapped bus.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped bus, mutably (e.g. to register/unregister agents on a
    /// [`LocalBus`] when a harness crashes and restarts them).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// The delivery policy.
    pub fn scheduler(&self) -> &S {
        &self.sched
    }

    /// A snapshot of the delivery tallies.
    pub fn stats(&self) -> DeliveryStats {
        self.shared.lock().stats
    }

    /// Turns scheduling on or off. While disabled the bus is a transparent
    /// pass-through (pending frames still release on drain).
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.lock().disabled = !enabled;
    }

    /// Marks every held frame due immediately, so the next drain delivers
    /// it regardless of the clock.
    pub fn release_pending(&self) {
        self.release_where(|_| true);
    }

    /// Marks the held frames matching `pred` due immediately; returns how
    /// many matched. The interleaving explorer uses this to deliver one
    /// chosen frame per transition.
    pub fn release_where(&self, mut pred: impl FnMut(&HeldFrame) -> bool) -> usize {
        let mut sh = self.shared.lock();
        let mut n = 0;
        for p in &mut sh.pending_reports {
            if pred(&HeldFrame::Report(&p.report)) {
                p.release = 0;
                n += 1;
            }
        }
        for p in &mut sh.pending_retro {
            if pred(&HeldFrame::Retro(&p.report)) {
                p.release = 0;
                n += 1;
            }
        }
        for p in &mut sh.pending_cmds {
            if pred(&HeldFrame::Command {
                index: p.index,
                cmd: &p.cmd,
            }) {
                p.release = Some(0);
                n += 1;
            }
        }
        n
    }

    /// Frames currently held for later delivery (reports + retro reports,
    /// commands).
    pub fn pending(&self) -> (usize, usize) {
        let sh = self.shared.lock();
        (
            sh.pending_reports.len() + sh.pending_retro.len(),
            sh.pending_cmds.len(),
        )
    }

    /// Severs the link: the connection between this bus and its frontend
    /// is down. Frames admitted while severed are held regardless of
    /// their verdict (outage buffering — they deliver after
    /// [`SchedBus::restore`]), and nothing releases on drain.
    pub fn sever(&self) {
        self.shared.lock().severed = true;
    }

    /// Restores a severed link; held frames release again per their
    /// deadlines.
    pub fn restore(&self) {
        self.shared.lock().severed = false;
    }

    /// Whether the link is currently severed.
    pub fn is_severed(&self) -> bool {
        self.shared.lock().severed
    }
}

impl<B, S: Scheduler> SchedBus<B, S> {
    /// Admits one externally produced report through the scheduler, as if
    /// the inner bus had drained it at `now`. Returns any immediately
    /// deliverable copies. Harnesses that flush agents themselves (the
    /// interleaving explorer) use this instead of routing flushes through
    /// [`Bus::drain_reports`].
    pub fn offer_report(&self, report: Report, now: u64) -> Vec<Report> {
        let mut out = Vec::new();
        let mut sh = self.shared.lock();
        if sh.disabled {
            out.push(report);
            return out;
        }
        self.admit_report(&mut sh, report, now, &mut out);
        out
    }

    /// Admits one externally produced retro report through the scheduler
    /// (the retro analogue of [`SchedBus::offer_report`]).
    pub fn offer_retro(&self, report: RetroReport, now: u64) -> Vec<RetroReport> {
        let mut out = Vec::new();
        let mut sh = self.shared.lock();
        if sh.disabled {
            out.push(report);
            return out;
        }
        self.admit_retro(&mut sh, report, now, &mut out);
        out
    }

    fn admit_retro(
        &self,
        sh: &mut SchedShared,
        r: RetroReport,
        now: u64,
        out: &mut Vec<RetroReport>,
    ) {
        sh.stats.retro_seen += 1;
        let mut verdict = self.sched.retro_verdict(&r, now);
        if sh.severed {
            // Same outage buffering as ordinary reports: a dead link
            // cannot deliver now, so deliveries become holds.
            verdict = match verdict {
                Verdict::Deliver | Verdict::Duplicate => Verdict::Delay(0),
                v => v,
            };
        }
        match verdict {
            Verdict::Deliver => out.push(r),
            Verdict::Drop => {
                sh.stats.retro_dropped += 1;
                sh.stats.retro_events_dropped += r.events.len() as u64;
            }
            Verdict::Duplicate => {
                sh.stats.retro_duplicated += 1;
                out.push(r.clone());
                out.push(r);
            }
            Verdict::Delay(d) => {
                sh.stats.retro_delayed += 1;
                sh.pending_retro.push(PendingRetro {
                    release: now.saturating_add(d),
                    report: r,
                });
            }
        }
    }

    fn admit_report(&self, sh: &mut SchedShared, r: Report, now: u64, out: &mut Vec<Report>) {
        sh.stats.reports_seen += 1;
        if sh.severed && crate::mutation::silent_reader_exit() {
            // Seeded mutation (PR 4's silent reader-exit bug): the link is
            // down and the frame vanishes with no loss tally anywhere —
            // exactly the unaccounted loss the explorer's identity check
            // must catch. Compiled out without the `mutations` feature.
            return;
        }
        let mut verdict = self.sched.report_verdict(&r, now);
        if sh.severed {
            // A dead link cannot deliver now: deliveries and duplicates
            // become holds that release after restore.
            verdict = match verdict {
                Verdict::Deliver | Verdict::Duplicate => Verdict::Delay(0),
                v => v,
            };
        }
        match verdict {
            Verdict::Deliver => out.push(r),
            Verdict::Drop => {
                sh.stats.reports_dropped += 1;
                sh.stats.tuples_dropped += r.tuples;
            }
            Verdict::Duplicate => {
                sh.stats.reports_duplicated += 1;
                out.push(r.clone());
                out.push(r);
            }
            Verdict::Delay(d) => {
                sh.stats.reports_delayed += 1;
                sh.pending_reports.push(PendingReport {
                    release: now.saturating_add(d),
                    report: r,
                });
            }
        }
    }
}

impl<B: Bus, S: Scheduler> SchedBus<B, S> {
    /// End-of-run convergence: stop scheduling, release every held frame,
    /// and pump the final reports into `frontend`. After this, everything
    /// the policy did not *drop* has been delivered.
    pub fn settle_into(&self, now: u64, frontend: &mut crate::Frontend) {
        self.set_enabled(false);
        self.restore();
        self.release_pending();
        self.pump_into(now, frontend);
    }
}

impl<B: Bus, S: Scheduler> Bus for SchedBus<B, S> {
    fn broadcast(&self, cmd: &Command) {
        let mut sh = self.shared.lock();
        if sh.disabled {
            drop(sh);
            self.inner.broadcast(cmd);
            return;
        }
        sh.stats.commands_seen += 1;
        let idx = sh.cmd_index;
        sh.cmd_index += 1;
        let mut verdict = self.sched.command_verdict(idx, cmd);
        if sh.severed {
            verdict = match verdict {
                Verdict::Deliver | Verdict::Duplicate => Verdict::Delay(0),
                v => v,
            };
        }
        match verdict {
            Verdict::Deliver => {
                drop(sh);
                self.inner.broadcast(cmd);
            }
            Verdict::Drop => sh.stats.commands_dropped += 1,
            Verdict::Duplicate => {
                sh.stats.commands_duplicated += 1;
                drop(sh);
                self.inner.broadcast(cmd);
                self.inner.broadcast(cmd);
            }
            Verdict::Delay(d) => {
                sh.stats.commands_delayed += 1;
                sh.pending_cmds.push(PendingCommand {
                    index: idx,
                    delay: d,
                    release: None,
                    cmd: cmd.clone(),
                });
            }
        }
    }

    fn drain_reports(&self, now: u64) -> Vec<Report> {
        let mut sh = self.shared.lock();
        let mut out = Vec::new();
        if !sh.severed {
            // Release due commands before draining, so a late install
            // weaves before this round's flush rather than after it.
            let mut due_cmds = Vec::new();
            sh.pending_cmds.retain_mut(|p| {
                let rel = *p.release.get_or_insert_with(|| now.saturating_add(p.delay));
                if rel <= now {
                    due_cmds.push(p.cmd.clone());
                    false
                } else {
                    true
                }
            });
            for cmd in &due_cmds {
                self.inner.broadcast(cmd);
            }

            let mut i = 0;
            while i < sh.pending_reports.len() {
                if sh.pending_reports[i].release <= now {
                    out.push(sh.pending_reports.swap_remove(i).report);
                } else {
                    i += 1;
                }
            }
        }

        let fresh = self.inner.drain_reports(now);
        if sh.disabled {
            out.extend(fresh);
            return out;
        }
        for r in fresh {
            self.admit_report(&mut sh, r, now, &mut out);
        }
        out
    }

    fn drain_retro(&self, now: u64) -> Vec<RetroReport> {
        let mut sh = self.shared.lock();
        let mut out = Vec::new();
        if !sh.severed {
            let mut i = 0;
            while i < sh.pending_retro.len() {
                if sh.pending_retro[i].release <= now {
                    out.push(sh.pending_retro.swap_remove(i).report);
                } else {
                    i += 1;
                }
            }
        }
        let fresh = self.inner.drain_retro(now);
        if sh.disabled {
            out.extend(fresh);
            return out;
        }
        for r in fresh {
            self.admit_retro(&mut sh, r, now, &mut out);
        }
        out
    }
}
