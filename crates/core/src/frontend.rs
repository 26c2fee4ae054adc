//! The Pivot Tracing frontend: query installation and result collection.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use pivot_analyze::{Analyzer, Diagnostic};
use pivot_baggage::QueryId;
use pivot_model::{AggState, GroupKey, Tuple, Value};
use pivot_query::advice::ColumnRef;
use pivot_query::{
    compile, CompileError, CompiledCode, CompiledQuery, Options, OutputSpec, Query, Resolver,
};

use crate::bus::{Command, Report, ReportRows};
use crate::governor::{QueryBudget, Throttled};
use crate::ledger::SeqWindow;
use crate::retro::RetroReport;
use crate::tracepoint::TracepointDef;

/// A handle to an installed query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryHandle {
    /// The query's identity.
    pub id: QueryId,
    /// The query's name (auto-assigned `Q<n>` unless given).
    pub name: String,
}

/// One output row of a query, laid out in `Select` order.
#[derive(Clone, PartialEq, Debug)]
pub struct ResultRow {
    /// Report timestamp (nanoseconds); 0 for cumulative snapshots.
    pub time: u64,
    /// Values in `Select` order.
    pub values: Vec<Value>,
}

/// Per-query loss accounting, aggregated over every reporting agent.
///
/// A faulty transport can drop, duplicate, or reorder reports; these
/// counters make the damage visible instead of silently wrong:
/// duplicates are suppressed before merging (so aggregates never double
/// count), gaps in the per-agent sequence space are surfaced as
/// `reports_missed`, and the tuple counters balance as
/// `tuples_delivered + tuples_shed + tuples_dropped == tuples_emitted`
/// (where `tuples_emitted` is the frontend's latest view of each agent's
/// cumulative emission counter, and `tuples_shed` is what the agents'
/// overload governor intentionally discarded from bounded buffers —
/// distinguishable from `tuples_dropped`, the transport's losses).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LossStats {
    /// Reports merged into the results.
    pub reports_accepted: u64,
    /// Reports suppressed as duplicates (same agent, same sequence number).
    pub reports_duplicate: u64,
    /// Sequence-number gaps: reports known to exist but never received.
    pub reports_missed: u64,
    /// Tuples carried by accepted reports.
    pub tuples_delivered: u64,
    /// Tuples the agents report having emitted (max cumulative counter per
    /// agent incarnation, summed).
    pub tuples_emitted: u64,
    /// Tuples the agents' governor shed from bounded buffers (emitted but
    /// intentionally never delivered — accounted, not lost).
    pub tuples_shed: u64,
    /// Tuples the agents' baggage `All`-cap truncated before emission
    /// (informational: these never count toward `tuples_emitted`).
    pub tuples_truncated: u64,
    /// Tuples lost on the report path
    /// (`tuples_emitted - tuples_delivered - tuples_shed`).
    pub tuples_dropped: u64,
}

impl LossStats {
    /// Returns `true` when any report or tuple is known to be lost: the
    /// accumulated results are a lower bound, not the full picture.
    pub fn is_degraded(&self) -> bool {
        self.reports_missed > 0 || self.tuples_dropped > 0
    }
}

/// Loss tracking for one reporting agent incarnation.
#[derive(Clone, Default, Debug)]
struct SourceTrack {
    window: SeqWindow,
    accepted: u64,
    duplicates: u64,
    delivered_tuples: u64,
    emitted_cum: u64,
    shed_cum: u64,
    truncated_cum: u64,
}

/// Identity of one reporting agent incarnation.
type SourceKey = (String, u64, u64);

/// Retro-flush loss accounting, aggregated over every reporting agent
/// (see [`Frontend::retro_loss`]).
///
/// These are the frontend's side of the event books (see
/// [`crate::Ledger`]): what arrived, and the rings' own recorded,
/// sampled-out and shed counters as last reported. The rest of
/// `recorded` is still in a ring or in flight, crash-lost, or dropped by
/// the transport; only the embedding harness's ground truth tells those
/// apart.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RetroLossStats {
    /// Retro reports merged into the results.
    pub reports_accepted: u64,
    /// Retro reports suppressed as duplicates (same agent incarnation,
    /// same ring sequence number).
    pub reports_duplicate: u64,
    /// Buffered events carried by accepted retro reports.
    pub events_delivered: u64,
    /// Events the agents report having recorded into their rings (max
    /// cumulative counter per agent incarnation, summed).
    pub events_recorded: u64,
    /// Events overwritten in the ring before any trigger fired (max
    /// cumulative counter per incarnation, summed).
    pub events_sampled_out: u64,
    /// Events shed from the bounded pending-report queue (max cumulative
    /// counter per incarnation, summed).
    pub events_shed: u64,
}

/// Retro dedup + cumulative-counter tracking for one agent incarnation.
/// Ring sequence numbers are per-agent (not per-query), so this lives on
/// the frontend rather than inside one query's results.
#[derive(Clone, Default, Debug)]
struct RetroTrack {
    seen: std::collections::BTreeSet<u64>,
    duplicates: u64,
    delivered_events: u64,
    recorded_cum: u64,
    sampled_out_cum: u64,
    shed_cum: u64,
}

/// Accumulated results for one query.
#[derive(Clone, Debug)]
pub struct QueryResults {
    /// The query's output shape (shared with the compiled query).
    pub spec: Arc<OutputSpec>,
    /// Merged-over-all-time groups.
    cumulative: HashMap<GroupKey, Vec<AggState>>,
    /// Per-report-interval merged groups.
    intervals: BTreeMap<u64, HashMap<GroupKey, Vec<AggState>>>,
    /// Raw rows of streaming queries, with report timestamps.
    raw: Vec<(u64, Tuple)>,
    /// Per-agent-incarnation sequence tracking and loss accounting.
    sources: HashMap<SourceKey, SourceTrack>,
    /// Circuit-breaker trips reported by agents, in arrival order.
    throttles: Vec<Throttled>,
    /// Retroactive-flush reports whose trigger named this query, in
    /// arrival order (deduplicated at the frontend before routing).
    retro: Vec<RetroReport>,
}

impl QueryResults {
    fn new(spec: Arc<OutputSpec>) -> QueryResults {
        QueryResults {
            spec,
            cumulative: HashMap::new(),
            intervals: BTreeMap::new(),
            raw: Vec::new(),
            sources: HashMap::new(),
            throttles: Vec::new(),
            retro: Vec::new(),
        }
    }

    fn absorb(&mut self, report: Report) {
        let track = self
            .sources
            .entry((report.host.clone(), report.procid, report.incarnation))
            .or_default();
        if !track.window.record(report.seq) {
            // A duplicated report frame: merging it again would double
            // count every aggregate, so it is suppressed here.
            track.duplicates += 1;
            return;
        }
        track.accepted += 1;
        track.delivered_tuples += report.tuples;
        track.emitted_cum = track.emitted_cum.max(report.emitted_cum);
        track.shed_cum = track.shed_cum.max(report.shed_cum);
        track.truncated_cum = track.truncated_cum.max(report.truncated_cum);
        if let Some(t) = report.throttled {
            self.throttles.push(t);
        }
        match report.rows {
            ReportRows::Raw(rows) => {
                for r in rows {
                    self.raw.push((report.time, r));
                }
            }
            ReportRows::RawEncoded(blocks) => {
                // Columnar blocks from batched agent flushes (possibly
                // relayed without ever being decoded in between) are
                // materialized only here. A block that fails to decode is
                // dropped whole: its rows were counted as delivered by
                // the envelope above, so the loss identity is unaffected
                // and corruption shows up as missing rows, not a panic.
                let mut decoded: Vec<Tuple> = Vec::new();
                for block in &blocks {
                    if block.decode_into(&mut decoded).is_err() {
                        decoded.clear();
                    }
                    for r in decoded.drain(..) {
                        self.raw.push((report.time, r));
                    }
                }
            }
            ReportRows::Grouped(rows) => {
                let interval = self.intervals.entry(report.time).or_default();
                for (key, states) in rows {
                    merge_into(&mut self.cumulative, &self.spec, key.clone(), &states);
                    merge_into(interval, &self.spec, key, &states);
                }
            }
        }
    }

    /// Returns the query's loss accounting, aggregated over all reporting
    /// agents. When [`LossStats::is_degraded`] is set, [`Self::rows`] is a
    /// lower bound on the true results.
    pub fn loss(&self) -> LossStats {
        let mut loss = LossStats::default();
        for track in self.sources.values() {
            loss.reports_accepted += track.accepted;
            loss.reports_duplicate += track.duplicates;
            loss.reports_missed += track.window.missed();
            loss.tuples_delivered += track.delivered_tuples;
            loss.tuples_emitted += track.emitted_cum;
            loss.tuples_shed += track.shed_cum;
            loss.tuples_truncated += track.truncated_cum;
        }
        loss.tuples_dropped = loss
            .tuples_emitted
            .saturating_sub(loss.tuples_delivered)
            .saturating_sub(loss.tuples_shed);
        loss
    }

    /// Circuit-breaker trips reported by agents for this query, sorted
    /// (by query, reason, stats) for deterministic inspection.
    pub fn throttles(&self) -> Vec<Throttled> {
        let mut out = self.throttles.clone();
        out.sort_unstable();
        out
    }

    /// Returns the merged-over-all-time rows in `Select` order, sorted by
    /// key for determinism.
    pub fn rows(&self) -> Vec<ResultRow> {
        let mut out: Vec<ResultRow> = self
            .cumulative
            .iter()
            .map(|(key, states)| ResultRow {
                time: 0,
                values: layout(&self.spec, key, states),
            })
            .collect();
        sort_rows(&mut out);
        out
    }

    /// Returns per-interval rows: `(time, rows)` in time order.
    pub fn series(&self) -> Vec<(u64, Vec<ResultRow>)> {
        self.intervals
            .iter()
            .map(|(t, groups)| {
                let mut rows: Vec<ResultRow> = groups
                    .iter()
                    .map(|(key, states)| ResultRow {
                        time: *t,
                        values: layout(&self.spec, key, states),
                    })
                    .collect();
                sort_rows(&mut rows);
                (*t, rows)
            })
            .collect()
    }

    /// Returns raw streaming rows with their report timestamps.
    pub fn raw_rows(&self) -> &[(u64, Tuple)] {
        &self.raw
    }

    /// Retroactive-flush reports whose trigger named this query, in
    /// arrival order: the full-fidelity event windows that preceded each
    /// trigger firing (breaker trip, latency outlier, fault, or an
    /// explicit `Trigger` advice op).
    pub fn retro(&self) -> &[RetroReport] {
        &self.retro
    }

    /// Returns the total number of accumulated result rows.
    pub fn len(&self) -> usize {
        self.cumulative.len() + self.raw.len()
    }

    /// Returns `true` when no results have arrived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The shared grouped-aggregate fold (`pivot_query::merge_grouped`): the
// same merge the relay tier applies in flight, so a report folded once at
// a relay and once here lands on identical totals.
use pivot_query::merge_grouped as merge_into;

fn layout(spec: &OutputSpec, key: &GroupKey, states: &[AggState]) -> Vec<Value> {
    spec.columns
        .iter()
        .map(|c| match c {
            ColumnRef::Key(i) => key.0.get(*i).clone(),
            ColumnRef::Agg(i) => states.get(*i).map(AggState::finish).unwrap_or(Value::Null),
        })
        .collect()
}

fn sort_rows(rows: &mut [ResultRow]) {
    rows.sort_by(|a, b| {
        for (x, y) in a.values.iter().zip(&b.values) {
            match x.compare(y) {
                Some(std::cmp::Ordering::Equal) | None => continue,
                Some(ord) => return ord,
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Errors surfaced by [`Frontend::install`].
#[derive(Clone, PartialEq, Debug)]
pub enum InstallError {
    /// Compilation failed.
    Compile(CompileError),
    /// A query with this name already exists.
    DuplicateName(String),
    /// The static verifier rejected the query; at least one diagnostic is
    /// error-severity (warnings ride along for context).
    Rejected(Vec<Diagnostic>),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Compile(e) => write!(f, "{e}"),
            InstallError::DuplicateName(n) => {
                write!(f, "a query named `{n}` is already installed")
            }
            InstallError::Rejected(diags) => {
                write!(f, "query rejected by the static verifier:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for InstallError {}

struct Installed {
    handle: QueryHandle,
    ast: Query,
    compiled: Arc<CompiledQuery>,
    code: Arc<CompiledCode>,
    /// Budget derived from the static verifier's baggage bound
    /// (unlimited when the bound is infinite or analysis was skipped).
    derived_budget: QueryBudget,
    /// The budget currently in force on the agents, if any was pushed.
    budget: Option<QueryBudget>,
}

/// The query frontend (paper Figure 2's "Pivot Tracing frontend").
///
/// Owns the tracepoint vocabulary, compiles and registers queries, emits
/// weave/unweave [`Command`]s for the embedding system to broadcast, and
/// merges the partial [`Report`]s streaming back from agents.
#[derive(Default)]
pub struct Frontend {
    tracepoints: HashMap<String, TracepointDef>,
    queries: Vec<Installed>,
    results: HashMap<QueryId, QueryResults>,
    /// Per-agent-incarnation retro dedup and cumulative retro counters.
    retro_sources: HashMap<SourceKey, RetroTrack>,
    /// Accepted retro reports whose trigger query is not installed here —
    /// breaker/latency/fault triggers fire with `QueryId(0)` when no
    /// specific query is implicated, and uninstalls can race a flush.
    retro_orphans: Vec<RetroReport>,
    commands: Vec<Command>,
    next_id: u64,
    epoch: u64,
    optimize: bool,
    skip_verify: bool,
    /// When set, every install also pushes the statically-derived
    /// [`QueryBudget`] to the agents (off by default).
    enforce_budgets: bool,
}

impl Frontend {
    /// Creates a frontend with the optimizer enabled.
    pub fn new() -> Frontend {
        Frontend {
            optimize: true,
            next_id: 1,
            ..Frontend::default()
        }
    }

    /// Creates a frontend that compiles queries *without* the Table 3
    /// rewrites (the unoptimized baseline for the ablation benches).
    pub fn new_unoptimized() -> Frontend {
        Frontend {
            optimize: false,
            ..Frontend::new()
        }
    }

    /// Defines a tracepoint (the query vocabulary, paper Figure 2 À).
    pub fn define_tracepoint(&mut self, def: TracepointDef) {
        self.tracepoints.insert(def.name.clone(), def);
    }

    /// Convenience: define a tracepoint by name and export list.
    pub fn define(&mut self, name: &str, exports: impl IntoIterator<Item = impl Into<String>>) {
        self.define_tracepoint(TracepointDef::new(name, exports));
    }

    /// Returns the known tracepoint definitions.
    pub fn tracepoint_defs(&self) -> impl Iterator<Item = &TracepointDef> {
        self.tracepoints.values()
    }

    /// Enables or disables the static verifier gate in
    /// [`Frontend::install`] (on by default). Disabling is an escape
    /// hatch for experiments that deliberately install pathological
    /// queries.
    pub fn set_verify(&mut self, on: bool) {
        self.skip_verify = !on;
    }

    /// Installs a query under an auto-assigned name (`Q<id>`).
    pub fn install(&mut self, text: &str) -> Result<QueryHandle, InstallError> {
        let name = format!("Q{}", self.next_id);
        self.install_named(&name, text)
    }

    /// Installs a query under `name`, compiling it to advice and queueing a
    /// weave command. Later queries may reference `name` as a source.
    pub fn install_named(&mut self, name: &str, text: &str) -> Result<QueryHandle, InstallError> {
        if self.queries.iter().any(|q| q.handle.name == name) {
            return Err(InstallError::DuplicateName(name.to_owned()));
        }
        let id = QueryId(self.next_id);
        let options = Options {
            optimize: self.optimize,
        };
        let compiled = compile(text, name, id, &*self, options).map_err(InstallError::Compile)?;
        // The static verifier (paper §5: advice must be safe to weave
        // into a live system). The compiler catches hard structural
        // defects above; the verifier additionally rejects type-incoherent
        // expressions and dataflow defects, with spans.
        let analysis = Analyzer::new(&*self).analyze(text, name);
        if !self.skip_verify && analysis.has_errors() {
            return Err(InstallError::Rejected(analysis.diagnostics));
        }
        // Derive a default overload budget from the static baggage bound
        // of the plan variant this frontend actually executes.
        let static_bound = if self.optimize {
            analysis.optimized_cost.as_ref()
        } else {
            analysis.unoptimized_cost.as_ref()
        }
        .and_then(|c| c.total_bytes.as_finite());
        let derived_budget = QueryBudget::from_static_bound(static_bound);
        let ast = pivot_query::parse(text).expect("compile re-parses successfully");
        self.next_id += 1;
        let compiled = Arc::new(compiled);
        // Lower the advice to bytecode: the one executable artifact that is
        // shipped to agents and checked by the verifier ("verify what you
        // execute"). Lowering is total; notes record degradations such as
        // fields that can never resolve (surfaced by the verifier's PT008).
        let (code, _lowering_notes) = CompiledCode::lower(&compiled);
        let code = Arc::new(code);
        let handle = QueryHandle {
            id,
            name: name.to_owned(),
        };
        self.results
            .insert(id, QueryResults::new(Arc::clone(&compiled.output)));
        self.epoch += 1;
        self.commands.push(Command::Install(Arc::clone(&code)));
        let budget = if self.enforce_budgets && !derived_budget.is_unlimited() {
            self.commands.push(Command::SetBudget(id, derived_budget));
            Some(derived_budget)
        } else {
            None
        };
        self.queries.push(Installed {
            handle: handle.clone(),
            ast,
            compiled,
            code,
            derived_budget,
            budget,
        });
        Ok(handle)
    }

    /// Enables pushing statically-derived [`QueryBudget`]s to the agents
    /// on every install (off by default: budgets are opt-in, so the
    /// governor is invisible until asked for).
    pub fn set_enforce_budgets(&mut self, on: bool) {
        self.enforce_budgets = on;
    }

    /// Explicitly sets (or replaces) the overload budget for an installed
    /// query, queueing a [`Command::SetBudget`] broadcast. Does not bump
    /// the epoch — the epoch tracks the weave set, and budgets re-ship
    /// alongside it on re-sync via [`Frontend::budgets`].
    pub fn set_budget(&mut self, handle: &QueryHandle, budget: QueryBudget) {
        if let Some(q) = self.queries.iter_mut().find(|q| q.handle == *handle) {
            q.budget = Some(budget);
            self.commands.push(Command::SetBudget(handle.id, budget));
        }
    }

    /// The budget derived from the query's static baggage bound
    /// (unlimited when the bound is infinite).
    pub fn derived_budget(&self, handle: &QueryHandle) -> Option<QueryBudget> {
        self.queries
            .iter()
            .find(|q| q.handle == *handle)
            .map(|q| q.derived_budget)
    }

    /// Every installed query's budget currently in force, for transports
    /// that re-ship budgets when an agent re-syncs after a crash or
    /// partition (the budget analogue of [`Frontend::installed`]).
    pub fn budgets(&self) -> Vec<(QueryId, QueryBudget)> {
        self.queries
            .iter()
            .filter_map(|q| q.budget.map(|b| (q.handle.id, b)))
            .collect()
    }

    /// Uninstalls a query, queueing an unweave command. Accumulated results
    /// remain readable.
    pub fn uninstall(&mut self, handle: &QueryHandle) {
        self.queries.retain(|q| q.handle != *handle);
        self.epoch += 1;
        self.commands.push(Command::Uninstall(handle.id));
    }

    /// The install epoch: bumped on every install and uninstall. Agents
    /// that re-sync against [`Frontend::installed`] are up to date exactly
    /// when they have observed this epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drains the pending weave/unweave commands for broadcast.
    pub fn drain_commands(&mut self) -> Vec<Command> {
        std::mem::take(&mut self.commands)
    }

    /// Merges one agent report (paper Figure 2 Ç).
    pub fn accept(&mut self, report: Report) {
        if let Some(res) = self.results.get_mut(&report.query) {
            res.absorb(report);
        }
    }

    /// Merges one retroactive-flush report: deduplicates on the agent's
    /// ring sequence number (relays forward retro frames verbatim, so a
    /// duplicated frame carries the same identity), latches the ring's
    /// cumulative counters, and routes the report to the triggering
    /// query's results (or the orphan pool when that query is unknown —
    /// breaker/latency/fault triggers use `QueryId(0)`).
    pub fn accept_retro(&mut self, report: RetroReport) {
        let track = self
            .retro_sources
            .entry((report.host.clone(), report.procid, report.incarnation))
            .or_default();
        track.recorded_cum = track.recorded_cum.max(report.recorded_cum);
        track.sampled_out_cum = track.sampled_out_cum.max(report.sampled_out_cum);
        track.shed_cum = track.shed_cum.max(report.shed_cum);
        if !track.seen.insert(report.seq) {
            track.duplicates += 1;
            return;
        }
        track.delivered_events += report.events.len() as u64;
        match self.results.get_mut(&report.query) {
            Some(res) => res.retro.push(report),
            None => self.retro_orphans.push(report),
        }
    }

    /// Accepted retro reports whose trigger query is not installed here.
    pub fn retro_orphans(&self) -> &[RetroReport] {
        &self.retro_orphans
    }

    /// Retro-flush loss accounting aggregated over every agent
    /// incarnation that has reported.
    pub fn retro_loss(&self) -> RetroLossStats {
        let mut loss = RetroLossStats::default();
        for track in self.retro_sources.values() {
            loss.reports_accepted += track.seen.len() as u64;
            loss.reports_duplicate += track.duplicates;
            loss.events_delivered += track.delivered_events;
            loss.events_recorded += track.recorded_cum;
            loss.events_sampled_out += track.sampled_out_cum;
            loss.events_shed += track.shed_cum;
        }
        loss
    }

    /// Returns the accumulated results for a query.
    pub fn results(&self, handle: &QueryHandle) -> &QueryResults {
        &self.results[&handle.id]
    }

    /// Returns every currently installed query's lowered bytecode (used to
    /// weave advice into processes that join after installation).
    pub fn installed(&self) -> Vec<Arc<CompiledCode>> {
        self.queries.iter().map(|q| Arc::clone(&q.code)).collect()
    }

    /// Returns the compiled (advice-op) form of an installed query.
    pub fn compiled(&self, handle: &QueryHandle) -> Option<Arc<CompiledQuery>> {
        self.queries
            .iter()
            .find(|q| q.handle == *handle)
            .map(|q| Arc::clone(&q.compiled))
    }

    /// Returns the lowered bytecode of an installed query.
    pub fn code(&self, handle: &QueryHandle) -> Option<Arc<CompiledCode>> {
        self.queries
            .iter()
            .find(|q| q.handle == *handle)
            .map(|q| Arc::clone(&q.code))
    }

    /// A canonical digest of the frontend's protocol-visible state, for
    /// the interleaving explorer's state cache: epoch, installed set,
    /// budgets, pending commands, and — per query — merged results,
    /// per-source sequence tracking, and throttle arrivals.
    ///
    /// `remap_incarnation` maps raw agent incarnation numbers (drawn from
    /// a process-global counter, so not stable across re-executions of
    /// the same schedule) to caller-stable identifiers such as
    /// `(slot, generation)` codes.
    pub fn state_digest(&self, remap_incarnation: &mut dyn FnMut(u64) -> u64) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(s, "e{}|c{};", self.epoch, self.commands.len());
        for q in &self.queries {
            let _ = write!(s, "q{}:{}|{:?};", q.handle.id.0, q.handle.name, q.budget);
        }
        let mut ids: Vec<QueryId> = self.results.keys().copied().collect();
        ids.sort_unstable_by_key(|q| q.0);
        for id in ids {
            let res = &self.results[&id];
            let _ = write!(s, "R{}:", id.0);
            let mut groups: Vec<String> = res
                .cumulative
                .iter()
                .map(|(k, a)| format!("{k:?}={a:?}"))
                .collect();
            groups.sort_unstable();
            for g in groups {
                let _ = write!(s, "g{g};");
            }
            for (t, row) in &res.raw {
                let _ = write!(s, "w{t}:{row:?};");
            }
            for (t, groups) in res.intervals.iter() {
                let mut lines: Vec<String> =
                    groups.iter().map(|(k, a)| format!("{k:?}={a:?}")).collect();
                lines.sort_unstable();
                let _ = write!(s, "i{t}:{lines:?};");
            }
            let mut tracks: Vec<String> = res
                .sources
                .iter()
                .map(|((host, procid, inc), t)| {
                    format!(
                        "{host}/{procid}/{}:{}|{:?}|{}|{}|{}|{}|{}|{}",
                        remap_incarnation(*inc),
                        t.window.next,
                        t.window.pending,
                        t.accepted,
                        t.duplicates,
                        t.delivered_tuples,
                        t.emitted_cum,
                        t.shed_cum,
                        t.truncated_cum,
                    )
                })
                .collect();
            tracks.sort_unstable();
            for t in tracks {
                let _ = write!(s, "s{t};");
            }
            let _ = write!(s, "t{:?};", res.throttles());
            let mut retro: Vec<String> = res
                .retro
                .iter()
                .map(|r| {
                    format!(
                        "{}/{}/{}:{}:{:?}:{}:{}",
                        r.host,
                        r.procid,
                        remap_incarnation(r.incarnation),
                        r.seq,
                        r.kind,
                        r.request,
                        r.events.len(),
                    )
                })
                .collect();
            retro.sort_unstable();
            for r in retro {
                let _ = write!(s, "x{r};");
            }
        }
        let mut retro_tracks: Vec<String> = self
            .retro_sources
            .iter()
            .map(|((host, procid, inc), t)| {
                format!(
                    "{host}/{procid}/{}:{}|{}|{}|{}|{}|{}",
                    remap_incarnation(*inc),
                    t.seen.len(),
                    t.duplicates,
                    t.delivered_events,
                    t.recorded_cum,
                    t.sampled_out_cum,
                    t.shed_cum,
                )
            })
            .collect();
        retro_tracks.sort_unstable();
        for t in retro_tracks {
            let _ = write!(s, "X{t};");
        }
        let _ = write!(s, "O{};", self.retro_orphans.len());
        crate::fnv64(s.as_bytes())
    }
}

impl Resolver for Frontend {
    fn tracepoint_exports(&self, name: &str) -> Option<Vec<String>> {
        self.tracepoints.get(name).map(TracepointDef::all_exports)
    }

    fn query_ast(&self, name: &str) -> Option<Query> {
        self.queries
            .iter()
            .find(|q| q.handle.name == name)
            .map(|q| q.ast.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, ProcessInfo};
    use crate::bus::LocalBus;

    fn setup() -> (Frontend, LocalBus) {
        let mut fe = Frontend::new();
        fe.define("ClientProtocols", ["procName"]);
        fe.define("DataNodeMetrics.incrBytesRead", ["delta"]);
        let mut bus = LocalBus::new();
        for (host, proc_) in [("host-A", "FSread4m"), ("host-B", "DataNode")] {
            bus.register(Arc::new(Agent::new(ProcessInfo {
                host: host.into(),
                procid: 1,
                procname: proc_.into(),
            })));
        }
        (fe, bus)
    }

    #[test]
    fn q2_end_to_end_over_local_bus() {
        let (mut fe, bus) = setup();
        let handle = fe
            .install(
                "From incr In DataNodeMetrics.incrBytesRead
                 Join cl In First(ClientProtocols) On cl -> incr
                 GroupBy cl.procName
                 Select cl.procName, SUM(incr.delta)",
            )
            .unwrap();
        for cmd in fe.drain_commands() {
            bus.broadcast(&cmd);
        }
        let client = &bus.agents()[0];
        let datanode = &bus.agents()[1];

        // Two requests from the same client process.
        for delta in [100i64, 400] {
            let mut bag = pivot_baggage::Baggage::new();
            client.invoke(
                "ClientProtocols",
                &mut bag,
                5,
                &[("procName", Value::str("FSread4m"))],
            );
            // "RPC" to the datanode: serialize and deserialize baggage.
            let bytes = bag.to_bytes();
            let mut remote = pivot_baggage::Baggage::from_bytes(&bytes);
            datanode.invoke(
                "DataNodeMetrics.incrBytesRead",
                &mut remote,
                9,
                &[("delta", Value::I64(delta))],
            );
        }
        bus.pump(1_000_000_000, &mut fe);

        let rows = fe.results(&handle).rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[0], Value::str("FSread4m"));
        assert_eq!(rows[0].values[1], Value::I64(500));
    }

    #[test]
    fn intervals_keep_per_flush_results() {
        let (mut fe, bus) = setup();
        let handle = fe
            .install(
                "From incr In DataNodeMetrics.incrBytesRead
                 GroupBy incr.host
                 Select incr.host, SUM(incr.delta)",
            )
            .unwrap();
        for cmd in fe.drain_commands() {
            bus.broadcast(&cmd);
        }
        let dn = &bus.agents()[1];
        let mut bag = pivot_baggage::Baggage::new();
        dn.invoke(
            "DataNodeMetrics.incrBytesRead",
            &mut bag,
            1,
            &[("delta", Value::I64(10))],
        );
        bus.pump(1_000_000_000, &mut fe);
        dn.invoke(
            "DataNodeMetrics.incrBytesRead",
            &mut bag,
            2,
            &[("delta", Value::I64(30))],
        );
        bus.pump(2_000_000_000, &mut fe);

        let res = fe.results(&handle);
        let series = res.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1[0].values[1], Value::I64(10));
        assert_eq!(series[1].1[0].values[1], Value::I64(30));
        // Cumulative merges both intervals.
        assert_eq!(res.rows()[0].values[1], Value::I64(40));
    }

    #[test]
    fn duplicate_names_rejected_and_unknown_tracepoints_error() {
        let (mut fe, _) = setup();
        fe.install_named("X", "From e In ClientProtocols Select COUNT")
            .unwrap();
        assert!(matches!(
            fe.install_named("X", "From e In ClientProtocols Select COUNT"),
            Err(InstallError::DuplicateName(_))
        ));
        assert!(matches!(
            fe.install("From e In Nope Select COUNT"),
            Err(InstallError::Compile(_))
        ));
    }

    #[test]
    fn ill_typed_query_rejected_with_span() {
        let (mut fe, _) = setup();
        // Compiles fine (the compiler is untyped) but can never evaluate:
        // `&&` over a number.
        let err = fe
            .install(
                "From e In ClientProtocols
                 Where e.procName && 5
                 Select COUNT",
            )
            .unwrap_err();
        let InstallError::Rejected(diags) = err else {
            panic!("expected Rejected, got {err:?}");
        };
        assert!(diags
            .iter()
            .any(|d| { d.code == pivot_analyze::Code::TypeError && d.span.is_some() }));
        // The escape hatch installs it anyway.
        let (mut fe, _) = setup();
        fe.set_verify(false);
        fe.install(
            "From e In ClientProtocols
             Where e.procName && 5
             Select COUNT",
        )
        .unwrap();
    }

    #[test]
    fn query_reference_resolves_installed_query() {
        let mut fe = Frontend::new();
        fe.define("SendResponse", ["time"]);
        fe.define("ReceiveRequest", ["time"]);
        fe.define("JobComplete", ["id"]);
        fe.install_named(
            "Q8",
            "From response In SendResponse
             Join request In MostRecent(ReceiveRequest)
               On request -> response
             Select response.time - request.time",
        )
        .unwrap();
        let q9 = fe.install_named(
            "Q9",
            "From job In JobComplete
             Join lat In Q8 On lat -> job
             Select job.id, AVERAGE(lat)",
        );
        assert!(q9.is_ok(), "{q9:?}");
    }
}
