//! The TCP message bus: real-socket transport for commands and reports.
//!
//! Reproduces the paper's Figure 2 topology on actual sockets: a central
//! pub/sub endpoint ([`TcpBusServer`]) owned by the frontend process, and
//! one [`LiveAgent`] per traced process that connects out, registers with
//! a `Hello`, applies incoming weave/unweave commands to its local
//! registry, and streams partial-result reports back on its own reporting
//! interval. [`LiveFrontend`] bundles a [`pivot_core::Frontend`] with the
//! server side so installing a query over TCP is one call.
//!
//! The server implements [`pivot_core::Bus`], making it interchangeable
//! with [`pivot_core::LocalBus`] and the simulated cluster.
//!
//! # Crash recovery (DESIGN.md §5e)
//!
//! Connections fail and processes die; the bus makes both *visible* and
//! *recoverable* instead of silently wrong:
//!
//! - **Orderly vs lost.** Both sides send [`Message::Goodbye`] before an
//!   intentional close. A socket that dies without one is a **lost**
//!   connection: the server counts it in [`TcpBusServer::peers_lost`], and
//!   the agent enters [`ConnStatus::Reconnecting`] instead of quietly
//!   exiting its reader thread.
//! - **Reconnect.** A [`LiveAgent`] retries with capped exponential
//!   backoff plus deterministic jitter ([`ReconnectPolicy`]); the agent's
//!   weave registry, aggregation buffers, and report sequence numbers all
//!   survive the reconnect, so nothing double-counts.
//! - **Epoch re-sync.** On every `Hello` the server answers with one
//!   [`Message::Sync`] frame carrying the full installed-query set tagged
//!   with the current install epoch; [`pivot_core::Agent::sync`]
//!   reconciles the registry in one step no matter how many commands were
//!   missed while disconnected.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pivot_baggage::QueryId;
use pivot_core::frontend::InstallError;
use pivot_core::{
    Agent, Bus, Command, Frontend, ProcessInfo, QueryBudget, QueryHandle, QueryResults, Report,
    RetroReport, TracepointDef,
};
use pivot_query::CompiledCode;

use crate::frame::{read_frame, write_frame};
use crate::proto::{decode_message, encode_message, Message};
pub use crate::uplink::{ConnStatus, ReconnectPolicy};
use crate::uplink::{Uplink, UplinkHandler};

/// One connected agent, from the server's point of view.
struct Peer {
    writer: Arc<Mutex<TcpStream>>,
    /// Set once the peer's `Hello` (or `HelloRelay`) arrives.
    info: Arc<Mutex<Option<ProcessInfo>>>,
    /// Set if registration came via `HelloRelay`: the peer is a fan-in
    /// relay speaking for a subtree, not a leaf agent.
    relay: Arc<AtomicBool>,
}

struct BusInner {
    addr: SocketAddr,
    peers: Mutex<Vec<Peer>>,
    /// Reports received and not yet drained by the frontend.
    reports: Mutex<Vec<Report>>,
    /// Retroactive-flush reports (proto v7) received and not yet drained.
    retros: Mutex<Vec<RetroReport>>,
    /// Currently installed queries, synced to agents that join (or
    /// rejoin) late — mirrors the simulated cluster weaving installed
    /// queries into new processes.
    installed: Mutex<Vec<Arc<CompiledCode>>>,
    /// Overload budgets currently in force, re-shipped on every `Sync` so
    /// a rejoining agent recovers its governor configuration too.
    budgets: Mutex<Vec<(QueryId, QueryBudget)>>,
    /// Install epoch: bumped on every install/uninstall broadcast and
    /// stamped on each `Sync` frame, so agents know which snapshot of the
    /// query set they have converged to.
    epoch: AtomicU64,
    /// Peers that closed with a `Goodbye` (orderly).
    peers_closed: AtomicU64,
    /// Peers whose connection died without a `Goodbye` (crash, kill,
    /// network fault).
    peers_lost: AtomicU64,
    shutdown: AtomicBool,
}

/// The frontend side of the TCP bus (the paper's central pub/sub server).
pub struct TcpBusServer {
    inner: Arc<BusInner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TcpBusServer {
    /// Binds a loopback listener on an ephemeral port and starts the
    /// accept loop.
    pub fn start() -> io::Result<TcpBusServer> {
        TcpBusServer::bind("127.0.0.1:0")
    }

    /// Binds `addr` and starts the accept loop.
    pub fn bind(addr: &str) -> io::Result<TcpBusServer> {
        let listener = TcpListener::bind(addr)?;
        let inner = Arc::new(BusInner {
            addr: listener.local_addr()?,
            peers: Mutex::new(Vec::new()),
            reports: Mutex::new(Vec::new()),
            retros: Mutex::new(Vec::new()),
            installed: Mutex::new(Vec::new()),
            budgets: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            peers_closed: AtomicU64::new(0),
            peers_lost: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let server = TcpBusServer {
            inner: Arc::clone(&inner),
            threads: Mutex::new(Vec::new()),
        };
        let accept_inner = Arc::clone(&inner);
        let handle = std::thread::spawn(move || accept_loop(&listener, &accept_inner));
        server.threads.lock().push(handle);
        Ok(server)
    }

    /// The address agents should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Number of leaf agents that have completed registration (relay
    /// peers are counted by [`TcpBusServer::relay_count`] instead).
    pub fn agent_count(&self) -> usize {
        self.inner
            .peers
            .lock()
            .iter()
            .filter(|p| p.info.lock().is_some() && !p.relay.load(Ordering::SeqCst))
            .count()
    }

    /// Number of fan-in relays that have completed registration (via
    /// `HelloRelay`).
    pub fn relay_count(&self) -> usize {
        self.inner
            .peers
            .lock()
            .iter()
            .filter(|p| p.info.lock().is_some() && p.relay.load(Ordering::SeqCst))
            .count()
    }

    /// Blocks until at least `n` relays have registered or `timeout`
    /// elapses; returns whether the target was reached.
    pub fn wait_for_relays(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.relay_count() < n {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Identities of the registered agents.
    pub fn agents(&self) -> Vec<ProcessInfo> {
        self.inner
            .peers
            .lock()
            .iter()
            .filter_map(|p| p.info.lock().clone())
            .collect()
    }

    /// Blocks until at least `n` agents have registered or `timeout`
    /// elapses; returns whether the target was reached.
    pub fn wait_for_agents(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.agent_count() < n {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// The current install epoch (see [`Message::Sync`]).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Peers that disconnected orderly (with a `Goodbye`).
    pub fn peers_closed(&self) -> u64 {
        self.inner.peers_closed.load(Ordering::SeqCst)
    }

    /// Peers whose connection died without a `Goodbye` — crashed or
    /// killed agents, severed links.
    pub fn peers_lost(&self) -> u64 {
        self.inner.peers_lost.load(Ordering::SeqCst)
    }

    /// Replaces the cached installed-query set and budgets wholesale and
    /// pushes one `Sync` frame to every connected peer, bumping the local
    /// epoch. This is how a relay's *downstream* server proxies an
    /// upstream `Sync` (connect or reconnect): whatever installs the relay
    /// missed while partitioned reach its whole subtree in one frame.
    /// Epochs are per-tier counters — the downstream epoch advances by
    /// one per visible change, it does not copy the upstream number.
    pub fn resync(&self, queries: Vec<Arc<CompiledCode>>, budgets: Vec<(QueryId, QueryBudget)>) {
        *self.inner.installed.lock() = queries.clone();
        *self.inner.budgets.lock() = budgets.clone();
        let epoch = self.inner.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let payload = encode_message(&Message::Sync {
            epoch,
            queries,
            budgets,
        });
        self.inner
            .peers
            .lock()
            .retain(|peer| write_frame(&mut *peer.writer.lock(), &payload).is_ok());
    }

    /// Abruptly severs every live connection *without* a `Goodbye`, while
    /// the listener keeps accepting. From the agents' point of view this
    /// is indistinguishable from a network fault: their readers see EOF
    /// with no orderly-shutdown marker and enter reconnection. A chaos
    /// hook for recovery tests and benches.
    pub fn sever(&self) {
        for peer in self.inner.peers.lock().drain(..) {
            let _ = peer.writer.lock().shutdown(Shutdown::Both);
        }
    }

    /// Stops the accept loop and disconnects every agent (orderly: each
    /// peer is sent a `Goodbye` first, so agents mark the close as clean
    /// instead of entering reconnection).
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.inner.addr);
        let bye = encode_message(&Message::Goodbye);
        for peer in self.inner.peers.lock().drain(..) {
            let mut w = peer.writer.lock();
            let _ = write_frame(&mut *w, &bye);
            let _ = w.shutdown(Shutdown::Both);
        }
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpBusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Bus for TcpBusServer {
    fn broadcast(&self, cmd: &Command) {
        match cmd {
            Command::Install(q) => self.inner.installed.lock().push(Arc::clone(q)),
            Command::Uninstall(id) => {
                self.inner.installed.lock().retain(|q| q.id != *id);
                self.inner.budgets.lock().retain(|(q, _)| q != id);
            }
            Command::SetBudget(id, budget) => {
                let mut budgets = self.inner.budgets.lock();
                match budgets.iter_mut().find(|(q, _)| q == id) {
                    Some(entry) => entry.1 = *budget,
                    None => budgets.push((*id, *budget)),
                }
            }
        }
        self.inner.epoch.fetch_add(1, Ordering::SeqCst);
        let payload = encode_message(&Message::Command(cmd.clone()));
        // Drop peers whose connection is gone; the write error is the
        // only signal a crashed agent leaves behind.
        self.inner
            .peers
            .lock()
            .retain(|peer| write_frame(&mut *peer.writer.lock(), &payload).is_ok());
    }

    fn drain_reports(&self, _now: u64) -> Vec<Report> {
        std::mem::take(&mut *self.inner.reports.lock())
    }

    fn drain_retro(&self, _now: u64) -> Vec<RetroReport> {
        std::mem::take(&mut *self.inner.retros.lock())
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<BusInner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let peer = Peer {
            writer: Arc::new(Mutex::new(write_half)),
            info: Arc::new(Mutex::new(None)),
            relay: Arc::new(AtomicBool::new(false)),
        };
        let writer = Arc::clone(&peer.writer);
        let info = Arc::clone(&peer.info);
        let relay = Arc::clone(&peer.relay);
        let reader_inner = Arc::clone(inner);
        inner.peers.lock().push(peer);
        std::thread::spawn(move || {
            peer_reader(stream, &writer, &info, &relay, &reader_inner);
        });
    }
}

/// Per-connection reader: registers the peer on `Hello` (answering with
/// an epoch-tagged `Sync` of the full installed-query set), collects its
/// reports, and exits on `Goodbye`, EOF, or a protocol violation (closing
/// the connection — malformed frames from live peers, including frames
/// stamped with another wire version, are a fault, not something to
/// silently skip). EOF without a preceding `Goodbye` is tallied as a
/// *lost* peer, not a clean close.
fn peer_reader(
    mut stream: TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    info: &Arc<Mutex<Option<ProcessInfo>>>,
    relay: &Arc<AtomicBool>,
    inner: &Arc<BusInner>,
) {
    let mut orderly = false;
    while let Ok(payload) = read_frame(&mut stream) {
        match decode_message(&payload) {
            Ok(msg @ (Message::Hello(_) | Message::HelloRelay(_))) => {
                let is_relay = matches!(msg, Message::HelloRelay(_));
                let (Message::Hello(process) | Message::HelloRelay(process)) = msg else {
                    unreachable!();
                };
                relay.store(is_relay, Ordering::SeqCst);
                *info.lock() = Some(process);
                // One Sync frame converges the newcomer (or the rejoiner)
                // to the exact installed set at the current epoch.
                let sync = {
                    let queries = inner.installed.lock().clone();
                    let budgets = inner.budgets.lock().clone();
                    Message::Sync {
                        epoch: inner.epoch.load(Ordering::SeqCst),
                        queries,
                        budgets,
                    }
                };
                if write_frame(&mut *writer.lock(), &encode_message(&sync)).is_err() {
                    break;
                }
            }
            Ok(Message::Report(report)) => inner.reports.lock().push(report),
            Ok(Message::Retro(report)) => inner.retros.lock().push(report),
            Ok(Message::Goodbye) => {
                orderly = true;
                break;
            }
            Ok(Message::Command(_) | Message::Sync { .. }) | Err(_) => break,
        }
    }
    if !inner.shutdown.load(Ordering::SeqCst) {
        if orderly {
            inner.peers_closed.fetch_add(1, Ordering::SeqCst);
        } else {
            inner.peers_lost.fetch_add(1, Ordering::SeqCst);
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    let dead = Arc::as_ptr(writer);
    inner
        .peers
        .lock()
        .retain(|p| Arc::as_ptr(&p.writer) != dead);
}

/// A per-process agent connected to the TCP bus: the process's [`Agent`]
/// (registry + local aggregation) plus an [`Uplink`] whose reader applies
/// incoming weave/unweave commands and `Sync` re-syncs, and whose flusher
/// sends partial results every `report_interval` (the paper's default is
/// one second; tests use much shorter). If the connection dies without a
/// `Goodbye`, the uplink reconnects per the [`ReconnectPolicy`]; the
/// agent's registry, buffers, and report sequence numbers survive, so
/// recovery never double-counts.
pub struct LiveAgent {
    agent: Arc<Agent>,
    uplink: Uplink,
}

impl LiveAgent {
    /// Connects to the bus at `addr`, registers `info`, and starts the
    /// uplink, with reconnection enabled (jitter seeded from the process
    /// id).
    pub fn connect(
        addr: SocketAddr,
        info: ProcessInfo,
        report_interval: Duration,
    ) -> io::Result<LiveAgent> {
        let seed = info.procid;
        LiveAgent::connect_with(addr, info, report_interval, ReconnectPolicy::new(seed))
    }

    /// [`LiveAgent::connect`] with an explicit [`ReconnectPolicy`].
    pub fn connect_with(
        addr: SocketAddr,
        info: ProcessInfo,
        report_interval: Duration,
        policy: ReconnectPolicy,
    ) -> io::Result<LiveAgent> {
        let agent = Arc::new(Agent::new(info));
        let uplink = Uplink::connect(addr, report_interval, policy, agent.clone())?;
        Ok(LiveAgent { agent, uplink })
    }

    /// The process-local agent: invoke tracepoints against it (usually
    /// via [`crate::tracepoint`]).
    pub fn agent(&self) -> &Arc<Agent> {
        &self.agent
    }

    /// The connection to the bus: status, install epoch, reconnects.
    /// [`ConnStatus::Lost`] is an error: the agent is emitting into
    /// buffers nothing will ever drain to the frontend.
    pub fn uplink(&self) -> &Uplink {
        &self.uplink
    }

    /// Flushes partial results to the frontend immediately (when
    /// connected; otherwise tuples keep accumulating locally).
    pub fn flush_now(&self) {
        self.uplink.flush_now();
    }

    /// Flushes once more, announces `Goodbye`, then disconnects and joins
    /// the service threads (orderly close).
    pub fn shutdown(&self) {
        self.uplink.shutdown();
    }

    /// Kills the connection the way a crashing process would: no final
    /// flush, no `Goodbye`, socket torn down. Unflushed tuples are lost,
    /// the server tallies a *lost* peer, and this handle ends
    /// [`ConnStatus::Lost`]. A chaos hook for recovery tests and benches.
    pub fn abort(&self) {
        self.uplink.abort();
    }
}

/// A leaf agent's side of its [`Uplink`].
impl UplinkHandler for Agent {
    fn hello(&self) -> Message {
        Message::Hello(self.info().clone())
    }

    fn apply_command(&self, cmd: &Command) {
        self.apply(cmd);
    }

    fn apply_sync(&self, queries: Vec<Arc<CompiledCode>>, budgets: Vec<(QueryId, QueryBudget)>) {
        self.sync(&queries);
        self.sync_budgets(&budgets);
    }

    fn flush_frames(&self, connected: bool) -> Vec<Message> {
        // While disconnected, skip the flush entirely: tuples keep
        // accumulating in the agent's buffers (and seq numbers are not
        // consumed), so everything emitted during the outage is delivered
        // after recovery instead of being written into a dead socket.
        if !connected {
            return Vec::new();
        }
        let mut frames: Vec<Message> = self
            .flush(crate::now_nanos())
            .into_iter()
            .map(Message::Report)
            .collect();
        frames.extend(self.drain_retro().into_iter().map(Message::Retro));
        frames
    }
}

/// A [`Frontend`] wired to a [`TcpBusServer`]: the live counterpart of
/// the simulated cluster's control plane. Queries installed here are
/// verified (PR-1 static analysis), compiled, and broadcast to every
/// connected process over TCP; results stream back continuously.
pub struct LiveFrontend {
    frontend: Frontend,
    bus: TcpBusServer,
}

impl LiveFrontend {
    /// Starts a frontend with a loopback bus on an ephemeral port.
    pub fn start() -> io::Result<LiveFrontend> {
        Ok(LiveFrontend {
            frontend: Frontend::new(),
            bus: TcpBusServer::start()?,
        })
    }

    /// The bus address agents connect to.
    pub fn addr(&self) -> SocketAddr {
        self.bus.addr()
    }

    /// The underlying bus.
    pub fn bus(&self) -> &TcpBusServer {
        &self.bus
    }

    /// Direct access to the frontend (tracepoint defs, verifier toggle).
    pub fn frontend_mut(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    /// Defines a tracepoint (the query vocabulary).
    pub fn define(&mut self, name: &str, exports: impl IntoIterator<Item = impl Into<String>>) {
        self.frontend.define(name, exports);
    }

    /// Defines a tracepoint from a full definition.
    pub fn define_tracepoint(&mut self, def: TracepointDef) {
        self.frontend.define_tracepoint(def);
    }

    /// Blocks until `n` agents registered (see
    /// [`TcpBusServer::wait_for_agents`]).
    pub fn wait_for_agents(&self, n: usize, timeout: Duration) -> bool {
        self.bus.wait_for_agents(n, timeout)
    }

    /// Installs a query: static verification, compilation, then broadcast
    /// of the weave command over TCP. A rejected query broadcasts
    /// nothing.
    pub fn install(&mut self, text: &str) -> Result<QueryHandle, InstallError> {
        let handle = self.frontend.install(text)?;
        self.broadcast_pending();
        Ok(handle)
    }

    /// Installs a query under a fixed name.
    pub fn install_named(&mut self, name: &str, text: &str) -> Result<QueryHandle, InstallError> {
        let handle = self.frontend.install_named(name, text)?;
        self.broadcast_pending();
        Ok(handle)
    }

    /// Uninstalls a query everywhere (agents unweave on receipt).
    pub fn uninstall(&mut self, handle: &QueryHandle) {
        self.frontend.uninstall(handle);
        self.broadcast_pending();
    }

    /// Pushes an overload budget for `handle` to every connected agent
    /// (and to agents that re-sync later, via the `Sync` budget list).
    pub fn set_budget(&mut self, handle: &QueryHandle, budget: QueryBudget) {
        self.frontend.set_budget(handle, budget);
        self.broadcast_pending();
    }

    /// Enables install-time pushing of statically-derived budgets (see
    /// [`Frontend::set_enforce_budgets`]).
    pub fn set_enforce_budgets(&mut self, on: bool) {
        self.frontend.set_enforce_budgets(on);
    }

    fn broadcast_pending(&mut self) {
        for cmd in self.frontend.drain_commands() {
            self.bus.broadcast(&cmd);
        }
    }

    /// Merges reports received since the last poll into the frontend.
    pub fn poll(&mut self) {
        self.bus.pump_into(crate::now_nanos(), &mut self.frontend);
    }

    /// Returns a query's accumulated results (polling first).
    pub fn results(&mut self, handle: &QueryHandle) -> &QueryResults {
        self.poll();
        self.frontend.results(handle)
    }

    /// Blocks until the query has at least `min_rows` result rows or
    /// `timeout` elapses; returns whether the target was reached.
    pub fn wait_for_rows(
        &mut self,
        handle: &QueryHandle,
        min_rows: usize,
        timeout: Duration,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            self.poll();
            if self.frontend.results(handle).len() >= min_rows {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Uninstall by query id, for tests churning many handles.
    pub fn uninstall_id(&mut self, id: QueryId, name: &str) {
        self.uninstall(&QueryHandle {
            id,
            name: name.to_owned(),
        });
    }
}
