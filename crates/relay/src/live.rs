//! The live (TCP) relay: a standalone fan-in process between agents and
//! the frontend.
//!
//! A [`RelayServer`] owns both halves of the tier:
//!
//! - **Downstream**, it is a full [`TcpBusServer`]: agents (or further
//!   relays) connect to [`RelayServer::addr`] exactly as they would to
//!   the frontend — same `Hello`/`HelloRelay` registration, same
//!   epoch-tagged `Sync` answer, same reconnect discipline. The tree is
//!   invisible to leaves.
//! - **Upstream**, it holds one connection to its parent (another relay
//!   or the frontend), registered with [`Message::HelloRelay`] so the
//!   parent can tell tiers apart. Control-plane frames arriving from
//!   upstream are applied to the relay's [`RelayCore`] and re-broadcast
//!   downstream; `Sync` frames are proxied wholesale via
//!   [`TcpBusServer::resync`], so epoch re-sync crosses the tier in one
//!   frame per hop. If the upstream link dies without a `Goodbye` the
//!   relay reconnects with the same capped-backoff policy a leaf agent
//!   uses, re-registers, and the answering `Sync` heals both the relay
//!   and (via `resync`) its whole subtree.
//!
//! The upstream side is a [`pivot_live::uplink::Uplink`], the same client
//! a leaf agent runs on; the relay's [`UplinkHandler`] is where the two
//! differ. Its flusher drains downstream reports into the merge windows
//! on every tick (even while disconnected, so nothing is lost during an
//! upstream outage) and, while connected, writes the re-originated batch
//! upstream with one vectored write — the coalescing that turns `N` leaf
//! frame streams into one per relay.
//!
//! [`RelayServer::crash`] is the chaos hook: it destroys the merge
//! windows (returning the [`CrashResidue`] for the embedding's
//! `crash_lost` books), severs every downstream connection without a
//! `Goodbye`, and drops the upstream link the same way, so both sides
//! observe a real crash and run their recovery paths against the same
//! listener socket.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use pivot_baggage::QueryId;
use pivot_core::{Bus, Command, ProcessInfo, QueryBudget};
use pivot_live::bus::{ReconnectPolicy, TcpBusServer};
use pivot_live::proto::Message;
use pivot_live::uplink::{Uplink, UplinkHandler};
use pivot_query::CompiledCode;

use crate::{CrashResidue, RelayCore, RelayStats};

/// The relay's side of its upstream [`Uplink`].
struct RelayLink {
    core: Arc<RelayCore>,
    down: Arc<TcpBusServer>,
}

impl RelayLink {
    /// Absorbs pending downstream reports into the merge windows.
    fn pull(&self, now: u64) {
        for r in self.down.drain_reports(now) {
            self.core.absorb(r);
        }
        for r in self.down.drain_retro(now) {
            self.core.absorb_retro(r);
        }
    }
}

impl UplinkHandler for RelayLink {
    fn hello(&self) -> Message {
        Message::HelloRelay(self.core.info().clone())
    }

    fn apply_command(&self, cmd: &Command) {
        // Learn, then proxy: the downstream broadcast caches the command
        // for late joiners and bumps the subtree's epoch.
        self.core.observe(cmd);
        self.down.broadcast(cmd);
    }

    fn apply_sync(&self, queries: Vec<Arc<CompiledCode>>, budgets: Vec<(QueryId, QueryBudget)>) {
        self.core.sync(&queries);
        self.down.resync(queries, budgets);
    }

    fn flush_frames(&self, connected: bool) -> Vec<Message> {
        // Absorption always happens so the windows keep merging during an
        // upstream outage; flushing into a dead socket would consume seqs
        // for frames nothing will deliver.
        let now = pivot_live::now_nanos();
        self.pull(now);
        if !connected {
            return Vec::new();
        }
        let mut frames: Vec<Message> = self
            .core
            .flush(now)
            .into_iter()
            .map(Message::Report)
            .collect();
        frames.extend(self.core.flush_retro().into_iter().map(Message::Retro));
        frames
    }
}

/// A live fan-in relay process: downstream bus server + one upstream
/// uplink + an in-flight merge core. See the module docs.
pub struct RelayServer {
    link: Arc<RelayLink>,
    uplink: Uplink,
}

impl RelayServer {
    /// Starts a relay on an ephemeral loopback port, connected upstream
    /// to `upstream`, with reconnection enabled (jitter seeded from the
    /// relay's procid).
    pub fn start(
        upstream: SocketAddr,
        info: ProcessInfo,
        flush_interval: Duration,
    ) -> io::Result<RelayServer> {
        let seed = info.procid;
        RelayServer::bind(
            "127.0.0.1:0",
            upstream,
            info,
            flush_interval,
            ReconnectPolicy::new(seed),
        )
    }

    /// Starts a relay listening on `listen` with an explicit
    /// [`ReconnectPolicy`] for the upstream link.
    pub fn bind(
        listen: &str,
        upstream: SocketAddr,
        info: ProcessInfo,
        flush_interval: Duration,
        policy: ReconnectPolicy,
    ) -> io::Result<RelayServer> {
        let link = Arc::new(RelayLink {
            core: Arc::new(RelayCore::new(info)),
            down: Arc::new(TcpBusServer::bind(listen)?),
        });
        let uplink = Uplink::connect(upstream, flush_interval, policy, link.clone())?;
        Ok(RelayServer { link, uplink })
    }

    /// The downstream address agents (or child relays) connect to.
    pub fn addr(&self) -> SocketAddr {
        self.link.down.addr()
    }

    /// The downstream bus server (agent/relay counts, epoch, chaos
    /// hooks).
    pub fn downstream(&self) -> &TcpBusServer {
        &self.link.down
    }

    /// The relay's accounting core.
    pub fn core(&self) -> &RelayCore {
        &self.link.core
    }

    /// Current counters.
    pub fn stats(&self) -> RelayStats {
        self.link.core.stats()
    }

    /// The upstream connection: status, upstream install epoch,
    /// reconnects.
    pub fn uplink(&self) -> &Uplink {
        &self.uplink
    }

    /// Absorbs pending downstream reports and flushes the merged windows
    /// upstream immediately (when connected; otherwise the windows keep
    /// accumulating and nothing is lost).
    pub fn flush_now(&self) {
        self.uplink.flush_now();
    }

    /// Absorbs pending downstream reports into the merge windows
    /// *without* flushing upstream — the mid-window state a crash test
    /// needs to stage deterministically (see [`RelayCore::buffered_tuples`]).
    pub fn pull_now(&self) {
        self.link.pull(pivot_live::now_nanos());
    }

    /// Crashes the relay the way a dying process would, while keeping
    /// the listener socket so the same address recovers: the open merge
    /// windows are destroyed (returned as [`CrashResidue`] for the
    /// embedding's `crash_lost` books), every downstream connection is
    /// severed without a `Goodbye` (agents reconnect and re-`Sync`
    /// against this listener), and the upstream link is torn down the
    /// same way so the reader re-registers under the relay's fresh
    /// incarnation and heals the subtree from the answering `Sync`.
    pub fn crash(&self) -> CrashResidue {
        let residue = self.link.core.restart();
        self.link.down.sever();
        self.uplink.sever();
        residue
    }

    /// Flushes once more, announces `Goodbye` upstream, then shuts down
    /// the downstream server (orderly: downstream peers get `Goodbye`s).
    pub fn shutdown(&self) {
        self.uplink.shutdown();
        self.link.down.shutdown();
    }
}

impl Drop for RelayServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
