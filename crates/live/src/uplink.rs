//! The upstream half of every bus client: one reconnecting, framed
//! connection with a flush hook.
//!
//! A leaf [`LiveAgent`](crate::LiveAgent) and a fan-in relay
//! (`pivot_relay::live::RelayServer`) both connect out to a parent bus
//! server, register with a hello, apply the control-plane frames the
//! parent sends down, and stream their own frames back on an interval.
//! [`Uplink`] is that client, written once. Its owner supplies an
//! [`UplinkHandler`] for the four places a leaf and a relay differ: which
//! hello it sends, what a `Command` does, what a `Sync` does, and what
//! one flush produces.
//!
//! An uplink runs two threads. The **reader** applies incoming frames and,
//! if the connection dies without a `Goodbye`, reconnects per the
//! [`ReconnectPolicy`] and re-registers; the parent answers every hello
//! with a `Sync`, which heals whatever was missed. The **flusher** asks
//! the handler for frames every interval and sends them as one vectored
//! write ([`write_frames`]).
//!
//! **Ordering.** The writer lock is held from a flush's drain through its
//! write, and every status change that decides whether frames may still
//! go out happens under it too. [`Uplink::shutdown`] stops and joins the
//! flusher (whose final flush is the only final flush) before it writes
//! `Goodbye`, so `Goodbye` is always the last frame an uplink writes.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use pivot_baggage::QueryId;
use pivot_core::{Command, QueryBudget};
use pivot_query::CompiledCode;

use crate::frame::{read_frame, write_frame, write_frames};
use crate::proto::{decode_message, encode_message, Message};

/// Connection state of an uplink, distinguishing *orderly* closes from
/// *lost* connections: a killed bus or severed link surfaces as
/// `Reconnecting`/`Lost`, never as a quiet exit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnStatus {
    /// Connected and registered.
    Connected,
    /// Connection lost; reconnection attempts in progress.
    Reconnecting,
    /// Closed on purpose: local shutdown, or the server said `Goodbye`.
    Closed,
    /// Connection lost for good (reconnection disabled or exhausted).
    /// An error status — tuples emitted in this state never reach the
    /// frontend.
    Lost,
}

impl ConnStatus {
    /// `true` for the error state ([`ConnStatus::Lost`]).
    pub fn is_error(self) -> bool {
        self == ConnStatus::Lost
    }
}

/// Reconnection behaviour of an uplink: capped exponential backoff with
/// deterministic jitter (drawn from [`pivot_simrt::mix64`], keyed by
/// `jitter_seed ^ attempt` — never from wall time, so retry schedules are
/// reproducible given the seed).
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Attempts before giving up and going [`ConnStatus::Lost`].
    pub max_attempts: u32,
    /// First retry delay; doubles each attempt.
    pub base_delay: Duration,
    /// Upper bound on the exponential portion.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter term.
    pub jitter_seed: u64,
}

impl ReconnectPolicy {
    /// A practical default: 10 attempts, 10 ms doubling to a 500 ms cap.
    pub fn new(jitter_seed: u64) -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed,
        }
    }

    /// No reconnection: the first lost connection goes straight to
    /// [`ConnStatus::Lost`].
    pub fn disabled() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Delay before attempt `attempt` (0-based): `min(base · 2^attempt,
    /// max)` plus a deterministic jitter in `[0, base]`.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let spread = self.base_delay.as_nanos() as u64;
        let jitter = match spread {
            0 => 0,
            s => pivot_simrt::mix64(self.jitter_seed ^ u64::from(attempt)) % (s + 1),
        };
        exp + Duration::from_nanos(jitter)
    }
}

/// What an uplink's owner does with the connection.
pub trait UplinkHandler: Send + Sync {
    /// The registration frame, sent on connect and on every reconnect.
    fn hello(&self) -> Message;
    /// Applies a weave/unweave/budget command from the parent.
    fn apply_command(&self, cmd: &Command);
    /// Applies an epoch re-sync: the parent's full installed-query set and
    /// budgets.
    fn apply_sync(&self, queries: Vec<Arc<CompiledCode>>, budgets: Vec<(QueryId, QueryBudget)>);
    /// The frames of one flush. While the link is down this is called with
    /// `connected == false` and its result is discarded, so it must then
    /// consume nothing it would owe the parent (sequence numbers, drained
    /// reports).
    fn flush_frames(&self, connected: bool) -> Vec<Message>;
}

/// State shared by an [`Uplink`] handle and its two threads.
struct Shared {
    handler: Arc<dyn UplinkHandler>,
    addr: SocketAddr,
    policy: ReconnectPolicy,
    /// The live write half; replaced in place on reconnect. Held from a
    /// flush's drain through its write, and across every status change
    /// that decides whether frames may still go out.
    writer: Mutex<TcpStream>,
    status: Mutex<ConnStatus>,
    /// Last install epoch observed in a `Sync` frame.
    epoch: AtomicU64,
    /// Successful reconnections.
    reconnects: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn status(&self) -> ConnStatus {
        *self.status.lock()
    }

    /// A reader-side status change; a local `shutdown`/`abort` has already
    /// chosen the final status, so none happens once `stop` is raised.
    fn set_status(&self, s: ConnStatus) {
        let mut status = self.status.lock();
        if !self.stop.load(Ordering::SeqCst) {
            *status = s;
        }
    }

    fn flush(&self) {
        let mut writer = self.writer.lock();
        let connected = self.status() == ConnStatus::Connected;
        let frames = self.handler.flush_frames(connected);
        if connected && !frames.is_empty() {
            let frames: Vec<Vec<u8>> = frames.iter().map(encode_message).collect();
            let _ = write_frames(&mut *writer, &frames);
        }
    }
}

/// A reconnecting, framed connection to a parent bus server, driven by an
/// [`UplinkHandler`]. See the module docs.
pub struct Uplink {
    shared: Arc<Shared>,
    reader: Mutex<Option<JoinHandle<()>>>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl Uplink {
    /// Connects to `addr`, sends the handler's hello, and starts the
    /// reader and the flusher (one flush every `flush_interval`).
    pub fn connect(
        addr: SocketAddr,
        flush_interval: Duration,
        policy: ReconnectPolicy,
        handler: Arc<dyn UplinkHandler>,
    ) -> io::Result<Uplink> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        write_frame(&mut writer, &encode_message(&handler.hello()))?;
        let shared = Arc::new(Shared {
            handler,
            addr,
            policy,
            writer: Mutex::new(writer),
            status: Mutex::new(ConnStatus::Connected),
            epoch: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::spawn(move || reader_loop(stream, &reader_shared));
        let flusher_shared = Arc::clone(&shared);
        let flusher = std::thread::spawn(move || {
            // Interruptible sleep: shutdown() must not wait out a long
            // interval.
            while !sleep_unless_stopped(flush_interval, &flusher_shared.stop) {
                flusher_shared.flush();
            }
            // The final flush, so short-lived processes still report.
            flusher_shared.flush();
        });
        Ok(Uplink {
            shared,
            reader: Mutex::new(Some(reader)),
            flusher: Mutex::new(Some(flusher)),
        })
    }

    /// Current connection status.
    pub fn status(&self) -> ConnStatus {
        self.shared.status()
    }

    /// The last install epoch observed in a `Sync` frame (0 before the
    /// first sync arrives).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Successful reconnections so far.
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::SeqCst)
    }

    /// Blocks until the status is [`ConnStatus::Connected`] and the
    /// observed epoch reaches `epoch`, or `timeout` elapses; returns
    /// whether the target was reached. The post-reconnect convergence
    /// barrier for tests and benches.
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.status() == ConnStatus::Connected && self.epoch() >= epoch {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Runs one flush now, on the caller's thread.
    pub fn flush_now(&self) {
        self.shared.flush();
    }

    /// Closes the socket without a `Goodbye`, the way a network fault
    /// would; the reader sees a lost connection and reconnects.
    pub fn sever(&self) {
        let _ = self.shared.writer.lock().shutdown(Shutdown::Both);
    }

    /// Orderly close: stops the flusher and waits for its final flush,
    /// then writes `Goodbye` (if connected), closes the socket and joins
    /// the reader. Ends [`ConnStatus::Closed`].
    pub fn shutdown(&self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        join(&self.flusher);
        {
            let mut writer = self.shared.writer.lock();
            let mut status = self.shared.status.lock();
            if *status == ConnStatus::Connected {
                let _ = write_frame(&mut *writer, &encode_message(&Message::Goodbye));
            }
            *status = ConnStatus::Closed;
            let _ = writer.shutdown(Shutdown::Both);
        }
        join(&self.reader);
    }

    /// Kills the connection the way a crashing process would: no final
    /// flush, no `Goodbye`, socket torn down. Ends [`ConnStatus::Lost`].
    pub fn abort(&self) {
        {
            // Raising `stop` under the writer lock keeps the flusher from
            // slipping in a final flush before the status turns `Lost`.
            let writer = self.shared.writer.lock();
            if self.shared.stop.swap(true, Ordering::SeqCst) {
                return;
            }
            *self.shared.status.lock() = ConnStatus::Lost;
            let _ = writer.shutdown(Shutdown::Both);
        }
        join(&self.flusher);
        join(&self.reader);
    }
}

impl Drop for Uplink {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn join(handle: &Mutex<Option<JoinHandle<()>>>) {
    if let Some(handle) = handle.lock().take() {
        let _ = handle.join();
    }
}

/// Reads one connection until it ends, applying commands and `Sync`
/// re-syncs through the handler. Returns whether it ended orderly (the
/// parent said `Goodbye`); EOF, a frame that fails to decode (including
/// one stamped with another wire version) and a frame that only flows
/// upstream all count as a lost connection.
fn read_session(read: &mut TcpStream, shared: &Shared) -> bool {
    while let Ok(payload) = read_frame(read) {
        match decode_message(&payload) {
            Ok(Message::Command(cmd)) => shared.handler.apply_command(&cmd),
            Ok(Message::Sync {
                epoch,
                queries,
                budgets,
            }) => {
                shared.handler.apply_sync(queries, budgets);
                shared.epoch.store(epoch, Ordering::SeqCst);
            }
            Ok(Message::Goodbye) => return true,
            Ok(
                Message::Hello(_) | Message::HelloRelay(_) | Message::Report(_) | Message::Retro(_),
            )
            | Err(_) => return false,
        }
    }
    false
}

/// The reader thread: session loop with reconnection.
fn reader_loop(mut read: TcpStream, shared: &Shared) {
    loop {
        if read_session(&mut read, shared) {
            shared.set_status(ConnStatus::Closed);
            return;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        shared.set_status(ConnStatus::Reconnecting);
        match reconnect(shared) {
            Some(new_read) => read = new_read,
            None => {
                shared.set_status(ConnStatus::Lost);
                return;
            }
        }
    }
}

/// Re-establishes the connection per the policy. On success the writer
/// is replaced, a fresh hello is sent and the status turns `Connected`,
/// all under the writer lock; the parent answers with a `Sync` that
/// reconciles whatever was missed.
fn reconnect(shared: &Shared) -> Option<TcpStream> {
    for attempt in 0..shared.policy.max_attempts {
        if sleep_unless_stopped(shared.policy.backoff(attempt), &shared.stop) {
            return None;
        }
        let Ok(stream) = TcpStream::connect(shared.addr) else {
            continue;
        };
        let Ok(mut write_half) = stream.set_nodelay(true).and_then(|()| stream.try_clone()) else {
            continue;
        };
        let mut writer = shared.writer.lock();
        if shared.stop.load(Ordering::SeqCst) {
            return None;
        }
        if write_frame(&mut write_half, &encode_message(&shared.handler.hello())).is_ok() {
            *writer = write_half;
            shared.reconnects.fetch_add(1, Ordering::SeqCst);
            shared.set_status(ConnStatus::Connected);
            return Some(stream);
        }
    }
    None
}

/// Sleeps `d` in small slices, returning `true` (and early) if `stop` is
/// raised — so shutdown never waits out a long interval or backoff.
fn sleep_unless_stopped(d: Duration, stop: &AtomicBool) -> bool {
    let deadline = Instant::now() + d;
    while Instant::now() < deadline {
        if stop.load(Ordering::SeqCst) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2).min(deadline - Instant::now()));
    }
    stop.load(Ordering::SeqCst)
}
