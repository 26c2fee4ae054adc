//! The loss ledger: the one statement of the system's loss identity.
//!
//! Every tuple an agent emits, and every raw event a hindsight ring
//! records, ends in exactly one bucket: delivered to the frontend,
//! dropped by the transport, refused as stale by a restarted relay, lost
//! with a crashing agent or relay, shed from a bounded buffer or queue,
//! or sampled out of a ring before any trigger claimed it. A [`Ledger`]
//! names those buckets and [`Ledger::check`] is the only place their sum
//! is written; every harness fills a ledger from its ground truth and
//! checks it. The same type keeps the tuple books and the event books
//! (for events, `emitted` means "recorded").
//!
//! [`SeqWindow`] is the per-source sequence tracking the frontend and the
//! relay share: it decides which report frames are duplicates and how
//! many are known missing.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::AddAssign;

use pivot_baggage::QueryId;

use crate::agent::Agent;
use crate::retro::RetroCounters;

/// Where the emitted tuples (or recorded events) went. Additive: ledgers
/// of disjoint parts of a system sum with `+=`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Ledger {
    /// Tuples emitted (events recorded), ground truth.
    pub emitted: u64,
    /// Delivered to the frontend.
    pub delivered: u64,
    /// Dropped by the transport.
    pub dropped: u64,
    /// Refused by a relay because a restart overtook them.
    pub stale: u64,
    /// Lost with a crashing agent or relay.
    pub crash_lost: u64,
    /// Shed from a bounded buffer or queue.
    pub shed: u64,
    /// Overwritten in a hindsight ring before any trigger claimed them.
    pub sampled_out: u64,
}

impl Ledger {
    /// The loss identity: `emitted == delivered + dropped + stale +
    /// crash_lost + shed + sampled_out`, exactly.
    pub fn check(&self) -> Result<(), Imbalance> {
        let accounted = u128::from(self.delivered)
            + u128::from(self.dropped)
            + u128::from(self.stale)
            + u128::from(self.crash_lost)
            + u128::from(self.shed)
            + u128::from(self.sampled_out);
        let gap = i128::from(self.emitted) - accounted as i128;
        if gap == 0 {
            Ok(())
        } else {
            Err(Imbalance { ledger: *self, gap })
        }
    }

    /// Folds one agent incarnation's tuple ground truth for `queries`:
    /// its cumulative emitted and shed counters. A dying incarnation must
    /// be folded before its replacement resets them.
    pub fn add_agent(&mut self, agent: &Agent, queries: &[QueryId]) {
        for &q in queries {
            self.emitted += agent.emitted_for(q);
            self.shed += agent.shed_for(q);
        }
    }

    /// Books an agent crash: flushes the dying `agent` at `now` and counts
    /// every tuple of those reports, which never reach a bus, as
    /// `crash_lost`.
    pub fn add_crash_flush(&mut self, agent: &Agent, now: u64) {
        for report in agent.flush(now) {
            self.crash_lost += report.tuples;
        }
    }

    /// Folds a hindsight ring's lifetime counters (from
    /// [`Agent::retro_counters`] or [`Agent::retro_seal`]) into an event
    /// ledger: recorded events are its `emitted`.
    pub fn add_ring(&mut self, rc: RetroCounters) {
        self.emitted += rc.recorded;
        self.sampled_out += rc.sampled_out;
        self.shed += rc.shed;
    }
}

impl AddAssign for Ledger {
    fn add_assign(&mut self, rhs: Ledger) {
        self.emitted += rhs.emitted;
        self.delivered += rhs.delivered;
        self.dropped += rhs.dropped;
        self.stale += rhs.stale;
        self.crash_lost += rhs.crash_lost;
        self.shed += rhs.shed;
        self.sampled_out += rhs.sampled_out;
    }
}

/// A ledger that does not balance, as returned by [`Ledger::check`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Imbalance {
    /// The offending ledger.
    pub ledger: Ledger,
    /// `emitted` minus the sum of every bucket: positive when tuples
    /// vanished, negative when something was counted twice.
    pub gap: i128,
}

impl fmt::Display for Imbalance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l = &self.ledger;
        write!(
            f,
            "emitted {} != delivered {} + dropped {} + stale {} + crash_lost {} + shed {} \
             + sampled_out {} ({:+} unaccounted)",
            l.emitted,
            l.delivered,
            l.dropped,
            l.stale,
            l.crash_lost,
            l.shed,
            l.sampled_out,
            self.gap,
        )
    }
}

impl std::error::Error for Imbalance {}

/// One reporting source's sequence window: every sequence number below
/// `next` has arrived, and `pending` holds the out-of-order arrivals
/// above it. The frontend opens one per agent incarnation at 0; a relay
/// opens one per downstream source at that source's baseline.
#[derive(Clone, Default, Debug)]
pub struct SeqWindow {
    pub(crate) next: u64,
    pub(crate) pending: BTreeSet<u64>,
}

impl SeqWindow {
    /// A window expecting `first` as its first sequence number.
    pub fn starting_at(first: u64) -> SeqWindow {
        SeqWindow {
            next: first,
            pending: BTreeSet::new(),
        }
    }

    /// Records `seq`; returns `false` when it was already received (or
    /// precedes the window's start).
    pub fn record(&mut self, seq: u64) -> bool {
        if seq < self.next || !self.pending.insert(seq) {
            return false;
        }
        while self.pending.remove(&self.next) {
            self.next += 1;
        }
        true
    }

    /// Sequence numbers known to exist (some later one arrived) but never
    /// received.
    pub fn missed(&self) -> u64 {
        match self.pending.iter().next_back() {
            Some(max) => (max + 1 - self.next) - self.pending.len() as u64,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn books() -> Ledger {
        Ledger {
            emitted: 21,
            delivered: 1,
            dropped: 2,
            stale: 3,
            crash_lost: 4,
            shed: 5,
            sampled_out: 6,
        }
    }

    #[test]
    fn balanced_ledger_passes() {
        assert_eq!(books().check(), Ok(()));
        assert_eq!(Ledger::default().check(), Ok(()));
    }

    /// Selects one term of a ledger.
    type Term = fn(&mut Ledger) -> &mut u64;

    #[test]
    fn off_by_one_in_any_term_fails_with_the_signed_gap() {
        let bumps: [(&str, Term, i128); 7] = [
            ("emitted", |l| &mut l.emitted, 1),
            ("delivered", |l| &mut l.delivered, -1),
            ("dropped", |l| &mut l.dropped, -1),
            ("stale", |l| &mut l.stale, -1),
            ("crash_lost", |l| &mut l.crash_lost, -1),
            ("shed", |l| &mut l.shed, -1),
            ("sampled_out", |l| &mut l.sampled_out, -1),
        ];
        for (name, term, gap) in bumps {
            let mut l = books();
            *term(&mut l) += 1;
            let err = l.check().expect_err(name);
            assert_eq!(err.gap, gap, "{name}");
            assert_eq!(err.ledger, l);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("{gap:+} unaccounted")),
                "{name}: {msg}"
            );
            assert!(msg.contains(&format!("{name} {}", *term(&mut l))), "{msg}");

            let mut l = books();
            *term(&mut l) -= 1;
            assert_eq!(l.check().expect_err(name).gap, -gap, "{name}");
        }
    }

    #[test]
    fn sum_of_balanced_ledgers_is_balanced() {
        let mut sum = books();
        sum += Ledger {
            emitted: 7,
            delivered: 7,
            ..Ledger::default()
        };
        assert_eq!(sum.check(), Ok(()));
        assert_eq!((sum.emitted, sum.delivered), (28, 8));
    }
}
