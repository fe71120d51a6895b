//! A deterministic discrete-event queue.
//!
//! Minimal by design: events are any payload type ordered by scheduled
//! time, with FIFO tie-breaking (a monotone sequence number) so equal-time
//! events pop in insertion order — a property the session replays rely on
//! and the tests pin down. The queue is a `std::collections::BinaryHeap`
//! over one packed `u128` key per event (see `Scheduled::key`); the
//! `heap_matches_sorted_reference` test and the distsys property
//! `queue_interleaving_matches_sorted_reference` pin its pop sequence
//! against a stable sort by `(time, sequence)`, and the workspace
//! goldens pin it end to end through the simulations.
//!
//! [`EventQueue::run`] is the run loop every simulation in the crate
//! drives: it pops until the queue drains or the handler returns
//! [`ControlFlow::Break`], handing the handler the queue so it can
//! schedule follow-up events causally.
//!
//! # In-place pop
//!
//! Almost every pop is followed by a schedule from the same handler.
//! [`EventQueue::pop`] therefore copies the earliest record out but
//! leaves it at the heap's root, marked stale; the next
//! [`EventQueue::schedule`] overwrites the stale root through
//! `peek_mut`, one sift-down, where `BinaryHeap::pop` followed by
//! `push` walks two sift paths. A pop that finds the root still stale
//! removes it first. The order argument: the heap holds the pending
//! records plus at most one stale record, which is the root (nothing
//! is pushed while a root is stale); replacing the root of a valid
//! heap with any record and sifting it down yields a valid heap; so
//! the root after any operation is the greatest record in heap order,
//! and once a stale root is gone it is the unique `(time, seq)` minimum
//! of the pending records. [`EventQueue::len`], `is_empty` and
//! `peek_time` leave the stale root out. The payload is copied out of
//! the root, hence the `E: Copy` bound on `pop`.
//!
//! # Scheduling contract (NaN / causality)
//!
//! [`EventQueue::schedule`] **panics** when the event time is not finite
//! (NaN or ±∞) or lies before the current clock. These are programming
//! errors in the caller — a simulation that schedules into the past has
//! already lost causality, and silently accepting NaN would poison every
//! downstream comparison — so the contract is a loud panic rather than a
//! recoverable error (covered by `#[should_panic]` tests). A time of
//! `-0.0` is accepted and stored as `+0.0`. The clock itself starts at
//! `0.0` on a fresh queue and only advances when an event is popped;
//! scheduling alone never moves it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

/// An event scheduled at a simulated time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: f64,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// The queue's total order packed into one integer: earliest time
    /// first, lowest sequence number on ties. Event times are guaranteed
    /// finite and non-negative, with `-0.0` normalised to `+0.0` (the
    /// [`EventQueue::schedule`] contract), where `f64::to_bits` is
    /// monotone — so a single `u128` compare *is* the `(time, seq)`
    /// lexicographic order, with no float-compare plus tie-break branch
    /// pair on the heap's sift paths.
    #[inline]
    fn key(&self) -> u128 {
        ((self.at.to_bits() as u128) << 64) | self.seq as u128
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert the packed key to get
        // earliest-first with FIFO sequence ties.
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic discrete-event queue with a simulation clock — see the
/// [module docs](self) for the ordering and scheduling contract.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Whether the heap's root is the record [`pop`](Self::pop) last
    /// returned, left in place for the next schedule to overwrite.
    stale: bool,
    now: f64,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            stale: false,
            now: 0.0,
            seq: 0,
        }
    }

    /// Current simulation time: `0.0` on a fresh queue (even after
    /// events have been scheduled), then the timestamp of the most
    /// recently popped event. Only [`pop`](Self::pop) advances it.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.stale)
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` at absolute time `at` (`-0.0` is stored as
    /// `+0.0`).
    ///
    /// # Panics
    /// Panics if `at` is not finite (NaN or ±∞) or earlier than the
    /// current clock — the causality contract documented in the
    /// [module docs](self).
    pub fn schedule(&mut self, at: f64, payload: E) {
        // `-0.0 + 0.0 == +0.0`: the packed key orders by the bit
        // pattern, under which `-0.0` would sort after every positive
        // time.
        let at = at + 0.0;
        assert!(at.is_finite(), "event time must be finite");
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let record = Scheduled {
            at,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        if std::mem::take(&mut self.stale) {
            // One sift-down from the root, where `pop` + `push` would
            // walk two paths.
            *self.heap.peek_mut().expect("a stale root is a record") = record;
        } else {
            self.heap.push(record);
        }
    }

    /// Schedules `payload` `delay` time units from now.
    pub fn schedule_in(&mut self, delay: f64, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    ///
    /// The popped record stays at the heap's root, marked stale, for the
    /// next [`schedule`](Self::schedule) to overwrite; a second pop first
    /// removes it.
    pub fn pop(&mut self) -> Option<(f64, E)>
    where
        E: Copy,
    {
        if std::mem::take(&mut self.stale) {
            self.heap.pop();
        }
        let &Scheduled { at, payload, .. } = self.heap.peek()?;
        self.stale = true;
        self.now = at;
        Some((at, payload))
    }

    /// Pops events in causal order, handing each to `handler` with its
    /// timestamp and the queue (for follow-up schedules), until the
    /// queue drains or the handler breaks. Returns the clock: the time
    /// of the last event handled.
    pub fn run(&mut self, mut handler: impl FnMut(f64, E, &mut Self) -> ControlFlow<()>) -> f64
    where
        E: Copy,
    {
        while let Some((now, ev)) = self.pop() {
            if handler(now, ev, self).is_break() {
                break;
            }
        }
        self.now
    }

    /// Peeks at the earliest pending event time.
    ///
    /// Right after a [`pop`](Self::pop) the root is stale, and this scans
    /// every pending record for the next one (only tests call it).
    pub fn peek_time(&self) -> Option<f64> {
        let root = self.heap.peek()?;
        if !self.stale {
            return Some(root.at);
        }
        // Keys are unique, so every other record is pending, and the
        // earliest of them is the heap's next-greatest.
        self.heap
            .iter()
            .filter(|s| s.seq != root.seq)
            .max()
            .map(|s| s.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "x");
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    /// The documented initial state: a fresh queue's clock reads zero,
    /// and scheduling alone never advances it — only popping does.
    #[test]
    fn clock_starts_at_zero_and_schedule_does_not_advance_it() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0, "fresh queue clock");
        q.schedule(7.5, "later");
        q.schedule(2.5, "sooner");
        assert_eq!(q.now(), 0.0, "schedule must not move the clock");
        assert_eq!(q.peek_time(), Some(2.5));
        assert_eq!(q.now(), 0.0, "peek must not move the clock");
        q.pop();
        assert_eq!(q.now(), 2.5);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        q.schedule(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "a");
        q.pop();
        q.schedule_in(3.0, "b");
        assert_eq!(q.pop(), Some((5.0, "b")));
    }

    /// `-0.0` passes the causality check on a fresh clock, but its bit
    /// pattern would order it after every positive time: it must pop
    /// first, as `+0.0`, and leave the clock at `+0.0`.
    #[test]
    fn negative_zero_pops_first_as_positive_zero() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "later");
        q.schedule(-0.0, "now");
        assert_eq!(q.peek_time().map(f64::to_bits), Some(0));
        let (at, what) = q.pop().unwrap();
        assert_eq!((at.to_bits(), what), (0, "now"));
        assert_eq!(q.now().to_bits(), 0, "clock must read +0.0");
        assert_eq!(q.pop(), Some((5.0, "later")));
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    /// The causality check reads the clock, not the heap's minimum: an
    /// event earlier than `now` is rejected even while later events are
    /// still pending.
    #[test]
    #[should_panic(expected = "into the past")]
    fn heap_rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.schedule(9.0, ());
        q.pop();
        q.schedule(1.5, ());
    }

    /// NaN is rejected on a non-empty heap too, after the clock has
    /// moved — before it could reach the packed-key ordering.
    #[test]
    #[should_panic(expected = "finite")]
    fn heap_rejects_nan_time() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.schedule(3.0, ());
        q.pop();
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_time() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::INFINITY, ());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(4.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2.0));
    }

    /// Far-future events (the case a calendar queue sends to an
    /// overflow lane) pop in exact order against near events, including
    /// one scheduled after the clock has jumped.
    #[test]
    fn overflow_lane_interleaves_correctly() {
        let mut q = EventQueue::new();
        q.schedule(1e9, "far");
        q.schedule(1.0, "near");
        q.schedule(1e9, "far2");
        assert_eq!(q.pop(), Some((1.0, "near")));
        assert_eq!(q.pop(), Some((1e9, "far")));
        q.schedule(1e9 + 0.5, "mid");
        assert_eq!(q.pop(), Some((1e9, "far2")));
        assert_eq!(q.pop(), Some((1e9 + 0.5, "mid")));
        assert_eq!(q.pop(), None);
    }

    /// Growth path: push far more events than a fresh heap has room
    /// for, with quantised (often tied) times, and check the exhaustive
    /// pop order.
    #[test]
    fn resize_preserves_order() {
        let mut q = EventQueue::new();
        let mut expect: Vec<(f64, usize)> = Vec::new();
        for i in 0..500usize {
            let at = ((i * 7919) % 101) as f64 * 0.25;
            q.schedule(at, i);
            expect.push((at, i));
        }
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        while let Some((at, i)) = q.pop() {
            got.push((at, i));
        }
        assert_eq!(got, expect);
    }

    /// The ordering pin at the queue level: random interleavings of
    /// schedules and pops pop exactly what a stable sort of the pending
    /// events by `(time, sequence)` puts first — including ties, zero
    /// gaps, `-0.0`, irregular gaps and far-future jumps.
    #[test]
    fn heap_matches_sorted_reference() {
        // Deterministic xorshift so the test needs no external RNG.
        let mut s: u64 = 0x9E3779B97F4A7C15;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _case in 0..50 {
            let mut q = EventQueue::new();
            // Pending `(time, payload)`, kept in schedule order.
            let mut reference: Vec<(f64, u64)> = Vec::new();
            for _op in 0..400 {
                let r = rand();
                if r % 3 == 0 {
                    // The stable sort keeps schedule order on equal
                    // times: the FIFO tie-break.
                    reference.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let expect = (!reference.is_empty()).then(|| reference.remove(0));
                    assert_eq!(q.pop(), expect);
                    if let Some((at, _)) = expect {
                        assert_eq!(q.now().to_bits(), at.to_bits());
                    }
                } else {
                    // Mix of quantised, tied, irregular and far times.
                    let base = q.now();
                    let at = match r % 8 {
                        0 => base,
                        1 => base + 1.0,
                        2 => base + 0.5,
                        3 => base + (r % 13) as f64,
                        4 => base + (r % 1000) as f64 * 1e-3,
                        5 => base + 1e7 + (r % 5) as f64,
                        6 if base == 0.0 => -0.0,
                        _ => base + (r % 3) as f64 * 2.5,
                    };
                    q.schedule(at, r);
                    reference.push((at + 0.0, r));
                }
                assert_eq!(q.len(), reference.len());
            }
            reference.sort_by(|a, b| a.0.total_cmp(&b.0));
            for ev in reference {
                assert_eq!(q.pop(), Some(ev));
            }
            assert_eq!(q.pop(), None);
        }
    }
}
