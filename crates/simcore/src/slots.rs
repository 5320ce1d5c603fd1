//! The k-slot server every shared-queue pool is built from.

use crate::{SimDuration, SimTime};

/// `k` interchangeable slots, each held from [`Slots::acquire`] to
/// [`Slots::release`]. Unlike a [`crate::Server`] task, a hold has no
/// duration known at its start (a host SLS worker stays held across its
/// operator's device I/O), so busy time is the held-count integral
/// between the two calls. There is no waiting room: each owner queues in
/// its own order.
///
/// Slot ids come from a LIFO free list, so a fresh pool hands out
/// `0, 1, 2, …` and the slot released last is reused first. Debug builds
/// assert that `now` never decreases and that only a held slot is
/// released.
///
/// # Example
///
/// ```
/// use recssd_sim::{SimDuration, SimTime, Slots};
///
/// let t = |us| SimTime::ZERO + SimDuration::from_us(us);
/// let mut workers = Slots::new(2);
/// assert_eq!(workers.acquire(t(0)), Some(0));
/// assert_eq!(workers.acquire(t(1)), Some(1));
/// assert_eq!(workers.acquire(t(1)), None); // both held
/// workers.release(t(3), 0);
/// // Held 0–3 and 1–4: 6 µs of busy time over a 4 µs window.
/// assert_eq!(workers.busy(t(4)), SimDuration::from_us(6));
/// assert_eq!(workers.occupancy(t(4)), 1.5);
/// ```
#[derive(Debug, Clone)]
pub struct Slots {
    /// Free slot ids; the last one is handed out next.
    free: Vec<usize>,
    width: usize,
    /// Held-count integral from `window_start` up to `last`.
    busy: SimDuration,
    /// Latest instant the slots were called at.
    last: SimTime,
    window_start: SimTime,
}

impl Slots {
    /// `width` free slots, the statistics window open at time zero.
    pub fn new(width: usize) -> Self {
        Slots {
            free: (0..width).rev().collect(),
            width,
            busy: SimDuration::ZERO,
            last: SimTime::ZERO,
            window_start: SimTime::ZERO,
        }
    }

    /// Number of slots, held or free.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Slots held right now.
    pub fn held(&self) -> usize {
        self.width - self.free.len()
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "slots called back at {now}");
        self.busy += now.saturating_since(self.last) * self.held() as u64;
        self.last = self.last.max(now);
    }

    /// Takes a free slot at `now`; `None` when every slot is held.
    pub fn acquire(&mut self, now: SimTime) -> Option<usize> {
        self.advance(now);
        self.free.pop()
    }

    /// Returns the held `slot` at `now`.
    pub fn release(&mut self, now: SimTime, slot: usize) {
        debug_assert!(
            slot < self.width && !self.free.contains(&slot),
            "slot {slot} is not held"
        );
        self.advance(now);
        self.free.push(slot);
    }

    /// Held-count integral over the statistics window up to `now`.
    pub fn busy(&self, now: SimTime) -> SimDuration {
        self.busy + now.saturating_since(self.last) * self.held() as u64
    }

    /// Length of the statistics window up to `now`.
    pub fn window(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.window_start)
    }

    /// Time-averaged held count over the window up to `now` (0 for an
    /// empty window): the utilisation ρ of a one-slot pool.
    pub fn occupancy(&self, now: SimTime) -> f64 {
        let window = self.window(now).as_ns();
        if window == 0 {
            return 0.0;
        }
        self.busy(now).as_ns() as f64 / window as f64
    }

    /// Opens a new statistics window at `now`; held slots stay held.
    pub fn reset(&mut self, now: SimTime) {
        self.advance(now);
        self.busy = SimDuration::ZERO;
        self.window_start = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not held")]
    fn releasing_a_free_slot_panics_in_debug() {
        let mut s = Slots::new(2);
        s.acquire(t(0));
        s.release(t(1), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "called back")]
    fn time_running_backwards_panics_in_debug() {
        let mut s = Slots::new(2);
        s.acquire(t(10));
        s.acquire(t(5));
    }

    #[test]
    fn reset_opens_a_window_but_keeps_held_slots() {
        let mut s = Slots::new(2);
        s.acquire(t(0));
        s.reset(t(10));
        assert_eq!((s.busy(t(10)), s.held()), (SimDuration::ZERO, 1));
        assert_eq!(s.busy(t(14)), SimDuration::from_ns(4));
        assert_eq!(s.occupancy(t(14)), 1.0);
        assert_eq!(s.window(t(14)), SimDuration::from_ns(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random acquires, releases and resets against a naive
        /// reference: a stack of free ids and, per slot, when it was
        /// taken; busy time is Σ over holds of their overlap with the
        /// window.
        #[test]
        fn slots_match_a_naive_pool(
            width in 1usize..6,
            ops in proptest::collection::vec((0u8..4, 0u64..30, 0usize..8), 1..200),
        ) {
            let mut s = Slots::new(width);
            let mut free: Vec<usize> = (0..width).rev().collect();
            let mut since: Vec<Option<SimTime>> = vec![None; width];
            let (mut now, mut window, mut done) = (t(0), t(0), SimDuration::ZERO);
            for (op, gap, pick) in ops {
                now += SimDuration::from_ns(gap);
                let held: Vec<usize> = (0..width).filter(|&i| since[i].is_some()).collect();
                match op {
                    0 | 1 => {
                        let want = free.pop();
                        prop_assert_eq!(s.acquire(now), want);
                        if let Some(slot) = want {
                            since[slot] = Some(now);
                        }
                    }
                    2 if !held.is_empty() => {
                        let slot = held[pick % held.len()];
                        s.release(now, slot);
                        let from = since[slot].take().expect("held").max(window);
                        done += now.saturating_since(from);
                        free.push(slot);
                    }
                    _ => {
                        s.reset(now);
                        (window, done) = (now, SimDuration::ZERO);
                    }
                }
                prop_assert_eq!(s.held(), width - free.len());
                // Read now and a little later: open holds keep counting.
                for at in [now, now + SimDuration::from_ns(pick as u64)] {
                    let open: SimDuration = since
                        .iter()
                        .flatten()
                        .map(|&from| at.saturating_since(from.max(window)))
                        .sum();
                    prop_assert_eq!(s.busy(at), done + open);
                    prop_assert_eq!(s.window(at), at.saturating_since(window));
                    prop_assert!(s.busy(at) <= s.window(at) * width as u64);
                }
            }
        }
    }
}
