//! The FIFO single server every timed device resource is built from.
//!
//! The firmware core, each SLS engine, the PCIe link and every flash die
//! and channel serve one task at a time in arrival order. [`Server`] is
//! that discipline once: its owner schedules a completion event for each
//! task that starts and routes the event back through
//! [`Server::finish`]. Busy time is counted when a task *starts*, so the
//! counter and the service windows the owner traces from its start sites
//! are the same quantity: at idle, Σ window lengths == [`Server::busy`].

use std::collections::VecDeque;

use crate::{SimDuration, SimTime};

/// A FIFO single server of tasks tagged `T`.
///
/// [`Server::start`] returns the delay to schedule when the server was
/// idle; [`Server::finish`] completes the running task at exactly its
/// start + duration and starts the next queued one. Debug builds assert
/// that `now` never decreases across calls and that every completion
/// lands at that instant, so a misrouted event fails loudly instead of
/// skewing a counter.
///
/// # Example
///
/// ```
/// use recssd_sim::{Server, SimDuration, SimTime};
///
/// let mut core: Server<u32> = Server::new();
/// let t0 = SimTime::ZERO;
/// assert_eq!(core.start(t0, SimDuration::from_us(2), 1), Some(SimDuration::from_us(2)));
/// assert_eq!(core.start(t0, SimDuration::from_us(3), 2), None); // queues
/// let (done, next) = core.finish(t0 + SimDuration::from_us(2));
/// assert_eq!((done, next), (1, Some(SimDuration::from_us(3))));
/// assert_eq!(core.current(), Some(2));
/// assert_eq!(core.busy(), SimDuration::from_us(5)); // counted at start
/// ```
#[derive(Debug, Clone)]
pub struct Server<T> {
    /// The running task and the instant it completes.
    running: Option<(T, SimTime)>,
    queue: VecDeque<(SimDuration, T)>,
    busy: SimDuration,
    served: u64,
    /// Latest instant the server was called at (debug monotonicity).
    last: SimTime,
}

impl<T: Copy> Default for Server<T> {
    fn default() -> Self {
        Server::with_capacity(0)
    }
}

impl<T: Copy> Server<T> {
    /// An idle server.
    pub fn new() -> Self {
        Server::default()
    }

    /// An idle server whose queue holds `n` waiters before it grows, for
    /// owners whose backlogs must not allocate in steady state.
    pub fn with_capacity(n: usize) -> Self {
        Server {
            running: None,
            queue: VecDeque::with_capacity(n),
            busy: SimDuration::ZERO,
            served: 0,
            last: SimTime::ZERO,
        }
    }

    /// `true` if no task is running (then none is queued either).
    pub fn idle(&self) -> bool {
        self.running.is_none()
    }

    /// Tag of the running task, if any.
    pub fn current(&self) -> Option<T> {
        self.running.map(|(tag, _)| tag)
    }

    /// Service time of every task started since the last reset.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Tasks completed since the last reset.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Zeroes the busy total and the served count (a statistics reset);
    /// running and queued tasks are untouched.
    pub fn reset(&mut self) {
        self.busy = SimDuration::ZERO;
        self.served = 0;
    }

    fn tick(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.last,
            "server called at {now} after {}",
            self.last
        );
        self.last = now;
    }

    fn run(&mut self, now: SimTime, duration: SimDuration, tag: T) -> SimDuration {
        self.busy += duration;
        self.running = Some((tag, now + duration));
        duration
    }

    /// Submits a task at `now`. When the server was idle the task starts
    /// at once and the returned delay must be scheduled as its completion
    /// event; otherwise it queues FIFO and `None` is returned.
    pub fn start(&mut self, now: SimTime, duration: SimDuration, tag: T) -> Option<SimDuration> {
        self.tick(now);
        if self.running.is_some() {
            self.queue.push_back((duration, tag));
            None
        } else {
            Some(self.run(now, duration, tag))
        }
    }

    /// Completes the running task at `now`, returning its tag and — when
    /// a task was queued — the delay to schedule for that one, which is
    /// now [`Server::current`].
    ///
    /// # Panics
    ///
    /// Panics if the server is idle (a completion without a running task
    /// means event routing is corrupt). Debug builds also panic when
    /// `now` is not the running task's start + duration.
    pub fn finish(&mut self, now: SimTime) -> (T, Option<SimDuration>) {
        self.tick(now);
        let (done, ends) = self.running.take().expect("server completion while idle");
        debug_assert_eq!(now, ends, "completion away from its task's end");
        self.served += 1;
        let next = self
            .queue
            .pop_front()
            .map(|(duration, tag)| self.run(now, duration, tag));
        (done, next)
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
    #[should_panic(expected = "away from its task's end")]
    fn finish_at_the_wrong_instant_panics_in_debug() {
        let mut s = Server::new();
        s.start(t(0), SimDuration::from_ns(10), 1u8);
        s.finish(t(9));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "after")]
    fn time_running_backwards_panics_in_debug() {
        let mut s = Server::new();
        s.start(t(10), SimDuration::from_ns(10), 1u8);
        s.start(t(5), SimDuration::from_ns(10), 2u8);
    }

    #[test]
    fn reset_zeroes_the_counters_but_keeps_the_work() {
        let mut s = Server::new();
        s.start(t(0), SimDuration::from_ns(4), 1u8);
        s.start(t(0), SimDuration::from_ns(6), 2u8);
        s.finish(t(4));
        s.reset();
        assert_eq!(
            (s.busy(), s.served(), s.current()),
            (SimDuration::ZERO, 0, Some(2))
        );
        assert_eq!(s.finish(t(10)), (2, None));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random interleavings of arrivals and completions against a
        /// naive reference: a `VecDeque` of every unfinished task, whose
        /// head is the running one and started at `head_start`.
        #[test]
        fn server_matches_a_naive_fifo(
            ops in proptest::collection::vec((proptest::bool::ANY, 0u64..50, 1u64..40), 1..200),
        ) {
            let mut s = Server::new();
            let mut fifo: VecDeque<(u64, SimDuration)> = VecDeque::new();
            let (mut now, mut head_start, mut started) = (t(0), t(0), SimDuration::ZERO);
            let (mut tag, mut finished) = (0u64, 0u64);
            for (arrive, gap, dur) in ops {
                let d = SimDuration::from_ns(dur);
                if arrive || fifo.is_empty() {
                    // An arrival never passes the running task's
                    // completion: the event loop delivers that first.
                    now += SimDuration::from_ns(gap);
                    if let Some(&(_, hd)) = fifo.front() {
                        now = now.min(head_start + hd);
                    }
                    let idle = fifo.is_empty();
                    fifo.push_back((tag, d));
                    prop_assert_eq!(s.start(now, d, tag), idle.then_some(d));
                    if idle {
                        (head_start, started) = (now, started + d);
                    }
                    tag += 1;
                } else {
                    let (done, hd) = fifo.pop_front().expect("busy");
                    now = head_start + hd;
                    let next = fifo.front().map(|&(_, nd)| nd);
                    prop_assert_eq!(s.finish(now), (done, next));
                    if let Some(nd) = next {
                        (head_start, started) = (now, started + nd);
                    }
                    finished += 1;
                }
                prop_assert_eq!(s.current(), fifo.front().map(|&(tag, _)| tag));
                prop_assert_eq!((s.busy(), s.served()), (started, finished));
                let running = fifo.front().map_or(SimDuration::ZERO, |&(_, hd)| hd);
                prop_assert!(s.busy() <= now.saturating_since(t(0)) + running);
            }
        }
    }
}
