//! The embedded firmware core: a serial queue of timed tasks.
//!
//! The Cosmos+ FTL runs on a 1 GHz dual-core ARM A9; in this model one core
//! executes FTL work serially (command processing, NDP config processing
//! and the per-page "Translation" reduction), while the second core is
//! assumed to service the NVMe frontend interrupt path (its cost is folded
//! into the per-command charge). Serialising tasks on this resource is
//! what produces the paper's two headline firmware effects: the ~10 K IOPS
//! host-visible random-read ceiling of the baseline (§3.2) and the
//! Translation-bound NDP profile of Fig. 8.

use std::collections::VecDeque;

use recssd_sim::SimDuration;

/// Caller-defined tag identifying a firmware task; returned when the task
/// completes so the caller can resume the appropriate state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FwTag(pub u64);

/// A serial task executor with FIFO queueing.
///
/// The owner schedules a completion event `duration` after each task
/// starts; [`FwCore::start`] returns the delay to schedule when the core
/// was idle, and [`FwCore::finish`] pops the next queued task.
#[derive(Debug, Default)]
pub struct FwCore {
    current: Option<FwTag>,
    queue: VecDeque<(SimDuration, FwTag)>,
    busy_total: SimDuration,
}

impl FwCore {
    /// Creates an idle core.
    pub fn new() -> Self {
        FwCore::default()
    }

    /// `true` if no task is running.
    pub fn idle(&self) -> bool {
        self.current.is_none()
    }

    /// Number of queued (not yet started) tasks.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Tag of the currently running task, if any (the task popped by the
    /// latest [`FwCore::finish`], until it finishes in turn).
    pub fn current(&self) -> Option<FwTag> {
        self.current
    }

    /// Total busy time accumulated across all started tasks.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Zeroes the accumulated busy time (a statistics reset); running and
    /// queued tasks are untouched.
    pub fn reset_busy(&mut self) {
        self.busy_total = SimDuration::ZERO;
    }

    /// Submits a task. If the core is idle the task starts immediately and
    /// the returned delay must be scheduled as the core's completion event;
    /// if busy, the task queues and `None` is returned.
    pub fn start(&mut self, duration: SimDuration, tag: FwTag) -> Option<SimDuration> {
        self.busy_total += duration;
        if self.current.is_none() {
            self.current = Some(tag);
            Some(duration)
        } else {
            self.queue.push_back((duration, tag));
            None
        }
    }

    /// Completes the running task, returning its tag and — if another task
    /// was queued — the delay to schedule for that next task.
    ///
    /// # Panics
    ///
    /// Panics if the core is idle (a completion event arrived without a
    /// running task, indicating event routing corruption).
    pub fn finish(&mut self) -> (FwTag, Option<SimDuration>) {
        let done = self.current.take().expect("firmware completion while idle");
        let next = self.queue.pop_front().map(|(d, tag)| {
            self.current = Some(tag);
            d
        });
        (done, next)
    }
}

/// Which resource executes the final merge of per-engine partial results
/// (the fold of engine-local accumulators into the request's scratchpad).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePlacement {
    /// Merge on the serial firmware core (keeps engines free for
    /// translation but re-serialises the tail on the shared core).
    FwCore,
    /// Merge on the engine with this index (modulo the pool size).
    Engine(u32),
}

/// Configuration of the per-channel SLS engine pool (Conduit-style
/// multi-engine in-SSD compute). Absent (`None` in
/// [`crate::FtlConfig::engines`]) the device has only the serial
/// firmware core, exactly the single-core Cosmos+ model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnginePoolConfig {
    /// Number of engines. Translation work for a page is routed to
    /// engine `channel % engines`, so setting this to the channel count
    /// gives one engine per flash channel.
    pub engines: usize,
    /// Engine service rate as a percentage of the firmware core's
    /// (100 = parity). Charged durations scale by `100 / rate_pct`
    /// with exact integer arithmetic, so timing stays deterministic.
    pub rate_pct: u32,
    /// Where the final partial-result merge executes.
    pub merge: MergePlacement,
}

impl EnginePoolConfig {
    /// One full-rate engine per flash channel, merging on the firmware
    /// core — the Conduit-style default.
    pub fn per_channel(channels: u32) -> Self {
        EnginePoolConfig {
            engines: channels as usize,
            rate_pct: 100,
            merge: MergePlacement::FwCore,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero-engine pool or a zero service rate.
    pub fn validate(&self) {
        assert!(
            self.engines >= 1,
            "engine pool must have at least one engine"
        );
        assert!(self.rate_pct >= 1, "engine rate must be positive");
    }

    /// Scales a firmware-core-calibrated duration to this pool's
    /// service rate (exact integer arithmetic).
    pub fn scale(&self, d: SimDuration) -> SimDuration {
        if self.rate_pct == 100 {
            d
        } else {
            d * 100 / self.rate_pct as u64
        }
    }
}

/// A pool of per-channel compute engines: independent serial task
/// executors (one [`FwCore`] each) with their own FIFO queues, modelling
/// Conduit-style per-channel SLS units alongside the firmware core.
#[derive(Debug)]
pub struct EnginePool {
    units: Vec<FwCore>,
    cfg: EnginePoolConfig,
}

impl EnginePool {
    /// Creates an idle pool.
    ///
    /// # Panics
    ///
    /// Panics if the configuration names zero engines (see
    /// [`EnginePoolConfig::validate`]).
    pub fn new(cfg: EnginePoolConfig) -> Self {
        cfg.validate();
        EnginePool {
            units: (0..cfg.engines).map(|_| FwCore::new()).collect(),
            cfg,
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &EnginePoolConfig {
        &self.cfg
    }

    /// Number of engines (always ≥ 1).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Always `false`: construction rejects empty pools.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` when every engine is idle.
    pub fn idle(&self) -> bool {
        self.units.iter().all(|u| u.idle())
    }

    /// Tag of the task running on `engine`, if any.
    pub fn current(&self, engine: usize) -> Option<FwTag> {
        self.units[engine].current()
    }

    /// Queued (not yet started) tasks on `engine`.
    pub fn queued(&self, engine: usize) -> usize {
        self.units[engine].queued()
    }

    /// Total busy time of `engine`.
    pub fn busy(&self, engine: usize) -> SimDuration {
        self.units[engine].busy_total()
    }

    /// Total busy time summed across the pool.
    pub fn busy_total(&self) -> SimDuration {
        self.units
            .iter()
            .fold(SimDuration::ZERO, |acc, u| acc + u.busy_total())
    }

    /// Zeroes every engine's accumulated busy time.
    pub fn reset_busy(&mut self) {
        self.units.iter_mut().for_each(FwCore::reset_busy);
    }

    /// Submits a task to `engine` (modulo the pool size), scaling
    /// `duration` by the pool's service rate. Same contract as
    /// [`FwCore::start`]: `Some(delay)` means the engine was idle and the
    /// caller must schedule its completion; `None` means the task queued
    /// FIFO behind the engine's current work.
    pub fn start(
        &mut self,
        engine: usize,
        duration: SimDuration,
        tag: FwTag,
    ) -> Option<SimDuration> {
        let idx = engine % self.units.len();
        self.units[idx].start(self.cfg.scale(duration), tag)
    }

    /// Completes the task running on `engine`; same contract as
    /// [`FwCore::finish`].
    ///
    /// # Panics
    ///
    /// Panics if that engine is idle.
    pub fn finish(&mut self, engine: usize) -> (FwTag, Option<SimDuration>) {
        self.units[engine].finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_core_starts_immediately() {
        let mut fw = FwCore::new();
        assert!(fw.idle());
        let d = fw.start(SimDuration::from_us(5), FwTag(1));
        assert_eq!(d, Some(SimDuration::from_us(5)));
        assert!(!fw.idle());
    }

    #[test]
    fn busy_core_queues_fifo() {
        let mut fw = FwCore::new();
        fw.start(SimDuration::from_us(1), FwTag(1));
        assert_eq!(fw.start(SimDuration::from_us(2), FwTag(2)), None);
        assert_eq!(fw.start(SimDuration::from_us(3), FwTag(3)), None);
        assert_eq!(fw.queued(), 2);
        let (t1, next) = fw.finish();
        assert_eq!(t1, FwTag(1));
        assert_eq!(next, Some(SimDuration::from_us(2)));
        let (t2, next) = fw.finish();
        assert_eq!(t2, FwTag(2));
        assert_eq!(next, Some(SimDuration::from_us(3)));
        let (t3, next) = fw.finish();
        assert_eq!(t3, FwTag(3));
        assert_eq!(next, None);
        assert!(fw.idle());
    }

    #[test]
    fn busy_total_accumulates() {
        let mut fw = FwCore::new();
        fw.start(SimDuration::from_us(1), FwTag(1));
        fw.start(SimDuration::from_us(2), FwTag(2));
        assert_eq!(fw.busy_total(), SimDuration::from_us(3));
    }

    #[test]
    #[should_panic(expected = "completion while idle")]
    fn finish_on_idle_panics() {
        FwCore::new().finish();
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn zero_engine_pool_rejected_at_construction() {
        EnginePool::new(EnginePoolConfig {
            engines: 0,
            rate_pct: 100,
            merge: MergePlacement::FwCore,
        });
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_pool_rejected_at_construction() {
        EnginePool::new(EnginePoolConfig {
            engines: 4,
            rate_pct: 0,
            merge: MergePlacement::FwCore,
        });
    }

    /// Simultaneously ready tasks on different engines all start at once
    /// (no cross-engine serialisation), while same-engine tasks queue
    /// FIFO — each engine is fair to its own arrival order.
    #[test]
    fn pool_queues_are_independent_and_fifo() {
        let mut pool = EnginePool::new(EnginePoolConfig::per_channel(4));
        // One task per engine: all start immediately.
        for e in 0..4 {
            let d = pool.start(e, SimDuration::from_us(10), FwTag(e as u64));
            assert_eq!(d, Some(SimDuration::from_us(10)), "engine {e} was busy");
        }
        assert!(!pool.idle());
        // Second wave on the same engines: all queue behind the first.
        for e in 0..4 {
            assert_eq!(
                pool.start(e, SimDuration::from_us(5), FwTag(100 + e as u64)),
                None
            );
            assert_eq!(pool.queued(e), 1);
        }
        // Completions pop each engine's own queue in arrival order.
        for e in 0..4 {
            let (done, next) = pool.finish(e);
            assert_eq!(done, FwTag(e as u64));
            assert_eq!(next, Some(SimDuration::from_us(5)));
            let (done, next) = pool.finish(e);
            assert_eq!(done, FwTag(100 + e as u64));
            assert_eq!(next, None);
        }
        assert!(pool.idle());
        // Every engine accrued exactly its own work.
        for e in 0..4 {
            assert_eq!(pool.busy(e), SimDuration::from_us(15));
        }
        assert_eq!(pool.busy_total(), SimDuration::from_us(60));
    }

    /// Engine indices wrap modulo the pool size, so channel counts larger
    /// than the pool still route deterministically.
    #[test]
    fn pool_routing_wraps_modulo_size() {
        let mut pool = EnginePool::new(EnginePoolConfig::per_channel(2));
        assert!(pool.start(0, SimDuration::from_us(1), FwTag(0)).is_some());
        // Engine 2 wraps onto engine 0, which is busy: the task queues.
        assert_eq!(pool.start(2, SimDuration::from_us(1), FwTag(2)), None);
        assert_eq!(pool.queued(0), 1);
        assert_eq!(pool.queued(1), 0);
    }

    /// A half-rate pool charges doubled durations, exactly.
    #[test]
    fn pool_scales_durations_by_service_rate() {
        let cfg = EnginePoolConfig {
            engines: 1,
            rate_pct: 50,
            merge: MergePlacement::FwCore,
        };
        assert_eq!(cfg.scale(SimDuration::from_us(7)), SimDuration::from_us(14));
        let mut pool = EnginePool::new(cfg);
        let d = pool.start(0, SimDuration::from_us(3), FwTag(9));
        assert_eq!(d, Some(SimDuration::from_us(6)));
    }
}
