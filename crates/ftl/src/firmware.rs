//! The embedded firmware core and the per-channel SLS engines.
//!
//! The Cosmos+ FTL runs on a 1 GHz dual-core ARM A9; in this model one core
//! executes FTL work serially (command processing, NDP config processing
//! and the per-page "Translation" reduction), while the second core is
//! assumed to service the NVMe frontend interrupt path (its cost is folded
//! into the per-command charge). Serialising tasks on this resource is
//! what produces the paper's two headline firmware effects: the ~10 K IOPS
//! host-visible random-read ceiling of the baseline (§3.2) and the
//! Translation-bound NDP profile of Fig. 8.
//!
//! The core and each engine are a [`recssd_sim::Server`] of [`FwTag`]s
//! (each beside the trace id of the operator it serves) held by
//! [`crate::GreedyFtl`]; this module holds the tag and the pool's
//! configuration.

use recssd_sim::SimDuration;

/// Caller-defined tag of a firmware task, page read or page write; its
/// [`crate::FtlOutcome`] returns it so the caller can resume the
/// appropriate state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FwTag(pub u64);

/// Which resource runs the merge task that ends an SLS request on an
/// engine pool: a timed charge for the result block once per engine that
/// translated a page. The simulated rows are already in the request's
/// scratchpad, every translation having folded its rows straight in.
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
    /// Where the merge task runs.
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

/// The core and the engines as the FTL drives them: which completion
/// event a charge schedules, which tag it returns and what it counts.
/// The queue discipline itself is `recssd_sim::Server`'s, tested there
/// against a reference FIFO.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FtlConfig, FtlEvent, FtlOutcome, GreedyFtl};
    use recssd_sim::{EventQueue, SimTime};

    fn us(n: u64) -> SimDuration {
        SimDuration::from_us(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + us(n)
    }

    /// An FTL whose firmware events are driven by hand.
    struct Rig {
        ftl: GreedyFtl,
        q: EventQueue<FtlEvent>,
    }

    impl Rig {
        fn new(engines: Option<EnginePoolConfig>) -> Self {
            let cfg = FtlConfig {
                engines,
                ..FtlConfig::cosmos_small()
            };
            Rig {
                ftl: GreedyFtl::new(cfg),
                q: EventQueue::new(),
            }
        }

        /// Charges `tag` for `d` at t = 0 on the core (`None`) or an
        /// engine; returns the completions it scheduled.
        fn charge(&mut self, engine: Option<usize>, d: SimDuration, tag: u64) -> Vec<FtlEvent> {
            let (tag, mut fresh) = (FwTag(tag), Vec::new());
            let sched = &mut |d, e| fresh.push((d, e));
            self.ftl.charge(SimTime::ZERO, engine, d, tag, 0, sched);
            for &(d, e) in &fresh {
                self.q.push_after(d, e);
            }
            fresh.into_iter().map(|(_, e)| e).collect()
        }

        /// Runs to idle: `(finish, event, tag)` of every completed task.
        fn drain(&mut self) -> Vec<(SimTime, FtlEvent, u64)> {
            let (mut done, mut fresh, mut out) = (Vec::new(), Vec::new(), Vec::new());
            while let Some((now, ev)) = self.q.pop() {
                self.ftl
                    .handle(now, ev, &mut |d, e| fresh.push((d, e)), &mut out);
                for (d, e) in fresh.drain(..) {
                    self.q.push_after(d, e);
                }
                for o in out.drain(..) {
                    let FtlOutcome::FwTaskDone { tag } = o else {
                        panic!("unexpected outcome {o:?}");
                    };
                    done.push((now, ev, tag.0));
                }
            }
            done
        }
    }

    #[test]
    fn idle_core_starts_immediately() {
        let mut rig = Rig::new(None);
        assert_eq!(rig.charge(None, us(5), 1), [FtlEvent::FwDone]);
        assert_eq!(rig.drain(), [(at(5), FtlEvent::FwDone, 1)]);
    }

    #[test]
    fn busy_core_queues_fifo() {
        let mut rig = Rig::new(None);
        rig.charge(None, us(1), 1);
        assert!(rig.charge(None, us(2), 2).is_empty());
        assert!(rig.charge(None, us(3), 3).is_empty());
        let done: Vec<_> = rig
            .drain()
            .into_iter()
            .map(|(t, _, tag)| (t, tag))
            .collect();
        assert_eq!(done, [(at(1), 1), (at(3), 2), (at(6), 3)]);
        assert!(rig.ftl.idle());
    }

    /// Busy time is counted when a task starts, not when it queues.
    #[test]
    fn busy_total_accumulates() {
        let mut rig = Rig::new(None);
        rig.charge(None, us(1), 1);
        rig.charge(None, us(2), 2);
        assert_eq!(rig.ftl.firmware_busy(), us(1));
        rig.drain();
        assert_eq!(rig.ftl.firmware_busy(), us(3));
    }

    #[test]
    #[should_panic(expected = "completion while idle")]
    fn finish_on_idle_panics() {
        let mut rig = Rig::new(None);
        rig.q.push_after(us(1), FtlEvent::FwDone);
        rig.drain();
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn zero_engine_pool_rejected_at_construction() {
        Rig::new(Some(EnginePoolConfig {
            engines: 0,
            ..EnginePoolConfig::per_channel(1)
        }));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_pool_rejected_at_construction() {
        Rig::new(Some(EnginePoolConfig {
            rate_pct: 0,
            ..EnginePoolConfig::per_channel(4)
        }));
    }

    /// Simultaneously ready tasks on different engines all start at once
    /// (no cross-engine serialisation), while same-engine tasks queue
    /// FIFO — each engine is fair to its own arrival order.
    #[test]
    fn pool_queues_are_independent_and_fifo() {
        let mut rig = Rig::new(Some(EnginePoolConfig::per_channel(4)));
        for e in 0..4 {
            let started = rig.charge(Some(e), us(10), e as u64);
            assert_eq!(started, [FtlEvent::EngineDone(e as u32)]);
        }
        for e in 0..4 {
            assert!(rig.charge(Some(e), us(5), 100 + e as u64).is_empty());
        }
        let done = rig.drain();
        for e in 0..4u64 {
            let engine = FtlEvent::EngineDone(e as u32);
            let mine: Vec<_> = done.iter().filter(|d| d.1 == engine).collect();
            assert_eq!(mine, [&(at(10), engine, e), &(at(15), engine, 100 + e)]);
            assert_eq!(rig.ftl.engine_busy(e as usize), us(15));
        }
        assert_eq!(rig.ftl.engines_busy_total(), us(60));
        assert_eq!(rig.ftl.firmware_busy(), SimDuration::ZERO);
    }

    /// Engine indices wrap modulo the pool size, so channel counts larger
    /// than the pool still route deterministically.
    #[test]
    fn pool_routing_wraps_modulo_size() {
        let mut rig = Rig::new(Some(EnginePoolConfig::per_channel(2)));
        rig.charge(Some(0), us(1), 0);
        // Engine 2 wraps onto engine 0, which is busy: the task queues.
        assert!(rig.charge(Some(2), us(1), 2).is_empty());
        let engine = FtlEvent::EngineDone(0);
        assert_eq!(rig.drain(), [(at(1), engine, 0), (at(2), engine, 2)]);
        assert_eq!(rig.ftl.engine_busy(1), SimDuration::ZERO);
    }

    /// A half-rate pool charges doubled durations, exactly.
    #[test]
    fn pool_scales_durations_by_service_rate() {
        let cfg = EnginePoolConfig {
            rate_pct: 50,
            ..EnginePoolConfig::per_channel(1)
        };
        assert_eq!(cfg.scale(us(7)), us(14));
        let mut rig = Rig::new(Some(cfg));
        rig.charge(Some(0), us(3), 9);
        assert_eq!(rig.drain(), [(at(6), FtlEvent::EngineDone(0), 9)]);
    }
}
