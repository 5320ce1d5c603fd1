//! Deterministic, seeded fault injection for the flash array and the
//! firmware core above it.
//!
//! A [`FaultPlan`] is an **optional** overlay: when absent (the default)
//! the array behaves exactly as before, and when present with all rates at
//! zero it draws from its RNG streams without ever firing, so the injected
//! schedule is a pure function of the seed and the sequence of reads —
//! replayable across runs and bit-identical to a fault-free build when
//! quiet (see `FaultConfig::quiet`).
//!
//! Four fault classes are modelled, mirroring the steady-state failure
//! modes of a production flash fleet:
//!
//! * **Transient read errors** — an ECC-correctable raw bit-error burst;
//!   the read succeeds after `ecc_retry_reads` extra array senses, so the
//!   fault is pure extra latency on the die.
//! * **Uncorrectable read errors** — the page is beyond ECC; the
//!   completion is flagged `failed` and the layer above turns it into a
//!   typed media error.
//! * **Firmware stalls** — a command charge occupies the serial firmware
//!   core for a multiple of its normal service time (a wedged embedded-CPU
//!   code path).
//! * **Brownouts** — every latency in a configured window is inflated by
//!   an integer factor (thermal throttling, background refresh, a noisy
//!   co-tenant).
//!
//! Two independent [`Xoshiro256`] streams back the plan: one consumed per
//! page read, one per firmware charge. Each read makes *both* of its
//! Bernoulli draws (uncorrectable, then transient) in a fixed order, so
//! the schedule of one fault class does not shift when the other's rate
//! changes.

use recssd_sim::rng::{mix64, Xoshiro256};
use recssd_sim::stats::Counter;
use recssd_sim::{SimDuration, SimTime};

/// Stream-separation constants mixed into the seed so the per-read and
/// per-firmware-charge streams are decorrelated.
const READ_STREAM: u64 = 0x52_45_41_44; // "READ"
const FW_STREAM: u64 = 0x46_57_43_52; // "FWCR"

/// A window of simulated time during which every latency the plan sees is
/// inflated by an integer factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Latency multiplier inside the window (values ≤ 1 are inert).
    pub factor: u32,
}

impl BrownoutWindow {
    /// `true` if `now` falls inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }
}

/// Configuration of a [`FaultPlan`]: the seed and the per-class rates.
///
/// All rates default to zero — constructing a plan from
/// [`FaultConfig::quiet`] exercises the fault plumbing without ever
/// injecting a fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the plan's RNG streams.
    pub seed: u64,
    /// Per-page-read probability of an ECC-correctable transient error.
    pub transient_read_error_rate: f64,
    /// Extra array senses a transient error costs before ECC converges.
    pub ecc_retry_reads: u32,
    /// Per-page-read probability of an uncorrectable media error.
    pub uncorrectable_rate: f64,
    /// Per-firmware-charge probability of a stalled command.
    pub stall_rate: f64,
    /// Service-time multiplier of a stalled firmware charge.
    pub stall_multiplier: u32,
    /// Whole-device latency-inflation windows.
    pub brownouts: Vec<BrownoutWindow>,
}

impl FaultConfig {
    /// A plan that draws from its streams but never fires: every rate is
    /// zero and no brownout windows are configured.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_read_error_rate: 0.0,
            ecc_retry_reads: 2,
            uncorrectable_rate: 0.0,
            stall_rate: 0.0,
            stall_multiplier: 8,
            brownouts: Vec::new(),
        }
    }
}

/// Outcome of the per-read fault draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// ECC-correctable: the read succeeds after extra sense latency.
    Transient,
    /// Beyond ECC: the completion must be flagged failed.
    Uncorrectable,
}

/// Counters of injected faults, for telemetry and replay checks.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Transient (ECC-retried) read errors injected.
    pub transient: Counter,
    /// Uncorrectable read errors injected.
    pub uncorrectable: Counter,
    /// Firmware command stalls injected.
    pub stalls: Counter,
}

impl FaultStats {
    /// Resets every injection counter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A live fault-injection plan: configuration, RNG streams and counters.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    read_rng: Xoshiro256,
    fw_rng: Xoshiro256,
    stats: FaultStats,
}

impl FaultPlan {
    /// Builds a plan; two independent streams are derived from the seed.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            read_rng: Xoshiro256::seed_from(mix64(config.seed ^ READ_STREAM)),
            fw_rng: Xoshiro256::seed_from(mix64(config.seed ^ FW_STREAM)),
            config,
            stats: FaultStats::default(),
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Injection counters accumulated so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Resets the injection counters without touching the RNG streams,
    /// so the injected schedule keeps replaying deterministically.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Draws the fault outcome for one page read. Both Bernoulli draws
    /// happen on every call, in a fixed order, so each fault class keeps
    /// its own deterministic schedule regardless of the other's rate.
    pub fn draw_read(&mut self) -> Option<ReadFault> {
        let uncorrectable = self.read_rng.gen_bool(self.config.uncorrectable_rate);
        let transient = self
            .read_rng
            .gen_bool(self.config.transient_read_error_rate);
        if uncorrectable {
            self.stats.uncorrectable.inc();
            Some(ReadFault::Uncorrectable)
        } else if transient {
            self.stats.transient.inc();
            Some(ReadFault::Transient)
        } else {
            None
        }
    }

    /// Draws the stall outcome for one firmware charge: the service-time
    /// multiplier when the command stalls.
    pub fn draw_stall(&mut self) -> Option<u32> {
        if self.fw_rng.gen_bool(self.config.stall_rate) {
            self.stats.stalls.inc();
            Some(self.config.stall_multiplier.max(1))
        } else {
            None
        }
    }

    /// The brownout factor in effect at `now`, if any window covers it.
    pub fn brownout_factor(&self, now: SimTime) -> Option<u32> {
        self.config
            .brownouts
            .iter()
            .find(|w| w.contains(now) && w.factor > 1)
            .map(|w| w.factor)
    }

    /// Inflates a duration by the brownout factor in effect at `now`.
    /// Outside every window this returns `d` untouched (an exact integer
    /// pass-through, so a quiet plan never perturbs timing).
    pub fn inflate(&self, now: SimTime, d: SimDuration) -> SimDuration {
        match self.brownout_factor(now) {
            Some(k) => d * k as u64,
            None => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires_but_advances_streams() {
        let mut plan = FaultPlan::new(FaultConfig::quiet(7));
        for _ in 0..10_000 {
            assert_eq!(plan.draw_read(), None);
            assert_eq!(plan.draw_stall(), None);
        }
        assert_eq!(plan.stats().transient.get(), 0);
        assert_eq!(plan.stats().uncorrectable.get(), 0);
        assert_eq!(plan.stats().stalls.get(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            transient_read_error_rate: 0.05,
            uncorrectable_rate: 0.01,
            stall_rate: 0.02,
            ..FaultConfig::quiet(42)
        };
        let mut a = FaultPlan::new(cfg.clone());
        let mut b = FaultPlan::new(cfg);
        for _ in 0..10_000 {
            assert_eq!(a.draw_read(), b.draw_read());
            assert_eq!(a.draw_stall(), b.draw_stall());
        }
        assert_eq!(a.stats().transient.get(), b.stats().transient.get());
    }

    #[test]
    fn transient_schedule_independent_of_uncorrectable_rate() {
        // Raising the uncorrectable rate must not move the transient
        // draws: both draws happen on every read in a fixed order.
        let base = FaultConfig {
            transient_read_error_rate: 0.1,
            ..FaultConfig::quiet(9)
        };
        let mut only_transient = FaultPlan::new(base.clone());
        let mut both = FaultPlan::new(FaultConfig {
            uncorrectable_rate: 0.5,
            ..base
        });
        let mut masked = 0u64;
        for _ in 0..5_000 {
            let a = only_transient.draw_read();
            let b = both.draw_read();
            match b {
                // An uncorrectable draw masks whatever the transient draw
                // produced; otherwise the outcomes must agree.
                Some(ReadFault::Uncorrectable) => masked += 1,
                other => assert_eq!(other, a),
            }
        }
        assert!(masked > 1_000, "uncorrectable draws should have fired");
    }

    #[test]
    fn rates_roughly_hold() {
        let mut plan = FaultPlan::new(FaultConfig {
            transient_read_error_rate: 0.25,
            uncorrectable_rate: 0.01,
            ..FaultConfig::quiet(3)
        });
        let n = 100_000;
        for _ in 0..n {
            plan.draw_read();
        }
        let t = plan.stats().transient.get() as f64 / n as f64;
        let u = plan.stats().uncorrectable.get() as f64 / n as f64;
        assert!((t - 0.25 * 0.99).abs() < 0.01, "transient rate was {t}");
        assert!((u - 0.01).abs() < 0.005, "uncorrectable rate was {u}");
    }

    #[test]
    fn brownout_inflates_only_inside_window() {
        let mut cfg = FaultConfig::quiet(1);
        cfg.brownouts.push(BrownoutWindow {
            start: SimTime::ZERO + SimDuration::from_us(10),
            end: SimTime::ZERO + SimDuration::from_us(20),
            factor: 4,
        });
        let plan = FaultPlan::new(cfg);
        let d = SimDuration::from_us(3);
        let before = SimTime::ZERO + SimDuration::from_us(5);
        let inside = SimTime::ZERO + SimDuration::from_us(15);
        let after = SimTime::ZERO + SimDuration::from_us(25);
        assert_eq!(plan.inflate(before, d), d);
        assert_eq!(plan.inflate(inside, d), d * 4);
        assert_eq!(plan.inflate(after, d), d);
        // The window end is exclusive.
        let edge = SimTime::ZERO + SimDuration::from_us(20);
        assert_eq!(plan.inflate(edge, d), d);
    }
}
