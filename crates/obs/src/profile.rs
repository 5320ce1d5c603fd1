//! Wall-clock self-profiling of the simulator.
//!
//! Where the *simulator's own* time goes, not the simulated system's:
//! [`WallProfile`] accumulates real (`std::time::Instant`)
//! nanoseconds per coarse phase of the serving co-simulation loop. It is
//! off by default and, when disabled, every call is an inline boolean
//! check: no clock reads, no perturbation of throughput benchmarks.

use std::time::Instant;

/// The coarse phases of the serving co-simulation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallPhase {
    /// Admitting arrivals: request split, routing, queue insertion.
    Admit,
    /// Serving-level event dispatch (the `step()` match itself).
    EventDispatch,
    /// Stepping the device shards (`System::run_until` co-simulation) —
    /// the flash/FTL/NVMe model, the bulk of the wall time.
    DeviceStep,
    /// Harvesting completions and folding partial sums (host accumulate
    /// and merge bookkeeping).
    Harvest,
}

impl WallPhase {
    const N: usize = 4;

    fn index(self) -> usize {
        match self {
            WallPhase::Admit => 0,
            WallPhase::EventDispatch => 1,
            WallPhase::DeviceStep => 2,
            WallPhase::Harvest => 3,
        }
    }

    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WallPhase::Admit => "admit",
            WallPhase::EventDispatch => "event_dispatch",
            WallPhase::DeviceStep => "device_step",
            WallPhase::Harvest => "harvest",
        }
    }

    /// All phases, report order.
    pub fn all() -> [WallPhase; Self::N] {
        [
            WallPhase::Admit,
            WallPhase::EventDispatch,
            WallPhase::DeviceStep,
            WallPhase::Harvest,
        ]
    }
}

/// One phase's accumulated wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallPhaseReport {
    /// Phase name (snake_case).
    pub phase: &'static str,
    /// Accumulated wall nanoseconds.
    pub nanos: u64,
    /// Number of timed sections.
    pub count: u64,
}

/// Accumulated wall-clock nanoseconds per [`WallPhase`].
#[derive(Debug, Clone, Default)]
pub struct WallProfile {
    enabled: bool,
    nanos: [u64; WallPhase::N],
    counts: [u64; WallPhase::N],
}

impl WallProfile {
    /// A disabled profile (every call is a no-op).
    pub fn new() -> Self {
        WallProfile::default()
    }

    /// Turns timing on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// `true` when sections are actually timed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a timed section; pass the token to [`WallProfile::end`].
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a timed section started by [`WallProfile::begin`].
    #[inline]
    pub fn end(&mut self, phase: WallPhase, token: Option<Instant>) {
        if let Some(t0) = token {
            let i = phase.index();
            self.nanos[i] += t0.elapsed().as_nanos() as u64;
            self.counts[i] += 1;
        }
    }

    /// Accumulated wall nanoseconds for one phase.
    pub fn nanos(&self, phase: WallPhase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Per-phase report in stable order.
    pub fn report(&self) -> Vec<WallPhaseReport> {
        WallPhase::all()
            .into_iter()
            .map(|p| WallPhaseReport {
                phase: p.name(),
                nanos: self.nanos[p.index()],
                count: self.counts[p.index()],
            })
            .collect()
    }

    /// Zeros all accumulators (keeps the enabled flag).
    pub fn reset(&mut self) {
        self.nanos = [0; WallPhase::N];
        self.counts = [0; WallPhase::N];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_records_nothing() {
        let mut p = WallProfile::new();
        let t = p.begin();
        assert!(t.is_none());
        p.end(WallPhase::DeviceStep, t);
        assert!(p.report().iter().all(|r| r.nanos == 0 && r.count == 0));
    }

    #[test]
    fn enabled_profile_accumulates_per_phase() {
        let mut p = WallProfile::new();
        p.enable();
        let t = p.begin();
        std::hint::black_box(0u64);
        p.end(WallPhase::Harvest, t);
        let r = p.report();
        assert_eq!(r.len(), 4);
        let harvest = r.iter().find(|x| x.phase == "harvest").unwrap();
        assert_eq!(harvest.count, 1);
        assert_eq!(p.nanos(WallPhase::Admit), 0);
        p.reset();
        assert!(p.enabled());
        assert_eq!(p.report()[3].count, 0);
    }
}
