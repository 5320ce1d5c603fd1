//! Per-resource utilization timelines and queueing decomposition.
//!
//! [`utilization_timelines`] turns a recorded span trace into one
//! [`UtilizationTimeline`] per simulated resource — every server the
//! bottleneck ranking names (each device shard's firmware core, SLS
//! engines and flash channels, and the DRAM tier, found through the same
//! span→server map), and each shard's host-side operator queue —
//! bucketed into fixed sim-time windows. Servers report their service
//! integral ÷ (window × declared width), the ranking's utilisation (a
//! device member's whole-run busy time is its busy counter); queue
//! resources report arrival rate,
//! time-average occupancy and mean wait. Over the whole run `L = λ·W`
//! is an identity of the totals — `L` and `λ·W` are both the summed
//! interval mass ÷ elapsed — not an independent check.
//!
//! Like the [`crate::analysis`] module this is a pure observer over
//! recorded spans: the same trace always produces identical timelines.

use std::collections::HashMap;

use crate::analysis::server_windows;
use crate::trace::{track, SpanRec};

/// What kind of resource a timeline describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// A server with a busy/idle state (firmware core, SLS engine, flash
    /// channel, DRAM tier).
    Server,
    /// A waiting room (shard operator queue): occupancy and wait are
    /// the interesting stats, "busy" is the any-waiter union.
    Queue,
}

/// One sim-time window of a resource's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilWindow {
    /// Window start, ns of virtual time (inclusive).
    pub start_ns: u64,
    /// Window end, ns (exclusive).
    pub end_ns: u64,
    /// Busy time clipped to the window, ns: a server's service integral
    /// (Σ of its windows), a queue's union of waiting intervals.
    pub busy_ns: u64,
    /// Sum of per-occupant interval lengths clipped to the window, ns
    /// (equals the occupancy integral; for a queue ≥ `busy_ns` under
    /// overlap).
    pub wait_ns: u64,
    /// Intervals that *start* inside the window (`[start, end)`; one
    /// that starts at the trace end counts in the last window).
    pub arrivals: u64,
    /// Intervals that *end* inside the window (`(start, end]`; a
    /// zero-length interval counts where it arrives).
    pub completions: u64,
    /// Time-average number of concurrently active intervals (Little's
    /// `L`): `wait_ns` ÷ the window length.
    pub occupancy: f64,
}

/// A resource's busy/idle/wait decomposition over sim-time windows.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTimeline {
    /// Resource name, e.g. `fw:core[shard=0]`, `flash[shard=0,ch=3]`
    /// or `queue[shard=1]`.
    pub resource: String,
    /// Server or queue semantics.
    pub kind: ResourceKind,
    /// Servers behind the name (see [`crate::ResourceUse::capacity`]);
    /// 1 for a queue.
    pub capacity: u32,
    /// Window length, ns.
    pub window_ns: u64,
    /// The windows, in time order, covering the trace's span window
    /// (first span start → last span end).
    pub windows: Vec<UtilWindow>,
    /// Length of that span window, ns: the elapsed time the totals are
    /// measured over, the same one [`crate::bottleneck_report`] ranks by.
    pub elapsed_ns: u64,
    /// Whole-run busy time, ns (as [`UtilWindow::busy_ns`]).
    pub total_busy_ns: u64,
    /// Whole-run sum of interval lengths, ns (Σ per-arrival wait).
    pub total_wait_ns: u64,
    /// Whole-run interval count (arrivals).
    pub total_arrivals: u64,
}

impl UtilizationTimeline {
    /// `busy_ns` over `len_ns` as a fraction of the capacity.
    fn share(&self, busy_ns: u64, len_ns: u64) -> f64 {
        if len_ns == 0 || self.capacity == 0 {
            return 0.0;
        }
        busy_ns as f64 / (len_ns as f64 * self.capacity as f64)
    }

    /// Whole-run utilisation: busy time ÷ (elapsed × capacity), for a
    /// server the same value as its [`crate::ResourceUse`] row.
    pub fn utilization(&self) -> f64 {
        self.share(self.total_busy_ns, self.elapsed_ns)
    }

    /// Whole-run arrival rate, intervals per simulated second.
    pub fn arrival_rate_per_s(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_arrivals as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Whole-run mean wait (mean interval length), ns.
    pub fn mean_wait_ns(&self) -> f64 {
        if self.total_arrivals == 0 {
            return 0.0;
        }
        self.total_wait_ns as f64 / self.total_arrivals as f64
    }

    /// Whole-run time-average occupancy (Little's `L`), from the
    /// summed interval mass.
    pub fn occupancy(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_wait_ns as f64 / self.elapsed_ns as f64
    }

    /// `|L − λ·W|`: zero up to float rounding, since both sides are the
    /// summed interval mass ÷ elapsed.
    pub fn littles_law_residual(&self) -> f64 {
        let lam_w = self.arrival_rate_per_s() / 1e9 * self.mean_wait_ns();
        (self.occupancy() - lam_w).abs()
    }
}

/// Builds one timeline from a resource's raw intervals.
fn build(
    resource: String,
    kind: ResourceKind,
    capacity: u32,
    mut ivs: Vec<(u64, u64)>,
    window_ns: u64,
    (start_ns, end_ns): (u64, u64),
) -> UtilizationTimeline {
    let elapsed_ns = end_ns - start_ns;
    ivs.sort_unstable();
    // A server is busy for its service integral, a queue while anyone
    // waits (ivs stays sorted: `union_len` re-sorts sorted input).
    let busy = |ivs: &mut [(u64, u64)], sum: u64| match kind {
        ResourceKind::Server => sum,
        ResourceKind::Queue => crate::analysis::union_len(ivs),
    };
    let total_arrivals = ivs.len() as u64;
    let total_wait_ns: u64 = ivs.iter().map(|&(a, b)| b - a).sum();
    let total_busy_ns = busy(&mut ivs, total_wait_ns);
    let n_windows = if elapsed_ns == 0 {
        0
    } else {
        elapsed_ns.div_ceil(window_ns)
    };
    let mut windows = Vec::with_capacity(n_windows as usize);
    for k in 0..n_windows {
        let ws = start_ns + k * window_ns;
        let we = (ws + window_ns).min(end_ns);
        let mut clipped: Vec<(u64, u64)> = Vec::new();
        let mut wait = 0u64;
        for &(a, b) in &ivs {
            if a >= we {
                break;
            }
            let (ca, cb) = (a.max(ws), b.min(we));
            if cb > ca {
                clipped.push((ca, cb));
                wait += cb - ca;
            }
        }
        windows.push(UtilWindow {
            start_ns: ws,
            end_ns: we,
            busy_ns: busy(&mut clipped, wait),
            wait_ns: wait,
            arrivals: 0,
            completions: 0,
            occupancy: wait as f64 / (we - ws) as f64,
        });
    }
    // An interval arrives in the window holding its start and completes
    // in the one whose `(ws, we]` holds its end — a zero-length one where
    // it arrives — so each counts exactly once in both.
    if let Some(last) = n_windows.checked_sub(1) {
        let at = |t: u64| ((t - start_ns) / window_ns).min(last) as usize;
        for &(a, b) in &ivs {
            windows[at(a)].arrivals += 1;
            windows[at(b.saturating_sub(1).max(a))].completions += 1;
        }
    }
    UtilizationTimeline {
        resource,
        kind,
        capacity,
        window_ns,
        windows,
        elapsed_ns,
        total_busy_ns,
        total_wait_ns,
        total_arrivals,
    }
}

/// Decomposes a trace into per-resource utilization timelines with
/// `window_ns`-wide buckets: one per server of the bottleneck ranking
/// (firmware core, each SLS engine and each flash channel per device
/// shard, the DRAM tier when the trace has one), at the width its
/// windows declare, and one per host-side operator queue (from
/// `sub:wait` spans' `shard` argument). Windows
/// start at the trace's first span, and the whole-run totals divide by
/// the window [`crate::bottleneck_report`] uses, so a trace enabled late
/// reads the same utilisation in both. Timelines are sorted by resource
/// name; the list is empty for an empty trace.
pub fn utilization_timelines(spans: &[SpanRec], window_ns: u64) -> Vec<UtilizationTimeline> {
    assert!(window_ns > 0, "window_ns must be positive");
    let window = crate::analysis::trace_window(spans);
    let mut queues: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "sub:wait" && s.arg_key == "shard")
    {
        let name = if s.arg_val == track::PID_TIER as u64 {
            "queue[tier]".to_string()
        } else {
            format!("queue[shard={}]", s.arg_val.saturating_sub(1))
        };
        queues.entry(name).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: Vec<UtilizationTimeline> = server_windows(spans)
        .into_iter()
        .map(|(server, (width, ivs))| {
            build(
                server.to_string(),
                ResourceKind::Server,
                width,
                ivs,
                window_ns,
                window,
            )
        })
        .chain(
            queues
                .into_iter()
                .map(|(name, ivs)| build(name, ResourceKind::Queue, 1, ivs, window_ns, window)),
        )
        .collect();
    out.sort_by(|a, b| a.resource.cmp(&b.resource));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, TraceSink};
    use recssd_sim::{SimDuration, SimTime};

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    fn spans() -> Vec<SpanRec> {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        let fw = sink.tracer(1, track::TID_FW);
        fw.span("fw:exec", t(0), t(40), SpanId::NONE);
        fw.span("fw:exec", t(60), t(100), SpanId::NONE);
        let s1 = host.alloc_id();
        let s2 = host.alloc_id();
        host.span_arg("sub:wait", t(0), t(30), s1, "shard", 1);
        host.span_arg("sub:wait", t(10), t(50), s2, "shard", 1);
        sink.take_spans()
    }

    #[test]
    fn windows_cover_the_run_and_split_busy_time() {
        let tls = utilization_timelines(&spans(), 50);
        assert_eq!(tls.len(), 2);
        let fw = &tls[0];
        assert_eq!(fw.resource, "fw:core[shard=0]");
        assert_eq!(fw.kind, ResourceKind::Server);
        assert_eq!(fw.windows.len(), 2);
        assert_eq!(fw.windows[0].busy_ns, 40);
        assert_eq!(fw.windows[1].busy_ns, 40);
        assert_eq!(fw.total_busy_ns, 80);
        assert!((fw.utilization() - 0.8).abs() < 1e-12);
        assert_eq!(fw.windows[0].arrivals, 1);
        assert_eq!(fw.windows[1].arrivals, 1);
    }

    #[test]
    fn queue_stats_are_littles_law_consistent() {
        let tls = utilization_timelines(&spans(), 50);
        let q = &tls[1];
        assert_eq!(q.resource, "queue[shard=0]");
        assert_eq!(q.kind, ResourceKind::Queue);
        // Two waiters: 30 ns + 40 ns over a 100 ns run.
        assert_eq!(q.total_arrivals, 2);
        assert_eq!(q.total_wait_ns, 70);
        assert!((q.occupancy() - 0.7).abs() < 1e-12);
        assert!(q.littles_law_residual() < 1e-9);
        // Overlap 10–30 shows up in the busy union but doubles in the
        // occupancy integral of window 0.
        assert_eq!(q.windows[0].busy_ns, 50);
        assert_eq!(q.windows[0].wait_ns, 70);
        assert!((q.windows[0].occupancy - 1.4).abs() < 1e-12);
    }

    /// Zero-length waits — a sub-batch that dispatches as it arrives —
    /// at the trace start and on a window boundary arrive and complete
    /// in exactly one window each, like every other interval.
    #[test]
    fn zero_length_intervals_count_once_per_window_set() {
        let sink = TraceSink::new();
        let host = sink.tracer(0, track::TID_HOST);
        for (a, b) in [
            (1_000, 1_000),
            (1_000, 1_030),
            (1_050, 1_050),
            (1_040, 1_100),
        ] {
            let sub = host.alloc_id();
            host.span_arg("sub:wait", t(a), t(b), sub, "shard", 1);
        }
        let tls = utilization_timelines(&sink.take_spans(), 50);
        let q = &tls[0];
        assert_eq!(q.resource, "queue[shard=0]");
        assert_eq!(q.total_arrivals, 4);
        let per = |f: fn(&UtilWindow) -> u64| q.windows.iter().map(f).collect::<Vec<_>>();
        assert_eq!(per(|w| w.arrivals), [3, 1]);
        assert_eq!(per(|w| w.completions), [2, 2]);
        assert_eq!(q.total_wait_ns, 90);
    }

    #[test]
    fn timelines_are_deterministic() {
        assert_eq!(
            utilization_timelines(&spans(), 50),
            utilization_timelines(&spans(), 50)
        );
    }

    /// A trace that starts late (tracing enabled mid-run): every server
    /// reads the same utilisation here as in the bottleneck ranking, and
    /// the windows start at the first span, not at t = 0. That includes
    /// the DRAM tier, whose overlapping `op:compute` windows count once
    /// each, at the pool width they declare.
    #[test]
    fn late_trace_reads_the_ranked_utilisation() {
        let sink = TraceSink::new();
        let fw = sink.tracer(1, track::TID_FW);
        let flash = sink.tracer(1, track::TID_FLASH);
        let engine = sink.tracer(2, track::TID_ENGINE_BASE);
        let tier = sink.tracer(track::PID_TIER, track::TID_DEVICE);
        fw.span("fw:exec", t(1_000), t(1_040), SpanId::NONE);
        fw.span("fw:exec", t(1_060), t(1_100), SpanId::NONE);
        flash.span_arg("flash:xfer", t(1_010), t(1_030), SpanId::NONE, "ch", 3);
        engine.span_arg("fw:engine", t(1_020), t(1_090), SpanId::NONE, "ch", 0);
        for (a, b) in [(1_000, 1_060), (1_030, 1_080), (1_040, 1_050)] {
            tier.span_arg("op:compute", t(a), t(b), SpanId::NONE, "workers", 4);
        }
        let spans = sink.take_spans();

        let ranked = crate::bottleneck_report(&spans).ranked;
        let tls = utilization_timelines(&spans, 50);
        assert_eq!(ranked.len(), 4);
        for r in &ranked {
            let tl = tls
                .iter()
                .find(|tl| tl.resource == r.resource)
                .expect("row");
            assert_eq!(tl.elapsed_ns, r.elapsed_ns);
            assert_eq!(tl.utilization(), r.utilization(), "{}", r.resource);
            assert_eq!(tl.windows[0].start_ns, 1_000);
            assert_eq!(tl.windows.last().expect("window").end_ns, 1_100);
        }
    }

    #[test]
    fn empty_trace_yields_no_timelines() {
        assert!(utilization_timelines(&[], 100).is_empty());
    }
}
