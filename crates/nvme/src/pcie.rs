//! PCIe link model: a shared, serialising DMA resource.

use std::collections::VecDeque;

use recssd_sim::stats::Counter;
use recssd_sim::{SimDuration, SimTime};

/// Link speed parameters.
///
/// The Cosmos+ OpenSSD attaches over PCIe Gen2 ×8; the preset reflects its
/// effective DMA throughput. Command fetch and completion writes are *not*
/// modelled on the link — their cost is folded into the device's
/// per-command firmware charge — only data payloads occupy it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieConfig {
    /// Payload bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed per-transfer setup latency.
    pub setup_ns: u64,
}

impl PcieConfig {
    /// PCIe Gen2 ×8-class link (≈3.2 GB/s effective).
    pub fn gen2_x8() -> Self {
        PcieConfig {
            bytes_per_sec: 3.2e9,
            setup_ns: 1_000,
        }
    }

    /// Time for one DMA of `bytes`.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        let ns = (bytes as f64 / self.bytes_per_sec) * 1e9;
        SimDuration::from_ns(self.setup_ns + ns.round() as u64)
    }
}

/// Identifier of an in-flight DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XferId(u64);

/// Direction of a DMA transfer (for statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XferDirection {
    /// Host memory → device (command payloads, NDP configs).
    HostToDevice,
    /// Device → host memory (read data, NDP results).
    DeviceToHost,
}

/// Events the link schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcieEvent {
    /// The transfer at the head of the link finished.
    XferDone {
        /// Completed transfer.
        xfer: XferId,
    },
}

/// Aggregate link statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PcieStats {
    /// Completed transfers.
    pub transfers: Counter,
    /// Total payload bytes moved.
    pub bytes: Counter,
    /// Accumulated link-busy time in nanoseconds.
    pub busy_ns: Counter,
}

/// The serialising DMA engine: one transfer at a time, FIFO arbitration.
///
/// # Example
///
/// ```
/// use recssd_nvme::{PcieConfig, PcieEvent, PcieLink, XferDirection};
/// use recssd_sim::EventQueue;
///
/// let mut link = PcieLink::new(PcieConfig::gen2_x8());
/// let mut q: EventQueue<PcieEvent> = EventQueue::new();
/// let id = link.request(q.now(), 16 * 1024, XferDirection::DeviceToHost,
///                       &mut |d, e| q.push_after(d, e));
/// let (now, ev) = q.pop().unwrap();
/// assert_eq!(link.handle(now, ev, &mut |_, _| {}), id);
/// assert!(now.as_us_f64() > 5.0); // 16 KB at ~3.2 GB/s + setup
/// ```
#[derive(Debug)]
pub struct PcieLink {
    config: PcieConfig,
    busy: bool,
    waiters: VecDeque<(XferId, SimDuration)>,
    next_id: u64,
    stats: PcieStats,
}

impl PcieLink {
    /// Creates an idle link.
    pub fn new(config: PcieConfig) -> Self {
        PcieLink {
            config,
            busy: false,
            waiters: VecDeque::new(),
            next_id: 0,
            stats: PcieStats::default(),
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> PcieConfig {
        self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> PcieStats {
        self.stats
    }

    /// Resets the link statistics; transfers in flight are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = PcieStats::default();
    }

    /// `true` when no transfer is active or queued.
    pub fn idle(&self) -> bool {
        !self.busy && self.waiters.is_empty()
    }

    /// Requests a DMA of `bytes`. The returned id is reported back by
    /// [`PcieLink::handle`] when the transfer completes.
    pub fn request(
        &mut self,
        _now: SimTime,
        bytes: usize,
        direction: XferDirection,
        sched: &mut dyn FnMut(SimDuration, PcieEvent),
    ) -> XferId {
        let _ = direction; // direction currently affects stats only
        let id = XferId(self.next_id);
        self.next_id += 1;
        let dur = self.config.transfer_time(bytes);
        self.stats.bytes.add(bytes as u64);
        self.stats.busy_ns.add(dur.as_ns());
        if self.busy {
            self.waiters.push_back((id, dur));
        } else {
            self.busy = true;
            sched(dur, PcieEvent::XferDone { xfer: id });
        }
        id
    }

    /// Processes a completion event, starting the next queued transfer.
    /// Returns the finished transfer's id.
    pub fn handle(
        &mut self,
        _now: SimTime,
        ev: PcieEvent,
        sched: &mut dyn FnMut(SimDuration, PcieEvent),
    ) -> XferId {
        let PcieEvent::XferDone { xfer } = ev;
        self.stats.transfers.inc();
        if let Some((next, dur)) = self.waiters.pop_front() {
            sched(dur, PcieEvent::XferDone { xfer: next });
        } else {
            self.busy = false;
        }
        xfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recssd_sim::EventQueue;

    fn drive(link: &mut PcieLink, q: &mut EventQueue<PcieEvent>) -> Vec<(SimTime, XferId)> {
        let mut done = Vec::new();
        while let Some((now, ev)) = q.pop() {
            let mut fresh = Vec::new();
            let id = link.handle(now, ev, &mut |d, e| fresh.push((d, e)));
            for (d, e) in fresh {
                q.push_after(d, e);
            }
            done.push((now, id));
        }
        done
    }

    #[test]
    fn transfer_time_has_setup_plus_bandwidth() {
        let cfg = PcieConfig::gen2_x8();
        let t = cfg.transfer_time(16 * 1024);
        // 16384 / 3.2e9 s = 5.12 us, plus 1 us setup.
        assert_eq!(t.as_ns(), 1_000 + 5_120);
        assert_eq!(cfg.transfer_time(0).as_ns(), 1_000);
    }

    #[test]
    fn transfers_serialise_fifo() {
        let mut link = PcieLink::new(PcieConfig::gen2_x8());
        let mut q = EventQueue::new();
        let a = link.request(
            q.now(),
            16 * 1024,
            XferDirection::DeviceToHost,
            &mut |d, e| q.push_after(d, e),
        );
        let b = link.request(
            q.now(),
            16 * 1024,
            XferDirection::DeviceToHost,
            &mut |d, e| q.push_after(d, e),
        );
        let done = drive(&mut link, &mut q);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].1, a);
        assert_eq!(done[1].1, b);
        // Second finishes one transfer-time after the first.
        let per = PcieConfig::gen2_x8().transfer_time(16 * 1024);
        assert_eq!(done[0].0, SimTime::ZERO + per);
        assert_eq!(done[1].0, SimTime::ZERO + per + per);
        assert!(link.idle());
    }

    #[test]
    fn stats_accumulate() {
        let mut link = PcieLink::new(PcieConfig::gen2_x8());
        let mut q = EventQueue::new();
        link.request(q.now(), 1000, XferDirection::HostToDevice, &mut |d, e| {
            q.push_after(d, e)
        });
        link.request(q.now(), 2000, XferDirection::DeviceToHost, &mut |d, e| {
            q.push_after(d, e)
        });
        drive(&mut link, &mut q);
        assert_eq!(link.stats().transfers.get(), 2);
        assert_eq!(link.stats().bytes.get(), 3000);
        assert!(link.stats().busy_ns.get() > 2_000);
    }
}
