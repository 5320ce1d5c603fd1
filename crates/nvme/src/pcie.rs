//! PCIe link model: a shared, serialising DMA resource.

use recssd_sim::stats::Counter;
use recssd_sim::{Server, SimDuration, SimTime};

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

/// Events the link schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcieEvent {
    /// The transfer at the head of the link finished.
    XferDone {
        /// The completed transfer's caller-supplied tag.
        tag: u64,
    },
}

/// Aggregate link statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PcieStats {
    /// Completed transfers.
    pub transfers: Counter,
    /// Total payload bytes moved.
    pub bytes: Counter,
    /// Link-busy time in nanoseconds: the service total of the link's
    /// arbiter, counted as each transfer starts.
    pub busy_ns: Counter,
}

/// The serialising DMA engine: one transfer at a time, FIFO arbitration
/// (a [`Server`] of the tags its callers supply).
///
/// # Example
///
/// ```
/// use recssd_nvme::{PcieConfig, PcieEvent, PcieLink};
/// use recssd_sim::EventQueue;
///
/// let mut link = PcieLink::new(PcieConfig::gen2_x8());
/// let mut q: EventQueue<PcieEvent> = EventQueue::new();
/// link.request(q.now(), 16 * 1024, 7, &mut |d, e| q.push_after(d, e));
/// let (now, ev) = q.pop().unwrap();
/// assert_eq!(link.handle(now, ev, &mut |_, _| {}), 7);
/// assert!(now.as_us_f64() > 5.0); // 16 KB at ~3.2 GB/s + setup
/// ```
#[derive(Debug)]
pub struct PcieLink {
    config: PcieConfig,
    arbiter: Server<u64>,
    bytes: Counter,
}

impl PcieLink {
    /// Creates an idle link.
    pub fn new(config: PcieConfig) -> Self {
        PcieLink {
            config,
            arbiter: Server::new(),
            bytes: Counter::new(),
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> PcieConfig {
        self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> PcieStats {
        let mut stats = PcieStats {
            bytes: self.bytes,
            ..PcieStats::default()
        };
        stats.transfers.add(self.arbiter.served());
        stats.busy_ns.add(self.arbiter.busy().as_ns());
        stats
    }

    /// Resets the link statistics; transfers in flight are untouched.
    pub fn reset_stats(&mut self) {
        self.bytes.reset();
        self.arbiter.reset();
    }

    /// `true` when no transfer is active or queued.
    pub fn idle(&self) -> bool {
        self.arbiter.idle()
    }

    /// Requests a DMA of `bytes` at `now` on behalf of `tag`, which
    /// [`PcieLink::handle`] returns when the transfer completes.
    pub fn request(
        &mut self,
        now: SimTime,
        bytes: usize,
        tag: u64,
        sched: &mut dyn FnMut(SimDuration, PcieEvent),
    ) {
        self.bytes.add(bytes as u64);
        if let Some(d) = self
            .arbiter
            .start(now, self.config.transfer_time(bytes), tag)
        {
            sched(d, PcieEvent::XferDone { tag });
        }
    }

    /// Processes a completion event at `now`, starting the next queued
    /// transfer. Returns the finished transfer's tag.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: PcieEvent,
        sched: &mut dyn FnMut(SimDuration, PcieEvent),
    ) -> u64 {
        let PcieEvent::XferDone { tag } = ev;
        let (done, next) = self.arbiter.finish(now);
        debug_assert_eq!(done, tag, "PCIe completion for a transfer not on the link");
        if let Some(d) = next {
            let next = self.arbiter.current().expect("a queued transfer started");
            sched(d, PcieEvent::XferDone { tag: next });
        }
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recssd_sim::EventQueue;

    fn drive(link: &mut PcieLink, q: &mut EventQueue<PcieEvent>) -> Vec<(SimTime, u64)> {
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
        let (a, b) = (3, 1);
        link.request(q.now(), 16 * 1024, a, &mut |d, e| q.push_after(d, e));
        link.request(q.now(), 16 * 1024, b, &mut |d, e| q.push_after(d, e));
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
        link.request(q.now(), 1000, 0, &mut |d, e| q.push_after(d, e));
        link.request(q.now(), 2000, 1, &mut |d, e| q.push_after(d, e));
        // The queued transfer is not busy time until it starts.
        let first = PcieConfig::gen2_x8().transfer_time(1000).as_ns();
        assert_eq!(link.stats().busy_ns.get(), first);
        drive(&mut link, &mut q);
        assert_eq!(link.stats().transfers.get(), 2);
        assert_eq!(link.stats().bytes.get(), 3000);
        let second = PcieConfig::gen2_x8().transfer_time(2000).as_ns();
        assert_eq!(link.stats().busy_ns.get(), first + second);
    }
}
