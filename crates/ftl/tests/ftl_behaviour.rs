//! Behavioural tests of the GreedyFTL: read/write correctness, caching,
//! garbage collection under a shadow model, wear leveling, preloading and
//! firmware serialisation.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use recssd_flash::PageOracle;
use recssd_ftl::{FtlConfig, FtlError, FtlEvent, FtlOutcome, FwTag, GreedyFtl, Lpn, ReadStarted};
use recssd_obs::trace::{track, TraceSink};
use recssd_sim::{EventQueue, SimDuration, SimTime};

/// Minimal event loop around a [`GreedyFtl`].
struct Harness {
    ftl: GreedyFtl,
    q: EventQueue<FtlEvent>,
}

impl Harness {
    fn new(cfg: FtlConfig) -> Self {
        Harness {
            ftl: GreedyFtl::new(cfg),
            q: EventQueue::new(),
        }
    }

    /// Runs events to quiescence, collecting timestamped outcomes.
    fn drain(&mut self) -> Vec<(SimTime, FtlOutcome)> {
        let mut out = Vec::new();
        while let Some((now, ev)) = self.q.pop() {
            let mut fresh = Vec::new();
            let mut outcomes = Vec::new();
            self.ftl
                .handle(now, ev, &mut |d, e| fresh.push((d, e)), &mut outcomes);
            for (d, e) in fresh {
                self.q.push_after(d, e);
            }
            out.extend(outcomes.into_iter().map(|o| (now, o)));
        }
        out
    }

    /// Starts a write of `data` to `lpn`, tagged with the page number.
    fn write(&mut self, lpn: u64, data: Vec<u8>) {
        let Harness { ftl, q } = self;
        let mut fresh = Vec::new();
        ftl.write_page(q.now(), Lpn(lpn), &data, FwTag(lpn), &mut |d, e| {
            fresh.push((d, e))
        })
        .expect("write accepted");
        for (d, e) in fresh {
            q.push_after(d, e);
        }
    }

    /// Fully synchronous read: starts a read and drains until it finishes.
    fn read_sync(&mut self, lpn: u64) -> Vec<u8> {
        let Harness { ftl, q } = self;
        let mut fresh = Vec::new();
        let started = ftl
            .read_page(q.now(), Lpn(lpn), &mut |d, e| fresh.push((d, e)))
            .expect("read accepted");
        for (d, e) in fresh {
            q.push_after(d, e);
        }
        match started {
            ReadStarted::CacheHit(data) => data.to_vec(),
            ReadStarted::Unmapped => vec![0u8; ftl.page_bytes()],
            ReadStarted::Pending(tag) => {
                for (_, o) in self.drain() {
                    if let FtlOutcome::ReadDone { tag: t, data, .. } = o {
                        if t == tag {
                            return data.to_vec();
                        }
                    }
                }
                panic!("pending read never completed");
            }
        }
    }
}

fn payload(tag: u64) -> Vec<u8> {
    // Distinctive small payload; the page tail is zeros.
    tag.to_le_bytes().to_vec()
}

#[test]
fn unmapped_read_is_zeros() {
    let mut h = Harness::new(FtlConfig::cosmos_small());
    let data = h.read_sync(17);
    assert!(data.iter().all(|&b| b == 0));
    assert_eq!(h.ftl.stats().unmapped_reads.get(), 1);
}

#[test]
fn out_of_range_requests_rejected() {
    let cfg = FtlConfig::cosmos_small();
    let logical = cfg.logical_pages;
    let mut h = Harness::new(cfg);
    let Harness { ftl, q } = &mut h;
    let err = ftl
        .read_page(q.now(), Lpn(logical), &mut |_, _| {})
        .unwrap_err();
    assert_eq!(err, FtlError::LpnOutOfRange(Lpn(logical)));
    let err = ftl
        .write_page(q.now(), Lpn(logical), &[1], FwTag(0), &mut |_, _| {})
        .unwrap_err();
    assert_eq!(err, FtlError::LpnOutOfRange(Lpn(logical)));
    let big = vec![0u8; ftl.page_bytes() + 1];
    let err = ftl
        .write_page(q.now(), Lpn(0), &big, FwTag(0), &mut |_, _| {})
        .unwrap_err();
    assert!(matches!(err, FtlError::DataTooLarge { .. }));
}

#[test]
fn write_then_read_hits_write_buffer_before_program_completes() {
    let mut h = Harness::new(FtlConfig::cosmos_small());
    h.write(5, payload(0xAB));
    // No drain: the program is still in flight.
    let data = h.read_sync(5);
    assert_eq!(&data[..8], &0xABu64.to_le_bytes());
    assert_eq!(h.ftl.stats().write_buffer_hits.get(), 1);
}

#[test]
fn flash_path_round_trips_after_caches_dropped() {
    let mut h = Harness::new(FtlConfig::cosmos_small());
    h.write(9, payload(42));
    h.drain();
    h.ftl.drop_caches();
    let flash_reads_before = h.ftl.flash().stats().reads.get();
    let data = h.read_sync(9);
    assert_eq!(&data[..8], &42u64.to_le_bytes());
    assert_eq!(data.len(), h.ftl.page_bytes());
    assert_eq!(h.ftl.flash().stats().reads.get(), flash_reads_before + 1);
}

#[test]
fn page_cache_absorbs_repeat_reads() {
    let mut h = Harness::new(FtlConfig::cosmos_small());
    h.write(3, payload(7));
    h.drain();
    h.ftl.drop_caches();
    h.read_sync(3); // flash read, fills cache
    let reads_after_first = h.ftl.flash().stats().reads.get();
    for _ in 0..5 {
        let d = h.read_sync(3);
        assert_eq!(&d[..8], &7u64.to_le_bytes());
    }
    assert_eq!(
        h.ftl.flash().stats().reads.get(),
        reads_after_first,
        "repeat reads must be cache hits"
    );
    assert!(h.ftl.cache_stats().hits() >= 5);
}

#[test]
fn overwrite_returns_latest_data_on_every_path() {
    let mut h = Harness::new(FtlConfig::cosmos_small());
    h.write(11, payload(1));
    h.drain();
    h.write(11, payload(2));
    // Write buffer path.
    assert_eq!(&h.read_sync(11)[..8], &2u64.to_le_bytes());
    h.drain();
    // Cache path.
    assert_eq!(&h.read_sync(11)[..8], &2u64.to_le_bytes());
    // Flash path.
    h.ftl.drop_caches();
    assert_eq!(&h.read_sync(11)[..8], &2u64.to_le_bytes());
}

#[test]
fn gc_reclaims_space_and_preserves_all_data() {
    let cfg = FtlConfig::cosmos_small();
    let mut h = Harness::new(cfg);
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    // Interleave a churning hot set with occasional fresh cold pages, so
    // every physical block ends up holding a couple of live (cold) pages
    // among mostly-invalidated hot ones — forcing GC to relocate.
    // 6000 writes over 4096 physical pages guarantees GC pressure.
    let hot_set = 192u64;
    for i in 0..6000u64 {
        let lpn = if i % 8 == 0 {
            1_000 + i / 8 // fresh, never overwritten
        } else {
            (i * 7) % hot_set
        };
        h.write(lpn, payload(i));
        shadow.insert(lpn, i);
        h.drain();
    }
    assert!(
        h.ftl.stats().gc_erased_blocks.get() > 0,
        "workload must trigger GC"
    );
    assert!(h.ftl.stats().gc_relocated_pages.get() > 0);
    // Every logical page still reads back its latest value via flash.
    h.ftl.drop_caches();
    for (&lpn, &want) in &shadow {
        let data = h.read_sync(lpn);
        assert_eq!(&data[..8], &want.to_le_bytes(), "lpn {lpn} corrupted by GC");
    }
}

/// The counters are the spans: on a traced run with host writes, host
/// reads from flash, GC relocations and firmware charges, taken to idle,
/// every channel's busy counter equals the sum of its `flash:xfer` hold
/// windows (member `ch`) — programs and GC reads included — and the
/// firmware core's equals the sum of its `fw:exec` windows.
#[test]
fn channel_and_firmware_counters_equal_their_traced_windows() {
    let sink = TraceSink::new();
    let mut h = Harness::new(FtlConfig::cosmos_small());
    h.ftl.set_tracer(sink.tracer(1, track::TID_FW));
    for i in 0..6000u64 {
        let lpn = if i % 8 == 0 {
            1_000 + i / 8
        } else {
            (i * 7) % 192
        };
        h.write(lpn, payload(i));
        let Harness { ftl, q } = &mut h;
        ftl.charge(
            q.now(),
            None,
            SimDuration::from_us(3),
            FwTag(i),
            0,
            &mut |d, e| q.push_after(d, e),
        );
        h.drain();
        if i % 500 == 0 {
            h.ftl.drop_caches();
            h.read_sync(lpn);
        }
    }
    assert!(h.ftl.idle());
    assert!(h.ftl.stats().gc_relocated_pages.get() > 0, "no GC ran");
    let spans = sink.take_spans();
    let traced = |name: &str, member: Option<u64>| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name && member.is_none_or(|m| s.arg_val == m))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    };
    let channel_busy = h.ftl.flash().stats().channel_busy;
    for (c, busy) in channel_busy.iter().enumerate() {
        assert!(*busy > SimDuration::ZERO, "channel {c} never held");
        assert_eq!(
            traced("flash:xfer", Some(c as u64)),
            busy.as_ns(),
            "channel {c}"
        );
    }
    assert_eq!(traced("fw:exec", None), h.ftl.firmware_busy().as_ns());
    assert!(spans.iter().any(|s| s.name == "flash:read"));
}

#[test]
fn wear_stays_balanced_under_churn() {
    let mut h = Harness::new(FtlConfig::cosmos_small());
    for i in 0..12_000u64 {
        h.write(i % 64, payload(i));
        h.drain();
    }
    let total_dies = 4;
    let mut any_spread = false;
    for die in 0..total_dies {
        if let Some((min, max)) = h.ftl.allocator().wear_spread(die) {
            any_spread = true;
            assert!(
                max - min <= 3,
                "die {die} wear spread too wide: {min}..{max}"
            );
        }
    }
    assert!(any_spread, "churn workload must erase blocks");
}

#[test]
fn device_full_surfaces_when_writes_outrun_gc() {
    // Submit fresh-lpn writes without draining: no garbage exists, GC has
    // nothing to reclaim, and the allocator must eventually refuse.
    let cfg = FtlConfig::cosmos_small();
    let total_physical = cfg.flash.geometry.total_pages();
    let mut h = Harness::new(cfg);
    let mut full_seen = false;
    for lpn in 0..total_physical {
        let Harness { ftl, q } = &mut h;
        let mut fresh = Vec::new();
        let r = ftl.write_page(
            q.now(),
            Lpn(lpn % ftl.config().logical_pages),
            {
                // Unique lpns until logical wraps; stop before overwrites start.
                &payload(lpn)
            },
            FwTag(lpn),
            &mut |d, e| fresh.push((d, e)),
        );
        for (d, e) in fresh {
            q.push_after(d, e);
        }
        match r {
            Ok(_) => {}
            Err(FtlError::DeviceFull) => {
                full_seen = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        if lpn >= h.ftl.config().logical_pages - 1 {
            break; // avoid overwrites, which would create GC'able garbage
        }
    }
    // Logical capacity is half of physical here, so fresh writes alone
    // cannot fill the device; instead assert the write path stayed sound
    // and the allocator still has room.
    assert!(!full_seen, "fresh writes within logical capacity must fit");
    h.drain();
}

#[test]
fn preloaded_region_reads_through_oracle_and_respects_overwrites() {
    #[derive(Debug)]
    struct TagOracle;
    impl PageOracle for TagOracle {
        fn fill_page(&self, page_index: u64, out: &mut [u8]) {
            out[..8].copy_from_slice(&(page_index ^ 0xDEAD).to_le_bytes());
        }
    }
    let mut h = Harness::new(FtlConfig::cosmos_small());
    h.ftl.preload(Lpn(0), 512, Arc::new(TagOracle));
    // Read through the flash path.
    let d = h.read_sync(100);
    assert_eq!(&d[..8], &(100u64 ^ 0xDEAD).to_le_bytes());
    // Overwrites shadow the preloaded image.
    h.write(100, payload(5));
    h.drain();
    h.ftl.drop_caches();
    assert_eq!(&h.read_sync(100)[..8], &5u64.to_le_bytes());
    // Neighbouring preloaded pages are unaffected.
    assert_eq!(&h.read_sync(101)[..8], &(101u64 ^ 0xDEAD).to_le_bytes());
    // Fresh writes to other pages still work (reserved blocks skipped).
    h.write(600, payload(6));
    h.drain();
    h.ftl.drop_caches();
    assert_eq!(&h.read_sync(600)[..8], &6u64.to_le_bytes());
}

#[test]
fn adjacent_preloads_share_boundary_blocks() {
    #[derive(Debug)]
    struct Z;
    impl PageOracle for Z {
        fn fill_page(&self, i: u64, out: &mut [u8]) {
            out[0] = i as u8;
        }
    }
    let mut h = Harness::new(FtlConfig::cosmos_small());
    // Two preloads that meet mid-block must not double-reserve.
    h.ftl.preload(Lpn(0), 10, Arc::new(Z));
    h.ftl.preload(Lpn(10), 10, Arc::new(Z));
    assert_eq!(h.read_sync(5)[0], 5);
    assert_eq!(h.read_sync(15)[0], 15);
}

/// Preloaded blocks are reserved by their ranges alone: two adjacent
/// regions that share boundary blocks, one of them preloaded again with
/// new contents (a table slot re-bound), stay out of the allocator
/// through enough churn to make GC relocate pages. No write lands on a
/// preloaded block — each keeps the write pointer its preloads gave it,
/// was never erased and never filled — and every preloaded page still
/// reads its oracle's bytes.
#[test]
fn preloaded_blocks_stay_out_of_the_allocator_through_gc() {
    #[derive(Debug)]
    struct Salted(u64);
    impl PageOracle for Salted {
        fn fill_page(&self, page_index: u64, out: &mut [u8]) {
            out[..8].copy_from_slice(&(page_index ^ self.0).to_le_bytes());
        }
    }
    let cfg = FtlConfig::cosmos_small();
    let g = cfg.flash.geometry;
    let mut h = Harness::new(cfg);
    // 300 is not a multiple of the 4-lane stride times 16 pages a block,
    // so the two regions share a block on every lane.
    let (a, b) = (0..300u64, 300..700u64);
    h.ftl
        .preload(Lpn(a.start), a.end - a.start, Arc::new(Salted(0xA)));
    h.ftl
        .preload(Lpn(b.start), b.end - b.start, Arc::new(Salted(0xB)));
    h.ftl
        .preload(Lpn(b.start), b.end - b.start, Arc::new(Salted(0xC)));
    let salt = |lpn: u64| if a.contains(&lpn) { 0xA } else { 0xC };
    let preloaded: Vec<_> = g.covered_blocks(a.start..b.end).collect();
    assert!(preloaded.len() > 4, "the regions cover whole blocks too");

    let mut shadow: HashMap<u64, u64> = HashMap::new();
    for i in 0..6000u64 {
        let lpn = if i % 8 == 0 {
            1_000 + i / 8
        } else {
            1_000 - 192 + (i * 7) % 192
        };
        h.write(lpn, payload(i));
        shadow.insert(lpn, i);
        h.drain();
    }
    assert!(h.ftl.stats().gc_relocated_pages.get() > 0, "no GC ran");

    let alloc = h.ftl.allocator();
    for last in &preloaded {
        let die = (last.channel * g.dies_per_channel + last.die) as usize;
        assert_eq!(
            h.ftl
                .flash()
                .next_program_page(last.channel, last.die, last.block),
            last.page + 1,
            "a write landed on preloaded block {last}"
        );
        assert_eq!(alloc.erase_count(last.channel, last.die, last.block), 0);
        assert!(!alloc.used_blocks_in_die(die).contains(&last.block));
    }
    h.ftl.drop_caches();
    for lpn in a.start..b.end {
        let want = lpn ^ salt(lpn);
        assert_eq!(&h.read_sync(lpn)[..8], &want.to_le_bytes(), "lpn {lpn}");
    }
    for (&lpn, &want) in &shadow {
        assert_eq!(&h.read_sync(lpn)[..8], &want.to_le_bytes(), "lpn {lpn}");
    }
}

#[test]
fn firmware_tasks_serialise_fifo() {
    let mut h = Harness::new(FtlConfig::cosmos_small());
    {
        let Harness { ftl, q } = &mut h;
        let mut fresh = Vec::new();
        ftl.charge(
            q.now(),
            None,
            SimDuration::from_us(10),
            FwTag(1),
            0,
            &mut |d, e| fresh.push((d, e)),
        );
        ftl.charge(
            q.now(),
            None,
            SimDuration::from_us(5),
            FwTag(2),
            0,
            &mut |d, e| fresh.push((d, e)),
        );
        for (d, e) in fresh {
            q.push_after(d, e);
        }
    }
    let out = h.drain();
    let done: Vec<(SimTime, u64)> = out
        .iter()
        .filter_map(|(t, o)| match o {
            FtlOutcome::FwTaskDone { tag } => Some((*t, tag.0)),
            _ => None,
        })
        .collect();
    assert_eq!(
        done,
        vec![(SimTime::from_us(10), 1), (SimTime::from_us(15), 2),],
        "second task starts only after the first finishes"
    );
    assert_eq!(h.ftl.firmware_busy(), SimDuration::from_us(15));
}

#[test]
fn identical_workloads_are_deterministic() {
    let run = || {
        let mut h = Harness::new(FtlConfig::cosmos_small());
        for i in 0..200u64 {
            h.write(i % 50, payload(i));
        }
        let out = h.drain();
        let final_t = out.last().map(|(t, _)| *t).unwrap();
        (
            final_t,
            h.ftl.stats().host_writes.get(),
            h.ftl.flash().stats().programs.get(),
        )
    };
    assert_eq!(run(), run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of writes, reads and cache drops always agree
    /// with a shadow model, including across GC activity.
    #[test]
    fn ftl_matches_shadow_model(ops in proptest::collection::vec((0u8..4, 0u64..96, 0u64..u64::MAX), 1..300)) {
        let mut h = Harness::new(FtlConfig::cosmos_small());
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        for (kind, lpn, tag) in ops {
            match kind {
                0 | 1 => {
                    h.write(lpn, payload(tag));
                    shadow.insert(lpn, tag);
                }
                2 => {
                    let got = h.read_sync(lpn);
                    let want = shadow.get(&lpn).copied().unwrap_or(0);
                    prop_assert_eq!(&got[..8], &want.to_le_bytes());
                }
                _ => {
                    h.drain();
                    h.ftl.drop_caches();
                }
            }
        }
        h.drain();
        h.ftl.drop_caches();
        for (&lpn, &want) in &shadow {
            let got = h.read_sync(lpn);
            prop_assert_eq!(&got[..8], &want.to_le_bytes(), "lpn {}", lpn);
        }
        prop_assert!(h.ftl.idle());
    }
}
