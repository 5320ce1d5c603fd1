//! Probes that do not depend on the workload: the layer ladder, the
//! read/write variant that reaches the write path and GC, and timed calls
//! into the public kernels of the leaf crates. They run in every traced
//! run so each per-layer metric has a measured value on every workload.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use recssd::{LookupBatch, OpKind, RecSsdConfig, SlsConfig, SlsOptions, System};
use recssd_cache::LruCache;
use recssd_embedding::{
    sls_reference_into, EmbeddingTable, PageLayout, Quantization, TableImage, TableSpec,
};
use recssd_flash::{FlashArray, FlashOp, PageOracle};
use recssd_ftl::{FtlOutcome, GreedyFtl, Lpn, ReadStarted};
use recssd_nvme::{NvmeCommand, NvmeStatus};
use recssd_sim::EventQueue;
use recssd_ssd::{SsdConfig, SsdDevice};
use recssd_trace::ZipfTrace;

use recssd_serving::ExecMode;

use crate::gen::{Rng, Zipf};
use crate::ledger::Metrics;
use crate::serving::{self, Load, Pass};

/// Pages each ladder level reads.
const LADDER_PAGES: usize = 100_000;
/// Preloaded pages the uniform stream ranges over (≫ the 32-page FTL
/// cache, so nearly every read reaches flash).
const LADDER_SPAN: u64 = 32_768;
/// Reads outstanding per wave at every level.
const WAVE: usize = 32;
/// Commands of the read/write variant.
const RW_COMMANDS: usize = 40_000;

/// Preloaded content: all zeros.
#[derive(Debug)]
struct Zeros;

impl PageOracle for Zeros {
    fn fill_page(&self, _page_index: u64, _out: &mut [u8]) {}
}

/// Wall ns per page and simulated µs per page of one level.
#[derive(Debug, Clone, Copy)]
struct Level {
    wall_ns: f64,
    sim_us: f64,
}

fn level(pages: usize, wall: std::time::Duration, sim_ns: u64) -> Level {
    Level {
        wall_ns: wall.as_nanos() as f64 / pages as f64,
        sim_us: sim_ns as f64 / 1e3 / pages as f64,
    }
}

fn uniform_stream(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x1ADD_E200);
    (0..LADDER_PAGES).map(|_| rng.below(LADDER_SPAN)).collect()
}

fn flash_level(stream: &[u64]) -> Level {
    let cfg = RecSsdConfig::small_wide().ssd.ftl.flash;
    let g = cfg.geometry;
    let mut flash = FlashArray::new(cfg);
    flash.preload(0..LADDER_SPAN, Arc::new(Zeros));
    let mut q = EventQueue::new();
    let mut fresh = Vec::new();
    let mut done = 0usize;
    let t0 = Instant::now();
    for wave in stream.chunks(WAVE) {
        for &p in wave {
            let ppa = g.ppa_of_index(p);
            flash
                .submit(q.now(), FlashOp::Read { ppa }, &mut |d, e| {
                    fresh.push((d, e))
                })
                .expect("a preloaded page is readable");
        }
        for (d, e) in fresh.drain(..) {
            q.push_after(d, e);
        }
        while let Some((now, ev)) = q.pop() {
            if let Some(c) = flash.handle(now, ev, &mut |d, e| fresh.push((d, e))) {
                done += 1;
                if let Some(buf) = c.data {
                    flash.recycle_page_buf(buf);
                }
            }
            for (d, e) in fresh.drain(..) {
                q.push_after(d, e);
            }
        }
    }
    let wall = t0.elapsed();
    assert_eq!(done, stream.len(), "flash level lost reads");
    level(stream.len(), wall, q.now().as_ns())
}

fn ftl_level(stream: &[u64]) -> Level {
    let mut ftl = GreedyFtl::new(RecSsdConfig::small_wide().ssd.ftl);
    ftl.preload(Lpn(0), LADDER_SPAN, Arc::new(Zeros));
    let mut q = EventQueue::new();
    let mut fresh = Vec::new();
    let mut outcomes = Vec::new();
    let mut done = 0usize;
    let t0 = Instant::now();
    for wave in stream.chunks(WAVE) {
        for &p in wave {
            match ftl
                .read_page(q.now(), Lpn(p), &mut |d, e| fresh.push((d, e)))
                .expect("a preloaded page is readable")
            {
                ReadStarted::Pending(_) => {}
                ReadStarted::CacheHit(_) | ReadStarted::Unmapped => done += 1,
            }
        }
        for (d, e) in fresh.drain(..) {
            q.push_after(d, e);
        }
        while let Some((now, ev)) = q.pop() {
            ftl.handle(now, ev, &mut |d, e| fresh.push((d, e)), &mut outcomes);
            for o in outcomes.drain(..) {
                if let FtlOutcome::ReadDone { data, .. } = o {
                    done += 1;
                    ftl.recycle_page_image(data);
                }
            }
            for (d, e) in fresh.drain(..) {
                q.push_after(d, e);
            }
        }
    }
    let wall = t0.elapsed();
    assert_eq!(done, stream.len(), "FTL level lost reads");
    level(stream.len(), wall, q.now().as_ns())
}

/// One wave of NVMe commands through a device, drained to idle.
fn ssd_wave(
    dev: &mut SsdDevice,
    q: &mut EventQueue<recssd_ssd::SsdEvent>,
    fresh: &mut Vec<(recssd_sim::SimDuration, recssd_ssd::SsdEvent)>,
    cmds: impl Iterator<Item = NvmeCommand>,
) -> usize {
    for cmd in cmds {
        dev.queue(0).submit(cmd).expect("the wave fits the queue");
    }
    dev.doorbell(q.now(), 0, &mut |d, e| fresh.push((d, e)));
    for (d, e) in fresh.drain(..) {
        q.push_after(d, e);
    }
    while let Some((now, ev)) = q.pop() {
        dev.handle(now, ev, &mut |d, e| fresh.push((d, e)));
        for (d, e) in fresh.drain(..) {
            q.push_after(d, e);
        }
    }
    let mut done = 0;
    while let Some(c) = dev.queue(0).poll() {
        assert_eq!(c.status, NvmeStatus::Success, "ladder command failed");
        done += 1;
        if let Some(buf) = c.data {
            dev.recycle_buffer(buf);
        }
    }
    done
}

fn ssd_level(stream: &[u64]) -> Level {
    let mut dev: SsdDevice = SsdDevice::new(RecSsdConfig::small_wide().ssd);
    dev.preload(Lpn(0), LADDER_SPAN, Arc::new(Zeros));
    let mut q = EventQueue::new();
    let mut fresh = Vec::new();
    let mut done = 0usize;
    let t0 = Instant::now();
    for wave in stream.chunks(WAVE) {
        let cmds = wave
            .iter()
            .enumerate()
            .map(|(i, &p)| NvmeCommand::read(i as u16, p, 1));
        done += ssd_wave(&mut dev, &mut q, &mut fresh, cmds);
    }
    let wall = t0.elapsed();
    assert_eq!(done, stream.len(), "SSD level lost reads");
    level(stream.len(), wall, q.now().as_ns())
}

fn core_level(stream: &[u64]) -> Level {
    let mut cfg = RecSsdConfig::small_wide();
    // One table slot as wide as the span the other levels read.
    cfg.ndp.table_align = LADDER_SPAN;
    let mut sys = System::new(cfg);
    let page = sys.config().ssd.block_bytes();
    // Spread layout: one row a page, so a one-lookup baseline SLS is a
    // one-page read through the whole host path.
    let spec = TableSpec::new(LADDER_SPAN, 32, Quantization::F32);
    let table = sys.add_table(TableImage::new(
        EmbeddingTable::procedural(spec, 1),
        PageLayout::Spread,
        page,
    ));
    let opts = SlsOptions::default();
    let mut ops = Vec::with_capacity(WAVE);
    let start = sys.now();
    let t0 = Instant::now();
    for wave in stream.chunks(WAVE) {
        for &p in wave {
            let batch = LookupBatch::new(vec![vec![p]]);
            ops.push(sys.submit(OpKind::baseline_sls(table, batch, opts)));
        }
        sys.run_until_idle();
        for op in ops.drain(..) {
            let r = sys.take_result(op);
            assert!(r.is_ok(), "ladder SLS failed");
            sys.recycle_outputs(r.outputs.expect("an SLS operator has outputs"));
        }
    }
    let wall = t0.elapsed();
    level(
        stream.len(),
        wall,
        sys.now().saturating_since(start).as_ns(),
    )
}

/// 70 % reads / 30 % one-page writes on the small geometry, where 12 000
/// writes over 1 024 logical pages overrun the free blocks many times:
/// the only place `write_page`, the allocator and GC run.
fn ssd_read_write(seed: u64) -> Metrics {
    let cfg = SsdConfig::cosmos_small();
    let page = cfg.block_bytes();
    let mut dev: SsdDevice = SsdDevice::new(cfg);
    const PRELOADED: u64 = 512;
    const WRITTEN: u64 = 1024;
    dev.preload(Lpn(0), PRELOADED, Arc::new(Zeros));
    let mut rng = Rng::new(seed ^ 0x7030);
    let mut q = EventQueue::new();
    let mut fresh = Vec::new();
    let (mut done, mut writes) = (0usize, 0u64);
    let t0 = Instant::now();
    for wave in 0..RW_COMMANDS / WAVE {
        let cmds: Vec<NvmeCommand> = (0..WAVE)
            .map(|i| {
                if rng.below(10) < 3 {
                    writes += 1;
                    let lpn = PRELOADED + rng.below(WRITTEN);
                    let mut payload = vec![0u8; page];
                    payload[0] = wave as u8;
                    NvmeCommand::write(i as u16, lpn, 1, payload)
                } else {
                    NvmeCommand::read(i as u16, rng.below(PRELOADED + WRITTEN), 1)
                }
            })
            .collect();
        done += ssd_wave(&mut dev, &mut q, &mut fresh, cmds.into_iter());
    }
    let wall = t0.elapsed();
    let cmds = RW_COMMANDS / WAVE * WAVE;
    assert_eq!(done, cmds, "read/write variant lost commands");
    let st = *dev.ftl().stats();
    assert_eq!(st.host_writes.get(), writes);
    assert!(
        st.gc_relocated_pages.get() > 0 || st.gc_erased_blocks.get() > 0,
        "the read/write variant never reached GC"
    );
    vec![
        (
            "ladder.ssd_rw.wall_ns_per_cmd".into(),
            wall.as_nanos() as f64 / cmds as f64,
        ),
        (
            "ladder.ssd_rw.sim_iops".into(),
            cmds as f64 / (q.now().as_ns() as f64 / 1e9),
        ),
        (
            "ladder.ssd_rw.write_amp".into(),
            (writes + st.gc_relocated_pages.get()) as f64 / writes as f64,
        ),
    ]
}

/// The layer ladder: one uniform page stream through four levels of the
/// stack, each driven by its own event loop here. A level's self wall
/// time is its cost per page minus the level below it.
pub fn ladder(seed: u64) -> Metrics {
    let stream = uniform_stream(seed);
    let levels = [
        ("flash", flash_level(&stream)),
        ("ftl", ftl_level(&stream)),
        ("ssd", ssd_level(&stream)),
        ("core", core_level(&stream)),
    ];
    let mut out = Metrics::new();
    let mut below = 0.0;
    for (i, (name, l)) in levels.iter().enumerate() {
        let key = if i == 0 {
            format!("ladder.{name}.wall_ns_per_page")
        } else {
            format!("ladder.{name}.self_wall_ns_per_page")
        };
        out.push((key, l.wall_ns - below));
        below = l.wall_ns;
    }
    for (name, l) in &levels {
        out.push((format!("ladder.{name}.sim_us_per_page"), l.sim_us));
    }
    out.extend(ssd_read_write(seed));
    out
}

/// Mean wall ns of `f` over `n` calls.
fn ns_per(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

fn sls_ref_ns_per_lookup(dim: usize, seed: u64) -> f64 {
    let rows = 4096;
    let table = EmbeddingTable::procedural(TableSpec::new(rows, dim, Quantization::F32), 1);
    let mut z = Zipf::new(rows, 1.2, 1, seed);
    let batches: Vec<LookupBatch> = (0..64)
        .map(|_| {
            LookupBatch::new(
                (0..4)
                    .map(|_| (0..10).map(|_| z.next_row()).collect())
                    .collect(),
            )
        })
        .collect();
    let mut out = vec![0.0f32; 4 * dim];
    let calls = 200_000 / dim.max(32);
    ns_per(calls, |i| {
        out.fill(0.0);
        sls_reference_into(&table, black_box(&batches[i % batches.len()]), &mut out);
        black_box(&out);
    }) / 40.0
}

/// Timed calls into public kernels of the leaf crates.
pub fn kernels(seed: u64) -> Metrics {
    let mut out = Metrics::new();
    for dim in [32, 1024] {
        out.push((
            format!("embedding.sls_ref_ns_per_lookup.d{dim}"),
            sls_ref_ns_per_lookup(dim, seed),
        ));
    }

    let mut lru: LruCache<u64, u64> = LruCache::new(2048);
    let mut z = Zipf::new(65_536, 1.2, 1, seed);
    out.push((
        "cache.lru_ns_per_access".into(),
        ns_per(1_000_000, |_| {
            let k = z.next_row();
            if lru.get(&k).is_none() {
                lru.insert(k, k);
            }
        }),
    ));

    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng::new(seed);
    for i in 0..64 {
        q.push_after(recssd_sim::SimDuration::from_ns(1 + rng.below(1000)), i);
    }
    out.push((
        "simcore.eventq_ns_per_op".into(),
        // One pop and one push per iteration: two queue operations.
        ns_per(1_000_000, |_| {
            let (_, e) = q.pop().expect("the queue holds 64 events");
            q.push_after(recssd_sim::SimDuration::from_ns(1 + rng.below(1000)), e);
        }) / 2.0,
    ));

    let mut trace = ZipfTrace::new(1_000_000, 1.2, seed);
    out.push((
        "trace.zipf_ns_per_id".into(),
        ns_per(1_000_000, |_| {
            black_box(trace.next_id());
        }),
    ));

    let pairs: Vec<(u64, u32)> = (0..320u64).map(|i| (i * 13, (i % 4) as u32)).collect();
    let cfg = SlsConfig {
        dim: 32,
        quant: Quantization::F32,
        rows_per_page: 1,
        n_results: 4,
        pairs,
    };
    let mut buf = Vec::new();
    out.push((
        "core.proto.codec_ns_per_pair".into(),
        ns_per(5_000, |_| {
            buf.clear();
            cfg.encode_into(&mut buf);
            let back = SlsConfig::decode(black_box(&buf)).expect("a config round-trips");
            black_box(back);
        }) / 320.0,
    ));
    out
}

/// Wall time of the parallel stepper with two workers over the
/// sequential one, on a 2 000-request `ndp-flashwall` whose clients think
/// for the sync horizon (the fastest feedback the stepper accepts). Both
/// must produce the same completions.
pub fn parallel_ratio(seed: u64) -> Result<f64, String> {
    let mut w = serving::ndp_flashwall();
    w.load = Load::Closed {
        clients: 32,
        requests: 2_000,
    };
    let run = |exec| serving::run_with(&w, seed, Pass::Timed, exec, true, None);
    let seq = run(ExecMode::Sequential);
    let par = run(ExecMode::Parallel(2));
    if seq.digest != par.digest {
        return Err("the parallel stepper's completions differ from the sequential one's".into());
    }
    Ok(par.wall_s / seq.wall_s)
}
