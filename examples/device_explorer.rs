//! Device explorer: poke the simulated SSD directly through its NVMe
//! interface — conventional reads/writes, the firmware IOPS ceiling, and
//! a hand-rolled NDP command pair (the same bytes the RecSSD host driver
//! sends).
//!
//! ```text
//! cargo run --release --example device_explorer
//! ```

use recssd::{NdpSlsEngine, SlsConfig};
use recssd_embedding::Quantization;
use recssd_nvme::NvmeCommand;
use recssd_sim::{EventQueue, SimTime};
use recssd_ssd::{SsdConfig, SsdDevice, SsdEvent};

/// Minimal host loop around a raw device.
struct RawHost {
    dev: SsdDevice<NdpSlsEngine>,
    q: EventQueue<SsdEvent>,
}

impl RawHost {
    fn submit(&mut self, qid: u16, cmd: NvmeCommand) {
        let RawHost { dev, q } = self;
        dev.queue(qid).submit(cmd).expect("queue has room");
        dev.doorbell(q.now(), qid, &mut |d, e| q.push_after(d, e));
    }

    fn drain(&mut self) -> SimTime {
        let mut last = self.q.now();
        while let Some((now, ev)) = self.q.pop() {
            let RawHost { dev, q } = self;
            dev.handle(now, ev, &mut |d, e| q.push_after(d, e));
            last = now;
        }
        last
    }
}

fn main() {
    let cfg = SsdConfig::cosmos_small();
    let ndp = recssd::NdpConfig {
        table_align: 1 << 10,
        ..recssd::NdpConfig::cosmos()
    };
    let mut host = RawHost {
        dev: SsdDevice::with_engine(cfg, NdpSlsEngine::new(ndp)),
        q: EventQueue::new(),
    };

    // 1. Write two rows of "embedding" data as ordinary blocks.
    println!("--- conventional write/read ---");
    let mut page = vec![0u8; 16 * 1024];
    for (i, v) in [1.5f32, -0.25, 3.0].iter().enumerate() {
        page[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }
    host.submit(0, NvmeCommand::write(1, 5, 1, page));
    let t = host.drain();
    println!("write persisted at {t}");
    host.submit(0, NvmeCommand::read(2, 5, 1));
    host.drain();
    let completion = host.dev.queue(0).poll().expect("write done");
    assert_eq!(completion.cid, 1);
    let completion = host.dev.queue(0).poll().expect("read done");
    let data = completion.data.expect("read data").to_vec();
    println!(
        "read back: {:?}",
        (0..3)
            .map(|i| f32::from_le_bytes(data[i * 4..i * 4 + 4].try_into().unwrap()))
            .collect::<Vec<_>>()
    );

    // 2. The firmware IOPS ceiling (§3.2 of the paper).
    println!("\n--- random-read IOPS ceiling ---");
    let n = 64u64;
    let t0 = host.q.now();
    for i in 0..n {
        host.submit(
            (i % 4) as u16,
            NvmeCommand::read(100 + i as u16, i * 3 % 512, 1),
        );
    }
    let t1 = host.drain();
    let iops = n as f64 / t1.saturating_since(t0).as_secs_f64();
    println!("{n} random single-block reads -> {iops:.0} IOPS (firmware-bound)");
    for qid in 0..4 {
        while host.dev.queue(qid).poll().is_some() {}
    }

    // 3. A raw NDP command pair: gather rows 0 and 1 of the "table" we
    //    wrote at block 0 onto one result vector.
    println!("\n--- raw NDP SLS command pair ---");
    host.submit(0, {
        let mut p = vec![0u8; 16 * 1024];
        p[..4].copy_from_slice(&2.0f32.to_le_bytes());
        NvmeCommand::write(3, 0, 1, p)
    });
    host.drain();
    host.dev.queue(0).poll();
    let config = SlsConfig {
        dim: 1,
        quant: Quantization::F32,
        rows_per_page: 1,
        n_results: 1,
        pairs: vec![(0, 0), (5, 0)], // row at block 0 plus the row at block 5
    };
    let slba = NvmeCommand::ndp_slba(0, 9, 1 << 10);
    host.submit(0, NvmeCommand::ndp_write(4, slba, config.encode()));
    host.drain();
    let done = host.dev.queue(0).poll().expect("config accepted");
    println!("config-write completed: {}", done.status);
    host.submit(0, NvmeCommand::ndp_read(5, slba, 1));
    host.drain();
    let result = host.dev.queue(0).poll().expect("results ready");
    let bytes = result.data.expect("result block").to_vec();
    let sum = f32::from_le_bytes(bytes[..4].try_into().unwrap());
    println!("device-accumulated sum of rows 0 and 5: {sum} (expect 3.5)");
    assert_eq!(sum, 3.5);
}
