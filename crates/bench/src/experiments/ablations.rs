//! Ablations of RecSSD's design choices, beyond the paper's figures.
//!
//! Each ablation grounds one claim the paper makes in prose:
//!
//! * **Embedded-CPU speed** — §6.1: "we expect that with faster SSD
//!   microprocessors or custom logic, the Translation time could be
//!   significantly reduced."
//! * **SSD embedding-cache capacity** — §4.2's direct-mapped cache: how
//!   many slots does the device DRAM need before hit rates saturate?
//! * **Baseline I/O window** — the difference between the paper's naive
//!   (Fig. 9) and optimised (Fig. 10) baselines is outstanding-command
//!   depth; this sweep shows where the firmware ceiling bites.
//! * **Operator pipelining** — §4.2's threadpool: how much of the NDP
//!   latency can overlap with neural-network compute.

use recssd::{OpKind, RecSsdConfig, SlsOptions, SlsPath, System};
use recssd_embedding::{PageLayout, Quantization};
use recssd_models::{BatchGen, ModelConfig, ModelInstance};
use recssd_sim::rng::Xoshiro256;
use recssd_sim::SimDuration;
use recssd_trace::{LocalityK, LocalityTrace};

use crate::experiments::{add_table, cosmos_system, ms, pct, uniform_batch, x};
use crate::{Scale, Series};

const ROWS: u64 = 1_000_000;

/// Sweep the embedded CPU's translation throughput: a faster in-SSD
/// processor turns the Translation-bound region into pure flash-bound.
pub fn run_arm_speed(scale: Scale) -> Series {
    let _ = scale;
    let mut series = Series::new(
        "Ablation: SSD microprocessor speed vs NDP SLS latency (STR, batch 64)",
        &[
            "cpu_speed",
            "translation_us",
            "total_us",
            "speedup_vs_baseline",
        ],
    );
    // Baseline reference, measured once.
    let mut rng = Xoshiro256::seed_from(9);
    let batch = uniform_batch(&mut rng, ROWS, 64, 80);
    let t_base = {
        let mut sys = cosmos_system(0);
        let table = add_table(&mut sys, ROWS, 32, Quantization::F32, PageLayout::Spread, 4);
        let op = sys.submit(OpKind::baseline_sls(
            table,
            batch.clone(),
            SlsOptions {
                io_concurrency: 32,
                ..SlsOptions::default()
            },
        ));
        sys.run_until_idle();
        sys.result(op).service_time()
    };
    for (label, mult) in [
        ("0.25x", 0.25),
        ("0.5x", 0.5),
        ("1x (A9)", 1.0),
        ("2x", 2.0),
        ("4x", 4.0),
    ] {
        let mut cfg = RecSsdConfig::cosmos();
        cfg.ndp.translate_fixed_ns = (cfg.ndp.translate_fixed_ns as f64 / mult) as u64;
        cfg.ndp.translate_per_byte_ns /= mult;
        cfg.ndp.config_process_per_pair_ns =
            (cfg.ndp.config_process_per_pair_ns as f64 / mult) as u64;
        let mut sys = System::new(cfg);
        let table = add_table(&mut sys, ROWS, 32, Quantization::F32, PageLayout::Spread, 4);
        let op = sys.submit(OpKind::ndp_sls(table, batch.clone(), SlsOptions::default()));
        sys.run_until_idle();
        let total = sys.result(op).service_time();
        let report = sys.device().engine().stats().mean_report();
        series.push(vec![
            label.into(),
            format!("{:.0}", report.translation.as_us_f64()),
            format!("{:.0}", total.as_us_f64()),
            x(t_base.as_ns() as f64 / total.as_ns() as f64),
        ]);
    }
    series
}

/// Sweep the SSD-side direct-mapped embedding cache capacity.
pub fn run_ssd_cache_capacity(scale: Scale) -> Series {
    let mut series = Series::new(
        "Ablation: SSD embedding-cache slots vs hit rate and latency (RM3-like, K=0)",
        &["slots", "hit_rate", "sls_ms"],
    );
    for slots in [0usize, 1 << 12, 1 << 15, 1 << 18, 1 << 21] {
        let mut sys = cosmos_system(slots);
        let table = add_table(
            &mut sys,
            scale.model_rows,
            32,
            Quantization::F32,
            PageLayout::Spread,
            6,
        );
        let mut trace = LocalityTrace::with_k(scale.model_rows, LocalityK::K0, 60);
        let make = |t: &mut LocalityTrace| {
            recssd_embedding::LookupBatch::new(
                (0..16)
                    .map(|_| (0..20).map(|_| t.next_id()).collect())
                    .collect(),
            )
        };
        // Warm, then measure.
        for _ in 0..10 {
            let op = sys.submit(OpKind::ndp_sls(
                table,
                make(&mut trace),
                SlsOptions::default(),
            ));
            sys.run_until_idle();
            let _ = sys.result(op);
        }
        sys.reset_stats();
        let mut total = SimDuration::ZERO;
        for _ in 0..4 {
            let op = sys.submit(OpKind::ndp_sls(
                table,
                make(&mut trace),
                SlsOptions::default(),
            ));
            sys.run_until_idle();
            total += sys.result(op).service_time();
        }
        let stats = sys.device().engine().stats();
        series.push(vec![
            slots.to_string(),
            pct(stats.embed_cache.hit_rate()),
            ms(total / 4),
        ]);
    }
    series
}

/// Sweep the baseline's outstanding-read window: shallow windows are
/// latency-bound, deep windows hit the firmware's command-processing
/// ceiling — the gap between the paper's naive and optimised baselines.
pub fn run_io_concurrency(_scale: Scale) -> Series {
    let mut series = Series::new(
        "Ablation: baseline SSD outstanding reads vs SLS latency (STR, batch 32)",
        &["io_concurrency", "sls_ms", "per_page_us"],
    );
    let mut sys = cosmos_system(0);
    let table = add_table(&mut sys, ROWS, 32, Quantization::F32, PageLayout::Spread, 7);
    let mut rng = Xoshiro256::seed_from(70);
    for conc in [1usize, 2, 4, 8, 16, 32] {
        let batch = uniform_batch(&mut rng, ROWS, 32, 80);
        let pages = batch.distinct_rows().len();
        sys.device_mut().ftl_mut().drop_caches();
        let op = sys.submit(OpKind::baseline_sls(
            table,
            batch,
            SlsOptions {
                io_concurrency: conc,
                ..SlsOptions::default()
            },
        ));
        sys.run_until_idle();
        let t = sys.result(op).service_time();
        series.push(vec![
            conc.to_string(),
            ms(t),
            format!("{:.1}", t.as_us_f64() / pages as f64),
        ]);
    }
    series
}

/// Compare sequential batches against pipelined serving for an
/// MLP-heavy model: the §4.2 threadpool hides NDP I/O under compute.
pub fn run_pipelining(scale: Scale) -> Series {
    let mut series = Series::new(
        "Ablation: operator pipelining (WND, NDP embeddings, 6 batches)",
        &["mode", "makespan_ms", "per_batch_ms"],
    );
    let cfg = ModelConfig::wnd().scaled_tables(scale.model_rows);
    let mut sys = cosmos_system(0);
    let model = ModelInstance::build(&mut sys, cfg, PageLayout::Spread, 8);
    let path = SlsPath::Ndp(SlsOptions::default());
    let n = 6;
    // Sequential: run batches one at a time.
    let mut gen = BatchGen::uniform(80);
    let mut seq_total = SimDuration::ZERO;
    for _ in 0..n {
        seq_total += model.run_inference(&mut sys, 32, path, &mut gen).latency;
    }
    series.push(vec![
        "sequential".into(),
        ms(seq_total),
        ms(seq_total / n as u64),
    ]);
    // Pipelined: submit all, let the pools overlap.
    let (makespan, mean) = model.run_pipelined(&mut sys, 32, n, path, &mut gen);
    series.push(vec!["pipelined".into(), ms(makespan), ms(mean)]);
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            model_rows: 50_000,
            warmup: 0,
            reps: 1,
            trace_len: 1000,
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn faster_arm_reduces_translation_and_total() {
        let s = run_arm_speed(tiny());
        let total = |label: &str| -> f64 {
            s.rows.iter().find(|r| r[0] == label).unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(total("4x") <= total("1x (A9)"));
        assert!(total("1x (A9)") < total("0.25x"));
        // A 4x faster CPU cannot beat the flash-bound floor by much more
        // than the translation share it removed.
        let sp4: f64 = s.rows.iter().find(|r| r[0] == "4x").unwrap()[3]
            .parse()
            .unwrap();
        let sp1: f64 = s.rows.iter().find(|r| r[0] == "1x (A9)").unwrap()[3]
            .parse()
            .unwrap();
        assert!(sp4 >= sp1, "faster CPU never hurts");
        assert!(sp4 <= sp1 * 2.5, "flash-bound floor caps the gain");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn cache_capacity_saturates() {
        let s = run_ssd_cache_capacity(tiny());
        let rows = &s.rows;
        let get = |slots: &str| -> (f64, f64) {
            let r = rows.iter().find(|r| r[0] == slots).expect("row");
            (
                r[1].trim_end_matches('%').parse().unwrap(),
                r[2].parse().unwrap(),
            )
        };
        let (h0, t0) = get("0");
        let (h_small, _) = get("4096");
        let (h_big, t_big) = get(&(1usize << 21).to_string());
        assert_eq!(h0, 0.0, "no cache, no hits");
        assert!(h_big >= h_small, "capacity monotone");
        assert!(t_big <= t0, "cache never slows the device");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn shallow_windows_are_latency_bound() {
        let s = run_io_concurrency(tiny());
        let per_page = |conc: &str| -> f64 {
            s.rows.iter().find(|r| r[0] == conc).unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(
            per_page("1") > per_page("32") * 2.0,
            "depth-1 pays full round trips: {} vs {}",
            per_page("1"),
            per_page("32")
        );
        // Beyond the firmware ceiling, extra depth stops helping.
        assert!(per_page("16") <= per_page("2"));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn pipelining_beats_sequential() {
        let s = run_pipelining(tiny());
        let seq: f64 = s.rows[0][1].parse().unwrap();
        let pipe: f64 = s.rows[1][1].parse().unwrap();
        assert!(pipe < seq, "pipelined makespan {pipe} < sequential {seq}");
    }
}
