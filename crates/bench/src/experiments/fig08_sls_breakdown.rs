//! Figure 8: standalone SLS operator performance with the FTL-internal
//! breakdown, for sequential and strided patterns, baseline vs. NDP.
//!
//! Paper (§6.1): execution time categorised as Config Write, Config
//! Process, Translation and Flash Read; "Under the Random memory lookup
//! access pattern, RecSSD achieves up to a 4× performance improvement
//! over baseline SSD ... roughly half the time in the RecSSD's FTL is
//! spent on Translation ... Sequential access patterns with high spatial
//! locality result in poor NDP performance."

use recssd::{OpKind, SlsOptions, SlsPath};
use recssd_embedding::{LookupBatch, PageLayout, Quantization};
use recssd_trace::patterns::{sequential_ids, strided_ids};

use crate::experiments::{add_table, cosmos_system, us};
use crate::{Scale, Series};

const LOOKUPS: usize = 80;
const ROWS: u64 = 1_000_000;

/// Runs the experiment.
pub fn run(scale: Scale) -> Series {
    let mut series = Series::new(
        "Figure 8: SLS latency breakdown (dense layout, 1M x 32 table, 80 lookups)",
        &[
            "pattern",
            "batch",
            "mode",
            "config_write_us",
            "config_process_us",
            "translation_us",
            "flash_read_us",
            "total_us",
        ],
    );
    let batches: &[usize] = if scale.reps >= 5 {
        &[16, 64, 256]
    } else {
        &[16, 64]
    };
    for pattern in ["SEQ", "STR"] {
        for &batch in batches {
            let mut sys = cosmos_system(0);
            let table = add_table(&mut sys, ROWS, 32, Quantization::F32, PageLayout::Dense, 8);
            // 128 dense rows per 16 KB page; stride 128 puts every id on
            // its own flash page (the paper's STR definition).
            let make_batch = |start: u64| -> LookupBatch {
                let n = batch * LOOKUPS;
                let ids = match pattern {
                    "SEQ" => sequential_ids(start, n, ROWS),
                    _ => strided_ids(start, 128, n, ROWS),
                };
                LookupBatch::new(ids.chunks(LOOKUPS).map(|c| c.to_vec()).collect())
            };
            // Baseline, one read command per page as the paper's issues
            // them: stride 128 puts the ids on *consecutive* pages, which
            // the coalescing I/O planner would merge into a few long
            // reads and erase the STR penalty the figure is about.
            let path = SlsPath::Baseline(SlsOptions {
                io_concurrency: 32,
                coalesce_reads: false,
                ..SlsOptions::default()
            });
            let b = sys.submit(OpKind::Sls {
                table,
                batch: make_batch(0),
                path,
            });
            sys.run_until_idle();
            let t_base = sys.result(b).service_time();
            series.push(vec![
                pattern.into(),
                batch.to_string(),
                path.name().into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                us(t_base),
            ]);
            // NDP, cold device.
            sys.device_mut().ftl_mut().drop_caches();
            sys.reset_stats();
            let path = SlsPath::Ndp(SlsOptions::default());
            let n = sys.submit(OpKind::Sls {
                table,
                batch: make_batch(0),
                path,
            });
            sys.run_until_idle();
            let _ = sys.result(n);
            let report = sys.device().engine().stats().mean_report();
            series.push(vec![
                pattern.into(),
                batch.to_string(),
                path.name().into(),
                us(report.config_write),
                us(report.config_process),
                us(report.translation),
                us(report.flash_read),
                us(report.total),
            ]);
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &Series, pattern: &str, batch: &str, mode: &str, col: usize) -> f64 {
        s.rows
            .iter()
            .find(|r| r[0] == pattern && r[1] == batch && r[2] == mode)
            .expect("row exists")[col]
            .parse()
            .unwrap()
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn strided_ndp_wins_and_translation_is_half() {
        let s = run(Scale::quick());
        let base = val(&s, "STR", "64", "baseline", 7);
        let ndp = val(&s, "STR", "64", "ndp", 7);
        let speedup = base / ndp;
        assert!(
            (2.0..8.0).contains(&speedup),
            "STR speedup should be ~4x: {speedup:.2}"
        );
        // "roughly half the time ... spent on Translation".
        let translation = val(&s, "STR", "64", "ndp", 5);
        let frac = translation / ndp;
        assert!(
            (0.25..0.85).contains(&frac),
            "translation should be roughly half of NDP time: {frac:.2}"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn sequential_favours_the_baseline() {
        let s = run(Scale::quick());
        let base = val(&s, "SEQ", "64", "baseline", 7);
        let ndp = val(&s, "SEQ", "64", "ndp", 7);
        assert!(
            ndp >= base * 0.8,
            "SEQ should not favour NDP: base {base} vs ndp {ndp}"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn components_sum_below_total() {
        let s = run(Scale::quick());
        for row in s.rows.iter().filter(|r| r[2] == "ndp") {
            let total: f64 = row[7].parse().unwrap();
            let cw: f64 = row[3].parse().unwrap();
            let cp: f64 = row[4].parse().unwrap();
            assert!(cw + cp <= total * 1.01, "setup phases within total");
        }
    }
}
