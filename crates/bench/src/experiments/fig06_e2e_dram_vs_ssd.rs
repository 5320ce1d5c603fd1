//! Figure 6: end-to-end model latency with embeddings in DRAM vs. SSD.
//!
//! Paper (§3.3): "The execution time for MLP-dominated models remains
//! largely unaffected between the two memory systems ... WND, MTWND,
//! DIEN, and NCF increases the model latency by 1.01×, 1.01×, 1.09×, and
//! 1.01× ... the execution time of embedding-dominated models, such as
//! DLRM-RMC1, DLRM-RMC2, DLRM-RMC3, degrades by several orders of
//! magnitude."
//!
//! The MLP-dominated models' one-hot features carry extreme popularity
//! skew in production, which the host OS page cache absorbs; we model
//! that with a high-reuse trace plus the host-side vector cache. The
//! embedding-dominated models use the paper's random indices.

use recssd::{SlsOptions, SlsPath};
use recssd_embedding::PageLayout;
use recssd_models::{BatchGen, ModelClass, ModelConfig, ModelInstance};
use recssd_trace::LocalityTrace;

use crate::experiments::{cosmos_system, ms, x};
use crate::{Scale, Series};

/// Runs the experiment at batch 64 (the paper's Fig. 6 batch size).
pub fn run(scale: Scale) -> Series {
    let mut series = Series::new(
        "Figure 6: end-to-end latency, embeddings in DRAM vs SSD (batch 64)",
        &["model", "class", "dram_ms", "ssd_ms", "slowdown"],
    );
    let batch = 64;
    for cfg in ModelConfig::zoo() {
        let cfg = cfg.scaled_tables(scale.model_rows);
        let mut sys = cosmos_system(0);
        let class = cfg.class;
        let tables = cfg.tables;
        let rows = cfg.rows_per_table;
        let name = cfg.name;
        let model = ModelInstance::build(&mut sys, cfg, PageLayout::Spread, 66);
        let mut gen = make_gen(class, rows, tables);
        let mut opts = SlsOptions {
            io_concurrency: 32,
            ..SlsOptions::default()
        };
        if class == ModelClass::MlpDominated {
            for &t in model.tables() {
                sys.enable_host_cache(t, 2048);
            }
            opts.use_host_cache = true;
        }
        // DRAM reference.
        let mut t_dram = recssd_sim::SimDuration::ZERO;
        for _ in 0..scale.reps {
            t_dram += model
                .run_inference(&mut sys, batch, SlsPath::Dram, &mut gen)
                .latency;
        }
        let t_dram = t_dram / scale.reps as u64;
        // SSD path (warm up caches first, as a long-running service would).
        let path = SlsPath::Baseline(opts);
        for _ in 0..scale.warmup {
            model.run_inference(&mut sys, batch, path, &mut gen);
        }
        let mut t_ssd = recssd_sim::SimDuration::ZERO;
        for _ in 0..scale.reps {
            t_ssd += model.run_inference(&mut sys, batch, path, &mut gen).latency;
        }
        let t_ssd = t_ssd / scale.reps as u64;
        series.push(vec![
            name.to_string(),
            format!("{class:?}"),
            ms(t_dram),
            ms(t_ssd),
            x(t_ssd.as_ns() as f64 / t_dram.as_ns() as f64),
        ]);
    }
    series
}

fn make_gen(class: ModelClass, rows: u64, tables: usize) -> BatchGen {
    match class {
        // One-hot production features: extreme reuse (~2% unique).
        ModelClass::MlpDominated => BatchGen::Locality {
            traces: (0..tables)
                .map(|t| LocalityTrace::new(rows, 0.02, 400.0, 660 + t as u64))
                .collect(),
        },
        // The paper's random indices for the embedding-dominated models.
        ModelClass::EmbeddingDominated => BatchGen::uniform(661),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn dichotomy_reproduces() {
        let s = run(Scale::quick());
        assert_eq!(s.rows.len(), 8);
        for row in &s.rows {
            let slowdown: f64 = row[4].parse().unwrap();
            if row[1].contains("Mlp") {
                assert!(
                    slowdown < 1.6,
                    "{}: MLP-dominated models must tolerate SSD, got {slowdown}x",
                    row[0]
                );
            } else {
                assert!(
                    slowdown > 20.0,
                    "{}: embedding-dominated models must collapse, got {slowdown}x",
                    row[0]
                );
            }
        }
    }
}
