//! Figure 9: naive NDP speedup over the baseline SSD, per model.
//!
//! Paper (§6.2): "the simplest naive experimental configuration ...
//! without operator pipelining and caching techniques, and using randomly
//! generated input indices. We observe that many models exist where NDP
//! provides no observable benefits, and for models where performance is
//! limited by embedding operations and SSD latencies, NDP can provide
//! substantial assistance with up to 7× speedup."

use recssd::{SlsOptions, SlsPath};
use recssd_embedding::PageLayout;
use recssd_models::{BatchGen, ModelConfig, ModelInstance};

use crate::experiments::{cosmos_system, ms, x};
use crate::{Scale, Series};

/// Runs the experiment at batch 64 with random indices and the naive
/// (shallow-window, no caching, no pipelining) configuration.
pub fn run(scale: Scale) -> Series {
    let mut series = Series::new(
        "Figure 9: naive NDP speedup over baseline SSD (batch 64, random indices)",
        &["model", "baseline_ms", "ndp_ms", "speedup"],
    );
    let batch = 64;
    for cfg in ModelConfig::zoo() {
        let cfg = cfg.scaled_tables(scale.model_rows);
        let name = cfg.name;
        let mut sys = cosmos_system(0);
        let model = ModelInstance::build(&mut sys, cfg, PageLayout::Spread, 99);
        let mut gen = BatchGen::uniform(990);
        let naive = SlsOptions::naive();
        let mut t_base = recssd_sim::SimDuration::ZERO;
        for _ in 0..scale.reps {
            t_base += model
                .run_inference(&mut sys, batch, SlsPath::Baseline(naive), &mut gen)
                .latency;
        }
        let t_base = t_base / scale.reps as u64;
        sys.device_mut().ftl_mut().drop_caches();
        let mut t_ndp = recssd_sim::SimDuration::ZERO;
        for _ in 0..scale.reps {
            t_ndp += model
                .run_inference(&mut sys, batch, SlsPath::Ndp(naive), &mut gen)
                .latency;
        }
        let t_ndp = t_ndp / scale.reps as u64;
        series.push(vec![
            name.to_string(),
            ms(t_base),
            ms(t_ndp),
            x(t_base.as_ns() as f64 / t_ndp.as_ns() as f64),
        ]);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn embedding_models_speed_up_and_mlp_models_do_not() {
        let s = run(Scale::quick());
        let speedup = |name: &str| -> f64 {
            s.rows.iter().find(|r| r[0] == name).expect("model present")[3]
                .parse()
                .unwrap()
        };
        for m in ["DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3"] {
            let sp = speedup(m);
            assert!(
                (2.0..10.0).contains(&sp),
                "{m}: naive NDP speedup should be substantial (paper: up to 7x): {sp:.2}"
            );
        }
        for m in ["WND", "MTWND", "DIN", "NCF"] {
            let sp = speedup(m);
            assert!(
                (0.8..1.6).contains(&sp),
                "{m}: MLP-dominated models see little benefit: {sp:.2}"
            );
        }
    }
}
