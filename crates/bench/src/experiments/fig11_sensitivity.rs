//! Figure 11: sensitivity of the NDP benefit to model parameters.
//!
//! Paper (§6.4): "feature size and quantization, which affect the size of
//! embedding vectors relative to the page size, show decreasing relative
//! performance as this ratio grows ... although increasing table count
//! diminishes performance, this quickly becomes outscaled by increases in
//! performance from the increased indices per lookup."

use recssd::{SlsOptions, SlsPath};
use recssd_embedding::{PageLayout, Quantization};
use recssd_models::{BatchGen, ModelClass, ModelConfig, ModelInstance};

use crate::experiments::{cosmos_system, x};
use crate::{Scale, Series};

/// An RM3-like model with overridable embedding parameters (the paper's
/// sensitivity baseline).
fn rm3_like(
    rows: u64,
    dim: usize,
    quant: Quantization,
    tables: usize,
    lookups: usize,
) -> ModelConfig {
    ModelConfig {
        name: "RM3-like",
        class: ModelClass::EmbeddingDominated,
        tables,
        rows_per_table: rows,
        dim,
        lookups_per_table: lookups,
        quant,
        bottom_mlp: recssd_models::MlpSpec::new(vec![128, 64, 32]),
        top_mlp: recssd_models::MlpSpec::new(vec![32 + tables * dim, 128, 1]),
        extra_flops_per_sample: 0.0,
    }
}

fn speedup_of(cfg: ModelConfig, scale: Scale, seed: u64) -> f64 {
    let batch = 64;
    let mut sys = cosmos_system(0);
    let model = ModelInstance::build(&mut sys, cfg, PageLayout::Spread, seed);
    let mut gen = BatchGen::uniform(seed * 31);
    // The paper's COTS baseline issues one read per page (`coalesce_reads`
    // is a baseline-only knob; the NDP arm ignores it).
    let opts = SlsOptions {
        io_concurrency: 32,
        coalesce_reads: false,
        ..SlsOptions::default()
    };
    let mut t_base = recssd_sim::SimDuration::ZERO;
    for _ in 0..scale.reps {
        t_base += model
            .run_inference(&mut sys, batch, SlsPath::Baseline(opts), &mut gen)
            .latency;
    }
    sys.device_mut().ftl_mut().drop_caches();
    let mut t_ndp = recssd_sim::SimDuration::ZERO;
    for _ in 0..scale.reps {
        t_ndp += model
            .run_inference(&mut sys, batch, SlsPath::Ndp(opts), &mut gen)
            .latency;
    }
    t_base.as_ns() as f64 / t_ndp.as_ns() as f64
}

/// Figure 11a: feature size × quantization.
pub fn run_feature_quant(scale: Scale) -> Series {
    let mut series = Series::new(
        "Figure 11a: NDP speedup vs feature size and quantization (RM3-like)",
        &["feature_size", "quant", "vector_bytes", "speedup"],
    );
    // Sweep vector size up toward the 16 KB page so the ratio the paper
    // varies ("the size of embedding vectors relative to the page size")
    // actually grows; quantisation shifts where the decline begins.
    for dim in [64usize, 256, 1024, 2048] {
        for quant in [Quantization::Int8, Quantization::F16, Quantization::F32] {
            let cfg = rm3_like(scale.model_rows, dim, quant, 10, 20);
            let sp = speedup_of(cfg, scale, 111);
            series.push(vec![
                dim.to_string(),
                format!("{quant:?}"),
                quant.row_bytes(dim).to_string(),
                x(sp),
            ]);
        }
    }
    series
}

/// Figure 11b: indices per lookup × table count.
pub fn run_indices_tables(scale: Scale) -> Series {
    let mut series = Series::new(
        "Figure 11b: NDP speedup vs indices per lookup and table count (RM3-like)",
        &["indices", "tables", "speedup"],
    );
    for lookups in [20usize, 40, 80, 120] {
        for tables in [8usize, 16, 32] {
            let cfg = rm3_like(scale.model_rows, 32, Quantization::F32, tables, lookups);
            let sp = speedup_of(cfg, scale, 222);
            series.push(vec![lookups.to_string(), tables.to_string(), x(sp)]);
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            model_rows: 100_000,
            warmup: 0,
            reps: 1,
            trace_len: 1000,
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn bigger_vectors_reduce_relative_performance() {
        let s = run_feature_quant(tiny());
        let sp = |dim: &str, quant: &str| -> f64 {
            s.rows
                .iter()
                .find(|r| r[0] == dim && r[1] == quant)
                .expect("row")[3]
                .parse()
                .unwrap()
        };
        // Fig. 11a: relative performance decreases as vector bytes/page
        // grows (more Translation work per page on the weak SSD CPU).
        assert!(
            sp("64", "F32") > sp("2048", "F32") * 1.2,
            "dim 64 {} vs dim 2048 {}",
            sp("64", "F32"),
            sp("2048", "F32")
        );
        // Quantisation shrinks vectors and helps NDP at large dims.
        assert!(sp("2048", "Int8") > sp("2048", "F32"));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy: run with --release")]
    fn more_indices_amortise_and_beat_table_count_penalty() {
        let s = run_indices_tables(tiny());
        let sp = |idx: &str, tables: &str| -> f64 {
            s.rows
                .iter()
                .find(|r| r[0] == idx && r[1] == tables)
                .expect("row")[2]
                .parse()
                .unwrap()
        };
        // Fig. 11b: increasing indices per lookup improves the NDP win.
        assert!(
            sp("120", "8") >= sp("20", "8") * 0.95,
            "indices amortise: 20 -> {} vs 120 -> {}",
            sp("20", "8"),
            sp("120", "8")
        );
    }
}
