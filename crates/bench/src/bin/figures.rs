//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures all            # everything (EXPERIMENTS.md order)
//! figures fig8 fig9      # a selection
//! figures --csv fig5     # CSV instead of aligned tables
//! RECSSD_PAPER_SCALE=1 figures all   # paper-scale parameters
//! ```

#![forbid(unsafe_code)]

use recssd_bench::experiments as ex;
use recssd_bench::{Scale, Series};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let picks: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let picks = if picks.is_empty() || picks.contains(&"all") {
        vec![
            "table1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig8",
            "fig9",
            "fig10ac",
            "fig10df",
            "fig11a",
            "fig11b",
            "ablations",
        ]
    } else {
        picks
    };
    let scale = Scale::from_env();
    eprintln!(
        "running {:?} at {} scale",
        picks,
        if scale.model_rows >= 1_000_000 {
            "paper"
        } else {
            "quick"
        }
    );
    for pick in picks {
        let series: Series = match pick {
            "table1" => ex::table1_params::run(),
            "fig3" => ex::fig03_reuse_cdf::run(scale),
            "fig4" => ex::fig04_page_cache::run(scale),
            "fig5" => ex::fig05_sls_dram_vs_ssd::run(scale),
            "fig6" => ex::fig06_e2e_dram_vs_ssd::run(scale),
            "fig8" => ex::fig08_sls_breakdown::run(scale),
            "fig9" => ex::fig09_naive_ndp::run(scale),
            "fig10ac" => ex::fig10_caching::run(scale, ex::fig10_caching::Variant::SsdCache),
            "fig10df" => ex::fig10_caching::run(scale, ex::fig10_caching::Variant::Partitioned),
            "fig11a" => ex::fig11_sensitivity::run_feature_quant(scale),
            "fig11b" => ex::fig11_sensitivity::run_indices_tables(scale),
            "ablations" => {
                ex::ablations::run_arm_speed(scale).print();
                ex::ablations::run_ssd_cache_capacity(scale).print();
                ex::ablations::run_io_concurrency(scale).print();
                ex::ablations::run_pipelining(scale)
            }
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        };
        if csv {
            println!("# {}", series.title);
            print!("{}", series.to_csv());
            println!();
        } else {
            series.print();
        }
    }
}
