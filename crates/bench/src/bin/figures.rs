//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures all            # everything (paper order)
//! figures fig8 fig9      # a selection
//! figures --csv fig5     # CSV instead of aligned tables
//! RECSSD_PAPER_SCALE=1 figures all   # paper-scale parameters
//! ```

#![forbid(unsafe_code)]

use recssd_bench::experiments as ex;
use recssd_bench::experiments::fig10_caching::Variant;
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
        let series: Vec<Series> = match pick {
            "table1" => vec![ex::table1_params::run()],
            "fig3" => vec![ex::fig03_reuse_cdf::run(scale)],
            "fig4" => vec![ex::fig04_page_cache::run(scale)],
            "fig5" => vec![ex::fig05_sls_dram_vs_ssd::run(scale)],
            "fig6" => vec![ex::fig06_e2e_dram_vs_ssd::run(scale)],
            "fig8" => vec![ex::fig08_sls_breakdown::run(scale)],
            "fig9" => vec![ex::fig09_naive_ndp::run(scale)],
            "fig10ac" => vec![ex::fig10_caching::run(scale, Variant::SsdCache)],
            "fig10df" => vec![ex::fig10_caching::run(scale, Variant::Partitioned)],
            "fig11a" => vec![ex::fig11_sensitivity::run_feature_quant(scale)],
            "fig11b" => vec![ex::fig11_sensitivity::run_indices_tables(scale)],
            "ablations" => vec![
                ex::ablations::run_arm_speed(scale),
                ex::ablations::run_ssd_cache_capacity(scale),
                ex::ablations::run_io_concurrency(scale),
                ex::ablations::run_pipelining(scale),
            ],
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        };
        print!("{}", render(&series, csv));
    }
}

/// Renders every series of one pick: a `# title` line and CSV block each
/// under `--csv`, aligned tables otherwise.
fn render(series: &[Series], csv: bool) -> String {
    series
        .iter()
        .map(|s| {
            if csv {
                format!("# {}\n{}\n", s.title, s.to_csv())
            } else {
                format!("{}\n", s.to_table())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_renders_every_series_of_a_pick_as_csv() {
        let series: Vec<Series> = (0..4)
            .map(|i| {
                let mut s = Series::new(format!("S{i}"), &["a", "b"]);
                s.push(vec![i.to_string(), "x".into()]);
                s
            })
            .collect();
        let csv = render(&series, true);
        assert!(
            !csv.contains("=="),
            "an aligned table in CSV output:\n{csv}"
        );
        for i in 0..4 {
            assert!(csv.contains(&format!("# S{i}\na,b\n{i},x\n")), "{csv}");
        }
        let table = render(&series, false);
        assert_eq!(table.matches("== S").count(), 4, "{table}");
    }
}
