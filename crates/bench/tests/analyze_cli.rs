//! The offline analyzer agrees with the live one. Two traced runs — the
//! heat-packed COTS baseline, whose wall is the serial firmware core, and
//! the NDP path with eight per-channel engines, whose wall is a flash
//! channel — are exported with `chrome_trace_json`, written to disk and
//! fed to the `recssd-analyze` binary. Its hand-rolled parser has to
//! rebuild the spans exactly — member arguments included — for
//! `validate_spans` to pass and for the printed bottleneck report to
//! equal, byte for byte, the report of the runtime that produced the
//! trace, whose top row is the device's busiest server by its own
//! counter.
//!
//! The scenarios are the ones `crates/serving/tests/observability.rs`
//! asserts the live verdicts on, shared by path so the two cannot drift.

use std::process::Command;

use recssd_serving::{chrome_trace_json, ServingRuntime};

#[path = "../../serving/tests/quick_scale/mod.rs"]
mod quick_scale;

/// Exports `rt`'s trace, runs `recssd-analyze` on it and checks its
/// bottleneck report against the live one; returns the top row.
fn offline_matches_live(mut rt: ServingRuntime, name: &str) -> String {
    let (busiest, _) = quick_scale::busiest_member(&mut rt);
    let live = rt.bottleneck_report().render();
    let trace = std::env::temp_dir().join(format!("recssd-{}-{name}.json", std::process::id()));
    std::fs::write(&trace, chrome_trace_json(&rt.take_trace())).expect("write the trace");
    let out = Command::new(env!("CARGO_BIN_EXE_recssd-analyze"))
        .arg(&trace)
        .output()
        .expect("run recssd-analyze");
    let _ = std::fs::remove_file(&trace);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "recssd-analyze failed on {name}:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("invariants OK"), "{name}: {stdout}");
    let at = stdout
        .find("bottleneck ranking over")
        .unwrap_or_else(|| panic!("{name}: no bottleneck report:\n{stdout}"));
    assert_eq!(
        stdout[at..].strip_suffix('\n'),
        Some(live.as_str()),
        "{name}"
    );
    assert!(
        live.ends_with(&format!("top_bottleneck: {busiest}\n")),
        "{name}: top row is not the busiest member {busiest}:\n{live}"
    );
    busiest
}

#[test]
fn offline_verdict_matches_live_on_the_heat_packed_baseline() {
    let (rt, _) = quick_scale::baseline_run(true, 4, true);
    let top = offline_matches_live(rt, "baseline");
    assert!(top.starts_with("fw:core["), "got {top}");
}

#[test]
fn offline_verdict_matches_live_on_eight_engine_ndp() {
    let (rt, _) = quick_scale::wide_ndp_run(1, 8, 4, true);
    let top = offline_matches_live(rt, "ndp");
    assert!(top.starts_with("flash["), "got {top}");
}
