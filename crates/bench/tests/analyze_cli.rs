//! The offline analyzer agrees with the live one. Two traced runs — the
//! heat-packed COTS baseline, whose wall is the serial firmware core, and
//! the NDP path with eight per-channel engines, whose wall is flash — are
//! exported with `chrome_trace_json`, written to disk and fed to the
//! `recssd-analyze` binary. Its hand-rolled parser has to rebuild the
//! spans exactly for `validate_spans` to pass and for the printed
//! `top_bottleneck:` to equal the verdict of the runtime that produced
//! the trace.
//!
//! The scenarios are the ones `crates/serving/tests/observability.rs`
//! asserts the live verdicts on, shared by path so the two cannot drift.

use std::process::Command;

use recssd_serving::{chrome_trace_json, ServingRuntime};

#[path = "../../serving/tests/quick_scale/mod.rs"]
mod quick_scale;

/// Exports `rt`'s trace, runs `recssd-analyze` on it and returns the
/// live verdict beside the offline one.
fn verdicts(mut rt: ServingRuntime, name: &str) -> (String, String) {
    let live = rt.bottleneck_report().top().unwrap_or("").to_string();
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
    let offline = stdout
        .lines()
        .find_map(|l| l.strip_prefix("top_bottleneck: "))
        .unwrap_or_else(|| panic!("{name}: no `top_bottleneck:` line:\n{stdout}"));
    (live, offline.to_string())
}

#[test]
fn offline_verdict_matches_live_on_the_heat_packed_baseline() {
    let (rt, _) = quick_scale::baseline_run(true, 4, true);
    let (live, offline) = verdicts(rt, "baseline");
    assert_eq!(offline, live);
    assert!(offline.starts_with("fw:core"), "got {offline}");
}

#[test]
fn offline_verdict_matches_live_on_eight_engine_ndp() {
    let (rt, _) = quick_scale::wide_ndp_run(1, 8, 4, true);
    let (live, offline) = verdicts(rt, "ndp");
    assert_eq!(offline, live);
    assert!(offline.starts_with("flash"), "got {offline}");
}
