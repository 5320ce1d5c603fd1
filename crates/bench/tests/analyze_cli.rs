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

use std::process::{Command, Output};

use recssd_serving::{bottleneck_report, chrome_trace_json, ServingRuntime, SpanRec};

#[path = "../../serving/tests/quick_scale/mod.rs"]
mod quick_scale;

/// Writes `text` to a temporary file and runs `recssd-analyze` on it.
fn analyze(text: &str, name: &str, args: &[&str]) -> Output {
    let trace = std::env::temp_dir().join(format!("recssd-{}-{name}.json", std::process::id()));
    std::fs::write(&trace, text).expect("write the trace");
    let out = Command::new(env!("CARGO_BIN_EXE_recssd-analyze"))
        .arg(&trace)
        .args(args)
        .output()
        .expect("run recssd-analyze");
    let _ = std::fs::remove_file(&trace);
    out
}

/// Exports `rt`'s trace, runs `recssd-analyze` on it and checks its
/// bottleneck report against the live one; returns the top row.
fn offline_matches_live(mut rt: ServingRuntime, name: &str) -> String {
    let (busiest, _) = quick_scale::busiest_member(&mut rt);
    let live = bottleneck_report(&rt.snapshot_trace()).render();
    let out = analyze(&chrome_trace_json(&rt.take_trace()), name, &[]);
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
    let rt = quick_scale::baseline_run(true, 4, true);
    let top = offline_matches_live(rt, "baseline");
    assert!(top.starts_with("fw:core["), "got {top}");
}

#[test]
fn offline_verdict_matches_live_on_eight_engine_ndp() {
    let rt = quick_scale::wide_ndp_run(1, 8, 4, true);
    let top = offline_matches_live(rt, "ndp");
    assert!(top.starts_with("flash["), "got {top}");
}

/// Hostile input is a typed error — exit status 2 and a message — in
/// every build, never a panic or a crash: a timestamp past `u64`
/// nanoseconds (an overflow panic in debug builds once), 200 000 nested
/// arrays (a stack overflow once), and a valid trace so sparse that the
/// default window would need 10^8 timeline windows per resource.
#[test]
fn hostile_traces_exit_with_a_typed_error() {
    let span = |id, parent, name, pid, end_ns| SpanRec {
        id,
        parent,
        name,
        start_ns: 0,
        end_ns,
        pid,
        tid: 0,
        arg_key: "",
        arg_val: 0,
        label: "",
    };
    let sparse = chrome_trace_json(&[
        span(1, 0, "request", 0, 10_000_000_000_000),
        span(2, 1, "sub", 0, 10_000_000_000_000),
        span(3, 0, "fw:exec", 1, 1_000),
    ]);
    let depth = 200_000;
    for (name, text, error) in [
        (
            "overflow",
            "{\"traceEvents\":[{\"name\":\"op\",\"ph\":\"X\",\"ts\":100000000000000000.5,\
             \"dur\":1.000,\"args\":{\"span\":1,\"parent\":0}}]}"
                .to_string(),
            "overflows u64",
        ),
        (
            "deep",
            format!("{{\"x\":{}{}}}", "[".repeat(depth), "]".repeat(depth)),
            "nested over",
        ),
        ("sparse", sparse.clone(), "pass a --window-ns"),
    ] {
        let out = analyze(&text, name, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(error), "{name}: {stderr}");
    }
    // A window wide enough for the sparse trace analyses it.
    let out = analyze(&sparse, "sparse-wide", &["--window-ns", "1000000000000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
