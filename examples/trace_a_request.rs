//! Trace one serving request end to end through the whole simulated
//! stack: host admission → per-shard sub-batches → NVMe device ops →
//! firmware execution → flash reads → merge — all as causally-linked
//! spans on the *virtual* timeline.
//!
//! The run enables sim-time tracing and wall-clock self-profiling on a
//! two-shard runtime, pushes a handful of NDP requests through it,
//! validates the span invariants (parents resolve, children nest, the
//! direct children of each request span cover ≥ 99 % of its latency),
//! pretty-prints the span tree of the first request, and writes the
//! whole trace as Chrome-trace JSON — load it at `chrome://tracing` or
//! <https://ui.perfetto.dev> to scrub through the request visually.
//!
//! ```text
//! cargo run --release --example trace_a_request
//! ```

use recssd_suite::prelude::*;
use std::collections::BTreeMap;

fn main() {
    // A small two-shard serving fleet with micro-batching and operator
    // pipelining, tracing and self-profiling switched on *before* any
    // traffic so every span is captured.
    let cfg = ServingConfig::small_wide(2, SchedulePolicy::micro_batch(8)).with_depth(2);
    let mut rt = ServingRuntime::new(&cfg);
    rt.enable_tracing();
    rt.enable_self_profiling();

    let table = rt.add_table(EmbeddingTable::procedural(
        TableSpec::new(2048, 16, Quantization::F32),
        42,
    ));

    // Six pooled-lookup requests on the NDP path, 1 µs apart.
    let mut rng = recssd_sim::rng::Xoshiro256::seed_from(7);
    for i in 0..6u64 {
        let batch = LookupBatch::new(
            (0..4)
                .map(|_| (0..8).map(|_| rng.gen_range(0..2048)).collect())
                .collect(),
        );
        rt.submit_at(
            SimTime::from_us(i),
            i,
            table,
            batch,
            SlsPath::Ndp(SlsOptions::default()),
        );
    }
    let done = rt.run_until_idle();
    println!("served {} requests on the NDP path\n", done.len());

    // Drain the trace and check its invariants before trusting it.
    let spans = rt.take_trace();
    let check = validate_spans(&spans).expect("span invariants hold");
    println!(
        "trace: {} spans, {} request spans, min e2e coverage {:.1}%\n",
        check.spans,
        check.requests,
        check.min_coverage * 100.0
    );

    // Pretty-print the causal tree of the first request.
    let root = spans
        .iter()
        .filter(|s| s.name == "request")
        .min_by_key(|s| s.start_ns)
        .expect("at least one request span");
    let mut children: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for s in &spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|s| (s.start_ns, s.id));
    }
    println!("span tree of request #{} (times in virtual ns):", root.id);
    print_tree(root, &children, 0);

    // Extracted critical path of the same request: every nanosecond of
    // its e2e latency shared among its own open windows, or charged to
    // the wait it sat in.
    let profiles = request_critical_paths(&spans);
    let prof = profiles
        .iter()
        .find(|p| p.request == root.id)
        .expect("profile for the printed request");
    println!(
        "\ncritical path of request #{} ({} ns e2e, {:.1}% attributed):",
        prof.request,
        prof.e2e_ns,
        prof.conservation() * 100.0
    );
    for (phase, ns) in prof.segments() {
        println!(
            "  {:<14} {:>7} ns  {:>5.1}% of e2e",
            phase.name(),
            ns,
            ns as f64 * 100.0 / prof.e2e_ns as f64
        );
    }

    // Per-path latency attribution and the simulator's own wall profile
    // come from the same run — no second pass needed.
    println!("\nlatency attribution:");
    for a in rt.stats().attribution() {
        println!(
            "  {:<9} {:>3} requests  e2e p50 {:>7} ns  p99 {:>7} ns",
            a.path, a.requests, a.e2e.p50, a.e2e.p99
        );
    }
    println!("\nsimulator wall-clock profile:");
    for p in rt.wall_profile() {
        println!(
            "  {:<15} {:>8.2} ms over {} sections",
            p.phase,
            p.nanos as f64 / 1e6,
            p.count
        );
    }

    // Export for chrome://tracing or ui.perfetto.dev.
    let out = "trace_a_request.json";
    std::fs::write(out, chrome_trace_json(&spans)).expect("write trace");
    println!("\nwrote {out} — open it at https://ui.perfetto.dev");
}

fn print_tree(span: &SpanRec, children: &BTreeMap<u64, Vec<&SpanRec>>, depth: usize) {
    let dur = span.end_ns - span.start_ns;
    let mut note = String::new();
    if !span.label.is_empty() {
        note.push_str(&format!("  path={}", span.label));
    }
    if !span.arg_key.is_empty() {
        note.push_str(&format!("  {}={}", span.arg_key, span.arg_val));
    }
    println!(
        "{:indent$}{:<10} [{:>7} .. {:>7}]  {:>6} ns  (track pid={} tid={}){}",
        "",
        span.name,
        span.start_ns,
        span.end_ns,
        dur,
        span.pid,
        span.tid,
        note,
        indent = depth * 2
    );
    for kid in children.get(&span.id).into_iter().flatten() {
        print_tree(kid, children, depth + 1);
    }
}
