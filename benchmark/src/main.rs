//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! recssd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--reps <n>]
//! recssd-benchmark all [--seed <n>] [--seconds <s>] [--reps <n>] [--traced]
//! recssd-benchmark compare <a.json> <b.json>
//! recssd-benchmark manifest
//! ```

mod gen;
mod json;
mod ledger;
mod metrics;
mod probes;
mod serving;
mod stats;
mod zoo;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use json::{pretty, Json};
use ledger::Metrics;
use metrics::{Clock, END_TO_END, RUN_SECONDS, WORKLOADS};
use serving::{Pass, Serving};
use stats::quartiles;

/// Always installed: one relaxed add per allocation.
#[global_allocator]
static ALLOC: recssd_sim::alloc_count::CountingAllocator =
    recssd_sim::alloc_count::CountingAllocator;

const RESULTS_DIR: &str = "benchmark/results";

/// The four simulated end-to-end figures of a pass, in catalogue order:
/// lookups/s, p50 µs, p99 µs, max rate.
type SimFigures = [f64; 4];

/// What the orchestration needs from one pass over any workload.
struct PassOut {
    setup_s: f64,
    wall_s: f64,
    input_digest: u64,
    digest: u64,
    sim: SimFigures,
    attempted: u64,
    failed: u64,
    /// Lookups simulated inside the timed section.
    lookups: u64,
    layers: Metrics,
    trace_json: Option<String>,
    /// Request counts, per rate point where there are several.
    counts: Json,
    /// Reasons the workload no longer stresses what it was chosen for.
    unfit: Vec<String>,
}

fn serving_workload(name: &str) -> Option<Serving> {
    match name {
        "ndp-flashwall" => Some(serving::ndp_flashwall()),
        "baseline-hostpath" => Some(serving::baseline_hostpath()),
        "hybrid-tier-open" => Some(serving::hybrid_tier_open()),
        "drift-faults" => Some(serving::drift_faults()),
        _ => None,
    }
}

fn layer(layers: &Metrics, name: &str) -> f64 {
    layers
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Fails the run when a workload stops stressing what it was chosen for.
fn serving_fit(w: &Serving, r: &serving::ServingRun, traced: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{}: {what}", w.name));
        }
    };
    let l = |name: &str| layer(&r.layers, name);
    for p in &r.points {
        need(
            p.p99_supported,
            format!(
                "{} completions leave fewer than ten beyond the p99",
                p.completed
            ),
        );
    }
    match w.name {
        "ndp-flashwall" => {
            need(l("ssd.ndp_commands") > 0.0, "no NDP command".into());
            need(
                l("ssd.blocks_read_per_lookup") == 0.0,
                "conventional block reads on the NDP path".into(),
            );
            need(
                l("serving.shard_occupancy_max_over_mean") > 1.2,
                "the hot shard is gone".into(),
            );
            if traced {
                let top = serving::top_util(&r.layers);
                need(
                    matches!(
                        top,
                        "obs.util.fw_core_max" | "obs.util.fw_engine_max" | "obs.util.flash_max"
                    ),
                    format!("busiest resource is {top}, not a device resource"),
                );
            }
        }
        "baseline-hostpath" => {
            need(
                l("ssd.ndp_commands") == 0.0,
                "NDP commands on the COTS path".into(),
            );
        }
        "hybrid-tier-open" => {
            need(
                l("serving.tier_hit_rate") >= 0.8,
                "tier hit rate below 0.8".into(),
            );
            for p in &r.points {
                need(
                    p.max_lateness_ns == 0,
                    format!("generator ran late at {} rps", p.rate_rps),
                );
                if p.rate_rps <= 20_000 {
                    need(
                        !p.backlog_grows,
                        format!("backlog grows at {} rps", p.rate_rps),
                    );
                }
                if p.rate_rps >= 40_000 {
                    need(p.backlog_grows, format!("no backlog at {} rps", p.rate_rps));
                }
            }
        }
        "drift-faults" => {
            need(l("serving.retries") > 0.0, "no retry".into());
            need(l("serving.plan_refreshes") > 0.0, "no plan refresh".into());
            need(
                l("flash.fault.uncorrectable") > 0.0,
                "no uncorrectable fault".into(),
            );
        }
        _ => unreachable!("not a serving workload"),
    }
    bad
}

fn run_pass(workload: &str, seed: u64, pass: Pass, start: Option<Instant>) -> PassOut {
    if let Some(w) = serving_workload(workload) {
        let r = serving::run(&w, seed, pass, start);
        let unfit = serving_fit(&w, &r, pass == Pass::Traced);
        let point = |p: &serving::Point| {
            Json::obj([
                ("rate_rps", Json::Num(p.rate_rps as f64)),
                ("sent", Json::Num(p.sent as f64)),
                ("completed", Json::Num(p.completed as f64)),
                ("degraded", Json::Num(p.degraded as f64)),
                ("lost", Json::Num(p.lost() as f64)),
                ("p50_us", Json::Num(p.p50_us)),
                ("p99_us", Json::Num(p.p99_us)),
                ("backlog_grows", Json::Bool(p.backlog_grows)),
            ])
        };
        return PassOut {
            setup_s: r.setup_s,
            wall_s: r.wall_s,
            input_digest: r.input_digest,
            digest: r.digest,
            sim: [
                r.sim_lookups_per_s,
                r.sim_p50_us,
                r.sim_p99_us,
                r.sim_max_rate_rps,
            ],
            attempted: r.total(|p| p.sent),
            failed: r.total(|p| p.lost() + p.degraded),
            lookups: r.total(|p| p.lookups),
            counts: Json::Arr(r.points.iter().map(point).collect()),
            layers: r.layers,
            trace_json: r.trace_json,
            unfit,
        };
    }
    assert_eq!(workload, "model-zoo", "unknown workload");
    let r = zoo::run(seed, pass, start);
    let mut unfit = Vec::new();
    if r.models.len() != 8 {
        unfit.push(format!("model-zoo: {} models, not eight", r.models.len()));
    }
    for m in r.models.iter().filter(|m| m.mlp_dominated) {
        if !(0.8..=1.5).contains(&m.ndp_speedup) {
            unfit.push(format!(
                "model-zoo: MLP-dominated {} moved {:.2}x",
                m.key, m.ndp_speedup
            ));
        }
    }
    let model = |m: &zoo::ModelFigures| {
        Json::obj([
            ("model", Json::str(m.key.as_str())),
            ("dram_us", Json::Num(m.dram_us)),
            ("baseline_us", Json::Num(m.baseline_us)),
            ("recssd_us", Json::Num(m.recssd_us)),
            ("ndp_speedup", Json::Num(m.ndp_speedup)),
        ])
    };
    PassOut {
        setup_s: r.setup_s,
        wall_s: r.wall_s,
        input_digest: r.input_digest,
        digest: r.digest,
        sim: [
            r.sim_lookups_per_s,
            r.sim_p50_us,
            r.sim_p99_us,
            r.sim_max_rate_rps,
        ],
        // An inference whose operators do not all complete panics.
        attempted: r.inferences,
        failed: 0,
        lookups: r.lookups_all_modes,
        counts: Json::obj([
            ("inferences_per_mode", Json::Num(r.inferences as f64)),
            ("verified_ops", Json::Num(r.verified_ops as f64)),
            ("ndp_speedup_geomean", Json::Num(r.speedup_geomean)),
            ("paper_reference", Json::Num(zoo::PAPER_REFERENCE_SPEEDUP)),
            (
                "note",
                Json::str("the model is unvalidated against hardware; no error figure is given"),
            ),
            ("models", Json::Arr(r.models.iter().map(model).collect())),
        ]),
        layers: r.layers,
        trace_json: r.trace_json,
        unfit,
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn spread(values: &[f64]) -> Json {
    let (q1, q2, q3) = quartiles(values);
    Json::obj([
        ("q1", Json::Num(q1)),
        ("median", Json::Num(q2)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(values.len() as f64)),
        ("values", Json::nums(values)),
    ])
}

fn write_result(name: &str, contents: &str) {
    std::fs::create_dir_all(RESULTS_DIR).expect("create the results directory");
    let path = Path::new(RESULTS_DIR).join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// The last line of a run: the contract's result object.
fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let metrics = Json::obj(metrics.iter().map(|(name, v, unit)| {
        (
            name.as_str(),
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*unit))]),
        )
    }));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics),
        ])
    );
}

struct Opts {
    seed: u64,
    seconds: f64,
    /// Exactly this many repetitions instead of filling `seconds`.
    reps: Option<usize>,
}

/// The untraced run: repetitions for `seconds`, then the verified pass.
fn measure(workload: &str, o: &Opts, process_start: Instant) -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    let mut reps: Vec<PassOut> = Vec::new();
    let began = Instant::now();
    loop {
        let start = reps.is_empty().then_some(process_start);
        reps.push(run_pass(workload, o.seed, Pass::Timed, start));
        let enough = match o.reps {
            Some(n) => reps.len() >= n,
            None => reps.len() >= 3 && began.elapsed().as_secs_f64() >= o.seconds,
        };
        if enough {
            break;
        }
    }
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        if (r.digest, r.input_digest) != (first.digest, first.input_digest) || r.sim != first.sim {
            problems.push(format!("repetition {i} differs from repetition 0"));
        }
    }
    let verified = run_pass(workload, o.seed, Pass::Verified, None);
    if (verified.digest, verified.input_digest) != (first.digest, first.input_digest)
        || verified.sim != first.sim
    {
        problems.push("the verified pass does not reproduce the timed run".into());
    }
    problems.extend(first.unfit.iter().cloned());

    let attempted: u64 = reps.iter().chain([&verified]).map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().chain([&verified]).map(|r| r.failed).sum();
    let wall: Vec<f64> = reps.iter().map(|r| r.lookups as f64 / r.wall_s).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let values = [
        first.sim[0],
        first.sim[1],
        first.sim[2],
        first.sim[3],
        stats::median(&wall),
        stats::median(&setup),
        peak_rss_mb(),
        1.0 - failed as f64 / attempted as f64,
    ];
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), v, m.unit))
        .collect();
    let detail = vec![
        ("repetitions", Json::Num(reps.len() as f64)),
        ("input_digest", Json::hex(first.input_digest)),
        ("digest", Json::hex(first.digest)),
        // Per pass: the totals depend on how many repetitions fit.
        ("attempted_per_pass", Json::Num(first.attempted as f64)),
        ("failed_per_pass", Json::Num(first.failed as f64)),
        ("counts", first.counts.clone()),
        (
            "wall_s",
            spread(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        ),
        ("wall_lookups_per_s", spread(&wall)),
        ("setup_s", spread(&setup)),
        (
            "per_layer",
            Json::obj(
                first
                    .layers
                    .iter()
                    .map(|(n, v)| (n.as_str(), Json::Num(*v))),
            ),
        ),
    ];
    let run = Run {
        workload,
        seed: o.seed,
        file: "run",
        group: "end_to_end",
    };
    run.report(detail, &metrics, &problems, attempted, failed)
}

/// Where a run's numbers go.
struct Run<'a> {
    workload: &'a str,
    seed: u64,
    /// `results/<workload>.<file>.json`.
    file: &'a str,
    /// The result file's key for `metrics`.
    group: &'a str,
}

impl Run<'_> {
    /// Prints every metric and problem, writes the result file, prints
    /// the contract's line and turns the problems into the exit code.
    fn report(
        &self,
        detail: Vec<(&str, Json)>,
        metrics: &[(String, f64, &str)],
        problems: &[String],
        attempted: u64,
        failed: u64,
    ) -> ExitCode {
        let workload = self.workload;
        for (name, v, unit) in metrics {
            println!("{workload} {name} {v} {unit}");
        }
        for p in problems {
            println!("FAILED {p}");
        }
        let head = [
            ("workload", Json::str(workload)),
            ("seed", Json::Num(self.seed as f64)),
        ];
        let tail = [
            (
                self.group,
                Json::obj(metrics.iter().map(|(n, v, _)| (n.as_str(), Json::Num(*v)))),
            ),
            (
                "problems",
                Json::Arr(problems.iter().map(|p| Json::str(p.as_str())).collect()),
            ),
        ];
        let all = Json::obj(head.into_iter().chain(detail).chain(tail));
        write_result(&format!("{workload}.{}.json", self.file), &pretty(&all));
        contract_line(problems.is_empty(), attempted, failed, metrics);
        if problems.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The traced run: once without tracing, once with, then the probes.
fn trace(workload: &str, o: &Opts, process_start: Instant) -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    let plain = run_pass(workload, o.seed, Pass::Timed, Some(process_start));
    let traced = run_pass(workload, o.seed, Pass::Traced, None);
    if traced.digest != plain.digest || traced.sim != plain.sim {
        problems.push("tracing changed the results: it is not a pure observer".into());
    }
    problems.extend(traced.unfit.iter().cloned());
    let mut layers = traced.layers;
    layers.push((
        "obs.trace_overhead_ratio".into(),
        traced.wall_s / plain.wall_s,
    ));
    layers.extend(probes::ladder(o.seed));
    layers.extend(probes::kernels(o.seed));
    match probes::parallel_ratio(o.seed) {
        Ok(r) => layers.push(("serving.par2_wall_ratio".into(), r)),
        Err(e) => problems.push(e),
    }
    for (name, v) in &layers {
        if name.starts_with("ladder.") && name.contains("wall") && *v < 0.0 {
            problems.push(format!(
                "{name} is negative: a level ran faster than the one below"
            ));
        }
    }
    if serving_workload(workload).is_some() {
        let c = layer(&layers, "obs.phase.conservation");
        if (c - 1.0).abs() > 0.01 {
            problems.push(format!("phase shares conserve {c} of the latency, not 1.0"));
        }
    }

    // A metric that does not apply to this workload reads 0.
    let metrics: Vec<(String, f64, &str)> = metrics::per_layer()
        .into_iter()
        .map(|m| {
            let v = layer(&layers, &m.name);
            (m.name, v, m.unit)
        })
        .collect();
    for (name, _) in &layers {
        assert!(
            metrics.iter().any(|m| &m.0 == name),
            "{name} is measured but not in the catalogue"
        );
    }
    if let Some(t) = &traced.trace_json {
        write_result(&format!("{workload}.trace.json"), t);
    }
    let run = Run {
        workload,
        seed: o.seed,
        file: "layers",
        group: "per_layer",
    };
    run.report(
        vec![("digest", Json::hex(traced.digest))],
        &metrics,
        &problems,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    )
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Every workload in a child process of its own, so peak memory and
/// allocator state are per workload; the children's result files are
/// merged into `latest.json`.
fn all(o: &Opts, traced: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    let mut merged = Vec::new();
    for (workload, _) in WORKLOADS {
        // `--trace` value, key in `latest.json`, the child's result file.
        let mut runs = vec![("0", "run", format!("{workload}.run.json"))];
        if traced {
            runs.push(("1", "layers", format!("{workload}.layers.json")));
        }
        let mut entry = Vec::new();
        for (trace, key, file) in &runs {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", trace]);
            if let Some(n) = o.reps {
                cmd.args(["--reps", &n.to_string()]);
            }
            // The child's stdout is this process's: its lines print as
            // they come, and `status` waits for it to end.
            let status = cmd.status().expect("start a workload process");
            ok &= status.success();
            let path = Path::new(RESULTS_DIR).join(file);
            match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
                Ok(text) => match Json::parse(&text) {
                    Ok(v) => entry.push((*key, v)),
                    Err(e) => panic!("{}: {e}", path.display()),
                },
                Err(e) => {
                    println!("FAILED {workload}: no result file ({e})");
                    ok = false;
                }
            }
        }
        merged.push((workload, Json::obj(entry)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let latest = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(o.seed as f64)),
        ("run_seconds", Json::Num(o.seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("git_commit", Json::str(git_commit())),
        ("workloads", Json::obj(merged)),
    ]);
    write_result("latest.json", &pretty(&latest));
    println!("wrote {RESULTS_DIR}/latest.json");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two result files of the same commit and seed must agree: exactly on
/// the simulated clock, within the bounds on the host's.
fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let load = |p: &str| -> Json {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{p}: {e}"))
    };
    let (a, b) = (load(a_path), load(b_path));
    let layers = metrics::per_layer();
    let mut bad: Vec<String> = Vec::new();
    // Worst relative difference per metric, over the workloads.
    let mut worst: Vec<(String, f64, String)> = Vec::new();
    let mut note =
        |metric: &str, diff: f64, workload: &str| match worst.iter_mut().find(|w| w.0 == metric) {
            Some(w) if diff > w.1 => *w = (metric.into(), diff, workload.into()),
            Some(_) => {}
            None => worst.push((metric.into(), diff, workload.into())),
        };
    let rel = |x: f64, y: f64| {
        if x == y {
            0.0
        } else {
            (x - y).abs() / x.abs().max(y.abs())
        }
    };
    let workloads = a.get("workloads").map_or(&[][..], Json::fields);
    if workloads.is_empty() {
        bad.push(format!("{a_path} holds no workloads"));
    }
    for (w, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|x| x.get(w)) else {
            bad.push(format!("{w}: missing from {b_path}"));
            continue;
        };
        let (ra, rb) = (wa.get("run"), wb.get("run"));
        for key in [
            "input_digest",
            "digest",
            "attempted_per_pass",
            "failed_per_pass",
            "counts",
        ] {
            if ra.and_then(|r| r.get(key)) != rb.and_then(|r| r.get(key)) {
                bad.push(format!("{w}: {key} differs"));
            }
        }
        let num = |r: Option<&Json>, group: &str, name: &str| {
            r.and_then(|r| r.get(group))
                .and_then(|g| g.get(name))
                .and_then(Json::as_f64)
        };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (num(ra, "end_to_end", m.name), num(rb, "end_to_end", m.name))
            else {
                bad.push(format!("{w}: {} missing", m.name));
                continue;
            };
            let d = rel(x, y);
            note(m.name, d, w);
            let limit = if m.clock == Clock::Sim { 0.0 } else { m.bound };
            if d > limit {
                bad.push(format!("{w}: {} {x} vs {y} differs by {d:.4}", m.name));
            }
        }
        // Per-layer numbers: the untraced run's, and the traced run's
        // where both files have one.
        for (group, xa, xb) in [
            ("run", ra, rb),
            ("layers", wa.get("layers"), wb.get("layers")),
        ] {
            for m in &layers {
                let (Some(x), Some(y)) =
                    (num(xa, "per_layer", &m.name), num(xb, "per_layer", &m.name))
                else {
                    continue;
                };
                let d = rel(x, y);
                note(&m.name, d, w);
                if m.clock == Clock::Sim && d > 0.0 {
                    bad.push(format!("{w}: {group} {} {x} vs {y}", m.name));
                }
            }
        }
    }
    for (metric, d, w) in &worst {
        println!("{metric} worst relative difference {d:.6} on {w}");
    }
    for p in &bad {
        println!("FAILED {p}");
    }
    if bad.is_empty() {
        println!("the two sets of runs agree");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: recssd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--reps <n>]\n\
         \x20      recssd-benchmark all [--seed <n>] [--seconds <s>] [--reps <n>] [--traced]\n\
         \x20      recssd-benchmark compare <a.json> <b.json>\n\
         \x20      recssd-benchmark manifest\n\
         workloads: {}",
        WORKLOADS.map(|w| w.0).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Opts {
        seed: 42,
        seconds: RUN_SECONDS as f64,
        reps: None,
    };
    let (mut workload, mut trace_flag, mut traced) = (None, 0u8, false);
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        let parsed: Result<(), String> = (|| {
            match a.as_str() {
                "--workload" => workload = Some(value("--workload")?.clone()),
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    o.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--reps" => {
                    let n: usize = value("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?;
                    if n == 0 {
                        return Err("--reps must be at least 1".into());
                    }
                    o.reps = Some(n);
                }
                "--trace" => {
                    trace_flag = match value("--trace")?.as_str() {
                        "0" => 0,
                        "1" => 1,
                        other => return Err(format!("--trace is 0 or 1, not {other}")),
                    }
                }
                "--traced" => traced = true,
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                word => positional.push(word),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("{e}");
            return usage();
        }
    }
    match (positional.as_slice(), workload) {
        ([], Some(w)) if WORKLOADS.iter().any(|x| x.0 == w) => {
            if trace_flag == 1 {
                trace(&w, &o, process_start)
            } else {
                measure(&w, &o, process_start)
            }
        }
        (["all"], None) => all(&o, traced),
        (["compare", a, b], None) => compare(a, b),
        (["manifest"], None) => {
            print!("{}", pretty(&metrics::manifest()));
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
