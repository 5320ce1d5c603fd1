//! `model-zoo`: the paper's headline experiment. All eight models of
//! `ModelConfig::zoo()` on Cosmos+ `System`s, each in three modes —
//! embeddings in DRAM, on a conventional SSD (host LRU) and on RecSSD
//! (SSD-side cache + static partition) — as operator graphs
//! (bottom MLP ∥ SLS per table → top MLP) the benchmark submits itself.
//!
//! The ids are the one input the benchmark does not generate: they come
//! from the paper's locality model in `recssd_models::BatchGen`, drawn
//! here batch by batch and folded into the input digest, so a change to
//! that model changes the digest instead of passing unnoticed.

use std::time::Instant;

use recssd::{LookupBatch, OpId, OpKind, RecSsdConfig, SlsOptions, System, TableId};
use recssd_cache::StaticPartitionBuilder;
use recssd_embedding::{sls_reference_into, PageLayout};
use recssd_models::{BatchGen, ModelClass, ModelConfig, ModelInstance};
use recssd_obs::{SpanRec, TraceSink};
use recssd_sim::alloc_count::allocation_count;
use recssd_sim::stats::HitStats;
use recssd_sim::SimDuration;
use recssd_trace::{LocalityK, LocalityTrace};

use crate::gen::Fnv;
use crate::ledger::{trace_file, util_ledger, DeviceLedger, Metrics};
use crate::serving::Pass;
use crate::stats::percentile;

/// Rows per table (`Scale::quick` of the figures harness).
const ROWS: u64 = 200_000;
/// Samples per inference.
const BATCH: usize = 16;
/// Measured inferences per model and mode.
const INFERENCES: usize = 4;
/// §5: "host-side DRAM caches store up to 2K entries per table".
const HOST_CACHE_ENTRIES: usize = 2048;
/// SSD-side direct-mapped embedding-cache slots (Fig. 10).
const SSD_CACHE_SLOTS: usize = 1 << 15;
/// Ids profiled per table for the static partition.
const PARTITION_PROFILE: usize = 10_000;
/// What the paper reports for RecSSD over the SSD baseline ("up to 2×").
pub const PAPER_REFERENCE_SPEEDUP: f64 = 2.0;

pub const MODELS: [&str; 8] = ["rmc1", "rmc2", "rmc3", "wnd", "mtwnd", "din", "dien", "ncf"];

/// The metric-name key of a zoo model (`DLRM-RMC1` → `rmc1`).
fn key(name: &str) -> String {
    name.trim_start_matches("DLRM-").to_ascii_lowercase()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Dram,
    Baseline,
    RecSsd,
}

/// One model's figures, simulated time throughout.
#[derive(Debug, Clone)]
pub struct ModelFigures {
    pub key: String,
    pub mlp_dominated: bool,
    pub dram_us: f64,
    pub baseline_us: f64,
    pub recssd_us: f64,
    pub ndp_speedup: f64,
    /// Share of the baseline-SSD inference that is the cost of the
    /// embeddings being on the SSD: `1 − DRAM latency ÷ baseline latency`.
    pub embed_share: f64,
}

#[derive(Debug)]
pub struct ZooRun {
    pub setup_s: f64,
    pub wall_s: f64,
    pub input_digest: u64,
    pub digest: u64,
    pub models: Vec<ModelFigures>,
    /// RecSSD-mode inferences measured (all complete, or the run panics).
    pub inferences: u64,
    /// Lookups simulated in the timed section, all modes.
    pub lookups_all_modes: u64,
    pub sim_lookups_per_s: f64,
    pub sim_p50_us: f64,
    pub sim_p99_us: f64,
    pub sim_max_rate_rps: f64,
    pub speedup_geomean: f64,
    /// Operators checked against `sls_reference` (verified pass).
    pub verified_ops: u64,
    pub layers: Metrics,
    pub trace_json: Option<String>,
}

/// The id stream of one model: locality K = 1 for the embedding-dominated
/// DLRMs, the Fig. 6 high-reuse trace for the MLP-dominated five.
fn id_stream(cfg: &ModelConfig, seed: u64) -> BatchGen {
    match cfg.class {
        ModelClass::EmbeddingDominated => {
            BatchGen::locality(cfg.rows_per_table, LocalityK::K1, cfg.tables, seed)
        }
        ModelClass::MlpDominated => BatchGen::Locality {
            traces: (0..cfg.tables)
                .map(|t| {
                    LocalityTrace::new(cfg.rows_per_table, 0.02, 400.0, seed.wrapping_add(t as u64))
                })
                .collect(),
        },
    }
}

struct Arm {
    sys: System,
    model: ModelInstance,
    mode: Mode,
    opts: SlsOptions,
}

/// The batches of one inference, one per table.
type Drawn = Vec<LookupBatch>;

/// Draws `n` inferences' batches from the program's locality model and
/// folds every id into `input`. The three modes replay the same batches,
/// so `LocalityTrace` (about 4 µs an id) runs once, during set-up.
fn draw(cfg: &ModelConfig, seed: u64, n: usize, input: &mut Fnv) -> Vec<Drawn> {
    let mut gen = id_stream(cfg, seed);
    (0..n)
        .map(|_| {
            (0..cfg.tables)
                .map(|t| {
                    let b = gen.batch(t, BATCH, cfg.lookups_per_table, cfg.rows_per_table);
                    for id in b.per_output().iter().flatten() {
                        input.write_u64(*id);
                    }
                    b
                })
                .collect()
        })
        .collect()
}

/// What one inference left behind.
struct Inference {
    latency: SimDuration,
    lookups: u64,
}

impl Arm {
    fn sls(&self, table: TableId, batch: LookupBatch) -> OpKind {
        match self.mode {
            Mode::Dram => OpKind::dram_sls(table, batch),
            Mode::Baseline => OpKind::baseline_sls(table, batch, self.opts),
            Mode::RecSsd => OpKind::ndp_sls(table, batch, self.opts),
        }
    }

    /// Submits the operator graph over `drawn`, runs it, folds the
    /// outputs into `output` and, if asked, checks every SLS operator
    /// against `sls_reference`.
    fn infer(&mut self, drawn: &Drawn, output: &mut Fnv, verify: bool) -> (Inference, u64) {
        let cfg = self.model.config().clone();
        let start = self.sys.now();
        let bottom = self.sys.submit(OpKind::host_compute(
            cfg.bottom_mlp.flops(BATCH),
            cfg.bottom_mlp.bytes(BATCH),
        ));
        let tables: Vec<TableId> = self.model.tables().to_vec();
        let lookups = drawn.iter().map(|b| b.total_lookups() as u64).sum();
        let sls: Vec<OpId> = tables
            .iter()
            .zip(drawn)
            .map(|(&t, batch)| self.sys.submit(self.sls(t, batch.clone())))
            .collect();
        let mut deps = sls.clone();
        deps.push(bottom);
        let top = self.sys.submit_after(
            OpKind::host_compute(
                cfg.top_mlp.flops(BATCH) + cfg.extra_flops_per_sample * BATCH as f64,
                cfg.top_mlp.bytes(BATCH),
            ),
            &deps,
        );
        self.sys.run_until_idle();

        let mut verified = 0;
        let mut reference = Vec::new();
        for (i, &op) in sls.iter().enumerate() {
            let r = self.sys.take_result(op);
            assert!(r.is_ok(), "model-zoo injects no faults");
            let out = r.outputs.expect("an SLS operator has outputs");
            output.write_f32s(out.as_slice());
            if verify {
                let table = self.sys.registry().binding(tables[i]).image.table();
                reference.clear();
                reference.resize(out.as_slice().len(), 0.0);
                sls_reference_into(table, &drawn[i], &mut reference);
                assert_eq!(
                    out.as_slice(),
                    &reference[..],
                    "{} table {i}: SLS output diverged from sls_reference",
                    cfg.name
                );
                verified += 1;
            }
            self.sys.recycle_outputs(out);
        }
        self.sys.take_result(bottom);
        let finished = self.sys.take_result(top).finished;
        output.write_u64(finished.as_ns());
        (
            Inference {
                latency: finished.saturating_since(start),
                lookups,
            },
            verified,
        )
    }
}

/// Builds the two SSD systems of one model: the conventional baseline
/// (host LRU per table, 32 outstanding reads; also runs the DRAM mode)
/// and RecSSD (SSD-side cache, static partition from a profile).
fn build_arms(cfg: &ModelConfig, seed: u64) -> [Arm; 3] {
    let tables_seed = 77;
    let arm = |mode: Mode, embed_slots: usize| {
        let mut rc = RecSsdConfig::cosmos();
        rc.ndp = rc.ndp.with_embed_cache(embed_slots);
        let mut sys = System::new(rc);
        let model = ModelInstance::build(&mut sys, cfg.clone(), PageLayout::Spread, tables_seed);
        Arm {
            sys,
            model,
            mode,
            opts: SlsOptions::default(),
        }
    };
    let dram = arm(Mode::Dram, 0);
    let mut base = arm(Mode::Baseline, 0);
    for &t in base.model.tables() {
        base.sys.enable_host_cache(t, HOST_CACHE_ENTRIES);
    }
    base.opts = SlsOptions {
        io_concurrency: 32,
        use_host_cache: true,
        ..SlsOptions::default()
    };
    let mut rec = arm(Mode::RecSsd, SSD_CACHE_SLOTS);
    let mut profile = id_stream(cfg, seed ^ 0x9A57_1710);
    for (i, &t) in rec.model.tables().iter().enumerate() {
        let mut b = StaticPartitionBuilder::new();
        let ids = profile.batch(i, 1, PARTITION_PROFILE, cfg.rows_per_table);
        b.observe_all(ids.per_output()[0].iter().copied());
        let cap = HOST_CACHE_ENTRIES.min(b.distinct_ids() / 4).max(1);
        rec.sys.set_partition(t, b.build(cap));
    }
    rec.opts.use_partition = true;
    [dram, base, rec]
}

/// Warm-up inferences so each table has seen a few thousand lookups
/// (the caches' steady state), as the Fig. 10 harness does.
fn warmup_inferences(cfg: &ModelConfig) -> usize {
    (4000 / (cfg.lookups_per_table * BATCH)).clamp(2, 120)
}

pub fn run(seed: u64, pass: Pass, process_start: Option<Instant>) -> ZooRun {
    let verify = pass == Pass::Verified;
    let sink = (pass == Pass::Traced).then(TraceSink::new);
    let mut input = Fnv::default();
    let mut output = Fnv::default();
    let mut sink_out = Fnv::default();
    let mut models = Vec::new();
    // Per model: its median and its slowest RecSSD-mode inference.
    let (mut rec_p50_ns, mut rec_max_ns) = (Vec::new(), Vec::new());
    let (mut rec_n, mut rec_lookups, mut rec_ns) = (0u64, 0u64, 0u64);
    let (mut all_lookups, mut verified_ops, mut allocs) = (0u64, 0u64, 0u64);
    // The ledger covers the systems under test, RecSSD's; the host LRU
    // belongs to the baseline systems and is read there.
    let mut dev = DeviceLedger::default();
    let (mut host_cache, mut partition) = (HitStats::default(), HitStats::default());
    // One model at a time, so only three Cosmos+ systems are alive at
    // once; set-up and timed sections alternate and each clock adds up.
    let (mut setup_s, mut wall_s) = (0.0, 0.0);
    let mut t_setup = process_start.unwrap_or_else(Instant::now);
    for (m, cfg) in ModelConfig::zoo().into_iter().enumerate() {
        let cfg = cfg.scaled_tables(ROWS);
        let seed = seed.wrapping_add(m as u64 * 0x1_0000);
        let mut arms = build_arms(&cfg, seed);
        let warm = warmup_inferences(&cfg);
        let mut drawn = draw(&cfg, seed, warm + INFERENCES, &mut input);
        for arm in &mut arms[1..] {
            for d in &drawn[..warm] {
                arm.infer(d, &mut sink_out, false);
            }
            arm.sys.reset_stats();
        }
        drawn.drain(..warm);
        if let Some(sink) = &sink {
            arms[2]
                .sys
                .set_tracer(sink.tracer(m as u32 + 1, recssd_obs::trace::track::TID_HOST));
        }
        setup_s += t_setup.elapsed().as_secs_f64();

        let a0 = allocation_count();
        let t0 = Instant::now();
        let mut mean_us = [0.0f64; 3];
        for (a, arm) in arms.iter_mut().enumerate() {
            let mut lat: Vec<u64> = Vec::with_capacity(drawn.len());
            for d in &drawn {
                let (inf, verified) = arm.infer(d, &mut output, verify);
                verified_ops += verified;
                lat.push(inf.latency.as_ns());
                all_lookups += inf.lookups;
                if arm.mode == Mode::RecSsd {
                    rec_lookups += inf.lookups;
                }
            }
            mean_us[a] = lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1e3;
            if arm.mode == Mode::RecSsd {
                rec_n += lat.len() as u64;
                rec_ns += lat.iter().sum::<u64>();
                lat.sort_unstable();
                rec_p50_ns.push(percentile(&lat, 50.0) as f64);
                rec_max_ns.push(percentile(&lat, 100.0) as f64);
            }
        }
        wall_s += t0.elapsed().as_secs_f64();
        allocs += allocation_count() - a0;
        t_setup = Instant::now();

        models.push(ModelFigures {
            key: key(cfg.name),
            mlp_dominated: cfg.class == ModelClass::MlpDominated,
            dram_us: mean_us[0],
            baseline_us: mean_us[1],
            recssd_us: mean_us[2],
            ndp_speedup: mean_us[1] / mean_us[2],
            embed_share: 1.0 - mean_us[0] / mean_us[1],
        });
        let [_, base, rec] = &arms;
        dev.add(&rec.sys);
        for &t in base.model.tables() {
            host_cache.merge(base.sys.host_cache_stats(t).unwrap_or_default());
        }
        for &t in rec.model.tables() {
            partition.merge(rec.sys.partition_stats(t).unwrap_or_default());
        }
    }

    let geomean = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
    let speedup_geomean = geomean(&models.iter().map(|m| m.ndp_speedup).collect::<Vec<_>>());

    assert!(dev.ndp_commands() > 0, "RecSSD mode issued no NDP command");
    // Each model runs on a system of its own, one after the other; the
    // busy shares are taken over the mean simulated time per system.
    let mut layers = dev.finish(rec_ns as f64 / models.len() as f64, rec_lookups as f64);
    layers.push(("core.host_cache_hit_rate".into(), host_cache.hit_rate()));
    layers.push(("core.partition_hit_rate".into(), partition.hit_rate()));
    for m in &models {
        layers.push((format!("models.{}.ndp_speedup", m.key), m.ndp_speedup));
        layers.push((format!("models.{}.embed_share", m.key), m.embed_share));
    }
    layers.push(("models.ndp_speedup_geomean".into(), speedup_geomean));
    layers.push((
        "simcore.allocs_per_lookup".into(),
        allocs as f64 / all_lookups as f64,
    ));
    let mut trace_json = None;
    if let Some(sink) = &sink {
        let mut spans: Vec<SpanRec> = sink.take_spans();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns, s.id));
        layers.extend(util_ledger(&spans));
        layers.push((
            "obs.spans_per_request".into(),
            spans.len() as f64 / rec_n as f64,
        ));
        trace_json = Some(trace_file(&spans));
    }

    ZooRun {
        setup_s,
        wall_s,
        input_digest: input.0,
        digest: output.0,
        inferences: rec_n,
        lookups_all_modes: all_lookups,
        sim_lookups_per_s: rec_lookups as f64 / (rec_ns as f64 / 1e9),
        sim_p50_us: geomean(&rec_p50_ns) / 1e3,
        sim_p99_us: geomean(&rec_max_ns) / 1e3,
        sim_max_rate_rps: rec_n as f64 / (rec_ns as f64 / 1e9),
        speedup_geomean,
        models,
        verified_ops,
        layers,
        trace_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_keys_cover_the_eight_models() {
        let mut keys: Vec<String> = ModelConfig::zoo().iter().map(|m| key(m.name)).collect();
        keys.sort();
        let mut want: Vec<String> = MODELS.iter().map(|s| s.to_string()).collect();
        want.sort();
        assert_eq!(keys, want);
    }
}
