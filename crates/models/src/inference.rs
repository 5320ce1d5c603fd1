//! End-to-end inference execution on the simulated system.

use recssd::{LookupBatch, OpId, OpKind, SlsPath, System, TableId};
use recssd_embedding::{EmbeddingTable, PageLayout, TableImage, TableSpec};
use recssd_sim::rng::Xoshiro256;
use recssd_sim::{SimDuration, SimTime};
use recssd_trace::{LocalityK, LocalityTrace};

use crate::ModelConfig;

/// Deterministic per-table lookup-id generator for inference batches.
#[derive(Debug)]
pub enum BatchGen {
    /// Uniform random ids (the paper's "randomly generated input indices"
    /// used for Fig. 9).
    Uniform {
        /// Generator state.
        rng: Xoshiro256,
    },
    /// The locality-K trace model of §5, one stream per table.
    Locality {
        /// Per-table trace generators.
        traces: Vec<LocalityTrace>,
    },
    /// Strided ids, one page per id (the STR microbenchmark pattern).
    Strided {
        /// Stride between consecutive ids.
        stride: u64,
        /// Per-table cursors.
        cursors: Vec<u64>,
    },
    /// Sequential ids (the SEQ microbenchmark pattern).
    Sequential {
        /// Per-table cursors.
        cursors: Vec<u64>,
    },
}

impl BatchGen {
    /// Uniform generator.
    pub fn uniform(seed: u64) -> Self {
        BatchGen::Uniform {
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// Locality-K generator with one decorrelated stream per table.
    pub fn locality(rows: u64, k: LocalityK, tables: usize, seed: u64) -> Self {
        BatchGen::Locality {
            traces: (0..tables)
                .map(|t| LocalityTrace::with_k(rows, k, seed.wrapping_add(t as u64 * 7919)))
                .collect(),
        }
    }

    /// Strided generator (`stride` rows apart, wrapping).
    pub fn strided(stride: u64, tables: usize) -> Self {
        BatchGen::Strided {
            stride,
            cursors: vec![0; tables],
        }
    }

    /// Sequential generator.
    pub fn sequential(tables: usize) -> Self {
        BatchGen::Sequential {
            cursors: vec![0; tables],
        }
    }

    /// Draws a batch of `outputs × lookups` ids for `table_idx`.
    pub fn batch(
        &mut self,
        table_idx: usize,
        outputs: usize,
        lookups: usize,
        rows: u64,
    ) -> LookupBatch {
        let mut next = |table_idx: usize| -> u64 {
            match self {
                BatchGen::Uniform { rng } => rng.gen_range(0..rows),
                BatchGen::Locality { traces } => traces[table_idx].next_id(),
                BatchGen::Strided { stride, cursors } => {
                    let id = cursors[table_idx];
                    cursors[table_idx] = (id + *stride) % rows;
                    id
                }
                BatchGen::Sequential { cursors } => {
                    let id = cursors[table_idx];
                    cursors[table_idx] = (id + 1) % rows;
                    id
                }
            }
        };
        LookupBatch::uniform(outputs, lookups, || next(table_idx))
    }
}

/// Timings of one inference.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// End-to-end latency: first submission to top-MLP completion.
    pub latency: SimDuration,
    /// Longest single embedding operator (service time).
    pub embed_time: SimDuration,
    /// Bottom-MLP service time.
    pub bottom_time: SimDuration,
    /// Top-MLP (+ extra compute) service time.
    pub top_time: SimDuration,
    /// The per-table SLS operator ids (for output inspection).
    pub sls_ops: Vec<OpId>,
    /// When the top MLP finished.
    pub finished: SimTime,
}

/// A model's tables materialised on a [`System`].
#[derive(Debug)]
pub struct ModelInstance {
    cfg: ModelConfig,
    tables: Vec<TableId>,
}

impl ModelInstance {
    /// Registers the model's embedding tables (procedural contents,
    /// decorrelated by `seed`) with the given on-SSD layout.
    ///
    /// §5 of the paper uses the one-vector-per-page layout
    /// ([`PageLayout::Spread`]) for all model evaluations.
    pub fn build(sys: &mut System, cfg: ModelConfig, layout: PageLayout, seed: u64) -> Self {
        let page_bytes = sys.config().ssd.block_bytes();
        let tables = (0..cfg.tables)
            .map(|t| {
                let spec = TableSpec::new(cfg.rows_per_table, cfg.dim, cfg.quant);
                let table = EmbeddingTable::procedural(spec, seed.wrapping_add(t as u64 * 0x9E37));
                sys.add_table(TableImage::new(table, layout, page_bytes))
            })
            .collect();
        ModelInstance { cfg, tables }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The registered table ids, in table order.
    pub fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// Submits one inference's operator graph without running it:
    /// bottom MLP ∥ per-table SLS on `path` → top MLP. Returns
    /// `(sls ops, bottom, top)`.
    pub fn submit_inference(
        &self,
        sys: &mut System,
        batch: usize,
        path: SlsPath,
        gen: &mut BatchGen,
    ) -> (Vec<OpId>, OpId, OpId) {
        let cfg = &self.cfg;
        let bottom = sys.submit(OpKind::host_compute(
            cfg.bottom_mlp.flops(batch),
            cfg.bottom_mlp.bytes(batch),
        ));
        let sls: Vec<OpId> = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, &table)| {
                let ids = gen.batch(i, batch, cfg.lookups_per_table, cfg.rows_per_table);
                sys.submit(OpKind::Sls {
                    table,
                    batch: ids,
                    path,
                })
            })
            .collect();
        let mut deps = sls.clone();
        deps.push(bottom);
        let top = sys.submit_after(
            OpKind::host_compute(
                cfg.top_mlp.flops(batch) + cfg.extra_flops_per_sample * batch as f64,
                cfg.top_mlp.bytes(batch),
            ),
            &deps,
        );
        (sls, bottom, top)
    }

    /// Runs one inference to completion and reports its timings.
    pub fn run_inference(
        &self,
        sys: &mut System,
        batch: usize,
        path: SlsPath,
        gen: &mut BatchGen,
    ) -> InferenceResult {
        let submit_t = sys.now();
        let (sls, bottom, top) = self.submit_inference(sys, batch, path, gen);
        sys.run_until_idle();
        let embed_time = sls
            .iter()
            .map(|&op| sys.result(op).service_time())
            .max()
            .unwrap_or(SimDuration::ZERO);
        InferenceResult {
            latency: sys.result(top).finished.saturating_since(submit_t),
            embed_time,
            bottom_time: sys.result(bottom).service_time(),
            top_time: sys.result(top).service_time(),
            sls_ops: sls,
            finished: sys.result(top).finished,
        }
    }

    /// Runs `n_batches` inferences submitted back-to-back (the paper's
    /// multi-threaded, pipelined serving mode: SLS workers overlap with
    /// NN workers across batches). Returns `(makespan, mean latency)`.
    pub fn run_pipelined(
        &self,
        sys: &mut System,
        batch: usize,
        n_batches: usize,
        path: SlsPath,
        gen: &mut BatchGen,
    ) -> (SimDuration, SimDuration) {
        let start = sys.now();
        let tops: Vec<OpId> = (0..n_batches)
            .map(|_| self.submit_inference(sys, batch, path, gen).2)
            .collect();
        sys.run_until_idle();
        let mut total = SimDuration::ZERO;
        let mut last = start;
        for top in tops {
            let r = sys.result(top);
            total += r.finished.saturating_since(r.submitted);
            last = last.max(r.finished);
        }
        (
            last.saturating_since(start),
            total / n_batches.max(1) as u64,
        )
    }
}
