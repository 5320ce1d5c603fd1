//! Closed- and open-loop load generation against the serving runtime.
//!
//! The generator produces Zipf-skewed lookup batches over the runtime's
//! registered tables (one decorrelated [`ZipfTrace`] per table, matching
//! the power-law access patterns of §3.1 of the paper) and drives the
//! runtime either *open-loop* — arrivals from an [`ArrivalProcess`],
//! regardless of how backed up the system is, the configuration that
//! exposes latency tails — or *closed-loop* — a fixed population of
//! clients, each issuing its next request when the previous one completes,
//! the configuration that measures saturated throughput.

use recssd::LookupBatch;
use recssd_sim::{SimDuration, SimTime};
use recssd_trace::{ArrivalProcess, RowStream, ZipfTrace};

use crate::{CompletedRequest, ServedTableId, ServingRuntime, SlsPath};

/// Shape of each generated request.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    /// Output (pooled) vectors per request.
    pub outputs: usize,
    /// Lookups summed into each output.
    pub lookups_per_output: usize,
    /// Zipf skew exponent of row popularity (must exceed 1).
    pub zipf_exponent: f64,
}

impl TrafficSpec {
    /// Lookups per request.
    pub fn lookups_per_request(&self) -> usize {
        self.outputs * self.lookups_per_output
    }
}

/// How requests are paced.
#[derive(Debug)]
pub enum LoadMode {
    /// Arrivals from the given process, independent of completions.
    Open(ArrivalProcess),
    /// `clients` concurrent issuers; each submits its next request
    /// `think` after its previous one completes.
    Closed {
        /// Concurrent client population.
        clients: usize,
        /// Per-client think time between completion and next request.
        think: SimDuration,
    },
}

/// The closed-/open-loop generator. One instance drives one run.
#[derive(Debug)]
pub struct LoadGen {
    mode: LoadMode,
    spec: TrafficSpec,
    tables: Vec<ServedTableId>,
    traces: Vec<RowStream>,
    next_table: usize,
    /// Verify every `n`-th completion against the unsharded reference
    /// (0 disables).
    verify_every: u64,
}

impl LoadGen {
    /// Creates a generator over `tables` (round-robin), with one
    /// decorrelated Zipf stream per table.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or the spec is degenerate.
    pub fn new(
        rt: &ServingRuntime,
        tables: Vec<ServedTableId>,
        spec: TrafficSpec,
        mode: LoadMode,
        seed: u64,
    ) -> Self {
        assert!(!tables.is_empty(), "need at least one table");
        assert!(
            spec.outputs > 0 && spec.lookups_per_output > 0,
            "degenerate traffic spec"
        );
        let traces = tables
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let rows = rt.shard_map(t).rows();
                RowStream::Zipf(ZipfTrace::new(
                    rows,
                    spec.zipf_exponent,
                    seed.wrapping_add(i as u64 * 7919),
                ))
            })
            .collect();
        LoadGen {
            mode,
            spec,
            tables,
            traces,
            next_table: 0,
            verify_every: 0,
        }
    }

    /// Replaces the per-table id streams (one per table, in table order)
    /// — how drifting-skew traffic ([`recssd_trace::DriftingZipf`]) is
    /// driven through the generator.
    ///
    /// # Panics
    ///
    /// Panics if the stream count does not match the table count.
    pub fn with_streams(mut self, streams: Vec<RowStream>) -> Self {
        assert_eq!(
            streams.len(),
            self.tables.len(),
            "one stream per table required"
        );
        self.traces = streams;
        self
    }

    /// Verifies every `n`-th completed request bit-matches the unsharded
    /// `sls_reference` (0 disables; 1 verifies everything).
    pub fn with_verify_every(mut self, n: u64) -> Self {
        self.verify_every = n;
        self
    }

    fn next_batch(&mut self) -> (ServedTableId, LookupBatch) {
        let i = self.next_table;
        self.next_table = (self.next_table + 1) % self.tables.len();
        let trace = &mut self.traces[i];
        let (outputs, lookups) = (self.spec.outputs, self.spec.lookups_per_output);
        let batch = LookupBatch::uniform(outputs, lookups, || trace.next_id());
        (self.tables[i], batch)
    }

    fn submit(&mut self, rt: &mut ServingRuntime, at: SimTime, client: u64, path: SlsPath) {
        let (table, batch) = self.next_batch();
        rt.submit_at(at, client, table, batch, path);
    }

    /// Issues `total_requests` over `path`, drives the runtime to
    /// completion and returns how many completions were verified
    /// bit-identical to `sls_reference`. Runtime statistics are reset at
    /// the start, so [`ServingRuntime::stats`] and the runtime's gauges
    /// read afterwards cover exactly this run.
    pub fn run(&mut self, rt: &mut ServingRuntime, path: SlsPath, total_requests: usize) -> u64 {
        rt.reset_stats();
        let mut verified = 0u64;
        let mut completed = 0u64;
        let start = rt.now();

        match &mut self.mode {
            LoadMode::Open(arrivals) => {
                let mut at = start;
                let mut times = Vec::with_capacity(total_requests);
                for _ in 0..total_requests {
                    at += arrivals.next_gap();
                    times.push(at);
                }
                for at in times {
                    self.submit(rt, at, 0, path);
                }
                while let Some(done) = rt.step().expect("serving runtime invariant violated") {
                    completed += 1;
                    verified += self.finish(rt, done);
                }
            }
            LoadMode::Closed { clients, think } => {
                let (clients, think) = (*clients, *think);
                // Exactly `total_requests` are issued: a population larger
                // than the request budget simply leaves some clients idle.
                let issue = total_requests;
                for c in 0..clients.min(issue) {
                    self.submit(rt, start, c as u64, path);
                }
                let mut issued = clients.min(issue);
                while let Some(done) = rt.step().expect("serving runtime invariant violated") {
                    completed += 1;
                    let client = done.client;
                    let next_at = done.finish + think;
                    verified += self.finish(rt, done);
                    if issued < issue {
                        self.submit(rt, next_at, client, path);
                        issued += 1;
                    }
                }
            }
        }
        assert_eq!(completed, rt.stats().requests.get(), "lost completions");
        verified
    }

    /// Optional verification + buffer recycling for one completion.
    fn finish(&mut self, rt: &mut ServingRuntime, done: CompletedRequest) -> u64 {
        let verify = self.verify_every > 0 && done.id.0.is_multiple_of(self.verify_every);
        if verify {
            rt.verify_bitmatch(&done);
        }
        rt.recycle_output(done.outputs);
        u64::from(verify)
    }
}
