//! Access-frequency profiling: traces in, per-table row-heat rankings out.

use recssd_trace::ZipfTrace;

/// Accumulates per-row access counts for a set of tables.
///
/// The profiler has two modes of life. *Offline*: run representative
/// traffic through it once (the paper profiles "input data" ahead of
/// time, §4.2), then freeze the counts into a [`crate::PlacementPlan`].
/// *Online*: keep feeding it the live request stream and call
/// [`FreqProfiler::decay`] at every epoch boundary — counts become an
/// exponentially weighted moving average over epochs, so the rankings
/// track drifting skew instead of averaging it away. Counts are dense per
/// table — row id indexes directly — so observation is O(1); beside them
/// each table lists its *live* rows (non-zero count), and every epoch
/// operation ([`FreqProfiler::decay`], [`FreqProfiler::merge`], ranking)
/// walks that list, so an epoch costs the rows that were touched, not
/// the rows the table holds.
#[derive(Debug, Default, Clone)]
pub struct FreqProfiler {
    tables: Vec<TableHeat>,
}

impl FreqProfiler {
    /// Creates a profiler with no tables.
    pub fn new() -> Self {
        FreqProfiler::default()
    }

    /// Registers a table of `rows` rows, returning its profile index
    /// (assign in the same order tables are registered with the serving
    /// runtime so indices line up).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn add_table(&mut self, rows: u64) -> usize {
        assert!(rows > 0, "table must have rows");
        self.tables.push(TableHeat {
            counts: vec![0; rows as usize],
            total: 0,
            live: Vec::new(),
        });
        self.tables.len() - 1
    }

    /// Number of registered tables.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Records one access to `row` of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` or `row` is out of range.
    #[inline]
    pub fn observe(&mut self, table: usize, row: u64) {
        self.tables[table].add(row, 1);
    }

    /// Records `n` accesses to `row` at once.
    ///
    /// # Panics
    ///
    /// Panics if `table` or `row` is out of range.
    #[inline]
    pub fn observe_count(&mut self, table: usize, row: u64, n: u64) {
        self.tables[table].add(row, n);
    }

    /// Records every access produced by `rows`.
    pub fn profile_stream<I: IntoIterator<Item = u64>>(&mut self, table: usize, rows: I) {
        for row in rows {
            self.observe(table, row);
        }
    }

    /// Adds every count of `other` into this profiler (same table
    /// shapes) — the EWMA epoch-merge step: `ewma.decay(λ)` then
    /// `ewma.merge(&fresh)` makes the long-memory ranking absorb the
    /// epoch's observations.
    ///
    /// # Panics
    ///
    /// Panics if the profilers cover different tables.
    pub fn merge(&mut self, other: &FreqProfiler) {
        assert_eq!(
            self.tables.len(),
            other.tables.len(),
            "profilers cover different table counts"
        );
        for (a, b) in self.tables.iter_mut().zip(&other.tables) {
            assert_eq!(a.counts.len(), b.counts.len(), "table shapes differ");
            for &row in &b.live {
                a.add(row, b.counts[row as usize]);
            }
        }
    }

    /// Ends an observation epoch: scales every count by `factor`
    /// (truncating), so the profiler becomes an EWMA over epochs — heat
    /// observed `k` epochs ago weighs `factor^k` of fresh heat, and rows
    /// that stop being accessed fade to zero instead of pinning DRAM on
    /// stale popularity. `factor = 0` forgets everything (pure
    /// sliding-epoch counters); `factor = 1` is the offline accumulate.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= factor <= 1`.
    pub fn decay(&mut self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "decay factor must lie in [0, 1]"
        );
        for t in 0..self.tables.len() {
            self.decay_table(t, factor);
        }
    }

    /// [`FreqProfiler::decay`] restricted to one table — a change-point
    /// flush in a drifting table must not erase the well-sampled history
    /// of tables whose traffic did not move.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range or `factor` is outside [0, 1].
    pub fn decay_table(&mut self, table: usize, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "decay factor must lie in [0, 1]"
        );
        let TableHeat {
            counts,
            total,
            live,
        } = &mut self.tables[table];
        *total = 0;
        live.retain(|&row| {
            let c = &mut counts[row as usize];
            *c = (*c as f64 * factor) as u64;
            *total += *c;
            *c > 0
        });
    }

    /// Draws `samples` ids from `trace` into `table`'s profile — the
    /// synthetic stand-in for profiling production traffic.
    ///
    /// # Panics
    ///
    /// Panics if the trace produces ids outside the table.
    pub fn profile_zipf(&mut self, table: usize, trace: &mut ZipfTrace, samples: usize) {
        for _ in 0..samples {
            let id = trace.next_id();
            self.observe(table, id);
        }
    }

    /// The accumulated heat of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    pub fn heat(&self, table: usize) -> &TableHeat {
        &self.tables[table]
    }
}

/// Per-row access counts of one table, with ranking helpers.
#[derive(Debug, Clone)]
pub struct TableHeat {
    counts: Vec<u64>,
    total: u64,
    /// Exactly the rows whose count is non-zero, in no particular order
    /// (every consumer ranks under a total order or sums integers).
    live: Vec<u64>,
}

impl TableHeat {
    #[inline]
    fn add(&mut self, row: u64, n: u64) {
        let c = &mut self.counts[row as usize];
        if *c == 0 && n > 0 {
            self.live.push(row);
        }
        *c += n;
        self.total += n;
    }

    /// Number of rows profiled.
    pub fn rows(&self) -> u64 {
        self.counts.len() as u64
    }

    /// Accesses recorded against `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn count(&self, row: u64) -> u64 {
        self.counts[row as usize]
    }

    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rows with at least one recorded access.
    pub fn accessed_rows(&self) -> usize {
        self.live.len()
    }

    /// The rows with at least one recorded access, in no particular
    /// order — what an epoch-time pass walks instead of `0..rows`.
    pub fn live_rows(&self) -> &[u64] {
        &self.live
    }

    /// All rows ordered by descending access count; ties break toward the
    /// smaller row id so rankings are deterministic. Only the live rows
    /// are sorted: the never-accessed ones all tie at zero, so they
    /// follow in id order.
    pub fn ranking(&self) -> Vec<u64> {
        let mut rows = Vec::with_capacity(self.counts.len());
        rows.extend_from_slice(&self.live);
        self.rank_in_place(&mut rows);
        rows.extend((0..self.rows()).filter(|&r| self.counts[r as usize] == 0));
        rows
    }

    /// Orders `rows` (arbitrary subset, e.g. one shard's range) by
    /// descending heat in place, ties toward smaller row ids.
    pub fn rank_in_place(&self, rows: &mut [u64]) {
        rows.sort_unstable_by(|&a, &b| {
            self.counts[b as usize]
                .cmp(&self.counts[a as usize])
                .then(a.cmp(&b))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiling_counts_accesses_per_row() {
        let mut p = FreqProfiler::new();
        let t = p.add_table(10);
        p.profile_stream(t, [3, 3, 3, 7, 7, 1]);
        let h = p.heat(t);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(7), 2);
        assert_eq!(h.count(0), 0);
        assert_eq!(h.total(), 6);
        assert_eq!(h.accessed_rows(), 3);
    }

    #[test]
    fn ranking_is_heat_descending_with_deterministic_ties() {
        let mut p = FreqProfiler::new();
        let t = p.add_table(5);
        p.profile_stream(t, [4, 4, 2, 2, 0]);
        let r = p.heat(t).ranking();
        // 2 and 4 tie at count 2 → smaller id first; 1 and 3 tie at 0.
        assert_eq!(r, vec![2, 4, 0, 1, 3]);
    }

    #[test]
    fn zipf_profiling_concentrates_mass() {
        let mut p = FreqProfiler::new();
        let t = p.add_table(10_000);
        let mut z = ZipfTrace::new(10_000, 1.3, 11);
        p.profile_zipf(t, &mut z, 50_000);
        let h = p.heat(t);
        assert_eq!(h.total(), 50_000);
        // 1% of rows must hold far more than 1% of a Zipf(1.3) stream.
        let top: u64 = h.ranking()[..100].iter().map(|&r| h.count(r)).sum();
        assert!(top > 15_000, "{top}");
    }

    #[test]
    #[should_panic(expected = "table must have rows")]
    fn zero_row_table_rejected() {
        FreqProfiler::new().add_table(0);
    }

    #[test]
    fn decay_fades_old_heat_under_fresh_traffic() {
        let mut p = FreqProfiler::new();
        let t = p.add_table(10);
        // Epoch 1: row 3 dominates.
        p.profile_stream(t, std::iter::repeat_n(3, 8));
        p.decay(0.5);
        assert_eq!(p.heat(t).count(3), 4);
        assert_eq!(p.heat(t).total(), 4);
        // Epochs 2-3: traffic moves to row 7; the ranking must follow.
        for _ in 0..2 {
            p.profile_stream(t, std::iter::repeat_n(7, 8));
            p.decay(0.5);
        }
        let h = p.heat(t);
        assert!(h.count(7) > h.count(3), "EWMA must track the drift");
        assert_eq!(h.ranking()[0], 7);
    }

    #[test]
    fn full_decay_forgets_everything() {
        let mut p = FreqProfiler::new();
        let t = p.add_table(4);
        p.profile_stream(t, [0, 1, 2, 3]);
        p.decay(0.0);
        assert_eq!(p.heat(t).total(), 0);
        assert_eq!(p.heat(t).accessed_rows(), 0);
    }

    #[test]
    fn observe_count_matches_repeated_observe() {
        let mut a = FreqProfiler::new();
        let mut b = FreqProfiler::new();
        let (ta, tb) = (a.add_table(8), b.add_table(8));
        for _ in 0..5 {
            a.observe(ta, 2);
        }
        b.observe_count(tb, 2, 5);
        assert_eq!(a.heat(ta).count(2), b.heat(tb).count(2));
        assert_eq!(a.heat(ta).total(), b.heat(tb).total());
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn decay_above_one_rejected() {
        FreqProfiler::new().decay(1.5);
    }
}
