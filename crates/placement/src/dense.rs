//! The dense passes the live-row lists replaced — every row of every
//! table decayed, merged, ranked and keyed — kept as the oracle the
//! sparse code is compared against, op by op.

use std::collections::BinaryHeap;
use std::ops::Range;

use recssd_sim::rng::Xoshiro256;

use crate::{BudgetScratch, FreqProfiler, PlacementPolicy, TablePlacement};

#[derive(Debug, Default)]
struct DenseProfiler {
    tables: Vec<DenseHeat>,
}

#[derive(Debug)]
struct DenseHeat {
    counts: Vec<u64>,
    total: u64,
}

impl DenseProfiler {
    fn add_table(&mut self, rows: u64) {
        self.tables.push(DenseHeat {
            counts: vec![0; rows as usize],
            total: 0,
        });
    }

    fn observe_count(&mut self, table: usize, row: u64, n: u64) {
        let t = &mut self.tables[table];
        t.counts[row as usize] += n;
        t.total += n;
    }

    fn merge(&mut self, other: &DenseProfiler) {
        for (a, b) in self.tables.iter_mut().zip(&other.tables) {
            for (x, y) in a.counts.iter_mut().zip(&b.counts) {
                *x += *y;
            }
            a.total += b.total;
        }
    }

    fn decay_table(&mut self, table: usize, factor: f64) {
        let t = &mut self.tables[table];
        let mut total = 0;
        for c in &mut t.counts {
            *c = (*c as f64 * factor) as u64;
            total += *c;
        }
        t.total = total;
    }
}

impl DenseHeat {
    fn accessed_rows(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// One stable sort over every row of the table.
    fn ranking(&self) -> Vec<u64> {
        let mut rows: Vec<u64> = (0..self.counts.len() as u64).collect();
        rows.sort_by(|&a, &b| {
            self.counts[b as usize]
                .cmp(&self.counts[a as usize])
                .then(a.cmp(&b))
        });
        rows
    }
}

/// Packing by a stable sort on `(is hot, heat rank)` evaluated inside the
/// comparator, given the table's full `ranking`.
fn pack_order_dense(ranking: &[u64], hot: &[u64], range: Range<u64>) -> Vec<u64> {
    let mut heat_rank = vec![0u32; ranking.len()];
    for (i, &r) in ranking.iter().enumerate() {
        heat_rank[r as usize] = i as u32;
    }
    let mut is_hot = vec![false; ranking.len()];
    for &r in hot {
        is_hot[r as usize] = true;
    }
    let start = range.start;
    let mut rows: Vec<u64> = range.collect();
    rows.sort_by_key(|&r| (is_hot[r as usize], heat_rank[r as usize]));
    for r in &mut rows {
        *r -= start;
    }
    rows
}

/// A k-way merge of the full per-table `rankings` through a max-heap
/// keyed on each table's next row.
fn allocate_global_budget_dense(
    profiler: &DenseProfiler,
    rankings: &[Vec<u64>],
    budget_rows: usize,
) -> Vec<usize> {
    use std::cmp::Reverse;
    let mut budgets = vec![0usize; profiler.tables.len()];
    let mut heap: BinaryHeap<(u64, Reverse<usize>, Reverse<u64>, usize)> = BinaryHeap::new();
    let push = |heap: &mut BinaryHeap<_>, t: usize, pos: usize| {
        if let Some(&row) = rankings[t].get(pos) {
            let count = profiler.tables[t].counts[row as usize];
            if count > 0 {
                heap.push((count, Reverse(t), Reverse(row), pos));
            }
        }
    };
    for t in 0..profiler.tables.len() {
        push(&mut heap, t, 0);
    }
    for _ in 0..budget_rows {
        let Some((_, Reverse(t), _, pos)) = heap.pop() else {
            break;
        };
        budgets[t] += 1;
        push(&mut heap, t, pos + 1);
    }
    budgets
}

/// Decay factors of the adaptive loop's life: forget, the change-point
/// flush, the benchmark's EWMA, keep.
const FACTORS: [f64; 4] = [0.0, 0.2, 0.8, 1.0];

/// Observation weights: nothing, one (gone after any fractional decay),
/// the adaptive weight and its evidence threshold, a heavy row.
const WEIGHTS: [u64; 5] = [0, 1, 16, 32, 1_000];

/// Both implementations of the adaptive loop's profiler pair.
struct Pair {
    rows: Vec<u64>,
    ewma: FreqProfiler,
    fresh: FreqProfiler,
    d_ewma: DenseProfiler,
    d_fresh: DenseProfiler,
    /// Rows ever observed, per table: where a count can be non-zero.
    touched: Vec<Vec<u64>>,
}

impl Pair {
    fn new(rows: Vec<u64>) -> Self {
        let mut p = Pair {
            touched: vec![Vec::new(); rows.len()],
            rows,
            ewma: FreqProfiler::new(),
            fresh: FreqProfiler::new(),
            d_ewma: DenseProfiler::default(),
            d_fresh: DenseProfiler::default(),
        };
        for &r in &p.rows {
            p.ewma.add_table(r);
            p.fresh.add_table(r);
            p.d_ewma.add_table(r);
            p.d_fresh.add_table(r);
        }
        p
    }

    fn observe(&mut self, table: usize, row: u64, n: u64) {
        self.fresh.observe_count(table, row, n);
        self.d_fresh.observe_count(table, row, n);
        self.touched[table].push(row);
    }

    /// One adaptive epoch: per-table decay (the flush factor on a change
    /// point), merge, reset of the epoch's counts.
    fn epoch(&mut self, rng: &mut Xoshiro256) {
        for t in 0..self.rows.len() {
            let factor = FACTORS[rng.gen_range(0..4) as usize];
            self.ewma.decay_table(t, factor);
            self.d_ewma.decay_table(t, factor);
        }
        self.ewma.merge(&self.fresh);
        self.d_ewma.merge(&self.d_fresh);
        self.fresh.decay(0.0);
        for t in 0..self.rows.len() {
            self.d_fresh.decay_table(t, 0.0);
        }
    }

    /// Cheap per-op check: totals, live counts, every touched row.
    fn assert_touched_equal(&self) {
        for (sparse, dense) in [(&self.ewma, &self.d_ewma), (&self.fresh, &self.d_fresh)] {
            for (t, d) in dense.tables.iter().enumerate() {
                let s = sparse.heat(t);
                assert_eq!(s.total(), d.total);
                let live = self.touched[t]
                    .iter()
                    .filter(|&&r| d.counts[r as usize] > 0)
                    .collect::<std::collections::BTreeSet<_>>();
                assert_eq!(s.accessed_rows(), live.len());
                for &r in &self.touched[t] {
                    assert_eq!(s.count(r), d.counts[r as usize], "table {t} row {r}");
                }
                let mut listed = s.live_rows().to_vec();
                listed.sort_unstable();
                assert!(listed.iter().eq(live.into_iter()), "live list of table {t}");
            }
        }
    }

    /// Full check of the long-memory profiler: every count, the ranking,
    /// the budget split, top-k and explicit hot sets, the packing.
    fn assert_plans_equal(&self, rng: &mut Xoshiro256) {
        let live: usize = self.d_ewma.tables.iter().map(|d| d.accessed_rows()).sum();
        let all: usize = self.rows.iter().sum::<u64>() as usize;
        let rankings: Vec<Vec<u64>> = self.d_ewma.tables.iter().map(DenseHeat::ranking).collect();
        let mut scratch = BudgetScratch::default();
        for budget in [0, 1, rng.gen_range(0..live as u64 + 2) as usize, live, all] {
            let dense = allocate_global_budget_dense(&self.d_ewma, &rankings, budget);
            assert_eq!(scratch.allocate(&self.ewma, budget), &dense[..]);
            assert_eq!(crate::allocate_global_budget(&self.ewma, budget), dense);
        }
        for (t, d) in self.d_ewma.tables.iter().enumerate() {
            let s = self.ewma.heat(t);
            assert_eq!(s.accessed_rows(), d.accessed_rows());
            assert!((0..self.rows[t]).all(|r| s.count(r) == d.counts[r as usize]));
            let ranking = &rankings[t];
            assert_eq!(&s.ranking(), ranking);

            let k = rng.gen_range(0..self.rows[t].min(300) + 1) as usize;
            let top_k: Vec<u64> = ranking
                .iter()
                .copied()
                .take(k)
                .filter(|&r| d.counts[r as usize] > 0)
                .collect();
            let built = TablePlacement::build(s, &PlacementPolicy::hot_rows(k));
            assert_eq!(built.hot_rows(), &top_k[..]);

            // An explicit hot set that is not a prefix of the ranking.
            let hot: Vec<u64> = (0..k)
                .map(|_| rng.gen_range(0..self.rows[t]))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let placed = TablePlacement::build_with_hot_rows(s, hot.clone());
            let cut = rng.gen_range(0..self.rows[t]);
            for range in [0..self.rows[t], 0..cut, cut..self.rows[t]] {
                if !range.is_empty() {
                    assert_eq!(
                        placed.pack_order(range.clone()),
                        pack_order_dense(ranking, &hot, range.clone())
                    );
                }
            }
        }
    }
}

/// Drives both implementations through `ops` operations of the adaptive
/// loop over tables of up to `2^rows_log2` rows, comparing after each.
fn assert_sparse_matches_dense(rows_log2: u32, tables: usize, ops: usize, seed: u64) {
    let mut rng = Xoshiro256::seed_from(seed);
    let rows: Vec<u64> = (0..tables)
        .map(|_| 1 + rng.gen_range(0..1u64 << rows_log2))
        .collect();
    let mut pair = Pair::new(rows);
    for _ in 0..ops {
        match rng.gen_range(0..6) {
            0..=2 => {
                // A request's worth of lookups: a small hot region (ties,
                // re-observed rows) and the long tail.
                let t = rng.gen_range(0..tables as u64) as usize;
                for _ in 0..rng.gen_range(0..40) {
                    let span = if rng.gen_bool(0.7) {
                        pair.rows[t].min(48)
                    } else {
                        pair.rows[t]
                    };
                    let n = WEIGHTS[rng.gen_range(0..5) as usize];
                    pair.observe(t, rng.gen_range(0..span), n);
                }
            }
            3 => {
                let t = rng.gen_range(0..tables as u64) as usize;
                let factor = FACTORS[rng.gen_range(0..4) as usize];
                pair.ewma.decay_table(t, factor);
                pair.d_ewma.decay_table(t, factor);
            }
            _ => pair.epoch(&mut rng),
        }
        pair.assert_touched_equal();
    }
    pair.assert_plans_equal(&mut rng);
    pair.epoch(&mut rng);
    pair.assert_plans_equal(&mut rng);
}

proptest::proptest! {
    /// Tables of 1 … 4 096 rows: long op sequences, every count small
    /// enough to decay to zero and come back.
    #[test]
    fn sparse_profiler_matches_the_dense_passes_op_by_op(
        rows_log2 in 0u32..13,
        tables in 1usize..4,
        ops in 1usize..60,
        seed in 0u64..u64::MAX,
    ) {
        assert_sparse_matches_dense(rows_log2, tables, ops, seed);
    }
}

/// The scale the live lists exist for: up to 2²⁰ rows a table, a few
/// thousand of them ever touched (the dense oracle is what takes the
/// time here).
#[test]
fn sparse_profiler_matches_the_dense_passes_at_a_million_rows() {
    assert_sparse_matches_dense(20, 2, 8, 0);
}
