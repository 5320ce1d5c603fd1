//! Freezing a heat profile into a placement plan.

use std::cmp::Reverse;
use std::ops::Range;

use recssd_sim::StaticPartition;

use crate::{FreqProfiler, TableHeat};

/// How much of each table the plan may pin into the host DRAM tier.
#[derive(Debug, Clone, Copy)]
pub struct PlacementPolicy {
    budget: Budget,
}

#[derive(Debug, Clone, Copy)]
enum Budget {
    Fraction(f64),
    Rows(usize),
}

impl PlacementPolicy {
    /// Pin the hottest `fraction` of each table's rows (0 disables the
    /// DRAM tier; packing still applies).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= fraction <= 1`.
    pub fn hot_fraction(fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "hot fraction must lie in [0, 1]"
        );
        PlacementPolicy {
            budget: Budget::Fraction(fraction),
        }
    }

    /// Pin at most `rows` hot rows per table (an absolute DRAM budget).
    pub fn hot_rows(rows: usize) -> Self {
        PlacementPolicy {
            budget: Budget::Rows(rows),
        }
    }

    /// The hot-row budget for a table of `rows` rows.
    pub fn budget_for(&self, rows: u64) -> usize {
        match self.budget {
            Budget::Fraction(f) => (f * rows as f64).round() as usize,
            Budget::Rows(n) => n.min(rows as usize),
        }
    }
}

/// The frozen placement of one table: which rows are DRAM-resident and
/// how the cold tail is ordered on flash.
#[derive(Debug, Clone)]
pub struct TablePlacement {
    rows: u64,
    /// Hot rows in descending heat order (tier-local row `j` of the DRAM
    /// tier's gather view holds parent row `hot_rows[j]`).
    hot_rows: Vec<u64>,
    /// Membership test for "resident in host DRAM" (never changes at
    /// inference time — the property that lets the router decide before
    /// issuing any device command).
    partition: StaticPartition,
    /// Global heat rank per row (0 = hottest); the packing key.
    heat_rank: Vec<u32>,
    /// Fraction of profiled accesses landing on the hot set.
    expected_hit_rate: f64,
}

impl TablePlacement {
    /// Builds the placement of one table under `policy`.
    ///
    /// The hot set is the `policy` budget's worth of hottest rows that
    /// were *actually accessed* during profiling (pinning never-accessed
    /// rows would spend DRAM on rows the profile says are dead).
    pub fn build(heat: &TableHeat, policy: &PlacementPolicy) -> Self {
        let budget = policy.budget_for(heat.rows());
        let ranking = heat.ranking();
        let hot_rows: Vec<u64> = ranking
            .iter()
            .copied()
            .take(budget)
            .filter(|&r| heat.count(r) > 0)
            .collect();
        TablePlacement::assemble(heat, &ranking, hot_rows)
    }

    /// Builds the placement of one table from an *explicit* hot set (in
    /// the order the DRAM tier should lay the rows out, hottest first).
    /// The online re-planning loop uses this when the hot set is not a
    /// pure top-k of the profile — e.g. keeping incumbent rows that the
    /// thin online sample merely failed to observe. Heat ranks (the
    /// packing key) still come from `heat`.
    ///
    /// # Panics
    ///
    /// Panics if a hot row is out of range.
    pub fn build_with_hot_rows(heat: &TableHeat, hot_rows: Vec<u64>) -> Self {
        let rows = heat.rows();
        assert!(
            hot_rows.iter().all(|&r| r < rows),
            "hot row out of range for a {rows}-row table"
        );
        TablePlacement::assemble(heat, &heat.ranking(), hot_rows)
    }

    fn assemble(heat: &TableHeat, ranking: &[u64], hot_rows: Vec<u64>) -> Self {
        let mut heat_rank = vec![0u32; ranking.len()];
        for (i, &r) in ranking.iter().enumerate() {
            heat_rank[r as usize] = i as u32;
        }
        // One selection is the source of truth: the membership partition
        // is built from the very rows the tier will hold.
        let partition =
            StaticPartition::from_hot_ids(hot_rows.iter().copied(), heat.accessed_rows());
        let hot_mass: u64 = hot_rows.iter().map(|&r| heat.count(r)).sum();
        let expected_hit_rate = if heat.total() == 0 {
            0.0
        } else {
            hot_mass as f64 / heat.total() as f64
        };
        TablePlacement {
            rows: heat.rows(),
            hot_rows,
            partition,
            heat_rank,
            expected_hit_rate,
        }
    }

    /// Rows in the placed table.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Hot rows in descending heat order.
    pub fn hot_rows(&self) -> &[u64] {
        &self.hot_rows
    }

    /// Number of DRAM-resident rows.
    pub fn hot_count(&self) -> usize {
        self.hot_rows.len()
    }

    /// `true` if `row` is pinned in the DRAM tier.
    pub fn is_hot(&self, row: u64) -> bool {
        self.partition.is_hot(row)
    }

    /// Fraction of profiled accesses the hot set would have absorbed —
    /// the DRAM tier's asymptotic hit rate on stationary traffic.
    pub fn expected_hit_rate(&self) -> f64 {
        self.expected_hit_rate
    }

    /// Frequency-ordered page packing of one row range (a shard's slice):
    /// returns range-local rows in *storage order* — the hottest cold
    /// rows first, so the still-accessed head of the cold tail shares
    /// flash pages under a dense layout, and the DRAM-resident hot rows
    /// last (flash copies that serving traffic never touches).
    ///
    /// The result is a permutation of `0..range.len()`: storage slot `s`
    /// holds range-local row `pack[s]`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty or exceeds the table.
    pub fn pack_order(&self, range: Range<u64>) -> Vec<u64> {
        assert!(
            range.start < range.end && range.end <= self.rows,
            "pack range {range:?} out of range for a {}-row table",
            self.rows
        );
        // One key per range-local row, computed once: the heat rank, with
        // a bit above it set on the hot rows (marked from the hot list, so
        // the comparator neither hashes nor leaves the key array). Ranks
        // are unique, hence so are the keys.
        const HOT: u64 = 1 << 32;
        let mut keys: Vec<u64> = self.heat_rank[range.start as usize..range.end as usize]
            .iter()
            .map(|&rank| u64::from(rank))
            .collect();
        for &r in &self.hot_rows {
            if range.contains(&r) {
                keys[(r - range.start) as usize] |= HOT;
            }
        }
        let mut rows: Vec<u64> = (0..range.end - range.start).collect();
        rows.sort_unstable_by_key(|&local| keys[local as usize]);
        rows
    }
}

/// The full multi-table plan: one [`TablePlacement`] per profiled table,
/// in profile order.
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    tables: Vec<TablePlacement>,
}

impl PlacementPlan {
    /// Freezes `profiler`'s counts into per-table placements.
    pub fn build(profiler: &FreqProfiler, policy: &PlacementPolicy) -> Self {
        PlacementPlan {
            tables: (0..profiler.tables())
                .map(|t| TablePlacement::build(profiler.heat(t), policy))
                .collect(),
        }
    }

    /// Builds a plan under one *global* DRAM row budget split across
    /// tables by marginal hit rate (see [`allocate_global_budget`]),
    /// instead of a fixed per-table fraction.
    pub fn build_global(profiler: &FreqProfiler, budget_rows: usize) -> Self {
        let budgets = allocate_global_budget(profiler, budget_rows);
        PlacementPlan {
            tables: budgets
                .into_iter()
                .enumerate()
                .map(|(t, k)| {
                    TablePlacement::build(profiler.heat(t), &PlacementPolicy::hot_rows(k))
                })
                .collect(),
        }
    }

    /// The placement of table `i` (profile order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn table(&self, i: usize) -> &TablePlacement {
        &self.tables[i]
    }

    /// Number of placed tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` if the plan places no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates the placements in profile order.
    pub fn iter(&self) -> impl Iterator<Item = &TablePlacement> {
        self.tables.iter()
    }

    /// Total DRAM-resident rows across tables.
    pub fn total_hot_rows(&self) -> usize {
        self.tables.iter().map(|t| t.hot_count()).sum()
    }
}

/// Splits one global DRAM row budget across `profiler`'s tables by
/// *marginal hit rate*: rows are granted in descending access-count order
/// across all tables at once, so each DRAM slot goes wherever it absorbs
/// the most device traffic (the RecNMP observation that hot-entry caching
/// should chase the global head, not a per-table quota). Never-accessed
/// rows are never granted. Ties break toward the lower table index, then
/// the smaller row id, so the split is deterministic.
///
/// Returns the per-table row budgets (in profile order); their sum is at
/// most `budget_rows`.
pub fn allocate_global_budget(profiler: &FreqProfiler, budget_rows: usize) -> Vec<usize> {
    BudgetScratch::default()
        .allocate(profiler, budget_rows)
        .to_vec()
}

/// Working memory of the global budget split, for callers that split at
/// every epoch: [`BudgetScratch::allocate`] is [`allocate_global_budget`]
/// without the per-call allocations.
#[derive(Debug, Default)]
pub struct BudgetScratch {
    /// `(count descending, table, row)` of every live row: the grant order
    /// is the natural order of the tuple.
    heads: Vec<(Reverse<u64>, usize, u64)>,
    budgets: Vec<usize>,
}

impl BudgetScratch {
    /// [`allocate_global_budget`] into this scratch. Only live rows can be
    /// granted, so the split selects the `budget_rows` first of them in
    /// grant order — no table is ranked, no row list sorted.
    pub fn allocate(&mut self, profiler: &FreqProfiler, budget_rows: usize) -> &[usize] {
        self.heads.clear();
        for t in 0..profiler.tables() {
            let heat = profiler.heat(t);
            self.heads.extend(
                heat.live_rows()
                    .iter()
                    .map(|&row| (Reverse(heat.count(row)), t, row)),
            );
        }
        if budget_rows < self.heads.len() {
            self.heads.select_nth_unstable(budget_rows);
            self.heads.truncate(budget_rows);
        }
        self.budgets.clear();
        self.budgets.resize(profiler.tables(), 0);
        for &(_, t, _) in &self.heads {
            self.budgets[t] += 1;
        }
        &self.budgets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiled(rows: u64, stream: impl IntoIterator<Item = u64>) -> FreqProfiler {
        let mut p = FreqProfiler::new();
        let t = p.add_table(rows);
        p.profile_stream(t, stream);
        p
    }

    #[test]
    fn hot_set_is_top_k_accessed_rows() {
        let p = profiled(10, [5, 5, 5, 2, 2, 8]);
        let plan = PlacementPlan::build(&p, &PlacementPolicy::hot_rows(2));
        let t = plan.table(0);
        assert_eq!(t.hot_rows(), &[5, 2]);
        assert!(t.is_hot(5) && t.is_hot(2) && !t.is_hot(8));
        assert!((t.expected_hit_rate() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn budget_never_pins_unaccessed_rows() {
        let p = profiled(100, [1, 1, 3]);
        // 50-row budget, but only two rows were ever touched.
        let plan = PlacementPlan::build(&p, &PlacementPolicy::hot_fraction(0.5));
        let t = plan.table(0);
        assert_eq!(t.hot_count(), 2);
        assert_eq!(t.hot_rows(), &[1, 3]);
        assert!((t.expected_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_fraction_disables_the_tier() {
        let p = profiled(10, [1, 2, 3]);
        let plan = PlacementPlan::build(&p, &PlacementPolicy::hot_fraction(0.0));
        assert_eq!(plan.table(0).hot_count(), 0);
        assert_eq!(plan.total_hot_rows(), 0);
    }

    #[test]
    fn pack_order_is_a_cold_first_heat_ordered_permutation() {
        // Heat: row 4 (3x), row 1 (2x), row 6 (1x); hot budget 1 pins 4.
        let p = profiled(8, [4, 4, 4, 1, 1, 6]);
        let plan = PlacementPlan::build(&p, &PlacementPolicy::hot_rows(1));
        let t = plan.table(0);
        let pack = t.pack_order(0..8);
        let mut sorted = pack.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "must be a permutation");
        // Cold rows by heat (1, 6, then untouched 0,2,3,5,7 by id), hot 4 last.
        assert_eq!(pack, vec![1, 6, 0, 2, 3, 5, 7, 4]);

        // A sub-range is local to its start.
        let pack = t.pack_order(4..8);
        assert_eq!(pack, vec![2, 1, 3, 0]); // local: 6→2 first, then 5,7 cold, 4→0 last
    }

    #[test]
    fn fraction_budget_rounds_on_table_size() {
        let pol = PlacementPolicy::hot_fraction(0.1);
        assert_eq!(pol.budget_for(4096), 410);
        assert_eq!(pol.budget_for(5), 1); // 0.5 rounds up
        assert_eq!(PlacementPolicy::hot_rows(7).budget_for(5), 5);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn fraction_above_one_rejected() {
        PlacementPolicy::hot_fraction(1.5);
    }

    #[test]
    fn global_budget_chases_marginal_hit_rate_across_tables() {
        // Table 0 is mildly hot, table 1 has a scorching head: a global
        // budget of 3 must grant table 1's two hottest rows plus the
        // single hottest row overall from table 0.
        let mut p = FreqProfiler::new();
        let a = p.add_table(10);
        let b = p.add_table(10);
        p.profile_stream(a, [1, 1, 1, 2, 2, 3]); // counts: 3, 2, 1
        p.profile_stream(
            b,
            std::iter::repeat_n(5, 10).chain(std::iter::repeat_n(6, 4)),
        ); // 10, 4
        let budgets = allocate_global_budget(&p, 3);
        assert_eq!(budgets, vec![1, 2]); // rows 5 (10), 6 (4), 1 (3)
        let plan = PlacementPlan::build_global(&p, 3);
        assert_eq!(plan.table(a).hot_rows(), &[1]);
        assert_eq!(plan.table(b).hot_rows(), &[5, 6]);
        // The greedy split maximises absorbed mass for 3 slots.
        let absorbed: f64 = 17.0 / 20.0;
        let total_mass = plan.table(a).expected_hit_rate() * 6.0 / 20.0
            + plan.table(b).expected_hit_rate() * 14.0 / 20.0;
        assert!((total_mass - absorbed).abs() < 1e-12);
    }

    #[test]
    fn global_budget_never_grants_unaccessed_rows() {
        let mut p = FreqProfiler::new();
        let a = p.add_table(100);
        let _b = p.add_table(100);
        p.profile_stream(a, [7, 7, 9]);
        let budgets = allocate_global_budget(&p, 50);
        assert_eq!(budgets, vec![2, 0], "only the two accessed rows granted");
    }

    #[test]
    #[should_panic(expected = "out of range for a")]
    fn pack_range_out_of_bounds_panics() {
        let p = profiled(4, [0]);
        PlacementPlan::build(&p, &PlacementPolicy::hot_rows(1))
            .table(0)
            .pack_order(0..5);
    }

    proptest::proptest! {
        /// The benchmark and the figures select hot sets with
        /// `StaticPartitionBuilder`, serving with `TablePlacement`: both
        /// take the top-k accessed rows by count, ties toward smaller ids.
        #[test]
        fn static_partition_and_table_placement_pick_the_same_hot_set(
            rows in 1u64..48,
            draws in proptest::collection::vec((0u64..48, 0u64..48), 0..200),
            k_raw in 0usize..1000,
        ) {
            // The min of two draws skews toward small ids; mixing skew with
            // ties exercises both halves of the ordering.
            let stream: Vec<u64> = draws.iter().map(|&(a, b)| a.min(b) % rows).collect();
            let k = k_raw % (rows as usize + 3);
            let mut builder = recssd_sim::StaticPartitionBuilder::new();
            builder.observe_all(stream.iter().copied());
            let partition = builder.build(k);
            let p = profiled(rows, stream);
            let placement = TablePlacement::build(p.heat(0), &PlacementPolicy::hot_rows(k));
            for row in 0..rows {
                proptest::prop_assert_eq!(partition.is_hot(row), placement.is_hot(row), "row {}", row);
            }
            proptest::prop_assert_eq!(partition.len(), placement.hot_count());
        }
    }
}
