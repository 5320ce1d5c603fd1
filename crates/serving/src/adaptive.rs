//! State and row-level decisions of the runtime's online adaptation loop
//! (the loop itself is `ServingRuntime::run_adaptive_epoch`).
//!
//! Everything here costs the rows an epoch *touched*: the profilers list
//! their live rows, the hot-set rebuild walks that list plus the pinned
//! rows and takes its budget by selection, and the working memory lives
//! in [`AdaptiveState`] across epochs.

use std::cmp::Reverse;

use recssd_placement::{BudgetScratch, FreqProfiler, TableHeat};

use crate::AdaptivePolicy;

/// Absolute drop in the active plan's hit mass (this epoch's fresh
/// counts vs the long-memory ranking) that declares a distribution
/// shift — the change-point trigger that lets a slow, well-sampled
/// ranking still react to a rotation within one epoch.
pub(crate) const DRIFT_RESET_DROP: f64 = 0.2;

/// Extra decay applied to the long-memory ranking when a shift is
/// detected: a *soft* flush. Rows that stayed hot across the shift
/// re-assert themselves immediately, while the displaced history is too
/// weak to outvote the new regime.
pub(crate) const DRIFT_FLUSH_DECAY: f64 = 0.2;

/// Weight of one observation in the adaptive profilers. Counts are
/// integers and the EWMA decay truncates, so unweighted small counts
/// would vanish after a single epoch; weighting keeps fractional decay
/// meaningful (16 → 12 → 9 → 7 … instead of 1 → 0).
pub(crate) const ADAPTIVE_WEIGHT: u64 = 16;

/// Minimum *weighted* count before a row can enter the hot set through
/// the adaptive loop: two full (undecayed) observations — one hit in a
/// thin online sample is statistically indistinguishable from an
/// incumbent row that merely went unobserved, and swapping them is pure
/// migration churn. Incumbent rows additionally win every tie.
pub(crate) const MIN_EVIDENCE: u64 = 2 * ADAPTIVE_WEIGHT;

/// One hot-set candidate; the natural order of the tuple is the rebuild's
/// total order: evidence descending, pinned rows (`false`) before
/// strangers (`true`), smaller row id.
pub(crate) type Candidate = (Reverse<u64>, bool, u64);

#[derive(Debug)]
pub(crate) struct AdaptiveState {
    pub policy: AdaptivePolicy,
    /// Long-memory ranking: `ewma = ewma * decay + fresh` per epoch.
    pub ewma: FreqProfiler,
    /// The current epoch's observations only.
    pub fresh: FreqProfiler,
    /// Served-table index per profiler table (profile order).
    pub tables: Vec<usize>,
    pub arrivals: u64,
    pub epochs: u64,
    /// Working memory of the epoch's budget split and hot-set rebuild.
    pub budget_scratch: BudgetScratch,
    pub cand: Vec<Candidate>,
    /// FNV-1a over every epoch's `(budget, hot set, refreshed?)` per
    /// table, folded in test builds only — what the golden test pins
    /// against the commit before the loop went sparse.
    pub decisions: u64,
}

impl AdaptiveState {
    /// State over tables of the given row counts (profile order =
    /// served-table order).
    pub fn new(policy: AdaptivePolicy, table_rows: impl Iterator<Item = u64>) -> Self {
        let mut ewma = FreqProfiler::new();
        let mut fresh = FreqProfiler::new();
        for rows in table_rows {
            ewma.add_table(rows);
            fresh.add_table(rows);
        }
        AdaptiveState {
            policy,
            tables: (0..ewma.tables()).collect(),
            ewma,
            fresh,
            arrivals: 0,
            epochs: 0,
            budget_scratch: BudgetScratch::default(),
            cand: Vec::new(),
            decisions: 0xcbf2_9ce4_8422_2325,
        }
    }
}

/// Folds one table's epoch decision into the `decisions` digest.
pub(crate) fn fold_decision(
    decisions: &mut u64,
    budget: usize,
    hot: &[Candidate],
    refreshed: bool,
) {
    let words = [budget as u64, hot.len() as u64]
        .into_iter()
        .chain(hot.iter().map(|c| c.2))
        .chain([refreshed as u64]);
    for b in words.flat_map(u64::to_le_bytes) {
        *decisions = (*decisions ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fraction of `heat`'s recorded accesses landing on `rows`.
pub(crate) fn hit_mass(heat: &TableHeat, rows: impl Iterator<Item = u64>) -> f64 {
    if heat.total() == 0 {
        return 0.0;
    }
    rows.map(|r| heat.count(r)).sum::<u64>() as f64 / heat.total() as f64
}

/// Rebuilds one table's hot set into `cand` (hottest first, at most
/// `budget` rows) with *evidence-aware incumbency*: a row enters on at
/// least [`MIN_EVIDENCE`] observations, and incumbent rows are never
/// displaced by mere absence of evidence — the online sample is thin, so
/// an unobserved pinned row and a one-hit stranger are statistically
/// indistinguishable, and swapping them is pure migration churn.
///
/// `pinned` lists the rows the active plan holds hot and `is_pinned`
/// tests membership of it. Only live and pinned rows can be candidates,
/// so those are all that is visited.
pub(crate) fn select_hot_set(
    heat: &TableHeat,
    pinned: &[u64],
    is_pinned: impl Fn(u64) -> bool,
    budget: usize,
    cand: &mut Vec<Candidate>,
) {
    cand.clear();
    cand.extend(heat.live_rows().iter().filter_map(|&row| {
        let c = heat.count(row);
        let evid = if c >= MIN_EVIDENCE { c } else { 0 };
        let pinned = is_pinned(row);
        (evid > 0 || pinned).then_some((Reverse(evid), !pinned, row))
    }));
    cand.extend(
        pinned
            .iter()
            .filter(|&&row| heat.count(row) == 0)
            .map(|&row| (Reverse(0), false, row)),
    );
    if budget < cand.len() {
        cand.select_nth_unstable(budget);
        cand.truncate(budget);
    }
    cand.sort_unstable();
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use recssd::SlsOptions;
    use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
    use recssd_sim::SimDuration;
    use recssd_trace::{DriftingZipf, RowStream};

    use super::*;
    use crate::{
        LoadGen, LoadMode, SchedulePolicy, ServingConfig, ServingRuntime, SlsPath, TrafficSpec,
    };

    /// The rebuild as it was: every row of the table filtered, one full
    /// stable sort, then the truncation.
    fn select_hot_set_dense(heat: &TableHeat, pinned: &HashSet<u64>, budget: usize) -> Vec<u64> {
        let mut cand: Vec<(u64, bool, u64)> = (0..heat.rows())
            .filter_map(|row| {
                let c = heat.count(row);
                let evid = if c >= MIN_EVIDENCE { c } else { 0 };
                let pinned = pinned.contains(&row);
                (evid > 0 || pinned).then_some((evid, pinned, row))
            })
            .collect();
        cand.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        cand.truncate(budget);
        cand.into_iter().map(|(_, _, row)| row).collect()
    }

    proptest::proptest! {
        /// Counts straddle `MIN_EVIDENCE` and tie heavily (a handful of
        /// distinct values), pinned rows are live, below evidence or
        /// never observed, budgets run from 0 past the candidate count.
        #[test]
        fn hot_set_matches_the_dense_rebuild(
            rows_log2 in 0u32..21,
            touched in 0usize..400,
            pinned_n in 0usize..200,
            budget_sel in 0u64..1_000,
            seed in 0u64..u64::MAX,
        ) {
            let rows = 1u64 << rows_log2;
            let mut rng = recssd_sim::rng::Xoshiro256::seed_from(seed);
            let mut prof = FreqProfiler::new();
            let t = prof.add_table(rows);
            for _ in 0..touched {
                let n = [0, ADAPTIVE_WEIGHT, MIN_EVIDENCE - 1, MIN_EVIDENCE, 3 * ADAPTIVE_WEIGHT]
                    [rng.gen_range(0..5) as usize];
                prof.observe_count(t, rng.gen_range(0..rows), n);
            }
            let pinned: HashSet<u64> = (0..pinned_n).map(|_| rng.gen_range(0..rows)).collect();
            let pinned_list: Vec<u64> = pinned.iter().copied().collect();
            let heat = prof.heat(t);
            // Every fourth case the budget covers the whole table.
            let budget = match budget_sel % 4 {
                0 => rows as usize,
                _ => (budget_sel % (rows + 2)) as usize,
            };
            let mut cand = vec![(Reverse(7), true, 7)]; // stale scratch
            select_hot_set(heat, &pinned_list, |r| pinned.contains(&r), budget, &mut cand);
            let hot: Vec<u64> = cand.iter().map(|c| c.2).collect();
            proptest::prop_assert_eq!(hot, select_hot_set_dense(heat, &pinned, budget));
        }
    }

    const GOLDEN_DRIFT_DECISIONS: u64 = 0x8b53_6d1c_4b7d_816c;

    /// The drift run of `tests/placement_equivalence.rs`
    /// (`adaptive_runtime_refreshes_under_drift_and_stays_exact`): every
    /// epoch's budgets, rebuilt hot sets and refresh decisions, as one
    /// digest recorded from the commit before the loop went sparse.
    #[test]
    fn drift_run_decisions_match_the_golden_digest() {
        let rows = 1024u64;
        let cfg = ServingConfig::small_wide(2, SchedulePolicy::Fifo).with_depth(2);
        let mut rt = ServingRuntime::new(&cfg);
        let table = EmbeddingTable::procedural(TableSpec::new(rows, 16, Quantization::F32), 11);
        let t = rt.add_table(table);
        rt.enable_adaptive(AdaptivePolicy {
            epoch_requests: 16,
            decay: 0.5,
            budget_rows: 128,
            min_hit_gain: 0.02,
        });
        let drift = DriftingZipf::new(rows, 1.3, 21, 64 * 16);
        let mut gen = LoadGen::new(
            &rt,
            vec![t],
            TrafficSpec {
                outputs: 4,
                lookups_per_output: 4,
                zipf_exponent: 1.3,
            },
            LoadMode::Closed {
                clients: 8,
                think: SimDuration::ZERO,
            },
            7,
        )
        .with_streams(vec![RowStream::Drifting(drift)]);
        gen.run(&mut rt, SlsPath::Ndp(SlsOptions::default()), 192);
        assert!(rt.stats().plan_refreshes.get() >= 2);
        assert_eq!(rt.adaptive_epochs(), 12);
        assert_eq!(rt.adaptive_decisions(), GOLDEN_DRIFT_DECISIONS);
    }
}
