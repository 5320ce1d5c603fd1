//! Locality analysis: reuse CDFs (Fig. 3) and page-cache sweeps (Fig. 4).

use std::collections::HashMap;

use recssd_sim::stats::HitStats;

use crate::set_assoc::SetAssocLru;

/// One point of a reuse CDF: after including the `pages` coldest-to-hotter
/// pages (ascending hit count, as the paper sorts them), `cum_fraction` of
/// all reuse hits are covered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReusePoint {
    /// Number of pages included (sorted by ascending hit count).
    pub pages: usize,
    /// Cumulative fraction of hits covered, in `[0, 1]`.
    pub cum_fraction: f64,
}

/// Computes the Fig. 3 reuse distribution: accesses are mapped to pages of
/// `granularity_bytes` (each row occupying `row_bytes`), per-page *hit*
/// counts are collected (an access beyond a page's first is a hit), pages
/// are sorted by ascending hit count and the cumulative hit fraction is
/// reported at each page rank.
///
/// Returns the per-page CDF (one point per touched page, ascending).
///
/// # Example
///
/// ```
/// use recssd_trace::analysis::reuse_cdf;
/// // Two rows per 8-byte page (4-byte rows): ids 0,1 share page 0.
/// let cdf = reuse_cdf(&[0, 1, 0, 1, 2], 8, 4);
/// let last = cdf.last().unwrap();
/// assert_eq!(last.cum_fraction, 1.0);
/// ```
///
/// # Panics
///
/// Panics if `granularity_bytes < row_bytes` or either is zero.
pub fn reuse_cdf(ids: &[u64], granularity_bytes: usize, row_bytes: usize) -> Vec<ReusePoint> {
    assert!(
        row_bytes > 0 && granularity_bytes >= row_bytes,
        "bad page sizes"
    );
    let rows_per_page = (granularity_bytes / row_bytes) as u64;
    let mut hits: HashMap<u64, u64> = HashMap::new();
    let mut seen: HashMap<u64, bool> = HashMap::new();
    for &id in ids {
        let page = id / rows_per_page;
        if seen.insert(page, true).is_some() {
            *hits.entry(page).or_insert(0) += 1;
        } else {
            hits.entry(page).or_insert(0);
        }
    }
    let mut counts: Vec<u64> = hits.values().copied().collect();
    counts.sort_unstable();
    let total: u64 = counts.iter().sum();
    let mut cum = 0u64;
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            cum += c;
            ReusePoint {
                pages: i + 1,
                cum_fraction: if total == 0 {
                    0.0
                } else {
                    cum as f64 / total as f64
                },
            }
        })
        .collect()
}

/// Fraction of reuse hits captured by the hottest `top_pages` pages —
/// the headline numbers of §3.1 ("a few hundred pages capture 30% of
/// reuses while caching a few thousand pages can extend reuse over 50%").
pub fn hot_page_coverage(cdf: &[ReusePoint], top_pages: usize) -> f64 {
    if cdf.is_empty() {
        return 0.0;
    }
    let n = cdf.len();
    if top_pages >= n {
        return 1.0;
    }
    // The CDF is sorted coldest-first, so the hottest `top_pages` cover
    // everything above the (n - top_pages)-th point.
    1.0 - cdf[n - top_pages - 1].cum_fraction
}

/// Runs the Fig. 4 experiment: an N-way LRU page cache of each capacity
/// over the trace, returning `(capacity_bytes, hit_rate)` pairs.
///
/// # Panics
///
/// Panics if sizes are zero or `granularity_bytes < row_bytes`.
pub fn page_cache_sweep(
    ids: &[u64],
    capacities_bytes: &[usize],
    ways: usize,
    granularity_bytes: usize,
    row_bytes: usize,
) -> Vec<(usize, f64)> {
    assert!(
        row_bytes > 0 && granularity_bytes >= row_bytes,
        "bad page sizes"
    );
    let rows_per_page = (granularity_bytes / row_bytes) as u64;
    capacities_bytes
        .iter()
        .map(|&cap| {
            let entries = (cap / granularity_bytes).max(1);
            let mut cache = SetAssocLru::new(entries, ways);
            let mut stats = HitStats::new();
            for &id in ids {
                if cache.access(id / rows_per_page) {
                    stats.hit();
                } else {
                    stats.miss();
                }
            }
            (cap, stats.hit_rate())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZipfTrace;

    #[test]
    fn reuse_cdf_basics() {
        // ids on 1-row pages: page 7 hit 3 extra times, page 8 once.
        let cdf = reuse_cdf(&[7, 7, 7, 7, 8, 8, 9], 4, 4);
        assert_eq!(cdf.len(), 3);
        let total_hits = 4.0; // 3 (page 7) + 1 (page 8) + 0 (page 9)
        assert_eq!(cdf[0].cum_fraction, 0.0 / total_hits);
        assert_eq!(cdf[1].cum_fraction, 1.0 / total_hits);
        assert_eq!(cdf[2].cum_fraction, 1.0);
    }

    #[test]
    fn coarser_granularity_merges_pages() {
        let ids = [0u64, 1, 2, 3];
        let fine = reuse_cdf(&ids, 4, 4); // 4 pages, zero hits
        let coarse = reuse_cdf(&ids, 16, 4); // 1 page, 3 hits
        assert_eq!(fine.len(), 4);
        assert_eq!(coarse.len(), 1);
        assert_eq!(coarse[0].cum_fraction, 1.0);
    }

    #[test]
    fn power_law_concentrates_reuse_in_few_pages() {
        // The Fig. 3 shape: a small fraction of pages covers a large
        // fraction of reuses.
        let mut z = ZipfTrace::new(1_000_000, 1.4, 11);
        let ids = z.take_ids(100_000);
        let cdf = reuse_cdf(&ids, 4096, 128);
        let total_pages = cdf.len();
        let hot_1pct = hot_page_coverage(&cdf, total_pages / 100);
        assert!(
            hot_1pct > 0.3,
            "1% of pages should cover >30% of reuses, got {hot_1pct:.3}"
        );
        assert_eq!(hot_page_coverage(&cdf, total_pages), 1.0);
    }

    #[test]
    fn cache_sweep_hit_rate_grows_with_capacity() {
        let mut z = ZipfTrace::new(100_000, 1.2, 3);
        let ids = z.take_ids(50_000);
        let sweep = page_cache_sweep(&ids, &[64 << 10, 1 << 20, 16 << 20], 16, 4096, 128);
        assert_eq!(sweep.len(), 3);
        assert!(sweep[0].1 <= sweep[1].1 && sweep[1].1 <= sweep[2].1);
        assert!(sweep[2].1 > sweep[0].1, "capacity must matter");
    }

    #[test]
    fn skew_spread_reproduces_figure_4_range() {
        // Fig. 4: across tables, hit rate of the same cache varies "from
        // under 10% to over 90%". The coldest production tables are
        // essentially uniform-random; the hottest are steeply skewed.
        let mut rng = recssd_sim::rng::Xoshiro256::seed_from(1);
        let ids_uniform: Vec<u64> = (0..40_000).map(|_| rng.gen_range(0..10_000_000)).collect();
        let ids_steep = ZipfTrace::new(10_000_000, 2.5, 1).take_ids(40_000);
        let cap = [1 << 20];
        let cold = page_cache_sweep(&ids_uniform, &cap, 16, 4096, 128)[0].1;
        let hot = page_cache_sweep(&ids_steep, &cap, 16, 4096, 128)[0].1;
        assert!(cold < 0.10, "uniform table should miss mostly: {cold:.3}");
        assert!(hot > 0.75, "steep skew should hit mostly: {hot:.3}");
    }

    /// The sweeps of the two tests above (and the first at 1, 4 and 64
    /// ways), pinned to the hit rates, as `f64` bits, that the generic
    /// set-associative cache this sweep once ran on produced: the
    /// key-only cache is the same N-way LRU, so Fig. 4 is bit-identical.
    #[test]
    fn sweep_matches_the_recorded_hit_rates() {
        let zipf = ZipfTrace::new(100_000, 1.2, 3).take_ids(50_000);
        let caps = [64 << 10, 1 << 20, 16 << 20];
        let mut got: Vec<u64> = Vec::new();
        for ways in [16, 1, 4, 64] {
            for (_, rate) in page_cache_sweep(&zipf, &caps, ways, 4096, 128) {
                got.push(rate.to_bits());
            }
        }
        let mut rng = recssd_sim::rng::Xoshiro256::seed_from(1);
        let uniform: Vec<u64> = (0..40_000).map(|_| rng.gen_range(0..10_000_000)).collect();
        let steep = ZipfTrace::new(10_000_000, 2.5, 1).take_ids(40_000);
        for ids in [&uniform, &steep] {
            got.push(
                page_cache_sweep(ids, &[1 << 20], 16, 4096, 128)[0]
                    .1
                    .to_bits(),
            );
        }
        let recorded: [u64; 14] = [
            0x3fd8985f06f69446,
            0x3fe6e4649906cca3,
            0x3fee31f8a0902de0,
            0x3fd69f6a93f290ac,
            0x3fe4c63f141205bc,
            0x3fec6f694467381d,
            0x3fd78feef5ec80c7,
            0x3fe6a0e410b630a9,
            0x3fedf8769ec2ce46,
            0x3fe1fddebd9018e7,
            0x3fe6f34d6a161e4f,
            0x3fee363b256ffc11,
            0x3f4a36e2eb1c432d,
            0x3fefee978d4fdf3b,
        ];
        assert_eq!(got, recorded);
    }

    #[test]
    fn empty_trace_is_fine() {
        assert!(reuse_cdf(&[], 4096, 128).is_empty());
        let sweep = page_cache_sweep(&[], &[4096], 16, 4096, 128);
        assert_eq!(sweep[0].1, 0.0);
    }
}
