//! Row-range sharding of embedding tables across devices.
//!
//! Each logical table is split into contiguous row ranges, one per shard;
//! shard `i` registers `table.slice(range_i)` with its own simulated
//! [`recssd::System`], so a global row `r` lives at local row
//! `r - range_i.start` on exactly one device. An incoming lookup batch is
//! split into per-shard *sub-batches* carrying local rows plus the global
//! output slot each local output folds into. Under a placement, the hot
//! rows go to the host DRAM tier instead: shard `n` after the `n` device
//! shards, addressed by tier-local rows.

use recssd::{LookupBatch, SlsPath, SpanId};
use recssd_sim::SimTime;

/// An even partition of `rows` into `shards` contiguous ranges (the first
/// `rows % shards` ranges get one extra row).
///
/// # Example
///
/// ```
/// use recssd_serving::ShardMap;
/// let m = ShardMap::new(10, 3);
/// assert_eq!(m.range(0), 0..4);
/// assert_eq!(m.range(1), 4..7);
/// assert_eq!(m.range(2), 7..10);
/// assert_eq!(m.shard_of(6), 1);
/// assert_eq!(m.local_row(6), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    rows: u64,
    shards: usize,
}

impl ShardMap {
    /// Creates a map of `rows` over `shards` ranges.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `rows` (an empty shard would
    /// serve nothing).
    pub fn new(rows: u64, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            shards as u64 <= rows,
            "cannot split {rows} rows over {shards} shards"
        );
        ShardMap { rows, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total rows sharded.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    fn base(&self) -> u64 {
        self.rows / self.shards as u64
    }

    fn rem(&self) -> u64 {
        self.rows % self.shards as u64
    }

    /// The contiguous row range owned by `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn range(&self, shard: usize) -> std::ops::Range<u64> {
        assert!(shard < self.shards, "shard out of range");
        let (base, rem) = (self.base(), self.rem());
        let s = shard as u64;
        let start = s * base + s.min(rem);
        let len = base + u64::from(s < rem);
        start..start + len
    }

    /// The shard owning global `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn shard_of(&self, row: u64) -> usize {
        assert!(row < self.rows, "row out of range");
        let (base, rem) = (self.base(), self.rem());
        let fat = rem * (base + 1);
        if row < fat {
            (row / (base + 1)) as usize
        } else {
            (rem + (row - fat) / base) as usize
        }
    }

    /// The row index local to its owning shard.
    #[inline]
    pub fn local_row(&self, row: u64) -> u64 {
        row - self.range(self.shard_of(row)).start
    }
}

/// Whose partial sums a sub-batch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubOwner {
    /// A client request (by request id).
    Request(u64),
    /// Plan-migration work for the given served table: promoted rows
    /// being read off the device or loaded into the DRAM tier. Outputs
    /// are discarded; completion advances the table's pending plan.
    Migration(usize),
}

/// One shard's slice of a request — a device shard's or the DRAM tier's:
/// local rows per (local) output, plus the global output slot each folds
/// into.
#[derive(Debug, Clone)]
pub(crate) struct SubBatch {
    /// Whose work this is.
    pub owner: SubOwner,
    /// Logical (served) table index.
    pub table: usize,
    /// The plan slot (0 or 1, of the served table's two) this sub-batch
    /// was split under. Local rows are meaningless under any other plan,
    /// and a slot is only re-bound once its plan has drained, so merging
    /// and device-table resolution key on it — the double-buffering that
    /// lets an old plan drain while a new one admits.
    pub plan: u32,
    /// Execution path (merge compatibility key with `table`).
    pub path: SlsPath,
    /// Local rows per local output slot (every entry non-empty).
    pub per_output: Vec<Vec<u64>>,
    /// Global output slot per local output.
    pub slots: Vec<u32>,
    /// Times this sub-batch has been dispatched and failed (drives the
    /// retry/backoff/fallback policy; 0 on first dispatch).
    pub attempts: u32,
    /// Trace span pre-allocated when the sub-batch is split off (at
    /// admission, or at refresh for migration work) and emitted once, by
    /// the runtime's `retire_sub`, as it leaves flight: merged, late,
    /// dropped or migration. `SpanId::NONE` untraced.
    pub span: SpanId,
    /// When the sub-batch was split off its request (= the arrival
    /// instant; migration subs are born at refresh time).
    pub born: SimTime,
    /// When it last entered a shard queue through the runtime's
    /// `queue_sub` (retries included) — the start of the traced
    /// `sub:wait` window.
    pub enqueued: SimTime,
}

/// Merge compatibility key: sub-batches coalesce only when they target
/// the same table under the same plan slot over the same path, and
/// migration work never merges into client operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MergeKey {
    pub table: usize,
    pub plan: u32,
    pub path: SlsPath,
    pub migration: bool,
}

impl SubBatch {
    /// The merge compatibility key.
    pub fn merge_key(&self) -> MergeKey {
        MergeKey {
            table: self.table,
            plan: self.plan,
            path: self.path,
            migration: matches!(self.owner, SubOwner::Migration(_)),
        }
    }

    /// Total lookups carried.
    pub fn lookups(&self) -> usize {
        self.per_output.iter().map(|v| v.len()).sum()
    }
}

/// Sentinel in [`Routing::hot_index`] marking a row as cold
/// (device-resident).
pub(crate) const COLD: u32 = u32::MAX;

/// Placement routing state of one served table, frozen from a
/// [`recssd_placement::TablePlacement`] when the table is registered.
#[derive(Debug)]
pub(crate) struct Routing {
    /// Global row → tier-local row of the DRAM tier's gather view
    /// (position within the plan's heat-ordered hot list), dense per row
    /// with [`COLD`] for device-resident rows — the split consults this
    /// once per lookup, so it is an array access, not a hash probe.
    pub hot_index: Vec<u32>,
    /// Per device shard: shard-local logical row → packed storage row of
    /// the frequency-ordered on-flash image.
    pub storage: Vec<Vec<u32>>,
}

/// Splits `batch` (global rows) into per-shard sub-batches, plus — when
/// `routing` carries a hot set — a DRAM-tier sub-batch of the hot rows
/// (always executed over [`SlsPath::Dram`], whatever the request path).
/// Device-shard rows are translated to packed storage rows so the
/// frequency-ordered on-flash image is addressed correctly. Returns one
/// `(shard index, sub-batch)` entry per shard that owns at least one
/// looked-up row: the tier's (index `map.shards()`) first, then the
/// device shards' in shard order.
pub(crate) fn split_batch(
    map: &ShardMap,
    routing: Option<&Routing>,
    req: u64,
    table: usize,
    plan: u32,
    path: SlsPath,
    batch: &LookupBatch,
) -> Vec<(usize, SubBatch)> {
    let tier = map.shards();
    let mut per_shard: Vec<Option<SubBatch>> = (0..=tier).map(|_| None).collect();
    for (slot, ids) in batch.per_output().iter().enumerate() {
        for &row in ids {
            let (shard, local) = match routing {
                Some(r) => match r.hot_index[row as usize] {
                    COLD => {
                        let shard = map.shard_of(row);
                        let local = r.storage[shard][map.local_row(row) as usize];
                        (shard, u64::from(local))
                    }
                    hot => (tier, u64::from(hot)),
                },
                None => (map.shard_of(row), map.local_row(row)),
            };
            let sub = per_shard[shard].get_or_insert_with(|| SubBatch {
                owner: SubOwner::Request(req),
                table,
                plan,
                path: if shard == tier { SlsPath::Dram } else { path },
                per_output: Vec::new(),
                slots: Vec::new(),
                attempts: 0,
                span: SpanId::NONE,
                born: SimTime::ZERO,
                enqueued: SimTime::ZERO,
            });
            if sub.slots.last() != Some(&(slot as u32)) {
                sub.slots.push(slot as u32);
                sub.per_output.push(Vec::new());
            }
            sub.per_output.last_mut().expect("just ensured").push(local);
        }
    }
    let tier_sub = per_shard.pop().flatten().map(|s| (tier, s));
    let device_subs = per_shard
        .into_iter()
        .enumerate()
        .filter_map(|(shard, sub)| sub.map(|s| (shard, s)));
    tier_sub.into_iter().chain(device_subs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recssd::SlsOptions;

    #[test]
    fn ranges_cover_rows_exactly_once() {
        for (rows, shards) in [(10u64, 1usize), (10, 3), (7, 7), (1000, 4), (5, 2)] {
            let m = ShardMap::new(rows, shards);
            let mut next = 0;
            for s in 0..shards {
                let r = m.range(s);
                assert_eq!(r.start, next, "gap before shard {s}");
                assert!(!r.is_empty(), "empty shard {s}");
                next = r.end;
            }
            assert_eq!(next, rows);
            for row in 0..rows {
                let s = m.shard_of(row);
                assert!(m.range(s).contains(&row));
                assert_eq!(m.range(s).start + m.local_row(row), row);
            }
        }
    }

    #[test]
    fn split_preserves_every_lookup() {
        let m = ShardMap::new(100, 3);
        let batch = LookupBatch::new(vec![vec![0, 50, 99, 50], vec![33, 34]]);
        let subs = split_batch(&m, None, 7, 0, 0, SlsPath::Dram, &batch);
        assert!(
            subs.iter().all(|(i, _)| *i < 3),
            "no routing, no tier sub-batch"
        );
        let total: usize = subs.iter().map(|(_, s)| s.lookups()).sum();
        assert_eq!(total, batch.total_lookups());
        // Reassemble: every (global row, slot) pair appears exactly once
        // per occurrence.
        let mut pairs: Vec<(u64, u32)> = Vec::new();
        for (shard, sub) in &subs {
            let start = m.range(*shard).start;
            for (ids, &slot) in sub.per_output.iter().zip(&sub.slots) {
                for &local in ids {
                    pairs.push((start + local, slot));
                }
            }
        }
        pairs.sort_unstable();
        assert_eq!(
            pairs,
            vec![(0, 0), (33, 1), (34, 1), (50, 0), (50, 0), (99, 0)]
        );
    }

    #[test]
    fn routed_split_sends_hot_rows_to_the_tier_and_packs_cold_rows() {
        // Shards: 0..5, 5..10. Row 7 is hot (tier-local 0); storage is
        // reversed within each shard.
        let m = ShardMap::new(10, 2);
        let mut hot_index = vec![COLD; 10];
        hot_index[7] = 0;
        let routing = Routing {
            hot_index,
            storage: vec![vec![4, 3, 2, 1, 0], vec![4, 3, 2, 1, 0]],
        };
        let batch = LookupBatch::new(vec![vec![7, 0, 9]]);
        let ndp = SlsPath::Ndp(SlsOptions::default());
        let subs = split_batch(&m, Some(&routing), 1, 0, 0, ndp, &batch);
        // The tier (shard 2 of 2 devices) comes first, over the DRAM path.
        let shards: Vec<usize> = subs.iter().map(|(i, _)| *i).collect();
        assert_eq!(shards, vec![2, 0, 1]);
        assert_eq!(subs[0].1.per_output, vec![vec![0]]);
        assert!(matches!(subs[0].1.path, SlsPath::Dram));
        // Row 0 → shard 0 local 0 → storage 4; row 9 → shard 1 local 4 → 0.
        assert_eq!(subs[1].1.per_output, vec![vec![4]]);
        assert_eq!(subs[2].1.per_output, vec![vec![0]]);
        assert!(subs[1..].iter().all(|(_, s)| s.path == ndp));
        let total: usize = subs.iter().map(|(_, s)| s.lookups()).sum();
        assert_eq!(total, batch.total_lookups());
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_shards_than_rows_rejected() {
        ShardMap::new(3, 4);
    }
}
