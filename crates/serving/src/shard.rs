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
/// local rows per (local) output, each under the global output slot it
/// folds into.
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
    /// The lookups in one buffer: word 0 counts the local outputs, then
    /// each output is a header word — its global slot in the high half,
    /// its row count (never 0) in the low half — followed by its local
    /// rows ([`SubBatch::per_output`]). The runtime pools these buffers
    /// per shard index.
    pub ids: Vec<u64>,
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
    /// A first-attempt sub-batch of `owner`'s lookups `ids` (laid out as
    /// [`SubBatch::ids`]), untraced until the runtime gives it a span.
    pub fn new(owner: SubOwner, table: usize, plan: u32, path: SlsPath, ids: Vec<u64>) -> Self {
        SubBatch {
            owner,
            table,
            plan,
            path,
            ids,
            attempts: 0,
            span: SpanId::NONE,
            born: SimTime::ZERO,
            enqueued: SimTime::ZERO,
        }
    }

    /// The merge compatibility key.
    pub fn merge_key(&self) -> MergeKey {
        MergeKey {
            table: self.table,
            plan: self.plan,
            path: self.path,
            migration: matches!(self.owner, SubOwner::Migration(_)),
        }
    }

    /// Local outputs carried.
    pub fn outputs(&self) -> usize {
        self.ids[0] as usize
    }

    /// Total lookups carried.
    pub fn lookups(&self) -> usize {
        self.ids.len() - 1 - self.outputs()
    }

    /// `(global slot, local rows)` per local output, in slot order.
    pub fn per_output(&self) -> impl Iterator<Item = (usize, &[u64])> {
        let mut rest = &self.ids[1..];
        std::iter::from_fn(move || {
            let (&head, tail) = rest.split_first()?;
            let (rows, next) = tail.split_at((head & u64::from(u32::MAX)) as usize);
            rest = next;
            Some(((head >> 32) as usize, rows))
        })
    }
}

/// Appends `row` to output `slot` of `ids`, a sub-batch buffer laid out
/// as [`SubBatch::ids`]. `open` is the position of its last header (0
/// for none yet); a new header opens when that one is another slot's.
pub(crate) fn push_row(ids: &mut Vec<u64>, open: &mut usize, slot: usize, row: u64) {
    if *open == 0 || ids[*open] >> 32 != slot as u64 {
        *open = ids.len();
        ids.push((slot as u64) << 32);
        ids[0] += 1;
    }
    ids[*open] += 1;
    ids.push(row);
}

/// Reused staging of [`split_batch`]: per shard index, the sub-batch
/// being built (laid out as [`SubBatch::ids`]) and its open header.
#[derive(Debug, Default)]
pub(crate) struct SplitStage(Vec<(usize, Vec<u64>)>);

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

/// Splits `batch` (global rows) by owning shard into `stage`: one
/// sub-batch's lookups (laid out as [`SubBatch::ids`], each output's rows
/// in batch order) per device shard, plus — when `routing` carries a hot
/// set — one of the hot rows for the DRAM tier (index `map.shards()`,
/// always executed over [`SlsPath::Dram`], whatever the request's
/// `path`). Device-shard rows are translated to packed storage rows so
/// the frequency-ordered on-flash image is addressed correctly. Yields
/// `(shard index, path, lookups)` for every shard that owns at least one
/// looked-up row: the tier's first, then the device shards' in shard
/// order.
pub(crate) fn split_batch<'s>(
    map: &ShardMap,
    routing: Option<&Routing>,
    path: SlsPath,
    batch: &LookupBatch,
    stage: &'s mut SplitStage,
) -> impl Iterator<Item = (usize, SlsPath, &'s [u64])> {
    let tier = map.shards();
    stage.0.resize_with(tier + 1, Default::default);
    for (open, ids) in &mut stage.0 {
        *open = 0;
        ids.clear();
        ids.push(0);
    }
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
            let (open, ids) = &mut stage.0[shard];
            push_row(ids, open, slot, local);
        }
    }
    let (devices, tier_stage) = stage.0.split_at(tier);
    let tier_sub = (tier, SlsPath::Dram, &tier_stage[0].1[..]);
    let device_subs = devices.iter().enumerate();
    std::iter::once(tier_sub)
        .chain(device_subs.map(move |(ix, (_, ids))| (ix, path, &ids[..])))
        .filter(|(_, _, ids)| ids.len() > 1)
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

    /// One shard's part of a split, read back through [`SubBatch`]:
    /// `(shard index, path, [(global slot, local rows)])`.
    type Part = (usize, SlsPath, Vec<(usize, Vec<u64>)>);

    fn split(
        map: &ShardMap,
        routing: Option<&Routing>,
        path: SlsPath,
        batch: &LookupBatch,
    ) -> Vec<Part> {
        let mut stage = SplitStage::default();
        split_batch(map, routing, path, batch, &mut stage)
            .map(|(ix, path, ids)| {
                let sub = SubBatch::new(SubOwner::Request(0), 0, 0, path, ids.to_vec());
                let outputs: Vec<(usize, Vec<u64>)> =
                    sub.per_output().map(|(s, ids)| (s, ids.to_vec())).collect();
                assert_eq!(sub.outputs(), outputs.len());
                assert_eq!(sub.lookups(), outputs.iter().map(|(_, v)| v.len()).sum());
                (ix, path, outputs)
            })
            .collect()
    }

    fn lookups(parts: &[Part]) -> usize {
        let per_part = parts.iter().flat_map(|(_, _, outs)| outs);
        per_part.map(|(_, ids)| ids.len()).sum()
    }

    #[test]
    fn split_preserves_every_lookup() {
        let m = ShardMap::new(100, 3);
        let batch = LookupBatch::new(vec![vec![0, 50, 99, 50], vec![33, 34]]);
        let subs = split(&m, None, SlsPath::Dram, &batch);
        assert!(
            subs.iter().all(|(i, _, _)| *i < 3),
            "no routing, no tier sub-batch"
        );
        assert_eq!(lookups(&subs), batch.total_lookups());
        // Reassemble: every (global row, slot) pair appears exactly once
        // per occurrence.
        let mut pairs: Vec<(u64, u32)> = Vec::new();
        for (shard, _, outs) in &subs {
            let start = m.range(*shard).start;
            for (slot, ids) in outs {
                for &local in ids {
                    pairs.push((start + local, *slot as u32));
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
        let subs = split(&m, Some(&routing), ndp, &batch);
        // The tier (shard 2 of 2 devices) comes first, over the DRAM path.
        let shards: Vec<usize> = subs.iter().map(|(i, _, _)| *i).collect();
        assert_eq!(shards, vec![2, 0, 1]);
        assert_eq!(subs[0].2, vec![(0, vec![0])]);
        assert!(matches!(subs[0].1, SlsPath::Dram));
        // Row 0 → shard 0 local 0 → storage 4; row 9 → shard 1 local 4 → 0.
        assert_eq!(subs[1].2, vec![(0, vec![4])]);
        assert_eq!(subs[2].2, vec![(0, vec![0])]);
        assert!(subs[1..].iter().all(|(_, path, _)| *path == ndp));
        assert_eq!(lookups(&subs), batch.total_lookups());
    }

    #[test]
    fn queued_records_stay_small() {
        assert!(std::mem::size_of::<SubBatch>() <= 104);
    }

    /// The split written the obvious way: one list per (shard, output).
    fn nested_split(
        map: &ShardMap,
        routing: Option<&Routing>,
        path: SlsPath,
        batch: &LookupBatch,
    ) -> Vec<Part> {
        let tier = map.shards();
        let mut parts: Vec<Part> = (0..=tier)
            .map(|ix| {
                (
                    ix,
                    if ix == tier { SlsPath::Dram } else { path },
                    Vec::new(),
                )
            })
            .collect();
        for (slot, ids) in batch.per_output().iter().enumerate() {
            for &row in ids {
                let hot = routing.map(|r| r.hot_index[row as usize]);
                let (shard, local) = match hot {
                    Some(h) if h != COLD => (tier, u64::from(h)),
                    _ => {
                        let shard = map.shard_of(row);
                        let local = map.local_row(row);
                        let packed = routing.map(|r| u64::from(r.storage[shard][local as usize]));
                        (shard, packed.unwrap_or(local))
                    }
                };
                let outs = &mut parts[shard].2;
                match outs.last_mut() {
                    Some((s, rows)) if *s == slot => rows.push(local),
                    _ => outs.push((slot, vec![local])),
                }
            }
        }
        let tier_part = parts.pop().expect("tier part");
        std::iter::once(tier_part)
            .chain(parts)
            .filter(|(_, _, outs)| !outs.is_empty())
            .collect()
    }

    proptest::proptest! {
        /// The flat split gives every shard the same local rows, in the
        /// same per-output order, under the same global slots, as the
        /// nested reference, with and without a routing hot set.
        #[test]
        fn flat_split_equals_the_nested_one(
            lists in proptest::collection::vec(proptest::collection::vec(0u64..60, 1..17), 1..9),
            shards in 1usize..5,
            hot in proptest::collection::vec(0u64..60, 0..20),
            routed in proptest::bool::ANY,
            turn in 0u32..7,
        ) {
            let m = ShardMap::new(60, shards);
            let mut hot_index = vec![COLD; 60];
            let mut n_hot = 0;
            for &row in &hot {
                if hot_index[row as usize] == COLD {
                    hot_index[row as usize] = n_hot;
                    n_hot += 1;
                }
            }
            // Each shard's packed image is its rows rotated by `turn`.
            let storage = (0..shards)
                .map(|s| {
                    let n = m.range(s).end - m.range(s).start;
                    (0..n).map(|l| ((l + u64::from(turn)) % n) as u32).collect()
                })
                .collect();
            let routing = Routing { hot_index, storage };
            let routing = routed.then_some(&routing);
            let batch = LookupBatch::new(lists);
            let ndp = SlsPath::Ndp(SlsOptions::default());
            let flat = split(&m, routing, ndp, &batch);
            proptest::prop_assert_eq!(&flat, &nested_split(&m, routing, ndp, &batch));
            proptest::prop_assert_eq!(lookups(&flat), batch.total_lookups());
        }
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_shards_than_rows_rejected() {
        ShardMap::new(3, 4);
    }
}
