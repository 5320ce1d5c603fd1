//! The reference SparseLengthsSum operator.

use std::{fmt, ops::Index};

use crate::{EmbeddingTable, RowScratch};

/// One batch of embedding lookups against a single table: for each output
/// slot, the list of input rows whose vectors are summed.
///
/// This mirrors the Caffe2 `SparseLengthsSum` signature the paper offloads
/// (§4.1): a flat id list plus per-output lengths, in one buffer. The NDP
/// wire format flattens this into sorted `(input id, result id)` pairs —
/// see the `recssd` crate.
///
/// # Example
///
/// ```
/// use recssd_embedding::LookupBatch;
/// let batch = LookupBatch::new(vec![vec![1, 2], vec![3]]);
/// assert_eq!(batch.outputs(), 2);
/// assert_eq!(batch.total_lookups(), 3);
/// assert_eq!(batch.pairs(), vec![(1, 0), (2, 0), (3, 1)]);
/// assert_eq!(batch.per_output()[1], [3]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LookupBatch {
    /// `[outputs, end_0, …, end_{outputs-1}, ids…]`: output `i` is
    /// `ids[end_{i-1}..end_i]`.
    buf: Vec<u64>,
}

impl LookupBatch {
    /// Creates a batch from per-output row lists.
    ///
    /// # Panics
    ///
    /// Panics if there are no outputs or any output has no lookups.
    pub fn new(per_output: Vec<Vec<u64>>) -> Self {
        let len = 1 + per_output.len() + per_output.iter().map(Vec::len).sum::<usize>();
        let lists = per_output.iter().map(Vec::as_slice);
        Self::from_outputs(Vec::with_capacity(len), per_output.len(), lists)
    }

    /// [`LookupBatch::new`] from the `outputs` lists `ids` yields, in `buf`
    /// (cleared first): a recycled [`LookupBatch::into_buffer`] makes it
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// As [`LookupBatch::new`], and if `ids` yields other than `outputs`
    /// lists.
    pub fn from_outputs<'a>(
        mut buf: Vec<u64>,
        outputs: usize,
        ids: impl IntoIterator<Item = &'a [u64]>,
    ) -> Self {
        assert!(outputs > 0, "batch needs at least one output");
        buf.clear();
        // Word 0 is the count; the loop overwrites every end after it.
        buf.resize(1 + outputs, outputs as u64);
        let mut n = 0;
        for list in ids {
            assert!(!list.is_empty(), "every output needs at least one lookup");
            n += 1;
            assert!(n <= outputs, "more id lists than outputs");
            buf.extend_from_slice(list);
            buf[n] = (buf.len() - 1 - outputs) as u64;
        }
        assert_eq!(n, outputs, "fewer id lists than outputs");
        LookupBatch { buf }
    }

    /// A batch of `outputs` outputs of `lookups` rows each, drawn from
    /// `next` output by output, in one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` or `lookups` is zero.
    pub fn uniform(outputs: usize, lookups: usize, mut next: impl FnMut() -> u64) -> Self {
        assert!(outputs > 0, "batch needs at least one output");
        assert!(lookups > 0, "every output needs at least one lookup");
        let mut buf = Vec::with_capacity(1 + outputs + outputs * lookups);
        buf.push(outputs as u64);
        buf.extend((1..=outputs).map(|o| (o * lookups) as u64));
        buf.extend((0..outputs * lookups).map(|_| next()));
        LookupBatch { buf }
    }

    /// The batch's buffer, for [`LookupBatch::from_outputs`] to reuse.
    pub fn into_buffer(self) -> Vec<u64> {
        self.buf
    }

    /// Number of output (reduced) vectors.
    pub fn outputs(&self) -> usize {
        self.buf[0] as usize
    }

    /// Total lookups across all outputs.
    pub fn total_lookups(&self) -> usize {
        self.buf.len() - 1 - self.outputs()
    }

    /// Every output's rows, concatenated in output order.
    pub fn ids(&self) -> &[u64] {
        &self.buf[1 + self.outputs()..]
    }

    /// The row lists per output, indexed and iterated as a slice of lists.
    pub fn per_output(&self) -> PerOutput<'_> {
        let (ends, ids) = self.buf[1..].split_at(self.outputs());
        PerOutput { ends, ids }
    }

    /// Flattens into `(input row, output slot)` pairs sorted by input row
    /// — the wire format of the NDP config command. §4.3: "Adding a
    /// restriction that this list be sorted by input ID enables more
    /// efficient processing on the SSD system."
    pub fn pairs(&self) -> Vec<(u64, u32)> {
        let mut pairs = Vec::new();
        self.pairs_into(&mut pairs);
        pairs
    }

    /// [`LookupBatch::pairs`] into a caller-supplied buffer (cleared
    /// first), so a pooled vector makes steady-state flattening
    /// allocation-free.
    pub fn pairs_into(&self, out: &mut Vec<(u64, u32)>) {
        out.clear();
        out.reserve(self.total_lookups());
        for (slot, ids) in self.per_output().iter().enumerate() {
            out.extend(ids.iter().map(|&id| (id, slot as u32)));
        }
        out.sort_unstable();
    }

    /// Every distinct row referenced, ascending.
    pub fn distinct_rows(&self) -> Vec<u64> {
        let mut rows = self.ids().to_vec();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

impl fmt::Debug for LookupBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lists: Vec<&[u64]> = self.per_output().iter().collect();
        f.debug_struct("LookupBatch")
            .field("per_output", &lists)
            .finish()
    }
}

/// The row lists of a [`LookupBatch`] ([`LookupBatch::per_output`]).
#[derive(Debug, Clone, Copy)]
pub struct PerOutput<'a> {
    ends: &'a [u64],
    ids: &'a [u64],
}

impl<'a> PerOutput<'a> {
    /// The lists in output order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u64]> + 'a {
        let (ends, ids) = (self.ends, self.ids);
        let starts = std::iter::once(&0).chain(ends);
        starts
            .zip(ends)
            .map(move |(&s, &e)| &ids[s as usize..e as usize])
    }
}

impl Index<usize> for PerOutput<'_> {
    type Output = [u64];

    fn index(&self, i: usize) -> &[u64] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.ids[start as usize..self.ends[i] as usize]
    }
}

/// The golden SLS: for each output slot, the f32 sum of the (quantisation
/// round-tripped) rows. Every accelerated path must reproduce this.
///
/// # Panics
///
/// Panics if any row index exceeds the table.
///
/// # Example
///
/// ```
/// use recssd_embedding::{sls_reference, EmbeddingTable, LookupBatch, Quantization, TableSpec};
/// let t = EmbeddingTable::dense(
///     TableSpec::new(3, 2, Quantization::F32),
///     vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0],
/// );
/// let out = sls_reference(&t, &LookupBatch::new(vec![vec![0, 2]]));
/// assert_eq!(out, vec![vec![101.0, 202.0]]);
/// ```
pub fn sls_reference(table: &EmbeddingTable, batch: &LookupBatch) -> Vec<Vec<f32>> {
    let dim = table.spec().dim;
    let mut flat = vec![0.0f32; batch.outputs() * dim];
    sls_reference_into(table, batch, &mut flat);
    flat.chunks_exact(dim).map(|c| c.to_vec()).collect()
}

/// [`sls_reference`] into a flat `outputs × dim` accumulator (zeroed
/// first), allocating nothing per lookup — the form the host runtime's
/// DRAM path uses.
///
/// # Panics
///
/// Panics if `out.len() != batch.outputs() * dim` or any row index
/// exceeds the table.
pub fn sls_reference_into(table: &EmbeddingTable, batch: &LookupBatch, out: &mut [f32]) {
    sls_reference_with(table, batch, &mut RowScratch::default(), out);
}

/// [`sls_reference_into`] through a caller-owned [`RowScratch`], so a
/// runtime issuing many reference gathers (the DRAM path) reuses one
/// scratch instead of allocating per operator.
///
/// # Panics
///
/// Panics if `out.len() != batch.outputs() * dim` or any row index
/// exceeds the table.
pub fn sls_reference_with(
    table: &EmbeddingTable,
    batch: &LookupBatch,
    scratch: &mut RowScratch,
    out: &mut [f32],
) {
    let dim = table.spec().dim;
    assert_eq!(
        out.len(),
        batch.outputs() * dim,
        "flat output has wrong length"
    );
    out.fill(0.0);
    for (slot, ids) in batch.per_output().iter().enumerate() {
        let acc = &mut out[slot * dim..(slot + 1) * dim];
        for &id in ids {
            table.accumulate_row(id, scratch, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Quantization, TableSpec};

    #[test]
    fn pairs_are_sorted_by_input_id() {
        let b = LookupBatch::new(vec![vec![9, 1], vec![5, 1]]);
        assert_eq!(b.pairs(), vec![(1, 0), (1, 1), (5, 1), (9, 0)]);
        assert_eq!(b.distinct_rows(), vec![1, 5, 9]);
    }

    #[test]
    fn reference_sums_rows() {
        let t = EmbeddingTable::dense(
            TableSpec::new(4, 3, Quantization::F32),
            vec![
                1.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, //
                0.0, 0.0, 1.0, //
                1.0, 1.0, 1.0,
            ],
        );
        let out = sls_reference(&t, &LookupBatch::new(vec![vec![0, 1, 2], vec![3, 3]]));
        assert_eq!(out[0], vec![1.0, 1.0, 1.0]);
        assert_eq!(out[1], vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn procedural_sums_are_order_independent() {
        // Grid values make f32 addition exact, so any permutation of the
        // lookup order gives bit-identical sums — the property the NDP
        // correctness tests rely on.
        let t = EmbeddingTable::procedural(TableSpec::new(1000, 32, Quantization::F32), 3);
        let ids: Vec<u64> = (0..200).map(|i| (i * 37) % 1000).collect();
        let fwd = sls_reference(&t, &LookupBatch::new(vec![ids.clone()]));
        let mut rev_ids = ids;
        rev_ids.reverse();
        let rev = sls_reference(&t, &LookupBatch::new(vec![rev_ids]));
        assert_eq!(fwd, rev);
    }

    #[test]
    fn duplicate_ids_count_twice() {
        let t = EmbeddingTable::dense(TableSpec::new(1, 1, Quantization::F32), vec![2.5]);
        let out = sls_reference(&t, &LookupBatch::new(vec![vec![0, 0, 0]]));
        assert_eq!(out[0], vec![7.5]);
    }

    #[test]
    fn a_batch_is_one_buffer_of_at_most_three_words() {
        assert!(std::mem::size_of::<LookupBatch>() <= 24);
        let b = LookupBatch::uniform(2, 3, {
            let mut next = 10;
            move || {
                next += 1;
                next
            }
        });
        assert_eq!(
            b,
            LookupBatch::new(vec![vec![11, 12, 13], vec![14, 15, 16]])
        );
        assert_eq!(b.ids(), [11, 12, 13, 14, 15, 16]);
        // A recycled buffer builds the same batch.
        let mut buf = b.clone().into_buffer();
        buf.push(99);
        let again = LookupBatch::from_outputs(buf, 2, b.per_output().iter());
        assert_eq!(again, b);
        assert_eq!(
            format!("{b:?}"),
            "LookupBatch { per_output: [[11, 12, 13], [14, 15, 16]] }"
        );
    }

    proptest::proptest! {
        /// The flat batch hands back exactly the lists it was built from,
        /// whichever way it is read.
        #[test]
        fn per_output_yields_the_lists_it_was_built_from(
            lists in proptest::collection::vec(proptest::collection::vec(0u64..1000, 1..17), 1..9),
        ) {
            let b = LookupBatch::new(lists.clone());
            let view = b.per_output();
            let read: Vec<Vec<u64>> = view.iter().map(<[u64]>::to_vec).collect();
            proptest::prop_assert_eq!(&read, &lists);
            for (i, list) in lists.iter().enumerate() {
                proptest::prop_assert_eq!(&view[i], &list[..]);
            }
            proptest::prop_assert_eq!(b.total_lookups(), lists.iter().map(Vec::len).sum::<usize>());
            let flat: Vec<u64> = lists.concat();
            proptest::prop_assert_eq!(b.ids(), &flat[..]);
        }
    }

    #[test]
    #[should_panic(expected = "fewer id lists")]
    fn from_outputs_checks_the_count() {
        LookupBatch::from_outputs(Vec::new(), 2, [&[1u64][..]]);
    }

    #[test]
    #[should_panic(expected = "at least one output")]
    fn empty_batch_panics() {
        LookupBatch::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one lookup")]
    fn empty_output_panics() {
        LookupBatch::new(vec![vec![1], vec![]]);
    }
}
