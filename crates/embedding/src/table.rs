//! Table specifications and contents.
//!
//! Contents have one per-element *definition*,
//! [`EmbeddingTable::raw_value`] followed by [`Quantization::encode`], and
//! one *implementation* for whole rows: a streamed pass that resolves the
//! view and the source once per row and then generates elements in a
//! plain loop (F32 straight into the encoded bytes). Page fills, the DRAM
//! gather and `sls_reference` all run the streamed pass;
//! `tests/row_generator.rs` holds it to the definition bit for bit.

use std::fmt;
use std::sync::Arc;

use recssd_sim::rng::mix64;

use crate::Quantization;

/// Identifier of an embedding table within a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table{}", self.0)
    }
}

/// Shape and storage format of one embedding table.
///
/// # Example
///
/// ```
/// use recssd_embedding::{Quantization, TableSpec};
/// // The Table 1 / RM1 configuration: 1M rows of 32 features.
/// let spec = TableSpec::new(1_000_000, 32, Quantization::F32);
/// assert_eq!(spec.row_bytes(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableSpec {
    /// Number of rows (embedding vectors).
    pub rows: u64,
    /// Features per vector.
    pub dim: usize,
    /// Element storage format.
    pub quant: Quantization,
}

impl TableSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `dim` is zero.
    pub fn new(rows: u64, dim: usize, quant: Quantization) -> Self {
        assert!(rows > 0, "table must have rows");
        assert!(dim > 0, "vectors must have features");
        TableSpec { rows, dim, quant }
    }

    /// Encoded bytes per row.
    pub fn row_bytes(&self) -> usize {
        self.quant.row_bytes(self.dim)
    }
}

/// Where a table's values come from.
#[derive(Clone)]
pub enum TableSource {
    /// Deterministic hash-generated values on the grid k/64,
    /// k ∈ [−128, 128): no memory footprint, exact f32 summation.
    Procedural {
        /// Seed decorrelating tables from each other.
        seed: u64,
    },
    /// Explicit row-major values (tests and user data).
    Dense(Arc<Vec<f32>>),
}

impl fmt::Debug for TableSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableSource::Procedural { seed } => {
                f.debug_struct("Procedural").field("seed", seed).finish()
            }
            TableSource::Dense(v) => f.debug_struct("Dense").field("values", &v.len()).finish(),
        }
    }
}

/// An embedding table: spec plus contents.
///
/// # Example
///
/// ```
/// use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
/// let t = EmbeddingTable::procedural(TableSpec::new(100, 8, Quantization::F32), 42);
/// let row = t.row_f32(7);
/// assert_eq!(row.len(), 8);
/// // Values lie on the exact-summation grid.
/// assert!(row.iter().all(|v| (v * 64.0).fract() == 0.0 && v.abs() < 2.0));
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    spec: TableSpec,
    source: TableSource,
    /// Offset added to row indices before consulting `source`: a slice
    /// created by [`EmbeddingTable::slice`] views rows
    /// `base_row..base_row + spec.rows` of the parent table.
    base_row: u64,
    /// Row indirection applied *before* `base_row`: a gather view created
    /// by [`EmbeddingTable::select`] stores at local row `j` the contents
    /// of parent row `base_row + remap[j]`.
    remap: Option<Arc<Vec<u64>>>,
}

impl EmbeddingTable {
    /// A table with hash-generated contents.
    pub fn procedural(spec: TableSpec, seed: u64) -> Self {
        EmbeddingTable {
            spec,
            source: TableSource::Procedural { seed },
            base_row: 0,
            remap: None,
        }
    }

    /// A table with explicit row-major values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * dim`.
    pub fn dense(spec: TableSpec, values: Vec<f32>) -> Self {
        assert_eq!(
            values.len() as u64,
            spec.rows * spec.dim as u64,
            "dense table has wrong element count"
        );
        EmbeddingTable {
            spec,
            source: TableSource::Dense(Arc::new(values)),
            base_row: 0,
            remap: None,
        }
    }

    /// A zero-copy row-range view: local row `j` of the slice holds the
    /// exact contents of row `range.start + j` of this table. This is the
    /// primitive behind row-range sharding — each shard registers a slice
    /// of the full table, so shard-local lookups are bit-identical to the
    /// parent's rows.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the table.
    ///
    /// # Example
    ///
    /// ```
    /// use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
    /// let t = EmbeddingTable::procedural(TableSpec::new(100, 8, Quantization::F32), 3);
    /// let s = t.slice(40..60);
    /// assert_eq!(s.spec().rows, 20);
    /// assert_eq!(s.row_f32(5), t.row_f32(45));
    /// ```
    pub fn slice(&self, range: std::ops::Range<u64>) -> EmbeddingTable {
        assert!(
            range.start < range.end && range.end <= self.spec.rows,
            "slice {range:?} out of range for a {}-row table",
            self.spec.rows
        );
        let spec = TableSpec {
            rows: range.end - range.start,
            ..self.spec
        };
        match &self.remap {
            // A contiguous slice of a gather view is itself a (smaller)
            // gather view over the same base.
            Some(m) => EmbeddingTable {
                spec,
                source: self.source.clone(),
                base_row: self.base_row,
                remap: Some(Arc::new(
                    m[range.start as usize..range.end as usize].to_vec(),
                )),
            },
            None => EmbeddingTable {
                spec,
                source: self.source.clone(),
                base_row: self.base_row + range.start,
                remap: None,
            },
        }
    }

    /// A zero-copy *gather* view: local row `j` of the view holds the
    /// exact contents of row `rows[j]` of this table. Rows may appear in
    /// any order (and may repeat), which makes this the primitive behind
    /// frequency-ordered placement — a packed on-flash image stores the
    /// same vectors as the logical table, just at permuted storage rows,
    /// and a host DRAM tier views exactly the pinned hot rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or any index is out of range.
    ///
    /// # Example
    ///
    /// ```
    /// use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
    /// let t = EmbeddingTable::procedural(TableSpec::new(100, 8, Quantization::F32), 3);
    /// let v = t.select(&[90, 7, 7]);
    /// assert_eq!(v.spec().rows, 3);
    /// assert_eq!(v.row_f32(0), t.row_f32(90));
    /// assert_eq!(v.row_f32(1), v.row_f32(2));
    /// ```
    pub fn select(&self, rows: &[u64]) -> EmbeddingTable {
        assert!(!rows.is_empty(), "gather view must select at least one row");
        let remap: Vec<u64> = rows
            .iter()
            .map(|&r| {
                assert!(
                    r < self.spec.rows,
                    "selected row {r} out of range for a {}-row table",
                    self.spec.rows
                );
                match &self.remap {
                    Some(m) => m[r as usize],
                    None => r,
                }
            })
            .collect();
        EmbeddingTable {
            spec: TableSpec {
                rows: rows.len() as u64,
                ..self.spec
            },
            source: self.source.clone(),
            base_row: self.base_row,
            remap: Some(Arc::new(remap)),
        }
    }

    /// A copy of the rows this table shows as explicit values: the same
    /// spec and, bit for bit, the same rows as the view it was taken from,
    /// read from memory instead of re-generated or re-mapped on every
    /// access. For small views that are gathered often (a DRAM tier's hot
    /// rows); it costs `rows × dim × 4` bytes.
    ///
    /// # Example
    ///
    /// ```
    /// use recssd_embedding::{EmbeddingTable, Quantization, TableSpec};
    /// let t = EmbeddingTable::procedural(TableSpec::new(100, 8, Quantization::F16), 3);
    /// let hot = t.select(&[90, 7]).materialized();
    /// assert_eq!(hot.row_f32(0), t.row_f32(90));
    /// ```
    pub fn materialized(&self) -> EmbeddingTable {
        let dim = self.spec.dim;
        let mut values = vec![0.0f32; self.spec.rows as usize * dim];
        for (row, out) in values.chunks_exact_mut(dim).enumerate() {
            self.stream_raw(row as u64, out.iter_mut(), |o, v| *o = v);
        }
        EmbeddingTable::dense(self.spec, values)
    }

    /// First parent row this table views (0 unless created by
    /// [`EmbeddingTable::slice`]).
    pub fn base_row(&self) -> u64 {
        self.base_row
    }

    /// The table's spec.
    pub fn spec(&self) -> TableSpec {
        self.spec
    }

    /// Resolves local `row` through the view (`remap`, then `base_row`)
    /// to the row of `source` it shows.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    fn source_row(&self, row: u64) -> u64 {
        assert!(row < self.spec.rows, "row out of range");
        let row = match &self.remap {
            Some(m) => m[row as usize],
            None => row,
        };
        self.base_row + row
    }

    /// Raw (pre-quantization) value at `(row, j)` — the per-element
    /// *definition* of table contents. Everything that produces whole
    /// rows ([`EmbeddingTable::encode_row`],
    /// [`EmbeddingTable::accumulate_row`], page fills) goes through the
    /// streamed implementation of it, `stream_raw`, and is tested
    /// element for element against this function.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `j` is out of range.
    pub fn raw_value(&self, row: u64, j: usize) -> f32 {
        assert!(j < self.spec.dim, "feature out of range");
        let row = self.source_row(row);
        match &self.source {
            TableSource::Procedural { seed } => procedural_value(*seed, procedural_key(row), j),
            TableSource::Dense(v) => v[(row * self.spec.dim as u64) as usize + j],
        }
    }

    /// The streamed implementation of [`EmbeddingTable::raw_value`]:
    /// hands `put` the raw values of `row`, feature 0 upward, each with
    /// the next item of `sink`. The view and the source are resolved once
    /// for the row, so the element loops carry no assert, branch or
    /// match.
    ///
    /// `sink` must yield exactly `dim` items (callers check their buffer
    /// lengths first).
    #[inline(always)]
    fn stream_raw<T>(&self, row: u64, sink: impl Iterator<Item = T>, mut put: impl FnMut(T, f32)) {
        let row = self.source_row(row);
        match &self.source {
            TableSource::Procedural { seed } => {
                let key = procedural_key(row);
                for (j, slot) in sink.enumerate() {
                    put(slot, procedural_value(*seed, key, j));
                }
            }
            TableSource::Dense(v) => {
                let start = (row * self.spec.dim as u64) as usize;
                for (slot, &x) in sink.zip(&v[start..start + self.spec.dim]) {
                    put(slot, x);
                }
            }
        }
    }

    /// Raw row values into `vals` (no allocation once the buffer has
    /// grown to `dim`).
    fn fill_raw_values(&self, row: u64, vals: &mut Vec<f32>) {
        vals.resize(self.spec.dim, 0.0);
        self.stream_raw(row, vals.iter_mut(), |o, v| *o = v);
    }

    /// Encodes `row` into its on-device byte format. F32 rows stream
    /// straight into `out`; F16 and Int8 rows (Int8 needs the row maximum
    /// before it can write a byte) pass through `scratch`, which allocates
    /// nothing once warm.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `out` is not exactly
    /// [`TableSpec::row_bytes`] long.
    pub fn encode_row_with(&self, row: u64, scratch: &mut RowScratch, out: &mut [u8]) {
        match self.spec.quant {
            Quantization::F32 => {
                assert_eq!(out.len(), self.spec.row_bytes(), "bad row buffer");
                let (words, _) = out.as_chunks_mut::<4>();
                self.stream_raw(row, words.iter_mut(), |w, v| *w = v.to_le_bytes());
            }
            quant => {
                self.fill_raw_values(row, &mut scratch.vals);
                quant.encode(&scratch.vals, out);
            }
        }
    }

    /// Encodes `row` into its on-device byte format.
    pub fn encode_row(&self, row: u64, out: &mut [u8]) {
        self.encode_row_with(row, &mut RowScratch::default(), out);
    }

    /// Accumulates the *decoded* row (after the quantisation round trip)
    /// into `acc` without allocating once `scratch` is warm — the
    /// host-DRAM gather primitive of the DRAM reference and the static
    /// hot partition. The F32 round trip (`to_le_bytes` then
    /// `from_le_bytes`) is the identity on every bit pattern, so F32 rows
    /// are added as they are generated.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `acc.len() != dim`.
    pub fn accumulate_row(&self, row: u64, scratch: &mut RowScratch, acc: &mut [f32]) {
        assert_eq!(acc.len(), self.spec.dim, "accumulator has wrong dim");
        match self.spec.quant {
            Quantization::F32 => self.stream_raw(row, acc.iter_mut(), |a, v| *a += v),
            quant => {
                // Split borrow: encode reads `vals`, writes `bytes`.
                let RowScratch { vals, bytes } = scratch;
                self.fill_raw_values(row, vals);
                bytes.resize(self.spec.row_bytes(), 0);
                quant.encode(vals, bytes);
                quant.decode_accumulate(bytes, acc);
            }
        }
    }

    /// The row as the *decoded* f32 vector — i.e. after the quantisation
    /// round trip, which is what every execution path (DRAM reference,
    /// baseline SSD, NDP) observes.
    pub fn row_f32(&self, row: u64) -> Vec<f32> {
        let mut out = vec![0.0f32; self.spec.dim];
        self.accumulate_row(row, &mut RowScratch::default(), &mut out);
        out
    }
}

/// The part of the procedural hash input that depends only on the row.
#[inline]
fn procedural_key(source_row: u64) -> u64 {
    source_row.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Procedural element `j` of the row with key `key`: a value on the grid
/// k/64 with |k| <= 127 — exactly representable in f32, f16 *and*
/// power-of-two-scaled int8, so every execution path sums them exactly.
#[inline]
fn procedural_value(seed: u64, key: u64, j: usize) -> f32 {
    let h = mix64(seed ^ key.wrapping_add(j as u64));
    ((h % 255) as i64 - 127) as f32 / 64.0
}

/// Reusable buffers for per-row encode/decode round trips. One scratch
/// serves any table; its buffers grow to the largest row seen and stay.
#[derive(Debug, Default, Clone)]
pub struct RowScratch {
    vals: Vec<f32>,
    bytes: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procedural_values_are_deterministic_and_gridded() {
        let spec = TableSpec::new(1000, 16, Quantization::F32);
        let a = EmbeddingTable::procedural(spec, 7);
        let b = EmbeddingTable::procedural(spec, 7);
        let c = EmbeddingTable::procedural(spec, 8);
        for row in [0u64, 13, 999] {
            assert_eq!(a.row_f32(row), b.row_f32(row));
            for j in 0..16 {
                let v = a.raw_value(row, j);
                assert!((-2.0..2.0).contains(&v));
                assert_eq!((v * 64.0).fract(), 0.0, "on the 1/64 grid");
            }
        }
        assert_ne!(a.row_f32(0), c.row_f32(0), "different seeds differ");
    }

    #[test]
    fn dense_tables_return_their_values() {
        let spec = TableSpec::new(2, 3, Quantization::F32);
        let t = EmbeddingTable::dense(spec, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.row_f32(0), vec![1.0, 2.0, 3.0]);
        assert_eq!(t.row_f32(1), vec![4.0, 5.0, 6.0]);
        assert_eq!(t.raw_value(1, 2), 6.0);
    }

    #[test]
    fn quantized_row_f32_reflects_round_trip() {
        let spec16 = TableSpec::new(10, 8, Quantization::F16);
        let t = EmbeddingTable::procedural(spec16, 1);
        // Grid values survive f16 exactly.
        for j in 0..8 {
            assert_eq!(t.row_f32(3)[j], t.raw_value(3, j));
        }
    }

    #[test]
    fn encode_row_matches_manual_encoding() {
        let spec = TableSpec::new(4, 4, Quantization::F32);
        let t = EmbeddingTable::procedural(spec, 5);
        let mut buf = vec![0u8; spec.row_bytes()];
        t.encode_row(2, &mut buf);
        let dec = Quantization::F32.decode(&buf, 4);
        assert_eq!(dec, t.row_f32(2));
    }

    #[test]
    fn slices_view_parent_rows_exactly() {
        let t = EmbeddingTable::procedural(TableSpec::new(100, 4, Quantization::F32), 9);
        let s = t.slice(30..70);
        assert_eq!(s.spec().rows, 40);
        assert_eq!(s.base_row(), 30);
        for local in [0u64, 17, 39] {
            assert_eq!(s.row_f32(local), t.row_f32(30 + local));
        }
        // Slices of slices compose.
        let ss = s.slice(10..20);
        assert_eq!(ss.row_f32(3), t.row_f32(43));
        // Dense tables slice too.
        let d = EmbeddingTable::dense(
            TableSpec::new(3, 2, Quantization::F32),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        assert_eq!(d.slice(1..3).row_f32(1), vec![5.0, 6.0]);
    }

    #[test]
    fn select_gathers_arbitrary_rows() {
        let t = EmbeddingTable::procedural(TableSpec::new(100, 4, Quantization::F32), 9);
        let v = t.select(&[99, 0, 42, 42]);
        assert_eq!(v.spec().rows, 4);
        assert_eq!(v.row_f32(0), t.row_f32(99));
        assert_eq!(v.row_f32(1), t.row_f32(0));
        assert_eq!(v.row_f32(2), t.row_f32(42));
        assert_eq!(v.row_f32(3), t.row_f32(42));
        // Views compose: select of a slice, slice of a select, select of
        // a select all resolve to the same parent rows.
        let s = t.slice(30..70);
        assert_eq!(s.select(&[5]).row_f32(0), t.row_f32(35));
        assert_eq!(v.slice(2..4).row_f32(0), t.row_f32(42));
        assert_eq!(v.select(&[1]).row_f32(0), t.row_f32(0));
        // Dense tables gather too.
        let d = EmbeddingTable::dense(
            TableSpec::new(3, 2, Quantization::F32),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        assert_eq!(d.select(&[2, 0]).row_f32(0), vec![5.0, 6.0]);
        assert_eq!(d.select(&[2, 0]).row_f32(1), vec![1.0, 2.0]);
    }

    #[test]
    fn a_materialized_view_equals_its_view_bit_for_bit() {
        for quant in [Quantization::F32, Quantization::F16, Quantization::Int8] {
            let spec = TableSpec::new(100, 12, quant);
            let view = EmbeddingTable::procedural(spec, 9)
                .slice(10..90)
                .select(&[79, 0, 42, 42, 7]);
            let copy = view.materialized();
            assert_eq!(copy.spec(), view.spec());
            assert!(matches!(copy.source, TableSource::Dense(_)));
            let mut scratch = RowScratch::default();
            for row in 0..view.spec().rows {
                // A non-zero accumulator: `+=` must see the same addends.
                let (mut a, mut b) = (vec![0.375f32; 12], vec![0.375f32; 12]);
                view.accumulate_row(row, &mut scratch, &mut a);
                copy.accumulate_row(row, &mut scratch, &mut b);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{quant:?} row {row}");
                let (mut ea, mut eb) = (vec![0u8; spec.row_bytes()], vec![0u8; spec.row_bytes()]);
                view.encode_row(row, &mut ea);
                copy.encode_row(row, &mut eb);
                assert_eq!(ea, eb, "{quant:?} row {row}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "selected row 5 out of range")]
    fn select_out_of_range_panics() {
        EmbeddingTable::procedural(TableSpec::new(5, 2, Quantization::F32), 0).select(&[0, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn select_empty_panics() {
        EmbeddingTable::procedural(TableSpec::new(5, 2, Quantization::F32), 0).select(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range for a")]
    fn oversized_slice_panics() {
        EmbeddingTable::procedural(TableSpec::new(10, 2, Quantization::F32), 0).slice(5..11);
    }

    #[test]
    #[should_panic(expected = "row out of range")]
    fn out_of_range_row_panics() {
        let t = EmbeddingTable::procedural(TableSpec::new(2, 2, Quantization::F32), 0);
        t.raw_value(2, 0);
    }

    #[test]
    #[should_panic(expected = "wrong element count")]
    fn dense_wrong_size_panics() {
        EmbeddingTable::dense(TableSpec::new(2, 2, Quantization::F32), vec![0.0; 3]);
    }
}
