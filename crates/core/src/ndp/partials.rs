//! Sparse per-engine partial sums of one SLS request.

use recssd_embedding::Quantization;

/// The engine-local accumulators of one SLS request on a per-channel
/// engine pool: logically `engines × n_results` rows of `dim` floats, of
/// which a request writes only the few `(engine, slot)` rows its pages
/// land on.
///
/// The backing store is never zeroed. A flag per row records whether the
/// row was written since the last [`EnginePartials::reset`]; the first
/// write of a row stores `0.0 + v`, later writes add, and
/// [`EnginePartials::merge_into`] folds only flagged rows. `0.0 + v` is
/// what `+=` leaves in a zeroed element — it maps `-0.0` to `+0.0` and
/// quiets a signalling NaN exactly as the addition would — so a flagged
/// row holds the bits a zero-filled dense `engines × n_results × dim`
/// accumulator would hold, and an unflagged row stands for a row of
/// `+0.0`. Skipping those at merge time drops `+ 0.0` terms, which
/// change no bit either: `x + 0.0` differs from `x` only for
/// `x == -0.0`, and a merge target that starts from `+0.0` never becomes
/// `-0.0` (a sum is `-0.0` only when both operands are).
///
/// # Example
///
/// ```
/// use recssd::ndp::EnginePartials;
/// use recssd_embedding::Quantization;
/// // A row as a flash page stores it: little-endian f32s.
/// let row = |v: [f32; 2]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
/// let mut p = EnginePartials::default();
/// p.reset(2, 3, 2);
/// p.add_encoded(1, 2, Quantization::F32, &row([1.0, 2.0]));
/// p.add_encoded(0, 2, Quantization::F32, &row([0.5, 0.5]));
/// p.add_encoded(1, 2, Quantization::F32, &row([1.0, 1.0]));
/// let mut results = vec![0.0f32; 3 * 2];
/// p.merge_into(&mut results);
/// assert_eq!(results, [0.0, 0.0, 0.0, 0.0, 2.5, 3.5]);
/// ```
#[derive(Debug, Default)]
pub struct EnginePartials {
    /// Row `(engine, slot)` lives at `(engine * n_results + slot) * dim`.
    /// Grows to the largest shape seen and keeps whatever earlier
    /// requests left behind; only flagged rows are ever read.
    data: Vec<f32>,
    /// One flag per `(engine, slot)` row: written since the last reset.
    written: Vec<bool>,
    n_results: usize,
    dim: usize,
}

impl EnginePartials {
    /// Reshapes for a new request and forgets every row. Costs
    /// `engines × n_results` flag writes, whatever `dim` is.
    pub fn reset(&mut self, engines: usize, n_results: usize, dim: usize) {
        let rows = engines * n_results;
        self.written.clear();
        self.written.resize(rows, false);
        if self.data.len() < rows * dim {
            self.data.resize(rows * dim, 0.0);
        }
        self.n_results = n_results;
        self.dim = dim;
    }

    /// The row of `(engine, slot)` and whether this is its first write
    /// since the reset (it is flagged written either way).
    ///
    /// # Panics
    ///
    /// Panics if `engine` or `slot` is outside the shape given to
    /// [`EnginePartials::reset`].
    #[inline]
    fn claim(&mut self, engine: usize, slot: usize) -> (&mut [f32], bool) {
        assert!(slot < self.n_results, "result slot out of range");
        let row = engine * self.n_results + slot;
        let first = !std::mem::replace(&mut self.written[row], true);
        (&mut self.data[row * self.dim..(row + 1) * self.dim], first)
    }

    /// Adds the row encoded at the start of `bytes` to partial row
    /// `(engine, slot)`, decoded on the fly — the fused gather+reduce of
    /// the Translation step.
    ///
    /// # Panics
    ///
    /// Panics if `engine` or `slot` is out of range or `bytes` is shorter
    /// than the encoded row.
    #[inline]
    pub fn add_encoded(&mut self, engine: usize, slot: usize, quant: Quantization, bytes: &[u8]) {
        let (dst, first) = self.claim(engine, slot);
        if first {
            quant.decode_sum_from_zero(bytes, dst);
        } else {
            quant.decode_accumulate(bytes, dst);
        }
    }

    /// Adds every written row to its slot of `results` (`n_results × dim`
    /// floats), engine by engine in index order and slot by slot within
    /// an engine — the order a dense fold of whole per-engine partials
    /// adds them in, whichever engine finished last.
    ///
    /// # Panics
    ///
    /// Panics if `results.len() != n_results * dim`.
    pub fn merge_into(&self, results: &mut [f32]) {
        let dim = self.dim;
        assert_eq!(
            results.len(),
            self.n_results * dim,
            "results have wrong shape"
        );
        for row in (0..self.written.len()).filter(|&row| self.written[row]) {
            let slot = row % self.n_results;
            let src = &self.data[row * dim..(row + 1) * dim];
            for (o, v) in results[slot * dim..(slot + 1) * dim].iter_mut().zip(src) {
                *o += *v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recssd_sim::rng::SplitMix64;

    /// The dense model: zero `engines × n_results × dim`, accumulate,
    /// then fold every engine's whole partial in engine order.
    struct Dense {
        partials: Vec<Vec<f32>>,
    }

    impl Dense {
        fn new(engines: usize, n_results: usize, dim: usize) -> Self {
            Dense {
                partials: vec![vec![0.0; n_results * dim]; engines],
            }
        }

        fn add(&mut self, engine: usize, slot: usize, row: &[f32]) {
            let dim = row.len();
            let dst = &mut self.partials[engine][slot * dim..(slot + 1) * dim];
            for (o, v) in dst.iter_mut().zip(row) {
                *o += *v;
            }
        }

        fn merge_into(&self, results: &mut [f32]) {
            for p in &self.partials {
                for (o, v) in results.iter_mut().zip(p) {
                    *o += *v;
                }
            }
        }
    }

    /// Order-sensitive, off-grid values: signed zeros, subnormals, and
    /// magnitudes far enough apart that f32 addition rounds.
    fn value(rng: &mut SplitMix64) -> f32 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        match rng.next_u64() % 8 {
            0 => -0.0,
            1 => 0.0,
            2 => f32::from_bits(1),
            3 => -f32::from_bits(0x0040_0000),
            4 => f32::MIN_POSITIVE,
            5 => (unit * 2.0e3) as f32,
            6 => (unit * 2.0e-3) as f32,
            _ => (unit * 2.0e7) as f32,
        }
    }

    /// Shape `(engines, n_results, dim)` plus raw `(engine, slot, value
    /// seed)` draws, folded into the shape by [`check`].
    type Request = ((usize, usize, usize), Vec<(usize, usize, u64)>);

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Adds `row` as the Translation step does: F32-encoded page bytes.
    fn add_row(p: &mut EnginePartials, engine: usize, slot: usize, row: &[f32]) {
        let mut bytes = vec![0u8; 4 * row.len()];
        Quantization::F32.encode(row, &mut bytes);
        p.add_encoded(engine, slot, Quantization::F32, &bytes);
    }

    /// Runs one request through both accumulators on top of a scratchpad
    /// the embedding cache already added to, and compares every bit.
    /// Slot 0 is written by no engine.
    fn check(sparse: &mut EnginePartials, req: &Request) {
        let ((engines, n_results, dim), writes) = req;
        let (engines, n_results, dim) = (*engines, *n_results, *dim);
        let mut dense = Dense::new(engines, n_results, dim);
        sparse.reset(engines, n_results, dim);
        for &(engine, slot, seed) in writes {
            let (engine, slot) = (engine % engines, 1 + slot % (n_results - 1));
            let mut rng = SplitMix64::new(seed);
            let row: Vec<f32> = (0..dim).map(|_| value(&mut rng)).collect();
            dense.add(engine, slot, &row);
            add_row(sparse, engine, slot, &row);
        }
        // Row for row, the sparse store is the dense one: a written row
        // holds the same bits, an unwritten row stands for zeros.
        for (row, &written) in sparse.written.iter().enumerate() {
            let (engine, slot) = (row / n_results, row % n_results);
            let want = &dense.partials[engine][slot * dim..(slot + 1) * dim];
            if written {
                assert_eq!(bits(&sparse.data[row * dim..(row + 1) * dim]), bits(want));
            } else {
                assert!(want.iter().all(|v| v.to_bits() == 0));
            }
        }
        let scratchpad: Vec<f32> = (0..n_results * dim)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 * 0.37 })
            .collect();
        let (mut want, mut got) = (scratchpad.clone(), scratchpad.clone());
        dense.merge_into(&mut want);
        sparse.merge_into(&mut got);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(bits(&got[..dim]), bits(&scratchpad[..dim]), "slot 0");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Sparse equals dense, bit for bit; the same accumulator then
        /// serves a second request that touches fewer rows, in another
        /// shape, and no stale memory leaks in.
        #[test]
        fn sparse_matches_a_zeroed_dense_fold(
            shapes in ((1usize..9, 2usize..6, 1usize..10), (1usize..9, 2usize..6, 1usize..10)),
            writes in proptest::collection::vec((0usize..8, 0usize..8, 0u64..u64::MAX), 0..24),
        ) {
            let first = (shapes.0, writes.clone());
            let second = (shapes.1, writes[..writes.len() / 2].to_vec());
            let mut sparse = EnginePartials::default();
            check(&mut sparse, &first);
            check(&mut sparse, &second);
        }
    }

    #[test]
    fn reset_forgets_rows_without_touching_values() {
        let mut p = EnginePartials::default();
        p.reset(2, 2, 4);
        add_row(&mut p, 1, 1, &[9.0; 4]);
        p.reset(2, 2, 4);
        let mut out = vec![0.0f32; 8];
        p.merge_into(&mut out);
        assert!(
            out.iter().all(|&v| v == 0.0),
            "nothing written, nothing folded"
        );
        add_row(&mut p, 1, 1, &[1.0; 4]);
        p.merge_into(&mut out);
        assert_eq!(&out[4..], &[1.0; 4], "the stale 9.0s were overwritten");
    }

    #[test]
    #[should_panic(expected = "result slot out of range")]
    fn out_of_shape_slot_panics() {
        let mut p = EnginePartials::default();
        p.reset(2, 2, 1);
        add_row(&mut p, 0, 2, &[1.0]);
    }
}
