//! The NDP SLS wire format.
//!
//! §4.3 of the paper: "The parameters passed include embedding vector
//! dimensions such as attribute size and vector length, the total number
//! of input embeddings to be gathered, the total number of resulting
//! embeddings to be returned, and a list of (input ID, result ID) pairs
//! specifying the input embeddings and their accumulation destinations.
//! Adding a restriction that this list be sorted by input ID enables more
//! efficient processing on the SSD system."

use recssd_embedding::Quantization;

const MAGIC: u32 = 0x5245_4353; // "RECS"
const HEADER_BYTES: usize = 32;
const PAIR_BYTES: usize = 12;

/// A typed device-side failure surfaced to the host through a command
/// completion. Produced by [`crate::System`] when the device rejects or
/// fails a command instead of completing it with data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceError {
    /// An uncorrectable flash read poisoned the command
    /// ([`recssd_nvme::NvmeStatus::MediaError`]).
    Media,
    /// The device rejected the command with some other non-success status.
    Rejected(recssd_nvme::NvmeStatus),
}

impl DeviceError {
    /// Classifies a non-success completion status.
    ///
    /// # Panics
    ///
    /// Panics if called with [`recssd_nvme::NvmeStatus::Success`] — a
    /// successful completion is not an error.
    pub fn from_status(status: recssd_nvme::NvmeStatus) -> Self {
        match status {
            recssd_nvme::NvmeStatus::Success => {
                panic!("successful completion is not a device error")
            }
            recssd_nvme::NvmeStatus::MediaError => DeviceError::Media,
            other => DeviceError::Rejected(other),
        }
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Media => f.write_str("unrecovered media error"),
            DeviceError::Rejected(status) => write!(f, "command rejected: {status}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A block of SLS result vectors stored flat: `n` vectors of `dim`
/// elements in one contiguous `data` buffer with stride `dim`.
///
/// This is the shape results keep end to end — the device scratchpad
/// accumulates into it, the host merges into it and [`crate::OpResult`]
/// hands it to the caller — so the datapath never materialises per-vector
/// `Vec`s. Buffers are reusable: [`SlsOutput::reset`] reshapes in place
/// without shrinking capacity, which is what the engine's and host's
/// free-list pools rely on.
///
/// # Example
///
/// ```
/// use recssd::SlsOutput;
/// let mut out = SlsOutput::zeroed(2, 4);
/// out.row_mut(1)[3] = 7.0;
/// assert_eq!(out.row(1), &[0.0, 0.0, 0.0, 7.0]);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlsOutput {
    data: Vec<f32>,
    dim: usize,
    n: usize,
}

impl SlsOutput {
    /// `n` zero vectors of `dim` elements.
    pub fn zeroed(n: usize, dim: usize) -> Self {
        SlsOutput {
            data: vec![0.0; n * dim],
            dim,
            n,
        }
    }

    /// Reshapes to `n × dim` and zero-fills, reusing the existing
    /// allocation when capacity allows — the pool-recycling entry point.
    pub fn reset(&mut self, n: usize, dim: usize) {
        self.data.clear();
        self.data.resize(n * dim, 0.0);
        self.n = n;
        self.dim = dim;
    }

    /// Number of result vectors.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Elements per vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Result vector `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable result vector `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// All vectors in slot order (exactly `len()` of them, even for
    /// zero-dim outputs).
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.n).map(|i| self.row(i))
    }

    /// The flat `n × dim` backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat `n × dim` backing slice, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Copies out to the legacy nested shape (tests, display).
    pub fn to_nested(&self) -> Vec<Vec<f32>> {
        self.rows().map(|r| r.to_vec()).collect()
    }

    /// Builds from the legacy nested shape.
    ///
    /// # Panics
    ///
    /// Panics if the inner vectors have unequal lengths.
    pub fn from_nested(nested: &[Vec<f32>]) -> Self {
        let dim = nested.first().map_or(0, |v| v.len());
        let mut out = SlsOutput::zeroed(nested.len(), dim);
        for (i, v) in nested.iter().enumerate() {
            assert_eq!(v.len(), dim, "ragged nested results");
            out.row_mut(i).copy_from_slice(v);
        }
        out
    }
}

/// Decoded SLS configuration as the device firmware sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct SlsConfig {
    /// Features per embedding vector ("vector length").
    pub dim: u32,
    /// Element storage format ("attribute size").
    pub quant: Quantization,
    /// Vectors stored per flash page (1 = spread layout).
    pub rows_per_page: u32,
    /// Number of result vectors to accumulate.
    pub n_results: u32,
    /// `(input row, result slot)` pairs, sorted by input row.
    pub pairs: Vec<(u64, u32)>,
}

/// Config command validation errors (surface as `InvalidField` NVMe
/// completions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlsConfigError {
    /// Payload shorter than the fixed header.
    Truncated,
    /// Magic number mismatch — not an SLS config.
    BadMagic,
    /// Unknown quantization code.
    BadQuant(u8),
    /// Zero dim, zero results or zero rows-per-page.
    ZeroField,
    /// Pair list not sorted by input id (§4.3 requires it).
    UnsortedPairs,
    /// A result slot exceeds `n_results`.
    ResultSlotOutOfRange {
        /// The offending slot.
        slot: u32,
        /// Declared result count.
        n_results: u32,
    },
    /// Declared pair count disagrees with the payload length.
    LengthMismatch,
}

impl std::fmt::Display for SlsConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlsConfigError::Truncated => f.write_str("config payload truncated"),
            SlsConfigError::BadMagic => f.write_str("config magic mismatch"),
            SlsConfigError::BadQuant(q) => write!(f, "unknown quantization code {q}"),
            SlsConfigError::ZeroField => f.write_str("zero-valued config field"),
            SlsConfigError::UnsortedPairs => f.write_str("pair list not sorted by input id"),
            SlsConfigError::ResultSlotOutOfRange { slot, n_results } => {
                write!(
                    f,
                    "result slot {slot} out of range (n_results = {n_results})"
                )
            }
            SlsConfigError::LengthMismatch => f.write_str("pair count disagrees with payload"),
        }
    }
}

impl std::error::Error for SlsConfigError {}

fn quant_code(q: Quantization) -> u8 {
    match q {
        Quantization::F32 => 0,
        Quantization::F16 => 1,
        Quantization::Int8 => 2,
    }
}

fn quant_from_code(c: u8) -> Option<Quantization> {
    match c {
        0 => Some(Quantization::F32),
        1 => Some(Quantization::F16),
        2 => Some(Quantization::Int8),
        _ => None,
    }
}

impl SlsConfig {
    /// Encoded bytes per row, derived from dim and quantization.
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.quant.row_bytes(self.dim as usize)
    }

    /// Bytes of the packed f32 result block (`n_results × dim × 4`).
    pub fn result_bytes(&self) -> usize {
        self.n_results as usize * self.dim as usize * 4
    }

    /// Logical blocks needed to return the results, for a given block
    /// size.
    pub fn result_blocks(&self, block_bytes: usize) -> u32 {
        self.result_bytes().div_ceil(block_bytes).max(1) as u32
    }

    /// `(relative page, byte offset)` of an input row under this config's
    /// layout.
    #[inline]
    pub fn locate_row(&self, row: u64) -> (u64, usize) {
        let page = row / self.rows_per_page as u64;
        let slot = (row % self.rows_per_page as u64) as usize;
        (page, slot * self.row_bytes())
    }

    /// Exact encoded payload length.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + self.pairs.len() * PAIR_BYTES
    }

    /// The pair count a payload of `len` bytes carries — the inverse of
    /// [`SlsConfig::encoded_len`], which the firmware charges config
    /// processing on before it parses the payload. Zero below a header.
    pub(crate) fn pair_count(len: usize) -> usize {
        len.saturating_sub(HEADER_BYTES) / PAIR_BYTES
    }

    /// Serialises to the command payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Serialises into a caller-supplied buffer (cleared first); a pooled
    /// buffer of [`SlsConfig::encoded_len`] capacity makes steady-state
    /// encoding allocation-free.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.encoded_len());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.dim.to_le_bytes());
        out.push(quant_code(self.quant));
        out.extend_from_slice(&[0u8; 3]); // reserved
        out.extend_from_slice(&self.rows_per_page.to_le_bytes());
        out.extend_from_slice(&self.n_results.to_le_bytes());
        out.extend_from_slice(&(self.pairs.len() as u32).to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // reserved
        debug_assert_eq!(out.len(), HEADER_BYTES);
        for &(row, slot) in &self.pairs {
            out.extend_from_slice(&row.to_le_bytes());
            out.extend_from_slice(&slot.to_le_bytes());
        }
        debug_assert_eq!(out.len(), self.encoded_len());
    }

    /// Parses and validates a command payload.
    ///
    /// # Errors
    ///
    /// Any [`SlsConfigError`] listed above.
    pub fn decode(bytes: &[u8]) -> Result<SlsConfig, SlsConfigError> {
        Self::decode_pooled(bytes, Vec::new())
    }

    /// [`SlsConfig::decode`] reusing a recycled pair buffer (cleared
    /// first) for the parsed list, so steady-state firmware decoding
    /// allocates nothing. The buffer is dropped on the (cold) error
    /// paths.
    ///
    /// # Errors
    ///
    /// Any [`SlsConfigError`] listed above.
    pub fn decode_pooled(
        bytes: &[u8],
        mut pairs: Vec<(u64, u32)>,
    ) -> Result<SlsConfig, SlsConfigError> {
        if bytes.len() < HEADER_BYTES {
            return Err(SlsConfigError::Truncated);
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        if u32_at(0) != MAGIC {
            return Err(SlsConfigError::BadMagic);
        }
        let dim = u32_at(4);
        let quant = quant_from_code(bytes[8]).ok_or(SlsConfigError::BadQuant(bytes[8]))?;
        let rows_per_page = u32_at(12);
        let n_results = u32_at(16);
        let n_pairs = u32_at(20) as usize;
        if dim == 0 || rows_per_page == 0 || n_results == 0 {
            return Err(SlsConfigError::ZeroField);
        }
        if bytes.len() < HEADER_BYTES + n_pairs * PAIR_BYTES {
            return Err(SlsConfigError::LengthMismatch);
        }
        pairs.clear();
        pairs.reserve(n_pairs);
        let mut prev_row = 0u64;
        for i in 0..n_pairs {
            let off = HEADER_BYTES + i * PAIR_BYTES;
            let row = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
            let slot = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes"));
            if i > 0 && row < prev_row {
                return Err(SlsConfigError::UnsortedPairs);
            }
            if slot >= n_results {
                return Err(SlsConfigError::ResultSlotOutOfRange { slot, n_results });
            }
            prev_row = row;
            pairs.push((row, slot));
        }
        Ok(SlsConfig {
            dim,
            quant,
            rows_per_page,
            n_results,
            pairs,
        })
    }

    /// Bytes of the padded result block for `n` f32 values.
    pub fn padded_result_len(n: usize, block_bytes: usize) -> usize {
        (n * 4).div_ceil(block_bytes).max(1) * block_bytes
    }

    /// Packs result vectors into a fresh result-read data block, padded
    /// to whole blocks.
    pub fn encode_results(results: &[f32], block_bytes: usize) -> Vec<u8> {
        let mut out = Vec::new();
        Self::encode_results_into(results, block_bytes, &mut out);
        out
    }

    /// [`SlsConfig::encode_results`] into a caller-supplied buffer whose
    /// previous contents do not matter; the NVMe completion takes
    /// ownership of the block, so callers wanting steady-state allocation
    /// freedom pull the buffer from the device's transfer-buffer pool and
    /// the host hands it back there after merging. A buffer that already
    /// has the padded length (the pool's do) gets each byte written once:
    /// the floats as one run of 4-byte words, then zeros for the pad tail.
    pub fn encode_results_into(results: &[f32], block_bytes: usize, out: &mut Vec<u8>) {
        out.resize(Self::padded_result_len(results.len(), block_bytes), 0);
        let (body, pad) = out.split_at_mut(results.len() * 4);
        let (words, _) = body.as_chunks_mut::<4>();
        for (w, v) in words.iter_mut().zip(results) {
            *w = v.to_le_bytes();
        }
        pad.fill(0);
    }

    /// Unpacks and *adds* `acc.len()` f32 values from result-read data
    /// into `acc` — the host-side merge of device partial sums, with no
    /// intermediate vectors.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `acc.len() * 4`.
    #[inline]
    pub fn accumulate_results(bytes: &[u8], acc: &mut [f32]) {
        assert!(bytes.len() >= acc.len() * 4, "result data truncated");
        let (words, _) = bytes[..acc.len() * 4].as_chunks::<4>();
        for (a, w) in acc.iter_mut().zip(words) {
            *a += f32::from_le_bytes(*w);
        }
    }

    /// Unpacks `n_results × dim` f32 values from result-read data.
    /// Allocating wrapper used by tests and tools; the host runtime
    /// merges with [`SlsConfig::accumulate_results`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short.
    pub fn decode_results(bytes: &[u8], n_results: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut out = SlsOutput::zeroed(n_results, dim);
        Self::accumulate_results(bytes, out.as_mut_slice());
        out.to_nested()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SlsConfig {
        SlsConfig {
            dim: 32,
            quant: Quantization::F32,
            rows_per_page: 1,
            n_results: 4,
            pairs: vec![(1, 0), (1, 3), (7, 2), (900, 1)],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let cfg = sample();
        let decoded = SlsConfig::decode(&cfg.encode()).unwrap();
        assert_eq!(decoded, cfg);
    }

    #[test]
    fn round_trip_all_quantizations() {
        for q in [Quantization::F32, Quantization::F16, Quantization::Int8] {
            let cfg = SlsConfig {
                quant: q,
                ..sample()
            };
            assert_eq!(SlsConfig::decode(&cfg.encode()).unwrap().quant, q);
        }
    }

    /// The firmware sizes its config-processing charge from the payload
    /// length alone; that count must be the encoded pair list's.
    #[test]
    fn pair_count_inverts_encoded_len() {
        for q in [Quantization::F32, Quantization::F16, Quantization::Int8] {
            for n in [0u64, 1, 2, 7, 100, 4096] {
                let cfg = SlsConfig {
                    quant: q,
                    pairs: (0..n).map(|row| (row, (row % 4) as u32)).collect(),
                    ..sample()
                };
                assert_eq!(SlsConfig::pair_count(cfg.encoded_len()), cfg.pairs.len());
                assert_eq!(SlsConfig::pair_count(cfg.encode().len()), cfg.pairs.len());
            }
        }
        assert_eq!(SlsConfig::pair_count(0), 0, "no header, no pairs");
    }

    #[test]
    fn unsorted_pairs_rejected() {
        let mut cfg = sample();
        cfg.pairs = vec![(9, 0), (1, 0)];
        assert_eq!(
            SlsConfig::decode(&cfg.encode()),
            Err(SlsConfigError::UnsortedPairs)
        );
    }

    #[test]
    fn bad_slot_rejected() {
        let mut cfg = sample();
        cfg.pairs = vec![(1, 4)];
        assert_eq!(
            SlsConfig::decode(&cfg.encode()),
            Err(SlsConfigError::ResultSlotOutOfRange {
                slot: 4,
                n_results: 4
            })
        );
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert_eq!(SlsConfig::decode(&[0u8; 8]), Err(SlsConfigError::Truncated));
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert_eq!(SlsConfig::decode(&bytes), Err(SlsConfigError::BadMagic));
        let mut bytes = sample().encode();
        bytes[8] = 99;
        assert_eq!(SlsConfig::decode(&bytes), Err(SlsConfigError::BadQuant(99)));
        let mut bytes = sample().encode();
        bytes.truncate(HEADER_BYTES + 2);
        assert_eq!(
            SlsConfig::decode(&bytes),
            Err(SlsConfigError::LengthMismatch)
        );
    }

    #[test]
    fn zero_fields_rejected() {
        let mut cfg = sample();
        cfg.dim = 0;
        assert_eq!(
            SlsConfig::decode(&cfg.encode()),
            Err(SlsConfigError::ZeroField)
        );
    }

    #[test]
    fn row_location_spread_and_dense() {
        let spread = sample();
        assert_eq!(spread.locate_row(5), (5, 0));
        let dense = SlsConfig {
            rows_per_page: 128,
            ..sample()
        };
        assert_eq!(dense.locate_row(130), (1, 2 * 128));
    }

    #[test]
    fn result_block_math() {
        let cfg = sample();
        assert_eq!(cfg.result_bytes(), 4 * 32 * 4);
        assert_eq!(cfg.result_blocks(16 * 1024), 1);
        let big = SlsConfig {
            n_results: 64,
            dim: 256,
            ..sample()
        };
        assert_eq!(big.result_blocks(16 * 1024), 4);
    }

    #[test]
    fn results_round_trip() {
        let vals: Vec<f32> = (0..12).map(|i| i as f32 / 4.0).collect();
        let bytes = SlsConfig::encode_results(&vals, 64);
        assert_eq!(bytes.len() % 64, 0);
        let out = SlsConfig::decode_results(&bytes, 3, 4);
        assert_eq!(out[0], vec![0.0, 0.25, 0.5, 0.75]);
        assert_eq!(out[2], vec![2.0, 2.25, 2.5, 2.75]);
    }

    #[test]
    fn accumulate_results_adds_in_place() {
        let vals: Vec<f32> = vec![1.0, 2.0, 3.0];
        let bytes = SlsConfig::encode_results(&vals, 64);
        let mut acc = vec![0.5f32, 0.5, 0.5];
        SlsConfig::accumulate_results(&bytes, &mut acc);
        assert_eq!(acc, vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn sls_output_rows_and_reset() {
        let mut out = SlsOutput::zeroed(3, 2);
        assert_eq!(out.len(), 3);
        assert_eq!(out.dim(), 2);
        out.row_mut(1).copy_from_slice(&[4.0, 5.0]);
        assert_eq!(out.row(1), &[4.0, 5.0]);
        assert_eq!(out.rows().count(), 3);
        assert_eq!(out.as_slice(), &[0.0, 0.0, 4.0, 5.0, 0.0, 0.0]);
        // Reset reshapes and zeroes without losing capacity.
        let cap = out.as_slice().len();
        out.reset(2, 3);
        assert_eq!((out.len(), out.dim()), (2, 3));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(out.as_slice().len(), cap);
    }

    #[test]
    fn sls_output_zero_dim_stays_consistent() {
        let out = SlsOutput::zeroed(3, 0);
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows().count(), 3);
        assert_eq!(out.to_nested(), vec![Vec::<f32>::new(); 3]);
        assert_eq!(SlsOutput::from_nested(&out.to_nested()).len(), 3);
    }

    #[test]
    fn sls_output_nested_round_trip() {
        let nested = vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let flat = SlsOutput::from_nested(&nested);
        assert_eq!(flat.to_nested(), nested);
        assert_eq!(flat.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn sls_output_rejects_ragged_nested() {
        SlsOutput::from_nested(&[vec![1.0], vec![2.0, 3.0]]);
    }
}
