//! Row quantization formats: f32, f16 and int8.
//!
//! Fig. 11a of the paper sweeps "feature size and quantization, which
//! affect the size of embedding vectors relative to the page size". The
//! three formats here match that sweep. Int8 rows carry a per-row f32
//! scale followed by one byte per element; f16 is IEEE 754 binary16.

/// Element storage format of an embedding row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantization {
    /// 32-bit IEEE floats (4 bytes per element).
    F32,
    /// 16-bit IEEE floats (2 bytes per element).
    F16,
    /// Signed 8-bit integers with a per-row f32 scale
    /// (4 + dim bytes per row).
    Int8,
}

impl Quantization {
    /// Encoded size in bytes of one `dim`-element row.
    #[inline]
    pub fn row_bytes(self, dim: usize) -> usize {
        match self {
            Quantization::F32 => 4 * dim,
            Quantization::F16 => 2 * dim,
            Quantization::Int8 => 4 + dim,
        }
    }

    /// Encodes `values` into `out` (which must be exactly
    /// [`Quantization::row_bytes`] long). This is the definition of the
    /// row format: table rows are `EmbeddingTable::raw_value` per element,
    /// then this. `EmbeddingTable::encode_row_with` implements the F32
    /// case by streaming generated values straight into the same bytes
    /// and sends F16 and Int8 rows through here.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length.
    pub fn encode(self, values: &[f32], out: &mut [u8]) {
        assert_eq!(out.len(), self.row_bytes(values.len()), "bad row buffer");
        match self {
            Quantization::F32 => {
                for (chunk, &v) in out.chunks_exact_mut(4).zip(values) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
            Quantization::F16 => {
                for (chunk, &v) in out.chunks_exact_mut(2).zip(values) {
                    chunk.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes());
                }
            }
            Quantization::Int8 => {
                // Power-of-two row scale: the smallest 2^e with
                // max|v| / 2^e <= 127. Dequantised values are then exact
                // binary fractions, so f32 accumulation of quantised rows
                // is order-independent — the property the NDP-vs-DRAM
                // bit-equality tests rely on. Costs at most one extra bit
                // of quantisation error versus an optimal scale.
                let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let scale = if max_abs == 0.0 {
                    1.0
                } else {
                    2.0f32.powi(((max_abs / 127.0).log2().ceil()) as i32)
                };
                out[..4].copy_from_slice(&scale.to_le_bytes());
                for (b, &v) in out[4..].iter_mut().zip(values) {
                    *b = (v / scale).round().clamp(-127.0, 127.0) as i8 as u8;
                }
            }
        }
    }

    /// The single decode implementation: every decoded element is folded
    /// into `out` through `fold`, so assignment ([`Quantization::decode_into`])
    /// and fused accumulation ([`Quantization::decode_accumulate`]) share
    /// one loop and cannot drift apart numerically.
    #[inline(always)]
    fn decode_with<F: Fn(&mut f32, f32)>(self, bytes: &[u8], out: &mut [f32], fold: F) {
        let dim = out.len();
        let need = self.row_bytes(dim);
        assert!(bytes.len() >= need, "row bytes truncated");
        match self {
            Quantization::F32 => {
                // Two equal-length slices of fixed-size elements: the
                // loop has no per-element check and vectorises.
                let (words, _) = bytes[..need].as_chunks::<4>();
                for (o, w) in out.iter_mut().zip(words) {
                    fold(o, f32::from_le_bytes(*w));
                }
            }
            Quantization::F16 => {
                for (o, c) in out.iter_mut().zip(bytes[..need].chunks_exact(2)) {
                    let bits = u16::from_le_bytes(c.try_into().expect("2-byte chunk"));
                    fold(o, f16_bits_to_f32(bits));
                }
            }
            Quantization::Int8 => {
                let scale = f32::from_le_bytes(bytes[..4].try_into().expect("scale"));
                for (o, &b) in out.iter_mut().zip(&bytes[4..need]) {
                    fold(o, b as i8 as f32 * scale);
                }
            }
        }
    }

    /// Decodes a row of `out.len()` elements from `bytes` into `out`
    /// without allocating — the steady-state Translation primitive.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than the encoded row.
    #[inline]
    pub fn decode_into(self, bytes: &[u8], out: &mut [f32]) {
        self.decode_with(bytes, out, |o, v| *o = v);
    }

    /// Fused decode + add: accumulates the decoded row into `acc`
    /// element-wise. This is the operation RecSSD's Translation step
    /// actually performs — gathered vectors are never materialised, they
    /// are summed straight into the result slot.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than the encoded row.
    #[inline]
    pub fn decode_accumulate(self, bytes: &[u8], acc: &mut [f32]) {
        self.decode_with(bytes, acc, |o, v| *o += v);
    }

    /// Decodes a row of `dim` elements from `bytes` into a fresh `Vec`.
    /// Allocating convenience wrapper over [`Quantization::decode_into`];
    /// hot paths should pass a reused buffer to the `_into` variant.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than the encoded row.
    pub fn decode(self, bytes: &[u8], dim: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; dim];
        self.decode_into(bytes, &mut out);
        out
    }
}

/// Converts an f32 to IEEE binary16 bits (round-to-nearest-even, with
/// overflow to infinity and subnormal support).
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN.
        let nan_payload = if frac != 0 { 0x0200 } else { 0 };
        return sign | 0x7C00 | nan_payload;
    }
    // Unbiased exponent, rebiased for f16 (bias 15 vs 127).
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal f16. Round the 23-bit fraction to 10 bits (RNE).
        let half_exp = ((unbiased + 15) as u16) << 10;
        let mut mant = (frac >> 13) as u16;
        let round_bits = frac & 0x1FFF;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (mant & 1) == 1) {
            mant += 1;
            if mant == 0x400 {
                // Mantissa overflow carries into the exponent.
                return sign | (half_exp + 0x400);
            }
        }
        return sign | half_exp | mant;
    }
    if unbiased >= -24 {
        // Subnormal f16.
        let full = frac | 0x0080_0000; // implicit leading 1
        let shift = (-14 - unbiased) as u32 + 13;
        let mut mant = (full >> shift) as u16;
        let rem = full & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && (mant & 1) == 1) {
            mant += 1;
        }
        return sign | mant;
    }
    sign // underflow → ±0
}

/// Converts IEEE binary16 bits to f32.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1F;
    let frac = (h & 0x03FF) as u32;
    let bits = match (exp, frac) {
        (0, 0) => sign,
        (0, f) => {
            // Subnormal: normalise. `lead` counts the zeros above the MSB
            // within the 10-bit fraction field (a u32 has 22 zeros before
            // the field even begins).
            let lead = f.leading_zeros() - 22;
            let exp32 = 127 - 15 - lead;
            let mant = (f << (lead + 1)) & 0x03FF;
            sign | (exp32 << 23) | (mant << 13)
        }
        (0x1F, 0) => sign | 0x7F80_0000,
        (0x1F, f) => sign | 0x7F80_0000 | (f << 13),
        (e, f) => sign | (((e as u32) + 127 - 15) << 23) | (f << 13),
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_bytes_per_format() {
        assert_eq!(Quantization::F32.row_bytes(32), 128);
        assert_eq!(Quantization::F16.row_bytes(32), 64);
        assert_eq!(Quantization::Int8.row_bytes(32), 36);
    }

    #[test]
    fn f32_round_trip_is_exact() {
        let q = Quantization::F32;
        let vals = vec![1.5, -0.25, 3.75, 0.0];
        let mut buf = vec![0u8; q.row_bytes(4)];
        q.encode(&vals, &mut buf);
        assert_eq!(q.decode(&buf, 4), vals);
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // max finite f16
        assert_eq!(f32_to_f16_bits(1e6), 0x7C00); // overflow → inf
        assert_eq!(f16_bits_to_f32(0x3C00), 1.0);
        assert_eq!(f16_bits_to_f32(0x7C00), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(0xFC00), f32::NEG_INFINITY);
        assert!(f16_bits_to_f32(0x7E00).is_nan());
        // Smallest positive subnormal: 2^-24.
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 0x0001);
    }

    #[test]
    fn f16_round_trips_multiples_of_two_pow_minus_six() {
        // The procedural table grid: k/64 for k in -128..128. All exactly
        // representable in binary16, so encode∘decode is the identity.
        for k in -128i32..128 {
            let v = k as f32 / 64.0;
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(rt, v, "k={k}");
        }
    }

    #[test]
    fn f16_error_bound_for_unit_interval() {
        // Relative error of binary16 round-trip is at most 2^-11 for
        // normal values.
        let mut rng = recssd_sim::rng::Xoshiro256::seed_from(3);
        for _ in 0..10_000 {
            let v = (rng.next_f64() * 2.0 - 1.0) as f32;
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            let err = (rt - v).abs();
            assert!(err <= v.abs() * 0.0005 + 1e-7, "v={v} rt={rt}");
        }
    }

    #[test]
    fn int8_round_trips_procedural_grid() {
        // Any row of k/64 grid values with |k| <= 127 quantises exactly
        // under the power-of-two scale, regardless of the row's max.
        let q = Quantization::Int8;
        for max_k in [127i32, 100, 64, 63, 32, 31, 5, 1] {
            let row: Vec<f32> = (-max_k..=max_k).map(|k| k as f32 / 64.0).collect();
            let mut buf = vec![0u8; q.row_bytes(row.len())];
            q.encode(&row, &mut buf);
            let dec = q.decode(&buf, row.len());
            for (a, b) in dec.iter().zip(&row) {
                assert_eq!(a, b, "max_k={max_k}");
            }
        }
    }

    #[test]
    fn int8_error_bound_for_random_rows() {
        let q = Quantization::Int8;
        let mut rng = recssd_sim::rng::Xoshiro256::seed_from(9);
        for _ in 0..1000 {
            let row: Vec<f32> = (0..32)
                .map(|_| (rng.next_f64() * 4.0 - 2.0) as f32)
                .collect();
            let mut buf = vec![0u8; q.row_bytes(32)];
            q.encode(&row, &mut buf);
            let dec = q.decode(&buf, 32);
            let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            // Power-of-two scale loses at most one bit vs the optimal
            // scale: error <= scale/2 < max_abs/127.
            let tol = max_abs / 127.0 + 1e-7;
            for (a, b) in dec.iter().zip(&row) {
                assert!((a - b).abs() <= tol, "a={a} b={b} tol={tol}");
            }
        }
    }

    #[test]
    fn int8_zero_row() {
        let q = Quantization::Int8;
        let row = vec![0.0f32; 8];
        let mut buf = vec![0u8; q.row_bytes(8)];
        q.encode(&row, &mut buf);
        assert_eq!(q.decode(&buf, 8), row);
    }

    #[test]
    #[should_panic(expected = "bad row buffer")]
    fn encode_wrong_buffer_panics() {
        Quantization::F32.encode(&[1.0], &mut [0u8; 3]);
    }

    #[test]
    fn f16_exhaustive_round_trip_through_f32() {
        // Every finite f16 must survive f16→f32→f16 unchanged.
        for h in 0u16..=0xFFFF {
            let exp = (h >> 10) & 0x1F;
            if exp == 0x1F {
                continue; // inf/NaN payloads not required to round-trip
            }
            let back = f32_to_f16_bits(f16_bits_to_f32(h));
            assert_eq!(back, h, "h={h:#06x}");
        }
    }
}
