//! Pins the row generator. Every `sls_reference` check in the workspace
//! shares `EmbeddingTable`'s row synthesis with the code under test, so
//! none of them can catch a generator bug. Here the whole-row paths
//! (`encode_row`, `fill_relative_page`, `accumulate_row`, `row_f32`) are
//! held, bit for bit, to a transcription of the per-element definition
//! written out in this file — the hash, the grid mapping and the view
//! arithmetic — and three committed digests keep table contents from
//! drifting together with that transcription. Wide procedural rows are
//! served from a per-thread memo of their codes once synthesized; a
//! second property drives that memo through eviction, seeds and widths.

use proptest::prelude::*;
use recssd_embedding::{
    EmbeddingTable, PageLayout, Quantization, RowScratch, TableImage, TableSpec,
};

const PARENT_ROWS: u64 = 40;

/// One SplitMix64 step, as `recssd_sim::rng::mix64` defines it.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Procedural element `(row, j)`: a hash of seed, row and feature mapped
/// onto the grid k/64, k in -127..=127.
fn procedural_value(seed: u64, row: u64, j: usize) -> f32 {
    let h = mix64(
        seed ^ row
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(j as u64),
    );
    ((h % 255) as i64 - 127) as f32 / 64.0
}

/// Off-grid dense contents in (-4, 4), so F16 and Int8 really round.
fn dense_values(seed: u64, dim: usize) -> Vec<f32> {
    (0..PARENT_ROWS as usize * dim)
        .map(|i| {
            let unit = (mix64(seed ^ i as u64) >> 11) as f64 / (1u64 << 53) as f64;
            (unit * 8.0 - 4.0) as f32
        })
        .collect()
}

fn quant_from(k: u8) -> Quantization {
    match k % 3 {
        0 => Quantization::F32,
        1 => Quantization::F16,
        _ => Quantization::Int8,
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A table under one of the four views, with the parent row each local
/// row shows — worked out here, not asked of the table.
fn view(parent: &EmbeddingTable, kind: u8, picks: &[u64]) -> (EmbeddingTable, Vec<u64>) {
    let (lo, hi) = (7u64, 29u64);
    match kind % 4 {
        0 => (parent.clone(), (0..PARENT_ROWS).collect()),
        1 => (parent.slice(lo..hi), (lo..hi).collect()),
        2 => (parent.select(picks), picks.to_vec()),
        _ => {
            let local: Vec<u64> = picks.iter().map(|p| p % (hi - lo)).collect();
            let shown = local.iter().map(|l| lo + l).collect();
            (parent.slice(lo..hi).select(&local), shown)
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn whole_row_paths_match_the_per_element_definition(
        seed in 0u64..u64::MAX,
        shape in (0usize..4, 0u8..3, 0u8..4, proptest::bool::ANY),
        picks in proptest::collection::vec(0u64..PARENT_ROWS, 1..12),
    ) {
        let (dim_k, quant_k, view_k, dense) = shape;
        let dim = [1usize, 3, 32, 1024][dim_k];
        let q = quant_from(quant_k);
        let spec = TableSpec::new(PARENT_ROWS, dim, q);
        let values = dense_values(seed, dim);
        let parent = if dense {
            EmbeddingTable::dense(spec, values.clone())
        } else {
            EmbeddingTable::procedural(spec, seed)
        };
        let (table, shown) = view(&parent, view_k, &picks);
        prop_assert_eq!(table.spec().rows, shown.len() as u64);

        // The definition, element by element, then `Quantization::encode`.
        let row_bytes = q.row_bytes(dim);
        let expected: Vec<(Vec<f32>, Vec<u8>)> = shown
            .iter()
            .map(|&row| {
                let raw: Vec<f32> = (0..dim)
                    .map(|j| match dense {
                        true => values[row as usize * dim + j],
                        false => procedural_value(seed, row, j),
                    })
                    .collect();
                let mut encoded = vec![0u8; row_bytes];
                q.encode(&raw, &mut encoded);
                (raw, encoded)
            })
            .collect();

        let mut scratch = RowScratch::default();
        for (local, (raw, encoded)) in expected.iter().enumerate() {
            let local = local as u64;
            for (j, v) in raw.iter().enumerate() {
                prop_assert_eq!(table.raw_value(local, j).to_bits(), v.to_bits());
            }
            let mut got = vec![0xAAu8; row_bytes];
            table.encode_row(local, &mut got);
            prop_assert_eq!(&got, encoded, "encode_row, local row {}", local);

            let decoded = q.decode(encoded, dim);
            prop_assert_eq!(bits(&table.row_f32(local)), bits(&decoded));
            // Accumulating twice through one scratch: `acc + v + v`.
            let start: Vec<f32> = (0..dim).map(|j| j as f32 * 0.3 - 1.0).collect();
            let mut acc = start.clone();
            table.accumulate_row(local, &mut scratch, &mut acc);
            table.accumulate_row(local, &mut scratch, &mut acc);
            let want: Vec<f32> = start.iter().zip(&decoded).map(|(s, v)| s + v + v).collect();
            prop_assert_eq!(bits(&acc), bits(&want), "accumulate_row, local row {}", local);
        }

        // Pages of four rows with a tail no row reaches.
        let page_bytes = 5 * row_bytes - 1;
        let image = TableImage::new(table, PageLayout::Dense, page_bytes);
        prop_assert_eq!(image.pages(), (shown.len() as u64).div_ceil(4));
        for (page, rows) in expected.chunks(4).enumerate() {
            let mut want = vec![0xAAu8; page_bytes];
            for (i, (_, encoded)) in rows.iter().enumerate() {
                want[i * row_bytes..(i + 1) * row_bytes].copy_from_slice(encoded);
            }
            let mut got = vec![0xAAu8; page_bytes];
            image.fill_relative_page(page as u64, &mut got);
            prop_assert_eq!(got, want, "fill_relative_page, page {}", page);
        }
    }
}

/// Rows of 1 024 elements the memo of synthesized row codes holds: 1 MiB
/// of one-byte codes.
const MEMO_WIDE_ROWS: usize = 1024;

/// A procedural table under one of three views of a large parent, as
/// `(local row, parent row)` pairs for `n` distinct rows starting at
/// parent row `first`.
fn wide_view(
    parent: &EmbeddingTable,
    kind: u8,
    first: u64,
    n: usize,
) -> (EmbeddingTable, Vec<(u64, u64)>) {
    let rows = parent.spec().rows;
    match kind % 3 {
        0 => (
            parent.clone(),
            (0..n as u64).map(|l| (first + l, first + l)).collect(),
        ),
        1 => (
            parent.slice(first..first + n as u64),
            (0..n as u64).map(|l| (l, first + l)).collect(),
        ),
        _ => {
            let picks: Vec<u64> = (0..n as u64).map(|l| (first + l * 7919) % rows).collect();
            let shown = picks
                .iter()
                .enumerate()
                .map(|(l, &p)| (l as u64, p))
                .collect();
            (parent.select(&picks), shown)
        }
    }
}

/// Checks every whole-row path of local row `local` of `table` (parent
/// row `row` of the procedural table `seed`) against the definition.
fn check_wide_row(
    table: &EmbeddingTable,
    scratch: &mut RowScratch,
    seed: u64,
    local: u64,
    row: u64,
) {
    let TableSpec { dim, quant: q, .. } = table.spec();
    let raw: Vec<f32> = (0..dim).map(|j| procedural_value(seed, row, j)).collect();
    let mut encoded = vec![0u8; q.row_bytes(dim)];
    q.encode(&raw, &mut encoded);
    let decoded = q.decode(&encoded, dim);
    let what = format!("seed {seed} parent row {row} dim {dim} {q:?}");

    let mut got = vec![0xAAu8; encoded.len()];
    table.encode_row_with(local, scratch, &mut got);
    assert_eq!(got, encoded, "encode_row_with, {what}");
    got.fill(0xAA);
    TableImage::new(table.clone(), PageLayout::Spread, encoded.len())
        .fill_relative_page(local, &mut got);
    assert_eq!(got, encoded, "fill_relative_page, {what}");
    assert_eq!(
        bits(&table.row_f32(local)),
        bits(&decoded),
        "row_f32, {what}"
    );
    let mut acc: Vec<f32> = (0..dim).map(|j| j as f32 * 0.3 - 1.0).collect();
    let want: Vec<f32> = acc.iter().zip(&decoded).map(|(s, v)| s + v).collect();
    table.accumulate_row(local, scratch, &mut acc);
    assert_eq!(bits(&acc), bits(&want), "accumulate_row, {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Wide procedural rows are served from a bounded memo of their
    /// codes once synthesized. Every whole-row path still matches the
    /// definition bit for bit: on both sides of the memo's 256-element
    /// gate, under every view, after more distinct wide rows than the
    /// memo holds, with seeds interleaved and one seed read at two widths.
    #[test]
    fn memoized_rows_match_the_per_element_definition(
        seeds in (0u64..u64::MAX, 0u64..u64::MAX),
        shape in (0u8..3, 0u8..3, 0u64..1 << 30),
        reads in proptest::collection::vec((0usize..4, 0usize..64), 1..40),
    ) {
        let (quant_k, view_k, first) = shape;
        let q = quant_from(quant_k);
        let rows = 1u64 << 31;
        let flood = MEMO_WIDE_ROWS + MEMO_WIDE_ROWS / 4;
        // Seed 0 at three widths, seed 1 at the gate.
        let tables: Vec<_> =
            [(seeds.0, 1024), (seeds.1, 256), (seeds.0, 255), (seeds.0, 256)]
                .into_iter()
                .map(|(seed, dim)| {
                    let parent = EmbeddingTable::procedural(TableSpec::new(rows, dim, q), seed);
                    let (table, shown) = wide_view(&parent, view_k, first, flood);
                    (seed, table, shown)
                })
                .collect();
        let mut scratch = RowScratch::default();

        // More distinct dim-1024 rows than the memo holds, in order: the
        // early ones are evicted before the reads below come back to them.
        let (seed, wide, shown) = &tables[0];
        let mut got = vec![0u8; q.row_bytes(1024)];
        for &(local, row) in shown {
            let raw: Vec<f32> = (0..1024).map(|j| procedural_value(*seed, row, j)).collect();
            let mut want = vec![0u8; got.len()];
            q.encode(&raw, &mut want);
            wide.encode_row_with(local, &mut scratch, &mut got);
            prop_assert_eq!(&got, &want, "flood, parent row {}", row);
        }
        // Interleaved reads: the first rows (evicted), the last rows
        // (held), the same seed at 1024 then 256 and 255 elements, and
        // the other seed.
        for (k, i) in reads {
            let (seed, table, shown) = &tables[k];
            let (local, row) = if i % 2 == 0 { shown[i] } else { shown[flood - i] };
            check_wide_row(table, &mut scratch, *seed, local, row);
        }
    }
}

/// FNV-1a digests of the encoded bytes of three fixed procedural rows,
/// taken from the per-element generator as it stood before whole rows
/// were streamed. A change to the hash, the grid or an
/// encoder shows up here even if the transcription above is edited to
/// match.
#[test]
fn golden_row_digests() {
    let golden = [
        (
            42u64,
            7u64,
            32usize,
            Quantization::F32,
            0x2977_6F8C_E2F1_1514u64,
        ),
        (42, 123_456, 1024, Quantization::F16, 0xB00A_ABD1_8661_13A1),
        (7, 999_999, 64, Quantization::Int8, 0x851F_E930_D965_A86D),
    ];
    for (seed, row, dim, q, digest) in golden {
        let table = EmbeddingTable::procedural(TableSpec::new(1_000_000, dim, q), seed);
        let mut bytes = vec![0u8; q.row_bytes(dim)];
        table.encode_row(row, &mut bytes);
        assert_eq!(
            fnv1a(&bytes),
            digest,
            "seed {seed} row {row} dim {dim} {q:?}: {:#018X}",
            fnv1a(&bytes)
        );
    }
}
