//! A per-thread memo of procedural row codes.
//!
//! Every procedural element is k/64 with |k| <= 127, so a row is exactly
//! one `i8` *code* per element, and a recently synthesized row can be
//! served by converting its codes instead of re-hashing every element.
//! Codes depend on neither the view, the width nor the quantization, so
//! the memo is keyed by `(seed, source row)` and every table over one
//! seed shares it; an entry serves any row no wider than itself.
//!
//! The codes take a fixed 1 MiB per thread, allocated on the first wide
//! row and kept for the thread's life. `(seed, row)` picks one of
//! [`SETS`] sets of [`SET_CODES`] codes. Within a set, entries are packed
//! back to back and a CLOCK hand sweeps the set's codes: a new row goes
//! at the hand, and evicts the entries it overlaps once the hand has
//! passed over each entry in its way as many times as the entry was hit
//! since the last pass (up to [`MAX_CREDIT`]), so a row read often
//! outlives rows read once.

use std::cell::RefCell;
use std::ops::Range;

use recssd_sim::rng::mix64;

use crate::table::{procedural_code, procedural_key};

/// The narrowest row the memo serves: below it a probe costs too large a
/// share of a synthesis to pay.
const MIN_DIM: usize = 256;
/// Codes per set, and the widest row the memo serves (a 16 KiB page of
/// Int8 elements fits).
const SET_CODES: usize = 16 << 10;
const SETS: usize = (1 << 20) / SET_CODES;
/// Entries a set can hold: its codes in rows of [`MIN_DIM`].
const SET_ENTRIES: usize = SET_CODES / MIN_DIM;
/// Passes of the hand a hit row can survive.
const MAX_CREDIT: u8 = 3;

/// Hit and miss counts of the calling thread's row-code memo, in rows:
/// a miss is a row whose codes had to be synthesized. Rows the memo does
/// not serve (narrower than 256 elements) are not counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RowMemoStats {
    /// Rows served from memoized codes.
    pub hits: u64,
    /// Rows synthesized into the memo.
    pub misses: u64,
}

/// The row-code memo counts of the calling thread since it started.
pub fn row_memo_stats() -> RowMemoStats {
    MEMO.with(|m| {
        m.borrow()
            .as_ref()
            .map_or_else(Default::default, |m| m.stats)
    })
}

/// Whether rows of `dim` elements go through the memo.
#[inline]
pub(crate) fn serves(dim: usize) -> bool {
    (MIN_DIM..=SET_CODES).contains(&dim)
}

thread_local! {
    static MEMO: RefCell<Option<Box<Memo>>> = const { RefCell::new(None) };
}

/// One memoized row: codes `start..start + len` of its set.
#[derive(Debug, Default, Clone, Copy)]
struct Entry {
    seed: u64,
    row: u64,
    start: u16,
    len: u16,
    /// Hits not yet spent on a pass of the CLOCK hand.
    credit: u8,
}

impl Entry {
    fn span(&self) -> Range<usize> {
        usize::from(self.start)..usize::from(self.start) + usize::from(self.len)
    }
}

#[derive(Debug)]
struct Memo {
    /// `SETS × SET_CODES` codes, set by set.
    codes: Vec<i8>,
    /// `SET_ENTRIES` per set, of which the first `live[set]` are in use.
    entries: Vec<Entry>,
    live: Vec<u8>,
    /// Per set, the code its CLOCK hand points at.
    hands: Vec<u16>,
    stats: RowMemoStats,
}

impl Memo {
    fn new() -> Box<Self> {
        Box::new(Memo {
            codes: vec![0; SETS * SET_CODES],
            entries: vec![Entry::default(); SETS * SET_ENTRIES],
            live: vec![0; SETS],
            hands: vec![0; SETS],
            stats: RowMemoStats::default(),
        })
    }

    /// Where the codes of elements `0..dim` of `row` are, synthesized
    /// first if the memo does not hold them.
    fn codes_of(&mut self, seed: u64, row: u64, dim: usize) -> Range<usize> {
        let set = mix64(seed ^ procedural_key(row)) as usize % SETS;
        let base = set * SET_CODES;
        let entries = &mut self.entries[set * SET_ENTRIES..(set + 1) * SET_ENTRIES];
        let mut live = usize::from(self.live[set]);
        if let Some(i) = entries[..live]
            .iter()
            .position(|e| e.row == row && e.seed == seed)
        {
            let e = &mut entries[i];
            if usize::from(e.len) >= dim {
                e.credit = (e.credit + 1).min(MAX_CREDIT);
                self.stats.hits += 1;
                return base + usize::from(e.start)..base + usize::from(e.start) + dim;
            }
            // Held narrower than asked: synthesize the whole width anew.
            live -= 1;
            entries.swap(i, live);
        }
        self.stats.misses += 1;

        // Sweep past entries with credit in the new row's way, spending
        // one credit each pass; credit only falls here, so this ends.
        let mut hand = usize::from(self.hands[set]);
        loop {
            if hand + dim > SET_CODES {
                hand = 0;
            }
            let way = hand..hand + dim;
            match entries[..live]
                .iter_mut()
                .find(|e| e.credit > 0 && overlaps(&e.span(), &way))
            {
                Some(e) => {
                    e.credit -= 1;
                    hand = e.span().end;
                }
                None => break,
            }
        }
        let way = hand..hand + dim;
        let mut i = 0;
        while i < live {
            if overlaps(&entries[i].span(), &way) {
                live -= 1;
                entries.swap(i, live);
            } else {
                i += 1;
            }
        }
        // Disjoint rows of at least `MIN_DIM` codes: the new one fits.
        entries[live] = Entry {
            seed,
            row,
            start: hand as u16,
            len: dim as u16,
            credit: 0,
        };
        self.live[set] = live as u8 + 1;
        self.hands[set] = way.end as u16;

        let key = procedural_key(row);
        let codes = &mut self.codes[base + way.start..base + way.end];
        for (j, c) in codes.iter_mut().enumerate() {
            *c = procedural_code(seed, key, j);
        }
        base + way.start..base + way.end
    }
}

fn overlaps(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

/// Hands `each` the codes of elements `0..dim` of source row `row` of
/// the procedural table `seed`.
///
/// `dim` must be one the memo [`serves`].
#[inline]
pub(crate) fn with_codes(seed: u64, row: u64, dim: usize, each: impl FnOnce(&[i8])) {
    debug_assert!(serves(dim));
    MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let memo = &mut **memo.get_or_insert_with(Memo::new);
        let codes = memo.codes_of(seed, row, dim);
        each(&memo.codes[codes]);
    });
}
