//! `IdMap`'s allocation discipline, measured: once the slot array has
//! grown to a workload's live count, insert/remove churn at that count
//! allocates nothing, however far the ids advance. A counting global
//! allocator brackets the churn.
//!
//! The counters read are the test thread's own, so the harness's other
//! threads do not pollute them.

use recssd_sim::alloc_count::{allocations_during, CountingAllocator};
use recssd_sim::IdMap;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const LIVE: u64 = 48;

/// Inserts ids `from..to` and keeps `LIVE` of them in flight, retiring
/// out of order inside each group of four (the first of a group leaves
/// last), plus id 0, which outlives everything.
fn churn(m: &mut IdMap<u64, [u64; 4]>, from: u64, to: u64) {
    for id in from..to {
        assert_eq!(m.insert(id, [id; 4]), None);
        if id >= LIVE {
            let old = id - LIVE;
            let gone = match old % 4 {
                0 => old + 3,
                3 => old - 3,
                _ => old,
            };
            if gone != 0 {
                assert_eq!(m.remove(&gone), Some([gone; 4]));
            }
        }
    }
}

#[test]
fn steady_churn_allocates_nothing_once_warm() {
    let mut m = IdMap::new();
    churn(&mut m, 0, 1_000);
    let slots = m.slot_count();
    let (allocs, ()) = allocations_during(|| churn(&mut m, 1_000, 200_000));
    assert_eq!(allocs, 0, "steady churn allocated");
    assert_eq!(m.slot_count(), slots, "the slot array grew after warm-up");
    assert!(
        slots as u64 <= 8 * (LIVE + 2),
        "{slots} slots for {LIVE} live ids"
    );
    // The long-lived entry and the live window are all still there.
    assert_eq!(m.len() as u64, LIVE + 1);
    assert_eq!(m[&0], [0; 4]);
}
