//! Grouping an operation's lookups by flash page, shared by the host's
//! baseline I/O planner and the firmware's config processing.

use std::ops::Range;

/// One distinct flash page of an operation: its work items are
/// `items[start..start + len]` of the list grouped beside it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageRun {
    pub(crate) page: u64,
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl PageRun {
    /// Appends `item`, which lies on `page`, to the grouped lists: it
    /// extends the last run when that run is on the same page and opens a
    /// new run otherwise. Items fed in page order (a sorted pair list)
    /// group with one linear scan and no map.
    pub(crate) fn push<T>(runs: &mut Vec<PageRun>, items: &mut Vec<T>, page: u64, item: T) {
        match runs.last_mut() {
            Some(r) if r.page == page => r.len += 1,
            _ => runs.push(PageRun {
                page,
                start: items.len() as u32,
                len: 1,
            }),
        }
        items.push(item);
    }

    /// The run's index range into its item list.
    pub(crate) fn items(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}
