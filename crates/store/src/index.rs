//! The interval index: an in-memory map from valid-time intervals to the
//! heap pages that hold them, with every page's zone map and key filter
//! beside it — all the state that prunes pages. It is derived from the
//! heap and never written to disk.
//!
//! One entry per heap record: `(ts, te, page, first_slot, last_slot)`,
//! the record's interval and its position — a NULL (or non-integer) bound
//! stands as the value every bound on its side admits (`i64::MIN` for
//! `ts`, `i64::MAX` for `te`), so a probe finds the record whenever its
//! other bound can match. Entries are kept sorted by `ts`, and every
//! block of 64 consecutive entries carries the largest `te` inside it —
//! the augmentation of an interval tree, one level deep. A
//! timeslice/overlap probe `ts <= B ∧ te > A` binary-searches the last
//! entry starting at or before `B`, skips every block up to it whose
//! `max_te` is at most `A` and scans the rest. The answer is, for every
//! heap page that may hold a matching record, the slot ranges of the
//! entries that matched: sorted, coalesced and disjoint, so no slot is
//! named twice even when the index holds an entry twice. The scan
//! decodes only those slots and still re-filters them, so a slot that
//! does not match costs time, never correctness.
//!
//! Appends sort their batch and merge it in; a batch that starts at or
//! past the last entry — all of a timestamp-ordered ingest — is a plain
//! extend. Neighbouring entries on one page whose intervals overlap are
//! folded into one, whose slot range is the union of theirs. That keeps a
//! time-ordered heap at about one entry per page and leaves the pages of
//! every probe with `A <= B` (an `AS OF`, an overlap) exact; only a probe
//! for intervals containing all of `(B, A]` can get a page whose records
//! each cover part of it. Within a page, a folded entry's slot range may
//! span records of other entries between its first and last slot.
//!
//! A table that was opened or recovered builds its index on first use (a
//! probe or an admission check), from a heap scan the caller supplies;
//! appends that run before then skip it. Everything sits behind one
//! `RwLock`, so a probe sees every entry appended before it began. No interleaving of the build
//! with appends loses an entry: an appender writes its rows to the heap
//! *before* it takes the lock, so either the build scan sees them or the
//! appender finds the index built and adds them (both, at worst — a
//! duplicate, whose slots the probe's coalescing names once).
//!
//! Beside the intervals the index keeps every heap page's **zone map**
//! (see `PageSummary`) — min/max of its records' `ts`, `te` and key — and,
//! for a table with a key column, its **key filter** (see `KeyFilter`).
//! The same derived, advisory pruning, built and appended with the
//! entries under the same lock: [`IntervalIndex::admit`] checks a scan's
//! [`ZoneBounds`] against both, for a whole page list under one read
//! lock. Either may reject page `p` only if no record on `p` can satisfy
//! the bounds.

use std::ops::Range;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::page::{PageId, SlotId};

/// One index entry: `(ts, te, page, first_slot, last_slot)` — the
/// interval of the records it summarizes and where they lie, slots
/// `first_slot..=last_slot` of heap page `page`.
pub type IndexEntry = (i64, i64, PageId, SlotId, SlotId);

/// Slots `start..end` of one heap page: what a pruned scan decodes.
pub type SlotRange = (PageId, Range<SlotId>);

/// Every slot of a page — the range of a page a scan reads whole; a
/// reader clips it to the records the page holds.
pub const ALL_SLOTS: Range<SlotId> = 0..SlotId::MAX;

/// A conjunction of one-sided bounds a pruned scan pushes down: a record
/// matches only if it satisfies every `Some` bound. `ts_le: Some(v)`
/// means `ts <= v`, `te_gt: Some(v)` means `te > v`, and so on; an
/// `AS OF v` timeslice is exactly `{ts_le: v, te_gt: v}` under the
/// half-open `[ts, te)` convention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneBounds {
    pub ts_le: Option<i64>,
    pub ts_ge: Option<i64>,
    pub te_gt: Option<i64>,
    pub te_lt: Option<i64>,
    pub key_le: Option<i64>,
    pub key_ge: Option<i64>,
}

impl ZoneBounds {
    /// The timeslice bounds: rows whose interval contains `v`.
    pub fn as_of(v: i64) -> ZoneBounds {
        ZoneBounds {
            ts_le: Some(v),
            te_gt: Some(v),
            ..ZoneBounds::default()
        }
    }

    /// No bound at all — matches everything, prunes nothing.
    pub fn is_empty(&self) -> bool {
        self == &ZoneBounds::default()
    }

    /// Number of bounds set — a crude selectivity proxy for costing.
    pub fn bound_count(&self) -> usize {
        [
            self.ts_le,
            self.ts_ge,
            self.te_gt,
            self.te_lt,
            self.key_le,
            self.key_ge,
        ]
        .iter()
        .filter(|b| b.is_some())
        .count()
    }

    /// The key the bounds pin (`key_ge == key_le`), if any.
    fn pinned_key(&self) -> Option<i64> {
        self.key_ge.filter(|&k| self.key_le == Some(k))
    }
}

impl std::fmt::Display for ZoneBounds {
    /// The EXPLAIN rendering of the bounds, e.g. `ts<=7, te>7`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        for (name, op, v) in [
            ("ts", ">=", self.ts_ge),
            ("ts", "<=", self.ts_le),
            ("te", ">", self.te_gt),
            ("te", "<", self.te_lt),
            ("key", ">=", self.key_ge),
            ("key", "<=", self.key_le),
        ] {
            if let Some(v) = v {
                write!(f, "{sep}{name}{op}{v}")?;
                sep = ", ";
            }
        }
        Ok(())
    }
}

/// What a run of heap records contributes to the index.
#[derive(Debug, Default)]
pub struct IndexRows {
    /// One entry per record.
    intervals: Vec<IndexEntry>,
    /// One summary per run of records on a page.
    pages: Vec<(PageId, PageSummary)>,
    /// The non-NULL keys, one filter per run of keyed records on a page.
    filters: Vec<(PageId, KeyFilter)>,
}

impl IndexRows {
    /// Note the record in slot `slot` of heap page `page`: its bounds —
    /// `None` when NULL or not an integer — and its key — `None` when it
    /// is NULL, or when the table has no key column.
    pub fn add(
        &mut self,
        page: PageId,
        slot: SlotId,
        ts: Option<i64>,
        te: Option<i64>,
        key: Option<i64>,
    ) {
        self.intervals.push((
            ts.unwrap_or(i64::MIN),
            te.unwrap_or(i64::MAX),
            page,
            slot,
            slot,
        ));
        if self.pages.last().is_none_or(|(last, _)| *last != page) {
            self.pages.push((page, PageSummary::EMPTY));
        }
        let (_, summary) = self.pages.last_mut().expect("pushed above");
        summary.add(ts.zip(te), key);
        if let Some(key) = key {
            if self.filters.last().is_none_or(|(last, _)| *last != page) {
                self.filters.push((page, KeyFilter::default()));
            }
            let (_, filter) = self.filters.last_mut().expect("pushed above");
            filter.add(key);
        }
    }
}

/// Entries summarized by one `max_te`.
const BLOCK: usize = 64;

/// 64-bit words of one page's key filter: 1 024 bits, 128 bytes.
const FILTER_WORDS: usize = 16;

/// The keys of one heap page: a Bloom filter of 1 024 bits with five
/// probes, each ten bits of one 64-bit mix of the key — about 1 % false
/// positives at the ~100 keys a page of four integers holds.
#[derive(Debug, Clone, Copy, Default)]
struct KeyFilter([u64; FILTER_WORDS]);

impl KeyFilter {
    /// The five bit positions of `key` (a splitmix64 finalizer).
    fn bits(key: i64) -> impl Iterator<Item = usize> {
        let mut h = (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (0..5).map(move |i| (h >> (10 * i)) as usize % (64 * FILTER_WORDS))
    }

    fn add(&mut self, key: i64) {
        for b in KeyFilter::bits(key) {
            self.0[b / 64] |= 1 << (b % 64);
        }
    }

    fn may_hold(&self, key: i64) -> bool {
        KeyFilter::bits(key).all(|b| self.0[b / 64] & (1 << (b % 64)) != 0)
    }

    fn union(&mut self, other: &KeyFilter) {
        for (word, bits) in self.0.iter_mut().zip(other.0) {
            *word |= bits;
        }
    }
}

/// The zone map of one heap page: min/max of its records' `ts`, `te` and
/// key (`(min, max)` pairs). A record with a NULL or non-integer bound
/// *poisons* the time side, one with a NULL key (or any record of a table
/// without a key column) the key side: a poisoned side admits every
/// bound, and every key whatever the page's key filter says. An empty
/// summary (`min > max`) admits nothing — it describes no record.
#[derive(Debug, Clone, Copy)]
struct PageSummary {
    ts: (i64, i64),
    te: (i64, i64),
    key: (i64, i64),
    time_poisoned: bool,
    key_poisoned: bool,
}

impl PageSummary {
    const EMPTY: PageSummary = PageSummary {
        ts: (i64::MAX, i64::MIN),
        te: (i64::MAX, i64::MIN),
        key: (i64::MAX, i64::MIN),
        time_poisoned: false,
        key_poisoned: false,
    };

    /// What stands for a page no record reached: it admits everything.
    const UNKNOWN: PageSummary = PageSummary {
        time_poisoned: true,
        key_poisoned: true,
        ..PageSummary::EMPTY
    };

    fn add(&mut self, interval: Option<(i64, i64)>, key: Option<i64>) {
        match interval {
            Some((ts, te)) => {
                widen(&mut self.ts, (ts, ts));
                widen(&mut self.te, (te, te));
            }
            None => self.time_poisoned = true,
        }
        match key {
            Some(key) => widen(&mut self.key, (key, key)),
            None => self.key_poisoned = true,
        }
    }

    fn union(&mut self, other: &PageSummary) {
        widen(&mut self.ts, other.ts);
        widen(&mut self.te, other.te);
        widen(&mut self.key, other.key);
        self.time_poisoned |= other.time_poisoned;
        self.key_poisoned |= other.key_poisoned;
    }

    /// Could a record on the page satisfy `b`, by the min/max alone?
    fn zone_admits(&self, b: &ZoneBounds) -> bool {
        let time = self.time_poisoned
            || (b.ts_le.is_none_or(|v| self.ts.0 <= v)
                && b.ts_ge.is_none_or(|v| self.ts.1 >= v)
                && b.te_gt.is_none_or(|v| self.te.1 > v)
                && b.te_lt.is_none_or(|v| self.te.0 < v));
        let key = self.key_poisoned
            || (b.key_le.is_none_or(|v| self.key.0 <= v)
                && b.key_ge.is_none_or(|v| self.key.1 >= v));
        time && key
    }
}

/// Widen the `(min, max)` range `into` to cover `(lo, hi)`.
fn widen(into: &mut (i64, i64), (lo, hi): (i64, i64)) {
    into.0 = into.0.min(lo);
    into.1 = into.1.max(hi);
}

/// A built index: the interval entries, the page summaries and the key
/// filters.
#[derive(Debug)]
struct Built {
    intervals: Entries,
    /// `pages[p]` summarizes heap page `p`.
    pages: Vec<PageSummary>,
    /// `filters[p]` holds the keys of heap page `p`; empty for a table
    /// without a key column.
    filters: Vec<KeyFilter>,
}

impl Built {
    fn new(rows: IndexRows) -> Built {
        let mut built = Built {
            intervals: Entries::new(rows.intervals),
            pages: Vec::new(),
            filters: Vec::new(),
        };
        built.add_pages(&rows.pages, &rows.filters);
        built
    }

    fn insert(&mut self, rows: IndexRows) {
        self.intervals.insert(rows.intervals);
        self.add_pages(&rows.pages, &rows.filters);
    }

    fn add_pages(&mut self, pages: &[(PageId, PageSummary)], filters: &[(PageId, KeyFilter)]) {
        for (page, summary) in pages {
            let page = *page as usize;
            if page < self.pages.len() {
                self.pages[page].union(summary);
            } else {
                self.pages.resize(page, PageSummary::UNKNOWN);
                self.pages.push(*summary);
            }
        }
        for (page, filter) in filters {
            let page = *page as usize;
            if self.filters.len() <= page {
                self.filters.resize(page + 1, KeyFilter::default());
            }
            self.filters[page].union(filter);
        }
    }

    /// Could heap page `page` hold key `key`, by its summary and filter?
    /// A page neither covers admits every key.
    fn may_hold(&self, page: PageId, key: i64) -> bool {
        let page = page as usize;
        self.pages.get(page).is_none_or(|s| s.key_poisoned)
            || self.filters.get(page).is_none_or(|f| f.may_hold(key))
    }

    /// Keep the ranges of `slots` whose page's summary admits `bounds` (a
    /// page no summary covers admits everything); returns how many pages
    /// the key filter alone dropped. A page's ranges are adjacent.
    fn admit(&self, slots: &mut Vec<SlotRange>, bounds: &ZoneBounds) -> u64 {
        let pinned = bounds.pinned_key();
        let mut key_filtered = 0;
        let mut last = None;
        slots.retain(|&(p, _)| {
            let Some(summary) = self.pages.get(p as usize) else {
                return true;
            };
            if !summary.zone_admits(bounds) {
                return false;
            }
            let kept = pinned.is_none_or(|k| self.may_hold(p, k));
            key_filtered += u64::from(!kept && last.replace(p) != Some(p));
            kept
        });
        key_filtered
    }
}

/// The sorted interval entries and their block maxima.
#[derive(Debug)]
struct Entries {
    /// Ascending by `ts` (and, unfolded, by the whole entry).
    sorted: Vec<IndexEntry>,
    /// `max_te[b]` is the largest `te` of `sorted[b * BLOCK..][..BLOCK]`.
    max_te: Vec<i64>,
}

/// Fold `next` into `last` — the entry before it in sorted order — when
/// both name the same page and their intervals overlap or touch. Their
/// union is then one interval, so the folded entry answers every
/// timeslice exactly as the two did, and the order by `ts` is kept:
/// `last`'s `te` can only grow to `next`'s. Its slot range grows to the
/// hull of both. A time-ordered heap, whose records on a page mostly
/// overlap their neighbours, keeps about one entry per page.
fn fold(next: &mut IndexEntry, last: &mut IndexEntry) -> bool {
    let folds = last.2 == next.2 && next.0 <= last.1;
    if folds {
        last.1 = last.1.max(next.1);
        last.3 = last.3.min(next.3);
        last.4 = last.4.max(next.4);
    }
    folds
}

/// Add slots `slots` of `page` to `ranges`, merged into the last range
/// when that one is on the same page and overlaps or touches them.
fn push_range(ranges: &mut Vec<SlotRange>, page: PageId, slots: Range<SlotId>) {
    if let Some((last_page, last)) = ranges.last_mut() {
        if *last_page == page && slots.start <= last.end && last.start <= slots.end {
            last.start = last.start.min(slots.start);
            last.end = last.end.max(slots.end);
            return;
        }
    }
    ranges.push((page, slots));
}

impl Entries {
    fn new(mut sorted: Vec<IndexEntry>) -> Entries {
        sorted.sort_unstable();
        sorted.dedup_by(fold);
        let mut entries = Entries {
            sorted,
            max_te: Vec::new(),
        };
        entries.refresh_blocks(0);
        entries
    }

    /// Recompute the block maxima from the block holding entry `from` on.
    fn refresh_blocks(&mut self, from: usize) {
        let first = from / BLOCK;
        self.max_te.truncate(first);
        self.max_te
            .extend(self.sorted[first * BLOCK..].chunks(BLOCK).map(|block| {
                block
                    .iter()
                    .map(|e| e.1)
                    .max()
                    .expect("blocks are non-empty")
            }));
    }

    fn insert(&mut self, mut batch: Vec<IndexEntry>) {
        if self.sorted.is_empty() {
            // The batch's own buffer becomes the index: no copy of it.
            *self = Entries::new(batch);
            return;
        }
        batch.sort_unstable();
        batch.dedup_by(fold);
        let Some(&first) = batch.first() else {
            return;
        };
        let old = self.sorted.len();
        let from = self.sorted.partition_point(|e| *e <= first);
        // Entries before `from` sort at or before the whole batch and stay
        // where they are; the tail `from..old` merges with the batch from
        // the back into the room the extend made.
        self.sorted.extend_from_slice(&batch);
        let (mut i, mut j) = (old, batch.len());
        for k in (from..self.sorted.len()).rev() {
            if j == 0 {
                break;
            }
            if i > from && self.sorted[i - 1] > batch[j - 1] {
                self.sorted[k] = self.sorted[i - 1];
                i -= 1;
            } else {
                self.sorted[k] = batch[j - 1];
                j -= 1;
            }
        }
        // Fold in place, as a build does, from the last entry that kept
        // its place: the ones before it were folded already.
        let start = from.saturating_sub(1);
        let mut kept = start;
        for k in start + 1..self.sorted.len() {
            let mut next = self.sorted[k];
            if !fold(&mut next, &mut self.sorted[kept]) {
                kept += 1;
                self.sorted[kept] = next;
            }
        }
        self.sorted.truncate(kept + 1);
        self.refresh_blocks(start);
    }

    fn probe(&self, ts_le: Option<i64>, te_gt: Option<i64>) -> Vec<SlotRange> {
        let te_ok = |te: i64| te_gt.is_none_or(|b| te > b);
        let end = ts_le.map_or(self.sorted.len(), |b| {
            self.sorted.partition_point(|e| e.0 <= b)
        });
        let mut hits: Vec<SlotRange> = Vec::new();
        for (block, &max_te) in self.sorted[..end].chunks(BLOCK).zip(&self.max_te) {
            if !te_ok(max_te) {
                continue;
            }
            for &(_, te, page, first, last) in block {
                // Neighbouring entries mostly share a heap page: merge
                // their ranges here, the rest after the sort.
                if te_ok(te) {
                    push_range(&mut hits, page, first..last + 1);
                }
            }
        }
        hits.sort_unstable_by_key(|(page, slots)| (*page, slots.start));
        let mut ranges = Vec::with_capacity(hits.len());
        for (page, slots) in hits {
            push_range(&mut ranges, page, slots);
        }
        ranges
    }
}

/// The interval index of one table. It starts unbuilt (see [`Default`])
/// unless created from its full row set with [`IntervalIndex::new`].
#[derive(Debug, Default)]
pub struct IntervalIndex {
    /// `None` until built.
    built: RwLock<Option<Built>>,
}

impl IntervalIndex {
    /// A built index over the full row set.
    pub fn new(rows: IndexRows) -> IntervalIndex {
        IntervalIndex {
            built: RwLock::new(Some(Built::new(rows))),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Option<Built>> {
        self.built.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Option<Built>> {
        self.built.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Index the freshly-appended records behind `rows`. The caller must
    /// have written them to the heap already, and publish them to
    /// snapshots only after this returns; an unbuilt index ignores them,
    /// because the scan that builds it will see them.
    pub fn append(&self, rows: IndexRows) {
        if rows.intervals.is_empty() && rows.pages.is_empty() {
            return;
        }
        if let Some(built) = self.write().as_mut() {
            built.insert(rows);
        }
    }

    /// Run `f` on the built index under the read lock. An unbuilt index
    /// is first built, under the write lock, from the rows `scan` returns
    /// — every record in the heap.
    fn with_built<R, E>(
        &self,
        scan: impl FnOnce() -> Result<IndexRows, E>,
        f: impl FnOnce(&Built) -> R,
    ) -> Result<R, E> {
        if let Some(built) = self.read().as_ref() {
            return Ok(f(built));
        }
        let mut built = self.write();
        if built.is_none() {
            *built = Some(Built::new(scan()?));
        }
        Ok(f(built.as_ref().expect("built above")))
    }

    /// The slots that may hold a record with `ts <= ts_le` and
    /// `te > te_gt` (an `AS OF v` probe passes `Some(v)` for both; a
    /// `None` side is unbounded): ascending by page and then by slot,
    /// with no two ranges of a page overlapping or touching. An unbuilt
    /// index is first built, under the write lock, from the rows `scan`
    /// returns — every record in the heap.
    pub fn probe<E>(
        &self,
        ts_le: Option<i64>,
        te_gt: Option<i64>,
        scan: impl FnOnce() -> Result<IndexRows, E>,
    ) -> Result<Vec<SlotRange>, E> {
        self.with_built(scan, |built| built.intervals.probe(ts_le, te_gt))
    }

    /// Drop from `slots` — ascending by page, as [`Self::probe`] returns
    /// them — the ranges of every page on which no record can satisfy
    /// `bounds`: the page's zone map rules it out, or the bounds pin the
    /// key and its key filter rejects it. One read lock covers the whole
    /// list. Returns how many pages the key filter alone dropped. An
    /// unbuilt index is built first, as by [`Self::probe`].
    pub fn admit<E>(
        &self,
        slots: &mut Vec<SlotRange>,
        bounds: &ZoneBounds,
        scan: impl FnOnce() -> Result<IndexRows, E>,
    ) -> Result<u64, E> {
        self.with_built(scan, |built| built.admit(slots, bounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::convert::Infallible;

    /// Index rows with interval entries only (no page summaries).
    fn rows(intervals: Vec<IndexEntry>) -> IndexRows {
        IndexRows {
            intervals,
            ..IndexRows::default()
        }
    }

    /// Index rows of records with keys and NULL bounds, numbered in
    /// slot order on each page.
    fn keyed(keys: &[(PageId, Option<i64>)]) -> IndexRows {
        let mut rows = IndexRows::default();
        let mut slots = HashMap::new();
        for &(page, key) in keys {
            rows.add(page, next_slot(&mut slots, page), None, None, key);
        }
        rows
    }

    /// The next free slot of `page`, as a heap hands them out.
    fn next_slot(slots: &mut HashMap<PageId, SlotId>, page: PageId) -> SlotId {
        let slot = slots.entry(page).or_insert(0);
        *slot += 1;
        *slot - 1
    }

    /// One entry per `(ts, te, page)` record, each in the next slot of
    /// its page.
    fn numbered(records: impl IntoIterator<Item = (i64, i64, PageId)>) -> Vec<IndexEntry> {
        let mut slots = HashMap::new();
        records
            .into_iter()
            .map(|(ts, te, page)| {
                let slot = next_slot(&mut slots, page);
                (ts, te, page, slot, slot)
            })
            .collect()
    }

    /// Bounds pinning the key to `k`.
    fn key_is(k: i64) -> ZoneBounds {
        ZoneBounds {
            key_ge: Some(k),
            key_le: Some(k),
            ..ZoneBounds::default()
        }
    }

    /// The pages of `0..pages` a built index admits for `bounds`.
    fn admitted(idx: &IntervalIndex, pages: PageId, bounds: ZoneBounds) -> Vec<PageId> {
        let mut kept = (0..pages).map(|p| (p, ALL_SLOTS)).collect();
        idx.admit(&mut kept, &bounds, || -> Result<_, Infallible> {
            panic!("the index was built")
        })
        .unwrap();
        pages_of(&kept)
    }

    /// Brute-force oracle over raw entries: the entries that match.
    fn matching(entries: &[IndexEntry], ts_le: i64, te_gt: i64) -> Vec<IndexEntry> {
        entries
            .iter()
            .filter(|&&(ts, te, ..)| ts <= ts_le && te > te_gt)
            .copied()
            .collect()
    }

    /// Brute-force oracle over raw entries: the pages that match.
    fn oracle(entries: &[IndexEntry], ts_le: i64, te_gt: i64) -> Vec<PageId> {
        let mut hits: Vec<PageId> = matching(entries, ts_le, te_gt)
            .iter()
            .map(|e| e.2)
            .collect();
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Probe a built index, checking that the ranges it returns ascend
    /// and that no two of one page overlap or touch.
    fn probe(idx: &IntervalIndex, ts_le: Option<i64>, te_gt: Option<i64>) -> Vec<SlotRange> {
        let ranges = idx
            .probe(ts_le, te_gt, || -> Result<_, Infallible> {
                panic!("the index was built")
            })
            .unwrap();
        for (page, slots) in &ranges {
            assert!(slots.start < slots.end, "empty range on page {page}");
        }
        for pair in ranges.windows(2) {
            let ((a, x), (b, y)) = (&pair[0], &pair[1]);
            assert!(
                a < b || (a == b && x.end < y.start),
                "ranges {pair:?} are out of order, overlap or touch"
            );
        }
        ranges
    }

    /// The pages `ranges` name, once each.
    fn pages_of(ranges: &[SlotRange]) -> Vec<PageId> {
        let mut pages: Vec<PageId> = ranges.iter().map(|(page, _)| *page).collect();
        pages.dedup();
        pages
    }

    /// Does one of `ranges` (as `probe` returns them) hold slot `slot`
    /// of `page`?
    fn covers(ranges: &[SlotRange], page: PageId, slot: SlotId) -> bool {
        let after = ranges.partition_point(|(p, slots)| (*p, slots.start) <= (page, slot));
        after > 0 && ranges[after - 1].0 == page && ranges[after - 1].1.contains(&slot)
    }

    /// Deterministic pseudo-random stream (xorshift64), values in `0..n`.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: i64) -> i64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as i64
        }
    }

    /// `probe` ≡ brute force over `pairs` random `(ts_le, te_gt)` bounds
    /// drawn around the entries' key range, plus the unbounded probes:
    /// the ranges cover the slots of every matching entry, on exactly the
    /// matching pages. A probe for intervals containing `(ts_le, te_gt]`
    /// may also return a page whose folded entries each cover part of it,
    /// never miss one.
    fn assert_probes_match(idx: &IntervalIndex, entries: &[IndexEntry], seed: u64, pairs: usize) {
        let max_ts = entries.iter().map(|e| e.0).max().unwrap_or(0);
        let mut rng = Rng(seed);
        let check = |ts_le: Option<i64>, te_gt: Option<i64>| {
            let got = probe(idx, ts_le, te_gt);
            let (b, a) = (ts_le.unwrap_or(i64::MAX), te_gt.unwrap_or(i64::MIN));
            for &(ts, te, page, first, last) in &matching(entries, b, a) {
                for slot in first..=last {
                    assert!(
                        covers(&got, page, slot),
                        "probe({ts_le:?}, {te_gt:?}) missed slot {slot} of page {page} ({ts}, {te})"
                    );
                }
            }
            if a <= b {
                assert_eq!(
                    pages_of(&got),
                    oracle(entries, b, a),
                    "probe(ts <= {ts_le:?}, te > {te_gt:?})"
                );
            }
        };
        for _ in 0..pairs {
            let ts_le = rng.below(max_ts + 20) - 10;
            let te_gt = rng.below(max_ts + 20) - 10;
            check(Some(ts_le), Some(te_gt));
        }
        check(None, None);
        check(None, Some(max_ts / 2));
        check(Some(max_ts / 2), None);
    }

    /// Timestamp-ordered entries with ties, a few long-lived intervals
    /// (so a block's `max_te` reaches far past its starts) and ~6 entries
    /// per page.
    fn in_order_entries(n: i64) -> Vec<IndexEntry> {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        numbered((0..n).map(|i| {
            let ts = i / 3;
            let len = if rng.below(50) == 0 { 5_000 } else { 1 };
            (ts, ts + len + rng.below(30), (i / 6) as PageId)
        }))
    }

    #[test]
    fn bulk_load_probe_matches_oracle() {
        let entries = numbered((0..2000i64).map(|i| {
            let ts = (i * 37) % 500;
            (ts, ts + 1 + (i % 40), (i / 10) as PageId)
        }));
        let idx = IntervalIndex::new(rows(entries.clone()));
        for v in [-1i64, 0, 13, 250, 499, 540, 1000] {
            assert_eq!(
                pages_of(&probe(&idx, Some(v), Some(v))),
                oracle(&entries, v, v),
                "AS OF {v}"
            );
        }
        // Overlap-style probe with distinct bounds.
        assert_eq!(
            pages_of(&probe(&idx, Some(400), Some(100))),
            oracle(&entries, 400, 100)
        );
        // Unbounded sides return everything on that side — no sentinel values.
        assert_probes_match(&idx, &entries, 1, 200);
    }

    #[test]
    fn appends_past_a_bulk_load() {
        let mut entries = numbered((0..300i64).map(|i| (i, i + 5, (i / 7) as PageId)));
        let idx = IntervalIndex::new(rows(entries.clone()));
        // Appends past the last key extend the entries, earlier ones merge
        // into the middle; probes see both.
        let fresh = numbered((0..450i64).map(|i| (1000 + i, 1002 + i, (100 + i / 7) as PageId)));
        let late = numbered((0..250i64).map(|i| (500 + i, 2000 + i, (200 + i / 7) as PageId)));
        idx.append(rows(fresh.clone()));
        idx.append(rows(late.clone()));
        entries.extend_from_slice(&fresh);
        entries.extend_from_slice(&late);
        assert_probes_match(&idx, &entries, 2, 300);
    }

    #[test]
    fn batches_of_any_order_keep_every_probe_exact() {
        // One batch per shape an ingest produces: single rows in order,
        // a timestamp-ordered COPY with 500 swapped pairs, rows that start
        // before everything indexed, and duplicates of indexed entries.
        let idx = IntervalIndex::new(rows(Vec::new()));
        let mut entries = Vec::new();
        for e in in_order_entries(300) {
            idx.append(rows(vec![e]));
            entries.push(e);
        }
        let mut swapped: Vec<IndexEntry> = in_order_entries(20_000)
            .into_iter()
            .map(|(ts, te, page, first, last)| (ts + 100, te + 100, page + 50, first, last))
            .collect();
        let mut rng = Rng(17);
        for _ in 0..500 {
            let (a, b) = (rng.below(20_000) as usize, rng.below(20_000) as usize);
            swapped.swap(a, b);
        }
        idx.append(rows(swapped.clone()));
        entries.extend_from_slice(&swapped);
        let early = numbered((0..333).map(|i| (-i, 3 * i, 9_000)));
        idx.append(rows(early.clone()));
        entries.extend_from_slice(&early);
        let again = entries[1_000..1_100].to_vec();
        idx.append(rows(again.clone()));
        entries.extend_from_slice(&again);
        assert_probes_match(&idx, &entries, 3, 300);
    }

    #[test]
    fn overlapping_neighbours_on_a_page_fold_into_one_entry() {
        // An event log in time order, 100 rows a page, each valid for 50
        // ticks: single-row appends and a bulk build both keep one entry
        // per page, and every probe still answers like the raw entries.
        let events = numbered((0..10_000i64).map(|i| (i, i + 50, (i / 100) as PageId)));
        let appended = IntervalIndex::new(rows(Vec::new()));
        for &e in &events {
            appended.append(rows(vec![e]));
        }
        let built = IntervalIndex::new(rows(events.clone()));
        for idx in [&appended, &built] {
            let held = idx.read().as_ref().map(|e| e.intervals.sorted.len());
            assert_eq!(held, Some(100));
            assert_probes_match(idx, &events, 6, 300);
        }
        // Disjoint intervals on one page do not fold.
        let gaps = numbered((0..1_000i64).map(|i| (3 * i, 3 * i + 2, 0)));
        let idx = IntervalIndex::new(rows(gaps.clone()));
        assert_eq!(
            idx.read().as_ref().map(|e| e.intervals.sorted.len()),
            Some(1_000)
        );
        assert_probes_match(&idx, &gaps, 7, 300);
    }

    #[test]
    fn an_out_of_order_append_folds_like_a_build() {
        // The third row overlaps both earlier ones on their page: appended
        // one row at a time, the three fold into one entry, as built.
        let events = numbered([(0, 10, 0), (20, 30, 0), (5, 25, 0)]);
        let appended = IntervalIndex::new(rows(Vec::new()));
        for &e in &events {
            appended.append(rows(vec![e]));
        }
        let built = IntervalIndex::new(rows(events.clone()));
        for idx in [&appended, &built] {
            let held = idx.read().as_ref().map(|e| e.intervals.sorted.len());
            assert_eq!(held, Some(1));
            assert_probes_match(idx, &events, 8, 100);
        }
    }

    #[test]
    fn an_unbuilt_index_builds_from_the_scan_on_its_first_probe() {
        let idx = IntervalIndex::default();
        // Appends before the build are skipped: their rows are in the heap,
        // which the scan reads.
        idx.append(rows(vec![(0, 10, 99, 0, 0)]));
        let heap = in_order_entries(5_000);
        let mut scans = 0;
        let got = idx
            .probe(Some(40), Some(40), || -> Result<_, Infallible> {
                scans += 1;
                Ok(rows(heap.clone()))
            })
            .unwrap();
        assert_eq!(pages_of(&got), oracle(&heap, 40, 40));
        assert_eq!(scans, 1);
        // Built now: later probes never scan (`probe` panics if they do).
        assert_probes_match(&idx, &heap, 4, 200);
        // A failed scan leaves the index unbuilt, and the next probe retries.
        let idx = IntervalIndex::default();
        assert_eq!(idx.probe(None, None, || Err("io")), Err("io"));
        let got = idx.probe(Some(40), Some(40), || -> Result<_, Infallible> {
            Ok(rows(heap.clone()))
        });
        assert_eq!(pages_of(&got.unwrap()), oracle(&heap, 40, 40));
    }

    #[test]
    fn racing_probe_sees_every_entry_appended_before_it_began() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // One heap page per entry, so a missed entry is a missing page;
        // every tenth batch arrives out of order.
        let idx = IntervalIndex::new(rows(Vec::new()));
        let mut entries: Vec<IndexEntry> = (0..60_000i64)
            .map(|i| (i / 2, i / 2 + 1 + i % 7, i as PageId, 0, 0))
            .collect();
        for (n, batch) in entries.chunks_mut(97).enumerate() {
            if n % 10 == 9 {
                batch.reverse();
                for e in batch.iter_mut() {
                    e.0 -= 500;
                }
            }
        }
        let appended = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for batch in entries.chunks(97) {
                    idx.append(rows(batch.to_vec()));
                    // Release: the count is published after its entries.
                    appended.fetch_add(batch.len(), Ordering::Release);
                }
            });
            let mut rng = Rng(13);
            loop {
                let before = appended.load(Ordering::Acquire);
                let ts_le = rng.below(30_000);
                let te_gt = ts_le - rng.below(5);
                let got = pages_of(&probe(&idx, Some(ts_le), Some(te_gt)));
                for page in oracle(&entries[..before], ts_le, te_gt) {
                    assert!(
                        got.binary_search(&page).is_ok(),
                        "probe(ts <= {ts_le}, te > {te_gt}) after {before} appends missed page {page}"
                    );
                }
                if before == entries.len() {
                    break;
                }
            }
        });
        assert_probes_match(&idx, &entries, 5, 100);
    }

    /// The pages of `0..pages` admitted for a lookup of `key`.
    fn pages_with(idx: &IntervalIndex, pages: PageId, key: i64) -> Vec<PageId> {
        admitted(idx, pages, key_is(key))
    }

    /// 100 keys a page, drawn from a wide domain plus both `i64` edges,
    /// duplicates on several pages, and one NULL on page 7.
    fn keyed_rows(pages: PageId) -> Vec<(PageId, Option<i64>)> {
        let mut rng = Rng(0x5EED);
        let mut keys: Vec<(PageId, Option<i64>)> = (0..pages * 100)
            .map(|i| (i / 100, Some(rng.below(1 << 40) - (1 << 39))))
            .collect();
        keys[0].1 = Some(i64::MIN);
        keys[150].1 = Some(i64::MAX);
        keys[250].1 = Some(42);
        keys[950].1 = Some(42);
        keys[720].1 = None;
        keys
    }

    #[test]
    fn key_filters_never_reject_a_page_holding_the_key() {
        let keys = keyed_rows(40);
        let built = IntervalIndex::new(keyed(&keys));
        // The same keys one row at a time, past a build from an empty heap.
        let appended = IntervalIndex::default();
        appended
            .admit(&mut Vec::new(), &key_is(0), || -> Result<_, Infallible> {
                Ok(IndexRows::default())
            })
            .unwrap();
        for &key in &keys {
            appended.append(keyed(&[key]));
        }
        for idx in [&built, &appended] {
            for &(page, key) in &keys {
                let Some(key) = key else { continue };
                assert!(
                    pages_with(idx, 40, key).contains(&page),
                    "key {key} on page {page} rejected"
                );
            }
            // The NULL poisons its page: it admits any key.
            assert!(pages_with(idx, 40, 7).contains(&7));
            // A page no key reached is not covered, so it admits every key.
            assert!(pages_with(idx, 41, 42).contains(&40));
        }
    }

    #[test]
    fn key_filter_false_positives_stay_under_two_percent_at_100_keys_a_page() {
        let keys = keyed_rows(200);
        let idx = IntervalIndex::new(keyed(&keys));
        let built = idx.read();
        let built = built.as_ref().expect("built");
        // Keys outside the drawn domain are on no page; only the poisoned
        // page 7 must admit them. (The filters alone: the key min/max
        // would reject most of these keys by itself.)
        let (mut admitted, mut probes) = (0, 0);
        for key in (1i64 << 40..).take(500) {
            for page in 0..200 {
                if page == 7 {
                    assert!(built.may_hold(page, key));
                } else {
                    admitted += usize::from(built.may_hold(page, key));
                    probes += 1;
                }
            }
        }
        let rate = admitted as f64 / probes as f64;
        assert!(rate <= 0.02, "false-positive rate {rate:.4}");
    }

    #[test]
    fn an_unbuilt_index_builds_its_key_filters_on_the_first_key_check() {
        let idx = IntervalIndex::default();
        idx.append(keyed(&[(3, Some(5))]));
        let mut pages = (0..4).map(|p| (p, ALL_SLOTS)).collect();
        idx.admit(&mut pages, &key_is(5), || -> Result<_, Infallible> {
            let mut heap = keyed(&[(0, Some(4)), (2, None), (3, Some(6))]);
            heap.add(1, 0, Some(0), Some(1), Some(5));
            Ok(heap)
        })
        .unwrap();
        // Page 3's key came from the skipped append, which the scan stands
        // in for; page 2 is poisoned.
        assert_eq!(pages_of(&pages), [1, 2]);
        // Every record is in the entries: those with NULL bounds match
        // every probe.
        assert_eq!(
            probe(&idx, Some(5), Some(5)),
            [(0, 0..1), (2, 0..1), (3, 0..1)]
        );
    }

    #[test]
    fn zone_maps_widen_and_prune() {
        // Page 0 holds [2, 6) with key 10 and [4, 9) with key 3.
        let mut page = IndexRows::default();
        page.add(0, 0, Some(2), Some(6), Some(10));
        page.add(0, 1, Some(4), Some(9), Some(3));
        let idx = IntervalIndex::new(page);
        let admits = |bounds: ZoneBounds| admitted(&idx, 1, bounds) == [0];
        let only = |set: fn(&mut ZoneBounds)| {
            let mut bounds = ZoneBounds::default();
            set(&mut bounds);
            bounds
        };
        // AS OF 5: some interval may contain 5 (min ts 2 <= 5 < max te 9).
        assert!(admits(ZoneBounds::as_of(5)));
        // AS OF 1: every interval starts at 2 or later; AS OF 9: every one
        // has ended by 9 (half-open).
        assert!(!admits(ZoneBounds::as_of(1)));
        assert!(!admits(ZoneBounds::as_of(9)));
        // Starts span [2, 4], ends [6, 9], keys [3, 10].
        assert!(admits(only(|b| b.ts_ge = Some(4))));
        assert!(!admits(only(|b| b.ts_ge = Some(5))));
        assert!(admits(only(|b| b.te_lt = Some(7))));
        assert!(!admits(only(|b| b.te_lt = Some(6))));
        assert!(admits(only(|b| b.key_ge = Some(10))));
        assert!(!admits(only(|b| b.key_ge = Some(11))));
        assert!(!admits(only(|b| b.key_le = Some(2))));
        // An append widens the page's zone.
        let mut more = IndexRows::default();
        more.add(0, 2, Some(20), Some(30), Some(50));
        idx.append(more);
        assert!(admits(ZoneBounds::as_of(25)));
        assert!(admits(only(|b| b.key_ge = Some(11))));
        assert!(!admits(ZoneBounds::as_of(30)));
    }

    #[test]
    fn poisoned_zones_never_prune() {
        let mut rows = IndexRows::default();
        // Page 0: a NULL bound poisons the time side alone.
        rows.add(0, 0, Some(2), Some(6), Some(1));
        rows.add(0, 1, Some(3), None, Some(2));
        // Page 1: a NULL key poisons the key side (zone and filter) alone.
        rows.add(1, 0, Some(2), Some(6), Some(1));
        rows.add(1, 1, Some(3), Some(5), None);
        let idx = IntervalIndex::new(rows);
        assert_eq!(admitted(&idx, 2, ZoneBounds::as_of(-12_345)), [0]);
        let key_above = ZoneBounds {
            key_ge: Some(999),
            ..ZoneBounds::default()
        };
        assert_eq!(admitted(&idx, 2, key_above), [1]);
        assert_eq!(admitted(&idx, 2, key_is(999)), [1]);
        assert_eq!(admitted(&idx, 2, key_is(2)), [0, 1]);
        assert!(admitted(
            &idx,
            2,
            ZoneBounds {
                key_ge: Some(999),
                ..ZoneBounds::as_of(-12_345)
            }
        )
        .is_empty());
    }

    #[test]
    fn a_table_without_keys_holds_no_key_filters() {
        let mut rows = IndexRows::default();
        rows.add(0, 0, Some(1), Some(5), None);
        rows.add(3, 0, Some(2), Some(6), None);
        let idx = IntervalIndex::new(rows);
        assert!(idx.read().as_ref().expect("built").filters.is_empty());
        assert_eq!(admitted(&idx, 4, key_is(9)), [0, 1, 2, 3]);
        assert_eq!(admitted(&idx, 4, ZoneBounds::as_of(5)), [1, 2, 3]);
        assert_eq!(admitted(&idx, 4, ZoneBounds::as_of(6)), [1, 2]);
    }

    #[test]
    fn an_empty_index_probes_empty_and_admits_what_it_does_not_cover() {
        let idx = IntervalIndex::new(rows(Vec::new()));
        assert!(probe(&idx, Some(0), Some(0)).is_empty());
        assert!(probe(&idx, None, None).is_empty());
        idx.append(rows(Vec::new()));
        assert!(probe(&idx, None, None).is_empty());
        // No summary covers a page no record reached, so it admits every
        // bound — here every page, then the pages before the one a record
        // reached.
        assert_eq!(admitted(&idx, 3, ZoneBounds::as_of(5)), [0, 1, 2]);
        let mut far = IndexRows::default();
        far.add(2, 0, Some(0), Some(1), Some(7));
        idx.append(far);
        assert_eq!(admitted(&idx, 4, ZoneBounds::as_of(5)), [0, 1, 3]);
        assert_eq!(admitted(&idx, 4, key_is(7)), [0, 1, 2, 3]);
    }

    #[test]
    fn an_entry_with_its_slot_range_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<IndexEntry>(), 24);
    }

    #[test]
    fn folding_unions_slot_ranges() {
        // Page 0 holds [0, 10) in slot 0, [20, 30) in slot 1 and [5, 25)
        // in slot 2: in `ts` order each overlaps the union before it.
        // Page 1's two records are disjoint and stay apart.
        let records = vec![
            (0, 10, 0, 0, 0),
            (20, 30, 0, 1, 1),
            (5, 25, 0, 2, 2),
            (40, 45, 1, 0, 0),
            (50, 55, 1, 1, 1),
        ];
        let built = IntervalIndex::new(rows(records.clone()));
        // Appended one at a time in `ts` order, they fold as they arrive.
        let appended = IntervalIndex::new(rows(Vec::new()));
        let mut in_order = records.clone();
        in_order.sort_unstable();
        for e in in_order {
            appended.append(rows(vec![e]));
        }
        for idx in [&built, &appended] {
            let held = idx.read().as_ref().map(|b| b.intervals.sorted.clone());
            assert_eq!(
                held.as_deref(),
                Some(&[(0, 30, 0, 0, 2), (40, 45, 1, 0, 0), (50, 55, 1, 1, 1)][..])
            );
            // The folded entry names its whole hull: slot 1 does not hold
            // 7, but lies between slots that might.
            assert_eq!(probe(idx, Some(7), Some(7)), [(0, 0..3)]);
            assert_eq!(probe(idx, Some(52), Some(52)), [(1, 1..2)]);
            // Two ranges of one page that touch come back as one.
            assert_eq!(probe(idx, None, Some(41)), [(1, 0..2)]);
        }
    }

    #[test]
    fn probe_ranges_are_coalesced_even_with_duplicate_entries() {
        // A build that raced an append holds some records twice. Records
        // on a page are disjoint in time, so nothing folds, and the
        // inverted ones (te < ts) never fold even with their duplicate.
        let mut records = numbered((0..2_000i64).map(|i| (3 * i, 3 * i + 2, (i / 50) as PageId)));
        for e in records.iter_mut().step_by(7) {
            (e.0, e.1) = (e.1 + 10, e.0);
        }
        let idx = IntervalIndex::new(rows(records.clone()));
        idx.append(rows(records[500..900].to_vec()));
        idx.append(rows(records[850..1_000].to_vec()));
        let mut twice = records.clone();
        twice.extend_from_slice(&records[500..1_000]);
        // `probe` asserts the ranges are disjoint and never touch;
        // `assert_probes_match` that they cover every matching slot.
        assert_probes_match(&idx, &twice, 8, 300);
        // Every record of pages 10..20 is live after 1 500: one range per
        // page, each slot once.
        let all: Vec<_> = probe(&idx, None, Some(1_500))
            .into_iter()
            .filter(|(page, _)| (10..20).contains(page))
            .collect();
        assert_eq!(all, (10..20).map(|p| (p, 0..50)).collect::<Vec<_>>());
    }

    #[test]
    fn a_null_bound_admits_every_bound_on_its_side() {
        let mut rows = IndexRows::default();
        rows.add(0, 0, Some(3), None, None);
        rows.add(1, 0, None, Some(8), None);
        rows.add(2, 0, None, None, None);
        rows.add(3, 0, Some(50), Some(60), None);
        let idx = IntervalIndex::new(rows);
        // `ts <= 5` alone can hold for a NULL `te`, `te > 7` alone for a
        // NULL `ts`.
        assert_eq!(pages_of(&probe(&idx, Some(5), None)), [0, 1, 2]);
        assert_eq!(pages_of(&probe(&idx, None, Some(7))), [0, 1, 2, 3]);
        assert_eq!(pages_of(&probe(&idx, Some(55), Some(55))), [0, 2, 3]);
        assert_eq!(pages_of(&probe(&idx, Some(2), Some(7))), [1, 2]);
    }

    #[test]
    fn a_page_with_several_ranges_counts_once_when_its_key_filter_drops_it() {
        let mut rows = IndexRows::default();
        // Keys 1 and 9 on both pages: their zones admit key 5, their
        // filters reject it.
        for slot in 0..6 {
            let (ts, key) = (10 * i64::from(slot), 1 + 8 * i64::from(slot % 2));
            rows.add(0, slot, Some(ts), Some(ts + 5), Some(key));
            rows.add(1, slot, Some(ts), Some(ts + 5), Some(key));
        }
        let idx = IntervalIndex::new(rows);
        // `te > 22` matches slots 2..6 of both pages.
        let mut slots = probe(&idx, None, Some(22));
        assert_eq!(slots, [(0, 2..6), (1, 2..6)]);
        slots.insert(1, (0, 7..9));
        let dropped = idx
            .admit(&mut slots, &key_is(5), || -> Result<_, Infallible> {
                panic!("the index was built")
            })
            .unwrap();
        assert!(slots.is_empty());
        assert_eq!(dropped, 2);
    }
}
