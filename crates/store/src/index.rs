//! A persistent interval index: a paged, bulk-loaded B+tree over the
//! valid-time **start** of every record, augmented with the **maximum
//! valid-time end** of each subtree — the classic augmented interval tree,
//! laid out on the same 4 KiB pages as the heaps and served through the
//! same [`BufferPool`].
//!
//! One leaf entry per heap record: `(ts, te, heap_page)`. Leaves are
//! written in `ts` order by the bulk load, internal nodes fan out over
//! them carrying `(first_ts_of_child, max_te_of_subtree, child)`. A
//! timeslice/overlap probe `ts <= B ∧ te > A` then descends only into
//! subtrees whose key range starts at or below `B` **and** whose
//! `max_te` exceeds `A` — the augmentation is what prunes long-dead
//! subtrees that a plain B+tree on `ts` would still walk.
//!
//! Appends after the bulk load keep the tree sorted when they can: an
//! entry whose `ts` is at or past the tree's last key goes into the
//! **rightmost leaf**, and a full rightmost leaf gets a fresh sibling
//! chained to its right — entries are never redistributed, so a published
//! entry never moves, and every node is written before the parent entry
//! that names it, so a probe racing an append sees each entry appended
//! before it began (see [`IntervalIndex::append`]). Timestamp-ordered
//! ingest — what a valid-time table sees — therefore costs O(log n) per
//! row and probes stay O(log n + matches). Entries that arrive *out of
//! order* (within one batch: those outside its longest ordered
//! subsequence) go to an unsorted **overflow chain** (linked leaf pages
//! scanned linearly by every probe); the next `persist` rebuild folds
//! them back into the sorted tree. The probe's answer is the *set of heap
//! pages* that may hold matching records — the scan still decodes and
//! re-filters them, so a false positive costs time, never correctness.
//!
//! ```text
//! page 0: meta  (root, levels, entry counts, overflow head/tail)
//! page k: node  [magic | kind | count | next | entry₀ … entryₙ]
//!                leaf entry:     ts i64, te i64, heap_page u32
//!                internal entry: first_ts i64, max_te i64, child u32
//! ```

use std::path::Path;
use std::sync::Mutex;

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::error::{StoreError, StoreResult};
use crate::page::{Page, PageId, PAGE_SIZE};

/// One index entry: the record's interval and the heap page holding it.
pub type IndexEntry = (i64, i64, PageId);

const MAGIC: u32 = 0x5449_4458; // "TIDX"
const NIL: u32 = u32::MAX;

const KIND_META: u8 = 0;
const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;

// Node header: magic u32 | kind u8 | pad u8 | count u16 | next u32 | pad.
const N_KIND: usize = 4;
const N_COUNT: usize = 6;
const N_NEXT: usize = 8;
const NODE_HDR: usize = 16;
/// Entries per node (leaf and internal entries are both 20 bytes).
const ENTRY_SIZE: usize = 20;
const NODE_CAP: usize = (PAGE_SIZE - NODE_HDR) / ENTRY_SIZE;

// Meta page layout (page 0).
const M_LEVELS: usize = 6;
const M_ROOT: usize = 8;
const M_OVER_HEAD: usize = 12;
const M_OVER_TAIL: usize = 16;
const M_ENTRIES: usize = 20;
const M_OVER_ENTRIES: usize = 28;

fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(b[off..off + 2].try_into().expect("2 bytes"))
}

fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

fn get_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

fn get_i64(b: &[u8], off: usize) -> i64 {
    get_u64(b, off) as i64
}

fn put_u16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn put_u32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut [u8], off: usize, v: u64) {
    b[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn put_i64(b: &mut [u8], off: usize, v: i64) {
    put_u64(b, off, v as u64);
}

/// Byte offset of entry `slot`'s second field (`te` / `max_te`).
fn te_offset(slot: usize) -> usize {
    NODE_HDR + slot * ENTRY_SIZE + 8
}

fn put_entry(b: &mut [u8], slot: usize, (a, c, p): IndexEntry) {
    let off = NODE_HDR + slot * ENTRY_SIZE;
    put_i64(b, off, a);
    put_i64(b, off + 8, c);
    put_u32(b, off + 16, p);
}

/// Serialize one node page. Both node kinds share the 20-byte entry shape
/// `(i64, i64, u32)`, so this covers leaves and internals alike.
fn node_page(kind: u8, entries: &[IndexEntry], next: u32) -> Page {
    debug_assert!(entries.len() <= NODE_CAP);
    let mut page = Page::zeroed();
    let b = page.as_bytes_mut();
    put_u32(b, 0, MAGIC);
    b[N_KIND] = kind;
    put_u16(b, N_COUNT, entries.len() as u16);
    put_u32(b, N_NEXT, next);
    for (i, &e) in entries.iter().enumerate() {
        put_entry(b, i, e);
    }
    page
}

/// A validated view of one node page; entries decode on demand, so
/// walking a node copies nothing out of the buffer pool.
struct Node<'a> {
    bytes: &'a [u8],
    kind: u8,
    count: usize,
}

impl<'a> Node<'a> {
    fn parse(page: &'a Page, expect_kind: Option<u8>) -> StoreResult<Node<'a>> {
        let bytes = page.as_bytes();
        if get_u32(bytes, 0) != MAGIC {
            return Err(StoreError::Corrupt("bad interval-index node magic".into()));
        }
        let kind = bytes[N_KIND];
        if expect_kind.is_some_and(|k| k != kind) {
            return Err(StoreError::Corrupt(format!(
                "interval-index node kind {kind} where {expect_kind:?} was expected"
            )));
        }
        let count = get_u16(bytes, N_COUNT) as usize;
        if count > NODE_CAP {
            return Err(StoreError::Corrupt(format!(
                "interval-index node claims {count} entries (capacity {NODE_CAP})"
            )));
        }
        Ok(Node { bytes, kind, count })
    }

    fn entries(&self) -> impl Iterator<Item = IndexEntry> + '_ {
        (0..self.count).map(|slot| {
            let off = NODE_HDR + slot * ENTRY_SIZE;
            (
                get_i64(self.bytes, off),
                get_i64(self.bytes, off + 8),
                get_u32(self.bytes, off + 16),
            )
        })
    }

    /// The next node of an overflow chain (`NIL` at its end).
    fn next(&self) -> u32 {
        get_u32(self.bytes, N_NEXT)
    }
}

/// The meta page's fields.
struct Meta {
    levels: u16,
    root: u32,
    over_head: u32,
    over_tail: u32,
    /// Entries in the sorted tree.
    entries: u64,
    /// Entries in the overflow chain.
    overflow: u64,
}

/// What the level above needs to know about a node: the bulk load builds
/// parent entries from it, an append tracks the rightmost spine with it.
#[derive(Debug, Clone, Copy)]
struct NodeSummary {
    id: PageId,
    count: usize,
    /// The node's first key: the smallest `ts` below it.
    first_ts: i64,
    /// The largest `te` below it.
    max_te: i64,
}

impl NodeSummary {
    /// Summary of node `id` holding `entries` (non-empty, in node order).
    fn of(id: PageId, entries: impl IntoIterator<Item = IndexEntry>) -> NodeSummary {
        let mut entries = entries.into_iter();
        let (first_ts, first_te, _) = entries.next().expect("non-empty node");
        let mut summary = NodeSummary {
            id,
            count: 1,
            first_ts,
            max_te: first_te,
        };
        for (_, te, _) in entries {
            summary.count += 1;
            summary.max_te = summary.max_te.max(te);
        }
        summary
    }

    /// The parent entry that names this node.
    fn entry(&self) -> IndexEntry {
        (self.first_ts, self.max_te, self.id)
    }
}

/// Which entries of one append batch extend a tree whose last key is
/// `last_ts`: a longest `ts`-ordered subsequence of those at or past
/// `last_ts` (flagged `true`); the rest go to the overflow chain. Longest
/// rather than first-come because a bulk load holds the odd row filed
/// *ahead* of its time — a late correction swapped with the row whose
/// place it took — and accepting that row would move the last key past
/// every row up to its proper place, sending all of those to the chain
/// instead of the one.
fn in_order_members(entries: &[IndexEntry], last_ts: i64) -> Vec<bool> {
    let ordered = entries[0].0 >= last_ts && entries.windows(2).all(|w| w[0].0 <= w[1].0);
    if ordered {
        return vec![true; entries.len()];
    }
    // Patience sorting: `tails[l]` is the entry that ends an ordered run
    // of length `l + 1` on the smallest key, `prev[i]` the entry before
    // `i` in the run it ended when it was placed. Indices are `u32` to
    // halve what a 100 000-row `COPY` allocates here.
    const NONE: u32 = u32::MAX;
    assert!(entries.len() < NONE as usize, "append batch too large");
    let mut tails: Vec<u32> = Vec::new();
    let mut prev = vec![NONE; entries.len()];
    for (i, e) in entries.iter().enumerate() {
        if e.0 < last_ts {
            continue;
        }
        let l = tails.partition_point(|&t| entries[t as usize].0 <= e.0);
        if l > 0 {
            prev[i] = tails[l - 1];
        }
        if l == tails.len() {
            tails.push(i as u32);
        } else {
            tails[l] = i as u32;
        }
    }
    let mut member = vec![false; entries.len()];
    let mut next = tails.last().copied().unwrap_or(NONE);
    while next != NONE {
        member[next as usize] = true;
        next = prev[next as usize];
    }
    member
}

/// The index file behind a buffer pool. All probes go through the pool
/// (pinned, counted in `io_reads`), appends serialize on `append_lock`.
#[derive(Debug)]
pub struct IntervalIndex {
    pool: BufferPool,
    append_lock: Mutex<()>,
}

impl IntervalIndex {
    /// Bulk-load a fresh index at `path` (truncating any previous file)
    /// from the full entry set. Entries are sorted by `(ts, te, page)`
    /// and packed into leaves; internal levels are built bottom-up.
    pub fn build(
        path: impl AsRef<Path>,
        pool_pages: usize,
        mut entries: Vec<IndexEntry>,
    ) -> StoreResult<IntervalIndex> {
        let path = path.as_ref();
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let disk = DiskManager::open(path)?;
        let total = entries.len() as u64;
        entries.sort_unstable();

        // Page 0 is the meta page; reserve it first so node ids start at 1.
        disk.allocate_page(&node_page(KIND_META, &[], NIL))?;

        // Leaves in ts order, each summarized as (first_ts, max_te, id).
        let mut level: Vec<IndexEntry> = Vec::new();
        for chunk in entries.chunks(NODE_CAP) {
            let id = disk.allocate_page(&node_page(KIND_LEAF, chunk, NIL))?;
            level.push(NodeSummary::of(id, chunk.iter().copied()).entry());
        }
        let mut levels = u16::from(!level.is_empty());
        while level.len() > 1 {
            let mut next = Vec::new();
            for chunk in level.chunks(NODE_CAP) {
                let id = disk.allocate_page(&node_page(KIND_INTERNAL, chunk, NIL))?;
                next.push(NodeSummary::of(id, chunk.iter().copied()).entry());
            }
            level = next;
            levels += 1;
        }
        let root = level.first().map_or(NIL, |&(_, _, id)| id);

        let mut meta = node_page(KIND_META, &[], NIL);
        {
            let b = meta.as_bytes_mut();
            put_u16(b, M_LEVELS, levels);
            put_u32(b, M_ROOT, root);
            put_u32(b, M_OVER_HEAD, NIL);
            put_u32(b, M_OVER_TAIL, NIL);
            put_u64(b, M_ENTRIES, total);
            put_u64(b, M_OVER_ENTRIES, 0);
        }
        disk.write_page(0, &meta)?;
        disk.sync()?;
        Ok(IntervalIndex {
            pool: BufferPool::new(disk, pool_pages),
            append_lock: Mutex::new(()),
        })
    }

    /// Open an existing index file, validating the meta page.
    pub fn open(path: impl AsRef<Path>, pool_pages: usize) -> StoreResult<IntervalIndex> {
        let disk = DiskManager::open(path.as_ref())?;
        if disk.page_count() == 0 {
            return Err(StoreError::Corrupt(format!(
                "interval index {} is empty (no meta page)",
                path.as_ref().display()
            )));
        }
        let pool = BufferPool::new(disk, pool_pages);
        {
            let guard = pool.fetch(0)?;
            Node::parse(&guard.read(), Some(KIND_META))?;
        }
        Ok(IntervalIndex {
            pool,
            append_lock: Mutex::new(()),
        })
    }

    /// The index file path (for manifest bookkeeping).
    pub fn path(&self) -> &Path {
        self.pool.disk().path()
    }

    /// The buffer pool (io accounting).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Pages in the index file (meta + nodes).
    pub fn page_count(&self) -> u32 {
        self.pool.disk().page_count()
    }

    fn meta(&self) -> StoreResult<Meta> {
        let guard = self.pool.fetch(0)?;
        let page = guard.read();
        let b = Node::parse(&page, Some(KIND_META))?.bytes;
        Ok(Meta {
            levels: get_u16(b, M_LEVELS),
            root: get_u32(b, M_ROOT),
            over_head: get_u32(b, M_OVER_HEAD),
            over_tail: get_u32(b, M_OVER_TAIL),
            entries: get_u64(b, M_ENTRIES),
            overflow: get_u64(b, M_OVER_ENTRIES),
        })
    }

    /// Apply `update` to the meta page's bytes under one write latch.
    fn update_meta(&self, update: impl FnOnce(&mut [u8])) -> StoreResult<()> {
        let guard = self.pool.fetch(0)?;
        update(guard.write().as_bytes_mut());
        Ok(())
    }

    /// Total entries (sorted tree + overflow chain).
    pub fn entry_count(&self) -> StoreResult<u64> {
        let meta = self.meta()?;
        Ok(meta.entries + meta.overflow)
    }

    /// Tree height in levels (0 = empty, 1 = a single leaf level).
    pub fn levels(&self) -> StoreResult<u16> {
        Ok(self.meta()?.levels)
    }

    /// Entries sitting in the unsorted overflow chain (folded back into
    /// the sorted tree by the next bulk rebuild).
    pub fn overflow_entries(&self) -> StoreResult<u64> {
        Ok(self.meta()?.overflow)
    }

    /// What a probe's cost depends on: the tree's height in levels and
    /// the pages in the overflow chain, which every probe reads in full.
    pub fn shape(&self) -> StoreResult<(u16, u64)> {
        let meta = self.meta()?;
        Ok((meta.levels, meta.overflow.div_ceil(NODE_CAP as u64)))
    }

    /// Index the freshly-inserted rows behind `entries`.
    ///
    /// Entries at or past the tree's last key — all of a timestamp-ordered
    /// ingest — extend the sorted tree along its rightmost spine: they top
    /// up the rightmost leaf, and when it is full a *fresh* leaf is
    /// chained to its right and named by a new entry one level up (a new
    /// internal node, or a new root, when that level is full too).
    /// Entries that arrive out of order go to the overflow chain; which
    /// of a batch's entries count as in order is `in_order_members`' call.
    ///
    /// Probes do not take the append lock. What keeps them correct:
    /// nothing is ever redistributed, so an entry, once written, stays in
    /// its slot; `max_te` bounds only grow; and a node is written before
    /// the parent entry (or meta root) that names it. A probe racing an
    /// append can therefore miss only entries of the batch being appended
    /// — rows the caller has not published yet, which a reader's heap
    /// snapshot discards anyway — never one whose `append` had returned
    /// when the probe began.
    pub fn append(&self, entries: &[IndexEntry]) -> StoreResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let _lock = self.append_lock.lock().unwrap_or_else(|e| e.into_inner());
        let meta = self.meta()?;
        let (mut spine, last_ts) = self.rightmost_spine(&meta)?;
        let member = in_order_members(entries, last_ts);
        let mut in_tree = 0;
        let mut late = Vec::new();
        let mut rest = entries;
        for flags in member.chunk_by(|a, b| a == b) {
            let (stretch, tail) = rest.split_at(flags.len());
            if flags[0] {
                self.append_in_order(&mut spine, stretch)?;
                in_tree += stretch.len() as u64;
            } else {
                late.extend_from_slice(stretch);
            }
            rest = tail;
        }
        if in_tree > 0 {
            self.update_meta(|b| put_u64(b, M_ENTRIES, meta.entries + in_tree))?;
        }
        self.append_overflow(&meta, &late)
    }

    /// The rightmost node of every level, leaf first, and the tree's last
    /// key (`i64::MIN` for an empty tree).
    fn rightmost_spine(&self, meta: &Meta) -> StoreResult<(Vec<NodeSummary>, i64)> {
        let mut spine = Vec::with_capacity(meta.levels as usize);
        let mut last_ts = i64::MIN;
        let mut next = meta.root;
        while next != NIL {
            let guard = self.pool.fetch(next)?;
            let page = guard.read();
            let node = Node::parse(&page, None)?;
            let Some((last_key, _, last_child)) = node.entries().last() else {
                return Err(StoreError::Corrupt(format!(
                    "interval-index node {next} on the rightmost spine is empty"
                )));
            };
            spine.push(NodeSummary::of(next, node.entries()));
            next = match node.kind {
                KIND_INTERNAL if spine.len() < meta.levels as usize => last_child,
                KIND_LEAF if spine.len() == meta.levels as usize => {
                    last_ts = last_key;
                    NIL
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "interval-index spine hit node kind {other} at depth {} of {}",
                        spine.len(),
                        meta.levels
                    )))
                }
            };
        }
        spine.reverse();
        Ok((spine, last_ts))
    }

    /// Write as many of `entries` as fit after node `id`'s last entry;
    /// returns how many that was.
    fn top_up(&self, id: PageId, entries: &[IndexEntry]) -> StoreResult<usize> {
        let guard = self.pool.fetch(id)?;
        let mut page = guard.write();
        let b = page.as_bytes_mut();
        let count = get_u16(b, N_COUNT) as usize;
        let take = NODE_CAP.saturating_sub(count).min(entries.len());
        for (i, &e) in entries[..take].iter().enumerate() {
            put_entry(b, count + i, e);
        }
        put_u16(b, N_COUNT, (count + take) as u16);
        Ok(take)
    }

    /// Write a fresh node to the end of the file.
    fn allocate_node(&self, kind: u8, entries: &[IndexEntry]) -> StoreResult<NodeSummary> {
        let (id, _guard) = self.pool.allocate(node_page(kind, entries, NIL))?;
        Ok(NodeSummary::of(id, entries.iter().copied()))
    }

    /// Extend the sorted tree with `run` (in `ts` order, starting at or
    /// past the tree's last key).
    fn append_in_order(&self, spine: &mut Vec<NodeSummary>, run: &[IndexEntry]) -> StoreResult<()> {
        let mut rest = run;
        while !rest.is_empty() {
            let mut taken = match spine.first() {
                Some(leaf) => self.top_up(leaf.id, rest)?,
                None => 0,
            };
            if taken > 0 {
                spine[0].count += taken;
                let max_te = rest[..taken].iter().map(|e| e.1).max().expect("taken > 0");
                self.raise_max_te(spine, 0, max_te)?;
            } else {
                taken = rest.len().min(NODE_CAP);
                let leaf = self.allocate_node(KIND_LEAF, &rest[..taken])?;
                self.chain_rightmost(spine, 0, leaf)?;
            }
            rest = &rest[taken..];
        }
        Ok(())
    }

    /// `spine[level]` gained an entry ending at `te`: lift the `max_te`
    /// of every ancestor entry it exceeds.
    fn raise_max_te(&self, spine: &mut [NodeSummary], level: usize, te: i64) -> StoreResult<()> {
        for l in level..spine.len() {
            if te <= spine[l].max_te {
                break;
            }
            spine[l].max_te = te;
            if let Some(parent) = spine.get(l + 1) {
                // The parent's last entry is the one naming `spine[l]`.
                let guard = self.pool.fetch(parent.id)?;
                put_i64(
                    guard.write().as_bytes_mut(),
                    te_offset(parent.count - 1),
                    te,
                );
            }
        }
        Ok(())
    }

    /// Make the already-written `fresh` the rightmost node of `level`,
    /// to the right of the full node that was: name it one level up, in a
    /// node chained the same way when that level is full as well.
    fn chain_rightmost(
        &self,
        spine: &mut Vec<NodeSummary>,
        level: usize,
        fresh: NodeSummary,
    ) -> StoreResult<()> {
        if spine.is_empty() {
            spine.push(fresh);
            return self.set_root(fresh.id, 1);
        }
        let full = std::mem::replace(&mut spine[level], fresh);
        match spine.get(level + 1).copied() {
            None => {
                let root = self.allocate_node(KIND_INTERNAL, &[full.entry(), fresh.entry()])?;
                spine.push(root);
                self.set_root(root.id, spine.len() as u16)
            }
            Some(parent) if parent.count < NODE_CAP => {
                let taken = self.top_up(parent.id, &[fresh.entry()])?;
                debug_assert_eq!(taken, 1, "the spine's count said the parent had room");
                spine[level + 1].count += 1;
                self.raise_max_te(spine, level + 1, fresh.max_te)
            }
            Some(_) => {
                let sibling = self.allocate_node(KIND_INTERNAL, &[fresh.entry()])?;
                self.chain_rightmost(spine, level + 1, sibling)
            }
        }
    }

    fn set_root(&self, root: PageId, levels: u16) -> StoreResult<()> {
        self.update_meta(|b| {
            put_u32(b, M_ROOT, root);
            put_u16(b, M_LEVELS, levels);
        })
    }

    /// Append out-of-order entries to the overflow chain.
    fn append_overflow(&self, meta: &Meta, entries: &[IndexEntry]) -> StoreResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut tail = meta.over_tail;
        let mut rest = entries;
        while !rest.is_empty() {
            let mut taken = if tail == NIL {
                0
            } else {
                self.top_up(tail, rest)?
            };
            if taken == 0 {
                // Chain a fresh overflow node: written, then linked.
                taken = rest.len().min(NODE_CAP);
                let fresh = self.allocate_node(KIND_LEAF, &rest[..taken])?.id;
                self.update_meta(|b| {
                    if get_u32(b, M_OVER_HEAD) == NIL {
                        put_u32(b, M_OVER_HEAD, fresh);
                    }
                    put_u32(b, M_OVER_TAIL, fresh);
                })?;
                if tail != NIL {
                    let guard = self.pool.fetch(tail)?;
                    put_u32(guard.write().as_bytes_mut(), N_NEXT, fresh);
                }
                tail = fresh;
            }
            rest = &rest[taken..];
        }
        let overflow = meta.overflow + entries.len() as u64;
        self.update_meta(|b| put_u64(b, M_OVER_ENTRIES, overflow))
    }

    /// The set of heap pages that may hold a record with `ts <= ts_le`
    /// and `te > te_gt` (an `AS OF v` probe passes `Some(v)` for both; a
    /// `None` side is unbounded), sorted ascending and deduplicated.
    /// Subtrees whose smallest `ts` exceeds `ts_le` or whose `max_te` is
    /// at most `te_gt` are skipped — the interval-tree augmentation at
    /// work.
    pub fn probe(&self, ts_le: Option<i64>, te_gt: Option<i64>) -> StoreResult<Vec<PageId>> {
        let ts_ok = |ts: i64| ts_le.is_none_or(|b| ts <= b);
        let te_ok = |te: i64| te_gt.is_none_or(|b| te > b);
        let meta = self.meta()?;
        let mut hits: Vec<PageId> = Vec::new();
        // Neighbouring entries mostly share a heap page: drop the repeats
        // here, the rest after the sort.
        let mut hit = |page: PageId| {
            if hits.last() != Some(&page) {
                hits.push(page);
            }
        };
        let mut stack = Vec::new();
        if meta.root != NIL {
            stack.push(meta.root);
        }
        while let Some(id) = stack.pop() {
            // Children are queued, not descended into, while this node is
            // pinned: the walk never holds more than one pin, so a tiny
            // pool cannot deadlock.
            let guard = self.pool.fetch(id)?;
            let page = guard.read();
            let node = Node::parse(&page, None)?;
            match node.kind {
                KIND_LEAF => {
                    for (ts, te, page) in node.entries() {
                        if !ts_ok(ts) {
                            break; // leaf entries are ts-sorted
                        }
                        if te_ok(te) {
                            hit(page);
                        }
                    }
                }
                KIND_INTERNAL => {
                    for (first_ts, max_te, child) in node.entries() {
                        if !ts_ok(first_ts) {
                            break; // children are ts-sorted too
                        }
                        if te_ok(max_te) {
                            stack.push(child);
                        }
                    }
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "interval-index walk hit node kind {other}"
                    )))
                }
            }
        }
        // Overflow chain: unsorted, scanned linearly.
        let mut next = meta.over_head;
        while next != NIL {
            let guard = self.pool.fetch(next)?;
            let page = guard.read();
            let node = Node::parse(&page, Some(KIND_LEAF))?;
            for (ts, te, page) in node.entries() {
                if ts_ok(ts) && te_ok(te) {
                    hit(page);
                }
            }
            next = node.next();
        }
        hits.sort_unstable();
        hits.dedup();
        Ok(hits)
    }

    /// Write back dirty pages and sync the file.
    pub fn flush(&self) -> StoreResult<()> {
        self.pool.flush_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn idx_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("talign_store_index_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Brute-force oracle over raw entries.
    fn oracle(entries: &[IndexEntry], ts_le: i64, te_gt: i64) -> Vec<PageId> {
        let mut hits: Vec<PageId> = entries
            .iter()
            .filter(|&&(ts, te, _)| ts <= ts_le && te > te_gt)
            .map(|&(_, _, p)| p)
            .collect();
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    #[test]
    fn bulk_load_probe_matches_oracle() {
        let path = idx_path("bulk.tidx");
        // Enough entries for a two-level tree (NODE_CAP = 204).
        let entries: Vec<IndexEntry> = (0..2000i64)
            .map(|i| {
                let ts = (i * 37) % 500;
                (ts, ts + 1 + (i % 40), (i / 10) as PageId)
            })
            .collect();
        let idx = IntervalIndex::build(&path, 8, entries.clone()).unwrap();
        assert_eq!(idx.entry_count().unwrap(), 2000);
        assert!(idx.levels().unwrap() >= 2);
        for v in [-1i64, 0, 13, 250, 499, 540, 1000] {
            assert_eq!(
                idx.probe(Some(v), Some(v)).unwrap(),
                oracle(&entries, v, v),
                "AS OF {v}"
            );
        }
        // Overlap-style probe with distinct bounds.
        assert_eq!(
            idx.probe(Some(400), Some(100)).unwrap(),
            oracle(&entries, 400, 100)
        );
        // Unbounded sides return everything on that side — no sentinel values.
        assert_eq!(
            idx.probe(None, None).unwrap(),
            oracle(&entries, i64::MAX, i64::MIN)
        );
        assert_eq!(
            idx.probe(None, Some(100)).unwrap(),
            oracle(&entries, i64::MAX, 100)
        );
        std::fs::remove_file(&path).unwrap();
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
    /// drawn around the entries' key range, plus the unbounded probe.
    fn assert_probes_match(idx: &IntervalIndex, entries: &[IndexEntry], seed: u64, pairs: usize) {
        let max_ts = entries.iter().map(|e| e.0).max().unwrap_or(0);
        let mut rng = Rng(seed);
        for _ in 0..pairs {
            let ts_le = rng.below(max_ts + 20) - 10;
            let te_gt = rng.below(max_ts + 20) - 10;
            assert_eq!(
                idx.probe(Some(ts_le), Some(te_gt)).unwrap(),
                oracle(entries, ts_le, te_gt),
                "probe(ts <= {ts_le}, te > {te_gt})"
            );
        }
        assert_eq!(
            idx.probe(None, None).unwrap(),
            oracle(entries, i64::MAX, i64::MIN)
        );
    }

    /// Timestamp-ordered entries with ties, a few long-lived intervals
    /// (so `max_te` has to rise along the spine) and ~6 entries per page.
    fn in_order_entries(n: i64) -> Vec<IndexEntry> {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        (0..n)
            .map(|i| {
                let ts = i / 3;
                let len = if rng.below(50) == 0 { 5_000 } else { 1 };
                (ts, ts + len + rng.below(30), (i / 6) as PageId)
            })
            .collect()
    }

    #[test]
    fn reopen_and_appends_past_a_bulk_load() {
        let path = idx_path("overflow.tidx");
        let mut entries: Vec<IndexEntry> =
            (0..300i64).map(|i| (i, i + 5, (i / 7) as PageId)).collect();
        let idx = IntervalIndex::build(&path, 4, entries.clone()).unwrap();
        idx.flush().unwrap();
        drop(idx);

        let idx = IntervalIndex::open(&path, 4).unwrap();
        // Appends past the last key extend the sorted tree, earlier ones
        // land in the overflow chain; probes see both.
        let fresh: Vec<IndexEntry> = (0..450i64)
            .map(|i| (1000 + i, 1002 + i, (100 + i / 7) as PageId))
            .collect();
        let late: Vec<IndexEntry> = (0..250i64)
            .map(|i| (500 + i, 2000 + i, (200 + i / 7) as PageId))
            .collect();
        idx.append(&fresh).unwrap();
        idx.append(&late).unwrap();
        entries.extend_from_slice(&fresh);
        entries.extend_from_slice(&late);
        assert_eq!(idx.entry_count().unwrap(), 1000);
        assert_eq!(idx.overflow_entries().unwrap(), 250);
        assert_eq!(idx.shape().unwrap(), (2, 2));
        assert_probes_match(&idx, &entries, 1, 200);
        idx.flush().unwrap();
        drop(idx);
        // Tree and overflow chain both survive reopen.
        let idx = IntervalIndex::open(&path, 4).unwrap();
        assert_eq!(idx.entry_count().unwrap(), 1000);
        assert_probes_match(&idx, &entries, 2, 200);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn in_order_appends_grow_the_sorted_tree() {
        let path = idx_path("spine.tidx");
        let entries = in_order_entries(50_000);
        let idx = IntervalIndex::build(&path, 8, Vec::new()).unwrap();
        // Batch sizes from one row to several leaves, like INSERT and COPY.
        let mut rng = Rng(7);
        let mut rest = entries.as_slice();
        while !rest.is_empty() {
            let take = (1 + rng.below(700) as usize).min(rest.len());
            idx.append(&rest[..take]).unwrap();
            rest = &rest[take..];
        }
        // 246 leaves overflow one internal node: the root split too.
        assert_eq!(idx.levels().unwrap(), 3);
        assert_eq!(idx.overflow_entries().unwrap(), 0);
        assert_eq!(idx.entry_count().unwrap(), 50_000);
        assert_probes_match(&idx, &entries, 3, 300);
        idx.flush().unwrap();
        drop(idx);
        let idx = IntervalIndex::open(&path, 8).unwrap();
        assert_eq!(idx.levels().unwrap(), 3);
        assert_probes_match(&idx, &entries, 4, 300);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_order_entries_go_to_the_overflow_chain() {
        let path = idx_path("mixed.tidx");
        let idx = IntervalIndex::build(&path, 8, Vec::new()).unwrap();
        // One entry in twenty starts before the running maximum.
        let mut rng = Rng(11);
        let mut entries = Vec::new();
        let mut late = 0;
        let mut max_ts = 0;
        for i in 0..20_000i64 {
            let ts = if i % 20 == 19 {
                late += 1;
                rng.below(max_ts)
            } else {
                max_ts += rng.below(3);
                max_ts
            };
            entries.push((ts, ts + 1 + rng.below(40), (i / 6) as PageId));
        }
        for batch in entries.chunks(333) {
            idx.append(batch).unwrap();
        }
        assert_eq!(idx.overflow_entries().unwrap(), late);
        assert_eq!(idx.entry_count().unwrap(), 20_000);
        assert_probes_match(&idx, &entries, 5, 300);
        idx.flush().unwrap();
        drop(idx);
        let idx = IntervalIndex::open(&path, 8).unwrap();
        assert_eq!(idx.overflow_entries().unwrap(), late);
        assert_probes_match(&idx, &entries, 6, 300);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_bulk_batch_keeps_all_but_its_misfiled_entries_in_the_tree() {
        let path = idx_path("swapped.tidx");
        let idx = IntervalIndex::build(&path, 8, Vec::new()).unwrap();
        // A history in start order with 500 pairs swapped: each pair files
        // one entry ahead of its time and one behind.
        let mut entries = in_order_entries(20_000);
        let mut rng = Rng(17);
        for _ in 0..500 {
            let (a, b) = (rng.below(20_000) as usize, rng.below(20_000) as usize);
            entries.swap(a, b);
        }
        idx.append(&entries).unwrap();
        let overflow = idx.overflow_entries().unwrap();
        assert!(
            (1..=1000).contains(&overflow),
            "{overflow} entries left out of the tree by 500 swaps"
        );
        assert_eq!(idx.entry_count().unwrap(), 20_000);
        assert_probes_match(&idx, &entries, 8, 300);
        // Later batches extend the tree from its last key as before.
        let more: Vec<IndexEntry> = (0..300).map(|i| (7_000 + i, 7_010 + i, 9_000)).collect();
        idx.append(&more).unwrap();
        entries.extend_from_slice(&more);
        assert_eq!(idx.overflow_entries().unwrap(), overflow);
        assert_probes_match(&idx, &entries, 9, 300);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn racing_probe_sees_every_entry_appended_before_it_began() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let path = idx_path("race.tidx");
        // A pool smaller than the spine's working set, so the race also
        // runs through evictions; one heap page per entry, so a missed
        // entry is a missing page.
        let idx = IntervalIndex::build(&path, 3, Vec::new()).unwrap();
        let entries: Vec<IndexEntry> = (0..60_000i64)
            .map(|i| (i / 2, i / 2 + 1 + i % 7, i as PageId))
            .collect();
        let appended = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for batch in entries.chunks(97) {
                    idx.append(batch).unwrap();
                    // Release: the count is published after its entries.
                    appended.fetch_add(batch.len(), Ordering::Release);
                }
            });
            let mut rng = Rng(13);
            loop {
                let before = appended.load(Ordering::Acquire);
                let ts_le = rng.below(30_000);
                let te_gt = ts_le - rng.below(5);
                let got = idx.probe(Some(ts_le), Some(te_gt)).unwrap();
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
        assert_eq!(idx.overflow_entries().unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_index_probes_empty() {
        let path = idx_path("empty.tidx");
        let idx = IntervalIndex::build(&path, 2, Vec::new()).unwrap();
        assert_eq!(idx.entry_count().unwrap(), 0);
        assert_eq!(idx.levels().unwrap(), 0);
        assert!(idx.probe(Some(0), Some(0)).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_non_index_files() {
        let path = idx_path("garbage.tidx");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(IntervalIndex::open(&path, 2).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
