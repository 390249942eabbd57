//! Slotted heap pages — the on-disk unit of the storage layer.
//!
//! Every page is a fixed [`PAGE_SIZE`]-byte block with the classic
//! PostgreSQL-style slotted layout:
//!
//! ```text
//! +--------------------------------- PAGE_SIZE ---------------------------------+
//! | header | slot 0 | slot 1 | …  ->  free space  <-  … | record 1 | record 0 |
//! +------------------------------------------------------------------------------+
//!   30 B     4 B each (offset,len)                         grows downward
//! ```
//!
//! The fixed header carries a magic number, the **schema fingerprint** of
//! the owning table (so a page can never be decoded under the wrong
//! schema), the **tuple count**, the slot/free-space pointers `lower`
//! (end of the slot array, grows up) and `upper` (start of record data,
//! grows down) — `upper - lower` is the free space. What a pruned scan
//! knows of a page lives in memory, in [`crate::index::IntervalIndex`].
//!
//! The header ends with a **page LSN** (the WAL sequence number of the
//! last logged change — replay applies a record only when the page LSN
//! proves it missing, making redo idempotent) and a **page CRC** (CRC-32C
//! over the whole page with the CRC field zeroed, written by the disk
//! manager with every page and verified on read, so a torn or bit-rotted
//! page is detected instead of decoded). The magic ends in the
//! [`crate::FORMAT_VERSION`] (`"TPG4"`): [`Page::validate`] rejects every
//! other magic as an unsupported page version.

use crate::crc32c::crc32c_append;
use crate::error::{StoreError, StoreResult};

/// Size of every page in bytes. 4 KiB keeps a page comfortably
/// cache-resident while holding on the order of a hundred typical tuples.
pub const PAGE_SIZE: usize = 4096;

/// Logical page number within one heap file (0-based).
pub type PageId = u32;

/// Slot index within a page.
pub type SlotId = u16;

/// `"TPG"` followed by the format version's digit.
const MAGIC: u32 = u32::from_be_bytes(*b"TPG0") + crate::FORMAT_VERSION;
/// Header size — also where the slot array starts.
const HEADER_SIZE: usize = 30;
/// Bytes per slot-array entry (offset u16 + length u16). Exposed so the
/// heap's fits-in-tail-page check can never diverge from
/// [`Page::insert`]'s free-space arithmetic.
pub const SLOT_SIZE: usize = 4;

const OFF_MAGIC: usize = 0;
const OFF_FINGERPRINT: usize = 4;
const OFF_TUPLE_COUNT: usize = 12;
const OFF_LOWER: usize = 14;
const OFF_UPPER: usize = 16;
const OFF_LSN: usize = 18;
pub(crate) const OFF_CRC: usize = 26;

/// The largest record a page can hold (one slot plus the data).
pub const MAX_RECORD_SIZE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// A fixed-size slotted page. The in-memory representation is exactly the
/// on-disk representation: reading and writing a page is a plain block
/// copy, no (de)serialization step.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("tuple_count", &self.tuple_count())
            .field("free_space", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Page {
            bytes: Box::new([0u8; PAGE_SIZE]),
        }
    }
}

impl Page {
    /// An uninitialized (all-zero) page, ready to be read into.
    pub fn zeroed() -> Page {
        Page::default()
    }

    /// A fresh, empty page carrying `fingerprint` in its header. The LSN
    /// starts at 0; the CRC is computed when the page is written.
    pub fn init(fingerprint: u64) -> Page {
        let mut p = Page::default();
        p.put_u32(OFF_MAGIC, MAGIC);
        p.put_u64(OFF_FINGERPRINT, fingerprint);
        p.put_u16(OFF_TUPLE_COUNT, 0);
        p.put_u16(OFF_LOWER, HEADER_SIZE as u16);
        p.put_u16(OFF_UPPER, PAGE_SIZE as u16);
        p
    }

    // ---- raw access (for the disk manager) -------------------------------

    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    // ---- header fields ---------------------------------------------------

    fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.bytes[off], self.bytes[off + 1]])
    }

    fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().expect("4 bytes"))
    }

    fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().expect("8 bytes"))
    }

    fn put_u16(&mut self, off: usize, v: u16) {
        self.bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn put_u32(&mut self, off: usize, v: u32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, off: usize, v: u64) {
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Schema fingerprint stamped at init time.
    pub fn fingerprint(&self) -> u64 {
        self.get_u64(OFF_FINGERPRINT)
    }

    /// Does this block carry the heap-page magic? Blocks that do not — a
    /// page of another format version — have no CRC field to check; the
    /// disk manager passes them through and [`Page::validate`] rejects them.
    fn is_heap_page(&self) -> bool {
        self.get_u32(OFF_MAGIC) == MAGIC
    }

    /// The page LSN: the WAL sequence number of the last logged change
    /// (0 for a never-logged page). Replay skips records whose LSN is ≤
    /// this, making redo idempotent.
    pub fn lsn(&self) -> u64 {
        self.get_u64(OFF_LSN)
    }

    /// Stamp the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.put_u64(OFF_LSN, lsn);
    }

    /// CRC-32C over the whole page with the CRC field zeroed.
    fn compute_crc(&self) -> u32 {
        let crc = crc32c_append(0, &self.bytes[..OFF_CRC]);
        let crc = crc32c_append(crc, &[0u8; 4]);
        crc32c_append(crc, &self.bytes[OFF_CRC + 4..])
    }

    /// The block the disk manager writes for this page: its bytes with
    /// the CRC field filled in (heap pages; other blocks verbatim). The
    /// CRC's definition zeroes the field, so whatever stale value the
    /// in-memory page carries there does not matter — and it is left
    /// alone: only on-disk heap pages are guaranteed a current CRC.
    pub fn disk_image(&self) -> [u8; PAGE_SIZE] {
        let mut block = *self.bytes;
        if self.is_heap_page() {
            block[OFF_CRC..OFF_CRC + 4].copy_from_slice(&self.compute_crc().to_le_bytes());
        }
        block
    }

    /// Does the stored CRC match the page contents? Blocks that are not
    /// heap pages carry none and always pass.
    pub fn crc_ok(&self) -> bool {
        !self.is_heap_page() || self.get_u32(OFF_CRC) == self.compute_crc()
    }

    /// Number of records stored in this page.
    pub fn tuple_count(&self) -> u16 {
        self.get_u16(OFF_TUPLE_COUNT)
    }

    fn lower(&self) -> usize {
        self.get_u16(OFF_LOWER) as usize
    }

    fn upper(&self) -> usize {
        self.get_u16(OFF_UPPER) as usize
    }

    /// Bytes available for one more record *including* its slot entry.
    pub fn free_space(&self) -> usize {
        self.upper().saturating_sub(self.lower())
    }

    /// Would a record of `len` bytes fit in this page right now? Exactly
    /// the check [`Page::insert`] performs.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_SIZE
    }

    /// Validate the structural invariants of a page read from disk,
    /// checking its fingerprint against the expected table schema.
    pub fn validate(&self, expected_fingerprint: u64) -> StoreResult<()> {
        if !self.is_heap_page() {
            return Err(StoreError::Corrupt(format!(
                "unsupported page version: magic {:#010x}, this build reads only {MAGIC:#010x} (\"TPG{}\")",
                self.get_u32(OFF_MAGIC),
                crate::FORMAT_VERSION
            )));
        }
        if self.fingerprint() != expected_fingerprint {
            return Err(StoreError::Corrupt(format!(
                "page fingerprint {:#x} does not match table schema fingerprint {:#x}",
                self.fingerprint(),
                expected_fingerprint
            )));
        }
        let (lower, upper) = (self.lower(), self.upper());
        if lower < HEADER_SIZE || upper > PAGE_SIZE || lower > upper {
            return Err(StoreError::Corrupt(format!(
                "page pointers out of bounds: lower={lower} upper={upper}"
            )));
        }
        if (lower - HEADER_SIZE) / SLOT_SIZE != self.tuple_count() as usize {
            return Err(StoreError::Corrupt(
                "slot array length disagrees with tuple count".into(),
            ));
        }
        Ok(())
    }

    // ---- records ---------------------------------------------------------

    /// Append a record; returns its slot, or `None` when the page is full.
    /// Records larger than [`MAX_RECORD_SIZE`] are a [`StoreError::Capacity`].
    pub fn insert(&mut self, record: &[u8]) -> StoreResult<Option<SlotId>> {
        if record.len() > MAX_RECORD_SIZE {
            return Err(StoreError::Capacity(format!(
                "record of {} bytes exceeds page capacity of {MAX_RECORD_SIZE} bytes",
                record.len()
            )));
        }
        if self.free_space() < record.len() + SLOT_SIZE {
            return Ok(None);
        }
        let upper = self.upper() - record.len();
        self.bytes[upper..upper + record.len()].copy_from_slice(record);
        let slot = self.tuple_count();
        let slot_off = HEADER_SIZE + slot as usize * SLOT_SIZE;
        self.put_u16(slot_off, upper as u16);
        self.put_u16(slot_off + 2, record.len() as u16);
        self.put_u16(OFF_LOWER, (slot_off + SLOT_SIZE) as u16);
        self.put_u16(OFF_UPPER, upper as u16);
        self.put_u16(OFF_TUPLE_COUNT, slot + 1);
        Ok(Some(slot))
    }

    /// The record bytes at `slot`.
    pub fn record(&self, slot: SlotId) -> StoreResult<&[u8]> {
        if slot >= self.tuple_count() {
            return Err(StoreError::Corrupt(format!(
                "slot {slot} out of bounds (page has {} tuples)",
                self.tuple_count()
            )));
        }
        let slot_off = HEADER_SIZE + slot as usize * SLOT_SIZE;
        let off = self.get_u16(slot_off) as usize;
        let len = self.get_u16(slot_off + 2) as usize;
        if off < self.upper() || off + len > PAGE_SIZE {
            return Err(StoreError::Corrupt(format!(
                "slot {slot} points outside the page (offset={off} len={len})"
            )));
        }
        Ok(&self.bytes[off..off + len])
    }

    /// Iterate all records in slot order.
    pub fn records(&self) -> impl Iterator<Item = StoreResult<&[u8]>> + '_ {
        (0..self.tuple_count()).map(move |s| self.record(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read_back() {
        let mut p = Page::init(7);
        assert_eq!(p.insert(b"hello").unwrap(), Some(0));
        assert_eq!(p.insert(b"world!").unwrap(), Some(1));
        assert_eq!(p.tuple_count(), 2);
        assert_eq!(p.record(0).unwrap(), b"hello");
        assert_eq!(p.record(1).unwrap(), b"world!");
        assert_eq!(p.fingerprint(), 7);
        let all: Vec<Vec<u8>> = p.records().map(|r| r.unwrap().to_vec()).collect();
        assert_eq!(all, vec![b"hello".to_vec(), b"world!".to_vec()]);
    }

    #[test]
    fn fills_up_then_refuses() {
        let mut p = Page::init(0);
        let rec = [0xabu8; 100];
        let mut n = 0usize;
        while p.insert(&rec).unwrap().is_some() {
            n += 1;
        }
        // 100 data + 4 slot bytes per record into the usable area.
        assert_eq!(n, (PAGE_SIZE - HEADER_SIZE) / (100 + SLOT_SIZE));
        assert!(p.free_space() < 104);
        // The page is unchanged by the failed insert.
        assert_eq!(p.tuple_count() as usize, n);
    }

    #[test]
    fn oversized_record_is_an_error() {
        let mut p = Page::init(0);
        let huge = vec![0u8; MAX_RECORD_SIZE + 1];
        assert!(matches!(p.insert(&huge), Err(StoreError::Capacity(_))));
        // Exactly max fits.
        let max = vec![1u8; MAX_RECORD_SIZE];
        assert_eq!(p.insert(&max).unwrap(), Some(0));
        assert_eq!(p.record(0).unwrap(), &max[..]);
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = Page::init(42);
        p.insert(b"abc").unwrap();
        let mut q = Page::zeroed();
        q.as_bytes_mut().copy_from_slice(p.as_bytes());
        q.validate(42).unwrap();
        assert_eq!(q.record(0).unwrap(), b"abc");
        assert!(q.validate(43).is_err());
    }

    #[test]
    fn validate_rejects_garbage() {
        let p = Page::zeroed();
        assert!(p.validate(0).is_err());
        let mut bad = Page::init(1);
        bad.insert(b"x").unwrap();
        bad.as_bytes_mut()[OFF_TUPLE_COUNT] = 9; // count disagrees with slots
        assert!(bad.validate(1).is_err());
    }

    #[test]
    fn empty_slot_read_errors() {
        let p = Page::init(0);
        assert!(p.record(0).is_err());
    }

    #[test]
    fn lsn_roundtrips() {
        let mut p = Page::init(1);
        assert_eq!(p.lsn(), 0);
        p.set_lsn(99);
        assert_eq!(p.lsn(), 99);
    }

    #[test]
    fn other_magics_are_an_unsupported_version() {
        // "TPG3", the previous format, and a block of some other file.
        for magic in [0x5450_4733u32, 0x5449_4458] {
            let mut p = Page::init(7);
            p.put_u32(OFF_MAGIC, magic);
            assert!(!p.is_heap_page());
            let err = p.validate(7).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.contains("unsupported page version")),
                "got {err}"
            );
        }
    }

    #[test]
    fn crc_catches_any_single_byte_corruption() {
        let mut p = Page::init(3);
        p.insert(b"guarded").unwrap();
        assert!(!p.crc_ok(), "a fresh page carries no CRC yet");
        let image = p.disk_image();
        // A stale field does not change what is written.
        p.put_u32(OFF_CRC, 0xdead_beef);
        assert_eq!(p.disk_image(), image);
        p.as_bytes_mut().copy_from_slice(&image);
        assert!(p.crc_ok());
        // Any byte flip outside the CRC field itself (and the magic, which
        // makes the block something other than a heap page) breaks the
        // check — probe a spread of offsets covering header, LSN, slot
        // array, and record data.
        for off in [5, 12, OFF_LSN + 1, HEADER_SIZE + 1, 200, PAGE_SIZE - 1] {
            let mut q = p.clone();
            q.as_bytes_mut()[off] ^= 0x40;
            assert!(!q.crc_ok(), "flip at {off} went undetected");
        }
    }
}
