//! CRC-32C (Castagnoli) — the checksum guarding WAL records and page
//! images. Implemented here (no dependencies) because the workspace is
//! offline; the polynomial matches iSCSI/ext4/`crc32c(3)`, so externally
//! written test vectors apply.
//!
//! Three implementations compute the same function: the CPU's CRC32C
//! instruction (x86-64 SSE4.2, aarch64 `crc`; chosen per call by runtime
//! feature detection), a safe slicing-by-8 table walk for every other
//! machine, and the bytewise loop the on-disk formats were first written
//! with, kept as the oracle the tests compare the other two against.
//!
//! The instruction takes three cycles to deliver its result but can start
//! one every cycle, so one dependent chain runs it at a third of its
//! throughput. The hardware path therefore runs three chains over
//! consecutive `BLOCK`-byte blocks and joins them with `shift` — the
//! CRC's linearity: the state after `a ++ b` is the state after `a`
//! carried across `b.len()` zero bytes, xor the state of `b` from zero.

/// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which lets eight input bytes fold
/// in one step.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Bytes each of the hardware path's three interleaved chains covers
/// before they are joined: three blocks fill most of a page five times.
const BLOCK: usize = 256;

/// `SHIFT[k][b]` is the raw state reached from state `b << 8k` across
/// [`BLOCK`] zero bytes. Carrying a state across zeros is linear in its
/// bits, so it is the xor of the four bytes' entries (see [`shift`]).
const fn build_shift_tables() -> [[u32; 256]; 4] {
    // The image of every single bit, one zero bit at a time.
    let mut bits = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut crc = 1u32 << i;
        let mut n = 0;
        while n < 8 * BLOCK {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            n += 1;
        }
        bits[i] = crc;
        i += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 1usize;
        while b < 256 {
            // `b` with its lowest set bit cleared, plus that bit's image.
            let low = b.trailing_zeros() as usize;
            tables[k][b] = tables[k][b & (b - 1)] ^ bits[8 * k + low];
            b += 1;
        }
        k += 1;
    }
    tables
}

static SHIFT: [[u32; 256]; 4] = build_shift_tables();

/// The raw state `c` carried across [`BLOCK`] zero bytes.
fn shift(c: u32) -> u32 {
    SHIFT[0][(c & 0xff) as usize]
        ^ SHIFT[1][((c >> 8) & 0xff) as usize]
        ^ SHIFT[2][((c >> 16) & 0xff) as usize]
        ^ SHIFT[3][(c >> 24) as usize]
}

/// CRC-32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// Extend a running CRC-32C with more bytes: `crc32c_append(crc32c(a), b)
/// == crc32c(a ++ b)`. Lets callers checksum framed records without
/// concatenating buffers.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    if hw::detected() {
        // SAFETY: `hw::append` requires only that the CPU implements the
        // CRC32C instruction its `target_feature` names, which
        // `hw::detected()` has just checked at run time.
        !unsafe { hw::append(!crc, bytes) }
    } else {
        !sliced(!crc, bytes)
    }
}

/// One table lookup per byte over the raw (pre-inverted) state.
fn bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// Slicing-by-8 over the raw state: eight bytes per step through eight
/// independent table lookups, the sub-word tail bytewise.
fn sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    bytewise(c, chunks.remainder())
}

/// The CPU's CRC32C instruction. Each module exposes `detected()` and an
/// `append` over the raw state that must only run when `detected()` holds.
#[cfg(target_arch = "x86_64")]
mod hw {
    use super::{shift, BLOCK};
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    pub fn detected() -> bool {
        std::arch::is_x86_feature_detected!("sse4.2")
    }

    /// # Safety
    /// The CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn append(mut c: u32, bytes: &[u8]) -> u32 {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
        let mut blocks = bytes.chunks_exact(3 * BLOCK);
        for block in &mut blocks {
            let (a, rest) = block.split_at(BLOCK);
            let (b, d) = rest.split_at(BLOCK);
            let (mut c0, mut c1, mut c2) = (u64::from(c), 0, 0);
            for ((x, y), z) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(d.chunks_exact(8))
            {
                c0 = _mm_crc32_u64(c0, word(x));
                c1 = _mm_crc32_u64(c1, word(y));
                c2 = _mm_crc32_u64(c2, word(z));
            }
            c = shift(shift(c0 as u32) ^ c1 as u32) ^ c2 as u32;
        }
        let mut chunks = blocks.remainder().chunks_exact(8);
        let mut c = u64::from(c);
        for chunk in &mut chunks {
            c = _mm_crc32_u64(c, word(chunk));
        }
        let mut c = c as u32;
        for &b in chunks.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        c
    }
}

#[cfg(target_arch = "aarch64")]
mod hw {
    use super::{shift, BLOCK};
    use std::arch::aarch64::{__crc32cb, __crc32cd};

    pub fn detected() -> bool {
        std::arch::is_aarch64_feature_detected!("crc")
    }

    /// # Safety
    /// The CPU must support the `crc` extension.
    #[target_feature(enable = "crc")]
    pub unsafe fn append(mut c: u32, bytes: &[u8]) -> u32 {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
        let mut blocks = bytes.chunks_exact(3 * BLOCK);
        for block in &mut blocks {
            let (a, rest) = block.split_at(BLOCK);
            let (b, d) = rest.split_at(BLOCK);
            let (mut c0, mut c1, mut c2) = (c, 0, 0);
            for ((x, y), z) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(d.chunks_exact(8))
            {
                c0 = __crc32cd(c0, word(x));
                c1 = __crc32cd(c1, word(y));
                c2 = __crc32cd(c2, word(z));
            }
            c = shift(shift(c0) ^ c1) ^ c2;
        }
        let mut chunks = blocks.remainder().chunks_exact(8);
        for chunk in &mut chunks {
            c = __crc32cd(c, word(chunk));
        }
        for &b in chunks.remainder() {
            c = __crc32cb(c, b);
        }
        c
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod hw {
    pub fn detected() -> bool {
        false
    }

    /// # Safety
    /// Never callable: `detected()` is false on this architecture.
    pub unsafe fn append(_c: u32, _bytes: &[u8]) -> u32 {
        unreachable!("no hardware CRC32C on this architecture")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retained bytewise reference, with the public framing.
    fn reference(crc: u32, bytes: &[u8]) -> u32 {
        !bytewise(!crc, bytes)
    }

    /// Deterministic pseudo-random bytes (xorshift64*), no dependency.
    fn random_bytes(len: usize, mut s: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_answer_vectors() {
        // The canonical check value for CRC-32C (RFC 3720 appendix B.4).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        // RFC 3720 B.4: 32 incrementing and 32 decrementing bytes.
        let up: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&up), 0x46DD_794E);
        let down: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&down), 0x113F_DB5C);
    }

    #[test]
    fn every_path_agrees_on_every_length() {
        let data = random_bytes(4160, 0x9E37_79B9_7F4A_7C15);
        for len in 0..=data.len() {
            let buf = &data[..len];
            let want = reference(0, buf);
            assert_eq!(!sliced(!0, buf), want, "sliced, len {len}");
            // The dispatched entry point is the hardware path whenever
            // the CPU has one.
            assert_eq!(crc32c(buf), want, "dispatched, len {len}");
        }
    }

    #[test]
    fn append_matches_whole_buffer_at_every_split() {
        // A page plus a header's worth, starting off the 8-byte grid so
        // both halves exercise unaligned heads and tails.
        let data = random_bytes(4160 + 3, 0xD1B5_4A32_D192_ED03);
        let data = &data[3..];
        let whole = reference(0, data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32c_append(crc32c(a), b), whole, "split {split}");
            assert_eq!(!sliced(sliced(!0, a), b), whole, "sliced split {split}");
        }
    }

    #[test]
    fn the_shift_table_carries_a_state_across_a_block_of_zeros() {
        let zeros = [0u8; BLOCK];
        let mut s = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..1_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let c = s as u32;
            assert_eq!(shift(c), bytewise(c, &zeros), "state {c:#010x}");
        }
    }

    #[test]
    fn every_path_agrees_around_block_boundaries() {
        // Every length within 24 bytes of a multiple of the three chains'
        // span, up to eight spans, from a non-zero running state and off
        // the 8-byte grid.
        let span = 3 * BLOCK;
        let data = random_bytes(8 * span + 32, 0x2545_F491_4F6C_DD1D);
        for k in 1..=8 {
            for len in k * span - 24..=k * span + 24 {
                for start in [0, 5] {
                    let buf = &data[start..start + len];
                    let want = reference(0xDEAD_BEEF, buf);
                    assert_eq!(
                        crc32c_append(0xDEAD_BEEF, buf),
                        want,
                        "len {len} at {start}"
                    );
                    assert_eq!(!sliced(!0xDEAD_BEEF, buf), want, "sliced, len {len}");
                }
            }
        }
    }

    #[test]
    fn a_page_checksum_split_matches_the_whole_page() {
        // `Page::compute_crc`: the header bytes before the CRC field, the
        // field as zeros, then the rest of the page.
        use crate::page::{OFF_CRC, PAGE_SIZE};
        let mut page = random_bytes(PAGE_SIZE, 0x5851_F42D_4C95_7F2D);
        page[OFF_CRC..OFF_CRC + 4].fill(0);
        let head = crc32c(&page[..OFF_CRC]);
        let split = crc32c_append(crc32c_append(head, &[0; 4]), &page[OFF_CRC + 4..]);
        assert_eq!(split, reference(0, &page));
        assert_eq!(crc32c(&page), reference(0, &page));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = [0x5au8; 64];
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data;
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base);
            }
        }
    }
}
