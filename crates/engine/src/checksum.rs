//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every persisted byte: per-table blocks and the file-level
//! digest (header fields + body) of a snapshot, and every
//! write-ahead-log frame.
//!
//! In-tree (the workspace builds fully offline with zero external
//! crates); the lookup tables are computed at compile time. CRC32
//! detects all single-bit errors and all burst errors up to 32 bits,
//! which is exactly the failure model of the torn-write and bit-rot
//! faults the durability tests inject.
//!
//! The kernel is slicing-by-8: eight bytes fold into the state per step
//! through eight independent table lookups, instead of eight dependent
//! ones. It matters because a snapshot save and a snapshot open pass every
//! byte through it once; [`Crc32::append`] then folds each finished block
//! checksum into the file checksum without a second pass.

/// `TABLES[0]` is the classic one-byte table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, which is what lets eight
/// bytes be folded at once.
const TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
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
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC32 state, for checksumming data produced in pieces.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][w[4] as usize]
                ^ TABLES[2][w[5] as usize]
                ^ TABLES[1][w[6] as usize]
                ^ TABLES[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Extends the checksum as if the `len` bytes whose digest is `crc`
    /// had been fed with [`Crc32::update`], without seeing them again
    /// (zlib's `crc32_combine`): O(log `len`), not O(`len`).
    pub fn append(&mut self, crc: u32, len: u64) {
        // crc(A ‖ B) = crc(A) · x^(8·|B|) + crc(B) over GF(2), modulo the
        // polynomial; the pre- and post-inversions cancel in the sum.
        let shifted = mul_mod(x_pow_8n(len), self.finish());
        self.state = (shifted ^ crc) ^ 0xFFFF_FFFF;
    }

    /// Finishes and returns the digest.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// `a · b` modulo the CRC polynomial, both in the reflected bit order
/// (bit 31 is x⁰).
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let (mut product, mut m) = (0, 1u32 << 31);
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ 0xEDB8_8320 } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X2N[k]` is x^(2^k) modulo the polynomial. The order of x divides
/// 2³² − 1, so the table repeats after 32 entries.
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1 << 30; // x¹
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mul_mod(p, p);
        k += 1;
    }
    table
};

/// x^(8·n) modulo the polynomial: the shift `n` bytes of input apply.
fn x_pow_8n(mut n: u64) -> u32 {
    let mut p = 1 << 31; // x⁰
    let mut k = 3; // 8 = 2³
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod(X2N[k % 32], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition the sliced kernel must equal.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The standard CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_kernel_equals_bytewise_at_every_length_and_alignment() {
        // xorshift, seeded: lengths 0–64 starting at every offset 0–7 of
        // the buffer cover each tail length at each alignment.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf: Vec<u8> = (0..80).map(|_| next() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
        for _ in 0..64 {
            let len = (next() % 5000) as usize;
            let big: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&big), bytewise(&big), "len {len}");
            // And split at an arbitrary point: streaming state carries over.
            let cut = if len == 0 { 0 } else { (next() as usize) % len };
            let mut c = Crc32::new();
            c.update(&big[..cut]);
            c.update(&big[cut..]);
            assert_eq!(c.finish(), bytewise(&big), "len {len} cut {cut}");
        }
    }

    #[test]
    fn append_equals_the_checksum_of_the_concatenation() {
        let data: Vec<u8> =
            (0..1000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let len = data.len();
        for split in [0, 1, 7, 8, 100, len - 1, len] {
            let (a, b) = data.split_at(split);
            let mut c = Crc32::new();
            c.update(a);
            c.append(crc32(b), b.len() as u64);
            assert_eq!(c.finish(), crc32(&data), "split at {split}");
        }
        // Appending onto a fresh state is the appended checksum itself.
        let mut c = Crc32::new();
        c.append(crc32(&data), len as u64);
        assert_eq!(c.finish(), crc32(&data));
        // x^(2^32) = x: lengths of 2^29 bytes and more may wrap the table.
        assert_eq!(mul_mod(X2N[31], X2N[31]), X2N[0]);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let base = b"durability test payload".to_vec();
        let want = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), want, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
