//! CRC-32 (IEEE 802.3 polynomial) used to validate protocol frames.
//!
//! Slicing-by-16: sixteen lookup tables, built at compile time, fold 16
//! input bytes per step with independent lookups instead of a chain of
//! 16 dependent ones. Polynomial, initial value and final XOR are those
//! of the bytewise loop (kept in the tests as the oracle).

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 256;
    while i < 256 * 16 {
        let prev = t[i / 256 - 1][i % 256];
        t[i / 256][i % 256] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
        i += 1;
    }
    t
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Test oracle: the bytewise table loop `crc32` replaced, with its
    /// own table. Returns the checksum of every prefix of `data`
    /// (`out[n]` covers `data[..n]`) from one pass.
    fn bytewise_prefix_crcs(data: &[u8]) -> Vec<u32> {
        let table: Vec<u32> = (0..256u32)
            .map(|i| {
                (0..8).fold(i, |crc, _| {
                    if crc & 1 != 0 {
                        (crc >> 1) ^ POLY
                    } else {
                        crc >> 1
                    }
                })
            })
            .collect();
        let mut crc = 0xFFFF_FFFFu32;
        let mut out = vec![!crc];
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
            out.push(!crc);
        }
        out
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 ("check" value) for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_corruption() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// Every length 0..4096 at every start offset 0..16, so each
        /// alignment of the 16-byte blocks and every remainder length
        /// meets the oracle.
        #[test]
        fn slicing_by_16_matches_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 4096 + 15..4096 + 16)
        ) {
            for offset in 0..16 {
                let window = &data[offset..offset + 4095];
                let oracle = bytewise_prefix_crcs(window);
                for (len, &expected) in oracle.iter().enumerate() {
                    prop_assert_eq!(crc32(&window[..len]), expected);
                }
            }
        }
    }
}
