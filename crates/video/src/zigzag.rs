//! Zig-zag scan ordering of 8×8 coefficient blocks.
//!
//! The scan orders coefficients from low to high spatial frequency so that
//! the quantizer's trailing zeros cluster at the end of the scan, where
//! run-length coding removes them cheaply.

use crate::dct::BLOCK;

/// The classic 8×8 zig-zag order: `ZIGZAG[k]` is the row-major index of
/// the `k`-th scanned coefficient.
pub const ZIGZAG: [usize; BLOCK * BLOCK] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Scans a row-major block into zig-zag order.
///
/// # Panics
///
/// Panics if `block.len() != 64`.
#[must_use]
pub fn scan(block: &[i16]) -> [i16; BLOCK * BLOCK] {
    assert_eq!(block.len(), BLOCK * BLOCK, "expected an 8x8 block");
    let mut out = [0i16; BLOCK * BLOCK];
    for (k, &idx) in ZIGZAG.iter().enumerate() {
        out[k] = block[idx];
    }
    out
}

/// Inverse of [`scan`]: restores row-major order. The decoder places
/// each level in its row-major slot as it reads it; this is the oracle it
/// is tested against.
///
/// # Panics
///
/// Panics if `scanned.len() != 64`.
#[cfg(test)]
#[must_use]
pub(crate) fn unscan(scanned: &[i16]) -> [i16; BLOCK * BLOCK] {
    assert_eq!(scanned.len(), BLOCK * BLOCK, "expected an 8x8 block");
    let mut out = [0i16; BLOCK * BLOCK];
    for (k, &idx) in ZIGZAG.iter().enumerate() {
        out[idx] = scanned[k];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn first_entries_follow_the_classic_path() {
        // (0,0) (0,1) (1,0) (2,0) (1,1) (0,2) ...
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
        assert_eq!(ZIGZAG[63], 63);
    }

    #[test]
    fn scan_unscan_round_trip() {
        let block: Vec<i16> = (0..64).map(|i| i as i16 * 3 - 90).collect();
        assert_eq!(unscan(&scan(&block)).to_vec(), block);
    }

    #[test]
    fn scan_moves_high_frequencies_to_tail() {
        // Put nonzero values only in the top-left (low-frequency) 2x2
        // corner; after scanning, all energy must be in the first few slots.
        let mut block = [0i16; 64];
        block[0] = 10;
        block[1] = 20;
        block[8] = 30;
        block[9] = 40;
        let s = scan(&block);
        assert!(s[..5].iter().filter(|&&v| v != 0).count() == 4);
        assert!(s[5..].iter().all(|&v| v == 0));
    }

    #[test]
    fn diagonal_symmetry_of_path_lengths() {
        // The k-th scanned element's frequency (row+col) must be
        // non-decreasing by at most 1 step at a time along diagonals.
        let mut prev_diag = 0usize;
        for &idx in &ZIGZAG {
            let diag = idx / 8 + idx % 8;
            assert!(
                diag + 1 >= prev_diag,
                "scan jumped backwards by >1 diagonal"
            );
            prev_diag = prev_diag.max(diag);
        }
    }
}
