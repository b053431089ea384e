//! Canonical Huffman coding.
//!
//! Paper §3: *"Lossless encoding, particularly Huffman-style encoding, is
//! used to remove entropy from the final data stream sent to the
//! decoder."* This is that box. Codes are canonical, so only the code
//! lengths travel in the stream header. The video entropy coder is the
//! only user: the audio framer packs fixed-width codes straight through
//! [`signal::bits`].
//!
//! Decoding is table-driven, as in zlib's `puff`: the codewords of one
//! length are consecutive integers, so one compare per bit read decides
//! whether the bits so far form a codeword and, if so, index the symbol
//! directly. The cost of a symbol is its code length, independent of the
//! alphabet size.

use std::collections::BinaryHeap;

use crate::bitstream::{BitReader, BitWriter, OutOfBitsError};

/// Errors building or using a Huffman code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// No symbol had a nonzero frequency.
    NoSymbols,
    /// A symbol outside the alphabet was encoded.
    UnknownSymbol(u16),
    /// The bitstream ended mid-codeword.
    OutOfBits(OutOfBitsError),
    /// The bitstream contained a prefix that matches no codeword.
    BadCode,
    /// A length table was invalid (violates Kraft inequality or empty).
    BadLengths,
}

impl core::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HuffmanError::NoSymbols => f.write_str("no symbols with nonzero frequency"),
            HuffmanError::UnknownSymbol(s) => write!(f, "symbol {s} is not in the code"),
            HuffmanError::OutOfBits(e) => write!(f, "bitstream exhausted: {e}"),
            HuffmanError::BadCode => f.write_str("invalid codeword in bitstream"),
            HuffmanError::BadLengths => f.write_str("invalid code length table"),
        }
    }
}

impl std::error::Error for HuffmanError {}

impl From<OutOfBitsError> for HuffmanError {
    fn from(e: OutOfBitsError) -> Self {
        HuffmanError::OutOfBits(e)
    }
}

const MAX_LEN: u32 = 16;

/// A canonical Huffman code over symbols `0..alphabet_len`.
///
/// # Example
///
/// ```
/// use video::huffman::HuffmanCode;
/// use video::bitstream::{BitReader, BitWriter};
///
/// let freqs = [50u64, 30, 15, 5];
/// let code = HuffmanCode::from_frequencies(&freqs)?;
/// let mut w = BitWriter::new();
/// for sym in [0u16, 1, 0, 3, 2] {
///     code.encode(&mut w, sym)?;
/// }
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// for expect in [0u16, 1, 0, 3, 2] {
///     assert_eq!(code.decode(&mut r)?, expect);
/// }
/// # Ok::<(), video::huffman::HuffmanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    /// Code length per symbol (0 = symbol unused).
    lengths: Vec<u8>,
    /// Canonical codeword per symbol (valid when length > 0).
    codes: Vec<u32>,
    /// Number of codewords of each length (index 0 unused). A complete
    /// 16-bit code has 65,536 of one length, one more than `u16` holds.
    counts: [u32; MAX_LEN as usize + 1],
    /// Used symbols in canonical (length, symbol) order.
    sorted: Vec<u16>,
}

#[derive(PartialEq, Eq)]
struct HeapNode {
    weight: u64,
    /// Tie-break for determinism.
    order: usize,
    node: usize,
}

impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reverse for a min-heap.
        other
            .weight
            .cmp(&self.weight)
            .then(other.order.cmp(&self.order))
    }
}

impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl HuffmanCode {
    /// Builds an optimal prefix code from symbol frequencies. Symbols with
    /// zero frequency get no codeword. Code lengths are capped at 16 by
    /// flattening (frequencies are scaled until the cap holds; for the
    /// alphabet sizes in this workspace the cap is never binding in
    /// practice).
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::NoSymbols`] if every frequency is zero.
    pub fn from_frequencies(freqs: &[u64]) -> Result<Self, HuffmanError> {
        let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        if used.is_empty() {
            return Err(HuffmanError::NoSymbols);
        }
        let mut lengths = vec![0u8; freqs.len()];
        if used.len() == 1 {
            lengths[used[0]] = 1;
            return Self::from_lengths(lengths);
        }
        // Standard two-queue-equivalent heap construction.
        // parent[] over a forest of (leaf symbols + internal nodes).
        let n = used.len();
        let mut weights: Vec<u64> = used.iter().map(|&i| freqs[i]).collect();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut heap: BinaryHeap<HeapNode> = (0..n)
            .map(|i| HeapNode {
                weight: weights[i],
                order: i,
                node: i,
            })
            .collect();
        let mut order = n;
        while heap.len() > 1 {
            let a = heap.pop().expect("heap has >=2");
            let b = heap.pop().expect("heap has >=2");
            let idx = weights.len();
            weights.push(a.weight + b.weight);
            parent.push(None);
            parent[a.node] = Some(idx);
            parent[b.node] = Some(idx);
            heap.push(HeapNode {
                weight: a.weight + b.weight,
                order,
                node: idx,
            });
            order += 1;
        }
        // Depth of each leaf = code length.
        for (leaf, &sym) in used.iter().enumerate() {
            let mut d = 0u8;
            let mut cur = leaf;
            while let Some(p) = parent[cur] {
                d += 1;
                cur = p;
            }
            lengths[sym] = d.max(1);
        }
        // Enforce the length cap (rarely triggered).
        if lengths.iter().any(|&l| l as u32 > MAX_LEN) {
            let scaled: Vec<u64> = freqs
                .iter()
                .map(|&f| if f > 0 { (f >> 4).max(1) } else { 0 })
                .collect();
            return Self::from_frequencies(&scaled);
        }
        Self::from_lengths(lengths)
    }

    /// Builds the canonical code from a length table (lengths of 0 mean
    /// "symbol unused").
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::BadLengths`] if the table is empty, has no
    /// used symbol, or overflows the code space (violates the Kraft
    /// inequality).
    pub fn from_lengths(lengths: Vec<u8>) -> Result<Self, HuffmanError> {
        if lengths.is_empty() || lengths.iter().all(|&l| l == 0) {
            return Err(HuffmanError::BadLengths);
        }
        if lengths.iter().any(|&l| l as u32 > MAX_LEN) {
            return Err(HuffmanError::BadLengths);
        }
        // Kraft check.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_LEN - l as u32))
            .sum();
        if kraft > 1u64 << MAX_LEN {
            return Err(HuffmanError::BadLengths);
        }
        // Canonical assignment: sort by (length, symbol).
        let mut symbols: Vec<usize> = (0..lengths.len()).filter(|&i| lengths[i] > 0).collect();
        symbols.sort_by_key(|&s| (lengths[s], s));
        let mut codes = vec![0u32; lengths.len()];
        let mut counts = [0u32; MAX_LEN as usize + 1];
        let mut code = 0u32;
        let mut prev_len = lengths[symbols[0]] as u32;
        for &s in &symbols {
            let l = lengths[s] as u32;
            code <<= l - prev_len;
            codes[s] = code;
            counts[l as usize] += 1;
            code += 1;
            prev_len = l;
        }
        let sorted = symbols.iter().map(|&s| s as u16).collect();
        Ok(Self {
            lengths,
            codes,
            counts,
            sorted,
        })
    }

    /// The code-length table (index = symbol).
    #[must_use]
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Number of symbols in the alphabet (including unused ones).
    #[must_use]
    pub fn alphabet_len(&self) -> usize {
        self.lengths.len()
    }

    /// Bits needed to encode `symbol`, or `None` if unused.
    #[must_use]
    pub fn bit_length(&self, symbol: u16) -> Option<u32> {
        self.lengths
            .get(symbol as usize)
            .and_then(|&l| if l > 0 { Some(l as u32) } else { None })
    }

    /// Writes the codeword for `symbol`.
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::UnknownSymbol`] for symbols without a
    /// codeword.
    pub fn encode(&self, w: &mut BitWriter, symbol: u16) -> Result<(), HuffmanError> {
        let len = self
            .bit_length(symbol)
            .ok_or(HuffmanError::UnknownSymbol(symbol))?;
        w.write_bits(self.codes[symbol as usize], len);
        Ok(())
    }

    /// Decodes one symbol, reading exactly its codeword's bits.
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::OutOfBits`] if the stream ends mid-codeword,
    /// or [`HuffmanError::BadCode`] once 17 bits match no codeword.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, HuffmanError> {
        // `code` holds the bits read so far; `first` is the smallest
        // codeword of the current length and `index` its position in
        // `sorted`. Codewords of one length are consecutive, so the bits
        // form a codeword iff `code - first < count`.
        let mut code = 0u32;
        let mut first = 0u32;
        let mut index = 0usize;
        for &count in &self.counts[1..] {
            code |= r.read_bit()? as u32;
            if code - first < count {
                return Ok(self.sorted[index + (code - first) as usize]);
            }
            index += count as usize;
            first = (first + count) << 1;
            code <<= 1;
        }
        // No codeword is longer than 16 bits, but a 17th bit is read
        // before giving up: a bad code leaves the reader, and reports
        // running out of bits, where the stream format always has.
        r.read_bit()?;
        Err(HuffmanError::BadCode)
    }

    /// The linear-scan decoder the tables replaced: after every bit it
    /// searches the alphabet for a symbol with that (length, code). Kept
    /// as the oracle the table-driven [`HuffmanCode::decode`] is pinned
    /// against.
    #[cfg(test)]
    fn decode_linear(&self, r: &mut BitReader<'_>) -> Result<u16, HuffmanError> {
        let mut code = 0u32;
        let mut len = 0u32;
        loop {
            code = (code << 1) | r.read_bit()? as u32;
            len += 1;
            if len > MAX_LEN {
                return Err(HuffmanError::BadCode);
            }
            for (s, &l) in self.lengths.iter().enumerate() {
                if l as u32 == len && self.codes[s] == code {
                    return Ok(s as u16);
                }
            }
        }
    }

    /// Serializes the length table into a bit stream (8 bits alphabet-size
    /// hi/lo, then 5 bits per length).
    pub fn write_table(&self, w: &mut BitWriter) {
        let n = self.lengths.len() as u32;
        w.write_bits(n, 16);
        for &l in &self.lengths {
            w.write_bits(l as u32, 5);
        }
    }

    /// Reads a length table written by [`HuffmanCode::write_table`].
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError`] on truncated input or an invalid table.
    pub fn read_table(r: &mut BitReader<'_>) -> Result<Self, HuffmanError> {
        let n = r.read_bits(16)? as usize;
        // The count is a header claim: reserve no more lengths than the
        // remaining bits can hold.
        let mut lengths = Vec::with_capacity(n.min(r.remaining() / 5));
        for _ in 0..n {
            lengths.push(r.read_bits(5)? as u8);
        }
        Self::from_lengths(lengths)
    }

    /// Expected bits per symbol under the given frequency distribution.
    #[must_use]
    pub fn expected_bits(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(s, &f)| f as f64 * self.lengths[s] as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Shannon entropy in bits/symbol of a frequency table.
#[must_use]
pub fn entropy_bits(freqs: &[u64]) -> f64 {
    let total: u64 = freqs.iter().sum();
    if total == 0 {
        return 0.0;
    }
    freqs
        .iter()
        .filter(|&&f| f > 0)
        .map(|&f| {
            let p = f as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use signal::rng::Xoroshiro128;

    #[test]
    fn round_trip_random_symbols() {
        let freqs = [100u64, 50, 25, 12, 6, 3, 2, 1];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let mut w = BitWriter::new();
        let msg: Vec<u16> = (0..200).map(|i| (i * 7 % 8) as u16).collect();
        for &s in &msg {
            code.encode(&mut w, s).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(code.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let freqs = [1000u64, 10, 10, 10];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let l0 = code.bit_length(0).unwrap();
        for s in 1..4 {
            assert!(code.bit_length(s).unwrap() >= l0);
        }
    }

    #[test]
    fn expected_length_within_one_bit_of_entropy() {
        let freqs = [50u64, 30, 10, 5, 3, 1, 1];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let h = entropy_bits(&freqs);
        let l = code.expected_bits(&freqs);
        assert!(l >= h - 1e-9, "below entropy: {l} < {h}");
        assert!(l < h + 1.0, "more than 1 bit above entropy: {l} vs {h}");
    }

    #[test]
    fn code_is_prefix_free() {
        let freqs = [7u64, 6, 5, 4, 3, 2, 1, 1, 1, 20];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let words: Vec<(u32, u32)> = (0..freqs.len() as u16)
            .filter_map(|s| code.bit_length(s).map(|l| (code.codes[s as usize], l)))
            .collect();
        for (i, &(ca, la)) in words.iter().enumerate() {
            for (j, &(cb, lb)) in words.iter().enumerate() {
                if i == j {
                    continue;
                }
                if la <= lb {
                    assert_ne!(ca, cb >> (lb - la), "codeword {i} prefixes {j}");
                }
            }
        }
    }

    #[test]
    fn single_symbol_alphabet_works() {
        let code = HuffmanCode::from_frequencies(&[0, 42, 0]).unwrap();
        let mut w = BitWriter::new();
        code.encode(&mut w, 1).unwrap();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(code.decode(&mut r).unwrap(), 1);
    }

    #[test]
    fn unknown_symbol_rejected() {
        let code = HuffmanCode::from_frequencies(&[1, 1]).unwrap();
        let mut w = BitWriter::new();
        assert_eq!(
            code.encode(&mut w, 9).unwrap_err(),
            HuffmanError::UnknownSymbol(9)
        );
    }

    #[test]
    fn all_zero_frequencies_rejected() {
        assert_eq!(
            HuffmanCode::from_frequencies(&[0, 0]).unwrap_err(),
            HuffmanError::NoSymbols
        );
    }

    #[test]
    fn table_round_trip() {
        let freqs = [9u64, 8, 7, 1, 0, 3];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let mut w = BitWriter::new();
        code.write_table(&mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let restored = HuffmanCode::read_table(&mut r).unwrap();
        assert_eq!(restored, code);
    }

    #[test]
    fn bad_length_tables_rejected() {
        // Kraft violation: three length-1 codes.
        assert_eq!(
            HuffmanCode::from_lengths(vec![1, 1, 1]).unwrap_err(),
            HuffmanError::BadLengths
        );
        assert_eq!(
            HuffmanCode::from_lengths(vec![]).unwrap_err(),
            HuffmanError::BadLengths
        );
        assert_eq!(
            HuffmanCode::from_lengths(vec![0, 0]).unwrap_err(),
            HuffmanError::BadLengths
        );
    }

    #[test]
    fn entropy_known_values() {
        assert!((entropy_bits(&[1, 1]) - 1.0).abs() < 1e-12);
        assert!((entropy_bits(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy_bits(&[5, 0, 0]), 0.0);
        assert_eq!(entropy_bits(&[]), 0.0);
    }

    #[test]
    fn deterministic_construction() {
        let freqs = [3u64, 3, 3, 3, 3];
        let a = HuffmanCode::from_frequencies(&freqs).unwrap();
        let b = HuffmanCode::from_frequencies(&freqs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn full_16_bit_code_round_trips() {
        // 65,536 equal frequencies: every codeword is 16 bits long.
        let code = HuffmanCode::from_frequencies(&vec![1; 1 << 16]).unwrap();
        assert!(code.lengths().iter().all(|&l| l == 16));
        let symbols = [0u16, 1, 0x7FFF, 0x8000, 12_345, u16::MAX];
        let mut w = BitWriter::new();
        for &s in &symbols {
            code.encode(&mut w, s).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(code.decode(&mut r), Ok(s));
        }
        assert_eq!(
            code.decode(&mut r),
            Err(HuffmanError::OutOfBits(OutOfBitsError {
                requested: 1,
                remaining: 0
            }))
        );
    }

    /// A valid length table of one of four shapes: random lengths with
    /// the Kraft overflow dropped (usually incomplete), an optimal code
    /// for skewed frequencies, a single symbol, or a 16-bit-deep chain.
    fn length_table(shape: u8, alphabet: usize, rng: &mut Xoroshiro128) -> Vec<u8> {
        let mut lengths = vec![0u8; alphabet];
        match shape {
            0 => {
                let mut kraft = 0u64;
                for l in &mut lengths {
                    let want = rng.below(MAX_LEN as u64 + 1) as u8;
                    let cost = if want == 0 {
                        0
                    } else {
                        1u64 << (MAX_LEN - want as u32)
                    };
                    if kraft + cost <= 1 << MAX_LEN {
                        kraft += cost;
                        *l = want;
                    }
                }
                if kraft == 0 {
                    lengths[0] = 1;
                }
            }
            1 => {
                let freqs: Vec<u64> = (0..alphabet)
                    .map(|_| {
                        let f = 1u64 << rng.below(24);
                        if rng.below(4) == 0 {
                            0
                        } else {
                            f
                        }
                    })
                    .collect();
                return match HuffmanCode::from_frequencies(&freqs) {
                    Ok(code) => code.lengths,
                    Err(_) => length_table(2, alphabet, rng),
                };
            }
            2 => lengths[rng.below(alphabet as u64) as usize] = 1 + rng.below(16) as u8,
            _ => {
                // Lengths 1, 2, ..., 16, 16 on random symbols; dropping
                // one leaves an incomplete code.
                let mut syms: Vec<usize> = (0..alphabet).collect();
                for (i, l) in (1..=16u8).chain([16]).enumerate() {
                    if syms.is_empty() {
                        break;
                    }
                    let s = syms.swap_remove(rng.below(syms.len() as u64) as usize);
                    if i != 5 || rng.below(2) == 0 {
                        lengths[s] = l;
                    }
                }
            }
        }
        lengths
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The table-driven decoder returns exactly what the linear scan
        /// returns — symbol, `BadCode` after 17 bits, or `OutOfBits` with
        /// the same counts — and leaves the reader at the same position,
        /// on valid, truncated and garbage bit strings.
        #[test]
        fn table_decode_matches_linear_oracle(
            shape in 0u8..4,
            alphabet in 1usize..300,
            seed in any::<u64>(),
            garbage in prop::collection::vec(any::<u8>(), 0..24),
            message_len in 0usize..64,
            cut_bits in 0usize..1200,
        ) {
            let mut rng = Xoroshiro128::new(seed);
            let code = HuffmanCode::from_lengths(length_table(shape, alphabet, &mut rng)).unwrap();
            // A valid message of used symbols, cut at an arbitrary bit,
            // then garbage.
            let used = &code.sorted;
            let mut w = BitWriter::new();
            for _ in 0..message_len {
                code.encode(&mut w, used[rng.below(used.len() as u64) as usize]).unwrap();
            }
            let mut bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let head = cut_bits.min(r.remaining());
            let mut w = BitWriter::new();
            for _ in 0..head / 32 {
                w.write_bits(r.read_bits(32).unwrap(), 32);
            }
            w.write_bits(r.read_bits((head % 32) as u32).unwrap(), (head % 32) as u32);
            bytes = w.into_bytes();
            bytes.extend_from_slice(&garbage);
            for stream in [&bytes[..], &garbage[..]] {
                let mut fast = BitReader::new(stream);
                let mut slow = BitReader::new(stream);
                loop {
                    let got = code.decode(&mut fast);
                    prop_assert_eq!(&got, &code.decode_linear(&mut slow));
                    prop_assert_eq!(fast.position(), slow.position());
                    if got.is_err() {
                        break;
                    }
                }
            }
        }
    }
}
