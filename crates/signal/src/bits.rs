//! Bit-level stream writer and reader, MSB-first.
//!
//! Shared by the video codec's variable-length encoder (Figure 1), the
//! audio frame packer (Figure 2), the RPE-LTP speech framer, and the DRM
//! license serializer. Bits are packed MSB-first into bytes.

/// Error returned when a reader runs out of bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBitsError {
    /// Bits requested.
    pub requested: u32,
    /// Bits remaining.
    pub remaining: usize,
}

impl core::fmt::Display for OutOfBitsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "requested {} bits but only {} remain",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for OutOfBitsError {}

/// MSB-first bit writer.
///
/// # Example
///
/// ```
/// use signal::bits::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(8)?, 0xFF);
/// # Ok::<(), signal::bits::OutOfBitsError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the final partial byte (0..8).
    bit_pos: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.len() - 1;
            self.bytes[last] |= (bit as u8) << (7 - self.bit_pos);
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Total bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Pads with zero bits to a byte boundary and returns the bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrows the bytes written so far (final byte may be partial).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, cursor: 0 }
    }

    /// Bits remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.cursor
    }

    /// Current absolute bit position.
    #[must_use]
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Reads `count` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBitsError`] when fewer than `count` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u32) -> Result<u32, OutOfBitsError> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if (count as usize) > self.remaining() {
            return Err(OutOfBitsError {
                requested: count,
                remaining: self.remaining(),
            });
        }
        let w = self.window();
        self.cursor += count as usize;
        // The top `count` bits; two shifts so that `count == 0` works.
        Ok((w >> 32 >> (32 - count)) as u32)
    }

    /// The eight bytes from the cursor's byte on (zero past the end),
    /// shifted so the bit under the cursor is the most significant: at
    /// least 57 bits, enough for any read.
    fn window(&self) -> u64 {
        let i = self.cursor / 8;
        let mut bytes = [0u8; 8];
        match self.bytes.get(i..i + 8) {
            Some(full) => bytes.copy_from_slice(full),
            None => {
                let tail = &self.bytes[i..];
                bytes[..tail.len()].copy_from_slice(tail);
            }
        }
        u64::from_be_bytes(bytes) << (self.cursor % 8)
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBitsError`] at end of stream.
    pub fn read_bit(&mut self) -> Result<bool, OutOfBitsError> {
        let Some(&byte) = self.bytes.get(self.cursor / 8) else {
            return Err(OutOfBitsError {
                requested: 1,
                remaining: 0,
            });
        };
        let bit = (byte >> (7 - self.cursor % 8)) & 1;
        self.cursor += 1;
        Ok(bit == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(0xABCD, 16);
        w.write_bits(0x7FFFFFFF, 31);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 0b1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bits(31).unwrap(), 0x7FFFFFFF);
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 8);
        w.write_bit(true);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn reading_past_end_errors() {
        let bytes = [0xFF];
        let mut r = BitReader::new(&bytes);
        r.read_bits(6).unwrap();
        let err = r.read_bits(4).unwrap_err();
        assert_eq!(
            err,
            OutOfBitsError {
                requested: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        assert_eq!(w.into_bytes(), vec![0x80]);
    }

    #[test]
    fn as_bytes_reflects_progress() {
        let mut w = BitWriter::new();
        w.write_bits(0xF, 4);
        assert_eq!(w.as_bytes(), &[0xF0]);
    }

    #[test]
    fn remaining_and_position_track_cursor() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining(), 32);
        r.read_bits(10).unwrap();
        assert_eq!(r.position(), 10);
        assert_eq!(r.remaining(), 22);
    }

    /// Bit-at-a-time reference read of `count` bits from `cursor`:
    /// the value and the new cursor, or the error `read_bits` must give.
    fn reference_read(
        bytes: &[u8],
        cursor: usize,
        count: u32,
    ) -> Result<(u32, usize), OutOfBitsError> {
        let remaining = bytes.len() * 8 - cursor;
        if count as usize > remaining {
            return Err(OutOfBitsError {
                requested: count,
                remaining,
            });
        }
        let mut out = 0u32;
        for i in cursor..cursor + count as usize {
            out = (out << 1) | ((bytes[i / 8] >> (7 - i % 8)) & 1) as u32;
        }
        Ok((out, cursor + count as usize))
    }

    #[test]
    fn chunked_reads_match_bit_serial_reference() {
        // Every width 0..=32 at every bit offset 0..7 of buffers of 0..=13
        // bytes: reads with a full 8-byte window, reads near the end, and
        // reads that meet the end of the stream.
        let pattern = [
            0xA5u8, 0x3C, 0xFF, 0x01, 0x96, 0x00, 0x7E, 0xC3, 0x5A, 0x81, 0x24, 0xE7, 0x18,
        ];
        for len in 0..=pattern.len() {
            let bytes = &pattern[..len];
            for offset in 0..8usize.min(len * 8 + 1) {
                for count in 0..=32u32 {
                    let mut r = BitReader::new(bytes);
                    r.read_bits(offset as u32).unwrap();
                    let expect = reference_read(bytes, offset, count);
                    let got = r.read_bits(count).map(|v| (v, r.position()));
                    assert_eq!(got, expect, "len {len} offset {offset} count {count}");
                    if expect.is_err() {
                        assert_eq!(r.position(), offset, "a failed read consumes nothing");
                    }
                }
                let mut r = BitReader::new(bytes);
                r.read_bits(offset as u32).unwrap();
                let expect = reference_read(bytes, offset, 1).map(|(v, _)| v == 1);
                assert_eq!(
                    r.read_bit(),
                    expect,
                    "read_bit at len {len} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn chunked_read_sequences_match_reference() {
        let bytes: Vec<u8> = (0u32..23).map(|i| (i * 0x9E + 0x37) as u8).collect();
        for start in 0..33u32 {
            let mut r = BitReader::new(&bytes);
            let mut cursor = 0;
            let mut count = start;
            loop {
                let expect = reference_read(&bytes, cursor, count);
                assert_eq!(r.read_bits(count).map(|v| (v, r.position())), expect);
                match expect {
                    Ok((_, next)) => cursor = next,
                    Err(_) => break,
                }
                count = (count * 7 + 5) % 33;
            }
        }
    }
}
