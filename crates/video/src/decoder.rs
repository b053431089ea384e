//! The video decoder: Figure 1 run in reverse.
//!
//! Variable-length decode → inverse quantizer → inverse DCT, plus the
//! motion-compensated predictor fed by the decoded vectors. Because the
//! encoder's reconstruction loop mirrors this code exactly, decoder output
//! is bit-identical to the encoder's internal reference frames.

use crate::bitstream::{read_amplitude, BitReader, OutOfBitsError};
use crate::dct::{Dct2d, BLOCK};
use crate::encoder::{FrameKind, MAGIC, MV_BITS};
use crate::frame::Frame;
use crate::huffman::{HuffmanCode, HuffmanError};
use crate::me::{BlockMotion, MotionField, MotionVector};
use crate::plane::Plane8;
use crate::quant::{Quantizer, BASE_MATRIX, FLAT_MATRIX};
use crate::rle::{self, RleEvent};
use crate::zigzag;

/// Errors decoding a bitstream.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The stream does not start with the expected magic number.
    BadMagic(u32),
    /// The stream ended prematurely.
    Truncated(OutOfBitsError),
    /// Entropy decoding failed.
    Huffman(HuffmanError),
    /// A quality value outside 1..=100 appeared in a frame header.
    BadQuality(u8),
    /// Run-length data overflowed a block.
    BadBlock,
    /// Frame dimensions in the header are invalid.
    BadDimensions,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            DecodeError::Truncated(e) => write!(f, "truncated stream: {e}"),
            DecodeError::Huffman(e) => write!(f, "entropy decode failed: {e}"),
            DecodeError::BadQuality(q) => write!(f, "invalid quality {q} in stream"),
            DecodeError::BadBlock => f.write_str("run-length data overflows a block"),
            DecodeError::BadDimensions => f.write_str("invalid dimensions in header"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<OutOfBitsError> for DecodeError {
    fn from(e: OutOfBitsError) -> Self {
        DecodeError::Truncated(e)
    }
}

impl From<HuffmanError> for DecodeError {
    fn from(e: HuffmanError) -> Self {
        DecodeError::Huffman(e)
    }
}

/// A decoded sequence with the per-frame kinds seen in the stream.
#[derive(Debug, Clone)]
pub struct DecodedSequence {
    /// The reconstructed frames.
    pub frames: Vec<Frame>,
    /// Frame kinds in stream order.
    pub kinds: Vec<FrameKind>,
    /// Total operations spent in the inverse transform path (IDCT blocks),
    /// the decoder-side cost proxy for experiment E3.
    pub idct_blocks: u64,
    /// Motion-compensated pixels produced.
    pub mc_pixels: u64,
}

/// Decodes a bitstream produced by [`crate::encoder::Encoder`].
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input.
///
/// # Example
///
/// ```
/// use video::decoder::decode;
/// use video::encoder::{Encoder, EncoderConfig};
/// use video::synth::SequenceGen;
///
/// let frames = SequenceGen::new(3).panning_sequence(32, 32, 4, 1, 0);
/// let encoded = Encoder::new(EncoderConfig::default()).unwrap().encode(&frames).unwrap();
/// let decoded = decode(&encoded.bytes)?;
/// assert_eq!(decoded.frames.len(), 4);
/// # Ok::<(), video::decoder::DecodeError>(())
/// ```
pub fn decode(bytes: &[u8]) -> Result<DecodedSequence, DecodeError> {
    let mut r = BitReader::new(bytes);
    let magic = r.read_bits(16)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let w = r.read_bits(8)? as usize * 16;
    let h = r.read_bits(8)? as usize * 16;
    if w == 0 || h == 0 {
        return Err(DecodeError::BadDimensions);
    }
    let frame_count = r.read_bits(16)? as usize;
    let dc_code = HuffmanCode::read_table(&mut r)?;
    let ac_code = HuffmanCode::read_table(&mut r)?;

    let dct = Dct2d::new();
    // The count is a header claim; every frame costs at least its 8-bit
    // header, so reserve no more frames than the remaining bits can hold.
    let reserve = frame_count.min(r.remaining() / 8);
    let mut frames: Vec<Frame> = Vec::with_capacity(reserve);
    let mut kinds = Vec::with_capacity(reserve);
    let mut idct_blocks = 0u64;
    let mut mc_pixels = 0u64;

    let mb_cols = w / 16;
    let mb_rows = h / 16;

    for _ in 0..frame_count {
        let predicted = r.read_bit()?;
        let quality = r.read_bits(7)? as u8;
        if quality == 0 || quality > 100 {
            return Err(DecodeError::BadQuality(quality));
        }
        let kind = if predicted {
            FrameKind::Predicted
        } else {
            FrameKind::Intra
        };
        // Motion vectors.
        let field = if predicted {
            let mut blocks = Vec::with_capacity(mb_cols * mb_rows);
            for _ in 0..mb_cols * mb_rows {
                let dx = sign_extend_6(r.read_bits(MV_BITS)?);
                let dy = sign_extend_6(r.read_bits(MV_BITS)?);
                blocks.push(BlockMotion {
                    mv: MotionVector::new(dx, dy),
                    sad: 0,
                    evaluations: 0,
                });
            }
            Some(MotionField {
                cols: mb_cols,
                rows: mb_rows,
                blocks,
            })
        } else {
            None
        };

        let matrix = if predicted {
            &FLAT_MATRIX
        } else {
            &BASE_MATRIX
        };
        let quant = Quantizer::from_quality_with_matrix(quality, matrix)
            .map_err(|e| DecodeError::BadQuality(e.0))?;

        // Borrowed views of the previous frame's planes (no copies).
        let ref_planes = frames
            .last()
            .map(|f| [f.luma_plane(), f.cb_plane(), f.cr_plane()]);

        let mut out_planes: Vec<Plane8> = Vec::with_capacity(3);
        let mut pred = [0u8; BLOCK * BLOCK];
        let mut rec = [0u8; BLOCK * BLOCK];
        for pi in 0..3 {
            let (pw, ph) = if pi == 0 { (w, h) } else { (w / 2, h / 2) };
            let chroma = pi > 0;
            let (cols, rows) = (pw / BLOCK, ph / BLOCK);
            let mut plane = Plane8::filled(pw, ph, 128);
            let mut prev_dc = 0i16;
            for by in 0..rows {
                for bx in 0..cols {
                    // DC.
                    let size = dc_code.decode(&mut r)? as u32;
                    let diff = read_amplitude(&mut r, size)?;
                    let dc = prev_dc + diff as i16;
                    prev_dc = dc;
                    let mut coeffs = [0.0f64; BLOCK * BLOCK];
                    coeffs[0] = dc as f64 * quant.step(0);
                    let ac_coded = read_ac(&mut r, &ac_code, &quant, &mut coeffs)?;
                    let coded = dc != 0 || ac_coded;
                    // A block whose levels are all zero skips the inverse
                    // transform: the butterfly maps zeros to ±0.0 and
                    // adding ±0.0 leaves a pixel unchanged, so the block
                    // is the prediction (P) or the plane's mid-grey fill
                    // (I). It still counts as an IDCT block for E3.
                    idct_blocks += 1;
                    if predicted {
                        let rp = &ref_planes.as_ref().ok_or(DecodeError::BadBlock)?[pi];
                        let f = field.as_ref().expect("field exists for P frames");
                        let (mbx, mby) = if chroma { (bx, by) } else { (bx / 2, by / 2) };
                        let mv = f.at(mbx.min(f.cols - 1), mby.min(f.rows - 1)).mv;
                        let (dx, dy) = if chroma {
                            (mv.dx / 2, mv.dy / 2)
                        } else {
                            (mv.dx, mv.dy)
                        };
                        rp.block_into(
                            (bx * BLOCK) as i32 + dx,
                            (by * BLOCK) as i32 + dy,
                            BLOCK,
                            &mut pred,
                        );
                        mc_pixels += (BLOCK * BLOCK) as u64;
                        if coded {
                            let res = dct.inverse(&coeffs);
                            for (o, (&p, &rv)) in rec.iter_mut().zip(pred.iter().zip(res.iter())) {
                                *o = (p as f64 + rv).round().clamp(0.0, 255.0) as u8;
                            }
                            plane.set_block(bx * BLOCK, by * BLOCK, BLOCK, &rec);
                        } else {
                            plane.set_block(bx * BLOCK, by * BLOCK, BLOCK, &pred);
                        }
                    } else if coded {
                        let rec = dct.inverse_to_pixels(&coeffs);
                        plane.set_block(bx * BLOCK, by * BLOCK, BLOCK, &rec);
                    }
                }
            }
            out_planes.push(plane);
        }
        let cr = out_planes.pop().expect("three planes");
        let cb = out_planes.pop().expect("three planes");
        let y = out_planes.pop().expect("three planes");
        let frame = Frame::from_planes(w, h, y.into_data(), cb.into_data(), cr.into_data())
            .map_err(|_| DecodeError::BadDimensions)?;
        frames.push(frame);
        kinds.push(kind);
    }

    Ok(DecodedSequence {
        frames,
        kinds,
        idct_blocks,
        mc_pixels,
    })
}

/// Reads one block's AC symbols, until EOB or the 63rd coefficient, and
/// writes each dequantised level into its row-major slot of `coeffs`.
/// Other slots are left alone: quantiser steps are positive, so a zero
/// level dequantises to the +0.0 they already hold. Returns whether any
/// level was nonzero.
///
/// # Errors
///
/// [`DecodeError::BadBlock`] if the symbols describe more than 63
/// coefficients, or once the block is read if a run carried a zero level,
/// which the encoder never emits.
fn read_ac(
    r: &mut BitReader<'_>,
    ac_code: &HuffmanCode,
    quant: &Quantizer,
    coeffs: &mut [f64; BLOCK * BLOCK],
) -> Result<bool, DecodeError> {
    let mut coded = false;
    let mut zero_level = false;
    let mut seen = 0usize;
    loop {
        let sym = ac_code.decode(r)?;
        let amplitude = read_amplitude(r, rle::amplitude_bits(sym))?;
        match rle::event_from_symbol(sym, amplitude) {
            RleEvent::EndOfBlock => break,
            RleEvent::ZeroRunLength => seen += 16,
            RleEvent::Run { run, level } => {
                seen += run as usize + 1;
                if seen <= 63 {
                    let i = zigzag::ZIGZAG[seen];
                    coeffs[i] = level as f64 * quant.step(i);
                }
                zero_level |= level == 0;
                coded |= level != 0;
            }
        }
        if seen > 63 {
            return Err(DecodeError::BadBlock);
        }
        if seen == 63 {
            break;
        }
    }
    if zero_level {
        return Err(DecodeError::BadBlock);
    }
    Ok(coded)
}

fn sign_extend_6(v: u32) -> i32 {
    let v = v as i32;
    if v >= 32 {
        v - 64
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{write_amplitude, BitWriter};
    use crate::encoder::{Encoder, EncoderConfig};
    use crate::synth::SequenceGen;
    use signal::metrics::psnr_u8;
    use signal::rng::Xoroshiro128;

    fn round_trip(config: EncoderConfig, n: usize) -> (Vec<Frame>, DecodedSequence, f64) {
        let frames = SequenceGen::new(55).panning_sequence(64, 48, n, 2, 1);
        let enc = Encoder::new(config).unwrap().encode(&frames).unwrap();
        let dec = decode(&enc.bytes).unwrap();
        let mean_psnr = enc.mean_psnr_db();
        (frames, dec, mean_psnr)
    }

    #[test]
    fn decoder_matches_encoder_reconstruction() {
        let (frames, dec, enc_psnr) = round_trip(EncoderConfig::default(), 8);
        assert_eq!(dec.frames.len(), frames.len());
        // Decoder output PSNR vs source must equal the encoder's internal
        // reconstruction PSNR (same loop, same arithmetic).
        let mut psnrs = Vec::new();
        for (src, out) in frames.iter().zip(&dec.frames) {
            psnrs.push(psnr_u8(src.luma(), out.luma()).unwrap());
        }
        let dec_psnr = psnrs.iter().sum::<f64>() / psnrs.len() as f64;
        assert!(
            (dec_psnr - enc_psnr).abs() < 1e-9,
            "decoder drifted from encoder loop: {dec_psnr} vs {enc_psnr}"
        );
    }

    #[test]
    fn kinds_survive_the_stream() {
        let (_, dec, _) = round_trip(
            EncoderConfig {
                gop: 3,
                ..Default::default()
            },
            7,
        );
        for (i, k) in dec.kinds.iter().enumerate() {
            let expect = if i % 3 == 0 {
                FrameKind::Intra
            } else {
                FrameKind::Predicted
            };
            assert_eq!(*k, expect);
        }
    }

    #[test]
    fn all_intra_stream_decodes() {
        let (frames, dec, _) = round_trip(
            EncoderConfig {
                gop: 1,
                ..Default::default()
            },
            4,
        );
        assert!(dec.kinds.iter().all(|k| *k == FrameKind::Intra));
        for (src, out) in frames.iter().zip(&dec.frames) {
            assert!(psnr_u8(src.luma(), out.luma()).unwrap() > 28.0);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            decode(&[0, 0, 0, 0]),
            Err(DecodeError::BadMagic(0))
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let frames = SequenceGen::new(1).panning_sequence(32, 32, 2, 1, 0);
        let enc = Encoder::new(EncoderConfig::default())
            .unwrap()
            .encode(&frames)
            .unwrap();
        let cut = &enc.bytes[..enc.bytes.len() / 2];
        assert!(matches!(
            decode(cut),
            Err(DecodeError::Truncated(_)) | Err(DecodeError::Huffman(_))
        ));
    }

    #[test]
    fn decoder_is_cheaper_than_encoder_for_broadcast_config() {
        // E3's asymmetry claim, at the ops level: decoder does no motion
        // search, so its MC+IDCT work is far below the encoder's ME work.
        let frames = SequenceGen::new(8).panning_sequence(64, 48, 8, 2, 0);
        let enc = Encoder::new(EncoderConfig::asymmetric_broadcast())
            .unwrap()
            .encode(&frames)
            .unwrap();
        let dec = decode(&enc.bytes).unwrap();
        let decoder_ops = dec.idct_blocks * 2 * 512 + dec.mc_pixels;
        assert!(
            enc.tally.me_pixel_ops > 5 * decoder_ops,
            "encoder ME {} should dwarf decoder {}",
            enc.tally.me_pixel_ops,
            decoder_ops
        );
    }

    #[test]
    fn zero_level_run_is_a_bad_block() {
        // One 16x16 intra frame whose first block carries AC symbol 0x10
        // (run 1, size 0): a run ending in a zero level, which the
        // encoder never emits.
        let dc = HuffmanCode::from_lengths(vec![1]).unwrap();
        let mut ac_lengths = vec![0u8; 256];
        ac_lengths[0x00] = 1;
        ac_lengths[0x10] = 1;
        let ac = HuffmanCode::from_lengths(ac_lengths).unwrap();
        let mut w = BitWriter::new();
        w.write_bits(MAGIC, 16);
        w.write_bits(1, 8);
        w.write_bits(1, 8);
        w.write_bits(1, 16);
        dc.write_table(&mut w);
        ac.write_table(&mut w);
        w.write_bit(false);
        w.write_bits(50, 7);
        dc.encode(&mut w, 0).unwrap();
        ac.encode(&mut w, 0x10).unwrap();
        ac.encode(&mut w, 0x00).unwrap();
        assert_eq!(decode(&w.into_bytes()).unwrap_err(), DecodeError::BadBlock);
    }

    #[test]
    fn read_ac_matches_rle_oracle() {
        // Event streams from the encoder's run-length coder, and random
        // ones that may overflow the block or carry a zero level, read by
        // `read_ac` and by the whole-block oracle: `rle::decode_ac`, then
        // `zigzag::unscan`, then `Quantizer::dequantize`.
        let ac_code = HuffmanCode::from_lengths(vec![8; 256]).unwrap();
        let quant = Quantizer::from_quality_with_matrix(40, &BASE_MATRIX).unwrap();
        let mut rng = Xoroshiro128::new(12);
        let level = |rng: &mut Xoroshiro128| {
            let v = rng.range_i64(1, 300) as i16;
            if rng.chance(0.5) {
                v
            } else {
                -v
            }
        };
        for case in 0..4000 {
            let events = if case % 2 == 0 {
                let density = rng.range_f64(0.0, 0.5);
                let mut block = [0i16; BLOCK * BLOCK];
                for slot in block.iter_mut().skip(1) {
                    if rng.chance(density) {
                        *slot = level(&mut rng);
                    }
                }
                rle::encode_ac(&block)
            } else {
                // Random events up to where the decoder stops reading:
                // EOB or the 63rd coefficient.
                let mut events = Vec::new();
                let mut seen = 0;
                while seen < 63 {
                    let ev = match rng.below(12) {
                        0 => RleEvent::EndOfBlock,
                        1 => RleEvent::ZeroRunLength,
                        _ => {
                            let run = rng.below(16) as u8;
                            // A zero level codes as size 0, which for
                            // runs 0 and 15 is EOB or ZRL instead.
                            let zero = (1..15).contains(&run) && rng.chance(0.05);
                            let level = if zero { 0 } else { level(&mut rng) };
                            RleEvent::Run { run, level }
                        }
                    };
                    events.push(ev);
                    match ev {
                        RleEvent::EndOfBlock => break,
                        RleEvent::ZeroRunLength => seen += 16,
                        RleEvent::Run { run, .. } => seen += run as usize + 1,
                    }
                }
                events
            };
            let mut w = BitWriter::new();
            for ev in &events {
                ac_code.encode(&mut w, rle::event_symbol(ev)).unwrap();
                if let Some((v, size)) = rle::event_amplitude(ev) {
                    write_amplitude(&mut w, v, size);
                }
            }
            let bits = w.bit_len();
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let mut coeffs = [0.0; BLOCK * BLOCK];
            let got = read_ac(&mut r, &ac_code, &quant, &mut coeffs);
            match rle::decode_ac(&events) {
                Ok(scanned) => {
                    let levels = zigzag::unscan(&scanned);
                    assert_eq!(got, Ok(levels.iter().any(|&l| l != 0)), "{events:?}");
                    assert_eq!(coeffs, quant.dequantize(&levels), "{events:?}");
                    assert_eq!(r.position(), bits, "{events:?}");
                }
                Err(_) => assert_eq!(got, Err(DecodeError::BadBlock), "{events:?}"),
            }
        }
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend_6(0), 0);
        assert_eq!(sign_extend_6(31), 31);
        assert_eq!(sign_extend_6(32), -32);
        assert_eq!(sign_extend_6(63), -1);
    }
}
