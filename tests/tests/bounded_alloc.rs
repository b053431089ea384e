//! Decoders size their buffers by the input, not by header claims.
//!
//! Each case is a tiny stream whose 16-bit count field claims 65,535
//! items. The decoder must fail with the same typed error as before, and
//! no single allocation may exceed a fixed allowance for per-stream state
//! plus a constant number of bytes per input byte. Trusting the claim
//! reserved 64 KiB (Huffman table), ~5.8 MB (video frames), ~604 MB
//! (audio samples) and ~84 MB (speech samples).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use audio::encoder::{AudioConfig, AudioEncoder, AudioError};
use audio::rpeltp::{RpeLtp, SpeechError, FRAME};
use signal::bits::{BitReader, OutOfBitsError};
use signal::gen::SignalGen;
use video::decoder::DecodeError;
use video::encoder::{Encoder, EncoderConfig};
use video::huffman::{HuffmanCode, HuffmanError};
use video::synth::SequenceGen;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest request made on each thread.
struct LargestAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Per-stream state (planes, filterbank tables) plus 256 bytes per input
/// byte: the smallest audio frame, 41 bytes of headers, decodes to 1,120
/// samples (8,960 B), so output alone legitimately grows ~220x.
fn allowance(input: &[u8]) -> usize {
    64 * 1024 + 256 * input.len()
}

fn claim_65535(bytes: &mut [u8], at: usize) {
    bytes[at] = 0xFF;
    bytes[at + 1] = 0xFF;
}

#[test]
fn huffman_table_claiming_65535_lengths() {
    // 16-bit count, then three 5-bit lengths and one stray bit.
    let bytes = [0xFF, 0xFF, 0x08, 0x41];
    let (result, largest) =
        largest_allocation(|| HuffmanCode::read_table(&mut BitReader::new(&bytes)));
    assert_eq!(
        result.unwrap_err(),
        HuffmanError::OutOfBits(OutOfBitsError {
            requested: 5,
            remaining: 1
        })
    );
    assert!(
        largest < 1024,
        "largest allocation {largest} B for a 4-byte table"
    );
}

#[test]
fn video_stream_claiming_65535_frames() {
    let frames = SequenceGen::new(4).panning_sequence(16, 16, 1, 1, 0);
    let mut bytes = Encoder::new(EncoderConfig::default())
        .unwrap()
        .encode(&frames)
        .unwrap()
        .bytes;
    // Magic (16 bits), width and height (8 each), then the frame count.
    claim_65535(&mut bytes, 4);
    let (result, largest) = largest_allocation(|| video::decoder::decode(&bytes));
    assert!(
        matches!(result, Err(DecodeError::Truncated(_))),
        "{result:?}"
    );
    assert!(
        largest <= allowance(&bytes),
        "largest allocation {largest} B for a {}-byte stream",
        bytes.len()
    );
}

#[test]
fn audio_stream_claiming_65535_frames() {
    let pcm = SignalGen::new(5).music(440.0, 44_100.0, audio::encoder::FRAME_SAMPLES);
    let mut bytes = AudioEncoder::new(AudioConfig::default())
        .encode(&pcm)
        .unwrap()
        .bytes;
    // Magic (16 bits), then the frame count.
    claim_65535(&mut bytes, 2);
    let (result, largest) = largest_allocation(|| audio::encoder::decode(&bytes));
    assert!(
        matches!(result, Err(AudioError::Truncated(_))),
        "{result:?}"
    );
    assert!(
        largest <= allowance(&bytes),
        "largest allocation {largest} B for a {}-byte stream",
        bytes.len()
    );
}

#[test]
fn speech_stream_claiming_65535_frames() {
    let (speech, _) = SignalGen::new(6).speech_sentence(8000.0, FRAME);
    let mut bytes = RpeLtp::new().encode(&speech).unwrap().bytes;
    // Magic (16 bits), then the frame count.
    claim_65535(&mut bytes, 2);
    let (result, largest) = largest_allocation(|| RpeLtp::new().decode(&bytes));
    assert!(
        matches!(result, Err(SpeechError::Truncated(_))),
        "{result:?}"
    );
    assert!(
        largest <= allowance(&bytes),
        "largest allocation {largest} B for a {}-byte stream",
        bytes.len()
    );
}
