//! Adversarial framing tests for `rlnoc-wire v1`, mirroring the
//! runner's checkpoint `corruption.rs`: truncation at every prefix
//! length and a bit flip at every byte offset of every frame type.
//! The decoder must never panic, and a corrupted frame never decodes:
//! the header's tokens are strict (a lowercase, fixed-width CRC, a
//! digits-only length), so not even a hex digit's case bit is inert.

use rlnoc_serve::wire::{read_frame, Frame, FrameType, WireError};
use std::io::Cursor;

fn sample_frames() -> Vec<Frame> {
    FrameType::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let payload = format!("tenant=alice\ncampaign=c-00000000000000{i:02x}\nstate=queued\n");
            Frame::text(kind, &payload)
        })
        .chain([
            Frame::new(FrameType::Event, Vec::new()), // empty payload
            Frame::new(FrameType::Submit, vec![0u8; 255]), // binary payload
        ])
        .collect()
}

#[test]
fn every_truncation_of_every_frame_type_is_rejected() {
    for frame in sample_frames() {
        let bytes = frame.encode();
        for len in 0..bytes.len() {
            let result = read_frame(&mut Cursor::new(&bytes[..len]));
            match result {
                Err(WireError::Closed) => {
                    assert_eq!(len, 0, "Closed is only for EOF before any byte");
                }
                Err(_) => {}
                Ok(decoded) => panic!(
                    "truncation to {len}/{} bytes of a {} frame decoded as {:?}",
                    bytes.len(),
                    frame.kind.token(),
                    decoded.kind.token()
                ),
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    for frame in sample_frames() {
        let bytes = frame.encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(
                    read_frame(&mut Cursor::new(&corrupted)).is_err(),
                    "flip of bit {bit} in byte {byte} of a {} frame decoded",
                    frame.kind.token()
                );
            }
        }
    }
}

#[test]
fn garbage_prefixes_never_panic_the_decoder() {
    // Deterministic pseudo-random garbage, including high-bit bytes,
    // NULs, and newline floods.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..64 {
        let mut garbage = Vec::with_capacity(96);
        for _ in 0..96 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            garbage.push((state >> 33) as u8);
        }
        let _ = read_frame(&mut Cursor::new(&garbage));
    }
    for flood in [&b"\n\n\n\n"[..], &b"rlnw1\n"[..], &b"rlnw1 submit\n"[..]] {
        assert!(read_frame(&mut Cursor::new(flood)).is_err());
    }
}

#[test]
fn corruption_in_one_frame_does_not_leak_into_the_next() {
    // Two frames back to back; corrupting the second must still let
    // the first decode cleanly from the stream head.
    let a = Frame::text(FrameType::Status, "tenant=alice\ncampaign=c-1\n");
    let b = Frame::text(FrameType::Cancel, "tenant=alice\ncampaign=c-2\n");
    let mut bytes = a.encode();
    let mut second = b.encode();
    let len = second.len();
    second[len - 1] ^= 0x01;
    bytes.extend_from_slice(&second);
    let mut cursor = Cursor::new(&bytes);
    assert_eq!(read_frame(&mut cursor).expect("first frame intact"), a);
    assert!(read_frame(&mut cursor).is_err(), "second frame is corrupt");
}
