//! Property tests for the wire decoder (`dve_world::wire`): bytes off a
//! socket never panic the [`FrameReader`], every frame it accepts is
//! exactly the bytes it consumed, valid events round-trip over the full
//! `u64` range, and where a stream is cut into chunks never changes
//! what decodes.

use dve_world::wire::{encode_event, FrameReader, WireError, MAX_FRAME};
use dve_world::WorldEvent;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// What a reader made of a byte stream.
#[derive(Debug, PartialEq)]
struct Decoded {
    /// Decoded events in order, each with the stream range it consumed.
    frames: Vec<(WorldEvent, Range<usize>)>,
    /// The error that ended decoding, if any.
    error: Option<WireError>,
}

impl Decoded {
    /// Bytes past the last decoded frame.
    fn tail(&self, len: usize) -> usize {
        len - self.frames.last().map_or(0, |(_, range)| range.end)
    }
}

/// Feeds `bytes` to a fresh reader in chunks ending at each of `cuts`
/// (ascending) and then at the end, draining after every feed and
/// stopping at the first error, where `dvecap serve` drops the
/// connection. Asserts after every call that the reader never holds
/// more bytes than it was fed, that each frame starts where the last
/// one ended (the first at byte 0), and at a clean end that the reader
/// holds exactly the undecoded tail.
fn decode_in_chunks(bytes: &[u8], cuts: &[usize]) -> Decoded {
    let mut reader = FrameReader::new();
    let mut frames: Vec<(WorldEvent, Range<usize>)> = Vec::new();
    let mut fed = 0;
    for end in cuts.iter().copied().chain([bytes.len()]) {
        reader.feed(&bytes[fed..end]);
        fed = end;
        loop {
            assert!(reader.pending_bytes() <= fed, "pending exceeds fed");
            let start = fed - reader.pending_bytes();
            assert_eq!(start, frames.last().map_or(0, |(_, r)| r.end));
            match reader.next_event() {
                Ok(Some(event)) => {
                    assert!(reader.pending_bytes() <= fed, "pending exceeds fed");
                    frames.push((event, start..fed - reader.pending_bytes()));
                }
                Ok(None) => break,
                Err(error) => {
                    return Decoded {
                        frames,
                        error: Some(error),
                    };
                }
            }
        }
    }
    let decoded = Decoded {
        frames,
        error: None,
    };
    assert_eq!(reader.pending_bytes(), decoded.tail(bytes.len()));
    decoded
}

/// Ascending cut points splitting `len` bytes into chunks of 1 to
/// `chunk_max` bytes.
fn random_cuts(rng: &mut StdRng, len: usize, chunk_max: usize) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut at = 0;
    loop {
        at += rng.gen_range(1..chunk_max + 1);
        if at >= len {
            return cuts;
        }
        cuts.push(at);
    }
}

/// An id anywhere in the `u64` range, with the edges drawn often.
fn any_id(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..4) {
        0 => 0,
        1 => usize::MAX,
        _ => rng.gen(),
    }
}

fn any_event(rng: &mut StdRng) -> WorldEvent {
    let a = any_id(rng);
    match rng.gen_range(0..5) {
        0 => WorldEvent::Join {
            node: a,
            zone: any_id(rng),
        },
        1 => WorldEvent::Leave { client: a },
        2 => WorldEvent::Move {
            client: a,
            zone: any_id(rng),
        },
        3 => WorldEvent::ServerDown { server: a },
        _ => WorldEvent::ServerUp { server: a },
    }
}

/// A stream that looks like frames but often is not: mostly valid
/// frames, mixed with length prefixes that are zero, short, long or
/// hostile, opcodes in and out of range, and bodies of random bytes —
/// which sometimes happen to form a valid frame of their own.
fn frame_shaped(rng: &mut StdRng, pieces: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..pieces {
        if rng.gen_bool(0.75) {
            encode_event(&any_event(rng), &mut out);
            continue;
        }
        let length: u32 = if rng.gen_bool(0.1) {
            rng.gen()
        } else {
            rng.gen_range(0..MAX_FRAME + 4)
        };
        out.extend_from_slice(&length.to_le_bytes());
        let body = (length as usize).min(MAX_FRAME as usize + 4);
        if body > 0 {
            out.push(rng.gen_range(0u8..8));
            out.extend((1..body).map(|_| rng.gen_range(0u8..=u8::MAX)));
        }
    }
    out
}

fn encode_all(events: &[WorldEvent]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for event in events {
        encode_event(event, &mut bytes);
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes in arbitrary chunks never panic the reader, and
    /// it never reports more pending bytes than it was fed (asserted
    /// inside `decode_in_chunks`).
    #[test]
    fn arbitrary_bytes_never_panic(raw in vec(0u32..256, 0..600),
                                   seed in any::<u64>(),
                                   chunk_max in 1usize..80) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let cuts = random_cuts(&mut rng, bytes.len(), chunk_max);
        decode_in_chunks(&bytes, &cuts);
    }

    /// Every frame that decodes, from valid or garbled streams alike,
    /// re-encodes to exactly the bytes it consumed.
    #[test]
    fn decoded_frames_reencode_to_the_bytes_they_consumed(seed in any::<u64>(),
                                                          pieces in 0usize..40,
                                                          chunk_max in 1usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = frame_shaped(&mut rng, pieces);
        let cuts = random_cuts(&mut rng, bytes.len(), chunk_max);
        for (event, range) in decode_in_chunks(&bytes, &cuts).frames {
            let mut frame = Vec::new();
            encode_event(&event, &mut frame);
            prop_assert_eq!(&frame[..], &bytes[range]);
        }
    }

    /// A sequence of valid events with ids over the full `u64` range
    /// round-trips through random chunking, leaving nothing pending —
    /// long enough to cross the reader's buffer compaction.
    #[test]
    fn valid_event_sequences_round_trip(seed in any::<u64>(),
                                        len in 0usize..400,
                                        chunk_max in 1usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let events: Vec<WorldEvent> = (0..len).map(|_| any_event(&mut rng)).collect();
        let bytes = encode_all(&events);
        let cuts = random_cuts(&mut rng, bytes.len(), chunk_max);
        let decoded = decode_in_chunks(&bytes, &cuts);
        let got: Vec<WorldEvent> = decoded.frames.iter().map(|(e, _)| *e).collect();
        prop_assert_eq!(got, events);
        prop_assert_eq!(decoded.error, None);
        prop_assert_eq!(decoded.tail(bytes.len()), 0);
    }

    /// Splitting a stream in two at every byte boundary decodes exactly
    /// as feeding it whole: the same frames and the same ending error,
    /// for valid and garbled streams alike.
    #[test]
    fn every_split_point_decodes_identically(seed in any::<u64>(),
                                             pieces in 0usize..16,
                                             garbled in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = if garbled {
            frame_shaped(&mut rng, pieces)
        } else {
            let events: Vec<WorldEvent> = (0..pieces).map(|_| any_event(&mut rng)).collect();
            encode_all(&events)
        };
        let whole = decode_in_chunks(&bytes, &[]);
        if !garbled {
            prop_assert_eq!(whole.frames.len(), pieces);
            prop_assert_eq!(whole.error, None);
        }
        for split in 0..=bytes.len() {
            prop_assert_eq!(&decode_in_chunks(&bytes, &[split]), &whole, "split at {}", split);
        }
    }
}
