//! Length-prefixed wire protocol for streaming [`WorldEvent`]s over a
//! byte channel (the `dvecap serve` TCP front end).
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [u32 length][u8 opcode][payload...]
//! ```
//!
//! `length` counts the opcode byte plus the payload, **not** itself.
//! Payload fields are `u64`s:
//!
//! | opcode | event        | payload            | length |
//! |--------|--------------|--------------------|--------|
//! | `0x01` | `Join`       | `node`, `zone`     | 17     |
//! | `0x02` | `Leave`      | `client`           | 9      |
//! | `0x03` | `Move`       | `client`, `zone`   | 17     |
//! | `0x04` | `ServerDown` | `server`           | 9      |
//! | `0x05` | `ServerUp`   | `server`           | 9      |
//!
//! On the wire, `client` is a **stable client id** (the serving engine's
//! `ClientId` discipline: the initial population is `0..k` in index
//! order, joiners take sequential ids in admission order), *not* a
//! base-world index — remote producers cannot track per-flush index
//! rebasing. The pull loop passes ids to the engine unchanged, and the
//! engine maps each id to its current index. A frame longer than [`MAX_FRAME`] is refused outright so a garbage
//! length prefix cannot make the reader buffer gigabytes.
//!
//! [`FrameReader`] is the incremental decoder: feed it byte chunks as
//! they come off a socket and drain complete events with
//! [`FrameReader::next_event`].

use crate::stream::WorldEvent;

/// Opcode of a [`WorldEvent::Join`] frame.
pub const OP_JOIN: u8 = 0x01;
/// Opcode of a [`WorldEvent::Leave`] frame.
pub const OP_LEAVE: u8 = 0x02;
/// Opcode of a [`WorldEvent::Move`] frame.
pub const OP_MOVE: u8 = 0x03;
/// Opcode of a [`WorldEvent::ServerDown`] frame.
pub const OP_SERVER_DOWN: u8 = 0x04;
/// Opcode of a [`WorldEvent::ServerUp`] frame.
pub const OP_SERVER_UP: u8 = 0x05;

/// Largest body (opcode + payload) a frame may declare: the biggest
/// legal frame is 17 bytes, so anything past this is a corrupt or
/// hostile length prefix.
pub const MAX_FRAME: u32 = 64;

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the payload its opcode requires.
    Truncated {
        /// Declared body length.
        got: usize,
        /// Length the opcode requires.
        want: usize,
    },
    /// Unknown opcode byte.
    BadOpcode {
        /// The offending byte.
        opcode: u8,
    },
    /// The length prefix declares an empty body (no opcode).
    BadLength,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// Declared body length.
        length: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { got, want } => {
                write!(f, "frame body is {got} bytes, opcode requires {want}")
            }
            WireError::BadOpcode { opcode } => write!(f, "unknown opcode {opcode:#04x}"),
            WireError::BadLength => write!(f, "frame declares an empty body"),
            WireError::Oversized { length } => {
                write!(f, "frame declares {length} bytes (max {MAX_FRAME})")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Appends one framed event to `out` (length prefix included).
pub fn encode_event(event: &WorldEvent, out: &mut Vec<u8>) {
    let (opcode, a, b) = match *event {
        WorldEvent::Join { node, zone } => (OP_JOIN, node as u64, Some(zone as u64)),
        WorldEvent::Leave { client } => (OP_LEAVE, client as u64, None),
        WorldEvent::Move { client, zone } => (OP_MOVE, client as u64, Some(zone as u64)),
        WorldEvent::ServerDown { server } => (OP_SERVER_DOWN, server as u64, None),
        WorldEvent::ServerUp { server } => (OP_SERVER_UP, server as u64, None),
    };
    let length: u32 = 1 + 8 + if b.is_some() { 8 } else { 0 };
    out.extend_from_slice(&length.to_le_bytes());
    out.push(opcode);
    out.extend_from_slice(&a.to_le_bytes());
    if let Some(b) = b {
        out.extend_from_slice(&b.to_le_bytes());
    }
}

fn read_u64(body: &[u8], offset: usize) -> Result<u64, WireError> {
    let bytes: [u8; 8] = body
        .get(offset..offset + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or(WireError::Truncated {
            got: body.len(),
            want: offset + 8,
        })?;
    Ok(u64::from_le_bytes(bytes))
}

/// Decodes one frame **body** (opcode + payload, the length prefix
/// already stripped) into a [`WorldEvent`].
pub fn decode_event(body: &[u8]) -> Result<WorldEvent, WireError> {
    let &opcode = body.first().ok_or(WireError::BadLength)?;
    let payload = &body[1..];
    let want = match opcode {
        OP_JOIN | OP_MOVE => 16,
        OP_LEAVE | OP_SERVER_DOWN | OP_SERVER_UP => 8,
        _ => return Err(WireError::BadOpcode { opcode }),
    };
    if payload.len() != want {
        return Err(WireError::Truncated {
            got: body.len(),
            want: want + 1,
        });
    }
    let a = read_u64(payload, 0)? as usize;
    Ok(match opcode {
        OP_JOIN => WorldEvent::Join {
            node: a,
            zone: read_u64(payload, 8)? as usize,
        },
        OP_LEAVE => WorldEvent::Leave { client: a },
        OP_MOVE => WorldEvent::Move {
            client: a,
            zone: read_u64(payload, 8)? as usize,
        },
        OP_SERVER_DOWN => WorldEvent::ServerDown { server: a },
        _ => WorldEvent::ServerUp { server: a },
    })
}

/// Incremental frame decoder: buffer bytes as they arrive with
/// [`FrameReader::feed`], drain complete frames with
/// [`FrameReader::next_event`]. Partial frames stay buffered across
/// feeds, so arbitrary chunking (down to one byte at a time) decodes
/// identically.
#[derive(Debug, Default)]
pub struct FrameReader {
    buffer: Vec<u8>,
    /// Bytes already consumed off the front of `buffer`; compacted
    /// lazily so a feed/next cycle does not memmove per frame.
    consumed: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Buffers `bytes` for decoding.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed == self.buffer.len() {
            self.buffer.clear();
            self.consumed = 0;
        }
        self.buffer.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (a nonzero value after the
    /// producer hangs up means a truncated final frame).
    pub fn pending_bytes(&self) -> usize {
        self.buffer.len() - self.consumed
    }

    /// Decodes the next complete frame, if one is buffered. `Ok(None)`
    /// means "need more bytes". A [`WireError`] is fatal for the stream:
    /// framing is lost, the connection should be dropped.
    pub fn next_event(&mut self) -> Result<Option<WorldEvent>, WireError> {
        let pending = &self.buffer[self.consumed..];
        let Some(prefix) = pending.get(..4) else {
            return Ok(None);
        };
        let length = u32::from_le_bytes(prefix.try_into().expect("4-byte slice"));
        if length == 0 {
            return Err(WireError::BadLength);
        }
        if length > MAX_FRAME {
            return Err(WireError::Oversized { length });
        }
        let body_len = length as usize;
        let Some(body) = pending.get(4..4 + body_len) else {
            return Ok(None);
        };
        let event = decode_event(body)?;
        self.consumed += 4 + body_len;
        if self.consumed >= self.buffer.len() {
            self.buffer.clear();
            self.consumed = 0;
        } else if self.consumed > 4096 {
            self.buffer.drain(..self.consumed);
            self.consumed = 0;
        }
        Ok(Some(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<WorldEvent> {
        vec![
            WorldEvent::Join { node: 3, zone: 999 },
            WorldEvent::Leave { client: 0 },
            WorldEvent::Move {
                client: 123_456,
                zone: 42,
            },
            WorldEvent::ServerDown { server: 7 },
            WorldEvent::ServerUp { server: 7 },
        ]
    }

    #[test]
    fn events_round_trip_through_the_frame_reader() {
        let events = sample_events();
        let mut bytes = Vec::new();
        for ev in &events {
            encode_event(ev, &mut bytes);
        }
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        let mut decoded = Vec::new();
        while let Some(ev) = reader.next_event().unwrap() {
            decoded.push(ev);
        }
        assert_eq!(decoded, events);
        assert_eq!(reader.pending_bytes(), 0);
    }

    /// Chunking must not matter: one byte per feed decodes the same
    /// stream.
    #[test]
    fn byte_by_byte_feeding_decodes_identically() {
        let events = sample_events();
        let mut bytes = Vec::new();
        for ev in &events {
            encode_event(ev, &mut bytes);
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for b in bytes {
            reader.feed(&[b]);
            while let Some(ev) = reader.next_event().unwrap() {
                decoded.push(ev);
            }
        }
        assert_eq!(decoded, events);
    }

    #[test]
    fn partial_frame_reports_pending_bytes() {
        let mut bytes = Vec::new();
        encode_event(&WorldEvent::Leave { client: 5 }, &mut bytes);
        let mut reader = FrameReader::new();
        reader.feed(&bytes[..bytes.len() - 1]);
        assert_eq!(reader.next_event(), Ok(None));
        assert!(reader.pending_bytes() > 0);
        reader.feed(&bytes[bytes.len() - 1..]);
        assert_eq!(
            reader.next_event(),
            Ok(Some(WorldEvent::Leave { client: 5 }))
        );
        assert_eq!(reader.pending_bytes(), 0);
    }

    #[test]
    fn malformed_frames_are_refused() {
        // Unknown opcode.
        let mut reader = FrameReader::new();
        reader.feed(&9u32.to_le_bytes());
        reader.feed(&[0xFF]);
        reader.feed(&0u64.to_le_bytes());
        assert_eq!(
            reader.next_event(),
            Err(WireError::BadOpcode { opcode: 0xFF })
        );

        // Length too short for the opcode's payload.
        let mut reader = FrameReader::new();
        reader.feed(&9u32.to_le_bytes());
        reader.feed(&[OP_MOVE]);
        reader.feed(&0u64.to_le_bytes());
        assert_eq!(
            reader.next_event(),
            Err(WireError::Truncated { got: 9, want: 17 })
        );

        // Zero-length frame.
        let mut reader = FrameReader::new();
        reader.feed(&0u32.to_le_bytes());
        assert_eq!(reader.next_event(), Err(WireError::BadLength));

        // Hostile length prefix is refused before buffering gigabytes.
        let mut reader = FrameReader::new();
        reader.feed(&u32::MAX.to_le_bytes());
        assert_eq!(
            reader.next_event(),
            Err(WireError::Oversized { length: u32::MAX })
        );
    }
}
