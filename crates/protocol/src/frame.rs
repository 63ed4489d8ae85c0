//! Low-level message framing.
//!
//! Every protocol message travels in a *frame*:
//!
//! ```text
//! +-------+---------+------+---------+-------+-------------+---------+-------+
//! | magic | version | kind | session |  seq  | payload_len | payload | crc32 |
//! |  u16  |   u8    |  u8  |   u32   |  u32  |     u32     |  bytes  |  u32  |
//! +-------+---------+------+---------+-------+-------------+---------+-------+
//! ```
//!
//! All integers are little-endian (the legacy system was little-endian).
//! The CRC covers the header and payload. [`FrameDecoder`] incrementally
//! extracts frames from a byte stream, tolerating arbitrary fragmentation —
//! this is the "Coalescer" role from the paper's Figure 2.
//!
//! The legacy client waits for each chunk's ack before sending the next,
//! so every per-frame cost lands on a job's wall once per chunk. Payload
//! bytes are therefore copied at most twice per side in user space:
//! encode into the payload, then into the socket's write buffer
//! ([`Frame::encode`]); on receipt, into the decoder's buffer
//! ([`FrameDecoder::feed`]), then out into the frame's own payload.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

use crate::crc::crc32;

/// Frame magic number.
pub const MAGIC: u16 = 0xDB05;
/// Protocol version this crate implements.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes (magic..payload_len inclusive).
pub const HEADER_LEN: usize = 2 + 1 + 1 + 4 + 4 + 4;
/// Trailer (CRC) size in bytes.
pub const TRAILER_LEN: usize = 4;
/// Maximum accepted payload size (guards against corrupt length fields).
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Typed message kind carried in the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgKind {
    /// Client logon request.
    Logon = 1,
    /// Server logon acknowledgment.
    LogonOk = 2,
    /// SQL request (control sessions).
    Sql = 3,
    /// SQL response with an optional result set.
    SqlResult = 4,
    /// Begin a load job (control session).
    BeginLoad = 5,
    /// Load-job acknowledgment carrying the load token.
    BeginLoadOk = 6,
    /// A chunk of encoded records (data sessions).
    DataChunk = 7,
    /// Per-chunk acknowledgment.
    Ack = 8,
    /// End of the acquisition phase; carries the DML to apply.
    EndLoad = 9,
    /// Final load report (row and error counts, phase timings).
    LoadReport = 10,
    /// Begin an export job (control session).
    BeginExport = 11,
    /// Export-job acknowledgment carrying the export token.
    BeginExportOk = 12,
    /// Request for an export chunk by index (data sessions).
    ExportChunkReq = 13,
    /// An export chunk of encoded records.
    ExportChunk = 14,
    /// Session error report.
    Error = 15,
    /// Client logoff.
    Logoff = 16,
    /// Server logoff acknowledgment.
    LogoffOk = 17,
    /// Liveness probe.
    Keepalive = 18,
    /// Request a server statistics snapshot (control sessions).
    StatsReq = 19,
    /// Statistics snapshot response.
    StatsReply = 20,
    /// Request a job's causal trace (control sessions).
    TraceReq = 21,
    /// Trace response (span tree + attribution as JSON).
    TraceReply = 22,
    /// Request the node's SLO/overload health report (control sessions).
    HealthReq = 23,
    /// Health report response.
    HealthReply = 24,
    /// Request the node's continuous-profiling report (control sessions).
    ProfileReq = 25,
    /// Profile report response (stage CPU/wall, lock sites, flamegraph).
    ProfileReply = 26,
}

impl MsgKind {
    /// Parse a kind byte.
    pub fn from_u8(v: u8) -> Option<MsgKind> {
        Some(match v {
            1 => MsgKind::Logon,
            2 => MsgKind::LogonOk,
            3 => MsgKind::Sql,
            4 => MsgKind::SqlResult,
            5 => MsgKind::BeginLoad,
            6 => MsgKind::BeginLoadOk,
            7 => MsgKind::DataChunk,
            8 => MsgKind::Ack,
            9 => MsgKind::EndLoad,
            10 => MsgKind::LoadReport,
            11 => MsgKind::BeginExport,
            12 => MsgKind::BeginExportOk,
            13 => MsgKind::ExportChunkReq,
            14 => MsgKind::ExportChunk,
            15 => MsgKind::Error,
            16 => MsgKind::Logoff,
            17 => MsgKind::LogoffOk,
            18 => MsgKind::Keepalive,
            19 => MsgKind::StatsReq,
            20 => MsgKind::StatsReply,
            21 => MsgKind::TraceReq,
            22 => MsgKind::TraceReply,
            23 => MsgKind::HealthReq,
            24 => MsgKind::HealthReply,
            25 => MsgKind::ProfileReq,
            26 => MsgKind::ProfileReply,
            _ => return None,
        })
    }
}

/// Errors raised by frame and payload codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Frame magic did not match — the peer is not speaking this protocol.
    BadMagic(u16),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message-kind byte.
    BadKind(u8),
    /// CRC mismatch — the frame was corrupted in transit.
    BadCrc { expected: u32, actual: u32 },
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    OversizedPayload(usize),
    /// Ran out of bytes while decoding a payload.
    Truncated,
    /// Structurally invalid payload.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown message kind {k}"),
            FrameError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "frame CRC mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            FrameError::OversizedPayload(n) => write!(f, "payload of {n} bytes exceeds limit"),
            FrameError::Truncated => write!(f, "payload truncated"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded frame: header fields plus raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind.
    pub kind: MsgKind,
    /// Session identifier (0 before logon completes).
    pub session: u32,
    /// Per-session sequence number.
    pub seq: u32,
    /// Raw payload bytes.
    pub payload: Bytes,
}

impl Frame {
    /// Build a frame.
    pub fn new(kind: MsgKind, session: u32, seq: u32, payload: impl Into<Bytes>) -> Frame {
        Frame {
            kind,
            session,
            seq,
            payload: payload.into(),
        }
    }

    /// Total encoded size of this frame.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + TRAILER_LEN
    }

    /// Encode into `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        let start = out.len();
        out.reserve(self.encoded_len());
        out.put_u16_le(MAGIC);
        out.put_u8(VERSION);
        out.put_u8(self.kind as u8);
        out.put_u32_le(self.session);
        out.put_u32_le(self.seq);
        out.put_u32_le(self.payload.len() as u32);
        out.put_slice(&self.payload);
        let crc = crc32(&out[start..]);
        out.put_u32_le(crc);
    }

    /// Encode into a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.into()
    }
}

/// Incremental frame decoder ("Coalescer"): feed raw bytes as they arrive
/// off a socket, pop complete validated frames.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes. Popping a frame only advances it;
    /// [`feed`](FrameDecoder::feed) drops the consumed prefix first, so
    /// decoded frames never accumulate in the buffer.
    pos: usize,
}

impl FrameDecoder {
    /// New empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw bytes received from the transport.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Try to decode the next complete frame. Returns `Ok(None)` when more
    /// bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let buf = &self.buf[self.pos..];
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let mut header = &buf[..HEADER_LEN];
        let magic = header.get_u16_le();
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = header.get_u8();
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind_byte = header.get_u8();
        let kind = MsgKind::from_u8(kind_byte).ok_or(FrameError::BadKind(kind_byte))?;
        let session = header.get_u32_le();
        let seq = header.get_u32_le();
        let payload_len = header.get_u32_le() as usize;
        if payload_len > MAX_PAYLOAD {
            return Err(FrameError::OversizedPayload(payload_len));
        }
        let total = HEADER_LEN + payload_len + TRAILER_LEN;
        if buf.len() < total {
            return Ok(None);
        }
        let expected = crc32(&buf[..HEADER_LEN + payload_len]);
        let actual = (&buf[HEADER_LEN + payload_len..total]).get_u32_le();
        if expected != actual {
            return Err(FrameError::BadCrc { expected, actual });
        }
        let payload = Bytes::copy_from_slice(&buf[HEADER_LEN..HEADER_LEN + payload_len]);
        self.pos += total;
        Ok(Some(Frame {
            kind,
            session,
            seq,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Frame {
        Frame::new(MsgKind::DataChunk, 7, 42, vec![1u8, 2, 3, 4, 5])
    }

    #[test]
    fn roundtrip_single_frame() {
        let frame = sample_frame();
        let bytes = frame.to_bytes();
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let out = dec.next_frame().unwrap().unwrap();
        assert_eq!(out, frame);
        assert_eq!(dec.buffered(), 0);
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn decodes_across_fragmentation() {
        let frames: Vec<Frame> = (0..5)
            .map(|i| Frame::new(MsgKind::Ack, 1, i, vec![i as u8; (i as usize) * 3]))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.to_bytes());
        }
        // Feed one byte at a time — worst-case fragmentation.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in stream {
            dec.feed(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
    }

    #[test]
    fn empty_payload_ok() {
        let frame = Frame::new(MsgKind::Keepalive, 0, 0, Vec::new());
        let mut dec = FrameDecoder::new();
        dec.feed(&frame.to_bytes());
        assert_eq!(dec.next_frame().unwrap().unwrap(), frame);
    }

    #[test]
    fn detects_corruption_of_any_payload_or_crc_byte() {
        let frame = Frame::new(MsgKind::DataChunk, 3, 9, (0..=255u8).collect::<Vec<u8>>());
        let clean = frame.to_bytes();
        for i in HEADER_LEN..clean.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bytes = clean.clone();
                bytes[i] ^= mask;
                let mut dec = FrameDecoder::new();
                dec.feed(&bytes);
                assert!(
                    matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })),
                    "byte {i} ^ {mask:#04x} went undetected"
                );
            }
        }
    }

    #[test]
    fn thousand_frames_in_random_pieces_decode_with_bounded_buffer() {
        let mut rng = crate::rng::SeededRng::new(14);
        let frames: Vec<Frame> = (0..1000u32)
            .map(|i| {
                let len = rng.gen_range(0, 2048) as usize;
                let payload: Vec<u8> = (0..len).map(|j| (i as usize + j) as u8).collect();
                Frame::new(MsgKind::DataChunk, i % 7, i, payload)
            })
            .collect();
        let largest = frames.iter().map(Frame::encoded_len).max().unwrap();
        let stream: Vec<u8> = frames.iter().flat_map(Frame::to_bytes).collect();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut rest = &stream[..];
        let mut max_piece = 0;
        while !rest.is_empty() {
            let piece = (rng.gen_range(1, 6000) as usize).min(rest.len());
            max_piece = max_piece.max(piece);
            dec.feed(&rest[..piece]);
            rest = &rest[piece..];
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
            // What is kept is at most one partial frame plus the last
            // piece, however many frames have gone through.
            assert!(dec.buf.len() <= largest + max_piece, "consumed frames kept");
        }
        assert_eq!(out, frames);
        assert_eq!(dec.buffered(), 0);
        assert!(
            dec.buf.capacity() <= 2 * (largest + max_piece),
            "retained {} bytes after {} frames",
            dec.buf.capacity(),
            frames.len()
        );
    }

    #[test]
    fn detects_bad_magic() {
        let mut bytes = sample_frame().to_bytes();
        bytes[0] = 0x00;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn detects_bad_kind() {
        let frame = sample_frame();
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(0xEE); // invalid kind
        buf.put_u32_le(frame.session);
        buf.put_u32_le(frame.seq);
        buf.put_u32_le(0);
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadKind(0xEE))));
    }

    #[test]
    fn rejects_oversized_payload_claim() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(MsgKind::Sql as u8);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le((MAX_PAYLOAD + 1) as u32);
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::OversizedPayload(_))
        ));
    }

    #[test]
    fn partial_header_waits() {
        let bytes = sample_frame().to_bytes();
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes[..HEADER_LEN - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn kind_byte_roundtrip() {
        for k in 1..=26u8 {
            let kind = MsgKind::from_u8(k).unwrap();
            assert_eq!(kind as u8, k);
        }
        assert_eq!(MsgKind::from_u8(0), None);
        assert_eq!(MsgKind::from_u8(27), None);
    }
}
