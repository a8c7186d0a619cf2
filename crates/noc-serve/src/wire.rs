//! The `rlnoc-wire v1` frame protocol.
//!
//! Every message on a service connection is one length-prefixed,
//! CRC-trailered frame in the text-format family of `rlnoc-case` /
//! `rlnoc-policy`:
//!
//! ```text
//! rlnw1 <type> <len> <crc32:08x>\n
//! <len bytes of payload>
//! ```
//!
//! The header is a single ASCII line of four space-separated tokens:
//! the magic `rlnw1`, a frame-type token, the payload length in
//! decimal, and the CRC-32 of the payload in fixed-width lowercase hex
//! (computed with the in-tree `noc-coding` implementation — the same
//! polynomial every persisted format in the workspace uses). The
//! payload follows immediately, byte-exact.
//!
//! Decoding is defensive by construction: the header line is capped, a
//! length above [`MAX_PAYLOAD`] is rejected before any allocation, the
//! payload buffer grows only as bytes arrive, and a frame whose payload
//! fails the CRC — a truncation or a bit flip anywhere in the stream —
//! is a hard [`WireError::Malformed`], never a partial frame. The
//! corruption test suite drives every byte offset of every frame type
//! through the decoder.

use noc_coding::crc::Crc32;
use noc_coding::textfmt;
use std::io::{self, Read, Write};

/// Magic token opening every frame header.
pub const WIRE_MAGIC: &str = "rlnw1";

/// Upper bound on payload size (campaign results are well under this).
pub const MAX_PAYLOAD: usize = 8 * 1024 * 1024;

/// Upper bound on the header line (magic + type + len + crc + spaces).
const MAX_HEADER: usize = 64;

/// Every message kind in `rlnoc-wire v1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Client → server: a campaign submission.
    Submit,
    /// Server → client: submission accepted (or deduplicated).
    SubmitOk,
    /// Client → server: query one campaign's state.
    Status,
    /// Server → client: the state answer.
    StatusOk,
    /// Client → server: subscribe to a campaign's telemetry stream.
    Watch,
    /// Server → client: one streamed JSONL telemetry/progress line.
    Event,
    /// Server → client: the stream ended (campaign reached a final
    /// state or was cancelled).
    WatchDone,
    /// Client → server: fetch a completed campaign's full report text.
    Result,
    /// Server → client: the report text.
    ResultOk,
    /// Client → server: cancel a queued/running campaign.
    Cancel,
    /// Server → client: cancellation outcome.
    CancelOk,
    /// Server → client: request-level failure, payload `message=...`.
    Error,
}

impl FrameType {
    /// The header token for this type.
    pub fn token(self) -> &'static str {
        match self {
            Self::Submit => "submit",
            Self::SubmitOk => "submit-ok",
            Self::Status => "status",
            Self::StatusOk => "status-ok",
            Self::Watch => "watch",
            Self::Event => "event",
            Self::WatchDone => "watch-done",
            Self::Result => "result",
            Self::ResultOk => "result-ok",
            Self::Cancel => "cancel",
            Self::CancelOk => "cancel-ok",
            Self::Error => "error",
        }
    }

    /// Parses a header token.
    pub fn from_token(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.token() == token)
    }

    /// All frame types (for exhaustive corruption sweeps).
    pub const ALL: [FrameType; 12] = [
        Self::Submit,
        Self::SubmitOk,
        Self::Status,
        Self::StatusOk,
        Self::Watch,
        Self::Event,
        Self::WatchDone,
        Self::Result,
        Self::ResultOk,
        Self::Cancel,
        Self::CancelOk,
        Self::Error,
    ];
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// Transport failure (or mid-frame EOF surfaced by the OS).
    Io(io::Error),
    /// Structurally invalid bytes: bad magic, unknown type, oversized
    /// or unparsable length, or a payload failing its CRC.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::Io(e) => write!(f, "wire I/O error: {e}"),
            Self::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        // A mid-frame EOF is corruption (truncated frame), not a clean
        // close; `read_frame` maps the between-frames case to `Closed`
        // before any of these conversions run.
        match e.kind() {
            io::ErrorKind::UnexpectedEof => Self::Malformed("truncated frame".into()),
            _ => Self::Io(e),
        }
    }
}

/// One protocol message: a type plus an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind.
    pub kind: FrameType,
    /// Payload bytes (conventionally UTF-8 `key=value` lines or one
    /// JSONL line, but the framing layer does not care).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with a raw byte payload.
    pub fn new(kind: FrameType, payload: Vec<u8>) -> Self {
        Self { kind, payload }
    }

    /// A frame with a text payload.
    pub fn text(kind: FrameType, payload: &str) -> Self {
        Self::new(kind, payload.as_bytes().to_vec())
    }

    /// The payload as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the payload is not valid UTF-8.
    pub fn payload_text(&self) -> Result<&str, WireError> {
        std::str::from_utf8(&self.payload)
            .map_err(|_| WireError::Malformed("payload is not UTF-8".into()))
    }

    /// Serializes the frame (header line + payload).
    pub fn encode(&self) -> Vec<u8> {
        let crc = Crc32::new().checksum(&self.payload);
        let header = format!(
            "{WIRE_MAGIC} {} {} {crc:08x}\n",
            self.kind.token(),
            self.payload.len()
        );
        let mut out = Vec::with_capacity(header.len() + self.payload.len());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// Writes one frame to `w` and flushes.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Reads exactly one frame from `r`.
///
/// The header is read a byte at a time, so on a socket `r` should be a
/// buffered reader that lives as long as the connection: one `read(2)`
/// then serves many frames. Never panics on any input. Returns
/// [`WireError::Closed`] when the stream ends cleanly *before* the
/// first header byte; any later
/// truncation, any CRC failure, and any structural violation is
/// [`WireError::Malformed`].
///
/// # Errors
///
/// [`WireError`] as described above.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    // Header: read byte-wise up to the newline (bounded).
    let mut header = Vec::with_capacity(MAX_HEADER);
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if header.is_empty() => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Malformed("EOF inside header".into())),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
        if byte[0] == b'\n' {
            break;
        }
        header.push(byte[0]);
        if header.len() > MAX_HEADER {
            return Err(WireError::Malformed("header line too long".into()));
        }
    }
    let header = std::str::from_utf8(&header)
        .map_err(|_| WireError::Malformed("header is not UTF-8".into()))?;
    let mut tokens = header.split(' ');
    match tokens.next() {
        Some(WIRE_MAGIC) => {}
        other => return Err(WireError::Malformed(format!("bad magic {other:?}"))),
    }
    let kind = tokens
        .next()
        .and_then(FrameType::from_token)
        .ok_or_else(|| WireError::Malformed("unknown frame type".into()))?;
    let len = tokens
        .next()
        .and_then(textfmt::dec)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| WireError::Malformed("bad payload length".into()))?;
    if len > MAX_PAYLOAD {
        return Err(WireError::Malformed(format!(
            "payload length {len} exceeds cap {MAX_PAYLOAD}"
        )));
    }
    let stated_crc = tokens
        .next()
        .and_then(textfmt::hex8)
        .ok_or_else(|| WireError::Malformed("bad payload checksum".into()))?;
    if tokens.next().is_some() {
        return Err(WireError::Malformed("trailing header tokens".into()));
    }

    // The buffer grows with the bytes that arrive, not with the length
    // a header claims.
    let mut payload = Vec::with_capacity(len.min(8 << 10));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(WireError::Malformed("truncated frame".into()));
    }
    let actual = Crc32::new().checksum(&payload);
    if actual != stated_crc {
        return Err(WireError::Malformed(format!(
            "payload checksum mismatch: header says {stated_crc:08x}, payload is {actual:08x}"
        )));
    }
    Ok(Frame { kind, payload })
}

/// Parses a `key=value` payload convention: returns the value of the
/// first line `key=...`, if present.
pub fn payload_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        for kind in FrameType::ALL {
            let frame = Frame::text(kind, "tenant=alice\ncampaign=c-0123\n");
            let bytes = frame.encode();
            let back = read_frame(&mut Cursor::new(&bytes)).expect("round trip");
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = Frame::new(FrameType::WatchDone, Vec::new());
        let bytes = frame.encode();
        assert_eq!(read_frame(&mut Cursor::new(&bytes)).expect("ok"), frame);
    }

    #[test]
    fn consecutive_frames_stream() {
        let a = Frame::text(FrameType::Submit, "tenant=a\n");
        let b = Frame::text(FrameType::Event, "{\"type\":\"epoch\"}");
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut cursor = Cursor::new(&bytes);
        assert_eq!(read_frame(&mut cursor).expect("first"), a);
        assert_eq!(read_frame(&mut cursor).expect("second"), b);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Closed)));
    }

    #[test]
    fn clean_eof_is_closed_anything_else_malformed() {
        assert!(matches!(
            read_frame(&mut Cursor::new(b"")),
            Err(WireError::Closed)
        ));
        assert!(matches!(
            read_frame(&mut Cursor::new(b"rlnw1 submit")),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let header = format!("{WIRE_MAGIC} submit {} 00000000\n", MAX_PAYLOAD + 1);
        assert!(matches!(
            read_frame(&mut Cursor::new(header.as_bytes())),
            Err(WireError::Malformed(_))
        ));
        // usize overflow attempts are plain parse failures.
        let header = format!("{WIRE_MAGIC} submit 99999999999999999999999 00000000\n");
        assert!(matches!(
            read_frame(&mut Cursor::new(header.as_bytes())),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn unbounded_header_is_rejected() {
        let junk = vec![b'x'; 4096];
        assert!(matches!(
            read_frame(&mut Cursor::new(&junk)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn payload_field_finds_first_match() {
        let text = "tenant=alice\ncampaign=c-01\ntenant=bob\n";
        assert_eq!(payload_field(text, "tenant"), Some("alice"));
        assert_eq!(payload_field(text, "campaign"), Some("c-01"));
        assert_eq!(payload_field(text, "missing"), None);
    }
}
