//! Length-prefixed, CRC-protected framing over any `Read`/`Write` stream.
//!
//! Every frame carries one fixed header (all integers little-endian):
//!
//! ```text
//! [magic "DPF3": 4][correlation id u64][trace id u64][len u32][crc32 u32][payload]
//! ```
//!
//! The correlation ID ties a response frame back to the request it
//! answers, so many requests can be in flight on one connection and
//! complete out of order. The trace ID lets server-side events join the
//! client operation's trace; 0 means untraced.
//!
//! [`write_frame`] is the one (vectored) writer; [`read_frame`] reads from
//! a blocking stream and [`decode_slice`] from a buffer of nonblocking
//! reads. Both readers reject any other magic — including the retired
//! `DPFS` and `DPF2` headers — with [`FrameError::BadMagic`].

use std::fmt;
use std::io::{Read, Write};

use bytes::Bytes;

/// `"DPF3"` — first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"DPF3";

/// Bytes of header in front of every payload.
pub const HEADER_LEN: usize = 28;

/// Upper bound on payload size (64 MiB). Protects a peer from allocating
/// unbounded memory on a corrupt or hostile length field.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Framing-layer errors.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying stream I/O failed.
    Io(std::io::Error),
    /// First four bytes were not the DPFS magic.
    BadMagic([u8; 4]),
    /// Declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// Payload CRC mismatch (corruption in flight).
    BadChecksum { expected: u32, actual: u32 },
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// Payload did not decode to a valid message.
    BadMessage(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: expected {expected:#x}, got {actual:#x}"
                )
            }
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::BadMessage(m) => write!(f, "bad message: {m}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Fold `data` into a running CRC-32 (IEEE) state. Start from
/// `u32::MAX`, finish with a bitwise NOT — or use [`crc32`] for the
/// one-shot case. The incremental form lets the vectored frame writers
/// checksum a payload spread over several slices without gluing them.
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    crc
}

/// CRC-32 (IEEE) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(u32::MAX, data)
}

/// CRC-32 (IEEE) over the concatenation of `parts`.
fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(u32::MAX, |crc, p| crc32_update(crc, p))
}

/// Write every byte of `bufs`, preferring one `write_vectored` syscall
/// per pass so header and payload slices leave in a single gathered
/// write. Falls back to resubmitting the remainder on a short write.
fn write_all_vectored<W: Write>(w: &mut W, bufs: &[&[u8]]) -> std::io::Result<()> {
    let mut idx = 0usize; // first buffer not fully written
    let mut off = 0usize; // bytes of bufs[idx] already written
    while idx < bufs.len() {
        if off >= bufs[idx].len() {
            idx += 1;
            off = 0;
            continue;
        }
        let slices: Vec<std::io::IoSlice> = std::iter::once(&bufs[idx][off..])
            .chain(bufs[idx + 1..].iter().copied())
            .filter(|s| !s.is_empty())
            .map(std::io::IoSlice::new)
            .collect();
        let mut n = w.write_vectored(&slices)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        while n > 0 && idx < bufs.len() {
            let rem = bufs[idx].len() - off;
            if n >= rem {
                n -= rem;
                idx += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    Ok(())
}

/// Total length of a multi-part payload, bounds-checked against
/// [`MAX_FRAME_LEN`].
fn parts_len(parts: &[&[u8]]) -> Result<usize, FrameError> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    Ok(len)
}

/// Write one frame carrying `corr_id`, `trace_id` (0 = untraced), and a
/// payload that is the concatenation of `parts` — the scatter-gather send
/// path. The CRC streams across the slices and header + parts leave
/// through one gathered `write_vectored`, so a message split into
/// (header, payload) parts hits the wire without ever being copied into
/// a contiguous buffer. A single-slice payload is just `&[payload]`.
pub fn write_frame<W: Write>(
    w: &mut W,
    corr_id: u64,
    trace_id: u64,
    parts: &[&[u8]],
) -> Result<(), FrameError> {
    let len = parts_len(parts)?;
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..12].copy_from_slice(&corr_id.to_le_bytes());
    header[12..20].copy_from_slice(&trace_id.to_le_bytes());
    header[20..24].copy_from_slice(&(len as u32).to_le_bytes());
    header[24..28].copy_from_slice(&crc32_parts(parts).to_le_bytes());
    let mut bufs: Vec<&[u8]> = Vec::with_capacity(parts.len() + 1);
    bufs.push(&header);
    bufs.extend_from_slice(parts);
    write_all_vectored(w, &bufs)?;
    w.flush()?;
    Ok(())
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlation ID: a response echoes its request's.
    pub corr_id: u64,
    /// Trace ID; 0 means untraced.
    pub trace_id: u64,
    /// The frame payload.
    pub payload: Bytes,
}

/// The fixed header fields after the magic.
struct Header {
    corr_id: u64,
    trace_id: u64,
    len: usize,
    crc: u32,
}

fn check_magic(magic: &[u8]) -> Result<(), FrameError> {
    let magic: [u8; 4] = magic.try_into().expect("callers pass the 4 magic bytes");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    Ok(())
}

/// Parse the header bytes that follow the magic, bounds-checking the
/// declared length before anything is allocated for it.
fn parse_header(rest: &[u8; HEADER_LEN - 4]) -> Result<Header, FrameError> {
    let u64_at = |i: usize| u64::from_le_bytes(rest[i..i + 8].try_into().expect("8-byte field"));
    let u32_at = |i: usize| u32::from_le_bytes(rest[i..i + 4].try_into().expect("4-byte field"));
    let len = u32_at(16) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    Ok(Header {
        corr_id: u64_at(0),
        trace_id: u64_at(8),
        len,
        crc: u32_at(20),
    })
}

fn check_crc(payload: &[u8], expected: u32) -> Result<(), FrameError> {
    let actual = crc32(payload);
    if actual != expected {
        return Err(FrameError::BadChecksum { expected, actual });
    }
    Ok(())
}

/// Read exactly `buf.len()` bytes, distinguishing clean EOF before the
/// first byte (`Closed`) from a torn read (`Io`). `at_frame_start` is true
/// when no bytes of the current frame have been consumed yet.
fn read_exactly<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    at_frame_start: bool,
) -> Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        let n = r.read(&mut buf[got..])?;
        if n == 0 {
            if got == 0 && at_frame_start {
                return Err(FrameError::Closed);
            }
            return Err(FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "torn frame header",
            )));
        }
        got += n;
    }
    Ok(())
}

/// Try to decode one frame from the front of `buf` without consuming
/// anything on failure. The readiness-driven server runtime accumulates
/// nonblocking reads into a per-connection buffer and calls this until it
/// returns `Ok(None)`.
///
/// - `Ok(Some((frame, consumed)))` — a complete frame; the caller should
///   drop the first `consumed` bytes.
/// - `Ok(None)` — the buffer holds only a prefix of a frame; read more.
/// - `Err(_)` — the prefix can never become a valid frame (bad magic,
///   oversized length, checksum mismatch); the connection is corrupt.
pub fn decode_slice(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    check_magic(&buf[..4])?;
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let h = parse_header(buf[4..HEADER_LEN].try_into().expect("length checked above"))?;
    let Some(payload) = buf.get(HEADER_LEN..HEADER_LEN + h.len) else {
        return Ok(None);
    };
    check_crc(payload, h.crc)?;
    let frame = Frame {
        corr_id: h.corr_id,
        trace_id: h.trace_id,
        payload: Bytes::copy_from_slice(payload),
    };
    Ok(Some((frame, HEADER_LEN + h.len)))
}

/// Read one frame from a blocking stream. `Err(Closed)` when the peer
/// shut the stream down cleanly before a new frame began.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // The magic alone first, so a foreign peer is rejected without
    // waiting for a full header it may never send.
    read_exactly(r, &mut header[..4], true)?;
    check_magic(&header[..4])?;
    read_exactly(r, &mut header[4..], false)?;
    let h = parse_header(header[4..].try_into().expect("fixed-size header"))?;
    let mut payload = vec![0u8; h.len];
    r.read_exact(&mut payload)?;
    check_crc(&payload, h.crc)?;
    Ok(Frame {
        corr_id: h.corr_id,
        trace_id: h.trace_id,
        payload: Bytes::from(payload),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn encode(corr_id: u64, trace_id: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, corr_id, trace_id, &[payload]).unwrap();
        buf
    }

    #[test]
    fn round_trip() {
        let buf = encode(0x1122, 0xABCD_EF01_2345, b"hello dpfs");
        assert_eq!(buf.len(), HEADER_LEN + 10);
        let frame = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(frame.corr_id, 0x1122);
        assert_eq!(frame.trace_id, 0xABCD_EF01_2345);
        assert_eq!(&frame.payload[..], b"hello dpfs");
    }

    #[test]
    fn empty_payload_round_trip() {
        let buf = encode(1, 0, b"");
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert!(got.payload.is_empty());
    }

    #[test]
    fn several_frames_in_sequence() {
        let mut buf = encode(1, 0, b"one");
        buf.extend(encode(u64::MAX, 7, b"two"));
        let mut c = Cursor::new(&buf);
        let f = read_frame(&mut c).unwrap();
        assert_eq!((f.corr_id, f.trace_id, &f.payload[..]), (1, 0, &b"one"[..]));
        let f = read_frame(&mut c).unwrap();
        assert_eq!(
            (f.corr_id, f.trace_id, &f.payload[..]),
            (u64::MAX, 7, &b"two"[..])
        );
        assert!(matches!(read_frame(&mut c), Err(FrameError::Closed)));
    }

    #[test]
    fn clean_eof_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut Cursor::new(empty)),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn torn_header_is_io_error() {
        let buf = encode(9, 10, b"payload");
        for cut in [2usize, 6, 14, 22] {
            assert!(
                matches!(
                    read_frame(&mut Cursor::new(&buf[..cut])),
                    Err(FrameError::Io(_))
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut buf = encode(3, 4, b"payload");
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = encode(1, 0, b"x");
        buf[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::BadMagic(_))
        ));
    }

    /// Frames in the retired `DPFS` (no IDs) and `DPF2` (correlation ID
    /// only) layouts are foreign bytes now: both readers refuse them at
    /// the magic rather than misparse the rest.
    #[test]
    fn retired_headers_are_bad_magic() {
        let payload = b"ping";
        let tail = |v: &mut Vec<u8>| {
            v.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            v.extend_from_slice(&crc32(payload).to_le_bytes());
            v.extend_from_slice(payload);
        };
        let mut v1 = b"DPFS".to_vec();
        tail(&mut v1);
        let mut v2 = b"DPF2".to_vec();
        v2.extend_from_slice(&7u64.to_le_bytes());
        tail(&mut v2);
        for (old, magic) in [(v1, *b"DPFS"), (v2, *b"DPF2")] {
            assert!(matches!(
                read_frame(&mut Cursor::new(&old)),
                Err(FrameError::BadMagic(m)) if m == magic
            ));
            assert!(matches!(
                decode_slice(&old),
                Err(FrameError::BadMagic(m)) if m == magic
            ));
        }
    }

    #[test]
    fn decode_slice_round_trips_a_stream() {
        let mut buf = encode(2, 0, b"two");
        buf.extend(encode(3, 33, b"three"));
        let (f, n) = decode_slice(&buf).unwrap().unwrap();
        assert_eq!((f.corr_id, f.trace_id, &f.payload[..]), (2, 0, &b"two"[..]));
        let (f, n2) = decode_slice(&buf[n..]).unwrap().unwrap();
        assert_eq!(
            (f.corr_id, f.trace_id, &f.payload[..]),
            (3, 33, &b"three"[..])
        );
        assert_eq!(n + n2, buf.len());
        assert!(decode_slice(&[]).unwrap().is_none());
    }

    #[test]
    fn decode_slice_needs_more_on_every_prefix() {
        let buf = encode(7, 8, b"partial");
        for cut in 0..buf.len() {
            assert!(
                decode_slice(&buf[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must ask for more"
            );
        }
        assert!(decode_slice(&buf).unwrap().is_some());
    }

    #[test]
    fn decode_slice_rejects_corruption() {
        assert!(matches!(
            decode_slice(b"XXXX____"),
            Err(FrameError::BadMagic(_))
        ));
        let mut oversized = MAGIC.to_vec();
        oversized.extend_from_slice(&[0u8; 16]);
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        oversized.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_slice(&oversized),
            Err(FrameError::Oversized(_))
        ));
        let mut buf = encode(1, 0, b"payload");
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        assert!(matches!(
            decode_slice(&buf),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[0u8; 16]);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn split_parts_match_one_contiguous_part() {
        let payload = b"header|body-bytes|tail".to_vec();
        let parts: Vec<&[u8]> = vec![b"header|", b"", b"body-bytes|", b"tail"];
        let whole = encode(42, 77, &payload);
        let mut split = Vec::new();
        write_frame(&mut split, 42, 77, &parts).unwrap();
        assert_eq!(whole, split);
        let frame = read_frame(&mut Cursor::new(&split)).unwrap();
        assert_eq!((frame.corr_id, frame.trace_id), (42, 77));
        assert_eq!(&frame.payload[..], &payload[..]);
    }

    #[test]
    fn parts_writer_enforces_total_length_cap() {
        let big = vec![0u8; MAX_FRAME_LEN / 2 + 1];
        let parts: Vec<&[u8]> = vec![&big, &big];
        let mut out = Vec::new();
        assert!(matches!(
            write_frame(&mut out, 1, 0, &parts),
            Err(FrameError::Oversized(_))
        ));
    }

    /// A writer that accepts at most `cap` bytes per call, exercising the
    /// partial-progress resubmission in `write_all_vectored`.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            let mut budget = self.cap;
            let mut wrote = 0usize;
            for b in bufs {
                if budget == 0 {
                    break;
                }
                let n = b.len().min(budget);
                self.out.extend_from_slice(&b[..n]);
                budget -= n;
                wrote += n;
            }
            Ok(wrote)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parts_writer_survives_short_writes() {
        let parts: Vec<&[u8]> = vec![b"alpha", b"beta-beta", b"g"];
        for cap in 1..8 {
            let mut d = Dribble {
                out: Vec::new(),
                cap,
            };
            write_frame(&mut d, 9, 0, &parts).unwrap();
            let frame = read_frame(&mut Cursor::new(&d.out)).unwrap();
            assert_eq!(&frame.payload[..], b"alphabeta-betag", "cap {cap}");
        }
    }
}
