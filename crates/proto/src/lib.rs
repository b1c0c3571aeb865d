//! `dpfs-proto` — the DPFS wire protocol.
//!
//! DPFS adopts a client–server architecture over TCP/IP (paper §2): compute
//! nodes send I/O requests to servers resident on storage nodes; each request
//! names a *subfile* (the local file holding that server's bricks) and a
//! scatter/gather list of byte ranges within it.
//!
//! A single request may carry many ranges — this is what makes the paper's
//! *request combination* (§4.2) expressible: the client coalesces all bricks
//! bound for one server into one framed message instead of one message per
//! brick.
//!
//! Every message travels in one frame shape (all integers little-endian):
//!
//! ```text
//! [magic "DPF3": 4][correlation id: u64][trace id: u64]
//! [payload len: u32][crc32(payload): u32][payload]
//! ```
//!
//! The client stamps each request with a *correlation ID*, the server
//! echoes it on the response, and the client's demultiplexing reader
//! matches responses back to waiters — many requests can be in flight on
//! one connection and complete out of order (the multiplexed transport in
//! `dpfs-core::transport`). The *trace ID* lets server-side events
//! (decode, queue wait, device time, injected delay, response write) join
//! the client operation's trace; 0 means untraced, and the server echoes
//! it too.
//!
//! The CRC detects torn or corrupted frames; a bad frame is a protocol error
//! surfaced to the peer, never a panic.

pub mod frame;
pub mod message;
pub mod meta;
pub mod pattern;

pub use frame::{read_frame, write_frame, Frame, FrameError, MAX_FRAME_LEN};
pub use message::{ErrorCode, Request, Response};
pub use meta::{MetaOp, MetaResult};
pub use pattern::{AccessPattern, PatternSeg, MAX_PATTERN_RANGES};
