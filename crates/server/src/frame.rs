//! Length-prefixed framing over any byte stream.
//!
//! A frame is a `u32` little-endian body length followed by that many
//! body bytes. The reader distinguishes four situations the connection
//! loop treats differently:
//!
//! * a complete frame — hand the body to the protocol decoder;
//! * a clean close (EOF *between* frames) — tear the connection down
//!   quietly;
//! * an idle read timeout *between* frames — poll the shutdown flag and
//!   keep waiting;
//! * anything else (EOF or a persistent stall *inside* a frame, a
//!   declared length above the ceiling) — a typed [`FrameError`], never a
//!   panic.
//!
//! The reader never allocates more than the declared ceiling, so a hostile
//! 4 GiB length prefix costs one `u32` comparison, not an allocation.
//!
//! The writer hands the prefix and the body to one vectored write, so on
//! a `TCP_NODELAY` socket a frame leaves as one segment: two writes would
//! be two segments and a wake-up of the peer on the bare 4-byte prefix.
//! Readers should sit behind a buffer (`BufReader`), so one `read` brings
//! in the prefix and the body together.

use std::io::{self, IoSlice, Read, Write};

/// Default ceiling on a frame body (1 MiB); servers and clients can pick
/// their own.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// How many consecutive mid-frame read timeouts count as a stalled peer.
/// At the connection loop's default 25 ms read timeout this is a ~5 s
/// stall budget for a started-but-unfinished frame.
const MID_FRAME_STALL_BUDGET: u32 = 200;

/// One successful poll of the frame reader.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// Read timed out at a frame boundary with no bytes consumed — the
    /// caller should check its stop flag and poll again.
    Idle,
    /// The peer closed the stream at a frame boundary.
    Closed,
}

/// Why framing failed.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended (or stalled past the budget) inside a frame.
    Truncated,
    /// The declared body length exceeds the reader's ceiling. The server
    /// answers this with a typed `FrameTooLarge` error before closing.
    Oversized(u32),
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized(len) => write!(f, "declared frame length {len} over ceiling"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads exactly `buf.len()` bytes, tolerating up to the stall budget of
/// read timeouts once at least one byte of the frame has been consumed.
fn read_full(r: &mut impl Read, buf: &mut [u8], mut stalls: u32) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MID_FRAME_STALL_BUDGET {
                    return Err(FrameError::Truncated);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Polls the stream for one frame (see the module docs for the outcome
/// taxonomy).
///
/// # Errors
///
/// [`FrameError::Truncated`] when the stream ends or stalls mid-frame,
/// [`FrameError::Oversized`] when the declared length exceeds `max_len`,
/// [`FrameError::Io`] for any other I/O failure.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<FrameEvent, FrameError> {
    // The length prefix is read byte-wise so that a timeout or EOF before
    // the first byte is distinguishable (Idle / Closed) from one after it
    // (a torn frame).
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameEvent::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) && filled == 0 => return Ok(FrameEvent::Idle),
            Err(e) if is_timeout(&e) => return read_rest(r, prefix, filled, max_len),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    read_body(r, u32::from_le_bytes(prefix), max_len, 0)
}

/// Continues a prefix read that timed out partway (already committed to a
/// frame, so timeouts now draw from the stall budget).
fn read_rest(
    r: &mut impl Read,
    mut prefix: [u8; 4],
    filled: usize,
    max_len: u32,
) -> Result<FrameEvent, FrameError> {
    read_full(r, &mut prefix[filled..], 1)?;
    read_body(r, u32::from_le_bytes(prefix), max_len, 1)
}

fn read_body(
    r: &mut impl Read,
    len: u32,
    max_len: u32,
    stalls: u32,
) -> Result<FrameEvent, FrameError> {
    if len > max_len {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    read_full(r, &mut body, stalls)?;
    Ok(FrameEvent::Frame(body))
}

/// Writes one frame (length prefix + body) and flushes.
///
/// Prefix and body go out through one `write_vectored` call when the
/// writer accepts them whole; a partial write continues from where it
/// stopped, so the bytes on the wire are the prefix followed by the body
/// whatever the writer's chunking.
///
/// # Errors
///
/// Propagates the underlying write/flush error; [`io::ErrorKind::WriteZero`]
/// when the writer accepts no bytes.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| io::Error::other("frame body over 4 GiB"))?;
    let prefix = len.to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "frame write stalled")),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, body).unwrap();
        out
    }

    #[test]
    fn frame_round_trips() {
        let bytes = framed(b"hello");
        let mut r = Cursor::new(bytes);
        match read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap() {
            FrameEvent::Frame(body) => assert_eq!(body, b"hello"),
            other => panic!("expected frame, got {other:?}"),
        }
        // Clean EOF afterwards.
        assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap(), FrameEvent::Closed));
    }

    #[test]
    fn empty_stream_is_a_clean_close() {
        let mut r = Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut r, 16).unwrap(), FrameEvent::Closed));
    }

    #[test]
    fn truncated_prefix_is_truncated() {
        let mut r = Cursor::new(vec![5u8, 0]);
        assert!(matches!(read_frame(&mut r, 16), Err(FrameError::Truncated)));
    }

    #[test]
    fn truncated_body_is_truncated() {
        let mut bytes = framed(b"hello");
        bytes.truncate(bytes.len() - 2);
        let mut r = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut r, 16), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut r = Cursor::new(u32::MAX.to_le_bytes().to_vec());
        match read_frame(&mut r, 1 << 10) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, u32::MAX),
            other => panic!("expected oversized, got {other:?}"),
        }
    }

    /// A reader that times out forever after yielding its script.
    struct Stalling {
        script: Vec<u8>,
        pos: usize,
    }

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.script.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
            }
            let n = buf.len().min(self.script.len() - self.pos);
            buf[..n].copy_from_slice(&self.script[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn timeout_at_boundary_is_idle_but_mid_frame_exhausts_the_budget() {
        let mut idle = Stalling { script: Vec::new(), pos: 0 };
        assert!(matches!(read_frame(&mut idle, 16).unwrap(), FrameEvent::Idle));

        let mut torn = Stalling { script: vec![4, 0, 0, 0, 1], pos: 0 };
        assert!(matches!(read_frame(&mut torn, 16), Err(FrameError::Truncated)));
    }

    /// Records every byte it is given. Call `i` takes at most
    /// `chunks[i % chunks.len()]` bytes (across slice boundaries), and
    /// every `interrupt_every`th call fails with `Interrupted` (0 = never).
    struct Scripted {
        out: Vec<u8>,
        calls: usize,
        chunks: &'static [usize],
        interrupt_every: usize,
    }

    impl Scripted {
        fn new(chunks: &'static [usize], interrupt_every: usize) -> Self {
            Scripted { out: Vec::new(), calls: 0, chunks, interrupt_every }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt_every != 0 && self.calls.is_multiple_of(self.interrupt_every) {
                return Err(io::Error::from(io::ErrorKind::Interrupted));
            }
            let chunk = self.chunks[self.calls % self.chunks.len()];
            let before = self.out.len();
            for b in bufs {
                let room = chunk - (self.out.len() - before);
                self.out.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The layout the frame must keep on the wire: prefix, then body.
    fn prefix_then_body(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn a_frame_is_one_write_call_when_the_writer_takes_it_all() {
        for body in [&b""[..], b"x", &[7u8; 283], &[9u8; 70_000]] {
            let mut w = Scripted::new(&[usize::MAX], 0);
            write_frame(&mut w, body).unwrap();
            assert_eq!(w.calls, 1, "body of {} bytes", body.len());
            assert_eq!(w.out, prefix_then_body(body));
        }
    }

    #[test]
    fn trickling_and_interrupted_writes_keep_the_exact_bytes() {
        let body: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let chunkings: [&'static [usize]; 4] = [&[1], &[2], &[3], &[1, 3, 2, 2, 3]];
        for chunks in chunkings {
            for interrupt_every in [0, 2, 3, 7] {
                let mut w = Scripted::new(chunks, interrupt_every);
                write_frame(&mut w, &body).unwrap();
                assert_eq!(w.out, prefix_then_body(&body), "{chunks:?}, every {interrupt_every}");
            }
        }
        let mut w = Scripted::new(&[1, 2, 3], 2);
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.out, prefix_then_body(b""));
    }

    #[test]
    fn a_writer_that_takes_nothing_is_write_zero() {
        let mut w = Scripted::new(&[0], 0);
        let err = write_frame(&mut w, b"hello").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(w.calls, 1);
    }
}
