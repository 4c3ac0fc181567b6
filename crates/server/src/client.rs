//! Minimal blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection; [`Client::call`] sends a
//! pipelined request batch as a single frame and blocks for the matching
//! response frame. The convenience verbs are one-request batches. Used by
//! the harness load generator, the integration tests, and the example.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::frame::{read_frame, write_frame, FrameError, FrameEvent, DEFAULT_MAX_FRAME_LEN};
use crate::protocol::{
    decode_response_batch, encode_request_batch, Personality, Request, Response, WireError,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(io::Error),
    /// The response frame was torn or oversized.
    Frame(FrameError),
    /// The response frame decoded to garbage.
    Wire(WireError),
    /// The server closed the connection instead of answering — the normal
    /// epilogue after a malformed request or a shutdown.
    ServerClosed,
    /// The response batch length did not match the request batch.
    BatchMismatch {
        /// Requests sent in the frame.
        sent: usize,
        /// Responses received back.
        got: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o: {e}"),
            ClientError::Frame(e) => write!(f, "client framing: {e}"),
            ClientError::Wire(e) => write!(f, "client decode: {e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::BatchMismatch { sent, got } => {
                write!(f, "sent {sent} requests but got {got} responses")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a relaxed2d server.
///
/// Frames go out through the bare stream (one vectored write each) and
/// come back through a buffered read half, so one `read` brings in a
/// response's prefix and body together.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    max_frame_len: u32,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader, max_frame_len: DEFAULT_MAX_FRAME_LEN })
    }

    /// Connects, retrying on refusal until `deadline` elapses — for racing
    /// a server that is still binding (CI smoke jobs).
    ///
    /// # Errors
    ///
    /// The last connect error once the deadline passes.
    pub fn connect_retry(addr: &str, deadline: Duration) -> io::Result<Self> {
        let start = Instant::now();
        loop {
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() < deadline => {
                    let _ = e;
                    stack2d::sync::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends `batch` as one frame and blocks for the response batch.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; the connection should be considered dead after
    /// an error.
    pub fn call(&mut self, batch: &[Request]) -> Result<Vec<Response>, ClientError> {
        write_frame(&mut self.stream, &encode_request_batch(batch))?;
        let body = loop {
            match read_frame(&mut self.reader, self.max_frame_len) {
                Ok(FrameEvent::Frame(body)) => break body,
                Ok(FrameEvent::Idle) => continue,
                Ok(FrameEvent::Closed) => return Err(ClientError::ServerClosed),
                Err(e) => return Err(ClientError::Frame(e)),
            }
        };
        let resps = decode_response_batch(&body).map_err(ClientError::Wire)?;
        if resps.len() != batch.len() {
            // A single typed error (malformed / oversized) stands for the
            // whole failed frame.
            if let [Response::Error { .. }] = resps.as_slice() {
                return Ok(resps);
            }
            return Err(ClientError::BatchMismatch { sent: batch.len(), got: resps.len() });
        }
        Ok(resps)
    }

    fn call_one(&mut self, req: Request) -> Result<Response, ClientError> {
        let mut resps = self.call(std::slice::from_ref(&req))?;
        resps.pop().ok_or(ClientError::BatchMismatch { sent: 1, got: 0 })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.call_one(Request::Ping)
    }

    /// Creates (or finds) the named tenant; `limit` applies to fresh
    /// rate-limiters only.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn create(
        &mut self,
        personality: Personality,
        tenant: &str,
        limit: u64,
    ) -> Result<Response, ClientError> {
        self.call_one(Request::Create { personality, tenant: tenant.to_string(), limit })
    }

    /// Produces one value into a task-queue or object-pool tenant.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn produce(
        &mut self,
        personality: Personality,
        tenant: &str,
        value: u64,
    ) -> Result<Response, ClientError> {
        self.call_one(Request::Produce { personality, tenant: tenant.to_string(), value })
    }

    /// Consumes one value from a task-queue or object-pool tenant.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn consume(
        &mut self,
        personality: Personality,
        tenant: &str,
    ) -> Result<Response, ClientError> {
        self.call_one(Request::Consume { personality, tenant: tenant.to_string() })
    }

    /// Counts `cost` hits against a rate-limiter and returns the decision.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn acquire(&mut self, tenant: &str, cost: u32) -> Result<Response, ClientError> {
        self.call_one(Request::Acquire { tenant: tenant.to_string(), cost })
    }

    /// Starts a fresh window on a rate-limiter.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn reset(&mut self, tenant: &str) -> Result<Response, ClientError> {
        self.call_one(Request::Reset { tenant: tenant.to_string() })
    }

    /// Fetches the live window/metrics snapshot for a tenant.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats(
        &mut self,
        personality: Personality,
        tenant: &str,
    ) -> Result<Response, ClientError> {
        self.call_one(Request::Stats { personality, tenant: tenant.to_string() })
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn shutdown_server(&mut self) -> Result<Response, ClientError> {
        self.call_one(Request::Shutdown)
    }
}
