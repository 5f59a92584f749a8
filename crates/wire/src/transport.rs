//! Transport abstraction: how framed bytes move between a sensor and
//! the gateway.
//!
//! Two implementations share the [`Connection`] / [`Acceptor`] traits:
//!
//! * **loopback** — in-process bounded byte pipes (see
//!   [`crate::pipe`]). The full codec + envelope runs on both ends (so
//!   checksums, framing *and* partial-frame reassembly are exercised),
//!   delivery is deterministic, the ring gives real backpressure, and
//!   no per-frame allocation happens in the transport itself — the
//!   right substrate for tests and the committed benchmark baseline.
//! * **TCP** — a std-only `TcpStream` transport; the receiver's
//!   [`FrameBuffer`](crate::FrameBuffer) enforces the max-frame-size
//!   limit from the header, *before* buffering the payload.
//!
//! A connection has one face: [`Connection::into_poll`] turns it into
//! a non-blocking [`PollConn`] exposing raw byte reads and vectored
//! writes that never park a thread. The gateway's readiness reactor
//! and the [`WireClient`](crate::WireClient) both drive that face.

use crate::codec::{DecodeError, EncodeError};
use crate::pipe::{self, PipeReader, PipeWriter, TryRead, TryWrite};
use std::error::Error;
use std::fmt;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Why a transport operation failed. Transport errors are fatal for
/// their connection: a failed write may have sent a partial frame,
/// and a failed decode means the byte stream is desynchronised — the
/// only safe continuation is to close.
#[derive(Debug)]
pub enum TransportError {
    /// An OS-level I/O failure.
    Io {
        /// What the transport was doing.
        context: &'static str,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The peer's bytes failed to frame or decode.
    Decode(DecodeError),
    /// A frame refused to encode (a protocol bound was exceeded).
    /// Nothing was written to the wire, but the caller was about to
    /// violate its sequencing contract, so the connection should close.
    Encode(EncodeError),
    /// The peer went away mid-conversation (EOF inside a frame, or a
    /// closed in-process channel).
    Disconnected {
        /// Where the disconnect surfaced.
        context: &'static str,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io { context, error } => {
                write!(f, "transport i/o ({context}): {error}")
            }
            TransportError::Decode(e) => write!(f, "transport decode: {e}"),
            TransportError::Encode(e) => write!(f, "transport encode: {e}"),
            TransportError::Disconnected { context } => {
                write!(f, "peer disconnected ({context})")
            }
        }
    }
}

impl Error for TransportError {}

impl From<DecodeError> for TransportError {
    fn from(e: DecodeError) -> Self {
        TransportError::Decode(e)
    }
}

impl From<EncodeError> for TransportError {
    fn from(e: EncodeError) -> Self {
        TransportError::Encode(e)
    }
}

/// What a non-blocking read observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollRead {
    /// `n > 0` bytes landed in the caller's buffer.
    Data(usize),
    /// Nothing available right now; poll again later.
    WouldBlock,
    /// The peer closed its sending side (clean EOF).
    Eof,
}

/// What a non-blocking vectored write observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollWrite {
    /// `n > 0` bytes were accepted (possibly fewer than offered).
    Wrote(usize),
    /// The peer's buffer is full; retry after it drains.
    WouldBlock,
}

/// The non-blocking face of a connection: raw byte reads and vectored
/// writes that never park the calling thread.
pub trait PollConn: Send {
    /// Reads whatever bytes are available into `buf` without blocking.
    ///
    /// # Errors
    ///
    /// Any fatal [`TransportError`]; a momentarily-empty peer is
    /// [`PollRead::WouldBlock`], not an error.
    fn poll_read(&mut self, buf: &mut [u8]) -> Result<PollRead, TransportError>;

    /// Writes as much of `bufs` as the peer will take without
    /// blocking. Partial writes are normal; the caller tracks its
    /// offset.
    ///
    /// # Errors
    ///
    /// Any fatal [`TransportError`]; a momentarily-full peer is
    /// [`PollWrite::WouldBlock`], not an error.
    fn poll_write(&mut self, bufs: &[IoSlice<'_>]) -> Result<PollWrite, TransportError>;

    /// A human-readable peer description (diagnostics only).
    fn peer(&self) -> String;
}

/// One established sensor↔gateway connection.
pub trait Connection: Send {
    /// Converts the connection into its non-blocking [`PollConn`]
    /// face.
    ///
    /// # Errors
    ///
    /// Any I/O failure while reconfiguring the underlying socket.
    fn into_poll(self: Box<Self>) -> Result<Box<dyn PollConn>, TransportError>;

    /// A human-readable peer description (diagnostics only).
    fn peer(&self) -> String;
}

/// What one bounded-wait accept produced.
pub enum Accepted {
    /// A new connection.
    Connection(Box<dyn Connection>),
    /// No connection arrived within the accept timeout; poll again.
    TimedOut,
    /// The connector side is gone; no further connections can arrive.
    Closed,
}

/// The listening side of a transport, handed to the gateway.
pub trait Acceptor: Send {
    /// Waits up to the transport's accept timeout for one connection.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] on the listener itself (not on an
    /// individual connection).
    fn accept(&mut self) -> Result<Accepted, TransportError>;
}

// ---------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------

/// Loopback tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoopbackConfig {
    /// How long an `accept` waits before reporting `TimedOut`.
    pub accept_timeout: Duration,
    /// Byte capacity of each direction's ring buffer; bounds how far a
    /// fast writer can run ahead of a slow reader.
    pub pipe_capacity: usize,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        Self {
            accept_timeout: Duration::from_millis(50),
            pipe_capacity: pipe::DEFAULT_PIPE_CAPACITY,
        }
    }
}

/// Creates an in-process transport: the [`LoopbackAcceptor`] goes to
/// the gateway, the cloneable [`LoopbackConnector`] to any number of
/// clients.
pub fn loopback(config: LoopbackConfig) -> (LoopbackAcceptor, LoopbackConnector) {
    let (tx, rx) = mpsc::channel();
    (
        LoopbackAcceptor { rx, config },
        LoopbackConnector { tx, config },
    )
}

/// One side of a loopback connection: a byte-pipe reader paired with a
/// byte-pipe writer. Already non-blocking, so it is its own poll face.
struct LoopbackConn {
    tx: PipeWriter,
    rx: PipeReader,
    peer: &'static str,
}

impl Connection for LoopbackConn {
    fn into_poll(self: Box<Self>) -> Result<Box<dyn PollConn>, TransportError> {
        Ok(self)
    }

    fn peer(&self) -> String {
        self.peer.to_string()
    }
}

impl PollConn for LoopbackConn {
    fn poll_read(&mut self, buf: &mut [u8]) -> Result<PollRead, TransportError> {
        Ok(match self.rx.try_read(buf) {
            TryRead::Read(n) => PollRead::Data(n),
            TryRead::Empty => PollRead::WouldBlock,
            TryRead::Eof => PollRead::Eof,
        })
    }

    fn poll_write(&mut self, bufs: &[IoSlice<'_>]) -> Result<PollWrite, TransportError> {
        match self.tx.try_write_vectored(bufs) {
            TryWrite::Wrote(n) => Ok(PollWrite::Wrote(n)),
            TryWrite::Full => Ok(PollWrite::WouldBlock),
            TryWrite::Closed => Err(TransportError::Disconnected {
                context: "loopback poll write",
            }),
        }
    }

    fn peer(&self) -> String {
        self.peer.to_string()
    }
}

/// The gateway's end of a loopback transport.
pub struct LoopbackAcceptor {
    rx: mpsc::Receiver<LoopbackConn>,
    config: LoopbackConfig,
}

impl Acceptor for LoopbackAcceptor {
    fn accept(&mut self) -> Result<Accepted, TransportError> {
        match self.rx.recv_timeout(self.config.accept_timeout) {
            Ok(conn) => Ok(Accepted::Connection(Box::new(conn))),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(Accepted::TimedOut),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Accepted::Closed),
        }
    }
}

/// The client-side factory of a loopback transport. Cloneable: hand a
/// copy to every simulated sensor.
#[derive(Clone)]
pub struct LoopbackConnector {
    tx: mpsc::Sender<LoopbackConn>,
    config: LoopbackConfig,
}

impl LoopbackConnector {
    /// Establishes one connection to the acceptor.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the acceptor is gone.
    pub fn connect(&self) -> Result<Box<dyn Connection>, TransportError> {
        let (c2s_tx, c2s_rx) = pipe::pipe(self.config.pipe_capacity);
        let (s2c_tx, s2c_rx) = pipe::pipe(self.config.pipe_capacity);
        let server = LoopbackConn {
            tx: s2c_tx,
            rx: c2s_rx,
            peer: "loopback-client",
        };
        let client = LoopbackConn {
            tx: c2s_tx,
            rx: s2c_rx,
            peer: "loopback-gateway",
        };
        self.tx
            .send(server)
            .map_err(|_| TransportError::Disconnected {
                context: "loopback connect",
            })?;
        Ok(Box::new(client))
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// TCP tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Disable Nagle's algorithm (on by default: single-record frames
    /// are latency-sensitive).
    pub nodelay: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self { nodelay: true }
    }
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> TransportError {
    move |error| TransportError::Io { context, error }
}

/// Binds a listener and returns the acceptor plus the actual local
/// address (useful with a `:0` ephemeral port).
///
/// # Errors
///
/// Any I/O failure while binding or configuring the listener.
pub fn tcp_listen(
    addr: &str,
    config: TcpConfig,
) -> Result<(TcpAcceptor, SocketAddr), TransportError> {
    let listener = TcpListener::bind(addr).map_err(io_err("bind"))?;
    listener
        .set_nonblocking(true)
        .map_err(io_err("listener nonblocking"))?;
    let local = listener.local_addr().map_err(io_err("local addr"))?;
    Ok((
        TcpAcceptor {
            listener,
            config,
            poll: Duration::from_millis(10),
        },
        local,
    ))
}

/// Connects to a gateway listener.
///
/// # Errors
///
/// Any I/O failure while connecting or configuring the socket.
pub fn tcp_connect(addr: &str, config: TcpConfig) -> Result<Box<dyn Connection>, TransportError> {
    let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
    Ok(Box::new(TcpConn::from_stream(stream, config)?))
}

/// The gateway's end of a TCP transport. The listener runs
/// non-blocking with a short sleep poll, so `accept` observes gateway
/// shutdown within one poll interval.
pub struct TcpAcceptor {
    listener: TcpListener,
    config: TcpConfig,
    poll: Duration,
}

impl Acceptor for TcpAcceptor {
    fn accept(&mut self) -> Result<Accepted, TransportError> {
        match self.listener.accept() {
            Ok((stream, _peer)) => Ok(Accepted::Connection(Box::new(TcpConn::from_stream(
                stream,
                self.config,
            )?))),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(self.poll);
                Ok(Accepted::TimedOut)
            }
            Err(error) => Err(TransportError::Io {
                context: "accept",
                error,
            }),
        }
    }
}

/// One TCP connection. `into_poll` flips the socket non-blocking and
/// returns the connection itself as its poll face.
pub struct TcpConn {
    stream: TcpStream,
    peer: String,
}

impl TcpConn {
    fn from_stream(stream: TcpStream, config: TcpConfig) -> Result<Self, TransportError> {
        stream
            .set_nodelay(config.nodelay)
            .map_err(io_err("nodelay"))?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp-unknown".to_string());
        Ok(Self { stream, peer })
    }
}

impl Connection for TcpConn {
    fn into_poll(self: Box<Self>) -> Result<Box<dyn PollConn>, TransportError> {
        self.stream
            .set_nonblocking(true)
            .map_err(io_err("set nonblocking"))?;
        Ok(self)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

impl PollConn for TcpConn {
    fn poll_read(&mut self, buf: &mut [u8]) -> Result<PollRead, TransportError> {
        match self.stream.read(buf) {
            Ok(0) => Ok(PollRead::Eof),
            Ok(n) => Ok(PollRead::Data(n)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Ok(PollRead::WouldBlock)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(PollRead::WouldBlock),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ) =>
            {
                Err(TransportError::Disconnected {
                    context: "tcp poll read",
                })
            }
            Err(error) => Err(TransportError::Io {
                context: "tcp poll read",
                error,
            }),
        }
    }

    fn poll_write(&mut self, bufs: &[IoSlice<'_>]) -> Result<PollWrite, TransportError> {
        match self.stream.write_vectored(bufs) {
            Ok(0) => Ok(PollWrite::WouldBlock),
            Ok(n) => Ok(PollWrite::Wrote(n)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Ok(PollWrite::WouldBlock)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(PollWrite::WouldBlock),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::BrokenPipe
                        | ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                ) =>
            {
                Err(TransportError::Disconnected {
                    context: "tcp poll write",
                })
            }
            Err(error) => Err(TransportError::Io {
                context: "tcp poll write",
                error,
            }),
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_payload, Frame, Goodbye, Hello, PredictionFrame, PROTOCOL_VERSION};
    use crate::frame::{decode_frame, Encoder, DEFAULT_MAX_PAYLOAD, HEADER_BYTES};
    use crate::reactor::FrameBuffer;
    use std::time::Instant;

    /// What [`next_frame`] observed.
    #[allow(clippy::large_enum_variant)]
    #[derive(Debug)]
    enum Got {
        Frame(Frame),
        Eof,
        Refused(DecodeError),
    }

    fn accept(acceptor: &mut dyn Acceptor) -> Box<dyn Connection> {
        loop {
            match acceptor.accept().unwrap() {
                Accepted::Connection(c) => return c,
                Accepted::TimedOut => continue,
                Accepted::Closed => panic!("listener closed"),
            }
        }
    }

    /// Writes `frame` whole through a poll face.
    fn send_frame(io: &mut dyn PollConn, frame: &Frame) {
        let bytes = Encoder::new().encode(frame).unwrap();
        let mut offset = 0;
        while offset < bytes.len() {
            match io.poll_write(&[IoSlice::new(&bytes[offset..])]).unwrap() {
                PollWrite::Wrote(n) => offset += n,
                PollWrite::WouldBlock => std::thread::yield_now(),
            }
        }
    }

    /// Reads the next frame (or EOF, or the framing refusal) off a poll
    /// face, reassembling across reads in `inbuf`.
    fn next_frame(io: &mut dyn PollConn, inbuf: &mut FrameBuffer) -> Got {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match inbuf.peek() {
                Err(e) => return Got::Refused(e),
                Ok(Some((header, payload))) => {
                    let frame = decode_payload(header.frame_type, payload).unwrap();
                    inbuf.consume(header.payload_len);
                    return Got::Frame(frame);
                }
                Ok(None) => {}
            }
            match io.poll_read(inbuf.spare_mut()).unwrap() {
                PollRead::Data(n) => inbuf.commit(n),
                PollRead::Eof => return Got::Eof,
                PollRead::WouldBlock => {
                    assert!(Instant::now() < deadline, "nothing arrived within 5 s");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    fn recv_frame(io: &mut dyn PollConn) -> Frame {
        recv_frame_from(io, &mut FrameBuffer::new(DEFAULT_MAX_PAYLOAD))
    }

    fn recv_frame_from(io: &mut dyn PollConn, inbuf: &mut FrameBuffer) -> Frame {
        match next_frame(io, inbuf) {
            Got::Frame(f) => f,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn loopback_round_trips_frames_both_ways() {
        let (mut acceptor, connector) = loopback(LoopbackConfig::default());
        let mut client = connector.connect().unwrap().into_poll().unwrap();
        let mut server = accept(&mut acceptor).into_poll().unwrap();

        let hello = Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "s0".into(),
            tenant: "t0".into(),
        });
        send_frame(client.as_mut(), &hello);
        assert_eq!(recv_frame(server.as_mut()), hello);

        let pred = Frame::Prediction(PredictionFrame {
            seq: 1,
            timestamp_s: 0.5,
            occupied: 1,
            proba: 0.75,
            model_version: 1,
            latency_ns: 10,
        });
        send_frame(server.as_mut(), &pred);
        assert_eq!(recv_frame(client.as_mut()), pred);
    }

    #[test]
    fn loopback_reports_closed_when_the_peer_drops() {
        let (mut acceptor, connector) = loopback(LoopbackConfig::default());
        let mut client = connector.connect().unwrap().into_poll().unwrap();
        drop(accept(&mut acceptor));
        let mut inbuf = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
        assert!(matches!(next_frame(client.as_mut(), &mut inbuf), Got::Eof));
        assert!(inbuf.is_empty(), "a clean close leaves no partial frame");
    }

    #[test]
    fn loopback_poll_face_moves_bytes_without_blocking() {
        let (mut acceptor, connector) = loopback(LoopbackConfig::default());
        let mut client = connector.connect().unwrap().into_poll().unwrap();
        let mut poll = accept(&mut acceptor).into_poll().unwrap();
        let mut scratch = [0u8; 64];
        assert_eq!(poll.poll_read(&mut scratch).unwrap(), PollRead::WouldBlock);

        let goodbye = Frame::Goodbye(Goodbye { count: 2 });
        send_frame(client.as_mut(), &goodbye);
        let mut collected = Vec::new();
        loop {
            match poll.poll_read(&mut scratch).unwrap() {
                PollRead::Data(n) => collected.extend_from_slice(&scratch[..n]),
                PollRead::WouldBlock => break,
                PollRead::Eof => panic!("unexpected eof"),
            }
        }
        let (frame, consumed) = decode_frame(&collected, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(frame, goodbye);
        assert_eq!(consumed, collected.len());

        // Vectored write split across two slices reassembles at the
        // client's frame buffer.
        let bytes = Encoder::new().encode(&goodbye).unwrap();
        let (a, b) = bytes.split_at(7);
        let mut offset = 0;
        while offset < bytes.len() {
            let slices = if offset < a.len() {
                vec![IoSlice::new(&a[offset..]), IoSlice::new(b)]
            } else {
                vec![IoSlice::new(&b[offset - a.len()..])]
            };
            match poll.poll_write(&slices).unwrap() {
                PollWrite::Wrote(n) => offset += n,
                PollWrite::WouldBlock => std::thread::yield_now(),
            }
        }
        assert_eq!(recv_frame(client.as_mut()), goodbye);
    }

    #[test]
    fn tcp_round_trips_over_localhost() {
        let (mut acceptor, addr) = tcp_listen("127.0.0.1:0", TcpConfig::default()).unwrap();
        let client = tcp_connect(&addr.to_string(), TcpConfig::default()).unwrap();
        let mut server = accept(&mut acceptor).into_poll().unwrap();
        let mut client = client.into_poll().unwrap();
        let goodbye = Frame::Goodbye(Goodbye { count: 9 });
        send_frame(client.as_mut(), &goodbye);
        let mut inbuf = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
        assert_eq!(recv_frame_from(server.as_mut(), &mut inbuf), goodbye);
        // Dropping the client sends FIN: a clean close between frames.
        drop(client);
        assert!(matches!(next_frame(server.as_mut(), &mut inbuf), Got::Eof));
        assert!(inbuf.is_empty());
    }

    #[test]
    fn tcp_reassembles_frames_split_across_writes() {
        let (mut acceptor, addr) = tcp_listen("127.0.0.1:0", TcpConfig::default()).unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_nodelay(true).unwrap();
        let mut server = accept(&mut acceptor).into_poll().unwrap();
        let frame = Frame::Goodbye(Goodbye { count: 777 });
        let bytes = Encoder::new().encode(&frame).unwrap();
        // Dribble the frame one byte at a time across the socket; the
        // receiver sees many short reads and must reassemble them.
        let mut inbuf = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
        for b in &bytes {
            raw.write_all(std::slice::from_ref(b)).unwrap();
            raw.flush().unwrap();
            if let PollRead::Data(n) = server.poll_read(inbuf.spare_mut()).unwrap() {
                inbuf.commit(n);
            }
            if inbuf.len() < bytes.len() {
                assert!(matches!(inbuf.peek(), Ok(None)), "partial frame must wait");
            }
        }
        assert_eq!(recv_frame_from(server.as_mut(), &mut inbuf), frame);
    }

    #[test]
    fn tcp_refuses_oversize_frames_from_the_header() {
        let (mut acceptor, addr) = tcp_listen("127.0.0.1:0", TcpConfig::default()).unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut server = accept(&mut acceptor).into_poll().unwrap();
        // Header declaring a 1 MiB payload; only the header is sent.
        let mut header = Vec::new();
        header.extend_from_slice(&crate::frame::MAGIC);
        header.push(PROTOCOL_VERSION);
        header.push(7);
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&(1u32 << 20).to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        raw.write_all(&header).unwrap();
        let mut inbuf = FrameBuffer::new(16);
        let got = next_frame(server.as_mut(), &mut inbuf);
        assert!(
            matches!(got, Got::Refused(DecodeError::Oversize { max: 16, .. })),
            "expected oversize refusal, got {got:?}"
        );
        assert_eq!(
            inbuf.len(),
            HEADER_BYTES,
            "refused from the header, before any payload is buffered"
        );
    }
}
