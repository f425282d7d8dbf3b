//! The socket front: a non-blocking TCP listener decoding length-prefixed
//! frames into the batch scheduler.
//!
//! [`NetServer`] runs a readiness event loop (the vendored `mio` poll) over
//! one listener and its accepted connections:
//!
//! ```text
//!   readable ──► drain socket ──► FrameDecoder ──► OpenSession / Eval
//!                                                    │ submit() — bounded,
//!                                                    │ load-sheds to Reject
//!   loop body ──► run_tick() while tickets are outstanding
//!                                                    │
//!   tickets redeemed ──► EvalDone/Reject frames ──► per-connection outbox
//!   writable ──► flush outbox (absorbing WouldBlock)
//! ```
//!
//! Two invariants keep the front honest under load:
//!
//! * **No tick lock is ever held while touching a socket.** Frames are
//!   decoded and responses written from the event loop; batch execution
//!   happens inside [`Server::run_tick`], which acquires and releases the
//!   tick lock itself and fills tickets only after it is released.
//!   Response frames are then serialized and enqueued here, entirely
//!   off-lock (the time shows up in `ServeStats::flush_us`). A slow or
//!   stalled peer therefore cannot extend a batch tick, and a long tick
//!   cannot block accepting or shedding new work.
//! * **Backpressure is explicit, not implicit.** A request that cannot be
//!   admitted gets a [`RejectCode::Overloaded`] frame carrying
//!   `retry_after_ticks` on the spot; the admission queue's bound (not
//!   socket buffers) is the only queue that grows with offered load.
//!
//! Malformed input (bad magic, oversized length prefix, an unparseable
//! payload) earns a [`RejectCode::Malformed`] frame and the connection is
//! closed once the reject flushes — after a framing error the byte stream
//! can no longer be trusted.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fides_client::wire::{
    EvalRequest, Frame, FrameDecoder, FrameKind, Reject, RejectCode, SessionRequest,
};
use fides_client::ClientError;
use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token};

use crate::error::ServeError;
use crate::server::{Server, Ticket};

const LISTENER: Token = Token(0);
/// Poll timeout: the loop must keep driving batch ticks while requests
/// are outstanding even when no socket event arrives.
const POLL_TIMEOUT: Duration = Duration::from_millis(1);
const READ_CHUNK: usize = 64 * 1024;

/// Tuning knobs for the socket front.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Upper bound on a frame's declared payload length; a peer
    /// declaring more is treated as hostile and disconnected.
    pub max_frame_len: usize,
    /// Most simultaneously open connections; accepts past it are
    /// immediately closed.
    pub max_connections: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            max_frame_len: fides_client::wire::MAX_FRAME_LEN,
            max_connections: 256,
        }
    }
}

/// Encoded response bytes the socket has not accepted yet. A peer that
/// reads slower than responses arrive never fully drains it, so the
/// written prefix is dropped as soon as it is at least half the buffer
/// (all of it, once the socket catches up): each compaction moves no more
/// bytes than were written since the last one, and the buffer never holds
/// more than twice its unwritten bytes.
#[derive(Default)]
struct Outbox {
    buf: Vec<u8>,
    /// Bytes of `buf` already written.
    written: usize,
}

impl Outbox {
    fn queue(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.written..]
    }

    fn is_empty(&self) -> bool {
        self.pending().is_empty()
    }

    /// Records that the socket accepted the first `n` pending bytes.
    fn advance(&mut self, n: usize) {
        self.written += n;
        if self.written >= self.buf.len() / 2 {
            self.buf.drain(..self.written);
            self.written = 0;
        }
    }
}

/// One accepted connection's state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Admitted requests awaiting their batch tick, by client seq.
    inflight: Vec<(u64, Ticket)>,
    outbox: Outbox,
    /// Stop reading (peer EOF or a framing error); close once the
    /// outbox flushes and no admitted request is still in flight.
    draining: bool,
}

impl Conn {
    fn queue_frame(&mut self, frame: &Frame) {
        self.outbox.queue(&frame.encode());
    }

    fn finished(&self) -> bool {
        self.draining && self.outbox.is_empty() && self.inflight.is_empty()
    }
}

/// Stops a running [`NetServer`] loop from another thread.
#[derive(Clone, Debug)]
pub struct NetShutdown(Arc<AtomicBool>);

impl NetShutdown {
    /// Asks the event loop to exit after its current iteration.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A non-blocking TCP front over a [`Server`].
pub struct NetServer {
    server: Server,
    config: NetServerConfig,
    poll: Poll,
    listener: TcpListener,
    addr: SocketAddr,
    conns: HashMap<Token, Conn>,
    next_token: usize,
    stop: Arc<AtomicBool>,
}

impl NetServer {
    /// Binds the front to `addr` (use port 0 for an ephemeral port; read
    /// it back with [`NetServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the bind fails.
    pub fn bind(
        server: Server,
        addr: impl std::net::ToSocketAddrs,
        config: NetServerConfig,
    ) -> Result<Self, ServeError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::Io(e.to_string()))?
            .next()
            .ok_or_else(|| ServeError::Io("address resolved to nothing".into()))?;
        let mut listener = TcpListener::bind(addr).map_err(|e| ServeError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let poll = Poll::new().map_err(|e| ServeError::Io(e.to_string()))?;
        poll.registry()
            .register(&mut listener, LISTENER, Interest::READABLE)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        Ok(Self {
            server,
            config,
            poll,
            listener,
            addr,
            conns: HashMap::new(),
            next_token: 1,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The [`Server`] behind this front (cheap to clone; the clone shares
    /// tenant table, queue and device state).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// [`Server::snapshot`] on the fronted server: serializes durable
    /// session state between batch ticks while the front keeps accepting
    /// connections.
    ///
    /// # Errors
    ///
    /// As [`Server::snapshot`].
    pub fn snapshot<W: std::io::Write>(&self, w: W) -> Result<(), ServeError> {
        self.server.snapshot(w)
    }

    /// [`Server::restore`] on the fronted server: rebuilds sessions,
    /// placements and warm plans from a snapshot stream, typically before
    /// the event loop starts taking traffic.
    ///
    /// # Errors
    ///
    /// As [`Server::restore`].
    pub fn restore<R: std::io::Read>(&self, r: R) -> Result<u64, ServeError> {
        self.server.restore(r)
    }

    /// [`Server::warmup`] on the fronted server.
    ///
    /// # Errors
    ///
    /// As [`Server::warmup`].
    pub fn warmup(&self, shapes: &[crate::WarmupShape]) -> Result<usize, ServeError> {
        self.server.warmup(shapes)
    }

    /// A handle that stops [`NetServer::run`] from another thread.
    pub fn shutdown_handle(&self) -> NetShutdown {
        NetShutdown(Arc::clone(&self.stop))
    }

    /// Binds to `addr` and runs the event loop on its own thread.
    /// Returns the bound address, the shutdown handle, and the join
    /// handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the bind fails.
    pub fn spawn(
        server: Server,
        addr: impl std::net::ToSocketAddrs,
        config: NetServerConfig,
    ) -> Result<(SocketAddr, NetShutdown, std::thread::JoinHandle<()>), ServeError> {
        let mut front = Self::bind(server, addr, config)?;
        let bound = front.local_addr();
        let shutdown = front.shutdown_handle();
        let join = std::thread::spawn(move || front.run());
        Ok((bound, shutdown, join))
    }

    /// Runs the event loop until [`NetShutdown::shutdown`] is called.
    /// Connections still open at shutdown are dropped.
    pub fn run(&mut self) {
        let mut events = Events::with_capacity(64);
        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            let _ = self.poll.poll(&mut events, Some(POLL_TIMEOUT));
            let tokens: Vec<Token> = events.iter().map(|ev| ev.token()).collect();
            for token in tokens {
                if token == LISTENER {
                    self.accept_ready();
                } else {
                    self.read_ready(token);
                }
            }
            // Admitted work outstanding? Drive a batch tick. run_tick
            // takes (and releases) the tick lock internally — no socket
            // is touched while it is held.
            if self.conns.values().any(|c| !c.inflight.is_empty()) {
                self.server.run_tick();
            }
            // Serialize and write response frames off-lock; the time is
            // the front's share of the flush ledger.
            let t0 = Instant::now();
            let redeemed = self.redeem_tickets();
            self.flush_all();
            if redeemed > 0 {
                self.server.note_flush_us(t0.elapsed().as_micros() as u64);
            }
            self.reap();
        }
    }

    /// Accepts every pending connection (readiness is level-triggered).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, _peer)) => {
                    if self.conns.len() >= self.config.max_connections {
                        drop(stream); // immediate close: connection-level shed
                        continue;
                    }
                    let token = Token(self.next_token);
                    self.next_token += 1;
                    if self
                        .poll
                        .registry()
                        .register(&mut stream, token, Interest::READABLE | Interest::WRITABLE)
                        .is_err()
                    {
                        continue; // registration failed: drop the socket
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            decoder: FrameDecoder::with_max_len(self.config.max_frame_len),
                            inflight: Vec::new(),
                            outbox: Outbox::default(),
                            draining: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Drains a readable connection and dispatches every complete frame.
    fn read_ready(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.draining {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.draining = true;
                    break;
                }
                Ok(n) => conn.decoder.feed(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    conn.draining = true;
                    break;
                }
            }
        }
        loop {
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => Self::dispatch(&self.server, conn, frame),
                Ok(None) => break,
                Err(e) => {
                    // Framing desync: reject (seq 0 — no frame to echo),
                    // stop reading, close once the reject flushes.
                    let reject = Reject {
                        code: RejectCode::Malformed,
                        retry_after_ticks: 0,
                        message: e.to_string(),
                    };
                    conn.queue_frame(&Frame::new(FrameKind::Reject, 0, reject.to_bytes()));
                    conn.draining = true;
                    break;
                }
            }
        }
    }

    /// Handles one decoded frame: session open or eval submission.
    fn dispatch(server: &Server, conn: &mut Conn, frame: Frame) {
        match frame.kind {
            FrameKind::OpenSession => {
                let reply = match SessionRequest::from_bytes(&frame.payload) {
                    Ok(req) => match server.open_session(req) {
                        Ok(sid) => Frame::new(
                            FrameKind::SessionOpened,
                            frame.seq,
                            sid.to_le_bytes().into(),
                        ),
                        Err(e) => reject_frame(frame.seq, RejectCode::Refused, 0, &e.to_string()),
                    },
                    Err(e) => {
                        conn.draining = true;
                        reject_frame(frame.seq, RejectCode::Malformed, 0, &e.to_string())
                    }
                };
                conn.queue_frame(&reply);
            }
            FrameKind::Eval => match EvalRequest::from_bytes(&frame.payload) {
                Ok(req) => match server.submit(req) {
                    Ok(ticket) => conn.inflight.push((frame.seq, ticket)),
                    Err(ServeError::Overloaded { retry_after_ticks }) => {
                        conn.queue_frame(&reject_frame(
                            frame.seq,
                            RejectCode::Overloaded,
                            retry_after_ticks,
                            "admission queue full",
                        ));
                    }
                    Err(e) => conn.queue_frame(&reject_frame(
                        frame.seq,
                        RejectCode::Refused,
                        0,
                        &e.to_string(),
                    )),
                },
                Err(e) => {
                    conn.draining = true;
                    conn.queue_frame(&reject_frame(
                        frame.seq,
                        RejectCode::Malformed,
                        0,
                        &e.to_string(),
                    ));
                }
            },
            // Server-to-client kinds arriving at the server are protocol
            // abuse: reject and drop the stream.
            FrameKind::SessionOpened | FrameKind::EvalDone | FrameKind::Reject => {
                conn.draining = true;
                conn.queue_frame(&reject_frame(
                    frame.seq,
                    RejectCode::Malformed,
                    0,
                    "client sent a server-side frame kind",
                ));
            }
        }
    }

    /// Moves completed tickets' responses into their connections'
    /// outboxes; returns how many frames were redeemed.
    fn redeem_tickets(&mut self) -> usize {
        let mut redeemed = 0;
        for conn in self.conns.values_mut() {
            let mut i = 0;
            while i < conn.inflight.len() {
                if let Some(resp) = conn.inflight[i].1.try_take() {
                    let (seq, _) = conn.inflight.swap_remove(i);
                    let frame = Frame::new(FrameKind::EvalDone, seq, resp.to_bytes());
                    conn.queue_frame(&frame);
                    redeemed += 1;
                } else {
                    i += 1;
                }
            }
        }
        redeemed
    }

    /// Writes every connection's outbox until done or `WouldBlock`
    /// (writability is level-triggered; leftovers retry next iteration).
    fn flush_all(&mut self) {
        for conn in self.conns.values_mut() {
            while !conn.outbox.is_empty() {
                match conn.stream.write(conn.outbox.pending()) {
                    Ok(0) => {
                        conn.draining = true;
                        break;
                    }
                    Ok(n) => conn.outbox.advance(n),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.draining = true;
                        conn.outbox = Outbox::default();
                        break;
                    }
                }
            }
        }
    }

    /// Drops connections that are fully drained.
    fn reap(&mut self) {
        let dead: Vec<Token> = self
            .conns
            .iter()
            .filter(|(_, c)| c.finished())
            .map(|(&t, _)| t)
            .collect();
        for token in dead {
            self.poll.registry().deregister_token(token);
            self.conns.remove(&token);
        }
    }
}

fn reject_frame(seq: u64, code: RejectCode, retry_after_ticks: u64, message: &str) -> Frame {
    let reject = Reject {
        code,
        retry_after_ticks,
        message: message.to_string(),
    };
    Frame::new(FrameKind::Reject, seq, reject.to_bytes())
}

// The decoder's error type comes from the client crate; make sure the
// conversion the dispatcher relies on exists and stays typed.
const _: () = {
    fn _assert_conv(e: ClientError) -> ServeError {
        ServeError::from(e)
    }
};

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader slower than the responses: the outbox is never fully
    /// drained, yet the written prefix must not stay resident and the
    /// byte stream must come out unbroken.
    #[test]
    fn outbox_drops_written_prefix_of_a_slow_reader() {
        let frames: Vec<Vec<u8>> = (0..8u64)
            .map(|seq| Frame::new(FrameKind::EvalDone, seq, vec![seq as u8; 100]).encode())
            .collect();
        let stream: Vec<u8> = frames.concat();
        let mut outbox = Outbox::default();
        for frame in &frames {
            outbox.queue(frame);
        }
        assert_eq!(outbox.pending(), &stream[..]);

        // One partial write past the midpoint.
        let mut sent = stream.len() / 2 + 7;
        outbox.advance(sent);
        assert!(!outbox.is_empty());
        assert!(
            outbox.buf.len() <= 2 * outbox.pending().len(),
            "{} bytes resident for {} unwritten",
            outbox.buf.len(),
            outbox.pending().len()
        );
        assert_eq!(outbox.pending(), &stream[sent..]);

        // Small writes interleaved with new frames: the bound and the
        // stream order hold at every step.
        let mut expected = stream;
        for seq in 8..200u64 {
            let frame = Frame::new(FrameKind::EvalDone, seq, vec![seq as u8; 100]).encode();
            expected.extend_from_slice(&frame);
            outbox.queue(&frame);
            outbox.advance(90);
            sent += 90;
            assert_eq!(outbox.pending(), &expected[sent..]);
            assert!(outbox.buf.len() <= 2 * outbox.pending().len());
        }

        let rest = outbox.pending().len();
        outbox.advance(rest);
        assert!(outbox.is_empty());
        assert!(outbox.buf.is_empty());
    }
}
