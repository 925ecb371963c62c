//! The event-driven server: one `poll(2)` loop multiplexing every
//! connection onto the shared [`Service`] worker pool, replacing the
//! thread-per-connection [`Server`](crate::server::Server) for high
//! connection counts.
//!
//! Per connection the loop runs a small state machine:
//!
//! ```text
//!              first bytes
//!   Detecting ─────────────┬── "AFWIRE01…" ──> Binary (FrameDecoder)
//!                          └── anything else ─> Json  (newline framing)
//! ```
//!
//! * **Reads** are nonblocking; complete frames are handed to the service
//!   (`handle_frame_async` / `handle_binary_frame_async`). Cheap verbs
//!   answer inline; `analyze` goes through the bounded queue and a worker
//!   invokes the completion later.
//! * **Responses** carry a per-connection sequence number; a `BTreeMap`
//!   holds completions that finish out of order so bytes are written in
//!   request order — same contract as the threaded server, checkable by a
//!   pipelining client.
//! * **Completions** cross threads via a mutexed queue plus a socketpair
//!   [`Waker`] that pulls the loop out of
//!   `poll`.
//! * **Backpressure**: a connection whose write buffer passes the high
//!   watermark stops being read (`POLLIN` dropped) until the buffer
//!   drains below the low watermark — a slow reader throttles itself,
//!   not the server.
//! * **Oversized frames** (both protocols) are rejected from the length
//!   prefix / line cap *before* buffering, counted in the oversized-frame
//!   counter, and never enter the latency histogram.
//!
//! Shutdown (the `shutdown` verb or [`Service::shutdown`]) stops the
//! accept loop and frame reads, drains every queued job and write buffer,
//! then joins the workers.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arrayflow_resilience::CancelToken;
use arrayflow_wire::event::{set_backlog, wake_pair, Poller, Waker, POLLIN, POLLOUT};
use arrayflow_wire::{detect, Detect, FrameDecoder, FrameEvent};

use crate::binproto::error_frame;
use crate::proto::{ErrorKind, ServiceError};
use crate::service::Service;

/// Write-buffer high watermark: a connection buffering more response
/// bytes than this stops being read until it drains.
const WRITE_HIGH_WATER: usize = 1 << 20;
/// Write-buffer low watermark: reading resumes below this.
const WRITE_LOW_WATER: usize = 64 << 10;
/// Read chunk size.
const READ_CHUNK: usize = 64 << 10;

/// Which protocols a listener accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoMode {
    /// Sniff the first bytes of each connection: `AFWIRE01` means binary,
    /// anything else is newline-JSON. (A JSON request can never begin
    /// with `A` — it starts with `{` or whitespace — so detection never
    /// misclassifies a well-formed client.)
    Auto,
    /// Newline-JSON only; binary magic is treated as a JSON line (and
    /// answered with a `protocol` error). For deployments that must pin
    /// the legacy protocol.
    Json,
}

/// One finished response on its way back to the event loop.
struct Completion {
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
    shutdown: bool,
}

type Completions = Arc<Mutex<Vec<Completion>>>;

enum Proto {
    /// Accumulating the first bytes until the protocol is known.
    Detecting(Vec<u8>),
    Json(JsonLines),
    Binary(FrameDecoder),
}

/// Incremental newline framing with the same oversized discipline as the
/// blocking [`FrameReader`](crate::server::FrameReader): a line over the
/// cap is discarded in bounded memory (never buffered whole), reported
/// once at its terminating newline, and the stream stays usable.
struct JsonLines {
    line: Vec<u8>,
    max: usize,
    dropping: bool,
}

enum JsonEvent {
    Line(Vec<u8>),
    Oversized,
}

impl JsonLines {
    fn new(max: usize) -> Self {
        JsonLines {
            line: Vec::new(),
            max,
            dropping: false,
        }
    }

    fn feed(&mut self, chunk: &[u8], mut emit: impl FnMut(JsonEvent)) {
        for &b in chunk {
            if b == b'\n' {
                if self.dropping {
                    self.dropping = false;
                    emit(JsonEvent::Oversized);
                } else {
                    emit(JsonEvent::Line(std::mem::take(&mut self.line)));
                }
            } else if self.dropping {
                // Discard until the newline resynchronizes the stream.
            } else {
                self.line.push(b);
                if self.line.len() > self.max {
                    self.line.clear();
                    self.dropping = true;
                }
            }
        }
    }
}

struct Conn {
    stream: TcpStream,
    proto: Proto,
    /// Bytes ready to write, response order.
    out: VecDeque<u8>,
    /// Sequence number assigned to the next frame read off this conn.
    next_seq: u64,
    /// Sequence number of the next response allowed into `out`.
    next_to_send: u64,
    /// Responses that completed out of order, waiting their turn.
    ready: BTreeMap<u64, Vec<u8>>,
    /// No more frames are read; the conn closes once fully flushed.
    closing: bool,
    /// POLLIN withheld because `out` passed the high watermark.
    paused: bool,
    /// Interest bits currently registered with the poller.
    interest: i16,
    /// Shared with every job this connection submitted; cancelled when
    /// the connection is reaped so workers shed its dead work.
    cancel: CancelToken,
    /// Last read progress or response delivery, for the idle sweep.
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, proto: Proto) -> Self {
        Conn {
            stream,
            proto,
            out: VecDeque::new(),
            next_seq: 0,
            next_to_send: 0,
            ready: BTreeMap::new(),
            closing: false,
            paused: false,
            interest: POLLIN,
            cancel: CancelToken::new(),
            last_activity: Instant::now(),
        }
    }

    /// All assigned frames answered and all bytes written.
    fn flushed(&self) -> bool {
        self.out.is_empty() && self.next_to_send == self.next_seq
    }

    fn desired_interest(&self) -> i16 {
        let mut i = 0;
        if !self.closing && !self.paused {
            i |= POLLIN;
        }
        if !self.out.is_empty() {
            i |= POLLOUT;
        }
        i
    }
}

/// An event-driven TCP listener over a shared [`Service`]. Unix-only
/// (`poll(2)`); on other platforms use the threaded
/// [`Server`](crate::server::Server).
pub struct EventServer {
    listener: TcpListener,
    service: Arc<Service>,
}

impl EventServer {
    /// Binds `addr` and prepares the event loop.
    pub fn bind(addr: &str, service: Arc<Service>) -> io::Result<EventServer> {
        Ok(EventServer {
            listener: TcpListener::bind(addr)?,
            service,
        })
    }

    /// Wraps an already-bound listener (tests pick port 0 this way).
    pub fn attach(listener: TcpListener, service: Arc<Service>) -> EventServer {
        EventServer { listener, service }
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Runs the event loop until shutdown, then drains and joins the
    /// worker pool.
    pub fn run(self, mode: ProtoMode) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        // std's listen backlog is 128; a connect flood overflows that
        // long before the loop itself is the bottleneck. Best-effort —
        // the loop works either way, slow-accept clients just retry.
        let _ = set_backlog(self.listener.as_raw_fd(), 4096);
        let (mut wake, waker) = wake_pair()?;
        let completions: Completions = Arc::new(Mutex::new(Vec::new()));

        let mut poller = Poller::new();
        let listener_fd = self.listener.as_raw_fd();
        let wake_fd = wake.fd();
        poller.register(listener_fd, POLLIN);
        poller.register(wake_fd, POLLIN);

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut by_fd: HashMap<RawFd, u64> = HashMap::new();
        let mut next_conn_id: u64 = 0;
        let mut accepting = true;
        let mut events = Vec::new();
        let mut touched: Vec<u64> = Vec::new();
        let mut dead: Vec<u64> = Vec::new();
        let mut buf = vec![0u8; READ_CHUNK];

        loop {
            // A bounded wait so an external shutdown() is noticed promptly
            // even with no traffic.
            poller.wait(Some(Duration::from_millis(100)), &mut events)?;
            touched.clear();
            dead.clear();

            for ev in &events {
                if ev.fd == listener_fd {
                    if !accepting {
                        continue;
                    }
                    loop {
                        match self.listener.accept() {
                            Ok((stream, _)) => {
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                let _ = stream.set_nodelay(true);
                                self.service.ins().connections.inc();
                                let proto = match mode {
                                    ProtoMode::Auto => Proto::Detecting(Vec::new()),
                                    ProtoMode::Json => Proto::Json(JsonLines::new(
                                        self.service.config().max_frame_bytes,
                                    )),
                                };
                                let id = next_conn_id;
                                next_conn_id += 1;
                                let fd = stream.as_raw_fd();
                                conns.insert(id, Conn::new(stream, proto));
                                by_fd.insert(fd, id);
                                poller.register(fd, POLLIN);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                    continue;
                }
                if ev.fd == wake_fd {
                    wake.drain();
                    continue;
                }
                let Some(&id) = by_fd.get(&ev.fd) else {
                    continue;
                };
                let conn = conns.get_mut(&id).expect("by_fd and conns in sync");
                if ev.broken() {
                    dead.push(id);
                    continue;
                }
                let mut broken = false;
                if ev.readable() && !conn.closing && !conn.paused {
                    broken = read_conn(
                        conn,
                        id,
                        &mut buf,
                        &self.service,
                        &completions,
                        &waker,
                        mode,
                    );
                }
                if ev.writable() {
                    broken = broken || flush_conn(conn);
                }
                if broken {
                    dead.push(id);
                } else {
                    touched.push(id);
                }
            }

            // Deliver finished responses in request order, per connection.
            let done: Vec<Completion> = std::mem::take(&mut *completions.lock().unwrap());
            for c in done {
                let Some(conn) = conns.get_mut(&c.conn) else {
                    // The connection died while its job ran; drop the bytes.
                    continue;
                };
                conn.ready.insert(c.seq, c.bytes);
                conn.last_activity = Instant::now();
                if c.shutdown {
                    conn.closing = true;
                }
                while let Some(bytes) = conn.ready.remove(&conn.next_to_send) {
                    conn.out.extend(bytes);
                    conn.next_to_send += 1;
                }
                if flush_conn(conn) {
                    dead.push(c.conn);
                } else {
                    touched.push(c.conn);
                }
            }

            // Slow-loris guard: a connection that made no read progress for
            // the idle timeout and is owed nothing (no in-flight response,
            // nothing buffered) is reaped — half-open peers and half-frame
            // writers can no longer pin a slot forever. ZERO disables it.
            let idle_timeout = self.service.config().idle_timeout;
            if !idle_timeout.is_zero() {
                for (&id, conn) in conns.iter() {
                    if !conn.closing
                        && conn.flushed()
                        && conn.last_activity.elapsed() >= idle_timeout
                    {
                        self.service.ins().idle_disconnects.inc();
                        dead.push(id);
                    }
                }
            }

            // Global shutdown: stop accepting, stop reading, drain.
            if self.service.is_shutdown() {
                if accepting {
                    accepting = false;
                    poller.deregister(listener_fd);
                }
                for (&id, conn) in conns.iter_mut() {
                    if !conn.closing {
                        conn.closing = true;
                        touched.push(id);
                    }
                }
            }

            // Re-register interest and reap finished/dead connections.
            for &id in touched.iter() {
                let Some(conn) = conns.get_mut(&id) else {
                    continue;
                };
                if conn.out.len() >= WRITE_HIGH_WATER {
                    conn.paused = true;
                } else if conn.paused && conn.out.len() <= WRITE_LOW_WATER {
                    conn.paused = false;
                }
                if conn.closing && conn.flushed() {
                    dead.push(id);
                    continue;
                }
                let want = conn.desired_interest();
                if want != conn.interest {
                    conn.interest = want;
                    poller.reregister(conn.stream.as_raw_fd(), want);
                }
            }
            for &id in dead.iter() {
                if let Some(conn) = conns.remove(&id) {
                    // Nobody is left to read the answers: flag every job
                    // this connection submitted so workers shed them
                    // instead of burning solver passes on dead work.
                    conn.cancel.cancel();
                    let fd = conn.stream.as_raw_fd();
                    poller.deregister(fd);
                    by_fd.remove(&fd);
                }
            }

            if self.service.is_shutdown() && conns.is_empty() {
                break;
            }
        }
        self.service.join_workers();
        Ok(())
    }
}

/// Reads everything available from one connection and feeds the state
/// machine. Returns `true` when the connection is gone.
fn read_conn(
    conn: &mut Conn,
    id: u64,
    buf: &mut [u8],
    service: &Arc<Service>,
    completions: &Completions,
    waker: &Waker,
    mode: ProtoMode,
) -> bool {
    loop {
        match conn.stream.read(buf) {
            Ok(0) => {
                // EOF: no more frames will arrive; flush what is owed.
                conn.closing = true;
                return false;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                feed_bytes(conn, id, &buf[..n], service, completions, waker, mode);
                if conn.closing || conn.out.len() >= WRITE_HIGH_WATER {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

/// Routes a chunk of fresh bytes through the connection's protocol state.
fn feed_bytes(
    conn: &mut Conn,
    id: u64,
    chunk: &[u8],
    service: &Arc<Service>,
    completions: &Completions,
    waker: &Waker,
    mode: ProtoMode,
) {
    // Resolve detection first so the real protocol sees the whole prefix.
    if let Proto::Detecting(prefix) = &mut conn.proto {
        prefix.extend_from_slice(chunk);
        let decided = match detect(prefix) {
            Detect::NeedMore => return,
            Detect::Binary if mode == ProtoMode::Auto => {
                Proto::Binary(FrameDecoder::new(service.config().max_frame_bytes))
            }
            _ => Proto::Json(JsonLines::new(service.config().max_frame_bytes)),
        };
        let buffered = std::mem::take(prefix);
        conn.proto = decided;
        feed_decided(conn, id, &buffered, service, completions, waker);
        return;
    }
    feed_decided(conn, id, chunk, service, completions, waker);
}

fn feed_decided(
    conn: &mut Conn,
    id: u64,
    chunk: &[u8],
    service: &Arc<Service>,
    completions: &Completions,
    waker: &Waker,
) {
    match &mut conn.proto {
        Proto::Detecting(_) => unreachable!("detection resolved by feed_bytes"),
        Proto::Json(lines) => {
            let mut frames: Vec<JsonEvent> = Vec::new();
            lines.feed(chunk, |ev| frames.push(ev));
            for ev in frames {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                match ev {
                    JsonEvent::Oversized => {
                        let mut line = service.oversized_frame_response().into_bytes();
                        line.push(b'\n');
                        push_completion(completions, waker, id, seq, line, false);
                    }
                    JsonEvent::Line(line) => {
                        let (completions, waker) = (Arc::clone(completions), waker.clone());
                        service.handle_frame_async(
                            &line,
                            conn.cancel.clone(),
                            Box::new(move |resp| {
                                let mut bytes = resp.line.into_bytes();
                                bytes.push(b'\n');
                                push_completion(
                                    &completions,
                                    &waker,
                                    id,
                                    seq,
                                    bytes,
                                    resp.shutdown,
                                );
                            }),
                        );
                    }
                }
            }
        }
        Proto::Binary(decoder) => {
            decoder.extend(chunk);
            loop {
                match decoder.next() {
                    Ok(None) => break,
                    Ok(Some(FrameEvent::Oversized { declared, .. })) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let resp = service.oversized_binary_response(declared);
                        push_completion(completions, waker, id, seq, resp.frame, false);
                    }
                    Ok(Some(FrameEvent::Frame { tag, payload })) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let (completions, waker) = (Arc::clone(completions), waker.clone());
                        service.handle_binary_frame_async_ctrl(
                            tag,
                            &payload,
                            conn.cancel.clone(),
                            Box::new(move |resp| {
                                push_completion(
                                    &completions,
                                    &waker,
                                    id,
                                    seq,
                                    resp.frame,
                                    resp.shutdown,
                                );
                            }),
                        );
                    }
                    Err(e) => {
                        // Framing is unrecoverable (bad magic mid-stream,
                        // CRC mismatch): answer once, then close.
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let err = ServiceError::new(
                            ErrorKind::Protocol,
                            format!("unrecoverable framing error: {e}"),
                        );
                        push_completion(completions, waker, id, seq, error_frame(0, &err), false);
                        conn.closing = true;
                        break;
                    }
                }
            }
        }
    }
}

fn push_completion(
    completions: &Completions,
    waker: &Waker,
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
    shutdown: bool,
) {
    completions.lock().unwrap().push(Completion {
        conn,
        seq,
        bytes,
        shutdown,
    });
    waker.wake();
}

/// Writes as much of the connection's buffered output as the socket
/// accepts. Returns `true` when the connection is gone.
fn flush_conn(conn: &mut Conn) -> bool {
    while !conn.out.is_empty() {
        let (head, _) = conn.out.as_slices();
        match conn.stream.write(head) {
            Ok(0) => return true,
            Ok(n) => {
                conn.out.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_split_and_cap() {
        let mut j = JsonLines::new(8);
        let mut got = Vec::new();
        j.feed(b"abc\nlongerthan8bytes\nde", |ev| got.push(ev));
        j.feed(b"f\n", |ev| got.push(ev));
        assert_eq!(got.len(), 3);
        assert!(matches!(&got[0], JsonEvent::Line(l) if l == b"abc"));
        assert!(matches!(&got[1], JsonEvent::Oversized));
        assert!(matches!(&got[2], JsonEvent::Line(l) if l == b"def"));
    }

    #[test]
    fn oversized_line_uses_bounded_memory() {
        let mut j = JsonLines::new(1024);
        let chunk = vec![b'x'; 64 << 10];
        for _ in 0..64 {
            j.feed(&chunk, |_| panic!("no newline yet"));
            assert!(j.line.len() <= 1025, "dropping should clear the buffer");
        }
        let mut got = Vec::new();
        j.feed(b"\n", |ev| got.push(ev));
        assert!(matches!(got.as_slice(), [JsonEvent::Oversized]));
    }
}
