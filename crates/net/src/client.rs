//! Blocking client with connection pooling and in-flight pipelining.
//!
//! A [`NetClient`] opens [`ClientOptions::pool`] connections up front and
//! round-robins requests across them. Each connection has one reader
//! thread that routes response frames to waiting callers **by request
//! id**, so any number of requests can be in flight on one socket at a
//! time — from many caller threads sharing the client, or from one thread
//! using [`NetClient::submit`] to fire before waiting (the open-loop load
//! generator's mode).
//!
//! Per-request deadlines ([`ClientOptions::deadline`] or
//! [`NetClient::infer_with_deadline`]) are encoded into the request frame
//! and enforced *server-side*: a late request comes back as a typed
//! [`Status::DeadlineExceeded`] frame rather than a client-side timeout,
//! so the server sheds the work instead of computing an answer nobody is
//! waiting for.
//!
//! A connection whose reader observes EOF or a transport error is marked
//! dead: its in-flight callers fail with [`NetError::Disconnected`], and
//! the next submission that lands on the slot transparently re-dials the
//! server — so a server-side graceful drain
//! ([`NetServer::drain_connections`](crate::NetServer::drain_connections))
//! costs clients one reconnect, not an error. Only when re-dialing also
//! fails (the server is really gone) does the slot stay dead and the
//! submission fall through to the next one. The client never panics on a
//! lost server.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::wire::{self, MetricsRequest, RequestFrame, StageMicros, Status};
use crate::{env_usize, DEFAULT_POOL, NET_POOL_ENV};

/// Configuration for a [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Connections opened to the server. Defaults to [`NET_POOL_ENV`]
    /// or 2.
    pub pool: usize,
    /// Default per-request deadline encoded into every frame (overridable
    /// per call); `None` sends no deadline.
    pub deadline: Option<Duration>,
    /// Model name sent in every frame; empty matches the server's
    /// deployed model.
    pub model: String,
    /// Tenant name sent in every frame. Empty (the default) keeps the
    /// client on the v1 wire protocol; non-empty upgrades frames to
    /// `VRQ2` and routes to that tenant's lane on multi-tenant servers.
    pub tenant: String,
    /// Target input side sent in every frame; 0 defers to the server.
    pub side: u16,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            pool: env_usize(NET_POOL_ENV, DEFAULT_POOL),
            deadline: None,
            model: String::new(),
            tenant: String::new(),
            side: 0,
        }
    }
}

/// One completed remote inference with both server-measured stage times
/// (from the response frame) and client-measured wire times.
#[derive(Debug, Clone)]
pub struct NetResult {
    /// Model output (flat probabilities), bit-identical to what the
    /// in-process `LiveServer` returns for the same payload.
    pub output: Vec<f32>,
    /// Inference batch size the request rode in.
    pub batch_size: usize,
    /// Server-measured: reading this request's bytes off the socket.
    pub transfer: Duration,
    /// Server-measured: parsing and validating the frame.
    pub deserialize: Duration,
    /// Server-measured: ingress + batcher queueing.
    pub queue: Duration,
    /// Server-measured: JPEG decode + resize + normalize.
    pub preproc: Duration,
    /// Server-measured: per-item share of the batched forward pass.
    pub inference: Duration,
    /// Server-measured: frame receipt → response ready.
    pub server_total: Duration,
    /// Client-measured: request frame encoding time.
    pub serialize: Duration,
    /// Client-measured: write start → response decoded (the full RPC).
    pub round_trip: Duration,
}

/// Errors returned by [`NetClient`] calls.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure on the socket.
    Io(std::io::Error),
    /// The server answered with a non-`Ok` typed status frame.
    Server {
        /// The typed status ([`Status::Overloaded`],
        /// [`Status::DeadlineExceeded`], …).
        status: Status,
        /// The server's diagnostic message.
        msg: String,
    },
    /// The connection died (or the server shut down) before the response
    /// arrived.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Server { status, msg } => write!(f, "server answered {status}: {msg}"),
            NetError::Disconnected => write!(f, "connection lost before response"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Response routing table: request id → waiting caller. `None` once the
/// connection is dead.
type PendingMap = Option<HashMap<u64, SyncSender<Result<NetResult, NetError>>>>;

struct Conn {
    write: Mutex<TcpStream>,
    pending: Arc<Mutex<PendingMap>>,
    /// Clone used to shut the socket down at drop (wakes the reader).
    stream: TcpStream,
    reader: Mutex<Option<JoinHandle<()>>>,
}

/// A pooled, pipelining client for a [`NetServer`](crate::NetServer).
///
/// Each pool slot holds the slot's *current* connection; a slot whose
/// connection died is re-dialed on the next submission that reaches it
/// (reconnect-on-drain).
pub struct NetClient {
    conns: Vec<Mutex<Arc<Conn>>>,
    next_conn: AtomicUsize,
    next_id: AtomicU64,
    opts: ClientOptions,
    addr: SocketAddr,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("pool", &self.conns.len())
            .finish()
    }
}

/// An in-flight request; [`wait`](Self::wait) blocks for its response.
pub struct PendingReply {
    rx: Receiver<Result<NetResult, NetError>>,
    sent: Instant,
    serialize: Duration,
}

impl PendingReply {
    /// Blocks until the response frame arrives (or the connection dies)
    /// and stamps the client-side timings into the result.
    pub fn wait(self) -> Result<NetResult, NetError> {
        let mut r = self.rx.recv().unwrap_or(Err(NetError::Disconnected))?;
        r.round_trip = self.sent.elapsed();
        r.serialize = self.serialize;
        Ok(r)
    }
}

impl NetClient {
    /// Opens [`ClientOptions::pool`] connections to `addr` and starts
    /// their reader threads.
    ///
    /// # Errors
    ///
    /// Returns the first connect error if any connection fails.
    pub fn connect(addr: SocketAddr, opts: ClientOptions) -> std::io::Result<NetClient> {
        let mut conns = Vec::with_capacity(opts.pool.max(1));
        for _ in 0..opts.pool.max(1) {
            conns.push(Mutex::new(Arc::new(Conn::open(addr)?)));
        }
        Ok(NetClient {
            conns,
            next_conn: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            opts,
            addr,
        })
    }

    /// Fetches the server's plain-text metrics exposition over a `VRM1`
    /// scrape frame. Uses a dedicated short-lived connection so a scrape
    /// never competes with pipelined inference traffic for frame order.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`NetError::Io`] /
    /// [`NetError::Disconnected`]; a typed server rejection as
    /// [`NetError::Server`].
    pub fn scrape(&self) -> Result<String, NetError> {
        scrape(self.addr)
    }

    /// Sends `jpeg` and blocks for the classification result.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] carries any typed rejection (overload,
    /// deadline, decode failure); transport problems surface as
    /// [`NetError::Io`] / [`NetError::Disconnected`].
    pub fn infer(&self, jpeg: &[u8]) -> Result<NetResult, NetError> {
        self.submit_with_deadline(jpeg, self.opts.deadline)?.wait()
    }

    /// Like [`infer`](Self::infer) with an explicit deadline overriding
    /// [`ClientOptions::deadline`].
    pub fn infer_with_deadline(
        &self,
        jpeg: &[u8],
        deadline: Option<Duration>,
    ) -> Result<NetResult, NetError> {
        self.submit_with_deadline(jpeg, deadline)?.wait()
    }

    /// Fires a request without waiting — the pipelining primitive. The
    /// returned [`PendingReply`] resolves when the response frame arrives;
    /// any number may be outstanding per connection.
    pub fn submit(&self, jpeg: &[u8]) -> Result<PendingReply, NetError> {
        self.submit_with_deadline(jpeg, self.opts.deadline)
    }

    /// [`submit`](Self::submit) with an explicit per-request deadline.
    ///
    /// # Errors
    ///
    /// A payload longer than [`wire::MAX_PAYLOAD_LEN`] is refused with
    /// [`NetError::Io`] (`InvalidInput`) before anything is sent — the
    /// frame encoder would otherwise clip it and the server would decode
    /// a corrupted image.
    pub fn submit_with_deadline(
        &self,
        jpeg: &[u8],
        deadline: Option<Duration>,
    ) -> Result<PendingReply, NetError> {
        if jpeg.len() > wire::MAX_PAYLOAD_LEN {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "payload of {} bytes exceeds the wire limit of {} bytes",
                    jpeg.len(),
                    wire::MAX_PAYLOAD_LEN
                ),
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline_us = deadline_us(deadline);
        let t0 = Instant::now();
        // Only the header is built; the payload goes out from the
        // caller's slice.
        let mut header = Vec::with_capacity(64);
        let jpeg = wire::encode_request_header(
            &mut header,
            &RequestFrame {
                id,
                side: self.opts.side,
                deadline_us,
                model: &self.opts.model,
                tenant: &self.opts.tenant,
                jpeg,
            },
        );
        let serialize = t0.elapsed();

        // Round-robin over the pool; a slot whose connection died (e.g.
        // the server drained it) is transparently re-dialed, and only
        // skipped when the re-dial also fails.
        let start = self.next_conn.fetch_add(1, Ordering::Relaxed);
        for i in 0..self.conns.len() {
            let slot = &self.conns[(start + i) % self.conns.len()];
            let conn = {
                let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
                if slot.dead() {
                    match Conn::open(self.addr) {
                        Ok(fresh) => *slot = Arc::new(fresh),
                        Err(_) => continue, // server really gone; next slot
                    }
                }
                Arc::clone(&slot)
            };
            let (tx, rx) = sync_channel(1);
            {
                let mut pending = conn.pending.lock().unwrap_or_else(|e| e.into_inner());
                match pending.as_mut() {
                    Some(map) => {
                        map.insert(id, tx);
                    }
                    None => continue, // reader saw EOF: connection is dead
                }
            }
            let sent = Instant::now();
            let write = {
                let mut w = conn.write.lock().unwrap_or_else(|e| e.into_inner());
                wire::write_frame_parts(&mut *w, &header, jpeg)
            };
            if let Err(e) = write {
                // Undo the registration; the reader may also be failing
                // everything right now, which is fine.
                if let Ok(mut pending) = conn.pending.lock() {
                    if let Some(map) = pending.as_mut() {
                        map.remove(&id);
                    }
                }
                return Err(NetError::Io(e));
            }
            return Ok(PendingReply {
                rx,
                sent,
                serialize,
            });
        }
        Err(NetError::Disconnected)
    }

    /// Number of pooled connections currently alive. Dead slots are
    /// counted as dead until a submission re-dials them; this does not
    /// reconnect.
    pub fn live_conns(&self) -> usize {
        self.conns
            .iter()
            .filter(|s| !s.lock().unwrap_or_else(|e| e.into_inner()).dead())
            .count()
    }
}

/// The frame's deadline field in µs. The wire reads 0 as "no deadline",
/// so a deadline that is present clamps into `1..=u32::MAX` — the
/// strictest one (`Duration::ZERO`) must not turn into none.
fn deadline_us(deadline: Option<Duration>) -> u32 {
    deadline.map_or(0, |d| d.as_micros().clamp(1, u32::MAX as u128) as u32)
}

/// One-shot metrics scrape: connect, send a `VRM1` frame, read the reply.
///
/// This is the standalone form of [`NetClient::scrape`] for tools that
/// poll a server without holding a connection pool (the framed protocol's
/// `curl host/metrics`).
///
/// # Errors
///
/// Transport failures surface as [`NetError::Io`] /
/// [`NetError::Disconnected`]; a typed server rejection as
/// [`NetError::Server`].
pub fn scrape(addr: SocketAddr) -> Result<String, NetError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut frame = Vec::new();
    wire::encode_metrics_request(&mut frame, &MetricsRequest { id: 1, flags: 0 });
    stream.write_all(&frame)?;
    let mut body = Vec::new();
    match wire::read_frame_into(&mut stream, &mut body) {
        Ok(Some(_)) => {}
        Ok(None) => return Err(NetError::Disconnected),
        Err(e) => return Err(NetError::Io(e)),
    }
    let resp = wire::decode_response(&body).map_err(|_| NetError::Disconnected)?;
    match resp.status {
        Status::Ok => Ok(resp.msg.to_owned()),
        status => Err(NetError::Server {
            status,
            msg: resp.msg.to_owned(),
        }),
    }
}

impl Drop for Conn {
    // Runs when the last handle goes — client drop, or a replaced slot's
    // old connection once in-flight borrowers finish with it.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.lock().ok().and_then(|mut r| r.take()) {
            let _ = h.join();
        }
    }
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let write = stream.try_clone()?;
        let read = stream.try_clone()?;
        let pending: Arc<Mutex<PendingMap>> = Arc::new(Mutex::new(Some(HashMap::new())));
        let reader = {
            let pending = Arc::clone(&pending);
            std::thread::spawn(move || read_responses(read, pending))
        };
        Ok(Conn {
            write: Mutex::new(write),
            pending,
            stream,
            reader: Mutex::new(Some(reader)),
        })
    }

    /// True once the reader saw EOF or a transport error.
    fn dead(&self) -> bool {
        self.pending.lock().map(|p| p.is_none()).unwrap_or(true)
    }
}

/// Reader loop: routes each response frame to its registered caller by
/// id; on EOF or transport error, kills the connection and fails every
/// waiter with [`NetError::Disconnected`].
fn read_responses(mut stream: TcpStream, pending: Arc<Mutex<PendingMap>>) {
    let mut body = Vec::new();
    loop {
        match wire::read_frame_into(&mut stream, &mut body) {
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => break,
        }
        let resp = match wire::decode_response(&body) {
            Ok(r) => r,
            Err(_) => break, // server-side framing bug; give up on the conn
        };
        let result = match resp.status {
            Status::Ok => {
                let StageMicros {
                    transfer_us,
                    deserialize_us,
                    queue_us,
                    preproc_us,
                    inference_us,
                    total_us,
                } = resp.stages;
                Ok(NetResult {
                    output: resp.output_vec(),
                    batch_size: resp.batch as usize,
                    transfer: Duration::from_micros(transfer_us),
                    deserialize: Duration::from_micros(deserialize_us),
                    queue: Duration::from_micros(queue_us),
                    preproc: Duration::from_micros(preproc_us),
                    inference: Duration::from_micros(inference_us),
                    server_total: Duration::from_micros(total_us),
                    serialize: Duration::ZERO,  // stamped by PendingReply
                    round_trip: Duration::ZERO, // stamped by PendingReply
                })
            }
            status => Err(NetError::Server {
                status,
                msg: resp.msg.to_owned(),
            }),
        };
        let waiter = {
            let mut p = pending.lock().unwrap_or_else(|e| e.into_inner());
            p.as_mut().and_then(|map| map.remove(&resp.id))
        };
        match waiter {
            Some(tx) => {
                let _ = tx.send(result);
            }
            None => {
                // An unsolicited id — e.g. the server's id-0 BadFrame
                // notice before closing. Nothing to route it to.
            }
        }
    }
    // Mark dead and fail everything still in flight.
    let waiters = {
        let mut p = pending.lock().unwrap_or_else(|e| e.into_inner());
        p.take()
    };
    if let Some(map) = waiters {
        for (_, tx) in map {
            let _ = tx.send(Err(NetError::Disconnected));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NetOptions, NetServer};
    use vserve_dnn::{models, Model};
    use vserve_server::live::LiveOptions;
    use vserve_workload::synthetic_jpeg;

    fn bind_tiny() -> NetServer {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        NetServer::bind(
            model,
            NetOptions {
                live: LiveOptions {
                    input_side: 32,
                    backend_threads: 1,
                    ..LiveOptions::default()
                },
                ..NetOptions::default()
            },
        )
        .expect("bind loopback")
    }

    fn spec(side: usize, seed: u64) -> Vec<u8> {
        synthetic_jpeg(&vserve_device::ImageSpec::new(side, side, 0), seed)
    }

    #[test]
    fn deadline_field_keeps_a_present_deadline_nonzero() {
        assert_eq!(deadline_us(None), 0);
        assert_eq!(deadline_us(Some(Duration::ZERO)), 1);
        assert_eq!(deadline_us(Some(Duration::from_micros(1))), 1);
        assert_eq!(deadline_us(Some(Duration::from_secs(2 * 3600))), u32::MAX);
    }

    #[test]
    fn oversized_payload_is_refused_before_the_wire() {
        let server = bind_tiny();
        let client = NetClient::connect(server.local_addr(), ClientOptions::default()).unwrap();
        let too_long = vec![0u8; wire::MAX_PAYLOAD_LEN + 1];
        match client.submit(&too_long) {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
            Err(other) => panic!("expected InvalidInput, got {other}"),
            Ok(_) => panic!("a clipped payload must not be sent"),
        }
        // Nothing was registered or written: the pool is intact and the
        // server never saw a frame.
        assert_eq!(client.live_conns(), ClientOptions::default().pool);
        assert_eq!(server.metrics().frames, 0);
        assert_eq!(client.infer(&spec(48, 1)).unwrap().output.len(), 10);
        assert_eq!(server.metrics().frames, 1);
    }

    #[test]
    fn pipelined_submissions_resolve_by_id() {
        let server = bind_tiny();
        let client = NetClient::connect(
            server.local_addr(),
            ClientOptions {
                pool: 1, // force every request onto ONE socket
                ..ClientOptions::default()
            },
        )
        .unwrap();
        // Fire 10 requests before waiting on any: true pipelining.
        let payloads: Vec<_> = (0..10).map(|i| spec(48, i)).collect();
        let pending: Vec<_> = payloads.iter().map(|p| client.submit(p).unwrap()).collect();
        let results: Vec<_> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
        assert_eq!(results.len(), 10);
        for r in &results {
            assert_eq!(r.output.len(), 10);
            assert!(r.round_trip >= r.inference);
        }
        // Distinct payloads must produce the answers of *their own*
        // request, not a shifted neighbor's: results differ pairwise.
        assert!(
            results.windows(2).any(|w| w[0].output != w[1].output),
            "distinct payloads should give distinct outputs"
        );
        assert_eq!(server.metrics().live.completed, 10);
    }

    #[test]
    fn pool_spreads_connections() {
        let server = bind_tiny();
        let client = NetClient::connect(
            server.local_addr(),
            ClientOptions {
                pool: 3,
                ..ClientOptions::default()
            },
        )
        .unwrap();
        assert_eq!(client.live_conns(), 3);
        // TCP connects complete in the kernel backlog before the acceptor
        // thread runs; poll briefly for the accept counter to catch up.
        for _ in 0..200 {
            if server.metrics().accepted == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.metrics().accepted, 3);
        for i in 0..6 {
            assert_eq!(client.infer(&spec(48, i)).unwrap().output.len(), 10);
        }
    }

    #[test]
    fn deadline_propagates_into_typed_shed() {
        let server = bind_tiny();
        let client = NetClient::connect(server.local_addr(), ClientOptions::default()).unwrap();
        let err = client
            .infer_with_deadline(&spec(48, 1), Some(Duration::from_micros(1)))
            .unwrap_err();
        match err {
            NetError::Server { status, .. } => {
                assert_eq!(status, Status::DeadlineExceeded);
            }
            other => panic!("expected typed deadline shed, got {other}"),
        }
        // The connection survives the shed.
        assert_eq!(client.infer(&spec(48, 2)).unwrap().output.len(), 10);
        let m = server.metrics();
        assert_eq!(m.live.expired, 1);
        assert_eq!(m.live.completed, 1);
    }

    #[test]
    fn server_gone_fails_in_flight_with_disconnected() {
        let server = bind_tiny();
        let client = NetClient::connect(
            server.local_addr(),
            ClientOptions {
                pool: 1,
                ..ClientOptions::default()
            },
        )
        .unwrap();
        let _ = client.infer(&spec(48, 1)).unwrap();
        drop(server);
        // Wait for the reader to notice the close.
        for _ in 0..200 {
            if client.live_conns() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(client.live_conns(), 0);
        match client.infer(&spec(48, 2)).unwrap_err() {
            NetError::Disconnected | NetError::Io(_) => {}
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn reconnects_transparently_after_server_drain() {
        let server = bind_tiny();
        let client = NetClient::connect(
            server.local_addr(),
            ClientOptions {
                pool: 1,
                ..ClientOptions::default()
            },
        )
        .unwrap();
        assert_eq!(client.infer(&spec(48, 1)).unwrap().output.len(), 10);

        // The server gracefully drains its current connections (e.g. a
        // rolling restart) but keeps accepting new ones.
        server.drain_connections();
        for _ in 0..400 {
            if client.live_conns() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(client.live_conns(), 0, "drain should close the pooled conn");

        // The next request transparently re-dials: no error surfaces.
        assert_eq!(client.infer(&spec(48, 2)).unwrap().output.len(), 10);
        assert_eq!(client.live_conns(), 1);
        let m = server.metrics();
        assert!(m.accepted >= 2, "reconnect must open a fresh conn");
        assert_eq!(m.live.completed, 2);
    }
}
