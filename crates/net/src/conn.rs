//! Per-connection state machines for the front-end's event loop.
//!
//! Each accepted socket becomes a [`Conn`] driven entirely by readiness
//! callbacks from the event loop in `server.rs` — no thread ever blocks
//! on a connection. The state machine is:
//!
//! ```text
//!             readable                    EOF / bad frame / drain
//!   ┌──────┐ ─────────► frames submitted ───────────────────────┐
//!   │ Open │ ◄───────── replies flushed                         ▼
//!   └──────┘  writable                                   ┌──────────┐
//!      ▲  read paused while inflight ≥ cap               │ Draining │
//!      │  or write buffer ≥ high-water                   └──────────┘
//!      │                                                       │
//!      └─── hard error (reset / hangup) ──► closed ◄── in-flight
//!                                                      resolved + flushed
//! ```
//!
//! * **Open** — frames are assembled incrementally ([`FrameAssembler`]),
//!   decoded, and submitted to the live server with a completion hook;
//!   replies are resolved *in request order* and flushed greedily, with
//!   the unflushed remainder buffered and gated on write readiness.
//! * **Draining** — no more reads; in-flight requests finish, their
//!   replies flush, then the socket closes. Entered on client half-close
//!   (EOF), on a malformed frame (after the typed `BadFrame` reply), and
//!   on server-initiated drain ([`NetServer::drain_connections`] /
//!   shutdown).
//!
//! Flow control is two-sided: the connection stops *reading* (and
//! therefore stops admitting frames) while it has
//! [`max_inflight_per_conn`](crate::NetOptions::max_inflight_per_conn)
//! requests outstanding or more than
//! [`write_hwm_bytes`](crate::NetOptions::write_hwm_bytes) of unflushed
//! replies — a stalled reader eventually stalls its own sender via TCP
//! backpressure instead of growing server memory.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vserve_server::live::{
    LiveError, LiveResult, LiveServer, Payload, ReplyReceiver, Request, Target,
};
use vserve_server::stages;
use vserve_trace::TraceHandle;

use crate::poller::WakeHandle;
use crate::server::{render_exposition, NetShared, TRACE_WIRE_ID_MASK};
use crate::wire::{self, FrameAssembler, ResponseFrame, StageMicros, Status, WireError};

/// Completion tokens pushed by reply hooks: `(conn_token, slot_seq)`.
pub(crate) type Completions = Arc<Mutex<Vec<(u64, u64)>>>;

/// Everything a connection needs from the event loop's environment.
pub(crate) struct Ctx<'a> {
    pub shared: &'a NetShared,
    pub live: &'a LiveServer,
    pub tr: &'a TraceHandle,
    pub completions: &'a Completions,
    pub wake: &'a WakeHandle,
    pub max_inflight: usize,
    pub write_hwm: usize,
}

/// Lifecycle phase; `Closed` is expressed by the loop dropping the conn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    Open,
    Draining,
}

/// One in-order response slot. Requests enter as `Waiting`; immediate
/// replies (scrape, typed rejections) enter pre-encoded as `Ready`.
enum Slot {
    Waiting {
        seq: u64,
        id: u64,
        transfer: Duration,
        deserialize: Duration,
        rx: ReplyReceiver,
        done: bool,
    },
    Ready {
        buf: Vec<u8>,
    },
}

/// What the event loop should do with the connection after a callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Keep the connection registered.
    Keep,
    /// Fully served (or errored): unregister, close, free the slot.
    Close,
}

pub(crate) struct Conn {
    pub stream: TcpStream,
    /// Slab token (generation | index) completions and poll events carry.
    pub token: u64,
    /// Monotonic connection id composed into trace ids.
    pub conn_id: u64,
    pub state: ConnState,
    asm: FrameAssembler,
    /// Unflushed encoded reply bytes; `out_pos` is the flushed prefix.
    out: Vec<u8>,
    out_pos: usize,
    slots: VecDeque<Slot>,
    next_seq: u64,
    inflight: usize,
    /// Set once reads stop forever (EOF, bad frame, drain).
    read_closed: bool,
    /// Interest last applied to the poller, `(read, write)`.
    pub applied: (bool, bool),
    /// Lifetime high-water mark of the write buffer, for the gauge.
    pub out_hwm: usize,
}

impl Conn {
    pub fn new(stream: TcpStream, conn_id: u64, token: u64) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            token,
            conn_id,
            state: ConnState::Open,
            asm: FrameAssembler::new(),
            out: Vec::new(),
            out_pos: 0,
            slots: VecDeque::new(),
            next_seq: 0,
            inflight: 0,
            read_closed: false,
            applied: (true, false),
            out_hwm: 0,
        })
    }

    /// Heap the request-side buffer holds right now, for the gauge.
    pub fn read_capacity(&self) -> usize {
        self.asm.capacity()
    }

    fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Reading is paused while flow control binds (in-flight cap hit, or
    /// the write buffer past its high-water mark).
    fn read_paused(&self, ctx: &Ctx<'_>) -> bool {
        self.inflight >= ctx.max_inflight || self.out_len() >= ctx.write_hwm
    }

    /// The readiness interest the poller should watch for this conn.
    pub fn desired_interest(&self, ctx: &Ctx<'_>) -> (bool, bool) {
        let read = self.state == ConnState::Open && !self.read_closed && !self.read_paused(ctx);
        let write = self.out_len() > 0;
        (read, write)
    }

    /// Server-initiated drain: stop reading, finish in-flight, flush,
    /// close.
    pub fn begin_drain(&mut self) {
        self.read_closed = true;
        self.state = ConnState::Draining;
    }

    /// Handles read readiness: drain the socket nonblockingly, assemble
    /// frames, admit as many as flow control allows. Returns `Close` only
    /// on a hard error (reset); EOF and protocol errors transition to
    /// `Draining` so buffered replies still go out.
    pub fn on_readable(&mut self, ctx: &Ctx<'_>) -> Verdict {
        if self.read_closed {
            return Verdict::Keep;
        }
        loop {
            // Admit buffered frames first so the pause check below sees
            // the true in-flight count. A bad length prefix completed by
            // the last read surfaces here too.
            self.admit_frames(ctx);
            if self.read_closed || self.read_paused(ctx) {
                return Verdict::Keep;
            }
            match self.asm.read_from(&mut self.stream) {
                Ok(0) => {
                    // Half-close: the peer is done sending. Finish what
                    // is in flight and reply-flush before closing.
                    self.begin_drain();
                    return Verdict::Keep;
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Verdict::Keep,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Verdict::Close,
            }
        }
    }

    /// Pulls complete frames out of the assembler while flow control
    /// admits them.
    fn admit_frames(&mut self, ctx: &Ctx<'_>) {
        while !self.read_closed && !self.read_paused(ctx) {
            match self.asm.next_frame_owned() {
                Ok(Some((body, transfer))) => self.process_frame(body, transfer, ctx),
                Ok(None) => break,
                Err(WireError(reason)) => {
                    self.reject_bad_frame(ctx, reason);
                    break;
                }
            }
        }
    }

    /// A malformed frame: typed `BadFrame` reply, then drain — the byte
    /// stream can no longer be re-framed.
    fn reject_bad_frame(&mut self, ctx: &Ctx<'_>, reason: &str) {
        ctx.shared.lock_metrics().bad_frames += 1;
        self.push_ready(0, Status::BadFrame, reason);
        self.begin_drain();
    }

    /// Encodes an immediate reply into an in-order `Ready` slot (or
    /// straight into the write buffer when nothing is ahead of it).
    fn push_ready(&mut self, id: u64, status: Status, msg: &str) {
        let frame = ResponseFrame {
            id,
            status,
            msg,
            batch: 0,
            stages: StageMicros::default(),
            output: &[],
        };
        if self.slots.is_empty() {
            wire::encode_response(&mut self.out, &frame);
            self.out_hwm = self.out_hwm.max(self.out_len());
        } else {
            let mut buf = Vec::new();
            wire::encode_response(&mut buf, &frame);
            self.slots.push_back(Slot::Ready { buf });
        }
    }

    /// Decodes and dispatches one complete frame body.
    fn process_frame(&mut self, body: Vec<u8>, transfer: Duration, ctx: &Ctx<'_>) {
        let t0 = Instant::now();
        if wire::is_metrics_request(&body) {
            match wire::decode_metrics_request(&body) {
                Ok(m) => {
                    ctx.shared.lock_metrics().frames += 1;
                    let doc = render_exposition(ctx.shared, ctx.live);
                    self.push_ready(m.id, Status::Ok, &doc);
                }
                Err(WireError(reason)) => self.reject_bad_frame(ctx, reason),
            }
            return;
        }
        let req = match wire::decode_request(&body) {
            Ok(r) => r,
            Err(WireError(reason)) => {
                self.reject_bad_frame(ctx, reason);
                return;
            }
        };
        let id = req.id;
        // A pipeline is named by bytes of the body, which is about to
        // move into the request: own the name.
        let (lane, pipeline) = match crate::server::route(&req, ctx.shared, ctx.live) {
            Ok(Target::Lane(lane)) => (lane, None),
            Ok(Target::Pipeline(name)) => (0, Some(name.to_owned())),
            Err((status, msg)) => {
                let close = status == Status::BadFrame;
                self.push_ready(id, status, &msg);
                if close {
                    self.begin_drain();
                }
                return;
            }
        };
        let target = pipeline
            .as_deref()
            .map_or(Target::Lane(lane), Target::Pipeline);
        let deadline = req.deadline();
        // The JPEG is the body's last field (`decode_request` rejects
        // trailing bytes): the request takes the body, not a copy.
        let jpeg_at = body.len() - req.jpeg.len();
        let nbytes = body.len() as u64;
        let jpeg = Payload::tail_of(body, jpeg_at);
        let deserialize = t0.elapsed();
        ctx.shared.lock_metrics().frames += 1;
        let trace_id = ((self.conn_id + 1) << 48) | (id & TRACE_WIRE_ID_MASK);
        ctx.tr.span(
            trace_id,
            stages::NET_TRANSFER,
            t0.checked_sub(transfer).unwrap_or(t0),
            t0,
            0,
            nbytes,
        );
        ctx.tr
            .span(trace_id, stages::DESERIALIZE, t0, Instant::now(), 0, nbytes);
        let seq = self.next_seq;
        self.next_seq += 1;
        let token = self.token;
        let completions = Arc::clone(ctx.completions);
        let wake = ctx.wake.clone();
        let hook: Box<dyn FnOnce() + Send> = Box::new(move || {
            completions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((token, seq));
            wake.wake();
        });
        let rx = ctx.live.submit_request(Request {
            target,
            jpeg,
            deadline,
            trace_id: Some(trace_id),
            hook: Some(hook),
        });
        self.slots.push_back(Slot::Waiting {
            seq,
            id,
            transfer,
            deserialize,
            rx,
            done: false,
        });
        self.inflight += 1;
    }

    /// Marks the slot carrying `seq` resolvable. Out-of-order completions
    /// are fine; replies still flush in request order.
    pub fn on_completion(&mut self, seq: u64) {
        for s in &mut self.slots {
            if let Slot::Waiting {
                seq: s_seq, done, ..
            } = s
            {
                if *s_seq == seq {
                    *done = true;
                    return;
                }
            }
        }
    }

    /// Resolves completed head slots into the write buffer, then writes
    /// as much as the socket accepts. Returns `Close` once a draining
    /// connection has fully flushed (or on a write error).
    pub fn flush(&mut self, ctx: &Ctx<'_>) -> Verdict {
        // Encode every resolved slot at the head, preserving order.
        loop {
            match self.slots.front() {
                Some(Slot::Ready { .. }) => {
                    if let Some(Slot::Ready { buf }) = self.slots.pop_front() {
                        self.out.extend_from_slice(&buf);
                    }
                }
                Some(Slot::Waiting { done: true, .. }) => {
                    if let Some(Slot::Waiting {
                        id,
                        transfer,
                        deserialize,
                        rx,
                        ..
                    }) = self.slots.pop_front()
                    {
                        self.inflight -= 1;
                        // The hook fired after the reply was sent, so a
                        // filled channel is guaranteed for replied
                        // requests; an empty one means the slot was
                        // dropped unreplied (live server shutdown).
                        let result = rx.try_recv().unwrap_or(Err(LiveError::Disconnected));
                        encode_result(&mut self.out, ctx.shared, id, transfer, deserialize, result);
                    }
                }
                _ => break,
            }
        }
        // Slots freed above may lift the in-flight pause, and frames the
        // assembler already holds have no readiness event coming.
        self.admit_frames(ctx);
        self.out_hwm = self.out_hwm.max(self.out_len());
        // Greedy write of whatever is buffered.
        while self.out_len() > 0 {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Verdict::Close,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Verdict::Close,
            }
        }
        if self.out_pos > 0 && self.out_len() == 0 {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            // Compact a large flushed prefix so the buffer does not grow
            // without bound under sustained partial writes.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        if self.state == ConnState::Draining && self.slots.is_empty() && self.out_len() == 0 {
            return Verdict::Close;
        }
        Verdict::Keep
    }
}

/// Encodes a resolved live-server reply, recording the network-stage
/// breakdown rows for completed requests (one observation per
/// *completed* request).
fn encode_result(
    out: &mut Vec<u8>,
    shared: &NetShared,
    id: u64,
    transfer: Duration,
    deserialize: Duration,
    result: Result<LiveResult, LiveError>,
) {
    match result {
        Ok(r) => {
            {
                let mut m = shared.lock_metrics();
                m.breakdown
                    .record(stages::NET_TRANSFER, transfer.as_secs_f64());
                m.breakdown
                    .record(stages::DESERIALIZE, deserialize.as_secs_f64());
            }
            let output = wire::output_bytes(&r.output);
            wire::encode_response(
                out,
                &ResponseFrame {
                    id,
                    status: Status::Ok,
                    msg: "",
                    batch: r.batch_size as u32,
                    stages: StageMicros {
                        transfer_us: transfer.as_micros() as u64,
                        deserialize_us: deserialize.as_micros() as u64,
                        queue_us: r.queue.as_micros() as u64,
                        preproc_us: r.preproc.as_micros() as u64,
                        inference_us: r.inference.as_micros() as u64,
                        total_us: (r.total + transfer + deserialize).as_micros() as u64,
                    },
                    output: &output,
                },
            );
        }
        Err(e) => {
            let status = match e {
                LiveError::Overloaded => Status::Overloaded,
                LiveError::DeadlineExceeded => Status::DeadlineExceeded,
                LiveError::QuotaExceeded => Status::QuotaExceeded,
                LiveError::SloInfeasible => Status::SloInfeasible,
                LiveError::Decode(_) => Status::DecodeFailed,
                LiveError::Model(_) => Status::ModelFailed,
                LiveError::Disconnected => Status::ShuttingDown,
            };
            wire::encode_response(
                out,
                &ResponseFrame {
                    id,
                    status,
                    msg: &e.to_string(),
                    batch: 0,
                    stages: StageMicros::default(),
                    output: &[],
                },
            );
        }
    }
}
