//! The framed wire protocol: length-prefixed request/response frames.
//!
//! Every frame on the socket is `[u32 LE body length][body]`. Request
//! bodies carry a JPEG payload plus routing metadata (model name, target
//! side, optional deadline, request id); response bodies carry either a
//! classification output with a per-stage time breakdown or a typed
//! status ([`Status::Overloaded`], [`Status::DeadlineExceeded`],
//! [`Status::BadFrame`], …).
//!
//! The decoder is **zero-copy** — [`RequestFrame`] and [`ResponseFrame`]
//! borrow the model name, payload, and output bytes straight out of the
//! input buffer — and **total**: every read is bounds-checked, malformed
//! input returns [`WireError`] (surfaced to peers as a
//! [`Status::BadFrame`] response), and no input can make it panic or
//! allocate beyond [`MAX_FRAME_LEN`]. The length prefix is validated
//! *before* any buffer is grown, so a hostile length field cannot cause
//! an over-allocation.
//!
//! # Request body layout (after the u32 length prefix, all integers LE)
//!
//! | field        | bytes | meaning                                        |
//! |--------------|-------|------------------------------------------------|
//! | magic        | 4     | `b"VRQ1"` (version 1 request)                  |
//! | id           | 8     | caller-chosen request id, echoed in response   |
//! | side         | 2     | target model input side; 0 = server default    |
//! | deadline_us  | 4     | µs from server receipt; 0 = no deadline        |
//! | model len    | 1     | length of the model-name string                |
//! | model        | var   | UTF-8 model name; empty = server default       |
//! | payload len  | 4     | JPEG byte count                                |
//! | payload      | var   | the JPEG bytes                                 |
//!
//! # Version-2 request body (`VRQ2`): the multi-tenant header
//!
//! Identical to `VRQ1` with one field pair inserted between the model
//! name and the payload length:
//!
//! | field        | bytes | meaning                                        |
//! |--------------|-------|------------------------------------------------|
//! | tenant len   | 1     | length of the tenant-name string               |
//! | tenant       | var   | UTF-8 tenant name; empty = route by model      |
//!
//! The gate is the magic itself: decoders accept both versions (a `VRQ1`
//! body decodes with an empty tenant), and [`encode_request`] emits
//! `VRQ1` whenever the tenant is empty, so single-tenant clients are
//! byte-identical to the v1 protocol and old servers never see a frame
//! they cannot parse unless a tenant was explicitly requested.
//!
//! # Response body layout
//!
//! | field        | bytes | meaning                                        |
//! |--------------|-------|------------------------------------------------|
//! | magic        | 4     | `b"VRS1"` (version 1 response)                 |
//! | id           | 8     | echoed request id                              |
//! | status       | 1     | [`Status`] discriminant                        |
//! | msg len      | 2     | diagnostic message length (errors only)        |
//! | msg          | var   | UTF-8 diagnostic                               |
//! | batch        | 4     | inference batch size the request rode in       |
//! | stage µs     | 6×8   | transfer, deserialize, queue, preproc, inference, total |
//! | output len   | 4     | number of f32 output values                    |
//! | output       | var   | the output values, f32 LE                      |
//!
//! # Metrics-scrape request body layout (`VRM1`)
//!
//! A scrape request is the framed protocol's `GET /metrics`: the server
//! answers with an ordinary `VRS1` response whose `msg` field carries the
//! plain-text metrics exposition (status [`Status::Ok`], empty output).
//!
//! | field        | bytes | meaning                                        |
//! |--------------|-------|------------------------------------------------|
//! | magic        | 4     | `b"VRM1"` (version 1 metrics request)          |
//! | id           | 8     | caller-chosen request id, echoed in response   |
//! | flags        | 1     | reserved; decoders accept any value            |
//!
//! Trailing bytes after a well-formed body are rejected: a frame must
//! parse exactly.

use std::time::{Duration, Instant};

/// Hard cap on a frame body; the length prefix is validated against this
/// before any allocation, so untrusted peers cannot force large buffers.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Largest JPEG payload a request frame (or output blob a response frame)
/// carries: half of [`MAX_FRAME_LEN`], so headers always fit beside it.
/// The encoders clip to it; [`NetClient`](crate::NetClient) refuses a
/// longer payload before sending, because a clipped JPEG is a corrupted
/// one.
pub const MAX_PAYLOAD_LEN: usize = MAX_FRAME_LEN / 2;

/// Magic opening a version-1 request body.
pub const REQUEST_MAGIC: [u8; 4] = *b"VRQ1";

/// Magic opening a version-2 request body (adds the tenant header).
pub const REQUEST_MAGIC_V2: [u8; 4] = *b"VRQ2";

/// Magic opening a version-1 response body.
pub const RESPONSE_MAGIC: [u8; 4] = *b"VRS1";

/// Magic opening a version-1 metrics-scrape request body (the framed
/// protocol's `GET /metrics`).
pub const METRICS_MAGIC: [u8; 4] = *b"VRM1";

/// Bytes of the length prefix itself.
pub const HEADER_LEN: usize = 4;

/// Smallest body either frame kind can have (magic + id + status byte is
/// the response minimum; requests are larger but share the floor).
pub const MIN_BODY_LEN: usize = 13;

/// A malformed frame. The payload is a static reason suitable for the
/// diagnostic message of a [`Status::BadFrame`] response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError(pub &'static str);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad frame: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Typed response status. `Ok` responses carry outputs and stage times;
/// everything else is a shed or failure with a diagnostic message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Inference completed; output and stage breakdown are valid.
    Ok = 0,
    /// The server's bounded ingress queue was full; the request was shed
    /// on arrival (the paper's backpressure path, not a dropped
    /// connection).
    Overloaded = 1,
    /// The request's propagated deadline passed before inference.
    DeadlineExceeded = 2,
    /// The request frame failed to parse; the connection closes after
    /// this response because framing can no longer be trusted.
    BadFrame = 3,
    /// The JPEG payload failed to decode.
    DecodeFailed = 4,
    /// The model rejected the preprocessed tensor.
    ModelFailed = 5,
    /// The server is draining for shutdown.
    ShuttingDown = 6,
    /// The frame named a model this server does not host.
    UnknownModel = 7,
    /// The tenant's token-bucket quota rejected the request at
    /// admission (before any queueing).
    QuotaExceeded = 8,
    /// Admission control judged the tenant's SLO infeasible given the
    /// lane's current depth and learned per-item cost.
    SloInfeasible = 9,
}

impl Status {
    /// Parses a wire discriminant.
    pub fn from_u8(v: u8) -> Option<Status> {
        match v {
            0 => Some(Status::Ok),
            1 => Some(Status::Overloaded),
            2 => Some(Status::DeadlineExceeded),
            3 => Some(Status::BadFrame),
            4 => Some(Status::DecodeFailed),
            5 => Some(Status::ModelFailed),
            6 => Some(Status::ShuttingDown),
            7 => Some(Status::UnknownModel),
            8 => Some(Status::QuotaExceeded),
            9 => Some(Status::SloInfeasible),
            _ => None,
        }
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::DeadlineExceeded => "deadline exceeded",
            Status::BadFrame => "bad frame",
            Status::DecodeFailed => "decode failed",
            Status::ModelFailed => "model failed",
            Status::ShuttingDown => "shutting down",
            Status::UnknownModel => "unknown model",
            Status::QuotaExceeded => "quota exceeded",
            Status::SloInfeasible => "slo infeasible",
        })
    }
}

/// A decoded request, borrowing the name and payload from the input
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestFrame<'a> {
    /// Caller-chosen id, echoed back so pipelined responses can be matched.
    pub id: u64,
    /// Requested model input side; 0 defers to the server's configuration.
    pub side: u16,
    /// Deadline in µs from server receipt; 0 means none.
    pub deadline_us: u32,
    /// Model name; empty defers to the server's deployed model.
    pub model: &'a str,
    /// Tenant name for lane routing; empty routes by model (or the
    /// server default). Only `VRQ2` frames carry this on the wire.
    pub tenant: &'a str,
    /// The JPEG payload.
    pub jpeg: &'a [u8],
}

impl RequestFrame<'_> {
    /// The deadline as a [`Duration`] from server receipt, if any.
    pub fn deadline(&self) -> Option<Duration> {
        (self.deadline_us > 0).then(|| Duration::from_micros(self.deadline_us as u64))
    }
}

/// Server-measured per-stage times, µs, carried in `Ok` responses.
///
/// `transfer` and `deserialize` are the network front-end's own stages —
/// the rows the paper attributes to client→server data transfer and
/// request serialization; the rest mirror
/// [`LiveResult`](vserve_server::live::LiveResult).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageMicros {
    /// Reading the request frame's bytes off the socket.
    pub transfer_us: u64,
    /// Parsing/validating the frame and detaching the payload.
    pub deserialize_us: u64,
    /// Ingress + batcher queueing inside the live server.
    pub queue_us: u64,
    /// JPEG decode + resize + normalize.
    pub preproc_us: u64,
    /// Per-item share of the batched forward pass.
    pub inference_us: u64,
    /// Full server-side residency: frame read → response ready.
    pub total_us: u64,
}

/// A decoded response, borrowing message and output bytes from the input
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseFrame<'a> {
    /// Echoed request id.
    pub id: u64,
    /// Outcome.
    pub status: Status,
    /// Diagnostic message (error statuses only; empty for `Ok`).
    pub msg: &'a str,
    /// Inference batch size (0 for error statuses).
    pub batch: u32,
    /// Per-stage server-side times.
    pub stages: StageMicros,
    /// Raw little-endian f32 output bytes; use
    /// [`output_vec`](Self::output_vec) to materialize.
    pub output: &'a [u8],
}

impl ResponseFrame<'_> {
    /// Copies the output bytes into an f32 vector.
    pub fn output_vec(&self) -> Vec<f32> {
        self.output
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Patches the length prefix reserved at `start` once the body is done,
/// bar `to_come` bytes of it that the caller appends or sends itself.
fn finish_frame(buf: &mut Vec<u8>, start: usize, to_come: usize) {
    let body = (buf.len() - start - HEADER_LEN + to_come) as u32;
    buf[start..start + HEADER_LEN].copy_from_slice(&body.to_le_bytes());
}

/// Truncates `name` to 255 bytes on a UTF-8 boundary for a 1-byte
/// length-prefixed string field.
fn clip_name(mut name: &str) -> &str {
    while name.len() > 255 {
        let cut = (0..=255).rev().find(|&i| name.is_char_boundary(i));
        name = &name[..cut.unwrap_or(0)];
    }
    name
}

/// Appends a request frame **without its payload bytes** to `buf`: the
/// length prefix (already counting the payload), every field, and the
/// payload length. Returns the payload the frame announces — `f.jpeg`
/// clipped to [`MAX_PAYLOAD_LEN`] — which must follow on the wire; a
/// sender that already holds those bytes writes the two pieces and never
/// builds the frame in one buffer.
///
/// Version gate: a frame with an empty tenant encodes as `VRQ1` —
/// byte-identical to the v1 protocol — and only a non-empty tenant
/// upgrades the frame to `VRQ2`. Model and tenant names are truncated to
/// 255 bytes (on UTF-8 boundaries); callers that cannot tolerate a
/// clipped payload check its length first, as
/// [`NetClient`](crate::NetClient) does.
pub fn encode_request_header<'a>(buf: &mut Vec<u8>, f: &RequestFrame<'a>) -> &'a [u8] {
    let start = buf.len();
    put_u32(buf, 0); // length back-patched below
    let v2 = !f.tenant.is_empty();
    buf.extend_from_slice(if v2 {
        &REQUEST_MAGIC_V2
    } else {
        &REQUEST_MAGIC
    });
    put_u64(buf, f.id);
    put_u16(buf, f.side);
    put_u32(buf, f.deadline_us);
    let name = clip_name(f.model);
    buf.push(name.len() as u8);
    buf.extend_from_slice(name.as_bytes());
    if v2 {
        let tenant = clip_name(f.tenant);
        buf.push(tenant.len() as u8);
        buf.extend_from_slice(tenant.as_bytes());
    }
    let jpeg = &f.jpeg[..f.jpeg.len().min(MAX_PAYLOAD_LEN)];
    put_u32(buf, jpeg.len() as u32);
    finish_frame(buf, start, jpeg.len());
    jpeg
}

/// Appends a complete request frame (length prefix included) to `buf`:
/// [`encode_request_header`], then the payload it returns.
pub fn encode_request(buf: &mut Vec<u8>, f: &RequestFrame<'_>) {
    let jpeg = encode_request_header(buf, f);
    buf.extend_from_slice(jpeg);
}

/// Appends a complete response frame (length prefix included) to `buf`.
pub fn encode_response(buf: &mut Vec<u8>, f: &ResponseFrame<'_>) {
    let start = buf.len();
    put_u32(buf, 0);
    buf.extend_from_slice(&RESPONSE_MAGIC);
    put_u64(buf, f.id);
    buf.push(f.status as u8);
    let msg = &f.msg.as_bytes()[..f.msg.len().min(u16::MAX as usize)];
    put_u16(buf, msg.len() as u16);
    buf.extend_from_slice(msg);
    put_u32(buf, f.batch);
    for v in [
        f.stages.transfer_us,
        f.stages.deserialize_us,
        f.stages.queue_us,
        f.stages.preproc_us,
        f.stages.inference_us,
        f.stages.total_us,
    ] {
        put_u64(buf, v);
    }
    let out = &f.output[..f.output.len().min(MAX_PAYLOAD_LEN)];
    put_u32(buf, (out.len() / 4) as u32);
    buf.extend_from_slice(&out[..(out.len() / 4) * 4]);
    finish_frame(buf, start, 0);
}

/// Encodes `output` f32s as the little-endian bytes the response layout
/// wants.
pub fn output_bytes(output: &[f32]) -> Vec<u8> {
    let mut b = Vec::with_capacity(output.len() * 4);
    for v in output {
        b.extend_from_slice(&v.to_le_bytes());
    }
    b
}

// ---------------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over untrusted bytes; every accessor fails with
/// [`WireError`] instead of panicking.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError(what))?;
        if end > self.b.len() {
            return Err(WireError(what));
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let s = self.take(2, what)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(WireError("trailing bytes after frame body"))
        }
    }
}

/// Validates a length prefix. Returns the body length to read, or an
/// error if the peer's framing cannot be trusted (too small to be any
/// frame, or larger than [`MAX_FRAME_LEN`]).
pub fn check_frame_len(header: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(header) as usize;
    if len < MIN_BODY_LEN {
        Err(WireError("frame body shorter than any valid frame"))
    } else if len > MAX_FRAME_LEN {
        Err(WireError("frame length exceeds MAX_FRAME_LEN"))
    } else {
        Ok(len)
    }
}

/// Decodes a request body (the bytes after the length prefix).
///
/// Accepts both protocol versions: `VRQ1` bodies decode with an empty
/// tenant, `VRQ2` bodies carry the tenant header.
pub fn decode_request(body: &[u8]) -> Result<RequestFrame<'_>, WireError> {
    let mut c = Cursor::new(body);
    let magic = c.take(4, "truncated request magic")?;
    let v2 = match () {
        _ if magic == REQUEST_MAGIC => false,
        _ if magic == REQUEST_MAGIC_V2 => true,
        _ => return Err(WireError("request magic mismatch")),
    };
    let id = c.u64("truncated request id")?;
    let side = c.u16("truncated target side")?;
    let deadline_us = c.u32("truncated deadline")?;
    let model_len = c.u8("truncated model length")? as usize;
    let model = std::str::from_utf8(c.take(model_len, "truncated model name")?)
        .map_err(|_| WireError("model name not UTF-8"))?;
    let tenant = if v2 {
        let tenant_len = c.u8("truncated tenant length")? as usize;
        std::str::from_utf8(c.take(tenant_len, "truncated tenant name")?)
            .map_err(|_| WireError("tenant name not UTF-8"))?
    } else {
        ""
    };
    let jpeg_len = c.u32("truncated payload length")? as usize;
    let jpeg = c.take(jpeg_len, "payload length exceeds frame")?;
    c.finish()?;
    Ok(RequestFrame {
        id,
        side,
        deadline_us,
        model,
        tenant,
        jpeg,
    })
}

/// Decodes a response body (the bytes after the length prefix).
pub fn decode_response(body: &[u8]) -> Result<ResponseFrame<'_>, WireError> {
    let mut c = Cursor::new(body);
    if c.take(4, "truncated response magic")? != RESPONSE_MAGIC {
        return Err(WireError("response magic mismatch"));
    }
    let id = c.u64("truncated response id")?;
    let status =
        Status::from_u8(c.u8("truncated status")?).ok_or(WireError("unknown status code"))?;
    let msg_len = c.u16("truncated message length")? as usize;
    let msg = std::str::from_utf8(c.take(msg_len, "truncated message")?)
        .map_err(|_| WireError("message not UTF-8"))?;
    let batch = c.u32("truncated batch size")?;
    let mut us = [0u64; 6];
    for v in &mut us {
        *v = c.u64("truncated stage times")?;
    }
    let out_len = c.u32("truncated output length")? as usize;
    let out_bytes = out_len
        .checked_mul(4)
        .ok_or(WireError("output length overflows"))?;
    let output = c.take(out_bytes, "output length exceeds frame")?;
    c.finish()?;
    Ok(ResponseFrame {
        id,
        status,
        msg,
        batch,
        stages: StageMicros {
            transfer_us: us[0],
            deserialize_us: us[1],
            queue_us: us[2],
            preproc_us: us[3],
            inference_us: us[4],
            total_us: us[5],
        },
        output,
    })
}

/// A metrics-scrape request (`VRM1`): asks the server for its current
/// plain-text metrics exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsRequest {
    /// Caller-chosen id, echoed in the `VRS1` response carrying the
    /// exposition.
    pub id: u64,
    /// Reserved for future use; encoders write 0, decoders accept any
    /// value.
    pub flags: u8,
}

/// Appends a complete metrics-scrape frame (length prefix included) to
/// `buf`.
pub fn encode_metrics_request(buf: &mut Vec<u8>, f: &MetricsRequest) {
    let start = buf.len();
    put_u32(buf, 0);
    buf.extend_from_slice(&METRICS_MAGIC);
    put_u64(buf, f.id);
    buf.push(f.flags);
    finish_frame(buf, start, 0);
}

/// Whether a frame body opens with the metrics magic. The server checks
/// this before [`decode_request`] so scrape frames take the metrics path
/// (a magic match with a malformed remainder is still a bad frame).
pub fn is_metrics_request(body: &[u8]) -> bool {
    body.len() >= 4 && body[..4] == METRICS_MAGIC
}

/// Decodes a metrics-scrape body (the bytes after the length prefix).
pub fn decode_metrics_request(body: &[u8]) -> Result<MetricsRequest, WireError> {
    let mut c = Cursor::new(body);
    if c.take(4, "truncated metrics magic")? != METRICS_MAGIC {
        return Err(WireError("metrics magic mismatch"));
    }
    let id = c.u64("truncated metrics request id")?;
    let flags = c.u8("truncated metrics flags")?;
    c.finish()?;
    Ok(MetricsRequest { id, flags })
}

/// Incremental framing over a byte buffer: returns `Ok(None)` when `buf`
/// holds less than one complete frame, `Ok(Some((body, consumed)))` once
/// the first frame is complete, or a [`WireError`] when the length prefix
/// itself is invalid (the stream can no longer be re-synchronized).
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = check_frame_len([buf[0], buf[1], buf[2], buf[3]])?;
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    Ok(Some((&buf[HEADER_LEN..HEADER_LEN + len], HEADER_LEN + len)))
}

/// Reads one frame from `r`, leaving the body (header stripped) in `buf`.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary — the peer closed
/// between frames — or `Ok(Some(transfer))` once a complete body is in
/// `buf`, where `transfer` is the time spent reading the body bytes off
/// the stream after the header arrived (the measured data-transfer
/// stage). The length prefix is validated via [`check_frame_len`]
/// *before* `buf` grows, so a hostile header cannot cause an
/// over-allocation; it surfaces as `io::ErrorKind::InvalidData` wrapping
/// the [`WireError`], after which the stream cannot be re-synchronized.
pub fn read_frame_into<R: std::io::Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<Duration>> {
    use std::io::{Error, ErrorKind};
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::new(
                    ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = check_frame_len(header).map_err(|e| Error::new(ErrorKind::InvalidData, e))?;
    let start = Instant::now();
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(Some(start.elapsed()))
}

/// Writes a frame held as two pieces — what [`encode_request_header`]
/// built and the payload it returned — as one gathered write, so a frame
/// is one syscall without first being one buffer. (`write_all_vectored`
/// is unstable; this is its two-slice case.)
pub(crate) fn write_frame_parts(
    w: &mut impl std::io::Write,
    mut header: &[u8],
    mut payload: &[u8],
) -> std::io::Result<()> {
    while !header.is_empty() {
        match w.write_vectored(&[
            std::io::IoSlice::new(header),
            std::io::IoSlice::new(payload),
        ]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let of_header = n.min(header.len());
                header = &header[of_header..];
                payload = &payload[n - of_header..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.write_all(payload)
}

/// Bytes one read asks for at a frame boundary. A frame longer than this
/// gets a buffer to itself.
const READ_GRANULE: usize = 16 * 1024;

/// Inside a long frame the allocation may grow to this many times the
/// bytes that have arrived (never past the frame's end): three allocator
/// calls take a buffer from the granule to 4 MiB, and a peer still has to
/// send 1/16 of what it makes the server reserve.
const RESERVE_AHEAD: usize = 16;

/// Capacity an assembler keeps between frames; a buffer that outgrew it
/// is released (or leaves with its frame) instead of being reused.
const RETAINED_CAP: usize = 64 * 1024;

/// Resumable incremental frame assembly for nonblocking streams.
///
/// The server's event loop lets the assembler read whatever bytes the
/// kernel has — possibly a partial header, possibly several frames fused
/// — straight into its own buffer ([`read_from`](Self::read_from)); bytes
/// that were read elsewhere are fed with [`extend`](Self::extend).
/// The assembler buffers across reads, validates each length prefix via
/// [`check_frame_len`] the moment its four bytes are available (a hostile
/// prefix poisons the stream *before* any body byte is buffered), and
/// yields complete bodies in order: borrowed via
/// [`next_frame`](Self::next_frame) or owned via
/// [`next_frame_owned`](Self::next_frame_owned).
///
/// Memory stays proportional to bytes actually received: the body
/// allocation grows with arrival (touched memory at most doubles per
/// read, reserved memory stays within 16 times what arrived), never
/// pre-reserved from the claimed length, so a slow-loris peer announcing
/// a 32 MiB frame and sending one byte holds one read's worth of buffer,
/// not 32 MiB. Nor does a big
/// frame leave its capacity behind: once yielded, at most
/// `RETAINED_CAP` (64 KiB) stays with the connection
/// ([`capacity`](Self::capacity)).
///
/// The per-frame `transfer` duration mirrors [`read_frame_into`]: time
/// from the header completing to the body completing — the measured
/// data-transfer leg that feeds the `0-net-transfer` span.
///
/// Errors are sticky: after any [`WireError`] the stream cannot be
/// re-synchronized and every later call fails with it.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// `buf[start..end]` is received and not yet yielded; `buf[end..]` is
    /// zeroed room the next read fills, kept so it is zeroed once.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Body length of the frame in progress. Its prefix is validated and
    /// consumed: `start` is the body's first byte.
    body_len: Option<usize>,
    header_at: Option<Instant>,
    poison: Option<WireError>,
}

impl FrameAssembler {
    /// An empty assembler at a frame boundary.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Bytes buffered and not yet yielded as frames (partial header +
    /// partial body). Feeds the write-buffer/read-buffer gauges.
    pub fn buffered(&self) -> usize {
        self.body_len.map_or(0, |_| HEADER_LEN) + self.end - self.start
    }

    /// Bytes of heap the assembler holds, filled or not — what an idle
    /// connection costs.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Whether the stream is mid-frame: a clean EOF here means the peer
    /// died inside a frame rather than between frames.
    pub fn mid_frame(&self) -> bool {
        self.body_len.is_some() || self.end > self.start
    }

    /// Appends freshly read bytes.
    ///
    /// # Errors
    ///
    /// Returns the sticky [`WireError`] if the stream is already
    /// poisoned, or poisons it now when these bytes complete an invalid
    /// length prefix.
    pub fn extend(&mut self, chunk: &[u8]) -> Result<(), WireError> {
        if let Some(e) = self.poison {
            return Err(e);
        }
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(chunk);
        self.end = self.buf.len();
        self.validate_header()
    }

    /// Reads once from `r` into the assembler's own buffer and returns
    /// what `r.read` returned (`Ok(0)` is end of stream; `WouldBlock` and
    /// `Interrupted` pass through with nothing buffered).
    ///
    /// At a frame boundary, and inside frames no longer than the 16 KiB
    /// read granule, one read takes up to a granule — many small frames
    /// per syscall. Inside a longer frame the read stops at the frame's
    /// end, so the body completes alone in its buffer and
    /// [`next_frame_owned`](Self::next_frame_owned) hands that buffer
    /// out; each such read asks for at most as much as has already
    /// arrived (at least a granule), and the allocation stays within 16
    /// times that, so the buffer grows toward the claimed length only as
    /// fast as the peer delivers it.
    ///
    /// # Errors
    ///
    /// Transport errors of `r`. A read that completes an invalid length
    /// prefix poisons the stream and still returns `Ok`: the
    /// [`WireError`] is what the next `next_frame*` call returns, and
    /// later reads are refused with `InvalidData` before touching `r`.
    pub fn read_from<R: std::io::Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        if let Some(e) = self.poison {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
        }
        self.compact();
        // `want` bytes are read (and zeroed first); `reserve` is how far
        // the allocation may run ahead of them.
        let (want, reserve) = match self.body_len {
            Some(len) if len > READ_GRANULE && self.end < len => (
                (len - self.end).min(self.end.max(READ_GRANULE)),
                len.min(self.end * RESERVE_AHEAD),
            ),
            _ => (READ_GRANULE, 0),
        };
        let room = self.end + want;
        if self.buf.len() < room {
            if self.buf.capacity() < room {
                self.buf.reserve_exact(reserve.max(room) - self.buf.len());
            }
            self.buf.resize(room, 0);
        }
        let n = r.read(&mut self.buf[self.end..room])?;
        self.end += n;
        let _ = self.validate_header(); // kept in `poison` for `next_frame*`
        Ok(n)
    }

    /// Yields the next complete frame body, or `Ok(None)` when the buffer
    /// holds less than one frame. The returned slice borrows the internal
    /// buffer: decode (and copy out what outlives the borrow) before the
    /// next call.
    ///
    /// # Errors
    ///
    /// Returns the sticky [`WireError`] on a poisoned stream or when the
    /// next length prefix is invalid.
    pub fn next_frame(&mut self) -> Result<Option<(&[u8], Duration)>, WireError> {
        let Some((len, transfer)) = self.complete_frame()? else {
            return Ok(None);
        };
        let body = self.start..self.start + len;
        self.start = body.end;
        Ok(Some((&self.buf[body], transfer)))
    }

    /// [`next_frame`](Self::next_frame) with an owned body. A frame
    /// longer than the read granule that is alone in the buffer — which
    /// is how [`read_from`](Self::read_from) completes one — leaves
    /// *as* the buffer, uncopied; any other frame is copied out once.
    ///
    /// # Errors
    ///
    /// As [`next_frame`](Self::next_frame).
    pub fn next_frame_owned(&mut self) -> Result<Option<(Vec<u8>, Duration)>, WireError> {
        let Some((len, transfer)) = self.complete_frame()? else {
            return Ok(None);
        };
        let body = if len > READ_GRANULE && self.start == 0 && self.end == len {
            self.buf.truncate(len);
            self.end = 0;
            std::mem::take(&mut self.buf)
        } else {
            let body = self.buf[self.start..self.start + len].to_vec();
            self.start += len;
            body
        };
        Ok(Some((body, transfer)))
    }

    /// Claims the frame in progress once its whole body is buffered:
    /// its length (the body starts at `start`) and transfer time.
    fn complete_frame(&mut self) -> Result<Option<(usize, Duration)>, WireError> {
        if self.start == self.end {
            self.compact(); // nothing unread: a big buffer goes now
        }
        self.validate_header()?;
        match self.body_len {
            Some(len) if self.end - self.start >= len => {
                self.body_len = None;
                let transfer = self.header_at.take().map(|t| t.elapsed());
                Ok(Some((len, transfer.unwrap_or_default())))
            }
            _ => Ok(None),
        }
    }

    /// Moves the unread bytes to the front of the buffer — or, when the
    /// buffer outgrew `RETAINED_CAP`, to a fresh one just their size.
    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        let unread = self.start..self.end;
        if self.buf.capacity() > RETAINED_CAP {
            self.buf = self.buf[unread].to_vec();
        } else {
            self.buf.copy_within(unread, 0);
        }
        self.end -= self.start;
        self.start = 0;
    }

    fn validate_header(&mut self) -> Result<(), WireError> {
        if let Some(e) = self.poison {
            return Err(e);
        }
        if self.body_len.is_none() && self.end - self.start >= HEADER_LEN {
            let s = self.start;
            let header = [
                self.buf[s],
                self.buf[s + 1],
                self.buf[s + 2],
                self.buf[s + 3],
            ];
            match check_frame_len(header) {
                Ok(len) => {
                    self.body_len = Some(len);
                    self.start += HEADER_LEN;
                    self.header_at = Some(Instant::now());
                }
                Err(e) => {
                    self.poison = Some(e);
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> (Vec<u8>, Vec<u8>) {
        let jpeg = vec![0xffu8, 0xd8, 0xff, 0xe0, 1, 2, 3];
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            &RequestFrame {
                id: 42,
                side: 224,
                deadline_us: 1_500,
                model: "micro-cnn",
                tenant: "",
                jpeg: &jpeg,
            },
        );
        (buf, jpeg)
    }

    fn sample_request_v2() -> (Vec<u8>, Vec<u8>) {
        let jpeg = vec![0xffu8, 0xd8, 0xff, 0xe0, 1, 2, 3];
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            &RequestFrame {
                id: 43,
                side: 224,
                deadline_us: 1_500,
                model: "micro-cnn",
                tenant: "lc",
                jpeg: &jpeg,
            },
        );
        (buf, jpeg)
    }

    #[test]
    fn request_roundtrip_identity() {
        let (buf, jpeg) = sample_request();
        let (body, consumed) = split_frame(&buf).unwrap().expect("complete");
        assert_eq!(consumed, buf.len());
        let f = decode_request(body).unwrap();
        assert_eq!(f.id, 42);
        assert_eq!(f.side, 224);
        assert_eq!(f.deadline_us, 1_500);
        assert_eq!(f.model, "micro-cnn");
        assert_eq!(f.tenant, "", "VRQ1 decodes with an empty tenant");
        assert_eq!(f.jpeg, &jpeg[..]);
        assert_eq!(f.deadline(), Some(Duration::from_micros(1_500)));
        // Version gate: an empty tenant must emit the v1 magic, keeping
        // single-tenant clients byte-identical to the v1 protocol.
        assert_eq!(&buf[HEADER_LEN..HEADER_LEN + 4], &REQUEST_MAGIC);
    }

    #[test]
    fn v2_request_roundtrips_tenant_header() {
        let (buf, jpeg) = sample_request_v2();
        assert_eq!(&buf[HEADER_LEN..HEADER_LEN + 4], &REQUEST_MAGIC_V2);
        let (body, consumed) = split_frame(&buf).unwrap().expect("complete");
        assert_eq!(consumed, buf.len());
        let f = decode_request(body).unwrap();
        assert_eq!(f.id, 43);
        assert_eq!(f.model, "micro-cnn");
        assert_eq!(f.tenant, "lc");
        assert_eq!(f.jpeg, &jpeg[..]);
    }

    #[test]
    fn v2_truncated_bodies_are_bad_frames() {
        // The hostile-input sweep, extended to the tenant header: every
        // prefix of a v2 body fails typed, never panics.
        let (buf, _) = sample_request_v2();
        let (body, _) = split_frame(&buf).unwrap().expect("complete");
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err(), "cut at {cut}");
        }
        // Inflated tenant length cannot escape the frame.
        let mut bad = body.to_vec();
        let tenant_len_at = 4 + 8 + 2 + 4 + 1 + "micro-cnn".len();
        bad[tenant_len_at] = 0xFF;
        assert!(decode_request(&bad).is_err());
        // Non-UTF-8 tenant bytes fail typed.
        let mut bad = body.to_vec();
        bad[tenant_len_at + 1] = 0xFF;
        assert_eq!(
            decode_request(&bad),
            Err(WireError("tenant name not UTF-8"))
        );
    }

    #[test]
    fn response_roundtrip_identity() {
        let out = output_bytes(&[0.125f32, -3.5, 1e-9]);
        let mut buf = Vec::new();
        encode_response(
            &mut buf,
            &ResponseFrame {
                id: 7,
                status: Status::Ok,
                msg: "",
                batch: 4,
                stages: StageMicros {
                    transfer_us: 10,
                    deserialize_us: 2,
                    queue_us: 300,
                    preproc_us: 450,
                    inference_us: 120,
                    total_us: 882,
                },
                output: &out,
            },
        );
        let (body, _) = split_frame(&buf).unwrap().expect("complete");
        let f = decode_response(body).unwrap();
        assert_eq!(f.id, 7);
        assert_eq!(f.status, Status::Ok);
        assert_eq!(f.batch, 4);
        assert_eq!(f.stages.queue_us, 300);
        assert_eq!(f.stages.total_us, 882);
        assert_eq!(f.output_vec(), vec![0.125f32, -3.5, 1e-9]);
    }

    #[test]
    fn error_response_carries_message() {
        let mut buf = Vec::new();
        encode_response(
            &mut buf,
            &ResponseFrame {
                id: 9,
                status: Status::Overloaded,
                msg: "ingress queue full",
                batch: 0,
                stages: StageMicros::default(),
                output: &[],
            },
        );
        let (body, _) = split_frame(&buf).unwrap().expect("complete");
        let f = decode_response(body).unwrap();
        assert_eq!(f.status, Status::Overloaded);
        assert_eq!(f.msg, "ingress queue full");
        assert!(f.output.is_empty());
    }

    #[test]
    fn truncated_frames_need_more_bytes_not_panic() {
        let (buf, _) = sample_request();
        for cut in 0..buf.len() {
            let r = split_frame(&buf[..cut]);
            // Every prefix either needs more bytes or (once the header is
            // visible) is recognized as the valid in-progress frame.
            assert_eq!(r, Ok(None), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn truncated_bodies_are_bad_frames() {
        let (buf, _) = sample_request();
        let (body, _) = split_frame(&buf).unwrap().expect("complete");
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        assert!(split_frame(&buf).is_err());
        assert!(check_frame_len(u32::MAX.to_le_bytes()).is_err());
        assert!(check_frame_len((MAX_FRAME_LEN as u32 + 1).to_le_bytes()).is_err());
        assert!(check_frame_len((MAX_FRAME_LEN as u32).to_le_bytes()).is_ok());
    }

    #[test]
    fn undersized_length_rejected() {
        assert!(check_frame_len(0u32.to_le_bytes()).is_err());
        assert!(check_frame_len((MIN_BODY_LEN as u32 - 1).to_le_bytes()).is_err());
    }

    #[test]
    fn wrong_magic_rejected() {
        let (buf, _) = sample_request();
        let (body, _) = split_frame(&buf).unwrap().expect("complete");
        let mut bad = body.to_vec();
        bad[0] = b'X';
        assert!(decode_request(&bad).is_err());
        // A request body is not a response body.
        assert!(decode_response(body).is_err());
    }

    #[test]
    fn inner_payload_length_cannot_escape_frame() {
        let (buf, _) = sample_request();
        let (body, _) = split_frame(&buf).unwrap().expect("complete");
        let mut bad = body.to_vec();
        // Inflate the payload-length field (last 4+payload bytes from the
        // end): claim far more payload than the frame holds.
        let payload_len_at = body.len() - 7 - 4;
        bad[payload_len_at..payload_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_request(&bad),
            Err(WireError("payload length exceeds frame"))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (buf, _) = sample_request();
        let (body, _) = split_frame(&buf).unwrap().expect("complete");
        let mut bad = body.to_vec();
        bad.push(0);
        assert!(decode_request(&bad).is_err());
    }

    #[test]
    fn read_frame_into_walks_back_to_back_frames() {
        let (one, _) = sample_request();
        let mut stream = Vec::new();
        stream.extend_from_slice(&one);
        stream.extend_from_slice(&one);
        let mut r = std::io::Cursor::new(stream);
        let mut body = Vec::new();
        for _ in 0..2 {
            let t = read_frame_into(&mut r, &mut body).unwrap();
            assert!(t.is_some());
            assert_eq!(decode_request(&body).unwrap().id, 42);
        }
        // Clean EOF at the frame boundary: no frame, no error.
        assert!(read_frame_into(&mut r, &mut body).unwrap().is_none());
    }

    #[test]
    fn read_frame_into_rejects_hostile_length_before_allocating() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&[0u8; 8]);
        let mut r = std::io::Cursor::new(stream);
        let mut body = Vec::new();
        let err = read_frame_into(&mut r, &mut body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(body.capacity() <= MAX_FRAME_LEN, "must not over-allocate");
    }

    #[test]
    fn read_frame_into_reports_truncation() {
        let (one, _) = sample_request();
        let mut r = std::io::Cursor::new(one[..one.len() - 2].to_vec());
        let mut body = Vec::new();
        let err = read_frame_into(&mut r, &mut body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // EOF inside the header is also truncation, not a clean close.
        let mut r = std::io::Cursor::new(vec![1u8, 2]);
        let err = read_frame_into(&mut r, &mut body).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn status_codes_roundtrip() {
        for s in [
            Status::Ok,
            Status::Overloaded,
            Status::DeadlineExceeded,
            Status::BadFrame,
            Status::DecodeFailed,
            Status::ModelFailed,
            Status::ShuttingDown,
            Status::UnknownModel,
            Status::QuotaExceeded,
            Status::SloInfeasible,
        ] {
            assert_eq!(Status::from_u8(s as u8), Some(s));
        }
        assert_eq!(Status::from_u8(200), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Satellite: encode→decode roundtrip identity over arbitrary
        /// request fields.
        #[test]
        fn request_roundtrip(
            id in any::<u64>(),
            side in any::<u16>(),
            deadline_us in any::<u32>(),
            model in "[a-z0-9_-]{0,32}",
            tenant in "[a-z0-9_-]{0,32}",
            jpeg in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            let mut buf = Vec::new();
            encode_request(&mut buf, &RequestFrame {
                id, side, deadline_us, model: &model, tenant: &tenant, jpeg: &jpeg,
            });
            let (body, consumed) = split_frame(&buf).unwrap().expect("complete");
            prop_assert_eq!(consumed, buf.len());
            // The version gate picks the magic from the tenant field.
            let expect_magic = if tenant.is_empty() { REQUEST_MAGIC } else { REQUEST_MAGIC_V2 };
            prop_assert_eq!(&body[..4], &expect_magic);
            let f = decode_request(body).unwrap();
            prop_assert_eq!(f.id, id);
            prop_assert_eq!(f.side, side);
            prop_assert_eq!(f.deadline_us, deadline_us);
            prop_assert_eq!(f.model, &model);
            prop_assert_eq!(f.tenant, &tenant);
            prop_assert_eq!(f.jpeg, &jpeg[..]);
        }

        /// Satellite: response roundtrip identity, bit-exact f32 output.
        #[test]
        fn response_roundtrip(
            id in any::<u64>(),
            status_code in 0u8..10,
            msg in "[ -~]{0,64}",
            batch in any::<u32>(),
            us in proptest::collection::vec(any::<u64>(), 6),
            output in proptest::collection::vec(any::<f32>(), 0..512),
        ) {
            let status = Status::from_u8(status_code).unwrap();
            let out = output_bytes(&output);
            let stages = StageMicros {
                transfer_us: us[0], deserialize_us: us[1], queue_us: us[2],
                preproc_us: us[3], inference_us: us[4], total_us: us[5],
            };
            let mut buf = Vec::new();
            encode_response(&mut buf, &ResponseFrame {
                id, status, msg: &msg, batch, stages, output: &out,
            });
            let (body, _) = split_frame(&buf).unwrap().expect("complete");
            let f = decode_response(body).unwrap();
            prop_assert_eq!(f.id, id);
            prop_assert_eq!(f.status, status);
            prop_assert_eq!(f.msg, &msg);
            prop_assert_eq!(f.batch, batch);
            prop_assert_eq!(f.stages, stages);
            // Bit-exact: NaNs and -0.0 must survive the wire.
            let got = f.output_vec();
            prop_assert_eq!(got.len(), output.len());
            for (a, b) in got.iter().zip(&output) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Satellite: the decoder is total on malicious input — arbitrary
        /// bytes never panic, and either parse or return `WireError`.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let _ = split_frame(&bytes);
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
            if bytes.len() >= 4 {
                let _ = check_frame_len([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
        }

        /// Satellite: corrupting any single byte of a valid frame either
        /// still parses (id/payload bytes are opaque) or fails cleanly —
        /// never panics, never reads out of bounds.
        #[test]
        fn single_byte_corruption_never_panics(
            pos in 0usize..64,
            val in any::<u8>(),
        ) {
            let jpeg = vec![1u8, 2, 3, 4, 5];
            // Both protocol versions survive the corruption sweep.
            for tenant in ["", "t0"] {
                let mut buf = Vec::new();
                encode_request(&mut buf, &RequestFrame {
                    id: 1, side: 64, deadline_us: 0, model: "m", tenant, jpeg: &jpeg,
                });
                let pos = pos % buf.len();
                buf[pos] = val;
                if let Ok(Some((body, _))) = split_frame(&buf) {
                    let _ = decode_request(body);
                }
            }
        }

        /// The length prefix is checked before any allocation: a hostile
        /// header either yields a small in-range length or an error.
        #[test]
        fn length_check_bounds_allocation(header in any::<[u8; 4]>()) {
            if let Ok(len) = check_frame_len(header) {
                prop_assert!(len >= MIN_BODY_LEN && len <= MAX_FRAME_LEN);
            }
        }
    }
}

#[cfg(test)]
mod metrics_frame_tests {
    use super::*;

    #[test]
    fn metrics_request_roundtrips() {
        let mut buf = Vec::new();
        let f = MetricsRequest {
            id: 0xDEAD_BEEF_0042,
            flags: 0,
        };
        encode_metrics_request(&mut buf, &f);
        let (body, consumed) = split_frame(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        // The 13-byte body is exactly MIN_BODY_LEN: the smallest frame the
        // length check accepts, so no special-casing was needed there.
        assert_eq!(body.len(), MIN_BODY_LEN);
        assert!(is_metrics_request(body));
        assert_eq!(decode_metrics_request(body).unwrap(), f);
    }

    #[test]
    fn magic_dispatch_is_mutually_exclusive() {
        let mut buf = Vec::new();
        encode_metrics_request(&mut buf, &MetricsRequest { id: 1, flags: 0 });
        let (mbody, _) = split_frame(&buf).unwrap().unwrap();
        assert!(
            decode_request(mbody).is_err(),
            "VRM1 must not parse as VRQ1"
        );
        assert!(
            decode_response(mbody).is_err(),
            "VRM1 must not parse as VRS1"
        );

        let mut req = Vec::new();
        encode_request(
            &mut req,
            &RequestFrame {
                id: 2,
                side: 0,
                deadline_us: 0,
                model: "",
                tenant: "",
                jpeg: &[0xFF],
            },
        );
        let (rbody, _) = split_frame(&req).unwrap().unwrap();
        assert!(!is_metrics_request(rbody));
        assert!(decode_metrics_request(rbody).is_err());
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let mut buf = Vec::new();
        encode_metrics_request(&mut buf, &MetricsRequest { id: 7, flags: 0 });
        let body = &buf[HEADER_LEN..];
        for cut in 0..body.len() {
            assert!(
                decode_metrics_request(&body[..cut]).is_err(),
                "truncation to {cut} bytes must fail"
            );
        }
        let mut long = body.to_vec();
        long.push(0);
        assert!(
            decode_metrics_request(&long).is_err(),
            "trailing byte must fail"
        );
    }

    #[test]
    fn reserved_flags_accepted_leniently() {
        // Forward compatibility: any flags byte parses today.
        for flags in [0u8, 1, 0x7F, 0xFF] {
            let mut buf = Vec::new();
            encode_metrics_request(&mut buf, &MetricsRequest { id: 9, flags });
            let (body, _) = split_frame(&buf).unwrap().unwrap();
            assert_eq!(decode_metrics_request(body).unwrap().flags, flags);
        }
    }

    mod proptests {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_identity(id in any::<u64>(), flags in any::<u8>()) {
                let mut buf = Vec::new();
                encode_metrics_request(&mut buf, &MetricsRequest { id, flags });
                let (body, consumed) = split_frame(&buf).unwrap().unwrap();
                prop_assert_eq!(consumed, buf.len());
                let d = decode_metrics_request(body).unwrap();
                prop_assert_eq!(d, MetricsRequest { id, flags });
            }

            /// Single-byte corruptions either fail typed or yield another
            /// well-formed metrics request — never a panic.
            #[test]
            fn corruption_never_panics(pos in 0usize..17, bit in 0u8..8) {
                let mut buf = Vec::new();
                encode_metrics_request(&mut buf, &MetricsRequest { id: 3, flags: 0 });
                buf[pos] ^= 1 << bit;
                if let Ok(Some((body, _))) = split_frame(&buf) {
                    let _ = decode_metrics_request(body);
                }
            }
        }
    }
}

#[cfg(test)]
mod assembler_tests {
    use super::*;

    fn frame(id: u64) -> Vec<u8> {
        let jpeg = vec![0xffu8, 0xd8, 0xff, 0xe0, 9, 8, 7];
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            &RequestFrame {
                id,
                side: 224,
                deadline_us: 0,
                model: "micro-cnn",
                tenant: "",
                jpeg: &jpeg,
            },
        );
        buf
    }

    #[test]
    fn byte_at_a_time_matches_whole_frame_decode() {
        let buf = frame(42);
        let mut asm = FrameAssembler::new();
        let mut yielded = None;
        for (i, b) in buf.iter().enumerate() {
            asm.extend(std::slice::from_ref(b)).unwrap();
            if let Some((body, transfer)) = asm.next_frame().unwrap() {
                assert_eq!(i, buf.len() - 1, "must complete on the last byte only");
                let f = decode_request(body).unwrap();
                yielded = Some((f.id, transfer));
            }
        }
        let (id, transfer) = yielded.expect("frame must assemble");
        assert_eq!(id, 42);
        // Header completed well before the last body byte arrived.
        assert!(transfer > Duration::ZERO || cfg!(miri));
        assert!(!asm.mid_frame());
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn fused_frames_in_one_chunk_come_out_in_order() {
        let mut chunk = Vec::new();
        for id in [1u64, 2, 3] {
            chunk.extend_from_slice(&frame(id));
        }
        let mut asm = FrameAssembler::new();
        asm.extend(&chunk).unwrap();
        let mut ids = Vec::new();
        while let Some((body, _)) = asm.next_frame().unwrap() {
            ids.push(decode_request(body).unwrap().id);
        }
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(!asm.mid_frame());
    }

    #[test]
    fn split_across_arbitrary_chunk_boundaries() {
        let mut stream = Vec::new();
        for id in [10u64, 11] {
            stream.extend_from_slice(&frame(id));
        }
        // Every split point of two fused frames yields exactly two frames.
        for cut in 1..stream.len() {
            let mut asm = FrameAssembler::new();
            let mut ids = Vec::new();
            for chunk in [&stream[..cut], &stream[cut..]] {
                asm.extend(chunk).unwrap();
                while let Some((body, _)) = asm.next_frame().unwrap() {
                    ids.push(decode_request(body).unwrap().id);
                }
            }
            assert_eq!(ids, vec![10, 11], "cut at {cut}");
        }
    }

    #[test]
    fn hostile_length_poisons_before_body_buffers() {
        let mut asm = FrameAssembler::new();
        // Claims a body far beyond MAX_FRAME_LEN.
        let hostile = (u32::MAX).to_le_bytes();
        assert!(asm.extend(&hostile).is_err(), "oversized prefix must fail");
        // Sticky: everything after the poison fails too.
        assert!(asm.extend(b"more").is_err());
        assert!(asm.next_frame().is_err());
    }

    #[test]
    fn runt_length_poisons() {
        let mut asm = FrameAssembler::new();
        // Valid u32 but smaller than any legal body.
        let runt = 1u32.to_le_bytes();
        assert!(asm.extend(&runt).is_err(), "runt prefix must fail");
    }

    #[test]
    fn mid_frame_reports_partial_state() {
        let buf = frame(5);
        let mut asm = FrameAssembler::new();
        asm.extend(&buf[..6]).unwrap();
        assert!(asm.next_frame().unwrap().is_none());
        assert!(asm.mid_frame());
        assert_eq!(asm.buffered(), 6);
        asm.extend(&buf[6..]).unwrap();
        assert!(asm.next_frame().unwrap().is_some());
        assert!(!asm.mid_frame());
    }
}

/// The assembler's own-buffer path: what it asks a reader for, what it
/// keeps, and that it frames any stream exactly as `extend`/`next_frame`
/// do. Kept below the older `proptest!` blocks, whose cases are drawn
/// from their line numbers under the offline stub.
#[cfg(test)]
mod assembler_buffer_tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::{ErrorKind, Read};

    /// `[prefix][body]` with a body of `len` seeded bytes (not a valid
    /// request: the assembler frames, it does not decode).
    fn raw_frame(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut f = (len as u32).to_le_bytes().to_vec();
        f.extend((0..len).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 16) as u8
        }));
        f
    }

    /// A nonblocking socket's manners: short reads of at most `max` bytes
    /// and a `WouldBlock` every fifth call. Records what each call was
    /// offered.
    struct Choppy<'a> {
        data: &'a [u8],
        max: usize,
        calls: u64,
        offered: Vec<usize>,
    }

    impl<'a> Choppy<'a> {
        fn new(data: &'a [u8], max: usize) -> Self {
            Choppy {
                data,
                max,
                calls: 0,
                offered: Vec::new(),
            }
        }
    }

    impl Read for Choppy<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 5 == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.offered.push(buf.len());
            let short = 1 + (self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize;
            let n = buf.len().min(self.data.len()).min(short.min(self.max));
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Frames `stream` through `read_from` + `next_frame_owned`: the
    /// bodies in order, the framing error that ended it (if any), and
    /// the assembler as it was left.
    fn via_read_from(r: &mut Choppy<'_>) -> (Vec<Vec<u8>>, Option<WireError>, FrameAssembler) {
        let mut asm = FrameAssembler::new();
        let mut bodies = Vec::new();
        loop {
            loop {
                match asm.next_frame_owned() {
                    Ok(Some((body, _))) => bodies.push(body),
                    Ok(None) => break,
                    Err(e) => return (bodies, Some(e), asm),
                }
            }
            match asm.read_from(r) {
                Ok(0) => return (bodies, None, asm),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("reader does not fail like this: {e}"),
            }
        }
    }

    /// The same through the borrowed pair, fed in `chunk`-byte pieces.
    fn via_extend(
        stream: &[u8],
        chunk: usize,
    ) -> (Vec<Vec<u8>>, Option<WireError>, FrameAssembler) {
        let mut asm = FrameAssembler::new();
        let mut bodies = Vec::new();
        for piece in stream.chunks(chunk) {
            if let Err(e) = asm.extend(piece) {
                return (bodies, Some(e), asm);
            }
            loop {
                match asm.next_frame() {
                    Ok(Some((body, _))) => bodies.push(body.to_vec()),
                    Ok(None) => break,
                    Err(e) => return (bodies, Some(e), asm),
                }
            }
        }
        (bodies, None, asm)
    }

    const BIG: usize = 4 << 20;

    #[test]
    fn a_yielded_big_frame_does_not_leave_its_capacity_behind() {
        let stream = raw_frame(BIG, 3);
        // Legacy pair: the buffer goes once nothing unread is left in it.
        let (bodies, err, asm) = via_extend(&stream, 16 * 1024);
        assert_eq!((bodies.len(), err), (1, None));
        assert_eq!(bodies[0], &stream[HEADER_LEN..]);
        assert!(
            asm.capacity() <= RETAINED_CAP,
            "extend/next_frame kept {} bytes after a {BIG}-byte frame",
            asm.capacity()
        );
        // Own-buffer path: the buffer left as the body.
        let (bodies, err, asm) = via_read_from(&mut Choppy::new(&stream, usize::MAX));
        assert_eq!((bodies.len(), err), (1, None));
        assert_eq!(bodies[0], &stream[HEADER_LEN..]);
        assert!(asm.capacity() <= RETAINED_CAP, "kept {}", asm.capacity());
        // With a small frame's worth unread behind it, too.
        let mut fused = stream.clone();
        fused.extend(raw_frame(40, 4));
        fused.extend(&raw_frame(40, 5)[..20]);
        let mut asm = FrameAssembler::new();
        asm.extend(&fused).unwrap();
        while asm.next_frame().unwrap().is_some() {}
        asm.extend(&[]).unwrap();
        assert_eq!(asm.buffered(), 20);
        assert!(asm.capacity() <= RETAINED_CAP, "kept {}", asm.capacity());
    }

    #[test]
    fn an_announced_length_reserves_nothing() {
        // 64 such connections must not commit 64 x 32 MiB.
        let header = (MAX_FRAME_LEN as u32).to_le_bytes();
        let mut asm = FrameAssembler::new();
        asm.extend(&header).unwrap();
        assert!(asm.next_frame().unwrap().is_none());
        assert!(asm.mid_frame());
        assert!(asm.capacity() <= RETAINED_CAP, "held {}", asm.capacity());

        let mut stream = header.to_vec();
        stream.push(0xAB);
        let (bodies, err, asm) = via_read_from(&mut Choppy::new(&stream, usize::MAX));
        assert_eq!((bodies.len(), err), (0, None));
        assert_eq!(asm.buffered(), 5);
        assert!(asm.capacity() <= RETAINED_CAP, "held {}", asm.capacity());
    }

    #[test]
    fn reads_inside_a_big_frame_stop_at_its_end_and_grow_with_arrival() {
        // A 1 MiB frame with a small one fused behind it.
        let mut stream = raw_frame(1 << 20, 9);
        let big_end = stream.len();
        stream.extend(raw_frame(100, 10));
        let mut r = Choppy::new(&stream, usize::MAX);
        let mut asm = FrameAssembler::new();
        let mut arrived = 0;
        let body = loop {
            if let Some((body, _)) = asm.next_frame_owned().unwrap() {
                break body;
            }
            match asm.read_from(&mut r) {
                Ok(n) => arrived += n,
                Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
            }
            assert!(arrived <= big_end, "read past the frame in progress");
        };
        assert_eq!(arrived, big_end, "the frame completed alone");
        assert_eq!(body, &stream[HEADER_LEN..big_end]);
        // Never asked for more than had already arrived (one granule at
        // least): the claimed length alone buys no memory.
        let mut had = 0;
        for (call, &offered) in r.offered.iter().enumerate() {
            assert!(offered <= had.max(READ_GRANULE), "call {call}");
            had += offered.min(big_end - had); // Choppy fills what it is offered
        }
        assert!(r.offered.len() < 12, "{} reads for 1 MiB", r.offered.len());
        // The buffer left with the body; the small frame follows.
        assert_eq!(asm.capacity(), 0);
        let small = loop {
            if let Some((body, _)) = asm.next_frame_owned().unwrap() {
                break body;
            }
            if let Err(e) = asm.read_from(&mut r) {
                assert_eq!(e.kind(), ErrorKind::WouldBlock);
            }
        };
        assert_eq!(small, &stream[big_end + HEADER_LEN..]);
    }

    #[test]
    fn a_bad_prefix_from_read_from_is_reported_once_and_for_all() {
        let mut stream = raw_frame(20, 1);
        stream.extend(u32::MAX.to_le_bytes());
        stream.extend([7u8; 64]);
        let mut r = Choppy::new(&stream, usize::MAX);
        let mut asm = FrameAssembler::new();
        assert_eq!(asm.read_from(&mut r).unwrap(), stream.len());
        assert!(asm.next_frame_owned().unwrap().is_some());
        let e = asm.next_frame_owned().unwrap_err();
        assert_eq!(e, check_frame_len(u32::MAX.to_le_bytes()).unwrap_err());
        assert_eq!(asm.next_frame().unwrap_err(), e, "sticky, same reason");
        assert_eq!(asm.extend(b"more").unwrap_err(), e);
        let offered = r.offered.len();
        let refused = asm.read_from(&mut r).unwrap_err();
        assert_eq!(refused.kind(), ErrorKind::InvalidData);
        assert_eq!(r.offered.len(), offered, "a poisoned stream reads nothing");
    }

    #[test]
    fn request_header_plus_payload_is_the_request_frame() {
        let jpeg: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        for tenant in ["", "lc"] {
            let f = RequestFrame {
                id: 9,
                side: 64,
                deadline_us: 5,
                model: "m",
                tenant,
                jpeg: &jpeg,
            };
            let (mut whole, mut header) = (vec![0xEE], vec![0xEE]);
            encode_request(&mut whole, &f);
            let payload = encode_request_header(&mut header, &f);
            assert_eq!(payload, &jpeg[..]);
            header.extend_from_slice(payload);
            assert_eq!(header, whole, "tenant {tenant:?}");
            let (body, _) = split_frame(&whole[1..]).unwrap().expect("complete");
            assert_eq!(decode_request(body).unwrap(), f);
        }
    }

    #[test]
    fn frame_parts_survive_partial_gathered_writes() {
        /// Accepts `step` bytes per call, across the slice boundary.
        struct Trickle(Vec<u8>, usize);
        impl std::io::Write for Trickle {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[std::io::IoSlice::new(b)])
            }
            fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
                let all: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
                let n = all.len().min(self.1);
                self.0.extend_from_slice(&all[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (header, payload) = (raw_frame(30, 1), raw_frame(500, 2));
        for step in [1, 3, 34, 35, 100, 10_000] {
            let mut w = Trickle(Vec::new(), step);
            write_frame_parts(&mut w, &header, &payload).unwrap();
            assert_eq!(w.0, [&header[..], &payload[..]].concat(), "step {step}");
        }
        let mut stuck = Trickle(Vec::new(), 0);
        let err = write_frame_parts(&mut stuck, &header, &payload).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Mixed small and >= 1 MiB frames, optionally a hostile prefix
        /// between two of them, cut into reads of every manner: the
        /// own-buffer path yields the bodies, the order and the error
        /// that `extend`/`next_frame` yield.
        #[test]
        fn read_from_frames_any_stream_as_extend_does(
            kinds in proptest::collection::vec(0u8..4, 1..6),
            seed in any::<u64>(),
            max_read in prop_oneof![
                Just(1usize),
                Just(7usize),
                Just(1000usize),
                Just(16usize << 10),
                Just(100_000usize),
                Just(usize::MAX)
            ],
            hostile_after in 0usize..10,
            chunk in prop_oneof![Just(1usize << 10), Just(16usize << 10), Just(usize::MAX)],
        ) {
            let mut stream = Vec::new();
            for (i, kind) in kinds.iter().enumerate() {
                let salt = seed.wrapping_add(i as u64);
                let len = match kind {
                    0 => (1 << 20) + (salt % 70_000) as usize,
                    1 => READ_GRANULE - 2 + (salt % 5) as usize, // around the granule
                    _ => MIN_BODY_LEN + (salt % 3_000) as usize,
                };
                stream.extend(raw_frame(len, salt));
                if i == hostile_after {
                    stream.extend((MAX_FRAME_LEN as u32 + 1).to_le_bytes());
                }
            }
            let (want, want_err, legacy) = via_extend(&stream, chunk);
            let (got, got_err, owned) = via_read_from(&mut Choppy::new(&stream, max_read));
            prop_assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(g == w, "frame {i} differs ({} vs {} bytes)", g.len(), w.len());
            }
            prop_assert_eq!(got_err, want_err);
            prop_assert_eq!(want_err.is_some(), hostile_after < kinds.len());
            if want_err.is_none() {
                prop_assert_eq!((owned.buffered(), legacy.buffered()), (0, 0));
                prop_assert!(owned.capacity() <= RETAINED_CAP);
            }
        }
    }
}
