//! `vserve-net` — a real TCP serving front-end for the live server.
//!
//! The paper's end-to-end breakdown includes two stages that only exist
//! when requests cross a process boundary: client→server **data
//! transfer** and request **serialization**. `LiveServer` alone can only
//! be driven in-process, so those rows are silently zero. This crate puts
//! a wire between client and server so they are measured, not assumed:
//!
//! * [`wire`] — a length-prefixed framed protocol (request = JPEG payload
//!   + model name + target side + optional deadline + request id;
//!   response = classification output + per-stage breakdown, or a typed
//!   [`Status`] such as `Overloaded`). The decoder is zero-copy and total:
//!   untrusted bytes can make it return [`wire::WireError`], never panic
//!   or over-allocate.
//! * [`server`] — a `std::net` listener driven by one readiness event
//!   loop ([`poller`], [`conn`]) behind a bounded connection cap
//!   (backpressure at accept), which stamps `transfer`/`deserialize`
//!   stage times into the shared `StageBreakdown` and submits into an
//!   embedded [`LiveServer`](vserve_server::live::LiveServer); shutdown
//!   drains in-flight work before closing.
//! * [`client`] — a blocking client with connection pooling and in-flight
//!   pipelining over each socket; per-request deadlines are propagated
//!   into the frame so the server sheds late work.
//!
//! The wire protocol also carries a `VRM1` **metrics-scrape frame** — its
//! `GET /metrics`: [`scrape`] (or [`NetClient::scrape`]) returns the
//! plain-text exposition [`NetServer::exposition`] renders (counters,
//! per-stage times, latency quantiles, preproc-cache stats), so a running
//! server can be polled by anything that speaks the framed protocol.
//!
//! The `net` bench bin in `vserve-bench` drives this loopback vs
//! in-process to measure the RPC overhead share per payload size, and
//! `vserve-server`'s simulator replays that share via the
//! `ServerConfig::rpc` / `CpuModel::{rpc_fixed_s, serialize_bytes_per_s}`
//! knobs.
//!
//! # Examples
//!
//! ```
//! use vserve_dnn::{models, Model};
//! use vserve_net::{ClientOptions, NetClient, NetOptions, NetServer};
//! use vserve_server::live::LiveOptions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = Model::from_graph(models::micro_cnn(32, 10)?, 7);
//! let server = NetServer::bind(
//!     model,
//!     NetOptions {
//!         live: LiveOptions { input_side: 32, backend_threads: 1, ..LiveOptions::default() },
//!         ..NetOptions::default()
//!     },
//! )?;
//! let client = NetClient::connect(server.local_addr(), ClientOptions::default())?;
//! # // A tiny JPEG via the workload generator would go here; see
//! # // examples/net_roundtrip.rs for the full round trip.
//! drop(client);
//! # Ok(())
//! # }
//! ```
//!
//! (See `examples/net_roundtrip.rs` for the full server + pooled-client
//! round trip with the per-stage table.)

// There is no other serving engine to fall back to.
#[cfg(not(unix))]
compile_error!("vserve-net needs a Unix target: its event loop polls raw fds (epoll or poll(2))");

pub mod client;
pub mod conn;
pub mod poller;
pub mod router;
pub mod server;
pub mod wire;

pub use client::{scrape, ClientOptions, NetClient, NetError, NetResult};
pub use poller::fd_soft_limit;
pub use router::{Router, RouterClient, RouterOptions, ShardPolicy};
pub use server::{NetMetrics, NetOptions, NetServer};
pub use wire::{
    FrameAssembler, MetricsRequest, RequestFrame, ResponseFrame, StageMicros, Status, WireError,
    MAX_FRAME_LEN,
};

/// Environment variable read by [`NetOptions::default`] for the listen
/// address (`host:port`; port 0 picks an ephemeral port).
pub const NET_ADDR_ENV: &str = "VSERVE_NET_ADDR";

/// Environment variable read by [`NetOptions::default`] for the maximum
/// concurrently accepted connections.
pub const NET_MAX_CONNS_ENV: &str = "VSERVE_NET_MAX_CONNS";

/// Environment variable read by [`ClientOptions::default`] for the
/// client's connection-pool size.
pub const NET_POOL_ENV: &str = "VSERVE_NET_POOL";

/// Environment variable read by [`NetOptions::default`] for the
/// per-connection in-flight request cap (flow control).
pub const NET_INFLIGHT_ENV: &str = "VSERVE_NET_INFLIGHT_PER_CONN";

/// Environment variable read by [`RouterOptions::default`] for the
/// number of server shards behind the router.
pub const NET_SHARDS_ENV: &str = "VSERVE_NET_SHARDS";

/// Default listen address: loopback, ephemeral port.
pub const DEFAULT_ADDR: &str = "127.0.0.1:0";

/// Default connection cap for [`NetOptions`].
pub const DEFAULT_MAX_CONNS: usize = 64;

/// Default pool size for [`ClientOptions`].
pub const DEFAULT_POOL: usize = 2;

/// Default per-connection in-flight request cap.
pub const DEFAULT_INFLIGHT_PER_CONN: usize = 128;

/// Default shard count for [`RouterOptions`].
pub const DEFAULT_SHARDS: usize = 2;

pub(crate) fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}
