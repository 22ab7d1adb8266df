//! A minimal shard/router tier: N [`NetServer`] shards behind one
//! client-side router.
//!
//! The paper's broker axis measures what request *distribution*
//! infrastructure costs on top of serving. This module reproduces that
//! axis in its cheapest honest form — client-side routing over the same
//! pooled, pipelining [`NetClient`] transport the single-server path
//! uses, so the measured delta between 1 shard and N shards is the
//! routing overhead itself, not an artifact of a different wire path.
//!
//! Two placement policies:
//!
//! * [`ShardPolicy::LeastLoaded`] — each request goes to the shard with
//!   the fewest router-observed in-flight requests (ties broken
//!   round-robin). In-flight counts decrement when the reply is waited
//!   on *or* dropped, so abandoned requests cannot pin a shard "busy".
//! * [`ShardPolicy::ConsistentHash`] — the request key (the cache's
//!   [`content_hash`] of the whole payload) picks the shard, so identical
//!   payloads always land on the same shard and its preproc cache — the
//!   cache-affinity deployment.
//!
//! Every shard runs the full [`NetServer`] stack around a clone of the
//! same [`Model`], so outputs are bit-identical regardless of which
//! shard serves a request — the loopback E2E suite pins this through the
//! router tier.
//!
//! The simulator's counterpart is `ServerConfig::shards` in
//! `vserve-server`, which scales the sim's dispatch/preproc capacity and
//! charges the extra router hop, keeping scaling curves to 10k+
//! simulated clients replayable against this implementation.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vserve_dnn::Model;
use vserve_server::cache::content_hash;

use crate::client::{ClientOptions, NetClient, NetError, NetResult, PendingReply};
use crate::server::{NetMetrics, NetOptions, NetServer};
use crate::{env_usize, DEFAULT_SHARDS, NET_SHARDS_ENV};

/// How the router places a request on a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Fewest router-observed in-flight requests wins (ties round-robin).
    LeastLoaded,
    /// The cache's `content_hash` of the payload bytes picks the shard:
    /// identical payloads share a shard (and its preproc cache).
    ConsistentHash,
}

/// Configuration for [`Router::bind`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Number of server shards. Defaults to [`NET_SHARDS_ENV`] or 2;
    /// clamped to at least 1.
    pub shards: usize,
    /// Placement policy for [`RouterClient`]s created via
    /// [`Router::client`].
    pub policy: ShardPolicy,
    /// Template options every shard is bound with. The address must
    /// carry port 0 (each shard resolves its own ephemeral port);
    /// `model_name` and the embedded live options apply to all shards.
    pub net: NetOptions,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            shards: env_usize(NET_SHARDS_ENV, DEFAULT_SHARDS),
            policy: ShardPolicy::LeastLoaded,
            net: NetOptions::default(),
        }
    }
}

/// N serving shards sharing one model definition. Dropping the router
/// drains and shuts down every shard.
pub struct Router {
    shards: Vec<NetServer>,
    policy: ShardPolicy,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Router {
    /// Binds `opts.shards` independent [`NetServer`]s, each around a
    /// clone of `model` (clones share weights, so shard outputs are
    /// bit-identical).
    ///
    /// # Errors
    ///
    /// Returns the first bind error; shards already bound are dropped
    /// (drained) on the way out.
    pub fn bind(model: Model, opts: RouterOptions) -> std::io::Result<Router> {
        let n = opts.shards.max(1);
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(NetServer::bind(model.clone(), opts.net.clone())?);
        }
        Ok(Router {
            shards,
            policy: opts.policy,
        })
    }

    /// The bound address of every shard, in shard order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(|s| s.local_addr()).collect()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard metrics snapshots, in shard order.
    pub fn metrics(&self) -> Vec<NetMetrics> {
        self.shards.iter().map(|s| s.metrics()).collect()
    }

    /// Gracefully drains every shard's current connections (see
    /// [`NetServer::drain_connections`]).
    pub fn drain_connections(&self) {
        for s in &self.shards {
            s.drain_connections();
        }
    }

    /// Opens a [`RouterClient`] over every shard with this router's
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns the first connect error.
    pub fn client(&self, opts: ClientOptions) -> std::io::Result<RouterClient> {
        RouterClient::connect(&self.shard_addrs(), self.policy, opts)
    }
}

struct Shard {
    client: NetClient,
    /// Requests routed here and not yet resolved (router-observed load).
    inflight: Arc<AtomicUsize>,
}

/// A client-side router over N shards, reusing [`NetClient`]'s pooled
/// pipelining per shard.
pub struct RouterClient {
    shards: Vec<Shard>,
    policy: ShardPolicy,
    rr: AtomicUsize,
}

impl std::fmt::Debug for RouterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterClient")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// An in-flight routed request. [`wait`](Self::wait) blocks for the
/// response; dropping it unwaited still releases its shard-load count.
pub struct RoutedReply {
    inner: PendingReply,
    _guard: InflightGuard,
    /// Which shard served it (index into the router's shard list).
    pub shard: usize,
}

impl RoutedReply {
    /// Blocks for the response (see [`PendingReply::wait`]).
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`NetError`].
    pub fn wait(self) -> Result<NetResult, NetError> {
        self.inner.wait()
    }
}

struct InflightGuard {
    counter: Arc<AtomicUsize>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::Relaxed);
    }
}

impl RouterClient {
    /// Connects one pooled [`NetClient`] per shard address.
    ///
    /// # Errors
    ///
    /// Returns the first connect error.
    pub fn connect(
        addrs: &[SocketAddr],
        policy: ShardPolicy,
        opts: ClientOptions,
    ) -> std::io::Result<RouterClient> {
        let mut shards = Vec::with_capacity(addrs.len());
        for addr in addrs {
            shards.push(Shard {
                client: NetClient::connect(*addr, opts.clone())?,
                inflight: Arc::new(AtomicUsize::new(0)),
            });
        }
        Ok(RouterClient {
            shards,
            policy,
            rr: AtomicUsize::new(0),
        })
    }

    /// Picks the shard for `jpeg` under the configured policy.
    fn pick(&self, jpeg: &[u8]) -> usize {
        match self.policy {
            ShardPolicy::ConsistentHash => (content_hash(jpeg) % self.shards.len() as u64) as usize,
            ShardPolicy::LeastLoaded => {
                // Argmin over in-flight counts; the rotating start index
                // breaks ties fairly instead of piling onto shard 0.
                let n = self.shards.len();
                let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
                let mut best = start;
                let mut best_load = usize::MAX;
                for i in 0..n {
                    let idx = (start + i) % n;
                    let load = self.shards[idx].inflight.load(Ordering::Relaxed);
                    if load < best_load {
                        best = idx;
                        best_load = load;
                    }
                }
                best
            }
        }
    }

    /// Routes and fires a request without waiting — the pipelining
    /// primitive, now shard-aware.
    ///
    /// # Errors
    ///
    /// Propagates the chosen shard's submit error.
    pub fn submit(&self, jpeg: &[u8]) -> Result<RoutedReply, NetError> {
        self.submit_with_deadline(jpeg, None)
    }

    /// [`submit`](Self::submit) with an explicit per-request deadline.
    ///
    /// # Errors
    ///
    /// Propagates the chosen shard's submit error.
    pub fn submit_with_deadline(
        &self,
        jpeg: &[u8],
        deadline: Option<Duration>,
    ) -> Result<RoutedReply, NetError> {
        let idx = self.pick(jpeg);
        let shard = &self.shards[idx];
        shard.inflight.fetch_add(1, Ordering::Relaxed);
        let guard = InflightGuard {
            counter: Arc::clone(&shard.inflight),
        };
        let inner = shard.client.submit_with_deadline(jpeg, deadline)?;
        Ok(RoutedReply {
            inner,
            _guard: guard,
            shard: idx,
        })
    }

    /// Routes a request and blocks for the result.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`NetError`].
    pub fn infer(&self, jpeg: &[u8]) -> Result<NetResult, NetError> {
        self.submit(jpeg)?.wait()
    }

    /// Router-observed in-flight count per shard, in shard order.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.inflight.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vserve_dnn::models;
    use vserve_server::live::LiveOptions;
    use vserve_workload::synthetic_jpeg;

    fn tiny_router(shards: usize, policy: ShardPolicy) -> Router {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        Router::bind(
            model,
            RouterOptions {
                shards,
                policy,
                net: NetOptions {
                    live: LiveOptions {
                        input_side: 32,
                        backend_threads: 1,
                        max_queue_delay: Duration::from_millis(2),
                        ..LiveOptions::default()
                    },
                    ..NetOptions::default()
                },
            },
        )
        .expect("bind shards")
    }

    fn spec(seed: u64) -> Vec<u8> {
        synthetic_jpeg(&vserve_device::ImageSpec::new(48, 48, 0), seed)
    }

    #[test]
    fn least_loaded_spreads_across_shards() {
        let router = tiny_router(3, ShardPolicy::LeastLoaded);
        let client = router.client(ClientOptions::default()).unwrap();
        let pending: Vec<_> = (0..12).map(|i| client.submit(&spec(i)).unwrap()).collect();
        // With equal loads and rotating tie-break, requests spread.
        let mut seen = [0usize; 3];
        for p in &pending {
            seen[p.shard] += 1;
        }
        for (i, &n) in seen.iter().enumerate() {
            assert!(n > 0, "shard {i} never chosen: {seen:?}");
        }
        for p in pending {
            assert_eq!(p.wait().unwrap().output.len(), 10);
        }
        // All loads released once waited.
        assert_eq!(client.shard_loads(), vec![0, 0, 0]);
        let served: u64 = router.metrics().iter().map(|m| m.live.completed).sum();
        assert_eq!(served, 12);
    }

    #[test]
    fn consistent_hash_is_sticky_per_payload() {
        let router = tiny_router(4, ShardPolicy::ConsistentHash);
        let client = router.client(ClientOptions::default()).unwrap();
        let payload = spec(7);
        let first = client.submit(&payload).unwrap();
        let shard = first.shard;
        assert_eq!(first.wait().unwrap().output.len(), 10);
        for _ in 0..5 {
            let p = client.submit(&payload).unwrap();
            assert_eq!(p.shard, shard, "same payload must stay on its shard");
            p.wait().unwrap();
        }
        // Different payloads eventually land elsewhere.
        let other = (0..64)
            .map(|i| client.pick(&spec(100 + i)))
            .any(|s| s != shard);
        assert!(other, "hash routing degenerated to one shard");
    }

    /// `% shards` reads the hash's low bits: a finalizer that left them
    /// weak would crowd some shards exactly here.
    #[test]
    fn consistent_hash_spreads_payloads_evenly() {
        let router = tiny_router(4, ShardPolicy::ConsistentHash);
        let client = router.client(ClientOptions::default()).unwrap();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        const PAYLOADS: usize = 2_000;
        let mut per_shard = [0usize; 4];
        for _ in 0..PAYLOADS {
            let len = 1024 + (next() % 3073) as usize;
            let payload: Vec<u8> = (0..len).map(|_| (next() >> 32) as u8).collect();
            per_shard[client.pick(&payload)] += 1;
        }
        let uniform = PAYLOADS / per_shard.len();
        for (shard, &n) in per_shard.iter().enumerate() {
            assert!(
                n.abs_diff(uniform) * 100 <= uniform * 15,
                "shard {shard} got {n} of {PAYLOADS}: {per_shard:?}"
            );
        }
    }

    #[test]
    fn router_outputs_match_single_server() {
        let router = tiny_router(2, ShardPolicy::LeastLoaded);
        let client = router.client(ClientOptions::default()).unwrap();
        let single = tiny_router(1, ShardPolicy::LeastLoaded);
        let single_client = single.client(ClientOptions::default()).unwrap();
        for i in 0..6 {
            let a = client.infer(&spec(i)).unwrap();
            let b = single_client.infer(&spec(i)).unwrap();
            assert_eq!(a.output, b.output, "payload {i} diverged across shards");
        }
    }

    #[test]
    fn dropped_reply_releases_shard_load() {
        let router = tiny_router(2, ShardPolicy::LeastLoaded);
        let client = router.client(ClientOptions::default()).unwrap();
        let p = client.submit(&spec(3)).unwrap();
        assert_eq!(client.shard_loads().iter().sum::<usize>(), 1);
        drop(p); // abandoned, not waited
        assert_eq!(
            client.shard_loads().iter().sum::<usize>(),
            0,
            "dropped replies must not pin shard load"
        );
    }
}
