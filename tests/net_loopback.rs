//! End-to-end loopback tests for the `vserve-net` TCP front-end.
//!
//! The contract under test: putting a real socket between client and
//! server adds measurable transfer/deserialize stages but changes
//! *nothing else* — the classification output must be bit-identical to
//! the in-process `LiveServer`, overload must surface as typed status
//! frames (not dropped connections), and no sequence of hostile bytes may
//! take the server down.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use vserve_dnn::{models, Model};
use vserve_net::{ClientOptions, NetClient, NetError, NetOptions, NetServer, Status};
use vserve_server::live::{LiveOptions, LiveServer};
use vserve_workload::synthetic_jpeg;

const SIDE: usize = 32;
const SEED: u64 = 21;

fn model() -> Model {
    Model::from_graph(models::micro_cnn(SIDE, 10).expect("graph"), SEED)
}

fn opts() -> LiveOptions {
    LiveOptions {
        preproc_workers: 2,
        inference_workers: 1,
        max_batch: 4,
        max_queue_delay: Duration::from_millis(1),
        input_side: SIDE,
        backend_threads: 1,
        ..LiveOptions::default()
    }
}

fn payload(seed: u64) -> Vec<u8> {
    synthetic_jpeg(&vserve_device::ImageSpec::new(64, 48, 0), seed)
}

/// Eight concurrent clients over the wire must see exactly the outputs
/// the in-process server computes for the same payloads: the wire
/// carries bytes, it does not perturb them.
#[test]
fn concurrent_clients_bit_identical_to_in_process() {
    // Reference run: same model seed, same options, no socket.
    let payloads: Vec<Vec<u8>> = (0..8).map(payload).collect();
    let reference: Vec<Vec<f32>> = {
        let live = LiveServer::start(model(), opts());
        payloads
            .iter()
            .map(|p| live.infer(p.clone()).expect("in-process infer").output)
            .collect()
    };

    let server = NetServer::bind(
        model(),
        NetOptions {
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let results: Vec<Vec<Vec<f32>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let payloads = &payloads;
                s.spawn(move || {
                    let client = NetClient::connect(
                        addr,
                        ClientOptions {
                            pool: 1,
                            ..ClientOptions::default()
                        },
                    )
                    .expect("connect");
                    // Every client sends every payload: 64 requests race
                    // through the batcher in arbitrary interleavings.
                    payloads
                        .iter()
                        .enumerate()
                        .map(|(i, p)| {
                            let r = client.infer(p).expect("rpc infer");
                            assert!(
                                r.server_total >= r.inference,
                                "client {c} request {i}: inconsistent stage accounting"
                            );
                            r.output
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (c, outputs) in results.iter().enumerate() {
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(
                out, &reference[i],
                "client {c} payload {i}: wire output diverged from in-process"
            );
        }
    }
    let m = server.metrics();
    assert_eq!(m.live.completed, 64);
    assert_eq!(m.bad_frames, 0);
    // The net path recorded its stages for every completed request.
    use vserve_server::stages;
    let summary = m.summary();
    assert_eq!(summary.breakdown.count(stages::NET_TRANSFER), 64);
    assert_eq!(summary.breakdown.count(stages::DESERIALIZE), 64);
}

/// When the live queue is full, the shed must arrive as a typed
/// `Overloaded` response frame on the same healthy connection — not as a
/// dropped connection or a hang.
#[test]
fn queue_full_sheds_as_typed_overloaded_frames() {
    let server = NetServer::bind(
        model(),
        NetOptions {
            live: LiveOptions {
                queue_cap: 2,
                preproc_workers: 1,
                ..opts()
            },
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let client = NetClient::connect(
        server.local_addr(),
        ClientOptions {
            pool: 1,
            ..ClientOptions::default()
        },
    )
    .expect("connect");

    // Pre-encode a burst so submission is not paced by the JPEG encoder,
    // then fire it all before waiting on anything.
    let payloads: Vec<Vec<u8>> = (0..32).map(|i| payload(100 + i)).collect();
    let pending: Vec<_> = payloads
        .iter()
        .map(|p| client.submit(p).expect("submit"))
        .collect();

    let mut ok = 0;
    let mut overloaded = 0;
    for p in pending {
        match p.wait() {
            Ok(r) => {
                assert_eq!(r.output.len(), 10);
                ok += 1;
            }
            Err(NetError::Server { status, .. }) => {
                assert_eq!(status, Status::Overloaded, "unexpected shed status");
                overloaded += 1;
            }
            Err(other) => panic!("burst request failed with transport error: {other}"),
        }
    }
    assert!(ok > 0, "burst must complete some requests");
    assert!(
        overloaded > 0,
        "queue_cap=2 under a 32-deep burst must shed something"
    );
    // The connection survived every shed: it still serves.
    assert_eq!(client.live_conns(), 1);
    assert_eq!(
        client
            .infer(&payload(999))
            .expect("post-burst infer")
            .output
            .len(),
        10
    );
    let m = server.metrics();
    assert_eq!(m.live.rejected, overloaded);
    assert_eq!(m.live.completed, ok as u64 + 1);
}

/// Hostile bytes — truncations, corruptions, hostile lengths — must never
/// take the server down: each bad connection gets a typed `BadFrame` (or
/// just a close), and well-formed clients keep working throughout.
#[test]
fn malformed_frames_never_kill_the_server() {
    let server = NetServer::bind(
        model(),
        NetOptions {
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let jpeg = payload(5);
    let mut good = Vec::new();
    vserve_net::wire::encode_request(
        &mut good,
        &vserve_net::RequestFrame {
            id: 9,
            side: 0,
            deadline_us: 0,
            model: "",
            tenant: "",
            jpeg: &jpeg,
        },
    );

    let mut hostile: Vec<Vec<u8>> = vec![
        vec![],                             // immediate close
        vec![0x00],                         // partial header
        vec![0xff, 0xff, 0xff, 0xff, 0, 0], // 4 GiB length claim
        vec![0x00, 0x00, 0x00, 0x00],       // zero-length frame
        b"GET / HTTP/1.1\r\n\r\n".to_vec(), // wrong protocol entirely
        good[..good.len() / 2].to_vec(),    // truncated valid frame
    ];
    // Single-byte corruptions of a valid frame at every position in the
    // header + early body.
    for i in 0..good.len().min(24) {
        let mut f = good.clone();
        f[i] ^= 0x80;
        hostile.push(f);
    }

    for bytes in &hostile {
        let mut s = TcpStream::connect(addr).expect("connect raw");
        s.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let _ = s.write_all(bytes);
        let _ = s.shutdown(std::net::Shutdown::Write);
        // Drain whatever the server says (a typed BadFrame frame or EOF);
        // all that matters is the server neither hangs nor dies.
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
    }

    // After the whole gauntlet, a well-formed client still gets answers.
    let client = NetClient::connect(addr, ClientOptions::default()).expect("connect");
    let r = client.infer(&jpeg).expect("post-gauntlet infer");
    assert_eq!(r.output.len(), 10);
    let m = server.metrics();
    assert!(
        m.bad_frames > 0,
        "gauntlet should have tripped bad-frame accounting"
    );
    // Corruptions of opaque bytes (id, deadline, payload) can still be
    // valid frames and legitimately complete; all that is pinned here is
    // that the final well-formed request was among the completions.
    assert!(m.live.completed >= 1);
}

/// The same hostile-bytes discipline applies to the `VRM1` scrape frame:
/// truncations at every length, hostile length prefixes, trailing bytes,
/// and single-byte corruptions must never kill or wedge the server, and
/// both scraping and inference must work after the gauntlet.
#[test]
fn malformed_metrics_frames_never_kill_the_server() {
    let server = NetServer::bind(
        model(),
        NetOptions {
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let mut good = Vec::new();
    vserve_net::wire::encode_metrics_request(
        &mut good,
        &vserve_net::MetricsRequest { id: 7, flags: 0 },
    );

    let mut hostile: Vec<Vec<u8>> = Vec::new();
    // Truncations of a valid scrape frame at every possible cut.
    for cut in 0..good.len() {
        hostile.push(good[..cut].to_vec());
    }
    // A valid frame followed by a stray trailing byte on the stream.
    let mut trailing = good.clone();
    trailing.push(0xAA);
    hostile.push(trailing);
    // Hostile length prefixes ahead of the magic.
    hostile.push(vec![0xff, 0xff, 0xff, 0xff, b'V', b'R', b'M', b'1']);
    hostile.push(vec![0x00, 0x00, 0x00, 0x03, b'V', b'R', b'M']);
    // Single-byte corruptions across the whole frame (length prefix,
    // magic, id, flags).
    for i in 0..good.len() {
        for bit in [0x01u8, 0x80] {
            let mut f = good.clone();
            f[i] ^= bit;
            hostile.push(f);
        }
    }

    for bytes in &hostile {
        let mut s = TcpStream::connect(addr).expect("connect raw");
        s.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let _ = s.write_all(bytes);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
    }

    // The server survived: scraping and inference both still work.
    let text = vserve_net::scrape(addr).expect("post-gauntlet scrape");
    assert!(text.contains("vserve_up 1"));
    let client = NetClient::connect(addr, ClientOptions::default()).expect("connect");
    assert_eq!(client.infer(&payload(6)).expect("infer").output.len(), 10);
}

/// Happy-path scrape over the wire: after real traffic, the exposition
/// reflects it — completed counts, per-stage rows including the wire's
/// own transfer stage, and latency quantiles.
#[test]
fn scrape_exposes_served_traffic_over_the_wire() {
    let server = NetServer::bind(
        model(),
        NetOptions {
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let client = NetClient::connect(addr, ClientOptions::default()).expect("connect");
    for i in 0..5u64 {
        client.infer(&payload(40 + i)).expect("infer");
    }

    let text = client.scrape().expect("scrape");
    assert!(text.contains("vserve_up 1"));
    assert!(text.contains("vserve_requests_completed_total 5"));
    assert!(text.contains("# TYPE vserve_latency_seconds summary"));
    assert!(text.contains("vserve_latency_seconds{quantile=\"0.99\"}"));
    assert!(text.contains("vserve_stage_seconds_total{stage=\"0-net-transfer\"}"));
    assert!(text.contains("vserve_stage_seconds_total{stage=\"4-inference\"}"));
    // Knobs are fixed at start; no tuner series is exposed.
    assert!(!text.contains("vserve_tune"), "{text}");
    // Scraping is read-only: it must not disturb request accounting.
    assert_eq!(server.metrics().live.completed, 5);
    // And the free-function scrape on a dedicated connection agrees.
    let again = vserve_net::scrape(addr).expect("scrape via free fn");
    assert!(again.contains("vserve_requests_completed_total 5"));
}

/// Pulls the value of a single-sample gauge out of an exposition.
fn gauge(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("gauge {name} missing from exposition"))
}

/// The `VRM1` exposition carries the event loop's connection gauges:
/// open connections, draining connections, and the per-connection write
/// buffer's high-water mark.
#[test]
fn scrape_exposes_connection_gauges() {
    let server = NetServer::bind(
        model(),
        NetOptions {
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let client = NetClient::connect(
        addr,
        ClientOptions {
            pool: 2,
            ..ClientOptions::default()
        },
    )
    .expect("connect");
    client.infer(&payload(1)).expect("infer");

    let text = client.scrape().expect("scrape");
    // The pooled data connections are open while the scrape runs (the
    // scrape's own short-lived conn may or may not still be counted).
    assert!(
        gauge(&text, "vserve_conns_open ") >= 2.0,
        "pool of 2 must show as open conns: {}",
        gauge(&text, "vserve_conns_open ")
    );
    assert_eq!(gauge(&text, "vserve_conns_draining "), 0.0);
    // Present and numeric; loopback replies usually flush straight into
    // the socket buffer, so the high-water mark may legitimately be 0.
    assert!(gauge(&text, "vserve_write_buffer_hwm_bytes ") >= 0.0);

    // After a graceful drain with nothing in flight, every connection
    // closes and nothing is stuck draining. Polled through the in-process
    // metrics view so the poll itself keeps no connection open.
    server.drain_connections();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let m = server.metrics();
        if m.active == 0 && m.draining == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drained conns never left the gauges: {} open, {} draining",
            m.active,
            m.draining
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The exposition (same document a scrape frame gets) agrees.
    let text = server.exposition();
    assert_eq!(gauge(&text, "vserve_conns_open "), 0.0);
    assert_eq!(gauge(&text, "vserve_conns_draining "), 0.0);
}

/// A slow-loris sender dribbling a valid request one byte at a time must
/// neither block the loop (a concurrent fast client keeps being served
/// mid-dribble) nor lose its own request: the dribbled frame completes.
#[test]
fn slow_loris_byte_at_a_time_sender_is_served_without_blocking_others() {
    let server = NetServer::bind(
        model(),
        NetOptions {
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let jpeg = payload(11);
    let mut frame = Vec::new();
    vserve_net::wire::encode_request(
        &mut frame,
        &vserve_net::RequestFrame {
            id: 1,
            side: 0,
            deadline_us: 0,
            model: "",
            tenant: "",
            jpeg: &jpeg,
        },
    );

    let slow = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect slow");
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(Duration::from_secs(30))).ok();
        for (i, b) in frame.iter().enumerate() {
            s.write_all(std::slice::from_ref(b)).expect("dribble byte");
            // Stretch the dribble over real time without taking minutes.
            if i % 64 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut body = Vec::new();
        match vserve_net::wire::read_frame_into(&mut s, &mut body) {
            Ok(Some(_)) => {}
            other => panic!("slow sender got no reply: {other:?}"),
        }
        let resp = vserve_net::wire::decode_response(&body).expect("decode");
        assert_eq!(resp.id, 1);
        assert_eq!(resp.status, Status::Ok, "dribbled frame must complete");
    });

    // While the dribble is in progress, a normal client is unaffected.
    let client = NetClient::connect(addr, ClientOptions::default()).expect("connect fast");
    for i in 0..10 {
        assert_eq!(
            client
                .infer(&payload(50 + i))
                .expect("fast infer")
                .output
                .len(),
            10
        );
    }
    slow.join().expect("slow sender thread");
}

/// A client that pipelines far past the per-connection in-flight cap and
/// then stalls (never reading) must be flow-controlled — not grow server
/// memory, not block other connections — and still receive every reply
/// once it finally reads.
#[test]
fn stalled_reader_is_flow_controlled_not_fatal() {
    let server = NetServer::bind(
        model(),
        NetOptions {
            max_inflight_per_conn: 2,
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    const BURST: u64 = 24;
    let mut stalled = TcpStream::connect(addr).expect("connect stalled");
    stalled.set_nodelay(true).ok();
    stalled.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut bytes = Vec::new();
    for id in 0..BURST {
        let jpeg = payload(200 + id);
        vserve_net::wire::encode_request(
            &mut bytes,
            &vserve_net::RequestFrame {
                id,
                side: 0,
                deadline_us: 0,
                model: "",
                tenant: "",
                jpeg: &jpeg,
            },
        );
    }
    // Fire the whole burst without reading a single reply.
    stalled.write_all(&bytes).expect("burst write");

    // The stall must not starve anyone else.
    let client = NetClient::connect(addr, ClientOptions::default()).expect("connect healthy");
    for i in 0..10 {
        assert_eq!(
            client
                .infer(&payload(70 + i))
                .expect("healthy infer")
                .output
                .len(),
            10
        );
    }

    // Now drain the stalled socket: every reply arrives exactly once.
    let mut got = std::collections::HashSet::new();
    let mut body = Vec::new();
    for _ in 0..BURST {
        match vserve_net::wire::read_frame_into(&mut stalled, &mut body) {
            Ok(Some(_)) => {}
            other => panic!("stalled reader missing replies: {other:?}"),
        }
        let resp = vserve_net::wire::decode_response(&body).expect("decode");
        assert_eq!(resp.status, Status::Ok);
        assert!(got.insert(resp.id), "duplicate reply id {}", resp.id);
    }
    assert_eq!(got.len(), BURST as usize);
}

/// Mid-frame disconnects — a client vanishing with half a header or half
/// a body on the wire — must never wedge the loop or take other
/// connections down.
#[test]
fn mid_frame_disconnects_leave_server_healthy() {
    let server = NetServer::bind(
        model(),
        NetOptions {
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let jpeg = payload(31);
    let mut frame = Vec::new();
    vserve_net::wire::encode_request(
        &mut frame,
        &vserve_net::RequestFrame {
            id: 3,
            side: 0,
            deadline_us: 0,
            model: "",
            tenant: "",
            jpeg: &jpeg,
        },
    );

    // Cut points: inside the header, right after it, and mid-body.
    for cut in [1usize, 3, 4, 7, frame.len() / 2, frame.len() - 1] {
        for shutdown_first in [false, true] {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&frame[..cut]).expect("partial write");
            if shutdown_first {
                let _ = s.shutdown(std::net::Shutdown::Write);
            }
            drop(s); // vanish mid-frame
        }
    }

    // Everyone else is fine, including a full request/response cycle.
    let client = NetClient::connect(addr, ClientOptions::default()).expect("connect");
    assert_eq!(
        client
            .infer(&jpeg)
            .expect("post-gauntlet infer")
            .output
            .len(),
        10
    );
    // The abandoned partial frames never became requests.
    assert_eq!(server.metrics().live.completed, 1);
}

/// High-connection smoke: the event loop holds hundreds-to-thousands of
/// idle connections (bounded only by the fd soft limit) while still
/// serving. `VSERVE_NET_SMOKE_CONNS` scales it up to the 10k-connection
/// CI run.
#[test]
fn idle_connection_flood_smoke() {
    let budget = vserve_net::fd_soft_limit()
        .map(|l| (l.saturating_sub(512) / 2) as usize)
        .unwrap_or(256);
    let want: usize = std::env::var("VSERVE_NET_SMOKE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    let n = want.min(budget);
    if n < 64 {
        return; // fd limit too tight to say anything useful
    }

    let server = NetServer::bind(
        model(),
        NetOptions {
            max_conns: n + 16,
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let mut idle = Vec::with_capacity(n);
    for i in 0..n {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            Err(e) => panic!("connect {i}/{n} failed: {e}"),
        }
    }
    // Wait for the acceptor to register the flood.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.metrics().active < n {
        assert!(
            std::time::Instant::now() < deadline,
            "only {}/{} conns registered",
            server.metrics().active,
            n
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Still serving under the flood — and the gauges see it.
    let client = NetClient::connect(addr, ClientOptions::default()).expect("connect");
    for i in 0..5 {
        assert_eq!(
            client.infer(&payload(90 + i)).expect("infer").output.len(),
            10
        );
    }
    let text = client.scrape().expect("scrape");
    assert!(
        gauge(&text, "vserve_conns_open ") >= n as f64,
        "gauge below flood size: {}",
        gauge(&text, "vserve_conns_open ")
    );

    drop(idle);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.metrics().active > 8 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle conns never closed: {} still open",
            server.metrics().active
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The wire's own spans (`0-net-transfer`, `0-deserialize`) must join the
/// live pipeline's timeline under the same composed request id, so one
/// trace shows a request from first byte to batched inference.
#[test]
fn wire_spans_join_live_timeline() {
    use vserve_server::stages;
    use vserve_trace::Tracer;

    let tracer = Tracer::with_capacity(1 << 14);
    let server = NetServer::bind(
        model(),
        NetOptions {
            live: LiveOptions {
                trace: tracer.clone(),
                ..opts()
            },
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let client =
        NetClient::connect(server.local_addr(), ClientOptions::default()).expect("connect");
    for i in 0..6 {
        client.infer(&payload(300 + i)).expect("traced infer");
    }
    drop(client);
    drop(server); // join all recording threads before snapshotting

    let snap = tracer.snapshot();
    let traced: Vec<u64> = snap
        .request_ids()
        .into_iter()
        .filter(|&id| {
            snap.spans_for(id)
                .iter()
                .any(|s| s.stage == stages::NET_TRANSFER)
        })
        .collect();
    assert_eq!(
        traced.len(),
        6,
        "every wire request gets a composed trace id"
    );
    for id in traced {
        let spans = snap.spans_for(id);
        for stage in [
            stages::NET_TRANSFER,
            stages::DESERIALIZE,
            stages::PREPROC,
            stages::INFERENCE,
        ] {
            assert!(
                spans.iter().any(|s| s.stage == stage),
                "request {id:#x} missing {stage} from its joined timeline"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// multi-tenant lanes over the wire
// ---------------------------------------------------------------------------

/// Tenant-tagged (`VRQ2`) frames route to the named lane, quota sheds
/// come back as typed `QuotaExceeded` frames on a healthy connection,
/// and an unknown tenant is a typed rejection.
#[test]
fn tenant_frames_route_and_shed_typed_over_the_wire() {
    use vserve_server::TenantSpec;
    let reference = {
        let live = LiveServer::start(model(), opts());
        live.infer(payload(0)).expect("in-process infer").output
    };
    let server = NetServer::bind(
        model(),
        NetOptions {
            live: LiveOptions {
                tenants: vec![
                    TenantSpec::new("lc", "default").weight(4.0),
                    TenantSpec::new("metered", "default").quota(1e-9, 1),
                ],
                ..opts()
            },
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Tenant routing: the lc lane serves bit-identically to a
    // single-tenant in-process server.
    let lc = NetClient::connect(
        addr,
        ClientOptions {
            pool: 1,
            tenant: "lc".to_owned(),
            ..ClientOptions::default()
        },
    )
    .expect("connect lc");
    assert_eq!(lc.infer(&payload(0)).expect("lc infer").output, reference);

    // Quota: burst 1 with ~zero refill admits exactly one request, then
    // sheds typed QuotaExceeded without dropping the connection.
    let metered = NetClient::connect(
        addr,
        ClientOptions {
            pool: 1,
            tenant: "metered".to_owned(),
            ..ClientOptions::default()
        },
    )
    .expect("connect metered");
    assert_eq!(
        metered
            .infer(&payload(1))
            .expect("first metered")
            .output
            .len(),
        10
    );
    match metered.infer(&payload(2)) {
        Err(NetError::Server { status, .. }) => assert_eq!(status, Status::QuotaExceeded),
        other => panic!("expected typed quota shed, got {other:?}"),
    }
    assert_eq!(metered.live_conns(), 1, "shed must not drop the connection");

    // Unknown tenant: typed rejection, connection stays up.
    let ghost = NetClient::connect(
        addr,
        ClientOptions {
            pool: 1,
            tenant: "nobody".to_owned(),
            ..ClientOptions::default()
        },
    )
    .expect("connect ghost");
    match ghost.infer(&payload(3)) {
        Err(NetError::Server { status, .. }) => assert_eq!(status, Status::UnknownModel),
        other => panic!("expected typed unknown-tenant rejection, got {other:?}"),
    }

    // The scrape exposes per-lane rows for both tenants.
    let text = server.exposition();
    for needle in [
        "vserve_lane_depth{lane=\"lc\"",
        "vserve_lane_completed{lane=\"lc\"",
        "vserve_lane_shed{lane=\"metered\"",
        "vserve_lane_p99_us{lane=\"lc\"",
    ] {
        assert!(text.contains(needle), "scrape missing {needle}\n{text}");
    }
    let m = server.metrics();
    assert_eq!(m.live.lanes.len(), 2);
    assert_eq!(m.live.lanes[0].completed, 1);
    assert_eq!(m.live.lanes[1].completed, 1);
    assert_eq!(m.live.lanes[1].shed, 1);
}

/// A two-model zoo behind one socket: model names route across the zoo
/// and each lane's outputs stay bit-identical to that model's solo
/// in-process run under co-location.
#[test]
fn zoo_models_route_by_name_over_the_wire() {
    use vserve_server::live::ZooModel;
    let small_ref = {
        let live = LiveServer::start(model(), opts());
        live.infer(payload(7)).expect("solo small").output
    };
    let large_model = || Model::from_graph(models::micro_cnn(48, 7).expect("graph"), 5);
    let large_ref = {
        let live = LiveServer::start(
            large_model(),
            LiveOptions {
                input_side: 48,
                ..opts()
            },
        );
        live.infer(payload(7)).expect("solo large").output
    };
    let server = NetServer::bind_zoo(
        vec![
            ZooModel {
                name: "small".to_owned(),
                model: model(),
                input_side: SIDE,
            },
            ZooModel {
                name: "large".to_owned(),
                model: large_model(),
                input_side: 48,
            },
        ],
        NetOptions {
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind zoo");
    let addr = server.local_addr();
    let client_for = |m: &str| {
        NetClient::connect(
            addr,
            ClientOptions {
                pool: 1,
                model: m.to_owned(),
                ..ClientOptions::default()
            },
        )
        .expect("connect")
    };
    let small = client_for("small");
    let large = client_for("large");
    // Interleave the two models through the shared backend.
    for _ in 0..3 {
        assert_eq!(
            small.infer(&payload(7)).expect("small rpc").output,
            small_ref
        );
        assert_eq!(
            large.infer(&payload(7)).expect("large rpc").output,
            large_ref
        );
    }
    match client_for("resnet999").infer(&payload(7)) {
        Err(NetError::Server { status, .. }) => assert_eq!(status, Status::UnknownModel),
        other => panic!("expected typed unknown-model rejection, got {other:?}"),
    }
    let m = server.metrics();
    assert_eq!(m.live.completed, 6);
    assert_eq!(m.live.lanes.len(), 2);
    assert_eq!(m.live.lanes[0].completed, 3);
    assert_eq!(m.live.lanes[1].completed, 3);
}

/// A cascade pipeline behind one socket: `NetOptions::pipeline` registers
/// the executor at bind, `VRQ2` frames
/// naming it — in the model *or* tenant field — dispatch whole cascades,
/// and the joined output is bit-identical to the in-process runner on a
/// twin zoo.
#[test]
fn pipeline_frames_dispatch_cascades_over_the_wire() {
    use vserve_pipeline::{PipelineRunner, PipelineSpec};
    use vserve_server::live::ZooModel;
    use vserve_server::stages;
    const K: u32 = 4;
    let zoo = || {
        vec![
            ZooModel {
                name: "det".to_owned(),
                model: Model::from_graph(models::micro_cnn(SIDE, 10).expect("graph"), 11),
                input_side: SIDE,
            },
            ZooModel {
                name: "id".to_owned(),
                model: Model::from_graph(models::micro_cnn(SIDE, 10).expect("graph"), 22),
                input_side: SIDE,
            },
        ]
    };
    let reference = {
        let live = LiveServer::start_zoo(zoo(), opts()).expect("twin zoo");
        let runner = PipelineRunner::new(
            live.pipeline_handle(),
            PipelineSpec::chain("faces", "det", "id", K),
        )
        .expect("twin runner");
        runner
            .infer(payload(70))
            .expect("in-process cascade")
            .output
    };
    // The joined reply concatenates the *terminal* stages' outputs: the
    // K identify children, not the non-terminal detect root.
    assert_eq!(reference.len(), 10 * K as usize, "joined terminal outputs");

    let server = NetServer::bind_zoo(
        zoo(),
        NetOptions {
            live: opts(),
            pipeline: Some(PipelineSpec::chain("faces", "det", "id", K)),
            ..NetOptions::default()
        },
    )
    .expect("bind zoo with pipeline");
    let addr = server.local_addr();
    let by_model = NetClient::connect(
        addr,
        ClientOptions {
            pool: 1,
            model: "faces".to_owned(),
            ..ClientOptions::default()
        },
    )
    .expect("connect by model");
    assert_eq!(
        by_model.infer(&payload(70)).expect("wire cascade").output,
        reference,
        "wire cascade must match the in-process runner bit for bit"
    );
    let by_tenant = NetClient::connect(
        addr,
        ClientOptions {
            pool: 1,
            tenant: "faces".to_owned(),
            ..ClientOptions::default()
        },
    )
    .expect("connect by tenant");
    assert_eq!(
        by_tenant
            .infer(&payload(70))
            .expect("tenant cascade")
            .output,
        reference,
        "tenant-field addressing reaches the same executor"
    );

    let m = server.metrics();
    assert_eq!(
        m.live.completed,
        2 * (1 + K as u64),
        "each cascade completes root + K sub-requests"
    );
    let det_row = m
        .live
        .breakdown
        .total(&stages::cascade_stage("faces", "det"));
    let id_row = m
        .live
        .breakdown
        .total(&stages::cascade_stage("faces", "id"));
    assert!(
        det_row > 0.0 && id_row > 0.0,
        "cascade stage rows must appear in the served breakdown: det {det_row} id {id_row}"
    );
}

/// A 3 MiB payload crosses client → wire → server as one buffer on
/// either side: the output is bit-identical to the in-process server's,
/// a second send of the same bytes hits the cache entry the first one
/// made, and once it is served the connection holds no more than a read
/// granule's worth of buffer — while a raw client dribbling its frame
/// seven bytes at a time beside it is served too.
#[test]
fn large_payload_arrives_byte_exact_beside_a_dribbling_client() {
    let large = synthetic_jpeg(&vserve_device::ImageSpec::new(4800, 3600, 0), 77);
    assert!(large.len() >= 3 << 20, "only {} bytes", large.len());
    let reference = LiveServer::start(model(), opts())
        .infer(large.clone())
        .expect("in-process infer")
        .output;

    let server = NetServer::bind(
        model(),
        NetOptions {
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let small = payload(31);
    let mut frame = Vec::new();
    vserve_net::wire::encode_request(
        &mut frame,
        &vserve_net::RequestFrame {
            id: 5,
            side: 0,
            deadline_us: 0,
            model: "",
            tenant: "",
            jpeg: &small,
        },
    );
    let dribbler = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect dribbler");
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(Duration::from_secs(30))).ok();
        for piece in frame.chunks(7) {
            s.write_all(piece).expect("dribble");
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut body = Vec::new();
        match vserve_net::wire::read_frame_into(&mut s, &mut body) {
            Ok(Some(_)) => {}
            other => panic!("dribbler got no reply: {other:?}"),
        }
        let resp = vserve_net::wire::decode_response(&body).expect("decode");
        assert_eq!((resp.id, resp.status), (5, Status::Ok));
    });

    let client = NetClient::connect(
        addr,
        ClientOptions {
            pool: 1,
            ..ClientOptions::default()
        },
    )
    .expect("connect");
    for round in 0..3 {
        let out = client.infer(&large).expect("large infer").output;
        assert_eq!(out, reference, "round {round}: wire output diverged");
    }
    dribbler.join().expect("dribbler thread");

    // The dribbler's connection closes on the server's own schedule: wait
    // until only the client's is left, so the two reads below see the
    // same connections.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().active > 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the dribbler's connection never closed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = server.metrics();
    assert_eq!(m.bad_frames, 0);
    assert_eq!(
        (m.live.preproc_cache.misses, m.live.preproc_cache.hits),
        (2, 2),
        "the same bytes must key the same cache entry every time"
    );
    // The big frames left with their requests.
    assert!(
        m.read_buffer_capacity_bytes <= 64 * 1024,
        "an idle connection holds {} bytes of read buffer",
        m.read_buffer_capacity_bytes
    );
    let text = server.exposition();
    assert_eq!(
        gauge(&text, "vserve_read_buffer_capacity_bytes "),
        m.read_buffer_capacity_bytes as f64
    );
}

/// Frames that arrive fused in one read while the in-flight cap pauses
/// admission sit in the assembler, not the socket: no readiness event
/// will announce them, so the replies that free the cap must admit them.
#[test]
fn frames_buffered_behind_the_inflight_cap_are_admitted_when_it_lifts() {
    let server = NetServer::bind(
        model(),
        NetOptions {
            max_inflight_per_conn: 2,
            live: opts(),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    const BURST: u64 = 8;
    let mut bytes = Vec::new();
    for id in 0..BURST {
        vserve_net::wire::encode_request(
            &mut bytes,
            &vserve_net::RequestFrame {
                id,
                side: 0,
                deadline_us: 0,
                model: "",
                tenant: "",
                jpeg: &payload(300 + id),
            },
        );
    }
    assert!(bytes.len() < 16 * 1024, "the burst must fit one read");
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
    s.write_all(&bytes).expect("burst write");
    let mut body = Vec::new();
    for id in 0..BURST {
        match vserve_net::wire::read_frame_into(&mut s, &mut body) {
            Ok(Some(_)) => {}
            other => panic!("reply {id} never came: {other:?}"),
        }
        let resp = vserve_net::wire::decode_response(&body).expect("decode");
        assert_eq!((resp.id, resp.status), (id, Status::Ok));
    }
}
