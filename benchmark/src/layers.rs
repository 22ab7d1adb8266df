//! Per-layer ceilings: `vbench` timing calls into each layer's public
//! functions on the workload's own inputs, outside any server. A layer's
//! in-server time is read against these ("preprocessing runs at 1.1x its
//! ceiling"), and a later change to one crate should move its ceiling first.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vserve_codec::{decode, decode_scaled, preprocess_jpeg_with, probe_dimensions, DecodeScale};
use vserve_compute::{Backend, Scratch};
use vserve_net::wire::{
    decode_request, decode_response, encode_request, encode_response, output_bytes, FrameAssembler,
    RequestFrame, ResponseFrame, StageMicros, Status,
};
use vserve_sched::{DrrPicker, LaneView, ModelLane, Priority, TenantSpec};
use vserve_server::cache::{fnv1a, CacheKey, PreprocCache};
use vserve_tensor::{ops, Tensor};

use crate::corpus::Corpus;
use crate::spec::Workload;
use crate::stats;

/// Bytes the evented connection reads per `read` call; the frame ceiling
/// feeds the assembler in the same chunks.
const SERVER_READ_CHUNK: usize = 16 * 1024;

/// Median microseconds per call of `f`, calling it for about `budget` (at
/// least three times, after one untimed warm-up call).
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || (Instant::now() < end && samples.len() < 1_000_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&samples)
}

/// Times the ceilings of every layer but `dnn` (see `forward_probe`), sharing
/// `budget` evenly. Calls cycle through the workload's images, so a median is
/// over its inputs, not over one of them.
pub fn ceilings(w: &Workload, c: &Corpus, budget: Duration) -> BTreeMap<&'static str, f64> {
    let slot = budget / 16;
    let n = c.images.len();
    let mut m = BTreeMap::new();
    let mut i = 0usize;
    let mut next = || {
        i += 1;
        &c.images[i % n]
    };

    // codec / tensor / simd / compute
    let serial = Backend::new(1);
    let mut scratch = Scratch::new();
    let scale = |jpeg: &[u8]| {
        let (sw, sh) = probe_dimensions(jpeg).expect("corpus JPEG has a header");
        DecodeScale::for_target(sw, sh, w.side)
    };
    let bytes: usize = c.images.iter().map(Vec::len).sum();
    m.insert("codec.payload_bytes", bytes as f64 / n as f64);
    m.insert(
        "codec.probe_us",
        time_us(slot, || {
            black_box(probe_dimensions(black_box(next())).expect("probe"));
        }),
    );
    m.insert(
        "codec.decode_us",
        time_us(slot, || {
            black_box(decode(black_box(next())).expect("decode"));
        }),
    );
    m.insert(
        "codec.decode_scaled_us",
        time_us(slot, || {
            let jpeg = next();
            black_box(decode_scaled(black_box(jpeg), scale(jpeg)).expect("scaled decode"));
        }),
    );
    let mut preprocess = |bk: &Backend, slot: Duration| {
        time_us(slot, || {
            let t = preprocess_jpeg_with(bk, &mut scratch, black_box(next()), w.side);
            black_box(t.expect("preprocess"));
        })
    };
    let pre_active = preprocess(&serial, slot);
    m.insert("codec.preprocess_us", pre_active);
    let active = vserve_simd::active_level();
    vserve_simd::set_level(vserve_simd::Level::Scalar);
    let pre_scalar = preprocess(&serial, slot);
    vserve_simd::set_level(active);
    m.insert("simd.lanes", vserve_simd::active_level().lanes() as f64);
    m.insert(
        "simd.preprocess_scalar_over_active",
        pre_scalar / pre_active,
    );
    m.insert(
        "compute.preprocess_speedup_2t",
        pre_active / preprocess(&Backend::new(2), slot),
    );
    let scaled: Vec<_> = c
        .images
        .iter()
        .take(8)
        .map(|jpeg| decode_scaled(jpeg, scale(jpeg)).expect("scaled decode"))
        .collect();
    let mut j = 0usize;
    m.insert(
        "tensor.fused_preprocess_us",
        time_us(slot, || {
            j += 1;
            black_box(ops::fused_preprocess_with(
                &serial,
                &scaled[j % scaled.len()],
                w.side,
            ));
        }),
    );

    // server: content hash and the cache's read and write side
    m.insert(
        "server.fnv1a_us",
        time_us(slot, || {
            black_box(fnv1a(black_box(next())));
        }),
    );
    let tensor = Arc::new(Tensor::zeros(&[1, 3, w.side, w.side]));
    let mut cache = PreprocCache::with_capacity_mb(32);
    let keys: Vec<CacheKey> = c
        .images
        .iter()
        .map(|p| CacheKey::for_payload(p, w.side))
        .collect();
    let resident = keys.len().min(cache.capacity_bytes() / (tensor.len() * 4));
    for key in &keys[..resident] {
        cache.insert(*key, Arc::clone(&tensor));
    }
    let mut k = 0usize;
    m.insert(
        "server.cache_hit_us",
        time_us(slot, || {
            k += 1;
            black_box(cache.get(&keys[k % resident]).expect("resident key hits"));
        }),
    );
    // Fill to the budget, then every insert of a fresh key evicts the oldest.
    let fresh = |seq: usize| CacheKey {
        hash: seq as u64,
        len: 1,
        side: w.side,
        spec: 1,
    };
    let mut seq = 0usize;
    while cache.stats().evictions == 0 {
        seq += 1;
        cache.insert(fresh(seq), Arc::clone(&tensor));
    }
    m.insert(
        "server.cache_insert_evict_us",
        time_us(slot, || {
            seq += 1;
            cache.insert(fresh(seq), Arc::clone(&tensor));
        }),
    );

    // sched: one lane's admission + batch hand-off, and the picker
    let mut lane: ModelLane<u64> =
        ModelLane::new(TenantSpec::new("bench", "default"), 256, 8, 2000);
    let admit_take = time_us(slot, || {
        for item in 0..8u64 {
            lane.admit(item, item).expect("lane has room");
        }
        black_box(lane.take_batch());
    });
    m.insert("sched.admit_take_ns", admit_take * 1e3 / 8.0);
    let mut picker = DrrPicker::new(8.0);
    let view = [LaneView {
        priority: Priority::Normal,
        weight: 1.0,
        cost: 8.0,
        ready: true,
    }];
    let pick = time_us(slot, || {
        for _ in 0..64 {
            black_box(picker.pick(black_box(&view)));
        }
    });
    m.insert("sched.pick_ns", pick * 1e3 / 64.0);

    // net: the request frame's way in and the reply frame's way out
    let mut frame = Vec::new();
    let mut assembler = FrameAssembler::new();
    m.insert(
        "net.frame_roundtrip_us",
        time_us(slot, || {
            frame.clear();
            encode_request(
                &mut frame,
                &RequestFrame {
                    id: 1,
                    side: 0,
                    deadline_us: 0,
                    model: "",
                    tenant: "",
                    jpeg: next(),
                },
            );
            for chunk in frame.chunks(SERVER_READ_CHUNK) {
                assembler.extend(chunk).expect("well-formed frame");
            }
            let (body, _) = assembler
                .next_frame()
                .expect("well-formed")
                .expect("complete");
            black_box(decode_request(body).expect("decodes").jpeg.to_vec());
        }),
    );
    let output = output_bytes(&c.expected[0]);
    m.insert(
        "net.response_codec_us",
        time_us(slot, || {
            frame.clear();
            encode_response(
                &mut frame,
                &ResponseFrame {
                    id: 1,
                    status: Status::Ok,
                    msg: "",
                    batch: 8,
                    stages: StageMicros::default(),
                    output: &output,
                },
            );
            let resp = decode_response(&frame[4..]).expect("decodes");
            black_box(resp.output_vec());
        }),
    );
    m
}

/// Body of `vbench --forward-probe`: a fresh process builds the model and
/// times `forward_batch` at batch 1, 8 and `at_batch`. The parent runs eight
/// of these; their spread is the per-instance forward-speed lottery.
pub fn forward_probe(w: &Workload, first_image: &[u8], at_batch: usize, budget: Duration) {
    let model = w.build_model();
    let input = vserve_codec::preprocess_jpeg(first_image, w.side).expect("corpus JPEG decodes");
    let time = |b: usize| {
        let batch = vec![&input; b];
        time_us(budget / 3, || {
            black_box(model.forward_batch(black_box(&batch)).expect("forward"));
        })
    };
    let (b1, b8) = (time(1), time(8));
    // The server's usual batch is often one of the two ends; do not pay for
    // the same measurement twice.
    let at = match at_batch {
        0 | 1 => b1,
        8.. => b8,
        b => time(b),
    };
    println!("v dnn.forward_b1_us {b1}\nv dnn.forward_b8_us {b8}\nv dnn.forward_at_batch_us {at}");
    println!("v dnn.flops_per_item {}", 2 * model.graph().flops());
}
