//! Content-addressed cache of preprocessed tensors.
//!
//! Serving workloads repeat payloads — the same thumbnail fanned out to
//! several models, retried uploads, hot images in a feed — and the paper
//! shows preprocessing is the dominant per-request cost, so a hit here
//! removes the most expensive stage entirely. Entries are keyed by the
//! payload bytes ([`content_hash`] + length) and the target input side,
//! hold the finished NCHW tensor behind an [`Arc`], and are evicted
//! least-recently-used under a byte budget.
//!
//! The key reads **every** payload byte: a hit is served without
//! comparing payloads, so a key that skipped bytes would hand one image's
//! tensor to another. What stands between two different payloads and a
//! shared entry is a 64-bit non-cryptographic hash plus the length —
//! fine against accidents, not against an adversary who constructs
//! collisions.
//!
//! The cache itself is a plain mutable structure; `LiveServer` wraps it
//! in a `Mutex` and keeps only O(log n) work (hash-map + recency-index
//! updates) inside the critical section — decoding always happens outside
//! the lock. The in-flight coalescing counter also lives here so one
//! stats snapshot describes the whole duplicate-suppression story.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use vserve_tensor::Tensor;

/// Environment variable read when
/// [`LiveOptions::preproc_cache_mb`](crate::live::LiveOptions::preproc_cache_mb)
/// is `None`: cache capacity in MiB. `0` disables the cache.
pub const PREPROC_CACHE_MB_ENV: &str = "VSERVE_PREPROC_CACHE_MB";

/// Default cache capacity in MiB when neither the option nor the
/// environment variable is set.
pub const DEFAULT_PREPROC_CACHE_MB: usize = 32;

/// Resolves a configured capacity: explicit option, else
/// [`PREPROC_CACHE_MB_ENV`], else [`DEFAULT_PREPROC_CACHE_MB`].
pub fn resolve_capacity_mb(configured: Option<usize>) -> usize {
    configured.unwrap_or_else(|| {
        std::env::var(PREPROC_CACHE_MB_ENV)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_PREPROC_CACHE_MB)
    })
}

/// 64-bit FNV-1a hash of a byte string: one multiply per byte, each
/// waiting on the last. Fingerprints the few bytes of a preprocessing
/// spec; payloads are keyed by [`content_hash`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Multipliers of [`content_hash`]'s four lanes (odd, so each step is a
/// bijection of the lane state) and of its final fold.
const LANE_K: [u64; 4] = [
    0x9E37_79B1_85EB_CA87,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
];
const LANE_SEED: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
const FOLD_K: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline(always)]
fn lane_step(h: u64, k: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(k).rotate_left(29)
}

/// 64-bit content hash of a payload, one 8-byte word at a time.
///
/// The bytes are read as little-endian `u64` words (the last one
/// zero-padded) and word `j` is mixed into lane `j % 4` by
/// `h = ((h ^ word) * K).rotate_left(29)`; the four lanes carry no
/// dependency on each other, so their multiplies overlap and the loop
/// runs at memory speed instead of [`fnv1a`]'s one multiply per byte. The
/// lanes and the length are then folded and avalanched (the `fmix64`
/// finalizer), so the low bits are as good as the high ones.
///
/// Every byte is hashed, and every step is a bijection of its lane, so
/// two payloads of equal length that differ in a single word always hash
/// differently. Not cryptographic.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let mut h = LANE_SEED;
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        h[0] = lane_step(h[0], LANE_K[0], word(&b[0..8]));
        h[1] = lane_step(h[1], LANE_K[1], word(&b[8..16]));
        h[2] = lane_step(h[2], LANE_K[2], word(&b[16..24]));
        h[3] = lane_step(h[3], LANE_K[3], word(&b[24..32]));
    }
    for (lane, w) in blocks.remainder().chunks(8).enumerate() {
        let mut last = [0u8; 8];
        last[..w.len()].copy_from_slice(w);
        h[lane] = lane_step(h[lane], LANE_K[lane], u64::from_le_bytes(last));
    }
    let mut x = (bytes.len() as u64).wrapping_mul(FOLD_K);
    for lane in h {
        x = (x ^ lane).wrapping_mul(FOLD_K).rotate_left(31);
    }
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// Content-addressed key: payload hash + length (a cheap second factor
/// against hash collisions) + target input side + preprocessing spec.
///
/// The spec fingerprint exists because two co-resident models can share
/// an input side while disagreeing on everything else about
/// preprocessing (normalization constants, fast vs baseline decode). A
/// side-only key would alias their tensors and silently serve one
/// model's normalization to the other; folding the spec in makes such
/// entries distinct by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`content_hash`] of the payload bytes — all of them.
    pub hash: u64,
    /// Payload length in bytes.
    pub len: usize,
    /// Target model input side the tensor was preprocessed for.
    pub side: usize,
    /// Fingerprint of the preprocessing spec that produced the tensor
    /// (see [`preproc_spec_fingerprint`]); `0` is the legacy
    /// default-pipeline spec.
    pub spec: u64,
}

/// Fingerprints a preprocessing specification for [`CacheKey::spec`].
///
/// Inputs are the knobs that change the produced tensor for identical
/// payload bytes and side: the decode path (`fast` vs baseline) and the
/// per-channel normalization constants. Models using the default
/// pipeline should key with spec `0` ([`CacheKey::for_payload`]);
/// anything custom hashes its constants through here.
pub fn preproc_spec_fingerprint(fast: bool, mean: &[f32; 3], std: &[f32; 3]) -> u64 {
    let mut bytes = Vec::with_capacity(1 + 6 * 4);
    bytes.push(u8::from(fast));
    for v in mean.iter().chain(std.iter()) {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

impl CacheKey {
    /// Keys a payload for a given target side under the default
    /// preprocessing spec (`spec = 0`).
    pub fn for_payload(payload: &[u8], side: usize) -> CacheKey {
        CacheKey::for_payload_spec(payload, side, 0)
    }

    /// Keys a payload for a given target side and preprocessing-spec
    /// fingerprint.
    pub fn for_payload_spec(payload: &[u8], side: usize, spec: u64) -> CacheKey {
        CacheKey {
            hash: content_hash(payload),
            len: payload.len(),
            side,
            spec,
        }
    }
}

/// Counters describing cache and coalescing behavior since server start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocCacheStats {
    /// Requests served from a cached tensor (preprocessing skipped).
    pub hits: u64,
    /// Requests that looked up the cache and had to preprocess.
    pub misses: u64,
    /// Requests that attached to another request's in-flight
    /// preprocessing instead of decoding themselves.
    pub coalesced: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident (tensor payloads).
    pub bytes: usize,
    /// Configured byte budget; `0` means the cache is disabled.
    pub capacity_bytes: usize,
}

/// LRU cache of preprocessed tensors under a byte budget.
///
/// Recency is tracked with a monotonic sequence number per entry and a
/// `BTreeMap` from sequence to key, so both touch and evict-oldest are
/// O(log n) without external dependencies.
#[derive(Debug)]
pub struct PreprocCache {
    capacity_bytes: usize,
    entries: HashMap<CacheKey, (Arc<Tensor>, u64)>,
    recency: BTreeMap<u64, CacheKey>,
    seq: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
}

fn tensor_bytes(t: &Tensor) -> usize {
    t.as_slice().len() * std::mem::size_of::<f32>()
}

impl PreprocCache {
    /// Creates a cache with a byte budget; `0` disables it (every lookup
    /// misses silently and inserts are dropped).
    pub fn new(capacity_bytes: usize) -> Self {
        PreprocCache {
            capacity_bytes,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            seq: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            coalesced: 0,
            evictions: 0,
        }
    }

    /// Creates a cache with a MiB budget.
    pub fn with_capacity_mb(mb: usize) -> Self {
        PreprocCache::new(mb * 1024 * 1024)
    }

    /// Whether the cache stores anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Current byte budget (`0` = disabled).
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Retargets the byte budget at runtime, evicting least-recently-used
    /// entries immediately until the resident set fits. Shrinking to `0`
    /// disables the cache and evicts everything; growing takes effect on
    /// the next insert with no churn.
    pub fn set_capacity_bytes(&mut self, bytes: usize) {
        self.capacity_bytes = bytes;
        self.evict_to_budget();
    }

    /// Evicts LRU entries until `bytes <= capacity_bytes`.
    fn evict_to_budget(&mut self) {
        while self.bytes > self.capacity_bytes {
            let (&oldest, &victim) = self.recency.iter().next().expect("over budget → non-empty");
            self.recency.remove(&oldest);
            let (evicted, _) = self
                .entries
                .remove(&victim)
                .expect("recency/entries in sync");
            self.bytes -= tensor_bytes(&evicted);
            self.evictions += 1;
        }
    }

    /// Looks up a key, refreshing its recency. Counts a hit or miss;
    /// disabled caches return `None` without counting.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<Tensor>> {
        if !self.enabled() {
            return None;
        }
        match self.entries.get_mut(key) {
            Some((tensor, seq)) => {
                self.recency.remove(seq);
                self.seq += 1;
                *seq = self.seq;
                self.recency.insert(self.seq, *key);
                self.hits += 1;
                Some(Arc::clone(tensor))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a tensor, evicting least-recently-used entries until the
    /// byte budget holds. Tensors larger than the whole budget (and all
    /// inserts on a disabled cache) are dropped without churn.
    pub fn insert(&mut self, key: CacheKey, tensor: Arc<Tensor>) {
        let size = tensor_bytes(&tensor);
        if !self.enabled() || size > self.capacity_bytes {
            return;
        }
        if let Some((old, seq)) = self.entries.remove(&key) {
            self.recency.remove(&seq);
            self.bytes -= tensor_bytes(&old);
        }
        self.seq += 1;
        self.entries.insert(key, (tensor, self.seq));
        self.recency.insert(self.seq, key);
        self.bytes += size;
        self.evict_to_budget();
    }

    /// Records one request attaching to an in-flight preprocessing
    /// execution (the coalesce counter in [`PreprocCacheStats`]).
    pub fn note_coalesced(&mut self) {
        self.coalesced += 1;
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PreprocCacheStats {
        PreprocCacheStats {
            hits: self.hits,
            misses: self.misses,
            coalesced: self.coalesced,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.bytes,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(side: usize) -> Arc<Tensor> {
        Arc::new(Tensor::zeros(&[1, 3, side, side]))
    }

    fn key(i: u64) -> CacheKey {
        CacheKey {
            hash: i,
            len: i as usize,
            side: 8,
            spec: 0,
        }
    }

    #[test]
    fn content_key_distinguishes_payload_and_side() {
        let a = CacheKey::for_payload(b"abc", 224);
        assert_eq!(a, CacheKey::for_payload(b"abc", 224));
        assert_ne!(a, CacheKey::for_payload(b"abd", 224));
        assert_ne!(a, CacheKey::for_payload(b"abc", 160));
    }

    /// Satellite (ISSUE 9): two co-resident models with the same input
    /// side but different preprocessing specs must not alias in the
    /// cache. A side-only key would serve model A's normalization to
    /// model B; the spec fingerprint keeps the entries distinct.
    #[test]
    fn same_side_different_spec_does_not_collide() {
        let mean_a = [0.485, 0.456, 0.406];
        let std_a = [0.229, 0.224, 0.225];
        let mean_b = [0.5, 0.5, 0.5];
        let std_b = [0.5, 0.5, 0.5];
        let spec_a = preproc_spec_fingerprint(false, &mean_a, &std_a);
        let spec_b = preproc_spec_fingerprint(false, &mean_b, &std_b);
        assert_ne!(spec_a, spec_b, "distinct normalization → distinct spec");
        // Same bytes, same side, different specs → different keys.
        let ka = CacheKey::for_payload_spec(b"img", 224, spec_a);
        let kb = CacheKey::for_payload_spec(b"img", 224, spec_b);
        assert_ne!(ka, kb);
        // And the cache keeps both tensors resident independently.
        let mut c = PreprocCache::new(1 << 20);
        let ta = tensor(8);
        c.insert(ka, Arc::clone(&ta));
        c.insert(kb, tensor(8));
        assert_eq!(c.stats().entries, 2);
        assert!(Arc::ptr_eq(&c.get(&ka).unwrap(), &ta));
        // Decode path is part of the spec too: fast vs baseline decode
        // of the same payload produce different tensors.
        let spec_fast = preproc_spec_fingerprint(true, &mean_a, &std_a);
        assert_ne!(spec_fast, spec_a);
        // Legacy default-pipeline keys (spec 0) are unaffected.
        assert_eq!(CacheKey::for_payload(b"img", 224).spec, 0);
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut c = PreprocCache::new(1 << 20);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), tensor(4));
        assert!(c.get(&key(1)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    /// Satellite: eviction respects the byte budget, in LRU order.
    #[test]
    fn eviction_respects_byte_budget_lru_order() {
        let one = 3 * 8 * 8 * 4; // bytes per [1,3,8,8] tensor
        let mut c = PreprocCache::new(2 * one);
        c.insert(key(1), tensor(8));
        c.insert(key(2), tensor(8));
        assert_eq!(c.stats().bytes, 2 * one);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), tensor(8));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= s.capacity_bytes);
        assert_eq!(s.entries, 2);
        assert!(
            c.get(&key(2)).is_none(),
            "LRU entry must be the one evicted"
        );
        assert!(c.get(&key(1)).is_some() && c.get(&key(3)).is_some());
    }

    #[test]
    fn oversized_and_disabled_inserts_are_dropped() {
        let mut off = PreprocCache::new(0);
        off.insert(key(1), tensor(8));
        assert!(off.get(&key(1)).is_none());
        let s = off.stats();
        assert_eq!((s.entries, s.hits, s.misses), (0, 0, 0));

        let mut tiny = PreprocCache::new(16);
        tiny.insert(key(1), tensor(8));
        assert_eq!(tiny.stats().entries, 0);
        assert_eq!(tiny.stats().evictions, 0);
    }

    #[test]
    fn reinsert_replaces_without_double_counting_bytes() {
        let one = 3 * 8 * 8 * 4;
        let mut c = PreprocCache::new(4 * one);
        c.insert(key(1), tensor(8));
        c.insert(key(1), tensor(8));
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (1, one));
    }

    /// Satellite: the byte budget is a runtime knob, not a construction
    /// constant — shrinking evicts LRU-first immediately.
    #[test]
    fn resize_shrink_evicts_lru_immediately() {
        let one = 3 * 8 * 8 * 4;
        let mut c = PreprocCache::new(4 * one);
        for i in 1..=4 {
            c.insert(key(i), tensor(8));
        }
        // Touch 1 and 2 so 3 and 4 are the LRU victims.
        assert!(c.get(&key(1)).is_some() && c.get(&key(2)).is_some());
        c.set_capacity_bytes(2 * one);
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (2, 2 * one, 2));
        assert_eq!(c.capacity_bytes(), 2 * one);
        assert!(c.get(&key(3)).is_none() && c.get(&key(4)).is_none());
        assert!(c.get(&key(1)).is_some() && c.get(&key(2)).is_some());
    }

    #[test]
    fn resize_to_zero_disables_and_drains() {
        let mut c = PreprocCache::new(1 << 20);
        c.insert(key(1), tensor(8));
        c.set_capacity_bytes(0);
        assert!(!c.enabled());
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (0, 0, 1));
        // Disabled semantics now match a cache constructed with 0.
        c.insert(key(2), tensor(8));
        assert!(c.get(&key(2)).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn resize_grow_keeps_entries_and_admits_more() {
        let one = 3 * 8 * 8 * 4;
        let mut c = PreprocCache::new(one);
        c.insert(key(1), tensor(8));
        c.set_capacity_bytes(3 * one);
        c.insert(key(2), tensor(8));
        c.insert(key(3), tensor(8));
        let s = c.stats();
        assert_eq!((s.entries, s.evictions), (3, 0));
    }

    #[test]
    fn capacity_resolution_prefers_explicit_option() {
        assert_eq!(resolve_capacity_mb(Some(7)), 7);
        assert_eq!(resolve_capacity_mb(Some(0)), 0);
        // None falls back to env/default; with the variable unset this is
        // the default. (Not asserting the env path to keep the test
        // hermetic under parallel execution.)
        if std::env::var(PREPROC_CACHE_MB_ENV).is_err() {
            assert_eq!(resolve_capacity_mb(None), DEFAULT_PREPROC_CACHE_MB);
        }
    }

    /// The definition of [`content_hash`], one byte at a time: little-endian
    /// words, the last zero-padded, word `j` into lane `j % 4`.
    fn content_hash_reference(bytes: &[u8]) -> u64 {
        let (mut h, mut word) = (LANE_SEED, 0u64);
        for (i, &b) in bytes.iter().enumerate() {
            word |= u64::from(b) << (8 * (i % 8));
            if i % 8 == 7 || i + 1 == bytes.len() {
                let lane = (i / 8) % 4;
                h[lane] = (h[lane] ^ word).wrapping_mul(LANE_K[lane]).rotate_left(29);
                word = 0;
            }
        }
        let fold = |x: u64, lane: u64| (x ^ lane).wrapping_mul(FOLD_K).rotate_left(31);
        let mut x = h
            .into_iter()
            .fold((bytes.len() as u64).wrapping_mul(FOLD_K), fold);
        x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    }

    /// Seeded bytes that do not repeat with any small period.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn content_hash_equals_the_bytewise_reference() {
        // Every tail length around the 8-byte word and the 32-byte block,
        // and the benchmark's 1.9 MB payload size, at every alignment of
        // the slice start.
        let big = noise(1_934_117 + 8, 7);
        for offset in 0..8 {
            for len in (0..=300).chain([1_934_117]) {
                let x = &big[offset..offset + len];
                assert_eq!(
                    content_hash(x),
                    content_hash_reference(x),
                    "len {len} at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn content_hash_sees_every_bit() {
        let mut buf = noise(4096, 11);
        let clean = content_hash(&buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(content_hash(&buf), clean, "flipping bit {bit} went unseen");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(content_hash(&buf), clean);
    }

    #[test]
    fn content_hash_folds_the_length_in() {
        // Zero-padding the last word must not make `x` and `x ++ [0]` alike.
        for len in [0, 31, 32, 33] {
            let x = noise(len, 13);
            let (mut x0, mut x00) = (x.clone(), x.clone());
            x0.push(0);
            x00.extend([0, 0]);
            let (a, b, c) = (content_hash(&x), content_hash(&x0), content_hash(&x00));
            assert!(a != b && b != c && a != c, "len {len}: {a:x} {b:x} {c:x}");
        }
    }

    #[test]
    fn content_hash_values_are_pinned() {
        // A changed constant, lane order or finalizer is a new function:
        // cached entries and shard assignments keyed by the old one are
        // gone. Fail loudly instead. (Values from an independent
        // implementation of the doc comment's definition.)
        assert_eq!(content_hash(b""), 0xabc7_8d48_89e6_99e6);
        assert_eq!(content_hash(b"a"), 0xd3b9_2749_2052_fd65);
        assert_eq!(
            content_hash(b"the quick brown fox jumps over the lazy dog"),
            0x465a_eba9_2aca_8c0b
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
