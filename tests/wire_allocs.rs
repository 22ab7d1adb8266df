//! Allocator traffic of one wire request, thread by thread.
//!
//! A request's bytes should be read once into a buffer that then *is* the
//! request. A copy that creeps back in shows here as a payload-sized
//! allocation; a per-request `Vec` as one more allocator call on the
//! event-loop thread — numbers, not RSS drift under load.
//!
//! The server's threads are not the test's, so the counting allocator
//! files every call under a per-thread slot, and the event-loop thread is
//! the one seen allocating a frame body's exact (and otherwise unlikely)
//! length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use vserve_device::ImageSpec;
use vserve_dnn::{models, Model};
use vserve_net::{wire, ClientOptions, NetClient, NetOptions, NetServer, RequestFrame};
use vserve_server::live::LiveOptions;
use vserve_workload::synthetic_jpeg;

const SLOTS: usize = 64;
const NO_SLOT: usize = usize::MAX;

/// Allocator calls (`alloc` + `realloc`) per thread slot, and those of
/// them asking for at least `BIG` bytes.
static CALLS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static BIG_CALLS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static BIG: AtomicUsize = AtomicUsize::new(usize::MAX);
/// The size whose allocation gives the event-loop thread away, and the
/// slot that asked for it.
static MARK: AtomicUsize = AtomicUsize::new(usize::MAX);
static MARKED: AtomicUsize = AtomicUsize::new(NO_SLOT);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(NO_SLOT) };
}

struct Counting;

fn note(size: usize) {
    let _ = SLOT.try_with(|s| {
        if s.get() == NO_SLOT {
            s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
        }
        CALLS[s.get()].fetch_add(1, Relaxed);
        if size >= BIG.load(Relaxed) {
            BIG_CALLS[s.get()].fetch_add(1, Relaxed);
        }
        if size == MARK.load(Relaxed) {
            MARKED.store(s.get(), Relaxed);
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only atomics and a const-initialized thread-local `Cell` with no
// destructor, so it allocates nothing and is valid for the thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn my_slot() -> usize {
    drop(Box::new(0u8)); // make sure this thread has one
    SLOT.with(Cell::get)
}

fn snapshot(of: &[AtomicU64; SLOTS]) -> [u64; SLOTS] {
    std::array::from_fn(|i| of[i].load(Relaxed))
}

/// What `n` sequential `infer`s of `jpeg` cost, per request: allocator
/// calls on the event-loop thread, payload-sized allocations there, on
/// the submitting thread, and anywhere at all.
struct PerRequest {
    loop_calls: f64,
    loop_big: f64,
    client_big: f64,
    all_big: f64,
}

fn measure(client: &NetClient, loop_slot: usize, jpeg: &[u8], n: u32) -> PerRequest {
    for _ in 0..8 {
        client.infer(jpeg).expect("warm-up");
    }
    BIG.store(jpeg.len(), Relaxed);
    let (calls, big) = (snapshot(&CALLS), snapshot(&BIG_CALLS));
    for _ in 0..n {
        client.infer(jpeg).expect("steady state");
    }
    let big_now = snapshot(&BIG_CALLS);
    BIG.store(usize::MAX, Relaxed);
    let per = |x: u64| x as f64 / f64::from(n);
    let me = my_slot();
    PerRequest {
        loop_calls: per(CALLS[loop_slot].load(Relaxed) - calls[loop_slot]),
        loop_big: per(big_now[loop_slot] - big[loop_slot]),
        client_big: per(big_now[me] - big[me]),
        all_big: per(big_now.iter().sum::<u64>() - big.iter().sum::<u64>()),
    }
}

#[test]
fn a_wire_request_is_read_into_the_buffer_it_keeps() {
    let side = 32;
    let server = NetServer::bind(
        Model::from_graph(models::micro_cnn(side, 10).expect("graph"), 5),
        NetOptions {
            live: LiveOptions {
                input_side: side,
                backend_threads: 1,
                ..LiveOptions::default()
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

    // Find the event-loop thread: whoever allocates exactly one frame
    // body's length. (At the parent that was `body.to_vec()`; now it is
    // the assembler's last growth step, to the frame's end.)
    let marker = synthetic_jpeg(&ImageSpec::new(500, 377, 0), 1);
    let mut frame = Vec::new();
    wire::encode_request(
        &mut frame,
        &RequestFrame {
            id: 1,
            side: 0,
            deadline_us: 0,
            model: "",
            tenant: "",
            jpeg: &marker,
        },
    );
    assert!(frame.len() > 20_000, "marker frame must be a big one");
    MARK.store(frame.len() - wire::HEADER_LEN, Relaxed);
    client.infer(&marker).expect("marker request");
    MARK.store(usize::MAX, Relaxed);
    let loop_slot = MARKED.load(Relaxed);
    assert_ne!(loop_slot, NO_SLOT, "no thread allocated a frame body");
    assert_ne!(
        loop_slot,
        my_slot(),
        "the client thread built a whole frame"
    );

    // ~2 KiB and > 1 MiB, both cache-hot after the warm-up.
    let small = synthetic_jpeg(&ImageSpec::new(60, 70, 0), 2);
    let large = synthetic_jpeg(&ImageSpec::new(2800, 2100, 0), 3);
    assert!(small.len() < 4096 && large.len() > 1 << 20);

    // Measured at 4f46721 — the parent of the change that introduced
    // `FrameAssembler::read_from` — by this same test: the event-loop
    // thread made 9 allocator calls per request at either size (two of
    // them `body.to_vec()` and `jpeg.to_vec()`, one a per-tick index
    // `Vec`), and a large request cost three payload-sized allocations:
    // those two copies and the client's frame `Vec`.
    const LOOP_CALLS_AT_PARENT: f64 = 9.0;
    let s = measure(&client, loop_slot, &small, 64);
    let l = measure(&client, loop_slot, &large, 16);
    println!(
        "event-loop allocator calls per request: 2 KiB {:.2}, 1 MiB {:.2}; payload-sized \
         allocations per 1 MiB request: {:.2} there, {:.2} on the client, {:.2} in all",
        s.loop_calls, l.loop_calls, l.loop_big, l.client_big, l.all_big
    );
    // Now: one copy out of the shared read buffer for a small frame (6
    // calls); three growth steps, 16 KiB -> 256 KiB -> the frame's end,
    // for a large one (8 calls). Half a call of slack for amortized
    // growth elsewhere.
    assert!(s.loop_calls < LOOP_CALLS_AT_PARENT && l.loop_calls < LOOP_CALLS_AT_PARENT);
    assert!(
        s.loop_calls <= 6.5 && l.loop_calls <= 8.5,
        "event-loop allocator calls per request: {} small, {} large",
        s.loop_calls,
        l.loop_calls
    );
    assert_eq!(
        l.client_big, 0.0,
        "the client copied the payload to send it"
    );
    assert!(
        l.loop_big <= 1.0 && l.all_big <= 1.0,
        "payload-sized allocations per 1 MiB request: {} on the event loop, {} in all",
        l.loop_big,
        l.all_big
    );
}
