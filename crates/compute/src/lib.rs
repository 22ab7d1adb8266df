//! Shared compute backend for the vserve hot paths.
//!
//! The paper's thesis is that non-inference stages (JPEG decode, resize,
//! normalize, batching) dominate server time — but demonstrating that on
//! real compute requires the kernels themselves to be respectable. This
//! crate provides the two pieces every hot loop in the workspace shares:
//!
//! * [`Backend`] — a dependency-free scoped worker pool built on
//!   [`std::thread::scope`]. Work is split into *chunks of a caller-chosen
//!   size* over a `&mut [T]`, and each worker receives a contiguous band
//!   of chunks, so output regions are disjoint and the per-element
//!   arithmetic order never depends on the thread count: results are
//!   **bit-identical** for `Backend::new(1)` and `Backend::new(n)`.
//! * [`Scratch`] — a buffer arena that recycles large `f32` temporaries
//!   (packed im2col panels, attention score buffers, IDCT planes) across
//!   calls, so steady-state forward passes stop allocating. Each thread
//!   owns one, reached through [`Scratch::with_local`] by the entry points
//!   that take no arena; every other function takes `&mut Scratch`.
//!
//! The crate is intentionally `std`-only: the build environment for this
//! workspace cannot assume a crates.io mirror, so no thread-pool crate here.
//!
//! # Examples
//!
//! ```
//! use vserve_compute::Backend;
//!
//! let bk = Backend::new(4);
//! let mut data = vec![0u64; 1 << 16];
//! bk.par_chunks_mut(&mut data, 4096, |chunk_idx, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (chunk_idx * 4096 + i) as u64;
//!     }
//! });
//! assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod scratch;

pub use pool::{Backend, BackendStats};
pub use scratch::Scratch;
