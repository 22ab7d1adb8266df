//! Workload generation: arrivals, image-size mixes, faces per frame.
//!
//! The paper's experiments drive the server with (a) closed-loop clients
//! at fixed concurrency (Fig 5), (b) fixed representative image sizes
//! (Figs 6–9), and (c) a face pipeline where each frame yields a variable
//! number of faces (Fig 11). This crate provides those generators, all
//! drawing from deterministic [`RngStream`]s:
//!
//! * [`Arrivals`] — open arrival processes (Poisson, deterministic,
//!   bursty on/off); closed-loop drive lives in `vserve-server`.
//! * [`ImageMix`] — samplers over [`ImageSpec`]s: fixed, weighted mixes of
//!   the paper's sizes, and an ImageNet-like lognormal mixture.
//! * [`FacesPerFrame`] — per-frame face-count distributions for the
//!   multi-DNN pipeline.
//! * [`synthetic_jpeg`] — a *real* JPEG payload of approximately the
//!   requested spec, for live-mode runs that decode actual bytes.
//!
//! # Examples
//!
//! ```
//! use vserve_sim::rng::RngStream;
//! use vserve_workload::ImageMix;
//!
//! let mut rng = RngStream::derive(7, "sizes");
//! let mix = ImageMix::imagenet_like();
//! let img = mix.sample(&mut rng);
//! assert!(img.pixels() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vserve_codec::{encode, EncodeOptions};
use vserve_device::ImageSpec;
use vserve_sim::rng::RngStream;
use vserve_tensor::Image;

/// Open-loop arrival processes.
///
/// # Examples
///
/// ```
/// use vserve_sim::rng::RngStream;
/// use vserve_workload::Arrivals;
///
/// let mut rng = RngStream::derive(1, "arrivals");
/// let mut poisson = Arrivals::poisson(100.0);
/// let gap = poisson.next_gap(&mut rng);
/// assert!(gap > 0.0);
/// ```
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Poisson process with the given rate (requests/second).
    Poisson {
        /// Mean arrival rate, requests per second.
        rate: f64,
    },
    /// Deterministic arrivals at a fixed rate.
    Deterministic {
        /// Arrival rate, requests per second.
        rate: f64,
    },
    /// Two-state on/off burst process: alternates between a burst rate
    /// and an idle rate with exponentially distributed dwell times.
    Bursty {
        /// Rate during bursts, requests per second.
        burst_rate: f64,
        /// Rate between bursts, requests per second.
        idle_rate: f64,
        /// Mean dwell time in each state, seconds.
        mean_dwell: f64,
        /// Whether currently in the burst state.
        bursting: bool,
        /// Virtual time remaining in the current state, seconds.
        dwell_left: f64,
    },
}

impl Arrivals {
    /// Creates a Poisson process.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn poisson(rate: f64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        Arrivals::Poisson { rate }
    }

    /// Creates a deterministic process.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn deterministic(rate: f64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        Arrivals::Deterministic { rate }
    }

    /// Creates a bursty on/off process.
    ///
    /// # Panics
    ///
    /// Panics if any rate or the dwell time is not positive.
    pub fn bursty(burst_rate: f64, idle_rate: f64, mean_dwell: f64) -> Self {
        assert!(
            burst_rate > 0.0 && idle_rate > 0.0,
            "rates must be positive"
        );
        assert!(mean_dwell > 0.0, "dwell time must be positive");
        Arrivals::Bursty {
            burst_rate,
            idle_rate,
            mean_dwell,
            bursting: true,
            dwell_left: mean_dwell,
        }
    }

    /// Draws the gap to the next arrival, in seconds.
    pub fn next_gap(&mut self, rng: &mut RngStream) -> f64 {
        match self {
            Arrivals::Poisson { rate } => rng.exp(*rate),
            Arrivals::Deterministic { rate } => 1.0 / *rate,
            Arrivals::Bursty {
                burst_rate,
                idle_rate,
                mean_dwell,
                bursting,
                dwell_left,
            } => {
                let rate = if *bursting { *burst_rate } else { *idle_rate };
                let mut gap = rng.exp(rate);
                while gap > *dwell_left {
                    // Cross into the other state; re-draw the remainder at
                    // the new rate (memorylessness makes this exact).
                    let consumed = *dwell_left;
                    *bursting = !*bursting;
                    *dwell_left = rng.exp(1.0 / *mean_dwell);
                    let new_rate = if *bursting { *burst_rate } else { *idle_rate };
                    gap = consumed + rng.exp(new_rate);
                }
                *dwell_left -= gap;
                gap
            }
        }
    }
}

/// A distribution over request image sizes.
///
/// # Examples
///
/// ```
/// use vserve_device::ImageSpec;
/// use vserve_sim::rng::RngStream;
/// use vserve_workload::ImageMix;
///
/// let mut rng = RngStream::derive(3, "mix");
/// let mix = ImageMix::fixed(ImageSpec::medium());
/// assert_eq!(mix.sample(&mut rng), ImageSpec::medium());
/// ```
#[derive(Debug, Clone)]
pub enum ImageMix {
    /// Every request carries the same image.
    Fixed(ImageSpec),
    /// Weighted choice among a fixed set.
    Weighted(Vec<(ImageSpec, f64)>),
    /// ImageNet-like: lognormal pixel count (median ≈ 500×375), aspect
    /// ratio jitter, compressed size ≈ 0.65 B/px.
    ImageNetLike,
}

impl ImageMix {
    /// Every request carries `img`.
    pub fn fixed(img: ImageSpec) -> Self {
        ImageMix::Fixed(img)
    }

    /// The paper's three sizes with a realistic skew: mostly medium, some
    /// small, occasional large uploads.
    pub fn paper_sizes() -> Self {
        ImageMix::Weighted(vec![
            (ImageSpec::small(), 0.15),
            (ImageSpec::medium(), 0.83),
            (ImageSpec::large(), 0.02),
        ])
    }

    /// An ImageNet-like continuous size distribution.
    pub fn imagenet_like() -> Self {
        ImageMix::ImageNetLike
    }

    /// Draws one image spec.
    pub fn sample(&self, rng: &mut RngStream) -> ImageSpec {
        match self {
            ImageMix::Fixed(img) => *img,
            ImageMix::Weighted(items) => {
                let weights: Vec<f64> = items.iter().map(|(_, w)| *w).collect();
                items[rng.weighted_index(&weights)].0
            }
            ImageMix::ImageNetLike => {
                // Median ImageNet image is ≈ 500×375 ≈ 187 kpx; pixel
                // counts are roughly lognormal with σ ≈ 0.5.
                let pixels = rng.log_normal(187_500f64.ln(), 0.5).clamp(1_000.0, 4.0e7);
                let aspect = rng.uniform(0.6, 1.7);
                let width = (pixels * aspect).sqrt().round().max(16.0) as usize;
                let height = (pixels / aspect).sqrt().round().max(16.0) as usize;
                let bytes_per_px = rng.uniform(0.4, 0.9);
                let bytes = ((width * height) as f64 * bytes_per_px).round().max(512.0) as usize;
                ImageSpec::new(width, height, bytes)
            }
        }
    }
}

/// Distribution of detected faces per frame for the multi-DNN pipeline
/// (§4.7): one detection output fans out into `k` identification calls.
///
/// # Examples
///
/// ```
/// use vserve_sim::rng::RngStream;
/// use vserve_workload::FacesPerFrame;
///
/// let mut rng = RngStream::derive(5, "faces");
/// assert_eq!(FacesPerFrame::fixed(9).sample(&mut rng), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FacesPerFrame {
    /// Every frame contains exactly `k` faces.
    Fixed(u64),
    /// Poisson-distributed count with the given mean (frames with zero
    /// faces still traverse the detector).
    Poisson(f64),
}

impl FacesPerFrame {
    /// Every frame contains exactly `k` faces.
    pub fn fixed(k: u64) -> Self {
        FacesPerFrame::Fixed(k)
    }

    /// Poisson-distributed face counts with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or not finite.
    pub fn poisson(mean: f64) -> Self {
        assert!(mean.is_finite() && mean >= 0.0, "mean must be non-negative");
        FacesPerFrame::Poisson(mean)
    }

    /// Draws the face count for one frame.
    pub fn sample(&self, rng: &mut RngStream) -> u64 {
        match *self {
            FacesPerFrame::Fixed(k) => k,
            FacesPerFrame::Poisson(mean) => rng.poisson(mean),
        }
    }

    /// Mean faces per frame.
    pub fn mean(&self) -> f64 {
        match *self {
            FacesPerFrame::Fixed(k) => k as f64,
            FacesPerFrame::Poisson(mean) => mean,
        }
    }
}

/// Generates a real JPEG whose dimensions match `spec`, for live-mode
/// runs that exercise the actual codec. The compressed size will differ
/// from `spec.compressed_bytes` (it depends on content); the returned
/// bytes are a valid JPEG of the right resolution.
///
/// # Examples
///
/// ```
/// use vserve_device::ImageSpec;
/// use vserve_workload::synthetic_jpeg;
///
/// let jpeg = synthetic_jpeg(&ImageSpec::new(64, 48, 0), 42);
/// let img = vserve_codec::decode(&jpeg)?;
/// assert_eq!((img.width(), img.height()), (64, 48));
/// # Ok::<(), vserve_codec::DecodeJpegError>(())
/// ```
pub fn synthetic_jpeg(spec: &ImageSpec, seed: u64) -> Vec<u8> {
    let mut img = Image::gradient(spec.width, spec.height);
    let noise = Image::noise(spec.width, spec.height, seed);
    // Blend in noise so entropy (and thus compressed size) is realistic.
    let bytes = img.as_bytes_mut();
    for (b, n) in bytes.iter_mut().zip(noise.as_bytes()) {
        *b = ((u16::from(*b) * 3 + u16::from(*n)) / 4) as u8;
    }
    encode(&img, &EncodeOptions::default())
}

/// A synthetic video stream: consecutive frames arrive in *scenes*.
/// Within a scene every frame is **bit-identical** (a static camera
/// between cuts), so a content-addressed preprocessing cache hits on
/// every frame after the scene's first; a cut starts a new scene with
/// fresh content. Over `n` frames with scene length `hold`, the expected
/// hit rate is `(n - ceil(n / hold)) / n` — e.g. 60 frames at `hold = 8`
/// give 52/60 ≈ 0.87.
///
/// Frames are pure functions of `(seed, index)`: two streams with the
/// same parameters produce the same bytes, and [`frame`](Self::frame)
/// can be replayed at random offsets (the sim and the live server see
/// identical payloads).
///
/// # Examples
///
/// ```
/// use vserve_device::ImageSpec;
/// use vserve_workload::VideoStream;
///
/// let mut v = VideoStream::new(ImageSpec::new(64, 48, 0), 7, 8);
/// let a = v.next_frame();
/// let b = v.next_frame();
/// assert_eq!(a, b, "same scene: bit-identical frames");
/// assert!(VideoStream::new(ImageSpec::new(64, 48, 0), 7, 8).expected_hit_rate(60) > 0.8);
/// ```
#[derive(Debug, Clone)]
pub struct VideoStream {
    spec: ImageSpec,
    seed: u64,
    hold: usize,
    next: usize,
}

impl VideoStream {
    /// A stream of `spec`-sized frames where each scene holds `hold`
    /// identical frames (`hold` is clamped to at least 1).
    pub fn new(spec: ImageSpec, seed: u64, hold: usize) -> VideoStream {
        VideoStream {
            spec,
            seed,
            hold: hold.max(1),
            next: 0,
        }
    }

    /// Frames per scene.
    pub fn hold(&self) -> usize {
        self.hold
    }

    /// The scene index frame `i` belongs to.
    pub fn scene_of(&self, i: usize) -> usize {
        i / self.hold
    }

    /// The JPEG bytes of frame `i` — bit-identical for every frame of
    /// one scene, fresh content after each cut.
    pub fn frame(&self, i: usize) -> Vec<u8> {
        let scene = self.scene_of(i) as u64;
        // Scene 0 of seed s must differ from scene 0 of seed s+1, and
        // scenes within a stream must differ from each other: mix both
        // through an odd multiplicative constant.
        let frame_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(scene.wrapping_mul(0xD1B5_4A32_D192_ED03));
        synthetic_jpeg(&self.spec, frame_seed)
    }

    /// The next frame in arrival order.
    pub fn next_frame(&mut self) -> Vec<u8> {
        let f = self.frame(self.next);
        self.next += 1;
        f
    }

    /// Expected content-cache hit rate over the first `n` frames: every
    /// frame except each scene's first is a repeat.
    pub fn expected_hit_rate(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let scenes = n.div_ceil(self.hold);
        (n - scenes) as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::derive(99, "test")
    }

    #[test]
    fn poisson_arrival_rate_close() {
        let mut a = Arrivals::poisson(200.0);
        let mut r = rng();
        let n = 20_000;
        let total: f64 = (0..n).map(|_| a.next_gap(&mut r)).sum();
        let rate = n as f64 / total;
        assert!((rate - 200.0).abs() < 10.0, "rate {rate}");
    }

    #[test]
    fn deterministic_gaps_constant() {
        let mut a = Arrivals::deterministic(50.0);
        let mut r = rng();
        assert_eq!(a.next_gap(&mut r), 0.02);
        assert_eq!(a.next_gap(&mut r), 0.02);
    }

    #[test]
    fn bursty_mean_rate_between_extremes() {
        let mut a = Arrivals::bursty(1000.0, 10.0, 0.1);
        let mut r = rng();
        let n = 50_000;
        let total: f64 = (0..n).map(|_| a.next_gap(&mut r)).sum();
        let rate = n as f64 / total;
        assert!(rate > 15.0 && rate < 900.0, "rate {rate}");
    }

    #[test]
    fn weighted_mix_never_yields_unlisted() {
        let mix = ImageMix::paper_sizes();
        let mut r = rng();
        for _ in 0..1000 {
            let s = mix.sample(&mut r);
            assert!(s == ImageSpec::small() || s == ImageSpec::medium() || s == ImageSpec::large());
        }
    }

    #[test]
    fn imagenet_like_median_near_medium() {
        let mix = ImageMix::imagenet_like();
        let mut r = rng();
        let mut px: Vec<f64> = (0..4000)
            .map(|_| mix.sample(&mut r).pixels() as f64)
            .collect();
        px.sort_by(|a, b| a.total_cmp(b));
        let median = px[px.len() / 2];
        assert!(
            (median - 187_500.0).abs() < 60_000.0,
            "median pixels {median}"
        );
    }

    #[test]
    fn faces_distributions() {
        let mut r = rng();
        assert_eq!(FacesPerFrame::fixed(3).sample(&mut r), 3);
        let p = FacesPerFrame::poisson(4.0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| p.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
        assert_eq!(p.mean(), 4.0);
    }

    #[test]
    fn synthetic_jpeg_round_trips() {
        let spec = ImageSpec::new(80, 60, 0);
        let jpeg = synthetic_jpeg(&spec, 7);
        let img = vserve_codec::decode(&jpeg).unwrap();
        assert_eq!((img.width(), img.height()), (80, 60));
        // Not trivially compressible: at least 0.05 B/px.
        assert!(jpeg.len() > 80 * 60 / 20);
    }

    #[test]
    fn synthetic_jpeg_deterministic() {
        let spec = ImageSpec::new(32, 32, 0);
        assert_eq!(synthetic_jpeg(&spec, 1), synthetic_jpeg(&spec, 1));
        assert_ne!(synthetic_jpeg(&spec, 1), synthetic_jpeg(&spec, 2));
    }

    #[test]
    fn video_scenes_hold_bit_identical_frames() {
        let v = VideoStream::new(ImageSpec::new(48, 48, 0), 5, 4);
        for scene in 0..3 {
            let first = v.frame(scene * 4);
            for i in 1..4 {
                assert_eq!(v.frame(scene * 4 + i), first, "scene {scene} frame {i}");
            }
        }
        // Cuts change content, and scene indices line up with hold.
        assert_ne!(v.frame(3), v.frame(4));
        assert_eq!(v.scene_of(3), 0);
        assert_eq!(v.scene_of(4), 1);
    }

    #[test]
    fn video_streams_replay_and_differ_by_seed() {
        let spec = ImageSpec::new(48, 48, 0);
        let mut a = VideoStream::new(spec, 9, 8);
        let mut b = VideoStream::new(spec, 9, 8);
        for _ in 0..10 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
        let c = VideoStream::new(spec, 10, 8);
        assert_ne!(a.frame(0), c.frame(0), "different seeds, different scenes");
    }

    #[test]
    fn video_expected_hit_rate_matches_scene_count() {
        let v = VideoStream::new(ImageSpec::new(48, 48, 0), 1, 8);
        // 60 frames at hold 8 → 8 scenes → 52 repeats.
        assert!((v.expected_hit_rate(60) - 52.0 / 60.0).abs() < 1e-12);
        assert!(v.expected_hit_rate(60) >= 0.8);
        assert_eq!(v.expected_hit_rate(0), 0.0);
        // hold 1: every frame is a cut, nothing repeats.
        let cutty = VideoStream::new(ImageSpec::new(48, 48, 0), 1, 1);
        assert_eq!(cutty.expected_hit_rate(60), 0.0);
    }
}
