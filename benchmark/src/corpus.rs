//! Inputs and expected outputs of one workload for one seed.
//!
//! The parent generates the JPEGs once per (workload, seed) into the output
//! directory and the epoch children only read them back, so the program under
//! test never sees anything but generated bytes. Expected outputs are the
//! committed goldens for seed 1 and the in-process `LiveServer::infer` result
//! (documented bit-identical to the wire reply) for every other seed.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vserve_server::live::LiveServer;
use vserve_trace::Tracer;
use vserve_workload::synthetic_jpeg;

use crate::spec::{live_options, Workload};

pub const GOLDEN_SEED: u64 = 1;

pub struct Corpus {
    pub images: Vec<Vec<u8>>,
    pub expected: Vec<Vec<f32>>,
    pub gen_s: f64,
}

pub fn corpus_dir(out: &Path, w: &Workload, seed: u64) -> PathBuf {
    out.join("corpus").join(format!("{}-s{seed}", w.name))
}

fn image_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

fn golden_path(golden_dir: &Path, w: &Workload) -> PathBuf {
    golden_dir.join(format!("{}.txt", w.name))
}

/// One line per image: the output's f32 bit patterns in hex, so the file is
/// exact and diffs line by line.
fn format_golden(outputs: &[Vec<f32>]) -> String {
    let mut s = String::new();
    for out in outputs {
        let words: Vec<String> = out.iter().map(|v| format!("{:08x}", v.to_bits())).collect();
        s.push_str(&words.join(" "));
        s.push('\n');
    }
    s
}

fn parse_golden(text: &str) -> Result<Vec<Vec<f32>>, String> {
    text.lines()
        .map(|line| {
            line.split_whitespace()
                .map(|w| {
                    u32::from_str_radix(w, 16)
                        .map(f32::from_bits)
                        .map_err(|e| format!("bad golden word {w:?}: {e}"))
                })
                .collect()
        })
        .collect()
}

/// Runs every image through an in-process server with the benchmark's
/// options, pipelined so both preprocessing workers are busy.
fn infer_in_process(w: &Workload, images: &[Vec<u8>]) -> Result<Vec<Vec<f32>>, String> {
    let server = LiveServer::start(w.build_model(), live_options(w.side, Tracer::disabled()));
    let mut outputs = Vec::with_capacity(images.len());
    for chunk in images.chunks(w.window) {
        let pending: Vec<_> = chunk
            .iter()
            .map(|jpeg| server.submit(jpeg.clone()))
            .collect();
        for rx in pending {
            let reply = rx.recv().map_err(|_| "in-process server hung up")?;
            outputs.push(
                reply
                    .map_err(|e| format!("in-process infer failed: {e}"))?
                    .output,
            );
        }
    }
    Ok(outputs)
}

fn generate_images(w: &Workload, seed: u64) -> Vec<Vec<u8>> {
    let spec = (w.image)();
    let make = |i: usize| synthetic_jpeg(&spec, image_seed(seed, i));
    let half = w.distinct / 2;
    // Two generator threads: the host has two cores and the large and the
    // cold corpus would otherwise cost seconds of every run.
    std::thread::scope(|s| {
        let upper = s.spawn(|| (half..w.distinct).map(make).collect::<Vec<_>>());
        let mut images: Vec<_> = (0..half).map(make).collect();
        images.extend(upper.join().expect("corpus generator thread panicked"));
        images
    })
}

/// Generates (or reuses) the corpus directory for `seed` and returns it with
/// the expected outputs. With `bless`, seed 1 rewrites the committed golden.
pub fn prepare(
    out: &Path,
    golden_dir: &Path,
    w: &Workload,
    seed: u64,
    bless: bool,
) -> Result<Corpus, String> {
    let dir = corpus_dir(out, w, seed);
    // `done` is written last and holds the generation time, so a directory
    // without it is regenerated and a reused one still reports its cost.
    let done = dir.join("done");
    let reused = fs::read_to_string(&done)
        .ok()
        .and_then(|s| s.trim().parse().ok());
    let gen_s = match reused {
        Some(gen_s) => gen_s,
        None => {
            let t0 = Instant::now();
            fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            for (i, jpeg) in generate_images(w, seed).iter().enumerate() {
                fs::write(dir.join(format!("{i:04}.jpg")), jpeg).map_err(|e| e.to_string())?;
            }
            t0.elapsed().as_secs_f64()
        }
    };
    let images = read_images(&dir, w).map_err(|e| format!("read corpus: {e}"))?;

    let golden = golden_path(golden_dir, w);
    let expected = if seed == GOLDEN_SEED && !bless {
        let text = fs::read_to_string(&golden)
            .map_err(|e| format!("{}: {e} (run with --bless to create it)", golden.display()))?;
        parse_golden(&text)?
    } else {
        let outputs = infer_in_process(w, &images)?;
        if seed == GOLDEN_SEED {
            fs::create_dir_all(golden_dir).map_err(|e| e.to_string())?;
            fs::write(&golden, format_golden(&outputs)).map_err(|e| e.to_string())?;
        }
        outputs
    };
    if expected.len() != images.len() {
        return Err(format!(
            "{} expected outputs for {} images",
            expected.len(),
            images.len()
        ));
    }
    fs::write(dir.join("expected.txt"), format_golden(&expected)).map_err(|e| e.to_string())?;
    fs::write(&done, format!("{gen_s}\n")).map_err(|e| e.to_string())?;
    Ok(Corpus {
        images,
        expected,
        gen_s,
    })
}

fn read_images(dir: &Path, w: &Workload) -> io::Result<Vec<Vec<u8>>> {
    (0..w.distinct)
        .map(|i| fs::read(dir.join(format!("{i:04}.jpg"))))
        .collect()
}

/// What an epoch child loads: the images and the outputs to check against.
pub fn load(dir: &Path, w: &Workload) -> Result<Corpus, String> {
    let images = read_images(dir, w).map_err(|e| format!("read corpus {}: {e}", dir.display()))?;
    let text = fs::read_to_string(dir.join("expected.txt")).map_err(|e| e.to_string())?;
    Ok(Corpus {
        images,
        expected: parse_golden(&text)?,
        gen_s: 0.0,
    })
}

pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, |m, d| if d > m || d.is_nan() { d } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_text_round_trips_bit_exactly() {
        let outs = vec![
            vec![0.1f32, -2.5e-7, 3.0],
            vec![f32::MIN_POSITIVE, 1.0, 0.0],
        ];
        let back = parse_golden(&format_golden(&outs)).unwrap();
        assert_eq!(outs, back);
        assert!(parse_golden("zz").is_err());
    }

    #[test]
    fn max_abs_diff_flags_length_and_nan() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_diff(&[1.0], &[1.0, 2.0]), f32::INFINITY);
        assert!(max_abs_diff(&[f32::NAN], &[1.0]).is_nan());
    }
}
