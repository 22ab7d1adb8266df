//! Baseline sequential JPEG decoder.
//!
//! Entropy (Huffman) decoding is inherently serial — each code's length is
//! only known once the previous one is decoded — but everything after it
//! is not. [`decode_with`] therefore splits the scan into two phases:
//! a sequential pass that stores dequantized DCT coefficients per block,
//! then data-parallel per-block-row IDCT and per-pixel-row color
//! conversion on a [`Backend`]. Both phases are pure per-element
//! functions, so output bytes are bit-identical for any thread count.

use std::cell::RefCell;

use vserve_compute::{Backend, Scratch};
use vserve_simd::round_u8;
use vserve_tensor::{Image, PixelFormat};

use crate::bits::BitReader;
use crate::dct::{idct, idct_scaled};
use crate::huffman::{extend, HuffDecoder};
use crate::tables::ZIGZAG;
use crate::DecodeJpegError;

/// Reduced-resolution decode factor, applied in the DCT domain.
///
/// At `Half`/`Quarter`/`Eighth`, each 8×8 coefficient block is
/// reconstructed directly to 4×4/2×2/1×1 pixels from its top-left
/// coefficients (libjpeg-style scaled inverse transforms). Entropy
/// decoding is unchanged — it is inherently full-cost — but the IDCT,
/// plane buffers, upsampling and color conversion all shrink by the
/// square of the factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeScale {
    /// Full resolution; byte-identical to [`decode`].
    Full,
    /// 1/2 in each dimension (8×8 → 4×4 blocks).
    Half,
    /// 1/4 in each dimension (8×8 → 2×2 blocks).
    Quarter,
    /// 1/8 in each dimension (8×8 → DC-only 1×1 blocks).
    Eighth,
}

impl DecodeScale {
    /// Downscale denominator: 1, 2, 4 or 8.
    pub fn denominator(self) -> usize {
        match self {
            DecodeScale::Full => 1,
            DecodeScale::Half => 2,
            DecodeScale::Quarter => 4,
            DecodeScale::Eighth => 8,
        }
    }

    /// Reconstructed pixels per 8×8 block side: 8, 4, 2 or 1.
    pub fn block_size(self) -> usize {
        8 / self.denominator()
    }

    /// Output size of a source dimension decoded at this scale.
    pub fn apply(self, dim: usize) -> usize {
        dim.div_ceil(self.denominator())
    }

    /// Largest scale whose output still covers a `target_side` square —
    /// i.e. the residual resize after the scaled decode is always a
    /// downsample (factor in [1, 2) unless even `Eighth` is too big).
    pub fn for_target(src_w: usize, src_h: usize, target_side: usize) -> DecodeScale {
        if target_side == 0 {
            return DecodeScale::Full;
        }
        for s in [DecodeScale::Eighth, DecodeScale::Quarter, DecodeScale::Half] {
            if s.apply(src_w) >= target_side && s.apply(src_h) >= target_side {
                return s;
            }
        }
        DecodeScale::Full
    }
}

/// Parses just enough of a JPEG byte stream to report the frame
/// dimensions `(width, height)` without decoding any pixel data.
///
/// # Errors
///
/// Returns a [`DecodeJpegError`] if the stream is not a baseline JPEG or
/// ends before a SOF0 marker.
pub fn probe_dimensions(data: &[u8]) -> Result<(usize, usize), DecodeJpegError> {
    if data.len() < 4 || data[0] != 0xff || data[1] != 0xd8 {
        return Err(DecodeJpegError::NotAJpeg);
    }
    let mut pos = 2usize;
    loop {
        while pos < data.len() && data[pos] != 0xff {
            pos += 1;
        }
        while pos < data.len() && data[pos] == 0xff {
            pos += 1;
        }
        if pos >= data.len() {
            return Err(DecodeJpegError::UnexpectedEof);
        }
        let marker = data[pos];
        pos += 1;
        match marker {
            0xc0 => {
                let len = read_u16(data, pos)? as usize;
                let seg = data
                    .get(pos + 2..pos + len)
                    .ok_or(DecodeJpegError::UnexpectedEof)?;
                let frame = parse_sof(seg)?;
                return Ok((frame.width, frame.height));
            }
            0xc1..=0xc3 | 0xc5..=0xc7 | 0xc9..=0xcb | 0xcd..=0xcf => {
                return Err(DecodeJpegError::UnsupportedFrame(marker));
            }
            0xd9 | 0xda => return Err(DecodeJpegError::MissingScan),
            0x01 | 0xd0..=0xd7 => {}
            _ => {
                let len = read_u16(data, pos)? as usize;
                if len < 2 {
                    return Err(DecodeJpegError::Malformed("segment length < 2"));
                }
                pos += len;
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Component {
    id: u8,
    h: usize,
    v: usize,
    tq: usize,
    dc_table: usize,
    ac_table: usize,
}

struct Frame {
    width: usize,
    height: usize,
    components: Vec<Component>,
}

/// Parsed decoder state.
struct Decoder {
    quant: [Option<[u16; 64]>; 4],
    dc_tables: [Option<HuffDecoder>; 4],
    ac_tables: [Option<HuffDecoder>; 4],
    frame: Option<Frame>,
    restart_interval: usize,
}

impl Decoder {
    fn new() -> Self {
        Decoder {
            quant: [None, None, None, None],
            dc_tables: [None, None, None, None],
            ac_tables: [None, None, None, None],
            frame: None,
            restart_interval: 0,
        }
    }
}

fn read_u16(data: &[u8], pos: usize) -> Result<u16, DecodeJpegError> {
    if pos + 1 >= data.len() {
        return Err(DecodeJpegError::UnexpectedEof);
    }
    Ok(u16::from(data[pos]) << 8 | u16::from(data[pos + 1]))
}

thread_local! {
    /// Arena for [`decode`] callers that don't manage a [`Scratch`]
    /// themselves: repeated decodes on one thread reuse the same
    /// coefficient and plane buffers.
    static LOCAL_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's shared decode scratch arena.
pub(crate) fn with_local_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    LOCAL_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Decodes a baseline JFIF/JPEG byte stream into an [`Image`].
///
/// Supports 8-bit baseline sequential JPEG (SOF0) with 1 or 3 components,
/// arbitrary sampling factors up to 2×2, optional restart intervals, and
/// standard or custom Huffman/quantization tables.
///
/// Single-threaded wrapper over [`decode_with`].
///
/// # Errors
///
/// Returns a [`DecodeJpegError`] describing the first structural problem
/// found: missing SOI, unsupported frame type, truncated segments,
/// undefined tables, or corrupt entropy data.
pub fn decode(data: &[u8]) -> Result<Image, DecodeJpegError> {
    LOCAL_SCRATCH.with(|s| decode_with(&Backend::serial(), &mut s.borrow_mut(), data))
}

/// Decodes a baseline JPEG at reduced resolution via DCT-domain scaling.
///
/// The output image is `ceil(w/d) × ceil(h/d)` for denominator `d`; each
/// pixel approximates the box average of the corresponding d×d source
/// region. `DecodeScale::Full` is byte-identical to [`decode`].
///
/// Single-threaded wrapper over [`decode_scaled_with`].
///
/// # Errors
///
/// Same conditions as [`decode`].
pub fn decode_scaled(data: &[u8], scale: DecodeScale) -> Result<Image, DecodeJpegError> {
    LOCAL_SCRATCH.with(|s| decode_scaled_with(&Backend::serial(), &mut s.borrow_mut(), data, scale))
}

/// [`decode_scaled`] with an explicit compute backend and scratch arena.
///
/// # Errors
///
/// Same conditions as [`decode`].
pub fn decode_scaled_with(
    bk: &Backend,
    scratch: &mut Scratch,
    data: &[u8],
    scale: DecodeScale,
) -> Result<Image, DecodeJpegError> {
    decode_inner(bk, scratch, data, scale)
}

/// [`decode`] with an explicit compute backend and scratch arena.
///
/// Entropy decoding stays sequential; IDCT and color conversion run in
/// parallel over disjoint row bands, producing bytes bit-identical to the
/// serial decoder. Coefficient and plane temporaries come from `scratch`,
/// so a preprocessing worker that decodes frame after frame stops touching
/// the allocator once warm.
///
/// # Errors
///
/// Same conditions as [`decode`].
pub fn decode_with(
    bk: &Backend,
    scratch: &mut Scratch,
    data: &[u8],
) -> Result<Image, DecodeJpegError> {
    decode_inner(bk, scratch, data, DecodeScale::Full)
}

fn decode_inner(
    bk: &Backend,
    scratch: &mut Scratch,
    data: &[u8],
    scale: DecodeScale,
) -> Result<Image, DecodeJpegError> {
    if data.len() < 4 || data[0] != 0xff || data[1] != 0xd8 {
        return Err(DecodeJpegError::NotAJpeg);
    }
    let mut dec = Decoder::new();
    let mut pos = 2usize;

    loop {
        // Seek to the next marker (skip fill bytes 0xFF).
        while pos < data.len() && data[pos] != 0xff {
            pos += 1;
        }
        while pos < data.len() && data[pos] == 0xff {
            pos += 1;
        }
        if pos >= data.len() {
            return Err(DecodeJpegError::UnexpectedEof);
        }
        let marker = data[pos];
        pos += 1;
        match marker {
            0xd9 => return Err(DecodeJpegError::MissingScan), // EOI before SOS
            0xc0 => {
                // SOF0 baseline
                let len = read_u16(data, pos)? as usize;
                let seg = data
                    .get(pos + 2..pos + len)
                    .ok_or(DecodeJpegError::UnexpectedEof)?;
                dec.frame = Some(parse_sof(seg)?);
                pos += len;
            }
            0xc1..=0xc3 | 0xc5..=0xc7 | 0xc9..=0xcb | 0xcd..=0xcf => {
                return Err(DecodeJpegError::UnsupportedFrame(marker));
            }
            0xc4 => {
                // DHT
                let len = read_u16(data, pos)? as usize;
                let seg = data
                    .get(pos + 2..pos + len)
                    .ok_or(DecodeJpegError::UnexpectedEof)?;
                parse_dht(seg, &mut dec)?;
                pos += len;
            }
            0xdb => {
                // DQT
                let len = read_u16(data, pos)? as usize;
                let seg = data
                    .get(pos + 2..pos + len)
                    .ok_or(DecodeJpegError::UnexpectedEof)?;
                parse_dqt(seg, &mut dec)?;
                pos += len;
            }
            0xdd => {
                // DRI
                let len = read_u16(data, pos)? as usize;
                if len < 4 {
                    return Err(DecodeJpegError::Malformed("short DRI segment"));
                }
                dec.restart_interval = read_u16(data, pos + 2)? as usize;
                pos += len;
            }
            0xda => {
                // SOS: parse header then decode the scan.
                let len = read_u16(data, pos)? as usize;
                let seg = data
                    .get(pos + 2..pos + len)
                    .ok_or(DecodeJpegError::UnexpectedEof)?;
                parse_sos(seg, &mut dec)?;
                pos += len;
                let ecs = data.get(pos..).ok_or(DecodeJpegError::UnexpectedEof)?;
                return decode_scan(&dec, ecs, bk, scratch, scale);
            }
            0x01 | 0xd0..=0xd7 => {} // TEM/RSTn: standalone, no length
            _ => {
                // Any other segment (APPn, COM, …): skip by length.
                let len = read_u16(data, pos)? as usize;
                if len < 2 {
                    return Err(DecodeJpegError::Malformed("segment length < 2"));
                }
                pos += len;
            }
        }
    }
}

fn parse_sof(seg: &[u8]) -> Result<Frame, DecodeJpegError> {
    if seg.len() < 6 {
        return Err(DecodeJpegError::Malformed("short SOF segment"));
    }
    if seg[0] != 8 {
        return Err(DecodeJpegError::Malformed("only 8-bit precision supported"));
    }
    let height = usize::from(seg[1]) << 8 | usize::from(seg[2]);
    let width = usize::from(seg[3]) << 8 | usize::from(seg[4]);
    let ncomp = seg[5] as usize;
    if width == 0 || height == 0 {
        return Err(DecodeJpegError::Malformed("zero image dimension"));
    }
    if !(ncomp == 1 || ncomp == 3) {
        return Err(DecodeJpegError::Malformed(
            "only 1 or 3 components supported",
        ));
    }
    if seg.len() < 6 + 3 * ncomp {
        return Err(DecodeJpegError::Malformed("short SOF component list"));
    }
    let mut components = Vec::with_capacity(ncomp);
    for c in 0..ncomp {
        let base = 6 + 3 * c;
        let id = seg[base];
        let h = (seg[base + 1] >> 4) as usize;
        let v = (seg[base + 1] & 0x0f) as usize;
        let tq = seg[base + 2] as usize;
        if !(1..=2).contains(&h) || !(1..=2).contains(&v) {
            return Err(DecodeJpegError::Malformed(
                "sampling factors above 2 not supported",
            ));
        }
        if tq > 3 {
            return Err(DecodeJpegError::Malformed("quant table id out of range"));
        }
        components.push(Component {
            id,
            h,
            v,
            tq,
            dc_table: 0,
            ac_table: 0,
        });
    }
    Ok(Frame {
        width,
        height,
        components,
    })
}

fn parse_dqt(mut seg: &[u8], dec: &mut Decoder) -> Result<(), DecodeJpegError> {
    while !seg.is_empty() {
        let pq = seg[0] >> 4;
        let tq = (seg[0] & 0x0f) as usize;
        if tq > 3 {
            return Err(DecodeJpegError::Malformed("quant table id out of range"));
        }
        let (table, rest) = match pq {
            0 => {
                if seg.len() < 65 {
                    return Err(DecodeJpegError::Malformed("short DQT table"));
                }
                let mut t = [0u16; 64];
                for (zz, &b) in seg[1..65].iter().enumerate() {
                    t[ZIGZAG[zz]] = u16::from(b);
                }
                (t, &seg[65..])
            }
            1 => {
                if seg.len() < 129 {
                    return Err(DecodeJpegError::Malformed("short 16-bit DQT table"));
                }
                let mut t = [0u16; 64];
                for zz in 0..64 {
                    t[ZIGZAG[zz]] = u16::from(seg[1 + 2 * zz]) << 8 | u16::from(seg[2 + 2 * zz]);
                }
                (t, &seg[129..])
            }
            _ => return Err(DecodeJpegError::Malformed("bad DQT precision")),
        };
        dec.quant[tq] = Some(table);
        seg = rest;
    }
    Ok(())
}

fn parse_dht(mut seg: &[u8], dec: &mut Decoder) -> Result<(), DecodeJpegError> {
    while !seg.is_empty() {
        if seg.len() < 17 {
            return Err(DecodeJpegError::Malformed("short DHT header"));
        }
        let class = seg[0] >> 4;
        let id = (seg[0] & 0x0f) as usize;
        if id > 3 || class > 1 {
            return Err(DecodeJpegError::Malformed("bad DHT class/id"));
        }
        let mut bits = [0u8; 16];
        bits.copy_from_slice(&seg[1..17]);
        let nvals: usize = bits.iter().map(|&b| b as usize).sum();
        if seg.len() < 17 + nvals {
            return Err(DecodeJpegError::Malformed("short DHT values"));
        }
        let values = seg[17..17 + nvals].to_vec();
        let table = HuffDecoder::from_bits_values(&bits, values);
        if class == 0 {
            dec.dc_tables[id] = Some(table);
        } else {
            dec.ac_tables[id] = Some(table);
        }
        seg = &seg[17 + nvals..];
    }
    Ok(())
}

fn parse_sos(seg: &[u8], dec: &mut Decoder) -> Result<(), DecodeJpegError> {
    let frame = dec.frame.as_mut().ok_or(DecodeJpegError::MissingScan)?;
    if seg.is_empty() {
        return Err(DecodeJpegError::Malformed("empty SOS segment"));
    }
    let ncomp = seg[0] as usize;
    if ncomp != frame.components.len() {
        return Err(DecodeJpegError::Malformed(
            "interleaved scan must cover all components",
        ));
    }
    if seg.len() < 1 + 2 * ncomp + 3 {
        return Err(DecodeJpegError::Malformed("short SOS segment"));
    }
    for c in 0..ncomp {
        let id = seg[1 + 2 * c];
        let tables = seg[2 + 2 * c];
        let comp = frame
            .components
            .iter_mut()
            .find(|comp| comp.id == id)
            .ok_or(DecodeJpegError::Malformed(
                "SOS references unknown component",
            ))?;
        comp.dc_table = (tables >> 4) as usize;
        comp.ac_table = (tables & 0x0f) as usize;
        // Baseline allows destinations 0..=3; the scan indexes `[_; 4]`.
        if comp.dc_table > 3 || comp.ac_table > 3 {
            return Err(DecodeJpegError::Malformed("Huffman table id out of range"));
        }
    }
    Ok(())
}

fn decode_scan(
    dec: &Decoder,
    ecs: &[u8],
    bk: &Backend,
    scratch: &mut Scratch,
    scale: DecodeScale,
) -> Result<Image, DecodeJpegError> {
    let frame = dec.frame.as_ref().ok_or(DecodeJpegError::MissingScan)?;
    let max_h = frame.components.iter().map(|c| c.h).max().unwrap();
    let max_v = frame.components.iter().map(|c| c.v).max().unwrap();
    let mcus_x = frame.width.div_ceil(8 * max_h);
    let mcus_y = frame.height.div_ceil(8 * max_v);

    // Phase 1 (sequential): entropy-decode every block's dequantized DCT
    // coefficients. Blocks are stored per component, 64 floats each,
    // indexed ((my·mcus_x + mx)·v + by)·h + bx.
    let mut coeffs: Vec<Vec<f32>> = frame
        .components
        .iter()
        .map(|c| scratch.take(mcus_y * mcus_x * c.v * c.h * 64))
        .collect();

    let mut segment = ecs;
    let mut reader = BitReader::new(segment);
    let mut preds = vec![0i32; frame.components.len()];
    let mut mcus_until_restart = dec.restart_interval;

    for my in 0..mcus_y {
        for mx in 0..mcus_x {
            if dec.restart_interval > 0 && mcus_until_restart == 0 {
                // Skip to the RSTn marker and resynchronize.
                let consumed = reader.byte_pos();
                let rest = &segment[consumed..];
                let mut i = 0;
                while i + 1 < rest.len() {
                    if rest[i] == 0xff && (0xd0..=0xd7).contains(&rest[i + 1]) {
                        break;
                    }
                    i += 1;
                }
                if i + 1 >= rest.len() {
                    return Err(DecodeJpegError::UnexpectedEof);
                }
                segment = &rest[i + 2..];
                reader = BitReader::new(segment);
                preds.fill(0);
                mcus_until_restart = dec.restart_interval;
            }
            if dec.restart_interval > 0 {
                mcus_until_restart -= 1;
            }

            for (ci, comp) in frame.components.iter().enumerate() {
                let quant = dec.quant[comp.tq]
                    .as_ref()
                    .ok_or(DecodeJpegError::MissingTable("quantization"))?;
                let dc = dec.dc_tables[comp.dc_table]
                    .as_ref()
                    .ok_or(DecodeJpegError::MissingTable("DC Huffman"))?;
                let ac = dec.ac_tables[comp.ac_table]
                    .as_ref()
                    .ok_or(DecodeJpegError::MissingTable("AC Huffman"))?;

                for by in 0..comp.v {
                    for bx in 0..comp.h {
                        let block = decode_block(&mut reader, dc, ac, quant, &mut preds[ci])?;
                        let b = ((my * mcus_x + mx) * comp.v + by) * comp.h + bx;
                        coeffs[ci][b * 64..(b + 1) * 64].copy_from_slice(&block);
                    }
                }
            }
        }
    }

    // Phase 2 (parallel): IDCT each block into its component plane at
    // native (subsampled) resolution, padded to whole MCUs. Each worker
    // owns a band of n-pixel block rows (n = scaled block size), so
    // writes never overlap. At reduced scales each 8×8 coefficient block
    // reconstructs directly to n×n pixels.
    let n = scale.block_size();
    let mut planes: Vec<Vec<f32>> = Vec::new();
    let mut plane_dims: Vec<(usize, usize)> = Vec::new();
    for c in &frame.components {
        let pw = mcus_x * n * c.h;
        let ph = mcus_y * n * c.v;
        planes.push(scratch.take(pw * ph));
        plane_dims.push((pw, ph));
    }
    for (ci, comp) in frame.components.iter().enumerate() {
        let (pw, _) = plane_dims[ci];
        let cblocks = &coeffs[ci];
        bk.par_chunks_mut(&mut planes[ci], pw * n, |brow, band| {
            let my = brow / comp.v;
            let by = brow % comp.v;
            for mx in 0..mcus_x {
                for bx in 0..comp.h {
                    let b = ((my * mcus_x + mx) * comp.v + by) * comp.h + bx;
                    let blk: &[f32; 64] = cblocks[b * 64..(b + 1) * 64].try_into().unwrap();
                    let ox = (mx * comp.h + bx) * n;
                    if n == 8 {
                        let spatial = idct(blk);
                        for y in 0..8 {
                            for x in 0..8 {
                                band[y * pw + ox + x] = spatial[y * 8 + x] + 128.0;
                            }
                        }
                    } else {
                        let mut spatial = [0f32; 16];
                        idct_scaled(blk, n, &mut spatial);
                        for y in 0..n {
                            for x in 0..n {
                                band[y * pw + ox + x] = spatial[y * n + x] + 128.0;
                            }
                        }
                    }
                }
            }
        });
    }
    for buf in coeffs {
        scratch.recycle(buf);
    }

    // Phase 3 (parallel): upsample + color-convert per pixel row. The
    // output dimensions shrink with the scale; the subsampling-ratio
    // index math is unchanged because every plane scaled uniformly.
    let out_w = scale.apply(frame.width);
    let out_h = scale.apply(frame.height);
    let image = assemble_image(frame, &planes, &plane_dims, max_h, max_v, bk, out_w, out_h);
    for buf in planes {
        scratch.recycle(buf);
    }
    image
}

fn decode_block(
    reader: &mut BitReader<'_>,
    dc: &HuffDecoder,
    ac: &HuffDecoder,
    quant: &[u16; 64],
    pred: &mut i32,
) -> Result<[f32; 64], DecodeJpegError> {
    let mut coeffs = [0f32; 64];
    // DC
    let cat = u32::from(dc.decode(reader)?);
    if cat > 11 {
        return Err(DecodeJpegError::Malformed("DC category out of range"));
    }
    let diff = extend(reader.bits(cat)?, cat);
    *pred += diff;
    coeffs[0] = *pred as f32 * f32::from(quant[0]);
    // AC
    let mut zz = 1usize;
    while zz < 64 {
        let rs = ac.decode(reader)?;
        let run = usize::from(rs >> 4);
        let cat = u32::from(rs & 0x0f);
        if cat == 0 {
            if run == 15 {
                zz += 16; // ZRL
                continue;
            }
            break; // EOB
        }
        zz += run;
        if zz >= 64 {
            return Err(DecodeJpegError::Malformed("AC run exceeds block"));
        }
        let v = extend(reader.bits(cat)?, cat);
        let raster = ZIGZAG[zz];
        coeffs[raster] = v as f32 * f32::from(quant[raster]);
        zz += 1;
    }
    Ok(coeffs)
}

#[allow(clippy::too_many_arguments)]
fn assemble_image(
    frame: &Frame,
    planes: &[Vec<f32>],
    plane_dims: &[(usize, usize)],
    max_h: usize,
    max_v: usize,
    bk: &Backend,
    w: usize,
    h: usize,
) -> Result<Image, DecodeJpegError> {
    if frame.components.len() == 1 {
        let (pw, _) = plane_dims[0];
        let mut data = vec![0u8; w * h];
        bk.par_chunks_mut(&mut data, w, |y, row| {
            for (px, &v) in row.iter_mut().zip(&planes[0][y * pw..y * pw + w]) {
                *px = round_u8(v);
            }
        });
        return Image::from_raw(w, h, PixelFormat::Gray8, data)
            .map_err(|_| DecodeJpegError::Malformed("image assembly size mismatch"));
    }

    // Nearest-neighbour upsampling: output pixel (x, y) reads sample
    // (x·h/max_h, y·v/max_v) of each component. Sampling factors are 1 or
    // 2 (`parse_sof`), so each one divides the maximum and that is
    // (x / rep_h, y / rep_v) with whole-number repeats: each sample
    // covers `rep_h` output pixels, each plane row `rep_v` output rows.
    // Planes are padded to whole MCUs, so no index needs clamping.
    let geo: [(usize, usize, usize); 3] = std::array::from_fn(|ci| {
        let comp = &frame.components[ci];
        (plane_dims[ci].0, max_h / comp.h, max_v / comp.v)
    });
    let mut data = vec![0u8; w * h * 3];
    // One band = the `max_v` output rows that share every subsampled row.
    bk.par_chunks_mut(&mut data, w * 3 * max_v, |band, rows| {
        // Strip-at-a-time, so an upsampled strip stays in L1 for the rows
        // that reuse it. Full-resolution rows go to the kernel as they
        // lie in the plane.
        const STRIP: usize = 64;
        let mut upsampled = [[0f32; STRIP]; 3];
        for x0 in (0..w).step_by(STRIP) {
            let len = STRIP.min(w - x0);
            for (dy, row) in rows.chunks_mut(w * 3).enumerate() {
                let y = band * max_v + dy;
                for (ci, &(pw, rep_h, rep_v)) in geo.iter().enumerate() {
                    // Unchanged since the previous row of the band when
                    // this component is subsampled vertically.
                    if rep_h > 1 && (dy == 0 || rep_v == 1) {
                        let src = &planes[ci][(y / rep_v) * pw + x0 / rep_h..];
                        for (dup, &v) in upsampled[ci][..len].chunks_mut(rep_h).zip(src) {
                            dup.fill(v);
                        }
                    }
                }
                let [yv, cb, cr]: [&[f32]; 3] = std::array::from_fn(|ci| {
                    let (pw, rep_h, rep_v) = geo[ci];
                    if rep_h > 1 {
                        &upsampled[ci][..len]
                    } else {
                        &planes[ci][(y / rep_v) * pw + x0..][..len]
                    }
                });
                vserve_simd::kernels::ycbcr_to_rgb_row(
                    yv,
                    cb,
                    cr,
                    &mut row[x0 * 3..(x0 + len) * 3],
                );
            }
        }
    });
    Image::from_raw(w, h, PixelFormat::Rgb8, data)
        .map_err(|_| DecodeJpegError::Malformed("image assembly size mismatch"))
}
