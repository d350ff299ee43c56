//! Structural container inspection without decoding samples.
//!
//! [`inspect_sections`] walks a container's framing — header, mode
//! parameters, and every lossless section — and reports, per section, the
//! lossless flag, the compressed size, the raw size where the framing
//! records it, and (for bake-off sections, flag 2) the per-chunk backend
//! choices. It never inflates payloads and never allocates proportionally
//! to the declared sizes, so it is safe to point at arbitrary bytes.
//!
//! The CLI's `fpsnr inspect` prints this report; the layout it walks is
//! specified byte-for-byte in `DESIGN.md` §13.

use crate::blocked::{self, BlockPredictors, Directory};
use crate::compressor::{read_f64, split_and_check_crc, take};
use crate::error::SzError;
use crate::format::{self, Mode};
use crate::predictor::{Predictor, PredictorKind, REGRESSION_COEFF_BYTES};
use losslesskit::{bakeoff, varint};

/// One lossless section of a container, as reported by
/// [`inspect_sections`].
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// What the section holds ("body", "shared table", "block 3", ...).
    pub name: String,
    /// Lossless flag: 0 stored, 1 whole-section DEFLATE, 2 bake-off.
    pub flag: u8,
    /// Compressed (on-wire) payload size in bytes.
    pub comp_len: usize,
    /// Raw (inflated) size, when the framing records it without inflating:
    /// flag 0 stores raw bytes verbatim and flag 2 declares the raw length
    /// in its header; flag 1 is only known after inflation.
    pub raw_len: Option<usize>,
    /// Per-chunk backend choices for bake-off sections (empty otherwise).
    pub chunks: Vec<bakeoff::ChunkInfo>,
}

/// Human-readable name of a stored predictor tag.
fn predictor_name(tag: u8) -> String {
    match PredictorKind::from_tag(tag) {
        Some(k) => k.name().to_string(),
        None => format!("unknown({tag})"),
    }
}

/// Container-level structure report.
#[derive(Debug, Clone)]
pub struct ContainerInfo {
    /// Blocked-container version byte (None for monolithic modes).
    pub blocked_version: Option<u8>,
    /// Entropy stage byte when the mode records one (0 legacy Huffman,
    /// 1 range, 2 interleaved Huffman).
    pub entropy_stage: Option<u8>,
    /// Container-level predictor: the stored tag's name for monolithic
    /// quantized and uniform blocked containers, `"per-block"` for v5
    /// mixed-predictor containers (see [`inspect_block_predictors`]).
    pub predictor: Option<String>,
    /// Chunk-grid geometry for blocked containers: per-axis chunk extents
    /// (`rank` entries). Slab containers report `[block_rows, full, ...]`.
    pub chunk_dims: Option<Vec<usize>>,
    /// Per-axis block counts of the chunk grid (`rank` entries).
    pub grid_dims: Option<Vec<usize>>,
    /// Every lossless section, in on-wire order.
    pub sections: Vec<SectionInfo>,
}

/// Describe one lossless section given its flag and payload.
fn section(name: String, flag: u8, payload: &[u8]) -> SectionInfo {
    let (raw_len, chunks) = match flag {
        0 => (Some(payload.len()), Vec::new()),
        2 => match bakeoff::inspect(payload) {
            Ok((raw, chunks)) => (Some(raw), chunks),
            Err(_) => (None, Vec::new()),
        },
        _ => (None, Vec::new()),
    };
    SectionInfo {
        name,
        flag,
        comp_len: payload.len(),
        raw_len,
        chunks,
    }
}

/// Read a `u8 flag, varint len, payload` section starting at `pos`.
fn read_flagged<'a>(src: &'a [u8], pos: &mut usize) -> Result<(u8, &'a [u8]), SzError> {
    let flag = take(src, pos, 1)?[0];
    let len = varint::read_u64(src, pos)? as usize;
    Ok((flag, take(src, pos, len)?))
}

/// Walk a container's framing and report every lossless section.
///
/// The CRC trailer is split off but *not* required to match — inspection
/// is for damaged containers too. Sample data is never decoded.
///
/// # Errors
/// [`SzError`] when the framing itself (header, parameter block, section
/// directory) is malformed or truncated.
pub fn inspect_sections(src: &[u8]) -> Result<ContainerInfo, SzError> {
    let (src, _crc_ok) = split_and_check_crc(src, false)?;
    let mut pos = 0usize;
    let header = format::read_header(src, &mut pos)?;
    let mut info = ContainerInfo {
        blocked_version: None,
        entropy_stage: None,
        predictor: None,
        chunk_dims: None,
        grid_dims: None,
        sections: Vec::new(),
    };
    match header.mode {
        Mode::Constant => {}
        Mode::Raw => {
            let (flag, payload) = read_flagged(src, &mut pos)?;
            info.sections.push(section("body".into(), flag, payload));
        }
        Mode::Quantized => {
            read_f64(src, &mut pos)?; // eb
            varint::read_u64(src, &mut pos)?; // bins
            let tag = take(src, &mut pos, 1)?[0];
            if tag == 3 {
                // Regression carries its coefficient payload inline.
                take(src, &mut pos, REGRESSION_COEFF_BYTES)?;
            }
            info.predictor = Some(predictor_name(tag));
            let (flag, payload) = read_flagged(src, &mut pos)?;
            // The entropy stage byte is the first byte of the body, which
            // is only visible without inflating when the body is stored.
            if flag == 0 {
                info.entropy_stage = payload.first().copied();
            }
            info.sections.push(section("body".into(), flag, payload));
        }
        Mode::LogPointwiseRel => {
            read_f64(src, &mut pos)?; // eb
            let (flag, payload) = read_flagged(src, &mut pos)?;
            info.sections
                .push(section("class plane".into(), flag, payload));
            // The rest (non-finite payload + nested container) has no
            // lossless framing of its own at this level.
        }
        Mode::Blocked => {
            let (version, params) = blocked::read_params(src, &mut pos, &header)?;
            info.blocked_version = Some(version);
            info.entropy_stage = Some(params.stage);
            info.predictor = Some(match params.pred {
                BlockPredictors::Uniform(m) => predictor_name(m.tag()),
                BlockPredictors::PerBlock => "per-block".to_string(),
            });
            info.chunk_dims = Some(params.grid.chunk_dims());
            info.grid_dims = Some(params.grid.grid_dims());
            if version == 1 {
                for (i, (flag, payload)) in blocked::read_v1_chunks(src, &mut pos)?
                    .into_iter()
                    .enumerate()
                {
                    info.sections
                        .push(section(format!("chunk {i}"), flag, payload));
                }
            } else {
                // v2+: the directory's sections in on-wire order; the
                // meta-CRC is not required to match. Grid (v4+)
                // containers name blocks by their grid coordinate.
                let dir = Directory::read(src, pos, &params)?;
                if let Some(t) = &dir.table {
                    info.sections
                        .push(section("shared table".into(), t.flag, t.payload(src)));
                }
                for (b, s) in dir.blocks.iter().enumerate() {
                    let name = if version >= 4 {
                        let c = params.grid.coord(b);
                        match params.grid.rank() {
                            1 => format!("block {b} @ ({})", c[0]),
                            2 => format!("block {b} @ ({},{})", c[0], c[1]),
                            _ => format!("block {b} @ ({},{},{})", c[0], c[1], c[2]),
                        }
                    } else {
                        format!("block {b}")
                    };
                    info.sections.push(section(name, s.flag, s.payload(src)));
                }
            }
        }
    }
    Ok(info)
}

/// Per-block payload inflation cap for [`inspect_block_predictors`]: far
/// above any real block body, far below anything a hostile length field
/// could use to balloon memory.
const PREDICTOR_PEEK_MAX_BODY: usize = 64 << 20;

/// The per-block predictor map of a v5 mixed-predictor container.
///
/// Returns `None` for anything that is not a blocked container with
/// per-block predictors (monolithic modes and uniform v1–v4 containers
/// report their single predictor through
/// [`ContainerInfo::predictor`]). Each entry is the predictor name for
/// that block in directory order, or `"damaged"` where the payload fails
/// its CRC or cannot be inflated.
///
/// Unlike [`inspect_sections`] this *does* inflate block payloads (the
/// predictor tag lives inside the per-block CRC's protection, ahead of the
/// code stream), bounded per block by a fixed cap so arbitrary bytes still
/// cannot balloon memory.
///
/// # Errors
/// [`SzError`] when the container framing (header, parameter block,
/// directory) is malformed — the same failure modes as
/// [`inspect_sections`].
pub fn inspect_block_predictors(src: &[u8]) -> Result<Option<Vec<String>>, SzError> {
    let (src, _crc_ok) = split_and_check_crc(src, false)?;
    let mut pos = 0usize;
    let header = format::read_header(src, &mut pos)?;
    if header.mode != Mode::Blocked {
        return Ok(None);
    }
    let (_, params) = blocked::read_params(src, &mut pos, &header)?;
    if !matches!(params.pred, BlockPredictors::PerBlock) {
        return Ok(None);
    }
    let dir = Directory::read(src, pos, &params)?;
    let names = dir
        .blocks
        .iter()
        .map(
            |s| match s.inflate(src, "block payload", PREDICTOR_PEEK_MAX_BODY) {
                Ok(body) => body
                    .first()
                    .map_or_else(|| "damaged".to_string(), |&tag| predictor_name(tag)),
                Err(_) => "damaged".to_string(),
            },
        )
        .collect();
    Ok(Some(names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::compress;
    use crate::config::{ErrorBound, SzConfig};
    use ndfield::Field;

    fn wavy(rows: usize, cols: usize) -> Field<f32> {
        Field::from_fn_2d(rows, cols, |i, j| {
            ((i as f32) * 0.07).sin() * ((j as f32) * 0.05).cos() * 10.0
        })
    }

    #[test]
    fn quantized_container_reports_body_section() {
        let bytes = compress(&wavy(64, 64), &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
        let info = inspect_sections(&bytes).unwrap();
        assert_eq!(info.sections.len(), 1);
        let body = &info.sections[0];
        assert_eq!(body.name, "body");
        assert!(body.flag == 0 || body.flag == 2, "flag {}", body.flag);
        if body.flag == 2 {
            assert!(!body.chunks.is_empty());
            let raw: usize = body.chunks.iter().map(|c| c.raw_len).sum();
            assert_eq!(Some(raw), body.raw_len);
        }
    }

    #[test]
    fn blocked_container_reports_every_section() {
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3))
            .with_threads(2)
            .with_block_rows(16);
        let bytes = compress(&wavy(64, 64), &cfg).unwrap();
        let info = inspect_sections(&bytes).unwrap();
        assert_eq!(info.blocked_version, Some(3));
        assert_eq!(info.entropy_stage, Some(2));
        // Shared table + 4 blocks.
        assert_eq!(info.sections.len(), 5);
        assert_eq!(info.sections[0].name, "shared table");
        assert_eq!(info.sections[4].name, "block 3");
    }

    #[test]
    fn v5_container_reports_per_block_predictor_map() {
        use crate::predictor::PredictorKind;
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3))
            .with_threads(2)
            .with_block_rows(16)
            .with_predictor(PredictorKind::Auto);
        let bytes = compress(&wavy(64, 64), &cfg).unwrap();
        let info = inspect_sections(&bytes).unwrap();
        assert_eq!(info.blocked_version, Some(5));
        assert_eq!(info.predictor.as_deref(), Some("per-block"));
        let map = inspect_block_predictors(&bytes).unwrap().unwrap();
        assert_eq!(map.len(), 4);
        let known = ["lorenzo", "lorenzo2", "regression", "spline"];
        for name in &map {
            assert!(known.contains(&name.as_str()), "unexpected predictor {name}");
        }
        // Uniform containers have no per-block map.
        let uniform = compress(
            &wavy(64, 64),
            &SzConfig::new(ErrorBound::Abs(1e-3)).with_threads(2),
        )
        .unwrap();
        assert_eq!(inspect_block_predictors(&uniform).unwrap(), None);
    }

    #[test]
    fn inspection_is_total_on_truncated_input() {
        let bytes = compress(&wavy(32, 32), &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
        for cut in 0..bytes.len() {
            let _ = inspect_sections(&bytes[..cut]); // must not panic
        }
    }
}
