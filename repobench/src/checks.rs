//! Output checks and the region-read plan.

use crate::corpus::{ANCHOR_STRIDE, REGION_EDGE, ZIPF_S};
use crate::stats::{SplitMix64, Zipf};
use ndfield::{Field, Shape};
use std::ops::Range;
use szlike::Region;

/// Theorem 1 on the output: `|x − x̃| ≤ eb` on every finite sample, and
/// every non-finite sample round-trips bit for bit.
pub fn bound_holds(orig: &Field<f32>, back: &Field<f32>, eb: f64) -> Result<(), String> {
    if orig.shape() != back.shape() {
        return Err(format!(
            "shape {:?} came back as {:?}",
            orig.shape(),
            back.shape()
        ));
    }
    for (i, (&x, &y)) in orig.as_slice().iter().zip(back.as_slice()).enumerate() {
        if x.is_finite() {
            let err = (x as f64 - y as f64).abs();
            if err.is_nan() || err > eb {
                return Err(format!(
                    "sample {i}: |{x} - {y}| = {err} exceeds bound {eb}"
                ));
            }
        } else if x.to_bits() != y.to_bits() {
            return Err(format!("sample {i}: non-finite {x} came back as {y}"));
        }
    }
    Ok(())
}

pub fn psnr(orig: &Field<f32>, back: &Field<f32>) -> f64 {
    fpsnr_metrics::Distortion::between(orig, back).psnr()
}

/// Bit-for-bit equality of two sample slices (NaN-safe).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One region read: the ranges and the store's region.
pub struct Read {
    pub ranges: Vec<Range<usize>>,
    pub region: Region,
}

impl Read {
    pub fn bytes(&self) -> usize {
        self.region.len() * 4
    }
}

/// Seeded region-read plan: a lattice of anchors (every `ANCHOR_STRIDE`
/// samples along each axis where a region fits) in a seeded random rank
/// order, read with Zipf(`ZIPF_S`) popularity over those ranks.
pub struct ReadPlan {
    edge: Vec<usize>,
    anchors: Vec<Vec<usize>>,
    zipf: Zipf,
}

impl ReadPlan {
    pub fn new(shape: Shape, seed: u64) -> Self {
        let dims = shape.dims();
        let edge: Vec<usize> = dims.iter().map(|&d| REGION_EDGE.min(d)).collect();
        let mut anchors: Vec<Vec<usize>> = vec![Vec::new()];
        for (&d, &e) in dims.iter().zip(&edge) {
            anchors = anchors
                .into_iter()
                .flat_map(|a| {
                    (0..=d - e).step_by(ANCHOR_STRIDE).map(move |x| {
                        let mut v = a.clone();
                        v.push(x);
                        v
                    })
                })
                .collect();
        }
        let mut rng = SplitMix64::new(seed ^ 0xA11C_E5E5);
        let mut keyed: Vec<(u64, Vec<usize>)> =
            anchors.into_iter().map(|a| (rng.next_u64(), a)).collect();
        keyed.sort();
        let anchors: Vec<Vec<usize>> = keyed.into_iter().map(|(_, a)| a).collect();
        let zipf = Zipf::new(anchors.len(), ZIPF_S);
        ReadPlan {
            edge,
            anchors,
            zipf,
        }
    }

    /// The first `count` reads of the seeded sequence.
    pub fn sequence(&self, seed: u64, count: usize) -> Vec<Read> {
        let mut rng = SplitMix64::new(seed ^ 0x2EAD_5EED);
        (0..count)
            .map(|_| {
                let a = &self.anchors[self.zipf.sample(&mut rng)];
                let ranges: Vec<Range<usize>> =
                    a.iter().zip(&self.edge).map(|(&s, &e)| s..s + e).collect();
                let region = Region::new(&ranges).expect("anchor lattice fits the shape");
                Read { ranges, region }
            })
            .collect()
    }
}

/// The samples of `ranges` cut from a full decode, row-major.
pub fn slice(full: &Field<f32>, ranges: &[Range<usize>]) -> Vec<f32> {
    let dims = full.shape().dims();
    let data = full.as_slice();
    let mut pad = [0..1, 0..1, 0..1];
    let mut strides = [0usize; 3];
    let off = 3 - ranges.len();
    for (a, r) in ranges.iter().enumerate() {
        pad[off + a] = r.clone();
    }
    let mut full_dims = [1usize; 3];
    for (a, &d) in dims.iter().enumerate() {
        full_dims[off + a] = d;
    }
    strides[2] = 1;
    strides[1] = full_dims[2];
    strides[0] = full_dims[1] * full_dims[2];
    let mut out = Vec::with_capacity(pad.iter().map(|r| r.len()).product());
    for i in pad[0].clone() {
        for j in pad[1].clone() {
            let base = i * strides[0] + j * strides[1];
            out.extend_from_slice(&data[base + pad[2].start..base + pad[2].end]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_cuts_row_major_regions() {
        let f = Field::from_vec(Shape::D2(3, 4), (0..12).map(|v| v as f32).collect());
        assert_eq!(slice(&f, &[1..3, 1..3]), vec![5.0, 6.0, 9.0, 10.0]);
        let g = Field::from_vec(Shape::D3(2, 2, 2), (0..8).map(|v| v as f32).collect());
        assert_eq!(slice(&g, &[1..2, 0..2, 1..2]), vec![5.0, 7.0]);
    }

    #[test]
    fn read_plan_is_seeded_and_in_bounds() {
        let plan = ReadPlan::new(Shape::D3(64, 64, 64), 3);
        let a = plan.sequence(3, 100);
        let b = ReadPlan::new(Shape::D3(64, 64, 64), 3).sequence(3, 100);
        assert!(a.iter().zip(&b).all(|(x, y)| x.ranges == y.ranges));
        assert!(a
            .iter()
            .all(|r| r.ranges.iter().all(|x| x.end <= 64 && x.len() == 24)));
        // The ranking is a permutation of the whole lattice that depends
        // on the seed.
        let p = ReadPlan::new(Shape::D2(64, 64), 9);
        let q = ReadPlan::new(Shape::D2(64, 64), 10);
        let side = (64 - 24) / ANCHOR_STRIDE + 1;
        assert_eq!(p.anchors.len(), side * side);
        let mut sorted = p.anchors.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), side * side);
        assert_ne!(p.anchors[..8], q.anchors[..8]);
    }

    #[test]
    fn bound_check_catches_violations_and_nonfinite_changes() {
        let a = Field::from_vec(Shape::D1(3), vec![1.0f32, f32::NAN, 3.0]);
        let ok = Field::from_vec(Shape::D1(3), vec![1.05f32, f32::NAN, 2.95]);
        assert!(bound_holds(&a, &ok, 0.1).is_ok());
        let far = Field::from_vec(Shape::D1(3), vec![1.5f32, f32::NAN, 3.0]);
        assert!(bound_holds(&a, &far, 0.1).is_err());
        let lost = Field::from_vec(Shape::D1(3), vec![1.0f32, 0.0, 3.0]);
        assert!(bound_holds(&a, &lost, 0.1).is_err());
    }
}
