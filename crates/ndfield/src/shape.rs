//! Row-major array shapes for 1/2/3-dimensional regular grids.
//!
//! The paper's data sets are 2D (CESM-ATM, `1800 × 3600`) and 3D
//! (Hurricane `100 × 500 × 500`, NYX `2048³`). Following SZ's convention,
//! dimensions are listed slowest-varying first (C order): a 3D shape
//! `[d0, d1, d2]` stores element `(i, j, k)` at linear offset
//! `i·d1·d2 + j·d2 + k`.

/// Shape of a 1-, 2- or 3-dimensional row-major grid.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// 1D series of `n` samples.
    D1(usize),
    /// 2D grid, `rows × cols`, `cols` fastest-varying.
    D2(usize, usize),
    /// 3D grid, `d0 × d1 × d2`, `d2` fastest-varying.
    D3(usize, usize, usize),
}

impl Shape {
    /// Build a shape from a slice of 1–3 extents (slowest-varying first).
    ///
    /// # Panics
    /// Panics when `dims` is empty, longer than 3, or contains a zero extent.
    pub fn from_dims(dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= 3,
            "shape must have 1-3 dimensions, got {}",
            dims.len()
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized dimension in {dims:?}"
        );
        match *dims {
            [n] => Shape::D1(n),
            [r, c] => Shape::D2(r, c),
            [a, b, c] => Shape::D3(a, b, c),
            _ => unreachable!(),
        }
    }

    /// Number of dimensions (1, 2 or 3).
    #[inline]
    pub fn rank(&self) -> usize {
        match self {
            Shape::D1(_) => 1,
            Shape::D2(..) => 2,
            Shape::D3(..) => 3,
        }
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            Shape::D1(n) => n,
            Shape::D2(r, c) => r * c,
            Shape::D3(a, b, c) => a * b * c,
        }
    }

    /// `true` when the grid holds no elements (never true for valid shapes,
    /// kept for API completeness with `len`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extents as a vector, slowest-varying first.
    pub fn dims(&self) -> Vec<usize> {
        match *self {
            Shape::D1(n) => vec![n],
            Shape::D2(r, c) => vec![r, c],
            Shape::D3(a, b, c) => vec![a, b, c],
        }
    }

    /// Row-major strides, matching [`Shape::dims`] order.
    ///
    /// For `D3(a, b, c)` the strides are `[b·c, c, 1]`.
    pub fn strides(&self) -> Vec<usize> {
        match *self {
            Shape::D1(_) => vec![1],
            Shape::D2(_, c) => vec![c, 1],
            Shape::D3(_, b, c) => vec![b * c, c, 1],
        }
    }

    /// Linear offset of a multi-index (length must equal [`Shape::rank`]).
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-bounds coordinates.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        match (*self, idx) {
            (Shape::D1(n), [i]) => {
                assert!(*i < n, "index {i} out of bounds for D1({n})");
                *i
            }
            (Shape::D2(r, c), [i, j]) => {
                assert!(
                    *i < r && *j < c,
                    "index ({i},{j}) out of bounds for D2({r},{c})"
                );
                i * c + j
            }
            (Shape::D3(a, b, c), [i, j, k]) => {
                assert!(
                    *i < a && *j < b && *k < c,
                    "index ({i},{j},{k}) out of bounds for D3({a},{b},{c})"
                );
                i * b * c + j * c + k
            }
            _ => panic!(
                "rank mismatch: shape has rank {}, index has {}",
                self.rank(),
                idx.len()
            ),
        }
    }

    /// In-memory payload size in bytes for elements of `elem_bytes` each.
    #[inline]
    pub fn byte_len(&self, elem_bytes: usize) -> usize {
        self.len() * elem_bytes
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Shape::D1(n) => write!(f, "{n}"),
            Shape::D2(r, c) => write!(f, "{r}x{c}"),
            Shape::D3(a, b, c) => write!(f, "{a}x{b}x{c}"),
        }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dims_roundtrip() {
        for dims in [vec![7], vec![3, 4], vec![2, 3, 4]] {
            assert_eq!(Shape::from_dims(&dims).dims(), dims);
        }
    }

    #[test]
    #[should_panic(expected = "1-3 dimensions")]
    fn from_dims_rejects_rank4() {
        Shape::from_dims(&[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn from_dims_rejects_zero_extent() {
        Shape::from_dims(&[4, 0]);
    }

    #[test]
    fn lens() {
        assert_eq!(Shape::D1(5).len(), 5);
        assert_eq!(Shape::D2(3, 4).len(), 12);
        assert_eq!(Shape::D3(2, 3, 4).len(), 24);
    }

    #[test]
    fn strides_match_row_major() {
        assert_eq!(Shape::D1(5).strides(), vec![1]);
        assert_eq!(Shape::D2(3, 4).strides(), vec![4, 1]);
        assert_eq!(Shape::D3(2, 3, 4).strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offsets_enumerate_linearly_3d() {
        let s = Shape::D3(2, 3, 4);
        let mut expect = 0usize;
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(s.offset(&[i, j, k]), expect);
                    expect += 1;
                }
            }
        }
    }

    #[test]
    fn offsets_enumerate_linearly_2d() {
        let s = Shape::D2(3, 4);
        let mut expect = 0usize;
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(s.offset(&[i, j]), expect);
                expect += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_bounds_checked() {
        Shape::D2(3, 4).offset(&[3, 0]);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn offset_rank_checked() {
        Shape::D2(3, 4).offset(&[1]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape::D3(100, 500, 500).to_string(), "100x500x500");
        assert_eq!(Shape::D2(1800, 3600).to_string(), "1800x3600");
        assert_eq!(Shape::D1(42).to_string(), "42");
    }

    #[test]
    fn byte_len_scales_with_elem_size() {
        assert_eq!(Shape::D2(10, 10).byte_len(4), 400);
        assert_eq!(Shape::D2(10, 10).byte_len(8), 800);
    }
}
