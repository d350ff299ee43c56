//! Multi-dimensional chunk-grid geometry for blocked containers.
//!
//! A [`ChunkGrid`] partitions a row-major field into an axis-aligned grid
//! of chunks: every axis is cut into `ceil(dim / chunk)` pieces and a block
//! is one cell of the resulting grid, identified either by its row-major
//! block index or by its grid coordinate. The legacy slab layout (v1–v3
//! containers, `block_rows` slices along the slowest axis) is the special
//! case where every non-leading chunk extent equals the full dimension —
//! a 1×…×N grid — so one set of geometry routines serves every container
//! version.
//!
//! The grid is pure geometry: it maps block indices to shapes, origins and
//! covering linear ranges, gathers a block out of a full field (for the
//! encoder), scatters a decoded block back into a full field (for the
//! decoder), and intersects blocks with a [`Region`] for random-access
//! reads that copy only the overlapping samples, stride by stride.
//!
//! Internally everything is padded to three axes with extent-1 trailing
//! axes, so rank-generic loops are written once against `[usize; 3]`.

use crate::error::SzError;
use ndfield::Shape;

/// An axis-aligned sub-box of a field: `start[a]..end[a]` on each axis.
///
/// Regions are half-open, non-empty on every axis, and rank-typed (a 2-D
/// region only addresses 2-D fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    rank: usize,
    start: [usize; 3],
    end: [usize; 3],
}

impl Region {
    /// Build a region from per-axis half-open ranges (1–3 axes).
    ///
    /// # Errors
    /// [`SzError::BadConfig`] when the rank is outside 1..=3 or any axis
    /// range is empty or inverted.
    pub fn new(ranges: &[std::ops::Range<usize>]) -> Result<Region, SzError> {
        if ranges.is_empty() || ranges.len() > 3 {
            return Err(SzError::BadConfig(format!(
                "region rank must be 1..=3, got {}",
                ranges.len()
            )));
        }
        let mut start = [0usize; 3];
        let mut end = [1usize; 3];
        for (a, r) in ranges.iter().enumerate() {
            if r.start >= r.end {
                return Err(SzError::BadConfig(format!(
                    "region axis {a} is empty ({}..{})",
                    r.start, r.end
                )));
            }
            start[a] = r.start;
            end[a] = r.end;
        }
        Ok(Region {
            rank: ranges.len(),
            start,
            end,
        })
    }

    /// The region covering an entire field of the given shape.
    pub fn whole(shape: Shape) -> Region {
        let dims = shape.dims();
        let mut start = [0usize; 3];
        let mut end = [1usize; 3];
        for (a, &d) in dims.iter().enumerate() {
            start[a] = 0;
            end[a] = d;
        }
        Region {
            rank: dims.len(),
            start,
            end,
        }
    }

    /// Number of axes (1..=3).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Per-axis extents (`rank` entries).
    pub fn dims(&self) -> Vec<usize> {
        (0..self.rank)
            .map(|a| self.end[a] - self.start[a])
            .collect()
    }

    /// The region's extents as a [`Shape`].
    pub fn shape(&self) -> Shape {
        match self.rank {
            1 => Shape::D1(self.end[0] - self.start[0]),
            2 => Shape::D2(self.end[0] - self.start[0], self.end[1] - self.start[1]),
            _ => Shape::D3(
                self.end[0] - self.start[0],
                self.end[1] - self.start[1],
                self.end[2] - self.start[2],
            ),
        }
    }

    /// Total samples in the region.
    pub fn len(&self) -> usize {
        (0..3).map(|a| self.end[a] - self.start[a]).product()
    }

    /// Regions are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the region lies fully inside a field of the given shape.
    pub fn fits(&self, shape: Shape) -> bool {
        let dims = shape.dims();
        self.rank == dims.len() && (0..self.rank).all(|a| self.end[a] <= dims[a])
    }

    /// Half-open range on axis `a` (padded axes report `0..1`).
    pub(crate) fn axis(&self, a: usize) -> (usize, usize) {
        (self.start[a], self.end[a])
    }
}

/// Row-major chunk-grid partition of a field (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkGrid {
    shape: Shape,
    rank: usize,
    /// Field dims, padded to 3 axes with trailing 1s.
    dim: [usize; 3],
    /// Chunk extents per axis, padded likewise (each in `1..=dim[a]`).
    chunk: [usize; 3],
    /// Grid extents: `ceil(dim[a] / chunk[a])`.
    grid: [usize; 3],
}

impl ChunkGrid {
    /// Pad a shape's dims to `[usize; 3]` with trailing 1s.
    fn pad(shape: Shape) -> (usize, [usize; 3]) {
        let dims = shape.dims();
        let mut dim = [1usize; 3];
        dim[..dims.len()].copy_from_slice(&dims);
        (dims.len(), dim)
    }

    /// Build a grid from per-axis chunk extents. An extent of 0 (or a
    /// missing trailing entry) means "full dimension" on that axis; extents
    /// are clamped to the dimension.
    ///
    /// # Errors
    /// [`SzError::BadConfig`] when more extents are given than the shape
    /// has axes (and the excess entries are non-zero).
    pub fn from_chunk_dims(shape: Shape, chunk_dims: &[usize]) -> Result<ChunkGrid, SzError> {
        let (rank, dim) = Self::pad(shape);
        if chunk_dims.iter().skip(rank).any(|&c| c != 0) {
            return Err(SzError::BadConfig(format!(
                "chunk dims specify {} axes but the field has rank {rank}",
                chunk_dims.len()
            )));
        }
        let mut chunk = [1usize; 3];
        for a in 0..rank {
            let req = chunk_dims.get(a).copied().unwrap_or(0);
            chunk[a] = if req == 0 { dim[a] } else { req.min(dim[a]) };
        }
        Ok(Self::from_padded(shape, rank, dim, chunk))
    }

    /// The legacy slab partition: `block_rows` slices along axis 0, full
    /// extent elsewhere (v1–v3 containers). `block_rows` must be in
    /// `1..=dim[0]` (the caller has validated it).
    pub(crate) fn slab(shape: Shape, block_rows: usize) -> ChunkGrid {
        let (rank, dim) = Self::pad(shape);
        let mut chunk = dim;
        chunk[0] = block_rows.min(dim[0]).max(1);
        Self::from_padded(shape, rank, dim, chunk)
    }

    fn from_padded(shape: Shape, rank: usize, dim: [usize; 3], chunk: [usize; 3]) -> ChunkGrid {
        let mut grid = [1usize; 3];
        for a in 0..3 {
            grid[a] = dim[a].div_ceil(chunk[a]);
        }
        ChunkGrid {
            shape,
            rank,
            dim,
            chunk,
            grid,
        }
    }

    /// The partitioned field's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of axes (1..=3).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Chunk extents per axis (`rank` entries).
    pub fn chunk_dims(&self) -> Vec<usize> {
        self.chunk[..self.rank].to_vec()
    }

    /// Grid extents per axis (`rank` entries).
    pub fn grid_dims(&self) -> Vec<usize> {
        self.grid[..self.rank].to_vec()
    }

    /// Total number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.grid.iter().product()
    }

    /// Whether this is a slab partition (full extent on axes 1..rank), i.e.
    /// every block is a contiguous row-major range.
    pub fn is_slab(&self) -> bool {
        (1..3).all(|a| self.grid[a] == 1)
    }

    /// Rows per block along axis 0 (the v1–v3 `block_rows` parameter).
    pub(crate) fn block_rows(&self) -> usize {
        self.chunk[0]
    }

    /// Grid coordinate of block `b` (row-major block order).
    pub fn coord(&self, b: usize) -> [usize; 3] {
        debug_assert!(b < self.n_blocks());
        [
            b / (self.grid[1] * self.grid[2]),
            (b / self.grid[2]) % self.grid[1],
            b % self.grid[2],
        ]
    }

    /// Sample-space origin of block `b` per axis.
    pub fn block_origin(&self, b: usize) -> [usize; 3] {
        let c = self.coord(b);
        [
            c[0] * self.chunk[0],
            c[1] * self.chunk[1],
            c[2] * self.chunk[2],
        ]
    }

    /// Padded per-axis extents of block `b` (edge blocks are smaller).
    fn block_dims(&self, b: usize) -> [usize; 3] {
        let o = self.block_origin(b);
        [
            self.chunk[0].min(self.dim[0] - o[0]),
            self.chunk[1].min(self.dim[1] - o[1]),
            self.chunk[2].min(self.dim[2] - o[2]),
        ]
    }

    /// Shape of block `b`, at the grid's rank.
    pub fn block_shape(&self, b: usize) -> Shape {
        let d = self.block_dims(b);
        match self.rank {
            1 => Shape::D1(d[0]),
            2 => Shape::D2(d[0], d[1]),
            _ => Shape::D3(d[0], d[1], d[2]),
        }
    }

    /// Samples in block `b`.
    pub fn block_len(&self, b: usize) -> usize {
        self.block_dims(b).iter().product()
    }

    /// The smallest contiguous row-major range of the *field* covering
    /// block `b`. For slab grids this is exactly the block's samples; for
    /// true grids it is a covering interval (used for damage reporting).
    pub fn covering_range(&self, b: usize) -> std::ops::Range<usize> {
        let o = self.block_origin(b);
        let d = self.block_dims(b);
        let s1 = self.dim[2];
        let s0 = self.dim[1] * self.dim[2];
        let first = o[0] * s0 + o[1] * s1 + o[2];
        let last = (o[0] + d[0] - 1) * s0 + (o[1] + d[1] - 1) * s1 + (o[2] + d[2] - 1);
        first..last + 1
    }

    /// Copy block `b` out of the full field into `dst` (cleared first), in
    /// the block's own row-major order.
    pub fn gather<T: Copy>(&self, src: &[T], b: usize, dst: &mut Vec<T>) {
        debug_assert_eq!(src.len(), self.shape.len());
        let o = self.block_origin(b);
        let d = self.block_dims(b);
        dst.clear();
        dst.reserve(d[0] * d[1] * d[2]);
        let s1 = self.dim[2];
        let s0 = self.dim[1] * self.dim[2];
        for i in o[0]..o[0] + d[0] {
            for j in o[1]..o[1] + d[1] {
                let row = i * s0 + j * s1 + o[2];
                dst.extend_from_slice(&src[row..row + d[2]]);
            }
        }
    }

    /// Scatter a decoded block back into the full field buffer.
    ///
    /// # Panics
    /// Debug-asserts `block.len()` matches the block and `dst` the field.
    pub fn scatter<T: Copy>(&self, block: &[T], b: usize, dst: &mut [T]) {
        debug_assert_eq!(dst.len(), self.shape.len());
        debug_assert_eq!(block.len(), self.block_len(b));
        let o = self.block_origin(b);
        let d = self.block_dims(b);
        let s1 = self.dim[2];
        let s0 = self.dim[1] * self.dim[2];
        let mut src_off = 0usize;
        for i in o[0]..o[0] + d[0] {
            for j in o[1]..o[1] + d[1] {
                let row = i * s0 + j * s1 + o[2];
                dst[row..row + d[2]].copy_from_slice(&block[src_off..src_off + d[2]]);
                src_off += d[2];
            }
        }
    }

    /// Fill block `b`'s footprint in the full field buffer with `value`
    /// (damaged-block poisoning in forgiving decodes).
    pub fn fill_block<T: Copy>(&self, b: usize, value: T, dst: &mut [T]) {
        let o = self.block_origin(b);
        let d = self.block_dims(b);
        let s1 = self.dim[2];
        let s0 = self.dim[1] * self.dim[2];
        for i in o[0]..o[0] + d[0] {
            for j in o[1]..o[1] + d[1] {
                let row = i * s0 + j * s1 + o[2];
                dst[row..row + d[2]].fill(value);
            }
        }
    }

    /// Block indices whose footprint intersects `region`, in ascending
    /// (row-major) block order. The region must fit the field.
    pub fn blocks_intersecting(&self, region: &Region) -> Vec<usize> {
        let mut lo = [0usize; 3];
        let mut hi = [1usize; 3];
        for a in 0..3 {
            let (s, e) = region.axis(a);
            lo[a] = s / self.chunk[a];
            hi[a] = (e - 1) / self.chunk[a] + 1;
        }
        let mut out = Vec::with_capacity((hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]));
        for c0 in lo[0]..hi[0] {
            for c1 in lo[1]..hi[1] {
                for c2 in lo[2]..hi[2] {
                    out.push((c0 * self.grid[1] + c1) * self.grid[2] + c2);
                }
            }
        }
        out
    }

    /// Copy the intersection of block `b` and `region` from the decoded
    /// block into a region-shaped output buffer, run by run.
    pub fn copy_block_region<T: Copy>(
        &self,
        block: &[T],
        b: usize,
        region: &Region,
        out: &mut [T],
    ) {
        debug_assert_eq!(block.len(), self.block_len(b));
        debug_assert_eq!(out.len(), region.len());
        let o = self.block_origin(b);
        let d = self.block_dims(b);
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        let mut rdim = [1usize; 3];
        for a in 0..3 {
            let (s, e) = region.axis(a);
            lo[a] = s.max(o[a]);
            hi[a] = e.min(o[a] + d[a]);
            rdim[a] = e - s;
        }
        debug_assert!(
            (0..3).all(|a| lo[a] < hi[a]),
            "block does not intersect region"
        );
        let run = hi[2] - lo[2];
        let (r0, _) = region.axis(0);
        let (r1, _) = region.axis(1);
        let (r2, _) = region.axis(2);
        // Hierarchical coalescing: when the innermost runs tile axis 2 of
        // both the block and the region wall-to-wall (`run == d[2] ==
        // rdim[2]`, which forces the axis-2 offsets to 0 on both sides),
        // consecutive `j` rows are contiguous in both buffers and a whole
        // (j, k)-plane moves in one `copy_from_slice`; when the planes
        // tile axis 1 the same way, the entire intersection is one copy.
        // This is what rescues rank-1 and rank-2 fields, whose padded
        // leading axes make `run == 1` and would otherwise degrade the
        // row loop into per-element copies.
        if run == d[2] && run == rdim[2] {
            let rows = hi[1] - lo[1];
            let plane = rows * run;
            if rows == d[1] && rows == rdim[1] {
                let src = (lo[0] - o[0]) * d[1] * d[2];
                let dst = (lo[0] - r0) * rdim[1] * rdim[2];
                let n = (hi[0] - lo[0]) * plane;
                out[dst..dst + n].copy_from_slice(&block[src..src + n]);
                return;
            }
            for i in lo[0]..hi[0] {
                let src = ((i - o[0]) * d[1] + (lo[1] - o[1])) * d[2];
                let dst = ((i - r0) * rdim[1] + (lo[1] - r1)) * rdim[2];
                out[dst..dst + plane].copy_from_slice(&block[src..src + plane]);
            }
            return;
        }
        for i in lo[0]..hi[0] {
            for j in lo[1]..hi[1] {
                let src = ((i - o[0]) * d[1] + (j - o[1])) * d[2] + (lo[2] - o[2]);
                let dst = ((i - r0) * rdim[1] + (j - r1)) * rdim[2] + (lo[2] - r2);
                out[dst..dst + run].copy_from_slice(&block[src..src + run]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_3d() -> ChunkGrid {
        // 7×5×6 field in 3×2×4 chunks → 3×3×2 grid of 18 blocks.
        ChunkGrid::from_chunk_dims(Shape::D3(7, 5, 6), &[3, 2, 4]).unwrap()
    }

    #[test]
    fn grid_geometry_basics() {
        let g = grid_3d();
        assert_eq!(g.grid_dims(), vec![3, 3, 2]);
        assert_eq!(g.n_blocks(), 18);
        assert!(!g.is_slab());
        // Last block: coord (2, 2, 1) → origin (6, 4, 4) → dims (1, 1, 2).
        let b = g.n_blocks() - 1;
        assert_eq!(g.coord(b), [2, 2, 1]);
        assert_eq!(g.block_origin(b), [6, 4, 4]);
        assert_eq!(g.block_shape(b), Shape::D3(1, 1, 2));
        assert_eq!(g.block_len(b), 2);
    }

    #[test]
    fn slab_matches_block_rows_partition() {
        let g = ChunkGrid::slab(Shape::D2(10, 8), 4);
        assert!(g.is_slab());
        assert_eq!(g.n_blocks(), 3);
        assert_eq!(g.block_shape(0), Shape::D2(4, 8));
        assert_eq!(g.block_shape(2), Shape::D2(2, 8));
        assert_eq!(g.covering_range(1), 32..64);
    }

    #[test]
    fn zero_chunk_means_full_axis() {
        let g = ChunkGrid::from_chunk_dims(Shape::D3(8, 8, 8), &[4, 0, 0]).unwrap();
        assert!(g.is_slab());
        assert_eq!(g.chunk_dims(), vec![4, 8, 8]);
        assert!(ChunkGrid::from_chunk_dims(Shape::D2(8, 8), &[2, 2, 2]).is_err());
    }

    #[test]
    fn gather_scatter_roundtrip_every_block() {
        let g = grid_3d();
        let field: Vec<u32> = (0..g.shape().len() as u32).collect();
        let mut rebuilt = vec![u32::MAX; field.len()];
        let mut buf = Vec::new();
        for b in 0..g.n_blocks() {
            g.gather(&field, b, &mut buf);
            assert_eq!(buf.len(), g.block_len(b));
            g.scatter(&buf, b, &mut rebuilt);
        }
        assert_eq!(rebuilt, field);
    }

    #[test]
    fn intersection_finds_exactly_the_overlapping_blocks() {
        let g = grid_3d();
        let r = Region::new(&[2..4, 1..2, 3..5]).unwrap();
        // Axis 0: rows 2..4 → chunks 0..2; axis 1: 1..2 → chunk 0;
        // axis 2: 3..5 → chunks 0..2.
        let blocks = g.blocks_intersecting(&r);
        assert_eq!(blocks, vec![0, 1, 6, 7]);
        // Whole-field region touches every block.
        assert_eq!(
            g.blocks_intersecting(&Region::whole(g.shape())).len(),
            g.n_blocks()
        );
    }

    #[test]
    fn region_copy_matches_direct_slicing() {
        let g = grid_3d();
        let field: Vec<u32> = (0..g.shape().len() as u32).collect();
        let r = Region::new(&[1..6, 0..4, 2..6]).unwrap();
        let rdims = r.dims();
        let mut out = vec![u32::MAX; r.len()];
        let mut buf = Vec::new();
        for b in g.blocks_intersecting(&r) {
            g.gather(&field, b, &mut buf);
            g.copy_block_region(&buf, b, &r, &mut out);
        }
        // Oracle: direct strided slicing of the field.
        let (d1, d2) = (5, 6);
        let mut k = 0;
        for i in 1..6 {
            for j in 0..4 {
                for l in 2..6 {
                    assert_eq!(out[k], field[(i * d1 + j) * d2 + l]);
                    k += 1;
                }
            }
        }
        assert_eq!(k, rdims.iter().product::<usize>());
    }

    #[test]
    fn rank1_and_rank2_regions() {
        let g1 = ChunkGrid::from_chunk_dims(Shape::D1(100), &[32]).unwrap();
        assert_eq!(g1.n_blocks(), 4);
        let r = Region::new(&[40..70]).unwrap();
        assert_eq!(g1.blocks_intersecting(&r), vec![1, 2]);

        let g2 = ChunkGrid::from_chunk_dims(Shape::D2(9, 9), &[3, 3]).unwrap();
        let r = Region::new(&[4..5, 4..5]).unwrap();
        assert_eq!(g2.blocks_intersecting(&r), vec![4]);
        let field: Vec<u16> = (0..81).collect();
        let mut buf = Vec::new();
        g2.gather(&field, 4, &mut buf);
        let mut out = vec![0u16; 1];
        g2.copy_block_region(&buf, 4, &r, &mut out);
        assert_eq!(out[0], field[4 * 9 + 4]);
    }

    #[test]
    fn region_validation() {
        assert!(Region::new(&[]).is_err());
        assert!(Region::new(&[3..3]).is_err());
        assert!(Region::new(&[0..1, 0..1, 0..1, 0..1]).is_err());
        let r = Region::new(&[0..4, 2..8]).unwrap();
        assert_eq!(r.shape(), Shape::D2(4, 6));
        assert!(r.fits(Shape::D2(4, 8)));
        assert!(!r.fits(Shape::D2(4, 7)));
        assert!(!r.fits(Shape::D1(10)));
    }

    #[test]
    fn fill_block_poisons_exact_footprint() {
        let g = ChunkGrid::from_chunk_dims(Shape::D2(4, 4), &[2, 2]).unwrap();
        let mut buf = vec![0u8; 16];
        g.fill_block(3, 9, &mut buf); // bottom-right 2×2 block
        let hits: Vec<usize> = buf
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == 9)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, vec![10, 11, 14, 15]);
    }
}
