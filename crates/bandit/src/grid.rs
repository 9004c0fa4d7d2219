//! The discrete control grid `X = H x A x Gamma x M`.
//!
//! The paper uses 11 levels per policy, giving `|X| = 11^4 = 14 641`
//! candidate controls (§6.1). Controls are represented as flat indices
//! into this grid; coordinates are normalized to `[0, 1]` per dimension.

/// A uniform grid over the unit hypercube of control policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlGrid {
    /// Levels per dimension (the paper: 11).
    levels: usize,
    /// Number of control dimensions (the paper: 4).
    dims: usize,
}

impl ControlGrid {
    /// The paper's grid: 11 levels x 4 dimensions.
    pub fn paper() -> Self {
        ControlGrid { levels: 11, dims: 4 }
    }

    /// A custom grid.
    ///
    /// # Panics
    /// Panics if `levels < 2` or `dims == 0`.
    pub fn new(levels: usize, dims: usize) -> Self {
        assert!(levels >= 2, "need at least two levels per dimension");
        assert!(dims >= 1, "need at least one dimension");
        ControlGrid { levels, dims }
    }

    /// Levels per dimension.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.levels.pow(self.dims as u32)
    }

    /// `true` only for degenerate grids (never: constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unit coordinates of a flat index.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    pub fn coords(&self, idx: usize) -> Vec<f64> {
        assert!(idx < self.len(), "grid index out of range");
        self.unit_coords(idx).collect()
    }

    /// [`ControlGrid::coords`] without the allocation.
    fn unit_coords(&self, idx: usize) -> impl Iterator<Item = f64> + '_ {
        let mut rem = idx;
        (0..self.dims).map(move |_| {
            let level = rem % self.levels;
            rem /= self.levels;
            level as f64 / (self.levels - 1) as f64
        })
    }

    /// Flat index of the grid point nearest to arbitrary unit coordinates.
    ///
    /// # Panics
    /// Panics if `coords.len() != self.dims()`.
    pub fn nearest_index(&self, coords: &[f64]) -> usize {
        assert_eq!(coords.len(), self.dims, "coordinate dimensionality");
        let mut idx = 0usize;
        let mut stride = 1usize;
        for &c in coords {
            let level = ((c.clamp(0.0, 1.0) * (self.levels - 1) as f64).round() as usize)
                .min(self.levels - 1);
            idx += level * stride;
            stride *= self.levels;
        }
        idx
    }

    /// The index of the all-ones corner (max resources).
    pub fn max_corner(&self) -> usize {
        self.len() - 1
    }

    /// Indices of the "high-resource box": every dimension at or above the
    /// given unit threshold. This is the paper's initial safe set `S_0`
    /// (max-resource controls are delay-minimal, hence feasible whenever
    /// the problem is feasible at all).
    pub fn corner_box(&self, threshold: f64) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.unit_coords(i).all(|c| c >= threshold)).collect()
    }

    /// One-step axis neighbours of a grid point (up to `2 * dims`).
    pub fn neighbors(&self, idx: usize) -> Vec<usize> {
        let mut rem = idx;
        let mut levels = vec![0usize; self.dims];
        for l in levels.iter_mut() {
            *l = rem % self.levels;
            rem /= self.levels;
        }
        let mut out = Vec::with_capacity(2 * self.dims);
        let mut stride = 1usize;
        for &level in &levels {
            if level > 0 {
                out.push(idx - stride);
            }
            if level + 1 < self.levels {
                out.push(idx + stride);
            }
            stride *= self.levels;
        }
        out
    }

    /// Flattens a `(context, control)` pair into the GP input
    /// `z = (c, x)`.
    pub fn z_vector(&self, context: &[f64], control_idx: usize) -> Vec<f64> {
        let mut z = Vec::with_capacity(context.len() + self.dims);
        self.write_z(context, control_idx, &mut z);
        z
    }

    /// Appends the GP input `z = (c, x)` for one control onto `out`
    /// without allocating — the batched-posterior hot path builds the flat
    /// candidate matrix through this.
    ///
    /// # Panics
    /// Panics if `control_idx >= self.len()`.
    pub fn write_z(&self, context: &[f64], control_idx: usize, out: &mut Vec<f64>) {
        assert!(control_idx < self.len(), "grid index out of range");
        out.extend_from_slice(context);
        let mut rem = control_idx;
        for _ in 0..self.dims {
            let level = rem % self.levels;
            rem /= self.levels;
            out.push(level as f64 / (self.levels - 1) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_size() {
        let g = ControlGrid::paper();
        assert_eq!(g.len(), 14_641);
        assert_eq!(g.dims(), 4);
        assert_eq!(g.levels(), 11);
    }

    #[test]
    fn coords_roundtrip() {
        let g = ControlGrid::paper();
        for idx in [0, 1, 10, 11, 121, 14_640, 7_777] {
            let c = g.coords(idx);
            assert_eq!(g.nearest_index(&c), idx, "roundtrip failed for {idx}");
            assert!(c.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn coords_are_uniform_levels() {
        let g = ControlGrid::new(11, 1);
        for i in 0..11 {
            assert!((g.coords(i)[0] - i as f64 / 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_index_snaps() {
        let g = ControlGrid::new(11, 2);
        // (0.12, 0.88) snaps to level (1, 9).
        let idx = g.nearest_index(&[0.12, 0.88]);
        let c = g.coords(idx);
        assert!((c[0] - 0.1).abs() < 1e-12);
        assert!((c[1] - 0.9).abs() < 1e-12);
        // Out-of-range coordinates clamp.
        assert_eq!(g.nearest_index(&[-3.0, 7.0]), g.nearest_index(&[0.0, 1.0]));
    }

    #[test]
    fn max_corner_is_all_ones() {
        let g = ControlGrid::paper();
        let c = g.coords(g.max_corner());
        assert!(c.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn corner_box_contents() {
        let g = ControlGrid::new(11, 4);
        let s0 = g.corner_box(0.8);
        // Levels 0.8, 0.9, 1.0 in each of 4 dims: 3^4 = 81 points.
        assert_eq!(s0.len(), 81);
        assert!(s0.contains(&g.max_corner()));
        for &i in &s0 {
            assert!(g.coords(i).iter().all(|&c| c >= 0.8 - 1e-12));
        }
    }

    #[test]
    fn z_vector_concatenates() {
        let g = ControlGrid::new(11, 4);
        let z = g.z_vector(&[0.5, 0.25, 0.0], g.max_corner());
        assert_eq!(z.len(), 7);
        assert_eq!(&z[..3], &[0.5, 0.25, 0.0]);
        assert!(z[3..].iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn write_z_appends_and_matches_z_vector() {
        let g = ControlGrid::paper();
        let ctx = [0.5, 0.25, 0.0];
        let mut flat = vec![9.0]; // pre-existing content must survive
        for idx in [0, 1, 121, 7_777, 14_640] {
            g.write_z(&ctx, idx, &mut flat);
        }
        assert_eq!(flat[0], 9.0);
        for (k, idx) in [0, 1, 121, 7_777, 14_640].into_iter().enumerate() {
            assert_eq!(&flat[1 + k * 7..1 + (k + 1) * 7], &g.z_vector(&ctx, idx)[..]);
        }
    }

    #[test]
    fn neighbors_are_one_step_away() {
        let g = ControlGrid::new(11, 4);
        let idx = g.nearest_index(&[0.5, 0.5, 0.5, 0.5]);
        let ns = g.neighbors(idx);
        assert_eq!(ns.len(), 8);
        for n in ns {
            let a = g.coords(idx);
            let b = g.coords(n);
            let dist: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert!((dist - 0.1).abs() < 1e-9, "neighbor not one step: {dist}");
        }
        // Corners have fewer neighbors.
        assert_eq!(g.neighbors(0).len(), 4);
        assert_eq!(g.neighbors(g.max_corner()).len(), 4);
    }

    #[test]
    #[should_panic(expected = "grid index out of range")]
    fn coords_rejects_out_of_range() {
        let _ = ControlGrid::paper().coords(14_641);
    }
}
