//! The forward problem: exact measured impedances `Z = F(R)` by Kirchhoff
//! nodal analysis.
//!
//! With ideal wires the MEA is the weighted complete bipartite graph
//! `K_{m,n}` (see [`crate::graph`]); the measured impedance between the
//! endpoints of horizontal wire `i` and vertical wire `j` is the *effective
//! resistance* between nodes `H_i` and `V_j`:
//!
//! ```text
//! Z_ij = (e_i − e_j)ᵀ · L⁺ · (e_i − e_j)
//! ```
//!
//! with `L` the weighted graph Laplacian. One grounded inverse of `L`
//! (order `m+n−1`, factored through the Schur complement of the vertical
//! wires) serves every pair, so the full `Z` matrix costs
//! `O((m+n)³ + m·n·1)` — this is also the inner linear solve of Parma's
//! inverse iteration, where the per-pair wire potentials double as the
//! ground truth for the paper's `Ua`/`Ub` intermediate voltages.
//!
//! In the paper's pipeline this role was played by the physical device: the
//! wet lab measured `Z` directly. Here the forward solver *is* the
//! simulated device (see DESIGN.md §2 for the substitution argument).

use crate::graph::WireId;
use crate::grid::{CrossingMatrix, MeaGrid, ResistorGrid, ZMatrix};
use mea_linalg::{
    BipartiteFactor, BipartiteSystem, DenseMatrix, InverseScope, LinalgError, Parallelism,
    Sequential,
};

/// Reusable scratch for [`ForwardSolver::refactor`]: the structured
/// bipartite system and its factor. One workspace amortizes every
/// per-iteration allocation of the forward factorization; its buffers
/// size themselves to the geometry of each refactor (the inverse scope
/// survives resizing).
#[derive(Clone, Debug)]
pub struct ForwardWorkspace {
    sys: BipartiteSystem,
    bip: BipartiteFactor,
    sweep_only: bool,
}

impl ForwardWorkspace {
    /// A workspace for `grid`: the same as [`Self::empty`], since the
    /// buffers size themselves on the first refactor.
    pub fn new(_grid: MeaGrid) -> Self {
        Self::empty()
    }

    /// An unsized workspace; buffers grow on first use.
    pub fn empty() -> Self {
        ForwardWorkspace {
            sys: BipartiteSystem::new(),
            bip: BipartiteFactor::new(),
            sweep_only: false,
        }
    }

    /// Restricts refactors to the sweep-scope inverse (HH off-diagonals
    /// skipped): solvers refactored through this workspace then answer
    /// [`ForwardSolver::effective_resistance`] but panic on the full-field
    /// queries.
    pub fn set_sweep_only(&mut self, sweep_only: bool) {
        self.sweep_only = sweep_only;
    }
}

/// Wire potentials for one driven endpoint pair, normalized to
/// `u(V_j) = 0` and `u(H_i) = voltage`.
#[derive(Clone, Debug)]
pub struct PairPotentials {
    grid: MeaGrid,
    /// Driven horizontal wire.
    pub i: usize,
    /// Driven vertical wire.
    pub j: usize,
    /// Applied end-to-end voltage `U_ij` (volts).
    pub voltage: f64,
    /// The model impedance `Z_ij` implied by the current resistor map (kΩ).
    pub z_model: f64,
    /// Potential of every wire node (horizontal first, then vertical).
    potentials: Vec<f64>,
}

impl PairPotentials {
    /// Potential of an arbitrary wire.
    pub fn potential(&self, w: WireId) -> f64 {
        self.potentials[w.node_index(self.grid)]
    }

    /// The paper's `Ua_{ij·}` values: potentials of the vertical wires
    /// `k ≠ j`, in ascending `k` order (the `k'` compression of §IV-A).
    pub fn ua(&self) -> Vec<f64> {
        (0..self.grid.cols())
            .filter(|&k| k != self.j)
            .map(|k| self.potential(WireId::Vertical(k)))
            .collect()
    }

    /// The paper's `Ub_{ij·}` values: potentials of the horizontal wires
    /// `m ≠ i`, in ascending `m` order (the `m'` compression of §IV-A).
    pub fn ub(&self) -> Vec<f64> {
        (0..self.grid.rows())
            .filter(|&m| m != self.i)
            .map(|m| self.potential(WireId::Horizontal(m)))
            .collect()
    }

    /// Total current injected at `H_i` (mA, since kΩ·mA = V), which by
    /// Ohm's law is `voltage / z_model`.
    pub fn injected_current(&self) -> f64 {
        self.voltage / self.z_model
    }
}

/// A factored forward solver for a fixed resistor map.
///
/// Construction performs the single `O((m+n)³)` grounded-Laplacian inverse;
/// each subsequent query is `O(m+n)`.
#[derive(Clone, Debug)]
pub struct ForwardSolver {
    grid: MeaGrid,
    /// Conductances g = 1/R, row-major (kept for residual checks).
    conductances: Vec<f64>,
    /// Pseudo-inverse surrogate: the inverse of the grounded Laplacian,
    /// order `m + n − 1`. The grounded node (vertical wire `n − 1`, node
    /// index `m + n − 1`) has no row or column; [`Self::inv`] reads it as 0.
    minv: DenseMatrix,
    /// Whether `minv` carries the full HH block. False only after a
    /// sweep-scope refactor; the full-field queries
    /// ([`Self::pair_potentials`], [`Self::sensitivity`]) assert on it.
    hh_full: bool,
}

impl ForwardSolver {
    /// Factors the Laplacian of the resistor map.
    ///
    /// Fails with [`LinalgError::InvalidInput`] when the map has
    /// non-physical entries, or propagates a factorization error (cannot
    /// happen for physical maps — the grounded Laplacian of a connected
    /// graph is positive definite).
    pub fn new(r: &ResistorGrid) -> Result<Self, LinalgError> {
        let mut ws = ForwardWorkspace::new(r.grid());
        Self::with_workspace(r, &mut ws)
    }

    /// Like [`ForwardSolver::new`], but factoring through a caller-owned
    /// [`ForwardWorkspace`] so repeated constructions share scratch
    /// buffers. Results are bitwise identical to `new` (which delegates
    /// here).
    pub fn with_workspace(
        r: &ResistorGrid,
        ws: &mut ForwardWorkspace,
    ) -> Result<Self, LinalgError> {
        Self::with_workspace_supervised(r, ws, &Sequential, None)
    }

    /// Like [`Self::with_workspace`], with an intra-solve executor and a
    /// stop condition (see [`Self::refactor_supervised`]).
    pub fn with_workspace_supervised(
        r: &ResistorGrid,
        ws: &mut ForwardWorkspace,
        par: &dyn Parallelism,
        should_stop: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<Self, LinalgError> {
        let grid = r.grid();
        let dim = grid.rows() + grid.cols() - 1;
        let mut solver = ForwardSolver {
            grid,
            conductances: vec![0.0; grid.crossings()],
            minv: DenseMatrix::zeros(dim, dim),
            hh_full: true,
        };
        solver.refactor_supervised(r, ws, par, should_stop)?;
        Ok(solver)
    }

    /// Refactors this solver in place for a new resistor map of the same
    /// geometry, reusing the workspace — zero allocations in steady state
    /// and bitwise identical to building a fresh solver with
    /// [`ForwardSolver::new`]. On `Err` the solver state is unspecified
    /// and must be refactored before further queries.
    pub fn refactor(
        &mut self,
        r: &ResistorGrid,
        ws: &mut ForwardWorkspace,
    ) -> Result<(), LinalgError> {
        self.refactor_supervised(r, ws, &Sequential, None)
    }

    /// [`Self::refactor`] with an intra-solve executor and a stop
    /// condition. The grounded Laplacian is assembled in bipartite block
    /// form and inverted through the vertical-wire Schur complement
    /// ([`BipartiteFactor`]), in the workspace's inverse scope; the
    /// factorization fans its row-chunk stages out over `par` and polls
    /// `should_stop` at chunk granularity, failing with
    /// [`LinalgError::Cancelled`] mid-factorization instead of only
    /// between solver iterations. Results are bitwise independent of
    /// `par`.
    pub fn refactor_supervised(
        &mut self,
        r: &ResistorGrid,
        ws: &mut ForwardWorkspace,
        par: &dyn Parallelism,
        should_stop: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<(), LinalgError> {
        if r.grid() != self.grid {
            return Err(LinalgError::InvalidInput(
                "refactor: geometry mismatch".into(),
            ));
        }
        if !r.is_physical() {
            return Err(LinalgError::InvalidInput(
                "resistor map must be strictly positive and finite".into(),
            ));
        }
        let (m, n) = (self.grid.rows(), self.grid.cols());
        for (g, &x) in self.conductances.iter_mut().zip(r.as_slice()) {
            *g = 1.0 / x;
        }
        // Grounded Laplacian: drop the last node (vertical wire n−1).
        ws.sys.reset(m, n - 1);
        for i in 0..m {
            for j in 0..n {
                let g = self.conductances[self.grid.pair_index(i, j)];
                if j + 1 == n {
                    ws.sys.add_ground(i, g);
                } else {
                    ws.sys.add_cross(i, j, g);
                }
            }
        }
        let scope = if ws.sweep_only {
            InverseScope::SweepOnly
        } else {
            InverseScope::Full
        };
        ws.bip
            .factor_invert_into(&ws.sys, &mut self.minv, scope, par, should_stop)?;
        self.hh_full = !ws.sweep_only;
        Ok(())
    }

    /// Entry `(x, y)` of the grounded inverse in full node order: the
    /// grounded node's row and column read as 0.
    fn inv(&self, x: usize, y: usize) -> f64 {
        let ground = self.minv.rows();
        if x == ground || y == ground {
            0.0
        } else {
            self.minv[(x, y)]
        }
    }

    /// Whether the current factorization carries the full HH inverse
    /// block (false only after a sweep-scope refactor).
    pub fn hh_full(&self) -> bool {
        self.hh_full
    }

    /// The geometry.
    pub fn grid(&self) -> MeaGrid {
        self.grid
    }

    /// Effective resistance (model impedance) between `H_i` and `V_j`, kΩ.
    pub fn effective_resistance(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.grid.rows() && j < self.grid.cols(),
            "endpoint out of range"
        );
        let a = i;
        let b = self.grid.rows() + j;
        // The solver's hot loop: one branch, as only `b` can be grounded.
        let (bb, ab) = if b < self.minv.rows() {
            (self.minv[(b, b)], self.minv[(a, b)])
        } else {
            (0.0, 0.0)
        };
        self.minv[(a, a)] + bb - 2.0 * ab
    }

    /// The full measured-impedance matrix `Z = F(R)`.
    pub fn solve_all(&self) -> ZMatrix {
        let mut z = ZMatrix::filled(self.grid, 0.0);
        for (i, j) in self.grid.pair_iter() {
            z.set(i, j, self.effective_resistance(i, j));
        }
        z
    }

    /// Wire potentials when `voltage` volts are applied across the pair
    /// `(i, j)` and all other endpoints float — the physical measurement
    /// condition of §II-C, and the source of the `Ua`/`Ub` values.
    pub fn pair_potentials(&self, i: usize, j: usize, voltage: f64) -> PairPotentials {
        assert!(
            self.hh_full,
            "pair_potentials needs the full inverse; refactor without sweep-only scope"
        );
        assert!(
            i < self.grid.rows() && j < self.grid.cols(),
            "endpoint out of range"
        );
        assert!(
            voltage > 0.0 && voltage.is_finite(),
            "voltage must be positive"
        );
        let nodes = self.grid.rows() + self.grid.cols();
        let a = i;
        let b = self.grid.rows() + j;
        // w = L⁺(e_a − e_b) up to the grounded-gauge constant; potentials
        // are gauge-shifted so u(b) = 0 and scaled so u(a) − u(b) = voltage.
        let z = self.effective_resistance(i, j);
        let c = voltage / z;
        let wb = self.inv(b, a) - self.inv(b, b);
        let potentials: Vec<f64> = (0..nodes)
            .map(|x| c * ((self.inv(x, a) - self.inv(x, b)) - wb))
            .collect();
        PairPotentials {
            grid: self.grid,
            i,
            j,
            voltage,
            z_model: z,
            potentials,
        }
    }

    /// Analytic sensitivity of `Z_ij` to every crossing conductance:
    /// `∂Z_ij/∂g_kl = −(u_k − u_l)²`, where `u = L⁺(e_i − e_j)` is the
    /// potential field under *unit* current injection across the pair —
    /// the classical effective-resistance sensitivity theorem
    /// (`dL⁺ = −L⁺·dL·L⁺` with `dL/dg_e = (e_k−e_l)(e_k−e_l)ᵀ`).
    ///
    /// Entry `(k, l)` of the returned matrix is `∂Z_ij/∂g_kl` in
    /// kΩ/millisiemens. This is what the classical inverse methods
    /// (Gauss-Newton, Landweber, linear back projection, Tikhonov) consume;
    /// tests validate it against finite differences.
    pub fn sensitivity(&self, i: usize, j: usize) -> CrossingMatrix {
        assert!(
            self.hh_full,
            "sensitivity needs the full inverse; refactor without sweep-only scope"
        );
        assert!(
            i < self.grid.rows() && j < self.grid.cols(),
            "endpoint out of range"
        );
        let (m, n) = (self.grid.rows(), self.grid.cols());
        let a = i;
        let b = m + j;
        // u_x = M[x,a] − M[x,b] (unit-current potentials, grounded gauge —
        // gauge constants cancel in the (u_k − u_l) differences).
        let u: Vec<f64> = (0..m + n)
            .map(|x| self.inv(x, a) - self.inv(x, b))
            .collect();
        let mut out = CrossingMatrix::filled(self.grid, 0.0);
        for k in 0..m {
            for l in 0..n {
                let du = u[k] - u[m + l];
                out.set(k, l, -(du * du));
            }
        }
        out
    }

    /// Kirchhoff current residual at every wire for a potential vector:
    /// net current into each node, which must vanish at all nodes except
    /// the driven pair (where it is ±I). Used by tests and by the
    /// equation-system cross-validation.
    pub fn current_residuals(&self, p: &PairPotentials) -> Vec<f64> {
        let (m, n) = (self.grid.rows(), self.grid.cols());
        let mut net = vec![0.0; m + n];
        for i in 0..m {
            for j in 0..n {
                let g = self.conductances[self.grid.pair_index(i, j)];
                let flow = g * (p.potentials[i] - p.potentials[m + j]); // H→V current
                net[i] -= flow;
                net[m + j] += flow;
            }
        }
        // Cancel the source/sink injections.
        net[p.i] += p.injected_current();
        net[m + p.j] -= p.injected_current();
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CrossingMatrix;
    use mea_linalg::{conjugate_gradient, CgOptions, CooTriplets};
    use proptest::prelude::*;

    fn uniform(n: usize, r: f64) -> ResistorGrid {
        CrossingMatrix::filled(MeaGrid::square(n), r)
    }

    #[test]
    fn single_crossing_is_the_direct_resistor() {
        let r = uniform(1, 4200.0);
        let fs = ForwardSolver::new(&r).unwrap();
        assert!((fs.effective_resistance(0, 0) - 4200.0).abs() < 1e-9);
    }

    #[test]
    fn two_by_two_uniform_known_value() {
        // Direct R in parallel with the 3R detour: Z = 3R/4.
        let r = uniform(2, 1000.0);
        let fs = ForwardSolver::new(&r).unwrap();
        for (i, j) in MeaGrid::square(2).pair_iter() {
            assert!((fs.effective_resistance(i, j) - 750.0).abs() < 1e-9);
        }
    }

    #[test]
    fn z_below_direct_resistor_and_positive() {
        let mut r = uniform(4, 2000.0);
        r.set(1, 2, 9000.0);
        let fs = ForwardSolver::new(&r).unwrap();
        let z = fs.solve_all();
        for (i, j) in r.grid().pair_iter() {
            assert!(z.get(i, j) > 0.0);
            assert!(z.get(i, j) < r.get(i, j), "parallel paths must lower Z");
        }
    }

    #[test]
    fn anomalous_crossing_raises_its_z_most() {
        let mut r = uniform(5, 2000.0);
        r.set(2, 3, 11000.0);
        let base = ForwardSolver::new(&uniform(5, 2000.0)).unwrap().solve_all();
        let with = ForwardSolver::new(&r).unwrap().solve_all();
        let mut best = (0, 0);
        let mut best_delta = 0.0;
        for (i, j) in r.grid().pair_iter() {
            let delta = with.get(i, j) - base.get(i, j);
            assert!(delta >= -1e-9, "raising R must not lower any Z (Rayleigh)");
            if delta > best_delta {
                best_delta = delta;
                best = (i, j);
            }
        }
        assert_eq!(best, (2, 3), "largest Z increase must be at the anomaly");
    }

    #[test]
    fn pair_potentials_satisfy_boundary_conditions() {
        let r = uniform(3, 1500.0);
        let fs = ForwardSolver::new(&r).unwrap();
        let p = fs.pair_potentials(2, 0, 5.0);
        assert!((p.potential(WireId::Horizontal(2)) - 5.0).abs() < 1e-9);
        assert!(p.potential(WireId::Vertical(0)).abs() < 1e-12);
        // Interior potentials lie strictly between the rails.
        for ua in p.ua() {
            assert!(ua > 0.0 && ua < 5.0);
        }
        for ub in p.ub() {
            assert!(ub > 0.0 && ub < 5.0);
        }
        assert_eq!(p.ua().len(), 2);
        assert_eq!(p.ub().len(), 2);
    }

    #[test]
    fn kirchhoff_residuals_vanish() {
        let mut r = uniform(4, 3000.0);
        r.set(0, 0, 8000.0);
        r.set(3, 2, 10000.0);
        let fs = ForwardSolver::new(&r).unwrap();
        for (i, j) in r.grid().pair_iter() {
            let p = fs.pair_potentials(i, j, 5.0);
            let res = fs.current_residuals(&p);
            for (node, v) in res.iter().enumerate() {
                assert!(v.abs() < 1e-9, "KCL violated at node {node}: {v}");
            }
        }
    }

    #[test]
    fn matches_cg_solution() {
        // Cross-validate the structured factorization against an
        // independent CG solve of the same grounded Laplacian.
        let mut r = uniform(4, 2500.0);
        r.set(1, 1, 7000.0);
        let grid = r.grid();
        let (m, n) = (grid.rows(), grid.cols());
        let fs = ForwardSolver::new(&r).unwrap();
        let dim = m + n - 1;
        let mut t = CooTriplets::new(dim, dim);
        for i in 0..m {
            for j in 0..n {
                let g = 1.0 / r.get(i, j);
                let (a, b) = (i, m + j);
                if a < dim {
                    t.push(a, a, g);
                }
                if b < dim {
                    t.push(b, b, g);
                }
                if a < dim && b < dim {
                    t.push(a, b, -g);
                    t.push(b, a, -g);
                }
            }
        }
        let lap = t.to_csr();
        // Inject 1 mA at H_2, extract at V_1 (node m+1).
        let mut rhs = vec![0.0; dim];
        rhs[2] += 1.0;
        rhs[m + 1] -= 1.0;
        let sol = conjugate_gradient(&lap, &rhs, None, &CgOptions::default()).unwrap();
        let z_cg = sol.x[2] - sol.x[m + 1];
        let z_fs = fs.effective_resistance(2, 1);
        assert!((z_cg - z_fs).abs() / z_fs < 1e-8, "{z_cg} vs {z_fs}");
    }

    #[test]
    fn sensitivity_matches_finite_differences() {
        let mut r = uniform(4, 2500.0);
        r.set(1, 2, 8000.0);
        r.set(3, 0, 4000.0);
        let fs = ForwardSolver::new(&r).unwrap();
        let grid = r.grid();
        for (i, j) in [(0usize, 0usize), (2, 3), (3, 1)] {
            let sens = fs.sensitivity(i, j);
            for (k, l) in grid.pair_iter() {
                // Perturb g_kl and finite-difference Z_ij.
                let g0 = 1.0 / r.get(k, l);
                let h = g0 * 1e-7;
                let mut rp = r.clone();
                rp.set(k, l, 1.0 / (g0 + h));
                let zp = ForwardSolver::new(&rp).unwrap().effective_resistance(i, j);
                let z0 = fs.effective_resistance(i, j);
                let fd = (zp - z0) / h;
                let analytic = sens.get(k, l);
                assert!(
                    (fd - analytic).abs() <= 1e-4 * analytic.abs().max(1e-6),
                    "pair ({i},{j}) wrt g[{k}][{l}]: fd {fd} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn sensitivity_is_nonpositive_and_peaks_at_direct_crossing() {
        // Raising any conductance lowers every effective resistance
        // (Rayleigh monotonicity), and Z_ij is most sensitive to its own
        // direct crossing.
        let r = uniform(5, 3000.0);
        let fs = ForwardSolver::new(&r).unwrap();
        let sens = fs.sensitivity(2, 3);
        let mut best = ((0, 0), 0.0f64);
        for (k, l) in r.grid().pair_iter() {
            let v = sens.get(k, l);
            assert!(v <= 0.0, "sensitivity must be non-positive at ({k},{l})");
            if v.abs() > best.1 {
                best = ((k, l), v.abs());
            }
        }
        assert_eq!(best.0, (2, 3));
    }

    #[test]
    fn rejects_nonphysical_map() {
        let r = CrossingMatrix::filled(MeaGrid::square(2), 0.0);
        assert!(ForwardSolver::new(&r).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_checked() {
        let fs = ForwardSolver::new(&uniform(2, 1000.0)).unwrap();
        let _ = fs.effective_resistance(2, 0);
    }

    #[test]
    fn refactor_is_bitwise_equal_to_new() {
        let mut a = uniform(3, 1500.0);
        a.set(0, 2, 7300.0);
        let mut b = uniform(3, 2500.0);
        b.set(1, 1, 400.0);
        // Refactoring a solver built on `a` onto map `b` must give bits
        // identical to constructing a fresh solver on `b`.
        let mut ws = ForwardWorkspace::new(a.grid());
        let mut fs = ForwardSolver::with_workspace(&a, &mut ws).unwrap();
        fs.refactor(&b, &mut ws).unwrap();
        let fresh = ForwardSolver::new(&b).unwrap();
        assert_eq!(fs.minv.as_slice().len(), fresh.minv.as_slice().len());
        for (x, y) in fs.minv.as_slice().iter().zip(fresh.minv.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "minv bits diverge after refactor");
        }
        // And refactoring back to `a` matches a fresh `a` solver too.
        fs.refactor(&a, &mut ws).unwrap();
        let fresh_a = ForwardSolver::new(&a).unwrap();
        for (x, y) in fs.minv.as_slice().iter().zip(fresh_a.minv.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "round-trip refactor diverges");
        }
    }

    #[test]
    fn refactor_rejects_geometry_mismatch_and_nonphysical() {
        let mut ws = ForwardWorkspace::new(MeaGrid::square(2));
        let mut fs = ForwardSolver::with_workspace(&uniform(2, 1000.0), &mut ws).unwrap();
        let wrong = uniform(3, 1000.0);
        assert!(fs.refactor(&wrong, &mut ws).is_err());
        let dead = CrossingMatrix::filled(MeaGrid::square(2), 0.0);
        assert!(fs.refactor(&dead, &mut ws).is_err());
    }

    fn random_map(n: usize, seed: u64) -> ResistorGrid {
        random_map_on(MeaGrid::square(n), seed)
    }

    fn random_map_on(grid: MeaGrid, seed: u64) -> ResistorGrid {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            2000.0 + 9000.0 * ((state >> 11) as f64 / (1u64 << 53) as f64)
        };
        let mut r = CrossingMatrix::filled(grid, 0.0);
        for (i, j) in grid.pair_iter() {
            r.set(i, j, next());
        }
        r
    }

    /// The grounded Laplacian of `r` (ground: the last vertical wire),
    /// assembled densely here and inverted by dense Cholesky — a reference
    /// that shares no code with the structured factorization.
    fn dense_reference(r: &ResistorGrid) -> DenseMatrix {
        let (m, n) = (r.grid().rows(), r.grid().cols());
        let dim = m + n - 1;
        let mut lap = DenseMatrix::zeros(dim, dim);
        for i in 0..m {
            for j in 0..n {
                let g = 1.0 / r.get(i, j);
                let b = m + j;
                lap[(i, i)] += g;
                if b < dim {
                    lap[(b, b)] += g;
                    lap[(i, b)] -= g;
                    lap[(b, i)] -= g;
                }
            }
        }
        lap.cholesky().expect("grounded Laplacian is SPD").inverse()
    }

    #[test]
    fn structured_path_matches_dense_within_tolerance() {
        // Squares n = 4–16 plus degenerate and oblong shapes, in both
        // inverse scopes: every entry the scope computes, and every
        // effective resistance, agree with the dense reference to 1e-9
        // relative (the roundoff differs, the physics must not).
        let shapes = [
            (4, 4),
            (6, 6),
            (9, 9),
            (12, 12),
            (16, 16),
            (1, 1),
            (1, 5),
            (5, 1),
            (2, 7),
            (7, 2),
            (9, 4),
        ];
        for (m, n) in shapes {
            let grid = MeaGrid::new(m, n);
            let r = random_map_on(grid, 0x5EED ^ (m * 100 + n) as u64);
            let dense = dense_reference(&r);
            let dim = m + n - 1;
            let scale = dense.norm_max();
            let at = |x: usize, y: usize| {
                if x < dim && y < dim {
                    dense[(x, y)]
                } else {
                    0.0
                }
            };
            for sweep_only in [false, true] {
                let mut ws = ForwardWorkspace::new(grid);
                ws.set_sweep_only(sweep_only);
                let fs = ForwardSolver::with_workspace(&r, &mut ws).unwrap();
                assert_eq!(fs.hh_full(), !sweep_only);
                for x in 0..dim {
                    for y in 0..dim {
                        let got = fs.minv[(x, y)];
                        if sweep_only && x < m && y < m && x != y {
                            assert_eq!(got, 0.0, "{m}×{n}: HH off-diagonal ({x},{y})");
                            continue;
                        }
                        assert!(
                            (got - dense[(x, y)]).abs() <= 1e-9 * scale,
                            "{m}×{n} sweep_only={sweep_only} entry ({x},{y}): {got} vs {}",
                            dense[(x, y)]
                        );
                    }
                }
                for (i, j) in grid.pair_iter() {
                    let (a, b) = (i, m + j);
                    let zd = at(a, a) + at(b, b) - 2.0 * at(a, b);
                    let zs = fs.effective_resistance(i, j);
                    assert!(
                        (zs - zd).abs() <= 1e-9 * zd,
                        "{m}×{n} sweep_only={sweep_only} pair ({i},{j}): {zs} vs dense {zd}"
                    );
                }
            }
        }
    }

    #[test]
    fn structured_path_is_deterministic_per_path() {
        // Two refactors of the same map give identical bits.
        let r = random_map(8, 99);
        let mut ws = ForwardWorkspace::new(r.grid());
        let a = ForwardSolver::with_workspace(&r, &mut ws).unwrap();
        let b = ForwardSolver::with_workspace(&r, &mut ws).unwrap();
        for (x, y) in a.minv.as_slice().iter().zip(b.minv.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn sweep_only_scope_answers_resistance_but_guards_full_queries() {
        let r = random_map(6, 1234);
        let mut ws_full = ForwardWorkspace::new(r.grid());
        let full = ForwardSolver::with_workspace(&r, &mut ws_full).unwrap();
        let mut ws = ForwardWorkspace::new(r.grid());
        ws.set_sweep_only(true);
        let sweep = ForwardSolver::with_workspace(&r, &mut ws).unwrap();
        assert!(!sweep.hh_full());
        for (i, j) in r.grid().pair_iter() {
            // The hot-path quantity is bitwise shared between scopes.
            assert_eq!(
                sweep.effective_resistance(i, j).to_bits(),
                full.effective_resistance(i, j).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs the full inverse")]
    fn sweep_only_scope_panics_on_pair_potentials() {
        let r = random_map(5, 77);
        let mut ws = ForwardWorkspace::new(r.grid());
        ws.set_sweep_only(true);
        let fs = ForwardSolver::with_workspace(&r, &mut ws).unwrap();
        let _ = fs.pair_potentials(0, 0, 5.0);
    }

    #[test]
    fn supervised_refactor_cancels_mid_factorization() {
        let r = random_map(32, 15);
        let mut ws = ForwardWorkspace::new(r.grid());
        let mut fs = ForwardSolver::with_workspace(&r, &mut ws).unwrap();
        let always = || true;
        let err = fs
            .refactor_supervised(&r, &mut ws, &Sequential, Some(&always))
            .unwrap_err();
        assert_eq!(err, LinalgError::Cancelled);
        // Recover by refactoring without the stop condition.
        fs.refactor(&r, &mut ws).unwrap();
        let _ = fs.effective_resistance(0, 0);
    }

    proptest! {
        /// Z = F(R) stays within physical bounds on random maps, and the
        /// injected-current bookkeeping is consistent.
        #[test]
        fn prop_forward_bounds(n in 1usize..6, seed in any::<u64>()) {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                2000.0 + 9000.0 * ((state >> 11) as f64 / (1u64 << 53) as f64)
            };
            let grid = MeaGrid::square(n);
            let mut r = CrossingMatrix::filled(grid, 0.0);
            for (i, j) in grid.pair_iter() {
                r.set(i, j, next());
            }
            let fs = ForwardSolver::new(&r).unwrap();
            let z = fs.solve_all();
            for (i, j) in grid.pair_iter() {
                prop_assert!(z.get(i, j) > 0.0);
                prop_assert!(z.get(i, j) <= r.get(i, j) + 1e-9);
                let p = fs.pair_potentials(i, j, 5.0);
                prop_assert!((p.z_model - z.get(i, j)).abs() < 1e-9);
                let res = fs.current_residuals(&p);
                for v in res {
                    prop_assert!(v.abs() < 1e-8);
                }
            }
        }
    }
}
