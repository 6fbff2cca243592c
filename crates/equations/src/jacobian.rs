//! Analytic sparse Jacobian of the full joint-constraint system.
//!
//! Each of the `2n³` equations is `Σ sign·(p(from) − p(to))/R_ab − rhs`
//! over the `(2n−1)n²` unknowns, so its partial derivatives are local:
//!
//! * w.r.t. an intermediate voltage `Ua`/`Ub` appearing in a term:
//!   `±sign/R_ab`,
//! * w.r.t. the term's own resistance `R_ab`:
//!   `−sign·(p(from) − p(to))/R_ab²`.
//!
//! A row touches `O(n)` unknowns (its pair's intermediates plus the
//! resistors on two wires), so the Jacobian is CSR-sparse with `Θ(n⁴)`
//! entries total — the object a downstream whole-system solver (see
//! `parma::full_newton`) iterates with. Validated against finite
//! differences by test.
//!
//! # Symbolic/numeric split
//!
//! The *sparsity structure* of this Jacobian depends only on the device
//! topology — which unknowns each equation touches — never on the iterate
//! `x`. [`JacobianTemplate::analyze`] performs the symbolic phase once per
//! topology (position gathering, the triplet sort, slot resolution);
//! [`JacobianTemplate::numeric`] then refills an existing matrix's value
//! buffer in place, allocation- and sort-free, on every Newton iteration.
//! [`jacobian`] remains as the one-shot convenience wrapper (analyze +
//! one numeric fill).

use crate::constraint::{Equation, PotentialRef};
use crate::system::EquationSystem;
use crate::unknowns::{Unknown, UnknownIndex};
use mea_linalg::{CooTriplets, CsrMatrix, CsrPattern};

fn add_equation_row(
    triplets: &mut CooTriplets,
    row: usize,
    eq: &Equation,
    index: &UnknownIndex,
    x: &[f64],
) {
    let (i, j) = (eq.pair.0 as usize, eq.pair.1 as usize);
    let potential = |p: PotentialRef| -> f64 {
        match p {
            PotentialRef::Applied => eq.voltage,
            PotentialRef::Ground => 0.0,
            PotentialRef::Ua(kp) => {
                let k = UnknownIndex::k_from_prime(j, kp as usize);
                x[index.index_of(Unknown::Ua { i, j, k })]
            }
            PotentialRef::Ub(mp) => {
                let m = UnknownIndex::k_from_prime(i, mp as usize);
                x[index.index_of(Unknown::Ub { i, j, m })]
            }
        }
    };
    let unknown_col = |p: PotentialRef| -> Option<usize> {
        match p {
            PotentialRef::Applied | PotentialRef::Ground => None,
            PotentialRef::Ua(kp) => {
                let k = UnknownIndex::k_from_prime(j, kp as usize);
                Some(index.index_of(Unknown::Ua { i, j, k }))
            }
            PotentialRef::Ub(mp) => {
                let m = UnknownIndex::k_from_prime(i, mp as usize);
                Some(index.index_of(Unknown::Ub { i, j, m }))
            }
        }
    };
    for t in &eq.terms {
        let (a, b) = (t.resistor.0 as usize, t.resistor.1 as usize);
        let r_col = index.index_of(Unknown::R { i: a, j: b });
        let r_val = x[r_col];
        let sign = t.sign as f64;
        let dp = potential(t.from) - potential(t.to);
        // ∂/∂R_ab of sign·dp/R = −sign·dp/R².
        triplets.push(row, r_col, -sign * dp / (r_val * r_val));
        // ∂/∂p(from) = +sign/R; ∂/∂p(to) = −sign/R.
        if let Some(col) = unknown_col(t.from) {
            triplets.push(row, col, sign / r_val);
        }
        if let Some(col) = unknown_col(t.to) {
            triplets.push(row, col, -sign / r_val);
        }
    }
}

/// Where a term's endpoint potential comes from at numeric-fill time:
/// a compile-once constant (applied voltage, ground) or a read of `x`.
#[derive(Clone, Copy, Debug)]
enum PotSource {
    Const(f64),
    Unknown(usize),
}

impl PotSource {
    #[inline]
    fn read(self, x: &[f64]) -> f64 {
        match self {
            PotSource::Const(v) => v,
            PotSource::Unknown(col) => x[col],
        }
    }
}

/// One precompiled flow term: everything [`JacobianTemplate::numeric`]
/// needs to scatter the term's three partial derivatives without lookups.
#[derive(Clone, Copy, Debug)]
struct TermOp {
    /// Column of the term's resistance unknown (`x[r_col]` is `R_ab`).
    r_col: usize,
    /// Value slot of the `∂/∂R_ab` entry.
    r_slot: usize,
    /// Potential sources of the term's two ends.
    from: PotSource,
    to: PotSource,
    /// Value slot of `∂/∂p(from)` when `from` is an unknown.
    from_slot: Option<usize>,
    /// Value slot of `∂/∂p(to)` when `to` is an unknown.
    to_slot: Option<usize>,
    /// The term's `±1` orientation.
    sign: f64,
}

/// The symbolic structure of a system's Jacobian, computed once per
/// topology: the frozen CSR pattern plus every term's partial derivatives
/// pre-resolved to value-buffer slots.
///
/// One template serves every iteration of every solve over the same
/// topology — the Newton loop calls [`Self::numeric`] with fresh iterates
/// and reuses the same matrix storage throughout.
#[derive(Clone, Debug)]
pub struct JacobianTemplate {
    unknowns: usize,
    pattern: CsrPattern,
    ops: Vec<TermOp>,
}

impl JacobianTemplate {
    /// The symbolic phase: gathers every structurally-possible entry of
    /// `∂residual/∂x`, sorts it into a frozen [`CsrPattern`] and resolves
    /// each term's three contributions to value slots. `O(nnz log nnz)`,
    /// run once per topology.
    pub fn analyze(sys: &EquationSystem) -> Self {
        let index = sys.unknown_index();
        let equations = sys.equations();
        // Pass 1: structural positions (with duplicates; the pattern
        // constructor collapses them).
        let mut positions: Vec<(usize, usize)> = Vec::new();
        for (row, eq) in equations.iter().enumerate() {
            for_each_term_cols(eq, index, |r_col, from_col, to_col| {
                positions.push((row, r_col));
                if let Some(c) = from_col {
                    positions.push((row, c));
                }
                if let Some(c) = to_col {
                    positions.push((row, c));
                }
            });
        }
        let pattern = CsrPattern::from_positions(equations.len(), index.len(), &positions)
            .expect("equation/unknown indices are in bounds by construction");
        // Pass 2: resolve every term's slots through the frozen pattern.
        let mut ops = Vec::new();
        for (row, eq) in equations.iter().enumerate() {
            let voltage = eq.voltage;
            for t in &eq.terms {
                let (a, b) = (t.resistor.0 as usize, t.resistor.1 as usize);
                let (i, j) = (eq.pair.0 as usize, eq.pair.1 as usize);
                let r_col = index.index_of(Unknown::R { i: a, j: b });
                let source = |p: PotentialRef| -> PotSource {
                    match p {
                        PotentialRef::Applied => PotSource::Const(voltage),
                        PotentialRef::Ground => PotSource::Const(0.0),
                        PotentialRef::Ua(kp) => {
                            let k = UnknownIndex::k_from_prime(j, kp as usize);
                            PotSource::Unknown(index.index_of(Unknown::Ua { i, j, k }))
                        }
                        PotentialRef::Ub(mp) => {
                            let m = UnknownIndex::k_from_prime(i, mp as usize);
                            PotSource::Unknown(index.index_of(Unknown::Ub { i, j, m }))
                        }
                    }
                };
                let from = source(t.from);
                let to = source(t.to);
                let slot_of = |s: PotSource| -> Option<usize> {
                    match s {
                        PotSource::Const(_) => None,
                        PotSource::Unknown(col) => Some(
                            pattern
                                .slot(row, col)
                                .expect("pass 1 recorded this position"),
                        ),
                    }
                };
                ops.push(TermOp {
                    r_col,
                    r_slot: pattern
                        .slot(row, r_col)
                        .expect("pass 1 recorded this position"),
                    from_slot: slot_of(from),
                    to_slot: slot_of(to),
                    from,
                    to,
                    sign: t.sign as f64,
                });
            }
        }
        JacobianTemplate {
            unknowns: index.len(),
            pattern,
            ops,
        }
    }

    /// The frozen sparsity structure.
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// Number of unknowns (Jacobian columns).
    pub fn unknowns(&self) -> usize {
        self.unknowns
    }

    /// An all-zero matrix with the template's structure, ready for
    /// [`Self::numeric`] fills.
    pub fn matrix_zeroed(&self) -> CsrMatrix {
        self.pattern.matrix_zeroed()
    }

    /// The numeric phase: refills `jac`'s value buffer with
    /// `∂residual/∂x` evaluated at `x`, in place and allocation-free.
    /// `jac` must share the template's structure (create it once with
    /// [`Self::matrix_zeroed`]).
    pub fn numeric(&self, x: &[f64], jac: &mut CsrMatrix) {
        assert_eq!(x.len(), self.unknowns, "unknown vector length mismatch");
        assert!(
            self.pattern.matches(jac),
            "matrix structure does not match the template"
        );
        let values = jac.values_mut();
        values.fill(0.0);
        for op in &self.ops {
            let r_val = x[op.r_col];
            let dp = op.from.read(x) - op.to.read(x);
            // ∂/∂R_ab of sign·dp/R = −sign·dp/R².
            values[op.r_slot] += -op.sign * dp / (r_val * r_val);
            // ∂/∂p(from) = +sign/R; ∂/∂p(to) = −sign/R.
            if let Some(slot) = op.from_slot {
                values[slot] += op.sign / r_val;
            }
            if let Some(slot) = op.to_slot {
                values[slot] -= op.sign / r_val;
            }
        }
    }

    /// Convenience: a freshly allocated Jacobian at `x` (one
    /// [`Self::matrix_zeroed`] plus one [`Self::numeric`] fill).
    pub fn jacobian_at(&self, x: &[f64]) -> CsrMatrix {
        let mut jac = self.matrix_zeroed();
        self.numeric(x, &mut jac);
        jac
    }
}

/// The global columns one flow term touches: its resistance column plus
/// the optional from/to potential columns (the structural support of the
/// symbolic pass).
fn term_columns(
    eq: &Equation,
    t: &crate::constraint::FlowTerm,
    index: &UnknownIndex,
) -> (usize, Option<usize>, Option<usize>) {
    let (i, j) = (eq.pair.0 as usize, eq.pair.1 as usize);
    let unknown_col = |p: PotentialRef| -> Option<usize> {
        match p {
            PotentialRef::Applied | PotentialRef::Ground => None,
            PotentialRef::Ua(kp) => {
                let k = UnknownIndex::k_from_prime(j, kp as usize);
                Some(index.index_of(Unknown::Ua { i, j, k }))
            }
            PotentialRef::Ub(mp) => {
                let m = UnknownIndex::k_from_prime(i, mp as usize);
                Some(index.index_of(Unknown::Ub { i, j, m }))
            }
        }
    };
    let (a, b) = (t.resistor.0 as usize, t.resistor.1 as usize);
    let r_col = index.index_of(Unknown::R { i: a, j: b });
    (r_col, unknown_col(t.from), unknown_col(t.to))
}

/// Visits each term of `eq` with its resistance column and optional
/// from/to potential columns (the structural support of the row).
fn for_each_term_cols(
    eq: &Equation,
    index: &UnknownIndex,
    mut visit: impl FnMut(usize, Option<usize>, Option<usize>),
) {
    for t in &eq.terms {
        let (r_col, from_col, to_col) = term_columns(eq, t, index);
        visit(r_col, from_col, to_col);
    }
}

/// Assembles the sparse Jacobian `∂residual/∂x` of a system at the
/// unknown vector `x` (layout per [`UnknownIndex`]): one row per equation
/// in system order.
///
/// One-shot path: re-derives the symbolic structure every call. Iterative
/// solvers should [`JacobianTemplate::analyze`] once and call
/// [`JacobianTemplate::numeric`] per iteration instead.
pub fn jacobian(sys: &EquationSystem, x: &[f64]) -> CsrMatrix {
    let index = sys.unknown_index();
    assert_eq!(x.len(), index.len(), "unknown vector length mismatch");
    let mut triplets = CooTriplets::new(sys.equations().len(), index.len());
    for (row, eq) in sys.equations().iter().enumerate() {
        add_equation_row(&mut triplets, row, eq, index, x);
    }
    triplets.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_model::{AnomalyConfig, ForwardSolver, MeaGrid};

    fn setup(n: usize, seed: u64) -> (EquationSystem, Vec<f64>) {
        let (truth, _) = AnomalyConfig::default().generate(MeaGrid::square(n), seed);
        let z = ForwardSolver::new(&truth).unwrap().solve_all();
        let sys = EquationSystem::assemble(&z, 5.0);
        let x = sys.exact_unknowns_for(&truth).unwrap();
        (sys, x)
    }

    #[test]
    fn jacobian_shape_and_sparsity() {
        let (sys, x) = setup(4, 1);
        let jac = jacobian(&sys, &x);
        assert_eq!(jac.rows(), 2 * 64); // 2n³
        assert_eq!(jac.cols(), 7 * 16); // (2n−1)n²
        jac.validate().unwrap();
        // Each row touches O(n) unknowns — far sparser than dense.
        assert!(jac.nnz() < jac.rows() * 3 * 4);
        assert!(jac.nnz() > jac.rows()); // every equation has entries
    }

    #[test]
    fn matches_finite_differences() {
        let (sys, x) = setup(3, 2);
        let jac = jacobian(&sys, &x);
        let f0 = sys.residuals(&x);
        // Probe a spread of columns.
        for col in (0..sys.unknown_index().len()).step_by(5) {
            let h = x[col].abs().max(1.0) * 1e-7;
            let mut xp = x.clone();
            xp[col] += h;
            let fp = sys.residuals(&xp);
            for row in 0..f0.len() {
                let fd = (fp[row] - f0[row]) / h;
                let an = jac.get(row, col);
                assert!(
                    (fd - an).abs() <= 1e-4 * an.abs().max(1e-8),
                    "row {row} col {col}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn residual_is_zero_and_jacobian_full_column_rank_at_truth() {
        // At the exact solution the residual vanishes; the Jacobian's
        // normal matrix must be nonsingular for the system to determine
        // the unknowns locally (the well-posedness Parma relies on).
        let (sys, x) = setup(3, 3);
        assert!(sys.max_residual(&x) < 1e-9);
        let jac = jacobian(&sys, &x);
        // Probe: JᵀJ applied to a random vector is nonzero for several
        // directions (cheap rank smoke test; the full-Newton integration
        // test exercises actual solvability).
        for s in 0..5u64 {
            let v: Vec<f64> = (0..jac.cols())
                .map(|i| {
                    ((i as u64).wrapping_mul(2654435761).wrapping_add(s) % 97) as f64 / 97.0 - 0.5
                })
                .collect();
            let jv = jac.mul_vec(&v);
            assert!(mea_linalg::vec_ops::norm2(&jv) > 1e-12);
        }
    }

    #[test]
    fn unknown_vector_length_checked() {
        let (sys, _) = setup(2, 4);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| jacobian(&sys, &[1.0])));
        assert!(result.is_err());
    }

    #[test]
    fn template_matches_one_shot_assembly() {
        for (n, seed) in [(3usize, 2u64), (4, 1)] {
            let (sys, x) = setup(n, seed);
            let one_shot = jacobian(&sys, &x);
            let template = JacobianTemplate::analyze(&sys);
            let mut refilled = template.matrix_zeroed();
            template.numeric(&x, &mut refilled);
            refilled.validate().unwrap();
            assert_eq!(
                (refilled.rows(), refilled.cols()),
                (one_shot.rows(), one_shot.cols())
            );
            // The template keeps structurally-possible entries that a
            // particular x may cancel, so compare value-by-value through
            // the one-shot support and require the extras to be zero.
            assert!(refilled.nnz() >= one_shot.nnz());
            for r in 0..one_shot.rows() {
                for (c, v) in refilled.row_entries(r) {
                    assert_eq!(
                        one_shot.get(r, c),
                        v,
                        "row {r} col {c} differs from one-shot assembly"
                    );
                }
            }
        }
    }

    #[test]
    fn template_numeric_tracks_the_iterate() {
        // Same template, different x: values must follow, structure must
        // stay frozen (nnz and pattern identical across fills).
        let (sys, x) = setup(3, 5);
        let template = JacobianTemplate::analyze(&sys);
        let mut jac = template.matrix_zeroed();
        template.numeric(&x, &mut jac);
        let first = jac.clone();
        let x2: Vec<f64> = x.iter().map(|v| v * 1.25).collect();
        template.numeric(&x2, &mut jac);
        assert_eq!(jac.nnz(), first.nnz());
        assert!(template.pattern().matches(&jac));
        assert_ne!(jac, first, "values must change with the iterate");
        // And refilling with the original x restores the first fill
        // bitwise — the refill has no state.
        template.numeric(&x, &mut jac);
        assert_eq!(jac, first);
    }

    #[test]
    fn template_rejects_foreign_matrix_and_bad_lengths() {
        let (sys, x) = setup(2, 6);
        let template = JacobianTemplate::analyze(&sys);
        let wrong = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = mea_linalg::CsrMatrix::zeros(1, 1);
            template.numeric(&x, &mut m)
        }));
        assert!(wrong.is_err(), "foreign structure must be rejected");
        let short = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = template.matrix_zeroed();
            template.numeric(&[1.0], &mut m)
        }));
        assert!(short.is_err(), "short unknown vector must be rejected");
    }

    #[test]
    fn template_matches_finite_differences() {
        let (sys, x) = setup(3, 7);
        let template = JacobianTemplate::analyze(&sys);
        let jac = template.jacobian_at(&x);
        let f0 = sys.residuals(&x);
        for col in (0..sys.unknown_index().len()).step_by(7) {
            let h = x[col].abs().max(1.0) * 1e-7;
            let mut xp = x.clone();
            xp[col] += h;
            let fp = sys.residuals(&xp);
            for row in 0..f0.len() {
                let fd = (fp[row] - f0[row]) / h;
                let an = jac.get(row, col);
                assert!(
                    (fd - an).abs() <= 1e-4 * an.abs().max(1e-8),
                    "row {row} col {col}: fd {fd} vs analytic {an}"
                );
            }
        }
    }
}
