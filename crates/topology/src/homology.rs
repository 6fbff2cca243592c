//! Homology groups `Hᵏ = Dᵏ/Bᵏ` and Betti numbers over GF(2).
//!
//! Per §III-B of the paper, `Dᵏ = ker ∂ₖ` (cycle group), `Bᵏ = im ∂ₖ₊₁`
//! (boundary group), and by Lagrange's theorem on the mod-2 groups
//! `βₖ = rank Hᵏ = rank Dᵏ − rank Bᵏ = (n_k − rank ∂ₖ) − rank ∂ₖ₊₁`.
//!
//! `β₁` of a circuit graph is Maxwell's cyclomatic number `|E| − |V| + c`
//! (with `c` connected components): the number of independent Kirchhoff
//! voltage loops, and hence the degree of intrinsic parallelism that Parma
//! exploits.

use crate::boundary::BoundaryOperator;
use crate::chain::Chain;
use crate::complex::SimplicialComplex;

/// Summary of one homology group `Hᵏ`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HomologyGroup {
    /// Dimension k.
    pub k: usize,
    /// rank Dᵏ = dim ker ∂ₖ.
    pub cycle_rank: usize,
    /// rank Bᵏ = dim im ∂ₖ₊₁.
    pub boundary_rank: usize,
    /// Betti number βₖ = cycle_rank − boundary_rank. Hᵏ is an elementary
    /// abelian 2-group of order `2^βₖ` (the paper's `βₖ = log |Hᵏ|`).
    pub betti: usize,
    /// Representative cycles for a set of generators of Hᵏ: a subset of a
    /// kernel basis of ∂ₖ whose classes are independent modulo Bᵏ.
    pub generators: Vec<Chain>,
}

/// Computes all homology groups `H⁰..H^dim` of a complex, with generator
/// representatives.
pub fn homology(complex: &SimplicialComplex) -> Vec<HomologyGroup> {
    let Some(dim) = complex.dim() else {
        return Vec::new();
    };
    let ops: Vec<BoundaryOperator> = (0..=dim + 1)
        .map(|k| BoundaryOperator::new(complex, k))
        .collect();
    let mut out = Vec::with_capacity(dim + 1);
    for k in 0..=dim {
        let cycle_rank = ops[k].nullity();
        let boundary_rank = ops[k + 1].rank();
        let betti = cycle_rank - boundary_rank;
        let generators = homology_generators(complex, &ops[k], &ops[k + 1], betti);
        out.push(HomologyGroup {
            k,
            cycle_rank,
            boundary_rank,
            betti,
            generators,
        });
    }
    out
}

/// Just the Betti numbers `β₀..β_dim` (cheaper: no generator extraction).
pub fn betti_numbers(complex: &SimplicialComplex) -> Vec<usize> {
    let Some(dim) = complex.dim() else {
        return Vec::new();
    };
    let ranks: Vec<usize> = (0..=dim + 1)
        .map(|k| BoundaryOperator::new(complex, k).rank())
        .collect();
    (0..=dim)
        .map(|k| {
            let nullity = complex.count(k) - ranks[k];
            nullity - ranks[k + 1]
        })
        .collect()
}

/// Euler characteristic `χ = Σ (−1)ᵏ n_k`. The Euler–Poincaré theorem says
/// this also equals `Σ (−1)ᵏ βₖ` — used as a property-test invariant.
pub fn euler_characteristic(complex: &SimplicialComplex) -> isize {
    let Some(dim) = complex.dim() else { return 0 };
    (0..=dim)
        .map(|k| {
            let n = complex.count(k) as isize;
            if k % 2 == 0 {
                n
            } else {
                -n
            }
        })
        .sum()
}

/// Extracts `betti` kernel-basis elements of `∂ₖ` that are independent
/// modulo `im ∂ₖ₊₁`, greedily over GF(2).
fn homology_generators(
    complex: &SimplicialComplex,
    dk: &BoundaryOperator,
    dk1: &BoundaryOperator,
    betti: usize,
) -> Vec<Chain> {
    if betti == 0 {
        return Vec::new();
    }
    let kernel = dk.cycle_basis(complex);
    let n_k = complex.count(dk.k());
    // Span = columns of ∂ₖ₊₁ plus chosen generators; test independence by
    // incremental Gaussian elimination over vectors of length n_k.
    let words = n_k.div_ceil(64).max(1);
    // Row-reduce basis of the current span, stored as packed vectors with a
    // pivot position each.
    let mut span: Vec<(usize, Vec<u64>)> = Vec::new(); // (pivot, vector)
    let reduce = |mut v: Vec<u64>, span: &Vec<(usize, Vec<u64>)>| -> Option<(usize, Vec<u64>)> {
        for (pivot, basis_vec) in span {
            if (v[pivot / 64] >> (pivot % 64)) & 1 == 1 {
                for (a, b) in v.iter_mut().zip(basis_vec) {
                    *a ^= b;
                }
            }
        }
        // Find the new pivot, if nonzero.
        for i in 0..n_k {
            if (v[i / 64] >> (i % 64)) & 1 == 1 {
                return Some((i, v));
            }
        }
        None
    };
    // Seed the span with the boundary group's generators (the columns of
    // ∂ₖ₊₁, i.e. boundaries of (k+1)-simplices).
    let m = dk1.matrix();
    for col in 0..m.cols() {
        let mut v = vec![0u64; words];
        for row in 0..m.rows() {
            if m.get(row, col) {
                v[row / 64] ^= 1 << (row % 64);
            }
        }
        if let Some(entry) = reduce(v, &span) {
            span.push(entry);
        }
    }
    let mut gens = Vec::with_capacity(betti);
    for cycle in kernel {
        if gens.len() == betti {
            break;
        }
        let v = cycle.bits().to_vec();
        if let Some(entry) = reduce(v, &span) {
            span.push(entry);
            gens.push(cycle);
        }
    }
    debug_assert_eq!(gens.len(), betti);
    gens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::Simplex;
    use proptest::prelude::*;

    fn complex_of(maximal: &[&[u32]]) -> SimplicialComplex {
        SimplicialComplex::from_maximal_simplices(
            maximal.iter().map(|vs| Simplex::new(vs.iter().copied())),
        )
        .unwrap()
    }

    #[test]
    fn point_has_trivial_homology() {
        let c = complex_of(&[&[0]]);
        assert_eq!(betti_numbers(&c), vec![1]);
        assert_eq!(euler_characteristic(&c), 1);
    }

    #[test]
    fn two_points_have_beta0_two() {
        let c = complex_of(&[&[0], &[1]]);
        assert_eq!(betti_numbers(&c), vec![2]);
    }

    #[test]
    fn hollow_triangle_is_a_circle() {
        let c = complex_of(&[&[0, 1], &[1, 2], &[0, 2]]);
        assert_eq!(betti_numbers(&c), vec![1, 1]);
        assert_eq!(euler_characteristic(&c), 0);
    }

    #[test]
    fn filled_triangle_is_contractible() {
        let c = complex_of(&[&[0, 1, 2]]);
        assert_eq!(betti_numbers(&c), vec![1, 0, 0]);
        assert_eq!(euler_characteristic(&c), 1);
    }

    #[test]
    fn sphere_tetrahedron_boundary() {
        // Boundary of a tetrahedron = triangulated 2-sphere: β = (1, 0, 1).
        let c = complex_of(&[&[0, 1, 2], &[0, 1, 3], &[0, 2, 3], &[1, 2, 3]]);
        assert_eq!(betti_numbers(&c), vec![1, 0, 1]);
        assert_eq!(euler_characteristic(&c), 2);
    }

    #[test]
    fn figure_eight_has_two_holes() {
        // Two hollow triangles sharing vertex 0.
        let c = complex_of(&[&[0, 1], &[1, 2], &[0, 2], &[0, 3], &[3, 4], &[0, 4]]);
        assert_eq!(betti_numbers(&c), vec![1, 2]);
    }

    #[test]
    fn torus_mod2_betti() {
        // Császár 7-vertex triangulation of the torus: triangles
        // {i, i+1, i+3} and {i, i+2, i+3} mod 7. β over GF(2) = (1, 2, 1).
        let tris: Vec<Simplex> = (0u32..7)
            .flat_map(|i| {
                [
                    Simplex::new([i, (i + 1) % 7, (i + 3) % 7]),
                    Simplex::new([i, (i + 2) % 7, (i + 3) % 7]),
                ]
            })
            .collect();
        let c = SimplicialComplex::from_maximal_simplices(tris).unwrap();
        assert_eq!(c.count(0), 7);
        assert_eq!(c.count(1), 21);
        assert_eq!(c.count(2), 14);
        assert_eq!(euler_characteristic(&c), 0);
        assert_eq!(betti_numbers(&c), vec![1, 2, 1]);
    }

    #[test]
    fn cyclomatic_number_of_graphs() {
        // For a connected graph β₁ = |E| − |V| + 1 (Maxwell).
        // K4 skeleton: 4 vertices, 6 edges → β₁ = 3.
        let c = complex_of(&[&[0, 1], &[0, 2], &[0, 3], &[1, 2], &[1, 3], &[2, 3]]);
        assert_eq!(betti_numbers(&c), vec![1, 3]);
    }

    #[test]
    fn generators_are_cycles_not_boundaries() {
        let c = complex_of(&[&[0, 1], &[1, 2], &[0, 2], &[0, 3], &[3, 4], &[0, 4]]);
        let h = homology(&c);
        assert_eq!(h[1].betti, 2);
        assert_eq!(h[1].generators.len(), 2);
        let d1 = BoundaryOperator::new(&c, 1);
        let d2 = BoundaryOperator::new(&c, 2);
        for g in &h[1].generators {
            assert!(d1.is_cycle(g));
            assert!(!d2.is_boundary(g));
        }
    }

    #[test]
    fn generator_classes_are_independent() {
        let c = complex_of(&[&[0, 1], &[1, 2], &[0, 2], &[0, 3], &[3, 4], &[0, 4]]);
        let h = homology(&c);
        let d2 = BoundaryOperator::new(&c, 2);
        // The sum of the two generators must also not be a boundary.
        let sum = h[1].generators[0].add(&h[1].generators[1]);
        assert!(!d2.is_boundary(&sum));
    }

    #[test]
    fn homology_of_empty_complex() {
        assert!(homology(&SimplicialComplex::empty()).is_empty());
        assert!(betti_numbers(&SimplicialComplex::empty()).is_empty());
        assert_eq!(euler_characteristic(&SimplicialComplex::empty()), 0);
    }

    #[test]
    fn beta0_equals_connected_components() {
        let c = complex_of(&[&[0, 1], &[2, 3], &[4]]);
        assert_eq!(betti_numbers(&c)[0], 3);
        assert_eq!(c.connected_components(), 3);
    }

    proptest! {
        /// Euler–Poincaré: χ = Σ(−1)ᵏ n_k = Σ(−1)ᵏ βₖ on random graphs.
        #[test]
        fn prop_euler_poincare_on_random_graphs(
            n_vertices in 1u32..12,
            edge_seeds in proptest::collection::vec((0u32..12, 0u32..12), 0..30),
        ) {
            let mut maximal: Vec<Simplex> =
                (0..n_vertices).map(Simplex::vertex).collect();
            for (a, b) in edge_seeds {
                let (a, b) = (a % n_vertices, b % n_vertices);
                if a != b {
                    maximal.push(Simplex::edge(a, b));
                }
            }
            let c = SimplicialComplex::from_maximal_simplices(maximal).unwrap();
            let betti = betti_numbers(&c);
            let chi_simplex = euler_characteristic(&c);
            let chi_betti: isize = betti
                .iter()
                .enumerate()
                .map(|(k, &b)| if k % 2 == 0 { b as isize } else { -(b as isize) })
                .sum();
            prop_assert_eq!(chi_simplex, chi_betti);
            // β₀ agrees with union-find components.
            prop_assert_eq!(betti[0], c.connected_components());
            // Graph case: β₁ = |E| − |V| + components.
            if c.dim() == Some(1) {
                let e = c.count(1) as isize;
                let v = c.count(0) as isize;
                prop_assert_eq!(betti[1] as isize, e - v + betti[0] as isize);
            }
        }

        /// ∂∂ = 0 on random 2-complexes.
        #[test]
        fn prop_del_del_zero(
            tri_seeds in proptest::collection::vec((0u32..8, 0u32..8, 0u32..8), 1..12),
        ) {
            let maximal: Vec<Simplex> = tri_seeds
                .into_iter()
                .map(|(a, b, c)| Simplex::new([a, b, c]))
                .filter(|s| s.dim() == 2)
                .collect();
            prop_assume!(!maximal.is_empty());
            let c = SimplicialComplex::from_maximal_simplices(maximal).unwrap();
            let d2 = BoundaryOperator::new(&c, 2);
            let d1 = BoundaryOperator::new(&c, 1);
            let composed = d1.matrix().mul(d2.matrix());
            prop_assert_eq!(composed.count_ones(), 0);
        }
    }
}
