//! Wire-node identifiers of an MEA.
//!
//! With ideal wires, every horizontal and every vertical wire is a single
//! electrical node, so the device is the complete bipartite graph `K_{m,n}`
//! whose edges are the crossing resistors (the paper's Figure 2
//! abstraction). [`WireId`] names one of its `m + n` nodes and maps it to
//! the flat node index the forward solver's potentials use.

use crate::grid::MeaGrid;

/// Identifies one wire-node of the circuit graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WireId {
    /// Horizontal wire `i` (the paper's A, B, C, …).
    Horizontal(usize),
    /// Vertical wire `j` (the paper's I, II, III, …).
    Vertical(usize),
}

impl WireId {
    /// Flat node index: horizontal wires first, then vertical.
    pub fn node_index(&self, grid: MeaGrid) -> usize {
        match *self {
            WireId::Horizontal(i) => {
                assert!(i < grid.rows(), "horizontal wire out of range");
                i
            }
            WireId::Vertical(j) => {
                assert!(j < grid.cols(), "vertical wire out of range");
                grid.rows() + j
            }
        }
    }

    /// Inverse of [`Self::node_index`].
    pub fn from_node_index(idx: usize, grid: MeaGrid) -> WireId {
        assert!(idx < grid.rows() + grid.cols(), "node index out of range");
        if idx < grid.rows() {
            WireId::Horizontal(idx)
        } else {
            WireId::Vertical(idx - grid.rows())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_index_roundtrip() {
        let grid = MeaGrid::new(3, 4);
        for idx in 0..7 {
            let w = WireId::from_node_index(idx, grid);
            assert_eq!(w.node_index(grid), idx);
        }
        assert_eq!(WireId::Horizontal(2).node_index(grid), 2);
        assert_eq!(WireId::Vertical(0).node_index(grid), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_index_bounds_checked() {
        let _ = WireId::Vertical(4).node_index(MeaGrid::new(3, 4));
    }
}
