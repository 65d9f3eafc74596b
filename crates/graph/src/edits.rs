//! Structural edits: the add/drop edge primitives Υ and the corruption
//! utilities are built on.

use std::collections::BTreeSet;

use rgae_linalg::Csr;

use crate::{Error, Result};

/// A set of undirected edge additions and removals, applied symmetrically.
///
/// Self-loops are rejected at insertion. Applying an `EditSet` where an
/// addition and a removal target the same pair is an error (the caller's
/// logic is confused); Υ never produces such a set because it adds only
/// centroid links that are absent and drops only links that are present.
#[derive(Clone, Debug, Default)]
pub struct EditSet {
    add: BTreeSet<(usize, usize)>,
    drop: BTreeSet<(usize, usize)>,
}

fn ordered(u: usize, v: usize) -> (usize, usize) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

impl EditSet {
    /// Empty edit set.
    pub fn new() -> Self {
        EditSet::default()
    }

    /// Queue the undirected edge `(u, v)` for addition.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<()> {
        if u == v {
            return Err(Error::Invalid("edit: self-loop"));
        }
        self.add.insert(ordered(u, v));
        Ok(())
    }

    /// Queue the undirected edge `(u, v)` for removal.
    pub fn drop_edge(&mut self, u: usize, v: usize) -> Result<()> {
        if u == v {
            return Err(Error::Invalid("edit: self-loop"));
        }
        self.drop.insert(ordered(u, v));
        Ok(())
    }

    /// Number of queued additions.
    pub fn num_additions(&self) -> usize {
        self.add.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.drop.is_empty()
    }
}

/// Apply an [`EditSet`] to a binary symmetric adjacency, producing a new one.
///
/// Additions that already exist and removals that do not exist are silently
/// idempotent; conflicting add+drop of one pair is an error.
pub fn apply_edits(adjacency: &Csr, edits: &EditSet) -> Result<Csr> {
    let n = adjacency.rows();
    if adjacency.cols() != n {
        return Err(Error::Invalid("apply_edits: adjacency must be square"));
    }
    if let Some(&pair) = edits.add.intersection(&edits.drop).next() {
        let _ = pair;
        return Err(Error::Invalid("apply_edits: conflicting add and drop"));
    }
    for &(u, v) in edits.add.iter().chain(edits.drop.iter()) {
        if u >= n || v >= n {
            return Err(Error::Invalid("apply_edits: endpoint out of bounds"));
        }
    }
    let mut edges: BTreeSet<(usize, usize)> = adjacency.upper_edges().into_iter().collect();
    for &e in &edits.add {
        edges.insert(e);
    }
    for e in &edits.drop {
        edges.remove(e);
    }
    let edge_vec: Vec<(usize, usize)> = edges.into_iter().collect();
    Ok(Csr::adjacency_from_edges(n, &edge_vec)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Csr {
        Csr::adjacency_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn add_and_drop() {
        let a = path4();
        let mut e = EditSet::new();
        e.add_edge(0, 3).unwrap();
        e.drop_edge(1, 2).unwrap();
        let b = apply_edits(&a, &e).unwrap();
        assert!(b.contains(0, 3) && b.contains(3, 0));
        assert!(!b.contains(1, 2) && !b.contains(2, 1));
        assert!(b.contains(0, 1));
        assert_eq!(b.nnz(), 6);
    }

    #[test]
    fn idempotent_add_existing() {
        let a = path4();
        let mut e = EditSet::new();
        e.add_edge(1, 0).unwrap(); // already present (reversed order)
        let b = apply_edits(&a, &e).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn idempotent_drop_missing() {
        let a = path4();
        let mut e = EditSet::new();
        e.drop_edge(0, 3).unwrap();
        let b = apply_edits(&a, &e).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn conflicting_edit_rejected() {
        let a = path4();
        let mut e = EditSet::new();
        e.add_edge(0, 2).unwrap();
        e.drop_edge(2, 0).unwrap();
        assert!(apply_edits(&a, &e).is_err());
    }

    #[test]
    fn self_loop_rejected() {
        let mut e = EditSet::new();
        assert!(e.add_edge(1, 1).is_err());
        assert!(e.drop_edge(2, 2).is_err());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let a = path4();
        let mut e = EditSet::new();
        e.add_edge(0, 9).unwrap();
        assert!(apply_edits(&a, &e).is_err());
    }

    #[test]
    fn result_stays_symmetric_binary() {
        let a = path4();
        let mut e = EditSet::new();
        e.add_edge(3, 0).unwrap();
        e.add_edge(0, 2).unwrap();
        let b = apply_edits(&a, &e).unwrap();
        for (i, j, v) in b.iter() {
            assert_eq!(v, 1.0);
            assert!(b.contains(j, i));
            assert_ne!(i, j);
        }
    }
}
