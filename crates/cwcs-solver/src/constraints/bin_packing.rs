//! Bin-packing constraint over assignment variables (Shaw, 2004).
//!
//! Each item `i` has a size and an assignment variable whose value is the
//! index of the bin it goes to; each bin has a capacity.  This is the
//! "multi-knapsack" formulation of the paper: one bin per node, one item per
//! running VM, one instance of the constraint per resource dimension (CPU and
//! memory).
//!
//! Propagation:
//! * a bin whose *committed load* (items already fixed to it) exceeds its
//!   capacity is a failure;
//! * a candidate bin is removed from an item's domain when the committed load
//!   plus the item size exceeds the capacity, i.e. when the bin's *slack*
//!   (capacity minus committed load) is below the item size;
//! * a global feasibility check fails when the total size of all items
//!   exceeds the total capacity of the bins.
//!
//! The pruning is word-level.  Each pass sorts the bins by slack once; the
//! bins forbidden to an item of size `s` are then exactly a *prefix* of that
//! order (every bin with slack `< s`), found by binary search.  The pass
//! builds one bitset mask per prefix length and clears an item's forbidden
//! bins with a single [`DomainStore::remove_mask`] over the domain arena —
//! a few word operations per item instead of one test per (item,
//! candidate bin) pair.

use crate::propagator::{Inconsistency, PropagationResult, Propagator};
use crate::store::{DomainStore, VarId};

/// Bin-packing: `assignment[i] = b` implies item `i` occupies `sizes[i]`
/// units of bin `b`, and no bin may exceed its capacity.
#[derive(Debug, Clone)]
pub struct BinPacking {
    assignments: Vec<VarId>,
    sizes: Vec<u64>,
    capacities: Vec<u64>,
    /// Sum of `sizes`.
    total_size: u64,
    /// Sum of `capacities`.
    total_capacity: u64,
}

impl BinPacking {
    /// Build a bin-packing constraint.
    ///
    /// # Panics
    /// Panics when `assignments` and `sizes` have different lengths.
    pub fn new(assignments: Vec<VarId>, sizes: Vec<u64>, capacities: Vec<u64>) -> Self {
        assert_eq!(assignments.len(), sizes.len());
        BinPacking {
            assignments,
            total_size: sizes.iter().sum(),
            total_capacity: capacities.iter().sum(),
            sizes,
            capacities,
        }
    }

    fn bin_count(&self) -> usize {
        self.capacities.len()
    }
}

impl Propagator for BinPacking {
    fn propagate(&self, store: &mut DomainStore) -> Result<PropagationResult, Inconsistency> {
        let n_bins = self.bin_count();
        let mut changed = false;

        // Candidate bins must exist.
        for &var in &self.assignments {
            if store.max(var) as usize >= n_bins {
                changed |= store.remove_above(var, n_bins as u32 - 1)?;
            }
        }

        let stride = n_bins.div_ceil(64);
        let mut committed = vec![0u64; n_bins];
        let mut slack = vec![0u64; n_bins];
        let mut order: Vec<u32> = (0..n_bins as u32).collect();
        let mut prefix: Vec<u64> = Vec::new();
        loop {
            let mut progressed = false;

            // Committed load of each bin: items whose assignment is fixed.
            // The largest unfixed item bounds the longest forbidden prefix.
            committed.fill(0);
            let mut largest_open = 0;
            for (i, &var) in self.assignments.iter().enumerate() {
                match store.fixed_value(var) {
                    Some(bin) => committed[bin as usize] += self.sizes[i],
                    None => largest_open = largest_open.max(self.sizes[i]),
                }
            }
            for (bin, &load) in committed.iter().enumerate() {
                if load > self.capacities[bin] {
                    return Err(Inconsistency::failure(format!(
                        "bin {bin} overloaded: committed {load} > capacity {}",
                        self.capacities[bin]
                    )));
                }
                slack[bin] = self.capacities[bin] - load;
            }

            // Bins in increasing slack: `prefix[k]` (stride words) is the
            // mask of the first `k` bins, the forbidden set of every item
            // with exactly `k` bins of slack below its size.
            order.sort_unstable_by_key(|&b| slack[b as usize]);
            let longest = order.partition_point(|&b| slack[b as usize] < largest_open);
            prefix.clear();
            prefix.resize((longest + 1) * stride, 0);
            for (k, &bin) in order[..longest].iter().enumerate() {
                let (done, next) = prefix.split_at_mut((k + 1) * stride);
                next[..stride].copy_from_slice(&done[k * stride..]);
                next[bin as usize / 64] |= 1u64 << (bin % 64);
            }

            // Remove bins that cannot take an unfixed item anymore.
            for (i, &var) in self.assignments.iter().enumerate() {
                if store.is_fixed(var) {
                    continue;
                }
                let k = order.partition_point(|&b| slack[b as usize] < self.sizes[i]);
                if k > 0 && store.remove_mask(var, &prefix[k * stride..(k + 1) * stride])? {
                    progressed = true;
                    changed = true;
                }
            }

            if !progressed {
                break;
            }
        }

        // Global feasibility: total item size vs. total usable capacity.
        if self.total_size > self.total_capacity {
            return Err(Inconsistency::failure(format!(
                "bin packing infeasible: total item size {} exceeds total capacity {}",
                self.total_size, self.total_capacity
            )));
        }

        Ok(if changed {
            PropagationResult::Changed
        } else {
            PropagationResult::Unchanged
        })
    }

    fn name(&self) -> &str {
        "bin-packing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::propagate_to_fixpoint;
    use crate::store::Model;

    fn fixpoint(m: &Model) -> Result<DomainStore, Inconsistency> {
        let mut s = m.root_store();
        propagate_to_fixpoint(m.propagators(), &mut s)?;
        Ok(s)
    }

    #[test]
    fn committed_overload_fails() {
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(0, 0);
        m.post(BinPacking::new(vec![a, b], vec![3, 3], vec![5, 5]));
        assert!(fixpoint(&m).is_err());
    }

    #[test]
    fn full_bins_are_removed_from_candidates() {
        // Item 0 fixed to bin 0 with size 4 (capacity 5); item 1 of size 2
        // cannot go to bin 0 anymore.
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(0, 1);
        m.post(BinPacking::new(vec![a, b], vec![4, 2], vec![5, 5]));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.value(b), 1);
    }

    #[test]
    fn chain_of_forced_assignments() {
        // Three items of size 2, three bins of capacity 2: once the first two
        // are fixed the third follows.
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(1, 1);
        let c = m.new_var(0, 2);
        m.post(BinPacking::new(vec![a, b, c], vec![2, 2, 2], vec![2, 2, 2]));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.value(c), 2);
    }

    #[test]
    fn total_capacity_check_fails_early() {
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let b = m.new_var(0, 1);
        let c = m.new_var(0, 1);
        m.post(BinPacking::new(vec![a, b, c], vec![3, 3, 3], vec![4, 4]));
        assert!(fixpoint(&m).is_err());
    }

    #[test]
    fn out_of_range_bins_are_removed() {
        let mut m = Model::new();
        let a = m.new_var(0, 9);
        m.post(BinPacking::new(vec![a], vec![1], vec![1, 1, 1]));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.max(a), 2);
    }

    #[test]
    fn zero_size_items_fit_anywhere() {
        let mut m = Model::new();
        let a = m.new_var(0, 0);
        let b = m.new_var(0, 1);
        m.post(BinPacking::new(vec![a, b], vec![5, 0], vec![5, 0]));
        let s = fixpoint(&m).unwrap();
        assert_eq!(
            s.domain(b).size(),
            2,
            "a zero-size item can share a full bin"
        );
    }

    #[test]
    fn two_dimensional_packing_via_two_constraints() {
        // The paper posts one bin-packing per resource dimension over the same
        // assignment variables.  CPU dimension forces separation, memory
        // dimension is loose.
        let mut m = Model::new();
        let a = m.new_var(0, 1);
        let b = m.new_var(0, 1);
        // CPU: both need a full unit, each node has one unit.
        m.post(BinPacking::new(vec![a, b], vec![1, 1], vec![1, 1]));
        // Memory: plenty everywhere.
        m.post(BinPacking::new(
            vec![a, b],
            vec![512, 512],
            vec![4096, 4096],
        ));
        // Fix a to node 0: CPU packing forces b to node 1.
        m.post(crate::constraints::EqualConst::new(a, 0));
        let s = fixpoint(&m).unwrap();
        assert_eq!(s.value(b), 1);
    }
}
