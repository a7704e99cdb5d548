//! The constraint model and the domain store manipulated during search.
//!
//! A [`Model`] owns the initial domains and the posted propagators; a
//! [`DomainStore`] is the mutable copy of the domains that propagation and
//! search work on.  Search restores state by cloning the store at every
//! choice point.  The store is a flat arena — every variable's bitset in one
//! `Vec<u64>` at a fixed per-model stride, plus one `(size, min, max)`
//! record per variable — so a clone is two `memcpy`s and no per-variable
//! allocation, whatever the variable count.

use std::sync::Arc;

use crate::domain::{fill_range, fill_values, words_for, Bounds, DomainMut, DomainView};
use crate::propagator::{Inconsistency, Propagator};

/// Index of a decision variable inside a [`Model`] / [`DomainStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// A constraint model: variables (initial domains) and propagators.
#[derive(Clone, Default)]
pub struct Model {
    /// The initial domains: the root store every search starts from.
    root: DomainStore,
    names: Vec<String>,
    propagators: Vec<Arc<dyn Propagator>>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Create a variable whose domain is `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics when `lo > hi`.
    pub fn new_var(&mut self, lo: u32, hi: u32) -> VarId {
        let id = self.root.push(hi, |words| fill_range(words, lo, hi));
        self.names.push(format!("x{}", id.0));
        id
    }

    /// Create a variable with an explicit set of candidate values.
    ///
    /// # Panics
    /// Panics when `values` is empty.
    pub fn new_var_with_values(&mut self, values: &[u32]) -> VarId {
        let max = values.iter().copied().max().expect("empty initial domain");
        let id = self.root.push(max, |words| fill_values(words, values));
        self.names.push(format!("x{}", id.0));
        id
    }

    /// Create a named variable whose domain is `[lo, hi]`.
    pub fn new_named_var(&mut self, name: impl Into<String>, lo: u32, hi: u32) -> VarId {
        let id = self.new_var(lo, hi);
        self.names[id.0] = name.into();
        id
    }

    /// Post a propagator.
    pub fn post<P: Propagator + 'static>(&mut self, propagator: P) {
        self.propagators.push(Arc::new(propagator));
    }

    /// Post a propagator and return its slot, so that an incremental caller
    /// can later swap it out with [`Model::replace_propagator`].
    pub fn post_slot<P: Propagator + 'static>(&mut self, propagator: P) -> usize {
        self.propagators.push(Arc::new(propagator));
        self.propagators.len() - 1
    }

    /// Replace the propagator at `slot` (as returned by [`Model::post_slot`])
    /// in place.  This is the primitive behind model patching: a persistent
    /// model keeps its variables and swaps only the constraints whose
    /// parameters (sizes, capacities) changed since the last solve, instead
    /// of being rebuilt from scratch.  The patched model must be
    /// search-indistinguishable from a freshly built one; the lockstep suite
    /// in `cwcs-core` asserts exactly that.
    ///
    /// # Panics
    /// Panics when `slot` does not name a posted propagator.
    pub fn replace_propagator<P: Propagator + 'static>(&mut self, slot: usize, propagator: P) {
        self.propagators[slot] = Arc::new(propagator);
    }

    /// Reset a variable's initial domain to `[lo, hi]` and wipe any
    /// previous reduction.  This is the variable half of model patching: a
    /// persistent model recycles a retired slot for a newly arrived item
    /// (paired with [`Model::rename_var`]) or re-bounds every live variable
    /// when the candidate-node count changed, instead of being rebuilt.
    /// When `hi` needs more words than the model's stride the root arena is
    /// re-laid out at the wider stride.
    ///
    /// # Panics
    /// Panics when `var` does not name a variable of this model or
    /// `lo > hi`.
    pub fn reset_var(&mut self, var: VarId, lo: u32, hi: u32) {
        self.root.reset(var, hi, |words| fill_range(words, lo, hi));
    }

    /// Retire a variable: fix its initial domain to the singleton `{0}`.
    /// A retired variable stays in the model (removing it would renumber
    /// every later [`VarId`]) but can never be branched on, costs one
    /// trivially-fixed domain per store clone, and must be excluded from
    /// the propagators posted over the live variables.  Retired slots are
    /// recycled by [`Model::reset_var`] when new items arrive.
    ///
    /// # Panics
    /// Panics when `var` does not name a variable of this model.
    pub fn retire_var(&mut self, var: VarId) {
        self.reset_var(var, 0, 0);
    }

    /// Rename a variable (recycled slots take the new item's name, so
    /// debugging output never shows a stale identity).
    ///
    /// # Panics
    /// Panics when `var` does not name a variable of this model.
    pub fn rename_var(&mut self, var: VarId, name: impl Into<String>) {
        self.names[var.0] = name.into();
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.root.var_count()
    }

    /// Number of posted propagators.
    pub fn propagator_count(&self) -> usize {
        self.propagators.len()
    }

    /// Name of a variable (for debugging and statistics).
    pub fn name(&self, var: VarId) -> &str {
        &self.names[var.0]
    }

    /// Initial domain of a variable.
    pub fn initial_domain(&self, var: VarId) -> DomainView<'_> {
        self.root.domain(var)
    }

    /// The propagators, shared with search.
    pub(crate) fn propagators(&self) -> &[Arc<dyn Propagator>] {
        &self.propagators
    }

    /// Build the root domain store (a copy of the initial domains).
    pub fn root_store(&self) -> DomainStore {
        self.root.clone()
    }
}

/// The mutable set of domains manipulated by propagation and search.
///
/// Variable `v` owns `words[v · stride .. (v + 1) · stride]` and
/// `bounds[v]`; the stride is the word count of the model's widest domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DomainStore {
    stride: usize,
    words: Vec<u64>,
    bounds: Vec<Bounds>,
}

impl DomainStore {
    /// Widen the stride so that the value `max` fits, re-laying out every
    /// variable's words.
    fn ensure_fits(&mut self, max: u32) {
        let needed = words_for(max);
        if needed <= self.stride {
            return;
        }
        let mut words = vec![0u64; self.bounds.len() * needed];
        for (old, new) in self
            .words
            .chunks_exact(self.stride.max(1))
            .zip(words.chunks_exact_mut(needed))
        {
            new[..old.len()].copy_from_slice(old);
        }
        self.words = words;
        self.stride = needed;
    }

    /// Append a variable whose values are at most `max`, initialized by
    /// `fill` over its zeroed words.
    fn push(&mut self, max: u32, fill: impl FnOnce(&mut [u64]) -> Bounds) -> VarId {
        self.ensure_fits(max);
        let id = VarId(self.bounds.len());
        self.words.resize(self.words.len() + self.stride, 0);
        self.bounds.push(Bounds::EMPTY);
        self.reset(id, max, fill);
        id
    }

    /// Re-initialize a variable whose values are at most `max` by `fill`
    /// over its zeroed words.
    fn reset(&mut self, var: VarId, max: u32, fill: impl FnOnce(&mut [u64]) -> Bounds) {
        self.ensure_fits(max);
        let words = &mut self.words[var.0 * self.stride..(var.0 + 1) * self.stride];
        words.fill(0);
        self.bounds[var.0] = fill(words);
    }

    /// Mutable access to one variable's domain.
    fn edit(&mut self, var: VarId) -> DomainMut<'_> {
        DomainMut {
            words: &mut self.words[var.0 * self.stride..(var.0 + 1) * self.stride],
            bounds: &mut self.bounds[var.0],
        }
    }

    /// Turn an emptied domain into a wipeout.
    fn check(&self, var: VarId, changed: bool) -> Result<bool, Inconsistency> {
        if self.bounds[var.0].size == 0 {
            return Err(Inconsistency::wipeout(var));
        }
        Ok(changed)
    }

    /// Domain of a variable.
    pub fn domain(&self, var: VarId) -> DomainView<'_> {
        DomainView::new(
            &self.words[var.0 * self.stride..(var.0 + 1) * self.stride],
            self.bounds[var.0],
        )
    }

    /// Number of variables in the store.
    pub fn var_count(&self) -> usize {
        self.bounds.len()
    }

    /// True when every variable is fixed.
    pub fn all_fixed(&self) -> bool {
        self.bounds.iter().all(|b| b.size == 1)
    }

    /// True when the variable is fixed.
    pub fn is_fixed(&self, var: VarId) -> bool {
        self.bounds[var.0].size == 1
    }

    /// Value of a fixed variable.
    ///
    /// # Panics
    /// Panics when the variable is not fixed.
    pub fn value(&self, var: VarId) -> u32 {
        self.domain(var).value()
    }

    /// Value of the variable if it is fixed, `None` otherwise.
    pub fn fixed_value(&self, var: VarId) -> Option<u32> {
        let b = self.bounds[var.0];
        (b.size == 1).then_some(b.min)
    }

    /// Smallest candidate value.
    pub fn min(&self, var: VarId) -> u32 {
        self.domain(var).min()
    }

    /// Largest candidate value.
    pub fn max(&self, var: VarId) -> u32 {
        self.domain(var).max()
    }

    /// True when `value` is still a candidate for `var`.
    pub fn contains(&self, var: VarId, value: u32) -> bool {
        self.domain(var).contains(value)
    }

    /// Remove `value` from the domain of `var`.
    ///
    /// Returns `Ok(true)` when the domain changed, `Ok(false)` when the value
    /// was already absent, and `Err(Inconsistency)` when the removal empties
    /// the domain.
    pub fn remove(&mut self, var: VarId, value: u32) -> Result<bool, Inconsistency> {
        let changed = self.edit(var).remove(value);
        self.check(var, changed)
    }

    /// Remove from the domain of `var` every value whose bit is set in
    /// `mask` (bit `v % 64` of word `v / 64` stands for value `v`; words
    /// past the store's stride are ignored), in one pass over the words.
    /// Same contract as [`DomainStore::remove`].
    pub fn remove_mask(&mut self, var: VarId, mask: &[u64]) -> Result<bool, Inconsistency> {
        let changed = self.edit(var).remove_mask(mask);
        self.check(var, changed)
    }

    /// Fix `var` to `value`.
    pub fn assign(&mut self, var: VarId, value: u32) -> Result<bool, Inconsistency> {
        let changed = self.edit(var).assign(value);
        self.check(var, changed)
    }

    /// Remove every value of `var` strictly below `bound`.
    pub fn remove_below(&mut self, var: VarId, bound: u32) -> Result<bool, Inconsistency> {
        let changed = self.edit(var).remove_below(bound);
        self.check(var, changed)
    }

    /// Remove every value of `var` strictly above `bound`.
    pub fn remove_above(&mut self, var: VarId, bound: u32) -> Result<bool, Inconsistency> {
        let changed = self.edit(var).remove_above(bound);
        self.check(var, changed)
    }

    /// Variables that are not fixed yet, in index order.
    pub fn unfixed_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.bounds
            .iter()
            .enumerate()
            .filter(|(_, b)| b.size != 1)
            .map(|(i, _)| VarId(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_creates_variables() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_named_var("host", 2, 4);
        assert_eq!(m.var_count(), 2);
        assert_eq!(m.name(x), "x0");
        assert_eq!(m.name(y), "host");
        assert_eq!(m.initial_domain(y).values(), vec![2, 3, 4]);
    }

    #[test]
    fn store_operations() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let mut s = m.root_store();
        assert!(!s.all_fixed());
        assert!(s.remove(x, 3).unwrap());
        assert!(!s.contains(x, 3));
        assert!(s.assign(x, 4).unwrap());
        assert!(s.all_fixed());
        assert_eq!(s.value(x), 4);
        assert_eq!(s.fixed_value(x), Some(4));
    }

    #[test]
    fn wipeout_is_reported() {
        let mut m = Model::new();
        let x = m.new_var(1, 1);
        let mut s = m.root_store();
        let err = s.remove(x, 1).unwrap_err();
        assert_eq!(err.variable(), Some(x));
    }

    #[test]
    fn bounds_tightening() {
        let mut m = Model::new();
        let x = m.new_var(0, 10);
        let mut s = m.root_store();
        s.remove_below(x, 3).unwrap();
        s.remove_above(x, 7).unwrap();
        assert_eq!(s.min(x), 3);
        assert_eq!(s.max(x), 7);
        assert!(s.remove_below(x, 8).is_err());
    }

    #[test]
    fn unfixed_vars_lists_open_variables() {
        let mut m = Model::new();
        let x = m.new_var(0, 1);
        let y = m.new_var(0, 1);
        let mut s = m.root_store();
        s.assign(x, 0).unwrap();
        assert_eq!(s.unfixed_vars().collect::<Vec<_>>(), vec![y]);
    }

    #[test]
    fn retired_variables_are_fixed_and_recyclable() {
        let mut m = Model::new();
        let x = m.new_named_var("host(vm#1)", 0, 5);
        m.retire_var(x);
        let s = m.root_store();
        assert!(
            s.is_fixed(x),
            "a retired variable must never be branched on"
        );
        assert_eq!(s.value(x), 0);
        // Recycle the slot for a new item: full domain, new identity.
        m.reset_var(x, 0, 3);
        m.rename_var(x, "host(vm#9)");
        assert_eq!(m.name(x), "host(vm#9)");
        assert_eq!(m.initial_domain(x).values(), vec![0, 1, 2, 3]);
        assert_eq!(m.var_count(), 1, "recycling must not add variables");
    }

    #[test]
    fn values_variable() {
        let mut m = Model::new();
        let x = m.new_var_with_values(&[2, 4, 8]);
        let s = m.root_store();
        assert_eq!(s.domain(x).values(), vec![2, 4, 8]);
    }

    #[test]
    fn widening_a_domain_relays_out_the_arena() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        let y = m.new_var(60, 63);
        let mut s = m.root_store();
        s.remove(x, 1).unwrap();
        // Recycling y over 200 values needs four words per variable: the
        // root is re-laid out, and x keeps its initial domain.
        m.reset_var(y, 0, 199);
        assert_eq!(m.initial_domain(x).values(), vec![0, 1, 2, 3]);
        assert_eq!(m.initial_domain(y).size(), 200);
        assert_eq!(m.initial_domain(y).max(), 199);
        // A store cloned before the change is unaffected.
        assert_eq!(s.domain(x).values(), vec![0, 2, 3]);
        assert_eq!(s.domain(y).values(), vec![60, 61, 62, 63]);
    }

    #[test]
    fn remove_mask_reports_changes_and_wipeouts() {
        let mut m = Model::new();
        let x = m.new_var(0, 129);
        let mut s = m.root_store();
        assert!(s.remove_mask(x, &[!0, 0, 0b10]).unwrap());
        assert_eq!(s.min(x), 64);
        assert_eq!(s.max(x), 128);
        assert_eq!(s.domain(x).size(), 65);
        assert!(!s.remove_mask(x, &[!0]).unwrap(), "word 0 is already clear");
        assert!(s.remove_mask(x, &[0, !0, !0]).is_err());
    }
}
