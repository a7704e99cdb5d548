//! Finite integer domains represented as bitsets in a flat arena.
//!
//! A domain holds a set of candidate values for one variable, all within
//! `[0, 64 · stride)`.  The placement model of `cwcs-core` uses node indices
//! as values, so a few hundred values (a handful of 64-bit words) is typical.
//! The words of every variable live side by side in one `Vec<u64>` of the
//! [`DomainStore`](crate::store::DomainStore), `stride` words per variable,
//! next to one `(size, min, max)` record per variable.  Cloning a store — once per
//! search child — is therefore two `memcpy`s, with no per-variable
//! allocation.
//!
//! This module holds the bitset algorithms over one variable's slice of that
//! arena: [`DomainView`] reads it, a crate-private `DomainMut` narrows it.  Every operation
//! works a word at a time (`trailing_zeros`, `leading_zeros`, `count_ones`)
//! instead of testing one value at a time, and keeps the cached cardinality
//! and bounds exact.

/// Cached cardinality and bounds of one domain.  `min`/`max` are meaningful
/// only while `size > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bounds {
    pub(crate) size: u32,
    pub(crate) min: u32,
    pub(crate) max: u32,
}

impl Bounds {
    /// The bounds of a domain with no value.
    pub(crate) const EMPTY: Bounds = Bounds {
        size: 0,
        min: 0,
        max: 0,
    };
}

/// Number of 64-bit words needed to hold the value `max`.
pub(crate) fn words_for(max: u32) -> usize {
    max as usize / 64 + 1
}

/// Set every value of `[lo, hi]` in the (all-zero) `words`, returning the
/// bounds of the resulting domain.
///
/// # Panics
/// Panics when `lo > hi` or `hi` does not fit in `words`.
pub(crate) fn fill_range(words: &mut [u64], lo: u32, hi: u32) -> Bounds {
    assert!(lo <= hi, "empty initial domain [{lo}, {hi}]");
    let (lo_w, hi_w) = (lo as usize / 64, hi as usize / 64);
    for (w, word) in words.iter_mut().enumerate().take(hi_w + 1).skip(lo_w) {
        let mut bits = !0u64;
        if w == lo_w {
            bits &= !0u64 << (lo % 64);
        }
        if w == hi_w {
            bits &= !0u64 >> (63 - hi % 64);
        }
        *word = bits;
    }
    Bounds {
        size: hi - lo + 1,
        min: lo,
        max: hi,
    }
}

/// Set exactly `values` in the (all-zero) `words`, returning the bounds of
/// the resulting domain.
///
/// # Panics
/// Panics when `values` is empty or a value does not fit in `words`.
pub(crate) fn fill_values(words: &mut [u64], values: &[u32]) -> Bounds {
    assert!(!values.is_empty(), "empty initial domain");
    for &v in values {
        words[v as usize / 64] |= 1u64 << (v % 64);
    }
    Bounds {
        size: words.iter().map(|w| w.count_ones()).sum(),
        min: *values.iter().min().expect("checked non-empty"),
        max: *values.iter().max().expect("checked non-empty"),
    }
}

/// True when the bit of `value` is set (values past the words are unset).
fn has(words: &[u64], value: u32) -> bool {
    words
        .get(value as usize / 64)
        .is_some_and(|w| w & (1u64 << (value % 64)) != 0)
}

/// Smallest set value `>= from`, if any.
fn first_at_or_above(words: &[u64], from: u32) -> Option<u32> {
    let mut w = from as usize / 64;
    let mut bits = *words.get(w)? & (!0u64 << (from % 64));
    loop {
        if bits != 0 {
            return Some((w * 64) as u32 + bits.trailing_zeros());
        }
        w += 1;
        bits = *words.get(w)?;
    }
}

/// Largest set value `<= from`, if any.
fn last_at_or_below(words: &[u64], from: u32) -> Option<u32> {
    if words.is_empty() {
        return None;
    }
    let mut w = from as usize / 64;
    let mut bits = if w >= words.len() {
        w = words.len() - 1;
        words[w]
    } else {
        words[w] & (!0u64 >> (63 - from % 64))
    };
    loop {
        if bits != 0 {
            return Some((w * 64) as u32 + 63 - bits.leading_zeros());
        }
        if w == 0 {
            return None;
        }
        w -= 1;
        bits = words[w];
    }
}

/// A read-only view of one variable's domain: its bitset words and cached
/// bounds.  Cheap to copy; obtained from
/// [`DomainStore::domain`](crate::store::DomainStore::domain) or
/// [`Model::initial_domain`](crate::store::Model::initial_domain).
#[derive(Debug, Clone, Copy)]
pub struct DomainView<'a> {
    words: &'a [u64],
    bounds: Bounds,
}

impl<'a> DomainView<'a> {
    pub(crate) fn new(words: &'a [u64], bounds: Bounds) -> Self {
        DomainView { words, bounds }
    }

    /// Number of values still in the domain.
    pub fn size(&self) -> u32 {
        self.bounds.size
    }

    /// True when only one value remains.
    pub fn is_fixed(&self) -> bool {
        self.bounds.size == 1
    }

    /// True when no value remains (the domain has been wiped out).
    pub fn is_empty(&self) -> bool {
        self.bounds.size == 0
    }

    /// Smallest value still in the domain.
    ///
    /// # Panics
    /// Panics on an empty domain.
    pub fn min(&self) -> u32 {
        assert!(!self.is_empty(), "min() on empty domain");
        self.bounds.min
    }

    /// Largest value still in the domain.
    ///
    /// # Panics
    /// Panics on an empty domain.
    pub fn max(&self) -> u32 {
        assert!(!self.is_empty(), "max() on empty domain");
        self.bounds.max
    }

    /// The unique remaining value of a fixed domain.
    ///
    /// # Panics
    /// Panics when the domain is not fixed.
    pub fn value(&self) -> u32 {
        assert!(self.is_fixed(), "value() on unfixed domain");
        self.bounds.min
    }

    /// True when `value` is still a candidate.
    pub fn contains(&self, value: u32) -> bool {
        has(self.words, value)
    }

    /// Iterate over the remaining values in increasing order, one set bit
    /// at a time.
    pub fn iter(self) -> DomainIter<'a> {
        if self.is_empty() {
            return DomainIter {
                words: &[],
                base: 0,
                bits: 0,
            };
        }
        let (lo, hi) = (self.bounds.min as usize / 64, self.bounds.max as usize / 64);
        DomainIter {
            words: &self.words[lo + 1..=hi],
            base: (lo * 64) as u32,
            bits: self.words[lo],
        }
    }

    /// Collect the remaining values in increasing order.
    pub fn values(self) -> Vec<u32> {
        let mut values = Vec::with_capacity(self.size() as usize);
        values.extend(self.iter());
        values
    }
}

/// Iterator over the values of a [`DomainView`], in increasing order.
#[derive(Debug, Clone)]
pub struct DomainIter<'a> {
    /// Words still to visit after the current one.
    words: &'a [u64],
    /// Value of bit 0 of the current word.
    base: u32,
    /// Unvisited bits of the current word.
    bits: u64,
}

impl Iterator for DomainIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            let (&next, rest) = self.words.split_first()?;
            self.words = rest;
            self.base += 64;
            self.bits = next;
        }
        let value = self.base + self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(value)
    }
}

/// Mutable access to one variable's domain.  Every narrowing returns `true`
/// when the domain changed; a narrowing may leave the domain empty (a
/// wipeout), which the [`DomainStore`](crate::store::DomainStore) turns
/// into an [`Inconsistency`](crate::propagator::Inconsistency).
pub(crate) struct DomainMut<'a> {
    pub(crate) words: &'a mut [u64],
    pub(crate) bounds: &'a mut Bounds,
}

impl DomainMut<'_> {
    /// Re-derive `min`/`max` after values were cleared from a non-empty
    /// domain: each bound moves inward only when its own bit went away.
    fn refresh_bounds(&mut self) {
        if self.bounds.size == 0 {
            return;
        }
        if !has(self.words, self.bounds.min) {
            self.bounds.min = first_at_or_above(self.words, self.bounds.min)
                .expect("a non-empty domain has a smallest value");
        }
        if !has(self.words, self.bounds.max) {
            self.bounds.max = last_at_or_below(self.words, self.bounds.max)
                .expect("a non-empty domain has a largest value");
        }
    }

    /// Remove `value` from the domain.
    pub(crate) fn remove(&mut self, value: u32) -> bool {
        if !has(self.words, value) {
            return false;
        }
        self.words[value as usize / 64] &= !(1u64 << (value % 64));
        self.bounds.size -= 1;
        self.refresh_bounds();
        true
    }

    /// Clear every value whose bit is set in `mask` (word `w` of `mask`
    /// covers values `64·w .. 64·w + 63`; words past either slice's end
    /// are ignored) in one pass over the domain's live words.
    pub(crate) fn remove_mask(&mut self, mask: &[u64]) -> bool {
        if self.bounds.size == 0 {
            return false;
        }
        let lo = self.bounds.min as usize / 64;
        let end = (self.bounds.max as usize / 64 + 1).min(mask.len());
        let mut removed = 0;
        if lo < end {
            for (word, &m) in self.words[lo..end].iter_mut().zip(&mask[lo..end]) {
                let cleared = *word & m;
                *word ^= cleared;
                removed += cleared.count_ones();
            }
        }
        if removed == 0 {
            return false;
        }
        self.bounds.size -= removed;
        self.refresh_bounds();
        true
    }

    /// Reduce the domain to the single value `value`; `false` when it
    /// already was that singleton.  If `value` is not in the domain the
    /// domain becomes empty.
    pub(crate) fn assign(&mut self, value: u32) -> bool {
        if self.bounds.size == 1 && self.bounds.min == value {
            return false;
        }
        let present = has(self.words, value);
        self.words.fill(0);
        if !present {
            self.bounds.size = 0;
            return true;
        }
        self.words[value as usize / 64] = 1u64 << (value % 64);
        *self.bounds = Bounds {
            size: 1,
            min: value,
            max: value,
        };
        true
    }

    /// Remove every value strictly below `bound`.
    pub(crate) fn remove_below(&mut self, bound: u32) -> bool {
        if self.bounds.size == 0 || self.bounds.min >= bound {
            return false;
        }
        let (lo, cut) = (self.bounds.min as usize / 64, bound as usize / 64);
        let mut removed = 0;
        let end = cut.min(self.words.len());
        for word in &mut self.words[lo..end] {
            removed += word.count_ones();
            *word = 0;
        }
        if cut < self.words.len() {
            let cleared = self.words[cut] & !(!0u64 << (bound % 64));
            self.words[cut] ^= cleared;
            removed += cleared.count_ones();
        }
        self.bounds.size -= removed;
        self.refresh_bounds();
        true
    }

    /// Remove every value strictly above `bound`.
    pub(crate) fn remove_above(&mut self, bound: u32) -> bool {
        if self.bounds.size == 0 || self.bounds.max <= bound {
            return false;
        }
        let (cut, hi) = (bound as usize / 64, self.bounds.max as usize / 64);
        let cleared = self.words[cut] & !(!0u64 >> (63 - bound % 64));
        self.words[cut] ^= cleared;
        let mut removed = cleared.count_ones();
        for word in &mut self.words[cut + 1..=hi] {
            removed += word.count_ones();
            *word = 0;
        }
        self.bounds.size -= removed;
        self.refresh_bounds();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One standalone domain: its words and bounds.
    struct Owned {
        words: Vec<u64>,
        bounds: Bounds,
    }

    impl Owned {
        fn range(lo: u32, hi: u32) -> Self {
            let mut words = vec![0; words_for(hi)];
            let bounds = fill_range(&mut words, lo, hi);
            Owned { words, bounds }
        }

        fn view(&self) -> DomainView<'_> {
            DomainView::new(&self.words, self.bounds)
        }

        fn edit(&mut self) -> DomainMut<'_> {
            DomainMut {
                words: &mut self.words,
                bounds: &mut self.bounds,
            }
        }
    }

    #[test]
    fn range_domain_basics() {
        let d = Owned::range(2, 5);
        let d = d.view();
        assert_eq!(d.size(), 4);
        assert_eq!(d.min(), 2);
        assert_eq!(d.max(), 5);
        assert!(!d.is_fixed());
        assert!(d.contains(3));
        assert!(!d.contains(1));
        assert!(!d.contains(6));
        assert_eq!(d.values(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn from_values_deduplicates() {
        let mut words = vec![0; words_for(90)];
        let bounds = fill_values(&mut words, &[7, 3, 3, 90]);
        let d = DomainView::new(&words, bounds);
        assert_eq!(d.size(), 3);
        assert_eq!(d.min(), 3);
        assert_eq!(d.max(), 90);
        assert_eq!(d.values(), vec![3, 7, 90]);
    }

    #[test]
    fn remove_updates_bounds() {
        let mut d = Owned::range(0, 4);
        assert!(d.edit().remove(0));
        assert_eq!(d.view().min(), 1);
        assert!(d.edit().remove(4));
        assert_eq!(d.view().max(), 3);
        assert!(!d.edit().remove(0), "removing an absent value is a no-op");
        assert_eq!(d.view().size(), 3);
    }

    #[test]
    fn remove_middle_keeps_bounds() {
        let mut d = Owned::range(0, 4);
        d.edit().remove(2);
        assert_eq!(d.view().min(), 0);
        assert_eq!(d.view().max(), 4);
        assert_eq!(d.view().values(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn assign_and_wipeout() {
        let mut d = Owned::range(0, 10);
        assert!(d.edit().assign(7));
        assert!(d.view().is_fixed());
        assert_eq!(d.view().value(), 7);
        assert!(
            !d.edit().assign(7),
            "re-assigning the same value is a no-op"
        );
        let mut d = Owned::range(0, 3);
        d.edit().assign(9); // not in the domain: wipe out
        assert!(d.view().is_empty());
    }

    #[test]
    fn remove_below_and_above() {
        let mut d = Owned::range(0, 9);
        assert!(d.edit().remove_below(3));
        assert!(d.edit().remove_above(6));
        assert_eq!(d.view().values(), vec![3, 4, 5, 6]);
        assert!(!d.edit().remove_below(2));
        assert!(!d.edit().remove_above(8));
    }

    #[test]
    fn remove_mask_clears_across_words() {
        let mut d = Owned::range(0, 199);
        // Clear 0..=63 and 64..=127 except 100, leaving 100 and 128..=199.
        let mask = [!0u64, !(1u64 << 36)];
        assert!(d.edit().remove_mask(&mask));
        assert_eq!(d.view().size(), 73);
        assert_eq!(d.view().min(), 100);
        assert_eq!(d.view().max(), 199);
        assert!(!d.edit().remove_mask(&mask), "nothing left to clear");
    }

    #[test]
    fn remove_everything_empties() {
        let mut d = Owned::range(0, 2);
        d.edit().remove(0);
        d.edit().remove(1);
        d.edit().remove(2);
        assert!(d.view().is_empty());
        assert_eq!(d.view().size(), 0);
        assert_eq!(d.view().values(), Vec::<u32>::new());
    }

    #[test]
    fn large_values_cross_word_boundaries() {
        let d = Owned::range(60, 130);
        let d = d.view();
        assert_eq!(d.size(), 71);
        assert!(d.contains(64));
        assert!(d.contains(127));
        assert!(d.contains(128));
        assert!(!d.contains(131));
        assert_eq!(d.iter().count(), 71);
    }

    #[test]
    fn word_scans_find_neighbours() {
        let words = [1u64 << 63, 0, 1];
        assert_eq!(first_at_or_above(&words, 0), Some(63));
        assert_eq!(first_at_or_above(&words, 64), Some(128));
        assert_eq!(first_at_or_above(&words, 129), None);
        assert_eq!(last_at_or_below(&words, 127), Some(63));
        assert_eq!(last_at_or_below(&words, 500), Some(128));
        assert_eq!(last_at_or_below(&words, 62), None);
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let _ = Owned::range(3, 2);
    }
}
