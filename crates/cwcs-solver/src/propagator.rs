//! The propagator interface and the fixpoint propagation loop.
//!
//! Propagators narrow variable domains until no propagator can prune any
//! further (a fixpoint) or some domain is wiped out (an [`Inconsistency`]).
//! The loop is intentionally simple: after any propagator reports a change,
//! the whole set is re-run, so a search node pays every propagator at least
//! twice.  That is affordable only because each run is word-level: the
//! bin-packing propagators of the placement model cost a pass over the
//! items plus one sort of the bins, and prune each item's domain with a
//! single bitset mask.  On a streaming-shaped repair model (800 VMs × 116
//! candidate nodes, 2 dimensions) one decision plus its fixpoint costs
//! ~40 µs on a 2-vCPU x86-64 host (`cargo bench -p cwcs-bench --bench
//! solver_kernel`), so the fixpoint, not the store copy, is what a search
//! node spends its time on.

use crate::store::{DomainStore, VarId};

/// Raised when a propagator (or a search decision) empties a domain or
/// detects that a constraint can no longer be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inconsistency {
    variable: Option<VarId>,
    reason: String,
}

impl Inconsistency {
    /// An inconsistency caused by the wipeout of the domain of `var`.
    pub fn wipeout(var: VarId) -> Self {
        Inconsistency {
            variable: Some(var),
            reason: format!("domain of x{} wiped out", var.0),
        }
    }

    /// An inconsistency detected by a constraint, with a description.
    pub fn failure(reason: impl Into<String>) -> Self {
        Inconsistency {
            variable: None,
            reason: reason.into(),
        }
    }

    /// The variable whose domain was wiped out, if any.
    pub fn variable(&self) -> Option<VarId> {
        self.variable
    }

    /// Human-readable description of the failure.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl std::fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inconsistency: {}", self.reason)
    }
}

impl std::error::Error for Inconsistency {}

/// Outcome of one propagator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationResult {
    /// The propagator pruned at least one value.
    Changed,
    /// The propagator pruned nothing.
    Unchanged,
}

/// A constraint propagator.
///
/// Propagators are stateless (all their parameters are immutable); they read
/// and narrow the [`DomainStore`] they are given.  They must be *monotone*
/// (never re-add values) and *sound* (never remove a value that belongs to a
/// solution of the constraint).
pub trait Propagator: Send + Sync {
    /// Narrow the store.  Return whether anything changed, or an
    /// [`Inconsistency`] when the constraint cannot be satisfied anymore.
    fn propagate(&self, store: &mut DomainStore) -> Result<PropagationResult, Inconsistency>;

    /// A short name used in debugging output.
    fn name(&self) -> &str {
        "propagator"
    }
}

/// Run every propagator until none of them changes the store (fixpoint).
///
/// Returns an [`Inconsistency`] as soon as any propagator fails.
pub fn propagate_to_fixpoint(
    propagators: &[std::sync::Arc<dyn Propagator>],
    store: &mut DomainStore,
) -> Result<(), Inconsistency> {
    loop {
        let mut changed = false;
        for p in propagators {
            match p.propagate(store)? {
                PropagationResult::Changed => changed = true,
                PropagationResult::Unchanged => {}
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Model;
    use std::sync::Arc;

    /// Toy propagator enforcing x < y on bounds.
    struct LessThan {
        x: VarId,
        y: VarId,
    }

    impl Propagator for LessThan {
        fn propagate(&self, store: &mut DomainStore) -> Result<PropagationResult, Inconsistency> {
            let mut changed = false;
            // x < y  =>  x <= max(y) - 1, y >= min(x) + 1
            let y_max = store.max(self.y);
            if y_max == 0 {
                return Err(Inconsistency::failure("y must be positive"));
            }
            changed |= store.remove_above(self.x, y_max - 1)?;
            let x_min = store.min(self.x);
            changed |= store.remove_below(self.y, x_min + 1)?;
            Ok(if changed {
                PropagationResult::Changed
            } else {
                PropagationResult::Unchanged
            })
        }

        fn name(&self) -> &str {
            "less-than"
        }
    }

    #[test]
    fn fixpoint_chains_propagations() {
        // x < y < z, all in [0, 2]: forces x=0, y=1, z=2.
        let mut m = Model::new();
        let x = m.new_var(0, 2);
        let y = m.new_var(0, 2);
        let z = m.new_var(0, 2);
        let props: Vec<Arc<dyn Propagator>> = vec![
            Arc::new(LessThan { x, y }),
            Arc::new(LessThan { x: y, y: z }),
        ];
        let mut store = m.root_store();
        propagate_to_fixpoint(&props, &mut store).unwrap();
        assert_eq!(store.value(x), 0);
        assert_eq!(store.value(y), 1);
        assert_eq!(store.value(z), 2);
    }

    #[test]
    fn fixpoint_detects_inconsistency() {
        // x < y with both fixed to the same value.
        let mut m = Model::new();
        let x = m.new_var(1, 1);
        let y = m.new_var(1, 1);
        let props: Vec<Arc<dyn Propagator>> = vec![Arc::new(LessThan { x, y })];
        let mut store = m.root_store();
        assert!(propagate_to_fixpoint(&props, &mut store).is_err());
    }

    #[test]
    fn inconsistency_reports() {
        let inc = Inconsistency::wipeout(VarId(3));
        assert_eq!(inc.variable(), Some(VarId(3)));
        assert!(inc.to_string().contains("x3"));
        let inc = Inconsistency::failure("capacity exceeded");
        assert_eq!(inc.variable(), None);
        assert!(inc.to_string().contains("capacity exceeded"));
    }
}
