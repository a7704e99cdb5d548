//! Depth-first search, branch & bound and the anytime behaviour of Entropy.
//!
//! The optimizer of the paper "keeps computing configurations with a reduced
//! cost until it proves that the cost of the plan is minimum or hits the
//! timeout".  [`Search::minimize`] reproduces exactly that contract: it
//! returns the best solution found within the deadline together with
//! statistics saying whether optimality was proven.
//!
//! Variable ordering defaults to **first-fail** (smallest domain first), the
//! heuristic the paper cites (Haralick & Elliott, 1980); value ordering
//! defaults to smallest-value-first but can be overridden, which the
//! placement model uses to try a VM's current node first so that solutions
//! with few migrations are found early.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{AtomicI64, Ordering};

use crate::propagator::{propagate_to_fixpoint, Inconsistency, Propagator};
use crate::store::{DomainStore, Model, VarId};

/// A compact, replayable checkpoint of a search frontier: the `(var, value)`
/// decisions leading from the root to one unexplored subtree.
///
/// This is the unit of work the partitioned portfolio donates and steals
/// (see [`crate::portfolio`] and [`crate::deque`]): instead of shipping a
/// whole domain store between workers, a frozen subtree is just its decision
/// trail, and the thief reconstructs the store by replaying the trail —
/// assign, propagate to fixpoint, repeat — against a fresh copy of the root.
/// Propagation is deterministic, so the replayed store is identical to the
/// one the donor abandoned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubtreeCheckpoint {
    /// Decisions from the root, in the order they were taken.
    pub trail: Vec<(VarId, u32)>,
}

impl SubtreeCheckpoint {
    /// The checkpoint of the root itself (empty trail).
    pub fn root() -> Self {
        SubtreeCheckpoint::default()
    }

    /// The checkpoint one decision deeper.
    pub fn child(&self, var: VarId, value: u32) -> Self {
        let mut trail = Vec::with_capacity(self.trail.len() + 1);
        trail.extend_from_slice(&self.trail);
        trail.push((var, value));
        SubtreeCheckpoint { trail }
    }

    /// Depth of the subtree root (number of decisions).
    pub fn depth(&self) -> usize {
        self.trail.len()
    }

    /// Replay the trail against a copy of `base`: assign each decision and
    /// propagate to fixpoint after each.  Only the *last* decision can fail
    /// (everything above it was consistent when the checkpoint was frozen,
    /// and replaying from the same root is deterministic) — a failure means
    /// the subtree was empty all along and counts as one failure for the
    /// replaying worker.
    pub fn replay(
        &self,
        base: &DomainStore,
        propagators: &[Arc<dyn Propagator>],
    ) -> Result<DomainStore, Inconsistency> {
        let mut store = base.clone();
        for &(var, value) in &self.trail {
            store.assign(var, value)?;
            propagate_to_fixpoint(propagators, &mut store)?;
        }
        Ok(store)
    }
}

/// State shared by the racing runs of a portfolio search (see
/// [`crate::portfolio`]): the best cost found by *any* run, used as an extra
/// branch & bound pruning bound.
///
/// The bound only ever decreases (`publish` is a `fetch_min`), so pruning
/// against a stale read is always sound: a subtree pruned because its lower
/// bound reached an *older, larger* bound can contain no solution cheaper
/// than the final one either.
#[derive(Debug, Clone)]
pub struct SharedBound {
    /// Best cost published so far; `i64::MAX` encodes "none yet".
    bound: Arc<AtomicI64>,
}

impl Default for SharedBound {
    fn default() -> Self {
        SharedBound::new()
    }
}

impl SharedBound {
    /// A fresh bound with no published incumbent.
    pub fn new() -> Self {
        SharedBound {
            bound: Arc::new(AtomicI64::new(i64::MAX)),
        }
    }

    /// The best cost published by any run, if any.
    pub fn best_cost(&self) -> Option<i64> {
        // relaxed: a stale (larger) bound only weakens pruning, never
        // soundness — the bound is monotonically decreasing (fetch_min) and
        // is a pure scalar, carrying no other data to synchronize.
        let bound = self.bound.load(Ordering::Relaxed);
        (bound != i64::MAX).then_some(bound)
    }

    /// Publish a cost; keeps the minimum of all published costs.
    pub fn publish(&self, cost: i64) {
        // relaxed: the RMW is atomic at any ordering, so the bound stays
        // the true minimum; readers tolerate staleness (see `best_cost`).
        // `tests/model_check.rs` checks monotonicity under this ordering.
        self.bound.fetch_min(cost, Ordering::Relaxed);
    }
}

/// A complete assignment: one value per variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    values: Vec<u32>,
}

impl Solution {
    pub(crate) fn from_store(store: &DomainStore) -> Self {
        Solution {
            values: (0..store.var_count())
                .map(|i| store.value(VarId(i)))
                .collect(),
        }
    }

    /// Value assigned to a variable.
    pub fn value(&self, var: VarId) -> u32 {
        self.values[var.0]
    }

    /// All values in variable order.
    pub fn values(&self) -> &[u32] {
        &self.values
    }
}

impl std::ops::Index<VarId> for Solution {
    type Output = u32;
    fn index(&self, var: VarId) -> &u32 {
        &self.values[var.0]
    }
}

/// How the next branching variable is chosen.
#[derive(Clone)]
pub enum VariableSelection {
    /// Smallest remaining domain first (first-fail).  Ties are broken by a
    /// static weight (largest weight first), then by rank, so that "VMs
    /// with important CPU and memory requirements are treated earlier than
    /// VMs with lesser requirements" as in the paper.
    FirstFail {
        /// Optional static weight per variable (larger = branch earlier).
        weights: Option<Vec<u64>>,
        /// Optional tie-break rank per variable (smaller = branch earlier);
        /// a variable missing from the vector ranks by its index.  Without
        /// ranks, ties fall through to the variable index — which is also
        /// the problem order on a freshly built model.  A *patched*
        /// persistent model reuses variable slots, so its indices no longer
        /// follow the problem order; supplying the problem order as ranks
        /// keeps its search tree bit-identical to a fresh build's.
        ranks: Option<Vec<u64>>,
    },
    /// Declaration order.
    InputOrder,
}

impl Default for VariableSelection {
    fn default() -> Self {
        VariableSelection::FirstFail {
            weights: None,
            ranks: None,
        }
    }
}

/// How the candidate values of the branching variable are ordered.
#[derive(Clone, Default)]
pub enum ValueSelection {
    /// Smallest value first.
    #[default]
    MinValue,
    /// A preferred value per variable is tried first (when still in the
    /// domain), then the rest in increasing order.  The placement model uses
    /// the current host of each VM as the preferred value.
    Preferred(Vec<Option<u32>>),
}

/// Restart policy of the branch & bound search.
///
/// Large placement instances are vulnerable to *heavy-tailed* search: a DFS
/// that commits to a bad prefix early can spend its whole budget in a
/// worthless subtree.  The classic mitigation (Luby, Sinclair & Zuckerman,
/// 1993) restarts the search from the root whenever the number of failures
/// since the last restart exceeds a budget drawn from the Luby sequence
/// (1, 1, 2, 1, 1, 2, 4, …) scaled by a constant.  Restarts keep the best
/// incumbent — the anytime contract is preserved — and each run diversifies
/// the value ordering deterministically, so successive runs explore
/// genuinely different prefixes without any randomness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Failure budget of run `i` is `scale * luby(i)`.
    pub scale: u64,
}

impl RestartPolicy {
    /// A Luby restart policy with the given scale (failures allowed in the
    /// first run).
    pub fn luby(scale: u64) -> Self {
        RestartPolicy {
            scale: scale.max(1),
        }
    }
}

/// The Luby sequence, 1-indexed: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4,
/// 8, …
pub fn luby(i: u64) -> u64 {
    debug_assert!(i >= 1);
    let mut k = 1u32;
    while (1u64 << k) - 1 < i {
        k += 1;
    }
    if (1u64 << k) - 1 == i {
        1u64 << (k - 1)
    } else {
        luby(i - ((1u64 << (k - 1)) - 1))
    }
}

/// Objective for branch & bound minimisation.
pub trait Objective {
    /// Exact cost of a complete assignment.
    fn evaluate(&self, store: &DomainStore) -> i64;

    /// A lower bound of the cost of any completion of a partial assignment.
    /// Must never exceed [`Objective::evaluate`] on any completion; returning
    /// `i64::MIN` disables pruning at that node.
    fn lower_bound(&self, store: &DomainStore) -> i64 {
        let _ = store;
        i64::MIN
    }
}

/// Search configuration: heuristics and limits.
#[derive(Clone, Default)]
pub struct SearchConfig {
    /// Variable-ordering heuristic.
    pub variable_selection: VariableSelection,
    /// Value-ordering heuristic.
    pub value_selection: ValueSelection,
    /// Wall-clock limit; `None` means unlimited.
    pub timeout: Option<Duration>,
    /// Maximum number of explored search nodes; `None` means unlimited.
    pub node_limit: Option<u64>,
    /// Incumbent seeding for [`Search::minimize`]: a complete assignment
    /// (one value per variable, in variable order) installed as the first
    /// incumbent before the tree search starts.  The placement model passes
    /// the current configuration here so that "no worse than today" holds
    /// from the very first node; an infeasible incumbent is ignored.
    pub incumbent: Option<Vec<u32>>,
    /// Luby-style restarts for [`Search::minimize`]; `None` disables them.
    pub restarts: Option<RestartPolicy>,
    /// Diversification index of this search (0 = the canonical ordering).
    /// The first run rotates its value ordering by this index and the Luby
    /// restart schedule starts at this position, so portfolio workers with
    /// distinct indices explore genuinely different prefixes.
    pub diversify: u64,
    /// Portfolio state shared with concurrent runs: an extra pruning bound
    /// fed by every run's improving solutions; see [`crate::portfolio`].  `None` outside portfolio races.
    pub shared: Option<SharedBound>,
}

impl SearchConfig {
    /// Configuration with a timeout (the 40 s limit of the Figure 10
    /// experiment for instance).
    pub fn with_timeout(timeout: Duration) -> Self {
        SearchConfig {
            timeout: Some(timeout),
            ..Default::default()
        }
    }
}

/// Statistics of one search run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of explored search nodes (decisions).
    pub nodes: u64,
    /// Number of failures (inconsistencies).
    pub failures: u64,
    /// Number of (improving) solutions found.
    pub solutions: u64,
    /// Number of Luby restarts performed by `minimize`.
    pub restarts: u64,
    /// True when the returned solution is the seeded incumbent (no improving
    /// solution was found by the tree search).
    pub incumbent_kept: bool,
    /// True when the search space was exhausted within the limits, i.e. the
    /// last solution is proven optimal (for `minimize`) or the absence of
    /// further solutions is proven.
    pub completed: bool,
    /// Wall-clock time spent searching, in milliseconds.
    pub elapsed_ms: u64,
    /// The diversification run index the search ended on (the value-order
    /// rotation of the last Luby run, counted from [`SearchConfig::diversify`]).
    /// A warm-started caller feeds `final_run + 1` into the `diversify` of the
    /// next solve so successive solves continue the restart schedule instead
    /// of re-exploring the same rotation prefixes.
    pub final_run: u64,
}

/// Result of a minimisation: best solution, its cost, and statistics.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// Best solution found, if any.
    pub best: Option<Solution>,
    /// Cost of the best solution.
    pub best_cost: Option<i64>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// A depth-first constraint search over a [`Model`].
pub struct Search<'m> {
    model: &'m Model,
    config: SearchConfig,
}

struct SearchState<'a> {
    propagators: &'a [Arc<dyn Propagator>],
    config: &'a SearchConfig,
    deadline: Option<Instant>,
    stats: SearchStats,
    stopped: bool,
    /// Failure count at which the current run must restart (`None`: never).
    failure_budget: Option<u64>,
    /// Set when the failure budget fired: the run is abandoned but the
    /// search as a whole is not stopped.
    restart_requested: bool,
    /// Index of the current restart run (0 for the first run); used to
    /// diversify the value ordering deterministically.
    run: u64,
}

enum Outcome {
    /// Keep exploring siblings.
    Continue,
    /// Stop the whole search (limit reached or first solution found in
    /// satisfaction mode).
    Stop,
}

impl<'m> Search<'m> {
    /// Build a search over `model` with the given configuration.
    pub fn new(model: &'m Model, config: SearchConfig) -> Self {
        Search { model, config }
    }

    /// Find the first solution, if any.
    pub fn solve(&self) -> Option<Solution> {
        self.solve_with_stats().0
    }

    /// Find the first solution and report statistics.
    pub fn solve_with_stats(&self) -> (Option<Solution>, SearchStats) {
        let start = Instant::now();
        let mut state = self.fresh_state(start);
        let mut first: Option<Solution> = None;
        let store = self.model.root_store();
        Self::dfs(&mut state, store, &mut |store, _state| {
            first = Some(Solution::from_store(store));
            Outcome::Stop
        });
        state.stats.completed = !state.stopped || first.is_some();
        state.stats.elapsed_ms = start.elapsed().as_millis() as u64;
        state.stats.final_run = state.run;
        (first, state.stats)
    }

    /// Enumerate up to `limit` solutions (useful in tests).
    pub fn solve_all(&self, limit: usize) -> Vec<Solution> {
        let start = Instant::now();
        let mut state = self.fresh_state(start);
        let mut solutions = Vec::new();
        let store = self.model.root_store();
        Self::dfs(&mut state, store, &mut |store, _state| {
            solutions.push(Solution::from_store(store));
            if solutions.len() >= limit {
                Outcome::Stop
            } else {
                Outcome::Continue
            }
        });
        solutions
    }

    /// Branch & bound minimisation of `objective`: explore the search tree,
    /// keep the best solution found, prune subtrees whose lower bound cannot
    /// improve it, and stop at the deadline.  The result is *anytime*: even
    /// when the deadline fires the best solution found so far is returned.
    ///
    /// When [`SearchConfig::incumbent`] carries a feasible assignment it is
    /// installed as the first incumbent, so the outcome can never be worse
    /// than the seed.  When [`SearchConfig::restarts`] is set the tree
    /// search restarts on a Luby schedule, keeping the incumbent across
    /// runs and rotating the value ordering of each run so that restarts
    /// explore different prefixes.
    pub fn minimize<O: Objective>(&self, objective: &O) -> MinimizeOutcome {
        let start = Instant::now();
        let mut state = self.fresh_state(start);
        let mut best: Option<Solution> = None;
        let mut best_cost: Option<i64> = None;

        // Seed the incumbent, if the caller provided a feasible one.
        if let Some(values) = &self.config.incumbent {
            if let Some(store) = self.validate_incumbent(values) {
                let cost = objective.evaluate(&store);
                best_cost = Some(cost);
                best = Some(Solution::from_store(&store));
                state.stats.incumbent_kept = true;
                if let Some(shared) = &self.config.shared {
                    shared.publish(cost);
                }
            }
        }

        loop {
            state.restart_requested = false;
            state.failure_budget = self
                .config
                .restarts
                .as_ref()
                .map(|p| state.stats.failures + p.scale * luby(state.run + 1));
            let store = self.model.root_store();
            Self::dfs_bnb(&mut state, store, objective, &mut best, &mut best_cost);
            if !state.restart_requested || state.stopped {
                break;
            }
            state.run += 1;
            state.stats.restarts += 1;
        }

        state.stats.completed = !state.stopped;
        state.stats.elapsed_ms = start.elapsed().as_millis() as u64;
        state.stats.final_run = state.run;
        MinimizeOutcome {
            best,
            best_cost,
            stats: state.stats,
        }
    }

    fn fresh_state(&self, start: Instant) -> SearchState<'_> {
        SearchState {
            propagators: self.model.propagators(),
            config: &self.config,
            deadline: self.config.timeout.map(|t| start + t),
            stats: SearchStats::default(),
            stopped: false,
            failure_budget: None,
            restart_requested: false,
            run: self.config.diversify,
        }
    }

    /// Check that an incumbent assignment is complete and consistent with
    /// every propagator; returns the fully-assigned store when it is.
    pub(crate) fn validate_incumbent(&self, values: &[u32]) -> Option<DomainStore> {
        if values.len() != self.model.var_count() {
            return None;
        }
        let mut store = self.model.root_store();
        for (i, &value) in values.iter().enumerate() {
            if store.assign(VarId(i), value).is_err() {
                return None;
            }
        }
        if propagate_to_fixpoint(self.model.propagators(), &mut store).is_err() {
            return None;
        }
        store.all_fixed().then_some(store)
    }

    // ------------------------------------------------------------------
    // DFS engines
    // ------------------------------------------------------------------

    fn limits_reached(state: &mut SearchState) -> bool {
        if state.stopped {
            return true;
        }
        if let Some(deadline) = state.deadline {
            if Instant::now() >= deadline {
                state.stopped = true;
                return true;
            }
        }
        if let Some(limit) = state.config.node_limit {
            if state.stats.nodes >= limit {
                state.stopped = true;
                return true;
            }
        }
        false
    }

    fn dfs(
        state: &mut SearchState,
        mut store: DomainStore,
        on_solution: &mut dyn FnMut(&DomainStore, &mut SearchState) -> Outcome,
    ) -> Outcome {
        if Self::limits_reached(state) {
            return Outcome::Stop;
        }
        state.stats.nodes += 1;
        if let Err(_e) = propagate_to_fixpoint(state.propagators, &mut store) {
            state.stats.failures += 1;
            return Outcome::Continue;
        }
        if store.all_fixed() {
            state.stats.solutions += 1;
            return on_solution(&store, state);
        }
        let var = Self::select_variable(&state.config.variable_selection, &store);
        let values = Self::order_values(&state.config.value_selection, var, &store);
        for value in values {
            let mut child = store.clone();
            if child.assign(var, value).is_err() {
                state.stats.failures += 1;
                continue;
            }
            match Self::dfs(state, child, on_solution) {
                Outcome::Continue => {}
                Outcome::Stop => return Outcome::Stop,
            }
        }
        Outcome::Continue
    }

    fn dfs_bnb<O: Objective>(
        state: &mut SearchState,
        mut store: DomainStore,
        objective: &O,
        best: &mut Option<Solution>,
        best_cost: &mut Option<i64>,
    ) -> Outcome {
        if Self::limits_reached(state) {
            return Outcome::Stop;
        }
        if let Some(budget) = state.failure_budget {
            if state.stats.failures >= budget {
                state.restart_requested = true;
                return Outcome::Stop;
            }
        }
        state.stats.nodes += 1;
        if let Err(_e) = propagate_to_fixpoint(state.propagators, &mut store) {
            state.stats.failures += 1;
            return Outcome::Continue;
        }
        // Bound: prune when the partial assignment cannot beat the incumbent
        // — the local one, or the best published by any portfolio worker.
        let shared_best = state
            .config
            .shared
            .as_ref()
            .and_then(|shared| shared.best_cost());
        let prune_bound = match (*best_cost, shared_best) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (bound, None) | (None, bound) => bound,
        };
        if let Some(current_best) = prune_bound {
            if objective.lower_bound(&store) >= current_best {
                state.stats.failures += 1;
                return Outcome::Continue;
            }
        }
        if store.all_fixed() {
            let cost = objective.evaluate(&store);
            let improves = best_cost.map(|b| cost < b).unwrap_or(true);
            if improves {
                *best = Some(Solution::from_store(&store));
                *best_cost = Some(cost);
                state.stats.solutions += 1;
                state.stats.incumbent_kept = false;
                if let Some(shared) = &state.config.shared {
                    shared.publish(cost);
                }
            }
            return Outcome::Continue;
        }
        let var = Self::select_variable(&state.config.variable_selection, &store);
        let values =
            Self::order_values_diversified(&state.config.value_selection, var, &store, state.run);
        for value in values {
            let mut child = store.clone();
            if child.assign(var, value).is_err() {
                state.stats.failures += 1;
                continue;
            }
            match Self::dfs_bnb(state, child, objective, best, best_cost) {
                Outcome::Continue => {}
                Outcome::Stop => return Outcome::Stop,
            }
        }
        Outcome::Continue
    }

    pub(crate) fn select_variable(selection: &VariableSelection, store: &DomainStore) -> VarId {
        let mut unfixed = store.unfixed_vars();
        match selection {
            VariableSelection::InputOrder => unfixed.next().expect("at least one unfixed variable"),
            VariableSelection::FirstFail { weights, ranks } => {
                let weight = |v: VarId| -> u64 {
                    weights
                        .as_ref()
                        .and_then(|w| w.get(v.0).copied())
                        .unwrap_or(0)
                };
                let rank = |v: VarId| -> u64 {
                    ranks
                        .as_ref()
                        .and_then(|r| r.get(v.0).copied())
                        .unwrap_or(v.0 as u64)
                };
                unfixed
                    .min_by_key(|&v| {
                        (
                            store.domain(v).size(),
                            std::cmp::Reverse(weight(v)),
                            rank(v),
                            v.0,
                        )
                    })
                    .expect("at least one unfixed variable")
            }
        }
    }

    fn order_values(selection: &ValueSelection, var: VarId, store: &DomainStore) -> Vec<u32> {
        Self::order_values_diversified(selection, var, store, 0)
    }

    /// Value ordering of restart run `run`: the preferred value (when any)
    /// stays first, and the remaining values are rotated by the run index so
    /// that successive Luby runs branch into different subtrees first.
    pub(crate) fn order_values_diversified(
        selection: &ValueSelection,
        var: VarId,
        store: &DomainStore,
        run: u64,
    ) -> Vec<u32> {
        let mut values = store.domain(var).values();
        let fixed_prefix = match selection {
            ValueSelection::MinValue => 0,
            ValueSelection::Preferred(preferred) => {
                if let Some(Some(p)) = preferred.get(var.0) {
                    if let Some(pos) = values.iter().position(|v| v == p) {
                        values.remove(pos);
                        values.insert(0, *p);
                        1
                    } else {
                        0
                    }
                } else {
                    0
                }
            }
        };
        let tail = &mut values[fixed_prefix..];
        if run > 0 && tail.len() > 1 {
            tail.rotate_left((run % tail.len() as u64) as usize);
        }
        values
    }
}

/// Convenience objective backed by closures.
pub struct ClosureObjective<E, L>
where
    E: Fn(&DomainStore) -> i64,
    L: Fn(&DomainStore) -> i64,
{
    evaluate: E,
    lower_bound: L,
}

impl<E, L> ClosureObjective<E, L>
where
    E: Fn(&DomainStore) -> i64,
    L: Fn(&DomainStore) -> i64,
{
    /// Build an objective from an evaluation closure and a lower-bound
    /// closure.
    pub fn new(evaluate: E, lower_bound: L) -> Self {
        ClosureObjective {
            evaluate,
            lower_bound,
        }
    }
}

impl<E, L> Objective for ClosureObjective<E, L>
where
    E: Fn(&DomainStore) -> i64,
    L: Fn(&DomainStore) -> i64,
{
    fn evaluate(&self, store: &DomainStore) -> i64 {
        (self.evaluate)(store)
    }

    fn lower_bound(&self, store: &DomainStore) -> i64 {
        (self.lower_bound)(store)
    }
}

/// Convenience: raised when a model that must have a solution has none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoSolution;

impl std::fmt::Display for NoSolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the constraint model has no solution")
    }
}

impl std::error::Error for NoSolution {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{AllDifferent, BinPacking, LinearLeq};
    use crate::store::Model;

    #[test]
    fn solve_finds_a_feasible_assignment() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..4).map(|_| m.new_var(0, 3)).collect();
        m.post(AllDifferent::new(vars.clone()));
        let s = Search::new(&m, SearchConfig::default()).solve().unwrap();
        let mut values: Vec<u32> = vars.iter().map(|&v| s[v]).collect();
        values.sort();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unsatisfiable_model_returns_none() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..3).map(|_| m.new_var(0, 1)).collect();
        m.post(AllDifferent::new(vars));
        assert!(Search::new(&m, SearchConfig::default()).solve().is_none());
    }

    #[test]
    fn solve_all_enumerates_every_solution() {
        // Two variables in [0,1] with no constraint: 4 solutions.
        let mut m = Model::new();
        m.new_var(0, 1);
        m.new_var(0, 1);
        let all = Search::new(&m, SearchConfig::default()).solve_all(100);
        assert_eq!(all.len(), 4);
        // Limit is respected.
        let some = Search::new(&m, SearchConfig::default()).solve_all(2);
        assert_eq!(some.len(), 2);
    }

    #[test]
    fn minimize_finds_the_optimum_and_proves_it() {
        // Minimise x + y subject to x + y >= 3 encoded as 3 - x - y <= 0
        // via LinearLeq on complemented variables is awkward; instead use
        // bin-packing to force a spread and minimise a weighted sum.
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        // x + y <= 8 (loose).
        m.post(LinearLeq::sum_leq(vec![x, y], 8));
        // Objective: minimise 2x + y.
        let objective = ClosureObjective::new(
            move |store: &DomainStore| 2 * store.value(x) as i64 + store.value(y) as i64,
            move |store: &DomainStore| 2 * store.min(x) as i64 + store.min(y) as i64,
        );
        let outcome = Search::new(&m, SearchConfig::default()).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(0));
        assert!(outcome.stats.completed);
        let best = outcome.best.unwrap();
        assert_eq!(best[x], 0);
        assert_eq!(best[y], 0);
    }

    #[test]
    fn minimize_respects_preferred_values() {
        // Without constraints, the preferred value should be found first and
        // never improved upon if it is already optimal for the objective.
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let objective = ClosureObjective::new(
            move |store: &DomainStore| {
                // Cost 0 when x keeps its "current placement" 7, 1 otherwise.
                if store.value(x) == 7 {
                    0
                } else {
                    1
                }
            },
            |_| 0,
        );
        let config = SearchConfig {
            value_selection: ValueSelection::Preferred(vec![Some(7)]),
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(0));
        assert_eq!(outcome.best.unwrap()[x], 7);
        // The very first solution explored was already the optimum.
        assert_eq!(outcome.stats.solutions, 1);
    }

    #[test]
    fn first_fail_branches_on_smallest_domain() {
        let mut m = Model::new();
        let _wide = m.new_var(0, 9);
        let narrow = m.new_var(0, 1);
        let store = m.root_store();
        let chosen = Search::select_variable(&VariableSelection::default(), &store);
        assert_eq!(chosen, narrow);
    }

    #[test]
    fn first_fail_ties_break_by_weight() {
        let mut m = Model::new();
        let light = m.new_var(0, 1);
        let heavy = m.new_var(0, 1);
        let store = m.root_store();
        let selection = VariableSelection::FirstFail {
            weights: Some(vec![1, 10]),
            ranks: None,
        };
        let chosen = Search::select_variable(&selection, &store);
        assert_eq!(chosen, heavy);
        let _ = light;
    }

    #[test]
    fn first_fail_ties_break_by_rank_before_index() {
        // Same domains, same weights: without ranks the lower index wins;
        // ranks invert the order, which is how a patched model whose
        // variable slots were recycled out of problem order reproduces the
        // fresh build's branching.
        let mut m = Model::new();
        let first = m.new_var(0, 1);
        let second = m.new_var(0, 1);
        let store = m.root_store();
        let unranked = VariableSelection::FirstFail {
            weights: None,
            ranks: None,
        };
        assert_eq!(Search::select_variable(&unranked, &store), first);
        let ranked = VariableSelection::FirstFail {
            weights: None,
            ranks: Some(vec![1, 0]),
        };
        assert_eq!(Search::select_variable(&ranked, &store), second);
    }

    #[test]
    fn identity_ranks_match_the_unranked_ordering() {
        let mut m = Model::new();
        let a = m.new_var(0, 2);
        let _b = m.new_var(0, 2);
        let store = m.root_store();
        let identity = VariableSelection::FirstFail {
            weights: Some(vec![5, 5]),
            ranks: Some(vec![0, 1]),
        };
        let none = VariableSelection::FirstFail {
            weights: Some(vec![5, 5]),
            ranks: None,
        };
        assert_eq!(
            Search::select_variable(&identity, &store),
            Search::select_variable(&none, &store)
        );
        assert_eq!(Search::select_variable(&identity, &store), a);
    }

    #[test]
    fn node_limit_stops_the_search() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..8).map(|_| m.new_var(0, 7)).collect();
        m.post(AllDifferent::new(vars));
        let config = SearchConfig {
            node_limit: Some(3),
            ..Default::default()
        };
        let (sol, stats) = Search::new(&m, config).solve_with_stats();
        assert!(sol.is_none());
        assert!(stats.nodes <= 4);
    }

    #[test]
    fn timeout_is_anytime_for_minimize() {
        // A big enough problem that optimality is not proven instantly, with
        // a tiny timeout: we must still get *a* solution back (or none, but
        // the run must terminate quickly) and completed == false if stopped.
        let mut m = Model::new();
        let vars: Vec<_> = (0..10).map(|_| m.new_var(0, 9)).collect();
        m.post(BinPacking::new(vars.clone(), vec![1; 10], vec![2; 10]));
        let objective = ClosureObjective::new(
            {
                let vars = vars.clone();
                move |store: &DomainStore| vars.iter().map(|&v| store.value(v) as i64).sum()
            },
            |_| i64::MIN,
        );
        let config = SearchConfig {
            timeout: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        // Either it completed very fast (tiny problem for the machine) or it
        // was cut; in both cases the call returns promptly and coherently.
        if !outcome.stats.completed {
            assert!(outcome.stats.elapsed_ms <= 5_000);
        }
        assert!(outcome.best.is_some());
    }

    #[test]
    fn luby_sequence_matches_the_literature() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn incumbent_bounds_the_outcome_even_with_no_search_budget() {
        // With a zero node budget the tree search explores nothing: the
        // seeded incumbent must come back unchanged.
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let objective =
            ClosureObjective::new(move |store: &DomainStore| store.value(x) as i64, |_| 0);
        let config = SearchConfig {
            node_limit: Some(0),
            incumbent: Some(vec![3]),
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(3));
        assert_eq!(outcome.best.unwrap()[x], 3);
        assert!(outcome.stats.incumbent_kept);
    }

    #[test]
    fn search_improves_on_the_incumbent_when_it_can() {
        let mut m = Model::new();
        let x = m.new_var(0, 9);
        let objective =
            ClosureObjective::new(move |store: &DomainStore| store.value(x) as i64, |_| 0);
        let config = SearchConfig {
            incumbent: Some(vec![7]),
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(0));
        assert!(!outcome.stats.incumbent_kept);
        assert!(outcome.stats.completed);
    }

    #[test]
    fn infeasible_incumbents_are_ignored() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..2).map(|_| m.new_var(0, 1)).collect();
        m.post(AllDifferent::new(vars.clone()));
        let objective = ClosureObjective::new(
            {
                let vars = vars.clone();
                move |store: &DomainStore| vars.iter().map(|&v| store.value(v) as i64).sum()
            },
            |_| 0,
        );
        let config = SearchConfig {
            // Violates AllDifferent: must be discarded, not trusted.
            incumbent: Some(vec![1, 1]),
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        assert_eq!(outcome.best_cost, Some(1), "0 + 1 in some order");
        assert!(outcome.stats.completed);
    }

    #[test]
    fn luby_restarts_preserve_optimality_and_are_counted() {
        // A tight packing with real dead-ends: 6 items of size 3 on 3 bins
        // of capacity 6, so any third item on a bin wipes out.  A scale-1
        // Luby policy must restart, and the search must still terminate
        // with the proven optimum because the budgets grow geometrically.
        let mut m = Model::new();
        let vars: Vec<_> = (0..6).map(|_| m.new_var(0, 2)).collect();
        m.post(BinPacking::new(vars.clone(), vec![3; 6], vec![6; 3]));
        // Reward putting early items on high bins so that the min-value DFS
        // explores (and prunes) a lot before the optimum; the lower bound
        // over fixed variables makes the bound pruning register failures,
        // which is what the Luby budget counts.
        let weight = |i: usize, v: u32| (6 - i as i64) * (2 - v as i64);
        let objective = ClosureObjective::new(
            {
                let vars = vars.clone();
                move |store: &DomainStore| {
                    vars.iter()
                        .enumerate()
                        .map(|(i, &v)| weight(i, store.value(v)))
                        .sum()
                }
            },
            {
                let vars = vars.clone();
                move |store: &DomainStore| {
                    vars.iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            store
                                .domain(v)
                                .iter()
                                .map(|value| weight(i, value))
                                .min()
                                .unwrap_or(0)
                        })
                        .sum()
                }
            },
        );
        let config = SearchConfig {
            restarts: Some(RestartPolicy::luby(1)),
            ..Default::default()
        };
        let outcome = Search::new(&m, config).minimize(&objective);
        assert!(outcome.stats.completed);
        assert!(outcome.stats.restarts > 0, "scale-1 budgets must fire");
        // Optimum: the two earliest items on bin 2, the next two on bin 1,
        // the last two on bin 0 -> cost 0+0 + (4+3)*1 + (2+1)*2 = 13.
        assert_eq!(outcome.best_cost, Some(13));
    }

    #[test]
    fn bin_packing_placement_end_to_end() {
        // 4 VMs of CPU demand 1 on 2 nodes of capacity 2: a perfect split.
        let mut m = Model::new();
        let vars: Vec<_> = (0..4).map(|_| m.new_var(0, 1)).collect();
        m.post(BinPacking::new(vars.clone(), vec![1; 4], vec![2, 2]));
        let s = Search::new(&m, SearchConfig::default()).solve().unwrap();
        let on_zero = vars.iter().filter(|&&v| s[v] == 0).count();
        assert_eq!(on_zero, 2);
    }
}
