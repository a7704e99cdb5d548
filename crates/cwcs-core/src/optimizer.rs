//! Constraint-programming optimization of the cluster-wide context switch
//! (Section 4.3).
//!
//! Given the current configuration and the vjob states chosen by the decision
//! module, many equivalent viable configurations exist; they differ by the
//! cost of the reconfiguration plan that reaches them.  The optimizer builds
//! a CP model over the placement of the VMs that must run:
//!
//! * one assignment variable per running VM whose domain is the set of nodes;
//! * one bin-packing constraint per resource dimension (CPU, memory and —
//!   when some VM demands it — network bandwidth), the multi-knapsack
//!   constraint of the paper generalized over [`Dimension::ALL`];
//! * a branch & bound objective that estimates the cost of the induced plan
//!   from the VMs already assigned (migration = `Dm`, local resume = `Dm`,
//!   remote resume = `2·Dm`, run/stop = 0), exactly the incremental estimate
//!   Entropy uses while the configuration is being constructed;
//! * first-fail variable ordering weighted by the VM demands ("VMs with
//!   important CPU and memory requirements are treated earlier") and a value
//!   ordering that tries each VM's current location first so that cheap
//!   configurations are found early;
//! * a solve timeout: the best configuration found so far is returned when
//!   the time budget expires (40 s in the Figure 10 experiment).
//!
//! The First-Fit-Decreasing baseline ([`PlanOptimizer::ffd_outcome`]) stops
//! at the first viable configuration, without any cost consideration: it is
//! the comparison point of Figure 10.
//!
//! # Repair-based partial reconfiguration
//!
//! At cluster scale a full re-solve is hopeless: 500 nodes and thousands of
//! VMs give the bin-packing model a search space no time budget survives.
//! The paper's optimizer stays inside its timeout because it solves a
//! *repair* problem instead: only the VMs that are misplaced (hosted on an
//! overloaded node) or whose state must change for the decided vjob set are
//! reconsidered; every other running VM keeps its host.  In
//! [`OptimizerMode::Repair`] the optimizer
//!
//! 1. splits the VMs that must run into **pinned** (running on a healthy
//!    node: they stay put) and **movable** (waiting, sleeping, or hosted on
//!    an overloaded node);
//! 2. builds the **candidate node set**: the nodes already involved (current
//!    hosts and image locations of the movable VMs, overloaded nodes) plus a
//!    configurable *halo* of extra destination nodes ranked by the capacity
//!    left — in the sub-problem's scarcest resource dimension — once the
//!    pinned VMs are accounted for;
//! 3. solves the reduced placement model over movable VMs × candidate nodes,
//!    with the node capacities debited by the pinned VMs, **seeding the
//!    branch & bound with a greedy keep-current-host incumbent** (so "no
//!    worse than today" is the first incumbent) and Luby restarts so the
//!    anytime contract holds on large sub-problems;
//! 4. **grafts** the sub-solution back onto the untouched configuration and
//!    plans the switch.  If the candidate set turns out too small the halo
//!    is doubled and the sub-problem re-solved; the final fallback is the
//!    full First-Fit-Decreasing packing.
//!
//! By construction the repair outcome never costs more than the grafted
//! incumbent: if planning the search's solution somehow exceeds the
//! incumbent's plan cost, the incumbent target is returned instead.
//!
//! # The set-diff model-patch protocol
//!
//! An incremental solve ([`PlanOptimizer::optimize_incremental`]) keeps the
//! placement model of the previous solve in its [`SolverMemory`] and tries
//! to *patch* it instead of rebuilding.  Requiring the exact same VM list
//! would make the cache dead under streaming arrivals — every tick's new
//! vjobs change the movable set — so the cache tolerates a **bounded
//! set-diff**, keyed by [`VmId`]:
//!
//! * VMs that left the sub-problem have their host variable **retired**
//!   (fixed to a singleton, excluded from the packing constraints — the
//!   search can never branch on it);
//! * VMs that arrived **recycle** a retired variable slot (domain reset,
//!   renamed) or append a fresh variable when no slot is free;
//! * the packing constraints are re-posted over the live variables **into
//!   their original propagator slots** ([`PackingSlots::resize`]), keeping
//!   the fixpoint iteration order;
//! * a candidate-node list is always patch-compatible: the model only
//!   encodes the node *count* (the variable domains `[0, nodes-1]`), so a
//!   count change resets the live domains and everything else — capacities,
//!   move costs, preferred values — is re-derived per solve anyway.
//!
//! The patch is refused — falling back to a counted rebuild — when the diff
//! exceeds [`PlanOptimizer::model_patch_budget`], when a packing dimension's
//! inertness flips, or when retired slots would outnumber live variables
//! (every store clone pays for zombie domains, so a shrunken problem
//! eventually compacts).
//!
//! Because recycled slots assign variable indices out of problem order, the
//! searches run with explicit first-fail tie-break *ranks* (the problem
//! order) and the incumbents are scattered into variable-slot order: a
//! patched model is **bit-identical in search behavior** to a freshly built
//! one — same tree, same statistics — which `tests/lockstep.rs` and the
//! solver's `property_setdiff` suite hold it to.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

use cwcs_model::{
    Configuration, Dimension, NodeId, ResourceDemand, Vjob, VjobState, VmAssignment, VmId, VmState,
    NUM_RESOURCE_DIMENSIONS,
};
use cwcs_plan::{ActionCostModel, PlanCost, Planner, PlannerError, ReconfigurationPlan};
use cwcs_sim::monitor::{ClusterView, ObservationDelta};
use cwcs_solver::constraints::{MultiDimPacking, PackingSlots};
use cwcs_solver::portfolio::{PortfolioConfig, PortfolioSearch, PortfolioStats};
use cwcs_solver::search::{
    ClosureObjective, RestartPolicy, Search, SearchConfig, SearchStats, ValueSelection,
    VariableSelection,
};
use cwcs_solver::{Model, VarId};

use crate::decision::Decision;
use crate::ffd::{FirstFitDecreasing, PackingPolicy};

/// Number of leading dimensions whose packing constraint is posted even when
/// every size is zero: the paper's (CPU, memory) pair, derived from
/// [`Dimension::is_legacy`] so there is a single source of truth.  See
/// [`MultiDimPacking::post`] — this is what keeps the 2-dimensional search
/// bit-identical to the historical pair-based model.
/// Default [`PlanOptimizer::model_patch_budget`]: sized so one streaming
/// tick of vjob arrivals at the 10k-node benchmark shape (1 000 vjobs × 2
/// VMs arriving while the previous tick's 2 000 leave the movable set ≈ a
/// 4 000-VM diff) still patches instead of rebuilding.
pub const DEFAULT_MODEL_PATCH_BUDGET: usize = 4096;

const LEGACY_DIMS: usize = {
    let mut n = 0;
    while n < NUM_RESOURCE_DIMENSIONS && Dimension::ALL[n].is_legacy() {
        n += 1;
    }
    n
};

/// How the optimizer scopes the placement problem.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OptimizerMode {
    /// Re-place every VM that must run (the paper's Figure 10 setting).
    #[default]
    Full,
    /// Repair-based partial reconfiguration: keep healthy running VMs where
    /// they are and re-place only the VMs that must change, over a reduced
    /// candidate node set (see the module docs).
    Repair(RepairConfig),
}

impl OptimizerMode {
    /// Repair mode with the default halo and restart settings.
    pub fn repair() -> Self {
        OptimizerMode::Repair(RepairConfig::default())
    }
}

/// Tuning of [`OptimizerMode::Repair`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Number of extra candidate destination nodes (beyond the nodes the
    /// movable VMs already involve) admitted into the sub-problem, ranked by
    /// free capacity after pinning.  Doubled on each widening round.
    pub halo: usize,
    /// Luby restart scale of the sub-problem search; `None` disables
    /// restarts.
    pub restart_scale: Option<u64>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            halo: 16,
            restart_scale: Some(256),
        }
    }
}

/// Statistics of one repair-mode optimization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// VMs re-placed by the sub-problem.
    pub movable_vms: usize,
    /// VMs pinned to their current host.
    pub pinned_vms: usize,
    /// Candidate destination nodes of the (last) sub-problem.
    pub candidate_nodes: usize,
    /// Halo-widening rounds performed (0 when the first candidate set
    /// sufficed).
    pub widenings: u32,
    /// Plan cost of the grafted greedy incumbent, when one existed.
    pub incumbent_cost: Option<u64>,
    /// True when every candidate set failed and the optimizer fell back to
    /// the full First-Fit-Decreasing packing.
    pub fell_back_to_full: bool,
}

/// Search state carried from one solve to the next by a warm-started
/// optimizer (see [`PlanOptimizer::with_warm_start`]): the previous
/// iteration's placement seeds the value ordering (each VM first tries the
/// node it was just assigned to), and `next_diversify` continues the Luby
/// restart schedule where the previous solve stopped instead of replaying
/// its prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmStart {
    /// Host chosen for each placed VM by the previous solve.
    pub placement: BTreeMap<VmId, NodeId>,
    /// Diversification index the next solve starts from (the previous
    /// solve's [`SearchStats::final_run`] plus one).
    pub next_diversify: u64,
}

/// The persistent solver state of an incremental control loop: the packing
/// demand table patched per [`ObservationDelta`], the cached placement model
/// (variables + packing propagators, re-parameterized in place via
/// [`PackingSlots::patch`] when the problem shape is unchanged), and the
/// warm-start state of the search.
///
/// [`PlanOptimizer::optimize_incremental`] threads this through every solve;
/// [`PlanOptimizer::optimize`] is the same solve against fresh memory.  The
/// memory is purely an accelerator: with warm start disabled (the default)
/// a solve against memory patched over many ticks is bit-identical to one
/// against fresh memory on the same inputs — the lockstep suite in
/// `tests/lockstep.rs` holds patched memory to that contract.
#[derive(Clone, Default)]
pub struct SolverMemory {
    /// Version of the [`ClusterView`] the demand table was last patched to.
    pub view_version: u64,
    /// Per-VM packing demand under the optimizer's [`PackingPolicy`],
    /// maintained from the changed-VM set of each delta.
    demands: BTreeMap<VmId, ResourceDemand>,
    /// Warm-start state of the previous solve (`None` until a warm-started
    /// solve completes).
    pub warm: Option<WarmStart>,
    /// The cached placement model, patched in place while the VM set stays
    /// within the set-diff budget of the cached one (see the module docs).
    cached: Option<CachedModel>,
    /// Solves that reused the cached model (same-shape re-parameterizations
    /// plus set-diff patches).
    pub model_patches: u64,
    /// The subset of [`SolverMemory::model_patches`] that went through the
    /// set-diff path (variables retired, recycled or appended) rather than
    /// a same-VM-set re-parameterization.
    pub model_set_diff_patches: u64,
    /// Solves that had to rebuild the model (cold cache, over-budget diff,
    /// packing-dimension flip or zombie compaction).
    pub model_rebuilds: u64,
}

impl fmt::Debug for SolverMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverMemory")
            .field("view_version", &self.view_version)
            .field("demands", &self.demands.len())
            .field("warm", &self.warm)
            .field("cached", &self.cached.as_ref().map(|c| c.vars.len()))
            .field("model_patches", &self.model_patches)
            .field("model_set_diff_patches", &self.model_set_diff_patches)
            .field("model_rebuilds", &self.model_rebuilds)
            .finish()
    }
}

impl SolverMemory {
    /// Fresh, empty solver memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of VMs tracked by the demand table.
    pub fn tracked_vms(&self) -> usize {
        self.demands.len()
    }

    /// Drop every cached structure (demand table, model, warm state), as a
    /// full resync does.  The next solve rebuilds from the configuration.
    pub fn invalidate(&mut self) {
        self.demands.clear();
        self.cached = None;
        self.warm = None;
    }
}

/// A placement model kept across solves: patched in place while the new
/// sub-problem's VM set stays within the set-diff budget of the cached one
/// (see the module docs), rebuilt otherwise.
#[derive(Clone)]
struct CachedModel {
    model: Model,
    /// Live `(VM, variable slot)` pairs, in the problem order of the solve
    /// that produced them.
    vars: Vec<(VmId, VarId)>,
    /// Retired variable slots (fixed to a singleton, excluded from the
    /// packing constraints), recyclable for arriving VMs.
    retired: Vec<VarId>,
    /// Candidate-node count the live domains are `[0, count - 1]` over.
    /// Node *identity* is not cached: capacities, move costs and preferred
    /// values are re-derived from the problem on every solve.
    node_count: usize,
    slots: PackingSlots,
}

/// A successfully patched [`CachedModel`], ready to search.
struct PatchedModel {
    model: Model,
    vars: Vec<(VmId, VarId)>,
    retired: Vec<VarId>,
    slots: PackingSlots,
    /// True when the VM set changed (the patch retired, recycled or
    /// appended variables) — counted as a set-diff patch.
    set_diff: bool,
}

impl CachedModel {
    /// Patch this model to the sub-problem `(vms, node_count, sizes,
    /// capacities)`, consuming the cache.  Returns `None` — the caller
    /// rebuilds — when the VM set-diff exceeds `budget`, a packing
    /// dimension's inertness flipped, or retired slots would outnumber the
    /// live variables (zombie compaction).
    fn patch(
        self,
        vms: &[VmId],
        node_count: usize,
        sizes: &[Vec<u64>],
        capacities: &[Vec<u64>],
        budget: usize,
    ) -> Option<PatchedModel> {
        let CachedModel {
            mut model,
            vars,
            mut retired,
            node_count: cached_nodes,
            mut slots,
        } = self;
        let cached: BTreeMap<VmId, VarId> = vars.iter().copied().collect();
        let wanted: BTreeSet<VmId> = vms.iter().copied().collect();
        let removed: Vec<VarId> = vars
            .iter()
            .filter(|(vm, _)| !wanted.contains(vm))
            .map(|&(_, var)| var)
            .collect();
        let added = vms.iter().filter(|vm| !cached.contains_key(vm)).count();
        if removed.len() + added > budget {
            return None;
        }
        // Zombie compaction: recycling keeps the variable count flat under
        // balanced churn, but a shrinking sub-problem strands retired slots
        // and every store clone of the search pays for them.  Rebuild when
        // they would outnumber the live variables (small models are exempt:
        // a handful of zombies is cheaper than re-posting).
        let free = retired.len() + removed.len();
        let appended = added.saturating_sub(free);
        let total_after = model.var_count() + appended;
        if total_after > (2 * vms.len()).max(64) {
            return None;
        }
        // An inertness flip needs a different propagator set: pre-check so
        // a refusal never leaves a half-patched model behind.
        if !slots.dims_compatible(sizes, LEGACY_DIMS) {
            return None;
        }
        let set_diff = !removed.is_empty() || added > 0;
        for &var in &removed {
            model.retire_var(var);
            retired.push(var);
        }
        let domain_hi = node_count as u32 - 1;
        let reset_domains = node_count != cached_nodes;
        let mut new_vars: Vec<(VmId, VarId)> = Vec::with_capacity(vms.len());
        for &vm in vms {
            // `cached` only holds live pairs, and every cached VM of `vms`
            // survived the removal pass above, so a hit is a kept variable.
            let var = match cached.get(&vm) {
                Some(&var) => {
                    if reset_domains {
                        model.reset_var(var, 0, domain_hi);
                    }
                    var
                }
                None => match retired.pop() {
                    Some(var) => {
                        model.reset_var(var, 0, domain_hi);
                        model.rename_var(var, format!("host({vm})"));
                        var
                    }
                    None => model.new_named_var(format!("host({vm})"), 0, domain_hi),
                },
            };
            new_vars.push((vm, var));
        }
        let ids: Vec<VarId> = new_vars.iter().map(|&(_, var)| var).collect();
        // Compatibility was pre-checked, so the resize cannot refuse.
        let resized = slots.resize(&mut model, &ids, sizes, capacities, LEGACY_DIMS);
        debug_assert!(resized, "dimension compatibility was pre-checked");
        if !resized {
            return None;
        }
        Some(PatchedModel {
            model,
            vars: new_vars,
            retired,
            slots,
            set_diff,
        })
    }
}

/// Result of an optimization: the chosen target configuration, its plan and
/// the associated costs.
#[derive(Debug, Clone)]
pub struct OptimizedOutcome {
    /// The target configuration (viable, with the requested vjob states).
    pub target: Configuration,
    /// The reconfiguration plan from the current configuration.
    pub plan: ReconfigurationPlan,
    /// Cost breakdown of the plan (Table 1 model).
    pub cost: PlanCost,
    /// Search statistics (empty for the FFD baseline).  For a portfolio
    /// solve these are the aggregate over the workers (counts summed, the
    /// race's wall-clock time).
    pub stats: SearchStats,
    /// Portfolio race breakdown (per-worker statistics, winning worker),
    /// `None` when the solve ran single-threaded.
    pub portfolio: Option<PortfolioStats>,
    /// Sub-problem statistics, `None` outside repair mode.
    pub repair: Option<RepairStats>,
}

/// Errors raised by the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerError {
    /// The requested states do not fit on the cluster at all.
    NoViablePlacement,
    /// The planner could not sequence the actions.
    Planner(PlannerError),
    /// A vjob references a VM unknown to the configuration.
    UnknownVm(VmId),
}

impl fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizerError::NoViablePlacement => {
                write!(
                    f,
                    "no viable placement exists for the requested vjob states"
                )
            }
            OptimizerError::Planner(e) => write!(f, "planning failed: {e}"),
            OptimizerError::UnknownVm(vm) => write!(f, "unknown VM {vm}"),
        }
    }
}

impl std::error::Error for OptimizerError {}

impl From<PlannerError> for OptimizerError {
    fn from(e: PlannerError) -> Self {
        OptimizerError::Planner(e)
    }
}

/// A reduced (or full) placement sub-problem: which VMs to place over which
/// nodes, with what capacities.
struct PlacementProblem {
    /// VMs to place.
    vms: Vec<VmId>,
    /// Candidate nodes, in domain-value order.
    nodes: Vec<NodeId>,
    /// Per-node capacity vector, one entry per candidate node (already
    /// debited by pinned VMs in repair mode).
    capacities: Vec<ResourceDemand>,
    /// Incumbent placement (indices into `nodes`), when one is known.
    incumbent: Option<Vec<u32>>,
    /// Luby restart policy of the search.
    restarts: Option<RestartPolicy>,
    /// Diversification index of the search (0 = the canonical ordering; a
    /// warm-started solve continues the previous solve's restart schedule).
    diversify: u64,
    /// Preferred-value override from the previous solve's placement; VMs
    /// absent from the map (or whose warm node left the candidate set) fall
    /// back to the current-host/image anchor.
    warm_placement: Option<BTreeMap<VmId, NodeId>>,
}

/// The plan optimizer.
#[derive(Debug, Clone)]
pub struct PlanOptimizer {
    /// Time budget of the branch & bound search.
    pub timeout: Duration,
    /// Optional deterministic budget: maximum number of search nodes per
    /// solve.  Benchmarks set this (together with a generous timeout) when
    /// byte-identical artifacts across runs matter more than wall-clock
    /// fidelity.  With a portfolio the budget applies **per worker**, and
    /// the race switches to the deterministic reduction mode (independent
    /// workers, `(cost, worker id)` winner — see `cwcs_solver::portfolio`).
    pub node_limit: Option<u64>,
    /// Number of portfolio workers racing each placement solve (1 = the
    /// plain single-threaded search).
    pub solver_workers: usize,
    /// Scope of the placement problem (full re-solve or repair).
    pub mode: OptimizerMode,
    /// How booting (waiting) VMs are budgeted when packing: by reservation
    /// (the default, so a boot never transiently overloads its node) or by
    /// observed demand (the historical behavior).  See [`PackingPolicy`].
    pub packing: PackingPolicy,
    /// Warm-start incremental solves from the previous iteration's search
    /// state (see [`WarmStart`]).  Off by default: a warm-started search
    /// explores a different prefix, so decisions may legitimately differ
    /// from a cold solve — callers that need bit-stable artifacts leave
    /// this unset.
    pub warm_start: bool,
    /// Maximum VM set-diff (removed + added) the cached placement model
    /// absorbs by patching variables in place before an incremental solve
    /// falls back to a rebuild — see the module docs.  The default covers a
    /// full streaming tick of arrivals at the 10k-node benchmark shape;
    /// `0` disables set-diff patching (only exact same-set reuse remains).
    pub model_patch_budget: usize,
    /// Cost model used both for the search estimate and the final plan cost.
    pub cost_model: ActionCostModel,
    /// Planner used to sequence the chosen configuration.
    pub planner: Planner,
}

impl Default for PlanOptimizer {
    fn default() -> Self {
        PlanOptimizer {
            timeout: Duration::from_secs(40),
            node_limit: None,
            solver_workers: 1,
            mode: OptimizerMode::Full,
            packing: PackingPolicy::default(),
            warm_start: false,
            model_patch_budget: DEFAULT_MODEL_PATCH_BUDGET,
            cost_model: ActionCostModel::paper(),
            planner: Planner::new(),
        }
    }
}

impl PlanOptimizer {
    /// An optimizer with the given time budget.
    pub fn with_timeout(timeout: Duration) -> Self {
        PlanOptimizer {
            timeout,
            ..Default::default()
        }
    }

    /// Select the optimizer mode.
    pub fn with_mode(mut self, mode: OptimizerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set a deterministic search-node budget.
    pub fn with_node_limit(mut self, node_limit: u64) -> Self {
        self.node_limit = Some(node_limit);
        self
    }

    /// Race `workers` diversified portfolio workers per placement solve.
    pub fn with_solver_workers(mut self, workers: usize) -> Self {
        self.solver_workers = workers.max(1);
        self
    }

    /// Select how booting VMs are budgeted when packing.
    pub fn with_packing_policy(mut self, packing: PackingPolicy) -> Self {
        self.packing = packing;
        self
    }

    /// Warm-start incremental solves from the previous iteration's search
    /// state (value ordering + restart schedule).  Plain
    /// [`PlanOptimizer::optimize`] calls start from fresh memory, so they
    /// always solve cold.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Set the VM set-diff budget of cached-model patching (see
    /// [`PlanOptimizer::model_patch_budget`]).
    pub fn with_model_patch_budget(mut self, budget: usize) -> Self {
        self.model_patch_budget = budget;
        self
    }

    /// Optimize: find a cheap viable configuration implementing `decision`
    /// and the plan that reaches it from `current`.  This is the first tick
    /// of an incremental solve: a full observation of `current` applied to
    /// a fresh [`ClusterView`], synced into a fresh [`SolverMemory`], then
    /// [`PlanOptimizer::optimize_incremental`].
    pub fn optimize(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let delta = ObservationDelta::full_of(current);
        let mut view = ClusterView::new();
        view.apply(&delta);
        let mut memory = SolverMemory::new();
        self.sync_memory(&mut memory, &delta, current);
        self.optimize_incremental(&mut memory, &view, current, decision, vjobs)
    }

    /// Patch the persistent demand table from one observation delta: only
    /// the VMs the delta names are re-priced (a full delta rebuilds the
    /// whole table and drops the cached model, as a resync must).  Demands
    /// are read from the configuration ground truth under the optimizer's
    /// packing policy, so the table always equals what a from-scratch solve
    /// would compute.
    pub fn sync_memory(
        &self,
        memory: &mut SolverMemory,
        delta: &ObservationDelta,
        current: &Configuration,
    ) {
        if delta.full {
            memory.invalidate();
            memory.demands = current
                .vms()
                .map(|vm| (vm.id, self.packing.packing_demand(current, vm.id)))
                .collect();
        } else {
            for &vm in delta.vms.keys() {
                memory
                    .demands
                    .insert(vm, self.packing.packing_demand(current, vm));
            }
        }
        memory.view_version = delta.version;
    }

    /// Optimize against the persistent solver state: the overload set comes
    /// from the incrementally-maintained [`ClusterView`] (O(changes) per
    /// tick instead of an O(nodes · VMs) rescan), demands come from the
    /// memory's patched table, the cached placement model is patched in
    /// place when the new problem is within its set-diff budget, and — when
    /// [`PlanOptimizer::with_warm_start`] is set — the search continues the
    /// previous iteration's value ordering and restart schedule.  `view`
    /// and `memory` must be synced to `current` (see
    /// [`PlanOptimizer::sync_memory`]).
    pub fn optimize_incremental(
        &self,
        memory: &mut SolverMemory,
        view: &ClusterView,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let warm = if self.warm_start {
            memory.warm.take()
        } else {
            None
        };
        let prev_diversify = warm.as_ref().map(|w| w.next_diversify).unwrap_or(0);
        let outcome = match self.mode {
            OptimizerMode::Full => {
                self.optimize_full(current, decision, vjobs, memory, warm.as_ref())?
            }
            OptimizerMode::Repair(config) => self.optimize_repair(
                current,
                decision,
                vjobs,
                config,
                memory,
                view,
                warm.as_ref(),
            )?,
        };
        if self.warm_start {
            let placement: BTreeMap<VmId, NodeId> = Self::vms_to_run(decision, vjobs)
                .into_iter()
                .filter_map(|vm| {
                    outcome
                        .target
                        .host(vm)
                        .ok()
                        .flatten()
                        .map(|node| (vm, node))
                })
                .collect();
            memory.warm = Some(WarmStart {
                placement,
                // An iteration that solved continues the restart schedule
                // after its last run; one that never searched (nothing
                // movable) keeps the previous position.
                next_diversify: (outcome.stats.final_run + 1).max(prev_diversify),
            });
        }
        Ok(outcome)
    }

    /// Full re-solve: every VM that must run is a variable over every node.
    fn optimize_full(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        memory: &mut SolverMemory,
        warm: Option<&WarmStart>,
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let must_run = Self::vms_to_run(decision, vjobs);
        let node_ids = current.node_ids();
        if node_ids.is_empty() {
            return Err(OptimizerError::NoViablePlacement);
        }
        let capacities: Vec<ResourceDemand> = node_ids
            .iter()
            .map(|&n| current.node(n).unwrap().capacity())
            .collect();
        let problem = PlacementProblem {
            vms: must_run.clone(),
            nodes: node_ids,
            capacities,
            incumbent: None,
            restarts: None,
            diversify: warm.map(|w| w.next_diversify).unwrap_or(0),
            warm_placement: warm.map(|w| {
                must_run
                    .iter()
                    .filter_map(|vm| w.placement.get(vm).map(|&n| (*vm, n)))
                    .collect()
            }),
        };
        let (solved, stats, portfolio) = self.solve_placement(current, &problem, memory)?;
        let placement = match solved {
            Some(placement) => placement,
            None => {
                // The CP search found nothing within its budget (or the
                // problem is infeasible): fall back to First-Fit Decreasing.
                FirstFitDecreasing::pack_all_policy(current, &must_run, self.packing)
                    .ok_or(OptimizerError::NoViablePlacement)?
            }
        };
        let target = Self::build_target(current, decision, vjobs, &placement)?;
        let plan = self.planner.plan(current, &target, vjobs)?;
        let cost = self.cost_model.plan_cost(&plan);
        Ok(OptimizedOutcome {
            target,
            plan,
            cost,
            stats,
            portfolio,
            repair: None,
        })
    }

    /// Build and solve the CP model of one placement (sub-)problem.
    /// Returns the chosen placement (`None` when the search found nothing),
    /// the search statistics (the portfolio aggregate when racing), and the
    /// portfolio breakdown (`None` for a single-threaded solve).
    #[allow(clippy::type_complexity)]
    fn solve_placement(
        &self,
        current: &Configuration,
        problem: &PlacementProblem,
        memory: &mut SolverMemory,
    ) -> Result<
        (
            Option<BTreeMap<VmId, NodeId>>,
            SearchStats,
            Option<PortfolioStats>,
        ),
        OptimizerError,
    > {
        let node_ids = &problem.nodes;

        // Per-VM packing demand, chosen by the packing policy (a booting VM
        // is budgeted by its reservation under `PackingPolicy::Reserved`),
        // read from the memory's patched demand table.
        let mut demands: Vec<ResourceDemand> = Vec::with_capacity(problem.vms.len());
        for &vm in &problem.vms {
            current.vm(vm).map_err(|_| OptimizerError::UnknownVm(vm))?;
            demands.push(self.memory_demand(memory, current, vm));
        }
        // One packing constraint per resource dimension, the paper's
        // multi-knapsack formulation generalized to N dimensions.  The
        // legacy (CPU, memory) constraints are posted unconditionally;
        // further dimensions only when some VM actually demands them, so a
        // model whose extra dimensions are inert is bit-identical to the
        // historical 2-dimensional one.
        let sizes: Vec<Vec<u64>> = Dimension::ALL
            .iter()
            .map(|&d| demands.iter().map(|dem| dem.get(d)).collect())
            .collect();
        let capacities: Vec<Vec<u64>> = Dimension::ALL
            .iter()
            .map(|&d| problem.capacities.iter().map(|c| c.get(d)).collect())
            .collect();

        // --- Build the CP model, or patch the cached one -----------------
        // When the memory holds a model whose VM set is within
        // the set-diff budget of this sub-problem's, patch it in place:
        // retire the variables of departed VMs, recycle or append variables
        // for arrivals, and re-post the packing constraints over the live
        // variables into their original propagator slots (see the module
        // docs).  A patched model is bit-identical in search behavior to a
        // freshly built one — the explicit tie-break ranks below make the
        // branching follow the problem order whatever the variable slots —
        // so the search stays byte-stable either way.  `CachedModel::patch`
        // refuses over-budget diffs, dimension flips and zombie bloat, and
        // we rebuild.
        let mut reused: Option<(Model, Vec<(VmId, VarId)>, Vec<VarId>, PackingSlots)> = None;
        if let Some(cache) = memory.cached.take() {
            if let Some(patched) = cache.patch(
                &problem.vms,
                node_ids.len(),
                &sizes,
                &capacities,
                self.model_patch_budget,
            ) {
                memory.model_patches += 1;
                if patched.set_diff {
                    memory.model_set_diff_patches += 1;
                }
                reused = Some((patched.model, patched.vars, patched.retired, patched.slots));
            }
        }
        let (model, vars, retired, slots) = match reused {
            Some(built) => built,
            None => {
                let mut model = Model::new();
                let mut vars: Vec<(VmId, VarId)> = Vec::with_capacity(problem.vms.len());
                for &vm in &problem.vms {
                    let var =
                        model.new_named_var(format!("host({vm})"), 0, node_ids.len() as u32 - 1);
                    vars.push((vm, var));
                }
                let ids: Vec<VarId> = vars.iter().map(|(_, v)| *v).collect();
                let slots = MultiDimPacking::post_patchable(
                    &mut model,
                    &ids,
                    &sizes,
                    &capacities,
                    LEGACY_DIMS,
                );
                memory.model_rebuilds += 1;
                (model, vars, Vec::new(), slots)
            }
        };
        let var_ids: Vec<VarId> = vars.iter().map(|(_, v)| *v).collect();

        // --- Heuristics ---------------------------------------------------
        // Preferred value: the VM's current node (running) or the node
        // holding its image (sleeping), which yields zero-migration / local
        // resume placements first.
        let node_index: BTreeMap<NodeId, u32> = node_ids
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let mut preferred: Vec<Option<u32>> = vec![None; model.var_count()];
        // Per-variable move cost table: cost of assigning VM i to node j.
        let mut move_costs: Vec<Vec<u64>> = Vec::with_capacity(problem.vms.len());
        for (i, &vm) in problem.vms.iter().enumerate() {
            let assignment = current
                .assignment(vm)
                .map_err(|_| OptimizerError::UnknownVm(vm))?;
            let dm = demands[i].memory.raw();
            let anchor = match assignment.state {
                VmState::Running => assignment.host,
                VmState::Sleeping => assignment.image,
                _ => None,
            };
            // A warm-started solve first tries the node the previous
            // iteration chose; VMs without warm state (or whose warm node
            // left the candidate set) keep the current-host/image anchor.
            let warm_anchor = problem
                .warm_placement
                .as_ref()
                .and_then(|w| w.get(&vm))
                .and_then(|n| node_index.get(n).copied());
            preferred[vars[i].1 .0] =
                warm_anchor.or_else(|| anchor.and_then(|n| node_index.get(&n).copied()));
            let costs: Vec<u64> = node_ids
                .iter()
                .map(|&node| self.move_cost(&assignment, dm, node))
                .collect();
            move_costs.push(costs);
        }
        let weights: Vec<u64> = {
            // Weight used by first-fail tie-breaking: bigger VMs first.  The
            // network term is additive like the memory one, so it is inert
            // (zero) on legacy 2-dimensional models.
            let mut w = vec![0u64; model.var_count()];
            for (i, (_, var)) in vars.iter().enumerate() {
                let d = &demands[i];
                w[var.0] = d.memory.raw() + d.cpu.raw() as u64 * 10 + d.net.raw();
            }
            w
        };
        // Tie-break rank: the VM's position in the problem order.  On a
        // fresh model variable indices already follow that order, so the
        // ranks change nothing; on a patched model they make the branching
        // ignore how slots were recycled, keeping the tree bit-identical to
        // a fresh build's.  Retired variables are fixed and never ranked.
        let ranks: Vec<u64> = {
            let mut r = vec![u64::MAX; model.var_count()];
            for (i, (_, var)) in vars.iter().enumerate() {
                r[var.0] = i as u64;
            }
            r
        };
        // Incumbents are full per-variable vectors: scatter the
        // problem-order values into variable-slot order, with every retired
        // variable sitting at its singleton value.
        let scatter = |values: &[u32]| -> Vec<u32> {
            let mut full = vec![0u32; model.var_count()];
            for (i, &(_, var)) in vars.iter().enumerate() {
                full[var.0] = values[i];
            }
            full
        };

        let config = SearchConfig {
            variable_selection: VariableSelection::FirstFail {
                weights: Some(weights),
                ranks: Some(ranks),
            },
            value_selection: ValueSelection::Preferred(preferred),
            timeout: Some(self.timeout),
            node_limit: self.node_limit,
            incumbent: problem.incumbent.as_deref().map(scatter),
            restarts: problem.restarts.clone(),
            diversify: problem.diversify,
            ..Default::default()
        };

        // --- Objective -----------------------------------------------------
        let objective_vars = var_ids.clone();
        let move_costs_eval = move_costs.clone();
        let move_costs_lb = move_costs;
        let evaluate = move |store: &cwcs_solver::DomainStore| -> i64 {
            objective_vars
                .iter()
                .enumerate()
                .map(|(i, &var)| move_costs_eval[i][store.value(var) as usize] as i64)
                .sum()
        };
        let objective_vars_lb = var_ids.clone();
        // Each VM's globally cheapest node and its cost: while that node is
        // still a candidate it is also the cheapest candidate, so the VM's
        // floor needs no scan.
        let floors: Vec<(u32, i64)> = move_costs_lb
            .iter()
            .map(|costs| {
                costs
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &c)| c)
                    .map_or((u32::MAX, 0), |(n, &c)| (n as u32, c as i64))
            })
            .collect();
        let lower_bound = move |store: &cwcs_solver::DomainStore| -> i64 {
            objective_vars_lb
                .iter()
                .zip(&floors)
                .enumerate()
                .map(|(i, (&var, &(cheapest, floor)))| {
                    let domain = store.domain(var);
                    if domain.contains(cheapest) {
                        floor
                    } else {
                        // The cheapest still-possible node is a valid lower
                        // bound (for a fixed VM, its own cost).
                        domain
                            .iter()
                            .map(|n| move_costs_lb[i][n as usize] as i64)
                            .min()
                            .unwrap_or(0)
                    }
                })
                .sum()
        };
        let objective = ClosureObjective::new(evaluate, lower_bound);

        // --- Search ---------------------------------------------------------
        // A single worker goes through the plain search; two or more race a
        // portfolio, deterministic (static partition, no stealing, fixed node
        // budgets) exactly when the caller pinned a node budget.  The race is
        // seeded with a first-fit-decreasing packing as a second incumbent:
        // where the keep-current-host incumbent is migration-averse, the FFD
        // seed is migration-heavy but almost always feasible, so the FFD
        // rider worker starts the race with a proper upper bound even when
        // the current placement is badly overloaded.
        let (best, stats, portfolio) = if self.solver_workers <= 1 {
            let outcome = Search::new(&model, config).minimize(&objective);
            (outcome.best, outcome.stats, None)
        } else {
            let race = PortfolioConfig {
                workers: self.solver_workers,
                deterministic: self.node_limit.is_some(),
                ffd_incumbent: Self::ffd_seed(&demands, &problem.capacities)
                    .as_deref()
                    .map(scatter),
                ..Default::default()
            };
            let outcome = PortfolioSearch::new(&model, config, race).minimize(&objective);
            (outcome.best, outcome.stats, Some(outcome.portfolio))
        };
        let placement = best.map(|solution| {
            vars.iter()
                .map(|&(vm, var)| (vm, node_ids[solution[var] as usize]))
                .collect()
        });
        // Keep the model for the next solve over a nearby problem shape.
        memory.cached = Some(CachedModel {
            model,
            vars,
            retired,
            node_count: node_ids.len(),
            slots,
        });
        Ok((placement, stats, portfolio))
    }

    /// The packing demand of `vm`: the memory's patched table, or the
    /// configuration ground truth for a VM the table has not seen.  Both
    /// are computed by [`PackingPolicy::packing_demand`], so they always
    /// agree — the table only saves the per-solve recompute.
    fn memory_demand(
        &self,
        memory: &SolverMemory,
        current: &Configuration,
        vm: VmId,
    ) -> ResourceDemand {
        match memory.demands.get(&vm) {
            Some(&demand) => demand,
            None => self.packing.packing_demand(current, vm),
        }
    }

    /// First-fit-decreasing packing of the placement sub-problem, as a seed
    /// for the portfolio's FFD rider worker: VMs sorted largest first by
    /// (memory, cpu, net), each placed on the first candidate node with
    /// spare capacity on every dimension.  Returns node *indices* in the
    /// sub-problem's candidate order, or `None` when FFD fails to pack —
    /// the race then simply runs without the extra incumbent.
    fn ffd_seed(demands: &[ResourceDemand], capacities: &[ResourceDemand]) -> Option<Vec<u32>> {
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by_key(|&i| {
            let d = &demands[i];
            (
                std::cmp::Reverse(d.memory.raw()),
                std::cmp::Reverse(d.cpu.raw()),
                std::cmp::Reverse(d.net.raw()),
                i,
            )
        });
        let mut spare: Vec<Vec<u64>> = capacities
            .iter()
            .map(|c| Dimension::ALL.iter().map(|&d| c.get(d)).collect())
            .collect();
        let mut placement = vec![0u32; demands.len()];
        for &vm in &order {
            let need: Vec<u64> = Dimension::ALL.iter().map(|&d| demands[vm].get(d)).collect();
            let node = spare
                .iter()
                .position(|s| s.iter().zip(&need).all(|(have, want)| have >= want))?;
            for (have, want) in spare[node].iter_mut().zip(&need) {
                *have -= want;
            }
            placement[vm] = node as u32;
        }
        Some(placement)
    }

    /// Cost of placing a VM (with memory demand `dm` and the given current
    /// assignment) on `node`: the incremental plan-cost estimate of the
    /// paper (migration = `Dm`, local resume = `Dm`, remote resume =
    /// `2·Dm`, run = constant).
    fn move_cost(&self, assignment: &VmAssignment, dm: u64, node: NodeId) -> u64 {
        match assignment.state {
            VmState::Running => {
                if Some(node) == assignment.host {
                    0
                } else {
                    dm
                }
            }
            VmState::Sleeping => {
                if Some(node) == assignment.image {
                    dm
                } else {
                    self.cost_model.remote_resume_factor * dm
                }
            }
            // Waiting VMs boot wherever: constant (0) cost.
            _ => self.cost_model.run_cost,
        }
    }

    /// Repair-based partial reconfiguration (see the module docs): re-place
    /// only the movable VMs over a reduced candidate node set, seed the
    /// search with a keep-current-host incumbent, and graft the sub-solution
    /// back onto the untouched configuration.
    #[allow(clippy::too_many_arguments)]
    fn optimize_repair(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        config: RepairConfig,
        memory: &mut SolverMemory,
        view: &ClusterView,
        warm: Option<&WarmStart>,
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let must_run = Self::vms_to_run(decision, vjobs);
        let node_ids = current.node_ids();
        if node_ids.is_empty() {
            return Err(OptimizerError::NoViablePlacement);
        }

        // Overloaded nodes: their running VMs are misplaced by definition
        // and must be reconsidered along with the state-changing VMs.  The
        // view's load index, maintained in O(changes) per tick, answers
        // this without rescanning every node.
        let overloaded: BTreeSet<NodeId> = view
            .overloaded_nodes()
            .into_iter()
            .map(|(node, _)| node)
            .collect();

        // Split the VMs that must run into pinned (healthy hosts, untouched)
        // and movable (waiting, sleeping, or on an overloaded node).
        let mut pinned: BTreeMap<VmId, NodeId> = BTreeMap::new();
        let mut movable: Vec<VmId> = Vec::new();
        for &vm in &must_run {
            let assignment = current
                .assignment(vm)
                .map_err(|_| OptimizerError::UnknownVm(vm))?;
            match (assignment.state, assignment.host) {
                (VmState::Running, Some(host)) if !overloaded.contains(&host) => {
                    pinned.insert(vm, host);
                }
                _ => movable.push(vm),
            }
        }

        let mut repair = RepairStats {
            movable_vms: movable.len(),
            pinned_vms: pinned.len(),
            ..Default::default()
        };

        // Nothing to re-place: the pinned placement is the whole solution.
        if movable.is_empty() {
            let target = Self::build_target(current, decision, vjobs, &pinned)?;
            let plan = self.planner.plan(current, &target, vjobs)?;
            let cost = self.cost_model.plan_cost(&plan);
            repair.incumbent_cost = Some(cost.total);
            return Ok(OptimizedOutcome {
                target,
                plan,
                cost,
                stats: SearchStats::default(),
                portfolio: None,
                repair: Some(repair),
            });
        }

        // Capacity left on every node once the pinned VMs are accounted for.
        let mut free: BTreeMap<NodeId, ResourceDemand> = node_ids
            .iter()
            .map(|&node| (node, current.node(node).unwrap().capacity()))
            .collect();
        for (&vm, node) in &pinned {
            current.vm(vm).map_err(|_| OptimizerError::UnknownVm(vm))?;
            let demand = self.memory_demand(memory, current, vm);
            let left = free.get_mut(node).expect("pinned host exists");
            *left = left.saturating_sub(&demand);
        }

        // Anchor nodes: everything the movable VMs already involve, plus the
        // overloaded nodes themselves.
        let mut anchors: BTreeSet<NodeId> = overloaded;
        for &vm in &movable {
            let assignment = current.assignment(vm).expect("checked above");
            if let Some(host) = assignment.host {
                anchors.insert(host);
            }
            if let Some(image) = assignment.image {
                anchors.insert(image);
            }
        }

        // Demand of the sub-problem, summed per resource dimension.
        let mut needed = ResourceDemand::ZERO;
        for &vm in &movable {
            current.vm(vm).map_err(|_| OptimizerError::UnknownVm(vm))?;
            needed += self.memory_demand(memory, current, vm);
        }

        // Multi-resource halo ranking: rank the candidate destinations by
        // their free capacity in the sub-problem's **scarcest** dimension —
        // the resource whose movable demand eats the largest fraction of
        // what the cluster has free.  The per-dimension pressures
        // `needed[d] / total_free[d]` are compared cross-multiplied to stay
        // in integers; the first dimension wins ties, so a CPU/memory
        // sub-problem ranks exactly as the historical pair-based code did.
        // A network-bound sub-problem thus pulls in NIC-rich nodes first
        // instead of the memory-heavy picks a blended score would make; the
        // remaining dimensions and the node id break ties deterministically.
        let mut total_free = [0u64; NUM_RESOURCE_DIMENSIONS];
        for v in free.values() {
            for d in Dimension::ALL {
                total_free[d.index()] += v.get(d);
            }
        }
        let mut scarcest = Dimension::ALL[0];
        for &d in &Dimension::ALL[1..] {
            let challenger =
                (needed.get(d) as u128) * (total_free[scarcest.index()].max(1) as u128);
            let incumbent = (needed.get(scarcest) as u128) * (total_free[d.index()].max(1) as u128);
            if challenger > incumbent {
                scarcest = d;
            }
        }
        let mut ranked_rest: Vec<NodeId> = node_ids
            .iter()
            .copied()
            .filter(|n| !anchors.contains(n))
            .collect();
        ranked_rest.sort_by(|a, b| {
            let (fa, fb) = (&free[a], &free[b]);
            fb.get(scarcest)
                .cmp(&fa.get(scarcest))
                .then_with(|| {
                    for d in Dimension::ALL {
                        if d != scarcest {
                            let ordering = fb.get(d).cmp(&fa.get(d));
                            if ordering != std::cmp::Ordering::Equal {
                                return ordering;
                            }
                        }
                    }
                    std::cmp::Ordering::Equal
                })
                .then(a.0.cmp(&b.0))
        });

        // The halo must at least be able to *hold* the movable VMs: extend
        // the ranked list until the cumulative free capacity covers the
        // movable demand on every dimension, then add `halo` more nodes of
        // slack.
        let mut acc: ResourceDemand = anchors.iter().map(|n| free[n]).sum();
        let mut base = 0usize;
        while !needed.fits_in(&acc) && base < ranked_rest.len() {
            acc += free[&ranked_rest[base]];
            base += 1;
        }

        // Warm-start state restricted to the sub-problem's movable VMs.
        let warm_movable: Option<BTreeMap<VmId, NodeId>> = warm.map(|w| {
            movable
                .iter()
                .filter_map(|vm| w.placement.get(vm).map(|&n| (*vm, n)))
                .collect()
        });
        let diversify = warm.map(|w| w.next_diversify).unwrap_or(0);

        let mut halo = config.halo.max(1);
        let (placement, incumbent_indices, stats, portfolio) = loop {
            let mut candidates: Vec<NodeId> = anchors.iter().copied().collect();
            candidates.extend(ranked_rest.iter().take(base + halo).copied());
            candidates.sort_unstable_by_key(|n| n.0);
            repair.candidate_nodes = candidates.len();

            let incumbent = self.greedy_incumbent(current, &movable, &candidates, &free);
            let problem = PlacementProblem {
                vms: movable.clone(),
                nodes: candidates.clone(),
                capacities: candidates.iter().map(|n| free[n]).collect(),
                incumbent: incumbent.clone(),
                restarts: config.restart_scale.map(RestartPolicy::luby),
                diversify,
                warm_placement: warm_movable.clone(),
            };
            let (solved, stats, portfolio) = self.solve_placement(current, &problem, memory)?;
            if let Some(placement) = solved {
                break (
                    placement,
                    incumbent.map(|ind| (candidates, ind)),
                    stats,
                    portfolio,
                );
            }
            if candidates.len() >= node_ids.len() {
                // Even the whole cluster did not help: fall back to the full
                // First-Fit-Decreasing packing (the decision module proved
                // the states fit, so this normally succeeds).
                repair.fell_back_to_full = true;
                let placement =
                    FirstFitDecreasing::pack_all_policy(current, &must_run, self.packing)
                        .ok_or(OptimizerError::NoViablePlacement)?;
                let target = Self::build_target(current, decision, vjobs, &placement)?;
                let plan = self.planner.plan(current, &target, vjobs)?;
                let cost = self.cost_model.plan_cost(&plan);
                return Ok(OptimizedOutcome {
                    target,
                    plan,
                    cost,
                    stats,
                    portfolio,
                    repair: Some(repair),
                });
            }
            repair.widenings += 1;
            halo = halo.saturating_mul(2);
        };

        // Graft the sub-solution back onto the untouched configuration.
        let mut full_placement = pinned.clone();
        full_placement.extend(placement.iter().map(|(&vm, &node)| (vm, node)));
        let target = Self::build_target(current, decision, vjobs, &full_placement)?;
        let plan = self.planner.plan(current, &target, vjobs)?;
        let cost = self.cost_model.plan_cost(&plan);

        // "No worse than the incumbent", guaranteed on *plan* costs: the
        // search objective is only an estimate (bypass migrations and
        // suspend fallbacks can re-price an action), so when an incumbent
        // existed and priced better once planned, return it instead.
        if let Some((candidates, indices)) = incumbent_indices {
            let incumbent_placement: BTreeMap<VmId, NodeId> = movable
                .iter()
                .zip(&indices)
                .map(|(&vm, &idx)| (vm, candidates[idx as usize]))
                .collect();
            if incumbent_placement == placement {
                repair.incumbent_cost = Some(cost.total);
            } else {
                let mut grafted = pinned.clone();
                grafted.extend(incumbent_placement);
                let incumbent_target = Self::build_target(current, decision, vjobs, &grafted)?;
                let incumbent_plan = self.planner.plan(current, &incumbent_target, vjobs)?;
                let incumbent_cost = self.cost_model.plan_cost(&incumbent_plan);
                repair.incumbent_cost = Some(incumbent_cost.total);
                if incumbent_cost.total < cost.total {
                    return Ok(OptimizedOutcome {
                        target: incumbent_target,
                        plan: incumbent_plan,
                        cost: incumbent_cost,
                        stats,
                        portfolio,
                        repair: Some(repair),
                    });
                }
            }
        }

        Ok(OptimizedOutcome {
            target,
            plan,
            cost,
            stats,
            portfolio,
            repair: Some(repair),
        })
    }

    /// Greedy incumbent of the repair sub-problem: place each movable VM
    /// (largest first) on its anchor node when it still fits, then on the
    /// first candidate with room.  Returns domain indices into `candidates`,
    /// or `None` when the greedy pass cannot place everything.
    fn greedy_incumbent(
        &self,
        current: &Configuration,
        movable: &[VmId],
        candidates: &[NodeId],
        free: &BTreeMap<NodeId, ResourceDemand>,
    ) -> Option<Vec<u32>> {
        let index: BTreeMap<NodeId, u32> = candidates
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let mut left: Vec<ResourceDemand> = candidates.iter().map(|n| free[n]).collect();

        // Largest VMs first, exactly like the FFD heuristic.
        let mut order: Vec<usize> = (0..movable.len()).collect();
        order.sort_by_key(|&i| {
            let d = self.packing.packing_demand(current, movable[i]);
            (
                std::cmp::Reverse((d.memory.raw(), d.cpu.raw(), d.net.raw())),
                movable[i].0,
            )
        });

        let mut chosen: Vec<Option<u32>> = vec![None; movable.len()];
        for i in order {
            let demand = self.packing.packing_demand(current, movable[i]);
            let assignment = current.assignment(movable[i]).expect("vm exists");
            let anchor = match assignment.state {
                VmState::Running => assignment.host,
                VmState::Sleeping => assignment.image,
                _ => None,
            };
            let slot = anchor
                .and_then(|n| index.get(&n).copied())
                .map(|s| s as usize)
                .filter(|&s| demand.fits_in(&left[s]))
                .or_else(|| (0..candidates.len()).find(|&s| demand.fits_in(&left[s])))?;
            left[slot] = left[slot].saturating_sub(&demand);
            chosen[i] = Some(index[&candidates[slot]]);
        }
        chosen.into_iter().collect()
    }

    /// The First-Fit-Decreasing baseline: keep the first viable configuration
    /// (the decision module's proof placement recomputed with FFD), with no
    /// cost optimization.
    pub fn ffd_outcome(
        &self,
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
    ) -> Result<OptimizedOutcome, OptimizerError> {
        let must_run = Self::vms_to_run(decision, vjobs);
        let placement = FirstFitDecreasing::pack_all_policy(current, &must_run, self.packing)
            .ok_or(OptimizerError::NoViablePlacement)?;
        let target = Self::build_target(current, decision, vjobs, &placement)?;
        let plan = self.planner.plan(current, &target, vjobs)?;
        let cost = self.cost_model.plan_cost(&plan);
        Ok(OptimizedOutcome {
            target,
            plan,
            cost,
            stats: SearchStats::default(),
            portfolio: None,
            repair: None,
        })
    }

    /// The VMs that must be running in the target configuration.
    fn vms_to_run(decision: &Decision, vjobs: &[Vjob]) -> Vec<VmId> {
        // Direct map lookup rather than materializing `running_vjobs()` and
        // scanning it per vjob: this runs on every decide of a streaming
        // control loop, where a linear scan over tens of thousands of vjobs
        // per vjob would dominate the whole solve.
        vjobs
            .iter()
            .filter(|j| decision.vjob_states.get(&j.id) == Some(&VjobState::Running))
            .flat_map(|j| j.vms.iter().copied())
            .collect()
    }

    /// Build the target configuration: running VMs take the optimized
    /// placement, the other VMs follow their vjob's target state.
    fn build_target(
        current: &Configuration,
        decision: &Decision,
        vjobs: &[Vjob],
        placement: &BTreeMap<VmId, NodeId>,
    ) -> Result<Configuration, OptimizerError> {
        let mut target = current.clone();
        for vjob in vjobs {
            let wanted = decision
                .vjob_states
                .get(&vjob.id)
                .copied()
                .unwrap_or(vjob.state);
            for &vm in &vjob.vms {
                let assignment = current
                    .assignment(vm)
                    .map_err(|_| OptimizerError::UnknownVm(vm))?;
                let next = match wanted {
                    VjobState::Running => {
                        let node = placement
                            .get(&vm)
                            .copied()
                            .ok_or(OptimizerError::NoViablePlacement)?;
                        VmAssignment::running(node)
                    }
                    VjobState::Sleeping => match assignment.state {
                        // Keep the image where it already is; a running VM
                        // suspends onto its current host.
                        VmState::Sleeping => assignment,
                        VmState::Running => {
                            VmAssignment::sleeping(assignment.host.expect("running VM has a host"))
                        }
                        _ => assignment,
                    },
                    VjobState::Terminated => match assignment.state {
                        VmState::Running => VmAssignment::terminated(),
                        // Already out of the way (never started or asleep):
                        // keep as-is, the life cycle has no single action for
                        // these transitions.
                        _ => assignment,
                    },
                    VjobState::Waiting => assignment,
                };
                // Most VMs keep their assignment tick over tick (pinned VMs
                // in repair mode in particular): skipping the no-op write
                // keeps this O(changes), not O(cluster), per decide.
                if next != assignment {
                    target
                        .set_assignment(vm, next)
                        .map_err(|_| OptimizerError::UnknownVm(vm))?;
                }
            }
        }
        Ok(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidation::FcfsConsolidation;
    use crate::decision::DecisionModule;
    use cwcs_model::{CpuCapacity, MemoryMib, Node, VjobId, Vm};
    use std::collections::BTreeSet;

    /// A cluster where every running VM is already well placed: the optimal
    /// plan is empty while FFD would reshuffle everything.
    fn settled_cluster() -> (Configuration, Vec<Vjob>) {
        let mut c = Configuration::new();
        for i in 0..4 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        let mut vjobs = Vec::new();
        for j in 0..4 {
            let vm_ids = vec![VmId(j * 2), VmId(j * 2 + 1)];
            for &vm in &vm_ids {
                c.add_vm(Vm::new(vm, MemoryMib::mib(1024), CpuCapacity::cores(1)))
                    .unwrap();
                c.set_assignment(vm, VmAssignment::running(NodeId(j)))
                    .unwrap();
            }
            let mut vjob = Vjob::new(VjobId(j), vm_ids, j as u64);
            vjob.transition_to(VjobState::Running).unwrap();
            vjobs.push(vjob);
        }
        (c, vjobs)
    }

    fn decide(c: &Configuration, vjobs: &[Vjob]) -> Decision {
        FcfsConsolidation::new()
            .decide(c, vjobs, &BTreeSet::new())
            .unwrap()
    }

    #[test]
    fn optimizer_keeps_well_placed_vms() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.cost.total, 0, "nothing should move");
        assert!(outcome.plan.is_empty());
        assert!(outcome.target.is_viable());
    }

    #[test]
    fn ffd_baseline_is_never_cheaper_than_the_optimizer() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let optimized = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let ffd = optimizer.ffd_outcome(&c, &decision, &vjobs).unwrap();
        assert!(optimized.cost.total <= ffd.cost.total);
    }

    #[test]
    fn overload_produces_suspends_and_a_viable_target() {
        // 2 nodes, 3 vjobs of 2 busy VMs each: one vjob must sleep.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        let mut vjobs = Vec::new();
        for j in 0..3u32 {
            let vm_ids = vec![VmId(j * 2), VmId(j * 2 + 1)];
            for (k, &vm) in vm_ids.iter().enumerate() {
                c.add_vm(Vm::new(vm, MemoryMib::mib(512), CpuCapacity::cores(1)))
                    .unwrap();
                if j < 2 {
                    c.set_assignment(
                        vm,
                        VmAssignment::running(NodeId((j as usize + k) as u32 % 2)),
                    )
                    .unwrap();
                }
            }
            let mut vjob = Vjob::new(VjobId(j), vm_ids, j as u64);
            if j < 2 {
                vjob.transition_to(VjobState::Running).unwrap();
            }
            vjobs.push(vjob);
        }
        let decision = decide(&c, &vjobs);
        // The third vjob cannot fit: it stays waiting; the first two run.
        assert_eq!(decision.vjob_states[&VjobId(2)], VjobState::Waiting);

        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert!(outcome.target.is_viable());
        outcome.plan.validate(&c).unwrap();
    }

    #[test]
    fn sleeping_vjob_prefers_local_resume() {
        // A sleeping vjob whose images are on node 1, with room everywhere:
        // the optimizer must resume it on node 1 (local resume, cost Dm) and
        // not elsewhere (2·Dm).
        let mut c = Configuration::new();
        for i in 0..3 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        c.add_vm(Vm::new(
            VmId(0),
            MemoryMib::mib(1024),
            CpuCapacity::cores(1),
        ))
        .unwrap();
        c.set_assignment(VmId(0), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        let mut vjob = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        vjob.transition_to(VjobState::Sleeping).unwrap();
        let vjobs = vec![vjob];
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(0)], VjobState::Running);

        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(1)));
        assert_eq!(outcome.plan.stats().local_resumes, 1);
        assert_eq!(outcome.plan.stats().remote_resumes, 0);
        assert_eq!(outcome.cost.total, 1024);
    }

    #[test]
    fn terminated_vjobs_generate_stops() {
        let (c, vjobs) = settled_cluster();
        let completed: BTreeSet<VjobId> = [VjobId(0)].into_iter().collect();
        let decision = FcfsConsolidation::new()
            .decide(&c, &vjobs, &completed)
            .unwrap();
        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.plan.stats().stops, 2);
        assert_eq!(outcome.target.state(VmId(0)).unwrap(), VmState::Terminated);
    }

    #[test]
    fn unknown_vm_errors_name_the_offending_vm() {
        // Regression: a vjob whose *second* VM is unknown to the
        // configuration used to be reported as `UnknownVm(first_vm)`.
        let mut c = Configuration::new();
        c.add_node(Node::new(
            NodeId(0),
            CpuCapacity::cores(4),
            MemoryMib::gib(8),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(1)))
            .unwrap();
        // VmId(99) is never registered.
        let vjob = Vjob::new(VjobId(0), vec![VmId(0), VmId(99)], 0);
        let mut states = BTreeMap::new();
        states.insert(VjobId(0), VjobState::Running);
        let decision = Decision {
            vjob_states: states,
            proof_configuration: c.clone(),
        };
        let optimizer = PlanOptimizer::with_timeout(Duration::from_millis(200));
        let err = optimizer.optimize(&c, &decision, &[vjob]).unwrap_err();
        assert_eq!(err, OptimizerError::UnknownVm(VmId(99)));
        assert!(err.to_string().contains("vm-99"));
    }

    #[test]
    fn repair_pins_well_placed_vms_and_produces_an_empty_plan() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.cost.total, 0, "nothing should move");
        assert!(outcome.plan.is_empty());
        let repair = outcome.repair.expect("repair stats in repair mode");
        assert_eq!(repair.movable_vms, 0);
        assert_eq!(repair.pinned_vms, 8);
        assert!(!repair.fell_back_to_full);
    }

    #[test]
    fn repair_boots_a_new_vjob_without_touching_the_rest() {
        let (mut c, mut vjobs) = settled_cluster();
        // A fifth node with room, and a waiting 2-VM vjob.
        c.add_node(Node::new(
            NodeId(4),
            CpuCapacity::cores(2),
            MemoryMib::gib(4),
        ))
        .unwrap();
        for i in 8..10 {
            c.add_vm(Vm::new(
                VmId(i),
                MemoryMib::mib(1024),
                CpuCapacity::cores(1),
            ))
            .unwrap();
        }
        vjobs.push(Vjob::new(VjobId(4), vec![VmId(8), VmId(9)], 4));
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(4)], VjobState::Running);

        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.movable_vms, 2, "only the new vjob is movable");
        assert_eq!(repair.pinned_vms, 8);
        assert_eq!(outcome.plan.stats().migrations, 0, "no one else moves");
        assert_eq!(outcome.plan.stats().runs, 2);
        assert!(outcome.target.is_viable());
        outcome.plan.validate(&c).unwrap();
    }

    #[test]
    fn repair_prefers_local_resume_like_full_mode() {
        let mut c = Configuration::new();
        for i in 0..3 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        c.add_vm(Vm::new(
            VmId(0),
            MemoryMib::mib(1024),
            CpuCapacity::cores(1),
        ))
        .unwrap();
        c.set_assignment(VmId(0), VmAssignment::sleeping(NodeId(1)))
            .unwrap();
        let mut vjob = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        vjob.transition_to(VjobState::Sleeping).unwrap();
        let vjobs = vec![vjob];
        let decision = decide(&c, &vjobs);
        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(1)));
        assert_eq!(outcome.plan.stats().local_resumes, 1);
        assert_eq!(outcome.cost.total, 1024);
    }

    #[test]
    fn repair_evacuates_overloaded_nodes() {
        // Two busy 1-core VMs crammed on a 1-core node, a free node next to
        // it: the overloaded node's VMs are movable and one must migrate.
        let mut c = Configuration::new();
        for i in 0..2 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(1),
                MemoryMib::gib(4),
            ))
            .unwrap();
        }
        for i in 0..2 {
            c.add_vm(Vm::new(VmId(i), MemoryMib::mib(512), CpuCapacity::cores(1)))
                .unwrap();
            c.set_assignment(VmId(i), VmAssignment::running(NodeId(0)))
                .unwrap();
        }
        assert!(!c.is_viable());
        let mut vjob = Vjob::new(VjobId(0), vec![VmId(0), VmId(1)], 0);
        vjob.transition_to(VjobState::Running).unwrap();
        let vjobs = vec![vjob];
        let decision = decide(&c, &vjobs);
        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.movable_vms, 2, "both crammed VMs are movable");
        assert!(outcome.target.is_viable());
        assert_eq!(outcome.plan.stats().migrations, 1);
    }

    #[test]
    fn repair_halo_ranks_by_the_scarce_resource() {
        // A CPU-skewed sub-problem: the movable VM needs 4 cores but almost
        // no memory.  Four memory-rich / CPU-poor nodes surround one
        // CPU-rich node.  The old blended `mem + 10·cpu` ranking pulled the
        // memory-rich nodes into the halo first and had to widen twice
        // before reaching the only node that can host the VM; ranking by the
        // scarcest dimension (CPU here) must find it without any widening.
        let mut c = Configuration::new();
        for i in 0..4 {
            c.add_node(Node::new(
                NodeId(i),
                CpuCapacity::cores(2),
                MemoryMib::gib(64),
            ))
            .unwrap();
        }
        c.add_node(Node::new(
            NodeId(4),
            CpuCapacity::cores(8),
            MemoryMib::gib(2),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::cores(4)))
            .unwrap();
        let vjobs = vec![Vjob::new(VjobId(0), vec![VmId(0)], 0)];
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(0)], VjobState::Running);

        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(
            OptimizerMode::Repair(RepairConfig {
                halo: 1,
                restart_scale: Some(256),
            }),
        );
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.widenings, 0, "the CPU-rich node must rank first");
        assert!(!repair.fell_back_to_full);
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(4)));
        assert!(outcome.target.is_viable());
    }

    #[test]
    fn repair_halo_ranks_by_network_when_net_scarce() {
        // The network mirror of `repair_halo_ranks_by_the_scarce_resource`:
        // a net-skewed sub-problem — the movable VM pushes 800 Mbps but
        // needs almost no CPU or memory.  Four memory-rich nodes with a
        // saturated-looking 100 Mbps of NIC headroom surround one NIC-rich
        // node.  A memory (or blended) ranking pulls the memory-rich nodes
        // into the halo first and has to widen before reaching the only
        // node with bandwidth; ranking by the scarcest dimension (network
        // here) must find it without any widening.
        use cwcs_model::NetBandwidth;
        let mut c = Configuration::new();
        for i in 0..4 {
            c.add_node(
                Node::new(NodeId(i), CpuCapacity::cores(8), MemoryMib::gib(64))
                    .with_net(NetBandwidth::mbps(100)),
            )
            .unwrap();
        }
        c.add_node(
            Node::new(NodeId(4), CpuCapacity::cores(2), MemoryMib::gib(2))
                .with_net(NetBandwidth::gbps(1)),
        )
        .unwrap();
        c.add_vm(
            Vm::new(VmId(0), MemoryMib::mib(512), CpuCapacity::percent(10))
                .with_net(NetBandwidth::mbps(800)),
        )
        .unwrap();
        let vjobs = vec![Vjob::new(VjobId(0), vec![VmId(0)], 0)];
        let decision = decide(&c, &vjobs);
        assert_eq!(decision.vjob_states[&VjobId(0)], VjobState::Running);

        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(
            OptimizerMode::Repair(RepairConfig {
                halo: 1,
                restart_scale: Some(256),
            }),
        );
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        assert_eq!(repair.widenings, 0, "the NIC-rich node must rank first");
        assert!(!repair.fell_back_to_full);
        assert_eq!(outcome.target.host(VmId(0)).unwrap(), Some(NodeId(4)));
        assert!(outcome.target.is_viable());
    }

    #[test]
    fn repair_cost_never_exceeds_the_incumbent() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let outcome = optimizer.optimize(&c, &decision, &vjobs).unwrap();
        let repair = outcome.repair.expect("repair stats");
        if let Some(incumbent) = repair.incumbent_cost {
            assert!(outcome.cost.total <= incumbent);
        }
    }

    #[test]
    fn repair_and_full_agree_on_a_small_overload() {
        // The overload scenario of `overload_produces_suspends...`: both
        // modes must produce a viable target implementing the same decision.
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let full = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let repair =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_mode(OptimizerMode::repair());
        let a = full.optimize(&c, &decision, &vjobs).unwrap();
        let b = repair.optimize(&c, &decision, &vjobs).unwrap();
        assert_eq!(a.cost.total, b.cost.total, "both reach the optimum here");
        assert_eq!(a.target, b.target);
    }

    /// Search statistics minus wall-clock time: the fields two bit-identical
    /// solves must agree on.
    fn search_fingerprint(s: &SearchStats) -> (u64, u64, u64, u64, bool, bool, u64) {
        (
            s.nodes,
            s.failures,
            s.solutions,
            s.restarts,
            s.incumbent_kept,
            s.completed,
            s.final_run,
        )
    }

    fn assert_bit_identical(a: &OptimizedOutcome, b: &OptimizedOutcome) {
        assert_eq!(a.target, b.target);
        assert_eq!(a.cost.total, b.cost.total);
        assert_eq!(
            search_fingerprint(&a.stats),
            search_fingerprint(&b.stats),
            "the two solves must explore the identical search tree"
        );
        assert_eq!(format!("{:?}", a.plan), format!("{:?}", b.plan));
    }

    #[test]
    fn same_vm_set_reuses_the_cached_model_without_a_set_diff() {
        let (c, vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let mut memory = SolverMemory::new();
        let first = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_rebuilds, 1, "cold cache builds once");
        assert_eq!(memory.model_patches, 0);
        let second = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_rebuilds, 1, "the same VM set must not rebuild");
        assert_eq!(memory.model_patches, 1);
        assert_eq!(memory.model_set_diff_patches, 0, "no variable changed");
        assert_bit_identical(&first, &second);
    }

    #[test]
    fn an_arrival_within_budget_patches_by_set_diff_bit_identically() {
        let (mut c, mut vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let mut memory = SolverMemory::new();
        optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        // An arrival: a fifth node and a waiting 2-VM vjob.  The node count
        // changes too, so the patch must also re-bound every live domain.
        c.add_node(Node::new(
            NodeId(4),
            CpuCapacity::cores(2),
            MemoryMib::gib(4),
        ))
        .unwrap();
        for i in 8..10 {
            c.add_vm(Vm::new(
                VmId(i),
                MemoryMib::mib(1024),
                CpuCapacity::cores(1),
            ))
            .unwrap();
        }
        vjobs.push(Vjob::new(VjobId(4), vec![VmId(8), VmId(9)], 4));
        let decision = decide(&c, &vjobs);
        let patched = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_rebuilds, 1, "the arrival must not rebuild");
        assert_eq!(memory.model_patches, 1);
        assert_eq!(memory.model_set_diff_patches, 1, "two VMs were appended");

        let mut fresh_memory = SolverMemory::new();
        let fresh = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut fresh_memory, None)
            .unwrap();
        assert_eq!(fresh_memory.model_rebuilds, 1);
        assert_bit_identical(&patched, &fresh);
    }

    #[test]
    fn an_over_budget_diff_falls_back_to_a_rebuild() {
        let (mut c, mut vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        // Budget 1 cannot absorb a 2-VM arrival: the solve must cleanly
        // rebuild (and still produce the same answer).
        let optimizer =
            PlanOptimizer::with_timeout(Duration::from_secs(5)).with_model_patch_budget(1);
        let mut memory = SolverMemory::new();
        optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        c.add_node(Node::new(
            NodeId(4),
            CpuCapacity::cores(2),
            MemoryMib::gib(4),
        ))
        .unwrap();
        for i in 8..10 {
            c.add_vm(Vm::new(
                VmId(i),
                MemoryMib::mib(1024),
                CpuCapacity::cores(1),
            ))
            .unwrap();
        }
        vjobs.push(Vjob::new(VjobId(4), vec![VmId(8), VmId(9)], 4));
        let decision = decide(&c, &vjobs);
        let rebuilt = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_rebuilds, 2, "over budget: rebuild, not patch");
        assert_eq!(memory.model_patches, 0);
        assert_eq!(memory.model_set_diff_patches, 0);

        let mut fresh_memory = SolverMemory::new();
        let fresh = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut fresh_memory, None)
            .unwrap();
        assert_bit_identical(&rebuilt, &fresh);
    }

    #[test]
    fn departures_retire_and_arrivals_recycle_variable_slots() {
        let (mut c, mut vjobs) = settled_cluster();
        let decision = decide(&c, &vjobs);
        let optimizer = PlanOptimizer::with_timeout(Duration::from_secs(5));
        let mut memory = SolverMemory::new();
        optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        let vars_after_build = memory.cached.as_ref().unwrap().model.var_count();
        assert_eq!(vars_after_build, 8);

        // Vjob 0 completes: its two VMs leave the sub-problem and their
        // variable slots are retired in place.
        let completed: BTreeSet<VjobId> = [VjobId(0)].into_iter().collect();
        let decision = FcfsConsolidation::new()
            .decide(&c, &vjobs, &completed)
            .unwrap();
        optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_set_diff_patches, 1);
        let cached = memory.cached.as_ref().unwrap();
        assert_eq!(cached.model.var_count(), 8, "retiring must not shrink");
        assert_eq!(cached.retired.len(), 2);

        // A new 2-VM vjob arrives: both retired slots are recycled, so the
        // model still has exactly eight variables.
        for i in 8..10 {
            c.add_vm(Vm::new(
                VmId(i),
                MemoryMib::mib(1024),
                CpuCapacity::cores(1),
            ))
            .unwrap();
        }
        vjobs.push(Vjob::new(VjobId(4), vec![VmId(8), VmId(9)], 4));
        let decision = FcfsConsolidation::new()
            .decide(&c, &vjobs, &completed)
            .unwrap();
        let patched = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut memory, None)
            .unwrap();
        assert_eq!(memory.model_rebuilds, 1);
        assert_eq!(memory.model_set_diff_patches, 2);
        let cached = memory.cached.as_ref().unwrap();
        assert_eq!(cached.model.var_count(), 8, "recycling must not grow");
        assert_eq!(cached.retired.len(), 0);

        let mut fresh_memory = SolverMemory::new();
        let fresh = optimizer
            .optimize_full(&c, &decision, &vjobs, &mut fresh_memory, None)
            .unwrap();
        assert_bit_identical(&patched, &fresh);
    }

    #[test]
    fn infeasible_states_are_rejected() {
        // One tiny node, one vjob that cannot fit but is forced Running.
        let mut c = Configuration::new();
        c.add_node(Node::new(
            NodeId(0),
            CpuCapacity::cores(1),
            MemoryMib::mib(256),
        ))
        .unwrap();
        c.add_vm(Vm::new(VmId(0), MemoryMib::gib(8), CpuCapacity::cores(1)))
            .unwrap();
        let vjob = Vjob::new(VjobId(0), vec![VmId(0)], 0);
        let mut states = BTreeMap::new();
        states.insert(VjobId(0), VjobState::Running);
        let decision = Decision {
            vjob_states: states,
            proof_configuration: c.clone(),
        };
        let optimizer = PlanOptimizer::with_timeout(Duration::from_millis(200));
        let err = optimizer.optimize(&c, &decision, &[vjob]).unwrap_err();
        assert_eq!(err, OptimizerError::NoViablePlacement);
    }
}
