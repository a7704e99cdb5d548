//! # cwcs-solver — a finite-domain constraint-programming solver
//!
//! Entropy delegates the search for a cheap viable configuration to a
//! constraint-programming solver (Choco in the original Java implementation).
//! This crate is a from-scratch reimplementation of the primitives the paper
//! relies on:
//!
//! * finite integer **domains** and a **domain store** ([`domain`], [`store`]),
//! * a **propagator** interface and a fixpoint propagation loop
//!   ([`propagator`]),
//! * the **constraints** used by the placement model: linear inequalities,
//!   element, all-different, the dynamic-programming **knapsack** consistency
//!   of Trick (2001) and the **bin-packing** constraint of Shaw (2004) that
//!   Entropy uses to model per-node CPU and memory capacities
//!   ([`constraints`]),
//! * a depth-first **search** with first-fail variable ordering, configurable
//!   value ordering, **branch & bound** minimisation, a solve **timeout** and
//!   anytime behaviour (the best solution found so far is kept, exactly like
//!   Entropy keeps improving the plan until it proves optimality or hits its
//!   time limit) ([`search`]),
//! * a parallel **portfolio** that partitions the root decision across
//!   workers (disjoint frontiers), lets idle workers steal frozen subtrees
//!   over a lock-free Chase–Lev deque ([`deque`]), shares the incumbent
//!   through an atomic bound and proves optimality when the global pending
//!   counter drains ([`portfolio`]).
//!
//! The solver is deliberately small and deterministic: domains are bitsets
//! in one flat arena, propagation runs to fixpoint after every decision,
//! and search state is restored by copying the arena.  This is more than enough for the
//! placement problems of the paper (hundreds of variables whose domains are
//! node indices).
//!
//! ```
//! use cwcs_solver::{Model, VarId};
//! use cwcs_solver::constraints::AllDifferent;
//! use cwcs_solver::search::{Search, SearchConfig};
//!
//! // Three tasks, three slots, all different.
//! let mut model = Model::new();
//! let vars: Vec<VarId> = (0..3).map(|_| model.new_var(0, 2)).collect();
//! model.post(AllDifferent::new(vars.clone()));
//! let solution = Search::new(&model, SearchConfig::default()).solve().unwrap();
//! let values: Vec<u32> = vars.iter().map(|&v| solution[v]).collect();
//! let mut sorted = values.clone();
//! sorted.sort();
//! assert_eq!(sorted, vec![0, 1, 2]);
//! ```

pub mod constraints;
pub mod deque;
pub mod domain;
pub mod portfolio;
pub mod propagator;
pub mod search;
pub mod store;
pub mod sync;

pub use deque::{work_deque, DequeStealer, DequeWorker, Steal};
pub use domain::{DomainIter, DomainView};
pub use portfolio::{
    partition_root, PendingCounter, PortfolioConfig, PortfolioOutcome, PortfolioSearch,
    PortfolioStats, RootPartition, WorkerReport, WorkerRole,
};
pub use propagator::{Inconsistency, Propagator};
pub use search::{
    luby, Objective, RestartPolicy, Search, SearchConfig, SearchStats, SharedBound, Solution,
    SubtreeCheckpoint,
};
pub use store::{DomainStore, Model, VarId};
