//! Micro-bench of the solver's per-node kernel on a streaming-shaped
//! placement model: 800 VMs over 116 candidate nodes, one bin-packing per
//! resource dimension (CPU, memory), a migration-cost objective and the
//! current node as the preferred value — the shape of one repair solve of
//! the streaming control plane.
//!
//! Three numbers, none of which needs the control loop:
//! * `store_clone` — one domain-store copy, paid by every search child;
//! * `assign_fixpoint` — one decision plus the propagation fixpoint;
//! * `minimize_500_nodes` — a 1-worker branch & bound bounded at 500 search
//!   nodes, also reported per node.

use std::sync::Arc;
use std::time::Instant;

use cwcs_bench::BenchGroup;
use cwcs_model::SmallRng;
use cwcs_solver::constraints::BinPacking;
use cwcs_solver::propagator::{propagate_to_fixpoint, Propagator};
use cwcs_solver::search::{
    ClosureObjective, Search, SearchConfig, ValueSelection, VariableSelection,
};
use cwcs_solver::{DomainStore, Model, VarId};

const VMS: usize = 800;
const NODES: usize = 116;
const NODE_LIMIT: u64 = 500;

/// The placement model, its propagators (to drive a fixpoint by hand),
/// each VM's current node and its per-node move costs.
struct Shape {
    model: Model,
    propagators: Vec<Arc<dyn Propagator>>,
    vars: Vec<VarId>,
    current: Vec<u32>,
    costs: Vec<Vec<u64>>,
}

fn streaming_shape() -> Shape {
    let mut rng = SmallRng::seed_from_u64(0x6b65_726e);
    let mut model = Model::new();
    let vars: Vec<VarId> = (0..VMS)
        .map(|i| model.new_named_var(format!("host(vm#{i})"), 0, NODES as u32 - 1))
        .collect();
    // ~80 % CPU and ~85 % memory utilization: tight enough that the
    // packing prunes and the search fails, loose enough to be feasible.
    let cpu: Vec<u64> = (0..VMS).map(|_| rng.u64_in(1, 3)).collect();
    let mem: Vec<u64> = (0..VMS).map(|_| rng.u64_in(1, 5) * 1024).collect();
    let cpu_cap: Vec<u64> = (0..NODES).map(|_| rng.u64_in(10, 17)).collect();
    let mem_cap: Vec<u64> = (0..NODES).map(|_| rng.u64_in(16, 25) * 1024).collect();
    let packing = [
        BinPacking::new(vars.clone(), cpu, cpu_cap),
        BinPacking::new(vars.clone(), mem.clone(), mem_cap),
    ];
    let mut propagators: Vec<Arc<dyn Propagator>> = Vec::new();
    for p in packing {
        model.post(p.clone());
        propagators.push(Arc::new(p));
    }
    // Staying put is free; a migration costs the VM's memory.
    let current: Vec<u32> = (0..VMS).map(|_| rng.index(NODES) as u32).collect();
    let costs = (0..VMS)
        .map(|i| {
            (0..NODES as u32)
                .map(|n| if n == current[i] { 0 } else { mem[i] })
                .collect()
        })
        .collect();
    Shape {
        model,
        propagators,
        vars,
        current,
        costs,
    }
}

fn minimize(shape: &Shape) -> u64 {
    let config = SearchConfig {
        variable_selection: VariableSelection::FirstFail {
            weights: None,
            ranks: None,
        },
        value_selection: ValueSelection::Preferred(
            shape.current.iter().map(|&n| Some(n)).collect(),
        ),
        node_limit: Some(NODE_LIMIT),
        ..Default::default()
    };
    let vars = &shape.vars;
    let costs = &shape.costs;
    let objective = ClosureObjective::new(
        |store: &DomainStore| -> i64 {
            vars.iter()
                .zip(costs)
                .map(|(&v, c)| c[store.value(v) as usize] as i64)
                .sum()
        },
        |store: &DomainStore| -> i64 {
            vars.iter()
                .zip(costs)
                .map(|(&v, c)| {
                    let domain = store.domain(v);
                    domain
                        .iter()
                        .map(|n| c[n as usize] as i64)
                        .min()
                        .unwrap_or(0)
                })
                .sum()
        },
    );
    let outcome = Search::new(&shape.model, config).minimize(&objective);
    outcome.stats.nodes
}

fn main() {
    let shape = streaming_shape();
    let mut root = shape.model.root_store();
    propagate_to_fixpoint(&shape.propagators, &mut root).expect("the root is consistent");

    let mut group = BenchGroup::new("solver_kernel");
    group.sample_size(200);
    group.bench("store_clone", || root.clone());
    group.bench("assign_fixpoint", || {
        let mut child = root.clone();
        child
            .assign(shape.vars[0], shape.current[0])
            .expect("the current node is a candidate");
        propagate_to_fixpoint(&shape.propagators, &mut child).is_ok()
    });

    group.sample_size(10);
    group.bench("minimize_500_nodes", || minimize(&shape));
    let start = Instant::now();
    let nodes = minimize(&shape);
    let elapsed = start.elapsed();
    println!(
        "solver_kernel/minimize_500_nodes: {nodes} nodes, {:.1} µs/node",
        elapsed.as_secs_f64() * 1e6 / nodes.max(1) as f64
    );
}
