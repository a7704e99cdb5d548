//! The three workloads and the seeded instances a run chains.
//!
//! A run executes `K` independent instances of its workload, each built from
//! a seed derived from the run's `--seed`.  An instance is a fresh simulated
//! cluster plus a tick script: the arrival batches to submit before each
//! tick, an optional node degradation, and when to stop.

use std::time::Duration;

use cwcs_bench::{cluster_experiment, large_scale_switch_surge, streaming_scenario};
use cwcs_core::{ControlLoopConfig, OptimizerMode, PlanOptimizer, SolverConfig};
use cwcs_model::{Configuration, CpuCapacity, MemoryMib, NetBandwidth, NodeId, VmId};
use cwcs_sim::SimulatedCluster;
use cwcs_workload::VjobSpec;

/// Solver workers per placement solve, before capping at the host's cores.
pub const MAX_WORKERS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rolling arrivals plus mid-run node degradations on 2 000 nodes,
    /// repair mode with warm start.
    Streaming,
    /// The 500-node surge cluster: a 660-VM boot, a search-heavy rebalance,
    /// then idle ticks until every vjob completes.
    Rebalance,
    /// The Section 5.2 cluster (11 nodes, 72 VMs), full mode.
    Paper,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Streaming, Workload::Rebalance, Workload::Paper];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Streaming => "streaming",
            Workload::Rebalance => "rebalance",
            Workload::Paper => "paper",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances chained per run for a `seconds`-long run.  The work of a
    /// run is fixed by `seconds` alone (never by how fast it goes), so
    /// `loop_s` compares across commits.
    pub fn instances_for(self, seconds: u64) -> usize {
        let nominal_secs = match self {
            Workload::Streaming => STREAMING_NOMINAL_SECS,
            Workload::Rebalance => REBALANCE_NOMINAL_SECS,
            Workload::Paper => PAPER_NOMINAL_SECS,
        };
        ((seconds as f64 / nominal_secs).round() as usize).max(1)
    }

    /// Vjobs must all terminate by the end of an instance.
    pub fn runs_to_completion(self) -> bool {
        !matches!(self, Workload::Streaming)
    }
}

/// Wall seconds one instance takes on a 2-vCPU host at the definition of
/// the benchmark; they only convert `--seconds` into a fixed instance count.
const STREAMING_NOMINAL_SECS: f64 = 3.2;
const REBALANCE_NOMINAL_SECS: f64 = 3.0;
const PAPER_NOMINAL_SECS: f64 = 1.6;

/// Streaming shape: the 2 000-node shape of the repository's CI run.
const STREAM_NODES: u32 = 2_000;
const STREAM_TICKS: usize = 8;
const STREAM_VJOBS_PER_TICK: usize = 400;
const STREAM_FAILURES: u32 = 4;
const STREAM_SETTLE: usize = 4;
const STREAM_NODE_LIMIT: u64 = 500;

/// Rebalance shape: the 500-node drain-and-surge cluster.
const REBALANCE_NODES: u32 = 500;
const REBALANCE_DRAINED: u32 = 100;
const REBALANCE_NODE_LIMIT: u64 = 1_000;

/// Paper shape: per-worker search budget of the full-mode solves.
const PAPER_NODE_LIMIT: u64 = 10_000;

/// One seeded instance's vjobs, loop configuration and tick script (its
/// cluster comes with it from [`Instance::build`]).
pub struct Instance {
    pub specs: Vec<VjobSpec>,
    /// Vjobs submitted before tick `t` (streaming only).
    pub arrivals: Vec<Vec<VjobSpec>>,
    /// Nodes degraded before `failure_tick`.
    pub failed_nodes: Vec<NodeId>,
    pub failure_tick: usize,
    /// Ticks run after the last arrival batch (streaming only).
    pub settle: usize,
    pub config: ControlLoopConfig,
}

impl Instance {
    /// Build instance `seed` of `workload` and the cluster it starts from.
    pub fn build(workload: Workload, seed: u64, workers: usize) -> (SimulatedCluster, Instance) {
        let config = |optimizer: PlanOptimizer, max_iterations: usize| ControlLoopConfig {
            period_secs: 30.0,
            optimizer,
            max_iterations,
            ..Default::default()
        };
        // Every solve runs under a fixed node budget with a timeout it never
        // reaches, so the portfolio races in its deterministic reduction
        // mode and every decision repeats exactly.
        let budget = Duration::from_secs(3_600);
        match workload {
            Workload::Streaming => {
                let scenario =
                    streaming_scenario(STREAM_NODES, STREAM_TICKS, STREAM_VJOBS_PER_TICK, seed);
                let optimizer = SolverConfig::default()
                    .with_mode(OptimizerMode::repair())
                    .with_warm_start(true)
                    .with_workers(workers)
                    .with_timeout(budget)
                    .with_node_limit(STREAM_NODE_LIMIT)
                    .build_optimizer();
                let failed_nodes = (0..STREAM_FAILURES)
                    .map(|i| NodeId(i * STREAM_NODES / STREAM_FAILURES))
                    .collect();
                let cluster = scenario.cluster();
                let instance = Instance {
                    specs: scenario.initial_specs,
                    arrivals: scenario.arrivals,
                    failed_nodes,
                    failure_tick: STREAM_TICKS / 2,
                    settle: STREAM_SETTLE,
                    config: config(optimizer, STREAM_TICKS + STREAM_SETTLE),
                };
                (cluster, instance)
            }
            Workload::Rebalance => {
                let scenario = large_scale_switch_surge(REBALANCE_NODES, REBALANCE_DRAINED);
                let (source, specs) = relabel(&scenario.source, &scenario.specs, seed);
                let mut cluster = SimulatedCluster::new(source);
                for spec in &specs {
                    cluster.register_vjob(spec);
                }
                let optimizer = PlanOptimizer::with_timeout(budget)
                    .with_mode(OptimizerMode::repair())
                    .with_solver_workers(workers)
                    .with_node_limit(REBALANCE_NODE_LIMIT);
                let instance = Instance {
                    specs,
                    arrivals: Vec::new(),
                    failed_nodes: Vec::new(),
                    failure_tick: usize::MAX,
                    settle: 0,
                    config: config(optimizer, 1_000),
                };
                (cluster, instance)
            }
            Workload::Paper => {
                let scenario = cluster_experiment(seed);
                let optimizer = PlanOptimizer::with_timeout(budget)
                    .with_solver_workers(workers)
                    .with_node_limit(PAPER_NODE_LIMIT);
                let cluster = scenario.cluster();
                let instance = Instance {
                    specs: scenario.specs,
                    arrivals: Vec::new(),
                    failed_nodes: Vec::new(),
                    failure_tick: usize::MAX,
                    settle: 0,
                    config: config(optimizer, 5_000),
                };
                (cluster, instance)
            }
        }
    }
}

/// The capacity a degraded streaming node keeps: a fifth of its processing
/// units and a quarter of its memory, enough to overload it under its
/// resident base vjob.
pub fn degraded_capacity() -> (CpuCapacity, MemoryMib, NetBandwidth) {
    (
        CpuCapacity::cores(2),
        MemoryMib::gib(6),
        NetBandwidth::gbps(2),
    )
}

/// Seed of instance `index` of a run seeded with `run_seed` (splitmix64).
pub fn instance_seed(run_seed: u64, index: usize) -> u64 {
    let mut z = run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over splitmix64 draws).
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (instance_seed(seed, i) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Relabel the node and VM ids of a scenario with seeded permutations.
/// The cluster is the same up to naming, but every id-ordered walk (the
/// decision module's packing, the repair split, the search's value order)
/// meets the nodes and VMs in another order, so the seed moves decisions.
fn relabel(
    source: &Configuration,
    specs: &[VjobSpec],
    seed: u64,
) -> (Configuration, Vec<VjobSpec>) {
    let node_perm = permutation(source.node_count(), seed);
    let vm_perm = permutation(source.vm_count(), seed ^ 0x5EED);
    let node = |id: NodeId| NodeId(node_perm[id.0 as usize]);
    let vm = |id: VmId| VmId(vm_perm[id.0 as usize]);

    let mut relabelled = Configuration::new();
    for n in source.nodes() {
        let mut n = n.clone();
        n.id = node(n.id);
        n.name = format!("node-{}", n.id.0);
        relabelled
            .add_node(n)
            .expect("the permutation keeps node ids unique");
    }
    for v in source.vms() {
        let mut v = v.clone();
        v.id = vm(v.id);
        v.name = format!("vm-{}", v.id.0);
        relabelled
            .add_vm(v)
            .expect("the permutation keeps VM ids unique");
    }
    for v in source.vms() {
        let mut assignment = source.assignment(v.id).expect("VM is in the source");
        assignment.host = assignment.host.map(node);
        assignment.image = assignment.image.map(node);
        relabelled
            .set_assignment(vm(v.id), assignment)
            .expect("a relabelled placement has the same load");
    }
    let specs = specs
        .iter()
        .map(|spec| {
            let mut vjob = spec.vjob.clone();
            vjob.vms = vjob.vms.iter().map(|&id| vm(id)).collect();
            let vms = spec
                .vms
                .iter()
                .map(|v| relabelled.vm(vm(v.id)).expect("relabelled VM").clone())
                .collect();
            VjobSpec::new(vjob, vms, spec.profiles.clone())
        })
        .collect();
    (relabelled, specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabelling_keeps_the_cluster_up_to_naming() {
        let scenario = large_scale_switch_surge(40, 8);
        let (source, specs) = relabel(&scenario.source, &scenario.specs, 7);
        assert_eq!(source.node_count(), scenario.source.node_count());
        assert_eq!(source.vm_count(), scenario.source.vm_count());
        // Same per-node loads, as multisets.
        let loads = |config: &Configuration| {
            let mut loads: Vec<_> = config
                .usages()
                .into_iter()
                .map(|(_, usage)| format!("{:?}", usage))
                .collect();
            loads.sort();
            loads
        };
        assert_eq!(loads(&source), loads(&scenario.source));
        // Every vjob keeps its members' memory and profiles, in order.
        for (old, new) in scenario.specs.iter().zip(&specs) {
            assert_eq!(old.vjob.id, new.vjob.id);
            assert_eq!(old.vjob.state, new.vjob.state);
            assert_eq!(old.profiles, new.profiles);
            let memory = |spec: &VjobSpec| spec.vms.iter().map(|v| v.memory).collect::<Vec<_>>();
            assert_eq!(memory(old), memory(new));
        }
        // The same seed relabels the same way; another seed differently.
        assert_eq!(relabel(&scenario.source, &scenario.specs, 7).0, source);
        assert_ne!(relabel(&scenario.source, &scenario.specs, 8).0, source);
    }
}
