//! Decision equivalence: [`FcfsConsolidation::decide`] packs every queued
//! vjob against the observed configuration and returns vjob states only.
//! The clone-and-reset formulation of the same RJSP clones the
//! configuration into a scratch "proof", takes every running VM off its
//! node (it becomes a sleeping image), and writes each accepted vjob's
//! placement back into that scratch copy.  The two must agree: a packing
//! demand only depends on the VM's demand and on whether the VM is
//! waiting, and neither the reset nor the scratch writes ever turn a VM
//! into a waiting one or out of it.
//!
//! This suite keeps an in-test copy of the clone-and-reset algorithm — with its
//! own linear First-Fit Decreasing and its own demand policy, so a fault in
//! the library packer cannot hide in both sides — and checks that over
//! seeded random clusters (running, sleeping, waiting and terminated vjobs,
//! overloaded hosts, boots whose observed demand is below their
//! reservation, random completion sets, vjobs naming an unknown VM) both
//! packing policies yield identical vjob states or the identical error.
//!
//! Vjobs partition the VMs, as they do in every real workload; the scratch
//! writes of the reference would only be visible to a VM shared by two
//! vjobs.
//!
//! The container has no crates.io access, so `proptest` is replaced by a
//! deterministic [`SmallRng`] driver — same seed, same cases, every run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use cwcs_core::{DecisionError, DecisionModule, FcfsConsolidation, PackingPolicy};
use cwcs_model::{
    Configuration, CpuCapacity, MemoryMib, NetBandwidth, Node, NodeId, ResourceDemand, SmallRng,
    Vjob, VjobId, VjobState, Vm, VmAssignment, VmId, VmState,
};

const CASES: usize = 400;

/// The demand the reference packer budgets for `vm`, read from the
/// scratch configuration.
fn reference_demand(config: &Configuration, vm: VmId, policy: PackingPolicy) -> ResourceDemand {
    let v = config.vm(vm).unwrap();
    match (policy, config.state(vm).unwrap()) {
        (PackingPolicy::Reserved, VmState::Waiting) => v.reserved_demand(),
        _ => v.demand(),
    }
}

/// Linear First-Fit Decreasing of `vms` into `free`, all or nothing.
fn reference_place(
    config: &Configuration,
    vms: &[VmId],
    free: &mut Vec<(NodeId, ResourceDemand)>,
    policy: PackingPolicy,
) -> Option<BTreeMap<VmId, NodeId>> {
    let mut ordered = vms.to_vec();
    ordered.sort_by_key(|&vm| {
        let d = reference_demand(config, vm, policy);
        (Reverse((d.memory.raw(), d.cpu.raw(), d.net.raw())), vm.0)
    });
    let mut trial = free.clone();
    let mut placement = BTreeMap::new();
    for vm in ordered {
        let d = reference_demand(config, vm, policy);
        let slot = trial.iter().position(|(_, avail)| d.fits_in(avail))?;
        trial[slot].1 = trial[slot].1.saturating_sub(&d);
        placement.insert(vm, trial[slot].0);
    }
    *free = trial;
    Some(placement)
}

/// The clone-and-reset RJSP decide.
fn reference_decide(
    current: &Configuration,
    vjobs: &[Vjob],
    completed: &BTreeSet<VjobId>,
    policy: PackingPolicy,
) -> Result<BTreeMap<VjobId, VjobState>, DecisionError> {
    let mut proof = current.clone();
    let mut free: Vec<(NodeId, ResourceDemand)> =
        proof.nodes().map(|n| (n.id, n.capacity())).collect();
    let mut queue: Vec<&Vjob> = vjobs
        .iter()
        .filter(|j| j.state != VjobState::Terminated)
        .collect();
    queue.sort_by_key(|j| j.queue_key());

    // Every queued VM leaves its node; running ones become sleeping images.
    for vjob in &queue {
        for &vm in &vjob.vms {
            let assignment = proof
                .assignment(vm)
                .map_err(|_| DecisionError::UnknownVjob(vjob.id))?;
            let reset = match assignment.state {
                VmState::Running => VmAssignment::sleeping(assignment.host.unwrap()),
                _ => assignment,
            };
            proof
                .set_assignment(vm, reset)
                .map_err(|_| DecisionError::UnknownVjob(vjob.id))?;
        }
    }

    let mut states = BTreeMap::new();
    for vjob in &queue {
        if completed.contains(&vjob.id) {
            states.insert(vjob.id, VjobState::Terminated);
            for &vm in &vjob.vms {
                let _ = proof.set_assignment(vm, VmAssignment::terminated());
            }
            continue;
        }
        match reference_place(&proof, &vjob.vms, &mut free, policy) {
            Some(placement) => {
                states.insert(vjob.id, VjobState::Running);
                for (&vm, &node) in &placement {
                    proof
                        .set_assignment(vm, VmAssignment::running(node))
                        .unwrap();
                }
            }
            None => {
                let next = match vjob.state {
                    VjobState::Running | VjobState::Sleeping => VjobState::Sleeping,
                    state => state,
                };
                states.insert(vjob.id, next);
            }
        }
    }
    for vjob in vjobs {
        states.entry(vjob.id).or_insert(vjob.state);
    }
    Ok(states)
}

/// One random scenario: 1–6 nodes of mixed sizes (some with a NIC limit),
/// 1–9 vjobs of 1–4 VMs in every vjob state, running VMs placed on random
/// hosts regardless of capacity (so some hosts are overloaded), waiting VMs
/// observed below their reservation, a random completion set and, in some
/// cases, a vjob naming a VM the configuration does not know.
fn scenario(rng: &mut SmallRng) -> (Configuration, Vec<Vjob>, BTreeSet<VjobId>) {
    let mut config = Configuration::new();
    let node_count = rng.u64_in(1, 7) as u32;
    for i in 0..node_count {
        let mut node = Node::new(
            NodeId(i),
            CpuCapacity::cores(rng.u32_in_inclusive(1, 4)),
            MemoryMib::gib(rng.u64_in(2, 9)),
        );
        if rng.bool_with(0.3) {
            node = node.with_net(NetBandwidth::mbps(rng.u64_in(200, 1000)));
        }
        config.add_node(node).unwrap();
    }
    let node_ids = config.node_ids();

    let vjob_count = rng.u64_in(1, 10) as u32;
    let mut vjobs = Vec::new();
    let mut next_vm = 0u32;
    for j in 0..vjob_count {
        let state = match rng.u32_in_inclusive(0, 9) {
            0..=3 => VjobState::Waiting,
            4..=6 => VjobState::Running,
            7..=8 => VjobState::Sleeping,
            _ => VjobState::Terminated,
        };
        let vm_count = rng.u64_in(1, 5) as u32;
        let mut vms = Vec::new();
        for _ in 0..vm_count {
            let id = VmId(next_vm);
            next_vm += 1;
            let mut vm = Vm::new(
                id,
                MemoryMib::mib(256 * rng.u64_in(1, 9)),
                CpuCapacity::percent(10 * rng.u32_in_inclusive(0, 20)),
            );
            if rng.bool_with(0.3) {
                vm = vm.with_net(NetBandwidth::mbps(rng.u64_in(50, 600)));
            }
            config.add_vm(vm).unwrap();
            // The monitor observes less than the creation-time demand:
            // always zero CPU for a boot, anything up to it otherwise.
            let observed = match state {
                VjobState::Waiting => CpuCapacity::ZERO,
                _ => {
                    let created = config.vm(id).unwrap().cpu;
                    CpuCapacity::percent(rng.u32_in_inclusive(0, created.raw() / 10) * 10)
                }
            };
            config.vm_mut(id).unwrap().cpu = observed;
            let node = node_ids[rng.index(node_ids.len())];
            let assignment = match state {
                // A running vjob may still have a VM booting.
                VjobState::Running if rng.bool_with(0.15) => VmAssignment::waiting(),
                VjobState::Running => VmAssignment::running(node),
                VjobState::Sleeping => VmAssignment::sleeping(node),
                VjobState::Terminated => VmAssignment::terminated(),
                VjobState::Waiting => VmAssignment::waiting(),
            };
            config.set_assignment(id, assignment).unwrap();
            vms.push(id);
        }
        if rng.bool_with(0.03) {
            // A VM the configuration has never heard of.
            vms.insert(rng.index(vms.len() + 1), VmId(10_000 + j));
        }
        let mut vjob =
            Vjob::new(VjobId(j), vms, rng.u64_in(0, 20)).with_priority(rng.u32_in_inclusive(0, 2));
        let path: &[VjobState] = match state {
            VjobState::Waiting => &[],
            VjobState::Running => &[VjobState::Running],
            VjobState::Sleeping => &[VjobState::Running, VjobState::Sleeping],
            VjobState::Terminated => &[VjobState::Running, VjobState::Terminated],
        };
        for &next in path {
            vjob.transition_to(next).unwrap();
        }
        vjobs.push(vjob);
    }

    let completed = (0..vjob_count)
        .filter(|_| rng.bool_with(0.15))
        .map(VjobId)
        .collect();
    (config, vjobs, completed)
}

#[test]
fn decide_matches_the_clone_and_reset_reference() {
    let mut rng = SmallRng::seed_from_u64(0xDEC1_5105);
    let (mut errors, mut refusals, mut policy_splits) = (0, 0, 0);
    for case in 0..CASES {
        let (config, vjobs, completed) = scenario(&mut rng);
        let mut by_policy = Vec::new();
        for policy in [PackingPolicy::Observed, PackingPolicy::Reserved] {
            let expected = reference_decide(&config, &vjobs, &completed, policy);
            let actual = FcfsConsolidation::new()
                .with_packing_policy(policy)
                .decide(&config, &vjobs, &completed)
                .map(|d| d.vjob_states);
            assert_eq!(actual, expected, "case {case}, {policy:?}");
            match &expected {
                Err(_) => errors += 1,
                Ok(states) => {
                    refusals += vjobs
                        .iter()
                        .filter(|j| {
                            j.state != VjobState::Terminated
                                && !completed.contains(&j.id)
                                && states[&j.id] != VjobState::Running
                        })
                        .count();
                }
            }
            by_policy.push(expected);
        }
        if by_policy[0] != by_policy[1] {
            policy_splits += 1;
        }
    }
    // The generator must keep reaching the interesting regimes: unknown
    // VMs, vjobs the packing refuses, and boots whose reservation changes
    // the outcome.
    assert!(errors > 0, "no case named an unknown VM");
    assert!(refusals > 0, "no case refused a vjob");
    assert!(policy_splits > 0, "no case told the two policies apart");
}
