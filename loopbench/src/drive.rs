//! Driving an instance tick by tick, untraced or traced.
//!
//! The untraced pass calls the real [`ControlLoop::iterate`].  The traced
//! pass ([`TracedLoop`]) runs the same tick itself, through each layer's
//! public function in the order `iterate` calls them, with a span around
//! every call.  Both produce one [`TickRecord`] per tick; the traced run is
//! only valid when its records equal the untraced run's.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cwcs_core::control_loop::LoopError;
use cwcs_core::{ControlLoop, ControlLoopConfig, DecisionModule, FcfsConsolidation, SolverMemory};
use cwcs_model::{Vjob, VjobId, VjobState};
use cwcs_plan::PlanStats;
use cwcs_sim::monitor::ClusterView;
use cwcs_sim::{
    ClusterEvent, MonitoringService, PlanExecutor, SimulatedCluster, SimulatedXenDriver,
};
use cwcs_workload::VjobSpec;

use crate::trace::{Layer, TickSpans};
use crate::workload::{degraded_capacity, Instance};

/// The deterministic record of one tick: everything the traced run must
/// reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    pub switched: bool,
    pub full_delta: bool,
    pub changed_vms: usize,
    pub changed_nodes: usize,
    pub plan_cost: u64,
    pub plan_stats: PlanStats,
    pub failed_actions: usize,
    pub terminated: Vec<VjobId>,
    pub started_at_secs: f64,
    pub switch_secs: f64,
    pub clock_after_secs: f64,
}

/// One tick as the untraced run measured it.
pub struct TimedTick {
    pub record: TickRecord,
    /// `IterationReport.solve.decide_ms`.
    pub decide_ms: f64,
    /// Wall time of the `iterate` call.
    pub wall_secs: f64,
}

/// What an instance left behind once its script ended.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct InstanceEnd {
    /// The tick that raised a `LoopError`, if one did.
    pub loop_error: Option<String>,
    /// Overloaded nodes in the final view.
    pub overloaded_nodes: usize,
    /// Vjobs not terminated at the end.
    pub unterminated_vjobs: usize,
    /// Virtual submission time of every vjob.
    pub submitted_at: BTreeMap<VjobId, f64>,
}

/// The control-loop operations the tick script needs, so one script drives
/// both the untraced and the traced loop.
pub trait Driven {
    fn submit(&mut self, spec: &VjobSpec);
    fn cluster_mut(&mut self) -> &mut SimulatedCluster;
    fn all_terminated(&self) -> bool;
    fn end(&self) -> (usize, usize);
}

/// Run an instance's tick script: submit each arrival batch and apply the
/// node degradation before its tick, then tick until the script ends (all
/// vjobs terminated, or the arrivals plus settle ticks are done).  `tick`
/// performs one iteration.
pub fn run_script<L: Driven>(
    control: &mut L,
    instance: &Instance,
    to_completion: bool,
    mut tick: impl FnMut(&mut L) -> Result<(), LoopError>,
) -> InstanceEnd {
    let mut end = InstanceEnd::default();
    for spec in &instance.specs {
        end.submitted_at.insert(spec.vjob.id, 0.0);
    }
    let max_ticks = if to_completion {
        instance.config.max_iterations
    } else {
        instance.arrivals.len() + instance.settle
    };
    for t in 0..max_ticks {
        if let Some(batch) = instance.arrivals.get(t) {
            for spec in batch {
                let now = control.cluster_mut().clock_secs();
                end.submitted_at.insert(spec.vjob.id, now);
                control.submit(spec);
            }
        }
        if t == instance.failure_tick {
            let (cpu, memory, net) = degraded_capacity();
            for &node in &instance.failed_nodes {
                control
                    .cluster_mut()
                    .set_node_capacity(node, cpu, memory, net)
                    .expect("degraded nodes exist");
            }
        }
        if let Err(e) = tick(control) {
            end.loop_error = Some(format!("tick {t}: {e}"));
            break;
        }
        if to_completion && control.all_terminated() {
            break;
        }
    }
    (end.overloaded_nodes, end.unterminated_vjobs) = control.end();
    end
}

impl Driven for ControlLoop<FcfsConsolidation> {
    fn submit(&mut self, spec: &VjobSpec) {
        self.submit_vjob(spec).expect("instance VM ids are unique");
    }

    fn cluster_mut(&mut self) -> &mut SimulatedCluster {
        ControlLoop::cluster_mut(self)
    }

    fn all_terminated(&self) -> bool {
        ControlLoop::all_terminated(self)
    }

    fn end(&self) -> (usize, usize) {
        (
            self.view().overloaded_nodes().len(),
            unterminated(self.vjobs()),
        )
    }
}

fn unterminated(vjobs: &[Vjob]) -> usize {
    vjobs
        .iter()
        .filter(|j| j.state != VjobState::Terminated)
        .count()
}

/// One untraced tick: the real `iterate`, timed from outside.
pub fn untraced_tick(control: &mut ControlLoop<FcfsConsolidation>) -> Result<TimedTick, LoopError> {
    let started = Instant::now();
    let report = control.iterate()?;
    let wall_secs = started.elapsed().as_secs_f64();
    let record = TickRecord {
        switched: report.performed_switch,
        full_delta: report.observation.full,
        changed_vms: report.observation.changed_vms,
        changed_nodes: report.observation.changed_nodes,
        plan_cost: report.switch.plan_cost.as_ref().map_or(0, |c| c.total),
        plan_stats: report.switch.plan_stats,
        failed_actions: report.switch.failed_actions,
        terminated: report.completed_vjobs,
        started_at_secs: report.started_at_secs,
        switch_secs: report.switch.duration_secs,
        clock_after_secs: control.cluster().clock_secs(),
    };
    Ok(TimedTick {
        record,
        decide_ms: report.solve.decide_ms,
        wall_secs,
    })
}

/// The control loop with its state held by the benchmark, so each layer
/// can be called — and timed — on its own.  Construction and every step
/// mirror `ControlLoop::new` and `ControlLoop::iterate`.
pub struct TracedLoop {
    cluster: SimulatedCluster,
    monitor: MonitoringService,
    view: ClusterView,
    memory: SolverMemory,
    decision: FcfsConsolidation,
    executor: PlanExecutor<SimulatedXenDriver>,
    config: ControlLoopConfig,
    vjobs: Vec<Vjob>,
    pending_completed: BTreeSet<VjobId>,
}

impl TracedLoop {
    pub fn new(
        mut cluster: SimulatedCluster,
        specs: &[VjobSpec],
        config: ControlLoopConfig,
    ) -> Self {
        for spec in specs {
            cluster.register_vjob(spec);
        }
        TracedLoop {
            cluster,
            monitor: MonitoringService::new(config.observation.refresh_period_secs),
            view: ClusterView::new(),
            memory: SolverMemory::new(),
            decision: FcfsConsolidation::new(),
            executor: PlanExecutor::new(SimulatedXenDriver::default())
                .with_mode(config.execution_mode),
            vjobs: specs.iter().map(|s| s.vjob.clone()).collect(),
            pending_completed: BTreeSet::new(),
            config,
        }
    }

    /// One traced tick.  Fills `spans` and returns the tick's record; the
    /// replayed plan's agreement with the optimizer's plan is reported
    /// through `replay_ok`.
    pub fn iterate(
        &mut self,
        spans: &mut TickSpans,
        replay_ok: &mut bool,
    ) -> Result<TickRecord, LoopError> {
        let started_at_secs = self.cluster.clock_secs();

        // 1. Observe (the benchmark never forces a full resync).
        let t = Instant::now();
        self.cluster.refresh_demands();
        spans.close(Layer::Refresh, t, &[]);

        let t = Instant::now();
        let delta = self.monitor.observe(&mut self.cluster);
        spans.close(
            Layer::Observe,
            t,
            &[
                ("changed_vms", delta.vms.len() as f64),
                ("changed_nodes", delta.node_capacities.len() as f64),
                ("full_deltas", f64::from(u8::from(delta.full))),
            ],
        );

        let t = Instant::now();
        self.view.apply(&delta);
        spans.close(Layer::Apply, t, &[]);

        let t = Instant::now();
        self.config
            .optimizer
            .sync_memory(&mut self.memory, &delta, self.cluster.configuration());
        spans.close(
            Layer::Sync,
            t,
            &[("tracked_vms", self.memory.tracked_vms() as f64)],
        );

        for vjob in &self.vjobs {
            if vjob.state == VjobState::Running && self.cluster.is_vjob_complete(vjob.id) {
                self.pending_completed.insert(vjob.id);
            }
        }

        // 2. Decide.
        let t = Instant::now();
        let decision = self
            .decision
            .decide(
                self.cluster.configuration(),
                &self.vjobs,
                &self.pending_completed,
            )
            .map_err(|e| LoopError::Decision(e.to_string()))?;
        spans.close(
            Layer::Decide,
            t,
            &[
                ("vjobs_in", self.vjobs.len() as f64),
                (
                    "queued_vjobs",
                    decision
                        .vjob_states
                        .values()
                        .filter(|&&s| s == VjobState::Waiting)
                        .count() as f64,
                ),
            ],
        );

        // 3 & 4. Plan and execute.
        let view_current = self.view.version == self.cluster.change_version();
        let viable = if view_current {
            self.view.overloaded_nodes().is_empty()
        } else {
            self.cluster.configuration().is_viable()
        };
        let switched = decision.changes_anything(&self.vjobs) || !viable;
        let mut record = TickRecord {
            switched,
            full_delta: delta.full,
            changed_vms: delta.vms.len(),
            changed_nodes: delta.node_capacities.len(),
            plan_cost: 0,
            plan_stats: PlanStats::default(),
            failed_actions: 0,
            terminated: Vec::new(),
            started_at_secs,
            switch_secs: 0.0,
            clock_after_secs: 0.0,
        };

        if switched {
            let before = (
                self.memory.model_patches,
                self.memory.model_set_diff_patches,
                self.memory.model_rebuilds,
            );
            let t = Instant::now();
            let optimizer = &self.config.optimizer;
            let outcome = if view_current {
                optimizer.optimize_incremental(
                    &mut self.memory,
                    &self.view,
                    self.cluster.configuration(),
                    &decision,
                    &self.vjobs,
                )
            } else {
                optimizer.optimize(self.cluster.configuration(), &decision, &self.vjobs)
            }
            .map_err(LoopError::Optimizer)?;
            let repair = outcome.repair.clone().unwrap_or_default();
            let optimize = spans.close(
                Layer::Optimize,
                t,
                &[
                    ("movable_vms", repair.movable_vms as f64),
                    ("pinned_vms", repair.pinned_vms as f64),
                    ("candidate_nodes", repair.candidate_nodes as f64),
                    ("widenings", f64::from(repair.widenings)),
                    (
                        "model_patches",
                        (self.memory.model_patches - before.0) as f64,
                    ),
                    (
                        "model_set_diff_patches",
                        (self.memory.model_set_diff_patches - before.1) as f64,
                    ),
                    (
                        "model_rebuilds",
                        (self.memory.model_rebuilds - before.2) as f64,
                    ),
                ],
            );
            let stats = &outcome.stats;
            if stats.nodes > 0 || outcome.portfolio.is_some() {
                let portfolio = outcome.portfolio.clone().unwrap_or_default();
                let worker_nodes: Vec<u64> =
                    portfolio.workers.iter().map(|w| w.stats.nodes).collect();
                let max_nodes = worker_nodes.iter().copied().max().unwrap_or(stats.nodes);
                let mean_nodes = if worker_nodes.is_empty() {
                    stats.nodes as f64
                } else {
                    worker_nodes.iter().sum::<u64>() as f64 / worker_nodes.len() as f64
                };
                spans.child(
                    Layer::Search,
                    optimize,
                    stats.elapsed_ms as f64,
                    &[
                        ("nodes", stats.nodes as f64),
                        ("failures", stats.failures as f64),
                        ("solutions", stats.solutions as f64),
                        ("restarts", stats.restarts as f64),
                        ("proven", f64::from(u8::from(stats.completed))),
                        ("incumbent_kept", f64::from(u8::from(stats.incumbent_kept))),
                        ("steals", portfolio.steals_total as f64),
                        ("donated", portfolio.donated_total as f64),
                        ("worker_nodes_max", max_nodes as f64),
                        ("worker_nodes_mean", mean_nodes),
                    ],
                );
            }

            // Replay the planner on the pre-switch configuration and the
            // chosen target: it must rebuild the optimizer's plan exactly.
            let t = Instant::now();
            let replayed =
                optimizer
                    .planner
                    .plan(self.cluster.configuration(), &outcome.target, &self.vjobs);
            let (actions, pools) = replayed
                .as_ref()
                .map_or((0, 0), |p| (p.action_count(), p.pools().len()));
            spans.close(
                Layer::Plan,
                t,
                &[("actions", actions as f64), ("pools", pools as f64)],
            );
            *replay_ok = replayed.is_ok_and(|plan| {
                plan.stats() == outcome.plan.stats()
                    && optimizer.cost_model.plan_cost(&plan) == outcome.cost
            });

            let t = Instant::now();
            let report = self.executor.execute(&mut self.cluster, &outcome.plan);
            spans.close(
                Layer::Execute,
                t,
                &[
                    ("actions", outcome.plan.action_count() as f64),
                    ("failed_actions", report.failed_actions.len() as f64),
                    ("virtual_s", report.duration_secs),
                ],
            );
            record.plan_cost = outcome.cost.total;
            record.plan_stats = outcome.plan.stats();
            record.failed_actions = report.failed_actions.len();
            record.switch_secs = report.duration_secs;
            for event in &report.completed_vjobs {
                let ClusterEvent::VjobCompleted(id) = event;
                self.pending_completed.insert(*id);
            }
            for vjob in &mut self.vjobs {
                if let Some(&wanted) = decision.vjob_states.get(&vjob.id) {
                    if wanted != vjob.state && vjob.state.can_transition_to(wanted) {
                        vjob.transition_to(wanted).expect("checked transition");
                        self.cluster.update_vjob(vjob);
                        if wanted == VjobState::Terminated {
                            self.pending_completed.remove(&vjob.id);
                            record.terminated.push(vjob.id);
                        }
                    }
                }
            }
        }

        // 5. Sleep until the next iteration.
        let remaining = (self.config.period_secs - record.switch_secs).max(0.0);
        let t = Instant::now();
        let events = self.cluster.advance(remaining, &BTreeMap::new());
        spans.close(Layer::Advance, t, &[("completions", events.len() as f64)]);
        for event in events {
            let ClusterEvent::VjobCompleted(id) = event;
            self.pending_completed.insert(id);
        }
        // `iterate` samples utilization for its report; keep that work in
        // the traced tick too.
        std::hint::black_box(self.cluster.utilization());
        record.clock_after_secs = self.cluster.clock_secs();
        Ok(record)
    }
}

impl Driven for TracedLoop {
    fn submit(&mut self, spec: &VjobSpec) {
        self.cluster
            .admit_vjob(spec)
            .expect("instance VM ids are unique");
        self.vjobs.push(spec.vjob.clone());
    }

    fn cluster_mut(&mut self) -> &mut SimulatedCluster {
        &mut self.cluster
    }

    fn all_terminated(&self) -> bool {
        unterminated(&self.vjobs) == 0
    }

    fn end(&self) -> (usize, usize) {
        (
            self.view.overloaded_nodes().len(),
            unterminated(&self.vjobs),
        )
    }
}
