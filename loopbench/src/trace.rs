//! Spans of the traced run and the per-layer metrics summed from them.
//!
//! Each tick keeps one span group in memory: a span per layer call (name,
//! start and duration relative to the tick, the span that caused it, and the
//! counts recorded at that boundary).  The groups are written out as JSON
//! lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers of one tick, named after the public call each span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Refresh,
    Observe,
    Apply,
    Sync,
    Decide,
    Optimize,
    /// Read from the optimizer's outcome (its search statistics), nested in
    /// [`Layer::Optimize`].
    Search,
    /// `Planner::plan`, replayed on the optimizer's chosen target.
    Plan,
    Execute,
    Advance,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Refresh,
        Layer::Observe,
        Layer::Apply,
        Layer::Sync,
        Layer::Decide,
        Layer::Optimize,
        Layer::Search,
        Layer::Plan,
        Layer::Execute,
        Layer::Advance,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Refresh => "sim.cluster.refresh",
            Layer::Observe => "sim.monitor.observe",
            Layer::Apply => "sim.monitor.apply",
            Layer::Sync => "core.optimizer.sync",
            Layer::Decide => "core.consolidation.decide",
            Layer::Optimize => "core.optimizer.optimize",
            Layer::Search => "solver.portfolio.search",
            Layer::Plan => "plan.planner.plan",
            Layer::Execute => "sim.executor.execute",
            Layer::Advance => "sim.cluster.advance",
        }
    }
}

/// One span: a layer call within a tick.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    /// Index of the span that caused this one, within the tick.
    pub parent: Option<usize>,
    pub start_ms: f64,
    pub dur_ms: f64,
    pub counts: Vec<(&'static str, f64)>,
}

/// The span group of one tick.
#[derive(Debug, Clone)]
pub struct TickSpans {
    pub instance: usize,
    pub tick: usize,
    origin: Instant,
    pub tick_ms: f64,
    pub spans: Vec<Span>,
}

impl TickSpans {
    pub fn start(instance: usize, tick: usize) -> Self {
        TickSpans {
            instance,
            tick,
            origin: Instant::now(),
            tick_ms: 0.0,
            spans: Vec::with_capacity(Layer::ALL.len()),
        }
    }

    /// Close a top-level span that started at `started`; returns its index.
    pub fn close(
        &mut self,
        layer: Layer,
        started: Instant,
        counts: &[(&'static str, f64)],
    ) -> usize {
        let ended = Instant::now();
        self.spans.push(Span {
            layer,
            parent: None,
            start_ms: ms_between(self.origin, started),
            dur_ms: ms_between(started, ended),
            counts: counts.to_vec(),
        });
        self.spans.len() - 1
    }

    /// Add a span nested in `parent` whose duration the program reported
    /// itself (it starts with its parent).
    pub fn child(
        &mut self,
        layer: Layer,
        parent: usize,
        dur_ms: f64,
        counts: &[(&'static str, f64)],
    ) {
        let start_ms = self.spans[parent].start_ms;
        self.spans.push(Span {
            layer,
            parent: Some(parent),
            start_ms,
            dur_ms,
            counts: counts.to_vec(),
        });
    }

    pub fn finish(&mut self) {
        self.tick_ms = ms_between(self.origin, Instant::now());
    }

    /// Tick time no top-level span covers.
    pub fn unaccounted_ms(&self) -> f64 {
        self.tick_ms
            - self
                .spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.dur_ms)
                .sum::<f64>()
    }

    /// Time of the replayed planner, which `iterate` does not spend.
    pub fn replay_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == Layer::Plan)
            .map(|s| s.dur_ms)
            .sum()
    }

    /// The group as one JSON line.
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"instance\":{},\"tick\":{},\"tick_ms\":{},\"spans\":[",
            self.instance, self.tick, self.tick_ms
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                line,
                "{{\"layer\":\"{}\",\"parent\":{},\"start_ms\":{},\"dur_ms\":{},\"counts\":{{",
                span.layer.name(),
                parent,
                span.start_ms,
                span.dur_ms
            );
            for (j, (name, value)) in span.counts.iter().enumerate() {
                if j > 0 {
                    line.push(',');
                }
                let _ = write!(line, "\"{name}\":{value}");
            }
            line.push_str("}}");
        }
        line.push_str("]}");
        line
    }
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// A per-layer metric: name, unit, value.
pub type Metric = (String, &'static str, f64);

/// Sum the spans of a run into the per-layer metrics: for every layer its
/// summed time (`.ms`), its call count (`.calls`) and its counts, plus the
/// derived ratios.
pub fn layer_metrics(ticks: &[TickSpans]) -> Vec<Metric> {
    let mut ms: BTreeMap<Layer, f64> = BTreeMap::new();
    let mut calls: BTreeMap<Layer, f64> = BTreeMap::new();
    let mut counts: BTreeMap<(Layer, &'static str), f64> = BTreeMap::new();
    for span in ticks.iter().flat_map(|t| &t.spans) {
        *ms.entry(span.layer).or_default() += span.dur_ms;
        *calls.entry(span.layer).or_default() += 1.0;
        for &(name, value) in &span.counts {
            *counts.entry((span.layer, name)).or_default() += value;
        }
    }
    let get = |layer: Layer, name: &'static str| counts.get(&(layer, name)).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut out: Vec<Metric> = Vec::new();
    for layer in Layer::ALL {
        let name = layer.name();
        let layer_ms = ms.get(&layer).copied().unwrap_or(0.0);
        let layer_calls = calls.get(&layer).copied().unwrap_or(0.0);
        out.push((format!("{name}.ms"), "ms", layer_ms));
        out.push((format!("{name}.calls"), "count", layer_calls));
        let mut count = |key: &'static str, unit: &'static str| {
            out.push((format!("{name}.{key}"), unit, get(layer, key)));
        };
        match layer {
            Layer::Refresh | Layer::Apply => {}
            Layer::Observe => {
                count("changed_vms", "count");
                count("changed_nodes", "count");
                count("full_deltas", "count");
            }
            Layer::Sync => count("tracked_vms", "count"),
            Layer::Decide => {
                count("vjobs_in", "count");
                count("queued_vjobs", "count");
            }
            Layer::Optimize => {
                let search_ms = ms.get(&Layer::Search).copied().unwrap_or(0.0);
                out.push((format!("{name}.nonsearch_ms"), "ms", layer_ms - search_ms));
                for key in [
                    "movable_vms",
                    "pinned_vms",
                    "candidate_nodes",
                    "widenings",
                    "model_patches",
                    "model_set_diff_patches",
                    "model_rebuilds",
                ] {
                    out.push((format!("{name}.{key}"), "count", get(layer, key)));
                }
                let patches = get(layer, "model_patches");
                out.push((
                    format!("{name}.model_reuse_ratio"),
                    "ratio",
                    ratio(patches, patches + get(layer, "model_rebuilds")),
                ));
            }
            Layer::Search => {
                for key in [
                    "nodes",
                    "failures",
                    "solutions",
                    "restarts",
                    "incumbent_kept",
                    "steals",
                    "donated",
                ] {
                    out.push((format!("{name}.{key}"), "count", get(layer, key)));
                }
                out.push((
                    format!("{name}.us_per_node"),
                    "us",
                    ratio(layer_ms * 1e3, get(layer, "nodes")),
                ));
                out.push((
                    format!("{name}.proven_ratio"),
                    "ratio",
                    ratio(get(layer, "proven"), layer_calls),
                ));
                out.push((
                    format!("{name}.worker_node_imbalance"),
                    "ratio",
                    ratio(
                        get(layer, "worker_nodes_max"),
                        get(layer, "worker_nodes_mean"),
                    ),
                ));
            }
            Layer::Plan => {
                count("actions", "count");
                count("pools", "count");
            }
            Layer::Execute => {
                count("actions", "count");
                count("failed_actions", "count");
                count("virtual_s", "s");
            }
            Layer::Advance => count("completions", "count"),
        }
    }
    out.push((
        "tick.ms".to_owned(),
        "ms",
        ticks.iter().map(|t| t.tick_ms).sum(),
    ));
    out.push(("tick.calls".to_owned(), "count", ticks.len() as f64));
    out.push((
        "tick.unaccounted_ms".to_owned(),
        "ms",
        ticks.iter().map(TickSpans::unaccounted_ms).sum(),
    ));
    out
}
