//! Control-plane benchmark: runs one workload against the real
//! `ControlLoop::iterate`, checks its outputs, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`).  The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! Usage: `loopbench --workload <streaming|rebalance|paper> --seed <n>
//! --seconds <s> --trace <0|1>`.  `--seconds` fixes how many seeded
//! instances the run chains (see `Workload::instances_for`).

mod drive;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cwcs_core::{ControlLoop, FcfsConsolidation};

use drive::{run_script, untraced_tick, InstanceEnd, TickRecord, TimedTick, TracedLoop};
use trace::{layer_metrics, Metric, TickSpans};
use workload::{instance_seed, Instance, Workload, MAX_WORKERS};

/// Set-up is timed at least this many times per run; `setup_s` is the
/// median.
const MIN_SETUPS: usize = 5;

/// Samples a tail percentile must leave beyond it.
const TAIL_SUPPORT: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One instance through the real `iterate`.
struct UntracedInstance {
    ticks: Vec<TimedTick>,
    end: InstanceEnd,
    /// Scenario generation plus `ControlLoop::new`.
    setup_secs: f64,
}

/// Set up instance `index`: scenario generation plus `ControlLoop::new`,
/// timed.
fn set_up(
    workload: Workload,
    seed: u64,
    index: usize,
    workers: usize,
) -> (ControlLoop<FcfsConsolidation>, Instance, f64) {
    let started = Instant::now();
    let (cluster, instance) = Instance::build(workload, instance_seed(seed, index), workers);
    let control = ControlLoop::new(
        cluster,
        &instance.specs,
        FcfsConsolidation::new(),
        instance.config.clone(),
    );
    (control, instance, started.elapsed().as_secs_f64())
}

fn run_untraced(workload: Workload, seed: u64, index: usize, workers: usize) -> UntracedInstance {
    let (mut control, instance, setup_secs) = set_up(workload, seed, index, workers);
    let mut ticks = Vec::new();
    let end = run_script(
        &mut control,
        &instance,
        workload.runs_to_completion(),
        |control| {
            ticks.push(untraced_tick(control)?);
            Ok(())
        },
    );
    UntracedInstance {
        ticks,
        end,
        setup_secs,
    }
}

/// One instance through the traced loop.
struct TracedInstance {
    records: Vec<TickRecord>,
    end: InstanceEnd,
    spans: Vec<TickSpans>,
    replay_mismatches: usize,
}

fn run_traced(workload: Workload, seed: u64, index: usize, workers: usize) -> TracedInstance {
    let (cluster, instance) = Instance::build(workload, instance_seed(seed, index), workers);
    let mut control = TracedLoop::new(cluster, &instance.specs, instance.config.clone());
    let mut records = Vec::new();
    let mut spans = Vec::new();
    let mut replay_mismatches = 0;
    let end = run_script(
        &mut control,
        &instance,
        workload.runs_to_completion(),
        |control| {
            let mut group = TickSpans::start(index, records.len());
            let mut replay_ok = true;
            let record = control.iterate(&mut group, &mut replay_ok);
            group.finish();
            spans.push(group);
            if !replay_ok {
                replay_mismatches += 1;
            }
            records.push(record?);
            Ok(())
        },
    );
    TracedInstance {
        records,
        end,
        spans,
        replay_mismatches,
    }
}

/// Operations attempted and failed by one pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one instance of a pass: its ticks and plan actions, and every
    /// failure they show.
    fn add_instance<'a>(
        &mut self,
        workload: Workload,
        instance: usize,
        records: impl Iterator<Item = &'a TickRecord>,
        end: &InstanceEnd,
    ) {
        for (t, record) in records.enumerate() {
            self.attempted += 1 + record.plan_stats.total_actions() as u64;
            self.failed += record.failed_actions as u64;
            if workload == Workload::Streaming && t > 0 && record.full_delta {
                eprintln!("instance {instance} tick {t}: full delta after tick 0");
                self.failed += 1;
            }
        }
        if let Some(error) = &end.loop_error {
            eprintln!("instance {instance}: loop error at {error}");
            self.failed += 1;
        }
        self.failed += end.overloaded_nodes as u64;
        if workload.runs_to_completion() {
            self.failed += end.unterminated_vjobs as u64;
        }
    }
}

/// Median of a sample (the mean of the two middle values for an even
/// count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest whole percentile above the median whose nearest rank
/// leaves at least [`TAIL_SUPPORT`] of `n` samples beyond it, if any.
fn tail_percentile(n: usize) -> Option<u32> {
    (51..100)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= TAIL_SUPPORT)
}

/// Nearest-rank percentile.
fn nearest_rank(values: &[f64], p: u32) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of the untraced pass.
fn end_to_end(run: &[UntracedInstance], setup_secs: &[f64]) -> Vec<Metric> {
    let ticks: Vec<&TimedTick> = run.iter().flat_map(|i| &i.ticks).collect();
    let decides: Vec<f64> = ticks
        .iter()
        .filter(|t| t.record.switched)
        .map(|t| t.decide_ms)
        .collect();
    let tail = match tail_percentile(decides.len()) {
        Some(p) => {
            println!("decide_tail_ms is p{p} of {} solving ticks", decides.len());
            nearest_rank(&decides, p)
        }
        None => {
            println!(
                "decide_tail_ms: {} solving ticks support no percentile above the median; \
                 reporting the maximum",
                decides.len()
            );
            decides.iter().copied().fold(0.0, f64::max)
        }
    };
    let switch_secs: Vec<f64> = ticks
        .iter()
        .filter(|t| t.record.switched && t.record.plan_stats.total_actions() > 0)
        .map(|t| t.record.switch_secs)
        .collect();
    let mut turnarounds = Vec::new();
    for instance in run {
        for tick in &instance.ticks {
            let done_at = tick.record.started_at_secs + tick.record.switch_secs;
            for vjob in &tick.record.terminated {
                turnarounds.push((done_at - instance.end.submitted_at[vjob]) / 60.0);
            }
        }
    }
    println!(
        "turnaround_min_mean is over {} terminated vjobs",
        turnarounds.len()
    );
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    vec![
        ("decide_p50_ms".to_owned(), "ms", median(&decides)),
        ("decide_tail_ms".to_owned(), "ms", tail),
        (
            "loop_s".to_owned(),
            "s",
            ticks.iter().map(|t| t.wall_secs).sum(),
        ),
        ("setup_s".to_owned(), "s", median(setup_secs)),
        ("peak_rss_mib".to_owned(), "MiB", peak_rss_mib()),
        (
            "plan_cost_total".to_owned(),
            "cost",
            ticks.iter().map(|t| t.record.plan_cost as f64).sum(),
        ),
        ("switch_s_mean".to_owned(), "s", mean(&switch_secs)),
        ("turnaround_min_mean".to_owned(), "min", mean(&turnarounds)),
    ]
}

/// Write the traced run's span groups as JSON lines under the build
/// directory; returns the path.
fn write_spans(workload: Workload, seed: u64, spans: &[TickSpans]) -> std::io::Result<String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned()),
    )
    .join("loopbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
    let mut out = String::new();
    for group in spans {
        out.push_str(&group.json_line());
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = MAX_WORKERS.min(cores);
    // A traced run makes two passes (untraced, then traced) over half the
    // instances, so it takes about as long as an untraced run.
    let k = workload.instances_for(args.seconds);
    let instances = if args.trace { k.div_ceil(2) } else { k };
    println!(
        "loopbench: workload {} seed {} | {} instance(s) per pass | host cores {} | \
         solver workers {}",
        workload.name(),
        args.seed,
        instances,
        cores,
        workers
    );

    let mut tally = Tally::default();
    let mut correct = true;
    let mut untraced = Vec::with_capacity(instances);
    let mut traced = Vec::new();
    for i in 0..instances {
        // A traced run alternates which pass goes first, so neither pays
        // the process's warm-up alone.
        let traced_first = args.trace && i % 2 == 1;
        if traced_first {
            traced.push(run_traced(workload, args.seed, i, workers));
        }
        untraced.push(run_untraced(workload, args.seed, i, workers));
        if args.trace && !traced_first {
            traced.push(run_traced(workload, args.seed, i, workers));
        }
    }
    for (i, run) in untraced.iter().enumerate() {
        tally.add_instance(workload, i, run.ticks.iter().map(|t| &t.record), &run.end);
    }

    let metrics = if args.trace {
        for (i, (run, reference)) in traced.iter().zip(&untraced).enumerate() {
            tally.add_instance(workload, i, run.records.iter(), &run.end);
            if run.replay_mismatches > 0 {
                eprintln!(
                    "instance {i}: {} replayed plans differ from the optimizer's",
                    run.replay_mismatches
                );
                tally.failed += run.replay_mismatches as u64;
            }
            // Equivalence: the traced loop must reproduce the untraced run.
            let expected: Vec<&TickRecord> = reference.ticks.iter().map(|t| &t.record).collect();
            let got: Vec<&TickRecord> = run.records.iter().collect();
            if expected != got || run.end != reference.end {
                let tick = expected.iter().zip(&got).position(|(a, b)| a != b);
                eprintln!(
                    "instance {i}: traced run diverges from the untraced run at tick {tick:?} \
                     ({} vs {} ticks)",
                    got.len(),
                    expected.len()
                );
                correct = false;
            }
        }
        let spans: Vec<TickSpans> = traced.into_iter().flat_map(|t| t.spans).collect();
        match write_spans(workload, args.seed, &spans) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        let untraced_ms: f64 = untraced
            .iter()
            .flat_map(|i| &i.ticks)
            .map(|t| t.wall_secs)
            .sum::<f64>()
            * 1e3;
        let traced_ms: f64 = spans.iter().map(|s| s.tick_ms - s.replay_ms()).sum();
        let mut metrics = layer_metrics(&spans);
        metrics.push((
            "trace.overhead_ms".to_owned(),
            "ms",
            traced_ms - untraced_ms,
        ));
        metrics
    } else {
        let mut setup_secs: Vec<f64> = untraced.iter().map(|i| i.setup_secs).collect();
        for i in setup_secs.len()..MIN_SETUPS {
            setup_secs.push(set_up(workload, args.seed, i, workers).2);
        }
        end_to_end(&untraced, &setup_secs)
    };

    correct &= tally.failed == 0;
    println!(
        "attempted {} operations (ticks + plan actions), failed {}",
        tally.attempted, tally.failed
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<52} {value:>16.4} {unit}");
    }
    println!("{}", result_line(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(21), Some(52));
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(154), Some(93));
        for n in 21..400 {
            let p = tail_percentile(n).expect("21 samples or more support a tail");
            let rank = (p as usize * n).div_ceil(100);
            assert!(n - rank >= TAIL_SUPPORT);
            assert!(p == 99 || n - (((p + 1) as usize * n).div_ceil(100)) < TAIL_SUPPORT);
        }
    }
}
