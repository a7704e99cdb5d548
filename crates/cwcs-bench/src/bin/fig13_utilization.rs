//! Figure 13 — memory and CPU utilization of the VMs over time, Entropy
//! (dynamic consolidation + cluster-wide context switches) vs static FCFS.
//!
//! Prints two aligned time series, one sample per minute: memory used by
//! running VMs (GiB, Figure 13a) and the CPU demand of running VMs relative
//! to the cluster capacity (%, Figure 13b — it can exceed 100% when the
//! cluster is overloaded).

use std::time::Duration;

use cwcs_bench::{cluster_experiment, entropy_run, env_usize, static_fcfs_run};
use cwcs_sim::UtilizationSample;

/// Resample a utilization series at a fixed interval (linear-hold).
fn resample(
    samples: &[UtilizationSample],
    interval_secs: f64,
    horizon_secs: f64,
) -> Vec<UtilizationSample> {
    let mut out = Vec::new();
    let mut t = 0.0;
    while t <= horizon_secs {
        let sample = samples
            .iter()
            .rev()
            .find(|s| s.time_secs <= t)
            .or_else(|| samples.first());
        if let Some(s) = sample {
            out.push(UtilizationSample { time_secs: t, ..*s });
        }
        t += interval_secs;
    }
    out
}

fn main() {
    let timeout_ms = env_usize("CWCS_OPT_TIMEOUT_MS", 500) as u64;
    let scenario = cluster_experiment(7);
    println!(
        "Figure 13: resource utilization, Entropy vs FCFS ({} vjobs, {} VMs, {} nodes)",
        scenario.specs.len(),
        scenario.configuration.vm_count(),
        scenario.configuration.node_count()
    );

    let entropy = entropy_run(&scenario, Duration::from_millis(timeout_ms));
    let fcfs = static_fcfs_run(&scenario);
    let entropy_end = entropy.completion_time_secs.unwrap_or(0.0);
    let fcfs_end = fcfs.completion_time_secs.unwrap_or(0.0);
    let horizon = entropy_end.max(fcfs_end);

    let entropy_series = resample(&entropy.utilization, 60.0, horizon);
    let fcfs_series = resample(&fcfs.utilization, 60.0, horizon);

    println!();
    println!("time(min)  memory GiB (Entropy / FCFS)   CPU % of capacity (Entropy / FCFS)");
    for (e, f) in entropy_series.iter().zip(&fcfs_series) {
        let minute = e.time_secs / 60.0;
        let entropy_mem = if e.time_secs <= entropy_end {
            e.memory_gib
        } else {
            0.0
        };
        let fcfs_mem = if f.time_secs <= fcfs_end {
            f.memory_gib
        } else {
            0.0
        };
        let entropy_cpu = if e.time_secs <= entropy_end {
            e.cpu_percent
        } else {
            0.0
        };
        let fcfs_cpu = if f.time_secs <= fcfs_end {
            f.cpu_percent
        } else {
            0.0
        };
        println!(
            "{:>8.0}   {:>10.1} / {:<10.1}     {:>8.1} / {:<8.1}",
            minute, entropy_mem, fcfs_mem, entropy_cpu, fcfs_cpu
        );
    }

    println!();
    println!(
        "completion time: Entropy {:.0} min, FCFS {:.0} min ({:.0}% reduction; the paper reports 150 vs 250 min, 40%)",
        entropy_end / 60.0,
        fcfs_end / 60.0,
        if fcfs_end > 0.0 { 100.0 * (fcfs_end - entropy_end) / fcfs_end } else { 0.0 }
    );
    println!("expected shape: Entropy keeps utilization higher early on and finishes sooner.");
}
