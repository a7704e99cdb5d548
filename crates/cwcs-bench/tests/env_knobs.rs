//! Integer environment knobs are parsed strictly: a value that is not a
//! non-negative integer stops the binary with status 1 and a message
//! naming the variable and its value, instead of silently running with
//! the default.

use std::process::Command;

fn assert_rejected(binary: &str, name: &str, value: &str) {
    let output = Command::new(binary)
        .env(name, value)
        .output()
        .expect("bench binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{binary} {name}={value}: {stderr}"
    );
    assert!(
        stderr.contains(&format!("{name}={value:?}")),
        "{binary}: the message must name {name} and its value: {stderr}"
    );
}

#[test]
fn non_numeric_timeout_and_worker_knobs_exit_with_a_usage_error() {
    for binary in [
        env!("CARGO_BIN_EXE_headline_completion_time"),
        env!("CARGO_BIN_EXE_fig11_switch_durations"),
        env!("CARGO_BIN_EXE_fig13_utilization"),
    ] {
        assert_rejected(binary, "CWCS_OPT_TIMEOUT_MS", "abc");
    }
    assert_rejected(
        env!("CARGO_BIN_EXE_fig11_switch_durations"),
        "CWCS_SOLVER_WORKERS",
        "four",
    );
}
