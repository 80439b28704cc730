//! The `scenarios` binary's argument errors: a bad value is a usage error
//! (exit status 2) before any cell runs, never a panic (status 101).

use std::process::Command;

/// Runs `scenarios` with `args` and returns its exit status code.
fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .output()
        .expect("the scenarios binary runs")
        .status
        .code()
}

#[test]
fn fault_count_past_every_fault_domain_is_a_usage_error() {
    for faults in ["18446744073709551615", "9"] {
        assert_eq!(
            exit_code(&["--specs", "K(8)", "--loads", "0.2", "--faults", faults]),
            Some(2),
            "--faults {faults}"
        );
    }
    // The bound uses the final spec list, whatever the flag order.
    assert_eq!(
        exit_code(&["--faults", "9", "--specs", "K(8)", "--loads", "0.2"]),
        Some(2)
    );
}
