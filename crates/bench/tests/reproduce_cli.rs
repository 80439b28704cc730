//! The `reproduce` binary checks every experiment id before it runs any:
//! an unknown id is a usage error (exit status 2), never a panic (status
//! 101).

use otis_bench::available_experiments;
use std::process::{Command, Output};

/// Runs `reproduce` with `args`.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary runs")
}

#[test]
fn an_unknown_id_is_a_usage_error_before_any_experiment_runs() {
    for args in [&["nope"][..], &["fig1", "nope"], &["fig1", "all"]] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}: an experiment ran");
        let stderr = String::from_utf8(output.stderr).unwrap();
        let bad = args.last().unwrap();
        assert!(stderr.starts_with("usage: reproduce"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown experiment id '{bad}'")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn known_ids_and_list_succeed() {
    let output = run(&["fig1", "fig3"]);
    assert!(output.status.success());
    assert!(!output.stdout.is_empty());

    let list = String::from_utf8(run(&["list"]).stdout).unwrap();
    assert!(list.starts_with("usage: reproduce"));
    for (id, _) in available_experiments() {
        assert!(list.contains(&format!("  {id:<14} ")), "{id} not listed");
    }
}
