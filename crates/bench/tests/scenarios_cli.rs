//! The `scenarios` binary speaks the study grammar of `otis_net::config`:
//! a flag `--KEY VALUE` is the `.scn` line `KEY VALUE`.  A bad value is a
//! usage error (exit status 2) before any cell runs, never a panic (status
//! 101).

use otis_net::STUDY_KEYS;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `scenarios` with `args`.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .output()
        .expect("the scenarios binary runs")
}

/// Runs `scenarios` with `args` and returns its exit status code.
fn exit_code(args: &[&str]) -> Option<i32> {
    run(args).status.code()
}

/// Runs a study that must succeed and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let output = run(args);
    assert!(
        output.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scenarios_cli_{}_{name}", std::process::id()))
}

/// `key` as written, or with every `_` spelled `-` when `hyphens` is set.
fn spell(key: &str, hyphens: bool) -> String {
    if hyphens {
        key.replace('_', "-")
    } else {
        key.to_string()
    }
}

/// Writes `lines` as a `.scn` file and returns its path.
fn write_study(name: &str, lines: &[(&str, &str)], hyphens: bool) -> String {
    let path = scratch(name);
    let text: String = lines
        .iter()
        .map(|(key, value)| format!("{} {value}\n", spell(key, hyphens)))
        .collect();
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

/// The same study as flags: `("fault_schedule", v)` becomes
/// `--fault-schedule v` when `hyphens` is set, `--fault_schedule v` when not.
fn as_flags(lines: &[(&str, &str)], hyphens: bool) -> Vec<String> {
    lines
        .iter()
        .flat_map(|(key, value)| [format!("--{}", spell(key, hyphens)), value.to_string()])
        .collect()
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

#[test]
fn wavelength_counts_out_of_range_are_a_usage_error() {
    let study = ["--specs", "POPS(2,2)", "--loads", "0.2", "--slots", "1"];
    for count in ["18446744073709551615", "4097", "0"] {
        let args: Vec<&str> = study
            .iter()
            .copied()
            .chain(["--wavelengths", count])
            .collect();
        let output = run(&args);
        assert_eq!(output.status.code(), Some(2), "--wavelengths {count}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--wavelengths: "), "{stderr}");
    }
    // The same line in a file, reported against its line.
    let file = write_study(
        "huge_wavelengths.scn",
        &[
            ("specs", "POPS(2,2)"),
            ("loads", "0.2"),
            ("wavelengths", "18446744073709551615"),
        ],
        false,
    );
    let output = run(&["--file", &file]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains(&format!("{file}: line 3: ")), "{stderr}");
    std::fs::remove_file(&file).ok();
    // The bound itself runs.
    let args: Vec<&str> = study
        .iter()
        .copied()
        .chain(["--wavelengths", "4096"])
        .collect();
    assert_eq!(exit_code(&args), Some(0));
}

#[test]
fn thread_counts_above_the_cap_are_a_usage_error() {
    // Refused while parsing, before any worker starts.
    let study = ["--specs", "POPS(2,2)", "--loads", "0.2", "--slots", "1"];
    let max = otis_net::MAX_THREADS.to_string();
    let over = (otis_net::MAX_THREADS + 1).to_string();
    for count in [over.as_str(), "100000", "18446744073709551615"] {
        let args: Vec<&str> = study.iter().copied().chain(["--threads", count]).collect();
        let output = run(&args);
        assert_eq!(output.status.code(), Some(2), "--threads {count}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--threads: "), "{stderr}");
    }
    // The cap itself runs: this one-cell grid starts a single worker.
    let args: Vec<&str> = study.iter().copied().chain(["--threads", &max]).collect();
    assert_eq!(exit_code(&args), Some(0));
}

#[test]
fn the_banner_reports_the_workers_that_run() {
    // The engine runs at least one worker and never more than there are
    // cells, and the stderr banner says how many it ran.
    for (specs, threads, workers) in [("POPS(2,2)", "0", 1), ("POPS(2,2),K(3),K(4)", "64", 3)] {
        let output = run(&[
            "--specs",
            specs,
            "--loads",
            "0.2",
            "--slots",
            "1",
            "--threads",
            threads,
        ]);
        assert!(output.status.success(), "--threads {threads}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!(" slots each, {workers} threads, ")),
            "--threads {threads}: {stderr}"
        );
    }
}

#[test]
fn a_missing_trace_file_is_a_usage_error() {
    let output = run(&["--specs", "DB(2,5)", "--traffic", "trace(no_such_file.trc)"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--traffic: "), "{stderr}");
    assert!(stderr.contains("does not exist"), "{stderr}");
}

#[test]
fn flags_and_files_run_the_same_study() {
    // Each study sets the spec, workload, seed and slot axes, so no line of
    // the built-in defaults survives into the flag form.  Together the
    // studies use every spelling of every key, as flags and as file lines.
    let studies: [&[(&str, &str)]; 5] = [
        &[
            ("specs", "SK(2,2,2), DB(2,3)"),
            ("loads", "0.2, 0.5"),
            ("seeds", "1, 2"),
            ("slots", "60"),
            ("faults", "1"),
            ("threads", "2"),
            ("format", "csv"),
        ],
        &[
            ("spec", "POPS(2,3)"),
            ("traffic", "uniform(0.3), hotspot(0.4,0,0.2)"),
            ("seed", "7"),
            ("slots", "50"),
            ("fault_schedule", "none, fail(node 1)@10; recover@30"),
            ("wavelength", "1, 2"),
            ("alt_paths", "2"),
            ("format", "csv"),
        ],
        &[
            ("specs", "DB(2,4)"),
            ("workloads", "poisson(0.2), perm(0.3,3)"),
            ("seeds", "3"),
            ("slots", "40"),
            ("fault_schedules", "fail(node 2)@5"),
            ("wavelengths", "1, 3"),
            ("threads", "1"),
            ("format", "csv"),
        ],
        &[
            ("spec", "K(4)"),
            ("workload", "bitrev(0.5)"),
            ("seed", "9"),
            ("slots", "30"),
            ("format", "csv"),
        ],
        &[
            ("specs", "POPS(2,2)"),
            ("load", "0.4"),
            ("seeds", "5"),
            ("slots", "30"),
            ("format", "csv"),
        ],
    ];
    let mut used = Vec::new();
    for (i, study) in studies.iter().enumerate() {
        // Odd studies spell the flags with '-' and the file keys with '_',
        // even ones the other way round.
        let file = write_study(&format!("study{i}.scn"), study, i % 2 == 0);
        let flags = as_flags(study, i % 2 == 1);
        let flag_args: Vec<&str> = flags.iter().map(String::as_str).collect();
        let from_flags = stdout_of(&flag_args);
        let from_file = stdout_of(&["--file", &file]);
        assert!(from_flags.starts_with("spec,"), "study {i}: {from_flags}");
        assert_eq!(from_flags, from_file, "study {i}");
        used.extend(study.iter().map(|(key, _)| *key));
        std::fs::remove_file(&file).ok();
    }

    // The output key streams to a file instead of stdout, in both forms.
    let study = studies[0];
    for (name, via_file) in [("flags", false), ("file", true)] {
        let out = scratch(&format!("rows_{name}.csv"));
        let out = out.to_str().unwrap();
        let mut lines = study.to_vec();
        lines.push(("output", out));
        let stdout = if via_file {
            let file = write_study("output_study.scn", &lines, false);
            let stdout = stdout_of(&["--file", &file]);
            std::fs::remove_file(&file).ok();
            stdout
        } else {
            let flags = as_flags(&lines, true);
            stdout_of(&flags.iter().map(String::as_str).collect::<Vec<_>>())
        };
        assert_eq!(stdout, "");
        let flags = as_flags(study, true);
        let expected = stdout_of(&flags.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(std::fs::read_to_string(out).unwrap(), expected, "{name}");
        std::fs::remove_file(out).ok();
    }
    used.push("output");

    for key in &STUDY_KEYS {
        for spelling in key.spellings {
            assert!(used.contains(spelling), "no study uses '{spelling}'");
        }
    }
}

#[test]
fn a_flag_after_the_file_overrides_that_key() {
    let file = write_study(
        "override.scn",
        &[
            ("specs", "SK(2,2,2), POPS(2,2)"),
            ("loads", "0.2, 0.6"),
            ("seeds", "3"),
            ("slots", "40"),
            ("format", "csv"),
        ],
        false,
    );
    let overridden = stdout_of(&["--file", &file, "--slots", "25", "--specs", "DB(2,3)"]);
    let expected = stdout_of(&[
        "--specs", "DB(2,3)", "--loads", "0.2,0.6", "--seeds", "3", "--slots", "25", "--format",
        "csv",
    ]);
    assert_eq!(overridden, expected);
    // A flag *before* the file is discarded with the rest of the defaults.
    let discarded = stdout_of(&["--slots", "25", "--file", &file]);
    assert_eq!(discarded, stdout_of(&["--file", &file]));
    assert_ne!(discarded, stdout_of(&["--file", &file, "--slots", "25"]));
    std::fs::remove_file(&file).ok();
}

#[test]
fn the_last_of_loads_and_traffic_wins() {
    let study = ["--specs", "DB(2,3)", "--slots", "30", "--format", "csv"];
    let with = |extra: &[&str]| {
        let args: Vec<&str> = study.iter().chain(extra).copied().collect();
        stdout_of(&args)
    };
    let loads = with(&["--loads", "0.2"]);
    let traffic = with(&["--traffic", "hotspot(0.4,0,0.2)"]);
    assert_ne!(loads, traffic);
    assert_eq!(
        with(&["--traffic", "hotspot(0.4,0,0.2)", "--loads", "0.2"]),
        loads
    );
    assert_eq!(
        with(&["--loads", "0.2", "--traffic", "hotspot(0.4,0,0.2)"]),
        traffic
    );
}

#[test]
fn help_names_every_key() {
    let help = stdout_of(&["--help"]);
    assert!(help.contains("--file"), "{help}");
    for key in &STUDY_KEYS {
        for spelling in key.spellings {
            let flag = format!("--{}", spelling.replace('_', "-"));
            assert!(help.contains(&flag), "--help lacks {flag}");
        }
    }
}

#[test]
fn errors_name_the_flag_or_file_line() {
    let output = run(&["--specs", "K(8)", "--loads", "0.2", "--alt-paths", "0"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("scenarios: --alt-paths: "), "{stderr}");

    let file = write_study(
        "bad_line.scn",
        &[("specs", "K(8)"), ("colour", "blue")],
        false,
    );
    let output = run(&["--file", &file]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("{file}: line 2: unknown key 'colour'")),
        "{stderr}"
    );
    std::fs::remove_file(&file).ok();

    // A value the one-line-per-key grammar cannot carry is refused.
    assert_eq!(exit_code(&["--specs", "K(8)\nslots 5"]), Some(2));
    assert_eq!(exit_code(&["--colour", "blue"]), Some(2));
}
