//! Command-line entry point regenerating the paper's figures and tables.
//!
//! ```text
//! cargo run -p otis-bench --bin reproduce -- list     # list experiment ids
//! cargo run -p otis-bench --bin reproduce -- fig12    # one experiment
//! cargo run -p otis-bench --bin reproduce -- all      # everything
//! ```
//!
//! Every id is checked before any experiment runs: an unknown one prints
//! the usage and the id to stderr and exits with status 2.

use otis_bench::{available_experiments, experiment_banner, run_experiment};

/// The usage line and the list of experiment ids.
fn usage() -> String {
    let ids: String = available_experiments()
        .iter()
        .map(|(id, description)| format!("  {id:<14} {description}\n"))
        .collect();
    format!("usage: reproduce <experiment-id | all | list>\n\navailable experiments:\n{ids}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" || args[0] == "--help" || args[0] == "-h" {
        print!("{}", usage());
        return;
    }
    if args[0] == "all" {
        for (id, description) in available_experiments() {
            print!("{}", experiment_banner(id, description));
            println!("{}", run_experiment(id));
        }
        return;
    }
    let known = available_experiments();
    if let Some(bad) = args
        .iter()
        .find(|arg| !known.iter().any(|(id, _)| id == arg))
    {
        eprint!("{}", usage());
        eprintln!("\nunknown experiment id '{bad}'");
        std::process::exit(2);
    }
    for id in &args {
        println!("{}", run_experiment(id));
    }
}
