//! Command-line entry point regenerating the paper's figures and tables.
//!
//! ```text
//! cargo run -p otis-bench --bin reproduce -- list     # list experiment ids
//! cargo run -p otis-bench --bin reproduce -- fig12    # one experiment
//! cargo run -p otis-bench --bin reproduce -- all      # everything
//! ```

use otis_bench::{available_experiments, experiment_banner, run_experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" || args[0] == "--help" || args[0] == "-h" {
        println!("usage: reproduce <experiment-id | all | list>");
        println!();
        println!("available experiments:");
        for (id, description) in available_experiments() {
            println!("  {id:<14} {description}");
        }
        return;
    }
    if args[0] == "all" {
        for (id, description) in available_experiments() {
            print!("{}", experiment_banner(id, description));
            println!("{}", run_experiment(id));
        }
        return;
    }
    for id in &args {
        println!("{}", run_experiment(id));
    }
}
