//! # otis-bench
//!
//! Benchmark and paper-reproduction harness.
//!
//! * The [`reproduce`] module regenerates, in text form, every figure and
//!   in-text table of the paper — run
//!   `cargo run -p otis-bench --bin reproduce -- all`, or a single experiment
//!   id such as `fig10` (see [`reproduce::available_experiments`]).
//! * The `scenarios` binary is the CLI front end of the parallel scenario
//!   engine (`otis_net::engine`): it expands a `(spec × workload × seed ×
//!   fault pattern × fault schedule × wavelength count)` grid, runs every
//!   cell across worker threads and **streams** one row per cell in
//!   deterministic grid order (`run_grid_streaming` + a `RowSink`), so peak
//!   memory is bounded by the reorder window, not the cell count.  Its
//!   flags are the study grammar of `otis_net::config`: `--KEY VALUE` is
//!   the `.scn` line `KEY VALUE`, the keys are the table
//!   `otis_net::STUDY_KEYS` (`scenarios --help` prints it), and
//!   `--file STUDY.scn` loads a whole study that later flags override key
//!   by key.  The workload values (`uniform(0.3)`, `poisson(0.3)`,
//!   `trace(file.trc)`, ...) are the grammar of `otis_sim::workload`.
//!   Run metadata (the cell-count banner, wall-clock timing, a `# perf`
//!   line) goes to stderr, so `--format csv`/`jsonl` stays machine-clean.
//!   The `# perf` line's keys are `node_slots_per_sec`, `node_slots`,
//!   `rows`, `scratch_reuses`, `kernels_built`, `kernels_repaired`,
//!   `kernel_swaps`, `elapsed_s` and, last, `peak_live_kernels`: the most
//!   prepared kernels held at once (the engine drops each kernel after the
//!   last cell that uses it).  Three of its numbers depend on how the
//!   worker threads happen to be scheduled: the banner's "peak reorder
//!   buffer" and the perf line's `scratch_reuses` and `peak_live_kernels`
//!   vary between identical runs above one thread, so compare them across
//!   runs only at `--threads 1` (as `perfbench/` does).
//!   `--threads` is at most `otis_net::MAX_THREADS` (1024); the rows never
//!   depend on it.
//!   Examples:
//!   `cargo run --release -p otis-bench --bin scenarios -- --traffic "hotspot(0.4,0,0.2)" --faults 1`
//!   and `cargo run --release -p otis-bench --bin scenarios -- --file examples/sweep.scn --format jsonl --output rows.jsonl`.
//! * The Criterion benches under `benches/` measure the performance of the
//!   building blocks: topology construction, diameter computation, routing,
//!   OTIS design construction + verification, and simulation throughput.
//!   `scenario_grid` measures the engine end to end — cells/second on a
//!   representative `SK(2,2,2) × 3 workloads × 8 seeds × fault-sweep` grid —
//!   against a fresh-kernel-per-cell baseline, making the prepare/execute
//!   split's cache win visible in the bench trajectory (CI compiles every
//!   bench via `cargo bench --no-run`).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod reproduce;

pub use reproduce::{available_experiments, experiment_banner, run_experiment};
