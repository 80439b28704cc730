//! # otis-bench
//!
//! Benchmark and paper-reproduction harness.
//!
//! * The [`reproduce`] module regenerates, in text form, every figure and
//!   in-text table of the paper — run
//!   `cargo run -p otis-bench --bin reproduce -- all`, or a single experiment
//!   id such as `fig10` (see [`reproduce::available_experiments`]).
//! * The `scenarios` binary is the CLI front end of the parallel scenario
//!   engine (`otis_net::engine`): it expands a
//!   `(spec × workload × seed × fault pattern)` grid, runs every cell across
//!   worker threads and **streams** one row per cell in deterministic grid
//!   order (`run_grid_streaming` + a `RowSink`), so peak memory is bounded
//!   by the reorder window, not the cell count.  Flags (all optional):
//!
//!   | flag        | meaning                                         | default |
//!   |-------------|--------------------------------------------------|---------|
//!   | `--file`    | scenario config file declaring the whole study; flags given after it override it | — |
//!   | `--specs`   | comma-separated network specs                    | `SK(4,2,2),POPS(4,6),DB(2,5)` |
//!   | `--traffic` | comma-separated workload specs — see the traffic grammar below (`--workload` is an alias) | uniform at the default loads |
//!   | `--loads`   | comma-separated offered loads — sugar for uniform workloads (`--traffic`/`--loads` both set the workload axis, last one wins) | `0.05,0.2,0.5,0.9` |
//!   | `--seeds`   | comma-separated random seeds                     | `42` |
//!   | `--slots`   | slots simulated per cell                         | `2000` |
//!   | `--faults`  | sweep 0..=N nested node faults (quotient groups for multi-OPS, processors for point-to-point) | `0` |
//!   | `--threads` | worker threads (results are thread-count independent) | available parallelism |
//!   | `--format`  | result format: `table`, `csv` or `jsonl` (undefined averages render `-` / empty field / `null` respectively, never `NaN`) | `table` |
//!   | `--output`  | stream results to a file instead of stdout       | stdout |
//!
//!   The workload grammar (`otis_sim::workload`, parsed into
//!   `otis_net::DemandSpec`) covers stationary patterns and the demand
//!   subsystem's arrival processes:
//!
//!   | workload | meaning | offered load column |
//!   |----------|---------|---------------------|
//!   | `uniform(L)` | every processor injects with probability `L`, destination uniform | `L` |
//!   | `perm(L,K)` | fixed permutation `dst = (src + K) mod N` at load `L` | `L` |
//!   | `hotspot(L,H,F)` | uniform at `L`, fraction `F` redirected to hot node `H` | `L` |
//!   | `transpose(L)` | matrix-transpose partner (needs square `N`) | `L` |
//!   | `bitrev(L)` | bit-reversal partner (needs `N` a power of two) | `L` |
//!   | `poisson(R)` | Poisson arrivals at rate `R` per processor per slot, destination uniform | `1 − e^−R` |
//!   | `poisson(R,D)` | Poisson arrivals, all addressed to node `D` | `1 − e^−R` |
//!   | `onoff(R,B,I)` | each source cycles a `B`-slot burst at rate `R` and `I` idle slots (phases staggered per seed) | `(1 − e^−R) · B/(B+I)` |
//!   | `mix(F,E,M)` | elephants-and-mice: fraction `F` of sources inject at rate `E`, the rest at `M` | `F·p(E) + (1−F)·p(M)` |
//!   | `trace(PATH)` | replay of a recorded `.trc` demand stream, streamed lazily in bounded memory | undefined (`-`/empty/`null`) |
//!
//!   Rates are validated at parse time (finite, non-negative; NaN refused)
//!   and trace node ids against the network size at bind time, with
//!   line-numbered errors mirroring `.scn`.  Stochastic cells stay
//!   deterministic per seed and thread-count independent; trace replay
//!   ignores the seed entirely (the engine warns when a trace is crossed
//!   with several seeds).
//!
//!   Run metadata (the cell-count banner, wall-clock timing) goes to
//!   stderr, so `--format csv`/`jsonl` piped or written via `--output`
//!   stays machine-clean.  Examples:
//!   `cargo run --release -p otis-bench --bin scenarios -- --traffic "hotspot(0.4,0,0.2)" --faults 1`
//!   and `cargo run --release -p otis-bench --bin scenarios -- --file examples/sweep.scn --format jsonl --output rows.jsonl`.
//!
//!   The config-file format (`otis_net::config`) is line-oriented: one
//!   `key value` per line, `#` starts a comment, list values are split on
//!   top-level commas.  Keys: `spec`/`specs`, `workload`/`workloads`,
//!   `load`/`loads` (uniform sugar), `seed`/`seeds` (list keys append
//!   across lines) and the scalars `slots`, `faults`, `threads`, `format`
//!   (`table`/`csv`/`jsonl`) and `output` (a file path), once each.
//!   `examples/sweep.scn` is a checked-in study that CI smoke-runs; CI also
//!   asserts that a `--format jsonl --output` fault sweep emits exactly one
//!   line per grid cell.
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
