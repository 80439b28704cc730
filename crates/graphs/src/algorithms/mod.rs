//! Graph algorithms used throughout the reproduction.
//!
//! All algorithms operate on the CSR [`crate::Digraph`] and are written for
//! the sizes relevant to the paper (up to a few hundred thousand nodes for
//! the largest Kautz/Imase–Itoh sweeps). They favour simple, allocation-aware
//! implementations: distance vectors are reused where possible and BFS uses a
//! flat `VecDeque` frontier.

pub mod bfs;
pub mod connectivity;
pub mod diameter;
pub mod euler;
pub mod hamilton;
pub mod paths;
pub mod yen;

pub use bfs::{bfs_distances, bfs_distances_into};
pub use connectivity::{is_strongly_connected, strongly_connected_components};
pub use diameter::{average_distance, diameter};
pub use euler::is_eulerian;
pub use hamilton::{hamiltonian_cycle, is_hamiltonian};
pub use paths::{is_valid_path, shortest_path, shortest_path_avoiding};
pub use yen::{k_shortest_paths_avoiding, KShortestPaths};
