//! The unified route type.
//!
//! `otis-routing` ships one router per family (word-label Kautz routing,
//! arithmetic Imase–Itoh routing, quotient-table stack routing, BFS tables
//! for everything else).  [`crate::Network::route`] picks the family's
//! router and returns a uniform [`Route`] between two flat processor
//! identifiers.

use otis_graphs::NodeId;
pub use otis_routing::stack::StackHop;
pub use otis_routing::StackRoute;

/// A route between two processors of any network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// A node path of a point-to-point network, from source to destination
    /// inclusive (a single node when source equals destination).
    PointToPoint(Vec<NodeId>),
    /// A multi-OPS route: one OPS coupler per optical hop.
    MultiOps(StackRoute),
}

impl Route {
    /// Number of optical hops of the route.
    pub fn hop_count(&self) -> usize {
        match self {
            Route::PointToPoint(path) => path.len().saturating_sub(1),
            Route::MultiOps(r) => r.len(),
        }
    }

    /// The sequence of processors visited, source first, destination last.
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            Route::PointToPoint(path) => path.clone(),
            Route::MultiOps(r) => {
                let mut nodes = Vec::with_capacity(r.len() + 1);
                nodes.push(r.source);
                nodes.extend(r.hops.iter().map(|h| h.receiver));
                nodes
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Network;
    use otis_routing::RoutingTable;
    use otis_topologies::de_bruijn;

    #[test]
    fn kautz_oracle_routes_within_k() {
        let net = Network::from_spec("KG(2,3)").unwrap();
        for src in 0..12 {
            for dst in 0..12 {
                let route = net.route(src, dst).unwrap();
                assert!(route.hop_count() <= 3);
                assert_eq!(route.nodes().first(), Some(&src));
                assert_eq!(route.nodes().last(), Some(&dst));
            }
        }
        assert!(net.route(12, 0).is_none());
        assert_eq!(net.hop_count(0, 0), Some(0));
    }

    #[test]
    fn table_oracle_matches_bfs_distances() {
        let net = Network::from_spec("DB(2,3)").unwrap();
        let table = RoutingTable::new(&de_bruijn(2, 3));
        for src in 0..8 {
            for dst in 0..8 {
                assert_eq!(
                    net.hop_count(src, dst).map(|h| h as u32),
                    table.distance(src, dst)
                );
            }
        }
    }

    #[test]
    fn stack_oracle_routes_and_reports_nodes() {
        let net = Network::from_spec("SK(2,2,2)").unwrap();
        let n = net.node_count();
        for src in 0..n {
            for dst in 0..n {
                let route = net.route(src, dst).unwrap();
                assert!(route.hop_count() <= 2);
                let nodes = route.nodes();
                assert_eq!(nodes.first(), Some(&src));
                assert_eq!(nodes.last(), Some(&dst));
            }
        }
        assert!(net.route(0, n).is_none());
    }

    #[test]
    fn imase_itoh_oracle_is_in_range_guarded() {
        let net = Network::from_spec("II(3,12)").unwrap();
        assert!(net.route(0, 11).is_some());
        assert!(net.route(0, 12).is_none());
        // II(1, n) is the involution u -> -u - 1: most pairs are unreachable.
        let net = Network::from_spec("II(1,7)").unwrap();
        assert!(net.route(1, 0).is_none());
        assert_eq!(net.hop_count(1, 5), Some(1));
    }
}
