//! Walk applications.
//!
//! The paper's five KnightKing workloads — [`Ppr`], [`Rwj`], [`Rwd`],
//! [`DeepWalk`], [`Node2vec`] — plus [`SimpleRandomWalk`], the plain
//! fixed-length walk its load-balance experiments use (5|V| walks of 4
//! steps).

mod deepwalk;
mod node2vec;
mod ppr;
mod rwd;
mod rwj;
mod simple;

pub use deepwalk::DeepWalk;
pub use node2vec::Node2vec;
pub use ppr::Ppr;
pub use rwd::Rwd;
pub use rwj::Rwj;
pub use simple::SimpleRandomWalk;

use crate::walker::WalkApp;

/// Builds the paper's five walk applications with its stated parameters:
/// PPR stop probability 0.1, RWJ jump probability 0.2, fixed-step walks
/// for the rest.
pub fn paper_suite(steps: u32) -> Vec<Box<dyn WalkApp>> {
    vec![
        Box::new(Ppr::new(0.1, steps)),
        Box::new(Rwj::new(0.2, steps)),
        Box::new(Rwd::new(0.2, steps)),
        Box::new(DeepWalk::new(steps)),
        Box::new(Node2vec::new(2.0, 0.5, steps)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_names() {
        let suite = paper_suite(4);
        let names: Vec<_> = suite.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["PPR", "RWJ", "RWD", "DeepWalk", "node2vec"]);
        assert!(suite.iter().all(|a| a.walk_length() == 4));
    }
}
