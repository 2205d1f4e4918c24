//! The vertex-program abstraction (Gemini's signal/slot style).

use bpart_graph::{CsrGraph, VertexId};

/// Per-iteration context handed to [`VertexProgram::apply`].
#[derive(Clone, Copy, Debug)]
pub struct ProgramContext {
    /// 0-based iteration number.
    pub iteration: usize,
    /// Number of vertices in the whole graph.
    pub num_vertices: usize,
    /// Global aggregate computed from the *previous* iteration's values
    /// (see [`VertexProgram::aggregate`]); 0 in iteration 0... unless the
    /// engine seeded it from the initial values, which it does.
    pub aggregate: f64,
}

/// A vertex-centric program executed by
/// [`IterationEngine`](crate::IterationEngine).
///
/// Each iteration: every *active* vertex `u` produces one signal via
/// [`scatter`](VertexProgram::scatter), which is delivered along all of
/// `u`'s out-edges (and in-edges too if
/// [`use_in_edges`](VertexProgram::use_in_edges) is true). Signals headed
/// to the same target are merged with
/// [`combine`](VertexProgram::combine) before crossing the network —
/// Gemini's sender-side combining. After the exchange,
/// [`apply`](VertexProgram::apply) folds the combined signal into each
/// signalled vertex (and every vertex, for programs that update
/// unconditionally like PageRank); it returns whether the vertex is active
/// in the next iteration.
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type Value: Clone + Send + Sync;
    /// Signal payload (must combine associatively). A vacant accumulator
    /// slot holds the program's [`identity`](VertexProgram::identity).
    type Accum: Clone + Send;

    /// Initial state of vertex `v`.
    fn init(&self, v: VertexId, graph: &CsrGraph) -> Self::Value;

    /// Whether `v` starts active.
    fn initially_active(&self, v: VertexId, graph: &CsrGraph) -> bool;

    /// Signal produced by active vertex `u`; `None` sends nothing.
    fn scatter(&self, u: VertexId, value: &Self::Value, graph: &CsrGraph) -> Option<Self::Accum>;

    /// Merges `b` into `a` (associative, commutative).
    fn combine(&self, a: &mut Self::Accum, b: Self::Accum);

    /// The identity of [`combine`](VertexProgram::combine): vacant slots
    /// hold it, so the kernel folds every signal with `combine` alone,
    /// never branching on a slot's first touch (see
    /// [`MachineStep`](crate::MachineStep)).
    ///
    /// The contract: for every signal `s` the program sends,
    /// `combine(&mut identity, s)` leaves exactly `s`, bit for bit. (`0.0`
    /// is one for sums of non-negative floats, not of `-0.0`.)
    fn identity(&self) -> Self::Accum;

    /// Folds the combined incoming signal (if any) into `v`'s state;
    /// returns whether `v` is active next iteration.
    fn apply(
        &self,
        v: VertexId,
        value: &mut Self::Value,
        incoming: Option<Self::Accum>,
        ctx: &ProgramContext,
        graph: &CsrGraph,
    ) -> bool;

    /// When true, [`apply`](VertexProgram::apply) runs on *every* local
    /// vertex each iteration (synchronous programs like PageRank); when
    /// false, only on vertices that received a signal (traversals).
    fn apply_to_all(&self) -> bool {
        false
    }

    /// Signals also travel along in-edges (needed for weakly-connected
    /// component style programs on directed graphs).
    fn use_in_edges(&self) -> bool {
        false
    }

    /// Per-vertex contribution to a global scalar aggregate, summed each
    /// iteration and delivered in the next iteration's
    /// [`ProgramContext::aggregate`] (PageRank uses it for dangling mass).
    fn aggregate(&self, _v: VertexId, _value: &Self::Value, _graph: &CsrGraph) -> f64 {
        0.0
    }

    /// Hard iteration limit (`None` = run until no vertex is active).
    fn max_iterations(&self) -> Option<usize> {
        None
    }
}
