//! The DFL property graph (§4.1).
//!
//! Vertices are tasks and data files; directed edges are producer
//! (task→data) and consumer (data→task) flow relations. A graph built from
//! one execution's measurements is a **DFL-DAG** (acyclic, since each task
//! instance is a distinct vertex). Aggregating instances yields a **DFL
//! template** ([`template`]), which may contain cycles.
//!
//! # Memory layout
//!
//! Storage is arena/SoA: vertices and edges live in flat `Vec` arenas
//! addressed by dense integer ids, and adjacency is intrusive singly-linked
//! lists threaded through parallel `next_out`/`next_in` arrays (one link
//! slot per edge, head/tail per vertex). Traversal touches only flat arrays
//! — no per-vertex heap allocation, no hashing — and adjacency lists
//! preserve edge insertion order, which the critical-path tie-break
//! contract relies on.
//!
//! # Id stability
//!
//! [`VertexId`]s and [`EdgeId`]s are assigned densely in insertion order
//! and are **never reused or renumbered**: [`DflGraph::unlink_edge`]
//! tombstones an edge (detaching it from adjacency, degrees, and
//! iteration) without moving any other edge. Serialization compacts
//! tombstones away, so edge ids are only stable within one in-memory
//! graph, not across a JSON round trip of a graph with unlinked edges.

pub mod build;
pub mod dag;
pub mod merge;
pub mod template;

use serde::{Deserialize, Serialize};

use crate::props::{DataProps, EdgeProps, FlowDir, TaskProps};

/// Sentinel terminating intrusive adjacency lists.
const NIL: u32 = u32::MAX;

/// Dense vertex identifier within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VertexId(pub u32);

/// Dense edge identifier within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

/// What a vertex represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VertexKind {
    Task,
    Data,
}

/// Per-kind vertex properties.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VertexProps {
    Task(TaskProps),
    Data(DataProps),
}

impl VertexProps {
    pub fn as_task(&self) -> Option<&TaskProps> {
        match self {
            VertexProps::Task(t) => Some(t),
            VertexProps::Data(_) => None,
        }
    }

    pub fn as_data(&self) -> Option<&DataProps> {
        match self {
            VertexProps::Data(d) => Some(d),
            VertexProps::Task(_) => None,
        }
    }
}

/// A DFL-G vertex.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vertex {
    pub kind: VertexKind,
    /// Instance name: task instance (e.g. `indiv-chr1-3`) or file path.
    pub name: String,
    /// Logical (template) name, e.g. `indiv` or a path with indices
    /// abstracted. Used for DFL-T aggregation.
    pub logical: String,
    pub props: VertexProps,
}

impl Vertex {
    pub fn is_task(&self) -> bool {
        self.kind == VertexKind::Task
    }

    pub fn is_data(&self) -> bool {
        self.kind == VertexKind::Data
    }
}

/// A DFL-G directed flow edge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Edge {
    pub src: VertexId,
    pub dst: VertexId,
    pub dir: FlowDir,
    pub props: EdgeProps,
}

/// The DFL property graph (see module docs for the memory layout).
#[derive(Debug, Clone, Default)]
pub struct DflGraph {
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
    // Per-vertex adjacency list heads/tails, NIL-terminated.
    first_out: Vec<u32>,
    last_out: Vec<u32>,
    first_in: Vec<u32>,
    last_in: Vec<u32>,
    // Per-edge successor links for the two lists.
    next_out: Vec<u32>,
    next_in: Vec<u32>,
    // SoA copies of edge endpoints: topology-only traversals (topo sort,
    // DP sweeps) read these 4-byte entries instead of dragging the full
    // `Edge` struct (with its property block) through the cache.
    esrc: Vec<u32>,
    edst: Vec<u32>,
    // Live (non-tombstoned) degree counters.
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    // SoA mirrors of the cost-relevant vertex fields (kind, task lifetime)
    // so DP sweeps never page in the full `Vertex` (name/logical strings).
    // Kept in sync by `add_vertex`/`set_vertex_props`.
    vkind: Vec<VertexKind>,
    vlife: Vec<u64>,
    // Tombstone marks for unlinked edges; `live_edges` counts the rest.
    dead: Vec<bool>,
    live_edges: u32,
    // Memoized topological order (flat ids, lowest-id-first tie-break;
    // `None` inside = cyclic). Structural mutations reset the cell, so
    // repeated analyses over an unchanged graph sort once. Thread-safe and
    // invisible to serialization/equality.
    topo: std::sync::OnceLock<Option<Vec<u32>>>,
}

/// Iterator over one vertex's adjacency list (live edges, insertion order).
#[derive(Clone)]
pub struct EdgeIter<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for EdgeIter<'_> {
    type Item = EdgeId;

    #[inline]
    fn next(&mut self) -> Option<EdgeId> {
        if self.cur == NIL {
            return None;
        }
        let e = self.cur;
        self.cur = self.next[e as usize];
        Some(EdgeId(e))
    }
}

impl DflGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task vertex and returns its id.
    pub fn add_task(&mut self, name: &str, logical: &str, props: TaskProps) -> VertexId {
        self.add_vertex(Vertex {
            kind: VertexKind::Task,
            name: name.to_owned(),
            logical: logical.to_owned(),
            props: VertexProps::Task(props),
        })
    }

    /// Adds a data vertex and returns its id.
    pub fn add_data(&mut self, name: &str, logical: &str, props: DataProps) -> VertexId {
        self.add_vertex(Vertex {
            kind: VertexKind::Data,
            name: name.to_owned(),
            logical: logical.to_owned(),
            props: VertexProps::Data(props),
        })
    }

    pub fn add_vertex(&mut self, v: Vertex) -> VertexId {
        self.topo = std::sync::OnceLock::new();
        let id = VertexId(self.vertices.len() as u32);
        self.vkind.push(v.kind);
        self.vlife.push(match &v.props {
            VertexProps::Task(t) => t.lifetime_ns,
            VertexProps::Data(_) => 0,
        });
        self.vertices.push(v);
        self.first_out.push(NIL);
        self.last_out.push(NIL);
        self.first_in.push(NIL);
        self.last_in.push(NIL);
        self.out_deg.push(0);
        self.in_deg.push(0);
        id
    }

    /// Replaces the properties of `v`. The props kind must match the
    /// vertex kind (task props on a task vertex, data props on a data
    /// vertex).
    ///
    /// # Panics
    /// Panics on a kind mismatch.
    pub fn set_vertex_props(&mut self, v: VertexId, props: VertexProps) {
        let vi = v.0 as usize;
        match (&props, self.vkind[vi]) {
            (VertexProps::Task(t), VertexKind::Task) => self.vlife[vi] = t.lifetime_ns,
            (VertexProps::Data(_), VertexKind::Data) => {}
            _ => panic!("vertex props kind must match the vertex kind"),
        }
        self.vertices[vi].props = props;
    }

    /// Adds a flow edge. Producer edges must run task→data and consumer
    /// edges data→task.
    ///
    /// # Panics
    /// Panics if endpoint kinds do not match the flow direction (a DFL-G is
    /// bipartite between tasks and data).
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, dir: FlowDir, props: EdgeProps) -> EdgeId {
        let (sk, dk) = (self.vertices[src.0 as usize].kind, self.vertices[dst.0 as usize].kind);
        match dir {
            FlowDir::Producer => {
                assert!(sk == VertexKind::Task && dk == VertexKind::Data, "producer edges are task→data")
            }
            FlowDir::Consumer => {
                assert!(sk == VertexKind::Data && dk == VertexKind::Task, "consumer edges are data→task")
            }
        }
        self.topo = std::sync::OnceLock::new();
        let id = self.edges.len() as u32;
        let (s, d) = (src.0 as usize, dst.0 as usize);
        self.edges.push(Edge { src, dst, dir, props });
        self.next_out.push(NIL);
        self.next_in.push(NIL);
        self.esrc.push(src.0);
        self.edst.push(dst.0);
        self.dead.push(false);
        if self.last_out[s] == NIL {
            self.first_out[s] = id;
        } else {
            self.next_out[self.last_out[s] as usize] = id;
        }
        self.last_out[s] = id;
        if self.last_in[d] == NIL {
            self.first_in[d] = id;
        } else {
            self.next_in[self.last_in[d] as usize] = id;
        }
        self.last_in[d] = id;
        self.out_deg[s] += 1;
        self.in_deg[d] += 1;
        self.live_edges += 1;
        EdgeId(id)
    }

    /// Tombstones an edge: detaches it from adjacency, degrees, and
    /// [`DflGraph::edges`] iteration. Its id is retired — never reused —
    /// and every other vertex/edge id is unaffected. No-op if `e` is
    /// already unlinked or out of range.
    pub fn unlink_edge(&mut self, e: EdgeId) {
        let ei = e.0 as usize;
        if ei >= self.edges.len() || self.dead[ei] {
            return;
        }
        self.topo = std::sync::OnceLock::new();
        let (s, d) = (self.edges[ei].src.0 as usize, self.edges[ei].dst.0 as usize);
        Self::list_remove(&mut self.first_out, &mut self.last_out, &mut self.next_out, s, e.0);
        Self::list_remove(&mut self.first_in, &mut self.last_in, &mut self.next_in, d, e.0);
        self.dead[ei] = true;
        self.out_deg[s] -= 1;
        self.in_deg[d] -= 1;
        self.live_edges -= 1;
    }

    /// Removes `target` from the singly-linked list rooted at `first[v]`
    /// (O(degree) walk; unlinking is off the hot path).
    fn list_remove(first: &mut [u32], last: &mut [u32], next: &mut [u32], v: usize, target: u32) {
        let mut prev = NIL;
        let mut cur = first[v];
        while cur != NIL {
            if cur == target {
                if prev == NIL {
                    first[v] = next[cur as usize];
                } else {
                    next[prev as usize] = next[cur as usize];
                }
                if last[v] == target {
                    last[v] = prev;
                }
                next[cur as usize] = NIL;
                return;
            }
            prev = cur;
            cur = next[cur as usize];
        }
    }

    /// Whether `e` is in range and not tombstoned.
    pub fn edge_live(&self, e: EdgeId) -> bool {
        (e.0 as usize) < self.edges.len() && !self.dead[e.0 as usize]
    }

    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Live (non-tombstoned) edge count.
    pub fn edge_count(&self) -> usize {
        self.live_edges as usize
    }

    pub fn vertex(&self, v: VertexId) -> &Vertex {
        &self.vertices[v.0 as usize]
    }

    /// Vertex kind without touching the AoS `Vertex` record.
    pub fn vertex_kind(&self, v: VertexId) -> VertexKind {
        self.vkind[v.0 as usize]
    }

    /// Flat task-lifetime mirror (ns; 0 for data vertices).
    pub(crate) fn vlife_raw(&self) -> &[u64] {
        &self.vlife
    }

    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0 as usize]
    }

    /// Mutable edge properties. Endpoints and direction are fixed at
    /// insertion; only the measured properties may change.
    pub fn edge_props_mut(&mut self, e: EdgeId) -> &mut EdgeProps {
        &mut self.edges[e.0 as usize].props
    }

    pub fn vertices(&self) -> impl Iterator<Item = (VertexId, &Vertex)> {
        self.vertices.iter().enumerate().map(|(i, v)| (VertexId(i as u32), v))
    }

    /// Live edges in id (insertion) order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.dead[i])
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Out-edges of `v` in insertion order.
    pub fn out_edges(&self, v: VertexId) -> EdgeIter<'_> {
        EdgeIter { next: &self.next_out, cur: self.first_out[v.0 as usize] }
    }

    /// In-edges of `v` in insertion order.
    pub fn in_edges(&self, v: VertexId) -> EdgeIter<'_> {
        EdgeIter { next: &self.next_in, cur: self.first_in[v.0 as usize] }
    }

    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_deg[v.0 as usize] as usize
    }

    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_deg[v.0 as usize] as usize
    }

    /// Flat live in-degree counters, indexed by vertex id (for the
    /// analysis kernels, which seed Kahn worklists straight off this).
    pub(crate) fn in_deg_raw(&self) -> &[u32] {
        &self.in_deg
    }

    /// Flat edge source ids, indexed by edge id (SoA traversal mirror).
    pub(crate) fn edge_src_raw(&self) -> &[u32] {
        &self.esrc
    }

    /// Flat edge destination ids, indexed by edge id.
    pub(crate) fn edge_dst_raw(&self) -> &[u32] {
        &self.edst
    }

    /// Successor vertex ids of `v`.
    pub fn successors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_edges(v).map(|e| VertexId(self.edst[e.0 as usize]))
    }

    /// Predecessor vertex ids of `v`.
    pub fn predecessors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.in_edges(v).map(|e| VertexId(self.esrc[e.0 as usize]))
    }

    /// All task vertex ids.
    pub fn task_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices().filter(|(_, v)| v.is_task()).map(|(id, _)| id)
    }

    /// All data vertex ids.
    pub fn data_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices().filter(|(_, v)| v.is_data()).map(|(id, _)| id)
    }

    /// Finds a vertex by exact name.
    pub fn find_vertex(&self, name: &str) -> Option<VertexId> {
        self.vertices()
            .find(|(_, v)| v.name == name)
            .map(|(id, _)| id)
    }

    /// Total volume flowing into `v` (sum of in-edge volumes), bytes.
    pub fn in_volume(&self, v: VertexId) -> u64 {
        self.in_edges(v).map(|e| self.edge(e).props.volume).sum()
    }

    /// Total volume flowing out of `v`, bytes.
    pub fn out_volume(&self, v: VertexId) -> u64 {
        self.out_edges(v).map(|e| self.edge(e).props.volume).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn diamond() -> (DflGraph, [VertexId; 4]) {
        // t0 → d0 → {t1, t2}
        let mut g = DflGraph::new();
        let t0 = g.add_task("t0", "t", TaskProps { lifetime_ns: 100, ..Default::default() });
        let d0 = g.add_data("d0", "d", DataProps { size: 1000, ..Default::default() });
        let t1 = g.add_task("t1", "t", TaskProps::default());
        let t2 = g.add_task("t2", "t", TaskProps::default());
        g.add_edge(t0, d0, FlowDir::Producer, EdgeProps { volume: 1000, ..Default::default() });
        g.add_edge(d0, t1, FlowDir::Consumer, EdgeProps { volume: 600, ..Default::default() });
        g.add_edge(d0, t2, FlowDir::Consumer, EdgeProps { volume: 400, ..Default::default() });
        (g, [t0, d0, t1, t2])
    }

    #[test]
    fn degrees_and_adjacency() {
        let (g, [t0, d0, t1, _t2]) = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(t0), 1);
        assert_eq!(g.out_degree(d0), 2);
        assert_eq!(g.in_degree(t1), 1);
        let succ: Vec<_> = g.successors(d0).collect();
        assert_eq!(succ.len(), 2);
        let pred: Vec<_> = g.predecessors(d0).collect();
        assert_eq!(pred, vec![t0]);
    }

    #[test]
    fn volumes_flow_through_data_vertex() {
        let (g, [_, d0, ..]) = diamond();
        assert_eq!(g.in_volume(d0), 1000);
        assert_eq!(g.out_volume(d0), 1000);
    }

    #[test]
    fn adjacency_preserves_insertion_order() {
        let (g, [_, d0, t1, t2]) = diamond();
        let out: Vec<VertexId> = g.successors(d0).collect();
        assert_eq!(out, vec![t1, t2], "out-edges iterate in insertion order");
        let eids: Vec<EdgeId> = g.out_edges(d0).collect();
        assert_eq!(eids, vec![EdgeId(1), EdgeId(2)]);
    }

    #[test]
    fn unlink_edge_tombstones_without_renumbering() {
        let (mut g, [t0, d0, t1, t2]) = diamond();
        g.unlink_edge(EdgeId(1)); // d0 → t1
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(d0), 1);
        assert_eq!(g.in_degree(t1), 0);
        assert!(!g.edge_live(EdgeId(1)));
        // Remaining ids unchanged; iteration skips the tombstone.
        let ids: Vec<EdgeId> = g.edges().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![EdgeId(0), EdgeId(2)]);
        assert_eq!(g.successors(d0).collect::<Vec<_>>(), vec![t2]);
        assert_eq!(g.out_volume(d0), 400);
        // Double-unlink is a no-op; unlinking the rest empties the lists.
        g.unlink_edge(EdgeId(1));
        g.unlink_edge(EdgeId(0));
        g.unlink_edge(EdgeId(2));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(t0), 0);
        assert!(g.out_edges(d0).next().is_none() && g.in_edges(d0).next().is_none());
        // Appending after tombstoning keeps allocating fresh ids.
        let e = g.add_edge(d0, t1, FlowDir::Consumer, EdgeProps { volume: 7, ..Default::default() });
        assert_eq!(e, EdgeId(3));
        assert_eq!(g.successors(d0).collect::<Vec<_>>(), vec![t1]);
    }

    #[test]
    #[should_panic(expected = "producer edges are task→data")]
    fn bipartite_enforced() {
        let mut g = DflGraph::new();
        let t0 = g.add_task("t0", "t", TaskProps::default());
        let t1 = g.add_task("t1", "t", TaskProps::default());
        g.add_edge(t0, t1, FlowDir::Producer, EdgeProps::default());
    }

    #[test]
    fn find_by_name() {
        let (g, [_, d0, ..]) = diamond();
        assert_eq!(g.find_vertex("d0"), Some(d0));
        assert_eq!(g.find_vertex("nope"), None);
    }
}

impl DflGraph {
    /// Serializes the graph (vertices, edges, properties) to JSON — the
    /// interchange format for saved lifecycle graphs. Tombstoned edges are
    /// compacted away (see module docs on id stability).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a graph from [`DflGraph::to_json`] output.
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        serde_json::from_str(s)
    }
}

// Adjacency is derived state: serialize only vertices and live edges, and
// rebuild the intrusive lists on load (this also keeps old saved graphs,
// which carried explicit adjacency vectors, loadable — unknown fields are
// ignored).
impl Serialize for DflGraph {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.begin_object();
        w.key(true, "vertices");
        w.seq(&self.vertices);
        w.key(false, "edges");
        w.seq(self.edges().map(|(_, e)| e));
        w.end_object(false);
    }
}

impl Deserialize for DflGraph {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut vertices, mut edges) = (None, None);
        r.object(|r, key| match key {
            "vertices" => r.slot(&mut vertices),
            "edges" => r.slot(&mut edges),
            _ => r.skip_value(),
        })?;
        let vertices: Vec<Vertex> = serde::field(vertices, "vertices")?;
        let edges: Vec<Edge> = serde::field(edges, "edges")?;
        let mut g = DflGraph::new();
        for vert in vertices {
            g.add_vertex(vert);
        }
        let n = g.vertex_count() as u32;
        for e in edges {
            if e.src.0 >= n || e.dst.0 >= n {
                return Err(serde::Error::msg("graph edge references a missing vertex"));
            }
            let (sk, dk) = (g.vertex(e.src).kind, g.vertex(e.dst).kind);
            let ok = match e.dir {
                FlowDir::Producer => sk == VertexKind::Task && dk == VertexKind::Data,
                FlowDir::Consumer => sk == VertexKind::Data && dk == VertexKind::Task,
            };
            if !ok {
                return Err(serde::Error::msg("graph edge direction does not match vertex kinds"));
            }
            g.add_edge(e.src, e.dst, e.dir, e.props);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod json_tests {
    use super::tests::diamond;
    use super::*;

    #[test]
    fn graph_json_round_trip() {
        let (g, [_, d0, ..]) = diamond();
        let json = g.to_json().unwrap();
        let back = DflGraph::from_json(&json).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.in_volume(d0), g.in_volume(d0));
        assert_eq!(back.vertex(d0).name, "d0");
        // Adjacency rebuilt correctly.
        assert_eq!(back.out_degree(d0), 2);
    }

    #[test]
    fn round_trip_compacts_tombstones() {
        let (mut g, [_, d0, ..]) = diamond();
        g.unlink_edge(EdgeId(0)); // t0 → d0
        let back = DflGraph::from_json(&g.to_json().unwrap()).unwrap();
        assert_eq!(back.edge_count(), 2);
        assert_eq!(back.in_degree(d0), 0);
        assert_eq!(back.out_degree(d0), 2);
    }

    #[test]
    fn corrupt_edge_is_a_parse_error_not_a_panic() {
        let json = r#"{
          "vertices": [
            {"kind": "Task", "name": "t", "logical": "t",
             "props": {"Task": {"lifetime_ns": 0, "start_ns": 0, "end_ns": 0, "instances": 1}}}
          ],
          "edges": [
            {"src": 0, "dst": 9, "dir": "Producer",
             "props": {"volume": 0, "footprint": 0.0, "ops": 0, "latency_ns": 0,
                       "data_rate": 0.0, "op_rate": 0.0, "blocking_fraction": 0.0,
                       "mean_distance": 0.0, "locality_fraction": 0.0,
                       "zero_distance_fraction": 0.0, "reuse_factor": 0.0,
                       "subset_fraction": 0.0, "instances": 1}}
          ]
        }"#;
        assert!(DflGraph::from_json(json).is_err());
    }
}
