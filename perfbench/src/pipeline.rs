//! The analysis half of a batch pipeline, shared by both batch workloads:
//! DFL graph build, opportunity analysis and critical path, each under its
//! own span, plus the digest that pins their output.

use dfl_core::analysis::{
    analyze, critical_path, AnalysisConfig, CostModel, CriticalPath, Opportunity,
};
use dfl_core::DflGraph;
use dfl_trace::MeasurementSet;

use crate::spans::Tracer;
use crate::Digest;

/// What graph build and analysis produced for one measurement set.
pub struct Analyzed {
    pub graph: DflGraph,
    pub ops: Vec<Opportunity>,
    pub cp: CriticalPath,
}

/// Builds the DFL graph from `set` and analyzes it, as `datalife analyze`
/// and `datalife caterpillar` do after loading a measurements file.
pub fn analyze_set(set: &MeasurementSet, tr: &mut Tracer, unit: u64) -> Analyzed {
    let graph = tr.span("graph.build", unit, || DflGraph::from_measurements(set));
    let ops = tr.span("analysis.analyze", unit, || {
        analyze(&graph, &AnalysisConfig::default())
    });
    let cp = tr.span("analysis.critical_path", unit, || {
        critical_path(&graph, &CostModel::Volume)
    });
    Analyzed { graph, ops, cp }
}

impl Analyzed {
    /// Digest of the graph's shape, the opportunity report and the critical
    /// path. Equal digests mean the same analysis output.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new()
            .u64(self.graph.vertex_count() as u64)
            .u64(self.graph.edge_count() as u64)
            .u64(self.ops.len() as u64);
        for op in &self.ops {
            d = d.bytes(format!("{op:?}").as_bytes());
        }
        d = d.u64(self.cp.total_cost.to_bits());
        for v in &self.cp.vertices {
            d = d.bytes(format!("{v:?}").as_bytes());
        }
        d.finish()
    }
}
