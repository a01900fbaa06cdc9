//! DFL-DAG construction from measurement records (§4.1).
//!
//! "Since measurement histograms capture all graph edges, the DFL-G is built
//! by connecting all edges." Each `TaskFileRecord` contributes a producer
//! edge (writes), a consumer edge (reads), or both. Construction is one
//! sequential pass, linear in records: each record's edge properties are
//! derived and the edge connected in record order.

use std::collections::HashMap;

use dfl_trace::stats::TaskFileRecord;
use dfl_trace::{FlowKind, MeasurementSet};

use crate::graph::{DflGraph, VertexId};
use crate::props::{DataProps, EdgeProps, FlowDir, TaskProps};

/// Abstracts a file path into a logical name for template aggregation:
/// runs of ASCII digits collapse to `#`, so `chr1n-3-4.tar.gz` and
/// `chr2n-7-8.tar.gz` share the logical name `chr#n-#-#.tar.gz`.
pub fn logical_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let mut in_digits = false;
    for c in path.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

/// Derives one flow edge's properties from a record (shared by the batch
/// builder and the live incremental engine so both produce identical
/// property blocks).
pub(crate) fn edge_props_for(rec: &TaskFileRecord, kind: FlowKind, task_lifetime_ns: u64) -> EdgeProps {
    let lifetime_s = (task_lifetime_ns.max(1)) as f64 / 1e9;
    match kind {
        FlowKind::Consumer => EdgeProps {
            volume: rec.bytes_read,
            footprint: rec.read_footprint(),
            ops: rec.read_ops,
            latency_ns: rec.read_ns,
            data_rate: rec.bytes_read as f64 / lifetime_s,
            op_rate: rec.read_ops as f64 / lifetime_s,
            blocking_fraction: rec.read_blocking_fraction(),
            mean_distance: rec.read_distance.mean(),
            locality_fraction: rec.read_distance.locality_fraction(),
            zero_distance_fraction: if rec.read_distance.count == 0 {
                0.0
            } else {
                rec.read_distance.zero as f64 / rec.read_distance.count as f64
            },
            reuse_factor: rec.read_reuse_factor(),
            subset_fraction: rec.read_subset_fraction(),
            instances: 1,
        },
        FlowKind::Producer => EdgeProps {
            volume: rec.bytes_written,
            footprint: rec.write_footprint(),
            ops: rec.write_ops,
            latency_ns: rec.write_ns,
            data_rate: rec.bytes_written as f64 / lifetime_s,
            op_rate: rec.write_ops as f64 / lifetime_s,
            blocking_fraction: rec.write_blocking_fraction(),
            mean_distance: rec.write_distance.mean(),
            locality_fraction: rec.write_distance.locality_fraction(),
            zero_distance_fraction: if rec.write_distance.count == 0 {
                0.0
            } else {
                rec.write_distance.zero as f64 / rec.write_distance.count as f64
            },
            reuse_factor: {
                let fp = rec.write_footprint();
                if fp > 0.0 { rec.bytes_written as f64 / fp } else { 0.0 }
            },
            subset_fraction: if rec.file_size > 0 {
                (rec.write_footprint() / rec.file_size as f64).min(1.0)
            } else {
                0.0
            },
            instances: 1,
        },
    }
}

impl DflGraph {
    /// Builds a DFL-DAG from one execution's measurements.
    ///
    /// Tasks become task vertices; every file touched by at least one record
    /// becomes a data vertex; records become producer/consumer edges with
    /// properties derived from the histograms. The result is acyclic because
    /// each task instance is a distinct vertex and (in a single execution) a
    /// file's producer precedes its consumers.
    pub fn from_measurements(set: &MeasurementSet) -> Self {
        let mut g = DflGraph::new();

        // Task vertices, keyed by trace TaskId.
        let mut task_vertex: HashMap<dfl_trace::TaskId, VertexId> = HashMap::new();
        let mut task_lifetime: HashMap<dfl_trace::TaskId, u64> = HashMap::new();
        for t in &set.tasks {
            let v = g.add_task(
                &t.name,
                &t.logical,
                TaskProps {
                    lifetime_ns: t.lifetime_ns(),
                    start_ns: t.start_ns,
                    end_ns: t.end_ns,
                    instances: 1,
                },
            );
            task_vertex.insert(t.task, v);
            task_lifetime.insert(t.task, t.lifetime_ns());
        }

        // Data vertices for files referenced by records.
        let mut file_vertex: HashMap<dfl_trace::FileId, VertexId> = HashMap::new();
        let mut file_span: HashMap<dfl_trace::FileId, (u64, u64)> = HashMap::new();
        for r in &set.records {
            let span = file_span.entry(r.file).or_insert((u64::MAX, 0));
            span.0 = span.0.min(r.first_open_ns);
            span.1 = span.1.max(r.last_close_ns);
        }
        for f in &set.files {
            if let Some(&(first, last)) = file_span.get(&f.file) {
                let v = g.add_data(
                    &f.path,
                    &logical_path(&f.path),
                    DataProps {
                        size: f.size,
                        lifetime_ns: last.saturating_sub(first),
                        first_open_ns: first,
                        last_close_ns: last,
                        block_size: f.block_size,
                        instances: 1,
                    },
                );
                file_vertex.insert(f.file, v);
            }
        }

        let derived = set.records.iter().flat_map(|r| {
            let lifetime = task_lifetime.get(&r.task).copied().unwrap_or(0);
            r.flow_kinds()
                .into_iter()
                .map(move |k| (r.task, r.file, k, edge_props_for(r, k, lifetime)))
        });
        for (task, file, kind, props) in derived {
            let (Some(&tv), Some(&dv)) = (task_vertex.get(&task), file_vertex.get(&file)) else {
                continue;
            };
            match kind {
                FlowKind::Producer => {
                    g.add_edge(tv, dv, FlowDir::Producer, props);
                }
                FlowKind::Consumer => {
                    g.add_edge(dv, tv, FlowDir::Consumer, props);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfl_trace::{IoTiming, Monitor, MonitorConfig, OpenMode};

    fn pipeline_measurements() -> MeasurementSet {
        let m = Monitor::new(MonitorConfig::default());
        // producer writes 1 MiB; two consumers read parts of it.
        let p = m.begin_task("gen-1", 0);
        let fd = p.open("mid.dat", OpenMode::Write, None, 0);
        p.write(fd, 1 << 20, IoTiming::new(0, 100_000)).unwrap();
        p.close(fd, 1_000_000).unwrap();
        p.finish(1_000_000);

        for (i, frac) in [(1u32, 1u64), (2, 2)] {
            let c = m.begin_task(&format!("use-{i}"), 1_000_000);
            let fd = c.open("mid.dat", OpenMode::Read, Some(1 << 20), 1_000_000);
            c.read(fd, (1 << 20) / frac, IoTiming::new(1_100_000, 50_000)).unwrap();
            c.close(fd, 2_000_000).unwrap();
            c.finish(2_000_000);
        }
        m.snapshot()
    }

    #[test]
    fn builds_expected_topology() {
        let g = DflGraph::from_measurements(&pipeline_measurements());
        assert_eq!(g.vertex_count(), 4); // 3 tasks + 1 file
        assert_eq!(g.edge_count(), 3); // 1 producer + 2 consumer
        let d = g.find_vertex("mid.dat").unwrap();
        assert_eq!(g.in_degree(d), 1);
        assert_eq!(g.out_degree(d), 2);
        assert_eq!(g.in_volume(d), 1 << 20);
        assert_eq!(g.out_volume(d), (1 << 20) + (1 << 19));
    }

    #[test]
    fn consumer_edge_props_reflect_subset() {
        let g = DflGraph::from_measurements(&pipeline_measurements());
        let d = g.find_vertex("mid.dat").unwrap();
        let half_reader = g
            .out_edges(d)
            .map(|e| g.edge(e))
            .find(|e| e.props.volume == 1 << 19)
            .unwrap();
        assert!(half_reader.props.subset_fraction < 0.6);
        assert!(half_reader.props.subset_fraction > 0.4);
    }

    #[test]
    fn rates_use_task_lifetime() {
        let g = DflGraph::from_measurements(&pipeline_measurements());
        let p = g.find_vertex("gen-1").unwrap();
        let e = g.edge(g.out_edges(p).next().unwrap());
        // 1 MiB over 1 ms lifetime = ~1 GiB/s.
        let expect = (1u64 << 20) as f64 / 1e-3;
        assert!((e.props.data_rate - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn logical_path_abstracts_digits() {
        assert_eq!(logical_path("chr1n-3-4.tar.gz"), "chr#n-#-#.tar.gz");
        assert_eq!(logical_path("no_digits.txt"), "no_digits.txt");
        assert_eq!(logical_path("run123/file456"), "run#/file#");
    }

    #[test]
    fn file_without_records_gets_no_vertex() {
        let m = Monitor::new(MonitorConfig::default());
        let t = m.begin_task("t-1", 0);
        t.finish(10);
        let set = m.snapshot();
        let g = DflGraph::from_measurements(&set);
        assert_eq!(g.vertex_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }
}
