//! The measurement store: one bounded record per task-file pair.
//!
//! The collector is the "database" of §3: its size is proportional only to
//! the number of task-file *instances*, because every pair's histogram is
//! constant-size. It is shared behind a lock so concurrently executing tasks
//! (threads) can record into it; per-operation work is O(1) amortized.

use std::collections::HashMap;
use std::ops::DerefMut;
use std::sync::Arc;

use serde::{Deserialize, Memo, Serialize};

use crate::histogram::BlockHistogram;
use crate::ids::{FileId, Interner, TaskId};
use crate::sampling::SpatialSampler;
use crate::stats::{DistanceSummary, FileRecord, TaskFileRecord, TaskRecord};

/// Mutable state for one task-file pair while measurement is running.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairState {
    pub opens: u64,
    pub read_ops: u64,
    pub write_ops: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub read_ns: u64,
    pub write_ns: u64,
    pub open_span_ns: u64,
    pub first_open_ns: u64,
    pub last_close_ns: u64,
    pub file_size: u64,
    pub read_distance: DistanceSummary,
    pub write_distance: DistanceSummary,
    pub histogram: BlockHistogram,
}

impl PairState {
    pub fn new(histogram: BlockHistogram, now_ns: u64) -> Self {
        Self {
            opens: 0,
            read_ops: 0,
            write_ops: 0,
            bytes_read: 0,
            bytes_written: 0,
            read_ns: 0,
            write_ns: 0,
            open_span_ns: 0,
            first_open_ns: now_ns,
            last_close_ns: now_ns,
            file_size: 0,
            read_distance: DistanceSummary::default(),
            write_distance: DistanceSummary::default(),
            histogram,
        }
    }
}

/// Global per-file state shared by all tasks that touch the file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileState {
    pub path: String,
    /// Current access resolution for the file. Monotonically non-decreasing;
    /// all pair histograms are coarsened to this at export so producers and
    /// consumers agree on locations.
    pub block_size: u64,
    /// Maximum size ever observed.
    pub size: u64,
    /// Deterministic sampling seed derived from the path.
    pub seed: u64,
}

/// One pair's state as the collector holds it: shared, so a checkpoint's
/// [`crate::MonitorState`] copies the `Arc` rather than the histogram, and
/// memoized, so a pair that has not changed since the last checkpoint is
/// not encoded again. Change it only through [`pair_mut`].
pub type SharedPair = Arc<Memo<PairState>>;

/// Write access to a pair: copies it first if a snapshot still shares it
/// (copy-on-write), and drops its cached encoding.
pub fn pair_mut(pair: &mut SharedPair) -> &mut PairState {
    Arc::make_mut(pair).deref_mut()
}

/// The collector proper. Callers lock it externally (see `Monitor`).
#[derive(Debug, Default)]
pub struct Collector {
    pub tasks: Interner,
    pub files: Interner,
    pub file_states: Vec<FileState>,
    pub task_records: Vec<TaskRecord>,
    pub pairs: HashMap<(TaskId, FileId), SharedPair>,
}

impl Collector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of task-file instances tracked (the paper's space bound
    /// is proportional to this count).
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Snapshots every record, coarsening each pair's histogram to its
    /// file's final (coarsest) resolution so all lifecycle participants
    /// report consistent locations.
    pub fn export(&self) -> (Vec<TaskRecord>, Vec<FileRecord>, Vec<TaskFileRecord>) {
        let tasks = self.task_records.clone();
        let files: Vec<FileRecord> = self
            .file_states
            .iter()
            .enumerate()
            .map(|(i, fs)| FileRecord {
                file: FileId(i as u32),
                path: fs.path.clone(),
                size: fs.size,
                block_size: fs.block_size,
            })
            .collect();

        let mut records: Vec<TaskFileRecord> = self
            .pairs
            .iter()
            .map(|(&(task, file), p)| {
                let fs = &self.file_states[file.0 as usize];
                let mut histogram = p.histogram.clone();
                if histogram.block_size() < fs.block_size {
                    histogram.coarsen_to(fs.block_size);
                }
                TaskFileRecord {
                    task,
                    task_name: self
                        .tasks
                        .name(task.0)
                        .unwrap_or("<unknown>")
                        .to_owned(),
                    file,
                    file_path: fs.path.clone(),
                    opens: p.opens,
                    read_ops: p.read_ops,
                    write_ops: p.write_ops,
                    bytes_read: p.bytes_read,
                    bytes_written: p.bytes_written,
                    read_ns: p.read_ns,
                    write_ns: p.write_ns,
                    open_span_ns: p.open_span_ns,
                    first_open_ns: p.first_open_ns,
                    last_close_ns: p.last_close_ns,
                    file_size: p.file_size.max(fs.size),
                    read_distance: p.read_distance,
                    write_distance: p.write_distance,
                    histogram,
                }
            })
            .collect();
        records.sort_by_key(|r| (r.task, r.file));
        (tasks, files, records)
    }
}

/// Builds a per-file sampler from a global rate and the file's seed.
pub fn file_sampler(modulus: u64, threshold: u64, seed: u64) -> SpatialSampler {
    if threshold >= modulus {
        SpatialSampler::keep_all(seed)
    } else {
        SpatialSampler::with_rate(modulus, threshold, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::AccessKind;

    #[test]
    fn export_is_sorted_and_coarsened() {
        let mut c = Collector::new();
        let t = TaskId(c.tasks.intern("task-a"));
        let f0 = FileId(c.files.intern("a.dat"));
        let f1 = FileId(c.files.intern("b.dat"));
        c.file_states.push(FileState {
            path: "a.dat".into(),
            block_size: 8192, // file already coarsened globally
            size: 1 << 20,
            seed: 1,
        });
        c.file_states.push(FileState {
            path: "b.dat".into(),
            block_size: 4096,
            size: 4096,
            seed: 2,
        });

        let mut h0 = BlockHistogram::new(4096, 1024, SpatialSampler::keep_all(1));
        h0.record(AccessKind::Read, 0, 8192, 0, false);
        let mut p0 = PairState::new(h0, 0);
        p0.bytes_read = 8192;
        let p1 = PairState::new(BlockHistogram::new(4096, 64, SpatialSampler::keep_all(2)), 0);
        c.pairs.insert((t, f1), Arc::new(Memo::new(p1)));
        c.pairs.insert((t, f0), Arc::new(Memo::new(p0)));

        let (_, files, records) = c.export();
        assert_eq!(files.len(), 2);
        assert_eq!(records.len(), 2);
        assert!(records[0].file <= records[1].file);
        // Pair for a.dat was coarsened from 4096 to the file's 8192.
        assert_eq!(records[0].histogram.block_size(), 8192);
    }
}
