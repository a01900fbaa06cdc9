//! The measurement session: `Monitor` and per-task `TaskContext`.
//!
//! Plays the role of DataLife/collector's `LD_PRELOAD` client library: every
//! I/O operation a task performs goes through a [`TaskContext`], which
//! shadows handle state, classifies the flow, and updates the bounded
//! per-pair statistics in the shared [`crate::collector::Collector`].

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Memo, Serialize};

use crate::block::BlockPolicy;
use crate::collector::{file_sampler, pair_mut, Collector, FileState, PairState, SharedPair};
use crate::error::TraceError;
use crate::handle::{Fd, OpenMode, SeekFrom, ShadowHandle};
use crate::hash::hash_str;
use crate::histogram::{AccessKind, BlockHistogram};
use crate::ids::{FileId, Interner, TaskId};
use crate::stats::TaskRecord;
use crate::MeasurementSet;

/// Timing of one I/O operation, supplied by the execution substrate (the
/// simulator's clock, or wall-clock timestamps in a live deployment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoTiming {
    /// Operation start (ns).
    pub start_ns: u64,
    /// Time the caller was blocked in the operation (ns).
    pub dur_ns: u64,
}

impl IoTiming {
    pub fn new(start_ns: u64, dur_ns: u64) -> Self {
        Self { start_ns, dur_ns }
    }

    /// End-of-operation timestamp.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Monitor-wide configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Block-size policy for files first opened for reading.
    pub read_policy: BlockPolicy,
    /// Block-size policy for files first opened for writing.
    pub write_policy: BlockPolicy,
    /// Spatial sampling `P` (modulus). `threshold >= modulus` disables
    /// sampling (track every location).
    pub sampling_modulus: u64,
    /// Spatial sampling `T` (threshold).
    pub sampling_threshold: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            read_policy: BlockPolicy::ReadRatio { target_blocks: 256 },
            write_policy: BlockPolicy::Historical {
                expected_size: 1 << 26,
                target_blocks: 256,
            },
            sampling_modulus: 1,
            sampling_threshold: 1,
        }
    }
}

impl MonitorConfig {
    /// Convenience: sample roughly `percent`% of locations.
    pub fn with_sampling_percent(mut self, percent: u64) -> Self {
        self.sampling_modulus = 100;
        self.sampling_threshold = percent.min(100);
        self
    }
}

#[derive(Debug)]
struct Inner {
    config: MonitorConfig,
    collector: Mutex<Collector>,
}

/// A process-wide measurement session. Cheap to clone (shared state).
#[derive(Debug, Clone)]
pub struct Monitor {
    inner: Arc<Inner>,
}

impl Monitor {
    pub fn new(config: MonitorConfig) -> Self {
        Self {
            inner: Arc::new(Inner {
                config,
                collector: Mutex::new(Collector::new()),
            }),
        }
    }

    /// Begins measuring a task instance. The *logical* name (used when
    /// aggregating instances into a DFL template) is derived as the prefix
    /// of `name` before the first `-`; use [`Monitor::begin_task_logical`]
    /// to set it explicitly.
    pub fn begin_task(&self, name: &str, start_ns: u64) -> TaskContext {
        let logical = name.split('-').next().unwrap_or(name).to_owned();
        self.begin_task_logical(name, &logical, start_ns)
    }

    /// Begins measuring a task instance with an explicit logical name.
    pub fn begin_task_logical(&self, name: &str, logical: &str, start_ns: u64) -> TaskContext {
        let task = {
            let mut c = self.inner.collector.lock();
            let id = TaskId(c.tasks.intern(name));
            c.task_records.push(TaskRecord {
                task: id,
                name: name.to_owned(),
                logical: logical.to_owned(),
                start_ns,
                end_ns: start_ns,
            });
            id
        };
        TaskContext {
            monitor: self.clone(),
            task,
            name: name.to_owned(),
            state: Mutex::new(TaskState {
                handles: HashMap::new(),
                next_fd: 3, // 0-2 reserved, as in POSIX
                finished: false,
            }),
        }
    }

    /// Number of task-file pairs currently tracked.
    pub fn pair_count(&self) -> usize {
        self.inner.collector.lock().pair_count()
    }

    /// Snapshots all measurements into a serializable set. Non-destructive.
    pub fn snapshot(&self) -> MeasurementSet {
        let c = self.inner.collector.lock();
        let (tasks, files, records) = c.export();
        MeasurementSet { tasks, files, records }
    }

    fn with_collector<R>(&self, f: impl FnOnce(&mut Collector) -> R) -> R {
        f(&mut self.inner.collector.lock())
    }

    /// Full-fidelity snapshot of the collector for checkpointing. Unlike
    /// [`Monitor::snapshot`] (which coarsens histograms for export), a
    /// [`MonitorState`] restored with [`Monitor::restore_state`] reproduces
    /// the live measurement state exactly.
    ///
    /// Pairs are shared with the live collector, not copied: recording
    /// into a pair the state still holds copies that pair first, so the
    /// state keeps what it captured, and a pair nobody touched keeps its
    /// cached encoding from one checkpoint to the next.
    pub fn state(&self) -> MonitorState {
        let c = self.inner.collector.lock();
        MonitorState {
            tasks: c.tasks.names().to_vec(),
            files: c.files.names().to_vec(),
            file_states: c.file_states.clone(),
            task_records: c.task_records.clone(),
            pairs: c.pairs.clone(),
        }
    }

    /// Replaces the collector's contents with a previously captured
    /// [`MonitorState`]. Interner ids are reassigned densely in order, so
    /// they match the ids recorded in `pairs` and `task_records` exactly.
    pub fn restore_state(&self, st: MonitorState) {
        let mut c = self.inner.collector.lock();
        c.tasks = Interner::from_names(st.tasks);
        c.files = Interner::from_names(st.files);
        c.file_states = st.file_states;
        c.task_records = st.task_records;
        c.pairs = st.pairs;
    }

    /// Re-attaches a [`TaskContext`] captured by [`TaskContext::snapshot`].
    ///
    /// Unlike [`Monitor::begin_task_logical`] this does NOT push a new
    /// `TaskRecord` — the restored collector state already holds the record
    /// from the original `begin_task` call.
    pub fn resume_task(&self, snap: &TaskSnapshot) -> TaskContext {
        TaskContext {
            monitor: self.clone(),
            task: snap.task,
            name: snap.name.clone(),
            state: Mutex::new(TaskState {
                handles: snap.handles.clone(),
                next_fd: snap.next_fd,
                finished: snap.finished,
            }),
        }
    }
}

/// Serializable full-fidelity state of a [`Monitor`]'s collector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorState {
    /// Task interner contents in id order.
    pub tasks: Vec<String>,
    /// File interner contents in id order.
    pub files: Vec<String>,
    pub file_states: Vec<FileState>,
    pub task_records: Vec<TaskRecord>,
    pub pairs: HashMap<(TaskId, FileId), SharedPair>,
}

/// Serializable state of one in-flight [`TaskContext`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSnapshot {
    pub task: TaskId,
    pub name: String,
    pub handles: HashMap<u64, ShadowHandle>,
    pub next_fd: u64,
    pub finished: bool,
}

#[derive(Debug)]
struct TaskState {
    handles: HashMap<u64, ShadowHandle>,
    next_fd: u64,
    finished: bool,
}

/// Per-task measurement facade exposing the POSIX-style operations the
/// original tool interposes on: `open`, `read`/`pread`, `write`/`pwrite`,
/// `seek`, `close`.
#[derive(Debug)]
pub struct TaskContext {
    monitor: Monitor,
    task: TaskId,
    name: String,
    state: Mutex<TaskState>,
}

impl TaskContext {
    pub fn task_id(&self) -> TaskId {
        self.task
    }

    /// Captures the context's shadow-handle state for checkpointing; pair it
    /// with [`Monitor::resume_task`] on restore.
    pub fn snapshot(&self) -> TaskSnapshot {
        let st = self.state.lock();
        TaskSnapshot {
            task: self.task,
            name: self.name.clone(),
            handles: st.handles.clone(),
            next_fd: st.next_fd,
            finished: st.finished,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Opens `path`, returning a descriptor. `size_hint` is the known file
    /// size (readers of existing files); `None` lets the monitor fall back
    /// to its own record of the file or the write policy's estimate.
    pub fn open(&self, path: &str, mode: OpenMode, size_hint: Option<u64>, now_ns: u64) -> Fd {
        let monitor = &self.monitor;
        let (file, size) = monitor.with_collector(|c| {
            let file = FileId(c.files.intern(path));
            if file.0 as usize >= c.file_states.len() {
                // First time this file is seen anywhere: fix its resolution.
                let policy = if mode.can_read() && size_hint.is_some() {
                    monitor.inner.config.read_policy
                } else {
                    monitor.inner.config.write_policy
                };
                let block_size = policy.block_size(size_hint);
                c.file_states.push(FileState {
                    path: path.to_owned(),
                    block_size,
                    size: size_hint.unwrap_or(0),
                    seed: hash_str(path),
                });
            }
            let fs = &mut c.file_states[file.0 as usize];
            if let Some(h) = size_hint {
                fs.size = fs.size.max(h);
            }
            let size = size_hint.unwrap_or(fs.size);

            // Ensure the pair exists and count the open.
            let cfg = &monitor.inner.config;
            let sampler = file_sampler(cfg.sampling_modulus, cfg.sampling_threshold, fs.seed);
            let block_size = fs.block_size;
            let max_locations = cfg.read_policy.max_locations().min(cfg.write_policy.max_locations());
            let pair = pair_mut(c.pairs.entry((self.task, file)).or_insert_with(|| {
                let histogram = BlockHistogram::new(block_size, max_locations, sampler);
                Arc::new(Memo::new(PairState::new(histogram, now_ns)))
            }));
            pair.opens += 1;
            pair.first_open_ns = pair.first_open_ns.min(now_ns);
            pair.file_size = pair.file_size.max(size);
            (file, size)
        });

        let mut st = self.state.lock();
        let fd = st.next_fd;
        st.next_fd += 1;
        st.handles.insert(fd, ShadowHandle::new(file, mode, size, now_ns));
        Fd(fd)
    }

    /// Sequential read of up to `len` bytes; returns bytes "read" (clamped
    /// at the shadow EOF).
    pub fn read(&self, fd: Fd, len: u64, t: IoTiming) -> Result<u64, TraceError> {
        self.do_read(fd, None, len, t)
    }

    /// Positioned read (`pread`): does not move the stream offset.
    pub fn read_at(&self, fd: Fd, offset: u64, len: u64, t: IoTiming) -> Result<u64, TraceError> {
        self.do_read(fd, Some(offset), len, t)
    }

    fn do_read(&self, fd: Fd, at: Option<u64>, len: u64, t: IoTiming) -> Result<u64, TraceError> {
        let mut st = self.state.lock();
        let h = st.handles.get_mut(&fd.0).ok_or(TraceError::BadFd(fd.0))?;
        if !h.mode.can_read() {
            return Err(TraceError::BadMode { fd: fd.0, op: "read" });
        }
        let start = at.unwrap_or(h.offset);
        let dist = h.access_distance(start);
        let (off, n) = match at {
            Some(o) => h.read_at(o, len),
            None => h.advance_read(len),
        };
        h.read_blocked_ns += t.dur_ns;
        let file = h.file;
        drop(st);

        self.monitor.with_collector(|c| {
            let fs = &c.file_states[file.0 as usize];
            let block_size = fs.block_size;
            let pair = c.pairs.get_mut(&(self.task, file)).expect("pair exists after open");
            let pair = pair_mut(pair);
            pair.read_ops += 1;
            pair.bytes_read += n;
            pair.read_ns += t.dur_ns;
            if let Some(d) = dist {
                pair.read_distance.observe(d, block_size);
            }
            pair.histogram
                .record(AccessKind::Read, off, n, t.start_ns, dist == Some(0));
            // If the pair coarsened, raise the file's global resolution so
            // every lifecycle participant converges on the same locations.
            if pair.histogram.block_size() > block_size {
                let bs = pair.histogram.block_size();
                c.file_states[file.0 as usize].block_size = bs;
            }
        });
        Ok(n)
    }

    /// Sequential write of `len` bytes.
    pub fn write(&self, fd: Fd, len: u64, t: IoTiming) -> Result<u64, TraceError> {
        self.do_write(fd, None, len, t)
    }

    /// Positioned write (`pwrite`).
    pub fn write_at(&self, fd: Fd, offset: u64, len: u64, t: IoTiming) -> Result<u64, TraceError> {
        self.do_write(fd, Some(offset), len, t)
    }

    fn do_write(&self, fd: Fd, at: Option<u64>, len: u64, t: IoTiming) -> Result<u64, TraceError> {
        let mut st = self.state.lock();
        let h = st.handles.get_mut(&fd.0).ok_or(TraceError::BadFd(fd.0))?;
        if !h.mode.can_write() {
            return Err(TraceError::BadMode { fd: fd.0, op: "write" });
        }
        let start = match at {
            Some(o) => o,
            None if h.mode == OpenMode::Append => h.size,
            None => h.offset,
        };
        let dist = h.access_distance(start);
        let (off, n) = match at {
            Some(o) => h.write_at(o, len),
            None => h.advance_write(len),
        };
        h.write_blocked_ns += t.dur_ns;
        let file = h.file;
        let new_size = h.size;
        drop(st);

        self.monitor.with_collector(|c| {
            let fs = &mut c.file_states[file.0 as usize];
            fs.size = fs.size.max(new_size);
            let block_size = fs.block_size;
            let pair = c.pairs.get_mut(&(self.task, file)).expect("pair exists after open");
            let pair = pair_mut(pair);
            pair.write_ops += 1;
            pair.bytes_written += n;
            pair.write_ns += t.dur_ns;
            pair.file_size = pair.file_size.max(new_size);
            if let Some(d) = dist {
                pair.write_distance.observe(d, block_size);
            }
            pair.histogram
                .record(AccessKind::Write, off, n, t.start_ns, dist == Some(0));
            if pair.histogram.block_size() > block_size {
                let bs = pair.histogram.block_size();
                c.file_states[file.0 as usize].block_size = bs;
            }
        });
        Ok(n)
    }

    /// Repositions the stream offset; returns the new offset.
    pub fn seek(&self, fd: Fd, pos: SeekFrom) -> Result<u64, TraceError> {
        let mut st = self.state.lock();
        let h = st.handles.get_mut(&fd.0).ok_or(TraceError::BadFd(fd.0))?;
        Ok(h.seek(pos))
    }

    /// Closes a descriptor, accounting the open-stream span.
    pub fn close(&self, fd: Fd, now_ns: u64) -> Result<(), TraceError> {
        let mut st = self.state.lock();
        let h = st.handles.remove(&fd.0).ok_or(TraceError::BadFd(fd.0))?;
        drop(st);
        self.monitor.with_collector(|c| {
            let pair = c.pairs.get_mut(&(self.task, h.file)).expect("pair exists after open");
            let pair = pair_mut(pair);
            pair.open_span_ns += now_ns.saturating_sub(h.opened_ns);
            pair.last_close_ns = pair.last_close_ns.max(now_ns);
        });
        Ok(())
    }

    /// Ends the task, closing any leaked handles at `end_ns` and recording
    /// the task lifetime.
    pub fn finish(&self, end_ns: u64) {
        let leaked: Vec<u64> = {
            let mut st = self.state.lock();
            if st.finished {
                return;
            }
            st.finished = true;
            st.handles.keys().copied().collect()
        };
        for fd in leaked {
            let _ = self.close(Fd(fd), end_ns);
        }
        self.monitor.with_collector(|c| {
            if let Some(rec) = c.task_records.iter_mut().rev().find(|r| r.task == self.task) {
                rec.end_ns = rec.end_ns.max(end_ns);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn producer_consumer_round_trip() {
        let m = Monitor::new(MonitorConfig::default());

        let producer = m.begin_task("writer-1", 0);
        let fd = producer.open("data.bin", OpenMode::Write, None, 0);
        for i in 0..10 {
            producer.write(fd, 1 << 20, IoTiming::new(i * 100, 50)).unwrap();
        }
        producer.close(fd, 2000).unwrap();
        producer.finish(2100);

        let consumer = m.begin_task("reader-1", 2100);
        let fd = consumer.open("data.bin", OpenMode::Read, Some(10 << 20), 2100);
        let mut total = 0;
        loop {
            let n = consumer.read(fd, 1 << 20, IoTiming::new(2200, 30)).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        consumer.close(fd, 4000).unwrap();
        consumer.finish(4100);

        assert_eq!(total, 10 << 20);
        let set = m.snapshot();
        assert_eq!(set.records.len(), 2);
        assert_eq!(set.tasks.len(), 2);
        let w = set.records.iter().find(|r| r.task_name == "writer-1").unwrap();
        let r = set.records.iter().find(|r| r.task_name == "reader-1").unwrap();
        assert_eq!(w.bytes_written, 10 << 20);
        assert_eq!(r.bytes_read, 10 << 20);
        assert_eq!(w.file, r.file, "same data vertex");
        // Producer and consumer agree on the file's resolution.
        assert_eq!(w.histogram.block_size(), r.histogram.block_size());
    }

    #[test]
    fn read_on_write_only_fd_fails() {
        let m = Monitor::new(MonitorConfig::default());
        let t = m.begin_task("t-1", 0);
        let fd = t.open("f", OpenMode::Write, None, 0);
        assert!(matches!(
            t.read(fd, 10, IoTiming::default()),
            Err(TraceError::BadMode { .. })
        ));
    }

    #[test]
    fn bad_fd_rejected() {
        let m = Monitor::new(MonitorConfig::default());
        let t = m.begin_task("t-1", 0);
        assert!(matches!(t.read(Fd(99), 1, IoTiming::default()), Err(TraceError::BadFd(99))));
        assert!(matches!(t.close(Fd(99), 0), Err(TraceError::BadFd(99))));
    }

    #[test]
    fn finish_closes_leaked_handles() {
        let m = Monitor::new(MonitorConfig::default());
        let t = m.begin_task("t-1", 0);
        let _fd = t.open("f", OpenMode::Write, None, 0);
        t.finish(500);
        let set = m.snapshot();
        assert_eq!(set.records[0].open_span_ns, 500);
        assert_eq!(set.tasks[0].end_ns, 500);
    }

    #[test]
    fn logical_name_derived_from_instance_name() {
        let m = Monitor::new(MonitorConfig::default());
        let t = m.begin_task("indiv-chr1-17", 0);
        t.finish(1);
        let set = m.snapshot();
        assert_eq!(set.tasks[0].logical, "indiv");
        assert_eq!(set.tasks[0].name, "indiv-chr1-17");
    }

    #[test]
    fn blocking_fraction_accumulates() {
        let m = Monitor::new(MonitorConfig::default());
        let t = m.begin_task("t-1", 0);
        let fd = t.open("f", OpenMode::Write, None, 0);
        t.write(fd, 100, IoTiming::new(0, 400)).unwrap();
        t.close(fd, 1000).unwrap();
        t.finish(1000);
        let set = m.snapshot();
        assert!((set.records[0].write_blocking_fraction() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn pair_count_proportional_to_task_file_instances() {
        let m = Monitor::new(MonitorConfig::default());
        for ti in 0..4 {
            let t = m.begin_task(&format!("t-{ti}"), 0);
            for fi in 0..3 {
                let fd = t.open(&format!("f{fi}"), OpenMode::Write, None, 0);
                t.write(fd, 10, IoTiming::default()).unwrap();
                t.close(fd, 10).unwrap();
            }
            t.finish(10);
        }
        assert_eq!(m.pair_count(), 12);
    }

    /// A copy of `st` that shares nothing with the live collector.
    fn deep_clone(st: &MonitorState) -> MonitorState {
        let mut deep = st.clone();
        for pair in deep.pairs.values_mut() {
            *pair = Arc::new(Memo::new(PairState::clone(pair)));
        }
        deep
    }

    #[test]
    fn captured_state_is_unaffected_by_later_recording() {
        let m = Monitor::new(MonitorConfig::default());
        let w = m.begin_task("writer-1", 0);
        let r = m.begin_task("reader-1", 0);
        let wfd = w.open("data.bin", OpenMode::Write, None, 0);
        let rfd = r.open("in.bin", OpenMode::Read, Some(1 << 20), 0);
        w.write(wfd, 1 << 16, IoTiming::new(10, 5)).unwrap();
        r.read(rfd, 1 << 16, IoTiming::new(10, 5)).unwrap();

        let st = m.state();
        let reference = serde_json::to_string(&deep_clone(&st)).unwrap();
        // Encoding fills the shared pairs' caches.
        assert!(serde_json::to_string(&st).unwrap() == reference);

        // Keep recording into the very pairs `st` holds, through every
        // mutation site: read/write, close, and a re-open.
        w.write(wfd, 1 << 18, IoTiming::new(20, 5)).unwrap();
        r.read(rfd, 1 << 18, IoTiming::new(20, 5)).unwrap();
        w.close(wfd, 30).unwrap();
        let again = r.open("in.bin", OpenMode::Read, Some(1 << 20), 40);
        r.read(again, 1 << 10, IoTiming::new(41, 1)).unwrap();
        assert!(serde_json::to_string(&st).unwrap() == reference, "captured state changed");
        drop(st);

        // Unshared pairs change in place; each mutation site must drop the
        // pair's cached encoding.
        let encode_live = || {
            let live = m.state();
            let text = serde_json::to_string(&live).unwrap();
            assert!(text == serde_json::to_string(&deep_clone(&live)).unwrap(), "stale encoding");
            text
        };
        let mut seen = vec![reference, encode_live()];
        r.read(again, 1 << 10, IoTiming::new(42, 1)).unwrap();
        seen.push(encode_live());
        r.close(again, 43).unwrap();
        seen.push(encode_live());
        let reopened = w.open("data.bin", OpenMode::Append, None, 44);
        seen.push(encode_live());
        w.write(reopened, 1, IoTiming::new(45, 1)).unwrap();
        seen.push(encode_live());
        for (i, text) in seen.iter().enumerate().skip(1) {
            assert!(*text != seen[i - 1], "step {i} changed nothing");
        }
    }

    #[test]
    fn seek_changes_read_position() {
        let m = Monitor::new(MonitorConfig::default());
        let t = m.begin_task("t-1", 0);
        let fd = t.open("f", OpenMode::Read, Some(1 << 20), 0);
        t.seek(fd, SeekFrom::Start(1 << 19)).unwrap();
        let n = t.read(fd, 1 << 20, IoTiming::default()).unwrap();
        assert_eq!(n, 1 << 19, "read clamped at EOF after seek");
    }
}
