//! Live run monitoring: a windowed driver around the workflow engine.
//!
//! [`run_watched`] executes a workflow exactly like [`engine::run`] — same
//! incident loop, same checkpoint policy, same final [`RunResult`] — but
//! additionally pauses the simulator at a fixed sim-time cadence and, at
//! each window boundary, drains a live [`EventStream`] subscriber, folds
//! the monitor's completed-task measurements into an incremental
//! [`LiveDfl`], and hands the caller a [`WindowSummary`]: progress, blame
//! breakdown, current critical-path head, fresh watchdog diagnoses, and
//! fault counters. The `datalife watch` dashboard and its `--headless
//! --jsonl` mode are thin renderers over this stream.
//!
//! # Window semantics
//!
//! Windows are half-open sim-time intervals `[k·W, (k+1)·W)`. A window's
//! summary is emitted when the simulator clock first reaches its right
//! edge; quiet windows (no events) are still emitted, so window indices
//! are gapless. The run's tail past the last full boundary is emitted as
//! one final summary with `final_window = true` — that summary's live
//! analysis folds the *complete* measurement set, so its critical path is
//! bit-identical to the batch analysis of [`RunResult::measurements`].
//!
//! # Blame attribution
//!
//! Every span retiring inside a window contributes its full duration to
//! its `(span kind, track)` bucket — a transfer is blamed on the window in
//! which it completes (spans are emitted at close time). Buckets sort by
//! descending busy time; ties break lexicographically, so summaries are
//! deterministic for a fixed seed.

use dfl_core::analysis::{Blame, BlameEntry, CostModel, LiveDfl, LiveHead};
use dfl_iosim::sim::{RunOutcome, Simulation};
use dfl_obs::export::span_kind_label;
use dfl_obs::{Diagnosis, EventStream, ObsConfig, TimelineEvent};
use serde::Serialize;

use crate::checkpoint::{load_latest_tolerant, CheckpointError, TornManifest};
use crate::engine::{
    checkpoint_due, finalize, handle_failures, init_run, park_state, restore_for_resume,
    take_checkpoint, validate_run, EngineCtx, EngineError, EngineState, RunConfig, RunResult,
};
use crate::spec::WorkflowSpec;

/// Tuning for [`run_watched`].
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// Sim-time window width in ns. One [`WindowSummary`] is emitted per
    /// window boundary crossed.
    pub window_ns: u64,
    /// Ring capacity of the live event subscriber; when a window retires
    /// more events than this, the oldest are dropped and counted in
    /// [`WindowSummary::stream_dropped`].
    pub stream_capacity: usize,
    /// Cost model for the live critical path.
    pub cost: CostModel,
}

impl Default for WatchOptions {
    fn default() -> Self {
        WatchOptions {
            window_ns: 100_000_000, // 100 ms of sim-time
            stream_capacity: 1 << 16,
            cost: CostModel::Volume,
        }
    }
}

/// One window's digest of the live stream (serializable — the `--headless
/// --jsonl` schema is exactly this struct).
#[derive(Debug, Clone, Serialize)]
pub struct WindowSummary {
    /// Gapless window index, starting at 0.
    pub window: u64,
    /// Window bounds in sim-time ns (`[t0, t1)`; the final window's `t1`
    /// is the makespan).
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// True for the closing summary emitted at run completion.
    pub final_window: bool,
    /// Workflow tasks whose latest attempt has completed.
    pub tasks_done: usize,
    pub tasks_total: usize,
    /// Timeline events drained from the subscriber this window.
    pub events: u64,
    /// Cumulative events dropped at the subscriber's ring (stream
    /// overflow, not recorder overflow).
    pub stream_dropped: u64,
    /// Blame buckets for this window, descending by busy time.
    pub blame: Vec<BlameEntry>,
    /// Current critical-path head under the live fold, when the folded
    /// graph is non-empty.
    pub head: Option<LiveHead>,
    /// Watchdog diagnoses that fired during this window.
    pub diagnoses: Vec<Diagnosis>,
    /// Fault counters so far (cumulative).
    pub failed_attempts: u32,
    pub crashes: u32,
    /// Bytes moved so far (cumulative).
    pub moved_bytes: u64,
    /// Bytes of failed attempts' traffic so far (cumulative) — work that
    /// did not survive, corruption-quarantined bytes included.
    pub wasted_bytes: u64,
    /// Bytes moved by lineage-recovery re-runs so far (cumulative).
    pub recovery_bytes: u64,
    /// File versions quarantined by integrity recovery so far (cumulative).
    pub quarantined_files: u32,
}

/// Per-run state of the window loop.
struct WindowCtx {
    stream: EventStream,
    blame: Blame,
    live: LiveDfl,
    track_names: Vec<String>,
    next_window: u64,
    idx: u64,
    diag_seen: usize,
}

impl WindowCtx {
    fn subject(&self, track: u32) -> String {
        self.track_names
            .get(track as usize)
            .cloned()
            .unwrap_or_else(|| format!("track:{track}"))
    }
}

/// Runs `spec` under `cfg`, invoking `on_window` with a [`WindowSummary`]
/// at every `opts.window_ns` boundary of sim-time and once more at
/// completion (see module docs). Observability is forced on (with default
/// settings) if `cfg.obs` is `None`; everything else — fault handling,
/// retries, checkpoints — behaves exactly as in [`crate::engine::run`].
pub fn run_watched(
    spec: &WorkflowSpec,
    cfg: &RunConfig,
    opts: &WatchOptions,
    on_window: impl FnMut(&WindowSummary),
) -> Result<RunResult, EngineError> {
    let copts = ControlledOptions { watch: opts.clone(), deadline_ns: None };
    match run_controlled(spec, cfg, &copts, on_window, || StepControl::Continue)? {
        ControlledOutcome::Completed(r) => Ok(*r),
        ControlledOutcome::Preempted { .. } => {
            Err(EngineError::Internal("uncontrolled watch can never preempt"))
        }
    }
}

/// What the controller wants at a pause point of a controlled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepControl {
    /// Keep running to the next pause point.
    Continue,
    /// Stop now: park the state in a checkpoint and return
    /// [`ControlledOutcome::Preempted`].
    Preempt,
}

/// Why a controlled run was preempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PreemptCause {
    /// The sim-time deadline in [`ControlledOptions::deadline_ns`] was
    /// reached.
    Deadline,
    /// The control callback asked for it (cancellation, drain, …).
    Control,
}

/// Tuning for [`run_controlled`] / [`resume_controlled`].
#[derive(Debug, Clone)]
pub struct ControlledOptions {
    pub watch: WatchOptions,
    /// Absolute sim-time deadline (ns). When the clock reaches it, the run
    /// is checkpointed and preempted with [`PreemptCause::Deadline`]
    /// instead of being killed — no completed attempt is lost.
    pub deadline_ns: Option<u64>,
}

/// How a controlled run ended.
#[derive(Debug)]
pub enum ControlledOutcome {
    /// Ran to completion; identical to what [`run_watched`] returns.
    Completed(Box<RunResult>),
    /// Stopped early at a quiescent pause point. When the run has a
    /// checkpoint policy, the full paused state (attempt ledger included)
    /// was parked in manifest `parked_seq` and [`resume_controlled`] can
    /// continue it; without one, the work is abandoned.
    Preempted {
        cause: PreemptCause,
        /// Sim time at preemption.
        sim_time_ns: u64,
        tasks_done: usize,
        tasks_total: usize,
        /// Sequence of the manifest holding the parked state, if any.
        parked_seq: Option<u64>,
    },
}

/// [`run_watched`] plus preemption: `control` is polled at every pause
/// point (window edges and checkpoint deadlines) and may stop the run;
/// `opts.deadline_ns` preempts it when the sim clock reaches the deadline.
/// Preemption goes through the checkpoint path — the state is parked in a
/// manifest, not discarded — which is how the serve daemon implements
/// cancellation, per-job deadlines, and graceful drain.
pub fn run_controlled(
    spec: &WorkflowSpec,
    cfg: &RunConfig,
    opts: &ControlledOptions,
    on_window: impl FnMut(&WindowSummary),
    control: impl FnMut() -> StepControl,
) -> Result<ControlledOutcome, EngineError> {
    if opts.watch.window_ns == 0 {
        return Err(EngineError::InvalidSpec("watch window width must be positive".into()));
    }
    validate_run(spec, cfg)?;
    let mut cfg = cfg.clone();
    if cfg.obs.is_none() {
        cfg.obs = Some(ObsConfig::default());
    }
    let ctx = EngineCtx::new(spec, &cfg);
    let (mut sim, mut st) = init_run(&ctx);
    if cfg.checkpoint.is_some() {
        take_checkpoint(&mut sim, &ctx, &mut st)?;
    }
    drive_controlled(sim, &ctx, st, opts, on_window, control)
}

/// Resumes the highest-sequence *readable* manifest in the configured
/// checkpoint directory and continues it under the controlled loop —
/// the serve daemon's kill-9 recovery path. Torn manifests are skipped
/// with typed warnings exactly as in
/// [`crate::engine::resume_latest_with_warnings`]; windows restart aligned
/// to the restored sim clock, so summaries emitted after resume carry the
/// window indices an uninterrupted run would have used.
pub fn resume_controlled(
    spec: &WorkflowSpec,
    cfg: &RunConfig,
    opts: &ControlledOptions,
    on_window: impl FnMut(&WindowSummary),
    control: impl FnMut() -> StepControl,
) -> Result<(ControlledOutcome, Vec<TornManifest>), EngineError> {
    if opts.watch.window_ns == 0 {
        return Err(EngineError::InvalidSpec("watch window width must be positive".into()));
    }
    let mut cfg = cfg.clone();
    if cfg.obs.is_none() {
        cfg.obs = Some(ObsConfig::default());
    }
    let dir = cfg.checkpoint.as_ref().map(|c| c.dir.clone());
    let (manifest, torn) =
        load_latest_tolerant(&dir.ok_or(CheckpointError::NoCheckpointConfig)?)?;
    let (sim, st) = restore_for_resume(spec, &cfg, manifest)?;
    let ctx = EngineCtx::new(spec, &cfg);
    let outcome = drive_controlled(sim, &ctx, st, opts, on_window, control)?;
    Ok((outcome, torn))
}

/// The windowed incident loop shared by fresh and resumed controlled runs.
fn drive_controlled(
    mut sim: Simulation,
    ctx: &EngineCtx,
    mut st: EngineState,
    opts: &ControlledOptions,
    mut on_window: impl FnMut(&WindowSummary),
    mut control: impl FnMut() -> StepControl,
) -> Result<ControlledOutcome, EngineError> {
    let wopts = &opts.watch;
    let stream = sim
        .subscribe(wopts.stream_capacity)
        .ok_or(EngineError::Internal("observability forced on, but no recorder attached"))?;
    let track_names: Vec<String> = sim
        .obs()
        .map(|o| o.rec.tracks().iter().map(|t| t.name.clone()).collect())
        .unwrap_or_default();
    // Align the window cursor to the (possibly restored) sim clock so a
    // resumed run picks up at the window an uninterrupted run would be in.
    let start_idx = sim.time().ns() / wopts.window_ns;
    let mut w = WindowCtx {
        stream,
        blame: Blame::new(),
        live: LiveDfl::new(wopts.cost),
        track_names,
        next_window: (start_idx + 1).saturating_mul(wopts.window_ns),
        idx: start_idx,
        diag_seen: sim.diagnoses().len(),
    };

    // Parks the paused state in a manifest (when checkpointing is on) and
    // reports the preemption. `fresh_seq` is the sequence of a checkpoint
    // taken at this very pause, which already holds the parked state;
    // otherwise the park records nothing, so resuming it reproduces an
    // uninterrupted run's timeline.
    let park = |sim: &Simulation,
                st: &EngineState,
                cause: PreemptCause,
                fresh_seq: Option<u64>|
     -> Result<ControlledOutcome, EngineError> {
        let parked_seq = match fresh_seq {
            Some(seq) => Some(seq),
            None => park_state(sim, ctx, st)?,
        };
        let tasks_done = (0..ctx.spec.tasks.len())
            .filter(|&ti| sim.job_done(st.cur_job_of_task[ti]))
            .count();
        Ok(ControlledOutcome::Preempted {
            cause,
            sim_time_ns: sim.time().ns(),
            tasks_done,
            tasks_total: ctx.spec.tasks.len(),
            parked_seq,
        })
    };

    // The engine's incident loop, with window boundaries and the job
    // deadline folded into the pause schedule. `set_pause_at` is one-shot,
    // so each iteration re-arms it with the nearest of the next checkpoint
    // deadline, the next window edge, and the deadline; which one fired is
    // disambiguated by the clock.
    let ckpt = ctx.cfg.checkpoint.as_ref();
    if ckpt.is_some_and(|c| c.every_stages.is_some()) {
        sim.set_pause_on_job_complete(true);
    }
    loop {
        // A restored run may already sit past its deadline; preempt before
        // dispatching anything further.
        if opts.deadline_ns.is_some_and(|d| sim.time().ns() >= d) {
            return park(&sim, &st, PreemptCause::Deadline, None);
        }
        let mut deadline = w.next_window;
        if ckpt.is_some_and(|c| c.every_sim_ns.is_some()) {
            if let Some(next) = st.next_ckpt_ns {
                deadline = deadline.min(next);
            }
        }
        if let Some(d) = opts.deadline_ns {
            deadline = deadline.min(d);
        }
        sim.set_pause_at(Some(deadline));
        match sim.run_to_incident()? {
            RunOutcome::Completed => break,
            RunOutcome::Paused => {
                let mut fresh_seq = None;
                if checkpoint_due(&sim, ctx, &st) {
                    fresh_seq = Some(st.ckpt_seq);
                    take_checkpoint(&mut sim, ctx, &mut st)?;
                }
                while sim.time().ns() >= w.next_window {
                    let summary = close_window(&mut w, &sim, ctx, &st, wopts, false);
                    on_window(&summary);
                }
                if opts.deadline_ns.is_some_and(|d| sim.time().ns() >= d) {
                    return park(&sim, &st, PreemptCause::Deadline, fresh_seq);
                }
                if control() == StepControl::Preempt {
                    return park(&sim, &st, PreemptCause::Control, fresh_seq);
                }
            }
            RunOutcome::Failures(failures) => {
                handle_failures(&mut sim, ctx, &mut st, failures)?;
                if ckpt.is_some_and(|c| c.on_incident) && !sim.has_pending_failures() {
                    take_checkpoint(&mut sim, ctx, &mut st)?;
                }
            }
        }
    }

    // Closing summary over the run's tail; folds the complete measurement
    // set so the live critical path matches the batch analysis exactly.
    let summary = close_window(&mut w, &sim, ctx, &st, wopts, true);
    on_window(&summary);

    Ok(ControlledOutcome::Completed(Box::new(finalize(sim, ctx, &st))))
}

/// Drains the stream, folds fresh measurements, and builds the summary for
/// the window ending at `w.next_window` (or at the clock, for the final
/// window). Advances the window cursor.
fn close_window(
    w: &mut WindowCtx,
    sim: &Simulation,
    ctx: &EngineCtx,
    st: &EngineState,
    opts: &WatchOptions,
    final_window: bool,
) -> WindowSummary {
    let t0 = w.idx * opts.window_ns;
    let t1 = if final_window { sim.time().ns() } else { w.next_window };

    let drained = w.stream.drain();
    let events = drained.len() as u64;
    for ev in &drained {
        if let TimelineEvent::Span(s) = ev {
            let subject = w.subject(s.track);
            w.blame.observe(span_kind_label(s.kind), &subject, s.start_ns, s.end_ns);
        }
    }

    // Fold measurements: completed tasks only mid-run (the monitor keeps
    // `end_ns == start_ns` until a task finishes), everything on the final
    // window so the fold covers the exact batch input.
    let set = sim.measurements().unwrap_or_default();
    for f in &set.files {
        w.live.fold_file(f);
    }
    for t in &set.tasks {
        if final_window || t.end_ns > t.start_ns {
            let recs: Vec<_> = set.records.iter().filter(|r| r.task == t.task).cloned().collect();
            w.live.fold_task(t, &recs);
        }
    }

    let all_diag = sim.diagnoses();
    let diagnoses = all_diag[w.diag_seen.min(all_diag.len())..].to_vec();
    w.diag_seen = all_diag.len();

    let tasks_done = (0..ctx.spec.tasks.len())
        .filter(|&ti| sim.job_done(st.cur_job_of_task[ti]))
        .count();
    let fr = sim.failure_report();

    let summary = WindowSummary {
        window: w.idx,
        t0_ns: t0,
        t1_ns: t1,
        final_window,
        tasks_done,
        tasks_total: ctx.spec.tasks.len(),
        events,
        stream_dropped: w.stream.dropped(),
        blame: w.blame.take_window(),
        head: w.live.head(),
        diagnoses,
        failed_attempts: fr.failed_attempts,
        crashes: fr.crashes,
        moved_bytes: fr.total_bytes,
        wasted_bytes: fr.wasted_bytes,
        recovery_bytes: fr.recovery_bytes,
        quarantined_files: fr.quarantined_files,
    };
    w.idx += 1;
    w.next_window = w.next_window.saturating_add(opts.window_ns);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::genomes::{self, GenomesConfig};
    use dfl_core::analysis::critical_path;
    use dfl_core::DflGraph;

    fn spec() -> WorkflowSpec {
        genomes::generate(&GenomesConfig::tiny())
    }

    fn ckpt_cfg(tag: &str) -> (RunConfig, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("dfl-watch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = RunConfig::default_gpu(2);
        cfg.checkpoint =
            Some(crate::checkpoint::CheckpointConfig::to_dir(&dir).every_sim_ns(30_000_000));
        (cfg, dir)
    }

    #[test]
    fn deadline_preempts_then_resume_completes_identically() {
        let s = spec();
        let (cfg, dir) = ckpt_cfg("deadline");
        let opts = ControlledOptions { watch: WatchOptions::default(), deadline_ns: None };
        let golden = match run_controlled(&s, &cfg, &opts, |_| {}, || StepControl::Continue)
            .unwrap()
        {
            ControlledOutcome::Completed(r) => r,
            other => panic!("golden run preempted: {other:?}"),
        };

        // Same run with a mid-run sim-time deadline: preempted, attempt
        // ledger parked in a manifest.
        let _ = std::fs::remove_dir_all(&dir);
        let deadline = (golden.makespan_s * 1e9 / 2.0) as u64;
        let dopts =
            ControlledOptions { watch: WatchOptions::default(), deadline_ns: Some(deadline) };
        let (cause, parked) =
            match run_controlled(&s, &cfg, &dopts, |_| {}, || StepControl::Continue).unwrap() {
                ControlledOutcome::Preempted { cause, sim_time_ns, parked_seq, .. } => {
                    assert!(sim_time_ns >= deadline, "preempted at {sim_time_ns}");
                    (cause, parked_seq)
                }
                ControlledOutcome::Completed(_) => panic!("deadline did not preempt"),
            };
        assert_eq!(cause, PreemptCause::Deadline);
        let parked = parked.expect("checkpoint policy parks the state");
        let m = crate::checkpoint::load_latest(&dir).unwrap();
        assert_eq!(m.seq, parked);
        assert!(!m.ledger.is_empty(), "attempt ledger preserved across preemption");

        // Resuming the parked state runs the job to the same answer.
        let (out, torn) =
            resume_controlled(&s, &cfg, &opts, |_| {}, || StepControl::Continue).unwrap();
        assert!(torn.is_empty());
        match out {
            ControlledOutcome::Completed(r) => {
                assert_eq!(golden.makespan_s, r.makespan_s);
                assert_eq!(golden.events_dispatched, r.events_dispatched);
                let pairs = |r: &RunResult| -> Vec<(String, u64, bool)> {
                    r.reports.iter().map(|j| (j.name.clone(), j.end_ns, j.failed)).collect()
                };
                assert_eq!(pairs(&golden), pairs(&r));
            }
            other => panic!("resume preempted: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn control_preempt_parks_and_windows_align_after_resume() {
        let s = spec();
        let (cfg, dir) = ckpt_cfg("cancel");
        let wopts = WatchOptions { window_ns: 20_000_000, ..WatchOptions::default() };
        let opts = ControlledOptions { watch: wopts, deadline_ns: None };

        // Preempt via the control callback after the second window closes.
        let windows = std::cell::Cell::new(0u64);
        let mut last_idx = None;
        let out = run_controlled(
            &s,
            &cfg,
            &opts,
            |w| {
                windows.set(windows.get() + 1);
                last_idx = Some(w.window);
            },
            || if windows.get() >= 2 { StepControl::Preempt } else { StepControl::Continue },
        )
        .unwrap();
        let preempt_t = match out {
            ControlledOutcome::Preempted { cause, sim_time_ns, parked_seq, .. } => {
                assert_eq!(cause, PreemptCause::Control);
                assert!(parked_seq.is_some());
                sim_time_ns
            }
            ControlledOutcome::Completed(_) => panic!("control preempt ignored"),
        };

        // Resume: the first window index seen continues the pre-preempt
        // numbering instead of restarting at zero.
        let pre_idx = last_idx.unwrap();
        let mut first_resumed = None;
        let (out, _) = resume_controlled(
            &s,
            &cfg,
            &opts,
            |w| {
                if first_resumed.is_none() {
                    first_resumed = Some(w.window);
                }
            },
            || StepControl::Continue,
        )
        .unwrap();
        assert!(matches!(out, ControlledOutcome::Completed(_)));
        let first = first_resumed.expect("resumed run emits windows");
        assert!(
            first > pre_idx,
            "windows continue past the preempt point (pre {pre_idx}, resumed {first}, t={preempt_t})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn park_off_the_checkpoint_cadence_resumes_to_the_golden_timeline() {
        let s = spec();
        let (mut cfg, dir) = ckpt_cfg("park-timeline");
        cfg.obs = Some(ObsConfig::default());
        // 20 ms windows against a 30 ms checkpoint cadence: the pause after
        // the first window is not a checkpoint point.
        let wopts = WatchOptions { window_ns: 20_000_000, ..WatchOptions::default() };
        let opts = ControlledOptions { watch: wopts, deadline_ns: None };
        let golden = match run_controlled(&s, &cfg, &opts, |_| {}, || StepControl::Continue)
            .unwrap()
        {
            ControlledOutcome::Completed(r) => r,
            other => panic!("golden run preempted: {other:?}"),
        };

        let _ = std::fs::remove_dir_all(&dir);
        let windows = std::cell::Cell::new(0u64);
        let out = run_controlled(
            &s,
            &cfg,
            &opts,
            |_| windows.set(windows.get() + 1),
            || if windows.get() >= 1 { StepControl::Preempt } else { StepControl::Continue },
        )
        .unwrap();
        match out {
            ControlledOutcome::Preempted { sim_time_ns, parked_seq, .. } => {
                assert_eq!(sim_time_ns, 20_000_000);
                // Only the t=0 baseline (seq 0) was a real checkpoint.
                assert_eq!(parked_seq, Some(1));
            }
            ControlledOutcome::Completed(_) => panic!("control preempt ignored"),
        }
        let (out, _) =
            resume_controlled(&s, &cfg, &opts, |_| {}, || StepControl::Continue).unwrap();
        let resumed = match out {
            ControlledOutcome::Completed(r) => r,
            other => panic!("resume preempted: {other:?}"),
        };
        let trace = |r: &RunResult| dfl_obs::chrome_trace(r.timeline.as_ref().unwrap());
        assert!(trace(&resumed) == trace(&golden), "the park left a trace in the timeline");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watched_run_matches_plain_run() {
        let s = spec();
        let cfg = RunConfig::default_gpu(2);
        let plain = run(&s, &cfg).unwrap();
        let mut summaries = Vec::new();
        let watched =
            run_watched(&s, &cfg, &WatchOptions::default(), |w| summaries.push(w.clone()))
                .unwrap();
        assert_eq!(plain.makespan_s, watched.makespan_s);
        assert_eq!(plain.events_dispatched, watched.events_dispatched);
        assert!(!summaries.is_empty());
        let last = summaries.last().unwrap();
        assert!(last.final_window);
        assert_eq!(last.tasks_done, last.tasks_total);
    }

    #[test]
    fn windows_are_gapless_and_ordered() {
        let s = spec();
        let mut summaries = Vec::new();
        let opts = WatchOptions { window_ns: 50_000_000, ..WatchOptions::default() };
        run_watched(&s, &RunConfig::default_gpu(2), &opts, |w| summaries.push(w.clone()))
            .unwrap();
        for (i, w) in summaries.iter().enumerate() {
            assert_eq!(w.window, i as u64);
            assert_eq!(w.t0_ns, i as u64 * opts.window_ns);
            assert!(w.t1_ns >= w.t0_ns);
        }
        assert_eq!(summaries.iter().filter(|w| w.final_window).count(), 1);
    }

    #[test]
    fn final_window_head_is_bit_identical_to_batch() {
        let s = spec();
        let mut last_head = None;
        let result = run_watched(
            &s,
            &RunConfig::default_gpu(2),
            &WatchOptions::default(),
            |w| last_head = w.head.clone(),
        )
        .unwrap();
        let g = DflGraph::from_measurements(&result.measurements);
        let cp = critical_path(&g, &CostModel::Volume);
        let head = last_head.expect("non-empty run");
        assert_eq!(head.total_cost.to_bits(), cp.total_cost.to_bits());
        assert_eq!(head.path_len, cp.vertices.len());
    }

    #[test]
    fn blame_covers_run_activity() {
        let s = spec();
        let mut total_blame = 0u64;
        run_watched(&s, &RunConfig::default_gpu(2), &WatchOptions::default(), |w| {
            total_blame += w.blame.iter().map(|b| b.busy_ns).sum::<u64>();
        })
        .unwrap();
        assert!(total_blame > 0, "a real run retires spans");
    }
}
