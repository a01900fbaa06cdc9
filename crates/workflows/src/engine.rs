//! The workflow engine: binds a [`WorkflowSpec`] to a simulated cluster
//! under placement and staging policies, runs it, and returns stage timings
//! plus DFL measurements.
//!
//! This is the coordination layer whose decisions the paper's opportunity
//! analysis informs: which node each task runs on ([`Placement`]), which
//! tier intermediate files land on, and whether inputs are staged to
//! node-local storage first ([`Staging`]).

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use dfl_iosim::breakdown::{Breakdown, FlowTag};
use dfl_iosim::cache::CacheConfig;
use dfl_iosim::cluster::ClusterSpec;
use dfl_iosim::fault::{unit_hash, FailureCause, FailureReport, FaultPlan, JobFailure};
use dfl_iosim::shard::ShardPlan;
use dfl_iosim::sim::{
    Action, CacheOrigins, JobId, JobReport, JobSpec, JobState, RunOutcome, SimConfig, Simulation,
    VerifyPolicy,
};
use dfl_iosim::storage::{TierKind, TierRef};
use dfl_iosim::SimError;
use dfl_obs::{ObsConfig, Timeline};
use dfl_trace::MeasurementSet;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{
    config_hash, load_latest_tolerant, write_manifest, AttemptRecord, CheckpointConfig,
    CheckpointError, CheckpointManifest, TornManifest, MANIFEST_VERSION,
};
use crate::spec::{TaskSpec, WorkflowSpec};
use crate::taint::taint_cone;

/// Everything a workflow run can fail with, as one typed error.
///
/// Invalid specs and unusable configurations used to panic inside the
/// engine; they now surface as [`EngineError::InvalidSpec`] so callers
/// (CLI, services, tests) can report them without catching unwinds.
/// Simulator and checkpoint errors pass through transparently — the
/// `Display` text of a wrapped [`SimError`] is unchanged, so substring
/// matching on e.g. chaos kills keeps working.
#[derive(Debug)]
pub enum EngineError {
    /// Simulator-level failure: retries exhausted, chaos kill, integrity
    /// violation, snapshot trouble.
    Sim(SimError),
    /// Checkpoint validation or I/O failure on resume.
    Checkpoint(CheckpointError),
    /// The spec or run configuration cannot be executed as given.
    InvalidSpec(String),
    /// An engine-internal invariant broke — a bug, not a user error.
    Internal(&'static str),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Sim(e) => write!(f, "{e}"),
            EngineError::Checkpoint(e) => write!(f, "{e}"),
            EngineError::InvalidSpec(m) => write!(f, "{m}"),
            EngineError::Internal(m) => write!(f, "engine invariant violated: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        match e {
            // Unwrap the checkpoint layer's sim passthrough so callers can
            // match simulator errors uniformly.
            CheckpointError::Sim(s) => EngineError::Sim(s),
            other => EngineError::Checkpoint(other),
        }
    }
}

/// Task-to-node assignment policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Task index modulo node count.
    RoundRobin,
    /// Tasks with the same group (caterpillar) share a node
    /// (`group % nodes`); ungrouped tasks fall back to round-robin.
    ByGroup,
    /// Each task goes to the node with the fewest tasks assigned so far
    /// (ties to the lowest node id) — a simple load balancer that ignores
    /// data locality, useful as a baseline against `ByGroup`.
    LeastLoaded,
    /// Explicit node per task (same length as `tasks`).
    Explicit(Vec<u32>),
}

/// File placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staging {
    /// Shared tier for inputs and non-local intermediates.
    pub shared: TierKind,
    /// Write task outputs to this node-local tier instead of the shared one.
    pub intermediates_local: Option<TierKind>,
    /// Add a stage-0 job per node copying that node's input files to this
    /// node-local tier before any consumer runs.
    pub stage_inputs: Option<TierKind>,
    /// Force staging copies to come from the original placement (a plain
    /// FTP-from-the-source baseline) instead of the closest replica.
    pub stage_from_origin: bool,
}

impl Staging {
    pub fn all_shared(shared: TierKind) -> Self {
        Staging {
            shared,
            intermediates_local: None,
            stage_inputs: None,
            stage_from_origin: false,
        }
    }

    pub fn local_intermediates(shared: TierKind, local: TierKind) -> Self {
        Staging { intermediates_local: Some(local), ..Staging::all_shared(shared) }
    }

    pub fn staged(shared: TierKind, local: TierKind) -> Self {
        Staging {
            intermediates_local: Some(local),
            stage_inputs: Some(local),
            ..Staging::all_shared(shared)
        }
    }
}

/// Retry/backoff policy for failed task attempts.
///
/// An *attempt* is one execution of a task's job (the first run or any
/// retry). When an attempt fails — node crash, transient I/O error, lost
/// input — the engine first repairs lost inputs through lineage recovery
/// (see [`run`]) and then resubmits the task after an exponential-backoff
/// delay with deterministic, seeded jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per work unit (first run included). `1` disables
    /// retries: the first failure aborts the run.
    pub max_attempts: u32,
    /// Base backoff before the first retry, ns.
    pub backoff_ns: u64,
    /// Multiplier applied per additional attempt (exponential backoff).
    pub backoff_mult: f64,
    /// Jitter fraction in `[0, 1]`: the delay is scaled by a deterministic
    /// factor in `[1 - jitter, 1 + jitter]` derived from the fault-plan
    /// seed, so identical seeds give identical schedules.
    pub jitter: f64,
    /// Optional cap on total retries charged to any one workflow stage;
    /// exceeding it aborts the run with
    /// [`SimError::RetriesExhausted`].
    pub stage_budget: Option<u32>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_ns: 50_000_000, // 50 ms
            backoff_mult: 2.0,
            jitter: 0.5,
            stage_budget: None,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first failed attempt aborts the run.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Backoff before retry number `attempt` (1-based) of work unit
    /// `unit`, with seeded jitter. Pure: same inputs, same delay.
    pub fn delay_ns(&self, seed: u64, unit: u64, attempt: u32) -> u64 {
        let base = self.backoff_ns as f64
            * self.backoff_mult.powi(attempt.saturating_sub(1) as i32);
        let h = unit_hash(seed ^ 0xb0ff_0ff5, unit, u64::from(attempt));
        let factor = 1.0 + self.jitter * (2.0 * h - 1.0);
        (base * factor.max(0.0)) as u64
    }
}

/// One complete run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub cluster: ClusterSpec,
    pub placement: Placement,
    pub staging: Staging,
    pub cache: Option<CacheConfig>,
    pub cache_origins: CacheOrigins,
    /// Buffered (asynchronous) writes — the Table 1 "write buffering"
    /// remediation.
    pub write_buffering: bool,
    pub monitor: dfl_trace::MonitorConfig,
    /// Deterministic fault injection; [`FaultPlan::none`] (the default)
    /// leaves the run byte-identical to a fault-free one.
    pub faults: FaultPlan,
    /// Checksum verification policy. [`VerifyPolicy::Off`] (the default)
    /// skips all digest checks and keeps fault-free runs byte-identical to
    /// pre-integrity builds; any other policy charges simulated verification
    /// latency and turns silent corruption into detected
    /// [`FailureCause::CorruptData`] incidents the engine repairs through
    /// taint-cone recovery.
    pub verify: VerifyPolicy,
    /// How failed attempts are retried.
    pub retry: RetryPolicy,
    /// Timeline recording. `None` (the default) disables observability
    /// entirely — the run allocates no recorder and pays only a dead branch
    /// per potential emission.
    pub obs: Option<ObsConfig>,
    /// Crash-consistent checkpointing. `None` (the default) writes nothing;
    /// with a policy set, the engine writes versioned
    /// [`CheckpointManifest`]s that [`resume_from`] can continue from after
    /// a coordinator crash, byte-identical to an uninterrupted run.
    pub checkpoint: Option<CheckpointConfig>,
    /// Event-core shard count (see [`dfl_iosim::shard::ShardPlan`]). The
    /// dispatch order — and therefore every observable, checkpoint, and
    /// timeline — is byte-identical at any shard count, so this is purely a
    /// performance knob; it is canonicalized out of the checkpoint config
    /// hash, and a manifest may be resumed under a different shard count.
    pub shards: u32,
}

impl RunConfig {
    /// GPU cluster (Table 2) with BeeGFS shared storage, round-robin
    /// placement, no staging or caching.
    pub fn default_gpu(nodes: usize) -> Self {
        RunConfig {
            cluster: ClusterSpec::gpu_cluster(nodes),
            placement: Placement::RoundRobin,
            staging: Staging::all_shared(TierKind::Beegfs),
            cache: None,
            cache_origins: CacheOrigins::default(),
            write_buffering: false,
            monitor: dfl_trace::MonitorConfig::default(),
            faults: FaultPlan::none(),
            verify: VerifyPolicy::Off,
            retry: RetryPolicy::default(),
            obs: None,
            checkpoint: None,
            shards: 1,
        }
    }

    /// CPU cluster with NFS shared storage.
    pub fn default_cpu(nodes: usize) -> Self {
        RunConfig {
            cluster: ClusterSpec::cpu_cluster(nodes),
            placement: Placement::RoundRobin,
            staging: Staging::all_shared(TierKind::Nfs),
            cache: None,
            cache_origins: CacheOrigins::default(),
            write_buffering: false,
            monitor: dfl_trace::MonitorConfig::default(),
            faults: FaultPlan::none(),
            verify: VerifyPolicy::Off,
            retry: RetryPolicy::default(),
            obs: None,
            checkpoint: None,
            shards: 1,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub makespan_s: f64,
    /// Per-stage `(first start, last end)` in seconds.
    pub stage_spans: BTreeMap<u32, (f64, f64)>,
    pub reports: Vec<JobReport>,
    pub total_breakdown: Breakdown,
    pub measurements: MeasurementSet,
    /// What faults happened and what they cost. [`FailureReport::is_clean`]
    /// on a fault-free run.
    pub failure: FailureReport,
    /// Recorded timeline when [`RunConfig::obs`] was set; export with
    /// [`dfl_obs::chrome_trace`] / [`dfl_obs::jsonl`] / [`dfl_obs::ascii_summary`].
    pub timeline: Option<Timeline>,
    /// Total simulator dispatches over the run — the clock chaos plans are
    /// expressed in ([`dfl_iosim::ChaosKind::CoordinatorCrash`]), so a chaos
    /// driver can derive seeded kill points from a golden run's total.
    pub events_dispatched: u64,
    /// Watchdog diagnoses fired during the run, in firing order (empty
    /// unless [`ObsConfig::watchdogs`] was configured and a detector fired).
    pub diagnoses: Vec<dfl_obs::Diagnosis>,
}

impl RunResult {
    /// Duration of one stage, seconds.
    pub fn stage_time(&self, stage: u32) -> f64 {
        self.stage_spans.get(&stage).map_or(0.0, |(s, e)| e - s)
    }

    /// A printable per-stage summary.
    pub fn stage_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (&stage, &(start, end)) in &self.stage_spans {
            let _ = writeln!(s, "stage {stage}: {:.2}s (t={start:.2}..{end:.2})", end - start);
        }
        let _ = writeln!(s, "makespan: {:.2}s", self.makespan_s);
        s
    }
}

/// Computes each task's node under the placement policy.
fn place_tasks(placement: &Placement, tasks: &[crate::spec::TaskSpec], nodes: u32) -> Vec<u32> {
    let mut load = vec![0u32; nodes as usize];
    tasks
        .iter()
        .enumerate()
        .map(|(idx, t)| {
            let node = match placement {
                Placement::RoundRobin => (idx as u32) % nodes,
                Placement::ByGroup => match t.group {
                    Some(g) => g % nodes,
                    None => (idx as u32) % nodes,
                },
                Placement::LeastLoaded => load
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &l)| (l, i))
                    .map_or(0, |(node, _)| node as u32),
                Placement::Explicit(v) => v[idx],
            };
            load[node as usize] += 1;
            node
        })
        .collect()
}

/// What a submitted job is, engine-side: lets failure handling and stage
/// accounting work off job ids even after retries and recovery jobs are
/// appended mid-run. Public only for checkpoint transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    /// Stage-0 input staging job for a node.
    Staging(u32),
    /// First attempt of task `ti`.
    Task(usize),
    /// Retry attempt of task `ti`.
    Retry(usize),
    /// Lineage-recovery re-run of producer task `ti`.
    Recovery(usize),
}

impl JobKind {
    fn task(self) -> Option<usize> {
        match self {
            JobKind::Task(ti) | JobKind::Retry(ti) | JobKind::Recovery(ti) => Some(ti),
            JobKind::Staging(_) => None,
        }
    }

    fn retry_of(self) -> JobKind {
        match self {
            JobKind::Task(ti) | JobKind::Retry(ti) => JobKind::Retry(ti),
            other => other,
        }
    }
}

/// Builds the action list for one attempt of `t` on `node`: open + chunked
/// reads of inputs, compute, open + chunked writes of outputs (to the
/// staging policy's tier), closes. Re-running the same list re-creates the
/// task's outputs from scratch (writes truncate), which is what makes
/// attempts idempotent and lineage recovery sound.
fn task_actions(
    t: &TaskSpec,
    node: u32,
    staging: &Staging,
    shared: TierRef,
    size_of: &HashMap<&str, u64>,
) -> Vec<Action> {
    let mut actions = Vec::new();
    for r in &t.reads {
        actions.push(Action::Open { file: r.file.clone(), write: false });
        let total = if r.bytes == 0 {
            // Whole-file read: validated specs declare every read file, so a
            // miss can only mean an unvalidated caller — treat as empty.
            size_of.get(r.file.as_str()).copied().unwrap_or(0).saturating_sub(r.offset)
        } else {
            r.bytes
        };
        let ops = u64::from(r.ops.max(1));
        let op_len = (total / ops).max(1);
        for _pass in 0..r.passes.max(1) {
            for k in 0..ops {
                let off = r.offset + k * op_len;
                let len = if k == ops - 1 { total - op_len * (ops - 1) } else { op_len };
                if len == 0 {
                    continue;
                }
                actions.push(Action::Read { file: r.file.clone(), offset: Some(off), len });
            }
        }
    }
    if t.compute_ns > 0 {
        actions.push(Action::Compute { ns: t.compute_ns });
    }
    for w in &t.writes {
        let tier = match staging.intermediates_local {
            Some(kind) => TierRef::node(kind, node),
            None => shared,
        };
        actions.push(Action::Open { file: w.file.clone(), write: true });
        let ops = u64::from(w.ops.max(1));
        let op_len = (w.bytes / ops).max(1);
        for k in 0..ops {
            let len = if k == ops - 1 { w.bytes - op_len * (ops - 1) } else { op_len };
            if len == 0 {
                continue;
            }
            actions.push(Action::Write { file: w.file.clone(), len, tier: Some(tier) });
        }
    }
    for r in &t.reads {
        actions.push(Action::Close { file: r.file.clone() });
    }
    for w in &t.writes {
        actions.push(Action::Close { file: w.file.clone() });
    }
    actions
}

/// Action list for a node's stage-0 input staging job.
fn staging_actions(
    files: &[String],
    node: u32,
    kind: TierKind,
    shared: TierRef,
    from_origin: bool,
) -> Vec<Action> {
    files
        .iter()
        .map(|f| Action::Stage {
            file: f.clone(),
            to: TierRef::node(kind, node),
            from: from_origin.then_some(shared),
            tag: FlowTag::Stage,
        })
        .collect()
}

/// True when `path` exists in the simulated filesystem but every replica is
/// gone (e.g. it lived only on a crashed node's local tier).
fn file_lost(sim: &Simulation, path: &str) -> bool {
    sim.fs().lookup(path).is_some_and(|idx| sim.fs().is_lost(idx))
}

/// Rejects specs and configurations the engine cannot execute, before any
/// simulator state is built. Every check here used to be a panic or an
/// out-of-bounds index deep inside the run.
pub(crate) fn validate_run(spec: &WorkflowSpec, cfg: &RunConfig) -> Result<(), EngineError> {
    spec.validate()
        .map_err(|e| EngineError::InvalidSpec(format!("invalid workflow spec: {e}")))?;
    if cfg.cluster.node_count() == 0 {
        return Err(EngineError::InvalidSpec("cluster has zero nodes".into()));
    }
    if let Err(e) = ShardPlan::partition(cfg.cluster.node_count(), cfg.shards) {
        return Err(EngineError::InvalidSpec(format!("invalid shard count: {e}")));
    }
    if cfg.staging.shared.is_node_local() {
        return Err(EngineError::InvalidSpec(format!(
            "staging.shared must be a shared tier, got node-local {:?}",
            cfg.staging.shared
        )));
    }
    for kind in [cfg.staging.stage_inputs, cfg.staging.intermediates_local]
        .into_iter()
        .flatten()
    {
        if !kind.is_node_local() {
            return Err(EngineError::InvalidSpec(format!(
                "staging tier {kind:?} is not node-local"
            )));
        }
        if !cfg.cluster.has_tier(kind) {
            return Err(EngineError::InvalidSpec(format!(
                "staging tier {kind:?} missing from cluster"
            )));
        }
    }
    if let Placement::Explicit(v) = &cfg.placement {
        if v.len() != spec.tasks.len() {
            return Err(EngineError::InvalidSpec(format!(
                "explicit placement lists {} nodes for {} tasks",
                v.len(),
                spec.tasks.len()
            )));
        }
        if let Some(&n) = v.iter().find(|&&n| (n as usize) >= cfg.cluster.node_count()) {
            return Err(EngineError::InvalidSpec(format!(
                "explicit placement node {n} out of range"
            )));
        }
    }
    Ok(())
}

/// Runs `spec` under `cfg`. Invalid specs and configurations are typed
/// [`EngineError::InvalidSpec`] errors; simulator failures pass through as
/// [`EngineError::Sim`].
///
/// # Fault handling
///
/// With a non-trivial [`RunConfig::faults`] plan the run proceeds
/// incident-by-incident: the simulator pauses at each failed attempt
/// ([`Simulation::run_to_incident`]), the engine repairs lost inputs and
/// resubmits work, and the clock continues. Repair is *lineage-based*: for
/// every lost input file of the failed task, the engine walks the producer
/// graph (transitively, in case a producer's own inputs are also gone) and
/// re-runs the minimal producer set as `name~recK` jobs flagged
/// [`JobSpec::recovery`], so their traffic shows up under
/// [`FlowTag::Recovery`]. The failed task is then resubmitted as `name~rN`
/// after the [`RetryPolicy`] backoff, depending on those recovery jobs.
/// Inputs that survive on a shared tier are simply re-read — no recovery
/// job is scheduled for them.
pub fn run(spec: &WorkflowSpec, cfg: &RunConfig) -> Result<RunResult, EngineError> {
    validate_run(spec, cfg)?;
    let ctx = EngineCtx::new(spec, cfg);
    let (mut sim, mut st) = init_run(&ctx);
    if cfg.checkpoint.is_some() {
        // Baseline manifest at t=0: however early the coordinator dies,
        // there is always a manifest to resume from.
        take_checkpoint(&mut sim, &ctx, &mut st)?;
    }
    drive(&mut sim, &ctx, &mut st)?;
    Ok(finalize(sim, &ctx, &st))
}

/// Resumes a checkpointed run from `manifest`, revalidating the manifest
/// version and the `(spec, cfg)` hash before touching any state. Nothing is
/// replayed: the simulator restores to the exact quiescent point the
/// manifest captured — mid-stage, in-flight I/O and all — and the engine
/// continues from there. Because the simulator is deterministic, the final
/// [`RunResult`] (timeline included) is byte-identical to the same
/// configuration run without interruption.
///
/// `cfg` must be the run's original configuration, checkpoint cadence
/// included so future checkpoints land at the original points. Only the
/// chaos clause, the checkpoint directory, and the shard count are excluded
/// from the hash — a crash-killed run may resume with its kill switch still
/// armed (or disarmed) and under a different shard count, but any other
/// config drift is a typed [`CheckpointError::HashMismatch`], never a
/// silently wrong answer.
pub fn resume_from(
    spec: &WorkflowSpec,
    cfg: &RunConfig,
    manifest: CheckpointManifest,
) -> Result<RunResult, EngineError> {
    let (mut sim, mut st) = restore_for_resume(spec, cfg, manifest)?;
    let ctx = EngineCtx::new(spec, cfg);
    drive(&mut sim, &ctx, &mut st)?;
    Ok(finalize(sim, &ctx, &st))
}

/// The shared front half of every resume path: validate the manifest
/// version and config hash, rebuild the simulator from the snapshot under
/// the *offered* shard plan, and re-arm chaos. The caller supplies its own
/// drive loop (the batch incident loop, or the watch/serve windowed one).
pub(crate) fn restore_for_resume(
    spec: &WorkflowSpec,
    cfg: &RunConfig,
    manifest: CheckpointManifest,
) -> Result<(Simulation, EngineState), EngineError> {
    if manifest.version != MANIFEST_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: manifest.version,
            expected: MANIFEST_VERSION,
        }
        .into());
    }
    let expected = config_hash(spec, cfg);
    if manifest.config_hash != expected {
        return Err(CheckpointError::HashMismatch {
            manifest: manifest.config_hash,
            config: expected,
        }
        .into());
    }
    validate_run(spec, cfg)?;
    // Snapshots are shard-invariant (per-node cursors), so a manifest may be
    // resumed under any shard count that fits the cluster — the plan is
    // rebuilt from the *offered* config, and a plan that does not fit fails
    // with a typed error instead of a wrong answer.
    let plan = ShardPlan::partition(cfg.cluster.node_count(), cfg.shards)
        .expect("shard count validated by validate_run");
    let mut sim = Simulation::restore_sharded(manifest.sim, plan)?;
    // Snapshots are chaos-free by construction; re-arm the kill switch from
    // the *offered* config so a chaos driver can schedule further crashes.
    sim.set_chaos(cfg.faults.chaos);
    Ok((sim, manifest.engine))
}

/// [`resume_from`] the highest-sequence *readable* manifest in the
/// configured checkpoint directory, returning a typed [`TornManifest`]
/// warning for every torn (truncated / trailing-garbage) manifest that was
/// skipped on the way to a good one. Recovery paths that answer to a user —
/// the CLI, the serve daemon — surface the warnings; determinism is
/// unaffected because any good manifest resumes byte-identically.
pub fn resume_latest_with_warnings(
    spec: &WorkflowSpec,
    cfg: &RunConfig,
) -> Result<(RunResult, Vec<TornManifest>), EngineError> {
    let dir = cfg.checkpoint.as_ref().map(|c| c.dir.clone());
    let (manifest, torn) =
        load_latest_tolerant(&dir.ok_or(CheckpointError::NoCheckpointConfig)?)?;
    Ok((resume_from(spec, cfg, manifest)?, torn))
}

/// [`resume_from`] the highest-sequence readable manifest in the configured
/// checkpoint directory. Torn manifests are skipped (see
/// [`resume_latest_with_warnings`] to observe which).
pub fn resume_latest(spec: &WorkflowSpec, cfg: &RunConfig) -> Result<RunResult, EngineError> {
    resume_latest_with_warnings(spec, cfg).map(|(r, _)| r)
}

/// The engine's dynamic bookkeeping, parallel to the simulator's job table:
/// `root_of[j]` is the first attempt of `j`'s retry chain (attempts are
/// counted per chain); `kind_of_job[j]` says what work unit `j` is.
/// Serializable so a [`CheckpointManifest`] can carry it — restoring it
/// alongside the matching [`dfl_iosim::SimSnapshot`] resumes a run
/// mid-stage with no replay. Public only for checkpoint transport.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineState {
    pub kind_of_job: Vec<JobKind>,
    pub root_of: Vec<u32>,
    /// Latest staging-job attempt per node.
    pub stage_job_of_node: HashMap<u32, JobId>,
    /// Latest attempt of each task — retries of its consumers depend on it.
    pub cur_job_of_task: Vec<JobId>,
    /// Chain root → failures so far.
    pub attempts: HashMap<u32, u32>,
    pub stage_retries: HashMap<u32, u32>,
    /// Task → latest in-flight recovery job.
    pub pending_rerun: HashMap<usize, JobId>,
    pub rec_count: Vec<u32>,
    pub n_retries: u32,
    pub n_recovery: u32,
    /// Sequence number the next manifest will carry.
    pub ckpt_seq: u64,
    /// Next sim-time checkpoint deadline under an `every_sim_ns` policy —
    /// carried in the manifest so a resumed run checkpoints at exactly the
    /// uninterrupted run's future points.
    pub next_ckpt_ns: Option<u64>,
    /// Fully-completed stage count as of the last checkpoint.
    pub stages_ckpted: u32,
}

/// Static per-run derivations (placement, file sizes, producer graph,
/// staging file lists) — pure functions of `(spec, cfg)`, recomputed
/// identically on fresh runs and on resume.
pub(crate) struct EngineCtx<'a> {
    pub(crate) spec: &'a WorkflowSpec,
    pub(crate) cfg: &'a RunConfig,
    shared: TierRef,
    /// Resolved file sizes: inputs plus declared outputs.
    size_of: HashMap<&'a str, u64>,
    producers: HashMap<&'a str, Vec<usize>>,
    node_for: Vec<u32>,
    /// Per node, the input files its tasks read (kept owned so failed
    /// staging jobs can be rebuilt for retry).
    staged_files: BTreeMap<u32, Vec<String>>,
    /// [`config_hash`] of `(spec, cfg)`, computed at the first checkpoint.
    config_hash: OnceCell<u64>,
}

impl<'a> EngineCtx<'a> {
    pub(crate) fn new(spec: &'a WorkflowSpec, cfg: &'a RunConfig) -> Self {
        let nodes = cfg.cluster.node_count() as u32;
        assert!(nodes > 0);
        let shared = TierRef::shared(cfg.staging.shared);

        let mut size_of: HashMap<&str, u64> = HashMap::new();
        for i in &spec.inputs {
            size_of.insert(&i.path, i.size);
        }
        let mut producers: HashMap<&str, Vec<usize>> = HashMap::new();
        for (ti, t) in spec.tasks.iter().enumerate() {
            for w in &t.writes {
                *size_of.entry(&w.file).or_insert(0) += w.bytes;
                producers.entry(&w.file).or_default().push(ti);
            }
        }

        let node_for: Vec<u32> = place_tasks(&cfg.placement, &spec.tasks, nodes);

        let mut staged_files: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        if cfg.staging.stage_inputs.is_some() {
            for (ti, t) in spec.tasks.iter().enumerate() {
                for r in &t.reads {
                    if spec.inputs.iter().any(|i| i.path == r.file) {
                        let v = staged_files.entry(node_for[ti]).or_default();
                        if !v.contains(&r.file) {
                            v.push(r.file.clone());
                        }
                    }
                }
            }
        }

        EngineCtx {
            spec,
            cfg,
            shared,
            size_of,
            producers,
            node_for,
            staged_files,
            config_hash: OnceCell::new(),
        }
    }

    fn config_hash(&self) -> u64 {
        *self.config_hash.get_or_init(|| config_hash(self.spec, self.cfg))
    }
}

/// Builds the simulator, creates the external input files, and submits the
/// initial job set (stage-0 staging jobs plus first attempts of every task).
pub(crate) fn init_run(ctx: &EngineCtx) -> (Simulation, EngineState) {
    let (spec, cfg, shared) = (ctx.spec, ctx.cfg, ctx.shared);
    let plan = ShardPlan::partition(cfg.cluster.node_count(), cfg.shards)
        .expect("shard count validated by validate_run");
    let mut sim = Simulation::new_sharded(
        cfg.cluster.clone(),
        SimConfig {
            monitor: Some(cfg.monitor.clone()),
            cache: cfg.cache.clone(),
            cache_origins: cfg.cache_origins,
            write_buffering: cfg.write_buffering,
            faults: cfg.faults.clone(),
            verify: cfg.verify,
            obs: cfg.obs.clone(),
        },
        plan,
    )
    .expect("shard plan sized to the cluster it partitions");
    for i in &spec.inputs {
        sim.fs_mut().create_external(&i.path, i.size, shared);
    }

    let mut st = EngineState {
        kind_of_job: Vec::new(),
        root_of: Vec::new(),
        stage_job_of_node: HashMap::new(),
        cur_job_of_task: Vec::with_capacity(spec.tasks.len()),
        attempts: HashMap::new(),
        stage_retries: HashMap::new(),
        pending_rerun: HashMap::new(),
        rec_count: vec![0; spec.tasks.len()],
        n_retries: 0,
        n_recovery: 0,
        ckpt_seq: 0,
        next_ckpt_ns: cfg.checkpoint.as_ref().and_then(|c| c.every_sim_ns),
        stages_ckpted: 0,
    };

    // Input staging: one stage-0 job per node copying the inputs its tasks
    // read.
    if let Some(kind) = cfg.staging.stage_inputs {
        assert!(cfg.cluster.has_tier(kind), "staging tier missing from cluster");
        for (&node, files) in &ctx.staged_files {
            let mut job = JobSpec::new(&format!("staging-{node}"), node).logical("staging");
            for a in staging_actions(files, node, kind, shared, cfg.staging.stage_from_origin) {
                job = job.action(a);
            }
            let id = sim.submit(job);
            st.kind_of_job.push(JobKind::Staging(node));
            st.root_of.push(id.0);
            st.stage_job_of_node.insert(node, id);
        }
    }

    // Submit tasks.
    for (ti, t) in spec.tasks.iter().enumerate() {
        let node = ctx.node_for[ti];
        let mut job = JobSpec::new(&t.name, node).logical(&t.logical);

        // Dependencies: explicit, data (producers of read files), staging.
        for &a in &t.after {
            job = job.dep(st.cur_job_of_task[a]);
        }
        let mut reads_staged_input = false;
        for r in &t.reads {
            if let Some(ps) = ctx.producers.get(r.file.as_str()) {
                for &p in ps {
                    assert!(p != ti, "task {} reads its own output", t.name);
                    assert!(p < ti, "producers must precede consumers in spec order");
                    job = job.dep(st.cur_job_of_task[p]);
                }
            }
            if spec.inputs.iter().any(|i| i.path == r.file) {
                reads_staged_input = true;
            }
        }
        if reads_staged_input {
            if let Some(&sj) = st.stage_job_of_node.get(&node) {
                job = job.dep(sj);
            }
        }

        for a in task_actions(t, node, &cfg.staging, shared, &ctx.size_of) {
            job = job.action(a);
        }

        let id = sim.submit(job);
        st.kind_of_job.push(JobKind::Task(ti));
        st.root_of.push(id.0);
        st.cur_job_of_task.push(id);
    }

    (sim, st)
}

/// The incident loop: runs the simulator to completion, repairing each
/// failed-attempt batch and taking checkpoints at the configured pause
/// points. Shared verbatim between fresh runs and resumed ones — resuming
/// is just re-entering this loop with restored state.
fn drive(sim: &mut Simulation, ctx: &EngineCtx, st: &mut EngineState) -> Result<(), EngineError> {
    let ckpt = ctx.cfg.checkpoint.as_ref();
    if ckpt.is_some_and(|c| c.every_stages.is_some()) {
        sim.set_pause_on_job_complete(true);
    }
    loop {
        if ckpt.is_some_and(|c| c.every_sim_ns.is_some()) {
            sim.set_pause_at(st.next_ckpt_ns);
        }
        match sim.run_to_incident()? {
            RunOutcome::Completed => break,
            RunOutcome::Paused => {
                if checkpoint_due(sim, ctx, st) {
                    take_checkpoint(sim, ctx, st)?;
                }
            }
            RunOutcome::Failures(failures) => {
                handle_failures(sim, ctx, st, failures)?;
                // Quarantining a running cone job raises fresh failures
                // that haven't been delivered yet; a snapshot is only
                // legal at a quiescent point, so defer to the follow-up
                // incident (which takes its own on-incident checkpoint).
                if ckpt.is_some_and(|c| c.on_incident) && !sim.has_pending_failures() {
                    take_checkpoint(sim, ctx, st)?;
                }
            }
        }
    }
    Ok(())
}

/// How many workflow stages have fully completed (every task of the stage
/// has a successful latest attempt).
fn stages_complete(sim: &Simulation, ctx: &EngineCtx, st: &EngineState) -> u32 {
    let mut done_by_stage: BTreeMap<u32, bool> = BTreeMap::new();
    for (ti, t) in ctx.spec.tasks.iter().enumerate() {
        let e = done_by_stage.entry(t.stage).or_insert(true);
        *e = *e && sim.job_done(st.cur_job_of_task[ti]);
    }
    done_by_stage.values().filter(|&&d| d).count() as u32
}

/// Whether a pause point should become a checkpoint under the configured
/// policy.
pub(crate) fn checkpoint_due(sim: &Simulation, ctx: &EngineCtx, st: &EngineState) -> bool {
    let Some(c) = ctx.cfg.checkpoint.as_ref() else { return false };
    if c.every_sim_ns.is_some() {
        if let Some(deadline) = st.next_ckpt_ns {
            if sim.time().ns() >= deadline {
                return true;
            }
        }
    }
    if let Some(n) = c.every_stages {
        if stages_complete(sim, ctx, st) >= st.stages_ckpted.saturating_add(n) {
            return true;
        }
    }
    false
}

/// Takes one checkpoint: records the checkpoint span + metrics, advances
/// the policy cursors, and writes `manifest-{seq}.json` atomically.
///
/// Ordering matters for determinism: the snapshot is first serialized as a
/// *probe* into a byte counter to measure its size, the zero-duration checkpoint span (and the
/// `checkpoint_bytes` / `checkpoint_stalls` counters) are recorded, and
/// only then is the real snapshot taken — so the manifest's snapshot
/// contains its own checkpoint span, a resumed run never re-records it,
/// and the recorded byte count (which excludes that span) agrees between a
/// golden run and a resumed one. Restore emits no spans at all.
///
/// Both snapshots share the monitor's pairs with the live collector, so the
/// probe encodes only the pairs changed since the previous checkpoint, and
/// the manifest splices the encodings the probe cached.
pub(crate) fn take_checkpoint(
    sim: &mut Simulation,
    ctx: &EngineCtx,
    st: &mut EngineState,
) -> Result<(), SimError> {
    let Some(c) = ctx.cfg.checkpoint.as_ref() else { return Ok(()) };
    let seq = st.ckpt_seq;
    let t_ns = sim.time().ns();

    let bytes = {
        let probe = sim.snapshot()?;
        let mut count = ByteCount(0);
        serde_json::to_writer(&mut count, &probe)
            .map_err(|e| SimError::Snapshot(format!("checkpoint encode: {e}")))?;
        count.0
    };
    if let Some(obs) = sim.obs_mut() {
        obs.record_checkpoint(seq, bytes, t_ns);
    }

    // Advance the policy cursors *before* cloning the state into the
    // manifest, so a resumed run checkpoints at exactly the golden run's
    // future points.
    st.ckpt_seq = seq + 1;
    if let (Some(every), Some(mut next)) = (c.every_sim_ns, st.next_ckpt_ns) {
        while next <= t_ns {
            next += every;
        }
        st.next_ckpt_ns = Some(next);
    }
    st.stages_ckpted = stages_complete(sim, ctx, st);
    write_state(sim, ctx, st, seq, &c.dir)
}

/// Parks the paused state in `manifest-{seq}.json` at the next checkpoint
/// sequence, recording nothing: no span, no counter, no policy cursor
/// moves. Returns the sequence, or `None` without a checkpoint policy.
///
/// A park at a pause that is not a checkpoint point (a window edge, say)
/// is not part of the computation, so the parked state is exactly what an
/// uninterrupted run holds there, and a run resumed from it finishes with
/// the same timeline as one that never stopped. The run's next regular
/// checkpoint takes the same sequence and replaces the parked manifest.
pub(crate) fn park_state(
    sim: &Simulation,
    ctx: &EngineCtx,
    st: &EngineState,
) -> Result<Option<u64>, SimError> {
    let Some(c) = ctx.cfg.checkpoint.as_ref() else { return Ok(None) };
    write_state(sim, ctx, st, st.ckpt_seq, &c.dir)?;
    Ok(Some(st.ckpt_seq))
}

/// Writes the current simulator and engine state as manifest `seq`.
fn write_state(
    sim: &Simulation,
    ctx: &EngineCtx,
    st: &EngineState,
    seq: u64,
    dir: &std::path::Path,
) -> Result<(), SimError> {
    let snap = sim.snapshot()?;
    let ledger: Vec<AttemptRecord> = snap
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| matches!(j.state, JobState::Done | JobState::Failed))
        .map(|(i, j)| AttemptRecord {
            job: i as u32,
            name: j.name.clone(),
            node: j.node,
            start_ns: j.start.map_or(0, |t| t.ns()),
            end_ns: j.end.map_or(0, |t| t.ns()),
            failed: j.state == JobState::Failed,
        })
        .collect();
    let manifest = CheckpointManifest {
        version: MANIFEST_VERSION,
        config_hash: ctx.config_hash(),
        seq,
        sim_time_ns: sim.time().ns(),
        ledger,
        files: snap.files.clone(),
        engine: st.clone(),
        sim: snap,
    };
    write_manifest(dir, &manifest)
        .map_err(|e| SimError::Snapshot(format!("checkpoint write: {e}")))?;
    Ok(())
}

/// An [`std::io::Write`] sink that only counts the bytes written to it.
struct ByteCount(u64);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Repairs one batch of failed attempts: lineage recovery of lost inputs,
/// then a backoff retry per failure (see [`run`] for the full story).
pub(crate) fn handle_failures(
    sim: &mut Simulation,
    ctx: &EngineCtx,
    st: &mut EngineState,
    failures: Vec<JobFailure>,
) -> Result<(), EngineError> {
    let (spec, cfg, shared) = (ctx.spec, ctx.cfg, ctx.shared);
    let (size_of, producers) = (&ctx.size_of, &ctx.producers);
    let (node_for, staged_files) = (&ctx.node_for, &ctx.staged_files);
    let EngineState {
        kind_of_job,
        root_of,
        stage_job_of_node,
        cur_job_of_task,
        attempts,
        stage_retries,
        pending_rerun,
        rec_count,
        n_retries,
        n_recovery,
        ..
    } = st;
    {
        for f in failures {
            let kind = kind_of_job[f.job.0 as usize];
            let root = root_of[f.job.0 as usize];
            let n = {
                let a = attempts.entry(root).or_insert(0);
                *a += 1;
                *a
            };
            if n >= cfg.retry.max_attempts {
                return Err(SimError::RetriesExhausted { job: f.name.clone(), attempts: n }.into());
            }
            if let Some(budget) = cfg.retry.stage_budget {
                let stage = kind.task().map_or(0, |ti| spec.tasks[ti].stage);
                let c = stage_retries.entry(stage).or_insert(0);
                *c += 1;
                if *c > budget {
                    return Err(
                        SimError::RetriesExhausted { job: f.name.clone(), attempts: n }.into()
                    );
                }
            }

            // Integrity recovery: a verified read caught corrupt data whose
            // root is a *persisted* file version, possibly written many hops
            // upstream of the detection point. Everything forward-reachable
            // from the root in the DFL-G — files and tasks alike — may carry
            // the taint, so quarantine the whole cone: dropping the poisoned
            // replicas turns each suspect file into an ordinary lost file,
            // which the lineage walk below then repairs from the minimal
            // producer set. In-flight attempts inside the cone are failed
            // (their incidents surface next pause), and already-completed
            // cone tasks are queued for re-execution.
            let mut cone_rerun: Vec<usize> = Vec::new();
            if let FailureCause::CorruptData { root: Some(root), .. } = &f.cause {
                let reproducible =
                    producers.get(root.as_str()).is_some_and(|p| !p.is_empty());
                if !reproducible && sim.file_corrupt(root) {
                    // The corrupt root is an external input with a truly
                    // corrupt stored replica: nothing can regenerate it, so
                    // recovery is impossible.
                    return Err(SimError::IntegrityViolation { file: root.clone() }.into());
                }
                let cone = taint_cone(spec, root);
                for fp in &cone.files {
                    // An unreproducible root whose stored replicas all
                    // check out was only mis-rooted by an in-flight flip on
                    // an unverified read: keep it in service and repair the
                    // cone below it.
                    if reproducible || fp != root {
                        sim.quarantine_file(fp);
                    }
                }
                for &ct in &cone.tasks {
                    let cj = cur_job_of_task[ct];
                    if sim.quarantine_job(cj, root) {
                        continue; // running attempt now fails on its own
                    }
                    if sim.job_done(cj) {
                        cone_rerun.push(ct);
                    }
                }
            }

            // Lineage recovery: for each of the failed task's inputs that no
            // longer has any replica, re-run the minimal (transitive)
            // producer set. Surviving inputs need no recovery. Staging jobs
            // read external inputs, which live on a shared tier and cannot
            // be lost — nothing to repair there. Quarantined taint-cone
            // tasks seed the same walk: their inputs were just dropped, so
            // the walk re-runs them plus whatever upstream producers are
            // needed to rebuild their inputs.
            let mut rerun_deps: Vec<JobId> = Vec::new();
            {
                let mut needed: BTreeSet<usize> = BTreeSet::new();
                let mut work: Vec<&str> = Vec::new();
                if let Some(ti) = kind.task() {
                    for r in &spec.tasks[ti].reads {
                        if file_lost(sim, &r.file) {
                            work.push(&r.file);
                        }
                    }
                }
                for &ct in &cone_rerun {
                    if needed.insert(ct) {
                        for r in &spec.tasks[ct].reads {
                            if file_lost(sim, &r.file) {
                                work.push(&r.file);
                            }
                        }
                    }
                }
                while let Some(fpath) = work.pop() {
                    for &p in producers.get(fpath).into_iter().flatten() {
                        if needed.insert(p) {
                            for r in &spec.tasks[p].reads {
                                if file_lost(sim, &r.file) {
                                    work.push(&r.file);
                                }
                            }
                        }
                    }
                }
                // Spec order is producer-before-consumer, so iterating the
                // sorted set schedules reruns in a valid topological order.
                for &p in &needed {
                    if let Some(&rj) = pending_rerun.get(&p) {
                        if !sim.job_done(rj) {
                            continue; // an in-flight rerun already covers p
                        }
                    }
                    rec_count[p] += 1;
                    let t = &spec.tasks[p];
                    let mut job =
                        JobSpec::new(&format!("{}~rec{}", t.name, rec_count[p]), node_for[p])
                            .logical(&t.logical)
                            .delay_ns(sim.time().ns())
                            .recovery(true);
                    for r in &t.reads {
                        if file_lost(sim, &r.file) {
                            for p2 in producers.get(r.file.as_str()).into_iter().flatten() {
                                if let Some(&rj2) = pending_rerun.get(p2) {
                                    job = job.dep(rj2);
                                }
                            }
                        }
                    }
                    for a in task_actions(t, node_for[p], &cfg.staging, shared, size_of) {
                        job = job.action(a);
                    }
                    let id = sim.submit(job);
                    kind_of_job.push(JobKind::Recovery(p));
                    root_of.push(id.0);
                    pending_rerun.insert(p, id);
                    *n_recovery += 1;
                }
                if let Some(ti) = kind.task() {
                    for r in &spec.tasks[ti].reads {
                        if file_lost(sim, &r.file) {
                            for p in producers.get(r.file.as_str()).into_iter().flatten() {
                                if let Some(&rj) = pending_rerun.get(p) {
                                    if !sim.job_done(rj) && !rerun_deps.contains(&rj) {
                                        rerun_deps.push(rj);
                                    }
                                }
                            }
                        }
                    }
                }
            }

            // The retry itself, delayed by the backoff policy. It replaces
            // the failed attempt (`resubmit`), so anything depending on any
            // attempt in the chain is released when one succeeds.
            let delay = sim.time().ns() + cfg.retry.delay_ns(cfg.faults.seed, u64::from(root), n);
            let retry = match kind {
                JobKind::Staging(node) => {
                    let kind_tier = cfg
                        .staging
                        .stage_inputs
                        .ok_or(EngineError::Internal("staging retry without a staging config"))?;
                    let files = staged_files
                        .get(&node)
                        .ok_or(EngineError::Internal("staging retry for a node with no inputs"))?;
                    let mut j = JobSpec::new(&format!("staging-{node}~r{n}"), node)
                        .logical("staging")
                        .delay_ns(delay);
                    for a in staging_actions(
                        files,
                        node,
                        kind_tier,
                        shared,
                        cfg.staging.stage_from_origin,
                    ) {
                        j = j.action(a);
                    }
                    j
                }
                JobKind::Task(ti) | JobKind::Retry(ti) => {
                    let t = &spec.tasks[ti];
                    let mut j = JobSpec::new(&format!("{}~r{n}", t.name), node_for[ti])
                        .logical(&t.logical)
                        .delay_ns(delay);
                    for &a in &t.after {
                        j = j.dep(cur_job_of_task[a]);
                    }
                    let mut reads_staged = false;
                    for r in &t.reads {
                        for &p in producers.get(r.file.as_str()).into_iter().flatten() {
                            j = j.dep(cur_job_of_task[p]);
                        }
                        if spec.inputs.iter().any(|i| i.path == r.file) {
                            reads_staged = true;
                        }
                    }
                    if reads_staged {
                        if let Some(&sj) = stage_job_of_node.get(&node_for[ti]) {
                            j = j.dep(sj);
                        }
                    }
                    for &rj in &rerun_deps {
                        j = j.dep(rj);
                    }
                    for a in task_actions(t, node_for[ti], &cfg.staging, shared, size_of) {
                        j = j.action(a);
                    }
                    j
                }
                JobKind::Recovery(ti) => {
                    // A failed recovery job is re-issued as a fresh recovery
                    // attempt (same naming scheme, same chain).
                    rec_count[ti] += 1;
                    let t = &spec.tasks[ti];
                    let mut j =
                        JobSpec::new(&format!("{}~rec{}", t.name, rec_count[ti]), node_for[ti])
                            .logical(&t.logical)
                            .delay_ns(delay)
                            .recovery(true);
                    for &rj in &rerun_deps {
                        j = j.dep(rj);
                    }
                    for a in task_actions(t, node_for[ti], &cfg.staging, shared, size_of) {
                        j = j.action(a);
                    }
                    *n_recovery += 1;
                    j
                }
            };
            let id = sim.resubmit(f.job, retry);
            kind_of_job.push(kind.retry_of());
            root_of.push(root);
            *n_retries += 1;
            match kind {
                JobKind::Task(ti) | JobKind::Retry(ti) => cur_job_of_task[ti] = id,
                JobKind::Recovery(ti) => {
                    pending_rerun.insert(ti, id);
                }
                JobKind::Staging(node) => {
                    stage_job_of_node.insert(node, id);
                }
            }
        }
    }
    Ok(())
}

/// Builds the [`RunResult`] from a finished simulator plus engine state.
pub(crate) fn finalize(mut sim: Simulation, ctx: &EngineCtx, st: &EngineState) -> RunResult {
    // Stage spans from reports: staging jobs are stage 0; retries and
    // recovery re-runs count toward their task's stage.
    let reports = sim.reports();
    let mut stage_spans: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for (i, r) in reports.iter().enumerate() {
        let stage = st.kind_of_job[i].task().map_or(0, |ti| ctx.spec.tasks[ti].stage);
        let entry = stage_spans
            .entry(stage)
            .or_insert((f64::INFINITY, f64::NEG_INFINITY));
        entry.0 = entry.0.min(r.start_ns as f64 / 1e9);
        entry.1 = entry.1.max(r.end_ns as f64 / 1e9);
    }

    let mut failure = sim.failure_report();
    failure.retries = st.n_retries;
    failure.recovery_jobs = st.n_recovery;

    // Stage spans onto the timeline's stage track (sorted by stage id, so
    // same-seed runs emit them in identical order), then detach it.
    for (&stage, &(start, end)) in &stage_spans {
        sim.record_stage_span(&format!("stage {stage}"), (start * 1e9) as u64, (end * 1e9) as u64);
    }
    let diagnoses = sim.diagnoses().to_vec();
    let timeline = sim.take_timeline();

    RunResult {
        makespan_s: sim.time().secs(),
        stage_spans,
        total_breakdown: sim.total_breakdown(),
        // The engine always attaches a monitor; an absent measurement set
        // can only mean a caller bypassed `init_run`, so degrade to empty.
        measurements: sim.measurements().unwrap_or_default(),
        reports,
        failure,
        timeline,
        events_dispatched: sim.events_dispatched(),
        diagnoses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FileProduce, FileUse, TaskSpec};

    fn two_stage() -> WorkflowSpec {
        let mut w = WorkflowSpec::new("t");
        w.input("in.dat", 64 << 20);
        let a = w.task(
            TaskSpec::new("gen-0", "gen", 1)
                .read(FileUse::whole("in.dat"))
                .write(FileProduce::new("mid.dat", 32 << 20))
                .compute_ms(50)
                .group(0),
        );
        w.task(
            TaskSpec::new("use-0", "use", 2)
                .read(FileUse::whole("mid.dat"))
                .compute_ms(50)
                .after(a)
                .group(0),
        );
        w
    }

    #[test]
    fn runs_and_reports_stages() {
        let r = run(&two_stage(), &RunConfig::default_gpu(2)).unwrap();
        assert!(r.makespan_s > 0.1);
        assert!(r.stage_time(1) > 0.0);
        assert!(r.stage_time(2) > 0.0);
        let (s1_end, s2_start) = (r.stage_spans[&1].1, r.stage_spans[&2].0);
        assert!(s2_start >= s1_end, "data dependency enforces stage order");
    }

    #[test]
    fn measurements_build_a_graph() {
        let r = run(&two_stage(), &RunConfig::default_gpu(1)).unwrap();
        let g = dfl_core::DflGraph::from_measurements(&r.measurements);
        // gen, use tasks + in.dat, mid.dat.
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3, "in→gen, gen→mid, mid→use");
    }

    #[test]
    fn data_deps_inferred_without_explicit_after() {
        let mut w = WorkflowSpec::new("t");
        w.input("in.dat", 1 << 20);
        w.task(
            TaskSpec::new("gen-0", "gen", 1)
                .read(FileUse::whole("in.dat"))
                .write(FileProduce::new("mid.dat", 1 << 20)),
        );
        // No .after(): dependency comes from reading mid.dat.
        w.task(TaskSpec::new("use-0", "use", 2).read(FileUse::whole("mid.dat")));
        let r = run(&w, &RunConfig::default_gpu(2)).unwrap();
        assert!(r.reports[1].start_ns >= r.reports[0].end_ns);
    }

    #[test]
    fn staging_adds_stage0_and_speeds_reads() {
        let mut cfg = RunConfig::default_gpu(1);
        let base = run(&two_stage(), &cfg).unwrap();

        cfg.staging.stage_inputs = Some(TierKind::Ramdisk);
        cfg.staging.intermediates_local = Some(TierKind::Ramdisk);
        let staged = run(&two_stage(), &cfg).unwrap();
        assert!(staged.stage_spans.contains_key(&0), "stage-0 staging job present");
        // All I/O local after staging: shared reads only during staging.
        let shared_reads: u64 = staged
            .reports
            .iter()
            .skip(1)
            .map(|r| r.breakdown.get(FlowTag::SharedRead))
            .sum();
        assert_eq!(shared_reads, 0);
        assert!(staged.makespan_s <= base.makespan_s * 1.05);
    }

    #[test]
    fn by_group_placement_colocates() {
        let mut w = WorkflowSpec::new("t");
        w.input("a", 1 << 20);
        for g in 0..4u32 {
            w.task(
                TaskSpec::new(&format!("t-{g}"), "t", 1)
                    .read(FileUse::whole("a"))
                    .group(g % 2),
            );
        }
        let mut cfg = RunConfig::default_gpu(2);
        cfg.placement = Placement::ByGroup;
        let r = run(&w, &cfg).unwrap();
        assert_eq!(r.reports[0].node, r.reports[2].node, "same group, same node");
        assert_ne!(r.reports[0].node, r.reports[1].node);
    }

    #[test]
    fn invalid_spec_is_typed_error_not_panic() {
        // Regression: reading an undeclared file used to panic inside
        // `run`; it must now surface as a typed `InvalidSpec`.
        let mut w = WorkflowSpec::new("bad");
        w.task(TaskSpec::new("t-0", "t", 1).read(FileUse::whole("ghost")));
        match run(&w, &RunConfig::default_gpu(1)) {
            Err(EngineError::InvalidSpec(m)) => {
                assert!(m.contains("invalid workflow spec"), "got: {m}")
            }
            other => panic!("expected InvalidSpec, got {:?}", other.map(|r| r.makespan_s)),
        }
    }

    #[test]
    fn zero_node_cluster_is_typed_error_not_panic() {
        // Regression: a zero-node cluster used to trip an `assert!` in
        // `EngineCtx::new` (and before that, a modulo-by-zero in
        // placement).
        match run(&two_stage(), &RunConfig::default_gpu(0)) {
            Err(EngineError::InvalidSpec(m)) => assert!(m.contains("zero nodes"), "got: {m}"),
            other => panic!("expected InvalidSpec, got {:?}", other.map(|r| r.makespan_s)),
        }
    }

    #[test]
    fn explicit_placement_length_mismatch_is_typed_error() {
        // Regression: a short `Placement::Explicit` vector used to
        // panic-index inside `place_tasks`.
        let mut cfg = RunConfig::default_gpu(2);
        cfg.placement = Placement::Explicit(vec![0]);
        assert!(matches!(run(&two_stage(), &cfg), Err(EngineError::InvalidSpec(_))));
        cfg.placement = Placement::Explicit(vec![0, 9]);
        assert!(matches!(run(&two_stage(), &cfg), Err(EngineError::InvalidSpec(_))));
    }

    #[test]
    fn fault_free_run_reports_clean() {
        let r = run(&two_stage(), &RunConfig::default_gpu(2)).unwrap();
        assert!(r.failure.is_clean(), "no faults injected: {}", r.failure);
        assert_eq!(r.failure.retries, 0);
        assert_eq!(r.failure.goodput_bytes(), r.failure.total_bytes);
    }

    #[test]
    fn crash_mid_task_retries_and_completes() {
        let base = run(&two_stage(), &RunConfig::default_gpu(2)).unwrap();
        let mut cfg = RunConfig::default_gpu(2);
        // Node 0 dies while gen-0 (its only occupant) is computing.
        cfg.faults = FaultPlan::seeded(7).crash(0, 80_000_000, 50_000_000);
        let r = run(&two_stage(), &cfg).unwrap();
        assert_eq!(r.failure.crashes, 1);
        assert_eq!(r.failure.retries, 1, "one retry of gen-0: {}", r.failure);
        assert_eq!(r.failure.recovery_jobs, 0, "mid.dat survives on shared BeeGFS");
        assert!(r.reports.iter().any(|j| j.name == "gen-0~r1"));
        assert!(r.makespan_s > base.makespan_s, "wasted work + backoff cost time");
        assert!(r.failure.wasted_ns > 0);
        // The workflow still produced its output despite the crash.
        assert!(r.stage_time(2) > 0.0);
    }

    #[test]
    fn retry_policy_none_aborts_on_first_failure() {
        let mut cfg = RunConfig::default_gpu(2);
        cfg.faults = FaultPlan::seeded(7).crash(0, 80_000_000, 50_000_000);
        cfg.retry = RetryPolicy::none();
        let err = run(&two_stage(), &cfg).unwrap_err();
        assert!(
            matches!(err, EngineError::Sim(SimError::RetriesExhausted { attempts: 1, .. })),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn backoff_delay_is_deterministic_and_grows() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_ns(1, 0, 1), p.delay_ns(1, 0, 1));
        assert_ne!(p.delay_ns(1, 0, 1), p.delay_ns(2, 0, 1), "jitter depends on seed");
        // Exponential growth dominates jitter (mult 2.0 vs ±50%).
        assert!(p.delay_ns(1, 0, 3) > p.delay_ns(1, 0, 1));
        let norm = RetryPolicy { jitter: 0.0, ..p };
        assert_eq!(norm.delay_ns(9, 4, 2), 100_000_000, "50ms · 2¹, no jitter");
    }

    #[test]
    fn obs_timeline_rides_along() {
        let r = run(&two_stage(), &RunConfig::default_gpu(2)).unwrap();
        assert!(r.timeline.is_none(), "observability is opt-in");

        let mut cfg = RunConfig::default_gpu(2);
        cfg.obs = Some(ObsConfig::default());
        let r = run(&two_stage(), &cfg).unwrap();
        let tl = r.timeline.expect("obs enabled");
        assert!(tl.spans().any(|s| s.name == "gen-0"));
        let stages: Vec<_> = tl
            .spans()
            .filter(|s| s.kind == dfl_obs::SpanKind::Stage)
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(stages, vec!["stage 1", "stage 2"]);
        // Stage spans cover their jobs' run spans.
        let stage1 = tl.spans().find(|s| s.name == "stage 1").unwrap();
        let gen = tl.spans().find(|s| s.name == "gen-0").unwrap();
        assert!(stage1.start_ns <= gen.start_ns && gen.end_ns <= stage1.end_ns);
    }

    /// Full outcome tuple for byte-identity comparisons: every consumer-
    /// visible piece of a [`RunResult`], with the non-`PartialEq`
    /// measurement set compared through its serde value.
    type Outcome = (String, Vec<(String, u64, bool)>, FailureReport, String, u64);

    fn outcome(r: &RunResult) -> Outcome {
        (
            format!("{:.9}/{:?}", r.makespan_s, r.stage_spans),
            r.reports.iter().map(|j| (j.name.clone(), j.end_ns, j.failed)).collect(),
            r.failure.clone(),
            r.timeline.as_ref().map(dfl_obs::chrome_trace).unwrap_or_default(),
            r.events_dispatched,
        )
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dfl-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_writes_manifests() {
        let spec = two_stage();
        let mut plain = RunConfig::default_gpu(2);
        plain.obs = Some(ObsConfig::sampled(10_000_000));
        let golden = run(&spec, &plain).unwrap();

        let dir = ckpt_dir("transparent");
        let mut cfg = plain.clone();
        cfg.checkpoint = Some(CheckpointConfig::to_dir(&dir).every_sim_ns(40_000_000));
        let ckpted = run(&spec, &cfg).unwrap();

        // Checkpointing must not perturb the simulation itself: makespan,
        // reports, and failure report agree with the plain run (the
        // timeline differs only by the extra checkpoint spans).
        assert_eq!(golden.makespan_s, ckpted.makespan_s);
        assert_eq!(outcome(&golden).1, outcome(&ckpted).1);
        assert_eq!(golden.failure, ckpted.failure);
        assert_eq!(golden.events_dispatched, ckpted.events_dispatched);
        let tl = ckpted.timeline.as_ref().unwrap();
        let n_ckpt =
            tl.spans().filter(|s| s.kind == dfl_obs::SpanKind::Checkpoint).count() as u64;
        assert!(n_ckpt >= 2, "baseline + periodic checkpoints, got {n_ckpt}");

        let manifest = crate::checkpoint::load_latest(&dir).unwrap();
        assert_eq!(manifest.version, MANIFEST_VERSION);
        assert_eq!(manifest.config_hash, config_hash(&spec, &cfg));
        assert!(manifest.seq >= 1);
        assert!(!manifest.ledger.is_empty(), "finished attempts recorded");
        assert!(manifest.files.iter().any(|f| f.path == "mid.dat"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_crash_then_resume_is_byte_identical() {
        let spec = two_stage();
        let dir = ckpt_dir("chaos");
        let mut cfg = RunConfig::default_gpu(2);
        cfg.obs = Some(ObsConfig::sampled(10_000_000));
        cfg.faults = FaultPlan::seeded(7).crash(0, 80_000_000, 50_000_000).io_errors(0.002);
        cfg.checkpoint =
            Some(CheckpointConfig::to_dir(&dir).every_sim_ns(30_000_000).on_incident());
        let golden = run(&spec, &cfg).unwrap();
        let golden_out = outcome(&golden);
        assert!(golden.events_dispatched > 4);

        for frac in [4, 2] {
            let _ = std::fs::remove_dir_all(&dir);
            let at_event = golden.events_dispatched / frac;
            let mut chaos_cfg = cfg.clone();
            chaos_cfg.faults = chaos_cfg.faults.chaos_crash(at_event);
            match run(&spec, &chaos_cfg) {
                Err(EngineError::Sim(SimError::CoordinatorCrash { at_event: e })) => {
                    assert_eq!(e, at_event)
                }
                other => panic!("expected coordinator crash, got {other:?}"),
            }
            // The dead coordinator left manifests behind; a fresh one picks
            // up the newest and finishes identically to the golden run.
            let resumed = resume_latest(&spec, &cfg).unwrap();
            assert_eq!(golden_out, outcome(&resumed), "crash at event {at_event}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_latest_skips_torn_top_manifest() {
        let spec = two_stage();
        let dir = ckpt_dir("torn-resume");
        let mut cfg = RunConfig::default_gpu(2);
        cfg.obs = Some(ObsConfig::sampled(10_000_000));
        cfg.checkpoint = Some(CheckpointConfig::to_dir(&dir).every_sim_ns(30_000_000));
        let golden = run(&spec, &cfg).unwrap();
        let golden_out = outcome(&golden);

        let _ = std::fs::remove_dir_all(&dir);
        let mut chaos_cfg = cfg.clone();
        chaos_cfg.faults = chaos_cfg.faults.chaos_crash(golden.events_dispatched / 2);
        assert!(run(&spec, &chaos_cfg).is_err());

        // Tear the newest manifest as a crash mid-write would: truncate it.
        let top = crate::checkpoint::latest_manifest(&dir).unwrap();
        let text = std::fs::read_to_string(&top).unwrap();
        assert!(text.len() > 2, "need a real manifest to tear");
        std::fs::write(&top, &text[..text.len() / 3]).unwrap();

        // Resume skips the torn file, warns about it, and still finishes
        // byte-identical to the golden run (any good manifest resumes
        // deterministically).
        let (resumed, torn) = resume_latest_with_warnings(&spec, &cfg).unwrap();
        assert_eq!(torn.len(), 1, "exactly the torn top manifest is skipped");
        assert_eq!(torn[0].path, top);
        assert_eq!(golden_out, outcome(&resumed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_config_drift_with_typed_error() {
        let spec = two_stage();
        let dir = ckpt_dir("drift");
        let mut cfg = RunConfig::default_gpu(2);
        cfg.checkpoint = Some(CheckpointConfig::to_dir(&dir).every_sim_ns(30_000_000));
        run(&spec, &cfg).unwrap();

        let manifest = crate::checkpoint::load_latest(&dir).unwrap();
        let mut drifted = cfg.clone();
        drifted.retry.max_attempts += 1;
        match resume_from(&spec, &drifted, manifest) {
            Err(EngineError::Checkpoint(CheckpointError::HashMismatch { .. })) => {}
            other => panic!("expected HashMismatch, got {:?}", other.map(|r| r.makespan_s)),
        }

        // Chaos in the offered config is NOT drift: the kill switch is
        // excluded from the hash so crashed runs can resume.
        let manifest = crate::checkpoint::load_latest(&dir).unwrap();
        let mut armed = cfg.clone();
        armed.faults = armed.faults.chaos_crash(u64::MAX);
        assert!(resume_from(&spec, &armed, manifest).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_stages_policy_checkpoints_on_stage_boundaries() {
        let spec = two_stage();
        let dir = ckpt_dir("stages");
        let mut cfg = RunConfig::default_gpu(2);
        cfg.obs = Some(ObsConfig::default());
        cfg.checkpoint = Some(CheckpointConfig::to_dir(&dir).every_stages(1));
        let r = run(&spec, &cfg).unwrap();
        let tl = r.timeline.as_ref().unwrap();
        let n_ckpt = tl.spans().filter(|s| s.kind == dfl_obs::SpanKind::Checkpoint).count();
        // Baseline + one per completed stage boundary reached mid-run (the
        // final stage completes the run, so no pause fires after it).
        assert!(n_ckpt >= 2, "got {n_ckpt} checkpoint spans");
        let manifest = crate::checkpoint::load_latest(&dir).unwrap();
        assert!(manifest.engine.stages_ckpted >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_pass_reads_show_reuse_in_graph() {
        let mut w = WorkflowSpec::new("t");
        w.input("data", 16 << 20);
        w.task(
            TaskSpec::new("train-0", "train", 1).read(FileUse::whole("data").passes(4)),
        );
        let r = run(&w, &RunConfig::default_gpu(1)).unwrap();
        let g = dfl_core::DflGraph::from_measurements(&r.measurements);
        let d = g.find_vertex("data").unwrap();
        let e = g.edge(g.out_edges(d).next().unwrap());
        assert!(e.props.reuse_factor > 3.5, "4 passes ⇒ reuse ≈ 4: {}", e.props.reuse_factor);
        assert_eq!(e.props.volume, 64 << 20);
    }
}

#[cfg(test)]
mod placement_tests {
    use super::*;
    use crate::spec::{FileProduce, FileUse, TaskSpec};

    fn n_task_spec(n: usize) -> WorkflowSpec {
        let mut w = WorkflowSpec::new("p");
        w.input("in", 1 << 20);
        for i in 0..n {
            w.task(
                TaskSpec::new(&format!("t-{i}"), "t", 1)
                    .read(FileUse::whole("in"))
                    .write(FileProduce::new(&format!("o{i}"), 1024)),
            );
        }
        w
    }

    #[test]
    fn least_loaded_balances_counts() {
        let w = n_task_spec(10);
        let nodes = place_tasks(&Placement::LeastLoaded, &w.tasks, 4);
        let mut counts = [0u32; 4];
        for n in &nodes {
            counts[*n as usize] += 1;
        }
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }

    #[test]
    fn least_loaded_is_deterministic() {
        let w = n_task_spec(9);
        assert_eq!(
            place_tasks(&Placement::LeastLoaded, &w.tasks, 3),
            place_tasks(&Placement::LeastLoaded, &w.tasks, 3)
        );
    }

    #[test]
    fn explicit_placement_respected() {
        let w = n_task_spec(3);
        let explicit = vec![2u32, 0, 1];
        let nodes = place_tasks(&Placement::Explicit(explicit.clone()), &w.tasks, 3);
        assert_eq!(nodes, explicit);
    }

    #[test]
    fn least_loaded_runs_end_to_end() {
        let w = n_task_spec(8);
        let mut cfg = RunConfig::default_gpu(4);
        cfg.placement = Placement::LeastLoaded;
        let r = run(&w, &cfg).unwrap();
        let mut per_node = [0u32; 4];
        for rep in &r.reports {
            per_node[rep.node as usize] += 1;
        }
        assert_eq!(per_node, [2, 2, 2, 2]);
    }
}

/// Applies [`CoordinationAdvice`](dfl_core::analysis::CoordinationAdvice)
/// derived from a measured run to a run configuration — the automated
/// measure → analyze → remediate loop the paper sketches as future work.
///
/// Conservative mapping: co-location advice switches to group-aware
/// placement (only effective when the spec carries groups), staging advice
/// enables stage-0 input staging on the given node-local tier, locality
/// advice moves intermediates to that tier, and stall advice enables write
/// buffering. Cache advice enables the Table 4 hierarchy for remote
/// origins.
pub fn apply_advice(
    cfg: &mut RunConfig,
    advice: &dfl_core::analysis::CoordinationAdvice,
    local_tier: TierKind,
) {
    assert!(local_tier.is_node_local(), "advice staging targets a node-local tier");
    if advice.colocate_consumers {
        cfg.placement = Placement::ByGroup;
    }
    if !advice.stage_inputs.is_empty() {
        cfg.staging.stage_inputs = Some(local_tier);
    }
    if advice.local_intermediates {
        cfg.staging.intermediates_local = Some(local_tier);
    }
    if advice.buffer_writes {
        cfg.write_buffering = true;
    }
    if !advice.cache_files.is_empty() && cfg.cluster.has_tier(TierKind::Wan) {
        cfg.cache = Some(dfl_iosim::cache::CacheConfig::tazer_table4());
    }
}
