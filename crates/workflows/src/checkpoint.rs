//! Crash-consistent checkpoints for the workflow engine.
//!
//! A checkpoint is a versioned on-disk [`CheckpointManifest`]: the complete
//! simulator state ([`SimSnapshot`]) at a quiescent point, the engine's
//! retry/recovery bookkeeping ([`EngineState`]), a ledger of every attempt
//! that has already finished, the intermediate-file metadata, and a hash of
//! the `(spec, config)` pair the run was started under.
//! [`crate::engine::resume_from`] revalidates the version and the hash,
//! restores the simulator, and continues mid-stage — replaying nothing.
//! Because the simulator is deterministic, a crash-killed run resumed from
//! its latest manifest finishes byte-identical to an uninterrupted one;
//! `tests/tests/chaos.rs` and `datalife chaos` assert exactly that.
//!
//! Manifests are written atomically (temp file + rename) as
//! `manifest-{seq:06}.json`, so a coordinator killed mid-write leaves the
//! previous manifest intact and [`load_latest`] always finds a complete one.
//! Nothing is fsynced: the scheme survives a killed process (the kernel
//! still holds every written byte), not a power loss or OS crash, after
//! which a renamed manifest may come back empty or truncated. Tolerant
//! loading ([`load_latest_tolerant`]) skips such a file.
//!
//! Writing a manifest costs roughly what changed since the previous one:
//! the monitor's pairs, most of its bytes, are shared with the live
//! collector and carry a cached encoding (see
//! [`dfl_trace::collector::SharedPair`]), so only pairs recorded into since
//! the last checkpoint are encoded again.

use std::fmt;
use std::path::{Path, PathBuf};

use dfl_iosim::fs::FileMeta;
use dfl_iosim::{SimError, SimSnapshot};
use serde::{Deserialize, Reader, Serialize, Value};

use crate::engine::{EngineState, RunConfig};
use crate::spec::WorkflowSpec;

/// Manifest schema version; bumped on incompatible layout changes. A
/// manifest carrying any other version is rejected with
/// [`CheckpointError::VersionMismatch`] before its payload is interpreted.
///
/// v2: integrity support — the embedded [`SimSnapshot`] carries per-replica
/// corruption roots, job taint, and verification counters, and `RunConfig`
/// (hashed into `config_hash`) gained the `verify` policy.
///
/// v3: sharded event core — the embedded [`SimSnapshot`] is shard-invariant
/// (per-node dispatch cursors instead of a single global queue), and
/// `RunConfig` gained `shards`, which is canonicalized out of `config_hash`
/// so a manifest may be resumed under a different shard count.
pub const MANIFEST_VERSION: u32 = 3;

/// When the engine writes checkpoint manifests. Independently of the
/// triggers below, a run with checkpointing enabled writes a baseline
/// `manifest-000000.json` at t=0 so there is always something to resume
/// from, however early the coordinator dies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory manifests land in, as `manifest-{seq:06}.json`.
    pub dir: PathBuf,
    /// Checkpoint whenever this many more workflow stages fully complete.
    pub every_stages: Option<u32>,
    /// Checkpoint on a sim-time cadence (ns).
    pub every_sim_ns: Option<u64>,
    /// Checkpoint after each handled incident batch (failed attempts that
    /// were repaired and resubmitted).
    pub on_incident: bool,
}

impl CheckpointConfig {
    /// A policy with no periodic triggers (only the t=0 baseline manifest);
    /// add triggers with the builder methods.
    pub fn to_dir(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_stages: None,
            every_sim_ns: None,
            on_incident: false,
        }
    }

    /// Checkpoint every `n` fully-completed workflow stages.
    pub fn every_stages(mut self, n: u32) -> Self {
        self.every_stages = Some(n.max(1));
        self
    }

    /// Checkpoint every `ns` nanoseconds of sim time.
    pub fn every_sim_ns(mut self, ns: u64) -> Self {
        self.every_sim_ns = Some(ns.max(1));
        self
    }

    /// Checkpoint after every handled incident batch.
    pub fn on_incident(mut self) -> Self {
        self.on_incident = true;
        self
    }
}

/// One finished attempt (success or failure) as of the checkpoint — the
/// audit trail of work that will *not* be replayed on resume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// Simulator job id.
    pub job: u32,
    pub name: String,
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub failed: bool,
}

/// A versioned, self-validating checkpoint of one engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Hash of the originating `(spec, config)` pair (chaos and checkpoint
    /// policy excluded); [`crate::engine::resume_from`] refuses a manifest
    /// whose hash does not match the configuration it is handed.
    pub config_hash: u64,
    /// Checkpoint sequence number (0 is the t=0 baseline).
    pub seq: u64,
    /// Sim time the checkpoint was taken at.
    pub sim_time_ns: u64,
    /// Every attempt already finished at this point.
    pub ledger: Vec<AttemptRecord>,
    /// Metadata (path, size, replica tiers) of every file the simulated
    /// filesystem holds — inputs plus intermediates produced so far.
    pub files: Vec<FileMeta>,
    /// The engine's dynamic bookkeeping (retry chains, recovery jobs,
    /// checkpoint cursors).
    pub engine: EngineState,
    /// Complete simulator state; restoring it is exact by construction.
    pub sim: SimSnapshot,
}

/// A manifest file that was present but unreadable — torn by a crash
/// mid-write (truncation) or corrupted afterwards (trailing garbage).
/// Tolerant loading ([`load_latest_tolerant`]) skips such files and falls
/// back to the previous good manifest, surfacing what it skipped as typed
/// warnings instead of failing the whole resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornManifest {
    /// The unreadable manifest file.
    pub path: PathBuf,
    /// Why it could not be loaded (I/O or parse detail).
    pub reason: String,
}

impl fmt::Display for TornManifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "torn manifest {} skipped: {}", self.path.display(), self.reason)
    }
}

/// Why a checkpoint could not be written, read, or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure writing or reading a manifest.
    Io(String),
    /// A manifest file exists but does not parse as one.
    Parse(String),
    /// The manifest's schema version is not [`MANIFEST_VERSION`].
    VersionMismatch { found: u32, expected: u32 },
    /// Every `manifest-*.json` in the directory is torn — there is no good
    /// manifest to fall back to.
    AllTorn { dir: PathBuf, torn: Vec<TornManifest> },
    /// The manifest was produced by a different `(spec, config)` pair than
    /// the one offered for resume — resuming would silently compute a
    /// wrong answer, so it is refused instead.
    HashMismatch { manifest: u64, config: u64 },
    /// No `manifest-*.json` exists in the checkpoint directory.
    NoManifest(PathBuf),
    /// The run configuration has no checkpoint policy to resume from.
    NoCheckpointConfig,
    /// The simulator rejected the embedded snapshot.
    Sim(SimError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Parse(e) => write!(f, "bad checkpoint manifest: {e}"),
            CheckpointError::VersionMismatch { found, expected } => {
                write!(f, "manifest version {found} (this build reads {expected})")
            }
            CheckpointError::HashMismatch { manifest, config } => write!(
                f,
                "manifest config hash {manifest:#018x} does not match the \
                 offered configuration ({config:#018x}); refusing to resume"
            ),
            CheckpointError::AllTorn { dir, torn } => write!(
                f,
                "all {} manifest(s) in {} are torn; nothing to resume from",
                torn.len(),
                dir.display()
            ),
            CheckpointError::NoManifest(dir) => {
                write!(f, "no manifest-*.json in {}", dir.display())
            }
            CheckpointError::NoCheckpointConfig => {
                write!(f, "run configuration has no checkpoint policy")
            }
            CheckpointError::Sim(e) => write!(f, "restore failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SimError> for CheckpointError {
    fn from(e: SimError) -> Self {
        CheckpointError::Sim(e)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Identity hash of a `(spec, config)` pair, folded over the spec's JSON
/// and the config's debug rendering with the chaos clause, the checkpoint
/// policy, and the shard count removed: a crash-killed run may resume with
/// its kill switch still armed, from a different checkpoint directory, or
/// under a different shard count, but any change to the workload, cluster,
/// placement, staging, faults, retry, or observability settings changes
/// the hash and invalidates old manifests.
pub fn config_hash(spec: &WorkflowSpec, cfg: &RunConfig) -> u64 {
    let mut canon = cfg.clone();
    canon.faults = canon.faults.without_chaos();
    canon.checkpoint = None;
    // Dispatch order is byte-identical at any shard count, so the shard
    // knob never invalidates a manifest: a run checkpointed at one count
    // may resume at another.
    canon.shards = 1;
    let spec_json = serde_json::to_string(spec).unwrap_or_default();
    let cfg_repr = format!("{canon:?}");
    let mut h = 0xdf1c_0de5_0000_0000u64 ^ MANIFEST_VERSION as u64;
    for chunk in [spec_json.as_str(), cfg_repr.as_str()] {
        for &b in chunk.as_bytes() {
            h = splitmix(h ^ u64::from(b));
        }
        h = splitmix(h);
    }
    h
}

/// Streams `manifest` into a temp file and renames it atomically to
/// `dir/manifest-{seq:06}.json`; returns the final path. A crash before
/// the rename leaves at worst a stale `.tmp`.
pub fn write_manifest(dir: &Path, manifest: &CheckpointManifest) -> Result<PathBuf, CheckpointError> {
    let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
    std::fs::create_dir_all(dir).map_err(io)?;
    let name = format!("manifest-{:06}.json", manifest.seq);
    let tmp = dir.join(format!(".{name}.tmp"));
    let path = dir.join(name);
    let file = std::fs::File::create(&tmp).map_err(io)?;
    serde_json::to_writer(file, manifest).map_err(|e| CheckpointError::Io(e.to_string()))?;
    std::fs::rename(&tmp, &path).map_err(io)?;
    Ok(path)
}

/// Reads and validates one manifest file. The schema version is read (the
/// whole document syntax-checked, nothing else interpreted) *before* the
/// payload is decoded, so a manifest from an incompatible build fails with
/// [`CheckpointError::VersionMismatch`] rather than an opaque parse error.
pub fn load_manifest(path: &Path) -> Result<CheckpointManifest, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    let parse_err = |e: serde_json::Error| CheckpointError::Parse(format!("{}: {e}", path.display()));
    let VersionProbe(found) = serde_json::from_str(&text).map_err(parse_err)?;
    if found != MANIFEST_VERSION {
        return Err(CheckpointError::VersionMismatch { found, expected: MANIFEST_VERSION });
    }
    serde_json::from_str(&text).map_err(parse_err)
}

/// A document's top-level `version` member (the last one, if repeated);
/// 0 when absent or not an unsigned integer. Every other value is skipped.
struct VersionProbe(u32);

impl Deserialize for VersionProbe {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let mut version = 0;
        r.object(|r, key| {
            if key != "version" {
                return r.skip_value();
            }
            version = Value::deserialize(r)?.as_u64().unwrap_or(0) as u32;
            Ok(())
        })?;
        Ok(VersionProbe(version))
    }
}

/// Every `manifest-{seq}.json` in `dir`, sorted by descending sequence.
fn manifest_paths_desc(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::Io(e.to_string()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("manifest-")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

/// Path of the highest-sequence manifest in `dir`, if any.
pub fn latest_manifest(dir: &Path) -> Result<PathBuf, CheckpointError> {
    manifest_paths_desc(dir)?
        .into_iter()
        .next()
        .map(|(_, p)| p)
        .ok_or_else(|| CheckpointError::NoManifest(dir.to_path_buf()))
}

/// Loads the highest-sequence manifest in `dir`, failing on the first
/// unreadable file. Strict by design — use [`load_latest_tolerant`] when a
/// torn top manifest should fall back to the previous good one.
pub fn load_latest(dir: &Path) -> Result<CheckpointManifest, CheckpointError> {
    load_manifest(&latest_manifest(dir)?)
}

/// Loads the highest-sequence *readable* manifest in `dir`.
///
/// Atomic rename makes a torn top manifest unlikely, but not impossible: a
/// crash on a filesystem that reorders the data flush behind the rename, a
/// partial copy between machines, or post-hoc corruption can all leave the
/// highest-sequence file truncated or carrying trailing garbage. Failing
/// the whole resume over it would discard every earlier good checkpoint, so
/// this walks manifests in descending sequence, skips any that fail to read
/// or parse, and returns the first good one along with a typed
/// [`TornManifest`] warning per skipped file.
///
/// A [`CheckpointError::VersionMismatch`] is *not* skipped: an intact
/// manifest from an incompatible build is a configuration problem, and
/// silently resuming from an older sequence would mask it.
pub fn load_latest_tolerant(
    dir: &Path,
) -> Result<(CheckpointManifest, Vec<TornManifest>), CheckpointError> {
    let candidates = manifest_paths_desc(dir)?;
    if candidates.is_empty() {
        return Err(CheckpointError::NoManifest(dir.to_path_buf()));
    }
    let mut torn = Vec::new();
    for (_, path) in candidates {
        match load_manifest(&path) {
            Ok(m) => return Ok((m, torn)),
            Err(e @ (CheckpointError::Io(_) | CheckpointError::Parse(_))) => {
                torn.push(TornManifest { path, reason: e.to_string() });
            }
            Err(hard) => return Err(hard),
        }
    }
    Err(CheckpointError::AllTorn { dir: dir.to_path_buf(), torn })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_ignores_chaos_and_checkpoint_policy() {
        let spec = crate::spec::WorkflowSpec::new("h");
        let base = RunConfig::default_gpu(2);
        let h0 = config_hash(&spec, &base);

        let mut chaotic = base.clone();
        chaotic.faults = chaotic.faults.chaos_crash(99);
        assert_eq!(h0, config_hash(&spec, &chaotic), "chaos clause excluded");

        let mut ckpt = base.clone();
        ckpt.checkpoint = Some(CheckpointConfig::to_dir("/tmp/x").every_stages(1));
        assert_eq!(h0, config_hash(&spec, &ckpt), "checkpoint policy excluded");

        let mut other = base.clone();
        other.retry.max_attempts += 1;
        assert_ne!(h0, config_hash(&spec, &other), "retry policy included");

        let mut spec2 = crate::spec::WorkflowSpec::new("h");
        spec2.input("extra", 1);
        assert_ne!(h0, config_hash(&spec2, &base), "spec included");
    }

    #[test]
    fn latest_manifest_picks_highest_seq() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-latest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seq in [0u64, 3, 12] {
            std::fs::write(dir.join(format!("manifest-{seq:06}.json")), "{}").unwrap();
        }
        std::fs::write(dir.join("other.json"), "{}").unwrap();
        let p = latest_manifest(&dir).unwrap();
        assert!(p.ends_with("manifest-000012.json"), "{}", p.display());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A real manifest written to `dir` by running a tiny workflow with a
    /// t=0 checkpoint, returned as (path, text) for mutation by the torn
    /// tests.
    fn write_real_manifest(dir: &Path) -> (PathBuf, String) {
        use crate::spec::{FileProduce, FileUse, TaskSpec};
        let mut spec = crate::spec::WorkflowSpec::new("torn");
        spec.input("in.dat", 1 << 20);
        spec.task(
            TaskSpec::new("t0", "t", 1)
                .read(FileUse::whole("in.dat"))
                .write(FileProduce::new("out.dat", 1 << 20))
                .compute_ms(10),
        );
        let mut cfg = RunConfig::default_gpu(1);
        cfg.checkpoint = Some(CheckpointConfig::to_dir(dir));
        crate::engine::run(&spec, &cfg).unwrap();
        let path = latest_manifest(dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        (path, text)
    }

    #[test]
    fn tolerant_load_skips_truncated_and_garbage_manifests() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (good_path, text) = write_real_manifest(&dir);
        let good_seq: u64 = good_path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("manifest-"))
            .and_then(|n| n.strip_suffix(".json"))
            .and_then(|s| s.parse().ok())
            .unwrap();

        // A truncated higher-sequence manifest (crash mid-write) ...
        let torn_a = dir.join(format!("manifest-{:06}.json", good_seq + 1));
        std::fs::write(&torn_a, &text[..text.len() / 2]).unwrap();
        // ... and an even higher one with trailing garbage.
        let torn_b = dir.join(format!("manifest-{:06}.json", good_seq + 2));
        std::fs::write(&torn_b, format!("{text}garbage-after-close")).unwrap();

        // Strict load fails on the torn top manifest.
        assert!(matches!(load_latest(&dir), Err(CheckpointError::Parse(_))));

        // Tolerant load falls back to the good one, warning per skip in
        // descending-sequence order.
        let (m, torn) = load_latest_tolerant(&dir).unwrap();
        assert_eq!(m.seq, good_seq);
        assert_eq!(m.version, MANIFEST_VERSION);
        let skipped: Vec<_> = torn.iter().map(|t| t.path.clone()).collect();
        assert_eq!(skipped, vec![torn_b, torn_a]);
        for t in &torn {
            assert!(!t.reason.is_empty(), "{t}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerant_load_reports_all_torn() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-alltorn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest-000000.json"), "{\"version\": 3,").unwrap();
        std::fs::write(dir.join("manifest-000001.json"), "not json at all").unwrap();
        match load_latest_tolerant(&dir) {
            Err(CheckpointError::AllTorn { torn, .. }) => assert_eq!(torn.len(), 2),
            other => panic!("expected AllTorn, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerant_load_keeps_version_mismatch_hard() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-tolver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Intact manifest from an incompatible build must not be skipped
        // over in favour of an older sequence.
        std::fs::write(dir.join("manifest-000000.json"), "{\"version\": 3}").unwrap();
        std::fs::write(dir.join("manifest-000001.json"), "{\"version\": 999}").unwrap();
        match load_latest_tolerant(&dir) {
            Err(CheckpointError::VersionMismatch { found: 999, .. }) => {}
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_unknown_version() {
        let dir = std::env::temp_dir().join(format!("dfl-ckpt-ver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("manifest-000000.json");
        std::fs::write(&p, "{\"version\": 999}").unwrap();
        match load_manifest(&p) {
            Err(CheckpointError::VersionMismatch { found: 999, expected }) => {
                assert_eq!(expected, MANIFEST_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
