//! Byte-identity pins for the JSON codec.
//!
//! The JSON written by `run -o`, checkpoint manifests, saved DFL graphs and
//! the daemon's ledger is an on-disk format: older files must keep loading
//! and external readers must keep seeing the same bytes. The digests below
//! (FNV-1a over the exact output) were taken from the value-tree codec this
//! streaming one replaced; the fixtures under `tests/fixtures/codec/` were
//! written by it. Any change to key order, layout, escaping or number
//! formatting shows up here.

use std::path::{Path, PathBuf};

use dfl_core::DflGraph;
use dfl_serve::ledger::{JobRecord, JobState, Ledger};
use dfl_workflows::catalog::{self, Scale};
use dfl_workflows::checkpoint::{latest_manifest, load_manifest, write_manifest, CheckpointConfig};
use dfl_workflows::engine::{resume_latest, run};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfl-json-codec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/codec")
        .join(name)
}

/// `(what, FNV-1a, byte length)` of an output, for one combined report.
fn pin(what: &str, bytes: &[u8]) -> String {
    format!("{what}: {:#018x} {}", fnv(bytes), bytes.len())
}

/// `datalife run <name>` output (tiny scale, two nodes) for every catalog
/// workflow.
const MEASUREMENTS: &[&str] = &[
    "genomes: 0x35f1b710d2a07cc3 5676905",
    "ddmd: 0x8f91e4ebfc7d329e 3511112",
    "belle2: 0xbcfa9cf1208a9f98 1780070",
    "montage: 0x48c96546cc54f9ac 6997062",
    "seismic: 0x9299559944d53f5c 2824245",
    "smoke: 0x47c18214252a734a 512770",
];

#[test]
fn measurement_sets_match_pinned_bytes() {
    let mut got = Vec::new();
    for &name in catalog::WORKFLOWS {
        let (spec, cfg) = catalog::build(name, Scale::Tiny, 2).unwrap();
        let set = run(&spec, &cfg).unwrap().measurements;
        let json = set.to_json().unwrap();
        got.push(pin(name, json.as_bytes()));
        let back = dfl_trace::MeasurementSet::from_json(&json).unwrap();
        assert!(
            back.to_json().unwrap() == json,
            "{name}: re-serialization differs"
        );
    }
    assert_eq!(got, MEASUREMENTS);
}

const GRAPH: &str = "genomes graph: 0x8ae46c681bad7799 46646";

#[test]
fn graph_json_matches_pinned_bytes() {
    let (spec, cfg) = catalog::build("genomes", Scale::Tiny, 2).unwrap();
    let set = run(&spec, &cfg).unwrap().measurements;
    let json = DflGraph::from_measurements(&set).to_json().unwrap();
    assert_eq!(pin("genomes graph", json.as_bytes()), GRAPH);
    assert!(DflGraph::from_json(&json).unwrap().to_json().unwrap() == json);
}

const MANIFEST: &str = "genomes manifest: 0x6b9bd2cc44575581 1349155";

/// The last checkpoint manifest of a genomes run (timeline recording on,
/// a manifest at every stage boundary).
#[test]
fn checkpoint_manifest_matches_pinned_bytes() {
    let dir = fresh_dir("manifest");
    let (spec, mut cfg) = catalog::build("genomes", Scale::Tiny, 2).unwrap();
    cfg.obs = Some(dfl_obs::ObsConfig::sampled(20_000_000));
    cfg.checkpoint = Some(CheckpointConfig::to_dir(&dir).every_stages(1));
    run(&spec, &cfg).unwrap();
    let path = latest_manifest(&dir).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(pin("genomes manifest", &bytes), MANIFEST);
    // Reading it back and writing it again reproduces it.
    let again = write_manifest(&dir.join("again"), &load_manifest(&path).unwrap()).unwrap();
    assert!(std::fs::read(again).unwrap() == bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ledger whose strings need every kind of escape.
fn tricky_ledger(dir: &Path) -> Ledger {
    let tenants = [
        "anon",
        "quote\"d",
        "back\\slash",
        "tab\there",
        "ctl\u{1}\u{1f}",
        "é中🦀",
        "",
    ];
    let details = [
        "",
        "line one\nline two\r\n",
        "{\"json\": [1, 2]}",
        "\u{7f} del stays raw",
    ];
    let states = [
        JobState::Queued,
        JobState::Running,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
        JobState::Deadline,
    ];
    let mut ledger = Ledger::open(dir).unwrap();
    for i in 0..40u64 {
        let id = ledger.alloc_id();
        ledger.push(JobRecord {
            id,
            tenant: tenants[i as usize % tenants.len()].to_owned(),
            workflow: catalog::WORKFLOWS[i as usize % catalog::WORKFLOWS.len()].to_owned(),
            scale: if i % 3 == 0 { "paper" } else { "tiny" }.to_owned(),
            nodes: 1 + i % 4,
            seed: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            deadline_ms: (i % 2 == 0).then_some(i * 250),
            chaos_at: (i % 5 == 0).then_some(u64::MAX - i),
            panic: i % 7 == 0,
            state: JobState::Queued,
            detail: String::new(),
        });
        ledger.set_state(
            id,
            states[i as usize % states.len()],
            details[i as usize % details.len()],
        );
    }
    ledger
}

const LEDGER: &str = "ledger: 0xdba0a59207ebecb3 7922";

#[test]
fn ledger_matches_pinned_bytes() {
    let dir = fresh_dir("ledger");
    tricky_ledger(&dir).commit().unwrap();
    let bytes = std::fs::read(dir.join("jobs.json")).unwrap();
    assert_eq!(pin("ledger", &bytes), LEDGER);
    let reopened = Ledger::open(&dir).unwrap();
    assert_eq!(
        reopened.jobs(),
        tricky_ledger(&fresh_dir("ledger-again")).jobs()
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(fresh_dir("ledger-again"));
}

/// `fixtures/codec/manifest-000001.json` is the last manifest of a
/// checkpointed `smoke` run (two nodes, a manifest per stage) as the
/// value-tree codec wrote it: it still loads, writes back byte for byte,
/// and resumes to the uninterrupted run's result.
#[test]
fn older_manifest_loads_rewrites_and_resumes() {
    let fixture_bytes = std::fs::read(fixture("manifest-000001.json")).unwrap();
    let manifest = load_manifest(&fixture("manifest-000001.json")).unwrap();
    let dir = fresh_dir("older-manifest");
    let written = write_manifest(&dir, &manifest).unwrap();
    assert!(
        std::fs::read(&written).unwrap() == fixture_bytes,
        "rewrite differs"
    );

    let (spec, mut cfg) = catalog::build("smoke", Scale::Tiny, 2).unwrap();
    cfg.checkpoint =
        Some(CheckpointConfig::to_dir(fresh_dir("older-manifest-golden")).every_stages(1));
    let golden = run(&spec, &cfg).unwrap();
    cfg.checkpoint = Some(CheckpointConfig::to_dir(&dir).every_stages(1));
    let resumed = resume_latest(&spec, &cfg).unwrap();
    assert_eq!(resumed.makespan_s.to_bits(), golden.makespan_s.to_bits());
    assert!(resumed.measurements.to_json().unwrap() == golden.measurements.to_json().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(fresh_dir("older-manifest-golden"));
}

/// `fixtures/codec/jobs.json` is [`tricky_ledger`] as the value-tree codec
/// committed it: it still opens to the same records and commits back byte
/// for byte.
#[test]
fn older_ledger_loads_and_recommits() {
    let fixture_bytes = std::fs::read(fixture("jobs.json")).unwrap();
    let dir = fresh_dir("older-ledger");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("jobs.json"), &fixture_bytes).unwrap();
    let ledger = Ledger::open(&dir).unwrap();
    let expected_dir = fresh_dir("older-ledger-expected");
    assert_eq!(ledger.jobs(), tricky_ledger(&expected_dir).jobs());
    ledger.commit().unwrap();
    assert!(
        std::fs::read(dir.join("jobs.json")).unwrap() == fixture_bytes,
        "recommit differs"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&expected_dir);
}
