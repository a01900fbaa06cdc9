//! `handoff_analyze`: the `datalife run -o` → `datalife analyze` hand-off
//! for the five catalog workflows. Set-up simulates each workflow once;
//! every timed iteration serializes each measurement set to JSON, parses
//! it back, builds the DFL graph and analyzes it. Export, graph build and
//! analysis do all of the work; the simulator none.
//!
//! The timed loop runs the workflows at tiny scale (~20 MB of JSON per
//! iteration, ~105 iterations in 30 s); the seed draws the Belle II
//! entry's datasets. At paper scale one iteration moves ~460 MB of JSON
//! and takes ~6.5 s on a 2-core box, so a run holds three or four of them,
//! too few for a tail, and their median moved by ~16% between runs. The
//! traced run adds one paper-scale round as a side reading, so the
//! paper-scale export, graph and analysis costs still appear as named
//! per-layer numbers.

use std::collections::BTreeMap;

use dfl_trace::MeasurementSet;
use dfl_workflows::belle2::{self, Belle2Config, DataAccess};
use dfl_workflows::catalog::{self, Scale};

use crate::pipeline::{analyze_set, Analyzed};
use crate::spans::{per_unit_ms, Span, Tracer};
use crate::stats::{median, Outcomes};
use crate::{repeated_setup, timed_loop, Args, Digest, Report};

const WORKFLOWS: [&str; 5] = ["genomes", "ddmd", "belle2", "montage", "seismic"];
/// Simulated nodes, as `datalife run` uses by default.
const NODES: usize = 2;
/// Set-ups per run. One takes about 10 ms, so the median needs many.
const SETUPS: usize = 15;
const LAYERS: [&str; 5] = [
    "export.to_json",
    "export.from_json",
    "graph.build",
    "analysis.analyze",
    "analysis.critical_path",
];

/// One simulated workflow: its measurements and the analysis digest of
/// the in-memory set, which every parsed copy must reproduce.
struct Entry {
    name: &'static str,
    set: MeasurementSet,
    makespan_bits: u64,
    digest: u64,
}

/// Simulates the five workflows from the catalog. With `belle2_seed` the
/// Belle II entry is the catalog's, except that its dataset draws come from
/// that seed.
fn setup(scale: Scale, belle2_seed: Option<u64>) -> Result<Vec<Entry>, String> {
    let mut off = Tracer::new(false, std::time::Instant::now());
    WORKFLOWS
        .iter()
        .map(|&name| {
            let (spec, rc) = match belle2_seed {
                Some(seed) if name == "belle2" => {
                    let c = Belle2Config {
                        seed,
                        ..catalog_belle2(scale)
                    };
                    (
                        belle2::generate(&c, DataAccess::Cached),
                        belle2::run_config(&c, DataAccess::Cached, NODES),
                    )
                }
                _ => catalog::build(name, scale, NODES)?,
            };
            let r = dfl_workflows::run(&spec, &rc).map_err(|e| format!("{name}: {e}"))?;
            let digest = analyze_set(&r.measurements, &mut off, 0).digest();
            Ok(Entry {
                name,
                set: r.measurements,
                makespan_bits: r.makespan_s.to_bits(),
                digest,
            })
        })
        .collect()
}

/// The Belle II configuration `catalog::build` uses at `scale`.
fn catalog_belle2(scale: Scale) -> Belle2Config {
    match scale {
        Scale::Tiny => Belle2Config::tiny(),
        Scale::Paper => Belle2Config::default(),
    }
}

fn fingerprint(entries: &[Entry]) -> u64 {
    entries
        .iter()
        .fold(Digest::new(), |d, e| d.u64(e.makespan_bits).u64(e.digest))
        .finish()
}

/// One workflow's hand-off inside an iteration.
struct HandOff {
    entry: usize,
    json: String,
    parsed: MeasurementSet,
    analyzed: Analyzed,
}

/// The sizes a hand-off reports, kept once its outputs are checked and
/// dropped.
struct Summary {
    entry: usize,
    bytes: usize,
    vertices: usize,
    edges: usize,
    opportunities: usize,
}

impl HandOff {
    fn summary(&self) -> Summary {
        Summary {
            entry: self.entry,
            bytes: self.json.len(),
            vertices: self.analyzed.graph.vertex_count(),
            edges: self.analyzed.graph.edge_count(),
            opportunities: self.analyzed.ops.len(),
        }
    }
}

/// Hands off every workflow once, in catalog order. The order is fixed
/// because it shapes the allocator's state: drawn per iteration from the
/// seed, it made the median depend on the seed by up to 19%.
fn iterate(entries: &[Entry], tr: &mut Tracer, unit: u64) -> Result<Vec<HandOff>, String> {
    (0..entries.len())
        .map(|i| hand_off(entries, i, tr, unit))
        .collect()
}

fn hand_off(entries: &[Entry], i: usize, tr: &mut Tracer, unit: u64) -> Result<HandOff, String> {
    let e = &entries[i];
    let open = tr.enter(e.name, unit);
    let json = tr
        .span("export.to_json", unit, || e.set.to_json())
        .map_err(|err| format!("{}: to_json: {err}", e.name))?;
    let parsed = tr
        .span("export.from_json", unit, || {
            MeasurementSet::from_json(&json)
        })
        .map_err(|err| format!("{}: from_json: {err}", e.name))?;
    let analyzed = analyze_set(&parsed, tr, unit);
    tr.exit(open);
    Ok(HandOff {
        entry: i,
        json,
        parsed,
        analyzed,
    })
}

/// Every iteration, for every workflow: the parsed set re-serializes
/// byte-identically, and its graph and report digest equal those built
/// from the in-memory set.
fn check(entries: &[Entry], unit: u64, done: &[HandOff]) -> Result<(), String> {
    if done.len() != entries.len() {
        return Err(format!(
            "iteration {unit}: {} of {} workflows handed off",
            done.len(),
            entries.len()
        ));
    }
    done.iter()
        .try_for_each(|h| check_one(&entries[h.entry], unit, h))
}

fn check_one(e: &Entry, unit: u64, h: &HandOff) -> Result<(), String> {
    let got = h.analyzed.digest();
    if got != e.digest {
        return Err(format!(
            "iteration {unit}: {}: parsed graph/report digest {got:#x} != in-memory {:#x}",
            e.name, e.digest
        ));
    }
    let again = h
        .parsed
        .to_json()
        .map_err(|err| format!("{}: re-serialize: {err}", e.name))?;
    if again != h.json {
        return Err(format!(
            "iteration {unit}: {}: parsed set does not re-serialize byte-identically",
            e.name
        ));
    }
    Ok(())
}

/// Median per-iteration ms of each layer span under each workflow span.
fn per_workflow_lines(
    title: &str,
    spans: &[Span],
    done: &[Summary],
    entries: &[Entry],
) -> Vec<String> {
    let mut by: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let wf = spans[p].name;
            if WORKFLOWS.contains(&wf) {
                by.entry((wf, s.name))
                    .or_default()
                    .push(s.dur_ns() as f64 / 1e6);
            }
        }
    }
    let mut lines = vec![format!(
        "{title}, median ms per iteration: {} | JSON bytes | vertices | edges | opportunities",
        LAYERS.join(" | ")
    )];
    for h in done {
        let e = &entries[h.entry];
        let cells: Vec<String> = LAYERS
            .iter()
            .map(|l| {
                by.get(&(e.name, *l))
                    .map_or("-".into(), |v| format!("{:.2}", median(v)))
            })
            .collect();
        lines.push(format!(
            "  {:<8} {} | {} | {} | {} | {}",
            e.name,
            cells.join(" | "),
            h.bytes,
            h.vertices,
            h.edges,
            h.opportunities
        ));
    }
    lines
}

/// Layer readings of one hand-off pass, stored under `names`.
fn layer_readings(
    l: &mut BTreeMap<&'static str, f64>,
    names: [&'static str; 9],
    spans: &[Span],
    done: &[Summary],
) {
    let m = |name| median(&per_unit_ms(spans, name));
    let sum = |f: fn(&Summary) -> usize| done.iter().map(f).sum::<usize>() as f64;
    let values = [
        m("export.to_json"),
        m("export.from_json"),
        sum(|h| h.bytes),
        m("graph.build"),
        sum(|h| h.vertices),
        sum(|h| h.edges),
        m("analysis.analyze"),
        m("analysis.critical_path"),
        sum(|h| h.opportunities),
    ];
    l.extend(names.into_iter().zip(values));
}

/// One traced paper-scale round: set-up, then each workflow handed off and
/// checked on its own, so only one paper-scale JSON is held at a time.
fn paper_round(
    outcomes: &mut Outcomes,
) -> Result<(Vec<String>, BTreeMap<&'static str, f64>), String> {
    let entries = setup(Scale::Paper, None)?;
    let mut tr = Tracer::new(true, std::time::Instant::now());
    let root = tr.enter("iteration", 0);
    let mut summaries = Vec::new();
    for i in 0..entries.len() {
        let h = hand_off(&entries, i, &mut tr, 0)?;
        outcomes.record(check_one(&entries[i], 0, &h));
        summaries.push(h.summary());
    }
    tr.exit(root);
    let spans = tr.into_spans();
    let mut l = BTreeMap::new();
    layer_readings(
        &mut l,
        [
            "paper.export.to_json_ms",
            "paper.export.from_json_ms",
            "paper.export.bytes",
            "paper.graph.build_ms",
            "paper.graph.vertices",
            "paper.graph.edges",
            "paper.analysis.analyze_ms",
            "paper.analysis.critical_path_ms",
            "paper.analysis.opportunities",
        ],
        &spans,
        &summaries,
    );
    let lines = per_workflow_lines("paper scale, one round", &spans, &summaries, &entries);
    Ok((lines, l))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut outcomes = Outcomes::default();
    let (setup_s, entries) = repeated_setup(
        SETUPS,
        &mut outcomes,
        || setup(Scale::Tiny, Some(args.seed)),
        |es| fingerprint(es),
        drop,
    )?;

    let pass = |traced: bool, outcomes: &mut Outcomes| {
        let mut last = Vec::new();
        let p = timed_loop(
            args.pass_seconds(),
            3,
            traced,
            "iteration",
            outcomes,
            |unit, tr| iterate(&entries, tr, unit),
            |unit, done| {
                let r = check(&entries, unit, &done);
                last = done.iter().map(HandOff::summary).collect();
                r
            },
        );
        (p, last)
    };
    let (untraced, _) = pass(false, &mut outcomes);
    let mut layers = BTreeMap::new();
    let mut notes = Vec::new();
    let traced = if args.trace {
        let (traced, last) = pass(true, &mut outcomes);
        layer_readings(
            &mut layers,
            [
                "export.to_json_ms",
                "export.from_json_ms",
                "export.bytes",
                "graph.build_ms",
                "graph.vertices",
                "graph.edges",
                "analysis.analyze_ms",
                "analysis.critical_path_ms",
                "analysis.opportunities",
            ],
            &traced.spans,
            &last,
        );
        notes = per_workflow_lines("tiny scale (timed loop)", &traced.spans, &last, &entries);
        let (lines, paper) = paper_round(&mut outcomes)?;
        notes.extend(lines);
        layers.extend(paper);
        Some(traced)
    } else {
        None
    };
    Ok(Report {
        setup_s,
        pass: untraced,
        traced,
        layers,
        notes,
        outcomes,
    })
}
