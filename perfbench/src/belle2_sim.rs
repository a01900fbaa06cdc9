//! `belle2_sim`: the Belle II Monte Carlo campaign simulated in memory,
//! generate → `engine::run` → graph build → analysis, with no file
//! hand-off. The simulator (event dispatch, WAN flow network, TAZeR cache
//! hierarchy, trace monitor) does nearly all of the work.

use std::collections::BTreeMap;

use dfl_workflows::belle2::{self, Belle2Config, DataAccess};
use dfl_workflows::RunResult;

use crate::pipeline::{analyze_set, Analyzed};
use crate::spans::{per_unit_ms, Tracer};
use crate::stats::{median, Outcomes};
use crate::{repeated_setup, timed_loop, Args, Digest, Report};

/// Datasets each MC task draws. The campaign default is 16 (~498k events,
/// ~5 s per run on a 2-core box); one keeps a run to a few hundred ms so a
/// measurement holds enough iterations for a tail, while 240 tasks over a
/// 48-dataset pool still share datasets through the cache hierarchy.
pub const DATASETS_PER_TASK: u32 = 1;
/// Simulated nodes, as `datalife run belle2` uses by default.
const NODES: usize = 2;
/// Set-ups per run (one reference iteration each).
const SETUPS: usize = 5;

fn config(seed: u64) -> Belle2Config {
    Belle2Config {
        datasets_per_task: DATASETS_PER_TASK,
        seed,
        ..Belle2Config::default()
    }
}

/// One iteration's outputs, checked after the timer stops.
struct Iteration {
    run: RunResult,
    analyzed: Analyzed,
}

fn iterate(cfg: &Belle2Config, tr: &mut Tracer, unit: u64) -> Result<Iteration, String> {
    let (spec, rc) = tr.span("generate", unit, || {
        (
            belle2::generate(cfg, DataAccess::Cached),
            belle2::run_config(cfg, DataAccess::Cached, NODES),
        )
    });
    let run = tr
        .span("simulate", unit, || dfl_workflows::run(&spec, &rc))
        .map_err(|e| format!("engine: {e}"))?;
    let analyzed = analyze_set(&run.measurements, tr, unit);
    Ok(Iteration { run, analyzed })
}

/// What every iteration must reproduce: makespan bits, event count and
/// analysis digest.
fn fingerprint(it: &Iteration) -> u64 {
    Digest::new()
        .u64(it.run.makespan_s.to_bits())
        .u64(it.run.events_dispatched)
        .u64(it.analyzed.digest())
        .finish()
}

/// The sizes an iteration reports, kept once its outputs are checked and
/// dropped.
#[derive(Clone, Copy)]
struct Counts {
    makespan_s: f64,
    events: u64,
    records: usize,
    vertices: usize,
    edges: usize,
    opportunities: usize,
}

impl Iteration {
    fn counts(&self) -> Counts {
        Counts {
            makespan_s: self.run.makespan_s,
            events: self.run.events_dispatched,
            records: self.run.measurements.records.len(),
            vertices: self.analyzed.graph.vertex_count(),
            edges: self.analyzed.graph.edge_count(),
            opportunities: self.analyzed.ops.len(),
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cfg = config(args.seed);
    let mut outcomes = Outcomes::default();
    let mut off = Tracer::new(false, std::time::Instant::now());
    let (setup_s, reference) = repeated_setup(
        SETUPS,
        &mut outcomes,
        || iterate(&cfg, &mut off, 0).map(|it| (fingerprint(&it), it.counts())),
        |(fp, _)| *fp,
        drop,
    )?;
    let (want, reference) = reference;

    let pass = |traced: bool, outcomes: &mut Outcomes| {
        let mut last = None;
        let p = timed_loop(
            args.pass_seconds(),
            3,
            traced,
            "iteration",
            outcomes,
            |unit, tr| iterate(&cfg, tr, unit),
            |unit, it| {
                let fp = fingerprint(&it);
                last = Some(it.counts());
                if fp == want {
                    Ok(())
                } else {
                    Err(format!(
                        "iteration {unit}: fingerprint {fp:#x} != set-up's {want:#x}"
                    ))
                }
            },
        );
        (p, last)
    };
    let (untraced, _) = pass(false, &mut outcomes);
    let notes = vec![format!(
        "belle2 campaign: 240 tasks, {DATASETS_PER_TASK} dataset(s)/task, seed {}, {} events, makespan {:.3} s, {} opportunities",
        cfg.seed,
        reference.events,
        reference.makespan_s,
        reference.opportunities
    )];
    let mut layers = BTreeMap::new();
    let traced = if args.trace {
        let (traced, last) = pass(true, &mut outcomes);
        let c = last.unwrap_or(reference);
        let m = |name| median(&per_unit_ms(&traced.spans, name));
        let sim_ms = m("simulate");
        let events = c.events as f64;
        layers.extend([
            ("generate.ms", m("generate")),
            ("simulate.ms", sim_ms),
            ("simulate.events", events),
            ("simulate.us_per_event", sim_ms * 1e3 / events),
            ("simulate.records", c.records as f64),
            ("graph.build_ms", m("graph.build")),
            ("graph.vertices", c.vertices as f64),
            ("graph.edges", c.edges as f64),
            ("analysis.analyze_ms", m("analysis.analyze")),
            ("analysis.critical_path_ms", m("analysis.critical_path")),
            ("analysis.opportunities", c.opportunities as f64),
        ]);
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
