//! `perfbench` — the repository benchmark. See `README.md` next to this
//! package for the workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <belle2_sim|handoff_analyze|serve_closed_loop>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The run prints a header, per-pass summaries and (with `--trace 1`) the
//! layer table, then as its last stdout line one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones from the traced pass.

mod belle2_sim;
mod handoff;
mod pipeline;
mod serve_loop;
mod spans;
mod stats;
mod sysinfo;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use spans::{Span, Tracer};
use stats::{median, quartiles, rel_spread, Outcomes, Tail};

pub const WORKLOADS: &[&str] = &["belle2_sim", "handoff_analyze", "serve_closed_loop"];

/// Every per-layer metric with its unit. A workload reports the ones on
/// its path; the rest print as 0, meaning the workload does not use that
/// layer.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("generate.ms", "ms"),
    ("simulate.ms", "ms"),
    ("simulate.events", "count"),
    ("simulate.us_per_event", "us"),
    ("simulate.records", "count"),
    ("export.to_json_ms", "ms"),
    ("export.from_json_ms", "ms"),
    ("export.bytes", "bytes"),
    ("graph.build_ms", "ms"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.critical_path_ms", "ms"),
    ("analysis.opportunities", "count"),
    ("paper.export.to_json_ms", "ms"),
    ("paper.export.from_json_ms", "ms"),
    ("paper.export.bytes", "bytes"),
    ("paper.graph.build_ms", "ms"),
    ("paper.graph.vertices", "count"),
    ("paper.graph.edges", "count"),
    ("paper.analysis.analyze_ms", "ms"),
    ("paper.analysis.critical_path_ms", "ms"),
    ("paper.analysis.opportunities", "count"),
    ("checkpoint.ms", "ms"),
    ("checkpoint.manifests", "count"),
    ("checkpoint.bytes", "bytes"),
    ("obs.export_ms", "ms"),
    ("obs.export_bytes", "bytes"),
    ("transport.ping_rtt_ms", "ms"),
    ("admission.submit_us", "us"),
    ("ledger.commit_ms", "ms"),
    ("ledger.bytes", "bytes"),
    ("ledger.history_jobs", "count"),
    ("worker.job_ms", "ms"),
    ("worker.busy_frac", "frac"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.submit_tail_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Measuring time of one pass. A traced run makes two passes, untraced
    /// then traced, and splits `--seconds` between them, so it takes about
    /// as long as an untraced run.
    pub fn pass_seconds(&self) -> u64 {
        if self.trace {
            (self.seconds / 2).max(1)
        } else {
            self.seconds
        }
    }
}

/// One measured pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of each unit of work (pipeline iteration or job), ms.
    pub unit_ms: Vec<f64>,
    /// Wall time of the pass, s.
    pub wall_s: f64,
    /// Spans (empty for an untraced pass).
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn per_s(&self) -> f64 {
        self.unit_ms.len() as f64 / self.wall_s
    }

    fn summary(&self, what: &str) -> String {
        let tail = Tail::of(&self.unit_ms);
        let [q1, q2, q3] = quartiles(&self.unit_ms);
        format!(
            "{what}: {} units in {:.2} s; p50 {:.3} ms (quartiles {q1:.3}..{q3:.3}, IQR/median {:.3}); tail {} {:.3} ms; {:.3}/s",
            self.unit_ms.len(),
            self.wall_s,
            q2,
            rel_spread(&self.unit_ms),
            tail.label(),
            tail.value,
            self.per_s()
        )
    }
}

/// What a workload hands back to `main` for reporting.
pub struct Report {
    pub setup_s: Vec<f64>,
    /// The untraced pass: the end-to-end metrics come from it.
    pub pass: Pass,
    /// The traced pass (`--trace 1` only).
    pub traced: Option<Pass>,
    /// Per-layer metrics the workload measured (`--trace 1` only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra report lines (layer attributions, notes).
    pub notes: Vec<String>,
    pub outcomes: Outcomes,
}

/// Runs `step` back to back until the steps have taken `seconds` (and at
/// least `min_units` times), timing each call as one unit of work under a root
/// span `unit_name`. `check` runs untimed after each step and decides
/// whether the unit succeeded.
pub fn timed_loop<T>(
    seconds: u64,
    min_units: usize,
    traced: bool,
    unit_name: &'static str,
    outcomes: &mut Outcomes,
    mut step: impl FnMut(u64, &mut Tracer) -> Result<T, String>,
    mut check: impl FnMut(u64, T) -> Result<(), String>,
) -> Pass {
    let start = Instant::now();
    let mut tracer = Tracer::new(traced, start);
    let mut unit_ms = Vec::new();
    let mut busy = std::time::Duration::ZERO;
    let mut unit = 0u64;
    while unit_ms.len() < min_units || busy.as_secs_f64() < seconds as f64 {
        let t0 = Instant::now();
        let root = tracer.enter(unit_name, unit);
        let out = step(unit, &mut tracer);
        tracer.exit(root);
        let dt = t0.elapsed();
        busy += dt;
        unit_ms.push(dt.as_secs_f64() * 1e3);
        outcomes.record(out.and_then(|v| check(unit, v)));
        unit += 1;
    }
    // Throughput counts only the timed steps, so untimed checks do not
    // dilute it.
    Pass {
        unit_ms,
        wall_s: busy.as_secs_f64(),
        spans: tracer.into_spans(),
    }
}

/// Repeats `setup` `times` times, timing each, and returns the times and
/// the last result; `setup_s` is their median. Every set-up's `fingerprint` must equal the
/// first's: a determinism check of the set-up itself. Each set-up but the
/// last is handed to `teardown` before the next one starts.
pub fn repeated_setup<S>(
    times: usize,
    outcomes: &mut Outcomes,
    mut setup: impl FnMut() -> Result<S, String>,
    fingerprint: impl Fn(&S) -> u64,
    mut teardown: impl FnMut(S),
) -> Result<(Vec<f64>, S), String> {
    let mut took = Vec::new();
    let mut first = None;
    let mut last = None;
    for i in 0..times {
        // Release the previous set-up before building the next, so peak
        // memory and running threads are one set-up's, not several.
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        let s = setup()?;
        took.push(t.elapsed().as_secs_f64());
        let fp = fingerprint(&s);
        let want = *first.get_or_insert(fp);
        outcomes.check(if fp == want {
            Ok(())
        } else {
            Err(format!(
                "set-up {i} fingerprint {fp:#x} != first set-up's {want:#x}"
            ))
        });
        last = Some(s);
    }
    Ok((took, last.expect("at least one set-up")))
}

/// A 64-bit FNV-1a digest, stable across runs and builds.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, b: &[u8]) -> Digest {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, x: u64) -> Digest {
        self.bytes(&x.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own seeded generator for input choices.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Scratch directory for one run, under the package directory and removed
/// when the run ends.
pub fn work_dir(tag: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{tag}-{}", std::process::id()))
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    let seconds = seconds.unwrap_or(30);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    for line in sysinfo::header(&args) {
        println!("# {line}");
    }

    let result = match args.workload.as_str() {
        "belle2_sim" => belle2_sim::run(&args),
        "handoff_analyze" => handoff::run(&args),
        "serve_closed_loop" => serve_loop::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: set-up failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let peak_rss_mb = sysinfo::peak_rss_mb();
    let o = &report.outcomes;
    println!("# setup_s runs: {:?}", report.setup_s);
    println!("# {}", report.pass.summary("untraced"));
    println!(
        "# outcomes: attempted {} failed {} failed_frac {} correct {}",
        o.attempted(),
        o.failed(),
        o.failed_frac(),
        o.correct()
    );
    for why in &o.reasons {
        println!("# failure: {why}");
    }

    let metrics: Vec<String> = if let Some(traced) = &report.traced {
        println!("# {}", traced.summary("traced"));
        let (p_off, p_on) = (median(&report.pass.unit_ms), median(&traced.unit_ms));
        let overhead_pct = (p_on - p_off) / p_off * 100.0;
        println!(
            "# tracing overhead: p50 {:.3} ms traced - {:.3} ms untraced = {:+.3} ms ({overhead_pct:+.2}%)",
            p_on,
            p_off,
            p_on - p_off
        );
        println!(
            "# layer self time ({}, traced pass, root = one unit of work):",
            args.workload
        );
        println!(
            "#   {:<28} {:>7} {:>12} {:>12} {:>7}",
            "span", "calls", "self ms", "ms/unit", "share"
        );
        let units = traced.unit_ms.len() as f64;
        for row in spans::layer_table(&traced.spans) {
            println!(
                "#   {:<28} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
                row.layer,
                row.calls,
                row.self_ms,
                row.self_ms / units,
                row.share * 100.0
            );
        }
        for line in &report.notes {
            println!("# {line}");
        }
        let mut layers = report.layers.clone();
        layers.insert("trace.overhead_pct", overhead_pct);
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| metric_json(name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        for line in &report.notes {
            println!("# {line}");
        }
        let tail = Tail::of(&report.pass.unit_ms);
        vec![
            metric_json("setup_s", median(&report.setup_s), "s"),
            metric_json("latency_p50_ms", median(&report.pass.unit_ms), "ms"),
            metric_json("latency_tail_ms", tail.value, "ms"),
            metric_json("throughput_per_s", report.pass.per_s(), "1/s"),
            metric_json("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted(),
        o.failed(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
