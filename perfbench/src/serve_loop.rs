//! `serve_closed_loop`: an in-process `Daemon` + `NetServer` with the
//! default `ServeConfig`, loaded by two TCP clients on two threads in a
//! closed loop (submit, stream to the terminal line, submit the next).
//! Set-up pre-seeds the ledger with a 5,000-job terminal history, so every
//! commit carries a long-lived daemon's history.
//!
//! Every job passes through transport, admission, the ledger (3 commits
//! per job), the worker's checkpointed and watched engine loop, and the
//! result-file export. The scheduler does no measurable work with two
//! clients on two workers and is not measured.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dfl_obs::{chrome_trace, jsonl, ObsConfig};
use dfl_serve::{Client, Daemon, JobRecord, JobState, Ledger, NetServer, Request, ServeConfig};
use dfl_workflows::catalog::{self, Scale};
use dfl_workflows::{
    run_controlled, CheckpointConfig, ControlledOptions, ControlledOutcome, RunConfig, RunResult,
    StepControl, WatchOptions, WorkflowSpec,
};

use crate::spans::{self, Tracer};
use crate::stats::{median, quartiles, Outcomes, Tail};
use crate::{repeated_setup, work_dir, Args, Digest, Pass, Report, SplitMix};

/// Terminal jobs in the ledger before the first submit.
pub const HISTORY_JOBS: u64 = 5_000;
/// Client connections, one thread each (at most `nproc` on a 2-core box).
pub const CLIENTS: usize = 2;
const TENANTS: [&str; 4] = ["tenant-a", "tenant-b", "tenant-c", "tenant-d"];
/// Nominal closed-loop rate used to size a run's fixed job count from
/// `--seconds`; the count, not the clock, ends the loop, so every run of
/// one length commits the same ledger growth.
const NOMINAL_JOBS_PER_S: u64 = 5;
/// Set-ups per run; one takes ~1.5 s on a 2-core box, most of it the
/// reference runs. Each is stopped before the next starts.
const SETUPS: usize = 3;
/// Side measurements repeat this many times and report the median.
const SIDE_REPS: usize = 3;
/// Ping round trips, admissions and commits timed per side measurement.
const PROBES: usize = 20;

/// A running daemon with its front end and connected clients, plus the
/// reference results its jobs are checked against.
struct Served {
    dir: PathBuf,
    daemon: Arc<Daemon>,
    server: NetServer,
    clients: Vec<Client>,
    refs: BTreeMap<&'static str, (u64, u64)>,
}

impl Served {
    /// Set-up: seeds the ledger history, starts the daemon and its front
    /// end, connects the clients, and runs every catalog entry in process
    /// for the reference results.
    fn start(dir: &Path, scratch: &Path) -> Result<Served, String> {
        let _ = std::fs::remove_dir_all(dir);
        seed_history(dir)?;
        let daemon = Arc::new(Daemon::start(ServeConfig::new(dir))?);
        let server = NetServer::start(daemon.clone(), dir)?;
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(&server.endpoints.tcp))
            .collect::<Result<Vec<_>, _>>()?;
        let refs = references(scratch)?;
        Ok(Served {
            dir: dir.to_owned(),
            daemon,
            server,
            clients,
            refs,
        })
    }

    fn fingerprint(&self) -> u64 {
        let jobs = Ledger::open(&self.dir).map_or(0, |l| l.jobs().len() as u64);
        self.refs
            .values()
            .fold(Digest::new().u64(jobs), |d, &(m, e)| d.u64(m).u64(e))
            .finish()
    }

    /// Disconnects the clients and shuts the daemon down (its workers and
    /// health thread end). `NetServer` has no stop: its accept threads
    /// stay blocked, holding the daemon's in-memory state, until exit.
    fn stop(self) -> PathBuf {
        drop(self.clients);
        self.daemon.shutdown();
        drop(self.server);
        self.dir
    }
}

fn history_record(id: u64) -> JobRecord {
    let names = catalog::WORKFLOWS;
    JobRecord {
        id,
        tenant: TENANTS[(id as usize) % TENANTS.len()].to_owned(),
        workflow: names[(id as usize) % names.len()].to_owned(),
        scale: "tiny".to_owned(),
        nodes: 2,
        seed: 0,
        deadline_ms: None,
        chaos_at: None,
        panic: false,
        state: JobState::Done,
        detail: format!("ok: makespan {:.4}s", 0.1 + (id % 97) as f64 * 1e-3),
    }
}

/// Writes the terminal history through the public ledger API.
fn seed_history(dir: &Path) -> Result<(), String> {
    let mut ledger = Ledger::open(dir)?;
    for _ in 0..HISTORY_JOBS {
        let id = ledger.alloc_id();
        ledger.push(history_record(id));
    }
    ledger.commit()
}

/// The jobs of one run: whole rotations over the six catalog names at tiny
/// scale, each name once per rotation, tenants in turn, in a seeded order.
/// `jobs` is a multiple of `CLIENTS × catalog::WORKFLOWS.len()`.
fn job_plan(seed: u64, jobs: usize) -> Vec<(&'static str, &'static str)> {
    let names = catalog::WORKFLOWS;
    let mut plan: Vec<_> = (0..jobs)
        .map(|i| {
            (
                names[i % names.len()],
                TENANTS[(i / names.len()) % TENANTS.len()],
            )
        })
        .collect();
    SplitMix::new(seed).shuffle(&mut plan);
    plan
}

fn job_count(seconds: u64) -> usize {
    let per = CLIENTS * catalog::WORKFLOWS.len();
    let want = (seconds * NOMINAL_JOBS_PER_S) as usize;
    want.div_ceil(per).max(1) * per
}

/// One job as seen by its client.
struct JobOutcome {
    workflow: &'static str,
    job: Option<u64>,
    submit_ms: f64,
    job_ms: f64,
    result: Result<(), String>,
}

fn field<'a>(
    line: &'a str,
    v: &'a serde_json::Value,
    key: &str,
) -> Result<&'a serde_json::Value, String> {
    v.get(key)
        .ok_or_else(|| format!("reply without '{key}': {line}"))
}

/// Submit, then stream to the terminal line.
fn one_job(
    client: &mut Client,
    tr: &mut Tracer,
    unit: u64,
    workflow: &'static str,
    tenant: &str,
) -> JobOutcome {
    let mut req = Request::new("submit");
    req.workflow = Some(workflow.to_owned());
    req.tenant = Some(tenant.to_owned());
    let line = req.to_line();

    let t0 = Instant::now();
    let root = tr.enter("job", unit);
    let reply = tr.span("submit", unit, || client.roundtrip(&line));
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let accepted = reply.and_then(|r| {
        let v: serde_json::Value = serde_json::from_str(&r).map_err(|e| format!("{e}: {r}"))?;
        match field(&r, &v, "type")?.as_str() {
            Some("accepted") => field(&r, &v, "job")?
                .as_u64()
                .ok_or(format!("bad job id: {r}")),
            _ => Err(format!("submit not accepted: {r}")),
        }
    });
    let id = match accepted {
        Ok(id) => id,
        Err(e) => {
            tr.exit(root);
            let job_ms = t0.elapsed().as_secs_f64() * 1e3;
            return JobOutcome {
                workflow,
                job: None,
                submit_ms,
                job_ms,
                result: Err(e),
            };
        }
    };
    let mut stream = Request::new("stream");
    stream.job = Some(id);
    let lines = tr.span("stream", unit, || client.stream_to_end(&stream.to_line()));
    tr.exit(root);
    let job_ms = t0.elapsed().as_secs_f64() * 1e3;
    let result = lines.and_then(|lines| {
        let last = lines.last().ok_or("empty stream")?;
        let v: serde_json::Value =
            serde_json::from_str(last).map_err(|e| format!("{e}: {last}"))?;
        match field(last, &v, "state")?.as_str() {
            Some("done") => Ok(()),
            _ => Err(format!("job {id} ended: {last}")),
        }
    });
    JobOutcome {
        workflow,
        job: Some(id),
        submit_ms,
        job_ms,
        result,
    }
}

/// The closed loop: client `c` runs plan entries `c, c + CLIENTS, …`.
fn closed_loop(
    served: &mut Served,
    plan: &[(&'static str, &'static str)],
    traced: bool,
) -> (Pass, Vec<JobOutcome>) {
    let start = Instant::now();
    let per_client: Vec<(Vec<JobOutcome>, Vec<spans::Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, start);
                    let outs = plan
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|(unit, &(wf, tenant))| {
                            one_job(client, &mut tr, unit as u64, wf, tenant)
                        })
                        .collect();
                    (outs, tr.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut outs = Vec::new();
    let mut all_spans = Vec::new();
    for (o, sp) in per_client {
        outs.extend(o);
        all_spans.push(sp);
    }
    let unit_ms = outs.iter().map(|o| o.job_ms).collect();
    (
        Pass {
            unit_ms,
            wall_s,
            spans: spans::merge(all_spans),
        },
        outs,
    )
}

/// The daemon's exact run of one catalog entry (see `dfl_serve::daemon`):
/// tiny scale, 2 nodes, observability on, windows and checkpoint cadence
/// from the default `ServeConfig`. `ckpt_dir = None` runs without
/// checkpoints.
fn daemon_like_run(name: &str, ckpt_dir: Option<&Path>) -> Result<(RunResult, f64), String> {
    let sc = ServeConfig::new(".");
    let (spec, cfg) = daemon_like_config(name, ckpt_dir, &sc)?;
    let opts = ControlledOptions {
        watch: WatchOptions {
            window_ns: sc.window_ms.max(1) * 1_000_000,
            ..WatchOptions::default()
        },
        deadline_ns: None,
    };
    let t = Instant::now();
    let out = run_controlled(&spec, &cfg, &opts, |_| {}, || StepControl::Continue)
        .map_err(|e| format!("{name}: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match out {
        ControlledOutcome::Completed(r) => Ok((*r, ms)),
        ControlledOutcome::Preempted { .. } => Err(format!("{name}: preempted without control")),
    }
}

fn daemon_like_config(
    name: &str,
    ckpt_dir: Option<&Path>,
    sc: &ServeConfig,
) -> Result<(WorkflowSpec, RunConfig), String> {
    let (spec, mut cfg) = catalog::build(name, Scale::Tiny, 2)?;
    cfg.faults = cfg.faults.clone().seed(0);
    cfg.obs = Some(ObsConfig::default());
    cfg.checkpoint =
        ckpt_dir.map(|d| CheckpointConfig::to_dir(d).every_sim_ns(sc.ckpt_ms.max(1) * 1_000_000));
    Ok((spec, cfg))
}

/// `(makespan_bits, events_dispatched)` of each catalog entry, from an
/// in-process run with the daemon's checkpoint cadence.
fn references(scratch: &Path) -> Result<BTreeMap<&'static str, (u64, u64)>, String> {
    catalog::WORKFLOWS
        .iter()
        .map(|&name| {
            let dir = scratch.join(format!("ref-{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            let (r, _) = daemon_like_run(name, Some(&dir))?;
            let _ = std::fs::remove_dir_all(&dir);
            Ok((name, (r.makespan_s.to_bits(), r.events_dispatched)))
        })
        .collect()
}

/// Checks the result file of an accepted job against the reference run.
fn check_result(dir: &Path, id: u64, want: (u64, u64)) -> Result<(), String> {
    let path = dir.join(format!("job-{id}-result.json"));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let get = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_u64())
            .ok_or(format!("job {id}: result lacks {k}"))
    };
    let got = (get("makespan_bits")?, get("events_dispatched")?);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "job {id}: result (makespan_bits, events) {got:?} != in-process {want:?}"
        ))
    }
}

/// After shutdown: the reopened ledger holds exactly the history plus the
/// accepted jobs, all terminal `done`.
fn check_ledger(dir: &Path, accepted: &[u64]) -> Result<usize, String> {
    let ledger = Ledger::open(dir)?;
    let jobs = ledger.jobs();
    let want = HISTORY_JOBS as usize + accepted.len();
    if jobs.len() != want {
        return Err(format!("ledger holds {} jobs, expected {want}", jobs.len()));
    }
    for id in 0..HISTORY_JOBS {
        if ledger.get(id) != Some(&history_record(id)) {
            return Err(format!("history job {id} changed"));
        }
    }
    for &id in accepted {
        match ledger.get(id) {
            Some(r) if r.state == JobState::Done => {}
            other => return Err(format!("accepted job {id} in ledger as {other:?}")),
        }
    }
    Ok(jobs.len())
}

fn one_pass(
    args: &Args,
    served: &mut Served,
    traced: bool,
    outcomes: &mut Outcomes,
) -> (Pass, Vec<JobOutcome>) {
    let plan = job_plan(args.seed, job_count(args.pass_seconds()));
    let (pass, outs) = closed_loop(served, &plan, traced);
    for o in &outs {
        let r = o.result.clone().and_then(|()| match o.job {
            Some(id) => check_result(&served.dir, id, served.refs[o.workflow]),
            None => Err("no job id".into()),
        });
        outcomes.record(r);
    }
    (pass, outs)
}

/// Per-job layer readings taken beside the loop: transport, admission and
/// ledger on copies of the seeded state, and the worker's engine run with
/// and without checkpoints.
fn side_measurements(
    scratch: &Path,
    client: &mut Client,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut l = BTreeMap::new();

    let mut ping = Vec::new();
    for _ in 0..PROBES {
        let t = Instant::now();
        let r = client.roundtrip(&Request::new("ping").to_line())?;
        ping.push(t.elapsed().as_secs_f64() * 1e3);
        if !r.contains("pong") {
            return Err(format!("ping answered {r}"));
        }
    }
    l.insert("transport.ping_rtt_ms", median(&ping));

    // Admission: in-process submits (one ledger commit each) on a daemon
    // with no workers over a copy of the seeded state.
    let copy = scratch.join("seeded-copy");
    let _ = std::fs::remove_dir_all(&copy);
    seed_history(&copy)?;
    let mut cfg = ServeConfig::new(&copy);
    cfg.workers = 0;
    cfg.health_poll_ms = 0;
    let d = Daemon::start(cfg)?;
    let mut admit = Vec::new();
    let mut req = Request::new("submit");
    req.workflow = Some("smoke".into());
    let line = req.to_line();
    for _ in 0..PROBES {
        let t = Instant::now();
        let r = d.request(&line);
        admit.push(t.elapsed().as_secs_f64() * 1e6);
        if !r.iter().any(|x| x.contains("accepted")) {
            return Err(format!("scratch admission refused: {r:?}"));
        }
    }
    d.shutdown();
    l.insert("admission.submit_us", median(&admit));

    let _ = std::fs::remove_dir_all(&copy);
    seed_history(&copy)?;
    let ledger = Ledger::open(&copy)?;
    let mut commit = Vec::new();
    for _ in 0..PROBES {
        let t = Instant::now();
        ledger.commit()?;
        commit.push(t.elapsed().as_secs_f64() * 1e3);
    }
    l.insert("ledger.commit_ms", median(&commit));
    let bytes = std::fs::metadata(copy.join("jobs.json"))
        .map_err(|e| e.to_string())?
        .len();
    l.insert("ledger.bytes", bytes as f64);
    let _ = std::fs::remove_dir_all(&copy);

    // Worker: per catalog entry, then the mean over the job rotation,
    // which is the per-job figure.
    let per_name = catalog::WORKFLOWS
        .iter()
        .map(|name| WorkerReadings::take(scratch, name))
        .collect::<Result<Vec<_>, _>>()?;
    let mean =
        |f: fn(&WorkerReadings) -> f64| per_name.iter().map(f).sum::<f64>() / per_name.len() as f64;
    l.insert("generate.ms", mean(|w| w.generate_ms));
    l.insert("simulate.ms", mean(|w| w.simulate_ms));
    l.insert("simulate.events", mean(|w| w.events));
    l.insert(
        "simulate.us_per_event",
        mean(|w| w.simulate_ms) * 1e3 / mean(|w| w.events),
    );
    l.insert("simulate.records", mean(|w| w.records));
    l.insert("checkpoint.ms", mean(|w| w.checkpoint_ms));
    l.insert("checkpoint.manifests", mean(|w| w.manifests));
    l.insert("checkpoint.bytes", mean(|w| w.manifest_bytes));
    l.insert("obs.export_ms", mean(|w| w.export_ms));
    l.insert("obs.export_bytes", mean(|w| w.export_bytes));
    Ok(l)
}

/// One catalog entry's worker-side costs, run as the daemon runs it. Times
/// are medians over [`SIDE_REPS`] repetitions.
struct WorkerReadings {
    /// `catalog::build`.
    generate_ms: f64,
    /// The controlled engine run without checkpoints.
    simulate_ms: f64,
    /// What the daemon's checkpoint cadence adds to that run.
    checkpoint_ms: f64,
    manifests: f64,
    manifest_bytes: f64,
    /// Chrome trace + JSONL export of the run's timeline (the result file).
    export_ms: f64,
    export_bytes: f64,
    events: f64,
    records: f64,
}

impl WorkerReadings {
    fn take(scratch: &Path, name: &str) -> Result<WorkerReadings, String> {
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let (mut gen, mut plain, mut with, mut export) = (vec![], vec![], vec![], vec![]);
        let dir = scratch.join(format!("ckpt-{name}"));
        let mut last = None;
        for _ in 0..SIDE_REPS {
            let t = Instant::now();
            drop(catalog::build(name, Scale::Tiny, 2)?);
            gen.push(ms(t));
            let (r, run_ms) = daemon_like_run(name, None)?;
            plain.push(run_ms);
            let _ = std::fs::remove_dir_all(&dir);
            with.push(daemon_like_run(name, Some(&dir))?.1);
            let manifests = dir_stats(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            let tl = r
                .timeline
                .as_ref()
                .ok_or("daemon-like run has no timeline")?;
            let t = Instant::now();
            let exported = chrome_trace(tl).len() + jsonl(tl).len();
            export.push(ms(t));
            last = Some((r, manifests, exported));
        }
        let (r, (manifests, manifest_bytes), exported) = last.expect("SIDE_REPS > 0");
        Ok(WorkerReadings {
            generate_ms: median(&gen),
            simulate_ms: median(&plain),
            checkpoint_ms: median(&with) - median(&plain),
            manifests: manifests as f64,
            manifest_bytes: manifest_bytes as f64,
            export_ms: median(&export),
            export_bytes: exported as f64,
            events: r.events_dispatched as f64,
            records: r.measurements.records.len() as f64,
        })
    }
}

/// Number and total size of the files in `dir`.
fn dir_stats(dir: &Path) -> (u64, u64) {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
        })
        .unwrap_or((0, 0))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = work_dir("serve");
    let result = run_in(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn run_in(args: &Args, scratch: &Path) -> Result<Report, String> {
    let mut outcomes = Outcomes::default();
    let mut setups = 0;
    let (setup_s, mut served) = repeated_setup(
        SETUPS,
        &mut outcomes,
        || {
            setups += 1;
            Served::start(&scratch.join(format!("state-{setups}")), scratch)
        },
        Served::fingerprint,
        |earlier| {
            let _ = std::fs::remove_dir_all(earlier.stop());
        },
    )?;

    let (pass, outs) = one_pass(args, &mut served, false, &mut outcomes);
    let submit: Vec<f64> = outs.iter().map(|o| o.submit_ms).collect();
    let mut notes = vec![format!(
        "jobs: {} over {CLIENTS} clients; submit→accepted p50 {:.3} ms, tail {} {:.3} ms",
        outs.len(),
        median(&submit),
        Tail::of(&submit).label(),
        Tail::of(&submit).value
    )];
    for name in catalog::WORKFLOWS {
        let ms: Vec<f64> = outs
            .iter()
            .filter(|o| o.workflow == *name)
            .map(|o| o.job_ms)
            .collect();
        let [q1, q2, q3] = quartiles(&ms);
        notes.push(format!(
            "  {name:<8} {} jobs, job ms quartiles {q1:.1} {q2:.1} {q3:.1}",
            ms.len()
        ));
    }
    let accepted: Vec<u64> = outs.iter().filter_map(|o| o.job).collect();
    let dir = served.stop();
    outcomes.check(check_ledger(&dir, &accepted).map(|_| ()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut layers = BTreeMap::new();
    let traced = if args.trace {
        let mut served = Served::start(&scratch.join("state-traced"), scratch)?;
        let (traced, outs) = one_pass(args, &mut served, true, &mut outcomes);
        let wall_ms = traced.wall_s * 1e3;
        let snap = served.daemon.snapshot();
        let mut l = side_measurements(scratch, &mut served.clients[0])?;
        let accepted: Vec<u64> = outs.iter().filter_map(|o| o.job).collect();
        let dir = served.stop();
        let history = check_ledger(&dir, &accepted).unwrap_or_else(|e| {
            outcomes.check(Err(e));
            0
        });
        let _ = std::fs::remove_dir_all(&dir);

        let submit: Vec<f64> = outs.iter().map(|o| o.submit_ms).collect();
        l.insert("serve.submit_p50_ms", median(&submit));
        l.insert("serve.submit_tail_ms", Tail::of(&submit).value);
        l.insert("ledger.history_jobs", history as f64);
        if let Some(h) = snap
            .histograms
            .iter()
            .find(|h| h.name == "serve_job_wall_ms")
        {
            l.insert("worker.job_ms", h.mean());
            let workers = ServeConfig::new(".").workers as f64;
            l.insert("worker.busy_frac", h.sum / (workers * wall_ms));
        }
        notes.extend(attribution(
            &l,
            traced.unit_ms.iter().sum::<f64>() / traced.unit_ms.len() as f64,
        ));
        layers = l;
        Some(traced)
    } else {
        None
    };
    Ok(Report {
        setup_s,
        pass,
        traced,
        layers,
        notes,
        outcomes,
    })
}

/// Splits the traced pass's mean job time over the layers by the side
/// measurements (which are per-job means too): the submit round trip plus
/// the terminal line's delivery (about one and a half ping round trips),
/// admission, three ledger commits, and the worker's catalog build, engine
/// run, checkpoints and result export. The rest is queueing, lock waits
/// and anything unmeasured; it is negative when side measurements, taken
/// alone, overstate what overlaps under load.
fn attribution(l: &BTreeMap<&'static str, f64>, job_mean_ms: f64) -> Vec<String> {
    let g = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let commit = g("ledger.commit_ms");
    let rows = [
        (
            "transport (1.5 × ping rtt)",
            1.5 * g("transport.ping_rtt_ms"),
        ),
        (
            "admission (submit - commit)",
            (g("admission.submit_us") / 1e3 - commit).max(0.0),
        ),
        ("ledger (3 × commit)", 3.0 * commit),
        ("generate", g("generate.ms")),
        ("simulate (engine, no checkpoints)", g("simulate.ms")),
        ("checkpoint", g("checkpoint.ms")),
        ("obs export (result file)", g("obs.export_ms")),
    ];
    let known: f64 = rows.iter().map(|r| r.1).sum();
    let mut out = vec![format!(
        "mean job {job_mean_ms:.3} ms attributed from side measurements:"
    )];
    for (name, ms) in rows
        .iter()
        .copied()
        .chain([("other (queueing, locks, unmeasured)", job_mean_ms - known)])
    {
        out.push(format!(
            "  {name:<36} {ms:>10.3} ms {:>6.1}%",
            ms / job_mean_ms * 100.0
        ));
    }
    out
}
