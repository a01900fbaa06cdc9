//! Observability suite for the `datalife serve` daemon: the typed
//! `metrics` reply, the Prometheus text-exposition page, wall-clock
//! job-lifecycle tracing (`trace`), shed replies with back-off hints, the
//! edge-triggered health watchdogs — and the rule that underwrites all of
//! it: wall-clock instrumentation must never perturb the deterministic
//! sim results (proven here byte-for-byte).

use std::path::PathBuf;

use dfl_serve::{Daemon, HealthKind, Request, ServeConfig};
use serde::Value;

fn state_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dfl-serve-mx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn daemon(dir: &PathBuf, tweak: impl FnOnce(&mut ServeConfig)) -> Daemon {
    let mut cfg = ServeConfig::new(dir);
    // Tests drive the watchdogs deterministically via `health_tick`.
    cfg.health_poll_ms = 0;
    tweak(&mut cfg);
    Daemon::start(cfg).expect("daemon starts")
}

fn submit(workflow: &str, tweak: impl FnOnce(&mut Request)) -> String {
    let mut r = Request::new("submit");
    r.workflow = Some(workflow.into());
    tweak(&mut r);
    r.to_line()
}

fn v(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
}

fn accept(d: &Daemon, line: &str) -> u64 {
    let reply = v(&d.request(line)[0]);
    assert_eq!(reply["type"].as_str(), Some("accepted"), "{reply:?}");
    reply["job"].as_u64().unwrap()
}

fn run_to_end(d: &Daemon, job: u64) -> String {
    let mut r = Request::new("stream");
    r.job = Some(job);
    let lines = d.request(&r.to_line());
    v(lines.last().expect("terminal line"))["state"].as_str().unwrap().to_owned()
}

fn metrics(d: &Daemon) -> Value {
    v(&d.request(r#"{"op":"metrics"}"#)[0])
}

#[test]
fn metrics_reply_carries_the_full_typed_schema() {
    let dir = state_dir("schema");
    let d = daemon(&dir, |c| c.workers = 1);
    let job = accept(&d, &submit("smoke", |r| r.tenant = Some("acme".into())));
    assert_eq!(run_to_end(&d, job), "done");

    let m = metrics(&d);
    assert_eq!(m["type"].as_str(), Some("metrics"));
    assert_eq!(m["workers"].as_u64(), Some(1));
    assert_eq!(m["queue_depth"].as_u64(), Some(0));
    assert_eq!(m["draining"].as_bool(), Some(false));
    assert!(m.get("uptime_ms").and_then(|x| x.as_u64()).is_some());

    // Per-tenant scheduler accounting.
    let tenants = m["tenants"].as_array().expect("tenants array");
    let acme = tenants
        .iter()
        .find(|t| t["name"].as_str() == Some("acme"))
        .expect("tenant acme listed");
    assert_eq!(acme["dispatched"].as_u64(), Some(1));
    assert_eq!(acme["queued"].as_u64(), Some(0));

    // Latency quantiles from the wall-clock histograms: exactly one
    // submit and one finished job were observed.
    for key in ["submit_us", "job_wall_ms"] {
        let h = &m["latency"][key];
        assert_eq!(h["count"].as_u64(), Some(1), "{key}: {h:?}");
        assert!(h["p99"].as_f64().unwrap() >= h["p50"].as_f64().unwrap(), "{key}");
        assert!(h["p50"].as_f64().unwrap() > 0.0, "{key}");
    }
    // Every ledger write was timed: accept + running + done = 3 commits.
    assert_eq!(m["latency"]["ledger_commit_us"]["count"].as_u64(), Some(3));

    // Raw counters/gauges ride along; durable-state gauges agree with the
    // one job that ran.
    assert_eq!(m["counters"]["serve_accepted"].as_u64(), Some(1));
    assert_eq!(m["counters"]["serve_completed"].as_u64(), Some(1));
    assert_eq!(m["gauges"]["serve_jobs_total"].as_f64(), Some(1.0));
    assert_eq!(m["gauges"]["serve_jobs_completed"].as_f64(), Some(1.0));
    assert_eq!(m["diagnoses"].as_array().map(Vec::len), Some(0));
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Validates Prometheus text exposition 0.0.4 shape: every sample's base
/// name is typed exactly once before use, values parse, histogram buckets
/// are cumulative and capped by `_count`, labels stay inside one brace
/// pair.
fn validate_exposition(page: &str) {
    let mut typed: Vec<(String, String)> = Vec::new();
    let mut last_bucket: Option<(String, f64)> = None;
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name").to_owned();
            let kind = it.next().expect("TYPE kind").to_owned();
            assert!(matches!(kind.as_str(), "counter" | "gauge" | "histogram"), "{line}");
            assert!(!typed.iter().any(|(n, _)| *n == name), "duplicate TYPE for {name}");
            typed.push((name, kind));
            continue;
        }
        assert!(!line.is_empty(), "exposition has no blank lines");
        let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value.parse().unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"))
        };
        let name = name_part.split('{').next().unwrap();
        assert_eq!(name_part.matches('{').count(), name_part.matches('}').count(), "{line}");
        // The sample's base must have been typed already (suffixes map
        // back to the histogram base name).
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.iter().any(|(n, k)| n == b && k == "histogram"))
            .unwrap_or(name);
        let kind = &typed
            .iter()
            .find(|(n, _)| n == base)
            .unwrap_or_else(|| panic!("sample {name} has no TYPE line"))
            .1;
        // Histogram buckets are cumulative: each le= count is >= the
        // previous within the same series prefix.
        if kind == "histogram" && name.ends_with("_bucket") {
            let series = name_part.split("le=").next().unwrap().to_owned();
            if let Some((prev_series, prev)) = &last_bucket {
                if *prev_series == series {
                    assert!(value >= *prev, "non-cumulative bucket: {line}");
                }
            }
            last_bucket = Some((series, value));
        } else {
            last_bucket = None;
        }
    }
    assert!(!typed.is_empty(), "page is empty");
}

#[test]
fn prometheus_page_is_valid_exposition_with_monotonic_scrapes() {
    let dir = state_dir("prom");
    let d = daemon(&dir, |c| c.workers = 1);
    let job = accept(&d, &submit("smoke", |r| r.tenant = Some("acme".into())));
    assert_eq!(run_to_end(&d, job), "done");

    let page = d.prometheus();
    validate_exposition(&page);
    // Counter samples and labeled per-tenant gauges made it out.
    assert!(page.contains("\nserve_accepted 1\n"), "{page}");
    assert!(page.contains("serve_tenant_dispatched{tenant=\"acme\"} 1"), "{page}");
    // Histogram triplet: +Inf bucket equals _count.
    assert!(page.contains("serve_submit_us_bucket{le=\"+Inf\"} 1"), "{page}");
    assert!(page.contains("\nserve_submit_us_count 1\n"), "{page}");

    // Scrapes are themselves counted, monotonically.
    let first: u64 = scrape_value(&page, "serve_scrapes");
    let second: u64 = scrape_value(&d.prometheus(), "serve_scrapes");
    assert_eq!((first, second), (1, 2), "scrape counter must be monotonic");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn scrape_value(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} not in page"))
        .parse()
        .unwrap()
}

#[test]
fn shed_replies_carry_queue_depth_and_backoff_hint() {
    let dir = state_dir("shed");
    let d = daemon(&dir, |c| {
        c.workers = 0;
        c.queue_cap = 1;
    });
    accept(&d, &submit("smoke", |_| {}));
    // Capacity shed: depth at rejection plus a retry hint (zero workers
    // drain nothing, so the hint is the 1s "come back later").
    let reply = v(&d.request(&submit("smoke", |r| r.seed = Some(1)))[0]);
    assert_eq!(reply["reason"].as_str(), Some("capacity"));
    assert_eq!(reply["queue_depth"].as_u64(), Some(1));
    assert_eq!(reply["retry_after_ms"].as_u64(), Some(1000));
    // Bad requests carry the depth but no hint — retrying won't help.
    let reply = v(&d.request(&submit("not-a-workflow", |_| {}))[0]);
    assert_eq!(reply["reason"].as_str(), Some("bad_request"));
    assert_eq!(reply["queue_depth"].as_u64(), Some(1));
    assert!(reply.get("retry_after_ms").is_none(), "{reply:?}");
    // Draining sheds hint too.
    d.drain();
    let reply = v(&d.request(&submit("smoke", |r| r.seed = Some(2)))[0]);
    assert_eq!(reply["reason"].as_str(), Some("draining"));
    assert_eq!(reply["retry_after_ms"].as_u64(), Some(1000));
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_reply_exports_wall_clock_job_lifecycle() {
    let dir = state_dir("trace");
    let d = daemon(&dir, |c| c.workers = 1);
    let job = accept(&d, &submit("smoke", |r| r.tenant = Some("t7".into())));
    assert_eq!(run_to_end(&d, job), "done");

    let reply = v(&d.request(r#"{"op":"trace"}"#)[0]);
    assert_eq!(reply["type"].as_str(), Some("trace"));
    let chrome = reply["chrome_trace"].as_str().unwrap();
    assert!(chrome.contains("tenant:t7"), "tenant track exported");
    assert!(chrome.contains(&format!("job-{job}")), "job spans exported");
    assert!(chrome.contains("admission") && chrome.contains("ledger"), "daemon tracks exported");
    assert!(!reply["jsonl"].as_str().unwrap().is_empty());
    // The export is non-consuming: a second trace still has the spans.
    let again = v(&d.request(r#"{"op":"trace"}"#)[0]);
    assert!(again["chrome_trace"].as_str().unwrap().contains(&format!("job-{job}")));
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shed_spike_watchdog_fires_edge_triggered_into_metrics() {
    let dir = state_dir("spike");
    let d = daemon(&dir, |c| {
        c.workers = 0;
        c.queue_cap = 1;
        c.health.shed_spike = 2;
        c.health.shed_window_ms = 1_000_000; // one burst stays in window
    });
    accept(&d, &submit("smoke", |_| {}));
    for seed in [1, 2, 3] {
        let reply = v(&d.request(&submit("smoke", |r| r.seed = Some(seed)))[0]);
        assert_eq!(reply["reason"].as_str(), Some("capacity"));
    }
    let fired = d.health_tick();
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0].kind, HealthKind::ShedSpike);
    assert_eq!(fired[0].value, 3, "all three sheds in the window");
    // Edge-triggered: the persisting condition does not re-fire.
    assert!(d.health_tick().is_empty());

    // The diagnosis reached the counter and the `metrics` reply ring.
    assert_eq!(d.snapshot().counter("serve_diagnoses"), 1);
    let m = metrics(&d);
    let diags = m["diagnoses"].as_array().unwrap();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0]["kind"].as_str(), Some("shed-spike"));
    assert_eq!(diags[0]["subject"].as_str(), Some("admission"));
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_traffic_does_not_perturb_job_results() {
    // Golden: the job in a quiet daemon.
    let golden_dir = state_dir("zp-golden");
    let d = daemon(&golden_dir, |c| c.window_ms = 20);
    let job = accept(&d, &submit("genomes", |r| r.seed = Some(9)));
    assert_eq!(run_to_end(&d, job), "done");
    let golden = std::fs::read(golden_dir.join(format!("job-{job}-result.json"))).unwrap();
    d.shutdown();

    // Same job under heavy observability traffic: metrics/trace/scrape
    // before, during (from the stream callback, mid-run), and after.
    let dir = state_dir("zp-noisy");
    let d = daemon(&dir, |c| c.window_ms = 20);
    let _ = metrics(&d);
    let _ = d.prometheus();
    let job2 = accept(&d, &submit("genomes", |r| r.seed = Some(9)));
    assert_eq!(job, job2);
    let mut stream = Request::new("stream");
    stream.job = Some(job2);
    let mut lines = Vec::new();
    d.handle_line(&stream.to_line(), &mut |line| {
        if line.contains("\"type\":\"window\"") {
            let _ = metrics(&d);
            let _ = d.request(r#"{"op":"trace"}"#);
            let _ = d.prometheus();
            let _ = d.health_tick();
        }
        lines.push(line);
    });
    assert_eq!(v(lines.last().unwrap())["state"].as_str(), Some("done"));
    let noisy = std::fs::read(dir.join(format!("job-{job2}-result.json"))).unwrap();
    assert_eq!(noisy, golden, "observability traffic changed the sim result bytes");
    d.shutdown();
    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_failure_counters_are_registered_at_zero() {
    let dir = state_dir("write-failures");
    let d = daemon(&dir, |c| c.workers = 1);
    let job = accept(&d, &submit("smoke", |_| {}));
    assert_eq!(run_to_end(&d, job), "done");

    let names = ["serve_ledger_write_failures", "serve_result_write_failures"];
    let m = metrics(&d);
    for name in names {
        assert_eq!(m["counters"][name].as_u64(), Some(0), "{name} in the metrics reply");
    }
    let page = d.prometheus();
    validate_exposition(&page);
    for name in names {
        assert_eq!(scrape_value(&page, name), 0, "{name} on the Prometheus page");
        assert!(page.contains(&format!("# TYPE {name} counter\n")), "{page}");
    }
    d.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
