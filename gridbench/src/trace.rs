//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Untraced and traced repetitions alternate (the traced ones attach the
//! grid's own opt-in telemetry, whose registry gives handler busy time,
//! delivery counts and batch sizes); both must reach identical outcomes.
//! Then the benchmark replays the work of single layers through their
//! public functions against the traced run's final store and a fresh
//! copy of its network, recording a span around every call: analysis
//! tasks (`select`, `latest`, `stats`, `trend_per_min`, `facts_for`,
//! `Engine::insert_all`, `Engine::run`), store inserts, device ticks,
//! SNMP walks and the ACL batch codec. Spans stay in memory and are
//! written out at exit.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use agentgrid::grid::{analyze_task, facts_for, DEFAULT_RULES};
use agentgrid_acl::ontology::{AnalysisTask, CollectedBatch, FromContent, Observation, ToContent};
use agentgrid_net::{oids, snmp, Oid};
use agentgrid_platform::{Telemetry, TelemetryHandle};
use agentgrid_rules::{parse_rules, Engine, Fact, KnowledgeBase};
use agentgrid_store::{Classifier, LabelFilter, ManagementStore, Record};
use agentgrid_telemetry::SampleValue;

use crate::measure::{another_fits, check_conservation, check_same_outcome, run_rep, Outcome, Rep};
use crate::output::Metrics;
use crate::stats::{median, ratio};
use crate::workload::{site_name, Workload, CYCLE_MS};

/// Simulated minutes the network replay ticks through.
const NET_REPLAY_TICKS: u64 = 10;

/// One timed call: name, start and end (ns since the run's epoch) and
/// the span that caused it (the replayed task, for analysis calls).
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span log.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    fn time<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        out
    }

    /// Total duration and count of the spans called `name`.
    fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ns, n), s| {
                (ns + (s.end_ns - s.start_ns) as f64, n + 1)
            })
    }

    /// Chrome-trace JSON (loadable in Perfetto): one complete event per
    /// span, its id and parent in `args`.
    fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Container-name prefixes of the grid stages.
fn stage_of(container: &str) -> &'static str {
    if container.starts_with("cg-") {
        "collector"
    } else if container == "clg" || container.starts_with("clg-") {
        "classifier"
    } else if container.starts_with("pg-root") {
        "root"
    } else if container == "ig" {
        "interface"
    } else {
        "analyzer"
    }
}

/// Runs untraced/traced repetition pairs while the budget lasts (at
/// least one pair), then derives every per-layer metric; `spans_path`
/// receives the span log.
pub fn run(w: &Workload, budget: Duration, spans_path: Option<&str>) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut last = None;
    while another_fits(started, plain_rates.len(), 1, budget) {
        let plain = run_rep(w, None)?;
        let telemetry = Telemetry::new();
        let traced = run_rep(w, Some(telemetry.clone()))?;
        for rep in [&plain, &traced] {
            let (lost, conservation) = check_conservation(&rep.report);
            attempted += rep.report.tasks_created;
            failed += lost;
            problems.extend(conservation);
        }
        problems.extend(check_same_outcome(
            "traced vs untraced run",
            &plain.report,
            &traced.report,
        ));
        plain_rates.push(plain.timing.records_per_s(w));
        traced_rates.push(traced.timing.records_per_s(w));
        last = Some((traced, telemetry));
    }
    let (rep, telemetry) = last.expect("at least one pair ran");

    let mut m = Metrics::default();
    let mut spans = Spans::new();
    replay_analysis(w, &rep, &mut spans, &mut m, &mut problems)?;
    grid_layers(w, &rep, &telemetry, &mut m);
    replay_store_inserts(w, &rep, &mut spans, &mut m, &mut problems);
    replay_network(w, &mut spans, &mut m, &mut problems);
    m.push(
        "telemetry.overhead_ratio",
        ratio(median(&traced_rates), median(&plain_rates)),
        "ratio",
    );
    if let Some(path) = spans_path {
        std::fs::write(path, spans.chrome_trace())
            .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
    }
    eprintln!(
        "gridbench: {} seed {}: {} untraced/traced pairs, {} spans",
        w.kind.name(),
        w.seed,
        plain_rates.len(),
        spans.spans.len(),
    );
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics: m,
    })
}

/// Per-task tallies of one analysis replay.
#[derive(Default)]
struct TaskWork {
    series: u64,
    facts: u64,
    trend_points: u64,
    findings: u64,
    match_attempts: u64,
}

/// Replays one analysis task call by call, in exactly the order the
/// analyzer makes the calls (fact insertion order feeds the engine's
/// recency ordering).
fn replay_task(
    engine: &mut Engine,
    store: &ManagementStore,
    task: &AnalysisTask,
    spans: &mut Spans,
    parent: usize,
) -> TaskWork {
    let p = Some(parent);
    let mut work = TaskWork::default();
    engine.reset();
    let series: Vec<(String, String)> = spans.time("select", p, || {
        if task.level >= 3 || task.partition == "*" {
            store
                .partitions()
                .iter()
                .flat_map(|part| store.select(&LabelFilter::class(part)))
                .collect()
        } else {
            store.select(&LabelFilter::class(&task.partition))
        }
    });
    work.series = series.len() as u64;
    for (device, metric) in &series {
        if let Some((_, value)) = spans.time("latest", p, || store.latest(device, metric)) {
            let facts = spans.time("facts_for", p, || facts_for(device, metric, value));
            work.facts += facts.len() as u64;
            spans.time("insert_all", p, || engine.insert_all(facts));
        }
        if task.level < 2 {
            continue;
        }
        if let Some(stats) = spans.time("stats", p, || store.stats(device, metric, 0, u64::MAX)) {
            work.trend_points += stats.count as u64;
            let fact = spans.time("facts_for", p, || {
                Fact::new("stat")
                    .with("device", device.as_str())
                    .with("metric", metric.as_str())
                    .with("mean", stats.mean)
                    .with("max", stats.max)
                    .with("count", stats.count as i64)
            });
            work.facts += 1;
            spans.time("insert_all", p, || engine.insert(fact));
        }
        let trend = spans.time("trend_per_min", p, || {
            store.trend_per_min(device, metric, 0, u64::MAX)
        });
        if let Some(slope) = trend {
            let fact = spans.time("facts_for", p, || {
                Fact::new("trend")
                    .with("device", device.as_str())
                    .with("metric", metric.as_str())
                    .with("per-min", slope)
            });
            work.facts += 1;
            spans.time("insert_all", p, || engine.insert(fact));
        }
    }
    let outcome = spans.time("run", p, || engine.run());
    work.findings = outcome.findings.len() as u64;
    work.match_attempts = outcome.stats.match_attempts;
    work
}

/// Replays the analysis tasks the root issues — one level-1 and one
/// level-2 task per partition, plus the level-3 sweep — against the
/// final store, and checks that each replay reproduces
/// `analyze_task`'s alert count and match attempts.
fn replay_analysis(
    w: &Workload,
    rep: &Rep,
    spans: &mut Spans,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let kb = KnowledgeBase::from_rules(
        parse_rules(DEFAULT_RULES).map_err(|e| format!("default rules: {e}"))?,
    );
    let store = rep.store.lock();
    let mut tasks = Vec::new();
    for part in store.partitions() {
        for level in [1, 2] {
            tasks.push(AnalysisTask::new(
                format!("replay-l{level}-{part}"),
                part,
                part,
                level,
                0,
            ));
        }
    }
    tasks.push(AnalysisTask::new("replay-l3", "correlation", "*", 3, 0));
    let now = w.cycles() * CYCLE_MS;
    let mut engine = Engine::new(kb.clone());
    let mut total = TaskWork::default();
    for task in &tasks {
        let name = match task.level {
            1 => "task.l1",
            2 => "task.l2",
            _ => "task.l3",
        };
        let start_ns = spans.now_ns();
        spans.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
        });
        let id = spans.spans.len() - 1;
        let work = replay_task(&mut engine, &store, task, spans, id);
        spans.spans[id].end_ns = spans.now_ns();
        let (alerts, attempts) = analyze_task(&store, &kb, task, now);
        if alerts.len() as u64 != work.findings || attempts != work.match_attempts {
            problems.push(format!(
                "replay of {} found {} alerts in {} match attempts; analyze_task found {} in {}",
                task.task_id,
                work.findings,
                work.match_attempts,
                alerts.len(),
                attempts
            ));
        }
        total.series += work.series;
        total.facts += work.facts;
        total.trend_points += work.trend_points;
        total.findings += work.findings;
        total.match_attempts += work.match_attempts;
    }
    let n = tasks.len() as f64;
    let per_task_us = |name: &str| spans.total(name).0 / 1e3 / n;
    m.push(
        "rules.match_attempts_per_cycle",
        rep.timing.timed_match_attempts as f64 / w.timed_cycles as f64,
        "count",
    );
    m.push("rules.run_us_per_task", per_task_us("run"), "us");
    m.push(
        "rules.findings_per_kattempt",
        ratio(total.findings as f64 * 1e3, total.match_attempts as f64),
        "ratio",
    );
    m.push("analyzer.series_per_task", total.series as f64 / n, "count");
    m.push("analyzer.facts_per_task", total.facts as f64 / n, "count");
    m.push(
        "analyzer.facts_us_per_task",
        per_task_us("facts_for") + per_task_us("insert_all"),
        "us",
    );
    let per_call_ns = |name: &str| {
        let (ns, calls) = spans.total(name);
        ratio(ns, calls as f64)
    };
    for (span, metric) in [
        ("task.l1", "analyzer.task_ms.l1"),
        ("task.l2", "analyzer.task_ms.l2"),
        ("task.l3", "analyzer.task_ms.l3"),
    ] {
        m.push(metric, per_call_ns(span) / 1e6, "ms");
    }
    m.push("store.select_us_per_task", per_task_us("select"), "us");
    m.push("store.latest_ns_per_series", per_call_ns("latest"), "ns");
    m.push("store.stats_ns_per_series", per_call_ns("stats"), "ns");
    m.push(
        "store.trend_ns_per_point",
        ratio(spans.total("trend_per_min").0, total.trend_points as f64),
        "ns",
    );
    Ok(())
}

/// Metrics read from the traced run's report and telemetry registry.
fn grid_layers(w: &Workload, rep: &Rep, telemetry: &TelemetryHandle, m: &mut Metrics) {
    let report = &rep.report;
    let cycles = (w.cycles() + w.drain_cycles) as f64;
    let records = (report.records_stored as u64 - report.federation.injected_findings) as f64;
    let tasks = report.tasks_created as f64;
    let mut busy_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut analyzer_busy = Vec::new();
    let stats = telemetry.container_stats();
    for s in &stats {
        let stage = stage_of(&s.container);
        *busy_ns.entry(stage).or_default() += s.busy_ns as f64;
        if stage == "analyzer" {
            analyzer_busy.push(s.busy_ns as f64);
        }
    }
    let total_busy: f64 = busy_ns.values().sum();
    let analyzers: f64 = analyzer_busy.iter().sum();
    let busiest = analyzer_busy.iter().copied().fold(0.0, f64::max);
    let busy = |stage: &str| busy_ns.get(stage).copied().unwrap_or(0.0);
    m.push(
        "analyzer.busy_share",
        ratio(busy("analyzer"), total_busy),
        "ratio",
    );
    m.push(
        "analyzer.busy_max_share",
        ratio(busiest, analyzers),
        "ratio",
    );
    let store = rep.store.lock();
    m.push("store.points", store.len() as f64, "count");
    m.push(
        "store.bytes_per_sample",
        ratio(store.storage_bytes() as f64, store.len() as f64),
        "B",
    );
    drop(store);
    m.push(
        "classifier.busy_us_per_rec",
        ratio(busy("classifier") / 1e3, records),
        "us",
    );
    let wall_ms: f64 = rep.timing.cycle_ms.iter().sum();
    m.push(
        "platform.unattributed_ms_per_cycle",
        (wall_ms - total_busy / 1e6) / cycles,
        "ms",
    );
    m.push(
        "platform.messages_per_krec",
        ratio(telemetry.delivered_total() as f64 * 1e3, records),
        "count",
    );
    let batch_mean = match telemetry
        .snapshot()
        .find("agentgrid_delivery_batch_size", &[])
        .map(|s| &s.value)
    {
        Some(SampleValue::Histogram { sum, count, .. }) => ratio(*sum as f64, *count as f64),
        _ => 0.0,
    };
    m.push("platform.batch_size_mean", batch_mean, "count");
    m.push("platform.dead_letters", report.dead_letters as f64, "count");
    let net = report.net.unwrap_or_default();
    m.push("platform.retransmits", net.retransmits as f64, "count");
    m.push(
        "platform.dup_suppressed",
        net.dup_suppressed as f64,
        "count",
    );
    m.push("platform.dropped", net.dropped as f64, "count");
    m.push(
        "root.busy_us_per_task",
        ratio(busy("root") / 1e3, tasks),
        "us",
    );
    m.push("broker.tasks_per_cycle", tasks / cycles, "count");
    let busiest_awards = report
        .tasks_per_container()
        .values()
        .copied()
        .max()
        .unwrap_or(0);
    m.push(
        "broker.award_max_share",
        ratio(busiest_awards as f64, report.assignments.len() as f64),
        "ratio",
    );
    let fed = &report.federation;
    m.push(
        "federation.spill_share",
        ratio(fed.spilled_out as f64, tasks),
        "ratio",
    );
    m.push(
        "federation.summaries_per_cycle",
        fed.summaries_sent as f64 / cycles,
        "count",
    );
    m.push(
        "federation.injected_findings",
        fed.injected_findings as f64,
        "count",
    );
    m.push(
        "interface.alerts_per_cycle",
        report.alerts.len() as f64 / cycles,
        "count",
    );
    let latency = report.task_latency;
    m.push(
        "task.latency_ms_p50",
        latency.map_or(0.0, |l| l.p50_ms as f64),
        "ms",
    );
    m.push(
        "task.latency_ms_p95",
        latency.map_or(0.0, |l| l.p95_ms as f64),
        "ms",
    );
}

/// Re-inserts every stored point into a fresh store, one span per
/// poll cycle's worth of records, and checks nothing is lost.
fn replay_store_inserts(
    w: &Workload,
    rep: &Rep,
    spans: &mut Spans,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) {
    let store = rep.store.lock();
    let mut site_of: BTreeMap<String, String> = BTreeMap::new();
    for s in 0..w.sites {
        let site = site_name(s);
        for device in store.devices_at(&site) {
            site_of.insert(device.to_owned(), site.clone());
        }
    }
    let mut records: Vec<Record> = Vec::with_capacity(store.len());
    for part in store.partitions() {
        for (device, metric) in store.select(&LabelFilter::class(part)) {
            let site = site_of.get(&device).cloned().unwrap_or_default();
            for (ts, value) in store.range(&device, &metric, 0, u64::MAX) {
                records.push(Record::new(&device, &metric, value, ts).with_site(&site));
            }
        }
    }
    let expected = store.len();
    drop(store);
    records.sort_by(|a, b| {
        (a.timestamp_ms, &a.site, &a.device, &a.metric).cmp(&(
            b.timestamp_ms,
            &b.site,
            &b.device,
            &b.metric,
        ))
    });
    let count = records.len();
    let mut fresh = ManagementStore::new(Classifier::standard());
    let mut batch = Vec::new();
    let mut records = records.into_iter().peekable();
    while let Some(record) = records.next() {
        let ts = record.timestamp_ms;
        batch.push(record);
        if records.peek().is_none_or(|next| next.timestamp_ms != ts) {
            spans.time("store.insert", None, || {
                for r in batch.drain(..) {
                    fresh.insert(r);
                }
            });
        }
    }
    if fresh.len() != expected || count != expected {
        problems.push(format!(
            "store replay holds {} points from {count} ranged records; the store held {expected}",
            fresh.len()
        ));
    }
    m.push(
        "store.insert_ns_per_rec",
        ratio(spans.total("store.insert").0, count as f64),
        "ns",
    );
}

/// Ticks a fresh copy of the workload's network and walks every device's
/// cpu, interface and storage subtrees, as an SNMP collector polls them;
/// then round-trips each site's observations through the ACL batch
/// codec, which must reproduce them exactly.
fn replay_network(w: &Workload, spans: &mut Spans, m: &mut Metrics, problems: &mut Vec<String>) {
    let cpu_loads = Oid::from([1, 3, 6, 1, 2, 1, 25, 3, 3, 1, 2]);
    let subtrees = [cpu_loads, oids::if_table(), oids::hr_storage_table()];
    let mut network = w.network();
    let devices: Vec<(String, String)> = network
        .devices()
        .map(|d| (d.name().to_owned(), d.site().to_owned()))
        .collect();
    let mut observations = 0usize;
    for tick in 0..NET_REPLAY_TICKS {
        let now = tick * CYCLE_MS;
        spans.time("net.tick_all", None, || network.tick_all(now));
        let mut by_site: BTreeMap<&str, Vec<Observation>> = BTreeMap::new();
        for (name, site) in &devices {
            let device = network.device_mut(name).expect("device listed above");
            for prefix in &subtrees {
                let rows = spans.time("net.walk", None, || snmp::walk(device, prefix));
                let Ok(rows) = rows else { continue };
                let site_obs = by_site.entry(site).or_default();
                for (oid, value) in rows {
                    if let Some(v) = value.as_f64() {
                        site_obs.push(Observation::new(name, oid.to_string(), v, now));
                    }
                }
            }
        }
        for (site, obs) in by_site {
            observations += obs.len();
            let batch = CollectedBatch::new(format!("replay-{tick}"), "replay", site, obs);
            let decoded = spans.time("acl.batch_codec", None, || {
                CollectedBatch::from_content(&batch.to_content())
            });
            if decoded.ok().as_ref() != Some(&batch) {
                problems.push(format!("batch codec round trip changed {site}'s batch"));
            }
        }
    }
    let device_polls = (devices.len() as u64 * NET_REPLAY_TICKS) as f64;
    m.push(
        "net.tick_us_per_device",
        spans.total("net.tick_all").0 / 1e3 / device_polls,
        "us",
    );
    m.push(
        "net.walk_us_per_device",
        spans.total("net.walk").0 / 1e3 / device_polls,
        "us",
    );
    m.push(
        "acl.batch_codec_ns_per_obs",
        ratio(spans.total("acl.batch_codec").0, observations as f64),
        "ns",
    );
}
