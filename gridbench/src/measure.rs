//! One repetition of a workload, the end-to-end metrics over several
//! repetitions, and the correctness checks every run applies.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use agentgrid::grid::ManagementGrid;
use agentgrid::GridReport;
use agentgrid_net::FaultKind;
use agentgrid_platform::{Platform, PoolRuntime, Runtime, TelemetryHandle};
use agentgrid_store::ManagementStore;

use crate::alloc;
use crate::output::Metrics;
use crate::stats::{median, process_cpu_s, ratio};
use crate::workload::{Kind, Workload, CYCLE_MS};

/// Store handle as the grid hands it out.
pub type SharedStore = Arc<parking_lot::Mutex<ManagementStore>>;

/// Repetitions a run makes at least, however short `--seconds` is, so
/// every reported median covers more than one fresh grid.
pub const MIN_REPS: usize = 3;

/// What one fresh grid, driven through warm-up, the timed window and
/// the drain, leaves behind.
pub struct Rep {
    pub timing: Timing,
    /// Report after the last (drain) cycle.
    pub report: GridReport,
    /// Shard 0's store after the last cycle.
    pub store: SharedStore,
}

/// The measurements of one repetition.
pub struct Timing {
    /// Network generation, grid build and warm-up cycles.
    pub setup_s: f64,
    /// Wall time of every cycle: warm-up, timed window, drain.
    pub cycle_ms: Vec<f64>,
    /// Process CPU seconds over the timed window.
    pub timed_cpu_s: f64,
    /// Scenario records stored during the timed window.
    pub timed_records: u64,
    /// Rule-engine match attempts during the timed window.
    pub timed_match_attempts: u64,
    /// Peak live heap over the repetition, above what was live before
    /// it started.
    pub peak_heap_bytes: usize,
}

impl Timing {
    pub fn timed_cycle_ms(&self, w: &Workload) -> &[f64] {
        &self.cycle_ms[w.warmup_cycles as usize..w.cycles() as usize]
    }

    pub fn records_per_s(&self, w: &Workload) -> f64 {
        let wall_s: f64 = self.timed_cycle_ms(w).iter().sum::<f64>() / 1e3;
        ratio(self.timed_records as f64, wall_s)
    }

    pub fn cpu_ms_per_krec(&self) -> f64 {
        ratio(self.timed_cpu_s * 1e3, self.timed_records as f64 / 1e3)
    }
}

/// Records that came from the managed network (federated stores also
/// hold peer findings injected by cross-domain summaries).
fn scenario_records(report: &GridReport) -> u64 {
    report.records_stored as u64 - report.federation.injected_findings
}

/// Builds a fresh grid for `w` on its runtime and drives it one poll
/// cycle per call through warm-up, the timed window and the untimed
/// drain cycles.
pub fn run_rep(w: &Workload, telemetry: Option<TelemetryHandle>) -> Result<Rep, String> {
    match w.kind {
        Kind::Federated => run_on::<PoolRuntime>(w, telemetry),
        Kind::Fleet | Kind::History => run_on::<Platform>(w, telemetry),
    }
}

fn run_on<R: Runtime>(w: &Workload, telemetry: Option<TelemetryHandle>) -> Result<Rep, String> {
    // Heap the caller already holds (earlier repetitions' reports) is
    // not the grid's.
    let heap_before = alloc::reset_peak();
    let start = Instant::now();
    let mut grid: ManagementGrid<R> = w.builder(telemetry).build_on::<R>();
    let mut cycle_ms = Vec::with_capacity(w.cycles() as usize);
    let mut records_before = 0;
    for _ in 0..w.warmup_cycles {
        let t = Instant::now();
        let report = grid.run(CYCLE_MS, CYCLE_MS);
        cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        records_before = scenario_records(&report);
    }
    let setup_s = start.elapsed().as_secs_f64();
    let attempts_before = grid.match_attempts();
    let cpu_before = process_cpu_s()?;
    // One report is held at a time, so the peak heap is the grid's plus
    // the report a caller of `run` receives, not a backlog of reports.
    let mut last = None;
    for _ in 0..w.timed_cycles {
        drop(last.take());
        let t = Instant::now();
        let report = grid.run(CYCLE_MS, CYCLE_MS);
        cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(report);
    }
    let timed_cpu_s = process_cpu_s()? - cpu_before;
    let mut report = last.ok_or("workload has no timed cycles")?;
    let timed_records = scenario_records(&report) - records_before;
    for _ in 0..w.drain_cycles {
        drop(report);
        let t = Instant::now();
        report = grid.run(CYCLE_MS, CYCLE_MS);
        cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Rep {
        timing: Timing {
            setup_s,
            cycle_ms,
            timed_cpu_s,
            timed_records,
            timed_match_attempts: grid.match_attempts() - attempts_before,
            peak_heap_bytes: alloc::peak_bytes() - heap_before,
        },
        store: grid.store(),
        report,
    })
}

/// Conservation checks every repetition must pass: no task lost, none
/// unaccounted. Returns the failed-task count and the problems found.
pub fn check_conservation(report: &GridReport) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let lost = report.lost_tasks();
    if !lost.is_empty() {
        problems.push(format!("{} lost tasks, e.g. {}", lost.len(), lost[0]));
    }
    let unaccounted = report.unaccounted_tasks();
    if unaccounted != 0 {
        problems.push(format!("{unaccounted} unaccounted tasks"));
    }
    (lost.len() as u64 + unaccounted.unsigned_abs(), problems)
}

/// Outcome identity between two runs of the same inputs: alerts,
/// completion order and award log must match exactly.
pub fn check_same_outcome(what: &str, a: &GridReport, b: &GridReport) -> Vec<String> {
    let mut problems = Vec::new();
    if a.alerts != b.alerts {
        problems.push(format!("{what}: alerts differ"));
    }
    if a.completed_ids != b.completed_ids {
        problems.push(format!("{what}: completed task ids differ"));
    }
    if a.assignments != b.assignments {
        problems.push(format!("{what}: task assignments differ"));
    }
    problems
}

/// Default rules that report each fault kind.
fn matching_rules(kind: FaultKind) -> &'static [&'static str] {
    match kind {
        FaultKind::CpuRunaway => &["high-cpu"],
        FaultKind::LinkDown(_) => &["link-down"],
        FaultKind::DiskFilling => &["disk-pressure", "disk-filling-fast"],
        FaultKind::MemoryLeak => &["memory-pressure"],
        FaultKind::Unreachable => &["device-unreachable"],
        _ => &[],
    }
}

/// Seconds of simulated time from each scheduled fault's onset to the
/// first matching default-rule alert on the faulted device; `None` for
/// a fault that went undetected before the horizon.
pub fn detection_lags_s(w: &Workload, report: &GridReport) -> Vec<Option<f64>> {
    w.faults
        .iter()
        .map(|fault| {
            let rules = matching_rules(fault.fault);
            report
                .alerts
                .iter()
                .filter(|a| {
                    a.device == fault.device
                        && a.timestamp_ms >= fault.start_ms
                        && rules.contains(&a.rule.as_str())
                })
                .map(|a| a.timestamp_ms)
                .min()
                .map(|ts| (ts - fault.start_ms) as f64 / 1e3)
        })
        .collect()
}

/// Alerts emitted per distinct (rule, device, cycle) triple.
pub fn alert_dup_ratio(report: &GridReport) -> f64 {
    let distinct: BTreeSet<(&str, &str, u64)> = report
        .alerts
        .iter()
        .map(|a| {
            (
                a.rule.as_str(),
                a.device.as_str(),
                a.timestamp_ms / CYCLE_MS,
            )
        })
        .collect();
    ratio(report.alerts.len() as f64, distinct.len() as f64)
}

/// Whether another repetition fits in the budget, judging by the mean
/// length of the `done` ones so far; the first `min` always run.
pub fn another_fits(started: Instant, done: usize, min: usize, budget: Duration) -> bool {
    if done < min {
        return true;
    }
    let elapsed = started.elapsed();
    elapsed + elapsed / done as u32 <= budget
}

/// Result of a run: checks, task counts and metrics.
pub struct Outcome {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Median over repetitions of each timed cycle's wall time, cycle by
/// cycle: a burst of host interference in one repetition does not move
/// it.
fn median_cycles_ms(w: &Workload, reps: &[Timing]) -> Vec<f64> {
    (0..w.timed_cycles as usize)
        .map(|i| {
            median(
                &reps
                    .iter()
                    .map(|r| r.timed_cycle_ms(w)[i])
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Runs fresh repetitions while the budget lasts (at least
/// [`MIN_REPS`]). Throughput divides the timed window's records by its
/// cycle-by-cycle median wall time; the cycle-time median pools every
/// timed cycle of every repetition; CPU cost, set-up time and peak heap
/// are medians over repetitions. The outcome metrics are deterministic
/// per seed; they come from the first repetition, which every later one
/// must reproduce exactly.
pub fn run(w: &Workload, budget: Duration) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut reps: Vec<Timing> = Vec::new();
    let mut first: Option<GridReport> = None;
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while another_fits(started, reps.len(), MIN_REPS, budget) {
        let Rep { timing, report, .. } = run_rep(w, None)?;
        let (lost, conservation) = check_conservation(&report);
        attempted += report.tasks_created;
        failed += lost;
        problems.extend(conservation);
        eprintln!(
            "gridbench: repetition {}: setup {:.3} s, {:.0} records/s, {:.1} cpu ms/krec, \
             {:.2} MiB peak heap",
            reps.len() + 1,
            timing.setup_s,
            timing.records_per_s(w),
            timing.cpu_ms_per_krec(),
            timing.peak_heap_bytes as f64 / (1024.0 * 1024.0),
        );
        reps.push(timing);
        match &first {
            Some(f) => problems.extend(check_same_outcome("repeated run", f, &report)),
            None => first = Some(report),
        }
    }
    let report = first.expect("at least one repetition ran");
    let per_rep = |f: &dyn Fn(&Timing) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let window_ms: f64 = median_cycles_ms(w, &reps).iter().sum();
    let pooled: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.timed_cycle_ms(w))
        .copied()
        .collect();
    let lags = detection_lags_s(w, &report);
    let detected: Vec<f64> = lags.iter().flatten().copied().collect();
    for (fault, lag) in w.faults.iter().zip(&lags) {
        let lag = lag.map_or("undetected".to_owned(), |s| format!("detected after {s} s"));
        eprintln!(
            "gridbench: fault {} on {} at {} ms: {lag}",
            fault.fault, fault.device, fault.start_ms
        );
    }

    let mut m = Metrics::default();
    m.push(
        "records_per_s",
        ratio(reps[0].timed_records as f64, window_ms / 1e3),
        "1/s",
    );
    m.push("cycle_ms_p50", median(&pooled), "ms");
    m.push("cpu_ms_per_krec", per_rep(&|r| r.cpu_ms_per_krec()), "ms");
    m.push("setup_s", per_rep(&|r| r.setup_s), "s");
    m.push(
        "peak_heap_mb",
        per_rep(&|r| r.peak_heap_bytes as f64 / (1024.0 * 1024.0)),
        "MiB",
    );
    m.push(
        "fault_recall",
        ratio(detected.len() as f64, lags.len() as f64),
        "ratio",
    );
    m.push("detect_lag_s_p50", median(&detected), "s");
    m.push(
        "task_success",
        ratio(report.tasks_completed as f64, report.tasks_created as f64),
        "ratio",
    );
    m.push("alert_dup_ratio", alert_dup_ratio(&report), "ratio");
    eprintln!(
        "gridbench: {} seed {}: {} repetitions x {} timed cycles ({} cycle samples), \
         {} of {} faults detected",
        w.kind.name(),
        w.seed,
        reps.len(),
        w.timed_cycles,
        pooled.len(),
        detected.len(),
        lags.len(),
    );
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics: m,
    })
}
