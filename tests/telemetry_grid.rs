//! Integration tests for the telemetry subsystem on the live grid:
//! conversation tracing across the four grid stages, metrics export,
//! and telemetry-driven ("live") resource profiles.

use agentgrid_suite::net::{Device, DeviceKind, FaultKind, Network, ScheduledFault};
use agentgrid_suite::platform::{Runtime, Telemetry};
use agentgrid_suite::telemetry::measured_load;
use agentgrid_suite::ManagementGrid;

const ALL_SKILLS: [&str; 8] = [
    "cpu",
    "memory",
    "disk",
    "interface",
    "process",
    "system",
    "other",
    "correlation",
];

fn small_network() -> Network {
    let mut net = Network::new();
    for i in 0..3 {
        net.add_device(
            Device::builder(format!("srv-{i}"), DeviceKind::Server)
                .site("hq")
                .seed(i)
                .build(),
        );
    }
    net
}

/// On the work-stealing pool, where collectors tick on worker threads,
/// a collector's poll must be traceable hop by hop through the whole
/// pipeline: the batch lands on the classifier,
/// the classifier notifies the root, the root brokers to an analyzer,
/// and the analyzer reports to the interface — all within one
/// conversation, linked by parent spans.
#[test]
fn pool_grid_trace_covers_collector_to_interface() {
    let telemetry = Telemetry::new();
    let mut grid = ManagementGrid::builder()
        .network(small_network())
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        // A fault makes the analyzer raise an alert, completing the
        // pipeline's last hop into the interface grid.
        .fault(ScheduledFault::from("srv-0", FaultKind::CpuRunaway, 60_000))
        .telemetry(telemetry.clone())
        .build_pool();
    grid.run(6 * 60_000, 60_000);

    let tracer = telemetry.tracer();
    let full_pipeline = tracer.conversations().into_iter().find(|conversation| {
        let spans = tracer.conversation_spans(conversation);
        let hit = |agent: &str| spans.iter().any(|s| s.receiver.starts_with(agent));
        hit("classifier@") && hit("pg-root@") && hit("analyzer-pg-1@") && hit("interface@")
    });
    let Some(conversation) = full_pipeline else {
        panic!(
            "no conversation covers all four hops; conversations: {:?}",
            tracer.conversations().len()
        );
    };

    // The hops must be causally chained, not merely co-grouped: walking
    // parents from the interface hop must pass through the analyzer,
    // root and classifier hops back to the parentless collector batch.
    let spans = tracer.conversation_spans(&conversation);
    let span_of = |agent: &str| {
        spans
            .iter()
            .find(|s| s.receiver.starts_with(agent))
            .unwrap_or_else(|| panic!("no span to {agent}"))
    };
    let mut chain = Vec::new();
    let mut current = Some(span_of("interface@").id);
    while let Some(id) = current {
        let span = spans
            .iter()
            .find(|s| s.id == id)
            .expect("parent in conversation");
        chain.push(span.receiver.clone());
        current = span.parent;
    }
    assert!(
        chain.len() >= 4,
        "interface hop must chain back through analyzer, root and classifier: {chain:?}"
    );
    assert!(chain[1].starts_with("analyzer-pg-1@"), "{chain:?}");
    assert!(
        chain[chain.len() - 1].starts_with("classifier@"),
        "{chain:?}"
    );

    // Delivery metadata is filled in along the way.
    let classifier_hop = span_of("classifier@");
    assert_eq!(classifier_hop.container.as_deref(), Some("clg"));
    assert!(classifier_hop.delivered_ms.is_some());
    assert!(classifier_hop.handled_ms.is_some());

    // The rendered tree shows the same chain, indented.
    let tree = telemetry.tracer().render_tree(&conversation);
    assert!(tree.contains("classifier@"), "{tree}");
    assert!(tree.contains("interface@"), "{tree}");
}

/// The deterministic grid exports non-zero traffic for every stage in
/// both formats.
#[test]
fn grid_exports_nonzero_counters_for_every_stage() {
    let telemetry = Telemetry::new();
    let mut grid = ManagementGrid::builder()
        .network(small_network())
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .fault(ScheduledFault::from("srv-0", FaultKind::CpuRunaway, 60_000))
        .telemetry(telemetry.clone())
        .build();
    grid.run(6 * 60_000, 60_000);

    let snapshot = telemetry.snapshot();
    for stage in ["collector", "classifier", "root", "analyzer", "interface"] {
        let count = snapshot
            .counter("agentgrid_stage_messages_total", &[("stage", stage)])
            .unwrap_or(0);
        assert!(count > 0, "stage `{stage}` recorded no traffic");
    }
    assert!(telemetry.delivered_total() > 0);
    assert_eq!(telemetry.dead_letter_total(), 0);

    let prom = telemetry.prometheus();
    assert!(prom.contains("agentgrid_stage_messages_total{stage=\"collector\"}"));
    assert!(prom.contains("agentgrid_delivery_latency_ms_bucket"));
    let json = telemetry.json();
    assert!(json.contains("\"agentgrid_stage_messages_total\""));
    assert!(json.contains("\"stage\":\"analyzer\""));

    // Broker outcomes ride along with the runtime counters.
    let assigned = snapshot
        .counter("agentgrid_broker_tasks_total", &[("outcome", "assigned")])
        .unwrap_or(0);
    assert!(assigned > 0, "root brokered nothing");
}

/// The recovery layer's metric families — retry counters, the
/// re-brokered counter and the per-container liveness gauges — must
/// track the run's recovery statistics exactly, and survive the
/// Prometheus text export (including label-value escaping).
#[test]
fn recovery_metrics_track_chaos_and_export_cleanly() {
    use agentgrid_suite::core::chaos::ChaosPlan;
    use agentgrid_suite::core::recovery::RecoveryConfig;

    let telemetry = Telemetry::new();
    let plan = ChaosPlan::new()
        .crash_at(2 * 60_000, "pg-1")
        .restart_at(7 * 60_000, "pg-1");
    let mut grid = ManagementGrid::builder()
        .network(small_network())
        .analyzer("pg-1", 4.0, ALL_SKILLS)
        .analyzer("pg-2", 1.0, ALL_SKILLS)
        .recovery(RecoveryConfig::seeded(5))
        .chaos(plan)
        .telemetry(telemetry.clone())
        .build();
    let report = grid.run(15 * 60_000, 60_000);
    assert!(
        !report.rebrokered.is_empty(),
        "the crash must force re-brokering for the metrics to witness"
    );

    let snapshot = telemetry.snapshot();
    // Counters mirror the report's recovery statistics one-to-one.
    assert_eq!(
        snapshot.counter("agentgrid_retries_total", &[("component", "broker")]),
        Some(report.retries),
        "broker retry counter must match the run's retry count"
    );
    assert_eq!(
        snapshot.counter("agentgrid_rebrokered_tasks_total", &[]),
        Some(report.rebrokered.len() as u64),
    );
    // Collector retries ride the same family under their own label, so
    // the two components never collide.
    let collector_retries = snapshot
        .counter("agentgrid_retries_total", &[("component", "collector")])
        .unwrap_or(0);
    assert!(collector_retries <= report.retries + collector_retries);
    // Liveness gauges exist for both containers with a valid encoding;
    // by the end of the run both are back to alive (0).
    for container in ["pg-1", "pg-2"] {
        let v = snapshot
            .gauge("agentgrid_container_liveness", &[("container", container)])
            .unwrap_or_else(|| panic!("no liveness gauge for {container}"));
        assert!((0..=2).contains(&v), "{container} gauge out of range: {v}");
        assert_eq!(v, 0, "{container} must be alive again at the horizon");
    }

    // The families render in Prometheus text format…
    let prom = telemetry.prometheus();
    assert!(prom.contains("agentgrid_retries_total{component=\"broker\"}"));
    assert!(prom.contains("agentgrid_rebrokered_tasks_total"));
    assert!(prom.contains("agentgrid_container_liveness{container=\"pg-1\"}"));
    // …and a hostile container name is escaped per the text-format spec
    // (backslash, double quote, newline).
    telemetry
        .registry()
        .gauge(
            "agentgrid_container_liveness",
            &[("container", "pg\\3 \"ha\"\nx")],
        )
        .set(2);
    let prom = telemetry.prometheus();
    assert!(
        prom.contains("agentgrid_container_liveness{container=\"pg\\\\3 \\\"ha\\\"\\nx\"} 2"),
        "escaped liveness gauge missing from: {prom}"
    );
}

/// Attaching a telemetry sink (live profiles off) must not perturb the
/// deterministic grid: the runs are byte-for-byte identical.
#[test]
fn telemetry_attachment_preserves_determinism() {
    let run = |with_telemetry: bool| {
        let mut builder = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS);
        if with_telemetry {
            builder = builder.telemetry(Telemetry::new());
        }
        let mut grid = builder.build();
        grid.run(6 * 60_000, 60_000)
    };
    let bare = run(false);
    let observed = run(true);
    assert_eq!(bare.records_stored, observed.records_stored);
    assert_eq!(bare.assignments, observed.assignments);
    assert_eq!(bare.messages_delivered, observed.messages_delivered);
    assert_eq!(bare.alerts.len(), observed.alerts.len());
}

/// With live profiles on, the directory's load figures are the measured
/// ones — [`measured_load`] over each container's telemetry — so
/// `KnowledgeCapacityIdle` ranks by observed idleness, and the pipeline
/// still completes all its work.
#[test]
fn live_profiles_feed_measured_load_into_the_directory() {
    let telemetry = Telemetry::new();
    let mut grid = ManagementGrid::builder()
        .network(small_network())
        .analyzer("pg-1", 1.0, ALL_SKILLS)
        .telemetry(telemetry.clone())
        .live_profiles(true)
        .build();
    let tick_ms = 60_000u64;
    let report = grid.run(tick_ms, tick_ms); // exactly one tick

    // After a single tick the refresh window started from zero, so the
    // directory load must equal measured_load over the cumulative stats.
    let window_ns = tick_ms * 1_000_000;
    let stats: Vec<_> = telemetry
        .container_stats()
        .into_iter()
        .filter(|s| s.container.starts_with("pg-1"))
        .collect();
    assert_eq!(stats.len(), 1);
    let expected = measured_load(stats[0].mailbox_depth, stats[0].busy_ns, window_ns);
    let actual = grid.platform_mut().with_df(|df| {
        df.container_profile("pg-1")
            .expect("analyzer registered")
            .load
    });
    assert!(
        (actual - expected).abs() < 1e-9,
        "directory load {actual} must be the measured value {expected}"
    );

    // Brokering keeps working off measured profiles.
    let report2 = grid.run(5 * 60_000, tick_ms);
    assert!(report.records_stored <= report2.records_stored);
    assert!(!report2.assignments.is_empty());
    assert_eq!(report2.unassigned, 0);
    assert_eq!(report2.tasks_completed, report2.assignments.len() as u64);
}
