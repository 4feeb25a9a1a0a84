//! The same agent implementations that power the deterministic grid run
//! unmodified on the work-stealing pool, with their containers executed
//! on worker threads.

use std::sync::Arc;

use agentgrid_suite::acl::ontology::{AnalysisTask, CollectedBatch, Observation, ToContent};
use agentgrid_suite::acl::{AclMessage, AgentId, Performative};
use agentgrid_suite::core::grid::{AnalyzerAgent, ClassifierAgent, InterfaceAgent, DEFAULT_RULES};
use agentgrid_suite::platform::{PoolRuntime, Runtime};
use agentgrid_suite::rules::{parse_rules, KnowledgeBase};
use agentgrid_suite::store::ManagementStore;
use parking_lot::Mutex;

/// A pool with every named container hinted onto the worker threads.
fn pool_with(containers: &[&str]) -> PoolRuntime {
    let mut pool = PoolRuntime::with_workers("rt", 2);
    for container in containers {
        pool.add_container(container);
        pool.hint_parallel(container);
    }
    pool
}

#[test]
fn classify_analyze_alert_pipeline_works_across_threads() {
    let store = Arc::new(Mutex::new(ManagementStore::default()));
    let alerts = Arc::new(Mutex::new(Vec::new()));
    let kb = KnowledgeBase::from_rules(parse_rules(DEFAULT_RULES).unwrap());

    // The classifier and analyzer share the store, but each phase below
    // runs to quiescence before the next starts, so no tick sees the
    // other's writes mid-phase.
    let mut pool = pool_with(&["clg", "pg-1", "ig"]);
    let interface_id = pool
        .spawn_agent("ig", "interface", InterfaceAgent::new(Arc::clone(&alerts)))
        .unwrap();
    let analyzer_id = pool
        .spawn_agent(
            "pg-1",
            "analyzer",
            AnalyzerAgent::new(Arc::clone(&store), kb, interface_id),
        )
        .unwrap();
    // The classifier notifies a root agent; here we point it at the
    // analyzer directly — the analyzer ignores `data-ready` content, so
    // the notification simply dead-letters nothing and proves routing.
    let classifier_id = pool
        .spawn_agent(
            "clg",
            "classifier",
            ClassifierAgent::new(Arc::clone(&store), analyzer_id.clone()),
        )
        .unwrap();

    // A hot-CPU batch arrives from a (simulated) collector.
    let batch = CollectedBatch::new(
        "b1",
        "collector-x",
        "hq",
        vec![
            Observation::new("srv-1", "cpu.load.1", 97.0, 1_000),
            Observation::new("srv-2", "cpu.load.1", 12.0, 1_000),
        ],
    );
    let inform = AclMessage::builder(Performative::Inform)
        .sender(AgentId::new("collector-x@rt"))
        .receiver(classifier_id)
        .content(batch.to_content())
        .build()
        .unwrap();
    pool.post(inform);
    pool.run_until_idle(0);

    // The classifier stored both observations (visible cross-thread).
    assert_eq!(store.lock().len(), 2);

    // Now hand the analyzer a task directly, as the root would.
    let task = AnalysisTask::new("t1", "cpu", "cpu", 1, 2);
    let request = AclMessage::builder(Performative::Request)
        .sender(AgentId::new("pg-root@rt"))
        .receiver(analyzer_id)
        .reply_with("task-t1")
        .content(task.to_content())
        .build()
        .unwrap();
    pool.post(request);
    pool.run_until_idle(0);

    let alerts = alerts.lock();
    assert_eq!(alerts.len(), 1, "only srv-1 is hot");
    assert_eq!(alerts[0].rule, "high-cpu");
    assert_eq!(alerts[0].device, "srv-1");
    // batch→classifier, data-ready→analyzer (ignored), task→analyzer,
    // alert→interface all delivered; the done-reply to the absent root
    // dead-letters.
    assert!(pool.delivered_count() >= 4);
    assert_eq!(pool.dead_letter_count(), 1);
}

/// A message to an unknown agent must dead-letter exactly once — a
/// per-receiver clone plus a full receiver-list scan in the container
/// would deliver (and dead-letter) multicasts more than once.
#[test]
fn unknown_receiver_dead_letters_exactly_once() {
    use agentgrid_suite::platform::{Agent, AgentCtx};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Sink {
        hits: Arc<AtomicUsize>,
    }
    impl Agent for Sink {
        fn on_message(&mut self, _msg: &AclMessage, _ctx: &mut AgentCtx<'_>) {
            self.hits.fetch_add(1, Ordering::SeqCst);
        }
    }

    let hits = Arc::new(AtomicUsize::new(0));
    let mut pool = pool_with(&["a"]);
    // Two residents of ONE container: the regression case.
    let s1 = pool
        .spawn_agent(
            "a",
            "s1",
            Sink {
                hits: Arc::clone(&hits),
            },
        )
        .unwrap();
    let s2 = pool
        .spawn_agent(
            "a",
            "s2",
            Sink {
                hits: Arc::clone(&hits),
            },
        )
        .unwrap();

    let multicast = AclMessage::builder(Performative::Inform)
        .sender(AgentId::new("driver"))
        .receiver(s1)
        .receiver(s2)
        .receiver(AgentId::new("ghost@rt"))
        .build()
        .unwrap();
    pool.post(multicast);
    pool.run_until_idle(0);

    assert_eq!(
        hits.load(Ordering::SeqCst),
        2,
        "each live receiver hears the multicast exactly once"
    );
    assert_eq!(pool.delivered_count(), 2);
    let dead = pool.platform().dead_letters();
    assert_eq!(
        dead.len(),
        1,
        "the unknown receiver dead-letters exactly once"
    );
    assert_eq!(dead[0].receivers().len(), 3);
}
