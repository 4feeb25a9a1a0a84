use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use agentgrid_acl::ontology::{Alert, ResourceProfile};
use agentgrid_acl::{AclMessage, AgentId, Performative, Value};
use agentgrid_net::{FaultInjector, Network, ScheduledFault};
use agentgrid_platform::{
    NetCommand, NetStats, Platform, PoolRuntime, ReliabilityConfig, Runtime, TelemetryHandle,
    TransportFault,
};
use agentgrid_rules::{parse_rules, KnowledgeBase};
use agentgrid_store::{Classifier, ManagementStore, StoreBackend};
use agentgrid_telemetry::{measured_load, EventKind, TaskLatencySummary};
use parking_lot::Mutex;

use crate::balance::{KnowledgeCapacityIdle, LoadBalancer};
use crate::chaos::{ChaosAction, ChaosPlan};
use crate::federation::{self, FederationStats};
use crate::grid::interface::AlertSink;
use crate::grid::root::{FederationLink, RootStats};
use crate::grid::{
    AnalyzerAgent, ClassifierAgent, CollectorAgent, CollectorInterface, InterfaceAgent,
    ProcessorRootAgent, DEFAULT_RULES,
};
use crate::overload::{OverloadConfig, PressureSignal};
use crate::recovery::RecoveryConfig;

pub use agentgrid_platform::OverloadStats;

/// Container hosting the processor-grid root.
const ROOT_CONTAINER: &str = "pg-root-ct";

/// Name of the agent platform a grid builds on. Agent ids are a pure
/// function of local name and platform name, so the sharded wiring can
/// compute every peer root's id before any root is spawned.
const PLATFORM_NAME: &str = "grid";

/// How long a healed container stays quarantined (Suspect) after its
/// partition closes — one poll period, covering the heartbeat and
/// retransmissions it owes before awards may trust it again.
const QUARANTINE_GRACE_MS: u64 = 60_000;

/// Containers listed in `groups` that sit in a different group than
/// `anchor` — the set a partition cuts off from it. Empty when `anchor`
/// is not listed, matching the transport's partition semantics
/// (unlisted containers communicate freely).
fn containers_cut_from(anchor: &str, groups: &[Vec<String>]) -> Vec<String> {
    let Some(anchor_group) = groups.iter().position(|g| g.iter().any(|c| c == anchor)) else {
        return Vec::new();
    };
    groups
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != anchor_group)
        .flat_map(|(_, g)| g.iter().cloned())
        .collect()
}

/// Configuration of one analyzer container.
#[derive(Debug, Clone)]
struct AnalyzerSpec {
    name: String,
    cpu_capacity: f64,
    skills: Vec<String>,
}

/// Builder for [`ManagementGrid`] (see [`ManagementGrid::builder`]).
pub struct GridBuilder {
    network: Network,
    poll_period_ms: u64,
    collectors_per_site: usize,
    analyzers: Vec<AnalyzerSpec>,
    policy: Box<dyn LoadBalancer>,
    rules: String,
    faults: FaultInjector,
    telemetry: Option<TelemetryHandle>,
    live_profiles: bool,
    recovery: Option<RecoveryConfig>,
    chaos: Option<ChaosPlan>,
    overload: Option<OverloadConfig>,
    store_backend: StoreBackend,
    net_seed: Option<u64>,
    reliability: Option<ReliabilityConfig>,
    shards: usize,
}

impl fmt::Debug for GridBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GridBuilder")
            .field("poll_period_ms", &self.poll_period_ms)
            .field("collectors_per_site", &self.collectors_per_site)
            .field("analyzers", &self.analyzers.len())
            .finish()
    }
}

impl GridBuilder {
    /// Sets the simulated network to manage (required).
    pub fn network(mut self, network: Network) -> Self {
        self.network = network;
        self
    }

    /// Sets the collectors' poll period in simulated milliseconds
    /// (default 60 000).
    pub fn poll_period_ms(mut self, period: u64) -> Self {
        self.poll_period_ms = period;
        self
    }

    /// Sets how many collector agents each site gets (default 1). They
    /// split the site's devices and alternate SNMP/CLI interfaces.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn collectors_per_site(mut self, collectors: usize) -> Self {
        assert!(collectors > 0, "need at least one collector per site");
        self.collectors_per_site = collectors;
        self
    }

    /// Adds an analyzer container with a CPU capacity factor and the
    /// analysis skills (partitions) it can process.
    pub fn analyzer(
        mut self,
        name: impl Into<String>,
        cpu_capacity: f64,
        skills: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        self.analyzers.push(AnalyzerSpec {
            name: name.into(),
            cpu_capacity,
            skills: skills.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Replaces the load-balancing policy (default
    /// [`KnowledgeCapacityIdle`]).
    pub fn policy(mut self, policy: impl LoadBalancer + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Replaces the analysis rules (default [`DEFAULT_RULES`]).
    pub fn rules(mut self, rules: impl Into<String>) -> Self {
        self.rules = rules.into();
        self
    }

    /// Schedules a fault on the managed network.
    pub fn fault(mut self, fault: ScheduledFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Attaches a telemetry sink: the runtime records per-container
    /// metrics and conversation traces into it, the root exports broker
    /// counters, and each container is mapped onto its grid stage
    /// (collector, classifier, root, analyzer, interface).
    pub fn telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Turns on the recovery layer (heartbeat liveness, deadline
    /// retries with seeded backoff, reclaim-and-re-broker of dead
    /// containers' tasks, requeue-once dead letters). Default off,
    /// keeping unconfigured runs byte-for-byte identical to the
    /// pre-recovery grid.
    pub fn recovery(mut self, config: RecoveryConfig) -> Self {
        self.recovery = Some(config);
        self
    }

    /// Attaches a chaos schedule: container crashes/restarts and
    /// transport-fault windows applied at the top of each tick. Implies
    /// [`recovery`](Self::recovery) with defaults unless one was set
    /// explicitly.
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Turns on the overload-protection layer ([`OverloadConfig`]):
    /// bounded mailboxes with priority shedding, root admission
    /// control, per-container circuit breakers and collector pacing —
    /// each mechanism individually opt-in inside the config. A
    /// configured breaker implies [`recovery`](Self::recovery) defaults
    /// (its failure signal is the recovery layer's award deadlines).
    /// Default off, keeping unconfigured runs byte-for-byte identical
    /// to the unprotected grid.
    pub fn overload(mut self, config: OverloadConfig) -> Self {
        self.overload = Some(config);
        self
    }

    /// Seeds the deterministic network adversary. Link faults and
    /// partitions scheduled through [`chaos`](Self::chaos) (or issued
    /// live via [`Runtime::net_command`]) draw every drop/delay/
    /// duplicate decision from this seed, so two runs with the same
    /// seed and schedule misbehave identically. Default off — without a
    /// seed (and without net chaos actions) runs stay byte-for-byte
    /// identical to the adversary-free grid.
    pub fn net_adversary(mut self, seed: u64) -> Self {
        self.net_seed = Some(seed);
        self
    }

    /// Turns on reliable ACL delivery: per-link sequence numbers, a
    /// retransmit buffer with seeded exponential backoff, and a dedup
    /// window giving exactly-once *effective* delivery under loss,
    /// duplication and partitions. Implies nothing by itself — pair it
    /// with [`net_adversary`](Self::net_adversary) and a chaos plan to
    /// exercise it. Default off.
    pub fn reliability(mut self, config: ReliabilityConfig) -> Self {
        self.reliability = Some(config);
        self
    }

    /// Splits the grid into `n` federated peer shards (domain
    /// partitioning). Sites are dealt round-robin over the shards
    /// ([`federation::shard_of_site`]); each shard gets its own root,
    /// classifier, store, network domain and a round-robin subset of
    /// the analyzer containers — same total capacity as the unsharded
    /// grid — and the roots cooperate through the
    /// [`federation`](crate::federation) protocol: per-tick load
    /// gossip, task spill-over on admission rejection or broker
    /// failure, and cross-domain finding summaries on the correlation
    /// cadence. On the pool runtime each shard's pipeline stages tick
    /// as one parallel group, so shards run concurrently — the source
    /// of the near-linear device-count scaling.
    ///
    /// `1` (the default) keeps the single-domain wiring byte-identical
    /// to the unsharded grid.
    ///
    /// # Panics
    ///
    /// `build*` panics if fewer analyzer containers than shards were
    /// configured.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Selects the management-store engine (default
    /// [`StoreBackend::Chunked`]). The naive backend is the executable
    /// spec the chunked engine is tested against; running a grid on it
    /// (CI's store-parity smoke does) must produce byte-identical
    /// reports.
    pub fn store_backend(mut self, backend: StoreBackend) -> Self {
        self.store_backend = backend;
        self
    }

    /// Feeds **measured** load (mailbox depth + handler busy time, the
    /// paper's Fig. 4 resource profile as observed rather than declared)
    /// into the directory each tick, so [`KnowledgeCapacityIdle`] ranks
    /// containers by real idleness. Requires
    /// [`telemetry`](Self::telemetry); default off, keeping runs without
    /// a sink byte-for-byte identical to the uninstrumented grid.
    pub fn live_profiles(mut self, enabled: bool) -> Self {
        self.live_profiles = enabled;
        self
    }

    /// Builds and wires the grid on the deterministic stepper (the
    /// default runtime: reproducible runs, ideal for tests and
    /// experiments).
    ///
    /// # Panics
    ///
    /// Panics if the rule text does not parse or no analyzer container
    /// was configured.
    pub fn build(self) -> ManagementGrid {
        self.build_on::<Platform>()
    }

    /// Builds and wires the grid on the work-stealing pool runtime:
    /// collector containers (the wide, independent tier) tick on a
    /// stolen-batch thread pool while the narrow pipeline stages stay
    /// sequential. Reports are byte-identical to [`build`](Self::build)
    /// — the pool trades wall-clock time, never determinism.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_pool(self) -> ManagementGrid<PoolRuntime> {
        self.build_on::<PoolRuntime>()
    }

    /// Builds and wires the grid on any [`Runtime`]. The wiring — and
    /// all agent code — is identical across runtimes; only the execution
    /// model differs.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_on<R: Runtime>(self) -> ManagementGrid<R> {
        assert!(
            !self.analyzers.is_empty(),
            "configure at least one analyzer container"
        );
        if self.shards > 1 {
            return self.build_sharded_on::<R>();
        }
        // One compiled knowledge base, shared by every analyzer (and kept
        // for chaos restarts); analyzers copy-on-write if they learn.
        let kb = Arc::new(KnowledgeBase::from_rules(
            parse_rules(&self.rules).expect("analysis rules must parse"),
        ));
        // A chaos schedule without an explicit recovery config gets the
        // defaults — injecting failures without the means to survive
        // them is never what a caller wants. Likewise a circuit breaker
        // without recovery: its failure signal is the recovery layer's
        // award deadlines.
        let overload = self.overload.unwrap_or_default();
        let recovery = self
            .recovery
            .or_else(|| self.chaos.as_ref().map(|_| RecoveryConfig::default()))
            .or_else(|| overload.breaker.map(|_| RecoveryConfig::default()));

        let network = Arc::new(Mutex::new(self.network));
        let store = Arc::new(Mutex::new(ManagementStore::with_backend(
            self.store_backend,
            Classifier::standard(),
        )));
        let alerts: AlertSink = Arc::new(Mutex::new(Vec::new()));
        let mut platform = R::create(PLATFORM_NAME);
        if recovery.is_some() {
            platform.set_dead_letter_requeue(true);
        }
        if let Some(seed) = self.net_seed {
            platform.net_command(NetCommand::Seed(seed));
        }
        if let Some(config) = self.reliability {
            platform.net_command(NetCommand::SetReliability(config));
        }
        // Bounded mailboxes at the platform layer; the pressure signal
        // exists only when collector pacing wants to observe it.
        let pressure = overload
            .mailbox
            .filter(|_| overload.collector_pacing)
            .map(|_| Arc::new(PressureSignal::new()));
        if let Some(mailbox) = overload.mailbox {
            platform.set_overload(mailbox, pressure.clone());
        }
        let paced_polls = Arc::new(AtomicU64::new(0));
        let match_attempts = Arc::new(AtomicU64::new(0));
        if let Some(telemetry) = &self.telemetry {
            platform.set_telemetry(Arc::clone(telemetry));
            telemetry.set_stage("ig", "interface");
            telemetry.set_stage("pg-root-ct", "root");
            telemetry.set_stage("clg", "classifier");
            for spec in &self.analyzers {
                telemetry.set_stage(&spec.name, "analyzer");
            }
        }

        // Interface grid.
        platform.add_container("ig");
        let interface_id = platform
            .spawn_agent("ig", "interface", InterfaceAgent::new(Arc::clone(&alerts)))
            .expect("fresh platform");

        // Processor grid root.
        platform.add_container("pg-root-ct");
        let mut root_agent = ProcessorRootAgent::new(self.policy);
        if let Some(telemetry) = &self.telemetry {
            root_agent.attach_telemetry(telemetry);
        }
        if let Some(cfg) = recovery {
            root_agent.set_recovery(cfg, Some(interface_id.clone()));
        }
        let quarantine: Arc<Mutex<BTreeMap<String, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
        if recovery.is_some() {
            root_agent.set_quarantine(Arc::clone(&quarantine));
        }
        if overload.admission.is_some() || overload.breaker.is_some() {
            root_agent.set_overload(overload.admission, overload.breaker);
        }
        let root_stats = root_agent.stats_handle();
        let root_id = platform
            .spawn_agent("pg-root-ct", "pg-root", root_agent)
            .expect("fresh platform");

        // Analyzer containers.
        for spec in &self.analyzers {
            platform.add_container(&spec.name);
            let analyzer =
                AnalyzerAgent::shared(Arc::clone(&store), Arc::clone(&kb), interface_id.clone())
                    .with_match_counter(Arc::clone(&match_attempts));
            let analyzer_id = platform
                .spawn_agent(&spec.name, &format!("analyzer-{}", spec.name), analyzer)
                .expect("container just added");
            let mut profile = ResourceProfile::new(
                &spec.name,
                spec.cpu_capacity,
                1.0,
                4096,
                spec.skills.iter().cloned(),
            );
            profile.load = 0.0;
            platform.with_df(|df| {
                df.register_container(profile);
                df.register_service(analyzer_id, "analysis", [spec.name.clone()]);
            });
        }

        // Classifier grid.
        platform.add_container("clg");
        let classifier_id = platform
            .spawn_agent(
                "clg",
                "classifier",
                ClassifierAgent::new(Arc::clone(&store), root_id.clone()),
            )
            .expect("fresh platform");

        // Collector grid: one container per site; devices split among
        // the site's collectors, interfaces alternating SNMP/CLI.
        let sites: Vec<(String, Vec<String>)> = {
            let net = network.lock();
            net.sites()
                .map(|s| (s.name().to_owned(), s.device_names().to_vec()))
                .collect()
        };
        for (site, devices) in &sites {
            let container = format!("cg-{site}");
            if let Some(telemetry) = &self.telemetry {
                telemetry.set_stage(&container, "collector");
            }
            platform.add_container(&container);
            // Collector containers only poll devices and forward
            // samples — no cross-container state — so they are safe to
            // tick concurrently on the pool runtime. A no-op elsewhere.
            platform.hint_parallel(&container);
            for c in 0..self.collectors_per_site {
                let assigned: Vec<String> = devices
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % self.collectors_per_site == c)
                    .map(|(_, d)| d.clone())
                    .collect();
                if assigned.is_empty() {
                    continue;
                }
                let interface = if c % 2 == 0 {
                    CollectorInterface::Snmp
                } else {
                    CollectorInterface::Cli
                };
                let mut collector = CollectorAgent::new(
                    Arc::clone(&network),
                    assigned,
                    interface,
                    self.poll_period_ms,
                    classifier_id.clone(),
                    site.clone(),
                );
                if let Some(cfg) = recovery {
                    collector.set_backoff(cfg.backoff);
                    if let Some(telemetry) = &self.telemetry {
                        collector.set_retry_metric(
                            telemetry
                                .registry()
                                .counter("agentgrid_retries_total", &[("component", "collector")]),
                        );
                    }
                }
                if let Some(signal) = &pressure {
                    collector.set_pacing(Arc::clone(signal), Arc::clone(&paced_polls));
                }
                platform
                    .spawn_agent(&container, &format!("cg-{site}-{c}"), collector)
                    .expect("container just added");
            }
        }

        ManagementGrid {
            platform,
            network,
            store,
            alerts,
            injector: self.faults,
            root_stats,
            interface_id,
            ticks: 0,
            live_profiles: self.live_profiles,
            last_busy_ns: BTreeMap::new(),
            kb,
            specs: self.analyzers,
            chaos: self.chaos.unwrap_or_default(),
            chaos_cursor: 0,
            downed: BTreeSet::new(),
            quarantine,
            partition_members: BTreeMap::new(),
            paced_polls,
            match_attempts,
            shards: 1,
            peer_networks: Vec::new(),
            peer_stores: Vec::new(),
            peer_root_stats: Vec::new(),
            federation_stats: Vec::new(),
            analyzer_shard: BTreeMap::new(),
        }
    }

    /// The federated wiring behind [`shards`](Self::shards): N peer
    /// grids — each its own root, classifier, analyzer subset, store
    /// and network domain — on one platform, cooperating through the
    /// [`federation`](crate::federation) protocol. Shard membership is
    /// [`federation::shard_of_site`] over the sites in sorted name
    /// order; analyzer containers are dealt round-robin, so the
    /// federation runs on exactly the capacity the unsharded grid
    /// would — any speedup comes from shards ticking concurrently,
    /// never from extra hardware.
    fn build_sharded_on<R: Runtime>(mut self) -> ManagementGrid<R> {
        let shards = self.shards;
        assert!(
            self.analyzers.len() >= shards,
            "need at least one analyzer container per shard"
        );
        let kb = Arc::new(KnowledgeBase::from_rules(
            parse_rules(&self.rules).expect("analysis rules must parse"),
        ));
        let overload = self.overload.unwrap_or_default();
        let recovery = self
            .recovery
            .or_else(|| self.chaos.as_ref().map(|_| RecoveryConfig::default()))
            .or_else(|| overload.breaker.map(|_| RecoveryConfig::default()));

        // Partition the managed network by site; shard 0 keeps the
        // original `Network` value, peers split off their sites.
        let site_names: Vec<String> = self.network.sites().map(|s| s.name().to_owned()).collect();
        let mut shard_sites: Vec<Vec<String>> = vec![Vec::new(); shards];
        for (i, name) in site_names.iter().enumerate() {
            shard_sites[federation::shard_of_site(i, shards)].push(name.clone());
        }
        let peer_nets: Vec<Network> = (1..shards)
            .map(|s| {
                let names: Vec<&str> = shard_sites[s].iter().map(String::as_str).collect();
                self.network.split_sites(&names)
            })
            .collect();
        let mut networks: Vec<Arc<Mutex<Network>>> = Vec::with_capacity(shards);
        networks.push(Arc::new(Mutex::new(self.network)));
        networks.extend(peer_nets.into_iter().map(|n| Arc::new(Mutex::new(n))));
        let mut stores: Vec<Arc<Mutex<ManagementStore>>> = (0..shards)
            .map(|_| {
                Arc::new(Mutex::new(ManagementStore::with_backend(
                    self.store_backend,
                    Classifier::standard(),
                )))
            })
            .collect();

        let alerts: AlertSink = Arc::new(Mutex::new(Vec::new()));
        let mut platform = R::create(PLATFORM_NAME);
        if recovery.is_some() {
            platform.set_dead_letter_requeue(true);
        }
        if let Some(seed) = self.net_seed {
            platform.net_command(NetCommand::Seed(seed));
        }
        if let Some(config) = self.reliability {
            platform.net_command(NetCommand::SetReliability(config));
        }
        let pressure = overload
            .mailbox
            .filter(|_| overload.collector_pacing)
            .map(|_| Arc::new(PressureSignal::new()));
        if let Some(mailbox) = overload.mailbox {
            platform.set_overload(mailbox, pressure.clone());
        }
        let paced_polls = Arc::new(AtomicU64::new(0));
        let match_attempts = Arc::new(AtomicU64::new(0));

        // Analyzer containers dealt round-robin over the shards.
        let shard_specs: Vec<Vec<AnalyzerSpec>> = (0..shards)
            .map(|s| {
                self.analyzers
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % shards == s)
                    .map(|(_, spec)| spec.clone())
                    .collect()
            })
            .collect();

        if let Some(telemetry) = &self.telemetry {
            platform.set_telemetry(Arc::clone(telemetry));
            telemetry.set_stage("ig", "interface");
            for s in 0..shards {
                telemetry.set_stage(&format!("pg-root-s{s}"), "root");
                telemetry.set_stage(&format!("clg-s{s}"), "classifier");
            }
            for spec in &self.analyzers {
                telemetry.set_stage(&spec.name, "analyzer");
            }
        }

        // One shared interface grid: every shard's alerts and
        // escalations land in a single operator-facing place.
        platform.add_container("ig");
        let interface_id = platform
            .spawn_agent("ig", "interface", InterfaceAgent::new(Arc::clone(&alerts)))
            .expect("fresh platform");

        // Peer root ids are computable before any root spawns: agent
        // ids are a pure function of local and platform name.
        let root_ids: Vec<AgentId> = (0..shards)
            .map(|s| AgentId::with_platform(format!("pg-root-s{s}"), PLATFORM_NAME))
            .collect();

        let quarantine: Arc<Mutex<BTreeMap<String, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let mut root_stats_all = Vec::with_capacity(shards);
        let mut federation_stats = Vec::with_capacity(shards);
        let mut analyzer_shard = BTreeMap::new();

        for s in 0..shards {
            // Root, classifier and analyzers of one shard form a
            // dependent pipeline; as one named group they tick
            // internally in order but concurrently with other shards
            // on the pool runtime — the source of the sharded speedup.
            let group = format!("shard-{s}");
            let root_container = format!("pg-root-s{s}");
            platform.add_container(&root_container);
            platform.hint_parallel_group(&group, &root_container);
            let mut root_agent = ProcessorRootAgent::new(self.policy.boxed_clone());
            if let Some(telemetry) = &self.telemetry {
                root_agent.attach_telemetry(telemetry);
            }
            if let Some(cfg) = recovery {
                root_agent.set_recovery(cfg, Some(interface_id.clone()));
            }
            if recovery.is_some() {
                root_agent.set_quarantine(Arc::clone(&quarantine));
            }
            if overload.admission.is_some() || overload.breaker.is_some() {
                root_agent.set_overload(overload.admission, overload.breaker);
            }
            let fed_stats = Arc::new(Mutex::new(FederationStats::default()));
            root_agent.set_federation(FederationLink {
                shard: s,
                peers: root_ids
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| *p != s)
                    .map(|(p, id)| (p, id.clone()))
                    .collect(),
                service: federation::shard_service(s),
                store: Arc::clone(&stores[s]),
                stats: Arc::clone(&fed_stats),
            });
            root_stats_all.push(root_agent.stats_handle());
            federation_stats.push(fed_stats);
            let root_id = platform
                .spawn_agent(&root_container, &format!("pg-root-s{s}"), root_agent)
                .expect("container just added");
            debug_assert_eq!(root_id, root_ids[s], "precomputed peer ids must match");

            for spec in &shard_specs[s] {
                platform.add_container(&spec.name);
                platform.hint_parallel_group(&group, &spec.name);
                let analyzer = AnalyzerAgent::shared(
                    Arc::clone(&stores[s]),
                    Arc::clone(&kb),
                    interface_id.clone(),
                )
                .with_match_counter(Arc::clone(&match_attempts));
                let analyzer_id = platform
                    .spawn_agent(&spec.name, &format!("analyzer-{}", spec.name), analyzer)
                    .expect("container just added");
                let mut profile = ResourceProfile::new(
                    &spec.name,
                    spec.cpu_capacity,
                    1.0,
                    4096,
                    spec.skills.iter().cloned(),
                );
                profile.load = 0.0;
                platform.with_df(|df| {
                    df.register_container(profile);
                    // Both entries: the shard service scopes this
                    // root's brokering to its own tier, while the
                    // global one keeps interface-grid rule broadcasts
                    // reaching every analyzer in the federation.
                    df.register_service(analyzer_id.clone(), "analysis", [spec.name.clone()]);
                    df.register_service(
                        analyzer_id,
                        federation::shard_service(s),
                        [spec.name.clone()],
                    );
                });
                analyzer_shard.insert(spec.name.clone(), s);
            }

            let clg_container = format!("clg-s{s}");
            platform.add_container(&clg_container);
            platform.hint_parallel_group(&group, &clg_container);
            let classifier_id = platform
                .spawn_agent(
                    &clg_container,
                    &format!("classifier-s{s}"),
                    ClassifierAgent::new(Arc::clone(&stores[s]), root_ids[s].clone()),
                )
                .expect("container just added");

            // This shard's collector grid — exactly the unsharded
            // wiring, over the shard's own network domain.
            let sites: Vec<(String, Vec<String>)> = {
                let net = networks[s].lock();
                net.sites()
                    .map(|site| (site.name().to_owned(), site.device_names().to_vec()))
                    .collect()
            };
            for (site, devices) in &sites {
                let container = format!("cg-{site}");
                if let Some(telemetry) = &self.telemetry {
                    telemetry.set_stage(&container, "collector");
                }
                platform.add_container(&container);
                platform.hint_parallel(&container);
                for c in 0..self.collectors_per_site {
                    let assigned: Vec<String> = devices
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % self.collectors_per_site == c)
                        .map(|(_, d)| d.clone())
                        .collect();
                    if assigned.is_empty() {
                        continue;
                    }
                    let interface = if c % 2 == 0 {
                        CollectorInterface::Snmp
                    } else {
                        CollectorInterface::Cli
                    };
                    let mut collector = CollectorAgent::new(
                        Arc::clone(&networks[s]),
                        assigned,
                        interface,
                        self.poll_period_ms,
                        classifier_id.clone(),
                        site.clone(),
                    );
                    if let Some(cfg) = recovery {
                        collector.set_backoff(cfg.backoff);
                        if let Some(telemetry) = &self.telemetry {
                            collector.set_retry_metric(
                                telemetry.registry().counter(
                                    "agentgrid_retries_total",
                                    &[("component", "collector")],
                                ),
                            );
                        }
                    }
                    if let Some(signal) = &pressure {
                        collector.set_pacing(Arc::clone(signal), Arc::clone(&paced_polls));
                    }
                    platform
                        .spawn_agent(&container, &format!("cg-{site}-{c}"), collector)
                        .expect("container just added");
                }
            }
        }

        let network = networks.remove(0);
        let store = stores.remove(0);
        let root_stats = root_stats_all.remove(0);
        ManagementGrid {
            platform,
            network,
            store,
            alerts,
            injector: self.faults,
            root_stats,
            interface_id,
            ticks: 0,
            live_profiles: self.live_profiles,
            last_busy_ns: BTreeMap::new(),
            kb,
            specs: self.analyzers,
            chaos: self.chaos.unwrap_or_default(),
            chaos_cursor: 0,
            downed: BTreeSet::new(),
            quarantine,
            partition_members: BTreeMap::new(),
            paced_polls,
            match_attempts,
            shards,
            peer_networks: networks,
            peer_stores: stores,
            peer_root_stats: root_stats_all,
            federation_stats,
            analyzer_shard,
        }
    }
}

/// Summary of one grid run — what the interface grid would render for
/// the operator, plus internal accounting for tests and benchmarks.
#[derive(Debug, Clone)]
pub struct GridReport {
    /// Simulated duration covered.
    pub duration_ms: u64,
    /// Alerts raised, in order.
    pub alerts: Vec<Alert>,
    /// Points in the management store at the end.
    pub records_stored: usize,
    /// ACL messages delivered.
    pub messages_delivered: u64,
    /// Messages that could not be delivered.
    pub dead_letters: usize,
    /// `(task, container)` assignment log.
    pub assignments: Vec<(String, String)>,
    /// Tasks with no capable container.
    pub unassigned: u64,
    /// Tasks re-brokered after container death.
    pub reassigned: u64,
    /// Tasks completed.
    pub tasks_completed: u64,
    /// Ids of completed tasks, in completion order.
    pub completed_ids: Vec<String>,
    /// Ids of tasks re-awarded through a fresh brokering round (once per
    /// re-award; recovery mode).
    pub rebrokered: Vec<String>,
    /// Deadline-driven broker retries sent (recovery mode).
    pub retries: u64,
    /// Retry-exhaustion / container-death escalations raised (recovery
    /// mode).
    pub escalations: u64,
    /// Ids still in flight or parked at the root when the run ended —
    /// owed a completion, not lost.
    pub outstanding: Vec<String>,
    /// Messages shed by the bounded-mailbox overflow policy (overload
    /// mode; all classes combined).
    pub shed: u64,
    /// Task awards turned away by the root's admission gate (overload
    /// mode).
    pub rejected: u64,
    /// Collector polls whose interval was stretched under downstream
    /// pressure (overload mode).
    pub paced_polls: u64,
    /// End-to-end task-latency percentiles (observation → done, in
    /// simulated time), present only when telemetry is attached and at
    /// least one task span completed.
    pub task_latency: Option<TaskLatencySummary>,
    /// Network-adversary and reliability counters (drops, delays,
    /// duplicates, retransmits, dedup suppressions); `None` unless a
    /// net adversary or reliability protocol was configured.
    pub net: Option<NetStats>,
    /// Number of federated domain shards the grid ran as (1 = the
    /// classic single-domain grid).
    pub shards: usize,
    /// Tasks the roots created from `data-ready` notifications. A
    /// spilled task counts at its origin shard only, so this counts
    /// every task in the federation exactly once.
    pub tasks_created: u64,
    /// Tasks created per shard, in shard order (empty unsharded).
    pub shard_created: Vec<u64>,
    /// Federation counters summed over the shards (all zero unsharded).
    pub federation: FederationStats,
}

impl GridReport {
    /// Task ids that were assigned, never completed, and are no longer
    /// tracked anywhere — permanently lost work. A recovery-enabled grid
    /// must keep this empty under any chaos plan.
    pub fn lost_tasks(&self) -> Vec<&str> {
        let completed: BTreeSet<&str> = self.completed_ids.iter().map(String::as_str).collect();
        let outstanding: BTreeSet<&str> = self.outstanding.iter().map(String::as_str).collect();
        let mut lost = Vec::new();
        let mut seen = BTreeSet::new();
        for (id, _) in &self.assignments {
            if seen.insert(id.as_str())
                && !completed.contains(id.as_str())
                && !outstanding.contains(id.as_str())
            {
                lost.push(id.as_str());
            }
        }
        lost
    }

    /// Created minus completed minus still-outstanding, federation-wide
    /// (a task spilled mid-flight sits in two shards' outstanding sets,
    /// hence the dedup). A spilled task completed at a peer stays
    /// outstanding at its origin until the `spill-done` confirmation
    /// lands; it already counts as completed, so it is not counted
    /// again. Positive means tasks vanished, negative means something was
    /// double-counted; any conserving run reports zero.
    pub fn unaccounted_tasks(&self) -> i64 {
        let completed: BTreeSet<&str> = self.completed_ids.iter().map(String::as_str).collect();
        let outstanding: BTreeSet<&str> = self
            .outstanding
            .iter()
            .map(String::as_str)
            .filter(|id| !completed.contains(id))
            .collect();
        self.tasks_created as i64 - self.tasks_completed as i64 - outstanding.len() as i64
    }

    /// Tasks per container, for balance inspection.
    pub fn tasks_per_container(&self) -> BTreeMap<&str, usize> {
        let mut out = BTreeMap::new();
        for (_, container) in &self.assignments {
            *out.entry(container.as_str()).or_insert(0) += 1;
        }
        out
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "grid run over {} ms: {} records stored, {} messages, {} tasks \
             ({} completed, {} unassigned, {} reassigned), {} alerts\n",
            self.duration_ms,
            self.records_stored,
            self.messages_delivered,
            self.assignments.len(),
            self.tasks_completed,
            self.unassigned,
            self.reassigned,
            self.alerts.len(),
        ));
        for (container, tasks) in self.tasks_per_container() {
            out.push_str(&format!("  {container}: {tasks} tasks\n"));
        }
        if self.retries + self.escalations > 0 || !self.rebrokered.is_empty() {
            out.push_str(&format!(
                "  recovery: {} retries, {} re-brokered, {} escalations\n",
                self.retries,
                self.rebrokered.len(),
                self.escalations,
            ));
        }
        if self.shed + self.rejected + self.paced_polls > 0 {
            out.push_str(&format!(
                "  overload: {} shed, {} rejected, {} paced polls\n",
                self.shed, self.rejected, self.paced_polls,
            ));
        }
        if self.shards > 1 || self.federation.spilled_out > 0 {
            let per_shard = self
                .shard_created
                .iter()
                .enumerate()
                .map(|(s, n)| format!("s{s} {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "  shards: {} domains, created per shard: {per_shard}\n",
                self.shards,
            ));
            out.push_str(&format!(
                "  federation: {} spilled out, {} absorbed, {} confirmed, \
                 {} summaries sent, {} received, {} findings injected\n",
                self.federation.spilled_out,
                self.federation.spilled_in,
                self.federation.spill_completed,
                self.federation.summaries_sent,
                self.federation.summaries_received,
                self.federation.injected_findings,
            ));
        }
        if let Some(net) = self.net.filter(|n| n.any()) {
            out.push_str(&format!(
                "  network: {} dropped, {} partition-dropped, {} delayed, {} duplicated, \
                 {} reordered\n",
                net.dropped, net.partition_dropped, net.delayed, net.duplicated, net.reordered,
            ));
            if net.retransmits + net.delivered_after_retry + net.dup_suppressed > 0 {
                out.push_str(&format!(
                    "  reliability: {} retransmits, {} delivered after retry, \
                     {} duplicates suppressed, {} retransmit overflows\n",
                    net.retransmits,
                    net.delivered_after_retry,
                    net.dup_suppressed,
                    net.retransmit_overflow,
                ));
            }
        }
        if let Some(lat) = &self.task_latency {
            out.push_str(&format!(
                "  task latency: p50 {} ms, p95 {} ms, p99 {} ms ({} completed spans)\n",
                lat.p50_ms, lat.p95_ms, lat.p99_ms, lat.count,
            ));
        }
        out.push_str(&InterfaceAgent::render_report(&self.alerts));
        out
    }
}

impl fmt::Display for GridReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The complete live management grid (paper Fig. 2): simulated network,
/// platform, four agent grids and fault injection, behind one facade.
///
/// # Examples
///
/// ```
/// use agentgrid::grid::ManagementGrid;
/// use agentgrid_net::{Device, DeviceKind, Network};
///
/// let mut network = Network::new();
/// network.add_device(Device::builder("srv-1", DeviceKind::Server).site("hq").seed(1).build());
///
/// let mut grid = ManagementGrid::builder()
///     .network(network)
///     .analyzer("pg-1", 1.0, ["cpu", "disk", "memory", "interface", "process", "system", "other", "correlation"])
///     .build();
/// let report = grid.run(5 * 60_000, 60_000);
/// assert!(report.records_stored > 0);
/// ```
pub struct ManagementGrid<R: Runtime = Platform> {
    platform: R,
    network: Arc<Mutex<Network>>,
    store: Arc<Mutex<ManagementStore>>,
    alerts: AlertSink,
    injector: FaultInjector,
    root_stats: Arc<Mutex<RootStats>>,
    interface_id: AgentId,
    ticks: u64,
    live_profiles: bool,
    /// Busy-ns counter values at the previous tick, for windowed deltas.
    last_busy_ns: BTreeMap<String, u64>,
    /// Knowledge base shared by every analyzer, including restarted ones.
    kb: Arc<KnowledgeBase>,
    /// Analyzer container specs, kept for chaos restarts.
    specs: Vec<AnalyzerSpec>,
    /// Scheduled chaos events, sorted by due time.
    chaos: ChaosPlan,
    /// First not-yet-applied chaos event.
    chaos_cursor: usize,
    /// Containers currently down because a chaos crash removed them (a
    /// restart only makes sense for these).
    downed: BTreeSet<String>,
    /// Partition quarantine shared with the root (container →
    /// quarantined-until, simulated ms): while quarantined a container
    /// is Suspect, never Dead — see
    /// [`ProcessorRootAgent::set_quarantine`].
    quarantine: Arc<Mutex<BTreeMap<String, u64>>>,
    /// Members of each open named partition that are cut off from the
    /// root's container, kept so the matching heal can start their
    /// quarantine grace period.
    partition_members: BTreeMap<String, Vec<String>>,
    /// Stretched-poll counter shared with every pacing collector.
    paced_polls: Arc<AtomicU64>,
    /// Rule-engine match attempts, totalled across every analyzer
    /// (including restarted ones) — the Table 1 inference-cost proxy.
    match_attempts: Arc<AtomicU64>,
    /// Number of federated shards (1 = classic single-domain grid).
    shards: usize,
    /// Peer shards' network domains (shards 1..; shard 0 is `network`).
    peer_networks: Vec<Arc<Mutex<Network>>>,
    /// Peer shards' stores (shards 1..; shard 0 is `store`).
    peer_stores: Vec<Arc<Mutex<ManagementStore>>>,
    /// Peer shards' root stats (shards 1..; shard 0 is `root_stats`).
    peer_root_stats: Vec<Arc<Mutex<RootStats>>>,
    /// Per-shard federation counters, all shards (empty unsharded).
    federation_stats: Vec<Arc<Mutex<FederationStats>>>,
    /// Which shard each analyzer container belongs to (sharded mode),
    /// so a chaos restart rebuilds it against the right store and
    /// re-registers its shard-scoped directory service.
    analyzer_shard: BTreeMap<String, usize>,
}

impl<R: Runtime> fmt::Debug for ManagementGrid<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManagementGrid")
            .field("containers", &self.platform.container_count())
            .field("ticks", &self.ticks)
            .finish()
    }
}

impl ManagementGrid {
    /// Starts building a grid with defaults: 60 s polls, one collector
    /// per site, [`KnowledgeCapacityIdle`] balancing, [`DEFAULT_RULES`].
    /// Finish with [`GridBuilder::build`] (deterministic),
    /// [`GridBuilder::build_pool`] or [`GridBuilder::build_on`].
    pub fn builder() -> GridBuilder {
        GridBuilder {
            network: Network::new(),
            poll_period_ms: 60_000,
            collectors_per_site: 1,
            analyzers: Vec::new(),
            policy: Box::new(KnowledgeCapacityIdle),
            rules: DEFAULT_RULES.to_owned(),
            faults: FaultInjector::default(),
            telemetry: None,
            live_profiles: false,
            recovery: None,
            chaos: None,
            overload: None,
            store_backend: StoreBackend::default(),
            net_seed: None,
            reliability: None,
            shards: 1,
        }
    }
}

impl<R: Runtime> ManagementGrid<R> {
    /// Runs the grid from its current time for `duration_ms`, ticking
    /// every `tick_ms`, and returns the cumulative report.
    ///
    /// Incremental runs continue where the previous one stopped; use the
    /// same `tick_ms` across calls so simulated time advances uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `tick_ms` is zero.
    pub fn run(&mut self, duration_ms: u64, tick_ms: u64) -> GridReport {
        assert!(tick_ms > 0, "tick must be positive");
        let start = self.ticks * tick_ms;
        let steps = duration_ms / tick_ms;
        for _ in 0..steps {
            let now = self.ticks * tick_ms;
            self.apply_chaos(now);
            {
                let mut network = self.network.lock();
                // Apply scheduled faults before sampling, so a fault that
                // clears at time T no longer taints the sample taken at T.
                self.injector.apply(&mut network, now);
                network.tick_all(now);
            }
            // Peer shards' domains advance under the same schedule;
            // faults naming devices in another domain are skipped.
            for net in &self.peer_networks {
                let mut network = net.lock();
                self.injector.apply(&mut network, now);
                network.tick_all(now);
            }
            self.platform.run_until_idle(now);
            if self.live_profiles {
                self.refresh_profiles(tick_ms);
            }
            // Store-footprint gauges, only when a sink is attached —
            // unobserved runs stay byte-identical.
            if let Some(t) = self.platform.telemetry() {
                let (points, bytes, chunks) = {
                    let store = self.store.lock();
                    (store.len(), store.storage_bytes(), store.chunk_count())
                };
                let registry = t.registry();
                registry
                    .gauge("agentgrid_store_points", &[])
                    .set(points as i64);
                registry
                    .gauge("agentgrid_store_bytes", &[])
                    .set(bytes as i64);
                registry
                    .gauge("agentgrid_store_chunks", &[])
                    .set(chunks as i64);
                let per_sample = (bytes * 1000).checked_div(points).unwrap_or(0) as i64;
                // Milli-bytes per sample (integer gauge registry).
                registry
                    .gauge("agentgrid_store_bytes_per_sample_milli", &[])
                    .set(per_sample);
            }
            self.ticks += 1;
        }
        self.report(self.ticks * tick_ms - start)
    }

    /// Applies every chaos event due at or before `now`, in schedule
    /// order. Crashes are silent (stale directory entries survive);
    /// restarts rebuild the container from its original spec, fresh
    /// analyzer included, and heartbeat it immediately so the root does
    /// not re-declare it dead on sight.
    fn apply_chaos(&mut self, now: u64) {
        while self.chaos_cursor < self.chaos.events().len() {
            let (due, action) = &self.chaos.events()[self.chaos_cursor];
            if *due > now {
                break;
            }
            let action = action.clone();
            self.chaos_cursor += 1;
            match action {
                ChaosAction::Crash(name) => {
                    if self.platform.crash_container_silent(&name).is_ok() {
                        if let Some(t) = self.platform.telemetry() {
                            t.record_event(
                                now,
                                EventKind::Crash {
                                    container: name.clone(),
                                },
                            );
                        }
                        self.downed.insert(name);
                    }
                }
                ChaosAction::Restart(name) => {
                    if !self.downed.remove(&name) {
                        continue;
                    }
                    let Some(spec) = self.specs.iter().find(|s| s.name == name).cloned() else {
                        continue;
                    };
                    // In sharded mode the analyzer rejoins its own
                    // shard: that shard's store, plus the shard-scoped
                    // directory service its root brokers over.
                    let shard = self.analyzer_shard.get(&name).copied();
                    let store = match shard {
                        Some(s) if s > 0 => Arc::clone(&self.peer_stores[s - 1]),
                        _ => Arc::clone(&self.store),
                    };
                    self.platform.add_container(&name);
                    let analyzer = AnalyzerAgent::shared(
                        store,
                        Arc::clone(&self.kb),
                        self.interface_id.clone(),
                    )
                    .with_match_counter(Arc::clone(&self.match_attempts));
                    let analyzer_id = self
                        .platform
                        .spawn_agent(&name, &format!("analyzer-{name}"), analyzer)
                        .expect("container just re-added");
                    let mut profile = ResourceProfile::new(
                        &name,
                        spec.cpu_capacity,
                        1.0,
                        4096,
                        spec.skills.iter().cloned(),
                    );
                    profile.load = 0.0;
                    self.platform.with_df(|df| {
                        df.register_container(profile);
                        df.register_service(analyzer_id.clone(), "analysis", [name.clone()]);
                        if let Some(s) = shard {
                            df.register_service(
                                analyzer_id,
                                federation::shard_service(s),
                                [name.clone()],
                            );
                        }
                        df.record_heartbeat(&name, now);
                    });
                    if let Some(t) = self.platform.telemetry() {
                        t.record_event(now, EventKind::Restart { container: name });
                    }
                }
                ChaosAction::SetFault(fault) => self.platform.set_transport_fault(fault),
                ChaosAction::ClearFault => self.platform.set_transport_fault(TransportFault::None),
                ChaosAction::ClearFaultScoped(fault) => {
                    self.platform.net_command(NetCommand::RemoveFault(fault));
                }
                ChaosAction::LinkFaultsOpen(selector, faults) => {
                    self.platform
                        .net_command(NetCommand::AddLinkFaults(selector, faults));
                }
                ChaosAction::LinkFaultsClear(selector) => {
                    self.platform
                        .net_command(NetCommand::ClearLinkFaults(selector));
                }
                ChaosAction::PartitionOpen(name, groups) => {
                    // Containers in a different group than the root's
                    // container cannot reach the broker: quarantine
                    // them (Suspect, not Dead) until the heal + grace.
                    let cut = containers_cut_from(ROOT_CONTAINER, &groups);
                    if !cut.is_empty() {
                        let mut quarantine = self.quarantine.lock();
                        for container in &cut {
                            quarantine.insert(container.clone(), u64::MAX);
                        }
                        self.partition_members.insert(name.clone(), cut);
                    }
                    if let Some(t) = self.platform.telemetry() {
                        t.record_event(now, EventKind::PartitionOpen { name: name.clone() });
                    }
                    self.platform
                        .net_command(NetCommand::OpenPartition(name, groups));
                }
                ChaosAction::PartitionHeal(name) => {
                    if let Some(members) = self.partition_members.remove(&name) {
                        let mut quarantine = self.quarantine.lock();
                        for container in members {
                            // A container cut by another still-open
                            // partition stays fully quarantined.
                            let still_cut = self
                                .partition_members
                                .values()
                                .flatten()
                                .any(|c| *c == container);
                            if !still_cut {
                                quarantine.insert(container, now + QUARANTINE_GRACE_MS);
                            }
                        }
                    }
                    if let Some(t) = self.platform.telemetry() {
                        t.record_event(now, EventKind::PartitionHeal { name: name.clone() });
                    }
                    self.platform.net_command(NetCommand::HealPartition(name));
                }
            }
        }
    }

    /// Overwrites each profiled container's directory load with the
    /// measured figure from telemetry (mailbox depth + handler busy time
    /// over the tick window), so the next brokering round ranks by
    /// observed idleness instead of the root's own projections.
    fn refresh_profiles(&mut self, tick_ms: u64) {
        let Some(telemetry) = self.platform.telemetry() else {
            return;
        };
        let window_ns = tick_ms.saturating_mul(1_000_000);
        for stats in telemetry.container_stats() {
            let prev = self
                .last_busy_ns
                .insert(stats.container.clone(), stats.busy_ns)
                .unwrap_or(0);
            let busy_delta = stats.busy_ns.saturating_sub(prev);
            let load = measured_load(stats.mailbox_depth, busy_delta, window_ns);
            self.platform.with_df(|df| {
                if df.container_profile(&stats.container).is_some() {
                    df.update_load(&stats.container, load);
                }
            });
        }
    }

    fn report(&self, duration_ms: u64) -> GridReport {
        // Aggregate the shard roots in shard order; shard 0's stats are
        // the whole story for an unsharded grid.
        let stats = self.root_stats.lock();
        let mut assignments = stats.assignments.clone();
        let mut unassigned = stats.unassigned;
        let mut reassigned = stats.reassigned;
        let mut completed = stats.completed;
        let mut completed_ids = stats.completed_ids.clone();
        let mut rebrokered = stats.rebrokered.clone();
        let mut retries = stats.retries;
        let mut escalations = stats.escalations;
        let mut rejected = stats.rejected;
        let mut outstanding = stats.outstanding.clone();
        let mut tasks_created = stats.created;
        let mut shard_created = if self.shards > 1 {
            vec![stats.created]
        } else {
            Vec::new()
        };
        drop(stats);
        for peer in &self.peer_root_stats {
            let peer = peer.lock();
            shard_created.push(peer.created);
            tasks_created += peer.created;
            assignments.extend(peer.assignments.iter().cloned());
            unassigned += peer.unassigned;
            reassigned += peer.reassigned;
            completed += peer.completed;
            completed_ids.extend(peer.completed_ids.iter().cloned());
            rebrokered.extend(peer.rebrokered.iter().cloned());
            retries += peer.retries;
            escalations += peer.escalations;
            rejected += peer.rejected;
            outstanding.extend(peer.outstanding.iter().cloned());
        }
        let mut federation = FederationStats::default();
        for shard in &self.federation_stats {
            let shard = shard.lock();
            federation.spilled_out += shard.spilled_out;
            federation.spilled_in += shard.spilled_in;
            federation.spill_completed += shard.spill_completed;
            federation.summaries_sent += shard.summaries_sent;
            federation.summaries_received += shard.summaries_received;
            federation.injected_findings += shard.injected_findings;
        }
        let records_stored = self.store.lock().len()
            + self
                .peer_stores
                .iter()
                .map(|s| s.lock().len())
                .sum::<usize>();
        GridReport {
            duration_ms,
            alerts: self.alerts.lock().clone(),
            records_stored,
            messages_delivered: self.platform.delivered_count(),
            dead_letters: self.platform.dead_letter_count(),
            assignments,
            unassigned,
            reassigned,
            tasks_completed: completed,
            completed_ids,
            rebrokered,
            retries,
            escalations,
            outstanding,
            shed: self
                .platform
                .overload_stats()
                .map(|s| s.shed_total())
                .unwrap_or(0),
            rejected,
            paced_polls: self.paced_polls.load(Ordering::Relaxed),
            task_latency: self
                .platform
                .telemetry()
                .and_then(|t| t.task_latency_summary()),
            net: self.platform.net_stats(),
            shards: self.shards,
            tasks_created,
            shard_created,
            federation,
        }
    }

    /// Network-adversary and reliability counters so far; `None` unless
    /// a net adversary or reliability protocol was configured.
    pub fn net_stats(&self) -> Option<NetStats> {
        self.platform.net_stats()
    }

    /// Total rule-engine match attempts across every analyzer so far —
    /// the CPU-cost proxy behind the paper's Table 1 inference column.
    /// Deterministic for deterministic runs, so tests can pin a ceiling.
    pub fn match_attempts(&self) -> u64 {
        self.match_attempts.load(Ordering::Relaxed)
    }

    /// Posts user feedback: a new analysis rule in DSL text, distributed
    /// by the interface grid to every analyzer (§3.4).
    pub fn teach_rule(&mut self, rule_text: impl Into<String>) {
        let msg = AclMessage::builder(Performative::Request)
            .sender(AgentId::new("operator"))
            .receiver(self.interface_id.clone())
            .content(Value::map([
                ("concept", Value::symbol("learn-rule")),
                ("text", Value::from(rule_text.into())),
            ]))
            .build()
            .expect("sender and receiver are set");
        self.platform.post(msg);
    }

    /// Kills an analyzer container mid-run (crash injection). Its
    /// profile leaves the directory and outstanding tasks get
    /// re-brokered by the root.
    ///
    /// # Panics
    ///
    /// Panics if the container does not exist.
    pub fn crash_container(&mut self, name: &str) {
        self.platform
            .kill_container(name)
            .expect("container exists");
    }

    /// Read access to the shared management store.
    pub fn store(&self) -> Arc<Mutex<ManagementStore>> {
        Arc::clone(&self.store)
    }

    /// Read access to the managed network.
    pub fn network(&self) -> Arc<Mutex<Network>> {
        Arc::clone(&self.network)
    }

    /// The underlying runtime (e.g. for migration experiments).
    pub fn platform_mut(&mut self) -> &mut R {
        &mut self.platform
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> Vec<Alert> {
        self.alerts.lock().clone()
    }

    /// The telemetry sink attached through
    /// [`GridBuilder::telemetry`], if any.
    pub fn telemetry(&self) -> Option<TelemetryHandle> {
        self.platform.telemetry()
    }

    /// Platform-level overload counters (shed per class, deferrals,
    /// peak mailbox backlog); `None` unless
    /// [`GridBuilder::overload`] configured bounded mailboxes.
    pub fn overload_stats(&self) -> Option<OverloadStats> {
        self.platform.overload_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_acl::ontology::Severity;
    use agentgrid_net::{Device, DeviceKind, FaultKind};

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

    #[test]
    fn end_to_end_pipeline_stores_and_analyzes() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .build();
        let report = grid.run(5 * 60_000, 60_000);
        assert!(report.records_stored > 0, "collectors fed the store");
        assert!(!report.assignments.is_empty(), "root brokered tasks");
        assert_eq!(
            report.tasks_completed,
            report.assignments.len() as u64,
            "every task reported done"
        );
        assert_eq!(report.dead_letters, 0);
        assert_eq!(report.unassigned, 0);
    }

    #[test]
    fn cpu_fault_produces_critical_alert() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .fault(ScheduledFault::from("srv-0", FaultKind::CpuRunaway, 60_000))
            .build();
        let report = grid.run(6 * 60_000, 60_000);
        assert!(
            report.alerts.iter().any(|a| a.rule == "high-cpu"
                && a.device == "srv-0"
                && a.severity == Severity::Critical),
            "alerts: {:?}",
            report.alerts
        );
    }

    #[test]
    fn tasks_spread_over_both_analyzers() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .collectors_per_site(2)
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .build();
        let report = grid.run(10 * 60_000, 60_000);
        let per = report.tasks_per_container();
        assert!(per.get("pg-1").copied().unwrap_or(0) > 0);
        assert!(per.get("pg-2").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn container_crash_is_survived() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 4.0, ALL_SKILLS) // big capacity: wins first
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .build();
        grid.run(3 * 60_000, 60_000);
        grid.crash_container("pg-1");
        let report = grid.run(5 * 60_000, 60_000);
        // Work continues on pg-2 after the crash.
        let after_crash: Vec<&str> = report
            .assignments
            .iter()
            .rev()
            .take(3)
            .map(|(_, c)| c.as_str())
            .collect();
        assert!(after_crash.iter().all(|c| *c == "pg-2"), "{after_crash:?}");
    }

    #[test]
    fn taught_rule_starts_firing() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .build();
        grid.run(2 * 60_000, 60_000);
        grid.teach_rule(
            r#"rule "always-report-procs" salience 1 {
                when procs(device: ?d, value: ?v)
                if ?v > 0
                then emit info ?d "process count ?v on ?d"
            }"#,
        );
        let report = grid.run(4 * 60_000, 60_000);
        assert!(
            report
                .alerts
                .iter()
                .any(|a| a.rule == "always-report-procs"),
            "learned rule must fire"
        );
    }

    fn multi_site_network(sites: usize) -> Network {
        let mut net = Network::new();
        for s in 0..sites {
            for i in 0..2 {
                net.add_device(
                    Device::builder(format!("site-{s}-dev{i}"), DeviceKind::Server)
                        .site(format!("site-{s}"))
                        .seed((s * 10 + i) as u64)
                        .build(),
                );
            }
        }
        net
    }

    #[test]
    fn sharded_grid_partitions_and_conserves_tasks() {
        let mut grid = ManagementGrid::builder()
            .network(multi_site_network(4))
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .analyzer("pg-2", 1.0, ALL_SKILLS)
            .shards(2)
            .build();
        let report = grid.run(10 * 60_000, 60_000);
        assert_eq!(report.shards, 2);
        assert_eq!(report.shard_created.len(), 2);
        assert!(
            report.shard_created.iter().all(|&n| n > 0),
            "both domains created work: {:?}",
            report.shard_created
        );
        assert_eq!(report.tasks_created, report.shard_created.iter().sum());
        assert_eq!(report.unaccounted_tasks(), 0, "{report}");
        assert_eq!(report.lost_tasks(), Vec::<&str>::new());
        assert!(
            report.federation.summaries_sent > 0,
            "roots exchanged cross-domain summaries"
        );
        let text = report.render();
        assert!(text.contains("shards: 2 domains"), "{text}");
        assert!(text.contains("federation:"), "{text}");
    }

    #[test]
    fn sharded_run_is_deterministic() {
        let run = || {
            let mut grid = ManagementGrid::builder()
                .network(multi_site_network(3))
                .analyzer("pg-1", 1.0, ALL_SKILLS)
                .analyzer("pg-2", 1.0, ALL_SKILLS)
                .analyzer("pg-3", 1.0, ALL_SKILLS)
                .shards(3)
                .build();
            grid.run(8 * 60_000, 60_000).render()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unsharded_report_hides_federation_sections() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .build();
        let report = grid.run(3 * 60_000, 60_000);
        assert_eq!(report.shards, 1);
        assert!(report.shard_created.is_empty());
        assert_eq!(report.federation, FederationStats::default());
        let text = report.render();
        assert!(!text.contains("shards:"), "{text}");
        assert!(!text.contains("federation:"), "{text}");
    }

    #[test]
    fn report_renders_summary() {
        let mut grid = ManagementGrid::builder()
            .network(small_network())
            .analyzer("pg-1", 1.0, ALL_SKILLS)
            .build();
        let report = grid.run(3 * 60_000, 60_000);
        let text = report.render();
        assert!(text.contains("records stored"));
        assert!(text.contains("pg-1"));
    }
}
