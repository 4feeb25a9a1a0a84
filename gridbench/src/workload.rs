//! The three benchmark workloads, generated from a seed.
//!
//! The grid receives only what this module generates: the managed
//! network, the fault schedule and (federated) the chaos plan. Every
//! root manages a multiple of six sites, so every poll cycle carries the
//! same level-1 / level-2 / level-3 task mix (the root alternates levels
//! per `data-ready` and sweeps level 3 every third one); with two sites
//! per root, consecutive cycles alternate between cheap and expensive
//! mixes and a median cycle time flips between the two modes.

use agentgrid::grid::{GridBuilder, ManagementGrid};
use agentgrid::overload::{AdmissionConfig, OverloadConfig};
use agentgrid::{ChaosPlan, RecoveryConfig};
use agentgrid_net::{Device, DeviceKind, FaultKind, Network, ScheduledFault};
use agentgrid_platform::{LinkFaults, LinkSelector, ReliabilityConfig, TelemetryHandle};

/// One poll cycle of simulated time; the benchmark drives the grid one
/// cycle per `ManagementGrid::run` call.
pub const CYCLE_MS: u64 = 60_000;

/// Analysis skills every analyzer container offers.
const SKILLS: [&str; 8] = [
    "cpu",
    "memory",
    "disk",
    "interface",
    "process",
    "system",
    "other",
    "correlation",
];

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// North-star shape at host scale: one wide domain, analysis-bound.
    Fleet,
    /// Small domain over hundreds of cycles: store growth and tick work.
    History,
    /// Four federated shards on the pool runtime under link chaos.
    Federated,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fleet" => Some(Kind::Fleet),
            "history" => Some(Kind::History),
            "federated" => Some(Kind::Federated),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fleet => "fleet",
            Kind::History => "history",
            Kind::Federated => "federated",
        }
    }
}

/// A fully generated workload: shape plus seeded inputs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub shards: usize,
    pub sites: usize,
    pub devices_per_site: usize,
    pub analyzers: usize,
    /// Cycles run before the timed window; counted into `setup_s`.
    pub warmup_cycles: u64,
    /// Cycles inside the timed window.
    pub timed_cycles: u64,
    /// Untimed cycles after the timed window, with link faults closed,
    /// before the conservation check. Mid-flight, `GridReport` counts a
    /// spilled task whose completion confirmation is still being
    /// retransmitted as both completed and outstanding, so
    /// `unaccounted_tasks()` reads negative until the retransmissions
    /// land.
    pub drain_cycles: u64,
    pub faults: Vec<ScheduledFault>,
}

/// SplitMix64 step: the benchmark's only source of randomness.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic stream of draws from one seed.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

pub fn site_name(site: usize) -> String {
    format!("site-{site:02}")
}

fn device_name(site: usize, device: usize) -> String {
    format!("site-{site:02}-dev{device:03}")
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let (shards, sites, devices_per_site, analyzers) = match kind {
            Kind::Fleet => (1, 6, 25, 2),
            Kind::History => (1, 6, 4, 2),
            Kind::Federated => (4, 24, 6, 4),
        };
        let (warmup_cycles, timed_cycles, drain_cycles) = match kind {
            Kind::Fleet => (2, 12, 0),
            Kind::History => (20, 130, 0),
            Kind::Federated => (2, 18, 2),
        };
        let mut w = Workload {
            kind,
            seed,
            shards,
            sites,
            devices_per_site,
            analyzers,
            warmup_cycles,
            timed_cycles,
            drain_cycles,
            faults: Vec::new(),
        };
        w.faults = w.fault_schedule();
        w
    }

    /// Warm-up plus timed cycles (the drain comes after).
    pub fn cycles(&self) -> u64 {
        self.warmup_cycles + self.timed_cycles
    }

    /// The managed network: `sites` sites of routers, switches and
    /// servers in a fixed kind pattern (so the series count does not
    /// depend on the seed); only the device metric generators are
    /// seeded.
    pub fn network(&self) -> Network {
        let mut network = Network::new();
        let mut draws = Draws(self.seed ^ 0x6e65_7477_6f72_6b00);
        for s in 0..self.sites {
            for d in 0..self.devices_per_site {
                let kind = match d % 3 {
                    0 => DeviceKind::Router,
                    1 => DeviceKind::Switch,
                    _ => DeviceKind::Server,
                };
                network.add_device(
                    Device::builder(device_name(s, d), kind)
                        .site(site_name(s))
                        .seed(draws.next())
                        .build(),
                );
            }
        }
        network
    }

    /// One fault of each of the five kinds plus a second CPU runaway (so
    /// the level-3 `correlated-cpu` join has a pair to find), on distinct
    /// seeded devices. Federated runs schedule this plan twice, one
    /// fault at a time into shards 0 and 1: a spilled task can hold a
    /// fault's first analysis back by two cycles, and with six faults two
    /// such delays (seed 201) moved the detection-lag median from 30 to
    /// 59 s, while with twelve it takes five.
    ///
    /// Onsets sit half a cycle after a poll, jittered by up to ±2 s, so
    /// detection lag is never zero and barely moves with the seed. The
    /// slow faults (leak, filling disk) start in the first cycle so their
    /// rules fire before the horizon.
    fn fault_schedule(&self) -> Vec<ScheduledFault> {
        let mut draws = Draws(self.seed ^ 0x6661_756c_7473_0000);
        let mut taken: Vec<(usize, usize)> = Vec::new();
        let mut pick = |draws: &mut Draws, shard: usize| loop {
            // Site i belongs to shard i mod shards.
            let sites: Vec<usize> = (0..self.sites)
                .filter(|s| s % self.shards == shard)
                .collect();
            let site = sites[draws.below(sites.len() as u64) as usize];
            let device = draws.below(self.devices_per_site as u64) as usize;
            if !taken.contains(&(site, device)) {
                taken.push((site, device));
                return device_name(site, device);
            }
        };
        let plan: [(FaultKind, u64); 6] = [
            (FaultKind::MemoryLeak, 0),
            (FaultKind::DiskFilling, 0),
            (FaultKind::CpuRunaway, 1),
            (FaultKind::CpuRunaway, 1),
            (FaultKind::LinkDown(1), 2),
            (FaultKind::Unreachable, 3),
        ];
        plan.iter()
            .cycle()
            .take(plan.len() * self.shards.min(2))
            .enumerate()
            .map(|(i, (kind, cycle))| {
                // Federated: alternate between shards 0 and 1.
                let device = pick(&mut draws, i % self.shards.min(2));
                let jitter_ms = draws.below(4_001);
                let onset = cycle * CYCLE_MS + CYCLE_MS / 2 - 2_000 + jitter_ms;
                ScheduledFault::from(device, *kind, onset)
            })
            .collect()
    }

    /// The grid for this workload, before the runtime is chosen.
    pub fn builder(&self, telemetry: Option<TelemetryHandle>) -> GridBuilder {
        let mut builder = ManagementGrid::builder().network(self.network());
        for a in 0..self.analyzers {
            builder = builder.analyzer(format!("pg-{}", a + 1), 1.0, SKILLS);
        }
        for fault in &self.faults {
            builder = builder.fault(fault.clone());
        }
        if self.kind == Kind::Federated {
            // Seeded loss, duplication and reordering on every link
            // through warm-up and the timed window, survived by reliable
            // delivery. The token bucket admits 8 of the ~44 tasks each
            // root creates per cycle, so every cycle spills most tasks
            // to peers. A tighter gate (bucket 4, refill 2) made a
            // fault's first analysis wait a cycle on about a third of
            // the faults, and the detection-lag median flipped between
            // 30, 60 and 90 s from seed to seed.
            let chaos = ChaosPlan::new().link_faults_between(
                0,
                self.cycles() * CYCLE_MS,
                LinkSelector::All,
                LinkFaults {
                    drop_ppm: 20_000,
                    duplicate_ppm: 20_000,
                    reorder_window: 4,
                    ..LinkFaults::default()
                },
            );
            builder = builder
                .shards(self.shards)
                .recovery(RecoveryConfig::seeded(self.seed))
                .net_adversary(self.seed)
                .reliability(ReliabilityConfig::seeded(self.seed))
                .chaos(chaos)
                .overload(OverloadConfig::new().admission(AdmissionConfig {
                    bucket_capacity: 12,
                    refill_per_window: 8,
                    load_threshold: 1.0,
                }));
        }
        if let Some(t) = telemetry {
            builder = builder.telemetry(t);
        }
        builder
    }
}
