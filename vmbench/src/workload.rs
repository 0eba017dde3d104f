//! The four workloads: what each one feeds the program, derived from the
//! benchmark's seed alone.

use vmplants::dag::graph::{experiment_dag, zipf_dag};
use vmplants::plant::ProductionOrder;
use vmplants::virt::VmSpec;
use vmplants::warehouse::WarehouseConfig;
use vmplants::{ChaosConfig, Scenario, SimSite, SiteConfig};

/// Orders per simulated site. At 400 the ~240-VM fleet fills (`run_chaos`
/// never destroys VMs) and the run mostly measures the fast-fail path.
pub const ORDERS_PER_SITE: usize = 200;

/// Client domain the default site registers.
const DOMAIN: &str = "ufl.edu";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free constant stream: the plain order path.
    Steady,
    /// The steady stream under transport faults, a reboot, an NFS
    /// brownout, a partition and a shop crash.
    Storm,
    /// Zipf demand over 120 goldens under a tight warehouse budget.
    Zipf,
    /// `LiveShop` on loopback with one closed-loop client.
    Live,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "steady" => Some(Workload::Steady),
            "storm" => Some(Workload::Storm),
            "zipf" => Some(Workload::Zipf),
            "live" => Some(Workload::Live),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Storm => "storm",
            Workload::Zipf => "zipf",
            Workload::Live => "live",
        }
    }

    /// Distinct sites in one pass. Each pass yields at least 1000
    /// successful orders, so `sim_p99_s` has ten samples beyond it, spans
    /// enough seeds that the simulated latencies hold steady from one
    /// benchmark seed to the next, and fits several times into a run
    /// so `orders_per_s` has a median.
    pub fn pool(self) -> usize {
        match self {
            Workload::Steady | Workload::Storm | Workload::Live => 16,
            Workload::Zipf => 8,
        }
    }

    /// Site set-ups timed for `setup_s` per round (per session on
    /// `live`), so they sample the host across the whole run.
    pub fn setups_per_round(self) -> usize {
        match self {
            Workload::Zipf => 3,
            _ => 8,
        }
    }
}

/// The splitmix64 finaliser: spreads a seed over 64 bits.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One workload under one benchmark seed.
pub struct Plan {
    pub workload: Workload,
    seed: u64,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let salt = workload
            .name()
            .bytes()
            .fold(0u64, |h, b| mix(h ^ u64::from(b)));
        Plan {
            workload,
            seed: mix(seed ^ salt),
        }
    }

    /// Seed of the `i`-th site of the pool. Kept below 2^53 so the
    /// scenario's `seed` attribute round-trips exactly.
    pub fn site_seed(&self, i: usize) -> u64 {
        mix(self.seed.wrapping_add(i as u64)) >> 11
    }

    /// The scenario text of site `i`: what the program parses.
    pub fn scenario_xml(&self, i: usize) -> String {
        let seed = self.site_seed(i);
        let n = ORDERS_PER_SITE;
        match self.workload {
            Workload::Steady | Workload::Live => format!(
                "<scenario name=\"steady\" seed=\"{seed}\">\
                 <workload kind=\"constant\" requests=\"{n}\" interval-s=\"30\" memory-mb=\"64\"/>\
                 </scenario>"
            ),
            // Faults sit at fixed points of the 6000 s stream, so sites
            // differ only in what their seed draws (message fates, plant
            // timings); per-site failure counts then stay close and the
            // pool's share holds steady across seeds. The 120 s attempt
            // timeout makes the watchdog re-dispatch during the brownout.
            Workload::Storm => format!(
                "<scenario name=\"storm\" seed=\"{seed}\">\
                 <workload kind=\"constant\" requests=\"{n}\" interval-s=\"30\" memory-mb=\"64\"/>\
                 <faults>\
                 <message-loss at-s=\"0\" target=\"shop\" p=\"0.2\" duration-s=\"2592000\"/>\
                 <message-duplicate at-s=\"0\" target=\"shop\" p=\"0.2\" duration-s=\"2592000\"/>\
                 <message-reorder at-s=\"0\" target=\"shop\" p=\"0.3\" duration-s=\"2592000\"/>\
                 <host-reboot at-s=\"600\" target=\"node0\" downtime-s=\"60\"/>\
                 <nfs-degraded at-s=\"1800\" target=\"storage\" factor=\"0.25\" duration-s=\"600\"/>\
                 <link-partition at-s=\"3000\" target=\"shop-&gt;node2\" duration-s=\"120\"/>\
                 <shop-crash at-s=\"4200\" target=\"shop\" downtime-s=\"60\"/>\
                 </faults>\
                 <tuning attempt-timeout-s=\"120\"/>\
                 </scenario>"
            ),
            Workload::Zipf => format!(
                "<scenario name=\"zipf\" seed=\"{seed}\">\
                 <workload kind=\"zipf\" requests=\"{n}\" interval-s=\"15\" population=\"120\" exponent=\"1.1\"/>\
                 </scenario>"
            ),
        }
    }

    /// Parse and compile site `i`, then apply what the scenario grammar
    /// cannot say: E22's tightest warehouse cell for `zipf`.
    pub fn compile(&self, i: usize) -> ChaosConfig {
        let scenario =
            Scenario::from_xml(&self.scenario_xml(i)).expect("generated scenario parses");
        let mut config = scenario
            .compile_with_seed(self.site_seed(i))
            .expect("generated scenario compiles");
        if self.workload == Workload::Zipf {
            config.warehouse = WarehouseConfig {
                dedup: true,
                capacity_bytes: Some(16 << 30),
                replicate_after: Some(6),
            };
            config.replica_servers = 2;
        }
        config
    }

    /// The site configuration `run_chaos` derives from `config`.
    pub fn site_config(config: &ChaosConfig) -> SiteConfig {
        let mut site = SiteConfig {
            seed: config.seed,
            warehouse: config.warehouse.clone(),
            zipf_goldens: config.zipf_goldens,
            ..SiteConfig::default()
        };
        site.testbed.replica_servers = config.replica_servers;
        site
    }

    /// From nothing to a ready site `i`: parse, compile, build.
    pub fn build_site(&self, i: usize) -> SimSite {
        SimSite::build(Plan::site_config(&self.compile(i)))
    }

    /// The production orders of a compiled site, in arrival order, as
    /// `run_chaos` builds them.
    pub fn orders(config: &ChaosConfig) -> Vec<ProductionOrder> {
        let shapes: Vec<(u64, u32)> = match &config.schedule {
            Some(schedule) => schedule.iter().map(|o| (o.memory_mb, o.dag_rank)).collect(),
            None => vec![(config.memory_mb, 0); config.requests],
        };
        shapes
            .into_iter()
            .map(|(memory_mb, rank)| {
                let dag = match rank {
                    0 => experiment_dag("arijit"),
                    r => zipf_dag(r - 1, "arijit"),
                };
                ProductionOrder::new(VmSpec::mandrake(memory_mb), dag, DOMAIN)
            })
            .collect()
    }
}
