//! The traced pass: program counters and the simulated critical path
//! from `Obs::enabled()`, and timed replays of each layer's public
//! functions on the workload's own inputs, every call inside a
//! benchmark-side span.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vmplants::cluster::nfs::NfsServer;
use vmplants::live::{LiveShop, ShopClient};
use vmplants::plant::protocol::{Request, Response};
use vmplants::shop::bidding::collect_bids;
use vmplants::simkit::Obs;
use vmplants::site::publish_zipf_goldens;
use vmplants::warehouse::store::publish_experiment_goldens;
use vmplants::warehouse::Warehouse;
use vmplants::{run_chaos, run_chaos_with_obs, ChaosConfig, Scenario, SimSite};

use crate::cycle::{self, Op};
use crate::report::{median, Report, Tracer};
use crate::sim::check_run;
use crate::workload::{Plan, Workload};

/// Critical-path phases reported by name; any other span name on the
/// path is summed into `other`.
pub const PHASES: [&str; 11] = [
    "order",
    "bid",
    "produce",
    "ppp",
    "rederive",
    "clone_disk",
    "copy_vmss",
    "resume",
    "guest_ready",
    "host_action",
    "guest_script",
];

/// Program counters summed over the traced sites.
const COUNTERS: [&str; 15] = [
    "engine.events_executed",
    "engine.events_cancelled",
    "transport.sent",
    "transport.delivered",
    "shop.retransmits",
    "shop.bids_requested",
    "shop.watchdog_fires",
    "shop.journal_records",
    "shop.orders_adopted",
    "shop.orders_resumed",
    "shop.orders_restarted",
    "nfs.fetches",
    "nfs.fetched_bytes",
    "warehouse.lookups",
    "warehouse.rederives",
];

/// Cycles of the in-process and live replays on a simulated workload.
const REPLAY_CYCLES: usize = 200;

/// What the traced sites did, summed.
#[derive(Default)]
struct Tally {
    sites: usize,
    orders: u64,
    successes: u64,
    dispatches: u64,
    orphans: u64,
    evictions: u64,
    replications: u64,
    spans: u64,
    counters: BTreeMap<&'static str, u64>,
    plants: u64,
    paths: u64,
    phases: BTreeMap<&'static str, f64>,
}

impl Tally {
    /// Read one traced site's counters, request log and critical paths.
    fn add(&mut self, site: &SimSite, orders: u64, successes: u64, orphans: u64) {
        self.sites += 1;
        self.orders += orders;
        self.successes += successes;
        self.orphans += orphans;
        self.plants = site.plants.len() as u64;
        for name in COUNTERS {
            *self.counters.entry(name).or_default() += site.obs.counter_value(name).unwrap_or(0);
        }
        let replays: u64 = site
            .plants
            .iter()
            .filter_map(|p| {
                site.obs
                    .counter_value(&format!("plant.{}.dedup_replays", p.name()))
            })
            .sum();
        *self.counters.entry("plant.dedup_replays").or_default() += replays;
        self.dispatches += site
            .shop
            .request_log()
            .iter()
            .map(|e| u64::from(e.attempts))
            .sum::<u64>();
        let warehouse = site.warehouse.borrow();
        self.evictions += warehouse.eviction_count();
        self.replications += warehouse.replicated_count() as u64;
        self.spans += site.obs.span_count() as u64;
        for root in site.obs.spans_named("order") {
            let Some(path) = site.obs.critical_path(root) else {
                continue;
            };
            self.paths += 1;
            for (name, d) in path.phase_totals() {
                let phase = PHASES
                    .iter()
                    .find(|&&p| p == name)
                    .copied()
                    .unwrap_or("other");
                *self.phases.entry(phase).or_default() += d.as_secs_f64();
            }
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn report(&self, report: &mut Report) {
        let n = self.orders;
        let per = |x: f64| x / n.max(1) as f64;
        let mut count = |name: &str, v: f64| report.value(name, "count/order", v, n);
        count(
            "engine.events_per_order",
            per(self.counter("engine.events_executed")),
        );
        count(
            "engine.cancelled_per_order",
            per(self.counter("engine.events_cancelled")),
        );
        count(
            "transport.sent_per_order",
            per(self.counter("transport.sent")),
        );
        count(
            "shop.retransmits_per_order",
            per(self.counter("shop.retransmits")),
        );
        count(
            "shop.bids_per_order",
            per(self.counter("shop.bids_requested")),
        );
        count(
            "shop.watchdog_fires_per_order",
            per(self.counter("shop.watchdog_fires")),
        );
        count("shop.orphans_per_order", per(self.orphans as f64));
        count(
            "shop.journal_records_per_order",
            per(self.counter("shop.journal_records")),
        );
        count("warehouse.evictions_per_order", per(self.evictions as f64));
        count("nfs.fetches_per_order", per(self.counter("nfs.fetches")));
        count(
            "plant.dedup_replays_per_order",
            per(self.counter("plant.dedup_replays")),
        );
        count("obs.spans_per_order", per(self.spans as f64));
        report.value(
            "nfs.mb_per_order",
            "MiB/order",
            per(self.counter("nfs.fetched_bytes") / (1 << 20) as f64),
            n,
        );
        report.value(
            "transport.delivered_share",
            "ratio",
            self.counter("transport.delivered") / self.counter("transport.sent").max(1.0),
            n,
        );
        report.value(
            "shop.dispatches_per_success",
            "count",
            self.dispatches as f64 / self.successes.max(1) as f64,
            self.successes,
        );
        report.value(
            "warehouse.hit_share",
            "ratio",
            1.0 - per(self.counter("warehouse.rederives")),
            n,
        );
        report.value(
            "warehouse.replications",
            "count/site",
            self.replications as f64 / self.sites.max(1) as f64,
            self.sites as u64,
        );
        for phase in PHASES.iter().copied().chain(["other"]) {
            let total = self.phases.get(phase).copied().unwrap_or(0.0);
            report.value(
                format!("critical_path.{phase}_s"),
                "s",
                total / self.paths.max(1) as f64,
                self.paths,
            );
        }
    }
}

/// Median per-call host time of the spans named `name`, µs.
fn per_call(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_us(name))
}

/// Host µs per published golden: the experiment goldens and the Zipf
/// population are published by one call each.
fn publish_us(tracer: &Tracer, config: &ChaosConfig) -> f64 {
    let total: f64 = ["warehouse.publish_experiment", "warehouse.publish_zipf"]
        .iter()
        .flat_map(|name| tracer.durations_us(name))
        .sum();
    total / f64::from(3 + config.zipf_goldens)
}

/// Sink recording each cycle call as a span named after its layer.
fn span_sink<'a>(
    tracer: &'a mut Tracer,
    names: [&'static str; 4],
) -> impl FnMut(Op, Instant, Instant) + 'a {
    move |op, a, b| {
        let i = Op::ALL.iter().position(|&o| o == op).expect("known op");
        tracer.record(names[i], a, b);
    }
}

const SITE_SPANS: [&str; 4] = ["site.estimate", "site.create", "site.query", "site.destroy"];
const LIVE_SPANS: [&str; 4] = ["live.estimate", "live.create", "live.query", "live.destroy"];

/// Replays of every layer's public functions on the workload's inputs:
/// the scenario text of each pool site, the golden population, and the
/// orders of the first site, on a site built the same way.
fn replay_layers(
    plan: &Plan,
    config: &ChaosConfig,
    live_for: Option<Duration>,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    tracer.begin("replay.scenario");
    for i in 0..plan.workload.pool() {
        let xml = plan.scenario_xml(i);
        let seed = plan.site_seed(i);
        let compiled = tracer.time("scenario.compile", || {
            Scenario::from_xml(&xml).and_then(|s| s.compile_with_seed(seed))
        });
        report.check(compiled.is_ok(), 1, || {
            format!("site {i}: scenario does not compile")
        });
    }
    tracer.end();

    tracer.begin("replay.warehouse_publish");
    let nfs = NfsServer::new("storage");
    let mut warehouse = Warehouse::with_config(config.warehouse.clone());
    tracer.time("warehouse.publish_experiment", || {
        publish_experiment_goldens(&mut warehouse, &nfs);
    });
    if config.zipf_goldens > 0 {
        tracer.time("warehouse.publish_zipf", || {
            publish_zipf_goldens(&mut warehouse, &nfs, config.zipf_goldens)
        });
    }
    tracer.end();
    let published = 3 + u64::from(config.zipf_goldens);
    report.value(
        "warehouse.publish_us",
        "us",
        publish_us(tracer, config),
        published,
    );
    report.value(
        "warehouse.dedup_factor",
        "ratio",
        warehouse.dedup_factor(),
        published,
    );

    let orders = Plan::orders(config);
    let mut site = SimSite::build(Plan::site_config(config));
    let plants = site.shop.plants();
    tracer.begin("replay.order_inputs");
    for order in &orders {
        tracer.time("bidding.collect", || collect_bids(&plants, order));
        let frame = tracer.time("xmlmsg.render", || Request::Create(order.clone()).to_wire());
        let parsed = tracer.time("xmlmsg.parse", || Request::from_wire(&frame));
        report.check(matches!(parsed, Ok(Request::Create(_))), 1, || {
            "a rendered create request does not parse back".to_string()
        });
        let found = tracer.time("warehouse.lookup", || {
            site.warehouse
                .borrow()
                .lookup(&order.spec, &order.dag)
                .is_some()
        });
        report.check(found, 1, || {
            "no golden matches a workload order".to_string()
        });
    }
    tracer.end();

    tracer.begin("replay.site_cycles");
    let mut ads = Vec::new();
    for order in orders.iter().cycle().take(REPLAY_CYCLES) {
        let mut sink = span_sink(tracer, SITE_SPANS);
        ads.extend(cycle::in_process(&mut site, order, &mut sink, report));
    }
    tracer.end();
    let create = tracer.durations_us("site.create");
    let destroy = tracer.durations_us("site.destroy");
    let cycle_us: Vec<f64> = create.iter().zip(&destroy).map(|(c, d)| c + d).collect();
    report.value(
        "site.create_cycle_us",
        "us",
        median(&cycle_us),
        cycle_us.len() as u64,
    );

    tracer.begin("replay.response_frames");
    for ad in ads {
        let frame = Response::Ad(ad).to_wire();
        let parsed = tracer.time("xmlmsg.response_parse", || Response::from_wire(&frame));
        report.check(matches!(parsed, Ok(Response::Ad(_))), 1, || {
            "a rendered classad response does not parse back".to_string()
        });
    }
    tracer.end();

    tracer.begin("replay.live");
    let shop = LiveShop::start(Plan::site_config(config)).expect("bind loopback");
    let client = ShopClient::connect(shop.addr());
    let start = Instant::now();
    for (i, order) in orders.iter().cycle().enumerate() {
        let done = match live_for {
            Some(budget) => start.elapsed() >= budget,
            None => i >= REPLAY_CYCLES,
        };
        if done {
            break;
        }
        let mut sink = span_sink(tracer, LIVE_SPANS);
        cycle::live(&client, order, &mut sink, report);
    }
    shop.stop();
    tracer.end();
    for (op, span) in Op::ALL.iter().zip(LIVE_SPANS) {
        let us = tracer.durations_us(span);
        report.value(
            format!("live.{}_p50_us", op.name()),
            "us",
            median(&us),
            us.len() as u64,
        );
    }
    for name in [
        "scenario.compile",
        "bidding.collect",
        "xmlmsg.render",
        "xmlmsg.parse",
        "xmlmsg.response_parse",
        "warehouse.lookup",
    ] {
        let us = tracer.durations_us(name);
        report.value(format!("{name}_us"), "us", median(&us), us.len() as u64);
    }
}

/// The traced pass of a simulated workload: each pool site runs
/// untraced, then traced, and the two reports must match byte for byte.
fn simulated(plan: &Plan, tracer: &mut Tracer, report: &mut Report) -> (f64, Tally) {
    let configs: Vec<ChaosConfig> = (0..plan.workload.pool()).map(|i| plan.compile(i)).collect();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut tally = Tally::default();
    for (i, config) in configs.iter().enumerate() {
        tracer.begin("chaos.untraced");
        let start = Instant::now();
        let plain = run_chaos(config);
        untraced_s += start.elapsed().as_secs_f64();
        tracer.end();
        tracer.begin("chaos.traced");
        let start = Instant::now();
        let (traced, site) = run_chaos_with_obs(config, Obs::enabled());
        traced_s += start.elapsed().as_secs_f64();
        tracer.end();
        report.attempted += 2 * plain.requests as u64;
        check_run(report, i, &traced);
        report.check(
            plain.render_full() == traced.render_full(),
            plain.requests as u64,
            || format!("site {i}: traced report differs from the untraced one"),
        );
        tally.add(
            &site,
            traced.requests as u64,
            traced.successes as u64,
            traced.orphans_collected as u64,
        );
    }
    report.value(
        "obs.traced_overhead_pct",
        "%",
        (traced_s / untraced_s - 1.0) * 100.0,
        configs.len() as u64,
    );
    (untraced_s * 1e6 / tally.orders.max(1) as f64, tally)
}

/// The traced pass of `live`: the same cycles through an in-process site,
/// untraced then traced; the created VMs' latencies must match.
fn live_counts(plan: &Plan, cycles: usize, tracer: &mut Tracer, report: &mut Report) -> Tally {
    let config = plan.compile(0);
    let orders = Plan::orders(&config);
    let mut latencies = Vec::new();
    let mut walls = Vec::new();
    let mut tally = Tally::default();
    for obs in [Obs::disabled(), Obs::enabled()] {
        let traced = obs.is_enabled();
        tracer.begin(if traced {
            "site.traced"
        } else {
            "site.untraced"
        });
        let start = Instant::now();
        let mut site = SimSite::build_with_obs(Plan::site_config(&config), obs);
        let mut created = Vec::new();
        let mut sink = |_: Op, _: Instant, _: Instant| {};
        for order in orders.iter().cycle().take(cycles) {
            if let Some(ad) = cycle::in_process(&mut site, order, &mut sink, report) {
                created.push(ad.get_f64("create_s").unwrap_or(f64::NAN).to_bits());
            }
        }
        walls.push(start.elapsed().as_secs_f64());
        tracer.end();
        if traced {
            let ok = created.len() as u64;
            tally.add(&site, cycles as u64, ok, 0);
        }
        latencies.push(created);
    }
    report.check(latencies[0] == latencies[1], cycles as u64, || {
        "traced in-process cycles differ from the untraced ones".to_string()
    });
    report.value(
        "obs.traced_overhead_pct",
        "%",
        (walls[1] / walls[0] - 1.0) * 100.0,
        cycles as u64,
    );
    tally
}

pub fn run(plan: &Plan, seconds: f64, trace_out: Option<&str>, report: &mut Report) {
    let mut tracer = Tracer::new(plan.workload.name());
    let config = plan.compile(0);
    // On `live` half the run goes to the socket path the workload is about.
    let live_for =
        (plan.workload == Workload::Live).then(|| Duration::from_secs_f64(seconds / 2.0));
    let (tally, untraced_us_per_order) = match plan.workload {
        Workload::Live => (
            live_counts(plan, 2 * REPLAY_CYCLES, &mut tracer, report),
            None,
        ),
        _ => {
            let (us, tally) = simulated(plan, &mut tracer, report);
            (tally, Some(us))
        }
    };
    tally.report(report);
    replay_layers(plan, &config, live_for, &mut tracer, report);

    // Replay cost per order times calls per order, over the untraced host
    // time per order: an estimate from uncontended replays.
    let n = tally.orders.max(1) as f64;
    let collect = per_call(&tracer, "bidding.collect");
    let render = per_call(&tracer, "xmlmsg.render");
    let parse = per_call(&tracer, "xmlmsg.parse");
    let lookup = per_call(&tracer, "warehouse.lookup");
    let (covered, base) = match untraced_us_per_order {
        None => {
            // Per cycle: one estimate (bids), one create request rendered,
            // parsed and answered, and the site's create and destroy.
            let create_destroy: f64 =
                per_call(&tracer, "site.create") + per_call(&tracer, "site.destroy");
            let response = per_call(&tracer, "xmlmsg.response_parse");
            let cycle = LIVE_SPANS
                .iter()
                .map(|span| tracer.durations_us(span))
                .reduce(|a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
                .unwrap_or_default();
            (
                collect + render + parse + response + create_destroy,
                median(&cycle),
            )
        }
        Some(base) => {
            let bids = tally.counter("shop.bids_requested") / (n * tally.plants.max(1) as f64);
            let replayed = (tally.counter("shop.orders_adopted")
                + tally.counter("shop.orders_resumed")
                + tally.counter("shop.orders_restarted"))
                / n;
            let lookups = tally.counter("warehouse.lookups") / n;
            let publishes = (3 + config.zipf_goldens) as f64 * tally.sites as f64 / n;
            let publish = publish_us(&tracer, &config);
            (
                collect * bids + render + parse * replayed + lookup * lookups + publish * publishes,
                base,
            )
        }
    };
    report.value(
        "layers.covered_share",
        "ratio",
        covered / base,
        tally.orders,
    );
    report.note(format!(
        "layers.covered_share {:.3}: replayed layers cover an estimated {:.1} of {:.1} host us per order; the rest is unattributed",
        covered / base,
        covered,
        base
    ));
    for (name, (calls, total, own)) in tracer.self_times() {
        report.note(format!(
            "span {name:<32} calls {calls:>7}  total {:>12.1} us  self {:>12.1} us",
            total, own
        ));
    }
    if let Some(path) = trace_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create the trace directory");
        }
        std::fs::write(path, tracer.to_jsonl()).expect("write the span trace");
        report.note(format!("spans written to {path}"));
    }
}
