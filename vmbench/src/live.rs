//! The untraced pass of `live`: one closed-loop client against
//! `LiveShop` on loopback.

use std::time::{Duration, Instant};

use vmplants::live::{LiveShop, ShopClient};

use crate::cycle::{self, Op};
use crate::report::{quantile, Report};
use crate::sim::failed_share;
use crate::workload::Plan;

/// `failed_share` is scored over this many leading cycles, so its
/// denominator does not depend on host speed.
const SCORED_CYCLES: usize = 1000;
/// Cycles one shop serves before the next pool site takes over: the
/// shop's journal grows with every order, so sessions keep peak memory
/// independent of how many cycles the run gets through.
const SESSION_CYCLES: usize = 2000;
/// Width of the windows whose cycle counts give `orders_per_s`.
const WINDOW: Duration = Duration::from_millis(1000);

/// Seconds from `LiveShop::start` to the first answered request, for one
/// session's worth of set-ups continuing through the pool from `done`.
fn setup_times(plan: &Plan, done: usize) -> impl Iterator<Item = f64> + '_ {
    (done..done + plan.workload.setups_per_round()).map(|i| {
        let config = plan.compile(i % plan.workload.pool());
        let order = Plan::orders(&config).swap_remove(0);
        let start = Instant::now();
        let shop = LiveShop::start(Plan::site_config(&config)).expect("bind loopback");
        ShopClient::connect(shop.addr())
            .estimate(order)
            .expect("first request answered");
        let secs = start.elapsed().as_secs_f64();
        shop.stop();
        secs
    })
}

pub fn run(plan: &Plan, seconds: f64, report: &mut Report) {
    let mut setup = Vec::new();
    let mut window_us = Vec::new();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut create_s = Vec::new();
    let mut windows: Vec<f64> = Vec::new();
    let mut scored = (0, 0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut window_end = start + WINDOW;
    let mut in_window = 0u32;
    let mut cycles = 0;
    let mut requests = 0u64;
    'sessions: for session in 0.. {
        setup.extend(setup_times(plan, setup.len()));
        let config = plan.compile(session % plan.workload.pool());
        let orders = Plan::orders(&config);
        let shop = LiveShop::start(Plan::site_config(&config)).expect("bind loopback");
        let client = ShopClient::connect(shop.addr());
        for order in orders.iter().cycle().take(SESSION_CYCLES) {
            let now = Instant::now();
            if now >= deadline {
                shop.stop();
                break 'sessions;
            }
            while now >= window_end {
                windows.push(f64::from(in_window) / WINDOW.as_secs_f64());
                if !window_us.is_empty() {
                    p50s.push(quantile(&window_us, 0.50));
                    p99s.push(quantile(&window_us, 0.99));
                    requests += window_us.len() as u64;
                    window_us.clear();
                }
                in_window = 0;
                window_end += WINDOW;
            }
            let before = (report.attempted, report.failed);
            let mut sink =
                |_: Op, a: Instant, b: Instant| window_us.push((b - a).as_secs_f64() * 1e6);
            if let Some(ad) = cycle::live(&client, order, &mut sink, report) {
                create_s.push(ad.get_f64("create_s").unwrap_or(f64::NAN));
            }
            cycles += 1;
            in_window += 1;
            if cycles <= SCORED_CYCLES {
                scored.0 += report.attempted - before.0;
                scored.1 += report.failed - before.1;
            }
        }
        shop.stop();
    }
    report.note(format!("{cycles} cycles, {} whole windows", windows.len()));
    report.samples("orders_per_s", "1/s", windows);
    report.samples("setup_s", "s", setup);
    report.value(
        "failed_share",
        "ratio",
        failed_share(scored.0, scored.1),
        scored.0,
    );
    let n = create_s.len() as u64;
    report.value("sim_p50_s", "s", quantile(&create_s, 0.50), n);
    report.value("sim_p99_s", "s", quantile(&create_s, 0.99), n);
    // Percentiles per window, then their median: one stalled window of a
    // shared host moves the result by one sample, not by its whole tail.
    report.note(format!("{requests} requests in whole windows"));
    report.samples("request_p50_us", "us", p50s);
    report.samples("request_p99_us", "us", p99s);
}
