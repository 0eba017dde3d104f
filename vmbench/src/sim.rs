//! The untraced pass of the simulated workloads (`steady`, `storm`,
//! `zipf`): repeated passes of `run_chaos` over the seeded site pool, each
//! followed by an in-process create replay and a few timed site set-ups.

use std::time::Instant;

use vmplants::{run_chaos, ChaosConfig, ChaosReport, SimSite};

use crate::report::{quantile, Report};
use crate::workload::Plan;

/// Pool sites whose orders each round replays as in-process creates.
const REPLAY_SITES: usize = 3;

/// Seconds of host time for `setup_s`: parse, compile and build one
/// round's worth of sites, continuing through the pool from `done`.
fn setup_times(plan: &Plan, done: usize) -> impl Iterator<Item = f64> + '_ {
    (done..done + plan.workload.setups_per_round()).map(|i| {
        let start = Instant::now();
        let site = plan.build_site(i % plan.workload.pool());
        let secs = start.elapsed().as_secs_f64();
        drop(std::hint::black_box(site));
        secs
    })
}

/// The checks every simulated run must pass.
pub fn check_run(report: &mut Report, site: usize, run: &ChaosReport) {
    report.check(run.hung_orders == 0, run.hung_orders as u64, || {
        format!("site {site}: {} hung orders", run.hung_orders)
    });
    if let Some(recovery) = &run.recovery {
        report.check(
            recovery.duplicate_vms == 0,
            recovery.duplicate_vms as u64,
            || {
                format!(
                    "site {site}: {} duplicate VMs after a shop crash",
                    recovery.duplicate_vms
                )
            },
        );
    }
}

/// `(failed + ½) / (attempted + 1)`: the failure share with a continuity
/// correction, so a run without failures reads as a small positive share
/// that still shrinks as more orders pass.
pub fn failed_share(attempted: u64, failed: u64) -> f64 {
    (failed as f64 + 0.5) / (attempted as f64 + 1.0)
}

pub fn run(plan: &Plan, seconds: f64, report: &mut Report) {
    let configs: Vec<ChaosConfig> = (0..plan.workload.pool()).map(|i| plan.compile(i)).collect();
    let (mut p50s, mut p99s, mut creates) = (Vec::new(), Vec::new(), 0u64);
    let mut setup = Vec::new();

    let mut first: Vec<String> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let (mut requests, mut successes) = (0u64, 0u64);
    let mut rates = Vec::new();
    let start = Instant::now();
    let mut last_round = 0.0;
    // Whole rounds only, so every pass runs the same sites; each round
    // also replays one site's requests and times a few set-ups, so every
    // host-time measure samples the whole run alike.
    while rates.is_empty() || start.elapsed().as_secs_f64() + last_round <= seconds {
        let round = Instant::now();
        let pass = rates.len();
        let (mut wall, mut ok) = (0.0, 0);
        for (i, config) in configs.iter().enumerate() {
            let t = Instant::now();
            let run = run_chaos(config);
            wall += t.elapsed().as_secs_f64();
            ok += run.successes;
            report.attempted += run.requests as u64;
            let rendered = run.render_full();
            if pass == 0 {
                check_run(report, i, &run);
                requests += run.requests as u64;
                successes += run.successes as u64;
                latencies.extend_from_slice(&run.latency_samples);
                first.push(rendered);
            } else {
                report.check(rendered == first[i], run.requests as u64, || {
                    format!("site {i}: pass {pass} report differs from pass 0")
                });
            }
        }
        rates.push(ok as f64 / wall);
        // The create round trip without socket or XML: fresh sites, built
        // like the pass's, serve the orders of a few pool sites one create
        // at a time, VMs kept running as in `run_chaos`; faults are not
        // applied. Percentiles per round, then their median, as on `live`.
        let mut request_us = Vec::new();
        for k in 0..REPLAY_SITES {
            let config = &configs[(REPLAY_SITES * pass + k) % configs.len()];
            let mut site = SimSite::build(Plan::site_config(config));
            for order in Plan::orders(config) {
                let t = Instant::now();
                let created = site.create_order(order);
                request_us.push(t.elapsed().as_secs_f64() * 1e6);
                report.attempted += 1;
                if let Err(e) = created {
                    report.check(false, 1, || format!("in-process create failed: {e}"));
                }
            }
        }
        p50s.push(quantile(&request_us, 0.50));
        p99s.push(quantile(&request_us, 0.99));
        creates += request_us.len() as u64;
        setup.extend(setup_times(plan, setup.len()));
        last_round = round.elapsed().as_secs_f64();
    }
    report.note(format!(
        "{} rounds over {} sites, {} orders per pass",
        rates.len(),
        configs.len(),
        requests
    ));
    report.samples("orders_per_s", "1/s", rates);
    report.samples("setup_s", "s", setup);
    report.value(
        "failed_share",
        "ratio",
        failed_share(requests, requests - successes),
        requests,
    );
    let n = latencies.len() as u64;
    report.value("sim_p50_s", "s", quantile(&latencies, 0.50), n);
    report.value("sim_p99_s", "s", quantile(&latencies, 0.99), n);
    report.note(format!("{creates} timed creates"));
    report.samples("request_p50_us", "us", p50s);
    report.samples("request_p99_us", "us", p99s);
}
