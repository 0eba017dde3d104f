//! One client cycle, estimate → create → query → destroy, in process
//! through `SimSite` or over loopback through the live shop, with the
//! output checks every cycle must pass.

use std::time::Instant;

use vmplants::classad::ClassAd;
use vmplants::live::ShopClient;
use vmplants::plant::{ProductionOrder, VmId};
use vmplants::shop::bidding::collect_bids;
use vmplants::SimSite;

use crate::report::Report;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Estimate,
    Create,
    Query,
    Destroy,
}

impl Op {
    pub const ALL: [Op; 4] = [Op::Estimate, Op::Create, Op::Query, Op::Destroy];

    pub fn name(self) -> &'static str {
        match self {
            Op::Estimate => "estimate",
            Op::Create => "create",
            Op::Query => "query",
            Op::Destroy => "destroy",
        }
    }
}

/// Receives the host interval of every call a cycle makes.
pub type Sink<'a> = &'a mut dyn FnMut(Op, Instant, Instant);

fn timed<R>(op: Op, sink: &mut dyn FnMut(Op, Instant, Instant), f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = std::hint::black_box(f());
    sink(op, start, Instant::now());
    r
}

/// Check one cycle's answers; returns the created VM's classad when the
/// cycle was correct. Each wrong answer fails one request.
fn checked<E: std::fmt::Display>(
    report: &mut Report,
    estimate: Result<f64, E>,
    create: Result<ClassAd, E>,
    mut rest: impl FnMut(&VmId) -> (Result<ClassAd, E>, Result<ClassAd, E>),
) -> Option<ClassAd> {
    report.attempted += 2;
    report.check(estimate.is_ok(), 1, || "estimate failed".to_string());
    let ad = match create {
        Ok(ad) => ad,
        Err(e) => {
            report.check(false, 1, || format!("create failed: {e}"));
            return None;
        }
    };
    let Some(id) = ad.get_str("vmid") else {
        report.check(false, 1, || "created classad has no vmid".to_string());
        return None;
    };
    report.attempted += 2;
    let (query, destroy) = rest(&VmId(id));
    let state = query.as_ref().ok().and_then(|q| q.get_str("state"));
    report.check(state.as_deref() == Some("running"), 1, || {
        format!("created VM queries as {state:?}, not running")
    });
    report.check(destroy.is_ok(), 1, || "destroy failed".to_string());
    Some(ad)
}

/// One cycle against an in-process site (the live server's handler
/// without the socket and the XML).
pub fn in_process(
    site: &mut SimSite,
    order: &ProductionOrder,
    sink: Sink,
    report: &mut Report,
) -> Option<ClassAd> {
    let estimate = timed(Op::Estimate, sink, || {
        collect_bids(&site.shop.plants(), order)
            .iter()
            .map(|b| b.cost)
            .fold(f64::INFINITY, f64::min)
    });
    let estimate = if estimate.is_finite() {
        Ok(estimate)
    } else {
        Err("no plant answered the estimate".into())
    };
    let create =
        timed(Op::Create, sink, || site.create_order(order.clone())).map_err(|e| e.to_string());
    checked(report, estimate, create, |id| {
        let query = timed(Op::Query, sink, || site.query_vm(id)).map_err(|e| e.to_string());
        let destroy = timed(Op::Destroy, sink, || site.destroy_vm(id)).map_err(|e| e.to_string());
        (query, destroy)
    })
}

/// One cycle over loopback TCP: four connections, one at a time.
pub fn live(
    client: &ShopClient,
    order: &ProductionOrder,
    sink: Sink,
    report: &mut Report,
) -> Option<ClassAd> {
    let estimate = timed(Op::Estimate, sink, || client.estimate(order.clone()));
    let create = timed(Op::Create, sink, || client.create(order.clone()));
    checked(report, estimate, create, |id| {
        let query = timed(Op::Query, sink, || client.query(id));
        let destroy = timed(Op::Destroy, sink, || client.destroy(id));
        (query, destroy)
    })
}
