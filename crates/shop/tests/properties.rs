//! Property tests: the XML service protocol round-trips arbitrary
//! requests, and bid selection is total and fair.

use vmplants_dag::{Action, ActionKind, ConfigDag};
use vmplants_plant::{ErrorCode, ProductionOrder, Request, Response, VmId};
use vmplants_simkit::{prop, SimRng, SpanId};
use vmplants_virt::{VmSpec, VmmType};
use vmplants_vnet::ProxyEndpoint;

const CASES: u32 = 256;
const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LOWER_DIGITS: &str = "abcdefghijklmnopqrstuvwxyz0123456789";

/// `[a-z][<rest>]{0,max}`, the tail capped at `size`.
fn word(rng: &mut SimRng, rest: &str, max: usize, size: usize) -> String {
    let mut w = prop::string(rng, LOWER, 1, 1);
    w.push_str(&prop::string(rng, rest, 0, max.min(size)));
    w
}

/// A chain DAG of 1..=7 host or guest actions (at most `size`).
fn arb_dag(rng: &mut SimRng, size: usize) -> ConfigDag {
    let mut dag = ConfigDag::new();
    let mut prev: Option<String> = None;
    for i in 0..rng.uniform_u64(1, size.clamp(1, 7) as u64) {
        let cmd = word(rng, &format!("{LOWER_DIGITS}-"), 12, size);
        let is_host = rng.chance(0.5);
        let nominal = rng.uniform_u64(0, 99_999);
        let id = format!("n{i}");
        let mut a = if is_host {
            Action::host(&id, cmd)
        } else {
            Action::guest(&id, cmd)
        };
        if nominal > 0 {
            a.nominal_ms = Some(nominal);
        }
        a.kind = if is_host {
            ActionKind::Host
        } else {
            ActionKind::Guest
        };
        dag.add_action(a).unwrap();
        if let Some(p) = prev {
            dag.add_edge(&p, &id).unwrap();
        }
        prev = Some(id);
    }
    dag
}

fn arb_order(rng: &mut SimRng, size: usize) -> ProductionOrder {
    let spec = VmSpec {
        memory_mb: [32u64, 64, 128, 256][rng.index(4)],
        disk_gb: rng.uniform_u64(1, 63),
        os: "linux-mandrake-8.1".into(),
        vmm: if rng.chance(0.5) {
            VmmType::UmlLike
        } else {
            VmmType::VmwareLike
        },
    };
    let domain = word(rng, &format!("{LOWER_DIGITS}.-"), 16, size);
    let dag = arb_dag(rng, size);
    let vm_id = rng.chance(0.5).then(|| {
        VmId(prop::string(
            rng,
            &format!("{LOWER_DIGITS}-"),
            1,
            size.clamp(1, 12),
        ))
    });
    ProductionOrder {
        spec,
        dag,
        client_domain: domain.clone(),
        proxy: ProxyEndpoint::new(domain, "proxy.example", 9300),
        vm_id,
        requirements: None,
        trace_parent: SpanId::NONE,
    }
}

fn orders_equal(a: &ProductionOrder, b: &ProductionOrder) -> bool {
    a.spec == b.spec
        && a.dag == b.dag
        && a.client_domain == b.client_domain
        && a.proxy == b.proxy
        && a.vm_id == b.vm_id
        && a.requirements == b.requirements
}

/// Create and Estimate requests survive the wire byte-exactly.
#[test]
fn order_messages_round_trip() {
    prop::check(
        "order_messages_round_trip",
        CASES,
        16,
        |rng, size| (arb_order(rng, size), rng.chance(0.5)),
        |(order, as_estimate)| {
            let req = if *as_estimate {
                Request::Estimate(order.clone())
            } else {
                Request::Create(order.clone())
            };
            let wire = req.to_wire();
            match Request::from_wire(&wire).unwrap() {
                Request::Create(o) | Request::Estimate(o) => {
                    assert!(orders_equal(order, &o), "wire: {wire}");
                }
                other => panic!("wrong variant {other:?}"),
            }
        },
    );
}

/// Responses round-trip, including error payloads with hostile text.
/// Codes are drawn from the closed [`ErrorCode`] set — arbitrary
/// strings would decode to `ErrorCode::Unknown` by design.
#[test]
fn responses_round_trip() {
    let printable: String = (' '..='~').collect();
    prop::check(
        "responses_round_trip",
        CASES,
        60,
        |rng, size| {
            let cost = rng.uniform(0.0, 1e6);
            let code = ErrorCode::ALL[rng.index(ErrorCode::ALL.len())];
            (cost, code, prop::string(rng, &printable, 0, size))
        },
        |(cost, code, msg)| {
            for resp in [
                Response::Bid(*cost),
                Response::Error {
                    code: *code,
                    message: msg.clone(),
                },
            ] {
                let wire = resp.to_wire();
                let decoded = Response::from_wire(&wire).unwrap();
                match (&resp, &decoded) {
                    (Response::Bid(a), Response::Bid(b)) => assert_eq!(a, b),
                    (
                        Response::Error {
                            code: c1,
                            message: m1,
                        },
                        Response::Error {
                            code: c2,
                            message: m2,
                        },
                    ) => {
                        assert_eq!(c1, c2);
                        assert_eq!(m1.trim(), m2.trim(), "wire: {wire}");
                    }
                    _ => panic!("variant changed"),
                }
            }
        },
    );
}

/// Bid selection picks a strict-minimum bid when one exists, and over
/// many draws every tied minimum is eventually selected.
#[test]
fn bid_selection_is_min_and_fair() {
    use std::cell::RefCell;
    use std::rc::Rc;
    use vmplants_cluster::host::{Host, HostSpec};
    use vmplants_cluster::nfs::NfsServer;
    use vmplants_plant::{DomainDirectory, Plant, PlantConfig};
    use vmplants_shop::bidding::{select_bid, Bid};
    use vmplants_warehouse::Warehouse;

    prop::check(
        "bid_selection_is_min_and_fair",
        CASES,
        9,
        |rng, size| prop::vec(rng, 1, size, |rng| rng.index(5) as u32),
        |costs| {
            let mut seed_rng = SimRng::seed_from_u64(9);
            let bids: Vec<Bid> = costs
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let plant = Plant::new(
                        PlantConfig::new(format!("p{i}")),
                        Host::new(HostSpec::e1350_node(format!("p{i}"))),
                        NfsServer::new("s"),
                        Rc::new(RefCell::new(Warehouse::new())),
                        DomainDirectory::new(),
                        &mut seed_rng,
                    );
                    Bid {
                        plant,
                        cost: c as f64,
                    }
                })
                .collect();
            let min = *costs.iter().min().unwrap();
            let minima: std::collections::BTreeSet<String> = costs
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c == min)
                .map(|(i, _)| format!("p{i}"))
                .collect();
            let mut rng = SimRng::seed_from_u64(42);
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..200 {
                let winner = select_bid(&bids, &[], &mut rng).unwrap();
                assert_eq!(winner.cost, min as f64);
                seen.insert(winner.plant.name());
            }
            // With 200 draws, all tied minima (at most 9) appear w.h.p.
            assert_eq!(seen, minima);
        },
    );
}
