// Gated: requires the `proptest` dev-dependency, unavailable in
// network-restricted builds. Enable with `--features proptests` after
// restoring the dependency.
#![cfg(feature = "proptests")]

//! Property tests: the XML service protocol round-trips arbitrary
//! requests, and bid selection is total and fair.

use proptest::prelude::*;
use vmplants_dag::{Action, ActionKind, ConfigDag};
use vmplants_plant::{ErrorCode, ProductionOrder, Request, Response, VmId};
use vmplants_simkit::SimRng;
use vmplants_virt::{VmSpec, VmmType};
use vmplants_vnet::ProxyEndpoint;

fn arb_dag() -> impl Strategy<Value = ConfigDag> {
    (
        1usize..8,
        proptest::collection::vec(("[a-z][a-z0-9-]{0,12}", any::<bool>(), 0u64..100_000), 1..8),
    )
        .prop_map(|(_, actions)| {
            let mut dag = ConfigDag::new();
            let mut prev: Option<String> = None;
            for (i, (cmd, is_host, nominal)) in actions.into_iter().enumerate() {
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
        })
}

fn arb_order() -> impl Strategy<Value = ProductionOrder> {
    (
        prop_oneof![Just(32u64), Just(64), Just(128), Just(256)],
        1u64..64,
        "[a-z][a-z0-9.-]{0,16}",
        any::<bool>(),
        arb_dag(),
        proptest::option::of("[a-z0-9-]{1,12}"),
    )
        .prop_map(|(mem, disk, domain, uml, dag, vmid)| {
            let spec = VmSpec {
                memory_mb: mem,
                disk_gb: disk,
                os: "linux-mandrake-8.1".into(),
                vmm: if uml {
                    VmmType::UmlLike
                } else {
                    VmmType::VmwareLike
                },
            };
            let mut order = ProductionOrder {
                spec,
                dag,
                client_domain: domain.clone(),
                proxy: ProxyEndpoint::new(domain, "proxy.example", 9300),
                vm_id: None,
                requirements: None,
            };
            if let Some(id) = vmid {
                order.vm_id = Some(VmId(id));
            }
            order
        })
}

fn orders_equal(a: &ProductionOrder, b: &ProductionOrder) -> bool {
    a.spec == b.spec
        && a.dag == b.dag
        && a.client_domain == b.client_domain
        && a.proxy == b.proxy
        && a.vm_id == b.vm_id
        && a.requirements == b.requirements
}

proptest! {
    /// Create and Estimate requests survive the wire byte-exactly.
    #[test]
    fn order_messages_round_trip(order in arb_order(), as_estimate in any::<bool>()) {
        let req = if as_estimate {
            Request::Estimate(order.clone())
        } else {
            Request::Create(order.clone())
        };
        let wire = req.to_wire();
        let decoded = Request::from_wire(&wire).unwrap();
        match decoded {
            Request::Create(o) | Request::Estimate(o) => {
                prop_assert!(orders_equal(&order, &o), "wire: {wire}");
            }
            other => prop_assert!(false, "wrong variant {other:?}"),
        }
    }

    /// Responses round-trip, including error payloads with hostile text.
    /// Codes are drawn from the closed [`ErrorCode`] set — arbitrary
    /// strings would decode to `ErrorCode::Unknown` by design.
    #[test]
    fn responses_round_trip(
        cost in 0.0f64..1e6,
        code_idx in 0..ErrorCode::ALL.len(),
        msg in "[ -~]{0,60}",
    ) {
        let code = ErrorCode::ALL[code_idx];
        for resp in [
            Response::Bid(cost),
            Response::Error { code, message: msg.clone() },
        ] {
            let wire = resp.to_wire();
            let decoded = Response::from_wire(&wire).unwrap();
            match (&resp, &decoded) {
                (Response::Bid(a), Response::Bid(b)) => prop_assert_eq!(a, b),
                (
                    Response::Error { code: c1, message: m1 },
                    Response::Error { code: c2, message: m2 },
                ) => {
                    prop_assert_eq!(c1, c2);
                    prop_assert_eq!(m1.trim(), m2.trim(), "wire: {}", wire);
                }
                _ => prop_assert!(false, "variant changed"),
            }
        }
    }

    /// Bid selection picks a strict-minimum bid when one exists, and over
    /// many draws every tied minimum is eventually selected.
    #[test]
    fn bid_selection_is_min_and_fair(costs in proptest::collection::vec(0u32..5, 1..10)) {
        use vmplants_shop::bidding::{select_bid, Bid};
        use std::cell::RefCell;
        use std::rc::Rc;
        use vmplants_cluster::host::{Host, HostSpec};
        use vmplants_cluster::nfs::NfsServer;
        use vmplants_plant::{DomainDirectory, Plant, PlantConfig};
        use vmplants_warehouse::Warehouse;

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
                Bid { plant, cost: c as f64 }
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
            prop_assert_eq!(winner.cost, min as f64);
            seen.insert(winner.plant.name());
        }
        // With 200 draws, all tied minima (at most 10) appear w.h.p.
        prop_assert_eq!(seen, minima);
    }
}
