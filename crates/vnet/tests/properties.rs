//! Property tests: the §3.3 exclusivity invariant survives arbitrary
//! attach/detach interleavings, and every planned virtual LAN is
//! connected and spanning.

use std::collections::BTreeSet;
use vmplants_simkit::{prop, SimRng};
use vmplants_vnet::architect::{plan_virtual_lan, SegmentRef};
use vmplants_vnet::{
    DomainIpAllocator, HostOnlyPool, NetworkId, ProxyEndpoint, VirtualNetworkService,
};

const CASES: u32 = 256;

#[derive(Clone, Debug)]
enum Op {
    Attach(u8),
    DetachOldest,
}

/// Up to `size` operations, attach and detach equally likely.
fn arb_ops(rng: &mut SimRng, size: usize) -> Vec<Op> {
    prop::vec(rng, 0, size, |rng| {
        if rng.chance(0.5) {
            Op::Attach(rng.index(5) as u8)
        } else {
            Op::DetachOldest
        }
    })
}

/// Whatever sequence of attaches and detaches runs, no two networks
/// ever serve the same domain, and no network serves two domains.
#[test]
fn pool_invariant_under_churn() {
    prop::check(
        "pool_invariant_under_churn",
        CASES,
        63,
        |rng, size| (arb_ops(rng, size), rng.uniform_u64(1, 5) as usize),
        |(ops, pool_size)| {
            let mut pool = HostOnlyPool::new(*pool_size);
            let mut live: Vec<NetworkId> = Vec::new();
            for op in ops {
                match *op {
                    Op::Attach(d) => {
                        if let Ok((n, _)) = pool.attach(&format!("domain{d}")) {
                            live.push(n);
                        }
                    }
                    Op::DetachOldest => {
                        if !live.is_empty() {
                            let n = live.remove(0);
                            pool.detach(n).unwrap();
                        }
                    }
                }
                assert!(pool.invariant_holds());
                assert_eq!(pool.total_vms(), live.len());
                assert!(pool.free_count() <= pool.size());
            }
            // Draining everything returns the pool to empty.
            for n in live {
                pool.detach(n).unwrap();
            }
            assert_eq!(pool.free_count(), pool.size());
            assert_eq!(pool.total_vms(), 0);
        },
    );
}

/// Leases through the full service never leak: after releasing every
/// lease, all networks and IPs are free again.
#[test]
fn service_leases_are_leak_free() {
    prop::check("service_leases_are_leak_free", CASES, 63, arb_ops, |ops| {
        let mut s = VirtualNetworkService::new();
        s.register_plant("p", 3, 9400);
        for d in 0..5u8 {
            s.register_domain(DomainIpAllocator::new(
                format!("domain{d}"),
                [10, 0, d],
                1,
                200,
            ));
        }
        let mut leases = Vec::new();
        for op in ops {
            match *op {
                Op::Attach(d) => {
                    let proxy = ProxyEndpoint::new(format!("domain{d}"), "proxy", 1);
                    if let Ok(l) = s.lease("p", &proxy) {
                        leases.push(l);
                    }
                }
                Op::DetachOldest => {
                    if !leases.is_empty() {
                        let l = leases.remove(0);
                        s.release(&l).unwrap();
                    }
                }
            }
            assert!(s.invariants_hold());
        }
        for l in leases {
            s.release(&l).unwrap();
        }
        assert_eq!(s.free_networks("p").unwrap(), 3);
    });
}

/// Every planned virtual LAN is a connected star: one tunnel per
/// non-hub segment, a router per segment, and the hub carries the
/// largest VM count.
#[test]
fn plans_are_spanning_stars() {
    prop::check(
        "plans_are_spanning_stars",
        CASES,
        11,
        |rng, size| {
            let segs = prop::vec(rng, 1, size, |rng| (rng.index(10) as u8, rng.index(4)));
            let seg_specs: BTreeSet<(u8, usize)> = segs.into_iter().collect();
            let vm_counts: Vec<usize> = (0..12).map(|_| rng.index(20)).collect();
            (seg_specs, vm_counts)
        },
        |(seg_specs, vm_counts)| {
            let segments: Vec<SegmentRef> = seg_specs
                .iter()
                .enumerate()
                .map(|(i, &(plant, net))| SegmentRef {
                    plant: format!("node{plant}"),
                    network: NetworkId(net),
                    vm_count: vm_counts[i % vm_counts.len()],
                })
                .collect();
            let n = segments.len();
            let plan = plan_virtual_lan("domain", segments).unwrap();
            assert!(plan.is_connected());
            if n == 1 {
                assert_eq!(plan.tunnel_count(), 0);
                assert!(plan.routers.is_empty());
            } else {
                assert_eq!(plan.tunnel_count(), n - 1);
                assert_eq!(plan.routers.len(), n);
                // The hub carries the maximum VM count.
                let hub = plan.hub().unwrap().to_owned();
                let hub_vms = plan
                    .segments
                    .iter()
                    .find(|s| s.plant == hub)
                    .unwrap()
                    .vm_count;
                assert!(plan.segments.iter().all(|s| s.vm_count <= hub_vms));
            }
        },
    );
}
