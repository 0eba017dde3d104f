//! Property tests for the unreliable transport: across random fault
//! schedules (drop/dup/reorder probabilities, optional one-way
//! partitions, arbitrary seeds) the exactly-once invariant holds — at
//! most one live VM per order, no leaked leases or clones after
//! quiescence, and duplicated destroys are no-ops.

use vmplants::chaos::{run_chaos_with_site, ChaosConfig};
use vmplants_plant::Plant;
use vmplants_shop::ShopError;
use vmplants_simkit::{prop, FaultPlan, SimDuration, SimTime};

#[derive(Debug)]
struct Schedule {
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    reorder_p: f64,
    partition: bool,
}

#[test]
fn exactly_once_holds_under_random_fault_schedules() {
    prop::check(
        "exactly_once_holds_under_random_fault_schedules",
        12,
        1,
        |rng, _| Schedule {
            seed: rng.uniform_u64(0, 9_999),
            drop_p: rng.uniform(0.0, 0.4),
            dup_p: rng.uniform(0.0, 0.3),
            reorder_p: rng.uniform(0.0, 0.4),
            partition: rng.chance(0.5),
        },
        |s| {
            let window = SimDuration::from_secs(30 * 86_400);
            let mut plan = FaultPlan::new()
                .message_loss_at(SimTime::ZERO, "shop", s.drop_p, window)
                .message_duplicate_at(SimTime::ZERO, "shop", s.dup_p, window)
                .message_reorder_at(SimTime::ZERO, "shop", s.reorder_p, window);
            if s.partition {
                plan = plan.partition_at(
                    SimTime::from_secs(30),
                    "shop->node2",
                    SimDuration::from_secs(45),
                );
            }
            let (report, mut site) = run_chaos_with_site(&ChaosConfig {
                seed: s.seed,
                requests: 6,
                arrival_interval: SimDuration::from_secs(20),
                plan,
                ..ChaosConfig::default()
            });

            // Every order settles: success or typed error, never a hang.
            assert_eq!(report.hung_orders, 0);
            assert_eq!(report.successes + report.errors.len(), report.requests);

            // At most one live VM per order, each resident on one plant.
            assert_eq!(site.total_vms(), report.successes);
            let mut ids = Vec::new();
            for plant in &site.plants {
                ids.extend(plant.list_vms().unwrap_or_default());
            }
            let unique: std::collections::BTreeSet<_> = ids.iter().cloned().collect();
            assert_eq!(unique.len(), ids.len(), "a VM id is resident twice");

            // Duplicated destroys are no-ops; cleanup reclaims everything.
            for id in &ids {
                assert!(site.destroy_vm(id).is_ok());
                assert!(matches!(site.destroy_vm(id), Err(ShopError::UnknownVm(_))));
            }
            assert_eq!(site.total_vms(), 0);
            let leases: usize = site.plants.iter().map(Plant::networks_in_use).sum();
            assert_eq!(leases, 0, "network leases leaked");
        },
    );
}
