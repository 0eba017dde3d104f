//! The shop's durable write-ahead order journal.
//!
//! "The classad of an active virtual machine is maintained by its
//! corresponding VMPlant … thus facilitating service restoration in the
//! presence of failures" (§3.1) — the plants are the source of truth for
//! *VM* state, but the shop is the only component that knows which
//! *orders* it has accepted and where each one stands. The journal is
//! the append-only record of those order lifecycle transitions —
//! received, bids requested, dispatched, published, failed — keyed by
//! the envelope idempotency keys, and it is the one piece of shop state
//! modeled as durable: a [`crate::VmShop::crash`] wipes every volatile
//! structure (soft cache, pending calls, client waiters) but the
//! journal survives, and [`crate::VmShop::recover`] replays it into the
//! next incarnation.
//!
//! Records are typed: `received` carries the accepted
//! [`ProductionOrder`], `published` its [`ClassAd`], `failed` its
//! [`ShopError`]. This module is the only one that knows the record
//! format. [`Journal::push`] renders each record's trace line once and
//! moves its payload into the per-order fold, where the order body is
//! held only until the order settles — recovery re-dispatches unsettled
//! orders and nothing reads the body afterwards. The journal is
//! modeled in memory and only the shop writes it, so it has no wire
//! form and no corrupt-record path; a real durable backend would bring
//! both. Appending draws no randomness and schedules no events, so
//! journaling never perturbs the simulation's byte-level determinism.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use vmplants_classad::ClassAd;
use vmplants_plant::{ProductionOrder, VmId};
use vmplants_simkit::SimTime;

use crate::shop::ShopError;

/// One order lifecycle transition.
#[derive(Clone, Debug)]
pub enum JournalRecord {
    /// The order was accepted and assigned a VMID. `key` is the
    /// client's idempotency key (synthesized for legacy direct calls),
    /// `order` the accepted order, so a recovering incarnation can
    /// re-dispatch without any volatile state.
    Received {
        /// Client idempotency key.
        key: String,
        /// The VMID the shop assigned.
        vm_id: VmId,
        /// The accepted order.
        order: Box<ProductionOrder>,
        /// When the shop accepted the order.
        at: SimTime,
    },
    /// Bids were solicited from `plants` candidate plants.
    BidsRequested {
        /// The order's VMID.
        vm_id: VmId,
        /// How many plants were asked to bid.
        plants: usize,
        /// When the bid round started.
        at: SimTime,
    },
    /// The order was sent to `plant` as dispatch number `attempt` —
    /// the envelope key `create:{vm_id}:{attempt}` is derivable, which
    /// is what lets recovery re-dispatch under the *same* key and lean
    /// on the plant's dedup cache.
    Dispatched {
        /// The order's VMID.
        vm_id: VmId,
        /// The plant that won the bid.
        plant: String,
        /// Zero-based dispatch count.
        attempt: u32,
        /// When the dispatch was issued.
        at: SimTime,
    },
    /// The finished VM's classad was published to the client: a
    /// resubmission after a crash is answered straight from this
    /// record, with zero re-execution.
    Published {
        /// The order's VMID.
        vm_id: VmId,
        /// The plant hosting the VM.
        plant: String,
        /// The final classad.
        ad: ClassAd,
        /// When the shop responded.
        at: SimTime,
    },
    /// The order failed terminally; `error` is replayed as is to
    /// resubmissions.
    Failed {
        /// The order's VMID.
        vm_id: VmId,
        /// The terminal error.
        error: ShopError,
        /// When the shop responded.
        at: SimTime,
    },
}

impl fmt::Display for JournalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalRecord::Received { key, vm_id, at, .. } => {
                write!(f, "[{at}] received {vm_id} key={key}")
            }
            JournalRecord::BidsRequested { vm_id, plants, at } => {
                write!(f, "[{at}] bids-requested {vm_id} plants={plants}")
            }
            JournalRecord::Dispatched {
                vm_id,
                plant,
                attempt,
                at,
            } => write!(f, "[{at}] dispatched {vm_id} -> {plant} attempt={attempt}"),
            JournalRecord::Published { vm_id, plant, at, .. } => {
                write!(f, "[{at}] published {vm_id} plant={plant}")
            }
            JournalRecord::Failed { vm_id, error, at } => {
                write!(f, "[{at}] failed {vm_id}: {error}")
            }
        }
    }
}

/// The settled outcome of an order, as journaled.
#[derive(Clone, Debug)]
pub enum JournalOutcome {
    /// Creation succeeded on `plant` and published `ad`.
    Published {
        /// Hosting plant.
        plant: String,
        /// The published classad.
        ad: ClassAd,
    },
    /// The order failed terminally.
    Failed {
        /// The terminal error.
        error: ShopError,
    },
}

/// Where a journaled order stands.
#[derive(Clone, Debug)]
pub enum OrderStage {
    /// Accepted and not yet settled: the order body, kept for recovery
    /// to re-dispatch.
    Open(Box<ProductionOrder>),
    /// Settled; the body has been dropped.
    Settled(JournalOutcome),
}

/// The folded per-order view of the journal: everything a recovering
/// incarnation needs to decide adopt / resume / restart.
#[derive(Clone, Debug)]
pub struct OrderState {
    /// Client idempotency key.
    pub key: String,
    /// When the order was accepted (deadlines survive restarts).
    pub received_at: SimTime,
    /// Every dispatch issued, in order: `(plant, attempt)`.
    pub dispatches: Vec<(String, u32)>,
    /// The order body until it settles, then its outcome.
    pub stage: OrderStage,
}

/// Append-only order journal: the rendered record trace plus an
/// incrementally-maintained fold (per-order state and key index).
#[derive(Default)]
pub struct Journal {
    trace: String,
    records: usize,
    orders: BTreeMap<VmId, OrderState>,
    by_key: BTreeMap<String, VmId>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Append one record: render its trace line and fold its payload
    /// into the per-order view.
    pub fn push(&mut self, record: JournalRecord) {
        writeln!(self.trace, "{record}").expect("writing to a String cannot fail");
        self.records += 1;
        match record {
            JournalRecord::Received {
                key,
                vm_id,
                order,
                at,
            } => {
                self.by_key.insert(key.clone(), vm_id.clone());
                self.orders.insert(
                    vm_id,
                    OrderState {
                        key,
                        received_at: at,
                        dispatches: Vec::new(),
                        stage: OrderStage::Open(order),
                    },
                );
            }
            JournalRecord::BidsRequested { .. } => {}
            JournalRecord::Dispatched {
                vm_id,
                plant,
                attempt,
                ..
            } => {
                if let Some(order) = self.orders.get_mut(&vm_id) {
                    order.dispatches.push((plant, attempt));
                }
            }
            JournalRecord::Published {
                vm_id, plant, ad, ..
            } => self.settle(&vm_id, JournalOutcome::Published { plant, ad }),
            JournalRecord::Failed { vm_id, error, .. } => {
                self.settle(&vm_id, JournalOutcome::Failed { error })
            }
        }
    }

    /// Record `vm_id`'s outcome, dropping its order body.
    fn settle(&mut self, vm_id: &VmId, outcome: JournalOutcome) {
        if let Some(order) = self.orders.get_mut(vm_id) {
            order.stage = OrderStage::Settled(outcome);
        }
    }

    /// Number of appended records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The settled outcome for a client key, if the order it names has
    /// finished — the resubmission fast path.
    pub fn outcome_for_key(&self, key: &str) -> Option<&JournalOutcome> {
        let vm_id = self.by_key.get(key)?;
        match &self.orders.get(vm_id)?.stage {
            OrderStage::Open(_) => None,
            OrderStage::Settled(outcome) => Some(outcome),
        }
    }

    /// Per-order folded state, by VMID.
    pub fn order(&self, vm_id: &VmId) -> Option<&OrderState> {
        self.orders.get(vm_id)
    }

    /// Orders with no journaled outcome — the recovery work list, in
    /// VMID order (deterministic); each is still [`OrderStage::Open`].
    pub fn unsettled(&self) -> Vec<(VmId, OrderState)> {
        self.orders
            .iter()
            .filter(|(_, o)| matches!(o.stage, OrderStage::Open(_)))
            .map(|(id, o)| (id.clone(), o.clone()))
            .collect()
    }

    /// Every settled order's outcome, in VMID order.
    pub fn settled(&self) -> impl Iterator<Item = (&VmId, &JournalOutcome)> {
        self.orders.iter().filter_map(|(id, o)| match &o.stage {
            OrderStage::Open(_) => None,
            OrderStage::Settled(outcome) => Some((id, outcome)),
        })
    }

    /// One line per record — the byte-comparable recovery trace.
    pub fn render(&self) -> String {
        self.trace.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_dag::ConfigDag;
    use vmplants_virt::VmSpec;

    fn vm(n: u32) -> VmId {
        VmId(format!("vm-shop-{n:05}"))
    }

    fn received(key: &str, n: u32, at: SimTime) -> JournalRecord {
        JournalRecord::Received {
            key: key.into(),
            vm_id: vm(n),
            order: Box::new(ProductionOrder::new(
                VmSpec::mandrake(64),
                ConfigDag::new(),
                "ufl.edu",
            )),
            at,
        }
    }

    fn holds_body(j: &Journal, n: u32) -> bool {
        matches!(j.order(&vm(n)).unwrap().stage, OrderStage::Open(_))
    }

    #[test]
    fn fold_tracks_lifecycle_and_outcomes() {
        let mut j = Journal::new();
        j.push(received("order:c:0", 0, SimTime::from_secs(1)));
        j.push(JournalRecord::BidsRequested {
            vm_id: vm(0),
            plants: 3,
            at: SimTime::from_secs(2),
        });
        j.push(JournalRecord::Dispatched {
            vm_id: vm(0),
            plant: "node1".into(),
            attempt: 0,
            at: SimTime::from_secs(3),
        });
        assert!(j.outcome_for_key("order:c:0").is_none());
        assert_eq!(j.unsettled().len(), 1);
        let (_, state) = &j.unsettled()[0];
        assert_eq!(state.dispatches, vec![("node1".to_string(), 0)]);
        assert_eq!(state.received_at, SimTime::from_secs(1));

        let mut ad = ClassAd::new();
        ad.set_value("vmid", "vm-shop-00000");
        j.push(JournalRecord::Published {
            vm_id: vm(0),
            plant: "node1".into(),
            ad,
            at: SimTime::from_secs(40),
        });
        assert!(j.unsettled().is_empty());
        assert!(matches!(
            j.outcome_for_key("order:c:0"),
            Some(JournalOutcome::Published { plant, ad })
                if plant == "node1" && ad.get_str("vmid").as_deref() == Some("vm-shop-00000")
        ));
        assert_eq!(j.settled().count(), 1);
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn failed_orders_settle_and_render_is_line_per_record() {
        let mut j = Journal::new();
        j.push(received("k", 1, SimTime::ZERO));
        j.push(JournalRecord::Failed {
            vm_id: vm(1),
            error: ShopError::DeadlineExceeded(None),
            at: SimTime::from_secs(9),
        });
        assert!(matches!(
            j.outcome_for_key("k"),
            Some(JournalOutcome::Failed { error }) if *error == ShopError::DeadlineExceeded(None)
        ));
        let text = j.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("received vm-shop-00001 key=k"));
        assert!(text.contains("failed vm-shop-00001: order deadline exceeded"));
    }

    #[test]
    fn order_body_is_held_only_until_the_order_settles() {
        let mut j = Journal::new();
        for n in 0..3 {
            j.push(received(&format!("k{n}"), n, SimTime::ZERO));
        }
        j.push(JournalRecord::Published {
            vm_id: vm(0),
            plant: "node1".into(),
            ad: ClassAd::new(),
            at: SimTime::from_secs(5),
        });
        j.push(JournalRecord::Failed {
            vm_id: vm(1),
            error: ShopError::AllPlantsExcluded,
            at: SimTime::from_secs(6),
        });
        assert!(!holds_body(&j, 0), "published order still holds its body");
        assert!(!holds_body(&j, 1), "failed order still holds its body");
        assert!(holds_body(&j, 2));
        // Recovery still gets the body of the one open order.
        let open = j.unsettled();
        assert_eq!(open.len(), 1);
        let (id, state) = &open[0];
        assert_eq!(*id, vm(2));
        assert!(matches!(&state.stage, OrderStage::Open(order) if order.spec.memory_mb == 64));
    }
}
