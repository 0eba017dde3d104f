//! Property tests for DAG invariants and the matching-test algebra.

use std::collections::{BTreeSet, HashMap, HashSet};
use vmplants_dag::xml::{dag_from_xml, dag_to_xml};
use vmplants_dag::{
    match_image, Action, CompiledDag, ConfigDag, InternedLog, MatchFailure, PerformedLog,
    SigInterner,
};
use vmplants_simkit::{prop, SimRng};

const CASES: u32 = 256;
/// Largest generated DAG, in nodes.
const MAX_NODES: usize = 11;

/// A DAG of `n` nodes `n0..` with the given edges; only edges from a lower
/// to a higher index are added, so the graph is acyclic by construction.
fn dag_with(n: usize, edges: &BTreeSet<(usize, usize)>) -> ConfigDag {
    let mut dag = ConfigDag::new();
    for i in 0..n {
        dag.add_action(Action::guest(format!("n{i}"), format!("op-{i}")))
            .unwrap();
    }
    for &(a, b) in edges {
        if a < b {
            let _ = dag.add_edge(&format!("n{a}"), &format!("n{b}"));
        }
    }
    dag
}

/// A random DAG of 2..=`size` nodes (at most [`MAX_NODES`]) with up to
/// two candidate edges per node.
fn arb_dag(rng: &mut SimRng, size: usize) -> ConfigDag {
    let n = rng.uniform_u64(2, size.clamp(2, MAX_NODES) as u64) as usize;
    let edges = prop::vec(rng, 0, n * 2 - 1, |rng| (rng.index(n), rng.index(n)));
    dag_with(n, &edges.into_iter().collect())
}

/// Up to `max` (and at most `size`) scheduling choices in `0..8`.
fn arb_choices(rng: &mut SimRng, min: usize, max: usize, size: usize) -> Vec<usize> {
    prop::vec(rng, min, size.min(max), |rng| rng.index(8))
}

/// A valid execution prefix of a DAG: repeatedly pick a ready node. The
/// `choices` vector drives the (bounded) nondeterminism.
fn valid_prefix(dag: &ConfigDag, choices: &[usize], len: usize) -> PerformedLog {
    let mut done: HashSet<String> = HashSet::new();
    let mut log = Vec::new();
    for &c in choices.iter().take(len) {
        let ready: Vec<&Action> = dag
            .actions()
            .filter(|a| {
                !done.contains(&a.id)
                    && dag
                        .predecessors(&a.id)
                        .unwrap()
                        .iter()
                        .all(|p| done.contains(*p))
            })
            .collect();
        if ready.is_empty() {
            break;
        }
        let pick = ready[c % ready.len()].clone();
        done.insert(pick.id.clone());
        log.push(pick);
    }
    PerformedLog::from_actions(log)
}

/// Topological sort places every edge source before its target and
/// contains each node exactly once.
#[test]
fn topo_sort_is_valid() {
    prop::check("topo_sort_is_valid", CASES, MAX_NODES, arb_dag, |dag| {
        let order = dag.topo_sort().unwrap();
        assert_eq!(order.len(), dag.len());
        let pos: HashMap<&str, usize> = order
            .iter()
            .enumerate()
            .map(|(i, id)| (id.as_str(), i))
            .collect();
        assert_eq!(pos.len(), order.len(), "no duplicates");
        for (from, to) in dag.edges() {
            assert!(pos[from] < pos[to]);
        }
    });
}

/// Any valid execution prefix passes all three matching tests, and the
/// matched + residual sets partition the DAG.
fn assert_valid_prefix_matches(dag: &ConfigDag, choices: &[usize], len: usize) {
    let log = valid_prefix(dag, choices, len);
    let report = match_image(dag, &log).expect("valid prefix must match");
    assert_eq!(report.matched.len(), log.len());
    assert_eq!(report.matched.len() + report.residual.len(), dag.len());
    let matched: HashSet<&String> = report.matched.iter().collect();
    for r in &report.residual {
        assert!(!matched.contains(r));
    }
    // Residual order is itself topologically valid.
    let pos: HashMap<&str, usize> = report
        .residual
        .iter()
        .enumerate()
        .map(|(i, id)| (id.as_str(), i))
        .collect();
    for (from, to) in dag.edges() {
        if let (Some(&f), Some(&t)) = (pos.get(from), pos.get(to)) {
            assert!(f < t);
        }
    }
}

#[test]
fn valid_prefixes_always_match() {
    // A saved failing case: two unconnected nodes, both scheduled.
    let two_isolated = dag_with(2, &BTreeSet::new());
    for len in 0..=2 {
        assert_valid_prefix_matches(&two_isolated, &[0, 0], len);
    }
    prop::check(
        "valid_prefixes_always_match",
        CASES,
        MAX_NODES,
        |rng, size| {
            let dag = arb_dag(rng, size);
            (dag, arb_choices(rng, 0, 11, size), rng.index(12))
        },
        |(dag, choices, len)| assert_valid_prefix_matches(dag, choices, *len),
    );
}

/// Appending a foreign operation to any log breaks the Subset test.
#[test]
fn foreign_operation_fails_subset() {
    prop::check(
        "foreign_operation_fails_subset",
        CASES,
        MAX_NODES,
        |rng, size| {
            let dag = arb_dag(rng, size);
            (dag, arb_choices(rng, 0, 7, size))
        },
        |(dag, choices)| {
            let mut log = valid_prefix(dag, choices, choices.len());
            log.push(Action::guest("alien", "operation-not-in-any-dag"));
            let err = match_image(dag, &log).unwrap_err();
            assert!(matches!(err, MatchFailure::NotSubset { .. }), "got {err:?}");
        },
    );
}

/// Swapping two DAG-ordered entries of a valid log breaks the
/// Partial-Order test (or an earlier test, never success).
#[test]
fn order_violations_are_caught() {
    prop::check(
        "order_violations_are_caught",
        CASES,
        MAX_NODES,
        |rng, size| {
            let dag = arb_dag(rng, size);
            (dag, arb_choices(rng, 2, 11, size))
        },
        |(dag, choices)| {
            let log = valid_prefix(dag, choices, choices.len());
            let actions = log.actions().to_vec();
            // Find a DAG-ordered pair to swap.
            let mut swapped = None;
            'outer: for i in 0..actions.len() {
                for j in (i + 1)..actions.len() {
                    if dag.has_path(&actions[i].id, &actions[j].id).unwrap() {
                        let mut v = actions.clone();
                        v.swap(i, j);
                        swapped = Some(v);
                        break 'outer;
                    }
                }
            }
            if let Some(v) = swapped {
                let err = match_image(dag, &PerformedLog::from_actions(v)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        MatchFailure::OrderViolation { .. } | MatchFailure::NotPrefix { .. }
                    ),
                    "got {err:?}"
                );
            }
        },
    );
}

/// Dropping an interior entry from a valid log breaks the Prefix test
/// whenever the dropped node has matched descendants.
#[test]
fn gaps_fail_prefix() {
    prop::check(
        "gaps_fail_prefix",
        CASES,
        MAX_NODES,
        |rng, size| {
            let dag = arb_dag(rng, size);
            (dag, arb_choices(rng, 2, 11, size))
        },
        |(dag, choices)| {
            let log = valid_prefix(dag, choices, choices.len());
            let actions = log.actions().to_vec();
            for drop_idx in 0..actions.len() {
                let dropped = &actions[drop_idx];
                let has_descendant = actions
                    .iter()
                    .any(|a| dag.has_path(&dropped.id, &a.id).unwrap());
                if !has_descendant {
                    continue;
                }
                let mut v = actions.clone();
                v.remove(drop_idx);
                let err = match_image(dag, &PerformedLog::from_actions(v)).unwrap_err();
                assert!(matches!(err, MatchFailure::NotPrefix { .. }), "got {err:?}");
            }
        },
    );
}

/// The interned/compiled matcher is observationally identical to the
/// naive three-test path: same reports on valid prefixes, the same
/// `MatchFailure` (byte-for-byte) on corrupted logs.
#[test]
fn compiled_matching_equals_naive() {
    prop::check(
        "compiled_matching_equals_naive",
        CASES,
        MAX_NODES,
        |rng, size| {
            let dag = arb_dag(rng, size);
            let choices = arb_choices(rng, 0, 11, size);
            (dag, choices, rng.index(12), rng.index(5))
        },
        |(dag, choices, len, mutation)| {
            let mut actions = valid_prefix(dag, choices, *len).actions().to_vec();
            match mutation {
                1 if actions.len() >= 2 => {
                    let n = actions.len();
                    actions.swap(0, n - 1); // order violation / prefix gap
                }
                2 if !actions.is_empty() => {
                    actions.remove(0); // prefix gap
                }
                3 => actions.push(Action::guest("alien", "operation-not-in-any-dag")), // subset
                4 if !actions.is_empty() => {
                    let dup = actions[0].clone(); // duplicate signature in the log
                    actions.push(dup);
                }
                _ => {} // untouched valid prefix
            }
            let log = PerformedLog::from_actions(actions);
            let naive = match_image(dag, &log);
            let mut interner = SigInterner::new();
            let interned = InternedLog::from_log(&log, &mut interner);
            let compiled = CompiledDag::compile(dag, &mut interner);
            let fast = compiled.match_log(&interned, &interner);
            assert_eq!(naive, fast);
        },
    );
}

/// XML round-trip is the identity on DAGs.
#[test]
fn xml_round_trip() {
    prop::check("xml_round_trip", CASES, MAX_NODES, arb_dag, |dag| {
        let text = dag_to_xml(dag).to_xml();
        let parsed = vmplants_xmlmsg::parse(&text).unwrap();
        let decoded = dag_from_xml(&parsed).unwrap();
        assert_eq!(dag, &decoded);
    });
}
