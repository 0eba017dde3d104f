//! Property tests: file-store byte accounting and capacity enforcement
//! under arbitrary operation sequences.

use std::collections::BTreeMap;
use vmplants_cluster::files::{FileKind, FileStore};
use vmplants_simkit::{prop, SimRng};

const CASES: u32 = 256;

#[derive(Clone, Debug)]
enum Op {
    Put { slot: u8, bytes: u64 },
    Link { slot: u8, target: u8 },
    Remove { slot: u8 },
    RemoveTreePrefix,
}

fn slot(rng: &mut SimRng) -> u8 {
    rng.index(12) as u8
}

/// Up to `size` operations, weighted put 4 : link 2 : remove 2 : tree 1.
fn arb_ops(rng: &mut SimRng, size: usize) -> Vec<Op> {
    prop::vec(rng, 0, size, |rng| match rng.index(9) {
        0..=3 => Op::Put {
            slot: slot(rng),
            bytes: rng.uniform_u64(0, 9_999),
        },
        4 | 5 => Op::Link {
            slot: slot(rng),
            target: slot(rng),
        },
        6 | 7 => Op::Remove { slot: slot(rng) },
        _ => Op::RemoveTreePrefix,
    })
}

fn path(slot: u8) -> String {
    if slot < 6 {
        format!("/a/f{slot}")
    } else {
        format!("/b/f{slot}")
    }
}

/// used_bytes always equals the sum of regular-file sizes; symlinks
/// cost nothing; capacity is never exceeded.
#[test]
fn byte_accounting_is_exact() {
    prop::check(
        "byte_accounting_is_exact",
        CASES,
        63,
        |rng, size| (arb_ops(rng, size), rng.uniform_u64(1_000, 99_999)),
        |(ops, capacity)| {
            let capacity = *capacity;
            let store = FileStore::with_capacity("s", capacity);
            // Shadow model: path -> (bytes, is_link).
            let mut model: BTreeMap<String, (u64, bool)> = BTreeMap::new();
            for op in ops {
                match *op {
                    Op::Put { slot, bytes } => {
                        let p = path(slot);
                        match store.put(&p, bytes, FileKind::Generic) {
                            Ok(()) => {
                                model.insert(p, (bytes, false));
                            }
                            Err(_) => {
                                // Capacity rejection must be honest: accepting
                                // would have exceeded it.
                                let used: u64 = model
                                    .values()
                                    .filter(|(_, link)| !link)
                                    .map(|(b, _)| b)
                                    .sum();
                                let existing = model
                                    .get(&p)
                                    .filter(|(_, link)| !link)
                                    .map(|(b, _)| *b)
                                    .unwrap_or(0);
                                assert!(used - existing + bytes > capacity);
                            }
                        }
                    }
                    Op::Link { slot, target } => {
                        let p = path(slot);
                        store.link(&p, path(target));
                        model.insert(p, (0, true));
                    }
                    Op::Remove { slot } => {
                        let p = path(slot);
                        let existed = store.remove(&p).is_ok();
                        assert_eq!(existed, model.remove(&p).is_some());
                    }
                    Op::RemoveTreePrefix => {
                        let removed = store.remove_tree("/a/");
                        let expected: Vec<String> = model
                            .keys()
                            .filter(|k| k.starts_with("/a/"))
                            .cloned()
                            .collect();
                        assert_eq!(removed, expected.len());
                        for k in expected {
                            model.remove(&k);
                        }
                    }
                }
                let expected_bytes: u64 = model
                    .values()
                    .filter(|(_, link)| !link)
                    .map(|(b, _)| b)
                    .sum();
                assert_eq!(store.used_bytes(), expected_bytes);
                assert_eq!(store.file_count(), model.len());
                assert!(store.used_bytes() <= capacity);
                assert_eq!(store.free_bytes(), Some(capacity - expected_bytes));
            }
        },
    );
}

/// resolved_size follows link chains to the real file, errors on
/// dangling links, and never panics (loops report LinkLoop).
#[test]
fn link_resolution_is_total() {
    prop::check(
        "link_resolution_is_total",
        CASES,
        7,
        |rng, size| {
            let chain_len = rng.uniform_u64(1, size as u64) as usize;
            (chain_len, rng.uniform_u64(1, 999_999), rng.chance(0.5))
        },
        |&(chain_len, bytes, make_loop)| {
            let store = FileStore::new("s");
            if make_loop {
                for i in 0..chain_len {
                    store.link(format!("/l{i}"), format!("/l{}", (i + 1) % chain_len));
                }
                assert!(store.resolved_size("/l0").is_err());
            } else {
                store.put("/real", bytes, FileKind::MemoryState).unwrap();
                let mut target = "/real".to_owned();
                for i in 0..chain_len {
                    let p = format!("/l{i}");
                    store.link(&p, &target);
                    target = p;
                }
                assert_eq!(store.resolved_size(&target).unwrap(), bytes);
                assert_eq!(store.resolved_kind(&target).unwrap(), FileKind::MemoryState);
            }
        },
    );
}
