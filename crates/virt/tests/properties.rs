//! Property tests: clone/destroy accounting symmetry and timing-model
//! sanity under arbitrary interleavings.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_cluster::files::gb;
use vmplants_cluster::host::{Host, HostSpec};
use vmplants_cluster::nfs::NfsServer;
use vmplants_simkit::{prop, Engine, SimRng};
use vmplants_virt::hypervisor::{DiskStrategy, Hypervisor, UmlLike, VmwareLike};
use vmplants_virt::{ImageFiles, VmSpec, VmmType};

const CASES: u32 = 16;

#[derive(Clone, Debug)]
enum Op {
    Clone { mem_idx: u8, uml: bool },
    DestroyOldest,
}

/// Up to `size` operations, weighted clone 2 : destroy 1.
fn arb_ops(rng: &mut SimRng, size: usize) -> Vec<Op> {
    prop::vec(rng, 0, size, |rng| {
        if rng.index(3) < 2 {
            Op::Clone {
                mem_idx: rng.index(3) as u8,
                uml: rng.chance(0.5),
            }
        } else {
            Op::DestroyOldest
        }
    })
}

/// Whatever clone/destroy order runs, host memory registration and
/// disk contents return exactly to zero when everything is destroyed.
#[test]
fn clone_destroy_accounting_balances() {
    prop::check(
        "clone_destroy_accounting_balances",
        CASES,
        15,
        |rng, size| (arb_ops(rng, size), rng.uniform_u64(0, 499)),
        |(ops, seed)| {
            let mut engine = Engine::new();
            let host = Host::new(HostSpec::e1350_node("node0"));
            let nfs = NfsServer::new("storage");
            let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(*seed)));
            let vmware = VmwareLike::new(Rc::clone(&rng));
            let uml = UmlLike::new(Rc::clone(&rng));
            let hypervisor = |vmm: VmmType| -> &dyn Hypervisor {
                match vmm {
                    VmmType::VmwareLike => &vmware,
                    VmmType::UmlLike => &uml,
                }
            };
            // Publish goldens for both VMM types at every size.
            let mut images = std::collections::BTreeMap::new();
            for mem in [32u64, 64, 256] {
                for (vmm, label) in [(VmmType::VmwareLike, "vmw"), (VmmType::UmlLike, "uml")] {
                    let img =
                        ImageFiles::plan(&format!("/warehouse/{label}{mem}"), vmm, mem, gb(2));
                    img.materialize(&nfs.store, mem, gb(2)).unwrap();
                    images.insert((vmm, mem), img);
                }
            }
            let mut live: Vec<(String, VmSpec)> = Vec::new();
            for (next, op) in ops.iter().enumerate() {
                match *op {
                    Op::Clone {
                        mem_idx,
                        uml: is_uml,
                    } => {
                        let mem = [32u64, 64, 256][mem_idx as usize];
                        let spec = if is_uml {
                            VmSpec::uml(mem)
                        } else {
                            VmSpec::mandrake(mem)
                        };
                        let dir = format!("/clones/vm{next}");
                        let img = &images[&(spec.vmm, mem)];
                        let ok = Rc::new(RefCell::new(false));
                        let ok2 = Rc::clone(&ok);
                        hypervisor(spec.vmm).instantiate(
                            &mut engine,
                            img,
                            &spec,
                            &host,
                            &nfs,
                            &dir,
                            Box::new(move |_, res| {
                                res.expect("clone succeeds");
                                *ok2.borrow_mut() = true;
                            }),
                        );
                        engine.run();
                        assert!(*ok.borrow());
                        live.push((dir, spec));
                    }
                    Op::DestroyOldest => {
                        if live.is_empty() {
                            continue;
                        }
                        let (dir, spec) = live.remove(0);
                        hypervisor(spec.vmm).destroy(
                            &mut engine,
                            &host,
                            &spec,
                            &dir,
                            Box::new(|_, res| res.expect("destroy succeeds")),
                        );
                        engine.run();
                    }
                }
                // Host registration always mirrors the live set.
                assert_eq!(host.vm_count(), live.len());
                let committed: u64 = live.iter().map(|(_, s)| s.memory_mb + 24).sum();
                assert_eq!(host.committed_mb(), committed);
            }
            // Drain.
            while let Some((dir, spec)) = live.pop() {
                hypervisor(spec.vmm).destroy(
                    &mut engine,
                    &host,
                    &spec,
                    &dir,
                    Box::new(|_, res| res.expect("destroy succeeds")),
                );
                engine.run();
            }
            assert_eq!(host.vm_count(), 0);
            assert_eq!(host.committed_mb(), 0);
            assert_eq!(host.disk.file_count(), 0, "no leaked clone files");
            assert_eq!(host.disk.used_bytes(), 0);
        },
    );
}

/// Clone time grows monotonically (in expectation) with memory size,
/// and the full-copy strategy always dominates the linked strategy.
#[test]
fn timing_orderings_hold() {
    let measure = |mem: u64, strategy: DiskStrategy, seed: u64| -> f64 {
        let mut engine = Engine::new();
        let host = Host::new(HostSpec::e1350_node("n"));
        let nfs = NfsServer::new("s");
        let img = ImageFiles::plan("/w/g", VmmType::VmwareLike, mem, gb(2));
        img.materialize(&nfs.store, mem, gb(2)).unwrap();
        let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(seed)));
        let mut hv = VmwareLike::new(rng);
        hv.set_disk_strategy(strategy);
        let out = Rc::new(RefCell::new(0.0));
        let out2 = Rc::clone(&out);
        hv.instantiate(
            &mut engine,
            &img,
            &VmSpec::mandrake(mem),
            &host,
            &nfs,
            "/c/vm",
            Box::new(move |_, res| {
                *out2.borrow_mut() = res.unwrap().total.as_secs_f64();
            }),
        );
        engine.run();
        let t = *out.borrow();
        t
    };
    prop::check(
        "timing_orderings_hold",
        CASES,
        1,
        |rng, _| rng.uniform_u64(0, 199),
        |&seed| {
            let t32 = measure(32, DiskStrategy::Linked, seed);
            let t256 = measure(256, DiskStrategy::Linked, seed + 1);
            let t256_full = measure(256, DiskStrategy::FullCopy, seed + 2);
            assert!(t32 < t256, "32MB {t32} vs 256MB {t256}");
            assert!(t256 < t256_full, "linked {t256} vs full {t256_full}");
            assert!(t32 > 0.0);
        },
    );
}
