//! Property tests for the DES kernel invariants.

use std::cell::RefCell;
use std::rc::Rc;
use vmplants_simkit::prop;
use vmplants_simkit::resource::FairShare;
use vmplants_simkit::stats::{percentile, Histogram, Summary};
use vmplants_simkit::{Engine, SimDuration, SimTime};

const CASES: u32 = 256;

/// Events always fire in non-decreasing virtual time, whatever order
/// they were scheduled in.
#[test]
fn event_delivery_is_monotone() {
    prop::check(
        "event_delivery_is_monotone",
        CASES,
        63,
        |rng, size| prop::vec(rng, 1, size, |rng| rng.uniform_u64(0, 9_999)),
        |delays| {
            let mut engine = Engine::new();
            let stamps: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for &d in delays {
                let stamps = Rc::clone(&stamps);
                engine.schedule(SimDuration::from_millis(d), move |e| {
                    stamps.borrow_mut().push(e.now().as_millis());
                });
            }
            engine.run();
            let stamps = stamps.borrow();
            assert_eq!(stamps.len(), delays.len());
            for w in stamps.windows(2) {
                assert!(w[0] <= w[1]);
            }
            let max = delays.iter().copied().max().unwrap();
            assert_eq!(engine.now(), SimTime::from_millis(max));
        },
    );
}

/// The fair-share resource conserves work: total served equals the sum
/// of all submitted work once the run drains.
#[test]
fn fair_share_conserves_work() {
    prop::check(
        "fair_share_conserves_work",
        CASES,
        23,
        |rng, size| {
            let capacity = rng.uniform(1.0, 1000.0);
            let jobs = prop::vec(rng, 1, size, |rng| {
                (rng.uniform_u64(0, 4_999), rng.uniform(0.0, 10_000.0))
            });
            (capacity, jobs)
        },
        |(capacity, jobs)| {
            let mut engine = Engine::new();
            let link = FairShare::new("link", *capacity);
            let completions = Rc::new(RefCell::new(0usize));
            for &(delay, work) in jobs {
                let link = link.clone();
                let completions = Rc::clone(&completions);
                engine.schedule(SimDuration::from_millis(delay), move |e| {
                    let completions = Rc::clone(&completions);
                    link.submit(e, work, move |_| {
                        *completions.borrow_mut() += 1;
                    });
                });
            }
            engine.run();
            assert_eq!(*completions.borrow(), jobs.len());
            assert_eq!(link.active_jobs(), 0);
            let expected: f64 = jobs.iter().map(|&(_, w)| w).sum();
            let served = link.total_served();
            assert!(
                (served - expected).abs() <= expected.max(1.0) * 1e-6 + 1e-3,
                "served {served} vs expected {expected}"
            );
        },
    );
}

/// A job on a shared link never finishes earlier than work/capacity
/// (physical lower bound) and, when alone, never much later.
#[test]
fn fair_share_respects_capacity_bound() {
    prop::check(
        "fair_share_respects_capacity_bound",
        CASES,
        1,
        |rng, _| (rng.uniform(1.0, 100.0), rng.uniform(0.1, 10_000.0)),
        |&(capacity, work)| {
            let mut engine = Engine::new();
            let link = FairShare::new("link", capacity);
            let done_at = Rc::new(RefCell::new(None));
            let d = Rc::clone(&done_at);
            link.submit(&mut engine, work, move |e| {
                *d.borrow_mut() = Some(e.now().as_secs_f64());
            });
            engine.run();
            let t = done_at.borrow().expect("job completed");
            let ideal = work / capacity;
            assert!(t >= ideal - 1e-9, "t={t} ideal={ideal}");
            // Millisecond quantization can add at most 1ms.
            assert!(t <= ideal + 0.002, "t={t} ideal={ideal}");
        },
    );
}

/// Histogram frequencies are a probability distribution and the summary
/// matches a direct computation.
#[test]
fn histogram_is_normalized() {
    prop::check(
        "histogram_is_normalized",
        CASES,
        255,
        |rng, size| prop::vec(rng, 1, size, |rng| rng.uniform(0.0, 500.0)),
        |samples| {
            let mut h = Histogram::new(0.0, 10.0);
            for &s in samples {
                h.record(s);
            }
            let total: f64 = h.normalized().iter().map(|&(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-9);
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            assert!((h.summary().mean() - mean).abs() < 1e-9);
            assert_eq!(h.total(), samples.len() as u64);
        },
    );
}

/// Summary merge is equivalent to pooling the observations.
#[test]
fn summary_merge_matches_pooled() {
    prop::check(
        "summary_merge_matches_pooled",
        CASES,
        63,
        |rng, size| {
            let left = prop::vec(rng, 0, size, |rng| rng.uniform(-100.0, 100.0));
            let right = prop::vec(rng, 0, size, |rng| rng.uniform(-100.0, 100.0));
            (left, right)
        },
        |(left, right)| {
            let mut a = Summary::new();
            for &x in left {
                a.record(x);
            }
            let mut b = Summary::new();
            for &x in right {
                b.record(x);
            }
            let mut pooled = Summary::new();
            for &x in left.iter().chain(right) {
                pooled.record(x);
            }
            a.merge(&b);
            assert_eq!(a.count(), pooled.count());
            if pooled.count() > 0 {
                assert!((a.mean() - pooled.mean()).abs() < 1e-6);
                assert!((a.std_dev() - pooled.std_dev()).abs() < 1e-6);
            }
        },
    );
}

/// Percentile is always an element of the input and respects ordering.
#[test]
fn percentile_is_order_respecting() {
    prop::check(
        "percentile_is_order_respecting",
        CASES,
        127,
        |rng, size| {
            let samples = prop::vec(rng, 1, size, |rng| rng.uniform(-1e6, 1e6));
            (samples, rng.uniform(0.0, 50.0), rng.uniform(50.0, 100.0))
        },
        |(samples, p_lo, p_hi)| {
            let lo = percentile(samples, *p_lo);
            let hi = percentile(samples, *p_hi);
            assert!(samples.contains(&lo));
            assert!(samples.contains(&hi));
            assert!(lo <= hi);
        },
    );
}
