//! Deterministic property testing on [`SimRng`].
//!
//! A property is a generator `(rng, size) -> T` plus a check on `&T` that
//! panics (`assert!`) when the property does not hold. [`check`] runs a
//! fixed number of cases. Case `i` draws its input at the given size from a
//! seed that mixes the FNV-1a hash of the property name with `i`, so the
//! same binary always runs the same cases and no clock or environment is
//! consulted.
//!
//! When a case fails, the harness shrinks it by halving: it regenerates the
//! input from the same seed at `size/2`, `size/4`, … down to 1 and reports
//! the smallest size that still fails. Generators read `size` as the upper
//! bound on collection lengths and nesting depth.
//!
//! ```
//! use vmplants_simkit::prop;
//!
//! prop::check("sum_is_commutative", 64, 32, |rng, size| {
//!     prop::vec(rng, 0, size, |rng| rng.uniform_u64(0, 1_000))
//! }, |xs| {
//!     let forward: u64 = xs.iter().sum();
//!     assert_eq!(forward, xs.iter().rev().sum::<u64>());
//! });
//! ```

use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};

use crate::obs::fnv1a64;
use crate::rng::SimRng;

/// Seed of case `case` of the property `name`.
fn case_seed(name: &str, case: u32) -> u64 {
    fnv1a64(name)
        ^ u64::from(case)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run `cases` cases of the property `name`, each at `size`, and panic on
/// the first failure, after shrinking it. The panic message names the
/// property, the case seed, the smallest failing size, the `Debug` form of
/// the input at that size and the property's own panic message.
pub fn check<T: Debug>(
    name: &str,
    cases: u32,
    size: usize,
    gen: impl Fn(&mut SimRng, usize) -> T,
    prop: impl Fn(&T),
) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let Err(cause) = run(seed, size, &gen, &prop) else {
            continue;
        };
        let mut smallest = (size, cause);
        let mut s = size / 2;
        while s >= 1 {
            if let Err(cause) = run(seed, s, &gen, &prop) {
                smallest = (s, cause);
            }
            s /= 2;
        }
        let (size, cause) = smallest;
        let input = gen(&mut SimRng::seed_from_u64(seed), size);
        panic!(
            "property `{name}` failed: case {case}, seed {seed:#018x}, size {size}\n\
             input: {input:?}\ncause: {cause}"
        );
    }
}

/// Generate the input for `(seed, size)` and run the property on it,
/// turning a panic into its message.
fn run<T>(
    seed: u64,
    size: usize,
    gen: &impl Fn(&mut SimRng, usize) -> T,
    prop: &impl Fn(&T),
) -> Result<(), String> {
    let input = gen(&mut SimRng::seed_from_u64(seed), size);
    panic::catch_unwind(AssertUnwindSafe(|| prop(&input))).map_err(|payload| {
        match (
            payload.downcast_ref::<String>(),
            payload.downcast_ref::<&str>(),
        ) {
            (Some(s), _) => s.clone(),
            (None, Some(s)) => (*s).to_owned(),
            (None, None) => "non-string panic payload".to_owned(),
        }
    })
}

/// A vector of `lo..=hi` elements (`hi` raised to `lo` if below it), each
/// drawn by `item`.
pub fn vec<T>(
    rng: &mut SimRng,
    lo: usize,
    hi: usize,
    mut item: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let len = rng.uniform_u64(lo as u64, hi.max(lo) as u64) as usize;
    (0..len).map(|_| item(rng)).collect()
}

/// A string of `lo..=hi` characters drawn uniformly from `alphabet`.
pub fn string(rng: &mut SimRng, alphabet: &str, lo: usize, hi: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    vec(rng, lo, hi, |rng| chars[rng.index(chars.len())])
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure_message(f: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("property must fail");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload")
    }

    #[test]
    fn same_name_gives_the_same_case_seeds() {
        let a: Vec<u64> = (0..8).map(|i| case_seed("alpha", i)).collect();
        let b: Vec<u64> = (0..8).map(|i| case_seed("alpha", i)).collect();
        assert_eq!(a, b);
        let distinct: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert_eq!(distinct.len(), a.len(), "cases draw distinct seeds");
        assert_ne!(case_seed("alpha", 0), case_seed("beta", 0));
    }

    #[test]
    fn planted_failure_shrinks_to_its_smallest_failing_size() {
        // Fails for every vector of three or more elements; the only case
        // (size 64) halves through 32, 16, 8, 4 (all failing) to 2 and 1
        // (passing).
        let msg = failure_message(|| {
            check(
                "planted",
                1,
                64,
                |_, size| vec![7u8; size],
                |v| assert!(v.len() < 3, "too long"),
            )
        });
        assert!(msg.contains("property `planted` failed"), "{msg}");
        assert!(
            msg.contains(&format!("seed {:#018x}", case_seed("planted", 0))),
            "{msg}"
        );
        assert!(msg.contains("size 4\n"), "{msg}");
        assert!(msg.contains("input: [7, 7, 7, 7]"), "{msg}");
        assert!(msg.contains("cause: too long"), "{msg}");
    }

    #[test]
    fn passing_property_runs_every_case() {
        let runs = std::cell::Cell::new(0);
        check(
            "counts",
            10,
            5,
            |rng, size| string(rng, "ab", 0, size),
            |s| {
                assert!(s.len() <= 5 && s.chars().all(|c| c == 'a' || c == 'b'));
                runs.set(runs.get() + 1);
            },
        );
        assert_eq!(runs.get(), 10);
    }
}
