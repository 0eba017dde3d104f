//! Property tests for the mergeable latency sketch: merge is
//! associative and commutative to the byte over arbitrary shardings of
//! an arbitrary sample multiset, and quantiles stay within the
//! configured relative-error bound of an exact nearest-rank oracle.

use vmplants_simkit::stats::percentile;
use vmplants_simkit::{prop, SimRng, SketchMetric};

const CASES: u32 = 64;
/// Most samples in one generated multiset.
const MAX_SAMPLES: usize = 399;

fn samples(rng: &mut SimRng, size: usize) -> Vec<f64> {
    prop::vec(rng, 1, size, |rng| rng.uniform(0.001, 10_000.0))
}

fn sketch_of(samples: &[f64]) -> SketchMetric {
    let mut s = SketchMetric::default();
    for &x in samples {
        s.record(x);
    }
    s
}

#[test]
fn merge_is_associative_and_commutative() {
    prop::check(
        "merge_is_associative_and_commutative",
        CASES,
        MAX_SAMPLES,
        |rng, size| (samples(rng, size), samples(rng, size), samples(rng, size)),
        |(a, b, c)| {
            let (sa, sb, sc) = (sketch_of(a), sketch_of(b), sketch_of(c));

            // (a ⊕ b) ⊕ c
            let mut left = sa.clone();
            left.merge(&sb);
            left.merge(&sc);
            // a ⊕ (b ⊕ c)
            let mut right_inner = sb.clone();
            right_inner.merge(&sc);
            let mut right = sa.clone();
            right.merge(&right_inner);
            assert_eq!(left, right, "merge is not associative");

            // b ⊕ a  vs  a ⊕ b
            let mut ab = sa.clone();
            ab.merge(&sb);
            let mut ba = sb.clone();
            ba.merge(&sa);
            assert_eq!(ab, ba, "merge is not commutative");

            // One-shot recording of the pooled multiset is the same state.
            let pooled: Vec<f64> = a.iter().chain(b).chain(c).copied().collect();
            assert_eq!(
                left,
                sketch_of(&pooled),
                "merge differs from pooled recording"
            );
        },
    );
}

#[test]
fn quantiles_stay_within_the_alpha_bound() {
    prop::check(
        "quantiles_stay_within_the_alpha_bound",
        CASES,
        MAX_SAMPLES,
        |rng, size| {
            // Both ends of the closed range [0, 1] are worth a case each.
            let q = match rng.index(8) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.uniform(0.0, 1.0),
            };
            (samples(rng, size), q)
        },
        |(xs, q)| {
            let sketch = sketch_of(xs);
            let approx = sketch.quantile(*q);
            let exact = percentile(xs, q * 100.0);
            // The sketch guarantees alpha relative error at the *rank* the
            // nearest-rank convention selects; the clamp into [min, max]
            // keeps the edges exact.
            assert!(
                (approx - exact).abs() <= sketch.alpha() * exact + 1e-12,
                "q={q}: sketch {approx} vs exact {exact}"
            );
        },
    );
}
