//! Property tests: print→parse round-trips and evaluation totality.

use vmplants_classad::{parse_classad, parse_expr, BinOp, ClassAd, Expr, UnOp, Value};
use vmplants_simkit::{prop, SimRng};

const CASES: u32 = 256;
/// Largest generated size: string lengths up to it, nesting depth up to a
/// sixth of it.
const MAX_SIZE: usize = 24;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const DIGITS: &str = "0123456789";

/// An arbitrary (non-sentinel) leaf value.
fn leaf_value(rng: &mut SimRng, size: usize) -> Value {
    match rng.index(4) {
        0 => Value::Bool(rng.chance(0.5)),
        1 => Value::Int(rng.uniform_u64(0, 1_999_999) as i64 - 1_000_000),
        2 => Value::Real(rng.uniform(-1e6, 1e6)),
        _ => {
            let alphabet = format!("{LOWER}{UPPER}{DIGITS} _.:/\\\"-");
            Value::Str(prop::string(rng, &alphabet, 0, size))
        }
    }
}

/// A value, including lists nested up to `depth` deep.
fn any_value(rng: &mut SimRng, size: usize, depth: usize) -> Value {
    if depth == 0 || rng.chance(0.5) {
        return leaf_value(rng, size);
    }
    if rng.chance(0.5) {
        Value::List(vec![any_value(rng, size, depth - 1)])
    } else {
        Value::List(prop::vec(rng, 0, 3, |rng| any_value(rng, size, depth - 1)))
    }
}

/// An attribute name `[a-z][a-z0-9_]{0,8}`.
fn attr_name(rng: &mut SimRng, size: usize) -> String {
    let mut name = prop::string(rng, LOWER, 1, 1);
    name.push_str(&prop::string(
        rng,
        &format!("{LOWER}{DIGITS}_"),
        0,
        size.min(8),
    ));
    name
}

/// An expression of literals, attributes and operators, up to `depth`
/// operators deep.
fn arb_expr(rng: &mut SimRng, size: usize, depth: usize) -> Expr {
    if depth == 0 || rng.chance(0.3) {
        return if rng.chance(0.5) {
            Expr::Lit(leaf_value(rng, size))
        } else {
            Expr::attr(attr_name(rng, size))
        };
    }
    let sub = |rng: &mut SimRng| Box::new(arb_expr(rng, size, depth - 1));
    match rng.index(7) {
        0 => Expr::Binary(BinOp::Add, sub(rng), sub(rng)),
        1 => Expr::Binary(BinOp::Lt, sub(rng), sub(rng)),
        2 => Expr::Binary(BinOp::And, sub(rng), sub(rng)),
        3 => Expr::Binary(BinOp::MetaEq, sub(rng), sub(rng)),
        4 => Expr::Unary(UnOp::Not, sub(rng)),
        5 => Expr::Cond(sub(rng), sub(rng), sub(rng)),
        _ => Expr::List(prop::vec(rng, 0, 3, |rng| *sub(rng))),
    }
}

fn gen_value(rng: &mut SimRng, size: usize) -> Value {
    any_value(rng, size, size / 8)
}

fn gen_expr(rng: &mut SimRng, size: usize) -> Expr {
    arb_expr(rng, size, size / 6)
}

/// Every printed value parses back to an identical value (up to the
/// real-number formatting convention, which `is_identical` absorbs).
#[test]
fn value_display_round_trips() {
    prop::check(
        "value_display_round_trips",
        CASES,
        MAX_SIZE,
        gen_value,
        |v| {
            let printed = Expr::Lit(v.clone()).to_string();
            let reparsed = parse_expr(&printed).expect("printed value must parse");
            let back = reparsed.eval_solo(&ClassAd::new());
            assert!(v.is_identical(&back), "{v:?} -> {printed} -> {back:?}");
        },
    );
}

/// Every printed expression parses back to the same AST.
#[test]
fn expr_display_round_trips() {
    prop::check("expr_display_round_trips", CASES, MAX_SIZE, gen_expr, |e| {
        let printed = e.to_string();
        let reparsed =
            parse_expr(&printed).unwrap_or_else(|err| panic!("reparse of {printed:?}: {err}"));
        assert_eq!(e, &reparsed, "printed: {printed}");
    });
}

/// Evaluation is total: any generated expression evaluates without
/// panicking (sentinels are fine).
#[test]
fn evaluation_never_panics() {
    prop::check("evaluation_never_panics", CASES, MAX_SIZE, gen_expr, |e| {
        let _ = e.eval_solo(&ClassAd::new());
    });
}

/// Round-trip a whole record.
#[test]
fn classad_display_round_trips() {
    prop::check(
        "classad_display_round_trips",
        CASES,
        MAX_SIZE,
        |rng, size| {
            prop::vec(rng, 0, size.min(7), |rng| {
                let mut name = prop::string(rng, &format!("{LOWER}{UPPER}"), 1, 1);
                name.push_str(&prop::string(
                    rng,
                    &format!("{LOWER}{UPPER}{DIGITS}_"),
                    0,
                    size.min(10),
                ));
                (name, gen_expr(rng, size))
            })
        },
        |attrs| {
            let mut ad = ClassAd::new();
            for (name, expr) in attrs {
                ad.set(name.clone(), expr.clone());
            }
            let printed = ad.to_string();
            let reparsed = parse_classad(&printed)
                .unwrap_or_else(|err| panic!("reparse of {printed:?}: {err}"));
            assert_eq!(ad, reparsed);
        },
    );
}

/// ad_eq is symmetric and is_identical is reflexive.
#[test]
fn equality_algebra() {
    prop::check(
        "equality_algebra",
        CASES,
        MAX_SIZE,
        |rng, size| (gen_value(rng, size), gen_value(rng, size)),
        |(a, b)| {
            assert_eq!(a.ad_eq(b), b.ad_eq(a));
            assert!(a.is_identical(a));
            assert_eq!(a.is_identical(b), b.is_identical(a));
        },
    );
}
