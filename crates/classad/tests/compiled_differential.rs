//! Differential suite: the bytecode VM against the tree-walking oracle.
//!
//! Mirrors the `find_golden_naive` oracle pattern from the warehouse: the
//! slow reference implementation stays in the build and every fast path is
//! checked against it. Seeded generators on the property harness drive
//! randomized expressions and ads — including missing attributes,
//! explicit `undefined` / `error` values, short-circuit operands,
//! heterogeneous column types, and non-flat (boxed) rows — so a failure
//! replays deterministically from the seed it reports.

use vmplants_classad::{
    compile, fold_consts, AdTable, AttrScope, BinOp, ClassAd, Expr, UnOp, Value,
};
use vmplants_simkit::{prop, SimRng};

/// Deepest generated expression; a case's size is its depth bound.
const MAX_DEPTH: usize = 4;

const ATTRS: &[&str] = &[
    "freememory",
    "alive",
    "vmcount",
    "os",
    "name",
    "memutilization",
    "derived",
    "missing_one",
    "missing_two",
];

const STRINGS: &[&str] = &["linux", "Linux-Mandrake-8.1", "UML", "vmware", "", "aBc"];

const CALLS: &[&str] = &[
    "isUndefined",
    "isError",
    "member",
    "size",
    "floor",
    "ceiling",
    "round",
    "int",
    "real",
    "string",
    "strcat",
    "toupper",
    "tolower",
    "noSuchFn",
];

fn gen_value(rng: &mut SimRng, depth: usize) -> Value {
    match rng.index(if depth == 0 { 7 } else { 8 }) {
        0 => Value::Int(rng.index(41) as i64 - 20),
        1 => Value::Real((rng.index(81) as f64 - 40.0) / 4.0),
        2 => Value::Bool(rng.chance(0.5)),
        3 => Value::Str(STRINGS[rng.index(STRINGS.len())].to_owned()),
        4 => Value::Undefined,
        5 => Value::Err,
        6 => Value::Int(rng.index(5) as i64), // small ints for %, member
        _ => Value::List(
            (0..rng.index(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
    }
}

fn gen_attr(rng: &mut SimRng) -> Expr {
    let name = ATTRS[rng.index(ATTRS.len())];
    let name = if rng.chance(0.2) {
        name.to_ascii_uppercase()
    } else {
        name.to_owned()
    };
    let scope = match rng.index(10) {
        0 => AttrScope::My,
        1 => AttrScope::Other,
        _ => AttrScope::Current,
    };
    Expr::Attr(scope, name)
}

fn gen_expr(rng: &mut SimRng, depth: usize) -> Expr {
    if depth == 0 || rng.chance(0.25) {
        return if rng.chance(0.45) {
            Expr::Lit(gen_value(rng, 1))
        } else {
            gen_attr(rng)
        };
    }
    match rng.index(10) {
        0 => Expr::Unary(
            if rng.chance(0.5) {
                UnOp::Not
            } else {
                UnOp::Neg
            },
            Box::new(gen_expr(rng, depth - 1)),
        ),
        1 => Expr::Cond(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        2 => Expr::List(
            (0..rng.index(4))
                .map(|_| gen_expr(rng, depth - 1))
                .collect(),
        ),
        3 => {
            let name = CALLS[rng.index(CALLS.len())];
            let args = match name {
                "member" => vec![
                    gen_expr(rng, depth - 1),
                    Expr::List(
                        (0..rng.index(4))
                            .map(|_| gen_expr(rng, depth - 1))
                            .collect(),
                    ),
                ],
                "strcat" => (0..rng.index(4))
                    .map(|_| gen_expr(rng, depth - 1))
                    .collect(),
                _ => (0..1 + rng.index(2))
                    .map(|_| gen_expr(rng, depth - 1))
                    .collect(),
            };
            Expr::Call(name.to_owned(), args)
        }
        _ => {
            const OPS: &[BinOp] = &[
                BinOp::Or,
                BinOp::And,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::MetaEq,
                BinOp::MetaNe,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Mod,
            ];
            Expr::Binary(
                OPS[rng.index(OPS.len())],
                Box::new(gen_expr(rng, depth - 1)),
                Box::new(gen_expr(rng, depth - 1)),
            )
        }
    }
}

/// A random flat ad: a subset of the attribute pool bound to literals,
/// including explicit sentinel and list values.
fn gen_flat_ad(rng: &mut SimRng) -> ClassAd {
    let mut ad = ClassAd::new();
    for name in ATTRS {
        if rng.chance(0.6) {
            ad.set_value(*name, gen_value(rng, 1));
        }
    }
    ad
}

/// A non-flat ad: literal bindings plus a computed attribute (and,
/// occasionally, a reference cycle) so the table must box the row.
fn gen_boxed_ad(rng: &mut SimRng) -> ClassAd {
    let mut ad = gen_flat_ad(rng);
    ad.set("derived", gen_expr(rng, 2));
    if rng.chance(0.1) {
        ad.set("loop_a", Expr::attr("loop_b"));
        ad.set("loop_b", Expr::attr("loop_a"));
    }
    ad
}

/// Value equality for test assertions: like `PartialEq` but NaN-tolerant,
/// since `Real(NaN) == Real(NaN)` is false under IEEE comparison.
fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Real(x), Value::Real(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Value::List(xs), Value::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| values_equal(x, y))
        }
        _ => a == b,
    }
}

/// A flat ad paired with every generated expression: `(expr, ads)`.
fn expr_and_ads(rng: &mut SimRng, depth: usize) -> (Expr, Vec<ClassAd>) {
    let expr = gen_expr(rng, depth);
    (expr, (0..3).map(|_| gen_flat_ad(rng)).collect())
}

#[test]
fn compiled_eval_matches_tree_walk_on_random_inputs() {
    prop::check(
        "compiled_matches_tree_walk",
        3000,
        MAX_DEPTH,
        expr_and_ads,
        |(expr, ads)| {
            let prog = compile(expr);
            for ad in ads {
                let oracle = expr.eval_solo(ad);
                let compiled = prog.eval_solo(ad);
                assert!(
                    values_equal(&compiled, &oracle),
                    "compiled {compiled:?} != oracle {oracle:?}\n  expr: {expr}\n  ad: {ad}"
                );
            }
        },
    );
}

#[test]
fn folding_preserves_semantics() {
    prop::check(
        "folding_preserves_semantics",
        3000,
        MAX_DEPTH,
        expr_and_ads,
        |(expr, ads)| {
            let folded = fold_consts(expr);
            for ad in ads {
                let oracle = expr.eval_solo(ad);
                let refolded = folded.eval_solo(ad);
                assert!(
                    values_equal(&refolded, &oracle),
                    "folded {refolded:?} != oracle {oracle:?}\n  expr: {expr}\n  folded: {folded}\n  ad: {ad}"
                );
            }
        },
    );
}

#[test]
fn compiled_eval_matches_tree_walk_on_boxed_ads() {
    prop::check(
        "compiled_matches_tree_walk_on_boxed_ads",
        500,
        3,
        |rng, depth| (gen_expr(rng, depth), gen_boxed_ad(rng)),
        |(expr, ad)| {
            let oracle = expr.eval_solo(ad);
            let compiled = compile(expr).eval_solo(ad);
            assert!(
                values_equal(&compiled, &oracle),
                "compiled {compiled:?} != oracle {oracle:?}\n  expr: {expr}\n  ad: {ad}"
            );
        },
    );
}

/// A case's size is the number of table rows; one row in ten is boxed.
#[test]
fn batch_eval_matches_per_row_tree_walk() {
    prop::check(
        "batch_matches_per_row",
        256,
        400,
        |rng, rows| {
            let expr = gen_expr(rng, MAX_DEPTH);
            let ads: Vec<ClassAd> = (0..rows)
                .map(|_| {
                    if rng.chance(0.1) {
                        gen_boxed_ad(rng)
                    } else {
                        gen_flat_ad(rng)
                    }
                })
                .collect();
            (expr, ads)
        },
        |(expr, ads)| {
            let prog = compile(expr);
            let mut table = AdTable::new();
            for ad in ads {
                table.push(ad);
            }
            let hits = table.eval_batch(&prog);
            for (row, ad) in ads.iter().enumerate() {
                let oracle = expr.eval_solo(ad).is_true();
                assert_eq!(
                    hits.contains(row),
                    oracle,
                    "row {row}: batch {} != oracle {oracle}\n  expr: {expr}\n  ad: {ad}",
                    hits.contains(row),
                );
            }
        },
    );
}

#[test]
fn short_circuit_operands_never_leak_rhs_sentinels() {
    // Purpose-built operands where the rhs is an error the short-circuit
    // must skip — plus the non-short-circuit cases where it must not.
    let poison = Expr::Binary(
        BinOp::Eq,
        Box::new(Expr::Binary(
            BinOp::Div,
            Box::new(Expr::lit(1i64)),
            Box::new(Expr::lit(0i64)),
        )),
        Box::new(Expr::lit(1i64)),
    );
    prop::check(
        "short_circuit_operands_never_leak_rhs_sentinels",
        300,
        2,
        |rng, depth| (gen_expr(rng, depth), gen_flat_ad(rng), gen_flat_ad(rng)),
        |(guard, and_ad, or_ad)| {
            for (op, ad) in [(BinOp::And, and_ad), (BinOp::Or, or_ad)] {
                let expr = Expr::Binary(op, Box::new(guard.clone()), Box::new(poison.clone()));
                let oracle = expr.eval_solo(ad);
                let compiled = compile(&expr).eval_solo(ad);
                assert!(
                    values_equal(&compiled, &oracle),
                    "compiled {compiled:?} != oracle {oracle:?}\n  expr: {expr}\n  ad: {ad}"
                );
            }
        },
    );
}
