//! Property tests: the writer and parser are exact inverses on the subset,
//! and the parser never panics — not even on input nested far past
//! [`MAX_DEPTH`].

use vmplants_simkit::{prop, SimRng};
use vmplants_xmlmsg::parser::MAX_DEPTH;
use vmplants_xmlmsg::{parse, Element, Node};

const CASES: u32 = 256;
/// Largest generated size: name and text lengths up to it, nesting depth
/// up to a sixteenth of it.
const MAX_SIZE: usize = 64;

const NAME_START: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";

/// A name `[a-zA-Z_][a-zA-Z0-9_.-]{0,12}`.
fn arb_name(rng: &mut SimRng, size: usize) -> String {
    let mut name = prop::string(rng, NAME_START, 1, 1);
    name.push_str(&prop::string(
        rng,
        &format!("{NAME_START}0123456789.-"),
        0,
        size.min(12),
    ));
    name
}

/// Text with the characters that need escaping, plus unicode. Leading
/// and trailing whitespace would be trimmed structurally, so the text
/// starts and ends with a visible character.
fn arb_text(rng: &mut SimRng, size: usize) -> String {
    let alphabet = format!("{NAME_START}0123456789&<>\"' é✓");
    let s = prop::string(rng, &alphabet, 0, size.min(30));
    let t = s.trim();
    if t.is_empty() {
        "x".to_owned()
    } else {
        t.to_owned()
    }
}

/// An element with up to two attributes and, below `depth`, up to three
/// children; a leaf may carry text instead.
fn arb_element(rng: &mut SimRng, size: usize, depth: usize) -> Element {
    let mut e = Element::new(arb_name(rng, size));
    for _ in 0..rng.index(3) {
        let (n, v) = (arb_name(rng, size), arb_text(rng, size));
        e.set_attr(n, v); // replaces duplicates, keeping the doc valid
    }
    if depth == 0 || rng.chance(0.3) {
        if rng.chance(0.5) {
            e.children.push(Node::Text(arb_text(rng, size)));
        }
    } else {
        for _ in 0..rng.index(4) {
            e.push_child(arb_element(rng, size, depth - 1));
        }
    }
    e
}

fn gen_element(rng: &mut SimRng, size: usize) -> Element {
    arb_element(rng, size, size / 16)
}

/// Random text over `alphabet`, sometimes wrapped in `<a>` tags nested
/// up to twice [`MAX_DEPTH`] deep (possibly unclosed).
fn hostile(rng: &mut SimRng, alphabet: &str, size: usize) -> String {
    let body = prop::string(rng, alphabet, 0, size);
    if rng.chance(0.75) {
        return body;
    }
    let depth = rng.uniform_u64(1, 2 * MAX_DEPTH as u64) as usize;
    let closes = rng.index(depth + 1);
    format!("{}{body}{}", "<a>".repeat(depth), "</a>".repeat(closes))
}

fn assert_structurally_equal(a: &Element, b: &Element) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.attrs, b.attrs);
    assert_eq!(a.text().map(str::trim), b.text().map(str::trim));
    let a_children: Vec<&Element> = a.elements().collect();
    let b_children: Vec<&Element> = b.elements().collect();
    assert_eq!(a_children.len(), b_children.len());
    for (x, y) in a_children.iter().zip(b_children) {
        assert_structurally_equal(x, y);
    }
}

/// Compact serialization round-trips exactly.
#[test]
fn compact_round_trip() {
    prop::check("compact_round_trip", CASES, MAX_SIZE, gen_element, |e| {
        let xml = e.to_xml();
        let reparsed = parse(&xml).unwrap_or_else(|err| panic!("{xml}: {err}"));
        assert_eq!(e, &reparsed);
    });
}

/// Pretty serialization preserves structure, attributes and trimmed
/// text content (indentation whitespace is insignificant).
#[test]
fn pretty_round_trip_preserves_structure() {
    prop::check(
        "pretty_round_trip_preserves_structure",
        CASES,
        MAX_SIZE,
        gen_element,
        |e| {
            let pretty = e.to_pretty_xml();
            let reparsed = parse(&pretty).unwrap_or_else(|err| panic!("{pretty}: {err}"));
            assert_structurally_equal(e, &reparsed);
        },
    );
}

/// The parser never panics on arbitrary input.
#[test]
fn parser_is_panic_free() {
    let any: String = (' '..='~').chain("\t\né✓\u{0}".chars()).collect();
    prop::check(
        "parser_is_panic_free",
        CASES,
        200,
        |rng, size| hostile(rng, &any, size),
        |input| {
            let _ = parse(input);
        },
    );
}

/// The parser never panics on inputs that look like XML.
#[test]
fn parser_is_panic_free_on_xmlish() {
    prop::check(
        "parser_is_panic_free_on_xmlish",
        CASES,
        120,
        |rng, size| hostile(rng, "<>abcxyz/\"=& ;#x0123456789-", size),
        |input| {
            let _ = parse(input);
        },
    );
}
