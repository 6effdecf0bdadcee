//! Hostile-input properties for the three text front doors: the event
//! wire form (`NetworkEvent::from_str`), the scenario spec format
//! (`ScenarioSpec::parse` + `validate`) and the serve line protocol
//! (`serve::proto::parse_request`, and `Cluster::handle_line`, which
//! parses event lines straight into a shard's queue).
//!
//! Each parser is fed arbitrary bytes (decoded lossily, as a line reader
//! would), numeric literals past `u32`, `u64` and `usize`, and long runs
//! of one repeated token. Every input must come back as a value or as an
//! error with a non-empty message, and every `handle_line` answer must
//! be absent or non-empty; no input may panic.

use proptest::prelude::*;
use selfheal::core::scenario::NetworkEvent;
use selfheal::core::spec::ScenarioSpec;
use selfheal::serve::{parse_request, Cluster};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Literals that overflow or confuse an integer or float parser.
const HUGE: [&str; 12] = [
    "4294967296",
    "4294967297",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "99999999999999999999999999999999999999999999999999999999999999999999",
    "-1",
    "+0",
    "1e400",
    "NaN",
    "inf",
    "0x10",
];

/// Tokens of every grammar, for the repeated-token inputs.
const TOKENS: [&str; 12] = [
    "delete ",
    "delete-batch 1 ",
    "join ",
    "query ",
    "tick ",
    "(",
    ")",
    ", ",
    "= ",
    "graph = ",
    "#",
    "\n",
];

/// Runs `parse` on `input`, failing the test if it panics or if it
/// rejects the input with an empty message.
fn check<T, E: Display>(what: &str, input: &str, parse: impl FnOnce(&str) -> Result<T, E>) {
    let shown: String = input.chars().take(160).collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        parse(input).err().map(|e| e.to_string())
    }));
    match outcome {
        Err(_) => panic!("{what} panicked on {shown:?}"),
        Ok(Some(msg)) => assert!(
            !msg.trim().is_empty(),
            "{what} rejected {shown:?} with an empty message"
        ),
        Ok(None) => {}
    }
}

/// A one-worker cluster serving the checked-in churn spec as tenant
/// `tenant`, the name the numeric inputs address.
fn served() -> Cluster {
    let spec = ScenarioSpec::parse(include_str!("../specs/random_churn.scn"))
        .expect("checked-in spec parses");
    let mut cluster = Cluster::new(1);
    cluster.add_spec("tenant", &spec).expect("servable spec");
    cluster
}

/// Feeds `input` to all three parsers, and each of its lines to the
/// line-oriented ones, `handle_line` on a served cluster included.
fn check_all(input: &str) {
    check("ScenarioSpec", input, |s| {
        ScenarioSpec::parse(s).and_then(|spec| spec.validate())
    });
    let cluster = served();
    for line in std::iter::once(input).chain(input.lines()) {
        check("NetworkEvent", line, |s| s.parse::<NetworkEvent>());
        check("parse_request", line, parse_request);
        // Any answer, reply or error, goes through the non-empty check.
        check("handle_line", line, |s| {
            cluster.handle_line(s).map_or(Ok(()), Err)
        });
    }
}

/// A line or spec built around the numbers `a`, `b` and `c`, in the
/// shape selected by `shape`.
fn numeric_input(shape: usize, a: &str, b: &str, c: &str) -> String {
    match shape % 10 {
        0 => format!("delete {a}"),
        1 => format!("delete-batch {a} {b} {c}"),
        2 => format!("join {a} {b}"),
        3 => format!("tenant delete {a}"),
        4 => format!("query tenant degree {a}"),
        5 => format!("tenant join {a} {b} {c}"),
        6 => spec_text(&format!("grid({a}, {b})"), "max-node", a, "exhaustive"),
        7 => spec_text(
            &format!("ba({a}, {b})"),
            &format!("rack-partition({c})"),
            b,
            "full",
        ),
        8 => spec_text(&format!("ws({a}, {b}, {c})"), "random-churn", c, "cheap"),
        _ => spec_text(
            &format!("gnm({a}, {b})"),
            &format!("flash-crowd({b}, {c})"),
            a,
            "theorems",
        ),
    }
}

/// A complete spec: every required key present, so `validate` runs
/// whenever the values parse.
fn spec_text(graph: &str, adversary: &str, seed: &str, audit: &str) -> String {
    format!(
        "graph = {graph}\nhealer = dash\nadversary = {adversary}\n\
         seed = {seed}\naudit = {audit}\nmax-events = {seed}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, decoded the way a lossy line reader would.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        check_all(&String::from_utf8_lossy(&bytes));
    }

    /// Printable ASCII, which reaches deeper into the grammars than
    /// uniform bytes do.
    #[test]
    fn arbitrary_ascii_never_panics(bytes in prop::collection::vec(32u8..127, 0..96)) {
        check_all(&String::from_utf8_lossy(&bytes));
    }

    /// Numeric literals past every integer width, in every numeric slot.
    /// The cases include `grid` specs whose node count overflows `usize`
    /// under `audit = exhaustive`, which asks for that count.
    #[test]
    fn huge_numbers_never_panic(
        shape in 0usize..10,
        a in 0usize..HUGE.len(),
        b in 0usize..HUGE.len(),
        c in 0usize..HUGE.len(),
    ) {
        check_all(&numeric_input(shape, HUGE[a], HUGE[b], HUGE[c]));
    }

    /// One token repeated up to tens of thousands of times.
    #[test]
    fn long_repeated_tokens_never_panic(token in 0usize..TOKENS.len(), times in 1usize..20_000) {
        check_all(&TOKENS[token].repeat(times));
    }
}
