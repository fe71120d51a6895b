//! Parse semantics of the typed wire reader on random population
//! reports: the layout of a document — key order, whitespace, unknown
//! keys, later duplicates — never changes the report it decodes to,
//! hostile bytes give an error, never a panic, and a hostile event log
//! or version member is a structured error naming the field.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use speculative_prefetch::wire::{esc, Json};
use speculative_prefetch::{
    parse_report, render_report_fields, Engine, Error, MarkovChain, RunReport, WireRun, Workload,
};

fn population_report(states: usize, requests: u64, seed: u64, sharded: bool) -> RunReport {
    let chain = MarkovChain::random(states, 1, 2, 1, 9, seed).expect("valid chain");
    let retrievals: Vec<f64> = (0..states).map(|i| 0.5 + (i % 4) as f64 * 1.25).collect();
    let (backend, workload) = if sharded {
        (
            "sharded:2x3:hash",
            Workload::sharded(chain, requests, seed).traced(true),
        )
    } else {
        ("multi-client:3", Workload::sharded(chain, requests, seed))
    };
    Engine::builder()
        .policy("skp-exact")
        .catalog(retrievals)
        .backend_spec(backend)
        .build()
        .expect("valid session")
        .run(&workload)
        .expect("runs")
}

/// A value no reader knows: nested objects, arrays, escaped strings,
/// numbers and literals.
fn junk(rng: &mut SmallRng, depth: usize) -> Json {
    let pick = rng.random_range(0..if depth == 0 { 5 } else { 7 });
    match pick {
        0 => Json::Num(
            ["0", "-12.5e3", "18446744073709551615", "1E-7"][rng.random_range(0..4)].into(),
        ),
        1 => Json::Str("q\"u\\o\te\n\u{1}é/".into()),
        2 => Json::Bool(rng.random_bool(0.5)),
        3 => Json::Null,
        4 => Json::Str(String::new()),
        5 => Json::Arr(
            (0..rng.random_range(0..3))
                .map(|_| junk(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.random_range(0..3))
                .map(|i| (format!("junk{i}"), junk(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Shuffles the keys of every object, adds unknown keys and appends
/// later duplicates of known keys holding junk (the first one must win).
fn mangle(doc: &Json, rng: &mut SmallRng) -> Json {
    match doc {
        Json::Arr(items) => Json::Arr(items.iter().map(|v| mangle(v, rng)).collect()),
        Json::Obj(pairs) => {
            let mut out: Vec<(String, Json)> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), mangle(v, rng)))
                .collect();
            out.shuffle(rng);
            for _ in 0..rng.random_range(0..3) {
                let at = rng.random_range(0..out.len() + 1);
                out.insert(at, ("x-unknown".into(), junk(rng, 3)));
            }
            if !pairs.is_empty() && rng.random_bool(0.5) {
                let first = rng.random_range(0..out.len());
                let key = out[first].0.clone();
                let at = rng.random_range(first + 1..out.len() + 1);
                out.insert(at, (key, junk(rng, 2)));
            }
            Json::Obj(out)
        }
        other => other.clone(),
    }
}

/// Writes `doc` back out with random whitespace between tokens.
fn write(doc: &Json, rng: &mut SmallRng, out: &mut String) {
    let ws = |rng: &mut SmallRng, out: &mut String| {
        out.push_str(["", "", " ", "\n", "\t", "\r\n  "][rng.random_range(0..6)]);
    };
    ws(rng, out);
    match doc {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(raw) => out.push_str(raw),
        Json::Str(s) => out.push_str(&format!("\"{}\"", esc(s))),
        Json::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(v, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(&format!("\"{}\"", esc(k)));
                ws(rng, out);
                out.push(':');
                write(v, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layout_never_changes_the_decoded_report(
        states in 3usize..9,
        requests in 1u64..6,
        seed in 0u64..10_000,
        sharded in proptest::bool::ANY,
        layout_seed in 0u64..u64::MAX,
    ) {
        let report = population_report(states, requests, seed, sharded);
        let text = format!("{{{}}}", render_report_fields(&report, &[]));
        let doc = Json::parse(&text).expect("rendered reports parse");
        let mut rng = SmallRng::seed_from_u64(layout_seed);
        let mut mangled = String::new();
        write(&mangle(&doc, &mut rng), &mut rng, &mut mangled);
        prop_assert_eq!(parse_report(&mangled).expect("mangled report parses"), report);
    }
}

/// The member `key` of an object.
fn member<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    match doc {
        Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect("member").1,
        other => panic!("not an object: {other:?}"),
    }
}

/// The elements of an array.
fn elements(doc: &mut Json) -> &mut Vec<Json> {
    match doc {
        Json::Arr(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

/// The `InvalidParam` detail `parse_report` gives for `doc`.
fn refusal(doc: &Json) -> String {
    let mut text = String::new();
    write(doc, &mut SmallRng::seed_from_u64(0), &mut text);
    match parse_report(&text) {
        Err(Error::InvalidParam { what, detail }) => {
            assert_eq!(what, "wire report");
            detail
        }
        other => panic!("expected InvalidParam, got {other:?}"),
    }
}

const COLUMNS: [&str; 5] = ["at", "client", "shard", "item", "kind"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every hostile edit of one element of a traced report's event log,
    /// or of its version member, is refused with an error naming the
    /// field.
    #[test]
    fn hostile_event_logs_and_versions_are_refused(
        states in 3usize..9,
        requests in 1u64..6,
        seed in 0u64..10_000,
        column in 0usize..5,
        position in 0usize..usize::MAX,
        big_code in 6u64..u64::MAX,
        id_token in 0usize..3,
        at_token in 0usize..3,
    ) {
        let report = population_report(states, requests, seed, true);
        let clean = Json::parse(&format!("{{{}}}", render_report_fields(&report, &[])))
            .expect("rendered reports parse");
        let len = report.events.len();
        prop_assert!(len > 0);
        let i = position % len;
        let edit = |f: &dyn Fn(&mut Json)| {
            let mut doc = clean.clone();
            f(&mut doc);
            refusal(&doc)
        };
        let cell = |doc: &mut Json, column: &str, token: &str| {
            elements(member(member(doc, "events"), column))[i] = match token {
                "null" => Json::Null,
                raw => Json::Num(raw.to_string()),
            };
        };

        // Columns of unequal length: one column loses an element.
        let name = COLUMNS[column];
        let detail = edit(&|doc| {
            elements(member(member(doc, "events"), name)).remove(i);
        });
        prop_assert!(detail.contains("'events'") && detail.contains("unequal length"), "{}", detail);

        // Kind codes run 0 to 5.
        for code in [6, big_code] {
            let detail = edit(&|doc| cell(doc, "kind", &code.to_string()));
            let want = format!("field 'kind' has unknown kind code {code}");
            prop_assert_eq!(&detail, &want);
        }

        // Ids are unsigned 64-bit integers.
        let id = ["client", "shard", "item"][column % 3];
        let token = ["-1", "1.5", "18446744073709551616"][id_token];
        let detail = edit(&|doc| cell(doc, id, token));
        prop_assert_eq!(detail, format!("field '{id}' must be unsigned integers"));

        // Times are finite: an overflowing token and the `null` the
        // renderer writes for a non-finite value are both refused.
        let token = ["1e999", "-1e400", "null"][at_token];
        let detail = edit(&|doc| cell(doc, "at", token));
        prop_assert_eq!(detail, "field 'at' must be finite numbers");

        // The version member is required and must be 2.
        let detail = edit(&|doc| {
            let Json::Obj(pairs) = doc else { unreachable!() };
            pairs.retain(|(k, _)| k != "wire");
        });
        prop_assert_eq!(detail, "missing field 'wire'");
        let detail = edit(&|doc| *member(doc, "wire") = Json::Num("1".into()));
        prop_assert!(detail.contains("'wire'") && detail.contains("version 1"), "{}", detail);
    }
}

proptest! {
    // Each case parses every prefix of two documents.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prefixes_and_byte_corruptions_never_panic(
        seed in 0u64..10_000,
        sharded in proptest::bool::ANY,
        corrupt_seed in 0u64..u64::MAX,
    ) {
        let report = population_report(4, 2, seed, sharded);
        let text = format!("{{{}}}", render_report_fields(&report, &[]));
        // The traced (sharded) reports carry a columnar event log.
        prop_assert_eq!(sharded, !report.events.is_empty());
        prop_assert!(text.contains("\"events\":{\"at\":["));
        let chain = MarkovChain::random(5, 1, 3, 1, 9, seed).expect("valid chain");
        let run = WireRun::new("sharded", "sharded:2x2:hash", "skp-exact", &chain, &[1.0; 5], 3, seed, true)
            .render();
        for i in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            prop_assert!(parse_report(&text[..i]).is_err(), "prefix {i} parsed");
        }
        for i in (0..run.len()).filter(|&i| run.is_char_boundary(i)) {
            prop_assert!(WireRun::parse(&run[..i]).is_err(), "prefix {i} parsed");
        }
        let mut rng = SmallRng::seed_from_u64(corrupt_seed);
        for doc in [&text, &run] {
            for _ in 0..200 {
                let mut bytes = doc.clone().into_bytes();
                let at = rng.random_range(0..bytes.len());
                if !bytes[at].is_ascii() {
                    continue;
                }
                // An ASCII byte for an ASCII byte keeps the text UTF-8.
                bytes[at] = rng.random_range(0u8..128);
                let corrupted = String::from_utf8(bytes).expect("still UTF-8");
                let _ = parse_report(&corrupted);
                let _ = WireRun::parse(&corrupted);
                let _ = Json::parse(&corrupted);
            }
        }
    }
}

/// Bytes drawn mostly from JSON's structural alphabet, so random text
/// gets past a parser's first token.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\ \n0123456789.-+eEtrufalsn";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random byte strings of 0–2 KB, uniform or JSON-shaped, through
    /// every wire parser: each gives a value or an error, never a panic.
    #[test]
    fn random_bytes_never_panic_the_wire_parsers(
        bytes in proptest::collection::vec(0u8..=255, 0..2048),
        json_shaped in proptest::bool::ANY,
    ) {
        let bytes: Vec<u8> = if json_shaped {
            bytes.iter().map(|&b| JSON_BYTES[b as usize % JSON_BYTES.len()]).collect()
        } else {
            bytes
        };
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        let _ = WireRun::parse(&text);
        let _ = parse_report(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Runs of random bytes (up to 2 KB) spliced over any span of a
    /// valid report or run document: deep inside a document, a parser
    /// meets junk of any length, not only one changed byte.
    #[test]
    fn spliced_byte_runs_never_panic_the_wire_parsers(
        seed in 0u64..10_000,
        sharded in proptest::bool::ANY,
        splice_seed in 0u64..u64::MAX,
    ) {
        let report = population_report(4, 2, seed, sharded);
        let text = format!("{{{}}}", render_report_fields(&report, &[]));
        let chain = MarkovChain::random(5, 1, 3, 1, 9, seed).expect("valid chain");
        let run = WireRun::new("sharded", "sharded:2x2:hash", "skp-exact", &chain, &[1.0; 5], 3, seed, true)
            .render();
        let mut rng = SmallRng::seed_from_u64(splice_seed);
        for doc in [&text, &run] {
            for _ in 0..32 {
                let mut bytes = doc.clone().into_bytes();
                let start = rng.random_range(0..=bytes.len());
                let end = rng.random_range(start..=bytes.len().min(start + 2048));
                let max_len = if rng.random_bool(0.8) { 16 } else { 2048 };
                let len = rng.random_range(0..max_len);
                let junk: Vec<u8> = (0..len)
                    .map(|_| {
                        if rng.random_bool(0.5) {
                            JSON_BYTES[rng.random_range(0..JSON_BYTES.len())]
                        } else {
                            rng.random_range(0u8..=255)
                        }
                    })
                    .collect();
                bytes.splice(start..end, junk);
                let spliced = String::from_utf8_lossy(&bytes);
                let _ = parse_report(&spliced);
                let _ = WireRun::parse(&spliced);
                let _ = Json::parse(&spliced);
            }
        }
    }
}
