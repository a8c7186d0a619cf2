//! The experiment index cannot rot: every `--bin` / `--example` that
//! README.md, DESIGN.md and EXPERIMENTS.md cite exists in the tree,
//! none of them points at a measuring apparatus other than `benchmark/`
//! and its committed `BENCH_ledger.jsonl`, and every measured ratio
//! EXPERIMENTS.md quotes is printed by `figures` in its committed
//! output, `crates/bench/figures.txt`.

use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Commands and options of the removed second apparatus.
const FORBIDDEN: [&str; 3] = ["cargo bench", "bench_gate", "CRITERION_"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(doc: &str) -> String {
    fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"))
}

/// The names that follow `flag` in `text` (`--bin fig6` → `fig6`).
fn cited<'a>(text: &'a str, flag: &str) -> Vec<&'a str> {
    let mut words = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
        .filter(|w| !w.is_empty());
    let mut names = Vec::new();
    while let Some(word) = words.next() {
        if word == flag {
            names.extend(words.next());
        }
    }
    names
}

/// The numbers in `text` written with exactly three decimals, as
/// `figures` prints its ratios (`0.275`, `1.036×`). The paper's own
/// figures carry at most two, and longer runs (`2003.11018`) are not
/// ratios.
fn three_decimal_numbers(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .map(|w| w.trim_end_matches('.'))
        .filter(|w| {
            w.split_once('.').is_some_and(|(int, frac)| {
                !int.is_empty() && frac.len() == 3 && frac.bytes().all(|b| b.is_ascii_digit())
            })
        })
        .collect()
}

/// Whether `crates/<any>/<rel>` exists.
fn in_some_crate(rel: &str) -> bool {
    fs::read_dir(root().join("crates"))
        .expect("crates/")
        .any(|krate| krate.expect("crates/ entry").path().join(rel).is_file())
}

#[test]
fn every_cited_binary_and_example_exists() {
    for doc in DOCS {
        let text = read(doc);
        for name in cited(&text, "--bin") {
            // Cargo target names may carry `-`; source files use `_`.
            let file = format!("{}.rs", name.replace('-', "_"));
            assert!(
                in_some_crate(&format!("src/bin/{file}")),
                "{doc} cites `--bin {name}` but no crates/*/src/bin/{file} exists"
            );
        }
        for name in cited(&text, "--example") {
            let file = format!("{name}.rs");
            assert!(
                root().join("examples").join(&file).is_file()
                    || in_some_crate(&format!("examples/{file}")),
                "{doc} cites `--example {name}` but no examples/{file} exists"
            );
        }
    }
}

#[test]
fn performance_is_cited_from_the_one_ledger() {
    for doc in DOCS {
        let text = read(doc);
        for word in FORBIDDEN {
            assert!(!text.contains(word), "{doc} mentions `{word}`");
        }
        for (at, _) in text.match_indices("BENCH_") {
            let rest = &text[at..];
            assert!(
                rest.starts_with("BENCH_ledger.jsonl"),
                "{doc} cites `{}`; the only committed results file is BENCH_ledger.jsonl",
                rest.split(['`', ' ', '\n']).next().unwrap_or(rest)
            );
        }
    }
}

#[test]
fn every_measured_ratio_is_printed_by_figures() {
    let printed = read("crates/bench/figures.txt");
    let printed = three_decimal_numbers(&printed);
    let quoted = read("EXPERIMENTS.md");
    let quoted = three_decimal_numbers(&quoted);
    assert!(
        !quoted.is_empty(),
        "EXPERIMENTS.md quotes no measured ratio"
    );
    for number in quoted {
        assert!(
            printed.contains(&number),
            "EXPERIMENTS.md quotes {number}, which crates/bench/figures.txt does not print; \
             regenerate the file with `cargo run --release -p rlnoc-bench --bin figures` \
             and quote it"
        );
    }
}
