//! The bit-identity invariants table in DESIGN.md §17 maps each contract
//! to the tests that enforce it and the `ci.sh` gates that run them. This
//! test keeps the table honest: every cited `path::fn` must exist in the
//! cited file, every cited path must exist, and every cited gate must be
//! a command `ci.sh` runs.

use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The backtick-quoted spans of one table cell.
fn quoted(cell: &str) -> Vec<&str> {
    cell.split('`').skip(1).step_by(2).collect()
}

/// `(contract, tests cell, gates cell)` for every row of the table.
fn invariant_rows(design: &str) -> Vec<(String, String, String)> {
    let section = design
        .split("### Bit-identity invariants")
        .nth(1)
        .expect("DESIGN.md has a bit-identity invariants table");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split(" | ").collect();
            assert_eq!(cells.len(), 3, "malformed row: {l}");
            (
                cells[0].trim().to_string(),
                cells[1].to_string(),
                cells[2].to_string(),
            )
        })
        .collect()
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Every broken citation in `design`'s table, checked against `ci`, and
/// the number of test functions found.
fn problems(design: &str, ci: &str) -> (Vec<String>, usize) {
    let mut found = Vec::new();
    let mut tests = 0;
    for (contract, cited, gates) in invariant_rows(design) {
        // A bare function name refers to the last file cited before it.
        let mut file: Option<(String, String)> = None;
        for span in quoted(&cited) {
            let target = match span.split_once("::") {
                Some((path, name)) if path.ends_with(".rs") => {
                    file = Some((path.to_string(), read(path)));
                    Some(name)
                }
                _ if span.contains('/') => {
                    if !root().join(span).exists() {
                        found.push(format!("{contract}: no path {span}"));
                    }
                    None
                }
                _ if is_ident(span) && file.is_some() => Some(span),
                _ => None,
            };
            if let (Some(name), Some((path, text))) = (target, &file) {
                if text.contains(&format!("fn {name}(")) {
                    tests += 1;
                } else {
                    found.push(format!("{contract}: no fn {name} in {path}"));
                }
            }
        }
        let gates = quoted(&gates);
        if gates.is_empty() {
            found.push(format!("{contract}: no gate cited"));
        }
        for gate in gates {
            if !ci.contains(gate) {
                found.push(format!("{contract}: ci.sh never runs `{gate}`"));
            }
        }
    }
    (found, tests)
}

#[test]
fn every_cited_test_and_gate_exists() {
    let design = read("DESIGN.md");
    assert!(invariant_rows(&design).len() >= 10, "the table lost rows");
    let (found, tests) = problems(&design, &read("ci.sh"));
    assert!(found.is_empty(), "{found:#?}");
    assert!(tests >= 20, "only {tests} cited tests found");
}

#[test]
fn a_missing_test_or_gate_is_reported() {
    let design = "### Bit-identity invariants\n\n| a | b | c |\n|---|---|---|\n\
                  | x | `tests/traceability.rs::problems`, `no_such_fn` | `cargo test -q` |\n\
                  | y | `tests/no_such_file.rs` | `cargo test --no-such-gate` |\n";
    let (found, tests) = problems(design, "cargo test -q --workspace");
    assert_eq!(tests, 1);
    assert_eq!(found.len(), 3, "{found:#?}");
    assert!(found[0].contains("no fn no_such_fn"), "{found:#?}");
    assert!(
        found[1].contains("no path tests/no_such_file.rs"),
        "{found:#?}"
    );
    assert!(
        found[2].contains("never runs `cargo test --no-such-gate`"),
        "{found:#?}"
    );
}
