//! Golden-file tests pinning the goal-order search's decisions.
//!
//! For `team` and a set of generated programs whose long clause bodies
//! send the reorderer into its A* search, every reordered
//! `(predicate, mode)` is rendered with its per-clause goal orders and
//! the search's `explored` / `rejected` counters, and the emitted program
//! is pinned by a hash of its text. A change to the search that alters
//! any decision, any count of examined orders, or any emitted byte shows
//! up as a diff against `tests/golden/search_<name>.expected`.
//!
//! To re-pin after an intentional change to the search:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test search_golden
//! ```

use prolog_difftest::{generate_case, GenConfig};
use prolog_syntax::pretty::program_to_string;
use reorder::{reorder_source, ReorderConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Generated-program seeds, under [`search_gen_config`]: a spread of the
/// benchmark's vetted pool of programs whose searches explore at least
/// 1,500 orders.
const SEARCH_SEEDS: &[u64] = &[0, 24, 77, 219, 392, 578, 716, 969];

fn search_gen_config() -> GenConfig {
    GenConfig {
        max_goals: 10,
        ..GenConfig::default()
    }
}

/// FNV-1a over the emitted text: pins every byte without pasting whole
/// programs into the golden files.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn render_decisions(name: &str, src: &str) -> String {
    let outcome = reorder_source(src, &ReorderConfig::default())
        .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
    let mut out = format!("program: {name}\n");
    for pred in &outcome.report.predicates {
        if pred.skipped.is_some() {
            continue;
        }
        for mode in &pred.modes {
            let _ = writeln!(
                out,
                "{}/{} {} explored={} rejected={} goal_orders={:?}",
                pred.pred.name,
                pred.pred.arity,
                mode.mode,
                mode.explored,
                mode.rejected,
                mode.goal_orders
            );
        }
    }
    let _ = writeln!(
        out,
        "emission: {} bytes, fnv1a64 {:016x}",
        outcome.text.len(),
        fnv1a64(outcome.text.as_bytes())
    );
    out
}

fn programs() -> Vec<(String, String)> {
    let team = prolog_workloads::corpus_program("team").expect("team is in the corpus");
    let mut out = vec![("team".to_string(), team.text)];
    for &seed in SEARCH_SEEDS {
        let case = generate_case(seed, &search_gen_config());
        out.push((format!("gen_{seed}"), program_to_string(&case.program)));
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("search_{name}.expected"))
}

#[test]
fn search_decisions_match_golden_files() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for (name, src) in programs() {
        let actual = render_decisions(&name, &src);
        let path = golden_path(&name);
        if update {
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden file {}; run UPDATE_GOLDEN=1 cargo test --test search_golden",
                path.display()
            )
        });
        assert_eq!(
            expected,
            actual,
            "{name}: search decisions drifted from {}.\n\
             If the change is intentional, re-pin with \
             UPDATE_GOLDEN=1 cargo test --test search_golden",
            path.display()
        );
    }
}
