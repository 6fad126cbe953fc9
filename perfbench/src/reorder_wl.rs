//! The `reorder` workload: the compile path, `reorder::reorder_source`
//! under `ReorderConfig::default()`, in a closed loop with one caller.
//!
//! The paper's programs (the seven corpus programs and one fact-scaled
//! program, where parsing and emission dominate) are one kind of input;
//! generated programs whose long clause bodies send the reorderer into
//! its A* search are the other. The time goes to `syntax`, `analysis`,
//! `markov` and `core`; none goes to `engine` or `server`.

use crate::common::{
    geomean, median, ms, peak_rss_mb, pin_to_one_cpu, rng, scaled_setup_seconds, shuffle,
    summarize, timed, Args, LayerLog, Op, Outcome, PassSums, SpeedMeter, SPEED_EVERY,
};
use prolog_analysis::fixity::prolog_engine_builtin_seeds;
use prolog_analysis::{
    CallGraph, Declarations, FixityAnalysis, RecursionAnalysis, SemifixityAnalysis,
};
use prolog_difftest::{generate_case, GenConfig};
use prolog_syntax::{parse_program, pretty::program_to_string, SourceProgram};
use reorder::{Estimator, ModeOracle, ReorderConfig, ReorderReport, Reorderer};
use std::time::Instant;

/// `generate_case` seeds (under [`search_gen_config`]) of programs whose
/// clause bodies are longer than the exhaustive-search threshold, whose
/// searches explore at least 1,500 orders, and whose default-config
/// reorder took 12–22 ms on the 2-core x86-64 virtual machine the
/// benchmark was defined on. A run draws [`SEARCH_PROGRAMS`] of them, in
/// an order, from its seed. Drawing from a vetted pool keeps the cost of
/// one seed's draw within a few percent of another's; unvetted cases
/// range from 1 ms to 2 s, and the geometric mean of twenty of them
/// moves by a fifth from one seed's draw to the next.
const SEARCH_POOL: &[u64] = &[
    0, 16, 24, 25, 49, 56, 77, 142, 162, 219, 268, 296, 298, 332, 392, 509, 543, 578, 647, 653,
    658, 692, 716, 744, 772, 784, 795, 826, 950, 968, 969, 988,
];
const SEARCH_PROGRAMS: usize = 24;
/// Facts in the fact-scaled program.
const SCALED_FACTS: usize = 1_000;
/// An operation on one of the paper's programs reorders it as many
/// times in a row as it takes to read this many bytes of input: the
/// smallest of them reorder in about a millisecond, and an operation
/// must last well over one. Every generated program takes over 10 ms.
const MIN_OP_BYTES: usize = 2_000;
/// Set-up passes; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fresh processes `peak_rss_mb` is the median of.
const RSS_PROBES: usize = 3;
/// An operation that takes longer than this counts against `slo_ok`.
const LIMIT_MS: f64 = 1_000.0;

fn search_gen_config() -> GenConfig {
    GenConfig {
        max_goals: 10,
        ..GenConfig::default()
    }
}

struct Input {
    name: String,
    /// Generated for the A* search, not one of the paper's programs.
    search: bool,
    text: String,
    reps: usize,
}

/// The run's generated programs: [`SEARCH_PROGRAMS`] case seeds drawn
/// from [`SEARCH_POOL`] in a seeded order.
fn search_cases(seed: u64) -> Vec<u64> {
    let mut pool = SEARCH_POOL.to_vec();
    shuffle(&mut pool, &mut rng(seed, 1));
    pool.truncate(SEARCH_PROGRAMS);
    pool
}

/// The inputs: the paper's programs, then the generated programs of
/// `cases`.
fn inputs(cases: &[u64]) -> Vec<Input> {
    let mut out: Vec<Input> = prolog_workloads::corpus()
        .into_iter()
        .map(|p| Input::paper(p.name, p.text))
        .collect();
    let scaled = prolog_workloads::family_scaled(SCALED_FACTS);
    out.push(Input::paper(
        "family_scaled",
        program_to_string(&scaled.program),
    ));
    for &case_seed in cases {
        out.push(Input {
            name: format!("gen-{case_seed}"),
            search: true,
            text: program_to_string(&generate_case(case_seed, &search_gen_config()).program),
            reps: 1,
        });
    }
    out
}

impl Input {
    fn paper(name: &str, text: String) -> Input {
        Input {
            name: name.to_string(),
            search: false,
            reps: MIN_OP_BYTES.div_ceil(text.len()),
            text,
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    // The closed loop runs on one CPU: on the virtual machine the
    // benchmark was defined on, the default config's two per-call worker
    // threads, moving between virtual CPUs, made the loop's medians swing
    // by a quarter from one run to the next. On one CPU, `jobs: 0`
    // resolves to one worker, the serial path.
    pin_to_one_cpu();
    let inputs = inputs(&search_cases(args.seed));
    let config = ReorderConfig::default();

    // Set-up: passes that reorder every input once and fix the
    // reference emissions.
    let mut reference: Vec<String> = Vec::new();
    let mut reports: Vec<ReorderReport> = Vec::new();
    let mut meter = SpeedMeter::default();
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        meter.sample();
        let at = Instant::now();
        let (outcomes, pass_ms) = timed(|| {
            inputs
                .iter()
                .map(|input| reorder::reorder_source(&input.text, &config))
                .collect::<Vec<_>>()
        });
        meter.sample();
        setups.push((pass_ms, at));
        let mut texts = Vec::new();
        reports.clear();
        for (input, result) in inputs.iter().zip(outcomes) {
            match result {
                Ok(o) => {
                    texts.push(o.text);
                    reports.push(o.report);
                }
                Err(e) => {
                    outcome.check(false, || format!("{}: {e}", input.name));
                    return outcome;
                }
            }
        }
        if reference.is_empty() {
            reference = texts;
        } else {
            outcome.check(texts == reference, || {
                "set-up passes emitted different bytes".into()
            });
        }
    }
    for (input, text) in inputs.iter().zip(&reference) {
        outcome.check(parse_program(text).is_ok(), || {
            format!("{}: emission does not reparse", input.name)
        });
    }

    // Timed phase: passes over every input in a seeded order. With
    // tracing on, untraced and traced passes alternate so that their
    // difference is the tracing overhead.
    let mut ops = Vec::new();
    let mut layers = LayerLog::default();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut shuffler = rng(args.seed, 2);
    let deadline = Instant::now() + args.duration();
    let mut pass = 0usize;
    while Instant::now() < deadline || (args.trace && pass < 2) {
        shuffle(&mut order, &mut shuffler);
        let traced = args.trace && pass % 2 == 1;
        let mut sums = PassSums::default();
        if traced {
            prolog_trace::enable();
        }
        for &i in &order {
            let input = &inputs[i];
            meter.sample_every(SPEED_EVERY);
            let at = Instant::now();
            let (texts, op_ms) = if traced {
                let mut texts = Vec::new();
                let mut total = 0.0;
                for _ in 0..input.reps {
                    let (text, t) = traced_op(&input.text, &config, &mut sums);
                    texts.push(text);
                    total += t;
                }
                (texts, total)
            } else {
                timed(|| {
                    (0..input.reps)
                        .map(|_| reorder_text(&input.text, &config))
                        .collect::<Vec<_>>()
                })
            };
            let ok = texts.iter().all(|text| *text == reference[i]);
            outcome.attempted += 1;
            if !ok {
                outcome.failed += 1;
            }
            outcome.check(ok, || {
                format!("{}: emission differs from the set-up pass", input.name)
            });
            ops.push(Op {
                kind: usize::from(input.search),
                input: input.name.clone(),
                traced,
                pass,
                ok,
                ms: op_ms,
                at,
            });
        }
        if traced {
            prolog_trace::disable();
            // The program's own spans are recorded for the overhead, not
            // kept: drop them so memory stays flat over the run.
            drop(prolog_trace::drain());
            let reorders: usize = inputs.iter().map(|input| input.reps).sum();
            finish_pass(sums, reorders, &mut layers);
        }
        pass += 1;
    }
    meter.sample();
    let summary = summarize(&ops, &meter, 2, LIMIT_MS);

    outcome.set("setup_s", scaled_setup_seconds(&setups, &meter));
    outcome.set("ops_per_s", summary.ops_per_s());
    outcome.set("geomean_ms", summary.all.p50());
    let [paper, search] = &summary.kinds[..] else {
        unreachable!("two kinds")
    };
    outcome.set("compiled.geomean_ms", search.p50());
    outcome.set("hit.p50_ms", paper.p50());
    outcome.set("hit.p90_ms", paper.p90());
    outcome.set("miss.p50_ms", search.p50());
    outcome.set("miss.p90_ms", search.p90());
    outcome.set("calls_ratio", estimated_calls_ratio(&reports));
    outcome.set(
        "out_kb",
        reference.iter().map(String::len).sum::<usize>() as f64 / 1e3,
    );
    outcome.set(
        "slo_ok",
        summary.within_limit as f64 / outcome.attempted as f64,
    );
    match peak_rss_probe() {
        Ok(mb) => outcome.set("peak_rss_mb", mb),
        Err(e) => outcome.check(false, || e),
    }
    if args.trace {
        layers.report(&mut outcome);
        outcome.set("trace.overhead_pct", summary.overhead_pct());
    }
    outcome
}

/// The reorderer's own estimate of how many fewer calls its output
/// makes: the geometric mean, over every `(predicate, mode)` it
/// reordered, of the estimated cost before over the cost after. Exact:
/// it comes from the cost model, not from a clock.
pub fn estimated_calls_ratio(reports: &[ReorderReport]) -> f64 {
    let ratios: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.predicates)
        .flat_map(|p| &p.modes)
        .map(|m| m.original.cost / m.reordered.cost)
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    geomean(&ratios)
}

/// `peak_rss_mb`: the median, over [`RSS_PROBES`] fresh processes, of
/// the peak RSS of a process that reorders each of the paper's programs
/// once — the memory a one-shot reorder of the largest of them needs.
/// A fresh process each time, because inside the long-running benchmark
/// the peak also holds whatever earlier operations left in the
/// allocator's per-thread arenas. The generated programs are left out:
/// the memory of their searches moves the peak by half from one seed's
/// programs to the next.
fn peak_rss_probe() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let output = std::process::Command::new(&exe)
            .arg("rss-reorder")
            .output()
            .map_err(|e| format!("rss probe: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let mb = text
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("rss probe printed {text:?} ({})", output.status))?;
        peaks.push(mb);
    }
    Ok(median(&peaks))
}

/// `perfbench rss-reorder`: reorder each of the paper's programs once
/// and print this process's peak RSS in MB.
pub fn rss_probe_main() -> i32 {
    // On one CPU the pool's threads interleave the same way every time,
    // which keeps the allocator's per-thread arenas, and the peak, the
    // same from run to run.
    pin_to_one_cpu();
    let config = ReorderConfig::default();
    for input in inputs(&[]) {
        reorder_text(&input.text, &config);
    }
    println!("{}", peak_rss_mb(std::process::id()));
    0
}

/// The operation: Prolog text in, reordered Prolog text out.
fn reorder_text(text: &str, config: &ReorderConfig) -> String {
    reorder::reorder_source(text, config)
        .expect("workload programs parse")
        .text
}

/// Turns one traced pass's sums into per-reorder values.
fn finish_pass(sums: PassSums, reorders: usize, log: &mut LayerLog) {
    let per_reorder = |v: f64| v / reorders as f64;
    for name in [
        "syntax.parse_ms",
        "syntax.emit_ms",
        "analysis.declarations_ms",
        "analysis.callgraph_ms",
        "analysis.recursion_ms",
        "analysis.fixity_ms",
        "analysis.semifixity_ms",
        "core.oracle_ms",
        "core.estimate_ms",
        "core.run_ms",
        "core.planning_ms",
        "core.reordering_ms",
        "core.emission_ms",
        "core.orders_explored",
        "core.orders_rejected",
        "markov.chain_evals",
        "core.versions",
        "core.out_clauses",
    ] {
        log.push(name, per_reorder(sums.get(name)));
    }
    log.push(
        "syntax.parse_mb_per_s",
        sums.get("in_bytes") / 1e3 / sums.get("syntax.parse_ms"),
    );
    log.push(
        "syntax.emit_mb_per_s",
        sums.get("out_bytes") / 1e3 / sums.get("syntax.emit_ms"),
    );
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    log.push(
        "core.estimate_hit_ratio",
        ratio(sums.get("estimate_hits"), sums.get("estimate_misses")),
    );
    log.push(
        "core.mode_hit_ratio",
        ratio(sums.get("mode_hits"), sums.get("mode_misses")),
    );
    log.push(
        "markov.chain_hit_ratio",
        ratio(sums.get("chain_hits"), sums.get("chain_misses")),
    );
}

/// The operation split at its layer boundaries — parse, reorder, emit,
/// exactly the calls `reorder_source` makes — followed by separately
/// timed calls into each planning analysis. Returns the emission and the
/// time of the three operation calls alone.
fn traced_op(text: &str, config: &ReorderConfig, sums: &mut PassSums) -> (String, f64) {
    let (program, parse_ms) = timed(|| parse_program(text).expect("workload programs parse"));
    let (result, run_ms) = timed(|| Reorderer::new(&program, config.clone()).run());
    let (emitted, emit_ms) = timed(|| program_to_string(&result.program));
    sums.add("syntax.parse_ms", parse_ms);
    sums.add("core.run_ms", run_ms);
    sums.add("syntax.emit_ms", emit_ms);
    sums.add("in_bytes", text.len() as f64);
    sums.add("out_bytes", emitted.len() as f64);
    let stats = &result.report.stats;
    sums.add("core.planning_ms", ms(stats.planning));
    sums.add("core.reordering_ms", ms(stats.reordering));
    sums.add("core.emission_ms", ms(stats.emission));
    sums.add("core.orders_explored", stats.orders_explored as f64);
    sums.add("core.orders_rejected", stats.orders_rejected as f64);
    sums.add("estimate_hits", stats.estimate_hits as f64);
    sums.add("estimate_misses", stats.estimate_misses as f64);
    sums.add("mode_hits", stats.mode_hits as f64);
    sums.add("mode_misses", stats.mode_misses as f64);
    sums.add("chain_hits", stats.chain_hits as f64);
    sums.add("chain_misses", stats.chain_misses as f64);
    sums.add(
        "markov.chain_evals",
        (stats.chain_hits + stats.chain_misses) as f64,
    );
    sums.add("core.versions", versions(&result.report) as f64);
    sums.add("core.out_clauses", result.program.clauses.len() as f64);
    probe_planning(&program, config, sums);
    (emitted, parse_ms + run_ms + emit_ms)
}

/// Distinct specialised versions a reorder emitted.
pub fn versions(report: &ReorderReport) -> usize {
    report
        .predicates
        .iter()
        .flat_map(|p| p.modes.iter().map(|m| m.version.as_str()))
        .collect::<std::collections::BTreeSet<&str>>()
        .len()
}

/// Times each public planning step `Reorderer::run` performs, one call
/// each, in the order it performs them.
fn probe_planning(program: &SourceProgram, config: &ReorderConfig, sums: &mut PassSums) {
    let (declarations, t) = timed(|| Declarations::from_program(program));
    sums.add("analysis.declarations_ms", t);
    let (graph, t) = timed(|| CallGraph::build(program));
    sums.add("analysis.callgraph_ms", t);
    let (recursion, t) = timed(|| RecursionAnalysis::compute(&graph));
    sums.add("analysis.recursion_ms", t);
    let (_, t) = timed(|| {
        let mut seeds = prolog_engine_builtin_seeds();
        seeds.extend(declarations.fixed.iter().copied());
        FixityAnalysis::compute_with_seeds(program, &graph, &seeds)
    });
    sums.add("analysis.fixity_ms", t);
    let (_, t) = timed(|| SemifixityAnalysis::compute(program, &graph));
    sums.add("analysis.semifixity_ms", t);
    let defined = program.predicates();
    let (oracle, t) = timed(|| {
        let oracle = ModeOracle::new(program, &declarations);
        for &pred in &defined {
            oracle.legal_plus_minus_modes(pred);
        }
        oracle
    });
    sums.add("core.oracle_ms", t);
    let (_, t) = timed(|| {
        let estimator = Estimator::new(program, &oracle, &declarations, &recursion, config);
        for pred in graph.bottom_up_order() {
            if defined.contains(&pred) {
                for mode in oracle.legal_plus_minus_modes(pred) {
                    estimator.stats(pred, &mode);
                }
            }
        }
    });
    sums.add("core.estimate_ms", t);
}
