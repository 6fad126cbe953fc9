//! The `query` workload: the run time of the generated code, in a closed
//! loop with one caller.
//!
//! Set-up reorders each program of the paper's Tables II–IV, loads the
//! reordered text into an interpreter and a compiled engine, and warms
//! both. Each timed operation runs one per-mode query set to exhaustion
//! on one engine: the interpreter (the default engine) or the compiled
//! engine. Nearly all of the time is in `engine`; none is in `syntax`,
//! `core` or `server`.

use crate::common::{
    geomean, median, ms, peak_rss_mb, pin_to_one_cpu, rng, scaled_setup_seconds, shuffle,
    summarize, timed, Args, LayerLog, Op, Outcome, PassSums, SpeedMeter, QUERY_PROGRAMS,
    SPEED_EVERY,
};
use prolog_analysis::Mode;
use prolog_engine::{Counters, Engine, EngineKind, MachineConfig};
use prolog_syntax::{parse_program, parse_term, PredId, SourceProgram, Term};
use prolog_workloads::puzzles::{meal_universe, p58_universe, team_universe};
use prolog_workloads::{family_program, mode_queries, FamilyConfig, QuerySpec};
use reorder::{ReorderConfig, ReorderReport, RunStats};
use std::time::Instant;

/// A query set is repeated within one operation until the operation's
/// work reaches [`MIN_OP_UNITS`], so that no timed operation is a
/// fraction of a millisecond (about 1 µs per unit). Work counts each
/// predicate call as one unit and each query as [`QUERY_UNITS`], the
/// cost of starting one through `Engine::query_term`. Both counts are
/// exact, so every run batches every set the same way.
const MIN_OP_UNITS: u64 = 5_000;
const QUERY_UNITS: u64 = 200;
const SETUPS: usize = 5;
/// Fresh processes `peak_rss_mb` is the median of.
const RSS_PROBES: usize = 3;
/// An operation that takes longer than this counts against `slo_ok`.
const LIMIT_MS: f64 = 1_000.0;
const ENGINES: [EngineKind; 2] = [EngineKind::Interp, EngineKind::Compiled];

/// One per-mode query set, as Tables II–IV run it.
struct QuerySet {
    program: usize,
    label: String,
    /// Goals against the reordered program (the mode-tuned version
    /// where the table calls one).
    reordered: Vec<Term>,
    var_names: Vec<Vec<String>>,
    reps: u64,
    /// Counters and solution count of one run on the reordered program.
    counters: Counters,
    solutions: usize,
}

/// A version a set calls on the reordered program: the set's goals are
/// renamed to the version serving `mode` of `name/arity`.
struct Target {
    name: &'static str,
    arity: usize,
    mode: &'static str,
}

fn goals(texts: &[String]) -> Vec<Term> {
    texts
        .iter()
        .map(|t| parse_term(t).expect("query parses").0)
        .collect()
}

fn spec(name: &str, mode: &str, universe: &[String]) -> Vec<Term> {
    mode_queries(&QuerySpec {
        name: name.to_string(),
        mode: Mode::parse(mode).expect("valid mode"),
        universe: universe.to_vec(),
    })
}

/// `(program index, label, goals, target)` for every set.
fn set_specs() -> Vec<(usize, String, Vec<Term>, Option<Target>)> {
    let index = |name: &str| {
        QUERY_PROGRAMS
            .iter()
            .position(|p| *p == name)
            .expect("known program")
    };
    let mut sets = Vec::new();
    let (_, people) = family_program(&FamilyConfig::default());
    for pred in ["aunt", "brother", "cousins", "grandmother"] {
        for mode in ["--", "-+", "+-"] {
            sets.push((
                index("family"),
                format!("{pred}({mode})"),
                spec(pred, mode, &people),
                Some(Target {
                    name: pred,
                    arity: 2,
                    mode,
                }),
            ));
        }
    }
    for query in [
        "benefits(E, B)",
        "pay(E, N, P)",
        "pay(E, jane, P)",
        "maternity(E, N)",
        "maternity(E, jane)",
        "average_pay(D, A)",
        "tax(E, T)",
        "tax(e1, T)",
    ] {
        sets.push((
            index("corporate"),
            query.to_string(),
            goals(&[query.to_string()]),
            None,
        ));
    }
    sets.push((
        index("kmbench"),
        "run_all".into(),
        goals(&["run_all".into()]),
        None,
    ));
    sets.push((
        index("p58"),
        "p58(++)".into(),
        spec("p58", "++", &p58_universe()),
        Some(Target {
            name: "p58",
            arity: 2,
            mode: "++",
        }),
    ));
    sets.push((
        index("meal"),
        "meal(---)".into(),
        goals(&["meal(A, M, D)".into()]),
        Some(Target {
            name: "meal",
            arity: 3,
            mode: "---",
        }),
    ));
    let (apps, mains, _) = meal_universe();
    let partial: Vec<String> = apps
        .iter()
        .flat_map(|a| mains.iter().map(move |m| format!("meal({a}, {m}, D)")))
        .collect();
    sets.push((
        index("meal"),
        "meal(++-)".into(),
        goals(&partial),
        Some(Target {
            name: "meal",
            arity: 3,
            mode: "++-",
        }),
    ));
    sets.push((
        index("team"),
        "team(--)".into(),
        goals(&["team(L, M)".into()]),
        Some(Target {
            name: "team",
            arity: 2,
            mode: "--",
        }),
    ));
    sets.push((
        index("team"),
        "team(++)".into(),
        spec("team", "++", &team_universe()),
        Some(Target {
            name: "team",
            arity: 2,
            mode: "++",
        }),
    ));
    sets
}

/// The name of the version serving `target`'s mode in a reorder report.
fn version(report: &ReorderReport, target: &Target) -> String {
    let mode = Mode::parse(target.mode).expect("valid mode");
    report
        .predicate(PredId::new(target.name, target.arity))
        .and_then(|p| p.modes.iter().find(|m| m.mode == mode))
        .map_or_else(|| target.name.to_string(), |m| m.version.clone())
}

fn engine(kind: EngineKind, program: &SourceProgram) -> Engine {
    let mut engine = Engine::with_config(MachineConfig {
        engine: kind,
        ..MachineConfig::default()
    });
    engine.load(program);
    engine
}

/// Result of running a set: counters, solution count, and (when asked)
/// the per-query solution sets.
struct SetRun {
    counters: Counters,
    solutions: usize,
    sets: Vec<Vec<String>>,
}

fn run_set(engine: &mut Engine, goals: &[Term], names: &[Vec<String>], keep: bool) -> SetRun {
    let mut run = SetRun {
        counters: Counters::default(),
        solutions: 0,
        sets: Vec::new(),
    };
    for (goal, names) in goals.iter().zip(names) {
        let outcome = engine
            .query_term(goal, names, usize::MAX)
            .unwrap_or_else(|e| panic!("query {goal} failed: {e}"));
        run.counters.add(&outcome.counters);
        run.solutions += outcome.solutions.len();
        if keep {
            run.sets.push(outcome.solution_set());
        }
    }
    run
}

/// The loaded system: the reordered programs in both engines.
struct Loaded {
    out_bytes: usize,
    engines: Vec<[Engine; 2]>,
    reports: Vec<ReorderReport>,
    out_clauses: usize,
    load_ms: f64,
    first_query_ms: f64,
}

/// Set-up: reorder every program, load the reordered text into both
/// engines, and run every set once on each (the compiled engine compiles
/// lazily on its first calls).
fn load(texts: &[String], specs: &[(usize, String, Vec<Term>, Option<Target>)]) -> Loaded {
    let config = ReorderConfig::default();
    let mut loaded = Loaded {
        out_bytes: 0,
        engines: Vec::new(),
        reports: Vec::new(),
        out_clauses: 0,
        load_ms: 0.0,
        first_query_ms: 0.0,
    };
    for text in texts {
        let outcome = reorder::reorder_source(text, &config).expect("corpus programs parse");
        loaded.out_bytes += outcome.text.len();
        let program = parse_program(&outcome.text).expect("emitted programs reparse");
        loaded.out_clauses += program.clauses.len();
        let (engines, t) = timed(|| ENGINES.map(|kind| engine(kind, &program)));
        loaded.load_ms += t;
        loaded.engines.push(engines);
        loaded.reports.push(outcome.report);
    }
    for (program, _, goals, target) in specs {
        let goals = retarget(goals, target.as_ref(), &loaded.reports[*program]);
        let names = var_names(&goals);
        for (e, engine) in loaded.engines[*program].iter_mut().enumerate() {
            let (_, t) = timed(|| run_set(engine, &goals, &names, false));
            if ENGINES[e] == EngineKind::Compiled {
                loaded.first_query_ms += t;
            }
        }
    }
    loaded
}

fn retarget(goals: &[Term], target: Option<&Target>, report: &ReorderReport) -> Vec<Term> {
    match target {
        None => goals.to_vec(),
        Some(target) => {
            let name = prolog_syntax::sym(&version(report, target));
            goals
                .iter()
                .map(|g| Term::struct_(name, g.args().to_vec()))
                .collect()
        }
    }
}

fn var_names(goals: &[Term]) -> Vec<Vec<String>> {
    goals
        .iter()
        .map(|g| (0..g.variables().len()).map(|i| format!("V{i}")).collect())
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    pin_to_one_cpu();
    let mut outcome = Outcome::default();
    let texts = texts();
    let specs = set_specs();

    let mut setups = Vec::new();
    let mut loaded = None;
    let mut layers = LayerLog::default();
    let mut meter = SpeedMeter::default();
    for _ in 0..SETUPS {
        meter.sample();
        let at = Instant::now();
        let (l, t) = timed(|| load(&texts, &specs));
        meter.sample();
        setups.push((t, at));
        layers.push("engine.load_ms", l.load_ms / QUERY_PROGRAMS.len() as f64);
        layers.push(
            "engine.first_query_ms",
            l.first_query_ms / QUERY_PROGRAMS.len() as f64,
        );
        loaded = Some(l);
    }
    let mut loaded = loaded.expect("at least one set-up");

    // Reference run, outside the timed set-up: the original program on
    // the interpreter. The reordered program must give the same solution
    // sets there, and the compiled engine the same solutions and
    // counters as the interpreter.
    let mut sets = Vec::new();
    let mut calls_ratios = Vec::new();
    for (program, label, goals, target) in &specs {
        let reordered_goals = retarget(goals, target.as_ref(), &loaded.reports[*program]);
        let names = var_names(goals);
        let original = run_set(
            &mut engine(
                EngineKind::Interp,
                &parse_program(&texts[*program]).expect("corpus parses"),
            ),
            goals,
            &names,
            true,
        );
        let [interp, compiled] = &mut loaded.engines[*program];
        let interp = run_set(interp, &reordered_goals, &names, true);
        let compiled = run_set(compiled, &reordered_goals, &names, true);
        outcome.check(original.sets == interp.sets, || {
            format!("{label}: reordered solutions differ from the original's")
        });
        outcome.check(
            compiled.sets == interp.sets && compiled.counters == interp.counters,
            || format!("{label}: compiled engine disagrees with the interpreter"),
        );
        calls_ratios
            .push(original.counters.user_calls as f64 / interp.counters.user_calls.max(1) as f64);
        let calls = interp.counters.calls().max(1);
        sets.push(QuerySet {
            program: *program,
            label: label.clone(),
            reordered: reordered_goals,
            var_names: names,
            reps: MIN_OP_UNITS.div_ceil(goals.len() as u64 * QUERY_UNITS + calls),
            counters: interp.counters,
            solutions: interp.solutions,
        });
    }

    // Timed phase: every (set, engine) operation once per pass, in a
    // seeded order. With tracing on, untraced and traced passes
    // alternate so that their difference is the tracing overhead.
    let mut order: Vec<(usize, usize)> = (0..sets.len())
        .flat_map(|s| (0..ENGINES.len()).map(move |e| (s, e)))
        .collect();
    let mut shuffler = rng(args.seed, 3);
    let mut ops = Vec::new();
    let deadline = Instant::now() + args.duration();
    let mut pass = 0usize;
    while Instant::now() < deadline || (args.trace && pass < 2) {
        shuffle(&mut order, &mut shuffler);
        let traced = args.trace && pass % 2 == 1;
        if traced {
            prolog_trace::enable();
        }
        let mut sums = PassSums::default();
        for &(s, e) in &order {
            let set = &sets[s];
            let engine = &mut loaded.engines[set.program][e];
            meter.sample_every(SPEED_EVERY);
            let at = Instant::now();
            let (runs, op_ms) = timed(|| {
                (0..set.reps)
                    .map(|_| run_set(engine, &set.reordered, &set.var_names, false))
                    .collect::<Vec<_>>()
            });
            outcome.attempted += 1;
            let ok = runs
                .iter()
                .all(|r| r.counters == set.counters && r.solutions == set.solutions);
            if !ok {
                outcome.failed += 1;
            }
            outcome.check(ok, || {
                format!(
                    "{} on {:?}: counters or solutions changed",
                    set.label, ENGINES[e]
                )
            });
            ops.push(Op {
                kind: e,
                input: set.label.clone(),
                traced,
                pass,
                ok,
                ms: op_ms,
                at,
            });
            if traced {
                let program = QUERY_PROGRAMS[set.program];
                let column = if e == 0 { "interp_ms" } else { "compiled_ms" };
                sums.add(column, op_ms);
                sums.add(&format!("engine.{program}.{column}"), op_ms);
                if e == 0 {
                    let calls = (set.counters.calls() * set.reps) as f64;
                    sums.add(&format!("{program}.calls"), calls);
                    sums.add("calls", calls);
                    sums.add("user", (set.counters.user_calls * set.reps) as f64);
                    sums.add("builtin", (set.counters.builtin_calls * set.reps) as f64);
                    sums.add("unify", (set.counters.unifications * set.reps) as f64);
                }
            }
        }
        if traced {
            prolog_trace::disable();
            drop(prolog_trace::drain());
            finish_pass(&sums, sets.len(), &mut layers);
        }
        pass += 1;
    }
    meter.sample();
    let summary = summarize(&ops, &meter, ENGINES.len(), LIMIT_MS);
    let [interp, compiled] = &summary.kinds[..] else {
        unreachable!("one kind per engine")
    };
    outcome.set("setup_s", scaled_setup_seconds(&setups, &meter));
    outcome.set("ops_per_s", summary.ops_per_s());
    outcome.set("geomean_ms", interp.p50());
    outcome.set("compiled.geomean_ms", compiled.p50());
    outcome.set("hit.p50_ms", interp.p50());
    outcome.set("hit.p90_ms", interp.p90());
    outcome.set("miss.p50_ms", compiled.p50());
    outcome.set("miss.p90_ms", compiled.p90());
    outcome.set("calls_ratio", geomean(&calls_ratios));
    outcome.set("out_kb", loaded.out_bytes as f64 / 1e3);
    outcome.set(
        "slo_ok",
        summary.within_limit as f64 / outcome.attempted as f64,
    );
    match peak_rss_probe() {
        Ok(mb) => outcome.set("peak_rss_mb", mb),
        Err(e) => outcome.check(false, || e),
    }
    if args.trace {
        let programs = QUERY_PROGRAMS.len() as f64;
        let per_program = |f: fn(&RunStats) -> f64| {
            loaded.reports.iter().map(|r| f(&r.stats)).sum::<f64>() / programs
        };
        layers.push("core.run_ms", per_program(|s| ms(s.total)));
        layers.push("core.planning_ms", per_program(|s| ms(s.planning)));
        layers.push("core.reordering_ms", per_program(|s| ms(s.reordering)));
        layers.push("core.emission_ms", per_program(|s| ms(s.emission)));
        let versions: usize = loaded.reports.iter().map(crate::reorder_wl::versions).sum();
        layers.push("core.versions", versions as f64 / programs);
        layers.push("core.out_clauses", loaded.out_clauses as f64 / programs);
        layers.report(&mut outcome);
        outcome.set("trace.overhead_pct", summary.overhead_pct());
    }
    outcome
}

/// Turns one traced pass's sums into per-operation values.
fn finish_pass(sums: &PassSums, sets: usize, layers: &mut LayerLog) {
    let per_op = sets as f64;
    layers.push("engine.interp_ms", sums.get("interp_ms") / per_op);
    layers.push("engine.compiled_ms", sums.get("compiled_ms") / per_op);
    layers.push(
        "engine.calls_per_ms",
        sums.get("calls") / sums.get("interp_ms"),
    );
    layers.push("engine.user_calls", sums.get("user") / per_op);
    layers.push("engine.builtin_calls", sums.get("builtin") / per_op);
    layers.push("engine.unifications", sums.get("unify") / per_op);
    layers.push(
        "engine.builtin_share",
        sums.get("builtin") / sums.get("calls"),
    );
    for program in QUERY_PROGRAMS {
        for column in ["interp_ms", "compiled_ms"] {
            let name = format!("engine.{program}.{column}");
            layers.push(&name, sums.get(&name));
        }
        layers.push(
            &format!("engine.{program}.calls_per_ms"),
            sums.get(&format!("{program}.calls"))
                / sums.get(&format!("engine.{program}.interp_ms")),
        );
    }
}

/// `peak_rss_mb`: the median, over [`RSS_PROBES`] fresh processes, of
/// the peak RSS of a process that performs the workload's set-up: it
/// reorders and loads every program and runs every set once on each
/// engine. A fresh process each time, because inside the long-running
/// benchmark the peak also holds whatever earlier passes left in the
/// allocator.
fn peak_rss_probe() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let output = std::process::Command::new(&exe)
            .arg("rss-query")
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

/// `perfbench rss-query`: perform the workload's set-up once and print
/// this process's peak RSS in MB.
pub fn rss_probe_main() -> i32 {
    pin_to_one_cpu();
    load(&texts(), &set_specs());
    println!("{}", peak_rss_mb(std::process::id()));
    0
}

fn texts() -> Vec<String> {
    QUERY_PROGRAMS
        .iter()
        .map(|name| {
            prolog_workloads::corpus_program(name)
                .expect("corpus program")
                .text
        })
        .collect()
}
