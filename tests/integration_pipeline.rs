//! Cross-crate pipeline tests: parse → analyze → estimate → reorder →
//! emit → re-parse → execute. Each test exercises the full path a user
//! takes through the public API.

use prolog_engine::Engine;
use prolog_syntax::{parse_program, PredId};
use reorder::{ReorderConfig, Reorderer};

const FAMILY: &str = "
    girl(g1). girl(g2). girl(g3). girl(m1). girl(m2).
    wife(h1, w1). wife(h2, w2). wife(h3, w3). wife(h4, w4).
    mother(c1, m1). mother(c2, m2). mother(c3, m3). mother(c4, m4).
    mother(c5, m1). mother(c6, m2). mother(c7, w1). mother(c8, w2).
    mother(w1, m1). mother(w2, m2).
    female(X) :- girl(X).
    female(X) :- wife(_, X).
    parent(C, P) :- mother(C, P).
    parent(C, P) :- mother(C, M), wife(P, M).
    grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
    grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
";

#[test]
fn emitted_program_reparses_and_runs() {
    let program = parse_program(FAMILY).unwrap();
    let result = Reorderer::new(&program, ReorderConfig::default()).run();
    // The printed output is valid Prolog.
    let text = prolog_syntax::pretty::program_to_string(&result.program);
    let reparsed = parse_program(&text).expect("round-trips through the printer");
    // And it executes to the same answers as the in-memory version.
    let mut from_memory = Engine::new();
    from_memory.load(&result.program);
    let mut from_text = Engine::new();
    from_text.load(&reparsed);
    let a = from_memory.query("grandmother(X, Y)").unwrap();
    let b = from_text.query("grandmother(X, Y)").unwrap();
    assert_eq!(a.solution_set(), b.solution_set());
    assert!(a.succeeded());
}

#[test]
fn reordering_actually_reduces_measured_calls() {
    // The headline claim: on the uninstantiated grandmother query, the
    // reordered program costs measurably fewer predicate calls.
    let program = parse_program(FAMILY).unwrap();
    let result = Reorderer::new(&program, ReorderConfig::default()).run();

    let mut original = Engine::new();
    original.load(&program);
    let before = original.query("grandmother(X, Y)").unwrap();

    let mut reordered = Engine::new();
    reordered.load(&result.program);
    let after = reordered.query("grandmother(X, Y)").unwrap();

    assert_eq!(before.solution_set(), after.solution_set());
    assert!(
        after.counters.user_calls < before.counters.user_calls,
        "expected fewer calls: {} -> {}",
        before.counters.user_calls,
        after.counters.user_calls
    );
}

#[test]
fn predicted_and_measured_improvements_point_the_same_way() {
    // The Markov model is a heuristic; but when it predicts a big win for
    // the (-,-) mode, the measured counts should at least not get worse.
    let program = parse_program(FAMILY).unwrap();
    let result = Reorderer::new(&program, ReorderConfig::default()).run();
    let report = result
        .report
        .predicate(PredId::new("grandmother", 2))
        .unwrap();
    let uu = report
        .modes
        .iter()
        .find(|m| m.mode == prolog_analysis::Mode::parse("--").unwrap())
        .unwrap();
    if uu.predicted_speedup() > 1.5 {
        let mut original = Engine::new();
        original.load(&program);
        let before = original
            .query("grandmother(X, Y)")
            .unwrap()
            .counters
            .user_calls;
        let mut reordered = Engine::new();
        reordered.load(&result.program);
        let after = reordered
            .query(&format!("{}(X, Y)", uu.version))
            .unwrap()
            .counters
            .user_calls;
        assert!(
            after <= before,
            "predicted {:.2}x but measured {before} -> {after}",
            uu.predicted_speedup()
        );
    }
}

#[test]
fn dispatchers_route_by_instantiation() {
    let program = parse_program(FAMILY).unwrap();
    let result = Reorderer::new(&program, ReorderConfig::default()).run();
    let mut engine = Engine::new();
    engine.load(&result.program);
    // Bound and unbound calls through the dispatcher both work.
    let all = engine.query("grandparent(X, Y)").unwrap();
    assert!(all.succeeded());
    let one = &all.solutions[0];
    let x = one.get("X").unwrap().to_string();
    let y = one.get("Y").unwrap().to_string();
    assert!(engine
        .has_solution(&format!("grandparent({x}, {y})"))
        .unwrap());
    assert!(engine
        .has_solution(&format!("grandparent({x}, Y)"))
        .unwrap());
    assert!(engine
        .has_solution(&format!("grandparent(X, {y})"))
        .unwrap());
    // A nonsense pair fails through the dispatcher as well.
    assert!(!engine.has_solution("grandparent(g1, g1)").unwrap());
}

#[test]
fn directives_are_preserved_in_output() {
    let src = ":- entry(main/0).\nmain :- p(_).\np(1). p(2).";
    let program = parse_program(src).unwrap();
    let result = Reorderer::new(&program, ReorderConfig::default()).run();
    assert_eq!(result.program.directives.len(), 1);
}

#[test]
fn declared_costs_steer_the_search() {
    // Two generators of equal static appearance; a cost declaration marks
    // one as enormously expensive, so the other must be called first.
    // slow/1 is declared expensive when free but cheap when bound with a
    // single expected solution; under either cost model the cheap
    // generator must lead.
    let src = "
        :- cost(slow/1, '-', 1000.0, 0.5).
        :- cost(slow/1, '+', 50.0, 0.5).
        pair(X) :- slow(X), quick(X).
        slow(a). slow(b).
        quick(a). quick(b). quick(c).
    ";
    let program = parse_program(src).unwrap();
    let result = Reorderer::new(&program, ReorderConfig::default()).run();
    let report = result.report.predicate(PredId::new("pair", 1)).unwrap();
    let u = report
        .modes
        .iter()
        .find(|m| m.mode == prolog_analysis::Mode::parse("-").unwrap())
        .unwrap();
    assert_eq!(u.goal_orders[0], vec![1, 0], "quick must be hoisted first");
}

#[test]
fn reordering_is_idempotent_on_its_own_output() {
    // Reordering the reordered program must not change the answers.
    let program = parse_program(FAMILY).unwrap();
    let once = Reorderer::new(&program, ReorderConfig::default()).run();
    let twice = Reorderer::new(&once.program, ReorderConfig::default()).run();
    let mut a = Engine::new();
    a.load(&once.program);
    let mut b = Engine::new();
    b.load(&twice.program);
    let sa = a.query("grandmother(X, Y)").unwrap().solution_set();
    let sb = b.query("grandmother(X, Y)").unwrap().solution_set();
    assert_eq!(sa, sb);
}

#[test]
fn disabled_goal_reordering_still_specializes() {
    let program = parse_program(FAMILY).unwrap();
    let config = ReorderConfig {
        reorder_goals: false,
        ..Default::default()
    };
    let result = Reorderer::new(&program, config).run();
    let mut engine = Engine::new();
    engine.load(&result.program);
    assert!(engine.query("grandmother(X, Y)").unwrap().succeeded());
    // goal orders are all identity
    for pr in &result.report.predicates {
        for m in &pr.modes {
            for order in &m.goal_orders {
                assert!(order.iter().copied().eq(0..order.len()));
            }
        }
    }
}

#[test]
fn report_display_is_readable() {
    let program = parse_program(FAMILY).unwrap();
    let result = Reorderer::new(&program, ReorderConfig::default()).run();
    let text = result.report.to_string();
    assert!(text.contains("grandmother/2"));
    assert!(text.contains("mode (-,-)"));
    assert!(text.contains("facts only"));
}

/// `p(X) :- g0(X, Y0), …, g{n-1}(X, Y{n-1}).` where the last goal is the
/// cheapest generator of `X`: a search would run it first.
fn wide_clause_program(width: usize) -> String {
    let body: Vec<String> = (0..width).map(|i| format!("g{i}(X, Y{i})")).collect();
    let mut src = format!("p(X) :- {}.\n", body.join(", "));
    for i in 0..width - 1 {
        for x in ["a", "b", "c"] {
            src.push_str(&format!("g{i}({x}, {x}{i}).\n"));
        }
    }
    src.push_str(&format!("g{}(a, last).\n", width - 1));
    src
}

#[test]
fn blocks_wider_than_the_search_mask_keep_their_source_order() {
    let clause_of_p = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("p("))
            .expect("p/1 is emitted")
            .to_string()
    };
    // A narrow block of the same shape is reordered: in the unbound mode
    // the cheap last goal leads.
    let narrow = wide_clause_program(6);
    let out = reorder::reorder_source(&narrow, &ReorderConfig::default()).unwrap();
    assert!(out.text.contains("p_u(X) :- g5(X, Y5), g0(X, Y0)"));

    // Seventy goals overflow the search's placed-goal mask: the block
    // keeps its source order, unsearched, instead of panicking on the
    // shift (debug) or aliasing goal 64 to goal 0 (release).
    let wide = wide_clause_program(70);
    let out = reorder::reorder_source(&wide, &ReorderConfig::default()).unwrap();
    let source_clause = clause_of_p(&wide);
    assert_eq!(clause_of_p(&out.text), source_clause.trim_end());
    let p = out
        .report
        .predicate(PredId::new("p", 1))
        .expect("p/1 is reordered");
    assert!(!p.modes.is_empty());
    for mode in &p.modes {
        assert_eq!(mode.explored, 1, "{}: the block was searched", mode.mode);
        assert_eq!(mode.goal_orders, vec![(0..70).collect::<Vec<_>>()]);
    }
}
