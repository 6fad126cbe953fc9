//! Goal-order search (paper §VI-A.3, §VI-B.1).
//!
//! For a mobile block of `n` goals, the best legal order is found either
//! by exhaustive enumeration with legality pruning (small `n`) or by
//! best-first search à la Smith & Genesereth: nodes are ordered legal
//! prefixes, and the path cost is the all-solutions Markov-chain cost of
//! the prefix — an admissible heuristic because appending a goal can only
//! add cost (§VI-A.3). Both searches honour the semifixity constraint:
//! a culprit variable must have the same instantiation state at its goal's
//! activation as in the original order (§IV-C). Blocks wider than
//! `MAX_SEARCH_GOALS` keep their source order unsearched.
//!
//! # The scan memo
//!
//! Both searches place the same goal from the same instantiations many
//! times over: A* re-expands a goal under every prefix that leaves its
//! variables alike, and the exhaustive walk under every permutation of
//! the goals that do not touch them. [`best_order`] therefore numbers the
//! block's variables as dense *slots*, carries a search state as one
//! `ModeItem` per slot, and memoises [`scan_goal`] per block:
//!
//! - **key:** the goal's index and the states of the goal's own
//!   variables (`Body::variables`) at its activation;
//! - **value:** the annotated goal plus the post-states of those same
//!   variables, or `None` when the goal is illegal in that mode.
//!
//! The key determines the value for two reasons. First, `scan_goal`
//! reads and writes only the goal's own variables: a plain call's mode
//! and outputs are its arguments', negation scans a private copy, and
//! the branch joins of `;` and `->` leave every other variable as it was
//! (the join of equal items is that item). Second, `best_order` runs
//! with no estimator computation in flight, so [`Estimator::stats`] and
//! the mode oracle answer each question from their memo tables, the
//! same way every time. A memo hit is then the answer a fresh scan
//! would give; the search asks the estimator each distinct question
//! once, and places a goal by writing its post-states into a copy of its
//! parent's slot row instead of cloning the whole `AbstractState`.
//!
//! A* nodes hold a parent index and a scan id rather than the path: the
//! winner's order and annotated goals are rebuilt by walking the parent
//! chain. Children are pushed in the same order and with the same `g` as
//! a path-copying search would, so heap ties, the `explored`/`rejected`
//! counts and every chosen order are the same.

use crate::config::{CostModelKind, ReorderConfig};
use crate::costs::Estimator;
use crate::scan::{scan_goal, ScannedGoal};
use prolog_analysis::{AbstractState, ModeItem, SemifixityAnalysis};
use prolog_syntax::Body;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Widest block the search orders: placed goals are tracked in a `u64`
/// mask. Wider blocks keep their source order.
const MAX_SEARCH_GOALS: usize = u64::BITS as usize;
/// Result of ordering one mobile block.
#[derive(Debug, Clone)]
pub struct OrderOutcome {
    /// Permutation: `order[k]` is the index (into the input slice) of the
    /// goal that runs `k`-th.
    pub order: Vec<usize>,
    /// The goals, annotated, in the chosen order.
    pub scanned: Vec<ScannedGoal>,
    /// All-solutions expected cost of the block in the chosen order.
    pub cost: f64,
    /// Exit instantiation state after the block.
    pub exit_state: AbstractState,
    /// Number of orders the search examined (for reports/ablation).
    pub explored: usize,
    /// Candidate placements rejected by legality: culprit-state
    /// violations and goals unscannable in the candidate prefix's mode.
    pub rejected: usize,
}

/// Built-ins whose *meaning* depends on their arguments' instantiation:
/// semifixed in every variable (§IV-C names `var/1` as the canonical
/// example; identity tests and the set predicates behave likewise,
/// §IV-D.5–6).
fn builtin_is_instantiation_sensitive(name: &str) -> bool {
    matches!(
        name,
        "var"
            | "nonvar"
            | "atom"
            | "atomic"
            | "number"
            | "integer"
            | "float"
            | "compound"
            | "callable"
            | "ground"
            | "is_list"
            | "=="
            | "\\=="
            | "\\="
            | "@<"
            | "@>"
            | "@=<"
            | "@>="
            | "compare"
            | "findall"
            | "bagof"
            | "setof"
            | "not"
            | "\\+"
            | "call"
            | "forall"
            | "copy_term"
    )
}

/// The culprit variables of a goal: variables whose instantiation state at
/// this goal's activation must be preserved (§IV-C, §IV-D.5).
fn culprit_vars(goal: &Body, semifix: &SemifixityAnalysis) -> Vec<usize> {
    match goal {
        Body::Call(t) => {
            if t.pred_id()
                .is_some_and(|id| builtin_is_instantiation_sensitive(id.name.as_str()))
            {
                return t.variables();
            }
            semifix.culprit_vars_of_goal(t)
        }
        // Negation is semifixed in all its variables.
        Body::Not(g) => g.to_term().variables(),
        _ => Vec::new(),
    }
}

/// Finds the cheapest legal order of `goals` starting from `entry`.
/// Returns `None` when even the original order cannot be scanned (the
/// block is then left untouched by the caller).
pub fn best_order(
    goals: &[Body],
    entry: &AbstractState,
    est: &Estimator<'_>,
    semifix: &SemifixityAnalysis,
    config: &ReorderConfig,
) -> Option<OrderOutcome> {
    let n = goals.len();
    let mut memo = ScanMemo::new(goals, est, semifix);
    let entry_slots = memo.slots_of(entry);
    // Baseline: the original order. It also yields the culprit-state trace
    // that candidate orders must reproduce.
    let mut state = entry_slots.clone();
    let mut base = Prefix::new(config.cost_model);
    let mut path = Vec::with_capacity(n);
    for i in 0..n {
        memo.record_culprits(i, &state);
        let id = memo.scan(i, &state)?;
        base.push(&memo.scans[id].scanned);
        memo.apply(id, &mut state);
        path.push(id);
    }
    let original = Found {
        path,
        cost: base.g,
        state,
    };
    if n <= 1 || n > MAX_SEARCH_GOALS {
        return Some(memo.outcome(original, entry, 1, 0));
    }

    let (found, explored, rejected) = if n <= config.exhaustive_threshold {
        exhaustive(&mut memo, &entry_slots, original.cost, config.cost_model)
    } else {
        astar(
            &mut memo,
            &entry_slots,
            config.max_search_nodes,
            config.cost_model,
        )
    };
    let chosen = match found {
        // Require a strict improvement; ties keep the source order.
        Some(better) if better.cost < original.cost - 1e-9 => better,
        _ => original,
    };
    Some(memo.outcome(chosen, entry, explored + 1, rejected))
}

/// A complete order found by a search: the scan ids of its goals in
/// order, its cost, and its exit slot states.
struct Found {
    path: Vec<usize>,
    cost: f64,
    state: Vec<ModeItem>,
}

/// One memoised [`scan_goal`] answer.
struct Scan {
    goal: usize,
    scanned: ScannedGoal,
    /// Post-states of the goal's variables, parallel to `ScanMemo::vars`.
    post: Box<[ModeItem]>,
}

/// The block's variables as dense slots, the culprit trace over them,
/// and the per-block memo of [`scan_goal`] answers (see the module
/// docs for why the key determines the answer).
struct ScanMemo<'a, 'p> {
    goals: &'a [Body],
    est: &'a Estimator<'p>,
    /// The variable index of each slot.
    slot_var: Vec<usize>,
    /// Per goal: the slots of its variables.
    vars: Vec<Vec<usize>>,
    /// Per goal: its culprit slots, each with the state it had at the
    /// goal's activation in the original order.
    trace: Vec<Vec<(usize, ModeItem)>>,
    /// Per goal: pre-states of its variables → scan id, `None` when the
    /// goal is illegal from them.
    table: Vec<HashMap<Box<[ModeItem]>, Option<usize>>>,
    scans: Vec<Scan>,
    /// Scratch buffer for lookup keys.
    key: Vec<ModeItem>,
}

impl<'a, 'p> ScanMemo<'a, 'p> {
    fn new(goals: &'a [Body], est: &'a Estimator<'p>, semifix: &SemifixityAnalysis) -> Self {
        let mut slot_var: Vec<usize> = Vec::new();
        let mut slot = |v: usize| match slot_var.iter().position(|&w| w == v) {
            Some(s) => s,
            None => {
                slot_var.push(v);
                slot_var.len() - 1
            }
        };
        let mut vars = Vec::with_capacity(goals.len());
        let mut trace = Vec::with_capacity(goals.len());
        for goal in goals {
            vars.push(goal.variables().into_iter().map(&mut slot).collect());
            // The states are filled in by `record_culprits`.
            trace.push(
                culprit_vars(goal, semifix)
                    .into_iter()
                    .map(|v| (slot(v), ModeItem::Minus))
                    .collect(),
            );
        }
        ScanMemo {
            goals,
            est,
            slot_var,
            vars,
            trace,
            table: vec![HashMap::new(); goals.len()],
            scans: Vec::new(),
            key: Vec::new(),
        }
    }

    /// The slot row of an abstract state.
    fn slots_of(&self, state: &AbstractState) -> Vec<ModeItem> {
        self.slot_var.iter().map(|&v| state.get(v)).collect()
    }

    /// Records goal `i`'s culprit states at its activation in `state`.
    fn record_culprits(&mut self, i: usize, state: &[ModeItem]) {
        for (s, item) in &mut self.trace[i] {
            *item = state[*s];
        }
    }

    /// Does placing goal `i` in `state` satisfy its culprit constraint?
    fn culprits_ok(&self, i: usize, state: &[ModeItem]) -> bool {
        self.trace[i].iter().all(|&(s, item)| state[s] == item)
    }

    /// Scans goal `i` from `state`: the scan id, or `None` when the goal
    /// is illegal there.
    fn scan(&mut self, i: usize, state: &[ModeItem]) -> Option<usize> {
        self.key.clear();
        self.key.extend(self.vars[i].iter().map(|&s| state[s]));
        if let Some(&hit) = self.table[i].get(self.key.as_slice()) {
            return hit;
        }
        // The goal reads only its own variables, so a state holding just
        // those answers as the full state would.
        let mut own = AbstractState::default();
        for (&s, &item) in self.vars[i].iter().zip(&self.key) {
            own.set(self.slot_var[s], item);
        }
        let id = match scan_goal(&self.goals[i], &mut own, self.est) {
            Some(scanned) => {
                let post = self.vars[i]
                    .iter()
                    .map(|&s| own.get(self.slot_var[s]))
                    .collect();
                self.scans.push(Scan {
                    goal: i,
                    scanned,
                    post,
                });
                Some(self.scans.len() - 1)
            }
            None => None,
        };
        self.table[i].insert(self.key.as_slice().into(), id);
        id
    }

    /// Writes scan `id`'s post-states into `state`.
    fn apply(&self, id: usize, state: &mut [ModeItem]) {
        let scan = &self.scans[id];
        for (&s, &item) in self.vars[scan.goal].iter().zip(scan.post.iter()) {
            state[s] = item;
        }
    }

    /// The outcome of `found`, with `entry` carried through for the
    /// variables outside the block.
    fn outcome(
        &self,
        found: Found,
        entry: &AbstractState,
        explored: usize,
        rejected: usize,
    ) -> OrderOutcome {
        let mut exit_state = entry.clone();
        for (&v, &item) in self.slot_var.iter().zip(&found.state) {
            if entry.get(v) != item {
                exit_state.set(v, item);
            }
        }
        OrderOutcome {
            order: found.path.iter().map(|&id| self.scans[id].goal).collect(),
            scanned: found
                .path
                .iter()
                .map(|&id| self.scans[id].scanned.clone())
                .collect(),
            cost: found.cost,
            exit_state,
            explored,
            rejected,
        }
    }
}

/// Incremental all-solutions cost of a goal prefix. Under the paper's
/// chain model, `v_i = (Π_{j<i} p_j) / (Π_{j≤i} (1−p_j))` visits at cost
/// `c_i` each; under the generator-tree refinement, each goal's full cost
/// once per `Π_{j<i} E_j` fresh activations. Both are monotone in prefix
/// extension, so either keeps the best-first search admissible.
#[derive(Debug, Clone, Copy)]
struct Prefix {
    model: CostModelKind,
    prod_p: f64,
    prod_q: f64,
    /// Fresh activations of the next goal: Π E_j over placed goals.
    activations: f64,
    g: f64,
}

impl Prefix {
    fn new(model: CostModelKind) -> Prefix {
        Prefix {
            model,
            prod_p: 1.0,
            prod_q: 1.0,
            activations: 1.0,
            g: 0.0,
        }
    }

    /// Positive floor for the running products: a long prefix of
    /// near-certain goals (each clamped to `1 − 1e-6`) multiplies
    /// `prod_q` below `f64::MIN_POSITIVE` after ~50 goals. Left to
    /// underflow to `0.0`, `visits` becomes `inf` and poisons both the
    /// branch-and-bound bound and every downstream comparison.
    const FLOOR: f64 = 1e-300;

    fn push(&mut self, goal: &ScannedGoal) {
        let s = goal.stats.clamped();
        match self.model {
            CostModelKind::MarkovChain => {
                self.prod_q = (self.prod_q * (1.0 - s.p)).max(Self::FLOOR);
                let visits = self.prod_p / self.prod_q;
                self.g += visits * s.cost;
                self.prod_p *= s.p;
            }
            CostModelKind::GeneratorTree => {
                self.g += self.activations * s.cost;
                // Symmetric guard: Π E_j overflows to inf just as easily
                // for a prefix of prolific generators.
                self.activations = (self.activations * (s.p / (1.0 - s.p))).min(1.0 / Self::FLOOR);
            }
        }
    }
}

/// Depth-first enumeration with legality pruning and branch-and-bound.
/// Returns `(improvement, orders examined, placements rejected)`.
fn exhaustive(
    memo: &mut ScanMemo<'_, '_>,
    entry: &[ModeItem],
    bound: f64,
    model: CostModelKind,
) -> (Option<Found>, usize, usize) {
    struct Search<'m, 'a, 'p> {
        memo: &'m mut ScanMemo<'a, 'p>,
        /// Slot row per depth: row `d` is the state after `d` placements.
        rows: Vec<ModeItem>,
        path: Vec<usize>,
        best: Option<Found>,
        bound: f64,
        explored: usize,
        rejected: usize,
    }

    impl Search<'_, '_, '_> {
        fn dfs(&mut self, used: u64, prefix: &Prefix) {
            let n = self.memo.goals.len();
            let m = self.memo.slot_var.len();
            let depth = self.path.len();
            if depth == n {
                self.explored += 1;
                if prefix.g < self.bound - 1e-12 {
                    self.bound = prefix.g;
                    self.best = Some(Found {
                        path: self.path.clone(),
                        cost: prefix.g,
                        state: self.rows[depth * m..].to_vec(),
                    });
                }
                return;
            }
            for i in 0..n {
                if used & (1 << i) != 0 {
                    continue;
                }
                let (upper, lower) = self.rows.split_at_mut((depth + 1) * m);
                let row = &upper[depth * m..];
                if !self.memo.culprits_ok(i, row) {
                    self.rejected += 1;
                    continue;
                }
                let Some(id) = self.memo.scan(i, row) else {
                    self.rejected += 1;
                    continue; // illegal order: prune this branch
                };
                let mut next_prefix = *prefix;
                next_prefix.push(&self.memo.scans[id].scanned);
                if next_prefix.g >= self.bound - 1e-12 {
                    continue; // cannot beat the incumbent
                }
                let next = &mut lower[..m];
                next.copy_from_slice(row);
                self.memo.apply(id, next);
                self.path.push(id);
                self.dfs(used | (1 << i), &next_prefix);
                self.path.pop();
            }
        }
    }

    let n = memo.goals.len();
    let mut search = Search {
        memo,
        rows: entry.repeat(n + 1),
        path: Vec::with_capacity(n),
        best: None,
        bound,
        explored: 0,
        rejected: 0,
    };
    search.dfs(0, &Prefix::new(model));
    (search.best, search.explored, search.rejected)
}

/// Best-first (uniform-cost) search over legal ordered prefixes.
/// Returns `(solution, nodes expanded, placements rejected)`.
fn astar(
    memo: &mut ScanMemo<'_, '_>,
    entry: &[ModeItem],
    max_nodes: usize,
    model: CostModelKind,
) -> (Option<Found>, usize, usize) {
    /// An ordered prefix: its last placement and a link to the rest.
    /// Its slot row is `states[index * m..][..m]`.
    #[derive(Clone, Copy)]
    struct Node {
        parent: usize,
        scan: usize,
        used: u64,
        depth: usize,
        prefix: Prefix,
    }

    struct Entry(f64, usize); // (g, node index)

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on g: reverse the comparison.
            other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
        }
    }

    let n = memo.goals.len();
    let m = entry.len();
    let mut nodes = vec![Node {
        parent: usize::MAX,
        scan: usize::MAX,
        used: 0,
        depth: 0,
        prefix: Prefix::new(model),
    }];
    let mut states = entry.to_vec();
    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, 0));
    let mut expanded = 0;
    let mut rejected = 0;

    while let Some(Entry(g, idx)) = heap.pop() {
        expanded += 1;
        if expanded > max_nodes {
            // Search budget exhausted: caller keeps the original order.
            return (None, expanded, rejected);
        }
        let node = nodes[idx];
        let row = idx * m..(idx + 1) * m;
        if node.depth == n {
            let mut path = vec![0; n];
            let mut at = idx;
            for step in path.iter_mut().rev() {
                *step = nodes[at].scan;
                at = nodes[at].parent;
            }
            let found = Found {
                path,
                cost: g,
                state: states[row].to_vec(),
            };
            return (Some(found), expanded, rejected);
        }
        for i in 0..n {
            if node.used & (1 << i) != 0 {
                continue;
            }
            if !memo.culprits_ok(i, &states[row.clone()]) {
                rejected += 1;
                continue;
            }
            let Some(id) = memo.scan(i, &states[row.clone()]) else {
                rejected += 1;
                continue;
            };
            let mut prefix = node.prefix;
            prefix.push(&memo.scans[id].scanned);
            states.extend_from_within(row.clone());
            let child = states.len() - m;
            memo.apply(id, &mut states[child..]);
            nodes.push(Node {
                parent: idx,
                scan: id,
                used: node.used | (1 << i),
                depth: node.depth + 1,
                prefix,
            });
            heap.push(Entry(prefix.g, nodes.len() - 1));
        }
    }
    (None, expanded, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ModeOracle;
    use prolog_analysis::{CallGraph, Declarations, Mode, RecursionAnalysis};
    use prolog_syntax::parse_program;

    /// Runs `f` over the body of the first clause of `src`, entered in
    /// `head_mode`, with the estimator and semifixity analysis built for
    /// `src` under the default config.
    fn with_block<R>(
        src: &str,
        head_mode: &str,
        f: impl FnOnce(&[Body], &AbstractState, &Estimator<'_>, &SemifixityAnalysis) -> R,
    ) -> R {
        let program = parse_program(src).unwrap();
        let declarations = Declarations::from_program(&program);
        let graph = CallGraph::build(&program);
        let recursion = RecursionAnalysis::compute(&graph);
        let semifix = prolog_analysis::SemifixityAnalysis::compute(&program, &graph);
        let config = ReorderConfig::default();
        let oracle = ModeOracle::new(&program, &declarations);
        let est = Estimator::new(&program, &oracle, &declarations, &recursion, &config);
        let clause = &program.clauses[0];
        let goals: Vec<Body> = clause.body.conjuncts().into_iter().cloned().collect();
        let entry = crate::scan::head_state(&clause.head, &Mode::parse(head_mode).unwrap());
        f(&goals, &entry, &est, &semifix)
    }

    fn threshold(exhaustive_threshold: usize) -> ReorderConfig {
        ReorderConfig {
            exhaustive_threshold,
            ..Default::default()
        }
    }

    /// Runs best_order over the body of the first clause of `src`,
    /// returning the chosen order of goal indices.
    fn choose(src: &str, head_mode: &str, exhaustive_threshold: usize) -> Vec<usize> {
        with_block(src, head_mode, |goals, entry, est, semifix| {
            let config = threshold(exhaustive_threshold);
            let out = best_order(goals, entry, est, semifix, &config).expect("scannable");
            out.order
        })
    }

    const GRANDMOTHER: &str = "
        grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
        grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
        parent(C, P) :- mother(C, P).
        parent(C, P) :- mother(C, M), wife(P, M).
        female(W) :- girl(W).
        female(W) :- wife(_, W).
        girl(g1). girl(g2). girl(g3).
        wife(h1, w1). wife(h2, w2). wife(h3, w3). wife(h4, w4).
        mother(c1, m1). mother(c2, m2). mother(c3, m3). mother(c4, m4).
        mother(c5, m1). mother(c6, m2). mother(c7, m3). mother(c8, m4).
        mother(m1, w1). mother(m2, w1). mother(m3, w2). mother(m4, w2).
    ";

    #[test]
    fn paper_intro_example_moves_female_first() {
        // §I-D: female/1 is cheap and instantiates GM; grandparent/2 is
        // expensive. The reorderer should put female(GM) first for the
        // uninstantiated mode.
        let order = choose(GRANDMOTHER, "--", 6);
        assert_eq!(order, vec![1, 0], "female should run before grandparent");
    }

    #[test]
    fn astar_agrees_with_exhaustive() {
        // Force the A* path with threshold 0 and compare.
        let ex = choose(GRANDMOTHER, "--", 6);
        let astar = choose(GRANDMOTHER, "--", 0);
        assert_eq!(ex, astar);
    }

    #[test]
    fn illegal_orders_are_never_chosen() {
        // inc demands X; the only legal order keeps gen(X) before it.
        let src = "
            p(Y) :- gen(X), inc(X, Y).
            gen(1). gen(2). gen(3). gen(4). gen(5).
            inc(X, Y) :- Y is X + 1.
        ";
        // Even though inc is cheap and would be 'better' first, it is
        // illegal first: order must stay [0, 1].
        let order = choose(src, "-", 6);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn cheap_test_moves_before_expensive_generator() {
        let src = "
            q(X) :- expensive(X, _), cheap(X).
            cheap(a1).
            expensive(X, Y) :- e1(X, Y1), e1(Y1, Y2), e1(Y2, Y).
            e1(a1, a2). e1(a2, a3). e1(a3, a4). e1(a4, a5). e1(a5, a6).
            e1(b1, b2). e1(b2, b3). e1(b3, b4). e1(b4, b5). e1(b5, b6).
        ";
        let order = choose(src, "-", 6);
        assert_eq!(order, vec![1, 0], "cheap test should lead");
    }

    #[test]
    fn negation_does_not_cross_its_binder() {
        // \+ taken(X) is semifixed in X: it must not run before gen(X)
        // instantiates X (its result would change).
        let src = "
            free(X) :- gen(X), \\+ taken(X).
            gen(1). gen(2). gen(3). gen(4). gen(5). gen(6). gen(7).
            taken(2). taken(3). taken(5).
        ";
        let order = choose(src, "-", 6);
        assert_eq!(order, vec![0, 1], "negation must stay after its binder");
    }

    #[test]
    fn single_goal_is_trivial() {
        let order = choose("one(X) :- only(X). only(1).", "-", 6);
        assert_eq!(order, vec![0]);
    }

    /// Regression: a long run of near-certain goals (clamped to
    /// `p = 1 − 1e-6`) used to underflow `prod_q` to `0.0` after ~50
    /// pushes, turning the visit count — and thus `g` — into `inf` and
    /// poisoning every branch-and-bound comparison downstream.
    #[test]
    fn markov_prefix_stays_finite_on_long_near_certain_chains() {
        let near_certain = ScannedGoal {
            goal: Body::True,
            call_mode: None,
            stats: prolog_markov::GoalStats::new(1.0, 1.0),
        };
        let mut prefix = Prefix::new(crate::config::CostModelKind::MarkovChain);
        for i in 0..200 {
            prefix.push(&near_certain);
            assert!(
                prefix.g.is_finite(),
                "g became non-finite after {} goals",
                i + 1
            );
        }
        assert!(prefix.prod_q > 0.0, "prod_q underflowed to zero");
        // The cost must still be usable as a branch-and-bound bound.
        assert!(prefix.g < f64::MAX);
    }

    #[test]
    fn generator_prefix_stays_finite_on_long_generator_chains() {
        let generator = ScannedGoal {
            goal: Body::True,
            call_mode: None,
            stats: prolog_markov::GoalStats::new(1.0, 1.0),
        };
        let mut prefix = Prefix::new(crate::config::CostModelKind::GeneratorTree);
        for _ in 0..200 {
            prefix.push(&generator);
        }
        assert!(prefix.activations.is_finite());
        assert!(prefix.g.is_finite());
    }

    /// Mobile blocks whose negation, disjunction and if-then-else goals
    /// share variables with their neighbours, so that where a construct
    /// is placed changes both its own mode and its neighbours'.
    const CONTROL: &[&str] = &[
        "p(X, Z) :- a(X, Y), \\+ b(Y), (c(Y, Z) ; d(Z)), (e(X) -> f(X, W) ; g(W)), h(W, Z).",
        "q(X, V) :- \\+ (a(X, Y), b(Y)), (a(X, V) -> true ; c(V, X)), d(V), e(X).",
        "r(X, Y) :- (d(X) ; g(X)), \\+ e(Y), (b(X) -> h(X, Y) ; c(X, Y)), f(Y, X).",
    ];
    const CONTROL_FACTS: &str = "
        a(1, 2). a(1, 3). a(2, 3). a(3, 4). a(4, 1). a(4, 2).
        b(2). b(4).
        c(1, 1). c(2, 4). c(3, 1). c(3, 2). c(4, 3).
        d(1). d(3). d(4).
        e(2). e(3).
        f(1, 2). f(2, 2). f(3, 4). f(4, 1).
        g(2). g(3). g(4).
        h(1, 1). h(1, 3). h(2, 4). h(3, 1). h(3, 2). h(4, 4). h(4, 1).
    ";

    /// Every permutation of `0..n`, in lexicographic order.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for first in 0..n {
            for rest in permutations(n - 1) {
                let mut perm = vec![first];
                perm.extend(rest.into_iter().map(|i| if i >= first { i + 1 } else { i }));
                out.push(perm);
            }
        }
        out
    }

    /// The memo-free reference: every permutation scanned from scratch on
    /// full abstract states, with the culprit trace of the source order.
    /// Returns the cheapest legal order (source order on ties) and its
    /// cost.
    fn reference_best(
        goals: &[Body],
        entry: &AbstractState,
        est: &Estimator<'_>,
        semifix: &SemifixityAnalysis,
    ) -> (Vec<usize>, f64) {
        let model = ReorderConfig::default().cost_model;
        let mut state = entry.clone();
        let mut trace = Vec::new();
        let mut base = Prefix::new(model);
        for goal in goals {
            let culprits: Vec<(usize, ModeItem)> = culprit_vars(goal, semifix)
                .into_iter()
                .map(|v| (v, state.get(v)))
                .collect();
            trace.push(culprits);
            base.push(&scan_goal(goal, &mut state, est).expect("source order is legal"));
        }
        let mut best = ((0..goals.len()).collect(), base.g);
        for perm in permutations(goals.len()) {
            let mut state = entry.clone();
            let mut prefix = Prefix::new(model);
            let legal = perm.iter().all(|&i| {
                trace[i].iter().all(|&(v, item)| state.get(v) == item)
                    && scan_goal(&goals[i], &mut state, est)
                        .map(|sg| prefix.push(&sg))
                        .is_some()
            });
            if legal && prefix.g < best.1 - 1e-9 {
                best = (perm, prefix.g);
            }
        }
        best
    }

    /// The cost of `order`, scanned from scratch on full abstract states.
    fn fresh_cost(
        goals: &[Body],
        order: &[usize],
        entry: &AbstractState,
        est: &Estimator<'_>,
    ) -> f64 {
        let mut state = entry.clone();
        let mut prefix = Prefix::new(ReorderConfig::default().cost_model);
        for &i in order {
            prefix.push(&scan_goal(&goals[i], &mut state, est).expect("chosen order is legal"));
        }
        prefix.g
    }

    #[test]
    fn memoised_searches_match_a_fresh_scan_of_every_order_on_control_constructs() {
        let mut moved = 0;
        for clause in CONTROL {
            let src = format!("{clause}\n{CONTROL_FACTS}");
            for mode in ["--", "+-", "-+", "++"] {
                with_block(&src, mode, |goals, entry, est, semifix| {
                    let (order, cost) = reference_best(goals, entry, est, semifix);
                    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.max(1.0);
                    // Exhaustive enumeration walks the orders as the
                    // reference does and must pick the same one.
                    let config = threshold(goals.len());
                    let ex = best_order(goals, entry, est, semifix, &config).unwrap();
                    assert_eq!(ex.order, order, "{clause} in {mode}: exhaustive order");
                    assert!(close(ex.cost, cost), "{clause} in {mode}: exhaustive cost");
                    // A* (forced by threshold 0) may break a cost tie
                    // differently, but must reach the optimum, and its
                    // order must cost that much when scanned afresh.
                    let astar = best_order(goals, entry, est, semifix, &threshold(0)).unwrap();
                    assert!(close(astar.cost, cost), "{clause} in {mode}: A* cost");
                    assert!(
                        close(fresh_cost(goals, &astar.order, entry, est), cost),
                        "{clause} in {mode}: A* order {:?} costs more than reported",
                        astar.order
                    );
                    if order.iter().copied().ne(0..goals.len()) {
                        moved += 1;
                    }
                });
            }
        }
        // The pins mean something only if some block actually moves.
        assert!(moved > 0, "no control-construct block was reordered");
    }

    #[test]
    fn memo_hits_answer_as_a_fresh_scan_does() {
        for clause in CONTROL {
            let src = format!("{clause}\n{CONTROL_FACTS}");
            with_block(&src, "+-", |goals, entry, est, semifix| {
                // A variable outside the block must pass through untouched.
                let mut entry = entry.clone();
                entry.set(99, ModeItem::Plus);
                let mut memo = ScanMemo::new(goals, est, semifix);
                let mut complete = 0;
                // Walk every order, so each goal is placed after many
                // different prefixes and most lookups are hits.
                for perm in permutations(goals.len()) {
                    let mut full = entry.clone();
                    let mut slots = memo.slots_of(&entry);
                    let mut path = Vec::new();
                    for &i in &perm {
                        let fresh = scan_goal(&goals[i], &mut full, est);
                        let id = memo.scan(i, &slots);
                        let scans = memo.scans.len();
                        assert_eq!(memo.scan(i, &slots), id, "a repeated lookup hits");
                        assert_eq!(memo.scans.len(), scans);
                        let (Some(fresh), Some(id)) = (fresh, id) else {
                            assert!(id.is_none(), "{clause}: goal {i} legality differs");
                            break;
                        };
                        let hit = &memo.scans[id].scanned;
                        assert_eq!(hit.stats, fresh.stats, "{clause}: goal {i} stats");
                        assert_eq!(hit.call_mode, fresh.call_mode, "{clause}: goal {i} mode");
                        memo.apply(id, &mut slots);
                        path.push(id);
                    }
                    if path.len() < perm.len() {
                        continue;
                    }
                    complete += 1;
                    let found = Found {
                        path,
                        cost: 0.0,
                        state: slots,
                    };
                    let exit = memo.outcome(found, &entry, 1, 0).exit_state;
                    let mut end = entry.clone();
                    for &i in &perm {
                        scan_goal(&goals[i], &mut end, est).unwrap();
                    }
                    for v in 0..=99 {
                        assert_eq!(exit.get(v), end.get(v), "{clause}: exit state of var {v}");
                    }
                }
                assert!(complete > 1, "{clause}: fewer than two legal orders");
            });
        }
    }
}
