//! Exact branch-and-bound solver for NchooseK programs.
//!
//! This plays the role Z3 plays in the paper's evaluation (§VIII-C):
//! the classical baseline that solves programs *directly* — no QUBO
//! translation — and the oracle that determines the maximum number of
//! satisfiable soft constraints for Definition 8 classification.
//!
//! The search is DPLL-style: assign variables one at a time in a static
//! order, propagate forced values through hard cardinality constraints,
//! and branch-and-bound on the violated soft weight. A node is pruned
//! when the weight already violated plus a lower bound on the weight
//! still to be violated reaches the incumbent's. Two admissible bounds
//! price the *prefer-false* soft constraints (`nck({v}, {0})`, the
//! minimization pattern of vertex and set cover), and the larger wins:
//!
//! * the **group bound** — the lower-bound idea of MaxSAT branch and
//!   bound (Li, Manyà & Planes, "Exploiting unit propagation to compute
//!   lower bounds in branch and bound Max-SAT solvers", CP 2005). The
//!   prefer-false variables are partitioned once per solve into
//!   disjoint groups of at most three, grown along hard constraints so
//!   that each group holds as many hard constraints wholly inside it as
//!   it can (on a circulant(n, 4) vertex cover the groups are
//!   triangles). Each group tabulates the cheapest prefer-false cost of
//!   its `2^k` assignments that satisfy its inner hard constraints; at a
//!   node, each group charges its cheapest entry that agrees with the
//!   partial assignment, less what its TRUE members already paid;
//! * the **matching bound** — every open hard constraint that still
//!   needs TRUE members, among disjoint greedily chosen ones, charges
//!   its cheapest member per needed TRUE. It helps where hard
//!   constraints are wider than a group.
//!
//! Both bounds are admissible, so they cut only subtrees with no
//! strictly better leaf: the incumbent sequence and the answer are the
//! same as an unbounded search's; only the node count moves. The greedy
//! grouping and the static branching order both follow the variable
//! labels, so node counts depend on the labelling: a randomly
//! relabelled circulant(64, 4) still takes hundreds of thousands of
//! nodes.

use nck_cancel::CancelToken;
use nck_core::{Constraint, Program};
use std::time::{Duration, Instant};

/// How many decision nodes pass between cooperative cancellation
/// polls. Polling costs an atomic load plus (with a deadline) an
/// `Instant::now()`, so it is amortized over a block of nodes.
const CANCEL_POLL_NODES: u64 = 64;

/// Largest group the group bound tabulates (`2^3` entries per group).
const GROUP_MAX: usize = 3;

/// Solver options.
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Abort after exploring this many nodes (safety valve for
    /// benchmarks). `u64::MAX` means unlimited.
    pub node_limit: u64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { node_limit: u64::MAX }
    }
}

/// Search statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Decision nodes explored.
    pub nodes: u64,
    /// Assignments forced by propagation.
    pub propagations: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// True if the node limit stopped the search early (the result is
    /// then a best-effort incumbent, not proven optimal).
    pub truncated: bool,
}

/// Outcome of an exact solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Best assignment found: all hard constraints hold and the
    /// satisfied soft *weight* is maximal (unless the search was
    /// truncated). With unit weights, weight = count.
    Solved {
        /// The optimal assignment (indexed by variable id).
        assignment: Vec<bool>,
        /// Number of satisfied soft constraints.
        soft_satisfied: usize,
        /// Total weight of satisfied soft constraints.
        soft_weight: u64,
    },
    /// No assignment satisfies every hard constraint.
    Unsatisfiable,
}

/// Tracked lifecycle of a constraint during search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Outcome still depends on unassigned variables.
    Open,
    /// Satisfied no matter how the remaining variables are assigned.
    Sat,
    /// Violated no matter how the remaining variables are assigned.
    Violated,
}

/// A group of the group bound: up to [`GROUP_MAX`] prefer-false
/// variables and the table of their joint assignments.
struct Group {
    /// Members; only the first `len` are used.
    vars: [usize; GROUP_MAX],
    len: usize,
    /// Per mask over `vars` (bit `i` set = `vars[i]` TRUE): the mask's
    /// prefer-false cost if it satisfies every hard constraint wholly
    /// inside the group, else `u64::MAX`.
    table: [u64; 1 << GROUP_MAX],
}

struct Ctx<'a> {
    program: &'a Program,
    /// Per constraint: (distinct var index, multiplicity) pairs.
    members: Vec<Vec<(usize, u32)>>,
    /// Per constraint: is it hard?
    hard: Vec<bool>,
    /// var -> list of (constraint index, multiplicity).
    by_var: Vec<Vec<(usize, u32)>>,
    /// Static branching order (most-constrained variables first).
    order: Vec<usize>,
    /// Cooperative cancellation token, polled every
    /// [`CANCEL_POLL_NODES`] decision nodes.
    cancel: &'a CancelToken,
    /// Per var: total weight of singleton soft constraints violated by
    /// TRUE (the minimization pattern `nck({v},{0},soft)`); fuels both
    /// lower bounds. Zero when the var has none.
    prefer_false: Vec<u64>,
    /// The group bound's groups; only those with at least one inner
    /// hard constraint (the others never charge anything).
    groups: Vec<Group>,
    opts: SolverOptions,
}

struct State {
    assigned: Vec<Option<bool>>,
    /// Per constraint: multiplicity-weighted count of TRUE members.
    count: Vec<u32>,
    /// Per constraint: total multiplicity of unassigned members.
    remaining: Vec<u32>,
    status: Vec<Status>,
    /// Total *weight* of soft constraints already determined violated.
    violated_soft: u64,
    best_violations: u64,
    best: Option<(Vec<bool>, usize, u64)>,
    stats: SolveStats,
    /// Undo records of every open branch, innermost last.
    trail: Vec<TrailEntry>,
    /// Variables assigned by every open branch, innermost last.
    undo_vars: Vec<usize>,
    /// Propagation work list (empty between calls).
    queue: Vec<usize>,
    /// Per var: already charged by the matching bound at this node.
    used: Vec<bool>,
}

/// One undo record: a constraint's previous bookkeeping.
struct TrailEntry {
    constraint: usize,
    count: u32,
    remaining: u32,
    status: Status,
}

/// Solve `program` exactly.
pub fn solve(program: &Program, opts: &SolverOptions) -> (SolveOutcome, SolveStats) {
    solve_resumable(program, opts, &CancelToken::never(), None, &mut |_| {})
}

/// A checkpointable incumbent: the best feasible assignment a run has
/// proven so far, with the violated-soft-weight bound it establishes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Incumbent {
    /// The feasible assignment (indexed by variable id).
    pub assignment: Vec<bool>,
    /// Soft constraints it satisfies.
    pub soft_satisfied: usize,
    /// Total weight of satisfied soft constraints.
    pub soft_weight: u64,
    /// Total weight of violated soft constraints — the branch-and-bound
    /// pruning bound this incumbent establishes.
    pub violated_weight: u64,
}

/// [`solve`] under cooperative cancellation, with incumbent
/// checkpoint/resume.
///
/// The search polls `cancel` at a fixed interval of decision nodes
/// and, when it fires, stops with `stats.truncated = true` and the best
/// incumbent found so far — the same semantics as hitting the node
/// limit. A truncated search never proves unsatisfiability.
///
/// `on_incumbent` fires whenever the search records a strictly better
/// feasible assignment; a restored incumbent seeds both the
/// answer-so-far and the pruning bound, so a resumed search never
/// re-proves what the crashed run already established. Because bounds
/// only tighten, a resumed-from-incumbent search reaches the same
/// optimal solution an uninterrupted run does (node counts may differ —
/// the restored bound prunes harder).
///
/// A restored incumbent whose assignment length does not match the
/// program is ignored (it belongs to some other problem).
pub fn solve_resumable(
    program: &Program,
    opts: &SolverOptions,
    cancel: &CancelToken,
    restored: Option<Incumbent>,
    on_incumbent: &mut dyn FnMut(&Incumbent),
) -> (SolveOutcome, SolveStats) {
    let start = Instant::now();
    let n = program.num_vars();
    let ctx = Ctx::new(program, opts, cancel);
    let (best, best_violations) = match restored {
        Some(inc) if inc.assignment.len() == n => {
            ((Some((inc.assignment, inc.soft_satisfied, inc.soft_weight))), inc.violated_weight)
        }
        _ => (None, u64::MAX),
    };
    let mut state = State::new(program, best, best_violations);
    // Initial status scan: constraints may be decided before any
    // assignment (tautological or unsatisfiable selection sets).
    for ci in 0..program.constraints().len() {
        refresh_status(&ctx, &mut state, ci);
        if state.status[ci] == Status::Violated && ctx.hard[ci] {
            state.stats.elapsed = start.elapsed();
            return (SolveOutcome::Unsatisfiable, state.stats);
        }
    }
    search(&ctx, &mut state, on_incumbent);
    state.stats.elapsed = start.elapsed();
    let outcome = match state.best.take() {
        Some((assignment, soft, weight)) => {
            SolveOutcome::Solved { assignment, soft_satisfied: soft, soft_weight: weight }
        }
        None => SolveOutcome::Unsatisfiable,
    };
    (outcome, state.stats)
}

/// Convenience wrapper: the maximum satisfiable soft *weight* (equal
/// to the maximum satisfied count under unit weights — the paper's
/// Definition 6 objective), or `None` if the hard constraints are
/// unsatisfiable.
pub fn max_soft_satisfiable(program: &Program) -> Option<u64> {
    match solve(program, &SolverOptions::default()).0 {
        SolveOutcome::Solved { soft_weight, .. } => Some(soft_weight),
        SolveOutcome::Unsatisfiable => None,
    }
}

impl<'a> Ctx<'a> {
    fn new(program: &'a Program, opts: &SolverOptions, cancel: &'a CancelToken) -> Self {
        let n = program.num_vars();
        let constraints = program.constraints();
        let members: Vec<Vec<(usize, u32)>> = constraints
            .iter()
            .map(|c| c.multiplicities().into_iter().map(|(v, m)| (v.index(), m)).collect())
            .collect();
        let mut by_var: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for (ci, mem) in members.iter().enumerate() {
            for &(v, m) in mem {
                by_var[v].push((ci, m));
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(by_var[v].len()));
        let mut prefer_false = vec![0u64; n];
        for (c, mem) in constraints.iter().zip(&members) {
            if let [(v, mult)] = mem.as_slice() {
                // Violated as soon as the variable is TRUE.
                if !c.is_hard() && !c.selection().contains(mult) && c.selection().contains(&0) {
                    prefer_false[*v] += c.weight() as u64;
                }
            }
        }
        let mut ctx = Ctx {
            program,
            hard: constraints.iter().map(Constraint::is_hard).collect(),
            members,
            by_var,
            order,
            prefer_false,
            groups: Vec::new(),
            cancel,
            opts: *opts,
        };
        ctx.groups = ctx.build_groups();
        ctx
    }

    /// Is hard constraint `ci` wholly inside `group` once `extra` joins
    /// it?
    fn inside(&self, ci: usize, group: &[usize], extra: usize) -> bool {
        self.members[ci].iter().all(|&(w, _)| w == extra || group.contains(&w))
    }

    /// Partition the prefer-false variables greedily into the group
    /// bound's groups: from each ungrouped seed, in index order, add the
    /// hard-constraint neighbour that completes the most hard
    /// constraints inside the group (ties to the lowest index), while
    /// one completes any.
    fn build_groups(&self) -> Vec<Group> {
        let mut grouped: Vec<bool> = self.prefer_false.iter().map(|&w| w == 0).collect();
        let mut groups = Vec::new();
        for seed in 0..grouped.len() {
            if grouped[seed] {
                continue;
            }
            grouped[seed] = true;
            let mut vars = [seed; GROUP_MAX];
            let mut len = 1;
            while len < GROUP_MAX {
                let group = &vars[..len];
                // (hard constraints completed, candidate), best so far.
                let mut best: Option<(usize, usize)> = None;
                for &v in group {
                    for &(ci, _) in &self.by_var[v] {
                        if !self.hard[ci] {
                            continue;
                        }
                        for &(u, _) in &self.members[ci] {
                            if grouped[u] {
                                continue;
                            }
                            let completed = self.by_var[u]
                                .iter()
                                .filter(|&&(cj, _)| self.hard[cj] && self.inside(cj, group, u))
                                .count();
                            if completed > 0
                                && best.is_none_or(|(b, bu)| {
                                    completed > b || (completed == b && u < bu)
                                })
                            {
                                best = Some((completed, u));
                            }
                        }
                    }
                }
                let Some((_, u)) = best else { break };
                grouped[u] = true;
                vars[len] = u;
                len += 1;
            }
            // Only a group with an inner hard constraint ever charges;
            // a lone variable may still carry a unit one.
            let group = &vars[..len];
            let inner = group.iter().any(|&v| {
                self.by_var[v].iter().any(|&(ci, _)| self.hard[ci] && self.inside(ci, group, v))
            });
            if inner {
                groups.push(self.tabulate(vars, len));
            }
        }
        groups
    }

    /// The table of a group's `2^len` masks.
    fn tabulate(&self, vars: [usize; GROUP_MAX], len: usize) -> Group {
        let group = &vars[..len];
        let mut table = [u64::MAX; 1 << GROUP_MAX];
        for (mask, entry) in table.iter_mut().enumerate().take(1 << len) {
            let is_true =
                |w: usize| group.iter().position(|&g| g == w).is_some_and(|i| mask >> i & 1 == 1);
            let feasible = group.iter().all(|&v| {
                self.by_var[v].iter().all(|&(ci, _)| {
                    if !self.hard[ci] || !self.inside(ci, group, v) {
                        return true;
                    }
                    let count: u32 = self.members[ci]
                        .iter()
                        .filter(|&&(w, _)| is_true(w))
                        .map(|&(_, m)| m)
                        .sum();
                    self.program.constraints()[ci].selection().contains(&count)
                })
            });
            if feasible {
                *entry = group.iter().filter(|&&v| is_true(v)).map(|&v| self.prefer_false[v]).sum();
            }
        }
        Group { vars, len, table }
    }
}

impl State {
    fn new(program: &Program, best: Option<(Vec<bool>, usize, u64)>, best_violations: u64) -> Self {
        let n = program.num_vars();
        let constraints = program.constraints();
        State {
            assigned: vec![None; n],
            count: vec![0; constraints.len()],
            remaining: constraints.iter().map(|c| c.cardinality()).collect(),
            status: vec![Status::Open; constraints.len()],
            violated_soft: 0,
            best_violations,
            best,
            stats: SolveStats::default(),
            trail: Vec::new(),
            undo_vars: Vec::new(),
            queue: Vec::new(),
            used: vec![false; n],
        }
    }
}

/// Does the selection set contain any value in `[lo, hi]`?
fn selection_hits_range(c: &Constraint, lo: u32, hi: u32) -> bool {
    c.selection().range(lo..=hi).next().is_some()
}

/// Does the selection set contain *every* integer in `[lo, hi]`?
fn selection_covers_range(c: &Constraint, lo: u32, hi: u32) -> bool {
    c.selection().range(lo..=hi).count() as u64 == u64::from(hi - lo) + 1
}

/// Recompute a constraint's status from its (count, remaining) pair.
///
/// Achievable final counts lie in `[count, count + remaining]` — exact
/// when all remaining multiplicities are 1, a sound over-approximation
/// otherwise: `Violated` is only declared when the range misses the
/// selection entirely (truly violated), and `Sat` only when the range
/// is fully covered (truly satisfied).
fn refresh_status(ctx: &Ctx<'_>, state: &mut State, ci: usize) {
    if state.status[ci] != Status::Open {
        return;
    }
    let c = &ctx.program.constraints()[ci];
    let lo = state.count[ci];
    let hi = lo + state.remaining[ci];
    if !selection_hits_range(c, lo, hi) {
        state.status[ci] = Status::Violated;
        if !ctx.hard[ci] {
            state.violated_soft += c.weight() as u64;
        }
    } else if selection_covers_range(c, lo, hi) {
        state.status[ci] = Status::Sat;
    }
}

/// Apply `var := value`, updating every touched constraint and logging
/// undo records on the trail. Returns `false` on a hard conflict (state
/// must still be undone by the caller).
fn assign(ctx: &Ctx<'_>, state: &mut State, var: usize, value: bool) -> bool {
    debug_assert!(state.assigned[var].is_none());
    state.assigned[var] = Some(value);
    state.undo_vars.push(var);
    let mut ok = true;
    for &(ci, m) in &ctx.by_var[var] {
        state.trail.push(TrailEntry {
            constraint: ci,
            count: state.count[ci],
            remaining: state.remaining[ci],
            status: state.status[ci],
        });
        state.remaining[ci] -= m;
        if value {
            state.count[ci] += m;
        }
        refresh_status(ctx, state, ci);
        if state.status[ci] == Status::Violated && ctx.hard[ci] {
            ok = false;
        }
    }
    ok
}

/// Undo every trail entry and assignment beyond the marks a branch took
/// when it began (`state.trail.len()`, `state.undo_vars.len()`).
fn undo(ctx: &Ctx<'_>, state: &mut State, (trail_mark, var_mark): (usize, usize)) {
    for e in state.trail.drain(trail_mark..).rev() {
        if state.status[e.constraint] == Status::Violated
            && e.status != Status::Violated
            && !ctx.hard[e.constraint]
        {
            state.violated_soft -= ctx.program.constraints()[e.constraint].weight() as u64;
        }
        state.count[e.constraint] = e.count;
        state.remaining[e.constraint] = e.remaining;
        state.status[e.constraint] = e.status;
    }
    for v in state.undo_vars.drain(var_mark..) {
        state.assigned[v] = None;
    }
}

/// Unit propagation over hard constraints: if one value of an
/// unassigned member makes the constraint's achievable range miss the
/// selection set entirely, the other value is forced. Every assignment
/// is recorded on the trail, so the caller can undo even after a
/// conflict. Returns `false` on conflict.
fn propagate(ctx: &Ctx<'_>, state: &mut State, seed: usize) -> bool {
    state.queue.clear();
    state.queue.push(seed);
    while let Some(v) = state.queue.pop() {
        for &(ci, _) in &ctx.by_var[v] {
            if !ctx.hard[ci] || state.status[ci] != Status::Open {
                continue;
            }
            let c = &ctx.program.constraints()[ci];
            for &(u, m) in &ctx.members[ci] {
                if state.assigned[u].is_some() {
                    continue;
                }
                let lo = state.count[ci];
                let rem = state.remaining[ci];
                let feasible_true = selection_hits_range(c, lo + m, lo + rem);
                let feasible_false = selection_hits_range(c, lo, lo + rem - m);
                let forced = match (feasible_true, feasible_false) {
                    (false, false) => return false,
                    (true, false) => Some(true),
                    (false, true) => Some(false),
                    (true, true) => None,
                };
                if let Some(value) = forced {
                    state.stats.propagations += 1;
                    if !assign(ctx, state, u, value) {
                        return false;
                    }
                    state.queue.push(u);
                    // The constraint's bookkeeping changed; it is
                    // rescanned via u's queue entry (u is one of its
                    // members), so stop this stale scan.
                    break;
                }
            }
        }
    }
    true
}

/// Group lower bound on *additional* soft violation weight: each group
/// charges its cheapest table entry that agrees with the partial
/// assignment, less the prefer-false weight its TRUE members already
/// added to `violated_soft`. `u64::MAX` when some group has no entry
/// left, i.e. no completion satisfies its inner hard constraints.
fn group_bound(ctx: &Ctx<'_>, state: &State) -> u64 {
    let mut extra = 0u64;
    for g in &ctx.groups {
        let (mut fixed, mut value, mut paid) = (0usize, 0usize, 0u64);
        for (i, &v) in g.vars[..g.len].iter().enumerate() {
            if let Some(b) = state.assigned[v] {
                fixed |= 1 << i;
                if b {
                    value |= 1 << i;
                    paid += ctx.prefer_false[v];
                }
            }
        }
        let cheapest = g.table[..1 << g.len]
            .iter()
            .enumerate()
            .filter(|&(mask, _)| mask & fixed == value)
            .map(|(_, &entry)| entry)
            .min()
            .unwrap_or(u64::MAX);
        if cheapest == u64::MAX {
            return u64::MAX;
        }
        // Every agreeing mask sets the TRUE members, so `cheapest >= paid`.
        extra += cheapest - paid;
    }
    extra
}

/// Matching-style lower bound on *additional* soft violations: every
/// Open hard constraint whose selection now starts above its TRUE
/// count forces that many more TRUEs among its unassigned members; if
/// those members all carry prefer-false soft constraints and the
/// member sets are chosen disjoint (greedy), each forced TRUE violates
/// a distinct soft constraint.
fn matching_bound(ctx: &Ctx<'_>, state: &mut State) -> u64 {
    let State { assigned, count, status, used, .. } = state;
    used.fill(false);
    let mut extra = 0u64;
    for (ci, members) in ctx.members.iter().enumerate() {
        if !ctx.hard[ci] || status[ci] != Status::Open {
            continue;
        }
        let c = &ctx.program.constraints()[ci];
        let lo = count[ci];
        let Some(&smin) = c.selection().range(lo..).next() else {
            continue;
        };
        let t_min = (smin - lo) as usize;
        if t_min == 0 {
            continue;
        }
        let unassigned = members.iter().map(|&(v, _)| v).filter(|&v| assigned[v].is_none());
        if unassigned.clone().any(|v| used[v] || ctx.prefer_false[v] == 0) {
            continue;
        }
        // The forced TRUEs each violate at least the cheapest member's
        // prefer-false weight. An Open constraint needing TRUEs has an
        // unassigned member; the let-else keeps this hot path
        // panic-free anyway.
        let Some(min_w) = unassigned.clone().map(|v| ctx.prefer_false[v]).min() else {
            continue;
        };
        let mut free = 0;
        for v in unassigned {
            used[v] = true;
            free += 1;
        }
        extra += (t_min.min(free) as u64) * min_w;
    }
    extra
}

fn search(ctx: &Ctx<'_>, state: &mut State, on_incumbent: &mut dyn FnMut(&Incumbent)) {
    state.stats.nodes += 1;
    if state.stats.nodes > ctx.opts.node_limit
        || (state.stats.nodes.is_multiple_of(CANCEL_POLL_NODES) && ctx.cancel.is_cancelled())
    {
        state.stats.truncated = true;
        return;
    }
    // Bound: the violated-soft count can only grow deeper in the tree.
    if state.violated_soft >= state.best_violations {
        return;
    }
    // Stronger bounds via forced TRUEs on minimization variables: prune
    // on `violated_soft + max(group, matching)`.
    if state.best_violations != u64::MAX {
        let best = state.best_violations;
        let prunes = |state: &State, extra: u64| state.violated_soft.saturating_add(extra) >= best;
        if prunes(state, group_bound(ctx, state)) {
            return;
        }
        let matching = matching_bound(ctx, state);
        if prunes(state, matching) {
            return;
        }
    }
    let next = ctx.order.iter().copied().find(|&v| state.assigned[v].is_none());
    let Some(var) = next else {
        // Full assignment. No hard constraint is Violated (conflicts
        // prune earlier), so this is feasible; record if it improves.
        // Every slot is Some here (no unassigned var was found), so the
        // unwrap_or default can never actually be read.
        state.best_violations = state.violated_soft;
        let assignment: Vec<bool> = state.assigned.iter().map(|a| a.unwrap_or(false)).collect();
        let ev = ctx.program.evaluate(&assignment);
        on_incumbent(&Incumbent {
            assignment: assignment.clone(),
            soft_satisfied: ev.soft_satisfied,
            soft_weight: ev.soft_weight_satisfied,
            violated_weight: state.violated_soft,
        });
        state.best = Some((assignment, ev.soft_satisfied, ev.soft_weight_satisfied));
        return;
    };
    for value in [false, true] {
        let marks = (state.trail.len(), state.undo_vars.len());
        if assign(ctx, state, var, value) && propagate(ctx, state, var) {
            search(ctx, state, on_incumbent);
        }
        undo(ctx, state, marks);
        if state.stats.truncated {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::solve_brute;

    fn assert_matches_brute(p: &Program) {
        let (outcome, stats) = solve(p, &SolverOptions::default());
        assert!(!stats.truncated);
        match (outcome, solve_brute(p)) {
            (SolveOutcome::Unsatisfiable, None) => {}
            (SolveOutcome::Solved { assignment, soft_satisfied, soft_weight }, Some(brute)) => {
                assert_eq!(soft_weight, brute.max_soft, "soft optimum mismatch on {p}");
                assert!(p.all_hard_satisfied(&assignment));
                let ev = p.evaluate(&assignment);
                assert_eq!(ev.soft_satisfied, soft_satisfied);
                assert_eq!(ev.soft_weight_satisfied, soft_weight);
            }
            (got, brute) => panic!("solver {got:?} vs brute {brute:?} on {p}"),
        }
    }

    #[test]
    fn intro_example() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        let b = p.new_var("b").unwrap();
        let c = p.new_var("c").unwrap();
        p.nck(vec![a, b], [0, 1]).unwrap();
        p.nck(vec![b, c], [1]).unwrap();
        assert_matches_brute(&p);
    }

    #[test]
    fn min_vertex_cover_five() {
        let mut p = Program::new();
        let vs = p.new_vars("v", 5).unwrap();
        for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
            p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
        }
        for &v in &vs {
            p.nck_soft(vec![v], [0]).unwrap();
        }
        let (outcome, _) = solve(&p, &SolverOptions::default());
        match outcome {
            SolveOutcome::Solved { assignment, soft_satisfied, soft_weight } => {
                assert_eq!(soft_satisfied, 2); // minimum cover size 3
                assert_eq!(soft_weight, 2);
                assert_eq!(assignment.iter().filter(|&&b| b).count(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_matches_brute(&p);
    }

    #[test]
    fn unsatisfiable_conflicting_units() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        p.nck(vec![a], [0]).unwrap();
        p.nck(vec![a], [1]).unwrap();
        let (outcome, _) = solve(&p, &SolverOptions::default());
        assert_eq!(outcome, SolveOutcome::Unsatisfiable);
    }

    #[test]
    fn unsatisfiable_by_multiplicity() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        p.nck(vec![a, a], [1]).unwrap();
        let (outcome, _) = solve(&p, &SolverOptions::default());
        assert_eq!(outcome, SolveOutcome::Unsatisfiable);
    }

    #[test]
    fn propagation_solves_chain_without_branching() {
        // x0 = 1, and x_i XOR x_{i+1} = 1 forces an alternating chain.
        let mut p = Program::new();
        let vs = p.new_vars("x", 10).unwrap();
        p.nck(vec![vs[0]], [1]).unwrap();
        for i in 0..9 {
            p.nck(vec![vs[i], vs[i + 1]], [1]).unwrap();
        }
        let (outcome, stats) = solve(&p, &SolverOptions::default());
        match outcome {
            SolveOutcome::Solved { assignment, .. } => {
                for (i, &b) in assignment.iter().enumerate() {
                    assert_eq!(b, i % 2 == 0, "alternating chain broken at {i}");
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(stats.propagations >= 9, "expected unit propagation to fire");
    }

    #[test]
    fn max_cut_triangle() {
        let mut p = Program::new();
        let vs = p.new_vars("v", 3).unwrap();
        for (u, w) in [(0, 1), (0, 2), (1, 2)] {
            p.nck_soft(vec![vs[u], vs[w]], [1]).unwrap();
        }
        assert_eq!(max_soft_satisfiable(&p), Some(2));
        assert_matches_brute(&p);
    }

    #[test]
    fn mixed_hard_soft_interaction() {
        // Hard: exactly one of {a,b,c}; soft: prefer each TRUE.
        // Optimum satisfies exactly one soft constraint.
        let mut p = Program::new();
        let vs = p.new_vars("v", 3).unwrap();
        p.nck(vs.clone(), [1]).unwrap();
        for &v in &vs {
            p.nck_soft(vec![v], [1]).unwrap();
        }
        assert_eq!(max_soft_satisfiable(&p), Some(1));
        assert_matches_brute(&p);
    }

    #[test]
    fn cancelled_search_truncates_without_claiming_unsat() {
        let mut p = Program::new();
        let vs = p.new_vars("v", 20).unwrap();
        for i in 0..19 {
            p.nck_soft(vec![vs[i], vs[i + 1]], [1]).unwrap();
        }
        let token = CancelToken::never();
        token.cancel();
        let (outcome, stats) =
            solve_resumable(&p, &SolverOptions::default(), &token, None, &mut |_| {});
        assert!(stats.truncated, "fired token must truncate the search");
        // 19 soft ring constraints, no hard constraints: the program is
        // trivially satisfiable, so any Unsatisfiable claim under
        // truncation would be wrong. An incumbent may or may not exist
        // (the poll is amortized), but a claim of unsat is only
        // acceptable from an untruncated search.
        if let SolveOutcome::Solved { assignment, .. } = outcome {
            assert!(p.all_hard_satisfied(&assignment));
        }
    }

    #[test]
    fn resume_from_incumbent_reaches_the_same_optimum() {
        // A soft-heavy instance with a nontrivial search: capture every
        // incumbent, then resume from each and check the final answer
        // matches the uninterrupted solve on all solution fields.
        let mut p = Program::new();
        let vs = p.new_vars("v", 12).unwrap();
        for (u, w) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (0, 5)] {
            p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
        }
        for &v in &vs {
            p.nck_soft(vec![v], [0]).unwrap();
        }
        let token = CancelToken::never();
        let mut incumbents: Vec<Incumbent> = Vec::new();
        let (full, full_stats) =
            solve_resumable(&p, &SolverOptions::default(), &token, None, &mut |inc| {
                incumbents.push(inc.clone())
            });
        assert!(!full_stats.truncated);
        assert!(!incumbents.is_empty(), "expected at least one incumbent");
        // Bounds must strictly tighten along the incumbent sequence.
        for w in incumbents.windows(2) {
            assert!(w[1].violated_weight < w[0].violated_weight);
        }
        for inc in incumbents {
            let (resumed, stats) =
                solve_resumable(&p, &SolverOptions::default(), &token, Some(inc), &mut |_| {});
            assert!(!stats.truncated);
            match (&resumed, &full) {
                (
                    SolveOutcome::Solved { soft_satisfied: a, soft_weight: b, assignment: x },
                    SolveOutcome::Solved { soft_satisfied: c, soft_weight: d, .. },
                ) => {
                    assert_eq!(a, c);
                    assert_eq!(b, d);
                    assert!(p.all_hard_satisfied(x));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // A mismatched incumbent (wrong problem) is ignored, not used.
        let bogus = Incumbent {
            assignment: vec![true; 3],
            soft_satisfied: 99,
            soft_weight: 99,
            violated_weight: 0,
        };
        let (resumed, _) =
            solve_resumable(&p, &SolverOptions::default(), &token, Some(bogus), &mut |_| {});
        assert_eq!(resumed, full);
    }

    #[test]
    fn node_limit_truncates() {
        // A soft-constraint-heavy program with a big search space.
        let mut p = Program::new();
        let vs = p.new_vars("v", 20).unwrap();
        for i in 0..19 {
            p.nck_soft(vec![vs[i], vs[i + 1]], [1]).unwrap();
        }
        let (_, stats) = solve(&p, &SolverOptions { node_limit: 10 });
        assert!(stats.truncated);
        assert!(stats.nodes <= 11);
    }

    #[test]
    fn larger_random_instances_match_brute() {
        // Deterministic pseudo-random mixed programs, cross-checked
        // against brute force.
        let mut seed = 0x243f6a8885a308d3u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..20 {
            let n = 6 + (next() % 6) as usize; // 6..11 vars
            let mut p = Program::new();
            let vs = p.new_vars("v", n).unwrap();
            for _ in 0..n {
                let a = vs[(next() % n as u64) as usize];
                let b = vs[(next() % n as u64) as usize];
                let c = vs[(next() % n as u64) as usize];
                let col: Vec<_> = vec![a, b, c];
                let card = col.len() as u32;
                let mut sel: Vec<u32> = Vec::new();
                for k in 0..=card {
                    if next() % 2 == 0 {
                        sel.push(k);
                    }
                }
                if sel.is_empty() {
                    sel.push(next() as u32 % (card + 1));
                }
                if next() % 3 == 0 {
                    p.nck_soft(col, sel).unwrap();
                } else {
                    p.nck(col, sel).unwrap();
                }
            }
            let _ = trial;
            assert_matches_brute(&p);
        }
    }

    /// Minimum vertex cover of circulant(n, 4): vertex `i` meets
    /// `i + 1` and `i + 2` (mod n), and prefers FALSE.
    fn circulant_cover(n: usize) -> Program {
        let mut p = Program::new();
        let vs = p.new_vars("v", n).unwrap();
        for i in 0..n {
            for d in [1, 2] {
                p.nck(vec![vs[i], vs[(i + d) % n]], [1, 2]).unwrap();
            }
        }
        for &v in &vs {
            p.nck_soft(vec![v], [0]).unwrap();
        }
        p
    }

    #[test]
    fn bounds_never_exceed_the_best_completion() {
        // Seeded mixed programs with weighted prefer-false preferences,
        // at random partial assignments: the weight already violated
        // plus either bound must not exceed the least violated weight
        // of any feasible completion (brute force), and the group bound
        // may call a node infeasible only if no completion is feasible.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let token = CancelToken::never();
        let (mut charged, mut infeasible) = (0, 0);
        for _ in 0..100 {
            let n = 5 + (next() % 5) as usize; // 5..9 vars
            let mut p = Program::new();
            let vs = p.new_vars("v", n).unwrap();
            for _ in 0..n {
                let k = 1 + (next() % 3) as usize;
                let col: Vec<_> = (0..k).map(|_| vs[(next() % n as u64) as usize]).collect();
                let mut sel: Vec<u32> = (0..=k as u32).filter(|_| next() % 3 != 0).collect();
                if sel.is_empty() {
                    sel.push((next() % (k as u64 + 1)) as u32);
                }
                if next() % 4 == 0 {
                    p.nck_soft_weighted(col, sel, 1 + (next() % 3) as u32).unwrap();
                } else {
                    p.nck(col, sel).unwrap();
                }
            }
            for &v in &vs {
                if next() % 4 != 0 {
                    p.nck_soft_weighted(vec![v], [0], 1 + (next() % 3) as u32).unwrap();
                }
            }
            let ctx = Ctx::new(&p, &SolverOptions::default(), &token);
            for _ in 0..6 {
                let mut state = State::new(&p, None, u64::MAX);
                for ci in 0..p.constraints().len() {
                    refresh_status(&ctx, &mut state, ci);
                }
                for v in 0..n {
                    match next() % 4 {
                        0 => _ = assign(&ctx, &mut state, v, false),
                        1 => _ = assign(&ctx, &mut state, v, true),
                        _ => {}
                    }
                }
                let best = (0u32..1 << n)
                    .map(|mask| (0..n).map(|i| mask >> i & 1 == 1).collect::<Vec<bool>>())
                    .filter(|x| {
                        state.assigned.iter().zip(x).all(|(a, &b)| a.is_none_or(|a| a == b))
                    })
                    .filter(|x| p.all_hard_satisfied(x))
                    .map(|x| p.total_soft_weight() - p.evaluate(&x).soft_weight_satisfied)
                    .min();
                let group = group_bound(&ctx, &state);
                let matching = matching_bound(&ctx, &mut state);
                match best {
                    Some(best) => {
                        assert!(state.violated_soft + group <= best, "group bound on {p}");
                        assert!(state.violated_soft + matching <= best, "matching bound on {p}");
                        charged += usize::from(group > 0);
                    }
                    None => infeasible += usize::from(group == u64::MAX),
                }
            }
        }
        // The check has teeth: the bound charges, and finds dead ends.
        assert!(charged >= 50 && infeasible >= 50, "charged {charged}, infeasible {infeasible}");
    }

    #[test]
    fn circulant_64_root_group_bound_is_42() {
        // 21 triangles {3i, 3i+1, 3i+2} each need two TRUEs; the
        // optimum cover has 43 vertices.
        let p = circulant_cover(64);
        let token = CancelToken::never();
        let ctx = Ctx::new(&p, &SolverOptions::default(), &token);
        assert_eq!(ctx.groups.len(), 21);
        assert!(ctx.groups.iter().all(|g| g.len == 3));
        let state = State::new(&p, None, u64::MAX);
        assert_eq!(group_bound(&ctx, &state), 42);
    }

    #[test]
    fn circulant_64_solves_within_ten_thousand_nodes() {
        let p = circulant_cover(64);
        let (outcome, stats) = solve(&p, &SolverOptions { node_limit: 10_000 });
        assert!(!stats.truncated, "{} nodes", stats.nodes);
        match outcome {
            SolveOutcome::Solved { assignment, soft_satisfied, .. } => {
                assert_eq!(soft_satisfied, 64 - 43);
                assert!(p.all_hard_satisfied(&assignment));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
