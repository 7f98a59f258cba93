//! Replay-based symbolic path exploration.
//!
//! Model code is an ordinary Rust closure that consults a [`PathCtx`]
//! whenever control flow depends on a symbolic boolean. The explorer runs
//! the closure repeatedly, once per decision vector, enumerating every code
//! path (depth-first) and recording the accumulated path condition for each
//! leaf — the same strategy concolic engines use to cover a model's paths
//! (§5.1, §2.4).
//!
//! Branches whose condition folds to a constant do not fork. Callers of
//! [`explore_pruned`] may drop a branch alternative whose condition is
//! already unsatisfiable, together with its whole subtree; [`explore`]
//! prunes nothing. Path and decision limits bound the exploration.

use crate::expr::ExprRef;
use crate::types::SymBool;

/// Hard limit on decisions along one path (guards against runaway models).
pub const MAX_DECISIONS_PER_PATH: usize = 64;
/// Hard limit on explored paths.
pub const MAX_PATHS: usize = 100_000;

/// Per-path execution context handed to the model closure.
pub struct PathCtx {
    decisions: Vec<bool>,
    cursor: usize,
    new_decisions: usize,
    path: Vec<ExprRef>,
    branches: Vec<ExprRef>,
    /// Per decision: the constraint of the *untaken* polarity, so the
    /// explorer can test an alternative's feasibility before scheduling it.
    alt_constraints: Vec<ExprRef>,
    /// Per decision: `path.len()` just before its constraint was pushed
    /// (the alternative's condition is that prefix plus the flipped
    /// constraint).
    cond_len_at: Vec<usize>,
    max_decisions: usize,
}

impl PathCtx {
    fn with_limit(decisions: Vec<bool>, max_decisions: usize) -> Self {
        PathCtx {
            decisions,
            cursor: 0,
            new_decisions: 0,
            path: Vec::new(),
            branches: Vec::new(),
            alt_constraints: Vec::new(),
            cond_len_at: Vec::new(),
            max_decisions,
        }
    }

    /// Branches on a symbolic condition: returns the decision taken on this
    /// path and records the corresponding constraint. Constant conditions do
    /// not fork.
    pub fn branch(&mut self, cond: &SymBool) -> bool {
        if let Some(b) = cond.as_const() {
            return b;
        }
        let decision = if self.cursor < self.decisions.len() {
            self.decisions[self.cursor]
        } else {
            assert!(
                self.decisions.len() < self.max_decisions,
                "too many symbolic branches on one path"
            );
            self.decisions.push(true);
            self.new_decisions += 1;
            true
        };
        self.cursor += 1;
        let (constraint, alt) = if decision {
            (cond.expr().clone(), cond.not().expr().clone())
        } else {
            (cond.not().expr().clone(), cond.expr().clone())
        };
        self.cond_len_at.push(self.path.len());
        self.alt_constraints.push(alt);
        self.path.push(constraint.clone());
        self.branches.push(constraint);
        decision
    }

    /// Adds a constraint to the path without forking (an assumption the
    /// model makes, e.g. "the initial state is well-formed").
    pub fn assume(&mut self, cond: &SymBool) {
        if cond.as_const() != Some(true) {
            self.path.push(cond.expr().clone());
        }
    }

    /// The constraints accumulated so far on this path.
    pub fn path_condition(&self) -> &[ExprRef] {
        &self.path
    }

    /// Only the constraints that came from branch decisions (excluding
    /// assumptions).
    pub fn branch_condition(&self) -> &[ExprRef] {
        &self.branches
    }
}

/// One fully-explored path: its condition and the closure's return value.
#[derive(Clone, Debug)]
pub struct PathResult<T> {
    /// Conjunction of branch constraints and assumptions along the path.
    pub condition: Vec<ExprRef>,
    /// Only the branch-decision constraints (the "interesting" part of the
    /// condition; assumptions such as domain bounds are excluded).
    pub branches: Vec<ExprRef>,
    /// The value the model closure returned on this path.
    pub value: T,
    /// The decision vector that produced this path (useful for debugging).
    pub decisions: Vec<bool>,
}

/// Explores every path of `f`, returning one [`PathResult`] per leaf.
///
/// `f` is re-run once per decision vector; it must be deterministic apart
/// from its use of [`PathCtx::branch`]. This is [`explore_pruned`] with
/// nothing pruned, panicking past [`MAX_PATHS`] paths.
pub fn explore<T>(f: impl FnMut(&mut PathCtx) -> T) -> Vec<PathResult<T>> {
    let outcome = explore_pruned(f, |_| true, MAX_PATHS, MAX_DECISIONS_PER_PATH);
    assert!(
        !outcome.truncated,
        "path explosion: more than {MAX_PATHS} paths"
    );
    outcome.results
}

/// The outcome of a bounded exploration: the paths reached within budget,
/// plus whether the budget cut the enumeration short.
#[derive(Clone, Debug)]
pub struct ExploreOutcome<T> {
    /// One [`PathResult`] per explored leaf.
    pub results: Vec<PathResult<T>>,
    /// True when `max_paths` stopped the exploration with alternatives
    /// still unexplored (infeasible alternatives skipped by the pruning
    /// callback do not count — the solver would discard them anyway).
    pub truncated: bool,
}

/// [`explore`] with a path budget and feasibility pruning, for models whose
/// unpruned path count explodes (a pair's two orders, or a triple's six).
///
/// Before scheduling the `false` alternative of a decision, the explorer
/// hands `feasible` the alternative's path condition (the constraints
/// accumulated before the decision plus the flipped constraint); returning
/// false skips the whole subtree. Every pruned subtree is unsatisfiable, so
/// every feasible leaf [`explore`] reaches is still reached, in the same
/// depth-first order — pruning changes cost, not coverage. Leaves reached
/// through default `true` decisions are not checked and may still be
/// infeasible. `max_paths` bounds the number of explored leaves
/// (`truncated` reports the cut) instead of panicking; `max_decisions`
/// bounds the branches on one path.
pub fn explore_pruned<T>(
    mut f: impl FnMut(&mut PathCtx) -> T,
    mut feasible: impl FnMut(&[ExprRef]) -> bool,
    max_paths: usize,
    max_decisions: usize,
) -> ExploreOutcome<T> {
    let mut results = Vec::new();
    let mut worklist: Vec<Vec<bool>> = vec![Vec::new()];
    let mut truncated = false;
    while let Some(prefix) = worklist.pop() {
        if results.len() >= max_paths {
            truncated = true;
            break;
        }
        let prefix_len = prefix.len();
        let mut ctx = PathCtx::with_limit(prefix, max_decisions);
        let value = f(&mut ctx);
        for flip in prefix_len..ctx.decisions.len() {
            let mut condition: Vec<ExprRef> = ctx.path[..ctx.cond_len_at[flip]].to_vec();
            condition.push(ctx.alt_constraints[flip].clone());
            if !feasible(&condition) {
                continue;
            }
            let mut alternative = ctx.decisions[..flip].to_vec();
            alternative.push(false);
            worklist.push(alternative);
        }
        results.push(PathResult {
            condition: ctx.path,
            branches: ctx.branches,
            value,
            decisions: ctx.decisions,
        });
    }
    ExploreOutcome { results, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::solver::{all_solutions, Domains};
    use crate::types::{SymContext, SymInt};

    #[test]
    fn straight_line_code_has_one_path() {
        let results = explore(|_ctx| 42);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].value, 42);
        assert!(results[0].condition.is_empty());
    }

    #[test]
    fn one_symbolic_branch_gives_two_paths() {
        let ctx = SymContext::new();
        let flag = ctx.bool_var("flag");
        let results = explore(|path| if path.branch(&flag) { 1 } else { 2 });
        assert_eq!(results.len(), 2);
        let values: Vec<i32> = results.iter().map(|r| r.value).collect();
        assert!(values.contains(&1) && values.contains(&2));
        for r in &results {
            assert_eq!(r.condition.len(), 1);
        }
    }

    #[test]
    fn constant_branches_do_not_fork() {
        let results = explore(|path| {
            if path.branch(&SymBool::from_bool(true)) {
                if path.branch(&SymBool::from_bool(false)) {
                    0
                } else {
                    1
                }
            } else {
                2
            }
        });
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].value, 1);
    }

    #[test]
    fn nested_branches_enumerate_all_paths() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let results = explore(|path| {
            let mut v = 0;
            if path.branch(&a) {
                v += 1;
            }
            if path.branch(&b) {
                v += 2;
            }
            v
        });
        assert_eq!(results.len(), 4);
        let mut values: Vec<i32> = results.iter().map(|r| r.value).collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn branch_conditions_depend_on_data() {
        // Model: return |x| (absolute value) over a symbolic int; exploring
        // yields two paths whose conditions partition the domain.
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let results = explore(|path| {
            if path.branch(&x.lt(&SymInt::from_i64(0))) {
                SymInt::from_i64(0).sub(&x)
            } else {
                x.clone()
            }
        });
        assert_eq!(results.len(), 2);
        // Each path's condition must be satisfiable over a small domain.
        let domains = Domains::new(vec![-2, -1, 0, 1, 2]);
        for r in &results {
            let cond = Expr::and(&r.condition);
            let solutions = all_solutions(&[cond], &domains, 100);
            assert!(!solutions.is_empty(), "each path must be feasible");
        }
    }

    #[test]
    fn pruned_exploration_skips_infeasible_alternatives() {
        // Base path takes x < 0 then x < 10; the alternative of the second
        // decision (x < 0 ∧ x ≥ 10) is unsatisfiable over the domain, so
        // the pruned explorer never schedules it.
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let domains = Domains::new(vec![-2, -1, 0, 1, 2]);
        let model = |path: &mut PathCtx| {
            if path.branch(&x.lt(&SymInt::from_i64(0))) {
                if path.branch(&x.lt(&SymInt::from_i64(10))) {
                    0
                } else {
                    1
                }
            } else {
                2
            }
        };
        let plain = explore(model);
        assert_eq!(plain.len(), 3, "unpruned exploration reaches all leaves");
        let pruned = explore_pruned(
            model,
            |cond| crate::solver::satisfiable(cond, &domains),
            1_000,
            64,
        );
        assert!(!pruned.truncated);
        let mut values: Vec<i32> = pruned.results.iter().map(|r| r.value).collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 2], "the infeasible leaf is pruned");
    }

    #[test]
    fn pruned_exploration_without_pruning_matches_explore() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let model = |path: &mut PathCtx| {
            let mut v = 0;
            if path.branch(&a) {
                v += 1;
            }
            if path.branch(&b) {
                v += 2;
            }
            v
        };
        let plain = explore(model);
        let pruned = explore_pruned(model, |_| true, 1_000, 64);
        assert!(!pruned.truncated);
        let fingerprint = |rs: &[PathResult<i32>]| {
            let mut fp: Vec<(Vec<bool>, i32)> =
                rs.iter().map(|r| (r.decisions.clone(), r.value)).collect();
            fp.sort();
            fp
        };
        assert_eq!(fingerprint(&plain), fingerprint(&pruned.results));
    }

    #[test]
    fn path_budget_truncates_gracefully() {
        let ctx = SymContext::new();
        let a = ctx.bool_var("a");
        let b = ctx.bool_var("b");
        let model = |path: &mut PathCtx| {
            let mut v = 0;
            if path.branch(&a) {
                v += 1;
            }
            if path.branch(&b) {
                v += 2;
            }
            v
        };
        let outcome = explore_pruned(model, |_| true, 2, 64);
        assert_eq!(outcome.results.len(), 2);
        assert!(outcome.truncated, "hitting the budget must be reported");
    }

    #[test]
    fn assume_adds_constraints_without_forking() {
        let ctx = SymContext::new();
        let x = ctx.int_var("x");
        let results = explore(|path| {
            path.assume(&x.gt(&SymInt::from_i64(0)));
            7
        });
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].condition.len(), 1);
    }
}
