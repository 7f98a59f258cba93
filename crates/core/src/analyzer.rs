//! ANALYZER: computing commutativity conditions (§5.1).
//!
//! For a pair of operations and a shape, the analyzer symbolically executes
//! both orders of the pair from a copy of the same unconstrained symbolic
//! state and asks, per explored path, whether the two orders can produce
//! equal results and externally-equivalent final states (possibly by
//! choosing the specification's nondeterministic values differently in the
//! two orders). Every satisfiable combination is a *commutative case*; its
//! condition — the path condition conjoined with the equality constraints —
//! is what TESTGEN materialises into concrete tests.
//!
//! This codifies the SIM-commutativity test exactly as §5.1 describes it:
//! the specification is assumed sequentially consistent and the
//! quantification over futures is replaced by state equivalence.

use crate::shapes::PairShape;
use scr_model::calls::{execute, SymCall};
use scr_model::{ModelConfig, SymState};
use scr_symbolic::{
    explore_pruned, satisfiable, Domains, Expr, ExprRef, PathCtx, SymBool, SymContext, Var,
    MAX_DECISIONS_PER_PATH, MAX_PATHS,
};

/// One commutative case: a feasible path of the pair on which both orders
/// can agree.
#[derive(Clone, Debug)]
pub struct CommutativeCase {
    /// The full condition: path constraints plus result/state equality.
    pub condition: Vec<ExprRef>,
    /// Just the branch-decision constraints (useful for printing conditions
    /// and for deciding which variables matter for conflict coverage).
    pub path_condition: Vec<ExprRef>,
    /// The variables created while exploring this path, keyed by name.
    pub variables: Vec<Var>,
    /// Human-readable summary of the equality obligations.
    pub commute_expr: ExprRef,
}

/// The result of analysing one pair shape.
#[derive(Clone, Debug)]
pub struct PairAnalysis {
    /// The shape that was analysed.
    pub shape: PairShape,
    /// Commutative cases (satisfiable path ∧ equality conditions).
    pub cases: Vec<CommutativeCase>,
    /// Number of explored paths: infeasible branches are pruned during
    /// exploration, but some explored paths may still be infeasible.
    pub paths_explored: usize,
    /// Number of paths that were feasible but **not** commutative.
    pub non_commutative_paths: usize,
}

/// The integer candidate domain used throughout the analysis. Values 0–4
/// cover inode indices, page indices, link counts and content fingerprints
/// in the default model configuration.
pub fn default_domains() -> Domains {
    Domains::new(vec![0, 1, 2, 3, 4])
}

/// Analyses one pair shape: explores both orders and classifies every path.
pub fn analyze_pair(shape: &PairShape, cfg: &ModelConfig) -> PairAnalysis {
    let domains = default_domains();
    analyze_pair_with(shape, cfg, &domains, |cond| satisfiable(cond, &domains))
}

/// [`analyze_pair`] with the exploration's feasibility callback as a
/// parameter: a branch alternative it rejects is dropped with its subtree.
fn analyze_pair_with(
    shape: &PairShape,
    cfg: &ModelConfig,
    domains: &Domains,
    feasible: impl FnMut(&[ExprRef]) -> bool,
) -> PairAnalysis {
    let model = |path: &mut PathCtx| {
        let ctx = SymContext::new();
        let (state, assumptions) = SymState::unconstrained(&ctx, *cfg);
        for a in &assumptions {
            path.assume(a);
        }
        let call_a = SymCall::build(shape.calls.0, shape.slots_a.clone(), &ctx, "argA");
        let call_b = SymCall::build(shape.calls.1, shape.slots_b.clone(), &ctx, "argB");
        for a in call_a
            .argument_assumptions(cfg.file_pages)
            .iter()
            .chain(call_b.argument_assumptions(cfg.file_pages).iter())
        {
            path.assume(a);
        }

        // Order A;B.
        let mut s_ab = state.clone();
        let ra_1 = execute(&call_a, &mut s_ab, path, &ctx, "ab.a");
        let rb_1 = execute(&call_b, &mut s_ab, path, &ctx, "ab.b");
        // Order B;A.
        let mut s_ba = state.clone();
        let rb_2 = execute(&call_b, &mut s_ba, path, &ctx, "ba.b");
        let ra_2 = execute(&call_a, &mut s_ba, path, &ctx, "ba.a");

        let results_equal = ra_1.equal(&ra_2).and(&rb_1.equal(&rb_2));
        let states_equal = s_ab.equivalent(&s_ba);
        let commute = results_equal.and(&states_equal);
        (commute, ctx.variables())
    };
    let explored = explore_pruned(model, feasible, MAX_PATHS, MAX_DECISIONS_PER_PATH);
    assert!(
        !explored.truncated,
        "path explosion: more than {MAX_PATHS} paths"
    );

    let paths_explored = explored.results.len();
    let mut cases = Vec::new();
    let mut non_commutative_paths = 0;
    for result in explored.results {
        let (commute, variables): (SymBool, Vec<Var>) = result.value;
        let path_condition = result.branches.clone();
        let mut condition = result.condition.clone();
        condition.push(commute.expr().clone());
        // Satisfiability only: the witness is never used, so the solver's
        // fast MRV-ordered decision procedure applies. Exploration pruned
        // every infeasible `false` alternative, but a path that took its
        // default `true` decisions can still be infeasible, so the path
        // condition is checked before the (much larger) equality one.
        if !satisfiable(&result.condition, domains) {
            continue;
        }
        if satisfiable(&condition, domains) {
            cases.push(CommutativeCase {
                condition,
                path_condition,
                variables,
                commute_expr: commute.expr().clone(),
            });
        } else {
            non_commutative_paths += 1;
        }
    }
    PairAnalysis {
        shape: shape.clone(),
        cases,
        paths_explored,
        non_commutative_paths,
    }
}

/// Renders the interesting part of a commutative case's path condition:
/// constraints that mention at least one *argument or state* variable and
/// are not mere range assumptions. Used by the rename example to reproduce
/// the §5.1 condition listing.
pub fn describe_condition(case: &CommutativeCase) -> Vec<String> {
    case.path_condition
        .iter()
        .filter(|c| {
            let vars = Expr::free_vars(c);
            // Drop pure range assumptions of the form v >= k / v <= k over a
            // single variable: they are bounds, not interesting conditions.
            !(vars.len() <= 1 && is_range_bound(c))
        })
        .map(|c| format!("{c}"))
        .collect()
}

fn is_range_bound(expr: &ExprRef) -> bool {
    use scr_symbolic::Expr as E;
    match &**expr {
        E::Lt(a, b) | E::Eq(a, b) => {
            matches!(
                (&**a, &**b),
                (E::Var(_), E::ConstInt(_)) | (E::ConstInt(_), E::Var(_))
            )
        }
        E::Not(inner) => is_range_bound(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::enumerate_shapes;
    use scr_model::calls::ArgSlots;
    use scr_model::CallKind;

    fn small_cfg() -> ModelConfig {
        ModelConfig {
            names: 4,
            inodes: 2,
            procs: 1,
            fds_per_proc: 2,
            file_pages: 2,
            vm_pages: 2,
            ..ModelConfig::default()
        }
    }

    fn shape(a: CallKind, b: CallKind, names_a: Vec<usize>, names_b: Vec<usize>) -> PairShape {
        PairShape {
            calls: (a, b),
            slots_a: ArgSlots {
                proc: 0,
                names: names_a,
                ..Default::default()
            },
            slots_b: ArgSlots {
                proc: 0,
                names: names_b,
                ..Default::default()
            },
            tag: "test".into(),
        }
    }

    #[test]
    fn stats_of_different_names_commute() {
        let s = shape(CallKind::Stat, CallKind::Stat, vec![0], vec![1]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(!analysis.cases.is_empty());
        // Two reads always commute: no feasible path is non-commutative.
        assert_eq!(analysis.non_commutative_paths, 0);
    }

    #[test]
    fn stat_and_unlink_of_the_same_name_do_not_always_commute() {
        let s = shape(CallKind::Stat, CallKind::Unlink, vec![0], vec![0]);
        let analysis = analyze_pair(&s, &small_cfg());
        // When the name does not exist both fail with ENOENT and commute;
        // when it exists the stat's result depends on the order (the state
        // differs too), so some feasible paths are non-commutative.
        assert!(!analysis.cases.is_empty(), "ENOENT case must commute");
        assert!(
            analysis.non_commutative_paths > 0,
            "existing-name case must be non-commutative"
        );
    }

    #[test]
    fn unlinks_of_different_names_commute() {
        let s = shape(CallKind::Unlink, CallKind::Unlink, vec![0], vec![1]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(!analysis.cases.is_empty());
        assert_eq!(analysis.non_commutative_paths, 0);
    }

    #[test]
    fn creates_of_different_names_commute_via_nondeterministic_inodes() {
        // The §1 motivating example: two open(O_CREAT) of different names in
        // the same directory commute because the specification lets each
        // creation pick any free inode.
        let s = shape(CallKind::Open, CallKind::Open, vec![0], vec![1]);
        let analysis = analyze_pair(&s, &small_cfg());
        let commutative_creates = analysis.cases.iter().any(|case| {
            // A case in which both creations succeeded: the condition
            // mentions both oracle variables.
            case.variables
                .iter()
                .any(|v| v.name.contains("ab.a.ino_oracle"))
                && case
                    .variables
                    .iter()
                    .any(|v| v.name.contains("ab.b.ino_oracle"))
        });
        assert!(
            !analysis.cases.is_empty(),
            "creating different names must have commutative cases"
        );
        assert!(commutative_creates);
    }

    #[test]
    fn rename_rename_distinct_names_commute() {
        let s = shape(CallKind::Rename, CallKind::Rename, vec![0, 1], vec![2, 3]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(!analysis.cases.is_empty());
        // Both-sources-exist-and-all-distinct is one of the §5.1 conditions;
        // it must appear among the commutative cases.
        assert_eq!(
            analysis.non_commutative_paths, 0,
            "all-distinct renames always commute"
        );
    }

    #[test]
    fn rename_chain_has_genuinely_non_commutative_paths() {
        // rename(a, b) and rename(b, c): when a exists and b does not, the
        // second rename succeeds only after the first one, so its return
        // value depends on the order — no choice of values can make the two
        // orders agree on that path.
        let s = shape(CallKind::Rename, CallKind::Rename, vec![0, 1], vec![1, 2]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(analysis.non_commutative_paths > 0);
    }

    #[test]
    fn rename_rename_sharing_destination_commutes_only_for_hard_links() {
        // rename(a, b) and rename(c, b): the destination entry ends up
        // pointing at whichever source ran last, so the orders can only
        // agree when a and c are hard links to the same inode (one of the
        // §5.1 condition classes). The analyzer must find commutative cases
        // (the hard-link and error sub-cases) for this shape.
        let s = shape(CallKind::Rename, CallKind::Rename, vec![0, 1], vec![2, 1]);
        let analysis = analyze_pair(&s, &small_cfg());
        assert!(!analysis.cases.is_empty());
    }

    #[test]
    fn shapes_feed_the_analyzer_end_to_end() {
        let cfg = small_cfg();
        let shapes = enumerate_shapes(CallKind::Stat, CallKind::Stat, &cfg);
        assert!(!shapes.is_empty());
        for s in shapes {
            let analysis = analyze_pair(&s, &cfg);
            assert!(analysis.paths_explored > 0);
        }
    }

    /// The cases of an analysis as rendered conditions plus variable lists,
    /// in exploration order.
    fn rendered_cases(analysis: &PairAnalysis) -> Vec<(Vec<String>, Vec<Var>)> {
        analysis
            .cases
            .iter()
            .map(|case| {
                let condition = case.condition.iter().map(|c| format!("{c}")).collect();
                (condition, case.variables.clone())
            })
            .collect()
    }

    #[test]
    fn pruned_exploration_finds_the_unpruned_cases_in_order() {
        let cfg = small_cfg();
        let domains = default_domains();
        for (a, b) in [
            (CallKind::Open, CallKind::Open),
            (CallKind::Rename, CallKind::Rename),
            (CallKind::Stat, CallKind::Unlink),
            (CallKind::Link, CallKind::Unlink),
        ] {
            let (mut pruned_paths, mut reference_paths) = (0, 0);
            for s in enumerate_shapes(a, b, &cfg) {
                let pruned = analyze_pair(&s, &cfg);
                // The unpruned reference: every branch alternative explored,
                // the same per-path classification.
                let reference = analyze_pair_with(&s, &cfg, &domains, |_| true);
                assert_eq!(
                    rendered_cases(&pruned),
                    rendered_cases(&reference),
                    "{a:?} ∥ {b:?} shape {}",
                    s.tag
                );
                assert_eq!(
                    pruned.non_commutative_paths, reference.non_commutative_paths,
                    "{a:?} ∥ {b:?} shape {}",
                    s.tag
                );
                assert!(pruned.paths_explored <= reference.paths_explored);
                pruned_paths += pruned.paths_explored;
                reference_paths += reference.paths_explored;
            }
            if (a, b) == (CallKind::Open, CallKind::Open) {
                assert!(
                    pruned_paths < reference_paths,
                    "pruning must cut open ∥ open's paths ({pruned_paths} vs {reference_paths})"
                );
            }
        }
    }

    #[test]
    fn describe_condition_filters_range_bounds() {
        let s = shape(CallKind::Stat, CallKind::Unlink, vec![0], vec![0]);
        let analysis = analyze_pair(&s, &small_cfg());
        let case = &analysis.cases[0];
        let described = describe_condition(case);
        for line in &described {
            assert!(!line.is_empty());
        }
    }
}
