//! Deterministic work pin for ANALYZER's path exploration.
//!
//! `analyze_pair` checks each branch alternative for feasibility before it
//! explores it, so an infeasible subtree is never enumerated. That cut the
//! explored paths of `open ∥ open`, the most expensive pair of every sweep,
//! by a factor of 34. A return to unpruned exploration would leave every corpus
//! unchanged and show only as a slower sweep, so this test pins the work
//! itself: the number of explored paths, which is deterministic, rather
//! than a wall-clock time, which is noisy.

use scalable_commutativity::commuter::{analyze_pair, enumerate_shapes, CommuterConfig};
use scalable_commutativity::model::CallKind;

/// Explored paths summed over every `open ∥ open` shape of the quick
/// configuration, as measured with branch-time pruning in place. Without
/// pruning the same shapes explore 129,628 paths.
const OPEN_OPEN_QUICK_PATHS: usize = 3_784;

#[test]
fn open_open_exploration_stays_pruned() {
    let cfg = CommuterConfig::quick(&CommuterConfig::quick_call_set()).model;
    let paths: usize = enumerate_shapes(CallKind::Open, CallKind::Open, &cfg)
        .iter()
        .map(|shape| analyze_pair(shape, &cfg).paths_explored)
        .sum();
    assert!(
        paths <= OPEN_OPEN_QUICK_PATHS,
        "open ∥ open explored {paths} paths at the quick configuration, \
         above the pinned {OPEN_OPEN_QUICK_PATHS}: is ANALYZER still pruning \
         infeasible branches?"
    );
}
