//! MTRACE driver: running generated tests against an implementation
//! (§5.3).
//!
//! The paper's MTRACE boots the kernel under a modified qemu, runs each test
//! case's operations on different virtual cores while logging every memory
//! access, and reports cache lines accessed by more than one core with at
//! least one write. Here the kernels are libraries running over the
//! simulated machine of `scr-mtrace`, and [`replay_sim`] is the one replay
//! every simulated entry point goes through:
//!
//! 1. it builds a fresh kernel and `procs.max(2)` processes,
//! 2. replays the test's setup operations with tracing disabled, each on
//!    its annotated core,
//! 3. enables tracing and runs the N traced operations, op `i` on core
//!    `i`, in a given linearisation order.
//!
//! The machine keeps the trace, so callers read the shared cache lines
//! (with their allocation labels, which play the role of MTRACE's
//! DWARF-derived type names) or the whole access footprint from the
//! returned [`SimReplay`]. Pair tests ([`run_test`], [`run_test_order`])
//! and triple tests (`run_triple_test`, `run_triple_order`) are thin
//! callers; `scr-host` replays the same [`Script`]s on real threads.

use crate::testgen::ConcreteTest;
use scr_kernel::api::{perform, KernelApi, SysOp, SysResult};
use scr_kernel::{LinuxLikeKernel, Sv6Kernel};
use scr_mtrace::{AccessKind, CoreId};

/// Builds fresh kernel instances for test runs.
pub trait KernelFactory: Sync {
    /// A short name for reports ("Linux", "sv6", …).
    fn name(&self) -> &'static str;
    /// Builds a fresh kernel on a fresh simulated machine.
    fn build(&self) -> Box<dyn KernelApi>;
}

/// Factory for the sv6/ScaleFS kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sv6Factory {
    /// Number of simulated cores to configure.
    pub cores: usize,
}

impl KernelFactory for Sv6Factory {
    fn name(&self) -> &'static str {
        "sv6"
    }

    fn build(&self) -> Box<dyn KernelApi> {
        Box::new(Sv6Kernel::new(self.cores.max(2)))
    }
}

/// Factory for the Linux-like baseline kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinuxLikeFactory {
    /// Number of simulated cores to configure.
    pub cores: usize,
}

impl KernelFactory for LinuxLikeFactory {
    fn name(&self) -> &'static str {
        "Linux"
    }

    fn build(&self) -> Box<dyn KernelApi> {
        Box::new(LinuxLikeKernel::new(self.cores.max(2)))
    }
}

/// What a replay runs: the untraced setup (each op on its annotated core),
/// the number of processes, and the traced operations (op `i` runs on core
/// `i`). Pair and triple tests both lend their fields as a script.
#[derive(Clone, Debug)]
pub struct Script<'t> {
    /// Setup operations, each annotated with its core.
    pub setup: &'t [(usize, SysOp)],
    /// Processes the test uses (at least two are always created).
    pub procs: usize,
    /// The traced operations.
    pub ops: Vec<&'t SysOp>,
}

impl ConcreteTest {
    /// The test as a replay script: `op_a` on core 0, `op_b` on core 1.
    pub fn script(&self) -> Script<'_> {
        Script {
            setup: &self.setup,
            procs: self.procs,
            ops: vec![&self.op_a, &self.op_b],
        }
    }
}

/// One simulated replay. The kernel's machine still holds the trace of the
/// traced operations.
pub struct SimReplay {
    /// The kernel the script ran on.
    pub kernel: Box<dyn KernelApi>,
    /// Whether every setup operation succeeded.
    pub setup_ok: bool,
    /// `results[i]` belongs to `ops[i]`, whatever the order was.
    pub results: Vec<SysResult>,
}

impl SimReplay {
    /// The traced (core, label, kind) access multiset, sorted.
    pub fn footprint(&self) -> Vec<(CoreId, String, AccessKind)> {
        let machine = self.kernel.machine();
        let mut footprint: Vec<_> = machine
            .accesses()
            .iter()
            .map(|a| (a.core, machine.label_of(a.line), a.kind))
            .collect();
        footprint.sort();
        footprint
    }

    /// The replay as a [`TestOutcome`], with the per-op results shaped by
    /// `shape` (into a pair, an array, …).
    pub fn outcome<R>(
        self,
        test_id: &str,
        shape: impl FnOnce(Vec<SysResult>) -> R,
    ) -> TestOutcome<R> {
        let report = self.kernel.machine().conflict_report();
        TestOutcome {
            test_id: test_id.to_string(),
            conflict_free: report.is_conflict_free(),
            shared_labels: report.conflicting_labels(),
            setup_ok: self.setup_ok,
            results: shape(self.results),
        }
    }
}

/// Replays `script` on a fresh kernel from `factory`: `procs.max(2)`
/// processes, the setup untraced (each op on its annotated core), then the
/// traced operations in `order` — `order[k]` names the op that runs k-th,
/// and op `i` always runs on core `i`.
pub fn replay_sim(factory: &dyn KernelFactory, script: &Script<'_>, order: &[usize]) -> SimReplay {
    let kernel = factory.build();
    let machine = kernel.machine().clone();
    // Both kernels number processes densely from zero.
    for _ in 0..script.procs.max(2) {
        kernel.new_process();
    }
    // Setup runs untraced, each op on its annotated core (socket-queue
    // preloads must come from the owning core; everything else uses 0).
    machine.stop_tracing();
    let mut setup_ok = true;
    for (core, op) in script.setup {
        let result = machine.on_core(*core, || perform(kernel.as_ref(), *core, op));
        setup_ok &= result.is_ok();
    }
    machine.clear_trace();
    machine.start_tracing();
    let mut results: Vec<Option<SysResult>> = vec![None; script.ops.len()];
    for &i in order {
        results[i] = Some(machine.on_core(i, || perform(kernel.as_ref(), i, script.ops[i])));
    }
    machine.stop_tracing();
    SimReplay {
        kernel,
        setup_ok,
        results: results
            .into_iter()
            .map(|r| r.expect("the order runs every op"))
            .collect(),
    }
}

/// The outcome of running one test against one kernel.
#[derive(Clone, Debug)]
pub struct TestOutcome<R = (SysResult, SysResult)> {
    /// The test's identifier.
    pub test_id: String,
    /// Whether the traced operations were pairwise conflict-free.
    pub conflict_free: bool,
    /// Labels of the cache lines shared between the cores.
    pub shared_labels: Vec<String>,
    /// Whether every setup operation succeeded (failed setup usually means
    /// the test exercises an error path, which is fine, but it is recorded
    /// for diagnostics).
    pub setup_ok: bool,
    /// The results the traced operations returned, in op order.
    pub results: R,
}

/// Runs one generated test against a kernel built by `factory`.
pub fn run_test(factory: &dyn KernelFactory, test: &ConcreteTest) -> TestOutcome {
    run_test_order(factory, test, true)
}

/// [`run_test`] with an explicit linearisation: `a_first` selects which of
/// the two traced operations runs first. Extension pairs whose operations
/// race over shared queues (e.g. `send ∥ recv` with a steal) can return
/// order-dependent results even when SIM-commutative; comparing a replay
/// against both linearisations keeps the differential check sound for
/// them.
pub fn run_test_order(
    factory: &dyn KernelFactory,
    test: &ConcreteTest,
    a_first: bool,
) -> TestOutcome {
    let order: &[usize] = if a_first { &[0, 1] } else { &[1, 0] };
    replay_sim(factory, &test.script(), order).outcome(&test.id, as_pair)
}

/// The results of a two-op script as `(op_a, op_b)`.
pub fn as_pair(results: Vec<SysResult>) -> (SysResult, SysResult) {
    let [a, b] = <[SysResult; 2]>::try_from(results).expect("a pair has two ops");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_kernel::api::{OpenFlags, SysOp};
    use scr_model::CallKind;

    fn manual_test(
        id: &str,
        calls: (CallKind, CallKind),
        setup: Vec<SysOp>,
        op_a: SysOp,
        op_b: SysOp,
    ) -> ConcreteTest {
        ConcreteTest {
            id: id.into(),
            calls,
            setup: setup.into_iter().map(|op| (0, op)).collect(),
            op_a,
            op_b,
            procs: 2,
        }
    }

    #[test]
    fn creating_different_files_scales_on_sv6_but_not_linux() {
        let test = manual_test(
            "create_different",
            (CallKind::Open, CallKind::Open),
            vec![],
            SysOp::Open {
                pid: 0,
                name: "alpha".into(),
                flags: OpenFlags::create(),
            },
            SysOp::Open {
                pid: 1,
                name: "bravo".into(),
                flags: OpenFlags::create(),
            },
        );
        let sv6 = run_test(&Sv6Factory { cores: 4 }, &test);
        assert!(sv6.conflict_free, "sv6 shared {:?}", sv6.shared_labels);
        let linux = run_test(&LinuxLikeFactory { cores: 4 }, &test);
        assert!(!linux.conflict_free);
    }

    #[test]
    fn statting_the_same_existing_file_differs_between_kernels() {
        let setup = vec![
            SysOp::Open {
                pid: 0,
                name: "shared".into(),
                flags: OpenFlags::create(),
            },
            SysOp::Close { pid: 0, fd: 0 },
        ];
        let test = manual_test(
            "stat_same",
            (CallKind::Stat, CallKind::Stat),
            setup,
            SysOp::StatPath {
                pid: 0,
                name: "shared".into(),
            },
            SysOp::StatPath {
                pid: 1,
                name: "shared".into(),
            },
        );
        let sv6 = run_test(&Sv6Factory { cores: 4 }, &test);
        assert!(sv6.conflict_free, "sv6 shared {:?}", sv6.shared_labels);
        let linux = run_test(&LinuxLikeFactory { cores: 4 }, &test);
        assert!(
            !linux.conflict_free,
            "the dcache refcount must make Linux-like stats conflict"
        );
        assert!(linux.shared_labels.iter().any(|l| l.contains("d_count")));
    }

    #[test]
    fn setup_failures_are_reported() {
        let test = manual_test(
            "bad_setup",
            (CallKind::Stat, CallKind::Stat),
            vec![SysOp::Unlink {
                pid: 0,
                name: "does-not-exist".into(),
            }],
            SysOp::StatPath {
                pid: 0,
                name: "x".into(),
            },
            SysOp::StatPath {
                pid: 1,
                name: "y".into(),
            },
        );
        let outcome = run_test(&Sv6Factory { cores: 2 }, &test);
        assert!(!outcome.setup_ok);
        assert!(outcome.conflict_free);
    }

    #[test]
    fn factories_report_names() {
        assert_eq!(Sv6Factory::default().name(), "sv6");
        assert_eq!(LinuxLikeFactory::default().name(), "Linux");
    }
}
