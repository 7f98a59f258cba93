//! The one host replay: a generated test's script on real threads.
//!
//! [`replay_host`] is the real-threads twin of `scr_core::replay_sim`, and
//! every host entry point that runs a generated test goes through it: the
//! traced Figure 6 replays ([`crate::fig6`]), the differential and chaos
//! campaigns and the triple cross-check ([`crate::differential`]). Callers
//! only build the kernel (instrumented or bare) and read the result.

use crate::kernel::{HostKernel, HostMode, HostOptions};
use scr_chaos::kernel::{FaultyKernel, ReliableKernel};
use scr_chaos::plan::ChaosPlan;
use scr_core::Script;
use scr_hostmtrace::{on_core, HostConflictReport, HostTraceSink};
use scr_kernel::api::{perform, SysResult, SyscallApi};
use scr_kernel::retry::RetryPolicy;
use scr_mtrace::AccessKind;
use std::sync::{Arc, Barrier};

/// What one host replay observed.
#[derive(Clone, Debug)]
pub struct HostReplay {
    /// `results[i]` belongs to `ops[i]`, whatever schedule the threads got.
    pub results: Vec<SysResult>,
    /// The tracing window around the ops, when a sink was given.
    pub report: Option<HostConflictReport>,
}

/// Replays `script` on `kernel`: creates `procs.max(2)` processes, runs
/// the setup on the calling thread (each op on its annotated core), then
/// the ops with op `i` on core `i` — racing on one thread each behind one
/// barrier when `race`, back to back in op order otherwise (the
/// deterministic mode the footprint-parity tests use).
///
/// An enabled `plan` puts `ReliableKernel → FaultyKernel` with a
/// never-give-up retry policy in front of the kernel for the setup and the
/// ops; [`ChaosPlan::none`] replays on the bare kernel, as in
/// [`crate::run_mail`]. With `window`, the ops run inside one tracing
/// window of that sink (the kernel should be instrumented with it).
pub fn replay_host(
    kernel: &HostKernel,
    plan: &ChaosPlan,
    script: &Script<'_>,
    race: bool,
    window: Option<&HostTraceSink>,
) -> HostReplay {
    for _ in 0..script.procs.max(2) {
        kernel.new_process();
    }
    let faulty = plan
        .enabled()
        .then(|| FaultyKernel::new(kernel, plan.clone(), kernel.cores()));
    let reliable = faulty
        .as_ref()
        .map(|f| ReliableKernel::new(f, RetryPolicy::spin().with_seed(plan.seed)));
    let api: &(dyn SyscallApi + Sync) = match reliable.as_ref() {
        Some(reliable) => reliable,
        None => kernel,
    };
    for (core, op) in script.setup {
        on_core(*core, || perform(api, *core, op));
    }
    if let Some(sink) = window {
        sink.begin_window();
    }
    let results = if race {
        let barrier = Barrier::new(script.ops.len());
        let barrier = &barrier;
        std::thread::scope(|scope| {
            let threads: Vec<_> = script
                .ops
                .iter()
                .enumerate()
                .map(|(core, &op)| {
                    scope.spawn(move || {
                        barrier.wait();
                        on_core(core, || perform(api, core, op))
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("replayed op thread"))
                .collect()
        })
    } else {
        script
            .ops
            .iter()
            .enumerate()
            .map(|(core, &op)| on_core(core, || perform(api, core, op)))
            .collect()
    };
    HostReplay {
        results,
        report: window.map(|sink| sink.end_window()),
    }
}

/// The (core, label, kind) access multiset of a tracing window, sorted —
/// the host counterpart of `scr_core::SimReplay::footprint`.
pub fn host_footprint(
    sink: &HostTraceSink,
    report: &HostConflictReport,
) -> Vec<(usize, String, AccessKind)> {
    let mut footprint: Vec<_> = report
        .accesses
        .iter()
        .map(|a| (a.core, sink.label_of(a.line), a.kind))
        .collect();
    footprint.sort();
    footprint
}

/// A fresh kernel instrumented with a fresh sink, for a traced replay.
pub fn traced_kernel(mode: HostMode, cores: usize) -> (Arc<HostTraceSink>, HostKernel) {
    let sink = HostTraceSink::new(cores.max(2));
    let kernel = HostKernel::instrumented(cores, mode, HostOptions::default(), &sink);
    (sink, kernel)
}
