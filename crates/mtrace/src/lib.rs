//! # scr-mtrace — a simulated cache-coherent shared-memory machine
//!
//! The paper's MTRACE (§5.3) runs the operating system under a modified qemu
//! and logs every memory access each core makes while a generated test case
//! executes; a post-processing step reports cache lines that were accessed
//! by more than one core with at least one write — the access conflicts that
//! limit scalability on MESI-like machines.
//!
//! This crate is the equivalent substrate for a library-level reproduction:
//!
//! * [`machine::SimMachine`] is a single-process simulated multicore. Kernel
//!   state is stored in [`machine::TracedCell`]s, each occupying its own
//!   (labelled) cache line unless explicitly co-located.
//! * [`trace`] records per-core reads and writes while tracing is enabled
//!   and reports **shared lines** — lines touched by two or more cores where
//!   at least one access is a write (the conflict definition of §3.3 mapped
//!   onto cache lines).
//! * [`mesi`] replays an access log through a MESI coherence model and
//!   counts the cross-core transfers each access causes.
//! * [`scaling`] turns coherence traffic into the ops/sec/core curves used
//!   by the Figure 7 reproduction: conflict-free workloads stay flat as
//!   cores are added, while a single contended line serialises ownership
//!   transfers and collapses per-core throughput.
//! * [`splitmix`] is the workspace's one SplitMix64 mixer, shared by the
//!   mail stack's seeded streams (arrivals, fault plans, backoff jitter).
//! * [`fnv`] is the workspace's one FNV-1a hash, shared by directory
//!   bucket placement, mail shard assignment and the COMMUTER
//!   fingerprints.
//!
//! The machine is deliberately single-threaded: "cores" are a labelling of
//! which logical CPU performed an access, which is all that conflict
//! detection and the coherence model need. Real-thread microbenchmarks of
//! the scalable primitives live in `scr-scalable`.

pub mod fnv;
pub mod machine;
pub mod mesi;
pub mod scaling;
pub mod splitmix;
pub mod trace;

pub use fnv::{fnv1a, Fnv1a};
pub use machine::{CoreId, LineId, SimMachine, TracedCell};
pub use mesi::{CoherenceStats, MesiSimulator};
pub use scaling::{ScalingParams, ScalingPoint, ThroughputModel};
pub use splitmix::{splitmix64, GOLDEN_GAMMA};
pub use trace::{Access, AccessKind, ConflictReport, SharedLine};
