//! The §7.3 mail pipeline as communicating threads: the one driver behind
//! the smoke gates, the chaos gate and the open-loop load observatory.
//!
//! A [`MailRun`] names everything a run varies: the kernel mode, the API
//! family, the enqueuer × qman × shard topology, a **release schedule**
//! (a due time and a mailbox per message), a fault plan with its retry
//! budget, and an optional backlog bound. [`run_mail`] executes it:
//!
//! * **Enqueuers** release message *i* at `schedule[i].due_ns` after a
//!   common epoch. A burst ([`MailRun::burst`]) has every due time at 0;
//!   an open-loop schedule (`scr-loadgen`) spreads them at an offered
//!   rate. Every body carries the stamp `t=<due ns>;i=<index>;m=<mailbox>`,
//!   so the qman side measures latency **from the intended arrival** — the
//!   coordinated-omission-safe clock — and the ledger knows exactly which
//!   message each mailbox file holds.
//! * **Qmans** run the qman step stage by stage (receive, spawn, deliver,
//!   reap, cleanup) over the shards they own; with fewer shards than
//!   qmans, several qmans race `recv` on one shared socket. A stage whose
//!   bounded retry budget runs out dead-letters its message instead of
//!   losing it; a scheduled crash hands the in-flight step to a
//!   **supervisor** that reaps the orphaned helper, re-drives or finishes
//!   the envelope, and restarts the slot. The supervisor thread exists
//!   only when the plan schedules crashes.
//! * **The ledger** runs on every run: after the threads join, every
//!   accounted mailbox file is read back through the *raw* kernel and
//!   matched to its schedule index, and every process table is checked
//!   for leaked descriptors. [`MailReport::exactly_once`] and
//!   [`MailReport::accounted`] are the predicates every gate uses.
//!
//! The kernel stack, innermost first:
//!
//! ```text
//! HostKernel → (ObservedKernel) → (FaultyKernel → ReliableKernel)
//! ```
//!
//! The observed layer (present with telemetry) sits *inside* the fault
//! layer, so the syscall recorder counts only calls that reached the
//! kernel. The fault layer exists only when the plan is enabled; without
//! it the pipeline runs on the bare (or observed) kernel. Two
//! [`ReliableKernel`] surfaces share the one fault layer: a *bounded* one
//! (the [`MailRun::retry`] budget) drives the qman delivery stages, and a
//! *never-give-up* one drives the paths that must not fail — enqueue,
//! dead-letter salvage and the supervisor — because for those, giving up
//! *is* losing mail.

use crate::kernel::{HostKernel, HostMode};
use crate::workloads::MailTelemetry;
use scr_chaos::kernel::{ChaosTelemetry, FaultyKernel, ReliableKernel};
use scr_chaos::plan::{ChaosPlan, CrashPhase};
use scr_kernel::api::{Errno, KResult, OpenFlags, Pid, SyscallApi};
use scr_kernel::mail::{
    Envelope, MailConfig, MailServer, MailStageObserver, MailTopology, NoMailObs,
};
use scr_kernel::retry::{Backoff, RetryPolicy};
use scr_obs::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, ObservedKernel};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One message of a release schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Release {
    /// When the message is released, in ns after the run's epoch.
    pub due_ns: u64,
    /// The mailbox it is addressed to.
    pub mailbox: String,
}

/// Everything one pipeline run varies.
#[derive(Clone, Debug)]
pub struct MailRun {
    /// Kernel sharing mode (sv6-style or giant-locked).
    pub mode: HostMode,
    /// §7.3 API family (descriptor allocation, socket order, spawn).
    pub config: MailConfig,
    /// Enqueuers × qmans × notification-socket shards. Message *i* is
    /// released by enqueuer `i mod enqueuers`. With fewer shards than
    /// qmans, qman `q` polls shard `q mod shards`, so several qmans race
    /// `recv` on one socket.
    pub topology: MailTopology,
    /// The release schedule, one entry per message, nondecreasing per
    /// enqueuer.
    pub schedule: Vec<Release>,
    /// The fault plan. A disabled plan ([`ChaosPlan::none`]) adds no fault
    /// layer.
    pub plan: ChaosPlan,
    /// The bounded per-call retry budget of the qman delivery stages under
    /// an enabled plan; exhaustion dead-letters the message.
    pub retry: RetryPolicy,
    /// Overload shedding: an enqueuer drops (sheds) a message instead of
    /// announcing it while `announced - accounted` is at this bound.
    /// `None` queues without bound.
    pub max_backlog: Option<usize>,
    /// Deliberate stall before each qman poll round, in nanoseconds. Zero
    /// in real runs; the coordinated-omission regression test sets it to
    /// cap the service rate below the offered rate.
    pub qman_stall_ns: u64,
}

impl MailRun {
    /// A burst of `messages`, all due at the epoch, fault-free, under the
    /// transient retry budget and without shedding. Enqueuer `e` releases
    /// every message `i ≡ e (mod enqueuers)`, all addressed to mailbox
    /// `box{e}`.
    pub fn burst(
        mode: HostMode,
        config: MailConfig,
        topology: MailTopology,
        messages: usize,
    ) -> MailRun {
        let schedule = (0..messages)
            .map(|i| Release {
                due_ns: 0,
                mailbox: format!("box{}", i % topology.enqueuers),
            })
            .collect();
        MailRun {
            mode,
            config,
            topology,
            schedule,
            plan: ChaosPlan::none(),
            retry: RetryPolicy::transient(),
            max_backlog: None,
            qman_stall_ns: 0,
        }
    }

    /// Whether the plan schedules qman crashes (and so needs a supervisor).
    fn supervised(&self) -> bool {
        !self.plan.crashes.is_empty()
    }

    /// Cores the run occupies: one per worker thread, plus one for the
    /// supervisor when the plan schedules crashes. Size a
    /// [`MailTelemetry`] registry or a [`run_mail_on`] kernel with this.
    pub fn cores(&self) -> usize {
        self.topology.cores() + usize::from(self.supervised())
    }
}

/// Per-shard slice of a run: how much traffic the shard carried and the
/// latency distribution of the messages that travelled through it.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Notification-socket shard index.
    pub shard: usize,
    /// The qman that owns the shard (with shared shards, the lowest-numbered
    /// qman polling it).
    pub qman: usize,
    /// Messages accounted through this shard.
    pub delivered: u64,
    /// Latency (ns, intended-arrival to accounted) of those messages.
    pub latency: HistogramSnapshot,
}

/// The outcome of one run: the exactly-once ledger, the recovery counts
/// and the latency picture.
///
/// The ledger splits the schedule four ways: `offered = shed + enqueued`
/// and `enqueued = delivered + dead_lettered`. `lost`, `duplicates` and
/// `corrupt` come from reading every mailbox file back through the raw
/// kernel, so they reflect what is on disk, not what the threads believe.
#[derive(Clone, Debug)]
pub struct MailReport {
    /// Messages in the schedule.
    pub offered: usize,
    /// Messages announced (offered minus shed).
    pub enqueued: usize,
    /// Messages that reached their addressed mailbox.
    pub delivered: usize,
    /// Messages that reached the dead-letter mailbox instead.
    pub dead_lettered: usize,
    /// Messages dropped at admission by the backlog bound.
    pub shed: usize,
    /// Announced messages found in no mailbox.
    pub lost: usize,
    /// Extra copies beyond the first, summed over announced messages.
    pub duplicates: usize,
    /// Mailbox files whose body is not the stamp of an announced message.
    pub corrupt: usize,
    /// Descriptors still open in any process table after teardown.
    pub leaked_fds: usize,
    /// Scheduled qman deaths that fired.
    pub crashes: usize,
    /// Qman incarnations the supervisor started after a death.
    pub restarts: usize,
    /// In-flight envelopes the supervisor re-announced.
    pub redriven: usize,
    /// Orphaned delivery helpers the supervisor reaped.
    pub orphans_reaped: usize,
    /// Transient errnos the fault layer injected.
    pub injected_faults: u64,
    /// `recv` polls eaten by delivery holds.
    pub delayed_polls: u64,
    /// Empty `recv` polls on the qman side.
    pub eagain_retries: u64,
    /// Wall time from the epoch to the end of the run, seconds.
    pub elapsed_seconds: f64,
    /// End-to-end latency in ns, measured from intended arrival.
    pub latency: HistogramSnapshot,
    /// Per-shard traffic and latency.
    pub shards: Vec<ShardStats>,
}

impl MailReport {
    /// Every way this run fell short of exactly-once delivery, named in a
    /// fixed order: `lost`, `duplicated`, `corrupt`, `leaked descriptors`,
    /// `unbalanced` (the ledger totals do not add up), `dead-lettered`,
    /// `shed`. Empty exactly when [`exactly_once`](Self::exactly_once)
    /// holds; only the last two leave a run [`accounted`](Self::accounted).
    pub fn failures(&self) -> Vec<&'static str> {
        [
            (self.lost > 0, "lost"),
            (self.duplicates > 0, "duplicated"),
            (self.corrupt > 0, "corrupt"),
            (self.leaked_fds > 0, "leaked descriptors"),
            (!self.balanced(), "unbalanced"),
            (self.dead_lettered > 0, "dead-lettered"),
            (self.shed > 0, "shed"),
        ]
        .into_iter()
        .filter_map(|(failed, shape)| failed.then_some(shape))
        .collect()
    }

    /// The ledger totals add up: `offered = shed + enqueued` and
    /// `enqueued = delivered + dead_lettered`.
    fn balanced(&self) -> bool {
        self.delivered + self.dead_lettered == self.enqueued
            && self.enqueued + self.shed == self.offered
    }

    /// The chaos contract: every announced message landed exactly once in
    /// its mailbox or the dead-letter box, nothing was lost, duplicated,
    /// corrupted or leaked, and shedding accounts for the rest.
    pub fn accounted(&self) -> bool {
        self.lost == 0
            && self.duplicates == 0
            && self.corrupt == 0
            && self.leaked_fds == 0
            && self.balanced()
    }

    /// Every offered message delivered exactly once, bit-intact, to its
    /// own mailbox: [`accounted`](Self::accounted) with nothing
    /// dead-lettered or shed.
    pub fn exactly_once(&self) -> bool {
        self.accounted() && self.dead_lettered == 0 && self.shed == 0
    }

    /// Achieved delivery throughput, messages per second.
    pub fn throughput(&self) -> f64 {
        self.delivered as f64 / self.elapsed_seconds.max(1e-9)
    }

    /// The shard that carried the most messages (hot shard under skew).
    pub fn hottest_shard(&self) -> Option<&ShardStats> {
        self.shards.iter().max_by_key(|s| s.delivered)
    }
}

/// The intended-arrival stamp a message body carries.
fn stamp(due_ns: u64, index: usize, mailbox: &str) -> String {
    format!("t={due_ns};i={index};m={mailbox}")
}

/// The intended-arrival ns and schedule index of a stamped body.
fn parse_stamp(body: &[u8]) -> Option<(u64, usize)> {
    let text = std::str::from_utf8(body).ok()?;
    let (due, rest) = text.strip_prefix("t=")?.split_once(";i=")?;
    let (index, _) = rest.split_once(';')?;
    Some((due.parse().ok()?, index.parse().ok()?))
}

/// Sleep (coarse) then yield (fine) until `due_ns` after `epoch`. Never
/// spins without yielding, so an oversubscribed host keeps making
/// progress.
fn wait_until(epoch: Instant, due_ns: u64) {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let gap = due_ns - now;
        if gap > 500_000 {
            // Leave the last ~200µs to the yield loop: sleep overshoot
            // delays the *release*, and the latency clock charges any
            // release delay to the system — keep it small.
            std::thread::sleep(Duration::from_nanos(gap - 200_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What a dying qman was holding when its scheduled crash fired.
enum Held {
    /// Received the notification, nothing more.
    Notification(String),
    /// Spawned the delivery helper, which has not delivered.
    Spawned(Envelope, Pid),
    /// The helper delivered into this mailbox file; reap and cleanup
    /// remain.
    Delivered(Envelope, Pid, String),
}

/// A crashed qman step, handed to the supervisor.
struct Wreck {
    qman: usize,
    generation: u32,
    shard: usize,
    held: Held,
}

/// The run's message and recovery counts.
#[derive(Default)]
struct Tally {
    announced: AtomicUsize,
    accounted: AtomicUsize,
    enq_done: AtomicUsize,
    shed: AtomicUsize,
    dead_lettered: AtomicUsize,
    crashes: AtomicUsize,
    restarts: AtomicUsize,
    redriven: AtomicUsize,
    orphans: AtomicUsize,
}

/// Shared run state: the counts every thread updates, which messages were
/// announced, the accounted mailbox files (one list per core, merged
/// after the threads join), the per-run latency metrics, and the shard
/// ownership map the supervisor rewrites when a qman dies.
struct Ledger<'t> {
    enqueuers: usize,
    qmans: usize,
    tally: Tally,
    announced: Vec<AtomicBool>,
    files: Vec<Mutex<Vec<String>>>,
    shard_owner: Vec<AtomicUsize>,
    aborted: AtomicBool,
    epoch: OnceLock<Instant>,
    latency: Histogram,
    eagain: Counter,
    shard_latency: Vec<Histogram>,
    telemetry: Option<&'t MailTelemetry>,
}

impl<'t> Ledger<'t> {
    fn new(
        topology: &MailTopology,
        messages: usize,
        registry: &MetricsRegistry,
        telemetry: Option<&'t MailTelemetry>,
    ) -> Ledger<'t> {
        let shards = topology.notify_shards;
        Ledger {
            enqueuers: topology.enqueuers,
            qmans: topology.qmans,
            tally: Tally::default(),
            announced: (0..messages).map(|_| AtomicBool::new(false)).collect(),
            files: (0..registry.cores())
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            shard_owner: (0..shards)
                .map(|s| AtomicUsize::new(topology.qman_of_shard(s)))
                .collect(),
            aborted: AtomicBool::new(false),
            epoch: OnceLock::new(),
            latency: registry.histogram("mail.latency_ns"),
            eagain: registry.counter("mail.eagain_retries"),
            shard_latency: (0..shards)
                .map(|s| registry.histogram(&format!("mail.shard[{s}].latency_ns")))
                .collect(),
            telemetry,
        }
    }

    /// The instant every due time and latency is measured from. The first
    /// thread past the start barrier sets it.
    fn epoch(&self) -> Instant {
        *self.epoch.get_or_init(Instant::now)
    }

    /// The run is over: every enqueuer finished and every announced
    /// message is accounted, or a pipeline thread panicked. Announcement
    /// *precedes* the spool write, so `accounted` can never catch up with
    /// `announced` while a message is in flight.
    fn done(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
            || (self.tally.enq_done.load(Ordering::Acquire) == self.enqueuers
                && self.tally.accounted.load(Ordering::Acquire)
                    >= self.tally.announced.load(Ordering::Acquire))
    }

    /// A guard that ends the run for every thread if the thread holding
    /// it panics, so the panic surfaces from [`run_mail`] instead of the
    /// other threads waiting forever for mail that will never come.
    fn abort_on_panic(&self) -> AbortOnPanic<'_> {
        AbortOnPanic(&self.aborted)
    }

    /// Whether qman `q` polls `shard` now. With at least as many shards as
    /// qmans every shard has one owner, which the supervisor rewrites
    /// while a slot is dead. With fewer, qman `q` shares shard
    /// `q mod shards` with every other qman that maps there.
    fn polls(&self, q: usize, shard: usize) -> bool {
        let shards = self.shard_owner.len();
        if shards < self.qmans {
            shard == q % shards
        } else {
            self.shard_owner[shard].load(Ordering::Relaxed) == q
        }
    }

    /// Backlog admission: false (and the message counted as shed) when
    /// the in-flight count has reached `bound`.
    fn admit(&self, bound: Option<usize>) -> bool {
        let t = &self.tally;
        let backlog = t
            .announced
            .load(Ordering::Acquire)
            .saturating_sub(t.accounted.load(Ordering::Acquire));
        let admitted = bound.is_none_or(|bound| backlog < bound);
        if !admitted {
            t.shed.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    fn announce(&self, index: usize) {
        self.announced[index].store(true, Ordering::Relaxed);
        self.tally.announced.fetch_add(1, Ordering::Release);
    }

    /// An empty poll on `core`.
    fn empty_poll(&self, core: usize) {
        self.eagain.inc(core);
        if let Some(t) = self.telemetry {
            t.eagain_retries.inc(core);
        }
    }

    /// `envelope` landed in `file` (its own mailbox, or the dead-letter
    /// box when `dead`): charge its latency from the intended arrival and
    /// enter the file in the ledger.
    fn account(&self, core: usize, envelope: &Envelope, file: String, dead: bool) {
        let now = self.epoch().elapsed().as_nanos() as u64;
        // An unstamped body is the read-back's business (it is corrupt);
        // here it simply charges no latency.
        let due = parse_stamp(&envelope.body).map_or(now, |(due, _)| due);
        let waited = now.saturating_sub(due);
        self.latency.record(core, waited);
        self.shard_latency[envelope.shard].record(core, waited);
        if dead {
            self.tally.dead_lettered.fetch_add(1, Ordering::Relaxed);
        } else if let Some(t) = self.telemetry {
            t.delivered.inc(core);
        }
        self.files[core]
            .lock()
            .expect("no pipeline thread panics holding the ledger")
            .push(file);
        self.tally.accounted.fetch_add(1, Ordering::Release);
    }
}

/// See [`Ledger::abort_on_panic`].
struct AbortOnPanic<'l>(&'l AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// What one `recv` on a notification shard yielded: a notification, or
/// `None` for an empty poll. Under a fault layer any error is an empty
/// poll — genuinely empty, or an injected storm that outlasted the
/// bounded budget; nothing was dequeued either way. On a kernel without
/// one only `EAGAIN` is, and any other errno is a pipeline bug.
fn polled(result: KResult<String>, faulted: bool) -> Option<String> {
    match result {
        Ok(env_name) => Some(env_name),
        Err(Errno::EAGAIN) => None,
        Err(_) if faulted => None,
        Err(e) => panic!("qman recv failed: {e}"),
    }
}

/// Runs `run` on a fresh kernel of [`MailRun::cores`] cores.
///
/// With `Some(telemetry)` every syscall that reaches the kernel is
/// recorded, each stage (enqueue → notify → receive → spawn → deliver →
/// reap → cleanup) becomes a trace span, the qmans count their empty
/// polls (`eagain_retries`, one per empty `recv`) and backoff waits
/// (`yield_spins`), and an enabled plan registers the chaos layer's
/// counters (`chaos.injected.*`, `chaos.retries`, ...) on the same
/// registry. Size the registry with [`MailRun::cores`].
pub fn run_mail(run: &MailRun, telemetry: Option<&MailTelemetry>) -> MailReport {
    let kernel = HostKernel::new(run.cores(), run.mode);
    run_mail_on(&kernel, run, telemetry)
}

/// [`run_mail`] against an existing kernel of at least
/// [`MailRun::cores`] cores (the conflict-heat pass hands in an
/// instrumented one). The ledger's read-back runs on the same kernel
/// after every pipeline thread has joined.
pub fn run_mail_on(
    kernel: &HostKernel,
    run: &MailRun,
    telemetry: Option<&MailTelemetry>,
) -> MailReport {
    let topology = run.topology;
    let (enqueuers, qmans, shards) = (topology.enqueuers, topology.qmans, topology.notify_shards);
    let sup_core = topology.cores();
    let cores = run.cores();
    let schedule = &run.schedule;
    let total = schedule.len();
    let client = kernel.new_process();
    let qman_pid = kernel.new_process();

    let observed = telemetry.map(|t| ObservedKernel::new(kernel, t.syscalls.clone()));
    let base: &(dyn SyscallApi + Sync) = match observed.as_ref() {
        Some(o) => o,
        None => kernel,
    };
    let stages: &(dyn MailStageObserver + Sync) = match telemetry {
        Some(t) => t,
        None => &NoMailObs,
    };
    let plan = &run.plan;
    let faulty = plan.enabled().then(|| {
        let faulty = FaultyKernel::new(base, plan.clone(), cores);
        match telemetry {
            Some(t) => faulty.with_telemetry(ChaosTelemetry::new(&t.registry)),
            None => faulty,
        }
    });
    let reliable = faulty.as_ref().map(|f| {
        (
            ReliableKernel::new(f, run.retry.with_seed(plan.seed)),
            ReliableKernel::new(f, RetryPolicy::spin().with_seed(plan.seed ^ 1)),
        )
    });
    let faulted = reliable.is_some();
    let (bounded, persistent): (&(dyn SyscallApi + Sync), &(dyn SyscallApi + Sync)) =
        match reliable.as_ref() {
            Some((bounded, persistent)) => (bounded, persistent),
            None => (base, base),
        };
    let server = MailServer::with_topology(bounded, run.config, topology, cores)
        .expect("socket creation is unfaultable");
    // The never-give-up surface over the same sockets and spool.
    let safe = server.view(persistent);

    let registry = MetricsRegistry::new(cores);
    let ledger = Ledger::new(&topology, total, &registry, telemetry);
    let (tx, rx) = mpsc::channel::<Wreck>();
    let barrier = Barrier::new(enqueuers + qmans);

    let poll_policy = RetryPolicy::spin().with_seed(plan.seed ^ 2);
    let (ledger, tx, barrier) = (&ledger, &tx, &barrier);
    let (server, safe) = (&server, &safe);

    // Budget exhaustion on a delivery stage: the spool is intact (injected
    // failures have no side effects), so salvage through the never-give-up
    // view and account the message to the dead-letter box.
    let dead_letter = move |core: usize, envelope: &Envelope| {
        let file = safe
            .dead_letter(core, qman_pid, envelope)
            .expect("dead-letter delivery never gives up");
        safe.cleanup_spool(core, qman_pid, envelope, stages)
            .expect("close/unlink are unfaultable");
        ledger.account(core, envelope, file, true);
    };

    // The qman step after `recv`, stage by stage. Returns what the
    // incarnation was holding if `crash_at` fired along the way.
    let process =
        move |core: usize, shard: usize, env_name: String, crash_at: Option<CrashPhase>| {
            if crash_at == Some(CrashPhase::AfterRecv) {
                return Some(Held::Notification(env_name));
            }
            let envelope = match server.read_envelope(core, qman_pid, &env_name, shard, stages) {
                Ok(envelope) => envelope,
                Err(_) => {
                    let envelope = safe
                        .read_envelope(core, qman_pid, &env_name, shard, stages)
                        .expect("spool re-read never gives up");
                    dead_letter(core, &envelope);
                    return None;
                }
            };
            let Ok(helper) = server.spawn_helper(core, qman_pid, &envelope, stages) else {
                dead_letter(core, &envelope);
                return None;
            };
            if crash_at == Some(CrashPhase::AfterSpawn) {
                return Some(Held::Spawned(envelope, helper));
            }
            let Ok(file) = server.deliver_as_helper(core, helper, &envelope, stages) else {
                safe.reap_helper(core, qman_pid, helper, stages)
                    .expect("wait is unfaultable");
                dead_letter(core, &envelope);
                return None;
            };
            if crash_at == Some(CrashPhase::AfterDeliver) {
                return Some(Held::Delivered(envelope, helper, file));
            }
            server
                .reap_helper(core, qman_pid, helper, stages)
                .expect("wait is unfaultable");
            server
                .cleanup_spool(core, qman_pid, &envelope, stages)
                .expect("close/unlink are unfaultable");
            ledger.account(core, &envelope, file, false);
            None
        };

    // One qman incarnation: polls the shards the ownership map assigns
    // it, backs off when all of them are empty, and dies where the plan
    // says.
    let qman_body = move |q: usize, generation: u32| {
        let _abort = ledger.abort_on_panic();
        let core = topology.qman_core(q);
        let crash = plan.crash_for(q, generation);
        let mut steps: u64 = 0;
        let mut idle = Backoff::new(poll_policy, ((q as u64) << 32) | u64::from(generation));
        'run: loop {
            if ledger.done() {
                return;
            }
            if run.qman_stall_ns > 0 {
                std::thread::sleep(Duration::from_nanos(run.qman_stall_ns));
            }
            for shard in 0..shards {
                if !ledger.polls(q, shard) {
                    continue;
                }
                let Some(env_name) = polled(server.recv_notification(core, shard), faulted) else {
                    ledger.empty_poll(core);
                    continue;
                };
                let crash_at = crash.filter(|c| steps >= c.after_steps).map(|c| c.phase);
                if let Some(held) = process(core, shard, env_name, crash_at) {
                    // The wrecked envelope is announced but unaccounted, so
                    // the supervisor cannot have seen `done` and exited.
                    ledger.tally.crashes.fetch_add(1, Ordering::Relaxed);
                    let wreck = Wreck {
                        qman: q,
                        generation,
                        shard,
                        held,
                    };
                    tx.send(wreck)
                        .expect("supervisor outlives every qman incarnation");
                    return;
                }
                steps += 1;
                idle.reset();
                continue 'run;
            }
            if let Some(t) = telemetry {
                t.yield_spins.inc(core);
            }
            idle.wait();
        }
    };

    // The supervisor's handling of one wreck: salvage the in-flight state,
    // lend the dead slot's shards to the survivors, then restart the slot.
    let salvage = move |w: Wreck| {
        // Shared shards (fewer shards than qmans) have no owner to rewrite.
        if qmans > 1 && shards >= qmans {
            let mut next = (w.qman + 1) % qmans;
            for owner in &ledger.shard_owner {
                if owner.load(Ordering::Relaxed) == w.qman {
                    owner.store(next, Ordering::Relaxed);
                    next = (next + 1) % qmans;
                    if next == w.qman {
                        next = (next + 1) % qmans;
                    }
                }
            }
        }
        let helper = match &w.held {
            Held::Notification(_) => None,
            Held::Spawned(_, helper) | Held::Delivered(_, helper, _) => Some(*helper),
        };
        // Reap the orphaned delivery helper first — an unreaped helper is
        // a descriptor-table leak.
        if let Some(helper) = helper {
            safe.reap_helper(sup_core, qman_pid, helper, stages)
                .expect("orphan reap never gives up");
            ledger.tally.orphans.fetch_add(1, Ordering::Relaxed);
        }
        match w.held {
            // Only the notification was taken: put it back on the wire.
            Held::Notification(name) => {
                persistent
                    .send(sup_core, safe.shard_socket(w.shard), name.as_bytes())
                    .expect("re-drive send never gives up");
                ledger.tally.redriven.fetch_add(1, Ordering::Relaxed);
            }
            // Undelivered: drop the wreck's descriptor and re-announce.
            Held::Spawned(envelope, _) => {
                persistent
                    .close(sup_core, qman_pid, envelope.msg_fd)
                    .expect("close is unfaultable");
                persistent
                    .send(
                        sup_core,
                        safe.shard_socket(envelope.shard),
                        envelope.env_name.as_bytes(),
                    )
                    .expect("re-drive send never gives up");
                ledger.tally.redriven.fetch_add(1, Ordering::Relaxed);
            }
            // Delivered: finish cleanup and account it — re-driving would
            // duplicate.
            Held::Delivered(envelope, _, file) => {
                safe.cleanup_spool(sup_core, qman_pid, &envelope, stages)
                    .expect("close/unlink are unfaultable");
                ledger.account(sup_core, &envelope, file, false);
            }
        }
        for shard in topology.shards_of_qman(w.qman) {
            ledger.shard_owner[shard].store(w.qman, Ordering::Relaxed);
        }
        ledger.tally.restarts.fetch_add(1, Ordering::Relaxed);
    };

    std::thread::scope(|scope| {
        for e in 0..enqueuers {
            scope.spawn(move || {
                let _abort = ledger.abort_on_panic();
                barrier.wait();
                let epoch = ledger.epoch();
                let core = topology.enqueuer_core(e);
                for (i, release) in schedule.iter().enumerate().skip(e).step_by(enqueuers) {
                    wait_until(epoch, release.due_ns);
                    if !ledger.admit(run.max_backlog) {
                        continue;
                    }
                    ledger.announce(i);
                    let body = stamp(release.due_ns, i, &release.mailbox);
                    safe.enqueue_observed(core, client, &release.mailbox, body.as_bytes(), stages)
                        .expect("enqueue never gives up");
                    if let Some(t) = telemetry {
                        t.enqueued.inc(core);
                    }
                }
                ledger.tally.enq_done.fetch_add(1, Ordering::Release);
            });
        }
        for q in 0..qmans {
            scope.spawn(move || {
                barrier.wait();
                qman_body(q, 0);
            });
        }
        if run.supervised() {
            scope.spawn(move || {
                let _abort = ledger.abort_on_panic();
                loop {
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(wreck) => {
                            let (q, generation) = (wreck.qman, wreck.generation + 1);
                            salvage(wreck);
                            scope.spawn(move || qman_body(q, generation));
                        }
                        Err(RecvTimeoutError::Timeout) if ledger.done() => return,
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            });
        }
    });
    let elapsed_seconds = ledger.epoch().elapsed().as_secs_f64();

    // The ledger reads everything back through the *raw* kernel: what is
    // actually on disk, not what the pipeline believes happened.
    let announced = |i: usize| ledger.announced[i].load(Ordering::Acquire);
    let files: Vec<String> = ledger
        .files
        .iter()
        .flat_map(|core| std::mem::take(&mut *core.lock().expect("every thread joined")))
        .collect();
    let mut copies = vec![0usize; total];
    let mut corrupt = 0;
    for name in files.iter() {
        let fd = kernel
            .open(0, qman_pid, name, OpenFlags::plain())
            .expect("accounted file must exist");
        let body = kernel.pread(0, qman_pid, fd, 4096, 0).expect("read body");
        kernel.close(0, qman_pid, fd).expect("close");
        let index = parse_stamp(&body).map(|(_, i)| i).filter(|&i| {
            i < total
                && announced(i)
                && body == stamp(schedule[i].due_ns, i, &schedule[i].mailbox).as_bytes()
        });
        match index {
            Some(i) => copies[i] += 1,
            None => corrupt += 1,
        }
    }
    let lost = (0..total)
        .filter(|&i| announced(i) && copies[i] == 0)
        .count();
    let duplicates = copies.iter().map(|n| n.saturating_sub(1)).sum();
    // Teardown leak check: no process — client, qman, or any helper the
    // run spawned — may still hold a descriptor.
    let leaked_fds = (0..kernel.process_count())
        .map(|pid| kernel.open_fd_count(pid).unwrap_or(0))
        .sum();

    let count = |n: &AtomicUsize| n.load(Ordering::Relaxed);
    let dead_lettered = count(&ledger.tally.dead_lettered);
    MailReport {
        offered: total,
        enqueued: count(&ledger.tally.announced),
        delivered: files.len() - dead_lettered,
        dead_lettered,
        shed: count(&ledger.tally.shed),
        lost,
        duplicates,
        corrupt,
        leaked_fds,
        crashes: count(&ledger.tally.crashes),
        restarts: count(&ledger.tally.restarts),
        redriven: count(&ledger.tally.redriven),
        orphans_reaped: count(&ledger.tally.orphans),
        injected_faults: faulty.as_ref().map_or(0, |f| f.injected_total()),
        delayed_polls: faulty.as_ref().map_or(0, |f| f.delayed_polls_total()),
        eagain_retries: ledger.eagain.total(),
        elapsed_seconds,
        latency: ledger.latency.merged(),
        shards: (0..shards)
            .map(|s| {
                let latency = ledger.shard_latency[s].merged();
                ShardStats {
                    shard: s,
                    qman: topology.qman_of_shard(s),
                    delivered: latency.count,
                    latency,
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_chaos::plan::{DelaySpec, FaultSpec};
    use scr_obs::SyscallKind;

    /// Two enqueuers and two qmans racing `recv` on one shared
    /// notification socket.
    fn shared_socket() -> MailTopology {
        MailTopology::new(2, 2).with_shards(1)
    }

    /// A 2×2 burst of 50 messages, commutative APIs on the sv6-style
    /// kernel, under `plan` with the transient retry budget.
    fn chaos_burst(plan: ChaosPlan) -> MailRun {
        MailRun {
            plan,
            ..MailRun::burst(
                HostMode::Sv6,
                MailConfig::CommutativeApis,
                MailTopology::new(2, 2),
                50,
            )
        }
    }

    #[test]
    fn stamps_round_trip() {
        let body = stamp(123_456_789, 42, "box0007");
        assert_eq!(parse_stamp(body.as_bytes()), Some((123_456_789, 42)));
        assert_eq!(parse_stamp(b"garbage"), None);
        assert_eq!(parse_stamp(b"t=;i=0;m=x"), None);
        assert_eq!(parse_stamp(b"t=5;m=x"), None);
    }

    #[test]
    fn burst_delivers_exactly_once_in_every_configuration() {
        for topology in [shared_socket(), MailTopology::new(2, 2)] {
            for mode in [HostMode::Sv6, HostMode::Linuxlike] {
                for config in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
                    let run = MailRun::burst(mode, config, topology, 50);
                    let report = run_mail(&run, None);
                    assert!(
                        report.exactly_once(),
                        "{topology:?} {mode:?}/{config:?}: {report:?} must deliver exactly once"
                    );
                    assert_eq!(report.delivered, 50);
                }
            }
        }
    }

    #[test]
    fn observed_burst_records_ledger_spans_and_retries() {
        let run = MailRun::burst(
            HostMode::Sv6,
            MailConfig::CommutativeApis,
            shared_socket(),
            20,
        );
        let telemetry = MailTelemetry::new(run.cores());
        let report = run_mail(&run, Some(&telemetry));
        assert!(report.exactly_once(), "{report:?}");
        assert_eq!(telemetry.enqueued.total(), 20);
        assert_eq!(telemetry.delivered.total(), 20);
        // Every poll makes exactly one recv: it either delivers or finds
        // the shared socket empty (perhaps because the other qman won the
        // race), so the recv count decomposes exactly.
        assert_eq!(
            telemetry.syscalls.count_of(SyscallKind::Recv),
            telemetry.delivered.total() + telemetry.eagain_retries.total()
        );
        assert_eq!(
            telemetry
                .syscalls
                .errno_count(SyscallKind::Recv, Errno::EAGAIN),
            telemetry.eagain_retries.total()
        );
        assert_eq!(report.eagain_retries, telemetry.eagain_retries.total());
        // Seven pipeline stages per message, and EAGAIN polls record none.
        assert_eq!(telemetry.trace.len(), 7 * 20);
    }

    #[test]
    fn failures_name_each_broken_shape() {
        let mut report = run_mail(&chaos_burst(ChaosPlan::none()), None);
        assert!(report.exactly_once(), "{report:?}");
        assert!(report.failures().is_empty());
        report.dead_lettered = 1;
        report.delivered -= 1;
        assert!(report.accounted() && !report.exactly_once());
        assert_eq!(report.failures(), vec!["dead-lettered"]);
        report.lost = 1;
        report.leaked_fds = 2;
        assert!(!report.accounted());
        assert_eq!(
            report.failures(),
            vec!["lost", "leaked descriptors", "dead-lettered"]
        );
    }

    #[test]
    fn non_eagain_recv_failure_without_faults_panics_instead_of_hanging() {
        assert_eq!(polled(Ok("env".into()), false).as_deref(), Some("env"));
        assert_eq!(polled(Err(Errno::EAGAIN), false), None);
        // Under a fault layer an error that outlasted the budget is an
        // empty poll; on the bare kernel it is a bug and must be reported.
        assert_eq!(polled(Err(Errno::EBADF), true), None);
        let fatal = std::panic::catch_unwind(|| polled(Err(Errno::EBADF), false));
        assert!(fatal.is_err(), "EBADF on the bare kernel must panic");

        // The panic ends the run: a survivor waiting for a message that is
        // announced but will never be accounted is released by the abort.
        let topology = MailTopology::new(1, 2);
        let registry = MetricsRegistry::new(topology.cores());
        let ledger = Ledger::new(&topology, 1, &registry, None);
        ledger.announce(0);
        let (ledger, released) = (&ledger, &AtomicBool::new(false));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _abort = ledger.abort_on_panic();
                    polled(Err(Errno::EBADF), false)
                });
                scope.spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !ledger.done() && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    released.store(ledger.done(), Ordering::Relaxed);
                });
            });
        }));
        assert!(run.is_err(), "the qman's panic must surface from the run");
        assert!(
            released.load(Ordering::Relaxed),
            "the panic must release the threads still waiting for mail"
        );
    }

    #[test]
    fn fault_free_plan_delivers_everything_normally() {
        let report = run_mail(&chaos_burst(ChaosPlan::none()), None);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.delivered, report.offered);
        assert_eq!(report.dead_lettered, 0);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.injected_faults, 0);
    }

    #[test]
    fn errno_storm_loses_nothing_in_either_api_family() {
        for config in [MailConfig::CommutativeApis, MailConfig::RegularApis] {
            let run = MailRun {
                config,
                ..chaos_burst(ChaosPlan::errno_storm(11))
            };
            let report = run_mail(&run, None);
            assert!(report.accounted(), "{config:?}: {report:?}");
            assert!(report.injected_faults > 0, "{config:?}: storm must inject");
        }
    }

    #[test]
    fn delayed_delivery_holds_messages_but_loses_none() {
        let report = run_mail(&chaos_burst(ChaosPlan::delayed_delivery(7)), None);
        assert!(report.accounted(), "{report:?}");
        assert!(
            report.delayed_polls > 0,
            "plan must start holds: {report:?}"
        );
    }

    #[test]
    fn qman_crashes_recover_through_all_three_phases() {
        // One qman slot so the crash schedule (which targets slot 0) is
        // guaranteed to see enough traffic to fire all three deaths.
        let topology = MailTopology::new(2, 1);
        let run = MailRun {
            plan: ChaosPlan::qman_crash(3),
            ..MailRun::burst(HostMode::Sv6, MailConfig::CommutativeApis, topology, 60)
        };
        let report = run_mail(&run, None);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.crashes, 3, "{report:?}");
        assert_eq!(report.restarts, 3, "{report:?}");
        // AfterRecv and AfterSpawn re-drive; AfterSpawn and AfterDeliver
        // orphan a helper.
        assert_eq!(report.redriven, 2, "{report:?}");
        assert_eq!(report.orphans_reaped, 2, "{report:?}");
    }

    #[test]
    fn crash_reassignment_keeps_multi_qman_runs_accounted() {
        let topology = MailTopology::new(3, 3);
        let run = MailRun {
            plan: ChaosPlan::qman_crash(5),
            ..MailRun::burst(HostMode::Sv6, MailConfig::CommutativeApis, topology, 60)
        };
        let report = run_mail(&run, None);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.restarts, report.crashes, "{report:?}");
    }

    #[test]
    fn zero_backlog_bound_sheds_the_whole_offer() {
        let mut run = chaos_burst(ChaosPlan::none());
        run.max_backlog = Some(0);
        let report = run_mail(&run, None);
        assert!(report.accounted(), "{report:?}");
        assert_eq!(report.shed, report.offered);
        assert_eq!(report.enqueued, 0);
        assert_eq!(report.delivered, 0);
    }

    #[test]
    fn storm_with_tiny_budget_dead_letters_rather_than_loses() {
        // A harsh storm against a one-attempt budget: many stages exhaust
        // immediately, so the dead-letter path must carry the load.
        let mut run = chaos_burst(ChaosPlan::new(
            13,
            FaultSpec::uniform(400_000),
            DelaySpec::default(),
            vec![],
        ));
        run.retry = RetryPolicy::transient().with_max_retries(1);
        let report = run_mail(&run, None);
        assert!(report.accounted(), "{report:?}");
        assert!(
            report.dead_lettered > 0,
            "a 40% storm against one retry must dead-letter: {report:?}"
        );
    }
}
