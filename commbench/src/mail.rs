//! The open-loop §7.3 mail workload.
//!
//! Each cell runs on a fresh sv6-mode `HostKernel` with
//! `MailConfig::CommutativeApis` and one enqueuer feeding one qman (two
//! threads). The benchmark owns the schedule: Poisson arrivals at the
//! cell's rate, spread uniformly over 256 mailboxes, all drawn from the
//! seed before any thread starts. Latency runs from each message's
//! intended arrival to its delivery, so a stalled generator or a stalled
//! qman charges every message queued behind it. The qman idles on `EAGAIN`
//! with `Backoff` over `RetryPolicy::spin()`, as the repository's drivers
//! do.
//!
//! Cells have a fixed message count, not a fixed duration: per-message cost
//! grows with the mail already delivered, so a duration-bounded cell would
//! measure a different program on a faster machine.

use crate::stats;
use crate::{peak_rss_mb, process_cpu_s, Args, Metrics, Outcome};
use scr_host::{HostKernel, HostMode};
use scr_kernel::api::{Errno, Pid, SyscallApi};
use scr_kernel::mail::DEAD_LETTER;
use scr_kernel::mail::{MailConfig, MailServer, MailStage, MailStageObserver, MailTopology};
use scr_kernel::{Backoff, RetryPolicy};
use scr_obs::{MetricsRegistry, ObservedKernel, SyscallKind, SyscallRecorder};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

const MAILBOXES: u64 = 256;
/// Enqueuer core and qman core of the 1 × 1 topology.
const ENQUEUER_CORE: usize = 0;
const QMAN_CORE: usize = 1;
/// A qman that sees no delivery for this long after the last release stops
/// and reports the missing messages as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// A sub-saturation cell is flagged when the backlog left at its last
/// release exceeds this share of its messages: the qman fell behind the
/// offered rate, so the cell measures a growing queue.
const BACKLOG_LIMIT: f64 = 0.02;
/// A cell is flagged when its p99 release lateness exceeds this: the
/// generator, not the program, set the latency.
const GEN_LAG_LIMIT_US: f64 = 500.0;

/// One open-loop cell: an offered rate and a fixed message count.
#[derive(Clone, Copy, Debug)]
struct CellSpec {
    name: &'static str,
    rate_per_s: f64,
    messages: usize,
    /// Offered far above capacity: measures service time, not latency.
    overload: bool,
}

/// Mostly idle: the qman's backoff path decides latency.
const LIGHT: CellSpec = CellSpec {
    name: "10k",
    rate_per_s: 10_000.0,
    messages: 5_000,
    overload: false,
};
/// Busier, still below capacity.
const BUSY: CellSpec = CellSpec {
    name: "30k",
    rate_per_s: 30_000.0,
    messages: 15_000,
    overload: false,
};
/// Offered far above capacity: delivered per second is the saturation
/// throughput.
const OVERLOAD: CellSpec = CellSpec {
    name: "overload",
    rate_per_s: 2_000_000.0,
    messages: 20_000,
    overload: true,
};
const CELLS: [CellSpec; 3] = [LIGHT, BUSY, OVERLOAD];

/// SplitMix64: the benchmark's own seeded generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A cell's arrivals, decided before any thread starts.
struct Schedule {
    due_ns: Vec<u64>,
    mailboxes: Vec<String>,
}

impl Schedule {
    fn generate(cell: &CellSpec, seed: u64, stream: u64) -> Schedule {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut at = 0.0f64;
        let mut due_ns = Vec::with_capacity(cell.messages);
        let mut mailboxes = Vec::with_capacity(cell.messages);
        for _ in 0..cell.messages {
            due_ns.push(at as u64);
            at += -(1.0 - rng.unit()).ln() / cell.rate_per_s * 1e9;
            mailboxes.push(format!("user{:03}", rng.next_u64() % MAILBOXES));
        }
        Schedule { due_ns, mailboxes }
    }

    fn body(&self, index: usize) -> String {
        format!("{index}:{}", self.mailboxes[index])
    }
}

/// Stage spans observed on one thread. Disabled, it reads no clocks and the
/// observed entry points behave like the plain ones.
#[derive(Default)]
struct StageLog {
    on: bool,
    spans: RefCell<Vec<(MailStage, Instant, Duration)>>,
    last_receive: Cell<Option<Instant>>,
}

impl StageLog {
    fn new(on: bool) -> StageLog {
        StageLog {
            on,
            ..Default::default()
        }
    }
}

impl MailStageObserver for StageLog {
    fn stage_enabled(&self) -> bool {
        self.on
    }

    fn observe_stage(&self, _: usize, stage: MailStage, started: Instant, ended: Instant) {
        if stage == MailStage::Receive {
            self.last_receive.set(Some(started));
        }
        self.spans
            .borrow_mut()
            .push((stage, started, ended.saturating_duration_since(started)));
    }
}

fn wait_until(epoch: Instant, due_ns: u64) {
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let gap = due_ns - now;
        if gap > 500_000 {
            // Leave the last 200 µs to the yield loop so sleep overshoot
            // does not delay the release.
            std::thread::sleep(Duration::from_nanos(gap - 200_000));
        } else {
            std::thread::yield_now();
        }
    }
}

fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// What the enqueuer thread measured.
struct Released {
    lag_ns: Vec<u64>,
    /// Per message: when its enqueue returned (traced cells only).
    enqueued_ns: Vec<u64>,
    backlog_at_last_release: u64,
    log: StageLog,
}

/// What the qman thread measured.
struct Served {
    latency_ns: Vec<u64>,
    /// Per message: when its qman step began reading the envelope (traced
    /// cells only).
    received_ns: Vec<u64>,
    copies: Vec<u32>,
    misdelivered: u64,
    dead_lettered: u64,
    eagain: u64,
    last_delivery_ns: u64,
    log: StageLog,
}

/// One cell's measurements after its ledger closed.
struct CellRun {
    spec: CellSpec,
    setup_s: f64,
    latency_us: Vec<f64>,
    lag_us: Vec<f64>,
    /// Epoch to last delivery.
    wall_s: f64,
    /// Process CPU time from thread start to the ledger's close.
    cpu_s: f64,
    delivered: u64,
    eagain: u64,
    backlog_at_last_release: u64,
    queue_wait_us: Vec<f64>,
    spans: Vec<(MailStage, Duration)>,
    /// Deliver-stage durations in delivery order.
    deliver_us: Vec<f64>,
}

fn run_cell<K: SyscallApi + Sync + ?Sized>(
    server: &MailServer<'_, K>,
    client: Pid,
    qman: Pid,
    spec: CellSpec,
    schedule: &Schedule,
    traced: bool,
) -> Result<CellRun, String> {
    let n = schedule.due_ns.len();
    let cpu_started = process_cpu_s();
    let barrier = Barrier::new(2);
    let epoch_cell: OnceLock<Instant> = OnceLock::new();
    let delivered = AtomicU64::new(0);
    let released_all = AtomicBool::new(false);

    let (released, served) = std::thread::scope(|scope| {
        let enqueuer = scope.spawn(|| -> Result<Released, String> {
            let log = StageLog::new(traced);
            barrier.wait();
            let epoch = *epoch_cell.get_or_init(Instant::now);
            let mut out = Released {
                lag_ns: Vec::with_capacity(n),
                enqueued_ns: vec![0; if traced { n } else { 0 }],
                backlog_at_last_release: 0,
                log: StageLog::default(),
            };
            let mut failure = None;
            for i in 0..n {
                let due = schedule.due_ns[i];
                wait_until(epoch, due);
                out.lag_ns
                    .push((epoch.elapsed().as_nanos() as u64).saturating_sub(due));
                let body = schedule.body(i);
                if let Err(e) = server.enqueue_observed(
                    ENQUEUER_CORE,
                    client,
                    &schedule.mailboxes[i],
                    body.as_bytes(),
                    &log,
                ) {
                    failure = Some(format!("enqueue of message {i} failed: {e:?}"));
                    break;
                }
                if traced {
                    out.enqueued_ns[i] = epoch.elapsed().as_nanos() as u64;
                }
            }
            out.backlog_at_last_release =
                (out.lag_ns.len() as u64).saturating_sub(delivered.load(Ordering::Acquire));
            released_all.store(true, Ordering::Release);
            out.log = log;
            match failure {
                Some(e) => Err(e),
                None => Ok(out),
            }
        });
        let qman_thread = scope.spawn(|| -> Result<Served, String> {
            let log = StageLog::new(traced);
            barrier.wait();
            let epoch = *epoch_cell.get_or_init(Instant::now);
            let mut out = Served {
                latency_ns: Vec::with_capacity(n),
                received_ns: vec![0; if traced { n } else { 0 }],
                copies: vec![0; n],
                misdelivered: 0,
                dead_lettered: 0,
                eagain: 0,
                last_delivery_ns: 0,
                log: StageLog::default(),
            };
            let mut idle = Backoff::new(RetryPolicy::spin(), QMAN_CORE as u64);
            let mut last_progress = Instant::now();
            let mut count = 0usize;
            while count < n {
                match server.qman_step_for(QMAN_CORE, qman, 0, &log) {
                    Ok(d) => {
                        let now = epoch.elapsed().as_nanos() as u64;
                        count += 1;
                        delivered.store(count as u64, Ordering::Release);
                        idle.reset();
                        last_progress = Instant::now();
                        out.last_delivery_ns = now;
                        if d.mailbox == DEAD_LETTER {
                            out.dead_lettered += 1;
                            continue;
                        }
                        let index = std::str::from_utf8(&d.body)
                            .ok()
                            .and_then(|b| b.split(':').next())
                            .and_then(|i| i.parse::<usize>().ok())
                            .filter(|&i| i < n);
                        let Some(i) = index else {
                            out.misdelivered += 1;
                            continue;
                        };
                        if d.mailbox != schedule.mailboxes[i]
                            || d.body != schedule.body(i).as_bytes()
                        {
                            out.misdelivered += 1;
                            continue;
                        }
                        out.copies[i] += 1;
                        out.latency_ns.push(now.saturating_sub(schedule.due_ns[i]));
                        if traced {
                            let received = log.last_receive.get().unwrap_or(epoch);
                            out.received_ns[i] = ns_since(epoch, received);
                        }
                    }
                    Err(Errno::EAGAIN) => {
                        out.eagain += 1;
                        if released_all.load(Ordering::Acquire)
                            && last_progress.elapsed() > DRAIN_TIMEOUT
                        {
                            break;
                        }
                        idle.wait();
                    }
                    Err(e) => return Err(format!("qman step failed: {e:?}")),
                }
            }
            out.log = log;
            Ok(out)
        });
        let released = enqueuer
            .join()
            .map_err(|_| "the enqueuer thread panicked".to_string());
        let served = qman_thread
            .join()
            .map_err(|_| "the qman thread panicked".to_string());
        (released, served)
    });
    let released = released??;
    let served = served??;
    let cpu_s = process_cpu_s() - cpu_started;

    // The exactly-once ledger: every schedule entry delivered once, to its
    // own mailbox, with its own body.
    let lost = served.copies.iter().filter(|&&c| c == 0).count() as u64;
    let duplicated: u64 = served
        .copies
        .iter()
        .map(|&c| u64::from(c.saturating_sub(1)))
        .sum();
    if lost + duplicated + served.dead_lettered + served.misdelivered > 0 {
        return Err(format!(
            "cell {}: {lost} lost, {duplicated} duplicated, {} dead-lettered, {} misdelivered \
             of {n}",
            spec.name, served.dead_lettered, served.misdelivered
        ));
    }

    let mut spans: Vec<(MailStage, Duration)> = Vec::new();
    let mut deliver_us = Vec::new();
    for log in [&released.log, &served.log] {
        for &(stage, _, dur) in log.spans.borrow().iter() {
            spans.push((stage, dur));
            if stage == MailStage::Deliver {
                deliver_us.push(dur.as_nanos() as f64 / 1e3);
            }
        }
    }
    let queue_wait_us = if traced {
        released
            .enqueued_ns
            .iter()
            .zip(&served.received_ns)
            .map(|(&enq, &recv)| recv.saturating_sub(enq) as f64 / 1e3)
            .collect()
    } else {
        Vec::new()
    };
    Ok(CellRun {
        spec,
        setup_s: 0.0,
        latency_us: served
            .latency_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
        lag_us: released.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect(),
        wall_s: served.last_delivery_ns as f64 / 1e9,
        cpu_s,
        delivered: n as u64,
        eagain: served.eagain,
        backlog_at_last_release: released.backlog_at_last_release,
        queue_wait_us,
        spans,
        deliver_us,
    })
}

/// Everything a cell needs before its clock starts: a fresh kernel, its two
/// processes and its schedule.
struct Prepared {
    kernel: HostKernel,
    client: Pid,
    qman: Pid,
    schedule: Schedule,
    setup_s: f64,
}

fn prepare(spec: &CellSpec, seed: u64, stream: u64) -> Prepared {
    let started = Instant::now();
    let kernel = HostKernel::new(2, HostMode::Sv6);
    let client = kernel.new_process();
    let qman = kernel.new_process();
    let schedule = Schedule::generate(spec, seed, stream);
    Prepared {
        kernel,
        client,
        qman,
        schedule,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

fn server<K: SyscallApi + ?Sized>(kernel: &K) -> Result<MailServer<'_, K>, String> {
    MailServer::with_topology(
        kernel,
        MailConfig::CommutativeApis,
        MailTopology::single(),
        2,
    )
    .map_err(|e| format!("mail server: {e:?}"))
}

/// One untraced cell.
fn plain_cell(spec: CellSpec, seed: u64, stream: u64) -> Result<CellRun, String> {
    let p = prepare(&spec, seed, stream);
    let started = Instant::now();
    let server = server(&p.kernel)?;
    let setup_s = p.setup_s + started.elapsed().as_secs_f64();
    let mut run = run_cell(&server, p.client, p.qman, spec, &p.schedule, false)?;
    run.setup_s = setup_s;
    Ok(run)
}

/// Open-loop health: a generator that fell behind its schedule or a
/// sub-saturation cell whose backlog grew measures the scheduler, not the
/// program. Prints why a cell is flagged and returns whether it is.
fn health(run: &CellRun) -> Result<bool, String> {
    let lag_p99 = stats::quantile(&mut run.lag_us.clone(), 0.99)?;
    let mut flagged = false;
    if lag_p99 > GEN_LAG_LIMIT_US {
        println!(
            "FLAG cell {}: generator p99 release lateness {lag_p99:.0} us > {GEN_LAG_LIMIT_US} us",
            run.spec.name
        );
        flagged = true;
    }
    let backlog_share = run.backlog_at_last_release as f64 / run.delivered as f64;
    if backlog_share > BACKLOG_LIMIT {
        println!(
            "FLAG cell {}: {} of {} messages undelivered at the last release (growing backlog)",
            run.spec.name, run.backlog_at_last_release, run.delivered
        );
        flagged = true;
    }
    Ok(flagged)
}

/// Untraced rounds until `seconds` have passed (at least one): every round
/// runs each cell once on a fresh kernel with its own schedule.
struct Rounds {
    runs: Vec<CellRun>,
    flagged: u64,
    lag_us: Vec<f64>,
}

fn rounds(seed: u64, seconds: f64) -> Result<Rounds, String> {
    let started = Instant::now();
    let mut out = Rounds {
        runs: Vec::new(),
        flagged: 0,
        lag_us: Vec::new(),
    };
    let mut round = 0u64;
    while round == 0 || started.elapsed().as_secs_f64() < seconds {
        for (c, spec) in CELLS.iter().enumerate() {
            let run = plain_cell(*spec, seed, round * CELLS.len() as u64 + c as u64)?;
            if !spec.overload {
                out.flagged += u64::from(health(&run)?);
                out.lag_us.extend_from_slice(&run.lag_us);
            }
            out.runs.push(run);
        }
        round += 1;
    }
    println!("mail: {round} rounds of {} cells", CELLS.len());
    Ok(out)
}

impl Rounds {
    fn of(&self, name: &str) -> impl Iterator<Item = &CellRun> {
        let name = name.to_string();
        self.runs.iter().filter(move |r| r.spec.name == name)
    }

    /// The median over rounds of each round's `q`-quantile latency in
    /// cell `name`. A stall that delays one round's messages moves that
    /// round's quantile, not the median.
    fn latency(&self, name: &str, q: f64) -> Result<f64, String> {
        let per_round = self
            .of(name)
            .map(|r| stats::quantile(&mut r.latency_us.clone(), q))
            .collect::<Result<Vec<f64>, String>>()?;
        stats::median(&per_round)
    }

    fn overload_wall_s(&self) -> Result<f64, String> {
        stats::median(&self.of(OVERLOAD.name).map(|r| r.wall_s).collect::<Vec<_>>())
    }

    fn overload_cpu_s(&self) -> Result<f64, String> {
        stats::median(&self.of(OVERLOAD.name).map(|r| r.cpu_s).collect::<Vec<_>>())
    }

    fn messages(&self) -> u64 {
        self.runs.iter().map(|r| r.delivered).sum()
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    println!(
        "mail: open loop, 1 enqueuer x 1 qman, sv6 host kernel, commutative APIs, \
         {MAILBOXES} mailboxes, seed {}",
        args.seed
    );
    let mut m = Metrics::default();
    if args.trace {
        return traced(args, m);
    }
    let r = rounds(args.seed, args.seconds)?;
    let setups: Vec<f64> = r.runs.iter().map(|run| run.setup_s).collect();
    let overload_wall = r.overload_wall_s()?;
    let overload_cpu = r.overload_cpu_s()?;
    let p50 = r.latency(LIGHT.name, 0.5)?;
    let p90 = r.latency(LIGHT.name, 0.9)?;
    println!(
        "mail: median round: 10k p50 {p50:.1} us, p90 {p90:.1} us; 30k p50 {:.1} us, p90 \
         {:.1} us; overload {:.0} msg/s, {overload_cpu:.3} s CPU; {} flagged cells",
        r.latency(BUSY.name, 0.5)?,
        r.latency(BUSY.name, 0.9)?,
        OVERLOAD.messages as f64 / overload_wall,
        r.flagged
    );
    m.put("setup_s", stats::median(&setups)?, "s");
    m.put("run_s", overload_wall, "s");
    m.put("p50_us", p50, "us");
    m.put("tail_us", p90, "us");
    // The ledger gate already failed the run on any lost, duplicated or
    // dead-lettered message.
    m.put("ok_ratio", stats::ok_ratio(r.messages(), 0)?, "ratio");
    m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(Outcome {
        attempted: r.messages(),
        failed: 0,
        metrics: m,
    })
}

/// The traced run: untraced rounds for half the time (latency tails,
/// saturation throughput, generator health), then one traced round over an
/// `ObservedKernel` with stage spans.
fn traced(args: &Args, mut m: Metrics) -> Result<Outcome, String> {
    let r = rounds(args.seed, args.seconds / 2.0)?;
    let overload_s = r.overload_wall_s()?;
    m.put("mail.p99_us.10k", r.latency(LIGHT.name, 0.99)?, "us");
    m.put("mail.p50_us.30k", r.latency(BUSY.name, 0.5)?, "us");
    m.put("mail.p90_us.30k", r.latency(BUSY.name, 0.9)?, "us");
    m.put("mail.p99_us.30k", r.latency(BUSY.name, 0.99)?, "us");
    m.put(
        "mail.sat_msgs_per_s",
        OVERLOAD.messages as f64 / overload_s,
        "1/s",
    );
    m.put(
        "mail.gen_lag_us",
        stats::quantile(&mut r.lag_us.clone(), 0.99)?,
        "us",
    );
    m.count("mail.flagged_cells", r.flagged);

    let registry = MetricsRegistry::new(2);
    let recorder = SyscallRecorder::new(&registry);
    let mut traced_runs = Vec::new();
    for (c, spec) in CELLS.iter().enumerate() {
        let p = prepare(spec, args.seed, u64::MAX - c as u64);
        let observed = ObservedKernel::new(&p.kernel, recorder.clone());
        let server = server(&observed)?;
        let recv_before = recorder.count_of(SyscallKind::Recv);
        let run = run_cell(&server, p.client, p.qman, *spec, &p.schedule, true)?;
        stats::recv_closure(
            recorder.count_of(SyscallKind::Recv) - recv_before,
            run.delivered,
            run.eagain,
        )
        .map_err(|e| format!("cell {}: {e}", spec.name))?;
        traced_runs.push(run);
    }
    let delivered: u64 = traced_runs.iter().map(|r| r.delivered).sum();
    for stage in MailStage::ALL {
        let mut self_us: Vec<f64> = traced_runs
            .iter()
            .flat_map(|r| r.spans.iter())
            .filter(|(s, _)| *s == stage)
            .map(|(_, d)| d.as_nanos() as f64 / 1e3)
            .collect();
        m.put(
            &format!("mail.stage.{}_us", stage.name()),
            stats::quantile(&mut self_us, 0.5)?,
            "us",
        );
    }
    let light_run = &traced_runs[0];
    m.put(
        "mail.queue_wait_us",
        stats::quantile(&mut light_run.queue_wait_us.clone(), 0.5)?,
        "us",
    );
    m.put(
        "mail.eagain_per_msg",
        light_run.eagain as f64 / light_run.delivered as f64,
        "count/msg",
    );
    for kind in [
        SyscallKind::Open,
        SyscallKind::Write,
        SyscallKind::Close,
        SyscallKind::Pread,
        SyscallKind::Unlink,
        SyscallKind::Send,
        SyscallKind::Recv,
        SyscallKind::PosixSpawn,
        SyscallKind::Wait,
    ] {
        m.put(
            &format!("mail.sys.{}.per_msg", kind.name()),
            recorder.count_of(kind) as f64 / delivered as f64,
            "count/msg",
        );
        m.put(
            &format!("mail.sys.{}.p50_ns", kind.name()),
            recorder.latency(kind).p50(),
            "ns",
        );
    }
    let overload_run = &traced_runs[2];
    let tenth = overload_run.deliver_us.len() / 10;
    let first = stats::quantile(&mut overload_run.deliver_us[..tenth].to_vec(), 0.5)?;
    let last = stats::quantile(
        &mut overload_run.deliver_us[overload_run.deliver_us.len() - tenth..].to_vec(),
        0.5,
    )?;
    m.put("mail.deliver_growth", last / first, "ratio");
    m.put("trace.overhead_s", overload_run.wall_s - overload_s, "s");
    Ok(Outcome {
        attempted: r.messages() + delivered,
        failed: 0,
        metrics: m,
    })
}
