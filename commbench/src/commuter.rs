//! The two COMMUTER workloads.
//!
//! * `sweep-fs` times a cold `run_commuter_with_progress` over the quick fs
//!   call set: ANALYZER plus TESTGEN, the hot path to a Figure 6 verdict.
//! * `replay` builds the corpus of the fifteen calls `sweep-fs` leaves out
//!   in set-up, then times replaying every test on the simulated kernels
//!   and on the real-threads host kernel, with no solver work in the timed
//!   part.
//!
//! The solver cache is process-global, so every timed sweep starts from
//! `solver_cache_clear()`: each `posix_scan` user pays a cold cache, and a
//! warm second sweep would measure a program nobody runs. Both workloads
//! are deterministic by contract; the seed is recorded and has no effect.
//!
//! The traced run re-drives the same work through the public stage entry
//! points (`enumerate_shapes` → `analyze_pair` → `generate_tests` →
//! `run_test`, over `claim_in_order` with `pair_config`), timing every call
//! from the benchmark's side. It must reproduce the untraced corpus
//! fingerprint, and its layer times must close over the traced window.

use crate::stats::{self, WorkerTime};
use crate::{peak_rss_mb, process_cpu_s, Args, Metrics, Outcome, WORKERS};
use scr_core::{
    analyze_pair, claim_in_order, enumerate_shapes, generate_tests, run_commuter_with_progress,
    run_test, solver_cache_clear, solver_cache_stats, CommuterConfig, CommuterResults,
    ConcreteTest, Figure6Report, KernelFactory, LinuxLikeFactory, PairShape, SkipHistogram,
    SkipReason, SolverCacheStats, Sv6Factory, SweepEvent,
};
use scr_host::{classify_divergence, run_test_host, HostMode};
use scr_model::{pair_config, CallKind, ModelConfig};
use std::collections::{BTreeMap, HashMap};
use std::thread::ThreadId;
use std::time::Instant;

/// Cores each simulated and host kernel is built with, as `posix_scan` and
/// `host_fig6` configure them.
const CORES: usize = 4;
/// Real-thread schedules per host replay, as `host_fig6` runs them.
const SCHEDULES: usize = 2;
/// Share of `workers × wall` a traced window may leave unattributed.
const CLOSURE_TOLERANCE: f64 = 0.05;
/// Set-ups timed per `sweep-fs` run, and the pause before each; the
/// median is reported.
const SETUP_REPEATS: usize = 25;
const SETUP_SPACING: std::time::Duration = std::time::Duration::from_millis(20);
/// The tail percentile of the 45 per-pair verdict times: the highest that
/// leaves ten pairs beyond it.
const VERDICT_TAIL: f64 = 0.75;

/// The pairs whose solve time the traced `sweep-fs` run breaks out: `open`
/// appears in every one of the most expensive pairs, and `open ∥ open`
/// alone takes most of the solve time.
const HOT_PAIRS: [(CallKind, CallKind); 5] = [
    (CallKind::Open, CallKind::Open),
    (CallKind::Open, CallKind::Write),
    (CallKind::Open, CallKind::Lseek),
    (CallKind::Open, CallKind::Link),
    (CallKind::Open, CallKind::Rename),
];

/// What a cold sweep of a call set must produce.
struct Expected {
    fingerprint: u64,
    tests: usize,
    skipped: usize,
}

const SWEEP_FS: Expected = Expected {
    fingerprint: 0x1bd9_2fe5_7084_c195,
    tests: 2_865,
    skipped: 1_573,
};

const REPLAY: Expected = Expected {
    fingerprint: 0xbc03_d725_33a0_a5ce,
    tests: 3_520,
    skipped: 1_773,
};

/// The committed Figure 6 renderings of the `sweep-fs` corpus.
const SV6_REFERENCE: &str = include_str!("../reference/sweep-fs.sv6.txt");
const LINUX_REFERENCE: &str = include_str!("../reference/sweep-fs.linux.txt");

/// The fifteen calls the quick fs set does not cover: the pipe and
/// positional-I/O calls, the five vm calls and the six §4 calls.
fn replay_calls() -> Vec<CallKind> {
    vec![
        CallKind::Pipe,
        CallKind::Read,
        CallKind::Pread,
        CallKind::Pwrite,
        CallKind::Mmap,
        CallKind::Munmap,
        CallKind::Mprotect,
        CallKind::Memread,
        CallKind::Memwrite,
        CallKind::Socket,
        CallKind::Send,
        CallKind::Recv,
        CallKind::Fork,
        CallKind::PosixSpawn,
        CallKind::Wait,
    ]
}

fn quick_config(calls: &[CallKind]) -> CommuterConfig {
    let mut config = CommuterConfig::quick(calls);
    config.threads = WORKERS;
    config
}

fn unordered_pairs(calls: &[CallKind]) -> Vec<(CallKind, CallKind)> {
    let mut pairs = Vec::new();
    for (i, &a) in calls.iter().enumerate() {
        for &b in &calls[i..] {
            pairs.push((a, b));
        }
    }
    pairs
}

fn fingerprint(tests: &[ConcreteTest]) -> u64 {
    CommuterResults {
        tests: tests.to_vec(),
        ..Default::default()
    }
    .corpus_fingerprint()
}

fn check_corpus(
    what: &str,
    tests: &[ConcreteTest],
    skipped: usize,
    expected: &Expected,
) -> Result<(), String> {
    let fp = fingerprint(tests);
    if fp != expected.fingerprint || tests.len() != expected.tests || skipped != expected.skipped {
        return Err(format!(
            "{what}: corpus {fp:016x} ({} tests, {skipped} skipped), expected {:016x} \
             ({} tests, {} skipped)",
            tests.len(),
            expected.fingerprint,
            expected.tests,
            expected.skipped
        ));
    }
    Ok(())
}

fn check_fig6_references(
    what: &str,
    sv6: &Figure6Report,
    linux: &Figure6Report,
) -> Result<(), String> {
    for (report, reference) in [(sv6, SV6_REFERENCE), (linux, LINUX_REFERENCE)] {
        if report.render() != reference {
            return Err(format!(
                "{what}: the {} Figure 6 rendering differs from its committed reference:\n{}",
                report.kernel,
                report.render()
            ));
        }
    }
    Ok(())
}

fn report<'a>(results: &'a CommuterResults, kernel: &str) -> Result<&'a Figure6Report, String> {
    results
        .report_for(kernel)
        .ok_or_else(|| format!("no {kernel} report"))
}

/// Representatives attempted and those not built (skipped), as the success
/// ratio counts them. A replay-check failure aborts the run, so a reported
/// ratio only ever loses skipped representatives.
fn representatives_ok(tests: usize, skipped: usize) -> Result<f64, String> {
    stats::ok_ratio((tests + skipped) as u64, skipped as u64)
}

// --- sweep-fs ---------------------------------------------------------------

/// One cold sweep through the pipeline's public entry point. Returns the
/// results, the wall time to the verdict and, per pair, the time from the
/// sweep's start to that pair's verdict.
fn cold_sweep(
    config: &CommuterConfig,
    kernels: &[&dyn KernelFactory],
) -> (CommuterResults, f64, Vec<f64>) {
    solver_cache_clear();
    let mut verdict_s = Vec::new();
    let cpu_started = process_cpu_s();
    let started = Instant::now();
    let results = run_commuter_with_progress(config, kernels, |event| {
        if let SweepEvent::PairDone { .. } = event {
            verdict_s.push(secs(started));
        }
    });
    let wall_s = secs(started);
    println!(
        "sweep-fs: {:.2} s CPU over {wall_s:.2} s wall",
        process_cpu_s() - cpu_started
    );
    (results, wall_s, verdict_s)
}

fn check_sweep_fs(results: &CommuterResults) -> Result<(), String> {
    check_corpus("sweep-fs", &results.tests, results.skipped, &SWEEP_FS)?;
    check_fig6_references(
        "sweep-fs",
        report(results, "sv6")?,
        report(results, "Linux")?,
    )
}

pub fn sweep_fs(args: &Args) -> Result<Outcome, String> {
    let calls = CommuterConfig::quick_call_set();
    let sv6 = Sv6Factory { cores: CORES };
    let linux = LinuxLikeFactory { cores: CORES };
    let kernels: [&dyn KernelFactory; 2] = [&sv6, &linux];
    println!(
        "sweep-fs: {} calls, {} pairs, {WORKERS} workers, seed {} (no effect: the sweep is \
         deterministic)",
        calls.len(),
        unordered_pairs(&calls).len(),
        args.seed
    );

    let config = quick_config(&calls);
    // The set-up builds the configuration: well under a millisecond, and a
    // burst of repeats lands wholly in whatever state the CPU is in, which
    // differed by 2x between processes. Repeats 20 ms apart sample more
    // of the run; their median is reported.
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            std::thread::sleep(SETUP_SPACING);
            let started = Instant::now();
            std::hint::black_box(quick_config(&calls));
            secs(started)
        })
        .collect();
    let measure_started = Instant::now();
    let mut walls = Vec::new();
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut results = CommuterResults::default();
    let mut peak_rss = None;
    while walls.is_empty() || secs(measure_started) < args.seconds {
        let (sweep, wall_s, mut verdict_s) = cold_sweep(&config, &kernels);
        check_sweep_fs(&sweep)?;
        // The peak of one cold sweep, as a `posix_scan` user sees it: later
        // sweeps land on whatever the allocator kept from earlier ones.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        let p50 = stats::quantile(&mut verdict_s, 0.5)?;
        let tail = stats::quantile(&mut verdict_s, VERDICT_TAIL)?;
        println!(
            "sweep-fs: corpus {:016x}, {} tests, {} skipped, {wall_s:.2} s to a verdict; \
             {} pair verdicts, p50 at {p50:.2} s, p{} at {tail:.2} s",
            sweep.corpus_fingerprint(),
            sweep.tests.len(),
            sweep.skipped,
            verdict_s.len(),
            VERDICT_TAIL * 100.0
        );
        walls.push(wall_s);
        p50s.push(p50 * 1e6);
        tails.push(tail * 1e6);
        results = sweep;
    }
    let run_s = stats::median(&walls)?;

    let mut m = Metrics::default();
    if args.trace {
        let traced = Redrive::run(&config, &kernels)?;
        check_corpus("traced sweep-fs", &traced.tests, traced.skipped, &SWEEP_FS)?;
        check_fig6_references("traced sweep-fs", &traced.reports[0], &traced.reports[1])?;
        traced.put_symbolic(&mut m);
        traced.put_driver(&mut m);
        m.put("trace.overhead_s", traced.wall_s - run_s, "s");
        m.put("trace.closure_gap", traced.closure_gap, "ratio");
    } else {
        m.put("setup_s", stats::median(&setups)?, "s");
        m.put("run_s", run_s, "s");
        m.put("p50_us", stats::median(&p50s)?, "us");
        m.put("tail_us", stats::median(&tails)?, "us");
        m.put(
            "ok_ratio",
            representatives_ok(results.tests.len(), results.skipped)?,
            "ratio",
        );
        m.put("peak_rss_mb", peak_rss.expect("at least one sweep"), "MB");
    }
    Ok(Outcome {
        attempted: (walls.len() * results.tests.len()) as u64,
        failed: 0,
        metrics: m,
    })
}

// --- the traced re-drive ------------------------------------------------------

/// One (pair, shape) unit of the traced re-drive.
struct Unit {
    pair: usize,
    shape: PairShape,
    model: ModelConfig,
}

/// What one unit produced, with the benchmark-side span times around each
/// layer call.
struct UnitTrace {
    thread: ThreadId,
    unit_s: f64,
    analyzer_s: f64,
    testgen_s: f64,
    /// Per kernel, in factory order.
    driver_s: Vec<f64>,
    paths: usize,
    cases: usize,
    noncommutative_paths: usize,
    tests: Vec<ConcreteTest>,
    /// Per test, per kernel: conflict-free?
    verdicts: Vec<Vec<bool>>,
    skipped: usize,
    resolved: usize,
    skip_reasons: SkipHistogram,
}

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

fn trace_unit(unit: &Unit, config: &CommuterConfig, kernels: &[&dyn KernelFactory]) -> UnitTrace {
    let unit_started = Instant::now();
    let mut out = UnitTrace {
        thread: std::thread::current().id(),
        unit_s: 0.0,
        analyzer_s: 0.0,
        testgen_s: 0.0,
        driver_s: vec![0.0; kernels.len()],
        paths: 0,
        cases: 0,
        noncommutative_paths: 0,
        tests: Vec::new(),
        verdicts: Vec::new(),
        skipped: 0,
        resolved: 0,
        skip_reasons: SkipHistogram::new(),
    };
    let started = Instant::now();
    let analysis = analyze_pair(&unit.shape, &unit.model);
    out.analyzer_s = secs(started);
    out.paths = analysis.paths_explored;
    out.cases = analysis.cases.len();
    out.noncommutative_paths = analysis.non_commutative_paths;
    if !analysis.cases.is_empty() {
        let started = Instant::now();
        let generated = generate_tests(
            &unit.shape,
            &analysis.cases,
            &unit.model,
            &config.names,
            config.max_assignments_per_case,
        );
        out.testgen_s = secs(started);
        out.skipped = generated.skipped;
        out.resolved = generated.resolved;
        out.skip_reasons = generated.skip_reasons;
        for test in generated.tests {
            let verdicts = kernels
                .iter()
                .zip(out.driver_s.iter_mut())
                .map(|(factory, spent)| {
                    let started = Instant::now();
                    let conflict_free = run_test(*factory, &test).conflict_free;
                    *spent += secs(started);
                    conflict_free
                })
                .collect();
            out.verdicts.push(verdicts);
            out.tests.push(test);
        }
    }
    out.unit_s = secs(unit_started);
    out
}

/// The traced re-drive of a cold sweep and everything it measured.
pub struct Redrive {
    pub tests: Vec<ConcreteTest>,
    pub skipped: usize,
    resolved: usize,
    skip_reasons: SkipHistogram,
    /// Per kernel, in factory order.
    pub reports: Vec<Figure6Report>,
    shapes_units: usize,
    shapes_s: f64,
    analyzer_s: f64,
    paths: usize,
    cases: usize,
    noncommutative_paths: usize,
    testgen_s: f64,
    driver_s: Vec<f64>,
    busy_ratio: f64,
    max_unit_s: f64,
    pair_solve_s: BTreeMap<(CallKind, CallKind), f64>,
    /// Solver-cache activity of the re-drive alone (cleared before it).
    cache: SolverCacheStats,
    /// Shape enumeration plus the claimed window.
    pub wall_s: f64,
    pub closure_gap: f64,
}

impl Redrive {
    /// Re-drives a cold sweep of `config` over `kernels` with spans around
    /// every layer call, and checks that the spans close over the window.
    pub fn run(config: &CommuterConfig, kernels: &[&dyn KernelFactory]) -> Result<Redrive, String> {
        solver_cache_clear();
        let run_started = Instant::now();
        let pairs = unordered_pairs(&config.calls);
        let started = Instant::now();
        let mut units = Vec::new();
        for (pair, &(a, b)) in pairs.iter().enumerate() {
            let model = pair_config(&config.model, a, b);
            for shape in enumerate_shapes(a, b, &model) {
                units.push(Unit { pair, shape, model });
            }
        }
        let shapes_s = secs(started);

        let mut r = Redrive {
            tests: Vec::new(),
            skipped: 0,
            resolved: 0,
            skip_reasons: SkipHistogram::new(),
            reports: kernels
                .iter()
                .map(|k| Figure6Report::new(k.name()))
                .collect(),
            shapes_units: units.len(),
            shapes_s,
            analyzer_s: 0.0,
            paths: 0,
            cases: 0,
            noncommutative_paths: 0,
            testgen_s: 0.0,
            driver_s: vec![0.0; kernels.len()],
            busy_ratio: 0.0,
            max_unit_s: 0.0,
            pair_solve_s: BTreeMap::new(),
            cache: SolverCacheStats::default(),
            wall_s: 0.0,
            closure_gap: 0.0,
        };
        let mut per_thread: HashMap<ThreadId, WorkerTime> = HashMap::new();
        let window_started = Instant::now();
        claim_in_order(
            &units,
            WORKERS,
            |_, unit| trace_unit(unit, config, kernels),
            |idx, t| {
                let (a, b) = pairs[units[idx].pair];
                let worker = per_thread.entry(t.thread).or_default();
                worker.busy_s += t.unit_s;
                worker.layers_s += t.analyzer_s + t.testgen_s + t.driver_s.iter().sum::<f64>();
                r.max_unit_s = r.max_unit_s.max(t.unit_s);
                r.analyzer_s += t.analyzer_s;
                r.testgen_s += t.testgen_s;
                *r.pair_solve_s.entry((a, b)).or_default() += t.analyzer_s + t.testgen_s;
                for (total, spent) in r.driver_s.iter_mut().zip(&t.driver_s) {
                    *total += spent;
                }
                r.paths += t.paths;
                r.cases += t.cases;
                r.noncommutative_paths += t.noncommutative_paths;
                r.skipped += t.skipped;
                r.resolved += t.resolved;
                for (reason, count) in &t.skip_reasons {
                    *r.skip_reasons.entry(*reason).or_default() += count;
                }
                for report in r.reports.iter_mut() {
                    report.record_skips(a, b, &t.skip_reasons);
                }
                for (test, verdicts) in t.tests.into_iter().zip(t.verdicts) {
                    for (report, conflict_free) in r.reports.iter_mut().zip(verdicts) {
                        report.record(a, b, conflict_free);
                    }
                    r.tests.push(test);
                }
            },
        );
        let window_s = secs(window_started);
        r.wall_s = secs(run_started);
        r.cache = solver_cache_stats();
        if per_thread.len() > WORKERS {
            return Err(format!(
                "{} threads ran units on {WORKERS} workers",
                per_thread.len()
            ));
        }
        let mut workers: Vec<WorkerTime> = per_thread.into_values().collect();
        workers.resize(WORKERS, WorkerTime::default());
        r.busy_ratio = workers.iter().map(|w| w.busy_s).sum::<f64>() / (window_s * WORKERS as f64);
        r.closure_gap = stats::worker_closure(window_s, &workers, CLOSURE_TOLERANCE)
            .map_err(|e| format!("traced sweep closure: {e}"))?;
        println!(
            "traced sweep: {} units in {:.2} s, busy {:.1}%, {:.2}% unattributed",
            r.shapes_units,
            window_s,
            r.busy_ratio * 100.0,
            r.closure_gap * 100.0
        );
        Ok(r)
    }

    /// Shape, ANALYZER, TESTGEN and sweep-engine metrics.
    pub fn put_symbolic(&self, m: &mut Metrics) {
        m.count("shapes.units", self.shapes_units as u64);
        m.put("shapes.s", self.shapes_s, "s");
        m.put("analyzer.s", self.analyzer_s, "s");
        m.count("analyzer.paths", self.paths as u64);
        m.count("analyzer.cases", self.cases as u64);
        m.count(
            "analyzer.noncommutative_paths",
            self.noncommutative_paths as u64,
        );
        m.put("testgen.s", self.testgen_s, "s");
        m.count("testgen.tests", self.tests.len() as u64);
        m.count("testgen.resolved", self.resolved as u64);
        m.count("testgen.skipped", self.skipped as u64);
        for reason in SkipReason::ALL {
            let n = self.skip_reasons.get(&reason).copied().unwrap_or(0);
            m.count(&format!("testgen.skipped.{}", reason.name()), n as u64);
        }
        let representatives = self.tests.len() + self.skipped;
        m.put(
            "testgen.yield",
            ratio(self.tests.len() as f64, representatives as f64),
            "ratio",
        );
        let cache = self.cache;
        m.put(
            "testgen.solution_hit_ratio",
            ratio(
                cache.solution_hits as f64,
                (cache.solution_hits + cache.solution_misses) as f64,
            ),
            "ratio",
        );
        m.put(
            "testgen.completion_hit_ratio",
            ratio(
                cache.completion_hits as f64,
                (cache.completion_hits + cache.completion_misses) as f64,
            ),
            "ratio",
        );
        m.count("testgen.evictions", cache.evictions as u64);
        m.put("sweep.busy_ratio", self.busy_ratio, "ratio");
        m.put("sweep.max_unit_s", self.max_unit_s, "s");
        for (a, b) in HOT_PAIRS {
            let solve = self.pair_solve_s.get(&(a, b)).copied().unwrap_or(0.0);
            m.put(
                &format!("pair.{}-{}.solve_s", a.name(), b.name()),
                solve,
                "s",
            );
        }
    }

    /// MTRACE-driver metrics: time and conflict-free tests per kernel.
    pub fn put_driver(&self, m: &mut Metrics) {
        for (report, spent) in self.reports.iter().zip(&self.driver_s) {
            let key = report.kernel.to_lowercase();
            m.put(&format!("driver.{key}.s"), *spent, "s");
            m.count(
                &format!("driver.{key}.conflict_free"),
                report.total_conflict_free() as u64,
            );
        }
    }
}

/// `num / den`, 0 for an empty base (a layer the run never entered).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// --- replay -----------------------------------------------------------------

/// Time and verdicts of one replay pass over the corpus.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Wall time inside per-test spans.
    busy_s: f64,
    per_test_cpu_us: Vec<f64>,
    /// sim sv6, sim Linux, host sv6, host Linux.
    layer_s: [f64; 4],
    sim: [Figure6Report; 2],
    dropped: usize,
    explained: usize,
    unexplained: Vec<String>,
}

/// Replays every test on one driver thread: the simulated sv6 and Linux
/// kernels, then the host kernel in both modes on real threads.
fn replay_pass(tests: &[ConcreteTest], sv6: &Sv6Factory, linux: &LinuxLikeFactory) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        busy_s: 0.0,
        per_test_cpu_us: Vec::with_capacity(tests.len()),
        layer_s: [0.0; 4],
        sim: [Figure6Report::new("sv6"), Figure6Report::new("Linux")],
        dropped: 0,
        explained: 0,
        unexplained: Vec::new(),
    };
    let pass_started = Instant::now();
    let pass_cpu = process_cpu_s();
    for test in tests {
        let test_cpu = process_cpu_s();
        let test_started = Instant::now();
        let sim_sv6 = run_test(sv6, test);
        pass.layer_s[0] += secs(test_started);
        let started = Instant::now();
        let sim_linux = run_test(linux, test);
        pass.layer_s[1] += secs(started);
        let started = Instant::now();
        let host_sv6 = run_test_host(HostMode::Sv6, CORES, test, SCHEDULES);
        pass.layer_s[2] += secs(started);
        let started = Instant::now();
        let host_linux = run_test_host(HostMode::Linuxlike, CORES, test, SCHEDULES);
        pass.layer_s[3] += secs(started);
        pass.busy_s += secs(test_started);
        pass.per_test_cpu_us
            .push((process_cpu_s() - test_cpu) * 1e6);

        let (a, b) = test.calls;
        pass.sim[0].record(a, b, sim_sv6.conflict_free);
        pass.sim[1].record(a, b, sim_linux.conflict_free);
        pass.dropped += host_sv6.dropped + host_linux.dropped;
        if sim_sv6.conflict_free && !host_sv6.conflict_free {
            match classify_divergence(&host_sv6.shared_labels) {
                Some(_) => pass.explained += 1,
                None => pass.unexplained.push(format!(
                    "{}: {}",
                    test.id,
                    host_sv6.shared_labels.join(", ")
                )),
            }
        }
    }
    pass.wall_s = secs(pass_started);
    pass.cpu_s = process_cpu_s() - pass_cpu;
    pass
}

/// The replay gates: simulated verdicts equal set-up's reports, and host
/// sv6 is conflict-free wherever simulated sv6 is, except for divergences
/// `classify_divergence` explains.
fn check_pass(pass: &Pass, setup: [&Figure6Report; 2], calls: &[CallKind]) -> Result<(), String> {
    for (replayed, expected) in pass.sim.iter().zip(setup) {
        for (a, b) in unordered_pairs(calls) {
            if replayed.cell(a, b) != expected.cell(a, b) {
                return Err(format!(
                    "replayed {} verdicts for {} ∥ {} are {:?}, set-up reported {:?}",
                    expected.kernel,
                    a.name(),
                    b.name(),
                    replayed.cell(a, b),
                    expected.cell(a, b)
                ));
            }
        }
    }
    if !pass.unexplained.is_empty() {
        return Err(format!(
            "{} unexplained host sv6 divergences:\n{}",
            pass.unexplained.len(),
            pass.unexplained.join("\n")
        ));
    }
    Ok(())
}

pub fn replay(args: &Args) -> Result<Outcome, String> {
    let calls = replay_calls();
    let config = quick_config(&calls);
    let sv6 = Sv6Factory { cores: CORES };
    let linux = LinuxLikeFactory { cores: CORES };
    let kernels: [&dyn KernelFactory; 2] = [&sv6, &linux];
    println!(
        "replay: {} calls, {} pairs, seed {} (no effect: the corpus is deterministic)",
        calls.len(),
        unordered_pairs(&calls).len(),
        args.seed
    );

    let mut m = Metrics::default();
    if args.trace {
        let traced = Redrive::run(&config, &kernels)?;
        check_corpus(
            "traced replay set-up",
            &traced.tests,
            traced.skipped,
            &REPLAY,
        )?;
        let setup = [&traced.reports[0], &traced.reports[1]];
        let untraced = replay_pass(&traced.tests, &sv6, &linux);
        check_pass(&untraced, setup, &calls)?;
        let pass = replay_pass(&traced.tests, &sv6, &linux);
        check_pass(&pass, setup, &calls)?;
        let worker = WorkerTime {
            busy_s: pass.busy_s,
            layers_s: pass.layer_s.iter().sum(),
        };
        let gap = stats::worker_closure(pass.wall_s, &[worker], CLOSURE_TOLERANCE)
            .map_err(|e| format!("traced replay closure: {e}"))?;
        traced.put_symbolic(&mut m);
        m.put("driver.sv6.s", pass.layer_s[0], "s");
        m.put("driver.linux.s", pass.layer_s[1], "s");
        m.count(
            "driver.sv6.conflict_free",
            pass.sim[0].total_conflict_free() as u64,
        );
        m.count(
            "driver.linux.conflict_free",
            pass.sim[1].total_conflict_free() as u64,
        );
        m.put("host.sv6.s", pass.layer_s[2], "s");
        m.put("host.linux.s", pass.layer_s[3], "s");
        m.count("host.dropped", pass.dropped as u64);
        m.count("host.divergences.explained", pass.explained as u64);
        m.count(
            "host.divergences.unexplained",
            pass.unexplained.len() as u64,
        );
        m.put("trace.overhead_s", pass.cpu_s - untraced.cpu_s, "s");
        m.put("trace.closure_gap", gap, "ratio");
        return Ok(Outcome {
            attempted: 2 * traced.tests.len() as u64,
            failed: 0,
            metrics: m,
        });
    }

    let setup_started = Instant::now();
    solver_cache_clear();
    let results = run_commuter_with_progress(&config, &kernels, |_| {});
    let setup_s = secs(setup_started);
    check_corpus("replay set-up", &results.tests, results.skipped, &REPLAY)?;
    let setup = [report(&results, "sv6")?, report(&results, "Linux")?];
    println!(
        "replay: corpus {:016x}, {} tests, {} skipped, built in {setup_s:.2} s",
        results.corpus_fingerprint(),
        results.tests.len(),
        results.skipped
    );

    let measure_started = Instant::now();
    let mut cpu_s = Vec::new();
    let mut per_test_cpu_us = Vec::new();
    while cpu_s.is_empty() || secs(measure_started) < args.seconds {
        let pass = replay_pass(&results.tests, &sv6, &linux);
        check_pass(&pass, setup, &calls)?;
        println!(
            "replay pass {}: {:.2} s CPU, {:.2} s wall (sim sv6 {:.2}, sim Linux {:.2}, host \
             sv6 {:.2}, host Linux {:.2}), {} explained divergences",
            cpu_s.len() + 1,
            pass.cpu_s,
            pass.wall_s,
            pass.layer_s[0],
            pass.layer_s[1],
            pass.layer_s[2],
            pass.layer_s[3],
            pass.explained
        );
        cpu_s.push(pass.cpu_s);
        per_test_cpu_us.extend(pass.per_test_cpu_us);
    }
    // Replay reports CPU time, not wall time: every host replay starts and
    // joins two threads per schedule, and on a shared VM the wake-ups wait
    // on the hypervisor, which swung a pass's wall by up to 50% between
    // runs while its CPU time moved by under 10%.
    let n = per_test_cpu_us.len();
    let p50 = stats::quantile(&mut per_test_cpu_us, 0.5)?;
    let p90 = stats::quantile(&mut per_test_cpu_us, 0.9)?;
    println!("replay per-test CPU time: {n} samples, p50 {p50:.1} us, p90 {p90:.1} us");
    m.put("setup_s", setup_s, "s");
    m.put("run_s", stats::median(&cpu_s)?, "s");
    m.put("p50_us", p50, "us");
    m.put("tail_us", p90, "us");
    m.put(
        "ok_ratio",
        representatives_ok(results.tests.len(), results.skipped)?,
        "ratio",
    );
    m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(Outcome {
        attempted: (cpu_s.len() * results.tests.len()) as u64,
        failed: 0,
        metrics: m,
    })
}
