//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! commbench --workload <sweep-fs|replay|mail> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics untraced; with
//! `--trace 1` it re-drives the same work with benchmark-side spans around
//! every call into a layer and prints the per-layer metrics instead. Every
//! run checks its outputs first and exits non-zero, printing no result,
//! when a correctness gate or a closure check fails. The last line of
//! standard output is one JSON object. `README.md` beside this crate
//! describes the workloads and metrics.

mod commuter;
mod mail;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Every worker pool the benchmark starts has at most this many threads,
/// the hardware parallelism the numbers were calibrated on.
pub const WORKERS: usize = 2;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    /// Adds a count (exact in an f64 far beyond any count here).
    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }
}

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// workload reports 0 for a layer it bypasses.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    add("shapes.units", "count");
    add("shapes.s", "s");
    add("analyzer.s", "s");
    for name in ["paths", "cases", "noncommutative_paths"] {
        add(&format!("analyzer.{name}"), "count");
    }
    add("testgen.s", "s");
    for name in ["tests", "resolved", "skipped"] {
        add(&format!("testgen.{name}"), "count");
    }
    for reason in scr_core::SkipReason::ALL {
        add(&format!("testgen.skipped.{}", reason.name()), "count");
    }
    for name in ["yield", "solution_hit_ratio", "completion_hit_ratio"] {
        add(&format!("testgen.{name}"), "ratio");
    }
    add("testgen.evictions", "count");
    add("sweep.busy_ratio", "ratio");
    add("sweep.max_unit_s", "s");
    for pair in [
        "open-open",
        "open-write",
        "open-lseek",
        "open-link",
        "open-rename",
    ] {
        add(&format!("pair.{pair}.solve_s"), "s");
    }
    for kernel in ["sv6", "linux"] {
        add(&format!("driver.{kernel}.s"), "s");
        add(&format!("driver.{kernel}.conflict_free"), "count");
    }
    for kernel in ["sv6", "linux"] {
        add(&format!("host.{kernel}.s"), "s");
    }
    for name in [
        "dropped",
        "divergences.explained",
        "divergences.unexplained",
    ] {
        add(&format!("host.{name}"), "count");
    }
    for stage in scr_kernel::mail::MailStage::ALL {
        add(&format!("mail.stage.{}_us", stage.name()), "us");
    }
    add("mail.queue_wait_us", "us");
    add("mail.eagain_per_msg", "count/msg");
    for call in [
        "open",
        "write",
        "close",
        "pread",
        "unlink",
        "send",
        "recv",
        "posix_spawn",
        "wait",
    ] {
        add(&format!("mail.sys.{call}.per_msg"), "count/msg");
        add(&format!("mail.sys.{call}.p50_ns"), "ns");
    }
    add("mail.p99_us.10k", "us");
    for q in ["p50", "p90", "p99"] {
        add(&format!("mail.{q}_us.30k"), "us");
    }
    add("mail.sat_msgs_per_s", "1/s");
    add("mail.gen_lag_us", "us");
    add("mail.deliver_growth", "ratio");
    add("mail.flagged_cells", "count");
    add("trace.overhead_s", "s");
    add("trace.closure_gap", "ratio");
    out
}

/// Orders `metrics` by the catalog for the run's mode, filling a bypassed
/// layer's per-layer metrics with 0. Errs on a metric outside the catalog,
/// a unit that differs from it, or a missing end-to-end metric.
fn complete(metrics: Metrics, trace: bool) -> Result<Metrics, String> {
    let catalog: Vec<(String, &'static str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut seen = std::collections::BTreeSet::new();
    for (name, _, unit) in &metrics.entries {
        if !seen.insert(name) {
            return Err(format!("metric {name} reported twice"));
        }
        match catalog.iter().find(|(n, _)| n == name) {
            None => return Err(format!("metric {name} is not in the catalog")),
            Some((_, u)) if u != unit => {
                return Err(format!("metric {name} in {unit}, catalog says {u}"))
            }
            Some(_) => {}
        }
    }
    let mut out = Metrics::default();
    for (name, unit) in catalog {
        let value = match metrics.entries.iter().find(|(n, _, _)| *n == name) {
            Some((_, value, _)) => *value,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        out.put(&name, value, unit);
    }
    Ok(out)
}

/// What a workload hands back: its metrics and the items it checked.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn to_json(outcome: &Outcome) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.entries.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest representation that round-trips, so
        // every digit measured survives.
        write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    out.push_str("}}");
    Ok(out)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

// `process_cpu_s` spells out 64-bit Linux's `timespec` and clock id.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("commbench reads the process CPU clock of 64-bit Linux");

/// CPU time this process has used so far, in seconds, over all its threads
/// (exited ones included): Linux's `CLOCK_PROCESS_CPUTIME_ID`.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields on
    // 64-bit Linux) through a pointer to a live local, and the clock id is
    // the constant Linux defines for the process CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sweep-fs" => commuter::sweep_fs(args),
        "replay" => commuter::replay(args),
        "mail" => mail::run(args),
        other => Err(format!(
            "unknown workload {other} (expected sweep-fs, replay or mail)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let outcome = run(&args)?;
        to_json(&Outcome {
            metrics: complete(outcome.metrics, args.trace)?,
            ..outcome
        })
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("commbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&argv("--workload mail --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args.workload, "mail");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert!(parse_args(&argv("--workload mail --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload mail --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload mail --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload mail --seed 1 --seconds 1 --trace 2")).is_err());
    }

    /// The names and units in `BENCHMARK.json`, in file order, for one
    /// metric list ("end_to_end" or "per_layer").
    fn declared(list: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{list}\"")).expect("list declared");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).expect("key present");
            let rest = &entry[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let per_layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), end_to_end);
    }

    #[test]
    fn complete_fills_bypassed_layers_and_refuses_strays() {
        let mut m = Metrics::default();
        m.put("mail.gen_lag_us", 12.5, "us");
        let full = complete(m, true).unwrap();
        assert_eq!(full.entries.len(), per_layer().len());
        let lag = full
            .entries
            .iter()
            .find(|e| e.0 == "mail.gen_lag_us")
            .unwrap();
        assert_eq!(lag.1, 12.5);
        assert!(full
            .entries
            .iter()
            .all(|e| e.0 == "mail.gen_lag_us" || e.1 == 0.0));

        let mut twice = Metrics::default();
        twice.put("run_s", 1.0, "s");
        twice.put("run_s", 2.0, "s");
        assert!(complete(twice, false).is_err());
        let mut stray = Metrics::default();
        stray.put("nope", 1.0, "s");
        assert!(complete(stray, true).is_err());
        let mut wrong_unit = Metrics::default();
        wrong_unit.put("run_s", 1.0, "ms");
        assert!(complete(wrong_unit, false).is_err());
        let mut partial = Metrics::default();
        partial.put("run_s", 1.0, "s");
        assert!(complete(partial, false).is_err());
    }

    #[test]
    fn json_line_keeps_every_digit_and_refuses_non_finite_values() {
        let mut metrics = Metrics::default();
        metrics.put("run_s", 26.123456789012, "s");
        metrics.count("testgen.tests", 2865);
        let line = to_json(&Outcome {
            attempted: 3,
            failed: 0,
            metrics,
        })
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"run_s\": {\"value\": 26.123456789012, \"unit\": \"s\"}, \
             \"testgen.tests\": {\"value\": 2865.0, \"unit\": \"count\"}}}"
        );
        let mut nan = Metrics::default();
        nan.put("a", f64::NAN, "s");
        assert!(to_json(&Outcome {
            attempted: 1,
            failed: 0,
            metrics: nan
        })
        .is_err());
    }
}
