//! The repository benchmark: drives the Poseidon serving stack from
//! outside, as a deployer would, and reports end-to-end metrics (default
//! build) or a per-layer split (build with the `telemetry` feature).
//!
//! `perfbench/README.md` defines every workload and metric.

pub mod spans;
pub mod stats;
pub mod workloads;

#[cfg(feature = "telemetry")]
pub mod layers;

use std::fmt::Write as _;
use std::time::Instant;

use workloads::{Check, Fixture, Tally, Workload};

/// Seed used when none is given; its reply digests are pinned in
/// `expected_digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_231;

/// Re-registrations of tenant `t0` before the check and again after the
/// timed phase, each timed as one `registration_p50_ms` sample; two
/// groups far apart in time, so one burst of contention from other work
/// on the host cannot cover them all. Set-up registrations are left out:
/// they run in fresh processes, are part of `setup_s`, and give a
/// single-tenant workload too few samples for a steady median.
const REREGISTRATIONS: usize = 4;

/// Pinned reply digests, one `workload seed digest` line each.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// Names of the end-to-end metrics, in report order.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "throughput_per_s",
    "cpu_ms_per_unit",
    "latency_p50_ms",
    "latency_p90_ms",
    "registration_p50_ms",
    "success_ratio",
    "precision_bits",
    "wire_bytes_per_unit",
    "peak_rss_mb",
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A set-up measured in a separate process (see `--setup-only`).
#[derive(Debug, Clone, Default)]
pub struct SetupSample {
    /// Process start to last registration ack, s.
    pub setup_s: f64,
}

impl SetupSample {
    /// The one-line form a `--setup-only` process prints.
    pub fn to_line(&self) -> String {
        format!("perfbench-setup {}", self.setup_s)
    }

    /// Parses [`SetupSample::to_line`] output.
    pub fn parse(line: &str) -> Option<Self> {
        let setup_s = line.strip_prefix("perfbench-setup ")?.trim().parse().ok()?;
        Some(Self { setup_s })
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, s.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Untraced `throughput_per_s` of the same workload and seed, for
    /// `trace_overhead_ratio`.
    pub untraced_throughput: Option<f64>,
    /// Where the traced run writes its spans.
    pub spans_out: Option<std::path::PathBuf>,
    /// Source revision recorded with the run.
    pub commit: String,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed and no unit failed.
    pub correct: bool,
    /// Units sent, check units included.
    pub attempted: u64,
    /// Units that failed, were refused or came back wrong.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// The run record, one JSON object.
    pub record: String,
}

impl Outcome {
    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The digest pinned for `(workload, seed)`, if any.
pub fn expected_digest(workload: Workload, seed: u64) -> Option<u64> {
    EXPECTED_DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
            .flatten()
    })
}

/// Peak resident memory of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system, all threads) this process has used, ms.
/// `/proc` reports it in `USER_HZ` = 100 ticks per second.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks as f64 * 10.0)
        })
        .unwrap_or(0.0)
}

/// Runs set-up only and returns its sample (the `--setup-only` path).
pub fn setup_only(workload: Workload, seed: u64, process_start: Instant) -> SetupSample {
    let fx = workloads::setup(workload, seed, process_start);
    SetupSample {
        setup_s: fx.setup_s,
    }
}

/// Runs one workload: set-up, the output check, then the timed phase
/// (and, when `opts.trace`, the per-layer replay, which needs the
/// `telemetry` feature). `other_setups` are
/// set-ups measured in separate processes; `setup_s` is the median over
/// them and this process's own.
pub fn run(opts: &Options, process_start: Instant, other_setups: &[SetupSample]) -> Outcome {
    let mut fx = workloads::setup(opts.workload, opts.seed, process_start);
    workloads::reregister(&mut fx, REREGISTRATIONS);
    let check = workloads::check(&fx);
    let expected = expected_digest(opts.workload, opts.seed);
    let digest_ok = expected.is_none_or(|d| d == check.digest);
    if !digest_ok {
        eprintln!(
            "perfbench: reply digest {:#018x} differs from the pinned {:#018x}",
            check.digest,
            expected.unwrap_or(0)
        );
    }

    let (metrics, tally) = if opts.trace {
        #[cfg(feature = "telemetry")]
        {
            layers::traced(opts, &fx, &check)
        }
        #[cfg(not(feature = "telemetry"))]
        unreachable!("the caller checks that a traced run has the `telemetry` feature")
    } else {
        let cpu0 = process_cpu_ms();
        let (tally, _) = workloads::drive(&fx, &check, opts.seconds, false);
        let cpu_ms = process_cpu_ms() - cpu0;
        workloads::reregister(&mut fx, REREGISTRATIONS);
        let metrics = end_to_end(&fx, &check, &tally, cpu_ms, other_setups, digest_ok);
        (metrics, tally)
    };

    let (attempted, failed) = counts(&check, &tally, digest_ok);
    let record = run_record(opts, &fx, &check, &tally, expected, attempted, failed);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        record,
    }
}

/// Units attempted and failed: check and timed phase, plus one failure
/// for a reply digest that differs from its pinned value.
fn counts(check: &Check, tally: &Tally, digest_ok: bool) -> (u64, u64) {
    (
        check.attempted + tally.attempted,
        check.failed + tally.failed + u64::from(!digest_ok),
    )
}

fn end_to_end(
    fx: &Fixture,
    check: &Check,
    tally: &Tally,
    cpu_ms: f64,
    other: &[SetupSample],
    digest_ok: bool,
) -> Vec<Metric> {
    let (attempted, failed) = counts(check, tally, digest_ok);
    let mut setups: Vec<f64> = other.iter().map(|s| s.setup_s).collect();
    setups.push(fx.setup_s);
    let completed = tally.completed().max(1) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", stats::median(&setups).unwrap_or(0.0), "s"),
        m("throughput_per_s", tally.throughput_per_s(), "1/s"),
        m("cpu_ms_per_unit", cpu_ms / completed, "ms"),
        m("latency_p50_ms", tally.latency_ms(50.0), "ms"),
        m("latency_p90_ms", tally.latency_ms(90.0), "ms"),
        m(
            "registration_p50_ms",
            stats::median(&fx.registrations_ms).unwrap_or(0.0),
            "ms",
        ),
        m(
            "success_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        m("precision_bits", check.precision_bits(), "bits"),
        m(
            "wire_bytes_per_unit",
            tally.wire_bytes as f64 / completed,
            "bytes",
        ),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn run_record(
    opts: &Options,
    fx: &Fixture,
    check: &Check,
    tally: &Tally,
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features = if cfg!(feature = "telemetry") {
        "[\"telemetry\"]"
    } else {
        "[]"
    };
    let samples = tally.latencies.len();
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"threads\": {}, \"ntt_kernel\": \"{}\"}}, \
         \"workload\": \"{}\", \"unit\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"service_config\": \"{:?}\", \"features\": {features}, \"commit\": \"{}\", \
         \"reply_digest\": \"{:#018x}\", \"expected_digest\": {}, \
         \"units_completed\": {}, \"latency_samples\": {samples}, \
         \"latency_blocks\": {}, \"p90_supported\": {}, \"registration_samples\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"failed_ratio\": {}}}",
        poseidon_par::threads(),
        he_ntt::kernel::KernelKind::default_kind(),
        opts.workload.name(),
        opts.workload.unit(),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.workload.config(),
        opts.commit.replace(['"', '\\'], ""),
        check.digest,
        expected.map_or_else(|| "null".to_string(), |d| format!("\"{d:#018x}\"")),
        tally.completed(),
        stats::BLOCKS,
        stats::supports(samples / stats::BLOCKS, 90.0),
        fx.registrations_ms.len(),
        failed as f64 / attempted.max(1) as f64,
    )
}
