//! `wirebench`: the end-to-end benchmark of `systolicd`.
//!
//! ```text
//! wirebench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Run from the repository root. It builds the release `systolicd`,
//! generates the workload's request lines and their expected answers from
//! the seed, and then:
//!
//! * with `--trace 0`, repeats rounds of idle starts (set-up time),
//!   saturating batches (fresh daemons, each fed the same batch as fast as
//!   the pipe accepts) and an open-loop paced stream (a fresh daemon, lines
//!   sent at the workload's mean rate) until `--seconds` have passed, and
//!   reports each end-to-end metric as its median over the run;
//! * with `--trace 1`, repeats the paced phase for its wire-side layer
//!   metrics, then serves the batch in-process with and without spans and
//!   times the calls beneath in a second pass, and reports the per-layer
//!   ledger.
//!
//! Every response is checked against the oracle. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is 0 when every response was right, 1 when one was not, and
//! 2 when the benchmark could not run at all (no result line then).

mod binary;
mod driver;
mod ledger;
mod util;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use systolic_service::Json;

use crate::driver::{drive, setup_seconds, Daemon, Pace, Run};
use crate::ledger::{children, serve, Layer, Off, Spans, CHILDREN};
use crate::util::{median, ms, percentile, CpuTicks};
use crate::workload::{Inputs, Spec, Stream};

/// Seconds one paced stream lasts, at least.
const PACED_SECONDS: f64 = 2.0;
/// Fewest lines in one paced stream, so that each round's p99 has more
/// than ten samples beyond it.
const MIN_PACED_LINES: f64 = 1100.0;
/// Share of `--seconds` spent serving in-process (`--trace 1`).
const IN_PROCESS_SHARE: f64 = 0.5;
/// Fewest rounds per run.
const MIN_ROUNDS: usize = 3;
/// Saturating batches per round.
const BATCHES_PER_ROUND: usize = 8;
/// Idle daemon starts timed per round.
const SETUP_PER_ROUND: usize = 5;
/// `--tiny` scales every stream by this factor.
const TINY: f64 = 0.1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

const USAGE: &str = "usage: wirebench --workload hot_mix|cold_verify|edit_resume --seed N --seconds S --trace 0|1 [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = iter.next().ok_or(USAGE)?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(USAGE.to_owned()),
        }
    }
    if args.workload.is_empty() {
        return Err(USAGE.to_owned());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Lines sent, lines answered wrongly, and the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Faults not tied to one line (exit status, extra output).
    faults: Vec<String>,
    examples: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, stream: &Stream, responses: &[String], verify: bool) {
        self.attempted += stream.len() as u64;
        for i in 0..stream.len() {
            let verdict = match responses.get(i) {
                None => Err("no response".to_owned()),
                Some(response) => stream.check(i, response, verify),
            };
            if let Err(reason) = verdict {
                self.failed += 1;
                if self.examples.len() < 5 {
                    self.examples
                        .push(format!("{what} line {}: {reason}", i + 1));
                }
            }
        }
        if responses.len() > stream.len() {
            self.faults.push(format!(
                "{what}: {} responses to {} lines",
                responses.len(),
                stream.len()
            ));
        }
    }

    fn check_run(&mut self, what: &str, stream: &Stream, run: &Run, verify: bool) {
        self.check(what, stream, &run.responses, verify);
        if !run.status.success() {
            self.faults
                .push(format!("{what}: daemon exited with {}", run.status));
        }
        if let Some(error) = &run.write_error {
            self.faults
                .push(format!("{what}: writing requests failed: {error}"));
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("wirebench: {error}");
            ExitCode::from(2)
        }
    }
}

/// Where build outputs go: `$CARGO_TARGET_DIR` (relative to the root) or
/// `target`.
fn target_dir(root: &Path) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |dir| root.join(dir))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = workload::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !root.join("crates/service/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/service is missing)".to_owned());
    }
    let binary = binary::build(&root)?;
    let out_dir = target_dir(&root).join("wirebench");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let scale = if args.tiny { TINY } else { 1.0 };
    let batch_lines = ((spec.batch_lines as f64) * scale).ceil() as usize;
    let paced_lines =
        ((spec.paced_rps * PACED_SECONDS).max(MIN_PACED_LINES) * scale).ceil() as usize;
    let prep = Instant::now();
    let inputs = workload::generate(spec, args.seed, batch_lines, paced_lines, &out_dir)?;
    let prep_s = prep.elapsed().as_secs_f64();

    let mut flags: Vec<String> = spec.flags.iter().map(|f| (*f).to_owned()).collect();
    flags.push("--summary-json".to_owned());
    if let Some(snapshot) = &inputs.snapshot {
        flags.push("--snapshot-load".to_owned());
        flags.push(snapshot.path.to_string_lossy().into_owned());
    }
    let daemon = Daemon {
        exe: &binary.exe,
        args: flags.clone(),
        await_snapshot: spec.snapshot,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = Json::Obj(vec![
        ("workload".to_owned(), Json::Str(spec.name.to_owned())),
        ("seed".to_owned(), Json::Str(args.seed.to_string())),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("trace".to_owned(), Json::Bool(args.trace)),
        ("tiny".to_owned(), Json::Bool(args.tiny)),
        ("nproc".to_owned(), Json::Num(nproc as f64)),
        (
            "commit".to_owned(),
            binary.commit.clone().map_or(Json::Null, Json::Str),
        ),
        (
            "source_hash".to_owned(),
            Json::Str(format!("{:016x}", binary.source_hash)),
        ),
        ("opt_level".to_owned(), Json::Str(binary.opt_level.clone())),
        (
            "daemon_flags".to_owned(),
            Json::Arr(flags.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        (
            "input_hash".to_owned(),
            Json::Str(format!("{:016x}", inputs.input_hash)),
        ),
        (
            "batch_lines".to_owned(),
            Json::Num(inputs.batch.len() as f64),
        ),
        (
            "paced_lines".to_owned(),
            Json::Num(inputs.paced.len() as f64),
        ),
        ("paced_rps".to_owned(), Json::Num(spec.paced_rps)),
        ("prep_seconds".to_owned(), Json::Num(prep_s)),
    ]);
    println!("{}", Json::Obj(vec![("provenance".to_owned(), provenance)]));

    let mut tally = Tally::default();
    let ticks_before = CpuTicks::now();
    let metrics = if args.trace {
        traced(
            spec,
            &inputs,
            &daemon,
            args.seconds,
            &mut tally,
            &out_dir,
            args.seed,
        )?
    } else {
        end_to_end(spec, &inputs, &daemon, args.seconds, &mut tally, args.seed)?
    };
    if let (Some(before), Some(after)) = (ticks_before, CpuTicks::now()) {
        // Other tenants of the host slow every timing down; a run with
        // much steal is worth repeating before it is compared.
        println!(
            "host: the hypervisor stole {:.1}% of all CPU time during the run, {:.1}% of the running time of the work",
            100.0 * before.steal_of_total(&after),
            100.0 * before.work_steal_share(&after)
        );
    }
    for example in tally.examples.iter().chain(&tally.faults) {
        eprintln!("wirebench: wrong: {example}");
    }
    println!(
        "{}: error_rate {} ({} of {} lines wrong)",
        spec.name,
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );

    let mut members = Vec::new();
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a number ({})", m.name, m.value));
        }
        members.push((
            m.name.to_owned(),
            Json::Obj(vec![
                ("value".to_owned(), Json::Num(m.value)),
                ("unit".to_owned(), Json::Str(m.unit.to_owned())),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(tally.correct())),
        ("attempted".to_owned(), Json::Num(tally.attempted as f64)),
        ("failed".to_owned(), Json::Num(tally.failed as f64)),
        ("metrics".to_owned(), Json::Obj(members)),
    ]);
    println!("{result}");
    Ok(tally.correct())
}

/// Client-visible latencies of a paced run (due time to response read),
/// sorted, in ms.
fn latencies_ms(run: &Run) -> Vec<f64> {
    let mut latencies: Vec<f64> = run
        .read_at
        .iter()
        .zip(&run.due)
        .map(|(&read, &due)| ms(read.saturating_duration_since(due)))
        .collect();
    latencies.sort_by(f64::total_cmp);
    latencies
}

fn end_to_end(
    spec: &Spec,
    inputs: &Inputs,
    daemon: &Daemon,
    seconds: f64,
    tally: &mut Tally,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    // One discarded start warms the page cache for the binary.
    setup_seconds(daemon)?;
    // Rounds repeat until the run's time is up, so every metric samples
    // the whole run and a slow spell of the host moves one round, not the
    // result: each metric is the median over the run.
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut wall_rates = Vec::new();
    let mut steals = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut rss = Vec::new();
    let mut samples = 0;
    let mut lag_p99 = Vec::new();
    let started = Instant::now();
    let mut round = Duration::ZERO;
    // A round starts while it would end less than half a round past the
    // run's time, so a run lasts about `seconds` however long its rounds.
    while p50s.len() < MIN_ROUNDS || (started.elapsed() + round / 2).as_secs_f64() < seconds {
        let round_started = Instant::now();
        for _ in 0..SETUP_PER_ROUND {
            setups.push(setup_seconds(daemon)?);
        }
        for _ in 0..BATCHES_PER_ROUND {
            let before = CpuTicks::now();
            let batch = drive(daemon, &inputs.batch, Pace::Saturate)?;
            let stolen = before
                .zip(CpuTicks::now())
                .map_or(0.0, |(before, after)| before.work_steal_share(&after));
            tally.check_run("batch", &inputs.batch, &batch, spec.verify);
            let rate = batch.throughput().unwrap_or(0.0);
            wall_rates.push(rate);
            steals.push(stolen);
            // Other tenants of a shared host take a share of the time the
            // batch's threads wanted to run, and the batch ran for the
            // rest: its rate over that time is the daemon's, not the
            // host's. On a host without steal it is the wall-clock rate.
            rates.push(rate / (1.0 - stolen));
        }

        let paced = drive(daemon, &inputs.paced, paced_pace(spec, seed, p50s.len()))?;
        tally.check_run("paced", &inputs.paced, &paced, spec.verify);
        let latencies = latencies_ms(&paced);
        if latencies.is_empty() {
            return Err("a paced round got no responses".to_owned());
        }
        samples += latencies.len();
        p50s.push(percentile(&latencies, 50.0));
        p99s.push(percentile(&latencies, 99.0));
        rss.push(
            paced
                .vm_hwm_kib
                .ok_or("no VmHWM sample of a paced daemon")? as f64
                / 1024.0,
        );
        lag_p99.push(pacer_lag_p99_ms(&paced));
        round = round_started.elapsed();
    }
    let metrics = vec![
        metric("throughput_rps", median(&rates), "1/s"),
        metric("latency_p50_ms", median(&p50s), "ms"),
        metric("latency_p99_ms", median(&p99s), "ms"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mib", median(&rss), "MiB"),
    ];
    println!(
        "{} end to end: {} rounds, each {} idle starts, {} saturating batches of {} lines and {} paced lines at {} req/s",
        spec.name,
        p50s.len(),
        SETUP_PER_ROUND,
        BATCHES_PER_ROUND,
        inputs.batch.len(),
        inputs.paced.len(),
        spec.paced_rps
    );
    for m in &metrics {
        println!("  {:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<16} {:>14.4} (wrong / sent, both phases)",
        "error_rate",
        tally.error_rate()
    );
    println!(
        "  median over the run; {samples} latency samples in all; pacer lag p99 {:.3} ms",
        median(&lag_p99)
    );
    println!(
        "  throughput on the wall clock {:.4} 1/s, with {:.1}% of the batches' running time stolen (medians of batches)",
        median(&wall_rates),
        100.0 * median(&steals)
    );
    Ok(metrics)
}

/// The arrivals of a run's `round`-th paced stream: the workload's rate,
/// with jittered gaps drawn from the run's seed and the round, so that the
/// rounds of a run sample different arrival patterns.
fn paced_pace(spec: &Spec, seed: u64, round: usize) -> Pace {
    Pace::Jittered {
        rate: spec.paced_rps,
        seed: seed ^ 0x9ace ^ ((round as u64) << 32),
    }
}

fn pacer_lag_p99_ms(run: &Run) -> f64 {
    let mut lags: Vec<f64> = run.pacer_lag.iter().map(|&d| ms(d)).collect();
    lags.sort_by(f64::total_cmp);
    if lags.is_empty() {
        0.0
    } else {
        percentile(&lags, 99.0)
    }
}

/// A member of the daemon's `--summary-json` object.
fn summary_value(run: &Run, key: &str) -> Result<f64, String> {
    let summary = run
        .summary
        .as_deref()
        .ok_or("the daemon printed no summary")?;
    let json = Json::parse(summary).map_err(|e| format!("unparsable summary: {e}"))?;
    match json.get(key) {
        Some(Json::Num(v)) => Ok(*v),
        _ => Err(format!("the summary has no {key}")),
    }
}

/// Checks in-process output against the oracle.
fn check_output(tally: &mut Tally, what: &str, stream: &Stream, output: &[u8], verify: bool) {
    let text = String::from_utf8_lossy(output);
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    tally.check(what, stream, &lines, verify);
}

#[allow(clippy::too_many_lines)]
fn traced(
    spec: &Spec,
    inputs: &Inputs,
    daemon: &Daemon,
    seconds: f64,
    tally: &mut Tally,
    out_dir: &Path,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    // The wire side: the paced phase again, for the layer metrics only a
    // real daemon shows.
    let paced = drive(daemon, &inputs.paced, paced_pace(spec, seed, 0))?;
    tally.check_run("paced", &inputs.paced, &paced, spec.verify);
    let lags: Vec<f64> = paced
        .written_at_read
        .iter()
        .enumerate()
        .map(|(i, &written)| written.saturating_sub(i + 1) as f64)
        .collect();
    if lags.is_empty() {
        return Err("the paced phase got no responses".to_owned());
    }

    // The in-process side: untraced and traced rounds over the batch.
    let snapshot = inputs.snapshot.as_ref().map(|s| s.path.as_path());
    let budget = Duration::from_secs_f64(seconds * IN_PROCESS_SHARE);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut rounds: Vec<(Duration, Spans)> = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        // Alternate which of the pair runs first, so neither side always
        // pays for a cold allocator or cache.
        let traced_first = rounds.len() % 2 == 1;
        for traced in [traced_first, !traced_first] {
            if traced {
                let mut spans = Spans::new(inputs.batch.len() * 8);
                let served = serve(&mut spans, &inputs.batch.bytes, spec.verify, snapshot)?;
                check_output(
                    tally,
                    "traced round",
                    &inputs.batch,
                    &served.output,
                    spec.verify,
                );
                rounds.push((served.wall, spans));
            } else {
                let plain = serve(&mut Off, &inputs.batch.bytes, spec.verify, snapshot)?;
                check_output(
                    tally,
                    "untraced round",
                    &inputs.batch,
                    &plain.output,
                    spec.verify,
                );
                untraced.push(ms(plain.wall));
            }
        }
    }
    let cached = inputs
        .snapshot
        .as_ref()
        .map(|s| s.fingerprints.clone())
        .unwrap_or_default();
    let (child_spans, counts) = children(&inputs.batch.bytes, spec.verify, &cached, &inputs.bases)?;

    let trace_path = out_dir.join(format!("trace-{}-{seed}.jsonl", spec.name));
    let mut trace = std::io::BufWriter::new(
        std::fs::File::create(&trace_path)
            .map_err(|e| format!("cannot create {}: {e}", trace_path.display()))?,
    );
    for (round, (_, spans)) in rounds.iter().enumerate() {
        spans
            .write_jsonl(&mut trace, "serve", round)
            .map_err(|e| e.to_string())?;
    }
    child_spans
        .write_jsonl(&mut trace, "children", 0)
        .map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut trace).map_err(|e| e.to_string())?;

    let walls: Vec<f64> = rounds.iter().map(|(wall, _)| ms(*wall)).collect();
    let layer_ms = |layer: Layer| {
        median(
            &rounds
                .iter()
                .map(|(_, s)| s.total_ms(layer.name()))
                .collect::<Vec<_>>(),
        )
    };
    let child_ms = |name: &str| child_spans.total_ms(name);
    let unattributed_ms: Vec<f64> = rounds
        .iter()
        .map(|(wall, spans)| ms(*wall) - spans.top_level_ms())
        .collect();
    let unattributed: Vec<f64> = rounds
        .iter()
        .zip(&unattributed_ms)
        .map(|((wall, _), gap)| gap / ms(*wall))
        .collect();
    let wall_ms = median(&walls);
    let overhead = wall_ms / median(&untraced) - 1.0;
    let parse_line_ms = layer_ms(Layer::ParseLine);
    let edits = counts.edits.max(1) as f64;

    let metrics = vec![
        metric("service.wire.parse_line_ms", parse_line_ms, "ms"),
        metric(
            "service.json.parse_ms",
            child_ms("service.json.parse"),
            "ms",
        ),
        metric(
            "service.wire.decode_mb_s",
            inputs.batch.bytes.len() as f64 / 1e6 / (parse_line_ms / 1e3),
            "MB/s",
        ),
        metric(
            "model.parse_program_ms",
            child_ms("model.parse_program"),
            "ms",
        ),
        metric(
            "model.topology_from_spec_ms",
            child_ms("model.topology_from_spec"),
            "ms",
        ),
        metric("systolicd.reply_lag_lines_p50", median(&lags), "lines"),
        metric(
            "service.handle_p50_us",
            summary_value(&paced, "latency_p50_us")?,
            "us",
        ),
        metric(
            "service.cache.hit_ratio",
            summary_value(&paced, "cache_hit_rate")?,
            "ratio",
        ),
        metric("service.read_ms", layer_ms(Layer::Read), "ms"),
        metric("service.submit_ms", layer_ms(Layer::Submit), "ms"),
        metric("service.ticket_wait_ms", layer_ms(Layer::Wait), "ms"),
        metric("service.wire.encode_ms", layer_ms(Layer::Encode), "ms"),
        metric("service.write_ms", layer_ms(Layer::Write), "ms"),
        metric("core.fingerprint_ms", child_ms("core.fingerprint"), "ms"),
        metric(
            "core.compiled.compile_ms",
            child_ms("core.compiled.compile"),
            "ms",
        ),
        metric(
            "core.analyzer.routes_ms",
            child_ms("core.analyzer.routes"),
            "ms",
        ),
        metric(
            "core.analyzer.classification_ms",
            child_ms("core.analyzer.classification"),
            "ms",
        ),
        metric(
            "core.analyzer.labeling_ms",
            child_ms("core.analyzer.labeling"),
            "ms",
        ),
        metric(
            "core.analyzer.competing_ms",
            child_ms("core.analyzer.competing"),
            "ms",
        ),
        metric(
            "core.analyzer.requirements_ms",
            child_ms("core.analyzer.requirements"),
            "ms",
        ),
        metric(
            "core.analyzer.plan_ms",
            child_ms("core.analyzer.plan"),
            "ms",
        ),
        metric("core.analyzer.runs", counts.analyses as f64, "count"),
        metric("sim.verify_ms", child_ms("sim.verify"), "ms"),
        metric("sim.replay_cycles", counts.replay_cycles as f64, "count"),
        metric(
            "core.incremental.seed_ms",
            child_ms("core.incremental.seed"),
            "ms",
        ),
        metric(
            "core.incremental.apply_ms",
            child_ms("core.incremental.apply"),
            "ms",
        ),
        metric(
            "core.incremental.reuse_ratio",
            counts.reused as f64 / edits,
            "ratio",
        ),
        metric(
            "core.incremental.fallbacks",
            counts.fallbacks as f64,
            "count",
        ),
        metric("service.apply_edit_ms", layer_ms(Layer::ApplyEdit), "ms"),
        metric(
            "service.load_snapshot_ms",
            layer_ms(Layer::LoadSnapshot),
            "ms",
        ),
        metric(
            "service.snapshot_bytes",
            inputs.snapshot.as_ref().map_or(0.0, |s| s.bytes as f64),
            "bytes",
        ),
        metric("driver.pacer_lag_p99_ms", pacer_lag_p99_ms(&paced), "ms"),
        metric(
            "driver.write_blocked_s",
            paced.write_blocked.as_secs_f64(),
            "s",
        ),
        metric("trace.wall_ms", wall_ms, "ms"),
        metric("trace.unattributed_ratio", median(&unattributed), "ratio"),
        metric("trace.overhead_ratio", overhead, "ratio"),
    ];

    println!(
        "{} ledger: one round serves the {}-line batch in-process ({} traced rounds, {} edits, median wall {:.3} ms); spans in {}",
        spec.name,
        inputs.batch.len(),
        rounds.len(),
        counts.edits,
        wall_ms,
        trace_path.display()
    );
    println!("  {:<36} {:>12} {:>8}", "layer", "ms/round", "share");
    for layer in Layer::ALL {
        let total = layer_ms(layer);
        println!(
            "  {:<36} {:>12.3} {:>7.1}%",
            layer.name(),
            total,
            100.0 * total / wall_ms
        );
        for (child, parent) in CHILDREN {
            if parent == layer.name() && child_ms(child) > 0.0 {
                println!("    {:<34} {:>12.3}  (second pass)", child, child_ms(child));
            }
        }
    }
    println!(
        "  {:<36} {:>12.3} {:>7.1}%",
        "unattributed",
        median(&unattributed_ms),
        100.0 * median(&unattributed)
    );
    println!(
        "  {:<36} {:>12.3} {:>7.1}%  (traced vs untraced wall)",
        "tracing overhead",
        wall_ms - median(&untraced),
        100.0 * overhead
    );
    println!("  workers, concurrent with the main thread (second pass, single-threaded):");
    for (child, parent) in CHILDREN {
        if parent == "worker" {
            println!("    {:<34} {:>12.3}", child, child_ms(child));
        }
    }
    println!("  wire side (paced daemon):");
    for m in metrics.iter().filter(|m| {
        m.name.starts_with("systolicd.")
            || m.name.starts_with("driver.")
            || m.name.starts_with("service.handle")
            || m.name.starts_with("service.cache")
    }) {
        println!("    {:<34} {:>12.4} {}", m.name, m.value, m.unit);
    }
    Ok(metrics)
}
