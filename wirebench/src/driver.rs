//! The open-loop wire driver: spawns `systolicd serve`, writes request
//! lines into its stdin from one thread and reads response lines from its
//! stdout on another.
//!
//! # Why the driver never waits for a reply
//!
//! `systolicd serve` holds each response until `workers * 2 +
//! queue_depth` later request lines have arrived (72 with the default
//! flags) *and* its `BufWriter` over stdout has filled (about 25 replies
//! of a few hundred bytes). A lone request therefore gets no reply at all
//! until stdin closes. A closed-loop client, one that waits for each
//! reply before sending the next line, deadlocks against the daemon. So
//! the writer sends on its own schedule (as fast as the pipe accepts, or
//! at due times drawn in advance) and closes stdin after the last line;
//! the reader only timestamps what arrives. Do not turn this into a closed
//! loop: it would measure nothing but the 2 s timeout a probe runs into.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::util::Rng;
use crate::workload::Stream;

/// How long a snapshot-loading daemon may take to report it is ready.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// Bytes per `write` in the saturating phase.
const CHUNK: usize = 64 * 1024;
/// Peak-RSS samples are taken every this many response lines (and on the
/// last expected line).
const RSS_EVERY: usize = 256;

/// How the writer schedules lines.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Everything as fast as the pipe accepts.
    Saturate,
    /// `rate` lines per second on average, each gap between due times
    /// drawn from `seed` uniformly between half and one and a half mean
    /// gaps. With evenly spaced lines the daemon's reply hold made each
    /// latency a whole number of gaps, and a seed whose replies were a few
    /// bytes longer moved the p50 by one whole gap, a tenth of it.
    /// Exponential (Poisson) gaps smooth that out too, but their long tail
    /// made the p99 a draw of its own: it moved by a fifth between seeds.
    Jittered { rate: f64, seed: u64 },
}

/// The daemon under test and its command line.
#[derive(Debug)]
pub struct Daemon<'a> {
    pub exe: &'a Path,
    /// Arguments after `serve`.
    pub args: Vec<String>,
    /// Wait until the daemon reports its snapshot load on stderr before
    /// the first line is written, so the load is not timed as serving.
    pub await_snapshot: bool,
}

/// What one daemon process did with one stream.
#[derive(Debug)]
pub struct Run {
    pub responses: Vec<String>,
    /// When each response line was read.
    pub read_at: Vec<Instant>,
    /// Lines written when each response was read.
    pub written_at_read: Vec<usize>,
    /// When the first byte was written.
    pub first_write: Instant,
    /// When each line was due (paced runs only).
    pub due: Vec<Instant>,
    /// How late the writer started each line (paced runs only).
    pub pacer_lag: Vec<Duration>,
    /// Time spent inside `write` calls.
    pub write_blocked: Duration,
    /// The daemon's `VmHWM`, last sample before its stdout closed.
    pub vm_hwm_kib: Option<u64>,
    /// The `--summary-json` object from stderr.
    pub summary: Option<String>,
    pub status: ExitStatus,
    pub write_error: Option<String>,
}

impl Run {
    /// Requests per second from the first byte written to the last
    /// response read.
    pub fn throughput(&self) -> Option<f64> {
        let last = self.read_at.last()?;
        Some(self.responses.len() as f64 / last.duration_since(self.first_write).as_secs_f64())
    }
}

/// Time from spawning the daemon with `daemon.args` and a closed stdin
/// until it exits.
pub fn setup_seconds(daemon: &Daemon) -> Result<f64, String> {
    let start = Instant::now();
    let status = Command::new(daemon.exe)
        .arg("serve")
        .args(&daemon.args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot spawn {}: {e}", daemon.exe.display()))?;
    let elapsed = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("an idle daemon exited with {status}"));
    }
    Ok(elapsed)
}

fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

struct ReadLog {
    responses: Vec<String>,
    read_at: Vec<Instant>,
    written_at_read: Vec<usize>,
    vm_hwm_kib: Option<u64>,
}

fn read_responses(stdout: impl Read, pid: u32, expected: usize, written: &AtomicUsize) -> ReadLog {
    let mut log = ReadLog {
        responses: Vec::with_capacity(expected),
        read_at: Vec::with_capacity(expected),
        written_at_read: Vec::with_capacity(expected),
        vm_hwm_kib: None,
    };
    let mut reader = BufReader::with_capacity(1 << 16, stdout);
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        log.read_at.push(Instant::now());
        // The writer publishes nothing else through this counter.
        log.written_at_read.push(written.load(Ordering::Relaxed));
        line.truncate(line.trim_end().len());
        log.responses.push(line);
        let n = log.responses.len();
        if n % RSS_EVERY == 1 || n == expected {
            log.vm_hwm_kib = vm_hwm_kib(pid).or(log.vm_hwm_kib);
        }
    }
    log
}

struct Written {
    first_write: Instant,
    due: Vec<Instant>,
    pacer_lag: Vec<Duration>,
    blocked: Duration,
    error: Option<String>,
}

fn write_requests(
    stdin: &mut impl Write,
    stream: &Stream,
    pace: Pace,
    written: &AtomicUsize,
) -> Written {
    let mut out = Written {
        first_write: Instant::now(),
        due: Vec::new(),
        pacer_lag: Vec::new(),
        blocked: Duration::ZERO,
        error: None,
    };
    match pace {
        Pace::Saturate => {
            for (i, chunk) in stream.bytes.chunks(CHUNK).enumerate() {
                let t = Instant::now();
                if let Err(e) = stdin.write_all(chunk) {
                    out.error = Some(e.to_string());
                    break;
                }
                out.blocked += t.elapsed();
                written.store(stream.lines_within((i + 1) * CHUNK), Ordering::Relaxed);
            }
        }
        Pace::Jittered { rate, seed } => {
            out.due.reserve(stream.len());
            out.pacer_lag.reserve(stream.len());
            let mut rng = Rng::new(seed);
            let mut offset = 0.0;
            let start = Instant::now();
            out.first_write = start;
            for i in 0..stream.len() {
                let due = start + Duration::from_secs_f64(offset);
                offset += (0.5 + rng.unit()) / rate;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let t = Instant::now();
                out.due.push(due);
                out.pacer_lag.push(t - due);
                if let Err(e) = stdin.write_all(stream.line(i)) {
                    out.error = Some(e.to_string());
                    break;
                }
                out.blocked += t.elapsed();
                written.store(i + 1, Ordering::Relaxed);
            }
        }
    }
    out
}

fn spawn(daemon: &Daemon) -> Result<Child, String> {
    Command::new(daemon.exe)
        .arg("serve")
        .args(&daemon.args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", daemon.exe.display()))
}

/// Serves `stream` through a fresh daemon process.
pub fn drive(daemon: &Daemon, stream: &Stream, pace: Pace) -> Result<Run, String> {
    let mut child = spawn(daemon)?;
    let pid = child.id();
    let (Some(mut stdin), Some(stdout), Some(stderr)) =
        (child.stdin.take(), child.stdout.take(), child.stderr.take())
    else {
        unreachable!("all three pipes were requested");
    };
    let written = AtomicUsize::new(0);
    let (ready_tx, ready_rx) = mpsc::channel::<String>();
    let outcome = std::thread::scope(|scope| {
        let errors = scope.spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("snapshot") {
                    // The receiver may be gone (no snapshot awaited).
                    let _ = ready_tx.send(line.clone());
                }
                lines.push(line);
            }
            lines
        });
        let reader = scope.spawn(|| read_responses(stdout, pid, stream.len(), &written));
        let ready = if daemon.await_snapshot {
            match ready_rx.recv_timeout(READY_TIMEOUT) {
                Ok(line) if line.contains("warmed") => Ok(()),
                Ok(line) => Err(format!("daemon did not load its snapshot: {line}")),
                Err(_) => Err("daemon never reported its snapshot load".to_owned()),
            }
        } else {
            Ok(())
        };
        let sent = ready.map(|()| write_requests(&mut stdin, stream, pace, &written));
        // Closing stdin is what makes the daemon flush its held replies.
        drop(stdin);
        if sent.is_err() {
            let _ = child.kill();
        }
        let log = reader.join().expect("the reader thread does not panic");
        let stderr_lines = errors.join().expect("the stderr thread does not panic");
        sent.map(|sent| (sent, log, stderr_lines))
    });
    let status = child
        .wait()
        .map_err(|e| format!("cannot reap the daemon: {e}"))?;
    let (sent, log, stderr_lines) = outcome?;
    Ok(Run {
        responses: log.responses,
        read_at: log.read_at,
        written_at_read: log.written_at_read,
        first_write: sent.first_write,
        due: sent.due,
        pacer_lag: sent.pacer_lag,
        write_blocked: sent.blocked,
        vm_hwm_kib: log.vm_hwm_kib,
        summary: stderr_lines.into_iter().rev().find(|l| l.starts_with('{')),
        status,
        write_error: sent.error,
    })
}
