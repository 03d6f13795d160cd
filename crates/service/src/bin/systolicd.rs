//! `systolicd` — the JSONL front end of the analysis service.
//!
//! ```text
//! systolicd gen   --count 1000 [--seed 42] [--hot-percent 50]
//! systolicd serve [FILE] [--workers 4] [--shards 8] [--capacity 256]
//!                 [--queue-depth 64] [--verify]
//!                 [--arena-cache-cap N] [--arena-mem-budget BYTES]
//!                 [--session-cap N] [--incremental-fallback-ratio R]
//!                 [--snapshot-load PATH] [--snapshot-save PATH]
//!                 [--snapshot-every N]
//!                 [--summary] [--summary-json]
//!                 [--metrics-file PATH] [--trace-file PATH]
//! ```
//!
//! All flags are parsed and validated by [`systolic_service::daemon`];
//! this binary is the I/O loop. `gen` writes a deterministic stream of
//! mixed workload requests (one JSON object per line) to stdout. `serve`
//! reads request lines from FILE (or stdin), drives them through the
//! service with bounded backpressure, and streams one JSON response per
//! line to stdout in request order; `--verify` chases every certified
//! miss with a simulator replay, inline in the analysis worker (so
//! `--workers` sets the verify parallelism). Each worker's warm-arena
//! cache is sized by `--arena-cache-cap N` (arenas per cache; `0` sizes
//! automatically from the number of distinct topologies observed) or
//! `--arena-mem-budget BYTES` (approximate bytes per cache, which takes
//! precedence); `--summary` prints a throughput/latency/cache table —
//! including arena-cache counters and a per-topology verified/blocked
//! breakdown — to stderr.
//!
//! Incremental edits: a request line `{"op": "edit", "base": "0x...",
//! "ops": [...]}` reanalyzes an earlier program (named by its response
//! `fingerprint`) through a warm dirty-tracked session instead of from
//! scratch; `--session-cap N` bounds the warm-session table (default 64,
//! LRU eviction) and `--incremental-fallback-ratio R` sets the dirty-cell
//! fraction above which an edit falls back to a from-scratch analysis
//! (default 0.5). Edit responses carry `cache: "incremental"` and a
//! `reuse` object; the summary table gains `incremental *` rows once any
//! edit was served.
//!
//! Snapshot persistence: `--snapshot-load PATH` warms the plan cache from
//! a snapshot before the first request (a rejected load — missing file,
//! corrupt bytes, future format version — keeps serving cold, never
//! partially warmed); `--snapshot-save PATH` writes a snapshot when the
//! stream ends, `--snapshot-every N` additionally autosaves after every
//! `N` served requests, and a request line `{"op": "snapshot"}` saves
//! mid-stream after flushing every prior request and answers with a
//! `status: "snapshot"` report. Warmed cache hits respond with
//! `cache: "warm"` and the summary table gains `snapshot *` rows.
//!
//! Observability: `--summary-json` prints the summary as one JSON object
//! to stderr; `--metrics-file PATH` writes the full metrics registry as a
//! Prometheus text exposition on exit; `--trace-file PATH` writes the span
//! log (one JSON object per finished span, `trace` ids matching the
//! `trace` field of wire responses) as JSONL on exit. A request line
//! `{"op": "metrics"}` dumps the registry as one JSON response mid-stream
//! after flushing every prior request.
//!
//! Threads: the main thread reads each line, parses its JSON and
//! dispatches on `op` ([`parse_envelope`]), applies the control-op
//! barriers (`metrics`, `edit` and `snapshot` wait for every earlier line
//! first) and writes every reply in input order. An analysis line goes to
//! the worker pool as it is
//! ([`AnalysisService::submit_line`](systolic_service::AnalysisService::submit_line)):
//! a worker decodes its fields
//! ([`decode_request`](systolic_service::wire::decode_request)), analyses
//! and, under `--verify`, verifies it, and renders the response line; a
//! line that does not decode comes back as its error and is answered
//! `status: "invalid"` at its own line. The span ring is kept only for
//! `--trace-file`.
//!
//! Input lines are bounded: a line over
//! [`MAX_LINE_BYTES`](systolic_service::wire::MAX_LINE_BYTES) (1 MiB) is
//! skipped without being buffered, and it and any line that is not UTF-8
//! are answered `status: "invalid"` like other malformed lines. Exit
//! status is 0 when every line was a well-formed request (rejected
//! analyses still count as served), 2 on usage errors and I/O failures,
//! 1 when some lines were malformed.
//!
//! A full round trip:
//!
//! ```text
//! systolicd gen --count 1000 --seed 7 > requests.jsonl
//! systolicd serve requests.jsonl --workers 8 --summary \
//!     --snapshot-save warm.snap > responses.jsonl
//! systolicd serve requests.jsonl --snapshot-load warm.snap --summary \
//!     > responses2.jsonl   # instant warm cache, responses say "warm"
//! ```

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, StdoutLock, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use systolic_obs::{Obs, DEFAULT_TRACE_CAPACITY};
use systolic_service::daemon::{DaemonCommand, GenOptions, OptionsError, ServeOptions, USAGE};
use systolic_service::wire::{
    parse_envelope, read_line, AnalysisLine, WireEnvelope, WireError, WireResponse,
};
use systolic_service::{AnalysisService, Json, LineReply, Ticket};
use systolic_workloads::traffic;

/// Writes one output line, turning stdout failures into process exits
/// instead of panics: a broken pipe (`systolicd ... | head`) is the normal
/// way for a consumer to hang up, so it exits 0; anything else is a real
/// I/O failure and exits 2 with a message.
fn write_line(out: &mut dyn Write, line: &dyn std::fmt::Display) {
    if let Err(e) = writeln!(out, "{line}") {
        exit_for_stdout_error(&e);
    }
}

/// Flushes buffered output with the same error policy as [`write_line`].
fn flush_out(out: &mut dyn Write) {
    if let Err(e) = out.flush() {
        exit_for_stdout_error(&e);
    }
}

fn exit_for_stdout_error(e: &std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        // The consumer stopped reading; finishing early is not an error.
        std::process::exit(0);
    }
    eprintln!("systolicd: cannot write to stdout: {e}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match DaemonCommand::parse(&args) {
        Ok(DaemonCommand::Gen(options)) => gen_main(&options),
        Ok(DaemonCommand::Serve(options)) => serve_main(&options),
        Err(OptionsError::Usage) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Err(error) => {
            eprintln!("systolicd: {error}");
            std::process::exit(2);
        }
    }
}

fn gen_main(options: &GenOptions) {
    let config = options.traffic_config();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for (i, item) in traffic(&config, options.seed, options.count)
        .iter()
        .enumerate()
    {
        let id = format!("{}#{i}", item.name);
        write_line(&mut out, &WireResponse::Traffic { id: &id, item }.to_json());
    }
    flush_out(&mut out);
}

/// The in-order reply side of `serve`: the window of in-flight line
/// tickets, the output, and the served / invalid tallies.
struct Replies<'a> {
    options: &'a ServeOptions,
    service: &'a AnalysisService,
    out: BufWriter<StdoutLock<'static>>,
    /// Line number and ticket of each submitted analysis line, in input
    /// order.
    inflight: VecDeque<(usize, Ticket<LineReply>)>,
    /// At most this many tickets are outstanding: the submission queue
    /// provides the backpressure, this window just bounds reply
    /// buffering.
    inflight_limit: usize,
    served: u64,
    invalid: u64,
    since_autosave: usize,
}

impl<'a> Replies<'a> {
    fn new(options: &'a ServeOptions, service: &'a AnalysisService) -> Self {
        let config = options.service;
        Replies {
            options,
            service,
            out: BufWriter::new(std::io::stdout().lock()),
            inflight: VecDeque::new(),
            inflight_limit: config.workers * 2 + config.queue_depth,
            served: 0,
            invalid: 0,
            since_autosave: 0,
        }
    }

    /// Hands an analysis line to the worker pool, first writing the
    /// oldest reply if the window is full.
    fn submit(&mut self, line: AnalysisLine) {
        if self.inflight.len() >= self.inflight_limit {
            self.drain_one();
        }
        let line_number = line.line_number;
        self.inflight
            .push_back((line_number, self.service.submit_line(line)));
    }

    /// Waits for and writes every in-flight reply.
    fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.drain_one();
        }
    }

    fn drain_one(&mut self) {
        let Some((line_number, ticket)) = self.inflight.pop_front() else {
            return;
        };
        match ticket.wait() {
            Ok(line) => {
                self.write(&line);
                self.served(true);
            }
            Err(error) => self.invalid(line_number, &error),
        }
    }

    fn write(&mut self, line: &dyn std::fmt::Display) {
        write_line(&mut self.out, line);
    }

    /// Answers a malformed line.
    fn invalid(&mut self, line_number: usize, error: &WireError) {
        self.write(&WireResponse::Invalid { line_number, error }.to_json());
        self.invalid += 1;
    }

    /// Counts one served request; `autosave` requests count towards
    /// `--snapshot-every`.
    fn served(&mut self, autosave: bool) {
        self.served += 1;
        if !autosave || self.options.snapshot_every == 0 {
            return;
        }
        self.since_autosave += 1;
        if self.since_autosave < self.options.snapshot_every {
            return;
        }
        self.since_autosave = 0;
        if let Some(path) = &self.options.snapshot_save {
            // Autosave is best-effort persistence; a failed write is
            // reported but never interrupts serving.
            if let Err(error) = self.service.save_snapshot(Path::new(path)) {
                eprintln!("systolicd: snapshot autosave to {path} failed: {error}");
            }
        }
    }
}

fn serve_main(options: &ServeOptions) {
    let config = options.service;

    let reader: Box<dyn Read> = match &options.input_path {
        Some(path) => Box::new(std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("systolicd: cannot open {path}: {e}");
            std::process::exit(2);
        })),
        None => Box::new(std::io::stdin()),
    };

    // Spans are kept only for the `--trace-file` log: without one, the
    // ring would hold up to `DEFAULT_TRACE_CAPACITY` spans nobody reads.
    let trace_capacity = if options.trace_file.is_some() {
        DEFAULT_TRACE_CAPACITY
    } else {
        0
    };
    let service =
        AnalysisService::with_obs(config, Arc::new(Obs::with_trace_capacity(trace_capacity)));

    if let Some(path) = &options.snapshot_load {
        // A rejected load never partially applies: the daemon keeps
        // serving, cold, exactly as if no snapshot had been offered.
        match service.load_snapshot(Path::new(path)) {
            Ok(report) => eprintln!(
                "systolicd: snapshot {path} warmed {} plans, {} seeds \
                 ({} dropped, {} bytes, {} us)",
                report.plans, report.seeds, report.dropped, report.bytes, report.micros
            ),
            Err(error) => {
                eprintln!("systolicd: snapshot load rejected ({error}); serving cold");
            }
        }
    }

    let started = Instant::now();
    let mut replies = Replies::new(options, &service);
    let mut input = BufReader::new(reader);
    let mut buf = Vec::new();
    let mut line_number = 0;
    loop {
        let line = match read_line(&mut input, &mut buf) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                eprintln!("systolicd: read error: {e}");
                std::process::exit(2);
            }
        };
        line_number += 1;
        let parsed = match line {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => parse_envelope(text, line_number),
            // Oversized and non-UTF-8 lines are answered like any other
            // malformed line; reading goes on with the next one.
            Err(error) => Err(error),
        };
        match parsed {
            // A worker decodes, analyses and renders the line; its reply
            // is written in input order.
            Ok(WireEnvelope::Analysis(line)) => replies.submit(line),
            Ok(WireEnvelope::Metrics) => {
                // Flush in-flight responses first so the dump reflects
                // every request submitted before it (and output stays in
                // input order).
                replies.drain();
                let snapshot = service.registry_snapshot();
                replies.write(&WireResponse::Metrics(&snapshot).to_json());
            }
            Ok(WireEnvelope::Edit(command)) => {
                // Edits chain on earlier responses' fingerprints, so every
                // prior submission must land (seeding its session inputs)
                // before the edit runs; flushing also keeps output in
                // input order.
                replies.drain();
                let line =
                    match service.apply_edit(command.name.clone(), command.base, &command.ops) {
                        Ok(edit) => WireResponse::Edit(&edit).to_json(),
                        Err(error) => WireResponse::EditRejected {
                            name: &command.name,
                            base: command.base,
                            error: &error,
                        }
                        .to_json(),
                    };
                replies.write(&line);
                replies.served(true);
            }
            Ok(WireEnvelope::Snapshot(id)) => {
                // Flush so the snapshot covers every request submitted
                // before it; output also stays in input order.
                replies.drain();
                let line = match &options.snapshot_save {
                    Some(path) => match service.save_snapshot(Path::new(path)) {
                        Ok(report) => WireResponse::Snapshot { name: &id, report }.to_json(),
                        Err(error) => WireResponse::SnapshotRejected {
                            name: &id,
                            error: &error.to_string(),
                        }
                        .to_json(),
                    },
                    None => WireResponse::SnapshotRejected {
                        name: &id,
                        error: "no --snapshot-save path configured",
                    }
                    .to_json(),
                };
                replies.write(&line);
                replies.served(false);
            }
            Err(error) => {
                // Flush pending responses first so output stays in input
                // order, then answer the malformed line inline.
                replies.drain();
                replies.invalid(line_number, &error);
            }
        }
    }
    replies.drain();
    flush_out(&mut replies.out);
    let Replies {
        served, invalid, ..
    } = replies;

    if let Some(path) = &options.snapshot_save {
        match service.save_snapshot(Path::new(path)) {
            Ok(report) => eprintln!(
                "systolicd: snapshot saved to {path} ({} plans, {} seeds, {} bytes)",
                report.plans, report.seeds, report.bytes
            ),
            Err(error) => {
                eprintln!("systolicd: cannot write snapshot {path}: {error}");
                std::process::exit(2);
            }
        }
    }

    let elapsed = started.elapsed();
    let secs = elapsed.as_secs_f64();
    let throughput = if secs > 0.0 {
        served as f64 / secs
    } else {
        0.0
    };

    let summary = service.summary();
    if options.summary {
        let mut table = summary.table();
        table.row(["wall time (s)", &format!("{secs:.3}")]);
        table.row(["throughput (req/s)", &format!("{throughput:.0}")]);
        table.row(["invalid lines", &invalid.to_string()]);
        eprintln!("{}", table.to_text());
    }

    if options.summary_json {
        let mut members = summary.json_members();
        // The daemon's own figures follow `requests`.
        members.splice(
            1..1,
            [
                ("invalid_lines".to_owned(), Json::Num(invalid as f64)),
                ("wall_seconds".to_owned(), Json::Num(secs)),
                ("throughput_per_sec".to_owned(), Json::Num(throughput)),
            ],
        );
        eprintln!("{}", Json::Obj(members));
    }

    if let Some(path) = &options.metrics_file {
        let exposition = service.registry_snapshot().render_prometheus();
        std::fs::write(path, exposition).unwrap_or_else(|e| {
            eprintln!("systolicd: cannot write {path}: {e}");
            std::process::exit(2);
        });
    }

    if let Some(path) = &options.trace_file {
        let spans = service.obs().tracer().snapshot();
        let dropped = service.obs().tracer().dropped();
        let mut log = String::new();
        for span in &spans {
            log.push_str(&span.to_json_line());
            log.push('\n');
        }
        std::fs::write(path, log).unwrap_or_else(|e| {
            eprintln!("systolicd: cannot write {path}: {e}");
            std::process::exit(2);
        });
        if dropped > 0 {
            eprintln!("systolicd: trace ring dropped {dropped} oldest spans (bounded capacity)");
        }
    }

    std::process::exit(i32::from(invalid > 0));
}
