//! The traced in-process run behind the per-layer ledger.
//!
//! [`serve`] makes the same public calls, in the same order, that
//! `systolicd serve` makes for each line (`wire::parse_line`, then
//! `AnalysisService::submit` or `apply_edit`, `Ticket::wait`,
//! `WireResponse::to_json`, and a `Display` write into an in-memory
//! sink), each inside a span. It runs once per round with a [`Spans`]
//! recorder and once with [`Off`], whose spans compile away; the wall
//! difference is the tracing overhead. Every top-level span is a direct
//! child of the round, so the round's wall minus their summed durations
//! is the `unattributed` time.
//!
//! [`children`] is a second pass over the same lines that times the calls
//! beneath those: `Json::parse`, `parse_program`, `Topology::from_spec`,
//! `request_fingerprint`, `CompiledTopology::compile`, each
//! `AnalyzerSession` stage, the simulator replay and
//! `IncrementalSession::apply`. It runs them single-threaded, in line
//! order, analyzing a request only the first time its fingerprint is seen
//! (as the plan cache would), so its totals are the work the daemon's
//! workers and main thread do for the batch.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use systolic_core::{
    request_fingerprint, AnalysisConfig, Analyzer, CompiledTopology, CoreError, IncrementalConfig,
    IncrementalSession,
};
use systolic_model::{parse_program, Program, Topology};
use systolic_service::wire::{parse_edit, parse_line, WireRequest, WireResponse};
use systolic_service::{AnalysisService, ArenaLru, Json, ServiceConfig, Ticket};

use crate::workload::{resolve, Base};

/// The top-level layers of one served line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Construct,
    LoadSnapshot,
    Read,
    ParseLine,
    Submit,
    ApplyEdit,
    Wait,
    Encode,
    Write,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Construct,
        Layer::LoadSnapshot,
        Layer::Read,
        Layer::ParseLine,
        Layer::Submit,
        Layer::ApplyEdit,
        Layer::Wait,
        Layer::Encode,
        Layer::Write,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Construct => "service.construct",
            Layer::LoadSnapshot => "service.load_snapshot",
            Layer::Read => "service.read",
            Layer::ParseLine => "service.wire.parse_line",
            Layer::Submit => "service.submit",
            Layer::ApplyEdit => "service.apply_edit",
            Layer::Wait => "service.ticket_wait",
            Layer::Encode => "service.wire.encode",
            Layer::Write => "service.write",
        }
    }
}

/// Records spans, or (for [`Off`]) just runs the call.
pub trait Recorder {
    fn span<T>(&mut self, layer: Layer, request: usize, call: impl FnOnce() -> T) -> T;
}

/// No tracing: the untraced baseline.
pub struct Off;

impl Recorder for Off {
    #[inline(always)]
    fn span<T>(&mut self, _: Layer, _: usize, call: impl FnOnce() -> T) -> T {
        call()
    }
}

/// One finished span; times are nanoseconds since the round started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list; `None` for the round's
    /// direct children.
    pub parent: Option<usize>,
    pub request: usize,
}

/// An in-memory span list.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(capacity: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: usize,
    ) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
    }

    /// Summed duration of the spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .fold(0.0, |sum, ms| sum + ms)
    }

    /// Summed duration of the parentless spans, in ms.
    pub fn top_level_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .fold(0.0, |sum, ms| sum + ms)
    }

    /// Appends the spans as JSONL to `out`.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        pass: &str,
        round: usize,
    ) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"round\":{round},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

impl Recorder for Spans {
    fn span<T>(&mut self, layer: Layer, request: usize, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = call();
        let end = Instant::now();
        self.push(layer.name(), start, end, None, request);
        value
    }
}

/// One in-process serving round.
pub struct Served {
    pub wall: Duration,
    pub output: Vec<u8>,
}

fn drain_one<R: Recorder>(
    rec: &mut R,
    inflight: &mut VecDeque<(usize, Ticket)>,
    out: &mut impl Write,
) {
    if let Some((n, ticket)) = inflight.pop_front() {
        let response = rec.span(Layer::Wait, n, || ticket.wait());
        let json = rec.span(Layer::Encode, n, || {
            WireResponse::Analysis(&response).to_json()
        });
        rec.span(Layer::Write, n, || writeln!(out, "{json}"))
            .expect("writing to memory succeeds");
    }
}

/// Serves `input` the way `systolicd serve` does, with the daemon's
/// default configuration (plus `verify`), optionally after loading a
/// snapshot.
pub fn serve<R: Recorder>(
    rec: &mut R,
    input: &[u8],
    verify: bool,
    snapshot: Option<&Path>,
) -> Result<Served, String> {
    let config = ServiceConfig {
        verify,
        ..ServiceConfig::default()
    };
    let start = Instant::now();
    let service = rec.span(Layer::Construct, 0, || AnalysisService::new(config));
    if let Some(path) = snapshot {
        rec.span(Layer::LoadSnapshot, 0, || service.load_snapshot(path))
            .map_err(|e| format!("snapshot load rejected: {e}"))?;
    }
    let mut out = BufWriter::new(Vec::with_capacity(input.len()));
    let inflight_limit = config.workers * 2 + config.queue_depth;
    let mut inflight: VecDeque<(usize, Ticket)> = VecDeque::new();
    let mut lines = BufReader::new(input).lines();
    let mut n = 0;
    while let Some(line) = rec.span(Layer::Read, n + 1, || lines.next()) {
        let line = line.map_err(|e| format!("reading memory failed: {e}"))?;
        n += 1;
        if line.trim().is_empty() {
            continue;
        }
        match rec.span(Layer::ParseLine, n, || parse_line(&line, n)) {
            Ok(WireRequest::Analysis(request)) => {
                if inflight.len() >= inflight_limit {
                    drain_one(rec, &mut inflight, &mut out);
                }
                let ticket = rec.span(Layer::Submit, n, || service.submit(*request));
                inflight.push_back((n, ticket));
            }
            Ok(WireRequest::Edit(command)) => {
                while !inflight.is_empty() {
                    drain_one(rec, &mut inflight, &mut out);
                }
                let edit = rec.span(Layer::ApplyEdit, n, || {
                    service.apply_edit(command.name.clone(), command.base, &command.ops)
                });
                let json = rec.span(Layer::Encode, n, || match &edit {
                    Ok(edit) => WireResponse::Edit(edit).to_json(),
                    Err(error) => WireResponse::EditRejected {
                        name: &command.name,
                        base: command.base,
                        error,
                    }
                    .to_json(),
                });
                rec.span(Layer::Write, n, || writeln!(out, "{json}"))
                    .expect("writing to memory succeeds");
            }
            Ok(_) => return Err(format!("line {n}: the workloads send no control ops")),
            Err(error) => return Err(format!("line {n} does not parse: {error}")),
        }
    }
    while !inflight.is_empty() {
        drain_one(rec, &mut inflight, &mut out);
    }
    rec.span(Layer::Write, 0, || out.flush())
        .expect("flushing to memory succeeds");
    let wall = start.elapsed();
    let output = out.into_inner().expect("the buffer was flushed");
    drop(service);
    Ok(Served { wall, output })
}

/// The sub-layers [`children`] times, each named for the ledger.
pub const CHILDREN: [(&str, &str); 15] = [
    ("service.json.parse", "service.wire.parse_line"),
    ("model.parse_program", "service.wire.parse_line"),
    ("model.topology_from_spec", "service.wire.parse_line"),
    ("core.fingerprint", "worker"),
    ("core.compiled.compile", "worker"),
    ("core.analyzer.routes", "worker"),
    ("core.analyzer.classification", "worker"),
    ("core.analyzer.labeling", "worker"),
    ("core.analyzer.competing", "worker"),
    ("core.analyzer.requirements", "worker"),
    ("core.analyzer.plan", "worker"),
    ("sim.verify", "worker"),
    ("core.incremental.seed", "service.apply_edit"),
    ("core.incremental.apply", "service.apply_edit"),
    ("service.wire.parse_edit", "service.wire.parse_line"),
];

/// One analyzer stage of the second pass: its span name and the call.
type Stage<'a> = (&'static str, &'a dyn Fn() -> Result<(), CoreError>);

/// What [`children`] counted besides times.
#[derive(Debug, Default)]
pub struct ChildCounts {
    pub analyses: u64,
    pub replay_cycles: u64,
    pub edits: u64,
    pub reused: u64,
    pub fallbacks: u64,
}

/// The second pass: times the calls beneath each served line. Spans are
/// recorded under synthetic parents named after the top-level layer (or
/// `worker` for work the daemon's workers do).
pub fn children(
    input: &[u8],
    verify: bool,
    cached: &HashSet<u128>,
    bases: &[Base],
) -> Result<(Spans, ChildCounts), String> {
    let mut spans = Spans::new(input.len() / 16);
    let mut counts = ChildCounts::default();
    let mut seen: HashSet<u128> = cached.clone();
    let mut compiled: HashMap<u128, Arc<CompiledTopology>> = HashMap::new();
    let mut sessions: HashMap<u128, IncrementalSession> = HashMap::new();
    let mut arenas = ArenaLru::with_budget(ServiceConfig::default().arena_budget());
    let sim = ServiceConfig::default().sim;

    // Times `call` as a child of `parent`.
    fn timed<T>(
        spans: &mut Spans,
        name: &'static str,
        parent: usize,
        n: usize,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = call();
        spans.push(name, start, Instant::now(), Some(parent), n);
        value
    }
    fn open(spans: &mut Spans, name: &'static str, n: usize) -> usize {
        let now = Instant::now();
        spans.push(name, now, now, None, n);
        spans.spans.len() - 1
    }
    fn close(spans: &mut Spans, index: usize) {
        let end = spans.ns(Instant::now());
        spans.spans[index].end_ns = end;
    }

    for (i, line) in input
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .enumerate()
    {
        let n = i + 1;
        let line = std::str::from_utf8(line).map_err(|e| format!("line {n}: {e}"))?;
        let parse = open(&mut spans, "service.wire.parse_line", n);
        let value = timed(&mut spans, "service.json.parse", parse, n, || {
            Json::parse(line)
        })
        .map_err(|e| format!("line {n}: {e}"))?;
        if value.get("op").and_then(Json::as_str) == Some("edit") {
            let command = timed(&mut spans, "service.wire.parse_edit", parse, n, || {
                parse_edit(&value, n)
            })
            .map_err(|e| format!("line {n}: {e}"))?;
            close(&mut spans, parse);
            let apply = open(&mut spans, "service.apply_edit", n);
            let mut session = match sessions.remove(&command.base) {
                Some(session) => session,
                None => {
                    let base = bases
                        .iter()
                        .find(|base| base.fingerprint == command.base)
                        .ok_or_else(|| format!("line {n}: edit of an unknown base"))?;
                    timed(&mut spans, "core.incremental.seed", apply, n, || {
                        IncrementalSession::seed(
                            Analyzer::new(Arc::clone(&base.compiled)),
                            Arc::clone(&base.program),
                            IncrementalConfig {
                                fallback_ratio: ServiceConfig::default().incremental_fallback_ratio,
                            },
                        )
                    })
                }
            };
            let ops = resolve(session.program(), &command.ops)?;
            let reuse = timed(&mut spans, "core.incremental.apply", apply, n, || {
                session.apply(&ops)
            })
            .map_err(|e| format!("line {n}: {e}"))?;
            counts.edits += 1;
            counts.reused += u64::from(reuse.reused_any());
            counts.fallbacks += u64::from(reuse.fallback.is_some());
            sessions.insert(session.fingerprint(), session);
            close(&mut spans, apply);
            continue;
        }
        // `parse_request` parses the line a second time.
        let value = timed(&mut spans, "service.json.parse", parse, n, || {
            Json::parse(line)
        })
        .map_err(|e| format!("line {n}: {e}"))?;
        let field = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_str)
                .ok_or(format!("line {n}: no {key}"))
        };
        let (program_text, spec) = (field("program")?, field("topology")?);
        let program: Program = timed(&mut spans, "model.parse_program", parse, n, || {
            parse_program(program_text)
        })
        .map_err(|e| format!("line {n}: {e}"))?;
        let topology: Topology = timed(&mut spans, "model.topology_from_spec", parse, n, || {
            Topology::from_spec(spec)
        })
        .map_err(|e| format!("line {n}: {e}"))?;
        let config = AnalysisConfig {
            queues_per_interval: value.get("queues").and_then(Json::as_u64).unwrap_or(1) as usize,
            ..AnalysisConfig::default()
        };
        close(&mut spans, parse);

        let worker = open(&mut spans, "worker", n);
        let fingerprint = timed(&mut spans, "core.fingerprint", worker, n, || {
            request_fingerprint(&program, &topology, &config)
        });
        if seen.insert(fingerprint) {
            counts.analyses += 1;
            let key = CompiledTopology::fingerprint_of(&topology, &config);
            let shared = match compiled.get(&key) {
                Some(shared) => Arc::clone(shared),
                None => {
                    let built = timed(&mut spans, "core.compiled.compile", worker, n, || {
                        CompiledTopology::compile(&topology, &config).into_shared()
                    });
                    compiled.insert(key, Arc::clone(&built));
                    built
                }
            };
            let analyzer = Analyzer::new(Arc::clone(&shared));
            let session = analyzer.session(&program);
            // The stage order of the analyzer's own observed driver.
            let stages: [Stage; 6] = [
                ("core.analyzer.routes", &|| session.routes().map(drop)),
                ("core.analyzer.classification", &|| {
                    session.classification().map(drop)
                }),
                ("core.analyzer.labeling", &|| session.labeling().map(drop)),
                ("core.analyzer.competing", &|| session.competing().map(drop)),
                ("core.analyzer.requirements", &|| {
                    session.requirements().map(drop)
                }),
                ("core.analyzer.plan", &|| session.plan().map(drop)),
            ];
            let certified = stages
                .into_iter()
                .all(|(name, stage)| timed(&mut spans, name, worker, n, stage).is_ok());
            if let (true, Ok(plan)) = (verify && certified, session.plan()) {
                let plan = Arc::new(plan.clone());
                let report = timed(&mut spans, "sim.verify", worker, n, || {
                    arenas
                        .get_or_build(&shared, sim)
                        .arena
                        .verify(&program, &plan)
                })
                .map_err(|e| format!("line {n}: replay failed: {e}"))?;
                counts.replay_cycles += report.cycles;
            }
        }
        close(&mut spans, worker);
    }
    Ok((spans, counts))
}
