//! The workloads: seeded request streams, the snapshot `edit_resume`
//! starts from, and the expected answer for every line (the oracle behind
//! `error_rate`).
//!
//! The oracle is built while the workload is generated, from the
//! *generated* programs rather than from the wire text, and only
//! deterministic response fields are compared (`micros`,
//! `analysis_micros`, `trace` and `cache` are dropped):
//!
//! * every line's verdict, labels, diagnostics and fingerprint come from
//!   an in-process from-scratch `Analyzer::diagnose`;
//! * `random_program` items and the traffic kernels are deadlock-free
//!   and generously queued by construction, so they must be certified
//!   whatever the analyzer says;
//! * edit responses must carry the chain fingerprints precomputed by an
//!   in-process `IncrementalSession`, whose verdict and labels are in turn
//!   checked against a from-scratch analysis of the edited program;
//! * under `--verify` every certified response must report a replay that
//!   ran to completion (Theorem 1), with the replay's cycle count.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use systolic_core::{
    request_fingerprint, AnalysisConfig, Analyzer, CompiledTopology, EditOp, IncrementalConfig,
    IncrementalSession,
};
use systolic_model::{Op, Program, ProgramBuilder, Topology};
use systolic_service::wire::WireResponse;
use systolic_service::{
    AnalysisRequest, AnalysisResponse, AnalysisService, CacheProvenance, Certified, EditResponse,
    Json, NamedEditOp, Rejection, ServiceConfig, ServiceError, ServiceOutcome,
};
use systolic_sim::{verify_plan_compiled, SimConfig};
use systolic_workloads::{
    fir, fir_topology, matvec, matvec_topology, odd_even_sort, random_program, random_topology,
    scramble, sort_topology, traffic, wavefront, wavefront_topology, RandomConfig, TrafficConfig,
    TrafficItem,
};

use crate::util::{Fnv, Rng};

/// One workload: what the daemon is started with and how it is driven.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Daemon flags besides `--summary-json` and the snapshot path.
    pub flags: &'static [&'static str],
    /// Lines per saturating batch (one daemon process each).
    pub batch_lines: usize,
    /// The open-loop paced phase's fixed arrival rate, requests per
    /// second: a fifth or less of the parent commit's `throughput_rps` on
    /// a quiet 2-vCPU host. The daemon holds each reply until later lines
    /// arrive (see `driver`), and at these rates that hold, not the host's
    /// scheduling stalls, sets the latency. Nearer the daemon's knee a slow
    /// spell of a shared host moved the p99 by up to a third between runs.
    pub paced_rps: f64,
    /// Served with `--verify`: certified plans are replayed.
    pub verify: bool,
    /// Served with `--snapshot-load` of a snapshot made before the run.
    pub snapshot: bool,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "hot_mix",
        flags: &[],
        batch_lines: 4000,
        paced_rps: 1000.0,
        verify: false,
        snapshot: false,
    },
    Spec {
        name: "cold_verify",
        flags: &["--verify"],
        batch_lines: 1200,
        paced_rps: 300.0,
        verify: true,
        snapshot: false,
    },
    Spec {
        name: "edit_resume",
        flags: &[],
        batch_lines: 3000,
        // Each edit drains the in-flight work, so an edit reply waits not
        // for 72 later lines but only for the daemon's 8 KiB output buffer
        // to fill (about 20 edit replies): 13 ms at 1500 req/s, where host
        // stalls of 10–280 ms set the p99, and about 60 ms at 300 req/s.
        paced_rps: 300.0,
        verify: false,
        snapshot: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The response fields that vary run to run and are never compared.
const VOLATILE: [&str; 4] = ["micros", "analysis_micros", "trace", "cache"];

/// Drops [`VOLATILE`] members from a response object.
pub fn strip(json: Json) -> Json {
    match json {
        Json::Obj(members) => Json::Obj(
            members
                .into_iter()
                .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                .collect(),
        ),
        other => other,
    }
}

/// A request stream: the wire lines and, per line, the expected answer.
#[derive(Debug, Default)]
pub struct Stream {
    /// Every line, each terminated by `\n`.
    pub bytes: Vec<u8>,
    /// End offset (just past the `\n`) of each line.
    pub ends: Vec<usize>,
    /// The expected response, [`strip`]ped.
    pub expected: Vec<Json>,
    /// Lines whose program is deadlock-free and feasible by construction.
    pub must_certify: Vec<bool>,
}

impl Stream {
    fn push(&mut self, line: &str, expected: Json, must_certify: bool) {
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
        self.ends.push(self.bytes.len());
        self.expected.push(expected);
        self.must_certify.push(must_certify);
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// How many whole lines lie within the first `offset` bytes.
    pub fn lines_within(&self, offset: usize) -> usize {
        self.ends.partition_point(|&end| end <= offset)
    }

    /// Line `i` including its `\n`.
    pub fn line(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Checks response `i` against the expectation; `verify` adds the
    /// Theorem 1 replay check. Returns why it is wrong, if it is.
    pub fn check(&self, i: usize, response: &str, verify: bool) -> Result<(), String> {
        let actual = Json::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
        let status = actual.get("status").and_then(Json::as_str);
        if status == Some("invalid") {
            return Err(format!("answered invalid: {response}"));
        }
        let certified = status == Some("certified");
        if self.must_certify[i] && !certified {
            return Err(format!(
                "a deadlock-free program was not certified: {response}"
            ));
        }
        if verify && certified && actual.get("verified").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "certified plan did not replay to completion: {response}"
            ));
        }
        let actual = strip(actual);
        if actual != self.expected[i] {
            return Err(format!(
                "response differs from the oracle\n  got:      {actual}\n  expected: {}",
                self.expected[i]
            ));
        }
        Ok(())
    }
}

/// The snapshot `edit_resume` daemons load.
#[derive(Debug)]
pub struct Snapshot {
    pub path: PathBuf,
    pub bytes: u64,
    /// Fingerprints of every plan it holds.
    pub fingerprints: HashSet<u128>,
}

/// One relay-pipeline base program of `edit_resume`.
#[derive(Debug)]
pub struct Base {
    pub item: TrafficItem,
    pub program: Arc<Program>,
    pub compiled: Arc<CompiledTopology>,
    pub fingerprint: u128,
}

/// Everything a run needs, generated from the seed alone.
#[derive(Debug)]
pub struct Inputs {
    /// The saturating phase's batch (replayed by every batch daemon).
    pub batch: Stream,
    /// The open-loop paced phase's stream.
    pub paced: Stream,
    pub snapshot: Option<Snapshot>,
    /// `edit_resume`'s base programs (empty otherwise).
    pub bases: Vec<Base>,
    /// FNV-1a of every generated line, batch then paced.
    pub input_hash: u64,
}

/// Generates the workload's inputs and oracle. `paced_lines` is the
/// paced stream's length; the snapshot (if any) is written into `dir`.
pub fn generate(
    spec: &Spec,
    seed: u64,
    batch_lines: usize,
    paced_lines: usize,
    dir: &Path,
) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed);
    let mut oracle = Oracle::new(spec.verify);
    let (batch, paced, snapshot, bases) = match spec.name {
        "hot_mix" => (
            hot_mix(&mut rng.fork(), batch_lines, &mut oracle),
            hot_mix(&mut rng.fork(), paced_lines, &mut oracle),
            None,
            Vec::new(),
        ),
        "cold_verify" => (
            cold_verify(&mut rng.fork(), batch_lines, &mut oracle),
            cold_verify(&mut rng.fork(), paced_lines, &mut oracle),
            None,
            Vec::new(),
        ),
        "edit_resume" => {
            let bases = relay_bases();
            let snapshot = make_snapshot(
                &mut rng,
                &bases,
                &dir.join(format!("edit_resume-{seed}.snap")),
            )?;
            let batch = edit_resume(&mut rng.fork(), batch_lines, &bases, &mut oracle)?;
            let paced = edit_resume(&mut rng.fork(), paced_lines, &bases, &mut oracle)?;
            (batch, paced, Some(snapshot), bases)
        }
        other => return Err(format!("no generator for workload {other}")),
    };
    let mut hash = Fnv::new();
    hash.write(&batch.bytes);
    hash.write(&paced.bytes);
    Ok(Inputs {
        batch,
        paced,
        snapshot,
        bases,
        input_hash: hash.finish(),
    })
}

fn traffic_line(id: &str, item: &TrafficItem) -> String {
    WireResponse::Traffic { id, item }.to_json().to_string()
}

fn request_for(id: &str, item: &TrafficItem) -> AnalysisRequest {
    let mut request = AnalysisRequest::from_traffic(item);
    request.name = id.to_owned();
    request
}

/// `hot_mix`: exactly the `systolicd gen --seed S` stream (ids
/// `name#index`). Every traffic item is deadlock-free and generously
/// queued by construction.
fn hot_mix(rng: &mut Rng, count: usize, oracle: &mut Oracle) -> Stream {
    let mut stream = Stream::default();
    for (i, item) in traffic(&TrafficConfig::default(), rng.next_u64(), count)
        .iter()
        .enumerate()
    {
        let id = format!("{}#{i}", item.name);
        let expected = oracle.analysis(&request_for(&id, item));
        stream.push(&traffic_line(&id, item), expected, true);
    }
    stream
}

/// The one-off programs of `cold_verify`: 12–16 cell arrays, 24–40
/// messages, lines of about 2–3 KB.
fn cold_random_config(rng: &mut Rng) -> RandomConfig {
    RandomConfig {
        cells: rng.range(12, 16),
        messages: rng.range(24, 40),
        max_words: 4,
        max_span: 3,
        clustered: true,
    }
}

/// One `cold_verify` item and whether it must certify. Kernel sweeps are
/// drawn without repetition (`seen`) so no line repeats an earlier one.
fn cold_item(rng: &mut Rng, seen: &mut HashSet<String>) -> (TrafficItem, bool) {
    let roll = rng.range(0, 99);
    if roll >= 88 {
        if let Some(item) = kernel_sweep(rng, seen) {
            return (item, false);
        }
    }
    let config = cold_random_config(rng);
    let seed = rng.next_u64() >> 1;
    let program = random_program(&config, seed).expect("random_program builds for valid configs");
    let topology = random_topology(&config);
    match roll {
        // A scrambled op order: a candidate deadlock.
        60..=75 => (
            TrafficItem {
                name: format!("scrambled/{seed}"),
                program: scramble(&program, seed ^ 0x5eed),
                topology,
                queues_per_interval: config.messages,
            },
            false,
        ),
        // Too few queues: a candidate infeasible plan.
        76..=87 => (
            TrafficItem {
                name: format!("tight/{seed}"),
                program,
                topology,
                queues_per_interval: 1,
            },
            false,
        ),
        // Deadlock-free by construction, queued generously.
        _ => (
            TrafficItem {
                name: format!("random/{seed}"),
                program,
                topology,
                queues_per_interval: config.messages,
            },
            true,
        ),
    }
}

/// A larger sweep of a classic kernel, or `None` when the draw repeats
/// one already used.
fn kernel_sweep(rng: &mut Rng, seen: &mut HashSet<String>) -> Option<TrafficItem> {
    let item = match rng.range(0, 3) {
        0 => {
            let taps = rng.range(3, 12);
            let inputs = taps + rng.range(4, 40);
            TrafficItem {
                name: format!("fir/{taps}x{inputs}"),
                program: fir(taps, inputs).expect("fir builds"),
                topology: fir_topology(taps),
                queues_per_interval: 2,
            }
        }
        1 => {
            let n = rng.range(4, 12);
            TrafficItem {
                name: format!("matvec/{n}"),
                program: matvec(n).expect("matvec builds"),
                topology: matvec_topology(n),
                queues_per_interval: 2,
            }
        }
        2 => {
            let n = rng.range(4, 12);
            let rounds = rng.range(1, 6);
            TrafficItem {
                name: format!("sort/{n}x{rounds}"),
                program: odd_even_sort(n, rounds).expect("sort builds"),
                topology: sort_topology(n),
                queues_per_interval: 2,
            }
        }
        _ => {
            let rows = rng.range(2, 6);
            let cols = rng.range(2, 6);
            TrafficItem {
                name: format!("wavefront/{rows}x{cols}"),
                program: wavefront(rows, cols, 1).expect("wavefront builds"),
                topology: wavefront_topology(rows, cols),
                queues_per_interval: 2,
            }
        }
    };
    seen.insert(item.name.clone()).then_some(item)
}

/// `cold_verify`: every line a distinct, larger program.
fn cold_verify(rng: &mut Rng, count: usize, oracle: &mut Oracle) -> Stream {
    let mut stream = Stream::default();
    let mut seen = HashSet::new();
    for i in 0..count {
        let (item, must_certify) = cold_item(rng, &mut seen);
        let id = format!("{}#{i}", item.name);
        let expected = oracle.analysis(&request_for(&id, &item));
        stream.push(&traffic_line(&id, &item), expected, must_certify);
    }
    stream
}

/// Relay pipelines `edit_resume` edits.
const BASES: usize = 16;
/// Distinct small plans stored in the snapshot beside the bases.
/// 700 plans in all: fingerprints fold to odd shard indexes only, so the
/// daemon's default 8 × 256-entry plan cache holds about 1024 before one
/// shard starts evicting, and an evicted seed is an unknown edit base.
const SNAPSHOT_FILLER: usize = 684;

/// A relay pipeline on a linear array: cell `k` interleaves `R(M_{k-1})`
/// and `W(M_k)` word by word, the classic systolic wavefront.
fn relay(cells: usize, words: usize) -> Program {
    let mut builder = ProgramBuilder::new(cells);
    for k in 0..cells - 1 {
        builder
            .message(format!("M{k}"), k as u32, k as u32 + 1)
            .expect("relay message declares");
    }
    for _ in 0..words {
        for k in 0..cells - 1 {
            let name = format!("M{k}");
            builder
                .write_n(k as u32, &name, 1)
                .expect("relay write appends");
            builder
                .read_n(k as u32 + 1, &name, 1)
                .expect("relay read appends");
        }
    }
    builder.build().expect("relay program is valid")
}

/// The relay bases: 8 to 23 cells, 4 to 8 words. Their shapes are fixed,
/// not drawn from the seed, so every seed edits the same amount of
/// program and the seed moves only the edits and their order. They are
/// distinct: two chains over one program would share the daemon's session
/// for it, and their precomputed fingerprints would not.
fn relay_bases() -> Vec<Base> {
    (0..BASES)
        .map(|b| (8 + b, 4 + (3 * b) % 5))
        .enumerate()
        .map(|(b, (cells, words))| {
            let item = TrafficItem {
                name: format!("relay{b}/{cells}x{words}"),
                program: relay(cells, words),
                topology: Topology::linear(cells),
                queues_per_interval: 2,
            };
            let request = AnalysisRequest::from_traffic(&item);
            let compiled =
                CompiledTopology::compile(&request.topology, &request.config).into_shared();
            Base {
                fingerprint: request_fingerprint(
                    &request.program,
                    &request.topology,
                    &request.config,
                ),
                program: Arc::new(item.program.clone()),
                compiled,
                item,
            }
        })
        .collect()
}

/// The untimed prep run: serves the bases plus [`SNAPSHOT_FILLER`]
/// distinct small programs through an in-process service with the
/// daemon's default configuration and saves its snapshot to `path`.
fn make_snapshot(rng: &mut Rng, bases: &[Base], path: &Path) -> Result<Snapshot, String> {
    let filler = RandomConfig::default();
    let mut requests: Vec<AnalysisRequest> = bases
        .iter()
        .map(|base| AnalysisRequest::from_traffic(&base.item))
        .collect();
    for _ in 0..SNAPSHOT_FILLER {
        let seed = rng.next_u64() >> 1;
        let mut request = AnalysisRequest::new(
            format!("filler/{seed}"),
            random_program(&filler, seed).expect("random_program builds"),
            random_topology(&filler),
        );
        request.config.queues_per_interval = filler.messages;
        requests.push(request);
    }
    let service = AnalysisService::new(ServiceConfig::default());
    let fingerprints: HashSet<u128> = service
        .run_batch(requests)
        .iter()
        .map(|response| response.fingerprint)
        .collect();
    if service.cache_entries() != fingerprints.len() {
        return Err(format!(
            "the snapshot prep run kept {} of {} plans",
            service.cache_entries(),
            fingerprints.len()
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let report = service
        .save_snapshot(path)
        .map_err(|e| format!("cannot save snapshot {}: {e}", path.display()))?;
    Ok(Snapshot {
        path: path.to_owned(),
        bytes: report.bytes,
        fingerprints,
    })
}

/// Per-base edit state of one stream: the session the daemon will hold
/// and the ops appended since the base.
struct Chain {
    session: Option<IncrementalSession>,
    fingerprint: u128,
    appended: Vec<usize>,
    /// Grows so far, offset by a seeded phase: every eighth is a full grow.
    grows: usize,
}

/// The next edit batch of a chain: when the program is at its base, grow
/// it (one balanced word on one or two relay messages, or on every
/// message every eighth grow, which dirties most cells and takes the
/// from-scratch fallback); otherwise remove exactly what was appended.
fn next_edit(rng: &mut Rng, cells: usize, chain: &mut Chain) -> Vec<NamedEditOp> {
    let appended = &mut chain.appended;
    if !appended.is_empty() {
        let mut ops = Vec::new();
        while let Some(cell) = appended.pop() {
            ops.push(NamedEditOp::RemoveTail {
                cell: format!("c{cell}"),
            });
        }
        return ops;
    }
    // Full grows come at a fixed one in eight rather than by chance, so
    // every seed asks for about as many from-scratch fallbacks.
    chain.grows += 1;
    let messages: Vec<usize> = if chain.grows.is_multiple_of(8) {
        (0..cells - 1).collect()
    } else {
        let first = rng.range(0, cells - 2);
        let mut chosen = vec![first];
        let second = rng.range(0, cells - 2);
        if rng.percent(50) && second != first {
            chosen.push(second);
        }
        chosen.sort_unstable();
        chosen
    };
    // Increasing message order keeps each cell's appended tail in relay
    // order (`R(M_{k-1})` before `W(M_k)`), so the edit stays
    // deadlock-free.
    let mut ops = Vec::new();
    for k in messages {
        ops.push(NamedEditOp::Append {
            cell: format!("c{k}"),
            write: true,
            message: format!("M{k}"),
        });
        ops.push(NamedEditOp::Append {
            cell: format!("c{}", k + 1),
            write: false,
            message: format!("M{k}"),
        });
        appended.push(k);
        appended.push(k + 1);
    }
    ops
}

fn edit_line(id: &str, base: u128, ops: &[NamedEditOp]) -> String {
    let s = |v: &str| Json::Str(v.to_owned());
    let ops = ops
        .iter()
        .map(|op| match op {
            NamedEditOp::Append {
                cell,
                write,
                message,
            } => Json::Obj(vec![
                ("edit".to_owned(), s("append")),
                ("cell".to_owned(), s(cell)),
                (
                    "op".to_owned(),
                    s(&format!("{}({message})", if *write { "W" } else { "R" })),
                ),
            ]),
            NamedEditOp::RemoveTail { cell } => Json::Obj(vec![
                ("edit".to_owned(), s("remove_tail")),
                ("cell".to_owned(), s(cell)),
            ]),
            other => unreachable!("the generator emits no {other:?}"),
        })
        .collect();
    Json::Obj(vec![
        ("op".to_owned(), s("edit")),
        ("id".to_owned(), s(id)),
        ("base".to_owned(), s(&format!("{base:#034x}"))),
        ("ops".to_owned(), Json::Arr(ops)),
    ])
    .to_string()
}

/// Resolves named ops against `program`, as the service does.
pub fn resolve(program: &Program, ops: &[NamedEditOp]) -> Result<Vec<EditOp>, String> {
    let cell = |name: &str| program.cell_id(name).ok_or(format!("unknown cell {name}"));
    let message = |name: &str| {
        program
            .message_id(name)
            .ok_or(format!("unknown message {name}"))
    };
    ops.iter()
        .map(|op| match op {
            NamedEditOp::Append {
                cell: c,
                write,
                message: m,
            } => {
                let m = message(m)?;
                Ok(EditOp::AppendOp {
                    cell: cell(c)?,
                    op: if *write { Op::write(m) } else { Op::read(m) },
                })
            }
            NamedEditOp::RemoveTail { cell: c } => Ok(EditOp::RemoveTailOp { cell: cell(c)? }),
            other => Err(format!("the generator emits no {other:?}")),
        })
        .collect()
}

/// Draws bases in seeded rounds: each round is a fresh shuffle of every
/// base, so each base comes up equally often whatever the seed.
#[derive(Default)]
struct Deck {
    order: Vec<usize>,
}

impl Deck {
    fn draw(&mut self, rng: &mut Rng, len: usize) -> usize {
        if self.order.is_empty() {
            self.order = (0..len).collect();
            for i in (1..len).rev() {
                self.order.swap(i, rng.range(0, i));
            }
        }
        self.order.pop().expect("a refilled deck is not empty")
    }
}

/// `edit_resume`: chained edits of the snapshot's relay bases, with a warm
/// re-request of a base every fifth line. Bases are drawn from decks
/// rather than at random, so every seed re-requests and edits each base
/// equally often. The warm replies carry whole plans and are several times
/// longer than edit replies; drawn at random, their count and size moved
/// how soon the daemon's output buffer filled, and with it the latency, by
/// a tenth from one seed to another.
fn edit_resume(
    rng: &mut Rng,
    count: usize,
    bases: &[Base],
    oracle: &mut Oracle,
) -> Result<Stream, String> {
    let mut stream = Stream::default();
    let mut chains: Vec<Chain> = bases
        .iter()
        .map(|base| Chain {
            session: None,
            fingerprint: base.fingerprint,
            appended: Vec::new(),
            grows: rng.range(0, 7),
        })
        .collect();
    let mut warm_deck = Deck::default();
    let mut edit_deck = Deck::default();
    for i in 0..count {
        let warm = i % 5 == 4;
        let deck = if warm { &mut warm_deck } else { &mut edit_deck };
        let b = deck.draw(rng, bases.len());
        let base = &bases[b];
        if warm {
            let id = format!("base{b}#{i}");
            let expected = oracle.analysis(&request_for(&id, &base.item));
            stream.push(&traffic_line(&id, &base.item), expected, true);
            continue;
        }
        let id = format!("edit{b}#{i}");
        let chain = &mut chains[b];
        let ops = next_edit(rng, base.program.num_cells(), chain);
        let line = edit_line(&id, chain.fingerprint, &ops);
        let session = chain.session.get_or_insert_with(|| {
            IncrementalSession::seed(
                Analyzer::new(Arc::clone(&base.compiled)),
                Arc::clone(&base.program),
                IncrementalConfig {
                    fallback_ratio: ServiceConfig::default().incremental_fallback_ratio,
                },
            )
        });
        let resolved = resolve(session.program(), &ops)?;
        let reuse = session
            .apply(&resolved)
            .map_err(|e| format!("generated edit {id} does not apply: {e}"))?;
        let outcome = session_outcome(session);
        cross_check(session, &outcome, &id)?;
        let edit = EditResponse {
            response: AnalysisResponse {
                seq: 0,
                name: id,
                fingerprint: session.fingerprint(),
                provenance: CacheProvenance::Incremental,
                outcome: Arc::new(outcome),
                handle_micros: 0,
                trace_id: 0,
            },
            base: chain.fingerprint,
            reuse,
        };
        chain.fingerprint = edit.response.fingerprint;
        stream.push(&line, strip(WireResponse::Edit(&edit).to_json()), true);
    }
    Ok(stream)
}

/// A session's current outcome in the service's shape (no replay:
/// `edit_resume` runs without `--verify`).
fn session_outcome(session: &IncrementalSession) -> Result<Certified, Rejection> {
    let diagnostics = session.diagnostics().clone().into_iter().collect();
    match session.outcome().result() {
        Ok(analysis) => {
            let plan = Arc::new(analysis.plan().clone());
            let program = session.program();
            Ok(Certified {
                max_queues_per_interval: plan.requirements().max_per_interval(),
                message_labels: program
                    .message_ids()
                    .map(|m| (program.message(m).name().to_owned(), plan.label(m)))
                    .collect(),
                labeling_method: analysis.labeling_method(),
                plan,
                verified: None,
                analysis_micros: 0,
                diagnostics,
            })
        }
        Err(error) => Err(Rejection {
            error: ServiceError::Analysis(error.clone()),
            diagnostics,
        }),
    }
}

/// The incremental verdict must equal a from-scratch analysis of the
/// edited program.
fn cross_check(
    session: &IncrementalSession,
    outcome: &Result<Certified, Rejection>,
    id: &str,
) -> Result<(), String> {
    let scratch =
        Analyzer::new(Arc::clone(session.analyzer().compiled())).diagnose(session.program());
    let agree = match (scratch.result(), outcome) {
        (Ok(analysis), Ok(certified)) => analysis.plan().labeling() == certified.plan.labeling(),
        (Err(a), Err(b)) => b.as_analysis() == Some(a),
        _ => false,
    };
    if agree {
        Ok(())
    } else {
        Err(format!(
            "{id}: incremental analysis disagrees with a from-scratch analysis"
        ))
    }
}

/// From-scratch expected outcomes, memoized by request fingerprint.
struct Oracle {
    verify: bool,
    compiled: HashMap<u128, Arc<CompiledTopology>>,
    outcomes: HashMap<u128, ServiceOutcome>,
}

impl Oracle {
    fn new(verify: bool) -> Oracle {
        Oracle {
            verify,
            compiled: HashMap::new(),
            outcomes: HashMap::new(),
        }
    }

    /// The expected (stripped) response to `request`.
    fn analysis(&mut self, request: &AnalysisRequest) -> Json {
        let fingerprint = request_fingerprint(&request.program, &request.topology, &request.config);
        let outcome = match self.outcomes.get(&fingerprint) {
            Some(outcome) => Arc::clone(outcome),
            None => {
                let outcome = Arc::new(self.compute(request));
                self.outcomes.insert(fingerprint, Arc::clone(&outcome));
                outcome
            }
        };
        let response = AnalysisResponse {
            seq: 0,
            name: request.name.clone(),
            fingerprint,
            provenance: CacheProvenance::Miss,
            outcome,
            handle_micros: 0,
            trace_id: 0,
        };
        strip(WireResponse::Analysis(&response).to_json())
    }

    fn compute(&mut self, request: &AnalysisRequest) -> Result<Certified, Rejection> {
        let config: &AnalysisConfig = &request.config;
        let compiled = Arc::clone(
            self.compiled
                .entry(CompiledTopology::fingerprint_of(&request.topology, config))
                .or_insert_with(|| {
                    CompiledTopology::compile(&request.topology, config).into_shared()
                }),
        );
        let (result, diagnostics) = Analyzer::new(Arc::clone(&compiled))
            .diagnose(&request.program)
            .into_parts();
        let diagnostics: Vec<_> = diagnostics.into_iter().collect();
        let analysis = result.map_err(|error| Rejection {
            error: ServiceError::Analysis(error),
            diagnostics: diagnostics.clone(),
        })?;
        let labeling_method = analysis.labeling_method();
        let plan = Arc::new(analysis.into_plan());
        let verified = if self.verify {
            let report =
                verify_plan_compiled(&request.program, &compiled, &plan, SimConfig::default())
                    .map_err(|error| Rejection {
                        error: ServiceError::Analysis(error.into()),
                        diagnostics: diagnostics.clone(),
                    })?;
            Some(report)
        } else {
            None
        };
        Ok(Certified {
            max_queues_per_interval: plan.requirements().max_per_interval(),
            message_labels: request
                .program
                .message_ids()
                .map(|m| (request.program.message(m).name().to_owned(), plan.label(m)))
                .collect(),
            plan,
            labeling_method,
            verified,
            analysis_micros: 0,
            diagnostics,
        })
    }
}
