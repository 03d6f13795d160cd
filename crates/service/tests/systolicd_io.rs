//! End-to-end tests of the `systolicd` binary's line I/O: hostile input
//! lines are answered, never fatal, and `gen` output stays byte-stable.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use systolic_core::request_fingerprint;
use systolic_service::wire::{parse_line, WireRequest, WireResponse, MAX_LINE_BYTES};
use systolic_service::Json;
use systolic_workloads::{traffic, TrafficConfig};

/// Runs `systolicd` with `args`, feeding `input` on stdin from a separate
/// thread so a full stdout pipe cannot stall the write.
fn systolicd(args: &[&str], input: Vec<u8>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_systolicd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("systolicd starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || {
        // The daemon reads to end of input, so the write completes.
        stdin.write_all(&input).expect("stdin accepts the input");
    });
    let output = child.wait_with_output().expect("systolicd finishes");
    writer.join().expect("writer thread");
    output
}

/// `count` valid request lines, exactly as `systolicd gen` renders them.
fn valid_lines(count: usize) -> Vec<Vec<u8>> {
    traffic(&TrafficConfig::default(), 7, count)
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let id = format!("{}#{i}", item.name);
            WireResponse::Traffic { id: &id, item }
                .to_json()
                .to_string()
                .into_bytes()
        })
        .collect()
}

/// The `status` of every response line, in order.
fn statuses(output: &Output) -> Vec<String> {
    String::from_utf8(output.stdout.clone())
        .expect("responses are UTF-8")
        .lines()
        .map(|line| {
            let response = Json::parse(line).expect("each response is JSON");
            response
                .get("status")
                .and_then(Json::as_str)
                .expect("each response has a status")
                .to_owned()
        })
        .collect()
}

fn join_lines(lines: &[Vec<u8>]) -> Vec<u8> {
    let mut input = Vec::new();
    for line in lines {
        input.extend_from_slice(line);
        input.push(b'\n');
    }
    input
}

#[test]
fn an_invalid_utf8_line_is_answered_and_its_neighbours_served() {
    let valid = valid_lines(3);
    let input = join_lines(&[
        valid[0].clone(),
        valid[1].clone(),
        b"{\"id\":\"bad\xff\"}".to_vec(),
        valid[2].clone(),
    ]);
    let output = systolicd(&["serve"], input);
    assert_eq!(output.status.code(), Some(1), "a malformed line exits 1");
    assert_eq!(
        statuses(&output),
        ["certified", "certified", "invalid", "certified"]
    );
    let text = String::from_utf8(output.stdout).unwrap();
    let invalid = text.lines().nth(2).unwrap();
    assert!(invalid.contains("\"id\":\"line-3\""), "{invalid}");
    assert!(invalid.contains("not valid UTF-8"), "{invalid}");
}

/// A request line whose `cells 2` program declares 16 000 messages (about
/// 690 KB) and leaves the last one unread: it is rejected only once the
/// whole program is parsed.
fn many_messages_line() -> Vec<u8> {
    let messages = 16_000;
    let mut program = String::from("cells 2\n");
    for m in 0..messages {
        program.push_str(&format!("message M{m}: c0 -> c1\n"));
    }
    for (cell, op, count) in [("c0", 'W', messages), ("c1", 'R', messages - 1)] {
        program.push_str(&format!("program {cell} {{"));
        for m in 0..count {
            program.push_str(&format!(" {op}(M{m})"));
        }
        program.push_str(" }\n");
    }
    let line = format!(
        "{{\"id\":\"many\",\"program\":{},\"topology\":\"linear:2\"}}",
        Json::Str(program)
    );
    assert!(line.len() > 600_000 && line.len() < MAX_LINE_BYTES);
    line.into_bytes()
}

#[test]
fn hostile_lines_get_one_invalid_reply_each() {
    let valid = valid_lines(6);
    let long_string = format!(
        "{{\"id\":\"long\",\"program\":\"{}\",\"topology\":\"linear:2\"}}",
        "x".repeat(400_000)
    );
    let oversized = format!("{{\"id\":\"{}\"}}", "y".repeat(MAX_LINE_BYTES));
    let input = join_lines(&[
        valid[0].clone(),
        long_string.into_bytes(),
        valid[1].clone(),
        oversized.into_bytes(),
        valid[2].clone(),
        b"{\"id\":\"\xc3\x28\"}".to_vec(),
        valid[3].clone(),
        many_messages_line(),
        valid[4].clone(),
        b"{\"id\":\"huge\",\"program\":\"cells 100000000\\n\",\"topology\":\"linear:2\"}".to_vec(),
        valid[5].clone(),
    ]);
    let output = systolicd(&["serve"], input);
    assert_eq!(output.status.code(), Some(1));
    assert_eq!(
        statuses(&output),
        [
            "certified",
            "invalid",
            "certified",
            "invalid",
            "certified",
            "invalid",
            "certified",
            "invalid",
            "certified",
            "invalid",
            "certified"
        ]
    );
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("over the limit of 1048576 bytes"), "{text}");
    let many = text.lines().nth(7).unwrap();
    assert!(many.contains("\"id\":\"line-8\""), "{many}");
    assert!(many.contains("read 0 times"), "{many}");
    // `cells N` is bounded before any per-cell allocation.
    let huge = text.lines().nth(9).unwrap();
    assert!(huge.contains("\"id\":\"line-10\""), "{huge}");
    assert!(
        huge.contains("exceeds the limit of 1048576 cells"),
        "{huge}"
    );
}

/// One line of each way an analysis line can fail to decode, after or
/// before the JSON envelope is split off.
fn undecodable_lines() -> Vec<Vec<u8>> {
    let program = "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n";
    let with = |program: &str, topology: &str, extra: &str| {
        format!(
            "{{\"program\":{},\"topology\":\"{topology}\"{extra}}}",
            Json::Str(program.to_owned())
        )
        .into_bytes()
    };
    vec![
        b"not json".to_vec(),
        b"{\"op\":\"explode\"}".to_vec(),
        with(&program.replace("c0 -> c1", "c0 -> c9"), "linear:2", ""),
        with(program, "tree:3", ""),
        with(program, "linear:2", ",\"lookahead\":[1,2]"),
        with(program, "linear:2", ",\"queues\":0"),
    ]
}

/// A response line without the fields that vary from run to run: the
/// timings, the trace id, the cache provenance (racing workers may both
/// miss), a snapshot's byte size (it stores the timings) and everything
/// of a metrics dump but its status.
fn stable(line: &str) -> Json {
    let Json::Obj(members) = Json::parse(line).expect("each response is JSON") else {
        panic!("a response is an object: {line}");
    };
    let metrics = members
        .iter()
        .any(|(key, value)| key == "status" && value.as_str() == Some("metrics"));
    Json::Obj(
        members
            .into_iter()
            .filter(|(key, _)| {
                !["micros", "analysis_micros", "trace", "cache", "bytes"].contains(&key.as_str())
                    && (!metrics || key == "status")
            })
            .collect(),
    )
}

#[test]
fn pooled_decoding_keeps_replies_in_line_order() {
    let Ok(WireRequest::Analysis(base)) = parse_line(EDIT_BASE, 1) else {
        panic!("the edit base is an analysis request");
    };
    let fingerprint = request_fingerprint(&base.program, &base.topology, &base.config);
    let edit = format!(
        "{{\"id\":\"e1\",\"op\":\"edit\",\"base\":\"{fingerprint:#034x}\",\"ops\":[\
         {{\"edit\":\"append\",\"cell\":\"c0\",\"op\":\"W(A)\"}},\
         {{\"edit\":\"append\",\"cell\":\"c1\",\"op\":\"R(A)\"}}]}}"
    );
    // A non-string `op` names no control op: the line is a request.
    let numeric_op = String::from_utf8(valid_lines(1).remove(0))
        .unwrap()
        .replacen("{\"id\"", "{\"op\":5,\"id\"", 1)
        .into_bytes();
    let mut specials: Vec<(Vec<u8>, &str)> = undecodable_lines()
        .into_iter()
        .map(|line| (line, "invalid"))
        .collect();
    specials.extend([
        (numeric_op, "request"),
        (b"{\"op\":\"metrics\"}".to_vec(), "metrics"),
        (EDIT_BASE.as_bytes().to_vec(), "request"),
        (edit.into_bytes(), "edit"),
        (b"{\"op\":\"snapshot\",\"id\":\"s1\"}".to_vec(), "snapshot"),
    ]);
    let valid = valid_lines(80);
    let mut lines = Vec::new();
    let mut kinds = Vec::new();
    let mut specials = specials.into_iter();
    for (i, line) in valid.into_iter().enumerate() {
        lines.push(line);
        kinds.push("request");
        if i % 7 == 3 {
            if let Some((line, kind)) = specials.next() {
                lines.push(line);
                kinds.push(kind);
            }
        }
    }
    assert!(specials.next().is_none(), "every special line is placed");
    let input = join_lines(&lines);

    let run = |workers: &str| {
        let snap = std::env::temp_dir().join(format!(
            "systolicd-order-{workers}-{}.snap",
            std::process::id()
        ));
        let output = systolicd(
            &[
                "serve",
                "--workers",
                workers,
                "--summary-json",
                "--snapshot-save",
                snap.to_str().unwrap(),
            ],
            input.clone(),
        );
        let _ = std::fs::remove_file(snap);
        output
    };
    let (pooled, single) = (run("4"), run("1"));
    for output in [&pooled, &single] {
        assert_eq!(output.status.code(), Some(1), "invalid lines exit 1");
        let summary = summary_json(&String::from_utf8(output.stderr.clone()).unwrap());
        let count = |kind: &str| kinds.iter().filter(|k| **k == kind).count() as u64;
        assert_eq!(
            summary.get("invalid_lines").and_then(Json::as_u64),
            Some(count("invalid"))
        );
        assert_eq!(
            summary.get("requests").and_then(Json::as_u64),
            Some(count("request"))
        );
    }

    let text = String::from_utf8(pooled.stdout).unwrap();
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), kinds.len(), "one reply per line");
    for (i, (reply, kind)) in replies.iter().zip(&kinds).enumerate() {
        let status = Json::parse(reply)
            .unwrap()
            .get("status")
            .and_then(Json::as_str)
            .map(str::to_owned);
        if *kind == "invalid" {
            assert_eq!(status.as_deref(), Some("invalid"), "line {}", i + 1);
            assert!(
                reply.contains(&format!("\"id\":\"line-{}\"", i + 1)),
                "{reply}"
            );
        } else {
            assert_ne!(
                status.as_deref(),
                Some("invalid"),
                "line {}: {reply}",
                i + 1
            );
        }
    }
    let single = String::from_utf8(single.stdout).unwrap();
    let stable_lines = |text: &str| text.lines().map(stable).collect::<Vec<_>>();
    assert_eq!(stable_lines(&text), stable_lines(&single));
}

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn gen_output_is_byte_identical_to_the_recorded_stream() {
    // Recorded from `systolicd gen --count 2000 --seed 7` before the
    // run-copy string encoder replaced the per-character one. Benchmark
    // inputs are rendered by the same encoder, so this pins them too.
    let output = systolicd(&["gen", "--count", "2000", "--seed", "7"], Vec::new());
    assert!(output.status.success());
    assert_eq!(output.stdout.len(), 1_115_452);
    assert_eq!(fnv1a(&output.stdout), 0xc4fb_3e7c_9d29_5194);
}

/// The edit base used by the summary tests: two independent streams on a
/// 4-cell line, so a balanced append stays on the incremental path.
const EDIT_BASE: &str = "{\"id\":\"base\",\"program\":\"cells 4\\nmessage A: c0 -> c1\\n\
message B: c2 -> c3\\nprogram c0 { W(A) }\\nprogram c1 { R(A) }\\nprogram c2 { W(B) }\\n\
program c3 { R(B) }\\n\",\"topology\":\"linear:4\"}";

/// A fixed `gen` stream, the edit base, and one `edit` line chained on
/// the base's fingerprint.
fn summary_input() -> Vec<u8> {
    let Ok(WireRequest::Analysis(base)) = parse_line(EDIT_BASE, 1) else {
        panic!("the edit base is an analysis request");
    };
    let fingerprint = request_fingerprint(&base.program, &base.topology, &base.config);
    let edit = format!(
        "{{\"id\":\"e1\",\"op\":\"edit\",\"base\":\"{fingerprint:#034x}\",\"ops\":[\
         {{\"edit\":\"append\",\"cell\":\"c0\",\"op\":\"W(A)\"}},\
         {{\"edit\":\"append\",\"cell\":\"c1\",\"op\":\"R(A)\"}}]}}"
    );
    let mut lines = valid_lines(40);
    lines.extend([EDIT_BASE.as_bytes().to_vec(), edit.into_bytes()]);
    join_lines(&lines)
}

/// The row labels of the `--summary` table on `stderr`, in order.
fn table_labels(stderr: &str) -> Vec<&str> {
    let mut lines = stderr
        .lines()
        .skip_while(|line| !line.starts_with("metric"));
    assert!(lines.next().is_some(), "no summary table in {stderr}");
    let width = lines.next().and_then(|rule| rule.find(' ')).expect("rule");
    lines
        .take_while(|line| !line.is_empty() && !line.starts_with('{'))
        .map(|line| line[..width].trim_end())
        .collect()
}

/// The `--summary-json` object on `stderr`.
fn summary_json(stderr: &str) -> Json {
    let line = stderr.lines().find(|line| line.starts_with('{'));
    Json::parse(line.expect("a summary object")).expect("the summary is JSON")
}

/// The summary labels, with `verify` (`|`-separated) as the per-topology
/// rows. The CI steps grep these rows with their exact padding, which the
/// longest label sets.
fn expected_labels(verify: &str) -> Vec<String> {
    let labels = format!(
        "requests|cache hits|cache misses|cache evictions|cache entries|hit rate|\
         latency mean (us)|latency p50 (us)|latency p99 (us)|latency max (us)|\
         arena cache hits|arena cache misses|arena cache evictions|arena hit rate|\
         arena cache budget|{verify}|incremental edits|incremental reuse hits|\
         incremental fallbacks|incremental dirty cells|incremental sessions|\
         incremental session evictions|snapshot loads|snapshot plans restored|\
         snapshot seeds restored|snapshot entries dropped|snapshot loads rejected|\
         snapshot saves|snapshot last save bytes|snapshot warm hits|wall time (s)|\
         throughput (req/s)|invalid lines"
    );
    labels.split('|').map(str::to_owned).collect()
}

#[test]
fn summary_table_and_json_surface_is_pinned() {
    let input = summary_input();
    let snap = std::env::temp_dir().join(format!("systolicd-summary-{}.snap", std::process::id()));
    let snap = snap.to_str().unwrap();
    let flags = [
        "serve",
        "--workers",
        "1",
        "--verify",
        "--summary",
        "--summary-json",
    ];
    let cold = systolicd(
        &[&flags[..], &["--snapshot-save", snap]].concat(),
        input.clone(),
    );
    let warm = systolicd(&[&flags[..], &["--snapshot-load", snap]].concat(), input);
    let _ = std::fs::remove_file(snap);
    assert!(cold.status.success() && warm.status.success());
    let (cold, warm) = (
        String::from_utf8(cold.stderr).unwrap(),
        String::from_utf8(warm.stderr).unwrap(),
    );

    let verify = "verify[linear:3]|verify[linear:4]|verify[linear:5]|verify[linear:6]|\
                  verify[mesh:2x2]|verify[mesh:2x3]|verify[mesh:3x3]|verify[ring:4]|verify[ring:6]";
    assert_eq!(table_labels(&cold), expected_labels(verify), "{cold}");
    // The warm restart answers the stream from the snapshot: only the
    // edit is analyzed, so only its topology is chased.
    assert_eq!(
        table_labels(&warm),
        expected_labels("verify[linear:4]"),
        "{warm}"
    );

    let keys = "requests,invalid_lines,wall_seconds,throughput_per_sec,cache_hits,cache_misses,\
                cache_hit_rate,latency_mean_us,latency_p50_us,latency_p99_us,latency_max_us,\
                arena_hits,arena_misses,arena_evictions,hw_threads,snapshot_loads,\
                snapshot_plans_restored,snapshot_seeds_restored,snapshot_dropped,\
                snapshot_loads_rejected,snapshot_saves,snapshot_warm_hits";
    for stderr in [&cold, &warm] {
        let Json::Obj(members) = summary_json(stderr) else {
            panic!("the summary is not an object: {stderr}");
        };
        let found: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(found.join(","), keys);
    }
}

#[test]
fn summary_json_counts_equal_the_metrics_exposition() {
    let metrics =
        std::env::temp_dir().join(format!("systolicd-metrics-{}.txt", std::process::id()));
    let metrics = metrics.to_str().unwrap();
    let output = systolicd(
        &[
            "serve",
            "--verify",
            "--summary-json",
            "--metrics-file",
            metrics,
        ],
        summary_input(),
    );
    assert!(output.status.success(), "{output:?}");
    let exposition = std::fs::read_to_string(metrics).expect("metrics written");
    let _ = std::fs::remove_file(metrics);
    let series = |name: &str| -> u64 {
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} in {exposition}"))
            .parse()
            .unwrap()
    };
    let summary = summary_json(&String::from_utf8(output.stderr).unwrap());
    for (key, name) in [
        ("requests", "systolic_service_requests_total"),
        ("cache_hits", "systolic_plan_cache_hits_total"),
        ("cache_misses", "systolic_plan_cache_misses_total"),
        ("arena_hits", "systolic_arena_cache_hits_total"),
    ] {
        assert_eq!(
            summary.get(key).and_then(Json::as_u64),
            Some(series(name)),
            "{key} vs {name}"
        );
    }
    // Every counted verify outcome is one recorded replay, in both replay
    // histograms (the cycle histogram summed over its topology series).
    let summed = |prefix: &str| -> u64 {
        exposition
            .lines()
            .filter_map(|line| line.strip_prefix(prefix)?.rsplit_once(' '))
            .map(|(_, value)| value.parse::<u64>().unwrap())
            .sum()
    };
    let outcomes = summed("systolic_verify_outcomes_total{");
    assert!(outcomes > 0, "{exposition}");
    assert_eq!(summed("systolic_verify_replay_cycles_count{"), outcomes);
    assert_eq!(
        series("systolic_verify_replay_duration_micros_count"),
        outcomes
    );
}

#[test]
fn trace_file_shows_where_a_cache_hit_spent_its_time() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("systolicd-trace-{}.jsonl", std::process::id()));
    let metrics = dir.join(format!("systolicd-wire-{}.txt", std::process::id()));
    let line = valid_lines(1).remove(0);
    let output = systolicd(
        &[
            "serve",
            "--workers",
            "1",
            "--trace-file",
            trace.to_str().unwrap(),
            "--metrics-file",
            metrics.to_str().unwrap(),
        ],
        join_lines(&[line.clone(), line]),
    );
    assert!(output.status.success(), "{output:?}");
    let spans = std::fs::read_to_string(&trace).expect("trace written");
    let exposition = std::fs::read_to_string(&metrics).expect("metrics written");
    let _ = (std::fs::remove_file(trace), std::fs::remove_file(metrics));

    let text = String::from_utf8(output.stdout).unwrap();
    let hit = Json::parse(text.lines().nth(1).unwrap()).unwrap();
    assert_eq!(hit.get("cache").and_then(Json::as_str), Some("hit"));
    let trace_id = hit.get("trace").and_then(Json::as_u64).unwrap();
    let mut names: Vec<String> = spans
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .filter(|span| span.get("trace").and_then(Json::as_u64) == Some(trace_id))
        .map(|span| span.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    names.sort_unstable();
    assert_eq!(names, ["request", "wire.decode", "wire.encode"]);
    for name in [
        "systolic_wire_decode_duration_micros_count 2",
        "systolic_wire_encode_duration_micros_count 2",
    ] {
        assert!(exposition.contains(name), "no {name} in {exposition}");
    }
}
