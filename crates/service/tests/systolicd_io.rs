//! End-to-end tests of the `systolicd` binary's line I/O: hostile input
//! lines are answered, never fatal, and `gen` output stays byte-stable.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use systolic_service::wire::{WireResponse, MAX_LINE_BYTES};
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

#[test]
fn hostile_lines_get_one_invalid_reply_each() {
    let valid = valid_lines(4);
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
            "certified"
        ]
    );
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("over the limit of 1048576 bytes"), "{text}");
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
