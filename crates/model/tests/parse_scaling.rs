//! `parse_program` resolves names through hash tables, so its cost grows
//! linearly with the number of declared messages, not quadratically.

use std::time::{Duration, Instant};

use systolic_model::parse_program;

/// A `cells 2` program declaring `messages` one-word messages from `c0`
/// to `c1`: at 16 000 messages this is about 690 KB of text.
fn many_messages(messages: usize) -> String {
    let mut text = String::from("cells 2\n");
    for m in 0..messages {
        text.push_str(&format!("message M{m}: c0 -> c1\n"));
    }
    for (cell, op) in [("c0", 'W'), ("c1", 'R')] {
        text.push_str(&format!("program {cell} {{"));
        for m in 0..messages {
            text.push_str(&format!(" {op}(M{m})"));
        }
        text.push_str(" }\n");
    }
    text
}

/// The fastest of three parses of `text`.
fn best_parse_time(text: &str) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let program = parse_program(text).expect("the program is valid");
            let elapsed = start.elapsed();
            assert_eq!(program.num_messages() * 2, program.total_ops());
            elapsed
        })
        .min()
        .expect("three runs")
}

#[test]
fn parse_time_grows_linearly_with_message_count() {
    let small = many_messages(4_000);
    let large = many_messages(16_000);
    assert!(large.len() > 600_000 && large.len() < 1 << 20);
    let (t_small, t_large) = (best_parse_time(&small), best_parse_time(&large));
    // Four times the messages: about 4x the time when linear, 16x when
    // the name lookups scan. 10x leaves a wide margin for noise either way.
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-6);
    assert!(
        ratio < 10.0,
        "4000 messages took {t_small:?}, 16000 took {t_large:?} ({ratio:.1}x)"
    );
}
