//! Property: replaying a batch of certified plans through one reused
//! `SimArena` is observationally identical to one-shot `verify_plan`
//! calls — every `VerifyReport` equal, `ReplayDeadlock` details included —
//! over generated mixed-traffic workloads. Arena reuse (reset-in-place
//! pools, plan-route reuse, queue-pool growth across a batch) must never
//! leak state between replays.
//!
//! Property two: the served replay path, `ArenaLru::verify`, over an
//! interleaved mesh/torus/linear batch matches `verify_plan_compiled` per
//! item — under `ArenaBudget::Fixed(1)`, which evicts on every topology
//! switch, and under `ArenaBudget::Auto`, which keeps every fabric warm;
//! on buffered queues and on deadlocking latch replays alike.

use std::sync::Arc;

use proptest::prelude::*;
use systolic::core::{AnalysisConfig, Analyzer, CommPlan, CompiledTopology, Lookahead};
use systolic::model::{Program, Topology};
use systolic::sim::{
    verify_plan, verify_plan_compiled, ArenaBudget, ArenaLru, QueueConfig, SimArena, SimConfig,
};
use systolic::workloads::{fig5_p2, fig7, fig7_topology, traffic, TrafficConfig, TrafficItem};

/// One same-topology batch: the plans one reused arena replays.
struct Batch {
    compiled: Arc<CompiledTopology>,
    topology: Topology,
    items: Vec<(Program, Arc<CommPlan>)>,
}

/// Groups a traffic stream's certified plans by `(topology, config)`
/// fingerprint — mirroring the service's shared-compilation cache.
fn certified_batches(stream: &[TrafficItem]) -> Vec<Batch> {
    let mut batches: Vec<Batch> = Vec::new();
    for item in stream {
        let config = AnalysisConfig {
            queues_per_interval: item.queues_per_interval,
            ..Default::default()
        };
        let fingerprint = CompiledTopology::fingerprint_of(&item.topology, &config);
        let batch = match batches
            .iter()
            .position(|b| b.compiled.fingerprint() == fingerprint)
        {
            Some(pos) => &mut batches[pos],
            None => {
                let compiled = CompiledTopology::compile(&item.topology, &config).into_shared();
                batches.push(Batch {
                    compiled,
                    topology: item.topology.clone(),
                    items: Vec::new(),
                });
                batches.last_mut().expect("just pushed")
            }
        };
        let analyzer = Analyzer::new(Arc::clone(&batch.compiled));
        if let Ok(analysis) = analyzer.analyze(&item.program) {
            batch
                .items
                .push((item.program.clone(), Arc::new(analysis.into_plan())));
        }
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_verification_equals_sequential(
        seed in 0u64..1_000_000,
        count in 4usize..12,
        hot_percent in 0u32..101,
    ) {
        let config = TrafficConfig { hot_percent, ..Default::default() };
        let mut stream = traffic(&config, seed, count);
        // Guarantee at least one certifiable item so every case verifies
        // something.
        stream.push(TrafficItem {
            name: "fig7/3".into(),
            program: fig7(3),
            topology: fig7_topology(),
            queues_per_interval: 1,
        });

        let sim = SimConfig::default();
        let mut verified = 0usize;
        for batch in certified_batches(&stream) {
            if batch.items.is_empty() {
                continue;
            }
            let mut arena = SimArena::from_compiled(Arc::clone(&batch.compiled), sim);
            for (program, plan) in &batch.items {
                let through_arena = arena.verify(program, plan).expect("setup succeeds");
                let sequential =
                    verify_plan(program, &batch.topology, plan, sim).expect("setup succeeds");
                prop_assert_eq!(&through_arena, &sequential);
                // Certified plans complete (Theorem 1), so replays agree on
                // success, not just on failure shape.
                prop_assert!(through_arena.completed, "{} did not complete", program.num_cells());
                verified += 1;
            }
        }
        prop_assert!(verified >= 1, "stream produced no certified plans");
    }
}

/// A small cross-cell transfer program for `cells` cells: `W(A)*reps` at
/// cell 0, `R(A)*reps` at the last cell, routed over whatever fabric it
/// lands on.
fn transfer(cells: usize, reps: usize) -> Program {
    let last = cells - 1;
    systolic::model::parse_program(&format!(
        "cells {cells}\nmessage A: c0 -> c{last}\nprogram c0 {{ W(A)*{reps} }}\n\
         program c{last} {{ R(A)*{reps} }}\n",
    ))
    .expect("transfer parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property two: the served replay path. An interleaved
    /// mesh/torus/linear batch (with fig5_p2 mixed in so latch replays
    /// deadlock) replayed through one `ArenaLru` must match a one-shot
    /// `verify_plan_compiled` per item — on both the default and the
    /// capacity-0 latch simulator, under a one-arena budget (evicting on
    /// every switch) and an auto budget (all warm), and again on a second
    /// round through the same LRU.
    #[test]
    fn arena_lru_matches_one_shot_on_mixed_topologies(reps in 1usize..4) {
        let analysis = AnalysisConfig {
            queues_per_interval: 2,
            lookahead: Lookahead::Unbounded,
        };
        let topologies = [
            Topology::mesh(2, 2),
            Topology::torus(2, 2),
            Topology::linear(3),
            Topology::linear(2),
        ];
        let compiled: Vec<(Arc<CompiledTopology>, Analyzer)> = topologies
            .iter()
            .map(|topology| {
                let compiled = CompiledTopology::compile(topology, &analysis).into_shared();
                let analyzer = Analyzer::new(Arc::clone(&compiled));
                (compiled, analyzer)
            })
            .collect();

        // Round-robin interleave: consecutive items alternate topologies.
        // On linear:2, alternate plain transfers with fig5_p2, which
        // certifies under unbounded lookahead but deadlocks on latches.
        let mut items: Vec<(Program, Arc<CompiledTopology>, Arc<CommPlan>)> = Vec::new();
        for round in 0..3usize {
            for (i, (topology, (compiled, analyzer))) in
                topologies.iter().zip(&compiled).enumerate()
            {
                let program = if i == 3 && round % 2 == 0 {
                    fig5_p2()
                } else {
                    transfer(topology.num_cells(), reps + round)
                };
                let plan = Arc::new(
                    analyzer
                        .analyze(&program)
                        .expect("mixed batch certifies")
                        .into_plan(),
                );
                items.push((program, Arc::clone(compiled), plan));
            }
        }

        let latch = SimConfig {
            queues_per_interval: 2,
            queue: QueueConfig {
                capacity: 0,
                extension: false,
            },
            ..Default::default()
        };
        let mut latch_outcomes = Vec::new();
        for sim in [SimConfig::default(), latch] {
            let expected: Vec<_> = items
                .iter()
                .map(|(p, c, plan)| verify_plan_compiled(p, c, plan, sim).expect("setup succeeds"))
                .collect();
            for budget in [ArenaBudget::Fixed(1), ArenaBudget::Auto] {
                let mut arenas = ArenaLru::with_budget(budget);
                for round in 0..2 {
                    for ((program, compiled, plan), reference) in items.iter().zip(&expected) {
                        let got = arenas.verify(compiled, sim, program, plan);
                        prop_assert_eq!(
                            got.as_ref(),
                            Ok(reference),
                            "budget = {:?}, round = {}",
                            budget,
                            round
                        );
                    }
                }
            }
            if sim == latch {
                latch_outcomes = expected;
            }
        }
        // The latch runs must actually exercise the deadlock path.
        prop_assert!(
            latch_outcomes.iter().any(|r| r.deadlock.is_some()),
            "fig5_p2 latch replays must deadlock"
        );
        prop_assert!(
            latch_outcomes.iter().any(|r| r.completed),
            "plain transfers must complete"
        );
    }
}

/// Deadlock details survive arena reuse: a batch whose replays
/// (deliberately) stall on capacity-0 latch queues, interleaved with
/// transfers that complete, must produce the same `ReplayDeadlock` —
/// cycle, first blocked cell, reason text, blocked count — from one reused
/// arena as from a one-shot `verify_plan` per item.
#[test]
fn reused_arena_keeps_deadlock_details() {
    let topology = Topology::linear(2);
    // P2 certifies only under lookahead (both cells write first) and
    // deadlocks when replayed on latch queues (Section 3.2); plain
    // transfers complete even on latches. Mixing them yields a batch of
    // interleaved completed/deadlocked reports.
    let config = AnalysisConfig {
        queues_per_interval: 2,
        lookahead: Lookahead::Unbounded,
    };
    let compiled = CompiledTopology::compile(&topology, &config).into_shared();
    let analyzer = Analyzer::new(Arc::clone(&compiled));
    let mut items: Vec<(Program, Arc<CommPlan>)> = Vec::new();
    for reps in 1..=4 {
        items.push({
            let program = fig5_p2();
            let plan = Arc::new(
                analyzer
                    .analyze(&program)
                    .expect("P2 certifies")
                    .into_plan(),
            );
            (program, plan)
        });
        let transfer = systolic::model::parse_program(&format!(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 {{ W(A)*{reps} }}\n\
             program c1 {{ R(A)*{reps} }}\n",
        ))
        .expect("transfer parses");
        let plan = Arc::new(analyzer.analyze(&transfer).expect("certifies").into_plan());
        items.push((transfer, plan));
    }
    let sim = SimConfig {
        queues_per_interval: 2,
        queue: QueueConfig {
            capacity: 0,
            extension: false,
        },
        ..Default::default()
    };

    let mut arena = SimArena::from_compiled(Arc::clone(&compiled), sim);
    let mut reports = Vec::new();
    for (program, plan) in &items {
        let through_arena = arena.verify(program, plan).expect("setup succeeds");
        let one_shot = verify_plan(program, &topology, plan, sim).expect("setup succeeds");
        assert_eq!(through_arena, one_shot, "deadlock details included");
        reports.push(through_arena);
    }
    let deadlocked = reports.iter().filter(|r| r.deadlock.is_some()).count();
    let completed = reports.iter().filter(|r| r.completed).count();
    assert_eq!(deadlocked, 4, "every P2 latch replay deadlocks");
    assert_eq!(completed, 4, "every plain transfer completes");
}
