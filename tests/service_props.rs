//! Property tests for the analysis service: cache hits must be
//! indistinguishable from cache misses, and concurrent identical requests
//! must converge on one cache entry.

use std::sync::Arc;

use proptest::prelude::*;
use systolic::core::{Analyzer, CoreError};
use systolic::obs::names;
use systolic::service::{
    AnalysisRequest, AnalysisService, CacheProvenance, Certified, ServiceConfig, ServiceOutcome,
};
use systolic::workloads::{random_program, random_topology, scramble, RandomConfig};

fn shapes() -> impl Strategy<Value = RandomConfig> {
    (2usize..6, 1usize..8, 1usize..4, 1usize..3, any::<bool>()).prop_map(
        |(cells, messages, max_words, max_span, clustered)| RandomConfig {
            cells,
            messages,
            max_words,
            max_span: max_span.min(cells - 1).max(1),
            clustered,
        },
    )
}

fn request_for(config: &RandomConfig, seed: u64, scrambled: bool) -> AnalysisRequest {
    let program = random_program(config, seed).expect("random programs build");
    let program = if scrambled {
        scramble(&program, seed ^ 0x5eed)
    } else {
        program
    };
    let mut request =
        AnalysisRequest::new(format!("prop/{seed}"), program, random_topology(config));
    // Generous queue count: the requirement never exceeds the message count.
    request.config.queues_per_interval = config.messages;
    request
}

fn assert_same_outcome(a: &ServiceOutcome, b: &ServiceOutcome) -> Result<(), TestCaseError> {
    match (a.as_ref(), b.as_ref()) {
        (Ok(x), Ok(y)) => {
            prop_assert_eq!(&x.message_labels, &y.message_labels);
            prop_assert_eq!(x.max_queues_per_interval, y.max_queues_per_interval);
            prop_assert_eq!(x.labeling_method, y.labeling_method);
        }
        (Err(x), Err(y)) => prop_assert_eq!(x, y),
        _ => prop_assert!(false, "one outcome certified, the other rejected"),
    }
    Ok(())
}

fn certified_of(outcome: &ServiceOutcome) -> Option<&Certified> {
    outcome.as_ref().as_ref().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_hit_equals_cache_miss(
        shape in shapes(),
        seed in 0u64..1_000_000,
        scrambled in any::<bool>(),
    ) {
        let request = request_for(&shape, seed, scrambled);
        let service = AnalysisService::new(ServiceConfig::default());

        let miss = service.submit(request.clone()).wait();
        prop_assert_eq!(miss.provenance, CacheProvenance::Miss);
        let hit = service.submit(request.clone()).wait();
        prop_assert_eq!(hit.provenance, CacheProvenance::Hit);
        prop_assert_eq!(miss.fingerprint, hit.fingerprint);
        assert_same_outcome(&miss.outcome, &hit.outcome)?;

        // Both agree with a direct, service-free analysis.
        let direct = Analyzer::for_topology(&request.topology, &request.config)
            .analyze(&request.program);
        match (&direct, certified_of(&hit.outcome)) {
            (Ok(analysis), Some(certified)) => {
                prop_assert_eq!(
                    certified.max_queues_per_interval,
                    analysis.plan().requirements().max_per_interval()
                );
                for (m, (_, label)) in request
                    .program
                    .message_ids()
                    .zip(certified.message_labels.iter())
                {
                    prop_assert_eq!(*label, analysis.plan().label(m));
                }
            }
            (Err(expected), None) => {
                let served = hit.outcome.as_ref().as_ref().expect_err("rejected");
                prop_assert_eq!(served.as_analysis(), Some(expected));
            }
            _ => prop_assert!(false, "service and direct analysis disagree"),
        }
    }

    #[test]
    fn concurrent_identical_requests_make_one_cache_entry(
        shape in shapes(),
        seed in 0u64..1_000_000,
        threads in 2usize..9,
    ) {
        let request = request_for(&shape, seed, false);
        let service = Arc::new(AnalysisService::new(ServiceConfig {
            workers: 4,
            ..Default::default()
        }));

        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let service = Arc::clone(&service);
                let request = request.clone();
                std::thread::spawn(move || service.submit(request).wait())
            })
            .collect();
        let responses: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("submitting thread completes"))
            .collect();

        prop_assert_eq!(service.cache_entries(), 1);
        let first = &responses[0];
        for other in &responses[1..] {
            prop_assert_eq!(first.fingerprint, other.fingerprint);
            // Every thread observed the *same* shared outcome object.
            prop_assert!(Arc::ptr_eq(&first.outcome, &other.outcome));
        }
        // One resident entry and no eviction: exactly one insertion won.
        let metrics = service.registry_snapshot();
        prop_assert_eq!(metrics.gauge_value(names::PLAN_CACHE_ENTRIES, &[]), 1);
        prop_assert_eq!(metrics.counter_value(names::PLAN_CACHE_EVICTIONS, &[]), 0);
        prop_assert_eq!(
            metrics.counter_value(names::PLAN_CACHE_HITS, &[])
                + metrics.counter_value(names::PLAN_CACHE_MISSES, &[]),
            threads as u64
        );
    }

    #[test]
    fn scrambled_programs_never_crash_the_service(
        shape in shapes(),
        seed in 0u64..1_000_000,
    ) {
        // Scrambles are candidate deadlocks: whatever the verdict, the
        // service must answer (certified or rejected), and cache it.
        let request = request_for(&shape, seed, true);
        let service = AnalysisService::new(ServiceConfig::default());
        let first = service.submit(request.clone()).wait();
        let again = service.submit(request).wait();
        prop_assert_eq!(again.provenance, CacheProvenance::Hit);
        if let Err(e) = first.outcome.as_ref() {
            let expected_kind = matches!(
                e.as_analysis(),
                Some(CoreError::ProgramDeadlocked { .. } | CoreError::Infeasible { .. })
            );
            prop_assert!(expected_kind, "unexpected rejection kind: {:?}", e);
        }
    }
}
