//! The service summary: the `--summary` table and the `--summary-json`
//! members, both rendered from one [`RegistrySnapshot`] — so the two
//! views, the `metrics` wire op and the Prometheus export read the same
//! counts.

use std::collections::BTreeMap;

use systolic_obs::names::*;
use systolic_obs::RegistrySnapshot;
use systolic_report::Table;
use systolic_sim::ArenaBudget;

use crate::Json;

/// How a figure renders: the table's text and the JSON number.
#[derive(Debug)]
enum Figure {
    Count(u64),
    /// A ratio in `0.0..=1.0`, shown as a percentage.
    Rate(f64),
    /// Microseconds, shown with one decimal.
    Micros(f64),
    /// Table-only text.
    Text(String),
}
use Figure::{Count, Micros, Rate, Text};

/// The service summary, read from one registry snapshot plus the
/// configured [`ArenaBudget`] (the one figure the registry does not hold).
///
/// Latency percentiles are log2-bucket histogram estimates of
/// `systolic_service_handle_duration_micros`: they **overestimate by less
/// than 2× (one octave) and never underestimate**. Mean, count and max
/// are exact.
#[derive(Debug)]
pub struct Summary {
    /// `(table label, JSON key, figure)` in output order; an empty label
    /// or key leaves the figure out of that view.
    rows: Vec<(String, &'static str, Figure)>,
}

impl Summary {
    /// Reads every summary figure from `snapshot`.
    pub(crate) fn new(snapshot: &RegistrySnapshot, budget: ArenaBudget) -> Self {
        let total = |name| snapshot.counter_total(name);
        let gauge = |name| u64::try_from(snapshot.gauge_value(name, &[])).unwrap_or(0);
        let rate = |hits: u64, misses: u64| match hits + misses {
            0 => 0.0,
            lookups => hits as f64 / lookups as f64,
        };
        let mut s = Summary { rows: Vec::new() };

        let (hits, misses) = (total(PLAN_CACHE_HITS), total(PLAN_CACHE_MISSES));
        s.add("requests", "requests", Count(total(SERVICE_REQUESTS)));
        s.add("cache hits", "cache_hits", Count(hits));
        s.add("cache misses", "cache_misses", Count(misses));
        s.add("cache evictions", "", Count(total(PLAN_CACHE_EVICTIONS)));
        s.add("cache entries", "", Count(gauge(PLAN_CACHE_ENTRIES)));
        s.add("hit rate", "cache_hit_rate", Rate(rate(hits, misses)));
        let latency = snapshot.histogram_value(SERVICE_HANDLE_DURATION, &[]);
        let mean = latency.mean();
        let (p50, p99) = (latency.quantile(0.5), latency.quantile(0.99));
        s.add("latency mean (us)", "latency_mean_us", Micros(mean));
        s.add("latency p50 (us)", "latency_p50_us", Micros(p50 as f64));
        s.add("latency p99 (us)", "latency_p99_us", Micros(p99 as f64));
        s.add("latency max (us)", "latency_max_us", Count(latency.max));

        // The JSON always carries the arena counts; the table shows them
        // once something was chased.
        let (arena_hits, arena_misses) = (total(ARENA_CACHE_HITS), total(ARENA_CACHE_MISSES));
        let chased = arena_hits + arena_misses > 0;
        let arena = |label| if chased { label } else { "" };
        let arena_evictions = total(ARENA_CACHE_EVICTIONS);
        for (label, key, count) in [
            ("arena cache hits", "arena_hits", arena_hits),
            ("arena cache misses", "arena_misses", arena_misses),
            ("arena cache evictions", "arena_evictions", arena_evictions),
        ] {
            s.add(arena(label), key, Count(count));
        }
        if chased {
            s.add("arena hit rate", "", Rate(rate(arena_hits, arena_misses)));
            s.add("arena cache budget", "", Text(budget_label(budget)));
        }

        // `[ok, blocked]` chases per topology, in spec order.
        let mut verify: BTreeMap<&str, [u64; 2]> = BTreeMap::new();
        for (key, count) in snapshot
            .counters
            .iter()
            .filter(|(k, _)| k.name == VERIFY_OUTCOMES)
        {
            let label = |name| key.labels.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            if let (Some(spec), Some(outcome)) = (label("topology"), label("outcome")) {
                verify.entry(spec).or_default()[usize::from(outcome != "ok")] += count;
            }
        }
        for (spec, [ok, blocked]) in verify {
            let outcomes = Text(format!("{ok} ok / {blocked} blocked"));
            s.add(&format!("verify[{spec}]"), "", outcomes);
        }

        if total(INCREMENTAL_EDITS) > 0 {
            let evicted = total(INCREMENTAL_SESSION_EVICTIONS);
            for (label, count) in [
                ("incremental edits", total(INCREMENTAL_EDITS)),
                ("incremental reuse hits", total(INCREMENTAL_HITS)),
                ("incremental fallbacks", total(INCREMENTAL_FALLBACKS)),
                ("incremental dirty cells", total(INCREMENTAL_DIRTY_CELLS)),
                ("incremental sessions", gauge(INCREMENTAL_SESSIONS)),
                ("incremental session evictions", evicted),
            ] {
                s.add(label, "", Count(count));
            }
        }

        s.add("", "hw_threads", Count(gauge(HW_THREADS)));

        let loads = snapshot.histogram_value(SNAPSHOT_LOAD_DURATION, &[]).count;
        let (saves, rejected) = (total(SNAPSHOT_SAVES), total(SNAPSHOT_LOAD_REJECTED));
        if loads + saves + rejected > 0 {
            // Plans an export skipped are not load-side drops.
            let skipped = [("reason", "export-missing-seed")];
            let dropped =
                total(SNAPSHOT_DROPPED) - snapshot.counter_value(SNAPSHOT_DROPPED, &skipped);
            let (plans, seeds) = (total(SNAPSHOT_LOADED_PLANS), total(SNAPSHOT_LOADED_SEEDS));
            let warm = total(SNAPSHOT_WARM_HITS);
            for (label, key, count) in [
                ("snapshot loads", "snapshot_loads", loads),
                ("snapshot plans restored", "snapshot_plans_restored", plans),
                ("snapshot seeds restored", "snapshot_seeds_restored", seeds),
                ("snapshot entries dropped", "snapshot_dropped", dropped),
                (
                    "snapshot loads rejected",
                    "snapshot_loads_rejected",
                    rejected,
                ),
                ("snapshot saves", "snapshot_saves", saves),
                ("snapshot last save bytes", "", gauge(SNAPSHOT_SAVE_BYTES)),
                ("snapshot warm hits", "snapshot_warm_hits", warm),
            ] {
                s.add(label, key, Count(count));
            }
        }
        s
    }

    fn add(&mut self, label: &str, key: &'static str, figure: Figure) {
        self.rows.push((label.to_owned(), key, figure));
    }

    /// The two-column `--summary` table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut table = Table::new(["metric", "value"]);
        for (label, _, figure) in self.rows.iter().filter(|row| !row.0.is_empty()) {
            let value = match figure {
                Count(n) => n.to_string(),
                Rate(r) => format!("{:.1}%", r * 100.0),
                Micros(us) => format!("{us:.1}"),
                Text(text) => text.clone(),
            };
            table.row([label, &value]);
        }
        table
    }

    /// The `--summary-json` members, in order.
    #[must_use]
    pub fn json_members(&self) -> Vec<(String, Json)> {
        self.rows
            .iter()
            .filter_map(|(_, key, figure)| {
                let value = match *figure {
                    Count(n) => n as f64,
                    Rate(x) | Micros(x) => x,
                    Text(_) => return None,
                };
                (!key.is_empty()).then(|| ((*key).to_owned(), Json::Num(value)))
            })
            .collect()
    }
}

/// Renders an [`ArenaBudget`] for the summary table.
fn budget_label(budget: ArenaBudget) -> String {
    match budget {
        ArenaBudget::Fixed(n) => format!("{n} arenas/thread"),
        ArenaBudget::Auto => "auto (observed topologies)".to_owned(),
        ArenaBudget::MemBytes(bytes) => format!("{bytes} bytes/thread"),
    }
}
