//! Scale-observability integration tests: the full monitored scheduler
//! pipeline — labeled families, quantile sketches, head-sampled traces,
//! bounded retention — must produce byte-identical renders regardless of
//! the worker-thread count, and sketch merging must be order-independent
//! so shard-local sketches can be combined in any topology.

use std::sync::Arc;
use virtualflow::obs::{Metrics, Monitor, Recorder, RingSink, Sketch};
use virtualflow::sched::sim::run_trace_recorded;
use virtualflow::sched::{ElasticWfs, JobId, JobSpec, SimConfig};

const SEED: u64 = 2022;

fn job(id: u32, demand: u32, steps: u64, arrival: f64) -> JobSpec {
    JobSpec {
        id: JobId(id),
        name: format!("j{id}"),
        priority: 1 + id % 4,
        demand,
        total_vns: demand * 2,
        model: virtualflow::models::profile::resnet56(),
        micro_batch: 32,
        total_steps: steps,
        arrival_s: arrival,
    }
}

fn trace() -> Vec<JobSpec> {
    (0..48).map(|i| job(i, 1 + i % 3, 40, 5.0 * f64::from(i))).collect()
}

/// Everything one monitored replay leaves behind for the determinism
/// comparisons.
struct Replay {
    prom: String,
    dashboard: String,
    json: String,
    recorded: u64,
    dropped: u64,
    silent_drops: u64,
}

fn replay(threads: usize) -> Replay {
    virtualflow::tensor::pool::set_num_threads(threads);
    let mon = Arc::new(Monitor::with_default_pack());
    mon.set_retention(64);
    let rec = Recorder::new(RingSink::unbounded()).with_monitor(mon.clone());
    rec.set_head_sampling(SEED, 250_000);
    run_trace_recorded(&trace(), &mut ElasticWfs::new(), &SimConfig::v100_cluster(8), &rec);
    let m = mon.metrics();
    Replay {
        prom: mon.render_prometheus(),
        dashboard: mon.render_dashboard("obs scale"),
        json: m.to_json(),
        recorded: rec.events_recorded(),
        dropped: rec.events_dropped(),
        silent_drops: m.silent_drops(),
    }
}

#[test]
fn monitored_trace_renders_identically_across_thread_counts() {
    let orig = virtualflow::tensor::pool::num_threads();
    let one = replay(1);
    let four = replay(4);
    virtualflow::tensor::pool::set_num_threads(orig);

    assert_eq!(one.prom, four.prom, "Prometheus render depends on threads");
    assert_eq!(one.dashboard, four.dashboard, "dashboard render depends on threads");
    assert_eq!(one.json, four.json, "registry JSON depends on threads");
    assert_eq!(one.recorded, four.recorded);
    assert_eq!(one.dropped, four.dropped);

    // Head sampling at 25% must both keep and drop something, and every
    // rejected event must be accounted — never silently lost.
    assert!(one.recorded > 0, "sampler kept nothing");
    assert!(one.dropped > 0, "sampler at 250k ppm dropped nothing");
    assert_eq!(one.silent_drops, 0, "labeled registry lost samples silently");

    // The dimensional pipeline actually ran: the sim publishes JCT
    // sketches and a per-priority completion family.
    assert!(one.prom.contains("sched_jct_s{quantile=\"0.99\"}"), "{}", one.prom);
    assert!(one.prom.contains("sched_completions{priority="), "{}", one.prom);
}

/// Deterministic value stream for shard `s`: spread over several decades
/// so the sketches exercise many buckets.
fn shard(s: u64) -> Sketch {
    let mut sk = Sketch::new();
    for i in 0..500u64 {
        let v = ((s * 7919 + i * 104_729) % 100_000) as f64 / 100.0 + 0.01;
        sk.observe(v);
    }
    sk
}

#[test]
fn sketch_merges_are_associative_in_any_topology() {
    let shards: Vec<Sketch> = (0..6).map(shard).collect();

    // Left fold: ((((0+1)+2)+3)+4)+5.
    let mut left = Sketch::new();
    for s in &shards {
        left.merge(s);
    }
    // Right fold: 0+(1+(2+(3+(4+5)))).
    let mut right = Sketch::new();
    for s in shards.iter().rev() {
        right.merge(s);
    }
    // Balanced tree: (0+1) + (2+3) + (4+5), combined out of order.
    let mut pair_a = shards[0].clone();
    pair_a.merge(&shards[1]);
    let mut pair_b = shards[2].clone();
    pair_b.merge(&shards[3]);
    let mut pair_c = shards[4].clone();
    pair_c.merge(&shards[5]);
    let mut tree = pair_c;
    tree.merge(&pair_a);
    tree.merge(&pair_b);

    assert_eq!(left.render(), right.render(), "fold direction changed the sketch");
    assert_eq!(left.render(), tree.render(), "merge topology changed the sketch");
    assert_eq!(left.total(), 3000);
    assert_eq!(left.quantile(0.5), tree.quantile(0.5));
    assert_eq!(left.quantile(0.99), right.quantile(0.99));
}

#[test]
fn cardinality_budget_bounds_the_registry_with_exact_accounting() {
    let m = Metrics::new();
    m.set_cardinality_budget("jobs/steps", 8);
    for i in 0..100u32 {
        m.counter_with("jobs/steps", &[("job", &format!("j{i}"))], 2);
    }
    let snaps = m.labeled_snapshot();
    let fam = snaps.iter().find(|f| f.name == "jobs/steps").expect("family registered");
    assert_eq!(fam.series.len(), 8, "budget did not bound the family");
    assert_eq!(fam.total_samples, 100);
    assert_eq!(fam.overflow_samples, 92, "overflow must count every folded sample");
    assert_eq!(fam.unaccounted(), 0);
    assert_eq!(m.silent_drops(), 0);

    let stats = m.registry_stats();
    assert_eq!(stats.families, 1);
    assert_eq!(stats.labeled_series, 8);
}
