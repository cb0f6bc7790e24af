//! Micro-bench: the write path (`add_profiles_ctx`).
//!
//! Covers the head-slice fast path (timestamps arriving in order), the
//! late-arrival slow path, batched writes, and the staging-table route with
//! isolation on.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ips_core::model::ProfileData;
use ips_core::server::{IpsInstance, IpsInstanceOptions, RequestContext};
use ips_types::clock::sim_clock;
use ips_types::{
    ActionTypeId, AggregateFunction, CallerId, CountVector, DurationMs, FeatureId, ProfileId,
    SlotId, TableConfig, TableId, Timestamp,
};

const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);
const TABLE: TableId = TableId(1);

fn bench_model_add(c: &mut Criterion) {
    let mut group = c.benchmark_group("write_path_model");

    // Head-slice fast path: in-order timestamps.
    group.bench_function("in_order_add", |b| {
        let mut p = ProfileData::new();
        let mut t = 1_000u64;
        b.iter(|| {
            t += 10;
            p.add(
                Timestamp::from_millis(t),
                SLOT,
                LIKE,
                FeatureId::new(t % 200),
                &CountVector::single(1),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        });
    });

    // Late arrivals: timestamps scattered over existing history.
    group.bench_function("late_arrival_add", |b| {
        let mut p = ProfileData::new();
        for s in 0..100u64 {
            p.add(
                Timestamp::from_millis(1_000 + s * 10_000),
                SLOT,
                LIKE,
                FeatureId::new(s),
                &CountVector::single(1),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
        let mut x = 0u64;
        b.iter(|| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = 1_000 + (x % 990_000);
            p.add(
                Timestamp::from_millis(t),
                SLOT,
                LIKE,
                FeatureId::new(x % 200),
                &CountVector::single(1),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        });
    });
    group.finish();
}

fn bench_instance_add(c: &mut Criterion) {
    let mut group = c.benchmark_group("write_path_instance");
    for isolation in [false, true] {
        let (clock, _ctl) = sim_clock(Timestamp::from_millis(DurationMs::from_days(1).as_millis()));
        let instance = IpsInstance::new_in_memory(
            IpsInstanceOptions {
                // The sim clock never advances inside b.iter, so the quota
                // bucket never refills; lift it out of the way.
                default_quota: ips_types::QuotaConfig {
                    qps_limit: u64::MAX / 2,
                    burst_factor: 1.0,
                },
                ..Default::default()
            },
            clock,
        );
        let mut cfg = TableConfig::new("bench");
        cfg.isolation.enabled = isolation;
        // Generous staging budget so the bench measures routing, not merges.
        cfg.isolation.write_table_budget_bytes = 1 << 30;
        instance.create_table(TABLE, cfg).unwrap();
        let caller = CallerId::new(1);
        let mut n = 0u64;
        group.bench_with_input(
            BenchmarkId::new("add_profile_isolation", isolation),
            &instance,
            |b, inst| {
                b.iter(|| {
                    n += 1;
                    inst.add_profiles_ctx(
                        &RequestContext::new(caller),
                        TABLE,
                        ProfileId::new(n % 1_000),
                        Timestamp::from_millis(1_000 + n),
                        SLOT,
                        LIKE,
                        &[(FeatureId::new(n % 500), CountVector::single(1))],
                    )
                    .unwrap();
                })
            },
        );
    }

    // Batched writes amortize per-call overhead.
    let (clock, _ctl) = sim_clock(Timestamp::from_millis(DurationMs::from_days(1).as_millis()));
    let instance = IpsInstance::new_in_memory(
        IpsInstanceOptions {
            default_quota: ips_types::QuotaConfig {
                qps_limit: u64::MAX / 2,
                burst_factor: 1.0,
            },
            ..Default::default()
        },
        clock,
    );
    let mut cfg = TableConfig::new("bench");
    cfg.isolation.enabled = false;
    instance.create_table(TABLE, cfg).unwrap();
    let caller = CallerId::new(1);
    for batch in [1usize, 16, 64] {
        let features: Vec<(FeatureId, CountVector)> = (0..batch as u64)
            .map(|f| (FeatureId::new(f), CountVector::single(1)))
            .collect();
        let mut n = 0u64;
        group.bench_with_input(
            BenchmarkId::new("add_profiles_batch", batch),
            &features,
            |b, feats| {
                b.iter(|| {
                    n += 1;
                    instance
                        .add_profiles_ctx(
                            &RequestContext::new(caller),
                            TABLE,
                            ProfileId::new(n % 1_000),
                            Timestamp::from_millis(1_000 + n),
                            SLOT,
                            LIKE,
                            black_box(feats),
                        )
                        .unwrap();
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_model_add, bench_instance_add);
criterion_main!(benches);
