//! Property-based tests on the distribution substrate: consistent-hash
//! stability/coverage and RPC message round-trips under arbitrary inputs.

use proptest::prelude::*;

use ips_cluster::rpc::{CallOptions, RpcRequest, RpcResponse};
use ips_cluster::HashRing;
use ips_core::query::{FeatureEntry, FilterPredicate, ProfileQuery, QueryKind, QueryResult};
use ips_types::config::DecayFunction;
use ips_types::{
    ActionTypeId, CallerId, CountVector, DurationMs, FeatureId, ProfileId, SlotId, SortKey,
    SortOrder, TableId, TimeRange, Timestamp,
};

fn arb_counts() -> impl Strategy<Value = CountVector> {
    proptest::collection::vec(any::<i64>(), 0..8).prop_map(|v| CountVector::from_slice(&v))
}

fn arb_range() -> impl Strategy<Value = TimeRange> {
    prop_oneof![
        (0u64..u64::MAX / 2).prop_map(|ms| TimeRange::Current {
            lookback: DurationMs::from_millis(ms)
        }),
        (0u64..u64::MAX / 2).prop_map(|ms| TimeRange::Relative {
            lookback: DurationMs::from_millis(ms)
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(a, b)| TimeRange::Absolute {
            start: Timestamp::from_millis(a.min(b)),
            end: Timestamp::from_millis(a.max(b)),
        }),
    ]
}

fn arb_sort() -> impl Strategy<Value = (SortKey, SortOrder)> {
    (
        prop_oneof![
            (0usize..8).prop_map(SortKey::Attribute),
            Just(SortKey::WeightedScore),
            Just(SortKey::Timestamp),
            Just(SortKey::FeatureId),
        ],
        prop_oneof![Just(SortOrder::Ascending), Just(SortOrder::Descending)],
    )
}

fn arb_decay() -> impl Strategy<Value = DecayFunction> {
    prop_oneof![
        Just(DecayFunction::None),
        (1u64..u64::MAX / 2).prop_map(|ms| DecayFunction::Exponential {
            half_life: DurationMs::from_millis(ms)
        }),
        (1u64..u64::MAX / 2).prop_map(|ms| DecayFunction::Linear {
            horizon: DurationMs::from_millis(ms)
        }),
        ((1u64..u64::MAX / 2), -10.0f64..10.0).prop_map(|(ms, f)| DecayFunction::Step {
            boundary: DurationMs::from_millis(ms),
            old_factor: f,
        }),
    ]
}

fn arb_kind() -> impl Strategy<Value = QueryKind> {
    prop_oneof![
        ((0usize..1_000), arb_sort()).prop_map(|(k, (sort, order))| QueryKind::TopK {
            k,
            sort,
            order
        }),
        ((0usize..1_000), arb_sort()).prop_map(|(k, (sort, order))| QueryKind::Decay {
            k,
            sort,
            order
        }),
        prop_oneof![
            ((0usize..8), any::<i64>())
                .prop_map(|(attr, min)| FilterPredicate::MinAttribute { attr, min }),
            proptest::collection::vec(any::<u64>(), 0..20).prop_map(
                |v| FilterPredicate::FeatureIn(v.into_iter().map(FeatureId::new).collect())
            ),
            Just(FilterPredicate::All),
        ]
        .prop_map(|predicate| QueryKind::Filter { predicate }),
    ]
}

fn arb_query() -> impl Strategy<Value = ProfileQuery> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        arb_range(),
        arb_kind(),
        arb_decay(),
        -100.0f64..100.0,
    )
        .prop_map(
            |(table, profile, slot, action, range, kind, decay, decay_factor)| ProfileQuery {
                table: TableId::new(table),
                profile: ProfileId::new(profile),
                slot: SlotId::new(slot),
                action: action.map(ActionTypeId::new),
                range,
                kind,
                decay,
                decay_factor,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rpc_add_round_trips(
        caller in any::<u32>(),
        table in any::<u32>(),
        profile in any::<u64>(),
        at in any::<u64>(),
        slot in any::<u32>(),
        action in any::<u32>(),
        features in proptest::collection::vec((any::<u64>(), arb_counts()), 0..20),
    ) {
        let req = RpcRequest::Add {
            caller: CallerId::new(caller),
            table: TableId::new(table),
            profile: ProfileId::new(profile),
            at: Timestamp::from_millis(at),
            slot: SlotId::new(slot),
            action: ActionTypeId::new(action),
            features: features
                .into_iter()
                .map(|(f, c)| (FeatureId::new(f), c))
                .collect(),
        };
        let bytes = req.encode_with(None, &CallOptions::default());
        prop_assert_eq!(RpcRequest::decode_envelope(&bytes).unwrap().0, req);
    }

    #[test]
    fn rpc_query_round_trips(caller in any::<u32>(), query in arb_query()) {
        let req = RpcRequest::Query {
            caller: CallerId::new(caller),
            query,
        };
        let bytes = req.encode_with(None, &CallOptions::default());
        prop_assert_eq!(RpcRequest::decode_envelope(&bytes).unwrap().0, req);
    }

    #[test]
    fn rpc_response_round_trips(
        slices in any::<u16>(),
        hit in any::<bool>(),
        degraded in any::<bool>(),
        staleness_ms in any::<u32>(),
        kv_round_trips in 0u32..4,
        kv_bytes in any::<u32>(),
        entries in proptest::collection::vec(
            (any::<u64>(), arb_counts(), any::<u64>()),
            0..50,
        ),
    ) {
        let resp = RpcResponse::Query(QueryResult {
            entries: entries
                .into_iter()
                .map(|(fid, counts, ts)| FeatureEntry {
                    feature: FeatureId::new(fid),
                    counts,
                    last_seen: Timestamp::from_millis(ts),
                })
                .collect(),
            slices_visited: slices as usize,
            cache_hit: hit,
            degraded,
            // Staleness only rides the wire for degraded results.
            staleness: if degraded {
                ips_types::DurationMs::from_millis(staleness_ms as u64)
            } else {
                ips_types::DurationMs::ZERO
            },
            kv_round_trips,
            // Byte counts only ride the wire when a fetch happened.
            kv_bytes_read: if kv_round_trips > 0 { kv_bytes as u64 } else { 0 },
        });
        prop_assert_eq!(RpcResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn rpc_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = RpcRequest::decode_envelope(&bytes);
        let _ = RpcResponse::decode(&bytes);
    }

    #[test]
    fn ring_covers_every_key_and_is_stable(
        node_count in 1usize..20,
        keys in proptest::collection::vec(any::<u64>(), 1..100),
        removed in any::<prop::sample::Index>(),
    ) {
        let mut ring = HashRing::new(64);
        for i in 0..node_count {
            ring.add(&format!("node-{i}"));
        }
        // Coverage: every key routes somewhere, deterministically.
        let before: Vec<String> = keys
            .iter()
            .map(|k| ring.node_for(ProfileId::new(*k)).unwrap().to_string())
            .collect();
        for (k, owner) in keys.iter().zip(&before) {
            prop_assert_eq!(ring.node_for(ProfileId::new(*k)).unwrap(), owner.as_str());
        }
        // Stability: removing one node never moves keys between the
        // surviving nodes.
        let victim = format!("node-{}", removed.index(node_count));
        ring.remove(&victim);
        if !ring.is_empty() {
            for (k, old_owner) in keys.iter().zip(&before) {
                let new_owner = ring.node_for(ProfileId::new(*k)).unwrap();
                if old_owner != &victim {
                    prop_assert_eq!(new_owner, old_owner.as_str());
                }
            }
        }
    }

    #[test]
    fn ring_failover_candidates_are_distinct(
        node_count in 1usize..12,
        key in any::<u64>(),
        n in 1usize..15,
    ) {
        let mut ring = HashRing::new(64);
        for i in 0..node_count {
            ring.add(&format!("node-{i}"));
        }
        let candidates = ring.nodes_for(ProfileId::new(key), n);
        prop_assert_eq!(candidates.len(), n.min(node_count));
        let mut dedup = candidates.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), candidates.len());
    }
}
