//! Quickstart: the paper's motivating example (§II-A, Table I, Listing 1).
//!
//! Alice likes/comments/shares a Lakers video, then days later likes some
//! Warriors videos. The recommendation engine asks IPS: *"Alice's most
//! liked basketball team over the last 10 days?"* — the SQL in Listing 1,
//! served as one `get_profile_topK` call.
//!
//! Run with: `cargo run --example quickstart`

use ips::prelude::*;
use ips::trace::{export::chrome_trace_json, SamplerConfig, Tracer};

fn main() -> Result<()> {
    // A simulated clock so "ten days ago" is explicit and reproducible.
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(100).as_millis(),
    ));

    // One IPS instance with a private in-memory KV store behind it.
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock.clone());
    // Trace everything this example does (see DESIGN.md §7).
    let tracer = Tracer::new(clock.clone(), SamplerConfig::always());
    instance.set_tracer(Some(tracer.clone()));
    let table = TableId::new(1);
    let mut config = TableConfig::new("user_profile_table");
    config.attributes = 3; // [likes, comments, shares]
    config.isolation.enabled = false; // immediate visibility for the demo
    instance.create_table(table, config)?;

    let ctx = RequestContext::new(CallerId::new(1));
    let alice = ProfileId::from_name("Alice");
    let sports = SlotId::new(1); // slot  = "Sports"
    let basketball = ActionTypeId::new(1); // type  = "Basketball"
    let lakers = FeatureId::from_name("Los Angeles Lakers");
    let warriors = FeatureId::from_name("Golden State Warriors");

    // Ten days ago: Alice liked, commented on and re-shared a Lakers video.
    let ten_days_ago = ctl.now().saturating_sub(DurationMs::from_days(10));
    instance.add_profiles_ctx(
        &ctx,
        table,
        alice,
        ten_days_ago,
        sports,
        basketball,
        &[(lakers, CountVector::from_slice(&[1, 1, 1]))],
    )?;

    // Two days ago: she liked a couple of Warriors videos.
    let two_days_ago = ctl.now().saturating_sub(DurationMs::from_days(2));
    instance.add_profiles_ctx(
        &ctx,
        table,
        alice,
        two_days_ago,
        sports,
        basketball,
        &[(warriors, CountVector::from_slice(&[2, 0, 0]))],
    )?;

    // Listing 1: SELECT feature, SUM(like) ... WHERE uid='Alice' AND
    // timestamp > TEN_DAYS_AGO AND slot='Sports' AND type='Basketball'
    // GROUP BY feature ORDER BY total_likes DESC LIMIT 1.
    let query = ProfileQuery::top_k(table, alice, sports, TimeRange::last_days(10), 1)
        .with_action(basketball)
        .with_sort(SortKey::Attribute(0), SortOrder::Descending);
    // Everything under this guard (cache probe, store load, compute) lands
    // in one span tree rooted at `quickstart_query`.
    let root = tracer.root_span("quickstart_query", ctx.caller.raw());
    let result = instance.query_ctx(&ctx, &query)?;
    drop(root);

    let favourite = result.entries.first().expect("Alice has basketball data");
    println!("Alice's favourite basketball team over the last 10 days:");
    println!(
        "  feature id {} with {} likes ({} slices merged)",
        favourite.feature,
        favourite.counts.get_or_zero(0),
        result.slices_visited,
    );
    assert_eq!(favourite.feature, warriors, "Warriors, as in the paper");

    // The same profile answers other windows with no extra configuration —
    // the flexibility the legacy lambda split could not provide.
    let query_1d = ProfileQuery::top_k(table, alice, sports, TimeRange::last_days(1), 10)
        .with_action(basketball);
    let recent = instance.query_ctx(&ctx, &query_1d)?;
    println!(
        "Features in the last 1 day: {} (Warriors like was 2 days ago)",
        recent.len()
    );
    assert!(recent.is_empty());

    // And a decayed view that favours recent interests.
    let decayed = instance.query_ctx(
        &ctx,
        &ProfileQuery::decay(
            table,
            alice,
            sports,
            TimeRange::last_days(30),
            DecayFunction::Exponential {
                half_life: DurationMs::from_days(3),
            },
            1.0,
            10,
        )
        .with_action(basketball),
    )?;
    println!("Decayed ranking (recent interests first):");
    for entry in &decayed.entries {
        println!(
            "  feature {} decayed-likes {}",
            entry.feature,
            entry.counts.get_or_zero(0)
        );
    }
    assert_eq!(decayed.entries[0].feature, warriors);

    // Dump the collected spans as a chrome://tracing / Perfetto trace.
    let spans = tracer.drain();
    std::fs::write("quickstart_trace.json", chrome_trace_json(&spans))
        .map_err(|e| IpsError::Storage(e.to_string()))?;
    println!(
        "wrote quickstart_trace.json ({} spans) — open it at https://ui.perfetto.dev",
        spans.len()
    );

    println!("quickstart: OK");
    Ok(())
}
