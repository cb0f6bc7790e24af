//! Content feeds: the §I-c use case.
//!
//! A news-feed product uses IPS as "the hub for feature extraction": short
//! term features promote trending content within minutes (clicks / CTR on
//! breaking news), while long-term features capture latent interests (the
//! cooking-then-hiking reader who should see trail-cooking recipes).
//!
//! This example runs a miniature feed: a burst of traffic on a breaking
//! story, a user with months of cooking history who recently switched to
//! hiking, and the feature queries a ranking service would issue for both.
//!
//! Run with: `cargo run --example content_feeds`

use ips::ingest::{WorkloadConfig, WorkloadGenerator};
use ips::prelude::*;

const ATTR_CLICK: usize = 0;
const ATTR_IMPRESSION: usize = 1;

fn main() -> Result<()> {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(200).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(
        IpsInstanceOptions {
            name: "feeds".into(),
            ..Default::default()
        },
        clock.clone(),
    );

    // Two tables: user profiles and item (content-side) stats — the paper's
    // "video-side features" are stats keyed by content rather than user.
    let users = TableId::new(1);
    let items = TableId::new(2);
    for (id, name) in [(users, "user_profiles"), (items, "item_stats")] {
        let mut cfg = TableConfig::new(name);
        cfg.attributes = 2; // [clicks, impressions]
        cfg.isolation.enabled = false;
        instance.create_table(id, cfg)?;
    }
    let ctx = RequestContext::new(CallerId::new(1));
    let news = SlotId::new(1);
    let hobbies = SlotId::new(2);
    let view = ActionTypeId::new(1);

    // ---- short-term: a breaking story gets a click burst ----------------
    let breaking = FeatureId::from_name("breaking-story-4711");
    let older_story = FeatureId::from_name("yesterday-story");
    let story_profile = ProfileId::new(4711); // item-keyed profile
    let old_profile = ProfileId::new(4000);

    // Yesterday's story accumulated plenty of clicks... yesterday.
    let yesterday = ctl.now().saturating_sub(DurationMs::from_days(1));
    instance.add_profiles_ctx(
        &ctx,
        items,
        old_profile,
        yesterday,
        news,
        view,
        &[(older_story, CountVector::from_slice(&[5_000, 40_000]))],
    )?;

    // The breaking story has had 10 minutes of traffic.
    let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
    for minute in 0..10u64 {
        let at = ctl.now().saturating_sub(DurationMs::from_mins(10 - minute));
        let clicks = 300 + 100 * minute as i64; // accelerating
        let _ = &mut generator;
        instance.add_profiles_ctx(
            &ctx,
            items,
            story_profile,
            at,
            news,
            view,
            &[(breaking, CountVector::from_slice(&[clicks, clicks * 6]))],
        )?;
    }

    // Ranking-side query: clicks and CTR over the last 15 minutes.
    let ctr = |profile: ProfileId, fid: FeatureId| -> Result<Option<(i64, f64)>> {
        let q = ProfileQuery::filter(
            items,
            profile,
            news,
            TimeRange::last(DurationMs::from_mins(15)),
            FilterPredicate::FeatureIn(vec![fid]),
        );
        let r = instance.query_ctx(&ctx, &q)?;
        Ok(r.entries.first().map(|e| {
            let clicks = e.counts.get_or_zero(ATTR_CLICK);
            let imps = e.counts.get_or_zero(ATTR_IMPRESSION).max(1);
            (clicks, clicks as f64 / imps as f64)
        }))
    };
    let (clicks, rate) = ctr(story_profile, breaking)?.expect("breaking story has recent stats");
    println!("breaking story, last 15m: {clicks} clicks, CTR {rate:.3}");
    assert!(clicks > 5_000, "the burst is visible within minutes");
    assert!(
        ctr(old_profile, older_story)?.is_none(),
        "yesterday's story has no last-15m stats — it stops trending"
    );

    // ---- long-term: cooking history, recent hiking -----------------------
    let reader = ProfileId::from_name("cooking-then-hiking-reader");
    let cooking = FeatureId::from_name("topic:cooking");
    let hiking = FeatureId::from_name("topic:hiking");

    // Three months of cooking views.
    for day in 1..=90u64 {
        let at = ctl.now().saturating_sub(DurationMs::from_days(day));
        instance.add_profiles_ctx(
            &ctx,
            users,
            reader,
            at,
            hobbies,
            view,
            &[(cooking, CountVector::from_slice(&[2, 10]))],
        )?;
    }
    // Two weeks of hiking views.
    for day in 1..=14u64 {
        let at = ctl.now().saturating_sub(DurationMs::from_days(day));
        instance.add_profiles_ctx(
            &ctx,
            users,
            reader,
            at,
            hobbies,
            view,
            &[(hiking, CountVector::from_slice(&[3, 10]))],
        )?;
    }

    // Long window: cooking dominates (the latent interest)...
    let long = instance.query_ctx(
        &ctx,
        &ProfileQuery::top_k(users, reader, hobbies, TimeRange::last_days(120), 2),
    )?;
    println!(
        "120-day interests: {:?}",
        long.entries
            .iter()
            .map(|e| (e.feature, e.counts.get_or_zero(ATTR_CLICK)))
            .collect::<Vec<_>>()
    );
    assert_eq!(long.entries[0].feature, cooking);

    // ...short window: hiking leads (the current interest)...
    let short = instance.query_ctx(
        &ctx,
        &ProfileQuery::top_k(users, reader, hobbies, TimeRange::last_days(7), 2),
    )?;
    assert_eq!(short.entries[0].feature, hiking);

    // ...and the model gets BOTH as features from one store, which is what
    // lets it recommend trail-cooking recipes.
    println!(
        "7-day interests:   {:?}",
        short
            .entries
            .iter()
            .map(|e| (e.feature, e.counts.get_or_zero(ATTR_CLICK)))
            .collect::<Vec<_>>()
    );
    println!("=> rank 'trail cooking recipes' high for this reader");

    // Production hygiene: compaction keeps the 90-day profile bounded.
    instance.tick()?;
    let rt = instance.table(users)?;
    let slices = rt
        .cache
        .read(reader, |p| p.slice_count())?
        .map(|(n, _)| n)
        .unwrap_or(0);
    println!("reader profile holds {slices} slices after compaction");

    println!("content_feeds: OK");
    Ok(())
}
