//! Advertising: the §I-d use case.
//!
//! Ads place two extra demands on the profile service: **flow control**
//! (impressions/conversions must be counted responsively so a campaign's
//! delivery can be paced over its flight) and **bid freshness** (auction
//! prices are "very sensitive and volatile" — the model must see the latest
//! bid, not an aggregate).
//!
//! This example runs a campaign through a pacing loop fed by IPS counts,
//! and stores bids in a `Last`-aggregated table so every update replaces
//! the previous value.
//!
//! Run with: `cargo run --example advertising`

use ips::prelude::*;

const ATTR_IMPRESSION: usize = 0;
const ATTR_CONVERSION: usize = 1;

fn main() -> Result<()> {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(50).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(
        IpsInstanceOptions {
            name: "ads".into(),
            ..Default::default()
        },
        clock.clone(),
    );

    // Campaign delivery stats: Sum-aggregated impressions/conversions.
    let delivery = TableId::new(1);
    let mut cfg = TableConfig::new("campaign_delivery");
    cfg.attributes = 2;
    cfg.isolation.enabled = false;
    instance.create_table(delivery, cfg)?;

    // Bids: Last-aggregated — newest value wins (the paper's volatile
    // bidding-price signal).
    let bids = TableId::new(2);
    let mut cfg = TableConfig::new("bids");
    cfg.attributes = 1;
    cfg.aggregate = AggregateFunction::Last;
    cfg.isolation.enabled = false;
    instance.create_table(bids, cfg)?;

    let ctx = RequestContext::new(CallerId::new(7));
    let slot = SlotId::new(1);
    let serve = ActionTypeId::new(1);
    let campaign = ProfileId::from_name("campaign:summer-sale");
    let creative = FeatureId::from_name("creative:beach-banner");

    // ---- flow control -----------------------------------------------------
    // Target: 10_000 impressions over a 10-hour flight = 1_000/hour.
    let hourly_target = 1_000i64;
    println!("hour | delivered (1h window) | pacing decision");
    for hour in 0..6u64 {
        // Traffic pressure varies by hour; the pacer throttles using the
        // *fresh* 1-hour delivery count from IPS.
        let pressure = [800, 1_400, 2_000, 900, 1_600, 1_200][hour as usize];
        let mut delivered_this_hour = 0i64;
        for _ in 0..10 {
            // Ten pacing decisions per hour.
            let q = ProfileQuery::filter(
                delivery,
                campaign,
                slot,
                TimeRange::last(DurationMs::from_hours(1)),
                FilterPredicate::FeatureIn(vec![creative]),
            );
            let current = instance
                .query_ctx(&ctx, &q)?
                .entries
                .first()
                .map(|e| e.counts.get_or_zero(ATTR_IMPRESSION))
                .unwrap_or(0);
            let remaining = (hourly_target - current).max(0);
            // Serve up to the remaining budget out of this tick's pressure.
            let tick_pressure = pressure / 10;
            let to_serve = remaining.min(tick_pressure);
            if to_serve > 0 {
                let conversions = to_serve / 50;
                instance.add_profiles_ctx(
                    &ctx,
                    delivery,
                    campaign,
                    ctl.now(),
                    slot,
                    serve,
                    &[(creative, CountVector::from_slice(&[to_serve, conversions]))],
                )?;
                delivered_this_hour += to_serve;
            }
            ctl.advance(DurationMs::from_mins(6));
        }
        println!(
            "{hour:>4} | {delivered_this_hour:>21} | {}",
            if delivered_this_hour < hourly_target {
                "under target (low traffic)"
            } else {
                "on target (throttled)"
            }
        );
        assert!(
            delivered_this_hour <= hourly_target,
            "pacing must never overshoot the hourly budget"
        );
    }

    // Full-flight stats from the same store, any window, no extra infra.
    let flight = instance.query_ctx(
        &ctx,
        &ProfileQuery::filter(
            delivery,
            campaign,
            slot,
            TimeRange::last(DurationMs::from_hours(12)),
            FilterPredicate::FeatureIn(vec![creative]),
        ),
    )?;
    let totals = &flight.entries[0].counts;
    println!(
        "flight so far: {} impressions, {} conversions",
        totals.get_or_zero(ATTR_IMPRESSION),
        totals.get_or_zero(ATTR_CONVERSION),
    );

    // ---- bid freshness ------------------------------------------------------
    let advertiser = ProfileId::from_name("advertiser:acme");
    let keyword = FeatureId::from_name("keyword:sunscreen");
    for (minutes_ago, bid_cents) in [(30u64, 120i64), (20, 95), (10, 240), (1, 180)] {
        instance.add_profiles_ctx(
            &ctx,
            bids,
            advertiser,
            ctl.now().saturating_sub(DurationMs::from_mins(minutes_ago)),
            slot,
            serve,
            &[(keyword, CountVector::single(bid_cents))],
        )?;
    }
    let current_bid = instance.query_ctx(
        &ctx,
        &ProfileQuery::filter(
            bids,
            advertiser,
            slot,
            TimeRange::last(DurationMs::from_hours(1)),
            FilterPredicate::FeatureIn(vec![keyword]),
        ),
    )?;
    let bid = current_bid.entries[0].counts.get_or_zero(0);
    println!("current bid for 'sunscreen': {bid} cents (latest update wins)");
    assert_eq!(
        bid, 180,
        "Last aggregation returns the newest bid, not a sum"
    );

    // ---- multi-tenancy ------------------------------------------------------
    // The ads cluster is shared; a runaway reporting job gets its own quota
    // and cannot crowd out the serving path.
    let reporting_job = CallerId::new(99);
    instance.quota.set_quota(
        reporting_job,
        QuotaConfig {
            qps_limit: 5,
            burst_factor: 1.0,
        },
    );
    let mut rejected = 0;
    for _ in 0..20 {
        let q = ProfileQuery::top_k(delivery, campaign, slot, TimeRange::last_days(1), 10);
        if matches!(
            instance.query_ctx(&RequestContext::new(reporting_job), &q),
            Err(IpsError::QuotaExceeded(_))
        ) {
            rejected += 1;
        }
    }
    println!("reporting job: {rejected}/20 requests rejected by quota");
    assert!(rejected >= 10);
    // The serving caller is unaffected.
    instance.query_ctx(
        &ctx,
        &ProfileQuery::top_k(delivery, campaign, slot, TimeRange::last_days(1), 10),
    )?;

    println!("advertising: OK");
    Ok(())
}
