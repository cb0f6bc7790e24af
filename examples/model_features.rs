//! Feature templates for model serving and training (§V-a, §I).
//!
//! A ranking service doesn't issue ad-hoc queries — it executes a *feature
//! template*: a fixed, versioned list of feature definitions whose output
//! feeds the model at serving time AND is flushed into training data, so
//! both sides compute features through one code path (no training-serving
//! skew).
//!
//! This example defines a CTR-model template over a user-profile table,
//! assembles vectors for a candidate batch, and emits the matching training
//! samples.
//!
//! Run with: `cargo run --example model_features`

use ips::core::features::{
    assemble, assemble_batch, to_training_sample, FeatureSpec, FeatureTemplate, Reduction,
};
use ips::prelude::*;

const CLICK: usize = 0;
const IMPRESSION: usize = 1;
const SHARE: usize = 2;

fn main() -> Result<()> {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(120).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock.clone());
    let table = TableId::new(1);
    let mut cfg = TableConfig::new("user_profiles");
    cfg.attributes = 3; // [clicks, impressions, shares]
    cfg.isolation.enabled = false;
    instance.create_table(table, cfg)?;
    let ctx = RequestContext::new(CallerId::new(1));

    // ---- populate three users with distinct behaviour shapes ---------------
    let news = SlotId::new(1);
    let video = SlotId::new(2);
    let view = ActionTypeId::new(1);
    let users = [
        ProfileId::from_name("heavy-clicker"),
        ProfileId::from_name("casual-browser"),
        ProfileId::from_name("sharer"),
    ];
    for (u_idx, user) in users.iter().enumerate() {
        for day in 1..=30u64 {
            let at = ctl.now().saturating_sub(DurationMs::from_days(day));
            let (clicks, imps, shares) = match u_idx {
                0 => (8, 20, 0),
                1 => (1, 15, 0),
                _ => (3, 10, 4),
            };
            instance.add_profiles_ctx(
                &ctx,
                table,
                *user,
                at,
                news,
                view,
                &[(
                    FeatureId::new(day % 7),
                    CountVector::from_slice(&[clicks, imps, shares]),
                )],
            )?;
            instance.add_profiles_ctx(
                &ctx,
                table,
                *user,
                at,
                video,
                view,
                &[(
                    FeatureId::new(100 + day % 5),
                    CountVector::from_slice(&[clicks / 2, imps / 2, shares]),
                )],
            )?;
        }
    }

    // ---- the template: what the CTR model consumes -------------------------
    let template = FeatureTemplate::new("ctr_model_v3", table)
        .with(FeatureSpec::sum(
            "news_clicks_7d",
            news,
            TimeRange::last_days(7),
            CLICK,
        ))
        .with(FeatureSpec::ratio(
            "news_ctr_7d",
            news,
            TimeRange::last_days(7),
            CLICK,
            IMPRESSION,
        ))
        .with(FeatureSpec::ratio(
            "news_ctr_30d",
            news,
            TimeRange::last_days(30),
            CLICK,
            IMPRESSION,
        ))
        .with(FeatureSpec::sum(
            "shares_30d",
            news,
            TimeRange::last_days(30),
            SHARE,
        ))
        .with(
            FeatureSpec::sum(
                "video_clicks_decayed",
                video,
                TimeRange::last_days(30),
                CLICK,
            )
            .with_decay(DecayFunction::Exponential {
                half_life: DurationMs::from_days(7),
            }),
        )
        .with(FeatureSpec {
            name: "top_news_topic".into(),
            slot: news,
            action: None,
            range: TimeRange::last_days(30),
            decay: DecayFunction::None,
            reduction: Reduction::TopFeatureId,
        })
        .with(FeatureSpec::top_k(
            "top_news_clicks",
            news,
            TimeRange::last_days(30),
            CLICK,
            3,
        ));

    println!(
        "template '{}' -> {} scalar outputs:",
        template.name,
        template.width()
    );
    for name in template.output_names() {
        println!("  {name}");
    }

    // ---- serving: assemble for a candidate batch ----------------------------
    println!();
    println!("serving-side feature vectors:");
    let vectors = assemble_batch(&instance, &ctx, &template, &users);
    for (user, vec) in users.iter().zip(&vectors) {
        let vec = vec.as_ref().expect("assembly succeeds");
        println!(
            "  user {user}: clicks_7d={:.0} ctr_7d={:.3} shares_30d={:.0}",
            vec.get(&template, "news_clicks_7d").unwrap(),
            vec.get(&template, "news_ctr_7d").unwrap(),
            vec.get(&template, "shares_30d").unwrap(),
        );
    }

    // Behaviour shapes must separate in feature space.
    let v0 = vectors[0].as_ref().unwrap();
    let v1 = vectors[1].as_ref().unwrap();
    let v2 = vectors[2].as_ref().unwrap();
    assert!(
        v0.get(&template, "news_ctr_7d").unwrap() > v1.get(&template, "news_ctr_7d").unwrap(),
        "heavy clicker has a higher CTR than the casual browser"
    );
    assert!(
        v2.get(&template, "shares_30d").unwrap() > v0.get(&template, "shares_30d").unwrap(),
        "sharer shares more"
    );

    // ---- training: flush the SAME vectors as samples -------------------------
    println!();
    println!("training samples (identical values, same code path):");
    for (user, vec) in users.iter().zip(&vectors) {
        let line = to_training_sample(&template, vec.as_ref().unwrap());
        println!("  {}", &line[..line.len().min(100)]);
        // Serving and training agree exactly.
        let again = assemble(&instance, &ctx, &template, *user)?;
        assert_eq!(again.values, vec.as_ref().unwrap().values);
    }

    println!();
    println!("model_features: OK");
    Ok(())
}
