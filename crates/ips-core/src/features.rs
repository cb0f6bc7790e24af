//! Higher-level feature assembly (§V-a, §I).
//!
//! "With the help of IPS, we can extract thousands of features for a single
//! request, assemble them for serving and flush them into training data in
//! parallel to avoid training-serving skew." And from the lessons learned:
//! "we summarized the typical usage scenarios and provided higher-level
//! APIs or templating tools to ease the integration."
//!
//! [`FeatureTemplate`] is that template: a named list of [`FeatureSpec`]s
//! (each one profile query plus a reduction into scalar values).
//! [`assemble`] executes the whole template for a profile and returns a
//! flat, stably-ordered [`FeatureVector`] ready to feed a model — and the
//! *same* vector can be logged as a training sample, which is precisely how
//! training-serving skew is avoided: one code path produces both.

use std::sync::Arc;

use ips_types::config::DecayFunction;
use ips_types::{
    ActionTypeId, ProfileId, Result, SlotId, SortKey, SortOrder, TableId, TimeRange, Timestamp,
};

use crate::query::{FilterPredicate, ProfileQuery, QueryKind};
use crate::server::{IpsInstance, RequestContext};

/// How one query's entries reduce to scalar feature values.
#[derive(Clone, Debug, PartialEq)]
pub enum Reduction {
    /// Sum of one attribute over all returned entries (e.g. total clicks in
    /// the window).
    SumAttribute(usize),
    /// `attr_a / attr_b` over the summed entries — the CTR pattern
    /// (clicks / impressions). Zero when the denominator is empty.
    Ratio {
        numerator: usize,
        denominator: usize,
    },
    /// Number of entries returned (distinct features in the window).
    Count,
    /// The top entry's feature id, as a raw id value (an embedding lookup
    /// key for sparse models). Zero when empty.
    TopFeatureId,
    /// The top-k entries' attribute values, zero-padded to `k` outputs.
    TopKAttribute { attr: usize, k: usize },
}

impl Reduction {
    /// Number of scalar outputs this reduction contributes.
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            Reduction::TopKAttribute { k, .. } => *k,
            _ => 1,
        }
    }
}

/// One named feature (or feature block) in a template.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureSpec {
    /// Stable name; becomes `name` (width 1) or `name[i]` in the output.
    pub name: String,
    pub slot: SlotId,
    /// `None` merges all action types in the slot.
    pub action: Option<ActionTypeId>,
    pub range: TimeRange,
    /// Applied before reduction, per slice (favour recent behaviour).
    pub decay: DecayFunction,
    pub reduction: Reduction,
}

impl FeatureSpec {
    /// A sum-of-attribute feature over a window.
    #[must_use]
    pub fn sum(name: impl Into<String>, slot: SlotId, range: TimeRange, attr: usize) -> Self {
        Self {
            name: name.into(),
            slot,
            action: None,
            range,
            decay: DecayFunction::None,
            reduction: Reduction::SumAttribute(attr),
        }
    }

    /// A CTR-style ratio feature.
    #[must_use]
    pub fn ratio(
        name: impl Into<String>,
        slot: SlotId,
        range: TimeRange,
        numerator: usize,
        denominator: usize,
    ) -> Self {
        Self {
            name: name.into(),
            slot,
            action: None,
            range,
            decay: DecayFunction::None,
            reduction: Reduction::Ratio {
                numerator,
                denominator,
            },
        }
    }

    /// The top-k attribute block (sparse-model embedding inputs use
    /// [`Reduction::TopFeatureId`] similarly).
    #[must_use]
    pub fn top_k(
        name: impl Into<String>,
        slot: SlotId,
        range: TimeRange,
        attr: usize,
        k: usize,
    ) -> Self {
        Self {
            name: name.into(),
            slot,
            action: None,
            range,
            decay: DecayFunction::None,
            reduction: Reduction::TopKAttribute { attr, k },
        }
    }

    /// Narrow to one action type.
    #[must_use]
    pub fn with_action(mut self, action: ActionTypeId) -> Self {
        self.action = Some(action);
        self
    }

    /// Apply a decay function before reduction.
    #[must_use]
    pub fn with_decay(mut self, decay: DecayFunction) -> Self {
        self.decay = decay;
        self
    }

    fn to_query(&self, table: TableId, profile: ProfileId) -> ProfileQuery {
        let kind = match &self.reduction {
            Reduction::TopKAttribute { attr, k } => QueryKind::TopK {
                k: *k,
                sort: SortKey::Attribute(*attr),
                order: SortOrder::Descending,
            },
            Reduction::TopFeatureId => QueryKind::TopK {
                k: 1,
                sort: SortKey::Attribute(0),
                order: SortOrder::Descending,
            },
            // Aggregating reductions need every entry in the window.
            _ => QueryKind::Filter {
                predicate: FilterPredicate::All,
            },
        };
        ProfileQuery {
            table,
            profile,
            slot: self.slot,
            action: self.action,
            range: self.range,
            kind,
            decay: self.decay,
            decay_factor: 1.0,
        }
    }
}

/// A named, ordered collection of feature specs for one table.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureTemplate {
    pub name: String,
    pub table: TableId,
    pub specs: Vec<FeatureSpec>,
}

impl FeatureTemplate {
    #[must_use]
    pub fn new(name: impl Into<String>, table: TableId) -> Self {
        Self {
            name: name.into(),
            table,
            specs: Vec::new(),
        }
    }

    /// Builder-style spec addition.
    #[must_use]
    pub fn with(mut self, spec: FeatureSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Total scalar width of the assembled vector.
    #[must_use]
    pub fn width(&self) -> usize {
        self.specs.iter().map(|s| s.reduction.width()).sum()
    }

    /// The stable output names, expanded for multi-output reductions.
    #[must_use]
    pub fn output_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.width());
        for spec in &self.specs {
            let w = spec.reduction.width();
            if w == 1 {
                names.push(spec.name.clone());
            } else {
                for i in 0..w {
                    names.push(format!("{}[{i}]", spec.name));
                }
            }
        }
        names
    }
}

/// The assembled result: flat values aligned with
/// [`FeatureTemplate::output_names`].
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureVector {
    pub profile: ProfileId,
    pub assembled_at: Timestamp,
    pub values: Vec<f64>,
}

impl FeatureVector {
    /// Value by output name (linear scan; vectors are small).
    #[must_use]
    pub fn get(&self, template: &FeatureTemplate, name: &str) -> Option<f64> {
        template
            .output_names()
            .iter()
            .position(|n| n == name)
            .map(|i| self.values[i])
    }
}

/// Execute `template` for one profile against an instance. Each spec is one
/// profile query; results reduce into the flat vector in spec order.
pub fn assemble(
    instance: &Arc<IpsInstance>,
    ctx: &RequestContext,
    template: &FeatureTemplate,
    profile: ProfileId,
) -> Result<FeatureVector> {
    let mut values = Vec::with_capacity(template.width());
    let now = instance.clock().now();
    for spec in &template.specs {
        let query = spec.to_query(template.table, profile);
        let result = instance.query_ctx(ctx, &query)?;
        match &spec.reduction {
            Reduction::SumAttribute(attr) => {
                let sum: i64 = result
                    .entries
                    .iter()
                    .map(|e| e.counts.get_or_zero(*attr))
                    .sum();
                values.push(sum as f64);
            }
            Reduction::Ratio {
                numerator,
                denominator,
            } => {
                let num: i64 = result
                    .entries
                    .iter()
                    .map(|e| e.counts.get_or_zero(*numerator))
                    .sum();
                let den: i64 = result
                    .entries
                    .iter()
                    .map(|e| e.counts.get_or_zero(*denominator))
                    .sum();
                values.push(if den == 0 {
                    0.0
                } else {
                    num as f64 / den as f64
                });
            }
            Reduction::Count => values.push(result.len() as f64),
            Reduction::TopFeatureId => {
                values.push(
                    result
                        .entries
                        .first()
                        .map_or(0.0, |e| e.feature.raw() as f64),
                );
            }
            Reduction::TopKAttribute { attr, k } => {
                for i in 0..*k {
                    values.push(
                        result
                            .entries
                            .get(i)
                            .map_or(0.0, |e| e.counts.get_or_zero(*attr) as f64),
                    );
                }
            }
        }
    }
    debug_assert_eq!(values.len(), template.width());
    Ok(FeatureVector {
        profile,
        assembled_at: now,
        values,
    })
}

/// Assemble the same template for many profiles (ranking a candidate batch).
/// Per-profile failures become `Err` entries so one bad profile doesn't
/// sink the batch.
pub fn assemble_batch(
    instance: &Arc<IpsInstance>,
    ctx: &RequestContext,
    template: &FeatureTemplate,
    profiles: &[ProfileId],
) -> Vec<Result<FeatureVector>> {
    profiles
        .iter()
        .map(|pid| assemble(instance, ctx, template, *pid))
        .collect()
}

/// Render a feature vector as a training sample line: tab-separated
/// `name:value` pairs prefixed by profile id and timestamp. Flushing the
/// *serving-path* vector into training data is the paper's
/// anti-training-serving-skew pattern.
#[must_use]
pub fn to_training_sample(template: &FeatureTemplate, vector: &FeatureVector) -> String {
    let mut out = format!("{}\t{}", vector.profile, vector.assembled_at);
    for (name, value) in template.output_names().iter().zip(&vector.values) {
        out.push('\t');
        out.push_str(name);
        out.push(':');
        out.push_str(&format!("{value}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::IpsInstanceOptions;
    use ips_types::clock::sim_clock;
    use ips_types::{CallerId, CountVector, DurationMs, FeatureId, TableConfig};

    const TABLE: TableId = TableId(1);
    const CALLER: CallerId = CallerId(1);
    const CTX: RequestContext = RequestContext::new(CALLER);
    const SLOT: SlotId = SlotId(1);
    const CLICK: usize = 0;
    const IMPRESSION: usize = 1;

    fn setup() -> (Arc<IpsInstance>, ips_types::SimClock, ProfileId) {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(
            DurationMs::from_days(100).as_millis(),
        ));
        let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock);
        let mut cfg = TableConfig::new("features");
        cfg.attributes = 2;
        cfg.isolation.enabled = false;
        instance.create_table(TABLE, cfg).unwrap();
        let user = ProfileId::new(7);
        // 3 features with different click/impression shapes.
        use ips_types::Clock as _;
        for (fid, clicks, imps, days_ago) in
            [(1u64, 10i64, 100i64, 1u64), (2, 30, 50, 2), (3, 5, 500, 20)]
        {
            instance
                .add_profiles_ctx(
                    &CTX,
                    TABLE,
                    user,
                    ctl.now().saturating_sub(DurationMs::from_days(days_ago)),
                    SLOT,
                    ActionTypeId::new(1),
                    &[(FeatureId::new(fid), CountVector::pair(clicks, imps))],
                )
                .unwrap();
        }
        (instance, ctl, user)
    }

    fn template() -> FeatureTemplate {
        FeatureTemplate::new("ranking_v1", TABLE)
            .with(FeatureSpec::sum(
                "clicks_7d",
                SLOT,
                TimeRange::last_days(7),
                CLICK,
            ))
            .with(FeatureSpec::ratio(
                "ctr_7d",
                SLOT,
                TimeRange::last_days(7),
                CLICK,
                IMPRESSION,
            ))
            .with(FeatureSpec {
                name: "distinct_30d".into(),
                slot: SLOT,
                action: None,
                range: TimeRange::last_days(30),
                decay: DecayFunction::None,
                reduction: Reduction::Count,
            })
            .with(FeatureSpec {
                name: "top_fid_30d".into(),
                slot: SLOT,
                action: None,
                range: TimeRange::last_days(30),
                decay: DecayFunction::None,
                reduction: Reduction::TopFeatureId,
            })
            .with(FeatureSpec::top_k(
                "top_clicks_30d",
                SLOT,
                TimeRange::last_days(30),
                CLICK,
                3,
            ))
    }

    #[test]
    fn width_and_names() {
        let t = template();
        assert_eq!(t.width(), 1 + 1 + 1 + 1 + 3);
        let names = t.output_names();
        assert_eq!(names[0], "clicks_7d");
        assert_eq!(names[4], "top_clicks_30d[0]");
        assert_eq!(names[6], "top_clicks_30d[2]");
    }

    #[test]
    fn assembles_expected_values() {
        let (instance, _ctl, user) = setup();
        let t = template();
        let v = assemble(&instance, &CTX, &t, user).unwrap();
        assert_eq!(v.values.len(), t.width());
        // clicks_7d: fids 1 and 2 are within 7 days: 10 + 30 = 40.
        assert_eq!(v.get(&t, "clicks_7d"), Some(40.0));
        // ctr_7d: 40 clicks / 150 impressions.
        let ctr = v.get(&t, "ctr_7d").unwrap();
        assert!((ctr - 40.0 / 150.0).abs() < 1e-9);
        // distinct_30d: all three features.
        assert_eq!(v.get(&t, "distinct_30d"), Some(3.0));
        // top_fid_30d: fid 2 has the most clicks (30).
        assert_eq!(v.get(&t, "top_fid_30d"), Some(2.0));
        // top_clicks_30d: [30, 10, 5].
        assert_eq!(v.get(&t, "top_clicks_30d[0]"), Some(30.0));
        assert_eq!(v.get(&t, "top_clicks_30d[1]"), Some(10.0));
        assert_eq!(v.get(&t, "top_clicks_30d[2]"), Some(5.0));
    }

    #[test]
    fn empty_profile_yields_zero_vector() {
        let (instance, _ctl, _user) = setup();
        let t = template();
        let v = assemble(&instance, &CTX, &t, ProfileId::new(404)).unwrap();
        assert_eq!(v.values, vec![0.0; t.width()]);
    }

    #[test]
    fn top_k_zero_pads() {
        let (instance, _ctl, user) = setup();
        let t = FeatureTemplate::new("wide", TABLE).with(FeatureSpec::top_k(
            "top10",
            SLOT,
            TimeRange::last_days(30),
            CLICK,
            10,
        ));
        let v = assemble(&instance, &CTX, &t, user).unwrap();
        assert_eq!(v.values.len(), 10);
        assert_eq!(v.values[3], 0.0, "only 3 features exist; rest zero-padded");
    }

    #[test]
    fn decayed_spec_downweights_old() {
        let (instance, _ctl, user) = setup();
        let plain = FeatureTemplate::new("p", TABLE).with(FeatureSpec::sum(
            "clicks_30d",
            SLOT,
            TimeRange::last_days(30),
            CLICK,
        ));
        let decayed = FeatureTemplate::new("d", TABLE).with(
            FeatureSpec::sum("clicks_30d", SLOT, TimeRange::last_days(30), CLICK).with_decay(
                DecayFunction::Exponential {
                    half_life: DurationMs::from_days(1),
                },
            ),
        );
        let vp = assemble(&instance, &CTX, &plain, user).unwrap();
        let vd = assemble(&instance, &CTX, &decayed, user).unwrap();
        assert!(
            vd.values[0] < vp.values[0],
            "{} !< {}",
            vd.values[0],
            vp.values[0]
        );
    }

    #[test]
    fn batch_assembly_isolates_failures() {
        let (instance, _ctl, user) = setup();
        // A caller with zero quota fails; per-profile errors must not sink
        // the batch shape.
        let t = template();
        let results = assemble_batch(&instance, &CTX, &t, &[user, ProfileId::new(404)]);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(Result::is_ok));
        // Quota failure case:
        instance.quota.set_quota(
            CallerId::new(9),
            ips_types::QuotaConfig {
                qps_limit: 0,
                burst_factor: 1.0,
            },
        );
        let results = assemble_batch(
            &instance,
            &RequestContext::new(CallerId::new(9)),
            &t,
            &[user],
        );
        assert!(matches!(
            results[0],
            Err(ips_types::IpsError::QuotaExceeded(_))
        ));
    }

    #[test]
    fn training_sample_line_is_stable() {
        let (instance, _ctl, user) = setup();
        let t = template();
        let v = assemble(&instance, &CTX, &t, user).unwrap();
        let line = to_training_sample(&t, &v);
        assert!(line.contains("clicks_7d:40"));
        assert!(line.contains("top_clicks_30d[0]:30"));
        assert!(line.starts_with(&format!("{user}\t")));
        // Serving and training see the same values by construction.
        let v2 = assemble(&instance, &CTX, &t, user).unwrap();
        assert_eq!(to_training_sample(&t, &v2), line);
    }
}
