//! Inference database export/import, and the per-AS record table.
//!
//! The paper publishes its per-AS inferences as a public resource (its
//! reference \[5\]); this
//! module provides the equivalent: a line-oriented text format
//! (`asn<TAB>class<TAB>t s f c`) that round-trips the full outcome, with a
//! tiny hand-rolled writer/reader. It is the only serialization of an
//! outcome: the `serde` derives on the types are no-op shims with no
//! serializer behind them.
//!
//! [`export_records`] writes a [`DbRecord`] table: a batch outcome's
//! ([`records`]) or a sealed epoch's, which [`slice_records`] makes from
//! its dense columns — the one way the stream's exports, the serving
//! layer's publisher and the archive restore read an epoch.

use crate::classify::Class;
use crate::counters::{AsCounters, CounterStore, Thresholds};
use crate::engine::InferenceOutcome;
use bgp_types::prelude::*;
use std::fmt::Write as _;

/// Serialize an outcome to the release format: [`export_records`] over
/// its [`records`].
pub fn export(outcome: &InferenceOutcome) -> String {
    export_records(&outcome.thresholds, &records(outcome))
}

/// Serialize a record table, sorted by ASN, to the release format.
///
/// Header lines (`#`) carry the thresholds; each record line is
/// `asn<TAB>class<TAB>t<SP>s<SP>f<SP>c`.
pub fn export_records(th: &Thresholds, records: &[DbRecord]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# bgp-community-usage inference db v1\n# thresholds tagger={} silent={} forward={} cleaner={}",
        th.tagger, th.silent, th.forward, th.cleaner
    )
    .expect("string write");
    for r in records {
        let c = r.counters;
        writeln!(
            out,
            "{}\t{}\t{} {} {} {}",
            r.asn.0, r.class, c.t, c.s, c.f, c.c
        )
        .expect("string write");
    }
    out
}

/// Parse errors for the release format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deserialize an outcome from the release format.
pub fn import(text: &str) -> Result<InferenceOutcome, ParseError> {
    let mut thresholds = Thresholds::default();
    let mut counters = CounterStore::new();

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let err = |message: String| ParseError {
            line: lineno,
            message,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(vals) = rest.trim().strip_prefix("thresholds ") {
                for kv in vals.split_whitespace() {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| err(format!("bad threshold field {kv:?}")))?;
                    let v: f64 = v
                        .parse()
                        .map_err(|e| err(format!("bad threshold value: {e}")))?;
                    // `f64::from_str` takes `nan`, `inf` and any magnitude;
                    // a share threshold is a finite value in 0..=1.
                    if !(0.0..=1.0).contains(&v) {
                        return Err(err(format!("threshold {k}={v} outside 0..=1")));
                    }
                    match k {
                        "tagger" => thresholds.tagger = v,
                        "silent" => thresholds.silent = v,
                        "forward" => thresholds.forward = v,
                        "cleaner" => thresholds.cleaner = v,
                        other => return Err(err(format!("unknown threshold {other:?}"))),
                    }
                }
            }
            continue;
        }
        let mut fields = line.split('\t');
        let asn: u32 = fields
            .next()
            .ok_or_else(|| err("missing asn".into()))?
            .parse()
            .map_err(|e| err(format!("bad asn: {e}")))?;
        let _class = fields.next().ok_or_else(|| err("missing class".into()))?;
        let nums = fields
            .next()
            .ok_or_else(|| err("missing counters".into()))?;
        let mut it = nums.split_whitespace();
        let mut next = |name: &str| -> Result<u64, ParseError> {
            it.next()
                .ok_or_else(|| ParseError {
                    line: lineno,
                    message: format!("missing {name}"),
                })?
                .parse()
                .map_err(|e| ParseError {
                    line: lineno,
                    message: format!("bad {name}: {e}"),
                })
        };
        let c = AsCounters {
            t: next("t")?,
            s: next("s")?,
            f: next("f")?,
            c: next("c")?,
        };
        if counters.lookup(Asn(asn)).is_some() {
            return Err(err(format!("repeated asn {asn}")));
        }
        *counters.entry(Asn(asn)) = c;
    }

    Ok(InferenceOutcome {
        counters,
        thresholds,
        deepest_active_index: 0,
    })
}

/// A compact per-AS view for downstream consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbRecord {
    /// The AS.
    pub asn: Asn,
    /// Its classification.
    pub class: Class,
    /// Raw counters behind the classification.
    pub counters: AsCounters,
}

/// Flatten an outcome into records, sorted by ASN.
pub fn records(outcome: &InferenceOutcome) -> Vec<DbRecord> {
    let mut v: Vec<DbRecord> = outcome
        .counters
        .iter()
        .map(|(asn, counters)| DbRecord {
            asn,
            class: outcome.class_of(asn),
            counters,
        })
        .collect();
    v.sort_by_key(|r| r.asn);
    v
}

/// Where a class table first fails to pair with the counted ids (see
/// [`slice_records`]): the counted AS and the AS the class table names
/// in its place, `None` on the side that ran out first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceError {
    /// The counted AS, `None` when the class table goes on past the last.
    pub counted: Option<Asn>,
    /// The classed AS, `None` when the class table ended first.
    pub classed: Option<Asn>,
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let side = |asn: Option<Asn>| asn.map_or("nothing".to_string(), |a| a.to_string());
        write!(
            f,
            "counted {} is classed as {}",
            side(self.counted),
            side(self.classed)
        )
    }
}

impl std::error::Error for SliceError {}

/// The record table of one sealed epoch, sliced out of its dense columns:
/// `by_asn` is the `(asn, id)` permutation sorted by ASN, `counters` the
/// counter column every id indexes, and `classes` the seal-time class of
/// exactly the ids whose counters are not all zero, in `by_asn` order.
/// No map is built and nothing is sorted.
///
/// Every pairing is checked — the n-th counted id against the n-th class,
/// and the two lengths — so columns that disagree (an archive's, say) are
/// an error, never a record with one AS's counters and another's class.
pub fn slice_records(
    by_asn: &[(Asn, AsnId)],
    counters: &[AsCounters],
    classes: &[(Asn, Class)],
) -> Result<Vec<DbRecord>, SliceError> {
    let mut records = Vec::with_capacity(classes.len());
    let mut classes = classes.iter();
    for &(asn, id) in by_asn {
        let counters = counters[id as usize];
        if counters.is_zero() {
            continue;
        }
        match classes.next() {
            Some(&(classed, class)) if classed == asn => records.push(DbRecord {
                asn,
                class,
                counters,
            }),
            other => {
                return Err(SliceError {
                    counted: Some(asn),
                    classed: other.map(|&(classed, _)| classed),
                })
            }
        }
    }
    match classes.next() {
        Some(&(extra, _)) => Err(SliceError {
            counted: None,
            classed: Some(extra),
        }),
        None => Ok(records),
    }
}

/// How a concrete community value should be read against the inference
/// database — the "dictionary" the paper's classification enables
/// (§2: the upper field conventionally names the AS that set the value,
/// but only a *tagger* upper-field AS makes that attribution credible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommunityVerdict {
    /// A reserved RFC 1997 well-known value: the upper field is not an
    /// ASN, routers interpret it directly.
    WellKnown,
    /// The upper-field AS is an inferred tagger: the value is credibly
    /// attributed to it.
    Attributable,
    /// The upper-field AS is inferred silent: it does not tag, so someone
    /// else put its name on the wire (misconfiguration or spoofing).
    Suspicious,
    /// Not enough evidence about the upper-field AS either way.
    Unattributed,
}

impl CommunityVerdict {
    /// Stable lowercase name (API / export surface).
    pub fn name(self) -> &'static str {
        match self {
            CommunityVerdict::WellKnown => "well-known",
            CommunityVerdict::Attributable => "attributable",
            CommunityVerdict::Suspicious => "suspicious",
            CommunityVerdict::Unattributed => "unattributed",
        }
    }
}

/// The verdict for a community value given its owner's database record
/// (if any) — the single decision rule of the community dictionary,
/// evaluated by whoever holds the record table.
pub fn community_verdict(
    owner_record: Option<&DbRecord>,
    community: &AnyCommunity,
) -> CommunityVerdict {
    use crate::classify::TaggingClass;

    if community.is_well_known() {
        return CommunityVerdict::WellKnown;
    }
    match owner_record.map(|r| r.class.tagging) {
        Some(TaggingClass::Tagger) => CommunityVerdict::Attributable,
        Some(TaggingClass::Silent) => CommunityVerdict::Suspicious,
        _ => CommunityVerdict::Unattributed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{InferenceConfig, InferenceEngine};

    fn sample_outcome() -> InferenceOutcome {
        let tuples = vec![
            PathCommTuple::new(
                path(&[5, 9]),
                CommunitySet::from_iter([AnyCommunity::regular(5, 100)]),
            ),
            PathCommTuple::new(
                path(&[1, 5, 9]),
                CommunitySet::from_iter([
                    AnyCommunity::regular(1, 100),
                    AnyCommunity::regular(5, 100),
                ]),
            ),
        ];
        InferenceEngine::new(InferenceConfig {
            threads: 1,
            ..Default::default()
        })
        .run(&tuples)
    }

    #[test]
    fn export_import_roundtrip() {
        let outcome = sample_outcome();
        let text = export(&outcome);
        let back = import(&text).unwrap();
        assert_eq!(back.thresholds, outcome.thresholds);
        for (asn, c) in outcome.counters.iter() {
            assert_eq!(back.counters.get(asn), c, "counters of {asn}");
            assert_eq!(back.class_of(asn), outcome.class_of(asn));
        }
        assert_eq!(back.counters.len(), outcome.counters.len());
    }

    #[test]
    fn export_is_sorted_and_parsable_lines() {
        let text = export(&sample_outcome());
        let data_lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert!(!data_lines.is_empty());
        let asns: Vec<u32> = data_lines
            .iter()
            .map(|l| l.split('\t').next().unwrap().parse().unwrap())
            .collect();
        let mut sorted = asns.clone();
        sorted.sort_unstable();
        assert_eq!(asns, sorted);
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(import("not\ta\tvalid line here").is_err());
        let err = import("99999999x\ttf\t1 2 3 4").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn import_rejects_short_counters() {
        assert!(import("12\ttf\t1 2 3").is_err());
    }

    #[test]
    fn import_tolerates_blank_and_comment_lines() {
        let out = import("# hello\n\n12\ttf\t10 0 5 0\n").unwrap();
        assert_eq!(out.counters.get(Asn(12)).t, 10);
    }

    #[test]
    fn records_sorted() {
        let rs = records(&sample_outcome());
        assert!(rs.windows(2).all(|w| w[0].asn < w[1].asn));
        assert!(!rs.is_empty());
    }

    #[test]
    fn community_dictionary_verdicts() {
        let table = records(&sample_outcome()); // 5 tags; 64000 is never counted
        let verdict = |community: AnyCommunity| {
            let owner = community.upper_field();
            let record = table.iter().find(|r| r.asn == owner);
            community_verdict(record, &community)
        };
        assert_eq!(
            verdict(AnyCommunity::regular(5, 100)),
            CommunityVerdict::Attributable
        );
        // Well-known values are interpreted by the registry, not the db.
        assert_eq!(
            verdict(AnyCommunity::Regular(Community::BLACKHOLE)),
            CommunityVerdict::WellKnown
        );
        // An AS the db never counted yields no attribution either way.
        assert_eq!(
            verdict(AnyCommunity::regular(64000, 1)),
            CommunityVerdict::Unattributed
        );
    }
}
