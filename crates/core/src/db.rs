//! Inference database export/import.
//!
//! The paper publishes its per-AS inferences as a public resource (its
//! reference \[5\]); this
//! module provides the equivalent: a line-oriented text format
//! (`asn<TAB>class<TAB>t s f c`) that round-trips the full outcome, with a
//! tiny hand-rolled writer/reader. It is the only serialization of an
//! outcome: the `serde` derives on the types are no-op shims with no
//! serializer behind them.

use crate::classify::Class;
use crate::counters::{AsCounters, CounterStore, Thresholds};
use crate::engine::InferenceOutcome;
use bgp_types::prelude::*;
use std::fmt::Write as _;

/// Serialize an outcome to the release format.
///
/// Header lines (`#`) carry the thresholds; each record line is
/// `asn<TAB>class<TAB>t<SP>s<SP>f<SP>c`.
pub fn export(outcome: &InferenceOutcome) -> String {
    let mut out = String::new();
    let th = outcome.thresholds;
    writeln!(
        out,
        "# bgp-community-usage inference db v1\n# thresholds tagger={} silent={} forward={} cleaner={}",
        th.tagger, th.silent, th.forward, th.cleaner
    )
    .expect("string write");
    let mut rows: Vec<(Asn, AsCounters)> = outcome.counters.iter().collect();
    rows.sort_by_key(|&(a, _)| a);
    for (asn, c) in rows {
        let class = outcome.class_of(asn);
        writeln!(out, "{}\t{}\t{} {} {} {}", asn.0, class, c.t, c.s, c.f, c.c)
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

/// The record of one AS, or `None` when the outcome never counted it —
/// the point-query counterpart of [`records`], for per-request use by a
/// serving layer (no full-table materialization).
pub fn record_of(outcome: &InferenceOutcome, asn: Asn) -> Option<DbRecord> {
    outcome.counters.lookup(asn).map(|counters| DbRecord {
        asn,
        class: counters.classify(&outcome.thresholds),
        counters,
    })
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

/// The dictionary entry for one community value (see [`lookup_community`]).
#[derive(Debug, Clone, Copy)]
pub struct CommunityLookup {
    /// The AS named by the upper field / global administrator.
    pub owner: Asn,
    /// The owner's record in the database, if it was ever counted.
    pub owner_record: Option<DbRecord>,
    /// IANA registry entry when the value is a well-known community.
    pub well_known: Option<&'static bgp_types::wellknown::WellKnown>,
    /// The attribution verdict.
    pub verdict: CommunityVerdict,
}

/// Look one community value up in the inference database: who does the
/// upper field name, what do we know about that AS, and is the
/// attribution credible?
pub fn lookup_community(outcome: &InferenceOutcome, community: &AnyCommunity) -> CommunityLookup {
    let owner = community.upper_field();
    let well_known = bgp_types::wellknown::lookup_any(community);
    let owner_record = record_of(outcome, owner);
    let verdict = community_verdict(owner_record.as_ref(), community);
    CommunityLookup {
        owner,
        owner_record,
        well_known,
        verdict,
    }
}

/// The verdict for a community value given its owner's database record
/// (if any) — the single decision rule behind [`lookup_community`] and
/// any serving layer that already holds the owner's record.
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
    fn record_of_matches_records() {
        let outcome = sample_outcome();
        for r in records(&outcome) {
            let point = record_of(&outcome, r.asn).expect("counted AS has a record");
            assert_eq!(point, r);
        }
        assert!(record_of(&outcome, Asn(4_000_000_000)).is_none());
    }

    #[test]
    fn community_dictionary_verdicts() {
        let outcome = sample_outcome(); // 5 tags; 9 silent (never tags)
        let tagged = AnyCommunity::regular(5, 100);
        let looked = lookup_community(&outcome, &tagged);
        assert_eq!(looked.owner, Asn(5));
        assert_eq!(looked.verdict, CommunityVerdict::Attributable);
        assert!(looked.well_known.is_none());
        assert!(looked.owner_record.is_some());

        // Well-known values are interpreted by the registry, not the db.
        let bh = AnyCommunity::Regular(Community::BLACKHOLE);
        let looked = lookup_community(&outcome, &bh);
        assert_eq!(looked.verdict, CommunityVerdict::WellKnown);
        assert_eq!(looked.well_known.unwrap().name, "BLACKHOLE");

        // An AS the db never counted yields no attribution either way.
        let unknown = AnyCommunity::regular(64000, 1);
        let looked = lookup_community(&outcome, &unknown);
        assert_eq!(looked.verdict, CommunityVerdict::Unattributed);
        assert!(looked.owner_record.is_none());
    }
}
