//! Classification outcomes (paper §5.5).
//!
//! The algorithm returns a two-character class per AS: the first character
//! is the tagging behavior (`t`/`s`/`u`/`n`), the second the forwarding
//! behavior (`f`/`c`/`u`/`n`):
//!
//! * `t`agger / `s`ilent — threshold met,
//! * `u`ndecided — counters exist but contradict (selective behavior),
//! * `n`one — no counters (conditions never satisfied, or race condition).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Inferred tagging behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaggingClass {
    /// Consistently tags (`t`).
    Tagger,
    /// Consistently silent (`s`).
    Silent,
    /// Contradictory counters (`u`).
    Undecided,
    /// No information (`n`).
    None,
}

/// Inferred forwarding behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ForwardingClass {
    /// Consistently forwards (`f`).
    Forward,
    /// Consistently cleans (`c`).
    Cleaner,
    /// Contradictory counters (`u`).
    Undecided,
    /// No information (`n`).
    None,
}

impl TaggingClass {
    /// One-character code.
    pub fn code(self) -> char {
        match self {
            TaggingClass::Tagger => 't',
            TaggingClass::Silent => 's',
            TaggingClass::Undecided => 'u',
            TaggingClass::None => 'n',
        }
    }

    /// Inverse of [`code`](TaggingClass::code).
    pub fn from_code(c: char) -> Option<Self> {
        match c {
            't' => Some(TaggingClass::Tagger),
            's' => Some(TaggingClass::Silent),
            'u' => Some(TaggingClass::Undecided),
            'n' => Some(TaggingClass::None),
            _ => None,
        }
    }
}

impl ForwardingClass {
    /// One-character code.
    pub fn code(self) -> char {
        match self {
            ForwardingClass::Forward => 'f',
            ForwardingClass::Cleaner => 'c',
            ForwardingClass::Undecided => 'u',
            ForwardingClass::None => 'n',
        }
    }

    /// Inverse of [`code`](ForwardingClass::code).
    pub fn from_code(c: char) -> Option<Self> {
        match c {
            'f' => Some(ForwardingClass::Forward),
            'c' => Some(ForwardingClass::Cleaner),
            'u' => Some(ForwardingClass::Undecided),
            'n' => Some(ForwardingClass::None),
            _ => None,
        }
    }
}

/// The combined per-AS classification (`get_class` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Class {
    /// Tagging side.
    pub tagging: TaggingClass,
    /// Forwarding side.
    pub forwarding: ForwardingClass,
}

impl Class {
    /// The `nn` class (nothing known).
    pub const NONE: Class = Class {
        tagging: TaggingClass::None,
        forwarding: ForwardingClass::None,
    };

    /// Whether both behaviors were decided (`tf`, `tc`, `sf`, `sc`) — the
    /// paper's "full classification".
    pub fn is_full(&self) -> bool {
        matches!(self.tagging, TaggingClass::Tagger | TaggingClass::Silent)
            && matches!(
                self.forwarding,
                ForwardingClass::Forward | ForwardingClass::Cleaner
            )
    }

    /// Whether the tagging side was decided but not the forwarding side —
    /// the paper's "partial classification".
    pub fn is_partial(&self) -> bool {
        matches!(self.tagging, TaggingClass::Tagger | TaggingClass::Silent) && !self.is_full()
    }

    /// The two-character string, e.g. `"tf"`, `"nu"`: the tagging code
    /// then the forwarding code, read from a table (no allocation).
    pub fn as_str(&self) -> &'static str {
        // Row: tagging, column: forwarding, both in declaration order.
        const CODES: [&str; 16] = [
            "tf", "tc", "tu", "tn", "sf", "sc", "su", "sn", "uf", "uc", "uu", "un", "nf", "nc",
            "nu", "nn",
        ];
        CODES[self.tagging as usize * 4 + self.forwarding as usize]
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Class {
    type Err = String;

    /// Parse a two-character class code (`"tf"`, `"un"`, …) — the inverse
    /// of [`Display`](std::fmt::Display), used by query front ends filtering on class.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut chars = s.chars();
        let (Some(t), Some(f), None) = (chars.next(), chars.next(), chars.next()) else {
            return Err(format!("class code {s:?} is not two characters"));
        };
        let tagging =
            TaggingClass::from_code(t).ok_or_else(|| format!("bad tagging code {t:?}"))?;
        let forwarding =
            ForwardingClass::from_code(f).ok_or_else(|| format!("bad forwarding code {f:?}"))?;
        Ok(Class {
            tagging,
            forwarding,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes() {
        assert_eq!(TaggingClass::Tagger.code(), 't');
        assert_eq!(TaggingClass::Silent.code(), 's');
        assert_eq!(TaggingClass::Undecided.code(), 'u');
        assert_eq!(TaggingClass::None.code(), 'n');
        assert_eq!(ForwardingClass::Forward.code(), 'f');
        assert_eq!(ForwardingClass::Cleaner.code(), 'c');
    }

    #[test]
    fn full_partial_none() {
        let tf = Class {
            tagging: TaggingClass::Tagger,
            forwarding: ForwardingClass::Forward,
        };
        assert!(tf.is_full());
        assert!(!tf.is_partial());
        assert_eq!(tf.to_string(), "tf");

        let tn = Class {
            tagging: TaggingClass::Tagger,
            forwarding: ForwardingClass::None,
        };
        assert!(!tn.is_full());
        assert!(tn.is_partial());
        assert_eq!(tn.as_str(), "tn");

        assert!(!Class::NONE.is_full());
        assert!(!Class::NONE.is_partial());
        assert_eq!(Class::NONE.to_string(), "nn");
    }

    #[test]
    fn class_codes_roundtrip() {
        for t in [
            TaggingClass::Tagger,
            TaggingClass::Silent,
            TaggingClass::Undecided,
            TaggingClass::None,
        ] {
            assert_eq!(TaggingClass::from_code(t.code()), Some(t));
            for f in [
                ForwardingClass::Forward,
                ForwardingClass::Cleaner,
                ForwardingClass::Undecided,
                ForwardingClass::None,
            ] {
                assert_eq!(ForwardingClass::from_code(f.code()), Some(f));
                let class = Class {
                    tagging: t,
                    forwarding: f,
                };
                assert_eq!(class.as_str().parse::<Class>().unwrap(), class);
                let codes: String = [t.code(), f.code()].into_iter().collect();
                assert_eq!(class.as_str(), codes);
                assert_eq!(class.to_string(), codes);
            }
        }
        assert!(TaggingClass::from_code('x').is_none());
        assert!("t".parse::<Class>().is_err());
        assert!("tfx".parse::<Class>().is_err());
        assert!("xf".parse::<Class>().is_err());
    }

    #[test]
    fn undecided_combinations() {
        let uu = Class {
            tagging: TaggingClass::Undecided,
            forwarding: ForwardingClass::Undecided,
        };
        assert!(!uu.is_full());
        assert!(!uu.is_partial());
        assert_eq!(uu.as_str(), "uu");
    }
}
