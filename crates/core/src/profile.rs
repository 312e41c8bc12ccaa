//! Isolation profiles: what a single measurement campaign on one task
//! produces, and all the contention models consume.

use crate::platform::PerTargetOp;
use ::platform::DebugCounters;
use std::fmt;
use std::str::FromStr;

/// Exact per-target access counts (`n_x^{t,o}`), available only from a
/// simulator or an ideal DSU — the input the *ideal* model (Eq. 1)
/// assumes and real TC27x hardware cannot provide.
pub type AccessCounts = PerTargetOp;

/// Everything measured about one task in isolation.
///
/// # Examples
///
/// ```
/// use contention::{DebugCounters, IsolationProfile};
///
/// let profile = IsolationProfile::new(
///     "cruise-control",
///     DebugCounters { ccnt: 1_000_000, pmem_stall: 60_000, dmem_stall: 120_000,
///                     pcache_miss: 9_000, dcache_miss_clean: 0, dcache_miss_dirty: 0 },
/// );
/// assert_eq!(profile.counters().pmem_stall, 60_000);
/// assert!(profile.ptac().is_none());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IsolationProfile {
    name: String,
    counters: DebugCounters,
    ptac: Option<AccessCounts>,
}

impl IsolationProfile {
    /// Creates a profile from counter readings.
    pub fn new(name: impl Into<String>, counters: DebugCounters) -> Self {
        IsolationProfile {
            name: name.into(),
            counters,
            ptac: None,
        }
    }

    /// Attaches exact per-target access counts (simulator ground truth);
    /// enables the ideal model.
    #[must_use]
    pub fn with_ptac(mut self, ptac: AccessCounts) -> Self {
        self.ptac = Some(ptac);
        self
    }

    /// The task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The counter readings.
    pub fn counters(&self) -> &DebugCounters {
        &self.counters
    }

    /// Exact PTAC, if known.
    pub fn ptac(&self) -> Option<&AccessCounts> {
        self.ptac.as_ref()
    }
}

impl fmt::Display for IsolationProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.counters.abbreviated())
    }
}

impl IsolationProfile {
    /// Serialises the profile as one CSV record
    /// (`name,ccnt,ps,ds,pm,dmc,dmd`) — the interchange format a
    /// software supplier hands to the integrator. Exact PTAC is
    /// simulator-only and deliberately not part of the record.
    ///
    /// # Examples
    ///
    /// ```
    /// use contention::{DebugCounters, IsolationProfile};
    /// let p = IsolationProfile::new("app", DebugCounters {
    ///     ccnt: 10, pmem_stall: 1, dmem_stall: 2, pcache_miss: 3,
    ///     dcache_miss_clean: 4, dcache_miss_dirty: 5,
    /// });
    /// let rec = p.to_record();
    /// assert_eq!(rec, "app,10,1,2,3,4,5");
    /// assert_eq!(rec.parse::<IsolationProfile>().unwrap(), p);
    /// ```
    pub fn to_record(&self) -> String {
        let c = &self.counters;
        format!(
            "{},{},{},{},{},{},{}",
            self.name,
            c.ccnt,
            c.pmem_stall,
            c.dmem_stall,
            c.pcache_miss,
            c.dcache_miss_clean,
            c.dcache_miss_dirty
        )
    }
}

/// Error parsing an [`IsolationProfile`] record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseProfileError {
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for ParseProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid profile record: {}", self.detail)
    }
}

impl std::error::Error for ParseProfileError {}

impl FromStr for IsolationProfile {
    type Err = ParseProfileError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fields: Vec<&str> = s.trim().split(',').collect();
        if fields.len() != 7 {
            return Err(ParseProfileError {
                detail: format!("expected 7 comma-separated fields, got {}", fields.len()),
            });
        }
        if fields[0].is_empty() {
            return Err(ParseProfileError {
                detail: "empty task name".into(),
            });
        }
        let num = |i: usize| -> Result<u64, ParseProfileError> {
            fields[i].trim().parse().map_err(|_| ParseProfileError {
                detail: format!("field {} (`{}`) is not a number", i + 1, fields[i]),
            })
        };
        Ok(IsolationProfile::new(
            fields[0],
            DebugCounters {
                ccnt: num(1)?,
                pmem_stall: num(2)?,
                dmem_stall: num(3)?,
                pcache_miss: num(4)?,
                dcache_miss_clean: num(5)?,
                dcache_miss_dirty: num(6)?,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operation, Target};

    #[test]
    fn profile_roundtrip() {
        let c = DebugCounters {
            ccnt: 100,
            pmem_stall: 10,
            dmem_stall: 20,
            pcache_miss: 3,
            dcache_miss_clean: 1,
            dcache_miss_dirty: 2,
        };
        let p = IsolationProfile::new("t", c);
        assert_eq!(p.name(), "t");
        assert_eq!(p.counters().dcache_miss_total(), 3);
        assert!(p.ptac().is_none());
        let mut ptac = AccessCounts::new();
        ptac.set(Target::Lmu, Operation::Data, 9);
        let p = p.with_ptac(ptac);
        assert_eq!(p.ptac().unwrap().get(Target::Lmu, Operation::Data), 9);
    }

    #[test]
    fn display_contains_counters() {
        let p = IsolationProfile::new("x", DebugCounters::default());
        assert!(p.to_string().starts_with("x: CCNT=0"));
    }

    #[test]
    fn record_roundtrip() {
        let p = IsolationProfile::new(
            "cruise",
            DebugCounters {
                ccnt: 846_103,
                pmem_stall: 109_736,
                dmem_stall: 123_840,
                pcache_miss: 18_136,
                dcache_miss_clean: 0,
                dcache_miss_dirty: 0,
            },
        );
        let parsed: IsolationProfile = p.to_record().parse().unwrap();
        assert_eq!(parsed, p);
        // PTAC is not serialised: attaching it changes equality only
        // through the ptac field.
        let with_ptac = p.clone().with_ptac(AccessCounts::new());
        assert_eq!(with_ptac.to_record(), p.to_record());
    }

    #[test]
    fn record_parsing_rejects_garbage() {
        assert!("".parse::<IsolationProfile>().is_err());
        assert!("a,b".parse::<IsolationProfile>().is_err());
        assert!("a,1,2,3,4,5,x".parse::<IsolationProfile>().is_err());
        assert!(",1,2,3,4,5,6".parse::<IsolationProfile>().is_err());
        let err = "a,1,2".parse::<IsolationProfile>().unwrap_err();
        assert!(err.to_string().contains("7 comma-separated"));
    }

    #[test]
    fn record_tolerates_whitespace_in_numbers() {
        let p: IsolationProfile = "t, 1,2 ,3,4,5,6".parse().unwrap();
        assert_eq!(p.counters().ccnt, 1);
        assert_eq!(p.counters().dcache_miss_dirty, 6);
    }
}
