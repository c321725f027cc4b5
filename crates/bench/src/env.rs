//! The program edge: every `NEUROCUBE_*` knob the experiment harnesses
//! and examples read, parsed once into one typed [`Knobs`].
//!
//! The library crates read no environment; a program calls
//! [`Knobs::from_env`] in `main` and passes the values it needs down as
//! plain arguments. [`Knobs::parse`] is the pure half, over literal
//! name/value pairs, so the parsing rules are testable without touching
//! the process environment.
//!
//! One rule set holds for every knob:
//!
//! * **Flags** (`NEUROCUBE_NO_SKIP`, `NEUROCUBE_STAGE_PROFILE`): ON iff
//!   set to a non-empty value other than `"0"`. Unset, empty or `"0"` is
//!   OFF. A value that is not valid UTF-8 is still set and not `"0"`, so
//!   it counts as ON.
//! * **Values** (the rest): unset, empty, unparseable or non-UTF-8 reads
//!   as unset and the default applies. Surrounding whitespace is ignored.
//!   `"0"` is a value, not an off switch.
//!
//! Path-valued variables (`NEUROCUBE_CSV` and the `*_OUT` result paths)
//! are not knobs: the bench targets read them with `var_os`, because a
//! path may legitimately be non-UTF-8.

use neurocube_cluster::{ClusterTopology, LinkConfig, LinkConfigError};
use std::ffi::OsStr;

/// Scene-labeling input resolution (`NEUROCUBE_SCALE`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SceneScale {
    /// `fast` (the default): 160×120, every qualitative shape at a
    /// fraction of the wall-clock time.
    Fast,
    /// `full`: the paper's 320×240.
    Full,
    /// `tiny`: 80×60, for smoke runs.
    Tiny,
}

impl SceneScale {
    /// Input `(height, width, label)` at this scale.
    pub fn dims(self) -> (usize, usize, &'static str) {
        match self {
            SceneScale::Fast => (120, 160, "fast (160x120)"),
            SceneScale::Full => (240, 320, "full (paper 320x240)"),
            SceneScale::Tiny => (60, 80, "tiny (80x60)"),
        }
    }
}

/// `NEUROCUBE_BENCH_REPS` when unset.
const DEFAULT_BENCH_REPS: u32 = 3;

/// Every `NEUROCUBE_*` knob, parsed. [`Knobs::default`] is the value with
/// no knob set.
#[derive(Clone, Debug, PartialEq)]
pub struct Knobs {
    /// `NEUROCUBE_SCALE` (`full` | `fast` | `tiny`): scene-labeling input
    /// resolution.
    pub scale: SceneScale,
    /// Cleared by the `NEUROCUBE_NO_SKIP` flag: event-horizon
    /// fast-forward on (the default) or the naive per-cycle loop.
    pub skip: bool,
    /// The `NEUROCUBE_STAGE_PROFILE` flag: print the cycle loop's
    /// per-stage wall-clock breakdown after every pass.
    pub stage_profile: bool,
    /// `NEUROCUBE_BENCH_REPS`: `bench_sim` timing repetitions per mode
    /// (default 3, at least 1).
    pub bench_reps: u32,
    /// `NEUROCUBE_BENCH_MIN_SPEEDUP`: when set, `bench_sim` fails below
    /// this geomean speedup over the seed baseline.
    pub bench_min_speedup: Option<f64>,
    /// `NEUROCUBE_BENCH_TWOSPEED_MIN_SPEEDUP`: overrides `twospeed_load`'s
    /// analytical-vs-replay speedup gate.
    pub twospeed_min_speedup: Option<f64>,
    /// `NEUROCUBE_CLUSTER_TOPOLOGY` (`ring` | `mesh` | `meshWxH`),
    /// resolved against the cube count by [`Knobs::link`].
    pub cluster_topology: Option<String>,
    /// `NEUROCUBE_CLUSTER_LINK_GBPS`: per-link bandwidth in GB/s.
    pub cluster_link_gbps: Option<f64>,
    /// `NEUROCUBE_CLUSTER_LINK_NS`: per-hop link latency in ns.
    pub cluster_link_ns: Option<f64>,
    /// `NEUROCUBE_CLUSTER_PJ_BIT`: SerDes energy in pJ/bit.
    pub cluster_pj_bit: Option<f64>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            scale: SceneScale::Fast,
            skip: true,
            stage_profile: false,
            bench_reps: DEFAULT_BENCH_REPS,
            bench_min_speedup: None,
            twospeed_min_speedup: None,
            cluster_topology: None,
            cluster_link_gbps: None,
            cluster_link_ns: None,
            cluster_pj_bit: None,
        }
    }
}

/// Flag rule: ON iff non-empty and not exactly `"0"`.
fn flag(v: &OsStr) -> bool {
    !v.is_empty() && v != OsStr::new("0")
}

/// String rule: `None` when empty or not valid UTF-8.
fn text(v: &OsStr) -> Option<&str> {
    v.to_str().filter(|s| !s.is_empty())
}

/// Numeric rule: `None` when empty, non-UTF-8 or unparseable.
fn number<T: std::str::FromStr>(v: &OsStr) -> Option<T> {
    text(v)?.trim().parse().ok()
}

impl Knobs {
    /// Parses `NEUROCUBE_*` name/value pairs (other names are ignored; a
    /// repeated name keeps its last value). Never fails: a value the
    /// rules read as unset leaves the default; cluster link values are
    /// range-checked by [`Knobs::link`].
    pub fn parse<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Knobs
    where
        K: AsRef<OsStr>,
        V: AsRef<OsStr>,
    {
        let mut k = Knobs::default();
        for (name, value) in vars {
            let v = value.as_ref();
            match name.as_ref().to_str() {
                Some("NEUROCUBE_SCALE") => {
                    k.scale = match text(v) {
                        Some("full") => SceneScale::Full,
                        Some("tiny") => SceneScale::Tiny,
                        _ => SceneScale::Fast,
                    }
                }
                Some("NEUROCUBE_NO_SKIP") => k.skip = !flag(v),
                Some("NEUROCUBE_STAGE_PROFILE") => k.stage_profile = flag(v),
                Some("NEUROCUBE_BENCH_REPS") => {
                    k.bench_reps = number::<u64>(v).map_or(DEFAULT_BENCH_REPS, |n| {
                        u32::try_from(n).unwrap_or(u32::MAX).max(1)
                    })
                }
                Some("NEUROCUBE_BENCH_MIN_SPEEDUP") => k.bench_min_speedup = number(v),
                Some("NEUROCUBE_BENCH_TWOSPEED_MIN_SPEEDUP") => k.twospeed_min_speedup = number(v),
                Some("NEUROCUBE_CLUSTER_TOPOLOGY") => k.cluster_topology = text(v).map(Into::into),
                Some("NEUROCUBE_CLUSTER_LINK_GBPS") => k.cluster_link_gbps = number(v),
                Some("NEUROCUBE_CLUSTER_LINK_NS") => k.cluster_link_ns = number(v),
                Some("NEUROCUBE_CLUSTER_PJ_BIT") => k.cluster_pj_bit = number(v),
                _ => {}
            }
        }
        k
    }

    /// [`Knobs::parse`] over the process environment.
    pub fn from_env() -> Knobs {
        Knobs::parse(std::env::vars_os())
    }

    /// [`LinkConfig::hmc_ext`] for `cubes` cubes with the cluster knobs
    /// applied.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkConfigError`] for a topology that
    /// [`ClusterTopology::parse`] rejects, or for a figure
    /// [`LinkConfig::validate`] rejects. A misconfiguration is reported,
    /// never silently defaulted away.
    pub fn link(&self, cubes: usize) -> Result<LinkConfig, LinkConfigError> {
        let mut link = LinkConfig::hmc_ext(cubes);
        if let Some(s) = &self.cluster_topology {
            link.topology = ClusterTopology::parse(s, cubes)
                .ok_or_else(|| LinkConfigError::Topology(s.clone()))?;
        }
        link.bandwidth_gbps = self.cluster_link_gbps.unwrap_or(link.bandwidth_gbps);
        link.latency_ns = self.cluster_link_ns.unwrap_or(link.latency_ns);
        link.pj_per_bit = self.cluster_pj_bit.unwrap_or(link.pj_per_bit);
        link.validate()?;
        Ok(link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsString;

    fn one(name: &str, value: impl Into<OsString>) -> Knobs {
        Knobs::parse([(name.to_string(), value.into())])
    }

    #[test]
    fn flag_truthiness_rule() {
        assert!(Knobs::parse(Vec::<(String, String)>::new()).skip);
        assert!(one("NEUROCUBE_NO_SKIP", "").skip);
        assert!(one("NEUROCUBE_NO_SKIP", "0").skip);
        assert!(!one("NEUROCUBE_NO_SKIP", "1").skip);
        assert!(!one("NEUROCUBE_NO_SKIP", "yes").skip);
        // "00" is non-empty and not exactly "0": ON, by the documented rule.
        assert!(!one("NEUROCUBE_NO_SKIP", "00").skip);
        assert!(one("NEUROCUBE_STAGE_PROFILE", "1").stage_profile);
        assert!(!one("NEUROCUBE_STAGE_PROFILE", "0").stage_profile);
    }

    #[test]
    fn numeric_values_parse_or_none() {
        assert_eq!(one("NEUROCUBE_BENCH_REPS", " 42 ").bench_reps, 42);
        assert_eq!(one("NEUROCUBE_BENCH_REPS", "4x2").bench_reps, 3);
        let gbps = one("NEUROCUBE_CLUSTER_LINK_GBPS", "1e-7");
        assert_eq!(gbps.cluster_link_gbps, Some(1e-7));
        let speedup = one("NEUROCUBE_BENCH_MIN_SPEEDUP", "0");
        assert_eq!(speedup.bench_min_speedup, Some(0.0));
        assert_eq!(Knobs::default().bench_min_speedup, None);
        // Other names are not knobs; the last of a repeated name wins.
        assert_eq!(one("PATH", "/bin"), Knobs::default());
        let twice = Knobs::parse([("NEUROCUBE_BENCH_REPS", "5"), ("NEUROCUBE_BENCH_REPS", "")]);
        assert_eq!(twice.bench_reps, 3);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_counts_as_set_for_flags_and_none_for_values() {
        use std::os::unix::ffi::OsStringExt;
        let bad = || OsString::from_vec(vec![0xFF, 0xFE]);
        assert!(!one("NEUROCUBE_NO_SKIP", bad()).skip);
        assert!(one("NEUROCUBE_STAGE_PROFILE", bad()).stage_profile);
        assert_eq!(one("NEUROCUBE_SCALE", bad()).scale, SceneScale::Fast);
        assert_eq!(one("NEUROCUBE_BENCH_REPS", bad()).bench_reps, 3);
        assert_eq!(
            one("NEUROCUBE_CLUSTER_TOPOLOGY", bad()).cluster_topology,
            None
        );
    }
}
