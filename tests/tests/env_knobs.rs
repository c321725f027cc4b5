//! The knob contract at the program edge: every `NEUROCUBE_*` knob is
//! parsed once, by [`Knobs::parse`], under one rule set — unset, empty,
//! or unparseable reads as unset (the default applies), flags are ON iff
//! set to something other than `""` or `"0"`, and bad cluster values
//! return typed errors, never a panic. Below the edge nothing reads the
//! environment: a cube's modes are plain per-cube settings.
//!
//! Every test parses literal name/value pairs; none touches the process
//! environment, so the tests run in parallel with everything else.

use neurocube::{Neurocube, SystemConfig};
use neurocube_bench::Knobs;
use neurocube_cluster::{ClusterTopology, LinkConfig, LinkConfigError};
use neurocube_serve::{LoadProfile, Scenario};
use std::ffi::OsString;

/// A u64 far past `u64::MAX` — overflow must read as unset, not wrap or
/// panic.
const OVERFLOW: &str = "99999999999999999999999";

/// Parses one knob.
fn one(name: &str, value: impl Into<OsString>) -> Knobs {
    Knobs::parse([(name.to_string(), value.into())])
}

/// Parses several knobs.
fn many(pairs: &[(&str, &str)]) -> Knobs {
    Knobs::parse(pairs.iter().copied())
}

#[test]
fn u64_knobs_parse_or_default_never_panic() {
    const REPS: &str = "NEUROCUBE_BENCH_REPS";
    assert_eq!(Knobs::default().bench_reps, 3, "clean slate: the default");
    assert_eq!(
        one(REPS, " 42 ").bench_reps,
        42,
        "whitespace-tolerant parse"
    );
    // "0" is a value, not an off switch; the knob clamps it to one rep.
    assert_eq!(one(REPS, "0").bench_reps, 1, "zero is a value");
    for bad in ["", "4x2", "-3", OVERFLOW] {
        assert_eq!(one(REPS, bad).bench_reps, 3, "{bad:?} reads as unset");
    }
    // Past u32 but within u64: saturates, never wraps to zero reps.
    assert_eq!(one(REPS, "4294967296").bench_reps, u32::MAX);
}

/// The flag truthiness table, for both flags: unset, empty and `"0"` are
/// OFF; any other value, `"00"` and non-UTF-8 included, is ON.
#[test]
fn construction_flag_defaults_follow_env_flag_rules() {
    let mut table: Vec<(OsString, bool)> = vec![
        ("".into(), false),
        ("0".into(), false),
        ("00".into(), true),
        ("yes".into(), true),
        ("1".into(), true),
    ];
    #[cfg(unix)]
    {
        use std::os::unix::ffi::OsStringExt;
        table.push((OsString::from_vec(vec![0xFF, 0xFE]), true));
    }
    let unset = Knobs::default();
    assert!(unset.skip, "NEUROCUBE_NO_SKIP unset: skipping on");
    assert!(!unset.stage_profile, "NEUROCUBE_STAGE_PROFILE unset: off");
    for (value, on) in table {
        let no_skip = one("NEUROCUBE_NO_SKIP", value.clone());
        assert_eq!(no_skip.skip, !on, "NEUROCUBE_NO_SKIP={value:?}");
        let profile = one("NEUROCUBE_STAGE_PROFILE", value.clone());
        assert_eq!(
            profile.stage_profile, on,
            "NEUROCUBE_STAGE_PROFILE={value:?}"
        );
    }
}

/// The stale-cache bug class is gone by construction: a cube's modes
/// are plain per-cube settings with fixed defaults, so nothing set on one
/// cube leaks into another, and nothing ambient changes a new one.
#[test]
fn construction_knobs_resolve_fresh_per_cube_never_cached() {
    let cfg = SystemConfig::paper(true);
    let mut first = Neurocube::new(cfg.clone());
    assert!(first.sparsity(), "sparsity fast paths on by default");
    assert!(first.fault_config().is_none(), "no injector by default");
    first.set_sparsity(false);
    first.set_cycle_skip(false);
    assert!(!first.sparsity());

    // A cube built after another was reconfigured starts from the
    // defaults, not from a cached copy of the other's settings.
    let mut second = Neurocube::new(cfg);
    assert!(second.sparsity());
    assert!(second.fault_config().is_none());
    second.set_sparsity(true);
    assert!(!first.sparsity(), "settings never cross cubes");
}

#[test]
fn scenario_resolution_returns_typed_errors_never_panics() {
    let s = Scenario::parse("diurnal").expect("valid name resolves");
    assert_eq!(s.name, "diurnal");
    assert_eq!(s.profile, LoadProfile::Diurnal);
    let err = Scenario::parse("weekend").expect_err("unknown name is a typed error");
    assert_eq!(err.0, "weekend");
    assert_eq!(
        err.to_string(),
        "unknown serving scenario \"weekend\" (valid: steady, diurnal, rush)"
    );
    // Scenario names are exact spellings, not fuzzy matches.
    assert!(Scenario::parse("Diurnal").is_err());
    assert!(Scenario::parse("").is_err());
}

#[test]
fn cluster_knobs_follow_env_rules_and_resolve_fresh_per_link_config() {
    // Clean slate: every field reads None and the link is exactly the
    // HMC-class ring default.
    let clean = Knobs::default();
    assert_eq!(clean.cluster_topology, None);
    assert_eq!(clean.cluster_link_gbps, None);
    assert_eq!(clean.cluster_link_ns, None);
    assert_eq!(clean.cluster_pj_bit, None);
    assert_eq!(clean.link(8), Ok(LinkConfig::hmc_ext(8)));

    // f64 knobs: whitespace-tolerant parse, garbage and empty read as
    // unset (the default survives), never a panic.
    type Field = fn(&Knobs) -> Option<f64>;
    for (name, read) in [
        (
            "NEUROCUBE_CLUSTER_LINK_GBPS",
            (|k| k.cluster_link_gbps) as Field,
        ),
        ("NEUROCUBE_CLUSTER_LINK_NS", |k| k.cluster_link_ns),
        ("NEUROCUBE_CLUSTER_PJ_BIT", |k| k.cluster_pj_bit),
    ] {
        assert_eq!(
            read(&one(name, " 2.5 ")),
            Some(2.5),
            "{name}: whitespace-tolerant parse"
        );
        assert_eq!(
            read(&one(name, "fast")),
            None,
            "{name}: garbage reads as unset"
        );
        assert_eq!(read(&one(name, "")), None, "{name}: empty reads as unset");
    }

    // The string topology knob passes through; the link resolves it
    // against the cube count.
    let knobs = many(&[
        ("NEUROCUBE_CLUSTER_TOPOLOGY", "mesh8x2"),
        ("NEUROCUBE_CLUSTER_LINK_GBPS", "10"),
        ("NEUROCUBE_CLUSTER_LINK_NS", "250"),
        ("NEUROCUBE_CLUSTER_PJ_BIT", "3.5"),
    ]);
    assert_eq!(knobs.cluster_topology.as_deref(), Some("mesh8x2"));
    let link = knobs.link(16).expect("valid knobs");
    assert_eq!(
        link.topology,
        ClusterTopology::Mesh {
            width: 8,
            height: 2
        }
    );
    assert_eq!(link.bandwidth_gbps, 10.0);
    assert_eq!(link.latency_ns, 250.0);
    assert_eq!(link.pj_per_bit, 3.5);

    // Each call builds a fresh link for its cube count.
    let ring = many(&[
        ("NEUROCUBE_CLUSTER_TOPOLOGY", "ring"),
        ("NEUROCUBE_CLUSTER_LINK_GBPS", "40"),
    ]);
    assert_eq!(ring.link(16).unwrap().topology, ClusterTopology::Ring(16));
    assert_eq!(ring.link(4).unwrap().topology, ClusterTopology::Ring(4));

    // Unparseable floats read as unset, so the defaults apply; zero is a
    // legitimate latency and energy ("ideal" and "free" links).
    let link = many(&[
        ("NEUROCUBE_CLUSTER_LINK_GBPS", "warp"),
        ("NEUROCUBE_CLUSTER_LINK_NS", "0"),
        ("NEUROCUBE_CLUSTER_PJ_BIT", "0"),
    ])
    .link(4)
    .expect("valid knobs");
    assert_eq!(link.bandwidth_gbps, 40.0);
    assert_eq!((link.latency_ns, link.pj_per_bit), (0.0, 0.0));
}

/// Every out-of-range cluster knob is a typed error, never a panic or a
/// silently free link: a zero or negative bandwidth would price
/// transfers at zero cycles or overflow the cycle arithmetic.
#[test]
fn cluster_knobs_reject_out_of_range_values_with_typed_errors() {
    use LinkConfigError::{Bandwidth, Energy, Latency, Topology};
    const TOPOLOGY: &str = "NEUROCUBE_CLUSTER_TOPOLOGY";
    const GBPS: &str = "NEUROCUBE_CLUSTER_LINK_GBPS";
    const NS: &str = "NEUROCUBE_CLUSTER_LINK_NS";
    const PJ: &str = "NEUROCUBE_CLUSTER_PJ_BIT";
    for (name, value, want) in [
        (TOPOLOGY, "torus", Topology("torus".into())),
        (TOPOLOGY, "mesh1x2", Topology("mesh1x2".into())),
        (GBPS, "0", Bandwidth(0.0)),
        (GBPS, "-40", Bandwidth(-40.0)),
        (GBPS, "inf", Bandwidth(f64::INFINITY)),
        (GBPS, "NaN", Bandwidth(f64::NAN)),
        (NS, "-1", Latency(-1.0)),
        (NS, "inf", Latency(f64::INFINITY)),
        (PJ, "-0.5", Energy(-0.5)),
        (PJ, "NaN", Energy(f64::NAN)),
    ] {
        let err = one(name, value)
            .link(4)
            .expect_err(&format!("{name}={value} must be rejected"));
        // Debug text compares NaN payloads, which `==` never matches.
        assert_eq!(format!("{err:?}"), format!("{want:?}"), "{name}={value}");
    }
}
