//! The three-tier comparison the differential suites share: `Lane::run` (the
//! JIT artifact when there is one), the forced predecoded interpreter, and
//! the word-at-a-time reference must agree exactly, on success and on trap.

use recode_udp::lane::{Lane, LaneError, RunConfig, RunResult};
use recode_udp::machine::Image;

/// Asserts two tiers agreed exactly — on success (output, cycles,
/// dispatches, actions, opclass) and on failure (the same `LaneError`).
fn assert_tiers_agree(
    a: &Result<RunResult, LaneError>,
    b: &Result<RunResult, LaneError>,
    pair: &str,
    context: &str,
) {
    match (a, b) {
        (Ok(f), Ok(s)) => {
            // The compiled tier derives `dispatches`, `actions` and the
            // dispatch class from its cycle and class counters; the
            // identities it relies on must hold on every tier.
            for r in [f, s] {
                assert_eq!(
                    r.cycles,
                    r.dispatches + r.actions,
                    "{context} [{pair}]: cycle identity"
                );
                assert_eq!(r.opclass.total(), r.cycles, "{context} [{pair}]: opclass identity");
            }
            assert_eq!(f.output, s.output, "{context} [{pair}]: outputs diverge");
            assert_eq!(f.cycles, s.cycles, "{context} [{pair}]: cycles diverge");
            assert_eq!(f.dispatches, s.dispatches, "{context} [{pair}]: dispatches diverge");
            assert_eq!(f.actions, s.actions, "{context} [{pair}]: actions diverge");
            assert_eq!(f.opclass, s.opclass, "{context} [{pair}]: opclass attribution diverges");
        }
        (Err(f), Err(s)) => assert_eq!(f, s, "{context} [{pair}]: traps diverge"),
        _ => panic!("{context} [{pair}]: one tier trapped, the other did not: {a:?} vs {b:?}"),
    }
}

/// Runs `image` over `input` on all three tiers — `run` (JIT when present),
/// the forced predecoded interpreter, and the word-at-a-time reference —
/// and asserts pairwise agreement. Returns the agreed result so callers can
/// chain stages.
pub fn differential(
    image: &Image,
    input: &[u8],
    input_bits: usize,
    cfg: RunConfig,
    context: &str,
) -> Result<RunResult, LaneError> {
    let mut lanes = [Lane::new(), Lane::new(), Lane::new()];
    differential_on(&mut lanes, image, input, input_bits, cfg, context)
}

/// [`differential`] on caller-owned lanes, one per tier: a sweep of many
/// small runs then also exercises lane recycling (the dirty high-water mark
/// each tier hands to the next prologue).
pub fn differential_on(
    lanes: &mut [Lane; 3],
    image: &Image,
    input: &[u8],
    input_bits: usize,
    cfg: RunConfig,
    context: &str,
) -> Result<RunResult, LaneError> {
    // When the JIT tier is live, images assembled here must actually carry
    // an artifact — otherwise this suite would silently degrade to a
    // two-way interpreter comparison and prove nothing about the JIT.
    if recode_udp::jit::enabled() {
        assert!(image.jit().is_some(), "{context}: image `{}` has no JIT artifact", image.name);
    }
    let [fast_lane, interp_lane, slow_lane] = lanes;
    let fast = fast_lane.run(image, input, input_bits, cfg);
    let interp = {
        let mut out = Vec::new();
        interp_lane.run_into_interp(image, input, input_bits, cfg, &mut out).map(|s| RunResult {
            cycles: s.cycles,
            dispatches: s.dispatches,
            actions: s.actions,
            opclass: s.opclass,
            output: out,
        })
    };
    let slow = slow_lane.run_reference(image, input, input_bits, cfg);
    assert_tiers_agree(&fast, &interp, "run vs interp", context);
    assert_tiers_agree(&fast, &slow, "run vs reference", context);
    fast
}
