//! Bit-identity oracles for the renderer: the row/column-hoisted
//! `render_field` and the libm-free `Colormap::map` must reproduce the
//! retained per-pixel references byte for byte on every input, including
//! NaN/inf fields, degenerate ranges and extreme resampling ratios.

use greenness_heatsim::Grid;
use greenness_viz::raster::render_field_reference;
use greenness_viz::{render_field, Colormap, RenderOptions};
use proptest::prelude::*;

const COLORMAPS: [Colormap; 4] = [
    Colormap::Viridis,
    Colormap::Hot,
    Colormap::CoolWarm,
    Colormap::Gray,
];

/// A range endpoint: mostly finite, sometimes NaN, ±inf or zero.
fn endpoint() -> impl Strategy<Value = f64> {
    prop_oneof![
        -5.0..5.0f64,
        -5.0..5.0f64,
        Just(0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// `None` (auto-range), arbitrary pairs (so reversed ones too), and
/// zero-span pairs.
fn arb_range() -> impl Strategy<Value = Option<(f64, f64)>> {
    prop_oneof![
        Just(None),
        (endpoint(), endpoint()).prop_map(Some),
        endpoint().prop_map(|v| Some((v, v))),
    ]
}

/// Non-square smooth fields from 3 to 40 cells a side, with up to three
/// cells overwritten by NaN, ±inf or a huge finite value.
fn arb_field() -> impl Strategy<Value = Grid> {
    let special = prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300]);
    (
        3usize..41,
        3usize..41,
        -3.0..3.0f64,
        0.1..20.0f64,
        0.1..20.0f64,
        prop::collection::vec((any::<usize>(), special), 0..4),
    )
        .prop_map(|(nx, ny, base, fx, fy, specials)| {
            let mut g = Grid::from_fn(nx, ny, |x, y| base + (fx * x).sin() * (fy * y).cos());
            for (at, v) in specials {
                let cell = at % g.cells();
                g.as_mut_slice()[cell] = v;
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fast renderer equals the per-pixel reference on every colormap,
    /// range and field, up- and down-sampling from 1 to 97 pixels a side.
    #[test]
    fn render_field_matches_reference_bit_for_bit(
        field in arb_field(),
        range in arb_range(),
        colormap in prop::sample::select(COLORMAPS.to_vec()),
        width in 1usize..98,
        height in 1usize..98,
    ) {
        let opts = RenderOptions { width, height, colormap, range };
        prop_assert_eq!(render_field(&field, &opts), render_field_reference(&field, &opts));
    }

    /// `map` equals `map_reference` on arbitrary bit patterns (NaN, ±inf,
    /// subnormals, out-of-range values).
    #[test]
    fn colormap_matches_reference_on_any_f64(t in prop::num::f64::ANY) {
        for cm in COLORMAPS {
            prop_assert_eq!(cm.map(t), cm.map_reference(t), "{:?} at {:e}", cm, t);
        }
    }
}

/// `map` equals `map_reference` on a dense sweep of `[0, 1]`, plus the
/// stop boundaries and their one-ulp neighbours.
#[test]
fn colormap_matches_reference_across_the_unit_interval() {
    let mut ts: Vec<f64> = (0..=1_000_000).map(|k| k as f64 / 1e6).collect();
    for n in [2u32, 3, 4, 5] {
        for k in 0..n {
            let t = k as f64 / (n - 1) as f64;
            ts.extend([
                t,
                f64::from_bits(t.to_bits() + 1),
                f64::from_bits(t.to_bits().saturating_sub(1)),
            ]);
        }
    }
    ts.extend([-0.0, f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0]);
    for cm in COLORMAPS {
        for &t in &ts {
            assert_eq!(cm.map(t), cm.map_reference(t), "{cm:?} at {t:e}");
        }
    }
}
