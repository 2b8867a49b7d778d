//! Color lookup tables for scalar fields.

/// An RGB color, 8 bits per channel.
pub type Rgb = [u8; 3];

/// A named colormap: maps a normalized scalar in `[0, 1]` to RGB by linear
/// interpolation through fixed control points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Colormap {
    /// Dark blue → green → yellow, perceptually-ordered (viridis-like).
    Viridis,
    /// Black → red → yellow → white (classic "hot").
    Hot,
    /// Blue → white → red diverging map.
    CoolWarm,
    /// Plain grayscale.
    Gray,
}

impl Colormap {
    fn stops(self) -> &'static [Rgb] {
        match self {
            Colormap::Viridis => &[
                [68, 1, 84],
                [59, 82, 139],
                [33, 145, 140],
                [94, 201, 98],
                [253, 231, 37],
            ],
            Colormap::Hot => &[[0, 0, 0], [230, 0, 0], [255, 210, 0], [255, 255, 255]],
            Colormap::CoolWarm => &[[59, 76, 192], [221, 221, 221], [180, 4, 38]],
            Colormap::Gray => &[[0, 0, 0], [255, 255, 255]],
        }
    }

    /// Map normalized value `t` (clamped to `[0, 1]`) to a color.
    pub fn map(self, t: f64) -> Rgb {
        let stops = self.stops();
        let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
        let scaled = t * (stops.len() - 1) as f64;
        // `scaled` is finite and non-negative, so truncation is `floor`.
        let lo = (scaled as usize).min(stops.len() - 2);
        let frac = scaled - lo as f64;
        let a = stops[lo];
        let b = stops[lo + 1];
        [
            lerp_u8(a[0], b[0], frac),
            lerp_u8(a[1], b[1], frac),
            lerp_u8(a[2], b[2], frac),
        ]
    }

    /// The original form of [`map`](Self::map), through libm `floor`,
    /// `round` and a clamp. Retained as the oracle `map` must match bit for
    /// bit; nothing at runtime calls it.
    pub fn map_reference(self, t: f64) -> Rgb {
        let stops = self.stops();
        let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
        let scaled = t * (stops.len() - 1) as f64;
        let lo = (scaled.floor() as usize).min(stops.len() - 2);
        let frac = scaled - lo as f64;
        let a = stops[lo];
        let b = stops[lo + 1];
        [
            lerp_u8_reference(a[0], b[0], frac),
            lerp_u8_reference(a[1], b[1], frac),
            lerp_u8_reference(a[2], b[2], frac),
        ]
    }

    /// Approximate perceived luminance of a color (Rec. 601 weights).
    pub fn luminance(c: Rgb) -> f64 {
        0.299 * c[0] as f64 + 0.587 * c[1] as f64 + 0.114 * c[2] as f64
    }
}

/// `a + (b - a) * t` rounded half away from zero, for `t ∈ [0, 1]`. The
/// value then lies in `[0, 255]`, where `v - trunc(v)` is exact, so the
/// comparison below is the same rounding as `f64::round` without the libm
/// call or the clamp.
fn lerp_u8(a: u8, b: u8, t: f64) -> u8 {
    let v = a as f64 + (b as f64 - a as f64) * t;
    let r = v as u32;
    (r + u32::from(v - r as f64 >= 0.5)) as u8
}

fn lerp_u8_reference(a: u8, b: u8, t: f64) -> u8 {
    (a as f64 + (b as f64 - a as f64) * t)
        .round()
        .clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_hit_the_extreme_stops() {
        assert_eq!(Colormap::Gray.map(0.0), [0, 0, 0]);
        assert_eq!(Colormap::Gray.map(1.0), [255, 255, 255]);
        assert_eq!(Colormap::Viridis.map(0.0), [68, 1, 84]);
        assert_eq!(Colormap::Viridis.map(1.0), [253, 231, 37]);
    }

    #[test]
    fn out_of_range_and_nan_clamp() {
        assert_eq!(Colormap::Hot.map(-5.0), Colormap::Hot.map(0.0));
        assert_eq!(Colormap::Hot.map(7.0), Colormap::Hot.map(1.0));
        assert_eq!(Colormap::Hot.map(f64::NAN), Colormap::Hot.map(0.0));
    }

    #[test]
    fn midpoint_interpolates() {
        assert_eq!(Colormap::Gray.map(0.5), [128, 128, 128]);
    }

    #[test]
    fn sequential_maps_increase_in_luminance() {
        for cm in [Colormap::Viridis, Colormap::Hot, Colormap::Gray] {
            let mut prev = -1.0;
            for k in 0..=20 {
                let l = Colormap::luminance(cm.map(k as f64 / 20.0));
                assert!(
                    l >= prev - 3.0,
                    "{cm:?} not monotone-ish at {k}: {l} after {prev}"
                );
                prev = l;
            }
        }
    }

    /// `x`'s neighbour one ulp away (`up` toward +inf), for finite `x`.
    fn ulp_step(x: f64, up: bool) -> f64 {
        if x == 0.0 {
            return if up {
                f64::from_bits(1)
            } else {
                -f64::from_bits(1)
            };
        }
        let away = (x > 0.0) == up;
        f64::from_bits(if away {
            x.to_bits() + 1
        } else {
            x.to_bits() - 1
        })
    }

    #[test]
    fn lerp_matches_the_reference_on_every_rounding_boundary() {
        // Every (a, b) pair, at the endpoints and at each frac that puts
        // `a + (b - a) * frac` exactly on a half-integer, plus that frac's
        // neighbours one ulp either side, which land just off the tie.
        let mut ties = 0u64;
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let d = b as f64 - a as f64;
                let mut fracs = vec![0.0, 1.0];
                for k in a.min(b)..a.max(b) {
                    let target = k as f64 + 0.5;
                    let mut f = (target - a as f64) / d;
                    // The quotient can be an ulp off the exact tie; walk
                    // toward it.
                    for _ in 0..4 {
                        let v = a as f64 + d * f;
                        if v == target {
                            break;
                        }
                        f = ulp_step(f, (v < target) == (d > 0.0));
                    }
                    if a as f64 + d * f == target {
                        ties += 1;
                    }
                    fracs.extend([f, ulp_step(f, true), ulp_step(f, false)]);
                }
                for f in fracs.into_iter().filter(|f| (0.0..=1.0).contains(f)) {
                    assert_eq!(
                        lerp_u8(a, b, f),
                        lerp_u8_reference(a, b, f),
                        "a={a} b={b} frac={f:e}"
                    );
                }
            }
        }
        // Pairs with a != b have |b - a| half-integers between them. About
        // 1.3 % of those ties fall between two adjacent f64 fracs and cannot
        // be hit exactly; the fracs either side of them are still checked.
        let all_ties = 2 * (0..256u64).map(|d| d * (256 - d)).sum::<u64>();
        assert!(ties * 100 > all_ties * 98, "{ties} of {all_ties} ties hit");
    }

    #[test]
    fn diverging_map_is_light_in_the_middle() {
        let mid = Colormap::luminance(Colormap::CoolWarm.map(0.5));
        let lo = Colormap::luminance(Colormap::CoolWarm.map(0.0));
        let hi = Colormap::luminance(Colormap::CoolWarm.map(1.0));
        assert!(mid > lo && mid > hi);
    }
}
