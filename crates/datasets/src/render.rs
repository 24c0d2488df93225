//! Rasterization of glyphs onto 32×32 grayscale canvases with the
//! deformations (rotation, scale, shift, stroke thickness, noise) that give
//! each synthetic dataset its difficulty.

use rand::Rng;

use crate::glyph::{GLYPH_H, GLYPH_W};

/// Canvas side length; every benchmark uses 32×32 = 1024 inputs, which is
/// the input dimension implied by the paper's Table IV synapse counts.
pub(crate) const IMG_SIDE: usize = 32;
/// Pixels per image.
pub(crate) const IMG_PIXELS: usize = IMG_SIDE * IMG_SIDE;

/// Geometric + photometric deformation of one rendered sample.
#[derive(Clone, Debug)]
pub(crate) struct Deform {
    /// Rotation in radians.
    pub(crate) rotation: f32,
    /// Isotropic scale (1.0 fills most of the canvas).
    pub(crate) scale: f32,
    /// Horizontal shear factor.
    pub(crate) shear: f32,
    /// Translation in pixels.
    pub(crate) shift: (f32, f32),
    /// Stroke half-width in glyph cells (0.5 = nominal).
    pub(crate) thickness: f32,
    /// Ink intensity in `[0, 1]`.
    pub(crate) ink: f32,
}

impl Default for Deform {
    fn default() -> Self {
        Self {
            rotation: 0.0,
            scale: 1.0,
            shear: 0.0,
            shift: (0.0, 0.0),
            thickness: 0.55,
            ink: 1.0,
        }
    }
}

/// Ranges from which [`random_deform`] draws.
#[derive(Clone, Debug)]
pub(crate) struct DeformRanges {
    /// Max |rotation| in radians.
    pub(crate) rotation: f32,
    /// Scale range.
    pub(crate) scale: (f32, f32),
    /// Max |shear|.
    pub(crate) shear: f32,
    /// Max |shift| in pixels (each axis).
    pub(crate) shift: f32,
    /// Stroke half-width range.
    pub(crate) thickness: (f32, f32),
    /// Ink intensity range.
    pub(crate) ink: (f32, f32),
}

/// Samples a deformation uniformly from the ranges.
pub(crate) fn random_deform(ranges: &DeformRanges, rng: &mut impl Rng) -> Deform {
    Deform {
        rotation: rng.gen_range(-ranges.rotation..=ranges.rotation),
        scale: rng.gen_range(ranges.scale.0..=ranges.scale.1),
        shear: rng.gen_range(-ranges.shear..=ranges.shear),
        shift: (
            rng.gen_range(-ranges.shift..=ranges.shift),
            rng.gen_range(-ranges.shift..=ranges.shift),
        ),
        thickness: rng.gen_range(ranges.thickness.0..=ranges.thickness.1),
        ink: rng.gen_range(ranges.ink.0..=ranges.ink.1),
    }
}

/// Renders a glyph bitmap into `canvas` (additively, saturating at 1.0).
///
/// The glyph is centered, scaled so its 7-cell height spans ~80% of the
/// canvas at `scale = 1.0`, then rotated/sheared/shifted. Each output pixel
/// is supersampled 2×2; a subsample is inked when it lies within
/// `thickness` (in cell units) of a set cell's center region.
pub(crate) fn draw_glyph(
    canvas: &mut [f32],
    bitmap: &[[bool; GLYPH_W]; GLYPH_H],
    deform: &Deform,
    center: (f32, f32),
) {
    debug_assert_eq!(canvas.len(), IMG_PIXELS);
    let cell = 0.8 * IMG_SIDE as f32 / GLYPH_H as f32 * deform.scale;
    let (sin, cos) = deform.rotation.sin_cos();
    let (cx, cy) = (center.0 + deform.shift.0, center.1 + deform.shift.1);
    let gx0 = GLYPH_W as f32 / 2.0;
    let gy0 = GLYPH_H as f32 / 2.0;
    for py in 0..IMG_SIDE {
        for px in 0..IMG_SIDE {
            let mut hit = 0.0f32;
            for (sx, sy) in [(0.25f32, 0.25f32), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)] {
                let dx = px as f32 + sx - cx;
                let dy = py as f32 + sy - cy;
                // Inverse rotation, then inverse shear, then to cell space.
                let rx = cos * dx + sin * dy;
                let ry = -sin * dx + cos * dy;
                let rx = rx - deform.shear * ry;
                let u = rx / cell + gx0;
                let v = ry / cell + gy0;
                if u < -1.0 || v < -1.0 || u >= GLYPH_W as f32 + 1.0 || v >= GLYPH_H as f32 + 1.0 {
                    continue;
                }
                // Distance to the nearest set cell center (checking the
                // 3×3 neighborhood suffices for thickness <= 1).
                let iu = u.floor() as i32;
                let iv = v.floor() as i32;
                'cells: for nv in (iv - 1)..=(iv + 1) {
                    for nu in (iu - 1)..=(iu + 1) {
                        if nu < 0 || nv < 0 || nu >= GLYPH_W as i32 || nv >= GLYPH_H as i32 {
                            continue;
                        }
                        if !bitmap[nv as usize][nu as usize] {
                            continue;
                        }
                        let ddx = (u - (nu as f32 + 0.5)).abs();
                        let ddy = (v - (nv as f32 + 0.5)).abs();
                        if ddx.max(ddy) <= deform.thickness {
                            hit += 0.25;
                            break 'cells;
                        }
                    }
                }
            }
            if hit > 0.0 {
                let p = &mut canvas[py * IMG_SIDE + px];
                *p = (*p + hit * deform.ink).min(1.0);
            }
        }
    }
}

/// Fills a canvas with a linear gradient (background clutter for the
/// SVHN-like set).
pub(crate) fn draw_gradient(canvas: &mut [f32], level: f32, slope: (f32, f32)) {
    for py in 0..IMG_SIDE {
        for px in 0..IMG_SIDE {
            let v = level
                + slope.0 * (px as f32 / IMG_SIDE as f32 - 0.5)
                + slope.1 * (py as f32 / IMG_SIDE as f32 - 0.5);
            canvas[py * IMG_SIDE + px] = (canvas[py * IMG_SIDE + px] + v).clamp(0.0, 1.0);
        }
    }
}

/// Draws a filled ellipse (for the face generator), additively.
pub(crate) fn draw_ellipse(canvas: &mut [f32], center: (f32, f32), radii: (f32, f32), ink: f32) {
    for py in 0..IMG_SIDE {
        for px in 0..IMG_SIDE {
            let dx = (px as f32 + 0.5 - center.0) / radii.0;
            let dy = (py as f32 + 0.5 - center.1) / radii.1;
            if dx * dx + dy * dy <= 1.0 {
                let p = &mut canvas[py * IMG_SIDE + px];
                *p = (*p + ink).clamp(0.0, 1.0);
            }
        }
    }
}

/// Adds zero-mean Gaussian noise (Box–Muller) of standard deviation
/// `sigma`, clamping to `[0, 1]`.
pub(crate) fn add_noise(canvas: &mut [f32], sigma: f32, rng: &mut impl Rng) {
    let mut spare: Option<f32> = None;
    for p in canvas.iter_mut() {
        let n = match spare.take() {
            Some(v) => v,
            None => {
                let u1: f32 = rng.gen_range(1e-7..1.0f32);
                let u2: f32 = rng.gen_range(0.0..1.0f32);
                let r = (-2.0 * u1.ln()).sqrt();
                let (s, c) = (std::f32::consts::TAU * u2).sin_cos();
                spare = Some(r * s);
                r * c
            }
        };
        *p = (*p + sigma * n).clamp(0.0, 1.0);
    }
}

/// Clamps every pixel strictly below 1.0 so images quantize into the
/// unsigned `Q0.(bits-1)` activation format without saturating.
pub(crate) fn finalize(canvas: &mut [f32]) {
    for p in canvas.iter_mut() {
        *p = p.clamp(0.0, 0.996);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glyph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn glyph_lands_centered_ink() {
        let mut canvas = vec![0.0f32; IMG_PIXELS];
        let bm = glyph::bitmap(8); // '8' has ink everywhere in the middle
        draw_glyph(
            &mut canvas,
            &bm,
            &Deform::default(),
            (IMG_SIDE as f32 / 2.0, IMG_SIDE as f32 / 2.0),
        );
        let total: f32 = canvas.iter().sum();
        assert!(total > 20.0, "glyph should ink many pixels, got {total}");
        // Corners stay blank.
        assert_eq!(canvas[0], 0.0);
        assert_eq!(canvas[IMG_PIXELS - 1], 0.0);
    }

    #[test]
    fn rotation_moves_ink() {
        let render = |rot: f32| {
            let mut canvas = vec![0.0f32; IMG_PIXELS];
            let bm = glyph::bitmap(1);
            let d = Deform {
                rotation: rot,
                ..Deform::default()
            };
            draw_glyph(&mut canvas, &bm, &d, (16.0, 16.0));
            canvas
        };
        assert_ne!(render(0.0), render(0.6));
    }

    #[test]
    fn noise_is_bounded_and_nonzero() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut canvas = vec![0.5f32; IMG_PIXELS];
        add_noise(&mut canvas, 0.1, &mut rng);
        assert!(canvas.iter().any(|&p| p != 0.5));
        assert!(canvas.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn finalize_keeps_pixels_below_one() {
        let mut canvas = vec![1.0f32; 4];
        canvas.extend_from_slice(&[0.3; 4]);
        // Pad to full size for the debug_assert-free helpers.
        canvas.resize(IMG_PIXELS, 0.0);
        finalize(&mut canvas);
        assert!(canvas.iter().all(|&p| p < 1.0));
    }

    #[test]
    fn ellipse_fills_interior_only() {
        let mut canvas = vec![0.0f32; IMG_PIXELS];
        draw_ellipse(&mut canvas, (16.0, 16.0), (6.0, 8.0), 0.5);
        assert!(canvas[16 * IMG_SIDE + 16] > 0.0);
        assert_eq!(canvas[0], 0.0);
    }
}
