//! The four benchmark generators, graded in difficulty to mirror the
//! paper's observation that "classification accuracy of ASM based NNs is
//! very good for simple datasets such as MNIST and YUV Faces, compared to
//! more complex datasets such as SVHN and TICH".

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dataset::{Dataset, GenOptions};
use crate::glyph;
use crate::render::{
    add_noise, draw_ellipse, draw_glyph, draw_gradient, finalize, random_deform, Deform,
    DeformRanges, IMG_PIXELS, IMG_SIDE,
};

fn center() -> (f32, f32) {
    (IMG_SIDE as f32 / 2.0, IMG_SIDE as f32 / 2.0)
}

fn split(
    classes: usize,
    opts: &GenOptions,
    mut render: impl FnMut(usize, &mut SmallRng) -> Vec<f32>,
) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut gen_set = |n: usize, rng: &mut SmallRng| {
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % classes; // balanced classes
            images.push(render(label, rng));
            labels.push(label);
        }
        (images, labels)
    };
    let (train_images, train_labels) = gen_set(opts.train, &mut rng);
    let (test_images, test_labels) = gen_set(opts.test, &mut rng);
    let ds = Dataset {
        classes,
        train_images,
        train_labels,
        test_images,
        test_labels,
    };
    ds.validate();
    ds
}

/// MNIST-like handwritten digits: clean glyphs with mild deformation and
/// noise. The easiest benchmark — Table III territory.
pub fn digits(opts: &GenOptions) -> Dataset {
    let ranges = DeformRanges {
        rotation: 0.21,
        scale: (0.72, 1.02),
        shear: 0.18,
        shift: 2.5,
        thickness: (0.42, 0.68),
        ink: (0.75, 1.0),
    };
    split(10, opts, |label, rng| {
        let mut canvas = vec![0.0f32; IMG_PIXELS];
        let d = random_deform(&ranges, rng);
        draw_glyph(&mut canvas, &glyph::bitmap(label), &d, center());
        add_noise(&mut canvas, 0.06, rng);
        finalize(&mut canvas);
        canvas
    })
}

/// YUV-Faces-like face detection: class 1 = a procedural face (head
/// ellipse, eyes, mouth), class 0 = structured non-faces including
/// near-miss distractors. Two classes, as in Table II.
pub fn faces(opts: &GenOptions) -> Dataset {
    split(2, opts, |label, rng| {
        let mut canvas = vec![0.0f32; IMG_PIXELS];
        draw_gradient(
            &mut canvas,
            rng.gen_range(0.05..0.25),
            (rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2)),
        );
        let cx = 16.0 + rng.gen_range(-3.0..3.0);
        let cy = 16.0 + rng.gen_range(-3.0..3.0);
        let rx = rng.gen_range(7.0..10.5);
        let ry = rng.gen_range(9.0..12.5);
        let head_ink = rng.gen_range(0.3..0.5);
        if label == 1 {
            // Face: head + two eyes + mouth.
            draw_ellipse(&mut canvas, (cx, cy), (rx, ry), head_ink);
            let eye_dx = rx * rng.gen_range(0.36..0.5);
            let eye_dy = ry * rng.gen_range(0.25..0.4);
            let eye_r = rng.gen_range(1.1..1.9);
            for side in [-1.0f32, 1.0] {
                draw_ellipse(
                    &mut canvas,
                    (cx + side * eye_dx, cy - eye_dy),
                    (eye_r, eye_r),
                    0.45,
                );
            }
            draw_ellipse(
                &mut canvas,
                (cx, cy + ry * rng.gen_range(0.35..0.5)),
                (rx * rng.gen_range(0.3..0.5), 1.2),
                0.45,
            );
        } else {
            // Non-face: blobs, a lone head outline, or eyes without a head.
            match rng.gen_range(0..4) {
                0 => {
                    for _ in 0..rng.gen_range(2..5) {
                        draw_ellipse(
                            &mut canvas,
                            (rng.gen_range(4.0..28.0), rng.gen_range(4.0..28.0)),
                            (rng.gen_range(1.5..6.0), rng.gen_range(1.5..6.0)),
                            rng.gen_range(0.3..0.6),
                        );
                    }
                }
                1 => {
                    // Head without features.
                    draw_ellipse(&mut canvas, (cx, cy), (rx, ry), head_ink);
                }
                2 => {
                    // Features without a head.
                    for side in [-1.0f32, 1.0] {
                        draw_ellipse(&mut canvas, (cx + side * 4.0, cy - 3.0), (1.5, 1.5), 0.45);
                    }
                    draw_ellipse(&mut canvas, (cx, cy + 4.0), (3.5, 1.2), 0.45);
                }
                _ => {
                    // A letter pretending to be a texture.
                    let class = rng.gen_range(10..36);
                    let d = Deform {
                        scale: rng.gen_range(0.8..1.1),
                        ink: rng.gen_range(0.3..0.6),
                        ..Deform::default()
                    };
                    draw_glyph(&mut canvas, &glyph::bitmap(class), &d, center());
                }
            }
        }
        add_noise(&mut canvas, 0.09, rng);
        finalize(&mut canvas);
        canvas
    })
}

/// SVHN-like house numbers: digits over background gradients with partial
/// distractor digits at the edges and strong noise. Markedly harder than
/// `digits`, as in the paper's Fig. 7.
pub fn svhn_like(opts: &GenOptions) -> Dataset {
    let ranges = DeformRanges {
        rotation: 0.16,
        scale: (0.7, 1.05),
        shear: 0.22,
        shift: 3.0,
        thickness: (0.4, 0.72),
        ink: (0.5, 0.95),
    };
    split(10, opts, |label, rng| {
        let mut canvas = vec![0.0f32; IMG_PIXELS];
        draw_gradient(
            &mut canvas,
            rng.gen_range(0.1..0.4),
            (rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)),
        );
        // Distractor digits clipped at the left/right edges.
        for side in [-1.0f32, 1.0] {
            if rng.gen_bool(0.7) {
                let class = rng.gen_range(0..10);
                let d = Deform {
                    scale: rng.gen_range(0.6..0.9),
                    ink: rng.gen_range(0.3..0.6),
                    ..random_deform(&ranges, rng)
                };
                draw_glyph(
                    &mut canvas,
                    &glyph::bitmap(class),
                    &d,
                    (16.0 + side * rng.gen_range(13.0..18.0), 16.0),
                );
            }
        }
        let d = random_deform(&ranges, rng);
        draw_glyph(&mut canvas, &glyph::bitmap(label), &d, center());
        add_noise(&mut canvas, 0.14, rng);
        finalize(&mut canvas);
        canvas
    })
}

/// TICH-like handwritten characters: 36 classes (0–9, A–Z) with heavy
/// deformation — the hardest benchmark, matching the Tilburg character
/// set's role in the paper.
pub fn tich_like(opts: &GenOptions) -> Dataset {
    let ranges = DeformRanges {
        rotation: 0.34,
        scale: (0.62, 1.05),
        shear: 0.3,
        shift: 3.2,
        thickness: (0.38, 0.75),
        ink: (0.55, 1.0),
    };
    split(36, opts, |label, rng| {
        let mut canvas = vec![0.0f32; IMG_PIXELS];
        let d = random_deform(&ranges, rng);
        draw_glyph(&mut canvas, &glyph::bitmap(label), &d, center());
        add_noise(&mut canvas, 0.1, rng);
        finalize(&mut canvas);
        canvas
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> GenOptions {
        GenOptions {
            train: 72,
            test: 36,
            seed: 1,
        }
    }

    #[test]
    fn all_generators_produce_valid_datasets() {
        for generate in [digits, faces, svhn_like, tich_like] {
            let ds = generate(&quick());
            assert_eq!(ds.train_len(), 72);
            assert_eq!(ds.test_images.len(), 36);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = digits(&quick());
        let b = digits(&quick());
        assert_eq!(a.train_images, b.train_images);
        let c = digits(&GenOptions { seed: 2, ..quick() });
        assert_ne!(a.train_images, c.train_images);
    }

    #[test]
    fn classes_are_balanced() {
        let ds = tich_like(&quick());
        let mut counts = vec![0usize; ds.classes];
        for &l in &ds.train_labels {
            counts[l] += 1;
        }
        assert_eq!(counts.iter().max(), counts.iter().min());
    }

    #[test]
    fn same_class_samples_differ() {
        let ds = digits(&quick());
        let zeros: Vec<&Vec<f32>> = ds
            .train_images
            .iter()
            .zip(&ds.train_labels)
            .filter(|(_, &l)| l == 0)
            .map(|(img, _)| img)
            .collect();
        assert!(zeros.len() >= 2);
        assert_ne!(zeros[0], zeros[1], "deformation must vary per sample");
    }

    #[test]
    fn faces_have_more_central_mass_than_nonfaces() {
        let ds = faces(&GenOptions {
            train: 400,
            test: 2,
            seed: 3,
        });
        let central = |img: &[f32]| -> f32 {
            let mut s = 0.0;
            for y in 12..20 {
                for x in 12..20 {
                    s += img[y * IMG_SIDE + x];
                }
            }
            s
        };
        let (mut face, mut nonface, mut nf_count, mut f_count) = (0.0, 0.0, 0, 0);
        for (img, &l) in ds.train_images.iter().zip(&ds.train_labels) {
            if l == 1 {
                face += central(img);
                f_count += 1;
            } else {
                nonface += central(img);
                nf_count += 1;
            }
        }
        assert!(face / f_count as f32 > nonface / nf_count as f32);
    }
}
