//! The dataset container shared by all generators.

/// A labelled image dataset with train/test splits. Images are flat
/// 32×32 grayscale vectors with pixels in `[0, 1)`.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Number of classes.
    pub classes: usize,
    /// Training images.
    pub train_images: Vec<Vec<f32>>,
    /// Training labels (`< classes`).
    pub train_labels: Vec<usize>,
    /// Held-out test images.
    pub test_images: Vec<Vec<f32>>,
    /// Held-out test labels.
    pub test_labels: Vec<usize>,
}

impl Dataset {
    /// Validates internal consistency (sizes, label ranges, pixel bounds).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on any inconsistency — generators
    /// call this before returning.
    pub(crate) fn validate(&self) {
        assert_eq!(self.train_images.len(), self.train_labels.len());
        assert_eq!(self.test_images.len(), self.test_labels.len());
        assert!(self.classes >= 2, "need at least two classes");
        for (img, &label) in self
            .train_images
            .iter()
            .zip(&self.train_labels)
            .chain(self.test_images.iter().zip(&self.test_labels))
        {
            assert_eq!(img.len(), crate::render::IMG_PIXELS, "wrong image size");
            assert!(label < self.classes, "label {label} out of range");
            assert!(
                img.iter().all(|&p| (0.0..1.0).contains(&p)),
                "pixels must lie in [0, 1)"
            );
        }
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_images.len()
    }
}

/// Generation options common to every benchmark.
#[derive(Copy, Clone, Debug)]
pub struct GenOptions {
    /// Training samples to generate.
    pub train: usize,
    /// Test samples to generate.
    pub test: usize,
    /// RNG seed — the same seed always reproduces the same dataset.
    pub seed: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        Self {
            train: 4000,
            test: 1000,
            seed: 0xDA7E_2016,
        }
    }
}

impl GenOptions {
    /// A reduced configuration for fast tests and `--quick` experiment
    /// runs.
    pub fn quick(seed: u64) -> Self {
        Self {
            train: 600,
            test: 200,
            seed,
        }
    }
}
