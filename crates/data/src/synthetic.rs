//! Procedural MNIST-like and CIFAR-10-like datasets.

use crate::Dataset;
use ff_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the synthetic dataset generators.
///
/// # Examples
///
/// ```
/// use ff_data::SyntheticConfig;
///
/// let cfg = SyntheticConfig::small().with_seed(7);
/// assert_eq!(cfg.seed, 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of training samples.
    pub train_size: usize,
    /// Number of test samples.
    pub test_size: usize,
    /// Standard deviation of the per-pixel Gaussian noise added to each
    /// class prototype (controls task difficulty).
    pub noise_std: f32,
    /// Maximum spatial jitter (in pixels) applied to each sample.
    pub max_shift: usize,
    /// RNG seed; the same seed always yields the same dataset.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            train_size: 2000,
            test_size: 500,
            noise_std: 0.25,
            max_shift: 2,
            seed: 42,
        }
    }
}

impl SyntheticConfig {
    /// A small configuration suitable for unit tests and doc examples.
    pub fn small() -> Self {
        SyntheticConfig {
            train_size: 200,
            test_size: 80,
            noise_std: 0.2,
            max_shift: 1,
            seed: 42,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the sample counts.
    pub fn with_sizes(mut self, train: usize, test: usize) -> Self {
        self.train_size = train;
        self.test_size = test;
        self
    }

    /// Overrides the noise level.
    pub fn with_noise(mut self, noise_std: f32) -> Self {
        self.noise_std = noise_std;
        self
    }
}

const NUM_CLASSES: usize = 10;

/// Builds one smooth class prototype of `channels × size × size` pixels from a
/// handful of Gaussian blobs whose positions depend on the class index.
fn class_prototype(class: usize, channels: usize, size: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut proto = vec![0.0f32; channels * size * size];
    let blobs = 3 + class % 3;
    for blob in 0..blobs {
        let cx = rng.gen_range(0.2..0.8) * size as f32;
        let cy = rng.gen_range(0.2..0.8) * size as f32;
        let sigma = rng.gen_range(0.08..0.2) * size as f32;
        let channel = (class + blob) % channels;
        let amplitude = 0.6 + 0.4 * ((class * 7 + blob * 3) % 5) as f32 / 4.0;
        for y in 0..size {
            for x in 0..size {
                let d2 = (x as f32 - cx).powi(2) + (y as f32 - cy).powi(2);
                proto[(channel * size + y) * size + x] +=
                    amplitude * (-d2 / (2.0 * sigma * sigma)).exp();
            }
        }
    }
    // clamp to [0, 1]
    for v in &mut proto {
        *v = v.min(1.0);
    }
    proto
}

/// Applies an integer circular shift to a `channels × size × size` image.
fn shift_image(src: &[f32], channels: usize, size: usize, dx: isize, dy: isize) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    for c in 0..channels {
        for y in 0..size {
            for x in 0..size {
                let sy = (y as isize - dy).rem_euclid(size as isize) as usize;
                let sx = (x as isize - dx).rem_euclid(size as isize) as usize;
                out[(c * size + y) * size + x] = src[(c * size + sy) * size + sx];
            }
        }
    }
    out
}

fn generate(config: &SyntheticConfig, channels: usize, size: usize) -> (Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let prototypes: Vec<Vec<f32>> = (0..NUM_CLASSES)
        .map(|c| class_prototype(c, channels, size, &mut rng))
        .collect();
    let make_split = |count: usize, rng: &mut StdRng| {
        let feature = channels * size * size;
        let mut data = Vec::with_capacity(count * feature);
        let mut labels = Vec::with_capacity(count);
        for i in 0..count {
            let class = i % NUM_CLASSES;
            let shift = config.max_shift as isize;
            let dx = if shift > 0 {
                rng.gen_range(-shift..=shift)
            } else {
                0
            };
            let dy = if shift > 0 {
                rng.gen_range(-shift..=shift)
            } else {
                0
            };
            let shifted = shift_image(&prototypes[class], channels, size, dx, dy);
            for v in shifted {
                let noisy = v + config.noise_std * sample_normal(rng);
                data.push(noisy.clamp(0.0, 1.0));
            }
            labels.push(class);
        }
        let images = Tensor::from_vec(&[count, channels, size, size], data)
            .expect("generated shape is consistent");
        Dataset::new(images, labels, NUM_CLASSES).expect("labels in range by construction")
    };
    let train = make_split(config.train_size, &mut rng);
    let test = make_split(config.test_size, &mut rng);
    (train, test)
}

fn sample_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Generates the synthetic MNIST stand-in: 10 classes of 1×28×28 images.
///
/// Returns `(train, test)` datasets.
pub fn synthetic_mnist(config: &SyntheticConfig) -> (Dataset, Dataset) {
    generate(config, 1, 28)
}

/// Generates the synthetic CIFAR-10 stand-in: 10 classes of 3×32×32 images.
///
/// Returns `(train, test)` datasets.
pub fn synthetic_cifar10(config: &SyntheticConfig) -> (Dataset, Dataset) {
    generate(config, 3, 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_shape_and_classes() {
        let (train, test) = synthetic_mnist(&SyntheticConfig::small());
        assert_eq!(train.len(), 200);
        assert_eq!(test.len(), 80);
        assert_eq!(train.image_shape(), &[1, 28, 28]);
        assert_eq!(train.num_classes(), 10);
        // all classes present
        for c in 0..10 {
            assert!(train.labels().contains(&c));
        }
    }

    #[test]
    fn cifar_shape() {
        let cfg = SyntheticConfig::small().with_sizes(50, 20);
        let (train, _) = synthetic_cifar10(&cfg);
        assert_eq!(train.image_shape(), &[3, 32, 32]);
    }

    #[test]
    fn pixels_are_normalised() {
        let (train, _) = synthetic_mnist(&SyntheticConfig::small());
        assert!(train.images().min_value() >= 0.0);
        assert!(train.images().max_value() <= 1.0);
    }

    #[test]
    fn same_seed_same_data() {
        let a = synthetic_mnist(&SyntheticConfig::small()).0;
        let b = synthetic_mnist(&SyntheticConfig::small()).0;
        assert_eq!(a.images().data(), b.images().data());
        let c = synthetic_mnist(&SyntheticConfig::small().with_seed(1)).0;
        assert_ne!(a.images().data(), c.images().data());
    }

    #[test]
    fn classes_are_separable_by_nearest_prototype() {
        // With low noise, a nearest-class-mean classifier should do well —
        // sanity check that the task is learnable.
        let cfg = SyntheticConfig {
            train_size: 400,
            test_size: 100,
            noise_std: 0.1,
            max_shift: 0,
            seed: 3,
        };
        let (train, test) = synthetic_mnist(&cfg);
        let feature = train.feature_count();
        let train_flat = train.flattened().unwrap();
        let mut means = vec![vec![0.0f32; feature]; 10];
        let mut counts = [0usize; 10];
        for (i, &label) in train.labels().iter().enumerate() {
            counts[label] += 1;
            for (m, v) in means[label].iter_mut().zip(train_flat.row(i)) {
                *m += v;
            }
        }
        for (c, mean) in means.iter_mut().enumerate() {
            for v in mean.iter_mut() {
                *v /= counts[c].max(1) as f32;
            }
        }
        let test_flat = test.flattened().unwrap();
        let mut correct = 0usize;
        for (i, &label) in test.labels().iter().enumerate() {
            let row = test_flat.row(i);
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f32 = row
                        .iter()
                        .zip(&means[a])
                        .map(|(x, m)| (x - m) * (x - m))
                        .sum();
                    let db: f32 = row
                        .iter()
                        .zip(&means[b])
                        .map(|(x, m)| (x - m) * (x - m))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == label {
                correct += 1;
            }
        }
        let acc = correct as f32 / test.len() as f32;
        assert!(acc > 0.9, "nearest-mean accuracy {acc}");
    }

    #[test]
    fn config_builders() {
        let cfg = SyntheticConfig::default()
            .with_sizes(10, 5)
            .with_noise(0.5)
            .with_seed(9);
        assert_eq!(cfg.train_size, 10);
        assert_eq!(cfg.test_size, 5);
        assert_eq!(cfg.noise_std, 0.5);
        assert_eq!(cfg.seed, 9);
    }
}
