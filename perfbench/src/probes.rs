//! Probes that time public kernels in isolation, so the ledger can say how
//! close each layer gets to what its kernel alone reaches.

use crate::report::median;
use ff_quant::pack::{PackSource, PackedA, PackedB};
use ff_quant::{int8_gemm_prepacked, int8_matmul_a_bt_shared_rows, RowQuantTensor};
use ff_serve::{FrozenLayer, FrozenModel};
use ff_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median per-call time of `f` over repeated calls filling `budget`
/// (after two untimed calls), in nanoseconds.
fn time_ns<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    black_box(f());
    let mut samples = Vec::new();
    let deadline = Instant::now() + budget;
    while samples.len() < 5 || Instant::now() < deadline {
        let start = Instant::now();
        black_box(f());
        samples.push(start.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Throughput of the packed INT8 kernel alone — operands already quantized
/// and packed, no epilogue beyond the scale — at an `[m, k] · [n, k]ᵀ`
/// shape, in GOPS (two operations per multiply–accumulate). Threads are
/// chosen the way training chooses them.
pub fn kernel_gops(m: usize, k: usize, n: usize, budget: Duration, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ (m * k * n) as u64);
    let mut codes = |len: usize| -> Vec<i8> {
        (0..len)
            .map(|_| rng.gen_range(-127i32..=127) as i8)
            .collect()
    };
    let a = PackedA::pack(&codes(m * k), m, k, PackSource::RowMajor);
    let b = PackedB::pack(&codes(n * k), k, n, PackSource::Transposed);
    let ns = time_ns(budget, || {
        int8_gemm_prepacked(&a, &b, 1.0, None, false, None).expect("conformable packed operands")
    });
    2.0 * (m * k * n) as f64 / ns
}

/// One dense layer of a serving replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayLayer {
    /// Per-row activation quantization (`RowQuantTensor::quantize`).
    pub quantize_ns: f64,
    /// The shared-plan GEMM with its fused epilogue.
    pub gemm_ns: f64,
    /// GEMM throughput in GOPS.
    pub gops: f64,
}

/// Replays one goodness wave of `batch` requests through the frozen
/// model's public kernels, layer by layer, on one GEMM thread (as serving
/// workers run), and times the whole `predict_goodness_threads` sweep over
/// the same rows. Returns the layers and the sweep's median nanoseconds.
pub fn serve_replay(
    model: &FrozenModel,
    batch: &Tensor,
    budget: Duration,
) -> (Vec<ReplayLayer>, f64) {
    let classes = model.num_classes();
    let rows = batch.rows();
    // The sweep's candidate-major overlay block: rows [c·rows, (c+1)·rows)
    // carry candidate label c in the first `classes` features.
    let mut overlay = Vec::with_capacity(rows * classes * batch.cols());
    for candidate in 0..classes {
        for row in 0..rows {
            let base = overlay.len();
            overlay.extend_from_slice(batch.row(row));
            overlay[base..base + classes]
                .iter_mut()
                .for_each(|v| *v = 0.0);
            overlay[base + candidate] = 1.0;
        }
    }
    let mut x = Tensor::from_vec(&[rows * classes, batch.cols()], overlay).expect("overlay shape");
    let dense: Vec<_> = model
        .layers()
        .iter()
        .filter_map(|l| match l {
            FrozenLayer::Dense(d) => Some(d),
            FrozenLayer::Flatten => None,
        })
        .collect();
    let per_layer = budget / (2 * dense.len() as u32 + 2);
    let mut layers = Vec::with_capacity(dense.len());
    for d in dense {
        let quantize_ns = time_ns(per_layer, || {
            RowQuantTensor::quantize(&x).expect("2-D activations")
        });
        let q = RowQuantTensor::quantize(&x).expect("2-D activations");
        let gemm = || {
            int8_matmul_a_bt_shared_rows(&q, d.plan(), Some(d.bias()), d.has_relu(), Some(1))
                .expect("conformable layer")
        };
        let gemm_ns = time_ns(per_layer, gemm);
        let y = gemm();
        layers.push(ReplayLayer {
            quantize_ns,
            gemm_ns,
            gops: 2.0 * (x.rows() * d.in_features() * d.out_features()) as f64 / gemm_ns,
        });
        x = y.normalize_rows(1e-6);
    }
    let sweep_ns = time_ns(budget / 2, || {
        model
            .predict_goodness_threads(batch, Some(1))
            .expect("valid batch")
    });
    (layers, sweep_ns)
}
