//! Operation-count accounting (paper Table IV categories).

use ff_models::ModelSpec;
use std::ops::Add;

/// Operation counts broken down by the categories of the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// 8-bit integer multiplications (MAC phase).
    pub int8_mul: u64,
    /// 8-bit integer additions with 32-bit accumulation (MAC phase).
    pub int8_add: u64,
    /// 32-bit floating-point multiplications (MAC phase of FP32 training).
    pub fp32_mul: u64,
    /// 32-bit floating-point additions.
    pub fp32_add: u64,
    /// 32-bit comparisons (quantization phase: max-abs scans, clipping).
    pub cmp32: u64,
}

impl OpCounts {
    /// Total MAC-phase operations (both precisions).
    pub fn mac_ops(&self) -> u64 {
        self.int8_mul + self.int8_add + self.fp32_mul + self.fp32_add
    }

    /// Total quantization-phase operations.
    pub fn quantization_ops(&self) -> u64 {
        self.cmp32
    }

    /// Total INT8 MACs (counting one multiply–add pair as one MAC).
    pub fn int8_macs(&self) -> u64 {
        self.int8_mul
    }

    /// Total FP32 MACs.
    pub fn fp32_macs(&self) -> u64 {
        self.fp32_mul
    }

    /// Scales every count by an integer factor (e.g. batches per epoch).
    pub fn scaled(&self, factor: u64) -> OpCounts {
        OpCounts {
            int8_mul: self.int8_mul * factor,
            int8_add: self.int8_add * factor,
            fp32_mul: self.fp32_mul * factor,
            fp32_add: self.fp32_add * factor,
            cmp32: self.cmp32 * factor,
        }
    }
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            int8_mul: self.int8_mul + rhs.int8_mul,
            int8_add: self.int8_add + rhs.int8_add,
            fp32_mul: self.fp32_mul + rhs.fp32_mul,
            fp32_add: self.fp32_add + rhs.fp32_add,
            cmp32: self.cmp32 + rhs.cmp32,
        }
    }
}

/// Per-mini-batch operation counts for FF-INT8 training with look-ahead
/// (Algorithm 1): a positive and a negative forward pass in INT8, plus one
/// INT8 weight-gradient GEMM per MAC layer per pass. No gradient is
/// back-propagated to layer inputs.
pub fn ff_int8_batch_ops(spec: &ModelSpec, batch: usize) -> OpCounts {
    let forward = spec.forward_macs() * batch as u64;
    // gW GEMMs cost the same MACs as the forward GEMMs of the same layers.
    let grad_w = forward;
    let passes = 2; // positive + negative
    let int8_macs = passes * (forward + grad_w);
    // Quantization phase: one comparison per element scanned for the max-abs
    // scale. Activations and inputs are scanned once per pass; weights and
    // weight gradients are scanned once per mini-batch.
    let per_pass = (spec.input_elements as u64 + spec.activation_elements()) * batch as u64;
    let per_batch = spec.param_count() * 2;
    let elements_scanned = per_pass * passes + per_batch;
    OpCounts {
        int8_mul: int8_macs,
        int8_add: int8_macs,
        fp32_mul: 0,
        fp32_add: elements_scanned, // scale multiplies / stochastic rounding adds
        cmp32: elements_scanned,
    }
}

/// Per-mini-batch operation counts for FP32 backpropagation: forward GEMMs,
/// weight-gradient GEMMs and the gradient back-propagation GEMMs from the
/// last layer to the first.
pub fn bp_fp32_batch_ops(spec: &ModelSpec, batch: usize) -> OpCounts {
    let forward = spec.forward_macs() * batch as u64;
    let grad_w = forward;
    let grad_input = forward; // the backward chain the FF algorithm avoids
    let fp32_macs = forward + grad_w + grad_input;
    OpCounts {
        fp32_mul: fp32_macs,
        fp32_add: fp32_macs,
        ..OpCounts::default()
    }
}

/// Per-mini-batch operation counts for INT8 backpropagation (BP-INT8, UI8 and
/// GDAI8): the same three GEMM families as BP-FP32 but in INT8, plus an
/// FP32 gradient-analysis overhead per gradient element (direction-sensitive
/// clipping for UI8, distribution analysis for GDAI8).
pub fn bp_int8_batch_ops(
    spec: &ModelSpec,
    batch: usize,
    analysis_flops_per_grad_element: u64,
) -> OpCounts {
    let forward = spec.forward_macs() * batch as u64;
    let int8_macs = 3 * forward;
    let grad_elements = spec.param_count();
    let analysis = grad_elements * analysis_flops_per_grad_element;
    OpCounts {
        int8_mul: int8_macs,
        int8_add: int8_macs,
        fp32_add: analysis,
        fp32_mul: 0,
        cmp32: grad_elements + spec.activation_elements() * batch as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::specs;

    #[test]
    fn add_and_scale() {
        let a = OpCounts {
            int8_mul: 1,
            int8_add: 2,
            fp32_mul: 3,
            fp32_add: 4,
            cmp32: 5,
        };
        let b = a + a;
        assert_eq!(b.int8_mul, 2);
        assert_eq!(b.cmp32, 10);
        assert_eq!(a.scaled(3).fp32_add, 12);
        assert_eq!(a.mac_ops(), 10);
        assert_eq!(a.quantization_ops(), 5);
    }

    #[test]
    fn ff_has_no_fp32_macs_and_bp_fp32_has_no_int8() {
        let spec = specs::mlp_depth_spec(3);
        let ff = ff_int8_batch_ops(&spec, 10);
        assert_eq!(ff.fp32_macs(), 0);
        assert!(ff.int8_macs() > 0);
        let bp = bp_fp32_batch_ops(&spec, 10);
        assert_eq!(bp.int8_macs(), 0);
        assert!(bp.fp32_macs() > 0);
    }

    #[test]
    fn ff_avoids_the_backward_chain() {
        // FF per pass: forward + gW = 2 GEMM units; BP: 3 GEMM units. Per
        // batch FF runs two passes (positive + negative).
        let spec = specs::mlp_depth_spec(2);
        let batch = 10;
        let forward = spec.forward_macs() * batch as u64;
        let ff = ff_int8_batch_ops(&spec, batch);
        let bp = bp_fp32_batch_ops(&spec, batch);
        assert_eq!(ff.int8_macs(), 4 * forward);
        assert_eq!(bp.fp32_macs(), 3 * forward);
    }

    #[test]
    fn quantization_phase_is_negligible_vs_mac_phase() {
        // Paper Section V-C: the quantization phase is orders of magnitude
        // smaller than the MAC phase.
        let spec = specs::mlp_depth_spec(3);
        let ff = ff_int8_batch_ops(&spec, 10);
        assert!(ff.quantization_ops() * 20 < ff.mac_ops());
    }

    #[test]
    fn analysis_overhead_scales_with_policy() {
        let spec = specs::mlp_depth_spec(2);
        let direct = bp_int8_batch_ops(&spec, 10, 2);
        let gdai8 = bp_int8_batch_ops(&spec, 10, 10);
        assert!(gdai8.fp32_add > direct.fp32_add);
        assert_eq!(gdai8.int8_macs(), direct.int8_macs());
    }
}
