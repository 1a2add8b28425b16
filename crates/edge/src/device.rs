//! The edge-device specification (paper Table III).

/// Hardware characteristics of the target edge device.
///
/// Defaults model the NVIDIA Jetson Orin Nano used by the paper
/// (Table III: 512-core Ampere GPU, 20 TOPS INT8, 4 GB LPDDR5 @ 34 GB/s,
/// 7–10 W power envelope).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Device name.
    pub name: String,
    /// Peak INT8 throughput in operations per second (MAC counts as two ops).
    pub peak_int8_ops_per_s: f64,
    /// Peak FP32 throughput in FLOP/s.
    pub peak_fp32_flops_per_s: f64,
    /// Fraction of peak throughput realistically sustained by GEMM kernels.
    pub utilization: f64,
    /// Efficiency of backward-pass GEMMs relative to forward GEMMs (the paper
    /// notes forward passes benefit from inference-optimised kernels).
    pub backward_efficiency: f64,
    /// DRAM capacity in bytes.
    pub memory_bytes: u64,
    /// DRAM bandwidth in bytes per second.
    pub memory_bandwidth_bytes_per_s: f64,
    /// Board power when busy, in watts.
    pub active_power_w: f64,
    /// Board power when idle, in watts.
    pub idle_power_w: f64,
    /// Dynamic energy per INT8 MAC in joules.
    pub energy_per_int8_mac_j: f64,
    /// Dynamic energy per FP32 FLOP in joules.
    pub energy_per_fp32_flop_j: f64,
    /// Dynamic energy per byte of DRAM traffic in joules.
    pub energy_per_dram_byte_j: f64,
}

impl DeviceSpec {
    /// The NVIDIA Jetson Orin Nano (paper Table III).
    pub fn jetson_orin_nano() -> Self {
        DeviceSpec {
            name: "NVIDIA Jetson Orin Nano".to_string(),
            // 20 TOPS INT8 (Table III), counting multiply and add separately.
            peak_int8_ops_per_s: 20.0e12,
            // 512-core Ampere GPU at ~0.6 GHz, 2 FLOP/cycle/core ≈ 1.3 TFLOPS.
            peak_fp32_flops_per_s: 1.28e12,
            utilization: 0.25,
            backward_efficiency: 0.6,
            memory_bytes: 4 * 1024 * 1024 * 1024,
            memory_bandwidth_bytes_per_s: 34.0e9,
            active_power_w: 10.0,
            idle_power_w: 3.0,
            // ~0.35 pJ per INT8 MAC and ~1.5 pJ per FP32 FLOP are typical for
            // edge-class accelerators in this power envelope.
            energy_per_int8_mac_j: 0.35e-12,
            energy_per_fp32_flop_j: 1.5e-12,
            energy_per_dram_byte_j: 20.0e-12,
        }
    }

    /// Effective sustained INT8 ops per second.
    pub fn sustained_int8_ops_per_s(&self) -> f64 {
        self.peak_int8_ops_per_s * self.utilization
    }

    /// Effective sustained FP32 FLOP/s.
    pub fn sustained_fp32_flops_per_s(&self) -> f64 {
        self.peak_fp32_flops_per_s * self.utilization
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::jetson_orin_nano()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jetson_spec_matches_table3() {
        let d = DeviceSpec::jetson_orin_nano();
        assert_eq!(d.peak_int8_ops_per_s, 20.0e12);
        assert_eq!(d.memory_bytes, 4 * 1024 * 1024 * 1024);
        assert!((d.memory_bandwidth_bytes_per_s - 34.0e9).abs() < 1.0);
        assert!(d.active_power_w >= 7.0 && d.active_power_w <= 10.0);
    }

    #[test]
    fn int8_is_faster_than_fp32() {
        let d = DeviceSpec::default();
        assert!(d.sustained_int8_ops_per_s() > 4.0 * d.sustained_fp32_flops_per_s());
    }

    #[test]
    fn sustained_rates_respect_utilization() {
        let d = DeviceSpec::jetson_orin_nano();
        assert!(d.sustained_int8_ops_per_s() < d.peak_int8_ops_per_s);
        assert!(d.sustained_fp32_flops_per_s() < d.peak_fp32_flops_per_s);
    }
}
