//! Full-scale architecture specifications.
//!
//! A [`ModelSpec`] is a purely structural description (no weights) of one of
//! the paper's benchmark networks. The analytic device model in `ff-edge`
//! walks these specs to count operations, bytes and activations exactly,
//! which is how Table IV and the time/energy/memory columns of Table V are
//! regenerated without the physical Jetson board.

/// One layer of a [`ModelSpec`].
///
/// Only the quantities needed for cost accounting are stored: parameter
/// tensor sizes, MAC counts and activation sizes, all **per sample**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerSpec {
    /// Fully-connected layer.
    Dense {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Standard 2-D convolution (square kernel, `same`-style padding assumed
    /// for spatial bookkeeping; `out_hw` is the actual output spatial size).
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Square kernel size.
        kernel: usize,
        /// Output spatial size (height = width).
        out_hw: usize,
    },
    /// Depthwise 2-D convolution (one filter per channel).
    DepthwiseConv2d {
        /// Channels (input = output).
        channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Output spatial size (height = width).
        out_hw: usize,
    },
    /// Batch normalisation over `channels` feature maps of `hw × hw` pixels.
    BatchNorm2d {
        /// Normalised channels.
        channels: usize,
        /// Spatial size (height = width).
        hw: usize,
    },
    /// Parameter-free layer (pooling, flatten, activation) producing
    /// `output_elements` activations per sample.
    Reshape {
        /// Activations produced per sample.
        output_elements: usize,
    },
}

impl LayerSpec {
    /// Number of trainable parameters.
    pub fn param_count(&self) -> u64 {
        match *self {
            LayerSpec::Dense {
                in_features,
                out_features,
            } => (in_features * out_features + out_features) as u64,
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                ..
            } => (out_ch * in_ch * kernel * kernel + out_ch) as u64,
            LayerSpec::DepthwiseConv2d {
                channels, kernel, ..
            } => (channels * kernel * kernel + channels) as u64,
            LayerSpec::BatchNorm2d { channels, .. } => (2 * channels) as u64,
            LayerSpec::Reshape { .. } => 0,
        }
    }

    /// Fused multiply–accumulate operations for one forward pass of one
    /// sample.
    pub fn forward_macs(&self) -> u64 {
        match *self {
            LayerSpec::Dense {
                in_features,
                out_features,
            } => (in_features * out_features) as u64,
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                out_hw,
            } => (out_ch * out_hw * out_hw * in_ch * kernel * kernel) as u64,
            LayerSpec::DepthwiseConv2d {
                channels,
                kernel,
                out_hw,
            } => (channels * out_hw * out_hw * kernel * kernel) as u64,
            LayerSpec::BatchNorm2d { channels, hw } => (2 * channels * hw * hw) as u64,
            LayerSpec::Reshape { .. } => 0,
        }
    }

    /// Number of activation values produced per sample.
    pub fn output_elements(&self) -> u64 {
        match *self {
            LayerSpec::Dense { out_features, .. } => out_features as u64,
            LayerSpec::Conv2d { out_ch, out_hw, .. } => (out_ch * out_hw * out_hw) as u64,
            LayerSpec::DepthwiseConv2d {
                channels, out_hw, ..
            } => (channels * out_hw * out_hw) as u64,
            LayerSpec::BatchNorm2d { channels, hw } => (channels * hw * hw) as u64,
            LayerSpec::Reshape { output_elements } => output_elements as u64,
        }
    }

    /// `true` when the layer holds trainable MAC weights (dense or conv).
    pub fn is_mac_layer(&self) -> bool {
        matches!(
            self,
            LayerSpec::Dense { .. } | LayerSpec::Conv2d { .. } | LayerSpec::DepthwiseConv2d { .. }
        )
    }
}

/// A full architecture description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Human-readable model name (e.g. `"ResNet-18"`).
    pub name: String,
    /// Input elements per sample (e.g. `3 · 32 · 32` for CIFAR-10).
    pub input_elements: usize,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Total trainable parameters.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(LayerSpec::param_count).sum()
    }

    /// Total parameters in millions (for comparison with Table II).
    pub fn param_millions(&self) -> f64 {
        self.param_count() as f64 / 1.0e6
    }

    /// Forward MACs per sample.
    pub fn forward_macs(&self) -> u64 {
        self.layers.iter().map(LayerSpec::forward_macs).sum()
    }

    /// Total activation elements produced per sample across all layers (what
    /// backpropagation has to keep resident for its backward pass).
    pub fn activation_elements(&self) -> u64 {
        self.layers.iter().map(LayerSpec::output_elements).sum()
    }

    /// The largest single-layer activation (what a layer-at-a-time algorithm
    /// such as Forward-Forward has to keep resident).
    pub fn max_layer_activation(&self) -> u64 {
        self.layers
            .iter()
            .map(LayerSpec::output_elements)
            .max()
            .unwrap_or(0)
    }

    /// Number of MAC layers (dense/conv), i.e. FF-trainable blocks.
    pub fn mac_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_mac_layer()).count()
    }
}

/// MLP on MNIST with the given hidden widths (paper Table II uses two hidden
/// layers of 1000 units → 1.79 M parameters).
pub fn mlp_spec(hidden: &[usize]) -> ModelSpec {
    let mut layers = Vec::new();
    let mut in_features = 784;
    for &width in hidden {
        layers.push(LayerSpec::Dense {
            in_features,
            out_features: width,
        });
        in_features = width;
    }
    layers.push(LayerSpec::Dense {
        in_features,
        out_features: 10,
    });
    ModelSpec {
        name: format!("MLP-{}h", hidden.len()),
        input_elements: 784,
        layers,
    }
}

/// The depth-sweep MLPs of Table I: `hidden_layers` hidden layers of 500
/// neurons each on MNIST.
pub fn mlp_depth_spec(hidden_layers: usize) -> ModelSpec {
    mlp_spec(&vec![500; hidden_layers])
}

fn push_conv_bn(
    layers: &mut Vec<LayerSpec>,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    hw: &mut usize,
) {
    *hw = hw.div_ceil(stride);
    layers.push(LayerSpec::Conv2d {
        in_ch,
        out_ch,
        kernel,
        out_hw: *hw,
    });
    layers.push(LayerSpec::BatchNorm2d {
        channels: out_ch,
        hw: *hw,
    });
}

/// ResNet-18 for CIFAR-10 (3×32×32 input, 10 classes).
///
/// Matches the paper's 11.19 M parameter count to within a few percent.
pub fn resnet18_spec() -> ModelSpec {
    let mut layers = Vec::new();
    let mut hw = 32usize;
    push_conv_bn(&mut layers, 3, 64, 3, 1, &mut hw);
    let stage_channels = [64usize, 128, 256, 512];
    let mut in_ch = 64usize;
    for (stage, &out_ch) in stage_channels.iter().enumerate() {
        for block in 0..2 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            // main path: two 3x3 convolutions
            push_conv_bn(&mut layers, in_ch, out_ch, 3, stride, &mut hw);
            push_conv_bn(&mut layers, out_ch, out_ch, 3, 1, &mut hw);
            // projection shortcut when the shape changes
            if stride != 1 || in_ch != out_ch {
                layers.push(LayerSpec::Conv2d {
                    in_ch,
                    out_ch,
                    kernel: 1,
                    out_hw: hw,
                });
                layers.push(LayerSpec::BatchNorm2d {
                    channels: out_ch,
                    hw,
                });
            }
            in_ch = out_ch;
        }
    }
    layers.push(LayerSpec::Reshape {
        output_elements: 512,
    });
    layers.push(LayerSpec::Dense {
        in_features: 512,
        out_features: 10,
    });
    ModelSpec {
        name: "ResNet-18".to_string(),
        input_elements: 3 * 32 * 32,
        layers,
    }
}

fn push_inverted_residual(
    layers: &mut Vec<LayerSpec>,
    in_ch: usize,
    out_ch: usize,
    expansion: usize,
    stride: usize,
    kernel: usize,
    hw: &mut usize,
) {
    let expanded = in_ch * expansion;
    if expansion != 1 {
        // 1x1 expansion
        layers.push(LayerSpec::Conv2d {
            in_ch,
            out_ch: expanded,
            kernel: 1,
            out_hw: *hw,
        });
        layers.push(LayerSpec::BatchNorm2d {
            channels: expanded,
            hw: *hw,
        });
    }
    // depthwise
    *hw = hw.div_ceil(stride);
    layers.push(LayerSpec::DepthwiseConv2d {
        channels: expanded,
        kernel,
        out_hw: *hw,
    });
    layers.push(LayerSpec::BatchNorm2d {
        channels: expanded,
        hw: *hw,
    });
    // 1x1 projection
    layers.push(LayerSpec::Conv2d {
        in_ch: expanded,
        out_ch,
        kernel: 1,
        out_hw: *hw,
    });
    layers.push(LayerSpec::BatchNorm2d {
        channels: out_ch,
        hw: *hw,
    });
}

/// MobileNetV2 for CIFAR-10 (width multiplier 1.0).
///
/// Matches the paper's 2.24 M parameters to within a few percent.
pub fn mobilenet_v2_spec() -> ModelSpec {
    let mut layers = Vec::new();
    let mut hw = 32usize;
    push_conv_bn(&mut layers, 3, 32, 3, 1, &mut hw);
    // (expansion, out_channels, repeats, stride)
    let config: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 1),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut in_ch = 32usize;
    for &(t, c, n, s) in &config {
        for i in 0..n {
            let stride = if i == 0 { s } else { 1 };
            push_inverted_residual(&mut layers, in_ch, c, t, stride, 3, &mut hw);
            in_ch = c;
        }
    }
    push_conv_bn(&mut layers, in_ch, 1280, 1, 1, &mut hw);
    layers.push(LayerSpec::Reshape {
        output_elements: 1280,
    });
    layers.push(LayerSpec::Dense {
        in_features: 1280,
        out_features: 10,
    });
    ModelSpec {
        name: "MobileNet-V2".to_string(),
        input_elements: 3 * 32 * 32,
        layers,
    }
}

/// EfficientNet-B0 for CIFAR-10 (MBConv backbone; squeeze-excitation blocks
/// are omitted, which keeps the parameter count near the paper's 3.39 M).
pub fn efficientnet_b0_spec() -> ModelSpec {
    let mut layers = Vec::new();
    let mut hw = 32usize;
    push_conv_bn(&mut layers, 3, 32, 3, 1, &mut hw);
    // (expansion, out_channels, repeats, stride, kernel)
    let config: [(usize, usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1, 3),
        (6, 24, 2, 2, 3),
        (6, 40, 2, 2, 5),
        (6, 80, 3, 2, 3),
        (6, 112, 3, 1, 5),
        (6, 192, 4, 2, 5),
        (6, 320, 1, 1, 3),
    ];
    let mut in_ch = 32usize;
    for &(t, c, n, s, k) in &config {
        for i in 0..n {
            let stride = if i == 0 { s } else { 1 };
            push_inverted_residual(&mut layers, in_ch, c, t, stride, k, &mut hw);
            in_ch = c;
        }
    }
    push_conv_bn(&mut layers, in_ch, 1280, 1, 1, &mut hw);
    layers.push(LayerSpec::Reshape {
        output_elements: 1280,
    });
    layers.push(LayerSpec::Dense {
        in_features: 1280,
        out_features: 10,
    });
    ModelSpec {
        name: "EfficientNet-B0".to_string(),
        input_elements: 3 * 32 * 32,
        layers,
    }
}

/// All four benchmark specs of the paper's Table II, in table order.
pub fn table2_specs() -> Vec<ModelSpec> {
    vec![
        mlp_spec(&[1000, 1000]),
        mobilenet_v2_spec(),
        efficientnet_b0_spec(),
        resnet18_spec(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_spec_param_counts() {
        assert_eq!(
            LayerSpec::Dense {
                in_features: 10,
                out_features: 5
            }
            .param_count(),
            55
        );
        assert_eq!(
            LayerSpec::Conv2d {
                in_ch: 3,
                out_ch: 8,
                kernel: 3,
                out_hw: 16
            }
            .param_count(),
            3 * 8 * 9 + 8
        );
        assert_eq!(
            LayerSpec::DepthwiseConv2d {
                channels: 8,
                kernel: 3,
                out_hw: 16
            }
            .param_count(),
            8 * 9 + 8
        );
        assert_eq!(
            LayerSpec::BatchNorm2d {
                channels: 16,
                hw: 8
            }
            .param_count(),
            32
        );
        assert_eq!(LayerSpec::Reshape { output_elements: 4 }.param_count(), 0);
    }

    #[test]
    fn layer_spec_macs_and_outputs() {
        let conv = LayerSpec::Conv2d {
            in_ch: 2,
            out_ch: 4,
            kernel: 3,
            out_hw: 8,
        };
        assert_eq!(conv.forward_macs(), 4 * 64 * 2 * 9);
        assert_eq!(conv.output_elements(), 4 * 64);
        assert!(conv.is_mac_layer());
        assert!(!LayerSpec::BatchNorm2d { channels: 4, hw: 8 }.is_mac_layer());
    }

    #[test]
    fn mlp_spec_matches_table2() {
        let spec = mlp_spec(&[1000, 1000]);
        assert!(
            (spec.param_millions() - 1.79).abs() < 0.02,
            "MLP params {:.3}M",
            spec.param_millions()
        );
        assert_eq!(spec.mac_layer_count(), 3);
    }

    #[test]
    fn table1_depth_specs() {
        assert_eq!(mlp_depth_spec(0).mac_layer_count(), 1);
        assert_eq!(mlp_depth_spec(3).mac_layer_count(), 4);
        // 0 hidden layers: a single 784x10 softmax layer
        assert_eq!(mlp_depth_spec(0).param_count(), 7850);
    }

    #[test]
    fn resnet18_spec_matches_table2() {
        let spec = resnet18_spec();
        let m = spec.param_millions();
        assert!(
            (m - 11.19).abs() / 11.19 < 0.05,
            "ResNet-18 params {m:.3}M vs paper 11.19M"
        );
    }

    #[test]
    fn mobilenet_spec_matches_table2() {
        let spec = mobilenet_v2_spec();
        let m = spec.param_millions();
        assert!(
            (m - 2.24).abs() / 2.24 < 0.10,
            "MobileNetV2 params {m:.3}M vs paper 2.24M"
        );
    }

    #[test]
    fn efficientnet_spec_matches_table2() {
        let spec = efficientnet_b0_spec();
        let m = spec.param_millions();
        assert!(
            (m - 3.39).abs() / 3.39 < 0.15,
            "EfficientNet-B0 params {m:.3}M vs paper 3.39M"
        );
    }

    #[test]
    fn table2_order_and_relative_sizes() {
        let specs = table2_specs();
        assert_eq!(specs.len(), 4);
        // ResNet-18 is the largest, MLP the smallest of the conv trio ordering
        assert!(specs[3].param_count() > specs[2].param_count());
        assert!(specs[2].param_count() > specs[1].param_count());
    }

    #[test]
    fn activation_accounting_is_consistent() {
        let spec = resnet18_spec();
        assert!(spec.activation_elements() > spec.max_layer_activation());
        assert!(spec.forward_macs() > spec.param_count());
    }
}
