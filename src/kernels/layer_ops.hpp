// Auxiliary CNN layer operations on the simulator: 2x2 max-pooling and
// fused bias + ReLU.
//
// Not part of the paper's contribution — they exist so the examples and the
// serving graph runner can execute a complete CNN forward pass
// (conv -> bias/ReLU -> pool -> ... -> FC) through the library, the way a
// framework would consume it. Both are simple memory-bound kernels with
// coalesced access, one 128-thread block per row segment; both declare a
// replay_class hook (an x-edge flag), so replay launches capture one block
// per class and fast-forward the rest.
//
// Both ops accept full (N, C, H, W) batches: an NCHW batch is
// layout-identical to a single (N*C)-plane image, so the batched op is the
// same kernel launched over N*C planes — batch-1 calls are bit-for-bit the
// launches they always were.
#pragma once

#include "src/kernels/kernel_run.hpp"
#include "src/sim/launch.hpp"

namespace kconv::kernels {

/// 2x2 max pooling with stride 2 over (N, C, H, W); odd tails truncate
/// (floor semantics, like Caffe). Output (N, C, H/2, W/2).
KernelRun max_pool_2x2(sim::Device& dev, const tensor::Tensor& input,
                       const sim::LaunchOptions& opt = {});

/// out[n][c][y][x] = max(0, in[n][c][y][x] + bias[c]) over (N, C, H, W).
/// `bias.size()` must equal C.
KernelRun bias_relu(sim::Device& dev, const tensor::Tensor& input,
                    std::span<const float> bias,
                    const sim::LaunchOptions& opt = {});

}  // namespace kconv::kernels
