// Common result type returned by the host-side kernel runners.
//
// Kernel classes may additionally declare the trace-replay hook
//
//   u64 replay_class(sim::Dim3 block_idx) const;
//
// mapping each block to an equivalence class of congruent blocks (same
// control flow, predication masks and shared-memory offsets; only
// global/constant addresses shifted). With LaunchOptions::replay set,
// launch() then schedules one representative per class and fast-forwards
// the rest (docs/MODEL.md §5b); kernels without the hook always take the
// exact legacy path. GeneralConv, SpecialConv (including the short-dtype
// variants), ImplicitGemmConv and the max-pool / bias+ReLU row kernels
// declare it.
#pragma once

#include "src/sim/launch.hpp"
#include "src/tensor/tensor.hpp"

namespace kconv::kernels {

/// Outcome of running a convolution/GEMM kernel on the simulator.
struct KernelRun {
  sim::LaunchResult launch;
  /// Functional output. Only populated when the launch executed every block
  /// (sampled benchmark runs skip the download; check output_valid).
  tensor::Tensor output;
  bool output_valid = false;
};

}  // namespace kconv::kernels
