// Blocked single-precision GEMM kernels on the simulator (Fig. 2).
//
// One parameterized kernel family covers the paper's three contenders:
//  - gemm_cublas_like(): large 96x96 tiles, 6x6 micro-tiles, matched
//    (float2) SM fragments, double-buffered GM staging — a stand-in for the
//    cuBLAS Kepler SGEMM.
//  - gemm_magma_fermi(): the MAGMA Fermi kernel [19] — 64x64 tiles, 4x4
//    micro-tiles, SCALAR (float) SM fragments. Matched on Fermi's 4-byte
//    banks, mismatched on Kepler's 8-byte banks, where each request cycle
//    moves only half the available SM bandwidth.
//  - gemm_magma_mod(): the paper's modification — same kernel, fragments
//    read as float2 so W_CD = W_SMB again.
//
// A fourth preset applies the same lesson to a different shape:
//  - gemm_matvec(): a GEMV-sized tile (16x2, 2x2 micro-tiles, matched
//    fragments, 8 threads) for the M x K * K x 1 dense layer, where a 64x64
//    tile would run 256 threads to produce a 10x1 corner. Every output still
//    sums over k in the same order, so C is bit-identical to the 64x64 tile.
//
// A tiles are stored transposed in SM (shA[k][m]) with one bank word of
// padding per row to keep the transposing stores conflict-free.
#pragma once

#include "src/common/types.hpp"
#include "src/sim/launch.hpp"
#include "src/tensor/im2col.hpp"

namespace kconv::kernels {

struct GemmConfig {
  i64 bm = 64;  ///< C-tile rows per thread block
  i64 bn = 64;  ///< C-tile columns per thread block
  i64 bk = 16;  ///< K-depth staged per iteration
  i64 tm = 4;   ///< micro-tile rows per thread
  i64 tn = 4;   ///< micro-tile columns per thread
  /// SM fragment width in floats; 0 = match the bank width, 1 = scalar.
  i64 vec_width = 0;
  bool prefetch = true;
  bool pad_a = true;  ///< pad transposed A rows by one bank word
};

GemmConfig gemm_cublas_like();
GemmConfig gemm_magma_fermi();
GemmConfig gemm_magma_mod();
GemmConfig gemm_matvec();

struct GemmRun {
  sim::LaunchResult launch;
  tensor::Matrix c;
  bool output_valid = false;
};

/// C = A * B on the simulator (row-major host matrices).
GemmRun gemm(sim::Device& dev, const tensor::Matrix& a,
             const tensor::Matrix& b, const GemmConfig& cfg = {},
             const sim::LaunchOptions& opt = {});

}  // namespace kconv::kernels
