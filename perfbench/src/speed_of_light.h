// Speed-of-light references: the same loops in native double, next to the
// library's routed kernels, so a kernel's speed reads as distance to native.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "arith/alu.h"
#include "la/sparse.h"

namespace perfbench {

/// Fused dot + axpy through the QCS datapath vs the same pair of loops in
/// native double, over spans of the given lengths. Returns native time
/// divided by fused time (the fused path's share of native throughput).
double span_vs_native(const approxit::arith::QcsConfig& qcs,
                      approxit::arith::ApproxMode mode,
                      const std::vector<std::size_t>& lengths);

/// Plain double CSR SpMV over the same row_ptr/col_idx/values arrays as the
/// routed kernel, split into the same row shards (`bounds`, shard count + 1
/// entries) and run on `threads` workers.
void native_spmv(const approxit::la::CsrMatrix& m,
                 std::span<const std::size_t> bounds, std::size_t threads,
                 std::span<const double> x, std::span<double> y);

/// Runs every body once per round for `rounds` rounds, starting each round
/// at the next body so no body always runs first, and returns each body's
/// median ms per call. Kernels compared this way share the machine's slow
/// drift instead of each getting its own stretch of it.
std::vector<double> interleaved_median_ms(
    std::size_t rounds, const std::vector<std::function<void()>>& bodies);

/// Bytes a CSR SpMV touches per stored entry, computed from array sizes:
/// values + column indices + row pointers + one x read per entry + y.
double spmv_bytes_per_nnz(const approxit::la::CsrMatrix& m);

}  // namespace perfbench
