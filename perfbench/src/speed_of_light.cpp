#include "speed_of_light.h"

#include <algorithm>

#include "arith/workspace.h"
#include "harness.h"
#include "util/parallel.h"

namespace perfbench {

double span_vs_native(const approxit::arith::QcsConfig& qcs,
                      approxit::arith::ApproxMode mode,
                      const std::vector<std::size_t>& lengths) {
  approxit::arith::QcsAlu alu(qcs);
  alu.set_mode(mode);
  approxit::arith::BatchWorkspace chain(alu);
  SplitMix rng(7);
  double fused_ms = 0.0;
  double native_ms = 0.0;
  volatile double sink = 0.0;
  for (std::size_t n : lengths) {
    std::vector<double> x(n), y(n), out(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform() - 0.5;
      y[i] = rng.uniform() - 0.5;
    }
    // About 2^18 elements per timed call, whatever the span length.
    const std::size_t reps =
        std::max<std::size_t>(1, (std::size_t{1} << 18) / n);
    const std::vector<double> ms = interleaved_median_ms(
        9, {[&] {
              for (std::size_t r = 0; r < reps; ++r) {
                chain.begin();
                chain.dot(x, y);
                sink = sink + chain.finish();
                out = y;
                alu.axpy(0.5, x, out);
                sink = sink + out[n / 2];
              }
            },
            [&] {
              for (std::size_t r = 0; r < reps; ++r) {
                double acc = 0.0;
                for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
                sink = sink + acc;
                out = y;
                for (std::size_t i = 0; i < n; ++i) out[i] += 0.5 * x[i];
                sink = sink + out[n / 2];
              }
            }});
    fused_ms += ms[0];
    native_ms += ms[1];
    alu.reset_ledger();
  }
  return fused_ms > 0.0 ? native_ms / fused_ms : 0.0;
}

void native_spmv(const approxit::la::CsrMatrix& m,
                 std::span<const std::size_t> bounds, std::size_t threads,
                 std::span<const double> x, std::span<double> y) {
  const std::span<const std::size_t> row_ptr = m.row_ptr();
  const std::span<const std::uint32_t> col_idx = m.col_idx();
  const std::span<const double> values = m.values();
  approxit::util::parallel_for(bounds.size() - 1, threads, [&](std::size_t s) {
    for (std::size_t r = bounds[s]; r < bounds[s + 1]; ++r) {
      double acc = 0.0;
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        acc += values[k] * x[col_idx[k]];
      }
      y[r] = acc;
    }
  });
}

std::vector<double> interleaved_median_ms(
    std::size_t rounds, const std::vector<std::function<void()>>& bodies) {
  std::vector<std::vector<double>> samples(bodies.size());
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < bodies.size(); ++k) {
      const std::size_t which = (round + k) % bodies.size();
      const double start = now_ms();
      bodies[which]();
      samples[which].push_back(now_ms() - start);
    }
  }
  std::vector<double> out;
  for (std::vector<double>& ms : samples) out.push_back(median(std::move(ms)));
  return out;
}

double spmv_bytes_per_nnz(const approxit::la::CsrMatrix& m) {
  if (m.nnz() == 0) return 0.0;
  const double bytes =
      static_cast<double>(m.nnz()) *
          (sizeof(double) + sizeof(std::uint32_t) + sizeof(double)) +
      static_cast<double>(m.rows() + 1) * sizeof(std::size_t) +
      static_cast<double>(m.rows()) * sizeof(double);
  return bytes / static_cast<double>(m.nnz());
}

}  // namespace perfbench
