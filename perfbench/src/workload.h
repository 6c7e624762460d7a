// Shared interface of the three perfbench workloads, plus the forwarding
// decorators the traced runs use to time calls into the core and apps
// layers from outside the library.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arith/alu.h"
#include "core/strategy.h"
#include "harness.h"
#include "opt/iterative_method.h"

namespace perfbench {

/// Command-line settings of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;     ///< nproc.
  double slo_ms = 5000.0;      ///< service_mix latency limit.
  double max_late_ms = 50.0;   ///< Bound on the generator's p99 lateness.
  std::string run_dir = ".";   ///< Scratch directory inside the checkout.
};

/// Outcome of one run.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< Errored, refused, or failed an output check.
  Metrics end_to_end;      ///< Untraced measurements.
  Metrics layers;          ///< Traced measurements (trace runs only).
  /// Human-readable lines (sample counts, percentile support, checks).
  std::vector<std::string> notes;
  /// Set when a self-check rejects the measurement itself.
  std::string rejected;
};

Result run_paper_mix(const Options& options);
Result run_sparse_scale(const Options& options);
Result run_service_mix(const Options& options);

/// Peak resident set of this process in MB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Timed set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 3;

/// Median of kSetupReps timed set-ups, in seconds. Each repetition starts
/// from scratch; the last one's state is what the run measures.
template <typename SetUp>
double timed_setup_s(SetUp&& set_up) {
  std::vector<double> seconds;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const double start = now_ms();
    set_up();
    seconds.push_back((now_ms() - start) / 1000.0);
  }
  return median(seconds);
}

/// Records the traced run's measurement self-checks as layer metrics and
/// rejects the run when the trace overhead is clearly negative or a traced
/// request's self times miss its wall time by more than the tolerance.
inline void check_trace(Result& result, const std::string& what,
                        const Overhead& overhead,
                        const Reconciliation& reconciliation) {
  result.layers["obs.trace_overhead_share"] = {overhead.share, "ratio"};
  result.layers["obs.reconcile_error_share"] = {reconciliation.worst_error,
                                                "ratio"};
  result.notes.push_back(
      what + ": trace overhead " + json_number(overhead.share) + " over " +
      std::to_string(overhead.pairs) + " adjacent pairs (ratio half-range " +
      json_number(overhead.noise) + "); " +
      std::to_string(reconciliation.requests) +
      " traced requests reconciled, worst error " +
      json_number(reconciliation.worst_error) + " (tolerance " +
      json_number(kReconcileTolerance) + ")");
  if (!result.rejected.empty()) return;  // Keep the first rejection.
  if (overhead.clearly_negative) {
    result.rejected = what + ": tracing overhead is clearly negative (" +
                      json_number(overhead.share) +
                      "); the traced/untraced comparison is broken";
  } else if (overhead.pairs == 0) {
    result.rejected = what + ": no traced/untraced pair was measured";
  } else if (reconciliation.requests == 0 ||
             reconciliation.worst_error > kReconcileTolerance) {
    result.rejected = what + ": layer self times do not reconcile with the "
                      "request wall time (worst error " +
                      json_number(reconciliation.worst_error) + ")";
  }
}

/// Totals gathered by the decorators of one solve.
struct SolveTiming {
  std::string app;             ///< IterativeMethod::name().
  std::string label;           ///< Arm or solve label.
  double first_reset_ms = 0.0; ///< Session start as seen by the method.
  double last_end_ms = 0.0;    ///< End of the last iterate().
  double iterate_ms = 0.0;
  std::size_t iterations = 0;
  std::size_t accurate_iterations = 0;
  std::size_t restores = 0;    ///< Rollbacks and checkpoint restores.
  double observe_ms = 0.0;     ///< Strategy::observe (TimedStrategy only).

  double wall_ms() const { return last_end_ms - first_reset_ms; }
};

/// Collects SolveTiming records from decorators on any thread.
class TimingSink {
 public:
  void add(SolveTiming timing) {
    std::lock_guard<std::mutex> lock(mutex_);
    solves_.push_back(std::move(timing));
  }
  std::vector<SolveTiming> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(solves_, {});
  }

 private:
  std::mutex mutex_;
  std::vector<SolveTiming> solves_;
};

/// Forwarding IterativeMethod that times iterate() and counts restores.
/// Each iterate() becomes a span under the solve's root span, which is
/// recorded when the decorator is destroyed (the sweep destroys its arm
/// methods after the QEM pass). Results are unchanged: every call is
/// forwarded verbatim.
class TimedMethod final : public approxit::opt::IterativeMethod {
 public:
  TimedMethod(std::unique_ptr<approxit::opt::IterativeMethod> inner,
              std::string label, Tracer& tracer, TimingSink& sink,
              std::uint64_t parent_span)
      : TimedMethod(*inner, std::move(label), tracer, sink, parent_span) {
    owned_ = std::move(inner);
  }
  /// Non-owning: `inner` must outlive the decorator.
  TimedMethod(approxit::opt::IterativeMethod& inner, std::string label,
              Tracer& tracer, TimingSink& sink, std::uint64_t parent_span)
      : inner_(&inner),
        tracer_(tracer),
        sink_(sink),
        parent_(parent_span),
        root_id_(tracer.new_id()),
        request_(tracer.new_id()) {
    timing_.app = inner_->name();
    timing_.label = std::move(label);
  }
  ~TimedMethod() override {
    if (timing_.iterations == 0) return;  // Constructed but never run.
    tracer_.record(Span{"core.session", timing_.first_reset_ms,
                        timing_.last_end_ms, root_id_, parent_, request_});
    sink_.add(timing_);
  }
  TimedMethod(const TimedMethod&) = delete;
  TimedMethod& operator=(const TimedMethod&) = delete;

  std::uint64_t root_span() const { return root_id_; }
  std::uint64_t request() const { return request_; }
  SolveTiming& timing() { return timing_; }

  std::string name() const override { return inner_->name(); }
  std::size_t dimension() const override { return inner_->dimension(); }
  void reset() override {
    if (timing_.iterations == 0) timing_.first_reset_ms = now_ms();
    inner_->reset();
  }
  approxit::opt::IterationStats iterate(
      approxit::arith::ArithContext& ctx) override {
    if (const auto* alu = dynamic_cast<approxit::arith::QcsAlu*>(&ctx);
        alu != nullptr &&
        alu->mode() == approxit::arith::ApproxMode::kAccurate) {
      ++timing_.accurate_iterations;
    }
    const double start = now_ms();
    approxit::opt::IterationStats stats = inner_->iterate(ctx);
    const double end = now_ms();
    tracer_.record("apps.iterate", start, end, root_id_, request_);
    timing_.iterate_ms += end - start;
    timing_.last_end_ms = end;
    ++timing_.iterations;
    return stats;
  }
  double objective() const override { return inner_->objective(); }
  std::vector<double> state() const override { return inner_->state(); }
  void restore(const std::vector<double>& snapshot) override {
    ++timing_.restores;
    inner_->restore(snapshot);
  }
  std::size_t max_iterations() const override {
    return inner_->max_iterations();
  }
  double tolerance() const override { return inner_->tolerance(); }

  approxit::opt::IterativeMethod& inner() { return *inner_; }

 private:
  std::unique_ptr<approxit::opt::IterativeMethod> owned_;
  approxit::opt::IterativeMethod* inner_;
  Tracer& tracer_;
  TimingSink& sink_;
  std::uint64_t parent_;
  std::uint64_t root_id_;
  std::uint64_t request_;
  SolveTiming timing_;
};

/// Forwarding Strategy that times observe() into a TimedMethod's totals
/// and records each call as a span of that method's solve.
class TimedStrategy final : public approxit::core::Strategy {
 public:
  TimedStrategy(approxit::core::Strategy& inner, TimedMethod& method,
                Tracer& tracer)
      : inner_(inner), method_(method), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  void reset(const approxit::core::ModeCharacterization& c) override {
    inner_.reset(c);
  }
  approxit::arith::ApproxMode initial_mode() const override {
    return inner_.initial_mode();
  }
  approxit::core::Decision observe(
      approxit::arith::ApproxMode mode,
      const approxit::opt::IterationStats& stats) override {
    const double start = now_ms();
    approxit::core::Decision decision = inner_.observe(mode, stats);
    const double end = now_ms();
    tracer_.record("core.observe", start, end, method_.root_span(),
                   method_.request());
    method_.timing().observe_ms += end - start;
    // The session's bookkeeping after observe() belongs to the solve.
    method_.timing().last_end_ms = end;
    return decision;
  }

 private:
  approxit::core::Strategy& inner_;
  TimedMethod& method_;
  Tracer& tracer_;
};

}  // namespace perfbench
