// perfbench: the repository benchmark program.
//
//   perfbench --workload paper_mix|sparse_scale|service_mix --seed N
//             --seconds S --trace 0|1 [--slo-ms MS] [--max-late-ms MS]
//             [--run-dir DIR] [--record FILE]
//
// Prints human-readable notes, then one JSON line with the full record
// (machine fingerprint, every metric with its unit), and finally the result
// line {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1. Exit codes: 0 success,
// 1 an output check failed, 2 usage error, 3 a self-check rejected the
// measurement (no result line is printed).
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "arith/simd_kernels.h"
#include "workload.h"

namespace {

using namespace perfbench;

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return 1;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The machine fingerprint stamped on every record; compare.py refuses to
/// pair records whose fingerprints differ.
std::string fingerprint_json(const Options& options) {
  return std::string("{\"nproc\": ") + std::to_string(options.threads) +
         ", \"simd_tier\": " +
         json_string(approxit::arith::simd::tier_name(
             approxit::arith::simd::detected_tier())) +
         ", \"compiler\": " + json_string(compiler()) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"seed\": " + std::to_string(options.seed) + "}";
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

/// Every per-layer metric with its unit. A traced run reports all of them;
/// a layer the workload does not exercise reads 0 (for example la.* on
/// paper_mix, whose data never touches the sparse datapath).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"workloads.generate_ms", "ms"},   {"core.characterize_ms", "ms"},
    {"core.truth_ms", "ms"},           {"core.session_ms", "ms"},
    {"core.iterations", "count"},      {"core.rollback_share", "ratio"},
    {"core.accurate_step_share", "ratio"}, {"core.strategy_us", "us"},
    {"core.session_self_us", "us"},    {"core.sweep_efficiency", "ratio"},
    {"core.arm_imbalance", "ratio"},   {"apps.iterate_us.gmm", "us"},
    {"apps.iterate_us.ar", "us"},      {"apps.iterate_us.pagerank", "us"},
    {"apps.iterate_us.cg", "us"},      {"arith.ops", "count"},
    {"arith.ops_per_s", "1/s"},        {"arith.ops_per_chain", "count"},
    {"arith.span_vs_native", "ratio"}, {"la.spmv_nnz_per_s", "1/s"},
    {"la.spmv_native_nnz_per_s", "1/s"}, {"la.spmv_vs_native", "ratio"},
    {"la.spmv_thread_scaling", "ratio"}, {"la.spmv_bytes_per_nnz", "B"},
    {"svc.submit_us", "us"},           {"svc.queue_ms_p50", "ms"},
    {"svc.queue_ms_p90", "ms"},        {"svc.run_ms_p50", "ms"},
    {"svc.run_ms_p90", "ms"},          {"svc.busy_share", "ratio"},
    {"svc.cache_hit_share", "ratio"},  {"svc.rejected.queue_full", "count"},
    {"svc.rejected.tenant_cap", "count"},
    {"svc.rejected.rate_limited", "count"},
    {"svc.rejected.shed_overload", "count"},
    {"svc.rejected.other", "count"},   {"svc.repeat_share", "ratio"},
    {"svc.slo_miss_share", "ratio"},   {"net.overhead_ms_p50", "ms"},
    {"net.overhead_ms_p90", "ms"},     {"net.rtt_us", "us"},
    {"net.bytes_per_job", "B"},        {"gen.late_ms_p99", "ms"},
    {"obs.trace_overhead_share", "ratio"},
    {"obs.reconcile_error_share", "ratio"},
};

/// Fills the layers a workload does not exercise with 0; throws on a
/// metric missing from kLayerMetrics or reported with another unit.
void complete_layers(Metrics& layers) {
  Metrics complete;
  for (const auto& [name, unit] : kLayerMetrics) {
    complete[name] = {0.0, unit};
  }
  for (const auto& [name, metric] : layers) {
    const auto it = complete.find(name);
    if (it == complete.end() || it->second.unit != metric.unit) {
      throw std::logic_error("unlisted layer metric " + name + " [" +
                             metric.unit + "]");
    }
    it->second = metric;
  }
  layers = std::move(complete);
}

int usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.threads = nproc();
  std::string record_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--slo-ms") {
        options.slo_ms = std::stod(value);
      } else if (flag == "--max-late-ms") {
        options.max_late_ms = std::stod(value);
      } else if (flag == "--run-dir") {
        options.run_dir = value;
      } else if (flag == "--record") {
        record_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  Result result;
  try {
    if (options.workload == "paper_mix") {
      result = run_paper_mix(options);
    } else if (options.workload == "sparse_scale") {
      result = run_sparse_scale(options);
    } else if (options.workload == "service_mix") {
      result = run_service_mix(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
    if (options.trace) complete_layers(result.layers);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }

  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (!result.rejected.empty()) {
    std::fprintf(stderr, "perfbench: measurement rejected: %s\n",
                 result.rejected.c_str());
    return 3;
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  const Metrics& reported = options.trace ? result.layers : result.end_to_end;
  const std::string record =
      std::string("{\"workload\": ") + json_string(options.workload) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"seconds\": " + json_number(options.seconds) +
      ", \"fingerprint\": " + fingerprint_json(options) +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"end_to_end\": " + metrics_json(result.end_to_end) +
      ", \"layers\": " + metrics_json(result.layers) + "}";
  std::printf("# record %s\n", record.c_str());
  if (!record_path.empty()) {
    std::ofstream(record_path) << record << "\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", result.attempted, result.failed,
              metrics_json(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
