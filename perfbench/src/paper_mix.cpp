// paper_mix: the paper's evaluation as configuration sweeps (Truth, level1-4
// static, incremental, adaptive) over the three GMM and three AR datasets,
// arms in parallel on nproc threads, characterization served from a cache
// warmed in set-up. The seed only orders the sweeps within a round.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "apps/autoregression.h"
#include "apps/gmm.h"
#include "core/adaptive_strategy.h"
#include "core/characterization.h"
#include "core/incremental_strategy.h"
#include "core/session_builder.h"
#include "core/sweep.h"
#include "obs/metrics.h"
#include "speed_of_light.h"
#include "workload.h"
#include "workloads/datasets.h"

namespace perfbench {

namespace {

using approxit::arith::QcsAlu;
using approxit::core::CharacterizationKey;
using approxit::core::ModeCharacterization;
using approxit::core::ParetoPoint;
namespace core = approxit::core;
namespace workloads = approxit::workloads;
namespace apps = approxit::apps;
namespace opt = approxit::opt;

/// In-memory characterization cache (the sweep's lookup seam).
class MapCache final : public core::CharacterizationCache {
 public:
  std::optional<ModeCharacterization> load(
      const CharacterizationKey& key) override {
    const auto it = profiles_.find(key.hash);
    if (it == profiles_.end() || it->second.first != key.description) {
      return std::nullopt;
    }
    return it->second.second;
  }
  void store(const CharacterizationKey& key,
             const ModeCharacterization& profile) override {
    profiles_[key.hash] = {key.description, profile};
  }

 private:
  std::map<std::uint64_t, std::pair<std::string, ModeCharacterization>>
      profiles_;
};

/// One paper dataset with its method factory and ALU configuration.
struct Dataset {
  std::string tag;
  bool gmm = true;
  workloads::GmmDataset gmm_data;
  workloads::TimeSeriesDataset series;

  std::unique_ptr<opt::IterativeMethod> make() const {
    if (gmm) return std::make_unique<apps::GmmEm>(gmm_data);
    return std::make_unique<apps::AutoRegression>(series);
  }
  approxit::arith::QcsConfig qcs() const {
    return gmm ? approxit::arith::QcsConfig{} : apps::ar_qcs_config();
  }
  /// Length of the spans the method folds per reduction.
  std::size_t span_length() const {
    return gmm ? gmm_data.size() : series.values.size() - series.ar_order;
  }
};

std::vector<Dataset> make_datasets() {
  std::vector<Dataset> out;
  for (workloads::GmmDatasetId id : workloads::all_gmm_datasets()) {
    Dataset ds;
    ds.gmm_data = workloads::make_gmm_dataset(id);
    ds.tag = ds.gmm_data.name;
    out.push_back(std::move(ds));
  }
  for (workloads::SeriesId id : workloads::all_series_datasets()) {
    Dataset ds;
    ds.gmm = false;
    ds.series = workloads::make_series_dataset(id);
    ds.tag = ds.series.name;
    out.push_back(std::move(ds));
  }
  return out;
}

opt::IterativeMethod& unwrap(opt::IterativeMethod& method) {
  if (auto* timed = dynamic_cast<TimedMethod*>(&method)) return timed->inner();
  return method;
}

/// The paper's QEMs: Hamming distance of GMM assignments, l2 error of AR
/// coefficients.
double qem(opt::IterativeMethod& truth, opt::IterativeMethod& candidate) {
  opt::IterativeMethod& t = unwrap(truth);
  opt::IterativeMethod& c = unwrap(candidate);
  if (auto* tg = dynamic_cast<apps::GmmEm*>(&t)) {
    return static_cast<double>(apps::hamming_distance(
        tg->assignments(), dynamic_cast<apps::GmmEm&>(c).assignments()));
  }
  return apps::coefficient_l2_error(
      dynamic_cast<apps::AutoRegression&>(c).coefficients(),
      dynamic_cast<apps::AutoRegression&>(t).coefficients());
}

bool same_points(const std::vector<ParetoPoint>& a,
                 const std::vector<ParetoPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].energy != b[i].energy ||
        a[i].quality_error != b[i].quality_error ||
        a[i].converged != b[i].converged ||
        a[i].iterations != b[i].iterations) {
      return false;
    }
  }
  return true;
}

/// Everything set-up produces.
struct State {
  std::vector<Dataset> datasets;
  MapCache cache;
  double generate_ms = 0.0;
  double characterize_ms = 0.0;
};

void set_up(State& state) {
  double start = now_ms();
  state.datasets = make_datasets();
  state.generate_ms = now_ms() - start;
  start = now_ms();
  state.cache = MapCache();
  for (const Dataset& ds : state.datasets) {
    QcsAlu alu(ds.qcs());
    const std::unique_ptr<opt::IterativeMethod> method = ds.make();
    const core::CharacterizationOptions char_options;
    state.cache.store(core::characterization_cache_key(*method, alu,
                                                       char_options, ds.tag),
                      core::characterize(*method, alu, char_options));
  }
  state.characterize_ms = now_ms() - start;
}

core::SweepOptions sweep_options(State& state, const Dataset& ds,
                                 std::size_t threads) {
  core::SweepOptions options;
  options.threads = threads;
  options.characterization_cache = &state.cache;
  options.workload_tag = ds.tag;
  return options;
}

/// Layer totals of the traced sweeps.
struct TracedTotals {
  std::vector<double> truth_ms;
  std::vector<double> efficiency;
  std::vector<double> imbalance;
  double ledger_ops = 0.0;
  std::size_t solves = 0;
  approxit::obs::MetricsRegistry registry;
};

}  // namespace

Result run_paper_mix(const Options& options) {
  Result result;
  State state;
  std::vector<double> generate_ms;
  std::vector<double> characterize_ms;
  const double setup_s = timed_setup_s([&] {
    set_up(state);
    generate_ms.push_back(state.generate_ms);
    characterize_ms.push_back(state.characterize_ms);
  });

  // Output reference: every dataset's sweep with threads = 1.
  std::vector<std::vector<ParetoPoint>> reference;
  for (const Dataset& ds : state.datasets) {
    QcsAlu alu(ds.qcs());
    reference.push_back(
        core::run_configuration_sweep([&ds] { return ds.make(); }, alu, qem,
                                      sweep_options(state, ds, 1))
            .points);
  }

  Tracer tracer(false);
  TimingSink sink;
  std::vector<SolveTiming> solved;  // Arms of the traced sweeps.
  TracedTotals totals;
  SplitMix rng(options.seed);
  std::vector<double> round_ms;
  std::vector<OverheadPair> overhead;
  std::vector<std::vector<ParetoPoint>> points;
  std::size_t solves = 0;
  std::size_t sweeps = 0;
  // A traced run sweeps every dataset twice in a row, untraced and traced,
  // the order flipping from one dataset to the next (ABBA), so slow drift
  // of the machine falls on both sides of the overhead comparison.
  const std::size_t passes = options.trace ? 2 : 1;
  const std::size_t min_rounds = options.trace ? 2 : 1;
  const double window_start = now_ms();

  for (std::size_t round = 0;
       round < min_rounds ||
       now_ms() - window_start < options.seconds * 1000.0;
       ++round) {
    std::vector<std::size_t> order(state.datasets.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);

    const double round_start = now_ms();
    for (std::size_t index : order) {
      const Dataset& ds = state.datasets[index];
      OverheadPair pair;
      for (std::size_t pass = 0; pass < passes; ++pass) {
        const bool traced = options.trace && (sweeps % 2 == pass);
        tracer.set_enabled(traced);
        QcsAlu alu(ds.qcs());
        core::SweepOptions sweep = sweep_options(state, ds, options.threads);
        core::MethodFactory factory = [&ds] { return ds.make(); };
        Scope sweep_span(tracer, "core.sweep", 0, 0);
        if (traced) {
          auto calls = std::make_shared<std::size_t>(0);
          factory = [&ds, &tracer, &sink, calls, parent = sweep_span.id()] {
            // Call 0 is the characterization probe (a cache hit), then the
            // arms in sweep order.
            const std::size_t call = (*calls)++;
            return std::make_unique<TimedMethod>(
                ds.make(), call == 1 ? "truth" : "arm", tracer, sink, parent);
          };
        }
        const double start = now_ms();
        core::SweepResult sweep_result =
            core::run_configuration_sweep(factory, alu, qem, sweep);
        const double wall = now_ms() - start;
        (traced ? pair.traced_ms : pair.untraced_ms) = wall;

        ++result.attempted;
        if (!same_points(sweep_result.points, reference[index])) {
          ++result.failed;
          result.notes.push_back("paper_mix: sweep of " + ds.tag +
                                 " differs from the threads=1 reference");
        }
        solves += sweep_result.points.size();
        if (traced) {
          std::vector<SolveTiming> arms = sink.take();
          double sum = 0.0;
          double longest = 0.0;
          for (const SolveTiming& arm : arms) {
            sum += arm.wall_ms();
            longest = std::max(longest, arm.wall_ms());
            if (arm.label == "truth") totals.truth_ms.push_back(arm.wall_ms());
          }
          if (!arms.empty()) {
            totals.efficiency.push_back(
                sum / (static_cast<double>(options.threads) * wall));
            totals.imbalance.push_back(
                longest / (sum / static_cast<double>(arms.size())));
          }
          totals.ledger_ops += static_cast<double>(alu.ledger().total_ops());
          totals.solves += sweep_result.points.size();
          for (SolveTiming& arm : arms) solved.push_back(std::move(arm));
        } else {
          points.push_back(std::move(sweep_result.points));
        }
      }
      if (options.trace) overhead.push_back(pair);
      ++sweeps;
    }
    round_ms.push_back(now_ms() - round_start);
  }
  tracer.set_enabled(false);

  if (!options.trace) {
    // End-to-end metrics, from untraced runs only.
    double energy_sum = 0.0;
    std::size_t energy_count = 0;
    for (const auto& sweep_points : points) {
      for (const ParetoPoint& p : sweep_points) {
        if (p.label == "truth") continue;
        energy_sum += p.energy;
        ++energy_count;
      }
    }
    // Worst strategy or static solve QEM relative to that dataset's level1
    // QEM (level1 itself excluded: it is the yardstick).
    double quality_loss = 0.0;
    for (const auto& sweep_points : reference) {
      double level1 = 0.0;
      double worst = 0.0;
      for (const ParetoPoint& p : sweep_points) {
        if (p.label == "level1") level1 = p.quality_error;
        else if (p.label != "truth") worst = std::max(worst, p.quality_error);
      }
      if (level1 > 0.0) quality_loss = std::max(quality_loss, worst / level1);
    }
    double wall_ms = 0.0;
    for (double ms : round_ms) wall_ms += ms;
    Metrics& e2e = result.end_to_end;
    e2e["solves_per_s"] = {static_cast<double>(solves) / (wall_ms / 1000.0),
                           "1/s"};
    // A request is one round: the paper's whole evaluation, six sweeps. The
    // sweeps themselves fall into six dataset-sized clusters, so
    // percentiles over sweeps jump between clusters from run to run.
    e2e["latency_ms_p50"] = {percentile(round_ms, 50.0), "ms"};
    e2e["latency_ms_p90"] = {percentile(round_ms, 90.0), "ms"};
    e2e["energy_ratio"] = {
        energy_count > 0 ? energy_sum / static_cast<double>(energy_count)
                         : 0.0,
        "ratio"};
    e2e["quality_loss"] = {quality_loss, "ratio"};
    e2e["setup_s"] = {setup_s, "s"};
    e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    result.notes.push_back(
        "paper_mix: latency samples are whole rounds (" +
        std::to_string(round_ms.size()) + "); highest percentile with ten "
        "samples beyond: p" +
        json_number(highest_supported_percentile(round_ms.size())));
    return result;
  }


  // Strategy probe: the incremental and adaptive arms of every dataset as
  // plain sessions with a timed strategy, for the observe() and session
  // self time the sweep does not expose.
  tracer.set_enabled(true);
  double probe_session_ms = 0.0;
  double probe_iterate_ms = 0.0;
  double probe_observe_ms = 0.0;
  std::size_t probe_iterations = 0;
  for (const Dataset& ds : state.datasets) {
    for (int which = 0; which < 2; ++which) {
      std::unique_ptr<core::Strategy> strategy;
      if (which == 0) strategy = std::make_unique<core::IncrementalStrategy>();
      else strategy = std::make_unique<core::AdaptiveAngleStrategy>();
      QcsAlu alu(ds.qcs());
      TimingSink probe_sink;
      double wall = 0.0;
      {
        TimedMethod method(ds.make(), "probe", tracer, probe_sink, 0);
        TimedStrategy timed_strategy(*strategy, method, tracer);
        const core::CharacterizationKey key = core::characterization_cache_key(
            method, alu, core::CharacterizationOptions{}, ds.tag);
        const ModeCharacterization profile = *state.cache.load(key);
        const double start = now_ms();
        core::SessionBuilder()
            .method(method)
            .strategy(timed_strategy)
            .alu(alu)
            .characterization(profile)
            .metrics(&totals.registry)
            .run();
        wall = now_ms() - start;
      }
      for (const SolveTiming& t : probe_sink.take()) {
        probe_session_ms += wall;
        probe_iterate_ms += t.iterate_ms;
        probe_observe_ms += t.observe_ms;
        probe_iterations += t.iterations;
      }
    }
  }
  tracer.set_enabled(false);

  const std::vector<SolveTiming>& arms = solved;
  std::map<std::string, std::pair<double, std::size_t>> per_app;
  double session_ms = 0.0;
  double iterate_ms = 0.0;
  std::size_t iterations = 0;
  std::size_t approx_iterations = 0;
  std::size_t accurate_iterations = 0;
  std::size_t restores = 0;
  for (const SolveTiming& arm : arms) {
    auto& [ms, count] = per_app[arm.app];
    ms += arm.iterate_ms;
    count += arm.iterations;
    session_ms += arm.wall_ms();
    iterate_ms += arm.iterate_ms;
    iterations += arm.iterations;
    restores += arm.restores;
    if (arm.label != "truth") {
      approx_iterations += arm.iterations;
      accurate_iterations += arm.accurate_iterations;
    }
  }
  const auto per_iteration_us = [&](const std::string& app) {
    const auto it = per_app.find(app);
    return it == per_app.end() || it->second.second == 0
               ? 0.0
               : it->second.first * 1000.0 /
                     static_cast<double>(it->second.second);
  };
  const auto counters = totals.registry.counter_values();
  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const double n_arms = std::max<double>(1.0, static_cast<double>(arms.size()));
  const double n_iter = std::max<double>(1.0, static_cast<double>(iterations));
  const double probe_iter =
      std::max<double>(1.0, static_cast<double>(probe_iterations));

  std::vector<std::size_t> gmm_lengths;
  std::vector<std::size_t> ar_lengths;
  for (const Dataset& ds : state.datasets) {
    (ds.gmm ? gmm_lengths : ar_lengths).push_back(ds.span_length());
  }
  const double gmm_sol = span_vs_native(approxit::arith::QcsConfig{},
                                       approxit::arith::ApproxMode::kAccurate,
                                       gmm_lengths);
  const double ar_sol = span_vs_native(apps::ar_qcs_config(),
                                      approxit::arith::ApproxMode::kAccurate,
                                      ar_lengths);

  const std::vector<Span> spans = tracer.take();
  const Reconciliation rec = reconcile(spans);

  Metrics& layers = result.layers;
  layers["workloads.generate_ms"] = {median(generate_ms), "ms"};
  layers["core.characterize_ms"] = {median(characterize_ms), "ms"};
  layers["core.truth_ms"] = {mean_of(totals.truth_ms), "ms"};
  layers["core.session_ms"] = {session_ms / n_arms, "ms"};
  layers["core.iterations"] = {static_cast<double>(iterations) / n_arms,
                               "count"};
  layers["core.rollback_share"] = {static_cast<double>(restores) / n_iter,
                                   "ratio"};
  layers["core.accurate_step_share"] = {
      approx_iterations > 0 ? static_cast<double>(accurate_iterations) /
                                  static_cast<double>(approx_iterations)
                            : 0.0,
      "ratio"};
  layers["core.strategy_us"] = {probe_observe_ms * 1000.0 / probe_iter, "us"};
  layers["core.session_self_us"] = {
      (probe_session_ms - probe_iterate_ms - probe_observe_ms) * 1000.0 /
          probe_iter,
      "us"};
  layers["core.sweep_efficiency"] = {mean_of(totals.efficiency), "ratio"};
  layers["core.arm_imbalance"] = {mean_of(totals.imbalance), "ratio"};
  layers["apps.iterate_us.gmm"] = {per_iteration_us("gmm_em"), "us"};
  layers["apps.iterate_us.ar"] = {per_iteration_us("autoregression"), "us"};
  layers["arith.ops"] = {
      totals.ledger_ops /
          std::max<double>(1.0, static_cast<double>(totals.solves)),
      "count"};
  layers["arith.ops_per_s"] = {
      iterate_ms > 0.0 ? totals.ledger_ops / (iterate_ms / 1000.0) : 0.0,
      "1/s"};
  layers["arith.ops_per_chain"] = {
      counter("alu.fused.chains") > 0.0
          ? counter("alu.fused.ops") / counter("alu.fused.chains")
          : 0.0,
      "count"};
  layers["arith.span_vs_native"] = {(gmm_sol + ar_sol) / 2.0, "ratio"};
  check_trace(result, "paper_mix", trace_overhead(overhead), rec);
  return result;
}

}  // namespace perfbench
