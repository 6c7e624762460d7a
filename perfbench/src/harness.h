// Measurement harness shared by the perfbench workloads: clocks, percentile
// selection, in-memory spans with self-time arithmetic, the tracing-overhead
// self-check, the seeded open-loop arrival schedule of service_mix and a
// small JSON writer. Header-only and free of library dependencies so the
// harness tests build without the ApproxIt libraries.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds on the steady clock (arbitrary epoch, shared by all threads).
inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 90/100*100 = 90.00000000000001 rounding up a rank.
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile of `values` (0 when empty).
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

/// Median (nearest-rank p50).
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Arithmetic mean (0 when empty).
inline double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Samples strictly beyond the nearest rank of percentile `p`.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

/// Minimum samples a reported percentile needs beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// True when percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule a tail percentile must meet before it is reported.
inline bool percentile_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kTailSamples;
}

/// The highest of `candidates` that `n` samples support; 0 when none does.
inline double highest_supported_percentile(
    std::size_t n, std::vector<double> candidates = {99.9, 99.0, 90.0, 50.0}) {
  std::sort(candidates.begin(), candidates.end(), std::greater<>());
  for (double p : candidates) {
    if (percentile_supported(n, p)) return p;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Spans

/// One timed interval. `parent` is 0 for a root; spans of one solve or job
/// share `request`.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;

  double duration() const { return end_ms - start_ms; }
};

/// Length of the union of [begin, end) intervals clipped to [lo, hi).
inline double covered_length(std::vector<std::pair<double, double>> intervals,
                             double lo, double hi) {
  for (auto& interval : intervals) {
    interval.first = std::max(interval.first, lo);
    interval.second = std::min(interval.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [begin, end] : intervals) {
    if (end <= begin) continue;
    const double from = std::max(begin, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Indexed like `spans`.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = index.find(span.parent);
    if (it != index.end()) {
      children[it->second].emplace_back(span.start_ms, span.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() -
              covered_length(children[i], spans[i].start_ms, spans[i].end_ms);
  }
  return self;
}

/// Reconciliation of one request: the sum of its spans' self times against
/// the wall time of its root span (the span of the request whose parent is
/// outside the request).
struct Reconciliation {
  std::size_t requests = 0;
  double worst_error = 0.0;  ///< max |sum(self) - wall| / wall.
};

/// Checks every request that has a root span. With properly nested spans
/// the self times of a request add up to its root's wall time exactly; a
/// child that escapes its parent, or siblings that overlap, break the sum.
/// Request 0 holds container spans (a sweep around its parallel solves),
/// which are not requests of their own and are skipped.
inline Reconciliation reconcile(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& span : spans) by_id[span.id] = &span;
  std::map<std::uint64_t, double> self_sum;
  std::map<std::uint64_t, double> root_wall;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    self_sum[span.request] += self[i];
    const auto parent = by_id.find(span.parent);
    const bool root = parent == by_id.end() ||
                      parent->second->request != span.request;
    if (root) root_wall[span.request] += span.duration();
  }
  Reconciliation out;
  for (const auto& [request, wall] : root_wall) {
    if (request == 0 || wall <= 0.0) continue;
    ++out.requests;
    out.worst_error = std::max(
        out.worst_error, std::abs(self_sum[request] - wall) / wall);
  }
  return out;
}

/// Largest reconciliation error a traced run may show: the self times of a
/// request's spans must sum to its wall time within 1%.
inline constexpr double kReconcileTolerance = 0.01;

/// One unit of work run twice back to back, once untraced and once traced,
/// in alternating order from one pair to the next.
struct OverheadPair {
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
};

/// Tracing overhead of one traced run.
struct Overhead {
  double share = 0.0;  ///< Median over pairs of traced / untraced, minus 1.
  double noise = 0.0;  ///< Half the range of the pair ratios.
  std::size_t pairs = 0;
  /// At least three pairs, every one of them more than 2% faster traced,
  /// and the median more than 5% faster. Spans cannot make work faster, so
  /// such a reading means a broken comparison. Adjacent pairs cancel slow
  /// drift, and a zero true overhead makes every pair fall on the fast side
  /// only by chance.
  bool clearly_negative = false;
};

inline Overhead trace_overhead(const std::vector<OverheadPair>& pairs) {
  Overhead out;
  std::vector<double> ratios;
  for (const OverheadPair& pair : pairs) {
    if (pair.untraced_ms > 0.0) {
      ratios.push_back(pair.traced_ms / pair.untraced_ms);
    }
  }
  out.pairs = ratios.size();
  if (ratios.empty()) return out;
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  out.share = median(ratios) - 1.0;
  out.noise = (*hi - *lo) / 2.0;
  out.clearly_negative = ratios.size() >= 3 && *hi < 0.98 && out.share < -0.05;
  return out;
}

/// Thread-safe in-memory span store. Disabled tracers record nothing and
/// cost one branch per scope.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  std::uint64_t new_id() { return next_id_.fetch_add(1); }

  void record(Span span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  /// Records a finished interval under a fresh id; returns the id.
  std::uint64_t record(std::string name, double start_ms, double end_ms,
                       std::uint64_t parent, std::uint64_t request) {
    const std::uint64_t id = new_id();
    record(Span{std::move(name), start_ms, end_ms, id, parent, request});
    return id;
  }

  std::vector<Span> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(spans_, {});
  }

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: opens at construction, records at destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t parent,
        std::uint64_t request)
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(name),
        parent_(parent),
        request_(request) {
    if (tracer_ != nullptr) {
      id_ = tracer_->new_id();
      start_ = now_ms();
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->record(Span{name_, start_, now_ms(), id_, parent_, request_});
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  double start_ = 0.0;
};

// ---------------------------------------------------------------------------
// Seeded randomness and the open-loop arrival schedule

/// SplitMix64: a fixed, platform-independent generator (the standard
/// library's distributions are implementation-defined, so the schedule is
/// drawn from raw bits).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// One scheduled request of the open loop.
struct Arrival {
  double due_ms = 0.0;     ///< Offset from the start of the window.
  std::size_t combo = 0;   ///< Index into the spec list (dataset x strategy).
  std::size_t tenant = 0;  ///< Tenant number.
  bool repeat = false;     ///< Same (tenant, combo) as an earlier arrival.
};

/// Poisson arrivals over [0, seconds) at `rate_per_s`, conditioned on their
/// count: round(rate * seconds) arrival times drawn uniform and sorted (the
/// order statistics of a Poisson process with that many events). Combos are
/// dealt from a reshuffled deck holding combo c `deck[c]` times, so every
/// run carries nearly the same work mix and only its order and timing follow
/// the seed. Of the arrivals whose combo was already
/// dealt earlier, n / 2 chosen by the seed repeat the (tenant, combo) of a
/// random earlier arrival exactly; every other arrival takes the lowest
/// tenant that has not yet sent its combo, so fresh specs never run out.
inline std::vector<Arrival> make_schedule(
    std::uint64_t seed, double rate_per_s, double seconds,
    const std::vector<std::size_t>& deck_counts) {
  const std::size_t combos = deck_counts.size();
  SplitMix rng(seed);
  const std::size_t n = static_cast<std::size_t>(
      std::llround(std::max(0.0, rate_per_s * seconds)));
  std::vector<Arrival> out(n);
  for (Arrival& arrival : out) {
    arrival.due_ms = rng.uniform() * seconds * 1000.0;
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.due_ms < b.due_ms;
  });
  std::size_t deck_size = 0;
  for (std::size_t count : deck_counts) deck_size += count;
  if (n == 0 || deck_size == 0) return out;

  std::vector<std::size_t> deck;
  std::vector<std::size_t> seen_before;  // Arrivals whose combo came earlier.
  std::vector<std::size_t> dealt(combos, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (deck.empty()) {
      for (std::size_t c = 0; c < combos; ++c) {
        deck.insert(deck.end(), deck_counts[c], c);
      }
      rng.shuffle(deck);
    }
    out[i].combo = deck.back();
    deck.pop_back();
    if (dealt[out[i].combo]++ > 0) seen_before.push_back(i);
  }
  rng.shuffle(seen_before);
  seen_before.resize(std::min(seen_before.size(), n / 2));
  for (std::size_t i : seen_before) out[i].repeat = true;

  std::vector<std::size_t> fresh_sent(combos, 0);
  std::vector<std::vector<std::size_t>> tenants_of(combos);
  for (Arrival& arrival : out) {
    std::vector<std::size_t>& tenants = tenants_of[arrival.combo];
    if (arrival.repeat) {
      arrival.tenant = tenants[rng.below(tenants.size())];
    } else {
      arrival.tenant = fresh_sent[arrival.combo]++;
      tenants.push_back(arrival.tenant);
    }
  }
  return out;
}

/// Share of arrivals whose (tenant, combo) appeared earlier in the
/// schedule, counted from the schedule itself (not from the flags).
inline double measured_repeat_share(const std::vector<Arrival>& schedule) {
  if (schedule.empty()) return 0.0;
  std::map<std::pair<std::size_t, std::size_t>, bool> seen;
  std::size_t repeats = 0;
  for (const Arrival& arrival : schedule) {
    const auto key = std::make_pair(arrival.tenant, arrival.combo);
    if (seen.count(key) != 0) ++repeats;
    seen[key] = true;
  }
  return static_cast<double>(repeats) / static_cast<double>(schedule.size());
}

// ---------------------------------------------------------------------------
// JSON output

/// Formats a double with all its digits (17 significant), finite only.
inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

inline std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered metric set of one run.
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
