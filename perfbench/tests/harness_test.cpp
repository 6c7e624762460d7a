// Unit tests of the benchmark harness: percentile selection under the
// ten-samples-beyond rule, span self-time arithmetic and reconciliation, the
// tracing-overhead self-check, and seed determinism of the open-loop arrival
// schedule and spec draw.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_EQ(percentile(values, 50.0), 50.0);
  EXPECT_EQ(percentile(values, 90.0), 90.0);
  EXPECT_EQ(percentile(values, 100.0), 100.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p90 of 100 samples has exactly ten beyond it; of 99 only nine.
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_TRUE(percentile_supported(100, 90.0));
  EXPECT_FALSE(percentile_supported(99, 90.0));
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_TRUE(percentile_supported(20, 50.0));
  EXPECT_FALSE(percentile_supported(19, 50.0));
}

TEST(Percentile, HighestSupported) {
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(110), 90.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
}

TEST(Spans, CoveredLengthMergesOverlapsAndClips) {
  EXPECT_DOUBLE_EQ(covered_length({{1, 3}, {2, 5}, {7, 8}}, 0, 10), 5.0);
  EXPECT_DOUBLE_EQ(covered_length({{-2, 1}, {9, 12}}, 0, 10), 2.0);
  EXPECT_DOUBLE_EQ(covered_length({{4, 4}}, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(covered_length({}, 0, 10), 0.0);
}

TEST(Spans, SelfTimeIsDurationMinusChildCoverage) {
  const std::vector<Span> spans = {
      {"root", 0, 10, 1, 0, 7},
      {"a", 1, 3, 2, 1, 7},
      {"b", 2, 5, 3, 1, 7},   // Overlaps its sibling: counted once.
      {"c", 2.5, 3, 4, 3, 7}, // Grandchild: only b's self time shrinks.
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[3], 0.5);
}

TEST(Spans, NestedRequestReconcilesExactly) {
  const std::vector<Span> spans = {
      {"session", 0, 10, 1, 0, 5},
      {"iterate", 1, 4, 2, 1, 5},
      {"observe", 4, 4.5, 3, 1, 5},
      {"iterate", 5, 9, 4, 1, 5},
  };
  const Reconciliation rec = reconcile(spans);
  EXPECT_EQ(rec.requests, 1u);
  EXPECT_NEAR(rec.worst_error, 0.0, 1e-12);
}

TEST(Spans, EscapingOrOverlappingChildrenBreakReconciliation) {
  // A child running past its parent's end.
  const std::vector<Span> escaped = {
      {"job", 0, 10, 1, 0, 1},
      {"run", 5, 12, 2, 1, 1},
  };
  EXPECT_NEAR(reconcile(escaped).worst_error, 0.2, 1e-12);
  // Overlapping siblings of one request double count their overlap.
  const std::vector<Span> overlapping = {
      {"job", 0, 10, 1, 0, 1},
      {"queue", 0, 6, 2, 1, 1},
      {"run", 4, 10, 3, 1, 1},
  };
  EXPECT_NEAR(reconcile(overlapping).worst_error, 0.2, 1e-12);
}

TEST(Spans, ContainerRequestIsSkipped) {
  // A sweep (request 0) around two parallel solves of their own requests.
  const std::vector<Span> spans = {
      {"sweep", 0, 10, 1, 0, 0},
      {"solve", 0, 8, 2, 1, 11},
      {"solve", 1, 9, 3, 1, 12},
  };
  const Reconciliation rec = reconcile(spans);
  EXPECT_EQ(rec.requests, 2u);
  EXPECT_NEAR(rec.worst_error, 0.0, 1e-12);
}

TEST(Spans, ScopeRecordsOnlyWhenEnabled) {
  Tracer off(false);
  { Scope scope(off, "x", 0, 1); }
  EXPECT_TRUE(off.take().empty());
  Tracer on(true);
  std::uint64_t parent = 0;
  {
    Scope outer(on, "outer", 0, 1);
    parent = outer.id();
    Scope inner(on, "inner", outer.id(), 1);
  }
  const std::vector<Span> spans = on.take();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, parent);
  EXPECT_LE(spans[1].start_ms, spans[0].start_ms);
  EXPECT_GE(spans[1].end_ms, spans[0].end_ms);
}

TEST(Overhead, MedianOfPairRatios) {
  const Overhead overhead =
      trace_overhead({{100, 101}, {200, 204}, {50, 50.5}});
  EXPECT_EQ(overhead.pairs, 3u);
  EXPECT_NEAR(overhead.share, 0.01, 1e-12);
  EXPECT_FALSE(overhead.clearly_negative);
}

TEST(Overhead, ClearlyNegativeNeedsEveryPairFaster) {
  // Every pair 10% faster traced: a broken comparison.
  EXPECT_TRUE(
      trace_overhead({{100, 90}, {100, 90}, {100, 90}, {100, 90}})
          .clearly_negative);
  // One pair on the slow side: noise, not a broken measurement.
  EXPECT_FALSE(
      trace_overhead({{100, 90}, {100, 90}, {100, 101}}).clearly_negative);
  // Too few pairs to tell.
  EXPECT_FALSE(trace_overhead({{100, 80}, {100, 80}}).clearly_negative);
  // Every pair faster, but the median only by 3%.
  EXPECT_FALSE(
      trace_overhead({{100, 97}, {100, 97}, {100, 97}}).clearly_negative);
  EXPECT_EQ(trace_overhead({}).pairs, 0u);
}

const std::vector<std::size_t> kUniform(18, 1);

bool same_schedule(const std::vector<Arrival>& a,
                   const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].due_ms != b[i].due_ms || a[i].combo != b[i].combo ||
        a[i].tenant != b[i].tenant || a[i].repeat != b[i].repeat) {
      return false;
    }
  }
  return true;
}

TEST(Schedule, SameSeedSameArrivalsAndSpecs) {
  const auto a = make_schedule(42, 5.5, 20.0, kUniform);
  const auto b = make_schedule(42, 5.5, 20.0, kUniform);
  EXPECT_TRUE(same_schedule(a, b));
  EXPECT_FALSE(same_schedule(a, make_schedule(43, 5.5, 20.0, kUniform)));
}

TEST(Schedule, ShapeCountAndOrder) {
  const auto schedule = make_schedule(7, 5.5, 20.0, kUniform);
  ASSERT_EQ(schedule.size(), 110u);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].due_ms, 0.0);
    EXPECT_LT(schedule[i].due_ms, 20000.0);
    EXPECT_LT(schedule[i].combo, 18u);
    if (i > 0) {
      EXPECT_LE(schedule[i - 1].due_ms, schedule[i].due_ms);
    }
  }
  EXPECT_FALSE(schedule.front().repeat);
}

TEST(Schedule, HalfRepeatAndFreshSpecsAreNew) {
  for (std::uint64_t seed : {1u, 2u, 3u, 99u}) {
    const auto schedule = make_schedule(seed, 5.5, 20.0, kUniform);
    std::set<std::pair<std::size_t, std::size_t>> sent;
    std::size_t flagged = 0;
    for (const Arrival& arrival : schedule) {
      const auto key = std::make_pair(arrival.tenant, arrival.combo);
      // A repeat names an earlier (tenant, spec); a fresh one never does.
      EXPECT_EQ(sent.count(key) != 0, arrival.repeat);
      sent.insert(key);
      if (arrival.repeat) ++flagged;
    }
    EXPECT_EQ(flagged, schedule.size() / 2);
    EXPECT_DOUBLE_EQ(measured_repeat_share(schedule), 0.5);
  }
}

TEST(Schedule, EveryRunCarriesTheSameWorkMix) {
  for (std::uint64_t seed : {5u, 6u}) {
    const auto schedule = make_schedule(seed, 5.5, 20.0, kUniform);
    std::vector<std::size_t> per_combo(18, 0);
    for (const Arrival& arrival : schedule) ++per_combo[arrival.combo];
    // 110 arrivals dealt from decks of 18: six full decks and two more.
    for (std::size_t count : per_combo) {
      EXPECT_GE(count, 6u);
      EXPECT_LE(count, 7u);
    }
  }
}

TEST(Schedule, DeckCopiesSetTheMix) {
  // Combo 0 three times per deck, combo 1 once: 40 arrivals = 10 decks.
  const auto schedule = make_schedule(9, 2.0, 20.0, {3, 1, 0});
  std::vector<std::size_t> per_combo(3, 0);
  for (const Arrival& arrival : schedule) ++per_combo[arrival.combo];
  EXPECT_EQ(per_combo[0], 30u);
  EXPECT_EQ(per_combo[1], 10u);
  EXPECT_EQ(per_combo[2], 0u);
}

TEST(Json, NumbersKeepAllDigits) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(2.0), "2");
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
}

}  // namespace
}  // namespace perfbench
