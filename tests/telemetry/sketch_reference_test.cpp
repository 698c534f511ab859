// QuantileSketch against the map-based reference in sketch_reference.hpp:
// seeded sequences of spans, replays and bulk observations must leave both
// sketches bit-identical, and the table-driven bucket key must equal the
// libm key for every quantized value it covers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sketch_reference.hpp"
#include "telemetry/sketch.hpp"

namespace capgpu::telemetry {
namespace {

constexpr unsigned kQuantBits = 38;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// One span or bulk value: mostly a +/-3% jittered latency around one of
/// eight bases spanning 2^-15 .. 2^13 (the top one above the key table),
/// sometimes an edge case the sketch must clamp or collapse.
double draw_value(Rng& rng, double base) {
  switch (rng.uniform_index(16)) {
    case 0: return 0.0;
    case 1: return -rng.uniform(0.0, 1.0);
    case 2: return rng.uniform(1e-8, 9e-7);  // below min_trackable
    case 3: return rng.uniform(5e3, 2e5);    // above the table
    default: return base * rng.uniform(0.97, 1.03);
  }
}

double draw_base(Rng& rng) {
  constexpr double kBases[] = {3e-5, 4e-4, 6e-3, 0.08, 1.3, 25.0, 700.0, 9e3};
  return kBases[rng.uniform_index(std::size(kBases))];
}

/// Count, sum, min, max and 1001 quantiles, compared bit for bit.
void expect_same(const QuantileSketch& s, const ReferenceSketch& ref,
                 const std::string& where) {
  ASSERT_EQ(s.count(), ref.count()) << where;
  EXPECT_EQ(bits(s.sum()), bits(ref.sum())) << where;
  EXPECT_EQ(bits(s.min()), bits(ref.min())) << where;
  EXPECT_EQ(bits(s.max()), bits(ref.max())) << where;
  int mismatched = 0;
  double first_q = -1.0;
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    if (bits(s.quantile(q)) != bits(ref.quantile(q))) {
      if (mismatched++ == 0) first_q = q;
    }
  }
  EXPECT_EQ(mismatched, 0) << where << ": first at q=" << first_q;
}

class SketchVersusReference
    : public ::testing::TestWithParam<QuantileSketchSpec> {};

TEST_P(SketchVersusReference, RandomOperationSequencesAgreeBitwise) {
  const QuantileSketchSpec spec = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    QuantileSketch s(spec);
    ReferenceSketch ref(spec);
    // A second pair receives only replays of records made on the first:
    // keys are recomputed by the replaying sketch.
    QuantileSketch replay_s(spec);
    ReferenceSketch replay_ref(spec);
    std::vector<SpanRecord> recs(6);
    std::vector<ReferenceSpan> spans(recs.size());
    std::vector<bool> recorded(recs.size(), false);
    std::vector<double> v;
    for (int op = 0; op < 600; ++op) {
      const std::string where =
          "seed " + std::to_string(seed) + " op " + std::to_string(op);
      const std::size_t slot = rng.uniform_index(recs.size());
      switch (rng.uniform_index(3)) {
        case 0: {  // a span, as one batch lane
          const double base = draw_base(rng);
          v.resize(rng.uniform_index(33));  // includes empty spans
          for (double& x : v) x = draw_value(rng, base);
          const double sum =
              s.observe_span_record(v.data(), v.size(), recs[slot]);
          spans[slot] = ref.observe_span(v.data(), v.size());
          recorded[slot] = true;
          EXPECT_EQ(bits(sum), bits(spans[slot].quant_sum)) << where;
          break;
        }
        case 1: {  // replays of an earlier span
          if (!recorded[slot]) break;
          const std::uint64_t k = rng.uniform_index(4);  // includes 0
          s.apply_record(recs[slot], k);
          ref.replay(spans[slot], k);
          replay_s.apply_record(recs[slot], k + 1);
          replay_ref.replay(spans[slot], k + 1);
          break;
        }
        default: {  // bulk observation of one value
          const double x = rng.uniform_index(32) == 0
                               ? std::numeric_limits<double>::quiet_NaN()
                               : draw_value(rng, draw_base(rng));
          const std::uint64_t n = rng.uniform_index(5);  // includes 0
          s.observe_many(x, n);
          ref.observe_many(x, n);
          break;
        }
      }
      if (op % 100 == 99) {
        expect_same(s, ref, where);
        expect_same(replay_s, replay_ref, where + " (replay sketch)");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, SketchVersusReference,
    ::testing::Values(QuantileSketchSpec{0.01, 1e-6},
                      QuantileSketchSpec{0.02, 1e-6},
                      QuantileSketchSpec{0.001, 1e-6}),
    [](const ::testing::TestParamInfo<QuantileSketchSpec>& param) {
      return "permille" + std::to_string(static_cast<int>(
                              std::lround(param.param.relative_error * 1000)));
    });

/// Every quantized value in [2^-24, 2^16): the key table's range
/// [2^-20, 2^12) for min_trackable 1e-6 plus four binades of libm fallback
/// on each side. Returns the number of 64-value cells of [2^-20, 2^12)
/// whose libm keys step twice (a table cell can hold only one step).
int expect_exact_keys(const QuantileSketchSpec& spec) {
  const QuantileSketch s(spec);
  const ReferenceSketch ref(spec);
  const std::uint64_t lo = bits(0x1p-24) >> kQuantBits;
  const std::uint64_t hi = bits(0x1p16) >> kQuantBits;
  const std::uint64_t table_lo = bits(0x1p-20) >> kQuantBits;
  const std::uint64_t table_hi = bits(0x1p12) >> kQuantBits;
  std::uint64_t mismatched = 0;
  std::uint64_t non_monotone = 0;
  double first_mismatch = 0.0;
  int prev = std::numeric_limits<int>::min();
  int cell_first = 0;
  int two_step_cells = 0;
  for (std::uint64_t i = lo; i < hi; ++i) {
    const double x = std::bit_cast<double>(i << kQuantBits);
    const int key = s.bucket_key(x);
    const int expected = ref.key(x);
    if (key != expected && mismatched++ == 0) first_mismatch = x;
    if (key < prev) ++non_monotone;
    prev = key;
    if (i >= table_lo && i < table_hi) {
      if (i % 64 == 0) cell_first = expected;
      if (i % 64 == 63 && expected - cell_first > 1) ++two_step_cells;
    }
  }
  EXPECT_EQ(hi - lo, std::uint64_t{40} << 14);
  EXPECT_EQ(mismatched, 0u) << "first mismatch at " << first_mismatch;
  EXPECT_EQ(non_monotone, 0u);
  return two_step_cells;
}

TEST(QuantileSketchKeys, TableMatchesLibmExhaustivelyAtAlpha1Percent) {
  EXPECT_EQ(expect_exact_keys({0.01, 1e-6}), 0);
}

TEST(QuantileSketchKeys, TableMatchesLibmExhaustivelyAtAlpha2Percent) {
  EXPECT_EQ(expect_exact_keys({0.02, 1e-6}), 0);
}

TEST(QuantileSketchKeys, FineSpecFallsBackToLibmExactly) {
  // At alpha = 0.001 a bucket is narrower than a 64-value cell, so some
  // cells step twice and no table can serve the spec: every key must still
  // be the libm one.
  EXPECT_GT(expect_exact_keys({0.001, 1e-6}), 0);
}

}  // namespace
}  // namespace capgpu::telemetry
