#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "topo/latency.hpp"

namespace dws::topo {
namespace {

struct RouteCase {
  std::string name;
  Placement placement;
  std::uint32_t procs_per_node;
  bool sampling;
};

class RouteEquivalence : public ::testing::TestWithParam<RouteCase> {};

/// The three latency tiers written out from the parameters, independent of
/// LatencyModel's own code path.
support::SimTime reference_latency(const JobLayout& layout,
                                   const LatencyParams& p, Rank src, Rank dst,
                                   std::uint32_t bytes) {
  const auto serialization = static_cast<support::SimTime>(
      static_cast<double>(bytes) / p.bytes_per_ns);
  if (layout.same_node(src, dst)) return p.same_node + serialization;
  const TofuCoord& a = layout.coord_of(src);
  const TofuCoord& b = layout.coord_of(dst);
  if (layout.machine().same_blade(a, b)) return p.same_blade + serialization;
  return p.network_base + p.per_hop * (layout.machine().hops(a, b) - 1) +
         serialization;
}

TEST_P(RouteEquivalence, EveryPairMatchesTheSeparateQueries) {
  const RouteCase& c = GetParam();
  const TofuMachine machine;
  const JobLayout layout(machine, 192, c.placement, c.procs_per_node);
  LatencyParams params;
  if (c.sampling) {
    params.sample_bins = {{10'000, 20'000, 3}, {20'000, 40'000, 1}};
    params.sample_seed = 7;
  }
  const LatencyModel model(layout, params);

  constexpr std::array<std::uint32_t, 3> kBytes = {0, 64, 100'000};
  constexpr std::array<support::SimTime, 2> kNow = {0, 123'456'789};
  std::array<std::uint64_t, 3> tier_pairs = {0, 0, 0};  // node, blade, net
  for (Rank src = 0; src < layout.num_ranks(); ++src) {
    for (Rank dst = 0; dst < layout.num_ranks(); ++dst) {
      const bool same_node = layout.same_node(src, dst);
      const bool same_blade = machine.same_blade(layout.coord_of(src),
                                                 layout.coord_of(dst));
      ++tier_pairs[same_node ? 0 : same_blade ? 1 : 2];
      for (const std::uint32_t bytes : kBytes) {
        for (const support::SimTime now : kNow) {
          const Route r = model.route(src, dst, bytes, now);
          ASSERT_EQ(r.latency, model.message_latency(src, dst, bytes, now))
              << src << "->" << dst << " bytes " << bytes << " at " << now;
          ASSERT_EQ(r.hops, model.hops(src, dst)) << src << "->" << dst;
          ASSERT_EQ(r.same_node, same_node) << src << "->" << dst;
          const support::SimTime expect =
              reference_latency(layout, params, src, dst, bytes);
          // The 3-arg form never samples; route() samples only the
          // network tier.
          ASSERT_EQ(model.message_latency(src, dst, bytes), expect);
          if (!c.sampling || same_node || same_blade) {
            ASSERT_EQ(r.latency, expect) << src << "->" << dst;
          } else {
            const auto serialization = static_cast<support::SimTime>(
                static_cast<double>(bytes) / params.bytes_per_ns);
            ASSERT_GE(r.latency, 10'000 + serialization);
            ASSERT_LT(r.latency, 40'000 + serialization);
          }
        }
      }
    }
  }
  // Every tier the layout can produce was exercised (a 1/N layout shares a
  // node only with itself).
  EXPECT_GE(tier_pairs[0], layout.num_ranks());
  EXPECT_GT(tier_pairs[1], 0u);
  EXPECT_GT(tier_pairs[2], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, RouteEquivalence,
    ::testing::Values(
        RouteCase{"OnePerNode", Placement::kOnePerNode, 1, false},
        RouteCase{"OnePerNodeSampled", Placement::kOnePerNode, 1, true},
        RouteCase{"RoundRobin8", Placement::kRoundRobin, 8, false},
        RouteCase{"RoundRobin8Sampled", Placement::kRoundRobin, 8, true},
        RouteCase{"Grouped8", Placement::kGrouped, 8, false},
        RouteCase{"Grouped8Sampled", Placement::kGrouped, 8, true}),
    [](const ::testing::TestParamInfo<RouteCase>& param_info) {
      return param_info.param.name;
    });

TEST(RouteSampling, DrawsArePinned) {
  // Fixed draws of the empirical backend: any change to the mixing or the
  // inverse-CDF walk would silently move every sampled run's records.
  const TofuMachine machine;
  const JobLayout layout(machine, 96, Placement::kOnePerNode);
  LatencyParams params;
  params.sample_bins = {{10'000, 20'000, 3}, {20'000, 40'000, 1}};
  params.sample_seed = 7;
  const LatencyModel model(layout, params);
  EXPECT_EQ(model.route(0, 95, 0, 12'345).latency, 26'567);
  EXPECT_EQ(model.route(3, 60, 64, 1'000'000).latency, 30'435);
  EXPECT_EQ(model.route(95, 12, 4096, 987'654'321).latency, 14'531);

  constexpr std::array<support::SimTime, 3> kNow = {0, 777, 5'000'000};
  std::uint64_t fold = 0;
  for (Rank s = 0; s < 96; ++s) {
    for (Rank d = 0; d < 96; ++d) {
      for (const support::SimTime t : kNow) {
        fold = fold * 31 + static_cast<std::uint64_t>(
                               model.route(s, d, (s * 7 + d) % 300, t).latency);
      }
    }
  }
  EXPECT_EQ(fold, 11373494642125294818ull);
}

}  // namespace
}  // namespace dws::topo
