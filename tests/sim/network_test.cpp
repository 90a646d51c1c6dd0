#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace dws::sim {
namespace {

struct TestMsg {
  int id = 0;
};

struct Delivery {
  topo::Rank dst;
  int id;
  support::SimTime at;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : layout_(machine_, 64, topo::Placement::kOnePerNode),
        model_(layout_),
        net_(engine_, model_, [this](topo::Rank dst, TestMsg m) {
          log_.push_back({dst, m.id, engine_.now()});
        }) {}

  topo::TofuMachine machine_;
  topo::JobLayout layout_;
  topo::LatencyModel model_;
  Engine engine_;
  Network<TestMsg> net_;
  std::vector<Delivery> log_;
};

TEST_F(NetworkTest, DeliversAfterModelLatency) {
  const auto expect = model_.message_latency(0, 63, 16);
  net_.send(0, 63, TestMsg{1}, 16);
  engine_.run();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].dst, 63u);
  EXPECT_EQ(log_[0].id, 1);
  EXPECT_EQ(log_[0].at, expect);
}

TEST_F(NetworkTest, NearRanksArriveBeforeFarRanks) {
  net_.send(0, 63, TestMsg{2}, 0);  // far
  net_.send(0, 1, TestMsg{1}, 0);   // same blade
  engine_.run();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].id, 1);
  EXPECT_EQ(log_[1].id, 2);
}

TEST_F(NetworkTest, ChannelDoesNotOvertake) {
  // A large message followed immediately by a tiny one on the same channel:
  // the tiny one would arrive first by raw latency, but MPI ordering says no.
  net_.send(0, 63, TestMsg{1}, 100000);  // 20 us serialization
  net_.send(0, 63, TestMsg{2}, 0);
  engine_.run();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].id, 1);
  EXPECT_EQ(log_[1].id, 2);
  EXPECT_GE(log_[1].at, log_[0].at);
}

TEST_F(NetworkTest, DistinctChannelsMayOvertake) {
  // Same sender, different destinations: no ordering constraint.
  net_.send(0, 63, TestMsg{1}, 100000);
  net_.send(0, 1, TestMsg{2}, 0);
  engine_.run();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].id, 2);
}

TEST_F(NetworkTest, CountsMessagesAndBytes) {
  net_.send(0, 1, TestMsg{1}, 100);
  net_.send(1, 2, TestMsg{2}, 50);
  engine_.run();
  EXPECT_EQ(net_.stats().messages, 2u);
  EXPECT_EQ(net_.stats().bytes, 150u);
  EXPECT_EQ(net_.stats().intra_node_messages, 0u);
}

TEST_F(NetworkTest, SeparateSendersInterleaveByLatency) {
  net_.send(5, 6, TestMsg{1}, 0);
  net_.send(10, 50, TestMsg{2}, 0);
  engine_.run();
  ASSERT_EQ(log_.size(), 2u);
  // Deliveries interleave purely by model latency (ids sorted accordingly).
  const bool first_is_nearer = model_.message_latency(5, 6, 0) <=
                               model_.message_latency(10, 50, 0);
  EXPECT_EQ(log_[0].id, first_is_nearer ? 1 : 2);
  EXPECT_EQ(log_[0].at, std::min(model_.message_latency(5, 6, 0),
                                 model_.message_latency(10, 50, 0)));
}

TEST(NetworkIntraNode, CountsSharedMemoryTraffic) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 16, topo::Placement::kGrouped, 8);
  topo::LatencyModel model(layout);
  Engine engine;
  int delivered = 0;
  Network<TestMsg> net(engine, model,
                       [&](topo::Rank, TestMsg) { ++delivered; });
  net.send(0, 1, TestMsg{1}, 0);  // ranks 0,1 share node 0 under kGrouped
  net.send(0, 8, TestMsg{2}, 0);  // rank 8 is on node 1
  engine.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().intra_node_messages, 1u);
}

TEST(NetworkCongestion, BoundaryLoadInflatesLaterWindows) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 10.0;
  congestion.window = 1000;
  Network<TestMsg> net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      congestion);
  // A flight launched in window 0 crosses boundary 1 (t=1000) and loads it
  // with its hops. A send two windows later reads that boundary's load and
  // pays the inflated latency; the first send read window -1 (nothing) and
  // sailed through raw.
  const auto raw1 = model.message_latency(0, 63, 0);
  ASSERT_GE(raw1, 1000);  // the flight is in the air as boundary 1 passes
  net.send(0, 63, TestMsg{1}, 0);
  engine.schedule_at(2500, [&] { net.send(1, 62, TestMsg{2}, 0); });
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], raw1);
  const double hops1 = static_cast<double>(model.hops(0, 63));
  const double raw2 = static_cast<double>(model.message_latency(1, 62, 0));
  EXPECT_EQ(arrivals[1],
            2500 + static_cast<support::SimTime>(raw2 * (1.0 + hops1 / 10.0)));
  EXPECT_GE(net.stats().max_load_hops, hops1);
}

TEST(NetworkCongestion, SameWindowSendsDoNotSeeEachOther) {
  // Both sends land in window 0, whose read boundary predates the run:
  // neither inflates the other. (The fluid model's same-instant coupling
  // moved to the next window boundary when congestion became windowed.)
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 10.0;
  congestion.window = 1000;
  Network<TestMsg> net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      congestion);
  net.send(0, 63, TestMsg{1}, 0);
  net.send(1, 62, TestMsg{2}, 0);
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  std::vector<support::SimTime> raw = {model.message_latency(0, 63, 0),
                                       model.message_latency(1, 62, 0)};
  std::sort(raw.begin(), raw.end());
  EXPECT_EQ(arrivals[0], raw[0]);
  EXPECT_EQ(arrivals[1], raw[1]);
}

TEST(NetworkCongestion, LoadExpiresWithTheFlight) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 10.0;
  congestion.window = 1000;
  Network<TestMsg> net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      congestion);
  const auto raw1 = model.message_latency(0, 63, 0);
  ASSERT_LT(raw1, 4000);  // flight 1 loads no boundary at or past t=4000
  net.send(0, 63, TestMsg{1}, 0);
  // A send long after the flight landed reads an empty boundary: raw latency.
  engine.schedule_at(5500, [&] { net.send(1, 62, TestMsg{2}, 0); });
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], 5500 + model.message_latency(1, 62, 0));
}

TEST(NetworkCongestion, SameNodeTrafficIsImmune) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 16, topo::Placement::kGrouped, 8);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 1.0;  // tiny capacity: network badly congested
  congestion.window = 800;
  Network<TestMsg> net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      congestion);
  ASSERT_GE(model.message_latency(0, 8, 0), 800);
  net.send(0, 8, TestMsg{1}, 0);  // inter-node: loads boundary 1 (t=800)
  // An intra-node send in a window whose read boundary carries that load
  // still travels at the shared-memory latency.
  engine.schedule_at(1700, [&] { net.send(0, 1, TestMsg{2}, 0); });
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], 1700 + model.params().same_node);
}

TEST(NetworkCongestion, WindowDefaultsToNetworkBase) {
  topo::LatencyParams latency;
  CongestionParams congestion;
  EXPECT_EQ(congestion_window(congestion, latency), latency.network_base);
  congestion.window = 250;
  EXPECT_EQ(congestion_window(congestion, latency), 250);
}

TEST(NetworkFaults, HugeMultiplierSaturatesInsteadOfWrapping) {
  // The wrap guard: an absurd latency multiplier (every link degraded by
  // 1e18x) must clamp the scaled latency instead of wrapping the virtual
  // clock through the double->int cast. The message still arrives, at the
  // saturation point.
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  fault::FaultConfig fc;
  fc.degraded_frac = 1.0;
  fc.degraded_mult = 1e18;
  fault::Injector injector(fc, 64);
  Network<TestMsg> net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      CongestionParams{}, &injector);
  net.send(0, 63, TestMsg{1}, 16);
  engine.run();
  ASSERT_EQ(arrivals.size(), 1u);
  constexpr support::SimTime kSaturated =
      std::numeric_limits<support::SimTime>::max() / 2;
  EXPECT_EQ(arrivals[0], kSaturated);
  EXPECT_GT(arrivals[0], 0);
}

TEST_F(NetworkTest, RetiresChannelsWhenTheLastDeliveryFires) {
  // Two messages on one channel, one on another: the channel table holds
  // the ordering state only while a delivery is in flight.
  net_.send(0, 5, TestMsg{1}, 16);
  net_.send(0, 5, TestMsg{2}, 16);
  net_.send(3, 7, TestMsg{3}, 16);
  EXPECT_EQ(net_.active_channels(), 2u);
  engine_.run();
  EXPECT_EQ(log_.size(), 3u);
  EXPECT_EQ(net_.active_channels(), 0u);  // all in-flight drained
  EXPECT_EQ(net_.stats().peak_channels, 2u);

  // Reusing a retired channel reopens it (retiring emptied its slot) and the
  // non-overtaking clamp starts fresh: delivery is at plain now + latency.
  const auto before = engine_.now();
  net_.send(0, 5, TestMsg{4}, 16);
  EXPECT_EQ(net_.active_channels(), 1u);
  engine_.run();
  EXPECT_EQ(log_.back().at, before + model_.message_latency(0, 5, 16));
  EXPECT_EQ(net_.active_channels(), 0u);
  EXPECT_EQ(net_.stats().peak_channels, 2u);  // high-water, not current
}

TEST_F(NetworkTest, PeakChannelsTracksDistinctPairsNotMessages) {
  // Many messages over the same pair count once; the peak is bounded by the
  // number of concurrently in-flight (src, dst) pairs, which is what keeps
  // the channel table small on long runs.
  for (int i = 0; i < 10; ++i) net_.send(1, 2, TestMsg{i}, 8);
  EXPECT_EQ(net_.active_channels(), 1u);
  EXPECT_EQ(net_.stats().peak_channels, 1u);
  for (topo::Rank src = 10; src < 14; ++src) {
    net_.send(src, 20, TestMsg{0}, 8);
  }
  EXPECT_EQ(net_.stats().peak_channels, 5u);
  engine_.run();
  EXPECT_EQ(net_.active_channels(), 0u);
  EXPECT_EQ(net_.stats().messages, 14u);
}

TEST(NetworkDeterminism, SameSendsSameDeliveries) {
  auto run_once = [] {
    topo::TofuMachine machine;
    topo::JobLayout layout(machine, 128, topo::Placement::kOnePerNode);
    topo::LatencyModel model(layout);
    Engine engine;
    std::vector<std::pair<topo::Rank, support::SimTime>> log;
    Network<TestMsg> net(engine, model, [&](topo::Rank dst, TestMsg) {
      log.emplace_back(dst, engine.now());
    });
    for (topo::Rank r = 0; r < 127; ++r) {
      net.send(r, r + 1, TestMsg{static_cast<int>(r)}, r * 8);
    }
    engine.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- ChannelTable against an unordered_map reference -----------------------

/// What the non-overtaking state must hold per live channel.
struct RefChannel {
  support::SimTime last_arrival = 0;
  std::uint32_t in_flight = 0;
};
using RefChannels = std::unordered_map<std::uint64_t, RefChannel>;

std::uint64_t key_of(topo::Rank src, topo::Rank dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

/// The reference's half of ChannelTable::admit.
support::SimTime ref_admit(RefChannels& ref, std::uint64_t key,
                           support::SimTime arrival) {
  RefChannel& ch = ref[key];
  if (ch.in_flight > 0 && arrival < ch.last_arrival) arrival = ch.last_arrival;
  ch.last_arrival = arrival;
  ++ch.in_flight;
  return arrival;
}

void ref_retire(RefChannels& ref, std::uint64_t key) {
  const auto it = ref.find(key);
  ASSERT_NE(it, ref.end());
  if (--it->second.in_flight == 0) ref.erase(it);
}

/// Every live channel is still found with its own state: admitting at time
/// 0 returns its last arrival (and the retire undoes the probe).
void expect_same_contents(ChannelTable& table, const RefChannels& ref) {
  ASSERT_EQ(table.size(), ref.size());
  for (const auto& [key, ch] : ref) {
    ASSERT_EQ(table.admit(key, 0), ch.last_arrival) << "key " << key;
    table.retire(key);
  }
  ASSERT_EQ(table.size(), ref.size());
}

TEST(ChannelTable, MatchesMapUnderRandomChurn) {
  ChannelTable table;
  RefChannels ref;
  support::Xoshiro256StarStar rng(20140519);
  std::vector<std::uint64_t> live;  // one entry per in-flight delivery
  std::size_t peak = 0;
  // Grow to a few hundred live channels, then drain back down, twice: the
  // table passes its initial capacity several times over and must never
  // shrink.
  for (int phase = 0; phase < 4; ++phase) {
    const bool filling = phase % 2 == 0;
    for (int op = 0; op < 6000; ++op) {
      const bool admit = live.empty() || rng.next_below(10) < (filling ? 7 : 3);
      if (admit) {
        const auto src = static_cast<topo::Rank>(rng.next_below(48));
        const auto dst = static_cast<topo::Rank>(rng.next_below(48));
        const std::uint64_t key = key_of(src, dst);
        const auto arrival =
            static_cast<support::SimTime>(rng.next_below(1'000'000));
        ASSERT_EQ(table.admit(key, arrival), ref_admit(ref, key, arrival));
        live.push_back(key);
      } else {
        const std::size_t i = rng.next_below(live.size());
        std::swap(live[i], live.back());
        table.retire(live.back());
        ref_retire(ref, live.back());
        live.pop_back();
      }
      peak = std::max(peak, ref.size());
      ASSERT_EQ(table.size(), ref.size());
      if (op % 500 == 0) expect_same_contents(table, ref);
    }
    expect_same_contents(table, ref);
  }
  EXPECT_GT(peak, 8 * ChannelTable::kInitialSlots);
  EXPECT_GE(table.capacity(), 2 * peak);
  for (const std::uint64_t key : live) table.retire(key);
  EXPECT_EQ(table.size(), 0u);
}

TEST(ChannelTable, WrappingClusterSurvivesEveryDeletionOrder) {
  // Seven keys whose probes start in the last two slots or the first two
  // (at the initial 16 slots, below the half-full growth point) form one
  // cluster that runs off the end of the slot array and wraps to slot 0.
  // Deleting them in every order exercises backward-shift deletion at the
  // cluster's head, tail and middle, across the wrap.
  const ChannelTable probe;
  const std::size_t n = probe.capacity();
  std::vector<std::uint64_t> keys;
  std::array<int, 4> want = {2, 2, 2, 1};  // homes n-2, n-1, 0, 1
  for (topo::Rank src = 0; src < 64 && keys.size() < 7; ++src) {
    for (topo::Rank dst = 0; dst < 64 && keys.size() < 7; ++dst) {
      const std::size_t home = probe.home(key_of(src, dst));
      const std::size_t idx = (home + 2) % n;  // n-2 -> 0, ..., 1 -> 3
      if (idx < want.size() && want[idx] > 0) {
        --want[idx];
        keys.push_back(key_of(src, dst));
      }
    }
  }
  ASSERT_EQ(keys.size(), 7u);

  std::vector<std::size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  int orders = 0;
  do {
    ChannelTable table;
    RefChannels ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto arrival = static_cast<support::SimTime>(1000 * (i + 1));
      ASSERT_EQ(table.admit(keys[i], arrival), arrival);
      ref_admit(ref, keys[i], arrival);
    }
    ASSERT_EQ(table.capacity(), n);  // no growth: the cluster is real
    for (const std::size_t i : order) {
      table.retire(keys[i]);
      ref_retire(ref, keys[i]);
      expect_same_contents(table, ref);
    }
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 5040);
}

// ---- Network against the reference, local and remote ------------------------

struct DiffMsg {
  topo::Rank src = 0;
  support::SimTime expect = 0;
};

/// Stub shard router: odd ranks live on another shard.
class OddRanksRemote final : public Network<DiffMsg>::Router {
 public:
  struct Post {
    topo::Rank dst;
    support::SimTime arrival;
    DiffMsg msg;
  };
  bool is_remote(topo::Rank dst) const override { return dst % 2 == 1; }
  void post(topo::Rank dst, support::SimTime arrival, support::SimTime,
            topo::Rank, DiffMsg&& msg) override {
    posts.push_back({dst, arrival, msg});
  }
  std::vector<Post> posts;
};

/// Random send/deliver churn on 64 ranks, checked message by message
/// against the reference clamp: every arrival (local delivery time or
/// posted remote arrival), active_channels() and peak_channels. With
/// `remote`, odd destinations go through the stub router and their channels
/// retire only when flush_retirements sees the clock pass the arrival.
void run_network_differential(bool remote) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel model(layout);
  Engine engine;
  RefChannels ref;
  std::uint64_t ref_peak = 0;
  std::uint64_t delivered = 0;
  std::uint64_t clamped = 0;
  Network<DiffMsg>* net_ptr = nullptr;
  Network<DiffMsg> net(engine, model, [&](topo::Rank dst, DiffMsg m) {
    EXPECT_EQ(engine.now(), m.expect) << m.src << "->" << dst;
    ref_retire(ref, key_of(m.src, dst));
    EXPECT_EQ(net_ptr->active_channels(), ref.size());
    ++delivered;
  });
  net_ptr = &net;
  OddRanksRemote router;
  if (remote) net.set_router(&router);
  // (arrival, key) of remote flights not yet retired by the reference.
  std::vector<std::pair<support::SimTime, std::uint64_t>> remote_pending;

  support::Xoshiro256StarStar rng(remote ? 7 : 3);
  for (int round = 0; round < 3000; ++round) {
    const int sends = static_cast<int>(rng.next_below(12));
    for (int i = 0; i < sends; ++i) {
      const auto src = static_cast<topo::Rank>(rng.next_below(64));
      auto dst = static_cast<topo::Rank>(rng.next_below(63));
      if (dst >= src) ++dst;
      // Mostly small messages, now and then a large one that later small
      // ones on its channel must not overtake.
      const std::uint32_t bytes =
          rng.next_below(8) == 0 ? 50'000 : static_cast<std::uint32_t>(
                                                rng.next_below(256));
      const support::SimTime raw =
          engine.now() + model.message_latency(src, dst, bytes, engine.now());
      const std::uint64_t key = key_of(src, dst);
      const support::SimTime expect = ref_admit(ref, key, raw);
      if (expect != raw) ++clamped;
      ref_peak = std::max<std::uint64_t>(ref_peak, ref.size());
      const std::size_t posts_before = router.posts.size();
      net.send(src, dst, DiffMsg{src, expect}, bytes);
      if (remote && dst % 2 == 1) {
        ASSERT_EQ(router.posts.size(), posts_before + 1);
        EXPECT_EQ(router.posts.back().arrival, expect);
        remote_pending.emplace_back(expect, key);
      }
      ASSERT_EQ(net.active_channels(), ref.size());
      ASSERT_EQ(net.stats().peak_channels, ref_peak);
    }
    if (remote && rng.next_below(4) == 0) {
      // Move the clock without a delivery, as a shard's other events would.
      engine.schedule_at(engine.now() +
                             static_cast<support::SimTime>(rng.next_below(3000)),
                         [] {});
    }
    engine.run(rng.next_below(10));
    if (remote) {
      net.flush_retirements();
      for (std::size_t i = 0; i < remote_pending.size();) {
        if (remote_pending[i].first <= engine.now()) {
          ref_retire(ref, remote_pending[i].second);
          remote_pending[i] = remote_pending.back();
          remote_pending.pop_back();
        } else {
          ++i;
        }
      }
    }
    ASSERT_EQ(net.active_channels(), ref.size());
  }
  engine.run();
  if (remote) {
    net.flush_retirements();
    for (const auto& [arrival, key] : remote_pending) {
      ASSERT_LE(arrival, engine.now());
      ref_retire(ref, key);
    }
  }
  EXPECT_EQ(net.active_channels(), 0u);
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(net.stats().peak_channels, ref_peak);
  EXPECT_GT(ref_peak, 2 * ChannelTable::kInitialSlots);  // the table grew
  EXPECT_GT(clamped, 0u);                                // the clamp fired
  EXPECT_GT(delivered, 0u);
  if (remote) {
    EXPECT_GT(router.posts.size(), 0u);
  }
}

TEST(NetworkChannels, LocalChurnMatchesReference) {
  run_network_differential(false);
}

TEST(NetworkChannels, RemoteLazyRetirementMatchesReference) {
  run_network_differential(true);
}

}  // namespace
}  // namespace dws::sim
