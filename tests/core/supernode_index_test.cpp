// Grid-vs-linear candidate discovery equality (DESIGN.md §10.1): the
// geo-grid index must return element-for-element what the reference
// linear scan returns — same indices, same order — across randomized
// fleets, capacity/deployment churn and fleet swaps, because the two
// paths are interchangeable behind Cloud::candidate_supernodes and the
// determinism gate compares runs that may differ only in mode. The index
// tracks liveness: transitions into accepting are reported through
// Cloud::note_liveness / resync_liveness, transitions out need no report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cloud.hpp"
#include "core/entities.hpp"
#include "core/supernode_index.hpp"
#include "core/testbed.hpp"
#include "net/ip_locator.hpp"
#include "util/rng.hpp"

namespace {

using namespace cloudfog;

class SupernodeIndexProperty : public ::testing::Test {
 protected:
  SupernodeIndexProperty() : testbed_(make_config(), 4242) {}

  static core::TestbedConfig make_config() {
    auto cfg = core::TestbedConfig::peersim(12000);
    cfg.supernode_capable_fraction = 1.0;  // allow fleets up to 12000
    return cfg;
  }

  const net::Endpoint& random_player(util::Rng& rng) const {
    return testbed_.players()[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(testbed_.players().size()) - 1))]
        .endpoint;
  }

  core::Cloud make_cloud() const {
    return core::Cloud(testbed_.make_datacenters(), testbed_.latency(), net::IpLocator{});
  }

  /// Registers `fleet` and applies one round of random churn.
  void register_and_churn(core::Cloud& cloud, std::vector<core::SupernodeState>& fleet,
                          util::Rng& rng) const {
    for (auto& sn : fleet) cloud.register_supernode(sn, rng);
    churn(fleet, rng);
  }

  static void churn(std::vector<core::SupernodeState>& fleet, util::Rng& rng) {
    for (auto& sn : fleet) {
      sn.deployed = rng.chance(0.7);
      sn.failed = rng.chance(0.1);
      sn.served = static_cast<int>(rng.uniform_int(0, sn.capacity));
    }
  }

  /// Both modes over the same query; EXPECT element-for-element equality.
  void expect_modes_agree(core::Cloud& cloud, const std::vector<core::SupernodeState>& fleet,
                          const net::Endpoint& player, std::size_t count) {
    cloud.set_candidate_mode(core::CandidateMode::kGrid);
    cloud.candidate_supernodes_into(player, fleet, count, grid_);
    cloud.set_candidate_mode(core::CandidateMode::kLinear);
    cloud.candidate_supernodes_into(player, fleet, count, linear_);
    EXPECT_EQ(grid_, linear_);
  }

  core::Testbed testbed_;
  std::vector<std::size_t> grid_;
  std::vector<std::size_t> linear_;
};

TEST_F(SupernodeIndexProperty, MatchesLinearAcrossRandomFleetsAndChurn) {
  util::Rng rng(99);
  const std::size_t fleet_sizes[] = {1, 7, 60, 600, 2000, 12000};
  for (const std::size_t size : fleet_sizes) {
    core::Cloud cloud = make_cloud();
    auto fleet = testbed_.make_supernode_fleet(size);
    util::Rng reg_rng(rng.next_u64());
    register_and_churn(cloud, fleet, reg_rng);
    for (int round = 0; round < 4; ++round) {
      for (int q = 0; q < 32; ++q) {
        const std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 13));
        expect_modes_agree(cloud, fleet, random_player(rng), count);
      }
      // The churn writes fields directly, in both directions; the nodes it
      // turns accepting must be reported like any bulk change.
      churn(fleet, rng);
      cloud.resync_liveness(fleet);
    }
  }
}

TEST_F(SupernodeIndexProperty, UnreportedExitsFromAcceptingStillMatchLinear) {
  // Leaving the accepting set needs no report: the query re-checks every
  // flagged node and drops the stale ones. Each round takes nodes out of
  // service by direct field writes — seats filled, crashes, withdrawals —
  // and never tells the cloud.
  util::Rng rng(31);
  const std::size_t fleet_sizes[] = {60, 600, 2000, 12000};
  for (const std::size_t size : fleet_sizes) {
    core::Cloud cloud = make_cloud();
    auto fleet = testbed_.make_supernode_fleet(size);
    for (auto& sn : fleet) {
      cloud.register_supernode(sn, rng);
      sn.deployed = true;
    }
    for (int round = 0; round < 6; ++round) {
      for (int q = 0; q < 24; ++q) {
        expect_modes_agree(cloud, fleet, random_player(rng), 8);
      }
      for (auto& sn : fleet) {
        if (!rng.chance(0.25)) continue;
        switch (rng.uniform_int(0, 2)) {
          case 0: sn.served = sn.capacity; break;
          case 1: sn.failed = true; break;
          default: sn.deployed = false; break;
        }
      }
    }
    // Everything gone: nothing may be returned.
    for (auto& sn : fleet) sn.failed = true;
    expect_modes_agree(cloud, fleet, random_player(rng), 8);
    EXPECT_TRUE(grid_.empty());
  }
}

TEST_F(SupernodeIndexProperty, DrainedFleetsMatchLinear) {
  // Fleets run nearly dry at peak: a handful of accepting nodes, or none,
  // among thousands. Queries from the metro centres find the survivors of
  // a metro-clustered keep set within a few rings; queries from the
  // corners of the populated box, or against a scattered keep set, read
  // more cells than there are flagged slots and fall back to the flagged
  // list. Each keep set is reached twice: by unreported exits of everyone
  // else (stale flags cleared on sight), then by draining everything and
  // reporting the keep set's re-entries one by one.
  constexpr std::size_t kCount = 8;
  util::Rng rng(57);
  const auto& metros = testbed_.plane().metros();
  for (const std::size_t size : {600, 6000, 12000}) {
    SCOPED_TRACE(size);
    core::Cloud cloud = make_cloud();
    auto fleet = testbed_.make_supernode_fleet(size);
    for (auto& sn : fleet) cloud.register_supernode(sn, rng);
    std::vector<net::GeoPoint> located;
    for (const auto& sn : fleet) {
      located.push_back(cloud.locator().locate(sn.ip).value_or(sn.endpoint.position));
    }
    net::GeoPoint lo = located.front();
    net::GeoPoint hi = located.front();
    for (const net::GeoPoint& p : located) {
      lo = {std::min(lo.x_km, p.x_km), std::min(lo.y_km, p.y_km)};
      hi = {std::max(hi.x_km, p.x_km), std::max(hi.y_km, p.y_km)};
    }
    std::vector<net::Endpoint> origins;
    for (const net::GeoPoint& m : metros) origins.push_back(net::Endpoint{m});
    for (const double x : {lo.x_km, hi.x_km}) {
      for (const double y : {lo.y_km, hi.y_km}) origins.push_back(net::Endpoint{{x, y}});
    }
    const auto query_all = [&] {
      for (const net::Endpoint& from : origins) {
        for (const std::size_t count : {std::size_t{1}, kCount, kCount + 1}) {
          expect_modes_agree(cloud, fleet, from, count);
        }
      }
      for (int q = 0; q < 8; ++q) expect_modes_agree(cloud, fleet, random_player(rng), kCount);
    };
    // Unreported exit, one of the three ways a node stops accepting.
    const auto exit_service = [&](core::SupernodeState& sn) {
      switch (rng.uniform_int(0, 2)) {
        case 0: sn.served = sn.capacity; break;
        case 1: sn.failed = true; break;
        default: sn.deployed = false; break;
      }
    };
    const auto restore = [](core::SupernodeState& sn) {
      sn.served = 0;
      sn.failed = false;
      sn.deployed = true;
    };

    for (const std::size_t keep : {std::size_t{0}, std::size_t{1}, kCount - 1, kCount,
                                   kCount + 1, std::size_t{50}}) {
      for (const bool clustered : {true, false}) {
        SCOPED_TRACE(testing::Message() << "keep=" << keep << " clustered=" << clustered);
        // The keep set: the nodes nearest a random metro, or a random draw.
        std::vector<std::size_t> order(size);
        for (std::size_t i = 0; i < size; ++i) order[i] = i;
        if (clustered) {
          const net::GeoPoint centre = metros[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(metros.size()) - 1))];
          std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return net::distance_km(centre, located[a]) < net::distance_km(centre, located[b]);
          });
        } else {
          std::shuffle(order.begin(), order.end(), rng);
        }
        const std::vector<std::size_t> keepers(order.begin(),
                                               order.begin() + static_cast<std::ptrdiff_t>(keep));

        // Refill in bulk, then everyone outside the keep set leaves
        // without a report.
        for (auto& sn : fleet) restore(sn);
        cloud.resync_liveness(fleet);
        expect_modes_agree(cloud, fleet, random_player(rng), kCount);
        for (std::size_t i = keep; i < size; ++i) exit_service(fleet[order[i]]);
        query_all();
        if (HasFailure()) return;

        // Drain to empty without reports, then report each re-entry.
        for (const std::size_t i : keepers) exit_service(fleet[i]);
        query_all();
        for (const std::size_t i : keepers) {
          restore(fleet[i]);
          cloud.note_liveness(fleet, i);
        }
        query_all();
        if (HasFailure()) return;
      }
    }
  }
}

TEST(SupernodeIndex, CellSizeFollowsFleetSize) {
  // 150 km up to the paper's 600-node fleet, then ∝ 1/√n, floored at 25 km.
  EXPECT_DOUBLE_EQ(core::SupernodeIndex::cell_km_for(0), 150.0);
  EXPECT_DOUBLE_EQ(core::SupernodeIndex::cell_km_for(60), 150.0);
  EXPECT_DOUBLE_EQ(core::SupernodeIndex::cell_km_for(600), 150.0);
  EXPECT_NEAR(core::SupernodeIndex::cell_km_for(6000), 47.43, 0.01);
  EXPECT_NEAR(core::SupernodeIndex::cell_km_for(12000), 33.54, 0.01);
  EXPECT_DOUBLE_EQ(core::SupernodeIndex::cell_km_for(1000000), 25.0);

  core::SupernodeIndex index;
  index.rebuild(std::vector<net::GeoPoint>(6000, net::GeoPoint{10.0, 20.0}),
                std::vector<core::SupernodeState>(6000));
  EXPECT_EQ(index.size(), 6000u);
  EXPECT_DOUBLE_EQ(index.cell_km(), core::SupernodeIndex::cell_km_for(6000));
}

TEST_F(SupernodeIndexProperty, EmptyFleetReturnsNothing) {
  core::Cloud cloud = make_cloud();
  std::vector<core::SupernodeState> fleet;
  expect_modes_agree(cloud, fleet, testbed_.players()[0].endpoint, 8);
  EXPECT_TRUE(grid_.empty());
}

TEST_F(SupernodeIndexProperty, FullySaturatedFleetReturnsNothing) {
  core::Cloud cloud = make_cloud();
  auto fleet = testbed_.make_supernode_fleet(300);
  util::Rng rng(5);
  for (auto& sn : fleet) cloud.register_supernode(sn, rng);
  for (auto& sn : fleet) {
    sn.deployed = true;
    sn.served = sn.capacity;  // no spare seats anywhere
  }
  expect_modes_agree(cloud, fleet, testbed_.players()[1].endpoint, 8);
  EXPECT_TRUE(grid_.empty());
}

TEST_F(SupernodeIndexProperty, CountBeyondAcceptingReturnsAllAccepting) {
  core::Cloud cloud = make_cloud();
  auto fleet = testbed_.make_supernode_fleet(50);
  util::Rng rng(6);
  for (auto& sn : fleet) cloud.register_supernode(sn, rng);
  std::size_t accepting = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].deployed = (i % 2) == 0;  // half the fleet accepts
    if (fleet[i].accepting()) ++accepting;
  }
  expect_modes_agree(cloud, fleet, testbed_.players()[2].endpoint, fleet.size() * 3);
  EXPECT_EQ(grid_.size(), accepting);
}

TEST_F(SupernodeIndexProperty, RebuildsWhenFleetIdentityChanges) {
  core::Cloud cloud = make_cloud();
  util::Rng rng(12);
  // Alternate between two different fleets behind the same cloud — the
  // index must track whichever vector was queried last.
  auto fleet_a = testbed_.make_supernode_fleet(200);
  register_and_churn(cloud, fleet_a, rng);
  auto fleet_b = testbed_.make_supernode_fleet(120);
  register_and_churn(cloud, fleet_b, rng);
  for (int round = 0; round < 3; ++round) {
    expect_modes_agree(cloud, fleet_a, testbed_.players()[round].endpoint, 8);
    expect_modes_agree(cloud, fleet_b, testbed_.players()[round + 8].endpoint, 8);
  }
  // Unregistering bumps the registry epoch; queries must still agree.
  cloud.unregister_supernode(fleet_b.back());
  fleet_b.pop_back();
  expect_modes_agree(cloud, fleet_b, testbed_.players()[30].endpoint, 8);
}

}  // namespace
