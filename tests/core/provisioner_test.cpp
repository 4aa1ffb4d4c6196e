#include "core/provisioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "util/require.hpp"

namespace cloudfog::core {
namespace {

std::vector<SupernodeState> make_fleet(std::size_t n) {
  std::vector<SupernodeState> fleet(n);
  for (std::size_t i = 0; i < n; ++i) {
    fleet[i].id = i;
    fleet[i].capacity = 10;
  }
  return fleet;
}

TEST(Provisioner, NoHistoryNeedsNothing) {
  const Provisioner prov(ProvisionerConfig{});
  EXPECT_EQ(prov.supernodes_needed(10.0), 0u);
}

TEST(Provisioner, Eq15FleetSizing) {
  ProvisionerConfig cfg;
  cfg.epsilon = 0.1;
  Provisioner prov(cfg);
  prov.observe_window(1000.0);
  // Persistence forecast = 1000; N_s = ceil(1.1 * 1000 / 10) = 110.
  EXPECT_EQ(prov.supernodes_needed(10.0), 110u);
}

TEST(Provisioner, EpsilonScalesFleet) {
  ProvisionerConfig a;
  a.epsilon = 0.0;
  ProvisionerConfig b;
  b.epsilon = 1.0;
  Provisioner pa(a);
  Provisioner pb(b);
  pa.observe_window(500.0);
  pb.observe_window(500.0);
  EXPECT_EQ(pa.supernodes_needed(10.0), 50u);
  EXPECT_EQ(pb.supernodes_needed(10.0), 100u);
}

TEST(Provisioner, DeploySetsExactCount) {
  const Provisioner prov(ProvisionerConfig{});
  auto fleet = make_fleet(20);
  util::Rng rng(1);
  EXPECT_EQ(prov.deploy(fleet, 7, rng), 7u);
  std::size_t deployed = 0;
  for (const auto& sn : fleet) {
    if (sn.deployed) ++deployed;
  }
  EXPECT_EQ(deployed, 7u);
}

TEST(Provisioner, DeployCapsAtFleetSize) {
  const Provisioner prov(ProvisionerConfig{});
  auto fleet = make_fleet(5);
  util::Rng rng(2);
  EXPECT_EQ(prov.deploy(fleet, 50, rng), 5u);
}

TEST(Provisioner, FailedSupernodesNeverDeployed) {
  const Provisioner prov(ProvisionerConfig{});
  auto fleet = make_fleet(10);
  for (std::size_t i = 0; i < 5; ++i) fleet[i].failed = true;
  util::Rng rng(3);
  EXPECT_EQ(prov.deploy(fleet, 10, rng), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FALSE(fleet[i].deployed);
}

TEST(Provisioner, BusySupernodesPreferred) {
  // Eq. 16: candidates are ranked by last window's supported players and
  // picked with rank-harmonic probability, so the busiest half must be
  // chosen far more often than the idle half.
  const Provisioner prov(ProvisionerConfig{});
  auto fleet = make_fleet(20);
  for (std::size_t i = 0; i < 10; ++i) fleet[i].supported_last_window = 100;
  util::Rng rng(4);
  int busy_picks = 0;
  int idle_picks = 0;
  for (int trial = 0; trial < 200; ++trial) {
    prov.deploy(fleet, 5, rng);
    for (std::size_t i = 0; i < 20; ++i) {
      if (!fleet[i].deployed) continue;
      (fleet[i].supported_last_window > 0 ? busy_picks : idle_picks)++;
    }
  }
  EXPECT_GT(busy_picks, idle_picks * 2);
}

/// The Eq. 16 sampler as first written — a plain scan from rank 0 for
/// every pick, taken ranks included — kept verbatim as the oracle for
/// Provisioner::deploy.
std::size_t reference_deploy(std::vector<SupernodeState>& fleet, std::size_t wanted,
                             util::Rng& rng) {
  std::vector<std::size_t> ranked;
  ranked.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (!fleet[i].failed) ranked.push_back(i);
  }
  std::stable_sort(ranked.begin(), ranked.end(), [&fleet](std::size_t a, std::size_t b) {
    return fleet[a].supported_last_window > fleet[b].supported_last_window;
  });

  for (auto& sn : fleet) sn.deployed = false;

  const std::size_t target = std::min(wanted, ranked.size());
  std::vector<double> weight(ranked.size());
  for (std::size_t j = 0; j < ranked.size(); ++j) weight[j] = 1.0 / static_cast<double>(j + 1);
  std::size_t deployed = 0;
  double weight_left = 0.0;
  for (double w : weight) weight_left += w;
  std::vector<bool> taken(ranked.size(), false);
  while (deployed < target) {
    double u = rng.next_double() * weight_left;
    std::size_t pick = ranked.size();
    for (std::size_t j = 0; j < ranked.size(); ++j) {
      if (taken[j]) continue;
      if (u < weight[j]) {
        pick = j;
        break;
      }
      u -= weight[j];
    }
    if (pick == ranked.size()) {
      for (std::size_t j = 0; j < ranked.size(); ++j) {
        if (!taken[j]) {
          pick = j;
          break;
        }
      }
    }
    taken[pick] = true;
    weight_left -= weight[pick];
    fleet[ranked[pick]].deployed = true;
    ++deployed;
  }
  return deployed;
}

TEST(Provisioner, DeployMatchesPlainScanSampler) {
  // Same seed, same deployed set: across fleets with tied popularity,
  // failed nodes and every regime of `wanted`, from none to all and past.
  const Provisioner prov(ProvisionerConfig{});
  util::Rng gen(17);
  for (const std::size_t n : {1, 2, 3, 10, 61, 600, 3000}) {
    for (int trial = 0; trial < 4; ++trial) {
      auto fleet = make_fleet(n);
      for (auto& sn : fleet) {
        sn.supported_last_window = static_cast<int>(gen.uniform_int(0, 4));  // many ties
        sn.failed = gen.chance(trial == 0 ? 0.0 : 0.2);
        sn.deployed = gen.chance(0.5);  // both must overwrite every flag
      }
      for (const std::size_t wanted : {std::size_t{0}, std::size_t{1}, n / 3, 2 * n / 3, n - 1,
                                       n, 2 * n}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial
                                        << " wanted=" << wanted);
        const std::uint64_t seed = gen.next_u64();
        auto expected = fleet;
        util::Rng ref_rng(seed);
        const std::size_t ref_count = reference_deploy(expected, wanted, ref_rng);
        auto actual = fleet;
        util::Rng rng(seed);
        EXPECT_EQ(prov.deploy(actual, wanted, rng), ref_count);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(actual[i].deployed, expected[i].deployed) << "node " << i;
        }
      }
    }
  }
}

TEST(Provisioner, ForecastFollowsSeasonalPattern) {
  ProvisionerConfig cfg;
  cfg.sarima.season_length = 6;
  Provisioner prov(cfg);
  // Two full "weeks" of a 6-window pattern.
  const std::vector<double> pattern{100, 200, 400, 800, 600, 150};
  for (int rep = 0; rep < 3; ++rep) {
    for (double v : pattern) prov.observe_window(v);
  }
  // Next window corresponds to pattern[0].
  EXPECT_NEAR(prov.forecast_players(), 100.0, 30.0);
}

TEST(Provisioner, Validation) {
  ProvisionerConfig cfg;
  cfg.window_hours = 0;
  EXPECT_THROW(Provisioner{cfg}, ConfigError);
  cfg = ProvisionerConfig{};
  cfg.epsilon = -0.5;
  EXPECT_THROW(Provisioner{cfg}, ConfigError);
  Provisioner prov{ProvisionerConfig{}};
  EXPECT_THROW(prov.supernodes_needed(0.0), ConfigError);
  EXPECT_THROW(prov.observe_window(-1.0), ConfigError);
}

}  // namespace
}  // namespace cloudfog::core
