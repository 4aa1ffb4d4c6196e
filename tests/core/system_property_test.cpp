// Property tests: invariants that must hold for EVERY architecture arm,
// workload mode and strategy combination, checked at every subcycle of a
// multi-day run. These are the guard rails under the figure harness —
// if an experiment config breaks accounting, it fails here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>

#include "core/baselines.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"

namespace cloudfog::core {
namespace {

const Testbed& property_testbed() {
  static const Testbed tb(TestbedConfig::peersim(800), 777);
  return tb;
}

struct SystemCase {
  std::string name;
  Architecture architecture;
  StrategyToggles strategies;
  WorkloadMode workload;
  std::size_t fixed_deployment;
};

// gtest puts the printed parameter into the listed test name, which becomes
// the ctest name. The default byte dump would include the std::string's
// buffer pointer, so the name would change from run to run under ASLR.
void PrintTo(const SystemCase& c, std::ostream* os) { *os << c.name; }

class SystemInvariants : public ::testing::TestWithParam<SystemCase> {};

void check_invariants(const System& sys) {
  // 1. Supernode seat accounting: Σ served == fog-attached online players,
  //    and no supernode exceeds its capacity or serves while undeployed.
  std::size_t fog_players = 0;
  std::size_t cdn_players = 0;
  for (const auto& p : sys.players()) {
    if (!p.online) {
      ASSERT_FALSE(p.session.has_value());
      continue;
    }
    ASSERT_TRUE(p.serving.attached());
    ASSERT_TRUE(p.session.has_value());
    switch (p.serving.kind) {
      case ServingKind::kSupernode: {
        ASSERT_LT(p.serving.index, sys.fleet().size());
        const auto& sn = sys.fleet()[p.serving.index];
        ASSERT_TRUE(sn.deployed);
        ASSERT_FALSE(sn.failed);
        ++fog_players;
        break;
      }
      case ServingKind::kCdn:
        ASSERT_LT(p.serving.index, sys.cdn_servers().size());
        ++cdn_players;
        break;
      case ServingKind::kCloud:
        ASSERT_LT(p.serving.index, sys.cloud().datacenter_count());
        break;
      case ServingKind::kNone:
        FAIL() << "online player with no serving entity";
    }
    // 2. Sessions stream within the game's quality budget.
    const auto& game = sys.players()[p.info.id].session->game_info();
    ASSERT_LE(p.session->current_bitrate_kbps(),
              property_testbed().catalog().ladder()
                  .at_level(game.default_quality_level).bitrate_kbps + 1e-9);
  }
  std::size_t seats = 0;
  for (const auto& sn : sys.fleet()) {
    ASSERT_GE(sn.served, 0);
    ASSERT_LE(sn.served, sn.capacity);
    seats += static_cast<std::size_t>(sn.served);
  }
  ASSERT_EQ(seats, fog_players);
  std::size_t cdn_seats = 0;
  for (const auto& edge : sys.cdn_servers()) {
    ASSERT_GE(edge.served, 0);
    ASSERT_LE(edge.served, edge.capacity);
    cdn_seats += static_cast<std::size_t>(edge.served);
  }
  ASSERT_EQ(cdn_seats, cdn_players);
}

TEST_P(SystemInvariants, HoldAtEverySubcycle) {
  const SystemCase& c = GetParam();
  SystemConfig cfg;
  cfg.architecture = c.architecture;
  cfg.strategies = c.strategies;
  cfg.workload = c.workload;
  cfg.fixed_deployment = c.fixed_deployment;
  cfg.supernode_count =
      std::min<std::size_t>(60, property_testbed().supernode_capable().size());
  cfg.cdn_server_count = 30;
  if (c.workload == WorkloadMode::kArrivalRates) {
    cfg.arrivals = ArrivalWorkload{10.0, 40.0};
  }
  System sys(property_testbed(), cfg, 1234);

  for (int day = 1; day <= 3; ++day) {
    sys.begin_cycle(day);
    for (int sub = 1; sub <= 24; ++sub) {
      const auto qos = sys.run_subcycle(day, sub, day == 1, sub >= 20);
      check_invariants(sys);
      // 3. Aggregates stay on their scales.
      ASSERT_GE(qos.avg_continuity, 0.0);
      ASSERT_LE(qos.avg_continuity, 1.0);
      ASSERT_GE(qos.satisfied_fraction, 0.0);
      ASSERT_LE(qos.satisfied_fraction, 1.0);
      ASSERT_GE(qos.avg_mos, 1.0);
      ASSERT_LE(qos.avg_mos, 5.0);
      ASSERT_GE(qos.cloud_egress_mbps, 0.0);
      ASSERT_EQ(qos.online_sessions, qos.fog_served + qos.cloud_served + qos.cdn_served);
      if (qos.online_sessions > 0) {
        ASSERT_GT(qos.avg_response_latency_ms, 0.0);
      }
    }
    // 4. Mid-run failure injection keeps accounting intact (fog arms).
    if (c.architecture == Architecture::kCloudFog && day == 2) {
      sys.inject_supernode_failures(5, day);
      check_invariants(sys);
      sys.recover_supernodes();
    }
    sys.end_cycle(day);
    check_invariants(sys);
  }
}

// update_cross_server_latency reads System's dense online flags, not the
// player records. Recompute its §3.4 term for every online player from
// players() and the server partition: any transition the flags missed
// shows up as a changed friend count, so the comparison is exact.
double expected_cross_server_ms(const System& sys, std::size_t i) {
  const auto& players = sys.players();
  const auto& partition = sys.partition();
  const int total_servers = static_cast<int>(sys.cloud().datacenter_count()) *
                            property_testbed().config().servers_per_datacenter;
  const double stranger_cross = 1.0 - 1.0 / static_cast<double>(total_servers);
  const double w_f = sys.config().friend_interaction_weight;
  int online_friends = 0;
  int cross_friends = 0;
  for (const social::PlayerId f : property_testbed().social_graph().friends(i)) {
    if (!players[f].online) continue;
    ++online_friends;
    if (partition[f] != partition[i]) ++cross_friends;
  }
  const double friend_cross =
      online_friends == 0
          ? stranger_cross
          : static_cast<double>(cross_friends) / static_cast<double>(online_friends);
  return sys.config().cross_server_penalty_ms *
         (w_f * friend_cross + (1.0 - w_f) * stranger_cross);
}

void check_cross_server_terms(const System& sys) {
  for (std::size_t i = 0; i < sys.players().size(); ++i) {
    if (!sys.players()[i].online) continue;
    ASSERT_EQ(sys.players()[i].cross_server_ms, expected_cross_server_ms(sys, i))
        << "player " << i;
  }
}

TEST(OnlineFlags, CrossServerTermsTrackEveryOnlineTransition) {
  SystemConfig cfg;
  cfg.architecture = Architecture::kCloudFog;
  cfg.strategies = StrategyToggles::all();
  cfg.workload = WorkloadMode::kArrivalRates;
  cfg.arrivals = ArrivalWorkload{10.0, 40.0};
  cfg.fixed_deployment = 20;
  cfg.supernode_count =
      std::min<std::size_t>(60, property_testbed().supernode_capable().size());
  // Crashes displace sessions mid-day; each lasts a few hours.
  cfg.faults.enabled = true;
  for (const double hour : {6.0, 20.0, 31.0, 45.0}) {
    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::kSupernodeCrash;
    crash.at_s = hour * 3600.0 + 1.0;
    crash.duration_s = 4.0 * 3600.0;
    cfg.faults.extra_specs.push_back(crash);
  }
  System sys(property_testbed(), cfg, 4321);

  std::size_t forced = 0;
  std::size_t drained = 0;
  for (int day = 1; day <= 3; ++day) {
    sys.begin_cycle(day);
    for (int sub = 1; sub <= 24; ++sub) {
      if (day == 2 && sub == 6) sys.set_arrival_rate_override(0.0);  // arrivals pause
      if (day == 2 && sub == 12) sys.set_arrival_rate_override(std::nullopt);
      if (sub == 16) forced += sys.force_departures(0.3);
      sys.run_subcycle(day, sub, false, sub >= 20);
      check_cross_server_terms(sys);
    }
    if (day == 2) drained = sys.drain_sessions();
    sys.end_cycle(day);
  }
  EXPECT_GT(forced, 0u);
  EXPECT_GT(drained, 0u);
  EXPECT_GT(sys.metrics().sessions_interrupted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllArms, SystemInvariants,
    ::testing::Values(
        SystemCase{"cloud_daily", Architecture::kCloudDirect, StrategyToggles::none(),
                   WorkloadMode::kDailySessions, 0},
        SystemCase{"cdn_daily", Architecture::kCdn, StrategyToggles::none(),
                   WorkloadMode::kDailySessions, 0},
        SystemCase{"fog_basic_daily", Architecture::kCloudFog, StrategyToggles::none(),
                   WorkloadMode::kDailySessions, 0},
        SystemCase{"fog_advanced_daily", Architecture::kCloudFog, StrategyToggles::all(),
                   WorkloadMode::kDailySessions, 0},
        SystemCase{"fog_advanced_arrivals", Architecture::kCloudFog,
                   StrategyToggles::all(), WorkloadMode::kArrivalRates, 20},
        SystemCase{"fog_basic_arrivals_fixed_pool", Architecture::kCloudFog,
                   StrategyToggles::none(), WorkloadMode::kArrivalRates, 10}),
    [](const ::testing::TestParamInfo<SystemCase>& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace cloudfog::core
