// Liveness contract of the candidate index (DESIGN.md §10.1): the grid's
// accepting flags must stay a superset of the truly accepting supernodes
// when liveness changes *only* through the production write sites —
// FogManager claims, releases and migrations; System crashes, crash
// clears, forced failures and recovery; provisioning redeploys. Every
// check compares the grid answer element-for-element with the kLinear
// reference scan, so a write site that forgets to report a node becoming
// accepting shows up as a missing candidate.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/baselines.hpp"
#include "core/fog_manager.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "util/rng.hpp"

namespace cloudfog::core {
namespace {

constexpr std::size_t kCandidates = 8;

/// Grid answer == linear answer for a player at `where`.
void expect_grid_matches_linear(const Cloud& cloud, const std::vector<SupernodeState>& fleet,
                                const net::Endpoint& where) {
  ASSERT_EQ(cloud.candidate_mode(), CandidateMode::kGrid);
  std::vector<std::size_t> grid;
  std::vector<std::size_t> linear;
  cloud.candidate_supernodes_into(where, fleet, kCandidates, grid);
  cloud.candidate_supernodes_linear(where, fleet, kCandidates, linear);
  ASSERT_EQ(grid, linear);
}

std::size_t accepting_count(const std::vector<SupernodeState>& fleet) {
  std::size_t n = 0;
  for (const auto& sn : fleet) n += sn.accepting() ? 1 : 0;
  return n;
}

const Testbed& big_testbed() {
  static const Testbed tb = [] {
    auto cfg = TestbedConfig::peersim(12000);
    cfg.supernode_capable_fraction = 1.0;  // fleets up to 12000
    return Testbed(cfg, 2024);
  }();
  return tb;
}

/// Sessions share the testbed's player endpoints; several sessions may
/// come from one endpoint, so a fleet can be filled past its player count.
class FogWriteSites : public ::testing::Test {
 protected:
  void build(std::size_t fleet_size) {
    const Testbed& tb = big_testbed();
    cloud_.emplace(tb.make_datacenters(), tb.latency(), net::IpLocator{});
    fog_.emplace(FogManagerConfig{}, *cloud_, tb.latency());
    fleet_ = tb.make_supernode_fleet(fleet_size);
    util::Rng reg_rng(fleet_size);
    for (auto& sn : fleet_) {
      cloud_->register_supernode(sn, reg_rng);
      sn.deployed = true;
    }
    cloud_->resync_liveness(fleet_);
    sessions_.clear();
    online_.clear();
  }

  /// A fresh offline session at testbed player `player`'s endpoint, a
  /// random one by default. The most lenient game keeps L_max from hiding
  /// discovery behind cloud fallback.
  std::size_t new_session(std::optional<std::size_t> player = std::nullopt) {
    const auto& players = big_testbed().players();
    PlayerState p;
    p.info = players[player.value_or(static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(players.size()) - 1)))];
    p.info.id = sessions_.size();
    p.game = 4;
    sessions_.push_back(std::move(p));
    return sessions_.size() - 1;
  }

  void claim(std::size_t s) {
    fog_->select_supernode(sessions_[s], fleet_, big_testbed().catalog(), 1, true, rng_);
    if (sessions_[s].serving.kind == ServingKind::kSupernode) online_.push_back(s);
  }

  /// Removes and returns a random fog-served session.
  std::size_t take_online() {
    const std::size_t pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(online_.size()) - 1));
    const std::size_t s = online_[pick];
    online_[pick] = online_.back();
    online_.pop_back();
    return s;
  }

  void check(std::size_t s) {
    expect_grid_matches_linear(*cloud_, fleet_, sessions_[s].info.endpoint);
    const auto& players = big_testbed().players();
    expect_grid_matches_linear(
        *cloud_, fleet_,
        players[static_cast<std::size_t>(
                    rng_.uniform_int(0, static_cast<std::int64_t>(players.size()) - 1))]
            .endpoint);
  }

  /// `ops` random claims, releases and migrations, each checked.
  void churn(int ops) {
    const auto& catalog = big_testbed().catalog();
    for (int op = 0; op < ops; ++op) {
      const std::int64_t kind = online_.empty() ? 0 : rng_.uniform_int(0, 2);
      std::size_t s = 0;
      if (kind == 0) {
        s = new_session();
        claim(s);
      } else if (kind == 1) {
        s = take_online();
        fog_->release(sessions_[s], fleet_);
      } else {
        // The serving seat is gone (as after a crash); migrate re-selects
        // from the cached candidates, then the full protocol.
        s = take_online();
        fog_->release(sessions_[s], fleet_);
        fog_->migrate(sessions_[s], fleet_, catalog, 1, true, rng_);
        if (sessions_[s].serving.kind == ServingKind::kSupernode) online_.push_back(s);
      }
      check(s);
      if (HasFatalFailure()) return;
    }
  }

  std::optional<Cloud> cloud_;
  std::optional<FogManager> fog_;
  std::vector<SupernodeState> fleet_;
  std::vector<PlayerState> sessions_;
  std::vector<std::size_t> online_;  ///< sessions holding a supernode seat
  util::Rng rng_{4711};
};

TEST_F(FogWriteSites, ClaimReleaseMigrateKeepGridEqualToLinear) {
  for (const std::size_t size : {60, 600, 2000, 12000}) {
    SCOPED_TRACE(size);
    build(size);
    churn(size >= 12000 ? 400 : 1500);
    if (HasFatalFailure()) return;
  }
}

TEST_F(FogWriteSites, MetroSaturatedFleetKeepsGridEqualToLinear) {
  // fog-daily's evening peak: claims fill the supernodes nearest the
  // metro-clustered players until only about a quarter still accept.
  build(12000);
  int claims = 0;
  while (accepting_count(fleet_) * 4 > fleet_.size()) {
    const std::size_t s = new_session();
    claim(s);
    if (++claims % 64 == 0) check(s);  // the fill is setup; spot-check it
    if (HasFatalFailure()) return;
  }
  const double accepting_share =
      static_cast<double>(accepting_count(fleet_)) / static_cast<double>(fleet_.size());
  EXPECT_GT(accepting_share, 0.2);
  churn(600);
  if (HasFatalFailure()) return;
  // Drain every seat: each release reports a node re-entering service.
  while (!online_.empty()) {
    const std::size_t s = take_online();
    fog_->release(sessions_[s], fleet_);
    if (online_.size() % 256 == 0) check(s);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(accepting_count(fleet_), fleet_.size());
  for (int q = 0; q < 64; ++q) check(new_session());
}

TEST_F(FogWriteSites, DrainToEmptyThenRefillKeepGridEqualToLinear) {
  // Claims run the fleet completely dry, so the last claims and the first
  // releases meet fewer accepting nodes than a ring walk reads cells — the
  // index answers them from its flagged list. Each session joins at the
  // machine of a node that still accepts, so the claims reach every seat.
  for (const std::size_t size : {600, 2000}) {
    SCOPED_TRACE(size);
    build(size);
    std::vector<std::size_t> open;
    const std::size_t limit = 40 * size;
    for (std::size_t claims = 0; claims < limit; ++claims) {
      open.clear();
      for (std::size_t i = 0; i < fleet_.size(); ++i) {
        if (fleet_[i].accepting()) open.push_back(i);
      }
      if (open.empty()) break;
      const std::size_t target = open[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1))];
      const std::size_t s = new_session(fleet_[target].owner_player);
      claim(s);
      if (open.size() <= 64 || claims % 64 == 0) check(s);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(accepting_count(fleet_), 0u) << "claims did not drain the fleet";
    for (int q = 0; q < 16; ++q) check(new_session());
    // Refill: every release reports a node re-entering service.
    while (!online_.empty()) {
      const std::size_t s = take_online();
      fog_->release(sessions_[s], fleet_);
      if (accepting_count(fleet_) <= 64 || online_.size() % 64 == 0) check(s);
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(accepting_count(fleet_), fleet_.size());
  }
}

/// The System's own write sites: crash and clear through the fault
/// injector, forced failures and recovery, provisioning redeploys at
/// every window, and the releases of daily churn.
TEST(SystemWriteSites, CrashesClearsFailuresAndRedeploysKeepGridEqualToLinear) {
  static const Testbed tb(TestbedConfig::peersim(6000), 77);
  SystemConfig cfg = cloudfog_advanced_config(tb, 360);  // fog-daily's 6 % ratio
  ASSERT_TRUE(cfg.strategies.provisioning);
  cfg.faults.enabled = true;
  cfg.faults.mix = fault::FaultMix{.crash = 1.0,
                                   .slow_node = 0.0,
                                   .partition = 0.0,
                                   .loss_burst = 0.0,
                                   .delay_burst = 0.0,
                                   .blackhole = 0.0};
  cfg.faults.faults_per_hour = 6.0;
  cfg.faults.mean_duration_s = 1800.0;
  cfg.faults.horizon_s = 2.0 * 24.0 * 3600.0;
  cfg.faults.seed = 5;
  System sys(tb, cfg, 91);
  ASSERT_NE(sys.injector(), nullptr);

  util::Rng rng(3);
  const auto check_sample = [&] {
    for (int q = 0; q < 300; ++q) {
      const auto& p = tb.players()[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(tb.players().size()) - 1))];
      expect_grid_matches_linear(sys.cloud(), sys.fleet(), p.endpoint);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };

  const int per_day = tb.activity().config().subcycles_per_day;
  for (int day = 1; day <= 2; ++day) {
    sys.begin_cycle(day);
    for (int sub = 1; sub <= per_day; ++sub) {
      sys.run_subcycle(day, sub, false, sub >= 19);
      check_sample();
      if (::testing::Test::HasFatalFailure()) return;
      if (day == 1 && sub == 20) {
        sys.inject_supernode_failures(40, day);
        check_sample();
        sys.recover_supernodes();
        check_sample();
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    sys.end_cycle(day);
    check_sample();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The run really exercised every write site.
  EXPECT_GT(sys.injector()->injected(), 0u);
  EXPECT_GT(sys.injector()->cleared(), 0u);
  EXPECT_GT(sys.metrics().migration_latency_ms.count(), 0u);
}

}  // namespace
}  // namespace cloudfog::core
